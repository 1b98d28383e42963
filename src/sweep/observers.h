/**
 * @file
 * The attribution reports sweep tools collect from the replay.
 *
 * SweepOptions carries one groupObserver/groupObserved hook pair.
 * ReportObservers is the ObsCli side of it: for every trace group it
 * builds one obs::Attributed<PipelineSim> carrying each pass the flags
 * asked for (perf, CCT, sampled), so a group's reports share one
 * pipeline model however many are requested. The observer rides the
 * replay fan-out after every point sink, so the sweep's own metrics
 * stay bit-identical with or without it (tests/test_perf.cpp asserts
 * this).
 */
#ifndef JRS_SWEEP_OBSERVERS_H
#define JRS_SWEEP_OBSERVERS_H

#include <memory>
#include <ostream>
#include <string>

#include "arch/pipeline/pipeline.h"
#include "obs/attributed.h"
#include "obs/cli.h"
#include "obs/report_set.h"
#include "sweep/sweep.h"

namespace jrs::sweep {

/** See file comment: the reports behind the ObsCli output flags. */
struct ReportObservers {
    obs::ReportSet perf{obs::kPerfReportSchema};   ///< --perf-json
    obs::ReportSet cct{prof::kCctSchema};          ///< --cct-json / --flame
    obs::ReportSet sample{prof::kSampleSchema};    ///< --sample-json

    /**
     * Install the group observer for the reports @p cli asked for
     * (nothing when it asked for none). Groups whose recording carries
     * no method map (disk recordings predating the .methods sidecar)
     * are skipped. Every group samples with the same options, so
     * sampled profiles compare across the sweep. *this must outlive
     * the sweep.
     */
    void attach(SweepOptions &opts, const obs::ObsCli &cli) {
        const bool wantPerf = cli.perfRequested();
        const bool wantCct = cli.cctRequested();
        const bool wantSample = cli.sampleRequested();
        if (!wantPerf && !wantCct && !wantSample)
            return;
        const prof::SampleOptions sampleOpt = cli.sampleOptions();
        opts.groupObserver = [=](const TraceKey &, const RecordedRun &run)
            -> std::unique_ptr<TraceSink> {
            if (run.methods == nullptr)
                return nullptr;
            auto passes =
                std::make_unique<Passes>(run.methods, PipelineConfig{});
            if (wantPerf)
                passes->add<obs::PerfAttribution>();
            if (wantCct)
                passes->add<prof::CctBuilder>();
            if (wantSample)
                passes->add<prof::SamplingProfiler>(sampleOpt);
            return passes;
        };
        opts.groupObserved = [this](const TraceKey &key,
                                    const RecordedRun &,
                                    TraceSink &sink) {
            const auto &passes = static_cast<const Passes &>(sink);
            const std::string label = key.str();
            if (const auto *p = passes.find<obs::PerfAttribution>())
                perf.add(label, *p);
            if (const auto *c = passes.find<prof::CctBuilder>())
                cct.add(label, *c);
            if (const auto *s = passes.find<prof::SamplingProfiler>())
                sample.add(label, *s);
        };
    }

    /** Write the reports @p cli asked for. */
    void write(const obs::ObsCli &cli, std::ostream &out) const {
        cli.writePerf(perf, out);
        cli.writeCct(cct, out);
        cli.writeSample(sample, out);
    }

  private:
    using Passes = obs::Attributed<PipelineSim>;
};

} // namespace jrs::sweep

#endif // JRS_SWEEP_OBSERVERS_H

/**
 * @file
 * Composition of sweep group observers, and the attribution reports
 * sweep tools collect through them.
 *
 * SweepOptions carries a single groupObserver/groupObserved hook
 * pair; tools that want several independent observers on the same
 * replay (e.g. --perf-json and --flame together) register each one
 * through addGroupObserver, which chains with whatever hook is
 * already installed by fanning the group's stream out to both sinks.
 * Each observer still receives its own sink instance in its own
 * observed callback, so it can static_cast back to its concrete type.
 *
 * ReportObservers is the ObsCli side of this: one observer per
 * requested report family, each riding the replay fan-out after every
 * point sink, so the sweep's own metrics stay bit-identical with or
 * without them (tests/test_perf.cpp asserts this).
 */
#ifndef JRS_SWEEP_OBSERVERS_H
#define JRS_SWEEP_OBSERVERS_H

#include <memory>
#include <ostream>
#include <utility>

#include "arch/pipeline/pipeline.h"
#include "obs/cli.h"
#include "sweep/sweep.h"

namespace jrs::sweep {

/** Internal: fans a group's replay out to two chained observers. */
class ObserverPair : public TraceSink {
  public:
    std::unique_ptr<TraceSink> a;  ///< earlier-registered (may be null)
    std::unique_ptr<TraceSink> b;  ///< later-registered (may be null)

    void onEvent(const TraceEvent &ev) override {
        if (a != nullptr)
            a->onEvent(ev);
        if (b != nullptr)
            b->onEvent(ev);
    }
    void onEvents(const TraceEvent *evs, std::size_t n) override {
        if (a != nullptr)
            a->onEvents(evs, n);
        if (b != nullptr)
            b->onEvents(evs, n);
    }
    void onFinish() override {
        if (a != nullptr)
            a->onFinish();
        if (b != nullptr)
            b->onFinish();
    }
};

/**
 * Register one more group observer on @p opts, preserving any hooks
 * already installed. @p make may return null to skip a group; @p done
 * then is not called for it.
 */
inline void
addGroupObserver(
    SweepOptions &opts,
    std::function<std::unique_ptr<TraceSink>(const TraceKey &,
                                             const RecordedRun &)>
        make,
    std::function<void(const TraceKey &, const RecordedRun &,
                       TraceSink &)>
        done)
{
    if (!opts.groupObserver) {
        opts.groupObserver = std::move(make);
        opts.groupObserved = std::move(done);
        return;
    }
    auto prevMake = std::move(opts.groupObserver);
    auto prevDone = std::move(opts.groupObserved);
    opts.groupObserver = [prevMake, make](const TraceKey &key,
                                          const RecordedRun &run)
        -> std::unique_ptr<TraceSink> {
        auto pair = std::make_unique<ObserverPair>();
        pair->a = prevMake(key, run);
        pair->b = make(key, run);
        if (pair->a == nullptr && pair->b == nullptr)
            return nullptr;
        return pair;
    };
    opts.groupObserved = [prevDone, done](const TraceKey &key,
                                          const RecordedRun &run,
                                          TraceSink &sink) {
        auto &pair = static_cast<ObserverPair &>(sink);
        if (pair.a != nullptr && prevDone)
            prevDone(key, run, *pair.a);
        if (pair.b != nullptr && done)
            done(key, run, *pair.b);
    };
}

/**
 * Register a per-group @p Pipeline (default PipelineConfig, the
 * group's method map, then @p extra) whose @p report lands in @p set
 * under the group's TraceKey. Groups whose recording carries no
 * method map (disk recordings predating the .methods sidecar) are
 * skipped. @p set must outlive the sweep.
 */
template <class Pipeline, class Set, class Report, class... Extra>
void
observeReports(SweepOptions &opts, Set &set, Report report,
               Extra... extra)
{
    addGroupObserver(
        opts,
        [extra...](const TraceKey &, const RecordedRun &run)
            -> std::unique_ptr<TraceSink> {
            if (run.methods == nullptr)
                return nullptr;
            return std::make_unique<Pipeline>(PipelineConfig{},
                                              run.methods, extra...);
        },
        [&set, report](const TraceKey &key, const RecordedRun &,
                       TraceSink &sink) {
            set.add(key.str(), report(static_cast<Pipeline &>(sink)));
        });
}

/** See file comment: the reports behind the ObsCli output flags. */
struct ReportObservers {
    obs::PerfReportSet perf;        ///< --perf-json
    prof::CctReportSet cct;         ///< --cct-json / --flame
    prof::SampleReportSet sample;   ///< --sample-json

    /**
     * Observe every group for each report @p cli asked for (one extra
     * replay consumer per report). Every group samples with the same
     * options, so sampled profiles compare across the sweep. *this
     * must outlive the sweep.
     */
    void attach(SweepOptions &opts, const obs::ObsCli &cli) {
        if (cli.perfRequested()) {
            observeReports<obs::AttributedPipeline>(
                opts, perf,
                [](obs::AttributedPipeline &p) -> auto & {
                    return p.perf();
                });
        }
        if (cli.cctRequested()) {
            observeReports<prof::CctPipeline>(
                opts, cct,
                [](prof::CctPipeline &p) -> auto & { return p.cct(); });
        }
        if (cli.sampleRequested()) {
            observeReports<prof::SamplePipeline>(
                opts, sample,
                [](prof::SamplePipeline &p) -> auto & {
                    return p.sampler();
                },
                cli.sampleOptions());
        }
    }

    /** Write the reports @p cli asked for. */
    void write(const obs::ObsCli &cli, std::ostream &out) const {
        cli.writePerf(perf, out);
        cli.writeCct(cct, out);
        cli.writeSample(sample, out);
    }
};

} // namespace jrs::sweep

#endif // JRS_SWEEP_OBSERVERS_H

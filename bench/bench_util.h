/**
 * @file
 * Shared helpers for the bench binaries that still run their own
 * experiment: the figures that need more than the native stream, and
 * the ablations that change the VM's configuration. The stream-only
 * figures are grids in sweep/grids.h (`jrs_sweep <grid>`).
 */
#ifndef JRS_BENCH_BENCH_UTIL_H
#define JRS_BENCH_BENCH_UTIL_H

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.h"
#include "obs/cli.h"
#include "obs/host_stats.h"
#include "obs/obs.h"
#include "obs/perf.h"
#include "prof/bench.h"
#include "prof/cct.h"
#include "prof/sampler.h"
#include "support/statistics.h"
#include "support/table.h"
#include "sweep/grids.h"
#include "sweep/observers.h"
#include "vm/runtime/vm_error.h"

namespace jrs::bench {

/** The suite in paper order; see sweep::suite. */
using sweep::suite;

/** Print a standard bench header. */
inline void
header(const char *experiment, const char *paper_note)
{
    sweep::printHeader(std::cout, experiment, paper_note);
}

/** Command-line options of the benches that run on the sweep engine. */
struct SweepBenchArgs {
    unsigned jobs = 0;        ///< 0 = hardware concurrency
    std::string json;         ///< --json: write the SweepResult
    std::string cacheDir;     ///< --cache-dir: on-disk trace cache
    obs::ObsCli obs;          ///< --metrics/trace/perf-json (obs/cli.h)
};

/** Parse the flags above; exits with usage on unknown arguments. */
inline SweepBenchArgs
parseSweepBenchArgs(int argc, char **argv)
{
    SweepBenchArgs out;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "error: " << a << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--jobs") {
            std::uint64_t n = 0;
            if (!obs::parseDecimal(next(), &n)
                || n > std::numeric_limits<unsigned>::max()) {
                std::cerr << "error: --jobs expects a decimal count\n";
                std::exit(2);
            }
            out.jobs = static_cast<unsigned>(n);
        } else if (a == "--json") {
            out.json = next();
        } else if (a == "--cache-dir") {
            out.cacheDir = next();
        } else if (out.obs.tryParse(a, next)) {
            continue;
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--jobs N] [--json FILE] [--cache-dir DIR]"
                      << obs::ObsCli::usageText() << '\n';
            std::exit(2);
        }
    }
    return out;
}

/** Enable observability when an output file was requested. */
inline void
setupObs(const SweepBenchArgs &args)
{
    args.obs.setup();
}

/**
 * Write the requested observability files. Call on every exit path
 * after the sweep ran (including early failure returns, so a partial
 * run still leaves its metrics behind for diagnosis). @p reports, when
 * non-null, are the attribution reports attached to the sweep.
 */
inline void
finishObs(const SweepBenchArgs &args,
          const sweep::ReportObservers *reports = nullptr)
{
    args.obs.finish(std::cout);
    if (reports != nullptr)
        reports->write(args.obs, std::cout);
}

/** Build one jrs-bench-v1 run entry from a timed step. */
inline prof::BenchRun
benchRun(std::string label, std::uint64_t events, double seconds)
{
    prof::BenchRun run;
    run.label = std::move(label);
    run.events = events;
    run.wallSeconds = seconds;
    run.eventsPerSec =
        seconds > 0 ? static_cast<double>(events) / seconds : 0;
    run.peakRssBytes = obs::HostStats::peakRssBytes();
    return run;
}

/**
 * Merge @p runs into the jrs-bench-v1 trajectory file at @p path
 * (schema in prof/bench.h), replacing same-label entries and creating
 * the file — or restarting an old-schema/corrupt one — as needed.
 * Exits non-zero on I/O failure, like the rest of the bench helpers.
 */
inline void
upsertBenchRuns(const std::string &path, const std::string &suite,
                std::vector<prof::BenchRun> runs)
{
    prof::BenchReport report = prof::BenchReport::loadOrEmpty(path,
                                                              suite);
    for (prof::BenchRun &run : runs)
        report.upsert(std::move(run));
    try {
        report.writeJson(path);
    } catch (const VmError &e) {
        std::cerr << "error: " << e.what() << '\n';
        std::exit(1);
    }
}

} // namespace jrs::bench

#endif // JRS_BENCH_BENCH_UTIL_H

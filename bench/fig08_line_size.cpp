/**
 * @file
 * Figure 8: effect of line size (8K direct-mapped, lines of 16, 32,
 * 64, 128 bytes), per workload and mode.
 *
 * To reproduce: larger lines monotonically help the I-cache; for the
 * D-cache the interpreter prefers SMALL (16B) lines in most programs
 * (methods average under 16 bytecode bytes, so longer lines fetch
 * little useful data), while JIT mode prefers 32-64B (object sizes).
 *
 * Runs on the sweep engine — one recording per (workload, mode),
 * replayed into the four line-size models, streams in parallel across
 * `--jobs` workers. See fig07_associativity.cpp for the
 * `--bench-json` semantics.
 */
#include "bench_util.h"
#include "sweep/grids.h"

using namespace jrs;

int
main(int argc, char **argv)
{
    const bench::SweepBenchArgs args =
        bench::parseSweepBenchArgs(argc, argv);
    bench::setupObs(args);

    bench::header(
        "Figure 8 — line-size sweep (8K direct-mapped; 16/32/64/128B)",
        "interp D-cache often best at 16B lines; JIT best at 32-64B");

    sweep::SweepOptions opts;
    opts.jobs = args.jobs;
    opts.cacheDir = args.cacheDir;
    sweep::ReportObservers reports;
    reports.attach(opts, args.obs);
    sweep::SweepEngine engine(opts);
    const sweep::SweepResult result =
        engine.run(sweep::buildFig08Grid());
    if (!result.allOk()) {
        for (const sweep::PointResult &p : result.points) {
            if (!p.ok)
                std::cerr << p.label << ": " << p.error << '\n';
        }
        bench::finishObs(args, &reports);
        return 1;
    }

    Table t({"workload", "mode", "cache", "16B%", "32B%", "64B%",
             "128B%", "best"});
    for (const WorkloadInfo *w : bench::suite(true)) {
        for (const bool jit : {false, true}) {
            for (const bool dcache : {false, true}) {
                const char *metric =
                    dcache ? "dcache_miss_pct" : "icache_miss_pct";
                double mr[4];
                int best = 0;
                for (int k = 0; k < 4; ++k) {
                    mr[k] = result
                                .find(sweep::fig08Label(
                                    w->name, jit,
                                    sweep::kFig08Lines[k]))
                                ->metric(metric);
                    if (mr[k] < mr[best])
                        best = k;
                }
                t.addRow({
                    w->name,
                    jit ? "jit" : "interp",
                    dcache ? "D" : "I",
                    fixed(mr[0], 3),
                    fixed(mr[1], 3),
                    fixed(mr[2], 3),
                    fixed(mr[3], 3),
                    std::to_string(sweep::kFig08Lines[best]) + "B",
                });
            }
        }
    }
    t.print(std::cout);
    std::cout << "sweep: " << fixed(result.wallSeconds, 2) << "s, "
              << result.jobs << " jobs, "
              << result.traces.recordings << " recordings, "
              << result.traces.memoryHits << " memory hits, "
              << result.traces.diskLoads << " disk loads\n";

    if (!args.json.empty())
        result.writeJson(args.json);

    if (!args.benchJson.empty()) {
        bench::recordSweepRuns(args, engine, result,
                               sweep::buildFig08Grid(), "fig08");
    }
    bench::finishObs(args, &reports);
    return 0;
}

/**
 * @file
 * Figure 7: effect of associativity (8K caches, 32B lines, assoc 1,
 * 2, 4, 8) on I- and D-cache miss rates, suite averages per mode.
 *
 * To reproduce: misses fall as associativity rises, with the largest
 * step from direct-mapped to 2-way.
 *
 * This bench runs on the sweep engine: each (workload, mode) stream
 * is recorded once and replayed into the four associativity models,
 * with streams processed in parallel across `--jobs` workers.
 * `--bench-json FILE` records cold and warm sweep throughput in a
 * jrs-bench-v1 trajectory file (prof/bench.h).
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
        "Figure 7 — associativity sweep (8K, 32B, assoc 1/2/4/8)",
        "biggest miss reduction when going from 1-way to 2-way");

    sweep::SweepOptions opts;
    opts.jobs = args.jobs;
    opts.cacheDir = args.cacheDir;
    sweep::ReportObservers reports;
    reports.attach(opts, args.obs);
    sweep::SweepEngine engine(opts);
    const sweep::SweepResult result =
        engine.run(sweep::buildFig07Grid());
    if (!result.allOk()) {
        for (const sweep::PointResult &p : result.points) {
            if (!p.ok)
                std::cerr << p.label << ": " << p.error << '\n';
        }
        bench::finishObs(args, &reports);
        return 1;
    }

    Table t({"mode", "assoc", "icache_miss%", "dcache_miss%"});
    for (const bool jit : {false, true}) {
        for (const std::uint32_t a : sweep::kFig07Assocs) {
            double i_sum = 0, d_sum = 0;
            int n = 0;
            for (const WorkloadInfo *w : bench::suite()) {
                const sweep::PointResult *p =
                    result.find(sweep::fig07Label(w->name, jit, a));
                i_sum += p->metric("icache_miss_pct");
                d_sum += p->metric("dcache_miss_pct");
                ++n;
            }
            t.addRow({jit ? "jit" : "interp", std::to_string(a),
                      fixed(i_sum / n, 3), fixed(d_sum / n, 3)});
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
                               sweep::buildFig07Grid(), "fig07");
    }
    bench::finishObs(args, &reports);
    return 0;
}

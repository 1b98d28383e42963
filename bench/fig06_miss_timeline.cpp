/**
 * @file
 * Figure 6: miss behaviour over the course of execution for db,
 * interpreter vs JIT mode.
 *
 * To reproduce: the interpreter shows an initial class-loading spike
 * then steady locality; the JIT shows clustered spikes wherever groups
 * of methods are translated in rapid succession (visible here as
 * windows whose translate-event share and write-miss counts jump).
 *
 * Runs on the sweep engine (`--jobs N`, `--json FILE`, `--cache-dir
 * DIR`): each mode's stream is recorded once and replayed into an
 * attributed split L1 whose IntervalTimeline (obs/perf.h) provides
 * the windowed sampling — the window is sized to ~40 samples straight
 * from the recording's event count. tests/test_perf.cpp checks the
 * timeline against a reference windowed cache sampler.
 */
#include "bench_util.h"

using namespace jrs;

namespace {

constexpr CacheConfig kIcfg{64 * 1024, 32, 2, true};
constexpr CacheConfig kDcfg{64 * 1024, 32, 4, true};
constexpr std::uint64_t kTargetWindows = 40;

/** The figure's curve for one mode, copied out of the sweep sink. */
struct Curve {
    std::uint64_t window = 0;  ///< events per sample
    std::vector<obs::IntervalSample> samples;
};

std::uint64_t
dMisses(const obs::IntervalSample &s)
{
    return s.bad[static_cast<std::size_t>(PerfKind::DCacheLoad)]
        + s.bad[static_cast<std::size_t>(PerfKind::DCacheStore)];
}

sweep::SweepPoint
timelinePoint(bool jit, Curve *out)
{
    return sweep::makePoint<obs::AttributedCaches>(
        std::string("fig06/db/") + (jit ? "jit" : "interp"),
        sweep::traceKey("db", jit ? sweep::ExecMode::jit()
                                  : sweep::ExecMode::interp()),
        [](const RecordedRun &run) {
            obs::PerfOptions popt;
            popt.timelineWindow = std::max<std::uint64_t>(
                1, run.trace->size() / kTargetWindows);
            auto map = run.methods != nullptr
                ? run.methods
                : std::make_shared<const obs::MethodMap>();
            return std::make_unique<obs::AttributedCaches>(
                kIcfg, kDcfg, std::move(map), popt);
        },
        [out](obs::AttributedCaches &sink, const RecordedRun &) {
            const obs::PerfAttribution &perf = sink.perf();
            out->window = perf.timelineWindow();
            out->samples = perf.timeline();
            std::uint64_t i = 0, d = 0, w = 0;
            for (const obs::IntervalSample &s : out->samples) {
                i += s.bad[static_cast<std::size_t>(
                    PerfKind::ICacheFetch)];
                d += dMisses(s);
                w += s.bad[static_cast<std::size_t>(
                    PerfKind::DCacheStore)];
            }
            return std::vector<sweep::Metric>{
                {"windows",
                 static_cast<double>(out->samples.size())},
                {"i_misses", static_cast<double>(i)},
                {"d_misses", static_cast<double>(d)},
                {"d_write_misses", static_cast<double>(w)},
            };
        });
}

void
printSeries(const char *mode, const Curve &curve)
{
    std::cout << "\n" << mode << " (window = "
              << withCommas(curve.window) << " instructions)\n";
    Table t({"window", "i_misses", "d_misses", "d_write_misses",
             "translate_insts", "profile"});
    std::uint64_t max_d = 1;
    for (const obs::IntervalSample &s : curve.samples)
        max_d = std::max(max_d, dMisses(s));
    for (std::size_t i = 0; i < curve.samples.size(); ++i) {
        const obs::IntervalSample &s = curve.samples[i];
        const int bar_len = static_cast<int>(
            40.0 * static_cast<double>(dMisses(s))
            / static_cast<double>(max_d));
        t.addRow({std::to_string(i),
                  withCommas(s.bad[static_cast<std::size_t>(
                      PerfKind::ICacheFetch)]),
                  withCommas(dMisses(s)),
                  withCommas(s.bad[static_cast<std::size_t>(
                      PerfKind::DCacheStore)]),
                  withCommas(s.translateEvents),
                  std::string(static_cast<std::size_t>(bar_len), '#')});
    }
    t.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::SweepBenchArgs args =
        bench::parseSweepBenchArgs(argc, argv);
    bench::setupObs(args);

    bench::header(
        "Figure 6 — db miss-rate timeline, interp vs JIT",
        "interp: initial spike, then flat; JIT: clustered translation "
        "spikes of write misses");

    Curve interp, jit;
    sweep::SweepOptions opts;
    opts.jobs = args.jobs;
    opts.cacheDir = args.cacheDir;
    sweep::ReportObservers reports;
    reports.attach(opts, args.obs);
    sweep::SweepEngine engine(opts);
    const sweep::SweepResult result = engine.run(
        {timelinePoint(false, &interp), timelinePoint(true, &jit)});
    if (!result.allOk()) {
        for (const sweep::PointResult &p : result.points) {
            if (!p.ok)
                std::cerr << p.label << ": " << p.error << '\n';
        }
        bench::finishObs(args, &reports);
        return 1;
    }

    printSeries("interpreter", interp);
    printSeries("jit", jit);
    std::cout << "sweep: " << fixed(result.wallSeconds, 2) << "s, "
              << result.jobs << " jobs, "
              << result.traces.recordings << " recordings, "
              << result.traces.diskLoads << " disk loads\n";

    if (!args.json.empty())
        result.writeJson(args.json);

    bench::finishObs(args, &reports);
    return 0;
}

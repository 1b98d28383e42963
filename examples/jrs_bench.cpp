/**
 * @file
 * jrs_bench — self-profiled benchmark regression harness.
 *
 * Everything else in the tree measures the *simulated* machine; this
 * binary measures the simulator itself. It executes a fixed workload
 * matrix, timing each step with obs::HostStats (wall-clock per named
 * section, simulated instructions pushed through per host second,
 * peak RSS), and emits a stable "jrs-bench-v1" report (prof/bench.h)
 * that can be committed as a throughput trajectory and gated on:
 *
 *   jrs_bench --suite vm --json bench/BENCH_vm.json
 *   jrs_bench --compare bench/BENCH_prof.json --max-regress 30
 *
 *   --suite NAME     vm | sweep | gc | prof | shared_cache | all
 *                    (default: all)
 *                    vm    — live VM record throughput, every
 *                            workload × {interp, jit}
 *                    sweep — fig07 grid, cold vs warm replay
 *                    gc    — GC grid throughput + collection counts
 *                    prof  — replay overhead: bare pipeline vs
 *                            attribution vs calling-context profiler
 *                            vs sampling profiler
 *                    shared_cache — code_cache grid with private vs
 *                            shared translation at 1/2/4/8 workers:
 *                            host translate ns, shared-hit rate,
 *                            events/sec
 *   --tiny           use each workload's tinyArg (vm/prof suites)
 *   --jobs N         sweep worker threads (sweep/gc suites)
 *   --json FILE      merge this run's entries into a jrs-bench-v1
 *                    trajectory file (same-label entries replaced)
 *   --compare BASE   compare against a baseline jrs-bench-v1 file;
 *                    exits non-zero when any shared label's
 *                    events_per_sec regressed beyond the threshold
 *   --max-regress P  regression threshold in percent (default: 20)
 *
 * The figure of merit is events_per_sec — simulated instructions per
 * host second — which is roughly workload-size independent, so a
 * --tiny run can still be compared against a full-size baseline with
 * a generous threshold.
 */
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "arch/pipeline/pipeline.h"
#include "harness/experiment.h"
#include "obs/cli.h"
#include "obs/host_stats.h"
#include "obs/perf.h"
#include "prof/bench.h"
#include "prof/cct.h"
#include "prof/sampler.h"
#include "support/statistics.h"
#include "support/table.h"
#include "sweep/grids.h"
#include "sweep/sweep.h"
#include "vm/engine/policy.h"
#include "vm/runtime/vm_error.h"
#include "workloads/workload.h"

using namespace jrs;

namespace {

[[noreturn]] void
usage(const char *msg = nullptr)
{
    if (msg != nullptr)
        std::cerr << "error: " << msg << "\n\n";
    std::cerr << "usage: jrs_bench [--suite "
                 "vm|sweep|gc|prof|shared_cache|all]"
                 " [--tiny] [--jobs N]\n"
                 "                 [--json FILE] [--compare BASE]"
                 " [--max-regress PCT]\n";
    std::exit(2);
}

struct Args {
    std::string suite = "all";
    bool tiny = false;
    unsigned jobs = 0;
    std::string jsonPath;
    std::string comparePath;
    double maxRegressPct = 20.0;
};

Args
parseArgs(int argc, char **argv)
{
    Args out;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value");
            return argv[++i];
        };
        if (a == "--suite") {
            out.suite = next();
        } else if (a == "--tiny") {
            out.tiny = true;
        } else if (a == "--jobs") {
            std::uint64_t n = 0;
            if (!obs::parseDecimal(next(), &n)
                || n > std::numeric_limits<unsigned>::max())
                usage("--jobs expects a decimal count");
            out.jobs = static_cast<unsigned>(n);
        } else if (a == "--json") {
            out.jsonPath = next();
        } else if (a == "--compare") {
            out.comparePath = next();
        } else if (a == "--max-regress") {
            const std::string v = next();
            char *end = nullptr;
            out.maxRegressPct = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0'
                || out.maxRegressPct < 0) {
                usage("--max-regress expects a percentage");
            }
        } else {
            usage("unknown option");
        }
    }
    if (out.suite != "vm" && out.suite != "sweep" && out.suite != "gc"
        && out.suite != "prof" && out.suite != "shared_cache"
        && out.suite != "all") {
        usage("unknown --suite");
    }
    return out;
}

/** Shared state every suite writes into. */
struct Bench {
    const Args &args;
    obs::HostStats host;
    prof::BenchReport report;
};

/** Record one timed step as a jrs-bench-v1 run entry. */
prof::BenchRun &
addRun(Bench &b, std::string label, std::uint64_t events,
       double seconds)
{
    prof::BenchRun run;
    run.label = std::move(label);
    run.events = events;
    run.wallSeconds = seconds;
    run.eventsPerSec =
        seconds > 0 ? static_cast<double>(events) / seconds : 0;
    run.peakRssBytes = obs::HostStats::peakRssBytes();
    b.report.upsert(std::move(run));
    return b.report.runs.back();
}

/** The last HostStats entry for @p section, as a run entry. */
prof::BenchRun &
addSectionRun(Bench &b, const std::string &section)
{
    const obs::HostStats::Totals t = b.host.section(section);
    return addRun(b, section, t.events, t.seconds);
}

/** vm: live VM record throughput, every workload × {interp, jit}. */
void
suiteVm(Bench &b)
{
    for (const WorkloadInfo &w : allWorkloads()) {
        for (const bool jit : {false, true}) {
            const std::string label = std::string("vm/") + w.name
                + (jit ? "/jit" : "/interp");
            RunSpec spec;
            spec.workload = &w;
            spec.arg = b.args.tiny ? w.tinyArg : w.smallArg;
            spec.policy = jit
                ? std::static_pointer_cast<CompilationPolicy>(
                      std::make_shared<AlwaysCompilePolicy>())
                : std::static_pointer_cast<CompilationPolicy>(
                      std::make_shared<NeverCompilePolicy>());
            std::uint64_t events = 0;
            {
                obs::HostStats::Section s(b.host, label, &events);
                const RecordedRun rec = recordWorkload(spec);
                events = rec.result.totalEvents;
            }
            addSectionRun(b, label);
        }
    }
}

/** Sum of per-point stream events across a finished sweep. */
std::uint64_t
sweepEvents(const sweep::SweepResult &result)
{
    std::uint64_t total = 0;
    for (const sweep::PointResult &p : result.points)
        total += p.traceEvents;
    return total;
}

/** sweep: fig07 grid, cold record vs warm in-memory replay. */
void
suiteSweep(Bench &b)
{
    sweep::SweepOptions opts;
    opts.jobs = b.args.jobs;
    sweep::SweepEngine engine(opts);
    const std::vector<sweep::SweepPoint> grid =
        sweep::findGrid("fig07")->build();
    std::uint64_t events = 0;
    {
        obs::HostStats::Section s(b.host, "sweep/fig07/cold", &events);
        const sweep::SweepResult cold =
            engine.run(grid);
        if (!cold.allOk())
            throw VmError("sweep suite: cold fig07 run failed");
        events = sweepEvents(cold);
    }
    addSectionRun(b, "sweep/fig07/cold");
    events = 0;
    {
        obs::HostStats::Section s(b.host, "sweep/fig07/warm", &events);
        const sweep::SweepResult warm =
            engine.run(grid);
        if (!warm.allOk())
            throw VmError("sweep suite: warm fig07 run failed");
        events = sweepEvents(warm);
    }
    addSectionRun(b, "sweep/fig07/warm");
}

/** gc: the GC grid's host throughput plus collection counts. */
void
suiteGc(Bench &b)
{
    sweep::SweepOptions opts;
    opts.jobs = b.args.jobs;
    sweep::SweepEngine engine(opts);
    std::uint64_t events = 0;
    double collections = 0, gcEvents = 0;
    {
        obs::HostStats::Section s(b.host, "gc/grid", &events);
        const sweep::SweepResult result =
            engine.run(sweep::buildGcGrid());
        if (!result.allOk())
            throw VmError("gc suite: grid run failed");
        events = sweepEvents(result);
        for (const sweep::PointResult &p : result.points) {
            collections += p.metric("collections");
            gcEvents += p.metric("gc_events");
        }
    }
    prof::BenchRun &run = addSectionRun(b, "gc/grid");
    run.metrics.emplace_back("collections", collections);
    run.metrics.emplace_back("gc_events", gcEvents);
}

/** prof: replay overhead of the observability pipelines. */
void
suiteProf(Bench &b)
{
    const WorkloadInfo *w = findWorkload("compress");
    if (w == nullptr)
        throw VmError("prof suite: compress workload missing");
    RunSpec spec;
    spec.workload = w;
    spec.arg = b.args.tiny ? w->tinyArg : w->smallArg;
    RecordedRun rec;
    std::uint64_t recEvents = 0;
    {
        obs::HostStats::Section s(b.host, "prof/record", &recEvents);
        rec = recordWorkload(spec);
        recEvents = rec.result.totalEvents;
    }
    addSectionRun(b, "prof/record");
    const std::uint64_t events = rec.result.totalEvents;
    // The same stream replayed three ways; each entry's relative
    // events_per_sec is the observer's overhead.
    double pipeSeconds = 0;
    {
        obs::HostStats::Section s(b.host, "prof/replay/pipeline",
                                  &events);
        PipelineSim pipe{PipelineConfig{}};
        rec.trace->replay(pipe);
    }
    pipeSeconds = b.host.section("prof/replay/pipeline").seconds;
    addSectionRun(b, "prof/replay/pipeline");
    {
        obs::HostStats::Section s(b.host, "prof/replay/attributed",
                                  &events);
        obs::AttributedPipeline attributed(PipelineConfig{},
                                           rec.methods);
        rec.trace->replay(attributed);
    }
    {
        prof::BenchRun &run =
            addSectionRun(b, "prof/replay/attributed");
        const double sec = run.wallSeconds;
        if (pipeSeconds > 0)
            run.metrics.emplace_back("overhead_vs_pipeline",
                                     sec / pipeSeconds);
    }
    {
        obs::HostStats::Section s(b.host, "prof/replay/cct", &events);
        prof::CctPipeline cct(PipelineConfig{}, rec.methods);
        rec.trace->replay(cct);
    }
    {
        prof::BenchRun &run = addSectionRun(b, "prof/replay/cct");
        const double sec = run.wallSeconds;
        if (pipeSeconds > 0)
            run.metrics.emplace_back("overhead_vs_pipeline",
                                     sec / pipeSeconds);
    }
    std::uint64_t samples = 0;
    {
        obs::HostStats::Section s(b.host, "prof/replay/sampled",
                                  &events);
        prof::SamplePipeline sp(PipelineConfig{}, rec.methods);
        rec.trace->replay(sp);
        samples = sp.sampler().samples();
    }
    {
        prof::BenchRun &run = addSectionRun(b, "prof/replay/sampled");
        const double sec = run.wallSeconds;
        if (pipeSeconds > 0)
            run.metrics.emplace_back("overhead_vs_pipeline",
                                     sec / pipeSeconds);
        run.metrics.emplace_back("samples",
                                 static_cast<double>(samples));
    }
}

/**
 * shared_cache: the code_cache grid (18 cache configurations per
 * workload, one VM per trace group) run with private translation and
 * again with one process-wide SharedCodeCache, at 1/2/4/8 workers.
 * All 36 configuration pairs consume the same programs, so shared
 * runs build each (program, method) once and every other group
 * attaches — the translate_build_ns drop (and hit rate) is the
 * benchmark. Streams are bit-identical either way; events match by
 * construction.
 *
 * The grid always runs at tinyArg: translation work is input-size
 * independent (the same methods compile either way), and eight full
 * grid sweeps at bench size would be all simulation time.
 */
std::vector<sweep::SweepPoint>
sharedCacheGrid()
{
    std::vector<sweep::SweepPoint> grid = sweep::buildCodeCacheGrid();
    for (sweep::SweepPoint &p : grid) {
        const WorkloadInfo *w = findWorkload(p.key.workload);
        if (w != nullptr)
            p.key.arg = w->tinyArg;
    }
    return grid;
}

void
suiteSharedCache(Bench &b)
{
    for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
        const std::string tag = "/j" + std::to_string(jobs);
        std::uint64_t events = 0;
        {
            const std::string label = "shared_cache/private" + tag;
            sweep::SweepOptions opts;
            opts.jobs = jobs;
            sweep::SweepEngine engine(opts);
            std::uint64_t buildNs = 0;
            {
                obs::HostStats::Section s(b.host, label, &events);
                const sweep::SweepResult result =
                    engine.run(sharedCacheGrid());
                if (!result.allOk())
                    throw VmError(
                        "shared_cache suite: private run failed");
                events = sweepEvents(result);
                buildNs = result.traces.translateBuildNs;
            }
            prof::BenchRun &run = addSectionRun(b, label);
            run.metrics.emplace_back("translate_build_ns",
                                     static_cast<double>(buildNs));
        }
        {
            const std::string label = "shared_cache/shared" + tag;
            sweep::SweepOptions opts;
            opts.jobs = jobs;
            opts.sharedCache = std::make_shared<SharedCodeCache>();
            sweep::SweepEngine engine(opts);
            sweep::SweepResult result;
            {
                obs::HostStats::Section s(b.host, label, &events);
                result = engine.run(sharedCacheGrid());
                if (!result.allOk())
                    throw VmError(
                        "shared_cache suite: shared run failed");
                events = sweepEvents(result);
            }
            prof::BenchRun &run = addSectionRun(b, label);
            const SharedCacheStats &s = result.shared;
            run.metrics.emplace_back(
                "translate_build_ns",
                static_cast<double>(result.traces.translateBuildNs));
            run.metrics.emplace_back(
                "shared_hits", static_cast<double>(s.sharedHits));
            run.metrics.emplace_back(
                "shared_builds", static_cast<double>(s.misses));
            run.metrics.emplace_back(
                "shared_hit_rate",
                s.lookups > 0 ? static_cast<double>(s.sharedHits)
                        / static_cast<double>(s.lookups)
                              : 0.0);
            run.metrics.emplace_back(
                "build_ns_saved",
                static_cast<double>(s.buildNsSaved));
        }
    }
}

void
printSelfProfile(const Bench &b)
{
    Table t({"section", "seconds", "events", "M events/s"});
    for (const auto &[name, totals] : b.host.sections()) {
        t.addRow({name, fixed(totals.seconds, 4),
                  withCommas(totals.events),
                  fixed(totals.eventsPerSec() / 1e6, 2)});
    }
    t.print(std::cout);
    std::cout << "total " << fixed(b.host.totalSeconds(), 4)
              << "s, peak RSS "
              << withCommas(obs::HostStats::peakRssBytes())
              << " bytes\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    Bench b{args, {}, {}};
    b.report.suite = args.suite;

    try {
        if (args.suite == "vm" || args.suite == "all")
            suiteVm(b);
        if (args.suite == "sweep" || args.suite == "all")
            suiteSweep(b);
        if (args.suite == "gc" || args.suite == "all")
            suiteGc(b);
        if (args.suite == "prof" || args.suite == "all")
            suiteProf(b);
        if (args.suite == "shared_cache" || args.suite == "all")
            suiteSharedCache(b);
    } catch (const VmError &e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }

    printSelfProfile(b);

    if (!args.jsonPath.empty()) {
        try {
            prof::BenchReport merged = prof::BenchReport::loadOrEmpty(
                args.jsonPath, args.suite);
            for (const prof::BenchRun &run : b.report.runs)
                merged.upsert(run);
            merged.writeJson(args.jsonPath);
        } catch (const VmError &e) {
            std::cerr << "error: " << e.what() << '\n';
            return 1;
        }
        std::cout << "wrote " << args.jsonPath << '\n';
    }

    if (!args.comparePath.empty()) {
        prof::BenchReport baseline;
        try {
            baseline = prof::BenchReport::load(args.comparePath);
        } catch (const VmError &e) {
            std::cerr << "error: " << e.what() << '\n';
            return 1;
        }
        const prof::CompareResult cmp =
            prof::compareReports(baseline, b.report,
                                 args.maxRegressPct);
        std::cout << '\n'
                  << "compare vs " << args.comparePath << " (max "
                  << fixed(args.maxRegressPct, 1) << "% regression):\n"
                  << cmp.text(args.maxRegressPct);
        if (!cmp.onlyBaseline.empty()) {
            // A baseline label with no current counterpart cannot be
            // gated; make the gap loud instead of silently passing.
            std::cerr << "warning: " << cmp.onlyBaseline.size()
                      << " baseline label(s) were not produced by"
                         " this run and were not compared:\n";
            for (const std::string &l : cmp.onlyBaseline)
                std::cerr << "  " << l << '\n';
        }
        if (cmp.failed)
            return 1;
    }
    return 0;
}

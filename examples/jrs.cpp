/**
 * @file
 * jrs — the command-line front door to the workbench: one run spec,
 * four subcommands.
 *
 *   jrs run <workload> [--report R[,R...]] [--trace-out FILE]
 *       one run through the architecture models; R is summary | mix |
 *       cache | bpred | ipc | locks | all (default summary).
 *   jrs perf report|annotate <workload> [--model pipeline|cache]
 *            [--top N] [--window N] [--method NAME]
 *       records the run once, then replays it through a model with
 *       per-method / per-opcode attribution (obs/perf.h): top-N
 *       tables, or the per-bytecode-site view of one method (annotate
 *       defaults to --mode interp, which has sites to annotate). The
 *       tables are cross-checked bit-for-bit against the model's own
 *       aggregates, so a passing run is itself a conservation proof.
 *   jrs profile <workload> [--top N] [--json FILE] [--calibrate]
 *            [--diff-mode MODE] [--diff-collector NAME]
 *            [--flame-diff FILE]
 *       top-N methods by simulated instructions for every execution
 *       phase (--json writes them as jrs-profile-v1). --calibrate
 *       prints the sampled-vs-exact per-method error table;
 *       --flame-diff folds a second run (in --diff-mode and/or under
 *       --diff-collector) against this one for flamegraph.pl --negate.
 *   jrs gc stats|pauses|compare <workload>
 *       the run's collector statistics, its per-collection pause table
 *       (in collector events), or nogc vs marksweep vs copying under
 *       identical triggers, which must agree on exit value, allocation
 *       volume and reachable-heap digest. The collector defaults to
 *       marksweep; stats and pauses collect every 64 allocations when
 *       no trigger is set, so tiny inputs still collect.
 *
 * Every subcommand takes the run spec (obs::RunCli): --mode
 * interp|jit|counter:N|oracle, --arg N, --tiny, --sync, --inline,
 * --fold and the collector and code-cache flags. perf, profile and gc
 * also take the ObsCli output flags (--metrics-json, --trace-json,
 * --perf-json, --cct-json, --flame, --sample-json, --sample-period,
 * --sample-seed). perf and profile replay the recording once through
 * one pipeline model carrying every pass those outputs need, and check
 * the calling-context tree and the sampler's clock against it too.
 *
 * Usage errors exit 2. A failed run (the guest does not complete, the
 * heap is exhausted), a conservation mismatch or a collector
 * divergence exits 1.
 *
 * Examples:
 *   jrs run db --mode oracle --report summary,locks
 *   jrs run jess --inline --report mix,ipc
 *   jrs perf report db --mode interp --window 50000
 *   jrs perf annotate jess --method jess.fire
 *   jrs profile compress --tiny --calibrate --sample-period 1024
 *   jrs profile db --mode jit --diff-mode interp --flame-diff d.folded
 *   jrs gc compare db --gc-every 32
 *   jrs gc pauses javac --collector copying --heap-bytes 8m
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arch/bpred/predictors.h"
#include "arch/cache/cache.h"
#include "arch/mix/instruction_mix.h"
#include "arch/pipeline/pipeline.h"
#include "harness/experiment.h"
#include "isa/trace_io.h"
#include "obs/attributed.h"
#include "obs/attribution.h"
#include "obs/cli.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/perf.h"
#include "prof/cct.h"
#include "prof/sampler.h"
#include "support/statistics.h"
#include "support/table.h"
#include "vm/runtime/vm_error.h"
#include "workloads/workload.h"

using namespace jrs;

namespace {

/** Subcommand-specific flags; each is accepted only where it applies. */
struct Flags {
    std::string report = "summary";  ///< run --report
    std::string traceOut;            ///< run --trace-out
    std::string model = "pipeline";  ///< perf --model
    std::uint64_t window = 0;        ///< perf --window
    std::string method;              ///< perf --method
    std::size_t top = 10;            ///< perf, profile --top
    std::string json;                ///< profile --json
    std::string diffMode;            ///< profile --diff-mode
    std::string diffCollector;       ///< profile --diff-collector
    std::string flameDiff;           ///< profile --flame-diff
    bool calibrate = false;          ///< profile --calibrate
};

[[noreturn]] void
usage(const char *msg = nullptr)
{
    if (msg != nullptr)
        std::cerr << "error: " << msg << "\n\n";
    std::cerr
        << "usage: jrs run <workload> [--report summary,mix,cache,"
           "bpred,ipc,locks | all] [--trace-out FILE]\n"
           "       jrs perf report|annotate <workload> [--model "
           "pipeline|cache] [--top N] [--window N] [--method NAME]\n"
           "       jrs profile <workload> [--top N] [--json FILE] "
           "[--calibrate] [--diff-mode MODE] [--diff-collector NAME] "
           "[--flame-diff FILE]\n"
           "       jrs gc stats|pauses|compare <workload>\n\n"
           "run spec (every subcommand):"
        << obs::RunCli::usageText()
        << "\noutputs (perf, profile, gc):" << obs::ObsCli::usageText()
        << "\n\nworkloads:\n";
    for (const WorkloadInfo &w : allWorkloads())
        std::cerr << "  " << w.name << " — " << w.description << '\n';
    std::exit(2);
}

/** Consume @p a when it is a flag of subcommand @p cmd. */
template <class NextFn>
bool
parseFlag(const std::string &cmd, const std::string &a, NextFn &&next,
          Flags &f)
{
    const bool run = cmd == "run";
    const bool perf = cmd == "perf";
    const bool profile = cmd == "profile";
    if (run && a == "--report") {
        f.report = next();
    } else if (run && a == "--trace-out") {
        f.traceOut = next();
    } else if (perf && a == "--model") {
        f.model = next();
        if (f.model != "pipeline" && f.model != "cache")
            usage("--model expects pipeline or cache");
    } else if (perf && a == "--window") {
        f.window = obs::ObsCli::parseCount(next(), "--window");
    } else if (perf && a == "--method") {
        f.method = next();
    } else if ((perf || profile) && a == "--top") {
        f.top = obs::ObsCli::parseCount(next(), "--top");
    } else if (profile && a == "--json") {
        f.json = next();
    } else if (profile && a == "--diff-mode") {
        f.diffMode = next();
    } else if (profile && a == "--diff-collector") {
        f.diffCollector = next();
    } else if (profile && a == "--flame-diff") {
        f.flameDiff = next();
    } else if (profile && a == "--calibrate") {
        f.calibrate = true;
    } else {
        return false;
    }
    return true;
}

// --- conservation checks ---------------------------------------------

/** One bit-for-bit comparison; prints any mismatch. */
bool
expectEq(const char *what, std::uint64_t got, std::uint64_t want)
{
    if (got == want)
        return true;
    std::cerr << "conservation mismatch: " << what << " = " << got
              << ", model reports " << want << '\n';
    return false;
}

std::size_t
kindIndex(PerfKind kind)
{
    return static_cast<std::size_t>(kind);
}

/** @p sum must reproduce the totals cell @p t counter by counter. */
bool
checkSum(const char *insts, const char *cycles, const obs::PerfCell &sum,
         const obs::PerfCell &t)
{
    bool ok = expectEq(insts, sum.insts, t.insts);
    for (std::size_t k = 0; k < kNumPerfKinds; ++k) {
        const char *kind = perfKindName(static_cast<PerfKind>(k));
        ok &= expectEq(kind, sum.access[k], t.access[k]);
        ok &= expectEq(kind, sum.bad[k], t.bad[k]);
    }
    return expectEq(cycles, sum.cycles(), t.cycles()) && ok;
}

/**
 * Per-method cells (unattributed bucket included) and per-phase cells
 * must each partition the totals — so the mutator-vs-collector (Phase::Gc)
 * CPI split is itself conserved.
 */
bool
checkPartitions(const obs::PerfAttribution &perf)
{
    obs::PerfCell methods;
    for (std::size_t row = 0; row <= perf.map().rows(); ++row)
        methods.merge(perf.methodCell(row));
    obs::PerfCell phases;
    for (std::size_t p = 0; p < kNumPhases; ++p)
        phases.merge(perf.phaseCell(static_cast<Phase>(p)));
    const bool ok = checkSum("sum(method insts)", "sum(method cycles)",
                             methods, perf.totals());
    return checkSum("sum(phase insts)", "sum(phase cycles)", phases,
                    perf.totals())
        && ok;
}

/** Cache totals vs the split L1's own statistics. */
bool
checkL1(const obs::PerfCell &t, const Cache &icache, const Cache &dcache)
{
    const std::size_t fetch = kindIndex(PerfKind::ICacheFetch);
    const std::size_t load = kindIndex(PerfKind::DCacheLoad);
    const std::size_t store = kindIndex(PerfKind::DCacheStore);
    bool ok = expectEq("icache accesses", t.access[fetch],
                       icache.stats().reads);
    ok &= expectEq("icache misses", t.bad[fetch],
                   icache.stats().readMisses);
    ok &= expectEq("dcache loads", t.access[load], dcache.stats().reads);
    ok &= expectEq("dcache load misses", t.bad[load],
                   dcache.stats().readMisses);
    ok &= expectEq("dcache stores", t.access[store],
                   dcache.stats().writes);
    ok &= expectEq("dcache store misses", t.bad[store],
                   dcache.stats().writeMisses);
    return ok;
}

/** Totals vs the pipeline model's own aggregate statistics. */
bool
checkPipeline(const obs::PerfAttribution &perf, const PipelineSim &p)
{
    const obs::PerfCell &t = perf.totals();
    const std::size_t cond = kindIndex(PerfKind::CondBranch);
    const std::size_t ind = kindIndex(PerfKind::IndirectTarget);
    bool ok = expectEq("events", perf.totalEvents(), p.instructions());
    ok &= expectEq("cycles", t.cycles(), p.cycles());
    ok &= checkL1(t, p.icache(), p.dcache());
    ok &= expectEq("cond branches", t.access[cond], p.condBranches());
    ok &= expectEq("cond mispredicts", t.bad[cond], p.condMispredicts());
    ok &= expectEq("indirects", t.access[ind], p.indirects());
    ok &= expectEq("indirect mispredicts", t.bad[ind],
                   p.indirectMispredicts());
    return ok && checkPartitions(perf);
}

/**
 * The calling-context tree's totals and its node sums must partition
 * the events and cycles of the pipeline @p p it rode exactly.
 */
bool
checkCct(const prof::CctBuilder &cct, const PipelineSim &p)
{
    std::uint64_t nodeCycles = 0;
    std::uint64_t nodeEvents = 0;
    for (const prof::CctNode &n : cct.nodes()) {
        nodeCycles += n.cycles();
        nodeEvents += n.events;
    }
    bool ok = expectEq("cct events", cct.totalEvents(), p.instructions());
    ok &= expectEq("cct cycles", cct.totalCycles(), p.cycles());
    ok &= expectEq("sum(cct node cycles)", nodeCycles, p.cycles());
    return expectEq("sum(cct node events)", nodeEvents, p.instructions())
        && ok;
}

/**
 * Print the sampled profile's summary. Its cycle clock must have
 * advanced by exactly the cycles of the pipeline @p p it rode.
 */
bool
checkSample(const prof::SamplingProfiler &sampler, const PipelineSim &p)
{
    std::cout << "\nsampled profile: " << withCommas(sampler.samples())
              << " samples (period " << sampler.options().period
              << ", seed " << sampler.options().seed << ")\n";
    return expectEq("sampled clock", sampler.clockTotal(), p.cycles());
}

/** Replay @p rec through a calling-context tree of its own. */
std::vector<prof::FoldedLine>
replayFolded(const RecordedRun &rec, bool &conserved)
{
    prof::CctPipeline cct(PipelineConfig{}, rec.methods);
    rec.trace->replay(cct);
    conserved &= checkCct(cct.cct(), cct.pipeline());
    return cct.cct().foldedLines();
}

void
writePerf(const obs::ObsCli &cli, const std::string &label,
          const obs::PerfAttribution &perf)
{
    obs::ReportSet reports(obs::kPerfReportSchema);
    reports.add(label, perf);
    cli.writePerf(reports, std::cout);
}

void
writeCct(const obs::ObsCli &cli, const std::string &label,
         const prof::CctBuilder &cct)
{
    obs::ReportSet reports(prof::kCctSchema);
    reports.add(label, cct);
    cli.writeCct(reports, std::cout);
}

void
writeSample(const obs::ObsCli &cli, const std::string &label,
            const prof::SamplingProfiler &sampler)
{
    obs::ReportSet reports(prof::kSampleSchema);
    reports.add(label, sampler);
    cli.writeSample(reports, std::cout);
}

// --- jrs run -----------------------------------------------------------

bool
wants(const std::string &report, const char *section)
{
    return ("," + report + ",").find(std::string(",") + section + ",")
        != std::string::npos;
}

int
cmdRun(const obs::RunCli &run, Flags f)
{
    if (f.report == "all")
        f.report = "summary,mix,cache,bpred,ipc,locks";
    InstructionMix mix;
    CacheSink caches({64 * 1024, 32, 2, true},
                     {64 * 1024, 32, 4, true});
    PredictorBank bpred;
    PipelineConfig pc4;
    pc4.issueWidth = 4;
    PipelineSim pipe(pc4);
    MultiSink sinks;
    if (wants(f.report, "mix"))
        sinks.add(&mix);
    if (wants(f.report, "cache"))
        sinks.add(&caches);
    if (wants(f.report, "bpred"))
        sinks.add(&bpred);
    if (wants(f.report, "ipc"))
        sinks.add(&pipe);
    std::unique_ptr<TraceFileWriter> trace_writer;
    if (!f.traceOut.empty()) {
        trace_writer = std::make_unique<TraceFileWriter>(f.traceOut);
        sinks.add(trace_writer.get());
    }

    RunSpec spec = run.spec();
    spec.sink = &sinks;
    const RunResult res = runWorkload(spec);

    std::cout << run.workload->name << " arg=" << run.arg << " mode="
              << run.mode << " sync=" << syncKindName(run.sync)
              << (run.inlining ? " +inline" : "")
              << (run.folding ? " +fold" : "") << "\n";
    if (wants(f.report, "summary")) {
        std::cout << "\nchecksum " << res.exitValue << "\n"
                  << "simulated instructions "
                  << withCommas(res.totalEvents) << " (interp "
                  << fixed(percent(res.inPhase(Phase::Interpret),
                                   res.totalEvents), 1)
                  << "%, translate "
                  << fixed(percent(res.inPhase(Phase::Translate),
                                   res.totalEvents), 1)
                  << "%, native "
                  << fixed(percent(res.inPhase(Phase::NativeExec),
                                   res.totalEvents), 1)
                  << "%, runtime "
                  << fixed(percent(res.inPhase(Phase::Runtime),
                                   res.totalEvents), 1)
                  << "%)\nmethods compiled " << res.methodsCompiled
                  << ", call sites inlined " << res.callsInlined
                  << ", dispatches folded " << res.dispatchesFolded
                  << "\ncode cache: evictions "
                  << res.codeCacheEvictions << " ("
                  << withCommas(res.codeCacheBytesEvicted)
                  << " bytes), retranslations " << res.retranslations
                  << ", fragmentation "
                  << fixed(res.codeCacheFreeBytes == 0
                               ? 0.0
                               : static_cast<double>(
                                     res.codeCacheFreeExtents)
                                   / (static_cast<double>(
                                          res.codeCacheFreeBytes)
                                      / 1024.0),
                           2)
                  << "\nmemory: interp-equivalent "
                  << withCommas(res.memory.interpreterTotal() / 1024)
                  << " KiB, with JIT "
                  << withCommas(res.memory.jitTotal() / 1024)
                  << " KiB\n";
        if (spec.sharedCache != nullptr) {
            std::cout << "shared cache: hits "
                      << res.sharedTranslationHits << ", misses "
                      << res.sharedTranslationMisses << ", build "
                      << withCommas(res.translateBuildNs)
                      << " ns, saved "
                      << withCommas(res.translateBuildNsSaved)
                      << " ns\n";
        }
    }
    if (wants(f.report, "mix")) {
        std::cout << "\ninstruction mix:\n";
        Table t({"category", "share%"});
        t.addRow({"memory", fixed(mix.pct(mix.memoryOps()), 2)});
        t.addRow({"int", fixed(mix.pct(mix.intOps()), 2)});
        t.addRow({"fp", fixed(mix.pct(mix.fpOps()), 2)});
        t.addRow({"control", fixed(mix.pct(mix.controlOps()), 2)});
        t.addRow({"indirect", fixed(mix.pct(mix.indirectOps()), 2)});
        t.print(std::cout);
    }
    if (wants(f.report, "cache")) {
        std::cout << "\nL1 (64K, 32B; I 2-way, D 4-way):\n";
        Table t({"cache", "refs", "misses", "miss%", "wmiss%"});
        const CacheStats &ic = caches.icache().stats();
        const CacheStats &dc = caches.dcache().stats();
        t.addRow({"I", withCommas(ic.accesses()),
                  withCommas(ic.misses()),
                  fixed(100.0 * ic.missRate(), 3), "-"});
        t.addRow({"D", withCommas(dc.accesses()),
                  withCommas(dc.misses()),
                  fixed(100.0 * dc.missRate(), 3),
                  fixed(100.0 * dc.writeMissFraction(), 1)});
        t.print(std::cout);
    }
    if (wants(f.report, "bpred")) {
        std::cout << "\nbranch prediction:\n";
        Table t({"scheme", "mispredict%"});
        for (const PredictorResult &r : bpred.results())
            t.addRow({r.name, fixed(100.0 * r.mispredictRate(), 2)});
        t.addRow({"(indirect via btb)",
                  fixed(percent(bpred.btbMisses(), bpred.indirects()),
                        2)});
        t.print(std::cout);
    }
    if (wants(f.report, "ipc")) {
        std::cout << "\npipeline (4-wide OOO): IPC "
                  << fixed(pipe.ipc(), 2) << " over "
                  << withCommas(pipe.cycles()) << " cycles, "
                  << withCommas(pipe.mispredicts())
                  << " mispredicts\n";
    }
    if (trace_writer) {
        std::cout << "trace: " << withCommas(
                         trace_writer->eventsWritten())
                  << " events -> " << f.traceOut << "\n";
    }
    if (wants(f.report, "locks")) {
        std::cout << "\nsynchronization (" << syncKindName(run.sync)
                  << "):\n";
        Table t({"case", "count"});
        for (std::size_t c = 0; c < kNumLockCases; ++c) {
            t.addRow({lockCaseName(static_cast<LockCase>(c)),
                      withCommas(res.lockStats.caseCount[c])});
        }
        t.addRow({"total cycles",
                  withCommas(res.lockStats.simCycles)});
        t.addRow({"blocks", withCommas(res.lockStats.blocks)});
        t.print(std::cout);
    }
    return 0;
}

// --- jrs perf ----------------------------------------------------------

/** The method annotate shows when --method was not given: hottest
    (by attributed cycles, then events) with executed bytecode sites. */
std::string
defaultAnnotateTarget(const obs::PerfAttribution &perf)
{
    std::string best;
    std::uint64_t bestCycles = 0;
    std::uint64_t bestInsts = 0;
    for (std::size_t row = 0; row < perf.map().rows(); ++row) {
        const obs::PerfCell &cell = perf.methodCell(row);
        const std::string &name = perf.map().name(static_cast<int>(row));
        if (perf.annotateTable(name).numRows() == 0)
            continue;
        if (best.empty() || cell.cycles() > bestCycles
            || (cell.cycles() == bestCycles
                && cell.insts > bestInsts)) {
            best = name;
            bestCycles = cell.cycles();
            bestInsts = cell.insts;
        }
    }
    return best;
}

int
cmdPerf(const std::string &verb, const obs::RunCli &run,
        const obs::ObsCli &cli, const Flags &f)
{
    // Record the run once (the Shade step), then attribute offline.
    const RecordedRun rec = recordWorkload(run.spec());
    const Program prog = run.workload->build();  // opcode/site names
    obs::PerfOptions popt;
    popt.timelineWindow = f.window;
    popt.program = &prog;

    // Replay once. The perf pass rides the chosen model; the
    // calling-context and sampled passes ride the pipeline, which is
    // perf's own under --model pipeline.
    const bool onPipeline = f.model == "pipeline";
    std::unique_ptr<obs::AttributedCaches> caches;
    if (!onPipeline) {
        caches = std::make_unique<obs::AttributedCaches>(
            CacheConfig{}, CacheConfig{}, rec.methods, popt);
        rec.trace->replay(*caches);
    }
    obs::Attributed<PipelineSim> pipe(rec.methods, PipelineConfig{});
    const obs::PerfAttribution &perf = onPipeline
        ? pipe.add<obs::PerfAttribution>(popt)
        : caches->perf();
    const prof::CctBuilder *cct =
        cli.cctRequested() ? &pipe.add<prof::CctBuilder>() : nullptr;
    const prof::SamplingProfiler *sampler = cli.sampleRequested()
        ? &pipe.add<prof::SamplingProfiler>(cli.sampleOptions())
        : nullptr;
    if (onPipeline || cct != nullptr || sampler != nullptr)
        rec.trace->replay(pipe);

    std::cout << run.workload->name << " --mode " << run.mode
              << " --arg " << run.arg << " (" << f.model
              << " model): exit=" << rec.result.exitValue << ", "
              << withCommas(perf.totalEvents()) << " events";
    if (onPipeline) {
        std::cout << ", " << withCommas(pipe.model().cycles())
                  << " cycles, IPC " << fixed(pipe.model().ipc(), 3);
    }
    if (run.gc.enabled()) {
        std::cout << ", " << gc::collectorName(run.gc.gc.collector)
                  << ": " << rec.result.gcStats.collections
                  << " collections / "
                  << withCommas(rec.result.gcStats.gcEvents)
                  << " collector events";
    }
    std::cout << '\n';

    if (verb == "report") {
        std::cout << "\nper-phase attribution (mutator vs "
                     "collector):\n";
        perf.phaseTable().print(std::cout);
        std::cout << "\nper-method attribution (top " << f.top
                  << " by cycles):\n";
        perf.methodTable(f.top).print(std::cout);
        if (perf.hasOpcodes()) {
            Table ops = perf.opcodeTable(f.top);
            if (ops.numRows() > 0) {
                std::cout << "\nper-opcode attribution (top " << f.top
                          << " by events, interpreted only):\n";
                ops.print(std::cout);
            }
        }
        if (f.window != 0) {
            std::cout << "\ntimeline: " << perf.timeline().size()
                      << " windows of " << withCommas(f.window)
                      << " events\n";
        }
    } else {
        std::string target = f.method;
        if (target.empty()) {
            target = defaultAnnotateTarget(perf);
            if (target.empty()) {
                std::cerr << "no interpreted bytecode sites to "
                             "annotate (try --mode interp)\n";
                return 1;
            }
        }
        Table t = perf.annotateTable(target);
        if (t.numRows() == 0) {
            std::cerr << "no executed bytecode sites for method '"
                      << target << "' (try --mode interp, and see "
                      << "the method column of `jrs perf report`)\n";
            return 1;
        }
        std::cout << "\nper-bytecode attribution of " << target
                  << ":\n";
        t.print(std::cout);
    }

    bool conserved = onPipeline
        ? checkPipeline(perf, pipe.model())
        : checkL1(perf.totals(), caches->caches().icache(),
                  caches->caches().dcache())
            && checkPartitions(perf);
    if (cct != nullptr) {
        conserved &= checkCct(*cct, pipe.model());
        writeCct(cli, run.label(), *cct);
    }
    if (sampler != nullptr) {
        conserved &= checkSample(*sampler, pipe.model());
        writeSample(cli, run.label(), *sampler);
    }
    std::cout << "\nconservation vs model aggregates: "
              << (conserved ? "OK" : "FAILED") << '\n';

    if (f.window != 0 && !cli.traceJson.empty())
        perf.emitCounterTracks(obs::tracer(), run.workload->name);
    writePerf(cli, run.label(), perf);
    cli.finish(std::cout);
    return conserved ? 0 : 1;
}

// --- jrs profile -------------------------------------------------------

/** The per-phase tables, verbatim, as one jrs-profile-v1 document. */
void
writeProfileJson(const std::string &path, const obs::RunCli &run,
                 const RunResult &res, const obs::AttributionSink &attr,
                 std::size_t topN)
{
    using obs::jsonEscape;
    std::ostringstream f;
    f << "{\n  \"schema\": \"jrs-profile-v1\",\n";
    f << "  \"workload\": \"" << run.workload->name << "\",\n";
    f << "  \"mode\": \"" << jsonEscape(run.mode) << "\",\n";
    f << "  \"arg\": " << run.arg << ",\n";
    f << "  \"exit\": " << res.exitValue << ",\n";
    f << "  \"total_events\": " << res.totalEvents << ",\n";
    f << "  \"methods_compiled\": " << res.methodsCompiled << ",\n";
    f << "  \"phases\": [\n";
    bool firstPhase = true;
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        const Phase phase = static_cast<Phase>(p);
        const std::uint64_t events = attr.phaseEvents(phase);
        if (events == 0)
            continue;
        if (!firstPhase)
            f << ",\n";
        firstPhase = false;
        f << "    {\"phase\": \"" << phaseName(phase)
          << "\", \"events\": " << events << ", \"top\": [\n";
        const auto rows = attr.top(phase, topN);
        for (std::size_t r = 0; r < rows.size(); ++r) {
            f << "      {\"method\": \"" << jsonEscape(rows[r].name)
              << "\", \"events\": " << rows[r].events
              << ", \"pct\": " << fixed(rows[r].pct, 4) << '}'
              << (r + 1 < rows.size() ? ",\n" : "\n");
        }
        f << "    ]}";
    }
    f << "\n  ]\n}\n";
    obs::writeFile(path, f.str(), "profile JSON");
}

int
cmdProfile(const obs::RunCli &run, const obs::ObsCli &cli,
           const Flags &f)
{
    obs::RunCli other = run;  // the --flame-diff comparison run
    if (!f.diffMode.empty() && !other.setMode(f.diffMode))
        usage("unknown --diff-mode (expect interp, jit, counter:N or "
              "oracle)");
    if (!f.diffCollector.empty()
        && !gc::parseCollector(f.diffCollector,
                               &other.gc.gc.collector)) {
        usage("unknown --diff-collector (expect nogc, marksweep or "
              "copying)");
    }
    const bool diff = !f.diffMode.empty() || !f.diffCollector.empty();
    if (!f.flameDiff.empty() && !diff)
        usage("--flame-diff needs --diff-mode or --diff-collector");
    if (diff && f.flameDiff.empty())
        usage("--diff-mode/--diff-collector need --flame-diff FILE");

    // Record the run's native stream, then join it offline with the
    // method map built from the finished engine's registry and code
    // cache (methods get their code-cache addresses as they compile).
    const RecordedRun base = recordWorkload(run.spec());
    const RunResult &res = base.result;
    obs::AttributionSink attr(*base.methods);
    base.trace->replay(attr);

    std::cout << run.workload->name << " --mode " << run.mode
              << " --arg " << run.arg << ": exit=" << res.exitValue
              << ", " << withCommas(res.totalEvents)
              << " simulated native instructions, "
              << res.methodsCompiled << " methods compiled\n";
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        const Phase phase = static_cast<Phase>(p);
        const std::uint64_t events = attr.phaseEvents(phase);
        if (events == 0)
            continue;
        std::cout << '\n'
                  << phaseName(phase) << " — " << withCommas(events)
                  << " events ("
                  << fixed(100.0 * static_cast<double>(events)
                               / static_cast<double>(res.totalEvents),
                           1)
                  << "% of run)\n";
        attr.phaseTable(phase, f.top).print(std::cout);
    }
    if (!f.json.empty()) {
        writeProfileJson(f.json, run, res, attr, f.top);
        std::cout << "\nwrote " << f.json << '\n';
    }

    // The same stream once more through one pipeline carrying every
    // attribution pass the outputs need.
    const Program prog =
        cli.perfRequested() ? run.workload->build() : Program{};
    obs::PerfOptions popt;
    popt.program = &prog;
    obs::Attributed<PipelineSim> pipe(base.methods, PipelineConfig{});
    const obs::PerfAttribution *perf = cli.perfRequested()
        ? &pipe.add<obs::PerfAttribution>(popt)
        : nullptr;
    const prof::CctBuilder *cct = cli.cctRequested() || diff
            || f.calibrate
        ? &pipe.add<prof::CctBuilder>()
        : nullptr;
    const prof::SamplingProfiler *sampler =
        f.calibrate || cli.sampleRequested()
        ? &pipe.add<prof::SamplingProfiler>(cli.sampleOptions())
        : nullptr;
    if (perf != nullptr || cct != nullptr || sampler != nullptr)
        base.trace->replay(pipe);

    if (perf != nullptr) {
        std::cout << '\n';
        writePerf(cli, run.label(), *perf);
    }
    bool conserved = cct == nullptr || checkCct(*cct, pipe.model());
    if (cli.cctRequested())
        writeCct(cli, run.label(), *cct);
    if (diff) {
        prof::writeFoldedDiff(
            cct->foldedLines(),
            replayFolded(recordWorkload(other.spec()), conserved),
            f.flameDiff);
        std::cout << "wrote " << f.flameDiff << " (" << run.label()
                  << " vs " << other.label() << ")\n";
    }
    if (sampler != nullptr) {
        conserved &= checkSample(*sampler, pipe.model());
        if (f.calibrate) {
            // Ground truth: the exact profiler over the same stream.
            const prof::CalibrationReport rep =
                prof::calibrate(*cct, *sampler, f.top);
            std::cout << "\nsampled vs exact (per-method " << rep.value
                      << " shares):\n"
                      << rep.text(f.top);
        }
        writeSample(cli, run.label(), *sampler);
    }
    cli.finish(std::cout);
    return conserved ? 0 : 1;
}

// --- jrs gc ------------------------------------------------------------

/** Give the chosen collector a trigger that fires on tiny inputs. */
gc::GcOptions
withDefaultTrigger(gc::GcOptions opts)
{
    if (opts.collector != gc::CollectorKind::None
        && opts.budgetBytes == 0 && opts.everyNAllocs == 0) {
        opts.everyNAllocs = 64;
    }
    return opts;
}

void
printGcStats(const gc::GcStats &s, std::uint64_t totalEvents)
{
    Table t({"stat", "value"});
    t.addRow({"collections", std::to_string(s.collections)});
    t.addRow({"collector events", withCommas(s.gcEvents)});
    t.addRow({"collector share",
              fixed(percent(s.gcEvents, totalEvents), 2) + " %"});
    t.addRow({"bytes freed (marksweep)", withCommas(s.bytesFreed)});
    t.addRow({"bytes copied (copying)", withCommas(s.bytesCopied)});
    t.addRow({"live bytes after last GC",
              withCommas(s.liveBytesLast)});
    t.addRow({"live objects after last GC",
              std::to_string(s.liveObjectsLast)});
    t.addRow({"roots at last GC", std::to_string(s.rootsLast)});
    t.print(std::cout);
}

void
printPauses(const std::vector<std::uint64_t> &pauses)
{
    if (pauses.empty())
        return;
    const auto [lo, hi] = std::minmax_element(pauses.begin(),
                                              pauses.end());
    std::uint64_t sum = 0;
    for (const std::uint64_t p : pauses)
        sum += p;
    std::cout << "pause events: min=" << *lo << " mean="
              << sum / pauses.size() << " max=" << *hi << "\n\n";
    Table t({"#", "pause (collector events)"});
    for (std::size_t i = 0; i < pauses.size(); ++i)
        t.addRow({std::to_string(i + 1), withCommas(pauses[i])});
    t.print(std::cout);
}

/**
 * Every collector under identical triggers (nogc ignores them); the
 * collectors may only reshuffle dead bytes, never change what the
 * program computed.
 */
bool
compareCollectors(const obs::RunCli &run, RunSpec spec)
{
    spec.gc.collector = gc::CollectorKind::MarkSweep;
    spec.gc = withDefaultTrigger(spec.gc);
    Table t({"collector", "exit", "alloc bytes", "collections",
             "gc events", "live hash"});
    bool ok = true;
    std::int32_t refExit = 0;
    std::size_t refAllocs = 0;
    std::uint64_t refHash = 0;
    bool first = true;
    for (const gc::CollectorKind kind : gc::allCollectorKinds()) {
        spec.gc.collector = kind;
        std::uint64_t liveHash = 0;
        const RunResult res = runWorkload(spec, &liveHash);
        const gc::GcStats &s = res.gcStats;
        char hash[32];
        std::snprintf(hash, sizeof hash, "%016llx",
                      static_cast<unsigned long long>(liveHash));
        t.addRow({gc::collectorName(kind),
                  std::to_string(res.exitValue),
                  withCommas(res.memory.heapBytes),
                  std::to_string(s.collections),
                  withCommas(s.gcEvents), hash});
        if (first) {
            refExit = res.exitValue;
            refAllocs = res.memory.heapBytes;
            refHash = liveHash;
            first = false;
        } else if (res.exitValue != refExit
                   || res.memory.heapBytes != refAllocs
                   || liveHash != refHash) {
            ok = false;
        }
    }
    std::cout << run.workload->name << " --mode " << run.mode
              << " --arg " << run.arg << ":\n";
    t.print(std::cout);
    std::cout << "\ncollectors "
              << (ok ? "agree (exit, allocation volume, reachable-heap"
                       " digest all identical)"
                     : "DIVERGE")
              << '\n';
    return ok;
}

int
cmdGc(const std::string &verb, const obs::RunCli &run,
      const obs::ObsCli &cli)
{
    RunSpec spec = run.spec();
    bool ok = true;
    if (verb == "compare") {
        ok = compareCollectors(run, spec);
    } else {
        spec.gc = withDefaultTrigger(spec.gc);
        const RunResult res = runWorkload(spec);
        const char *collector = gc::collectorName(spec.gc.collector);
        if (verb == "stats") {
            std::cout << run.workload->name << " --mode " << run.mode
                      << " --arg " << run.arg << " [" << collector
                      << "]: exit=" << res.exitValue << ", "
                      << withCommas(res.totalEvents) << " events\n\n";
            printGcStats(res.gcStats, res.totalEvents);
        } else {
            std::cout << run.workload->name << " --mode " << run.mode
                      << " [" << collector << "]: "
                      << res.gcStats.pauseEvents.size()
                      << " collections\n";
            printPauses(res.gcStats.pauseEvents);
        }
    }
    cli.finish(std::cout);
    return ok ? 0 : 1;
}

int
dispatch(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string cmd = argv[1];
    std::string verb;
    int i = 2;
    if (cmd == "perf" || cmd == "gc") {
        if (argc < 3)
            usage();
        verb = argv[i++];
        if (cmd == "perf" && verb != "report" && verb != "annotate")
            usage("unknown perf command (expect report or annotate)");
        if (cmd == "gc" && verb != "stats" && verb != "pauses"
            && verb != "compare") {
            usage("unknown gc command (expect stats, pauses or "
                  "compare)");
        }
    } else if (cmd != "run" && cmd != "profile") {
        usage("unknown subcommand (expect run, perf, profile or gc)");
    }
    if (i >= argc)
        usage("missing workload");
    const WorkloadInfo *w = findWorkload(argv[i++]);
    if (w == nullptr)
        usage("unknown workload");

    obs::RunCli run(*w);
    if (verb == "annotate")
        run.setMode("interp");  // interpreted runs have bytecode sites
    if (cmd == "gc")
        run.gc.gc.collector = gc::CollectorKind::MarkSweep;
    obs::ObsCli cli;
    Flags f;
    for (; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value");
            return argv[++i];
        };
        if (!run.tryParse(a, next)
            && (cmd == "run" || !cli.tryParse(a, next))
            && !parseFlag(cmd, a, next, f)) {
            usage("unknown option");
        }
    }

    cli.setup();
    if (cmd == "run")
        return cmdRun(run, f);
    if (cmd == "perf")
        return cmdPerf(verb, run, cli, f);
    if (cmd == "profile")
        return cmdProfile(run, cli, f);
    return cmdGc(verb, run, cli);
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return dispatch(argc, argv);
    } catch (const VmError &e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}

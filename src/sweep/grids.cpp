#include "sweep/grids.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>

#include "arch/bpred/btb.h"
#include "arch/bpred/predictors.h"
#include "arch/cache/cache.h"
#include "arch/mix/instruction_mix.h"
#include "arch/pipeline/pipeline.h"
#include "harness/paper_data.h"
#include "support/statistics.h"
#include "vm/runtime/vm_error.h"

namespace jrs::sweep {

namespace {

/** Figure 7 associativities (8K caches, 32B lines). */
constexpr std::uint32_t kFig07Assocs[] = {1, 2, 4, 8};

/** Figure 8 line sizes (8K direct-mapped). */
constexpr std::uint32_t kFig08Lines[] = {16, 32, 64, 128};

/** Figures 9 and 10 issue widths. */
constexpr std::uint32_t kIssueWidths[] = {1, 2, 4, 8};

/** BTB-capacity ablation sizes. */
constexpr std::size_t kBtbSizes[] = {64, 256, 1024, 4096};

/** The paper's measurement L1s (Table 3, Figures 4 and 5): 64K,
    32B lines, I 2-way, D 4-way. */
constexpr CacheConfig kL1I{64 * 1024, 32, 2, true};
constexpr CacheConfig kL1D{64 * 1024, 32, 4, true};

/** Figure 3's direct-mapped 64K L1s. */
constexpr CacheConfig kL1Direct{64 * 1024, 32, 1, true};

/** GC-grid heap capacities (the budget is heap/1024, sized so the
    suite's allocation volumes actually cross it: smaller heaps
    collect more often — the classic heap-size/pause trade). */
constexpr std::size_t kGcHeapBytes[] = {1u << 20, 4u << 20, 16u << 20};

/** GC-grid collectors (the two real strategies; nogc is the
    reference every digest test already covers). */
constexpr gc::CollectorKind kGcGridCollectors[] = {
    gc::CollectorKind::MarkSweep, gc::CollectorKind::Copying};

/** Code-cache-grid capacities, sized against the suite's generated
    code (~4.7–8.8 KiB per workload under compile-everything): 2 KiB
    forces sustained eviction pressure everywhere, 4 KiB moderate
    pressure, and 8 KiB pressures only the code-heavy workloads — the
    retranslation-overhead curve's knee. */
constexpr std::size_t kCodeCacheCapacities[] = {2u << 10, 4u << 10,
                                                8u << 10};

/** Code-cache-grid eviction policies (all four). */
constexpr EvictionPolicy kCodeCachePolicies[] = {
    EvictionPolicy::kFifo, EvictionPolicy::kLru, EvictionPolicy::kCost,
    EvictionPolicy::kCostPerByte};

/** OSR back-edge threshold for the code-cache grid's tiered points
    (counter policy + OSR + bounded cache: evicted loop-dominated
    methods recover through on-stack replacement). */
constexpr std::uint64_t kCodeCacheOsrThreshold = 32;

const char *
modeLabel(bool jit)
{
    return jit ? "jit" : "interp";
}

/** Point label "fig04/compress/jit". */
std::string
label(const char *fig, const std::string &workload, bool jit)
{
    return std::string(fig) + "/" + workload + "/" + modeLabel(jit);
}

std::string
btbMetricName(std::size_t entries)
{
    return "btb" + std::to_string(entries) + "_miss_pct";
}

/** A metric read back as the count it holds (0 when absent). */
std::uint64_t
count(const PointResult &p, const std::string &name)
{
    const double v = p.metric(name);
    return v >= 0 && v < 0x1p64 ? static_cast<std::uint64_t>(v) : 0;
}

const PointResult &
at(const SweepResult &result, const std::string &label)
{
    const PointResult *p = result.find(label);
    if (p == nullptr)
        throw VmError("sweep result has no point " + label);
    return *p;
}

/**
 * One figure point, plus the name of the model it builds. Figures
 * that build the same model on the same stream share one point in the
 * paper grid, which merges their metrics.
 */
struct Planned {
    SweepPoint point;
    std::string model;
};

template <class SinkT, class MakeFn, class ExtractFn>
Planned
plan(std::string label, const std::string &workload, bool jit,
     std::string model, MakeFn make, ExtractFn extract)
{
    return {makePoint<SinkT>(std::move(label),
                             traceKey(workload, jit ? ExecMode::jit()
                                                    : ExecMode::interp()),
                             std::move(make), std::move(extract)),
            std::move(model)};
}

std::vector<SweepPoint>
strip(std::vector<Planned> planned)
{
    std::vector<SweepPoint> grid;
    for (Planned &p : planned)
        grid.push_back(std::move(p.point));
    return grid;
}

/** @p metrics plus the recording's exit value, which the tables that
    compare modes check across interp and jit. */
std::vector<Metric>
withExitValue(std::vector<Metric> metrics, const RecordedRun &run)
{
    metrics.push_back(
        {"exit_value", static_cast<double>(run.result.exitValue)});
    return metrics;
}

/**
 * False, naming each diverging workload on stderr, when a workload's
 * interp and jit points ("<fig>/<workload>/<mode><suffix>") carry
 * different exit values. Points without one (the fig04/07/08 and btb
 * grids run on their own) are not compared.
 */
bool
sameExitValues(const SweepResult &r, const char *fig, bool includeHello,
               const std::string &suffix = "")
{
    bool ok = true;
    for (const WorkloadInfo *w : suite(includeHello)) {
        const double i =
            at(r, label(fig, w->name, false) + suffix).metric("exit_value");
        const double j =
            at(r, label(fig, w->name, true) + suffix).metric("exit_value");
        if (!std::isnan(i) && !std::isnan(j) && i != j) {
            std::cerr << w->name << ": interp/JIT checksum divergence\n";
            ok = false;
        }
    }
    return ok;
}

// ---------------------------------------------------------------- caches

std::string
cacheModel(const CacheConfig &i, const CacheConfig &d)
{
    const auto one = [](const CacheConfig &c) {
        return std::to_string(c.sizeBytes >> 10) + "k"
            + std::to_string(c.lineBytes) + "b" + std::to_string(c.assoc)
            + "w" + (c.writeAllocate ? "" : "-nwa");
    };
    return "l1-i" + one(i) + "-d" + one(d);
}

/** Miss rates in percent: the metrics of the fig04/07/08 grids. */
std::vector<Metric>
missPct(const CacheSink &sink)
{
    return {
        {"icache_miss_pct", 100.0 * sink.icache().stats().missRate()},
        {"dcache_miss_pct", 100.0 * sink.dcache().stats().missRate()},
    };
}

/**
 * Both caches' raw counters for the whole run ("i_", "d_"), its
 * Translate phase ("i_translate_", ...) and everything else
 * ("i_rest_", ...), from which the tables rebuild CacheStats.
 */
std::vector<Metric>
cacheCounters(const CacheSink &sink)
{
    std::vector<Metric> out;
    for (const auto &[c, cache] : {std::pair{"i_", &sink.icache()},
                                   std::pair{"d_", &sink.dcache()}}) {
        const std::pair<const char *, CacheStats> scopes[] = {
            {"", cache->stats()},
            {"translate_", cache->phaseStats(Phase::Translate)},
            {"rest_", cache->statsExcluding(Phase::Translate)},
        };
        for (const auto &[scope, s] : scopes) {
            const std::string p = std::string(c) + scope;
            out.push_back({p + "reads", static_cast<double>(s.reads)});
            out.push_back({p + "writes", static_cast<double>(s.writes)});
            out.push_back({p + "read_misses",
                           static_cast<double>(s.readMisses)});
            out.push_back({p + "write_misses",
                           static_cast<double>(s.writeMisses)});
        }
    }
    return out;
}

CacheStats
cacheStats(const PointResult &p, const std::string &prefix)
{
    CacheStats s;
    s.reads = count(p, prefix + "reads");
    s.writes = count(p, prefix + "writes");
    s.readMisses = count(p, prefix + "read_misses");
    s.writeMisses = count(p, prefix + "write_misses");
    return s;
}

/** A cache point: the pinned miss rates, or with @p counters the raw
    counters plus the exit value. */
Planned
cachePoint(std::string label, const std::string &workload, bool jit,
           CacheConfig icfg, CacheConfig dcfg, bool counters)
{
    return plan<CacheSink>(
        std::move(label), workload, jit, cacheModel(icfg, dcfg),
        [icfg, dcfg] { return std::make_unique<CacheSink>(icfg, dcfg); },
        [counters](const CacheSink &sink, const RecordedRun &run) {
            return counters ? withExitValue(cacheCounters(sink), run)
                            : missPct(sink);
        });
}

// ------------------------------------------------------- stream sinks

/** Indirect-target misprediction across several BTB capacities in one
    pass (the abl_btb_size measurement). */
class BtbSizeSweepSink : public TraceSink {
  public:
    BtbSizeSweepSink() {
        for (const std::size_t s : kBtbSizes)
            btbs_.emplace_back(s);
        misses_.assign(btbs_.size(), 0);
    }

    void onEvent(const TraceEvent &ev) override {
        if (ev.kind != NKind::IndirectJump
            && ev.kind != NKind::IndirectCall) {
            return;
        }
        ++indirects_;
        for (std::size_t i = 0; i < btbs_.size(); ++i) {
            if (btbs_[i].predict(ev.pc) != ev.target)
                ++misses_[i];
            btbs_[i].update(ev.pc, ev.target);
        }
    }

    std::vector<Metric> metrics() const {
        std::vector<Metric> out;
        out.push_back(
            {"indirects", static_cast<double>(indirects_)});
        for (std::size_t i = 0; i < btbs_.size(); ++i) {
            out.push_back({btbMetricName(kBtbSizes[i]),
                           percent(misses_[i], indirects_)});
        }
        return out;
    }

  private:
    std::vector<Btb> btbs_;
    std::vector<std::uint64_t> misses_;
    std::uint64_t indirects_ = 0;
};

/**
 * Collector-work profile of one stream, derived purely from the
 * Phase::Gc event tags: a collection is one Call at kGcPc (every
 * collector brackets its pause in Call/Ret), and the pause length is
 * the number of Gc events between them. Works identically on live,
 * replayed, and disk-loaded streams.
 */
class GcPhaseSink : public TraceSink {
  public:
    void onEvent(const TraceEvent &ev) override {
        ++total_;
        if (ev.phase != Phase::Gc)
            return;
        ++gcEvents_;
        if (ev.kind == NKind::Call)
            pauses_.push_back(0);
        if (!pauses_.empty())
            ++pauses_.back();
    }

    std::vector<Metric> metrics() const {
        std::uint64_t maxPause = 0;
        for (const std::uint64_t p : pauses_)
            maxPause = std::max(maxPause, p);
        return {
            {"collections", static_cast<double>(pauses_.size())},
            {"gc_events", static_cast<double>(gcEvents_)},
            {"gc_event_pct", percent(gcEvents_, total_)},
            {"max_pause_events", static_cast<double>(maxPause)},
        };
    }

  private:
    std::uint64_t total_ = 0;
    std::uint64_t gcEvents_ = 0;
    std::vector<std::uint64_t> pauses_;  ///< events per collection
};

/**
 * Translation-work profile of one stream, derived purely from the
 * phase tags: under a bounded code cache every retranslation shows up
 * as extra Translate-phase events and evicted methods run interpreted
 * until recompiled, so the Translate/Interpret shares are the
 * retranslation overhead. Works identically on live, replayed, and
 * disk-loaded streams.
 */
class TranslatePhaseSink : public TraceSink {
  public:
    void onEvent(const TraceEvent &ev) override {
        ++total_;
        switch (ev.phase) {
        case Phase::Translate: ++translate_; break;
        case Phase::Interpret: ++interp_; break;
        case Phase::NativeExec: ++native_; break;
        default: break;
        }
    }

    /**
     * Stream-phase shares, plus the recorded run's end-of-run
     * code-cache free-extent accounting (the fragmentation gauge:
     * free extents per free KiB, matching
     * ExtentAllocator::fragmentation). The free-extent numbers ride
     * the recording's meta sidecar, so disk-loaded streams report
     * the same values as the live run.
     */
    std::vector<Metric> metrics(const RecordedRun &run) const {
        const double freeB =
            static_cast<double>(run.result.codeCacheFreeBytes);
        const double freeX =
            static_cast<double>(run.result.codeCacheFreeExtents);
        return {
            {"total_events", static_cast<double>(total_)},
            {"translate_events", static_cast<double>(translate_)},
            {"translate_pct", percent(translate_, total_)},
            {"interp_pct", percent(interp_, total_)},
            {"native_pct", percent(native_, total_)},
            {"free_code_bytes", freeB},
            {"free_code_extents", freeX},
            {"fragmentation", freeB == 0.0 ? 0.0
                                           : freeX / (freeB / 1024.0)},
        };
    }

  private:
    std::uint64_t total_ = 0;
    std::uint64_t translate_ = 0;
    std::uint64_t interp_ = 0;
    std::uint64_t native_ = 0;
};

// ------------------------------------------------------------ figures

/** Figure 2's rows: table label, metric name, count. */
struct MixRow {
    const char *row;
    const char *metric;
    std::uint64_t (*count)(const InstructionMix &);
};

const MixRow kMixRows[] = {
    {"load", "load",
     [](const InstructionMix &m) { return m.count(NKind::Load); }},
    {"store", "store",
     [](const InstructionMix &m) { return m.count(NKind::Store); }},
    {"memory (total)", "memory",
     [](const InstructionMix &m) { return m.memoryOps(); }},
    {"int alu/mul/div", "int",
     [](const InstructionMix &m) { return m.intOps(); }},
    {"fp ops", "fp", [](const InstructionMix &m) { return m.fpOps(); }},
    {"cond branch", "branch",
     [](const InstructionMix &m) { return m.count(NKind::Branch); }},
    {"direct jump", "jump",
     [](const InstructionMix &m) { return m.count(NKind::Jump); }},
    {"indirect jump", "indirect_jump",
     [](const InstructionMix &m) {
         return m.count(NKind::IndirectJump);
     }},
    {"call", "call",
     [](const InstructionMix &m) { return m.count(NKind::Call); }},
    {"indirect call", "indirect_call",
     [](const InstructionMix &m) {
         return m.count(NKind::IndirectCall);
     }},
    {"ret", "ret",
     [](const InstructionMix &m) { return m.count(NKind::Ret); }},
    {"control (total)", "control",
     [](const InstructionMix &m) { return m.controlOps(); }},
    {"indirect (total)", "indirect",
     [](const InstructionMix &m) { return m.indirectOps(); }},
};

std::vector<Planned>
planFig02()
{
    std::vector<Planned> out;
    for (const WorkloadInfo *w : suite()) {
        for (const bool jit : {false, true}) {
            out.push_back(plan<InstructionMix>(
                label("fig02", w->name, jit), w->name, jit, "mix",
                [] { return std::make_unique<InstructionMix>(); },
                [](const InstructionMix &m, const RecordedRun &run) {
                    std::vector<Metric> metrics{
                        {"total", static_cast<double>(m.total())}};
                    for (const MixRow &row : kMixRows) {
                        metrics.push_back(
                            {row.metric,
                             static_cast<double>(row.count(m))});
                    }
                    return withExitValue(std::move(metrics), run);
                }));
        }
    }
    return out;
}

bool
summariseFig02(const SweepResult &r, std::ostream &out)
{
    if (!sameExitValues(r, "fig02", false))
        return false;
    printHeader(out, "Figure 2 — cumulative instruction mix, interp vs JIT",
                "interp: more loads/stores + indirect jumps; JIT: stack "
                "ops become register ops, virtual calls get inlined "
                "stubs");
    // Cumulative over the suite: sum each mode's counts, then share.
    std::map<std::string, std::uint64_t> sum[2];
    for (const WorkloadInfo *w : suite()) {
        for (const bool jit : {false, true}) {
            const PointResult &p = at(r, label("fig02", w->name, jit));
            sum[jit]["total"] += count(p, "total");
            for (const MixRow &row : kMixRows)
                sum[jit][row.metric] += count(p, row.metric);
        }
    }
    Table t({"category", "interp%", "jit%"});
    for (const MixRow &row : kMixRows) {
        t.addRow({row.row,
                  fixed(percent(sum[0][row.metric], sum[0]["total"]), 2),
                  fixed(percent(sum[1][row.metric], sum[1]["total"]),
                        2)});
    }
    t.print(out);
    out << "\ntotal dynamic instructions: interp "
        << withCommas(sum[0]["total"]) << ", jit "
        << withCommas(sum[1]["total"]) << "\n";
    return true;
}

constexpr const char *kPredictors[] = {"2bit", "bht", "gshare",
                                       "two_level_pc"};

std::vector<Planned>
planTab02()
{
    std::vector<Planned> out;
    for (const WorkloadInfo *w : suite(true)) {
        for (const bool jit : {false, true}) {
            out.push_back(plan<PredictorBank>(
                label("tab02", w->name, jit), w->name, jit, "bpred",
                [] { return std::make_unique<PredictorBank>(); },
                [](const PredictorBank &bank, const RecordedRun &run) {
                    const std::vector<PredictorResult> res =
                        bank.results();
                    std::vector<Metric> metrics;
                    for (const PredictorResult &p : res) {
                        metrics.push_back(
                            {std::string(p.name) + "_mispredict_pct",
                             100.0 * p.mispredictRate()});
                    }
                    metrics.push_back(
                        {"indirect_miss_pct",
                         percent(bank.btbMisses(), bank.indirects())});
                    metrics.push_back(
                        {"branches",
                         static_cast<double>(res[0].condBranches
                                             + res[0].indirects)});
                    return withExitValue(std::move(metrics), run);
                }));
        }
    }
    return out;
}

bool
summariseTab02(const SweepResult &r, std::ostream &out)
{
    if (!sameExitValues(r, "tab02", true))
        return false;
    printHeader(out,
                "Table 2 — misprediction rates (cond + indirect), 4 "
                "schemes",
                "GShare accuracy: interp 65-87%, JIT 80-92%; 2bit << bht "
                "<< gshare ~ two-level");
    Table t({"workload", "mode", "2bit%", "bht%", "gshare%",
             "two_level%", "indirect_mr%", "branches"});
    for (const WorkloadInfo *w : suite(true)) {
        for (const bool jit : {false, true}) {
            const PointResult &p = at(r, label("tab02", w->name, jit));
            std::vector<std::string> row{w->name, modeLabel(jit)};
            for (const char *scheme : kPredictors) {
                row.push_back(fixed(
                    p.metric(std::string(scheme) + "_mispredict_pct"),
                    1));
            }
            row.push_back(fixed(p.metric("indirect_miss_pct"), 1));
            row.push_back(withCommas(count(p, "branches")));
            t.addRow(row);
        }
    }
    t.print(out);
    out << "\npaper reference: GShare correct-prediction ranges "
        << paper::kGshareInterpAccLow << "-"
        << paper::kGshareInterpAccHigh << "% (interp) vs "
        << paper::kGshareJitAccLow << "-" << paper::kGshareJitAccHigh
        << "% (JIT).\n";
    return true;
}

std::vector<Planned>
planTab03()
{
    std::vector<Planned> out;
    for (const WorkloadInfo *w : suite(true)) {
        for (const bool jit : {false, true}) {
            out.push_back(cachePoint(label("tab03", w->name, jit),
                                     w->name, jit, kL1I, kL1D, true));
        }
    }
    return out;
}

bool
summariseTab03(const SweepResult &r, std::ostream &out)
{
    if (!sameExitValues(r, "tab03", true))
        return false;
    printHeader(out,
                "Table 3 — cache performance (64K, 32B; I 2-way, D "
                "4-way)",
                "interp I-hit > 99.9%; JIT D-refs 10-80% of interp's; "
                "JIT misses higher in absolute terms");
    Table t({"workload", "mode", "i_refs", "i_misses", "i_mr%",
             "d_refs", "d_misses", "d_mr%", "d_wmiss%"});
    for (const WorkloadInfo *w : suite(true)) {
        for (const bool jit : {false, true}) {
            const PointResult &p = at(r, label("tab03", w->name, jit));
            const CacheStats ic = cacheStats(p, "i_");
            const CacheStats dc = cacheStats(p, "d_");
            t.addRow({
                w->name,
                modeLabel(jit),
                withCommas(ic.accesses()),
                withCommas(ic.misses()),
                fixed(100.0 * ic.missRate(), 3),
                withCommas(dc.accesses()),
                withCommas(dc.misses()),
                fixed(100.0 * dc.missRate(), 3),
                fixed(100.0 * dc.writeMissFraction(), 1),
            });
        }
    }
    t.print(out);
    return true;
}

std::vector<Planned>
planFig03()
{
    std::vector<Planned> out;
    for (const WorkloadInfo *w : suite(true)) {
        for (const bool jit : {false, true}) {
            out.push_back(cachePoint(label("fig03", w->name, jit),
                                     w->name, jit, kL1Direct, kL1Direct,
                                     true));
        }
    }
    return out;
}

bool
summariseFig03(const SweepResult &r, std::ostream &out)
{
    if (!sameExitValues(r, "fig03", true))
        return false;
    printHeader(out,
                "Figure 3 — share of D-misses that are writes (DM, 32B, "
                "64K)",
                "JIT mode: 50-90% of data misses are writes (code "
                "install)");
    Table t({"workload", "interp_wmiss%", "jit_wmiss%",
             "jit_translate_wmiss%"});
    for (const WorkloadInfo *w : suite(true)) {
        const PointResult &pi = at(r, label("fig03", w->name, false));
        const PointResult &pj = at(r, label("fig03", w->name, true));
        t.addRow({
            w->name,
            fixed(100.0 * cacheStats(pi, "d_").writeMissFraction(), 1),
            fixed(100.0 * cacheStats(pj, "d_").writeMissFraction(), 1),
            fixed(100.0
                      * cacheStats(pj, "d_translate_").writeMissFraction(),
                  1),
        });
    }
    t.print(out);
    return true;
}

std::vector<Planned>
planFig04()
{
    std::vector<Planned> out;
    for (const WorkloadInfo *w : suite()) {
        for (const bool jit : {false, true}) {
            out.push_back(cachePoint(label("fig04", w->name, jit),
                                     w->name, jit, kL1I, kL1D, false));
        }
    }
    return out;
}

bool
summariseFig04(const SweepResult &r, std::ostream &out)
{
    if (!sameExitValues(r, "fig04", false))
        return false;
    printHeader(out, "Figure 4 — average miss rates vs C/C++ reference",
                "interp < C/C++ on both; JIT I-cache ~ C/C++, JIT "
                "D-cache worst of all families");
    double i_sum[2] = {}, d_sum[2] = {};
    int n = 0;
    for (const WorkloadInfo *w : suite()) {
        for (const bool jit : {false, true}) {
            const PointResult &p = at(r, label("fig04", w->name, jit));
            i_sum[jit] += p.metric("icache_miss_pct");
            d_sum[jit] += p.metric("dcache_miss_pct");
        }
        ++n;
    }
    Table t({"family", "icache_miss%", "dcache_miss%", "source"});
    t.addRow({"Java interp (measured)", fixed(i_sum[0] / n, 3),
              fixed(d_sum[0] / n, 3), "jrs simulator"});
    t.addRow({"Java JIT (measured)", fixed(i_sum[1] / n, 3),
              fixed(d_sum[1] / n, 3), "jrs simulator"});
    for (const auto &ref : paper::kFig4Reference) {
        t.addRow({ref.family, fixed(ref.icachePct, 2),
                  fixed(ref.dcachePct, 2), "paper (plot read)"});
    }
    t.print(out);
    return true;
}

std::vector<Planned>
planFig05()
{
    std::vector<Planned> out;
    for (const WorkloadInfo *w : suite(true)) {
        out.push_back(cachePoint(label("fig05", w->name, true), w->name,
                                 true, kL1I, kL1D, true));
    }
    return out;
}

bool
summariseFig05(const SweepResult &r, std::ostream &out)
{
    printHeader(out, "Figure 5 — misses inside translate vs rest (JIT mode)",
                "translate: ~30% of I-misses, 40-80% of D-misses; ~60% "
                "of translate D-misses are writes");
    Table t({"workload", "i_miss_trans%", "d_miss_trans%",
             "wmiss_in_trans%", "i_mr_trans%", "i_mr_rest%",
             "d_mr_trans%", "d_mr_rest%"});
    for (const WorkloadInfo *w : suite(true)) {
        const PointResult &p = at(r, label("fig05", w->name, true));
        const CacheStats it = cacheStats(p, "i_translate_");
        const CacheStats ir = cacheStats(p, "i_rest_");
        const CacheStats dt = cacheStats(p, "d_translate_");
        const CacheStats dr = cacheStats(p, "d_rest_");
        const std::uint64_t i_all = it.misses() + ir.misses();
        const std::uint64_t d_all = dt.misses() + dr.misses();
        t.addRow({
            w->name,
            fixed(percent(it.misses(), i_all), 1),
            fixed(percent(dt.misses(), d_all), 1),
            fixed(100.0 * dt.writeMissFraction(), 1),
            fixed(100.0 * it.missRate(), 2),
            fixed(100.0 * ir.missRate(), 2),
            fixed(100.0 * dt.missRate(), 2),
            fixed(100.0 * dr.missRate(), 2),
        });
    }
    t.print(out);
    out << "\npaper reference: translate D-miss share "
        << paper::kTranslateDMissShareLow << "-"
        << paper::kTranslateDMissShareHigh
        << "%, write-miss share inside translate ~"
        << paper::kTranslateWriteMissPct << "%.\n";
    return true;
}

std::vector<Planned>
planFig07()
{
    std::vector<Planned> out;
    for (const WorkloadInfo *w : suite()) {
        for (const bool jit : {false, true}) {
            for (const std::uint32_t a : kFig07Assocs) {
                const CacheConfig cfg{8 * 1024, 32, a, true};
                out.push_back(cachePoint(
                    label("fig07", w->name, jit) + "/assoc"
                        + std::to_string(a),
                    w->name, jit, cfg, cfg, false));
            }
        }
    }
    return out;
}

bool
summariseFig07(const SweepResult &r, std::ostream &out)
{
    if (!sameExitValues(r, "fig07", false, "/assoc1"))
        return false;
    printHeader(out, "Figure 7 — associativity sweep (8K, 32B, assoc 1/2/4/8)",
                "biggest miss reduction when going from 1-way to 2-way");
    Table t({"mode", "assoc", "icache_miss%", "dcache_miss%"});
    for (const bool jit : {false, true}) {
        for (const std::uint32_t a : kFig07Assocs) {
            double i_sum = 0, d_sum = 0;
            int n = 0;
            for (const WorkloadInfo *w : suite()) {
                const PointResult &p =
                    at(r, label("fig07", w->name, jit) + "/assoc"
                              + std::to_string(a));
                i_sum += p.metric("icache_miss_pct");
                d_sum += p.metric("dcache_miss_pct");
                ++n;
            }
            t.addRow({modeLabel(jit), std::to_string(a),
                      fixed(i_sum / n, 3), fixed(d_sum / n, 3)});
        }
    }
    t.print(out);
    return true;
}

std::vector<Planned>
planFig08()
{
    std::vector<Planned> out;
    for (const WorkloadInfo *w : suite(true)) {
        for (const bool jit : {false, true}) {
            for (const std::uint32_t lb : kFig08Lines) {
                const CacheConfig cfg{8 * 1024, lb, 1, true};
                out.push_back(cachePoint(
                    label("fig08", w->name, jit) + "/line"
                        + std::to_string(lb),
                    w->name, jit, cfg, cfg, false));
            }
        }
    }
    return out;
}

bool
summariseFig08(const SweepResult &r, std::ostream &out)
{
    if (!sameExitValues(r, "fig08", true, "/line16"))
        return false;
    printHeader(out,
                "Figure 8 — line-size sweep (8K direct-mapped; "
                "16/32/64/128B)",
                "interp D-cache often best at 16B lines; JIT best at "
                "32-64B");
    Table t({"workload", "mode", "cache", "16B%", "32B%", "64B%",
             "128B%", "best"});
    for (const WorkloadInfo *w : suite(true)) {
        for (const bool jit : {false, true}) {
            for (const bool dcache : {false, true}) {
                const char *metric =
                    dcache ? "dcache_miss_pct" : "icache_miss_pct";
                double mr[4];
                int best = 0;
                for (int k = 0; k < 4; ++k) {
                    mr[k] = at(r, label("fig08", w->name, jit) + "/line"
                                      + std::to_string(kFig08Lines[k]))
                                .metric(metric);
                    if (mr[k] < mr[best])
                        best = k;
                }
                t.addRow({
                    w->name,
                    modeLabel(jit),
                    dcache ? "D" : "I",
                    fixed(mr[0], 3),
                    fixed(mr[1], 3),
                    fixed(mr[2], 3),
                    fixed(mr[3], 3),
                    std::to_string(kFig08Lines[best]) + "B",
                });
            }
        }
    }
    t.print(out);
    return true;
}

/** "fig10/compress/jit/w4": one out-of-order pipeline per issue width,
    the points Figures 9 and 10 both read. */
std::string
widthLabel(const std::string &workload, bool jit, std::uint32_t width)
{
    return label("fig10", workload, jit) + "/w" + std::to_string(width);
}

std::vector<Planned>
planFig10()
{
    std::vector<Planned> out;
    for (const WorkloadInfo *w : suite(true)) {
        for (const bool jit : {false, true}) {
            for (const std::uint32_t width : kIssueWidths) {
                out.push_back(plan<PipelineSim>(
                    widthLabel(w->name, jit, width), w->name, jit,
                    "pipeline-w" + std::to_string(width),
                    [width] {
                        PipelineConfig cfg;
                        cfg.issueWidth = width;
                        return std::make_unique<PipelineSim>(cfg);
                    },
                    [](const PipelineSim &sim, const RecordedRun &run) {
                        return withExitValue(
                            {{"ipc", sim.ipc()},
                             {"cycles",
                              static_cast<double>(sim.cycles())}},
                            run);
                    }));
            }
        }
    }
    return out;
}

bool
summariseFig09(const SweepResult &r, std::ostream &out)
{
    if (!sameExitValues(r, "fig10", true, "/w1"))
        return false;
    printHeader(out, "Figure 9 — IPC vs issue width (OOO model)",
                "interp IPC > jit IPC at narrow issue; interp scaling "
                "flattens at wide issue (indirect dispatch)");
    Table t({"workload", "mode", "ipc_w1", "ipc_w2", "ipc_w4",
             "ipc_w8", "scaling_w8/w1"});
    for (const WorkloadInfo *w : suite(true)) {
        for (const bool jit : {false, true}) {
            double ipc[4];
            for (int k = 0; k < 4; ++k) {
                ipc[k] = at(r, widthLabel(w->name, jit, kIssueWidths[k]))
                             .metric("ipc");
            }
            t.addRow({w->name, modeLabel(jit), fixed(ipc[0], 2),
                      fixed(ipc[1], 2), fixed(ipc[2], 2),
                      fixed(ipc[3], 2), fixed(ipc[3] / ipc[0], 2)});
        }
    }
    t.print(out);
    return true;
}

bool
summariseFig10(const SweepResult &r, std::ostream &out)
{
    if (!sameExitValues(r, "fig10", true, "/w1"))
        return false;
    printHeader(out, "Figure 10 — normalized execution cycles vs issue width",
                "interpreter improvement flattens with wider issue; JIT "
                "continues to gain");
    Table t({"workload", "mode", "w1", "w2", "w4", "w8", "cycles_w1"});
    for (const WorkloadInfo *w : suite(true)) {
        for (const bool jit : {false, true}) {
            std::uint64_t cycles[4];
            for (int k = 0; k < 4; ++k) {
                cycles[k] = count(
                    at(r, widthLabel(w->name, jit, kIssueWidths[k])),
                    "cycles");
            }
            const double base = static_cast<double>(cycles[0]);
            t.addRow({
                w->name,
                modeLabel(jit),
                "1.000",
                fixed(static_cast<double>(cycles[1]) / base, 3),
                fixed(static_cast<double>(cycles[2]) / base, 3),
                fixed(static_cast<double>(cycles[3]) / base, 3),
                withCommas(cycles[0]),
            });
        }
    }
    t.print(out);
    return true;
}

std::vector<Planned>
planBtb()
{
    std::vector<Planned> out;
    for (const WorkloadInfo *w : suite()) {
        for (const bool jit : {false, true}) {
            out.push_back(plan<BtbSizeSweepSink>(
                label("btb", w->name, jit), w->name, jit, "btb-sizes",
                [] { return std::make_unique<BtbSizeSweepSink>(); },
                [](const BtbSizeSweepSink &sink, const RecordedRun &) {
                    return sink.metrics();
                }));
        }
    }
    return out;
}

bool
summariseBtb(const SweepResult &r, std::ostream &out)
{
    if (!sameExitValues(r, "btb", false))
        return false;
    printHeader(out, "Ablation — BTB size sweep for indirect transfers",
                "interp dispatch mispredicts are interference, not "
                "capacity: bigger BTBs barely help");
    Table t({"workload", "mode", "indirects", "btb64%", "btb256%",
             "btb1k%", "btb4k%"});
    for (const WorkloadInfo *w : suite()) {
        for (const bool jit : {false, true}) {
            const PointResult &p = at(r, label("btb", w->name, jit));
            std::vector<std::string> row{w->name, modeLabel(jit),
                                         withCommas(count(p, "indirects"))};
            for (const std::size_t size : kBtbSizes)
                row.push_back(fixed(p.metric(btbMetricName(size)), 1));
            t.addRow(row);
        }
    }
    t.print(out);
    return true;
}

// ---------------------------------------------------- the paper grid

/** A paper figure: its points and its table. */
struct Figure {
    const char *name;
    const char *description;
    std::vector<Planned> (*plan)();
    bool (*summarise)(const SweepResult &, std::ostream &);
};

/** Every stream-only paper figure, in paper order. */
const Figure kFigures[] = {
    {"fig02", "Figure 2: cumulative native instruction mix, interp vs jit",
     &planFig02, &summariseFig02},
    {"tab02",
     "Table 2: misprediction rates of four predictors plus a 1K BTB",
     &planTab02, &summariseTab02},
    {"tab03",
     "Table 3: L1 references and misses (64K, 32B; I 2-way, D 4-way)",
     &planTab03, &summariseTab03},
    {"fig03",
     "Figure 3: share of D-misses that are writes (64K direct-mapped)",
     &planFig03, &summariseFig03},
    {"fig04", "Figure 4: 64K L1 miss rates vs the C/C++ reference",
     &planFig04, &summariseFig04},
    {"fig05", "Figure 5: misses inside translate vs the rest (jit)",
     &planFig05, &summariseFig05},
    {"fig07", "Figure 7: associativity sweep, 8K caches, 32B lines, "
              "assoc 1/2/4/8",
     &planFig07, &summariseFig07},
    {"fig08", "Figure 8: line-size sweep, 8K direct-mapped, "
              "16/32/64/128B lines",
     &planFig08, &summariseFig08},
    {"fig09", "Figure 9: IPC vs issue width 1/2/4/8 (the fig10 points)",
     &planFig10, &summariseFig09},
    {"fig10", "Figure 10: cycles vs issue width 1/2/4/8, normalised to "
              "1-wide",
     &planFig10, &summariseFig10},
    {"btb", "BTB capacity vs indirect-transfer misprediction",
     &planBtb, &summariseBtb},
};

/** "paper/compress/jit/l1-i64k32b2w-d64k32b4w": one model on one
    stream. */
std::string
paperLabel(const Planned &p)
{
    return "paper/" + p.point.key.workload + "/" + p.point.key.mode.id()
        + "/" + p.model;
}

using Extract = decltype(SweepPoint::extract);

/** @p a's metrics, then those of @p b's not already named. */
Extract
merge(Extract a, Extract b)
{
    return [a = std::move(a), b = std::move(b)](TraceSink &sink,
                                                const RecordedRun &run) {
        std::vector<Metric> out = a(sink, run);
        for (Metric &m : b(sink, run)) {
            if (std::none_of(out.begin(), out.end(),
                             [&](const Metric &o) {
                                 return o.name == m.name;
                             })) {
                out.push_back(std::move(m));
            }
        }
        return out;
    };
}

std::vector<SweepPoint>
buildPaperGrid()
{
    std::vector<SweepPoint> grid;
    std::map<std::string, std::size_t> byLabel;
    for (const Figure &f : kFigures) {
        for (Planned &p : f.plan()) {
            std::string shared = paperLabel(p);
            const auto [it, fresh] = byLabel.emplace(shared, grid.size());
            if (fresh) {
                p.point.label = std::move(shared);
                grid.push_back(std::move(p.point));
            } else {
                grid[it->second].extract =
                    merge(std::move(grid[it->second].extract),
                          std::move(p.point.extract));
            }
        }
    }
    for (SweepPoint &p : grid) {
        p.extract = merge(std::move(p.extract),
                          [](TraceSink &, const RecordedRun &run) {
                              return withExitValue({}, run);
                          });
    }
    return grid;
}

/** Each figure's table from its view of the shared points. */
bool
summarisePaper(const SweepResult &r, std::ostream &out)
{
    bool ok = true;
    for (const Figure &f : kFigures) {
        SweepResult view;
        for (Planned &p : f.plan()) {
            PointResult point = at(r, paperLabel(p));
            point.label = std::move(p.point.label);
            view.points.push_back(std::move(point));
        }
        ok = f.summarise(view, out) && ok;
    }
    return ok;
}

// ------------------------------------------------ recording ablations

std::string
gcLabel(const std::string &workload, gc::CollectorKind collector,
        std::size_t heapBytes)
{
    return "gc/" + workload + "/" + gc::collectorName(collector) + "/h"
        + std::to_string(heapBytes >> 20) + "m";
}

bool
summariseGc(const SweepResult &r, std::ostream &out)
{
    printHeader(out, "Ablation — heap size x collector",
                "GC cost as collector-event share of the stream; budget "
                "= heap/1024, jit mode");
    Table t({"workload", "collector", "heap", "collections",
             "gc events", "gc%", "max pause"});
    for (const WorkloadInfo *w : suite()) {
        for (const gc::CollectorKind c : kGcGridCollectors) {
            for (const std::size_t hb : kGcHeapBytes) {
                const PointResult &p = at(r, gcLabel(w->name, c, hb));
                t.addRow({w->name, gc::collectorName(c),
                          std::to_string(hb >> 20) + "m",
                          fixed(p.metric("collections"), 0),
                          withCommas(count(p, "gc_events")),
                          fixed(p.metric("gc_event_pct"), 2),
                          withCommas(count(p, "max_pause_events"))});
            }
        }
    }
    t.print(out);
    return true;
}

bool
summariseCodeCache(const SweepResult &r, std::ostream &out)
{
    printHeader(out, "Ablation — code-cache capacity x eviction policy",
                "retranslation overhead as Translate-phase share of the "
                "stream; jit mode, unlimited baseline per workload");
    Table t({"workload", "policy", "capacity", "events", "translate%",
             "interp%", "native%", "overhead%"});
    for (const WorkloadInfo *w : suite()) {
        const PointResult &base =
            at(r, codeCacheLabel(w->name, 0, EvictionPolicy::kFifo));
        const double baseEvents = base.metric("total_events");
        t.addRow({w->name, "-", "unlimited",
                  withCommas(count(base, "total_events")),
                  fixed(base.metric("translate_pct"), 2),
                  fixed(base.metric("interp_pct"), 2),
                  fixed(base.metric("native_pct"), 2), "0.00"});
        for (const EvictionPolicy policy : kCodeCachePolicies) {
            for (const std::size_t cap : kCodeCacheCapacities) {
                const PointResult &p =
                    at(r, codeCacheLabel(w->name, cap, policy));
                const double events = p.metric("total_events");
                t.addRow({w->name, evictionPolicyName(policy),
                          std::to_string(cap >> 10) + "k",
                          withCommas(count(p, "total_events")),
                          fixed(p.metric("translate_pct"), 2),
                          fixed(p.metric("interp_pct"), 2),
                          fixed(p.metric("native_pct"), 2),
                          fixed(100.0 * (events - baseEvents) / baseEvents,
                                2)});
            }
        }
    }
    t.print(out);
    return true;
}

} // namespace

const std::vector<const WorkloadInfo *> &
suite(bool includeHello)
{
    const auto build = [](bool withHello) {
        std::vector<const WorkloadInfo *> out;
        for (const WorkloadInfo &w : allWorkloads()) {
            if (withHello || std::string(w.name) != "hello")
                out.push_back(&w);
        }
        return out;
    };
    static const std::vector<const WorkloadInfo *> kWithHello =
        build(true);
    static const std::vector<const WorkloadInfo *> kWithoutHello =
        build(false);
    return includeHello ? kWithHello : kWithoutHello;
}

void
printHeader(std::ostream &out, const char *experiment,
            const char *paperNote)
{
    out << "==================================================="
           "===========================\n"
        << experiment << '\n'
        << "paper: " << paperNote << '\n'
        << "==================================================="
           "===========================\n";
}

std::string
codeCacheLabel(const std::string &workload, std::size_t capacityBytes,
               EvictionPolicy policy, AllocStrategy strategy,
               std::uint64_t osrThreshold)
{
    if (capacityBytes == 0)
        return "code_cache/" + workload + "/unlimited";
    std::string label = "code_cache/" + workload + "/"
        + evictionPolicyName(policy) + "/cc"
        + std::to_string(capacityBytes >> 10) + "k";
    if (strategy != AllocStrategy::kFirstFit)
        label += std::string("/") + allocStrategyName(strategy);
    if (osrThreshold != 0)
        label += "/osr" + std::to_string(osrThreshold);
    return label;
}

std::vector<SweepPoint>
buildGcGrid()
{
    std::vector<SweepPoint> grid;
    for (const WorkloadInfo *w : suite()) {
        for (const gc::CollectorKind c : kGcGridCollectors) {
            for (const std::size_t hb : kGcHeapBytes) {
                TraceKey key = traceKey(w->name, ExecMode::jit());
                key.gc.collector = c;
                // Budget a fixed fraction of the heap between
                // collections: halving the heap halves the
                // allocation headroom, which is the pressure the
                // grid sweeps. 1/1024 keeps the budget inside the
                // suite's (deliberately small) allocation volumes.
                key.gc.budgetBytes = hb >> 10;
                key.heapBytes = hb;
                grid.push_back(makePoint<GcPhaseSink>(
                    gcLabel(w->name, c, hb), std::move(key),
                    [] { return std::make_unique<GcPhaseSink>(); },
                    [](const GcPhaseSink &sink,
                       const RecordedRun &) {
                        return sink.metrics();
                    }));
            }
        }
    }
    return grid;
}

std::vector<SweepPoint>
buildCodeCacheGrid()
{
    std::vector<SweepPoint> grid;
    const auto point =
        [](const WorkloadInfo *w, std::size_t cap,
           EvictionPolicy policy,
           AllocStrategy strategy = AllocStrategy::kFirstFit,
           std::uint64_t osr = 0) {
        TraceKey key = traceKey(w->name, osr != 0
                                             ? ExecMode::counter(8)
                                             : ExecMode::jit());
        key.codeCache.capacityBytes = cap;
        key.codeCache.policy = policy;
        key.codeCache.strategy = strategy;
        key.osrBackEdgeThreshold = osr;
        return makePoint<TranslatePhaseSink>(
            codeCacheLabel(w->name, cap, policy, strategy, osr),
            std::move(key),
            [] { return std::make_unique<TranslatePhaseSink>(); },
            [](const TranslatePhaseSink &sink,
               const RecordedRun &run) { return sink.metrics(run); });
    };
    for (const WorkloadInfo *w : suite()) {
        // Unlimited baseline: the no-eviction stream the bounded
        // points are compared against (policy value is ignored).
        grid.push_back(point(w, 0, EvictionPolicy::kFifo));
        for (const EvictionPolicy policy : kCodeCachePolicies) {
            for (const std::size_t cap : kCodeCacheCapacities)
                grid.push_back(point(w, cap, policy));
        }
        // First-fit vs best-fit extent placement under the same
        // eviction pressure: the fragmentation-gauge comparison.
        for (const std::size_t cap : kCodeCacheCapacities) {
            grid.push_back(point(w, cap, EvictionPolicy::kFifo,
                                 AllocStrategy::kBestFit));
        }
        // Tiered combination: counter policy + OSR + bounded cache —
        // evicted loop-dominated methods recover via on-stack
        // replacement instead of waiting out the re-armed counter.
        grid.push_back(point(w, kCodeCacheCapacities[1],
                             EvictionPolicy::kFifo,
                             AllocStrategy::kFirstFit,
                             kCodeCacheOsrThreshold));
    }
    return grid;
}

const std::vector<NamedGrid> &
allGrids()
{
    static const std::vector<NamedGrid> kGrids = [] {
        std::vector<NamedGrid> out;
        for (const Figure &f : kFigures) {
            out.push_back({f.name, f.description,
                           [plan = f.plan] { return strip(plan()); },
                           f.summarise});
        }
        out.push_back({"paper",
                       "every figure above as one grid: one recording "
                       "per (workload, interp|jit), one point per "
                       "model on it",
                       &buildPaperGrid, &summarisePaper});
        out.push_back({"gc",
                       "heap-size x collector sweep: collections, "
                       "collector-event share, pause sizes",
                       &buildGcGrid, &summariseGc});
        out.push_back({"code_cache",
                       "code-cache capacity x eviction-policy sweep "
                       "(plus best-fit allocation and counter+OSR "
                       "points): retranslation overhead as "
                       "Translate/Interpret share, fragmentation gauge",
                       &buildCodeCacheGrid, &summariseCodeCache});
        return out;
    }();
    return kGrids;
}

const NamedGrid *
findGrid(const std::string &name)
{
    for (const NamedGrid &g : allGrids()) {
        if (name == g.name)
            return &g;
    }
    return nullptr;
}

} // namespace jrs::sweep

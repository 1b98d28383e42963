/**
 * @file
 * Perf-attribution contract tests (obs/perf.h + arch/outcome.h):
 *
 *  - Conservation: per-method CPI components sum exactly to
 *    PipelineSim::cycles(), and attributed access/miss/mispredict
 *    counts sum to the model's own aggregate statistics bit-for-bit
 *    (including the unattributed bucket), per workload and mode.
 *  - Non-perturbation: a model with a listener attached produces
 *    bit-identical timing to a bare one, and a sweep with a perf
 *    group observer produces bit-identical metrics.
 *  - IntervalTimeline reproduces a reference windowed cache sampler
 *    (the original Figure 6 implementation) exactly.
 *  - The trace cache's .methods sidecar round-trips MethodMaps to
 *    later processes.
 *  - Report goldens: the jrs-perf-report-v1, jrs-cct-v1 and
 *    jrs-sample-v1 documents (and both folded outputs) of every
 *    suite workload x {interp, jit} at tinyArg, pinned as FNV-1a
 *    digests.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "arch/outcome.h"
#include "arch/pipeline/pipeline.h"
#include "harness/experiment.h"
#include "isa/trace_buffer.h"
#include "obs/perf.h"
#include "prof/cct.h"
#include "prof/sampler.h"
#include "sweep/observers.h"
#include "sweep/sweep.h"
#include "vm/engine/policy.h"
#include "workloads/workload.h"

namespace jrs {
namespace {

/** Unique-per-test temp dir, removed at scope exit. */
struct TempDir {
    explicit TempDir(const std::string &leaf)
        : path(std::string(::testing::TempDir()) + leaf)
    {
        std::filesystem::remove_all(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    std::string path;
};

std::shared_ptr<CompilationPolicy>
policyFor(const std::string &mode)
{
    if (mode == "interp")
        return std::make_shared<NeverCompilePolicy>();
    if (mode == "jit")
        return std::make_shared<AlwaysCompilePolicy>();
    return std::make_shared<CounterPolicy>(8);
}

/** One window of TimeSeriesCacheSink. */
struct MissSample {
    std::uint64_t iMisses = 0;
    std::uint64_t dMisses = 0;
    std::uint64_t dWriteMisses = 0;
    std::uint64_t translateEvents = 0;  ///< events in Phase::Translate
};

/**
 * The reference Figure 6 sampler: a split L1 that records, for every
 * window of trace events, the misses that occurred in it by diffing
 * the caches' own statistics around each event.
 */
class TimeSeriesCacheSink : public TraceSink {
  public:
    TimeSeriesCacheSink(CacheConfig icfg, CacheConfig dcfg,
                        std::uint64_t window_events)
        : icache_(icfg), dcache_(dcfg), window_(window_events) {}

    void onEvent(const TraceEvent &ev) override {
        const std::uint64_t i0 = icache_.stats().misses();
        const std::uint64_t d0 = dcache_.stats().misses();
        const std::uint64_t w0 = dcache_.stats().writeMisses;
        icache_.access(ev.pc, false, ev.phase);
        if (ev.kind == NKind::Load)
            dcache_.access(ev.mem, false, ev.phase);
        else if (ev.kind == NKind::Store)
            dcache_.access(ev.mem, true, ev.phase);
        current_.iMisses += icache_.stats().misses() - i0;
        current_.dMisses += dcache_.stats().misses() - d0;
        current_.dWriteMisses += dcache_.stats().writeMisses - w0;
        if (ev.phase == Phase::Translate)
            ++current_.translateEvents;
        if (++inWindow_ == window_) {
            samples_.push_back(current_);
            current_ = MissSample();
            inWindow_ = 0;
        }
    }

    void onFinish() override {
        if (inWindow_ != 0)
            samples_.push_back(current_);
        current_ = MissSample();
        inWindow_ = 0;
    }

    const std::vector<MissSample> &samples() const { return samples_; }

  private:
    Cache icache_;
    Cache dcache_;
    std::uint64_t window_;
    std::uint64_t inWindow_ = 0;
    MissSample current_;
    std::vector<MissSample> samples_;
};

/** Record one tiny run; every test replays offline from here. */
RecordedRun
recordTiny(const char *workload, const std::string &mode)
{
    const WorkloadInfo *w = findWorkload(workload);
    EXPECT_NE(w, nullptr) << workload;
    RunSpec s;
    s.workload = w;
    s.arg = w->tinyArg;
    s.policy = policyFor(mode);
    return recordWorkload(s);
}

std::size_t
idx(PerfKind k)
{
    return static_cast<std::size_t>(k);
}

/** Sum of the per-method cells, unattributed bucket included. */
obs::PerfCell
methodSum(const obs::PerfAttribution &perf)
{
    obs::PerfCell sum;
    for (std::size_t row = 0; row <= perf.map().rows(); ++row)
        sum.merge(perf.methodCell(row));
    return sum;
}

/** The workload x mode matrix every conservation test runs over. */
const std::vector<std::pair<const char *, const char *>> kMatrix = {
    {"hello", "interp"},  {"hello", "jit"},    {"hello", "counter"},
    {"compress", "interp"}, {"compress", "jit"},
    {"db", "jit"},        {"db", "counter"},
};

TEST(Perf, CpiStackConservesPipelineCycles)
{
    for (const auto &[workload, mode] : kMatrix) {
        SCOPED_TRACE(std::string(workload) + "/" + mode);
        const RecordedRun rec = recordTiny(workload, mode);
        ASSERT_NE(rec.methods, nullptr);
        obs::AttributedPipeline sink(PipelineConfig{}, rec.methods);
        rec.trace->replay(sink);
        const obs::PerfAttribution &perf = sink.perf();
        const PipelineSim &pipe = sink.pipeline();

        // Whole-run CPI stack == the model's cycle count, exactly.
        EXPECT_EQ(perf.totals().cycles(), pipe.cycles());
        EXPECT_EQ(perf.totalEvents(), pipe.instructions());

        // Per-method components sum to the totals, component by
        // component (so also to cycles()).
        const obs::PerfCell sum = methodSum(perf);
        EXPECT_EQ(sum.insts, perf.totals().insts);
        for (std::size_t c = 0; c < kNumCpiComponents; ++c)
            EXPECT_EQ(sum.cpi[c], perf.totals().cpi[c])
                << cpiComponentName(static_cast<CpiComponent>(c));
    }
}

TEST(Perf, OutcomeCountsMatchPipelineAggregates)
{
    for (const auto &[workload, mode] : kMatrix) {
        SCOPED_TRACE(std::string(workload) + "/" + mode);
        const RecordedRun rec = recordTiny(workload, mode);
        obs::AttributedPipeline sink(PipelineConfig{}, rec.methods);
        rec.trace->replay(sink);
        const obs::PerfCell t = methodSum(sink.perf());
        const PipelineSim &p = sink.pipeline();

        EXPECT_EQ(t.access[idx(PerfKind::ICacheFetch)],
                  p.icache().stats().reads);
        EXPECT_EQ(t.bad[idx(PerfKind::ICacheFetch)],
                  p.icache().stats().readMisses);
        EXPECT_EQ(t.access[idx(PerfKind::DCacheLoad)],
                  p.dcache().stats().reads);
        EXPECT_EQ(t.bad[idx(PerfKind::DCacheLoad)],
                  p.dcache().stats().readMisses);
        EXPECT_EQ(t.access[idx(PerfKind::DCacheStore)],
                  p.dcache().stats().writes);
        EXPECT_EQ(t.bad[idx(PerfKind::DCacheStore)],
                  p.dcache().stats().writeMisses);
        EXPECT_EQ(t.access[idx(PerfKind::CondBranch)],
                  p.condBranches());
        EXPECT_EQ(t.bad[idx(PerfKind::CondBranch)],
                  p.condMispredicts());
        EXPECT_EQ(t.access[idx(PerfKind::IndirectTarget)],
                  p.indirects());
        EXPECT_EQ(t.bad[idx(PerfKind::IndirectTarget)],
                  p.indirectMispredicts());
    }
}

TEST(Perf, CacheOutcomesMatchCacheSinkStats)
{
    const RecordedRun rec = recordTiny("compress", "jit");
    const CacheConfig icfg{8 * 1024, 32, 2, true};
    const CacheConfig dcfg{8 * 1024, 16, 1, true};
    obs::AttributedCaches sink(icfg, dcfg, rec.methods);
    rec.trace->replay(sink);
    const obs::PerfCell t = methodSum(sink.perf());
    const CacheSink &c = sink.caches();

    EXPECT_EQ(t.access[idx(PerfKind::ICacheFetch)],
              c.icache().stats().reads);
    EXPECT_EQ(t.bad[idx(PerfKind::ICacheFetch)],
              c.icache().stats().readMisses);
    EXPECT_EQ(t.access[idx(PerfKind::DCacheLoad)],
              c.dcache().stats().reads);
    EXPECT_EQ(t.bad[idx(PerfKind::DCacheLoad)],
              c.dcache().stats().readMisses);
    EXPECT_EQ(t.access[idx(PerfKind::DCacheStore)],
              c.dcache().stats().writes);
    EXPECT_EQ(t.bad[idx(PerfKind::DCacheStore)],
              c.dcache().stats().writeMisses);
    // A bare cache model charges no cycles.
    EXPECT_EQ(t.cycles(), 0u);
}

TEST(Perf, ListenerDoesNotPerturbPipelineTiming)
{
    const RecordedRun rec = recordTiny("db", "jit");
    PipelineSim bare((PipelineConfig()));
    rec.trace->replay(bare);
    obs::AttributedPipeline observed(PipelineConfig{}, rec.methods);
    rec.trace->replay(observed);

    EXPECT_EQ(observed.pipeline().cycles(), bare.cycles());
    EXPECT_EQ(observed.pipeline().instructions(),
              bare.instructions());
    EXPECT_EQ(observed.pipeline().mispredicts(), bare.mispredicts());
    EXPECT_EQ(observed.pipeline().icache().stats().misses(),
              bare.icache().stats().misses());
    EXPECT_EQ(observed.pipeline().dcache().stats().misses(),
              bare.dcache().stats().misses());
}

TEST(Perf, TimelineMatchesTimeSeriesCacheSink)
{
    const RecordedRun rec = recordTiny("db", "jit");
    const CacheConfig icfg{64 * 1024, 32, 2, true};
    const CacheConfig dcfg{64 * 1024, 32, 4, true};
    // Exercise a partial final window, an exact-divisor window, and a
    // window larger than the stream.
    const std::uint64_t total = rec.trace->size();
    ASSERT_GT(total, 2u);
    for (const std::uint64_t window :
         {total / 7 + 1, total / 2, total, total * 2}) {
        SCOPED_TRACE("window=" + std::to_string(window));
        TimeSeriesCacheSink legacy(icfg, dcfg, window);
        rec.trace->replay(legacy);

        obs::PerfOptions popt;
        popt.timelineWindow = window;
        obs::AttributedCaches ported(icfg, dcfg, rec.methods, popt);
        rec.trace->replay(ported);

        const auto &got = ported.perf().timeline();
        const auto &want = legacy.samples();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].bad[idx(PerfKind::ICacheFetch)],
                      want[i].iMisses);
            EXPECT_EQ(got[i].bad[idx(PerfKind::DCacheLoad)]
                          + got[i].bad[idx(PerfKind::DCacheStore)],
                      want[i].dMisses);
            EXPECT_EQ(got[i].bad[idx(PerfKind::DCacheStore)],
                      want[i].dWriteMisses);
            EXPECT_EQ(got[i].translateEvents,
                      want[i].translateEvents);
        }
    }
}

TEST(Perf, OpcodeAttributionCoversInterpretedRun)
{
    const WorkloadInfo *w = findWorkload("hello");
    ASSERT_NE(w, nullptr);
    const Program prog = w->build();
    RunSpec s;
    s.workload = w;
    s.arg = w->tinyArg;
    s.policy = policyFor("interp");
    const RecordedRun rec = recordWorkload(s);

    obs::PerfOptions popt;
    popt.program = &prog;
    obs::AttributedPipeline sink(PipelineConfig{}, rec.methods, popt);
    rec.trace->replay(sink);
    const obs::PerfAttribution &perf = sink.perf();
    ASSERT_TRUE(perf.hasOpcodes());

    // A pure-interp run must attribute a healthy share of its events
    // to decoded opcodes, and opcode insts can never exceed totals.
    std::uint64_t opInsts = 0;
    std::uint64_t opCycles = 0;
    for (std::size_t o = 0; o < kNumOpcodes; ++o) {
        opInsts += perf.opcodeCell(static_cast<Op>(o)).insts;
        opCycles += perf.opcodeCell(static_cast<Op>(o)).cycles();
    }
    EXPECT_GT(opInsts, 0u);
    EXPECT_LE(opInsts, perf.totals().insts);
    EXPECT_LE(opCycles, perf.totals().cycles());

    // The annotate view has sites for at least one method, and the
    // per-site tables agree with the opcode totals.
    EXPECT_GT(perf.opcodeTable(5).numRows(), 0u);
    bool annotated = false;
    for (std::size_t row = 0; row < perf.map().rows(); ++row) {
        if (perf.annotateTable(perf.map().name(static_cast<int>(row)))
                .numRows()
            > 0) {
            annotated = true;
            break;
        }
    }
    EXPECT_TRUE(annotated);
}

TEST(Perf, SweepGroupObserverKeepsMetricsBitIdentical)
{
    const WorkloadInfo *w = findWorkload("hello");
    ASSERT_NE(w, nullptr);
    const auto buildGrid = [&] {
        std::vector<sweep::SweepPoint> grid;
        for (const std::uint32_t width : {2u, 4u}) {
            PipelineConfig cfg;
            cfg.issueWidth = width;
            grid.push_back(sweep::makePoint<PipelineSim>(
                "w" + std::to_string(width),
                sweep::traceKey("hello", sweep::ExecMode::jit(),
                                w->tinyArg),
                [cfg] { return std::make_unique<PipelineSim>(cfg); },
                [](PipelineSim &sim, const RecordedRun &) {
                    return std::vector<sweep::Metric>{
                        {"cycles",
                         static_cast<double>(sim.cycles())},
                        {"ipc", sim.ipc()},
                    };
                }));
        }
        return grid;
    };

    sweep::SweepEngine plain((sweep::SweepOptions()));
    const sweep::SweepResult without = plain.run(buildGrid());

    // All three reports at once: the perf, CCT and sample passes
    // share the group observer's one pipeline model.
    obs::ObsCli cli;
    cli.perfJson = cli.cctJson = cli.sampleJson = "unused.json";
    sweep::ReportObservers reports;
    sweep::SweepOptions opts;
    reports.attach(opts, cli);
    sweep::SweepEngine observing(opts);
    const sweep::SweepResult with = observing.run(buildGrid());

    ASSERT_TRUE(without.allOk());
    ASSERT_TRUE(with.allOk());
    ASSERT_EQ(without.points.size(), with.points.size());
    for (std::size_t i = 0; i < with.points.size(); ++i) {
        EXPECT_EQ(with.points[i].metric("cycles"),
                  without.points[i].metric("cycles"));
        EXPECT_EQ(with.points[i].metric("ipc"),
                  without.points[i].metric("ipc"));
    }
    // One trace group -> one collected report in each set, and the
    // perf JSON carries the stable schema.
    EXPECT_EQ(reports.perf.size(), 1u);
    EXPECT_EQ(reports.cct.size(), 1u);
    EXPECT_EQ(reports.sample.size(), 1u);
    EXPECT_NE(reports.perf.toJson().find("\"jrs-perf-report-v1\""),
              std::string::npos);
}

TEST(Perf, ReportSetOverwritesDuplicateLabels)
{
    const RecordedRun rec = recordTiny("hello", "jit");
    obs::AttributedPipeline sink(PipelineConfig{}, rec.methods);
    rec.trace->replay(sink);

    obs::ReportSet reports(obs::kPerfReportSchema);
    reports.add("run", sink.perf());
    reports.add("run", sink.perf());
    EXPECT_EQ(reports.size(), 1u);
}

TEST(Perf, MethodsSidecarRoundTripsThroughDiskCache)
{
    TempDir dir("jrs_perf_methods_sidecar");
    const WorkloadInfo *w = findWorkload("hello");
    ASSERT_NE(w, nullptr);
    const sweep::TraceKey key =
        sweep::traceKey("hello", sweep::ExecMode::jit(), w->tinyArg);

    sweep::TraceCache writer(dir.path);
    const auto recorded = writer.get(key);
    ASSERT_NE(recorded->methods, nullptr);
    EXPECT_GT(recorded->methods->rows(), 0u);

    // A fresh cache on the same directory stands in for a later
    // process: the sidecar must restore an identical map.
    sweep::TraceCache reader(dir.path);
    const auto loaded = reader.get(key);
    EXPECT_EQ(reader.stats().diskLoads, 1u);
    ASSERT_NE(loaded->methods, nullptr);

    std::vector<std::tuple<SimAddr, SimAddr, std::string>> a, b;
    recorded->methods->forEachRange(
        [&](SimAddr lo, SimAddr hi, const std::string &name) {
            a.emplace_back(lo, hi, name);
        });
    loaded->methods->forEachRange(
        [&](SimAddr lo, SimAddr hi, const std::string &name) {
            b.emplace_back(lo, hi, name);
        });
    EXPECT_EQ(a, b);

    // Attribution through the restored map matches the original.
    obs::AttributedPipeline viaOriginal(PipelineConfig{},
                                        recorded->methods);
    recorded->trace->replay(viaOriginal);
    obs::AttributedPipeline viaSidecar(PipelineConfig{},
                                       loaded->methods);
    loaded->trace->replay(viaSidecar);
    const obs::PerfCell so = methodSum(viaOriginal.perf());
    const obs::PerfCell ss = methodSum(viaSidecar.perf());
    EXPECT_EQ(so.insts, ss.insts);
    EXPECT_EQ(so.cycles(), ss.cycles());
    // Row indices may differ (the sidecar restores ranges in address
    // order), so compare per-method cells by name.
    const auto byName = [](const obs::PerfAttribution &perf) {
        std::vector<std::pair<std::string, std::uint64_t>> out;
        for (std::size_t row = 0; row < perf.map().rows(); ++row) {
            out.emplace_back(
                perf.map().name(static_cast<int>(row)),
                perf.methodCell(row).cycles());
        }
        std::sort(out.begin(), out.end());
        return out;
    };
    EXPECT_EQ(byName(viaOriginal.perf()), byName(viaSidecar.perf()));
    EXPECT_EQ(viaOriginal.perf()
                  .methodCell(viaOriginal.perf().map().rows())
                  .cycles(),
              viaSidecar.perf()
                  .methodCell(viaSidecar.perf().map().rows())
                  .cycles());
}

/** 64-bit FNV-1a of @p s. */
std::uint64_t
fnv64(const std::string &s)
{
    std::uint64_t h = 14695981039346656037ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** Folded lines rendered as the folded-stack writers print them. */
std::string
foldedText(const std::vector<prof::FoldedLine> &lines)
{
    std::string out;
    for (const prof::FoldedLine &l : lines)
        out += l.stack + ' ' + std::to_string(l.value) + '\n';
    return out;
}

/** Pinned report digests of one suite workload x mode at tinyArg. */
struct ReportGolden {
    const char *workload;
    const char *mode;
    std::uint64_t perf;          ///< jrs-perf-report-v1 document
    std::uint64_t cct;           ///< jrs-cct-v1 document
    std::uint64_t cctFolded;     ///< its folded lines
    std::uint64_t sample;        ///< jrs-sample-v1 document
    std::uint64_t sampleFolded;  ///< its folded lines
};

// Without this gtest prints the raw bytes of the case, including the
// workload and mode pointers, so test names would vary by build.
void
PrintTo(const ReportGolden &g, std::ostream *os)
{
    *os << g.workload << '/' << g.mode;
}

class ReportGoldens : public ::testing::TestWithParam<ReportGolden> {};

/**
 * Every report the attribution passes render, pinned bit for bit: a
 * refactor of the composites or report sets must not move any of
 * these digests.
 */
TEST_P(ReportGoldens, DocumentsMatchPinnedDigests)
{
    const ReportGolden &g = GetParam();
    const WorkloadInfo *w = findWorkload(g.workload);
    ASSERT_NE(w, nullptr);
    const Program prog = w->build();
    const RecordedRun rec = recordTiny(g.workload, g.mode);
    ASSERT_NE(rec.methods, nullptr);
    const std::string label = std::string(g.workload) + "/" + g.mode;

    obs::PerfOptions popt;
    popt.program = &prog;
    popt.timelineWindow = 4096;
    obs::AttributedPipeline perf(PipelineConfig{}, rec.methods, popt);
    rec.trace->replay(perf);
    obs::ReportSet perfSet(obs::kPerfReportSchema);
    perfSet.add(label, perf.perf());

    prof::CctPipeline cct(PipelineConfig{}, rec.methods);
    rec.trace->replay(cct);
    obs::ReportSet cctSet(prof::kCctSchema);
    cctSet.add(label, cct.cct());

    prof::SamplePipeline sample(PipelineConfig{}, rec.methods);
    rec.trace->replay(sample);
    obs::ReportSet sampleSet(prof::kSampleSchema);
    sampleSet.add(label, sample.sampler());

    EXPECT_EQ(fnv64(perfSet.toJson()), g.perf);
    EXPECT_EQ(fnv64(cctSet.toJson()), g.cct);
    EXPECT_EQ(fnv64(foldedText(cctSet.folded(label))), g.cctFolded);
    EXPECT_EQ(fnv64(sampleSet.toJson()), g.sample);
    EXPECT_EQ(fnv64(foldedText(sampleSet.folded(label))),
              g.sampleFolded);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, ReportGoldens,
    ::testing::Values(
        ReportGolden{"compress", "interp", 0x9d05e48214b2532eull,
                     0xc4f94447b4a21ac6ull, 0x3d0f236034b26f53ull,
                     0xe37fce2372461f76ull, 0x6ff0394ff2f317c5ull},
        ReportGolden{"compress", "jit", 0x85cd00407794ba9cull,
                     0x560c641be4a749eeull, 0x6ae244415bd3dca5ull,
                     0x041be3a2ec83d4caull, 0x8148d268fce38c5aull},
        ReportGolden{"jess", "interp", 0xe25b3b7c1c1a29b9ull,
                     0xe9dd04dbab77c245ull, 0x508446391c35c54full,
                     0x1bea6012a3f0184full, 0xd3c92ca3320aca93ull},
        ReportGolden{"jess", "jit", 0x83a61f869d9d34b1ull,
                     0xc617674279e748e9ull, 0x904a4801cb0c7ff3ull,
                     0x93f8e69887dfc8c4ull, 0xb7dfafd6c62157f3ull},
        ReportGolden{"db", "interp", 0x7278076642e565afull,
                     0xa897913ea41de0abull, 0x6cc23a77cb7d26c2ull,
                     0xacadd0a51b0df521ull, 0xb992cd772f155604ull},
        ReportGolden{"db", "jit", 0xb3fdb11de8a935bbull,
                     0x79a4700a03af7c27ull, 0x41a377b2c764aebbull,
                     0x0f0f40f759be3e1bull, 0xa11afa071f7458ebull},
        ReportGolden{"javac", "interp", 0x8b95e5b546991400ull,
                     0x7af30c642cd2f7c1ull, 0xd562a47deffcf963ull,
                     0x5bd456abb642a0a1ull, 0x6c900fa1320ee577ull},
        ReportGolden{"javac", "jit", 0x8386d8c25c11d8a1ull,
                     0xa6e111db77bb9dbfull, 0x6c571cdde00def6aull,
                     0x9168b83353be2aeeull, 0x4497dae745512bf9ull},
        ReportGolden{"mpeg", "interp", 0x07033cae54c6a4e0ull,
                     0xa114c2f3e544397full, 0x828d12eccdf2c7a5ull,
                     0x0c5d1e7b0f6651d3ull, 0xb6afbc5f93de3dcfull},
        ReportGolden{"mpeg", "jit", 0x31a9961e7c4ea778ull,
                     0x876ef72ad5a5acd6ull, 0x635a6f5cbba2fab2ull,
                     0xe294a7f6ec8ae0b1ull, 0xb108bfbd96de704bull},
        ReportGolden{"mtrt", "interp", 0x8b585973b2e72fbcull,
                     0xac90f660ef96079cull, 0x9b481e0fa419edf5ull,
                     0xe9ecbff1507bc4dfull, 0xaea816d36c93ade9ull},
        ReportGolden{"mtrt", "jit", 0x066eed215a8fef96ull,
                     0x7774e21454e5e33bull, 0xa6f78ebfe79708f9ull,
                     0x12fbb1ace51092b6ull, 0xc1ea04bdd26ee8a1ull},
        ReportGolden{"jack", "interp", 0x660f30963723e00full,
                     0x09bfb37be015d077ull, 0x92d38af3d41177a1ull,
                     0x4650ae215b78ccc2ull, 0x63259f876b34f1c0ull},
        ReportGolden{"jack", "jit", 0x63382e98706a55e1ull,
                     0xea76f907c69edb4dull, 0x5db79841c5de3cc1ull,
                     0xfd348c4ade4993b2ull, 0x47581b80dff7c5d3ull},
        ReportGolden{"hello", "interp", 0x04a6b7aaf903df4cull,
                     0xeed7eccd11d46c47ull, 0xfe08a70dbb0d869full,
                     0x963ba74de14cab51ull, 0xc0ad66594776575aull},
        ReportGolden{"hello", "jit", 0x1dfc987da3e270a5ull,
                     0xf47929d8e2155311ull, 0xfb7380658ab71495ull,
                     0x586368af7173c4f9ull, 0xe179b9bbf107d298ull}),
    [](const auto &info) {
        return std::string(info.param.workload) + "_"
            + info.param.mode;
    });

} // namespace
} // namespace jrs

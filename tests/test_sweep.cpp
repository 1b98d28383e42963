/**
 * @file
 * Sweep-engine contract tests: parallel results are bit-identical to
 * live serial runs, faults poison only their own point, and the trace
 * cache records each stream exactly once (memory and disk).
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "arch/bpred/predictors.h"
#include "arch/cache/cache.h"
#include "arch/pipeline/pipeline.h"
#include "harness/experiment.h"
#include "isa/trace_buffer.h"
#include "obs/perf.h"
#include "prof/cct.h"
#include "prof/sampler.h"
#include "sweep/grids.h"
#include "sweep/sweep.h"
#include "vm/runtime/vm_error.h"

namespace jrs::sweep {
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

/** tinyArg key so every recorded run stays sub-second. */
TraceKey
tinyKey(const std::string &workload, ExecMode mode)
{
    const WorkloadInfo *w = findWorkload(workload);
    EXPECT_NE(w, nullptr) << workload;
    return traceKey(workload, mode, w->tinyArg);
}

CacheConfig
l1(std::uint32_t assoc)
{
    return {8 * 1024, 32, assoc, true};
}

/** Cache point measuring I/D miss rates at one associativity. */
SweepPoint
cachePoint(const std::string &label, const TraceKey &key,
           std::uint32_t assoc)
{
    return makePoint<CacheSink>(
        label, key,
        [assoc] {
            return std::make_unique<CacheSink>(l1(assoc), l1(assoc));
        },
        [](CacheSink &sink, const RecordedRun &) {
            return std::vector<Metric>{
                {"i_miss", sink.icache().stats().missRate()},
                {"d_miss", sink.dcache().stats().missRate()},
            };
        });
}

SweepPoint
bpredPoint(const std::string &label, const TraceKey &key)
{
    return makePoint<PredictorBank>(
        label, key,
        [] { return std::make_unique<PredictorBank>(); },
        [](PredictorBank &sink, const RecordedRun &) {
            std::vector<Metric> out;
            for (const PredictorResult &r : sink.results())
                out.push_back({r.name, r.mispredictRate()});
            out.push_back(
                {"btb_misses",
                 static_cast<double>(sink.btbMisses())});
            return out;
        });
}

SweepPoint
pipelinePoint(const std::string &label, const TraceKey &key)
{
    return makePoint<PipelineSim>(
        label, key,
        [] { return std::make_unique<PipelineSim>(PipelineConfig{}); },
        [](PipelineSim &sink, const RecordedRun &) {
            return std::vector<Metric>{
                {"ipc", sink.ipc()},
                {"cycles", static_cast<double>(sink.cycles())},
                {"mispredicts",
                 static_cast<double>(sink.mispredicts())},
            };
        });
}

/** A grid mixing cache, bpred, and pipeline models over four streams. */
std::vector<SweepPoint>
mixedGrid()
{
    std::vector<SweepPoint> grid;
    for (const char *w : {"compress", "db"}) {
        for (const bool jit : {false, true}) {
            const TraceKey key = tinyKey(
                w, jit ? ExecMode::jit() : ExecMode::interp());
            const std::string base =
                std::string(w) + "/" + (jit ? "jit" : "interp");
            grid.push_back(cachePoint(base + "/assoc1", key, 1));
            grid.push_back(cachePoint(base + "/assoc4", key, 4));
            grid.push_back(bpredPoint(base + "/bpred", key));
            grid.push_back(pipelinePoint(base + "/pipeline", key));
        }
    }
    return grid;
}

/**
 * Run one point the pre-sweep way: attach its sink to a live,
 * serial VM run and extract the same metrics.
 */
std::vector<Metric>
liveSerialMetrics(const SweepPoint &p)
{
    // The factories in these grids ignore their RecordedRun argument
    // (plain cache/bpred/pipeline models), so an empty recording
    // stands in and the sink can observe the run live.
    const RecordedRun none;
    std::unique_ptr<TraceSink> sink = p.makeSink(none);
    RunSpec spec = p.key.toRunSpec();
    spec.sink = sink.get();
    RecordedRun run = recordWorkload(spec);
    return p.extract(*sink, run);
}

TEST(Sweep, ParallelResultsBitIdenticalToLiveSerial)
{
    const std::vector<SweepPoint> grid = mixedGrid();

    SweepOptions opt;
    opt.jobs = 4;
    SweepEngine engine(opt);
    const SweepResult result = engine.run(grid);

    ASSERT_EQ(result.points.size(), grid.size());
    ASSERT_TRUE(result.allOk());
    // Deterministic ordering: slot i belongs to grid point i no
    // matter which worker computed it.
    for (std::size_t i = 0; i < grid.size(); ++i)
        EXPECT_EQ(result.points[i].label, grid[i].label);

    for (std::size_t i = 0; i < grid.size(); ++i) {
        const std::vector<Metric> serial = liveSerialMetrics(grid[i]);
        const PointResult &par = result.points[i];
        ASSERT_EQ(par.metrics.size(), serial.size()) << par.label;
        for (std::size_t m = 0; m < serial.size(); ++m) {
            EXPECT_EQ(par.metrics[m].name, serial[m].name)
                << par.label;
            // Exact: same integer counters fed to the same float
            // arithmetic must give the same bits.
            EXPECT_EQ(par.metrics[m].value, serial[m].value)
                << par.label << "." << serial[m].name;
        }
    }

    // Four unique streams, recorded once each, everything else served
    // from memory.
    EXPECT_EQ(result.traces.recordings, 4u);
    EXPECT_EQ(result.traces.diskLoads, 0u);
}

TEST(Sweep, ThrowingSinkFactoryPoisonsOnlyItsPoint)
{
    const TraceKey key = tinyKey("compress", ExecMode::interp());
    std::vector<SweepPoint> grid;
    grid.push_back(cachePoint("before", key, 1));
    grid.push_back(cachePoint("bad", key, 2));
    grid[1].makeSink =
        [](const RecordedRun &) -> std::unique_ptr<TraceSink> {
        throw std::runtime_error("factory exploded");
    };
    grid.push_back(cachePoint("after", key, 4));

    SweepEngine engine;
    const SweepResult result = engine.run(grid);

    EXPECT_TRUE(result.points[0].ok);
    EXPECT_TRUE(result.points[2].ok);
    EXPECT_FALSE(result.points[1].ok);
    EXPECT_NE(result.points[1].error.find("factory exploded"),
              std::string::npos)
        << result.points[1].error;
    EXPECT_FALSE(result.allOk());
    // The shared stream was still recorded and consumed by the others.
    EXPECT_GT(result.points[0].traceEvents, 0u);
    EXPECT_EQ(result.points[0].traceEvents,
              result.points[2].traceEvents);
}

/** Sink that dies mid-stream; the fan-out must contain the blast. */
class ExplodingSink : public TraceSink {
  public:
    void onEvent(const TraceEvent &) override {
        if (++seen_ == 100)
            throw std::runtime_error("sink exploded");
    }

  private:
    std::uint64_t seen_ = 0;
};

TEST(Sweep, ThrowingSinkPoisonsOnlyItsPoint)
{
    const TraceKey key = tinyKey("compress", ExecMode::interp());
    std::vector<SweepPoint> grid;
    grid.push_back(cachePoint("good", key, 1));
    grid.push_back(makePoint<ExplodingSink>(
        "dies", key, [] { return std::make_unique<ExplodingSink>(); },
        [](ExplodingSink &, const RecordedRun &) {
            return std::vector<Metric>{};
        }));

    SweepEngine engine;
    const SweepResult result = engine.run(grid);

    EXPECT_TRUE(result.points[0].ok);
    EXPECT_FALSE(result.points[1].ok);
    EXPECT_NE(result.points[1].error.find("sink exploded"),
              std::string::npos)
        << result.points[1].error;
    // Blocks are delivered whole, so the error names the block that
    // held the 100th event rather than an exact index.
    const std::string block = "event block [0, "
        + std::to_string(TraceBuffer::kReplayBlock) + ")";
    EXPECT_NE(result.points[1].error.find(block), std::string::npos)
        << result.points[1].error;

    // The surviving point still matches a live serial run.
    const std::vector<Metric> serial = liveSerialMetrics(grid[0]);
    ASSERT_EQ(result.points[0].metrics.size(), serial.size());
    EXPECT_EQ(result.points[0].metrics[0].value, serial[0].value);
}

TEST(Sweep, RecordingFailurePoisonsOnlyItsGroup)
{
    std::vector<SweepPoint> grid;
    grid.push_back(
        cachePoint("good", tinyKey("compress", ExecMode::interp()), 1));
    TraceKey bogus = tinyKey("compress", ExecMode::interp());
    bogus.workload = "no-such-workload";
    grid.push_back(cachePoint("bad", bogus, 1));

    SweepEngine engine;
    const SweepResult result = engine.run(grid);

    EXPECT_TRUE(result.points[0].ok);
    EXPECT_FALSE(result.points[1].ok);
    EXPECT_NE(result.points[1].error.find("recording failed"),
              std::string::npos)
        << result.points[1].error;
}

TEST(Sweep, RecordsEachStreamOncePerProcess)
{
    const TraceKey key = tinyKey("db", ExecMode::interp());
    std::vector<SweepPoint> grid;
    for (const std::uint32_t assoc : {1u, 2u, 4u, 8u}) {
        grid.push_back(cachePoint(
            "assoc" + std::to_string(assoc), key, assoc));
    }

    SweepEngine engine;
    const SweepResult first = engine.run(grid);
    EXPECT_TRUE(first.allOk());
    EXPECT_EQ(first.traces.recordings, 1u);

    // A second sweep over the same stream is pure replay.
    const SweepResult second = engine.run(grid);
    EXPECT_TRUE(second.allOk());
    EXPECT_EQ(second.traces.recordings, 0u);
    EXPECT_EQ(second.traces.memoryHits, 1u);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(first.points[i].metrics[0].value,
                  second.points[i].metrics[0].value);
    }
}

TEST(Sweep, DiskCacheServesSecondProcess)
{
    TempDir dir("jrs_sweep_disk_cache");
    const TraceKey key = tinyKey("compress", ExecMode::jit());

    TraceCache writer(dir.path);
    const auto recorded = writer.get(key);
    EXPECT_EQ(writer.stats().recordings, 1u);
    ASSERT_NE(recorded->trace, nullptr);
    EXPECT_GT(recorded->trace->size(), 0u);

    // A fresh cache on the same directory stands in for a later
    // process: it must load, not re-record.
    TraceCache reader(dir.path);
    const auto loaded = reader.get(key);
    EXPECT_EQ(reader.stats().recordings, 0u);
    EXPECT_EQ(reader.stats().diskLoads, 1u);

    ASSERT_EQ(loaded->trace->size(), recorded->trace->size());
    EXPECT_EQ(loaded->result.exitValue, recorded->result.exitValue);
    EXPECT_EQ(loaded->result.totalEvents,
              recorded->result.totalEvents);
}

TEST(Sweep, TraceBufferDiskRoundTripIsLossless)
{
    TempDir dir("jrs_sweep_roundtrip");
    std::filesystem::create_directories(dir.path);
    const std::string path = dir.path + "/stream.jrstrace";

    const TraceKey key = tinyKey("compress", ExecMode::jit());
    const RecordedRun run = recordWorkload(key.toRunSpec());
    ASSERT_GT(run.trace->size(), 0u);

    run.trace->save(path);
    const TraceBuffer loaded = TraceBuffer::load(path);

    ASSERT_EQ(loaded.size(), run.trace->size());
    for (std::uint64_t i = 0; i < loaded.size(); ++i) {
        const TraceEvent a = run.trace->at(i);
        const TraceEvent b = loaded.at(i);
        ASSERT_EQ(a.pc, b.pc) << "event " << i;
        ASSERT_EQ(a.mem, b.mem) << "event " << i;
        ASSERT_EQ(a.target, b.target) << "event " << i;
        ASSERT_EQ(a.kind, b.kind) << "event " << i;
        ASSERT_EQ(a.phase, b.phase) << "event " << i;
        ASSERT_EQ(a.taken, b.taken) << "event " << i;
        ASSERT_EQ(a.memSize, b.memSize) << "event " << i;
        ASSERT_EQ(a.rd, b.rd) << "event " << i;
        ASSERT_EQ(a.rs1, b.rs1) << "event " << i;
        ASSERT_EQ(a.rs2, b.rs2) << "event " << i;
    }

    // Replaying the loaded copy gives the same model results as the
    // original stream.
    CacheSink fromOriginal(l1(2), l1(2));
    CacheSink fromDisk(l1(2), l1(2));
    run.trace->replay(fromOriginal);
    loaded.replay(fromDisk);
    EXPECT_EQ(fromOriginal.icache().stats().misses(),
              fromDisk.icache().stats().misses());
    EXPECT_EQ(fromOriginal.dcache().stats().misses(),
              fromDisk.dcache().stats().misses());
}

/**
 * Hides a sink's onEvents(): the TraceSink default then delivers one
 * virtual onEvent() per event, as replay did before blocks.
 */
class PerEventAdapter : public TraceSink {
  public:
    explicit PerEventAdapter(TraceSink &inner) : inner_(inner) {}
    void onEvent(const TraceEvent &ev) override { inner_.onEvent(ev); }
    void onFinish() override { inner_.onFinish(); }

  private:
    TraceSink &inner_;
};

std::vector<std::uint64_t>
cacheStats(const Cache &c)
{
    const CacheStats &s = c.stats();
    return {s.reads, s.writes, s.readMisses, s.writeMisses};
}

std::vector<std::uint64_t>
pipelineStats(const PipelineSim &p)
{
    std::vector<std::uint64_t> out{
        p.cycles(),         p.instructions(),   p.mispredicts(),
        p.condBranches(),   p.condMispredicts(), p.indirects(),
        p.indirectMispredicts()};
    for (const Cache *c : {&p.icache(), &p.dcache()}) {
        for (const std::uint64_t v : cacheStats(*c))
            out.push_back(v);
    }
    return out;
}

/** Replay @p run into a fresh sink from @p make twice, once in blocks
    and once event by event, and compare @p stats of the two. */
template <typename Make, typename Stats>
void
expectBlockReplayMatchesPerEvent(const RecordedRun &run, Make make,
                                 Stats stats)
{
    const auto blocked = make();
    const auto single = make();
    run.trace->replay(*blocked);
    PerEventAdapter adapter(*single);
    run.trace->replay(adapter);
    EXPECT_EQ(stats(*blocked), stats(*single));
}

TEST(Sweep, BlockReplayMatchesPerEventReplayForBatchedSinks)
{
    for (const ExecMode mode : {ExecMode::interp(), ExecMode::jit()}) {
        SCOPED_TRACE(mode.id());
        const RecordedRun run =
            recordWorkload(tinyKey("db", mode).toRunSpec());
        ASSERT_GT(run.trace->size(), 4 * TraceBuffer::kReplayBlock);

        expectBlockReplayMatchesPerEvent(
            run, [] { return std::make_unique<CacheSink>(l1(2), l1(4)); },
            [](const CacheSink &s) {
                std::vector<std::uint64_t> out = cacheStats(s.icache());
                for (const std::uint64_t v : cacheStats(s.dcache()))
                    out.push_back(v);
                return out;
            });
        expectBlockReplayMatchesPerEvent(
            run, [] { return std::make_unique<PredictorBank>(); },
            [](const PredictorBank &s) {
                std::vector<std::uint64_t> out{s.indirects(),
                                               s.btbMisses()};
                for (const PredictorResult &r : s.results())
                    out.push_back(r.condMispredicts);
                return out;
            });
        expectBlockReplayMatchesPerEvent(
            run,
            [] { return std::make_unique<PipelineSim>(PipelineConfig{}); },
            pipelineStats);
        expectBlockReplayMatchesPerEvent(
            run,
            [&] {
                return std::make_unique<obs::AttributedPipeline>(
                    PipelineConfig{}, run.methods);
            },
            [](const obs::AttributedPipeline &s) {
                obs::ReportSet set(obs::kPerfReportSchema);
                set.add("run", s.perf());
                return std::make_pair(pipelineStats(s.pipeline()),
                                      set.toJson());
            });
        expectBlockReplayMatchesPerEvent(
            run,
            [&] {
                return std::make_unique<prof::CctPipeline>(
                    PipelineConfig{}, run.methods);
            },
            [](const prof::CctPipeline &s) {
                obs::ReportSet set(prof::kCctSchema);
                set.add("run", s.cct());
                return std::make_pair(pipelineStats(s.pipeline()),
                                      set.toJson());
            });
        expectBlockReplayMatchesPerEvent(
            run,
            [&] {
                return std::make_unique<prof::SamplePipeline>(
                    PipelineConfig{}, run.methods);
            },
            [](const prof::SamplePipeline &s) {
                obs::ReportSet set(prof::kSampleSchema);
                set.add("run", s.sampler());
                return std::make_pair(pipelineStats(s.pipeline()),
                                      set.toJson());
            });
    }
}

TEST(Sweep, SuiteStreamsPackWithoutEscapes)
{
    // Every recorded address is below the end of the address map and
    // no event carries both mem and target, so each event takes one
    // 16-byte record and nothing spills to the escape table.
    for (const WorkloadInfo &w : allWorkloads()) {
        for (const ExecMode mode : {ExecMode::interp(), ExecMode::jit()}) {
            const RecordedRun run =
                recordWorkload(tinyKey(w.name, mode).toRunSpec());
            ASSERT_GT(run.trace->size(), 0u) << w.name;
            EXPECT_EQ(run.trace->memoryBytes(), 16 * run.trace->size())
                << w.name << "/" << mode.id();
        }
    }
}

TEST(Sweep, MalformedGridThrows)
{
    std::vector<SweepPoint> grid(1);
    grid[0].label = "empty";
    grid[0].key = tinyKey("compress", ExecMode::interp());
    SweepEngine engine;
    EXPECT_THROW(engine.run(grid), VmError);
}

/**
 * A finished sweep of @p grid's points, every one ok, carrying only an
 * exit value, @p exitOf(label): enough for a summariser to run its
 * checksum check.
 */
SweepResult
fabricated(const NamedGrid &grid,
           const std::function<double(const std::string &)> &exitOf)
{
    SweepResult r;
    for (const SweepPoint &p : grid.build()) {
        PointResult point;
        point.label = p.label;
        point.traceKey = p.key.str();
        point.ok = true;
        point.metrics.push_back({"exit_value", exitOf(p.label)});
        r.points.push_back(std::move(point));
    }
    return r;
}

TEST(PaperGrids, ChecksumDivergenceFailsTheFigure)
{
    for (const char *name : {"tab02", "paper"}) {
        const NamedGrid *grid = findGrid(name);
        ASSERT_NE(grid, nullptr) << name;
        std::ostringstream agreeing;
        EXPECT_TRUE(grid->summarise(
            fabricated(*grid, [](const std::string &) { return 7.0; }),
            agreeing))
            << name;
        EXPECT_NE(agreeing.str().find("Table 2"), std::string::npos)
            << name;

        // db's jit run ends with a different checksum than its interp
        // run: every table that compares the modes is refused.
        std::ostringstream diverging;
        ::testing::internal::CaptureStderr();
        const bool ok = grid->summarise(
            fabricated(*grid,
                       [db = std::string(name) + "/db/jit"](
                           const std::string &label) {
                           return label.rfind(db, 0) == 0 ? 8.0 : 7.0;
                       }),
            diverging);
        const std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_FALSE(ok) << name;
        EXPECT_NE(err.find("db: interp/JIT checksum divergence"),
                  std::string::npos)
            << name << ": " << err;
        EXPECT_EQ(diverging.str().find("Table 2"), std::string::npos)
            << name;
    }
}

TEST(PaperGrids, PaperSharesOneRecordingPerStream)
{
    // Every paper figure's points, and the paper grid that merges
    // them: 16 streams, one point per model on each, unique labels.
    std::size_t figurePoints = 0;
    for (const NamedGrid &g : allGrids()) {
        if (std::string(g.name) == "paper")
            break;
        figurePoints += g.build().size();
    }
    const std::vector<SweepPoint> paper = findGrid("paper")->build();
    std::set<std::string> keys, labels;
    for (const SweepPoint &p : paper) {
        keys.insert(p.key.str());
        EXPECT_TRUE(labels.insert(p.label).second) << p.label;
    }
    EXPECT_EQ(keys.size(), 2 * suite(true).size());
    EXPECT_LT(paper.size(), figurePoints);
}

} // namespace
} // namespace jrs::sweep

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "arch/cache/cache.h"
#include "obs/perf.h"
#include "vm/runtime/vm_error.h"

namespace jrs {
namespace {

TEST(Cache, ColdMissThenHit)
{
    Cache c({1024, 32, 1, true});
    EXPECT_FALSE(c.access(0x1000, false, Phase::Interpret));
    EXPECT_TRUE(c.access(0x1000, false, Phase::Interpret));
    EXPECT_TRUE(c.access(0x101f, false, Phase::Interpret));  // same line
    EXPECT_FALSE(c.access(0x1020, false, Phase::Interpret));  // next line
    EXPECT_EQ(c.stats().reads, 4u);
    EXPECT_EQ(c.stats().readMisses, 2u);
}

TEST(Cache, DirectMappedConflict)
{
    Cache c({1024, 32, 1, true});  // 32 sets
    const std::uint64_t a = 0x0000;
    const std::uint64_t b = a + 1024;  // same set, different tag
    EXPECT_FALSE(c.access(a, false, Phase::Interpret));
    EXPECT_FALSE(c.access(b, false, Phase::Interpret));
    EXPECT_FALSE(c.access(a, false, Phase::Interpret));  // evicted
}

TEST(Cache, TwoWayHoldsBothConflictingLines)
{
    Cache c({1024, 32, 2, true});
    const std::uint64_t a = 0x0000;
    const std::uint64_t b = a + 512;  // same set in a 16-set cache
    EXPECT_FALSE(c.access(a, false, Phase::Interpret));
    EXPECT_FALSE(c.access(b, false, Phase::Interpret));
    EXPECT_TRUE(c.access(a, false, Phase::Interpret));
    EXPECT_TRUE(c.access(b, false, Phase::Interpret));
}

TEST(Cache, LruEvictsLeastRecent)
{
    Cache c({256, 32, 2, true});  // 4 sets
    const std::uint64_t s = 0;    // set 0 lines: 0, 128, 256, ...
    c.access(s + 0 * 128, false, Phase::Interpret);    // A
    c.access(s + 1 * 128, false, Phase::Interpret);    // B
    c.access(s + 0 * 128, false, Phase::Interpret);    // touch A (MRU)
    c.access(s + 2 * 128, false, Phase::Interpret);    // C evicts B
    EXPECT_TRUE(c.probe(s + 0 * 128));
    EXPECT_FALSE(c.probe(s + 1 * 128));
    EXPECT_TRUE(c.probe(s + 2 * 128));
}

TEST(Cache, WriteAllocateFillsLine)
{
    Cache c({1024, 32, 1, true});
    EXPECT_FALSE(c.access(0x40, true, Phase::Interpret));
    EXPECT_TRUE(c.access(0x40, false, Phase::Interpret));
    EXPECT_EQ(c.stats().writeMisses, 1u);
}

TEST(Cache, WriteNoAllocateLeavesLineCold)
{
    Cache c({1024, 32, 1, false});
    EXPECT_FALSE(c.access(0x40, true, Phase::Interpret));
    EXPECT_FALSE(c.access(0x40, false, Phase::Interpret));
    EXPECT_EQ(c.stats().writeMisses, 1u);
    EXPECT_EQ(c.stats().readMisses, 1u);
}

TEST(Cache, PhaseSplitAccounting)
{
    Cache c({1024, 32, 1, true});
    c.access(0x0, false, Phase::Interpret);
    c.access(0x100, true, Phase::Translate);
    c.access(0x200, false, Phase::Translate);
    EXPECT_EQ(c.phaseStats(Phase::Interpret).reads, 1u);
    EXPECT_EQ(c.phaseStats(Phase::Translate).writes, 1u);
    EXPECT_EQ(c.phaseStats(Phase::Translate).reads, 1u);
    const CacheStats rest = c.statsExcluding(Phase::Translate);
    EXPECT_EQ(rest.reads, 1u);
    EXPECT_EQ(rest.writes, 0u);
    EXPECT_EQ(c.stats().accesses(), 3u);
}

TEST(Cache, StatsHelpers)
{
    CacheStats s;
    s.reads = 80;
    s.writes = 20;
    s.readMisses = 5;
    s.writeMisses = 15;
    EXPECT_EQ(s.accesses(), 100u);
    EXPECT_EQ(s.misses(), 20u);
    EXPECT_DOUBLE_EQ(s.missRate(), 0.2);
    EXPECT_DOUBLE_EQ(s.writeMissFraction(), 0.75);
}

TEST(Cache, RejectsBadConfig)
{
    EXPECT_THROW(Cache({1000, 32, 1, true}), VmError);  // not pow2
    EXPECT_THROW(Cache({1024, 32, 0, true}), VmError);  // zero assoc
    EXPECT_THROW(Cache({1024, 24, 1, true}), VmError);  // bad line
}

TEST(Cache, ResetStats)
{
    Cache c({1024, 32, 1, true});
    c.access(0x0, false, Phase::Interpret);
    c.resetStats();
    EXPECT_EQ(c.stats().accesses(), 0u);
    EXPECT_EQ(c.phaseStats(Phase::Interpret).accesses(), 0u);
    // Contents survive a stats reset.
    EXPECT_TRUE(c.access(0x0, false, Phase::Interpret));
}

/**
 * Property: for a fixed reference stream and set count, LRU misses are
 * non-increasing in associativity (the stack-inclusion property).
 */
class AssocSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(AssocSweep, LruInclusionProperty)
{
    const std::uint32_t assoc = GetParam();
    // Keep the set count constant: size scales with assoc.
    Cache small({256u * assoc, 32, assoc, true});
    Cache bigger({256u * assoc * 2, 32, assoc * 2, true});
    std::uint64_t seed = 99;
    std::uint64_t misses_small = 0, misses_big = 0;
    for (int i = 0; i < 20000; ++i) {
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t addr = (seed >> 30) & 0x3fff;
        if (!small.access(addr, false, Phase::Interpret))
            ++misses_small;
        if (!bigger.access(addr, false, Phase::Interpret))
            ++misses_big;
    }
    EXPECT_LE(misses_big, misses_small);
}

INSTANTIATE_TEST_SUITE_P(Assocs, AssocSweep,
                         ::testing::Values(1u, 2u, 4u));

/** Textbook true-LRU: per set, a variable-length MRU-first list. */
class ReferenceLru {
  public:
    explicit ReferenceLru(CacheConfig cfg)
        : cfg_(cfg), sets_(cfg.numSets()) {}

    bool access(std::uint64_t addr, bool is_write) {
        const std::uint64_t line = addr / cfg_.lineBytes;
        std::vector<std::uint64_t> &set = sets_[line % sets_.size()];
        const auto it = std::find(set.begin(), set.end(), line);
        if (it != set.end()) {
            set.erase(it);
            set.insert(set.begin(), line);
            return true;
        }
        if (is_write && !cfg_.writeAllocate)
            return false;
        set.insert(set.begin(), line);
        if (set.size() > cfg_.assoc)
            set.pop_back();
        return false;
    }

    bool contains(std::uint64_t addr) const {
        const std::uint64_t line = addr / cfg_.lineBytes;
        const std::vector<std::uint64_t> &set = sets_[line % sets_.size()];
        return std::find(set.begin(), set.end(), line) != set.end();
    }

  private:
    CacheConfig cfg_;
    std::vector<std::vector<std::uint64_t>> sets_;
};

/**
 * The flat MRU-first tag array matches a reference LRU access for
 * access: the four geometries of the host benchmark's sweep grid plus
 * a write-no-allocate cache, on a random stream of conflicting lines
 * spread over the whole simulated address map.
 */
struct Geometry {
    CacheConfig cfg;
};

std::string
geometryName(const CacheConfig &c)
{
    return std::to_string(c.sizeBytes / 1024) + "k"
        + std::to_string(c.assoc) + "w" + std::to_string(c.lineBytes)
        + "b" + (c.writeAllocate ? "" : "_noalloc");
}

// gtest would print CacheConfig's raw bytes, padding included, so the
// listed test names would differ from build to build.
void
PrintTo(const Geometry &g, std::ostream *os)
{
    *os << geometryName(g.cfg);
}

class LruReference : public ::testing::TestWithParam<Geometry> {};

TEST_P(LruReference, MatchesReferenceLruAccessForAccess)
{
    const CacheConfig cfg = GetParam().cfg;
    Cache cache(cfg);
    ReferenceLru ref(cfg);
    std::mt19937_64 rng(0x5eed + cfg.sizeBytes + cfg.assoc);
    // A pool four times the cache's line count keeps every set under
    // pressure; segment bases make tags differ in their high bits.
    const std::uint32_t lines = cfg.sizeBytes / cfg.lineBytes;
    std::vector<std::uint64_t> pool(4 * lines);
    for (std::uint64_t &a : pool)
        a = (rng() % 9 + 1) * 0x1000'0000ull + rng() % 0x4'0000;
    std::uint64_t misses = 0, writes = 0;
    for (int i = 0; i < 100000; ++i) {
        // Mostly a hot eighth of the pool, so hits and LRU reordering
        // are common, with cold accesses mixed in.
        const std::size_t pick = rng() % 4 != 0
            ? rng() % (pool.size() / 8)
            : rng() % pool.size();
        const std::uint64_t addr = pool[pick] + rng() % cfg.lineBytes;
        const bool is_write = rng() % 4 == 0;
        const bool want = ref.access(addr, is_write);
        ASSERT_EQ(cache.access(addr, is_write, Phase::Interpret), want)
            << "access " << i << " addr 0x" << std::hex << addr;
        misses += want ? 0 : 1;
        writes += is_write ? 1 : 0;
    }
    EXPECT_EQ(cache.stats().accesses(), 100000u);
    EXPECT_EQ(cache.stats().writes, writes);
    EXPECT_EQ(cache.stats().misses(), misses);
    // The final contents agree line for line.
    for (const std::uint64_t a : pool)
        EXPECT_EQ(cache.probe(a), ref.contains(a)) << std::hex << a;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LruReference,
    ::testing::Values(Geometry{{8 * 1024, 32, 1, true}},
                      Geometry{{8 * 1024, 32, 4, true}},
                      Geometry{{16 * 1024, 64, 2, true}},
                      Geometry{{64 * 1024, 32, 2, true}},
                      Geometry{{8 * 1024, 32, 4, false}}),
    [](const ::testing::TestParamInfo<Geometry> &info) {
        return geometryName(info.param.cfg);
    });

/** Property: accesses are conserved across phase counters. */
class PhaseConservation
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PhaseConservation, SumOfPhasesEqualsTotal)
{
    Cache c({4096, GetParam(), 2, true});
    std::uint64_t seed = 5;
    for (int i = 0; i < 5000; ++i) {
        seed = seed * 2862933555777941757ull + 3037000493ull;
        c.access((seed >> 20) & 0xffff, (seed & 1) != 0,
                 static_cast<Phase>((seed >> 8) & 3));
    }
    CacheStats sum;
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        const CacheStats &ps = c.phaseStats(static_cast<Phase>(p));
        sum.reads += ps.reads;
        sum.writes += ps.writes;
        sum.readMisses += ps.readMisses;
        sum.writeMisses += ps.writeMisses;
    }
    EXPECT_EQ(sum.reads, c.stats().reads);
    EXPECT_EQ(sum.writes, c.stats().writes);
    EXPECT_EQ(sum.readMisses, c.stats().readMisses);
    EXPECT_EQ(sum.writeMisses, c.stats().writeMisses);
}

INSTANTIATE_TEST_SUITE_P(LineSizes, PhaseConservation,
                         ::testing::Values(16u, 32u, 64u, 128u));

TEST(CacheSink, RoutesIAndDAccesses)
{
    CacheSink sink({1024, 32, 1, true}, {1024, 32, 1, true});
    TraceEvent ev;
    ev.pc = 0x100;
    ev.kind = NKind::IntAlu;
    sink.onEvent(ev);
    EXPECT_EQ(sink.icache().stats().accesses(), 1u);
    EXPECT_EQ(sink.dcache().stats().accesses(), 0u);

    ev.kind = NKind::Load;
    ev.mem = 0x4000;
    sink.onEvent(ev);
    EXPECT_EQ(sink.dcache().stats().reads, 1u);

    ev.kind = NKind::Store;
    sink.onEvent(ev);
    EXPECT_EQ(sink.dcache().stats().writes, 1u);
    EXPECT_EQ(sink.icache().stats().accesses(), 3u);
}

/** A split L1 with a Figure 6 timeline of @p window events. */
obs::AttributedCaches
timeline(std::uint64_t window)
{
    obs::PerfOptions popt;
    popt.timelineWindow = window;
    return obs::AttributedCaches({1024, 32, 1, true},
                                 {1024, 32, 1, true},
                                 std::make_shared<const obs::MethodMap>(),
                                 popt);
}

std::uint64_t
bad(const obs::IntervalSample &s, PerfKind k)
{
    return s.bad[static_cast<std::size_t>(k)];
}

TEST(TimeSeries, WindowsPartitionTheRun)
{
    obs::AttributedCaches ts = timeline(100);
    TraceEvent ev;
    ev.kind = NKind::Load;
    for (int i = 0; i < 250; ++i) {
        ev.pc = 0x100 + (i % 3) * 0x1000;
        ev.mem = 0x8000 + i * 64;
        ts.onEvent(ev);
    }
    ts.onFinish();
    const auto &samples = ts.perf().timeline();
    ASSERT_EQ(samples.size(), 3u);  // 100 + 100 + 50
    std::uint64_t d_total = 0;
    for (const obs::IntervalSample &s : samples) {
        d_total += bad(s, PerfKind::DCacheLoad)
            + bad(s, PerfKind::DCacheStore);
    }
    EXPECT_EQ(d_total, ts.caches().dcache().stats().misses());
}

TEST(TimeSeries, TranslatePhaseCounted)
{
    obs::AttributedCaches ts = timeline(10);
    TraceEvent ev;
    ev.kind = NKind::Store;
    ev.phase = Phase::Translate;
    ev.mem = 0x9000;
    for (int i = 0; i < 10; ++i)
        ts.onEvent(ev);
    // A window closes before the event after it, or at the end.
    ts.onFinish();
    const auto &samples = ts.perf().timeline();
    ASSERT_EQ(samples.size(), 1u);
    EXPECT_EQ(samples[0].translateEvents, 10u);
    EXPECT_GE(bad(samples[0], PerfKind::DCacheStore), 1u);
}

} // namespace
} // namespace jrs

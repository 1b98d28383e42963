#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "arch/cache/cache.h"
#include "arch/mix/instruction_mix.h"
#include "isa/trace_buffer.h"
#include "isa/trace_io.h"
#include "vm_test_util.h"

namespace jrs {
namespace {

/**
 * Temp path helper; removed at scope exit. The name carries the test
 * name and pid, so tests run in parallel never share a file.
 */
struct TempFile {
    TempFile()
        : path(std::string(::testing::TempDir()) + "jrs_trace_"
               + ::testing::UnitTest::GetInstance()
                     ->current_test_info()->name()
               + "_" + std::to_string(::getpid()) + ".bin") {}
    ~TempFile() { std::remove(path.c_str()); }
    std::string path;
};

TEST(TraceIo, RoundTripsEveryField)
{
    TempFile tmp;
    TraceEvent in;
    in.pc = 0x1234'5678'9abcull;
    in.mem = 0xdead'beefull;
    in.target = 0x4000'0040ull;
    in.kind = NKind::IndirectCall;
    in.phase = Phase::Translate;
    in.taken = true;
    in.memSize = 8;
    in.rd = 3;
    in.rs1 = 17;
    in.rs2 = kNoReg;
    {
        TraceFileWriter w(tmp.path);
        w.onEvent(in);
        w.onFinish();
        EXPECT_EQ(w.eventsWritten(), 1u);
    }
    RecordingSink rec;
    EXPECT_EQ(replayTraceFile(tmp.path, rec), 1u);
    ASSERT_EQ(rec.events().size(), 1u);
    const TraceEvent &out = rec.events()[0];
    EXPECT_EQ(out.pc, in.pc);
    EXPECT_EQ(out.mem, in.mem);
    EXPECT_EQ(out.target, in.target);
    EXPECT_EQ(out.kind, in.kind);
    EXPECT_EQ(out.phase, in.phase);
    EXPECT_EQ(out.taken, in.taken);
    EXPECT_EQ(out.memSize, in.memSize);
    EXPECT_EQ(out.rd, in.rd);
    EXPECT_EQ(out.rs1, in.rs1);
    EXPECT_EQ(out.rs2, in.rs2);
}

TEST(TraceIo, RecordedRunReplaysToIdenticalAnalysis)
{
    TempFile tmp;
    const Program prog = test::makeProgram([](MethodBuilder &m) {
        m.locals(2);
        m.iconst(40).istore(1);
        Label loop = m.newLabel(), done = m.newLabel();
        m.bind(loop);
        m.iload(1).ifle(done);
        m.iinc(1, -1);
        m.gotoL(loop);
        m.bind(done);
        m.iconst(0).ireturn();
    });

    // Live analysis + recording in one run.
    InstructionMix live_mix;
    CacheSink live_cache({4096, 32, 2, true}, {4096, 32, 2, true});
    {
        TraceFileWriter writer(tmp.path);
        MultiSink multi;
        multi.add(&live_mix);
        multi.add(&live_cache);
        multi.add(&writer);
        (void)test::runProgram(prog, 0,
                               std::make_shared<NeverCompilePolicy>(),
                               &multi);
    }

    // Offline replay must reproduce the analysis exactly.
    InstructionMix replay_mix;
    CacheSink replay_cache({4096, 32, 2, true}, {4096, 32, 2, true});
    MultiSink multi;
    multi.add(&replay_mix);
    multi.add(&replay_cache);
    const std::uint64_t n = replayTraceFile(tmp.path, multi);
    EXPECT_EQ(n, live_mix.total());
    EXPECT_EQ(replay_mix.total(), live_mix.total());
    for (std::size_t k = 0; k < kNumNKinds; ++k) {
        EXPECT_EQ(replay_mix.count(static_cast<NKind>(k)),
                  live_mix.count(static_cast<NKind>(k)));
    }
    EXPECT_EQ(replay_cache.icache().stats().misses(),
              live_cache.icache().stats().misses());
    EXPECT_EQ(replay_cache.dcache().stats().misses(),
              live_cache.dcache().stats().misses());
    EXPECT_EQ(replay_cache.dcache().stats().writeMisses,
              live_cache.dcache().stats().writeMisses);
}

TEST(TraceIo, RejectsMissingFile)
{
    RecordingSink rec;
    EXPECT_THROW(replayTraceFile("/nonexistent/path/x.bin", rec),
                 VmError);
}

TEST(TraceIo, RejectsGarbageFile)
{
    TempFile tmp;
    std::FILE *f = std::fopen(tmp.path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a trace", f);
    std::fclose(f);
    RecordingSink rec;
    EXPECT_THROW(replayTraceFile(tmp.path, rec), VmError);
}

TEST(TraceIo, EmptyTraceReplaysZeroEvents)
{
    TempFile tmp;
    {
        TraceFileWriter w(tmp.path);
        w.onFinish();
    }
    CountingSink count;
    EXPECT_EQ(replayTraceFile(tmp.path, count), 0u);
    EXPECT_EQ(count.total(), 0u);
}

/** Field-by-field equality; TraceEvent has no operator==. */
::testing::AssertionResult
sameEvent(const TraceEvent &a, const TraceEvent &b)
{
    if (a.pc == b.pc && a.mem == b.mem && a.target == b.target
        && a.kind == b.kind && a.phase == b.phase && a.taken == b.taken
        && a.memSize == b.memSize && a.rd == b.rd && a.rs1 == b.rs1
        && a.rs2 == b.rs2)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
        << std::hex << "pc 0x" << a.pc << "/0x" << b.pc << " mem 0x"
        << a.mem << "/0x" << b.mem << " target 0x" << a.target << "/0x"
        << b.target << std::dec << " kind "
        << static_cast<int>(a.kind) << "/" << static_cast<int>(b.kind);
}

/** True when @p ev fits one packed TraceBuffer record. */
bool
packs(const TraceEvent &ev)
{
    constexpr std::uint64_t kMax32 = 0xffff'ffffull;
    return ev.pc <= kMax32 && ev.mem <= kMax32 && ev.target <= kMax32
        && (ev.mem == 0 || ev.target == 0);
}

/**
 * Events at the edges of the packed record: every NKind x Phase with
 * in-range fields, fields at 2^32 - 1 (packed) and 2^32 (escaped),
 * mem and target both set, a taken target-only branch, and register
 * ids at both ends.
 */
std::vector<TraceEvent>
edgeEvents()
{
    constexpr std::uint64_t kMax32 = 0xffff'ffffull;
    std::vector<TraceEvent> out;
    // Nop is the one kind after the kNumNKinds counted ones.
    for (std::size_t k = 0; k <= kNumNKinds; ++k) {
        for (std::size_t p = 0; p < kNumPhases; ++p) {
            TraceEvent ev;
            ev.pc = 0x1000'0000 + 4 * out.size();
            ev.kind = static_cast<NKind>(k);
            ev.phase = static_cast<Phase>(p);
            if (isMemory(ev.kind)) {
                ev.mem = 0x5000'0000 + 8 * out.size();
                ev.memSize = static_cast<std::uint8_t>(1u << (p % 4));
            }
            if (isControl(ev.kind)) {
                ev.target = 0x3000'0000 + 4 * out.size();
                ev.taken = ev.kind != NKind::Branch || p % 2 == 0;
            }
            ev.rd = static_cast<Reg>(p);
            ev.rs1 = kNoReg;
            ev.rs2 = static_cast<Reg>(31 - k);
            out.push_back(ev);
        }
    }
    TraceEvent ev;
    ev.kind = NKind::Load;
    ev.pc = kMax32;
    ev.mem = kMax32;
    ev.memSize = 8;
    out.push_back(ev);  // largest packed pc and mem
    ev.pc = kMax32 + 1;
    out.push_back(ev);  // escaped: pc
    ev.pc = 0x1000'0000;
    ev.mem = kMax32 + 1;
    out.push_back(ev);  // escaped: mem

    ev = TraceEvent{};
    ev.kind = NKind::Branch;
    ev.pc = 0x1000'0010;
    ev.target = kMax32;
    ev.taken = true;
    out.push_back(ev);  // target-only with taken, packed
    ev.target = kMax32 + 1;
    out.push_back(ev);  // escaped: target
    ev.target = 0x1000'0020;
    ev.mem = 0x5000'0000;
    out.push_back(ev);  // escaped: mem and target both set

    ev = TraceEvent{};
    ev.pc = ev.mem = ev.target = ~0ull;
    ev.kind = NKind::IndirectCall;
    ev.phase = Phase::Gc;
    ev.taken = true;
    ev.memSize = 0xff;
    ev.rd = ev.rs1 = ev.rs2 = 0;
    out.push_back(ev);  // escaped: everything at its maximum

    ev = TraceEvent{};  // all-default: registers kNoReg, no address
    out.push_back(ev);
    return out;
}

/** Edge events repeated past three replay blocks, ending mid-block. */
std::vector<TraceEvent>
edgeStream()
{
    const std::vector<TraceEvent> edges = edgeEvents();
    std::vector<TraceEvent> out;
    while (out.size() < 3 * TraceBuffer::kReplayBlock + 7)
        out.insert(out.end(), edges.begin(), edges.end());
    return out;
}

TEST(TraceBuffer, PackedStoreIsLosslessForEdgeEvents)
{
    const std::vector<TraceEvent> events = edgeStream();
    std::size_t escapes = 0;
    for (const TraceEvent &ev : events)
        escapes += packs(ev) ? 0 : 1;
    ASSERT_GT(escapes, 0u);
    const std::vector<TraceEvent> edges = edgeEvents();
    EXPECT_EQ(std::count_if(edges.begin(), edges.end(),
                            [](const TraceEvent &e) { return !packs(e); }),
              5);

    TraceBuffer buf;
    for (const TraceEvent &ev : events)
        buf.onEvent(ev);
    ASSERT_EQ(buf.size(), events.size());
    EXPECT_EQ(buf.memoryBytes(),
              16 * events.size() + sizeof(TraceEvent) * escapes);

    for (std::size_t i = 0; i < events.size(); ++i)
        ASSERT_TRUE(sameEvent(buf.at(i), events[i])) << "at(" << i << ")";

    RecordingSink replayed;
    EXPECT_EQ(buf.replay(replayed), events.size());
    ASSERT_EQ(replayed.events().size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
        ASSERT_TRUE(sameEvent(replayed.events()[i], events[i]))
            << "replay " << i;
    }

    // save() writes plain JRSTRACE v1: the file reader sees the same
    // events, and load() rebuilds the same packed store.
    TempFile tmp;
    buf.save(tmp.path);
    RecordingSink fromFile;
    EXPECT_EQ(replayTraceFile(tmp.path, fromFile), events.size());
    const TraceBuffer loaded = TraceBuffer::load(tmp.path);
    ASSERT_EQ(loaded.size(), events.size());
    EXPECT_EQ(loaded.memoryBytes(), buf.memoryBytes());
    for (std::size_t i = 0; i < events.size(); ++i) {
        ASSERT_TRUE(sameEvent(fromFile.events()[i], events[i]))
            << "file " << i;
        ASSERT_TRUE(sameEvent(loaded.at(i), events[i])) << "load " << i;
    }

    buf.clear();
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(buf.memoryBytes(), 0u);
    EXPECT_THROW(buf.at(0), VmError);
}

/** Logs every onEvents() block and the onFinish() call. */
class BlockLog : public TraceSink {
  public:
    BlockLog(std::vector<std::string> &log, std::string name)
        : log_(log), name_(std::move(name)) {}

    void onEvent(const TraceEvent &) override {
        log_.push_back(name_ + " single");
    }
    void onEvents(const TraceEvent *evs, std::size_t n) override {
        log_.push_back(name_ + " " + std::to_string(evs[0].pc) + "+"
                       + std::to_string(n));
    }
    void onFinish() override { log_.push_back(name_ + " finish"); }

  private:
    std::vector<std::string> &log_;
    std::string name_;
};

TEST(TraceBuffer, ReplayDeliversWholeBlocksSinkMajor)
{
    constexpr std::size_t kBlock = TraceBuffer::kReplayBlock;
    TraceBuffer buf;
    for (std::size_t i = 0; i < 2 * kBlock + 3; ++i) {
        TraceEvent ev;
        ev.pc = i;
        buf.onEvent(ev);
    }
    std::vector<std::string> log;
    BlockLog a(log, "a"), b(log, "b");
    MultiSink multi;
    multi.add(&a);
    multi.add(&b);
    buf.replay(multi);

    // Full blocks then the remainder, each seen by every child in
    // registration order before the next block; onFinish once, last.
    const std::string n = std::to_string(kBlock);
    const std::string two = std::to_string(2 * kBlock);
    const std::vector<std::string> want{
        "a 0+" + n,         "b 0+" + n,         "a " + n + "+" + n,
        "b " + n + "+" + n, "a " + two + "+3", "b " + two + "+3",
        "a finish",         "b finish"};
    EXPECT_EQ(log, want);
}

} // namespace
} // namespace jrs

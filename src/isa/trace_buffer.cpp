#include "isa/trace_buffer.h"

#include <cstddef>
#include <cstdio>
#include <cstring>

#include "vm/runtime/vm_error.h"

namespace jrs {

namespace {

/** Disk-I/O staging: pack/unpack this many records per fwrite/fread. */
constexpr std::size_t kStageEvents = 64 * 1024;

/** The seven byte fields of a TraceEvent, copied as one run. */
constexpr std::size_t kTailOffset = offsetof(TraceEvent, kind);
constexpr std::size_t kTailBytes = 7;
static_assert(offsetof(TraceEvent, phase) == kTailOffset + 1
              && offsetof(TraceEvent, taken) == kTailOffset + 2
              && offsetof(TraceEvent, memSize) == kTailOffset + 3
              && offsetof(TraceEvent, rd) == kTailOffset + 4
              && offsetof(TraceEvent, rs1) == kTailOffset + 5
              && offsetof(TraceEvent, rs2) == kTailOffset + kTailBytes - 1,
              "TraceEvent byte fields must be contiguous, kind first");
static_assert(TraceBuffer::kChunkEvents % TraceBuffer::kReplayBlock == 0,
              "replay blocks must not straddle chunks");

constexpr std::uint64_t kU32Max = 0xffff'ffffull;

} // namespace

void
TraceBuffer::decodeInto(const Record &r, TraceEvent &ev) const
{
    if ((r.flags & kEscape) != 0) [[unlikely]] {
        ev = escapes_[(std::uint64_t{r.pc} << 32) | r.addr];
        return;
    }
    // Branch-free split of the one stored address into mem / target.
    const std::uint64_t addr = r.addr;
    const std::uint64_t toTarget =
        0 - static_cast<std::uint64_t>(r.flags & kAddrIsTarget);
    ev.pc = r.pc;
    ev.mem = addr & ~toTarget;
    ev.target = addr & toTarget;
    std::memcpy(reinterpret_cast<unsigned char *>(&ev) + kTailOffset,
                r.tail, kTailBytes);
}

void
TraceBuffer::decodeRange(std::uint64_t first, std::size_t n,
                         TraceEvent *out) const
{
    const Record *rec =
        chunks_[first / kChunkEvents].get() + first % kChunkEvents;
    for (std::size_t i = 0; i < n; ++i)
        decodeInto(rec[i], out[i]);
}

void
TraceBuffer::onEvent(const TraceEvent &ev)
{
    const std::size_t chunk = count_ / kChunkEvents;
    if (chunk == chunks_.size()) {
        // for_overwrite: records are written before any read, so
        // skipping value-initialization saves a memset per chunk.
        chunks_.push_back(
            std::make_unique_for_overwrite<Record[]>(kChunkEvents));
    }
    Record &r = chunks_[chunk][count_ % kChunkEvents];
    std::memcpy(r.tail,
                reinterpret_cast<const unsigned char *>(&ev) + kTailOffset,
                kTailBytes);
    const bool fits = ev.pc <= kU32Max && ev.mem <= kU32Max
        && ev.target <= kU32Max && (ev.mem == 0 || ev.target == 0);
    if (fits) [[likely]] {
        r.pc = static_cast<std::uint32_t>(ev.pc);
        r.addr = static_cast<std::uint32_t>(ev.mem | ev.target);
        r.flags = ev.target != 0 ? kAddrIsTarget : 0;
    } else {
        const std::uint64_t slot = escapes_.size();
        escapes_.push_back(ev);
        r.pc = static_cast<std::uint32_t>(slot >> 32);
        r.addr = static_cast<std::uint32_t>(slot);
        r.flags = kEscape;
    }
    ++count_;
}

TraceEvent
TraceBuffer::at(std::uint64_t index) const
{
    if (index >= count_)
        throw VmError("TraceBuffer index out of range");
    TraceEvent ev;
    decodeRange(index, 1, &ev);
    return ev;
}

std::uint64_t
TraceBuffer::replay(TraceSink &sink) const
{
    // L1-resident staging: each block is decoded once and handed to
    // the sink whole, so a fan-out reads it sink-major from cache.
    alignas(64) TraceEvent block[kReplayBlock];
    for (std::uint64_t first = 0; first < count_; first += kReplayBlock) {
        const std::size_t n = count_ - first < kReplayBlock
            ? static_cast<std::size_t>(count_ - first)
            : kReplayBlock;
        decodeRange(first, n, block);
        sink.onEvents(block, n);
    }
    sink.onFinish();
    return count_;
}

void
TraceBuffer::save(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        throw VmError("cannot open trace file for writing: " + path);
    std::uint8_t header[kTraceHeaderBytes];
    encodeTraceHeader(header);
    bool ok = std::fwrite(header, 1, sizeof(header), f) == sizeof(header);

    const auto stage =
        std::make_unique<std::uint8_t[]>(kStageEvents
                                         * kTraceRecordBytes);
    for (std::uint64_t base = 0; ok && base < count_;
         base += kStageEvents) {
        const std::uint64_t n =
            count_ - base < kStageEvents ? count_ - base : kStageEvents;
        for (std::uint64_t i = 0; i < n; ++i)
            encodeTraceRecord(at(base + i),
                              stage.get() + i * kTraceRecordBytes);
        const std::size_t bytes = n * kTraceRecordBytes;
        ok = std::fwrite(stage.get(), 1, bytes, f) == bytes;
    }
    if (std::fclose(f) != 0)
        ok = false;
    if (!ok)
        throw VmError("trace write failed: " + path);
}

TraceBuffer
TraceBuffer::load(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        throw VmError("cannot open trace file: " + path);
    std::uint8_t header[kTraceHeaderBytes];
    if (std::fread(header, 1, sizeof(header), f) != sizeof(header)) {
        std::fclose(f);
        throw VmError("not a jrs trace file: " + path);
    }
    const std::string err = checkTraceHeader(header);
    if (!err.empty()) {
        std::fclose(f);
        throw VmError("cannot load " + path + ": " + err);
    }
    TraceBuffer buf;
    const auto stage =
        std::make_unique<std::uint8_t[]>(kStageEvents
                                         * kTraceRecordBytes);
    for (;;) {
        const std::size_t got = std::fread(
            stage.get(), 1, kStageEvents * kTraceRecordBytes, f);
        // Partial records at EOF are discarded, as in replayTraceFile.
        const std::size_t n = got / kTraceRecordBytes;
        for (std::size_t i = 0; i < n; ++i)
            buf.onEvent(decodeTraceRecord(stage.get()
                                          + i * kTraceRecordBytes));
        if (got < kStageEvents * kTraceRecordBytes)
            break;
    }
    std::fclose(f);
    return buf;
}

void
TraceBuffer::clear()
{
    chunks_.clear();
    escapes_.clear();
    count_ = 0;
}

} // namespace jrs

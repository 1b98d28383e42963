/**
 * @file
 * In-memory recording of a dynamic native stream.
 *
 * TraceBuffer is the record-once/replay-many primitive behind the
 * sweep engine: a TraceSink that appends every event and replays the
 * stream into any number of downstream sinks, any number of times.
 *
 * Events are held as private 16-byte records, half a TraceEvent: a
 * 32-bit pc, one 32-bit address (the event's mem or its target — the
 * simulated address map ends at 0xA000'0000 and no event carries
 * both), the seven byte fields, and a flag byte. An event that does
 * not fit (a field at or above 2^32, or both mem and target set) is
 * kept whole in a side table and its record points there, so the
 * store is lossless for any input. Replay decodes blocks of
 * kReplayBlock events into a cache-resident staging array and hands
 * each block to TraceSink::onEvents(). The JRSTRACE record codec
 * (trace_io.h) is applied only at the disk boundary in save()/load().
 *
 * Storage is chunked so multi-hundred-MB streams grow without
 * reallocation spikes. A fully recorded buffer is immutable in
 * practice; replay() and at() are const and safe to call concurrently
 * from many threads.
 */
#ifndef JRS_ISA_TRACE_BUFFER_H
#define JRS_ISA_TRACE_BUFFER_H

#include <memory>
#include <string>
#include <vector>

#include "isa/trace_io.h"

namespace jrs {

/** Growable packed event store; see file comment. */
class TraceBuffer : public TraceSink {
  public:
    /** Events per storage chunk (2 MiB each). */
    static constexpr std::size_t kChunkEvents = 128 * 1024;

    /** Events per onEvents() block during replay (16 KiB staged). */
    static constexpr std::size_t kReplayBlock = 512;

    TraceBuffer() = default;

    // Chunks are unique_ptrs; moves are cheap, copies are disabled to
    // keep giant streams from being duplicated by accident.
    TraceBuffer(TraceBuffer &&) = default;
    TraceBuffer &operator=(TraceBuffer &&) = default;
    TraceBuffer(const TraceBuffer &) = delete;
    TraceBuffer &operator=(const TraceBuffer &) = delete;

    /** Append one event (TraceSink). */
    void onEvent(const TraceEvent &ev) override;

    /** Number of recorded events. */
    std::uint64_t size() const { return count_; }

    /** True when no events have been recorded. */
    bool empty() const { return count_ == 0; }

    /** Bytes of event storage currently held in memory. */
    std::uint64_t memoryBytes() const {
        return count_ * sizeof(Record)
            + escapes_.size() * sizeof(TraceEvent);
    }

    /** Decode event @p index (bounds-checked; throws VmError). */
    TraceEvent at(std::uint64_t index) const;

    /**
     * Deliver every event to @p sink in recorded order, in blocks of
     * at most kReplayBlock through onEvents(), then call onFinish().
     * @return the number of events delivered.
     */
    std::uint64_t replay(TraceSink &sink) const;

    /** Write the stream as a JRSTRACE file; throws VmError on I/O. */
    void save(const std::string &path) const;

    /**
     * Read a JRSTRACE file recorded by save() (or TraceFileWriter).
     * Throws VmError on missing file, bad magic, or version mismatch.
     */
    static TraceBuffer load(const std::string &path);

    /** Drop all events and storage. */
    void clear();

  private:
    /** One stored event; see file comment. */
    struct Record {
        std::uint32_t pc;
        std::uint32_t addr;       ///< mem or target; escape index
        std::uint8_t tail[7];     ///< TraceEvent kind .. rs2, verbatim
        std::uint8_t flags;       ///< kAddrIsTarget | kEscape
    };
    static_assert(sizeof(Record) == 16);

    static constexpr std::uint8_t kAddrIsTarget = 1;
    static constexpr std::uint8_t kEscape = 2;

    void decodeInto(const Record &r, TraceEvent &ev) const;

    /** Decode events [first, first + n) of one chunk into @p out. */
    void decodeRange(std::uint64_t first, std::size_t n,
                     TraceEvent *out) const;

    std::vector<std::unique_ptr<Record[]>> chunks_;
    /** Events that do not fit a Record, in recorded order. */
    std::vector<TraceEvent> escapes_;
    std::uint64_t count_ = 0;
};

} // namespace jrs

#endif // JRS_ISA_TRACE_BUFFER_H

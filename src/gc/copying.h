/**
 * @file
 * Semispace copying collector (Cheney scan).
 *
 * The arena is split in half; the mutator bump-allocates in one space
 * and each collection evacuates survivors contiguously into the other,
 * then clears the evacuated from-space (the heap's bump path expects
 * zero past the cursor) and flips the heap's allocation window.
 * Forwarding is kept in a C++-side map (from-offset -> to-offset) so
 * object lockwords — which carry live thin-lock state — move with the
 * object bytes instead of being clobbered by forwarding pointers.
 *
 * Addresses change on every collection, so raw arena hashes are
 * meaningless here; equivalence with the other collectors is
 * established through the relocation-independent live digest
 * (gc/live_digest.h).
 */
#ifndef JRS_GC_COPYING_H
#define JRS_GC_COPYING_H

#include "gc/collector.h"

namespace jrs::gc {

/** See file comment. */
class CopyingCollector : public Collector {
  public:
    /**
     * @param capacity Heap capacity; each semispace is half of it.
     * The engine must restrict the heap's allocation window to the
     * first space before the first mutator allocation (spaceLimit()).
     */
    explicit CopyingCollector(std::size_t capacity)
        : half_(capacity / 2) {}

    const char *name() const override { return "copying"; }
    void collect(GcContext &ctx, GcStats &stats) override;

    /** Allocation limit of space @p index (0 or 1). */
    std::size_t spaceLimit(unsigned index) const {
        return half_ * (index + 1);
    }

    /** First usable offset of space @p index. */
    std::size_t spaceBase(unsigned index) const {
        return half_ * index + 16;
    }

    /** Index of the space the mutator currently allocates in. */
    unsigned activeSpace() const { return active_; }

  private:
    std::size_t half_;
    unsigned active_ = 0;
};

} // namespace jrs::gc

#endif // JRS_GC_COPYING_H

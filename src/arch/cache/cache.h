/**
 * @file
 * Set-associative cache model (the cachesim5 stand-in).
 *
 * True-LRU replacement, configurable size / line size / associativity,
 * write-allocate or write-no-allocate. Statistics are kept both in
 * total and split by execution phase so the translate-vs-rest analyses
 * of Figures 3 and 5 fall out directly. CacheSink adapts the trace
 * stream to a split L1: every event's pc touches the I-cache, loads and
 * stores touch the D-cache.
 */
#ifndef JRS_ARCH_CACHE_CACHE_H
#define JRS_ARCH_CACHE_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

#include "arch/outcome.h"
#include "isa/trace.h"

namespace jrs {

/** Static cache parameters. */
struct CacheConfig {
    std::uint32_t sizeBytes = 64 * 1024;
    std::uint32_t lineBytes = 32;
    std::uint32_t assoc = 2;
    bool writeAllocate = true;

    std::uint32_t numSets() const {
        return sizeBytes / (lineBytes * assoc);
    }
};

/** Access counters. */
struct CacheStats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeMisses = 0;

    std::uint64_t accesses() const { return reads + writes; }
    std::uint64_t misses() const { return readMisses + writeMisses; }
    double missRate() const {
        return accesses() == 0
            ? 0.0
            : static_cast<double>(misses())
                / static_cast<double>(accesses());
    }
    /** Fraction of misses that are write misses (Figure 3). */
    double writeMissFraction() const {
        return misses() == 0
            ? 0.0
            : static_cast<double>(writeMisses)
                / static_cast<double>(misses());
    }
};

/** One cache level. */
class Cache {
  public:
    explicit Cache(CacheConfig cfg);

    /**
     * Access @p addr. @return true on hit. Updates total and per-phase
     * stats.
     */
    bool access(std::uint64_t addr, bool is_write, Phase phase);

    /** Hit check without state change (tests). */
    bool probe(std::uint64_t addr) const;

    const CacheConfig &config() const { return cfg_; }
    const CacheStats &stats() const { return total_; }
    const CacheStats &phaseStats(Phase p) const {
        return perPhase_[static_cast<std::size_t>(p)];
    }

    /** Misses outside a given phase (Fig 5's "rest of JIT"). */
    CacheStats statsExcluding(Phase p) const;

    void resetStats();

    /**
     * Report every access() as an Outcome to @p listener (null
     * detaches). @p readKind / @p writeKind label read and write
     * accesses — an I-cache reports ICacheFetch for both, a D-cache
     * DCacheLoad / DCacheStore. Outcome::pc carries the accessed
     * address; the penalty is 0 (a bare cache charges no cycles).
     * Zero-cost when unset: one null test per access.
     */
    void setListener(OutcomeListener *listener,
                     PerfKind readKind = PerfKind::ICacheFetch,
                     PerfKind writeKind = PerfKind::ICacheFetch) {
        listener_ = listener;
        readKind_ = readKind;
        writeKind_ = writeKind;
    }

  private:
    bool lookup(std::uint64_t addr, bool is_write, Phase phase);

    /** Index of the first (MRU) way of @p line's set in tags_. */
    std::size_t setBase(std::uint64_t line) const {
        return (static_cast<std::size_t>(line) & setMask_) * cfg_.assoc;
    }

    CacheConfig cfg_;
    std::uint32_t lineShift_;
    std::uint32_t setMask_;
    /** numSets x assoc tags, each set MRU-first (0 = invalid). */
    std::vector<std::uint64_t> tags_;
    CacheStats total_;
    CacheStats perPhase_[kNumPhases];
    OutcomeListener *listener_ = nullptr;
    PerfKind readKind_ = PerfKind::ICacheFetch;
    PerfKind writeKind_ = PerfKind::ICacheFetch;
};

// Inline so the models that own a Cache (CacheSink, PipelineSim)
// inline its per-access work into their per-event loops.

inline bool
Cache::access(std::uint64_t addr, bool is_write, Phase phase)
{
    const bool hit = lookup(addr, is_write, phase);
    if (listener_ != nullptr) {
        Outcome o;
        o.pc = addr;
        o.kind = is_write ? writeKind_ : readKind_;
        o.phase = phase;
        o.bad = !hit;
        listener_->onOutcome(o);
    }
    return hit;
}

inline bool
Cache::lookup(std::uint64_t addr, bool is_write, Phase phase)
{
    const std::uint64_t line = addr >> lineShift_;
    const std::uint64_t tag = line | 0x8000'0000'0000'0000ull;  // valid
    std::uint64_t *set = tags_.data() + setBase(line);
    const std::uint32_t ways = cfg_.assoc;

    CacheStats &ps = perPhase_[static_cast<std::size_t>(phase)];
    if (is_write) {
        ++total_.writes;
        ++ps.writes;
    } else {
        ++total_.reads;
        ++ps.reads;
    }

    for (std::uint32_t i = 0; i < ways; ++i) {
        if (set[i] == tag) {
            // Hit: move to MRU position.
            for (std::uint32_t j = i; j > 0; --j)
                set[j] = set[j - 1];
            set[0] = tag;
            return true;
        }
    }

    // Miss.
    if (is_write) {
        ++total_.writeMisses;
        ++ps.writeMisses;
    } else {
        ++total_.readMisses;
        ++ps.readMisses;
    }
    if (is_write && !cfg_.writeAllocate)
        return false;  // write-around: no fill

    // Fill at MRU, dropping the LRU way (an invalid one while the set
    // is not yet full).
    for (std::uint32_t j = ways - 1; j > 0; --j)
        set[j] = set[j - 1];
    set[0] = tag;
    return false;
}

/** Split L1 fed from the trace stream. */
class CacheSink final : public TraceSink {
  public:
    CacheSink(CacheConfig icfg, CacheConfig dcfg)
        : icache_(icfg), dcache_(dcfg) {}

    void onEvent(const TraceEvent &ev) override {
        icache_.access(ev.pc, false, ev.phase);
        if (ev.kind == NKind::Load)
            dcache_.access(ev.mem, false, ev.phase);
        else if (ev.kind == NKind::Store)
            dcache_.access(ev.mem, true, ev.phase);
    }

    void onEvents(const TraceEvent *evs, std::size_t n) override {
        for (std::size_t i = 0; i < n; ++i)
            onEvent(evs[i]);
    }

    Cache &icache() { return icache_; }
    Cache &dcache() { return dcache_; }
    const Cache &icache() const { return icache_; }
    const Cache &dcache() const { return dcache_; }

    /** Wire both caches' outcome streams to @p listener. */
    void setListener(OutcomeListener *listener) {
        icache_.setListener(listener, PerfKind::ICacheFetch,
                            PerfKind::ICacheFetch);
        dcache_.setListener(listener, PerfKind::DCacheLoad,
                            PerfKind::DCacheStore);
    }

  private:
    Cache icache_;
    Cache dcache_;
};

} // namespace jrs

#endif // JRS_ARCH_CACHE_CACHE_H

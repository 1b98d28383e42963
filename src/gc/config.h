/**
 * @file
 * Collector selection and tuning knobs, shared by EngineConfig, the
 * CLIs (jrs / jrs_check / jrs_sweep) and the sweep TraceKey.
 *
 * Kept dependency-free so anything can name a collector without
 * pulling in the collector implementations.
 */
#ifndef JRS_GC_CONFIG_H
#define JRS_GC_CONFIG_H

#include <cstdint>
#include <string>
#include <vector>

namespace jrs::gc {

/** Which collector an engine runs (None = the paper's GC-less arena). */
enum class CollectorKind : std::uint8_t {
    None,
    MarkSweep,  ///< non-moving, free-list reallocation
    Copying,    ///< semispace Cheney copy (halves usable heap)
};

/** Canonical CLI / report name: "nogc", "marksweep", "copying". */
inline const char *
collectorName(CollectorKind kind)
{
    switch (kind) {
      case CollectorKind::None:      return "nogc";
      case CollectorKind::MarkSweep: return "marksweep";
      case CollectorKind::Copying:   return "copying";
    }
    return "unknown";
}

/**
 * Parse a collector name ("nogc"/"none", "marksweep", "copying").
 * @return false on an unknown name (callers report a clean usage
 *         error — never a throw, see jrs/jrs_check/jrs_sweep).
 */
inline bool
parseCollector(const std::string &name, CollectorKind *out)
{
    if (name == "nogc" || name == "none") {
        *out = CollectorKind::None;
        return true;
    }
    if (name == "marksweep") {
        *out = CollectorKind::MarkSweep;
        return true;
    }
    if (name == "copying") {
        *out = CollectorKind::Copying;
        return true;
    }
    return false;
}

/** Every collector kind, including None (CLI "--collector all"). */
inline std::vector<CollectorKind>
allCollectorKinds()
{
    return {CollectorKind::None, CollectorKind::MarkSweep,
            CollectorKind::Copying};
}

/** Safepoint/trigger tuning carried by EngineConfig. */
struct GcOptions {
    CollectorKind collector = CollectorKind::None;
    /**
     * Collect once this many bytes have been allocated since the last
     * collection. 0 = collect only when an allocation cannot be
     * satisfied.
     */
    std::uint64_t budgetBytes = 0;
    /**
     * Collect every N allocation requests (stress testing; exercises
     * safepoints far more often than any budget would). 0 = off.
     */
    std::uint64_t everyNAllocs = 0;
};

} // namespace jrs::gc

#endif // JRS_GC_CONFIG_H

/**
 * @file
 * Named sweep grids: every stream-only figure and table of the paper,
 * plus the GC and code-cache ablations.
 *
 * A NamedGrid owns one figure end to end: its measurement matrix
 * (`build`) and its printed table (`summarise`, which reads nothing
 * but the finished SweepResult). `jrs_sweep <name>` runs one;
 * `jrs_sweep paper` runs every paper figure as one grid over the 16
 * suite (workload, interp|jit) recordings, with one point per distinct
 * model configuration on a stream: Table 3, Figure 4 and Figure 5
 * share one pair of 64K caches, Figure 7's direct-mapped cache is
 * Figure 8's 32-byte one, and Figure 9 is a view of Figure 10's
 * issue-width pipelines.
 *
 * The points of the tables that compare modes, and every point of the
 * paper grid, also carry the recording's exit value: a table whose
 * workload ends with different interp and jit checksums is refused
 * (see NamedGrid::summarise). Run alone, the fig04, fig07, fig08 and
 * btb grids report only their pinned metrics and skip the check.
 */
#ifndef JRS_SWEEP_GRIDS_H
#define JRS_SWEEP_GRIDS_H

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sweep/sweep.h"

namespace jrs::sweep {

/**
 * The SpecJVM98-like suite in the paper's presentation order. `hello`
 * is the system-init archetype (tiny methods run once) and carries no
 * steady-state signal, so most figures leave it out, as the paper
 * reports SpecJVM98 programs only; figures about startup behaviour
 * (Figure 8's short methods preferring small lines) keep it. Built
 * once per process; safe to call from any thread.
 */
const std::vector<const WorkloadInfo *> &suite(bool includeHello = false);

/** Print the banner that opens every figure's table. */
void printHeader(std::ostream &out, const char *experiment,
                 const char *paperNote);

/** "code_cache/compress/lru/cc8k"; capacity 0 =>
    "code_cache/compress/unlimited" (the no-eviction baseline).
    Best-fit allocation appends "/best", an OSR threshold appends
    "/osrN": "code_cache/compress/fifo/cc4k/best",
    "code_cache/compress/fifo/cc4k/osr32". */
std::string codeCacheLabel(
    const std::string &workload, std::size_t capacityBytes,
    EvictionPolicy policy,
    AllocStrategy strategy = AllocStrategy::kFirstFit,
    std::uint64_t osrThreshold = 0);

/**
 * Heap-size × collector grid: every point records its own stream
 * (collector traffic is part of the stream identity) and reports
 * collections, collector-event share and pause sizes from the
 * Phase::Gc tags alone, so replayed/disk-loaded streams measure
 * identically to live ones.
 */
std::vector<SweepPoint> buildGcGrid();
/**
 * Code-cache capacity × eviction-policy grid (jit mode, plus one
 * unlimited baseline per workload), extended with best-fit-allocation
 * points (the fragmentation comparison) and one counter+OSR tiered
 * point per workload. Every bounded point records its own stream —
 * eviction changes what executes natively — and reports the
 * retranslation overhead from phase tags (Translate share vs the
 * stream) plus the recorded run's fragmentation gauge (persisted in
 * the meta sidecar), so replayed/disk-loaded streams measure
 * identically to live ones.
 */
std::vector<SweepPoint> buildCodeCacheGrid();

/** A registered grid. */
struct NamedGrid {
    const char *name;
    const char *description;
    /** The grid's points. */
    std::function<std::vector<SweepPoint>()> build;
    /**
     * Print the figure from a sweep of build()'s points, all of which
     * succeeded. Returns false, naming the workload on stderr and
     * printing nothing, when a workload's interp and jit recordings
     * end with different exit values (an interp/JIT checksum
     * divergence).
     */
    bool (*summarise)(const SweepResult &result, std::ostream &out);
};

/** Every named grid: the paper figures in paper order, "paper", "gc"
    and "code_cache". */
const std::vector<NamedGrid> &allGrids();

/** Lookup by name; nullptr when unknown. */
const NamedGrid *findGrid(const std::string &name);

} // namespace jrs::sweep

#endif // JRS_SWEEP_GRIDS_H

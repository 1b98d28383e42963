/**
 * @file
 * Order statistics for the host benchmark: medians, quartiles and the
 * tail percentile every reported timing carries.
 */
#ifndef JRS_HOSTBENCH_STATS_H
#define JRS_HOSTBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace hostbench {

/** Median and quartiles of a sample, with its size. */
struct Summary {
    double median = 0;
    double q1 = 0;
    double q3 = 0;
    std::size_t n = 0;
};

/**
 * Quartiles by the same rule as Python's
 * `statistics.quantiles(values, n=4)` (the "exclusive" method), so a
 * spread printed here matches one recomputed from the printed values.
 * An empty sample gives all zeros; a single value is its own quartiles.
 */
Summary summarize(std::vector<double> values);

/** A high percentile that still has enough samples beyond it. */
struct Tail {
    double percentile = 50;  ///< e.g. 95 for p95
    double value = 0;
    std::size_t n = 0;       ///< sample size
    std::size_t beyond = 0;  ///< samples ranked above the percentile
};

/**
 * The highest of p99.9/p99/p95/p90/p75/p50 that leaves at least ten
 * samples ranked above it (nearest-rank). With fewer than twenty
 * samples there is no such percentile and the median is returned
 * with its true `beyond` count.
 */
Tail tailOf(std::vector<double> values);

} // namespace hostbench

#endif // JRS_HOSTBENCH_STATS_H

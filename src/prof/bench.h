/**
 * @file
 * Host-side benchmark reports: the "jrs-bench-v1" schema.
 *
 * The simulator's own speed is a tracked artifact (the ROADMAP's "as
 * fast as the hardware allows"), so benchmark runs are recorded in a
 * stable JSON schema that can be committed, diffed and gated on:
 *
 *   { "schema": "jrs-bench-v1", "suite": "vm", "runs": [
 *       { "label": "vm/compress/jit/record", "events": N,
 *         "wall_seconds": s, "events_per_sec": r,
 *         "peak_rss_bytes": b, "metrics": { ... } } ] }
 *
 * `events_per_sec` — simulated instructions pushed through per host
 * second — is the throughput figure of merit; compareReports() flags
 * labels whose rate dropped more than a threshold vs a baseline
 * (jrs_bench --compare). BenchReport::parse is a self-contained JSON
 * reader for this schema (the tree deliberately has no external JSON
 * dependency), strict enough to reject files it did not write.
 *
 * Schema documented in DESIGN.md §10; produced by examples/jrs_bench
 * and the sweep benches' --bench-json flag; trajectory files live in
 * bench/BENCH_*.json.
 */
#ifndef JRS_PROF_BENCH_H
#define JRS_PROF_BENCH_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace jrs::prof {

/** One measured scenario. */
struct BenchRun {
    std::string label;            ///< "suite/workload/mode/step"
    std::uint64_t events = 0;     ///< simulated instructions processed
    double wallSeconds = 0;       ///< host wall-clock for the step
    double eventsPerSec = 0;      ///< events / wallSeconds
    std::uint64_t peakRssBytes = 0;  ///< process peak RSS after step
    /** Extra scenario-specific figures (speedups, collections, ...). */
    std::vector<std::pair<std::string, double>> metrics;

    /** Value of metric @p name, or @p fallback when absent. */
    double metric(const std::string &name, double fallback = 0) const;
};

/** A set of runs under one suite name; see file comment. */
struct BenchReport {
    std::string suite;
    std::vector<BenchRun> runs;

    /** Run with @p label, or null. */
    const BenchRun *find(const std::string &label) const;

    /** Add @p run, replacing any existing run with the same label. */
    void upsert(BenchRun run);

    /** The full document, deterministic order (runs sorted by label). */
    std::string toJson() const;

    /** Write toJson() to @p path; throws VmError on I/O failure. */
    void writeJson(const std::string &path) const;

    /** Parse a jrs-bench-v1 document; throws VmError on mismatch. */
    static BenchReport parse(const std::string &json);

    /**
     * Parse the file at @p path; throws VmError, also when @p path is
     * not a regular file (a device such as /dev/zero never ends).
     */
    static BenchReport load(const std::string &path);

    /**
     * Load @p path if it is a regular file carrying @p suite (any
     * other path is never read); otherwise an empty report with that
     * suite name. Lets the sweep benches append their trajectory
     * entry without a separate bootstrap.
     */
    static BenchReport loadOrEmpty(const std::string &path,
                                   const std::string &suite);
};

/** One label's baseline-vs-current comparison. */
struct CompareRow {
    std::string label;
    double baseline = 0;   ///< baseline events_per_sec
    double current = 0;    ///< current events_per_sec
    /** Throughput change in percent; negative = slower than baseline. */
    double deltaPct = 0;
    bool regressed = false;  ///< deltaPct < -maxRegressPct
};

/** Result of compareReports(). */
struct CompareResult {
    std::vector<CompareRow> rows;          ///< matched labels, sorted
    std::vector<std::string> onlyBaseline; ///< labels missing now
    std::vector<std::string> onlyCurrent;  ///< labels new now
    double worstDeltaPct = 0;              ///< most negative delta
    bool failed = false;  ///< any row regressed beyond the threshold

    /** Render as aligned text rows (one per label + verdict line). */
    std::string text(double maxRegressPct) const;
};

/**
 * Compare @p current against @p baseline: a label fails when its
 * events_per_sec dropped more than @p maxRegressPct percent. Labels
 * present on only one side are reported but never fail the compare
 * (suites grow over time).
 */
CompareResult compareReports(const BenchReport &baseline,
                             const BenchReport &current,
                             double maxRegressPct);

} // namespace jrs::prof

#endif // JRS_PROF_BENCH_H

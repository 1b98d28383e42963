/**
 * @file
 * The one collection of labelled attribution reports.
 *
 * Every attribution pass renders one run object per replay
 * (runJson(label)); the tree passes — prof::CctBuilder and
 * prof::SamplingProfiler — also render folded-stack lines. A
 * ReportSet collects those snapshots under their labels and writes
 * them as one document of its schema ("jrs-perf-report-v1",
 * "jrs-cct-v1" or "jrs-sample-v1", see DESIGN.md) and as one folded
 * file. It is thread-safe, so sweep workers add to one set
 * concurrently; runs are sorted by label on output, so documents are
 * stable regardless of which worker finished first. Re-adding a label
 * replaces its snapshot: replay is bit-identical, so re-observing a
 * stream must not duplicate entries.
 */
#ifndef JRS_OBS_REPORT_SET_H
#define JRS_OBS_REPORT_SET_H

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace jrs::obs {

/** One folded-stack output line (before rendering). */
struct FoldedLine {
    std::string stack;     ///< "frame;frame;leaf_[suffix]"
    std::uint64_t value;   ///< self cycles, events or samples
};

/** See file comment. */
class ReportSet {
  public:
    explicit ReportSet(std::string schema) : schema_(std::move(schema)) {}

    /** Snapshot @p pass's report (and folded lines, if it has any). */
    template <class Pass>
    void add(const std::string &label, const Pass &pass) {
        if constexpr (requires { pass.foldedLines(); })
            put({label, pass.runJson(label), pass.foldedLines()});
        else
            put({label, pass.runJson(label), {}});
    }

    std::size_t size() const;

    /** The full document. */
    std::string toJson() const;

    /** Write toJson() to @p path; throws VmError on I/O failure. */
    void writeJson(const std::string &path) const;

    /**
     * Write every run's folded lines to @p path. With more than one
     * run each stack is prefixed with its run label as the outermost
     * frame, so one flamegraph shows the runs side by side.
     */
    void writeFolded(const std::string &path) const;

    /** Folded lines of run @p label (empty when absent). */
    std::vector<FoldedLine> folded(const std::string &label) const;

  private:
    struct Run {
        std::string label;
        std::string json;
        std::vector<FoldedLine> folded;
    };

    void put(Run run);
    /** A snapshot of the runs, sorted by label. */
    std::vector<Run> sorted() const;

    const std::string schema_;
    mutable std::mutex mu_;
    std::vector<Run> runs_;
};

} // namespace jrs::obs

#endif // JRS_OBS_REPORT_SET_H

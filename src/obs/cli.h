/**
 * @file
 * Shared command-line plumbing for the observability output flags.
 *
 * Every tool that can emit observability artifacts spells the same
 * three flags the same way:
 *
 *   --metrics-json FILE   jrs-metrics-v1 registry snapshot
 *   --trace-json FILE     Chrome trace-event JSON (open in Perfetto)
 *   --perf-json FILE      jrs-perf-report-v1 attribution report
 *   --cct-json FILE       jrs-cct-v1 calling-context tree
 *   --flame FILE          folded stacks (flamegraph.pl / speedscope)
 *   --sample-json FILE    jrs-sample-v1 sampled profile
 *   --sample-period N     mean cycles between samples (default 4096)
 *   --sample-seed N       PRNG seed for the jittered sample gaps
 *
 * ObsCli centralizes the parse / enable / write-on-exit steps so the
 * flag set stays consistent across jrs, jrs_sweep and the
 * sweep-engine bench ports. Inside the argv loop:
 *
 *   if (cli.tryParse(a, next))
 *       continue;
 *
 * then cli.setup() before running, and cli.finish(std::cout) (plus
 * cli.writePerf/writeCct/writeSample(...) for the ReportSets the tool
 * filled) on every exit path after the run started.
 */
#ifndef JRS_OBS_CLI_H
#define JRS_OBS_CLI_H

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <ostream>
#include <string>

#include "gc/config.h"
#include "harness/experiment.h"
#include "obs/obs.h"
#include "obs/perf.h"
#include "prof/cct.h"
#include "prof/sampler.h"
#include "sweep/trace_cache.h"
#include "vm/jit/code_cache.h"
#include "vm/jit/shared_cache.h"
#include "vm/runtime/heap.h"

namespace jrs::obs {

/**
 * Strict unsigned decimal: digits only — no sign, no whitespace, no
 * trailing junk — and no wrap past 2^64-1. False leaves @p out alone.
 */
inline bool
parseDecimal(const std::string &v, std::uint64_t *out)
{
    const char *last = v.data() + v.size();
    std::uint64_t n = 0;
    const auto [end, ec] = std::from_chars(v.data(), last, n);
    if (ec != std::errc() || end != last)
        return false;
    *out = n;
    return true;
}

/** See file comment. */
struct ObsCli {
    std::string metricsJson;  ///< --metrics-json output path
    std::string traceJson;    ///< --trace-json output path
    std::string perfJson;     ///< --perf-json output path
    std::string cctJson;      ///< --cct-json output path
    std::string flame;        ///< --flame output path
    std::string sampleJson;   ///< --sample-json output path
    std::uint64_t samplePeriod = 0;  ///< --sample-period (0 = default)
    std::uint64_t sampleSeed = 1;    ///< --sample-seed

    /** Usage-string fragment for the flags handled here. */
    static const char *usageText() {
        return " [--metrics-json FILE] [--trace-json FILE]"
               " [--perf-json FILE] [--cct-json FILE] [--flame FILE]"
               " [--sample-json FILE] [--sample-period N]"
               " [--sample-seed N]";
    }

    /** Parse a decimal count; exits 2 on anything else. */
    static std::uint64_t parseCount(const std::string &v,
                                    const char *what) {
        std::uint64_t n = 0;
        if (!parseDecimal(v, &n)) {
            std::cerr << "error: " << what
                      << " expects a decimal count, got '" << v
                      << "'\n";
            std::exit(2);
        }
        return n;
    }

    /**
     * Consume @p a when it is one of the flags above. @p next must
     * yield the flag's value, advancing the caller's argv cursor (and
     * erroring out itself when the value is missing).
     */
    template <class NextFn>
    bool tryParse(const std::string &a, NextFn &&next) {
        if (a == "--metrics-json") {
            metricsJson = next();
            return true;
        }
        if (a == "--trace-json") {
            traceJson = next();
            return true;
        }
        if (a == "--perf-json") {
            perfJson = next();
            return true;
        }
        if (a == "--cct-json") {
            cctJson = next();
            return true;
        }
        if (a == "--flame") {
            flame = next();
            return true;
        }
        if (a == "--sample-json") {
            sampleJson = next();
            return true;
        }
        if (a == "--sample-period") {
            samplePeriod = parseCount(next(), "--sample-period");
            return true;
        }
        if (a == "--sample-seed") {
            sampleSeed = parseCount(next(), "--sample-seed");
            return true;
        }
        return false;
    }

    /** True when the tool should collect an attribution report. */
    bool perfRequested() const { return !perfJson.empty(); }

    /** True when the tool should build calling-context trees. */
    bool cctRequested() const {
        return !cctJson.empty() || !flame.empty();
    }

    /** True when the tool should run a sampled profile. */
    bool sampleRequested() const {
        return !sampleJson.empty() || samplePeriod != 0;
    }

    /**
     * The sampling knobs the flags selected (cycle clock; a period of
     * 0 falls back to prof::kDefaultSamplePeriod so `--sample-json`
     * alone works).
     */
    prof::SampleOptions sampleOptions() const {
        prof::SampleOptions opt;
        opt.period = samplePeriod == 0 ? prof::kDefaultSamplePeriod
                                       : samplePeriod;
        opt.seed = sampleSeed;
        opt.cycleClock = true;
        return opt;
    }

    /**
     * Enable jrs::obs when registry or tracer output was requested.
     * (--perf-json alone does not need the global toggle: attribution
     * sinks collect unconditionally once attached.)
     */
    void setup() const {
        if (!metricsJson.empty() || !traceJson.empty())
            setEnabled(true);
    }

    /**
     * Write the registry/tracer files that were requested. Call on
     * every exit path after the run, so a partial run still leaves
     * its artifacts behind for diagnosis.
     */
    void finish(std::ostream &out) const {
        if (!metricsJson.empty()) {
            metrics().writeJson(metricsJson);
            out << "wrote " << metricsJson << '\n';
        }
        if (!traceJson.empty()) {
            tracer().writeJson(traceJson);
            out << "wrote " << traceJson << '\n';
        }
    }

    /** Write @p set to the --perf-json path (no-op when not given). */
    void writePerf(const ReportSet &set, std::ostream &out) const {
        if (perfJson.empty())
            return;
        set.writeJson(perfJson);
        out << "wrote " << perfJson << '\n';
    }

    /** Write @p set to the --cct-json/--flame paths requested. */
    void writeCct(const ReportSet &set, std::ostream &out) const {
        if (!cctJson.empty()) {
            set.writeJson(cctJson);
            out << "wrote " << cctJson << '\n';
        }
        if (!flame.empty()) {
            set.writeFolded(flame);
            out << "wrote " << flame << '\n';
        }
    }

    /** Write @p set to the --sample-json path (no-op when not given). */
    void writeSample(const ReportSet &set, std::ostream &out) const {
        if (sampleJson.empty())
            return;
        set.writeJson(sampleJson);
        out << "wrote " << sampleJson << '\n';
    }
};

/**
 * Shared command-line plumbing for the collector flags, in the same
 * style as ObsCli:
 *
 *   --collector NAME   nogc (default) | marksweep | copying
 *   --heap-bytes N     heap arena capacity (accepts k/m/g suffix)
 *   --gc-budget N      collect after N bytes allocated since last GC
 *   --gc-every N       collect every N allocations (stress knob)
 *
 * Unknown collector names and malformed sizes are command-line
 * errors: the helper prints a message and exits 2 (never throws), so
 * scripts can distinguish usage errors from run failures.
 */
struct GcCli {
    gc::GcOptions gc;                          ///< --collector/--gc-*
    std::size_t heapBytes = kDefaultHeapBytes; ///< --heap-bytes

    /** Usage-string fragment for the flags handled here. */
    static const char *usageText() {
        return " [--collector nogc|marksweep|copying]"
               " [--heap-bytes N] [--gc-budget N] [--gc-every N]";
    }

    /** True when any collector was selected. */
    bool enabled() const {
        return gc.collector != gc::CollectorKind::None;
    }

    /** Apply the parsed flags to an engine configuration. */
    template <class Config>
    void apply(Config &cfg) const {
        cfg.gc = gc;
        cfg.heapBytes = heapBytes;
    }

    /**
     * Parse "N", "Nk", "Nm" or "Ng" (binary multiples); exits 2 on
     * anything else, including a sign and a size past SIZE_MAX.
     */
    static std::size_t parseSize(const std::string &v,
                                 const char *what) {
        unsigned shift = 0;
        switch (v.empty() ? '\0' : v.back()) {
          case 'k': case 'K': shift = 10; break;
          case 'm': case 'M': shift = 20; break;
          case 'g': case 'G': shift = 30; break;
          default: break;
        }
        std::uint64_t n = 0;
        if (!parseDecimal(v.substr(0, v.size() - (shift != 0)), &n)
            || n > (std::numeric_limits<std::size_t>::max() >> shift)) {
            std::cerr << "error: " << what
                      << " expects a byte count (optionally with a"
                         " k/m/g suffix), got '" << v << "'\n";
            std::exit(2);
        }
        return static_cast<std::size_t>(n) << shift;
    }

    /**
     * Consume @p a when it is one of the flags above; same contract
     * as ObsCli::tryParse.
     */
    template <class NextFn>
    bool tryParse(const std::string &a, NextFn &&next) {
        if (a == "--collector") {
            const std::string v = next();
            if (!gc::parseCollector(v, &gc.collector)) {
                std::cerr << "error: unknown --collector '" << v
                          << "' (expect nogc, marksweep or "
                             "copying)\n";
                std::exit(2);
            }
            return true;
        }
        if (a == "--heap-bytes") {
            heapBytes = parseSize(next(), "--heap-bytes");
            return true;
        }
        if (a == "--gc-budget") {
            gc.budgetBytes = parseSize(next(), "--gc-budget");
            return true;
        }
        if (a == "--gc-every") {
            gc.everyNAllocs = static_cast<std::uint64_t>(
                parseSize(next(), "--gc-every"));
            return true;
        }
        return false;
    }
};

/**
 * Shared command-line plumbing for the managed code cache, in the
 * same style as GcCli:
 *
 *   --code-cache-bytes N     capacity (k/m/g suffix; 0 = unlimited)
 *   --code-cache-policy P    fifo (default) | lru | cost | costpb
 *   --code-cache-alloc S     first (default) | best extent placement
 *   --osr-back-edges N       OSR back-edge threshold (0 = off)
 *   --shared-code-cache      process-wide shared translation cache
 *
 * Unknown policy/strategy names and malformed sizes print a message
 * and exit 2 (never throw), matching the GcCli error contract.
 */
struct CodeCacheCli {
    CodeCacheConfig codeCache;  ///< --code-cache-bytes/-policy/-alloc
    std::uint64_t osrBackEdgeThreshold = 0;  ///< --osr-back-edges
    bool sharedCodeCache = false;            ///< --shared-code-cache

    /** Usage-string fragment for the flags handled here. */
    static const char *usageText() {
        return " [--code-cache-bytes N]"
               " [--code-cache-policy fifo|lru|cost|costpb]"
               " [--code-cache-alloc first|best]"
               " [--osr-back-edges N] [--shared-code-cache]";
    }

    /** True when a bound was set (the policy alone changes nothing). */
    bool bounded() const { return codeCache.capacityBytes != 0; }

    /** Apply the parsed flags to an engine configuration. */
    template <class Config>
    void apply(Config &cfg) const {
        cfg.codeCache = codeCache;
        cfg.osrBackEdgeThreshold = osrBackEdgeThreshold;
    }

    /**
     * Consume @p a when it is one of the flags above; same contract
     * as ObsCli::tryParse.
     */
    template <class NextFn>
    bool tryParse(const std::string &a, NextFn &&next) {
        if (a == "--code-cache-bytes") {
            codeCache.capacityBytes =
                GcCli::parseSize(next(), "--code-cache-bytes");
            return true;
        }
        if (a == "--code-cache-policy") {
            const std::string v = next();
            if (!parseEvictionPolicy(v, &codeCache.policy)) {
                std::cerr << "error: unknown --code-cache-policy '"
                          << v
                          << "' (expect fifo, lru, cost or costpb)\n";
                std::exit(2);
            }
            return true;
        }
        if (a == "--code-cache-alloc") {
            const std::string v = next();
            if (!parseAllocStrategy(v, &codeCache.strategy)) {
                std::cerr << "error: unknown --code-cache-alloc '"
                          << v << "' (expect first or best)\n";
                std::exit(2);
            }
            return true;
        }
        if (a == "--osr-back-edges") {
            osrBackEdgeThreshold = static_cast<std::uint64_t>(
                GcCli::parseSize(next(), "--osr-back-edges"));
            return true;
        }
        if (a == "--shared-code-cache") {
            sharedCodeCache = true;
            return true;
        }
        return false;
    }
};

/**
 * Shared command-line plumbing for what to run: the run spec every
 * `jrs` subcommand takes, in the same style as GcCli.
 *
 *   <workload>         positional; selects the WorkloadInfo
 *   --mode M           interp | jit | counter:N | oracle
 *   --arg N            workload argument (default: its smallArg)
 *   --tiny             the workload's tinyArg instead
 *   --sync S           thin | monitor-cache | one-bit
 *   --inline           JIT inlining/devirtualization
 *   --fold             interpreter dispatch folding
 *   ...                every GcCli and CodeCacheCli flag
 *
 * interp, jit and counter:N are sweep::ExecMode, so a mode means the
 * same policy here as in every sweep grid. oracle is the paper's
 * Section 3 procedure: an interpreted and a compile-everything
 * profiling run (default configuration, same argument) pick the
 * per-method decisions the measured run uses. Malformed values print
 * a message and exit 2, matching the GcCli error contract.
 */
struct RunCli {
    const WorkloadInfo *workload;
    std::int32_t arg;
    std::string mode = "jit";   ///< as spelled; names the run in labels
    sweep::ExecMode exec;       ///< the policy when mode is not oracle
    SyncKind sync = SyncKind::ThinLock;
    bool inlining = false;
    bool folding = false;
    GcCli gc;
    CodeCacheCli codeCache;

    explicit RunCli(const WorkloadInfo &w)
        : workload(&w), arg(w.smallArg) {}

    /** Usage-string fragment for the flags handled here. */
    static std::string usageText() {
        return std::string(
                   " [--mode interp|jit|counter:N|oracle] [--arg N]"
                   " [--tiny] [--sync thin|monitor-cache|one-bit]"
                   " [--inline] [--fold]")
            + GcCli::usageText() + CodeCacheCli::usageText();
    }

    /** Select mode @p m; false (nothing changed) when it names none. */
    bool setMode(const std::string &m) {
        std::uint64_t n = 0;
        if (m == "interp")
            exec = sweep::ExecMode::interp();
        else if (m == "jit")
            exec = sweep::ExecMode::jit();
        else if (m.rfind("counter:", 0) == 0
                 && parseDecimal(m.substr(8), &n))
            exec = sweep::ExecMode::counter(n);
        else if (m != "oracle")
            return false;
        mode = m;
        return true;
    }

    /** "workload/mode", plus "/collector" when one is selected. */
    std::string label() const {
        std::string s = std::string(workload->name) + "/" + mode;
        if (gc.enabled())
            s += std::string("/") + gc::collectorName(gc.gc.collector);
        return s;
    }

    /**
     * Consume @p a when it is one of the flags above; same contract
     * as ObsCli::tryParse.
     */
    template <class NextFn>
    bool tryParse(const std::string &a, NextFn &&next) {
        if (a == "--mode") {
            const std::string v = next();
            if (!setMode(v)) {
                std::cerr << "error: unknown --mode '" << v
                          << "' (expect interp, jit, counter:N or "
                             "oracle)\n";
                std::exit(2);
            }
        } else if (a == "--arg") {
            const std::string v = next();
            std::uint64_t n = 0;
            if (!parseDecimal(v, &n) || n == 0
                || n > static_cast<std::uint64_t>(
                       std::numeric_limits<std::int32_t>::max())) {
                std::cerr << "error: --arg expects a positive 32-bit"
                             " decimal count, got '" << v << "'\n";
                std::exit(2);
            }
            arg = static_cast<std::int32_t>(n);
        } else if (a == "--tiny") {
            arg = workload->tinyArg;
        } else if (a == "--sync") {
            const std::string v = next();
            if (v == "thin") {
                sync = SyncKind::ThinLock;
            } else if (v == "monitor-cache") {
                sync = SyncKind::MonitorCache;
            } else if (v == "one-bit") {
                sync = SyncKind::OneBitLock;
            } else {
                std::cerr << "error: unknown --sync '" << v
                          << "' (expect thin, monitor-cache or "
                             "one-bit)\n";
                std::exit(2);
            }
        } else if (a == "--inline") {
            inlining = true;
        } else if (a == "--fold") {
            folding = true;
        } else {
            return gc.tryParse(a, next) || codeCache.tryParse(a, next);
        }
        return true;
    }

    /**
     * The harness RunSpec the flags describe. Runs the two profiling
     * runs first under --mode oracle; a shared code cache is fresh per
     * call.
     */
    RunSpec spec() const {
        RunSpec s;
        s.workload = workload;
        s.arg = arg;
        if (mode == "oracle") {
            const ModePair runs =
                runBothModes(*workload, arg, nullptr, nullptr);
            s.policy = std::make_shared<OraclePolicy>(
                computeOracleDecisions(runs.interp.profiles,
                                       runs.jit.profiles));
        } else {
            s.policy = exec.makePolicy();
        }
        s.syncKind = sync;
        s.jitInlining = inlining;
        s.interpreterFolding = folding;
        gc.apply(s);
        codeCache.apply(s);
        if (codeCache.sharedCodeCache)
            s.sharedCache = std::make_shared<SharedCodeCache>();
        return s;
    }
};

} // namespace jrs::obs

#endif // JRS_OBS_CLI_H

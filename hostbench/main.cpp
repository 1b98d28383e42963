/**
 * @file
 * jrs_hostbench — host-side benchmark of the jrs workbench: how long
 * the simulator takes, how much memory it holds, and which layer the
 * time goes to. Usually run through run.py, which builds it first:
 *
 *   jrs_hostbench --workload launch|sweep_cold|replay|profile|all
 *                 --seed N --seconds S --trace 0|1
 *                 [--tiny] [--inject-mismatch]
 *                 [--trace-out FILE] [--report FILE]
 *
 * A run sets the workload up at least three times and until the
 * set-ups add up to a second (setup_s is the median),
 * runs rounds until two consecutive rounds agree on wall time within
 * 10% (warm-up, discarded), then measures rounds for S seconds. Every
 * round checks its outputs; any mismatch makes the run fail.
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 alternates
 * traced and untraced rounds, prints the per-layer metrics and the
 * tracing overhead, and writes the spans as Chrome trace JSON to
 * --trace-out. Layers the named workload does not exercise are
 * measured by one traced round of the others at tiny size plus the
 * single-layer probe. The last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.
 */
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "host.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "stats.h"
#include "tasks.h"

using namespace hostbench;
using Clock = std::chrono::steady_clock;

namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;
    bool injectMismatch = false;
    std::string traceOut;
    std::string report;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "error: " << msg << "\n"
              << "usage: jrs_hostbench --workload "
                 "launch|sweep_cold|replay|profile|all --seed N\n"
                 "                     --seconds S --trace 0|1 [--tiny]\n"
                 "                     [--inject-mismatch] [--trace-out "
                 "FILE] [--report FILE]\n";
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || v[0] == '-' || *end != '\0')
        usage(flag + " expects a non-negative integer");
    return n;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(flag + " needs a value");
            return argv[++i];
        };
        if (flag == "--workload") {
            a.workload = next();
        } else if (flag == "--seed") {
            a.seed = parseUnsigned(flag, next());
        } else if (flag == "--seconds") {
            a.seconds = static_cast<double>(parseUnsigned(flag, next()));
        } else if (flag == "--trace") {
            const std::string v = next();
            if (v != "0" && v != "1")
                usage("--trace expects 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--tiny") {
            a.tiny = true;
        } else if (flag == "--inject-mismatch") {
            a.injectMismatch = true;
        } else if (flag == "--trace-out") {
            a.traceOut = next();
        } else if (flag == "--report") {
            a.report = next();
        } else {
            usage("unknown option " + flag);
        }
    }
    bool known = a.workload == "all";
    for (const std::string &n : workloadNames())
        known = known || a.workload == n;
    if (!known)
        usage("unknown --workload '" + a.workload + "'");
    if (a.seconds < 1)
        usage("--seconds must be at least 1");
    return a;
}

/** One reported metric: a value, its unit and where it came from. */
struct Metric {
    double value = 0;
    std::string unit;
    std::string detail;  ///< quartiles and sample count, for the report
    Summary summary;     ///< for --report
};

using Metrics = std::map<std::string, Metric>;

/** Units of the per-layer metrics (BENCHMARK.json per_layer). */
const std::map<std::string, std::string> &
layerUnits()
{
    static const std::map<std::string, std::string> units = {
        {"workloads.build_ms", "ms"},
        {"vm.construct_ms", "ms"},
        {"vm.interp_ns_per_event", "ns"},
        {"vm.jit_ns_per_event", "ns"},
        {"vm.translate_ms", "ms"},
        {"gc.collections", "count"},
        {"gc.event_share", "ratio"},
        {"isa.record_ns_per_event", "ns"},
        {"isa.trace_bytes", "bytes"},
        {"isa.replay_null_ns_per_event", "ns"},
        {"arch.cache_ns_per_event", "ns"},
        {"arch.bpred_ns_per_event", "ns"},
        {"arch.pipeline_ns_per_event", "ns"},
        {"sweep.busy_frac", "ratio"},
        {"sweep.max_group_s", "s"},
        {"sweep.trace_hit_ratio", "ratio"},
        {"obs.perf_ns_per_event", "ns"},
        {"prof.cct_ns_per_event", "ns"},
        {"prof.sample_ns_per_event", "ns"},
        {"check.digest_ms", "ms"},
        {"host.sys_s", "s"},
        {"host.minor_faults", "count"},
        {"trace.overhead_s", "s"},
        {"task_ms_tail", "ms"},
    };
    return units;
}

/** Everything measured for one workload. */
struct Measured {
    std::vector<double> setupS;
    std::vector<double> buildMs;
    std::vector<Round> warmup;
    std::vector<Round> window;
    bool steady = false;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
};

/** Relative wall-time change that still counts as steady state. */
constexpr double kSteadyTolerance = 0.10;

Round
timedRound(Workload &w, bool traced)
{
    Round r;
    r.traced = traced;
    jrs::obs::setEnabled(traced);
    resetPeakRss();
    const Usage u0 = usageNow();
    const auto t0 = Clock::now();
    w.round(r);
    r.wallS = std::chrono::duration<double>(Clock::now() - t0).count();
    r.usage = usageNow() - u0;
    r.peakRssMb = peakRssMb();
    jrs::obs::setEnabled(false);
    return r;
}

void
tally(Measured &m, const Round &r)
{
    m.attempted += r.taskMs.size();
    m.failed += r.failed;
    m.errors.insert(m.errors.end(), r.errors.begin(), r.errors.end());
}

/** Set-ups are repeated until they add up to this many seconds, so a
    set-up of milliseconds still gets a steady median. */
constexpr double kSetupSeconds = 1.0;

/**
 * Set up (at least three times, and until the set-ups add up to
 * kSetupSeconds), warm up until two consecutive rounds agree, then
 * measure for @p seconds. With @p trace, window rounds alternate
 * untraced and traced.
 */
Measured
measure(Workload &w, double seconds, bool trace)
{
    Measured m;
    double setupTotal = 0;
    while (m.setupS.size() < 3 || setupTotal < kSetupSeconds) {
        const auto t0 = Clock::now();
        m.buildMs.push_back(w.setup());
        m.setupS.push_back(
            std::chrono::duration<double>(Clock::now() - t0).count());
        setupTotal += m.setupS.back();
    }

    const auto warmStart = Clock::now();
    for (;;) {
        Round r = timedRound(w, false);
        tally(m, r);
        if (!m.warmup.empty()
            && std::abs(r.wallS - m.warmup.back().wallS)
                <= kSteadyTolerance * m.warmup.back().wallS) {
            m.steady = true;
            m.window.push_back(std::move(r));
            break;
        }
        m.warmup.push_back(std::move(r));
        const double spent =
            std::chrono::duration<double>(Clock::now() - warmStart).count();
        if (spent >= seconds / 2 || m.warmup.size() >= 10)
            break;  // report unsteady; the window starts anyway
    }

    double elapsed = 0;
    for (const Round &r : m.window)
        elapsed += r.wallS;
    const auto windowStart = Clock::now();
    while (m.window.size() < 3
           || elapsed + std::chrono::duration<double>(Clock::now()
                                                       - windowStart)
                      .count()
               < seconds) {
        const bool traced = trace && m.window.size() % 2 == 1;
        m.window.push_back(timedRound(w, traced));
        tally(m, m.window.back());
    }
    return m;
}

std::string
num(double v)
{
    return jrs::obs::jsonNumber(v);
}

Metric
summaryMetric(const std::vector<double> &values, const std::string &unit,
              const std::string &what)
{
    Metric m;
    m.summary = summarize(values);
    m.value = m.summary.median;
    m.unit = unit;
    m.detail = "median of " + std::to_string(m.summary.n) + " " + what
        + ", q1 " + num(m.summary.q1) + ", q3 " + num(m.summary.q3);
    return m;
}

/** Tail latency over every window task (a per-layer metric: it does
    not repeat within a tenth across seeds). */
Metric
tailMetric(const Measured &m)
{
    std::vector<double> tasks;
    for (const Round &r : m.window)
        tasks.insert(tasks.end(), r.taskMs.begin(), r.taskMs.end());
    const Tail tail = tailOf(tasks);
    Metric t;
    t.value = tail.value;
    t.unit = "ms";
    t.summary = {tail.value, tail.value, tail.value, tail.n};
    t.detail = "p" + num(tail.percentile) + " of " + std::to_string(tail.n)
        + " tasks, " + std::to_string(tail.beyond) + " beyond";
    return t;
}

/** End-to-end metrics of the (untraced) window. */
Metrics
endToEnd(const Measured &m)
{
    std::vector<double> wall, rate, cpu, tasks;
    double peak = 0;
    for (const Round &r : m.window) {
        wall.push_back(r.wallS);
        rate.push_back(static_cast<double>(r.events) / r.wallS);
        cpu.push_back(r.usage.cpuS());
        tasks.insert(tasks.end(), r.taskMs.begin(), r.taskMs.end());
        peak = std::max(peak, r.peakRssMb);
    }
    Metrics out;
    out["setup_s"] = summaryMetric(m.setupS, "s", "set-ups");
    out["wall_s"] = summaryMetric(wall, "s", "rounds");
    out["events_per_s"] = summaryMetric(rate, "1/s", "rounds");
    out["cpu_s"] = summaryMetric(cpu, "s", "rounds");
    out["task_ms_p50"] = summaryMetric(tasks, "ms", "tasks");

    Metric rss;
    rss.value = peak;
    rss.unit = "MB";
    rss.summary = {peak, peak, peak, m.window.size()};
    rss.detail = "VmHWM max over " + std::to_string(m.window.size())
        + " rounds, reset before each";
    out["peak_rss_mb"] = rss;
    return out;
}

/** Median over rounds of each per-layer value the rounds measured. */
void
addLayers(Metrics &out, const std::vector<const Round *> &rounds,
          const std::string &source)
{
    std::map<std::string, std::vector<double>> values;
    for (const Round *r : rounds) {
        for (const auto &[name, v] : r->layers)
            values[name].push_back(v);
    }
    for (const auto &[name, v] : values) {
        if (out.count(name) != 0)
            continue;  // the named workload's own value wins
        Metric m = summaryMetric(v, layerUnits().at(name),
                                 source + " rounds");
        const auto note = rounds.back()->notes.find(name);
        if (note != rounds.back()->notes.end())
            m.detail += ", " + note->second;
        out[name] = m;
    }
}

/** Per-layer metrics of a traced run of @p name. */
Metrics
perLayer(const std::string &name, const Measured &m, const Config &cfg,
         Measured &fillIns)
{
    Metrics out;
    std::vector<const Round *> traced;
    std::vector<double> tracedWall, plainWall, sys, faults;
    for (const Round &r : m.window) {
        (r.traced ? tracedWall : plainWall).push_back(r.wallS);
        if (r.traced)
            traced.push_back(&r);
        sys.push_back(r.usage.sysS);
        faults.push_back(r.usage.minorFaults);
    }
    out["workloads.build_ms"] =
        summaryMetric(m.buildMs, "ms", "set-ups of " + name);
    out["host.sys_s"] = summaryMetric(sys, "s", "rounds of " + name);
    out["host.minor_faults"] =
        summaryMetric(faults, "count", "rounds of " + name);
    Metric overhead;
    overhead.value =
        summarize(tracedWall).median - summarize(plainWall).median;
    overhead.unit = "s";
    overhead.detail = "median of " + std::to_string(tracedWall.size())
        + " traced rounds minus median of "
        + std::to_string(plainWall.size()) + " untraced rounds";
    out["trace.overhead_s"] = overhead;
    out["task_ms_tail"] = tailMetric(m);
    addLayers(out, traced, name);

    // Layers the named workload leaves idle: the single-layer probe at
    // the run's size, then one traced round of each other workload at
    // tiny size.
    std::vector<std::string> others = {"layers"};
    for (const std::string &n : workloadNames()) {
        if (n != name)
            others.push_back(n);
    }
    for (const std::string &other : others) {
        Config c = cfg;
        c.tiny = cfg.tiny || other != "layers";
        c.injectMismatch = false;
        const auto w = makeWorkload(other, c);
        w->setup();
        const Round r = timedRound(*w, true);
        tally(fillIns, r);
        addLayers(out, {&r}, other);
    }
    return out;
}

void
printMetrics(const std::string &workload, const Metrics &metrics)
{
    for (const auto &[name, m] : metrics) {
        std::cout << "  " << workload << " " << name << " = " << num(m.value)
                  << " " << m.unit << "  [" << m.detail << "]\n";
    }
}

std::string
metricsJson(const Metrics &metrics, const std::string &prefix,
            bool full)
{
    std::ostringstream os;
    bool first = true;
    for (const auto &[name, m] : metrics) {
        os << (first ? "" : ", ") << "\""
           << jrs::obs::jsonEscape(prefix + name) << "\": {\"value\": "
           << num(m.value) << ", \"unit\": \""
           << jrs::obs::jsonEscape(m.unit) << "\"";
        if (full) {
            os << ", \"q1\": " << num(m.summary.q1) << ", \"q3\": "
               << num(m.summary.q3) << ", \"n\": " << m.summary.n
               << ", \"detail\": \"" << jrs::obs::jsonEscape(m.detail)
               << "\"";
        }
        os << "}";
        first = false;
    }
    return os.str();
}

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << std::hex << v;
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const std::vector<std::string> names = args.workload == "all"
        ? workloadNames()
        : std::vector<std::string>{args.workload};
    // One CPU is left to the kernel and the rest of the host. With a
    // worker per CPU on a 4-CPU host the sweeps waited on their largest
    // stream (a quarter of a round) and measured less steadily.
    const unsigned jobs = std::max(1u, std::min(4u, hostCpus()) - 1);
    const std::string fingerprint = fingerprintJson(jobs);
    std::cout << "hostbench fingerprint " << fingerprint << "\n";

    std::uint64_t attempted = 0, failed = 0;
    std::string reportRuns, finalMetrics;
    try {
        for (const std::string &name : names) {
            Config cfg;
            cfg.seed = args.seed;
            cfg.jobs = jobs;
            cfg.tiny = args.tiny;
            cfg.injectMismatch = args.injectMismatch;
            // The workload (and its resident streams) is gone before
            // a traced run measures the other layers.
            const Measured m =
                measure(*makeWorkload(name, cfg), args.seconds, args.trace);

            Measured fillIns;
            const Metrics metrics = args.trace
                ? perLayer(name, m, cfg, fillIns)
                : endToEnd(m);
            // Untraced runs print and save the tail too, though it is
            // not an end-to-end metric.
            Metrics reported = metrics;
            if (!args.trace)
                reported["task_ms_tail"] = tailMetric(m);
            attempted += m.attempted + fillIns.attempted;
            failed += m.failed + fillIns.failed;

            std::cout << "hostbench workload " << name << " seed "
                      << args.seed << " jobs " << jobs << " trace "
                      << args.trace << ": " << m.warmup.size()
                      << " warm-up rounds ("
                      << (m.steady ? "steady" : "NOT steady, capped")
                      << "), " << m.window.size()
                      << " window rounds; fail_frac "
                      << num(m.attempted == 0
                                 ? 0
                                 : static_cast<double>(m.failed)
                                     / static_cast<double>(m.attempted))
                      << " ratio (" << m.failed << " of " << m.attempted
                      << " tasks)\n";
            printMetrics(name, reported);
            const std::string digest = m.window.empty()
                ? "none"
                : hex(m.window.front().simDigest);
            std::cout << "  " << name << " sim_digest " << digest << "\n";
            for (const Measured *part : {&m, &std::as_const(fillIns)}) {
                for (const std::string &e : part->errors)
                    std::cout << "  " << name << " MISMATCH " << e << "\n";
            }

            const std::string prefix =
                names.size() > 1 ? name + "." : std::string();
            finalMetrics += (finalMetrics.empty() ? "" : ", ")
                + metricsJson(metrics, prefix, false);
            reportRuns += std::string(reportRuns.empty() ? "" : ",\n")
                + "    {\"workload\": \"" + name + "\", \"sim_digest\": \""
                + digest + "\", \"metrics\": {"
                + metricsJson(reported, "", true) + "}}";
        }
    } catch (const std::exception &e) {
        std::cerr << "jrs_hostbench: " << e.what() << "\n";
        return 1;
    }

    if (args.trace && !args.traceOut.empty()) {
        jrs::obs::tracer().writeJson(args.traceOut);
        std::cout << "hostbench spans written to " << args.traceOut << "\n";
    }
    if (!args.report.empty()) {
        std::ofstream out(args.report);
        out << "{\n  \"schema\": \"jrs-hostbench-v1\",\n"
            << "  \"fingerprint\": " << fingerprint << ",\n"
            << "  \"seed\": " << args.seed << ",\n  \"trace\": "
            << (args.trace ? "true" : "false") << ",\n  \"runs\": [\n"
            << reportRuns << "\n  ]\n}\n";
        if (!out) {
            std::cerr << "jrs_hostbench: cannot write " << args.report
                      << "\n";
            return 1;
        }
    }
    const bool correct = failed == 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": "
              << failed << ", \"metrics\": {" << finalMetrics << "}}"
              << std::endl;
    return correct ? 0 : 1;
}

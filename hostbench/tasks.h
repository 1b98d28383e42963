/**
 * @file
 * The host benchmark's workloads. Each one is a fixed unit of work (a
 * "round") made of tasks that call jrs's public API, timed from
 * outside; nothing here changes how jrs runs.
 *
 *   launch      programs on fresh engines, each in interp, jit and
 *               hybrid and cross-checked by VmStateDigest: the suite
 *               workloads at tinyArg under the copying collector (as
 *               jrs_check diff --all-workloads --collector copying)
 *               and seeded generated programs (as jrs_check fuzz)
 *   sweep_cold  a fresh SweepEngine over the seven suite workloads x
 *               {interp, jit}: record each stream once, replay it into
 *               caches, the predictor bank and the pipeline
 *   replay      the same grid, replayed from streams recorded during
 *               set-up (every trace lookup must hit)
 *   profile     the recorded streams replayed through bare PipelineSim
 *               and the three attribution pipelines
 *
 * A further internal workload, "layers", replays a few streams into
 * one layer at a time; traced runs use it for per-event layer costs.
 */
#ifndef JRS_HOSTBENCH_TASKS_H
#define JRS_HOSTBENCH_TASKS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "host.h"

namespace hostbench {

/** What every workload is built from. */
struct Config {
    std::uint64_t seed = 1;
    unsigned jobs = 1;          ///< worker threads for a round's tasks
    bool tiny = false;          ///< tinyArg inputs and a small pool
    bool injectMismatch = false;  ///< corrupt one checked output
};

/** Everything one round measured and checked. */
struct Round {
    bool traced = false;
    double wallS = 0;
    Usage usage;                     ///< process usage over the round
    double peakRssMb = 0;            ///< VmHWM over the round
    std::uint64_t events = 0;        ///< simulated events consumed
    std::vector<double> taskMs;      ///< latency of every task
    std::uint64_t failed = 0;        ///< tasks that threw or mismatched
    std::vector<std::string> errors; ///< what failed, for the report
    /** Hash of every simulated statistic the round produced. */
    std::uint64_t simDigest = 0;
    /** Per-layer values measured in this round, by metric name. */
    std::map<std::string, double> layers;
    /** Extra per-layer context for the report (e.g. a ratio's base). */
    std::map<std::string, std::string> notes;
};

/** One benchmark workload; see file comment. */
class Workload {
  public:
    virtual ~Workload() = default;

    /**
     * Build the inputs, replacing any earlier build. Returns the
     * milliseconds spent building guest programs (workloads.build_ms).
     */
    virtual double setup() = 0;

    /**
     * Run every task once and check the outputs. Fills everything in
     * Round except wallS, usage and peakRssMb, which the caller times.
     * When out.traced is set, a span is recorded around each call into
     * jrs.
     */
    virtual void round(Round &out) = 0;
};

/** Benchmark workload names, in report order. */
const std::vector<std::string> &workloadNames();

/** Workload @p name ("layers" included); null when unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Config &cfg);

} // namespace hostbench

#endif // JRS_HOSTBENCH_TASKS_H

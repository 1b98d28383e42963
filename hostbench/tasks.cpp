#include "tasks.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <optional>

#include "arch/bpred/predictors.h"
#include "arch/cache/cache.h"
#include "arch/pipeline/pipeline.h"
#include "check/differential.h"
#include "check/digest.h"
#include "check/progen.h"
#include "obs/obs.h"
#include "obs/perf.h"
#include "prof/cct.h"
#include "prof/sampler.h"
#include "stats.h"
#include "sweep/parallel.h"
#include "sweep/sweep.h"
#include "workloads/workload.h"

namespace hostbench {

using namespace jrs;
using Clock = std::chrono::steady_clock;

namespace {

double
nsBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

double
msSince(Clock::time_point t0)
{
    return nsBetween(t0, Clock::now()) / 1e6;
}

/** FNV-1a over the exact bits of every value added. */
class Fnv {
  public:
    void add(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 1099511628211ull;
        }
    }
    void add(double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
    void add(const std::string &s) {
        for (const unsigned char c : s) {
            h_ ^= c;
            h_ *= 1099511628211ull;
        }
        add(std::uint64_t{s.size()});
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 14695981039346656037ull;
};

/** splitmix64 step: independent streams of inputs from one seed. */
std::uint64_t
mix(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * A completed call into jrs, as a Chrome trace span on the calling
 * thread's lane. The task id and the enclosing span travel in args.
 * Spans go to the process-wide obs tracer, so they land in one trace
 * file with the sweep engine's own acquire/replay/extract spans.
 */
void
span(bool traced, const char *name, std::uint64_t task,
     const char *parent, Clock::time_point t0, Clock::time_point t1,
     std::uint64_t events = 0)
{
    if (!traced)
        return;
    obs::SpanTracer &tracer = obs::tracer();
    const auto us = [](Clock::duration d) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(d)
                .count());
    };
    const std::uint64_t now = tracer.nowUs();
    const std::uint64_t ago = us(Clock::now() - t0);
    obs::SpanRecord rec;
    rec.name = name;
    rec.cat = "hostbench";
    rec.startUs = now > ago ? now - ago : 0;
    rec.durUs = us(t1 - t0);
    rec.lane = obs::SpanTracer::currentLane();
    rec.args.emplace_back("task", std::to_string(task));
    rec.args.emplace_back("parent", parent);
    if (events != 0)
        rec.args.emplace_back("events", std::to_string(events));
    tracer.record(std::move(rec));
}

/** The seven suite workloads the sweeps use (hello carries no signal
    for the cache figures, as in the sweep grids). */
std::vector<const WorkloadInfo *>
sweepSuite()
{
    std::vector<const WorkloadInfo *> out;
    for (const WorkloadInfo &w : allWorkloads()) {
        if (std::string(w.name) != "hello")
            out.push_back(&w);
    }
    return out;
}

/**
 * Input size of @p w: a seeded pick from smallArg/2 +- 2% (rounded
 * down, so the smallest arguments stay fixed): each seed is a
 * slightly different figure run and no seed changes the work much.
 * Half of smallArg keeps a cold sweep round under two seconds; at
 * smallArg a round takes ~4 s, too few rounds for a steady median in
 * a window on a shared host. Tiny runs (self-checks, and the other
 * workloads' layers in a traced run) use tinyArg, or that size when
 * it is smaller.
 */
std::int32_t
argFor(const WorkloadInfo &w, const Config &cfg)
{
    const std::int32_t centre = std::max<std::int32_t>(1, w.smallArg / 2);
    if (cfg.tiny)
        return std::min(w.tinyArg, centre);
    const std::int32_t k = centre / 50;
    Fnv name;
    name.add(std::string(w.name));
    const auto pick = static_cast<std::int32_t>(
        mix(cfg.seed, name.value()) % (2 * k + 1));
    return centre - k + pick;
}

/** Streams in largest-first order (interp runs are ~10x longer), so
    the worker pool does not end on one long straggler. */
std::vector<sweep::TraceKey>
suiteKeys(const Config &cfg)
{
    std::vector<sweep::TraceKey> keys;
    for (const bool jit : {false, true}) {
        for (const WorkloadInfo *w : sweepSuite()) {
            keys.push_back(sweep::traceKey(
                w->name,
                jit ? sweep::ExecMode::jit() : sweep::ExecMode::interp(),
                argFor(*w, cfg)));
        }
    }
    return keys;
}

/** Build every suite program once; returns the milliseconds taken. */
double
buildSuite()
{
    const auto t0 = Clock::now();
    for (const WorkloadInfo *w : sweepSuite()) {
        const Program prog = w->build();
        if (prog.methods.empty())
            throw std::runtime_error(std::string(w->name)
                                     + " built an empty program");
    }
    return msSince(t0);
}

/** Record @p keys into a fresh in-memory cache on @p jobs workers. */
std::shared_ptr<sweep::TraceCache>
recordStreams(const std::vector<sweep::TraceKey> &keys, unsigned jobs)
{
    auto cache = std::make_shared<sweep::TraceCache>();
    sweep::parallelForEach(
        sweep::resolveJobs(jobs, keys.size()), keys.size(),
        [&](std::size_t t, std::size_t) { cache->get(keys[t]); },
        "record-worker-");
    return cache;
}

void
fail(Round &out, std::string what)
{
    ++out.failed;
    out.errors.push_back(std::move(what));
}

/** Check the round's statistics digest against the first round's. */
void
checkDeterminism(Round &out, std::optional<std::uint64_t> &ref)
{
    if (!ref) {
        ref = out.simDigest;
    } else if (*ref != out.simDigest) {
        fail(out, "simulated statistics differ from the first round");
    }
}

// ------------------------------------------------------------ launch

/**
 * Programs on fresh engines, each in interp, jit and hybrid: the
 * traffic of jrs_check, the differential tests and every single
 * jrs_run. Engine set-up (the 64 MiB arena) dominates it. A round is
 * one `jrs_check diff --all-workloads --collector copying` pass (every
 * suite workload at tinyArg, copying collector with its default
 * trigger) and a batch of seeded generated programs without a
 * collector, as `jrs_check fuzz` runs them.
 */
class Launch : public Workload {
  public:
    explicit Launch(const Config &cfg) : cfg_(cfg) {}

    double setup() override {
        const std::size_t pool = cfg_.tiny ? 4 : 32;
        const auto t0 = Clock::now();
        programs_.clear();
        names_.clear();
        runs_.clear();
        // Suite runs first: they are the longest tasks, so the worker
        // pool does not end on one of them.
        for (const WorkloadInfo &w : allWorkloads()) {
            for (const check::DiffMode mode : check::allDiffModes())
                runs_.push_back({programs_.size(), mode, true, w.tinyArg});
            programs_.push_back(w.build());
            names_.push_back(w.name);
        }
        for (std::size_t i = 0; i < pool; ++i) {
            for (const check::DiffMode mode : check::allDiffModes())
                runs_.push_back({programs_.size(), mode, false, kArg});
            programs_.push_back(check::generateProgram(
                mix(cfg_.seed, 0x1a0c + i), check::GenOptions{}));
            names_.push_back("program " + std::to_string(i));
        }
        return msSince(t0);
    }

    void round(Round &out) override {
        struct Result {
            check::VmStateDigest digest;
            std::uint64_t events = 0;
            std::uint64_t translateNs = 0;
            std::uint64_t collections = 0;
            std::uint64_t gcEvents = 0;
            double constructNs = 0, runNs = 0, digestNs = 0, taskNs = 0;
            std::string error;
        };
        std::vector<Result> res(runs_.size());
        sweep::parallelForEach(
            sweep::resolveJobs(cfg_.jobs, runs_.size()), runs_.size(),
            [&](std::size_t t, std::size_t) {
                const Run &run = runs_[t];
                Result &r = res[t];
                try {
                    gc::GcOptions gc;
                    if (run.gc) {
                        gc.collector = gc::CollectorKind::Copying;
                        gc.everyNAllocs = kGcEveryNAllocs;
                    }
                    const auto t0 = Clock::now();
                    auto engine = std::make_unique<ExecutionEngine>(
                        programs_[run.program],
                        check::makeDiffConfig(run.mode, gc));
                    const auto t1 = Clock::now();
                    const RunResult rr = engine->run(run.arg);
                    const auto t2 = Clock::now();
                    r.digest = check::captureDigest(*engine, rr);
                    const auto t3 = Clock::now();
                    engine.reset();
                    const auto t4 = Clock::now();
                    r.events = rr.totalEvents;
                    r.translateNs = rr.translateBuildNs;
                    r.collections = rr.gcStats.collections;
                    r.gcEvents = rr.gcStats.gcEvents;
                    r.constructNs = nsBetween(t0, t1);
                    r.runNs = nsBetween(t1, t2);
                    r.digestNs = nsBetween(t2, t3);
                    r.taskNs = nsBetween(t0, t4);
                    span(out.traced, "vm.construct", t + 1, "launch.task",
                         t0, t1);
                    span(out.traced, "vm.run", t + 1, "launch.task", t1,
                         t2, r.events);
                    span(out.traced, "check.digest", t + 1, "launch.task",
                         t2, t3);
                    span(out.traced, "launch.task", t + 1, "", t0, t4,
                         r.events);
                } catch (const std::exception &e) {
                    r.error = e.what();
                }
            },
            "launch-worker-");

        if (cfg_.injectMismatch && res.size() > 2)
            res[2].digest.exitValue ^= 1;

        // Every run of a program must agree with that program's
        // interp run (the first of its runs).
        std::vector<const Result *> reference(programs_.size(), nullptr);
        Fnv fnv;
        double interpNs = 0, jitNs = 0, interpEv = 0, jitEv = 0;
        double gcCollections = 0, gcEvents = 0, gcTotal = 0;
        std::vector<double> constructMs, digestMs, translateMs;
        for (std::size_t t = 0; t < runs_.size(); ++t) {
            const Run &run = runs_[t];
            const Result &r = res[t];
            out.taskMs.push_back(r.taskNs / 1e6);
            out.events += r.events;
            const std::string name = names_[run.program] + " "
                + check::diffModeName(run.mode)
                + (run.gc ? "/copying" : "");
            if (!r.error.empty()) {
                fail(out, name + ": " + r.error);
                continue;
            }
            if (reference[run.program] == nullptr) {
                reference[run.program] = &r;
            } else {
                const std::string diff = check::describeDigestDiff(
                    "interp", reference[run.program]->digest, name,
                    r.digest);
                if (!diff.empty())
                    fail(out, diff);
            }
            const check::VmStateDigest &d = r.digest;
            fnv.add(std::uint64_t{d.completed});
            fnv.add(d.uncaught);
            fnv.add(std::uint64_t(std::uint32_t(d.exitValue)));
            fnv.add(d.output);
            fnv.add(d.heapAllocations);
            fnv.add(d.heapBytes);
            fnv.add(d.gcEnabled ? d.liveHeapHash : d.heapHash);
            fnv.add(d.guestThrows);
            fnv.add(d.throwChainHash);
            fnv.add(r.events);
            fnv.add(r.collections);

            constructMs.push_back(r.constructNs / 1e6);
            digestMs.push_back(r.digestNs / 1e6);
            if (run.gc) {
                gcCollections += static_cast<double>(r.collections);
                gcEvents += static_cast<double>(r.gcEvents);
                gcTotal += static_cast<double>(r.events);
            } else if (run.mode == check::DiffMode::Interp) {
                interpNs += r.runNs;
                interpEv += static_cast<double>(r.events);
            } else if (run.mode == check::DiffMode::Jit) {
                jitNs += r.runNs;
                jitEv += static_cast<double>(r.events);
                translateMs.push_back(static_cast<double>(r.translateNs)
                                      / 1e6);
            }
        }
        out.simDigest = fnv.value();
        checkDeterminism(out, ref_);

        out.layers["vm.construct_ms"] = summarize(constructMs).median;
        out.layers["vm.translate_ms"] = summarize(translateMs).median;
        out.layers["check.digest_ms"] = summarize(digestMs).median;
        if (interpEv > 0)
            out.layers["vm.interp_ns_per_event"] = interpNs / interpEv;
        if (jitEv > 0)
            out.layers["vm.jit_ns_per_event"] = jitNs / jitEv;
        out.layers["gc.collections"] = gcCollections;
        if (gcTotal > 0)
            out.layers["gc.event_share"] = gcEvents / gcTotal;
    }

  private:
    /** Collection trigger of the suite runs: the one jrs_check diff
        --collector and jrs_gc give a collector by default. */
    static constexpr std::uint64_t kGcEveryNAllocs = 64;
    /** Entry argument of every generated program (jrs_check's). */
    static constexpr std::int32_t kArg = 7;

    struct Run {
        std::size_t program;
        check::DiffMode mode;
        bool gc;
        std::int32_t arg;
    };

    Config cfg_;
    std::vector<Program> programs_;
    std::vector<std::string> names_;
    std::vector<Run> runs_;
    std::optional<std::uint64_t> ref_;
};

// ------------------------------------------------- sweep_cold, replay

/** Cache geometries of the mixed grid: the Figure 7 and 8 corners and
    the default 64K L1. */
constexpr CacheConfig kGridCaches[] = {
    {8 * 1024, 32, 1, true},
    {8 * 1024, 32, 4, true},
    {16 * 1024, 64, 2, true},
    {64 * 1024, 32, 2, true},
};

double
count(std::uint64_t v)
{
    return static_cast<double>(v);
}

/** Per stream: CacheSink at each geometry, PredictorBank, PipelineSim.
    Every metric is an exact count, so results compare bit for bit. */
std::vector<sweep::SweepPoint>
mixedGrid(const std::vector<sweep::TraceKey> &keys)
{
    std::vector<sweep::SweepPoint> grid;
    for (const sweep::TraceKey &key : keys) {
        const std::string base = key.workload + "/" + key.mode.id() + "/";
        for (const CacheConfig &c : kGridCaches) {
            grid.push_back(sweep::makePoint<CacheSink>(
                base + "cache" + std::to_string(c.sizeBytes / 1024) + "k"
                    + std::to_string(c.assoc) + "w"
                    + std::to_string(c.lineBytes) + "b",
                key, [c] { return std::make_unique<CacheSink>(c, c); },
                [](const CacheSink &s, const RecordedRun &) {
                    return std::vector<sweep::Metric>{
                        {"i_accesses", count(s.icache().stats().accesses())},
                        {"i_misses", count(s.icache().stats().misses())},
                        {"d_accesses", count(s.dcache().stats().accesses())},
                        {"d_misses", count(s.dcache().stats().misses())},
                    };
                }));
        }
        grid.push_back(sweep::makePoint<PredictorBank>(
            base + "bpred", key,
            [] { return std::make_unique<PredictorBank>(); },
            [](const PredictorBank &s, const RecordedRun &) {
                std::vector<sweep::Metric> m;
                for (const PredictorResult &r : s.results()) {
                    m.push_back({std::string(r.name) + "_mispredicts",
                                 count(r.condMispredicts)});
                }
                m.push_back({"btb_misses", count(s.btbMisses())});
                return m;
            }));
        grid.push_back(sweep::makePoint<PipelineSim>(
            base + "pipeline", key,
            [] { return std::make_unique<PipelineSim>(PipelineConfig{}); },
            [](const PipelineSim &s, const RecordedRun &run) {
                return std::vector<sweep::Metric>{
                    {"cycles", count(s.cycles())},
                    {"instructions", count(s.instructions())},
                    {"mispredicts", count(s.mispredicts())},
                    {"exit_value", count(static_cast<std::uint32_t>(
                                       run.result.exitValue))},
                };
            }));
    }
    return grid;
}

/**
 * The paper's record-then-simulate loop. Cold: a fresh SweepEngine
 * records every stream, then replays it into the grid. Warm: the
 * engine shares a cache filled during set-up, so only replay runs.
 */
class Sweep : public Workload {
  public:
    Sweep(const Config &cfg, bool warm) : cfg_(cfg), warm_(warm) {}

    double setup() override {
        const double ms = buildSuite();
        keys_ = suiteKeys(cfg_);
        grid_ = mixedGrid(keys_);
        sizes_.clear();
        if (warm_) {
            cache_.reset();  // one set of streams resident at a time
            cache_ = recordStreams(keys_, cfg_.jobs);
            for (const sweep::TraceKey &k : keys_)
                sizes_[k.str()] = cache_->get(k)->trace->size();
            largestFirst();
        }
        return ms;
    }

    void round(Round &out) override {
        sweep::SweepOptions opts;
        opts.jobs = cfg_.jobs;
        opts.cache = cache_;
        sweep::SweepEngine engine(opts);
        const auto t0 = Clock::now();
        const sweep::SweepResult res = engine.run(grid_);
        const auto t1 = Clock::now();

        // Group = one stream: acquire -> replay -> extract. Its latency
        // is the sum of its points' shares.
        std::map<std::string, double> groupS;
        std::map<std::string, double> exitValue;  // per workload/mode
        std::map<std::string, const sweep::PointResult *> byLabel;
        double pointS = 0;
        for (const sweep::PointResult &p : res.points) {
            out.events += p.traceEvents;
            groupS[p.traceKey] += p.seconds;
            pointS += p.seconds;
            sizes_[p.traceKey] = p.traceEvents;
            if (!p.ok) {
                fail(out, p.label + ": " + p.error);
                continue;
            }
            byLabel[p.label] = &p;
        }
        // Hashed in label order: the grid order changes after the
        // first cold round, the statistics must not.
        Fnv fnv;
        for (const auto &[label, p] : byLabel) {
            fnv.add(label);
            fnv.add(p->traceEvents);
            for (const sweep::Metric &m : p->metrics) {
                fnv.add(m.name);
                fnv.add(m.value);
                if (m.name == "exit_value")
                    exitValue[label] = m.value;
            }
        }
        span(out.traced, warm_ ? "sweep.replay_run" : "sweep.cold_run", 0,
             "", t0, t1, out.events);
        out.simDigest = fnv.value();
        checkDeterminism(out, ref_);

        // interp and jit runs of a workload compute the same checksum.
        for (const WorkloadInfo *w : sweepSuite()) {
            const std::string base = std::string(w->name) + "/";
            const auto interp = exitValue.find(base + "interp/pipeline");
            const auto jit = exitValue.find(base + "jit/pipeline");
            if (interp == exitValue.end() || jit == exitValue.end())
                continue;  // already failed above
            const double injected =
                cfg_.injectMismatch && w == sweepSuite().front() ? 1 : 0;
            if (interp->second != jit->second + injected) {
                fail(out, std::string(w->name)
                              + ": interp and jit exit values differ");
            }
        }

        const sweep::TraceCache::Stats &tc = res.traces;
        const std::uint64_t lookups =
            tc.recordings + tc.memoryHits + tc.diskLoads;
        if (warm_ && (tc.recordings != 0 || tc.memoryHits != keys_.size()))
            fail(out, "replay: a trace lookup missed the set-up cache");

        double maxGroup = 0;
        for (const auto &[key, s] : groupS) {
            out.taskMs.push_back(s * 1e3);
            maxGroup = std::max(maxGroup, s);
        }
        std::uint64_t traceBytes = 0;
        for (const sweep::TraceKey &k : keys_)
            traceBytes += engine.cache().get(k)->trace->memoryBytes();

        out.layers["sweep.busy_frac"] =
            pointS / (res.jobs * nsBetween(t0, t1) / 1e9);
        out.layers["sweep.max_group_s"] = maxGroup;
        out.layers["sweep.trace_hit_ratio"] = lookups == 0
            ? 0
            : count(tc.memoryHits + tc.diskLoads) / count(lookups);
        out.notes["sweep.trace_hit_ratio"] =
            "base " + std::to_string(lookups) + " lookups";
        out.layers["isa.trace_bytes"] = count(traceBytes);
        largestFirst();
    }

  private:
    /**
     * Hand the longest streams to the workers first (known from the
     * set-up recordings, or from the previous cold round), so a round
     * does not end waiting on one large group started late.
     */
    void largestFirst() {
        std::stable_sort(keys_.begin(), keys_.end(),
                         [&](const auto &a, const auto &b) {
                             return sizes_[a.str()] > sizes_[b.str()];
                         });
        grid_ = mixedGrid(keys_);
    }

    Config cfg_;
    bool warm_;
    std::vector<sweep::TraceKey> keys_;
    std::vector<sweep::SweepPoint> grid_;
    std::shared_ptr<sweep::TraceCache> cache_;
    std::map<std::string, std::uint64_t> sizes_;  ///< events per stream
    std::optional<std::uint64_t> ref_;
};

// ---------------------------------------------------------- profile

/** What an attributed or bare pipeline replay produced. */
struct PipeOutcome {
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t mispredicts = 0;
    /** Attribution total that must equal cycles (0 for bare). */
    std::uint64_t attributed = 0;
    std::uint64_t extra = 0;  ///< CCT nodes / samples taken
};

enum class Pass : std::uint8_t { Pipeline, Perf, Cct, Sample };
constexpr Pass kPasses[] = {Pass::Pipeline, Pass::Perf, Pass::Cct,
                            Pass::Sample};
constexpr const char *kPassSpan[] = {"arch.pipeline_replay",
                                     "obs.perf_replay", "prof.cct_replay",
                                     "prof.sample_replay"};

PipeOutcome
outcomeOf(const PipelineSim &p)
{
    return {p.cycles(), p.instructions(), p.mispredicts(), 0, 0};
}

/** Replay @p run through @p pass; the jrs_perf / jrs_profile path. */
PipeOutcome
replayPass(const RecordedRun &run, Pass pass)
{
    switch (pass) {
      case Pass::Pipeline: {
        PipelineSim pipe{PipelineConfig{}};
        run.trace->replay(pipe);
        return outcomeOf(pipe);
      }
      case Pass::Perf: {
        obs::AttributedPipeline ap(PipelineConfig{}, run.methods);
        run.trace->replay(ap);
        PipeOutcome o = outcomeOf(ap.pipeline());
        o.attributed = ap.perf().totals().cycles();
        return o;
      }
      case Pass::Cct: {
        prof::CctPipeline cp(PipelineConfig{}, run.methods);
        run.trace->replay(cp);
        PipeOutcome o = outcomeOf(cp.pipeline());
        o.attributed = cp.cct().totalCycles();
        o.extra = cp.cct().nodes().size();
        return o;
      }
      case Pass::Sample: {
        prof::SamplePipeline sp(PipelineConfig{}, run.methods);
        run.trace->replay(sp);
        PipeOutcome o = outcomeOf(sp.pipeline());
        o.attributed = sp.sampler().clockTotal();
        o.extra = sp.sampler().samples();
        return o;
      }
    }
    return {};
}

/**
 * Recorded streams replayed through bare PipelineSim and each
 * attribution pipeline, one task per (stream, pass).
 */
class Profile : public Workload {
  public:
    explicit Profile(const Config &cfg) : cfg_(cfg) {}

    double setup() override {
        const double ms = buildSuite();
        streams_.clear();
        const std::vector<sweep::TraceKey> keys = suiteKeys(cfg_);
        const auto cache = recordStreams(keys, cfg_.jobs);
        for (const sweep::TraceKey &k : keys)
            streams_.push_back(cache->get(k));
        std::stable_sort(streams_.begin(), streams_.end(),
                         [](const auto &a, const auto &b) {
                             return a->trace->size() > b->trace->size();
                         });
        return ms;
    }

    void round(Round &out) override {
        const std::size_t n = streams_.size() * std::size(kPasses);
        std::vector<PipeOutcome> res(n);
        std::vector<double> ns(n, 0);
        std::vector<std::string> errors(n);
        sweep::parallelForEach(
            sweep::resolveJobs(cfg_.jobs, n), n,
            [&](std::size_t t, std::size_t) {
                const RecordedRun &run = *streams_[t / std::size(kPasses)];
                const std::size_t pass = t % std::size(kPasses);
                try {
                    const auto t0 = Clock::now();
                    res[t] = replayPass(run, kPasses[pass]);
                    const auto t1 = Clock::now();
                    ns[t] = nsBetween(t0, t1);
                    span(out.traced, kPassSpan[pass], t + 1, "", t0, t1,
                         run.trace->size());
                } catch (const std::exception &e) {
                    errors[t] = e.what();
                }
            },
            "profile-worker-");

        if (cfg_.injectMismatch && n > 2)
            res[2].attributed ^= 1;

        Fnv fnv;
        double passNs[std::size(kPasses)] = {};
        double events = 0;
        for (std::size_t t = 0; t < n; ++t) {
            const RecordedRun &run = *streams_[t / std::size(kPasses)];
            const std::size_t pass = t % std::size(kPasses);
            const PipeOutcome &o = res[t];
            const PipeOutcome &bare = res[t - pass];
            const std::string label =
                std::string(kPassSpan[pass]) + " of stream "
                + std::to_string(t / std::size(kPasses));
            out.taskMs.push_back(ns[t] / 1e6);
            out.events += run.trace->size();
            passNs[pass] += ns[t];
            if (pass == 0)
                events += count(run.trace->size());
            if (!errors[t].empty()) {
                fail(out, label + ": " + errors[t]);
                continue;
            }
            // Attribution observes the model; it never changes timing,
            // and every pass conserves the pipeline's cycle count.
            if (o.cycles != bare.cycles || o.instructions != bare.instructions
                || o.mispredicts != bare.mispredicts) {
                fail(out, label + ": pipeline statistics differ from the "
                              "bare replay");
            } else if (pass != 0 && o.attributed != o.cycles) {
                fail(out, label + ": attributed cycles "
                              + std::to_string(o.attributed)
                              + " != pipeline cycles "
                              + std::to_string(o.cycles));
            }
            fnv.add(o.cycles);
            fnv.add(o.instructions);
            fnv.add(o.mispredicts);
            fnv.add(o.attributed);
            fnv.add(o.extra);
        }
        out.simDigest = fnv.value();
        checkDeterminism(out, ref_);
        if (events > 0) {
            out.layers["obs.perf_ns_per_event"] =
                (passNs[1] - passNs[0]) / events;
            out.layers["prof.cct_ns_per_event"] =
                (passNs[2] - passNs[0]) / events;
            out.layers["prof.sample_ns_per_event"] =
                (passNs[3] - passNs[0]) / events;
        }
    }

  private:
    Config cfg_;
    std::vector<std::shared_ptr<const RecordedRun>> streams_;
    std::optional<std::uint64_t> ref_;
};

// ----------------------------------------------------------- layers

class NullSink : public TraceSink {
  public:
    void onEvent(const TraceEvent &) override {}
};

/**
 * One layer at a time, single-threaded, on db and javac in both
 * modes: the guest VM without a sink, the same run recording into a
 * TraceBuffer, and the recorded stream replayed into nothing (the
 * dispatch floor), into each architecture model alone, and through
 * each attribution pipeline. Differences give each layer's ns/event.
 */
class Layers : public Workload {
  public:
    explicit Layers(const Config &cfg) : cfg_(cfg) {}

    double setup() override {
        const auto t0 = Clock::now();
        programs_.clear();
        for (const char *name : {"db", "javac"}) {
            const WorkloadInfo *w = findWorkload(name);
            programs_.push_back({w, w->build()});
        }
        return msSince(t0);
    }

    void round(Round &out) override {
        Fnv fnv;
        double runNs[2] = {}, runEv[2] = {};
        double recordNs = 0, nullNs = 0, events = 0, bytes = 0;
        double modelNs[3] = {}, passNs[std::size(kPasses)] = {};
        std::uint64_t task = 0;
        for (const auto &[w, prog] : programs_) {
            for (const bool jit : {false, true}) {
                ++task;
                EngineConfig cfg;
                cfg.policy = jit
                    ? std::static_pointer_cast<CompilationPolicy>(
                          std::make_shared<AlwaysCompilePolicy>())
                    : std::static_pointer_cast<CompilationPolicy>(
                          std::make_shared<NeverCompilePolicy>());
                const std::int32_t arg = argFor(*w, cfg_);
                // Only run() is timed; construction is vm.construct_ms.
                RunResult plain;
                Clock::time_point t0, t1;
                {
                    ExecutionEngine bare(prog, cfg);
                    t0 = Clock::now();
                    plain = bare.run(arg);
                    t1 = Clock::now();
                }

                RecordedRun rec;
                auto buffer = std::make_shared<TraceBuffer>();
                cfg.sink = buffer.get();
                ExecutionEngine engine(prog, cfg);
                const auto t2 = Clock::now();
                rec.result = engine.run(arg);
                const auto t3 = Clock::now();
                rec.trace = buffer;
                rec.methods = std::make_shared<obs::MethodMap>(
                    obs::MethodMap::forRun(engine.registry(),
                                           engine.codeCache()));
                span(out.traced, "vm.run", task, "layers.task", t0, t1,
                     plain.totalEvents);
                span(out.traced, "isa.record_run", task, "layers.task", t2,
                     t3, rec.result.totalEvents);
                if (plain.totalEvents != rec.result.totalEvents
                    || plain.exitValue != rec.result.exitValue
                    || buffer->size() != plain.totalEvents) {
                    fail(out, std::string(w->name)
                                  + ": recording changed the run");
                    continue;
                }
                const double ev = count(plain.totalEvents);
                runNs[jit] += nsBetween(t0, t1);
                runEv[jit] += ev;
                recordNs += nsBetween(t2, t3) - nsBetween(t0, t1);
                events += ev;
                bytes += count(buffer->memoryBytes());

                const auto timed = [&](const char *name, TraceSink &sink) {
                    const auto s0 = Clock::now();
                    buffer->replay(sink);
                    const auto s1 = Clock::now();
                    span(out.traced, name, task, "layers.task", s0, s1,
                         plain.totalEvents);
                    return nsBetween(s0, s1);
                };
                NullSink null;
                const double floor = timed("isa.replay_null", null);
                nullNs += floor;
                CacheSink caches{CacheConfig{}, CacheConfig{}};
                modelNs[0] += timed("arch.cache_replay", caches) - floor;
                PredictorBank bank;
                modelNs[1] += timed("arch.bpred_replay", bank) - floor;
                for (const Pass pass : kPasses) {
                    const auto s0 = Clock::now();
                    const PipeOutcome o = replayPass(rec, pass);
                    const auto s1 = Clock::now();
                    const auto i = static_cast<std::size_t>(pass);
                    span(out.traced, kPassSpan[i], task, "layers.task", s0,
                         s1, plain.totalEvents);
                    passNs[i] += nsBetween(s0, s1);
                    if (pass == Pass::Pipeline)
                        modelNs[2] += nsBetween(s0, s1) - floor;
                    fnv.add(o.cycles);
                    fnv.add(o.attributed);
                }
                fnv.add(caches.icache().stats().misses());
                fnv.add(caches.dcache().stats().misses());
                fnv.add(bank.btbMisses());
                out.taskMs.push_back(msSince(t0));
                out.events += plain.totalEvents;
            }
        }
        out.simDigest = fnv.value();
        checkDeterminism(out, ref_);
        if (events == 0)
            return;
        for (const bool jit : {false, true}) {
            if (runEv[jit] > 0) {
                out.layers[jit ? "vm.jit_ns_per_event"
                               : "vm.interp_ns_per_event"] =
                    runNs[jit] / runEv[jit];
            }
        }
        out.layers["isa.record_ns_per_event"] = recordNs / events;
        out.layers["isa.trace_bytes"] = bytes;
        out.layers["isa.replay_null_ns_per_event"] = nullNs / events;
        out.layers["arch.cache_ns_per_event"] = modelNs[0] / events;
        out.layers["arch.bpred_ns_per_event"] = modelNs[1] / events;
        out.layers["arch.pipeline_ns_per_event"] = modelNs[2] / events;
        out.layers["obs.perf_ns_per_event"] =
            (passNs[1] - passNs[0]) / events;
        out.layers["prof.cct_ns_per_event"] =
            (passNs[2] - passNs[0]) / events;
        out.layers["prof.sample_ns_per_event"] =
            (passNs[3] - passNs[0]) / events;
    }

  private:
    Config cfg_;
    std::vector<std::pair<const WorkloadInfo *, Program>> programs_;
    std::optional<std::uint64_t> ref_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "launch", "sweep_cold", "replay", "profile"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Config &cfg)
{
    if (name == "launch")
        return std::make_unique<Launch>(cfg);
    if (name == "sweep_cold")
        return std::make_unique<Sweep>(cfg, false);
    if (name == "replay")
        return std::make_unique<Sweep>(cfg, true);
    if (name == "profile")
        return std::make_unique<Profile>(cfg);
    if (name == "layers")
        return std::make_unique<Layers>(cfg);
    return nullptr;
}

} // namespace hostbench

#include "harness/experiment.h"

namespace jrs {

namespace {

/** The engine configuration @p spec describes, observed by @p sink. */
EngineConfig
engineConfig(const RunSpec &spec, TraceSink *sink)
{
    if (spec.workload == nullptr)
        throw VmError("RunSpec without workload");
    EngineConfig cfg;
    cfg.policy = spec.policy ? spec.policy
                             : std::make_shared<AlwaysCompilePolicy>();
    cfg.syncKind = spec.syncKind;
    cfg.jitInlining = spec.jitInlining;
    cfg.interpreterFolding = spec.interpreterFolding;
    cfg.sink = sink;
    cfg.quantum = spec.quantum;
    cfg.gc = spec.gc;
    cfg.heapBytes = spec.heapBytes;
    cfg.codeCache = spec.codeCache;
    cfg.osrBackEdgeThreshold = spec.osrBackEdgeThreshold;
    cfg.sharedCodeCache = spec.sharedCache;
    cfg.sharedProgramKey = spec.workload->name;
    return cfg;
}

/** Run @p engine at @p spec's argument; throws unless it completes. */
RunResult
runCompleted(ExecutionEngine &engine, const RunSpec &spec)
{
    RunResult res = engine.run(spec.arg != 0 ? spec.arg
                                             : spec.workload->smallArg);
    if (!res.completed) {
        throw VmError(std::string(spec.workload->name)
                      + " did not complete: "
                      + (res.uncaughtException != nullptr
                             ? res.uncaughtException
                             : "unknown"));
    }
    return res;
}

} // namespace

RunResult
runWorkload(const RunSpec &spec, std::uint64_t *liveHeapHash)
{
    const EngineConfig cfg = engineConfig(spec, spec.sink);
    const Program prog = spec.workload->build();
    ExecutionEngine engine(prog, cfg);
    RunResult res = runCompleted(engine, spec);
    if (liveHeapHash != nullptr)
        *liveHeapHash = engine.liveHeapHash();
    return res;
}

RecordedRun
recordWorkload(const RunSpec &spec)
{
    auto buffer = std::make_shared<TraceBuffer>();
    MultiSink fanout;
    fanout.add(buffer.get());
    if (spec.sink != nullptr)
        fanout.add(spec.sink);

    // The engine must stay alive after run() so the method map
    // (registry + code cache ranges) can be captured.
    const EngineConfig cfg = engineConfig(spec, &fanout);
    const Program prog = spec.workload->build();
    ExecutionEngine engine(prog, cfg);
    RecordedRun out;
    out.result = runCompleted(engine, spec);
    out.trace = std::move(buffer);
    out.methods = std::make_shared<obs::MethodMap>(
        obs::MethodMap::forRun(engine.registry(), engine.codeCache()));
    return out;
}

ModePair
runBothModes(const WorkloadInfo &w, std::int32_t arg,
             TraceSink *interp_sink, TraceSink *jit_sink)
{
    ModePair out;
    {
        RunSpec s;
        s.workload = &w;
        s.arg = arg;
        s.policy = std::make_shared<NeverCompilePolicy>();
        s.sink = interp_sink;
        out.interp = runWorkload(s);
    }
    {
        RunSpec s;
        s.workload = &w;
        s.arg = arg;
        s.policy = std::make_shared<AlwaysCompilePolicy>();
        s.sink = jit_sink;
        out.jit = runWorkload(s);
    }
    if (out.interp.exitValue != out.jit.exitValue) {
        throw VmError(std::string(w.name)
                      + ": interp/JIT checksum divergence");
    }
    return out;
}

OracleOutcome
runOracleExperiment(const WorkloadInfo &w, std::int32_t arg,
                    TraceSink *oracle_sink)
{
    OracleOutcome out;
    ModePair profiling = runBothModes(w, arg, nullptr, nullptr);
    out.interpRun = std::move(profiling.interp);
    out.jitRun = std::move(profiling.jit);
    out.decisions = computeOracleDecisions(out.interpRun.profiles,
                                           out.jitRun.profiles);
    auto oracle = std::make_shared<OraclePolicy>(out.decisions);
    out.methodsCompiledByOracle = oracle->numCompiled();
    RunSpec s;
    s.workload = &w;
    s.arg = arg;
    s.policy = oracle;
    s.sink = oracle_sink;
    out.oracleRun = runWorkload(s);
    if (out.oracleRun.exitValue != out.jitRun.exitValue)
        throw VmError(std::string(w.name) + ": oracle run diverged");
    return out;
}

} // namespace jrs

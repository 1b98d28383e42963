/**
 * @file
 * Simulated virtual address space layout.
 *
 * The trace addresses must be realistic for the cache studies: the
 * interpreter's handler code lives in one compact segment (its working
 * set is the famous ~220-case switch), JIT-generated code is installed
 * method-by-method in a code cache, bytecode and class metadata are
 * *data* to the interpreter and the translator, and Java heap and
 * thread stacks have their own regions. The constants below carve a
 * 64-bit space into disjoint segments.
 */
#ifndef JRS_ISA_ADDRESS_MAP_H
#define JRS_ISA_ADDRESS_MAP_H

#include <cstdint>

namespace jrs {

/** Simulated virtual address. */
using SimAddr = std::uint64_t;

/** Segment base addresses (disjoint 256 MiB regions). */
namespace seg {

/** Interpreter dispatch loop + per-opcode handler bodies. */
inline constexpr SimAddr kInterpCode = 0x1000'0000ull;

/** JIT compiler (translator) code. */
inline constexpr SimAddr kTranslateCode = 0x2000'0000ull;

/** Code cache: JIT-generated native method bodies. */
inline constexpr SimAddr kCodeCache = 0x3000'0000ull;

/** Runtime service routines (allocation, sync, array copy, math). */
inline constexpr SimAddr kRuntimeCode = 0x4000'0000ull;

/** Java heap: objects and arrays. */
inline constexpr SimAddr kHeap = 0x5000'0000ull;

/** Java thread stacks (frames: locals + operand stacks). */
inline constexpr SimAddr kStacks = 0x6000'0000ull;

/** Bytecode streams + constant pools + class metadata (read as data). */
inline constexpr SimAddr kClassData = 0x7000'0000ull;

/** JIT compiler working data (IR buffers, maps). */
inline constexpr SimAddr kTranslateData = 0x8000'0000ull;

/** Runtime data structures (monitor cache, thread tables). */
inline constexpr SimAddr kRuntimeData = 0x9000'0000ull;

/** Size of each segment. */
inline constexpr SimAddr kSegmentSize = 0x1000'0000ull;

/** One past the last mapped address: every pc, mem and target is
    below it, so each fits TraceBuffer's 32-bit record fields. */
inline constexpr SimAddr kEnd = kRuntimeData + kSegmentSize;

} // namespace seg

/**
 * Well-known stub addresses inside the code segments.
 *
 * The VM components brand their trace-visible entry/exit points with
 * fixed synthetic pcs: the interpreter's invoke stubs, the per-method
 * runtime invoke trampolines the JIT calls through, the runtime
 * service routines, and the translator's dispatch/emit/setup loops.
 * The emitting components (interpreter, executor, runtime support,
 * translator) and the consumers that must recognize call targets
 * (jrs::prof's calling-context tree) share one definition so the
 * stream layout cannot silently drift.
 */
namespace stub {

/** Interpreter invoke stub (InvokeStatic/Special Call site pc). */
inline constexpr SimAddr kInvokeStubBase = seg::kInterpCode + 0x800;

/** Per-method invoke trampoline: Call/IndirectCall target. */
inline constexpr SimAddr kMethodStubBase = seg::kRuntimeCode + 0x1000;

/** Bytes between consecutive method trampolines. */
inline constexpr SimAddr kMethodStubStride = 0x40;

/** Trampoline address for method @p id. */
inline constexpr SimAddr methodStubOf(std::uint32_t id) {
    return kMethodStubBase + kMethodStubStride * id;
}

/** True if @p a is a per-method invoke trampoline address. */
inline constexpr bool isMethodStub(SimAddr a) {
    return a >= kMethodStubBase && a < seg::kRuntimeCode + seg::kSegmentSize &&
           (a - kMethodStubBase) % kMethodStubStride == 0;
}

/** MethodId encoded in trampoline address @p a (see isMethodStub). */
inline constexpr std::uint32_t methodIdOfStub(SimAddr a) {
    return static_cast<std::uint32_t>((a - kMethodStubBase) /
                                      kMethodStubStride);
}

/** Runtime allocation routine (objects at +0x0, arrays at +0x40). */
inline constexpr SimAddr kAllocPc = seg::kRuntimeCode + 0x500;

/** Runtime System.arraycopy routine. */
inline constexpr SimAddr kCopyPc = seg::kRuntimeCode + 0x600;

/** Translator bytecode-walk dispatch loop. */
inline constexpr SimAddr kTransDispatch = seg::kTranslateCode;

/** Translator code-emission routines (per-opcode). */
inline constexpr SimAddr kTransEmit = seg::kTranslateCode + 0x400;

/** Translator per-compilation setup/install bracket. */
inline constexpr SimAddr kTransSetup = seg::kTranslateCode + 0x600;

/** Ret pc of the translator's final install return. */
inline constexpr SimAddr kTransInstallRet = kTransSetup + 4;

} // namespace stub

/** True if @p a falls inside the segment starting at @p base. */
inline bool
inSegment(SimAddr a, SimAddr base)
{
    return a >= base && a < base + seg::kSegmentSize;
}

/** Per-thread stack region size (1 MiB each, carved from kStacks). */
inline constexpr SimAddr kThreadStackSize = 0x10'0000ull;

/** Base address of thread @p tid's stack region. */
inline SimAddr
threadStackBase(std::uint32_t tid)
{
    return seg::kStacks + static_cast<SimAddr>(tid) * kThreadStackSize;
}

} // namespace jrs

#endif // JRS_ISA_ADDRESS_MAP_H

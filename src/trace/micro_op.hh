/**
 * @file
 * MicroOp: one dynamic instruction of a workload trace.
 *
 * The trace is the interface between the synthetic workload kernels and
 * the timing model. It carries everything the paper's hardware can see:
 * the PC, the operation class, architectural register sources/destination,
 * the memory address and (for loads) the value the access returns.
 */

#ifndef CATCHSIM_TRACE_MICRO_OP_HH_
#define CATCHSIM_TRACE_MICRO_OP_HH_

#include <cstdint>

#include "common/types.hh"

namespace catchsim
{

/** Functional-unit class of an instruction. */
enum class OpClass : uint8_t
{
    Alu,    ///< single-cycle integer op
    Mul,    ///< integer multiply (3 cycles)
    Div,    ///< integer divide (20 cycles, unpipelined-ish)
    FpAdd,  ///< FP add/sub (4 cycles)
    FpMul,  ///< FP multiply / FMA (4 cycles)
    FpDiv,  ///< FP divide / sqrt (15 cycles)
    Load,
    Store,
    Branch, ///< conditional or unconditional control transfer
    Nop,
};

/** Fixed execution latency of non-memory op classes, in core cycles. */
constexpr uint32_t
opLatency(OpClass cls)
{
    switch (cls) {
      case OpClass::Alu: return 1;
      case OpClass::Mul: return 3;
      case OpClass::Div: return 20;
      case OpClass::FpAdd: return 4;
      case OpClass::FpMul: return 4;
      case OpClass::FpDiv: return 15;
      case OpClass::Branch: return 1;
      case OpClass::Store: return 1; ///< address/data ready to commit
      default: return 1;
    }
}

/** True for classes that execute on the FP pipes. */
constexpr bool
isFpClass(OpClass cls)
{
    return cls == OpClass::FpAdd || cls == OpClass::FpMul ||
           cls == OpClass::FpDiv;
}

/** Maximum number of register sources an instruction can name. */
constexpr uint32_t kMaxSrcs = 3;

/**
 * Architectural registers the trace format can name: a MicroOp's dst
 * and srcs are -1 (none) or 0..kNumArchRegs-1. Trace files and chunk
 * records reject any other index, and every register-indexed table
 * (the core's scoreboard, TACT's feeder tracking) has this many
 * entries, so no index a trace carries can reach past one.
 */
constexpr int kNumArchRegs = 64;

/**
 * One dynamic instruction. Instructions are 4 bytes long in our ISA.
 *
 * The layout is packed to 32 bytes (half a cache line) because the
 * simulator streams billions of these through the core model: memAddr
 * and target share storage — an op is a memory access or a control
 * transfer, never both — and the byte-wide fields are grouped so the
 * struct carries no internal padding beyond the 2-byte tail.
 */
struct MicroOp
{
    Addr pc = 0;
    union
    {
        Addr memAddr = 0; ///< loads and stores
        Addr target;      ///< branches: actual taken target
    };
    uint64_t value = 0;                ///< load result / store data
    OpClass cls = OpClass::Nop;
    int8_t dst = -1;                   ///< destination arch reg or -1
    int8_t src[kMaxSrcs] = {-1, -1, -1};
    bool taken = false;                ///< branches: actual direction

    bool isLoad() const { return cls == OpClass::Load; }
    bool isStore() const { return cls == OpClass::Store; }
    bool isBranch() const { return cls == OpClass::Branch; }

    /** Address of the next dynamic instruction. */
    Addr
    nextPc() const
    {
        return (isBranch() && taken) ? target : pc + 4;
    }
};

static_assert(sizeof(MicroOp) <= 32,
              "MicroOp must stay within half a cache line; the hot "
              "simulation loop streams these by the billions");

} // namespace catchsim

#endif // CATCHSIM_TRACE_MICRO_OP_HH_

/**
 * @file
 * Execution-unit latency model.
 *
 * Units are fully pipelined: an instruction issued at cycle t writes
 * back at t + latency(class). Memory latency is computed by the memory
 * system; the LSU latency here covers address generation and the
 * shared-memory path.
 */

#ifndef REGLESS_ARCH_EXEC_UNIT_HH
#define REGLESS_ARCH_EXEC_UNIT_HH

#include "common/types.hh"
#include "ir/instruction.hh"

namespace regless::arch
{

/** @name Pipeline latencies per functional-unit class (Table 1). */
/// @{
inline constexpr Cycle kAluLatency = 6;
inline constexpr Cycle kSfuLatency = 20;
inline constexpr Cycle kSharedMemLatency = 28;
inline constexpr Cycle kControlLatency = 1;
/// @}

/** Latency for @a insn, excluding global-memory time. */
inline Cycle
execLatency(const ir::Instruction &insn)
{
    switch (insn.fuClass()) {
      case ir::FuClass::Alu:
        return kAluLatency;
      case ir::FuClass::Sfu:
        return kSfuLatency;
      case ir::FuClass::Mem:
        return insn.isSharedAccess() ? kSharedMemLatency : 0;
      case ir::FuClass::Control:
        return kControlLatency;
    }
    return kAluLatency;
}

} // namespace regless::arch

#endif // REGLESS_ARCH_EXEC_UNIT_HH

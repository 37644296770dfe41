/**
 * @file
 * Warp: 32 threads executing in lockstep, with functional register
 * state and divergence tracking.
 */

#ifndef REGLESS_ARCH_WARP_HH
#define REGLESS_ARCH_WARP_HH

#include <vector>

#include "arch/simt_stack.hh"
#include "common/types.hh"
#include "ir/instruction.hh"

namespace regless::arch
{

/** Execution status of a warp. */
enum class WarpStatus
{
    Running,
    AtBarrier, ///< arrived at a barrier, waiting for the block
    Finished,
};

/**
 * Architectural state of one warp. Timing state (scoreboard entries,
 * staging-unit residency) lives in the SM and register providers.
 */
class Warp
{
  public:
    /**
     * @param id Hardware warp slot in the SM.
     * @param block_id Thread-block this warp belongs to (tenant-local
     *        under multi-tenant operation).
     * @param num_regs Register count of the kernel.
     * @param local_id Kernel-local warp index: equals @a id for a
     *        whole-SM launch; under multi-tenant operation it is the
     *        offset inside the tenant's warp partition, so Tid/CtaId
     *        see the same launch geometry as a solo run.
     */
    Warp(WarpId id, unsigned block_id, unsigned num_regs,
         WarpId local_id);
    Warp(WarpId id, unsigned block_id, unsigned num_regs);

    WarpId id() const { return _id; }
    unsigned blockId() const { return _blockId; }

    WarpStatus status() const { return _status; }
    void setStatus(WarpStatus s) { _status = s; }
    bool finished() const { return _status == WarpStatus::Finished; }

    Pc pc() const { return _stack.pc(); }
    LaneMask activeMask() const { return _stack.activeMask(); }
    SimtStack &stack() { return _stack; }
    const SimtStack &stack() const { return _stack; }

    /** Kernel-local thread index of lane 0 (used by Tid). */
    unsigned threadBase() const { return _localId * warpSize; }

    /** @name Functional register file (per-lane values). */
    /// @{
    const ir::LaneValues &regValue(RegId reg) const;

    /**
     * Write @a value into @a reg, merging under @a mask (inactive
     * lanes keep their old value — the soft-definition semantics).
     */
    void writeReg(RegId reg, const ir::LaneValues &value, LaneMask mask);
    /// @}

    /** Dynamic instruction count executed by this warp. */
    std::uint64_t insnsExecuted() const { return _insnsExecuted; }
    void countInsn() { ++_insnsExecuted; }

  private:
    WarpId _id;
    WarpId _localId;
    unsigned _blockId;
    WarpStatus _status = WarpStatus::Running;
    SimtStack _stack;
    std::vector<ir::LaneValues> _regs;
    std::uint64_t _insnsExecuted = 0;
};

} // namespace regless::arch

#endif // REGLESS_ARCH_WARP_HH

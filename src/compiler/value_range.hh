/**
 * @file
 * Static value-range analysis (DESIGN.md §14).
 *
 * A forward abstract interpretation over the kernel CFG computing, for
 * every (pc, register), a ValueFacts element: an unsigned interval
 * [lo, hi] every lane's value lies in, crossed with a lane-shape fact
 * (affine: lane i holds base + stride * i mod 2^32; uniform is the
 * stride-0 case). The fixpoint joins at merge points and widens on
 * loop back-edges, reusing the cfg_analysis block machinery.
 *
 * Soundness under SIMT divergence: register writes merge under the
 * active lane mask (arch::Warp::writeReg), so a definition inside a
 * branch's influence region leaves stale values in the inactive lanes.
 * The analysis therefore joins the old facts into any definition whose
 * block may execute under a partial mask (the divergence analogue of
 * the liveness pass's soft definitions), keeping every fact true of
 * all 32 lanes — which is what the eviction compressor sees.
 *
 * Consumers: the lifetime annotator derives per-region StaticEncoding
 * annotations (compiler/region.hh), the staging checker lints them,
 * and the energy model gates OSU banks via proven footprint bounds.
 */

#ifndef REGLESS_COMPILER_VALUE_RANGE_HH
#define REGLESS_COMPILER_VALUE_RANGE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "compiler/region.hh"
#include "ir/cfg_analysis.hh"
#include "ir/instruction.hh"
#include "ir/kernel.hh"
#include "ir/liveness.hh"

namespace regless::compiler
{

/**
 * One lattice element: interval x lane shape. Bottom ("no value
 * reaches here") is the join identity; Top is the full interval with
 * no shape fact. Affine facts hold modulo 2^32, matching both the
 * hardware's wrap-around arithmetic and the compressor's stride check,
 * so the shape component stays exact even when the interval overflows
 * to Top.
 */
struct ValueFacts
{
    bool bottom = true;
    std::uint32_t lo = 0;
    std::uint32_t hi = 0xffffffffu;
    /** lane i = lanes[0] + stride * i (mod 2^32). */
    bool affine = false;
    std::uint32_t stride = 0;

    /** Any value at all: full interval, no shape. */
    static ValueFacts top();

    /** All lanes equal @a v. */
    static ValueFacts constant(std::uint32_t v);

    /** Every lane in [@a lo, @a hi], no shape fact. */
    static ValueFacts range(std::uint32_t lo, std::uint32_t hi);

    /** Unknown base, lanes striding by @a stride (full interval). */
    static ValueFacts lanesAffine(std::uint32_t stride);

    bool isBottom() const { return bottom; }
    bool isTop() const
    {
        return !bottom && lo == 0 && hi == 0xffffffffu && !affine;
    }

    /** All lanes provably equal (affine with stride 0). */
    bool uniform() const { return !bottom && affine && stride == 0; }

    /** Single known value (degenerate interval, hence uniform). */
    bool isConstant() const { return !bottom && lo == hi; }

    /** @return true when @a lanes satisfies every claimed fact. */
    bool contains(const ir::LaneValues &lanes) const;

    bool operator==(const ValueFacts &other) const;
    bool operator!=(const ValueFacts &other) const
    {
        return !(*this == other);
    }

    /** "[0x10,0x1f] stride 1"-style rendering for diagnostics. */
    std::string toString() const;
};

/** Lattice partial order: a is at least as precise as b. */
bool leq(const ValueFacts &a, const ValueFacts &b);

/** Least upper bound: interval hull plus shape merge. */
ValueFacts join(const ValueFacts &a, const ValueFacts &b);

/**
 * Widening operator: like join, but a bound that grew past @a a blows
 * straight to its extreme, bounding every ascending chain.
 */
ValueFacts widen(const ValueFacts &a, const ValueFacts &b);

/**
 * Full-mask transfer function for one register-writing instruction:
 * facts of the destination given facts of each source operand (in
 * insn.srcs() order). Pure; exposed for the per-opcode unit tests.
 * Loads yield Top (runtime values), Tid is affine stride 1, CtaId is
 * uniform; both have unconstrained intervals because the SM adds the
 * warp thread base / broadcasts the block id at execution time.
 */
ValueFacts transferInsn(const ir::Instruction &insn,
                        const std::vector<ValueFacts> &srcs);

/** Strongest encoding the facts prove (None when nothing does). */
StaticEncoding classifyEncoding(const ValueFacts &facts);

/** Runtime guard: does @a lanes actually satisfy @a enc? */
bool encodingHolds(StaticEncoding enc, const ir::LaneValues &lanes);

/** Lint check: do @a facts justify recording @a enc? */
bool encodingImplied(StaticEncoding enc, const ValueFacts &facts);

/**
 * Bytes a register provably needs in a backing line under @a enc
 * (4 for a uniform scalar, 64 for the 16-bit encodings, 128 plain).
 */
unsigned encodingBytes(StaticEncoding enc);

/**
 * The kernel-wide fixpoint. Facts are per (pc, register): before() is
 * the state in which the instruction at @a pc executes, after() the
 * state it leaves. Unreachable code reports Bottom. Only each block's
 * entry state is kept; a query replays the block up to @a pc, so the
 * analysis a compiled kernel carries for the whole run stays small.
 */
class ValueRangeAnalysis
{
  public:
    ValueRangeAnalysis(const ir::Kernel &kernel,
                       const ir::CfgAnalysis &cfg,
                       const ir::Liveness &live);

    /** Facts immediately before the instruction at @a pc executes. */
    ValueFacts before(Pc pc, RegId reg) const;

    /** Facts immediately after the instruction at @a pc executes. */
    ValueFacts after(Pc pc, RegId reg) const;

    /**
     * Per register (indexed by RegId), the join of after() over every
     * reachable instruction that defines it; Bottom when none does.
     * Replays each block once.
     */
    std::vector<ValueFacts> joinedDefFacts() const;

    /**
     * @return true when every dynamic execution of @a b runs with the
     * full lane mask: @a b is outside every branch's influence region
     * and no reachable Exit diverges lanes away earlier.
     */
    bool fullMaskBlock(ir::BlockId b) const
    {
        return !_partialMask.test(b);
    }

  private:
    using State = std::vector<ValueFacts>;

    void computePartialMaskBlocks();
    void solve();
    void applyInsn(Pc pc, State &state) const;

    /** The state @a pc executes in, replayed from its block's entry. */
    State stateBefore(Pc pc) const;

    const ir::Kernel &_kernel;
    const ir::CfgAnalysis &_cfg;
    const ir::Liveness &_live;
    ir::BlockSet _partialMask;
    /** Fixpoint state at each block's entry (Bottom if unreachable). */
    std::vector<State> _blockIn;
};

} // namespace regless::compiler

#endif // REGLESS_COMPILER_VALUE_RANGE_HH

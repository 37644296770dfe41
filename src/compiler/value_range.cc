#include "compiler/value_range.hh"

#include <algorithm>
#include <deque>
#include <sstream>

#include "common/logging.hh"

namespace regless::compiler
{

namespace
{

constexpr std::uint32_t u32Max = 0xffffffffu;

/** Canonical form: a degenerate interval is a uniform constant. */
ValueFacts
normalize(ValueFacts f)
{
    if (f.bottom)
        return ValueFacts{};
    if (f.lo == f.hi) {
        f.affine = true;
        f.stride = 0;
    }
    if (!f.affine)
        f.stride = 0;
    return f;
}

ValueFacts
makeFacts(std::uint32_t lo, std::uint32_t hi, bool affine,
          std::uint32_t stride)
{
    ValueFacts f;
    f.bottom = false;
    f.lo = lo;
    f.hi = hi;
    f.affine = affine;
    f.stride = stride;
    return normalize(f);
}

/** Shape of a sum: strides add lane-wise, exactly, mod 2^32. */
void
shapeAdd(const ValueFacts &a, const ValueFacts &b, ValueFacts &out)
{
    if (a.affine && b.affine) {
        out.affine = true;
        out.stride = a.stride + b.stride;
    } else {
        out.affine = false;
        out.stride = 0;
    }
}

/** Interval of a + c (mod 2^32): precise when no value straddles the
 * wrap point — all shift up, or all wrap around together. */
void
intervalAddConst(const ValueFacts &a, std::uint32_t c, ValueFacts &out)
{
    const std::uint64_t l = static_cast<std::uint64_t>(a.lo) + c;
    const std::uint64_t h = static_cast<std::uint64_t>(a.hi) + c;
    if (h <= u32Max) {
        out.lo = static_cast<std::uint32_t>(l);
        out.hi = static_cast<std::uint32_t>(h);
    } else if (l > u32Max) {
        out.lo = static_cast<std::uint32_t>(l);
        out.hi = static_cast<std::uint32_t>(h);
    } else {
        out.lo = 0;
        out.hi = u32Max;
    }
}

ValueFacts
transferAdd(const ValueFacts &a, const ValueFacts &b)
{
    ValueFacts f;
    f.bottom = false;
    if (b.isConstant()) {
        intervalAddConst(a, b.lo, f);
    } else if (a.isConstant()) {
        intervalAddConst(b, a.lo, f);
    } else {
        const std::uint64_t h =
            static_cast<std::uint64_t>(a.hi) + b.hi;
        if (h <= u32Max) {
            f.lo = a.lo + b.lo;
            f.hi = static_cast<std::uint32_t>(h);
        } else {
            f.lo = 0;
            f.hi = u32Max;
        }
    }
    shapeAdd(a, b, f);
    return normalize(f);
}

ValueFacts
transferSub(const ValueFacts &a, const ValueFacts &b)
{
    ValueFacts f;
    f.bottom = false;
    if (a.lo >= b.hi) {
        f.lo = a.lo - b.hi;
        f.hi = a.hi - b.lo;
    } else {
        f.lo = 0;
        f.hi = u32Max;
    }
    if (a.affine && b.affine) {
        f.affine = true;
        f.stride = a.stride - b.stride;
    }
    return normalize(f);
}

/** a * c for a known constant c; shape is exact mod 2^32. */
ValueFacts
transferMulConst(const ValueFacts &a, std::uint32_t c)
{
    ValueFacts f;
    f.bottom = false;
    if (c == 0) {
        f.lo = 0;
        f.hi = 0;
    } else if (static_cast<std::uint64_t>(a.hi) * c <= u32Max) {
        f.lo = a.lo * c;
        f.hi = a.hi * c;
    } else {
        f.lo = 0;
        f.hi = u32Max;
    }
    if (a.affine) {
        f.affine = true;
        f.stride = a.stride * c;
    }
    return normalize(f);
}

ValueFacts
transferMul(const ValueFacts &a, const ValueFacts &b)
{
    if (a.isConstant())
        return transferMulConst(b, a.lo);
    if (b.isConstant())
        return transferMulConst(a, b.lo);
    ValueFacts f = ValueFacts::top();
    if (static_cast<std::uint64_t>(a.hi) * b.hi <= u32Max) {
        f.lo = a.lo * b.lo;
        f.hi = a.hi * b.hi;
    }
    return normalize(f);
}

/** Smallest all-ones mask covering @a x (bound for Or/Xor results). */
std::uint32_t
bitMaskAbove(std::uint32_t x)
{
    x |= x >> 1;
    x |= x >> 2;
    x |= x >> 4;
    x |= x >> 8;
    x |= x >> 16;
    return x;
}

} // namespace

ValueFacts
ValueFacts::top()
{
    return makeFacts(0, u32Max, false, 0);
}

ValueFacts
ValueFacts::constant(std::uint32_t v)
{
    return makeFacts(v, v, true, 0);
}

ValueFacts
ValueFacts::range(std::uint32_t lo, std::uint32_t hi)
{
    if (lo > hi)
        panic("ValueFacts::range with lo ", lo, " > hi ", hi);
    return makeFacts(lo, hi, false, 0);
}

ValueFacts
ValueFacts::lanesAffine(std::uint32_t stride)
{
    return makeFacts(0, u32Max, true, stride);
}

bool
ValueFacts::contains(const ir::LaneValues &lanes) const
{
    if (bottom)
        return false;
    for (unsigned i = 0; i < warpSize; ++i) {
        if (lanes[i] < lo || lanes[i] > hi)
            return false;
        if (affine && lanes[i] != lanes[0] + stride * i)
            return false;
    }
    return true;
}

bool
ValueFacts::operator==(const ValueFacts &other) const
{
    if (bottom || other.bottom)
        return bottom == other.bottom;
    if (lo != other.lo || hi != other.hi || affine != other.affine)
        return false;
    return !affine || stride == other.stride;
}

std::string
ValueFacts::toString() const
{
    if (bottom)
        return "bottom";
    std::ostringstream oss;
    oss << "[0x" << std::hex << lo << ",0x" << hi << "]" << std::dec;
    if (affine)
        oss << (stride == 0 ? " uniform"
                            : " stride " + std::to_string(stride));
    return oss.str();
}

bool
leq(const ValueFacts &a, const ValueFacts &b)
{
    if (a.bottom)
        return true;
    if (b.bottom)
        return false;
    if (a.lo < b.lo || a.hi > b.hi)
        return false;
    // Shape lattice: bottom < affine(s) (flat over strides) < no-shape.
    if (!b.affine)
        return true;
    return a.affine && a.stride == b.stride;
}

ValueFacts
join(const ValueFacts &a, const ValueFacts &b)
{
    if (a.bottom)
        return normalize(b);
    if (b.bottom)
        return normalize(a);
    ValueFacts f;
    f.bottom = false;
    f.lo = std::min(a.lo, b.lo);
    f.hi = std::max(a.hi, b.hi);
    if (a.affine && b.affine && a.stride == b.stride) {
        f.affine = true;
        f.stride = a.stride;
    }
    return normalize(f);
}

ValueFacts
widen(const ValueFacts &a, const ValueFacts &b)
{
    ValueFacts f = join(a, b);
    if (a.bottom || f.bottom)
        return f;
    // A bound that moved will keep moving: jump it to its extreme.
    if (f.lo < a.lo)
        f.lo = 0;
    if (f.hi > a.hi)
        f.hi = u32Max;
    return normalize(f);
}

ValueFacts
transferInsn(const ir::Instruction &insn,
             const std::vector<ValueFacts> &srcs)
{
    for (const ValueFacts &s : srcs) {
        if (s.bottom)
            return ValueFacts{};
    }
    auto src = [&](unsigned i) -> const ValueFacts & {
        return srcs.at(i);
    };

    ValueFacts f;
    switch (insn.op()) {
      case ir::Opcode::Mov:
        f = src(0);
        break;
      case ir::Opcode::MovImm:
        f = ValueFacts::constant(
            static_cast<std::uint32_t>(insn.imm()));
        break;
      case ir::Opcode::Tid:
        // The SM computes threadBase + lane: lane-affine with stride
        // 1, but the warp-dependent base leaves the interval open.
        f = ValueFacts::lanesAffine(1);
        break;
      case ir::Opcode::CtaId:
        // The SM broadcasts the block id (not the immediate).
        f = ValueFacts::lanesAffine(0);
        break;
      case ir::Opcode::IAdd:
        f = transferAdd(src(0), src(1));
        break;
      case ir::Opcode::IAddImm:
        f = transferAdd(src(0), ValueFacts::constant(
                                    static_cast<std::uint32_t>(
                                        insn.imm())));
        break;
      case ir::Opcode::ISub:
        f = transferSub(src(0), src(1));
        break;
      case ir::Opcode::IMul:
        f = transferMul(src(0), src(1));
        break;
      case ir::Opcode::IMulImm:
        f = transferMulConst(src(0), static_cast<std::uint32_t>(
                                         insn.imm()));
        break;
      case ir::Opcode::IMad:
        f = transferAdd(transferMul(src(0), src(1)), src(2));
        break;
      case ir::Opcode::Shl: {
        const ValueFacts &a = src(0);
        f = ValueFacts::top();
        if (src(1).isConstant()) {
            const unsigned sh = src(1).lo & 31;
            if (a.hi <= (u32Max >> sh)) {
                f.lo = a.lo << sh;
                f.hi = a.hi << sh;
            }
            if (a.affine) {
                f.affine = true;
                f.stride = a.stride << sh;
            }
        }
        f = normalize(f);
        break;
      }
      case ir::Opcode::Shr:
        f = ValueFacts::top();
        if (src(1).isConstant()) {
            const unsigned sh = src(1).lo & 31;
            f.lo = src(0).lo >> sh;
            f.hi = src(0).hi >> sh;
        }
        f = normalize(f);
        break;
      case ir::Opcode::And:
        f = ValueFacts::range(0, std::min(src(0).hi, src(1).hi));
        break;
      case ir::Opcode::Or:
        f = ValueFacts::range(
            std::max(src(0).lo, src(1).lo),
            bitMaskAbove(std::max(src(0).hi, src(1).hi)));
        break;
      case ir::Opcode::Xor:
        f = ValueFacts::range(
            0, bitMaskAbove(std::max(src(0).hi, src(1).hi)));
        break;
      case ir::Opcode::IMin:
      case ir::Opcode::IMax:
        // Signed semantics agree with the unsigned interval only when
        // both operands are provably non-negative.
        f = ValueFacts::top();
        if (src(0).hi <= 0x7fffffffu && src(1).hi <= 0x7fffffffu) {
            if (insn.op() == ir::Opcode::IMin) {
                f.lo = std::min(src(0).lo, src(1).lo);
                f.hi = std::min(src(0).hi, src(1).hi);
            } else {
                f.lo = std::max(src(0).lo, src(1).lo);
                f.hi = std::max(src(0).hi, src(1).hi);
            }
        }
        f = normalize(f);
        break;
      case ir::Opcode::SetLt:
      case ir::Opcode::SetGe:
      case ir::Opcode::SetEq:
      case ir::Opcode::SetNe:
        f = ValueFacts::range(0, 1);
        break;
      case ir::Opcode::Selp:
        f = join(src(0), src(1));
        if (!src(2).uniform()) {
            // Lanes may mix both arms: the hull holds, the shape not.
            f.affine = false;
            f.stride = 0;
            f = normalize(f);
        }
        break;
      case ir::Opcode::FAdd:
      case ir::Opcode::FMul:
      case ir::Opcode::FFma:
      case ir::Opcode::Rcp:
      case ir::Opcode::Sqrt:
        f = ValueFacts::top();
        break;
      case ir::Opcode::LdGlobal:
      case ir::Opcode::LdShared:
        // Loaded data comes from the workload value generator; nothing
        // is provable, not even for uniform addresses.
        return ValueFacts::top();
      default:
        panic("transferInsn on non-writing opcode ",
              ir::opcodeName(insn.op()));
    }

    // Any lane-wise pure operation on all-uniform inputs broadcasts.
    if (!f.bottom && !f.affine && !srcs.empty()) {
        bool all_uniform = true;
        for (const ValueFacts &s : srcs)
            all_uniform = all_uniform && s.uniform();
        if (all_uniform) {
            f.affine = true;
            f.stride = 0;
        }
    }
    return f;
}

StaticEncoding
classifyEncoding(const ValueFacts &facts)
{
    if (facts.bottom)
        return StaticEncoding::None;
    if (facts.uniform())
        return StaticEncoding::UniformScalar;
    if (facts.hi <= 0xffffu)
        return StaticEncoding::NarrowWidth;
    if (facts.lo >= 0xffff8000u)
        return StaticEncoding::SignCompressed;
    return StaticEncoding::None;
}

bool
encodingHolds(StaticEncoding enc, const ir::LaneValues &lanes)
{
    switch (enc) {
      case StaticEncoding::None:
        return true;
      case StaticEncoding::UniformScalar:
        for (unsigned i = 1; i < warpSize; ++i) {
            if (lanes[i] != lanes[0])
                return false;
        }
        return true;
      case StaticEncoding::NarrowWidth:
        for (std::uint32_t v : lanes) {
            if (v > 0xffffu)
                return false;
        }
        return true;
      case StaticEncoding::SignCompressed:
        for (std::uint32_t v : lanes) {
            if (v > 0x7fffu && v < 0xffff8000u)
                return false;
        }
        return true;
    }
    return false;
}

bool
encodingImplied(StaticEncoding enc, const ValueFacts &facts)
{
    switch (enc) {
      case StaticEncoding::None:
        return true;
      case StaticEncoding::UniformScalar:
        return facts.uniform();
      case StaticEncoding::NarrowWidth:
        return !facts.bottom && facts.hi <= 0xffffu;
      case StaticEncoding::SignCompressed:
        return !facts.bottom &&
               (facts.hi <= 0x7fffu || facts.lo >= 0xffff8000u);
    }
    return false;
}

unsigned
encodingBytes(StaticEncoding enc)
{
    switch (enc) {
      case StaticEncoding::UniformScalar:
        return 4;
      case StaticEncoding::NarrowWidth:
      case StaticEncoding::SignCompressed:
        return warpSize * 2;
      case StaticEncoding::None:
        break;
    }
    return regBytes;
}

ValueRangeAnalysis::ValueRangeAnalysis(const ir::Kernel &kernel,
                                       const ir::CfgAnalysis &cfg,
                                       const ir::Liveness &live)
    : _kernel(kernel),
      _cfg(cfg),
      _live(live),
      _partialMask(kernel.blocks().size(), false)
{
    computePartialMaskBlocks();
    solve();
}

void
ValueRangeAnalysis::computePartialMaskBlocks()
{
    const auto &blocks = _kernel.blocks();
    // A block between a branch's successors and its reconvergence
    // point (immediate postdominator) may execute under a partial
    // mask. Mark every such influence region.
    for (const ir::BasicBlock &bb : blocks) {
        if (!_cfg.reachable(bb.id()))
            continue;
        if (!_kernel.insn(bb.lastPc()).isBranch())
            continue;
        const ir::BlockId ipdom =
            _cfg.immediatePostdominator(bb.id());
        for (ir::BlockId succ : bb.successors()) {
            std::deque<ir::BlockId> work{succ};
            while (!work.empty()) {
                ir::BlockId b = work.front();
                work.pop_front();
                if (b == ipdom || _partialMask.test(b))
                    continue;
                _partialMask.set(b);
                for (ir::BlockId s : blocks[b].successors())
                    work.push_back(s);
            }
        }
    }
    // Lanes exiting inside a divergence region never reconverge: any
    // later block may then run partial too. Poison everything.
    bool divergent_exit = false;
    for (const ir::BasicBlock &bb : blocks) {
        if (_cfg.reachable(bb.id()) && _partialMask.test(bb.id()) &&
            _kernel.insn(bb.lastPc()).isExit()) {
            divergent_exit = true;
        }
    }
    if (divergent_exit) {
        for (const ir::BasicBlock &bb : blocks)
            _partialMask.set(bb.id());
    }
}

void
ValueRangeAnalysis::applyInsn(Pc pc, State &state) const
{
    const ir::Instruction &insn = _kernel.insn(pc);
    if (!insn.writesReg())
        return;
    std::vector<ValueFacts> srcs;
    srcs.reserve(insn.srcs().size());
    for (RegId s : insn.srcs())
        srcs.push_back(state[s]);
    ValueFacts f = transferInsn(insn, srcs);

    // Masked writes merge into the old lanes (Warp::writeReg): inside
    // a divergence region — and at soft definitions in particular —
    // the result mixes old and new values, so hull the intervals and
    // drop the shape (different bases break lane affinity).
    if (_partialMask.test(_kernel.blockOf(pc)) || _live.isSoftDef(pc)) {
        const ValueFacts &old = state[insn.dst()];
        if (!old.bottom) {
            f = join(f, old);
            if (!f.bottom && f.lo != f.hi) {
                f.affine = false;
                f.stride = 0;
            }
        }
    }
    state[insn.dst()] = f;
}

void
ValueRangeAnalysis::solve()
{
    const std::size_t num_blocks = _kernel.blocks().size();
    const unsigned num_regs = _kernel.numRegs();
    _blockIn.assign(num_blocks, State(num_regs));

    const ir::BlockId entry = _kernel.blockOf(0);
    // Kernel entry: registers may hold anything (the launcher zeroes
    // them, but staging correctness must not depend on that).
    _blockIn[entry] = State(num_regs, ValueFacts::top());

    // Widen a loop header once a back edge has fed it a few times; the
    // update-count failsafe bounds irreducible cycles, which have no
    // dominating header for isBackEdge to recognise.
    constexpr unsigned kWidenDelay = 2;
    constexpr unsigned kForceWidenAfter = 64;
    std::vector<unsigned> back_joins(num_blocks, 0);
    std::vector<unsigned> updates(num_blocks, 0);

    std::deque<ir::BlockId> worklist{entry};
    std::vector<std::uint8_t> queued(num_blocks, 0);
    queued[entry] = 1;

    while (!worklist.empty()) {
        const ir::BlockId b = worklist.front();
        worklist.pop_front();
        queued[b] = 0;

        State out = _blockIn[b];
        const ir::BasicBlock &bb = _kernel.block(b);
        for (Pc pc = bb.firstPc(); pc <= bb.lastPc(); ++pc)
            applyInsn(pc, out);

        for (ir::BlockId succ : bb.successors()) {
            bool do_widen = updates[succ] > kForceWidenAfter;
            if (_cfg.isBackEdge(b, succ) &&
                ++back_joins[succ] > kWidenDelay) {
                do_widen = true;
            }
            State &in = _blockIn[succ];
            bool changed = false;
            for (unsigned r = 0; r < num_regs; ++r) {
                ValueFacts nf = do_widen ? widen(in[r], out[r])
                                         : join(in[r], out[r]);
                if (nf != in[r]) {
                    in[r] = nf;
                    changed = true;
                }
            }
            if (changed) {
                ++updates[succ];
                if (!queued[succ]) {
                    queued[succ] = 1;
                    worklist.push_back(succ);
                }
            }
        }
    }
}

ValueRangeAnalysis::State
ValueRangeAnalysis::stateBefore(Pc pc) const
{
    const ir::BasicBlock &bb = _kernel.block(_kernel.blockOf(pc));
    if (!_cfg.reachable(bb.id()))
        return State(_kernel.numRegs());
    State state = _blockIn[bb.id()];
    for (Pc p = bb.firstPc(); p < pc; ++p)
        applyInsn(p, state);
    return state;
}

ValueFacts
ValueRangeAnalysis::before(Pc pc, RegId reg) const
{
    return stateBefore(pc).at(reg);
}

ValueFacts
ValueRangeAnalysis::after(Pc pc, RegId reg) const
{
    State state = stateBefore(pc);
    applyInsn(pc, state);
    return state.at(reg);
}

std::vector<ValueFacts>
ValueRangeAnalysis::joinedDefFacts() const
{
    std::vector<ValueFacts> joined(_kernel.numRegs(), ValueFacts{});
    for (const ir::BasicBlock &bb : _kernel.blocks()) {
        if (!_cfg.reachable(bb.id()))
            continue;
        State state = _blockIn[bb.id()];
        for (Pc pc = bb.firstPc(); pc <= bb.lastPc(); ++pc) {
            applyInsn(pc, state);
            const ir::Instruction &insn = _kernel.insn(pc);
            if (insn.writesReg()) {
                joined[insn.dst()] =
                    join(joined[insn.dst()], state[insn.dst()]);
            }
        }
    }
    return joined;
}

} // namespace regless::compiler

#include "ir/liveness.hh"

#include <algorithm>

#include "common/logging.hh"

namespace regless::ir
{

bool
RegSet::unionWith(const RegSet &other)
{
    bool changed = false;
    for (std::size_t i = 0; i < _bits.size(); ++i) {
        if (other._bits[i] && !_bits[i]) {
            _bits[i] = true;
            changed = true;
        }
    }
    return changed;
}

unsigned
RegSet::count() const
{
    unsigned n = 0;
    for (bool b : _bits)
        n += b;
    return n;
}

std::vector<RegId>
RegSet::toVector() const
{
    std::vector<RegId> out;
    for (std::size_t i = 0; i < _bits.size(); ++i) {
        if (_bits[i])
            out.push_back(static_cast<RegId>(i));
    }
    return out;
}

Liveness::Liveness(const Kernel &kernel, const CfgAnalysis &cfg)
    : _kernel(kernel), _cfg(cfg)
{
    const unsigned num_regs = _kernel.numRegs();
    _defs.assign(num_regs, {});
    _uses.assign(num_regs, {});
    for (Pc pc = 0; pc < _kernel.numInsns(); ++pc) {
        const Instruction &insn = _kernel.insn(pc);
        if (insn.writesReg())
            _defs[insn.dst()].push_back(pc);
        for (RegId r : usedRegs(insn))
            _uses[r].push_back(pc);
    }

    _softDef.assign(_kernel.numInsns(), false);

    // Pass 1: conventional liveness (all definitions kill).
    solveDataflow(/*corrected=*/false);
    // Detect soft definitions against the pass-1 edge liveness.
    detectSoftDefs();
    // Pass 2: corrected liveness (soft definitions keep the value live).
    solveDataflow(/*corrected=*/true);
    computePerPcSets();
}

std::vector<RegId>
Liveness::usedRegs(const Instruction &insn)
{
    // All source operands are reads, including branch predicates and
    // store data/address registers; srcs() already covers those.
    std::vector<RegId> regs = insn.srcs();
    std::sort(regs.begin(), regs.end());
    regs.erase(std::unique(regs.begin(), regs.end()), regs.end());
    return regs;
}

void
Liveness::applyInsnBackward(Pc pc, RegSet &live, bool corrected) const
{
    const Instruction &insn = _kernel.insn(pc);
    if (insn.writesReg()) {
        if (corrected && _softDef[pc]) {
            // A soft definition merges new lanes into the old value:
            // the register stays live above this point.
            live.set(insn.dst());
        } else {
            live.clear(insn.dst());
        }
    }
    for (RegId r : insn.srcs())
        live.set(r);
}

void
Liveness::solveDataflow(bool corrected)
{
    const std::size_t num_blocks = _kernel.blocks().size();
    const unsigned num_regs = _kernel.numRegs();
    _blockLiveIn.assign(num_blocks, RegSet(num_regs));
    _blockLiveOut.assign(num_blocks, RegSet(num_regs));

    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t bi = num_blocks; bi-- > 0;) {
            const BasicBlock &bb = _kernel.block(static_cast<BlockId>(bi));
            RegSet out(num_regs);
            for (BlockId s : bb.successors())
                out.unionWith(_blockLiveIn[s]);
            if (!(out == _blockLiveOut[bi])) {
                _blockLiveOut[bi] = out;
                changed = true;
            }
            RegSet live = out;
            for (Pc pc = bb.lastPc() + 1; pc-- > bb.firstPc();)
                applyInsnBackward(pc, live, corrected);
            if (!(live == _blockLiveIn[bi])) {
                _blockLiveIn[bi] = live;
                changed = true;
            }
        }
    }
}

void
Liveness::computePerPcSets()
{
    _liveBeforePc.assign(_kernel.numInsns(), RegSet(_kernel.numRegs()));
    for (const BasicBlock &bb : _kernel.blocks()) {
        RegSet live = _blockLiveOut[bb.id()];
        for (Pc pc = bb.lastPc() + 1; pc-- > bb.firstPc();) {
            applyInsnBackward(pc, live, /*corrected=*/true);
            _liveBeforePc[pc] = live;
        }
    }
}

void
Liveness::detectSoftDefs()
{
    // Paper Algorithm 2, run for every defining instruction. Note this
    // uses pass-1 (conventional) block liveness, matching the paper's
    // staging: softness is a property of the def site's control
    // conditions relative to other defs that reach uses.
    const std::size_t num_blocks = _kernel.blocks().size();
    for (Pc pc = 0; pc < _kernel.numInsns(); ++pc) {
        const Instruction &insn = _kernel.insn(pc);
        if (!insn.writesReg())
            continue;
        const RegId reg = insn.dst();
        const BlockId insn_bb = _kernel.blockOf(pc);
        if (!_cfg.reachable(insn_bb))
            continue;

        bool soft = false;
        for (BlockId dom_bb = 0; dom_bb < num_blocks; ++dom_bb) {
            if (dom_bb == insn_bb || !_cfg.dominates(dom_bb, insn_bb) ||
                !_cfg.reachable(dom_bb)) {
                continue;
            }
            // Skip dominators separated from the candidate by a
            // reconvergence point: a strict postdominator of domBB that
            // also dominates the candidate block.
            bool reconverged = false;
            for (BlockId pd = 0; pd < num_blocks; ++pd) {
                if (pd != dom_bb && _cfg.postdominates(pd, dom_bb) &&
                    _cfg.dominates(pd, insn_bb)) {
                    reconverged = true;
                    break;
                }
            }
            if (reconverged)
                continue;
            for (BlockId succ : _kernel.block(dom_bb).successors()) {
                if (_cfg.dominates(succ, insn_bb))
                    continue;
                if (liveOnEdge(dom_bb, succ, reg)) {
                    soft = true;
                    break;
                }
            }
            if (soft)
                break;
        }
        _softDef[pc] = soft;
    }
}

bool
Liveness::liveBefore(Pc pc, RegId reg) const
{
    return _liveBeforePc.at(pc).test(reg);
}

bool
Liveness::liveAfter(Pc pc, RegId reg) const
{
    const BasicBlock &bb = _kernel.block(_kernel.blockOf(pc));
    if (pc == bb.lastPc())
        return _blockLiveOut[bb.id()].test(reg);
    return _liveBeforePc.at(pc + 1).test(reg);
}

unsigned
Liveness::liveCountBefore(Pc pc) const
{
    return _liveBeforePc.at(pc).count();
}

std::vector<RegId>
Liveness::liveRegsBefore(Pc pc) const
{
    return _liveBeforePc.at(pc).toVector();
}

bool
Liveness::blockLiveIn(BlockId bb, RegId reg) const
{
    return _blockLiveIn.at(bb).test(reg);
}

bool
Liveness::blockLiveOut(BlockId bb, RegId reg) const
{
    return _blockLiveOut.at(bb).test(reg);
}

bool
Liveness::liveOnEdge(BlockId from, BlockId to, RegId reg) const
{
    (void)from; // Liveness on an edge is the target's live-in.
    return _blockLiveIn.at(to).test(reg);
}

bool
Liveness::hasSoftDef(RegId reg) const
{
    for (Pc pc : _defs.at(reg)) {
        if (_softDef[pc])
            return true;
    }
    return false;
}

const std::vector<Pc> &
Liveness::defsOf(RegId reg) const
{
    return _defs.at(reg);
}

const std::vector<Pc> &
Liveness::usesOf(RegId reg) const
{
    return _uses.at(reg);
}

bool
Liveness::isLastUse(Pc pc, RegId reg) const
{
    const Instruction &insn = _kernel.insn(pc);
    const auto &srcs = insn.srcs();
    if (std::find(srcs.begin(), srcs.end(), reg) == srcs.end())
        return false;
    return !liveAfter(pc, reg);
}

namespace
{

/**
 * Blocks reachable from @a from without entering @a stop (the
 * branch's reconvergence point; invalidBlock = no boundary).
 */
BlockSet
influenceFrom(const Kernel &kernel, BlockId from, BlockId stop)
{
    BlockSet seen(kernel.blocks().size());
    if (from == stop)
        return seen;
    std::vector<BlockId> work{from};
    seen.set(from);
    while (!work.empty()) {
        BlockId bb = work.back();
        work.pop_back();
        for (BlockId succ : kernel.block(bb).successors()) {
            if (succ == stop || seen.test(succ))
                continue;
            seen.set(succ);
            work.push_back(succ);
        }
    }
    return seen;
}

} // namespace

bool
divergentSiblingMayRead(const Kernel &kernel, const CfgAnalysis &cfg,
                        const Liveness &live, BlockId b, RegId reg)
{
    const std::size_t num_blocks = kernel.blocks().size();
    for (const BasicBlock &branch : kernel.blocks()) {
        const auto &succs = branch.successors();
        if (!cfg.reachable(branch.id()) || succs.size() < 2)
            continue;
        const BlockId rp = cfg.immediatePostdominator(branch.id());

        std::vector<BlockSet> influence;
        influence.reserve(succs.size());
        for (BlockId succ : succs)
            influence.push_back(influenceFrom(kernel, succ, rp));

        for (std::size_t i = 0; i < succs.size(); ++i) {
            if (!influence[i].test(b))
                continue;
            // A diverged warp runs the other sides after this one.
            for (std::size_t j = 0; j < succs.size(); ++j) {
                if (j == i)
                    continue;
                for (BlockId d = 0; d < num_blocks; ++d) {
                    if (influence[j].test(d) &&
                        live.blockLiveIn(d, reg)) {
                        return true;
                    }
                }
            }
        }
    }
    return false;
}

} // namespace regless::ir

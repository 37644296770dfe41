#include "compiler/lifetime_annotator.hh"

#include "compiler/region_builder.hh"

#include <algorithm>
#include <set>

#include "common/logging.hh"

namespace regless::compiler
{

LifetimeAnnotator::LifetimeAnnotator(const KernelAnalyses &facts)
    : _kernel(facts.kernel),
      _cfg(facts.cfg),
      _live(facts.live),
      _vra(facts.vra)
{
}

void
LifetimeAnnotator::annotate(std::vector<Region> &regions)
{
    for (Region &region : regions) {
        classifyRegisters(region);
        placePreloads(region);
        placeEraseEvict(region);
        recordEncodings(region);
        computeCapacity(region);
    }
    placeCacheInvalidations(regions);
}

void
LifetimeAnnotator::recordEncodings(Region &region) const
{
    region.encodings.clear();
    // A line marked evictable at pc keeps the value it holds there
    // until a later region reclaims or redefines it, so the facts
    // after the evict point are exactly what an eviction would see.
    for (const auto &[pc, regs] : region.evicts) {
        for (RegId reg : regs) {
            StaticEncoding enc = classifyEncoding(_vra.after(pc, reg));
            if (enc != StaticEncoding::None)
                region.encodings[reg] = enc;
        }
    }
}

void
LifetimeAnnotator::classifyRegisters(Region &region) const
{
    ir::RegSet inputs(_kernel.numRegs());
    ir::RegSet defined(_kernel.numRegs());
    ir::RegSet refs(_kernel.numRegs());

    for (Pc pc = region.startPc; pc <= region.endPc; ++pc) {
        const ir::Instruction &insn = _kernel.insn(pc);
        for (RegId src : insn.srcs()) {
            refs.set(src);
            if (!defined.test(src))
                inputs.set(src);
        }
        if (insn.writesReg()) {
            refs.set(insn.dst());
            if (_live.isSoftDef(pc)) {
                // Soft definitions merge into the old value, so the old
                // lanes must be staged: the register is an input.
                if (!defined.test(insn.dst()))
                    inputs.set(insn.dst());
            } else {
                defined.set(insn.dst());
            }
            // Both hard and soft definitions make the register locally
            // available for later reads in the region.
            defined.set(insn.dst());
        }
    }

    ir::RegSet outputs(_kernel.numRegs());
    for (Pc pc = region.startPc; pc <= region.endPc; ++pc) {
        const ir::Instruction &insn = _kernel.insn(pc);
        if (insn.writesReg() && _live.liveAfter(region.endPc, insn.dst()))
            outputs.set(insn.dst());
    }

    region.inputs = inputs.toVector();
    region.outputs = outputs.toVector();
    region.interiors.clear();
    for (RegId r : refs.toVector()) {
        if (!inputs.test(r) && !outputs.test(r))
            region.interiors.push_back(r);
    }
}

void
LifetimeAnnotator::placePreloads(Region &region) const
{
    region.preloads.clear();
    for (RegId r : region.inputs) {
        Preload preload;
        preload.reg = r;
        // Invalidating read (§4.3): only when the value is dead on
        // every CFG path AND no divergent sibling path can still read
        // it — a diverged warp executes the sibling side after this
        // region, with no CFG edge to carry the liveness fact.
        preload.invalidate =
            !_live.liveAfter(region.endPc, r) &&
            !ir::divergentSiblingMayRead(_kernel, _cfg, _live,
                                         region.block, r);
        region.preloads.push_back(preload);
    }
}

Pc
LifetimeAnnotator::lastTouch(Pc start, Pc end, RegId reg) const
{
    for (Pc pc = end + 1; pc-- > start;) {
        const ir::Instruction &insn = _kernel.insn(pc);
        const auto &srcs = insn.srcs();
        if (std::find(srcs.begin(), srcs.end(), reg) != srcs.end())
            return pc;
        if (insn.writesReg() && insn.dst() == reg)
            return pc;
    }
    return invalidPc;
}

void
LifetimeAnnotator::placeEraseEvict(Region &region) const
{
    region.erases.clear();
    region.evicts.clear();
    for (RegId r : region.interiors) {
        Pc pc = lastTouch(region.startPc, region.endPc, r);
        if (pc == invalidPc)
            panic("interior register r", r, " never touched in region ",
                  region.id);
        region.erases[pc].push_back(r);
    }
    auto mark_evict = [&](RegId r) {
        Pc pc = lastTouch(region.startPc, region.endPc, r);
        if (pc == invalidPc)
            panic("boundary register r", r, " never touched in region ",
                  region.id);
        auto &list = region.evicts[pc];
        if (std::find(list.begin(), list.end(), r) == list.end())
            list.push_back(r);
    };
    for (RegId r : region.inputs)
        mark_evict(r);
    for (RegId r : region.outputs)
        mark_evict(r);
}

void
LifetimeAnnotator::computeCapacity(Region &region) const
{
    Occupancy occ =
        computeOccupancy(_kernel, _live, region.startPc, region.endPc);
    region.maxLive = occ.maxLive;
    region.bankUsage = occ.bankUsage;
}

void
LifetimeAnnotator::placeCacheInvalidations(std::vector<Region> &regions)
{
    // First region of each block, for attaching invalidations.
    std::vector<RegionId> block_first_region(_kernel.blocks().size(),
                                             invalidRegion);
    for (const Region &region : regions) {
        if (block_first_region[region.block] == invalidRegion)
            block_first_region[region.block] = region.id;
    }

    // Cross-region registers: anything on a region boundary.
    ir::RegSet cross(_kernel.numRegs());
    for (const Region &region : regions) {
        for (RegId r : region.inputs)
            cross.set(r);
        for (RegId r : region.outputs)
            cross.set(r);
    }

    for (RegId r : cross.toVector()) {
        ++_stats.crossRegionRegs;
        if (_live.hasSoftDef(r))
            ++_stats.softDefRegs;

        // Death points: control-flow edges (u, v) where the value is
        // live out of u but not into v.
        std::vector<ir::BlockId> death_blocks;
        for (const ir::BasicBlock &bb : _kernel.blocks()) {
            if (!_cfg.reachable(bb.id()))
                continue;
            for (ir::BlockId succ : bb.successors()) {
                if (_live.blockLiveOut(bb.id(), r) &&
                    !_live.blockLiveIn(succ, r)) {
                    death_blocks.push_back(succ);
                }
            }
        }
        if (death_blocks.empty())
            continue; // fully handled by invalidating preloads
        ++_stats.edgeDeathRegs;

        // Definition blocks and last-use blocks join the constraint set:
        // the invalidation must postdominate all of them.
        std::vector<ir::BlockId> constraint = death_blocks;
        for (Pc def_pc : _live.defsOf(r))
            constraint.push_back(_kernel.blockOf(def_pc));
        for (Pc use_pc : _live.usesOf(r)) {
            if (_live.isLastUse(use_pc, r))
                constraint.push_back(_kernel.blockOf(use_pc));
        }

        // Earliest reachable block that postdominates every constraint
        // block and where the register is already dead.
        ir::BlockId placement = ir::invalidBlock;
        for (const ir::BasicBlock &bb : _kernel.blocks()) {
            if (!_cfg.reachable(bb.id()))
                continue;
            if (_live.blockLiveIn(bb.id(), r))
                continue;
            bool pdoms_all = true;
            for (ir::BlockId c : constraint) {
                if (!_cfg.postdominates(bb.id(), c)) {
                    pdoms_all = false;
                    break;
                }
            }
            if (pdoms_all) {
                placement = bb.id();
                break;
            }
        }

        if (placement == ir::invalidBlock) {
            // Divergent paths reach exit without reconverging at a
            // point where the register is dead: the value lingers.
            ++_stats.unplacedInvalidations;
            continue;
        }
        RegionId region_id = block_first_region[placement];
        if (region_id == invalidRegion)
            panic("block ", placement, " has no region");
        regions[region_id].cacheInvalidations.push_back(r);
    }
}

} // namespace regless::compiler

#include "compiler/region_builder.hh"

#include <algorithm>
#include <deque>
#include <limits>

#include "common/logging.hh"

namespace regless::compiler
{

Occupancy
computeOccupancy(const ir::Kernel &kernel, const ir::Liveness &liveness,
                 Pc start, Pc end)
{
    const unsigned num_regs = kernel.numRegs();
    std::vector<Pc> first_touch(num_regs, invalidPc);
    std::vector<Pc> last_touch(num_regs, invalidPc);
    std::vector<bool> exposed(num_regs, false);
    std::vector<bool> hard_defined(num_regs, false);
    std::vector<bool> referenced(num_regs, false);
    std::vector<bool> last_touch_is_def(num_regs, false);

    for (Pc pc = start; pc <= end; ++pc) {
        const ir::Instruction &insn = kernel.insn(pc);
        auto touch = [&](RegId r, bool is_def) {
            referenced[r] = true;
            if (first_touch[r] == invalidPc)
                first_touch[r] = pc;
            last_touch[r] = pc;
            last_touch_is_def[r] = is_def;
        };
        for (RegId src : insn.srcs()) {
            touch(src, false);
            if (!hard_defined[src])
                exposed[src] = true;
        }
        if (insn.writesReg()) {
            RegId dst = insn.dst();
            touch(dst, true);
            if (liveness.isSoftDef(pc)) {
                if (!hard_defined[dst])
                    exposed[dst] = true;
            }
            hard_defined[dst] = true;
        }
    }

    // Interval sweep: +1 at interval start, -1 after interval end.
    const unsigned span = end - start + 2;
    std::vector<int> delta(span + 1, 0);
    std::array<std::vector<int>, numOsuBanks> bank_delta;
    for (auto &d : bank_delta)
        d.assign(span + 1, 0);

    for (RegId r = 0; r < num_regs; ++r) {
        if (!referenced[r])
            continue;
        Pc s = exposed[r] ? start : first_touch[r];
        // A line whose last touch is a write stays owned until the
        // value lands (the hardware defers the erase/evict to the
        // write-back), so its occupancy extends to the region end.
        Pc e = (liveness.liveAfter(end, r) || last_touch_is_def[r])
                   ? end
                   : last_touch[r];
        unsigned lo = s - start;
        unsigned hi = e - start + 1;
        ++delta[lo];
        --delta[hi];
        ++bank_delta[r % numOsuBanks][lo];
        --bank_delta[r % numOsuBanks][hi];
    }

    Occupancy occ;
    int running = 0;
    std::array<int, numOsuBanks> bank_running{};
    for (unsigned i = 0; i < span; ++i) {
        running += delta[i];
        occ.maxLive = std::max<unsigned>(occ.maxLive, running);
        for (unsigned b = 0; b < numOsuBanks; ++b) {
            bank_running[b] += bank_delta[b][i];
            occ.bankUsage[b] = std::max<std::uint8_t>(
                occ.bankUsage[b],
                static_cast<std::uint8_t>(
                    std::min(bank_running[b], 255)));
        }
    }
    return occ;
}

RegionBuilder::RegionBuilder(const ir::Kernel &kernel,
                             const ir::Liveness &liveness,
                             const CompilerConfig &config)
    : _kernel(kernel), _live(liveness), _cfg(config)
{
}

std::vector<Region>
RegionBuilder::build() const
{
    // Algorithm 1: worklist seeded with basic blocks.
    std::deque<std::pair<Pc, Pc>> worklist;
    for (const ir::BasicBlock &bb : _kernel.blocks())
        worklist.emplace_back(bb.firstPc(), bb.lastPc());

    std::vector<Region> regions;
    while (!worklist.empty()) {
        auto [start, end] = worklist.front();
        worklist.pop_front();
        if (!isValid(start, end) && end > start) {
            Pc split_pc = findSplitPoint(start, end);
            // First half is guaranteed valid; second is re-examined.
            worklist.emplace_front(split_pc, end);
            end = split_pc - 1;
        }
        Region region;
        region.startPc = start;
        region.endPc = end;
        region.block = _kernel.blockOf(start);
        regions.push_back(region);
    }

    std::sort(regions.begin(), regions.end(),
              [](const Region &a, const Region &b) {
                  return a.startPc < b.startPc;
              });
    for (RegionId id = 0; id < regions.size(); ++id)
        regions[id].id = id;
    return regions;
}

bool
RegionBuilder::containsLoadAndUse(Pc start, Pc end) const
{
    for (Pc pc = start; pc <= end; ++pc) {
        const ir::Instruction &insn = _kernel.insn(pc);
        if (!insn.isGlobalLoad())
            continue;
        const RegId dst = insn.dst();
        for (Pc use_pc = pc + 1; use_pc <= end; ++use_pc) {
            const ir::Instruction &later = _kernel.insn(use_pc);
            const auto &srcs = later.srcs();
            if (std::find(srcs.begin(), srcs.end(), dst) != srcs.end())
                return true;
            // A hard redefinition ends the load's pending value.
            if (later.writesReg() && later.dst() == dst &&
                !_live.isSoftDef(use_pc)) {
                break;
            }
        }
    }
    return false;
}

bool
RegionBuilder::isValid(Pc start, Pc end) const
{
    // One occupancy sweep answers both capacity checks. The hardware
    // maps (warp + reg) & 7 to a bank; per-warp rotation does not
    // change the per-bank peak, so the sweep models bank = reg & 7.
    const Occupancy occ = computeOccupancy(_kernel, _live, start, end);
    if (occ.maxLive > _cfg.maxRegsPerRegion)
        return false;
    for (unsigned b = 0; b < numOsuBanks; ++b) {
        if (occ.bankUsage[b] > _cfg.maxRegsPerBank)
            return false;
    }
    if (_cfg.splitLoadUse && containsLoadAndUse(start, end))
        return false;
    return true;
}

unsigned
RegionBuilder::inputCount(Pc start, Pc end) const
{
    // Upward-exposed uses: read before any hard definition in the
    // range. Soft definitions also force a preload (the merge needs
    // the old lanes), so they expose the register too.
    ir::RegSet seen_def(_kernel.numRegs());
    ir::RegSet inputs(_kernel.numRegs());
    for (Pc pc = start; pc <= end; ++pc) {
        const ir::Instruction &insn = _kernel.insn(pc);
        for (RegId src : insn.srcs()) {
            if (!seen_def.test(src))
                inputs.set(src);
        }
        if (insn.writesReg()) {
            if (_live.isSoftDef(pc)) {
                if (!seen_def.test(insn.dst()))
                    inputs.set(insn.dst());
            } else {
                seen_def.set(insn.dst());
            }
        }
    }
    return inputs.count();
}

unsigned
RegionBuilder::outputCount(Pc start, Pc end) const
{
    ir::RegSet outputs(_kernel.numRegs());
    for (Pc pc = start; pc <= end; ++pc) {
        const ir::Instruction &insn = _kernel.insn(pc);
        if (insn.writesReg() && _live.liveAfter(end, insn.dst()))
            outputs.set(insn.dst());
    }
    return outputs.count();
}

unsigned
RegionBuilder::inputOutputCount(Pc start, Pc end) const
{
    return inputCount(start, end) + outputCount(start, end);
}

unsigned
RegionBuilder::loadUsePairsWithin(Pc start, Pc end, Pc split) const
{
    // Count (global load, first use) pairs that end up wholly inside
    // either half when the second half starts at @a split.
    unsigned pairs = 0;
    for (Pc pc = start; pc <= end; ++pc) {
        const ir::Instruction &insn = _kernel.insn(pc);
        if (!insn.isGlobalLoad())
            continue;
        const RegId dst = insn.dst();
        for (Pc use_pc = pc + 1; use_pc <= end; ++use_pc) {
            const ir::Instruction &later = _kernel.insn(use_pc);
            const auto &srcs = later.srcs();
            if (std::find(srcs.begin(), srcs.end(), dst) != srcs.end()) {
                bool same_half = (pc < split) == (use_pc < split);
                pairs += same_half;
                break;
            }
            if (later.writesReg() && later.dst() == dst &&
                !_live.isSoftDef(use_pc)) {
                break;
            }
        }
    }
    return pairs;
}

Pc
RegionBuilder::findSplitPoint(Pc start, Pc end) const
{
    // upperBound: the first PC at which the prefix region [start, pc]
    // becomes invalid; splitting at or before it keeps the first half
    // valid. Prefix invalidity is monotone in pc.
    Pc upper_bound = end; // split position: second half starts here
    for (Pc pc = start + 1; pc <= end; ++pc) {
        if (!isValid(start, pc)) {
            upper_bound = pc;
            break;
        }
    }

    // lowerBound: the split that places the boundary between the most
    // global loads and their first uses.
    Pc lower_bound = start + 1;
    unsigned best_pairs = std::numeric_limits<unsigned>::max();
    for (Pc sp = start + 1; sp <= upper_bound; ++sp) {
        unsigned pairs = loadUsePairsWithin(start, end, sp);
        if (pairs < best_pairs) {
            best_pairs = pairs;
            lower_bound = sp;
        }
    }

    // Avoid degenerately small first regions (>= minRegionInsns insns
    // when possible).
    lower_bound = std::min(
        std::max<Pc>(start + _cfg.minRegionInsns, lower_bound),
        upper_bound);

    // Final choice: fewest inputs + outputs across both halves.
    Pc best_pc = lower_bound;
    unsigned best_io = std::numeric_limits<unsigned>::max();
    for (Pc sp = lower_bound; sp <= upper_bound; ++sp) {
        unsigned io = inputOutputCount(start, sp - 1) +
                      inputOutputCount(sp, end);
        if (io < best_io) {
            best_io = io;
            best_pc = sp;
        }
    }
    return best_pc;
}

} // namespace regless::compiler

#include "regfile/rf_hierarchy.hh"

#include <algorithm>
#include <limits>

namespace regless::regfile
{

namespace
{

/** Max def-to-use distance for the LRF (single use). */
constexpr unsigned kLrfMaxDistance = 3;
/** Max def-to-last-use distance for the ORF. */
constexpr unsigned kOrfMaxDistance = 20;

} // namespace

RfHierarchy::RfHierarchy(const compiler::CompiledKernel &ck)
    : _ck(ck),
      _live(ck.analyses().live),
      _level(ck.kernel().numRegs(), RfLevel::Mrf),
      _mrfSeries(100)
{
    assignLevels();
}

void
RfHierarchy::assignLevels()
{
    const ir::Kernel &kernel = _ck.kernel();
    const unsigned num_regs = kernel.numRegs();

    // Per register: worst-case def-to-use distance, use count, and
    // whether any def/use pair crosses a block boundary.
    struct Facts
    {
        unsigned maxDistance = 0;
        unsigned uses = 0;
        bool crossesBlocks = false;
        bool hasDef = false;
    };
    std::vector<Facts> facts(num_regs);

    for (RegId r = 0; r < num_regs; ++r) {
        Facts &f = facts[r];
        f.uses = static_cast<unsigned>(_live.usesOf(r).size());
        if (_live.hasSoftDef(r)) {
            f.crossesBlocks = true; // divergence demands a full home
            continue;
        }
        for (Pc def : _live.defsOf(r)) {
            f.hasDef = true;
            ir::BlockId def_bb = kernel.blockOf(def);
            // Find the uses reached by this def: the next uses until a
            // redefinition.
            for (Pc use : _live.usesOf(r)) {
                if (use <= def)
                    continue;
                bool redefined = false;
                for (Pc other : _live.defsOf(r)) {
                    if (other > def && other < use) {
                        redefined = true;
                        break;
                    }
                }
                if (redefined)
                    break;
                if (kernel.blockOf(use) != def_bb)
                    f.crossesBlocks = true;
                f.maxDistance =
                    std::max(f.maxDistance, use - def);
            }
            // A value live out of its defining block needs the MRF.
            if (_live.blockLiveOut(def_bb, r))
                f.crossesBlocks = true;
        }
    }

    // LRF: single-use values consumed within a couple of instructions.
    for (RegId r = 0; r < num_regs; ++r) {
        const Facts &f = facts[r];
        if (f.hasDef && !f.crossesBlocks && f.uses == 1 &&
            f.maxDistance <= kLrfMaxDistance) {
            _level[r] = RfLevel::Lrf;
        }
    }

    // ORF: short-lived values, capacity-limited. Greedily admit by
    // increasing lifetime while co-liveness with admitted registers
    // stays under the per-warp entry count.
    std::vector<RegId> candidates;
    for (RegId r = 0; r < num_regs; ++r) {
        const Facts &f = facts[r];
        if (_level[r] == RfLevel::Mrf && f.hasDef && !f.crossesBlocks &&
            f.maxDistance <= kOrfMaxDistance) {
            candidates.push_back(r);
        }
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](RegId a, RegId b) {
                         return facts[a].maxDistance <
                                facts[b].maxDistance;
                     });
    std::vector<RegId> admitted;
    for (RegId r : candidates) {
        // Count admitted registers co-live with r at any PC.
        unsigned worst = 0;
        for (Pc pc = 0; pc < kernel.numInsns(); ++pc) {
            if (!_live.liveBefore(pc, r))
                continue;
            unsigned n = 0;
            for (RegId other : admitted) {
                if (_live.liveBefore(pc, other))
                    ++n;
            }
            worst = std::max(worst, n);
        }
        if (worst < kOrfEntriesPerWarp) {
            _level[r] = RfLevel::Orf;
            admitted.push_back(r);
        }
    }
}

bool
RfHierarchy::canIssue(const arch::Warp &, Cycle)
{
    return true;
}

void
RfHierarchy::onIssue(const arch::Warp &, Pc, const ir::Instruction &insn,
                     Cycle now, Cycle)
{
    for (RegId src : insn.srcs()) {
        switch (_level[src]) {
          case RfLevel::Lrf:
            ++_stats.lrfReads;
            break;
          case RfLevel::Orf:
            ++_stats.orfReads;
            break;
          case RfLevel::Mrf:
            ++_stats.mrfReads;
            _mrfSeries.record(now, 1.0);
            break;
        }
    }
    if (insn.writesReg()) {
        switch (_level[insn.dst()]) {
          case RfLevel::Lrf:
            ++_stats.lrfWrites;
            break;
          case RfLevel::Orf:
            ++_stats.orfWrites;
            break;
          case RfLevel::Mrf:
            ++_stats.mrfWrites;
            _mrfSeries.record(now, 1.0);
            break;
        }
    }
}

} // namespace regless::regfile

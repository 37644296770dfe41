#include "compiler/rf_cache_hints.hh"

#include <algorithm>

namespace regless::compiler
{

std::vector<bool>
rfCacheableRegs(const KernelAnalyses &facts,
                const RfCacheHintParams &params)
{
    const ir::Kernel &kernel = facts.kernel;
    const ir::Liveness &live = facts.live;
    const unsigned num_regs = kernel.numRegs();
    std::vector<bool> cacheable(num_regs, false);

    for (RegId r = 0; r < num_regs; ++r) {
        const std::vector<Pc> &defs = live.defsOf(r);
        if (defs.empty() || live.hasSoftDef(r))
            continue;
        bool ok = true;
        for (Pc def : defs) {
            const ir::BlockId def_bb = kernel.blockOf(def);
            // A value live out of its defining block can be consumed
            // on a path the cache's replacement never sees coming;
            // leave it to the backing file.
            if (live.blockLiveOut(def_bb, r)) {
                ok = false;
                break;
            }
            // Every use reached by this def (up to the next
            // redefinition) must be close and in the same block.
            Pc next_def = invalidPc;
            for (Pc other : defs) {
                if (other > def)
                    next_def = std::min(next_def, other);
            }
            for (Pc use : live.usesOf(r)) {
                if (use <= def || use >= next_def)
                    continue;
                if (kernel.blockOf(use) != def_bb ||
                    use - def > params.maxDefUseDistance) {
                    ok = false;
                    break;
                }
            }
            if (!ok)
                break;
        }
        cacheable[r] = ok;
    }
    return cacheable;
}

} // namespace regless::compiler

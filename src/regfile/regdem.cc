#include "regfile/regdem.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"

namespace regless::regfile
{

namespace
{

/** Base address of the per-warp spill space. */
constexpr Addr kSpillBase = 0x5000'0000;

} // namespace

RegDemProvider::RegDemProvider(const compiler::CompiledKernel &ck,
                               mem::MemorySystem &mem)
    : _kernel(ck.kernel()),
      _mem(mem),
      _demoted(ck.kernel().numRegs(), false)
{
    // Static demotion (the RegDem compiler pass, simplified): rank
    // registers by static access count and keep the hottest N per
    // warp in the shrunken RF.
    const unsigned num_regs = _kernel.numRegs();
    std::vector<std::uint64_t> uses(num_regs, 0);
    for (Pc pc = 0; pc < _kernel.numInsns(); ++pc) {
        const ir::Instruction &insn = _kernel.insn(pc);
        if (insn.writesReg())
            ++uses[insn.dst()];
        for (RegId src : insn.srcs())
            ++uses[src];
    }
    std::vector<RegId> order(num_regs);
    std::iota(order.begin(), order.end(), RegId(0));
    std::stable_sort(order.begin(), order.end(),
                     [&uses](RegId a, RegId b)
                     { return uses[a] > uses[b]; });
    for (unsigned i = kHotRegsPerWarp; i < num_regs; ++i)
        _demoted[order[i]] = true;
    _hotRegs = std::min<unsigned>(num_regs, kHotRegsPerWarp);
}

Addr
RegDemProvider::spillAddr(WarpId warp, RegId reg) const
{
    return kSpillBase +
           (static_cast<Addr>(warp) * _kernel.numRegs() + reg) *
               regBytes;
}

bool
RegDemProvider::touchesDemoted(const ir::Instruction &insn) const
{
    if (insn.writesReg() && _demoted[insn.dst()])
        return true;
    for (RegId src : insn.srcs()) {
        if (_demoted[src])
            return true;
    }
    return false;
}

void
RegDemProvider::tick(Cycle now)
{
    // Spills and fills happen on the issue path; the tick only polls
    // the injected provider-crash fault (DESIGN.md §9).
    if (_faults && _faults->fire(FaultPlan::Kind::ProviderThrow, now))
        panic("injected provider fault at cycle ", now);
}

Cycle
RegDemProvider::nextEventCycle(Cycle from) const
{
    // canIssue() refuses warps while the L1 port is busy, and the SM
    // records no per-warp skip bound on a provider refusal — so the
    // port-free cycle must be reported here or the skip engine could
    // jump past the unblock point. The comparison is >=, not >: the
    // skip probe runs at from - 1, so a port freeing exactly at
    // `from` is precisely the wake-up a just-refused warp is waiting
    // for (mem::MemorySystem::nextEventCycle clamps the same way).
    Cycle next = kNoProviderEvent;
    const Cycle port_free = _mem.l1PortNextFree();
    if (port_free >= from)
        next = port_free;
    if (_faults && !_faults->fired() &&
        _faults->plan().kind == FaultPlan::Kind::ProviderThrow) {
        next = std::min(next,
                        std::max(from, _faults->plan().triggerCycle));
    }
    return next;
}

bool
RegDemProvider::canIssue(const arch::Warp &warp, Cycle now)
{
    if (warp.pc() >= _kernel.numInsns())
        return true;
    if (!touchesDemoted(_kernel.insn(warp.pc())))
        return true;
    return _mem.l1PortFree(now);
}

arch::StallCause
RegDemProvider::blockCause(const arch::Warp &, Cycle) const
{
    // The warp is waiting for the L1 port its fills/spills share with
    // program memory traffic.
    return arch::StallCause::ExecPortBusy;
}

Cycle
RegDemProvider::operandDelay(const arch::Warp &warp,
                             const ir::Instruction &insn, Cycle now)
{
    // Fill every demoted source from the spill space. The accesses
    // serialise through the single L1 port; the instruction waits for
    // the slowest fill.
    Cycle delay = 0;
    for (RegId src : insn.srcs()) {
        if (!_demoted[src])
            continue;
        Cycle t = std::max(now, _mem.l1PortNextFree());
        mem::MemAccessResult mr =
            _mem.access(spillAddr(warp.id(), src), /*is_write=*/false,
                        mem::MemSpace::Register, t);
        ++_stats.fillLoads;
        if (mr.readyCycle > now)
            delay = std::max(delay, mr.readyCycle - now);
    }
    return delay;
}

void
RegDemProvider::onIssue(const arch::Warp &warp, Pc,
                        const ir::Instruction &insn, Cycle now, Cycle)
{
    for (RegId src : insn.srcs()) {
        if (!_demoted[src])
            ++_stats.rfReads;
        // Demoted sources were charged as fill loads in operandDelay.
    }
    if (!insn.writesReg())
        return;
    const RegId dst = insn.dst();
    if (!_demoted[dst]) {
        ++_stats.rfWrites;
        return;
    }
    // Spill the demoted result; the store queues behind any fills
    // this instruction just issued.
    Cycle t = std::max(now, _mem.l1PortNextFree());
    _mem.access(spillAddr(warp.id(), dst), /*is_write=*/true,
                mem::MemSpace::Register, t);
    ++_stats.spillStores;
}

} // namespace regless::regfile

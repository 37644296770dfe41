/**
 * @file
 * RegDem-style register demotion (Sakdhnagool et al., arXiv
 * 1907.02894; DESIGN.md §13.3). The architectural register file is
 * shrunk: only the statically hottest registers of each warp stay in
 * flip-flop storage, the cold rest are demoted to a spill space that
 * lives behind the L1 (modelling RegDem's software spills to shared
 * memory). Every access to a demoted register becomes a real
 * MemorySystem transaction, so spill traffic contends with program
 * loads and RegLess staging for the single L1 port.
 */

#ifndef REGLESS_REGFILE_REGDEM_HH
#define REGLESS_REGFILE_REGDEM_HH

#include <vector>

#include "compiler/compiler.hh"
#include "mem/memory_system.hh"
#include "regfile/register_provider.hh"

namespace regless::regfile
{

/** Shrunken register file with demotion of cold registers. */
class RegDemProvider : public RegisterProvider
{
  public:
    /** Registers per warp retained in the shrunken RF. */
    static constexpr unsigned kHotRegsPerWarp = 16;

    /** Accesses to the shrunken RF and the spill space. */
    struct Stats
    {
        std::uint64_t rfReads = 0;
        std::uint64_t rfWrites = 0;
        /** Demoted-source reads served from the spill space. */
        std::uint64_t fillLoads = 0;
        /** Demoted-destination writes to the spill space. */
        std::uint64_t spillStores = 0;
    };

    RegDemProvider(const compiler::CompiledKernel &ck, mem::MemorySystem &mem);

    void tick(Cycle now) override;
    Cycle nextEventCycle(Cycle from) const override;
    bool canIssue(const arch::Warp &warp, Cycle now) override;
    arch::StallCause blockCause(const arch::Warp &warp,
                                Cycle now) const override;
    void onIssue(const arch::Warp &warp, Pc pc,
                 const ir::Instruction &insn, Cycle now,
                 Cycle writeback) override;
    Cycle operandDelay(const arch::Warp &warp,
                       const ir::Instruction &insn, Cycle now) override;
    void setFaultInjector(FaultInjector *injector) override
    {
        _faults = injector;
    }

    /** Was @a reg demoted to the spill space? (exposed for tests) */
    bool demoted(RegId reg) const { return _demoted.at(reg); }

    /** Retained (hot) registers per warp after demotion. */
    unsigned hotRegs() const { return _hotRegs; }

    const Stats &stats() const { return _stats; }

  private:
    /** Spill-space line of one warp's copy of one register. */
    Addr spillAddr(WarpId warp, RegId reg) const;

    /** Does the instruction at @a warp's PC touch a demoted reg? */
    bool touchesDemoted(const ir::Instruction &insn) const;

    const ir::Kernel &_kernel;
    mem::MemorySystem &_mem;
    std::vector<bool> _demoted;
    unsigned _hotRegs = 0;
    FaultInjector *_faults = nullptr;
    Stats _stats;
};

} // namespace regless::regfile

#endif // REGLESS_REGFILE_REGDEM_HH

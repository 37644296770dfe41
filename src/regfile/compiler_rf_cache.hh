/**
 * @file
 * Compiler-assisted register-file cache (Shoushtary et al., arXiv
 * 2310.17501; DESIGN.md §13.2). The full main register file remains,
 * but a small per-warp cache sits in front of it and absorbs the
 * accesses to compiler-marked short-lived values. Only marked
 * registers are allocated cache entries, so the tiny capacity is
 * never wasted on values with no near reuse; a read of a marked value
 * that was already evicted pays a miss penalty on the operand path.
 */

#ifndef REGLESS_REGFILE_COMPILER_RF_CACHE_HH
#define REGLESS_REGFILE_COMPILER_RF_CACHE_HH

#include <unordered_map>
#include <vector>

#include "compiler/compiler.hh"
#include "compiler/rf_cache_hints.hh"
#include "regfile/register_provider.hh"

namespace regless::regfile
{

/** Small compiler-managed cache in front of a full register file. */
class CompilerRfCache : public RegisterProvider
{
  public:
    /** Hardware parameters (part of the config fingerprint). */
    struct Params
    {
        /** Cache entries per warp (each holds one 128 B register). */
        unsigned cacheEntriesPerWarp = 8;
        /** Compiler pass knob: max def-to-last-use distance. */
        unsigned maxDefUseDistance = 12;
    };

    /** Cache and backing-MRF access counts. */
    struct Stats
    {
        std::uint64_t cacheHits = 0;
        std::uint64_t cacheMisses = 0;
        std::uint64_t mrfReads = 0;
        std::uint64_t mrfWrites = 0;
        std::uint64_t evictions = 0;
    };

    CompilerRfCache(const compiler::CompiledKernel &ck,
                    const Params &params);

    void tick(Cycle now) override;
    Cycle nextEventCycle(Cycle from) const override;
    bool canIssue(const arch::Warp &warp, Cycle now) override;
    void onIssue(const arch::Warp &warp, Pc pc,
                 const ir::Instruction &insn, Cycle now,
                 Cycle writeback) override;
    void onWarpFinished(const arch::Warp &warp, Cycle now) override;
    Cycle operandDelay(const arch::Warp &warp,
                       const ir::Instruction &insn, Cycle now) override;
    void setFaultInjector(FaultInjector *injector) override
    {
        _faults = injector;
    }

    /** Static cacheability of a register (exposed for tests). */
    bool cacheable(RegId reg) const { return _cacheable.at(reg); }

    const Stats &stats() const { return _stats; }

  private:
    static std::uint32_t
    key(WarpId warp, RegId reg)
    {
        return (static_cast<std::uint32_t>(warp) << 16) | reg;
    }

    /** Is (warp, reg) resident? Refreshes LRU age on a hit. */
    bool lookup(std::uint32_t k);

    /** Insert (warp, reg), evicting this warp's LRU entry when full. */
    void insert(WarpId warp, std::uint32_t k);

    Params _params;
    std::vector<bool> _cacheable;
    /** Resident (warp, reg) -> LRU age. */
    std::unordered_map<std::uint32_t, std::uint64_t> _resident;
    /** Resident entries per warp (bounds each warp's slice). */
    std::vector<unsigned> _perWarp;
    std::uint64_t _lruCounter = 0;
    FaultInjector *_faults = nullptr;
    Stats _stats;
};

} // namespace regless::regfile

#endif // REGLESS_REGFILE_COMPILER_RF_CACHE_HH

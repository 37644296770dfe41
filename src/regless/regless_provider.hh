/**
 * @file
 * The RegLess operand provider: four shards (one per warp scheduler),
 * each with its own capacity manager, operand staging unit, and
 * compressor, sharing the SM's single L1 port (paper Figure 8).
 */

#ifndef REGLESS_REGLESS_REGLESS_PROVIDER_HH
#define REGLESS_REGLESS_REGLESS_PROVIDER_HH

#include <memory>
#include <vector>

#include "compiler/compiler.hh"
#include "mem/memory_system.hh"
#include "regfile/register_provider.hh"
#include "regless/capacity_manager.hh"
#include "regless/compressor.hh"
#include "regless/operand_staging_unit.hh"
#include "regless/regless_config.hh"
#include "regless/shadow_checker.hh"

namespace regless::staging
{

/** Operand staging replacing the register file (Figure 1e). */
class ReglessProvider : public regfile::RegisterProvider
{
  public:
    /** Provider-level counts; the shards' units keep their own. */
    struct Stats
    {
        /** Instructions whose sources share an OSU bank. */
        std::uint64_t osuBankConflicts = 0;
    };

    /**
     * @param ck Compiled kernel with region annotations.
     * @param mem The SM's memory hierarchy.
     * @param cfg RegLess parameters.
     * @param num_warps Warp slots in the SM (register address layout
     *        spans the whole SM even under multi-tenant operation, so
     *        backing addresses stay globally unique).
     * @param warp_base First warp this provider serves.
     * @param warp_count Warps served, [warp_base, warp_base+count).
     */
    ReglessProvider(const compiler::CompiledKernel &ck,
                    mem::MemorySystem &mem, const ReglessConfig &cfg,
                    unsigned num_warps, WarpId warp_base,
                    unsigned warp_count);

    /** Whole-SM launch: serve every warp slot. */
    ReglessProvider(const compiler::CompiledKernel &ck,
                    mem::MemorySystem &mem, const ReglessConfig &cfg,
                    unsigned num_warps);

    /** Bind the warp-state accessor; must precede the first tick. */
    void setWarpSource(CapacityManager::WarpSource ws);

    /** Registry hook: the CMs are the warp-source consumers. */
    void
    bindWarpSource(WarpSource source) override
    {
        setWarpSource(std::move(source));
    }

    /** Registry hook: CM activations are the activation events. */
    void
    setActivationObserver(ActivationObserver observer) override
    {
        setActivationHook(std::move(observer));
    }

    void tick(Cycle now) override;
    Cycle nextEventCycle(Cycle from) const override;
    void onCyclesSkipped(Cycle from, Cycle n) override;
    bool canIssue(const arch::Warp &warp, Cycle now) override;
    arch::StallCause blockCause(const arch::Warp &warp,
                                Cycle now) const override
    {
        (void)now;
        return _cms.at(shardOf(warp.id()))->blockCause(warp.id());
    }
    /** Forward an activation observer to every shard's CM. */
    void setActivationHook(CapacityManager::ActivationHook hook)
    {
        for (auto &cm : _cms)
            cm->setActivationHook(hook);
    }
    void onIssue(const arch::Warp &warp, Pc pc,
                 const ir::Instruction &insn, Cycle now,
                 Cycle writeback) override;
    void onWarpFinished(const arch::Warp &warp, Cycle now) override;
    Cycle operandDelay(const arch::Warp &warp,
                       const ir::Instruction &insn, Cycle now) override;

    /** CM activations across shards: background forward progress. */
    std::uint64_t progressEvents() const override;

    /** Forward the injector to the CMs; deliver ProviderThrow here. */
    void setFaultInjector(FaultInjector *injector) override;

    /** @name Multi-tenant hooks (DESIGN.md §16): arbiter admission
     *  gating and the region-boundary suspend protocol, forwarded to
     *  every shard's capacity manager. */
    /// @{
    void joinTenantArbiter(regfile::TenantArbiter &arbiter,
                           unsigned tenant,
                           unsigned priority) override;
    void requestSuspend(Cycle now) override;
    bool suspendComplete() const override;
    void finalizeSuspend(Cycle now) override;
    void resume(Cycle now) override;
    std::uint64_t stagedLinesInUse() const override;
    /// @}

    CapacityManager &cm(unsigned shard) { return *_cms.at(shard); }
    OperandStagingUnit &osu(unsigned shard) { return *_osus.at(shard); }
    Compressor *compressor(unsigned shard)
    {
        return _compressors.empty() ? nullptr
                                    : _compressors.at(shard).get();
    }

    const ReglessConfig &config() const { return _cfg; }

    const Stats &stats() const { return _stats; }

    /**
     * Dynamic staging violations seen so far (always empty unless
     * ReglessConfig::runtimeCheck is set).
     */
    std::vector<compiler::Finding>
    runtimeViolations() const override
    {
        return _shadow ? _shadow->violations()
                       : std::vector<compiler::Finding>{};
    }

    /** CM state, region, and pending preloads of @a warp. */
    void describeWarp(WarpId warp, std::ostream &os) const override;

    /** One line per OSU bank: owned/clean/dirty/free + reservations. */
    void
    describeStorage(std::vector<std::string> &out) const override;

    /** @name Aggregates across shards (Figures 3, 19). */
    /// @{
    double meanRegionPreloads();
    double meanRegionLive();
    double stddevRegionLive();
    double meanRegionCycles();
    double meanRegionInsns();
    /** Sum of all shards' per-100-cycle L1 request series. */
    std::vector<double> l1SeriesPoints();
    /// @}

  private:
    unsigned shardOf(WarpId warp) const { return warp % kNumShards; }

    const compiler::CompiledKernel &_ck;
    ReglessConfig _cfg;
    std::vector<std::unique_ptr<OperandStagingUnit>> _osus;
    std::vector<std::unique_ptr<Compressor>> _compressors;
    std::vector<std::unique_ptr<CapacityManager>> _cms;
    std::unique_ptr<ShadowChecker> _shadow;
    FaultInjector *_faults = nullptr;
    Cycle _tickRotation = 0;
    Stats _stats;
};

} // namespace regless::staging

#endif // REGLESS_REGLESS_REGLESS_PROVIDER_HH

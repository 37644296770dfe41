/**
 * @file
 * Per-run results: timing, traffic, provider activity, and energy.
 * Everything the benches need to regenerate the paper's tables and
 * figures comes out of this structure.
 */

#ifndef REGLESS_SIM_RUN_STATS_HH
#define REGLESS_SIM_RUN_STATS_HH

#include <array>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "arch/stall.hh"
#include "common/types.hh"
#include "energy/energy_model.hh"
#include "sim/gpu_config.hh"

namespace regless::sim
{

/**
 * Per-tenant accounting for one multi-tenant run (DESIGN.md §16).
 * One lane per co-resident kernel; the lane's issue-slot account is
 * closed on its own — insns issued + stalls == the tenant's scheduler
 * slots × cycles — and the lanes sum to the whole-SM invariant.
 */
struct TenantLane
{
    std::string kernel;
    std::uint64_t insns = 0;
    std::uint64_t issuedSlots = 0;
    std::array<std::uint64_t, arch::kNumStallCauses> stallSlots{};
    /** Cycle the tenant's last warp retired (its solo runtime under
     *  co-residency; the LS tenant's tail latency). */
    Cycle finishCycle = 0;
    /** Cycles spent suspended by the QoS controller. */
    std::uint64_t suspendedCycles = 0;
    /** Region-boundary preemptions taken. */
    std::uint64_t preemptions = 0;

    bool operator==(const TenantLane &) const = default;
};

/** Everything measured in one kernel execution. */
struct RunStats
{
    std::string kernel;
    ProviderKind provider = ProviderKind::Baseline;

    /** @name Timing. */
    /// @{
    Cycle cycles = 0;
    std::uint64_t insns = 0;
    std::uint64_t metadataInsns = 0; ///< dynamic metadata fetches
    /// @}

    /** @name Memory hierarchy. */
    /// @{
    std::uint64_t l1Accesses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t dramAccesses = 0;
    /// @}

    /** @name Register-structure activity (per provider). */
    /// @{
    std::uint64_t rfReads = 0;
    std::uint64_t rfWrites = 0;
    std::uint64_t renameLookups = 0;
    std::uint64_t lrfAccesses = 0;
    std::uint64_t orfAccesses = 0;
    std::uint64_t mrfAccesses = 0;
    std::uint64_t osuAccesses = 0;
    std::uint64_t osuTagLookups = 0;
    std::uint64_t osuBankConflicts = 0;
    std::uint64_t compressorAccesses = 0;
    std::uint64_t compressorMatches = 0;
    std::uint64_t compressorIncompressible = 0;
    /** @name Static compression (DESIGN.md §14). */
    /** Evictions compressed via a compile-time proven encoding. */
    std::uint64_t compressorStaticHits = 0;
    /** Evictions whose value escaped its proven encoding. */
    std::uint64_t compressorStaticUnsound = 0;
    /** Sum over cycles of OSU banks power-gated as provably empty. */
    std::uint64_t osuGatedBankCycles = 0;
    /** Compiler-assisted RF cache (DESIGN.md §13.2). */
    std::uint64_t rfCacheHits = 0;
    std::uint64_t rfCacheMisses = 0;
    /** RegDem demotion traffic (DESIGN.md §13.3). */
    std::uint64_t spillStores = 0;
    std::uint64_t fillLoads = 0;
    /// @}

    /** @name RegLess preload/traffic detail (Figures 17, 18). */
    /// @{
    std::uint64_t preloadSrcOsu = 0;
    std::uint64_t preloadSrcCompressor = 0;
    std::uint64_t preloadSrcL1 = 0;
    std::uint64_t preloadSrcL2Dram = 0;
    std::uint64_t l1PreloadReqs = 0;
    std::uint64_t l1StoreReqs = 0;
    std::uint64_t l1InvalidateReqs = 0;
    /// @}

    /** @name Issue-slot attribution (DESIGN.md section 10). */
    /// @{
    /** Scheduler slots that issued (one per scheduler per cycle). */
    std::uint64_t issuedSlots = 0;
    /** Slots lost, charged to exactly one cause each; indexed by
     *  arch::StallCause. issuedSlots + sum == schedulers * cycles
     *  per SM (summed over SMs in multi-SM runs). */
    std::array<std::uint64_t, arch::kNumStallCauses> stallSlots{};
    /** @name Cycle-skip meta-counters (DESIGN.md §12). Zero in
     *  skip-off reference runs; excluded from differential oracles. */
    /** Cycles collapsed by the skip-ahead engine. */
    std::uint64_t skippedCycles = 0;
    /** Skip jumps taken. */
    std::uint64_t skipEvents = 0;
    /// @}

    /** Mean register working set per 100 cycles, bytes (Figure 2). */
    double meanWorkingSetBytes = 0.0;

    /** Backing-store accesses per 100 cycles over time (Figure 3). */
    std::vector<double> backingSeries;

    /** @name Dynamic region behaviour (Figure 19, Table 2). */
    /// @{
    double regionPreloadsMean = 0.0;
    double regionLiveMean = 0.0;
    double regionLiveStddev = 0.0;
    double regionCyclesMean = 0.0;
    double regionInsnsMean = 0.0;
    double staticInsnsPerRegion = 0.0;
    unsigned numRegions = 0;
    /// @}

    /** Per-tenant lanes; empty for single-tenant runs, so classic
     *  results keep their exact serialized form. */
    std::vector<TenantLane> tenants;

    /** Energy under the model (filled by computeEnergy). */
    energy::EnergyBreakdown energy;

    /** Total preloads (all sources). */
    std::uint64_t
    totalPreloads() const
    {
        return preloadSrcOsu + preloadSrcCompressor + preloadSrcL1 +
               preloadSrcL2Dram;
    }

    /** Exact equality over every member (doubles compared with ==),
     *  for the determinism tests and the serialization round-trip. */
    bool operator==(const RunStats &) const = default;
};

/**
 * @name Field lists (DESIGN.md §7).
 * Every RunStats and TenantLane member is listed once, in the
 * forEachField() overloads below, with its JSON key and merge rule.
 * The list order is the stats_io emission order. The JSON writer and
 * reader and mergeRunStats() are written over these lists (equality
 * is the defaulted memberwise one), so a new member needs exactly one
 * new entry.
 */
/// @{
namespace field
{
enum class Rule
{
    Sum,     ///< added (arrays element-wise, lanes lane by lane)
    Max,     ///< maximum (wall clock, finish cycles)
    First,   ///< kept from the first SM/tenant (names, means, series)
    Derived, ///< computed from other fields: written, never read back
};

/** A list entry's JSON key, typed by its merge rule. */
template <Rule R>
struct Tag
{
    std::string_view key;
};

using Sum = Tag<Rule::Sum>;
using Max = Tag<Rule::Max>;
using First = Tag<Rule::First>;
using Derived = Tag<Rule::Derived>;
} // namespace field

/**
 * Call @a f(tag, lanes.member...) for each TenantLane field in list
 * order, stopping at the first call that returns true; returns
 * whether any did. @a lanes are one or more (const) TenantLanes.
 */
template <typename F, typename... Lanes>
    requires(std::same_as<std::remove_cvref_t<Lanes>, TenantLane> &&
             ...)
bool
forEachField(F &&f, Lanes &&...l)
{
    using namespace field;
    return f(First{"kernel"}, l.kernel...) ||
           f(Sum{"insns"}, l.insns...) ||
           f(Sum{"issued_slots"}, l.issuedSlots...) ||
           f(Sum{"stall_"}, l.stallSlots...) ||
           f(Max{"finish_cycle"}, l.finishCycle...) ||
           f(Sum{"suspended_cycles"}, l.suspendedCycles...) ||
           f(Sum{"preemptions"}, l.preemptions...);
}

/**
 * The RunStats field list; same contract as TenantLane's. Stall
 * arrays are keyed "stall_<cause>" and lanes "tenant<t>_<field>"
 * (after a "tenant_count"), both by the JSON layer.
 */
template <typename F, typename... Runs>
    requires(std::same_as<std::remove_cvref_t<Runs>, RunStats> && ...)
bool
forEachField(F &&f, Runs &&...r)
{
    using namespace field;
    return f(First{"kernel"}, r.kernel...) ||
           f(First{"provider"}, r.provider...) ||
           f(Max{"cycles"}, r.cycles...) ||
           f(Sum{"insns"}, r.insns...) ||
           f(Sum{"metadata_insns"}, r.metadataInsns...) ||
           f(Sum{"l1_accesses"}, r.l1Accesses...) ||
           f(Sum{"l2_accesses"}, r.l2Accesses...) ||
           // Multi-SM totals re-read the shared DRAM's count instead.
           f(Sum{"dram_accesses"}, r.dramAccesses...) ||
           f(Sum{"rf_reads"}, r.rfReads...) ||
           f(Sum{"rf_writes"}, r.rfWrites...) ||
           f(Sum{"rename_lookups"}, r.renameLookups...) ||
           f(Sum{"lrf_accesses"}, r.lrfAccesses...) ||
           f(Sum{"orf_accesses"}, r.orfAccesses...) ||
           f(Sum{"mrf_accesses"}, r.mrfAccesses...) ||
           f(Sum{"osu_accesses"}, r.osuAccesses...) ||
           f(Sum{"osu_tag_lookups"}, r.osuTagLookups...) ||
           f(Sum{"osu_bank_conflicts"}, r.osuBankConflicts...) ||
           f(Sum{"compressor_accesses"}, r.compressorAccesses...) ||
           f(Sum{"compressor_matches"}, r.compressorMatches...) ||
           f(Sum{"compressor_incompressible"},
             r.compressorIncompressible...) ||
           f(Sum{"compressor_static_hits"}, r.compressorStaticHits...) ||
           f(Sum{"compressor_static_unsound"},
             r.compressorStaticUnsound...) ||
           f(Sum{"osu_gated_bank_cycles"}, r.osuGatedBankCycles...) ||
           f(Sum{"rf_cache_hits"}, r.rfCacheHits...) ||
           f(Sum{"rf_cache_misses"}, r.rfCacheMisses...) ||
           f(Sum{"spill_stores"}, r.spillStores...) ||
           f(Sum{"fill_loads"}, r.fillLoads...) ||
           f(Sum{"preload_src_osu"}, r.preloadSrcOsu...) ||
           f(Sum{"preload_src_compressor"}, r.preloadSrcCompressor...) ||
           f(Sum{"preload_src_l1"}, r.preloadSrcL1...) ||
           f(Sum{"preload_src_l2dram"}, r.preloadSrcL2Dram...) ||
           f(Sum{"l1_preload_reqs"}, r.l1PreloadReqs...) ||
           f(Sum{"l1_store_reqs"}, r.l1StoreReqs...) ||
           f(Sum{"l1_invalidate_reqs"}, r.l1InvalidateReqs...) ||
           f(Sum{"issued_slots"}, r.issuedSlots...) ||
           f(Sum{"stall_"}, r.stallSlots...) ||
           f(Sum{"skipped_cycles"}, r.skippedCycles...) ||
           f(Sum{"skip_events"}, r.skipEvents...) ||
           f(First{"working_set_bytes"}, r.meanWorkingSetBytes...) ||
           f(First{"region_preloads_mean"}, r.regionPreloadsMean...) ||
           f(First{"region_live_mean"}, r.regionLiveMean...) ||
           f(First{"region_live_stddev"}, r.regionLiveStddev...) ||
           f(First{"region_cycles_mean"}, r.regionCyclesMean...) ||
           f(First{"region_insns_mean"}, r.regionInsnsMean...) ||
           f(First{"static_insns_per_region"},
             r.staticInsnsPerRegion...) ||
           f(First{"num_regions"}, r.numRegions...) ||
           f(Sum{"energy_reg_dynamic"}, r.energy.regDynamic...) ||
           f(Sum{"energy_reg_static"}, r.energy.regStatic...) ||
           f(Sum{"energy_compressor"}, r.energy.compressor...) ||
           f(Sum{"energy_memory"}, r.energy.memory...) ||
           f(Sum{"energy_rest"}, r.energy.rest...) ||
           f(Derived{"energy_total"}, r.energy.total()...) ||
           f(First{"backing_series"}, r.backingSeries...) ||
           f(Sum{"tenant"}, r.tenants...);
}
/// @}

/**
 * Fold @a from into @a into field by field under each field's rule.
 * Multi-tenant harvests fold tenants 1..n into tenant 0's run, and
 * multi-SM totals fold SMs 1..n into SM 0's. Both runs must carry
 * the same number of tenant lanes.
 */
void mergeRunStats(RunStats &into, const RunStats &from);

/** Fill @a stats.energy from its counters under @a config's model. */
void computeEnergy(RunStats &stats, const GpuConfig &config);

/** The "No RF" bound: @a baseline's run with free register accesses. */
energy::EnergyBreakdown noRfBound(const RunStats &baseline);

} // namespace regless::sim

#endif // REGLESS_SIM_RUN_STATS_HH

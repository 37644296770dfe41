#include "sim/provider_registry.hh"

#include <algorithm>

#include "common/logging.hh"
#include "compiler/compiler.hh"
#include "regfile/baseline_rf.hh"
#include "regfile/compiler_rf_cache.hh"
#include "regfile/regdem.hh"
#include "regfile/rf_hierarchy.hh"
#include "regfile/rf_virtualization.hh"
#include "regless/regless_provider.hh"

namespace regless::sim
{

namespace
{

using Provider = std::unique_ptr<regfile::RegisterProvider>;

/** RFV physical file entries (half the baseline). */
constexpr unsigned kRfvPhysEntries = 1024;

/* ---------------- factories ---------------- */

Provider
makeBaseline(const compiler::CompiledKernel &, mem::MemorySystem &,
             const GpuConfig &, WarpId, unsigned)
{
    return std::make_unique<regfile::BaselineRf>();
}

Provider
makeRfh(const compiler::CompiledKernel &ck, mem::MemorySystem &,
        const GpuConfig &config, WarpId, unsigned)
{
    if (config.sm.scheduler != arch::SchedulerPolicy::TwoLevel)
        warn("RFH without the two-level scheduler is not the "
             "published technique");
    return std::make_unique<regfile::RfHierarchy>(ck);
}

Provider
makeRfv(const compiler::CompiledKernel &ck, mem::MemorySystem &,
        const GpuConfig &, WarpId, unsigned)
{
    return std::make_unique<regfile::RfVirtualization>(
        ck, kRfvPhysEntries);
}

Provider
makeRegless(const compiler::CompiledKernel &ck, mem::MemorySystem &mem,
            const GpuConfig &config, WarpId warp_base,
            unsigned warp_count)
{
    return std::make_unique<staging::ReglessProvider>(
        ck, mem, config.regless, config.sm.numWarps, warp_base,
        warp_count);
}

Provider
makeReglessNoCompressor(const compiler::CompiledKernel &ck,
                        mem::MemorySystem &mem, const GpuConfig &config,
                        WarpId warp_base, unsigned warp_count)
{
    // Force the ablation even for configs built without forProvider().
    staging::ReglessConfig rcfg = config.regless;
    rcfg.compressorEnabled = false;
    return std::make_unique<staging::ReglessProvider>(
        ck, mem, rcfg, config.sm.numWarps, warp_base, warp_count);
}

Provider
makeCompilerRfCache(const compiler::CompiledKernel &ck,
                    mem::MemorySystem &, const GpuConfig &config,
                    WarpId, unsigned)
{
    return std::make_unique<regfile::CompilerRfCache>(ck,
                                                      config.rfCache);
}

Provider
makeRegDem(const compiler::CompiledKernel &ck, mem::MemorySystem &mem,
           const GpuConfig &, WarpId, unsigned)
{
    return std::make_unique<regfile::RegDemProvider>(ck, mem);
}

/* ---------------- config tuning ---------------- */

void
tuneReglessNoCompressor(GpuConfig &config)
{
    config.regless.compressorEnabled = false;
}

/* ---------------- stat collection ---------------- */

void
collectBaseline(regfile::RegisterProvider &provider, RunStats &stats)
{
    auto &rf = static_cast<regfile::BaselineRf &>(provider);
    stats.rfReads = rf.stats().reads;
    stats.rfWrites = rf.stats().writes;
    stats.meanWorkingSetBytes = rf.meanWorkingSetBytes();
    rf.flushSeries();
    stats.backingSeries = rf.accessSeries().points();
}

void
collectRfh(regfile::RegisterProvider &provider, RunStats &stats)
{
    auto &rfh = static_cast<regfile::RfHierarchy &>(provider);
    const auto &s = rfh.stats();
    stats.lrfAccesses = s.lrfReads + s.lrfWrites;
    stats.orfAccesses = s.orfReads + s.orfWrites;
    stats.mrfAccesses = s.mrfReads + s.mrfWrites;
    rfh.mrfSeries().flush();
    stats.backingSeries = rfh.mrfSeries().points();
}

void
collectRfv(regfile::RegisterProvider &provider, RunStats &stats)
{
    const auto &s =
        static_cast<regfile::RfVirtualization &>(provider).stats();
    stats.rfReads = s.reads;
    stats.rfWrites = s.writes;
    stats.renameLookups = s.renameLookups;
}

void
collectRegless(regfile::RegisterProvider &provider, RunStats &stats)
{
    auto &rp = static_cast<staging::ReglessProvider &>(provider);
    stats.regionPreloadsMean = rp.meanRegionPreloads();
    stats.regionLiveMean = rp.meanRegionLive();
    stats.regionLiveStddev = rp.stddevRegionLive();
    stats.regionCyclesMean = rp.meanRegionCycles();
    stats.regionInsnsMean = rp.meanRegionInsns();
    stats.backingSeries = rp.l1SeriesPoints();
    stats.osuBankConflicts = rp.stats().osuBankConflicts;
    for (unsigned s = 0; s < staging::kNumShards; ++s) {
        const staging::CapacityManager::Stats &cm = rp.cm(s).stats();
        stats.preloadSrcOsu += cm.preloadSrcOsu;
        stats.preloadSrcCompressor += cm.preloadSrcCompressor;
        stats.preloadSrcL1 += cm.preloadSrcL1;
        stats.preloadSrcL2Dram += cm.preloadSrcL2Dram;
        stats.l1PreloadReqs += cm.l1PreloadReqs;
        stats.l1StoreReqs += cm.l1StoreReqs;
        stats.l1InvalidateReqs += cm.l1InvalidateReqs;
        stats.metadataInsns += cm.metadataInsns;
        stats.osuGatedBankCycles += cm.gatedBankCycles;
        const staging::OperandStagingUnit::Stats &osu = rp.osu(s).stats();
        stats.osuAccesses += osu.reads + osu.writes;
        stats.osuTagLookups += osu.tagLookups;
        const staging::Compressor *comp = rp.compressor(s);
        if (!comp)
            continue;
        const staging::Compressor::Stats &cs = comp->stats();
        stats.compressorAccesses += cs.matches + cs.incompressible +
                                    cs.cacheHits + cs.cacheMisses;
        // Compressed line flushes are L1 stores too (Figure 18).
        stats.l1StoreReqs += cs.lineFlushes;
        stats.compressorMatches += cs.matches;
        stats.compressorIncompressible += cs.incompressible;
        stats.compressorStaticHits += cs.staticHits;
        stats.compressorStaticUnsound += cs.staticUnsound;
    }
}

void
collectCompilerRfCache(regfile::RegisterProvider &provider,
                       RunStats &stats)
{
    const auto &s =
        static_cast<regfile::CompilerRfCache &>(provider).stats();
    stats.rfCacheHits = s.cacheHits;
    stats.rfCacheMisses = s.cacheMisses;
    // The backing MRF absorbs whatever the cache did not.
    stats.rfReads = s.mrfReads;
    stats.rfWrites = s.mrfWrites;
}

void
collectRegDem(regfile::RegisterProvider &provider, RunStats &stats)
{
    const auto &s =
        static_cast<regfile::RegDemProvider &>(provider).stats();
    stats.rfReads = s.rfReads;
    stats.rfWrites = s.rfWrites;
    stats.fillLoads = s.fillLoads;
    stats.spillStores = s.spillStores;
}

/* ---------------- energy models ---------------- */

void
energyBaseline(const RunStats &stats, const GpuConfig &config,
               energy::EnergyBreakdown &out)
{
    out.regDynamic =
        static_cast<double>(stats.rfReads + stats.rfWrites) *
        energy::accessEnergy(config.baselineRfEntries);
    out.regStatic = energy::staticPower(config.baselineRfEntries) *
                    static_cast<double>(stats.cycles);
}

void
energyRfh(const RunStats &stats, const GpuConfig &config,
          energy::EnergyBreakdown &out)
{
    // The MRF stays full size; short-lived values hit the small
    // levels instead.
    out.regDynamic =
        static_cast<double>(stats.lrfAccesses) * energy::kLrfAccess +
        static_cast<double>(stats.orfAccesses) * energy::kOrfAccess +
        static_cast<double>(stats.mrfAccesses) *
            energy::accessEnergy(config.baselineRfEntries);
    out.regStatic = energy::staticPower(config.baselineRfEntries) *
                    static_cast<double>(stats.cycles);
}

void
energyRfv(const RunStats &stats, const GpuConfig &,
          energy::EnergyBreakdown &out)
{
    out.regDynamic =
        static_cast<double>(stats.rfReads + stats.rfWrites) *
            energy::accessEnergy(kRfvPhysEntries) +
        static_cast<double>(stats.renameLookups) * energy::kRenameAccess;
    out.regStatic = energy::staticPower(kRfvPhysEntries) *
                    static_cast<double>(stats.cycles);
}

void
energyRegless(const RunStats &stats, const GpuConfig &config,
              energy::EnergyBreakdown &out)
{
    const double cycles = static_cast<double>(stats.cycles);
    out.regDynamic =
        (static_cast<double>(stats.osuAccesses) *
             energy::accessEnergy(config.regless.osuEntriesPerSm) +
         static_cast<double>(stats.osuTagLookups) * energy::kTagAccess) *
        energy::kOsuOverheadFactor;
    out.regStatic = energy::staticPower(config.regless.osuEntriesPerSm) *
                    energy::kOsuOverheadFactor * cycles;
    // Static footprint gating (DESIGN.md §14): banks proven empty by
    // the per-region bound leak nothing while gated. The counter sums
    // gated banks over cycles and shards, so the discount is its share
    // of the total bank-cycles.
    if (config.regless.bankGating && stats.cycles > 0) {
        const double bank_cycles =
            cycles * static_cast<double>(staging::kNumShards) *
            static_cast<double>(staging::osuBanks);
        const double gated_frac = std::min(
            1.0,
            static_cast<double>(stats.osuGatedBankCycles) / bank_cycles);
        out.regStatic *= 1.0 - gated_frac;
    }
    out.compressor = static_cast<double>(stats.compressorAccesses) *
                         energy::kCompressorAccess +
                     energy::kCompressorStaticPerCycle * cycles;
}

void
energyReglessNoCompressor(const RunStats &stats,
                          const GpuConfig &config,
                          energy::EnergyBreakdown &out)
{
    energyRegless(stats, config, out);
    out.compressor = 0.0; // the ablation has no compressor at all
}

unsigned
rfCacheEntries(const GpuConfig &config)
{
    return config.rfCache.cacheEntriesPerWarp * config.sm.numWarps;
}

void
energyCompilerRfCache(const RunStats &stats, const GpuConfig &config,
                      energy::EnergyBreakdown &out)
{
    // Hits and miss-refills touch the small cache; everything the
    // cache did not absorb pays full-MRF access energy.
    out.regDynamic =
        static_cast<double>(stats.rfCacheHits + stats.rfCacheMisses) *
            energy::accessEnergy(rfCacheEntries(config)) +
        static_cast<double>(stats.rfReads + stats.rfWrites) *
            energy::accessEnergy(config.baselineRfEntries);
    out.regStatic = (energy::staticPower(config.baselineRfEntries) +
                     energy::staticPower(rfCacheEntries(config))) *
                    static_cast<double>(stats.cycles);
}

unsigned
regdemEntries(const GpuConfig &config)
{
    return std::min(config.baselineRfEntries,
                    regfile::RegDemProvider::kHotRegsPerWarp *
                        config.sm.numWarps);
}

void
energyRegDem(const RunStats &stats, const GpuConfig &config,
             energy::EnergyBreakdown &out)
{
    // Only the shrunken hot file remains; spill/fill traffic is real
    // memory traffic and is charged in the memory term.
    out.regDynamic =
        static_cast<double>(stats.rfReads + stats.rfWrites) *
        energy::accessEnergy(regdemEntries(config));
    out.regStatic = energy::staticPower(regdemEntries(config)) *
                    static_cast<double>(stats.cycles);
}

/* ---------------- area models ---------------- */

energy::AreaBreakdown
areaBaselineRf(const GpuConfig &config)
{
    return energy::plainRfArea(config.baselineRfEntries);
}

energy::AreaBreakdown
areaRfh(const GpuConfig &config)
{
    // The full-size MRF dominates; LRF/ORF storage rides on top.
    energy::AreaBreakdown a =
        energy::plainRfArea(config.baselineRfEntries);
    energy::AreaBreakdown small = energy::plainRfArea(
        regfile::RfHierarchy::kOrfEntriesPerWarp * config.sm.numWarps);
    a.storage += small.storage;
    a.logic += small.logic;
    return a;
}

energy::AreaBreakdown
areaRfv(const GpuConfig &)
{
    return energy::plainRfArea(kRfvPhysEntries);
}

energy::AreaBreakdown
areaRegless(const GpuConfig &config)
{
    return energy::reglessArea(config.regless.osuEntriesPerSm,
                               /*with_compressor=*/true);
}

energy::AreaBreakdown
areaReglessNoCompressor(const GpuConfig &config)
{
    return energy::reglessArea(config.regless.osuEntriesPerSm,
                               /*with_compressor=*/false);
}

energy::AreaBreakdown
areaCompilerRfCache(const GpuConfig &config)
{
    energy::AreaBreakdown a =
        energy::plainRfArea(config.baselineRfEntries);
    energy::AreaBreakdown cache =
        energy::plainRfArea(rfCacheEntries(config));
    a.storage += cache.storage;
    a.logic += cache.logic;
    return a;
}

energy::AreaBreakdown
areaRegDem(const GpuConfig &config)
{
    return energy::plainRfArea(regdemEntries(config));
}

const std::array<ProviderDescriptor, kNumProviderKinds> registry{{
    {ProviderKind::Baseline, "baseline", "Baseline RF",
     arch::SchedulerPolicy::Gto, /*fixedArchitecturalRf=*/true,
     makeBaseline, nullptr, collectBaseline, energyBaseline,
     areaBaselineRf},
    {ProviderKind::Rfh, "rfh", "RF hierarchy",
     arch::SchedulerPolicy::TwoLevel, /*fixedArchitecturalRf=*/true,
     makeRfh, nullptr, collectRfh, energyRfh, areaRfh},
    {ProviderKind::Rfv, "rfv", "RF virtualization",
     arch::SchedulerPolicy::TwoLevel, /*fixedArchitecturalRf=*/false,
     makeRfv, nullptr, collectRfv, energyRfv, areaRfv},
    {ProviderKind::Regless, "regless", "RegLess",
     arch::SchedulerPolicy::Gto, /*fixedArchitecturalRf=*/false,
     makeRegless, nullptr, collectRegless, energyRegless, areaRegless},
    {ProviderKind::ReglessNoCompressor, "regless_nocomp",
     "RegLess (no compressor)", arch::SchedulerPolicy::Gto,
     /*fixedArchitecturalRf=*/false, makeReglessNoCompressor,
     tuneReglessNoCompressor, collectRegless,
     energyReglessNoCompressor, areaReglessNoCompressor},
    {ProviderKind::CompilerRfCache, "rfcache", "Compiler RF cache",
     arch::SchedulerPolicy::Gto, /*fixedArchitecturalRf=*/true,
     makeCompilerRfCache, nullptr, collectCompilerRfCache,
     energyCompilerRfCache, areaCompilerRfCache},
    {ProviderKind::RegDem, "regdem", "RegDem spilling",
     arch::SchedulerPolicy::Gto, /*fixedArchitecturalRf=*/true,
     makeRegDem, nullptr, collectRegDem, energyRegDem, areaRegDem},
}};

} // namespace

const std::array<ProviderDescriptor, kNumProviderKinds> &
providerRegistry()
{
    return registry;
}

const ProviderDescriptor &
providerDescriptor(ProviderKind kind)
{
    const auto index = static_cast<std::size_t>(kind);
    if (index >= registry.size() ||
        registry[index].kind != kind) {
        fatal("provider kind ", index, " is not registered");
    }
    return registry[index];
}

const std::array<ProviderKind, kNumProviderKinds> &
allProviderKinds()
{
    static const std::array<ProviderKind, kNumProviderKinds> kinds =
        [] {
            std::array<ProviderKind, kNumProviderKinds> out{};
            for (std::size_t i = 0; i < registry.size(); ++i)
                out[i] = registry[i].kind;
            return out;
        }();
    return kinds;
}

const char *
providerName(ProviderKind kind)
{
    return providerDescriptor(kind).name;
}

bool
tryProviderFromName(const std::string &name, ProviderKind &out)
{
    for (const ProviderDescriptor &d : registry) {
        if (name == d.name) {
            out = d.kind;
            return true;
        }
    }
    return false;
}

ProviderKind
providerFromName(const std::string &name)
{
    ProviderKind kind;
    if (!tryProviderFromName(name, kind))
        fatal("unknown provider name '", name, "'");
    return kind;
}

GpuConfig
GpuConfig::forProvider(ProviderKind kind)
{
    const ProviderDescriptor &d = providerDescriptor(kind);
    GpuConfig config;
    config.provider = kind;
    // The scheduler default is part of each published technique
    // ([11] integrally; [19] as evaluated in the paper, Fig. 16);
    // everything else uses GTO (Table 1).
    config.sm.scheduler = d.scheduler;
    if (d.tuneConfig)
        d.tuneConfig(config);
    return config;
}

} // namespace regless::sim

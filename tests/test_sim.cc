/**
 * @file
 * Simulation-module tests: configuration derivation, the synthetic
 * value generator, energy accounting, the No-RF bound, and run-stats
 * harvesting.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/gpu_simulator.hh"
#include "workloads/rodinia.hh"

namespace regless
{
namespace
{

TEST(GpuConfigTest, ProviderNames)
{
    EXPECT_STREQ(sim::providerName(sim::ProviderKind::Baseline),
                 "baseline");
    EXPECT_STREQ(sim::providerName(sim::ProviderKind::Regless),
                 "regless");
    EXPECT_STREQ(sim::providerName(sim::ProviderKind::ReglessNoCompressor),
                 "regless_nocomp");
}

TEST(GpuConfigTest, ForProviderWiresSchedulers)
{
    EXPECT_EQ(sim::GpuConfig::forProvider(sim::ProviderKind::Baseline)
                  .sm.scheduler,
              arch::SchedulerPolicy::Gto);
    EXPECT_EQ(
        sim::GpuConfig::forProvider(sim::ProviderKind::Rfh).sm.scheduler,
        arch::SchedulerPolicy::TwoLevel);
    EXPECT_EQ(
        sim::GpuConfig::forProvider(sim::ProviderKind::Rfv).sm.scheduler,
        arch::SchedulerPolicy::TwoLevel);
    EXPECT_FALSE(
        sim::GpuConfig::forProvider(sim::ProviderKind::ReglessNoCompressor)
            .regless.compressorEnabled);
}

TEST(GpuConfigTest, OsuCapacityDerivesCompilerLimits)
{
    sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    cfg.setOsuCapacity(128);
    // 128 / 4 shards / 8 banks = 4 lines per bank.
    EXPECT_LE(cfg.compiler.maxRegsPerBank, 4u);
    EXPECT_GE(cfg.compiler.maxRegsPerBank, 1u);
    cfg.setOsuCapacity(2048);
    EXPECT_EQ(cfg.compiler.maxRegsPerBank, 12u);
}

TEST(ValueGeneratorTest, RespectsProfileFractions)
{
    ir::ValueProfile all_const;
    all_const.constantFrac = 1.0;
    all_const.stride1Frac = 0.0;
    all_const.stride4Frac = 0.0;
    all_const.halfWarpFrac = 0.0;
    auto gen = sim::GpuSimulator::valueGenerator(all_const);
    // Every 128-byte line yields a constant value.
    for (Addr line = 0; line < 50; ++line) {
        std::uint32_t first = gen(line * 128);
        for (unsigned off = 4; off < 128; off += 4)
            ASSERT_EQ(gen(line * 128 + off), first);
    }

    ir::ValueProfile all_stride;
    all_stride.constantFrac = 0.0;
    all_stride.stride1Frac = 1.0;
    all_stride.stride4Frac = 0.0;
    all_stride.halfWarpFrac = 0.0;
    auto sgen = sim::GpuSimulator::valueGenerator(all_stride);
    for (Addr line = 0; line < 50; ++line) {
        std::uint32_t first = sgen(line * 128);
        for (unsigned w = 1; w < 32; ++w)
            ASSERT_EQ(sgen(line * 128 + 4 * w), first + w);
    }
}

TEST(ValueGeneratorTest, Deterministic)
{
    auto a = sim::GpuSimulator::valueGenerator(ir::ValueProfile{});
    auto b = sim::GpuSimulator::valueGenerator(ir::ValueProfile{});
    for (Addr addr = 0; addr < 4096; addr += 4)
        ASSERT_EQ(a(addr), b(addr));
}

TEST(RunStatsTest, EnergyComponentsPositive)
{
    sim::RunStats stats = sim::runKernel(workloads::makeRodinia("nn"),
                                         sim::ProviderKind::Baseline);
    EXPECT_GT(stats.energy.regDynamic, 0.0);
    EXPECT_GT(stats.energy.regStatic, 0.0);
    EXPECT_GT(stats.energy.memory, 0.0);
    EXPECT_GT(stats.energy.rest, 0.0);
    EXPECT_DOUBLE_EQ(stats.energy.total(),
                     stats.energy.registerStructures() +
                         stats.energy.memory + stats.energy.rest);
}

TEST(RunStatsTest, NoRfBoundZeroesRegisterEnergy)
{
    sim::RunStats stats = sim::runKernel(workloads::makeRodinia("nn"),
                                         sim::ProviderKind::Baseline);
    energy::EnergyBreakdown bound = sim::noRfBound(stats);
    EXPECT_DOUBLE_EQ(bound.registerStructures(), 0.0);
    EXPECT_DOUBLE_EQ(bound.memory, stats.energy.memory);
    EXPECT_LT(bound.total(), stats.energy.total());
}

TEST(RunStatsTest, NoRfBoundRequiresBaseline)
{
    sim::RunStats stats = sim::runKernel(workloads::makeRodinia("nn"),
                                         sim::ProviderKind::Regless);
    EXPECT_THROW(sim::noRfBound(stats), sim::SimError);
}

TEST(RunStatsTest, ReglessCountsMetadataAndPreloads)
{
    sim::RunStats stats = sim::runKernel(workloads::makeRodinia("bfs"),
                                         sim::ProviderKind::Regless);
    EXPECT_GT(stats.metadataInsns, 0u);
    EXPECT_GT(stats.totalPreloads(), 0u);
    EXPECT_GT(stats.osuAccesses, stats.insns);
    EXPECT_GT(stats.regionLiveMean, 0.0);
    EXPECT_GT(stats.regionCyclesMean, 0.0);
}

TEST(RunStatsTest, CompressorEnergyOnlyWithCompressor)
{
    sim::RunStats with = sim::runKernel(workloads::makeRodinia("hotspot"),
                                        sim::ProviderKind::Regless);
    sim::RunStats without =
        sim::runKernel(workloads::makeRodinia("hotspot"),
                       sim::ProviderKind::ReglessNoCompressor);
    EXPECT_GT(with.energy.compressor, 0.0);
    EXPECT_DOUBLE_EQ(without.energy.compressor, 0.0);
}

TEST(EnergyModelTest, AccessEnergyScalesWithCapacity)
{
    energy::EnergyConfig cfg;
    EXPECT_DOUBLE_EQ(cfg.accessEnergy(2048), cfg.rfAccess2048);
    EXPECT_LT(cfg.accessEnergy(512), cfg.accessEnergy(1024));
    EXPECT_LT(cfg.accessEnergy(1024), cfg.accessEnergy(2048));
    // Superlinear scaling: quarter capacity is cheaper than quarter
    // energy.
    EXPECT_LT(cfg.accessEnergy(512), cfg.rfAccess2048 / 4.0 * 1.05);
}

TEST(EnergyModelTest, StaticPowerLinearInCapacity)
{
    energy::EnergyConfig cfg;
    EXPECT_DOUBLE_EQ(cfg.staticPower(1024),
                     cfg.rfStatic2048PerCycle / 2.0);
}

TEST(AreaModelTest, MonotoneAndSplit)
{
    energy::AreaConfig area;
    double prev = 0.0;
    for (unsigned cap : {128u, 256u, 512u, 1024u, 2048u}) {
        energy::AreaBreakdown b = area.regless(cap);
        EXPECT_GT(b.total(), prev);
        EXPECT_GT(b.storage, 0.0);
        EXPECT_GT(b.logic, 0.0);
        EXPECT_GT(b.compressor, 0.0);
        prev = b.total();
    }
    // Without the compressor, smaller.
    EXPECT_LT(area.regless(512, false).total(),
              area.regless(512, true).total());
}

TEST(ExperimentTest, RunReglessAppliesCapacity)
{
    sim::RunStats small =
        sim::runRegless(workloads::makeRodinia("srad_v1"), 128);
    sim::RunStats large =
        sim::runRegless(workloads::makeRodinia("srad_v1"), 1024);
    // Less staging space -> more backing-store traffic.
    EXPECT_GT(small.l1PreloadReqs + small.l1StoreReqs,
              large.l1PreloadReqs + large.l1StoreReqs);
    EXPECT_GE(small.cycles, large.cycles);
}

TEST(ExperimentTest, CellFormatting)
{
    EXPECT_EQ(sim::cell(std::string("ab"), 5), "ab   ");
    EXPECT_EQ(sim::cell(1.5, 7, 2), "1.50   ");
}

TEST(GpuSimulatorTest, IntrospectionAccessors)
{
    sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    sim::GpuSimulator g(workloads::makeRodinia("nn"), cfg);
    EXPECT_GT(g.compiled().regions().size(), 0u);
    EXPECT_EQ(g.config().provider, sim::ProviderKind::Regless);
    sim::RunStats stats = g.run();
    EXPECT_EQ(stats.kernel, "nn");
    EXPECT_TRUE(g.sm().done());
}

TEST(GpuSimulatorTest, DeterministicAcrossRuns)
{
    auto run_once = [] {
        return sim::runKernel(workloads::makeRodinia("kmeans"),
                              sim::ProviderKind::Regless);
    };
    sim::RunStats a = run_once();
    sim::RunStats b = run_once();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.insns, b.insns);
    EXPECT_EQ(a.totalPreloads(), b.totalPreloads());
    EXPECT_DOUBLE_EQ(a.energy.total(), b.energy.total());
}

} // namespace
} // namespace regless

#include "sim/multi_sm.hh"

namespace regless
{
namespace
{

TEST(MultiSmTest, AggregatesAcrossSms)
{
    sim::MultiSmSimulator multi(
        workloads::makeRodinia("nn"),
        sim::GpuConfig::forProvider(sim::ProviderKind::Baseline), 4);
    sim::RunStats total = multi.run();
    ASSERT_EQ(multi.perSm().size(), 4u);
    // Work sums; wall clock is the slowest SM.
    std::uint64_t insns = 0;
    Cycle slowest = 0;
    for (const sim::RunStats &s : multi.perSm()) {
        insns += s.insns;
        slowest = std::max(slowest, s.cycles);
    }
    EXPECT_EQ(total.insns, insns);
    EXPECT_EQ(total.cycles, slowest);
    EXPECT_EQ(total.insns, 4u * multi.perSm()[0].insns);
}

TEST(MultiSmTest, SharedDramSeesAllTraffic)
{
    sim::MultiSmSimulator multi(
        workloads::makeRodinia("nn"),
        sim::GpuConfig::forProvider(sim::ProviderKind::Baseline), 2);
    sim::RunStats total = multi.run();
    EXPECT_EQ(total.dramAccesses,
              multi.dram().stats().value("accesses"));
    EXPECT_GT(total.dramAccesses, 0u);
}

TEST(MultiSmTest, ContentionSlowsMemoryBoundKernels)
{
    auto cycles_at = [](unsigned sms) {
        sim::GpuConfig cfg =
            sim::GpuConfig::forProvider(sim::ProviderKind::Baseline);
        // Make DRAM the bottleneck so contention is visible.
        cfg.mem.dram.cyclesPerLine = 32.0;
        sim::MultiSmSimulator multi(workloads::makeRodinia("bfs"), cfg,
                                    sms);
        return multi.run().cycles;
    };
    EXPECT_GT(cycles_at(8), cycles_at(1));
}

TEST(MultiSmTest, ReglessMatchesSingleSmBehaviour)
{
    sim::MultiSmSimulator multi(
        workloads::makeRodinia("hotspot"),
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless), 2);
    sim::RunStats total = multi.run();
    EXPECT_GT(total.totalPreloads(), 0u);
    // Both SMs behave identically on identical work.
    EXPECT_EQ(multi.perSm()[0].insns, multi.perSm()[1].insns);
}

} // namespace
} // namespace regless

#include "sim/stats_io.hh"

namespace regless
{
namespace
{

TEST(StatsIoTest, JsonContainsKeyFields)
{
    sim::RunStats stats = sim::runKernel(workloads::makeRodinia("nn"),
                                         sim::ProviderKind::Regless);
    std::string json = sim::toJson(stats);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"kernel\":\"nn\""), std::string::npos);
    EXPECT_NE(json.find("\"provider\":\"regless\""), std::string::npos);
    EXPECT_NE(json.find("\"cycles\":"), std::string::npos);
    EXPECT_NE(json.find("\"energy_total\":"), std::string::npos);
    EXPECT_NE(json.find("\"preload_src_osu\":"), std::string::npos);
}

TEST(StatsIoTest, ArrayOfRuns)
{
    std::vector<sim::RunStats> runs;
    runs.push_back(sim::runKernel(workloads::makeRodinia("nn"),
                                  sim::ProviderKind::Baseline));
    runs.push_back(sim::runKernel(workloads::makeRodinia("nn"),
                                  sim::ProviderKind::Regless));
    std::ostringstream oss;
    sim::writeJson(oss, runs);
    std::string json = oss.str();
    EXPECT_EQ(json.front(), '[');
    EXPECT_EQ(json.back(), ']');
    EXPECT_NE(json.find("\"baseline\""), std::string::npos);
    EXPECT_NE(json.find("\"regless\""), std::string::npos);
}

TEST(StatsIoTest, EscapesQuotes)
{
    sim::RunStats stats;
    stats.kernel = "we\"ird";
    std::string json = sim::toJson(stats);
    EXPECT_NE(json.find("we\\\"ird"), std::string::npos);
}

} // namespace
} // namespace regless

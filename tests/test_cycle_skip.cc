/**
 * @file
 * Differential determinism oracle for the event-driven cycle-skip
 * engine (DESIGN.md §12). Skipping is a pure wall-clock optimisation:
 * a skip-on run must be byte-for-byte identical to the skip-off
 * reference — every RunStats field, every stall counter, the
 * serialized JSON, Chrome traces, and deadlock reports — on every
 * workload, under every registered provider, at every thread count,
 * and with fault plans active. The only permitted difference is the engine's
 * own meta-counters (skipped_cycles / skip_events), which the oracle
 * zeroes on both sides before comparing.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/fault_injector.hh"
#include "common/sim_error.hh"
#include "figures/figures.hh"
#include "golden_runs.hh"
#include "sim/experiment.hh"
#include "sim/experiment_engine.hh"
#include "sim/gpu_simulator.hh"
#include "sim/multi_sm.hh"
#include "sim/stats_io.hh"
#include "workloads/rodinia.hh"

namespace regless
{
namespace
{

using testutil::goldenRun;
using testutil::referenceConfig;
using testutil::withoutSkipMeta;

/** The canonical config for @a kind with the skip engine enabled. */
sim::GpuConfig
skippingConfig(sim::ProviderKind kind)
{
    sim::GpuConfig cfg = sim::GpuConfig::forProvider(kind);
    cfg.sm.cycleSkip = true;
    return cfg;
}

/** gtest param names must be [A-Za-z0-9_] ("b+tree" is not). */
std::string
paramName(const std::string &text)
{
    std::string out = text;
    for (char &c : out) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return out;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path << " missing";
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/**
 * Single-SM oracle: all 21 Rodinia workloads under every registered
 * provider. The skip-off reference comes from the shared golden-run
 * fixture, so the cases pay for each reference simulation once per
 * process.
 */
class CycleSkipOracle
    : public ::testing::TestWithParam<
          std::tuple<std::string, sim::ProviderKind>>
{
};

TEST_P(CycleSkipOracle, SkipOnMatchesSkipOffByteForByte)
{
    const auto &[name, kind] = GetParam();
    const sim::RunStats &golden = goldenRun(name, kind);
    // A skip-off run must never have touched the engine.
    EXPECT_EQ(golden.skippedCycles, 0u);
    EXPECT_EQ(golden.skipEvents, 0u);

    const sim::RunStats skipped = sim::runKernel(
        workloads::makeRodinia(name), skippingConfig(kind));

    // Field-for-field equality (operator== covers every counter,
    // stall attribution and energy included).
    EXPECT_TRUE(withoutSkipMeta(skipped) == golden) << name;
    // And byte-for-byte through the serializer, so the JSON artefacts
    // the report pipeline caches are identical too.
    EXPECT_EQ(sim::toJson(withoutSkipMeta(skipped)),
              sim::toJson(golden));
    // The closed-account invariant survives bulk charging.
    testutil::expectSlotInvariant(
        skipped, skippingConfig(kind).sm.numSchedulers, name);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, CycleSkipOracle,
    ::testing::Combine(
        ::testing::ValuesIn(workloads::rodiniaNames()),
        ::testing::ValuesIn(sim::allProviderKinds())),
    [](const auto &info) {
        return paramName(std::get<0>(info.param)) + "_" +
               sim::providerName(std::get<1>(info.param));
    });

/**
 * Multi-SM oracle: the epoch loop's clamped skipping must preserve
 * the aggregate and every per-SM RunStats at any worker thread count.
 */
class MultiSmCycleSkipOracle
    : public ::testing::TestWithParam<
          std::tuple<std::string, sim::ProviderKind, unsigned>>
{
};

TEST_P(MultiSmCycleSkipOracle, TotalsAndPerSmStatsMatchSkipOff)
{
    const auto &[name, kind, threads] = GetParam();
    const ir::Kernel kernel = workloads::makeRodinia(name);
    constexpr unsigned sms = 8;

    sim::MultiSmSimulator reference(kernel, referenceConfig(kind), sms,
                                    /*threads=*/1);
    sim::MultiSmSimulator skipping(kernel, skippingConfig(kind), sms,
                                   threads);
    const sim::RunStats ref_total = reference.run();
    const sim::RunStats skip_total = skipping.run();

    EXPECT_EQ(ref_total.skippedCycles, 0u);
    EXPECT_TRUE(withoutSkipMeta(skip_total) == ref_total) << name;
    ASSERT_EQ(reference.perSm().size(), skipping.perSm().size());
    for (std::size_t i = 0; i < reference.perSm().size(); ++i) {
        EXPECT_TRUE(withoutSkipMeta(skipping.perSm()[i]) ==
                    reference.perSm()[i])
            << name << " sm" << i;
        testutil::expectSlotInvariant(
            skipping.perSm()[i], skippingConfig(kind).sm.numSchedulers,
            name + " sm" + std::to_string(i));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, MultiSmCycleSkipOracle,
    ::testing::Combine(::testing::Values(std::string("nn"),
                                         std::string("streamcluster"),
                                         std::string("hotspot")),
                       ::testing::ValuesIn(sim::allProviderKinds()),
                       ::testing::Values(1u, 8u)),
    [](const auto &info) {
        return paramName(std::get<0>(info.param)) + "_" +
               sim::providerName(std::get<1>(info.param)) + "_t" +
               std::to_string(std::get<2>(info.param));
    });

/**
 * Multi-tenant oracle (DESIGN.md §16): with co-resident kernels the
 * skip target is the minimum over every tenant provider's next event
 * and never crosses a pending suspension, so a skip-on co-run must
 * still be byte-identical to the skip-off reference — whole-SM stats
 * and every per-tenant lane.
 */
class MultiTenantCycleSkipOracle
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string, sim::ProviderKind>>
{
};

TEST_P(MultiTenantCycleSkipOracle, CoRunsMatchSkipOffByteForByte)
{
    const auto &[ls, hog, kind] = GetParam();
    auto configure = [&](bool skip) {
        sim::GpuConfig cfg =
            skip ? skippingConfig(kind) : referenceConfig(kind);
        cfg.tenants.workloads = {{ls, 1}, {hog, 0}};
        return cfg;
    };
    const std::vector<ir::Kernel> kernels{workloads::makeRodinia(ls),
                                          workloads::makeRodinia(hog)};

    sim::GpuSimulator reference(kernels, configure(false));
    sim::GpuSimulator skipping(kernels, configure(true));
    const sim::RunStats ref = reference.run();
    const sim::RunStats skip = skipping.run();

    EXPECT_EQ(ref.skippedCycles, 0u);
    EXPECT_TRUE(withoutSkipMeta(skip) == ref) << ls << "+" << hog;
    EXPECT_EQ(sim::toJson(withoutSkipMeta(skip)), sim::toJson(ref));
    ASSERT_EQ(skip.tenants.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Pairings, MultiTenantCycleSkipOracle,
    ::testing::Combine(::testing::Values(std::string("nn"),
                                         std::string("backprop")),
                       ::testing::Values(std::string("srad_v1"),
                                         std::string("hotspot")),
                       ::testing::Values(sim::ProviderKind::Baseline,
                                         sim::ProviderKind::Regless)),
    [](const auto &info) {
        return paramName(std::get<0>(info.param)) + "_" +
               paramName(std::get<1>(info.param)) + "_" +
               sim::providerName(std::get<2>(info.param));
    });

TEST(MultiTenantCycleSkipQos, QosScheduleSurvivesSkipping)
{
    // The QoS controller acts at interval boundaries; skip jumps are
    // clamped to qosNextDecision() so both stepping modes observe the
    // same park/resume sequence. The whole schedule — preemption
    // counts, suspended cycles, finish cycles — must be identical.
    auto qosRun = [](bool skip) {
        sim::GpuConfig cfg =
            skip ? skippingConfig(sim::ProviderKind::Regless)
                 : referenceConfig(sim::ProviderKind::Regless);
        cfg.tenants.workloads = {{"nn", 1}, {"srad_v1", 0}};
        cfg.tenants.policy = regfile::CapacityPolicy::PriorityReserve;
        cfg.tenants.qosPreemption = true;
        cfg.tenants.qosInterval = 2000;
        cfg.tenants.qosShare = 0.25;
        const std::vector<ir::Kernel> kernels{
            workloads::makeRodinia("nn"),
            workloads::makeRodinia("srad_v1")};
        sim::GpuSimulator gpu(kernels, cfg);
        return gpu.run();
    };

    const sim::RunStats off = qosRun(false);
    const sim::RunStats on = qosRun(true);
    ASSERT_EQ(off.tenants.size(), 2u);
    // The controller must actually act in the reference run, or the
    // parity below is vacuous.
    EXPECT_GT(off.tenants[1].preemptions, 0u);
    EXPECT_GT(off.tenants[1].suspendedCycles, 0u);
    EXPECT_TRUE(withoutSkipMeta(on) == off);
    EXPECT_EQ(sim::toJson(withoutSkipMeta(on)), sim::toJson(off));
}

TEST(MultiTenantMultiSm, ThreadCountNeverChangesCoRunResults)
{
    // The determinism contract extended to tenant mode: a multi-SM
    // co-run must be bit-identical across worker thread counts, with
    // skipping on, down to every per-SM tenant lane.
    auto coRun = [](unsigned threads) {
        sim::GpuConfig cfg =
            skippingConfig(sim::ProviderKind::Regless);
        cfg.tenants.workloads = {{"nn", 1}, {"hotspot", 0}};
        const std::vector<ir::Kernel> kernels{
            workloads::makeRodinia("nn"),
            workloads::makeRodinia("hotspot")};
        return std::make_unique<sim::MultiSmSimulator>(kernels, cfg,
                                                       /*num_sms=*/4,
                                                       threads);
    };

    auto serial = coRun(1);
    auto parallel = coRun(8);
    const sim::RunStats a = serial->run();
    const sim::RunStats b = parallel->run();
    EXPECT_TRUE(a == b);
    EXPECT_EQ(sim::toJson(a), sim::toJson(b));
    ASSERT_EQ(serial->perSm().size(), parallel->perSm().size());
    for (std::size_t i = 0; i < serial->perSm().size(); ++i) {
        EXPECT_TRUE(serial->perSm()[i] == parallel->perSm()[i])
            << "sm" << i;
    }
    ASSERT_EQ(a.tenants.size(), 2u);
}

TEST(MultiTenantMultiSm, StarvedTenantIsNamedAtOneCycle)
{
    // The per-tenant watchdog on a chip: with the whole staging pool
    // reserved for the priority tenant, best-effort srad_v1 never
    // activates a region while nn runs. Each SM checks its tenants at
    // every epoch barrier, so every thread count and stepping mode
    // must name srad_v1 in the identical report.
    auto starve = [](unsigned threads, bool skip) {
        sim::GpuConfig cfg =
            skip ? skippingConfig(sim::ProviderKind::Regless)
                 : referenceConfig(sim::ProviderKind::Regless);
        cfg.tenants.workloads = {{"nn", 1}, {"srad_v1", 0}};
        cfg.tenants.policy = regfile::CapacityPolicy::PriorityReserve;
        cfg.tenants.reserveFrac = 1.0;
        cfg.sm.watchdogWindow = 20'000;
        cfg.sm.maxCycles = 2'000'000;
        const std::vector<ir::Kernel> kernels{
            workloads::makeRodinia("nn"),
            workloads::makeRodinia("srad_v1")};
        sim::MultiSmSimulator gpu(kernels, cfg, /*num_sms=*/2, threads);
        try {
            gpu.run();
        } catch (const sim::DeadlockError &e) {
            return e.report();
        }
        ADD_FAILURE() << "fully reserved pool did not starve the "
                         "best-effort tenant (threads="
                      << threads << ", skip=" << skip << ")";
        return sim::DeadlockReport{};
    };

    const sim::DeadlockReport ref = starve(1, false);
    EXPECT_EQ(ref.starvedTenant, 1) << ref.render();
    EXPECT_EQ(ref.kernel, "srad_v1") << ref.render();
    EXPECT_EQ(ref.starvedTenantKernel, "srad_v1");
    EXPECT_EQ(ref.starvedTenantStall, "cm_no_capacity") << ref.render();
    for (unsigned threads : {1u, 4u}) {
        for (bool skip : {false, true}) {
            const sim::DeadlockReport r = starve(threads, skip);
            EXPECT_EQ(r.cycle, ref.cycle)
                << "threads=" << threads << " skip=" << skip;
            EXPECT_TRUE(r == ref) << r.render() << "\nvs\n"
                                  << ref.render();
        }
    }
}

TEST(CycleSkipTrace, ChromeTracesAreByteIdentical)
{
    // Trace labels are state-derived and state is frozen across a
    // skipped window, so the RLE spans must extend across skips and
    // the emitted files must match the skip-off reference exactly.
    const ir::Kernel kernel = workloads::makeRodinia("nn");
    const std::filesystem::path dir(::testing::TempDir());

    auto traced = [&](bool skip) {
        sim::GpuConfig cfg =
            skip ? skippingConfig(sim::ProviderKind::Regless)
                 : referenceConfig(sim::ProviderKind::Regless);
        cfg.trace.enabled = true;
        cfg.trace.path =
            (dir / (std::string("regless-skip-trace-") +
                    (skip ? "on" : "off") + ".json"))
                .string();
        sim::GpuSimulator gpu(kernel, cfg);
        gpu.run();
        return readFile(cfg.trace.path + ".sm0");
    };

    const std::string off = traced(false);
    const std::string on = traced(true);
    ASSERT_FALSE(off.empty());
    EXPECT_EQ(on, off);
}

TEST(CycleSkipWatchdog, DroppedDramResponseTripsAtTheSameCycle)
{
    // A wedged run is the skip engine's hardest case: every cycle of
    // the stalled window is skipped over, yet the watchdog must fire
    // at the identical cycle with the identical last-window stall
    // breakdown (DeadlockReport operator== covers every field).
    auto wedge = [](bool skip) {
        sim::GpuConfig cfg =
            skip ? skippingConfig(sim::ProviderKind::Baseline)
                 : referenceConfig(sim::ProviderKind::Baseline);
        cfg.faults.kind = FaultPlan::Kind::DropDramResponse;
        cfg.faults.triggerCycle = 0;
        cfg.sm.watchdogWindow = 10'000;
        cfg.sm.maxCycles = 2'000'000;
        sim::GpuSimulator gpu(workloads::makeRodinia("nn"), cfg);
        try {
            gpu.run();
        } catch (const sim::DeadlockError &e) {
            return e.report();
        }
        ADD_FAILURE() << "dropped DRAM response did not wedge (skip="
                      << skip << ")";
        return sim::DeadlockReport{};
    };

    const sim::DeadlockReport off = wedge(false);
    const sim::DeadlockReport on = wedge(true);
    EXPECT_EQ(on.cycle, off.cycle);
    EXPECT_EQ(on.lastProgressCycle, off.lastProgressCycle);
    EXPECT_EQ(on.stallBreakdown, off.stallBreakdown);
    EXPECT_EQ(on.dominantStall, off.dominantStall);
    EXPECT_TRUE(on == off) << on.render() << "\nvs\n" << off.render();
}

TEST(CycleSkipWatchdog, OsuLeakDeadlockReportsAreIdentical)
{
    // Same parity check for a staging-side wedge: the leaked-slot
    // deadlock must produce the same diagnosis either way, still
    // naming cm_no_capacity as the dominant cause.
    auto starve = [](bool skip) {
        sim::GpuConfig cfg =
            skip ? skippingConfig(sim::ProviderKind::Regless)
                 : referenceConfig(sim::ProviderKind::Regless);
        cfg.faults.kind = FaultPlan::Kind::LeakOsuSlot;
        cfg.faults.triggerCycle = 0;
        cfg.sm.watchdogWindow = 5000;
        cfg.sm.maxCycles = 2'000'000;
        sim::GpuSimulator gpu(workloads::makeRodinia("nn"), cfg);
        try {
            gpu.run();
        } catch (const sim::DeadlockError &e) {
            return e.report();
        }
        ADD_FAILURE() << "leaked OSU reservations did not deadlock "
                         "(skip="
                      << skip << ")";
        return sim::DeadlockReport{};
    };

    const sim::DeadlockReport off = starve(false);
    const sim::DeadlockReport on = starve(true);
    EXPECT_EQ(on.dominantStall, "cm_no_capacity") << on.render();
    EXPECT_TRUE(on == off) << on.render() << "\nvs\n" << off.render();
}

TEST(CycleSkipEngagement, SkipsCyclesOnMemoryBoundWork)
{
    // The oracle would pass vacuously if the engine never fired; pin
    // that it collapses a meaningful share of a memory-bound run.
    const sim::RunStats skipped =
        sim::runKernel(workloads::makeRodinia("streamcluster"),
                       skippingConfig(sim::ProviderKind::Baseline));
    EXPECT_GT(skipped.skipEvents, 0u);
    EXPECT_GT(skipped.skippedCycles, 0u);
    EXPECT_EQ(skipped.cycles,
              goldenRun("streamcluster", sim::ProviderKind::Baseline)
                  .cycles);
}

TEST(CycleSkipConfig, SkipModeIsPartOfTheConfigFingerprint)
{
    // Cached experiment results must never be shared across skip
    // modes (they differ in the meta-counters), so the flag has to
    // reach the canonical config text.
    EXPECT_NE(sim::configCanonicalText(
                  referenceConfig(sim::ProviderKind::Regless)),
              sim::configCanonicalText(
                  skippingConfig(sim::ProviderKind::Regless)));
}

/*
 * Pinned results. The oracle above compares skip-on against skip-off,
 * so it cannot see a change both stepping modes share, such as a stale
 * replayed stall verdict in the eligibility scan (DESIGN.md §12). These
 * tests pin the simulated results themselves: FNV-1a digests of toJson
 * for fixed runs. A deliberate change to simulated behaviour updates
 * the tables; every mismatch prints the entry's new digest.
 */

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t hash = 1469598103934665603ULL;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 1099511628211ULL;
    }
    return hash;
}

/** Checks every run's digest against @a pinned, both ways. */
void
expectPinned(const std::map<std::string, std::uint64_t> &pinned,
             const std::map<std::string, std::string> &runs)
{
    for (const auto &[name, json] : runs) {
        const std::uint64_t digest = fnv1a(json);
        auto it = pinned.find(name);
        EXPECT_TRUE(it != pinned.end() && it->second == digest)
            << "new digest: {\"" << name << "\", 0x" << std::hex
            << digest << "ULL},";
    }
    for (const auto &[name, digest] : pinned)
        EXPECT_EQ(runs.count(name), 1u) << "stale entry " << name;
}

TEST(CycleSkipPinned, SingleSmRunsMatchTheirDigests)
{
    // Every provider under its own scheduler and forced to two_level
    // (the only policy that consumes the long-stall bit) and to rr.
    const std::map<std::string, std::uint64_t> pinned = {
        {"backprop/baseline/canonical", 0x271dfd9dd914561eULL},
        {"backprop/baseline/rr", 0x307f101c4bd105b5ULL},
        {"backprop/baseline/two_level", 0xd747571935052f54ULL},
        {"backprop/regdem/canonical", 0xa1c09b40aef072c1ULL},
        {"backprop/regdem/rr", 0x5a9da173e651d781ULL},
        {"backprop/regdem/two_level", 0x275e3cebade22835ULL},
        {"backprop/regless/canonical", 0x66f8806a6ab832dULL},
        {"backprop/regless/rr", 0x1cc6d85946b30a04ULL},
        {"backprop/regless/two_level", 0xff86737e7f1fc477ULL},
        {"backprop/regless_nocomp/canonical", 0xf42980ccf818c7e8ULL},
        {"backprop/regless_nocomp/rr", 0x8d30bcef9f2fdf2ULL},
        {"backprop/regless_nocomp/two_level", 0x599cb48e9a8e4103ULL},
        {"backprop/rfcache/canonical", 0xff8362653a626390ULL},
        {"backprop/rfcache/rr", 0x618dcccb2739566eULL},
        {"backprop/rfcache/two_level", 0x31763a7f94b611a2ULL},
        {"backprop/rfh/canonical", 0xbe5dad76effaa4bdULL},
        {"backprop/rfh/rr", 0xece6914f41e1e1c5ULL},
        {"backprop/rfh/two_level", 0xbe5dad76effaa4bdULL},
        {"backprop/rfv/canonical", 0x17ed9b20e06e99f4ULL},
        {"backprop/rfv/rr", 0x32acb49494aa361dULL},
        {"backprop/rfv/two_level", 0x17ed9b20e06e99f4ULL},
        {"heartwall/baseline/canonical", 0x9a277136cba0aa51ULL},
        {"heartwall/baseline/rr", 0x739153041860644fULL},
        {"heartwall/baseline/two_level", 0x4559b8844440495aULL},
        {"heartwall/regdem/canonical", 0x36e54b13da9b719cULL},
        {"heartwall/regdem/rr", 0xfe1d83c45bec0764ULL},
        {"heartwall/regdem/two_level", 0x301ece7884e1f9f7ULL},
        {"heartwall/regless/canonical", 0x9a5f35a3c30224d0ULL},
        {"heartwall/regless/rr", 0x499a8d0478adcc7eULL},
        {"heartwall/regless/two_level", 0x17a1de054349eb06ULL},
        {"heartwall/regless_nocomp/canonical", 0x993a69ea7c74700bULL},
        {"heartwall/regless_nocomp/rr", 0x5e4af27bbf0e454aULL},
        {"heartwall/regless_nocomp/two_level", 0x7e37516d760f2f42ULL},
        {"heartwall/rfcache/canonical", 0x214ab8183e3a173eULL},
        {"heartwall/rfcache/rr", 0xee42cc7fc0b985bcULL},
        {"heartwall/rfcache/two_level", 0x77fe7d416e245bbdULL},
        {"heartwall/rfh/canonical", 0x9074035be5c93fe0ULL},
        {"heartwall/rfh/rr", 0x23cc446473f2b1daULL},
        {"heartwall/rfh/two_level", 0x9074035be5c93fe0ULL},
        {"heartwall/rfv/canonical", 0xa6706717f8765dfdULL},
        {"heartwall/rfv/rr", 0x85506820311b24a0ULL},
        {"heartwall/rfv/two_level", 0xa6706717f8765dfdULL},
        {"srad_v1/baseline/canonical", 0x8c7588f924d9420aULL},
        {"srad_v1/baseline/rr", 0x8720f9cdc8fb6506ULL},
        {"srad_v1/baseline/two_level", 0xa8512d6a89f6f882ULL},
        {"srad_v1/regdem/canonical", 0xabdd6aa2bca084c3ULL},
        {"srad_v1/regdem/rr", 0x548f4adb88193adaULL},
        {"srad_v1/regdem/two_level", 0xa3dd81752c3fd963ULL},
        {"srad_v1/regless/canonical", 0x655db2cba3154f6dULL},
        {"srad_v1/regless/rr", 0x4a728518249cdadbULL},
        {"srad_v1/regless/two_level", 0xab3a9fcfcb39f665ULL},
        {"srad_v1/regless_nocomp/canonical", 0x697cad999f807af3ULL},
        {"srad_v1/regless_nocomp/rr", 0xc956678bb2f1a015ULL},
        {"srad_v1/regless_nocomp/two_level", 0x3f18c694108dc5fcULL},
        {"srad_v1/rfcache/canonical", 0x28e5c538e1311acfULL},
        {"srad_v1/rfcache/rr", 0x4239b93ab6325059ULL},
        {"srad_v1/rfcache/two_level", 0xeff2c46b2a7f3677ULL},
        {"srad_v1/rfh/canonical", 0x35af2f6e3483691bULL},
        {"srad_v1/rfh/rr", 0x9c28a52fb5544596ULL},
        {"srad_v1/rfh/two_level", 0x35af2f6e3483691bULL},
        {"srad_v1/rfv/canonical", 0x83c9315a1a54a907ULL},
        {"srad_v1/rfv/rr", 0x9a01a017c74977a0ULL},
        {"srad_v1/rfv/two_level", 0x83c9315a1a54a907ULL},
    };
    const std::vector<std::pair<std::string,
                                std::optional<arch::SchedulerPolicy>>>
        schedulers = {{"canonical", std::nullopt},
                      {"two_level", arch::SchedulerPolicy::TwoLevel},
                      {"rr", arch::SchedulerPolicy::Rr}};
    std::map<std::string, std::string> runs;
    for (const std::string kernel : {"srad_v1", "backprop", "heartwall"}) {
        const ir::Kernel k = workloads::makeRodinia(kernel);
        for (sim::ProviderKind kind : sim::allProviderKinds()) {
            for (const auto &[sched, policy] : schedulers) {
                sim::GpuConfig cfg = skippingConfig(kind);
                if (policy)
                    cfg.sm.scheduler = *policy;
                runs[kernel + "/" + sim::providerName(kind) + "/" +
                     sched] = sim::toJson(sim::runKernel(k, cfg));
            }
        }
    }
    expectPinned(pinned, runs);
}

TEST(CycleSkipPinned, MultiSmAndCoRunsMatchTheirDigests)
{
    const std::map<std::string, std::uint64_t> pinned = {
        {"hotspot/4sm/t1", 0xc904df382aa7f936ULL},
        {"hotspot/4sm/t4", 0xc904df382aa7f936ULL},
        {"nn+srad_v1", 0x743d0c1faed41fe3ULL},
    };
    std::map<std::string, std::string> runs;
    const sim::GpuConfig cfg = skippingConfig(sim::ProviderKind::Regless);
    for (unsigned threads : {1u, 4u}) {
        sim::MultiSmSimulator multi(workloads::makeRodinia("hotspot"),
                                    cfg, /*num_sms=*/4, threads);
        std::string json = sim::toJson(multi.run());
        for (const sim::RunStats &sm : multi.perSm())
            json += sim::toJson(sm);
        runs["hotspot/4sm/t" + std::to_string(threads)] = json;
    }
    sim::GpuConfig co = cfg;
    co.tenants.workloads = {{"nn", 1}, {"srad_v1", 0}};
    sim::GpuSimulator gpu({workloads::makeRodinia("nn"),
                           workloads::makeRodinia("srad_v1")},
                          co);
    runs["nn+srad_v1"] = sim::toJson(gpu.run());
    expectPinned(pinned, runs);
}

TEST(CycleSkipPinned, StagingStressRunsMatchTheirDigests)
{
    // The kernels whose region activations block on OSU capacity most
    // (so tryActivate retries every cycle), and a QoS co-run whose
    // preemptions reach finalizeSuspend's write-back order.
    const std::map<std::string, std::uint64_t> pinned = {
        {"dwt2d/regless", 0xa9e5dc8ba40f155dULL},
        {"dwt2d/regless_nocomp", 0x159c8f5972f09580ULL},
        {"hotspot/regless", 0xf729f0d09c1fda3eULL},
        {"hotspot/regless_nocomp", 0x567c0b21f0383cefULL},
        {"nn+srad_v1/qos", 0x8dc61d9d9a7e25b3ULL},
    };
    std::map<std::string, std::string> runs;
    for (const std::string kernel : {"dwt2d", "hotspot"}) {
        const ir::Kernel k = workloads::makeRodinia(kernel);
        for (sim::ProviderKind kind :
             {sim::ProviderKind::Regless,
              sim::ProviderKind::ReglessNoCompressor}) {
            runs[kernel + "/" + sim::providerName(kind)] =
                sim::toJson(sim::runKernel(k, skippingConfig(kind)));
        }
    }
    sim::GpuConfig qos = skippingConfig(sim::ProviderKind::Regless);
    qos.tenants.workloads = {{"nn", 1}, {"srad_v1", 0}};
    qos.tenants.policy = regfile::CapacityPolicy::PriorityReserve;
    qos.tenants.qosPreemption = true;
    qos.tenants.qosInterval = 2000;
    qos.tenants.qosShare = 0.25;
    sim::GpuSimulator gpu({workloads::makeRodinia("nn"),
                           workloads::makeRodinia("srad_v1")},
                          qos);
    const sim::RunStats co = gpu.run();
    // The controller must park the hog, or finalizeSuspend never runs.
    EXPECT_GT(co.tenants.at(1).preemptions, 0u);
    runs["nn+srad_v1/qos"] = sim::toJson(co);
    expectPinned(pinned, runs);
}

/** The deadlock report of a run that @a fault wedges. */
std::string
renderedDeadlock(const std::string &kernel, FaultPlan::Kind fault,
                 Cycle window)
{
    sim::GpuConfig cfg = skippingConfig(sim::ProviderKind::Regless);
    cfg.faults.kind = fault;
    cfg.faults.triggerCycle = 0;
    cfg.sm.watchdogWindow = window;
    cfg.sm.maxCycles = 2'000'000;
    sim::GpuSimulator gpu(workloads::makeRodinia(kernel), cfg);
    try {
        gpu.run();
    } catch (const sim::DeadlockError &e) {
        return e.report().render();
    }
    ADD_FAILURE() << kernel << " did not deadlock";
    return "";
}

TEST(CycleSkipPinned, PerWarpStallsReportsAndTracesMatchTheirDigests)
{
    // Three SM outputs that toJson does not carry: the per-warp stall
    // arrays, the deadlock report whose stall= lines come from them,
    // and the Chrome stall trace.
    const std::map<std::string, std::uint64_t> pinned = {
        {"deadlock/nn/leak_osu_slot", 0x4dfce11ded9b81f2ULL},
        {"deadlock/srad_v1/drop_dram_response", 0x56c270812df6e695ULL},
        {"trace/nn/regless", 0xa88a63b0dc7353ULL},
        {"warp_stalls/heartwall/baseline/canonical", 0x58bfb7895770d3c5ULL},
        {"warp_stalls/heartwall/baseline/two_level", 0x4afaaf097a03dc25ULL},
        {"warp_stalls/heartwall/regless/canonical", 0xe80e624611998c24ULL},
        {"warp_stalls/heartwall/regless/two_level", 0xc4b8138b1f5df061ULL},
        {"warp_stalls/srad_v1/baseline/canonical", 0x143ada99fa90aa23ULL},
        {"warp_stalls/srad_v1/baseline/two_level", 0x8a9558989ab4a088ULL},
        {"warp_stalls/srad_v1/regless/canonical", 0xaefaec4886b057baULL},
        {"warp_stalls/srad_v1/regless/two_level", 0x15b7e3727b6d82e1ULL},
    };
    std::map<std::string, std::string> texts;
    const std::vector<std::pair<std::string,
                                std::optional<arch::SchedulerPolicy>>>
        schedulers = {{"canonical", std::nullopt},
                      {"two_level", arch::SchedulerPolicy::TwoLevel}};
    for (const std::string kernel : {"srad_v1", "heartwall"}) {
        for (sim::ProviderKind kind :
             {sim::ProviderKind::Regless, sim::ProviderKind::Baseline}) {
            for (const auto &[sched, policy] : schedulers) {
                sim::GpuConfig cfg = skippingConfig(kind);
                if (policy)
                    cfg.sm.scheduler = *policy;
                sim::GpuSimulator gpu(workloads::makeRodinia(kernel), cfg);
                gpu.run();
                std::ostringstream text;
                for (const arch::Warp &w : gpu.sm().warps()) {
                    text << 'w' << w.id();
                    for (std::uint64_t cycles : gpu.sm().warpStalls(w.id()))
                        text << ' ' << cycles;
                    text << '\n';
                }
                texts["warp_stalls/" + kernel + "/" +
                      sim::providerName(kind) + "/" + sched] = text.str();
            }
        }
    }
    texts["deadlock/nn/leak_osu_slot"] =
        renderedDeadlock("nn", FaultPlan::Kind::LeakOsuSlot, 5000);
    texts["deadlock/srad_v1/drop_dram_response"] = renderedDeadlock(
        "srad_v1", FaultPlan::Kind::DropDramResponse, 10'000);

    sim::GpuConfig cfg = skippingConfig(sim::ProviderKind::Regless);
    cfg.trace.enabled = true;
    cfg.trace.path = (std::filesystem::path(::testing::TempDir()) /
                      "regless-pinned-trace.json")
                         .string();
    sim::GpuSimulator gpu(workloads::makeRodinia("nn"), cfg);
    gpu.run();
    texts["trace/nn/regless"] = readFile(cfg.trace.path + ".sm0");
    expectPinned(pinned, texts);
}

/*
 * Figures that print model constants without simulating: table1_config
 * echoes the configuration and fig11_area is pure area-model math, so
 * no RunStats digest above covers them. Their text is pinned instead.
 */
TEST(PinnedFigures, ModelConstantFiguresMatchTheirDigests)
{
    const std::map<std::string, std::uint64_t> pinned = {
        {"fig11_area", 0x7f535c4381399823ULL},
        {"table1_config", 0x9c10f1cc0fb2edfdULL},
    };
    std::map<std::string, std::string> texts;
    for (const char *name : {"fig11_area", "table1_config"}) {
        sim::ExperimentEngine engine;
        std::ostringstream out;
        figures::FigureContext ctx{engine, out};
        figures::runFigure(*figures::findFigure(name), ctx);
        EXPECT_EQ(engine.pointsRequested(), 0u) << name;
        texts[name] = out.str();
    }
    expectPinned(pinned, texts);
}

} // namespace
} // namespace regless

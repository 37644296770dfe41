/**
 * @file
 * Multi-tenant SM suite (DESIGN.md §16): single-tenant byte parity
 * against the classic launch path, the per-tenant closed issue-slot
 * account over a Rodinia pairing matrix under every capacity policy,
 * the region-boundary preemption chaos test (random suspend/resume
 * with memory-image parity), starved-tenant deadlock reporting, the
 * QoS controller, and TenantArbiter policy math.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "arch/scoreboard.hh"
#include "common/sim_error.hh"
#include "golden_runs.hh"
#include "regfile/tenant_arbiter.hh"
#include "sim/experiment.hh"
#include "sim/gpu_simulator.hh"
#include "sim/multi_sm.hh"
#include "sim/stats_io.hh"
#include "workloads/random_kernel.hh"
#include "workloads/rodinia.hh"

namespace regless
{
namespace
{

using regfile::CapacityPolicy;

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

/** Canonical two-tenant config: @a ls priority 1, @a hog priority 0. */
sim::GpuConfig
pairConfig(sim::ProviderKind kind, const std::string &ls,
           const std::string &hog, CapacityPolicy policy)
{
    sim::GpuConfig cfg = sim::GpuConfig::forProvider(kind);
    cfg.tenants.workloads = {{ls, 1}, {hog, 0}};
    cfg.tenants.policy = policy;
    return cfg;
}

std::vector<ir::Kernel>
tenantKernels(const sim::GpuConfig &cfg)
{
    std::vector<ir::Kernel> kernels;
    for (const sim::TenantWorkload &w : cfg.tenants.workloads)
        kernels.push_back(workloads::makeRodinia(w.kernel));
    return kernels;
}

/** Lane account: issued + stalls, per tenant. */
std::uint64_t
laneSlots(const sim::TenantLane &lane)
{
    std::uint64_t total = lane.issuedSlots;
    for (std::uint64_t s : lane.stallSlots)
        total += s;
    return total;
}

// ---------------------------------------------------------------------
// Single-tenant regression guard: one tenant through the multi-tenant
// machinery must be byte-identical to the classic launch path — stats,
// serialized JSON, traces, and deadlock reports — for every workload,
// every provider, skip on and off.
// ---------------------------------------------------------------------

class SingleTenantParity
    : public ::testing::TestWithParam<
          std::tuple<std::string, sim::ProviderKind>>
{
};

TEST_P(SingleTenantParity, VectorLaunchMatchesClassicByteForByte)
{
    const auto &[name, kind] = GetParam();
    const ir::Kernel kernel = workloads::makeRodinia(name);
    for (const bool skip : {false, true}) {
        sim::GpuConfig cfg = sim::GpuConfig::forProvider(kind);
        cfg.sm.cycleSkip = skip;
        sim::GpuSimulator classic(kernel, cfg);
        sim::GpuSimulator tenant(std::vector<ir::Kernel>{kernel}, cfg);
        const sim::RunStats a = classic.run();
        const sim::RunStats b = tenant.run();
        EXPECT_TRUE(a == b) << name << " skip=" << skip;
        EXPECT_EQ(sim::toJson(a), sim::toJson(b));
        // Single-tenant results carry no tenant lanes, so their
        // serialized form is exactly the pre-tenant schema.
        EXPECT_TRUE(b.tenants.empty());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SingleTenantParity,
    ::testing::Combine(
        ::testing::ValuesIn(workloads::rodiniaNames()),
        ::testing::ValuesIn(sim::allProviderKinds())),
    [](const auto &info) {
        return paramName(std::get<0>(info.param)) + "_" +
               sim::providerName(std::get<1>(info.param));
    });

TEST(SingleTenantParityDetail, TracesAreByteIdentical)
{
    const ir::Kernel kernel = workloads::makeRodinia("nn");
    const std::filesystem::path dir(::testing::TempDir());

    auto traced = [&](bool vector_launch) {
        sim::GpuConfig cfg =
            sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
        cfg.trace.enabled = true;
        cfg.trace.path =
            (dir / (std::string("regless-tenant-trace-") +
                    (vector_launch ? "vec" : "classic") + ".json"))
                .string();
        if (vector_launch) {
            sim::GpuSimulator gpu(std::vector<ir::Kernel>{kernel},
                                  cfg);
            gpu.run();
        } else {
            sim::GpuSimulator gpu(kernel, cfg);
            gpu.run();
        }
        std::ifstream in(cfg.trace.path + ".sm0", std::ios::binary);
        EXPECT_TRUE(in.good());
        std::ostringstream text;
        text << in.rdbuf();
        return text.str();
    };

    const std::string classic = traced(false);
    const std::string vec = traced(true);
    ASSERT_FALSE(classic.empty());
    EXPECT_EQ(vec, classic);
}

TEST(SingleTenantParityDetail, DeadlockReportsAreIdentical)
{
    // A wedged single-tenant run through either ctor must produce the
    // exact same report, with the starved-tenant fields unset (so the
    // rendered text is byte-identical to the pre-tenant format).
    auto wedge = [](bool vector_launch) {
        sim::GpuConfig cfg =
            sim::GpuConfig::forProvider(sim::ProviderKind::Baseline);
        cfg.faults.kind = FaultPlan::Kind::DropDramResponse;
        cfg.faults.triggerCycle = 0;
        cfg.sm.watchdogWindow = 10'000;
        cfg.sm.maxCycles = 2'000'000;
        const ir::Kernel kernel = workloads::makeRodinia("nn");
        try {
            if (vector_launch) {
                sim::GpuSimulator gpu(std::vector<ir::Kernel>{kernel},
                                      cfg);
                gpu.run();
            } else {
                sim::GpuSimulator gpu(kernel, cfg);
                gpu.run();
            }
        } catch (const sim::DeadlockError &e) {
            return e.report();
        }
        ADD_FAILURE() << "dropped DRAM response did not wedge";
        return sim::DeadlockReport{};
    };

    const sim::DeadlockReport classic = wedge(false);
    const sim::DeadlockReport vec = wedge(true);
    EXPECT_EQ(vec.starvedTenant, -1);
    EXPECT_EQ(vec.render().find("starved tenant"), std::string::npos);
    EXPECT_TRUE(vec == classic)
        << vec.render() << "\nvs\n" << classic.render();
}

// ---------------------------------------------------------------------
// Per-tenant closed account: each lane's issued + stalled slots equal
// its scheduler share times the run's cycles, and the lanes sum to the
// whole-SM invariant — on a Rodinia pairing matrix under every
// capacity policy.
// ---------------------------------------------------------------------

class TenantAccount
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string, CapacityPolicy>>
{
};

TEST_P(TenantAccount, PerTenantSlotAccountIsClosed)
{
    const auto &[ls, hog, policy] = GetParam();
    const sim::GpuConfig cfg =
        pairConfig(sim::ProviderKind::Regless, ls, hog, policy);
    sim::GpuSimulator gpu(tenantKernels(cfg), cfg);
    const sim::RunStats stats = gpu.run();

    ASSERT_EQ(stats.tenants.size(), 2u);
    const unsigned sched_share = cfg.sm.numSchedulers / 2;
    std::uint64_t lane_slots = 0;
    std::uint64_t lane_insns = 0;
    std::uint64_t lane_issued = 0;
    for (unsigned t = 0; t < 2; ++t) {
        const sim::TenantLane &lane = stats.tenants[t];
        EXPECT_EQ(lane.kernel, cfg.tenants.workloads[t].kernel);
        // The closed account, per tenant: every one of the tenant's
        // scheduler slots in every cycle of the whole run is charged
        // to exactly one bucket.
        EXPECT_EQ(laneSlots(lane), sched_share * stats.cycles)
            << ls << "+" << hog << " tenant " << t;
        EXPECT_GT(lane.insns, 0u);
        EXPECT_GT(lane.finishCycle, 0u);
        lane_slots += laneSlots(lane);
        lane_insns += lane.insns;
        lane_issued += lane.issuedSlots;
    }
    // And the lanes sum to the whole-SM account exactly.
    EXPECT_EQ(lane_slots, testutil::totalSlots(stats));
    EXPECT_EQ(lane_insns, stats.insns);
    EXPECT_EQ(lane_issued, stats.issuedSlots);
    testutil::expectSlotInvariant(stats, cfg.sm.numSchedulers,
                                  ls + "+" + hog);
}

INSTANTIATE_TEST_SUITE_P(
    PairingMatrix, TenantAccount,
    ::testing::Combine(
        ::testing::Values(std::string("nn"), std::string("backprop")),
        ::testing::Values(std::string("srad_v1"),
                          std::string("hotspot")),
        ::testing::Values(CapacityPolicy::FreeForAll,
                          CapacityPolicy::StaticQuota,
                          CapacityPolicy::PriorityReserve)),
    [](const auto &info) {
        return paramName(std::get<0>(info.param)) + "_" +
               paramName(std::get<1>(info.param)) + "_" +
               regfile::capacityPolicyName(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------
// Region-boundary preemption chaos: random suspend/resume over random
// kernels must leave the memory image identical to an uninterrupted
// co-run and to each tenant's solo run (through the per-tenant
// segment translation), with zero shadow-checker violations and zero
// staged lines leaked across any completed suspend.
// ---------------------------------------------------------------------

class PreemptionChaos : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PreemptionChaos, MemoryImageSurvivesRandomPreemption)
{
    const unsigned seed = GetParam();
    const ir::Kernel a = workloads::randomKernel(2 * seed + 1);
    const ir::Kernel b = workloads::randomKernel(2 * seed + 2);

    sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    cfg.regless.runtimeCheck = true;
    cfg.sm.cycleSkip = false; // the chaos loop drives step() itself

    const std::vector<ir::Kernel> kernels{a, b};
    sim::GpuSimulator plain(kernels, cfg);
    plain.run();

    // Each co-resident tenant owns half the SM's warps, and a random
    // kernel's thread set follows the warp count — the solo references
    // must run the same partition-sized grid to touch the same tids.
    sim::GpuConfig solo_cfg = cfg;
    solo_cfg.sm.numWarps /= 2;
    sim::GpuSimulator solo_a(a, solo_cfg);
    sim::GpuSimulator solo_b(b, solo_cfg);
    solo_a.run();
    solo_b.run();

    sim::GpuSimulator chaos(kernels, cfg);
    arch::Sm &sm = chaos.sm();
    std::uint64_t lcg = 0x9e3779b97f4a7c15ull * (seed + 1);
    auto rnd = [&lcg](unsigned bound) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<unsigned>(lcg >> 33) % bound;
    };

    const Cycle budget = 4'000'000;
    bool requested[2] = {false, false};
    bool was_suspended[2] = {false, false};
    unsigned completed_suspends = 0;
    Cycle next_action = 100 + rnd(400);
    while (!sm.done() && sm.now() < budget) {
        sm.step();
        for (unsigned t = 0; t < 2; ++t) {
            if (sm.tenantSuspended(t) && !was_suspended[t]) {
                // A completed handoff leaves no staged line behind.
                ++completed_suspends;
                EXPECT_EQ(chaos.provider(t).stagedLinesInUse(), 0u)
                    << "seed " << seed << " tenant " << t
                    << " leaked lines at cycle " << sm.now();
            }
            was_suspended[t] = sm.tenantSuspended(t);
        }
        if (sm.now() >= next_action) {
            const unsigned t = rnd(2);
            if (!requested[t]) {
                sm.requestSuspend(t, sm.now());
            } else {
                sm.resumeTenant(t, sm.now());
                was_suspended[t] = false;
            }
            requested[t] = !requested[t];
            next_action = sm.now() + 100 + rnd(900);
        }
    }
    for (unsigned t = 0; t < 2; ++t) {
        if (requested[t])
            sm.resumeTenant(t, sm.now());
    }
    while (!sm.done() && sm.now() < budget)
        sm.step();
    ASSERT_TRUE(sm.done()) << "seed " << seed << " did not finish";
    const sim::RunStats stats = chaos.collect();
    EXPECT_GT(completed_suspends, 0u) << "seed " << seed;
    EXPECT_GT(stats.tenants[0].preemptions +
                  stats.tenants[1].preemptions,
              0u);

    // No shadow-checker violations despite the interruptions.
    EXPECT_TRUE(chaos.runtimeViolations().empty());

    // Memory-image parity: the chaos run, the uninterrupted co-run,
    // and the solo runs (segment-translated) all agree word for word
    // over the random kernels' store windows.
    auto scan = [&](Addr begin, Addr bytes, Addr solo_shift,
                    sim::GpuSimulator &solo) {
        for (Addr off = 0; off < bytes; off += 4) {
            const Addr addr = begin + off;
            ASSERT_EQ(chaos.memory().readWord(addr),
                      plain.memory().readWord(addr))
                << "seed " << seed << " addr " << std::hex << addr;
            ASSERT_EQ(chaos.memory().readWord(addr),
                      solo.memory().readWord(addr - solo_shift))
                << "seed " << seed << " addr " << std::hex << addr;
        }
    };
    const Addr data = arch::kDataBase;
    const Addr stride = sim::kTenantDataStride;
    // Random kernels store to segments at +2 MB and +3 MB offsets.
    for (const Addr window : {Addr(0), Addr(2u << 20), Addr(3u << 20)}) {
        scan(data + window, 64 * 1024, 0, solo_a);
        scan(data + stride + window, 64 * 1024, stride, solo_b);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreemptionChaos,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------
// Starved-tenant reporting: a tenant pinned behind an impossible
// capacity gate trips the per-tenant watchdog and the report names the
// tenant and its dominant stall cause.
// ---------------------------------------------------------------------

TEST(TenantStarvation, ReportNamesTheStarvedTenantAndCause)
{
    // reserveFrac = 1.0 hands the whole staging pool to priority
    // tenants: the best-effort tenant can never activate a region.
    sim::GpuConfig cfg =
        pairConfig(sim::ProviderKind::Regless, "nn", "srad_v1",
                   CapacityPolicy::PriorityReserve);
    cfg.tenants.reserveFrac = 1.0;
    cfg.sm.watchdogWindow = 20'000;
    cfg.sm.maxCycles = 2'000'000;

    try {
        sim::GpuSimulator gpu(tenantKernels(cfg), cfg);
        gpu.run();
        FAIL() << "fully reserved pool did not starve the "
                  "best-effort tenant";
    } catch (const sim::DeadlockError &e) {
        const sim::DeadlockReport &report = e.report();
        EXPECT_EQ(report.starvedTenant, 1) << report.render();
        EXPECT_EQ(report.kernel, "srad_v1") << report.render();
        EXPECT_EQ(report.starvedTenantKernel, "srad_v1");
        EXPECT_EQ(report.starvedTenantStall, "cm_no_capacity")
            << report.render();
        EXPECT_NE(report.render().find("starved tenant 1"),
                  std::string::npos)
            << report.render();
    }
}

// ---------------------------------------------------------------------
// QoS controller: parking the throughput hog at region boundaries
// while the latency-sensitive tenant runs.
// ---------------------------------------------------------------------

TEST(TenantQos, ControllerParksTheHogAndBothTenantsFinish)
{
    sim::GpuConfig cfg =
        pairConfig(sim::ProviderKind::Regless, "nn", "srad_v1",
                   CapacityPolicy::PriorityReserve);
    // Sized against the ~4.7k-cycle co-run of this pairing: intervals
    // short enough that the kernels see several park/resume phases,
    // park phases long enough (1500 cycles) for the region-boundary
    // handoff to complete inside them.
    cfg.tenants.qosPreemption = true;
    cfg.tenants.qosInterval = 2000;
    cfg.tenants.qosShare = 0.25;

    sim::GpuSimulator gpu(tenantKernels(cfg), cfg);
    const sim::RunStats stats = gpu.run();

    ASSERT_EQ(stats.tenants.size(), 2u);
    const sim::TenantLane &ls = stats.tenants[0];
    const sim::TenantLane &hog = stats.tenants[1];
    // The controller acted: the hog took preemptions and sat parked.
    EXPECT_GT(hog.preemptions, 0u);
    EXPECT_GT(hog.suspendedCycles, 0u);
    // The LS tenant is never preempted.
    EXPECT_EQ(ls.preemptions, 0u);
    EXPECT_EQ(ls.suspendedCycles, 0u);
    // Both still run to completion (hogs resume for their share
    // window, and permanently once the LS tenant retires).
    EXPECT_GT(ls.finishCycle, 0u);
    EXPECT_GT(hog.finishCycle, 0u);
    // Suspended slots are still charged (to no_warp), so the closed
    // account survives preemption.
    const unsigned share = cfg.sm.numSchedulers / 2;
    EXPECT_EQ(laneSlots(ls), share * stats.cycles);
    EXPECT_EQ(laneSlots(hog), share * stats.cycles);
}

TEST(TenantQos, PreemptionShortensTheLatencySensitiveTail)
{
    // The isolation claim behind the multi_tenant figure: under QoS
    // preemption (+ priority reserve) the LS tenant's finish cycle
    // must not be worse than under free-for-all sharing.
    sim::GpuConfig ffa =
        pairConfig(sim::ProviderKind::Regless, "nn", "srad_v1",
                   CapacityPolicy::FreeForAll);
    sim::GpuConfig qos =
        pairConfig(sim::ProviderKind::Regless, "nn", "srad_v1",
                   CapacityPolicy::PriorityReserve);
    qos.tenants.qosPreemption = true;
    qos.tenants.qosInterval = 1000;
    qos.tenants.qosShare = 0.5;

    sim::GpuSimulator ffa_gpu(tenantKernels(ffa), ffa);
    sim::GpuSimulator qos_gpu(tenantKernels(qos), qos);
    const sim::RunStats ffa_stats = ffa_gpu.run();
    const sim::RunStats qos_stats = qos_gpu.run();
    EXPECT_LE(qos_stats.tenants[0].finishCycle,
              ffa_stats.tenants[0].finishCycle);
}

// ---------------------------------------------------------------------
// Serialization: tenant lanes round-trip through the JSON schema and
// the tenant block is part of the config fingerprint.
// ---------------------------------------------------------------------

TEST(TenantStats, LanesRoundTripThroughJson)
{
    const sim::GpuConfig cfg =
        pairConfig(sim::ProviderKind::Regless, "nn", "hotspot",
                   CapacityPolicy::StaticQuota);
    sim::GpuSimulator gpu(tenantKernels(cfg), cfg);
    const sim::RunStats stats = gpu.run();
    ASSERT_EQ(stats.tenants.size(), 2u);
    const sim::RunStats parsed = sim::fromJson(sim::toJson(stats));
    EXPECT_TRUE(parsed == stats);
}

TEST(TenantConfigFingerprint, TenantBlockChangesTheCanonicalText)
{
    const sim::GpuConfig base =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    sim::GpuConfig paired = base;
    paired.tenants.workloads = {{"nn", 1}, {"srad_v1", 0}};
    sim::GpuConfig policy = paired;
    policy.tenants.policy = CapacityPolicy::StaticQuota;
    sim::GpuConfig qos = paired;
    qos.tenants.qosPreemption = true;

    const std::string a = sim::configCanonicalText(base);
    const std::string b = sim::configCanonicalText(paired);
    const std::string c = sim::configCanonicalText(policy);
    const std::string d = sim::configCanonicalText(qos);
    EXPECT_NE(a, b);
    EXPECT_NE(b, c);
    EXPECT_NE(b, d);
}

// ---------------------------------------------------------------------
// TenantArbiter policy math (pure unit tests over usage callbacks).
// ---------------------------------------------------------------------

class ArbiterFixture : public ::testing::Test
{
  protected:
    std::uint64_t use[2] = {0, 0};

    void registerBoth(regfile::TenantArbiter &arbiter,
                      unsigned prio0, unsigned prio1)
    {
        arbiter.registerTenant(0, prio0, [this] { return use[0]; });
        arbiter.registerTenant(1, prio1, [this] { return use[1]; });
    }
};

TEST_F(ArbiterFixture, FreeForAllCapsOnlyTheTotal)
{
    regfile::TenantArbiter arbiter(CapacityPolicy::FreeForAll, 100);
    registerBoth(arbiter, 0, 0);
    use[0] = 90;
    EXPECT_TRUE(arbiter.mayReserve(1, 10));
    EXPECT_FALSE(arbiter.mayReserve(1, 11));
    // One tenant may hog the whole pool.
    use[0] = 0;
    EXPECT_TRUE(arbiter.mayReserve(0, 100));
}

TEST_F(ArbiterFixture, StaticQuotaPartitionsThePool)
{
    regfile::TenantArbiter arbiter(CapacityPolicy::StaticQuota, 100);
    registerBoth(arbiter, 0, 0);
    // The quota is total / tenants.
    EXPECT_TRUE(arbiter.mayReserve(0, 50));
    EXPECT_FALSE(arbiter.mayReserve(0, 51));
    use[1] = 0; // the co-tenant's emptiness does not help
    use[0] = 50;
    EXPECT_FALSE(arbiter.mayReserve(0, 1));
    EXPECT_TRUE(arbiter.mayReserve(1, 50));
}

TEST_F(ArbiterFixture, PriorityReserveHoldsBackBestEffort)
{
    regfile::TenantArbiter arbiter(CapacityPolicy::PriorityReserve,
                                   100);
    arbiter.setReserveFraction(0.25);
    registerBoth(arbiter, /*prio0=*/1, /*prio1=*/0);
    // Best effort allocates only outside the 25-line reserve.
    EXPECT_TRUE(arbiter.mayReserve(1, 75));
    EXPECT_FALSE(arbiter.mayReserve(1, 76));
    // Priority tenants allocate from the whole pool.
    EXPECT_TRUE(arbiter.mayReserve(0, 100));
    // Priority usage squeezes best effort further.
    use[0] = 50;
    EXPECT_TRUE(arbiter.mayReserve(1, 50));
    use[0] = 80;
    EXPECT_TRUE(arbiter.mayReserve(1, 20));
    EXPECT_FALSE(arbiter.mayReserve(1, 21));
}

// ---------------------------------------------------------------------
// Scoreboard warp partitioning: a tenant's scoreboard is indexed by
// global warp id over an explicit [base, base + extent) range, and
// anything outside the range is an immediate panic, not silent
// corruption.
// ---------------------------------------------------------------------

TEST(ScoreboardRange, BaseAndExtentBoundTheWarpIndexSpace)
{
    arch::Scoreboard sb(/*num_warps=*/4, /*num_regs=*/8,
                        /*warp_base=*/32);
    const std::vector<RegId> regs{2};
    // In-range ids work, addressed globally.
    EXPECT_EQ(sb.readyAt(32, 2), 0u);
    EXPECT_EQ(sb.readyAt(35, 7), 0u);
    EXPECT_EQ(sb.lastPendingWrite(33, regs), 0u);
    // Out-of-partition warp ids die loudly instead of silently
    // reading a neighbouring tenant's state.
    EXPECT_THROW(sb.readyAt(31, 2), sim::SimError);
    EXPECT_THROW(sb.readyAt(36, 2), sim::SimError);
    EXPECT_THROW(sb.lastPendingWrite(0, regs), sim::SimError);
}

// ---------------------------------------------------------------------
// Multi-tenant multi-SM: the lockstep epoch loop hosts co-resident
// tenants on every SM and aggregates their lanes.
// ---------------------------------------------------------------------

TEST(TenantMultiSm, LanesAggregateAcrossSms)
{
    const sim::GpuConfig cfg =
        pairConfig(sim::ProviderKind::Regless, "nn", "hotspot",
                   CapacityPolicy::FreeForAll);
    constexpr unsigned sms = 4;
    sim::MultiSmSimulator multi(tenantKernels(cfg), cfg, sms,
                                /*threads=*/1);
    const sim::RunStats total = multi.run();
    ASSERT_EQ(total.tenants.size(), 2u);
    ASSERT_EQ(multi.perSm().size(), sms);
    for (unsigned t = 0; t < 2; ++t) {
        std::uint64_t insns = 0;
        Cycle finish = 0;
        for (const sim::RunStats &s : multi.perSm()) {
            ASSERT_EQ(s.tenants.size(), 2u);
            insns += s.tenants[t].insns;
            finish = std::max(finish, s.tenants[t].finishCycle);
        }
        EXPECT_EQ(total.tenants[t].insns, insns);
        EXPECT_EQ(total.tenants[t].finishCycle, finish);
        EXPECT_GT(insns, 0u);
    }
}

} // namespace
} // namespace regless

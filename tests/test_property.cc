/**
 * @file
 * Property-based differential tests: randomly generated (but always
 * valid) kernels must produce byte-identical architectural results
 * under the baseline register file and under RegLess, across OSU
 * capacities, compressor settings, and activation policies. This is
 * the strongest invariant in the repository: operand staging must be
 * semantically invisible.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/fault_injector.hh"
#include "common/sim_error.hh"
#include "compiler/staging_checker.hh"
#include "compiler/value_range.hh"
#include "golden_runs.hh"
#include "regless/operand_staging_unit.hh"
#include "regless/regless_provider.hh"
#include "ir/liveness.hh"
#include "sim/experiment.hh"
#include "sim/gpu_simulator.hh"
#include "workloads/random_kernel.hh"
#include "workloads/rodinia.hh"

namespace regless
{
namespace
{

using workloads::randomKernel;

struct PropCase
{
    std::uint64_t seed;
    unsigned capacity;
    bool compressor;
    bool fifo;
};

class ReglessEquivalence : public ::testing::TestWithParam<PropCase>
{
};

TEST_P(ReglessEquivalence, MatchesBaselineMemoryImage)
{
    const PropCase &param = GetParam();
    ir::Kernel base_kernel = randomKernel(param.seed);
    ir::Kernel rl_kernel = randomKernel(param.seed);

    sim::GpuConfig base_cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Baseline);
    sim::GpuConfig rl_cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    rl_cfg.setOsuCapacity(param.capacity);
    rl_cfg.regless.compressorEnabled = param.compressor;
    rl_cfg.regless.fifoActivation = param.fifo;

    sim::GpuSimulator base(base_kernel, base_cfg);
    sim::GpuSimulator rl(rl_kernel, rl_cfg);
    base.run();
    rl.run();
    ASSERT_TRUE(base.sm().done());
    ASSERT_TRUE(rl.sm().done());

    // Compare the observable data segment (all store windows).
    for (Addr off = 2u << 20; off < (3u << 20) + (1u << 14);
         off += 4 * 61) {
        Addr a = arch::kDataBase + off;
        ASSERT_EQ(base.memory().readWord(a), rl.memory().readWord(a))
            << "seed " << param.seed << " capacity " << param.capacity
            << " offset " << off;
    }
}

std::vector<PropCase>
propCases()
{
    std::vector<PropCase> cases;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        cases.push_back({seed, 512, true, false});
        cases.push_back({seed, 128, true, false});
    }
    // A few configuration corners on fixed seeds.
    cases.push_back({3, 512, false, false});
    cases.push_back({5, 512, true, true});
    cases.push_back({7, 256, false, true});
    cases.push_back({11, 2048, true, false});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    RandomKernels, ReglessEquivalence, ::testing::ValuesIn(propCases()),
    [](const ::testing::TestParamInfo<PropCase> &info) {
        const PropCase &p = info.param;
        return "seed" + std::to_string(p.seed) + "_cap" +
               std::to_string(p.capacity) +
               (p.compressor ? "_comp" : "_nocomp") +
               (p.fifo ? "_fifo" : "_lifo");
    });

/**
 * OSU structural invariants under the fuzzer: while a random kernel
 * executes with a small OSU (so reclaims, evictions, and warp drops
 * interleave heavily), every bank's owned + clean + dirty + free must
 * equal linesPerBank() and occupiedLines() must match their sum.
 */
class OsuInvariants : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(OsuInvariants, HoldThroughoutRandomKernelExecution)
{
    ir::Kernel kernel = randomKernel(GetParam());
    sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    cfg.setOsuCapacity(128); // small: stresses reclaims
    sim::GpuSimulator gpu(kernel, cfg);
    // The config above fixed the provider kind, so the downcast is
    // static (the seam itself is cast-free; see scripts/check.sh).
    auto &provider =
        static_cast<staging::ReglessProvider &>(gpu.provider());

    auto check = [&] {
        for (unsigned shard = 0; shard < staging::kNumShards;
             ++shard) {
            staging::OperandStagingUnit &osu = provider.osu(shard);
            unsigned occupied = 0;
            for (unsigned b = 0; b < staging::osuBanks; ++b) {
                auto counts = osu.bankCounts(b);
                ASSERT_EQ(counts.owned + counts.clean + counts.dirty +
                              counts.free,
                          osu.linesPerBank())
                    << "seed " << GetParam() << " shard " << shard
                    << " bank " << b << " cycle " << gpu.sm().now();
                occupied += counts.owned + counts.clean + counts.dirty;
            }
            ASSERT_EQ(occupied, osu.occupiedLines())
                << "seed " << GetParam() << " shard " << shard;
        }
    };

    while (!gpu.sm().done()) {
        gpu.sm().step();
        if (gpu.sm().now() % 64 == 0)
            check();
        ASSERT_LT(gpu.sm().now(), 2'000'000u) << "kernel wedged";
    }
    check();
}

INSTANTIATE_TEST_SUITE_P(RandomKernels, OsuInvariants,
                         ::testing::Values(1, 4, 9, 13));

/** Region-partition invariants on the same random kernels. */
class RegionInvariants
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RegionInvariants, PartitionIsSoundForRandomKernels)
{
    ir::Kernel kernel = randomKernel(GetParam());
    compiler::CompiledKernel ck = compiler::compile(kernel);
    const ir::Kernel &k = ck.kernel();

    std::vector<unsigned> covered(k.numInsns(), 0);
    for (const compiler::Region &region : ck.regions()) {
        // Coverage and block containment.
        EXPECT_EQ(k.blockOf(region.startPc), k.blockOf(region.endPc));
        for (Pc pc = region.startPc; pc <= region.endPc; ++pc)
            ++covered[pc];
        // Annotation PCs are inside the region.
        for (const auto &[pc, regs] : region.erases) {
            EXPECT_TRUE(region.contains(pc));
            (void)regs;
        }
        for (const auto &[pc, regs] : region.evicts) {
            EXPECT_TRUE(region.contains(pc));
            (void)regs;
        }
        // Interior registers never appear as inputs or outputs.
        for (RegId r : region.interiors) {
            EXPECT_EQ(std::count(region.inputs.begin(),
                                 region.inputs.end(), r),
                      0);
            EXPECT_EQ(std::count(region.outputs.begin(),
                                 region.outputs.end(), r),
                      0);
        }
        // Bank usage covers the peak.
        EXPECT_GE(region.reservedLines(), region.maxLive);
    }
    for (unsigned c : covered)
        EXPECT_EQ(c, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionInvariants,
                         ::testing::Range<std::uint64_t>(1, 25));

/** Random kernels must also pass the full path-sensitive lint. */
class LintClean : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LintClean, RandomKernelsAreLintClean)
{
    compiler::CompiledKernel ck =
        compiler::compile(randomKernel(GetParam()));
    std::vector<compiler::Finding> findings =
        compiler::lintCompiledKernel(ck);
    EXPECT_TRUE(findings.empty())
        << compiler::formatFindings(findings);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LintClean,
                         ::testing::Range<std::uint64_t>(1, 41));

/**
 * Mutation testing of the staging checker: systematically corrupt
 * the annotations of compiled random kernels and measure how many
 * mutants the static lint kills. The acceptance bar is >= 95% static
 * detection; any escapee must be caught by the dynamic shadow
 * checker instead.
 */

struct Mutant
{
    std::string op;
    std::uint64_t seed;
    compiler::CompiledKernel ck;
};

using MutationOp = std::function<bool(const compiler::CompiledKernel &,
                                      std::vector<compiler::Region> &)>;

/** First region index satisfying @a pred, or regions.size(). */
template <typename Pred>
std::size_t
firstRegion(const std::vector<compiler::Region> &regions, Pred pred)
{
    for (std::size_t i = 0; i < regions.size(); ++i) {
        if (pred(regions[i]))
            return i;
    }
    return regions.size();
}

bool
dropPreload(const compiler::CompiledKernel &,
            std::vector<compiler::Region> &regions)
{
    std::size_t i = firstRegion(regions, [](const compiler::Region &r) {
        return !r.preloads.empty();
    });
    if (i == regions.size())
        return false;
    regions[i].preloads.erase(regions[i].preloads.begin());
    return true;
}

bool
dropErase(const compiler::CompiledKernel &,
          std::vector<compiler::Region> &regions)
{
    std::size_t i = firstRegion(regions, [](const compiler::Region &r) {
        return !r.erases.empty();
    });
    if (i == regions.size())
        return false;
    auto it = regions[i].erases.begin();
    it->second.erase(it->second.begin());
    if (it->second.empty())
        regions[i].erases.erase(it);
    return true;
}

bool
dropEvict(const compiler::CompiledKernel &,
          std::vector<compiler::Region> &regions)
{
    std::size_t i = firstRegion(regions, [](const compiler::Region &r) {
        return !r.evicts.empty();
    });
    if (i == regions.size())
        return false;
    auto it = regions[i].evicts.begin();
    it->second.erase(it->second.begin());
    if (it->second.empty())
        regions[i].evicts.erase(it);
    return true;
}

bool
flipInvalidateOn(const compiler::CompiledKernel &ck,
                 std::vector<compiler::Region> &regions)
{
    // Only non-invalidating preloads of still-needed values are
    // eligible; flipping one reintroduces the premature-invalidation
    // bug class (§4.3).
    const ir::Liveness &live = ck.analyses().live;
    for (compiler::Region &region : regions) {
        for (compiler::Preload &p : region.preloads) {
            if (!p.invalidate &&
                live.liveAfter(region.endPc, p.reg)) {
                p.invalidate = true;
                return true;
            }
        }
    }
    return false;
}

bool
shrinkMaxLive(const compiler::CompiledKernel &,
              std::vector<compiler::Region> &regions)
{
    std::size_t i = firstRegion(regions, [](const compiler::Region &r) {
        return r.maxLive > 0;
    });
    if (i == regions.size())
        return false;
    --regions[i].maxLive;
    return true;
}

bool
underclaimBank(const compiler::CompiledKernel &,
               std::vector<compiler::Region> &regions)
{
    for (compiler::Region &region : regions) {
        for (unsigned b = 0; b < compiler::numOsuBanks; ++b) {
            if (region.bankUsage[b] > 0) {
                --region.bankUsage[b];
                return true;
            }
        }
    }
    return false;
}

bool
bogusCacheInvalidation(const compiler::CompiledKernel &,
                       std::vector<compiler::Region> &regions)
{
    std::size_t i = firstRegion(regions, [](const compiler::Region &r) {
        return !r.inputs.empty();
    });
    if (i == regions.size())
        return false;
    regions[i].cacheInvalidations.push_back(regions[i].inputs.front());
    return true;
}

/**
 * Record @a enc on the first evicted register whose value facts do
 * NOT imply it: a compile-time compression claim the value
 * can escape at runtime (codes::encodingUnsound).
 */
bool
forgeEncoding(const compiler::CompiledKernel &ck,
              std::vector<compiler::Region> &regions,
              compiler::StaticEncoding enc)
{
    const compiler::ValueRangeAnalysis &vra =
        ck.analyses().vra;
    for (compiler::Region &region : regions) {
        for (const auto &[pc, regs] : region.evicts) {
            for (RegId r : regs) {
                if (compiler::encodingImplied(enc, vra.after(pc, r)))
                    continue;
                region.encodings[r] = enc;
                return true;
            }
        }
    }
    return false;
}

bool
forgeNarrowEncoding(const compiler::CompiledKernel &ck,
                    std::vector<compiler::Region> &regions)
{
    // Widen a value past its proven range: claim the low 16 bits
    // suffice for a register the analysis cannot bound.
    return forgeEncoding(ck, regions,
                         compiler::StaticEncoding::NarrowWidth);
}

bool
forgeUniformEncoding(const compiler::CompiledKernel &ck,
                     std::vector<compiler::Region> &regions)
{
    // Flip a divergent vector to a uniform broadcast: claim one lane
    // represents all 32 for a register that is not proven uniform.
    return forgeEncoding(ck, regions,
                         compiler::StaticEncoding::UniformScalar);
}

TEST(MutationHarness, StaticLintKillsAtLeast95PercentOfMutants)
{
    const std::vector<std::pair<const char *, MutationOp>> ops = {
        {"dropPreload", dropPreload},
        {"dropErase", dropErase},
        {"dropEvict", dropEvict},
        {"flipInvalidateOn", flipInvalidateOn},
        {"shrinkMaxLive", shrinkMaxLive},
        {"underclaimBank", underclaimBank},
        {"bogusCacheInvalidation", bogusCacheInvalidation},
        {"forgeNarrowEncoding", forgeNarrowEncoding},
        {"forgeUniformEncoding", forgeUniformEncoding},
    };

    unsigned generated = 0;
    unsigned killed = 0;
    std::vector<Mutant> escaped;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const compiler::CompiledKernel ck =
            compiler::compile(randomKernel(seed));
        for (const auto &[name, op] : ops) {
            auto regions = ck.regions();
            if (!op(ck, regions))
                continue; // kernel has no eligible site
            compiler::CompiledKernel mutant(ck.kernel(),
                                            std::move(regions),
                                            ck.lifetimeStats(),
                                            ck.metadataInsns());
            ++generated;
            if (compiler::hasErrors(
                    compiler::lintCompiledKernel(mutant))) {
                ++killed;
            } else {
                escaped.push_back(Mutant{name, seed, mutant});
            }
        }
    }

    ASSERT_GT(generated, 30u) << "mutation harness generated too few "
                                 "mutants to be meaningful";
    EXPECT_GE(killed * 100, generated * 95)
        << killed << "/" << generated << " mutants statically killed";

    // Defense in depth: anything the static lint missed must be
    // caught by the dynamic shadow checker.
    for (const Mutant &m : escaped) {
        sim::GpuConfig cfg =
            sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
        cfg.regless.runtimeCheck = true;
        cfg.setOsuCapacity(128);
        sim::GpuSimulator gpu(m.ck, cfg);
        gpu.run();
        EXPECT_FALSE(gpu.runtimeViolations().empty())
            << "mutant " << m.op << " seed " << m.seed
            << " escaped both the static lint and the runtime check";
    }
}

/**
 * The value-corrupting operators must be killed statically on EVERY
 * random kernel with an eligible site — 100%, not just the harness's
 * 95% aggregate bar: a forged encoding that reached the compressor
 * could mis-decode an evicted vector, so no escape is tolerable.
 */
TEST(MutationHarness, ForgedEncodingsAreAlwaysStaticallyKilled)
{
    const std::vector<std::pair<const char *, MutationOp>> forgers = {
        {"forgeNarrowEncoding", forgeNarrowEncoding},
        {"forgeUniformEncoding", forgeUniformEncoding},
    };
    unsigned generated = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const compiler::CompiledKernel ck =
            compiler::compile(randomKernel(seed));
        for (const auto &[name, op] : forgers) {
            auto regions = ck.regions();
            if (!op(ck, regions))
                continue;
            compiler::CompiledKernel mutant(ck.kernel(),
                                            std::move(regions),
                                            ck.lifetimeStats(),
                                            ck.metadataInsns());
            ++generated;
            std::vector<compiler::Finding> findings =
                compiler::lintCompiledKernel(mutant);
            EXPECT_TRUE(std::any_of(
                findings.begin(), findings.end(),
                [](const compiler::Finding &f) {
                    return f.code == compiler::codes::encodingUnsound;
                }))
                << name << " escaped the lint on seed " << seed;
            EXPECT_TRUE(compiler::hasErrors(findings)) << name;
        }
    }
    EXPECT_GT(generated, 10u)
        << "too few forgeable sites for a meaningful kill rate";
}

/**
 * Static/dynamic agreement on specific mutants whose runtime footprint
 * is well-defined (no simulator panic): the shadow checker must
 * observe the same bug class the static lint reports.
 */
TEST(MutationHarness, DroppedEraseIsCaughtAtRuntime)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const compiler::CompiledKernel ck =
            compiler::compile(randomKernel(seed));
        auto regions = ck.regions();
        if (!dropErase(ck, regions))
            continue;
        compiler::CompiledKernel mutant(ck.kernel(), std::move(regions),
                                        ck.lifetimeStats(),
                                        ck.metadataInsns());
        ASSERT_TRUE(compiler::hasErrors(
            compiler::lintCompiledKernel(mutant)));

        sim::GpuConfig cfg =
            sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
        cfg.regless.runtimeCheck = true;
        sim::GpuSimulator gpu(mutant, cfg);
        gpu.run();
        std::vector<compiler::Finding> violations =
            gpu.runtimeViolations();
        bool leaked = std::any_of(
            violations.begin(), violations.end(),
            [](const compiler::Finding &f) {
                return f.code == compiler::codes::rtLeakedLine;
            });
        EXPECT_TRUE(leaked)
            << "seed " << seed << ": dropped erase not observed as a "
            << "leaked line at runtime ("
            << compiler::formatFindings(violations) << ")";
        return; // one agreeing mutant is the point
    }
    GTEST_SKIP() << "no random kernel with an erase annotation";
}

TEST(MutationHarness, DroppedPreloadsAreCaughtAtRuntimeUnderPressure)
{
    // A missing preload is runtime-benign as long as the producing
    // region's evicted line is still resident; only once reclaims kick
    // in does the region read a value that is really gone. Drop every
    // preload, run under OSU pressure, and accept either runtime
    // verdict: the shadow checker flags an unstaged read, or the OSU's
    // own invariant panics on an absent line (thrown as SimError) —
    // any outcome except a clean, silent run.
    const compiler::CompiledKernel ck = compiler::compile(randomKernel(1));
    auto regions = ck.regions();
    bool dropped = false;
    for (compiler::Region &region : regions) {
        dropped = dropped || !region.preloads.empty();
        region.preloads.clear();
    }
    ASSERT_TRUE(dropped);
    compiler::CompiledKernel mutant(ck.kernel(), std::move(regions),
                                    ck.lifetimeStats(),
                                    ck.metadataInsns());
    ASSERT_TRUE(
        compiler::hasErrors(compiler::lintCompiledKernel(mutant)));

    sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    cfg.regless.runtimeCheck = true;
    cfg.setOsuCapacity(128);
    bool detected = false;
    try {
        sim::GpuSimulator gpu(mutant, cfg);
        gpu.run();
        detected = !gpu.runtimeViolations().empty();
    } catch (const sim::SimError &) {
        detected = true;
    }
    EXPECT_TRUE(detected)
        << "dropped preloads escaped both runtime defences";
}

TEST(MutationHarness, RestoredDivergentInvalidateIsCaughtAtRuntime)
{
    // Historical bug class: an invalidating preload justified by CFG
    // liveness alone destroys a value a divergent sibling path still
    // reads. The compiler now suppresses these (see
    // ir::divergentSiblingMayRead); restoring them must trip both the
    // static lint and — under OSU pressure, where the clean line gets
    // reclaimed — the runtime shadow checker.
    compiler::CompiledKernel ck =
        compiler::compile(workloads::makeRodinia("heartwall"));
    const ir::Liveness &live = ck.analyses().live;
    auto regions = ck.regions();
    unsigned flipped = 0;
    for (compiler::Region &region : regions) {
        for (compiler::Preload &p : region.preloads) {
            if (!p.invalidate &&
                !live.liveAfter(region.endPc, p.reg)) {
                // Exactly the preloads the divergence rule suppressed.
                p.invalidate = true;
                ++flipped;
            }
        }
    }
    ASSERT_GT(flipped, 0u)
        << "heartwall no longer has divergence-suppressed invalidates";
    compiler::CompiledKernel mutant(ck.kernel(), std::move(regions),
                                    ck.lifetimeStats(),
                                    ck.metadataInsns());
    std::vector<compiler::Finding> findings =
        compiler::lintCompiledKernel(mutant);
    bool static_hit = std::any_of(
        findings.begin(), findings.end(),
        [](const compiler::Finding &f) {
            return f.code == compiler::codes::invalidateLive;
        });
    EXPECT_TRUE(static_hit) << compiler::formatFindings(findings);

    sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
    cfg.regless.runtimeCheck = true;
    cfg.setOsuCapacity(128);
    sim::GpuSimulator gpu(mutant, cfg);
    gpu.run();
    std::vector<compiler::Finding> violations = gpu.runtimeViolations();
    bool runtime_hit = std::any_of(
        violations.begin(), violations.end(),
        [](const compiler::Finding &f) {
            return f.code == compiler::codes::rtPreloadLost;
        });
    EXPECT_TRUE(runtime_hit)
        << "runtime shadow checker missed the restored invalidate bug ("
        << compiler::formatFindings(violations) << ")";
}

/**
 * Differential fuzzing of the cycle-skip engine (DESIGN.md §12):
 * random kernels under randomized fault plans must produce the exact
 * same observable outcome with skipping on and off — identical
 * RunStats (engine meta-counters aside), identical runtime-violation
 * sets from the shadow checker, and identical deadlock/error
 * diagnoses when the plan wedges or crashes the run.
 */

struct SkipFuzzCase
{
    std::uint64_t seed;
    sim::ProviderKind provider;
    FaultPlan plan;
};

/** Everything a run can externally produce, skip-mode-independent. */
struct SkipFuzzOutcome
{
    bool completed = false;
    sim::RunStats stats;
    std::vector<std::string> violations;
    std::string deadlock; ///< rendered DeadlockReport, empty if none
    std::string error;    ///< SimError message, empty if none
};

SkipFuzzOutcome
runFuzzCase(const SkipFuzzCase &c, bool cycle_skip)
{
    sim::GpuConfig cfg = sim::GpuConfig::forProvider(c.provider);
    cfg.sm.cycleSkip = cycle_skip;
    cfg.faults = c.plan;
    // Exercise the shadow checker so the violation set is live, and
    // keep wedged plans from running to the multi-million default.
    if (c.provider == sim::ProviderKind::Regless)
        cfg.regless.runtimeCheck = true;
    cfg.sm.watchdogWindow = 5000;
    cfg.sm.maxCycles = 2'000'000;

    SkipFuzzOutcome out;
    sim::GpuSimulator gpu(randomKernel(c.seed), cfg);
    try {
        out.stats = testutil::withoutSkipMeta(gpu.run());
        out.completed = true;
    } catch (const sim::DeadlockError &e) {
        out.deadlock = e.report().render();
    } catch (const sim::SimError &e) {
        out.error = e.what();
    }
    for (const compiler::Finding &f : gpu.runtimeViolations())
        out.violations.push_back(f.toString());
    return out;
}

std::vector<SkipFuzzCase>
skipFuzzCases()
{
    std::vector<SkipFuzzCase> cases;
    // Deterministic pseudo-random plan mix (xorshift): kernels, fault
    // kinds, trigger cycles, and providers all vary case to case.
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    auto next = [&state] {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state * 0x2545f4914f6cdd1dULL;
    };
    const FaultPlan::Kind kinds[] = {
        FaultPlan::Kind::None,
        FaultPlan::Kind::LeakOsuSlot,
        FaultPlan::Kind::DropDramResponse,
        FaultPlan::Kind::ProviderThrow,
    };
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const std::uint64_t r = next();
        SkipFuzzCase c;
        c.seed = seed;
        c.provider = (r & 1) ? sim::ProviderKind::Regless
                             : sim::ProviderKind::Baseline;
        c.plan.kind = kinds[(r >> 1) & 3];
        c.plan.triggerCycle = (r >> 8) % 4000;
        c.plan.transient = (r >> 4) & 1;
        cases.push_back(c);
    }
    // Pinned corners: every fault kind on the provider it targets
    // (LeakOsuSlot / ProviderThrow are staging-side and inert under
    // the baseline register file).
    cases.push_back({2, sim::ProviderKind::Regless,
                     {FaultPlan::Kind::LeakOsuSlot, 0, false}});
    cases.push_back({3, sim::ProviderKind::Regless,
                     {FaultPlan::Kind::ProviderThrow, 1000, false}});
    cases.push_back({5, sim::ProviderKind::Baseline,
                     {FaultPlan::Kind::DropDramResponse, 0, false}});
    cases.push_back({7, sim::ProviderKind::Regless,
                     {FaultPlan::Kind::DropDramResponse, 500, true}});
    return cases;
}

class CycleSkipFuzz : public ::testing::TestWithParam<SkipFuzzCase>
{
};

TEST_P(CycleSkipFuzz, OutcomeIsIdenticalWithAndWithoutSkipping)
{
    const SkipFuzzCase &c = GetParam();
    const SkipFuzzOutcome off = runFuzzCase(c, false);
    const SkipFuzzOutcome on = runFuzzCase(c, true);

    EXPECT_EQ(on.completed, off.completed);
    if (on.completed && off.completed) {
        EXPECT_TRUE(on.stats == off.stats);
    }
    EXPECT_EQ(on.violations, off.violations);
    EXPECT_EQ(on.deadlock, off.deadlock);
    EXPECT_EQ(on.error, off.error);
}

INSTANTIATE_TEST_SUITE_P(
    RandomPlans, CycleSkipFuzz, ::testing::ValuesIn(skipFuzzCases()),
    [](const ::testing::TestParamInfo<SkipFuzzCase> &info) {
        const SkipFuzzCase &c = info.param;
        return "seed" + std::to_string(c.seed) + "_" +
               std::string(sim::providerName(c.provider)) + "_" +
               faultKindName(c.plan.kind) + "_t" +
               std::to_string(c.plan.triggerCycle) +
               (c.plan.transient ? "_transient" : "");
    });

} // namespace
} // namespace regless

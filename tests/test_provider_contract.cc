/**
 * @file
 * Provider-registry contract tests (DESIGN.md §13): the registry is
 * complete and self-consistent, every consumer-facing hook is
 * populated, and — parameterized over the registry, so a newly added
 * provider is covered without touching this file — every provider
 * runs real workloads under the existing invariants: the closed stall
 * account, positive energy/area models, and an unchanged program
 * memory image. The two rival designs (compiler-assisted RF cache,
 * RegDem demotion) additionally get unit tests of their compiler pass
 * and spill behaviour, and the v7 cache schema gets a negative test
 * rejecting v6 entries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/compiler.hh"
#include "compiler/rf_cache_hints.hh"
#include "golden_runs.hh"
#include "mem/memory_system.hh"
#include "regfile/compiler_rf_cache.hh"
#include "regfile/regdem.hh"
#include "sim/experiment.hh"
#include "sim/experiment_engine.hh"
#include "sim/job_cache.hh"
#include "sim/gpu_simulator.hh"
#include "sim/provider_registry.hh"
#include "workloads/kernel_builder.hh"
#include "workloads/rodinia.hh"

namespace regless
{
namespace
{

using workloads::KernelBuilder;

// ---------------------------------------------------------------------
// Registry self-consistency.
// ---------------------------------------------------------------------

TEST(ProviderRegistry, TableIsInEnumOrderAndComplete)
{
    const auto &registry = sim::providerRegistry();
    ASSERT_EQ(registry.size(), sim::kNumProviderKinds);
    const auto &kinds = sim::allProviderKinds();
    ASSERT_EQ(kinds.size(), sim::kNumProviderKinds);
    for (std::size_t i = 0; i < registry.size(); ++i) {
        EXPECT_EQ(static_cast<std::size_t>(registry[i].kind), i)
            << registry[i].name;
        EXPECT_EQ(kinds[i], registry[i].kind);
        // providerDescriptor() is the indexed lookup of the same row.
        EXPECT_EQ(&sim::providerDescriptor(registry[i].kind),
                  &registry[i]);
    }
}

TEST(ProviderRegistry, NamesAreUniqueAndRoundTrip)
{
    std::set<std::string> names;
    for (const sim::ProviderDescriptor &d : sim::providerRegistry()) {
        EXPECT_TRUE(names.insert(d.name).second)
            << "duplicate provider name " << d.name;
        EXPECT_STREQ(sim::providerName(d.kind), d.name);
        sim::ProviderKind parsed;
        ASSERT_TRUE(sim::tryProviderFromName(d.name, parsed)) << d.name;
        EXPECT_EQ(parsed, d.kind);
        EXPECT_NE(std::string(d.title), "") << d.name;
    }
    sim::ProviderKind parsed;
    EXPECT_FALSE(sim::tryProviderFromName("no_such_provider", parsed));
}

TEST(ProviderRegistry, EveryMandatoryHookIsPopulated)
{
    for (const sim::ProviderDescriptor &d : sim::providerRegistry()) {
        EXPECT_NE(d.make, nullptr) << d.name;
        EXPECT_NE(d.collect, nullptr) << d.name;
        EXPECT_NE(d.registerEnergy, nullptr) << d.name;
        EXPECT_NE(d.area, nullptr) << d.name;
    }
}

TEST(ProviderRegistry, ForProviderAppliesTheDescriptorDefaults)
{
    for (const sim::ProviderDescriptor &d : sim::providerRegistry()) {
        const sim::GpuConfig cfg = sim::GpuConfig::forProvider(d.kind);
        EXPECT_EQ(cfg.provider, d.kind) << d.name;
        EXPECT_EQ(cfg.sm.scheduler, d.scheduler) << d.name;
    }
}

TEST(ProviderRegistry, AreaModelIsPositiveForEveryProvider)
{
    for (const sim::ProviderDescriptor &d : sim::providerRegistry()) {
        const sim::GpuConfig cfg = sim::GpuConfig::forProvider(d.kind);
        EXPECT_GT(d.area(cfg).total(), 0.0) << d.name;
    }
}

// ---------------------------------------------------------------------
// Every provider end-to-end, parameterized over the registry.
// ---------------------------------------------------------------------

/** gtest param names must be [A-Za-z0-9_]. */
std::string
kindParamName(const ::testing::TestParamInfo<sim::ProviderKind> &info)
{
    return sim::providerName(info.param);
}

class ProviderContract : public ::testing::TestWithParam<sim::ProviderKind>
{
};

TEST_P(ProviderContract, RodiniaRunClosesTheStallAccount)
{
    const sim::ProviderKind kind = GetParam();
    for (const char *name : {"nn", "hotspot"}) {
        const sim::GpuConfig cfg = sim::GpuConfig::forProvider(kind);
        const sim::RunStats stats =
            sim::runKernel(workloads::makeRodinia(name), cfg);
        EXPECT_EQ(stats.provider, kind) << name;
        EXPECT_GT(stats.cycles, 0u) << name;
        testutil::expectSlotInvariant(
            stats, cfg.sm.numSchedulers,
            std::string(name) + " " + sim::providerName(kind));
        // The registry's energy hook ran: the model is total and
        // positive for every design.
        EXPECT_GT(stats.energy.total(), 0.0) << name;
    }
}

TEST_P(ProviderContract, ProgramMemoryImageMatchesBaseline)
{
    // Operand staging is invisible to the program: whatever the
    // provider does (cache, demote, compress), the data the kernel
    // writes must be byte-identical to the baseline run's.
    const sim::ProviderKind kind = GetParam();
    const sim::GpuConfig base_cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::Baseline);
    const sim::GpuConfig cfg = sim::GpuConfig::forProvider(kind);
    sim::GpuSimulator base(workloads::makeRodinia("hotspot"), base_cfg);
    sim::GpuSimulator sut(workloads::makeRodinia("hotspot"), cfg);
    base.run();
    sut.run();
    for (Addr off = 0; off < (1u << 19); off += 4 * 257) {
        const Addr a = base_cfg.sm.dataBase + off;
        ASSERT_EQ(base.memory().readWord(a), sut.memory().readWord(a))
            << "offset " << off;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllProviders, ProviderContract,
    ::testing::ValuesIn(sim::allProviderKinds()), kindParamName);

// ---------------------------------------------------------------------
// Compiler-assisted RF cache (DESIGN.md §13.2).
// ---------------------------------------------------------------------

TEST(RfCacheHints, ShortLivedSameBlockValueIsCacheable)
{
    KernelBuilder b("short");
    RegId t = b.tid();
    RegId addr = b.imuli(t, 4);
    RegId x = b.iaddi(t, 1); // consumed by the very next instruction
    RegId y = b.imul(x, x);
    b.st(y, addr);
    const ir::Kernel kernel = b.build();
    const std::vector<bool> cacheable =
        compiler::rfCacheableRegs(kernel, compiler::RfCacheHintParams{});
    EXPECT_TRUE(cacheable.at(x));
    EXPECT_TRUE(cacheable.at(y));
}

TEST(RfCacheHints, CrossBlockValueIsNotCacheable)
{
    // `keep` is defined before a branch and used on both sides: it is
    // live out of its defining block, so caching it would leave the
    // backing file stale across the seam.
    KernelBuilder b("crossblock");
    RegId t = b.tid();
    RegId keep = b.iaddi(t, 1);
    workloads::Label skip = b.newLabel();
    RegId p = b.setLt(t, b.movi(8));
    b.braIf(p, skip);
    b.st(keep, b.imuli(t, 4));
    b.bind(skip);
    b.st(keep, b.imuli(t, 4), 8192);
    const ir::Kernel kernel = b.build();
    const std::vector<bool> cacheable =
        compiler::rfCacheableRegs(kernel, compiler::RfCacheHintParams{});
    EXPECT_FALSE(cacheable.at(keep));
}

TEST(RfCacheHints, DistantUseIsNotCacheable)
{
    // A tight distance knob rejects the same value a loose one keeps.
    KernelBuilder b("distant");
    RegId t = b.tid();
    RegId x = b.iaddi(t, 1);
    for (int i = 0; i < 6; ++i)
        t = b.iaddi(t, 1); // filler between def and last use
    b.st(x, b.imuli(t, 4));
    const ir::Kernel kernel = b.build();
    compiler::RfCacheHintParams tight;
    tight.maxDefUseDistance = 2;
    compiler::RfCacheHintParams loose;
    loose.maxDefUseDistance = 32;
    EXPECT_FALSE(compiler::rfCacheableRegs(kernel, tight).at(x));
    EXPECT_TRUE(compiler::rfCacheableRegs(kernel, loose).at(x));
}

TEST(CompilerRfCacheTest, HitsShortLivedValuesEndToEnd)
{
    const sim::RunStats stats =
        sim::runKernel(workloads::makeRodinia("hotspot"),
                       sim::ProviderKind::CompilerRfCache);
    // The cache absorbs accesses (hits) and the uncached/evicted rest
    // still reaches the backing file.
    EXPECT_GT(stats.rfCacheHits, 0u);
    EXPECT_GT(stats.rfReads + stats.rfWrites, 0u);
}

TEST(CompilerRfCacheTest, TinyCacheEvictsAndMisses)
{
    compiler::CompiledKernel ck =
        compiler::compile(workloads::makeRodinia("hotspot"));
    regfile::CompilerRfCache::Params params;
    params.cacheEntriesPerWarp = 1; // every second insert evicts
    regfile::CompilerRfCache cache(ck, params);
    arch::Warp warp(0, 0, ck.kernel().numRegs());
    for (Pc pc = 0; pc < ck.kernel().numInsns(); ++pc) {
        const ir::Instruction &insn = ck.kernel().insn(pc);
        cache.onIssue(warp, pc, insn, pc, pc + 1);
        if (!insn.isExit())
            warp.stack().advance();
    }
    EXPECT_GT(cache.stats().value("evictions"), 0u);
    EXPECT_GT(cache.stats().value("cache_misses"), 0u);
}

// ---------------------------------------------------------------------
// RegDem demotion (DESIGN.md §13.3).
// ---------------------------------------------------------------------

/** A kernel with far more live registers than RegDem's shrunken RF. */
ir::Kernel
wideKernel()
{
    KernelBuilder b("wide");
    RegId t = b.tid();
    RegId addr = b.imuli(t, 4);
    std::vector<RegId> vals;
    for (int i = 0; i < 24; ++i)
        vals.push_back(b.iaddi(t, i + 2)); // all live until the sum
    RegId acc = b.iaddi(t, 1);
    for (RegId v : vals)
        acc = b.iadd(acc, v);
    b.st(acc, addr);
    return b.build();
}

TEST(RegDemTest, DemotesAllButTheHottestRegisters)
{
    compiler::CompiledKernel ck = compiler::compile(wideKernel());
    ASSERT_GT(ck.kernel().numRegs(), 16u);
    mem::MemorySystem mem;
    regfile::RegDemProvider::Params params; // hotRegsPerWarp = 16
    regfile::RegDemProvider regdem(ck, mem, params);
    EXPECT_EQ(regdem.hotRegs(), 16u);
    unsigned demoted = 0;
    for (RegId r = 0; r < ck.kernel().numRegs(); ++r)
        demoted += regdem.demoted(r) ? 1 : 0;
    EXPECT_EQ(demoted, ck.kernel().numRegs() - 16u);
}

TEST(RegDemTest, SmallKernelDemotesNothing)
{
    KernelBuilder b("small");
    RegId t = b.tid();
    b.st(b.iaddi(t, 1), b.imuli(t, 4));
    compiler::CompiledKernel ck = compiler::compile(b.build());
    ASSERT_LE(ck.kernel().numRegs(), 16u);
    mem::MemorySystem mem;
    regfile::RegDemProvider regdem(ck, mem,
                                   regfile::RegDemProvider::Params{});
    for (RegId r = 0; r < ck.kernel().numRegs(); ++r)
        EXPECT_FALSE(regdem.demoted(r)) << "r" << r;
}

TEST(RegDemTest, SpillTrafficIsRealMemoryTraffic)
{
    const sim::GpuConfig cfg =
        sim::GpuConfig::forProvider(sim::ProviderKind::RegDem);
    const sim::RunStats stats = sim::runKernel(wideKernel(), cfg);
    // Demoted registers really move through the memory system: every
    // demoted read is a fill load, every demoted write a spill store.
    EXPECT_GT(stats.fillLoads, 0u);
    EXPECT_GT(stats.spillStores, 0u);
    // And the traffic shows up against the baseline's L1 counters.
    const sim::RunStats base = sim::runKernel(
        wideKernel(),
        sim::GpuConfig::forProvider(sim::ProviderKind::Baseline));
    EXPECT_GT(stats.l1Accesses, base.l1Accesses);
}

// ---------------------------------------------------------------------
// Cache schema (negative test: previous-version entries are stale).
// ---------------------------------------------------------------------

TEST(CacheSchema, PreviousSchemaEntriesAreRejected)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        "regless-schema-stale";
    std::filesystem::remove_all(dir);
    sim::ExperimentEngine::Options options;
    options.cacheDir = dir.string();

    const sim::SimJob job = {
        "wide", sim::GpuConfig::forProvider(sim::ProviderKind::Regless),
        0, wideKernel};
    sim::RunStats reference;
    {
        sim::ExperimentEngine engine(options);
        reference = engine.stats(engine.submit(job));
        EXPECT_EQ(engine.simulated(), 1u);
    }
    const auto path =
        dir / sim::ExperimentEngine::cacheEntryPath(job);
    ASSERT_TRUE(std::filesystem::exists(path));

    // Downgrade the entry's schema stamp in place (the file name
    // stays valid, so only the record-level check can reject it).
    std::string text;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        text = buffer.str();
    }
    const std::size_t key = text.find("record_schema");
    ASSERT_NE(key, std::string::npos);
    const std::size_t digit =
        text.find_first_of("0123456789", key);
    ASSERT_NE(digit, std::string::npos);
    const std::size_t end =
        text.find_first_not_of("0123456789", digit);
    ASSERT_EQ(text.substr(digit, end - digit),
              std::to_string(sim::kJobCacheSchemaVersion));
    text.replace(digit, end - digit,
                 std::to_string(sim::kJobCacheSchemaVersion - 1));
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;

    // A stale entry is a miss, the job re-simulates, the entry heals.
    {
        sim::ExperimentEngine engine(options);
        const sim::RunStats &stats = engine.stats(engine.submit(job));
        EXPECT_EQ(engine.cacheHits(), 0u);
        EXPECT_EQ(engine.simulated(), 1u);
        EXPECT_TRUE(stats == reference);
    }
    {
        sim::ExperimentEngine engine(options);
        engine.submit(job);
        engine.flush();
        EXPECT_EQ(engine.cacheHits(), 1u);
    }
}

} // namespace
} // namespace regless

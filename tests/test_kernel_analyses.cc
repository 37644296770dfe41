/**
 * @file
 * Pins the lint over every Rodinia kernel and checks the per-kernel
 * analyses a CompiledKernel carries (DESIGN.md §3) against fresh builds
 * over its own instruction stream.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "compiler/compiler.hh"
#include "compiler/finding.hh"
#include "compiler/staging_checker.hh"
#include "compiler/value_range.hh"
#include "ir/cfg_analysis.hh"
#include "ir/liveness.hh"
#include "workloads/rodinia.hh"

namespace regless
{
namespace
{

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

/** The compiler configurations every Rodinia kernel is pinned under. */
std::vector<std::pair<std::string, compiler::CompilerConfig>>
compilerGrid()
{
    compiler::CompilerConfig no_banks;
    no_banks.reassignBanks = false;
    compiler::CompilerConfig no_split;
    no_split.splitLoadUse = false;
    return {{"default", compiler::CompilerConfig{}},
            {"no_banks", no_banks},
            {"no_split", no_split}};
}

/*
 * The lint's findings, advisory Warnings included, for all 21 Rodinia
 * kernels under each grid configuration, as FNV-1a digests of
 * formatFindings. They were recorded before the checkers read the
 * compiled kernel's analyses instead of building their own; a
 * deliberate change to a finding prints the entry's new digest.
 */
TEST(LintPinned, FindingsMatchTheirDigests)
{
    const std::map<std::string, std::uint64_t> pinned = {
        {"b+tree/default", 0x3002ae2f7591e4f8ULL},
        {"b+tree/no_banks", 0x4a0c3b01e4a66348ULL},
        {"b+tree/no_split", 0xa7fcb1355637ac47ULL},
        {"backprop/default", 0x1668b69c15fd1226ULL},
        {"backprop/no_banks", 0x461b1fa5fdca9adcULL},
        {"backprop/no_split", 0x97a6a00b641fccbeULL},
        {"bfs/default", 0xce74d8dfbec90dd4ULL},
        {"bfs/no_banks", 0xce74d8dfbec90dd4ULL},
        {"bfs/no_split", 0xf84bf1352b6a273cULL},
        {"dwt2d/default", 0xf4302b7686ac923fULL},
        {"dwt2d/no_banks", 0xc92c66520adbcddULL},
        {"dwt2d/no_split", 0xf8667c7054887c11ULL},
        {"gaussian/default", 0x558f620586e13569ULL},
        {"gaussian/no_banks", 0x68d96738f1b9b507ULL},
        {"gaussian/no_split", 0x7fd941ea81b8bd07ULL},
        {"heartwall/default", 0x7f0645490c1b2edcULL},
        {"heartwall/no_banks", 0x7f0645490c1b2edcULL},
        {"heartwall/no_split", 0x7f0645490c1b2edcULL},
        {"hotspot/default", 0x3cee4bd15ef34123ULL},
        {"hotspot/no_banks", 0x3fd33f21c8114595ULL},
        {"hotspot/no_split", 0x2dea04ad3753f177ULL},
        {"hybridsort/default", 0xe20b93853ccf233dULL},
        {"hybridsort/no_banks", 0xe20b93853ccf233dULL},
        {"hybridsort/no_split", 0xe20b93853ccf233dULL},
        {"kmeans/default", 0xdff1597f647b5f0fULL},
        {"kmeans/no_banks", 0x742cfe0688292a95ULL},
        {"kmeans/no_split", 0x99c9abacb274596dULL},
        {"lavaMD/default", 0x6a5a1d8aefa6a9e4ULL},
        {"lavaMD/no_banks", 0x6a5a1d8aefa6a9e4ULL},
        {"lavaMD/no_split", 0x245d676e6e20ebd6ULL},
        {"leukocyte/default", 0xb29143d84b1b7413ULL},
        {"leukocyte/no_banks", 0x78a661f70da2f321ULL},
        {"leukocyte/no_split", 0x456abd7b5e35e65bULL},
        {"lud/default", 0xf68bcae2f7a707dULL},
        {"lud/no_banks", 0x40bb1da2e6371efdULL},
        {"lud/no_split", 0xd3c9892845ac18c8ULL},
        {"mummergpu/default", 0xdb783bdd396a82e0ULL},
        {"mummergpu/no_banks", 0x31f3b0dc431829ceULL},
        {"mummergpu/no_split", 0x317f5219083045e8ULL},
        {"myocyte/default", 0x14650fb0739d0383ULL},
        {"myocyte/no_banks", 0x14650fb0739d0383ULL},
        {"myocyte/no_split", 0x14650fb0739d0383ULL},
        {"nn/default", 0x37bda974acfa09ccULL},
        {"nn/no_banks", 0x37bda974acfa09ccULL},
        {"nn/no_split", 0x40a56905cb733b84ULL},
        {"nw/default", 0x60ad56d3def8e0beULL},
        {"nw/no_banks", 0x8520563ce152b0c8ULL},
        {"nw/no_split", 0xd9e8ae0963f8384cULL},
        {"particle_filter/default", 0x5316b5eaa21581abULL},
        {"particle_filter/no_banks", 0x2f7e1dde5a587889ULL},
        {"particle_filter/no_split", 0x5316b5eaa21581abULL},
        {"pathfinder/default", 0x835d4e652dea844cULL},
        {"pathfinder/no_banks", 0xaa85a2696c6901d0ULL},
        {"pathfinder/no_split", 0x66eb6722c5537efaULL},
        {"srad_v1/default", 0x38f3389fc13c8ad1ULL},
        {"srad_v1/no_banks", 0x38f3389fc13c8ad1ULL},
        {"srad_v1/no_split", 0x118bdb0152afd8b9ULL},
        {"srad_v2/default", 0x9c60ad8354eacb79ULL},
        {"srad_v2/no_banks", 0xebb45df1e0c54935ULL},
        {"srad_v2/no_split", 0x9c60ad8354eacb79ULL},
        {"streamcluster/default", 0x70dc83ab4c4f5fbdULL},
        {"streamcluster/no_banks", 0xfda44f0abd5b34e7ULL},
        {"streamcluster/no_split", 0x853758c557a9b82ULL},
    };
    std::map<std::string, std::string> texts;
    for (const std::string &name : workloads::rodiniaNames()) {
        const ir::Kernel kernel = workloads::makeRodinia(name);
        for (const auto &[label, config] : compilerGrid()) {
            const compiler::CompiledKernel ck =
                compiler::compile(kernel, config);
            compiler::LintOptions lint;
            lint.checkLoadUse = config.splitLoadUse;
            lint.advisory = true;
            texts[name + "/" + label] = compiler::formatFindings(
                compiler::lintCompiledKernel(ck, lint));
        }
    }
    EXPECT_EQ(texts.size(), 63u);
    for (const auto &[name, text] : texts) {
        const std::uint64_t digest = fnv1a(text);
        auto it = pinned.find(name);
        EXPECT_TRUE(it != pinned.end() && it->second == digest)
            << "new digest: {\"" << name << "\", 0x" << std::hex
            << digest << "ULL},";
    }
    for (const auto &[name, digest] : pinned)
        EXPECT_EQ(texts.count(name), 1u) << "stale entry " << name;
}

/**
 * Compares every answer of @a ck's analyses with a fresh build over
 * ck.kernel(). @return the number of differing answers; @a first
 * describes the first one.
 */
unsigned
freshMismatches(const compiler::CompiledKernel &ck, std::string &first)
{
    const ir::Kernel &kernel = ck.kernel();
    const ir::CfgAnalysis cfg(kernel);
    const ir::Liveness live(kernel, cfg);
    const compiler::ValueRangeAnalysis vra(kernel, cfg, live);
    const compiler::KernelAnalyses &facts = ck.analyses();

    unsigned mismatches = 0;
    auto check = [&](bool same, auto &&...where) {
        if (same)
            return;
        if (mismatches++ == 0) {
            std::ostringstream oss;
            (oss << ... << where);
            first = oss.str();
        }
    };
    check(&facts.kernel == &kernel, "kernel() is not the analysed kernel");
    const std::size_t num_blocks = kernel.blocks().size();
    for (ir::BlockId a = 0; a < num_blocks; ++a) {
        check(facts.cfg.immediatePostdominator(a) ==
                  cfg.immediatePostdominator(a),
              "immediatePostdominator(", a, ")");
        for (ir::BlockId b = 0; b < num_blocks; ++b) {
            check(facts.cfg.dominates(a, b) == cfg.dominates(a, b),
                  "dominates(", a, ", ", b, ")");
            check(facts.cfg.postdominates(a, b) ==
                      cfg.postdominates(a, b),
                  "postdominates(", a, ", ", b, ")");
        }
    }
    for (Pc pc = 0; pc < kernel.numInsns(); ++pc) {
        check(facts.live.isSoftDef(pc) == live.isSoftDef(pc),
              "isSoftDef(", pc, ")");
        for (RegId r = 0; r < kernel.numRegs(); ++r) {
            check(facts.live.liveBefore(pc, r) == live.liveBefore(pc, r),
                  "liveBefore(", pc, ", r", r, ")");
            check(facts.live.liveAfter(pc, r) == live.liveAfter(pc, r),
                  "liveAfter(", pc, ", r", r, ")");
            check(facts.vra.before(pc, r) == vra.before(pc, r),
                  "vra.before(", pc, ", r", r, ")");
            check(facts.vra.after(pc, r) == vra.after(pc, r),
                  "vra.after(", pc, ", r", r, ")");
        }
    }
    return mismatches;
}

/*
 * A compiled kernel's analyses answer exactly what a fresh build over
 * its own kernel answers, also after the compiled kernel is copied or
 * moved and the original destroyed (an analysis left pointing at a
 * moved-from or freed kernel shows here, and under ASan).
 */
TEST(CompiledKernelAnalyses, MatchFreshAnalyses)
{
    for (const std::string &name : workloads::rodiniaNames()) {
        const ir::Kernel kernel = workloads::makeRodinia(name);
        for (const auto &[label, config] : compilerGrid()) {
            const std::string where = name + "/" + label;
            std::string first;
            std::optional<compiler::CompiledKernel> original(
                compiler::compile(kernel, config));
            EXPECT_EQ(freshMismatches(*original, first), 0u)
                << where << " compiled: " << first;

            const compiler::CompiledKernel copy = *original;
            EXPECT_EQ(&copy.analyses(), &original->analyses()) << where;
            compiler::CompiledKernel moved = std::move(*original);
            original.reset();
            EXPECT_EQ(freshMismatches(copy, first), 0u)
                << where << " copied: " << first;
            EXPECT_EQ(freshMismatches(moved, first), 0u)
                << where << " moved: " << first;
        }
    }
}

} // namespace
} // namespace regless

/**
 * @file
 * Tests for the path-sensitive staging-state checker: every Rodinia
 * kernel must lint clean, and each finding code must fire on a
 * hand-corrupted mutant of a real compiled kernel. Mutants are built
 * the same way test_tools.cc corrupts regions: copy the region list,
 * break one invariant, and rebuild a CompiledKernel around it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "compiler/compiler.hh"
#include "compiler/staging_checker.hh"
#include "compiler/verifier.hh"
#include "ir/liveness.hh"
#include "regless/operand_staging_unit.hh"
#include "regless/shadow_checker.hh"
#include "sim/gpu_config.hh"
#include "sim/gpu_simulator.hh"
#include "workloads/rodinia.hh"

namespace regless
{
namespace
{

bool
hasCode(const std::vector<compiler::Finding> &findings, const char *code)
{
    return std::any_of(findings.begin(), findings.end(),
                       [&](const compiler::Finding &f) {
                           return f.code == code;
                       });
}

std::string
codesOf(const std::vector<compiler::Finding> &findings)
{
    std::string out;
    for (const compiler::Finding &f : findings)
        out += f.toString() + "\n";
    return out;
}

compiler::CompiledKernel
rebuild(const compiler::CompiledKernel &ck,
        std::vector<compiler::Region> regions)
{
    return compiler::CompiledKernel(ck.kernel(), std::move(regions),
                                    ck.lifetimeStats(),
                                    ck.metadataInsns());
}

/**
 * First Rodinia kernel (in registry order) with a region satisfying
 * @a eligible; fails the calling test when none exists.
 */
template <typename Pred>
std::pair<compiler::CompiledKernel, std::size_t>
findKernelWith(Pred eligible)
{
    for (const std::string &name : workloads::rodiniaNames()) {
        compiler::CompiledKernel ck =
            compiler::compile(workloads::makeRodinia(name));
        for (std::size_t i = 0; i < ck.regions().size(); ++i) {
            if (eligible(ck, ck.regions()[i]))
                return {std::move(ck), i};
        }
    }
    ADD_FAILURE() << "no Rodinia kernel has an eligible region";
    compiler::CompiledKernel ck =
        compiler::compile(workloads::makeRodinia("nn"));
    return {std::move(ck), 0};
}

/** Registers referenced (read or written) inside @a region. */
std::vector<RegId>
regionRefs(const compiler::CompiledKernel &ck,
           const compiler::Region &region)
{
    std::vector<RegId> refs;
    for (Pc pc = region.startPc; pc <= region.endPc; ++pc) {
        const ir::Instruction &insn = ck.kernel().insn(pc);
        for (RegId r : insn.srcs())
            refs.push_back(r);
        if (insn.writesReg())
            refs.push_back(insn.dst());
    }
    std::sort(refs.begin(), refs.end());
    refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
    return refs;
}

class RodiniaLint : public ::testing::TestWithParam<std::string>
{
};

TEST_P(RodiniaLint, CompiledKernelIsClean)
{
    compiler::CompiledKernel ck =
        compiler::compile(workloads::makeRodinia(GetParam()));
    std::vector<compiler::Finding> findings =
        compiler::lintCompiledKernel(ck);
    EXPECT_TRUE(findings.empty()) << codesOf(findings);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, RodiniaLint,
    ::testing::ValuesIn(workloads::rodiniaNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(StagingCheckerTest, DropPreloadReportsUnstagedRead)
{
    auto [ck, idx] = findKernelWith(
        [](const compiler::CompiledKernel &,
           const compiler::Region &region) {
            return !region.preloads.empty();
        });
    auto regions = ck.regions();
    const RegId reg = regions[idx].preloads.front().reg;
    regions[idx].preloads.erase(regions[idx].preloads.begin());
    std::vector<compiler::Finding> findings =
        compiler::checkStagingStates(rebuild(ck, std::move(regions)));
    EXPECT_TRUE(hasCode(findings, compiler::codes::readUnstaged))
        << "dropped preload of r" << reg << ":\n"
        << codesOf(findings);
}

TEST(StagingCheckerTest, PreloadOfUndefinedValueReported)
{
    // At the kernel entry every register is abstractly Undef, so any
    // preload added to the entry region reads a never-defined value.
    compiler::CompiledKernel ck =
        compiler::compile(workloads::makeRodinia("nn"));
    auto regions = ck.regions();
    const compiler::RegionId entry = ck.regionAt(0);
    regions[entry].preloads.push_back(compiler::Preload{0, false});
    std::vector<compiler::Finding> findings =
        compiler::checkStagingStates(rebuild(ck, std::move(regions)));
    EXPECT_TRUE(hasCode(findings, compiler::codes::preloadUndef))
        << codesOf(findings);
}

TEST(StagingCheckerTest, FlipInvalidateOnLiveValueReported)
{
    auto [ck, idx] = findKernelWith(
        [](const compiler::CompiledKernel &k,
           const compiler::Region &region) {
            const ir::Liveness &live = k.analyses().live;
            for (const compiler::Preload &p : region.preloads) {
                if (!p.invalidate && live.liveAfter(region.endPc, p.reg))
                    return true;
            }
            return false;
        });
    const ir::Liveness &live = ck.analyses().live;
    auto regions = ck.regions();
    for (compiler::Preload &p : regions[idx].preloads) {
        if (!p.invalidate &&
            live.liveAfter(regions[idx].endPc, p.reg)) {
            p.invalidate = true;
            break;
        }
    }
    std::vector<compiler::Finding> findings =
        compiler::checkStagingStates(rebuild(ck, std::move(regions)));
    EXPECT_TRUE(hasCode(findings, compiler::codes::invalidateLive))
        << codesOf(findings);
}

TEST(StagingCheckerTest, BogusCacheInvalidationReported)
{
    // Inputs are live into their region by definition, so invalidating
    // one on activation destroys a value the region needs.
    auto [ck, idx] = findKernelWith(
        [](const compiler::CompiledKernel &,
           const compiler::Region &region) {
            return !region.inputs.empty();
        });
    auto regions = ck.regions();
    regions[idx].cacheInvalidations.push_back(
        regions[idx].inputs.front());
    std::vector<compiler::Finding> findings =
        compiler::checkStagingStates(rebuild(ck, std::move(regions)));
    EXPECT_TRUE(hasCode(findings, compiler::codes::invalidateLive))
        << codesOf(findings);
}

TEST(StagingCheckerTest, DropEraseReportsLeakedLine)
{
    auto [ck, idx] = findKernelWith(
        [](const compiler::CompiledKernel &,
           const compiler::Region &region) {
            return !region.erases.empty();
        });
    auto regions = ck.regions();
    auto it = regions[idx].erases.begin();
    const RegId reg = it->second.front();
    it->second.erase(it->second.begin());
    if (it->second.empty())
        regions[idx].erases.erase(it);
    std::vector<compiler::Finding> findings =
        compiler::checkStagingStates(rebuild(ck, std::move(regions)));
    EXPECT_TRUE(hasCode(findings, compiler::codes::leakedLine))
        << "dropped erase of r" << reg << ":\n"
        << codesOf(findings);
}

TEST(StagingCheckerTest, DropEvictReportsLeakedLine)
{
    auto [ck, idx] = findKernelWith(
        [](const compiler::CompiledKernel &,
           const compiler::Region &region) {
            return !region.evicts.empty();
        });
    auto regions = ck.regions();
    auto it = regions[idx].evicts.begin();
    it->second.erase(it->second.begin());
    if (it->second.empty())
        regions[idx].evicts.erase(it);
    std::vector<compiler::Finding> findings =
        compiler::checkStagingStates(rebuild(ck, std::move(regions)));
    EXPECT_TRUE(hasCode(findings, compiler::codes::leakedLine))
        << codesOf(findings);
}

TEST(StagingCheckerTest, EraseOfLiveValueReported)
{
    // Turn an evict of a region output (live after the region, backed
    // up on eviction) into an erase (line dropped, value destroyed).
    auto [ck, idx] = findKernelWith(
        [](const compiler::CompiledKernel &k,
           const compiler::Region &region) {
            const ir::Liveness &live = k.analyses().live;
            for (const auto &[pc, regs] : region.evicts) {
                for (RegId r : regs) {
                    if (live.liveAfter(pc, r) && !live.hasSoftDef(r))
                        return true;
                }
            }
            return false;
        });
    const ir::Liveness &live = ck.analyses().live;
    auto regions = ck.regions();
    bool mutated = false;
    for (auto &[pc, regs] : regions[idx].evicts) {
        for (auto rit = regs.begin(); rit != regs.end(); ++rit) {
            if (live.liveAfter(pc, *rit) && !live.hasSoftDef(*rit)) {
                regions[idx].erases[pc].push_back(*rit);
                regs.erase(rit);
                mutated = true;
                break;
            }
        }
        if (mutated)
            break;
    }
    ASSERT_TRUE(mutated);
    std::vector<compiler::Finding> findings =
        compiler::checkStagingStates(rebuild(ck, std::move(regions)));
    EXPECT_TRUE(hasCode(findings, compiler::codes::eraseLive))
        << codesOf(findings);
}

TEST(StagingCheckerTest, EraseOfUnstagedRegisterReported)
{
    auto [ck, idx] = findKernelWith(
        [](const compiler::CompiledKernel &k,
           const compiler::Region &region) {
            return regionRefs(k, region).size() < k.kernel().numRegs();
        });
    auto regions = ck.regions();
    const std::vector<RegId> refs = regionRefs(ck, regions[idx]);
    RegId untouched = invalidReg;
    for (RegId r = 0; r < ck.kernel().numRegs(); ++r) {
        if (!std::binary_search(refs.begin(), refs.end(), r)) {
            untouched = r;
            break;
        }
    }
    ASSERT_NE(untouched, invalidReg);
    regions[idx].erases[regions[idx].startPc].push_back(untouched);
    std::vector<compiler::Finding> findings =
        compiler::checkStagingStates(rebuild(ck, std::move(regions)));
    EXPECT_TRUE(hasCode(findings, compiler::codes::eraseUnstaged))
        << codesOf(findings);
}

TEST(StagingCheckerTest, EvictOfUnstagedRegisterReported)
{
    auto [ck, idx] = findKernelWith(
        [](const compiler::CompiledKernel &k,
           const compiler::Region &region) {
            return regionRefs(k, region).size() < k.kernel().numRegs();
        });
    auto regions = ck.regions();
    const std::vector<RegId> refs = regionRefs(ck, regions[idx]);
    RegId untouched = invalidReg;
    for (RegId r = 0; r < ck.kernel().numRegs(); ++r) {
        if (!std::binary_search(refs.begin(), refs.end(), r)) {
            untouched = r;
            break;
        }
    }
    ASSERT_NE(untouched, invalidReg);
    regions[idx].evicts[regions[idx].startPc].push_back(untouched);
    std::vector<compiler::Finding> findings =
        compiler::checkStagingStates(rebuild(ck, std::move(regions)));
    EXPECT_TRUE(hasCode(findings, compiler::codes::evictUnstaged))
        << codesOf(findings);
}

TEST(StagingCheckerTest, ReadAfterEraseReported)
{
    // Move an interior register's erase from its last touch up to its
    // defining instruction: every read in between now sees a dropped
    // line.
    auto [ck, idx] = findKernelWith(
        [](const compiler::CompiledKernel &k,
           const compiler::Region &region) {
            for (const auto &[pc, regs] : region.erases) {
                for (RegId r : regs) {
                    for (Pc d = region.startPc; d < pc; ++d) {
                        const ir::Instruction &insn = k.kernel().insn(d);
                        if (insn.writesReg() && insn.dst() == r)
                            return true;
                    }
                }
            }
            return false;
        });
    auto regions = ck.regions();
    compiler::Region &region = regions[idx];
    bool mutated = false;
    for (auto &[pc, regs] : region.erases) {
        for (auto rit = regs.begin(); rit != regs.end() && !mutated;
             ++rit) {
            for (Pc d = region.startPc; d < pc; ++d) {
                const ir::Instruction &insn = ck.kernel().insn(d);
                if (insn.writesReg() && insn.dst() == *rit) {
                    region.erases[d].push_back(*rit);
                    regs.erase(rit);
                    mutated = true;
                    break;
                }
            }
        }
        if (mutated)
            break;
    }
    ASSERT_TRUE(mutated);
    std::vector<compiler::Finding> findings =
        compiler::checkStagingStates(rebuild(ck, std::move(regions)));
    EXPECT_TRUE(hasCode(findings, compiler::codes::readAfterErase))
        << codesOf(findings);
}

TEST(StagingCheckerTest, ReadAfterInvalidateReported)
{
    // Replace a preload with a cache invalidation of the same register:
    // the region then reads a value it just destroyed.
    auto [ck, idx] = findKernelWith(
        [](const compiler::CompiledKernel &,
           const compiler::Region &region) {
            return !region.preloads.empty();
        });
    auto regions = ck.regions();
    const RegId reg = regions[idx].preloads.front().reg;
    regions[idx].preloads.erase(regions[idx].preloads.begin());
    regions[idx].cacheInvalidations.push_back(reg);
    std::vector<compiler::Finding> findings =
        compiler::checkStagingStates(rebuild(ck, std::move(regions)));
    EXPECT_TRUE(hasCode(findings, compiler::codes::readAfterInvalidate))
        << codesOf(findings);
}

TEST(StagingCheckerTest, ErasedValuePreloadedDownstreamReported)
{
    // A bogus erase at the end of one region turns the next region's
    // preload of the same register into a use-after-free.
    auto [ck, idx] = findKernelWith(
        [](const compiler::CompiledKernel &k,
           const compiler::Region &region) {
            const ir::BasicBlock &block =
                k.kernel().block(k.kernel().blockOf(region.endPc));
            if (region.endPc == block.lastPc())
                return false;
            const compiler::RegionId next =
                k.regionAt(region.endPc + 1);
            return !k.region(next).preloads.empty();
        });
    auto regions = ck.regions();
    const compiler::RegionId next = ck.regionAt(regions[idx].endPc + 1);
    const RegId reg = regions[next].preloads.front().reg;
    regions[idx].erases[regions[idx].endPc].push_back(reg);
    std::vector<compiler::Finding> findings =
        compiler::checkStagingStates(rebuild(ck, std::move(regions)));
    EXPECT_TRUE(hasCode(findings, compiler::codes::preloadErased))
        << codesOf(findings);
}

TEST(StagingCheckerTest, ShrunkMaxLiveReportsUnderclaim)
{
    auto [ck, idx] = findKernelWith(
        [](const compiler::CompiledKernel &,
           const compiler::Region &region) {
            return region.maxLive > 0;
        });
    auto regions = ck.regions();
    --regions[idx].maxLive;
    std::vector<compiler::Finding> findings =
        compiler::checkStagingStates(rebuild(ck, std::move(regions)));
    EXPECT_TRUE(hasCode(findings, compiler::codes::capacityUnderclaim))
        << codesOf(findings);
}

TEST(StagingCheckerTest, UnderclaimedBankReportsUnderclaim)
{
    auto [ck, idx] = findKernelWith(
        [](const compiler::CompiledKernel &,
           const compiler::Region &region) {
            for (unsigned b = 0; b < compiler::numOsuBanks; ++b) {
                if (region.bankUsage[b] > 0)
                    return true;
            }
            return false;
        });
    auto regions = ck.regions();
    for (unsigned b = 0; b < compiler::numOsuBanks; ++b) {
        if (regions[idx].bankUsage[b] > 0) {
            --regions[idx].bankUsage[b];
            break;
        }
    }
    std::vector<compiler::Finding> findings =
        compiler::checkStagingStates(rebuild(ck, std::move(regions)));
    EXPECT_TRUE(hasCode(findings, compiler::codes::capacityUnderclaim))
        << codesOf(findings);
}

TEST(StagingCheckerTest, MutantsAreReportedOnceNotPerPath)
{
    // The reporting replay deduplicates by (code, region, pc, reg): a
    // single dropped preload must not flood the output with one
    // finding per fixpoint visit.
    auto [ck, idx] = findKernelWith(
        [](const compiler::CompiledKernel &,
           const compiler::Region &region) {
            return !region.preloads.empty();
        });
    auto regions = ck.regions();
    const RegId reg = regions[idx].preloads.front().reg;
    regions[idx].preloads.erase(regions[idx].preloads.begin());
    std::vector<compiler::Finding> findings =
        compiler::checkStagingStates(rebuild(ck, std::move(regions)));
    unsigned dup = 0;
    for (const compiler::Finding &a : findings) {
        for (const compiler::Finding &b : findings) {
            if (&a != &b && a.code == b.code && a.region == b.region &&
                a.pc == b.pc && a.reg == b.reg) {
                ++dup;
            }
        }
    }
    EXPECT_EQ(dup, 0u) << "for dropped preload of r" << reg << ":\n"
                       << codesOf(findings);
}

/* ---- structural verifier codes, one ctor-safe mutant each ---- */

TEST(VerifierTest, InvertedRegionBoundsReported)
{
    // A region whose startPc exceeds its endPc covers nothing; the
    // CompiledKernel ctor tolerates it (the cover loop never runs) but
    // the verifier must flag it before anything else trusts it.
    auto [ck, idx] = findKernelWith(
        [](const compiler::CompiledKernel &,
           const compiler::Region &region) {
            return region.startPc < region.endPc;
        });
    auto regions = ck.regions();
    compiler::Region bogus = regions[idx];
    std::swap(bogus.startPc, bogus.endPc);
    regions.push_back(bogus);
    std::vector<compiler::Finding> findings = compiler::verifyStructure(
        rebuild(ck, std::move(regions)), /*check_load_use=*/true);
    EXPECT_TRUE(hasCode(findings, compiler::codes::regionBounds))
        << codesOf(findings);
}

TEST(VerifierTest, RegionSpanningBlockBoundaryReported)
{
    auto [ck, idx] = findKernelWith(
        [](const compiler::CompiledKernel &k,
           const compiler::Region &region) {
            return region.endPc + 1 < k.kernel().numInsns() &&
                   k.kernel().blockOf(region.endPc + 1) !=
                       k.kernel().blockOf(region.endPc);
        });
    auto regions = ck.regions();
    ++regions[idx].endPc;
    std::vector<compiler::Finding> findings = compiler::verifyStructure(
        rebuild(ck, std::move(regions)), true);
    EXPECT_TRUE(hasCode(findings, compiler::codes::regionSpansBlock))
        << codesOf(findings);
}

TEST(VerifierTest, OverlappingRegionStartsReported)
{
    // Two regions claiming the same startPc cannot both satisfy the
    // pc-to-region map: whichever loses the map write is reported.
    auto [ck, idx] = findKernelWith(
        [](const compiler::CompiledKernel &k,
           const compiler::Region &region) {
            return region.endPc + 1 < k.kernel().numInsns();
        });
    auto regions = ck.regions();
    const compiler::RegionId next = ck.regionAt(regions[idx].endPc + 1);
    regions[next].startPc = regions[idx].startPc;
    std::vector<compiler::Finding> findings = compiler::verifyStructure(
        rebuild(ck, std::move(regions)), true);
    EXPECT_TRUE(hasCode(findings, compiler::codes::regionIdMap))
        << codesOf(findings);
}

TEST(VerifierTest, DoubleCoveredPcReported)
{
    // Extend a region one pc into its successor without crossing a
    // block boundary: that pc is now covered twice, and only the
    // coverage invariant is violated.
    auto [ck, idx] = findKernelWith(
        [](const compiler::CompiledKernel &k,
           const compiler::Region &region) {
            return region.endPc + 1 < k.kernel().numInsns() &&
                   k.kernel().blockOf(region.endPc + 1) ==
                       k.kernel().blockOf(region.endPc);
        });
    auto regions = ck.regions();
    ++regions[idx].endPc;
    std::vector<compiler::Finding> findings = compiler::verifyStructure(
        rebuild(ck, std::move(regions)), true);
    EXPECT_TRUE(hasCode(findings, compiler::codes::coverage))
        << codesOf(findings);
    EXPECT_FALSE(hasCode(findings, compiler::codes::regionSpansBlock))
        << codesOf(findings);
}

TEST(VerifierTest, UnreferencedInputReported)
{
    auto [ck, idx] = findKernelWith(
        [](const compiler::CompiledKernel &k,
           const compiler::Region &region) {
            return regionRefs(k, region).size() < k.kernel().numRegs();
        });
    auto regions = ck.regions();
    const std::vector<RegId> refs = regionRefs(ck, regions[idx]);
    for (RegId r = 0; r < ck.kernel().numRegs(); ++r) {
        if (!std::binary_search(refs.begin(), refs.end(), r)) {
            regions[idx].inputs.push_back(r);
            break;
        }
    }
    std::vector<compiler::Finding> findings = compiler::verifyStructure(
        rebuild(ck, std::move(regions)), true);
    EXPECT_TRUE(hasCode(findings, compiler::codes::classification))
        << codesOf(findings);
}

TEST(VerifierTest, PreloadOfNonInputReported)
{
    // Preloading an interior register leaves the region's input
    // classification intact but breaks preloads == inputs.
    auto [ck, idx] = findKernelWith(
        [](const compiler::CompiledKernel &,
           const compiler::Region &region) {
            return !region.interiors.empty();
        });
    auto regions = ck.regions();
    regions[idx].preloads.push_back(
        compiler::Preload{regions[idx].interiors.front(), false});
    std::vector<compiler::Finding> findings = compiler::verifyStructure(
        rebuild(ck, std::move(regions)), true);
    EXPECT_TRUE(hasCode(findings, compiler::codes::preloadSet))
        << codesOf(findings);
    EXPECT_FALSE(hasCode(findings, compiler::codes::classification))
        << codesOf(findings);
}

TEST(VerifierTest, EraseOfNonInteriorReported)
{
    auto [ck, idx] = findKernelWith(
        [](const compiler::CompiledKernel &,
           const compiler::Region &region) {
            return !region.inputs.empty();
        });
    auto regions = ck.regions();
    regions[idx].erases[regions[idx].startPc].push_back(
        regions[idx].inputs.front());
    std::vector<compiler::Finding> findings = compiler::verifyStructure(
        rebuild(ck, std::move(regions)), true);
    EXPECT_TRUE(hasCode(findings, compiler::codes::erasePlacement))
        << codesOf(findings);
}

TEST(VerifierTest, EvictOfInteriorReported)
{
    auto [ck, idx] = findKernelWith(
        [](const compiler::CompiledKernel &,
           const compiler::Region &region) {
            return !region.interiors.empty();
        });
    auto regions = ck.regions();
    regions[idx].evicts[regions[idx].endPc].push_back(
        regions[idx].interiors.front());
    std::vector<compiler::Finding> findings = compiler::verifyStructure(
        rebuild(ck, std::move(regions)), true);
    EXPECT_TRUE(hasCode(findings, compiler::codes::evictPlacement))
        << codesOf(findings);
}

TEST(VerifierTest, InflatedMaxLiveReported)
{
    // The complement of ShrunkMaxLiveReportsUnderclaim: over-claiming
    // maxLive no longer matches the recomputed occupancy either.
    compiler::CompiledKernel ck =
        compiler::compile(workloads::makeRodinia("nn"));
    auto regions = ck.regions();
    ++regions.front().maxLive;
    std::vector<compiler::Finding> findings = compiler::verifyStructure(
        rebuild(ck, std::move(regions)), true);
    EXPECT_TRUE(hasCode(findings, compiler::codes::capacityMismatch))
        << codesOf(findings);
}

TEST(VerifierTest, UnsplitLoadUseReported)
{
    // Compiling with load/use splitting disabled leaves some region
    // holding a global load together with its first use — exactly what
    // the check_load_use pass exists to flag.
    compiler::CompilerConfig config;
    config.splitLoadUse = false;
    bool flagged = false;
    for (const std::string &name : workloads::rodiniaNames()) {
        compiler::CompiledKernel ck =
            compiler::compile(workloads::makeRodinia(name), config);
        flagged = flagged ||
                  hasCode(compiler::verifyStructure(ck, true),
                          compiler::codes::loadUseSplit);
    }
    EXPECT_TRUE(flagged)
        << "no Rodinia kernel keeps a load with its use when "
           "splitting is off";
}

TEST(VerifierTest, MissingMetadataReported)
{
    compiler::CompiledKernel ck =
        compiler::compile(workloads::makeRodinia("nn"));
    auto regions = ck.regions();
    regions.front().metadataInsns = 0;
    std::vector<compiler::Finding> findings = compiler::verifyStructure(
        rebuild(ck, std::move(regions)), true);
    EXPECT_TRUE(hasCode(findings, compiler::codes::metadataMissing))
        << codesOf(findings);
}

TEST(StagingCheckerTest, EraseOfSoftDefValueReported)
{
    // Erasing a register a later soft definition merges into destroys
    // the lanes the partial write would have kept (Algorithm 2).
    auto [ck, idx] = findKernelWith(
        [](const compiler::CompiledKernel &k,
           const compiler::Region &region) {
            const ir::Liveness &live = k.analyses().live;
            for (const auto &[pc, regs] : region.evicts) {
                for (RegId r : regs) {
                    if (live.liveAfter(pc, r) && live.hasSoftDef(r))
                        return true;
                }
            }
            return false;
        });
    const ir::Liveness &live = ck.analyses().live;
    auto regions = ck.regions();
    bool mutated = false;
    for (auto &[pc, regs] : regions[idx].evicts) {
        for (auto rit = regs.begin(); rit != regs.end(); ++rit) {
            if (live.liveAfter(pc, *rit) && live.hasSoftDef(*rit)) {
                regions[idx].erases[pc].push_back(*rit);
                regs.erase(rit);
                mutated = true;
                break;
            }
        }
        if (mutated)
            break;
    }
    ASSERT_TRUE(mutated);
    std::vector<compiler::Finding> findings =
        compiler::checkStagingStates(rebuild(ck, std::move(regions)));
    EXPECT_TRUE(hasCode(findings, compiler::codes::eraseSoftDef))
        << codesOf(findings);
}

TEST(StagingCheckerTest, InvalidatedValuePreloadedDownstreamReported)
{
    // Invalidating the cached copy of a value a later region preloads
    // is the cache-side twin of ErasedValuePreloadedDownstream.
    auto [ck, idx] = findKernelWith(
        [](const compiler::CompiledKernel &k,
           const compiler::Region &region) {
            const ir::BasicBlock &block =
                k.kernel().block(k.kernel().blockOf(region.endPc));
            if (region.endPc == block.lastPc())
                return false;
            const compiler::RegionId next =
                k.regionAt(region.endPc + 1);
            return !k.region(next).preloads.empty();
        });
    auto regions = ck.regions();
    const compiler::RegionId next = ck.regionAt(regions[idx].endPc + 1);
    const RegId reg = regions[next].preloads.front().reg;
    regions[next].cacheInvalidations.push_back(reg);
    std::vector<compiler::Finding> findings =
        compiler::checkStagingStates(rebuild(ck, std::move(regions)));
    EXPECT_TRUE(hasCode(findings, compiler::codes::preloadInvalidated))
        << codesOf(findings);
}

/** The dynamic shadow checker agrees with the static verdict: clean. */
TEST(ShadowCheckerTest, RuntimeCleanOnRodiniaUnderPressure)
{
    for (const std::string &name : {std::string("nn"),
                                    std::string("backprop"),
                                    std::string("heartwall")}) {
        sim::GpuConfig cfg =
            sim::GpuConfig::forProvider(sim::ProviderKind::Regless);
        cfg.regless.runtimeCheck = true;
        cfg.setOsuCapacity(128); // stress reclaims
        sim::GpuSimulator gpu(workloads::makeRodinia(name), cfg);
        gpu.run();
        std::vector<compiler::Finding> violations =
            gpu.runtimeViolations();
        EXPECT_TRUE(violations.empty())
            << name << ":\n"
            << codesOf(violations);
    }
}

/**
 * First pc in @a ck whose instruction reads at least one register,
 * with one such register; the runtime read checks key off these.
 */
std::pair<Pc, RegId>
firstReadingPc(const compiler::CompiledKernel &ck)
{
    for (Pc pc = 0; pc < ck.kernel().numInsns(); ++pc) {
        std::vector<RegId> used =
            ir::Liveness::usedRegs(ck.kernel().insn(pc));
        if (!used.empty())
            return {pc, used.front()};
    }
    ADD_FAILURE() << "kernel reads no registers";
    return {0, 0};
}

TEST(ShadowCheckerTest, ReadOfErasedValueIsARuntimeViolation)
{
    compiler::CompiledKernel ck =
        compiler::compile(workloads::makeRodinia("nn"));
    staging::ShadowChecker checker(ck);
    staging::OperandStagingUnit osu(64,
                                    staging::VictimOrder::FreeCleanDirty);
    auto [pc, reg] = firstReadingPc(ck);
    checker.onErase(0, reg);
    checker.onIssue(0, pc, ck.kernel().insn(pc), osu, ck.regionAt(pc));
    EXPECT_TRUE(hasCode(checker.violations(),
                        compiler::codes::rtReadAfterErase))
        << codesOf(checker.violations());
}

TEST(ShadowCheckerTest, ReadOfInvalidatedValueIsARuntimeViolation)
{
    compiler::CompiledKernel ck =
        compiler::compile(workloads::makeRodinia("nn"));
    staging::ShadowChecker checker(ck);
    staging::OperandStagingUnit osu(64,
                                    staging::VictimOrder::FreeCleanDirty);
    auto [pc, reg] = firstReadingPc(ck);
    // The backing copy vanished while the line was NOT resident: the
    // value is gone on both paths.
    checker.onBackingInvalidate(0, reg, /*resident=*/false);
    checker.onIssue(0, pc, ck.kernel().insn(pc), osu, ck.regionAt(pc));
    EXPECT_TRUE(hasCode(checker.violations(),
                        compiler::codes::rtReadAfterInvalidate))
        << codesOf(checker.violations());
}

TEST(ShadowCheckerTest, ReadOfUnstagedOperandIsARuntimeViolation)
{
    compiler::CompiledKernel ck =
        compiler::compile(workloads::makeRodinia("nn"));
    staging::ShadowChecker checker(ck);
    // An empty OSU: the operand was never staged, yet the value was
    // never destroyed either — the softest of the three read codes.
    staging::OperandStagingUnit osu(64,
                                    staging::VictimOrder::FreeCleanDirty);
    auto [pc, reg] = firstReadingPc(ck);
    checker.onIssue(0, pc, ck.kernel().insn(pc), osu, ck.regionAt(pc));
    EXPECT_TRUE(hasCode(checker.violations(),
                        compiler::codes::rtReadUnstaged))
        << codesOf(checker.violations());
    EXPECT_FALSE(hasCode(checker.violations(),
                         compiler::codes::rtReadAfterErase))
        << codesOf(checker.violations());
}

} // namespace
} // namespace regless

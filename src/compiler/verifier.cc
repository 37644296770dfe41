#include "compiler/verifier.hh"

#include <algorithm>
#include <set>
#include <sstream>

#include "compiler/region_builder.hh"

namespace regless::compiler
{

namespace
{

/** Small helper collecting findings with stream formatting. */
class Findings
{
  public:
    /** Start a finding; location setters chain before message(). */
    Findings &
    at(const char *code, RegionId region = invalidRegion,
       Pc pc = invalidPc, RegId reg = invalidReg)
    {
        _current = Finding{};
        _current.code = code;
        _current.severity = Severity::Error;
        _current.region = region;
        _current.pc = pc;
        _current.reg = reg;
        return *this;
    }

    template <typename... Args>
    void
    message(Args &&...args)
    {
        std::ostringstream oss;
        (oss << ... << args);
        _current.message = oss.str();
        _findings.push_back(std::move(_current));
    }

    std::vector<Finding> take() { return std::move(_findings); }

  private:
    Finding _current;
    std::vector<Finding> _findings;
};

} // namespace

std::vector<Finding>
verifyStructure(const CompiledKernel &ck, bool check_load_use)
{
    Findings findings;
    const ir::Kernel &kernel = ck.kernel();
    const ir::Liveness &live = ck.analyses().live;

    // 1. Coverage: every PC in exactly one region, regions inside one
    //    basic block, ids consistent.
    std::vector<unsigned> covered(kernel.numInsns(), 0);
    for (const Region &region : ck.regions()) {
        if (region.startPc > region.endPc ||
            region.endPc >= kernel.numInsns()) {
            findings.at(codes::regionBounds, region.id)
                .message("region ", region.id, " has bad bounds [",
                         region.startPc, ", ", region.endPc, "]");
            continue;
        }
        if (kernel.blockOf(region.startPc) !=
            kernel.blockOf(region.endPc)) {
            findings.at(codes::regionSpansBlock, region.id)
                .message("region ", region.id,
                         " spans a basic-block boundary");
        }
        for (Pc pc = region.startPc; pc <= region.endPc; ++pc)
            ++covered[pc];
        if (ck.regionAt(region.startPc) != region.id) {
            findings.at(codes::regionIdMap, region.id)
                .message("region ", region.id, " id/map mismatch");
        }
    }
    for (Pc pc = 0; pc < kernel.numInsns(); ++pc) {
        if (covered[pc] != 1) {
            findings.at(codes::coverage, invalidRegion, pc)
                .message("pc ", pc, " covered by ", covered[pc],
                         " regions");
        }
    }

    for (const Region &region : ck.regions()) {
        // Bad bounds were flagged above; the per-pc checks below (and
        // computeOccupancy's interval sweep in particular) assume
        // startPc <= endPc < numInsns.
        if (region.startPc > region.endPc ||
            region.endPc >= kernel.numInsns()) {
            continue;
        }
        // 2. Register classification is a partition of the region's
        //    referenced registers.
        std::set<RegId> refs;
        for (Pc pc = region.startPc; pc <= region.endPc; ++pc) {
            const ir::Instruction &insn = kernel.insn(pc);
            if (insn.writesReg())
                refs.insert(insn.dst());
            for (RegId src : insn.srcs())
                refs.insert(src);
        }
        std::set<RegId> classified;
        auto classify = [&](const std::vector<RegId> &group,
                            const char *kind) {
            for (RegId r : group) {
                if (!refs.count(r)) {
                    findings
                        .at(codes::classification, region.id, invalidPc,
                            r)
                        .message("region ", region.id, " ", kind, " r",
                                 r, " is not referenced in the region");
                }
                classified.insert(r);
            }
        };
        classify(region.inputs, "input");
        classify(region.outputs, "output");
        classify(region.interiors, "interior");
        for (RegId r : refs) {
            if (!classified.count(r)) {
                findings
                    .at(codes::classification, region.id, invalidPc, r)
                    .message("region ", region.id, " r", r,
                             " referenced but unclassified");
            }
        }
        for (RegId r : region.interiors) {
            if (std::count(region.inputs.begin(), region.inputs.end(),
                           r) ||
                std::count(region.outputs.begin(), region.outputs.end(),
                           r)) {
                findings
                    .at(codes::classification, region.id, invalidPc, r)
                    .message("region ", region.id, " interior r", r,
                             " also classified as boundary");
            }
        }

        // 3. Preloads match inputs exactly.
        std::set<RegId> preloaded;
        for (const Preload &p : region.preloads)
            preloaded.insert(p.reg);
        std::set<RegId> inputs(region.inputs.begin(),
                               region.inputs.end());
        if (preloaded != inputs) {
            findings.at(codes::preloadSet, region.id)
                .message("region ", region.id,
                         " preload set differs from input set");
        }

        // 4. Erase/evict placement: inside the region, exactly one
        //    point per register, and at that register's last touch.
        std::set<RegId> erased;
        for (const auto &[pc, regs] : region.erases) {
            if (!region.contains(pc)) {
                findings.at(codes::erasePlacement, region.id, pc)
                    .message("region ", region.id,
                             " erase annotation at pc ", pc,
                             " outside the region");
            }
            for (RegId r : regs) {
                if (!erased.insert(r).second) {
                    findings.at(codes::erasePlacement, region.id, pc, r)
                        .message("region ", region.id, " r", r,
                                 " erased twice");
                }
                if (std::count(region.interiors.begin(),
                               region.interiors.end(), r) == 0) {
                    findings.at(codes::erasePlacement, region.id, pc, r)
                        .message("region ", region.id,
                                 " erase of non-interior r", r);
                }
            }
        }
        if (erased.size() != region.interiors.size()) {
            findings.at(codes::erasePlacement, region.id)
                .message("region ", region.id, " erased ",
                         erased.size(), " of ",
                         region.interiors.size(), " interiors");
        }
        std::set<RegId> evicted;
        for (const auto &[pc, regs] : region.evicts) {
            if (!region.contains(pc)) {
                findings.at(codes::evictPlacement, region.id, pc)
                    .message("region ", region.id,
                             " evict annotation at pc ", pc,
                             " outside the region");
            }
            for (RegId r : regs) {
                if (!evicted.insert(r).second) {
                    findings.at(codes::evictPlacement, region.id, pc, r)
                        .message("region ", region.id, " r", r,
                                 " evicted twice");
                }
            }
        }
        std::set<RegId> boundary = inputs;
        boundary.insert(region.outputs.begin(), region.outputs.end());
        if (evicted != boundary) {
            findings.at(codes::evictPlacement, region.id)
                .message("region ", region.id,
                         " evict set differs from input+output set");
        }

        // 5. Capacity annotations match a fresh occupancy analysis.
        Occupancy occ = computeOccupancy(kernel, live, region.startPc,
                                         region.endPc);
        if (occ.maxLive != region.maxLive) {
            findings.at(codes::capacityMismatch, region.id)
                .message("region ", region.id, " maxLive ",
                         region.maxLive, " != recomputed ",
                         occ.maxLive);
        }
        if (occ.bankUsage != region.bankUsage) {
            findings.at(codes::capacityMismatch, region.id)
                .message("region ", region.id,
                         " bankUsage differs from recomputed value");
        }
        if (region.reservedLines() < region.maxLive) {
            findings.at(codes::capacityMismatch, region.id)
                .message("region ", region.id,
                         " bank usage sums below maxLive");
        }

        // 6. Load/use split.
        if (check_load_use) {
            for (Pc pc = region.startPc; pc <= region.endPc; ++pc) {
                const ir::Instruction &insn = kernel.insn(pc);
                if (!insn.isGlobalLoad())
                    continue;
                for (Pc use = pc + 1; use <= region.endPc; ++use) {
                    const auto &srcs = kernel.insn(use).srcs();
                    if (std::find(srcs.begin(), srcs.end(),
                                  insn.dst()) != srcs.end()) {
                        findings
                            .at(codes::loadUseSplit, region.id, pc,
                                insn.dst())
                            .message("region ", region.id,
                                     " contains global load at pc ", pc,
                                     " and its use at pc ", use);
                        break;
                    }
                    if (kernel.insn(use).writesReg() &&
                        kernel.insn(use).dst() == insn.dst() &&
                        !live.isSoftDef(use)) {
                        break;
                    }
                }
            }
        }

        // 7. Metadata encoding is present.
        if (region.metadataInsns == 0) {
            findings.at(codes::metadataMissing, region.id)
                .message("region ", region.id, " has no metadata");
        }
    }

    return findings.take();
}

} // namespace regless::compiler

#include "compiler/compiler.hh"

#include <sstream>

#include "common/logging.hh"
#include "compiler/bank_assigner.hh"
#include "compiler/metadata_encoder.hh"
#include "compiler/region_builder.hh"
#include "ir/cfg_analysis.hh"
#include "ir/liveness.hh"

namespace regless::compiler
{

CompiledKernel::CompiledKernel(ir::Kernel kernel,
                               std::vector<Region> regions,
                               LifetimeAnnotator::Stats lifetime_stats,
                               unsigned metadata_insns)
    : CompiledKernel(
          std::make_shared<const KernelAnalyses>(std::move(kernel)),
          std::move(regions), lifetime_stats, metadata_insns)
{
}

CompiledKernel::CompiledKernel(std::shared_ptr<const KernelAnalyses> facts,
                               std::vector<Region> regions,
                               LifetimeAnnotator::Stats lifetime_stats,
                               unsigned metadata_insns)
    : _facts(std::move(facts)),
      _regions(std::move(regions)),
      _lifetimeStats(lifetime_stats),
      _metadataInsns(metadata_insns)
{
    const ir::Kernel &kernel = _facts->kernel;
    _pcToRegion.assign(kernel.numInsns(), invalidRegion);
    for (const Region &region : _regions) {
        for (Pc pc = region.startPc; pc <= region.endPc; ++pc)
            _pcToRegion[pc] = region.id;
    }
    for (Pc pc = 0; pc < kernel.numInsns(); ++pc) {
        if (_pcToRegion[pc] == invalidRegion)
            panic("pc ", pc, " not covered by any region");
    }

    // Kernel-wide encoding table for the compressor, which has no
    // region context at reclaim time: a reclaim can evict a register
    // mid-region, holding any def's value, so the per-region encodings
    // (proven only at their evict points) are not usable here. Joining
    // the post-def facts over every definition site covers every value
    // the register can ever hold, making the table sound for arbitrary
    // eviction times.
    for (const ValueFacts &facts : _facts->vra.joinedDefFacts())
        _staticEncodings.push_back(classifyEncoding(facts));
}

RegionId
CompiledKernel::regionStartingAt(Pc pc) const
{
    RegionId id = _pcToRegion.at(pc);
    return _regions[id].startPc == pc ? id : invalidRegion;
}

double
CompiledKernel::meanPreloadsPerRegion() const
{
    if (_regions.empty())
        return 0.0;
    double total = 0.0;
    for (const Region &region : _regions)
        total += static_cast<double>(region.preloads.size());
    return total / static_cast<double>(_regions.size());
}

double
CompiledKernel::meanMaxLivePerRegion() const
{
    if (_regions.empty())
        return 0.0;
    double total = 0.0;
    for (const Region &region : _regions)
        total += static_cast<double>(region.maxLive);
    return total / static_cast<double>(_regions.size());
}

double
CompiledKernel::meanInsnsPerRegion() const
{
    if (_regions.empty())
        return 0.0;
    double total = 0.0;
    for (const Region &region : _regions)
        total += static_cast<double>(region.numInsns());
    return total / static_cast<double>(_regions.size());
}

std::string
CompiledKernel::describeRegions() const
{
    std::ostringstream oss;
    for (const Region &region : _regions)
        oss << region.toString() << "\n";
    return oss.str();
}

CompiledKernel
compile(const ir::Kernel &input, const CompilerConfig &config)
{
    // Optional bank-aware renumbering, on the incoming numbering's
    // liveness.
    ir::Kernel kernel = [&]() {
        if (!config.reassignBanks)
            return input;
        const ir::CfgAnalysis cfg_in(input);
        const ir::Liveness live_in(input, cfg_in);
        BankAssigner assigner(input, live_in);
        return BankAssigner::apply(input, assigner.computeMapping());
    }();

    auto facts = std::make_shared<const KernelAnalyses>(std::move(kernel));

    RegionBuilder builder(facts->kernel, facts->live, config);
    std::vector<Region> regions = builder.build();

    LifetimeAnnotator annotator(*facts);
    annotator.annotate(regions);

    unsigned metadata = MetadataEncoder::encode(regions);

    return CompiledKernel(std::move(facts), std::move(regions),
                          annotator.stats(), metadata);
}

} // namespace regless::compiler

#include "sim/run_stats.hh"

#include <algorithm>
#include <type_traits>

#include "common/logging.hh"
#include "sim/provider_registry.hh"

namespace regless::sim
{

namespace
{

/** Merge visitor: applies each field's rule to one pair of values. */
struct Merge
{
    /** Sum: scalars add, stall arrays element-wise, tenant lanes
     *  lane by lane under TenantLane's own rules. */
    template <typename T>
    static void
    add(T &into, const T &from)
    {
        if constexpr (std::is_arithmetic_v<T>) {
            into += from;
        } else if constexpr (std::is_same_v<T, TenantLane>) {
            forEachField(Merge{}, into, from);
        } else {
            if (into.size() != from.size())
                panic("merging runs with ", into.size(), " and ",
                      from.size(), " tenant lanes");
            for (std::size_t i = 0; i < into.size(); ++i)
                add(into[i], from[i]);
        }
    }

    template <field::Rule R>
    bool
    operator()(field::Tag<R>, auto &&into, const auto &from) const
    {
        if constexpr (R == field::Rule::Sum)
            add(into, from);
        else if constexpr (R == field::Rule::Max)
            into = std::max(into, from);
        return false; // First keeps @a into's value; Derived is recomputed
    }
};

} // namespace

void
mergeRunStats(RunStats &into, const RunStats &from)
{
    forEachField(Merge{}, into, from);
}

void
computeEnergy(RunStats &stats, const GpuConfig &config)
{
    energy::EnergyBreakdown out;

    const double cycles = static_cast<double>(stats.cycles);
    // Register-structure terms are per-design: the provider's registry
    // descriptor fills regDynamic/regStatic/compressor.
    providerDescriptor(stats.provider)
        .registerEnergy(stats, config, out);

    out.memory = static_cast<double>(stats.l1Accesses) * energy::kL1Access +
                 static_cast<double>(stats.l2Accesses) * energy::kL2Access +
                 static_cast<double>(stats.dramAccesses) * energy::kDramAccess;
    out.rest = static_cast<double>(stats.insns) * energy::kRestPerInsn +
               static_cast<double>(stats.metadataInsns) *
                   energy::kMetadataInsnEnergy +
               energy::kRestStaticPerCycle * cycles;

    stats.energy = out;
}

energy::EnergyBreakdown
noRfBound(const RunStats &baseline)
{
    if (baseline.provider != ProviderKind::Baseline)
        fatal("the No-RF bound is defined relative to a baseline run");
    energy::EnergyBreakdown bound = baseline.energy;
    bound.regDynamic = 0.0;
    bound.regStatic = 0.0;
    bound.compressor = 0.0;
    return bound;
}

} // namespace regless::sim

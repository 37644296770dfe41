/**
 * @file
 * The self-describing provider registry (DESIGN.md §13.1).
 *
 * Every operand-storage design contributes exactly one descriptor:
 * its canonical name, how to construct it, its default scheduler and
 * occupancy behaviour, how to harvest its counters into RunStats, and
 * its energy and area models. Every consumer — simulator assembly,
 * name parsing, config canonicalisation, stat collection, the energy
 * and area models, and the per-provider figure loops — iterates this
 * table instead of switching on ProviderKind, so a half-registered
 * provider is a compile error rather than a silent "?" at runtime.
 */

#ifndef REGLESS_SIM_PROVIDER_REGISTRY_HH
#define REGLESS_SIM_PROVIDER_REGISTRY_HH

#include <array>
#include <memory>

#include "energy/area_model.hh"
#include "sim/gpu_config.hh"
#include "sim/run_stats.hh"

namespace regless::compiler
{
class CompiledKernel;
}

namespace regless::sim
{

/** Everything the framework needs to know about one provider. */
struct ProviderDescriptor
{
    ProviderKind kind;

    /** Canonical name: --provider argument, fingerprint key, cache
     *  file component. */
    const char *name;

    /** Human-readable title for figure headers and reports. */
    const char *title;

    /** Scheduler the published technique assumes
     *  (GpuConfig::forProvider default). */
    arch::SchedulerPolicy scheduler;

    /**
     * True when the design keeps a fixed architectural register file
     * whose capacity bounds warp occupancy (see
     * GpuConfig::limitOccupancyByRf). Virtualising designs
     * oversubscribe and keep full occupancy.
     */
    bool fixedArchitecturalRf;

    /**
     * Construct the provider for an assembled simulator, serving the
     * SM warp slots [warp_base, warp_base + warp_count). Whole-SM
     * launches pass (0, config.sm.numWarps); under multi-tenant
     * operation each tenant's instance gets its warp partition.
     * Designs whose structures are indexed by global warp id simply
     * size for the whole SM and ignore the range.
     */
    std::unique_ptr<regfile::RegisterProvider> (*make)(
        const compiler::CompiledKernel &ck, mem::MemorySystem &mem,
        const GpuConfig &config, WarpId warp_base,
        unsigned warp_count);

    /** Per-provider canonical-config tuning (may be null). */
    void (*tuneConfig)(GpuConfig &config);

    /** Harvest the provider's counters into RunStats. The provider
     *  was built by make(), so the hook may downcast statically. */
    void (*collect)(regfile::RegisterProvider &provider,
                    RunStats &stats);

    /** Fill the register-structure terms (regDynamic, regStatic,
     *  compressor) of the energy breakdown. */
    void (*registerEnergy)(const RunStats &stats,
                           const GpuConfig &config,
                           energy::EnergyBreakdown &out);

    /** Area of the design's operand-storage structures. */
    energy::AreaBreakdown (*area)(const GpuConfig &config);
};

/** The registry, in canonical (enum) order. */
const std::array<ProviderDescriptor, kNumProviderKinds> &
providerRegistry();

/** Descriptor lookup; the table is indexed by enum value. */
const ProviderDescriptor &providerDescriptor(ProviderKind kind);

} // namespace regless::sim

#endif // REGLESS_SIM_PROVIDER_REGISTRY_HH

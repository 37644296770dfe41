/**
 * @file
 * Top-level simulation configuration: which operand-storage design to
 * run and all sub-component parameters (Table 1 defaults).
 */

#ifndef REGLESS_SIM_GPU_CONFIG_HH
#define REGLESS_SIM_GPU_CONFIG_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <array>

#include "arch/sm.hh"
#include "common/fault_injector.hh"
#include "compiler/config.hh"
#include "mem/memory_system.hh"
#include "regfile/compiler_rf_cache.hh"
#include "regfile/tenant_arbiter.hh"
#include "regless/regless_config.hh"

namespace regless::sim
{

/** Operand-storage designs compared in the evaluation. */
enum class ProviderKind
{
    Baseline,            ///< full register file (Figure 1a)
    Rfh,                 ///< register file hierarchy [11] (Figure 1b)
    Rfv,                 ///< register file virtualization [19] (1c)
    Regless,             ///< operand staging (Figure 1e)
    ReglessNoCompressor, ///< Figure 16 ablation
    CompilerRfCache,     ///< compiler-assisted RF cache (2310.17501)
    RegDem,              ///< register demotion / spilling (1907.02894)
};

/**
 * Number of registered providers. Keep in sync with ProviderKind; the
 * registry has a static_assert against its descriptor table.
 */
inline constexpr std::size_t kNumProviderKinds = 7;

/** Every registered provider, in canonical (enum) order. */
const std::array<ProviderKind, kNumProviderKinds> &allProviderKinds();

/** Human-readable provider name (from the provider registry). */
const char *providerName(ProviderKind kind);

/** Inverse of providerName(); fatal() on an unknown name. */
ProviderKind providerFromName(const std::string &name);

/** providerFromName() that reports failure instead of dying. */
bool tryProviderFromName(const std::string &name, ProviderKind &out);

/**
 * Optional Chrome-trace emission (DESIGN.md section 10). Part of the
 * fingerprint, so traced and untraced runs never share cache entries.
 */
struct TraceConfig
{
    /** Emit per-warp stall/issue timeline + CM activation events. */
    bool enabled = false;
    /** Output path; multi-SM runs append ".smN" per instance. */
    std::string path = "regless_trace.json";
};

/** One co-resident kernel of a multi-tenant SM run. */
struct TenantWorkload
{
    /** Rodinia workload name. */
    std::string kernel;
    /**
     * QoS class: 0 = best-effort (throughput), > 0 = latency-
     * sensitive. PriorityReserve admits priority tenants into the
     * reserved OSU lines; the QoS controller preempts best-effort
     * tenants on behalf of priority ones.
     */
    unsigned priority = 0;
};

/**
 * Multi-tenant SM configuration (DESIGN.md §16). With fewer than two
 * workloads (the default) the simulator runs the classic single-
 * kernel path, bit-identical to pre-tenant builds.
 */
struct TenantConfig
{
    /** Co-resident kernels, one per tenant, in tenant-id order. */
    std::vector<TenantWorkload> workloads;

    /** How tenants share the OSU capacity. */
    regfile::CapacityPolicy policy =
        regfile::CapacityPolicy::FreeForAll;

    /** PriorityReserve: fraction held for priority tenants. */
    double reserveFrac = 0.25;

    /**
     * Region-boundary QoS preemption: while any latency-sensitive
     * tenant is unfinished, best-effort tenants run only qosShare of
     * every qosInterval and are suspended (staged state drained and
     * handed off) for the rest.
     */
    bool qosPreemption = false;
    Cycle qosInterval = 20000;
    double qosShare = 0.5;
};

/** Full simulator configuration. */
struct GpuConfig
{
    ProviderKind provider = ProviderKind::Baseline;
    arch::SmConfig sm;
    mem::MemConfig mem;
    compiler::CompilerConfig compiler;
    staging::ReglessConfig regless;

    /** Baseline register-file entries per SM (2048 = 256 KB). */
    unsigned baselineRfEntries = 2048;

    /**
     * Model register-file occupancy limits: providers with a fixed
     * architectural file (baseline, RFH) can only keep
     * rfEntries / kernelRegs warps resident. RegLess and RFV
     * oversubscribe (the paper's §7 observation that RegLess needs no
     * design change to do so). Off by default: Table 1 kernels fit.
     */
    bool limitOccupancyByRf = false;

    /** Compiler-assisted RF-cache parameters (DESIGN.md §13.2). */
    regfile::CompilerRfCache::Params rfCache;

    /**
     * Deterministic fault-injection plan (common/fault_injector.hh).
     * Part of the fingerprint: an injected failure is an ordinary,
     * cacheable simulation point. Kind::None (the default) injects
     * nothing and adds no per-cycle work.
     */
    FaultPlan faults;

    /** Stall/activation timeline emission (off by default). */
    TraceConfig trace;

    /** Multi-tenant SM operation (inactive below two workloads). */
    TenantConfig tenants;

    /**
     * Canonical configuration for @a kind. Scheduler policy and any
     * per-provider tuning come from the provider registry descriptor.
     */
    static GpuConfig forProvider(ProviderKind kind);

    /**
     * Set the RegLess OSU capacity and derive matching compiler
     * constraints (regions must fit in the smaller banks).
     */
    void setOsuCapacity(unsigned entries);
};

/**
 * Canonical dump of every field of @a config and its sub-configs, one
 * "key=value\n" line each, in a fixed order with full-precision
 * numbers (doubles as printf "%.17g"). Two configs produce the same
 * text iff every field compares equal, so the text (and the
 * fingerprint derived from it) is a valid cache key. The
 * implementation destructures each struct with structured bindings,
 * so adding a field anywhere breaks the build until the dump learns
 * about it — new fields cannot silently escape.
 */
std::string configCanonicalText(const GpuConfig &config);

/**
 * Canonical text of the compiler sub-config alone. Compiled regions —
 * and hence lint verdicts — depend on nothing else, so this is the
 * memo key for lint-once-per-kernel gating.
 */
std::string compilerConfigText(const compiler::CompilerConfig &config);

/** FNV-1a 64-bit hash of @a text: the digest behind
 *  configFingerprint() and ExperimentEngine::jobFingerprint(). */
std::uint64_t fnv1a(std::string_view text);

/** FNV-1a 64-bit hash of configCanonicalText(). */
std::uint64_t configFingerprint(const GpuConfig &config);

} // namespace regless::sim

#endif // REGLESS_SIM_GPU_CONFIG_HH

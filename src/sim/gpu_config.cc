#include "sim/gpu_config.hh"

#include <algorithm>
#include <charconv>
#include <limits>
#include <string_view>
#include <type_traits>

#include "common/logging.hh"

namespace regless::sim
{

/*
 * providerName / tryProviderFromName / providerFromName / forProvider
 * live in sim/provider_registry.cc: they are single-table lookups over
 * the provider registry, so a provider missing from the registry
 * cannot have a name or a canonical config.
 */

void
GpuConfig::setOsuCapacity(unsigned entries)
{
    regless.osuEntriesPerSm = entries;
    const unsigned shards = staging::kNumShards;
    if (entries % (shards * 8) != 0)
        fatal("OSU capacity ", entries, " must divide into ", shards,
              " shards of 8 banks");
    const unsigned lines_per_bank = entries / shards / 8;
    // Regions must leave headroom so several warps stay concurrent.
    compiler.maxRegsPerBank =
        std::max(1u, std::min(12u, lines_per_bank * 3 / 4));
    compiler.maxRegsPerRegion =
        std::max(4u, std::min(32u, entries / shards / 2));
}

namespace
{

/**
 * Writes "prefix.field=value" lines straight into one string. Numbers
 * are written at full precision so any representable change to a
 * field changes the text: bools as 0/1, integers and enums with
 * std::to_chars, and doubles as printf "%.17g" (max_digits10 digits
 * in the general format, which is what an ostream at that precision
 * writes).
 */
class KeyValueSink
{
  public:
    explicit KeyValueSink(std::string &out) : _out(out) {}

    template <typename T>
    void
    add(std::string_view prefix, std::string_view key, const T &value)
    {
        _out += prefix;
        _out += key;
        _out += '=';
        if constexpr (std::is_same_v<T, bool>)
            _out += value ? '1' : '0';
        else if constexpr (std::is_enum_v<T>)
            number(static_cast<long long>(value));
        else if constexpr (std::is_arithmetic_v<T>)
            number(value);
        else
            _out += value;
        _out += '\n';
    }

  private:
    template <typename T>
    void
    number(T value)
    {
        // Wide enough for any 64-bit integer and for "%.17g" of any
        // double ("-2.2250738585072014e-308" is 24 characters).
        char buf[32];
        std::to_chars_result r;
        if constexpr (std::is_floating_point_v<T>) {
            r = std::to_chars(buf, buf + sizeof buf, value,
                              std::chars_format::general,
                              std::numeric_limits<T>::max_digits10);
        } else {
            r = std::to_chars(buf, buf + sizeof buf, value);
        }
        _out.append(buf, r.ptr);
    }

    std::string &_out;
};

/*
 * Field-count tripwires: each dump function destructures its struct
 * with a structured binding naming every field. Adding (or removing)
 * a field in any of these structs makes the binding ill-formed, so
 * the build breaks until the dump — and therefore the fingerprint —
 * covers the new field.
 */

void
dump(KeyValueSink &kv, const std::string &p, const arch::SmConfig &c)
{
    const auto &[num_warps, num_schedulers, scheduler, max_cycles,
                 watchdog_window, max_resident_warps, cycle_skip] = c;
    kv.add(p, "num_warps", num_warps);
    kv.add(p, "num_schedulers", num_schedulers);
    kv.add(p, "scheduler", scheduler);
    kv.add(p, "max_cycles", max_cycles);
    kv.add(p, "watchdog_window", watchdog_window);
    kv.add(p, "max_resident_warps", max_resident_warps);
    kv.add(p, "cycle_skip", cycle_skip);
}

void
dump(KeyValueSink &kv, const std::string &p, const mem::CacheConfig &c)
{
    const auto &[size_bytes, ways, mshrs, write_back, write_allocate] =
        c;
    kv.add(p, "size_bytes", size_bytes);
    kv.add(p, "ways", ways);
    kv.add(p, "mshrs", mshrs);
    kv.add(p, "write_back", write_back);
    kv.add(p, "write_allocate", write_allocate);
}

void
dump(KeyValueSink &kv, const std::string &p, const mem::DramConfig &c)
{
    const auto &[channels, cycles_per_line, access_latency,
                 bandwidth_share] = c;
    kv.add(p, "channels", channels);
    kv.add(p, "cycles_per_line", cycles_per_line);
    kv.add(p, "access_latency", access_latency);
    kv.add(p, "bandwidth_share", bandwidth_share);
}

void
dump(KeyValueSink &kv, const std::string &p, const mem::MemConfig &c)
{
    const auto &[l1, l2, dram, bypass_l1_data] = c;
    dump(kv, p + "l1.", l1);
    dump(kv, p + "l2.", l2);
    dump(kv, p + "dram.", dram);
    kv.add(p, "bypass_l1_data", bypass_l1_data);
}

void
dump(KeyValueSink &kv, const std::string &p,
     const compiler::CompilerConfig &c)
{
    const auto &[max_regs_per_region, max_regs_per_bank,
                 min_region_insns, split_load_use, reassign_banks] = c;
    kv.add(p, "max_regs_per_region", max_regs_per_region);
    kv.add(p, "max_regs_per_bank", max_regs_per_bank);
    kv.add(p, "min_region_insns", min_region_insns);
    kv.add(p, "split_load_use", split_load_use);
    kv.add(p, "reassign_banks", reassign_banks);
}

void
dump(KeyValueSink &kv, const std::string &p,
     const staging::CompressorConfig &c)
{
    const auto &[cache_lines, check_latency, pattern_mask] = c;
    kv.add(p, "cache_lines", cache_lines);
    kv.add(p, "check_latency", check_latency);
    kv.add(p, "pattern_mask", pattern_mask);
}

void
dump(KeyValueSink &kv, const std::string &p,
     const staging::ReglessConfig &c)
{
    const auto &[osu_entries, compressor_enabled, compressor,
                 compression_mode, bank_gating, fifo_activation,
                 victim_order, runtime_check] = c;
    kv.add(p, "osu_entries_per_sm", osu_entries);
    kv.add(p, "compressor_enabled", compressor_enabled);
    dump(kv, p + "compressor.", compressor);
    kv.add(p, "compression_mode", compression_mode);
    kv.add(p, "bank_gating", bank_gating);
    kv.add(p, "fifo_activation", fifo_activation);
    kv.add(p, "victim_order", victim_order);
    kv.add(p, "runtime_check", runtime_check);
}

void
dump(KeyValueSink &kv, const std::string &p, const FaultPlan &c)
{
    const auto &[kind, trigger_cycle, transient] = c;
    kv.add(p, "kind", faultKindName(kind));
    kv.add(p, "trigger_cycle", trigger_cycle);
    kv.add(p, "transient", transient);
}

void
dump(KeyValueSink &kv, const std::string &p, const TraceConfig &c)
{
    const auto &[enabled, path] = c;
    kv.add(p, "enabled", enabled);
    kv.add(p, "path", path);
}

void
dump(KeyValueSink &kv, const std::string &p, const TenantConfig &c)
{
    const auto &[workloads, policy, reserve_frac, qos_preemption,
                 qos_interval, qos_share] = c;
    kv.add(p, "count", workloads.size());
    for (std::size_t t = 0; t < workloads.size(); ++t) {
        const auto &[kernel, priority] = workloads[t];
        const std::string tp = p + std::to_string(t) + ".";
        kv.add(tp, "kernel", kernel);
        kv.add(tp, "priority", priority);
    }
    kv.add(p, "policy", regfile::capacityPolicyName(policy));
    kv.add(p, "reserve_frac", reserve_frac);
    kv.add(p, "qos_preemption", qos_preemption);
    kv.add(p, "qos_interval", qos_interval);
    kv.add(p, "qos_share", qos_share);
}

void
dump(KeyValueSink &kv, const std::string &p,
     const regfile::CompilerRfCache::Params &c)
{
    const auto &[cache_entries_per_warp, max_def_use_distance] = c;
    kv.add(p, "cache_entries_per_warp", cache_entries_per_warp);
    kv.add(p, "max_def_use_distance", max_def_use_distance);
}

} // namespace

std::string
configCanonicalText(const GpuConfig &config)
{
    const auto &[provider, sm, mem, compiler_cfg, regless,
                 baseline_rf_entries, limit_occupancy_by_rf, rf_cache,
                 faults, trace, tenants] = config;

    // A default config's text is about 1.3 KB.
    std::string text;
    text.reserve(2048);
    KeyValueSink kv(text);
    kv.add("", "provider", providerName(provider));
    dump(kv, "sm.", sm);
    dump(kv, "mem.", mem);
    dump(kv, "compiler.", compiler_cfg);
    dump(kv, "regless.", regless);
    kv.add("", "baseline_rf_entries", baseline_rf_entries);
    kv.add("", "limit_occupancy_by_rf", limit_occupancy_by_rf);
    dump(kv, "rf_cache.", rf_cache);
    dump(kv, "faults.", faults);
    dump(kv, "trace.", trace);
    dump(kv, "tenants.", tenants);
    return text;
}

std::string
compilerConfigText(const compiler::CompilerConfig &config)
{
    std::string text;
    KeyValueSink kv(text);
    dump(kv, "compiler.", config);
    return text;
}

std::uint64_t
fnv1a(std::string_view text)
{
    std::uint64_t hash = 1469598103934665603ULL;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 1099511628211ULL;
    }
    return hash;
}

std::uint64_t
configFingerprint(const GpuConfig &config)
{
    return fnv1a(configCanonicalText(config));
}

} // namespace regless::sim

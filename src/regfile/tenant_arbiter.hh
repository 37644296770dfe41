/**
 * @file
 * TenantArbiter: shared staging-capacity arbitration between the
 * kernels co-resident on one multi-tenant SM (DESIGN.md §16).
 *
 * Each tenant's operand-storage provider owns its own tag structures,
 * but the physical line budget (ReglessConfig::osuEntriesPerSm) is one
 * SM-wide pool. The arbiter is the admission gate over that pool: a
 * capacity manager asks mayReserve() before committing a region
 * activation, and the answer depends on the configured policy:
 *
 *  - FreeForAll: first come, first served — the only constraint is the
 *    SM-wide total. A throughput hog can squeeze everyone else out.
 *  - StaticQuota: each tenant owns a fixed slice of the pool
 *    (total / tenants). Isolation is perfect; utilization can be
 *    poor.
 *  - PriorityReserve: a fraction of the pool is reserved for tenants
 *    with priority > 0 (latency-sensitive); best-effort tenants
 *    allocate only from the remainder, priority tenants from the whole
 *    pool.
 *
 * The arbiter is a pure policy oracle over live usage callbacks — it
 * holds no per-line state, so it can never disagree with the
 * structures it arbitrates.
 */

#ifndef REGLESS_REGFILE_TENANT_ARBITER_HH
#define REGLESS_REGFILE_TENANT_ARBITER_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"

namespace regless::regfile
{

/** Shared-capacity partitioning policy between co-resident tenants. */
enum class CapacityPolicy : std::uint8_t
{
    FreeForAll = 0, ///< one pool, no per-tenant constraint
    StaticQuota,    ///< fixed per-tenant line quota
    PriorityReserve, ///< a slice is reserved for priority tenants
};

/** Name for a CapacityPolicy ("free_for_all", ...). */
const char *capacityPolicyName(CapacityPolicy policy);

/** Admission gate over the SM-wide staging-line pool. */
class TenantArbiter
{
  public:
    /**
     * @param policy Partitioning policy.
     * @param total_lines SM-wide physical line budget.
     */
    TenantArbiter(CapacityPolicy policy, unsigned total_lines);

    /** PriorityReserve: pool fraction held for priority tenants. */
    void setReserveFraction(double frac) { _reserveFrac = frac; }

    /**
     * Register a tenant. @a lines_in_use reports the tenant's live
     * line footprint (occupied + reserved-future) on demand; it must
     * stay valid for the arbiter's lifetime.
     */
    void registerTenant(unsigned tenant, unsigned priority,
                        std::function<std::uint64_t()> lines_in_use);

    /**
     * May @a tenant take @a lines more lines right now? Policy-pure:
     * asking never changes state, so a refused activation simply
     * retries on a later cycle.
     */
    bool mayReserve(unsigned tenant, unsigned lines) const;

    CapacityPolicy policy() const { return _policy; }

    /** Live footprint of one tenant (for figures and reports). */
    std::uint64_t linesInUse(unsigned tenant) const;

    /** Live footprint summed over every tenant. */
    std::uint64_t totalInUse() const;

  private:
    struct Tenant
    {
        unsigned priority = 0;
        std::function<std::uint64_t()> linesInUse;
    };

    const Tenant &tenant(unsigned id) const;

    CapacityPolicy _policy;
    unsigned _totalLines;
    double _reserveFrac = 0.25;
    std::vector<Tenant> _tenants;
};

} // namespace regless::regfile

#endif // REGLESS_REGFILE_TENANT_ARBITER_HH

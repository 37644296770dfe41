#include "regfile/tenant_arbiter.hh"

#include <algorithm>

#include "common/logging.hh"

namespace regless::regfile
{

const char *
capacityPolicyName(CapacityPolicy policy)
{
    switch (policy) {
      case CapacityPolicy::FreeForAll:
        return "free_for_all";
      case CapacityPolicy::StaticQuota:
        return "static_quota";
      case CapacityPolicy::PriorityReserve:
        return "priority_reserve";
    }
    return "?";
}

TenantArbiter::TenantArbiter(CapacityPolicy policy, unsigned total_lines)
    : _policy(policy), _totalLines(total_lines)
{
    if (total_lines == 0)
        panic("tenant arbiter: zero-line pool");
}

void
TenantArbiter::registerTenant(unsigned tenant, unsigned priority,
                              std::function<std::uint64_t()> lines_in_use)
{
    if (!lines_in_use)
        panic("tenant arbiter: tenant ", tenant,
              " registered without a usage callback");
    if (tenant >= _tenants.size())
        _tenants.resize(tenant + 1);
    _tenants[tenant] = Tenant{priority, std::move(lines_in_use)};
}

const TenantArbiter::Tenant &
TenantArbiter::tenant(unsigned id) const
{
    if (id >= _tenants.size() || !_tenants[id].linesInUse)
        panic("tenant arbiter: unregistered tenant ", id);
    return _tenants[id];
}

std::uint64_t
TenantArbiter::linesInUse(unsigned id) const
{
    return tenant(id).linesInUse();
}

std::uint64_t
TenantArbiter::totalInUse() const
{
    std::uint64_t total = 0;
    for (const Tenant &t : _tenants) {
        if (t.linesInUse)
            total += t.linesInUse();
    }
    return total;
}

bool
TenantArbiter::mayReserve(unsigned id, unsigned lines) const
{
    const Tenant &t = tenant(id);
    const std::uint64_t mine = t.linesInUse();
    const std::uint64_t everyone = totalInUse();
    // The SM-wide pool is a hard physical budget under every policy.
    if (everyone + lines > _totalLines)
        return false;
    switch (_policy) {
      case CapacityPolicy::FreeForAll:
        return true;
      case CapacityPolicy::StaticQuota: {
        const unsigned quota =
            _totalLines / std::max<std::size_t>(1, _tenants.size());
        return mine + lines <= quota;
      }
      case CapacityPolicy::PriorityReserve: {
        if (t.priority > 0)
            return true;
        const auto reserved = static_cast<std::uint64_t>(
            _reserveFrac * static_cast<double>(_totalLines));
        // Best-effort tenants share only the unreserved remainder;
        // priority tenants (handled above) draw from the whole pool.
        std::uint64_t best_effort_use = 0;
        for (const Tenant &other : _tenants) {
            if (other.linesInUse && other.priority == 0)
                best_effort_use += other.linesInUse();
        }
        return best_effort_use + lines + reserved <= _totalLines;
      }
    }
    return true;
}

} // namespace regless::regfile

#include "mem/dram.hh"

#include <algorithm>

#include "common/logging.hh"
#include "mem/cache.hh"

namespace regless::mem
{

DramModel::DramModel(const DramConfig &config)
    : _cfg(config),
      _channelNextFree(config.channels, 0.0)
{
    if (_cfg.channels == 0)
        fatal("DRAM needs at least one channel");
    if (_cfg.bandwidthShare <= 0.0 || _cfg.bandwidthShare > 1.0)
        fatal("DRAM bandwidth share must be in (0, 1]");
    _effectiveCyclesPerLine = _cfg.cyclesPerLine / _cfg.bandwidthShare;
}

unsigned
DramModel::channelOf(Addr addr) const
{
    return static_cast<unsigned>((addr / lineBytes) % _cfg.channels);
}

Cycle
DramModel::access(Addr addr, Cycle now)
{
    if (epochMode())
        panic("direct DRAM access on an epoch-mode model; "
              "route through portAccess()");
    ++_stats.accesses;
    unsigned channel = channelOf(addr);
    double start = std::max(static_cast<double>(now),
                            _channelNextFree[channel]);
    _channelNextFree[channel] = start + _effectiveCyclesPerLine;
    return static_cast<Cycle>(start) + _cfg.accessLatency;
}

void
DramModel::enableEpochMode(unsigned num_ports)
{
    if (num_ports == 0)
        fatal("epoch-mode DRAM needs at least one port");
    if (_stats.accesses != 0)
        fatal("enableEpochMode() after traffic was issued");
    _ports.assign(num_ports, Port{_channelNextFree, {}});
}

Cycle
DramModel::portAccess(unsigned port, Addr addr, Cycle now)
{
    // Only this port's state is touched: safe concurrently with other
    // ports, and the result is independent of cross-port timing.
    Port &p = _ports.at(port);
    unsigned channel = channelOf(addr);
    double start =
        std::max(static_cast<double>(now), p.nextFree[channel]);
    p.nextFree[channel] = start + _effectiveCyclesPerLine;
    p.pending.emplace_back(addr, now);
    return static_cast<Cycle>(start) + _cfg.accessLatency;
}

void
DramModel::drainEpoch()
{
    for (Port &p : _ports) {
        for (const auto &[addr, now] : p.pending) {
            ++_stats.accesses;
            unsigned channel = channelOf(addr);
            double start = std::max(static_cast<double>(now),
                                    _channelNextFree[channel]);
            _channelNextFree[channel] = start + _effectiveCyclesPerLine;
        }
        p.pending.clear();
    }
    for (Port &p : _ports)
        p.nextFree = _channelNextFree;
}

} // namespace regless::mem

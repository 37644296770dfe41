/**
 * @file
 * DRAM channel bandwidth/latency model.
 *
 * Four memory partitions (Table 1), each accepting one 128-byte line
 * transfer every @a cyclesPerLine cycles, with a fixed access latency.
 * The per-channel next-free counters capture bandwidth saturation; the
 * shared-GPU scaling factor models the traffic of the SMs we do not
 * simulate in detail.
 *
 * Two operating modes:
 *
 * - Direct (single SM): access() consults and updates the channel
 *   state immediately.
 * - Epoch-port (multi-SM): each SM owns a port. Within an epoch a
 *   port's accesses are timed against its private view of the channel
 *   state (the shared state snapshotted at the last epoch boundary,
 *   advanced by the port's own traffic) and queued. drainEpoch() then
 *   replays all queued requests against the shared state in port-id
 *   order, so cross-SM arbitration is deterministic — independent of
 *   the order (or thread) in which SMs actually executed — at the cost
 *   of same-epoch cross-SM queueing being deferred one epoch. Port
 *   accesses touch only per-port state, so distinct ports may be
 *   driven from distinct threads without synchronization.
 */

#ifndef REGLESS_MEM_DRAM_HH
#define REGLESS_MEM_DRAM_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace regless::mem
{

/** DRAM configuration. */
struct DramConfig
{
    unsigned channels = 4;
    /** Core cycles per 128B line per channel (224 GB/s at 1 GHz / 4). */
    double cyclesPerLine = 2.3;
    Cycle accessLatency = 220;
    /**
     * Fraction of channel bandwidth available to the simulated SM;
     * the remainder stands in for the other SMs' traffic.
     */
    double bandwidthShare = 1.0 / 16.0;
};

/** Channel-interleaved DRAM timing. */
class DramModel
{
  public:
    /** Event counts of the DRAM channels. */
    struct Stats
    {
        /** Line transfers (epoch-port ones once drained). */
        std::uint64_t accesses = 0;
    };

    explicit DramModel(const DramConfig &config);

    /**
     * Issue one line transfer for @a addr at @a now (direct mode).
     * @return the cycle the data is available.
     */
    Cycle access(Addr addr, Cycle now);

    /** @name Epoch-port mode (deterministic multi-SM sharing). */
    /// @{

    /**
     * Switch to epoch-port mode with @a num_ports ports. Must be
     * called before any traffic; direct access() becomes invalid.
     */
    void enableEpochMode(unsigned num_ports);

    bool epochMode() const { return !_ports.empty(); }

    /**
     * Issue one line transfer through @a port at @a now. Thread-safe
     * across distinct ports. Timing reflects the shared channel state
     * as of the last drainEpoch() plus this port's own traffic since.
     * @return the cycle the data is available.
     */
    Cycle portAccess(unsigned port, Addr addr, Cycle now);

    /**
     * Epoch barrier: replay every queued request against the shared
     * channel state in (port id, issue order), count the accesses,
     * and resnapshot each port. Single-threaded.
     */
    void drainEpoch();

    /// @}

    const Stats &stats() const { return _stats; }

  private:
    unsigned channelOf(Addr addr) const;

    /** One SM's private view plus its queued epoch traffic. */
    struct Port
    {
        /** Snapshot of channel next-free, advanced by own accesses. */
        std::vector<double> nextFree;
        /** (addr, issue cycle) queued since the last drain. */
        std::vector<std::pair<Addr, Cycle>> pending;
    };

    DramConfig _cfg;
    double _effectiveCyclesPerLine;
    std::vector<double> _channelNextFree;
    std::vector<Port> _ports;
    Stats _stats;
};

} // namespace regless::mem

#endif // REGLESS_MEM_DRAM_HH

/**
 * @file
 * Baseline register file: the full-size, always-available RF of
 * Figure 1(a). Registers are always resident, so the model's only job
 * is counting accesses (and the working set, for Figure 2).
 */

#ifndef REGLESS_REGFILE_BASELINE_RF_HH
#define REGLESS_REGFILE_BASELINE_RF_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "regfile/register_provider.hh"

namespace regless::regfile
{

/** Full-size baseline register file. */
class BaselineRf : public RegisterProvider
{
  public:
    /** Access counts of the register file. */
    struct Stats
    {
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        /** Instructions whose sources share a bank. */
        std::uint64_t bankConflicts = 0;
    };

    /**
     * @param window Cycles per working-set measurement window
     *        (Figure 2 uses 100).
     * @param num_banks Register-file banks (operand fetch conflicts
     *        when one instruction's sources share a bank).
     * @param collector_penalty Extra issue cycles per bank conflict.
     *        Real GPUs hide most of this behind operand collectors,
     *        so the default charges nothing and only counts.
     */
    explicit BaselineRf(Cycle window = 100, unsigned num_banks = 32,
                        Cycle collector_penalty = 0);

    bool canIssue(const arch::Warp &warp, Cycle now) override;

    void onIssue(const arch::Warp &warp, Pc pc,
                 const ir::Instruction &insn, Cycle now,
                 Cycle writeback) override;

    Cycle operandDelay(const arch::Warp &warp,
                       const ir::Instruction &insn, Cycle now) override;

    /** Mean per-window register working set in bytes (Figure 2). */
    double meanWorkingSetBytes();

    /** Per-window backing-store (RF) accesses (Figure 3 series). */
    const WindowedSeries &accessSeries() const { return _accessSeries; }

    /** Finalise open windows before reading series data. */
    void flushSeries();

    const Stats &stats() const { return _stats; }

  private:
    /** Count (@a warp, @a reg) in the open window's working set. */
    void touch(WarpId warp, RegId reg);

    /** Sample the open window's working set and start the next. */
    void closeWindow();

    Cycle _window;
    unsigned _numBanks;
    Cycle _collectorPenalty;
    /** Sources per bank of the instruction operandDelay is reading;
     *  all 0 between calls. */
    std::vector<unsigned> _bankUses;
    Cycle _windowStart = 0;
    /** Distinct (warp, reg) pairs touched in the open window. */
    unsigned _windowRegs = 0;
    /** Number of the open window; windows start at 1. */
    std::uint64_t _windowId = 1;
    /** Last window that touched each (warp, reg), by [warp][reg];
     *  0 for never. Rows grow on first touch. */
    std::vector<std::vector<std::uint64_t>> _touchedIn;
    Distribution _workingSet;
    WindowedSeries _accessSeries;
    Stats _stats;
};

} // namespace regless::regfile

#endif // REGLESS_REGFILE_BASELINE_RF_HH

/**
 * @file
 * RFH: compile-time managed register file hierarchy, Gebhart et
 * al. [11] (Figure 1b).
 *
 * Values are statically assigned to one of three levels: a per-lane
 * last-result file (LRF), a small operand register file (ORF, a few
 * entries per warp), or the full main register file (MRF). Short-lived
 * values never touch the MRF, saving most of its dynamic energy; the
 * MRF itself remains full size. The technique requires the two-level
 * warp scheduler (wired by the simulator), which is where its
 * performance cost relative to GTO comes from.
 */

#ifndef REGLESS_REGFILE_RF_HIERARCHY_HH
#define REGLESS_REGFILE_RF_HIERARCHY_HH

#include <vector>

#include "common/stats.hh"
#include "compiler/compiler.hh"
#include "regfile/register_provider.hh"

namespace regless::regfile
{

/** Storage level a register is assigned to. */
enum class RfLevel : std::uint8_t
{
    Lrf, ///< last result file: single-use, next-instruction values
    Orf, ///< operand register file: short-lived values
    Mrf, ///< main register file: everything else
};

/** Compile-time managed three-level register file. */
class RfHierarchy : public RegisterProvider
{
  public:
    /** ORF entries per warp (capacity of the middle level). */
    static constexpr unsigned kOrfEntriesPerWarp = 6;

    /** Accesses to each level. */
    struct Stats
    {
        std::uint64_t lrfReads = 0;
        std::uint64_t lrfWrites = 0;
        std::uint64_t orfReads = 0;
        std::uint64_t orfWrites = 0;
        std::uint64_t mrfReads = 0;
        std::uint64_t mrfWrites = 0;
    };

    explicit RfHierarchy(const compiler::CompiledKernel &ck);

    bool canIssue(const arch::Warp &warp, Cycle now) override;

    void onIssue(const arch::Warp &warp, Pc pc,
                 const ir::Instruction &insn, Cycle now,
                 Cycle writeback) override;

    /** Static level of a register (exposed for tests). */
    RfLevel levelOf(RegId reg) const { return _level.at(reg); }

    /** Per-window MRF accesses (the Figure 3 "RF hierarchy" series). */
    WindowedSeries &mrfSeries() { return _mrfSeries; }

    const Stats &stats() const { return _stats; }

  private:
    /** Run the static assignment pass. */
    void assignLevels();

    const compiler::CompiledKernel &_ck;
    const ir::Liveness &_live;
    std::vector<RfLevel> _level;
    WindowedSeries _mrfSeries;
    Stats _stats;
};

} // namespace regless::regfile

#endif // REGLESS_REGFILE_RF_HIERARCHY_HH

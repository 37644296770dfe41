/**
 * @file
 * RFV: register file virtualization, Jeon et al. [19] (Figure 1c).
 *
 * A physical register file of half the baseline size, with a rename
 * table. Physical registers are allocated at the defining write and
 * released at the (divergence-corrected) last read, letting dead
 * values' storage be reused. When demand exceeds the physical file,
 * least-recently-used values spill to memory and reads of spilled
 * values pay a refill penalty — the register-pressure pathology the
 * paper reports for dwt2d and hotspot.
 */

#ifndef REGLESS_REGFILE_RF_VIRTUALIZATION_HH
#define REGLESS_REGFILE_RF_VIRTUALIZATION_HH

#include <unordered_map>
#include <unordered_set>

#include "compiler/compiler.hh"
#include "regfile/register_provider.hh"

namespace regless::regfile
{

/** Half-size renamed register file with LRU overflow spilling. */
class RfVirtualization : public RegisterProvider
{
  public:
    /** Access and spill counts. */
    struct Stats
    {
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        /** One rename-table lookup per issued instruction. */
        std::uint64_t renameLookups = 0;
        std::uint64_t spillStores = 0;
        /** Physical registers freed at a last read. */
        std::uint64_t releases = 0;
    };

    /**
     * @param ck Compiled kernel (instruction stream + analyses input).
     * @param physical_entries Physical registers (baseline / 2).
     * @param spill_penalty Extra issue latency per spilled source.
     */
    RfVirtualization(const compiler::CompiledKernel &ck,
                     unsigned physical_entries,
                     Cycle spill_penalty = 30);

    bool canIssue(const arch::Warp &warp, Cycle now) override;

    void onIssue(const arch::Warp &warp, Pc pc,
                 const ir::Instruction &insn, Cycle now,
                 Cycle writeback) override;

    void onWarpFinished(const arch::Warp &warp, Cycle now) override;

    Cycle operandDelay(const arch::Warp &warp,
                       const ir::Instruction &insn, Cycle now) override;

    /** Physical registers currently allocated. */
    unsigned allocated() const
    {
        return static_cast<unsigned>(_mapped.size());
    }

    const Stats &stats() const { return _stats; }

  private:
    static std::uint32_t
    key(WarpId warp, RegId reg)
    {
        return (static_cast<std::uint32_t>(warp) << 16) | reg;
    }

    /** Map (warp, reg), spilling the LRU value when full. */
    void mapRegister(std::uint32_t k);

    const ir::Liveness &_live;
    unsigned _physEntries;
    Cycle _spillPenalty;
    std::unordered_map<std::uint32_t, std::uint64_t> _mapped;
    std::unordered_set<std::uint32_t> _spilled;
    std::uint64_t _lruCounter = 0;
    Stats _stats;
};

} // namespace regless::regfile

#endif // REGLESS_REGFILE_RF_VIRTUALIZATION_HH

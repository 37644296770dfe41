/**
 * @file
 * A small builder DSL for emitting IR kernels.
 *
 * Workload generators use this instead of hand-counting PCs: labels are
 * patched at build() time, fresh registers are allocated on demand, and
 * common idioms (counted loops, divergent branches) have helpers.
 * Register ids produced here are "as allocated by ptxas"; the RegLess
 * compiler may renumber them later.
 */

#ifndef REGLESS_WORKLOADS_KERNEL_BUILDER_HH
#define REGLESS_WORKLOADS_KERNEL_BUILDER_HH

#include <string>
#include <vector>

#include "ir/kernel.hh"

namespace regless::workloads
{

/** Forward-referencable branch target. */
class Label
{
  public:
    Label() = default;

  private:
    friend class KernelBuilder;
    explicit Label(std::size_t index) : _index(index), _valid(true) {}
    std::size_t _index = 0;
    bool _valid = false;
};

/** Incremental kernel assembler. */
class KernelBuilder
{
  public:
    explicit KernelBuilder(std::string name);

    /** Allocate a fresh register id. */
    RegId reg();

    /** @name Value producers — return the destination register. */
    /// @{
    RegId tid();
    RegId ctaid();
    RegId movi(std::int64_t imm);
    RegId mov(RegId src);
    RegId iadd(RegId a, RegId b);
    RegId isub(RegId a, RegId b);
    RegId imul(RegId a, RegId b);
    RegId imad(RegId a, RegId b, RegId c);
    RegId iaddi(RegId a, std::int64_t imm);
    RegId imuli(RegId a, std::int64_t imm);
    RegId fadd(RegId a, RegId b);
    RegId fmul(RegId a, RegId b);
    RegId ffma(RegId a, RegId b, RegId c);
    RegId shl(RegId a, RegId b);
    RegId shr(RegId a, RegId b);
    RegId band(RegId a, RegId b);
    RegId bor(RegId a, RegId b);
    RegId bxor(RegId a, RegId b);
    RegId imin(RegId a, RegId b);
    RegId imax(RegId a, RegId b);
    RegId setLt(RegId a, RegId b);
    RegId setGe(RegId a, RegId b);
    RegId setEq(RegId a, RegId b);
    RegId setNe(RegId a, RegId b);
    RegId selp(RegId a, RegId b, RegId pred);
    RegId rcp(RegId a);
    RegId fsqrt(RegId a);
    RegId ld(RegId addr, std::int64_t offset = 0);
    RegId lds(RegId addr, std::int64_t offset = 0);
    /// @}

    /** @name Explicit-destination variants for loop-carried values. */
    /// @{
    void movTo(RegId dst, RegId src);
    void moviTo(RegId dst, std::int64_t imm);
    void iaddTo(RegId dst, RegId a, RegId b);
    void iaddiTo(RegId dst, RegId a, std::int64_t imm);
    void ldTo(RegId dst, RegId addr, std::int64_t offset = 0);
    /// @}

    void st(RegId data, RegId addr, std::int64_t offset = 0);
    void sts(RegId data, RegId addr, std::int64_t offset = 0);

    /** @name Control flow. */
    /// @{
    Label newLabel();
    void bind(Label &label);
    void braIf(RegId pred, const Label &label);
    void jmp(const Label &label);
    void bar();
    void exit();
    /// @}

    /** Number of instructions emitted so far. */
    Pc here() const { return static_cast<Pc>(_insns.size()); }

    /** Launch-geometry and value-structure pass-throughs. */
    void setWarpsPerBlock(unsigned w) { _warpsPerBlock = w; }
    void setWorkScale(unsigned s) { _workScale = s; }
    void setValueProfile(const ir::ValueProfile &p) { _profile = p; }

    /**
     * Patch labels and produce the kernel. An exit is appended when the
     * stream does not already end in one.
     */
    ir::Kernel build();

  private:
    RegId emit(ir::Opcode op, std::vector<RegId> srcs,
               std::int64_t imm = 0);
    void emitTo(ir::Opcode op, RegId dst, std::vector<RegId> srcs,
                std::int64_t imm = 0);

    std::string _name;
    std::vector<ir::Instruction> _insns;
    std::vector<Pc> _labelPcs;
    /** Fixups: instruction index -> label index. */
    std::vector<std::pair<Pc, std::size_t>> _fixups;
    RegId _nextReg = 0;
    unsigned _warpsPerBlock = 8;
    unsigned _workScale = 1;
    ir::ValueProfile _profile;
};

} // namespace regless::workloads

#endif // REGLESS_WORKLOADS_KERNEL_BUILDER_HH

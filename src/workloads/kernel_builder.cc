#include "workloads/kernel_builder.hh"

#include "common/logging.hh"

namespace regless::workloads
{

using ir::Opcode;

KernelBuilder::KernelBuilder(std::string name) : _name(std::move(name)) {}

RegId
KernelBuilder::reg()
{
    return _nextReg++;
}

RegId
KernelBuilder::emit(Opcode op, std::vector<RegId> srcs, std::int64_t imm)
{
    RegId dst = reg();
    _insns.emplace_back(op, dst, std::move(srcs), imm);
    return dst;
}

void
KernelBuilder::emitTo(Opcode op, RegId dst, std::vector<RegId> srcs,
                      std::int64_t imm)
{
    _insns.emplace_back(op, dst, std::move(srcs), imm);
}

RegId KernelBuilder::tid() { return emit(Opcode::Tid, {}); }
RegId KernelBuilder::ctaid() { return emit(Opcode::CtaId, {}); }

RegId
KernelBuilder::movi(std::int64_t imm)
{
    return emit(Opcode::MovImm, {}, imm);
}

RegId KernelBuilder::mov(RegId src) { return emit(Opcode::Mov, {src}); }

RegId
KernelBuilder::iadd(RegId a, RegId b)
{
    return emit(Opcode::IAdd, {a, b});
}

RegId
KernelBuilder::isub(RegId a, RegId b)
{
    return emit(Opcode::ISub, {a, b});
}

RegId
KernelBuilder::imul(RegId a, RegId b)
{
    return emit(Opcode::IMul, {a, b});
}

RegId
KernelBuilder::imad(RegId a, RegId b, RegId c)
{
    return emit(Opcode::IMad, {a, b, c});
}

RegId
KernelBuilder::iaddi(RegId a, std::int64_t imm)
{
    return emit(Opcode::IAddImm, {a}, imm);
}

RegId
KernelBuilder::imuli(RegId a, std::int64_t imm)
{
    return emit(Opcode::IMulImm, {a}, imm);
}

RegId
KernelBuilder::fadd(RegId a, RegId b)
{
    return emit(Opcode::FAdd, {a, b});
}

RegId
KernelBuilder::fmul(RegId a, RegId b)
{
    return emit(Opcode::FMul, {a, b});
}

RegId
KernelBuilder::ffma(RegId a, RegId b, RegId c)
{
    return emit(Opcode::FFma, {a, b, c});
}

RegId KernelBuilder::shl(RegId a, RegId b) { return emit(Opcode::Shl, {a, b}); }
RegId KernelBuilder::shr(RegId a, RegId b) { return emit(Opcode::Shr, {a, b}); }

RegId
KernelBuilder::band(RegId a, RegId b)
{
    return emit(Opcode::And, {a, b});
}

RegId KernelBuilder::bor(RegId a, RegId b) { return emit(Opcode::Or, {a, b}); }

RegId
KernelBuilder::bxor(RegId a, RegId b)
{
    return emit(Opcode::Xor, {a, b});
}

RegId
KernelBuilder::imin(RegId a, RegId b)
{
    return emit(Opcode::IMin, {a, b});
}

RegId
KernelBuilder::imax(RegId a, RegId b)
{
    return emit(Opcode::IMax, {a, b});
}

RegId
KernelBuilder::setLt(RegId a, RegId b)
{
    return emit(Opcode::SetLt, {a, b});
}

RegId
KernelBuilder::setGe(RegId a, RegId b)
{
    return emit(Opcode::SetGe, {a, b});
}

RegId
KernelBuilder::setEq(RegId a, RegId b)
{
    return emit(Opcode::SetEq, {a, b});
}

RegId
KernelBuilder::setNe(RegId a, RegId b)
{
    return emit(Opcode::SetNe, {a, b});
}

RegId
KernelBuilder::selp(RegId a, RegId b, RegId pred)
{
    return emit(Opcode::Selp, {a, b, pred});
}

RegId KernelBuilder::rcp(RegId a) { return emit(Opcode::Rcp, {a}); }
RegId KernelBuilder::fsqrt(RegId a) { return emit(Opcode::Sqrt, {a}); }

RegId
KernelBuilder::ld(RegId addr, std::int64_t offset)
{
    return emit(Opcode::LdGlobal, {addr}, offset);
}

RegId
KernelBuilder::lds(RegId addr, std::int64_t offset)
{
    return emit(Opcode::LdShared, {addr}, offset);
}

void
KernelBuilder::movTo(RegId dst, RegId src)
{
    emitTo(Opcode::Mov, dst, {src});
}

void
KernelBuilder::moviTo(RegId dst, std::int64_t imm)
{
    emitTo(Opcode::MovImm, dst, {}, imm);
}

void
KernelBuilder::iaddTo(RegId dst, RegId a, RegId b)
{
    emitTo(Opcode::IAdd, dst, {a, b});
}

void
KernelBuilder::iaddiTo(RegId dst, RegId a, std::int64_t imm)
{
    emitTo(Opcode::IAddImm, dst, {a}, imm);
}

void
KernelBuilder::ldTo(RegId dst, RegId addr, std::int64_t offset)
{
    emitTo(Opcode::LdGlobal, dst, {addr}, offset);
}

void
KernelBuilder::st(RegId data, RegId addr, std::int64_t offset)
{
    _insns.emplace_back(Opcode::StGlobal, invalidReg,
                        std::vector<RegId>{data, addr}, offset);
}

void
KernelBuilder::sts(RegId data, RegId addr, std::int64_t offset)
{
    _insns.emplace_back(Opcode::StShared, invalidReg,
                        std::vector<RegId>{data, addr}, offset);
}

Label
KernelBuilder::newLabel()
{
    _labelPcs.push_back(invalidPc);
    return Label(_labelPcs.size() - 1);
}

void
KernelBuilder::bind(Label &label)
{
    if (!label._valid)
        fatal("binding an uninitialised label in kernel '", _name, "'");
    if (_labelPcs.at(label._index) != invalidPc)
        fatal("label bound twice in kernel '", _name, "'");
    _labelPcs[label._index] = here();
}

void
KernelBuilder::braIf(RegId pred, const Label &label)
{
    if (!label._valid)
        fatal("branch to uninitialised label in kernel '", _name, "'");
    _fixups.emplace_back(here(), label._index);
    _insns.emplace_back(Opcode::Bra, invalidReg,
                        std::vector<RegId>{pred}, 0, 0);
}

void
KernelBuilder::jmp(const Label &label)
{
    if (!label._valid)
        fatal("jump to uninitialised label in kernel '", _name, "'");
    _fixups.emplace_back(here(), label._index);
    _insns.emplace_back(Opcode::Jmp, invalidReg, std::vector<RegId>{}, 0,
                        0);
}

void
KernelBuilder::bar()
{
    _insns.emplace_back(Opcode::Bar, invalidReg, std::vector<RegId>{});
}

void
KernelBuilder::exit()
{
    _insns.emplace_back(Opcode::Exit, invalidReg, std::vector<RegId>{});
}

ir::Kernel
KernelBuilder::build()
{
    if (_insns.empty() || !_insns.back().isExit())
        exit();

    for (const auto &[pc, label_index] : _fixups) {
        Pc target = _labelPcs.at(label_index);
        if (target == invalidPc)
            fatal("unbound label in kernel '", _name, "'");
        const ir::Instruction &old = _insns[pc];
        _insns[pc] = ir::Instruction(old.op(), old.dst(), old.srcs(),
                                     old.imm(), target);
    }

    ir::Kernel kernel(_name, std::move(_insns));
    kernel.setWarpsPerBlock(_warpsPerBlock);
    kernel.setWorkScale(_workScale);
    kernel.setValueProfile(_profile);
    return kernel;
}

} // namespace regless::workloads

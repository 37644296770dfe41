#include "ir/assembler.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "common/logging.hh"

namespace regless::ir
{

namespace
{

/** Operand signature of one mnemonic. */
struct OpSpec
{
    Opcode op;
    bool hasDst = false;
    unsigned numSrcs = 0;
    bool takesImm = false;  ///< optional trailing immediate
    bool needsImm = false;  ///< immediate is mandatory (movi, iaddi...)
    bool takesTarget = false;
};

const std::map<std::string, OpSpec> &
opTable()
{
    static const std::map<std::string, OpSpec> table = {
        {"nop", {Opcode::Nop}},
        {"mov", {Opcode::Mov, true, 1}},
        {"movi", {Opcode::MovImm, true, 0, true, true}},
        {"tid", {Opcode::Tid, true, 0}},
        {"ctaid", {Opcode::CtaId, true, 0}},
        {"iadd", {Opcode::IAdd, true, 2}},
        {"isub", {Opcode::ISub, true, 2}},
        {"imul", {Opcode::IMul, true, 2}},
        {"imad", {Opcode::IMad, true, 3}},
        {"iaddi", {Opcode::IAddImm, true, 1, true, true}},
        {"imuli", {Opcode::IMulImm, true, 1, true, true}},
        {"fadd", {Opcode::FAdd, true, 2}},
        {"fmul", {Opcode::FMul, true, 2}},
        {"ffma", {Opcode::FFma, true, 3}},
        {"shl", {Opcode::Shl, true, 2}},
        {"shr", {Opcode::Shr, true, 2}},
        {"and", {Opcode::And, true, 2}},
        {"or", {Opcode::Or, true, 2}},
        {"xor", {Opcode::Xor, true, 2}},
        {"imin", {Opcode::IMin, true, 2}},
        {"imax", {Opcode::IMax, true, 2}},
        {"setlt", {Opcode::SetLt, true, 2}},
        {"setge", {Opcode::SetGe, true, 2}},
        {"seteq", {Opcode::SetEq, true, 2}},
        {"setne", {Opcode::SetNe, true, 2}},
        {"selp", {Opcode::Selp, true, 3}},
        {"rcp", {Opcode::Rcp, true, 1}},
        {"sqrt", {Opcode::Sqrt, true, 1}},
        {"ld", {Opcode::LdGlobal, true, 1, true}},
        {"ld.global", {Opcode::LdGlobal, true, 1, true}},
        {"st", {Opcode::StGlobal, false, 2, true}},
        {"st.global", {Opcode::StGlobal, false, 2, true}},
        {"lds", {Opcode::LdShared, true, 1, true}},
        {"ld.shared", {Opcode::LdShared, true, 1, true}},
        {"sts", {Opcode::StShared, false, 2, true}},
        {"st.shared", {Opcode::StShared, false, 2, true}},
        {"bra", {Opcode::Bra, false, 1, false, false, true}},
        {"jmp", {Opcode::Jmp, false, 0, false, false, true}},
        {"bar", {Opcode::Bar}},
        {"exit", {Opcode::Exit}},
    };
    return table;
}

std::string
trim(const std::string &text)
{
    std::size_t first = text.find_first_not_of(" \t\r");
    if (first == std::string::npos)
        return "";
    std::size_t last = text.find_last_not_of(" \t\r");
    return text.substr(first, last - first + 1);
}

std::vector<std::string>
splitOperands(const std::string &text)
{
    std::vector<std::string> out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        item = trim(item);
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

RegId
parseReg(unsigned line, const std::string &token)
{
    if (token.size() < 2 || token[0] != 'r')
        throw AssemblyError(line, "expected register, got '" + token +
                                      "'");
    for (std::size_t i = 1; i < token.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(token[i])))
            throw AssemblyError(line, "bad register '" + token + "'");
    }
    unsigned long value = std::stoul(token.substr(1));
    if (value >= invalidReg)
        throw AssemblyError(line, "register number too large");
    return static_cast<RegId>(value);
}

std::int64_t
parseImm(unsigned line, const std::string &token)
{
    try {
        std::size_t pos = 0;
        std::int64_t value = std::stoll(token, &pos, 0);
        if (pos != token.size())
            throw AssemblyError(line, "bad immediate '" + token + "'");
        return value;
    } catch (const AssemblyError &) {
        throw;
    } catch (const std::exception &) {
        throw AssemblyError(line, "bad immediate '" + token + "'");
    }
}

double
parseFrac(unsigned line, const std::string &token)
{
    try {
        return std::stod(token);
    } catch (const std::exception &) {
        throw AssemblyError(line, "bad fraction '" + token + "'");
    }
}

} // namespace

AssemblyError::AssemblyError(unsigned line, const std::string &message)
    : std::runtime_error("line " + std::to_string(line) + ": " + message),
      _line(line)
{
}

Kernel
assemble(const std::string &source, const std::string &default_name)
{
    std::string name = default_name;
    unsigned warps_per_block = 8;
    unsigned work_scale = 1;
    ValueProfile profile;

    struct PendingInsn
    {
        unsigned line;
        Opcode op;
        RegId dst = invalidReg;
        std::vector<RegId> srcs;
        std::int64_t imm = 0;
        std::string target_label; // empty = none
    };
    std::vector<PendingInsn> insns;
    std::map<std::string, Pc> labels;

    std::istringstream stream(source);
    std::string raw;
    unsigned line_no = 0;
    while (std::getline(stream, raw)) {
        ++line_no;
        std::string line = raw;
        std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;

        if (line[0] == '.') {
            std::istringstream dss(line);
            std::string directive;
            dss >> directive;
            if (directive == ".kernel") {
                dss >> name;
                if (name.empty())
                    throw AssemblyError(line_no, ".kernel needs a name");
            } else if (directive == ".warps_per_block") {
                dss >> warps_per_block;
                if (warps_per_block == 0)
                    throw AssemblyError(line_no,
                                        "warps_per_block must be > 0");
            } else if (directive == ".work_scale") {
                dss >> work_scale;
            } else if (directive == ".values") {
                std::string kv;
                while (dss >> kv) {
                    std::size_t eq = kv.find('=');
                    if (eq == std::string::npos)
                        throw AssemblyError(line_no,
                                            "expected key=value in "
                                            ".values");
                    std::string key = kv.substr(0, eq);
                    double v = parseFrac(line_no, kv.substr(eq + 1));
                    if (key == "constant")
                        profile.constantFrac = v;
                    else if (key == "stride1")
                        profile.stride1Frac = v;
                    else if (key == "stride4")
                        profile.stride4Frac = v;
                    else if (key == "half")
                        profile.halfWarpFrac = v;
                    else
                        throw AssemblyError(line_no, "unknown value "
                                                     "class '" +
                                                         key + "'");
                }
            } else {
                throw AssemblyError(line_no, "unknown directive '" +
                                                 directive + "'");
            }
            continue;
        }

        if (line.back() == ':') {
            std::string label = trim(line.substr(0, line.size() - 1));
            if (label.empty())
                throw AssemblyError(line_no, "empty label");
            if (labels.count(label))
                throw AssemblyError(line_no, "label '" + label +
                                                 "' defined twice");
            labels[label] = static_cast<Pc>(insns.size());
            continue;
        }

        std::istringstream iss(line);
        std::string mnemonic;
        iss >> mnemonic;
        std::transform(mnemonic.begin(), mnemonic.end(),
                       mnemonic.begin(), ::tolower);
        auto it = opTable().find(mnemonic);
        if (it == opTable().end())
            throw AssemblyError(line_no, "unknown mnemonic '" +
                                             mnemonic + "'");
        const OpSpec &spec = it->second;

        std::string rest;
        std::getline(iss, rest);
        std::vector<std::string> ops = splitOperands(rest);

        PendingInsn insn;
        insn.line = line_no;
        insn.op = spec.op;
        std::size_t idx = 0;
        if (spec.hasDst) {
            if (idx >= ops.size())
                throw AssemblyError(line_no, "missing destination");
            insn.dst = parseReg(line_no, ops[idx++]);
        }
        for (unsigned s = 0; s < spec.numSrcs; ++s) {
            if (idx >= ops.size())
                throw AssemblyError(line_no, "missing source operand");
            insn.srcs.push_back(parseReg(line_no, ops[idx++]));
        }
        if (spec.takesTarget) {
            if (idx >= ops.size() || ops[idx].empty() ||
                ops[idx][0] != '@') {
                throw AssemblyError(line_no,
                                    "expected @label branch target");
            }
            insn.target_label = ops[idx++].substr(1);
        }
        if (spec.needsImm && idx >= ops.size())
            throw AssemblyError(line_no, "missing immediate");
        if ((spec.takesImm || spec.needsImm) && idx < ops.size())
            insn.imm = parseImm(line_no, ops[idx++]);
        if (idx < ops.size())
            throw AssemblyError(line_no, "trailing operand '" +
                                             ops[idx] + "'");
        insns.push_back(std::move(insn));
    }

    if (insns.empty())
        throw AssemblyError(line_no, "no instructions");
    if (insns.back().op != Opcode::Exit) {
        PendingInsn exit_insn;
        exit_insn.line = line_no;
        exit_insn.op = Opcode::Exit;
        insns.push_back(exit_insn);
    }

    std::vector<Instruction> out;
    out.reserve(insns.size());
    for (const PendingInsn &p : insns) {
        Pc target = invalidPc;
        if (!p.target_label.empty()) {
            auto lit = labels.find(p.target_label);
            if (lit == labels.end())
                throw AssemblyError(p.line, "undefined label '" +
                                                p.target_label + "'");
            target = lit->second;
        }
        out.emplace_back(p.op, p.dst, p.srcs, p.imm, target);
    }

    Kernel kernel(name, std::move(out));
    kernel.setWarpsPerBlock(warps_per_block);
    kernel.setWorkScale(work_scale);
    kernel.setValueProfile(profile);
    return kernel;
}

Kernel
assembleFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open assembly file '", path, "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string stem = path;
    std::size_t slash = stem.find_last_of('/');
    if (slash != std::string::npos)
        stem = stem.substr(slash + 1);
    std::size_t dot = stem.find_last_of('.');
    if (dot != std::string::npos)
        stem = stem.substr(0, dot);
    return assemble(buffer.str(), stem);
}

std::string
disassembleToAsm(const Kernel &kernel)
{
    std::ostringstream oss;
    oss << ".kernel " << kernel.name() << "\n";
    oss << ".warps_per_block " << kernel.warpsPerBlock() << "\n";
    const ValueProfile &p = kernel.valueProfile();
    oss << ".values constant=" << p.constantFrac
        << " stride1=" << p.stride1Frac << " stride4=" << p.stride4Frac
        << " half=" << p.halfWarpFrac << "\n\n";

    // Labels for every branch target.
    std::map<Pc, std::string> labels;
    for (const Instruction &insn : kernel.instructions()) {
        if (insn.target() != invalidPc) {
            labels.emplace(insn.target(),
                           'L' + std::to_string(insn.target()));
        }
    }

    for (Pc pc = 0; pc < kernel.numInsns(); ++pc) {
        auto lit = labels.find(pc);
        if (lit != labels.end())
            oss << lit->second << ":\n";
        const Instruction &insn = kernel.insn(pc);
        std::string mnemonic = opcodeName(insn.op());
        if (mnemonic == "ld.global")
            mnemonic = "ld";
        else if (mnemonic == "st.global")
            mnemonic = "st";
        else if (mnemonic == "ld.shared")
            mnemonic = "lds";
        else if (mnemonic == "st.shared")
            mnemonic = "sts";
        oss << "    " << mnemonic;
        bool first = true;
        auto sep = [&]() -> std::ostream & {
            oss << (first ? " " : ", ");
            first = false;
            return oss;
        };
        if (insn.writesReg())
            sep() << "r" << insn.dst();
        for (RegId src : insn.srcs())
            sep() << "r" << src;
        if (insn.target() != invalidPc)
            sep() << "@" << labels.at(insn.target());
        const bool imm_form = insn.op() == Opcode::MovImm ||
                              insn.op() == Opcode::IAddImm ||
                              insn.op() == Opcode::IMulImm ||
                              insn.isMemAccess();
        if (imm_form)
            sep() << insn.imm();
        oss << "\n";
    }
    return oss.str();
}

} // namespace regless::ir

#include "isa/disasm.hh"

#include <charconv>

#include "isa/encoding.hh"

namespace cpe::isa {

std::string
disassemble(const Inst &inst, Addr pc)
{
    const Opcode op = inst.op;
    std::string out = opcodeName(op);

    // Each operand appends " " (the first) or ", " (the rest), then
    // its text.
    bool first = true;
    auto next = [&]() -> std::string & {
        out += first ? " " : ", ";
        first = false;
        return out;
    };
    auto reg = [&](RegIndex r) { next() += regName(r); };
    auto imm = [&] { next() += std::to_string(inst.imm); };
    auto address = [&] {  // imm(rs1)
        imm();
        out += '(';
        out += regName(inst.rs1);
        out += ')';
    };
    auto target = [&] {
        if (!pc)
            return imm();
        char hex[16];
        auto end = std::to_chars(hex, hex + sizeof(hex),
                                 pc + static_cast<Addr>(inst.imm), 16);
        next() += "0x";
        out.append(hex, end.ptr);
    };

    switch (classOf(op)) {
      case InstClass::Load:
        reg(inst.rd);
        address();
        break;
      case InstClass::Store:
        reg(inst.rs2);
        address();
        break;
      case InstClass::Branch:
        reg(inst.rs1);
        reg(inst.rs2);
        target();
        break;
      case InstClass::Jump:
        reg(inst.rd);
        if (op == Opcode::JAL)
            target();
        else
            address();
        break;
      case InstClass::System:
        break;  // mnemonic only
      default:
        reg(inst.rd);
        if (op == Opcode::LUI) {
            imm();
        } else if (op == Opcode::FNEG || op == Opcode::FCVT_I2F ||
                   op == Opcode::FCVT_F2I) {
            // Unary: rs2 is an encoding artifact (duplicates rs1).
            reg(inst.rs1);
        } else if (isRFormat(op)) {
            reg(inst.rs1);
            reg(inst.rs2);
        } else {
            reg(inst.rs1);
            imm();
        }
        break;
    }
    return out;
}

} // namespace cpe::isa

#include "isa/instruction.hh"

#include <sstream>

#include "common/log.hh"

namespace siwi::isa {

unsigned
Instruction::srcFields() const
{
    const unsigned b = b_is_imm ? 0u : unsigned(SrcB);
    switch (opInfo(op).form) {
      case OperandForm::None:
      case OperandForm::DstImm:
      case OperandForm::DstSreg:
      case OperandForm::Bra:
      case OperandForm::Sync:
        return 0;
      case OperandForm::DstSa:
      case OperandForm::Load:
      case OperandForm::CondBra:
        return SrcA;
      case OperandForm::DstSaSb:
        return SrcA | b;
      case OperandForm::DstSaSbSc:
        return SrcA | b | SrcC;
      case OperandForm::Store:
        return SrcA | SrcB;
    }
    return 0;
}

u64
Instruction::srcMask() const
{
    static_assert(num_arch_regs <= 64, "register mask is one u64");
    const unsigned fields = srcFields();
    u64 mask = 0;
    if (fields & SrcA)
        mask |= u64(1) << sa;
    if (fields & SrcB)
        mask |= u64(1) << sb;
    if (fields & SrcC)
        mask |= u64(1) << sc;
    return mask;
}

std::string
Instruction::toString() const
{
    std::ostringstream os;
    os << opName(op);
    const auto &info = opInfo(op);
    switch (info.form) {
      case OperandForm::None:
        break;
      case OperandForm::DstSa:
        os << " r" << unsigned(dst) << ", r" << unsigned(sa);
        break;
      case OperandForm::DstSaSb:
        os << " r" << unsigned(dst) << ", r" << unsigned(sa) << ", ";
        if (b_is_imm)
            os << "#" << imm;
        else
            os << "r" << unsigned(sb);
        break;
      case OperandForm::DstSaSbSc:
        os << " r" << unsigned(dst) << ", r" << unsigned(sa) << ", ";
        if (b_is_imm)
            os << "#" << imm;
        else
            os << "r" << unsigned(sb);
        os << ", r" << unsigned(sc);
        break;
      case OperandForm::DstImm:
        os << " r" << unsigned(dst) << ", #" << imm;
        break;
      case OperandForm::DstSreg:
        os << " r" << unsigned(dst) << ", %" << sregName(sreg);
        break;
      case OperandForm::Load:
        os << " r" << unsigned(dst) << ", [r" << unsigned(sa)
           << "+" << imm << "]";
        break;
      case OperandForm::Store:
        os << " [r" << unsigned(sa) << "+" << imm << "], r"
           << unsigned(sb);
        break;
      case OperandForm::Bra:
        os << " L" << target;
        break;
      case OperandForm::CondBra:
        os << " r" << unsigned(sa) << ", L" << target;
        if (reconv != invalid_pc)
            os << ", !L" << reconv;
        break;
      case OperandForm::Sync:
        os << " @L" << div;
        break;
    }
    return os.str();
}

} // namespace siwi::isa

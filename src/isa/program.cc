#include "isa/program.hh"

#include <set>
#include <sstream>

#include "common/log.hh"

namespace siwi::isa {

namespace {

/** One past the highest source register @p inst reads (0: none). */
unsigned
srcRegsEnd(const Instruction &inst)
{
    const unsigned fields = inst.srcFields();
    unsigned end = 0;
    if (fields & Instruction::SrcA)
        end = std::max(end, unsigned(inst.sa) + 1);
    if (fields & Instruction::SrcB)
        end = std::max(end, unsigned(inst.sb) + 1);
    if (fields & Instruction::SrcC)
        end = std::max(end, unsigned(inst.sc) + 1);
    return end;
}

} // namespace

const Instruction &
Program::at(Pc pc) const
{
    siwi_assert(pc < code_.size(), "pc out of range: ", pc);
    return code_[pc];
}

Instruction &
Program::at(Pc pc)
{
    siwi_assert(pc < code_.size(), "pc out of range: ", pc);
    return code_[pc];
}

Pc
Program::push(const Instruction &inst)
{
    code_.push_back(inst);
    return Pc(code_.size() - 1);
}

unsigned
Program::regsUsed() const
{
    unsigned hi = 0;
    for (const auto &inst : code_) {
        if (inst.writesDst())
            hi = std::max(hi, unsigned(inst.dst) + 1);
        hi = std::max(hi, srcRegsEnd(inst));
    }
    return hi;
}

std::string
Program::validate() const
{
    std::ostringstream err;
    if (code_.empty())
        return "empty program";

    bool has_exit = false;
    for (Pc pc = 0; pc < size(); ++pc) {
        const Instruction &inst = code_[pc];
        if (inst.op >= Opcode::NumOpcodes) {
            err << "pc " << pc << ": invalid opcode";
            return err.str();
        }
        if (isBranch(inst.op) && inst.target >= size()) {
            err << "pc " << pc << ": branch target " << inst.target
                << " out of range";
            return err.str();
        }
        if (inst.op == Opcode::SYNC && inst.div != invalid_pc &&
            inst.div >= size()) {
            err << "pc " << pc << ": sync divergence point " << inst.div
                << " out of range";
            return err.str();
        }
        if (inst.writesDst() && inst.dst >= num_arch_regs) {
            err << "pc " << pc << ": dst register out of range";
            return err.str();
        }
        if (srcRegsEnd(inst) > num_arch_regs) {
            err << "pc " << pc << ": src register out of range";
            return err.str();
        }
        if (inst.op == Opcode::EXIT)
            has_exit = true;
    }
    // Falling off the end is a kernel bug; require the last
    // instruction to be an unconditional control transfer or an EXIT
    // somewhere in the program plus a terminal EXIT/BRA.
    const Instruction &last = code_.back();
    if (!has_exit)
        return "program has no EXIT";
    if (last.op != Opcode::EXIT && last.op != Opcode::BRA)
        return "program does not end with EXIT or BRA";
    return "";
}

std::string
Program::disassemble() const
{
    // Collect label targets so only referenced PCs get labels.
    std::set<Pc> targets;
    for (const auto &inst : code_) {
        if (isBranch(inst.op))
            targets.insert(inst.target);
        if (isCondBranch(inst.op) && inst.reconv != invalid_pc)
            targets.insert(inst.reconv);
        if (inst.op == Opcode::SYNC && inst.div != invalid_pc)
            targets.insert(inst.div);
    }

    std::ostringstream os;
    os << ".kernel " << (name_.empty() ? "anonymous" : name_) << "\n";
    for (Pc pc = 0; pc < size(); ++pc) {
        if (targets.count(pc))
            os << "L" << pc << ":\n";
        os << "    " << code_[pc].toString() << "\n";
    }
    return os.str();
}

} // namespace siwi::isa

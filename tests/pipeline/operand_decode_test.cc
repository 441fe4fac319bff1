/**
 * @file
 * Operand-decode tests: Instruction::srcMask, the allocation-free
 * register set the scoreboard probes, against a reference that
 * lists the source registers of each operand form, and
 * Scoreboard::conflicts against a RAW/WAW reference written from
 * that list. Covers every opcode, both operand-b kinds and a spread
 * of register choices (including the top of the register file).
 */

#include <gtest/gtest.h>

#include <vector>

#include "isa/instruction.hh"
#include "pipeline/scoreboard.hh"

namespace siwi::pipeline {
namespace {

using isa::Instruction;
using isa::Opcode;
using isa::OperandForm;

/** Source registers by operand form, in operand order. */
std::vector<RegIdx>
referenceSrcRegs(const Instruction &inst)
{
    switch (isa::opInfo(inst.op).form) {
      case OperandForm::None:
      case OperandForm::DstImm:
      case OperandForm::DstSreg:
      case OperandForm::Bra:
      case OperandForm::Sync:
        return {};
      case OperandForm::DstSa:
      case OperandForm::Load:
      case OperandForm::CondBra:
        return {inst.sa};
      case OperandForm::DstSaSb:
        if (inst.b_is_imm)
            return {inst.sa};
        return {inst.sa, inst.sb};
      case OperandForm::DstSaSbSc:
        if (inst.b_is_imm)
            return {inst.sa, inst.sc};
        return {inst.sa, inst.sb, inst.sc};
      case OperandForm::Store:
        return {inst.sa, inst.sb};
    }
    return {};
}

/** Does @p inst conflict with an in-flight write of @p dst? */
bool
referenceConflict(const Instruction &inst, RegIdx dst)
{
    for (RegIdx src : referenceSrcRegs(inst)) {
        if (src == dst)
            return true;
    }
    return inst.writesDst() && inst.dst == dst;
}

const std::vector<RegIdx> reg_choices = {0, 1, 7, 62, 63};

TEST(OperandDecode, MaskMatchesReferenceList)
{
    for (unsigned op = 0; op < isa::num_opcodes; ++op) {
        for (bool imm : {false, true}) {
            for (RegIdx a : reg_choices) {
                for (RegIdx b : reg_choices) {
                    for (RegIdx c : reg_choices) {
                        Instruction inst;
                        inst.op = Opcode(op);
                        inst.b_is_imm = imm;
                        inst.sa = a;
                        inst.sb = b;
                        inst.sc = c;
                        u64 want = 0;
                        for (RegIdx r : referenceSrcRegs(inst))
                            want |= u64(1) << r;
                        EXPECT_EQ(inst.srcMask(), want)
                            << inst.toString() << " imm=" << imm;
                    }
                }
            }
        }
    }
}

/**
 * One in-flight write per register choice: an overlapping probe
 * conflicts exactly when the reference says so, a disjoint one
 * never does.
 */
void
expectScoreboardAgrees(const Instruction &inst)
{
    const LaneMask lanes(0x00ff);
    const LaneMask overlapping(0x0180);
    const LaneMask disjoint(0xff00);
    for (RegIdx inflight : reg_choices) {
        Scoreboard sb(1, 2);
        sb.allocate(0, inflight, lanes);
        EXPECT_EQ(sb.conflicts(0, inst, overlapping),
                  referenceConflict(inst, inflight))
            << inst.toString() << " vs r" << unsigned(inflight);
        EXPECT_FALSE(sb.conflicts(0, inst, disjoint))
            << inst.toString();
    }
}

TEST(OperandDecode, ScoreboardMatchesReference)
{
    for (unsigned op = 0; op < isa::num_opcodes; ++op) {
        for (bool imm : {false, true}) {
            for (RegIdx a : reg_choices) {
                for (RegIdx b : reg_choices) {
                    for (RegIdx c : reg_choices) {
                        for (RegIdx d : reg_choices) {
                            Instruction inst;
                            inst.op = Opcode(op);
                            inst.b_is_imm = imm;
                            inst.dst = d;
                            inst.sa = a;
                            inst.sb = b;
                            inst.sc = c;
                            expectScoreboardAgrees(inst);
                        }
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace siwi::pipeline

/**
 * @file
 * Instruction formatting / source-register extraction tests.
 */

#include <gtest/gtest.h>

#include <initializer_list>

#include "isa/instruction.hh"

namespace siwi::isa {
namespace {

Instruction
makeBin(Opcode op, RegIdx d, RegIdx a, RegIdx b)
{
    Instruction i;
    i.op = op;
    i.dst = d;
    i.sa = a;
    i.sb = b;
    return i;
}

/** Register bit set of @p regs. */
u64
regMask(std::initializer_list<RegIdx> regs)
{
    u64 m = 0;
    for (RegIdx r : regs)
        m |= u64(1) << r;
    return m;
}

TEST(Instruction, SrcRegsBinary)
{
    Instruction i = makeBin(Opcode::IADD, 1, 2, 3);
    EXPECT_EQ(i.srcMask(), regMask({2, 3}));
    EXPECT_EQ(i.srcFields(), Instruction::SrcA | Instruction::SrcB);
}

TEST(Instruction, SrcRegsImmediateSkipsSb)
{
    Instruction i = makeBin(Opcode::IADD, 1, 2, 3);
    i.b_is_imm = true;
    i.imm = 7;
    EXPECT_EQ(i.srcMask(), regMask({2}));
}

TEST(Instruction, SrcRegsTernary)
{
    Instruction i;
    i.op = Opcode::FMAD;
    i.dst = 0;
    i.sa = 1;
    i.sb = 2;
    i.sc = 3;
    EXPECT_EQ(i.srcMask(), regMask({1, 2, 3}));
}

TEST(Instruction, SrcRegsStore)
{
    Instruction i;
    i.op = Opcode::ST;
    i.sa = 4;
    i.sb = 5;
    EXPECT_EQ(i.srcMask(), regMask({4, 5}));
}

TEST(Instruction, SrcRegsCondBranch)
{
    Instruction i;
    i.op = Opcode::BNZ;
    i.sa = 9;
    i.target = 0;
    EXPECT_EQ(i.srcMask(), regMask({9}));
}

TEST(Instruction, SrcRegsNone)
{
    Instruction i;
    i.op = Opcode::BAR;
    EXPECT_EQ(i.srcMask(), 0u);
    i.op = Opcode::MOVI;
    EXPECT_EQ(i.srcMask(), 0u);
}

TEST(Instruction, ToStringForms)
{
    Instruction i = makeBin(Opcode::IADD, 1, 2, 3);
    EXPECT_EQ(i.toString(), "iadd r1, r2, r3");

    i.b_is_imm = true;
    i.imm = -5;
    EXPECT_EQ(i.toString(), "iadd r1, r2, #-5");

    Instruction ld;
    ld.op = Opcode::LD;
    ld.dst = 4;
    ld.sa = 2;
    ld.imm = 16;
    EXPECT_EQ(ld.toString(), "ld r4, [r2+16]");

    Instruction st;
    st.op = Opcode::ST;
    st.sa = 2;
    st.sb = 5;
    st.imm = 0;
    EXPECT_EQ(st.toString(), "st [r2+0], r5");

    Instruction bra;
    bra.op = Opcode::BRA;
    bra.target = 12;
    EXPECT_EQ(bra.toString(), "bra L12");

    Instruction bnz;
    bnz.op = Opcode::BNZ;
    bnz.sa = 1;
    bnz.target = 8;
    EXPECT_EQ(bnz.toString(), "bnz r1, L8");
    bnz.reconv = 10;
    EXPECT_EQ(bnz.toString(), "bnz r1, L8, !L10");

    Instruction sync;
    sync.op = Opcode::SYNC;
    sync.div = 3;
    EXPECT_EQ(sync.toString(), "sync @L3");

    Instruction s2r;
    s2r.op = Opcode::S2R;
    s2r.dst = 0;
    s2r.sreg = SpecialReg::GTID;
    EXPECT_EQ(s2r.toString(), "s2r r0, %gtid");
}

TEST(Instruction, UnitDelegation)
{
    Instruction i;
    i.op = Opcode::LD;
    EXPECT_EQ(i.unit(), UnitClass::LSU);
    i.op = Opcode::SIN;
    EXPECT_EQ(i.unit(), UnitClass::SFU);
    i.op = Opcode::BRA;
    EXPECT_EQ(i.unit(), UnitClass::CTRL);
}

} // namespace
} // namespace siwi::isa

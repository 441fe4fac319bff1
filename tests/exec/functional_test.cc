/**
 * @file
 * Functional semantics tests for every opcode.
 */

#include <bit>
#include <cmath>

#include <gtest/gtest.h>

#include "exec/functional.hh"
#include "isa/builder.hh"

namespace siwi::exec {
namespace {

using isa::Instruction;
using isa::Opcode;
using isa::SpecialReg;

class Functional : public ::testing::Test
{
  protected:
    Functional() : warp(4)
    {
        for (unsigned l = 0; l < 4; ++l) {
            warp.info(l).valid = true;
            warp.info(l).tid = i32(l);
        }
        mask = LaneMask::firstN(4);
    }

    void
    setF(unsigned lane, RegIdx r, float v)
    {
        warp.setReg(lane, r, std::bit_cast<u32>(v));
    }

    float
    getF(unsigned lane, RegIdx r)
    {
        return std::bit_cast<float>(warp.reg(lane, r));
    }

    Instruction
    bin(Opcode op, RegIdx d, RegIdx a, RegIdx b)
    {
        Instruction i;
        i.op = op;
        i.dst = d;
        i.sa = a;
        i.sb = b;
        return i;
    }

    WarpState warp;
    LaneMask mask;
    mem::MemoryImage memory;
};

TEST_F(Functional, IntegerAluBasics)
{
    warp.setReg(0, 1, u32(i32(7)));
    warp.setReg(0, 2, u32(i32(-3)));
    executeAlu(bin(Opcode::IADD, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_EQ(i32(warp.reg(0, 0)), 4);
    executeAlu(bin(Opcode::ISUB, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_EQ(i32(warp.reg(0, 0)), 10);
    executeAlu(bin(Opcode::IMUL, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_EQ(i32(warp.reg(0, 0)), -21);
    executeAlu(bin(Opcode::IMIN, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_EQ(i32(warp.reg(0, 0)), -3);
    executeAlu(bin(Opcode::IMAX, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_EQ(i32(warp.reg(0, 0)), 7);
}

TEST_F(Functional, ImmediateOperand)
{
    warp.setReg(0, 1, 10);
    Instruction i = bin(Opcode::IADD, 0, 1, 0);
    i.b_is_imm = true;
    i.imm = -4;
    executeAlu(i, warp, LaneMask::lane(0));
    EXPECT_EQ(i32(warp.reg(0, 0)), 6);
}

TEST_F(Functional, MaskedLanesUntouched)
{
    warp.setReg(0, 1, 5);
    warp.setReg(1, 1, 5);
    warp.setReg(0, 0, 99);
    warp.setReg(1, 0, 99);
    Instruction i = bin(Opcode::IADD, 0, 1, 0);
    i.b_is_imm = true;
    i.imm = 1;
    executeAlu(i, warp, LaneMask::lane(1));
    EXPECT_EQ(warp.reg(0, 0), 99u); // untouched
    EXPECT_EQ(warp.reg(1, 0), 6u);
}

TEST_F(Functional, ShiftsAndLogic)
{
    warp.setReg(0, 1, 0xff00ff00u);
    warp.setReg(0, 2, 4);
    executeAlu(bin(Opcode::SHL, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_EQ(warp.reg(0, 0), 0xf00ff000u);
    executeAlu(bin(Opcode::SHR, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_EQ(warp.reg(0, 0), 0x0ff00ff0u);
    warp.setReg(0, 1, u32(i32(-16)));
    executeAlu(bin(Opcode::SRA, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_EQ(i32(warp.reg(0, 0)), -1);
    warp.setReg(0, 1, 0b1100);
    warp.setReg(0, 2, 0b1010);
    executeAlu(bin(Opcode::AND, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_EQ(warp.reg(0, 0), 0b1000u);
    executeAlu(bin(Opcode::OR, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_EQ(warp.reg(0, 0), 0b1110u);
    executeAlu(bin(Opcode::XOR, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_EQ(warp.reg(0, 0), 0b0110u);
    executeAlu(bin(Opcode::NOT, 0, 1, 0), warp, LaneMask::lane(0));
    EXPECT_EQ(warp.reg(0, 0), ~u32(0b1100));
}

TEST_F(Functional, Compares)
{
    warp.setReg(0, 1, u32(i32(-2)));
    warp.setReg(0, 2, u32(i32(3)));
    auto run = [&](Opcode op) {
        executeAlu(bin(op, 0, 1, 2), warp, LaneMask::lane(0));
        return warp.reg(0, 0);
    };
    EXPECT_EQ(run(Opcode::ISETLT), 1u);
    EXPECT_EQ(run(Opcode::ISETLE), 1u);
    EXPECT_EQ(run(Opcode::ISETEQ), 0u);
    EXPECT_EQ(run(Opcode::ISETNE), 1u);
    EXPECT_EQ(run(Opcode::ISETGE), 0u);
    EXPECT_EQ(run(Opcode::ISETGT), 0u);
}

TEST_F(Functional, Select)
{
    warp.setReg(0, 1, 1);
    warp.setReg(0, 2, 100);
    warp.setReg(0, 3, 200);
    Instruction i;
    i.op = Opcode::SEL;
    i.dst = 0;
    i.sa = 1;
    i.sb = 2;
    i.sc = 3;
    executeAlu(i, warp, LaneMask::lane(0));
    EXPECT_EQ(warp.reg(0, 0), 100u);
    warp.setReg(0, 1, 0);
    executeAlu(i, warp, LaneMask::lane(0));
    EXPECT_EQ(warp.reg(0, 0), 200u);
}

TEST_F(Functional, FloatOps)
{
    setF(0, 1, 2.5f);
    setF(0, 2, -1.5f);
    executeAlu(bin(Opcode::FADD, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), 1.0f);
    executeAlu(bin(Opcode::FMUL, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), -3.75f);
    executeAlu(bin(Opcode::FMIN, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), -1.5f);
    executeAlu(bin(Opcode::FMAX, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), 2.5f);

    Instruction mad;
    mad.op = Opcode::FMAD;
    mad.dst = 0;
    mad.sa = 1;
    mad.sb = 2;
    mad.sc = 3;
    setF(0, 3, 10.0f);
    executeAlu(mad, warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), 2.5f * -1.5f + 10.0f);

    executeAlu(bin(Opcode::FABS, 0, 2, 0), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), 1.5f);
    executeAlu(bin(Opcode::FNEG, 0, 1, 0), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), -2.5f);
}

TEST_F(Functional, Conversions)
{
    warp.setReg(0, 1, u32(i32(-7)));
    executeAlu(bin(Opcode::I2F, 0, 1, 0), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), -7.0f);
    setF(0, 1, 3.9f);
    executeAlu(bin(Opcode::F2I, 0, 1, 0), warp, LaneMask::lane(0));
    EXPECT_EQ(i32(warp.reg(0, 0)), 3); // truncation
    setF(0, 1, -3.9f);
    executeAlu(bin(Opcode::F2I, 0, 1, 0), warp, LaneMask::lane(0));
    EXPECT_EQ(i32(warp.reg(0, 0)), -3);
}

TEST_F(Functional, SfuOps)
{
    setF(0, 1, 4.0f);
    executeAlu(bin(Opcode::RCP, 0, 1, 0), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), 0.25f);
    executeAlu(bin(Opcode::RSQ, 0, 1, 0), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), 0.5f);
    executeAlu(bin(Opcode::SQRT, 0, 1, 0), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), 2.0f);
    executeAlu(bin(Opcode::EXP2, 0, 1, 0), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), 16.0f);
    executeAlu(bin(Opcode::LOG2, 0, 1, 0), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), 2.0f);
    setF(0, 1, 0.0f);
    executeAlu(bin(Opcode::SIN, 0, 1, 0), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), 0.0f);
    executeAlu(bin(Opcode::COS, 0, 1, 0), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), 1.0f);
}

TEST_F(Functional, SpecialRegisters)
{
    warp.info(2).tid = 42;
    warp.info(2).ctaid = 3;
    warp.info(2).gtid = 1066;
    warp.info(2).lane = 2;
    Instruction i;
    i.op = Opcode::S2R;
    i.dst = 0;
    i.sreg = SpecialReg::TID;
    executeAlu(i, warp, LaneMask::lane(2));
    EXPECT_EQ(warp.reg(2, 0), 42u);
    i.sreg = SpecialReg::GTID;
    executeAlu(i, warp, LaneMask::lane(2));
    EXPECT_EQ(warp.reg(2, 0), 1066u);
    i.sreg = SpecialReg::LANE;
    executeAlu(i, warp, LaneMask::lane(2));
    EXPECT_EQ(warp.reg(2, 0), 2u);
}

TEST_F(Functional, BranchEvaluation)
{
    Instruction bnz;
    bnz.op = Opcode::BNZ;
    bnz.sa = 1;
    bnz.target = 0;
    warp.setReg(0, 1, 0);
    warp.setReg(1, 1, 5);
    warp.setReg(2, 1, 0);
    warp.setReg(3, 1, 1);
    LaneMask taken = evalBranch(bnz, warp, mask);
    EXPECT_EQ(taken.bits(), 0b1010u);

    Instruction bz = bnz;
    bz.op = Opcode::BZ;
    EXPECT_EQ(evalBranch(bz, warp, mask).bits(), 0b0101u);

    Instruction bra;
    bra.op = Opcode::BRA;
    bra.target = 0;
    EXPECT_EQ(evalBranch(bra, warp, mask), mask);
}

TEST_F(Functional, BranchRespectsMask)
{
    Instruction bnz;
    bnz.op = Opcode::BNZ;
    bnz.sa = 1;
    warp.setReg(0, 1, 1);
    warp.setReg(1, 1, 1);
    LaneMask taken = evalBranch(bnz, warp, LaneMask::lane(0));
    EXPECT_EQ(taken.bits(), 0b0001u);
}

TEST_F(Functional, MemAddressesAndLoadStore)
{
    for (unsigned l = 0; l < 4; ++l)
        warp.setReg(l, 1, 0x1000 + l * 4);
    Instruction st;
    st.op = Opcode::ST;
    st.sa = 1;
    st.sb = 2;
    st.imm = 8;
    for (unsigned l = 0; l < 4; ++l)
        warp.setReg(l, 2, 100 + l);
    executeMem(st, warp, mask, memory);
    for (unsigned l = 0; l < 4; ++l)
        EXPECT_EQ(memory.read32(0x1008 + l * 4), 100 + l);

    Instruction ld;
    ld.op = Opcode::LD;
    ld.dst = 3;
    ld.sa = 1;
    ld.imm = 8;
    executeMem(ld, warp, mask, memory);
    for (unsigned l = 0; l < 4; ++l)
        EXPECT_EQ(warp.reg(l, 3), 100 + l);

    // The output is cleared first: a stale entry must not survive.
    std::vector<mem::LaneAccess> reqs = {{7, 0x7000}};
    memAddresses(ld, warp, LaneMask(0b0110), reqs);
    ASSERT_EQ(reqs.size(), 2u);
    EXPECT_EQ(reqs[0].lane, 1u);
    EXPECT_EQ(reqs[0].addr, 0x100cu);
}

TEST_F(Functional, IabsAndMov)
{
    warp.setReg(0, 1, u32(i32(-9)));
    executeAlu(bin(Opcode::IABS, 0, 1, 0), warp, LaneMask::lane(0));
    EXPECT_EQ(i32(warp.reg(0, 0)), 9);
    executeAlu(bin(Opcode::MOV, 2, 0, 0), warp, LaneMask::lane(0));
    EXPECT_EQ(i32(warp.reg(0, 2)), 9);
    Instruction movi;
    movi.op = Opcode::MOVI;
    movi.dst = 5;
    movi.imm = -1234;
    movi.b_is_imm = true;
    executeAlu(movi, warp, LaneMask::lane(0));
    EXPECT_EQ(i32(warp.reg(0, 5)), -1234);
}

} // namespace
} // namespace siwi::exec

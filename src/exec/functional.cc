#include "exec/functional.hh"

#include <bit>
#include <cmath>

#include "common/log.hh"

namespace siwi::exec {

using isa::Instruction;
using isa::Opcode;
using isa::SpecialReg;

namespace {

float
asF(u32 x)
{
    return std::bit_cast<float>(x);
}

u32
asU(float x)
{
    return std::bit_cast<u32>(x);
}

u32
readSreg(const ThreadInfo &ti, SpecialReg sr)
{
    switch (sr) {
      case SpecialReg::TID: return u32(ti.tid);
      case SpecialReg::NTID: return u32(ti.ntid);
      case SpecialReg::CTAID: return u32(ti.ctaid);
      case SpecialReg::NCTAID: return u32(ti.nctaid);
      case SpecialReg::GTID: return u32(ti.gtid);
      case SpecialReg::LANE: return u32(ti.lane);
      case SpecialReg::WID: return u32(ti.wid);
      default: panic("bad special register");
    }
}

/** Compute one lane's result for a dst-writing ALU/SFU op. */
u32
aluLane(const Instruction &inst, const WarpState &warp, unsigned lane)
{
    auto rd = [&](RegIdx r) { return warp.reg(lane, r); };
    // Second operand: register or immediate.
    auto b = [&]() {
        return inst.b_is_imm ? u32(inst.imm) : rd(inst.sb);
    };
    auto ia = [&]() { return i32(rd(inst.sa)); };
    auto ib = [&]() { return i32(b()); };
    auto fa = [&]() { return asF(rd(inst.sa)); };
    auto fb = [&]() { return asF(b()); };

    switch (inst.op) {
      case Opcode::MOV: return rd(inst.sa);
      case Opcode::MOVI: return u32(inst.imm);
      case Opcode::S2R: return readSreg(warp.info(lane), inst.sreg);
      // Arithmetic wraps mod 2^32 (two's complement); compute in
      // unsigned to keep host-side signed overflow UB out of it.
      case Opcode::IADD: return rd(inst.sa) + b();
      case Opcode::ISUB: return rd(inst.sa) - b();
      case Opcode::IMUL: return rd(inst.sa) * b();
      case Opcode::IMAD:
        return rd(inst.sa) * b() + rd(inst.sc);
      case Opcode::IMIN: return u32(std::min(ia(), ib()));
      case Opcode::IMAX: return u32(std::max(ia(), ib()));
      case Opcode::IABS: {
        i32 v = ia();
        return v < 0 ? 0u - u32(v) : u32(v);
      }
      case Opcode::AND: return rd(inst.sa) & b();
      case Opcode::OR: return rd(inst.sa) | b();
      case Opcode::XOR: return rd(inst.sa) ^ b();
      case Opcode::NOT: return ~rd(inst.sa);
      case Opcode::SHL: return rd(inst.sa) << (b() & 31);
      case Opcode::SHR: return rd(inst.sa) >> (b() & 31);
      case Opcode::SRA: return u32(ia() >> (b() & 31));
      case Opcode::ISETLT: return ia() < ib() ? 1 : 0;
      case Opcode::ISETLE: return ia() <= ib() ? 1 : 0;
      case Opcode::ISETEQ: return ia() == ib() ? 1 : 0;
      case Opcode::ISETNE: return ia() != ib() ? 1 : 0;
      case Opcode::ISETGE: return ia() >= ib() ? 1 : 0;
      case Opcode::ISETGT: return ia() > ib() ? 1 : 0;
      case Opcode::SEL:
        return rd(inst.sa) != 0 ? rd(inst.sb) : rd(inst.sc);
      case Opcode::FADD: return asU(fa() + fb());
      case Opcode::FSUB: return asU(fa() - fb());
      case Opcode::FMUL: return asU(fa() * fb());
      case Opcode::FMAD:
        return asU(fa() * fb() + asF(rd(inst.sc)));
      case Opcode::FMIN: return asU(std::fmin(fa(), fb()));
      case Opcode::FMAX: return asU(std::fmax(fa(), fb()));
      case Opcode::FABS: return asU(std::fabs(fa()));
      case Opcode::FNEG: return asU(-fa());
      case Opcode::FSETLT: return fa() < fb() ? 1 : 0;
      case Opcode::FSETLE: return fa() <= fb() ? 1 : 0;
      case Opcode::FSETEQ: return fa() == fb() ? 1 : 0;
      case Opcode::FSETNE: return fa() != fb() ? 1 : 0;
      case Opcode::FSETGE: return fa() >= fb() ? 1 : 0;
      case Opcode::FSETGT: return fa() > fb() ? 1 : 0;
      case Opcode::I2F: return asU(float(ia()));
      case Opcode::F2I: return u32(i32(fa()));
      case Opcode::RCP: return asU(1.0f / fa());
      case Opcode::RSQ: return asU(1.0f / std::sqrt(fa()));
      case Opcode::SQRT: return asU(std::sqrt(fa()));
      case Opcode::SIN: return asU(std::sin(fa()));
      case Opcode::COS: return asU(std::cos(fa()));
      case Opcode::EXP2: return asU(std::exp2(fa()));
      case Opcode::LOG2: return asU(std::log2(fa()));
      default:
        panic("aluLane: not an ALU op: ", isa::opName(inst.op));
    }
}

/** Byte address lane @p lane of memory instruction @p inst touches. */
Addr
laneAddr(const Instruction &inst, const WarpState &warp, unsigned lane)
{
    return Addr(warp.reg(lane, inst.sa)) + Addr(i64(inst.imm));
}

} // namespace

void
executeAlu(const Instruction &inst, WarpState &warp, LaneMask mask)
{
    if (inst.op == Opcode::NOP)
        return;
    siwi_assert(inst.writesDst(), "executeAlu on non-ALU op");
    for (unsigned lane = 0; lane < warp.width(); ++lane) {
        if (mask.test(lane))
            warp.setReg(lane, inst.dst, aluLane(inst, warp, lane));
    }
}

LaneMask
evalBranch(const Instruction &inst, const WarpState &warp,
           LaneMask mask)
{
    switch (inst.op) {
      case Opcode::BRA:
        return mask;
      case Opcode::BNZ: {
        LaneMask taken;
        for (unsigned lane = 0; lane < warp.width(); ++lane) {
            if (mask.test(lane) && warp.reg(lane, inst.sa) != 0)
                taken.set(lane);
        }
        return taken;
      }
      case Opcode::BZ: {
        LaneMask taken;
        for (unsigned lane = 0; lane < warp.width(); ++lane) {
            if (mask.test(lane) && warp.reg(lane, inst.sa) == 0)
                taken.set(lane);
        }
        return taken;
      }
      default:
        panic("evalBranch: not a branch: ", isa::opName(inst.op));
    }
}

void
memAddresses(const Instruction &inst, const WarpState &warp,
             LaneMask mask, std::vector<mem::LaneAccess> &out)
{
    siwi_assert(isa::isMemory(inst.op), "memAddresses: not a mem op");
    out.clear();
    for (unsigned lane = 0; lane < warp.width(); ++lane) {
        if (mask.test(lane))
            out.push_back({lane, laneAddr(inst, warp, lane)});
    }
}

void
executeMem(const Instruction &inst, WarpState &warp, LaneMask mask,
           mem::MemoryImage &memory)
{
    siwi_assert(isa::isMemory(inst.op), "executeMem: not a mem op");
    for (unsigned lane = 0; lane < warp.width(); ++lane) {
        if (!mask.test(lane))
            continue;
        Addr addr = laneAddr(inst, warp, lane);
        if (inst.op == Opcode::LD)
            warp.setReg(lane, inst.dst, memory.read32(addr));
        else
            memory.write32(addr, warp.reg(lane, inst.sb));
    }
}

} // namespace siwi::exec

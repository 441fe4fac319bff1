/**
 * @file
 * A single decoded instruction of the SIMT ISA.
 */

#ifndef SIWI_ISA_INSTRUCTION_HH
#define SIWI_ISA_INSTRUCTION_HH

#include <string>

#include "common/types.hh"
#include "isa/opcode.hh"

namespace siwi::isa {

/**
 * One decoded instruction.
 *
 * A flat POD covering every operand form. Branches carry two PC
 * annotations filled by the compiler passes:
 *  - @ref reconv : the reconvergence point (immediate post-dominator),
 *    consumed by the baseline divergence stack exactly like Tesla's
 *    SSY marker;
 *  - SYNC instructions carry @ref div : the divergence point PCdiv
 *    (last instruction of the immediate dominator of the
 *    reconvergence point), the payload of the paper's selective
 *    synchronization barrier (section 3.3).
 */
struct Instruction
{
    Opcode op = Opcode::NOP;

    RegIdx dst = 0; //!< destination register
    RegIdx sa = 0;  //!< first source register (also address base / cond)
    RegIdx sb = 0;  //!< second source register (also store value)
    RegIdx sc = 0;  //!< third source register (mad addend, sel false-val)

    i32 imm = 0;          //!< immediate operand / memory offset
    bool b_is_imm = false;//!< second operand is @ref imm, not @ref sb

    SpecialReg sreg = SpecialReg::TID; //!< S2R source

    Pc target = invalid_pc; //!< branch target
    Pc reconv = invalid_pc; //!< reconvergence point (cond branches)
    Pc div = invalid_pc;    //!< SYNC payload: divergence point PCdiv

    /** Unit class this instruction is issued to. */
    UnitClass unit() const { return opInfo(op).unit; }

    /** True when a destination register is written. */
    bool writesDst() const { return opInfo(op).writes_dst; }

    /** Operand fields named by srcFields(). */
    enum SrcField : unsigned { SrcA = 1u, SrcB = 2u, SrcC = 4u };

    /**
     * Source operand fields actually read (a set of SrcField
     * bits), decoded from opInfo(op).form and b_is_imm. The one
     * description of operand decode: srcMask() and the validator
     * derive from it.
     */
    unsigned srcFields() const;

    /**
     * Source registers actually read, as a bit set (bit r set when
     * register r is read), for scoreboard comparison. Allocation
     * -free. @pre every read register is below num_arch_regs
     * (Program::validate checks this).
     */
    u64 srcMask() const;

    /** Render in the assembler syntax (without label prefix). */
    std::string toString() const;
};

} // namespace siwi::isa

#endif // SIWI_ISA_INSTRUCTION_HH

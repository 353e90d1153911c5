"""Opcode and operation-class definitions for the Alpha-like ISA.

The paper classifies integer-unit work into four device classes for the
power analysis of Section 4 (arithmetic / logical / shift / multiply,
Figure 4) plus memory and control operations whose *address or condition
calculation* also flows through the integer ALUs (Figure 1 "includes
address calculations").  :class:`OpClass` captures that taxonomy;
:class:`Opcode` enumerates the concrete instructions our workloads use.
"""

from __future__ import annotations

import enum


class OpClass(enum.Enum):
    """Functional class of an instruction, as used by the power model
    and by the packing rule "must perform the same operation"."""

    INT_ARITH = "arith"      # add/sub/compare — uses the adder
    INT_MULT = "mult"        # multiply — uses the Booth multiplier
    INT_LOGIC = "logic"      # bit-wise logic
    INT_SHIFT = "shift"      # shifts and byte extract/insert
    LOAD = "load"            # memory read (address calc uses the adder)
    STORE = "store"          # memory write (address calc uses the adder)
    BRANCH = "branch"        # conditional/unconditional control flow
    JUMP = "jump"            # indirect jumps: jmp/jsr/ret
    NOP = "nop"              # no work
    HALT = "halt"            # simulator stop


#: Classes whose computation runs on an integer ALU (Table 1: the four
#: integer ALUs perform "arithmetic, logical, shift, memory, branch ops").
ALU_CLASSES = frozenset(
    {
        OpClass.INT_ARITH,
        OpClass.INT_LOGIC,
        OpClass.INT_SHIFT,
        OpClass.LOAD,
        OpClass.STORE,
        OpClass.BRANCH,
        OpClass.JUMP,
    }
)

#: Classes the *operation packing* optimization may merge (Section 5.1:
#: "the arithmetic, logical, and shift operations", no multiplies).
PACKABLE_CLASSES = frozenset(
    {OpClass.INT_ARITH, OpClass.INT_LOGIC, OpClass.INT_SHIFT}
)


class Opcode(enum.Enum):
    """Concrete instructions.  Mnemonics follow Alpha AXP where one
    exists (``addq`` = add quadword, ``bis`` = bitwise or, ...)."""

    # -- arithmetic (adder) ------------------------------------------------
    ADDQ = "addq"        # rd = ra + rb
    SUBQ = "subq"        # rd = ra - rb
    ADDL = "addl"        # rd = sext32(ra + rb)
    SUBL = "subl"        # rd = sext32(ra - rb)
    S4ADDQ = "s4addq"    # rd = 4*ra + rb (scaled add, addressing idiom)
    S8ADDQ = "s8addq"    # rd = 8*ra + rb
    CMPEQ = "cmpeq"      # rd = (ra == rb)
    CMPLT = "cmplt"      # rd = (ra <s rb)
    CMPLE = "cmple"      # rd = (ra <=s rb)
    CMPULT = "cmpult"    # rd = (ra <u rb)
    CMPULE = "cmpule"    # rd = (ra <=u rb)
    LDA = "lda"          # rd = rb + disp  (address arithmetic only)
    LDAH = "ldah"        # rd = rb + disp*65536

    # -- multiply ----------------------------------------------------------
    MULQ = "mulq"        # rd = ra * rb (low 64 bits)
    MULL = "mull"        # rd = sext32(ra * rb)

    # -- logical -----------------------------------------------------------
    AND = "and"          # rd = ra & rb
    BIS = "bis"          # rd = ra | rb
    XOR = "xor"          # rd = ra ^ rb
    BIC = "bic"          # rd = ra & ~rb
    ORNOT = "ornot"      # rd = ra | ~rb
    EQV = "eqv"          # rd = ra ^ ~rb
    CMOVEQ = "cmoveq"    # rd = (ra == 0) ? rb : rd
    CMOVNE = "cmovne"    # rd = (ra != 0) ? rb : rd
    ZAPNOT = "zapnot"    # rd = ra with bytes not selected by rb zeroed

    # -- shift -------------------------------------------------------------
    SLL = "sll"          # rd = ra << rb[5:0]
    SRL = "srl"          # rd = ra >>u rb[5:0]
    SRA = "sra"          # rd = ra >>s rb[5:0]
    EXTBL = "extbl"      # rd = byte rb[2:0] of ra, zero-extended
    EXTWL = "extwl"      # rd = word at byte offset rb[2:0] of ra

    # -- memory ------------------------------------------------------------
    LDQ = "ldq"          # rd = mem64[rb + disp]
    LDL = "ldl"          # rd = sext32(mem32[rb + disp])
    LDWU = "ldwu"        # rd = zext16(mem16[rb + disp])
    LDBU = "ldbu"        # rd = zext8(mem8[rb + disp])
    STQ = "stq"          # mem64[rb + disp] = ra
    STL = "stl"          # mem32[rb + disp] = ra
    STW = "stw"          # mem16[rb + disp] = ra
    STB = "stb"          # mem8[rb + disp] = ra

    # -- control -----------------------------------------------------------
    BEQ = "beq"          # branch if ra == 0
    BNE = "bne"          # branch if ra != 0
    BLT = "blt"          # branch if ra <s 0
    BLE = "ble"          # branch if ra <=s 0
    BGT = "bgt"          # branch if ra >s 0
    BGE = "bge"          # branch if ra >=s 0
    BLBC = "blbc"        # branch if low bit of ra clear
    BLBS = "blbs"        # branch if low bit of ra set
    BR = "br"            # unconditional branch
    BSR = "bsr"          # branch to subroutine (rd gets return addr)
    JMP = "jmp"          # pc = rb
    JSR = "jsr"          # rd = return addr; pc = rb
    RET = "ret"          # pc = rb (predicted via return-address stack)

    # -- misc ----------------------------------------------------------------
    NOP = "nop"
    HALT = "halt"        # stop simulation (stand-in for syscall exit)


_ARITH = {
    Opcode.ADDQ, Opcode.SUBQ, Opcode.ADDL, Opcode.SUBL, Opcode.S4ADDQ,
    Opcode.S8ADDQ, Opcode.CMPEQ, Opcode.CMPLT, Opcode.CMPLE,
    Opcode.CMPULT, Opcode.CMPULE, Opcode.LDA, Opcode.LDAH,
}
_MULT = {Opcode.MULQ, Opcode.MULL}
_LOGIC = {
    Opcode.AND, Opcode.BIS, Opcode.XOR, Opcode.BIC, Opcode.ORNOT,
    Opcode.EQV, Opcode.CMOVEQ, Opcode.CMOVNE, Opcode.ZAPNOT,
}
_SHIFT = {Opcode.SLL, Opcode.SRL, Opcode.SRA, Opcode.EXTBL, Opcode.EXTWL}
_LOAD = {Opcode.LDQ, Opcode.LDL, Opcode.LDWU, Opcode.LDBU}
_STORE = {Opcode.STQ, Opcode.STL, Opcode.STW, Opcode.STB}
_BRANCH = {
    Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BLE, Opcode.BGT,
    Opcode.BGE, Opcode.BLBC, Opcode.BLBS, Opcode.BR, Opcode.BSR,
}
_JUMP = {Opcode.JMP, Opcode.JSR, Opcode.RET}

OP_CLASS: dict[Opcode, OpClass] = {}
for _op in Opcode:
    if _op in _ARITH:
        OP_CLASS[_op] = OpClass.INT_ARITH
    elif _op in _MULT:
        OP_CLASS[_op] = OpClass.INT_MULT
    elif _op in _LOGIC:
        OP_CLASS[_op] = OpClass.INT_LOGIC
    elif _op in _SHIFT:
        OP_CLASS[_op] = OpClass.INT_SHIFT
    elif _op in _LOAD:
        OP_CLASS[_op] = OpClass.LOAD
    elif _op in _STORE:
        OP_CLASS[_op] = OpClass.STORE
    elif _op in _BRANCH:
        OP_CLASS[_op] = OpClass.BRANCH
    elif _op in _JUMP:
        OP_CLASS[_op] = OpClass.JUMP
    elif _op is Opcode.NOP:
        OP_CLASS[_op] = OpClass.NOP
    else:
        OP_CLASS[_op] = OpClass.HALT

#: Conditional branches (taken/not-taken depends on a register value).
CONDITIONAL_BRANCHES = frozenset(
    {
        Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BLE,
        Opcode.BGT, Opcode.BGE, Opcode.BLBC, Opcode.BLBS,
    }
)

#: Control-flow instructions that save a return address.
CALL_OPS = frozenset({Opcode.BSR, Opcode.JSR})

#: Memory-access sizes in bytes for load/store opcodes.
MEM_SIZE: dict[Opcode, int] = {
    Opcode.LDQ: 8, Opcode.LDL: 4, Opcode.LDWU: 2, Opcode.LDBU: 1,
    Opcode.STQ: 8, Opcode.STL: 4, Opcode.STW: 2, Opcode.STB: 1,
}


def op_class(op: Opcode) -> OpClass:
    """Return the :class:`OpClass` of ``op``."""
    return OP_CLASS[op]


def is_control(op: Opcode) -> bool:
    """True if ``op`` redirects the PC (branch or jump class)."""
    cls = OP_CLASS[op]
    return cls is OpClass.BRANCH or cls is OpClass.JUMP

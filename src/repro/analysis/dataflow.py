"""Forward width-dataflow analysis over the ISA semantics.

A worklist fixpoint propagates per-register signed-value intervals
(:mod:`repro.analysis.intervals`) through the basic blocks of a
recovered CFG (:mod:`repro.analysis.cfg`).  Transfer functions mirror
:func:`repro.isa.semantics.compute` operation by operation — including
the Alpha details that drive the paper's width statistics: ``lda``
displacement arithmetic, ``ldah``'s 16-bit shift, the 32-bit
sign-extending ``addl``/``subl``/``mull``, sub-word loads, and the
``bsr``/``jsr`` return-address writes (exact code-address constants).

The analysis applies *branch-condition refinement* on CFG edges: the
taken edge of ``bgt t0, loop`` carries ``t0 >= 1`` into the target, the
fall-through carries ``t0 <= 0``.  Without it a down-counted loop
counter abstractly wraps below ``INT64_MIN`` and widens to TOP; with it
the counter stays provably narrow — the heart of the paper's static
narrow-width story.  The facts therefore describe *architected*
(non-speculative) instances, which always follow actual branch
outcomes; the differential oracle checks exactly those.

The product is one :class:`InstFacts` per *reachable* static
instruction: conservative intervals for the ALU operand pair and the
result, the derived narrow-at-16/33 proofs, and the static packing
eligibility used to upper-bound issue-time packing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import intervals as iv
from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.intervals import INT64_MAX, INT64_MIN, Interval
from repro.isa.instruction import INSTRUCTION_BYTES, Instruction, Program
from repro.isa.opcodes import Opcode, OpClass
from repro.isa.registers import NUM_INT_REGS, ZERO_REG
from repro.packing.pack import static_pack_candidate

#: Re-visits of a block before widening kicks in (plain joins first, so
#: short chains converge exactly; widening then forces termination).
_WIDEN_AFTER = 4

_ZERO = iv.ZERO

#: Result interval of each load flavour (memory is not modeled: the
#: zero-extended sub-word loads and the sign-extending ldl are bounded
#: by their width, a full quadword load is unknown).
_LOAD_RESULT = {
    Opcode.LDQ: iv.TOP,
    Opcode.LDL: iv.INT32,
    Opcode.LDWU: iv.WORD16,
    Opcode.LDBU: iv.BYTE,
}


def _refine_condition(op: Opcode, interval: Interval,
                      taken: bool) -> Interval | None:
    """Intersect ``interval`` with a branch condition's truth set
    (mirroring :func:`repro.isa.semantics.branch_taken`); None when
    the edge is infeasible.  This is what keeps loop counters bounded:
    the back edge of ``bgt t0, loop`` carries ``t0 >= 1``, so the
    counter cannot wrap below its exit bound in the abstract.
    """
    if op is Opcode.BEQ or op is Opcode.BNE:
        want_zero = (op is Opcode.BEQ) == taken
        if want_zero:
            return iv.ZERO if interval.contains(0) else None
        # a != 0: only endpoint-tight refinement is expressible.
        lo, hi = interval.lo, interval.hi
        if lo == 0 == hi:
            return None
        if lo == 0:
            lo = 1
        if hi == 0:
            hi = -1
        return Interval(lo, hi)
    if op is Opcode.BGT:
        bound = Interval(1, INT64_MAX) if taken else Interval(INT64_MIN, 0)
    elif op is Opcode.BGE:
        bound = Interval(0, INT64_MAX) if taken else Interval(INT64_MIN, -1)
    elif op is Opcode.BLT:
        bound = Interval(INT64_MIN, -1) if taken else Interval(0, INT64_MAX)
    elif op is Opcode.BLE:
        bound = Interval(INT64_MIN, 0) if taken else Interval(1, INT64_MAX)
    else:
        return interval    # blbc/blbs: the low bit says nothing in order
    lo = max(interval.lo, bound.lo)
    hi = min(interval.hi, bound.hi)
    if lo > hi:
        return None
    return Interval(lo, hi)


@dataclass(frozen=True)
class InstFacts:
    """Static facts proven for one reachable instruction."""

    index: int
    #: conservative intervals for the ALU operand pair (the same pair
    #: the feed records in ``DynInst.a_val``/``b_val``).
    a: Interval
    b: Interval
    #: conservative interval for the produced result (None when the
    #: instruction produces none: stores, branches, nop/halt).
    result: Interval | None
    #: static packing eligibility (see ``static_pack_candidate``)
    full_pack_possible: bool = False
    replay_pack_possible: bool = False

    @property
    def result_narrow16(self) -> bool:
        return self.result is not None and self.result.fits(16)

    @property
    def result_narrow33(self) -> bool:
        return self.result is not None and self.result.fits(33)

    @property
    def pack_possible(self) -> bool:
        return self.full_pack_possible or self.replay_pack_possible


class WidthAnalysis:
    """Abstract interpretation of one program; run :meth:`run` once."""

    def __init__(self, program: Program, cfg: CFG | None = None) -> None:
        self.program = program
        self.cfg = cfg or build_cfg(program)
        #: block leader -> per-register in-state (list of Interval)
        self.in_states: dict[int, list[Interval]] = {}
        #: per-instruction facts; None for unreachable instructions
        self.facts: list[InstFacts | None] = [None] * len(program)
        #: registers written by at least one reachable instruction
        self.written_regs: set[int] = set()
        #: registers read by at least one reachable instruction
        self.read_regs: set[int] = set()
        self._ran = False

    # -- operand resolution (mirrors Feed._operands / _mem_operands) ------

    def _operand_pair(self, inst: Instruction,
                      state: list[Interval]) -> tuple[Interval, Interval]:
        cls = inst.op_class
        if cls is OpClass.LOAD or cls is OpClass.STORE:
            base = self._read(state, inst.rb)
            disp = iv.const(inst.imm) if inst.imm is not None else _ZERO
            return base, disp
        if cls is OpClass.BRANCH:
            if inst.is_conditional:
                return self._read(state, inst.ra), _ZERO
            return _ZERO, _ZERO         # br/bsr carry no ALU operands
        if cls is OpClass.JUMP:
            return self._read(state, inst.rb), _ZERO
        if cls in (OpClass.NOP, OpClass.HALT):
            return _ZERO, _ZERO
        # Operate format: ra plus register-or-literal rb.
        a = self._read(state, inst.ra)
        if inst.rb is not None:
            b = self._read(state, inst.rb)
        elif inst.imm is not None:
            b = iv.const(inst.imm)
        else:
            b = _ZERO
        return a, b

    @staticmethod
    def _read(state: list[Interval], reg: int | None) -> Interval:
        if reg is None or reg == ZERO_REG:
            return _ZERO
        return state[reg]

    # -- transfer functions ----------------------------------------------

    def _compute(self, op: Opcode, a: Interval, b: Interval,
                 old_dest: Interval) -> Interval:
        """Abstract counterpart of :func:`repro.isa.semantics.compute`."""
        if op is Opcode.ADDQ or op is Opcode.LDA:
            return iv.add(a, b)
        if op is Opcode.SUBQ:
            return iv.sub(a, b)
        if op is Opcode.ADDL:
            return iv.add32(a, b)
        if op is Opcode.SUBL:
            return iv.sub32(a, b)
        if op is Opcode.S4ADDQ:
            return iv.scale_add(4, a, b)
        if op is Opcode.S8ADDQ:
            return iv.scale_add(8, a, b)
        if op is Opcode.LDAH:
            return iv.add(a, iv.mul(b, iv.const(1 << 16)))
        if op is Opcode.CMPEQ:
            if a.is_constant and b.is_constant:
                return iv.const(1 if a.lo == b.lo else 0)
            if a.hi < b.lo or b.hi < a.lo:
                return iv.const(0)
            return iv.BOOL
        if op is Opcode.CMPLT:
            if a.hi < b.lo:
                return iv.const(1)
            if a.lo >= b.hi:
                return iv.const(0)
            return iv.BOOL
        if op is Opcode.CMPLE:
            if a.hi <= b.lo:
                return iv.const(1)
            if a.lo > b.hi:
                return iv.const(0)
            return iv.BOOL
        if op in (Opcode.CMPULT, Opcode.CMPULE):
            # Unsigned compare of signed intervals: only refine when
            # both sides are provably non-negative.
            if a.lo >= 0 and b.lo >= 0:
                if op is Opcode.CMPULT and a.hi < b.lo:
                    return iv.const(1)
                if op is Opcode.CMPULT and a.lo >= b.hi:
                    return iv.const(0)
                if op is Opcode.CMPULE and a.hi <= b.lo:
                    return iv.const(1)
                if op is Opcode.CMPULE and a.lo > b.hi:
                    return iv.const(0)
            return iv.BOOL
        if op is Opcode.MULQ:
            return iv.mul(a, b)
        if op is Opcode.MULL:
            return iv.mul32(a, b)
        if op is Opcode.AND:
            return iv.bit_and(a, b)
        if op is Opcode.BIS:
            return iv.bit_or(a, b)
        if op is Opcode.XOR:
            return iv.bit_xor(a, b)
        if op is Opcode.BIC:
            return iv.bit_bic(a, b)
        if op is Opcode.ORNOT:
            return iv.bit_ornot(a, b)
        if op is Opcode.EQV:
            return iv.bit_eqv(a, b)
        if op is Opcode.CMOVEQ or op is Opcode.CMOVNE:
            return b.join(old_dest)
        if op is Opcode.ZAPNOT:
            return iv.zapnot(a, b)
        if op is Opcode.SLL:
            return iv.shl(a, b)
        if op is Opcode.SRL:
            return iv.shr_logical(a, b)
        if op is Opcode.SRA:
            return iv.shr_arith(a, b)
        if op is Opcode.EXTBL:
            return iv.BYTE
        if op is Opcode.EXTWL:
            return iv.WORD16
        return iv.TOP

    def _transfer(self, index: int, inst: Instruction,
                  state: list[Interval],
                  record: bool) -> None:
        """Apply instruction ``index`` to ``state`` in place; when
        ``record``, also derive and store its :class:`InstFacts`."""
        a, b = self._operand_pair(inst, state)
        cls = inst.op_class
        result: Interval | None = None

        if cls in (OpClass.INT_ARITH, OpClass.INT_MULT,
                   OpClass.INT_LOGIC, OpClass.INT_SHIFT):
            old_dest = self._read(state, inst.rd)
            result = self._compute(inst.opcode, a, b, old_dest)
        elif cls is OpClass.LOAD:
            result = _LOAD_RESULT[inst.opcode]
        elif inst.opcode in (Opcode.BSR, Opcode.JSR):
            # Return address: an exact code constant.
            return_pc = (self.program.base_pc
                         + (index + 1) * INSTRUCTION_BYTES)
            result = iv.const(return_pc)

        if result is not None and inst.rd is not None \
                and inst.rd != ZERO_REG:
            state[inst.rd] = result

        if record:
            a_may16 = a.may_fit(16)
            b_may16 = b.may_fit(16)
            full, replay = static_pack_candidate(
                cls, inst.opcode, a_may16, b_may16)
            self.facts[index] = InstFacts(
                index=index, a=a, b=b, result=result,
                full_pack_possible=full,
                replay_pack_possible=replay)
            for reg in inst.src_regs():
                self.read_regs.add(reg)
            dest = inst.dest_reg()
            if dest is not None:
                self.written_regs.add(dest)

    # -- fixpoint ---------------------------------------------------------

    def _edge_state(self, inst: Instruction, index: int,
                    state: list[Interval],
                    succ: int) -> list[Interval] | None:
        """Out-state pushed along the edge ``index -> succ``, with the
        branch condition folded in when ``inst`` is a conditional; None
        for a provably infeasible edge."""
        if inst.op_class is not OpClass.BRANCH or not inst.is_conditional:
            return state
        ra = inst.ra
        if ra is None or ra == ZERO_REG:
            return state
        if inst.target == index + 1:
            return state        # both edges coincide: nothing to learn
        taken = succ == inst.target
        refined = _refine_condition(inst.opcode, state[ra], taken)
        if refined is None:
            return None
        if refined == state[ra]:
            return state
        out = list(state)
        out[ra] = refined
        return out

    def run(self) -> "WidthAnalysis":
        """Run the worklist fixpoint, then record final facts."""
        if self._ran:
            return self
        self._ran = True
        program = self.program
        cfg = self.cfg
        if not len(program):
            return self

        # Architected entry state: every register starts at zero
        # (RegisterFile and Feed both zero-initialize).
        n_tracked = NUM_INT_REGS - 1    # R31 is hardwired, never stored
        entry_leader = cfg.leader_of[program.entry]
        self.in_states[entry_leader] = [_ZERO] * n_tracked + [_ZERO]
        visits: dict[int, int] = {}
        worklist = [entry_leader]

        while worklist:
            leader = worklist.pop()
            block = cfg.blocks[leader]
            state = list(self.in_states[leader])
            for i in range(block.start, block.end):
                self._transfer(i, program.instructions[i], state,
                               record=False)
            last_index = block.end - 1
            last_inst = program.instructions[last_index]
            for succ in block.succs:
                out = self._edge_state(last_inst, last_index, state, succ)
                if out is None:
                    continue            # provably infeasible edge
                incoming = self.in_states.get(succ)
                if incoming is None:
                    self.in_states[succ] = list(out)
                    worklist.append(succ)
                    continue
                joined = [old.join(new)
                          for old, new in zip(incoming, out)]
                if joined == incoming:
                    continue
                visits[succ] = visits.get(succ, 0) + 1
                if visits[succ] > _WIDEN_AFTER:
                    joined = [old.widen(new) for old, new
                              in zip(incoming, joined)]
                self.in_states[succ] = joined
                worklist.append(succ)

        # Final pass: derive per-instruction facts from the converged
        # in-states (reachable blocks only; the rest stay None).
        for leader, state in self.in_states.items():
            block = cfg.blocks[leader]
            state = list(state)
            for i in range(block.start, block.end):
                self._transfer(i, program.instructions[i], state,
                               record=True)
        return self

    # -- summaries --------------------------------------------------------

    def summary(self) -> dict:
        """Aggregate static statistics for reports."""
        reachable = [f for f in self.facts if f is not None]
        results = [f for f in reachable if f.result is not None]
        return {
            "instructions": len(self.program),
            "reachable": len(reachable),
            "results": len(results),
            "narrow16_results": sum(f.result_narrow16 for f in results),
            "narrow33_results": sum(f.result_narrow33 for f in results),
            "full_pack_candidates": sum(f.full_pack_possible
                                        for f in reachable),
            "replay_pack_candidates": sum(
                f.replay_pack_possible and not f.full_pack_possible
                for f in reachable),
            "unresolved_indirect": len(self.cfg.unresolved),
        }


def analyze(program: Program) -> WidthAnalysis:
    """Build the CFG, run the fixpoint, and return the analysis."""
    return WidthAnalysis(program).run()

"""True-path functional execution over compiled rows (``sim-fast`` mode).

The detailed fast core (:meth:`repro.fastsim.machine.FastMachine._loop`)
executes down mispredicted paths because wrong-path depth is a timing
outcome.  Two jobs never need that: counting a workload's dynamic length
(to resolve :data:`~repro.workloads.registry.WARMUP_HALF`) and the
fast-mode warmup of Section 3.2, which "updates only the caches and
branch predictors" while always following the correct path.  Both run
:func:`run_true_path`, one lean loop over the
:class:`~repro.fastsim.compile.CompiledProgram` rows — SimpleScalar's
``sim-fast`` beside its ``sim-outorder``.

Without warmers the loop only executes (registers, ``from_load`` flags,
width-tag codes, memory).  With warmers it also trains the I/D caches,
the direction predictor, the BTB and the RAS in the order the reference
:meth:`repro.core.machine.Machine.fast_forward` does: each instruction's
I-fetch, then its data access; ``predict`` then ``update`` on every
conditional branch; ``lookup``, ``push`` (JSR), ``update`` on JMP/JSR;
``pop`` then ``update`` on RET; ``push`` on BSR.
"""

from __future__ import annotations

from repro.asm.layout import PAGE_BYTES
from repro.bitwidth.tags import TAG_NARROW16, tag_code_of_value
from repro.fastsim.compile import CompiledProgram, compile_program
from repro.isa.instruction import Program
from repro.isa.registers import NUM_INT_REGS
from repro.memory.backing import MainMemory

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
_PAGE_MASK = PAGE_BYTES - 1


def run_true_path(cp: CompiledProgram, regs: list, tags: list, fload: list,
                  memory: MainMemory, index: int, limit: int | None, *,
                  detect_loads: bool = True, ifetch=None, daccess=None,
                  predictor=None, btb=None, ras=None
                  ) -> tuple[int, int, bool]:
    """Execute the correct path from instruction ``index`` for at most
    ``limit`` instructions (None: until HALT), updating ``regs`` /
    ``tags`` / ``fload`` / ``memory`` in place.

    Pass ``ifetch`` / ``daccess`` (latency callables) together with
    ``predictor`` / ``btb`` / ``ras`` to warm them as well.  Returns
    ``(executed, next_index, halted)``; HALT counts as one executed
    instruction and leaves ``next_index`` one past it.  Out-of-range
    indices execute the sentinel HALT row ``cp.n``.
    """
    n = cp.n
    base = cp.base_pc
    kinds = cp.kind
    frow = cp.frow
    target = cp.target
    rb31 = cp.rb31
    rd_w = cp.rd_w
    pages_get = memory._pages.get
    store = memory.store
    warm = ifetch is not None
    if warm:
        predict = predictor.predict
        update = predictor.update
    if limit is None:
        limit = -1                  # never reached: run until HALT
    elif limit <= 0:
        return 0, index, False
    raw = index
    executed = 0
    halted = False
    while executed != limit:
        cidx = raw if 0 <= raw < n else n
        kind = kinds[cidx]
        executed += 1
        if warm:
            pc = base + raw * 4
            ifetch(pc)
        if kind == 0:                                    # OPERATE
            ra, has_rb, rb, imm_u, _, fn, rd31, rd = frow[cidx]
            res = fn(regs[ra], regs[rb] if has_rb else imm_u, regs[rd31])
            if rd >= 0:
                regs[rd] = res
                fload[rd] = False
                high = res >> 16
                if high == 0 or high == 0xFFFFFFFFFFFF:
                    tags[rd] = 2
                else:
                    high = res >> 33
                    tags[rd] = 1 if high == 0 or high == 0x7FFFFFFF else 0
            raw += 1
        elif kind == 1:                                  # LOAD
            rb, imm_u, _, sz, is_ldl, rd = frow[cidx]
            addr = (regs[rb] + imm_u) & _MASK64
            off = addr & _PAGE_MASK
            if off + sz <= PAGE_BYTES:
                # MainMemory.load, inlined (same-page case)
                pg = pages_get(addr // PAGE_BYTES)
                res = (0 if pg is None
                       else int.from_bytes(pg[off:off + sz], "little"))
            else:
                res = memory.load(addr, sz)
            if is_ldl and res & 0x80000000:
                res += 0xFFFFFFFF00000000
            if rd >= 0:
                regs[rd] = res
                fload[rd] = True
                tags[rd] = tag_code_of_value(res) if detect_loads else 0
            if warm:
                daccess(addr, False)
            raw += 1
        elif kind == 3:                                  # COND branch
            ra, _, _, _, _, bfn, tgt = frow[cidx]
            taken = bfn(regs[ra])
            if warm:
                predict(pc, taken)
                update(pc, taken)
            raw = tgt if taken else raw + 1
        elif kind == 2:                                  # STORE
            rb, imm_u, _, ra, sz = frow[cidx]
            addr = (regs[rb] + imm_u) & _MASK64
            store(addr, regs[ra], sz)
            if warm:
                daccess(addr, True)
            raw += 1
        elif kind == 4 or kind == 5:                     # BR / BSR
            if kind == 5:
                return_pc = base + (raw + 1) * 4
                rd = rd_w[cidx]
                if rd >= 0:
                    regs[rd] = return_pc
                    fload[rd] = False
                    tags[rd] = tag_code_of_value(return_pc)
                if warm:
                    ras.push(return_pc)
            raw = target[cidx]
        elif kind == 9:                                  # NOP
            raw += 1
        elif kind == 10:                                 # HALT
            raw += 1
            halted = True
            break
        else:                                            # JMP / JSR / RET
            target_pc = regs[rb31[cidx]]
            return_pc = base + (raw + 1) * 4
            if warm:
                if kind == 8:
                    ras.pop()
                else:
                    btb.lookup(pc)
                    if kind == 7:
                        ras.push(return_pc)
                btb.update(pc, target_pc)
            if kind == 7:
                rd = rd_w[cidx]
                if rd >= 0:
                    regs[rd] = return_pc
                    fload[rd] = False
                    tags[rd] = tag_code_of_value(return_pc)
            raw = (target_pc - base) // 4
    return executed, raw, halted


def dynamic_count(program: Program) -> int:
    """Dynamic instruction count of ``program`` run to HALT from a cold
    state (HALT included, as the reference feed counts it)."""
    cp = compile_program(program)
    executed, _, _ = run_true_path(
        cp, [0] * NUM_INT_REGS, [TAG_NARROW16] * NUM_INT_REGS,
        [False] * NUM_INT_REGS, MainMemory(program.image), cp.entry, None)
    return executed

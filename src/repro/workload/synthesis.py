"""Synthesis of calibrated benchmark programs.

:func:`synthesize_program` turns a :class:`~repro.workload.spec.BenchmarkSpec`
into a :class:`~repro.program.cfg.Program` whose canonical code reproduces
the statistics the paper's experiments depend on.  The generator builds a
call graph of procedures; each procedure is a structured nest of loops,
if/else diamonds, call sites, and computed-goto switches; each basic block's
body is filled with an instruction mix that matches the published Table 1
percentages.

Register discipline (which makes the dependence analysis meaningful):

* ``$t0``–``$t7`` hold load results, assigned round-robin;
* ``$s0``–``$s3`` hold computed load base addresses, always defined
  immediately before the load they feed (pointer-style addressing);
* ``$v1`` is reserved for branch conditions, defined by a compare placed a
  controlled distance before the branch (the ``compare_adjacent_frac``
  knob, which drives the delay-slot fill statistics of Section 3.1);
* everything else uses the scratch pool ``$t8/$t9/$a0–$a3/$v0``, so random
  filler never perturbs a planned dependence.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import GP, RA, SP, ZERO, Register
from repro.program.basic_block import BasicBlock
from repro.program.cfg import Procedure, Program
from repro.utils.rng import DEFAULT_SEED, spawn_rng
from repro.workload.spec import BenchmarkSpec, Category

__all__ = ["synthesize_program"]

# Register pools (see module docstring).
_LOAD_DESTS = [Register(n) for n in range(8, 16)]  # $t0-$t7
_COMPUTED_BASES = [Register(n) for n in range(16, 20)]  # $s0-$s3
_SCRATCH = [Register(n) for n in (24, 25, 4, 5, 6, 7, 2)]  # $t8,$t9,$a0-$a3,$v0
_CONDITION = Register(3)  # $v1

_ALU_OPS = [Opcode.ADDU, Opcode.SUBU, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SLTU]
_FP_OPS = [Opcode.ADD_S, Opcode.MUL_S, Opcode.ADD_D, Opcode.MUL_D]

# Probability that a computed-goto switch terminates a construct, relative
# to the other construct kinds (kept rare, matching the ~10 % share of
# register-indirect CTIs once returns are counted).
_CONSTRUCT_WEIGHTS = {
    "loop": 0.25,
    "diamond": 0.33,
    "call": 0.16,
    "straight": 0.16,
    "switch": 0.06,
    "indirect_call": 0.04,
}


def _choice_cdf(weights: Sequence[float]) -> List[float]:
    """The inverse-CDF table ``rng.choice(n, p=p)`` builds for ``weights``.

    ``p`` is ``weights`` normalized by numpy, as the caller of ``choice``
    did; ``choice`` then divides the sequential cumulative sum by its
    last element.  ``bisect_right(cdf, rng.random())`` over the result
    draws the same index as ``choice`` from the same single uniform.
    """
    p = np.array(weights, dtype=np.float64)
    p /= p.sum()
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf.tolist()


_CONSTRUCT_NAMES = list(_CONSTRUCT_WEIGHTS)
_CONSTRUCT_CDF = _choice_cdf([_CONSTRUCT_WEIGHTS[n] for n in _CONSTRUCT_NAMES])

# Load positions are skewed toward the start of a block and stores toward
# the end (compilers schedule loads early, stores late).  The skew shapes
# the static epsilon distribution of Figure 7 without changing the mix:
# category *counts* per block are fixed by error-diffused rounding of the
# Table 1 percentages, so the dynamic mix converges even when a handful of
# hot loop blocks dominates the trace.
_LOAD_EARLY_WEIGHT = 1.5  # relative weight at block start, decaying to 0.5
_STORE_LATE_WEIGHT = 0.5  # relative weight at block start, growing to 1.5


def _sample_without_replacement(
    rng: np.random.Generator, p: Sequence[float], size: int
) -> List[int]:
    """``size`` distinct indices of ``p``, drawn with probabilities ``p``.

    A pure-Python replica of ``rng.choice(len(p), size, replace=False,
    p=p)`` for a normalized ``p``: the same indices in the same order,
    from the same draws, leaving ``rng`` in the same state.  Each round
    draws one uniform per missing index, zeroes the mass of the indices
    already found, inverts the sequential cumulative sum (normalized by
    its last element) with ``bisect_right``, and keeps each new index at
    its first occurrence in draw order — numpy's algorithm, without the
    per-call argument handling that dominated synthesis.  Pinned to
    ``Generator.choice`` by ``tests/workload/test_sampler.py``.
    """
    # The arguments choice() itself would reject.
    if not all(0.0 <= w < math.inf for w in p):
        raise ValueError("probabilities must be finite and non-negative")
    if sum(w > 0.0 for w in p) < size:
        raise ValueError("fewer non-zero entries in p than size")
    p = list(p)
    found: List[int] = []
    while len(found) < size:
        draws = rng.random(size - len(found)).tolist()
        for index in found:
            p[index] = 0.0
        cdf = list(accumulate(p))
        total = cdf[-1]
        cdf = [c / total for c in cdf]
        fresh: List[int] = []
        for draw in draws:
            index = bisect_right(cdf, draw)
            if index not in fresh:
                fresh.append(index)
        found.extend(fresh)
    return found


class _Synthesizer:
    """Stateful generator for a single benchmark program."""

    def __init__(self, spec: BenchmarkSpec, seed: int) -> None:
        self.spec = spec
        self.rng = spawn_rng(seed, spec.name, "code")
        self._block_counter = 0
        self._temp_cursor = 0
        self._base_cursor = 0
        shape = spec.shape
        body_pct = 100.0 - spec.branch_pct
        self._p_load = spec.load_pct / body_pct
        self._p_store = spec.store_pct / body_pct
        self._syscall_rate = spec.syscalls / (spec.instructions_millions * 1e6)
        # Error-diffusion accumulators: fractional category quotas carried
        # across blocks so the realized static mix converges exactly.
        self._load_quota = 0.0
        self._store_quota = 0.0
        self._syscall_quota = 0.0
        self._is_float = spec.category in (Category.SINGLE_FLOAT, Category.DOUBLE_FLOAT)
        self._n_procs = shape.procedures
        self._proc_names = [f"p{i}" for i in range(self._n_procs)]

    # -- naming helpers ----------------------------------------------------

    def _new_block_name(self, proc_index: int) -> str:
        name = f"{self._proc_names[proc_index]}.b{self._block_counter}"
        self._block_counter += 1
        return name

    def _entry_of(self, proc_index: int) -> str:
        return f"{self._proc_names[proc_index]}.entry"

    # -- register helpers ----------------------------------------------------

    def _next_temp(self) -> Register:
        reg = _LOAD_DESTS[self._temp_cursor % len(_LOAD_DESTS)]
        self._temp_cursor += 1
        return reg

    def _next_base(self) -> Register:
        reg = _COMPUTED_BASES[self._base_cursor % len(_COMPUTED_BASES)]
        self._base_cursor += 1
        return reg

    def _scratch(self) -> Register:
        return _SCRATCH[int(self.rng.integers(0, len(_SCRATCH)))]

    def _offset(self) -> int:
        return int(self.rng.integers(0, 2048)) * 4

    # -- instruction emission -------------------------------------------------

    def _alu(self, dest: Optional[Register] = None) -> Instruction:
        if self._is_float and self.rng.random() < 0.30:
            opcode = _FP_OPS[int(self.rng.integers(0, len(_FP_OPS)))]
        else:
            opcode = _ALU_OPS[int(self.rng.integers(0, len(_ALU_OPS)))]
        return Instruction(
            opcode,
            dest=dest if dest is not None else self._scratch(),
            sources=(self._scratch(), self._scratch()),
        )

    def _compare(self) -> Instruction:
        return Instruction(
            Opcode.SLT, dest=_CONDITION, sources=(self._scratch(), self._scratch())
        )

    def _draw_use_distance(self) -> Optional[int]:
        """Distance (0..2) to the load's first consumer, or None for >= 3."""
        probabilities = self.spec.memory.use_distance
        draw = self.rng.random()
        cumulative = 0.0
        for distance, p in enumerate(probabilities[:3]):
            cumulative += p
            if draw < cumulative:
                return distance
        return None

    def _load_instruction(self, base: Register) -> Instruction:
        return Instruction(
            Opcode.LW, dest=self._next_temp(), base=base, offset=self._offset()
        )

    def _store_instruction(self) -> Instruction:
        source = (
            _LOAD_DESTS[(self._temp_cursor - 1) % len(_LOAD_DESTS)]
            if self._temp_cursor and self.rng.random() < 0.5
            else self._scratch()
        )
        base = GP if self.rng.random() < 0.4 else SP
        return Instruction(Opcode.SW, sources=(source,), base=base, offset=self._offset())

    def _take_quota(self, attribute: str, expected: float, limit: int) -> int:
        """Error-diffused integer count for one category in one block."""
        quota = getattr(self, attribute) + expected
        count = min(limit, int(quota))
        setattr(self, attribute, quota - count)
        return count

    def _positions(self, free: List[int], count: int, length: int, early: bool) -> List[int]:
        """Sample ``count`` distinct slots, skewed early or late."""
        if count <= 0 or not free:
            return []
        span = max(1, length - 1)
        if early:
            raw = [max(_LOAD_EARLY_WEIGHT - i / span, 0.05) for i in free]
        else:
            raw = [max(_STORE_LATE_WEIGHT + i / span, 0.05) for i in free]
        # Normalized in numpy: its pairwise sum is not a sequential one,
        # and the sampler must see the very weights choice() was given.
        weights = np.array(raw)
        weights /= weights.sum()
        chosen = _sample_without_replacement(
            self.rng, weights.tolist(), min(count, len(free))
        )
        return sorted(free[c] for c in chosen)

    # -- block body construction ---------------------------------------------

    def _body(
        self, length: int, compare_distance: Optional[int], in_loop: bool = False
    ) -> List[Instruction]:
        """Build ``length`` body instructions.

        Category counts per block are fixed up front (error-diffused from
        the Table 1 mix), then assigned to slots: loads early, stores late,
        the branch-condition compare ``compare_distance`` slots before the
        end, load consumers at their drawn use distances, and ALU filler
        everywhere else.  Syscalls are placed in loop bodies only — loops
        dominate execution, so the *dynamic* syscall rate then tracks
        Table 1's Syscalls column.
        """
        roles: List[object] = ["alu"] * length
        if compare_distance is not None:
            roles[max(0, length - 1 - compare_distance)] = "cmp"
        free = [i for i, role in enumerate(roles) if role == "alu"]

        n_load = self._take_quota("_load_quota", self._p_load * length, len(free))
        load_slots = self._positions(free, n_load, length, early=True)
        for slot in load_slots:
            roles[slot] = "load"
        free = [i for i in free if roles[i] == "alu"]

        n_store = self._take_quota("_store_quota", self._p_store * length, len(free))
        for slot in self._positions(free, n_store, length, early=False):
            roles[slot] = "store"
        free = [i for i in free if roles[i] == "alu"]

        if in_loop:
            n_sys = self._take_quota(
                "_syscall_quota", self._syscall_rate * length, len(free)
            )
            for slot in free[:n_sys]:
                roles[slot] = "syscall"

        # Computed-base loads take their address from an ALU instruction a
        # short distance earlier (pointer-style addressing: small dynamic
        # c); consumers claim an ALU slot at the drawn use distance.
        memory = self.spec.memory
        consumers: Dict[int, int] = {}  # slot -> load slot it consumes
        computed_base: Dict[int, Register] = {}  # load slot -> base register
        for slot in load_slots:
            if self.rng.random() >= memory.stable_base_frac:
                for gap in (1, 2, 3):
                    writer = slot - gap
                    if writer >= 0 and roles[writer] == "alu":
                        base = self._next_base()
                        roles[writer] = ("basedef", base)
                        computed_base[slot] = base
                        break
            use = self._draw_use_distance()
            if use is not None:
                consumer_at = slot + 1 + use
                if consumer_at < length and roles[consumer_at] == "alu":
                    roles[consumer_at] = "consume"
                    consumers[consumer_at] = slot

        instructions: List[Instruction] = []
        last_load_dest: Dict[int, Register] = {}
        for slot, role in enumerate(roles):
            if role == "cmp":
                instructions.append(self._compare())
            elif isinstance(role, tuple):  # ("basedef", register)
                instructions.append(
                    Instruction(
                        Opcode.ADDU,
                        dest=role[1],
                        sources=(self._scratch(), self._scratch()),
                    )
                )
            elif role == "load":
                base = computed_base.get(slot)
                if base is None:
                    base = GP if self.rng.random() < 0.5 else SP
                inst = self._load_instruction(base)
                instructions.append(inst)
                last_load_dest[slot] = inst.dest  # type: ignore[assignment]
            elif role == "store":
                instructions.append(self._store_instruction())
            elif role == "syscall":
                instructions.append(Instruction(Opcode.SYSCALL))
            elif role == "consume":
                produced = last_load_dest.get(consumers[slot])
                if produced is None:  # pragma: no cover - defensive
                    instructions.append(self._alu())
                else:
                    instructions.append(
                        Instruction(
                            Opcode.ADDU,
                            dest=self._scratch(),
                            sources=(produced, self._scratch()),
                        )
                    )
            else:
                instructions.append(self._alu())
        return instructions

    def _block_length(self, in_loop: bool) -> int:
        mean = self.spec.shape.loop_body_mean if in_loop else self.spec.shape.cold_body_mean
        return max(1, 1 + int(self.rng.poisson(max(0.0, mean - 1.0))))

    def _compare_distance(self, body_length: int) -> int:
        if self.rng.random() < self.spec.shape.compare_adjacent_frac:
            return 0
        return min(body_length - 1, 1 + int(self.rng.geometric(0.5)))

    # -- constructs ----------------------------------------------------------

    def _make_block(
        self,
        proc_index: int,
        in_loop: bool,
        terminator: Optional[Instruction] = None,
        compare: bool = False,
        **block_attrs,
    ) -> BasicBlock:
        body_length = self._block_length(in_loop)
        compare_distance = self._compare_distance(body_length) if compare else None
        instructions = self._body(body_length, compare_distance, in_loop)
        if terminator is not None:
            instructions = instructions + [terminator]
        return BasicBlock(
            name=self._new_block_name(proc_index),
            instructions=instructions,
            **block_attrs,
        )

    def _branch(self, target: str) -> Instruction:
        opcode = Opcode.BNE if self.rng.random() < 0.5 else Opcode.BEQ
        return Instruction(opcode, sources=(_CONDITION, ZERO), target=target)

    def _constructs(
        self,
        proc_index: int,
        budget: int,
        depth: int,
        in_loop: bool,
        blocks: List[BasicBlock],
    ) -> int:
        """Append constructs to ``blocks`` until ``budget`` words are used."""
        used = 0
        while used < budget:
            kind = _CONSTRUCT_NAMES[bisect_right(_CONSTRUCT_CDF, self.rng.random())]
            if kind == "loop" and depth < 1:
                used += self._loop(proc_index, min(budget - used, budget // 2 + 8), depth, blocks)
            elif kind == "diamond":
                used += self._diamond(proc_index, in_loop, blocks)
            elif (
                kind == "call"
                and proc_index + 1 < self._n_procs
                and self._call_sites_left > 0
            ):
                used += self._call(proc_index, in_loop, blocks)
            elif (
                kind == "indirect_call"
                and proc_index + 2 < self._n_procs
                and self._call_sites_left > 0
            ):
                used += self._indirect_call(proc_index, in_loop, blocks)
            elif kind == "switch":
                used += self._switch(proc_index, in_loop, blocks)
            else:
                block = self._make_block(proc_index, in_loop)
                blocks.append(block)
                used += len(block)
        return used

    def _loop(
        self,
        proc_index: int,
        budget: int,
        depth: int,
        blocks: List[BasicBlock],
        bias: Optional[float] = None,
    ) -> int:
        """A do-while loop: body constructs followed by a backward latch."""
        start = len(blocks)
        used = 0
        body_budget = max(0, budget - int(self.spec.shape.loop_body_mean) - 1)
        if body_budget > 4 and self.rng.random() < 0.55:
            used += self._constructs(proc_index, body_budget, depth + 1, True, blocks)
        if len(blocks) == start:
            # Ensure the latch has something to branch back to (itself).
            head = self._make_block(proc_index, in_loop=True)
            blocks.append(head)
            used += len(head)
        target = blocks[start].name
        latch = self._make_block(
            proc_index,
            in_loop=True,
            terminator=self._branch(target),
            compare=True,
            taken_target=target,
            taken_bias=self.spec.shape.backward_bias if bias is None else bias,
            backward=True,
        )
        blocks.append(latch)
        return used + len(latch)

    def _diamond(self, proc_index: int, in_loop: bool, blocks: List[BasicBlock]) -> int:
        """if/else: condition block, then-arm (ends ``j``), else-arm, join."""
        # Names must exist before the blocks, because the condition block
        # branches forward to the else-arm and the then-arm jumps to the join.
        cond_name = self._new_block_name(proc_index)
        then_name = self._new_block_name(proc_index)
        else_name = self._new_block_name(proc_index)
        join_name = self._new_block_name(proc_index)

        cond_len = self._block_length(in_loop)
        cond = BasicBlock(
            name=cond_name,
            instructions=self._body(cond_len, self._compare_distance(cond_len), in_loop)
            + [self._branch(else_name)],
            taken_target=else_name,
            taken_bias=self.spec.shape.forward_bias,
            backward=False,
        )
        then_block = BasicBlock(
            name=then_name,
            instructions=self._body(self._block_length(in_loop), None, in_loop)
            + [Instruction(Opcode.J, target=join_name)],
            taken_target=join_name,
        )
        else_block = BasicBlock(
            name=else_name, instructions=self._body(self._block_length(in_loop), None, in_loop)
        )
        join_block = BasicBlock(
            name=join_name, instructions=self._body(max(1, self._block_length(in_loop) // 2), None, in_loop)
        )
        blocks.extend([cond, then_block, else_block, join_block])
        return sum(len(b) for b in (cond, then_block, else_block, join_block))

    def _guarded(self, proc_index: int, in_loop: bool, call_block: BasicBlock,
                 blocks: List[BasicBlock]) -> int:
        """Wrap a call block in a skip-branch guard.

        Unguarded calls inside loops make the call tree's branching factor
        explode (every loop iteration descends a whole subtree), which
        concentrates the trace on a handful of blocks.  The guard keeps the
        expected number of calls per procedure invocation near one: each
        driver-loop iteration then walks a call tree tens of procedures
        deep — a kiloword-scale instruction footprint re-referenced once
        per iteration, which is what gives the L1-I miss-rate-versus-size
        curves of Figure 3 their shape.
        """
        skip_bias = 0.92 if in_loop else 0.30
        continue_name = self._new_block_name(proc_index)
        guard_len = self._block_length(in_loop)
        guard = BasicBlock(
            name=self._new_block_name(proc_index),
            instructions=self._body(guard_len, self._compare_distance(guard_len), in_loop)
            + [self._branch(continue_name)],
            taken_target=continue_name,
            taken_bias=skip_bias,
            backward=False,
        )
        call_block.fallthrough = continue_name
        continuation = BasicBlock(
            name=continue_name, instructions=self._body(1, None, in_loop)
        )
        blocks.extend([guard, call_block, continuation])
        return len(guard) + len(call_block) + len(continuation)

    def _call(self, proc_index: int, in_loop: bool, blocks: List[BasicBlock]) -> int:
        callee = self._choose_callee(proc_index)
        self._call_sites_left -= 1
        call_block = self._make_block(
            proc_index,
            in_loop,
            terminator=Instruction(Opcode.JAL, target=self._entry_of(callee)),
            taken_target=self._entry_of(callee),
        )
        return self._guarded(proc_index, in_loop, call_block, blocks)

    def _indirect_call(self, proc_index: int, in_loop: bool, blocks: List[BasicBlock]) -> int:
        """A ``jalr`` call through a function pointer (2-4 candidates)."""
        count = int(self.rng.integers(2, 5))
        callees = sorted(
            {self._choose_callee(proc_index) for _ in range(count)}
        )
        self._call_sites_left -= 1
        call_block = self._make_block(
            proc_index,
            in_loop,
            terminator=Instruction(
                Opcode.JALR, dest=RA, base=Register(25)  # $t9, MIPS call convention
            ),
            indirect_targets=[self._entry_of(c) for c in callees],
        )
        return self._guarded(proc_index, in_loop, call_block, blocks)

    def _choose_callee(self, proc_index: int) -> int:
        shape = self.spec.shape
        if proc_index > 0 and self.rng.random() < shape.recursion_frac:
            return int(self.rng.integers(0, proc_index + 1))
        # Mostly nearby callees (call-graph locality), occasionally far.
        hop = 1 + int(self.rng.geometric(0.35))
        return min(self._n_procs - 1, proc_index + hop)

    def _switch(self, proc_index: int, in_loop: bool, blocks: List[BasicBlock]) -> int:
        """A computed goto (``jr $t9``) over 2-4 case blocks."""
        case_count = int(self.rng.integers(2, 5))
        case_names = [self._new_block_name(proc_index) for _ in range(case_count)]
        join_name = self._new_block_name(proc_index)

        dispatch_len = self._block_length(in_loop)
        dispatch_body = self._body(max(1, dispatch_len - 1), None, in_loop)
        # The jump register is computed right before the jr, so its delay
        # slots cannot be filled from before (matching real jump tables).
        dispatch_body.append(
            Instruction(Opcode.ADDU, dest=Register(25), sources=(self._scratch(), self._scratch()))
        )
        dispatch = BasicBlock(
            name=self._new_block_name(proc_index),
            instructions=dispatch_body + [Instruction(Opcode.JR, base=Register(25))],
            indirect_targets=case_names,
        )
        cases = []
        for i, case_name in enumerate(case_names):
            body = self._body(self._block_length(in_loop), None, in_loop)
            if i < case_count - 1:
                body.append(Instruction(Opcode.J, target=join_name))
                cases.append(
                    BasicBlock(name=case_name, instructions=body, taken_target=join_name)
                )
            else:
                cases.append(BasicBlock(name=case_name, instructions=body))
        join = BasicBlock(name=join_name, instructions=self._body(1, None, in_loop))
        blocks.extend([dispatch] + cases + [join])
        return sum(len(b) for b in [dispatch] + cases + [join])

    # -- procedures ----------------------------------------------------------

    def _procedure(self, proc_index: int, budget: int) -> Procedure:
        # At most a couple of call sites per procedure, each behind a skip
        # guard: keeps the dynamic call tree's branching factor near one.
        self._call_sites_left = int(self.rng.integers(1, 4))
        blocks: List[BasicBlock] = []
        prologue = BasicBlock(
            name=self._entry_of(proc_index),
            instructions=[
                Instruction(Opcode.ADDIU, dest=SP, sources=(SP,), imm=-32),
                Instruction(Opcode.SW, sources=(RA,), base=SP, offset=28),
            ],
        )
        blocks.append(prologue)
        body_budget = max(4, budget - len(prologue) - 4)
        if proc_index == 0:
            self._main_driver(blocks, body_budget)
        else:
            self._constructs(proc_index, body_budget, 0, False, blocks)
        epilogue = BasicBlock(
            name=self._new_block_name(proc_index),
            instructions=[
                Instruction(Opcode.LW, dest=RA, base=SP, offset=28),
                Instruction(Opcode.ADDIU, dest=SP, sources=(SP,), imm=32),
                Instruction(Opcode.JR, base=RA),
            ],
        )
        blocks.append(epilogue)
        self._fix_fallthroughs(blocks)
        return Procedure(name=self._proc_names[proc_index], blocks=blocks)

    def _main_driver(self, blocks: List[BasicBlock], budget: int) -> None:
        """The entry procedure: a long-running loop over spread-out calls.

        Real ``main`` functions are driver loops; making the entry loop
        call sites span the whole procedure table guarantees the dynamic
        instruction footprint covers the program instead of collapsing
        into one hot self-loop.
        """
        start = len(blocks)
        call_count = min(max(4, self._n_procs // 6), 12)
        for j in range(call_count):
            callee = 1 + (j * max(1, self._n_procs - 2)) // call_count
            callee = min(self._n_procs - 1, callee)
            block = self._make_block(
                0,
                in_loop=True,
                terminator=Instruction(Opcode.JAL, target=self._entry_of(callee)),
                taken_target=self._entry_of(callee),
            )
            blocks.append(block)
            if self.rng.random() < 0.5:
                self._diamond(0, in_loop=True, blocks=blocks)
        target = blocks[start].name
        latch = self._make_block(
            0,
            in_loop=True,
            terminator=self._branch(target),
            compare=True,
            taken_target=target,
            taken_bias=0.999,
            backward=True,
        )
        blocks.append(latch)

    @staticmethod
    def _fix_fallthroughs(blocks: Sequence[BasicBlock]) -> None:
        """Set each block's fall-through to the next block where required."""
        for current, following in zip(blocks, blocks[1:]):
            term = current.terminator
            if term is None or term.is_conditional_branch or term.info.links:
                current.fallthrough = following.name
            else:
                current.fallthrough = None
        last = blocks[-1]
        if last.terminator is None or last.terminator.is_conditional_branch:
            last.fallthrough = None  # end of procedure; executor restarts

    def build(self) -> Program:
        target_words = int(self.spec.shape.static_code_kw * 1024)
        raw = self.rng.lognormal(mean=0.0, sigma=0.8, size=self._n_procs)
        budgets = np.maximum(16, raw / raw.sum() * target_words).astype(int)
        procedures = [
            self._procedure(i, int(budgets[i])) for i in range(self._n_procs)
        ]
        program = Program(name=self.spec.name, procedures=procedures)
        self._trim_dangling_fallthroughs(program)
        program.validate()
        return program

    @staticmethod
    def _trim_dangling_fallthroughs(program: Program) -> None:
        """Last block of each procedure may not fall through anywhere."""
        for proc in program.procedures:
            final = proc.blocks[-1]
            if final.fallthrough is not None:
                final.fallthrough = None


def synthesize_program(spec: BenchmarkSpec, seed: int = DEFAULT_SEED) -> Program:
    """Synthesize the canonical program for one benchmark.

    The same ``(spec, seed)`` pair always produces the identical program, so
    traces and experiment results are reproducible across sessions.

    Args:
        spec: The benchmark specification (published stats + knobs).
        seed: Base seed; the benchmark name is mixed in automatically.

    Returns:
        A validated :class:`~repro.program.cfg.Program`.
    """
    if spec.shape.procedures < 2:
        raise WorkloadError(f"{spec.name}: need at least two procedures")
    return _Synthesizer(spec, seed).build()

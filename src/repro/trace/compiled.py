"""Lowering a :class:`~repro.program.cfg.Program` to flat arrays.

The trace executor takes millions of steps; doing so over dataclass objects
would dominate every experiment's run time.  :class:`CompiledProgram`
lowers the CFG once into parallel lists indexed by *block id* (the block's
position in layout order), which both the executor's inner loop and the
vectorized reference-stream expansion consume directly.
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import Dict, List

import numpy as np

from repro.errors import TraceError
from repro.isa.registers import RA
from repro.program.cfg import Program
from repro.program.dependence import cti_hoist_distance

__all__ = ["BlockKind", "CompiledProgram", "JUMP_UNFILLABLE_FRAC", "unfillable_jumps"]

# Step 1 of the paper's delay-slot procedure (Section 3.1): when the
# original MIPS compiler left a noop after a CTI, the post-processor sets
# r = 0 (the slot is unfillable from before).  Our simplified dependence
# model cannot see the alignment and liveness constraints that made ~46 %
# of real first slots unfillable — it would hoist almost every direct
# jump — so the same effect is modelled by declaring this fraction of
# direct jumps/calls unfillable, chosen deterministically per block.
# Calibrated against the paper's measured 54 % overall / 52 %
# predicted-taken first-slot fill rates.
JUMP_UNFILLABLE_FRAC = 0.45

_HASH_MULTIPLIER = 2654435761  # Knuth multiplicative hash


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, made immutable: it is shared by every translation file."""
    array.flags.writeable = False
    return array


def unfillable_jumps(block_ids: np.ndarray) -> np.ndarray:
    """Which of ``block_ids`` model a compiler-left noop after their jump.

    A deterministic pseudo-random choice, stable across runs: the block
    id's 32-bit multiplicative hash, as a fraction of 2**32, falls below
    :data:`JUMP_UNFILLABLE_FRAC`.  The arithmetic is exact in int64 and
    float64 (ids stay far below 2**32), so it matches the scalar rule
    ``((i * 2654435761) & 0xFFFFFFFF) / 2**32 < JUMP_UNFILLABLE_FRAC``.
    """
    hashed = (np.asarray(block_ids, dtype=np.int64) * _HASH_MULTIPLIER) & 0xFFFFFFFF
    return hashed / 2**32 < JUMP_UNFILLABLE_FRAC


class BlockKind(enum.IntEnum):
    """Terminator classification of a block, as small ints for speed."""

    FALLTHROUGH = 0  # no terminator
    CONDITIONAL = 1  # beq/bne/...
    JUMP = 2  # j
    CALL = 3  # jal
    RETURN = 4  # jr $ra
    COMPUTED_GOTO = 5  # jr $tN
    INDIRECT_CALL = 6  # jalr


class CompiledProgram:
    """Array form of a program, indexed by block id (layout order).

    Attributes (all parallel, one entry per block):
        names: block names.
        lengths: canonical instruction counts.
        kinds: :class:`BlockKind` values.
        taken_ids: block id of the taken target (-1 when none/dynamic).
        fall_ids: block id of the fall-through / call continuation (-1 none).
        biases: taken probability for conditional terminators.
        indirect_ids: candidate target ids for computed gotos / indirect
            calls (empty list otherwise).
        indirect_offsets / indirect_flat: the same candidates in CSR form
            (offsets int64, flat int32) for flat-array consumers such as
            the compiled trace kernel.
        load_counts / store_counts / cti_counts / syscall_counts: static
            per-block instruction category counts.

    The delay-slot facts of each block's terminating CTI that do not
    depend on the slot count ``b`` — ``has_cti``, ``hoist``,
    ``predicted_taken`` and ``indirect`` — are built lazily, once per
    program, and shared by every :class:`~repro.sched.translation.
    TranslationFile` over it.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        blocks = list(program.blocks())
        if not blocks:
            raise TraceError(f"program {program.name!r} has no blocks")
        self.index: Dict[str, int] = {b.name: i for i, b in enumerate(blocks)}
        self.names: List[str] = [b.name for b in blocks]
        n = len(blocks)
        self.taken_ids = np.full(n, -1, dtype=np.int32)
        self.fall_ids = np.full(n, -1, dtype=np.int32)
        self.indirect_ids: List[List[int]] = [[] for _ in range(n)]
        lengths: List[int] = []
        kinds: List[int] = []
        counts: List[List[int]] = []

        for i, block in enumerate(blocks):
            lengths.append(len(block))
            loads = stores = ctis = syscalls = 0
            for inst in block.instructions:
                op = inst.opcode
                if op.is_load:
                    loads += 1
                elif op.is_store:
                    stores += 1
                elif op.is_cti:
                    ctis += 1
                elif op.is_syscall:
                    syscalls += 1
            counts.append([loads, stores, ctis, syscalls])
            kind = self._classify(block)
            kinds.append(kind)
            if block.taken_target is not None:
                self.taken_ids[i] = self.index[block.taken_target]
            if block.fallthrough is not None:
                self.fall_ids[i] = self.index[block.fallthrough]
            if block.indirect_targets:
                self.indirect_ids[i] = [self.index[t] for t in block.indirect_targets]
            if (
                kind in (BlockKind.COMPUTED_GOTO, BlockKind.INDIRECT_CALL)
                and not self.indirect_ids[i]
            ):
                raise TraceError(
                    f"block {block.name!r}: register-indirect CTI needs "
                    "indirect_targets (or $ra for a return)"
                )

        self.lengths = np.array(lengths, dtype=np.int32)
        self.kinds = np.array(kinds, dtype=np.int8)
        self.biases = np.array([b.taken_bias for b in blocks], dtype=np.float64)
        (
            self.load_counts,
            self.store_counts,
            self.cti_counts,
            self.syscall_counts,
        ) = np.array(counts, dtype=np.int32).T.copy()

        self.entry_id = self.index[program.entry]

        # CSR form of indirect_ids for flat-array consumers (the compiled
        # trace kernel): block i's candidates are
        # indirect_flat[indirect_offsets[i]:indirect_offsets[i + 1]].
        counts = np.fromiter(
            (len(t) for t in self.indirect_ids), dtype=np.int64, count=n
        )
        self.indirect_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.indirect_offsets[1:])
        self.indirect_flat = np.fromiter(
            (t for targets in self.indirect_ids for t in targets),
            dtype=np.int32,
            count=int(self.indirect_offsets[-1]),
        )

        # Walk memoization, filled lazily by TraceExecutor: superblock
        # chains and per-outcome decision edges are pure functions of the
        # compiled arrays, so every executor over this program (whatever
        # its seed) shares one cache instead of rebuilding it.
        self.chain_cache: Dict[int, object] = {}
        self.cond_edge_cache: Dict[int, tuple] = {}
        self.indirect_edge_cache: Dict[int, list] = {}

    @staticmethod
    def _classify(block) -> BlockKind:
        term = block.terminator
        if term is None:
            return BlockKind.FALLTHROUGH
        if term.is_conditional_branch:
            return BlockKind.CONDITIONAL
        if term.is_register_indirect:
            if term.opcode.links:
                return BlockKind.INDIRECT_CALL
            if term.base == RA and not block.indirect_targets:
                return BlockKind.RETURN
            return BlockKind.COMPUTED_GOTO
        if term.opcode.links:
            return BlockKind.CALL
        return BlockKind.JUMP

    def __len__(self) -> int:
        return len(self.names)

    # -- slot-independent delay-slot facts (Section 3.1) ---------------------

    @cached_property
    def has_cti(self) -> np.ndarray:
        """Blocks that end in a CTI."""
        return _read_only(self.kinds != BlockKind.FALLTHROUGH)

    @cached_property
    def indirect(self) -> np.ndarray:
        """Blocks whose CTI is register-indirect (returns, ``jr``, ``jalr``)."""
        register_indirect = [
            BlockKind.RETURN,
            BlockKind.COMPUTED_GOTO,
            BlockKind.INDIRECT_CALL,
        ]
        return _read_only(np.isin(self.kinds, register_indirect))

    @cached_property
    def predicted_taken(self) -> np.ndarray:
        """Step 3: the static prediction of each block's CTI.

        Backward conditional branches (target at or before the block in
        layout order) and every unconditional CTI are predicted taken;
        forward branches and blocks without a CTI are not.
        """
        conditional = self.kinds == BlockKind.CONDITIONAL
        backward = (self.taken_ids >= 0) & (
            self.taken_ids <= np.arange(len(self), dtype=np.int32)
        )
        return _read_only(np.where(conditional, backward, self.has_cti))

    @cached_property
    def hoist(self) -> np.ndarray:
        """Step 2: how far each block's CTI can be hoisted (the cap on ``r``).

        :func:`~repro.program.dependence.cti_hoist_distance` of the block's
        instructions, except 0 for blocks without a CTI and for the direct
        jumps/calls :func:`unfillable_jumps` marks (step 1).  A translation
        for ``b`` slots fills ``r = min(b, hoist)`` of them from before.
        """
        hoist = np.zeros(len(self), dtype=np.int32)
        direct = np.isin(self.kinds, [BlockKind.JUMP, BlockKind.CALL])
        unfillable = direct & unfillable_jumps(np.arange(len(self)))
        for block_id in np.flatnonzero(self.has_cti & ~unfillable).tolist():
            hoist[block_id] = cti_hoist_distance(self.block_instructions(block_id))
        return _read_only(hoist)

    @property
    def static_words(self) -> int:
        """Canonical static code size in words."""
        return int(self.lengths.sum())

    @property
    def canonical_addresses(self) -> np.ndarray:
        """Start byte address of each block in the canonical layout."""
        if not hasattr(self, "_canonical_addresses"):
            starts = np.concatenate(([0], np.cumsum(self.lengths)[:-1]))
            self._canonical_addresses = (
                self.program.text_base + starts * 4
            ).astype(np.int64)
        return self._canonical_addresses

    def block_instructions(self, block_id: int):
        """The instruction list of a block (for analyses, not hot paths)."""
        return self.program.block(self.names[block_id]).instructions

"""Reference delay-slot scheduler: the per-block, per-slot object walk.

This is the Section 3.1 procedure written the direct way — one
:class:`~repro.sched.branch_schedule.CtiSchedule` per CTI block, built
for one slot count at a time from the block's :class:`Instruction`
objects — and a translation file assembled from those schedules.  The
production path computes the slot-independent facts once per program
as arrays (:class:`~repro.trace.compiled.CompiledProgram`) and derives
every translation with numpy; the tests hold it equal to this oracle.
"""

from typing import Dict

import numpy as np

from repro.program.dependence import cti_hoist_distance
from repro.sched.branch_schedule import CtiSchedule
from repro.trace.compiled import JUMP_UNFILLABLE_FRAC, BlockKind, CompiledProgram
from repro.utils.units import WORD_BYTES


def jump_is_unfillable(block_id: int) -> bool:
    """Step 1's deterministic pseudo-random choice, one block at a time."""
    return ((block_id * 2654435761) & 0xFFFFFFFF) / 2**32 < JUMP_UNFILLABLE_FRAC


def is_indirect(compiled: CompiledProgram, block_id: int) -> bool:
    return compiled.kinds[block_id] in (
        BlockKind.RETURN,
        BlockKind.COMPUTED_GOTO,
        BlockKind.INDIRECT_CALL,
    )


def predicted_taken(compiled: CompiledProgram, block_id: int) -> bool:
    """Step 3: backward branches and unconditional CTIs predicted taken."""
    if compiled.kinds[block_id] != BlockKind.CONDITIONAL:
        return True
    target = compiled.taken_ids[block_id]
    return bool(target >= 0 and target <= block_id)


def oracle_schedules(compiled: CompiledProgram, slots: int) -> Dict[int, CtiSchedule]:
    """One schedule per CTI block for ``slots`` delay slots."""
    schedules: Dict[int, CtiSchedule] = {}
    for block_id, kind in enumerate(compiled.kinds):
        if kind == BlockKind.FALLTHROUGH:
            continue
        if slots == 0:
            hoist = 0
        elif kind in (BlockKind.JUMP, BlockKind.CALL) and jump_is_unfillable(block_id):
            hoist = 0
        else:
            hoist = cti_hoist_distance(compiled.block_instructions(block_id))
        r = min(slots, hoist)
        schedules[block_id] = CtiSchedule(
            block_id,
            r=r,
            s=slots - r,
            predicted_taken=predicted_taken(compiled, block_id),
            indirect=is_indirect(compiled, block_id),
        )
    return schedules


def oracle_translation(compiled: CompiledProgram, slots: int) -> Dict[str, np.ndarray]:
    """The translation-file arrays, filled in from the per-CTI schedules."""
    n = len(compiled)
    arrays = {
        "r_values": np.zeros(n, dtype=np.int32),
        "s_values": np.zeros(n, dtype=np.int32),
        "skip_words": np.zeros(n, dtype=np.int32),
        "predicted_taken": np.zeros(n, dtype=bool),
        "indirect": np.zeros(n, dtype=bool),
    }
    growth = np.zeros(n, dtype=np.int32)
    for block_id, schedule in oracle_schedules(compiled, slots).items():
        arrays["r_values"][block_id] = schedule.r
        arrays["s_values"][block_id] = schedule.s
        arrays["skip_words"][block_id] = schedule.skip
        arrays["predicted_taken"][block_id] = schedule.predicted_taken
        arrays["indirect"][block_id] = schedule.indirect
        growth[block_id] = schedule.growth
    arrays["new_lengths"] = compiled.lengths + growth
    starts = np.concatenate(([0], np.cumsum(arrays["new_lengths"])[:-1]))
    arrays["new_addresses"] = (
        compiled.program.text_base + starts * WORD_BYTES
    ).astype(np.int64)
    return arrays

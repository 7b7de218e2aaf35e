"""The delay-slot insertion procedure of Section 3.1.

For an architecture with ``b`` branch delay slots, each CTI gets:

1. ``r`` slots filled with instructions hoisted from before the CTI —
   limited by the data dependences of its condition/target registers
   (step 1+2 of the paper's procedure; our canonical code has no compiler
   noops, so the dependence analysis subsumes step 1);
2. a static prediction: backward branches and unconditional jumps are
   predicted taken, forward branches not-taken (step 3);
3. ``s = b - r`` remaining slots: for predicted-taken CTIs they hold
   *replicated* instructions from the target path (code growth ``s``); for
   predicted-not-taken CTIs they hold the sequential instructions already
   in place (no growth); for register-indirect jumps they hold noops
   (growth ``s``, and nothing can be skipped at the target) — step 4.

Only the ``r``/``s`` split depends on ``b``; the hoist distances and
predictions are computed once per program by
:class:`~repro.trace.compiled.CompiledProgram`.  :func:`delay_slot_split`
turns them into per-block arrays for
:class:`~repro.sched.translation.TranslationFile`;
:func:`schedule_ctis` is the same result as one :class:`CtiSchedule` per
CTI, for the static fill statistics of Section 3.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.errors import ScheduleError
from repro.trace.compiled import CompiledProgram

__all__ = [
    "CtiSchedule",
    "delay_slot_split",
    "schedule_ctis",
    "code_expansion_pct",
    "fill_statistics",
]


def delay_slot_split(
    compiled: CompiledProgram, slots: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-block ``(r, s)`` for ``slots`` branch delay slots.

    ``r = min(slots, hoist)`` slots are filled from before the CTI and
    the other ``s = slots - r`` as step 3/4 dictate; both are 0 for
    blocks without a CTI.  Only this step depends on ``slots``: the
    hoist distances and predictions are the program's own
    (:class:`~repro.trace.compiled.CompiledProgram`), computed once.
    """
    if slots < 0:
        raise ScheduleError(f"number of delay slots must be >= 0, got {slots}")
    r = np.minimum(compiled.hoist, slots).astype(np.int32)
    s = np.where(compiled.has_cti, slots - r, 0).astype(np.int32)
    return r, s


@dataclass(frozen=True)
class CtiSchedule:
    """Delay-slot schedule of one block's terminating CTI.

    Attributes:
        block_id: Block id in the compiled program.
        r: Slots filled from before the CTI (always useful).
        s: Remaining slots (``b - r``).
        predicted_taken: Static prediction (True for backward conditionals
            and all direct jumps/calls; also True for register-indirect
            CTIs, which always transfer control).
        indirect: Register-indirect CTI — its ``s`` slots are noops.
        growth: Words of static code growth for this block (``s`` for
            predicted-taken and indirect CTIs, else 0).
        skip: Instructions of the target block already executed in the
            delay slots (``s`` for predicted-taken direct CTIs, else 0);
            the trace expander adds this to the target's start address.
    """

    block_id: int
    r: int
    s: int
    predicted_taken: bool
    indirect: bool

    @property
    def growth(self) -> int:
        return self.s if (self.predicted_taken or self.indirect) else 0

    @property
    def skip(self) -> int:
        return self.s if (self.predicted_taken and not self.indirect) else 0


def schedule_ctis(compiled: CompiledProgram, slots: int) -> Dict[int, CtiSchedule]:
    """Schedule every terminating CTI for ``slots`` branch delay slots.

    Returns a mapping from block id to its schedule; blocks without a
    terminating CTI are absent.  A per-CTI view of
    :func:`delay_slot_split` and the program's prediction flags, for
    analyses such as :func:`fill_statistics`.
    """
    r, s = delay_slot_split(compiled, slots)
    taken = compiled.predicted_taken
    indirect = compiled.indirect
    return {
        block_id: CtiSchedule(
            block_id,
            r=int(r[block_id]),
            s=int(s[block_id]),
            predicted_taken=bool(taken[block_id]),
            indirect=bool(indirect[block_id]),
        )
        for block_id in np.flatnonzero(compiled.has_cti).tolist()
    }


def code_expansion_pct(
    compiled: CompiledProgram, schedules: Dict[int, CtiSchedule]
) -> float:
    """Static code growth in percent (Table 2's right column)."""
    base = compiled.static_words
    grown = base + sum(s.growth for s in schedules.values())
    return 100.0 * (grown - base) / base


def fill_statistics(schedules: Dict[int, CtiSchedule], slots: int) -> Dict[str, float]:
    """Static fill-rate aggregates the paper quotes in Section 3.1.

    Returns (all as fractions, not percent):

    * ``first_slot_filled`` — CTIs whose first delay slot is filled from
      before the CTI (the paper measured 0.54);
    * ``first_slot_filled_taken`` — the same among predicted-taken CTIs
      (the paper measured 0.52);
    * ``slots_from_before`` — fraction of all delay slots filled from
      before (the paper cites 0.5-0.8);
    * ``predicted_taken`` — fraction of CTIs statically predicted taken
      (the paper measured ~0.60);
    * ``indirect`` — fraction of CTIs that are register-indirect (~0.10).
    """
    if slots <= 0:
        raise ScheduleError("fill statistics need at least one delay slot")
    if not schedules:
        raise ScheduleError("no CTIs to analyse")
    all_scheds = list(schedules.values())
    taken = [s for s in all_scheds if s.predicted_taken]
    return {
        "first_slot_filled": float(np.mean([s.r >= 1 for s in all_scheds])),
        "first_slot_filled_taken": float(np.mean([s.r >= 1 for s in taken]))
        if taken
        else 0.0,
        "slots_from_before": float(np.mean([s.r / slots for s in all_scheds])),
        "predicted_taken": len(taken) / len(all_scheds),
        "indirect": float(np.mean([s.indirect for s in all_scheds])),
    }

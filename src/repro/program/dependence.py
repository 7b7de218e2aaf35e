"""Within-block data-dependence analysis.

Both delay-slot schedulers ask the same kinds of questions:

* the branch scheduler (Section 3.1, step 2) needs to know how far the
  terminating CTI can be hoisted over its predecessors — limited by the
  instructions that define the CTI's condition/target registers;
* the load scheduler (Section 3.2) needs, for each load, the number of
  *independent* instructions around it that could fill its delay slots, and
  the distance to the first consumer of its result.

Dependences considered are true (flow) dependences through registers plus a
memory ordering constraint: a load may move past a store only when their
addresses provably differ.  The paper's "best static scheduling" assumes
*perfect memory disambiguation*, which we model by comparing (base register,
offset) pairs symbolically — identical pairs conflict, anything else is
assumed disjoint.  Output dependences through registers are ignored for the
CTI hoist (the CTI writes at most the link register) and respected where
they matter in the load analysis.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.isa.instruction import Instruction
from repro.isa.registers import Register

__all__ = [
    "flow_dependences",
    "cti_hoist_distance",
    "independent_prefix_length",
    "memory_conflict",
    "use_distance",
]


def memory_conflict(a: Instruction, b: Instruction) -> bool:
    """True if two memory instructions may touch the same word.

    With perfect disambiguation, accesses conflict only when both are memory
    operations, at least one is a store, and the symbolic addresses (base
    register + offset) are identical.
    """
    if not (a.is_memory and b.is_memory):
        return False
    if a.is_load and b.is_load:
        return False
    return a.base == b.base and a.offset == b.offset


def flow_dependences(instructions: Sequence[Instruction]) -> List[Tuple[int, int]]:
    """Return all (producer, consumer) index pairs with a true dependence.

    A pair (i, j), i < j, is reported when instruction j reads a register
    that instruction i is the most recent writer of, or when i and j have a
    memory conflict.
    """
    deps: List[Tuple[int, int]] = []
    last_writer: Dict[Register, int] = {}
    memory_ops: List[int] = []
    for j, inst in enumerate(instructions):
        for reg in inst.uses:
            if reg in last_writer:
                deps.append((last_writer[reg], j))
        if inst.is_memory:
            for i in memory_ops:
                if memory_conflict(instructions[i], inst):
                    deps.append((i, j))
            memory_ops.append(j)
        for reg in inst.defs:
            last_writer[reg] = j
    return sorted(set(deps))


def cti_hoist_distance(instructions: Sequence[Instruction]) -> int:
    """How many predecessors the terminating CTI can be hoisted over.

    This is the paper's ``r``: the number of instructions immediately before
    the CTI that (a) do not define a register the CTI reads and (b) are safe
    to execute in a delay slot — i.e. are not CTIs or syscalls themselves.
    Only the CTI moves; the other instructions keep their relative order
    (Section 3.1, step 2: "No attempt is made to rearrange the ordering of
    any other instructions").

    Returns 0 when the block does not end in a CTI.
    """
    if not instructions or not instructions[-1].is_cti:
        return 0
    cti = instructions[-1]
    needed: Set[Register] = set(cti.uses)
    distance = 0
    for inst in reversed(instructions[:-1]):
        if inst.is_cti or inst.is_syscall:
            break
        if inst.defs & needed:
            break
        distance += 1
    return distance


def independent_prefix_length(
    instructions: Sequence[Instruction], position: int
) -> int:
    """Number of instructions before ``position`` independent of it.

    Counts the maximal run of instructions immediately preceding
    ``instructions[position]`` that the instruction at ``position`` does not
    depend on (registers or memory).  This is the within-block scheduling
    headroom ``c`` available for moving a load earlier.
    """
    target = instructions[position]
    needed: Set[Register] = set(target.uses)
    count = 0
    for inst in reversed(instructions[:position]):
        if inst.is_cti or inst.is_syscall:
            break
        if inst.defs & needed:
            break
        if memory_conflict(inst, target):
            break
        count += 1
    return count


def use_distance(
    instructions: Sequence[Instruction], position: int, horizon: int
) -> int:
    """Distance from ``position`` to the first consumer of its result.

    Scans forward up to ``horizon`` instructions.  Returns the number of
    instructions strictly between the producer and its first consumer (the
    paper's ``d``); returns ``horizon`` when no consumer (or overwrite of
    the produced register) is found within the window.
    """
    produced = instructions[position].defs
    if not produced:
        return horizon
    for ahead in range(1, horizon + 1):
        index = position + ahead
        if index >= len(instructions):
            return horizon
        inst = instructions[index]
        if inst.uses & produced:
            return ahead - 1
        if inst.defs & produced:
            # Result dead before use within the window: no consumer.
            return horizon
    return horizon

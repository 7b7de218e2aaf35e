"""Static program statistics: the generator's own report card.

Everything DESIGN.md claims about the synthesized programs (block-length
distributions, CTI composition, register-indirect share, static density)
is measurable; this module measures it.  Used by tests to keep the
generator calibrated and by ``python -m repro.workload.inspect`` for
interactive inspection.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict

from repro.program.cfg import Program
from repro.trace.compiled import BlockKind, CompiledProgram

__all__ = ["ProgramStatistics", "analyze_program"]


@dataclass
class ProgramStatistics:
    """Static characteristics of one canonical program.

    Attributes:
        static_words: Code size in instructions.
        block_count: Number of basic blocks.
        procedure_count: Number of procedures.
        mean_block_length: Static mean block length.
        block_length_histogram: length -> block count.
        category_counts: instruction category -> static count.
        cti_kinds: terminator kind name -> count (conditional, jump, ...).
        register_indirect_frac: Share of CTIs that are register-indirect.
        conditional_frac: Share of CTIs that are conditional branches.
        backward_conditional_frac: Share of conditional branches whose
            taken target lies at or before them in layout order.
    """

    static_words: int
    block_count: int
    procedure_count: int
    mean_block_length: float
    block_length_histogram: Dict[int, int] = field(default_factory=dict)
    category_counts: Dict[str, int] = field(default_factory=dict)
    cti_kinds: Dict[str, int] = field(default_factory=dict)
    register_indirect_frac: float = 0.0
    conditional_frac: float = 0.0
    backward_conditional_frac: float = 0.0

    def summary(self) -> str:
        """A short human-readable report."""
        lines = [
            f"code: {self.static_words} words in {self.block_count} blocks "
            f"across {self.procedure_count} procedures "
            f"(mean block {self.mean_block_length:.2f})",
            "mix: "
            + ", ".join(
                f"{name} {count}" for name, count in sorted(self.category_counts.items())
            ),
            "CTIs: "
            + ", ".join(f"{k} {v}" for k, v in sorted(self.cti_kinds.items()))
            + f"; {100 * self.conditional_frac:.0f}% conditional "
            f"({100 * self.backward_conditional_frac:.0f}% backward), "
            f"{100 * self.register_indirect_frac:.0f}% register-indirect",
        ]
        return "\n".join(lines)


_KIND_NAMES = {
    BlockKind.CONDITIONAL: "conditional",
    BlockKind.JUMP: "jump",
    BlockKind.CALL: "call",
    BlockKind.RETURN: "return",
    BlockKind.COMPUTED_GOTO: "computed_goto",
    BlockKind.INDIRECT_CALL: "indirect_call",
}


def analyze_program(program: Program) -> ProgramStatistics:
    """Measure the static statistics of a program."""
    compiled = (
        program if isinstance(program, CompiledProgram) else CompiledProgram(program)
    )
    lengths = Counter(int(n) for n in compiled.lengths)
    categories: Counter = Counter()
    for block_id in range(len(compiled)):
        for inst in compiled.block_instructions(block_id):
            if inst.is_load:
                categories["load"] += 1
            elif inst.is_store:
                categories["store"] += 1
            elif inst.is_cti:
                categories["cti"] += 1
            elif inst.is_syscall:
                categories["syscall"] += 1
            elif inst.is_nop:
                categories["nop"] += 1
            else:
                categories["alu"] += 1

    cti_kinds: Counter = Counter()
    backward = 0
    conditional = 0
    indirect = 0
    total_ctis = 0
    for block_id, kind in enumerate(compiled.kinds):
        if kind == BlockKind.FALLTHROUGH:
            continue
        total_ctis += 1
        cti_kinds[_KIND_NAMES[BlockKind(kind)]] += 1
        if kind == BlockKind.CONDITIONAL:
            conditional += 1
            if compiled.taken_ids[block_id] <= block_id:
                backward += 1
        if kind in (BlockKind.RETURN, BlockKind.COMPUTED_GOTO, BlockKind.INDIRECT_CALL):
            indirect += 1

    block_count = len(compiled)
    return ProgramStatistics(
        static_words=compiled.static_words,
        block_count=block_count,
        procedure_count=len(compiled.program.procedures),
        mean_block_length=compiled.static_words / block_count if block_count else 0.0,
        block_length_histogram=dict(lengths),
        category_counts=dict(categories),
        cti_kinds=dict(cti_kinds),
        register_indirect_frac=indirect / total_ctis if total_ctis else 0.0,
        conditional_frac=conditional / total_ctis if total_ctis else 0.0,
        backward_conditional_frac=backward / conditional if conditional else 0.0,
    )

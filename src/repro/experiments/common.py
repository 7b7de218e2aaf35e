"""Shared experiment infrastructure: sessions, result type, constants.

Session construction lives in :class:`repro.engine.session.
SessionRegistry`; this module keeps only a thin :func:`get_measurement`
wrapper over the default registry so experiment modules stay one import
away from a session, while tests and embedders can construct isolated
registries of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core import SuiteMeasurement
from repro.engine.session import DEFAULT_REGISTRY, EXPERIMENT_SCALES, SessionRegistry

__all__ = [
    "ExperimentResult",
    "get_measurement",
    "EXPERIMENT_SCALES",
    "PAPER_SIZES_KW",
    "DEFAULT_BLOCK_WORDS",
    "DEFAULT_PENALTY",
]

#: Per-side cache sizes the paper sweeps.
PAPER_SIZES_KW = (1, 2, 4, 8, 16, 32)
#: The block size most figures fix (``B_L1 = 4 W``).
DEFAULT_BLOCK_WORDS = 4
#: The headline refill penalty (``p_L1 = 10`` cycles).
DEFAULT_PENALTY = 10


def get_measurement(
    scale: Optional[str] = None,
    jobs: Optional[int] = None,
    registry: Optional[SessionRegistry] = None,
    cube_jobs: Optional[int] = None,
) -> SuiteMeasurement:
    """The shared measurement session for a scale (memoized per registry).

    The scale defaults to the ``REPRO_SCALE`` environment variable, then
    to ``full``; ``jobs`` sizes the session's sweep executor and
    ``cube_jobs`` its set-partitioned miss-cube builds.  Callers needing
    isolation pass their own registry.  An empty registry is still the
    caller's: ``SessionRegistry`` defines ``__len__``, so it is tested
    against ``None``, not for truth.
    """
    if registry is None:
        registry = DEFAULT_REGISTRY
    return registry.get(scale, jobs=jobs, cube_jobs=cube_jobs)


@dataclass
class ExperimentResult:
    """One regenerated table or figure.

    Attributes:
        experiment_id: e.g. ``"table2"`` or ``"fig12"``.
        title: Human-readable heading.
        text: The rendered rows/series (what the CLI prints).
        data: Raw values keyed by meaningful names, for tests and
            benchmarks to assert against.
        paper_notes: What the paper reports for the same artifact, for
            side-by-side comparison in EXPERIMENTS.md.
    """

    experiment_id: str
    title: str
    text: str
    data: Dict[str, object] = field(default_factory=dict)
    paper_notes: str = ""

    def __str__(self) -> str:
        lines = [f"== {self.experiment_id}: {self.title} ==", self.text]
        if self.paper_notes:
            lines.append(f"[paper] {self.paper_notes}")
        return "\n".join(lines)

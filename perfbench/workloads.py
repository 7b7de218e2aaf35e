"""The benchmark's workloads: which artifacts, on which session, prepared how.

Shared by ``run.py`` (the parent, which must stay free of ``repro``
imports so its own start-up never counts) and ``child.py`` (the fresh
interpreter that does the work).

Every session is a reduced Table 1 suite.  Regenerating the paper at
``--scale full`` (all 16 benchmarks, 1.6M instructions) takes about 46 s
on a 2-core host, which leaves no room for the repeated, medianed runs a
steady benchmark needs.  The suites below keep one benchmark of each
Table 1 category, so the same code paths run with about the same share
per layer as the full regeneration; ``selftest.py --paper`` checks the
unreduced run against ``results/*.txt``.

Trace lengths are chosen so that, for every seed, the longest stream
the stack-distance kernel ranks stays well between two powers of two
(about 2^18.5 on the paper suite, 2^19.6 on the cube suite).  The
kernel pads its scratch buffers to the next power of two, so a length
near one would make ``peak_rss_mb`` jump by a quarter between seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: The seed the committed ``results/*.txt`` and ``expected.json`` were made with.
DEFAULT_SEED = 19920519

#: Every paper artifact, in the order ``run_experiments`` regenerates them.
PAPER_ARTIFACTS: Tuple[str, ...] = (
    "table1", "table2", "table3", "table4", "table5", "table6",
    "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig10", "fig11", "fig12", "fig13",
)

#: One benchmark per Table 1 category (integer, double, single, mixed) plus
#: the heaviest-weighted of each kind: 52 of the suite's 310 KW of code.
PAPER_SUITE = ("sdiff", "awk", "dodged", "integral", "loops", "matrix500", "small")

#: Floating-point and mixed codes only: little static code, so the
#: front-end stays small and the cube engine dominates.
CUBE_SUITE = ("dodged", "integral", "loops", "matrix500", "small")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: The key of this workload's reference digests in ``expected.json``;
    #: workloads that run the same session on the same artifacts share one.
    session: str
    artifacts: Tuple[str, ...]
    suite: Tuple[str, ...]
    total_instructions: int
    jobs: int
    cube_jobs: int
    #: ``empty``: the store starts empty.  ``cold-run``: one untraced run
    #: of the same artifacts fills it.  ``traces``: the session's
    #: execution traces are synthesized into it.
    setup: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-cold",
            why="all 17 paper artifacts from an empty store, serial: every "
            "layer does its production share and the store only writes",
            session="paper",
            artifacts=PAPER_ARTIFACTS,
            suite=PAPER_SUITE,
            total_instructions=200_000,
            jobs=1,
            cube_jobs=1,
            setup="empty",
        ),
        Workload(
            name="paper-warm",
            why="the same run on a store an untimed cold run filled: the "
            "repeat user, where trace synthesis does no work",
            session="paper",
            artifacts=PAPER_ARTIFACTS,
            suite=PAPER_SUITE,
            total_instructions=200_000,
            jobs=1,
            cube_jobs=1,
            setup="cold-run",
        ),
        Workload(
            name="cube-scale",
            why="cube-heavy figures on a long trace with 2 workers: the "
            "partitioned cube engine and its A=1 cross-check dominate",
            session="cube",
            artifacts=("fig3", "fig5", "fig8", "fig12", "fig13"),
            suite=CUBE_SUITE,
            total_instructions=1_000_000,
            jobs=2,
            cube_jobs=2,
            setup="traces",
        ),
    )
}

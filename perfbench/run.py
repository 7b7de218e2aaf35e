"""Benchmark: how long regenerating the paper's artifacts takes.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-cold            # end-to-end
    python3 perfbench/run.py --workload cube-scale --trace 1  # per layer
    python3 perfbench/run.py --workload paper-warm --seed 7 --seconds 15

Every rep is a fresh interpreter (``child.py``) with its own store
directory, prepared by an untimed set-up process of its own.  Reps
repeat until ``--seconds`` have passed, and at least ``MIN_REPS`` times;
every metric is the median over reps, and every time is in reference
seconds: host seconds scaled by the host speed probe of ``speed.py``,
which the parent times before the first step and after each step.
With ``--trace 1`` the reps come in pairs, one untraced and one traced,
and the per-layer metrics are medians over the traced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the host.  See ``README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import Speedometer  # noqa: E402
from workloads import DEFAULT_SEED, PAPER_ARTIFACTS, WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
EXPECTED = HERE / "expected.json"

#: Set-ups per run; reps take copies of their stores in turn.
SETUPS = 3
#: Reps (or untraced/traced pairs) every run makes, however short --seconds.
MIN_REPS = 4
MIN_TRACED_PAIRS = 2
#: A set-up or rep that takes longer is killed with its workers, and the run fails.
STEP_TIMEOUT_S = 150
#: Once the run is this old, no rep beyond the minimum starts.
RUN_BUDGET_S = 36

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("store_disk_mb", "MB"),
    ("ok_frac", "ratio"),
)

#: Layers whose self time a traced rep reports (names as in ``layers.py``).
_TIMED_LAYERS = (
    "workload.synthesize", "trace.compile", "sched.translate",
    "trace.synthesize", "sched.expand_istream", "core.istream",
    "core.dstream", "sched.branch_stats", "sched.load_slack",
    "branchpred.btb", "cache.cube", "cache.crosscheck", "core.optimizer",
    "timing.tcpu",
)
_COUNTS = (
    "workload.synthesize.calls", "trace.compile.calls", "sched.translate.calls",
    "trace.synthesize.calls", "trace.synthesize.instr",
    "sched.expand_istream.refs", "cache.cube.calls", "core.optimizer.points",
)
_STORE = ("memory_hits", "disk_hits", "misses", "disk_writes", "hit_rate")

PER_LAYER = (
    tuple((f"{layer}.s", "s") for layer in _TIMED_LAYERS)
    + tuple((name, "count") for name in _COUNTS)
    + (
        ("cache.cube.refs", "count"),
        ("cache.cube.mrefs_per_s", "Mrefs/s"),
        ("cache.cube.coarse_s", "s"),
        ("cache.cube.reduce_s", "s"),
        ("cache.cube.reduce_spans", "count"),
        ("engine.executor.map_s", "s"),
        ("engine.executor.items", "count"),
    )
    + tuple((f"engine.store.{name}", "ratio" if name == "hit_rate" else "count")
            for name in _STORE)
    + tuple((f"experiments.{name}.s", "s") for name in PAPER_ARTIFACTS)
    + (
        ("experiments.unattributed_s", "s"),
        ("experiments.unattributed_frac", "ratio"),
        ("obs.untraced_wall_s", "s"),
        ("obs.traced_wall_s", "s"),
        ("obs.tracing_overhead_s", "s"),
    )
)


def _child_env(store: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["REPRO_CACHE_DIR"] = str(store)
    env["TMPDIR"] = str(WORK / "tmp")
    env["PYTHONHASHSEED"] = "0"
    # At most two workers run at once; one BLAS/OpenMP thread each keeps
    # every process within nproc = 2.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[name] = "1"
    return env


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class Step:
    """One child process: a set-up in an empty store directory, or a rep
    in a copy of a set-up's store."""

    def __init__(self, args, step: str, trace: bool = False,
                 template: Path = None) -> None:
        home = Path(tempfile.mkdtemp(prefix=f"{step}-", dir=WORK))
        self.store = home / "store"
        if template is None:
            self.store.mkdir()
        else:
            shutil.copytree(template, self.store)
        self.ledger_dir = home / "ledger"
        self.ledger_dir.mkdir()
        reply_path = home / "reply.json"
        request = {
            "workload": args.workload, "seed": args.seed, "step": step,
            "trace": trace, "reply": str(reply_path),
            "ledger_dir": str(self.ledger_dir),
        }
        started = time.perf_counter()
        # A session of its own, so a timed-out step's workers die with it.
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(request)],
            cwd=ROOT, env=_child_env(self.store), start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            _, stderr = proc.communicate(timeout=STEP_TIMEOUT_S)
        except BaseException:  # timed out or interrupted: stop the step, re-raise
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        self.seconds = time.perf_counter() - started
        if proc.returncode != 0 or not reply_path.exists():
            raise RuntimeError(
                f"{step} step of {args.workload} failed "
                f"(exit {proc.returncode}):\n{stderr[-4000:]}")
        self.reply = json.loads(reply_path.read_text())
        self.disk_mb = _dir_bytes(self.store) / 1e6


def _ledgers(ledger_dir: Path) -> list:
    """The program's own ledgers of a traced rep, one per artifact."""
    return [json.loads(path.read_text()) for path in sorted(ledger_dir.glob("*.json"))]


def _spans(ledger_dir: Path):
    """Every span of a traced rep's program ledgers, flattened."""
    stack = []
    for ledger in _ledgers(ledger_dir):
        stack.extend(ledger["spans"])
    while stack:
        span = stack.pop()
        stack.extend(span.get("children", []))
        yield span


def _layer_metrics(rep: Step) -> dict:
    layers = rep.reply["layers"]
    counts = layers["counts"]
    seconds = {name: value * rep.factor for name, value in layers["seconds"].items()}
    out = {f"{layer}.s": seconds.get(layer, 0.0) for layer in _TIMED_LAYERS}
    out.update({name: counts.get(name, 0) for name in _COUNTS})
    coarse = reduce = refs = reduce_spans = 0
    for span in _spans(rep.ledger_dir):
        if span["name"] == "cube.coarse":
            coarse += span["wall_s"] * rep.factor
        elif span["name"] == "cube.reduce":
            reduce += span["wall_s"] * rep.factor
            reduce_spans += 1
        elif span["name"] in ("imiss.cube", "dmiss.cube"):
            refs += span.get("counters", {}).get("references", 0)
    cube_s = seconds.get("cache.cube", 0.0)
    out.update({
        "cache.cube.refs": refs,
        "cache.cube.mrefs_per_s": refs / cube_s / 1e6 if cube_s else 0.0,
        "cache.cube.coarse_s": coarse,
        "cache.cube.reduce_s": reduce,
        "cache.cube.reduce_spans": reduce_spans,
        "engine.executor.map_s": seconds.get("engine.executor.map", 0.0),
        "engine.executor.items": counts.get("engine.executor.map.items", 0),
    })
    out.update({f"engine.store.{k}": v for k, v in layers["store"].items()})
    artifact_self = 0.0
    for name in PAPER_ARTIFACTS:
        value = seconds.get(f"experiments.{name}", 0.0)
        out[f"experiments.{name}.s"] = value
        artifact_self += value
    wall = rep.reply["wall_s"] * rep.factor
    # Wall time no wrapped layer accounts for: artifact self time plus
    # whatever run_experiments does around the artifacts.
    layered = sum(seconds.values()) - artifact_self
    out["experiments.unattributed_s"] = wall - layered
    out["experiments.unattributed_frac"] = (wall - layered) / wall
    out["obs.traced_wall_s"] = wall
    return out


class Gate:
    """Checks every output set of a run against one reference."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.reference = None
        if seed == DEFAULT_SEED:
            self.reference = json.loads(EXPECTED.read_text())[workload.session]
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, reply: dict, ledgers=()) -> None:
        """One output set: a rep's or cold set-up's ``reply``, and the
        program's ledgers if the rep was traced."""
        workload = self.workload
        digests = reply["digests"]
        if self.reference is None:
            # Any other seed: the run's first output set is the reference.
            self.reference = dict(digests)
        for name in workload.artifacts:
            self.attempted += 1
            if name in reply["errors"]:
                self.failed += 1
                self.problems.append(f"{name} raised {reply['errors'][name]}")
            elif digests.get(name) != self.reference.get(name):
                self.failed += 1
                self.problems.append(f"{name}: text differs from the reference")
        # Scale guard: every session run_experiments resolved, and every run
        # the program itself recorded, is the one the workload states.
        if not reply["sessions"]:
            self.problems.append("run_experiments resolved no session")
        for session in reply["sessions"]:
            if not session["registered"]:
                self.problems.append("run_experiments resolved another session "
                                     "than the registered one")
            if session["total_instructions"] != workload.total_instructions:
                self.problems.append(
                    f"session ran {session['total_instructions']} instructions, "
                    f"not {workload.total_instructions}")
            if tuple(session["suite"]) != workload.suite:
                self.problems.append(f"session suite is {session['suite']}")
        for ledger in ledgers:
            if ledger["run"]["total_instructions"] != workload.total_instructions:
                self.problems.append(
                    f"the program's ledger records {ledger['run']['total_instructions']} "
                    f"instructions, not {workload.total_instructions}")
        if reply["default_registry_sessions"]:
            self.problems.append("a session was built in the default registry")

    @property
    def correct(self) -> bool:
        return not self.problems

    @property
    def ok_frac(self) -> float:
        return 1.0 - self.failed / self.attempted


def measure(args) -> dict:
    workload = WORKLOADS[args.workload]
    gate = Gate(workload, args.seed)
    run_started = time.perf_counter()
    speed = Speedometer()

    def probed(*step_args, **step_kwargs) -> Step:
        """A step, then a probe: the step's factor comes from the probes
        on either side of it."""
        step = Step(args, *step_args, **step_kwargs)
        speed.sample()
        step.factor = speed.factor()
        return step

    setups = [probed("setup") for _ in range(SETUPS)]
    for setup in setups:
        if "digests" in setup.reply:
            gate.check(setup.reply)
    reps, traced = [], []

    def rep(trace: bool) -> Step:
        template = setups[(len(reps) + len(traced)) % SETUPS].store
        step = probed("rep", trace=trace, template=template)
        gate.check(step.reply, _ledgers(step.ledger_dir))
        return step

    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        done = len(traced) if args.trace else len(reps)
        wanted = MIN_TRACED_PAIRS if args.trace else MIN_REPS
        late = time.perf_counter() - run_started >= RUN_BUDGET_S
        if done >= wanted and (elapsed >= args.seconds or late):
            break
        reps.append(rep(trace=False))
        if args.trace:
            traced.append(rep(trace=True))

    if args.trace:
        untraced = statistics.median([r.reply["wall_s"] * r.factor for r in reps])
        per_rep = [_layer_metrics(rep) for rep in traced]
        for m in per_rep:
            m["obs.untraced_wall_s"] = untraced
            m["obs.tracing_overhead_s"] = m["obs.traced_wall_s"] - untraced
        metrics = {name: statistics.median([m[name] for m in per_rep])
                   for name, _ in PER_LAYER}
        units = dict(PER_LAYER)
        if workload.cube_jobs > 1 and metrics["cache.cube.reduce_spans"] == 0:
            gate.problems.append("no cube.reduce span: the partitioned engine never ran")
    else:
        metrics = {
            "wall_s": statistics.median([r.reply["wall_s"] * r.factor for r in reps]),
            "cpu_s": statistics.median([r.reply["cpu_s"] * r.factor for r in reps]),
            "setup_s": statistics.median([s.seconds * s.factor for s in setups]),
            "peak_rss_mb": statistics.median([r.reply["peak_rss_mb"] for r in reps]),
            "store_disk_mb": statistics.median([r.disk_mb for r in reps]),
            "ok_frac": gate.ok_frac,
        }
        units = dict(END_TO_END)
    return {
        "host": dict(setups[0].reply["host"], git_revision=_git_revision(),
                     workload=workload.name, seed=args.seed, reps=len(reps),
                     traced_reps=len(traced), setups=len(setups),
                     probe_s=[round(s, 4) for s in speed.samples],
                     host_wall_s=[round(r.reply["wall_s"], 4) for r in reps]),
        "problems": gate.problems,
        "result": {
            "correct": gate.correct,
            "attempted": gate.attempted,
            "failed": gate.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        },
    }


def _git_revision() -> str:
    """The checkout's commit, read without running git (may be absent)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Terminated from outside: unwind, so the running step's process group
    # is killed and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "repro" / "experiments" / "runner.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "tmp").mkdir(parents=True)
    try:
        outcome = measure(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for problem in outcome["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"host": outcome["host"]}))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

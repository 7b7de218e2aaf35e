"""Self-tests of the benchmark itself.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py            # under a minute on 2 cores
    python3 perfbench/selftest.py --paper    # also the full-scale paper check

Checks, in order:

1. ``BENCHMARK.json`` names exactly the metrics and workloads ``run.py``
   reports, and ``expected.json`` covers every artifact of every workload.
2. The correctness gate: a ``paper-cold`` output set with one artifact's
   text altered gives ``failed / attempted`` = 1/17, ``ok_frac`` = 16/17
   and ``correct`` false; the unaltered set passes.
3. The scale guard: the gate fails an output set whose resolved session
   is not the registered one or has another size or suite, or whose
   program ledger records another size.  A real traced
   ``cube-scale`` run passes it (every session ``run_experiments``
   resolved, and every ledger the program wrote, has the stated
   ``total_instructions``) and produced ``cube.reduce`` spans.
4. In a directory holding only ``BENCHMARK.json`` and ``perfbench/``,
   ``run.py`` exits non-zero without printing a result.
5. With ``--paper``: all 17 artifacts at ``--scale full`` on the whole
   Table 1 suite, from an empty store, match ``results/*.txt`` byte for
   byte (about 50 s).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench-selftest"


def _bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_contract() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    expected = json.loads(run.EXPECTED.read_text())
    for workload in WORKLOADS.values():
        assert set(expected[workload.session]) == set(workload.artifacts), workload.name


def _reply(workload, **session) -> dict:
    """The reply of a correct rep of ``workload`` at the default seed;
    ``session`` overrides fields of the session it resolved."""
    digests = json.loads(run.EXPECTED.read_text())[workload.session]
    resolved = dict(registered=True, total_instructions=workload.total_instructions,
                    suite=list(workload.suite))
    resolved.update(session)
    return {"digests": dict(digests), "errors": {}, "default_registry_sessions": 0,
            "sessions": [resolved] * len(workload.artifacts)}


def check_gate() -> None:
    workload = WORKLOADS["paper-cold"]
    gate = run.Gate(workload, DEFAULT_SEED)
    gate.check(_reply(workload))
    assert gate.correct and gate.ok_frac == 1.0, gate.problems
    corrupted = _reply(workload)
    corrupted["digests"]["table3"] = corrupted["digests"]["table3"][::-1]
    gate = run.Gate(workload, DEFAULT_SEED)
    gate.check(corrupted)
    assert not gate.correct
    fraction = Fraction(gate.failed, gate.attempted)
    assert fraction == Fraction(1, 17), fraction
    assert abs(gate.ok_frac - 16 / 17) < 1e-12


def check_scale_guard() -> None:
    workload = WORKLOADS["cube-scale"]
    wrong = (
        (_reply(workload, total_instructions=1_600_000), ()),
        (_reply(workload, suite=["sdiff"]), ()),
        (_reply(workload, registered=False), ()),
        (_reply(workload), [{"run": {"total_instructions": 1_600_000}}]),
    )
    for reply, ledgers in wrong:
        gate = run.Gate(workload, DEFAULT_SEED)
        gate.check(reply, ledgers)
        assert not gate.correct and gate.failed == 0, (reply, ledgers)
    result = _result(_bench("--workload", "cube-scale", "--seconds", "0",
                            "--trace", "1"))
    assert result["correct"], "cube-scale failed its gate"
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cache.cube.reduce_spans"] > 0
    assert [name for name, _ in run.PER_LAYER] == list(metrics)


def check_bare_directory() -> None:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        shutil.copytree(HERE, SCRATCH / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
        proc = _bench("--workload", "paper-cold", cwd=SCRATCH)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


def check_paper() -> None:
    """The unreduced regeneration against the committed results."""
    code = (
        "import io, sys\n"
        "from repro.engine.session import SessionRegistry\n"
        "from repro.experiments.runner import run_experiments\n"
        "registry = SessionRegistry()\n"
        "registry.get('full')  # a non-empty registry: see README, 'source bug'\n"
        "for result in run_experiments(scale='full', registry=registry,"
        " stream=io.StringIO()):\n"
        "    sys.stdout.write(result.experiment_id + '\\0' + str(result) + '\\n\\0')\n"
    )
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir()
    try:
        env = dict(run._child_env(SCRATCH), TMPDIR=str(SCRATCH))
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=900)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    assert proc.returncode == 0, proc.stderr
    fields = proc.stdout.split("\0")[:-1]
    texts = dict(zip(fields[0::2], fields[1::2]))
    assert list(texts) == list(WORKLOADS["paper-cold"].artifacts)
    for name, text in texts.items():
        committed = (ROOT / "results" / f"{name}.txt").read_text()
        assert text == committed, f"{name} differs from results/{name}.txt"


def main(argv) -> int:
    checks = [check_contract, check_gate, check_scale_guard, check_bare_directory]
    if "--paper" in argv:
        checks.append(check_paper)
    for check in checks:
        check()
        print(f"ok  {check.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Runner tests: jsonable strictness, observability flags, byte-stability."""

import io
import json
import math

import numpy as np
import pytest

from repro.engine.session import SessionRegistry
from repro.obs import RunLedger
from repro.experiments.runner import jsonable, list_experiments, main, run_experiments

#: Cheap experiments for runner-level tests (no cache/BTB simulation).
_CHEAP = ["table2", "fig6"]


@pytest.fixture
def registry(measurement):
    registry = SessionRegistry()
    registry.set("quick", measurement)
    return registry


class TestJsonable:
    def test_non_finite_floats_become_none(self):
        # Regression: bare NaN/Infinity tokens are not strict JSON and
        # were emitted verbatim into the --out .json payloads.
        assert jsonable(float("nan")) is None
        assert jsonable(float("inf")) is None
        assert jsonable(float("-inf")) is None

    def test_non_finite_numpy_scalars_become_none(self):
        assert jsonable(np.float64("nan")) is None
        assert jsonable(np.float32("inf")) is None

    def test_nested_non_finite_values_become_none(self):
        data = {"a": [1.0, float("nan")], ("b", "l"): {"x": float("inf")}}
        assert jsonable(data) == {"a": [1.0, None], "b,l": {"x": None}}

    def test_finite_values_unchanged(self):
        data = {"f": 1.5, "i": 7, "s": "x", "b": True, "n": None}
        assert jsonable(data) == data
        assert jsonable(np.int64(3)) == 3
        assert jsonable(np.float64(2.5)) == 2.5

    def test_output_parses_as_strict_json(self):
        def _reject(token):
            raise AssertionError(f"non-strict constant {token!r}")

        payload = jsonable({"nan": float("nan"), "ok": [1, math.pi]})
        json.loads(json.dumps(payload), parse_constant=_reject)


class TestObservabilityFlags:
    def test_profile_does_not_perturb_results(self, registry, tmp_path):
        # The acceptance contract: results/*.txt byte-identical with
        # instrumentation off and on.
        plain, profiled = tmp_path / "plain", tmp_path / "profiled"
        run_experiments(
            _CHEAP, scale="quick", out_dir=plain,
            stream=io.StringIO(), registry=registry,
        )
        run_experiments(
            _CHEAP, scale="quick", out_dir=profiled,
            stream=io.StringIO(), registry=registry, profile=True,
        )
        for name in _CHEAP:
            assert (plain / f"{name}.txt").read_bytes() == (
                profiled / f"{name}.txt"
            ).read_bytes()

    def test_out_dir_gets_metrics_json_and_ascii_twin(self, registry, tmp_path):
        out = tmp_path / "out"
        run_experiments(
            ["table2"], scale="quick", out_dir=out,
            stream=io.StringIO(), registry=registry,
        )
        payload = RunLedger.load(out / "metrics.json")  # schema-validating
        assert [e["name"] for e in payload["experiments"]] == ["table2"]
        assert payload["run"]["scale"] == "quick"
        assert payload["executor"]["backend"] == "serial"
        assert payload["store"]["hit_rate"] >= 0.0
        assert (out / "metrics.txt").read_text().strip()

    def test_explicit_metrics_path_wins(self, registry, tmp_path):
        metrics = tmp_path / "ledger" / "m.json"
        run_experiments(
            ["table2"], scale="quick", stream=io.StringIO(),
            registry=registry, metrics_path=metrics,
        )
        payload = RunLedger.load(metrics)
        assert payload["experiments"][0]["name"] == "table2"
        assert payload["spans"], "traced run must record spans"
        assert payload["spans"][0]["name"] == "table2"

    def test_profile_prints_span_tree_and_hit_rates(self, registry):
        stream = io.StringIO()
        run_experiments(
            ["table2"], scale="quick", stream=stream,
            registry=registry, profile=True,
        )
        text = stream.getvalue()
        assert "-- profile --" in text
        assert "table2" in text
        assert "hit_rate" in text
        assert "spans" in text

    def test_untraced_run_attaches_nothing(self, registry, measurement):
        from repro.obs import NULL_TRACER

        run_experiments(
            ["table2"], scale="quick", stream=io.StringIO(), registry=registry
        )
        assert measurement.tracer is NULL_TRACER
        assert measurement.executor.tracer is NULL_TRACER

    def test_tracer_restored_after_traced_run(self, registry, measurement):
        from repro.obs import NULL_TRACER

        run_experiments(
            ["table2"], scale="quick", stream=io.StringIO(),
            registry=registry, profile=True,
        )
        assert measurement.tracer is NULL_TRACER


class TestDurableFlags:
    def test_jobs_section_lands_in_ledger(self, registry, measurement, tmp_path):
        from repro.jobs import JobConfig

        metrics = tmp_path / "m.json"
        job_config = JobConfig(run_dir=tmp_path / "run", shard_size=6)
        run_experiments(
            ["fig12"], scale="quick", stream=io.StringIO(),
            registry=registry, metrics_path=metrics, job_config=job_config,
        )
        payload = RunLedger.load(metrics)
        jobs = payload["jobs"]
        assert jobs["run_dir"] == str(tmp_path / "run")
        assert jobs["shard_size"] == 6
        assert jobs["sweeps"] >= 1
        assert jobs["shards_executed"] + jobs["shards_replayed"] >= 1
        # The durable config must not leak into later plain runs.
        assert measurement.job_config is None

    def test_plain_run_ledger_has_no_jobs_section(self, registry, tmp_path):
        metrics = tmp_path / "m.json"
        run_experiments(
            ["table2"], scale="quick", stream=io.StringIO(),
            registry=registry, metrics_path=metrics,
        )
        assert "jobs" not in RunLedger.load(metrics)

    def test_second_run_without_resume_fails_fast(self, registry, tmp_path):
        from repro.errors import ConfigurationError
        from repro.jobs import JobConfig

        run_dir = tmp_path / "run"
        run_experiments(
            ["table2"], scale="quick", stream=io.StringIO(),
            registry=registry, job_config=JobConfig(run_dir=run_dir),
        )
        with pytest.raises(ConfigurationError, match="--resume"):
            run_experiments(
                ["table2"], scale="quick", stream=io.StringIO(),
                registry=registry, job_config=JobConfig(run_dir=run_dir),
            )


class TestCli:
    def test_list_exits_cleanly(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out and "ext_l2" in out
        assert list_experiments() in out

    def test_unknown_experiment_is_an_argparse_error(self):
        with pytest.raises(SystemExit):
            main(["not_an_experiment"])

    def test_bad_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(["--jobs", "0", "table2"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--resume", "table2"],
            ["--inject-fault", "abort:0", "table2"],
        ],
    )
    def test_durable_flags_require_run_dir(self, argv):
        with pytest.raises(SystemExit):
            main(argv)

    def test_bad_durable_values_rejected(self, tmp_path):
        run_dir = str(tmp_path / "run")
        with pytest.raises(SystemExit):
            main(["--run-dir", run_dir, "--max-retries", "-1", "table2"])
        with pytest.raises(SystemExit):
            main(["--run-dir", run_dir, "--shard-size", "0", "table2"])
        with pytest.raises(SystemExit):
            main(["--run-dir", run_dir, "--inject-fault", "explode:0", "table2"])


def _span_names(spans):
    names = set()
    for span in spans:
        names.add(span["name"])
        names |= _span_names(span.get("children", []))
    return names


class TestFrontEndSpans:
    """Synthesis, lowering and translation are named in the ledger."""

    @staticmethod
    def _fresh_registry():
        from repro.core import SuiteMeasurement
        from repro.workload import benchmark_by_name

        session = SuiteMeasurement(
            specs=[benchmark_by_name("small")],
            total_instructions=20_000,
            use_disk_cache=False,
        )
        registry = SessionRegistry({"quick": 20_000})
        registry.set("quick", session)
        return registry, session

    def test_quick_run_records_front_end_spans(self, tmp_path):
        registry, _ = self._fresh_registry()
        metrics = tmp_path / "m.json"
        run_experiments(
            ["table2"], scale="quick", stream=io.StringIO(),
            registry=registry, metrics_path=metrics,
        )
        names = _span_names(RunLedger.load(metrics)["spans"])
        assert {"program.synthesize", "program.compile", "sched.translate"} <= names

    def test_untraced_front_end_records_nothing(self):
        from repro.obs import NULL_TRACER

        registry, session = self._fresh_registry()
        run_experiments(
            ["table2"], scale="quick", stream=io.StringIO(), registry=registry
        )
        assert session.tracer is NULL_TRACER
        assert NULL_TRACER.to_list() == []


class TestRegistryResolution:
    def test_empty_registry_is_not_replaced_by_the_default(self):
        """An empty ``SessionRegistry`` is falsy; it must still be used."""
        from repro.engine.session import DEFAULT_REGISTRY
        from repro.experiments.common import get_measurement

        registry = SessionRegistry({"only-here": 20_000})
        assert len(registry) == 0
        sessions_before = len(DEFAULT_REGISTRY)
        session = get_measurement("only-here", registry=registry)
        assert registry.get("only-here") is session
        assert session.total_instructions == 20_000
        assert len(DEFAULT_REGISTRY) == sessions_before

"""Tests of the benchmark itself: generators, output checks, reduced runs.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps it out of the repository's own test collection.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import checks, gen, run, spans  # noqa: E402

WORKLOADS = sorted(gen.GENERATORS)


@pytest.fixture(scope="module")
def cli():
    return run.import_program()


def _make(workload: str, job_seed: int, job_dir: Path):
    job_dir.mkdir(parents=True)
    return gen.GENERATORS[workload](job_seed, job_dir, **gen.SMALL[workload])


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    first = _make(workload, 7, tmp_path / "a")
    second = _make(workload, 7, tmp_path / "b")
    other = _make(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    strip = lambda job, d: [[arg.replace(str(d), "") for arg in argv] for argv in job.commands]  # noqa: E731
    assert strip(first, tmp_path / "a") == strip(second, tmp_path / "b")


def _run(cli, workload, tmp_path, job_seed=3):
    job = _make(workload, job_seed, tmp_path / "job")
    _, outputs = run.execute(cli, job)
    assert checks.check(workload, job, outputs) == []
    return job, outputs, checks.pin_of(workload, job, outputs)


def _with(outputs, index, **changes):
    out = list(outputs)
    out[index] = dataclasses.replace(out[index], **changes)
    return out


def _rewrite_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def test_campaign_checks_reject_tampering(cli, tmp_path):
    job, outputs, pin = _run(cli, "campaign", tmp_path)
    assert checks.check("campaign", job, outputs, pin) == []
    assert checks.check("campaign", job, outputs, [pin[0] + 1, pin[1]])
    assert checks.check("campaign", job, _with(outputs, 0, code=1 - outputs[0].code))
    assert checks.check("campaign", job, _with(outputs, 0, stdout=outputs[0].stdout.replace("fraud:", "fraud: ")))
    assert checks.check("campaign", job, _with(outputs, 0, code=None))
    _rewrite_json(job.expect["report"], lambda doc: doc.update(censorship_successes=doc["censorship_successes"] + 1))
    assert checks.check("campaign", job, outputs)


@pytest.mark.parametrize("tamper", ["flag", "digest", "count", "code", "pin"])
def test_ledger_checks_reject_tampering(cli, tmp_path, tamper):
    job, outputs, pin = _run(cli, "ledger", tmp_path)
    assert checks.check("ledger", job, outputs, pin) == []
    report = job.expect["report"]
    correct_peer = next(p for p in range(job.expect["peers"]) if p != job.expect["skip_peer"])
    if tamper == "flag":
        _rewrite_json(report, lambda doc: doc["committed"][-1].__setitem__(2, not doc["committed"][-1][2]))
    elif tamper == "digest":
        def edit(doc):
            entry = next(d for d in doc["per_peer_state_digest"] if d[0] == correct_peer)
            entry[2] = "0" * 64
        _rewrite_json(report, edit)
    elif tamper == "count":
        _rewrite_json(report, lambda doc: doc["feared_event_counts"].update(ValidRejected=10**6))
    elif tamper == "code":
        outputs = _with(outputs, 0, code=2)
    else:
        pin = dict(pin, refusals=[pin["refusals"][0] + 1, pin["refusals"][1]])
    assert checks.check("ledger", job, outputs, pin)


@pytest.mark.parametrize("tamper", ["check", "status", "dot_pin", "dot_node", "coverage_code", "coverage_line"])
def test_gate_checks_reject_tampering(cli, tmp_path, tamper):
    job, outputs, pin = _run(cli, "gate", tmp_path)
    assert checks.check("gate", job, outputs, pin) == []
    dot = Path(job.expect["dot"])
    if tamper == "check":
        outputs = _with(outputs, 0, stdout=outputs[0].stdout.replace("Assumed", "Supported"))
    elif tamper == "status":
        outputs = _with(outputs, 1, stdout="\n".join(outputs[1].stdout.splitlines()[:-1]) + "\n")
    elif tamper == "dot_pin":
        dot.write_text(dot.read_text(encoding="utf-8").replace("lightblue", "lightcyan"), encoding="utf-8")
    elif tamper == "dot_node":
        lines = dot.read_text(encoding="utf-8").splitlines(keepends=True)
        dot.write_text("".join(lines[:1] + lines[2:]), encoding="utf-8")
    elif tamper == "coverage_code":
        outputs = _with(outputs, 3, code=0)
    else:
        kept = [line for line in outputs[3].stdout.splitlines(keepends=True) if "digest-mismatch" not in line]
        outputs = _with(outputs, 3, stdout="".join(kept))
    assert checks.check("gate", job, outputs, pin)


@pytest.mark.parametrize("tamper", ["tolerance", "missing_set", "nested", "code"])
def test_tolerance_checks_reject_tampering(cli, tmp_path, tamper):
    job, outputs, pin = _run(cli, "tolerance", tmp_path)
    assert checks.check("tolerance", job, outputs, pin) == []
    flat = min(job.expect["flat"])
    nested = min(i for i in range(len(outputs)) if i not in job.expect["flat"])
    lines = outputs[flat].stdout.splitlines(keepends=True)
    if tamper == "tolerance":
        k, _ = job.expect["flat"][flat]
        outputs = _with(outputs, flat, stdout=outputs[flat].stdout.replace(
            f"fraud tolerance: {k - 1}", f"fraud tolerance: {k}"))
    elif tamper == "missing_set":
        lines[4] = lines[4].rsplit(", {", 1)[0] + "\n"
        outputs = _with(outputs, flat, stdout="".join(lines))
    elif tamper == "nested":
        outputs = _with(outputs, nested, stdout=outputs[nested].stdout.replace("policy: ", "policy:  "))
    else:
        outputs = _with(outputs, flat, code=2)
    assert checks.check("tolerance", job, outputs, pin)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reduced_run_has_no_failures(workload):
    result, runner = run.measure(workload, seed=1, seconds=0.5, trace=False, small=True)
    assert result["attempted"] >= 1 and result["failed"] == 0, runner.failures
    assert set(result["metrics"]) == set(run.UNITS)
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    import blockcase.cli

    main = blockcase.cli.main
    result, runner = run.measure("ledger", seed=2, seconds=1.0, trace=True, small=True)
    assert result["failed"] == 0, runner.failures
    assert list(result["metrics"]) == list(spans.metric_units())
    assert result["metrics"]["eov_sim.engine.simulate.calls"]["value"] == 1
    assert result["metrics"]["eov_sim.validate_block.calls_per_block"]["value"] == gen.LEDGER_PEERS + 1
    assert blockcase.cli.main is main  # wrappers are gone after the run

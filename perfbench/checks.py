"""Output checks for every benchmark job.

``check(workload, job, outputs, pin)`` returns a list of failure messages;
an empty list means the job's outputs are correct. Each workload is checked
by what its generator knows and by oracles that need no stored answer, and,
where a pin from the seed commit exists for the job seed, against the pin.
``pin_of`` extracts the pinned values from a correct job's outputs; the pin
script stores them. State digest strings are never pinned: the ledger check
recomputes them with the program's own ``KvStore.digest`` from a sequential
replay instead, so a change to the digest function keeps the check valid.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

CAMPAIGN_PROBABILITIES = {"censoring": 0.05, "crashed": 0.05, "dosed": 0.05, "fraudulent": 0.1}


@dataclass
class Output:
    code: int | None  # None when the command raised
    stdout: str
    stderr: str


def _short_hash(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


# --- campaign ---------------------------------------------------------------


def _campaign_pin(job, outputs) -> list[int]:
    report = json.loads(Path(job.expect["report"]).read_text(encoding="utf-8"))
    return [report["fraud_successes"], report["censorship_successes"]]


def _check_campaign(job, outputs, pin) -> list[str]:
    (out,) = outputs
    runs = job.expect["runs"]
    path = Path(job.expect["report"])
    if not path.is_file():
        return [f"campaign report {path.name} was not written"]
    raw = path.read_bytes()
    report = json.loads(raw)
    failures = []
    fraud, censorship = report.get("fraud_successes"), report.get("censorship_successes")
    if report.get("n_runs") != runs or report.get("seed") != job.expect["seed"]:
        failures.append("report does not echo the requested runs and seed")
    if report.get("fault_probabilities") != CAMPAIGN_PROBABILITIES:
        failures.append(f"report fault probabilities {report.get('fault_probabilities')}")
    if not all(isinstance(n, int) and 0 <= n <= runs for n in (fraud, censorship)):
        return failures + [f"success counts {fraud}, {censorship} outside 0..{runs}"]
    if report.get("fraud_success_rate") != fraud / runs or report.get("censorship_success_rate") != censorship / runs:
        failures.append("success rates do not match the success counts")
    for name, hits in (("fraud", fraud), ("censorship", censorship)):
        rate = hits / runs
        if not math.isclose(report.get(f"{name}_ci95_halfwidth", -1.0), 1.96 * math.sqrt(rate * (1 - rate) / runs)):
            failures.append(f"{name} confidence half-width is wrong")
    if pin is not None and [fraud, censorship] != pin:
        failures.append(f"success counts {[fraud, censorship]} differ from the pinned {pin}")
    expected = [
        f"wrote {path} (sha256 {hashlib.sha256(raw).hexdigest()})",
        f"fraud: {fraud}/{runs} rate {fraud / runs:.4f} ci95 +/-{report['fraud_ci95_halfwidth']:.4f}",
        f"censorship: {censorship}/{runs} rate {censorship / runs:.4f} "
        f"ci95 +/-{report['censorship_ci95_halfwidth']:.4f}",
    ]
    if out.stdout.splitlines() != expected:
        failures.append("campaign summary lines differ from the report")
    if out.code != (1 if fraud or censorship else 0):
        failures.append(f"exit code {out.code} with {fraud} fraud and {censorship} censorship successes")
    return failures


# --- ledger -----------------------------------------------------------------


def _ledger_pin(job, outputs) -> dict:
    report = json.loads(Path(job.expect["report"]).read_text(encoding="utf-8"))
    return {
        "code": outputs[0].code,
        "committed": [len(report["committed"]), _short_hash(_canonical(report["committed"]))],
        "refusals": [len(report["endorsement_refusals"]), _short_hash(_canonical(report["endorsement_refusals"]))],
        "feared": report["feared_event_counts"],
        "liveness_lost_at": report["liveness_lost_at"],
    }


def replay_digests(committed, ops: dict[str, dict]) -> dict[int, str]:
    """Sequential oracle: the state digest after each block height.

    Re-executes exactly the committed-valid transactions from their
    operations with plain arithmetic, versions them (block, index in
    block) and asks the program's ``KvStore`` only for the digest of the
    result.
    """
    from blockcase.eov_sim import KvStore

    store = KvStore()
    digests: dict[int, str] = {}
    current, index = None, 0
    for block_no, tx_id, valid, _ in committed:
        if block_no != current:
            if current is not None:
                digests[current] = store.digest()
            current, index = block_no, 0
        if valid:
            op = ops[tx_id]
            if op["kind"] == "set":
                writes = {(op["key"], op["value"])}
            elif op["kind"] == "transfer":
                src, dst, amount = op["from_key"], op["to_key"], op["amount"]
                writes = {(src, store.value(src) - amount), (dst, store.value(dst) + amount)}
            else:
                writes = set()
            store.apply_writes(frozenset(writes), (block_no, index))
        index += 1
    if current is not None:
        digests[current] = store.digest()
    return digests


def _check_ledger(job, outputs, pin) -> list[str]:
    (out,) = outputs
    path = Path(job.expect["report"])
    if not path.is_file():
        return [f"run report {path.name} was not written"]
    report = json.loads(path.read_bytes())
    ops = job.expect["ops"]
    failures = []
    committed = report["committed"]
    tx_ids = [entry[1] for entry in committed]
    if len(set(tx_ids)) != len(tx_ids) or not set(tx_ids) <= set(ops):
        failures.append("committed list repeats a transaction or names an unknown one")

    ground_truth = {tx_id: op["ground_truth_valid"] for tx_id, op in ops.items()}
    committed_valid = {entry[1] for entry in committed if entry[2]}
    by_height: dict[int, dict[int, str]] = {}
    for peer, height, digest in report["per_peer_state_digest"]:
        by_height.setdefault(height, {})[peer] = digest
    inconsistent = 0
    for peers in by_height.values():
        values = [peers[p] for p in sorted(peers)]
        inconsistent += sum(values[i] != values[j] for i in range(len(values)) for j in range(i + 1, len(values)))
    recount = {
        "InvalidAccepted": sum(1 for t in committed_valid if ground_truth.get(t) is False),
        "ValidRejected": sum(1 for t, ok in ground_truth.items() if ok and t not in committed_valid),
        "InconsistentRead": inconsistent,
    }
    if report["feared_event_counts"] != recount:
        failures.append(f"feared-event counts {report['feared_event_counts']} differ from the recount {recount}")

    oracle = replay_digests(committed, ops)
    heights = sorted({entry[0] for entry in committed})
    if sorted(by_height) != heights:
        failures.append("per-peer digests do not cover exactly the committed block heights")
    correct = [p for p in range(job.expect["peers"]) if p != job.expect["skip_peer"]]
    for height in heights:
        peers = by_height.get(height, {})
        if sorted(peers) != list(range(job.expect["peers"])):
            failures.append(f"height {height} lacks a digest for some peer")
            break
        wrong = [p for p in correct if peers[p] != oracle[height]]
        if wrong:
            failures.append(f"height {height}: correct peers {wrong} differ from the sequential replay")
            break

    if pin is not None:
        observed = _ledger_pin(job, outputs)
        for key in pin:
            if observed[key] != pin[key]:
                failures.append(f"{key} {observed[key]} differs from the pinned {pin[key]}")
    expected = [f"wrote {path}"] + [f"{event}: {count}" for event, count in sorted(recount.items())]
    if report["liveness_lost_at"] is not None:
        expected.append(f"liveness lost at step {report['liveness_lost_at']}")
    if out.stdout.splitlines() != expected:
        failures.append("sim run summary lines differ from the report")
    if out.code != (1 if any(recount.values()) else 0):
        failures.append(f"exit code {out.code} with feared events {recount}")
    return failures


# --- gate -------------------------------------------------------------------


def _gate_pin(job, outputs) -> str:
    return _short_hash(Path(job.expect["dot"]).read_bytes())


def _check_gate(job, outputs, pin) -> list[str]:
    check, status, render, coverage = outputs
    expect = job.expect
    failures = []
    if check.code != 0 or check.stdout != f"{expect['cae']}: 0 violation(s); root status: Assumed\n":
        failures.append(f"cae check: exit {check.code}, {check.stdout[-200:]!r}")
    lines = ["root C0: Assumed", "assumptions:"] + expect["assumptions"]
    if status.code != 0 or status.stdout.splitlines() != lines:
        failures.append(f"cae status: exit {status.code} or assumption list differs")
    dot_path = Path(expect["dot"])
    if render.code != 0 or render.stdout != f"wrote {dot_path}\n" or not dot_path.is_file():
        failures.append(f"cae render: exit {render.code}, {render.stdout!r}")
    else:
        dot = dot_path.read_bytes()
        text = dot.decode("utf-8")
        nodes = sum(1 for line in text.splitlines() if line.startswith("  ") and " [label=" in line)
        edges = sum(1 for line in text.splitlines() if line.startswith("  ") and '" -> "' in line)
        if not text.startswith("digraph cae {\n") or not text.endswith("\n}\n"):
            failures.append("DOT output is not one digraph")
        if (nodes, edges) != (expect["nodes"], expect["edges"]):
            failures.append(f"DOT has {nodes} nodes and {edges} edges, expected {expect['nodes']} and {expect['edges']}")
        if pin is not None and _short_hash(dot) != pin:
            failures.append("DOT bytes differ from the pinned digest")
    if coverage.code != 1 or coverage.stdout.splitlines() != expect["coverage"]:
        failures.append(f"risk coverage: exit {coverage.code} or lines differ ({coverage.stdout[-200:]!r})")
    return failures


# --- tolerance --------------------------------------------------------------


def _tolerance_pin(job, outputs) -> dict:
    return {str(i): _short_hash(out.stdout) for i, out in enumerate(outputs) if i not in job.expect["flat"]}


def _set_line(lines: list[str], prefix: str) -> list[str]:
    for line in lines:
        if line.startswith(prefix):
            body = line[len(prefix):]
            return body[1:-1].split("}, {") if body else []
    return []


def _check_tolerance(job, outputs, pin) -> list[str]:
    failures = []
    for i, out in enumerate(outputs):
        if out.code != 0:
            failures.append(f"policy {i}: exit {out.code}")
            continue
        lines = out.stdout.splitlines()
        satisfying = _set_line(lines, "minimal satisfying sets: ")
        blocking = _set_line(lines, "minimal blocking sets: ")
        sizes = (min(s.count(",") + 1 for s in satisfying) if satisfying else 0,
                 min(s.count(",") + 1 for s in blocking) if blocking else 0)
        tolerances = [f"fraud tolerance: {sizes[0] - 1}", f"censorship tolerance: {sizes[1] - 1}"]
        if len(lines) != 6 or lines[2:4] != tolerances:
            failures.append(f"policy {i}: tolerances do not match the listed sets")
            continue
        if i in job.expect["flat"]:
            k, n = job.expect["flat"][i]
            want = [f"fraud tolerance: {k - 1}", f"censorship tolerance: {n - k}"]
            counts = (len(satisfying), len(blocking))
            if lines[2:4] != want or counts != (math.comb(n, k), math.comb(n, n - k + 1)):
                failures.append(f"policy {i} outof({k},{n}): {lines[2:4]}, {counts} sets")
            elif any(s.count(",") + 1 != k for s in satisfying) or any(
                s.count(",") + 1 != n - k + 1 for s in blocking
            ):
                failures.append(f"policy {i} outof({k},{n}): a listed set has the wrong size")
        elif pin is not None and _short_hash(out.stdout) != pin[str(i)]:
            failures.append(f"policy {i}: output differs from the pinned digest")
    return failures


CHECKS = {
    "campaign": _check_campaign,
    "ledger": _check_ledger,
    "gate": _check_gate,
    "tolerance": _check_tolerance,
}
PINS = {
    "campaign": _campaign_pin,
    "ledger": _ledger_pin,
    "gate": _gate_pin,
    "tolerance": _tolerance_pin,
}


def check(workload: str, job, outputs: list[Output], pin=None) -> list[str]:
    """Failure messages for one job; empty when every output is correct."""
    if len(outputs) != len(job.commands):
        return [f"{len(outputs)} of {len(job.commands)} commands ran"]
    raised = [i for i, out in enumerate(outputs) if out.code is None]
    if raised:
        return [f"command {i} raised: {outputs[i].stderr.strip().splitlines()[-1:]}" for i in raised]
    try:
        return CHECKS[workload](job, outputs, pin)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"output is malformed: {exc!r}"]


def pin_of(workload: str, job, outputs: list[Output]):
    return PINS[workload](job, outputs)

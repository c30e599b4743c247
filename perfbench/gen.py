"""Seeded input generators for the four benchmark workloads.

Every generator takes a job seed and a directory, writes the job's input
files there and returns a ``Job``: the CLI argument lists to run, the work
count the job represents, and what the output checks expect. The program
only ever sees the written files. Generation uses ``random.Random`` seeded
with a string, so equal seeds give byte-identical files on any platform,
and it imports nothing from ``blockcase``: a change to the program cannot
change its own inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

ENDORSERS = ("E1", "E2", "E3", "E4", "E5")
POLICY_3_OF_5 = "outof(3,E1,E2,E3,E4,E5)\n"

CAMPAIGN_RUNS = 500
CAMPAIGN_PROBS = ("fraudulent=0.1", "censoring=0.05", "crashed=0.05", "dosed=0.05")
LEDGER_TXS = 400
LEDGER_PEERS = 8
GATE_NODES = 10_000
GATE_EVIDENCE = 300


@dataclass
class Job:
    commands: list[list[str]]
    work: int  # campaign runs, proposals, tree nodes or policies
    expect: dict = field(default_factory=dict)
    before: dict = field(default_factory=dict)  # command index -> callable run just before it


def _rng(workload: str, job_seed: int) -> random.Random:
    return random.Random(f"blockcase-bench/{workload}/{job_seed}")


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _tx(tx_id: str, client: str, nonce: int, op: dict) -> dict:
    return {"tx_id": tx_id, "client_id": client, "nonce": nonce, "op": op}


def _set(key: str, value: int) -> dict:
    return {"kind": "set", "key": key, "value": value, "ground_truth_valid": True}


def _transfer(src: str, dst: str, amount: int, valid: bool = True) -> dict:
    return {"kind": "transfer", "from_key": src, "to_key": dst, "amount": amount, "ground_truth_valid": valid}


def _scenario(*, clients, behaviors, orderers, peers, skip_v7, workload, horizon, seed) -> dict:
    return {
        "msp_emitters": list(clients),
        "msp_endorsers": list(ENDORSERS),
        "endorser_behaviors": behaviors,
        "policy": POLICY_3_OF_5.strip(),
        "orderers": orderers,
        "peers": {"count": peers, "skip_v7": skip_v7},
        "workload": sorted(workload, key=lambda pair: (pair[0], pair[1]["tx_id"])),
        "horizon": horizon,
        "seed": seed,
    }


def campaign_job(job_seed: int, job_dir: Path, runs: int = CAMPAIGN_RUNS) -> Job:
    """A 500-run 3-of-5 campaign over a 20-tx, 4-peer base with its own campaign seed.

    The base funds four accounts, moves small amounts between them and adds
    four ground-truth-invalid overdrafts, spread over a ten-step horizon.
    """
    rng = _rng("campaign", job_seed)
    clients = ("c1", "c2")
    accounts = [f"acct{i}" for i in range(4)]
    horizon = 10
    workload = [(0, _tx(f"fund{i}", "c1", 1 + i, _set(key, 200 + rng.randrange(100))))
                for i, key in enumerate(accounts)]
    for i in range(16):
        src, dst = rng.sample(accounts, 2)
        if i % 4 == 3:
            op = _transfer(src, dst, 1_000_000, valid=False)
        else:
            op = _transfer(src, dst, 1 + rng.randrange(10))
        workload.append((1 + rng.randrange(horizon - 3), _tx(f"t{i}", rng.choice(clients), 10 + i, op)))
    scenario = _scenario(
        clients=clients, behaviors={}, orderers={"n": 3, "batch_size": 4, "crash_schedule": []},
        peers=4, skip_v7=[], workload=workload, horizon=horizon, seed=rng.getrandbits(32),
    )
    campaign_seed = rng.getrandbits(48)
    _write_json(job_dir / "base.json", scenario)
    (job_dir / "policy.txt").write_text(POLICY_3_OF_5, encoding="utf-8")
    argv = ["policy", "campaign", str(job_dir / "policy.txt"), "--scenario", str(job_dir / "base.json"),
            "--runs", str(runs), "--seed", str(campaign_seed)]
    for prob in CAMPAIGN_PROBS:
        argv += ["--prob", prob]
    argv += ["--out", str(job_dir / "report.json")]
    return Job([argv], runs, {"runs": runs, "seed": campaign_seed, "report": job_dir / "report.json"})


def ledger_job(job_seed: int, job_dir: Path, n_tx: int = LEDGER_TXS) -> Job:
    """One long 8-peer simulation with a fraudulent endorser and an orderer crash.

    Writes with ``set`` go to a key space as large as the tx count, so the
    state grows; transfers hit four small hot balances, so V7 conflicts and
    V2 refusals occur. One peer skips the MVCC check.
    """
    rng = _rng("ledger", job_seed)
    clients = ("c1", "c2", "c3")
    hot = [f"hot{i}" for i in range(4)]
    per_step = 3
    horizon = n_tx // per_step + 6
    workload = [(0, _tx(f"fund{i}", "c1", 1 + i, _set(key, 100))) for i, key in enumerate(hot)]
    ops: dict[str, dict] = {tx["tx_id"]: tx["op"] for _, tx in workload}
    for i in range(n_tx - len(hot)):
        if rng.random() < 0.6:
            op = _set(f"k{rng.randrange(n_tx)}", rng.randrange(1000))
        elif rng.random() < 0.9:
            src, dst = rng.sample(hot, 2)
            op = _transfer(src, dst, 1 + rng.randrange(60))
        else:
            src, dst = rng.sample(hot, 2)
            op = _transfer(src, dst, 1_000_000, valid=False)
        tx = _tx(f"t{i}", rng.choice(clients), 10 + i, op)
        ops[tx["tx_id"]] = op
        workload.append((1 + i // per_step, tx))
    skip_peer = rng.randrange(LEDGER_PEERS)
    scenario = _scenario(
        clients=clients,
        behaviors={rng.choice(ENDORSERS): {"mode": "fraudulent"}},
        orderers={"n": 5, "batch_size": 8, "crash_schedule": [[1 + rng.randrange(horizon - 6), rng.randrange(5)]]},
        peers=LEDGER_PEERS, skip_v7=[skip_peer], workload=workload, horizon=horizon, seed=rng.getrandbits(32),
    )
    _write_json(job_dir / "scenario.json", scenario)
    argv = ["sim", "run", str(job_dir / "scenario.json"), "--out", str(job_dir / "report.json")]
    return Job([argv], n_tx, {"ops": ops, "skip_peer": skip_peer, "peers": LEDGER_PEERS,
                              "report": job_dir / "report.json"})


_WORDS = ("the", "ledger", "peer", "orderer", "endorser", "block", "state", "policy", "commits", "valid",
          "transaction", "every", "read", "answer", "consistent", "fault", "crash", "tolerated", "risk",
          "evidence", "report", "campaign", "chaincode", "service", 'quoted "word"', "back\\slash")


def _text(rng: random.Random) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(3 + rng.randrange(6)))


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def gate_job(job_seed: int, job_dir: Path, n_nodes: int = GATE_NODES, n_evidence: int = GATE_EVIDENCE) -> Job:
    """A well-formed tree of about ``n_nodes`` nodes, its registry and evidence files.

    Claims are developed breadth-first by decompositions (2-4 subclaims),
    concretizations and substitutions, some with a hypothesis or a
    side-claim, until the node budget is spent; every remaining claim gets a
    proof. ``n_evidence`` proofs reference evidence files with digests and
    are cited by the registry; one of those files is tampered with before
    ``risk coverage`` runs.
    """
    rng = _rng("gate", job_seed)
    children: dict[str, list[str]] = {"C0": []}
    kind_of = {"C0": "claim"}
    text_of = {"C0": _text(rng)}
    counter = [0]

    def add(parent: str, kind: str, prefix: str) -> str:
        counter[0] += 1
        nid = f"{prefix}{counter[0]}" + ("'" if kind == "hypothesis" else "")
        kind_of[nid] = kind
        text_of[nid] = _text(rng)
        children[nid] = []
        children[parent].append(nid)
        return nid

    frontier = ["C0"]
    head = 0
    # every claim still on the frontier gets one proof at the end
    while head < len(frontier) and len(kind_of) + len(frontier) - head < n_nodes - 6:
        claim = frontier[head]
        head += 1
        roll = rng.random()
        kind = "decomposition" if roll < 0.6 else ("concretization" if roll < 0.8 else "substitution")
        arg = add(claim, kind, "A")
        for _ in range(2 + rng.randrange(3) if kind == "decomposition" else 1):
            frontier.append(add(arg, "claim", "C"))
        if rng.random() < 0.15:
            add(arg, "hypothesis", "H")
        if rng.random() < 0.05:
            frontier.append(add(arg, "side-claim", "S"))
    if not any(kind == "hypothesis" for kind in kind_of.values()):
        add(children["C0"][0], "hypothesis", "H")
    proofs = [add(claim, "proof", "P") for claim in frontier[head:]]

    linked = sorted(rng.sample(proofs, min(n_evidence, len(proofs))), key=lambda p: int(p[1:]))
    attrs: dict[str, str] = {}
    (job_dir / "ev").mkdir(exist_ok=True)
    for pid in linked:
        payload = f"{pid} {_text(rng)}\n".encode()
        (job_dir / "ev" / f"{pid}.txt").write_bytes(payload)
        attrs[pid] = f' digest="{hashlib.sha256(payload).hexdigest()}" ref="ev/{pid}.txt"'
    for nid in rng.sample(sorted(kind_of), len(kind_of) // 50):
        attrs[nid] = attrs.get(nid, "") + f' tag="t{rng.randrange(100)}"'

    lines: list[str] = []
    preorder: list[str] = []
    stack = [("C0", 0)]
    while stack:
        nid, level = stack.pop()
        preorder.append(nid)
        lines.append(f"{'  ' * level}{kind_of[nid]} {nid} {_quote(text_of[nid])}{attrs.get(nid, '')}\n")
        stack.extend((child, level + 1) for child in reversed(children[nid]))
    cae = job_dir / "tree.cae"
    cae.write_text("".join(lines), encoding="utf-8")

    risks: list[str] = []
    uncited = list(linked)
    rng.shuffle(uncited)
    buckets: list[str] = []
    while uncited:
        rid = f"R{len(risks) + 1}"
        header = (f"risk {rid} {_quote(_text(rng))} criticality=\"{rng.choice(('Low', 'Medium', 'High'))}\""
                  f" events=\"{rng.choice(('InvalidAccepted', 'ValidRejected', 'InconsistentRead'))}\""
                  f" likelihood=\"{rng.choice(('Rare', 'Possible', 'Frequent'))}\"\n")
        if rng.random() < 0.2:
            risks.append(header + f"  accept {_quote(_text(rng))}\n")
            buckets.append(f"{rid}: AcceptedAsIs")
            continue
        body = ""
        for _ in range(1 + rng.randrange(3)):
            pid = uncited.pop() if uncited else rng.choice(linked)
            body += f"  mitigation {rng.choice(('prevention', 'elimination', 'tolerance', 'forecasting'))} evidence=\"{pid}\"\n"
        risks.append(header + body)
        buckets.append(f"{rid}: Covered")
    registry = job_dir / "registry.risk"
    registry.write_text("".join(risks), encoding="utf-8")

    tampered = rng.choice(linked)

    def tamper() -> None:
        with open(job_dir / "ev" / f"{tampered}.txt", "ab") as handle:
            handle.write(b"tampered\n")

    dot = job_dir / "tree.dot"
    hypotheses = [nid for nid in preorder if kind_of[nid] == "hypothesis"]
    commands = [
        ["cae", "check", str(cae)],
        ["cae", "status", str(cae)],
        ["cae", "render", str(cae), "--out", str(dot)],
        ["risk", "coverage", str(registry), str(cae)],
    ]
    accepted = sum(line.endswith("AcceptedAsIs") for line in buckets)
    expect = {
        "cae": str(cae),
        "dot": dot,
        "nodes": len(kind_of),
        "edges": len(kind_of) - 1,
        "assumptions": [f"  {nid}: {text_of[nid]}" for nid in hypotheses],
        "coverage": buckets + [
            f"{tampered}: digest-mismatch: file 'ev/{tampered}.txt' does not match the digest",
            f"risks: {len(risks)} (AcceptedAsIs: {accepted}, Covered: {len(risks) - accepted}, "
            "Dangling: 0, Uncovered: 0); link issues: 1",
        ],
    }
    return Job(commands, len(kind_of), expect, before={3: tamper})


# Fixed policy shapes, so every tolerance job costs about the same; the seed
# picks identity names and their order. Flat shapes are checked by closed
# forms, nested ones against pinned output digests.
FLAT_SHAPES = ((3, 20), (15, 18), (7, 18), (16, 19))
NESTED_SHAPES = (("and_of_thresholds", 19), ("or_of_thresholds", 20))


def _identities(rng: random.Random, n: int) -> list[str]:
    names: set[str] = set()
    while len(names) < n:
        names.add(f"{rng.choice(('Org', 'Peer', 'Bank', 'Node'))}{rng.randrange(1000)}")
    out = sorted(names)
    rng.shuffle(out)
    return out


def _nested(rng: random.Random, shape: str, n: int) -> str:
    ids = _identities(rng, n)
    if shape == "and_of_thresholds":
        a, b, c = ids[:7], ids[7:13], ids[13:]
        return (f"and(outof(4,{','.join(a)}),or(outof(3,{','.join(b)}),and({c[0]},{c[1]})),"
                f"outof({len(c) - 2},{','.join(c)}))")
    groups = [ids[i:i + 4] for i in range(0, len(ids), 4)]
    terms = [f"outof({max(1, len(g) - 1)},{','.join(g)})" if len(g) > 1 else g[0] for g in groups]
    return f"outof(3,{','.join(terms)})"


def tolerance_job(job_seed: int, job_dir: Path) -> Job:
    rng = _rng("tolerance", job_seed)
    commands: list[list[str]] = []
    flat: dict[int, tuple[int, int]] = {}
    for k, n in FLAT_SHAPES:
        ids = _identities(rng, n)
        path = job_dir / f"policy{len(commands)}.txt"
        path.write_text(f"outof({k},{','.join(ids)})\n", encoding="utf-8")
        flat[len(commands)] = (k, n)
        commands.append(["policy", "tolerance", str(path)])
    for shape, n in NESTED_SHAPES:
        path = job_dir / f"policy{len(commands)}.txt"
        path.write_text(_nested(rng, shape, n) + "\n", encoding="utf-8")
        commands.append(["policy", "tolerance", str(path)])
    return Job(commands, len(commands), {"flat": flat})


# reduced sizes for the benchmark's own tests
SMALL = {
    "campaign": {"runs": 20},
    "ledger": {"n_tx": 60},
    "gate": {"n_nodes": 400, "n_evidence": 12},
    "tolerance": {},
}
GENERATORS = {
    "campaign": campaign_job,
    "ledger": ledger_job,
    "gate": gate_job,
    "tolerance": tolerance_job,
}

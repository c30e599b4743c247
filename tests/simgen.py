"""Randomized-but-reproducible scenario builders shared by the test suites."""

from __future__ import annotations

from blockcase import eov_sim as sim
from blockcase.determinism import CounterRng
from blockcase.policy_analysis import CRASHED, DOSED, HONEST, any_of, out_of

KEYS = ("k1", "k2", "k3")


def random_workload(rng: CounterRng, clients, horizon, n_txs):
    """Mixed writes and transfers over a tiny key pool, conflicts likely."""
    workload = []
    for i in range(n_txs):
        step = rng.randrange(max(horizon - 3, 1))
        client = rng.choice(clients)
        kind = rng.randrange(3)
        if kind == 0:
            op = sim.ChaincodeOp.set(rng.choice(KEYS), rng.randrange(50))
        elif kind == 1:
            src = rng.choice(KEYS)
            dst = rng.choice([k for k in KEYS if k != src])
            op = sim.ChaincodeOp.transfer(src, dst, 1 + rng.randrange(10))
        else:
            op = sim.ChaincodeOp.noop()
        workload.append((step, sim.TxProposal(f"t{i}", client, i + 1, op)))
    return tuple(sorted(workload, key=lambda pair: (pair[0], pair[1].tx_id)))


def random_behaviors(rng: CounterRng, endorsers, modes, horizon):
    behaviors = {}
    for endorser in endorsers:
        mode = rng.choice(modes)
        if mode == HONEST:
            continue
        if mode == DOSED:
            start = rng.randrange(horizon)
            behaviors[endorser] = sim.dosed(start, start + rng.randrange(horizon - start))
        else:
            behaviors[endorser] = sim.EndorserBehavior(mode)
    return behaviors


def random_scenario(
    seed: int,
    *,
    behavior_modes=(HONEST, CRASHED, DOSED),
    peers_range=(2, 4),
    skip_v7=frozenset(),
    orderer_crashes=True,
    seed_funds=True,
):
    """A small scenario with random topology, workload and fault injection."""
    rng = CounterRng(seed, stream=77)
    n_endorsers = 3 + rng.randrange(3)
    endorsers = [f"E{i}" for i in range(1, n_endorsers + 1)]
    clients = [f"c{i}" for i in range(1, 3)]
    horizon = 8 + rng.randrange(5)

    policy = (
        any_of(endorsers)
        if rng.randrange(2) == 0
        else out_of(1 + rng.randrange(n_endorsers), endorsers)
    )
    # keep the run from starving: under threshold policies only honest faults
    modes = behavior_modes if policy == any_of(endorsers) else tuple(m for m in behavior_modes if m != CRASHED)

    workload = list(random_workload(rng, clients, horizon, 3 + rng.randrange(5)))
    if seed_funds:
        funding = [
            (0, sim.TxProposal(f"fund-{key}", clients[0], 100 + i, sim.ChaincodeOp.set(key, 40)))
            for i, key in enumerate(KEYS)
        ]
        workload = funding + workload

    n_orderers = 1 + 2 * rng.randrange(3)  # 1, 3 or 5
    crash_schedule = ()
    if orderer_crashes and n_orderers > 1:
        tolerable = (n_orderers - 1) // 2
        crash_schedule = tuple(
            (rng.randrange(horizon), index) for index in range(rng.randrange(tolerable + 1))
        )

    peers = peers_range[0] + rng.randrange(peers_range[1] - peers_range[0] + 1)
    return sim.ScenarioConfig(
        msp_emitters=frozenset(clients),
        msp_endorsers=frozenset(endorsers),
        endorser_behaviors=random_behaviors(rng, endorsers, modes, horizon),
        policy=policy,
        orderers=sim.OrdererConfig(n=n_orderers, batch_size=1 + rng.randrange(3), crash_schedule=crash_schedule),
        peers=peers,
        skip_v7_peers=frozenset(skip_v7),
        workload=tuple(workload),
        horizon=horizon,
        seed=seed,
    )


def replay_committed(result: sim.SimResult) -> sim.KvStore:
    """Sequential oracle: re-execute exactly the committed-valid transactions.

    Effects are recomputed from scratch with the chaincode semantics, not
    read out of the endorsed read/write sets, so this is an independent
    check of what validation applied.
    """
    ops = {proposal.tx_id: proposal.op for proposal in _proposals_of(result)}
    entries = iter(result.report.committed)
    store = sim.KvStore()
    for block in result.run.blocks:
        for index, submission in enumerate(block.submissions):
            entry = next(entries)
            assert entry.tx_id == submission.proposal.tx_id
            if not entry.valid:
                continue
            rwset = sim.execute_chaincode(store, ops[entry.tx_id])
            store.apply_writes(rwset.writes, (block.block_no, index))
    return store


def _proposals_of(result: sim.SimResult):
    for block in result.run.blocks:
        for submission in block.submissions:
            yield submission.proposal

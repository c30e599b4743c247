"""Per-layer spans recorded from outside the program.

``Tracer.install`` builds a wrapper around the public functions of each
layer and finds every ``blockcase`` module namespace that binds them (and
the classes that own the methods), so calls through any import path are
seen. ``Tracer.active`` puts the wrappers in place for one job's commands
only, so the benchmark's own checks stay out of the counts. Each wrapper
records a span (function, start, end, parent span, job id) in memory and
accumulates calls, self time (duration minus the time of wrapped calls made
inside it) and exceptions that crossed it. ``save`` writes the spans out as
one ``.npz`` file.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from time import perf_counter

# layer -> (module, wrapped functions); "Class.method" names a method
LAYERS = {
    "cli": ("blockcase.cli", (
        "main", "cmd_policy_campaign", "cmd_sim_run", "cmd_cae_check", "cmd_cae_status",
        "cmd_cae_render", "cmd_risk_coverage", "cmd_policy_tolerance")),
    "policy_analysis": ("blockcase.policy_analysis", (
        "monte_carlo_campaign", "draw_behavior_modes", "eval_policy", "parse_policy",
        "min_satisfying_sets", "min_blocking_sets", "emit_evidence_report")),
    "eov_sim.engine": ("blockcase.eov_sim.engine", (
        "simulate", "endorse", "assemble_submission", "ordering_step", "validate_block",
        "detect_feared_events", "RunReport.to_json_bytes")),
    "eov_sim.state": ("blockcase.eov_sim.state", (
        "KvStore.digest", "KvStore.copy", "execute_chaincode", "claimed_effects")),
    "eov_sim.scenario": ("blockcase.eov_sim.scenario", (
        "parse_scenario", "validate_config", "scenario_digest", "ScenarioConfig.with_behaviors")),
    "determinism": ("blockcase.determinism", ("canonical_json_bytes", "CounterRng.u64", "file_sha256")),
    "linefmt": ("blockcase.linefmt", ("lex",)),
    "cae_dsl": ("blockcase.cae_dsl", ("parse", "serialize", "to_dot", "verify_links")),
    "cae_model": ("blockcase.cae_model", ("check_well_formed", "node_status", "assumptions_of")),
    "risk_ledger": ("blockcase.risk_ledger", ("parse_registry", "coverage_check")),
}
# exceptions are reported where they are part of the function's contract
RAISED = (
    "eov_sim.state.execute_chaincode",  # AppFailure
    "policy_analysis.parse_policy",  # PolicyError
    "eov_sim.scenario.parse_scenario",  # ConfigInvalid
    "cae_dsl.parse",  # ParseFailure
    "risk_ledger.parse_registry",  # ParseFailure
)
WASTE = (
    "campaign.sims_per_run",
    "eov_sim.validate_block.calls_per_block",
    "eov_sim.KvStore.digest.calls_per_block",
    "eov_sim.KvStore.copy.calls_per_block",
    "eov_sim.ordering_step.idle_ratio",
)
FUNCTIONS = [f"{layer}.{name}" for layer, (_, names) in LAYERS.items() for name in names]
LAYER_OF = [layer for layer, (_, names) in LAYERS.items() for _ in names]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for fn in FUNCTIONS:
        units[f"{fn}.calls"] = "calls/job"
        units[f"{fn}.self_s"] = "s/job"
        if fn in RAISED:
            units[f"{fn}.raised"] = "1/job"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s/job"
    for name in WASTE:
        units[name] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    def __init__(self) -> None:
        n = len(FUNCTIONS)
        self.calls = [0] * n
        self.self_time = [0.0] * n
        self.raised = [0] * n
        self.stack: list[list] = []  # [child time, span index]
        self.span_fn: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.span_job: list[int] = []
        self.job = -1
        self.blocks = 0  # blocks cut, seen at ordering_step
        self.idle_steps = 0
        self.campaign_runs = 0  # runs requested, seen at monte_carlo_campaign
        self._patches: list[tuple[object, str, object, object]] = []  # owner, name, original, wrapper

    def _wrap(self, fid: int, fn, on_result=None):
        tracer = self
        stack = self.stack
        calls, self_time, raised = self.calls, self.self_time, self.raised
        span_fn, span_start, span_end = self.span_fn, self.span_start, self.span_end
        span_parent, span_job = self.span_parent, self.span_job

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(span_fn)
            span_fn.append(fid)
            span_parent.append(stack[-1][1] if stack else -1)
            span_job.append(tracer.job)
            frame = [0.0, index]
            stack.append(frame)
            start = perf_counter()
            span_start.append(start)
            span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[fid] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                span_end[index] = end
                duration = end - start
                self_time[fid] += duration - frame[0]
                calls[fid] += 1
                if stack:
                    stack[-1][0] += duration
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _on_ordering_step(self, result) -> None:
        cut = len(result[0])
        self.blocks += cut
        self.idle_steps += cut == 0

    def _on_campaign(self, result) -> None:
        self.campaign_runs += result.n_runs

    def install(self) -> None:
        """Find every binding of the wrapped functions and build their wrappers."""
        modules = [importlib.import_module(module) for module, _ in LAYERS.values()]
        loaded = [m for name, m in sorted(sys.modules.items()) if name.startswith("blockcase") and m is not None]
        hooks = {"eov_sim.engine.ordering_step": self._on_ordering_step,
                 "policy_analysis.monte_carlo_campaign": self._on_campaign}
        fid = 0
        for module, (_, names) in zip(modules, LAYERS.values()):
            for name in names:
                if "." in name:  # a method: patch the class that owns it
                    cls_name, attr = name.split(".")
                    owners = [getattr(module, cls_name)]
                    original = vars(owners[0])[attr]
                else:  # a function: patch every module that binds it, under any name
                    owners = loaded
                    original = vars(module)[name]
                wrapper = self._wrap(fid, original, hooks.get(FUNCTIONS[fid]))
                for owner in owners:
                    for key, value in vars(owner).items():
                        if value is original:
                            self._patches.append((owner, key, original, wrapper))
                fid += 1

    @contextlib.contextmanager
    def active(self, job: int):
        """Route calls through the wrappers while one job's commands run."""
        self.job = job
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)
        try:
            yield
        finally:
            for owner, key, original, _ in self._patches:
                setattr(owner, key, original)

    def metrics(self, jobs: int, overhead_ratio: float) -> dict[str, float]:
        """Per-job means of every per-layer metric over ``jobs`` traced jobs."""
        per_job = max(jobs, 1)
        out: dict[str, float] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for fid, fn in enumerate(FUNCTIONS):
            out[f"{fn}.calls"] = self.calls[fid] / per_job
            out[f"{fn}.self_s"] = self.self_time[fid] / per_job
            if fn in RAISED:
                out[f"{fn}.raised"] = self.raised[fid] / per_job
            layer_self[LAYER_OF[fid]] += self.self_time[fid]
        for layer, total in layer_self.items():
            out[f"{layer}.self_s"] = total / per_job
        count = {fn: self.calls[fid] for fid, fn in enumerate(FUNCTIONS)}

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out["campaign.sims_per_run"] = ratio(count["eov_sim.engine.simulate"], self.campaign_runs)
        out["eov_sim.validate_block.calls_per_block"] = ratio(count["eov_sim.engine.validate_block"], self.blocks)
        out["eov_sim.KvStore.digest.calls_per_block"] = ratio(count["eov_sim.state.KvStore.digest"], self.blocks)
        out["eov_sim.KvStore.copy.calls_per_block"] = ratio(count["eov_sim.state.KvStore.copy"], self.blocks)
        out["eov_sim.ordering_step.idle_ratio"] = ratio(self.idle_steps, count["eov_sim.engine.ordering_step"])
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def save(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            functions=np.array(FUNCTIONS),
            function=np.array(self.span_fn, dtype=np.int16),
            start=np.array(self.span_start),
            end=np.array(self.span_end),
            parent=np.array(self.span_parent, dtype=np.int64),
            job=np.array(self.span_job, dtype=np.int32),
        )

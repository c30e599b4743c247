"""Command-line front end.

Exit codes separate findings from tool faults so CI gates can tell an
assurance regression apart from a broken invocation: 0 success, 1 findings
(violations, uncovered risks, feared events), 2 usage or parse errors,
3 I/O errors, 4 internal errors (an unexpected exception, never a finding).
Every command is deterministic given its inputs and flags. A command line
that starts with a group and one of its commands is parsed by that
command's own parser; any other (--version, a group's help, an unknown
choice) by the whole tree. One table builds both.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__, eov_sim, policy_analysis
from .cae_dsl import link_evidence, parse, serialize, to_dot, verify_links
from .cae_model import CaeError, CaeTree, assumptions_of, check_well_formed, node_status
from .determinism import sha256_hex
from .linefmt import ParseFailure
from .risk_ledger import coverage_check, parse_registry

OK = 0
FINDINGS = 1
PARSE_ERROR = 2
IO_ERROR = 3
INTERNAL_ERROR = 4


class _Refused(Exception):
    """Raised as (exit code, *stderr lines) for an input or output the CLI cannot use."""


def _load(path: str, reader):
    """Read ``path`` as UTF-8 text, a leading byte-order mark dropped, and apply ``reader`` to it.

    Every refusal names the file: a missing one, or one that cannot be read
    (a directory, say), exits 3, text that is not UTF-8 or that ``reader``
    rejects exits 2. A reader rejects with a parse failure or a scenario,
    policy or tree error: any ``CaeError``, so that the ``--link`` reader can
    refuse an id that is unknown or not evidence.
    """
    try:
        return reader(Path(path).read_text(encoding="utf-8-sig"))
    except FileNotFoundError as exc:
        raise _Refused(IO_ERROR, f"file not found: {exc.filename}") from None
    except OSError as exc:
        raise _Refused(IO_ERROR, f"cannot read {path}: {exc}") from None
    except ParseFailure as failure:
        raise _Refused(PARSE_ERROR, *(f"{path}:{error}" for error in failure.errors)) from None
    except (UnicodeDecodeError, eov_sim.ConfigInvalid, policy_analysis.PolicyError, CaeError) as exc:
        raise _Refused(PARSE_ERROR, f"{path}: {exc}") from None


def _write(path: str, data: str | bytes) -> None:
    """Write ``data`` to ``path``, text as UTF-8; a failure names the path and exits 3."""
    try:
        Path(path).write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    except OSError as exc:
        raise _Refused(IO_ERROR, f"cannot write {path}: {exc}") from None


def _refuse_overwrite(out: str | None, source: str, role: str, output: str) -> None:
    """Refuse an ``--out`` that is the input file ``source``, by its path or by a hard link to it:
    the write would truncate that input. An existing input is ``out`` when both are one inode; a
    missing one, when both paths resolve to one path."""
    if not out:
        return
    if os.path.exists(source):
        same = os.path.exists(out) and os.path.samefile(out, source)
    else:
        same = os.path.realpath(out) == os.path.realpath(source)
    if same:
        raise _Refused(PARSE_ERROR, f"--out {out} is the {role} {source}; write the {output} elsewhere")


def cmd_cae_check(args) -> int:
    tree = _load(args.file, parse)
    violations = check_well_formed(tree)
    for violation in violations:
        print(f"{violation.node_id}: {violation.rule}: {violation.message}")
    status = node_status(tree, tree.root).name.capitalize() if not violations else "n/a"
    print(f"{args.file}: {len(violations)} violation(s); root status: {status}")
    return FINDINGS if violations else OK


def cmd_cae_render(args) -> int:
    _refuse_overwrite(args.out, args.file, "tree", "DOT")
    tree = _load(args.file, parse)
    _write(args.out, to_dot(tree))
    print(f"wrote {args.out}")
    return OK


def cmd_cae_status(args) -> int:
    tree = _load(args.file, parse)
    print(f"root {tree.root}: {node_status(tree, tree.root).name.capitalize()}")
    assumptions = assumptions_of(tree, tree.root)
    if assumptions:
        print("assumptions:")
        for nid in assumptions:
            print(f"  {nid}: {tree.nodes[nid].text}")
    else:
        print("assumptions: none")
    return OK


def cmd_risk_coverage(args) -> int:
    registry = _load(args.registry, parse_registry)
    tree = _load(args.cae, parse)

    report = coverage_check(registry, tree)
    for entry in report.entries:
        if entry.missing:
            print(f"{entry.risk_id}: {entry.bucket} (missing: {', '.join(entry.missing)})")
        else:
            print(f"{entry.risk_id}: {entry.bucket}")

    cited = {m.evidence_id for risk in registry for m in risk.mitigations}
    issues = verify_links(tree, Path(args.cae).parent, only=cited)
    for issue in issues:
        print(f"{issue.node_id}: {issue.code}: {issue.detail}")

    counts = ", ".join(f"{bucket}: {count}" for bucket, count in sorted(report.counts.items()))
    print(f"risks: {len(registry)} ({counts}); link issues: {len(issues)}")
    return OK if report.clean and not issues else FINDINGS


def cmd_sim_run(args) -> int:
    _refuse_overwrite(args.out, args.scenario, "scenario", "report")
    config = _load(args.scenario, eov_sim.parse_scenario)
    report = eov_sim.run_scenario(config)
    payload = report.to_json_bytes()
    if args.out:
        _write(args.out, payload)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(payload.decode("utf-8"))
    for event, count in sorted(report.feared_event_counts.items(), key=lambda kv: kv[0].value):
        print(f"{event.value}: {count}")
    if report.liveness_lost_at is not None:
        print(f"liveness lost at step {report.liveness_lost_at}")
    return OK if report.clean else FINDINGS


def _format_sets(sets) -> str:
    return ", ".join("{" + ",".join(names) + "}" for names in sets)


def cmd_policy_tolerance(args) -> int:
    def analyse(text: str):  # the identity bound is checked here, so its error names the file
        policy = policy_analysis.parse_policy(text)
        return policy, policy_analysis.minimal_sets(policy), policy_analysis.minimal_sets(policy, blocking=True)

    policy, satisfying, blocking = _load(args.policy, analyse)
    print(f"policy: {policy_analysis.serialize_policy(policy)}")
    print(f"identities: {', '.join(sorted(policy_analysis.identities(policy)))}")
    print(f"fraud tolerance: {len(satisfying[0]) - 1}")  # the sets come smallest first
    print(f"censorship tolerance: {len(blocking[0]) - 1}")
    print(f"minimal satisfying sets: {_format_sets(satisfying)}")
    print(f"minimal blocking sets: {_format_sets(blocking)}")
    return OK


def _parse_prob_flags(pairs: list[str]) -> dict[str, float]:
    probs: dict[str, float] = {}
    for pair in pairs:
        mode, _, value = pair.partition("=")
        if mode in probs:
            raise _Refused(PARSE_ERROR, f"--prob gives mode {mode!r} more than once")
        try:
            probs[mode] = float(value)
        except ValueError:
            raise _Refused(PARSE_ERROR, f"--prob takes mode=number, got {pair!r}") from None
    return probs


# the flag that carries each monte_carlo_campaign argument, so that its refusals name the flag
_CAMPAIGN_FLAGS = {"fault_probabilities": "--prob", "n_runs": "--runs", "seed": "--seed"}


def default_campaign_scenario(policy) -> "eov_sim.ScenarioConfig":
    """A small standalone base: one valid write and one guard-violating transfer."""
    valid = eov_sim.TxProposal("demo-valid", "client-1", 1, eov_sim.ChaincodeOp.set("asset", 1))
    invalid = eov_sim.TxProposal(
        "demo-invalid", "client-1", 2, eov_sim.ChaincodeOp.transfer("unfunded", "sink", 5, valid=False)
    )
    orderers = eov_sim.OrdererConfig(n=3, batch_size=8)
    return eov_sim.standalone_scenario(policy, (valid, invalid), orderers=orderers, horizon=2)


def cmd_policy_campaign(args) -> int:
    _refuse_overwrite(args.out, args.policy, "policy", "report")
    if args.scenario:
        _refuse_overwrite(args.out, args.scenario, "scenario", "report")
    policy = _load(args.policy, policy_analysis.parse_policy)
    if args.scenario:
        base = _load(args.scenario, lambda text: replace(eov_sim.parse_scenario(text), policy=policy))
        if base.endorser_behaviors:  # the campaign's draws would replace them, and the report would not say so
            raise _Refused(PARSE_ERROR, f"--scenario: {args.scenario} sets endorser_behaviors for "
                                        f"{', '.join(sorted(base.endorser_behaviors))}; a campaign draws every "
                                        "endorser's behavior, so its base must leave them out")
    else:
        base = default_campaign_scenario(policy)
    if args.link:  # read and checked before the campaign runs, so a refused --link writes nothing
        cae_path, _, evidence_id = args.link.rpartition(":")
        if not cae_path or not evidence_id:
            raise _Refused(PARSE_ERROR, f"--link takes <cae-file>:<evidence-id>, got {args.link!r}")
        _refuse_overwrite(args.out, cae_path, "--link tree", "report")

        def read_tree(text: str) -> CaeTree:  # the evidence rule is checked here, so its error names the file
            tree = parse(text)
            tree.evidence(evidence_id)
            return tree

        tree = _load(cae_path, read_tree)
    try:
        report = policy_analysis.monte_carlo_campaign(base, _parse_prob_flags(args.prob), args.runs, args.seed)
    except policy_analysis.BadProbabilityError as exc:
        raise _Refused(PARSE_ERROR, f"{_CAMPAIGN_FLAGS[exc.argument]}: {exc}") from None

    payload = report.to_json_bytes()
    _write(args.out, payload)
    digest = sha256_hex(payload)
    print(f"wrote {args.out} (sha256 {digest})")
    print(f"fraud: {report.fraud_successes}/{report.n_runs} rate {report.fraud_success_rate:.4f} "
          f"ci95 +/-{report.fraud_ci95_halfwidth:.4f}")
    print(f"censorship: {report.censorship_successes}/{report.n_runs} rate {report.censorship_success_rate:.4f} "
          f"ci95 +/-{report.censorship_ci95_halfwidth:.4f}")

    if args.link:
        try:
            reference = str(Path(args.out).resolve().relative_to(Path(cae_path).parent.resolve()))
        except ValueError:
            reference = str(Path(args.out).resolve())
        _write(cae_path, serialize(link_evidence(tree, evidence_id, reference, digest)))
        print(f"linked {evidence_id} in {Path(cae_path)}")

    return OK if report.fraud_successes == 0 and report.censorship_successes == 0 else FINDINGS


# every group with its help, in the order the top level lists them
_GROUPS = {
    "cae": "check, render and evaluate assurance trees",
    "risk": "risk registry checks",
    "sim": "pipeline simulation",
    "policy": "endorsement-policy analysis",
}
# (group, command) -> (help, arguments as (name, add_argument keywords)), each group's in the order it lists them;
# the handler is the module's cmd_<group>_<command>, looked up by main when it is called
_COMMANDS = {
    ("cae", "check"): ("well-formedness findings and root status", [("file", {})]),
    ("cae", "render"): ("deterministic DOT rendering", [
        ("file", {}),
        ("--out", {"required": True, "help": "output path"})]),
    ("cae", "status"): ("root status and open assumptions", [("file", {})]),
    ("risk", "coverage"): ("tie every risk to evidence or acceptance", [("registry", {}), ("cae", {})]),
    ("sim", "run"): ("run one scenario and write its report", [
        ("scenario", {}),
        ("--out", {"default": None, "help": "report path (stdout when omitted)"})]),
    ("policy", "tolerance"): ("exact fraud/censorship tolerances", [("policy", {})]),
    ("policy", "campaign"): ("sampled fault campaign with an evidence report", [
        ("policy", {}),
        ("--runs", {"type": int, "default": 1000, "help": "number of sampled runs"}),
        ("--seed", {"type": int, "default": 0, "help": "campaign seed"}),
        ("--scenario", {"default": None, "help": "base scenario file (a default is built otherwise)"}),
        ("--prob", {"action": "append", "default": [], "metavar": "MODE=P",
                    "help": "fault probability, e.g. fraudulent=0.3 (repeatable)"}),
        ("--out", {"required": True, "help": "evidence report path"}),
        ("--link", {"default": None, "metavar": "CAE:EVIDENCE_ID",
                    "help": "link the written report into an assurance tree"})]),
}


def _with_arguments(parser: argparse.ArgumentParser, group: str, command: str) -> argparse.ArgumentParser:
    """``parser`` given the arguments of ``group command``, which it parses into a namespace naming them."""
    for name, keywords in _COMMANDS[group, command][1]:
        parser.add_argument(name, **keywords)
    parser.set_defaults(group=group, command=command)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree: the top level, every group and every command in it."""
    parser = argparse.ArgumentParser(prog="blockcase", description=__doc__)
    parser.add_argument("--version", action="version", version=f"blockcase {__version__}")
    groups = parser.add_subparsers(dest="group", required=True)
    for group, group_help in _GROUPS.items():
        commands = groups.add_parser(group, help=group_help).add_subparsers(dest="command", required=True)
        for (owner, command), (command_help, _) in _COMMANDS.items():
            if owner == group:
                _with_arguments(commands.add_parser(command, help=command_help), group, command)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if tuple(argv[:2]) in _COMMANDS:  # the command's own parser, built as the tree builds its subparser
        parser = _with_arguments(argparse.ArgumentParser(prog=f"blockcase {argv[0]} {argv[1]}"), *argv[:2])
        args = parser.parse_args(argv[2:])
    else:
        args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.group}_{args.command}"](args)
    except _Refused as refusal:
        code, *lines = refusal.args
        print("\n".join(lines), file=sys.stderr)
        return code
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return IO_ERROR
    except Exception as exc:  # a crash must not read as a finding; argparse's SystemExit is no Exception
        message = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())

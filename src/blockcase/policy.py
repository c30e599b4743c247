"""Endorsement-policy algebra: expressions, evaluation and canonical text.

Policies are monotone boolean expressions over endorser identities:
leaves ``Sig(id)``, conjunctions, disjunctions and k-of-n thresholds. The
text form is ``E1``, ``and(E1,E2)``, ``or(E1,and(E2,E3))``,
``outof(2,E1,E2,E3)`` with ``all``/``any`` accepted as sugar.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .determinism import sha256_hex

_IDENT = re.compile(r"[A-Za-z0-9_.\-']+")
# white space and comments: a comment runs from "#" to LF, CRLF or CR, as in .cae and .risk files
_SKIP = re.compile(r"(?:\s|#[^\r\n]*)*")
MAX_POLICY_DEPTH = 100  # operators nested inside one another; bounds every recursive walk of a parsed policy


class PolicyError(ValueError):
    """Malformed policy expression or identity set."""


@dataclass(frozen=True, slots=True)
class Sig:
    identity: str

    def __post_init__(self):
        if not _IDENT.fullmatch(self.identity):
            raise PolicyError(f"invalid identity {self.identity!r}")


@dataclass(frozen=True, slots=True)
class And:
    children: tuple["EndorsementPolicy", ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise PolicyError("and() needs at least two children")


@dataclass(frozen=True, slots=True)
class Or:
    children: tuple["EndorsementPolicy", ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise PolicyError("or() needs at least two children")


@dataclass(frozen=True, slots=True)
class OutOf:
    k: int
    children: tuple["EndorsementPolicy", ...]

    def __post_init__(self):
        if not 1 <= self.k <= len(self.children):
            raise PolicyError(f"outof threshold {self.k} out of range for {len(self.children)} children")


EndorsementPolicy = Sig | And | Or | OutOf


def all_of(identities: Sequence[str]) -> EndorsementPolicy:
    leaves = tuple(Sig(i) for i in identities)
    return leaves[0] if len(leaves) == 1 else And(leaves)


def any_of(identities: Sequence[str]) -> EndorsementPolicy:
    leaves = tuple(Sig(i) for i in identities)
    return leaves[0] if len(leaves) == 1 else Or(leaves)


def out_of(k: int, identities: Sequence[str]) -> EndorsementPolicy:
    return OutOf(k, tuple(Sig(i) for i in identities))


def identities(policy: EndorsementPolicy) -> frozenset[str]:
    if isinstance(policy, Sig):
        return frozenset((policy.identity,))
    out: set[str] = set()
    for child in policy.children:
        out |= identities(child)
    return frozenset(out)


def eval_policy(policy: EndorsementPolicy, signers: Iterable[str]) -> bool:
    """Whether the signer set satisfies the policy."""
    present = signers if isinstance(signers, (set, frozenset)) else set(signers)

    def walk(node: EndorsementPolicy) -> bool:
        if isinstance(node, Sig):
            return node.identity in present
        if isinstance(node, And):
            return all(walk(c) for c in node.children)
        if isinstance(node, Or):
            return any(walk(c) for c in node.children)
        hits = 0
        for child in node.children:
            if walk(child):
                hits += 1
                if hits >= node.k:
                    return True
        return False

    return walk(policy)


Verdicts = Callable[[frozenset[str]], bool]  # a policy's verdict on each signer set, as verdicts_of builds it


def verdicts_of(policy: EndorsementPolicy) -> Verdicts:
    """``eval_policy`` of ``policy`` as a function of the signer set, evaluated once per set."""
    return functools.cache(functools.partial(eval_policy, policy))


def serialize_policy(policy: EndorsementPolicy) -> str:
    """Canonical text form (child order preserved)."""
    if isinstance(policy, Sig):
        return policy.identity
    parts = ",".join(serialize_policy(c) for c in policy.children)
    if isinstance(policy, And):
        return f"and({parts})"
    if isinstance(policy, Or):
        return f"or({parts})"
    return f"outof({policy.k},{parts})"


def policy_digest(policy: EndorsementPolicy) -> str:
    return sha256_hex(serialize_policy(policy).encode("utf-8"))


def parse_policy(text: str) -> EndorsementPolicy:
    """Parse the policy expression grammar; '#' starts a comment that runs to LF, CRLF or CR.

    Nesting deeper than ``MAX_POLICY_DEPTH`` operators is a ``PolicyError``;
    an error's offset counts characters into ``text``.
    """
    pos = 0

    def skip_ws():
        nonlocal pos
        pos = _SKIP.match(text, pos).end()

    def expect(ch: str):
        nonlocal pos
        skip_ws()
        if pos >= len(text) or text[pos] != ch:
            raise PolicyError(f"expected {ch!r} at offset {pos}")
        pos += 1

    def ident() -> str:
        nonlocal pos
        skip_ws()
        m = _IDENT.match(text, pos)
        if not m:
            raise PolicyError(f"expected an identifier at offset {pos}")
        pos = m.end()
        return m.group(0)

    def expr(depth: int) -> EndorsementPolicy:
        nonlocal pos
        word = ident()
        skip_ws()
        if pos < len(text) and text[pos] == "(":
            if word not in ("and", "or", "outof", "all", "any"):
                raise PolicyError(f"unknown operator {word!r}")
            if depth == MAX_POLICY_DEPTH:
                raise PolicyError(f"policy nests deeper than {MAX_POLICY_DEPTH} operators")
            pos += 1
            if word == "outof":
                k_text = ident()
                if not k_text.isdigit():
                    raise PolicyError(f"outof needs an integer threshold, got {k_text!r}")
                try:
                    k = int(k_text)
                except ValueError:  # more digits than Python converts to an int
                    raise PolicyError(f"outof threshold at offset {pos - len(k_text)} has too many digits") from None
                expect(",")
            args = [expr(depth + 1)]
            skip_ws()
            while pos < len(text) and text[pos] == ",":
                pos += 1
                args.append(expr(depth + 1))
                skip_ws()
            expect(")")
            if word == "outof":
                return OutOf(k, tuple(args))
            if word in ("all", "any") and len(args) == 1:
                return args[0]  # sugar forms collapse a singleton
            if word in ("and", "all"):
                return And(tuple(args))
            return Or(tuple(args))
        return Sig(word)

    result = expr(0)
    skip_ws()
    if pos != len(text):
        raise PolicyError(f"trailing content at offset {pos}")
    return result

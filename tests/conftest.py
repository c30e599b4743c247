from __future__ import annotations

import itertools

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from blockcase import corpus_text, parse, parse_registry
from blockcase.cae_model import (
    ArgumentKind,
    ArgumentNode,
    ClaimNode,
    EvidenceKind,
    EvidenceNode,
    build_tree,
)

# Tests that leave ``max_examples`` unset take it from the loaded profile: the default's
# budget in a plain run, ten times that under ``pytest --hypothesis-profile=thorough``.
settings.register_profile("thorough", max_examples=10 * settings.get_profile("default").max_examples)

CAE_NAMES = ("fig2.cae", "fig3.cae", "fig4.cae", "fig5.cae", "fig6.cae")


@pytest.fixture(scope="session")
def corpus_trees():
    return {name: parse(corpus_text(name)) for name in CAE_NAMES}


@pytest.fixture(scope="session")
def endorser_registry():
    return parse_registry(corpus_text("endorser_risks.risk"))


# Any text survives the one-line quoted form: \n, \t and \r carry escapes,
# and every other character is written as it is, the separators that
# str.splitlines also breaks at included. Surrogates are not drawn.
node_texts = st.text(
    alphabet=st.characters() | st.sampled_from('"\\\n\t\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029'),
    max_size=16,
)
_opt_text = st.none() | node_texts


@st.composite
def cae_trees(draw) -> object:
    """Random well-formed tree, built through build_tree."""
    counter = itertools.count()
    entries = []

    def new_id() -> str:
        return f"N{next(counter)}"

    def add_evidence(parent_id: str) -> None:
        reference = draw(_opt_text.filter(lambda t: t != ""))
        digest = draw(st.none() | st.text("0123456789abcdef", min_size=8, max_size=8)) if reference else None
        entries.append(
            (
                parent_id,
                EvidenceNode(
                    new_id(),
                    draw(st.sampled_from(list(EvidenceKind))),
                    draw(node_texts),
                    reference=reference,
                    digest=digest,
                    tag=draw(_opt_text),
                ),
            )
        )

    def add_argument(parent_id: str, depth: int) -> None:
        argument_id = new_id()
        kind = draw(st.sampled_from(list(ArgumentKind)))
        entries.append((parent_id, ArgumentNode(argument_id, kind, draw(node_texts), tag=draw(_opt_text))))
        needed = 2 if kind is ArgumentKind.DECOMPOSITION else 1
        for _ in range(draw(st.integers(needed, needed + 1))):
            add_claim(argument_id, depth + 1)
        if draw(st.booleans()):
            entries.append((argument_id, ClaimNode(new_id(), draw(node_texts), side=True)))
        for _ in range(draw(st.integers(0, 1))):
            add_evidence(argument_id)

    def add_claim(parent_id: str, depth: int) -> None:
        claim_id = new_id()
        entries.append((parent_id, ClaimNode(claim_id, draw(node_texts), tag=draw(_opt_text))))
        for _ in range(draw(st.integers(0, 2))):
            add_evidence(claim_id)
        if depth < 2 and draw(st.booleans()):
            add_argument(claim_id, depth)

    root = ClaimNode(new_id(), draw(node_texts))
    for _ in range(draw(st.integers(0, 2))):
        add_evidence(root.id)
    if draw(st.booleans()):
        add_argument(root.id, 0)
    return build_tree(root, entries)


def deep_cae(claims):
    """A chain of ``claims`` claims, each substituted by the next, ending in a proof: 2 * claims levels."""
    lines = []
    for i in range(claims):
        lines.append(f'{"  " * (2 * i)}claim C{i} "level {i}"\n')
        if i < claims - 1:
            lines.append(f'{"  " * (2 * i + 1)}substitution A{i} "step {i}"\n')
    lines.append(f'{"  " * (2 * claims - 1)}proof P0 "evidence"\n')
    return "".join(lines)

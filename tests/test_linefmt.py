"""The line grammar shared by ``.cae`` and ``.risk``: lexer paths and the node-line reader."""

from __future__ import annotations

import itertools
from dataclasses import replace
from unittest import mock

import linefmt_reference as reference
import pytest
from conftest import cae_trees
from hypothesis import given, settings
from hypothesis import strategies as st

from blockcase import cae_dsl, risk_ledger
from blockcase.linefmt import Attr, ParseFailure, QString, Token, lex, read_node_line

# (document, [(line, column, code), ...]) for each path of the lexer
LEX_ERRORS = [
    ('claim C0 "r"\n \tproof P0 "x"\n', [(2, 2, "BadIndent")]),  # tab in indentation
    ('claim C0 "r"\n   proof P0 "x"\n', [(2, 3, "BadIndent")]),  # odd indentation: column = spaces
    ('claim C0 "r"\n    proof P0 "x"\n', [(2, 1, "BadIndent")]),  # indentation jump
    ('claim C0 "open\n', [(1, 10, "UnterminatedString")]),  # as an atom
    ('claim C0 "r"\n  proof P0 "x" ref="open\n', [(2, 20, "UnterminatedString")]),  # as an attribute value
    ('claim C0 "abc\\\n', [(1, 10, "UnterminatedString")]),  # a backslash at the end of the line
    ('proof P0 "x" ref=open\n', [(1, 14, "BadAttribute")]),  # key= with no quote
    ('claim C0 "r" =\n', [(1, 14, "BadAttribute")]),  # an empty key with no quote
    ('="" claim\n', [(1, 1, "BadKind")]),  # an empty key in ="" is not a kind token
    ('claim C0 "r"\n  "x" claim\n', [(2, 3, "BadKind")]),  # first atom is not a token
]


@pytest.mark.parametrize(("text", "expected"), LEX_ERRORS)
def test_lexer_error_positions(text, expected):
    lines, errors = lex(text)
    assert [(e.span.line, e.span.column, e.code) for e in errors] == expected
    assert lines[-1].kind is None


# (line, atoms) for node-shaped lines on the edge of the one-match read of ``cae_dsl.parse``
ONE_MATCH_EDGE = [
    ('claim\tC0\t"t"\ttag="v"', (Token("claim", 1), Token("C0", 7), QString("t", 10), Attr("tag", "v", 14))),
    ('claim C0"t"', (Token("claim", 1), Token("C0", 7), QString("t", 9))),
    ('claim C0 "t"k="v"', (Token("claim", 1), Token("C0", 7), QString("t", 10), Attr("k", "v", 13))),
    ('\x0bclaim C0 "t"', (Token("claim", 2), Token("C0", 8), QString("t", 11))),
    ('claim C0 "t" tag="v" \t\x0c', (Token("claim", 1), Token("C0", 7), QString("t", 10), Attr("tag", "v", 14))),
    ('claim C0 "t"=""', (Token("claim", 1), Token("C0", 7), QString("t", 10), Attr("", "", 13))),
    ('claim C0="x"', (Token("claim", 1), Attr("C0", "x", 7))),
]
# (line, atoms) for lines that lex without error
LEX_ATOMS = [
    ('claim C0 "a\\qb"', (Token("claim", 1), Token("C0", 7), QString("a\\qb", 10))),  # unknown escape kept
    ('a"b"', (Token("a", 1), QString("b", 2))),  # a token and a string, not one atom
    ('claim C0 "r" =""', (Token("claim", 1), Token("C0", 7), QString("r", 10), Attr("", "", 14))),
    ('claim C0 "a\\\\\\"b\\n\\t\\r"', (Token("claim", 1), Token("C0", 7), QString('a\\"b\n\t\r', 10))),
    ('k  x="1"\ty  "z"', (Token("k", 1), Attr("x", "1", 4), Token("y", 10), QString("z", 13))),
    *ONE_MATCH_EDGE,
]


@pytest.mark.parametrize(("line", "atoms"), LEX_ATOMS)
def test_lexer_atoms(line, atoms):
    lines, errors = lex(line + "\n")
    assert errors == []
    assert lines[0].atoms == atoms
    assert lines[0].kind == atoms[0].text


@pytest.mark.parametrize("line", [line for line, _ in ONE_MATCH_EDGE])
def test_a_line_on_the_edge_of_the_one_match_read_is_read_as_the_reference_reads_it(line):
    text = line + "\n"
    outcome = _outcome(cae_dsl.parse, text)
    assert outcome == _outcome(reference.parse, text)
    assert (cae_dsl._read_flawless(text) is None) == isinstance(outcome, list)
    assert (cae_dsl._diagnose(text) == []) == (cae_dsl._read_flawless(text) is not None)


# (the lines under a root claim, whether the document parses): the indentation of ``LINE`` is one run of
# spaces, which stops before a tab or a comment, and whose width the one-pass read checks
INDENT_EDGE = [
    ([' proof P0 "x"'], False),  # an odd width
    (['   proof P0 "x"'], False),  # an odd width past the first level
    (["   # note"], True),  # a comment after an odd width
    (['  \tproof P0 "x"'], False),  # a tab after the spaces
    (['  \x0cproof P0 "x"'], True),  # white space between the indentation and the kind
    (['    proof P0 "x"'], False),  # a jump of two levels
    (['  proof P0 "x"', '   proof P1 "y"'], False),  # an odd width within the depth a jump check allows
]


@pytest.mark.parametrize(("lines", "parses"), INDENT_EDGE)
def test_an_indentation_on_the_edge_of_the_one_pass_read_is_read_as_the_reference_reads_it(lines, parses):
    text = "".join(f"{line}\n" for line in ['claim C0 "r"', *lines])
    assert lex(text)[1] == reference.lex(text)[1]
    outcome = _outcome(cae_dsl.parse, text)
    assert outcome == _outcome(reference.parse, text)
    assert isinstance(outcome, list) != parses
    assert (cae_dsl._read_flawless(text) is None) == isinstance(outcome, list)
    assert (cae_dsl._diagnose(text) == []) == (cae_dsl._read_flawless(text) is not None)


def test_lines_end_at_lf_crlf_and_cr_only():
    # str.splitlines would also break at \x0b \x0c \x1c-\x1e \x85 \u2028 \u2029;
    # outside a string they are white space, inside one they are text
    text = 'a "1"\r\nb "2"\r \x0c\nc "3\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"\x85x\n'
    lines, errors = lex(text)
    assert errors == []
    assert [(line.span.line, line.kind) for line in lines] == [(1, "a"), (2, "b"), (4, "c")]
    assert lines[2].atoms[1:] == (QString("3\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029", 3), Token("x", 15))


def _read(text, allowed=("tag",), required=()):
    errors = []
    lines, lex_errors = lex(text)
    assert lex_errors == []
    return read_node_line(lines[0], allowed, errors, required), [(e.span.column, e.code, e.message) for e in errors]


class TestReadNodeLine:
    def test_reads_id_text_and_attributes(self):
        assert _read('claim C0 "root" tag="t"\n') == (("C0", "root", {"tag": "t"}), [])

    @pytest.mark.parametrize(
        ("text", "error"),
        [
            ("claim\n", (1, "BadKind", "claim line needs a node id")),
            ('claim "root"\n', (1, "BadKind", "claim line needs a node id")),
            ('claim C/0 "root"\n', (7, "BadKind", "invalid node id 'C/0'")),
            ("claim C0 root\n", (1, "BadKind", "claim C0 needs a quoted text")),
        ],
    )
    def test_shape_errors_stop_at_the_first(self, text, error):
        assert _read(text) == (None, [error])

    def test_every_attribute_error_is_reported_at_its_atom(self):
        shape, errors = _read('claim C0 "root" tag="a" ref="r" tag="b" extra "more"\n', required=("tag", "owner"))
        assert shape is None
        assert errors == [
            (25, "BadAttribute", "attribute 'ref' is not allowed on claim"),
            (33, "BadAttribute", "attribute 'tag' appears twice"),
            (41, "BadKind", "unexpected trailing content after the node text"),
            (47, "BadKind", "unexpected trailing content after the node text"),
            (1, "BadAttribute", "claim C0 is missing the owner attribute"),
        ]


# Documents over the .cae/.risk alphabet: node lines whose parts are each
# sometimes malformed, so that they fall on either side of the one-match
# read, lines of stray characters, and documents that parse.
# (part, its malformed or unusual variants) in line order
_PARTS = (
    (("", "  ", "    "), (" ", "     ", "\t", "  \t", "\x0b", " \x0b", "\x1c", "  \x1f", "\xa0 ", "\u2029", "  \u3000")),
    (("claim", "side-claim", "decomposition", "substitution", "concretization", "hypothesis", "proof", "risk",
      "mitigation", "accept", "clam"), ('"k"', "k=", "=", "#", "")),
    ((" ", "  ", "\t", "\x0b", "\x0c ", "\u2028", "\x85", "\x1d", "\xa0", "\u3000"), ("",)),
    (("C0", "C1", "A1", "P1", "H1'", "R1", "prevention", "C/0"), ("C0=", '"', '=""', "")),
    ((" ", "", "\t", "\x0b ", "\x1e", "\u2029"), ("\u2028",)),
    (('"t"', '""', '"a\\nb\\rc"', '"\\\\"', '"\\"q\\""', '"a\\qb"'), ('"open', '"end\\', "bare", "")),
)
_ATTRS = (('tag="t"', 'ref="r"', 'digest="d"', 'criticality="Low"', 'events="ValidRejected"', 'likelihood="Rare"',
           'evidence="P1"', 'evidence="P1\\n"', '=""'), ("k=", 'k="open', "x", '"y"', "=", "#"))
_GAPS = (" ", "", "\t", "  ", "\x0c", "\u2028", "\x1c", "\x1f ", "\xa0", "\u2029", "\u3000")
_ALPHABET = ' \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u2029\u3000"\\=#Cc0\'-_.nrt'


@st.composite
def _node_line(draw) -> str:
    def pick(choices):
        good, odd = choices
        return draw(st.sampled_from(odd if draw(st.integers(0, 5)) == 0 else good))

    line = "".join(pick(part) for part in _PARTS)
    for _ in range(draw(st.integers(0, 3))):
        line += draw(st.sampled_from(_GAPS)) + pick(_ATTRS)
    return line + draw(st.sampled_from(_GAPS))


_RISK_CHILDREN = ('  mitigation tolerance evidence="P1"', '  mitigation prevention "x"', '  accept "why"',
                  '  accept "a" "b"', '  mitigation elimination evidence="P1" tag="t"', '    accept "deep"')


@st.composite
def _registry(draw) -> str:
    lines = []
    for i in range(draw(st.integers(1, 3))):
        attrs = ('criticality="Low"', 'events="ValidRejected,InvalidAccepted"', 'likelihood="Rare"')
        lines.append(f'risk R{i} "risk {i}" ' + " ".join(draw(st.permutations(attrs))))
        lines += draw(st.lists(st.sampled_from(_RISK_CHILDREN), max_size=2))
    return "\n".join(lines) + "\n"


_STRAY = _node_line() | st.text(_ALPHABET, max_size=16)


@st.composite
def _interleaved(draw) -> list[str]:
    """The lines of a tree that parses, each followed by a stray line: up to 40 lines."""
    good = cae_dsl.serialize(draw(cae_trees())).split("\n")[:-1][:20]
    return [line for pair in zip(good, draw(st.lists(_STRAY, min_size=len(good), max_size=len(good)))) for line in pair]


@st.composite
def _joined(draw, lines) -> str:
    """``lines`` joined by LF, CRLF and CR; the last line may also end in no line end."""
    drawn = draw(lines)
    ends = draw(st.lists(st.sampled_from(("\n", "\r\n", "\r")), min_size=len(drawn), max_size=len(drawn)))
    if ends:
        ends[-1] = draw(st.sampled_from(("\n", "\r\n", "\r", "")))
    return "".join(line + end for line, end in zip(drawn, ends))


_documents = st.one_of(
    _joined(st.lists(_STRAY, max_size=6)),
    _joined(st.lists(_STRAY, min_size=20, max_size=40)),
    _joined(_interleaved()),
    cae_trees().map(cae_dsl.serialize),
    _registry(),
)


def _outcome(read, text):
    try:
        result = read(text)
    except ParseFailure as failure:
        return [str(error) for error in failure.errors]
    if isinstance(result, cae_dsl.CaeTree):  # nodes in document order
        return result.root, list(result.nodes.items())
    return result


@settings(max_examples=3 * settings.default.max_examples, deadline=None)  # ten times that when thorough
@given(_documents, st.sampled_from([((), ()), (("tag", "ref", "digest"), ()), (("tag",), ("tag",))]))
def test_the_reader_agrees_with_the_atom_scanner_reference(text, keys):
    allowed, required = keys
    lines, errors = lex(text)
    ref_lines, ref_errors = reference.lex(text)
    assert errors == ref_errors
    assert [(line.span, line.level, line.kind, line.atoms) for line in lines] == [
        (line.span, line.level, line.kind, line.atoms) for line in ref_lines
    ]
    for line, ref_line in zip(lines, ref_lines):
        if line.kind is not None:
            read, ref_read = [], []
            shape = read_node_line(line, allowed, read, required)
            assert shape == reference.read_node_line(ref_line, allowed, ref_read, required)
            assert read == ref_read

    assert _outcome(cae_dsl.parse, text) == _outcome(reference.parse, text)
    assert (cae_dsl._diagnose(text) == []) == (cae_dsl._read_flawless(text) is not None)
    registry = _outcome(risk_ledger.parse_registry, text)
    with mock.patch.multiple(risk_ledger, lex=reference.lex, read_node_line=reference.read_node_line):
        assert registry == _outcome(risk_ledger.parse_registry, text)


def _renamed(tree, prefix):
    """``tree`` with ``prefix`` before every node id."""
    def renamed(node):
        if isinstance(node, cae_dsl.EvidenceNode):
            return replace(node, id=prefix + node.id)
        return replace(node, id=prefix + node.id, children=tuple(prefix + child for child in node.children))

    return cae_dsl.CaeTree(prefix + tree.root, {prefix + nid: renamed(node) for nid, node in tree.nodes.items()})


@st.composite
def _long_document(draw) -> list[str]:
    """The lines of a tree that parses, 50 to 400 of them: drawn trees, copied under one decomposition."""
    trees = draw(st.lists(cae_trees(), min_size=1, max_size=3))
    size = draw(st.integers(50, 400))
    lines = ['claim R "root"', '  decomposition RA "over the drawn trees"']
    for copy in itertools.count():
        tree = _renamed(trees[copy % len(trees)], f"T{copy}.")
        lines += ["    " + line for line in cae_dsl.serialize(tree).split("\n")[:-1]]
        if len(lines) >= size:
            # a prefix of a document in preorder is itself a tree
            return lines[:size]


def _split(line):
    """(indent, kind, id, the rest) of a serialized node line."""
    body = line.lstrip(" ")
    kind, node_id, rest = body.split(" ", 2)
    return line[: len(line) - len(body)], kind, node_id, rest


def _with_id(line, node_id):
    indent, kind, _, rest = _split(line)
    return f"{indent}{kind} {node_id} {rest}"


def _with_kind(line, kind):
    indent, _, node_id, rest = _split(line)
    return f"{indent}{kind} {node_id} {rest}"


# (name, flaw): a flaw takes the lines, the flawed line's index and a draw, and returns (lines, line ends)
# of the flawed document; None for the line ends means LF after every line
_FLAWS = {
    "duplicate-id": lambda lines, at, draw: (
        lines[:at] + [_with_id(lines[at], _split(lines[draw(st.integers(0, max(0, at - 40)))])[2])] + lines[at + 1:],
        None,
    ),
    "second-argument": lambda lines, at, draw: (
        lines[:at] + ['    claim X "c"', '      substitution XA "a"', '        claim XC "d"',
                      '      concretization XB "b"'] + lines[at:],
        None,
    ),
    "digest-without-ref": lambda lines, at, draw: (
        lines[:at] + ['    claim X "c"', '      proof XP "p" digest="00ff"'] + lines[at:], None
    ),
    "stray-line": lambda lines, at, draw: (lines[:at] + [draw(_STRAY)] + lines[at:], None),
    "comment-or-blank": lambda lines, at, draw: (
        lines[:at] + [draw(st.sampled_from(("# note", "    # note", "\t# note", "", "   ", " \x0c")))] + lines[at:],
        None,
    ),
    "cr-or-crlf": lambda lines, at, draw: (
        lines, ["\n"] * at + draw(st.sampled_from((["\r"], ["\r\n"], ["\r"] * (len(lines) - at))))
        + ["\n"] * (len(lines) - at - 1),
    ),
    "tab-or-jump": lambda lines, at, draw: (
        lines[:at] + [draw(st.sampled_from(("\t", "  \t", "    ", "  "))) + lines[at]] + lines[at + 1:], None
    ),
    "odd-indent": lambda lines, at, draw: (lines[:at] + [" " + lines[at]] + lines[at + 1:], None),
    "unknown-kind": lambda lines, at, draw: (lines[:at] + [_with_kind(lines[at], "clam")] + lines[at + 1:], None),
    "bad-id": lambda lines, at, draw: (
        lines[:at] + [_with_id(lines[at], draw(st.sampled_from(("C/0", "N=1", "é", '"x"'))))] + lines[at + 1:],
        None,
    ),
    "attribute-not-allowed": lambda lines, at, draw: (
        lines[:at] + [lines[at] + draw(st.sampled_from((' owner="x"', ' ref="r"', ' tag="a" tag="b"')))]
        + lines[at + 1:],
        None,
    ),
}


@pytest.mark.parametrize("flaw", sorted(_FLAWS))
@settings(max_examples=settings.default.max_examples // 5, deadline=None)  # ten times that when thorough
@given(lines=_long_document(), data=st.data())
def test_one_flaw_deep_in_a_long_document_is_read_as_the_reference_reads_it(flaw, lines, data):
    at = data.draw(st.integers(2, len(lines) - 1), label="at")
    flawed, ends = _FLAWS[flaw](lines, at, data.draw)
    text = "".join(line + end for line, end in zip(flawed, ends or ["\n"] * len(flawed)))
    outcome = _outcome(cae_dsl.parse, text)
    assert outcome == _outcome(reference.parse, text)
    # the one-pass read returns the tree exactly when no error is found, so _diagnose runs only on a flawed document
    assert (cae_dsl._read_flawless(text) is None) == isinstance(outcome, list)
    assert (cae_dsl._diagnose(text) == []) == (cae_dsl._read_flawless(text) is not None)

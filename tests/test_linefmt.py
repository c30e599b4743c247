"""The line grammar shared by ``.cae`` and ``.risk``: lexer paths and the node-line reader."""

from __future__ import annotations

import pytest

from blockcase.linefmt import Attr, QString, Token, lex, read_node_line

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


# (line, atoms) for lines that lex without error
LEX_ATOMS = [
    ('claim C0 "a\\qb"', (Token("claim", 1), Token("C0", 7), QString("a\\qb", 10))),  # unknown escape kept
    ('a"b"', (Token("a", 1), QString("b", 2))),  # a token and a string, not one atom
    ('claim C0 "r" =""', (Token("claim", 1), Token("C0", 7), QString("r", 10), Attr("", "", 14))),
    ('claim C0 "a\\\\\\"b\\n\\t\\r"', (Token("claim", 1), Token("C0", 7), QString('a\\"b\n\t\r', 10))),
    ('k  x="1"\ty  "z"', (Token("k", 1), Attr("x", "1", 4), Token("y", 10), QString("z", 13))),
]


@pytest.mark.parametrize(("line", "atoms"), LEX_ATOMS)
def test_lexer_atoms(line, atoms):
    lines, errors = lex(line + "\n")
    assert errors == []
    assert lines[0].atoms == atoms
    assert lines[0].kind == atoms[0].text


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

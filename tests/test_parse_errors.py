"""Parse errors: their messages and `line:col` positions.

One digest pins what `parse_program` says about mutated `progen` programs:
for each of seeds 0-199, the program with one token dropped, with a stray
`#` inserted, and cut short, each at a place the seed chooses. A row is the
error's class and `str` (message and position), or `ok` when the mutant
still parses. The digest is the first 16 hex digits of the rows' sha256; it
must not depend on the hash seed, and CI runs this file under two.
"""

import hashlib
import random
import re

import pytest

from mstlang.cli import main
from mstlang.parser import ParseError, parse_program, parse_session_type, tokenize
from progen import generate

# the tokens of a progen program, which has no comments
_TOKEN = re.compile(r"<->|[{}<>(),;:.=?!&+]|[A-Za-z_][A-Za-z0-9_]*")


def _mutants(seed):
    text = generate(seed)
    rng = random.Random(seed)
    spans = [m.span() for m in _TOKEN.finditer(text)]
    start, end = spans[rng.randrange(len(spans))]
    at = rng.randrange(len(text) + 1)
    cut = rng.randrange(len(text))
    return (text[:start] + text[end:], text[:at] + "#" + text[at:], text[:cut])


def _row(text):
    try:
        parse_program(text)
    except ParseError as err:
        return f"{type(err).__name__}: {err}"
    return "ok"


def test_parse_error_digest():
    rows = [_row(text) for seed in range(200) for text in _mutants(seed)]
    assert len(rows) == 600
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16] == "12faf869aaeb97da"


def _at(text, offset):
    """`line:col` of the character at `offset` of `text`, end of input
    included: newlines before it + 1, and its place after the last one."""
    line, col = text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
    return f"{line}:{col}"


@pytest.mark.parametrize(
    "text, bad",
    [
        ("class A { session {} }\n// a comment # with $ in it\n\tmain A.go; $\n", "$"),
        ("class A { session {} }\n  // comment\n\t\t#", "#"),
        ("// first\nclass A {\n\tsession {}\t-\n}", "-"),
    ],
)
def test_unexpected_character_on_a_later_line(text, bad):
    offset = text.index(bad, text.index("\t"))
    expected = f"{_at(text, offset)}: unexpected character {bad!r}"
    with pytest.raises(ParseError) as tokenizing:
        tokenize(text)
    with pytest.raises(ParseError) as parsing:
        parse_program(text)
    assert str(tokenizing.value) == str(parsing.value) == expected
    assert expected.startswith(("3:", "4:"))


@pytest.mark.parametrize("end", ["", "\n", "\n\n", "  // done", "\t\n"])
def test_error_at_end_of_input(end):
    text = "class A {\n  session {Null go(Null): {}}\n  go(x) { null }" + end
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert str(err.value) == f"{_at(text, len(text))}: expected a field, method or '}}', found ''"


def test_trailing_input():
    text = "{Null go(Null): {}}\n\t {}"
    with pytest.raises(ParseError) as err:
        parse_session_type(text)
    assert str(err.value) == f"{_at(text, text.rindex('{'))}: trailing input '{{'"
    assert str(err.value) == "2:3: trailing input '{'"


def test_trailing_input_from_mst_dual(capsys):
    text = "!{A}.End\n  // a comment\n  x"
    assert main(["dual", text]) == 65
    err = capsys.readouterr().err
    assert err == f"parse error: {_at(text, text.rindex('x'))}: trailing input 'x'\n"
    assert err == "parse error: 3:3: trailing input 'x'\n"

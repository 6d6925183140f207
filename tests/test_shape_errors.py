"""The parser's shape errors, pinned as `mst` prints them.

A written type must not be a chain of `rec`s and names that comes back to
itself (contractiveness), every case of a variant must be a branch, and a
class session must start with a branch. Each input below is one `.mst`
file given to `mst check`, or a type expression given to `mst subtype`;
the expected exit code and stderr are exact, so the message, the
declaration it names, which error wins when there are several, and which
case is reported first are all pinned.
"""

import pytest

from mstlang.cli import main

NOT_A_BRANCH = "variant case {!r} is not a branch type"

CHECK = [
    # where the nested variant is written
    ("class-session", "class M { session {Null m(Null): <A: <B: {}>>} }",
     "1:1: class M: " + NOT_A_BRANCH.format("A")),
    ("unreached-state", "class M { session {} where U = {Null m(Null): <A: <B: {}>>} }",
     "1:1: M.U: " + NOT_A_BRANCH.format("A")),
    ("alias", "type T = {Null m(Null): <A: <B: {}>>};",
     "1:1: type T: " + NOT_A_BRANCH.format("A")),
    ("param", "class M { session {Null m(<A: <B: {}>>): {}} }",
     "1:1: class M: " + NOT_A_BRANCH.format("A")),
    ("result", "class M { session {<A: <B: {}>> m(Null): {}} }",
     "1:1: class M: " + NOT_A_BRANCH.format("A")),
    ("access-payload", "class M { session {Null m(<!{Null k(Null): <A: <B: {}>>}.End>): {}} }",
     "1:1: class M: " + NOT_A_BRANCH.format("A")),
    ("chantype-used",
     "chantype C = !{Null k(Null): <A: <B: {}>>}.End; class M { session {Null m(<C>): {}} }",
     "1:49: class M: " + NOT_A_BRANCH.format("A")),
    ("alias-used", "type T = <A: <B: {}>>; class M { session {Null m(Null): T} }",
     "1:1: type T: " + NOT_A_BRANCH.format("A")),
    # cases that are not written as variants
    ("rec-self", "class M { session {Null m(Null): rec X.<A: X>} }",
     "1:1: class M: " + NOT_A_BRANCH.format("A")),
    ("variant-state", "class M { session {Null m(Null): <A: V>} where V = <B: {}> }",
     "1:1: class M: " + NOT_A_BRANCH.format("A")),
    # which case is reported first
    ("entry-order", "class M { session {Null m(<A: <P: {}>>): {}, Null n(Null): <B: <Q: {}>>} }",
     "1:1: class M: " + NOT_A_BRANCH.format("A")),
    ("cont-before-param", "class M { session {Null m(<A: <P: {}>>): <B: <Q: {}>>} }",
     "1:1: class M: " + NOT_A_BRANCH.format("B")),
    ("session-before-states",
     "class M { session {Null m(Null): <A: <P: {}>>} where U = <B: <Q: {}>> }",
     "1:1: class M: " + NOT_A_BRANCH.format("A")),
    ("states-in-order", "class M { session {} where U = <A: <P: {}>>, W = <B: <Q: {}>> }",
     "1:1: M.U: " + NOT_A_BRANCH.format("A")),
    ("channel-cont-before-payload",
     "class M { session {Null m(<!{Null k(Null): <A: <B: {}>>}.!{Null k(Null): <C: <D: {}>>}.End>): {}} }",
     "1:1: class M: " + NOT_A_BRANCH.format("C")),
    # which error wins
    ("contractive-wins", "class M { session {Null m(Null): <A: <B: {}>, C: rec X.X>} }",
     "1:1: class M: type is not contractive"),
    ("unknown-name-wins", "class M { session {Null m(Null): rec X.X, Null n(Null): Nope} }",
     "1:1: unknown session type name 'Nope'"),
    ("annotation-not-contractive",
     "class M { session {Null m(Null): {}} f; req Null f ens Null f rec X.X h(Null y) { null } m(x) { null } }",
     "1:41: M.h annotation: type is not contractive"),
    ("variant-session", "class M { session <A: {}> }",
     "1:1: class M: declared session must unfold to a branch"),
]


@pytest.mark.parametrize("text, message", [c[1:] for c in CHECK], ids=[c[0] for c in CHECK])
def test_check_shape_error(text, message, tmp_path, capsys):
    path = tmp_path / "t.mst"
    path.write_text(text)
    assert main(["check", str(path)]) == 65
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"parse error: {message}\n")


@pytest.mark.parametrize(
    "text",
    [
        # only the channel's own binders are checked in a channel alias or
        # an access point declaration, and only contractiveness in an
        # annotation
        "chantype C = !{Null k(Null): <A: <B: {}>>}.End; class M { session {} }",
        "access <!{Null k(Null): <A: <B: {}>>}.End> a; class M { session {} }",
        "class M { session {Null m(Null): {}} f; req Null f ens Null f <A: <B: {}>> h(Null y) { null } m(x) { null } }",
    ],
    ids=["chantype", "access-point", "annotation"],
)
def test_unchecked_variant_cases_parse(text, tmp_path, capsys):
    path = tmp_path / "t.mst"
    path.write_text(text)
    assert main(["check", str(path)]) == 1
    assert "PROGRAM ERR MainMissing" in capsys.readouterr().out


@pytest.mark.parametrize(
    "expr, message",
    [
        ("{Null m(Null): <A: <B: {}>>}", NOT_A_BRANCH.format("A")),
        ("rec X.<A: X>", NOT_A_BRANCH.format("A")),
        ("rec X.X", "type is not contractive"),
    ],
)
def test_type_expression_shape_error(expr, message, tmp_path, capsys):
    path = tmp_path / "t.mst"
    path.write_text("class M { session {} }")
    assert main(["subtype", str(path), expr, "{}"]) == 65
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"parse error: type expression: {message}\n")

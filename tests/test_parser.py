import hashlib
import random

import pytest

import progen
from conftest import CORPUS
from gen import gen_channel, gen_session, rejoining_class
from mstlang import parser, syntax, typechecker
from mstlang.parser import (
    DuplicateClass,
    NonContractiveType,
    ParseError,
    UnboundStateName,
    parse_channel_type,
    parse_program,
    parse_session_type,
)
from mstlang.render import render_expr, render_type
from mstlang.subtyping import join_session
from mstlang.syntax import (
    Branch,
    CallE,
    ChanEnd,
    ChanOffer,
    EnumType,
    LinkThis,
    MethodSig,
    NULL_E,
    SeqE,
    State,
    SwapE,
    Type,
    VariantS,
    unfold,
)


def test_minimal_class():
    prog = parse_program("class C { session {} }")
    assert prog.classes["C"].session == Branch(())
    assert prog.classes["C"].fields == ()


def test_assignment_and_bare_field_sugar():
    prog = parse_program(
        "class C { session {Null m(Null): {}} f; m(x) { f = new C(); f } }"
    )
    body = prog.classes["C"].methods["m"].body
    assert isinstance(body, SeqE)
    assert isinstance(body.first, SeqE) and isinstance(body.first.first, SwapE)
    assert body.first.second == NULL_E
    # bare field read becomes a swap with null
    assert body.second == SwapE("f", NULL_E)


def test_missing_call_argument_sugar():
    prog = parse_program("class C { session {Null m(Null): {}} f; m(x) { f.n() } }")
    body = prog.classes["C"].methods["m"].body
    assert body == CallE("f", "n", NULL_E)


def test_where_states_fold_to_recs(file_prog):
    decl = file_prog.classes["FileReadToEnd"]
    init = decl.states["Init"]
    # four mutually recursive states all fold to closed types unfolding to branches
    for name in ("Init", "Open", "Read", "Close"):
        state = decl.states[name]
        assert isinstance(unfold(state), Branch)
    # the open continuation loops back to Init
    entry = unfold(init).entries[0]
    variant = unfold(entry.cont)
    assert isinstance(variant, VariantS)
    assert {l for l, _ in variant.cases} == {"OK", "ERROR"}


def test_enum_result_with_variant_continuation_reads_as_linkthis(file_prog):
    entry = unfold(file_prog.classes["File"].states["Init"]).entries[0]
    assert isinstance(entry.result, LinkThis)
    assert entry.param == EnumType(frozenset({"FileA"}))


def test_enum_result_with_branch_continuation_stays_enum(file_prog):
    final = file_prog.classes["FileReader"].states["Final"]
    entry = unfold(final).entries[0]
    assert entry.result == EnumType(frozenset({"ITEM", "NONE"}))


def test_enum_result_before_a_back_reference_reads_as_linkthis():
    # C1 reaches S first through go, so m's continuation is a back
    # reference to S; C2 reaches T first. Both read m's result as linkthis.
    prog = parse_program(
        """
        class C1 { session T0 where T0 = {{A, B} go(Null): S}, S = <A: T, B: {}>,
                                    T = {{A, B} m(Null): S}
                   go(x) { A }  m(x) { A } }
        class C2 { session T0 where T0 = {Null go(Null): T}, S = <A: T, B: {}>,
                                    T = {{A, B} m(Null): S}
                   go(x) { null }  m(x) { A } }
        """
    )
    report, _ = typechecker.check_program(prog)
    assert report.lines()[:2] == ["CLASS C1 OK", "CLASS C2 OK"]
    for cls in ("C1", "C2"):
        assert render_type(prog.classes[cls].states["S"]) == "rec S.<A: {linkthis m(Null): S}, B: {}>"
    written = parse_session_type("rec X.<A: {{A, B} m(Null): X}, B: {}>")
    assert render_type(written) == "rec X.<A: {linkthis m(Null): X}, B: {}>"


def test_variant_class_session_rejected():
    with pytest.raises(ParseError):
        parse_program("class C { session <A: {}> }")


def test_unbound_state_name():
    with pytest.raises(UnboundStateName):
        parse_program("class C { session Missing }")


def test_non_contractive_rejected():
    # a binder is not contractive when its body, under its leading binders,
    # is a variable of that chain; written and folded binders alike
    for text in [
        "class C { session rec X.X }",
        "class C { session rec X.rec Y.X }",
        "class C { session S where S = T, T = S }",
        "chantype C = rec X.X; class D { session {} }",
    ]:
        with pytest.raises(NonContractiveType):
            parse_program(text)
    for text in [
        "class C { session rec X.{Null m(Null): X} }",
        "class C { session rec X.rec Y.{Null m(Null): X, Null n(Null): Y} }",
        "class C { session S where S = {Null m(Null): T}, T = S }",
        "chantype C = rec X.!{A}.X; class D { session {} }",
    ]:
        parse_program(text)


@pytest.mark.parametrize(
    "text",
    [
        "type S = {Null m(<!S.End>): {}}; class C { session S }",
        "type S = {Null m(<!{Null k(S): {}}.End>): {}}; class C { session S }",
        "chantype C = !S.End; type S = {Null m(<C>): {}}; class M { session S }",
        "chantype C = !{Null m(<C>): {}}.End; class M { session {} }",
        "access <!S.End> a; type S = {Null m(<!S.End>): {}};",
    ],
    ids=["payload", "payload-branch", "through-alias", "channel", "access-point"],
)
def test_name_reached_again_through_an_access_type_rejected(text):
    # an access-point type is translated, not folded, so its names cannot
    # become variables of an enclosing binder
    with pytest.raises(ParseError, match="refers to itself through an access-point type"):
        parse_program(text)


def test_names_inside_access_types_still_fold():
    # a cycle wholly inside or wholly outside an access type folds as before
    prog = parse_program(
        "type T = {Null k(T): {}}; chantype C = rec X.!T.X;"
        "type S = {Null m(<!T.End>): S, Null n(<C>): {}};"
    )
    t = "rec T.{Null k(T): {}}"
    assert prog.session_aliases["T"] == parse_session_type(t)
    assert prog.session_aliases["S"] == parse_session_type(
        f"rec S.{{Null m(<!{t}.End>): S, Null n(<rec X.!{t}.X>): {{}}}}"
    )


def test_an_alias_means_one_type_in_every_class():
    # a class's state B shadows the alias B in the class's own types, not in
    # the body of the alias A, which is resolved once, at file scope
    prog = parse_program(
        "type B = {Null b(Null): {}}\n"
        "type A = {Null a(Null): B}\n"
        "class C { session A where B = {Null z(Null): {}} a(x) { null } }\n"
    )
    assert prog.classes["C"].session == prog.session_aliases["A"]
    assert render_type(prog.classes["C"].session) == "{Null a(Null): {Null b(Null): {}}}"
    report, _ = typechecker.check_program(prog)
    why = "session mentions 'b' but the class does not define it"
    assert f"CLASS C ERR MethodUndeclared in b: {why}" in report.lines()


def _ring(k):
    """One class whose session is a loop of k named states."""
    states = ", ".join(f"S{i} = {{Null m{i}(Null): S{(i + 1) % k}}}" for i in range(k))
    return f"class Ring {{ session S0 where {states} }}"


def test_parsing_unfolds_nothing(monkeypatch):
    # shapes are read on the written equations, so no resolved type is unfolded
    calls = []
    real = syntax.unfold
    monkeypatch.setattr(syntax, "unfold", lambda t: calls.append(t) or real(t))
    for path in sorted(CORPUS.rglob("*.mst")):
        parser.parse_file(path)
    parse_program(_ring(60))
    assert calls == []


def test_long_ring_parses():
    prog = parse_program(_ring(300))
    assert render_type(prog.classes["Ring"].states["S7"]).startswith("rec S7.{Null m7(Null): {")


def test_duplicate_class_rejected():
    with pytest.raises(DuplicateClass):
        parse_program("class C { session {} } class C { session {} }")


def test_channel_type_parsing():
    assert parse_channel_type("End") == ChanEnd()
    c = parse_channel_type("rec X.&{CLOSE: X}")
    u = unfold(c)
    assert isinstance(u, ChanOffer)
    assert u.cases[0][0] == "CLOSE"
    assert unfold(u.cases[0][1]) == u


def test_corpus_channel_structure(remote1):
    ch = remote1.channel_aliases["FileReadCh"]
    u = unfold(ch)
    assert isinstance(u, ChanOffer)
    assert u.labels == frozenset({"OPEN", "QUIT"})


def test_render_round_trip_corpus(file_prog, remote1):
    for decl in file_prog.classes.values():
        for state in list(decl.states.values()) + [decl.session]:
            assert parse_session_type(render_type(state)) == state
    for sigma in remote1.channel_aliases.values():
        assert parse_channel_type(render_type(sigma)) == sigma


def test_render_expr_round_trip_corpus():
    # every method body of the corpus parses back from its rendering, the
    # `f = v` sugar included; between them the bodies use every surface form
    forms = set()
    for path in sorted(CORPUS.rglob("*.mst")):
        prog = parser.parse_file(path)
        for cls in prog.classes.values():
            for m in cls.methods.values():
                p = parser._P(render_expr(m.body))
                raw = p.stmts(stop=())
                assert not p.peek() and parser._resolve_expr(raw, m.param, cls, prog) == m.body
                todo = [m.body]
                while todo:
                    x = todo.pop()
                    forms.add(type(x).__name__)
                    todo.extend(syntax._parts(x)[1])
    assert forms == {
        "AccessE", "CallE", "LabelE", "NewE", "NullE", "SelfCallE", "SeqE", "SpawnE",
        "SwapE", "SwitchE", "VarE", "WhileE",
    }


def test_render_round_trip_random():
    rng = random.Random(13)
    for _ in range(300):
        s = gen_session(rng, 6)
        assert parse_session_type(render_type(s)) == s
    for _ in range(300):
        c = gen_channel(rng, 6)
        assert parse_channel_type(render_type(c)) == c


def test_render_round_trip_bound_names():
    # the names that access-point types and joins bind parse back
    access = parse_session_type("{Null m(<!Null.End>): {}}")
    assert "rec _AP." in render_type(access)
    joined = join_session(
        parse_session_type("rec X.{Null m(Null): <A: X, B: {}>}"),
        parse_session_type("rec Y.{Null m(Null): <A: Y, C: {}>, Null n(Null): {}}"),
    )
    assert render_type(joined) == "rec _J0.{Null m(Null): <A: _J0, B: {}, C: {}>}"
    for t in (access, joined):
        assert parse_session_type(render_type(t)) == t
    # other names keep their rules
    for text in ["rec _x.{}", "rec x.{}"]:
        with pytest.raises(ParseError, match="type variable must start uppercase"):
            parse_session_type(text)


def test_render_renames_a_binder_that_would_capture_an_outer_state():
    # inside the written `rec A`, B leads back to the alias A, which a second
    # binder written `rec A.` would capture
    prog = parse_program(
        "type A = {Null m(Null): rec A.{Null n(Null): A, Null k(Null): B}}\n"
        "type B = {Null z(Null): A}\n"
    )
    a = prog.session_aliases["A"]
    text = render_type(a)
    assert text == "rec A.{Null m(Null): rec A_1.{Null n(Null): A_1, Null k(Null): {Null z(Null): A}}}"
    assert parse_session_type(text) == a
    # the new name is one no state rendered has
    prog = parse_program(
        "type A = {Null m(Null): rec A.{Null n(Null): A, Null k(Null): B}}\n"
        "type B = {Null z(Null): A, Null y(Null): rec A_1.{Null w(Null): A_1}}\n"
    )
    a = prog.session_aliases["A"]
    assert "rec A_2.{Null n(Null): A_2," in render_type(a)
    assert parse_session_type(render_type(a)) == a
    # a binder that captures nothing keeps its name
    text = "rec X.{Null m(Null): X, Null q(Null): rec X.{Null n(Null): X}}"
    assert render_type(parse_session_type(text)) == text


def test_access_point_and_main(remote1):
    assert "fileserver" in remote1.access_points
    assert remote1.main == ("Boot", "go")


def test_annotation_fields_must_cover_all():
    bad = """
    class C {
      session {Null m(Null): {}}
      f; g;
      req Null f ens Null f Null h(Null y) { null }
      m(x) { null }
    }
    """
    with pytest.raises(ParseError):
        parse_program(bad)


def test_class_state_lookup(file_prog):
    init = parse_session_type("File.Init", file_prog)
    assert isinstance(unfold(init), Branch)
    with pytest.raises(UnboundStateName):
        parse_session_type("File.Nope", file_prog)


def test_parse_files_shares_declarations(tmp_path):
    a = tmp_path / "a.mst"
    b = tmp_path / "b.mst"
    a.write_text("access <?{PING}.End> shared;\nclass P { session {Null go(Null): {}} f; c; go(x) { f = shared; c = f.request(null); c.send(PING); } }\n")
    b.write_text("class Q { session {Null go(Null): {}} f; c; go(x) { f = shared; c = f.accept(null); c.receive(null); null } }\nclass Boot { session {Null go(Null): {}} go(x) { spawn P.go(null); spawn Q.go(null); } }\nmain Boot.go;\n")
    prog = parser.parse_files([a, b])
    assert set(prog.classes) == {"P", "Q", "Boot"}
    assert "shared" in prog.access_points
    from mstlang.typechecker import check_program

    report, _ = check_program(prog)
    assert report.ok, report.lines()


def _undefined_states(x, seen=None):
    """The states reachable from x that have no body, by a walk of every node."""
    seen = set() if seen is None else seen
    if id(x) in seen:
        return set()
    seen.add(id(x))
    if isinstance(x, State):
        return {x.name} if x.body is None else _undefined_states(x.body, seen)
    if isinstance(x, tuple):
        return set().union(*(_undefined_states(item, seen) for item in x))
    if isinstance(x, (Type, MethodSig)):
        return set().union(*(_undefined_states(getattr(x, name), seen) for name in x.__slots__))
    return set()


def _declarations(prog):
    """(name, type) for every class session, state, alias and access point."""
    rows = []
    for c in prog.classes.values():
        rows.append((c.name, c.session))
        rows += [(f"{c.name}.{s}", t) for s, t in c.states.items()]
    for table in (prog.session_aliases, prog.channel_aliases, prog.access_points):
        rows += list(table.items())
    return rows


def _programs(seeds):
    for path in sorted(CORPUS.rglob("*.mst")):
        yield path.name, parser.parse_file(path)
    for seed in range(seeds):
        yield f"seed {seed}", parse_program(progen.generate(seed))


def test_rejoined_state_folded_once(monkeypatch):
    # a state reached from one place along many paths is resolved once and
    # is one shared node: the class's 13 states are 13 branches, built once
    # for the class session and shared with every state declaration
    built = []
    init = Branch.__init__
    monkeypatch.setattr(Branch, "__init__", lambda b, entries: built.append(b) or init(b, entries))
    decl = parse_program(rejoining_class(12)).classes["D"]
    assert len(built) == 13
    s = decl.session
    for i in range(12):
        assert s is decl.states[f"S{i}"]
        a, b = unfold(s).entries
        assert a.cont is b.cont
        s = a.cont
    assert unfold(s) == Branch(())


def test_resolved_types_are_closed():
    # closed: every state reached has its body
    for label, prog in _programs(100):
        types = [t for _, t in _declarations(prog)]
        for c in prog.classes.values():
            for m in c.methods.values():
                if m.annotation is not None:
                    a = m.annotation
                    types += [a.req, a.ens, a.result, a.param_type]
        for t in types:
            assert not _undefined_states(t), (label, t)
    rng = random.Random(29)
    for _ in range(300):
        assert not _undefined_states(parse_session_type(render_type(gen_session(rng, 6))))
        assert not _undefined_states(parse_channel_type(render_type(gen_channel(rng, 6))))


def test_resolved_types_digest():
    # the rendered declarations of the corpus and of progen seeds 0-399 (first
    # 16 hex digits of their sha256): binder names, binder placement and case
    # order of a resolved type are an output format
    rows = []
    for label, prog in _programs(400):
        rows += [label] + [f"{name} {render_type(t)}" for name, t in _declarations(prog)]
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16] == "0209a8c9bc19ca82"

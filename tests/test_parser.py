import hashlib
import random
from dataclasses import fields

import pytest

import progen
from conftest import CORPUS
from gen import gen_channel, gen_session
from mstlang import parser
from mstlang.parser import (
    DuplicateClass,
    NonContractiveType,
    ParseError,
    UnboundStateName,
    parse_channel_type,
    parse_program,
    parse_session_type,
)
from mstlang.render import render_type
from mstlang.syntax import (
    Branch,
    CallE,
    ChanEnd,
    ChanOffer,
    EnumType,
    LinkThis,
    MethodSig,
    NULL_E,
    RecC,
    RecS,
    SeqE,
    SwapE,
    Type,
    VarC,
    VarS,
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


def test_render_round_trip_random():
    rng = random.Random(13)
    for _ in range(300):
        s = gen_session(rng, 6)
        assert parse_session_type(render_type(s)) == s
    for _ in range(300):
        c = gen_channel(rng, 6)
        assert parse_channel_type(render_type(c)) == c


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


def _free_vars(x, bound=frozenset()):
    """The free recursion variables of x, by a walk of every node."""
    if isinstance(x, (VarS, VarC)):
        return set() if (x.kind, x.name) in bound else {x.name}
    if isinstance(x, (RecS, RecC)):
        return _free_vars(x.body, bound | {(x.kind, x.var)})
    if isinstance(x, tuple):
        return set().union(*(_free_vars(item, bound) for item in x))
    if isinstance(x, (Type, MethodSig)):
        return set().union(*(_free_vars(getattr(x, fd.name), bound) for fd in fields(x)))
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


def test_resolved_types_are_closed():
    for label, prog in _programs(100):
        types = [t for _, t in _declarations(prog)]
        for c in prog.classes.values():
            for m in c.methods.values():
                if m.annotation is not None:
                    a = m.annotation
                    types += [a.req, a.ens, a.result, a.param_type]
        for t in types:
            assert not _free_vars(t), (label, t)
    rng = random.Random(29)
    for _ in range(300):
        assert not _free_vars(parse_session_type(render_type(gen_session(rng, 6))))
        assert not _free_vars(parse_channel_type(render_type(gen_channel(rng, 6))))


def test_resolved_types_digest():
    # the rendered declarations of the corpus and of progen seeds 0-399 (first
    # 16 hex digits of their sha256): binder names, binder placement and case
    # order of a resolved type are an output format
    rows = []
    for label, prog in _programs(400):
        rows += [label] + [f"{name} {render_type(t)}" for name, t in _declarations(prog)]
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16] == "0209a8c9bc19ca82"

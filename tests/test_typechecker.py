import pytest

from conftest import load_checked
from gen import rejoining_class
from oracles import Universe, consistency_oracle, derive
from mstlang import parser, typechecker
from mstlang.interpreter import Interpreter
from mstlang.monitor import Monitor
from mstlang.parser import parse_program
from mstlang.subtyping import subtype_any
from mstlang.syntax import (
    Branch,
    CallE,
    EnumType,
    LabelE,
    LinkField,
    LinkThis,
    NULL_E,
    NULL_T,
    NewE,
    RecordF,
    SeqE,
    SessionType,
    SwapE,
    VarE,
    VariantF,
    unfold,
)
from mstlang.typechecker import (
    CheckContext,
    CheckError,
    check_program,
    consistency,
    infer_expr,
    resolve_signature,
)

TINY = """
class C {
  session {Null m(Null): {}}
  m(x) { x }
}

class D {
  session {Null use({A, B}): {}}
  f;
  use(x) { f = x; }
}
"""


def ctx_for(text=TINY):
    prog = parse_program(text)
    return CheckContext(prog), prog


def test_b_null_clause():
    ctx, prog = ctx_for()
    f = RecordF((("f", NULL_T),))
    assert infer_expr(ctx, prog.classes["D"], NULL_E, f, None) == (NULL_T, f, None)


def test_b_label_clause():
    ctx, prog = ctx_for()
    f = RecordF((("f", NULL_T),))
    t, f2, v = infer_expr(ctx, prog.classes["D"], LabelE("A"), f, None)
    assert isinstance(t, LinkThis)
    assert f2 == VariantF((("A", f),))


def test_b_swap_new_composition():
    ctx, prog = ctx_for()
    f = RecordF((("f", NULL_T),))
    t, f2, v = infer_expr(ctx, prog.classes["D"], SwapE("f", NewE("C")), f, None)
    assert t == NULL_T
    assert f2 == RecordF((("f", prog.classes["C"].session),))


def test_b_seq_discards_enum_not_link():
    ctx, prog = ctx_for()
    f = RecordF((("f", NULL_T),))
    e = SeqE(LabelE("A"), NULL_E)  # linkthis collapses through a join
    t, f2, v = infer_expr(ctx, prog.classes["D"], e, f, None)
    assert t == NULL_T and f2 == f


def test_b_parameter_consumed_when_linear():
    ctx, prog = ctx_for()
    decl = prog.classes["D"]
    f = RecordF((("f", NULL_T),))
    t, f2, v = infer_expr(ctx, decl, VarE("x"), f, ("x", prog.classes["C"].session))
    assert isinstance(t, SessionType) and v is None
    t, f2, v = infer_expr(ctx, decl, VarE("x"), f, ("x", EnumType(frozenset({"A"}))))
    assert v == ("x", EnumType(frozenset({"A"})))


def test_b_agrees_with_declarative_derivations():
    text = """
    class K {
      session {Null go(Null): {}}
      f;
      go(x) { null }
    }
    class W {
      session {linkthis w({A, B}): <A: {}, B: {}>}
      f;
      w(x) { switch (x) { A: A; B: B; } }
    }
    """
    prog = parse_program(text)
    ctx = CheckContext(prog)
    uni = Universe(prog, labels=("A", "B"), fields=("f",))
    decl = prog.classes["K"]
    f0 = RecordF((("f", NULL_T),))
    k_session = prog.classes["K"].session

    label_a = LabelE("A")
    exprs = [
        NULL_E,
        label_a,
        NewE("K"),
        SwapE("f", NULL_E),
        SwapE("f", NewE("K")),
        SeqE(SwapE("f", NewE("K")), NULL_E),
        SeqE(SwapE("f", NewE("K")), CallE("f", "go", NULL_E)),
        CallE("f", "go", NULL_E),  # fails: f is Null
        SeqE(LabelE("A"), NULL_E),
        SwapE("f", LabelE("B")),
        SeqE(SwapE("f", LabelE("B")), SwapE("f", NULL_E)),
        SwapE("g", NULL_E),  # fails: no such field
    ]
    from mstlang.syntax import SwitchE

    exprs.append(SwitchE(LabelE("A"), (("A", NULL_E), ("B", NULL_E))))
    exprs.append(
        SeqE(SwapE("f", LabelE("B")),
             SwitchE(SwapE("f", NULL_E), (("A", NULL_E), ("B", NULL_E)))),
    )

    for e in exprs:
        derivable = derive(prog, uni, e, f0, None)
        try:
            got = infer_expr(ctx, decl, e, f0, None)
        except CheckError:
            got = None
        if got is None:
            assert not derivable, f"checker rejects but declarative derives: {e!r}"
            continue
        assert derivable, f"checker accepts underivable expression: {e!r}"
        t_b, f_b, v_b = got
        # soundness: the checker's answer is one of the derivable triples,
        # up to the linkthis/enumeration correspondence
        assert any(_matches(t_b, f_b, v_b, t, f, v) for t, f, v in derivable), e


def _matches(t_b, f_b, v_b, t, f, v):
    if v_b != v:
        return False
    if t_b.canon() == t.canon() and f_b.canon() == f.canon():
        return True
    if subtype_any(t_b, t) if not isinstance(t_b, (LinkThis, LinkField)) else False:
        if subtype_any(f_b, f):
            return True
    # checker may answer linkthis with a variant where an enumeration is derivable
    if isinstance(t_b, LinkThis) and isinstance(t, EnumType) and isinstance(f_b, VariantF):
        return f_b.labels <= t.labels
    return False


def test_resolve_signature_overloads(remote1):
    cl = remote1.session_aliases["FileRead_cl"]
    branch = unfold(cl)
    entry = resolve_signature(branch, "send", EnumType(frozenset({"OPEN"})))
    assert entry.param == EnumType(frozenset({"OPEN"}))
    with pytest.raises(CheckError) as err:
        resolve_signature(branch, "send", EnumType(frozenset({"OPEN", "QUIT"})))
    assert err.value.code == "NoSuchMethod"
    with pytest.raises(CheckError):
        resolve_signature(branch, "missing", NULL_T)


def test_resolve_signature_ambiguous_without_a_least_parameter():
    branch = unfold(parser.parse_session_type("{Null m({A, B}): {}, Null m({A, C}): {}}"))
    with pytest.raises(CheckError) as err:
        resolve_signature(branch, "m", EnumType(frozenset({"A"})))
    assert err.value.code == "AmbiguousOverload"
    assert resolve_signature(branch, "m", EnumType(frozenset({"B"}))).param == EnumType(
        frozenset({"A", "B"})
    )


def test_tag_argument_without_accepting_overload():
    text = """
    class L { session {Null m({A}): {}} m(x) { null } }
    class C {
      session {Null go(Null): {}}
      f;
      go(x) { f = new L(); f.m(B); null }
    }
    """
    report, _ = check_program(parse_program(text))
    v = report.verdict("C")
    assert (v.code, v.method) == ("NoSuchMethod", "go")
    assert v.detail == "no overload of 'm' accepts argument type {B}"


OPERAND_TAG_PROGRAM = """
class W { session {linkthis w(Null): <A: {}, B: {}>} w(x) { A } }
class L { session {Null m({A}): {}} m(x) { null } }
class N { session {Null go(Null): {}} go(x) { null } }
class C {
  session {Null go(Null): {}}
  f; g;
  go(x) { %s }
  req Null f, Null g ens Null f, Null g
  Null step({A, B} y) { null }
}
main C.go;
"""

# A label as the operand of each one-operand form: (accepted body, rejected
# body, the rejected program's line for C).
OPERAND_TAG_ROWS = {
    "swap": (
        "f = A; null",
        "f = new W(); g = f.w(null); f = B; null",
        "CLASS C ERR SwapOnVariantField in go: field 'f' holds a variant type",
    ),
    "call": (
        "f = new L(); f.m(A); null",
        "f = new L(); f.m(B); null",
        "CLASS C ERR NoSuchMethod in go: no overload of 'm' accepts argument type {B}",
    ),
    "self-call": (
        "step(A)",
        "step(C)",
        "CLASS C ERR ArgumentMismatch in go: argument of 'step' mismatches annotation",
    ),
    "spawn": (
        "spawn N.go(null)",
        "spawn N.go(A)",
        "CLASS C ERR ArgumentMismatch in go: spawn argument must have type Null",
    ),
}


@pytest.mark.parametrize("form", sorted(OPERAND_TAG_ROWS))
def test_label_operand_verdicts(form):
    accepted, rejected, line = OPERAND_TAG_ROWS[form]
    others = ["CLASS W OK", "CLASS L OK", "CLASS N OK"]
    report, _ = check_program(parse_program(OPERAND_TAG_PROGRAM % accepted))
    assert report.lines() == others + ["CLASS C OK"]
    report, _ = check_program(parse_program(OPERAND_TAG_PROGRAM % rejected))
    assert report.lines() == others + [line]


def test_label_operand_agrees_with_declarative_derivations():
    # the swap and call rows, as single expressions the oracle can search
    prog = parse_program(OPERAND_TAG_PROGRAM % "null")
    ctx = CheckContext(prog)
    decl = prog.classes["C"]
    uni = Universe(prog, labels=("A", "B"), fields=("f",))
    l_session = prog.classes["L"].session
    variant = unfold(prog.classes["W"].session).entries[0].cont
    cases = [
        (SwapE("f", LabelE("A")), NULL_T, True),
        (SwapE("f", LabelE("B")), variant, False),
        (CallE("f", "m", LabelE("A")), l_session, True),
        (CallE("f", "m", LabelE("B")), l_session, False),
    ]
    for e, held, ok in cases:
        f0 = RecordF((("f", held),))
        derivable = derive(prog, uni, e, f0, None)
        try:
            got = infer_expr(ctx, decl, e, f0, None)
        except CheckError:
            got = None
        assert (got is not None, bool(derivable)) == (ok, ok), e
        if ok:
            assert any(_matches(*got, t, f, v) for t, f, v in derivable), e


def test_call_on_joined_overloads_accepted():
    # f holds an L or a K; both accept m({A}), L through the least of two overloads
    text = """
    class L { session {Null m({A, B}): {}, Null m({A}): {}} m(x) { null } }
    class K { session {Null m({A}): {}} m(x) { null } }
    class C {
      session {Null go({P, Q}): {}}
      f;
      go(x) { switch (x) { P: f = new L(); Q: f = new K(); } f.m(A); }
    }
    """
    report, _ = check_program(parse_program(text))
    assert all(report.verdict(c).ok for c in "LKC")


def test_empty_session_class_accepted():
    prog = parse_program("class C { session {} }")
    report, _ = check_program(prog)
    assert report.verdict("C").ok


def test_fileserver_annotated_methods_accepted(remote1):
    report, _ = check_program(remote1)
    assert report.verdict("FileServer").ok
    assert report.verdict("RemoteFile").ok


def test_variant_ens_annotation_rejected_at_parse():
    bad = """
    class C {
      session {Null m(Null): {}}
      f;
      req Null f ens <A: {Null f}> Null h(Null y) { null }
      m(x) { null }
    }
    """
    with pytest.raises(parser.ParseError):
        parse_program(bad)


def test_algexample_verdicts():
    prog, report, ctx = load_checked("algexample.mst")
    assert report.verdict("C").ok
    assert report.verdict("D").ok  # aa, b, bb, c, cc, d all accepted
    bad = report.verdict("DBad")
    assert not bad.ok
    assert bad.method == "a"
    assert bad.code == "ResultTypeMismatch"


def test_close_checked_three_times(remote1):
    report, ctx = check_program(remote1)
    assert report.verdict("RemoteFile").ok
    channel_types = set()
    for (cls, _), entries in ctx.witnesses.items():
        if cls != "RemoteFile":
            continue
        for session, ftyping in entries:
            if any(e.name == "close" for e in session.entries):
                channel_types.add(ftyping.get("channel").canon())
    assert len(channel_types) == 3


def test_check_report_deterministic(remote2):
    r1, _ = check_program(remote2)
    r2, _ = check_program(remote2)
    assert r1.lines() == r2.lines()


def test_main_designation_errors():
    report, _ = check_program(parse_program("class C { session {} }"))
    assert any("MainMissing" in e for e in report.program_errors)
    report, _ = check_program(
        parse_program("class C { session {} } main C.m;")
    )
    assert any("MainUnavailable" in e for e in report.program_errors)


def test_loop_invariant_mismatch():
    bad = """
    class T {
      session {Null go({TRUE, FALSE}): {}}
      f;
      go(x) { while (x) { f = A; } }
    }
    main T.go;
    """
    report, _ = check_program(parse_program(bad))
    v = report.verdict("T")
    assert not v.ok and v.code == "LoopInvariantMismatch"


def test_discarded_link_rejected():
    bad = """
    class C2 {
      session {linkthis m(Null): <A: {}, B: {}>}
      m(x) { A }
    }
    class U {
      session {Null go(Null): {}}
      f;
      go(x) { f = new C2(); f.m(null); null }
    }
    main U.go;
    """
    report, _ = check_program(parse_program(bad))
    v = report.verdict("U")
    assert not v.ok and v.code == "DiscardedLink"


def test_spawn_requires_null_signature():
    bad = """
    class C3 {
      session {Null m({A}): {}}
      m(x) { null }
    }
    class U {
      session {Null go(Null): {}}
      go(x) { spawn C3.m(null); }
    }
    main U.go;
    """
    report, _ = check_program(parse_program(bad))
    v = report.verdict("U")
    assert not v.ok and v.code == "SpawnUnavailable"


def _field_powerset(n):
    """Class K, whose n methods each set their own field to A in any order:
    its consistency proof meets 2^n field typings."""
    fields = ", ".join(f"f{i}" for i in range(n))
    session = "rec X.{" + ", ".join(f"Null a{i}(Null): X" for i in range(n)) + "}"
    methods = " ".join(f"a{i}(x) {{ f{i} = A }}" for i in range(n))
    return f"class K {{ session {session} {fields}; {methods} }}"


ERROR_ROWS = {
    "MethodUndeclared": (
        "class K { session {Null a(Null): {}} }",
        "MethodUndeclared in a: session mentions 'a' but the class does not define it",
    ),
    "MissingAnnotation": (
        "class K { session {Null a(Null): {}} a(x) { h(null) } h(y) { null } }",
        "MissingAnnotation in a: self-called method 'h' has no req/ens annotation",
    ),
    "UnboundVariable": (  # a session-typed parameter is used up by its first use
        "class K { session {Null a({Null k(Null): {}}): {}} f; g; a(x) { f = x; g = x; null } }",
        "UnboundVariable in a: unbound variable 'x'",
    ),
    "SwitchShapeMismatch": (
        "class K { session {Null a(Null): {}} a(x) { switch (null) { A: null; } } }",
        "SwitchShapeMismatch in a: cannot switch on type Null",
    ),
    "AnnotationMismatch": (
        "class K { session {Null a(Null): {}} f; a(x) { null }\n"
        "  req Null f ens Null f Null h(Null y) { f = A; null } }",
        "AnnotationMismatch in h: body of 'h' does not meet its req/ens annotation",
    ),
    "DepthLimitExceeded": (
        _field_powerset(14), "DepthLimitExceeded: consistency exceeded 10000 steps"
    ),
}


@pytest.mark.parametrize("code", sorted(ERROR_ROWS))
def test_check_error_code(code):
    # InternalForm and ConsistencyFailure are not here: the parser admits no
    # runtime form and no session that unfolds to neither branch nor variant
    text, error = ERROR_ROWS[code]
    report, _ = check_program(parse_program(text))
    assert report.verdict("K").line() == f"CLASS K ERR {error}"


def test_witness_recorded_in_constant_equality_tests(monkeypatch):
    # the 2^10 field typings of one branch enter one bucket of the witness
    # table; recording each takes a lookup, not a test against every typing
    # recorded before it
    tests, recording = [0], [False]
    eq, record = RecordF.__eq__, CheckContext.record_witness

    def counted_eq(self, other):
        tests[0] += recording[0]
        return eq(self, other)

    def counted_record(self, *args):
        recording[0] = True
        try:
            return record(self, *args)
        finally:
            recording[0] = False

    monkeypatch.setattr(RecordF, "__eq__", counted_eq)
    monkeypatch.setattr(CheckContext, "record_witness", counted_record)
    report, ctx = check_program(parse_program(_field_powerset(10)))
    assert report.verdict("K").ok, report.lines()
    (bucket,) = ctx.witnesses.values()
    assert len(bucket) == 2**10
    assert tests[0] <= len(bucket)


def test_loop_on_a_label_with_a_label_body():
    # a label condition is a one-case variant typing, joined for the body and
    # the exit; a body that ends in a label is joined back likewise
    prog = parse_program("class L { session {Null go(Null): {}} go(x) { while (FALSE) { A } } } main L.go;")
    report, ctx = check_program(prog)
    assert report.ok, report.lines()
    interp = Interpreter(prog)
    mon = Monitor(prog, ctx)
    mon.start(interp.initial_config())
    outcome, _, _ = interp.run(100, observer=mon.on_step)
    assert outcome.kind == "terminated"
    report, _ = check_program(parse_program(
        "class L { session {Null go(Null): {}} go(x) { while (A) { null } } } main L.go;"
    ))
    assert report.lines() == ["CLASS L ERR SwitchShapeMismatch in go: loop condition is not boolean"]


# -- the largest-relation oracle ----------------------------------------------

K1 = """
class K1 {
  session {Null m(Null): {}}
  m(x) { x }
}
"""

K2 = """
class K2 {
  session rec S.{Null flip({A, B}): S}
  v;
  flip(x) { v <-> x; null }
}
"""

K3 = """
class K3 {
  session {linkthis t(Null): <Y: {}, N: {}>}
  v;
  t(x) { Y }
}
"""

K4 = """
class K4 {
  session {Null m(Null): {}}
  v;
  m(x) { A }
}
"""

K5 = """
class Once {
  session {Null use(Null): {}}
  use(x) { x }
}
class K5 {
  session {Null go(Null): {}}
  v;
  go(x) { v = new Once(); v.use(null); v.use(null); }
}
"""


@pytest.mark.parametrize(
    "text,cls,accept",
    [(K1, "K1", True), (K2, "K2", True), (K3, "K3", True), (K4, "K4", False), (K5, "K5", False)],
)
def test_consistency_matches_bruteforce(text, cls, accept):
    prog = parse_program(text)
    ctx = CheckContext(prog)
    decl = prog.classes[cls]
    candidates = [NULL_T, EnumType(frozenset({"A"})), EnumType(frozenset({"B"})),
                  EnumType(frozenset({"A", "B"}))]
    if cls == "K5":
        candidates = [NULL_T, prog.classes["Once"].session, Branch(())]
    labels = ("A", "B", "Y", "N")
    alive = consistency_oracle(prog, cls, candidates, labels)
    f0 = decl.initial_field_typing()
    key = (f0.canon(), unfold(decl.session).canon())
    try:
        consistency(ctx, decl, decl.session, f0)
        algo = True
    except CheckError:
        algo = False
    assert algo == accept
    assert (key in alive) == accept


def test_failed_consistency_records_no_witness():
    # both branch states are visited before `b`'s body fails
    prog = parse_program(
        "class K { session {Null a(Null): {{A} b(Null): {}}} a(x) { null } b(x) { null } }"
    )
    ctx = CheckContext(prog)
    decl = prog.classes["K"]
    with pytest.raises(CheckError):
        consistency(ctx, decl, decl.session, decl.initial_field_typing())
    assert ctx.witnesses == {}
    report, ctx = check_program(prog)
    assert not report.verdict("K").ok and ctx.witnesses == {}


def test_rejoining_protocol_proves_each_pair_once(monkeypatch):
    # a (field typing, state) pair met again is assumed, however many paths
    # reach it: each method body is typed once per (field typing, state,
    # entry), here 16 branching states x 2 entries under one field typing
    prog = parse_program(rejoining_class(16))
    bodies = {id(m.body) for m in prog.classes["D"].methods.values()}
    typed, infer = [], typechecker.infer_expr

    def counted(ctx, cls, e, F, V):
        if id(e) in bodies:
            typed.append(e)
        return infer(ctx, cls, e, F, V)

    monkeypatch.setattr(typechecker, "infer_expr", counted)
    report, _ = check_program(prog)
    assert report.verdict("D").line() == "CLASS D OK"
    assert len(typed) == 32

import random

import pytest

from gen import gen_session, widen_session
from mstlang.parser import parse_program
from mstlang.parser import parse_session_type as pt
from mstlang.subtyping import (
    JoinUndefined,
    equivalent,
    join_field,
    join_session,
    join_value,
    subtype_field,
    subtype_session,
    subtype_value,
)
from mstlang.syntax import (
    EnumType,
    NULL_T,
    RecordF,
    VariantF,
    unfold,
)


def test_file_init_subtype_of_filereadtoend(file_prog):
    fi = pt("File.Init", file_prog)
    fre = pt("FileReadToEnd.Init", file_prog)
    assert subtype_session(fi, fre)
    assert not subtype_session(fre, fi)


def test_any_branch_below_empty_branch():
    rng = random.Random(3)
    top = pt("{}")
    for _ in range(50):
        s = gen_session(rng, 4)
        assert subtype_session(s, top)


def test_variant_label_covariance():
    small = pt("<OK: {}>")

    # variants are compared as part of continuations; build them directly
    big = pt("<OK: {}, ERROR: {}>")
    assert subtype_session(small, big)
    assert not subtype_session(big, small)


def test_enum_inclusion():
    t = EnumType(frozenset({"TRUE"}))
    tf = EnumType(frozenset({"TRUE", "FALSE"}))
    assert subtype_value(t, tf)
    assert not subtype_value(tf, t)
    assert not subtype_value(NULL_T, t)


def test_session_case_delegates():
    a = pt("{Null m(Null): {}, Null n(Null): {}}")
    b = pt("{Null m(Null): {}}")
    assert subtype_value(a, b)


def test_field_subtyping():
    s = pt("{Null m(Null): {}, Null n(Null): {}}")
    s2 = pt("{Null m(Null): {}}")
    f1 = RecordF((("f", s),))
    f2 = RecordF((("f", s2),))
    assert subtype_field(f1, f2) == subtype_session(s, s2)
    v1 = VariantF((("OK", f1),))
    v2 = VariantF((("OK", f1), ("ERROR", f1)))
    assert subtype_field(v1, v2)
    assert not subtype_field(v2, v1)
    # records over different fields never relate
    assert not subtype_field(RecordF((("f", NULL_T),)), RecordF((("g", NULL_T),)))


def test_equivalence_of_unfolding():
    s = pt("rec X.{Null m(Null): X}")
    assert equivalent(s, unfold(s))


def test_equivalence_branch_permutation():
    a = pt("{Null m(Null): {}, Null n(Null): {}}")
    b = pt("{Null n(Null): {}, Null m(Null): {}}")
    assert equivalent(a, b)


def test_remote_equivalence(remote1):
    assert equivalent(pt("RemoteFile.Init", remote1), pt("File.Init", remote1))


def test_mutual_subtype_iff_equivalent():
    rng = random.Random(11)
    for _ in range(100):
        s = gen_session(rng, 3)
        t = widen_session(rng, s)
        both = subtype_session(s, t) and subtype_session(t, s)
        assert both == equivalent(s, t)


def _corpus_types():
    from conftest import load

    out = []
    for name in ("file.mst", "remote1.mst", "remote2.mst", "algexample.mst"):
        prog = load(name)
        out.extend(prog.session_aliases.values())
        for decl in prog.classes.values():
            out.append(decl.session)
            out.extend(decl.states.values())
    return out


def test_reflexive_random_and_corpus():
    rng = random.Random(5)
    for _ in range(300):
        s = gen_session(rng, 5)
        assert subtype_session(s, s)
    for s in _corpus_types():
        assert subtype_session(s, s)


def test_transitive_on_corpus_chains():
    rng = random.Random(19)
    for s0 in _corpus_types():
        s1 = widen_session(rng, s0)
        s2 = widen_session(rng, s1)
        assert subtype_session(s0, s1)
        assert subtype_session(s1, s2)
        assert subtype_session(s0, s2)


def test_transitive_widening_chains():
    rng = random.Random(17)
    for _ in range(150):
        s0 = gen_session(rng, 4)
        s1 = widen_session(rng, s0)
        s2 = widen_session(rng, s1)
        assert subtype_session(s0, s1)
        assert subtype_session(s1, s2)
        assert subtype_session(s0, s2)


def test_subtype_invariant_under_unfold():
    rng = random.Random(23)
    for _ in range(100):
        s = gen_session(rng, 4)
        t = widen_session(rng, s)
        assert subtype_session(s, t)
        assert subtype_session(unfold(s), t)
        assert subtype_session(s, unfold(t))


def test_join_enum_union():
    assert join_value(EnumType(frozenset({"TRUE"})), EnumType(frozenset({"FALSE"}))) == EnumType(
        frozenset({"TRUE", "FALSE"})
    )


def test_join_branch_with_top():
    rng = random.Random(29)
    top = pt("{}")
    for _ in range(30):
        s = gen_session(rng, 3)
        assert equivalent(join_session(s, top), top)


def test_join_branch_one_entry_per_met_parameter():
    s = pt("{Null m({A, B}): {}, Null m({A}): {}}")
    t = pt("{Null m({A}): {}}")
    j = join_session(s, t)
    assert [(e.name, e.param) for e in j.entries] == [("m", EnumType(frozenset({"A"})))]
    assert subtype_session(s, j) and subtype_session(t, j)


def test_join_field_variants_union():
    f1 = RecordF((("f", NULL_T),))
    f2 = RecordF((("f", EnumType(frozenset({"A"}))),))
    v = join_field(VariantF((("A", f1),)), VariantF((("B", f2),)))
    assert v == VariantF((("A", f1), ("B", f2)))


def test_join_field_idempotent():
    f = RecordF((("f", pt("{Null m(Null): {}}")),))
    assert join_field(f, f) == f


def test_join_field_pointwise_sessions():
    s = pt("{Null m(Null): {}, Null n(Null): {}}")
    s2 = pt("{Null m(Null): {}, Null p(Null): {}}")
    joined = join_field(RecordF((("f", s),)), RecordF((("f", s2),)))
    assert equivalent(joined.get("f"), pt("{Null m(Null): {}}"))


def test_join_undefined():
    with pytest.raises(JoinUndefined):
        join_value(NULL_T, EnumType(frozenset({"A"})))
    with pytest.raises(JoinUndefined):
        join_field(RecordF((("f", NULL_T),)), RecordF((("g", NULL_T),)))


def test_join_reports_the_first_failure_depth_first():
    # entry by entry, the result join before the continuation's, and the
    # whole continuation before the next entry
    for a, b, failed in [
        ("{Null a(Null): {}, Null b(Null): {}}",
         "{Null a(Null): <A: {}>, {A} b(Null): {}}", "{} and <A: {}>"),
        ("{Null a(Null): {}, Null b(Null): {Null c(Null): {}}}",
         "{Null a(Null): <A: {}>, Null b(Null): <B: {}>}", "{} and <A: {}>"),
        ("{Null a(Null): {Null c(Null): {}}, Null b(Null): {}}",
         "{Null a(Null): {Null c(Null): <C: {}>}, Null b(Null): <B: {}>}", "{} and <C: {}>"),
    ]:
        with pytest.raises(JoinUndefined) as e:
            join_session(pt(a), pt(b))
        assert str(e.value) == f"no join of {failed}"


def test_join_is_upper_bound():
    rng = random.Random(31)
    kept = 0
    for _ in range(120):
        base = gen_session(rng, 3)
        x = widen_session(rng, base)
        y = widen_session(rng, base)
        try:
            j = join_session(x, y)
        except JoinUndefined:
            continue
        kept += 1
        assert subtype_session(x, j)
        assert subtype_session(y, j)
        z = widen_session(rng, j)
        if subtype_session(x, z) and subtype_session(y, z):
            assert subtype_session(j, z)
    assert kept > 50


def test_internal_object_type_covariance():
    from mstlang.syntax import ObjectInternal

    s = pt("{Null m(Null): {}, Null n(Null): {}}")
    s2 = pt("{Null m(Null): {}}")
    a = ObjectInternal("C", RecordF((("f", s),)))
    b = ObjectInternal("C", RecordF((("f", s2),)))
    other = ObjectInternal("D", RecordF((("f", s2),)))
    from mstlang.subtyping import subtype_any

    assert subtype_any(a, b)
    assert not subtype_any(b, a)
    assert not subtype_any(a, other)  # class names must agree


def test_join_branch_with_linkthis_entry():
    # joining an enumeration-returning entry with a linkthis one lifts the
    # former to its uniform variant
    a = pt("{linkthis m(Null): <GO: {Null n(Null): {}}, STOP: {}>}")
    b = pt("{{GO, STOP} m(Null): {Null n(Null): {}}}")
    j = join_session(a, b)
    entry = unfold(j).entries[0]
    from mstlang.syntax import LinkThis, VariantS

    assert isinstance(entry.result, LinkThis)
    cont = unfold(entry.cont)
    assert isinstance(cont, VariantS)
    assert {l for l, _ in cont.cases} == {"GO", "STOP"}
    # GO keeps n (both sides allow it); STOP drops it (intersection)
    assert equivalent(cont.case("GO"), pt("{Null n(Null): {}}"))
    assert equivalent(cont.case("STOP"), pt("{}"))
    assert subtype_session(a, j) and subtype_session(b, j)


def test_overload_match_keeps_the_proofs_assumptions():
    # matching m(Y) compares Y with the overloads' parameters inside the proof
    # of the pair itself; Y lacks n, so no overload of m accepts it
    s = pt("rec X.{Null m(X): X, Null m({A}): X, Null n(Null): X}")
    t = pt("rec Y.{Null m(Y): Y, Null m({A}): Y}")
    assert not subtype_session(s, t)
    assert not equivalent(s, t)
    assert subtype_session(s, pt("rec Y.{Null m({A}): Y, Null n(Null): Y}"))


def _rejoining_pair(n):
    """States S_i offering a and b, both to S_(i+1), and S_n offering z back
    to S0; the first also offers y at S_n, so it is the subtype."""
    def session(extra):
        rows = [f"S{i} = {{Null a(Null): S{i + 1}, Null b(Null): S{i + 1}}}" for i in range(n)]
        rows.append(f"S{n} = {{Null z(Null): S0{extra}}}")
        return parse_program(f"class D {{ session S0 where {', '.join(rows)} }}").classes["D"].session

    return session(", Null y(Null): S0"), session("")


def test_rejoining_subtype_query_is_linear(monkeypatch):
    # a pair that both a and b lead to rests on the assumption of (S0, S0),
    # so it is proved once while that stays on the path, not once per path
    from mstlang import subtyping

    steps, step = [], subtyping._subtype_unfolded
    monkeypatch.setattr(subtyping, "_subtype_unfolded", lambda s, t, a: steps.append(s) or step(s, t, a))
    counts = []
    for n in (10, 20):
        s, t = _rejoining_pair(n)
        del steps[:]
        assert subtype_session(s, t)
        counts.append(len(steps))
        assert not subtype_session(t, s)
    assert counts == [11, 21]  # one step per pair of states: linear in n

import random
from dataclasses import fields

import pytest

from gen import gen_channel, gen_session
from mstlang import syntax
from mstlang.parser import NonContractiveType, parse_session_type
from mstlang.syntax import (
    Branch,
    CHAN_END,
    ChanOffer,
    ChanRecv,
    ChanSelect,
    ChanSend,
    Heap,
    HeapConflict,
    IncompleteHeap,
    MethodSig,
    NULL_E,
    NULL_T,
    NoSuchField,
    NotARoot,
    NotInjective,
    ObjIdE,
    ObjectInternal,
    ObjectRecord,
    Path,
    PathUndefined,
    LabelE,
    RecC,
    RecordF,
    RecS,
    Type,
    VarC,
    VarS,
    VariantF,
    VariantS,
    unfold,
)


def branch1(cont):
    return Branch((MethodSig("m", NULL_T, NULL_T, cont),))


def test_unfold_fixed_point_on_branch():
    s = branch1(Branch(()))
    assert unfold(s) is s


def test_unfold_single_rec():
    s = RecS("X", branch1(VarS("X")))
    u = unfold(s)
    assert isinstance(u, Branch)
    assert u.entries[0].cont == s


def test_unfold_memoised_on_the_node():
    s = RecS("X", branch1(VarS("X")))
    assert unfold(s) is unfold(s)
    # an alpha-variant keeps its own binder in its own unfolding
    assert unfold(RecS("Y", branch1(VarS("Y")))).entries[0].cont.var == "Y"


def test_unfold_keeps_unchanged_subterms():
    # a subterm without the unfolded variable is shared, so what is stored on it stays
    closed = branch1(Branch(()))
    s = RecS("X", Branch((MethodSig("m", closed, NULL_T, VarS("X")),)))
    assert unfold(s).entries[0].param is closed
    sent = ChanSend(NULL_T, CHAN_END)
    for form in (ChanOffer, ChanSelect):
        c = RecC("Y", form((("A", sent), ("B", VarC("Y")))))
        assert unfold(c).case("A") is sent
    v = RecS("X", branch1(VariantS((("A", closed), ("B", branch1(VarS("X")))))))
    assert unfold(v).entries[0].cont.case("A") is closed


@pytest.mark.parametrize(
    "form, component", [(VariantS, Branch(())), (ChanOffer, CHAN_END), (ChanSelect, CHAN_END)]
)
def test_repeated_label_rejected(form, component):
    with pytest.raises(ValueError):
        form((("A", component), ("B", component), ("A", component)))


def test_unfold_nested_recs():
    s = RecS("X", RecS("Y", branch1(VarS("Y"))))
    u = unfold(s)
    assert isinstance(u, Branch)
    inner = u.entries[0].cont
    assert isinstance(inner, RecS)
    assert unfold(inner) == u


def test_unfold_idempotent_random():
    rng = random.Random(7)
    for _ in range(200):
        s = gen_session(rng, 4)
        assert unfold(unfold(s)) == unfold(s)
    for _ in range(200):
        c = gen_channel(rng, 4)
        assert unfold(unfold(c)) == unfold(c)


def test_contractivity():
    # the parser checks each binder as it is made; the same three types
    assert parse_session_type("rec X.{Null m(Null): X}") == RecS("X", branch1(VarS("X")))
    for text in ["rec X.X", "rec X.rec Y.X"]:
        with pytest.raises(NonContractiveType):
            parse_session_type(text)


def heap_two():
    return Heap().add("o", ObjectRecord("C", (("f", ObjIdE("p")),))).add(
        "p", ObjectRecord("D", ())
    )


def test_resolve_direct_and_indirect():
    h = Heap().add("o", ObjectRecord("C", (("f", NULL_E),)))
    assert h.resolve(Path("o")).cls == "C"
    h2 = heap_two()
    assert h2.resolve(Path("o", ("f",))).cls == "D"


def test_resolve_undefined_on_non_object():
    h = Heap().add("o", ObjectRecord("C", (("f", NULL_E),)))
    with pytest.raises(PathUndefined):
        h.resolve(Path("o", ("f",)))
    with pytest.raises(PathUndefined):
        h.resolve(Path("missing"))


def test_write_updates_one_field():
    h = Heap().add("o", ObjectRecord("C", (("f", NULL_E), ("g", NULL_E))))
    h2 = h.write(Path("o"), "f", LabelE("L"))
    assert h2.resolve(Path("o")).get("f") == LabelE("L")
    assert h2.resolve(Path("o")).get("g") == NULL_E
    assert h.resolve(Path("o")).get("f") == NULL_E  # original untouched


def test_write_nested_path():
    h = heap_two().write(Path("o"), "f", ObjIdE("p"))
    h = Heap(h.entries[:1] + ((("p"), ObjectRecord("D", (("g", NULL_E),))),))
    h2 = h.write(Path("o", ("f",)), "g", LabelE("L"))
    assert h2.record("p").get("g") == LabelE("L")


def test_write_missing_field():
    h = Heap().add("o", ObjectRecord("C", (("f", NULL_E),)))
    with pytest.raises(NoSuchField):
        h.write(Path("o"), "g", NULL_E)


def test_split_heap():
    h = heap_two().add("q", ObjectRecord("E", ()))
    down, up = h.split("o")
    assert set(down.ids) == {"o", "p"}
    assert set(up.ids) == {"q"}
    merged = down.merge(up)
    assert set(merged.ids) == set(h.ids)
    assert all(merged.record(o) == h.record(o) for o in h.ids)


def test_split_single_object():
    h = Heap().add("o", ObjectRecord("C", ()))
    down, up = h.split("o")
    assert down.ids == ("o",) and up.ids == ()


def test_split_not_a_root():
    h = heap_two()
    with pytest.raises(NotARoot):
        h.split("p")


def test_split_incomplete():
    h = Heap().add("o", ObjectRecord("C", (("f", ObjIdE("gone")),)))
    with pytest.raises(IncompleteHeap):
        h.split("o")


def test_rename_heap():
    h = heap_two()
    phi = {"o": "a", "p": "b"}
    h2 = h.rename(phi)
    assert set(h2.ids) == {"a", "b"}
    assert h2.record("a").get("f") == ObjIdE("b")
    inverse = {"a": "o", "b": "p"}
    assert h2.rename(inverse) == h


def test_rename_identity_and_not_injective():
    h = heap_two()
    assert h.rename({}) == h
    with pytest.raises(NotInjective):
        h.rename({"o": "x", "p": "x"})


def test_roots_and_completeness_read_no_record(monkeypatch):
    # one pass over the entries, not a record lookup per object
    n = 200
    heap = Heap(tuple(
        (f"o{i}", ObjectRecord("C", (("f", ObjIdE(f"o{i + 1}") if i + 1 < n else NULL_E),)))
        for i in range(n)
    ))
    calls = []
    record = Heap.record
    monkeypatch.setattr(Heap, "record", lambda self, oid: calls.append(oid) or record(self, oid))
    assert heap.roots() == ("o0",)
    assert heap.is_complete()
    assert not Heap(heap.entries[:-1]).is_complete()
    assert calls == []


def test_descendants_first_visit_order():
    h = (
        Heap()
        .add("r", ObjectRecord("C", (("a", ObjIdE("x")), ("b", ObjIdE("y")))))
        .add("x", ObjectRecord("C", (("a", ObjIdE("z")), ("b", NULL_E))))
        .add("y", ObjectRecord("C", ()))
        .add("z", ObjectRecord("C", ()))
    )
    assert h.descendants("r") == ("r", "x", "y", "z")


def test_heap_updates_leave_the_source_heap_unchanged():
    # A chain of parent and child objects, then writes along it: enough
    # updates that heaps fold their recent updates into a new base. Each
    # heap's expected entries come from a plain dict copied per update, and
    # some heaps are read while others are still being made from them.
    heaps, model = [Heap()], [{}]

    def update(h, oid, rec):
        heaps.append(h)
        model.append({**model[-1], oid: rec})

    for i in range(61):
        oid = "top" if i == 0 else f"o{i - 1}"
        fields = (("f", ObjIdE(f"o{i}") if i < 60 else NULL_E), ("g", NULL_E))
        update(heaps[-1].add(oid, ObjectRecord("C", fields)), oid, ObjectRecord("C", fields))
    for i in range(0, 60, 2):
        h = heaps[-1].write(Path("top", ("f",) * (i + 1)), "g", LabelE(f"L{i}"))
        update(h, f"o{i}", h.record(f"o{i}"))
        rec = h.record(f"o{i + 1}").set("g", LabelE("R"))
        update(h.replace(f"o{i + 1}", rec), f"o{i + 1}", rec)
        if i % 10 == 0:
            assert heaps[-3].ids == tuple(model[-3])
    last = heaps[-1]
    derived = [last.add("x", ObjectRecord("C", ())), last.rename({"top": "t"})]
    down, up = last.split("top")
    derived += [down, up, up.merge(down), Heap().add("x", ObjectRecord("C", ())).merge(last)]
    assert last.ids == ("top",) + tuple(f"o{i}" for i in range(60))
    assert last.roots() == ("top",)
    assert down.ids == last.ids and up.ids == ()
    assert derived[-1].ids == ("x",) + last.ids and derived[-1].roots() == ("x", "top")
    assert derived[1].ids == ("t",) + last.ids[1:]
    with pytest.raises(HeapConflict):
        last.add("o7", ObjectRecord("C", ()))
    with pytest.raises(HeapConflict):
        last.merge(down)
    with pytest.raises(NotARoot):
        last.split("o3")
    with pytest.raises(IncompleteHeap):
        last.write(Path("o28"), "f", ObjIdE("gone")).split("top")

    seen = [(tuple(m.items()), hash(tuple(m.items()))) for m in model]
    assert [(h.entries, hash(h)) for h in heaps] == seen
    assert all(h == Heap(entries) for h, (entries, _) in zip(heaps, seen))
    assert len(set(heaps)) == len(heaps)


def test_heap_equality_is_ordered():
    a, b = ObjectRecord("A", ()), ObjectRecord("B", ())
    assert Heap.of({"a": a, "b": b}) == Heap().add("a", a).add("b", b)
    assert Heap.of({"a": a, "b": b}) != Heap.of({"b": b, "a": a})
    assert Heap.of({"a": a, "b": b}).replace("a", b).ids == ("a", "b")


def test_branch_entry_order_irrelevant_for_equality():
    a = parse_session_type("{Null m(Null): {}, Null n(Null): {}}")
    b = parse_session_type("{Null n(Null): {}, Null m(Null): {}}")
    assert a == b
    assert hash(a) == hash(b)


# -- canonical forms -----------------------------------------------------------

_CASE_TAGS = {VariantS: "variant", ChanOffer: "offer", ChanSelect: "select",
              VariantF: "variantf"}


def reference_form(t, bound=()):
    """The canonical form of t computed from scratch: every level is walked,
    and no form stored on a node is read."""
    def f(c):
        return reference_form(c, bound)

    if isinstance(t, (RecS, RecC)):
        kind, tag = ("s", "rec") if isinstance(t, RecS) else ("c", "recc")
        return (tag, reference_form(t.body, bound + ((kind, t.var),)))
    if isinstance(t, (VarS, VarC)):
        key = ("s" if isinstance(t, VarS) else "c", t.name)
        depths = [len(bound) - 1 - i for i, b in enumerate(bound) if b == key]
        return ("var", min(depths)) if depths else ("freevar", t.name)
    if isinstance(t, Branch):
        return ("branch", tuple(sorted(
            (e.name, f(e.param), f(e.result), f(e.cont)) for e in t.entries)))
    if type(t) in _CASE_TAGS:
        return (_CASE_TAGS[type(t)], tuple(sorted((l, f(c)) for l, c in t.cases)))
    if isinstance(t, (ChanRecv, ChanSend)):
        return ("recv" if isinstance(t, ChanRecv) else "send", f(t.payload), f(t.cont))
    if isinstance(t, RecordF):
        return ("record", tuple(sorted((n, f(v)) for n, v in t.items)))
    if isinstance(t, ObjectInternal):
        return ("object", t.cls, f(t.typing))
    return t._canonical(bound)  # a leaf: null, an enumeration, linkthis, end


def _nodes(x):
    """Every type node and branch entry in x, children before parents."""
    if isinstance(x, tuple):
        return [n for item in x for n in _nodes(item)]
    if isinstance(x, (Type, MethodSig)):
        return [n for fd in fields(x) for n in _nodes(getattr(x, fd.name))] + [x]
    return []


def test_canon_equals_a_from_scratch_form():
    rng = random.Random(19)
    for _ in range(300):
        s, c = gen_session(rng, 3), gen_channel(rng, 3)
        record = RecordF((("f", s), ("g", NULL_T)))
        for t in (s, c, ObjectInternal("C", record),
                  VariantF((("A", record), ("B", RecordF((("f", NULL_T), ("g", s))))))):
            # some subterms, rec bodies among them, are canonicalised first
            types = [n for n in _nodes(t) if isinstance(n, Type)]
            for n in rng.sample(types, rng.randrange(len(types) + 1)):
                n.canon()
            assert t.canon() == reference_form(t)


def test_canon_of_fresh_node_reads_its_childrens_stored_forms(monkeypatch):
    s = parse_session_type("rec X.{Null m({A}): X, {A, B} n(Null): {}}")
    old = RecordF((("f", s), ("g", NULL_T)))
    old.canon()
    fresh = old.set("g", s)
    computed = []
    for cls in vars(syntax).values():
        if isinstance(cls, type) and "_canonical" in vars(cls):
            def counted(self, bound, _orig=vars(cls)["_canonical"]):
                computed.append(type(self).__name__)
                return _orig(self, bound)

            monkeypatch.setattr(cls, "_canonical", counted)
    form = fresh.canon()
    assert computed == ["RecordF"]
    assert form == reference_form(fresh)


# -- expressions: identity, keys and endpoint sets ------------------------------


def _free(e, name):
    """Does the variable `name` occur in e?"""
    found = []
    syntax.map_expr(e, lambda v: found.append(v) if v.name == name else None)
    return bool(found)


def test_subst_keeps_a_body_without_its_parameter():
    from conftest import load

    prog = load("remote1.mst")
    kept = set()
    for cls in prog.classes.values():
        for m in cls.methods.values():
            out = syntax.subst_expr(m.body, m.param, NULL_E)
            assert (out is m.body) == (not _free(m.body, m.param)), (cls.name, m.name)
            if out is m.body:
                kept.add(m.name)
    assert {"cycle", "fileRead"} <= kept  # self-recursive methods called with null


def test_subst_keeps_the_suffix_after_the_last_use():
    from mstlang.parser import parse_program

    prog = parse_program(
        "class M { session {Null go(Null): {}} f; go(x) { f = x; f = A; f = null; null } } main M.go;"
    )
    body = prog.classes["M"].methods["go"].body
    out = syntax.subst_expr(body, "x", NULL_E)
    assert out is not body and out.first is not body.first
    assert out.second is body.second
    assert repr(out) == repr(body).replace("x", "null")


def test_expression_keys_are_structural_per_table():
    from mstlang.parser import parse_program

    def body(text):
        prog = parse_program(f"class M {{ session {{Null go(Null): {{}}}} f; go(x) {{ {text} }} }} main M.go;")
        return prog.classes["M"].methods["go"].body

    text = "f = A; f.m(null); null"
    a, b, c, d = body(text), body(text), body(text.replace("A", "B")), body(text)
    one, two = syntax.ExprKeys(), syntax.ExprKeys()
    assert one.key(a) == one.key(b) != one.key(c)
    assert one.key(a.second) == one.key(c.second)
    before = [one.key(x) for x in (a, b, c, c.second)]
    # a node keyed by another table is re-keyed, never read with that table's key
    assert two.key(d) == two.key(a) != two.key(c)
    assert two.key(b.second) == two.key(d.second) == two.key(c.second)
    assert [one.key(x) for x in (a, b, c, c.second)] == before


def test_endpoint_sets_are_stored_and_not_rebuilt(monkeypatch):
    from mstlang.syntax import CallE, EndpointE, SeqE, SwapE

    body = syntax.seq([SwapE("f", EndpointE("c1", "+"))] + [SwapE("g", NULL_E)] * 5000 + [NULL_E])
    assert syntax.endpoints_of(body) == {("c1", "+")}
    assert syntax.endpoints_of(body.second) == frozenset()
    built = []
    store = syntax._store_endpoints
    monkeypatch.setattr(syntax, "_store_endpoints", lambda x, *parts: built.append(x) or store(x, *parts))
    fresh = SeqE(CallE("f", "send", EndpointE("c2", "-")), body)
    assert syntax.endpoints_of(fresh) == {("c1", "+"), ("c2", "-")}
    assert len(built) == 3  # the new sequence node, the call and its argument

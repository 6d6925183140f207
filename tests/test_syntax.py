import random

import pytest

from gen import gen_channel, gen_session
from mstlang import syntax
from mstlang.parser import NonContractiveType, parse_channel_type, parse_program, parse_session_type
from mstlang.render import render_type
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
    ChannelState,
    RecordF,
    SessionState,
    SessionType,
    State,
    VariantF,
    VariantS,
    unfold,
)


def branch1(cont):
    return Branch((MethodSig("m", NULL_T, NULL_T, cont),))


def test_unfold_fixed_point_on_branch():
    s = branch1(Branch(()))
    assert unfold(s) is s


def state(name, body_of):
    """A session state whose body body_of(state) may lead back to it."""
    s = SessionState(name)
    s.define(body_of(s))
    return s


def test_unfold_single_rec():
    s = state("X", branch1)
    u = unfold(s)
    assert isinstance(u, Branch)
    assert u.entries[0].cont == s


def test_unfold_memoised_on_the_node():
    s = state("X", branch1)
    assert unfold(s) is unfold(s)
    # an equal state keeps its own node in its own unfolding
    assert unfold(state("Y", branch1)).entries[0].cont.name == "Y"


def test_unfold_keeps_unchanged_subterms():
    # unfolding is a lookup: every child is the node the body holds, so
    # what is stored on it stays
    closed = branch1(Branch(()))
    s = state("X", lambda x: Branch((MethodSig("m", closed, NULL_T, x),)))
    assert unfold(s).entries[0].param is closed
    sent = ChanSend(NULL_T, CHAN_END)
    for form in (ChanOffer, ChanSelect):
        c = ChannelState("Y")
        c.define(form((("A", sent), ("B", c))))
        assert unfold(c).case("A") is sent
    v = state("X", lambda x: branch1(VariantS((("A", closed), ("B", branch1(x))))))
    assert unfold(v).entries[0].cont.case("A") is closed


@pytest.mark.parametrize(
    "form, component", [(VariantS, Branch(())), (ChanOffer, CHAN_END), (ChanSelect, CHAN_END)]
)
def test_repeated_label_rejected(form, component):
    with pytest.raises(ValueError):
        form((("A", component), ("B", component), ("A", component)))


def test_unfold_nested_recs():
    y = state("Y", branch1)
    x = state("X", lambda _: y)
    u = unfold(x)
    assert isinstance(u, Branch)
    inner = u.entries[0].cont
    assert isinstance(inner, SessionState)
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
    assert parse_session_type("rec X.{Null m(Null): X}") == state("X", branch1)
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


def test_heap_changes_are_the_records_that_differ():
    # heaps sharing a base, heaps after a fold, a split, a merge and a
    # renaming; each compared with a plain record-by-record comparison
    heaps = [Heap()]
    for i in range(40):
        heaps.append(heaps[-1].add(f"o{i}", ObjectRecord("C", (("f", NULL_E),))))
        if i % 3 == 0:
            oid = f"o{i // 2}"
            heaps.append(heaps[-1].replace(oid, heaps[-1].record(oid).set("f", LabelE("A"))))
    last = heaps[-1]
    down, up = last.replace("o0", ObjectRecord("C", (("f", ObjIdE("o1")),))).split("o0")
    heaps += [down, up, up.merge(down), last.rename({"o3": "x"})]
    records = {id(h): {**h._base, **h._new} for h in heaps}  # read without folding
    shared = 0
    for since in [None] + heaps:
        for h in heaps:
            kept = (h._base, h._new)
            old, new = records.get(id(since), {}), records[id(h)]
            want = {o: (old.get(o), new.get(o)) for o in {**old, **new}
                    if old.get(o) is not new.get(o)}
            got = h.changes(since)
            assert {o: (a, b) for o, a, b in got} == want and len(got) == len(want)
            assert (h._base, h._new) == kept
            shared += since is not None and since._base is h._base
    assert 100 < shared < len(heaps) ** 2
    assert [o for o, _, _ in last.changes()] == list(records[id(last)]) == list(last.ids)


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


# -- identities: equality of unfoldings --------------------------------------


def reference_equal(a, b, assumed=frozenset()):
    """Whether a and b unfold to equal trees, decided from scratch: a pair
    of nodes met again on the current path is assumed equal, branch entries
    are matched by name and an equal parameter, and no identity kept on a
    node is read."""
    a, b = unfold(a), unfold(b)
    if (id(a), id(b)) in assumed:
        return True
    if type(a) is not type(b):
        return False
    assumed = assumed | {(id(a), id(b))}

    def eq(x, y):
        return reference_equal(x, y, assumed)

    if isinstance(a, Branch):
        if len(a.entries) != len(b.entries):
            return False
        for e in a.entries:
            match = [f for f in b.entries if f.name == e.name and eq(e.param, f.param)]
            if len(match) != 1 or not (eq(e.result, match[0].result) and eq(e.cont, match[0].cont)):
                return False
        return True
    if isinstance(a, (VariantS, ChanOffer, ChanSelect, VariantF)):
        return a.labels == b.labels and all(eq(c, b.case(l)) for l, c in a.cases)
    if isinstance(a, (ChanRecv, ChanSend)):
        return eq(a.payload, b.payload) and eq(a.cont, b.cont)
    if isinstance(a, RecordF):
        return set(a.fields) == set(b.fields) and all(eq(t, b.get(f)) for f, t in a.items)
    if isinstance(a, ObjectInternal):
        return a.cls == b.cls and eq(a.typing, b.typing)
    return a._level(None) == b._level(None)  # a leaf: no child to compare


def _nodes(t):
    """Every type node t reaches, states included."""
    seen, todo, out = set(), [t], []
    while todo:
        n = todo.pop()
        if id(n) not in seen:
            seen.add(id(n))
            out.append(n)
            todo.extend([n.body] if isinstance(n, State) else syntax.children(n))
    return out


def _built_apart(t):
    """t parsed back from its rendering and from its unfolding's: equal types
    that share no node with t and place their binders apart."""
    parse = parse_session_type if isinstance(t, SessionType) else parse_channel_type
    return [parse(render_type(t)), parse(render_type(unfold(t)))]


def test_canon_equals_a_from_scratch_form():
    # `==` goes through kept identities; `reference_equal` decides equality
    # of unfoldings from scratch
    rng = random.Random(19)
    prev = [[] for _ in range(4)]
    for _ in range(300):
        s, c = gen_session(rng, 3), gen_channel(rng, 3)
        groups = [[s, unfold(s)] + _built_apart(s), [c, unfold(c)] + _built_apart(c)]
        ss = [s] + groups[0][2:]  # a record holds the session type built three ways
        records = [RecordF((("f", x), ("g", NULL_T))) for x in ss]
        groups.append([ObjectInternal("C", r) for r in records])
        groups.append([VariantF((("A", r), ("B", RecordF((("f", NULL_T), ("g", x))))))
                       for r, x in zip(records, ss)])
        # some nodes, states among them, are identified first, in any order
        nodes = [n for group in groups for t in group for n in _nodes(t)]
        for n in rng.sample(nodes, rng.randrange(len(nodes) + 1)):
            n.canon()
        for group, earlier in zip(groups, prev):
            for a in group:
                for b in group:
                    assert reference_equal(a, b)
                    assert a == b and hash(a) == hash(b)
                for b in earlier:
                    assert (a == b) == reference_equal(a, b), (a, b)
                    if a == b:
                        assert hash(a) == hash(b)
            earlier[:] = [group[0]] + earlier[:9]


def test_equal_states_of_one_system_and_of_two():
    # with S = {m: T} and T = {n: S}, the m continuation of S's unfolding is
    # T; so are T written as a loop of its own and T unrolled once
    prog = parse_program("class C { session S where S = {Null m(Null): T}, T = {Null n(Null): S} }")
    s, t = prog.classes["C"].states["S"], prog.classes["C"].states["T"]
    cont = unfold(s).entries[0].cont
    assert cont == t and hash(cont) == hash(t)
    for text, other in [
        ("rec X.{Null n(Null): {Null m(Null): X}}", t),
        ("{Null m(Null): rec Y.{Null n(Null): {Null m(Null): Y}}}", s),
        ("{Null m(Null): {Null n(Null): rec Z.{Null m(Null): {Null n(Null): Z}}}}", s),
        ("C.T", t),
    ]:
        written = parse_session_type(text, prog)
        assert written == other and hash(written) == hash(other), text
    assert s != t and parse_session_type("rec X.{Null m(Null): X}") != s


def test_canon_of_fresh_node_reads_its_childrens_stored_forms(monkeypatch):
    s = parse_session_type("rec X.{Null m({A}): X, {A, B} n(Null): {}}")
    old = RecordF((("f", s), ("g", NULL_T)))
    old.canon()
    hash(old)
    fresh = old.set("g", s)
    computed = []
    for cls in vars(syntax).values():
        if isinstance(cls, type) and "_level" in vars(cls):
            def counted(self, val, _orig=vars(cls)["_level"]):
                computed.append(type(self).__name__)
                return _orig(self, val)

            monkeypatch.setattr(cls, "_level", counted)
    fresh.canon()
    assert computed == ["RecordF"]
    hash(fresh)
    assert computed == ["RecordF", "RecordF"]
    assert reference_equal(fresh, RecordF((("f", s), ("g", unfold(s)))))
    assert fresh == RecordF((("f", s), ("g", unfold(s))))


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
    # structurally equal expressions get equal endpoint sets
    e, e2 = (syntax.SeqE(syntax.SwapE("f", syntax.EndpointE("c1", "+")), x) for x in (a, d))
    for table in (one, two):
        assert table.endpoints(e) == table.endpoints(e2) == {("c1", "+")}
        assert table.endpoints(a) == table.endpoints(d) == frozenset()


def test_endpoint_sets_are_stored_and_not_rebuilt(monkeypatch):
    from mstlang.syntax import CallE, EndpointE, SeqE, SwapE

    body = syntax.seq([SwapE("f", EndpointE("c1", "+"))] + [SwapE("g", NULL_E)] * 5000 + [NULL_E])
    keys = syntax.ExprKeys()
    assert keys.endpoints(body) == {("c1", "+")}
    assert keys.endpoints(body.second) == frozenset()
    read = []
    parts = syntax._parts
    monkeypatch.setattr(syntax, "_parts", lambda x: read.append(x) or parts(x))
    fresh = SeqE(CallE("f", "send", EndpointE("c2", "-")), body)
    assert keys.endpoints(fresh) == {("c1", "+"), ("c2", "-")}
    assert len(read) == 3  # the new sequence node, the call and its argument

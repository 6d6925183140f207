"""Core abstract syntax: class session types, channel session types, value
types, field typings, expressions, declarations, heaps, paths and
threads, together with the pure structural operations on them
(unfolding, path resolution, heap separation, renaming).

A recursive type is a finite graph whose cycles pass through named states
(`State`), so `unfold` is a lookup. Types are equal when the trees they
unfold to are, branch entries compared as sets keyed by (method name,
parameter type) and variants as label-keyed maps. Callers compare types
with `==` and key tables by the type itself; the identities behind that
(`Type.canon`) are computed once per strongly connected component.
All values here are immutable by convention, but for a state's body, which
is set once. They are plain slotted classes, not frozen dataclasses: the
monitor builds types and expressions on every step, a plain slot store is
cheaper than a frozen one, and a plain class costs no generated code at
import. Expressions and declarations compare by their fields (`Struct`).
A pure function of a type (duality, translation, subtyping) keeps
its result on the node it was applied to (`Type.memo()`), so a result depends
only on its arguments, never on what the process computed before.
Expressions likewise store their hash-consed keys, built from their
children's without recursion; the table keeps each key's endpoint set, built
once from the children's sets (`ExprKeys`). `map_expr` keeps the identity of
every subtree it does not change. An evaluation context is a linked list of
frames (`focus`, `plug`), and heaps share their records between versions
(`Heap`).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional


class CoreError(Exception):
    """Base for errors raised by structural heap/type operations."""


class PathUndefined(CoreError):
    pass


class NoSuchField(CoreError):
    pass


class NotARoot(CoreError):
    pass


class IncompleteHeap(CoreError):
    pass


class NotInjective(CoreError):
    pass


class HeapConflict(CoreError):
    """Disjoint union attempted on heaps with overlapping domains."""


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


class Struct:
    """Base of the plain records: a record compares and hashes by its class
    and the fields its class lists in `__slots__`, as a dataclass does. No
    field is assigned after a record is built, by convention. A record that
    is not to be hashed sets `__hash__ = None`."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self.__slots__
        return self is other or [getattr(self, n) for n in names] == [getattr(other, n) for n in names]

    def __hash__(self):
        return hash(tuple([getattr(self, n) for n in self.__slots__]))


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

class Type:
    """Base class for all type forms. Equal types share an identity
    (`canon`), computed once per node, and a hash; types whose hashes
    differ compare unequal without computing identities. A type is
    immutable by convention: no field is assigned after it is built, but a
    state's body, set once, and the identity, hash and memo slots filled
    on first use."""

    __slots__ = ("_canon", "_memo", "_hash")
    recursive = True  # a session or channel form, through which a cycle can pass

    def canon(self):
        c = getattr(self, "_canon", None)
        if c is None:
            if self.recursive:
                _identify(self)
                c = self._canon
            else:  # no cycle passes through a value type or a field typing
                c = self._level(Type.canon)
                self._canon = c
        return c

    def memo(self) -> dict:
        """Results of pure functions of this node, created on first use."""
        m = getattr(self, "_memo", None)
        if m is None:
            m = {}
            self._memo = m
        return m

    def _level(self, val):
        """One level of this type: a tuple that starts with its tag, with
        val(child) in place of each child type, in a canonical order."""
        raise NotImplementedError

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Type):
            return NotImplemented
        return hash(self) == hash(other) and self.canon() == other.canon()

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            if self.recursive:  # a cycle may pass through: the tree cut two levels down
                h = hash(unfold(self)._level(lambda c: unfold(c)._level(_no_child)))
            else:
                h = hash(self._level(hash))
            self._hash = h
        return h

    def __repr__(self):
        from .render import render_type

        return render_type(self)


class SessionType(Type):
    """Class session types S: branch, variant, or a state naming one."""

    __slots__ = ()


class ValueType(Type):
    """Top-level value types T: Null, enumerations, sessions, linkthis.

    Session types are value types directly. ``link f`` is internal only.
    """

    __slots__ = ()
    recursive = False


class ChannelType(Type):
    """Channel session types: end, ?T.S, !T.S, offer, select, or a state."""

    __slots__ = ()


class State(Type):
    """A named state: a node whose body, the type it stands for, is set once
    (`define`); a type that reaches the state again points at the node. The
    name, a `where` state, a written `rec` binder, `_J<n>` for a join or
    `_AP` for an access point, matters only for rendering."""

    __slots__ = ("name", "body")

    def __init__(self, name, body=None):
        self.name, self.body = name, body

    def define(self, body):
        assert self.body is None, f"state {self.name!r} is defined already"
        self.body = body


class SessionState(State, SessionType):
    __slots__ = ()


class ChannelState(State, ChannelType):
    __slots__ = ()


def unfold(t):
    """The constructor t starts with: t, or the body of the state t is, through
    states whose bodies are states (contractive types have no such cycle)."""
    while isinstance(t, State):
        t = t.body
    return t


class Labelled:
    """Label lookup for forms whose `cases` are (label, component) pairs."""

    __slots__ = ()

    @property
    def labels(self):
        return frozenset([l for l, _ in self.cases])

    def case(self, label):
        for l, c in self.cases:
            if l == label:
                return c
        raise KeyError(label)


class NullType(ValueType):
    __slots__ = ()

    def _level(self, val):
        return ("null",)


NULL_T = NullType()


class EnumType(ValueType):
    __slots__ = ("labels",)

    def __init__(self, labels):
        if not labels:
            raise ValueError("enumerated types have at least one label")
        self.labels = frozenset(labels)

    def _level(self, val):
        return ("enum", tuple(sorted(self.labels)))

    def __eq__(self, other):
        if type(other) is not EnumType:
            return Type.__eq__(self, other)
        return self.labels == other.labels

    __hash__ = Type.__hash__


class LinkThis(ValueType):
    __slots__ = ()

    def _level(self, val):
        return ("linkthis",)


LINK_THIS = LinkThis()


class LinkField(ValueType):
    """Internal type ``link f``: a tag tied to the variant type of field f."""

    __slots__ = ("field",)

    def __init__(self, field):
        self.field = field

    def _level(self, val):
        return ("link", self.field)


class MethodSig:
    """One branch entry: ``result name(param): cont``. An entry compares by
    identity; branches compare their entries' names and types."""

    __slots__ = ("name", "param", "result", "cont")

    def __init__(self, name, param, result, cont):
        self.name, self.param, self.result, self.cont = name, param, result, cont


class Branch(SessionType):
    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(entries)

    def _level(self, val):
        return ("branch", tuple(sorted(
            [(e.name, val(e.param), val(e.result), val(e.cont)) for e in self.entries])))

    def named(self, name):
        return tuple(e for e in self.entries if e.name == name)


EMPTY_BRANCH = Branch(())


class _Cases(Labelled):
    """A type form of at least one case, labels distinct: its `tag` starts
    its level, and `empty` says what an empty one lacks."""

    __slots__ = ()

    def __init__(self, cases):
        cases = tuple(cases)
        if not cases:
            raise ValueError(self.empty)
        labels = [l for l, _ in cases]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate label in {labels}")
        self.cases = cases

    def _level(self, val):
        return (self.tag, tuple(sorted([(l, val(c)) for l, c in self.cases])))


class VariantS(_Cases, SessionType):
    __slots__ = ("cases",)  # ordered (label, SessionType) pairs, labels distinct
    tag, empty = "variant", "variant types have at least one case"


# Channel session types ------------------------------------------------------


class ChanEnd(ChannelType):
    __slots__ = ()

    def _level(self, val):
        return ("end",)


CHAN_END = ChanEnd()


class ChanRecv(ChannelType):
    __slots__ = ("payload", "cont")  # payload: a ValueType or ChannelType

    def __init__(self, payload, cont):
        self.payload, self.cont = payload, cont

    def _level(self, val):
        return ("recv", val(self.payload), val(self.cont))


class ChanSend(ChannelType):
    __slots__ = ("payload", "cont")

    def __init__(self, payload, cont):
        self.payload, self.cont = payload, cont

    def _level(self, val):
        return ("send", val(self.payload), val(self.cont))


class ChanOffer(_Cases, ChannelType):
    __slots__ = ("cases",)  # (label, ChannelType)
    tag, empty = "offer", "offer types have at least one label"


class ChanSelect(_Cases, ChannelType):
    __slots__ = ("cases",)
    tag, empty = "select", "select types have at least one label"


# Field typings --------------------------------------------------------------


class FieldTyping(Type):
    __slots__ = ()
    recursive = False


class RecordF(FieldTyping):
    """Record field typing: one type per declared field, in declaration order."""

    __slots__ = ("items",)  # (field name, ValueType or ObjectInternal)

    def __init__(self, items):
        self.items = tuple(items)

    def get(self, f):
        for name, t in self.items:
            if name == f:
                return t
        raise KeyError(f)

    def has(self, f):
        return any(name == f for name, _ in self.items)

    def set(self, f, t):
        items = self.items
        for k, (name, _) in enumerate(items):
            if name == f:
                return RecordF(items[:k] + ((f, t),) + items[k + 1 :])
        raise KeyError(f)

    @property
    def fields(self):
        return tuple([n for n, _ in self.items])

    def _level(self, val):
        return ("record", tuple(sorted((n, val(t)) for n, t in self.items)))

    def __eq__(self, other):
        # the typings of one class list its fields in one order, so they
        # compare field by field, without computing their identities
        if self is other:
            return True
        if type(other) is not RecordF:
            return Type.__eq__(self, other)
        if self.items == other.items:
            return True
        names = self.fields
        if names == other.fields and len(set(names)) == len(names):
            return False
        return Type.__eq__(self, other)

    __hash__ = Type.__hash__


class VariantF(_Cases, FieldTyping):
    """Variant field typing: record per label. Nested variants are not allowed."""

    __slots__ = ("cases",)  # (label, RecordF)
    tag = "variantf"

    def __init__(self, cases):
        cases = tuple(cases)
        if not cases:
            raise ValueError("variant field typings have at least one case")
        for _, f in cases:
            if isinstance(f, VariantF):
                raise ValueError("nested variant field typings are not permitted")
        self.cases = cases


class ObjectInternal(Type):
    """Internal object type C[F]: the view of an object from within its class."""

    __slots__ = ("cls", "typing")  # typing: a FieldTyping
    recursive = False

    def __init__(self, cls, typing):
        self.cls, self.typing = cls, typing

    def _level(self, val):
        return ("object", self.cls, val(self.typing))

    def __eq__(self, other):
        if type(other) is not ObjectInternal:
            return Type.__eq__(self, other)
        return self is other or (self.cls == other.cls and self.typing == other.typing)

    __hash__ = Type.__hash__


def null_record(fields: Iterable[str]) -> RecordF:
    return RecordF(tuple((f, NULL_T) for f in fields))


# ---------------------------------------------------------------------------
# Identities
# ---------------------------------------------------------------------------


class _Cycle:
    """The identity of the distinct states of a strongly connected component:
    their levels in a canonical order, ("@", i) for a child that is the i-th,
    whose identity is ("rec", cycle, i); with a node per state (`nodes`)."""

    __slots__ = ("levels", "nodes", "index", "_hash")

    def __init__(self, levels, nodes):
        self.levels, self.nodes, self._hash = levels, nodes, hash(levels)
        self.index = {lv: i for i, lv in enumerate(levels)}

    def __eq__(self, other):
        return self is other or (type(other) is _Cycle and self.levels == other.levels)

    def __lt__(self, other):
        return self.levels < other.levels

    def __hash__(self):
        return self._hash


def children(t) -> list:
    """The child types of a constructor, in `_level` order."""
    out = []
    t._level(out.append)  # `append` returns None: only the children are kept
    return out


def _identity(t):
    return unfold(t)._canon


def _no_child(c):
    return None


def _identify(t):
    """Give t, and each node it reaches that has none, its identity, one
    strongly connected component of constructors at a time, children first
    (Tarjan's algorithm on an explicit stack; a state stands for its body)."""
    root = unfold(t)
    if getattr(root, "_canon", None) is None:
        num, low, stack, kids = {id(root): 0}, {id(root): 0}, [root], {}
        kids[id(root)] = [unfold(c) for c in children(root)]
        path = [(root, iter(kids[id(root)]))]
        while path:
            v, todo = path[-1]
            for w in todo:
                if getattr(w, "_canon", None) is not None:
                    continue
                if id(w) in num:  # open: on the stack
                    low[id(v)] = min(low[id(v)], num[id(w)])
                    continue
                num[id(w)] = low[id(w)] = len(num)
                stack.append(w)
                kids[id(w)] = [unfold(c) for c in children(w)]
                path.append((w, iter(kids[id(w)])))
                break
            else:
                path.pop()
                if path:
                    u = id(path[-1][0])
                    low[u] = min(low[u], low[id(v)])
                if low[id(v)] == num[id(v)]:
                    comp = [stack.pop()]
                    while comp[-1] is not v:
                        comp.append(stack.pop())
                    if len(comp) == 1 and all(w is not v for w in kids[id(v)]):
                        _compose(v, kids[id(v)])
                    else:
                        _refine(comp, kids)
    t._canon = root._canon


def _compose(v, kids):
    """A node off any cycle: its level over its children's identities,
    unless it is an unrolled state of a cycle a child belongs to."""
    ident = v._level(_identity)
    for k in [c._canon for c in kids] if v.recursive else ():
        if k[0] == "rec":
            cycle = k[1]

            def local(c):
                k = _identity(c)
                return ("@", k[2]) if k[0] == "rec" and k[1] == cycle else k

            i = cycle.index.get(v._level(local))
            if i is not None:
                ident = ("rec", cycle, i)
                break
    v._canon = ident


def _refine(comp, kids):
    """Identities for a cycle of constructors, by partition refinement: its
    nodes, with those of each cycle a child belongs to, are split by their
    level over their children's blocks until no block splits (Moore's
    rounds), a member taking the identity of a known state in its block.
    Blocks are numbered by sorting (block, level) pairs, which depend only on
    the trees below, not on how the graph was built or on set order."""
    verts = list(comp)
    where = {id(v): i for i, v in enumerate(verts)}
    cycles = {}  # a cycle a member's child belongs to -> index of its first state
    for c in (c for v in comp for c in kids[id(v)]):
        k = getattr(c, "_canon", None) or ("",)
        if k[0] == "rec" and k[1] not in cycles:
            cycles[k[1]] = len(verts)
            verts.extend(k[1].nodes)
    seen = {}  # id of a child -> its vertex, or None

    def vertex(c):
        i = seen.get(id(c), -1)
        if i == -1:
            k = getattr(unfold(c), "_canon", None) or ("",)
            i = seen[id(c)] = where.get(id(unfold(c)))
            if k[0] == "rec" and k[1] in cycles:
                i = seen[id(c)] = cycles[k[1]] + k[2]
        return i

    def block(c):
        i = vertex(c)
        return ("=", _identity(c)) if i is None else ("#", rank[i])

    rank, count = [0] * len(verts), 0
    while True:
        levels = [(rank[i], v._level(block)) for i, v in enumerate(verts)]
        order = {lv: n for n, lv in enumerate(sorted(set(levels)))}
        rank = [order[lv] for lv in levels]
        if len(order) in (count, len(verts)):  # stable, or every block one node
            break
        count = len(order)

    known = {rank[i]: verts[i]._canon for i in range(len(comp), len(verts))}
    # the first member of each block of no known state
    reps = {r: v for r, v in reversed(list(zip(rank, comp))) if r not in known}
    if reps:
        local = {r: i for i, r in enumerate(sorted(reps))}

        def ident(c):
            i = vertex(c)
            if i is None:
                return _identity(c)
            return ("@", local[rank[i]]) if rank[i] in local else known[rank[i]]

        nodes = tuple(reps[r] for r in local)
        cycle = _Cycle(tuple(v._level(ident) for v in nodes), nodes)
        known.update((r, ("rec", cycle, i)) for r, i in local.items())
    for r, v in zip(rank, comp):
        v._canon = known[r]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Struct):
    """Base class for expressions. Nodes are records (`Struct`): equal when
    of one class with equal fields, and not changed after they are built. A
    node can store its key in a hash-consing table (`ExprKeys`), built on
    first use from its children's stored keys; what depends only on its
    structure, such as its endpoint set, the table keeps under that key.
    The key slots are not fields."""

    __slots__ = ("_key", "_keyed_by")

    def __repr__(self):
        from .render import render_expr

        return render_expr(self)


class NullE(Expr):
    __slots__ = ()


NULL_E = NullE()


class LabelE(Expr):
    __slots__ = ("label",)

    def __init__(self, label):
        self.label = label


class VarE(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class NewE(Expr):
    __slots__ = ("cls",)

    def __init__(self, cls):
        self.cls = cls


class SwapE(Expr):
    __slots__ = ("field", "expr")

    def __init__(self, field, expr):
        self.field, self.expr = field, expr


class CallE(Expr):
    __slots__ = ("field", "method", "arg")

    def __init__(self, field, method, arg):
        self.field, self.method, self.arg = field, method, arg


class SelfCallE(Expr):
    __slots__ = ("method", "arg")

    def __init__(self, method, arg):
        self.method, self.arg = method, arg


class SeqE(Expr):
    __slots__ = ("first", "second")

    def __init__(self, first, second):
        self.first, self.second = first, second


class SwitchE(Labelled, Expr):
    __slots__ = ("subject", "cases")  # cases: (label, Expr) pairs

    def __init__(self, subject, cases):
        self.subject, self.cases = subject, cases


class WhileE(Expr):
    __slots__ = ("cond", "body")

    def __init__(self, cond, body):
        self.cond, self.body = cond, body


class SpawnE(Expr):
    __slots__ = ("cls", "method", "arg")

    def __init__(self, cls, method, arg):
        self.cls, self.method, self.arg = cls, method, arg


class ReturnE(Expr):
    """Internal: an ongoing method call whose body is being reduced."""

    __slots__ = ("expr",)

    def __init__(self, expr):
        self.expr = expr


class ObjIdE(Expr):
    """Internal: a heap object identifier used as a value."""

    __slots__ = ("oid",)

    def __init__(self, oid):
        self.oid = oid


class EndpointE(Expr):
    """Internal: channel endpoint c with polarity '+' or '-'."""

    __slots__ = ("chan", "polarity")

    def __init__(self, chan, polarity):
        self.chan, self.polarity = chan, polarity


class AccessE(Expr):
    """A global access point name used as a value."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


def is_value(e: Expr) -> bool:
    return isinstance(e, (NullE, LabelE, ObjIdE, EndpointE, AccessE))


def statements(e: Expr) -> list:
    """The statements of a sequence, read along its right spine; a single
    statement for anything else."""
    out = []
    while isinstance(e, SeqE):
        out.append(e.first)
        e = e.second
    out.append(e)
    return out


def seq(stmts) -> Expr:
    """The right-nested sequence of one or more statements."""
    it = reversed(stmts)
    e = next(it)
    for s in it:
        e = SeqE(s, e)
    return e


def map_expr(e: Expr, fn, at=VarE) -> Expr:
    """Rebuild the source expression e with fn(x) in place of each
    subexpression x of type `at`. Where fn returns None, the walk goes on
    into x. A node none of whose subexpressions changed is returned as it
    is, so unchanged subtrees keep their identity and what is stored on
    them."""
    if isinstance(e, at):
        out = fn(e)
        if out is not None:
            return out
    t = type(e)  # compared by identity: the hot path of every call and spawn
    if t is SeqE:
        spine = []
        while type(e) is SeqE:
            spine.append(e)
            e = e.second
        out = map_expr(e, fn, at)
        for node in reversed(spine):
            first = map_expr(node.first, fn, at)
            if first is not node.first or out is not node.second:
                node = SeqE(first, out)
            out = node
        return out
    if t is SwapE:
        x = map_expr(e.expr, fn, at)
        return e if x is e.expr else SwapE(e.field, x)
    if t is CallE:
        x = map_expr(e.arg, fn, at)
        return e if x is e.arg else CallE(e.field, e.method, x)
    if t is SelfCallE:
        x = map_expr(e.arg, fn, at)
        return e if x is e.arg else SelfCallE(e.method, x)
    if t is SwitchE:
        subject = map_expr(e.subject, fn, at)
        cases = tuple((l, map_expr(b, fn, at)) for l, b in e.cases)
        if subject is e.subject and all(b is b0 for (_, b), (_, b0) in zip(cases, e.cases)):
            return e
        return SwitchE(subject, cases)
    if t is WhileE:
        cond, body = map_expr(e.cond, fn, at), map_expr(e.body, fn, at)
        return e if cond is e.cond and body is e.body else WhileE(cond, body)
    if t is SpawnE:
        x = map_expr(e.arg, fn, at)
        return e if x is e.arg else SpawnE(e.cls, e.method, x)
    return e


def subst_expr(e: Expr, var: str, value: Expr) -> Expr:
    """Replace the method parameter `var` by a value throughout a body."""
    return map_expr(e, lambda v: value if v.name == var else v)


def _parts(e: Expr) -> tuple:
    """(fields, subexpressions) of a node: its fields that are not
    expressions, and its direct subexpressions, each in field order."""
    t = type(e)
    if t is SeqE:
        return (), (e.first, e.second)
    if t is SwapE:
        return (e.field,), (e.expr,)
    if t is CallE:
        return (e.field, e.method), (e.arg,)
    if t is SelfCallE:
        return (e.method,), (e.arg,)
    if t is SpawnE:
        return (e.cls, e.method), (e.arg,)
    if t is ReturnE:
        return (), (e.expr,)
    if t is WhileE:
        return (), (e.cond, e.body)
    if t is SwitchE:
        return (tuple(l for l, _ in e.cases),), (e.subject,) + tuple(b for _, b in e.cases)
    return tuple(getattr(e, f) for f in t.__slots__), ()


_KEY_TABLES = itertools.count()  # serial numbers of hash-consing tables


class ExprKeys:
    """A hash-consing table: structurally equal expressions get the same
    small int, so "the same expression" is an O(1) test however large the
    expressions are. A node's key is built from its own fields and its
    children's keys, and stored on the node with this table's serial
    number; a table re-keys a node that another table keyed. What depends
    only on an expression's structure is kept with its key: its endpoint
    set, built from its children's sets when the key is first interned
    (`endpoints`). The table lives as long as its owner, and interns the
    owner's other keys too (`intern`)."""

    def __init__(self):
        self._ids = {}
        self._eps = {}  # expression key -> the channel endpoints in it
        self.serial = next(_KEY_TABLES)

    def __len__(self) -> int:
        return len(self._ids)

    def intern(self, item) -> int:
        """The int that stands for a hashable item in this table."""
        ids = self._ids
        k = ids.get(item)
        if k is None:
            k = ids[item] = len(ids)
        return k

    def key(self, e: Expr) -> int:
        """The key of e. Only the nodes this table has not keyed are read,
        each once, children before their parent; the stack is explicit, so
        neither a long statement spine nor deep nesting recurses."""
        serial = self.serial
        if getattr(e, "_keyed_by", None) == serial:
            return e._key
        ids, eps = self._ids, self._eps
        stack = [(e, None)]
        while stack:
            x, parts = stack.pop()
            if parts is None:
                if getattr(x, "_keyed_by", None) != serial:
                    parts = _parts(x)
                    stack.append((x, parts))
                    stack.extend([(c, None) for c in parts[1]])
                continue
            fields, subs = parts
            kids = tuple([c._key for c in subs])
            item = (type(x),) + fields + kids
            k = ids.get(item)
            if k is None:
                k = ids[item] = len(ids)
                if type(x) is EndpointE:
                    out = frozenset({(x.chan, x.polarity)})
                else:
                    out = _NO_ENDPOINTS
                    for c in kids:
                        sub = eps[c]
                        if sub:
                            out = out | sub if out else sub
                eps[k] = out
            x._key = k
            x._keyed_by = serial
        return e._key

    def endpoints(self, e: Expr) -> frozenset:
        """The channel endpoints (channel, polarity) occurring in e."""
        return self._eps[self.key(e)]


_NO_ENDPOINTS = frozenset()


# ---------------------------------------------------------------------------
# Evaluation contexts
# ---------------------------------------------------------------------------

# A context frame is a node whose first-reduced operand, its hole, is not yet
# a value; the hole of each frame form is named here.
_HOLE = {
    SwapE: "expr",
    CallE: "arg",
    SelfCallE: "arg",
    SpawnE: "arg",
    SeqE: "first",
    SwitchE: "subject",
    ReturnE: "expr",
}

# Each frame form rebuilt with x in its hole.
_FILL = {
    SwapE: lambda f, x: SwapE(f.field, x),
    CallE: lambda f, x: CallE(f.field, f.method, x),
    SelfCallE: lambda f, x: SelfCallE(f.method, x),
    SpawnE: lambda f, x: SpawnE(f.cls, f.method, x),
    SeqE: lambda f, x: SeqE(x, f.second),
    SwitchE: lambda f, x: SwitchE(x, f.cases),
    ReturnE: lambda f, x: ReturnE(x),
}


def frame_rest(f: Expr) -> tuple:
    """The subexpressions of a context frame other than its hole."""
    t = type(f)
    if t is SeqE:
        return (f.second,)
    if t is SwitchE:
        return tuple(b for _, b in f.cases)
    return ()


def focus(e: Expr, frames=None):
    """The redex of plug(frames, e) and the frames around it; None when that
    expression is a value. Frames are a linked list, innermost first: None
    for the empty context, else (outer frames, frame node), so a frame is
    added or removed in constant time at any depth. `frames` is a context as
    focus returns it, so only e is searched: a value in the innermost hole
    makes that frame the redex, since every frame form reduces once its
    hole holds a value."""
    if is_value(e):
        if frames is None:
            return None
        outer, inner = frames
        return _FILL[type(inner)](inner, e), outer
    hole = _HOLE.get(type(e))
    while hole is not None:
        x = getattr(e, hole)
        if is_value(x):
            break
        frames = (frames, e)
        e = x
        hole = _HOLE.get(type(e))
    return e, frames


def plug(frames, x: Expr) -> Expr:
    """The expression the frames make with x in the innermost hole. Only
    the frames are rebuilt; every other subtree is shared with the
    expression the frames came from."""
    while frames is not None:
        frames, f = frames
        x = _FILL[type(f)](f, x)
    return x


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


class MethodAnnotation(Struct):
    __slots__ = ("req", "ens", "result", "param_type")

    def __init__(self, req: RecordF, ens: RecordF, result: ValueType, param_type: ValueType):
        self.req, self.ens, self.result, self.param_type = req, ens, result, param_type


class MethodDef(Struct):
    __slots__ = ("name", "param", "body", "annotation")

    def __init__(self, name: str, param: str, body: Expr,
                 annotation: Optional[MethodAnnotation] = None):
        self.name, self.param, self.body, self.annotation = name, param, body, annotation


class ClassDecl(Struct):
    __slots__ = ("name", "session", "fields", "methods", "states")

    def __init__(self, name: str, session: SessionType, fields: tuple, methods: dict,
                 states: Optional[dict] = None):
        self.name, self.session, self.fields = name, session, fields
        self.methods = methods  # name -> MethodDef
        self.states = {} if states is None else states  # declared state name -> SessionType

    def method(self, name) -> Optional[MethodDef]:
        return self.methods.get(name)

    def initial_field_typing(self) -> RecordF:
        return null_record(self.fields)


class Program(Struct):
    __slots__ = ("classes", "access_points", "session_aliases", "channel_aliases", "main")

    def __init__(self, classes: dict, access_points: Optional[dict] = None,
                 session_aliases: Optional[dict] = None, channel_aliases: Optional[dict] = None,
                 main: Optional[tuple] = None):
        self.classes = classes  # name -> ClassDecl
        self.access_points = {} if access_points is None else access_points  # -> ChannelType
        self.session_aliases = {} if session_aliases is None else session_aliases  # -> SessionType
        self.channel_aliases = {} if channel_aliases is None else channel_aliases  # -> ChannelType
        self.main = main  # (class name, method name)

    def cls(self, name) -> ClassDecl:
        try:
            return self.classes[name]
        except KeyError:
            raise CoreError(f"undeclared class {name!r}") from None


# ---------------------------------------------------------------------------
# Heaps, paths, configurations
# ---------------------------------------------------------------------------


class ObjectRecord(Struct):
    __slots__ = ("cls", "fields")

    def __init__(self, cls: str, fields: tuple):
        self.cls = cls
        self.fields = fields  # (field name, value Expr) in declaration order

    def __repr__(self):
        return f"ObjectRecord(cls={self.cls!r}, fields={self.fields!r})"

    def get(self, f) -> Expr:
        for name, v in self.fields:
            if name == f:
                return v
        raise NoSuchField(f)

    def has(self, f) -> bool:
        return any(name == f for name, _ in self.fields)

    def set(self, f, v) -> "ObjectRecord":
        if not self.has(f):
            raise NoSuchField(f)
        return ObjectRecord(self.cls, tuple((n, v if n == f else old) for n, old in self.fields))

    @property
    def field_names(self):
        return tuple([n for n, _ in self.fields])


class Path:
    """A heap location r.f1...fn: a root object id, then one field per
    pending call, each a field of the object the path before it denotes.
    A path is a linked cell (outer path, last field, object id), and a
    call's path adds one cell to its caller's, so the two share every other
    cell, as the focus's frames do (Huet's zipper; Okasaki's persistent
    lists): `child`, `parent` and `last` take constant time at any depth. A
    cell that a call made knows the object it opened (`oid`), so a heap
    resolves it without reading the fields on the way (`Heap.resolve_id`);
    a path written as `Path(root, fields)` knows only its root's. Equality,
    hashing and `str` read the root and the fields only."""

    __slots__ = ("root", "outer", "field", "oid", "depth")

    def __init__(self, root: str, fields: tuple = ()):
        outer = None
        if fields:
            outer = Path(root)
            for f in fields[:-1]:
                outer = outer.child(f)
        self._link(outer, fields[-1] if fields else None, None if fields else root)

    def _link(self, outer, field, oid):
        self.outer, self.field, self.oid = outer, field, oid
        self.root, self.depth = (oid, 0) if outer is None else (outer.root, outer.depth + 1)

    def child(self, f, oid=None) -> "Path":
        """This path and field f, which holds the object `oid` when given."""
        p = object.__new__(Path)
        p._link(self, f, oid)
        return p

    def parent(self) -> "Path":
        if self.outer is None:
            raise CoreError("cannot pop the root of a path")
        return self.outer

    def last(self) -> str:
        if self.outer is None:
            raise CoreError("path has no field component")
        return self.field

    @property
    def fields(self) -> tuple:
        out, p = [], self
        while p.outer is not None:
            out.append(p.field)
            p = p.outer
        return tuple(reversed(out))

    def __eq__(self, other):
        if not isinstance(other, Path):
            return NotImplemented
        return self is other or (self.depth, self.root, self.fields) == (
            other.depth, other.root, other.fields
        )

    def __hash__(self):
        return hash((self.root, self.fields))

    def __repr__(self):
        return f"Path({self.root!r}, {self.fields!r})"

    def __str__(self):
        return ".".join((self.root,) + self.fields)


class Heap:
    """Object records by object id, in insertion order, which rendering and
    event logs read. A heap is a value: every update returns a new heap and
    leaves this one as it was, so the configurations before and after a
    step both stay valid. Equality is equality of the ordered entries.

    A heap keeps two maps: a base, which heaps share and nothing changes,
    and the updates made since, about as many as the square root of the
    base's size at most. An update copies only the updates, and folds them into
    a new base once there are that many. So an update costs O(sqrt n)
    amortised, where copying every record would cost O(n), and a lookup is
    at most two map accesses. The base followed by the updates' new ids is
    the insertion order."""

    __slots__ = ("_base", "_new")

    def __init__(self, entries=()):
        self._base = dict(entries)
        self._new = {}

    @classmethod
    def _of(cls, base: dict, new: dict) -> "Heap":
        """The heap over maps that the caller hands over and no longer
        changes."""
        h = object.__new__(cls)
        h._base = base
        h._new = new
        return h

    def _objs(self) -> dict:
        """Every record by id, in insertion order, as one map. Folding the
        updates in changes how this heap is kept, not what it holds."""
        if self._new:
            self._base = {**self._base, **self._new}
            self._new = {}
        return self._base

    def _set(self, oid, rec: ObjectRecord) -> "Heap":
        base, new = self._base, self._new
        if len(new) ** 2 > len(base):
            return Heap._of({**base, **new, oid: rec}, {})
        return Heap._of(base, {**new, oid: rec})

    @staticmethod
    def of(mapping) -> "Heap":
        return Heap(mapping)

    @property
    def entries(self) -> tuple:
        """(object id, ObjectRecord) pairs in insertion order."""
        return tuple(self._objs().items())

    def __eq__(self, other):
        if not isinstance(other, Heap):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Heap(entries={self.entries!r})"

    def record(self, oid) -> ObjectRecord:
        rec = self._new.get(oid) or self._base.get(oid)
        if rec is None:
            raise PathUndefined(f"no object {oid!r} in heap")
        return rec

    def has(self, oid) -> bool:
        return oid in self._new or oid in self._base

    @property
    def ids(self):
        return tuple(self._objs())

    def changes(self, since: "Heap | None" = None) -> list:
        """(id, record in `since` or None, record here or None) for each id
        whose record is not the same object in both heaps; with no `since`,
        every record here, in insertion order. Reads both heaps as they are
        kept, folding neither: when they share their base only the two
        update maps are compared, else every id of both."""
        if since is self:
            return []
        if since is None:
            since = _EMPTY_HEAP
        if since._base is self._base:
            ids = list(since._new) + [o for o in self._new if o not in since._new]
        else:
            ids = list(self._base) + [o for o in self._new if o not in self._base]
            ids += [o for o in since._base if not self.has(o)]
            ids += [o for o in since._new if o not in since._base and not self.has(o)]
        out = []
        for oid in ids:
            old = since._new.get(oid) or since._base.get(oid)
            new = self._new.get(oid) or self._base.get(oid)
            if old is not new:
                out.append((oid, old, new))
        return out

    def add(self, oid, rec: ObjectRecord) -> "Heap":
        if self.has(oid):
            raise HeapConflict(f"object {oid!r} already in heap")
        return self._set(oid, rec)

    def replace(self, oid, rec: ObjectRecord) -> "Heap":
        if not self.has(oid):
            raise PathUndefined(f"no object {oid!r} in heap")
        return self._set(oid, rec)

    # -- heap locations -----------------------------------------------------

    def resolve_id(self, r: Path) -> str:
        """Object id that path r denotes; every intermediate field must hold
        one. A path that knows its object (`Path.oid`) denotes it while the
        heap holds it; the interpreter changes no field of a path while its
        call is pending. Any other path is resolved by reading its fields."""
        oid = r.oid
        if oid is not None and self.has(oid):
            return oid
        oid = r.root
        rec = self.record(oid)
        for f in r.fields:
            v = rec.get(f)
            if not isinstance(v, ObjIdE):
                raise PathUndefined(f"{oid}.{f} does not hold an object identifier")
            oid = v.oid
            if not self.has(oid):
                raise PathUndefined(f"dangling object {oid!r}")
            rec = self.record(oid)
        return oid

    def resolve(self, r: Path) -> ObjectRecord:
        return self.record(self.resolve_id(r))

    def write(self, r: Path, f: str, v: Expr) -> "Heap":
        """h{r.f = v}: update exactly one field of the record at r."""
        oid = self.resolve_id(r)
        return self._set(oid, self.record(oid).set(f, v))

    # -- children / roots / separation --------------------------------------

    def children(self, oid) -> tuple:
        return tuple(v.oid for _, v in self.record(oid).fields if isinstance(v, ObjIdE))

    def _referenced(self) -> set:
        """Ids held in some field of some record, in one pass over the heap."""
        return {v.oid for r in self._objs().values() for _, v in r.fields if isinstance(v, ObjIdE)}

    def is_complete(self) -> bool:
        return self._referenced() <= self._objs().keys()

    def roots(self) -> tuple:
        referenced = self._referenced()
        return tuple(o for o in self._objs() if o not in referenced)

    def descendants(self, oid) -> tuple:
        """Breadth-first, first-visit order; requires a complete heap."""
        seen = [oid]
        seen_set = {oid}
        i = 0
        while i < len(seen):
            for c in self.children(seen[i]):
                if c not in seen_set:
                    seen_set.add(c)
                    seen.append(c)
            i += 1
        return tuple(seen)

    def split(self, oid) -> tuple:
        """(h down-restricted to desc(oid), h with desc(oid) removed)."""
        if not self.is_complete():
            raise IncompleteHeap("heap separation requires a complete heap")
        if oid not in self.roots():
            raise NotARoot(f"{oid!r} is not a root")
        desc = set(self.descendants(oid))
        down = Heap((o, r) for o, r in self._objs().items() if o in desc)
        up = Heap((o, r) for o, r in self._objs().items() if o not in desc)
        return down, up

    def merge(self, other: "Heap") -> "Heap":
        if not self._objs().keys().isdisjoint(other._objs()):
            raise HeapConflict("heap domains overlap")
        return Heap._of({**self._objs(), **other._objs()}, {})

    def rename(self, phi: dict) -> "Heap":
        """Apply an object-id renaming everywhere, including inside records."""
        img = [phi[o] for o in self._objs() if o in phi]
        if len(set(img)) != len(img):
            raise NotInjective("renaming is not injective on the heap domain")

        def ren_val(v):
            if isinstance(v, ObjIdE) and v.oid in phi:
                return ObjIdE(phi[v.oid])
            return v

        return Heap(
            (phi.get(o, o), ObjectRecord(r.cls, tuple((f, ren_val(v)) for f, v in r.fields)))
            for o, r in self._objs().items()
        )


_EMPTY_HEAP = Heap()
_UNFOCUSED = object()  # a thread's focus not yet computed


class Thread:
    """A thread: its heap, its current path and its expression.

    The interpreter makes each thread it reduces from the context frames
    of the redex it reduced and what replaced that redex (`plugged`). The
    expression is then built only when it is read, and the thread's focus,
    its redex and the frames around it, is found from the replacement
    alone. Both are computed on first use and kept on the thread, so a step
    reads each thread's focus once, and an untouched thread, kept as the
    same object, is never searched again. They are kept here and never on
    an expression node: a node holding its own context would be a
    reference cycle, which only the garbage collector's passes reclaim.
    Treat a thread as immutable."""

    __slots__ = ("heap", "path", "_expr", "_hole", "_frames", "_focus")

    def __init__(self, heap: Heap, path: Path, expr: Expr):
        self.heap = heap
        self.path = path
        self._expr = self._hole = expr
        self._frames = None
        self._focus = _UNFOCUSED

    @classmethod
    def plugged(cls, heap: Heap, path: Path, frames, x: Expr) -> "Thread":
        """The thread whose expression is plug(frames, x)."""
        th = object.__new__(cls)
        th.heap = heap
        th.path = path
        th._expr = None
        th._hole = x
        th._frames = frames
        th._focus = _UNFOCUSED
        return th

    @property
    def expr(self) -> Expr:
        e = self._expr
        if e is None:
            e = self._expr = plug(self._frames, self._hole)
        return e

    @property
    def made_from(self):
        """(frames, x): the context the thread was made from and what fills
        its hole (`plugged`); (None, expression) when made from that."""
        return self._frames, self._hole

    @property
    def focus(self):
        """(redex, frames) of the expression, as `focus` gives them; None
        when the expression is a value."""
        f = self._focus
        if f is _UNFOCUSED:
            f = self._focus = focus(self._hole, self._frames)
        return f

    def __eq__(self, other):
        if not isinstance(other, Thread):
            return NotImplemented
        return (self.heap, self.path, self.expr) == (other.heap, other.path, other.expr)

    def __hash__(self):
        return hash((self.heap, self.path, self.expr))

    def __repr__(self):
        return f"Thread(heap={self.heap!r}, path={self.path!r}, expr={self.expr!r})"

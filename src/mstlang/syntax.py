"""Core abstract syntax: class session types, channel session types, value
types, field typings, expressions, declarations, heaps, paths and
configurations, together with the pure structural operations on them
(unfolding, path resolution, heap separation, renaming).

Branch entries keep their source order but compare as sets keyed by
(method name, parameter type); variants compare as label-keyed maps.
Recursive types compare up to alpha-renaming of their bound variables.
All values here are immutable; heap/configuration updates build new values.
A pure function of a type (unfolding, duality, translation, subtyping) keeps
its result on the node it was applied to (`Type.memo()`), so a result depends
only on its arguments, never on what the process computed before.
A node's canonical form is composed from the forms already stored on its
children wherever no `rec` binder is open, so a fresh node costs one level.
Expressions likewise store their endpoint sets and hash-consed keys, built
from their children's without recursion, and `map_expr` keeps the identity
of every subtree it does not change. An evaluation context is a linked list
of frames (`focus`, `plug`), and heaps share their records between versions
(`Heap`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
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
# Types
# ---------------------------------------------------------------------------

class Type:
    """Base class for all type forms.

    Equality and hashing go through a canonical form so that branch entry
    order, variant case order and mu-variable names are irrelevant. The form
    is computed once per node and built from its children's stored forms
    outside `rec` binders (`_form`); its hash is kept beside it.
    """

    __slots__ = ("_canon", "_memo", "_hash")

    def canon(self):
        c = getattr(self, "_canon", None)
        if c is None:
            c = self._canonical(())
            object.__setattr__(self, "_canon", c)
        return c

    def memo(self) -> dict:
        """Results of pure functions of this node, created on first use."""
        m = getattr(self, "_memo", None)
        if m is None:
            m = {}
            object.__setattr__(self, "_memo", m)
        return m

    def _canonical(self, bound):
        raise NotImplementedError

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Type):
            return NotImplemented
        return self.canon() == other.canon()

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self.canon())
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        from .render import render_type

        return render_type(self)


def _form(t, bound):
    """Canonical form of child `t` of a node whose form is being built: the
    form stored on `t` when no `rec` binder is open, else a walk under
    `bound`, since de Bruijn indices depend on the enclosing binders."""
    return t._canonical(bound) if bound else t.canon()


class SessionType(Type):
    """Class session types S: branch, variant, rec, or type variable."""

    __slots__ = ()


class ValueType(Type):
    """Top-level value types T: Null, enumerations, sessions, linkthis.

    Session types are value types directly. ``link f`` is internal only.
    """

    __slots__ = ()


class ChannelType(Type):
    """Channel session types: end, ?T.S, !T.S, offer, select, rec, var."""

    __slots__ = ()


class Labelled:
    """Label lookup for forms whose `cases` are (label, component) pairs."""

    __slots__ = ()

    @property
    def labels(self):
        return frozenset(l for l, _ in self.cases)

    def case(self, label):
        for l, c in self.cases:
            if l == label:
                return c
        raise KeyError(label)


def _distinct_labels(cases):
    labels = [l for l, _ in cases]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate label in {labels}")


@dataclass(frozen=True, eq=False, repr=False)
class NullType(ValueType):
    __slots__ = ()

    def _canonical(self, bound):
        return ("null",)


NULL_T = NullType()


@dataclass(frozen=True, eq=False, repr=False)
class EnumType(ValueType):
    labels: frozenset

    __slots__ = ("labels",)

    def __post_init__(self):
        if not self.labels:
            raise ValueError("enumerated types have at least one label")
        object.__setattr__(self, "labels", frozenset(self.labels))

    def _canonical(self, bound):
        return ("enum", tuple(sorted(self.labels)))


@dataclass(frozen=True, eq=False, repr=False)
class LinkThis(ValueType):
    __slots__ = ()

    def _canonical(self, bound):
        return ("linkthis",)


LINK_THIS = LinkThis()


@dataclass(frozen=True, eq=False, repr=False)
class LinkField(ValueType):
    """Internal type ``link f``: a tag tied to the variant type of field f."""

    field: str

    __slots__ = ("field",)

    def _canonical(self, bound):
        return ("link", self.field)


@dataclass(frozen=True, eq=False, repr=False)
class MethodSig:
    """One branch entry: ``result name(param): cont``."""

    name: str
    param: ValueType
    result: ValueType
    cont: SessionType

    def _canonical(self, bound):
        return (
            self.name,
            _form(self.param, bound),
            _form(self.result, bound),
            _form(self.cont, bound),
        )


@dataclass(frozen=True, eq=False, repr=False)
class Branch(SessionType):
    entries: tuple

    __slots__ = ("entries",)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    def _canonical(self, bound):
        ents = sorted(e._canonical(bound) for e in self.entries)
        return ("branch", tuple(ents))

    def named(self, name):
        return tuple(e for e in self.entries if e.name == name)


EMPTY_BRANCH = Branch(())


@dataclass(frozen=True, eq=False, repr=False)
class VariantS(Labelled, SessionType):
    cases: tuple  # ordered (label, SessionType) pairs, labels distinct

    __slots__ = ("cases",)

    def __post_init__(self):
        cases = tuple(self.cases)
        if not cases:
            raise ValueError("variant types have at least one case")
        _distinct_labels(cases)
        object.__setattr__(self, "cases", cases)

    def _canonical(self, bound):
        cs = sorted((l, _form(s, bound)) for l, s in self.cases)
        return ("variant", tuple(cs))


class Rec:
    """A `rec var.body` binder. Its `kind`, "s" for a session type and "c"
    for a channel type, is the kind of the variables (`TypeVar`) it binds."""

    __slots__ = ()

    def _canonical(self, bound):
        tag = "rec" if self.kind == "s" else "recc"
        return (tag, self.body._canonical(bound + ((self.kind, self.var),)))


class TypeVar:
    """A recursion variable, bound by the nearest enclosing `Rec` of its
    `kind` and name; its canonical form is that binder's de Bruijn index."""

    __slots__ = ()

    def _canonical(self, bound):
        for i in range(len(bound) - 1, -1, -1):
            if bound[i] == (self.kind, self.name):
                return ("var", len(bound) - 1 - i)
        return ("freevar", self.name)


@dataclass(frozen=True, eq=False, repr=False)
class RecS(Rec, SessionType):
    var: str
    body: SessionType

    __slots__ = ("var", "body")
    kind = "s"


@dataclass(frozen=True, eq=False, repr=False)
class VarS(TypeVar, SessionType):
    name: str

    __slots__ = ("name",)
    kind = "s"


# Channel session types ------------------------------------------------------


@dataclass(frozen=True, eq=False, repr=False)
class ChanEnd(ChannelType):
    __slots__ = ()

    def _canonical(self, bound):
        return ("end",)


CHAN_END = ChanEnd()


@dataclass(frozen=True, eq=False, repr=False)
class ChanRecv(ChannelType):
    payload: Type  # ValueType or ChannelType
    cont: ChannelType

    __slots__ = ("payload", "cont")

    def _canonical(self, bound):
        return ("recv", _form(self.payload, bound), _form(self.cont, bound))


@dataclass(frozen=True, eq=False, repr=False)
class ChanSend(ChannelType):
    payload: Type
    cont: ChannelType

    __slots__ = ("payload", "cont")

    def _canonical(self, bound):
        return ("send", _form(self.payload, bound), _form(self.cont, bound))


@dataclass(frozen=True, eq=False, repr=False)
class ChanOffer(Labelled, ChannelType):
    cases: tuple  # (label, ChannelType)

    __slots__ = ("cases",)

    def __post_init__(self):
        cases = tuple(self.cases)
        if not cases:
            raise ValueError("offer types have at least one label")
        _distinct_labels(cases)
        object.__setattr__(self, "cases", cases)

    def _canonical(self, bound):
        cs = sorted((l, _form(s, bound)) for l, s in self.cases)
        return ("offer", tuple(cs))


@dataclass(frozen=True, eq=False, repr=False)
class ChanSelect(Labelled, ChannelType):
    cases: tuple

    __slots__ = ("cases",)

    def __post_init__(self):
        cases = tuple(self.cases)
        if not cases:
            raise ValueError("select types have at least one label")
        _distinct_labels(cases)
        object.__setattr__(self, "cases", cases)

    def _canonical(self, bound):
        cs = sorted((l, _form(s, bound)) for l, s in self.cases)
        return ("select", tuple(cs))


@dataclass(frozen=True, eq=False, repr=False)
class RecC(Rec, ChannelType):
    var: str
    body: ChannelType

    __slots__ = ("var", "body")
    kind = "c"


@dataclass(frozen=True, eq=False, repr=False)
class VarC(TypeVar, ChannelType):
    name: str

    __slots__ = ("name",)
    kind = "c"


# Field typings --------------------------------------------------------------


class FieldTyping(Type):
    __slots__ = ()


@dataclass(frozen=True, eq=False, repr=False)
class RecordF(FieldTyping):
    """Record field typing: one type per declared field, in declaration order."""

    items: tuple  # (field name, ValueType or ObjectInternal)

    __slots__ = ("items",)

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))

    def get(self, f):
        for name, t in self.items:
            if name == f:
                return t
        raise KeyError(f)

    def has(self, f):
        return any(name == f for name, _ in self.items)

    def set(self, f, t):
        if not self.has(f):
            raise KeyError(f)
        return RecordF(tuple((n, t if n == f else old) for n, old in self.items))

    @property
    def fields(self):
        return tuple(n for n, _ in self.items)

    def _canonical(self, bound):
        its = sorted((n, _form(t, bound)) for n, t in self.items)
        return ("record", tuple(its))


@dataclass(frozen=True, eq=False, repr=False)
class VariantF(Labelled, FieldTyping):
    """Variant field typing: record per label. Nested variants are not allowed."""

    cases: tuple  # (label, RecordF)

    __slots__ = ("cases",)

    def __post_init__(self):
        cases = tuple(self.cases)
        if not cases:
            raise ValueError("variant field typings have at least one case")
        for _, f in cases:
            if isinstance(f, VariantF):
                raise ValueError("nested variant field typings are not permitted")
        object.__setattr__(self, "cases", cases)

    def _canonical(self, bound):
        cs = sorted((l, _form(f, bound)) for l, f in self.cases)
        return ("variantf", tuple(cs))


@dataclass(frozen=True, eq=False, repr=False)
class ObjectInternal(Type):
    """Internal object type C[F]: the view of an object from within its class."""

    cls: str
    typing: FieldTyping

    __slots__ = ("cls", "typing")

    def _canonical(self, bound):
        return ("object", self.cls, _form(self.typing, bound))


def null_record(fields: Iterable[str]) -> RecordF:
    return RecordF(tuple((f, NULL_T) for f in fields))


# ---------------------------------------------------------------------------
# Unfolding and substitution
# ---------------------------------------------------------------------------


def _subst(t, var, repl, kind):
    """Substitute repl for the free variable `var` of the given kind in t.

    repl is closed, so no capture avoidance is needed beyond shadowing.
    Unchanged subterms are returned as-is, preserving sharing (unfolding
    then reuses existing nodes, which keeps traversals of recursive types
    finite when tracked by object identity).
    """
    if isinstance(t, TypeVar):
        return repl if (t.kind == kind and t.name == var) else t
    if isinstance(t, Rec):
        if t.kind == kind and t.var == var:
            return t
        body = _subst(t.body, var, repl, kind)
        return t if body is t.body else type(t)(t.var, body)
    if isinstance(t, Branch):
        entries = []
        changed = False
        for e in t.entries:
            p = _subst(e.param, var, repl, kind)
            r = _subst(e.result, var, repl, kind)
            c = _subst(e.cont, var, repl, kind)
            if p is e.param and r is e.result and c is e.cont:
                entries.append(e)
            else:
                changed = True
                entries.append(MethodSig(e.name, p, r, c))
        return Branch(tuple(entries)) if changed else t
    if isinstance(t, (VariantS, ChanOffer, ChanSelect)):
        cases = []
        changed = False
        for l, s in t.cases:
            s2 = _subst(s, var, repl, kind)
            changed = changed or s2 is not s
            cases.append((l, s2))
        return type(t)(tuple(cases)) if changed else t
    if isinstance(t, (ChanRecv, ChanSend)):
        p = _subst(t.payload, var, repl, kind)
        c = _subst(t.cont, var, repl, kind)
        if p is t.payload and c is t.cont:
            return t
        return type(t)(p, c)
    return t


def subst_session(body: SessionType, var: str, repl: SessionType) -> SessionType:
    return _subst(body, var, repl, "s")


def unfold(t):
    """Remove top-level rec binders by iterated substitution.

    Requires the input to be closed and contractive, which guarantees
    termination; the result is never a rec at the top.
    """
    if not isinstance(t, Rec):
        return t
    memo = t.memo()
    out = memo.get("unfold")
    if out is None:
        out = t
        while isinstance(out, Rec):
            out = _subst(out.body, out.var, out, out.kind)
        memo["unfold"] = out
    return out


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expressions. A node can store its endpoint set
    (`endpoints_of`) and its key in a hash-consing table (`ExprKeys`); both
    are built on first use from its children's stored ones."""

    __slots__ = ("_eps", "_key", "_keyed_by")

    def __repr__(self):
        from .render import render_expr

        return render_expr(self)


@dataclass(frozen=True, repr=False)
class NullE(Expr):
    __slots__ = ()


NULL_E = NullE()


@dataclass(frozen=True, repr=False)
class LabelE(Expr):
    label: str
    __slots__ = ("label",)


@dataclass(frozen=True, repr=False)
class VarE(Expr):
    name: str
    __slots__ = ("name",)


@dataclass(frozen=True, repr=False)
class NewE(Expr):
    cls: str
    __slots__ = ("cls",)


@dataclass(frozen=True, repr=False)
class SwapE(Expr):
    field: str
    expr: Expr
    __slots__ = ("field", "expr")


@dataclass(frozen=True, repr=False)
class CallE(Expr):
    field: str
    method: str
    arg: Expr
    __slots__ = ("field", "method", "arg")


@dataclass(frozen=True, repr=False)
class SelfCallE(Expr):
    method: str
    arg: Expr
    __slots__ = ("method", "arg")


@dataclass(frozen=True, repr=False)
class SeqE(Expr):
    first: Expr
    second: Expr
    __slots__ = ("first", "second")


@dataclass(frozen=True, repr=False)
class SwitchE(Labelled, Expr):
    subject: Expr
    cases: tuple  # (label, Expr)
    __slots__ = ("subject", "cases")


@dataclass(frozen=True, repr=False)
class WhileE(Expr):
    cond: Expr
    body: Expr
    __slots__ = ("cond", "body")


@dataclass(frozen=True, repr=False)
class SpawnE(Expr):
    cls: str
    method: str
    arg: Expr
    __slots__ = ("cls", "method", "arg")


@dataclass(frozen=True, repr=False)
class ReturnE(Expr):
    """Internal: an ongoing method call whose body is being reduced."""

    expr: Expr
    __slots__ = ("expr",)


@dataclass(frozen=True, repr=False)
class ObjIdE(Expr):
    """Internal: a heap object identifier used as a value."""

    oid: str
    __slots__ = ("oid",)


@dataclass(frozen=True, repr=False)
class EndpointE(Expr):
    """Internal: channel endpoint c with polarity '+' or '-'."""

    chan: str
    polarity: str
    __slots__ = ("chan", "polarity")


@dataclass(frozen=True, repr=False)
class AccessE(Expr):
    """A global access point name used as a value."""

    name: str
    __slots__ = ("name",)


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


def _bottom_up(e: Expr, done, build) -> None:
    """Call build(x, fields, subexpressions) on each node x of e that `done`
    rejects, children before their parent. The stack is explicit, so
    neither a long statement spine nor deep nesting recurses, and a subtree
    that `done` accepts is not entered."""
    stack = [(e, None)]
    while stack:
        x, parts = stack.pop()
        if parts is not None:
            build(x, *parts)
        elif not done(x):
            parts = _parts(x)
            stack.append((x, parts))
            stack.extend([(c, None) for c in parts[1]])


_KEY_TABLES = itertools.count()  # serial numbers of hash-consing tables


class ExprKeys:
    """A hash-consing table: structurally equal expressions get the same
    small int, so "the same expression" is an O(1) test however large the
    expressions are. A node's key is built from its own fields and its
    children's keys, and stored on the node with this table's serial
    number; a table re-keys a node that another table keyed. The table
    lives as long as its owner, and interns the owner's other keys too
    (`intern`)."""

    def __init__(self):
        self._ids = {}
        self._serial = next(_KEY_TABLES)

    def intern(self, item) -> int:
        """The int that stands for a hashable item in this table."""
        ids = self._ids
        k = ids.get(item)
        if k is None:
            k = ids[item] = len(ids)
        return k

    def key(self, e: Expr) -> int:
        serial = self._serial
        try:
            if e._keyed_by == serial:
                return e._key
        except AttributeError:
            pass

        def done(x):
            return getattr(x, "_keyed_by", None) == serial

        def build(x, fields, subs):
            k = self.intern((type(x),) + fields + tuple(c._key for c in subs))
            object.__setattr__(x, "_key", k)
            object.__setattr__(x, "_keyed_by", serial)

        _bottom_up(e, done, build)
        return e._key


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


@dataclass(frozen=True)
class MethodAnnotation:
    req: RecordF
    ens: RecordF
    result: ValueType
    param_type: ValueType


@dataclass(frozen=True)
class MethodDef:
    name: str
    param: str
    body: Expr
    annotation: Optional[MethodAnnotation] = None


@dataclass(frozen=True)
class ClassDecl:
    name: str
    session: SessionType
    fields: tuple
    methods: dict  # name -> MethodDef
    states: dict = field(default_factory=dict)  # declared state name -> SessionType

    def method(self, name) -> Optional[MethodDef]:
        return self.methods.get(name)

    def initial_field_typing(self) -> RecordF:
        return null_record(self.fields)


@dataclass(frozen=True)
class Program:
    classes: dict  # name -> ClassDecl
    access_points: dict = field(default_factory=dict)  # name -> ChannelType
    session_aliases: dict = field(default_factory=dict)  # name -> SessionType
    channel_aliases: dict = field(default_factory=dict)  # name -> ChannelType
    main: Optional[tuple] = None  # (class name, method name)

    def cls(self, name) -> ClassDecl:
        try:
            return self.classes[name]
        except KeyError:
            raise CoreError(f"undeclared class {name!r}") from None


# ---------------------------------------------------------------------------
# Heaps, paths, configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObjectRecord:
    cls: str
    fields: tuple  # (field name, value Expr) in declaration order

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
        return tuple(n for n, _ in self.fields)


@dataclass(frozen=True)
class Path:
    root: str
    fields: tuple = ()

    def child(self, f) -> "Path":
        return Path(self.root, self.fields + (f,))

    def parent(self) -> "Path":
        if not self.fields:
            raise CoreError("cannot pop the root of a path")
        return Path(self.root, self.fields[:-1])

    def last(self) -> str:
        if not self.fields:
            raise CoreError("path has no field component")
        return self.fields[-1]

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
        """Object id that path r denotes; every intermediate field must hold one."""
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


@dataclass(frozen=True)
class Configuration:
    threads: tuple
    next_obj: int = 0
    next_chan: int = 0

    def fresh_obj(self):
        return f"o{self.next_obj}", Configuration(self.threads, self.next_obj + 1, self.next_chan)

    def fresh_chan(self):
        return f"c{self.next_chan}", Configuration(self.threads, self.next_obj, self.next_chan + 1)

    def with_thread(self, i, thread: Thread) -> "Configuration":
        ts = list(self.threads)
        ts[i] = thread
        return Configuration(tuple(ts), self.next_obj, self.next_chan)


_NO_ENDPOINTS = frozenset()


def endpoints_of(e: Expr) -> frozenset:
    """Channel endpoints occurring in an expression. The set is stored on
    each node, built from its children's stored sets, so only nodes made
    since the last call are visited."""
    try:
        return e._eps
    except AttributeError:
        pass
    _bottom_up(e, _endpoints_stored, _store_endpoints)
    return e._eps


def _endpoints_stored(x) -> bool:
    return hasattr(x, "_eps")


def _store_endpoints(x, fields, subs) -> None:
    if type(x) is EndpointE:
        out = frozenset({(x.chan, x.polarity)})
    else:
        out = _NO_ENDPOINTS
        for c in subs:
            if c._eps:
                out = out | c._eps if out else c._eps
    object.__setattr__(x, "_eps", out)


def heap_endpoints(h: Heap) -> set:
    out = set()
    for rec in h._objs().values():
        for _, v in rec.fields:
            if isinstance(v, EndpointE):
                out.add((v.chan, v.polarity))
    return out

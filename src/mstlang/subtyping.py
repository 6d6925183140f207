"""Coinductive subtyping on session types, value types and field typings,
plus the join operator used when merging variant branches.

The sub-session check follows the standard assumption-set construction for
coinductively defined relations: a pair is assumed before its components are
checked, so cycles through states terminate. An assumption is the pair of
types itself, compared as the trees they unfold to (`==`). `coinductive` is
that construction once, for this relation and for channel subtyping.
`serving_entry` is the one overload resolution: sub-session matching and
the checker's call rule both ask it which entry of a branch serves a call.
"""

from __future__ import annotations

from . import syntax as sx
from .syntax import (
    Branch,
    EnumType,
    LinkThis,
    MethodSig,
    ObjectInternal,
    RecordF,
    SessionType,
    ValueType,
    VariantF,
    VariantS,
    unfold,
)


class JoinUndefined(Exception):
    pass


# ---------------------------------------------------------------------------
# Sub-session
# ---------------------------------------------------------------------------


class Proof:
    """The pairs a coinductive proof assumes on its current path, the
    assumptions used per open pair, and pairs proved on assumptions."""

    __slots__ = ("path", "uses", "proved")

    def __init__(self):
        self.path, self.uses, self.proved = set(), [], {}


def coinductive(step, s, t, assumptions=None) -> bool:
    """Decide the pair (s, t) of a coinductive relation on types, whose
    `step(unfold(s), unfold(t), assumptions)` relates the components with the
    pair assumed, in the `Proof` `assumptions` (None for a new one). A
    verdict resting on no earlier assumption is memoised on `s`, keyed by
    `step` and `t`; one that does is kept in the proof while those stay on
    the path, so a pair that several paths re-join is proved once."""
    if s == t:
        return True
    memo = s.memo()
    result = memo.get((step, t))
    if result is not None:
        return result
    proof = Proof() if assumptions is None else assumptions
    key = (step, s, t)
    rests = {key} if key in proof.path else proof.proved.get(key)
    if rests is not None and rests <= proof.path:
        if proof.uses:
            proof.uses[-1] |= rests
        return True
    proof.path.add(key)
    proof.uses.append(set())
    result = step(unfold(s), unfold(t), proof)
    proof.path.remove(key)
    rests = proof.uses.pop() & proof.path  # the assumptions made before this pair
    if not rests:
        memo[(step, t)] = result
    elif result:
        proof.proved[key] = rests
    if proof.uses:
        proof.uses[-1] |= rests
    return result


def subtype_session(s: SessionType, t: SessionType) -> bool:
    """Largest sub-session relation: branches contravariant in the method set
    and signature-compatible pointwise; variants covariant in the label set."""
    return _subtype_session(s, t, None)


def _subtype_session(s, t, assumptions):
    return coinductive(_subtype_unfolded, s, t, assumptions)


def _subtype_unfolded(su, tu, assumptions):
    if isinstance(su, Branch) and isinstance(tu, Branch):
        for sig_t in tu.entries:
            sig_s, _ = serving_entry(su, sig_t.name, sig_t.param, assumptions)
            if sig_s is None or not _compatible_signature(sig_s, sig_t, assumptions):
                return False
        return True
    if isinstance(su, VariantS) and isinstance(tu, VariantS):
        if not su.labels <= tu.labels:
            return False
        return all(_subtype_session(c, tu.case(l), assumptions) for l, c in su.cases)
    return False


def serving_entry(branch: Branch, name: str, arg, assumptions=None):
    """The entry of `branch` that serves a call of `name` with an argument of
    type `arg`: among the entries named `name` whose parameter accepts `arg`
    (parameters are contravariant), the one with the least parameter.

    Returns (entry, accepting), the accepting entries in branch order; entry
    is None when none accepts `arg` or no least parameter is unique.
    Parameters are compared under `assumptions`, those of the sub-session
    proof the match is part of (None for a call).
    """
    accepting = [e for e in branch.named(name) if _compatible_value(arg, e.param, assumptions)]
    if len(accepting) == 1:
        return accepting[0], accepting
    least = [
        e
        for e in accepting
        if all(_compatible_value(e.param, other.param, assumptions) for other in accepting)
    ]
    return (least[0] if len(least) == 1 else None), accepting


def _compatible_signature(sig: MethodSig, sig_t: MethodSig, assumptions) -> bool:
    """Covariant result and continuation; the parameter was matched already."""
    if _compatible_value(sig.result, sig_t.result, assumptions) and _subtype_session(
        sig.cont, sig_t.cont, assumptions
    ):
        return True
    # an enum-returning method may be used at linkthis with the uniform variant
    if isinstance(sig.result, EnumType) and isinstance(sig_t.result, LinkThis):
        uniform = VariantS(tuple((l, sig.cont) for l in sorted(sig.result.labels)))
        return _subtype_session(uniform, sig_t.cont, assumptions)
    return False


def _compatible_value(t, t_sup, assumptions) -> bool:
    if t == t_sup:
        return True
    if isinstance(t, EnumType) and isinstance(t_sup, EnumType):
        return t.labels <= t_sup.labels
    if isinstance(t, SessionType) and isinstance(t_sup, SessionType):
        return _subtype_session(t, t_sup, assumptions)
    return False


def subtype_value(t: ValueType, t_sup: ValueType) -> bool:
    """Compatibility on value types: equality, enum inclusion, or sub-session."""
    if isinstance(t, SessionType) and isinstance(t_sup, SessionType):
        return subtype_session(t, t_sup)
    return _compatible_value(t, t_sup, None)


def subtype_field(f, f_sup) -> bool:
    """Subtyping on field typings and internal object types."""
    if isinstance(f, RecordF) and isinstance(f_sup, RecordF):
        if set(f.fields) != set(f_sup.fields):
            return False
        return all(subtype_any(t, f_sup.get(name)) for name, t in f.items)
    if isinstance(f, VariantF) and isinstance(f_sup, VariantF):
        if not f.labels <= f_sup.labels:
            return False
        return all(subtype_field(r, f_sup.case(l)) for l, r in f.cases)
    if isinstance(f, ObjectInternal) and isinstance(f_sup, ObjectInternal):
        return f.cls == f_sup.cls and subtype_field(f.typing, f_sup.typing)
    return False


def subtype_any(t, t_sup) -> bool:
    """Dispatch between value types, field typings and internal object types."""
    if isinstance(t, (RecordF, VariantF, ObjectInternal)) or isinstance(
        t_sup, (RecordF, VariantF, ObjectInternal)
    ):
        return subtype_field(t, t_sup)
    return subtype_value(t, t_sup)


def equivalent(x, y) -> bool:
    """Same infinite unfoldings: subtype both ways."""
    return subtype_any(x, y) and subtype_any(y, x)


# ---------------------------------------------------------------------------
# Joins (least upper bounds)
# ---------------------------------------------------------------------------


def join_value(t, u):
    if t == u:
        return t
    if isinstance(t, EnumType) and isinstance(u, EnumType):
        return EnumType(t.labels | u.labels)
    if isinstance(t, SessionType) and isinstance(u, SessionType):
        return join_session(t, u)
    raise JoinUndefined(f"no join of {t!r} and {u!r}")


def meet_value(t, u):
    """Greatest lower bound of parameter types; only enums meet non-trivially."""
    if t == u:
        return t
    if isinstance(t, EnumType) and isinstance(u, EnumType):
        inter = t.labels & u.labels
        if not inter:
            raise JoinUndefined("empty enumeration meet")
        return EnumType(inter)
    raise JoinUndefined(f"no meet of {t!r} and {u!r}")


def join_session(s: SessionType, t: SessionType) -> SessionType:
    """Join of session types: method-set intersection for branches with
    parameter meets and result/continuation joins; label union for variants.
    A branch join has one entry per (method name, met parameter), joined from
    the entries that serve that parameter on each side; a parameter that
    either side cannot serve unambiguously is left out. Each pair joined is
    one state `_J<n>`. Pairs are joined depth first, on a stack of
    generators: entry by entry, the result before the continuation, so the
    join reported undefined is the first one a recursive join meets. The
    result is the first pair's state when a pair leads back to it, else its
    body."""
    pairs = {}  # (s, t) -> its state
    new, met_again = [], set()

    def state(a, b):
        node = pairs.get((a, b))
        if node is None:
            node = pairs[(a, b)] = sx.SessionState(f"_J{len(pairs)}")
            new.append(_join_pair(node, a, b, state))
        else:
            met_again.add(id(node))
        return node

    root, stack = state(s, t), []
    while new or stack:
        if new:
            stack.append(new.pop())
        elif next(stack[-1], True):  # the top pair is defined
            stack.pop()
    return root if id(root) in met_again else root.body


def _join_pair(node, a, b, state):
    """Define node as the join of a and b, pausing after each state asked
    for, which may be a pair met first."""
    su, tu = unfold(a), unfold(b)
    if isinstance(su, Branch) and isinstance(tu, Branch):
        entries = []
        for method, param in _met_parameters(su, tu):
            e, _ = serving_entry(su, method, param)
            e2, _ = serving_entry(tu, method, param)
            if e is not None and e2 is not None:
                entries.append(_join_entry(e, e2, param, state))
                yield
        node.define(Branch(tuple(entries)))
    elif isinstance(su, VariantS) and isinstance(tu, VariantS):
        cases = []
        for l, c in su.cases:
            cases.append((l, state(c, tu.case(l)) if l in tu.labels else c))
            yield
        cases += [(l, c) for l, c in tu.cases if l not in su.labels]
        node.define(VariantS(tuple(cases)))
    else:
        raise JoinUndefined(f"no join of {a!r} and {b!r}")


def _met_parameters(su, tu):
    """The distinct (method name, parameter) pairs at which an entry of one
    branch meets a same-name entry of the other, in order of first meeting."""
    met = {}
    for e in su.entries:
        for e2 in tu.named(e.name):
            try:
                met.setdefault((e.name, meet_value(e.param, e2.param)))
            except JoinUndefined:
                pass
    return list(met)


def _join_entry(e, e2, param, state):
    r1, r2 = e.result, e2.result
    if isinstance(r1, LinkThis) or isinstance(r2, LinkThis):
        # lift an enum-returning side to the uniform variant form
        def lift(sig):
            if isinstance(sig.result, LinkThis):
                return sig.cont
            if isinstance(sig.result, EnumType):
                return VariantS(tuple((l, sig.cont) for l in sorted(sig.result.labels)))
            raise JoinUndefined("cannot join linkthis with a non-enumeration result")

        return MethodSig(e.name, param, sx.LINK_THIS, state(lift(e), lift(e2)))
    return MethodSig(e.name, param, join_value(r1, r2), state(e.cont, e2.cont))


def join_field(f, g):
    """Join of field typings: pointwise on records over the same fields;
    label union on variants with joins on the intersection."""
    if isinstance(f, RecordF) and isinstance(g, RecordF):
        if f.fields != g.fields and set(f.fields) != set(g.fields):
            raise JoinUndefined("records over different field sets")
        return RecordF(tuple((name, join_value(t, g.get(name))) for name, t in f.items))
    if isinstance(f, VariantF) and isinstance(g, VariantF):
        cases = []
        for l, r in f.cases:
            if l in g.labels:
                cases.append((l, join_field(r, g.case(l))))
            else:
                cases.append((l, r))
        for l, r in g.cases:
            if l not in f.labels:
                cases.append((l, r))
        return VariantF(tuple(cases))
    raise JoinUndefined(f"no join of {f!r} and {g!r}")


def join_records(records):
    out = None
    for r in records:
        out = r if out is None else join_field(out, r)
    if out is None:
        raise JoinUndefined("empty join")
    return out

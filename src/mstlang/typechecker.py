"""Static checking: per-class driver (check_class), the consistency algorithm
relating field typings to session types, and the expression checker.

The consistency algorithm carries a set of assumed (field typing, session
type) pairs so recursion through rec types terminates; the expression checker
is syntax-directed, with labels eagerly given type linkthis and a singleton
variant field typing, collapsed by join at the points of use. A tag that is
the operand of a swap, call, self-call or spawn, or a discarded statement,
collapses in `infer_expr` to the enumeration of its labels before the rule
runs; the switch, loop and return rules treat a tag case by case. The same
checker types runtime expressions, whose environment (RuntimeEnv) adds the
in-flight object identifiers and endpoints and the pending calls; the rules
for those forms and for `return` apply only there.

check_class also records, for every branch session type it establishes
consistent, the field typing it was established under; a consistency proof
that fails records nothing. The runtime monitor reuses this table as its
witness when a method call opens an object.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import syntax as sx
from .channels import translate_access
from .subtyping import (
    JoinUndefined,
    equivalent,
    join_field,
    join_records,
    serving_entry,
    subtype_any,
    subtype_value,
)
from .syntax import (
    Branch,
    EnumType,
    LinkField,
    LinkThis,
    NullType,
    ObjectInternal,
    RecordF,
    SessionType,
    VariantF,
    VariantS,
    unfold,
)

TRUE = "TRUE"
FALSE = "FALSE"

# error codes
METHOD_UNDECLARED = "MethodUndeclared"
RESULT_TYPE_MISMATCH = "ResultTypeMismatch"
VARIANT_SHAPE_MISMATCH = "VariantShapeMismatch"
DEPTH_LIMIT = "DepthLimitExceeded"
SWAP_ON_VARIANT = "SwapOnVariantField"
DISCARDED_LINK = "DiscardedLink"
SWITCH_COVERAGE = "SwitchLabelCoverage"
SWITCH_SHAPE = "SwitchShapeMismatch"
NO_SUCH_METHOD = "NoSuchMethod"
AMBIGUOUS_OVERLOAD = "AmbiguousOverload"
LOOP_INVARIANT = "LoopInvariantMismatch"
ANNOTATION_MISMATCH = "AnnotationMismatch"
MISSING_ANNOTATION = "MissingAnnotation"
UNBOUND_VARIABLE = "UnboundVariable"
NO_SUCH_FIELD = "NoSuchField"
UNKNOWN_CLASS = "UnknownClass"
SPAWN_UNAVAILABLE = "SpawnUnavailable"
JOIN_UNDEFINED = "JoinUndefined"
ARGUMENT_MISMATCH = "ArgumentMismatch"
INTERNAL_FORM = "InternalForm"
MAIN_MISSING = "MainMissing"
MAIN_UNAVAILABLE = "MainUnavailable"
CONSISTENCY = "ConsistencyFailure"

# steps one top-level consistency proof may take before DEPTH_LIMIT
MAX_CONSISTENCY_STEPS = 10_000


class CheckError(Exception):
    def __init__(self, code, detail, method=None):
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail
        self.method = method


@dataclass
class ClassVerdict:
    name: str
    ok: bool
    code: str = ""
    detail: str = ""
    method: str = ""

    def line(self) -> str:
        if self.ok:
            return f"CLASS {self.name} OK"
        where = f" in {self.method}" if self.method else ""
        return f"CLASS {self.name} ERR {self.code}{where}: {self.detail}"


@dataclass
class CheckReport:
    classes: list = field(default_factory=list)
    program_errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.program_errors and all(v.ok for v in self.classes)

    def lines(self):
        out = [v.line() for v in self.classes]
        out.extend(f"PROGRAM ERR {e}" for e in self.program_errors)
        return out

    def verdict(self, cls_name) -> ClassVerdict:
        for v in self.classes:
            if v.name == cls_name:
                return v
        raise KeyError(cls_name)


@dataclass
class CheckContext:
    program: sx.Program
    # (class name, canon of branch session) -> list of (session, field typing)
    witnesses: dict = field(default_factory=dict)

    def record_witness(self, cls_name, session, ftyping):
        key = (cls_name, session.canon())
        bucket = self.witnesses.setdefault(key, [])
        if all(f.canon() != ftyping.canon() for _, f in bucket):
            bucket.append((session, ftyping))

    def witnesses_for(self, cls_name, session):
        return self.witnesses.get((cls_name, session.canon()), [])


def resolve_signature(branch: Branch, method: str, arg_type) -> sx.MethodSig:
    """The entry that serves a call of `method` with an argument of
    `arg_type` (`serving_entry`), or a CheckError saying why none does."""
    entry, accepting = serving_entry(branch, method, arg_type)
    if entry is not None:
        return entry
    if accepting:
        raise CheckError(AMBIGUOUS_OVERLOAD, f"ambiguous overloads of {method!r}")
    if not branch.named(method):
        raise CheckError(NO_SUCH_METHOD, f"no method {method!r} in {branch!r}")
    raise CheckError(
        NO_SUCH_METHOD, f"no overload of {method!r} accepts argument type {arg_type!r}"
    )


def _null_entry(session, method):
    """The entry of a class session's initial branch that serves a call of
    `method` with a Null argument, or None."""
    u = unfold(session)
    return serving_entry(u, method, sx.NULL_T)[0] if isinstance(u, Branch) else None


def _collapse(f_typing, method=None):
    """Join the cases of a variant field typing into a single record; a
    failed join is attributed to `method`, when given."""
    if not isinstance(f_typing, VariantF):
        raise CheckError(VARIANT_SHAPE_MISMATCH, "linkthis without a variant field typing")
    try:
        return join_records([r for _, r in f_typing.cases])
    except JoinUndefined as e:
        raise CheckError(JOIN_UNDEFINED, str(e), method=method) from None


def _labels(labels):
    """A label set as a message shows it: sorted, in set notation."""
    return "{" + ", ".join(repr(l) for l in sorted(labels)) + "}"


def _field_type(record: RecordF, f: str):
    if not isinstance(record, RecordF):
        raise CheckError(VARIANT_SHAPE_MISMATCH, "fields are hidden behind a variant typing")
    try:
        return record.get(f)
    except KeyError:
        raise CheckError(NO_SUCH_FIELD, f"no field {f!r}") from None


def _is_variant_session(t) -> bool:
    return isinstance(t, SessionType) and isinstance(unfold(t), VariantS)


def _branch_of(t, what):
    if not isinstance(t, SessionType):
        raise CheckError(NO_SUCH_METHOD, f"{what} has non-object type {t!r}")
    u = unfold(t)
    if not isinstance(u, Branch):
        raise CheckError(NO_SUCH_METHOD, f"{what} has variant type; switch on its tag first")
    return u


def _same_results(ts):
    first = ts[0]
    return all(
        t.canon() == first.canon()
        or (isinstance(t, SessionType) and isinstance(first, SessionType) and equivalent(t, first))
        for t in ts[1:]
    )


@dataclass(frozen=True)
class RuntimeEnv:
    """The value environment of a runtime expression, where a source
    expression has its parameter binding.

    `values` types the in-flight object identifiers and channel endpoints,
    keyed ("obj", oid) or ("chan", c, polarity); they are linear, so a use
    consumes the entry, as for a session-typed parameter. `frames` are the
    pending calls, outermost first; each `return` consumes one. `consistent`
    is the judgement the return rule applies to the callee's fields; it
    raises CheckError when they do not support the continuation. `memo`,
    when given, keeps the judgements made under environments that share
    this `consistent` (`Judgements`). A runtime environment widens loop
    entries: a tracked typing can be finer than a loop's recurrent one,
    since actual values narrow enumerations.
    """

    values: dict
    frames: tuple = ()
    consistent: object = field(default=None, compare=False)
    memo: object = field(default=None, compare=False)

    loop_widenings = 4

    def take(self, key):
        t = self.values.get(key)
        if t is None:
            raise CheckError(INTERNAL_FORM, f"unknown runtime value {key[1:]}")
        rest = dict(self.values)
        del rest[key]
        return t, replace(self, values=rest)

    def key(self) -> int:
        """What a judgement can read of this environment, interned in the
        memo's table: the value types and, per pending call, its field,
        class and continuation. Computed once per environment."""
        k = self.__dict__.get("_key")
        if k is None:
            frames = tuple((fr.field, fr.cls, fr.cont) for fr in self.frames)
            k = self.memo.keys.intern((frozenset(self.values.items()), frames))
            object.__setattr__(self, "_key", k)
        return k


class Judgements:
    """Memo of runtime expression judgements, for environments that share
    one `consistent` judgement (one per monitor). An answer, the result
    triple or the CheckError, is kept under (expression key, class name,
    field typing, environment key); types in a key compare by canonical
    form. `infer_expr` reads it at every compound expression and at every
    suffix of a statement sequence.

    At most `CAP` answers are kept. Past that, new answers are dropped until
    the next check begins (`begin`), which starts over with a fresh key
    table and no answers: never the old table's ints under a new table, nor
    the reverse. A run that makes fresh objects forever would otherwise grow
    the memo on every iteration. The cap is above what one check of a
    10,000-statement body keeps (an answer per suffix), and no run of the
    benchmark's workloads reaches it (the largest keeps about 1,100)."""

    CAP = 16384

    def __init__(self):
        self.keys = sx.ExprKeys()
        self.answers = {}

    def begin(self) -> None:
        """Called before each check, when no key of the current table is
        held: start over once the memo is full."""
        if len(self.answers) >= self.CAP:
            self.keys = sx.ExprKeys()
            self.answers = {}

    def key(self, cls, e, F, V) -> tuple:
        return (self.keys.key(e), cls.name, F, V.key())

    def recall(self, key):
        """The answer kept under `key`, raised when it is an error; None when
        there is none."""
        answer = self.answers.get(key)
        if isinstance(answer, CheckError):
            raise CheckError(answer.code, answer.detail, answer.method)
        return answer

    def keep(self, keys, answer) -> None:
        if len(self.answers) + len(keys) <= self.CAP:
            for key in keys:
                self.answers[key] = answer


class _ResolvedLink(LinkField):
    """Runtime form: a tag just returned by a call whose variant the run has
    resolved. It behaves as ``link f`` but remembers the actual label and the
    full variant, so that parking re-widens the field and switching takes the
    one case."""

    __slots__ = ("label", "variant")

    def __init__(self, field, label, variant):
        super().__init__(field)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "variant", variant)


def infer_expr(ctx: CheckContext, cls: sx.ClassDecl, e: sx.Expr, F, V):
    """The expression checker: returns (type, field typing, value env).

    F is the current field typing of the enclosing object of class `cls`
    (record, or a variant immediately after a label). V is the value
    environment: for a source expression None or (name, type) for the
    method parameter, dropped when a linear parameter is consumed; for a
    runtime expression a RuntimeEnv, with F the typing of the thread's root
    object, which reaches the objects opened by pending calls.

    A statement sequence is walked along its spine, and a form with one
    operand types it here before its rule applies, so neither a long body
    nor a nested argument costs more than one frame per level. Under a
    RuntimeEnv with a memo, each compound expression and each suffix of the
    spine is looked up first; a walk that ends keeps its answer for every
    suffix it passed, so a later check of any of them is one lookup.
    """
    memo = V.memo if isinstance(V, RuntimeEnv) else None
    passed = []  # memo keys of the suffixes this walk has typed
    answer = None
    try:
        while answer is None:
            form = type(e)
            if memo is not None and form not in _LEAF_RULES:
                key = memo.key(cls, e, F, V)
                answer = memo.recall(key)
                if answer is not None:
                    break
                passed.append(key)
            if form is sx.SeqE:
                t, F, V = infer_expr(ctx, cls, e.first, F, V)
                if isinstance(t, LinkField):
                    raise CheckError(DISCARDED_LINK, "discarding a tag bound to a field")
                if isinstance(t, LinkThis):
                    F = _collapse(F)
                e = e.second
            elif form in _RUNTIME_FORMS and not isinstance(V, RuntimeEnv):
                raise CheckError(INTERNAL_FORM, f"internal form {form.__name__} in a source program")
            elif form in _OPERAND_RULES:
                operand = e.expr if form is sx.SwapE else e.arg
                t, f1, v1 = infer_expr(ctx, cls, operand, F, V)
                if isinstance(t, LinkThis):
                    f1, t = _collapse(f1), EnumType(f1.labels)
                answer = _OPERAND_RULES[form](ctx, cls, e, t, f1, v1)
            elif form in _COMPOUND_RULES:
                answer = _COMPOUND_RULES[form](ctx, cls, e, F, V)
            else:
                answer = _LEAF_RULES[form](ctx, e, F, V)
    except CheckError as err:
        if passed:
            memo.keep(passed, err)
        raise
    if passed:
        memo.keep(passed, answer)
    return answer


# -- the leaves: values and object creation -----------------------------------


def _null_rule(ctx, e, F, V):
    return sx.NULL_T, F, V


def _access_rule(ctx, e, F, V):
    proto = ctx.program.access_points.get(e.name)
    if proto is None:
        raise CheckError(UNBOUND_VARIABLE, f"unknown access point {e.name!r}")
    return translate_access(proto), F, V


def _var_rule(ctx, e, F, V):
    if not isinstance(V, tuple) or V[0] != e.name:
        raise CheckError(UNBOUND_VARIABLE, f"unbound variable {e.name!r}")
    name, t = V
    v_out = None if isinstance(t, SessionType) else V
    return t, F, v_out


def _label_rule(ctx, e, F, V):
    if not isinstance(F, RecordF):
        raise CheckError(VARIANT_SHAPE_MISMATCH, "label produced under a variant field typing")
    return sx.LINK_THIS, VariantF(((e.label, F),)), V


def _new_rule(ctx, e, F, V):
    decl = ctx.program.classes.get(e.cls)
    if decl is None:
        raise CheckError(UNKNOWN_CLASS, f"unknown class {e.cls!r}")
    return decl.session, F, V


def _object_id_rule(ctx, e, F, V):
    t, v1 = V.take(("obj", e.oid))
    return t, F, v1


def _endpoint_rule(ctx, e, F, V):
    t, v1 = V.take(("chan", e.chan, e.polarity))
    return t, F, v1


# -- forms with one operand, given the operand's judgement ---------------------


def _swap_rule(ctx, cls, e, t, f1, v1):
    old = _field_type(f1, e.field)
    if _is_variant_session(old):
        raise CheckError(SWAP_ON_VARIANT, f"field {e.field!r} holds a variant type")
    if isinstance(t, _ResolvedLink):
        # parking a resolved tag re-widens its field to the variant
        f1 = f1.set(t.field, t.variant)
        t = LinkField(t.field)
    # a parked tag (link f) leaves the tagged field's variant in place
    return old, f1.set(e.field, t), v1


def _call_rule(ctx, cls, e, t, f1, v1):
    if isinstance(t, LinkField):
        raise CheckError(ARGUMENT_MISMATCH, "a tag bound to a field cannot be an argument")
    branch = _branch_of(_field_type(f1, e.field), f"field {e.field!r}")
    entry = resolve_signature(branch, e.method, t)
    result = LinkField(e.field) if isinstance(entry.result, LinkThis) else entry.result
    return result, f1.set(e.field, entry.cont), v1


def _self_call_rule(ctx, cls, e, t, f1, v1):
    mdef = cls.method(e.method)
    if mdef is None:
        raise CheckError(METHOD_UNDECLARED, f"no method {e.method!r} in class {cls.name}")
    if mdef.annotation is None:
        raise CheckError(
            MISSING_ANNOTATION, f"self-called method {e.method!r} has no req/ens annotation"
        )
    ann = mdef.annotation
    if not subtype_value(t, ann.param_type):
        raise CheckError(ARGUMENT_MISMATCH, f"argument of {e.method!r} mismatches annotation")
    if not subtype_any(f1, ann.req):
        raise CheckError(
            ANNOTATION_MISMATCH, f"fields do not satisfy req of {e.method!r}"
        )
    return ann.result, ann.ens, v1


def _spawn_rule(ctx, cls, e, t, f1, v1):
    if not isinstance(t, NullType):
        raise CheckError(ARGUMENT_MISMATCH, "spawn argument must have type Null")
    decl = ctx.program.classes.get(e.cls)
    if decl is None:
        raise CheckError(UNKNOWN_CLASS, f"unknown class {e.cls!r}")
    entry = _null_entry(decl.session, e.method)
    if entry is None or not isinstance(entry.result, NullType):
        raise CheckError(
            SPAWN_UNAVAILABLE,
            f"Null {e.method}(Null) is not available in {e.cls}.session",
        )
    return sx.NULL_T, f1, v1


# -- forms with several subexpressions ----------------------------------------


def _infer_switch(ctx, cls, e, F, V):
    u, f1, v1 = infer_expr(ctx, cls, e.subject, F, V)
    case_labels = e.labels

    if isinstance(u, EnumType):
        if not u.labels <= case_labels:
            raise CheckError(
                SWITCH_COVERAGE,
                f"subject labels {_labels(u.labels)} exceed switch cases {_labels(case_labels)}",
            )
        cases = [(l, f1) for l, _ in e.cases if l in u.labels]
    elif isinstance(u, _ResolvedLink):
        # the run has picked the case already; its field holds that component
        cases = [(u.label, f1)]
    elif isinstance(u, LinkThis):
        if not isinstance(f1, VariantF):
            raise CheckError(VARIANT_SHAPE_MISMATCH, "linkthis without a variant field typing")
        if not f1.labels <= case_labels:
            raise CheckError(SWITCH_COVERAGE, "variant labels exceed switch cases")
        joined = _collapse(f1)
        cases = [(l, joined) for l, _ in e.cases if l in f1.labels]
    elif isinstance(u, LinkField):
        fld = u.field
        target = _field_type(f1, fld)
        tu = unfold(target) if isinstance(target, SessionType) else None
        if not isinstance(tu, VariantS):
            raise CheckError(SWITCH_SHAPE, f"field {fld!r} is not of variant type")
        if not tu.labels <= case_labels:
            raise CheckError(SWITCH_COVERAGE, "variant labels exceed switch cases")
        cases = [(l, f1.set(fld, tu.case(l))) for l, _ in e.cases if l in tu.labels]
    else:
        raise CheckError(SWITCH_SHAPE, f"cannot switch on type {u!r}")

    results = []
    for l, f_case in cases:
        try:
            body = e.case(l)
        except KeyError:
            raise CheckError(
                SWITCH_COVERAGE, f"switch lacks case {l!r} required by the subject type"
            ) from None
        results.append(infer_expr(ctx, cls, body, f_case, v1))

    types = [t for t, _, _ in results]
    if not _same_results(types):
        raise CheckError(SWITCH_SHAPE, "switch branches have different types")
    v_outs = [v for _, _, v in results]
    if any(v != v_outs[0] for v in v_outs[1:]):
        raise CheckError(SWITCH_SHAPE, "switch branches treat the parameter differently")
    try:
        f_out = results[0][1]
        for _, f, _ in results[1:]:
            f_out = join_field(f_out, f)
    except JoinUndefined as err:
        raise CheckError(JOIN_UNDEFINED, str(err)) from None
    return types[0], f_out, v_outs[0]


def _infer_while(ctx, cls, e, F, V):
    """The loop rule: the body must restore the entry typing. A runtime
    environment first weakens a finer entry typing, joining it with what the
    body leaves, a bounded number of times."""
    widenings = V.loop_widenings if isinstance(V, RuntimeEnv) else 0
    entry = F
    while True:
        u, f1, v1 = infer_expr(ctx, cls, e.cond, entry, V)
        f_body, f_exit = _loop_split(u, f1)
        tb, fb, vb = infer_expr(ctx, cls, e.body, f_body, v1)
        if isinstance(tb, LinkThis):
            fb = _collapse(fb)
            tb = sx.NULL_T
        if not isinstance(tb, NullType):
            raise CheckError(LOOP_INVARIANT, "loop body must have type Null")
        if equivalent(fb, entry) and vb == V:
            return sx.NULL_T, f_exit, v1
        widened = None
        if widenings and subtype_any(entry, fb):
            try:
                widened = join_field(entry, fb)
            except JoinUndefined:
                pass
        if widened is None:
            raise CheckError(
                LOOP_INVARIANT, "loop body does not restore the field typing of entry"
            )
        widenings -= 1
        entry = widened


def _loop_split(u, f1):
    """Field typings for the body and for the exit, given the condition's type."""
    bool_labels = frozenset({TRUE, FALSE})
    if isinstance(u, EnumType):
        if not u.labels <= bool_labels:
            raise CheckError(SWITCH_SHAPE, "loop condition is not boolean")
        return f1, f1
    if isinstance(u, LinkThis):
        if not isinstance(f1, VariantF) or not f1.labels <= bool_labels:
            raise CheckError(SWITCH_SHAPE, "loop condition is not boolean")
        joined = _collapse(f1)
        return joined, joined
    if isinstance(u, LinkField):
        fld = u.field
        target = _field_type(f1, fld)
        tu = unfold(target) if isinstance(target, SessionType) else None
        if not isinstance(tu, VariantS) or tu.labels != bool_labels:
            raise CheckError(
                SWITCH_SHAPE, f"field {fld!r} must have a TRUE/FALSE variant type"
            )
        return f1.set(fld, tu.case(TRUE)), f1.set(fld, tu.case(FALSE))
    raise CheckError(SWITCH_SHAPE, f"cannot loop on condition type {u!r}")


def _infer_return(ctx, cls, e, F, V):
    """Runtime `return e`: e runs in the object the outermost pending call
    opened, a field of the current object. Its fields must support the
    call's continuation, which the field holds afterwards; a returned tag
    selects within a variant continuation."""
    if not V.frames:
        raise CheckError(INTERNAL_FORM, "return without a pending call")
    frame = V.frames[0]
    callee = _field_type(F, frame.field)
    if not isinstance(callee, ObjectInternal):
        raise CheckError(INTERNAL_FORM, f"field {frame.field!r} holds no open object")
    t, fc, V = infer_expr(
        ctx, ctx.program.cls(callee.cls), e.expr, callee.typing, replace(V, frames=V.frames[1:])
    )
    cont_u = unfold(frame.cont)
    if isinstance(t, LinkThis):
        if not isinstance(fc, VariantF):
            raise CheckError(VARIANT_SHAPE_MISMATCH, "tag without a variant field typing")
        if not isinstance(cont_u, VariantS):
            # an enumeration result: the tag is a plain value, fields joined
            V.consistent(callee.cls, frame.cont, _collapse(fc))
            return EnumType(fc.labels), F.set(frame.field, frame.cont), V
        for l, rec in fc.cases:
            if l not in cont_u.labels:
                raise CheckError(VARIANT_SHAPE_MISMATCH, f"tag {l} outside the variant")
            V.consistent(callee.cls, cont_u.case(l), rec)
        if len(fc.cases) == 1:
            # a literal tag: the run has resolved the variant already
            ((label, _),) = fc.cases
            return (
                _ResolvedLink(frame.field, label, frame.cont),
                F.set(frame.field, cont_u.case(label)),
                V,
            )
        return LinkField(frame.field), F.set(frame.field, frame.cont), V
    if isinstance(t, LinkField):
        raise CheckError(INTERNAL_FORM, "returning a tag bound to a field")
    if not isinstance(fc, RecordF):
        raise CheckError(VARIANT_SHAPE_MISMATCH, "returning with variant fields")
    if isinstance(t, EnumType) and isinstance(cont_u, VariantS):
        # an enumeration-typed body before a variant state: each label
        # leads to the same fields (the uniform variant)
        if not t.labels <= cont_u.labels:
            raise CheckError(VARIANT_SHAPE_MISMATCH, "result labels outside the variant")
        for l in sorted(t.labels):
            V.consistent(callee.cls, cont_u.case(l), fc)
        return LinkField(frame.field), F.set(frame.field, frame.cont), V
    V.consistent(callee.cls, frame.cont, fc)
    return t, F.set(frame.field, frame.cont), V


_LEAF_RULES = {
    sx.NullE: _null_rule,
    sx.AccessE: _access_rule,
    sx.VarE: _var_rule,
    sx.LabelE: _label_rule,
    sx.NewE: _new_rule,
    sx.ObjIdE: _object_id_rule,
    sx.EndpointE: _endpoint_rule,
}
_OPERAND_RULES = {
    sx.SwapE: _swap_rule,
    sx.CallE: _call_rule,
    sx.SelfCallE: _self_call_rule,
    sx.SpawnE: _spawn_rule,
}
_COMPOUND_RULES = {sx.SwitchE: _infer_switch, sx.WhileE: _infer_while, sx.ReturnE: _infer_return}
# forms that occur in runtime expressions only
_RUNTIME_FORMS = frozenset({sx.ObjIdE, sx.EndpointE, sx.ReturnE})


# ---------------------------------------------------------------------------
# Consistency (field typing vs session type) and the class driver
# ---------------------------------------------------------------------------


def consistency(
    ctx: CheckContext, cls: sx.ClassDecl, session, ftyping, delta=None, _steps=None, _found=None
):
    """Establish that an object of this class with fields `ftyping` can be
    viewed as `session`; returns the extended assumption set. The branch
    witnesses a top-level call establishes enter `ctx.witnesses` only when
    the whole call succeeds, so a failed attempt leaves the table as it was."""
    if delta is None:
        delta = set()
    if _steps is None:
        _steps = [0]
    top = _found is None
    if top:
        _found = []
    key = (ftyping.canon(), session.canon())
    if key in delta:
        return delta
    _steps[0] += 1
    if _steps[0] > MAX_CONSISTENCY_STEPS:
        raise CheckError(DEPTH_LIMIT, f"consistency exceeded {MAX_CONSISTENCY_STEPS} steps")

    if isinstance(session, sx.RecS):
        delta.add(key)
        unfolded = sx.subst_session(session.body, session.var, session)
        consistency(ctx, cls, unfolded, ftyping, delta, _steps, _found)
    elif isinstance(session, Branch):
        if not isinstance(ftyping, RecordF):
            raise CheckError(
                VARIANT_SHAPE_MISMATCH, f"state {session!r} needs a record field typing"
            )
        _found.append((session, ftyping))
        for entry in session.entries:
            mdef = cls.method(entry.name)
            if mdef is None:
                raise CheckError(
                    METHOD_UNDECLARED,
                    f"session mentions {entry.name!r} but the class does not define it",
                    method=entry.name,
                )
            try:
                t, f_out, _ = infer_expr(
                    ctx, cls, mdef.body, ftyping, (mdef.param, entry.param)
                )
            except CheckError as err:
                if err.method is None:
                    err.method = entry.name
                raise
            _continue_consistency(ctx, cls, entry, t, f_out, delta, _steps, _found)
    elif isinstance(session, VariantS):
        if not isinstance(ftyping, VariantF):
            raise CheckError(
                VARIANT_SHAPE_MISMATCH, f"variant state {session!r} needs a variant field typing"
            )
        if not ftyping.labels <= session.labels:
            raise CheckError(
                VARIANT_SHAPE_MISMATCH,
                f"field typing labels {_labels(ftyping.labels)} exceed state labels",
            )
        for l, rec in ftyping.cases:
            consistency(ctx, cls, session.case(l), rec, delta, _steps, _found)
    else:
        raise CheckError(CONSISTENCY, f"cannot relate field typing to {session!r}")
    if top:
        for branch, f in _found:
            ctx.record_witness(cls.name, branch, f)
    return delta


def _continue_consistency(ctx, cls, entry, t, f_out, delta, _steps, _found):
    name = entry.name
    if _result_subtype(t, entry.result):
        consistency(ctx, cls, entry.cont, f_out, delta, _steps, _found)
        return
    if isinstance(t, EnumType) and isinstance(entry.result, LinkThis):
        if not isinstance(f_out, RecordF):
            raise CheckError(VARIANT_SHAPE_MISMATCH, "enumeration with variant fields", method=name)
        uniform = VariantF(tuple((l, f_out) for l in sorted(t.labels)))
        consistency(ctx, cls, entry.cont, uniform, delta, _steps, _found)
        return
    if isinstance(t, LinkThis) and isinstance(entry.result, EnumType):
        if not isinstance(f_out, VariantF) or not f_out.labels <= entry.result.labels:
            raise CheckError(
                RESULT_TYPE_MISMATCH,
                f"body of {name!r} yields labels outside {entry.result!r}",
                method=name,
            )
        consistency(ctx, cls, entry.cont, _collapse(f_out, name), delta, _steps, _found)
        return
    raise CheckError(
        RESULT_TYPE_MISMATCH,
        f"body of {name!r} has type {t!r}, declared {entry.result!r}",
        method=name,
    )


def _result_subtype(t, declared):
    if isinstance(t, LinkThis):
        return isinstance(declared, LinkThis)
    if isinstance(t, LinkField):
        return False
    return subtype_value(t, declared)


def check_class(ctx: CheckContext, cls: sx.ClassDecl) -> ClassVerdict:
    try:
        consistency(ctx, cls, cls.session, cls.initial_field_typing())
        for mdef in cls.methods.values():
            if mdef.annotation is not None:
                _check_annotated(ctx, cls, mdef)
        return ClassVerdict(cls.name, True)
    except CheckError as err:
        return ClassVerdict(cls.name, False, err.code, err.detail, err.method or "")


def _check_annotated(ctx, cls, mdef):
    ann = mdef.annotation
    try:
        t, f_out, _ = infer_expr(ctx, cls, mdef.body, ann.req, (mdef.param, ann.param_type))
    except CheckError as err:
        if err.method is None:
            err.method = mdef.name
        raise
    if _result_subtype(t, ann.result):
        if subtype_any(f_out, ann.ens):
            return
    elif isinstance(t, LinkThis) and isinstance(ann.result, EnumType):
        joined = _collapse(f_out, mdef.name) if isinstance(f_out, VariantF) else None
        if (
            joined is not None
            and f_out.labels <= ann.result.labels
            and subtype_any(joined, ann.ens)
        ):
            return
    raise CheckError(
        ANNOTATION_MISMATCH,
        f"body of {mdef.name!r} does not meet its req/ens annotation",
        method=mdef.name,
    )


def check_program(program: sx.Program):
    """Check every class; validate the main designation. Returns the report
    and the context (whose witness table the monitor consumes)."""
    ctx = CheckContext(program)
    report = CheckReport()
    for cls in program.classes.values():
        report.classes.append(check_class(ctx, cls))
    if program.main is None:
        report.program_errors.append(f"{MAIN_MISSING}: no main designation")
    else:
        cname, mname = program.main
        decl = program.classes.get(cname)
        if decl is None:
            report.program_errors.append(f"{MAIN_UNAVAILABLE}: unknown main class {cname!r}")
        elif _null_entry(decl.session, mname) is None or decl.method(mname) is None:
            report.program_errors.append(
                f"{MAIN_UNAVAILABLE}: {mname!r} is not immediately available on {cname!r}"
            )
    return report, ctx

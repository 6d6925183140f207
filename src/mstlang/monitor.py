"""Runtime monitoring: maintains typing environments across reductions,
re-checks the reached states against them, and checks that each object's
calls and returned labels are a path in its class session's transition
system.

Per thread the monitor keeps an environment (`ThreadEnv`) mapping the
in-flight object identifiers and endpoints to types, and the objects
currently executing a method, the root and the callee of each pending call,
to their internal types C[F]. The paper nests each callee's C[F] in its
caller's, up to the root; the monitor keeps one per pending call beside it,
as the interpreter keeps one path cell per call (`syntax.Path`), so
tracking a step replaces the current object's C[F] and no caller's, and a
step costs the same at any call depth. A global channel
environment maps endpoints to channel session types, advanced in lockstep on
both sides of every communication. Protocol progress lives in one global map
from object identifiers (configuration-unique) to the session state the
object's calls and returned labels have reached, stepped through `lts_step`
as each call (with its parameter type, so never forking over overloads) or
labelled return happens; entries move (renamed) with object transfer. The
calls themselves are not kept. One handler per reduction rule (`_track_*`)
advances everything its rule changes: the environments, the channel types
and the reached states.

`start` checks every thread and channel of the initial configuration; after
each step only the threads that took part in it (and a spawned one) and the
channel it communicated on are re-checked. That is exact, not a sample: an
untouched thread's heap, path, expression and environment are unchanged, and
the channel types and reached states it depends on change only for the
step's channel, whose two ends the linearity check pins to the two touched
threads, and for objects of touched threads. Its verdict would repeat the one
it already passed.

What the checks read of a heap is kept per thread, in a `HeapSummary`: how
many fields hold each object id, which gives the roots and the dangling ids
of an incomplete heap, and how many hold each endpoint. One owner map gives
the thread whose heap holds each object, and per thread an endpoint set
joins the heap's endpoints with the expression's. A touched thread's summary
moves to its new heap through the records that differ from the heap it saw
last (`Heap.changes`), compared by identity: when the two heaps share their
base, only their update maps, about sqrt(n) records; after a fold of the
update map, a split, a merge or a renaming, every record once; nothing when
the step kept the heap. A thread's endpoint set is rebuilt only when its
expression's endpoints are another set or its heap's endpoint counts moved.
An object new to a thread is looked up in the owner map and an endpoint new
to a thread in the other threads' sets. Trace conformance looks up only the
objects new to a heap (`check_traces` says why that suffices), and proves a
root entry's conformance again only where its tracked type or its reached
state is not the object it was proved at. So a step costs what it changed,
not the size of the heap. Only when one of these finds a possible
fault, or when every thread is checked (`start`, which also rebuilds every
summary from scratch), does a check look at every object and endpoint, in
thread and heap order, so the fault reported is the one a full check finds
first. The endpoint sets are also the one record of which thread holds an
endpoint: a duality fault names the thread whose set holds the channel's +
end. Duality is checked after the cross-thread check has found each endpoint
in at most one thread.

A thread's expression is re-checked by the static expression checker,
`typechecker.infer_expr`, under a runtime environment (`RuntimeEnv`) built
from the tracked one: checking starts at the thread's root object, whose
internal type reaches the objects opened by pending calls; each `return`
consumes the outermost pending call; the environment's entries are the
in-flight object identifiers and endpoints, consumed on use. This module
holds no expression typing rules of its own.

A step re-types only what replaced its redex, as the replacement lemma of
subject reduction allows (Wright and Felleisen, 1994). For each frame of a
thread's evaluation context (`syntax.focus`) the monitor keeps a record
(`KeptFrame`) under the frame cell's identity: the judgement its hole was
typed to, for a return also its pending call and caller's fields, and the
endpoints of the frame and of every frame outward of it. After a step the
replacement is typed in its frames, which are then left outward
(`typechecker.leave_frame`, the part of each rule after its hole) only while
a hole's judgement differs from the one kept: a frame whose hole keeps its
judgement keeps its own (Reps, Teitelbaum and Demers, 1983). A self-call
whose body meets its annotation stops at once, so a step's cost does not
grow with the depth of its context. The endpoints of a thread's expression
are its redex's and its innermost frame's, so the expression itself is never
rebuilt. The frames inside a replacement are judged when a later step needs
them. Heap agreement is re-checked likewise, for what the step changed
(`_check_heap_agreement`): the changed fields of an open object the step
retyped or whose record it changed (the current object; its caller after a
return), and the environment entries whose type, record, holders or
reached state changed. A call's callee is matched against the heap as it
is opened, and its first check finds it as it agreed then.

Those judgements are memoised (`Judgements`); a full memo starts over with a
fresh table between two steps. An answer, the result triple or the
CheckError, is kept under (expression key, class name, field typing,
environment key), and a frame's judgement under its hole's
(`Judgements.frame_key`). The expression key is a hash-consed int from the
monitor's own table, equal exactly for structurally equal expressions, so a
loop's next iteration or the body of a repeated call is one lookup; the same
table keeps each key's endpoint set. The environment key is built from the
value types and, per pending call, its field, class and continuation. A
type is its own key, as in the package's other tables (a detail message can
show which of two equal types was judged first). A hit is exact:
`infer_expr` reads nothing else but the program and the return rule's
consistency judgement, `_consistency_holds`, whose cache never evicts, so
once asked about some arguments it answers the same for the monitor's
lifetime. A walk along a statement sequence keeps its answer at every
suffix, so the statement after the one a step finished is one lookup, and a
step's cost does not grow with the remaining body either.

Monitoring always starts from the initial configuration, whose current path
is a bare root, so every later path extends it and trace conformance is
meaningful at each step; monitoring a run from an arbitrary intermediate
state is not supported. State checking validates the heap against the
*tracked* environments; re-deriving an environment from the heap alone
(searching over the orders in which objects could have been added) is a
possible extension, not attempted here.
"""

from __future__ import annotations

from . import syntax as sx
from .channels import dual, subtype_channel, translate_access, translate_channel
from .interpreter import RuntimeFault, StepEvent
from .interpreter import decompose  # noqa: F401 -- a name benchmarks/tracing.py wraps
from .render import render_type
from .subtyping import equivalent, serving_entry, subtype_any, subtype_session, subtype_value
from .syntax import (
    Branch,
    EnumType,
    LinkField,
    NullType,
    ObjectInternal,
    Path,
    RecordF,
    SessionType,
    VariantS,
    unfold,
)
from .typechecker import (
    CONSISTENCY,
    INTERNAL_FORM,
    CheckContext,
    CheckError,
    Judgements,
    RuntimeEnv,
    consistency,
    enter_frame,
    infer_expr,
    leave_frame,
    resolve_signature,
    same_judgement,
)


class MonitorViolation(Exception):
    def __init__(self, kind, step, thread, detail):
        super().__init__(f"VIOLATION {kind} step={step} thread=t{thread} {detail}")
        self.kind = kind
        self.step = step
        self.thread = thread
        self.detail = detail


TRACKING_FAULT = "TrackingFault"
STATE_ILL_TYPED = "StateIllTyped"
TRACE_INVALID = "TraceInvalid"
LINEARITY = "LinearityViolation"
DUALITY = "DualityViolation"


# ---------------------------------------------------------------------------
# Call traces and the LTS on session types
# ---------------------------------------------------------------------------


class TraceCall(sx.Struct):
    __slots__ = ("method", "param")

    def __init__(self, method: str, param=None):
        self.method = method
        self.param = param  # the parameter type of the entry the call resolved to, if known

    def __str__(self):
        return self.method


class TraceLabel(sx.Struct):
    __slots__ = ("label",)

    def __init__(self, label: str):
        self.label = label

    def __str__(self):
        return self.label


class TypeErrorTransition(Exception):
    pass


def _short(t, width=72):
    text = render_type(t)
    return text if len(text) <= width else text[: width - 3] + "..."


def lts_step(s: SessionType, action) -> tuple:
    """Successor states of one trace element. A call with a recorded
    parameter type steps through the entry that serves it (`serving_entry`,
    as sub-session matching does); without one, as for the words of a
    written trace, it forks over same-name overloads. A label resolves a
    variant and is the identity on any other type."""
    u = unfold(s)
    if isinstance(action, TraceCall):
        if not isinstance(u, Branch):
            raise TypeErrorTransition(f"call {action.method!r} on {_short(s)}")
        if action.param is None:
            named = u.named(action.method)
        else:
            entry, _ = serving_entry(u, action.method, action.param)
            named = () if entry is None else (entry,)
        if not named:
            raise TypeErrorTransition(f"call {action.method!r} on {_short(u)}")
        return tuple(e.cont for e in named)
    if isinstance(u, VariantS):
        if action.label not in u.labels:
            raise TypeErrorTransition(f"label {action.label!r} on {_short(u)}")
        return (u.case(action.label),)
    return (s,)


def _fire(states, action) -> tuple:
    """Successor states of one trace element from a set of states, each once,
    first reached first; drops states that cannot fire, raises if none can."""
    nxt = {}
    last_err = None
    for st in states:
        try:
            nxt.update(dict.fromkeys(lts_step(st, action)))
        except TypeErrorTransition as e:
            last_err = e
    if not nxt:
        raise last_err or TypeErrorTransition(f"{action} from no reachable state")
    return tuple(nxt)


def replay_trace(session: SessionType, trace) -> tuple:
    """All states reachable after the trace; raises at the first element
    that no current state can fire."""
    states = (session,)
    for pos, action in enumerate(trace, start=1):
        try:
            states = _fire(states, action)
        except TypeErrorTransition as e:
            raise TypeErrorTransition(f"at position {pos}: {e}") from None
    return states


def parse_trace(text: str) -> tuple:
    """Whitespace-separated `m l m l ...` words: lowercase-initial words are
    method calls, uppercase-initial words are labels."""
    out = []
    for word in text.split():
        if word[0].isupper():
            out.append(TraceLabel(word))
        else:
            out.append(TraceCall(word))
    return tuple(out)


# ---------------------------------------------------------------------------
# Environment plumbing
# ---------------------------------------------------------------------------


class Frame(sx.Struct):
    __slots__ = ("field", "cls", "cont")
    __hash__ = None

    def __init__(self, field: str, cls: str, cont: SessionType):
        self.field, self.cls = field, cls
        self.cont = cont  # continuation recorded at the call


class ActiveLink(sx.Struct):
    """An in-flight label that is the tag of a field's variant type."""

    __slots__ = ("path", "field", "variant")
    __hash__ = None

    def __init__(self, path: Path, field: str, variant: SessionType):
        self.path, self.field = path, field
        self.variant = variant  # the full variant, for re-widening on park


class OpenObject:
    """An object a thread has open: its root, or the callee of a pending
    call. `type` is its tracked C[F]; `agreed` is the (field typing, its
    types in the record's order, heap record) at which heap agreement last
    found it to agree, None until then."""

    __slots__ = ("oid", "type", "agreed")

    def __init__(self, oid, t: ObjectInternal, agreed=None):
        self.oid = oid
        self.type = t
        self.agreed = agreed


class ThreadEnv:
    """A thread's tracked environment. `gamma` types the in-flight object
    identifiers and endpoints; `frames` are the pending calls, outermost
    first; `opened` are the open objects, one per depth: the root, then the
    callee of each pending call. A caller's field typing holds, at the
    field its call opened, the callee's C[F] as the call opened it; the
    callee's current one is its own entry (`Monitor._typing_at` puts it in
    place). So tracking a step retypes one entry (`retype`). `changed` is
    the outermost depth retyped since the thread was last checked,
    `len(opened)` when none."""

    __slots__ = ("gamma", "frames", "opened", "depths", "active_link", "changed")

    def __init__(self, oid, root: ObjectInternal):
        self.gamma = {}  # ("obj", oid)/("chan", c, p) -> type
        self.frames = []
        self.opened = [OpenObject(oid, root)]
        self.depths = {oid: 0}  # open object id -> its depth
        self.active_link = None  # ActiveLink | None
        self.changed = 0

    def retype(self, typing, d=-1) -> None:
        """Give the open object at depth d, the current one by default, the
        field typing `typing`."""
        obj = self.opened[d]
        obj.type = ObjectInternal(obj.type.cls, typing)
        self.changed = min(self.changed, d % len(self.opened))

    def push(self, call: Frame, oid, t: ObjectInternal, agreed) -> None:
        """Open the callee `oid` at C[F] `t` for the pending call `call`;
        `agreed` is what it was found to agree at (`OpenObject`)."""
        self.frames.append(call)
        self.depths[oid] = len(self.opened)
        self.opened.append(OpenObject(oid, t, agreed))

    def pop(self) -> OpenObject:
        """Close the current object, the callee of the innermost call."""
        self.frames.pop()
        obj = self.opened.pop()
        del self.depths[obj.oid]
        return obj


def _field_types(ftyping, rec):
    """The types a record field typing gives the record's fields, in the
    record's order; None when it is no record typing of exactly those
    fields."""
    if not isinstance(ftyping, RecordF):
        return None
    types = [t for (name, t), (f, _) in zip(ftyping.items, rec.fields) if name == f]
    if len(types) == len(rec.fields) == len(ftyping.items):  # both in declaration order
        return types
    names = rec.field_names
    if set(names) == set(ftyping.fields):
        return [ftyping.get(name) for name in names]
    return None


def _current(env: ThreadEnv, path: Path) -> RecordF:
    """The field typing of the thread's current object, at `path`."""
    typing = env.opened[-1].type.typing
    if len(env.opened) != path.depth + 1 or not isinstance(typing, RecordF):
        raise RuntimeFault(f"no open object at {path}")
    return typing


_NO_IDS = frozenset()


class HeapSummary:
    """What the monitor reads of one thread's heap, kept for the heap it saw
    last (`heap`): how many fields hold each object id (`refs`) and each
    endpoint (`eps`), the ids some field holds that are not in the heap
    (`dangling`), and, of the move to that heap, the ids whose record or
    count of holders changed (`touched`) and whether any endpoint's count
    did (`eps_moved`)."""

    __slots__ = ("heap", "refs", "eps", "dangling", "touched", "eps_moved")

    def __init__(self):
        self.heap = None
        self.refs = {}
        self.eps = {}
        self.dangling = set()
        self.touched = _NO_IDS
        self.eps_moved = False

    def update(self, heap) -> list:
        """Moves the summary to `heap` through the records that differ from
        the heap it saw last; returns them, as `Heap.changes` gives them.
        The very heap it saw last changes nothing."""
        self.eps_moved = False
        if heap is self.heap:
            self.touched = _NO_IDS
            return []
        changes = heap.changes(self.heap)
        self.heap = heap
        touched = [oid for oid, _, _ in changes]
        for _, old, new in changes:
            if old is not None:
                self._count(old, -1, touched)
            if new is not None:
                self._count(new, 1, touched)
        self.touched = set(touched)
        for oid in self.touched:
            if oid in self.refs and not heap.has(oid):
                self.dangling.add(oid)
            else:
                self.dangling.discard(oid)
        return changes

    def _count(self, rec, delta, touched):
        for _, v in rec.fields:
            if isinstance(v, sx.ObjIdE):
                counts, key = self.refs, v.oid
                touched.append(key)
            elif isinstance(v, sx.EndpointE):
                counts, key = self.eps, (v.chan, v.polarity)
                self.eps_moved = True
            else:
                continue
            n = counts.get(key, 0) + delta
            if n:
                counts[key] = n
            else:
                del counts[key]

    def is_root(self, oid) -> bool:
        return self.heap.has(oid) and oid not in self.refs


class KeptFrame:
    """What the monitor keeps of one context frame of a thread's focus, a
    cell `(outer, node)` of `syntax.focus`, held so that its id, the key it
    is kept under, stays its own.

    `eps` are the endpoints of this frame and of every frame outward of it,
    hole excluded; `calls` counts the returns among them, the pending calls
    its hole runs under, and `opener` is the innermost return frame outward
    of it. `hole` is the judgement its hole was last typed to, None until
    it is judged; a return frame also keeps what its rule reads besides
    that (`reads`): its pending call and the caller's field typing."""

    __slots__ = ("cell", "outer", "eps", "calls", "returns", "opener", "hole", "reads")

    def __init__(self, cell, outer, keys):
        node = cell[1]
        eps = _NO_ENDPOINTS
        if outer is not None:
            eps = outer.eps
            self.calls = outer.calls
            self.opener = outer if outer.returns else outer.opener
        else:
            self.calls, self.opener = 0, None
        for x in sx.frame_rest(node):
            sub = keys.endpoints(x)
            if sub:
                eps = eps | sub
        self.cell = cell
        self.outer = outer
        self.eps = eps
        self.returns = type(node) is sx.ReturnE
        self.calls += self.returns
        self.hole = self.reads = None


_NO_ENDPOINTS = frozenset()


def _same_but(a, b, f) -> bool:
    """Are two record field typings alike in every field but f?"""
    if a is b:
        return True
    if not isinstance(a, RecordF) or not isinstance(b, RecordF) or len(a.items) != len(b.items):
        return False
    return all(
        n == m and (n == f or s is t or s == t) for (n, s), (m, t) in zip(a.items, b.items)
    )


# ---------------------------------------------------------------------------
# Monitor
# ---------------------------------------------------------------------------


class Monitor:
    """Tracks environments and reached session states; call on_step after
    every reduction."""

    def __init__(self, program, ctx: CheckContext, verify_states=True, verify_traces=True):
        self.program = program
        self.ctx = ctx
        self.verify_states = verify_states
        self.verify_traces = verify_traces
        self.envs = []  # ThreadEnv per thread
        self.theta = {}  # (chan, polarity) -> ChannelType
        self.step_no = 0
        self._consistency_cache = {}
        self._judgements = Judgements()  # expression judgements, up to its cap
        self._reached = {}  # oid -> session state its calls reached; None when stuck
        self._heaps = {}  # thread -> HeapSummary of its heap, as of its last step
        self._owner = {}  # oid -> the thread whose heap holds it, likewise
        self._eps = {}  # thread -> endpoints in its heap and expression, likewise
        self._entered = []  # (thread, oid) for each object new to a heap at this step
        self._contexts = {}  # thread -> (KeptFrame by cell id, innermost KeptFrame), likewise
        self._values = {}  # thread -> its in-flight values, pending calls and RuntimeEnvs, likewise
        self._agreed = {}  # thread -> environment entry -> (type, reached state) it agreed at
        self._conformed = {}  # thread -> root entry -> (type, reached state) it last conformed at
        self._expr_eps = {}  # thread -> the endpoints of its expression, as of its last step
        self.outward_walks = 0  # steps whose re-check re-typed a kept frame

    # -- setup ----------------------------------------------------------------

    def start(self, conf):
        self.envs, self._reached = [], {}
        self._open_thread("top", *self.program.main)
        self._recheck(conf)

    def _open_thread(self, oid, cls, method):
        """A new thread's environment: its root, a fresh object of `cls`,
        is open in `method`, called with null."""
        decl = self.program.cls(cls)
        self.envs.append(ThreadEnv(oid, ObjectInternal(cls, decl.initial_field_typing())))
        try:
            self._reached[oid] = lts_step(decl.session, TraceCall(method, sx.NULL_T))[0]
        except TypeErrorTransition:
            self._reached[oid] = None  # reported by the trace check

    def _recheck(self, conf, threads=None, chans=None):
        """Check the given threads (ascending) and channels; every one, with
        the heap summaries rebuilt from scratch, when None."""
        if self.verify_states:
            self.check_state(conf, threads, chans)
        else:
            self._keep_shape(conf, threads)  # read by the third-party check
        if self.verify_traces:
            self.check_traces(conf, threads)
        self._entered.clear()
        self._judgements.begin()  # no key is held between steps

    # -- helpers ---------------------------------------------------------------

    def fault(self, kind, thread, detail):
        raise MonitorViolation(kind, self.step_no, thread, detail)

    def _advance(self, thread, oid, action):
        state = self._reached.get(oid)
        try:
            state = None if state is None else lts_step(state, action)[0]
        except TypeErrorTransition:
            state = None
        self._reached[oid] = state
        if state is None and self.verify_traces:
            self.fault(TRACE_INVALID, thread, f"object {oid}: trace cannot fire {action}")

    def _reached_state(self, oid):
        state = self._reached.get(oid)
        if state is None:
            stuck = oid in self._reached
            why = "its calls reach no session state" if stuck else "no record of its calls"
            raise TypeErrorTransition(why)
        return state

    def _consistency_holds(self, cls_name, session, ftyping):
        """Does `ftyping` support viewing the object as `session`? Raises
        CheckError when not.

        A runtime field typing can be strictly finer than anything the static
        run visited (actual labels narrow enumerations), and the consistency
        algorithm is not complete under such refinement (its loop clause
        demands an exact recurrence). Soundness of subtyping for fields says
        a refinement of a consistent typing is consistent, so accept through
        any recorded witness the runtime typing refines, and only otherwise
        run the algorithm directly.
        """
        key = (cls_name, session, ftyping)
        hit = self._consistency_cache.get(key)
        if hit is None:
            witnesses = self.ctx.witnesses_for(cls_name, unfold(session))
            if any(subtype_any(ftyping, w) for _, w in witnesses):
                hit = True
            else:
                try:
                    consistency(self.ctx, self.program.cls(cls_name), session, ftyping)
                    hit = True
                except CheckError as e:
                    hit = str(e)
            self._consistency_cache[key] = hit
        if hit is not True:
            raise CheckError(CONSISTENCY, hit)

    def _consistent(self, cls_name, session, ftyping, thread):
        try:
            self._consistency_holds(cls_name, session, ftyping)
        except CheckError as e:
            self.fault(
                TRACKING_FAULT,
                thread,
                f"fields of {cls_name} not consistent with {render_type(session)}: {e.detail}",
            )

    def value_type(self, env: ThreadEnv, v, thread, consume=False):
        """Type of an in-flight value under the tracked environment."""
        if isinstance(v, sx.NullE):
            return sx.NULL_T
        if isinstance(v, sx.AccessE):
            proto = self.program.access_points.get(v.name)
            if proto is None:
                self.fault(TRACKING_FAULT, thread, f"unknown access point {v.name!r}")
            return translate_access(proto)
        if isinstance(v, sx.ObjIdE):
            key = ("obj", v.oid)
            if key not in env.gamma:
                self.fault(TRACKING_FAULT, thread, f"value {v.oid} missing from the environment")
            return env.gamma.pop(key) if consume else env.gamma[key]
        if isinstance(v, sx.EndpointE):
            key = ("chan", v.chan, v.polarity)
            if key not in env.gamma:
                self.fault(TRACKING_FAULT, thread, f"endpoint {v.chan}{v.polarity} missing")
            return env.gamma.pop(key) if consume else env.gamma[key]
        if isinstance(v, sx.LabelE):
            return EnumType(frozenset({v.label}))
        self.fault(TRACKING_FAULT, thread, f"unexpected value {v!r}")

    # -- the per-rule environment constructions --------------------------------

    def on_step(self, step_no, before, ev: StepEvent, after):
        self.step_no = step_no
        self.track(before, ev, after)
        spawned = (ev.new_thread,) if ev.rule == "Spawn" else ()
        self._recheck(after, sorted(ev.threads + spawned), (ev.chan,) if ev.chan else ())

    def track(self, before, ev: StepEvent, after):
        """Advance the environments, channel types and reached states over
        one step, each rule in its own handler."""
        rule = ev.rule
        if rule == "Switch":
            self.envs[ev.threads[0]].active_link = None  # a switched tag was resolved earlier
        elif rule not in ("While", "SelfCall"):
            getattr(self, f"_track_{rule.lower()}")(before, ev, after)

    def _track_new(self, before, ev, after):
        session = self.program.cls(ev.cls).session
        self.envs[ev.threads[0]].gamma[("obj", ev.oid)] = session
        self._reached[ev.oid] = session

    def _track_seq(self, before, ev, after):
        i = ev.threads[0]
        env = self.envs[i]
        v = ev.value
        if isinstance(v, sx.ObjIdE):
            env.gamma.pop(("obj", v.oid), None)
        elif isinstance(v, sx.EndpointE):
            env.gamma.pop(("chan", v.chan, v.polarity), None)
        elif isinstance(v, sx.LabelE) and env.active_link is not None:
            self.fault(TRACKING_FAULT, i, "a tag bound to a field was discarded")

    def _track_swap(self, before, ev, after):
        i = ev.threads[0]
        env = self.envs[i]
        path = before.threads[i].path
        f = ev.field
        F = _current(env, path)
        old_type = F.get(f)

        # type of the incoming value
        v_in = ev.value
        if isinstance(v_in, sx.LabelE) and env.active_link is not None:
            link = env.active_link
            if link.path != path:
                self.fault(TRACKING_FAULT, i, "tag parked outside its own object")
            t_in = LinkField(link.field)
            F = F.set(link.field, link.variant)
            env.active_link = None
        else:
            t_in = self.value_type(env, v_in, i, consume=True)

        # the outgoing value re-enters the environment
        v_out = ev.out_value
        if isinstance(v_out, sx.ObjIdE):
            env.gamma[("obj", v_out.oid)] = old_type
        elif isinstance(v_out, sx.EndpointE):
            env.gamma[("chan", v_out.chan, v_out.polarity)] = old_type
        elif isinstance(v_out, sx.LabelE) and isinstance(old_type, LinkField):
            target = F.get(old_type.field)
            tu = unfold(target) if isinstance(target, SessionType) else None
            if not isinstance(tu, VariantS) or v_out.label not in tu.labels:
                self.fault(TRACKING_FAULT, i, f"tag {v_out.label} does not match field {old_type.field}")
            F = F.set(old_type.field, tu.case(v_out.label))
            env.active_link = ActiveLink(path, old_type.field, target)

        env.retype(F.set(f, t_in))

    def _track_call(self, before, ev, after):
        i = ev.threads[0]
        env = self.envs[i]
        th = before.threads[i]
        f = ev.field
        F = _current(env, th.path)
        t_field = F.get(f)
        if not isinstance(t_field, SessionType):
            self.fault(TRACKING_FAULT, i, f"call on field {f!r} of non-session type")
        branch = unfold(t_field)
        if not isinstance(branch, Branch):
            self.fault(TRACKING_FAULT, i, f"call on field {f!r} in a variant state")
        if isinstance(ev.arg, sx.LabelE) and env.active_link is not None:
            self.fault(TRACKING_FAULT, i, "a tag bound to a field used as an argument")
        t_arg = self.value_type(env, ev.arg, i)
        try:
            entry = resolve_signature(branch, ev.method, t_arg)
        except CheckError as e:
            self.fault(TRACKING_FAULT, i, str(e))
        # find a consistency witness for opening the callee, which then
        # agrees with the heap as it is
        callee = th.heap.record(ev.oid)
        witness, types = self._opening_witness(callee, branch, th.heap, i)
        opened = ObjectInternal(callee.cls, witness)
        env.retype(F.set(f, opened))
        env.push(Frame(f, callee.cls, entry.cont), ev.oid, opened, (witness, types, callee))
        self._advance(i, ev.oid, TraceCall(ev.method, entry.param))

    def _opening_witness(self, callee, branch, heap, thread):
        """A consistency witness for opening the callee at `branch` that its
        record inhabits, with its types in the record's order."""
        candidates = self.ctx.witnesses_for(callee.cls, branch)
        for _, ftyping in candidates:
            types = _field_types(ftyping, callee)
            if types is not None and self._fields_conform(callee, ftyping, types, heap):
                return ftyping, types
        self.fault(
            TRACKING_FAULT,
            thread,
            f"no field typing witness for {callee.cls} at {render_type(branch)}",
        )

    def _fields_conform(self, rec, ftyping, types, heap, opened=None, since=None):
        """Do the record's fields inhabit their `types`, those of `ftyping`
        in the record's order (`_field_types`)? Fields of variant session
        type are resolved through their sibling tag first (the actual
        session type), then objects are checked by their reached session
        states. `opened` is the open object that a pending call opened at a
        field, if any: the field's type is C[F] for it, and the field holds
        it, an object of class C, whose own record `_open_agrees` checks.

        `since` is the (field typing, types, record) at which this record
        last agreed, if any: a field whose value and type are the very ones
        it had then agrees as it did, unless it has a variant type (its tag
        may have changed). What else it reads changes only where tracking
        retypes it (`_changed_open`)."""
        old_types, old_fields = (since[1], since[2].fields) if since is not None else ((), ())
        kept = len(old_fields) == len(types)
        for k, (name, v) in enumerate(rec.fields):
            t = types[k]
            if type(t) is ObjectInternal:
                if not (
                    opened is not None
                    and isinstance(v, sx.ObjIdE)
                    and v.oid == opened.oid
                    and heap.has(v.oid)
                    and heap.record(v.oid).cls == t.cls
                ):
                    return False
                continue
            tu = unfold(t) if isinstance(t, SessionType) else None
            if isinstance(tu, VariantS):
                sel = self._actual_case(rec, ftyping, name, tu)
                if sel is None:
                    return False
                t = sel
            elif kept and old_types[k] is t and old_fields[k][1] is v and old_fields[k][0] == name:
                continue
            if not self._value_conforms(v, t, heap):
                return False
        return True

    def _actual_case(self, rec, ftyping, name, variant):
        """Actual session type of a variant-typed field: the component picked
        out by the sibling field that holds its tag."""
        for name2, v2 in rec.fields:
            t2 = ftyping.get(name2)
            if isinstance(t2, LinkField) and t2.field == name and isinstance(v2, sx.LabelE):
                if v2.label in variant.labels:
                    return variant.case(v2.label)
        return None

    def _value_conforms(self, v, t, heap) -> bool:
        if isinstance(t, NullType):
            return isinstance(v, sx.NullE)
        if isinstance(t, EnumType):
            return isinstance(v, sx.LabelE) and v.label in t.labels
        if isinstance(t, LinkField):
            return isinstance(v, sx.LabelE)  # the pairing is checked from the variant side
        if isinstance(t, SessionType):
            if isinstance(v, sx.ObjIdE):
                if not heap.has(v.oid):
                    return False
                try:
                    return subtype_session(self._reached_state(v.oid), t)
                except TypeErrorTransition:
                    return False
            if isinstance(v, sx.EndpointE):
                sigma = self.theta.get((v.chan, v.polarity))
                if sigma is None:
                    return False
                return subtype_session(translate_channel(sigma), t)
            if isinstance(v, sx.AccessE):
                proto = self.program.access_points.get(v.name)
                return proto is not None and subtype_session(translate_access(proto), t)
            return False
        return False

    def _track_return(self, before, ev, after):
        i = ev.threads[0]
        env = self.envs[i]
        if not env.frames:
            self.fault(TRACKING_FAULT, i, "return without a pending call")
        frame = env.frames[-1]
        path = before.threads[i].path
        if path.last() != frame.field:
            self.fault(TRACKING_FAULT, i, "return path does not match the pending call")
        returning = env.pop()
        inner = returning.type
        caller_path = path.parent()
        F = _current(env, caller_path)
        if not isinstance(F.get(frame.field), ObjectInternal) or not isinstance(inner.typing, RecordF):
            self.fault(TRACKING_FAULT, i, "returning object is not open")
        v = ev.value
        cont_u = unfold(frame.cont)
        if isinstance(v, sx.LabelE) and isinstance(cont_u, VariantS):
            if v.label not in cont_u.labels:
                self.fault(TRACKING_FAULT, i, f"returned tag {v.label} outside the variant")
            selected = cont_u.case(v.label)
            self._consistent(frame.cls, selected, inner.typing, i)
            env.retype(F.set(frame.field, selected))
            env.active_link = ActiveLink(caller_path, frame.field, frame.cont)
        else:
            self._consistent(frame.cls, frame.cont, inner.typing, i)
            env.retype(F.set(frame.field, frame.cont))
        if isinstance(v, sx.LabelE):
            self._advance(i, returning.oid, TraceLabel(v.label))

    def _track_spawn(self, before, ev, after):
        if not isinstance(ev.arg, sx.NullE):
            self.fault(TRACKING_FAULT, ev.threads[0], "spawn argument is not null")
        self._open_thread(ev.oid, ev.cls, ev.method)

    def _track_init(self, before, ev, after):
        i, j = ev.threads
        sigma = self.program.access_points[ev.access]
        self.theta[(ev.chan, "+")] = sigma
        self.theta[(ev.chan, "-")] = dual(sigma)
        self.envs[i].gamma[("chan", ev.chan, "+")] = translate_channel(sigma)
        self.envs[j].gamma[("chan", ev.chan, "-")] = translate_channel(dual(sigma))

    def _com_sides(self, before, ev):
        """The prologue of a communication: checks that no third thread holds
        the channel, then gives the sender's and receiver's thread indices,
        current paths and fields, and the keys and unfolded channel types of
        their ends."""
        i, j = ev.threads
        self._check_third_party(before, ev.chan, i, j)
        th_s, th_r = before.threads[i], before.threads[j]
        f_s, f_r = th_s.focus[0].field, th_r.focus[0].field
        pol = th_s.heap.resolve(th_s.path).get(f_s).polarity
        key_s, key_r = (ev.chan, pol), (ev.chan, "-" if pol == "+" else "+")
        if key_s not in self.theta or key_r not in self.theta:
            self.fault(TRACKING_FAULT, i, f"channel {ev.chan} missing from the channel environment")
        sig_s, sig_r = unfold(self.theta[key_s]), unfold(self.theta[key_r])
        return i, j, th_s.path, th_r.path, f_s, f_r, key_s, key_r, sig_s, sig_r

    def _check_third_party(self, conf, chan, i, j):
        for k in range(len(conf.threads)):
            if k not in (i, j) and ((chan, "+") in self._eps[k] or (chan, "-") in self._eps[k]):
                self.fault(LINEARITY, k, f"channel {chan} occurs in a third thread")

    def _track_combase(self, before, ev, after):
        i, j, path_s, path_r, f_s, f_r, key_s, key_r, sig_s, sig_r = self._com_sides(before, ev)
        env_s, env_r = self.envs[i], self.envs[j]
        v = ev.value
        if isinstance(v, sx.LabelE) and env_s.active_link is not None:
            self.fault(TRACKING_FAULT, i, "a tag bound to a field was sent")

        # sender side
        if isinstance(sig_s, sx.ChanSelect):
            if not isinstance(v, sx.LabelE) or v.label not in sig_s.labels:
                self.fault(TRACKING_FAULT, i, f"selected label {v!r} not offered by {render_type(sig_s)}")
            new_s = sig_s.case(v.label)
        elif isinstance(sig_s, sx.ChanSend):
            t_v = self.value_type(env_s, v, i, consume=isinstance(v, sx.EndpointE))
            payload = sig_s.payload
            if isinstance(v, sx.EndpointE):
                moved = self.theta.get((v.chan, v.polarity))
                if moved is None:
                    self.fault(TRACKING_FAULT, i, f"delegated endpoint {v.chan}{v.polarity} untyped")
                if not isinstance(payload, sx.ChannelType) or not subtype_channel(moved, payload):
                    self.fault(TRACKING_FAULT, i, "delegated endpoint does not match the payload type")
            else:
                if isinstance(payload, sx.ChannelType) or not subtype_value(t_v, payload):
                    self.fault(TRACKING_FAULT, i, f"sent value {v!r} does not match {render_type(payload)}")
            new_s = sig_s.cont
        else:
            self.fault(TRACKING_FAULT, i, f"send on channel of type {render_type(sig_s)}")
        self.theta[key_s] = new_s
        env_s.retype(_current(env_s, path_s).set(f_s, translate_channel(new_s)))

        # receiver side
        if isinstance(sig_r, sx.ChanOffer):
            new_r = sig_r.case(v.label)
            # the variant its receive returns into, one node per offer state
            (receive,) = translate_channel(sig_r).entries
            env_r.active_link = ActiveLink(path_r, f_r, receive.cont)
        elif isinstance(sig_r, sx.ChanRecv):
            new_r = sig_r.cont
            if isinstance(v, sx.EndpointE):
                env_r.gamma[("chan", v.chan, v.polarity)] = translate_channel(
                    self.theta[(v.chan, v.polarity)]
                )
        else:
            self.fault(TRACKING_FAULT, j, f"receive on channel of type {render_type(sig_r)}")
        self.theta[key_r] = new_r
        env_r.retype(_current(env_r, path_r).set(f_r, translate_channel(new_r)))

    def _track_comobj(self, before, ev, after):
        i, j, path_s, path_r, f_s, f_r, key_s, key_r, sig_s, sig_r = self._com_sides(before, ev)
        env_s, env_r = self.envs[i], self.envs[j]
        if not isinstance(sig_s, sx.ChanSend) or not isinstance(sig_r, sx.ChanRecv):
            self.fault(TRACKING_FAULT, i, "object transfer on a non send/receive channel state")
        t_obj = env_s.gamma.pop(("obj", ev.oid), None)
        if t_obj is None:
            self.fault(TRACKING_FAULT, i, f"transferred object {ev.oid} missing from the environment")
        payload = sig_s.payload
        if not isinstance(payload, SessionType) or not subtype_session(t_obj, payload):
            self.fault(TRACKING_FAULT, i, "transferred object does not match the payload type")
        phi = dict(ev.phi)
        env_r.gamma[("obj", phi[ev.oid])] = t_obj
        self.theta[key_s] = sig_s.cont
        self.theta[key_r] = sig_r.cont
        env_s.retype(_current(env_s, path_s).set(f_s, translate_channel(sig_s.cont)))
        env_r.retype(_current(env_r, path_r).set(f_r, translate_channel(sig_r.cont)))
        self._reached.update({phi[o]: self._reached.pop(o) for o in phi if o in self._reached})

    # -- state checking ---------------------------------------------------------

    def check_state(self, conf, threads=None, chans=None):
        """Check the given threads (ascending) and the duality of the given
        channels, every one when None; the others passed at an earlier step
        and have not changed since."""
        clash = self._keep_shape(conf, threads)
        scan = threads is None
        if scan:
            threads = range(len(conf.threads))
        if scan or clash or any(self._heaps[i].dangling for i in threads):
            self._check_global_shape(conf, threads)
        for i in threads:
            th, env = conf.threads[i], self.envs[i]
            self._check_heap_agreement(i, th, env, chans)
            self._check_expression(i, th, env)
            env.changed = len(env.opened)
        self._check_duality(chans)

    def _keep_shape(self, conf, threads=None) -> bool:
        """Move the heap summaries, the owner map and the endpoint sets of
        the given threads to `conf`, every thread's rebuilt from scratch when
        None, and note the objects new to their heaps. True when an object
        or endpoint new to a thread may be held by another one too. A
        thread's endpoint set is rebuilt only when one of its parts may have
        changed: its expression's is another set, or an endpoint count of
        its heap moved."""
        if threads is None:
            self._heaps, self._owner, self._eps = {}, {}, {}
            self._contexts, self._values, self._expr_eps = {}, {}, {}
            threads = range(len(conf.threads))
        entered = []
        for i in threads:  # every removal first, so a moved id has no owner
            s = self._heaps.get(i) or self._heaps.setdefault(i, HeapSummary())
            changes = s.update(conf.threads[i].heap)
            for oid, old, new in changes:
                if new is None:
                    if self._owner.get(oid) == i:
                        del self._owner[oid]
                elif old is None:
                    entered.append((i, oid))
        clash = False
        for i, oid in entered:
            clash = self._owner.setdefault(oid, i) != i or clash
        self._entered += entered
        added = []
        for i in threads:
            expr, s = self._keep_context(i, conf.threads[i]), self._heaps[i]
            if expr is self._expr_eps.get(i) and not s.eps_moved:
                continue  # the same endpoints as at its last check
            self._expr_eps[i] = expr
            eps = expr.union(s.eps)
            added += [(i, e) for e in eps - self._eps.get(i, _NO_ENDPOINTS)]
            self._eps[i] = eps
        for i, e in added:
            clash = clash or any(e in eps for k, eps in self._eps.items() if k != i)
        return clash

    def _keep_context(self, i, th) -> frozenset:
        """Move thread i's kept frames to its focus: the frames it left are
        dropped, and each frame new to it is kept, its endpoint set built
        from the one outward of it. Returns the endpoints of the thread's
        expression: its redex's and those of the innermost kept frame."""
        keys = self._judgements.keys
        found = th.focus
        x, cell = (th.made_from[1], None) if found is None else found  # a value, no frames
        table, inner = self._contexts.get(i) or ({}, None)
        new = []
        while cell is not None and id(cell) not in table:
            new.append(cell)
            cell = cell[0]
        meet = None if cell is None else table[id(cell)]
        while inner is not meet:
            del table[id(inner.cell)]
            inner = inner.outer
        for cell in reversed(new):
            inner = table[id(cell)] = KeptFrame(cell, inner, keys)
        self._contexts[i] = (table, inner)
        eps = keys.endpoints(x)
        if inner is None or not inner.eps:
            return eps
        return eps | inner.eps if eps else inner.eps

    def _check_global_shape(self, conf, threads):
        """An incomplete heap among the given threads, an object in two
        threads, an endpoint in two threads, looked for in thread and heap
        order, so the one reported is the first in that order. The
        summaries and the clash that `_keep_shape` notes show whether any of
        these can be; `check_state` calls this only then, or when every
        thread is checked."""
        seen = set()
        for i in range(len(conf.threads)):
            s = self._heaps[i]
            if i in threads and s.dangling:
                self.fault(STATE_ILL_TYPED, i, "incomplete heap")
            for oid, _, _ in s.heap.changes():
                if oid in seen:
                    self.fault(STATE_ILL_TYPED, i, f"object {oid} lives in two threads")
                seen.add(oid)
        # at most one occurrence of each endpoint polarity across the system
        seen = set()
        for i in range(len(conf.threads)):
            for c, p in self._eps[i]:
                if (c, p) in seen:
                    self.fault(LINEARITY, i, f"endpoint {c}{p} occurs twice")
                seen.add((c, p))

    def _check_heap_agreement(self, i, th, env: ThreadEnv, chans):
        """Each open object and environment entry agrees with the heap and
        the channel types; the open objects first, since the paper's
        environment nests them in the root's entry, its first. With `chans`
        None every one is looked at, and likewise when the heap holds an end
        of a step's channel elsewhere than in the current object, which only
        a faulty heap can. Else only what the step can have changed: the
        open objects of `_changed_open`, and of the other entries those
        whose type or, for an object, reached state is not the very one
        they last agreed at, those whose object's record or holders the step
        changed, and the endpoints of the step's channels. Types and states
        are values, so tracking replaces one it changes; no two are
        compared level by level."""
        summary, heap = self._heaps[i], th.heap
        touched = summary.touched
        full = chans is None or self._held_elsewhere(env, summary, heap, chans)
        chans = chans or ()
        last = {} if full else self._agreed.get(i, {})
        reached = self._reached
        now = {
            key: (t, reached.get(key[1]) if key[0] == "obj" else None)
            for key, t in env.gamma.items()
        }
        if not (full or chans or touched) and env.changed >= len(env.opened) and now == last:
            return  # nothing any entry reads changed
        root = env.opened[0].oid
        if (full or root in touched) and not summary.is_root(root):
            self.fault(STATE_ILL_TYPED, i, f"environment names {root} which is not a root")
        for d in range(len(env.opened)) if full else self._changed_open(env, touched):
            if not self._open_agrees(env, d, heap, not full):
                self.fault(STATE_ILL_TYPED, i, f"open object {root} disagrees with its typing")
        for key, (t, state) in now.items():
            was = last.get(key)
            same = was is not None and was[0] is t and was[1] is state
            if key[0] != "obj":
                c, p = key[1], key[2]
                if c not in chans and same:
                    continue
                sigma = self.theta.get((c, p))
                if sigma is None or not equivalent(translate_channel(sigma), t):
                    self.fault(STATE_ILL_TYPED, i, f"endpoint {c}{p} disagrees with its channel type")
                continue
            oid = key[1]
            if same and oid not in touched:
                continue
            if not summary.is_root(oid):
                self.fault(STATE_ILL_TYPED, i, f"environment names {oid} which is not a root")
            if isinstance(t, SessionType):
                if isinstance(unfold(t), VariantS):
                    self.fault(STATE_ILL_TYPED, i, f"root {oid} tracked at a variant type")
                if not self._value_conforms(sx.ObjIdE(oid), t, heap):
                    self.fault(STATE_ILL_TYPED, i, f"object {oid} does not inhabit {render_type(t)}")
            else:
                self.fault(STATE_ILL_TYPED, i, f"environment entry {oid} has value type {t!r}")
        if last != now:
            self._agreed[i] = now

    @staticmethod
    def _held_elsewhere(env: ThreadEnv, summary, heap, chans) -> bool:
        """Does the heap hold an end of one of the step's channels elsewhere
        than in the current object, whose field the step retyped? Tracking
        consumes an endpoint as it is stored, so no run of the interpreter
        makes such a heap."""
        if not chans:
            return False
        held = sum(summary.eps.get((c, p), 0) for c in chans for p in "+-")
        oid = env.opened[-1].oid
        current = heap.record(oid).fields if heap.has(oid) else ()
        return held > sum(isinstance(v, sx.EndpointE) and v.chan in chans for _, v in current)

    @staticmethod
    def _changed_open(env: ThreadEnv, touched):
        """The depths, ascending, of the open objects whose agreement a step
        can have changed: those that tracking retyped (`ThreadEnv.changed`),
        and those whose record changed. A field's agreement also reads the
        reached state of an object it holds, which advances only on a call,
        whose caller types the callee C[F], and on a labelled return, which
        retypes the caller; and the type of a channel it holds, which
        changes only when the object holding it communicates and is
        retyped (`_held_elsewhere` says when another holds it too)."""
        n, depths = len(env.opened), env.depths
        outer = {depths[oid] for oid in touched if depths.get(oid, n) < env.changed}
        retyped = range(env.changed, n)
        return sorted(outer) + list(retyped) if outer else retyped

    def _open_agrees(self, env: ThreadEnv, d, heap, delta) -> bool:
        """Does the open object at depth d agree with its C[F]: is its
        record of class C, inhabiting F, and does the field its pending call
        opened hold that call's callee? With `delta`, only the fields whose
        value or type changed since it last agreed are looked at."""
        obj = env.opened[d]
        t = obj.type
        rec = heap.record(obj.oid) if heap.has(obj.oid) else None
        if rec is None or rec.cls != t.cls:
            return False
        since = obj.agreed if delta else None
        if since is not None and since[0] is t.typing and since[2] is rec:
            return True  # as it last agreed
        types = _field_types(t.typing, rec)
        callee = env.opened[d + 1] if d + 1 < len(env.opened) else None
        if types is None or not self._fields_conform(rec, t.typing, types, heap, callee, since):
            return False
        obj.agreed = (t.typing, types, rec)
        return True

    def _check_expression(self, i, th, env: ThreadEnv):
        """Re-check the thread's expression with the expression checker, from
        the root object: the pending calls lead down the current path, and
        the environment's entries are the in-flight values. Only what
        replaced the last redex is typed, and frames are left outward while
        a hole's judgement changed (module docstring). Stopping early needs
        the return frames outward to read what they read (`_reads_hold`);
        the tracking changes only the current object and the field that
        opened it, so only the callers it retyped otherwise are looked at.
        Frames not yet judged are entered outermost first, so a return's
        checks before its hole come in the order of a whole-expression
        check, and the first error is the one that check finds. An
        expression at depth d, and a return frame entered from it, read the
        object open at d with its callee as it is now (`_typing_at`)."""
        opened, calls = env.opened, env.frames
        try:
            if th.path.depth != len(calls) or calls and calls[-1].field != th.path.field:
                raise CheckError(INTERNAL_FORM, f"pending calls do not lead to {th.path}")
            ctx, classes = self.ctx, self.program.classes
            cell, x = th.made_from
            if cell is not None and sx.is_value(x):  # the innermost frame is the redex now
                x, cell = th.focus
            kept, new = None, []
            if cell is not None:
                kept = self._contexts[i][0][id(cell)]
                while kept is not None and kept.hole is None:
                    new.append(kept)
                    kept = kept.outer
            if kept is not None and kept.calls and (
                kept.calls >= len(opened) or not self._reads_hold(kept, env)
            ):
                while kept is not None:  # judge every frame again
                    new.append(kept)
                    kept = kept.outer
            envs = self._runtime_envs(i, env)
            d = 0 if kept is None else kept.calls
            cls, F, V = classes[opened[d].type.cls], self._typing_at(env, d), self._env_at(envs, d)
            inputs = []
            for frame in reversed(new):
                inputs.append((cls, F, V))
                cls, F, V = enter_frame(ctx, cls, frame.cell[1], F, V)
                if frame.returns:
                    d += 1
                    F = self._typing_at(env, d)
            out = infer_expr(ctx, cls, x, F, V)
            for frame in new:
                cls, F, V = inputs.pop()
                frame.hole = out
                if frame.returns:
                    frame.reads = (V.frames[0], F)
                out = leave_frame(ctx, cls, frame.cell[1], out, F, V)
            if kept is not None and out is not kept.hole and not same_judgement(out, kept.hole):
                self.outward_walks += 1
                while kept is not None and not same_judgement(out, kept.hole):
                    d = kept.calls - kept.returns
                    obj = opened[d].type
                    V = self._env_at(envs, d)
                    kept.hole = out
                    if kept.returns:
                        kept.reads = (V.frames[0], obj.typing)
                    out = leave_frame(ctx, classes[obj.cls], kept.cell[1], out, obj.typing, V)
                    kept = kept.outer
            if kept is None and out[2].frames:
                raise CheckError(INTERNAL_FORM, "a pending call has no return")
        except CheckError as e:
            self.fault(STATE_ILL_TYPED, i, f"expression re-check failed: {e}")

    @staticmethod
    def _typing_at(env: ThreadEnv, d) -> RecordF:
        """The field typing of the object open at depth d, holding its
        pending call's callee, if any, as it is now and not as the call
        opened it. A callee's own callee is left as it was opened: the
        rules read a callee's C[F] only to enter its return. A field that
        holds no C[F] of the callee's class is left for the checker."""
        typing = env.opened[d].type.typing
        if d + 1 < len(env.opened):
            callee, f = env.opened[d + 1].type, env.frames[d].field
            held = dict(typing.items).get(f) if isinstance(typing, RecordF) else None
            if type(held) is ObjectInternal and held.cls == callee.cls and held is not callee:
                typing = typing.set(f, callee)
        return typing

    @staticmethod
    def _reads_hold(kept, env: ThreadEnv) -> bool:
        """Do the return frames at and outward of `kept` still read what
        they were judged under: the same pending call, and a caller whose
        field typing differs at most in the field the call opened? Only the
        callers retyped since the last check can differ
        (`ThreadEnv.changed`)."""
        frame = kept if kept.returns else kept.opener
        while frame is not None and frame.calls - 1 >= env.changed:
            call, caller = frame.reads
            d = frame.calls - 1
            typing = env.opened[d].type.typing
            if env.frames[d] is not call or not _same_but(typing, caller, call.field):
                return False
            frame = frame.opener
        return True

    def _runtime_envs(self, i, env) -> tuple:
        """Thread i's memo, in-flight values and pending calls, with its
        runtime environments by depth (`_env_at`). Those of its last check
        are used again while the memo, the values and the pending calls are
        the same, so each environment is keyed once. Calls are only pushed
        and popped, each a new `Frame`, so as many calls ending in the same
        one are the same calls."""
        calls = env.frames
        top = calls[-1] if calls else None
        last = self._values.get(i)
        if (
            last is None
            or last[0] is not self._judgements
            or last[2] is not top
            or last[3] != len(calls)
            or last[1] != env.gamma
        ):
            last = (self._judgements, dict(env.gamma), top, len(calls), calls, {})
            self._values[i] = last
        return last

    def _env_at(self, envs, d) -> RuntimeEnv:
        """The runtime environment at depth d: the pending calls from d in."""
        V = envs[5].get(d)
        if V is None:
            judgements, values, _, _, calls, by_depth = envs
            V = by_depth[d] = RuntimeEnv(
                values, tuple(calls[d:]), self._consistency_holds, judgements
            )
        return V

    def _check_duality(self, chans):
        if chans is None:
            chans = [c for c, p in self.theta if p == "+"]
        for c in chans:
            sigma, other = self.theta.get((c, "+")), self.theta.get((c, "-"))
            if sigma is None or other is None:
                continue
            want = dual(sigma)
            if not (subtype_channel(want, other) and subtype_channel(other, want)):
                holder = next((k for k, eps in self._eps.items() if (c, "+") in eps), 0)
                self.fault(DUALITY, holder, f"channel {c} endpoints not dual")

    def check_traces(self, conf, threads=None):
        """Check the objects and tracked roots of the given threads
        (ascending), every thread when None. Of the given threads' objects,
        only those new to their heap are looked up, unless one of them fails,
        when every object is, in thread and heap order, so the one reported
        is the first in that order. The others' reached states were found
        at an earlier step and have not become empty since: a call or label
        that none of them can fire faults as it is tracked (`_advance`), and
        every other change of reached states is to an object that enters a
        heap at that step (New, Spawn, object transfer). A root entry's
        conformance is kept with the (type, reached state) it was proved at,
        and proved again only when one of the two is another object: both
        are values, replaced and never changed in place. The given threads'
        entries are still looked at in order, so the first to fail is the
        one a full check reports."""
        scan = threads is None
        if scan:
            threads = range(len(conf.threads))
            self._conformed = {}
        else:
            try:
                for _, oid in self._entered:
                    self._reached_state(oid)
            except TypeErrorTransition:
                scan = True
        # every heap object's calls have reached a state of its class session
        for i in threads if scan else ():
            for oid, _, rec in conf.threads[i].heap.changes():
                try:
                    self._reached_state(oid)
                except TypeErrorTransition as e:
                    self.fault(TRACE_INVALID, i, f"object {oid} ({rec.cls}): {e}")
        # consistency with the tracked environments: a session-typed root's
        # trace must lead to (a subtype of) its tracked state
        for i in threads:
            th, gamma = conf.threads[i], self.envs[i].gamma
            conformed = self._conformed.setdefault(i, {})
            for key, t in gamma.items():
                if key[0] != "obj":
                    continue
                reached = self._reached.get(key[1])
                was = conformed.get(key)
                if was is not None and was[0] is t and was[1] is reached:
                    continue  # as it conformed at an earlier step
                if not isinstance(t, SessionType):
                    continue
                if isinstance(unfold(t), VariantS):
                    continue  # resolved through the tag holder, checked elsewhere
                if not th.heap.has(key[1]):
                    continue  # cross-thread shape errors are reported by check_state
                try:
                    reached = self._reached_state(key[1])
                except TypeErrorTransition as e:
                    self.fault(TRACE_INVALID, i, str(e))
                if not subtype_session(reached, t):
                    self.fault(
                        TRACE_INVALID, i, f"trace of {key[1]} does not reach {render_type(t)}"
                    )
                conformed[key] = (t, reached)
            if len(conformed) > len(gamma):  # entries that left the environment
                self._conformed[i] = {key: was for key, was in conformed.items() if key in gamma}

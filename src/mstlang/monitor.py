"""Runtime monitoring: maintains typing environments across reductions,
re-checks the reached states against them, and checks that each object's
calls and returned labels are a path in its class session's transition
system.

Per thread the monitor keeps an environment mapping the heap roots (and any
in-flight endpoints) to types; objects currently executing a method appear
as nested internal types along the current path. A global channel
environment maps endpoints to channel session types, advanced in lockstep on
both sides of every communication. Protocol progress lives in one global map
from object identifiers (configuration-unique) to the session states the
object's calls and returned labels have reached, stepped through `lts_step`
as each call or labelled return happens; entries move (renamed) with object
transfer. The calls themselves are not kept. One handler per reduction rule
(`_track_*`) advances everything its rule changes: the environments, the
channel types and the reached states.

`start` checks every thread and channel of the initial configuration; after
each step only the threads that took part in it (and a spawned one) and the
channel it communicated on are re-checked. That is exact, not a sample: an
untouched thread's heap, path, expression and environment are unchanged, and
the channel types and reached states it depends on change only for the
step's channel, whose two ends the linearity check pins to the two touched
threads, and for objects of touched threads. Its verdict would repeat the one
it already passed. The cross-thread checks (an object or endpoint in two
threads) compare per-thread object ids and endpoints kept from earlier steps
and recomputed for the touched threads only. These endpoint sets are also
the one record of which thread holds an endpoint: a duality fault names the
thread whose set holds the channel's + end. Duality is checked after the
cross-thread check has found each endpoint in at most one thread.

A thread's expression is re-checked by the static expression checker,
`typechecker.infer_expr`, under a runtime environment (`RuntimeEnv`) built
from the tracked one: checking starts at the thread's root object, whose
internal type reaches the objects opened by pending calls; each `return`
consumes the outermost pending call; the other entries are the in-flight
object identifiers and endpoints, consumed on use. This module holds no
expression typing rules of its own.

Those judgements are memoised (`Judgements`); a full memo starts over with a
fresh table before the next check. An answer, the result triple or the
CheckError, is kept under (expression key, class name, field typing,
environment key). The expression key is a hash-consed int from the monitor's
own table, equal exactly for structurally equal expressions. The environment
key is built from the value types and, per pending call, its field, class
and continuation. Types compare by canonical form, as in the package's other
tables (a detail message can show which of two equal types was judged
first). A hit is exact: `infer_expr` reads nothing else but the program and
the return rule's consistency judgement, `_consistency_holds`, whose cache
never evicts, so once asked about some arguments it answers the same for the
monitor's lifetime. A step rebuilds only the path to its redex; the
interpreter and `map_expr` keep every other node, and a walk along a
statement sequence keeps its answer at every suffix. So a step re-types the
rebuilt nodes and looks up the rest, and its cost does not grow with the
remaining body.

Monitoring always starts from the initial configuration, whose current path
is a bare root, so every later path extends it and trace conformance is
meaningful at each step; monitoring a run from an arbitrary intermediate
state is not supported. State checking validates the heap against the
*tracked* environments; re-deriving an environment from the heap alone
(searching over the orders in which objects could have been added) is a
possible extension, not attempted here.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

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
    infer_expr,
    resolve_signature,
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


@dataclass(frozen=True)
class TraceCall:
    method: str
    param: object = None  # the parameter type of the entry the call resolved to, if known

    def __str__(self):
        return self.method


@dataclass(frozen=True)
class TraceLabel:
    label: str

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
    """Successor states of one trace element from a set of states: forks over
    the states and drops those that cannot fire; raises when none is left."""
    nxt = []
    last_err = None
    for st in states:
        try:
            nxt.extend(lts_step(st, action))
        except TypeErrorTransition as e:
            last_err = e
    if not nxt:
        raise last_err or TypeErrorTransition(f"{action} from no reachable state")
    return tuple(nxt)


def _called(session: SessionType, method: str) -> tuple:
    """Reached states of a root whose method has just been called with
    null; () when the session cannot fire the call."""
    try:
        return _fire((session,), TraceCall(method, sx.NULL_T))
    except TypeErrorTransition:
        return ()


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


@dataclass
class Frame:
    field: str
    cls: str
    cont: SessionType  # continuation recorded at the call


@dataclass
class ActiveLink:
    """An in-flight label that is the tag of a field's variant type."""

    path: Path
    field: str
    variant: SessionType  # the full variant, for re-widening on park


@dataclass
class ThreadEnv:
    gamma: dict = dc_field(default_factory=dict)  # ("obj", oid)/("chan", c, p) -> type
    frames: list = dc_field(default_factory=list)
    active_link: object = None  # ActiveLink | None


def env_type_at(gamma: dict, path: Path):
    t = gamma.get(("obj", path.root))
    if t is None:
        raise RuntimeFault(f"no environment entry for {path.root}")
    for f in path.fields:
        if not isinstance(t, ObjectInternal) or not isinstance(t.typing, RecordF):
            raise RuntimeFault(f"path {path} crosses a non-open object")
        t = t.typing.get(f)
    return t


def env_set_at(gamma: dict, path: Path, new_type) -> None:
    if not path.fields:
        gamma[("obj", path.root)] = new_type
        return
    root = gamma[("obj", path.root)]
    gamma[("obj", path.root)] = _rebuild(root, path.fields, new_type)


def _rebuild(t, fields, new_type):
    if not fields:
        return new_type
    if not isinstance(t, ObjectInternal) or not isinstance(t.typing, RecordF):
        raise RuntimeFault("path crosses a non-open object")
    f = fields[0]
    child = _rebuild(t.typing.get(f), fields[1:], new_type)
    return ObjectInternal(t.cls, t.typing.set(f, child))


def env_field_type(gamma, path: Path, f: str):
    t = env_type_at(gamma, path)
    if not isinstance(t, ObjectInternal) or not isinstance(t.typing, RecordF):
        raise RuntimeFault(f"object at {path} is not open")
    return t.typing.get(f)


def env_set_field(gamma, path: Path, f: str, new_type) -> None:
    t = env_type_at(gamma, path)
    env_set_at(gamma, path, ObjectInternal(t.cls, t.typing.set(f, new_type)))


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
        self._reached = {}  # oid -> session states its calls reached; () when stuck
        self._ids = {}  # thread -> its heap's object ids, as of its last step
        self._eps = {}  # thread -> endpoints in its heap and expression, likewise

    # -- setup ----------------------------------------------------------------

    def start(self, conf):
        self.envs, self._reached = [], {}
        self._open_thread("top", *self.program.main)
        self._recheck(conf)

    def _open_thread(self, oid, cls, method):
        """A new thread's environment: its root, a fresh object of `cls`,
        is open in `method`, called with null."""
        decl = self.program.cls(cls)
        env = ThreadEnv()
        env.gamma[("obj", oid)] = ObjectInternal(cls, decl.initial_field_typing())
        self.envs.append(env)
        self._reached[oid] = _called(decl.session, method)

    def _recheck(self, conf, threads=None, chans=None):
        """Check the given threads (ascending) and channels, every one when
        None."""
        if threads is None:
            threads = range(len(conf.threads))
        if self.verify_states:
            self.check_state(conf, threads, chans)
        else:
            self._keep_shape(conf, threads)  # read by the third-party check
        if self.verify_traces:
            self.check_traces(conf, threads)

    # -- helpers ---------------------------------------------------------------

    def fault(self, kind, thread, detail):
        raise MonitorViolation(kind, self.step_no, thread, detail)

    def _advance(self, thread, oid, action):
        try:
            self._reached[oid] = _fire(self._reached.get(oid, ()), action)
        except TypeErrorTransition:
            self._reached[oid] = ()
            if self.verify_traces:
                self.fault(TRACE_INVALID, thread, f"object {oid}: trace cannot fire {action}")

    def _reached_states(self, oid):
        states = self._reached.get(oid)
        if not states:
            why = "no record of its calls" if states is None else "its calls reach no session state"
            raise TypeErrorTransition(why)
        return states

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
        key = (cls_name, session.canon(), ftyping.canon())
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
        self._reached[ev.oid] = (session,)

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
        old_type = env_field_type(env.gamma, path, f)

        # type of the incoming value
        v_in = ev.value
        if isinstance(v_in, sx.LabelE) and env.active_link is not None:
            link = env.active_link
            if link.path != path:
                self.fault(TRACKING_FAULT, i, "tag parked outside its own object")
            t_in = LinkField(link.field)
            env_set_field(env.gamma, path, link.field, link.variant)
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
            target = env_field_type(env.gamma, path, old_type.field)
            tu = unfold(target) if isinstance(target, SessionType) else None
            if not isinstance(tu, VariantS) or v_out.label not in tu.labels:
                self.fault(TRACKING_FAULT, i, f"tag {v_out.label} does not match field {old_type.field}")
            env_set_field(env.gamma, path, old_type.field, tu.case(v_out.label))
            env.active_link = ActiveLink(path, old_type.field, target)

        env_set_field(env.gamma, path, f, t_in)

    def _track_call(self, before, ev, after):
        i = ev.threads[0]
        env = self.envs[i]
        th = before.threads[i]
        path = th.path
        f = ev.field
        t_field = env_field_type(env.gamma, path, f)
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
        # find a consistency witness for opening the callee
        callee = th.heap.record(ev.oid)
        witness = self._opening_witness(callee, branch, th.heap, i)
        env.frames.append(Frame(f, callee.cls, entry.cont))
        env_set_field(env.gamma, path, f, ObjectInternal(callee.cls, witness))
        self._advance(i, ev.oid, TraceCall(ev.method, entry.param))

    def _opening_witness(self, callee, branch, heap, thread):
        candidates = self.ctx.witnesses_for(callee.cls, branch)
        for _, ftyping in candidates:
            if self._record_conforms(callee, ftyping, heap):
                return ftyping
        self.fault(
            TRACKING_FAULT,
            thread,
            f"no field typing witness for {callee.cls} at {render_type(branch)}",
        )

    def _record_conforms(self, rec, ftyping, heap) -> bool:
        """Does a heap record inhabit a record field typing? Fields of variant
        session type are resolved through their sibling tag first (the actual
        session type), then objects are checked by their reached session states."""
        if not isinstance(ftyping, RecordF):
            return False
        if set(rec.field_names) != set(ftyping.fields):
            return False
        for name, v in rec.fields:
            t = ftyping.get(name)
            tu = unfold(t) if isinstance(t, SessionType) else None
            if isinstance(tu, VariantS):
                sel = self._actual_case(rec, ftyping, name, tu)
                if sel is None:
                    return False
                t = sel
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
        if isinstance(t, ObjectInternal):
            if not isinstance(v, sx.ObjIdE) or not heap.has(v.oid):
                return False
            child = heap.record(v.oid)
            return child.cls == t.cls and self._record_conforms(child, t.typing, heap)
        if isinstance(t, SessionType):
            if isinstance(v, sx.ObjIdE):
                if not heap.has(v.oid):
                    return False
                try:
                    reached = self._reached_states(v.oid)
                except TypeErrorTransition:
                    return False
                return any(subtype_session(r, t) for r in reached)
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
        frame = env.frames.pop()
        path = before.threads[i].path
        if path.last() != frame.field:
            self.fault(TRACKING_FAULT, i, "return path does not match the pending call")
        inner = env_type_at(env.gamma, path)
        if not isinstance(inner, ObjectInternal) or not isinstance(inner.typing, RecordF):
            self.fault(TRACKING_FAULT, i, "returning object is not open")
        v = ev.value
        cont_u = unfold(frame.cont)
        if isinstance(v, sx.LabelE) and isinstance(cont_u, VariantS):
            if v.label not in cont_u.labels:
                self.fault(TRACKING_FAULT, i, f"returned tag {v.label} outside the variant")
            selected = cont_u.case(v.label)
            self._consistent(frame.cls, selected, inner.typing, i)
            env_set_at(env.gamma, path, selected)
            env.active_link = ActiveLink(path.parent(), frame.field, frame.cont)
        else:
            self._consistent(frame.cls, frame.cont, inner.typing, i)
            env_set_at(env.gamma, path, frame.cont)
        if isinstance(v, sx.LabelE):
            oid = before.threads[i].heap.resolve_id(path)
            self._advance(i, oid, TraceLabel(v.label))

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
        env_set_field(env_s.gamma, path_s, f_s, translate_channel(new_s))

        # receiver side
        if isinstance(sig_r, sx.ChanOffer):
            new_r = sig_r.case(v.label)
            variant = VariantS(tuple((l, translate_channel(c)) for l, c in sig_r.cases))
            env_set_field(env_r.gamma, path_r, f_r, translate_channel(new_r))
            env_r.active_link = ActiveLink(path_r, f_r, variant)
        elif isinstance(sig_r, sx.ChanRecv):
            new_r = sig_r.cont
            env_set_field(env_r.gamma, path_r, f_r, translate_channel(new_r))
            if isinstance(v, sx.EndpointE):
                env_r.gamma[("chan", v.chan, v.polarity)] = translate_channel(
                    self.theta[(v.chan, v.polarity)]
                )
        else:
            self.fault(TRACKING_FAULT, j, f"receive on channel of type {render_type(sig_r)}")
        self.theta[key_r] = new_r

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
        env_set_field(env_s.gamma, path_s, f_s, translate_channel(sig_s.cont))
        env_set_field(env_r.gamma, path_r, f_r, translate_channel(sig_r.cont))
        self._reached = {phi.get(o, o): s for o, s in self._reached.items()}

    # -- state checking ---------------------------------------------------------

    def check_state(self, conf, threads=None, chans=None):
        """Check the given threads (ascending) and the duality of the given
        channels, every one when None; the others passed at an earlier step
        and have not changed since."""
        if threads is None:
            threads = range(len(conf.threads))
        self._keep_shape(conf, threads)
        self._check_global_shape(conf, threads)
        for i in threads:
            th, env = conf.threads[i], self.envs[i]
            self._check_heap_agreement(i, th, env)
            self._check_expression(i, th, env)
        self._check_duality(chans)

    def _keep_shape(self, conf, threads):
        for i in threads:
            th = conf.threads[i]
            self._ids[i] = th.heap.ids
            self._eps[i] = sx.heap_endpoints(th.heap) | sx.endpoints_of(th.expr)

    def _check_global_shape(self, conf, threads):
        seen = set()
        for i in range(len(conf.threads)):
            if i in threads and not conf.threads[i].heap.is_complete():
                self.fault(STATE_ILL_TYPED, i, "incomplete heap")
            for oid in self._ids[i]:
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

    def _check_heap_agreement(self, i, th, env: ThreadEnv):
        roots = set(th.heap.roots())
        for key, t in list(env.gamma.items()):
            if key[0] != "obj":
                c, p = key[1], key[2]
                sigma = self.theta.get((c, p))
                if sigma is None or not equivalent(translate_channel(sigma), t):
                    self.fault(STATE_ILL_TYPED, i, f"endpoint {c}{p} disagrees with its channel type")
                continue
            oid = key[1]
            if oid not in roots:
                self.fault(STATE_ILL_TYPED, i, f"environment names {oid} which is not a root")
            rec = th.heap.record(oid)
            if isinstance(t, ObjectInternal):
                if rec.cls != t.cls or not self._record_conforms(rec, t.typing, th.heap):
                    self.fault(STATE_ILL_TYPED, i, f"open object {oid} disagrees with its typing")
            elif isinstance(t, SessionType):
                if isinstance(unfold(t), VariantS):
                    self.fault(STATE_ILL_TYPED, i, f"root {oid} tracked at a variant type")
                if not self._value_conforms(sx.ObjIdE(oid), t, th.heap):
                    self.fault(STATE_ILL_TYPED, i, f"object {oid} does not inhabit {render_type(t)}")
            else:
                self.fault(STATE_ILL_TYPED, i, f"environment entry {oid} has value type {t!r}")

    def _check_expression(self, i, th, env: ThreadEnv):
        """Re-check the thread's expression with the expression checker, from
        the root object: the pending calls lead down the current path, and
        the other environment entries are the in-flight values."""
        root_key = ("obj", th.path.root)
        root = env.gamma.get(root_key)
        values = {k: t for k, t in env.gamma.items() if k != root_key}
        self._judgements.begin()
        rt = RuntimeEnv(values, tuple(env.frames), self._consistency_holds, self._judgements)
        try:
            if not isinstance(root, ObjectInternal):
                raise CheckError(INTERNAL_FORM, f"current object {th.path.root} is not open")
            if tuple(fr.field for fr in env.frames) != th.path.fields:
                raise CheckError(INTERNAL_FORM, f"pending calls do not lead to {th.path}")
            _, _, rest = infer_expr(self.ctx, self.program.cls(root.cls), th.expr, root.typing, rt)
            if rest.frames:
                raise CheckError(INTERNAL_FORM, "a pending call has no return")
        except CheckError as e:
            self.fault(STATE_ILL_TYPED, i, f"expression re-check failed: {e}")

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
        (ascending), every thread when None."""
        if threads is None:
            threads = range(len(conf.threads))
        # every heap object's calls have reached a state of its class session
        for i in threads:
            th = conf.threads[i]
            for oid, rec in th.heap.entries:
                try:
                    self._reached_states(oid)
                except TypeErrorTransition as e:
                    self.fault(TRACE_INVALID, i, f"object {oid} ({rec.cls}): {e}")
        # consistency with the tracked environments: a session-typed root's
        # trace must lead to (a subtype of) its tracked state
        for i in threads:
            th, env = conf.threads[i], self.envs[i]
            for key, t in env.gamma.items():
                if key[0] != "obj" or not isinstance(t, SessionType):
                    continue
                tu = unfold(t)
                if isinstance(tu, VariantS):
                    continue  # resolved through the tag holder, checked elsewhere
                if not th.heap.has(key[1]):
                    continue  # cross-thread shape errors are reported by check_state
                try:
                    reached = self._reached_states(key[1])
                except TypeErrorTransition as e:
                    self.fault(TRACE_INVALID, i, str(e))
                if not any(subtype_session(r, t) for r in reached):
                    self.fault(
                        TRACE_INVALID, i, f"trace of {key[1]} does not reach {render_type(t)}"
                    )

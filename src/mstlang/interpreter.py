"""Small-step execution of configurations.

Each thread is a (heap, current path, expression) triple; communication is a
synchronous rendezvous between two threads (no buffering). The default
scheduler is deterministic: threads are scanned in index order and the first
enabled thread-local step fires; if none exists, the least enabled rendezvous
pair fires. With a seed, the scheduler instead samples uniformly among all
enabled steps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Optional

from . import syntax as sx
from .render import render_expr
from .syntax import (
    Configuration,
    Heap,
    ObjectRecord,
    Path,
    Thread,
    is_value,
)


class RuntimeFault(Exception):
    """State shapes unreachable from checked programs (a checker bug)."""


class MainMissing(Exception):
    pass


@dataclass(frozen=True)
class StepEvent:
    rule: str  # New Swap Call Return Switch Seq While SelfCall Init ComBase ComObj Spawn
    threads: tuple
    cls: str = ""
    oid: str = ""
    field: str = ""
    method: str = ""
    arg: object = None
    value: object = None
    out_value: object = None
    label: str = ""
    access: str = ""
    chan: str = ""
    phi: tuple = ()
    new_thread: int = -1

    def describe(self) -> str:
        bits = []
        if self.cls:
            bits.append(self.cls)
        if self.field:
            bits.append(f"field={self.field}")
        if self.method:
            bits.append(f"method={self.method}")
        if self.oid:
            bits.append(f"obj={self.oid}")
        if self.label:
            bits.append(f"label={self.label}")
        if self.access:
            bits.append(f"access={self.access}")
        if self.chan:
            bits.append(f"chan={self.chan}")
        if self.value is not None:
            bits.append(f"value={render_expr(self.value)}")
        if self.out_value is not None:
            bits.append(f"was={render_expr(self.out_value)}")
        if self.phi:
            bits.append("phi={" + ",".join(f"{a}>{b}" for a, b in self.phi) + "}")
        if self.new_thread >= 0:
            bits.append(f"thread={self.new_thread}")
        return " ".join(bits)


def format_event(step_no: int, ev: StepEvent) -> str:
    ts = ",".join(f"t{i}" for i in ev.threads)
    detail = ev.describe()
    return f"#{step_no} {ev.rule} {ts}" + (f" {detail}" if detail else "")


@dataclass(frozen=True)
class Outcome:
    kind: str  # 'terminated' | 'blocked' | 'limit'
    threads: tuple = ()  # per-thread ('terminated', value-str) or ('deadlocked-on-channel', c) ...

    @property
    def exit_code(self) -> int:
        return {"terminated": 0, "blocked": 2, "limit": 3}[self.kind]

    def describe(self) -> str:
        if self.kind == "terminated":
            vals = ", ".join(d for _, d in self.threads)
            return f"AllTerminated [{vals}]"
        if self.kind == "limit":
            return "StepLimit"
        parts = ", ".join(f"t{i}:{k}" + (f"({d})" if d else "") for i, (k, d) in enumerate(self.threads))
        return f"Blocked [{parts}]"


# ---------------------------------------------------------------------------
# Evaluation contexts
# ---------------------------------------------------------------------------


def decompose(e):
    """Split an expression into its redex and a rebuild function. Returns
    None when e is a value (nothing to do)."""
    if is_value(e):
        return None
    if isinstance(e, sx.SwapE) and not is_value(e.expr):
        r, rb = decompose(e.expr)
        return r, (lambda x, rb=rb, e=e: sx.SwapE(e.field, rb(x)))
    if isinstance(e, sx.CallE) and not is_value(e.arg):
        r, rb = decompose(e.arg)
        return r, (lambda x, rb=rb, e=e: sx.CallE(e.field, e.method, rb(x)))
    if isinstance(e, sx.SelfCallE) and not is_value(e.arg):
        r, rb = decompose(e.arg)
        return r, (lambda x, rb=rb, e=e: sx.SelfCallE(e.method, rb(x)))
    if isinstance(e, sx.SpawnE) and not is_value(e.arg):
        r, rb = decompose(e.arg)
        return r, (lambda x, rb=rb, e=e: sx.SpawnE(e.cls, e.method, rb(x)))
    if isinstance(e, sx.SeqE) and not is_value(e.first):
        r, rb = decompose(e.first)
        return r, (lambda x, rb=rb, e=e: sx.SeqE(rb(x), e.second))
    if isinstance(e, sx.SwitchE) and not is_value(e.subject):
        r, rb = decompose(e.subject)
        return r, (lambda x, rb=rb, e=e: sx.SwitchE(rb(x), e.cases))
    if isinstance(e, sx.ReturnE) and not is_value(e.expr):
        r, rb = decompose(e.expr)
        return r, (lambda x, rb=rb: sx.ReturnE(rb(x)))
    return e, (lambda x: x)


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------


class Interpreter:
    def __init__(self, program: sx.Program):
        self.program = program

    # -- initial state -------------------------------------------------------

    def initial_config(self) -> Configuration:
        """Single thread: a fresh object of the main class with null fields is
        the current object, and the expression is the main method's body with
        its parameter replaced by null. (The alternative of wrapping the call
        in a dummy holder object so that execution starts from a method-call
        expression is not provided.)"""
        if self.program.main is None:
            raise MainMissing("program has no main designation")
        cname, mname = self.program.main
        decl = self.program.classes.get(cname)
        if decl is None:
            raise MainMissing(f"main class {cname!r} is not declared")
        mdef = decl.method(mname)
        if mdef is None:
            raise MainMissing(f"main method {cname}.{mname} is not defined")
        heap = Heap().add("top", ObjectRecord(decl.name, tuple((f, sx.NULL_E) for f in decl.fields)))
        body = sx.subst_expr(mdef.body, mdef.param, sx.NULL_E)
        thread = Thread(heap, Path("top"), body)
        return Configuration(threads=(thread,))

    # -- one deterministic or sampled step ------------------------------------

    def step(self, conf: Configuration, rng: Optional[random.Random] = None):
        """One reduction. Returns (conf', event) or None when stuck."""
        locals_, rendezvous = self._enabled(conf)
        if rng is None:
            if locals_:
                return self._fire_local(conf, locals_[0])
            if rendezvous:
                return self._fire_rendezvous(conf, rendezvous[0])
            return None
        choices = [("l", c) for c in locals_] + [("r", c) for c in rendezvous]
        if not choices:
            return None
        kind, chosen = choices[rng.randrange(len(choices))]
        if kind == "l":
            return self._fire_local(conf, chosen)
        return self._fire_rendezvous(conf, chosen)

    def _enabled(self, conf: Configuration):
        """Enabled thread-local steps (thread indices) and rendezvous pairs."""
        locals_ = []
        offers = {"accept": [], "request": [], "send": [], "recv": []}
        for i, th in enumerate(conf.threads):
            d = decompose(th.expr)
            if d is None:
                continue
            redex, _ = d
            if isinstance(redex, sx.CallE):
                rec = th.heap.resolve(th.path)
                val = rec.get(redex.field)
                if isinstance(val, sx.AccessE):
                    if redex.method == "accept":
                        offers["accept"].append((val.name, i))
                        continue
                    if redex.method == "request":
                        offers["request"].append((val.name, i))
                        continue
                    raise RuntimeFault(
                        f"thread {i}: method {redex.method!r} on access point {val.name!r}"
                    )
                if isinstance(val, sx.EndpointE):
                    if redex.method == "send":
                        offers["send"].append((val.chan, val.polarity, i, redex.arg))
                        continue
                    if redex.method == "receive":
                        offers["recv"].append((val.chan, val.polarity, i))
                        continue
                    raise RuntimeFault(
                        f"thread {i}: method {redex.method!r} on channel {val.chan!r}"
                    )
            locals_.append(i)
        pairs = []
        for n, i in offers["accept"]:
            for n2, j in offers["request"]:
                if n == n2 and i != j:
                    pairs.append(("init", n, i, j))
        for c, p, i, v in offers["send"]:
            for c2, p2, j in offers["recv"]:
                if c == c2 and p2 != p and i != j:
                    pairs.append(("com", c, i, j, v))
        pairs.sort(key=lambda t: (t[2], t[3], t[1]))
        return locals_, pairs

    def _fire_local(self, conf: Configuration, i: int):
        th = conf.threads[i]
        redex, rebuild = decompose(th.expr)

        if isinstance(redex, sx.NewE):
            decl = self.program.cls(redex.cls)
            oid, conf = conf.fresh_obj()
            heap = th.heap.add(oid, ObjectRecord(decl.name, tuple((f, sx.NULL_E) for f in decl.fields)))
            conf = conf.with_thread(i, Thread(heap, th.path, rebuild(sx.ObjIdE(oid))))
            return conf, StepEvent("New", (i,), cls=redex.cls, oid=oid)

        if isinstance(redex, sx.SwapE):
            rec = th.heap.resolve(th.path)
            old = rec.get(redex.field)
            heap = th.heap.write(th.path, redex.field, redex.expr)
            conf = conf.with_thread(i, Thread(heap, th.path, rebuild(old)))
            return conf, StepEvent(
                "Swap", (i,), field=redex.field, value=redex.expr, out_value=old
            )

        if isinstance(redex, sx.CallE):
            rec = th.heap.resolve(th.path)
            val = rec.get(redex.field)
            if not isinstance(val, sx.ObjIdE):
                raise RuntimeFault(f"call on non-object field {redex.field!r}")
            callee = th.heap.record(val.oid)
            decl = self.program.cls(callee.cls)
            mdef = decl.method(redex.method)
            if mdef is None:
                raise RuntimeFault(f"class {callee.cls} has no method {redex.method!r}")
            body = sx.subst_expr(mdef.body, mdef.param, redex.arg)
            conf = conf.with_thread(
                i, Thread(th.heap, th.path.child(redex.field), rebuild(sx.ReturnE(body)))
            )
            return conf, StepEvent(
                "Call", (i,), field=redex.field, method=redex.method,
                arg=redex.arg, oid=val.oid, cls=callee.cls,
            )

        if isinstance(redex, sx.SelfCallE):
            rec = th.heap.resolve(th.path)
            decl = self.program.cls(rec.cls)
            mdef = decl.method(redex.method)
            if mdef is None:
                raise RuntimeFault(f"class {rec.cls} has no method {redex.method!r}")
            body = sx.subst_expr(mdef.body, mdef.param, redex.arg)
            conf = conf.with_thread(i, Thread(th.heap, th.path, rebuild(body)))
            return conf, StepEvent("SelfCall", (i,), method=redex.method, arg=redex.arg)

        if isinstance(redex, sx.SeqE):
            conf = conf.with_thread(i, Thread(th.heap, th.path, rebuild(redex.second)))
            return conf, StepEvent("Seq", (i,), value=redex.first)

        if isinstance(redex, sx.SwitchE):
            if not isinstance(redex.subject, sx.LabelE):
                raise RuntimeFault(f"switch on non-label value {redex.subject!r}")
            try:
                chosen = redex.case(redex.subject.label)
            except KeyError:
                raise RuntimeFault(f"switch has no case {redex.subject.label!r}") from None
            conf = conf.with_thread(i, Thread(th.heap, th.path, rebuild(chosen)))
            return conf, StepEvent("Switch", (i,), label=redex.subject.label)

        if isinstance(redex, sx.WhileE):
            expanded = sx.SwitchE(
                redex.cond,
                (
                    ("TRUE", sx.SeqE(redex.body, redex)),
                    ("FALSE", sx.NULL_E),
                ),
            )
            conf = conf.with_thread(i, Thread(th.heap, th.path, rebuild(expanded)))
            return conf, StepEvent("While", (i,))

        if isinstance(redex, sx.ReturnE):
            conf = conf.with_thread(
                i, Thread(th.heap, th.path.parent(), rebuild(redex.expr))
            )
            return conf, StepEvent("Return", (i,), value=redex.expr)

        if isinstance(redex, sx.SpawnE):
            decl = self.program.cls(redex.cls)
            mdef = decl.method(redex.method)
            if mdef is None:
                raise RuntimeFault(f"class {redex.cls} has no method {redex.method!r}")
            oid, conf = conf.fresh_obj()
            heap = Heap().add(oid, ObjectRecord(decl.name, tuple((f, sx.NULL_E) for f in decl.fields)))
            body = sx.subst_expr(mdef.body, mdef.param, sx.NULL_E)
            new_thread = Thread(heap, Path(oid), body)
            conf = conf.with_thread(i, Thread(th.heap, th.path, rebuild(sx.NULL_E)))
            conf = replace(conf, threads=conf.threads + (new_thread,))
            return conf, StepEvent(
                "Spawn", (i,), cls=redex.cls, method=redex.method, oid=oid,
                arg=redex.arg, new_thread=len(conf.threads) - 1,
            )

        raise RuntimeFault(f"no rule for redex {type(redex).__name__}")

    def _fire_rendezvous(self, conf: Configuration, pair):
        if pair[0] == "init":
            _, n, i, j = pair
            cname, conf = conf.fresh_chan()
            conf = replace(conf, bound_channels=conf.bound_channels | {cname})
            th_a, th_r = conf.threads[i], conf.threads[j]
            _, rb_a = decompose(th_a.expr)
            _, rb_r = decompose(th_r.expr)
            conf = conf.with_thread(
                i, Thread(th_a.heap, th_a.path, rb_a(sx.EndpointE(cname, "+")))
            )
            conf = conf.with_thread(
                j, Thread(th_r.heap, th_r.path, rb_r(sx.EndpointE(cname, "-")))
            )
            return conf, StepEvent("Init", (i, j), access=n, chan=cname)

        _, c, i, j, v = pair
        th_s, th_r = conf.threads[i], conf.threads[j]
        _, rb_s = decompose(th_s.expr)
        _, rb_r = decompose(th_r.expr)
        if isinstance(v, sx.ObjIdE):
            down, up = th_s.heap.split(v.oid)
            phi = {}
            for o in down.descendants(v.oid):
                fresh, conf = conf.fresh_obj()
                phi[o] = fresh
            moved = down.rename(phi)
            conf = conf.with_thread(i, Thread(up, th_s.path, rb_s(sx.NULL_E)))
            conf = conf.with_thread(
                j, Thread(th_r.heap.merge(moved), th_r.path, rb_r(sx.ObjIdE(phi[v.oid])))
            )
            return conf, StepEvent(
                "ComObj", (i, j), chan=c, oid=v.oid,
                phi=tuple(sorted(phi.items())),
            )
        conf = conf.with_thread(i, Thread(th_s.heap, th_s.path, rb_s(sx.NULL_E)))
        conf = conf.with_thread(j, Thread(th_r.heap, th_r.path, rb_r(v)))
        return conf, StepEvent("ComBase", (i, j), chan=c, value=v)

    # -- outcomes -------------------------------------------------------------

    def classify(self, conf: Configuration) -> Outcome:
        """Classification of a stuck configuration, per thread."""
        states = []
        all_done = True
        for i, th in enumerate(conf.threads):
            d = decompose(th.expr)
            if d is None:
                states.append(("terminated", render_expr(th.expr)))
                continue
            all_done = False
            redex, _ = d
            if isinstance(redex, sx.CallE):
                val = th.heap.resolve(th.path).get(redex.field)
                if isinstance(val, sx.AccessE):
                    states.append((f"unmatched-{redex.method}", val.name))
                    continue
                if isinstance(val, sx.EndpointE):
                    states.append(("deadlocked-on-channel", val.chan))
                    continue
            raise RuntimeFault(f"thread {i} is stuck on a non-communication redex")
        if all_done:
            return Outcome("terminated", tuple(states))
        return Outcome("blocked", tuple(states))

    def run(self, limit: int, seed: Optional[int] = None, observer=None):
        """Drive the configuration up to `limit` steps. The observer, when
        given, is called as observer(step_no, before, event, after)."""
        conf = self.initial_config()
        rng = random.Random(seed) if seed is not None else None
        events = []
        for step_no in range(1, limit + 1):
            result = self.step(conf, rng)
            if result is None:
                return self.classify(conf), events, conf
            before = conf
            conf, ev = result
            events.append(ev)
            if observer is not None:
                observer(step_no, before, ev, conf)
        if all(is_value(th.expr) for th in conf.threads):
            return self.classify(conf), events, conf
        return Outcome("limit"), events, conf

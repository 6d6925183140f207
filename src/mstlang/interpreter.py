"""Small-step execution of configurations.

Each thread is a (heap, current path, expression) triple; communication is a
synchronous rendezvous between two threads (no buffering). The default
scheduler is deterministic: threads are scanned in index order and the first
enabled thread-local step fires; if none exists, the least enabled rendezvous
pair fires. With a seed, the scheduler instead samples uniformly among all
enabled steps.

A step reduces a redex inside an evaluation context E[e], kept as in the CEK
machine (Felleisen and Friedman, 1986) instead of searched for again. A
thread's focus is its redex and the context frames around it, each frame a
node whose hole (the operand it reduces first) holds the rest of the context
(`syntax.focus`). It is found once per thread, on first use, and kept on the
thread (`Thread.focus`), where `_enabled`, the rule that fires, `classify`
and the monitor read it. A rule makes the next thread from the same frames
and what replaces the redex (`Thread.plugged`), so the next focus is found
from the replacement alone, and the expression, `plug(frames, x)`, is built
only when something reads it. A thread the step did not touch stays the
same object and is not searched again. With heaps whose updates copy
O(sqrt n) records amortised (`syntax.Heap`), an unmonitored step costs about
the same at any heap size and context depth. The current path adds one
linked cell per pending call, which knows the object the call opened
(`syntax.Path`), so a call, a return and resolving the current object cost
the same at any call depth too. One part still grows: an object transfer
checks that the sender's heap is complete.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Optional

from . import syntax as sx
from .render import render_expr
from .syntax import (
    Configuration,
    Heap,
    ObjectRecord,
    Path,
    Thread,
    focus,
    plug,
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
    """Split an expression into its redex and a rebuild function, None when
    e is a value. The interpreter itself reads each thread's kept focus
    (`Thread.focus`); this searches e afresh."""
    found = focus(e)
    if found is None:
        return None
    redex, frames = found
    return redex, partial(plug, frames)


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------


def _null_object(decl: sx.ClassDecl) -> ObjectRecord:
    """A fresh object of the class, every field null."""
    return ObjectRecord(decl.name, tuple((f, sx.NULL_E) for f in decl.fields))


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
        if decl.method(mname) is None:
            raise MainMissing(f"main method {cname}.{mname} is not defined")
        return Configuration(threads=(self._root_thread("top", cname, mname),))

    def _root_thread(self, oid, cls, method) -> Thread:
        """A thread whose root, a fresh object `oid` of `cls`, runs `method`
        called with null."""
        heap = Heap().add(oid, _null_object(self.program.cls(cls)))
        return Thread(heap, Path(oid), self._body(cls, method, sx.NULL_E))

    def _body(self, cls, method, arg):
        """The body of `cls.method` with its parameter replaced by `arg`."""
        mdef = self.program.cls(cls).method(method)
        if mdef is None:
            raise RuntimeFault(f"class {cls} has no method {method!r}")
        return sx.subst_expr(mdef.body, mdef.param, arg)

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
            found = th.focus
            if found is None:
                continue
            redex = found[0]
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
        redex, frames = th.focus

        if isinstance(redex, sx.NewE):
            oid, conf = conf.fresh_obj()
            heap = th.heap.add(oid, _null_object(self.program.cls(redex.cls)))
            conf = conf.with_thread(i, Thread.plugged(heap, th.path, frames, sx.ObjIdE(oid)))
            return conf, StepEvent("New", (i,), cls=redex.cls, oid=oid)

        if isinstance(redex, sx.SwapE):
            rec = th.heap.resolve(th.path)
            old = rec.get(redex.field)
            heap = th.heap.write(th.path, redex.field, redex.expr)
            conf = conf.with_thread(i, Thread.plugged(heap, th.path, frames, old))
            return conf, StepEvent(
                "Swap", (i,), field=redex.field, value=redex.expr, out_value=old
            )

        if isinstance(redex, sx.CallE):
            rec = th.heap.resolve(th.path)
            val = rec.get(redex.field)
            if not isinstance(val, sx.ObjIdE):
                raise RuntimeFault(f"call on non-object field {redex.field!r}")
            callee = th.heap.record(val.oid)
            body = self._body(callee.cls, redex.method, redex.arg)
            path = th.path.child(redex.field, val.oid)
            conf = conf.with_thread(i, Thread.plugged(th.heap, path, frames, sx.ReturnE(body)))
            return conf, StepEvent(
                "Call", (i,), field=redex.field, method=redex.method,
                arg=redex.arg, oid=val.oid, cls=callee.cls,
            )

        if isinstance(redex, sx.SelfCallE):
            body = self._body(th.heap.resolve(th.path).cls, redex.method, redex.arg)
            conf = conf.with_thread(i, Thread.plugged(th.heap, th.path, frames, body))
            return conf, StepEvent("SelfCall", (i,), method=redex.method, arg=redex.arg)

        if isinstance(redex, sx.SeqE):
            conf = conf.with_thread(i, Thread.plugged(th.heap, th.path, frames, redex.second))
            return conf, StepEvent("Seq", (i,), value=redex.first)

        if isinstance(redex, sx.SwitchE):
            if not isinstance(redex.subject, sx.LabelE):
                raise RuntimeFault(f"switch on non-label value {redex.subject!r}")
            try:
                chosen = redex.case(redex.subject.label)
            except KeyError:
                raise RuntimeFault(f"switch has no case {redex.subject.label!r}") from None
            conf = conf.with_thread(i, Thread.plugged(th.heap, th.path, frames, chosen))
            return conf, StepEvent("Switch", (i,), label=redex.subject.label)

        if isinstance(redex, sx.WhileE):
            expanded = sx.SwitchE(
                redex.cond,
                (
                    ("TRUE", sx.SeqE(redex.body, redex)),
                    ("FALSE", sx.NULL_E),
                ),
            )
            conf = conf.with_thread(i, Thread.plugged(th.heap, th.path, frames, expanded))
            return conf, StepEvent("While", (i,))

        if isinstance(redex, sx.ReturnE):
            conf = conf.with_thread(
                i, Thread.plugged(th.heap, th.path.parent(), frames, redex.expr)
            )
            return conf, StepEvent("Return", (i,), value=redex.expr)

        if isinstance(redex, sx.SpawnE):
            oid, conf = conf.fresh_obj()
            new_thread = self._root_thread(oid, redex.cls, redex.method)
            conf = conf.with_thread(i, Thread.plugged(th.heap, th.path, frames, sx.NULL_E))
            conf = Configuration(conf.threads + (new_thread,), conf.next_obj, conf.next_chan)
            return conf, StepEvent(
                "Spawn", (i,), cls=redex.cls, method=redex.method, oid=oid,
                arg=redex.arg, new_thread=len(conf.threads) - 1,
            )

        raise RuntimeFault(f"no rule for redex {type(redex).__name__}")

    def _fire_rendezvous(self, conf: Configuration, pair):
        if pair[0] == "init":
            _, n, i, j = pair
            cname, conf = conf.fresh_chan()
            conf = self._resume(conf, i, sx.EndpointE(cname, "+"))
            conf = self._resume(conf, j, sx.EndpointE(cname, "-"))
            return conf, StepEvent("Init", (i, j), access=n, chan=cname)

        _, c, i, j, v = pair
        if isinstance(v, sx.ObjIdE):
            th_s, th_r = conf.threads[i], conf.threads[j]
            down, up = th_s.heap.split(v.oid)
            phi = {}
            for o in down.descendants(v.oid):
                fresh, conf = conf.fresh_obj()
                phi[o] = fresh
            moved = down.rename(phi)
            conf = self._resume(conf, i, sx.NULL_E, up)
            conf = self._resume(conf, j, sx.ObjIdE(phi[v.oid]), th_r.heap.merge(moved))
            return conf, StepEvent(
                "ComObj", (i, j), chan=c, oid=v.oid,
                phi=tuple(sorted(phi.items())),
            )
        conf = self._resume(conf, i, sx.NULL_E)
        conf = self._resume(conf, j, v)
        return conf, StepEvent("ComBase", (i, j), chan=c, value=v)

    @staticmethod
    def _resume(conf: Configuration, i: int, x, heap=None) -> Configuration:
        """Thread i with its redex, a communication, replaced by x, and its
        heap by `heap` when given."""
        th = conf.threads[i]
        heap = th.heap if heap is None else heap
        return conf.with_thread(i, Thread.plugged(heap, th.path, th.focus[1], x))

    # -- outcomes -------------------------------------------------------------

    def classify(self, conf: Configuration) -> Outcome:
        """Classification of a stuck configuration, per thread."""
        states = []
        all_done = True
        for i, th in enumerate(conf.threads):
            found = th.focus
            if found is None:
                states.append(("terminated", render_expr(th.expr)))
                continue
            all_done = False
            redex = found[0]
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
        if all(th.focus is None for th in conf.threads):
            return self.classify(conf), events, conf
        return Outcome("limit"), events, conf

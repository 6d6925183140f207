import inspect
import sys
from dataclasses import replace

import pytest

from conftest import DEADLOCKS, RUNNABLE, load_checked
from mstlang.channels import dual
from mstlang.interpreter import Interpreter
from mstlang.monitor import (
    Monitor,
    MonitorViolation,
    TraceCall,
    TraceLabel,
    TypeErrorTransition,
    lts_step,
    parse_trace,
    replay_trace,
)
from mstlang.parser import parse_channel_type, parse_program
from mstlang.parser import parse_session_type as pt
from mstlang.subtyping import equivalent
from mstlang.syntax import (
    EndpointE,
    LabelE,
    ObjectInternal,
    Thread,
    VariantS,
    unfold,
)
from mstlang import monitor, syntax, typechecker
from mstlang.typechecker import Judgements, check_program
from progen import generate


def monitored_run(name, limit=2000, seed=None, states=True, traces=True):
    prog, report, ctx = load_checked(name)
    assert report.ok, report.lines()
    interp = Interpreter(prog)
    mon = Monitor(prog, ctx, verify_states=states, verify_traces=traces)
    mon.start(interp.initial_config())
    outcome, events, conf = interp.run(limit, seed=seed, observer=mon.on_step)
    return outcome, events, conf, mon


# -- LTS and call traces --------------------------------------------------------


def test_lts_open_edge(file_prog):
    init = pt("File.Init", file_prog)
    (after,) = lts_step(init, TraceCall("open"))
    u = unfold(after)
    assert isinstance(u, VariantS)
    assert {l for l, _ in u.cases} == {"OK", "ERROR"}
    (opened,) = lts_step(after, TraceLabel("OK"))
    assert equivalent(opened, pt("File.Open", file_prog))


def test_lts_label_identity_on_branch(file_prog):
    init = pt("File.Init", file_prog)
    assert lts_step(init, TraceLabel("ANY")) == (init,)


def test_lts_type_error(file_prog):
    opened = pt("File.Open", file_prog)
    with pytest.raises(TypeErrorTransition):
        lts_step(opened, TraceCall("read"))


def test_replay_file_traces(file_prog):
    init = pt("File.Init", file_prog)
    replay_trace(init, parse_trace("open OK hasNext FALSE close"))
    with pytest.raises(TypeErrorTransition) as err:
        replay_trace(init, parse_trace("read"))
    assert "position 1" in str(err.value)
    with pytest.raises(TypeErrorTransition) as err:
        replay_trace(init, parse_trace("open OK read"))
    assert "position 3" in str(err.value)


def _successors(states, action):
    return tuple(nxt for st in states for nxt in lts_step(st, action))


def test_reached_state_clauses():
    # New seeds the class session; calls, returned labels and spawns step the
    # reached states; object transfer renames them; nothing else touches them
    seen = set()
    for name in ["reduction_ex.mst", "progs/p05_transfer.mst"]:
        prog, report, ctx = load_checked(name)
        interp = Interpreter(prog)
        mon = Monitor(prog, ctx)
        conf = interp.initial_config()
        mon.start(conf)
        cname, mname = prog.main
        assert mon._reached == {"top": lts_step(prog.classes[cname].session, TraceCall(mname))}
        step_no = 0
        while (step := interp.step(conf)) is not None:
            step_no += 1
            before, old = conf, dict(mon._reached)
            conf, ev = step
            mon.on_step(step_no, before, ev, conf)
            new = mon._reached
            if ev.rule == "New":
                assert new == {**old, ev.oid: (prog.classes[ev.cls].session,)}
            elif ev.rule == "Call":
                assert new == {**old, ev.oid: _successors(old[ev.oid], TraceCall(ev.method))}
            elif ev.rule == "Return" and isinstance(ev.value, LabelE):
                th = before.threads[ev.threads[0]]
                oid = th.heap.resolve_id(th.path)
                assert new == {**old, oid: _successors(old[oid], TraceLabel(ev.value.label))}
            elif ev.rule == "Spawn":
                cls = prog.classes[ev.cls]
                assert new == {**old, ev.oid: lts_step(cls.session, TraceCall(ev.method))}
            elif ev.rule == "ComObj":
                phi = dict(ev.phi)
                assert set(phi) <= set(old) and not set(phi.values()) & set(old)
                assert new == {phi.get(o, o): s for o, s in old.items()}
            else:
                assert new == old
                continue
            seen.add(ev.rule)
        assert all(mon._reached[oid] for th in conf.threads for oid in th.heap.ids)
    assert seen == {"New", "Call", "Return", "Spawn", "ComObj"}


def test_check_traces_reports_object_without_record():
    prog, report, ctx = load_checked("file.mst")
    from mstlang.syntax import Configuration, Heap, ObjectRecord, Path, Thread, NULL_E

    heap = Heap().add("o", ObjectRecord("File", (("state", NULL_E),)))
    conf = Configuration(threads=(Thread(heap, Path("o"), NULL_E),))
    with pytest.raises(MonitorViolation) as err:
        Monitor(prog, ctx).check_traces(conf)
    assert err.value.kind == "TraceInvalid"
    assert err.value.detail.startswith("object o (File): ")


# -- tracked environments -------------------------------------------------------


def test_reduction_example_gamma_sequence():
    prog, report, ctx = load_checked("reduction_ex.mst")
    interp = Interpreter(prog)
    mon = Monitor(prog, ctx)
    mon.start(interp.initial_config())

    lit = pt("Cell.Lit", prog)
    dark = pt("Cell.Dark", prog)
    cell_branch = prog.classes["Cell"].session
    variant = unfold(cell_branch).entries[0].cont

    expected = {}  # rule occurrence -> expected (f type, g type)
    snapshots = []

    def observer(step_no, before, ev, after):
        mon.on_step(step_no, before, ev, after)
        top = mon.envs[0].gamma[("obj", "top")]
        snapshots.append((ev.rule, top))

    outcome, events, conf = interp.run(100, observer=observer)
    assert outcome.kind == "terminated"

    def f_g(t):
        assert isinstance(t, ObjectInternal)
        return t.typing.get("f"), t.typing.get("g")

    by_rule = {}
    for rule, top in snapshots:
        by_rule.setdefault(rule, []).append(top)

    # after the call, f is the open internal view of the cell
    f, g = f_g(by_rule["Call"][0])
    assert isinstance(f, ObjectInternal) and f.cls == "Cell"
    # after the return, f holds the component selected by the actual tag
    f, g = f_g(by_rule["Return"][0])
    assert equivalent(f, lit)
    # after parking the tag, f is widened back to the full variant and g links it
    first_swap_after_return = None
    seen_return = False
    for rule, top in snapshots:
        if rule == "Return":
            seen_return = True
        elif rule == "Swap" and seen_return:
            first_swap_after_return = top
            break
    f, g = f_g(first_swap_after_return)
    assert equivalent(f, variant)
    assert repr(g) == "link f"
    # the second swap reads the tag back and resolves the variant
    f, g = f_g(by_rule["Swap"][-1])
    assert equivalent(f, lit)
    # the switch leaves the environment unchanged
    f, g = f_g(by_rule["Switch"][0])
    assert equivalent(f, lit)


def test_theta_duality_during_delegation():
    outcome, events, conf, mon = monitored_run("progs/p04_delegate.mst")
    assert outcome.kind == "terminated"
    # after the run, every channel that still has both endpoints is dual
    for (c, p), sigma in mon.theta.items():
        if p == "+" and (c, "-") in mon.theta:
            other = mon.theta[(c, "-")]
            assert dual(sigma).canon() == other.canon() or equivalent(
                pt("{}"), pt("{}")
            )


def test_monitored_runs_clean():
    for name in ["file.mst", "progs/p05_transfer.mst", "progs/p11_reuse_access.mst"]:
        outcome, events, conf, mon = monitored_run(name)
        assert outcome.kind == "terminated"


def test_corrupted_parked_tag_detected():
    # run until a tag is parked in a field, then plant a label outside the
    # variant it is linked to
    prog, report, ctx = load_checked("reduction_ex.mst")
    interp = Interpreter(prog)
    mon = Monitor(prog, ctx)
    conf = interp.initial_config()
    mon.start(conf)
    step_no = 0
    seen_return = False
    while True:
        step_no += 1
        before = conf
        conf, ev = interp.step(conf)
        mon.on_step(step_no, before, ev, conf)
        if ev.rule == "Return":
            seen_return = True
        if seen_return and ev.rule == "Swap":
            break
    th = conf.threads[0]
    assert th.heap.record("top").get("g") == LabelE("ON")
    bad_heap = th.heap.replace("top", th.heap.record("top").set("g", LabelE("BOGUS")))
    from mstlang.syntax import Thread

    bad = conf.with_thread(0, Thread(bad_heap, th.path, th.expr))
    with pytest.raises(MonitorViolation) as err:
        mon.check_state(bad)
    assert err.value.kind == "StateIllTyped"


def test_corrupted_open_object_field_detected():
    # corrupt an enumeration-typed field of an object that is mid-call
    prog, report, ctx = load_checked("file.mst")
    interp = Interpreter(prog)
    mon = Monitor(prog, ctx)
    conf = interp.initial_config()
    mon.start(conf)
    step_no = 0
    while True:
        step_no += 1
        before = conf
        conf, ev = interp.step(conf)
        mon.on_step(step_no, before, ev, conf)
        th = conf.threads[0]
        if len(th.path.fields) >= 2:  # inside File, opened by FileReader
            oid = th.heap.resolve_id(th.path)
            rec = th.heap.record(oid)
            if isinstance(rec.get("state"), LabelE):
                bad_heap = th.heap.replace(oid, rec.set("state", LabelE("INTRUDER")))
                from mstlang.syntax import Thread

                bad = conf.with_thread(0, Thread(bad_heap, th.path, th.expr))
                with pytest.raises(MonitorViolation) as err:
                    mon.check_state(bad)
                assert err.value.kind == "StateIllTyped"
                return
    raise AssertionError("never reached an open File with a label in state")


def test_trace_violation_detected_on_bad_trace():
    prog, report, ctx = load_checked("file.mst")
    interp = Interpreter(prog)
    mon = Monitor(prog, ctx)
    conf = interp.initial_config()
    mon.start(conf)
    for i in range(12):
        before = conf
        conf, ev = interp.step(conf)
        mon.on_step(i + 1, before, ev, conf)
    # corrupt the recorded progress of the file object: no state reached
    target = next(oid for th in conf.threads for oid, rec in th.heap.entries if rec.cls == "File")
    mon._reached[target] = ()
    with pytest.raises(MonitorViolation) as err:
        mon.check_traces(conf)
    assert err.value.kind == "TraceInvalid"


def test_unchecked_program_raises_tracking_fault():
    text = """
    class P {
      session {Null use(Null): {}}
      use(x) { x }
    }
    class M {
      session {Null go(Null): {}}
      f;
      go(x) { f = new P(); f.use(null); f.use(null); }
    }
    main M.go;
    """
    from mstlang.parser import parse_channel_type, parse_program
    from mstlang.typechecker import check_program

    prog = parse_program(text)
    report, ctx = check_program(prog)
    assert not report.ok
    interp = Interpreter(prog)
    mon = Monitor(prog, ctx)
    with pytest.raises(MonitorViolation):
        # the initial state's expression already fails the re-check
        mon.start(interp.initial_config())
        interp.run(100, observer=mon.on_step)


def test_spawned_thread_env_created():
    outcome, events, conf, mon = monitored_run("progs/p03_spawn.mst")
    assert len(mon.envs) == len(conf.threads) == 3


def test_init_extends_theta_with_dual_entries():
    prog, report, ctx = load_checked("progs/p09_two_pairs.mst")
    interp = Interpreter(prog)
    mon = Monitor(prog, ctx)
    conf = interp.initial_config()
    mon.start(conf)
    step_no = 0
    while True:
        step_no += 1
        before = conf
        step = interp.step(conf)
        assert step is not None
        conf, ev = step
        mon.on_step(step_no, before, ev, conf)
        if ev.rule == "Init":
            plus = mon.theta[(ev.chan, "+")]
            minus = mon.theta[(ev.chan, "-")]
            assert dual(plus) == minus
            assert (ev.chan, "+") in mon._eps[ev.threads[0]]
            assert (ev.chan, "-") in mon._eps[ev.threads[1]]
            break


def test_combase_advances_both_endpoints():
    prog, report, ctx = load_checked("progs/p09_two_pairs.mst")
    interp = Interpreter(prog)
    mon = Monitor(prog, ctx)
    conf = interp.initial_config()
    mon.start(conf)
    step_no = 0
    while True:
        step_no += 1
        before = conf
        step = interp.step(conf)
        if step is None:
            break
        conf, ev = step
        mon.on_step(step_no, before, ev, conf)
        if ev.rule == "ComBase":
            from mstlang.syntax import ChanEnd

            assert isinstance(mon.theta[(ev.chan, "+")], ChanEnd)
            assert isinstance(mon.theta[(ev.chan, "-")], ChanEnd)
            break


def test_duplicate_endpoint_across_threads_detected():
    prog, report, ctx = load_checked("progs/p09_two_pairs.mst")
    interp = Interpreter(prog)
    mon = Monitor(prog, ctx)
    conf = interp.initial_config()
    mon.start(conf)
    step_no = 0
    ep = None
    while ep is None:
        step_no += 1
        before = conf
        conf, ev = interp.step(conf)
        mon.on_step(step_no, before, ev, conf)
        if ev.rule == "Init":
            from mstlang.syntax import EndpointE

            ep = EndpointE(ev.chan, "+")
    # plant a second occurrence of the endpoint in an unrelated thread
    from mstlang.syntax import Thread, heap_endpoints, endpoints_of

    victim = None
    for i, th in enumerate(conf.threads):
        if (ep.chan, ep.polarity) in heap_endpoints(th.heap) | endpoints_of(th.expr):
            continue
        for oid in th.heap.ids:
            if th.heap.record(oid).field_names:
                victim = (i, oid, th.heap.record(oid).field_names[0])
                break
        if victim:
            break
    assert victim is not None
    i, oid, field = victim
    th = conf.threads[i]
    rec = th.heap.record(oid)
    bad = conf.with_thread(i, Thread(th.heap.replace(oid, rec.set(field, ep)), th.path, th.expr))
    with pytest.raises(MonitorViolation) as err:
        mon.check_state(bad)
    assert err.value.kind in ("LinearityViolation", "StateIllTyped")


# Runtime states the checker's source rules reject: a self-call whose tag
# argument lies outside the annotation's parameter type, and an unknown class.
TAG_ARG_SELF_CALL = (
    "class M { session {Null go(Null): {}} k; go(x) { step(B) } "
    "req Null k ens Null k  Null step({A} y) { null } } main M.go;"
)
UNKNOWN_CLASS = "class M { session {Null go(Null): {}} k; go(x) { k = new Nope(); null } } main M.go;"


@pytest.mark.parametrize(
    "text, verdict",
    [
        (TAG_ARG_SELF_CALL, "ArgumentMismatch in go: argument of 'step' mismatches annotation"),
        (UNKNOWN_CLASS, "UnknownClass in go: unknown class 'Nope'"),
    ],
    ids=["tag-argument", "unknown-class"],
)
def test_state_rejected_by_source_rule_is_ill_typed(text, verdict):
    from mstlang.parser import parse_channel_type, parse_program
    from mstlang.typechecker import check_program

    prog = parse_program(text)
    report, ctx = check_program(prog)
    assert report.lines() == [f"CLASS M ERR {verdict}"]
    mon = Monitor(prog, ctx)
    with pytest.raises(MonitorViolation) as err:
        mon.start(Interpreter(prog).initial_config())
    assert err.value.kind == "StateIllTyped"
    assert err.value.step == 0
    assert verdict.split(" in go: ")[1] in err.value.detail


# -- re-checking only what a step touched ------------------------------------


class FullRecheckMonitor(Monitor):
    """Reference: re-checks every thread and channel after every step."""

    def on_step(self, step_no, before, ev, after):
        self.step_no = step_no
        self.track(before, ev, after)
        self._recheck(after)


def run_outcome(monitor_cls, prog, ctx, seed, limit, states, traces):
    # a copy of the checker's witness table per run: the monitor's
    # consistency checks add to it, and that can change a later run's verdict
    ctx = replace(ctx, witnesses={k: list(v) for k, v in ctx.witnesses.items()})
    interp = Interpreter(prog)
    mon = monitor_cls(prog, ctx, verify_states=states, verify_traces=traces)
    try:
        mon.start(interp.initial_config())
        outcome, events, _ = interp.run(limit, seed=seed, observer=mon.on_step)
    except MonitorViolation as v:
        return ("violation", v.kind, v.step, v.thread, v.detail)
    except Exception as e:  # interpreter faults of checker-rejected programs
        return ("fault", type(e).__name__, str(e))
    return (outcome.kind, len(events))


FLAG_SETS = [(True, True), (True, False), (False, True)]


def assert_same_outcomes(prog, ctx, limit, reference=FullRecheckMonitor):
    outcomes = []
    for seed in (None, 1, 2):
        for states, traces in FLAG_SETS:
            full = run_outcome(reference, prog, ctx, seed, limit, states, traces)
            delta = run_outcome(Monitor, prog, ctx, seed, limit, states, traces)
            assert delta == full, (seed, states, traces)
            outcomes.append(delta)
    return outcomes


def test_delta_recheck_matches_full_recheck_on_corpus():
    for name in RUNNABLE + DEADLOCKS:
        prog, _, ctx = load_checked(name)
        for outcome in assert_same_outcomes(prog, ctx, 200):
            assert outcome[0] in ("terminated", "blocked", "limit"), (name, outcome)


def test_monitored_runs_on_one_context_agree():
    # a checker-rejected program whose monitored run attempts consistency
    # proofs that fail; they must leave no witness for a later run to use
    prog = parse_program(generate(10))
    report, ctx = check_program(prog)
    assert not report.ok
    outcomes = []
    for _ in range(2):
        interp = Interpreter(prog)
        mon = Monitor(prog, ctx, verify_states=True, verify_traces=True)
        with pytest.raises(MonitorViolation) as info:
            mon.start(interp.initial_config())
            interp.run(60, seed=1, observer=mon.on_step)
        v = info.value
        outcomes.append((v.kind, v.step, v.thread, v.detail))
    assert outcomes[0] == outcomes[1]


def test_delta_recheck_matches_full_recheck_on_generated_programs():
    verdicts = set()
    violations = 0
    for n in range(80):
        prog = parse_program(generate(n))
        report, ctx = check_program(prog)
        verdicts.add(report.ok)
        outcomes = assert_same_outcomes(prog, ctx, 60)
        violations += sum(o[0] == "violation" for o in outcomes)
    assert verdicts == {True, False} and violations > 0


def test_linearity_checked_through_the_delta():
    # a thread-local step whose result hands one thread an endpoint that an
    # untouched thread still holds: only the kept endpoint sets can see it
    prog, report, ctx = load_checked("progs/p09_two_pairs.mst")
    interp = Interpreter(prog)
    mon = Monitor(prog, ctx)
    conf = interp.initial_config()
    mon.start(conf)
    step_no, chan = 0, None
    while True:
        step_no += 1
        before = conf
        conf, ev = interp.step(before)
        if chan is not None and len(ev.threads) == 1 and ev.threads[0] != holder:
            break
        mon.on_step(step_no, before, ev, conf)
        if ev.rule == "Init":
            chan, holder = ev.chan, ev.threads[1]  # the requester holds chan-
    i = ev.threads[0]
    th = conf.threads[i]
    rec = th.heap.record(th.path.root)
    bad_rec = rec.set(rec.field_names[0], EndpointE(chan, "-"))
    bad = conf.with_thread(i, Thread(th.heap.replace(th.path.root, bad_rec), th.path, th.expr))
    with pytest.raises(MonitorViolation) as err:
        mon.on_step(step_no, before, ev, bad)
    assert (err.value.kind, err.value.step, err.value.thread, err.value.detail) == (
        "LinearityViolation", step_no, max(i, holder), f"endpoint {chan}- occurs twice"
    )


def _monitor_until(name, stop):
    """Monitors a program up to the first step that `stop` selects, and
    returns the monitor and that step, not yet taken by the monitor."""
    prog, report, ctx = load_checked(name)
    interp = Interpreter(prog)
    mon = Monitor(prog, ctx)
    conf = interp.initial_config()
    mon.start(conf)
    step_no = 0
    while True:
        step_no += 1
        before = conf
        conf, ev = interp.step(before)
        if stop(ev):
            return mon, (step_no, before, ev, conf)
        mon.on_step(step_no, before, ev, conf)


def _planted_duality_fault(name, stop):
    """Takes the communication that `stop` selects with the receiver's
    channel type planted so that the communication leaves it one action
    longer than the sender's: each thread still agrees with its own
    endpoint, only the channel's duality fails. Returns the step's event
    and the violation."""
    mon, step = _monitor_until(name, stop)
    step_no, _, ev, _ = step
    receiver = ev.threads[1]
    pol = next(p for c, p in mon._eps[receiver] if c == ev.chan)
    mon.theta[(ev.chan, pol)] = parse_channel_type("?{PING}.!{PING}.End")
    with pytest.raises(MonitorViolation) as err:
        mon.on_step(*step)
    assert (err.value.kind, err.value.step, err.value.detail) == (
        "DualityViolation", step_no, f"channel {ev.chan} endpoints not dual"
    )
    return ev, err.value


def test_duality_checked_on_the_step_channel():
    # the fault names the thread holding the channel's + end, the receiver
    ev, err = _planted_duality_fault("progs/p09_two_pairs.mst", lambda ev: ev.rule == "ComBase")
    assert err.thread == ev.threads[1]


@pytest.mark.parametrize("name", ["progs/p04_delegate.mst", "progs/p14_box_delegate.mst"])
def test_duality_fault_names_the_thread_the_end_moved_to(name):
    # the ping channel's + end was accepted by t1, then delegated (p04) or
    # moved inside a transferred object (p14) to t2, which receives on it
    ping = lambda ev: ev.rule == "ComBase" and ev.value == LabelE("PING")
    ev, err = _planted_duality_fault(name, ping)
    assert ev.threads[1] == err.thread == 2


@pytest.mark.parametrize(
    "name, rule", [("progs/p09_two_pairs.mst", "ComBase"), ("progs/p05_transfer.mst", "ComObj")]
)
def test_communication_on_an_untyped_channel_is_a_tracking_fault(name, rule):
    mon, step = _monitor_until(name, lambda ev: ev.rule == rule)
    step_no, _, ev, _ = step
    del mon.theta[(ev.chan, "+")]
    with pytest.raises(MonitorViolation) as err:
        mon.on_step(*step)
    assert (err.value.kind, err.value.step, err.value.thread, err.value.detail) == (
        "TrackingFault", step_no, ev.threads[0],
        f"channel {ev.chan} missing from the channel environment",
    )


def spawned_workers(k):
    """A boot method spawns k workers, each looping forever."""
    spawns = " ".join("spawn Work.work(null);" for _ in range(k))
    return (
        "class Loop { session L where L = {{TRUE, FALSE} more(Null): <TRUE: L, FALSE: {}>} "
        "more(x) { TRUE } } "
        "class Work { session {Null work(Null): {}} c; "
        "work(x) { c = new Loop(); while (c.more(null)) { null; } } } "
        f"class Boot {{ session {{Null go(Null): {{}}}} go(x) {{ {spawns} }} }} main Boot.go;"
    )


@pytest.mark.parametrize("seed", [None, 1])
def test_expression_rechecks_per_step_independent_of_thread_count(seed):
    for k in (1, 8):
        prog = parse_program(spawned_workers(k))
        report, ctx = check_program(prog)
        assert report.ok, report.lines()
        mon = Monitor(prog, ctx)
        per_step = [0]  # the entry for start
        check = mon._check_expression

        def counted(*args):
            per_step[-1] += 1
            return check(*args)

        def observer(*step):
            per_step.append(0)
            mon.on_step(*step)

        mon._check_expression = counted
        interp = Interpreter(prog)
        mon.start(interp.initial_config())
        outcome, _, conf = interp.run(200, seed=seed, observer=observer)
        assert outcome.kind == "limit" and len(conf.threads) == k + 1
        assert per_step[0] == 1 and max(per_step[1:]) <= 2, k


# -- memoised expression judgements ---------------------------------------------


class FreshMemoMonitor(Monitor):
    """Reference: forgets every expression judgement after every step."""

    def on_step(self, step_no, before, ev, after):
        self._judgements = Judgements()
        super().on_step(step_no, before, ev, after)


def test_memo_matches_fresh_memo_on_corpus():
    for name in RUNNABLE + DEADLOCKS:
        prog, _, ctx = load_checked(name)
        for outcome in assert_same_outcomes(prog, ctx, 200, FreshMemoMonitor):
            assert outcome[0] in ("terminated", "blocked", "limit"), (name, outcome)


def test_memo_matches_fresh_memo_on_generated_programs():
    verdicts = set()
    violations = 0
    for n in range(80):
        prog = parse_program(generate(n))
        report, ctx = check_program(prog)
        verdicts.add(report.ok)
        outcomes = assert_same_outcomes(prog, ctx, 60, FreshMemoMonitor)
        violations += sum(o[0] == "violation" for o in outcomes)
    assert verdicts == {True, False} and violations > 0


# `while (c.more(null)) { t = new Junk(); t <-> null; null }` forever: every
# iteration drops a fresh object, so judgements under new ids never stop coming
HEAP_GROWTH = """
class Loop {
  session L where L = {{TRUE, FALSE} more(Null): <TRUE: L, FALSE: {}>}
  more(x) { TRUE }
}
class Junk { session {Null use(Null): {}} use(x) { x } }
class Main {
  session {Null go(Null): {}}
  c; t;
  go(x) { c = new Loop(); while (c.more(null)) { t = new Junk(); t <-> null; null } }
}
main Main.go;
"""


def growth_run(steps, cls=Monitor):
    """(outcome, events) of a monitored heap-growth run; the largest memo
    after a step; how many key tables the memo used."""
    prog = parse_program(HEAP_GROWTH)
    report, ctx = check_program(prog)
    assert report.ok, report.lines()
    interp = Interpreter(prog)
    mon = cls(prog, ctx)
    sizes, tables = [0], set()

    def observer(*step):
        mon.on_step(*step)
        sizes.append(len(mon._judgements.answers))
        tables.add(mon._judgements.keys)

    mon.start(interp.initial_config())
    outcome, events, _ = interp.run(steps, observer=observer)
    assert outcome.kind == "limit" and len(events) == steps
    return (outcome, events), max(sizes), len(tables)


def test_memo_starts_over_at_its_cap(monkeypatch):
    # a small cap, so that a short run fills the memo several times
    monkeypatch.setattr(Judgements, "CAP", 300)
    run, most, tables = growth_run(2000)
    assert most <= 300 and tables > 2
    assert run == growth_run(2000, FreshMemoMonitor)[0]


@pytest.mark.slow
def test_memo_stays_under_its_cap(monkeypatch):
    run, most, tables = growth_run(20_000)
    assert most <= Judgements.CAP and tables == 1
    monkeypatch.setattr(Judgements, "CAP", 4096)
    restarted, most, tables = growth_run(20_000)
    assert most <= 4096 and tables > 2 and restarted == run


def straight_line(n):
    """A method body of n swaps and assignments, labels among the values."""
    forms = ["f = null;", "g <-> A;", "f <-> B;", "g = null;"]
    body = " ".join(forms[i % 4] for i in range(n))
    return f"class L {{ session {{Null go(Null): {{}}}} f; g; go(x) {{ {body} null }} }} main L.go;"


def busiest_step(monkeypatch, n, steps=50):
    """The most infer_expr calls, and endpoint sets built, in any monitored
    step after the first on a straight-line body of n statements."""
    prog = parse_program(straight_line(n))
    report, ctx = check_program(prog)
    assert report.ok, report.lines()
    counts = [0, 0]
    infer, store = typechecker.infer_expr, syntax._store_endpoints

    def counted_infer(*args):
        counts[0] += 1
        return infer(*args)

    def counted_store(*args):
        counts[1] += 1
        store(*args)

    for module in (typechecker, monitor):
        monkeypatch.setattr(module, "infer_expr", counted_infer)
    monkeypatch.setattr(syntax, "_store_endpoints", counted_store)
    interp = Interpreter(prog)
    mon = Monitor(prog, ctx)
    conf = interp.initial_config()
    mon.start(conf)
    most = [0, 0]
    for step_no in range(1, steps + 1):
        before, seen = conf, list(counts)
        conf, ev = interp.step(conf)
        mon.on_step(step_no, before, ev, conf)
        if step_no > 1:
            most = [max(m, c - s) for m, c, s in zip(most, counts, seen)]
    return most


def test_step_cost_independent_of_body_length(monkeypatch):
    small = busiest_step(monkeypatch, 100)
    monkeypatch.undo()
    assert busiest_step(monkeypatch, 10_000) == small


def test_long_body_monitored_in_bounded_stack():
    # neither the expression keys nor the endpoint sets recurse per statement
    prog = parse_program(straight_line(10_000))
    report, ctx = check_program(prog)
    interp = Interpreter(prog)
    mon = Monitor(prog, ctx)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        mon.start(interp.initial_config())
        outcome, events, _ = interp.run(50, observer=mon.on_step)
    finally:
        sys.setrecursionlimit(limit)
    assert outcome.kind == "limit" and len(events) == 50

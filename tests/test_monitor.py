import inspect
import sys

import pytest

from conftest import DEADLOCKS, RUNNABLE, load_checked, root_type
from mstlang.channels import dual, subtype_channel, translate_channel
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
    EMPTY_BRANCH,
    Branch,
    ChanEnd,
    ChanOffer,
    EndpointE,
    EnumType,
    LabelE,
    ObjIdE,
    ObjectInternal,
    ObjectRecord,
    SessionType,
    Thread,
    VariantS,
    unfold,
)
from mstlang import monitor, syntax, typechecker
from mstlang.typechecker import CheckContext, Judgements, check_program
from gen import CALL_DESCENT, call_chain, rejoining_class, self_recursion
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


def _successor(state, action):
    (nxt,) = lts_step(state, action)  # a tracked call or label never forks
    return nxt


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
        assert mon._reached == {"top": _successor(prog.classes[cname].session, TraceCall(mname))}
        step_no = 0
        while (step := interp.step(conf)) is not None:
            step_no += 1
            before, old = conf, dict(mon._reached)
            conf, ev = step
            mon.on_step(step_no, before, ev, conf)
            new = mon._reached
            if ev.rule == "New":
                assert new == {**old, ev.oid: prog.classes[ev.cls].session}
            elif ev.rule == "Call":
                assert new == {**old, ev.oid: _successor(old[ev.oid], TraceCall(ev.method))}
            elif ev.rule == "Return" and isinstance(ev.value, LabelE):
                th = before.threads[ev.threads[0]]
                oid = th.heap.resolve_id(th.path)
                assert new == {**old, oid: _successor(old[oid], TraceLabel(ev.value.label))}
            elif ev.rule == "Spawn":
                cls = prog.classes[ev.cls]
                assert new == {**old, ev.oid: _successor(cls.session, TraceCall(ev.method))}
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


def test_spawned_root_its_session_cannot_call_is_trace_invalid():
    # the spawned thread's root enters a heap with no reached state; a step
    # re-checks the objects new to a heap, whatever the step's own objects
    text = (
        "class W { session {Null a(Null): {}} a(x) { null } b(x) { null } } "
        "class M { session {Null go(Null): {}} go(x) { spawn W.b(null) } } main M.go;"
    )
    prog = parse_program(text)
    report, ctx = check_program(prog)
    assert report.lines()[1].startswith("CLASS M ERR SpawnUnavailable")
    interp = Interpreter(prog)
    mon = Monitor(prog, ctx, verify_states=False)
    mon.start(interp.initial_config())
    with pytest.raises(MonitorViolation) as err:
        interp.run(10, observer=mon.on_step)
    assert (err.value.kind, err.value.step, err.value.thread, err.value.detail) == (
        "TraceInvalid", 1, 1, "object o0 (W): its calls reach no session state"
    )


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
        snapshots.append((ev.rule, root_type(mon.envs[0])))

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
    # after every step, every channel that has both endpoints is dual,
    # compared as Monitor._check_duality compares them; mid-run the ends are
    # not yet End, which is its own dual (from step 15, c0 is ?{PING}.End
    # against !{PING}.End)
    prog, report, ctx = load_checked("progs/p04_delegate.mst")
    interp = Interpreter(prog)
    mon = Monitor(prog, ctx)
    pairs, open_pairs = 0, 0

    def observer(*step):
        nonlocal pairs, open_pairs
        mon.on_step(*step)
        for (c, p), sigma in mon.theta.items():
            if p == "+" and (c, "-") in mon.theta:
                other = mon.theta[(c, "-")]
                assert subtype_channel(dual(sigma), other) and subtype_channel(other, dual(sigma))
                pairs += 1
                open_pairs += not isinstance(unfold(sigma), ChanEnd)

    mon.start(interp.initial_config())
    outcome, _, _ = interp.run(2000, observer=observer)
    assert outcome.kind == "terminated"
    assert pairs > 0 and open_pairs > 0


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
    mon._reached[target] = None
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
    from mstlang.syntax import Thread

    victim = None
    for i, th in enumerate(conf.threads):
        if (ep.chan, ep.polarity) in mon._eps[i]:
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
    """Reference: re-checks every thread and channel after every step, from
    heap summaries, an owner map and endpoint sets rebuilt from scratch, and
    looks at every object, id and endpoint of every thread."""

    def on_step(self, step_no, before, ev, after):
        self.step_no = step_no
        self.track(before, ev, after)
        self._recheck(after)


def run_outcome(monitor_cls, prog, ctx, seed, limit, states, traces):
    # a copy of the checker's witness table per run: the monitor's
    # consistency checks add to it, and that can change a later run's verdict
    ctx = CheckContext(ctx.program, {k: list(v) for k, v in ctx.witnesses.items()})
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
    # a heap past several folds of its update map
    prog = parse_program(HEAP_GROWTH)
    report, ctx = check_program(prog)
    assert assert_same_outcomes(prog, ctx, 400) == [("limit", 400)] * 9


def test_receives_on_one_offer_state_park_one_variant():
    # the server of remote1 receives on the same offer states again and
    # again: each parks the variant that the state's translation returns into
    prog, _, ctx = load_checked("remote1.mst")
    interp = Interpreter(prog)
    mon = Monitor(prog, ctx)
    parked = {}

    def observer(step_no, before, ev, after):
        offer = None
        if ev.rule == "ComBase":
            th = before.threads[ev.threads[1]]
            end = th.heap.resolve(th.path).get(th.focus[0].field)
            offer = unfold(mon.theta[(end.chan, end.polarity)])
        mon.on_step(step_no, before, ev, after)
        if isinstance(offer, ChanOffer):
            variant = mon.envs[ev.threads[1]].active_link.variant
            parked.setdefault(id(offer), (offer, []))[1].append(variant)

    mon.start(interp.initial_config())
    outcome, _, _ = interp.run(1000, observer=observer)
    assert outcome.kind == "limit" and max(len(v) for _, v in parked.values()) > 2
    for offer, variants in parked.values():
        assert all(v is variants[0] for v in variants)
        assert variants[0] == VariantS(tuple((l, translate_channel(c)) for l, c in offer.cases))


def test_heap_summaries_match_a_rebuild():
    # after every step, what the monitor keeps of each heap equals what a
    # rebuild from scratch reads off the configuration
    growth = parse_program(HEAP_GROWTH)
    programs = [load_checked(name)[::2] for name in RUNNABLE]
    programs.append((growth, check_program(growth)[1]))
    for prog, ctx in programs:
        for seed in (None, 1):
            kept, rebuilt = Monitor(prog, ctx), Monitor(prog, ctx)

            def observer(step_no, before, ev, after):
                kept.on_step(step_no, before, ev, after)
                rebuilt._keep_shape(after)
                assert kept._owner == rebuilt._owner and kept._eps == rebuilt._eps
                for i, summary in rebuilt._heaps.items():
                    mine = kept._heaps[i]
                    assert mine.heap is summary.heap
                    assert (mine.refs, mine.eps, mine.dangling) == (
                        summary.refs, summary.eps, summary.dangling
                    )

            interp = Interpreter(prog)
            kept.start(interp.initial_config())
            interp.run(300, seed=seed, observer=observer)


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


def rejoining_program(n):
    """`gen.rejoining_class(n)` with a main that walks D's protocol to its end."""
    calls = " ".join("d.a(null);" if i % 2 == 0 else "d.b(null);" for i in range(n))
    return rejoining_class(n) + (
        f"class M {{ session {{Null go(Null): {{}}}} d; go(x) {{ d = new D(); {calls} null }} }}"
        " main M.go;"
    )


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
    # protocols that branch and re-join, and a context that deepens by a
    # frame per self-call
    for text in [rejoining_program(n) for n in (2, 5)] + [self_recursion(n) for n in range(3)]:
        prog = parse_program(text)
        report, ctx = check_program(prog)
        assert report.ok, report.lines()
        assert all(o[0] in ("terminated", "limit") for o in assert_same_outcomes(prog, ctx, 60))
    # 40 pending calls that return one by one, and a descent capped at 40
    for text, limit, kind in [(call_chain(40), 300, "terminated"), (CALL_DESCENT, 200, "limit")]:
        prog = parse_program(text)
        report, ctx = check_program(prog)
        assert report.ok, report.lines()
        assert {o[0] for o in assert_same_outcomes(prog, ctx, limit)} == {kind}


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


@pytest.mark.parametrize("plant", ["object-of-another-thread", "dangling-id", "referenced-root"])
def test_heap_shape_checked_through_the_delta(plant):
    # a step whose heap holds what the event does not name: an object another
    # thread holds, a field naming no object, or a record holding the object
    # the step made, which the environment tracks as a root
    mon, (step_no, before, ev, conf) = _monitor_until(
        "progs/p05_transfer.mst", lambda ev: ev.rule == "New" and ev.threads[0] > 0
    )
    i = ev.threads[0]
    th = conf.threads[i]
    if plant == "object-of-another-thread":
        other = conf.threads[0].path.root
        heap = th.heap.add(other, conf.threads[0].heap.record(other))
        want = f"object {other} lives in two threads"
    elif plant == "dangling-id":
        rec = th.heap.record(th.path.root)
        heap = th.heap.replace(th.path.root, rec.set(rec.field_names[0], ObjIdE("gone")))
        want = "incomplete heap"
    else:
        rec = th.heap.record(ev.oid)
        heap = th.heap.add("holder", rec.set(rec.field_names[0], ObjIdE(ev.oid)))
        want = f"environment names {ev.oid} which is not a root"
    with pytest.raises(MonitorViolation) as err:
        mon.on_step(step_no, before, ev, conf.with_thread(i, Thread(heap, th.path, th.expr)))
    assert (err.value.kind, err.value.step, err.value.thread, err.value.detail) == (
        "StateIllTyped", step_no, i, want
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


def test_outward_walk_passes_kept_frames_on_the_corpus():
    # a step whose replacement is typed unlike the hole it replaced walks out
    # past kept frames: a loop's finer typing widened, a returned label that
    # resolves a variant
    walks = {}
    for name in RUNNABLE:
        walks[name] = monitored_run(name, limit=300)[3].outward_walks
    assert walks["progs/p13_while_enum.mst"] > 0 and walks["remote1.mst"] > 0, walks


def planted_outcome(monitor_cls, prog, ctx, at, plant, limit=400):
    """The violation, as (kind, step, thread, detail), of a monitored run
    whose tracked environment `plant(monitor, conf, event)` changes after
    step `at`; None when the run ends without one."""
    ctx = CheckContext(ctx.program, {k: list(v) for k, v in ctx.witnesses.items()})
    interp = Interpreter(prog)
    mon = monitor_cls(prog, ctx)
    conf = interp.initial_config()
    mon.start(conf)
    try:
        for step_no in range(1, limit + 1):
            before = conf
            conf, ev = interp.step(conf)
            mon.on_step(step_no, before, ev, conf)
            if step_no == at:
                plant(mon, conf, ev)
    except MonitorViolation as v:
        return (v.kind, v.step, v.thread, v.detail)
    return None


@pytest.mark.parametrize("labels", [{"A", "B"}, {"B"}])
def test_wrong_field_typing_in_a_deep_body_found_as_by_a_full_recheck(labels):
    # after the 50th self-call's assignment the field is typed wrong: the
    # step that reads it next, 50 frames deep, fails as a full re-check does
    prog = parse_program(self_recursion(1))
    _, ctx = check_program(prog)

    def plant(mon, conf, ev):
        root = mon.envs[0].opened[0].type
        mon.envs[0].retype(root.typing.set("k", EnumType(frozenset(labels))), 0)

    interp = Interpreter(prog)
    _, events, _ = interp.run(400)
    swaps = [n for n, ev in enumerate(events, 1) if ev.rule == "Swap"]
    found = [planted_outcome(m, prog, ctx, swaps[50], plant) for m in (Monitor, FullRecheckMonitor)]
    assert found[0] == found[1] and found[0] is not None, found
    assert found[0][:3] == ("StateIllTyped", swaps[50] + 1, 0)


def test_wrong_caller_typing_found_as_by_a_full_recheck():
    # while a call is pending, a field of the caller that the call did not
    # open is typed {}, and the same thread steps next: the kept frames'
    # judgements are not reused past that caller
    prog, report, ctx = load_checked("remote1.mst")
    interp = Interpreter(prog)
    conf, plants = interp.initial_config(), []
    for at in range(1, 120):
        conf, ev = interp.step(conf)
        i = ev.threads[0]
        if conf.threads[i].path.fields and interp.step(conf)[1].threads[0] == i:
            plants.append(at)

    def plant(mon, conf, ev):
        path, env = conf.threads[ev.threads[0]].path, mon.envs[ev.threads[0]]
        root = env.opened[0].type
        for name, t in root.typing.items:
            if name != path.fields[0] and isinstance(t, SessionType) and t != EMPTY_BRANCH:
                if isinstance(unfold(t), Branch):
                    env.retype(root.typing.set(name, EMPTY_BRANCH), 0)
                    return

    found = [
        [planted_outcome(m, prog, ctx, at, plant) for m in (Monitor, FullRecheckMonitor)]
        for at in plants
    ]
    assert all(delta == full for delta, full in found), found
    assert sum(delta is not None for delta, _ in found) >= 10


def planted_before_step(prog, ctx, at, plant, full, limit=1200, states=True):
    """The violation, as (kind, step, thread, detail), of a monitored run
    whose configuration or tracked environment `plant(monitor, conf)`
    changes at step `at`, before the monitor takes that step; the run goes
    on from the configuration it returns. With `full`, the steps from `at`
    on are re-checked in full, as `FullRecheckMonitor` does. Traces are
    verified, and states too unless `states` is false. None when the run
    ends without one."""
    interp = Interpreter(prog)
    mon = Monitor(prog, ctx, verify_states=states)
    conf = interp.initial_config()
    mon.start(conf)
    try:
        for step_no in range(1, limit + 1):
            before = conf
            conf, ev = interp.step(conf)
            take = Monitor.on_step
            if step_no == at:
                conf = plant(mon, conf)
            if full and step_no >= at:
                take = FullRecheckMonitor.on_step
            take(mon, step_no, before, ev, conf)
    except MonitorViolation as v:
        return (v.kind, v.step, v.thread, v.detail)
    return None


def _first_step(prog, stop):
    """The number and event of the first step of a deterministic run that
    `stop` selects, given the configurations before and after it and its
    event."""
    interp = Interpreter(prog)
    conf, at = interp.initial_config(), 0
    while True:
        before = conf
        conf, ev = interp.step(conf)
        at += 1
        if stop(before, ev, conf):
            return at, ev


def _null_caller_field(depth):
    """A plant: the object open at `depth` no longer holds its callee."""

    def plant(mon, conf):
        th = conf.threads[0]
        cell = th.path
        while cell.depth > depth:
            cell = cell.outer
        oid = th.heap.resolve_id(cell)
        heap = th.heap.replace(oid, th.heap.record(oid).set("n", syntax.NULL_E))
        return conf.with_thread(0, Thread.plugged(heap, th.path, *th.made_from))

    return plant


def _redirect_caller_field(depth):
    """A plant: the object open at `depth` holds, in place of its callee, a
    fresh object of the callee's class."""

    def plant(mon, conf):
        th = conf.threads[0]
        cell = th.path
        while cell.depth > depth:
            cell = cell.outer
        oid = th.heap.resolve_id(cell)
        rec = th.heap.record(oid)
        heap = th.heap.add("other", ObjectRecord(rec.cls, (("n", syntax.NULL_E),)))
        heap = heap.replace(oid, rec.set("n", ObjIdE("other")))
        return conf.with_thread(0, Thread.plugged(heap, th.path, *th.made_from))

    return plant


def _null_caller_typing(depth):
    """A plant: the tracked C[F] of the object open at `depth` types the
    field that holds its callee Null."""

    def plant(mon, conf):
        env = mon.envs[0]
        env.retype(env.opened[depth].type.typing.set("n", syntax.NULL_T), depth)
        return conf

    return plant


@pytest.mark.parametrize(
    "plant",
    [_null_caller_field, _redirect_caller_field, _null_caller_typing],
    ids=["heap-null", "heap-other-object", "environment"],
)
@pytest.mark.parametrize("depth", [1, 200, 204], ids=["1-down", "200-down", "caller-of-current"])
def test_disagreement_deep_in_a_call_chain_found_as_by_a_full_recheck(plant, depth):
    # 205 calls are pending, and an open object above the current one, 1 or
    # 200 levels below the root or the current object's caller, disagrees
    # with the heap: heap agreement re-checks the object whose record or
    # C[F] changed, and reports what a full re-check reports, at that step
    prog = parse_program(CALL_DESCENT)
    _, ctx = check_program(prog)
    interp = Interpreter(prog)
    conf, calls, at = interp.initial_config(), 0, 0
    while calls < 205:
        conf, ev = interp.step(conf)
        at += 1
        calls += ev.rule == "Call"
    at += 3  # the 205th callee's third step, a `Seq` that changes nothing else
    found = [planted_before_step(prog, ctx, at, plant(depth), full) for full in (False, True)]
    assert found[0] == found[1] == ("StateIllTyped", at, 0, "open object top disagrees with its typing")


def test_parked_tag_changed_under_its_variant_found_as_by_a_full_recheck():
    # a returned tag NO is parked in g, which links the variant in f; a
    # faulty heap turns it into YES while another field is assigned: f
    # keeps its value and type, and is found to disagree all the same
    prog, _, ctx = load_checked("progs/p06_park.mst")
    at, _ = _first_step(prog, lambda before, ev, after: ev.rule == "Swap" and ev.field == "other")

    def plant(mon, conf):
        th = conf.threads[0]
        rec = th.heap.record("top")
        assert rec.get("g") == LabelE("NO")
        heap = th.heap.replace("top", rec.set("g", LabelE("YES")))
        return conf.with_thread(0, Thread.plugged(heap, th.path, *th.made_from))

    found = [planted_before_step(prog, ctx, at, plant, full) for full in (False, True)]
    assert found[0] == found[1] == ("StateIllTyped", at, 0, "open object top disagrees with its typing")


# The C object passed to `put` is in flight while put's body takes a step
IN_FLIGHT_ARGUMENT = (
    "class C { session {Null use(Null): {}} use(x) { null } }\n"
    "class K { session {Null put({Null use(Null): {}}): {}} c; put(x) { null; c = x; null } }\n"
    "class Main { session {Null go(Null): {}} k; go(x) { k = new K(); k.put(new C()) } }\n"
    "main Main.go;\n"
)


def test_in_flight_object_held_by_a_record_found_as_by_a_full_recheck():
    # a faulty heap gains a record that holds the in-flight argument while
    # the callee takes a step that changes nothing the argument's entry
    # names: the entry is looked at again, since its object's holders changed
    prog = parse_program(IN_FLIGHT_ARGUMENT)
    report, ctx = check_program(prog)
    assert report.ok, report.lines()
    at, ev = _first_step(prog, lambda before, ev, after: ev.rule == "Call")
    arg, at = ev.arg.oid, at + 1  # the callee's first step, a `Seq`

    def plant(mon, conf):
        th = conf.threads[0]
        heap = th.heap.add("holder", ObjectRecord("K", (("c", ObjIdE(arg)),)))
        return conf.with_thread(0, Thread.plugged(heap, th.path, *th.made_from))

    found = [planted_before_step(prog, ctx, at, plant, full) for full in (False, True)]
    assert found[0] == found[1] == ("StateIllTyped", at, 0, f"environment names {arg} which is not a root")


def test_channel_end_held_twice_found_as_by_a_full_recheck():
    # a faulty heap holds the end on which a callee is about to receive a
    # second time, in its caller, whose field is typed as that end now is:
    # the communication then changes what the copy must agree with, which
    # only a check of the caller finds
    prog, _, ctx = load_checked("progs/p14_box_delegate.mst")
    interp = Interpreter(prog)
    conf, at = interp.initial_config(), 0
    while True:
        before = conf
        conf, ev = interp.step(conf)
        at += 1
        if ev.rule == "ComBase" and before.threads[ev.threads[1]].path.depth == 1:
            break
    j = ev.threads[1]
    th = before.threads[j]
    end = next(v for _, v in th.heap.resolve(th.path).fields if isinstance(v, EndpointE))
    caller = th.path.root

    def plant(mon, conf):
        th = conf.threads[j]
        rec = th.heap.record(caller)
        env = mon.envs[j]
        typing = env.opened[0].type.typing.set("d", translate_channel(mon.theta[(end.chan, end.polarity)]))
        env.retype(typing, 0)
        heap = th.heap.replace(caller, rec.set("d", end))
        return conf.with_thread(j, Thread.plugged(heap, th.path, *th.made_from))

    found = [planted_before_step(prog, ctx, at - 1, plant, full) for full in (False, True)]
    assert found[0] == found[1] == ("StateIllTyped", at, j, f"open object {caller} disagrees with its typing")


@pytest.mark.parametrize("plant", ["reached", "type"])
def test_reused_trace_conformance_found_as_by_a_full_recheck(plant):
    # the in-flight argument of `put` conformed and agreed at the call; at
    # the callee's first step, a `Seq` that keeps the heap, its reached state
    # or its tracked type is replaced by one it does not conform to: its
    # conformance is proved again, and its agreement with the heap checked
    # again, since one of the two is not the object it was proved at
    prog = parse_program(IN_FLIGHT_ARGUMENT)
    _, ctx = check_program(prog)
    at, ev = _first_step(prog, lambda before, ev, after: ev.rule == "Call")
    arg, at = ev.arg.oid, at + 1
    wider = pt("{Null use(Null): {Null use(Null): {}}}")

    def planted(mon, conf):
        if plant == "reached":
            mon._reached[arg] = EMPTY_BRANCH
        else:
            mon.envs[0].gamma[("obj", arg)] = wider
        return conf

    want = "{Null use(Null): {Null use(Null): {}}}" if plant == "type" else "{Null use(Null): {}}"
    for states, fault in [
        (False, ("TraceInvalid", at, 0, f"trace of {arg} does not reach {want}")),
        (True, ("StateIllTyped", at, 0, f"object {arg} does not inhabit {want}")),
    ]:
        found = [
            planted_before_step(prog, ctx, at, planted, full, states=states) for full in (False, True)
        ]
        assert found[0] == found[1] == fault, states


def test_reused_endpoint_set_found_as_by_a_full_recheck():
    # a thread that holds no end of a channel takes a step that keeps its
    # heap, and a faulty expression now holds the end another thread holds:
    # the thread's endpoint set is rebuilt, since its expression's is another
    # set, and the end is found twice
    prog, _, ctx = load_checked("progs/p09_two_pairs.mst")
    init = {}

    def stop(before, ev, after):
        if ev.rule == "Init" and not init:
            init.update(chan=ev.chan, holders=ev.threads)  # the requester holds chan-
            return False
        i = ev.threads[0]
        return bool(init) and i not in init["holders"] and after.threads[i].heap is before.threads[i].heap

    at, ev = _first_step(prog, stop)
    i, chan = ev.threads[0], init["chan"]

    def planted(mon, conf):
        th = conf.threads[i]
        cell, x = th.made_from
        expr = syntax.SeqE(EndpointE(chan, "-"), x)
        return conf.with_thread(i, Thread.plugged(th.heap, th.path, cell, expr))

    found = [planted_before_step(prog, ctx, at, planted, full) for full in (False, True)]
    assert found[0] == found[1] == (
        "LinearityViolation", at, max(i, init["holders"][1]), f"endpoint {chan}- occurs twice"
    )


def test_reused_heap_summary_found_as_by_a_full_recheck():
    # the callee's first step, a `Seq`, keeps the heap, and a faulty heap
    # names an object it does not hold: the summary moves to that heap, since
    # it is not the very heap it saw last, and finds the dangling id
    prog = parse_program(IN_FLIGHT_ARGUMENT)
    _, ctx = check_program(prog)
    at, _ = _first_step(prog, lambda before, ev, after: ev.rule == "Call")
    at += 1

    def planted(mon, conf):
        th = conf.threads[0]
        rec = th.heap.record("top")
        heap = th.heap.replace("top", rec.set(rec.field_names[0], ObjIdE("gone")))
        return conf.with_thread(0, Thread.plugged(heap, th.path, *th.made_from))

    found = [planted_before_step(prog, ctx, at, planted, full) for full in (False, True)]
    assert found[0] == found[1] == ("StateIllTyped", at, 0, "incomplete heap")


# `g` is read only by the statement after the one that swaps `h` and `f`
HOLE_READS_AFTER = (
    "class K { session {Null m(Null): {}} m(x) { null } }\n"
    "class Main { session {Null go(Null): {}} f; g; h;\n"
    "  go(x) { g = new K(); f = h <-> null; g.m(null) } }\n"
    "main Main.go;\n"
)


def test_reused_hole_judgement_found_as_by_a_full_recheck():
    # the swap of h judges the frames around it; then g's tracked type
    # becomes {}. The next redex, the assignment to f, types as before but
    # for g, so the judgement of the hole of the statement around it changed,
    # and the walk out of that kept frame goes on to the call on g, which
    # fails at that step
    prog = parse_program(HOLE_READS_AFTER)
    report, ctx = check_program(prog)
    assert report.ok, report.lines()
    at, _ = _first_step(prog, lambda before, ev, after: ev.rule == "Swap" and ev.field == "f")

    def plant(mon, conf, ev):
        root = mon.envs[0].opened[0].type
        mon.envs[0].retype(root.typing.set("g", EMPTY_BRANCH), 0)

    found = [planted_outcome(m, prog, ctx, at - 1, plant) for m in (Monitor, FullRecheckMonitor)]
    assert found[0] == found[1] and found[0][:3] == ("StateIllTyped", at, 0), found


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


def growth_run(steps, cls=Monitor, states=True, size=lambda memo: len(memo.answers)):
    """(outcome, events) of a monitored heap-growth run; the largest memo
    size after a step; how many key tables the memo used."""
    prog = parse_program(HEAP_GROWTH)
    report, ctx = check_program(prog)
    assert report.ok, report.lines()
    interp = Interpreter(prog)
    mon = cls(prog, ctx, verify_states=states)
    sizes, tables = [0], set()

    def observer(*step):
        mon.on_step(*step)
        sizes.append(size(mon._judgements))
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


def test_key_table_starts_over_at_its_cap_without_state_checks(monkeypatch):
    # with only traces verified, the table is read for the threads' endpoint
    # sets alone, and is bounded by the same cap, on its keys
    run = growth_run(4000, states=False)[0]
    monkeypatch.setattr(Judgements, "CAP", 300)
    capped, most, tables = growth_run(4000, states=False, size=lambda memo: len(memo.keys))
    assert most <= 300 and tables > 2
    assert capped == run


def test_heap_reads_per_step_independent_of_heap_size(monkeypatch):
    # a step looks up the reached state of, and counts the fields of, only
    # the objects it changed, however many the heap holds
    counts = [0, 0]
    state, count = Monitor._reached_state, monitor.HeapSummary._count

    def counted_state(self, oid):
        counts[0] += 1
        return state(self, oid)

    def counted_count(self, *args):
        counts[1] += 1
        count(self, *args)

    monkeypatch.setattr(Monitor, "_reached_state", counted_state)
    monkeypatch.setattr(monitor.HeapSummary, "_count", counted_count)
    busiest, objects = {}, {}
    for steps in (200, 2000):
        per_step = []

        def observer(*step):
            seen = list(counts)
            mon.on_step(*step)
            per_step.append(tuple(c - s for c, s in zip(counts, seen)))

        prog = parse_program(HEAP_GROWTH)
        _, ctx = check_program(prog)
        interp = Interpreter(prog)
        mon = Monitor(prog, ctx)
        mon.start(interp.initial_config())
        _, _, conf = interp.run(steps, observer=observer)
        busiest[steps] = tuple(max(c) for c in zip(*per_step))
        objects[steps] = len(conf.threads[0].heap.changes())
    assert busiest[200] == busiest[2000] and objects[2000] > 5 * objects[200]


@pytest.mark.slow
def test_memo_stays_under_its_cap(monkeypatch):
    run, most, tables = growth_run(20_000)
    assert most <= Judgements.CAP and tables == 1
    monkeypatch.setattr(Judgements, "CAP", 2048)
    restarted, most, tables = growth_run(20_000)
    assert most <= 2048 and tables > 2 and restarted == run


def straight_line(n):
    """A method body of n swaps and assignments, labels among the values."""
    forms = ["f = null;", "g <-> A;", "f <-> B;", "g = null;"]
    body = " ".join(forms[i % 4] for i in range(n))
    return f"class L {{ session {{Null go(Null): {{}}}} f; g; go(x) {{ {body} null }} }} main L.go;"


def busiest_step(monkeypatch, n, steps=50):
    """The most infer_expr calls, and expression nodes read to key them, in
    any monitored step after the first on a straight-line body of n
    statements."""
    prog = parse_program(straight_line(n))
    report, ctx = check_program(prog)
    assert report.ok, report.lines()
    counts = [0, 0]
    infer, parts = typechecker.infer_expr, syntax._parts

    def counted_infer(*args):
        counts[0] += 1
        return infer(*args)

    def counted_parts(x):
        counts[1] += 1
        return parts(x)

    for module in (typechecker, monitor):
        monkeypatch.setattr(module, "infer_expr", counted_infer)
    monkeypatch.setattr(syntax, "_parts", counted_parts)
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


def deepest_busiest_step(monkeypatch, depth, skip=20):
    """The most infer_expr calls, and expression nodes read to key them, in
    any monitored step of `gen.self_recursion(1)` after its first `skip`
    self-calls, until `depth` self-calls have deepened its context."""
    prog = parse_program(self_recursion(1))
    report, ctx = check_program(prog)
    assert report.ok, report.lines()
    counts = [0, 0]
    infer, parts = typechecker.infer_expr, syntax._parts

    def counted_infer(*args):
        counts[0] += 1
        return infer(*args)

    def counted_parts(x):
        counts[1] += 1
        return parts(x)

    for module in (typechecker, monitor):
        monkeypatch.setattr(module, "infer_expr", counted_infer)
    monkeypatch.setattr(syntax, "_parts", counted_parts)
    interp = Interpreter(prog)
    mon = Monitor(prog, ctx)
    conf = interp.initial_config()
    mon.start(conf)
    calls, step_no, most = 0, 0, [0, 0]
    while calls < depth:
        step_no += 1
        before, seen = conf, list(counts)
        conf, ev = interp.step(conf)
        mon.on_step(step_no, before, ev, conf)
        calls += ev.rule == "SelfCall"
        if calls > skip:
            most = [max(m, c - s) for m, c, s in zip(most, counts, seen)]
    assert len(mon._contexts[0][0]) >= depth  # a frame kept per pending self-call
    return most


def test_monitored_step_cost_independent_of_context_depth(monkeypatch):
    # a step types what replaced its redex and stops at the first frame
    # whose hole keeps its judgement: a self-call whose body meets its
    # annotation stops at once, however deep the context
    shallow = deepest_busiest_step(monkeypatch, 100)
    monkeypatch.undo()
    assert deepest_busiest_step(monkeypatch, 5000) == shallow


def busiest_call_step(monkeypatch, depth, monitored, skip=20):
    """The most heap records read, record field typings set, C[F] types
    made and field values checked against a type in any step of
    `gen.CALL_DESCENT` after its first `skip` calls, until `depth` calls
    are pending; monitored or not. The memo is not capped: a run that
    starts it over re-judges one call's body once, at any depth."""
    monkeypatch.setattr(Judgements, "CAP", 1 << 20)
    prog = parse_program(CALL_DESCENT)
    report, ctx = check_program(prog)
    assert report.ok, report.lines()
    counts = [0, 0, 0, 0]

    def counted(k, f):
        def wrapper(*args):
            counts[k] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(syntax.Heap, "record", counted(0, syntax.Heap.record))
    monkeypatch.setattr(syntax.RecordF, "set", counted(1, syntax.RecordF.set))
    monkeypatch.setattr(ObjectInternal, "__init__", counted(2, ObjectInternal.__init__))
    monkeypatch.setattr(Monitor, "_value_conforms", counted(3, Monitor._value_conforms))
    interp = Interpreter(prog)
    mon = Monitor(prog, ctx) if monitored else None
    conf = interp.initial_config()
    if mon is not None:
        mon.start(conf)
    calls, step_no, most = 0, 0, [0, 0, 0, 0]
    while calls < depth:
        step_no += 1
        before, seen = conf, list(counts)
        conf, ev = interp.step(conf)
        if mon is not None:
            mon.on_step(step_no, before, ev, conf)
        calls += ev.rule == "Call"
        if calls > skip:
            most = [max(m, c - s) for m, c, s in zip(most, counts, seen)]
    assert conf.threads[0].path.depth == depth
    return most


@pytest.mark.parametrize("monitored", [False, True], ids=["unmonitored", "monitored"])
def test_step_cost_independent_of_call_depth(monkeypatch, monitored):
    # a path adds one linked cell per pending call, which knows the object
    # the call opened, and the monitor keeps each open object apart from its
    # callers and re-checks what a step changed: a step reads, sets, makes
    # and checks as much at any call depth
    shallow = busiest_call_step(monkeypatch, 100, monitored)
    monkeypatch.undo()
    assert busiest_call_step(monkeypatch, 5000, monitored) == shallow


# t0 holds a channel end in a field and an in-flight argument while its
# callee loops for ever; the server waits on the other end
LOOP_HOLDING_AN_END = (
    "access <?{PING}.End> ap;\n"
    "class Loop { session L where L = {{TRUE, FALSE} more(Null): <TRUE: L, FALSE: {}>}"
    " more(x) { TRUE } }\n"
    "class C { session {Null use(Null): {}} use(x) { null } }\n"
    "class K { session {Null hold({Null use(Null): {}}): {}} c; d;\n"
    "  hold(x) { c = new Loop(); while (c.more(null)) { null; null }; d = x } }\n"
    "class Server { session {Null go(Null): {}} f; c;\n"
    "  go(x) { f = ap; c = f.accept(null); c.receive(null); null } }\n"
    "class Main { session {Null go(Null): {}} f; c; k;\n"
    "  go(x) { spawn Server.go(null); f = ap; c = f.request(null); k = new K();"
    " k.hold(new C()); c.send(PING) } }\n"
    "main Main.go;\n"
)


def test_step_that_keeps_its_heap_reuses_conformance_and_endpoint_sets(monkeypatch):
    # a `Seq` or `While` step that keeps its thread's heap changes neither
    # a tracked type nor a reached state nor an endpoint: it proves no trace
    # conformance, moves no heap summary and builds no endpoint set
    prog = parse_program(LOOP_HOLDING_AN_END)
    report, ctx = check_program(prog)
    assert report.ok, report.lines()
    counts, tracing = [0, 0], [False]
    subtype, traces, changes = monitor.subtype_session, Monitor.check_traces, syntax.Heap.changes

    def counted_subtype(a, b):
        counts[0] += tracing[0]
        return subtype(a, b)

    def counted_traces(self, *args):
        tracing[0] = True
        try:
            return traces(self, *args)
        finally:
            tracing[0] = False

    def counted_changes(self, *args):
        counts[1] += 1
        return changes(self, *args)

    monkeypatch.setattr(monitor, "subtype_session", counted_subtype)
    monkeypatch.setattr(Monitor, "check_traces", counted_traces)
    monkeypatch.setattr(syntax.Heap, "changes", counted_changes)
    interp = Interpreter(prog)
    mon = Monitor(prog, ctx)
    conf = interp.initial_config()
    mon.start(conf)
    kept, proved = [], 0
    for step_no in range(1, 400):
        before, seen = conf, list(counts)
        conf, ev = interp.step(conf)
        i = ev.threads[0]
        eps = mon._eps.get(i)
        mon.on_step(step_no, before, ev, conf)
        proved += counts[0] - seen[0]
        if ev.rule in ("Seq", "While") and before.threads[i].heap is conf.threads[i].heap:
            kept.append((counts[0] - seen[0], counts[1] - seen[1], mon._eps[i] is eps, bool(eps)))
    assert proved > 0 and len(kept) > 100 and any(held for *_, held in kept)
    assert {k[:3] for k in kept} == {(0, 0, True)}


def test_rebuilt_nodes_read_once_per_step(monkeypatch):
    # a step keys the nodes that replaced its redex, and the same walk gives
    # their endpoint sets: every node of a replacement that the key table
    # had not keyed is read in the step, and no node is read twice
    prog, report, ctx = load_checked("remote1.mst")
    interp = Interpreter(prog)
    mon = Monitor(prog, ctx)
    parts, read, built = syntax._parts, [], 0

    def unkeyed(x, serial):
        out, todo = [], [x]
        while todo:
            y = todo.pop()
            if getattr(y, "_keyed_by", None) != serial:
                out.append(id(y))
                todo.extend(parts(y)[1])
        return out

    def counted_parts(x):
        read.append(x)
        return parts(x)

    def observer(step_no, before, ev, after):
        nonlocal built
        serial = mon._judgements.keys.serial
        fresh = {y for i in ev.threads for y in unkeyed(after.threads[i].made_from[1], serial)}
        read.clear()
        mon.on_step(step_no, before, ev, after)
        ids = {id(x) for x in read}
        assert len(ids) == len(read) and fresh <= ids, step_no
        built += len(fresh)

    monkeypatch.setattr(syntax, "_parts", counted_parts)
    mon.start(interp.initial_config())
    outcome, events, _ = interp.run(300, observer=observer)
    assert len(events) == 300 and built > 100


def test_long_body_monitored_in_bounded_stack():
    # the walk that builds expression keys and endpoint sets does not
    # recurse per statement
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


def test_enumeration_returned_before_a_variant_state():
    # m's body has type {A}, not linkthis: at its return each label of the
    # enumeration leads to the same fields, and the caller switches on the tag
    prog = parse_program(
        "class K { session {Null set(Null): {{A, B} m(Null): <A: {Null done(Null): {}},"
        " B: {Null done(Null): {}}>}} st; set(x) { st = A; null } m(x) { st } done(x) { null } }\n"
        "class Main { session {Null go(Null): {}} k;\n"
        "  go(x) { k = new K(); k.set(null); switch (k.m(null)) { A: k.done(null); B: k.done(null); } } }\n"
        "main Main.go;"
    )
    report, ctx = check_program(prog)
    assert report.ok, report.lines()
    returned = []
    interp = Interpreter(prog)
    mon = Monitor(prog, ctx)
    mon.start(interp.initial_config())

    def observer(step_no, before, ev, after):
        mon.on_step(step_no, before, ev, after)
        if ev.rule == "Return":
            returned.append(ev.value)

    outcome, _, _ = interp.run(200, observer=observer)
    assert outcome.kind == "terminated" and LabelE("A") in returned


def test_monitored_call_descent_bounded_by_memory():
    # each pending call opens an object that the monitor keeps apart from
    # its caller's C[F], and nothing walks the chain of them recursively, so
    # 600 pending calls are monitored under the default recursion limit
    prog = parse_program(CALL_DESCENT)
    report, ctx = check_program(prog)
    assert report.ok, report.lines()
    interp = Interpreter(prog)
    mon = Monitor(prog, ctx)
    mon.start(interp.initial_config())
    outcome, events, conf = interp.run(3000, observer=mon.on_step)
    assert outcome.kind == "limit" and len(events) == 3000
    assert len(mon.envs[0].frames) == len(conf.threads[0].path.fields) == 600


def test_monitored_call_chain_unwinds():
    # a return closes the callee and retypes its caller, the current object
    # again, whose changed field heap agreement then re-checks
    prog = parse_program(call_chain(300))
    report, ctx = check_program(prog)
    assert report.ok, report.lines()
    interp = Interpreter(prog)
    mon = Monitor(prog, ctx)
    mon.start(interp.initial_config())
    depth = 0

    def observer(step_no, before, ev, after):
        nonlocal depth
        mon.on_step(step_no, before, ev, after)
        depth = max(depth, len(mon.envs[0].frames))

    outcome, _, _ = interp.run(5000, observer=observer)
    assert outcome.kind == "terminated" and depth == 300


def test_replay_keeps_each_reached_state_once():
    # two overloads of m lead to the same state, reached once per call, not
    # once per path (4,096 paths after 12 calls)
    s = pt("rec S.{Null m(Null): S, Null m({X}): S}")
    assert replay_trace(s, parse_trace(" ".join(["m"] * 12))) == (s,)
    two = pt("{Null m(Null): {Null a(Null): {}}, Null m({X}): {Null b(Null): {}}}")
    assert len(replay_trace(two, parse_trace("m"))) == 2

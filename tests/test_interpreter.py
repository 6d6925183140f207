import random

import pytest

from conftest import DEADLOCKS, RUNNABLE, load, load_checked
from mstlang import interpreter, syntax
from mstlang.interpreter import Interpreter, MainMissing, RuntimeFault, decompose, format_event
from mstlang.monitor import Monitor
from mstlang.parser import parse_program
from mstlang.syntax import NULL_E, CoreError, Path, SeqE, SwitchE, focus, is_value, plug
from mstlang.typechecker import check_program
from progen import generate


def run_events(name, limit=4000, seed=None):
    prog, report, ctx = load_checked(name)
    assert report.ok, report.lines()
    interp = Interpreter(prog)
    return interp.run(limit, seed=seed)


def test_initial_config_shape(file_prog):
    interp = Interpreter(load("file.mst"))
    conf = interp.initial_config()
    assert len(conf.threads) == 1
    th = conf.threads[0]
    assert th.path == Path("top")
    rec = th.heap.record("top")
    assert rec.cls == "Main"
    assert all(v == NULL_E for _, v in rec.fields)


def test_main_missing():
    prog = parse_program("class C { session {} }")
    with pytest.raises(MainMissing):
        Interpreter(prog).initial_config()


def test_trivial_main_terminates():
    prog = parse_program(
        "class M { session {Null go(Null): {}} go(x) { x } } main M.go;"
    )
    outcome, events, conf = Interpreter(prog).run(10)
    assert outcome.kind == "terminated"
    assert len(events) == 0  # the body is already a value after substitution


def test_seq_discards_first_value():
    prog = parse_program(
        "class M { session {Null go(Null): {}} go(x) { null; null } } main M.go;"
    )
    outcome, events, _ = Interpreter(prog).run(10)
    assert [e.rule for e in events] == ["Seq"]
    assert outcome.kind == "terminated"


def test_while_expands_to_switch():
    prog, report, ctx = load_checked("progs/p01_while.mst")
    interp = Interpreter(prog)
    conf = interp.initial_config()
    seen = []
    for _ in range(60):
        step = interp.step(conf)
        if step is None:
            break
        conf, ev = step
        seen.append(ev.rule)
        if ev.rule == "While":
            th = conf.threads[0]
            # the redex is now the switch encoding of the loop
            redex, _ = decompose(th.expr)
            while not isinstance(redex, SwitchE):
                step = interp.step(conf)
                conf, ev = step
                seen.append(ev.rule)
                redex, _ = decompose(th.expr)
                th = conf.threads[0]
            break
    assert "While" in seen


def test_reduction_example_event_sequence():
    prog, report, ctx = load_checked("reduction_ex.mst")
    outcome, events, _ = Interpreter(prog).run(100)
    assert outcome.kind == "terminated"
    rules = [e.rule for e in events]
    # call, body steps, return popping the path, swap, swap, switch
    i = rules.index("Call")
    tail = rules[i:]
    assert tail[0] == "Call"
    assert "Return" in tail
    r = tail.index("Return")
    assert all(x in ("Swap", "Seq") for x in tail[1:r])
    after = tail[r + 1 :]
    assert [x for x in after if x == "Swap"][:2] == ["Swap", "Swap"]
    assert "Switch" in after


def test_event_log_determinism():
    a = run_events("remote1.mst", limit=600)
    b = run_events("remote1.mst", limit=600)
    la = [format_event(i, e) for i, e in enumerate(a[1], 1)]
    lb = [format_event(i, e) for i, e in enumerate(b[1], 1)]
    assert la == lb


def test_same_seed_same_log():
    a = run_events("remote1.mst", limit=400, seed=9)
    b = run_events("remote1.mst", limit=400, seed=9)
    assert [format_event(i, e) for i, e in enumerate(a[1], 1)] == [
        format_event(i, e) for i, e in enumerate(b[1], 1)
    ]


def test_all_runnable_progress_or_terminate():
    for name in RUNNABLE:
        outcome, events, conf = run_events(name, limit=1100)
        assert outcome.kind in ("terminated", "limit"), (name, outcome)
        if outcome.kind == "limit":
            assert len(events) >= 1100


def test_deadlock_classifications():
    outcome, _, _ = run_events("deadlock1.mst")
    assert outcome.kind == "blocked"
    kinds = [k for k, _ in outcome.threads]
    assert kinds.count("deadlocked-on-channel") == 2
    chans = {d for k, d in outcome.threads if k == "deadlocked-on-channel"}
    assert len(chans) == 2  # pairwise distinct channels

    outcome, _, _ = run_events("deadlock2.mst")
    assert [k for k, _ in outcome.threads] == ["unmatched-accept"]

    outcome, _, _ = run_events("deadlock3.mst")
    assert [k for k, _ in outcome.threads] == ["terminated", "unmatched-request"]


def test_heap_domains_stay_disjoint():
    prog, report, ctx = load_checked("progs/p05_transfer.mst")
    interp = Interpreter(prog)
    conf = interp.initial_config()
    moved = False
    while True:
        step = interp.step(conf)
        if step is None:
            break
        conf, ev = step
        ids = [o for th in conf.threads for o in th.heap.ids]
        assert len(ids) == len(set(ids))
        if ev.rule == "ComObj":
            moved = True
            phi = dict(ev.phi)
            sender, receiver = ev.threads
            s_heap = conf.threads[sender].heap
            r_heap = conf.threads[receiver].heap
            for old, new in phi.items():
                assert not s_heap.has(old)
                assert r_heap.has(new)
    assert moved


def test_com_obj_moves_whole_subtree():
    prog, report, ctx = load_checked("progs/p05_transfer.mst")
    interp = Interpreter(prog)
    conf = interp.initial_config()
    while True:
        step = interp.step(conf)
        if step is None:
            break
        before = conf
        conf, ev = step
        if ev.rule == "ComObj":
            sender = ev.threads[0]
            down, _ = before.threads[sender].heap.split(ev.oid)
            assert set(dict(ev.phi)) == set(down.ids)
            break


def test_classify_only_on_stuck():
    prog, report, ctx = load_checked("progs/p03_spawn.mst")
    interp = Interpreter(prog)
    outcome, events, conf = interp.run(100)
    assert outcome.kind == "terminated"
    assert all(is_value(t.expr) for t in conf.threads)


def test_long_body_checks_and_runs():
    # parsing, resolution, checking, substitution, stepping and monitoring
    # must not recurse per statement
    body = " ".join(["f = null;"] * 10_000)
    prog = parse_program(
        f"class M {{ session {{Null go(Null): {{}}}} f; go(x) {{ {body} x }} }} main M.go;"
    )
    report, ctx = check_program(prog)
    assert report.ok, report.lines()
    interp = Interpreter(prog)
    assert isinstance(interp.initial_config().threads[0].expr, SeqE)
    outcome, events, _ = interp.run(100_000)
    assert outcome.kind == "terminated" and len(events) == 30_000
    mon = Monitor(prog, ctx)
    mon.start(interp.initial_config())
    outcome, events, _ = interp.run(50, observer=mon.on_step)
    assert outcome.kind == "limit" and len(events) == 50


# -- kept focus -------------------------------------------------------------------


def reached(prog, limit, seed):
    """The configurations of one unmonitored run, the initial one first; a
    run that faults (an unchecked program) ends at the fault."""
    interp = Interpreter(prog)
    rng = None if seed is None else random.Random(seed)
    conf = interp.initial_config()
    out = [conf]
    for _ in range(limit):
        try:
            step = interp.step(conf, rng)
        except (RuntimeFault, CoreError):
            break
        if step is None:
            break
        conf = step[0]
        out.append(conf)
    return out


def frame_forms(frames):
    out = []
    while frames is not None:
        frames, f = frames
        out.append(type(f))
    return out


def test_kept_focus_plugs_back_to_the_expression():
    programs = [load(n) for n in RUNNABLE + DEADLOCKS]
    programs += [parse_program(generate(n)) for n in range(80)]
    threads = 0
    for prog in programs:
        for seed in (None, 1, 2):
            for conf in reached(prog, 120, seed):
                for th in conf.threads:
                    found, fresh = th.focus, focus(th.expr)  # kept, and searched from the root
                    if found is None:
                        assert fresh is None and is_value(th.expr)
                    else:
                        redex, frames = found
                        assert redex == fresh[0]
                        assert frame_forms(frames) == frame_forms(fresh[1])
                        assert plug(frames, redex) == th.expr
                    threads += 1
    assert threads > 20_000


def test_focus_runs_once_per_touched_thread(monkeypatch):
    calls = []
    for module in (syntax, interpreter):
        monkeypatch.setattr(module, "focus", lambda *a: calls.append(a) or focus(*a))
    runs = (("remote1.mst", None), ("progs/p09_two_pairs.mst", 5), ("progs/p05_transfer.mst", 2))
    for name, seed in runs:  # every rule fires in these, object transfer and spawn included
        interp = Interpreter(load(name))
        rng = None if seed is None else random.Random(seed)
        conf = interp.initial_config()
        new = list(range(len(conf.threads)))  # threads not yet focused
        for _ in range(300):
            del calls[:]
            step = interp.step(conf, rng)
            assert len(calls) == len(new), name
            if step is None:
                break
            after, ev = step
            new = sorted(set(ev.threads) | ({ev.new_thread} if ev.new_thread >= 0 else set()))
            for i, th in enumerate(conf.threads):
                assert (th is after.threads[i]) == (i not in new), (name, ev)
            conf = after

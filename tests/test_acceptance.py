"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Tolerances are exact boolean/structural matches except where a
count of random samples is stated, in which case zero failures are required
over the full sample.
"""

import random

import pytest

from conftest import RUNNABLE, load, load_checked, root_type
from gen import gen_channel, gen_session, widen_channel, widen_session
from oracles import consistency_oracle
from mstlang.channels import dual, subtype_channel, translate_channel
from mstlang.interpreter import Interpreter
from mstlang.monitor import Monitor
from mstlang.parser import parse_program, parse_session_type as pt
from mstlang.subtyping import equivalent, subtype_any, subtype_session
from mstlang.syntax import (
    Branch,
    ChanEnd,
    ChanOffer,
    ChanRecv,
    ChanSelect,
    EnumType,
    LinkField,
    NULL_T,
    ObjectInternal,
    RecordF,
    unfold,
)
from mstlang.typechecker import CheckContext, CheckError, consistency


def ok(n, msg):
    print(f"ACCEPTANCE {n:02d} PASS — {msg}")


def test_criterion_01_subtyping_ground_truth():
    file_prog = load("file.mst")
    fi = pt("File.Init", file_prog)
    fre = pt("FileReadToEnd.Init", file_prog)
    assert subtype_session(fi, fre) is True
    assert subtype_session(fre, fi) is False
    r1 = load("remote1.mst")
    assert equivalent(pt("RemoteFile.Init", r1), pt("File.Init", r1)) is True
    ok(1, "File.Init <: FileReadToEnd.Init, not conversely; RemoteFile.Init = File.Init")


def test_criterion_02_algorithm_verdicts():
    prog, report, ctx = load_checked("algexample.mst")
    verdicts = {}
    d = report.verdict("D")
    for m in ("aa", "b", "bb", "c", "cc", "d"):
        verdicts[m] = d.ok  # all six live in class D
    bad = report.verdict("DBad")
    verdicts["a"] = bad.ok
    expected = {"a": False, "aa": True, "b": True, "bb": True, "c": True, "cc": True, "d": True}
    assert verdicts == expected
    assert bad.method == "a"
    ok(2, "7/7 verdicts: a rejected; aa, b, bb, c, cc, d accepted")


def test_criterion_03_translation_fidelity():
    r1 = load("remote1.mst")
    ch = r1.channel_aliases["FileReadCh"]
    assert equivalent(translate_channel(ch), r1.session_aliases["FileRead_s"])
    assert equivalent(translate_channel(dual(ch)), r1.session_aliases["FileRead_cl"])
    r2 = load("remote2.mst")
    ch2 = r2.channel_aliases["FileChannel"]
    assert equivalent(translate_channel(ch2), r2.session_aliases["ServerCh"])
    assert equivalent(translate_channel(dual(ch2)), r2.session_aliases["ClientCh"])
    ok(3, "translations of both channel protocols match the written-out endpoint types")


def test_criterion_04_duality_involution():
    rng = random.Random(2024)
    failures = 0
    for _ in range(1000):
        sigma = gen_channel(rng, 6)
        if dual(dual(sigma)) != sigma:
            failures += 1
    assert failures == 0
    ok(4, "dual(dual(S)) structurally equals S on 1000 random channel types")


def test_criterion_05_preorder_laws():
    rng = random.Random(4177)
    for _ in range(1000):
        s = gen_session(rng, 5)
        assert subtype_session(s, s)
    for _ in range(300):
        s0 = gen_session(rng, 4)
        s1 = widen_session(rng, s0)
        s2 = widen_session(rng, s1)
        assert subtype_session(s0, s1) and subtype_session(s1, s2)
        assert subtype_session(s0, s2)
    ok(5, "reflexivity on 1000 types; transitivity on 300 widening chains")


def test_criterion_06_channel_monotonicity():
    rng = random.Random(60)
    verified = 0
    while verified < 300:
        sigma = gen_channel(rng, 4)
        wider = widen_channel(rng, sigma)
        if not subtype_channel(sigma, wider):
            raise AssertionError("widening is not a sub-channel")
        verified += 1
        assert subtype_session(translate_channel(sigma), translate_channel(wider))
    end_t = translate_channel(ChanEnd())
    for _ in range(200):
        sigma = gen_channel(rng, 4)
        assert subtype_session(translate_channel(sigma), end_t)
    for _ in range(100):
        cont = gen_channel(rng, 3)
        labels = sorted(rng.sample(["A", "B", "C"], rng.randint(1, 3)))
        recv = ChanRecv(EnumType(frozenset(labels)), cont)
        offer = ChanOffer(tuple((l, cont) for l in labels))
        assert subtype_session(translate_channel(recv), translate_channel(offer))
    for _ in range(100):
        cont = gen_channel(rng, 3)
        l = rng.choice(["A", "B"])
        from mstlang.syntax import ChanSend

        select = ChanSelect(((l, cont),))
        send = ChanSend(EnumType(frozenset({l})), cont)
        assert translate_channel(select) == translate_channel(send)
    ok(6, "300 oracle-verified pairs stay subtypes after translation, plus the three listed facts")


def test_criterion_07_reduction_example_replay():
    prog, report, ctx = load_checked("reduction_ex.mst")
    assert report.ok
    interp = Interpreter(prog)
    mon = Monitor(prog, ctx)
    mon.start(interp.initial_config())
    snapshots = []

    def observer(step_no, before, ev, after):
        mon.on_step(step_no, before, ev, after)
        snapshots.append((ev.rule, root_type(mon.envs[0])))

    outcome, events, conf = interp.run(100, observer=observer)
    assert outcome.kind == "terminated"
    rules = [r for r, _ in snapshots]
    i_call = rules.index("Call")
    i_return = rules.index("Return")
    i_swap_in = next(i for i in range(i_return, len(rules)) if rules[i] == "Swap")
    i_seq = next(i for i in range(i_swap_in, len(rules)) if rules[i] == "Seq")
    i_swap_out = next(i for i in range(i_seq, len(rules)) if rules[i] == "Swap")
    i_switch = rules.index("Switch")
    assert i_call < i_return < i_swap_in < i_swap_out < i_switch
    # the rule sequence of the figure: call, body steps, return, swap, (seq,) swap, switch
    assert all(r in ("Swap", "Seq") for r in rules[i_call + 1 : i_return])

    cell = prog.classes["Cell"]
    lit = pt("Cell.Lit", prog)
    dark = pt("Cell.Dark", prog)
    variant = unfold(cell.session).entries[0].cont
    on_enum = EnumType(frozenset({"ON"}))

    def driver(f_t, g_t):
        return ObjectInternal("Driver", RecordF((("f", f_t), ("g", g_t))))

    milestones = [
        (snapshots[i_call - 1][1], driver(cell.session, NULL_T)),
        (snapshots[i_call][1], driver(ObjectInternal("Cell", RecordF((("s", NULL_T),))), NULL_T)),
        (snapshots[i_return - 1][1], driver(ObjectInternal("Cell", RecordF((("s", on_enum),))), NULL_T)),
        (snapshots[i_return][1], driver(lit, NULL_T)),
        (snapshots[i_seq][1], driver(variant, LinkField("f"))),
        (snapshots[i_swap_out][1], driver(lit, NULL_T)),
        (snapshots[i_switch][1], driver(lit, NULL_T)),
    ]
    for idx, (got, want) in enumerate(milestones, 1):
        assert subtype_any(got, want) and subtype_any(want, got), (
            f"state {idx}: {got!r} vs {want!r}"
        )
    ok(7, "seven tracked environments of the call/return/swap/switch replay match")


@pytest.mark.slow
def test_criterion_08_monitored_subject_reduction_and_conformance():
    limit = 1050
    for name in RUNNABLE:
        prog, report, ctx = load_checked(name)
        assert report.ok, name
        schedules = [None] + list(range(20))
        for seed in schedules:
            interp = Interpreter(prog)
            mon = Monitor(prog, ctx, verify_states=True, verify_traces=True)
            mon.start(interp.initial_config())
            outcome, events, conf = interp.run(limit, seed=seed, observer=mon.on_step)
            assert outcome.kind in ("terminated", "limit"), (name, seed, outcome)
            if outcome.kind == "limit":
                assert len(events) >= 1000
    ok(8, f"{len(RUNNABLE)} programs x (deterministic + 20 seeds) monitored with zero violations")


def test_criterion_09_no_communication_errors():
    # monitored distributed runs assert dual polarities and no third-party
    # occurrence at every rendezvous (the monitor raises otherwise)
    for name in ["progs/p04_delegate.mst", "progs/p05_transfer.mst",
                 "progs/p09_two_pairs.mst", "progs/p11_reuse_access.mst",
                 "remote1.mst", "remote2.mst"]:
        prog, report, ctx = load_checked(name)
        interp = Interpreter(prog)
        mon = Monitor(prog, ctx)
        mon.start(interp.initial_config())
        outcome, events, conf = interp.run(1050, observer=mon.on_step)
        assert any(e.rule in ("ComBase", "ComObj", "Init") for e in events), name
    expected = {
        "deadlock1.mst": ["terminated", "deadlocked-on-channel", "deadlocked-on-channel"],
        "deadlock2.mst": ["unmatched-accept"],
        "deadlock3.mst": ["terminated", "unmatched-request"],
    }
    for name, kinds in expected.items():
        prog, report, ctx = load_checked(name)
        interp = Interpreter(prog)
        mon = Monitor(prog, ctx)
        mon.start(interp.initial_config())
        outcome, events, conf = interp.run(2000, observer=mon.on_step)
        assert outcome.kind == "blocked"
        assert [k for k, _ in outcome.threads] == kinds, name
    d1 = load_checked("deadlock1.mst")
    ok(9, "rendezvous linearity asserted throughout; 3 deadlock classifications match hand analysis")


K1 = "class K1 { session {Null m(Null): {}} m(x) { x } }"
K2 = "class K2 { session rec S.{Null flip({A, B}): S} v; flip(x) { v <-> x; null } }"
K3 = "class K3 { session {linkthis t(Null): <Y: {}, N: {}>} v; t(x) { Y } }"
K4 = "class K4 { session {Null m(Null): {}} v; m(x) { A } }"
K5 = """
class Once { session {Null use(Null): {}} use(x) { x } }
class K5 { session {Null go(Null): {}} v; go(x) { v = new Once(); v.use(null); v.use(null); } }
"""


def test_criterion_10_bruteforce_consistency_oracle():
    cases = [(K1, "K1", True), (K2, "K2", True), (K3, "K3", True),
             (K4, "K4", False), (K5, "K5", False)]
    for text, cls, expected in cases:
        prog = parse_program(text)
        ctx = CheckContext(prog)
        decl = prog.classes[cls]
        candidates = [NULL_T, EnumType(frozenset({"A"})), EnumType(frozenset({"B"})),
                      EnumType(frozenset({"A", "B"}))]
        if cls == "K5":
            candidates = [NULL_T, prog.classes["Once"].session, Branch(())]
        alive = consistency_oracle(prog, cls, candidates, ("A", "B", "Y", "N"))
        f0 = decl.initial_field_typing()
        key = (f0.canon(), unfold(decl.session).canon())
        try:
            consistency(ctx, decl, decl.session, f0)
            algo = True
        except CheckError:
            algo = False
        assert algo == expected, cls
        assert (key in alive) == expected, cls
    ok(10, "algorithm verdicts equal the largest-relation search on all 5 classes")

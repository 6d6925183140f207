"""Soundness fuzzer: subject reduction and conformance on generated programs.

For every generated program the checker accepts, monitored runs over the
deterministic schedule and a few seeded ones must never raise: no monitor
violation (tracking, state re-check, trace validity, linearity, duality) and
no interpreter fault. A failure prints the program text, which `mst run
--verify-states --verify-traces` replays.

Conversely, the monitor must not be vacuous: a program the checker rejects
whose unmonitored run faults must, monitored, stop at a violation first.
"""

import pytest

from mstlang.interpreter import Interpreter
from mstlang.monitor import Monitor, MonitorViolation
from mstlang.parser import parse_program
from mstlang.typechecker import check_program
from progen import generate

STEP_LIMIT = 80
SEEDS = (None, 1, 2)
ALL_RULES = {
    "New", "Swap", "Call", "Return", "Switch", "Seq", "While", "SelfCall",
    "Init", "ComBase", "ComObj", "Spawn",
}


def monitored_runs(text, seeds=SEEDS):
    """None when the checker rejects the program, else the set of rules
    that fired."""
    prog = parse_program(text)
    report, ctx = check_program(prog)
    if not report.ok:
        return None
    rules = set()
    for seed in seeds:
        interp = Interpreter(prog)
        mon = Monitor(prog, ctx, verify_states=True, verify_traces=True)
        try:
            mon.start(interp.initial_config())
            _, events, _ = interp.run(STEP_LIMIT, seed=seed, observer=mon.on_step)
        except Exception as exc:
            raise AssertionError(f"schedule {seed}: {exc}\n--- program ---\n{text}") from exc
        rules.update(ev.rule for ev in events)
    return rules


def fuzz(first_seed, want_accepted):
    accepted = tried = 0
    rules = set()
    while accepted < want_accepted:
        got = monitored_runs(generate(first_seed + tried))
        tried += 1
        if got is not None:
            accepted += 1
            rules |= got
    # the generator must keep producing both verdicts and every kind of step
    assert tried < 3 * accepted, (accepted, tried)
    assert rules == ALL_RULES, ALL_RULES - rules


def test_checked_programs_never_trip_the_monitor():
    fuzz(0, 300)


@pytest.mark.slow
def test_checked_programs_never_trip_the_monitor_many():
    fuzz(100_000, 3000)


def faults_caught(first, last, seeds):
    """How many runs of the checker-rejected programs `generate(first)` to
    `generate(last)` fault unmonitored; each must, monitored, stop at a
    monitor violation no later than the last step the unmonitored run
    took."""
    faulting = 0
    for n in range(first, last + 1):
        text = generate(n)
        prog = parse_program(text)
        report, ctx = check_program(prog)
        if report.ok:
            continue
        for seed in seeds:
            taken = [0]
            try:
                Interpreter(prog).run(STEP_LIMIT, seed=seed, observer=lambda k, *_: taken.__setitem__(0, k))
                continue
            except Exception:
                faulting += 1
            interp = Interpreter(prog)
            mon = Monitor(prog, ctx, verify_states=True, verify_traces=True)
            try:
                mon.start(interp.initial_config())
                interp.run(STEP_LIMIT, seed=seed, observer=mon.on_step)
            except MonitorViolation as v:
                assert v.step <= taken[0], (n, seed, v.step, taken[0], text)
                continue
            except Exception as exc:
                raise AssertionError(f"program {n}, schedule {seed}: {exc!r}\n{text}") from exc
            raise AssertionError(f"program {n}, schedule {seed}: no violation\n{text}")
    return faulting


def test_rejected_programs_stop_at_a_violation_before_they_fault():
    assert faults_caught(0, 149, (None, 1)) == 71


@pytest.mark.slow
def test_rejected_programs_stop_at_a_violation_before_they_fault_many():
    assert faults_caught(0, 599, SEEDS) == 294

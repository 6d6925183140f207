"""One digest of what the checker and the monitor say about generated
programs, so a refactor that changes any verdict, outcome or violation
shows here.

Every `progen` program of seeds 0-199 is checked, whatever its verdict, and
its report lines are rows. Then, for each schedule (deterministic, seed 1,
seed 2) and each monitor setting (states and traces, states only, traces
only), one monitored run of at most 80 steps adds a row: its outcome and
event count, or the violation or fault that stopped it. The digest is the
first 16 hex digits of the rows' sha256. It must not depend on the hash
seed; CI runs this file under two.
"""

import hashlib

from mstlang.interpreter import Interpreter, RuntimeFault
from mstlang.monitor import Monitor, MonitorViolation
from mstlang.parser import parse_program
from mstlang.typechecker import check_program
from progen import generate

SCHEDULES = (None, 1, 2)
SETTINGS = ((True, True), (True, False), (False, True))


def _rows(seed):
    prog = parse_program(generate(seed))
    report, ctx = check_program(prog)
    rows = report.lines()
    for schedule in SCHEDULES:
        for states, traces in SETTINGS:
            interp = Interpreter(prog)
            mon = Monitor(prog, ctx, verify_states=states, verify_traces=traces)
            try:
                mon.start(interp.initial_config())
                outcome, events, _ = interp.run(80, seed=schedule, observer=mon.on_step)
                rows.append(f"{outcome.describe()} {len(events)}")
            except MonitorViolation as v:
                rows.append(str(v))
            except RuntimeFault as e:
                rows.append(f"RuntimeFault: {e}")
    return rows


def test_pinned_behaviour_digest():
    rows = [row for seed in range(200) for row in _rows(seed)]
    assert len(rows) == 2742
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16] == "5ecee77abe8f96bb"

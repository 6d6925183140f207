"""One benchmark sample, run in a fresh Python process.

    python3 benchmarks/worker.py '{"workload": "run", "seed": 1, "trace": null}'

Builds the sample's inputs, then imports mstlang, parses and checks what
the sample needs, runs the timed section, checks every output against its
expected answer and prints one JSON object on stdout. A fresh process keeps
the process-global caches of mstlang cold, as for one `mst` invocation, and
makes `ru_maxrss` belong to this sample alone. Between operations, and
between the reductions of long runs, it times the reference load of
calibrate.py, and it scales each timing by how fast the host ran just then.
"""

import hashlib
import json
import os
import resource
import statistics
import sys
import time
from array import array
from bisect import bisect_right
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402

clock = time.perf_counter
# Timed parts shorter than this share the reference times around them.
# The host's speed moves within tenths of a second (README.md, "Noise").
REF_GAP_S = 0.02


class Speedometer:
    """Times the reference load of calibrate.py between timed parts, at most
    once per REF_GAP_S, and gives each part the mean of the reference times
    taken just before and just after it: how fast the host ran plain Python
    around that part. `spent` sums the time the references took."""

    def __init__(self):
        self.refs = [calibrate.reference_s()]
        self.last = clock()
        self.pending = []
        self.ref_of = {}
        self.spent = 0.0

    def due(self, now):
        return now - self.last >= REF_GAP_S

    def done(self, *names, force=False):
        """Parts `names` have ended; `force` takes a reference now."""
        self.pending.extend(names)
        now = clock()
        if force or self.due(now):
            ref = calibrate.reference_s()
            for n in self.pending:
                self.ref_of[n] = (self.refs[-1] + ref) / 2
            self.pending = []
            self.refs.append(ref)
            self.last = clock()
            self.spent += self.last - now

    def factor(self, name):
        """How much the timing of part `name` is scaled to reach the nominal
        host speed; valid once a reference was taken after the part."""
        return calibrate.NOMINAL_S / self.ref_of[name]


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems = []

    def fail(self, op, why, wrong):
        self.failed += 1
        self.wrong += int(wrong)
        if len(self.problems) < 20:
            self.problems.append(f"{op}: {why}")


def verdict_problem(inp, report):
    """None when the checker's report matches the expected verdict."""
    failing = {v.name: v.method for v in report.classes if not v.ok}
    if failing != inp.class_failures:
        return f"failing classes {failing}, expected {inp.class_failures}"
    errors = tuple(e.split(":")[0] for e in report.program_errors)
    if errors != tuple(inp.program_errors):
        return f"program errors {report.program_errors}, expected {inp.program_errors}"
    return None


def parse_and_check(mst, inp, res, verdicts):
    """Parse and check one input; returns (program, ctx) or None on failure.
    Records the verdict latency in ms under the input's name."""
    res.attempted += 1
    t0 = clock()
    try:
        program = mst.parse_program(inp.text, filename=inp.name)
        report, ctx = mst.check_program(program)
    except Exception as e:  # any exception is a failed operation, not a crash
        res.fail(inp.name, f"{type(e).__name__}: {str(e)[:120]}", wrong=False)
        return None
    verdicts[inp.name] = (clock() - t0) * 1000.0
    why = verdict_problem(inp, report)
    if why:
        res.fail(inp.name, why, wrong=True)
        return None
    return program, ctx


def outcome_problem(run, outcome, events):
    if outcome.kind not in run.kinds:
        return f"outcome {outcome.kind}, expected one of {run.kinds}"
    if run.exact_events is not None:
        if len(events) != run.exact_events:
            return f"{len(events)} events, expected {run.exact_events}"
    elif outcome.kind == "limit" and len(events) < workloads.CAP_MIN_EVENTS:
        return f"hit the cap after {len(events)} events"
    if run.thread_kinds is not None:
        kinds = tuple(k for k, _ in outcome.threads)
        if kinds != run.thread_kinds:
            return f"threads {kinds}, expected {run.thread_kinds}"
    return None


def part(name, j):
    """The name under which `speed` times part `j` of run `name`."""
    return f"{name}#{j}"


def execute(mst, run, loaded, res, stats, digests, speed):
    """One program x schedule run; returns (steps, seconds per part, step
    deltas, cuts). A run is cut into parts by the references `speed` takes
    between two of its reductions, once REF_GAP_S has passed since the last
    one; `cuts` holds the index of the step delta that starts each part
    after the first. The references' own time is left out."""
    res.attempted += 1
    program, ctx = loaded
    stamps = array("d")
    cuts = []
    spent0 = speed.spent
    interp = mst.Interpreter(program)
    monitor = mst.Monitor(program, ctx, verify_states=True, verify_traces=True) if run.monitored else None

    def stamp():
        now = clock()
        stamps.append(now - (speed.spent - spent0))
        if speed.due(now):
            speed.done(part(run.name, len(cuts)), force=True)
            cuts.append(len(stamps) - 1)

    if monitor is None:
        def observer(step_no, before, ev, after):
            stamp()
    else:
        on_step = monitor.on_step

        def observer(step_no, before, ev, after):
            on_step(step_no, before, ev, after)
            stamp()

    t0 = clock()
    try:
        if monitor is not None:
            monitor.start(interp.initial_config())
        stamp()
        outcome, events, conf = interp.run(run.cap, seed=run.schedule, observer=observer)
    except mst.monitor.MonitorViolation as v:
        res.fail(run.name, f"MonitorViolation: {v}", wrong=True)
        return 0, [], [], []
    except Exception as e:
        res.fail(run.name, f"{type(e).__name__}: {str(e)[:120]}", wrong=False)
        return 0, [], [], []
    bounds = [t0] + [stamps[c] for c in cuts] + [clock() - (speed.spent - spent0)]
    parts_s = [b - a for a, b in zip(bounds, bounds[1:])]
    why = outcome_problem(run, outcome, events)
    if why:
        res.fail(run.name, why, wrong=True)
    stats["rules"].update(ev.rule for ev in events)
    stats["heap_max"] = max(stats["heap_max"], sum(len(th.heap.ids) for th in conf.threads))
    stats["threads_max"] = max(stats["threads_max"], len(conf.threads))
    if digests is not None:
        log = "\n".join(mst.interpreter.format_event(i, ev) for i, ev in enumerate(events, 1))
        digests[run.name] = hashlib.sha256(log.encode()).hexdigest()[:16]
    deltas = [(b - a) * 1e6 for a, b in zip(stamps, stamps[1:])]
    return len(events), parts_s, deltas, cuts


def main(job):
    sample = workloads.build_sample(job["workload"], job["seed"], ROOT)
    trace_out = job.get("trace")
    res = Result()
    speed = Speedometer()

    # The set-up is scaled by the mean of the references taken from just
    # before it to just after it, and their own time is left out.
    first_ref, spent0 = len(speed.refs) - 1, speed.spent
    t_setup = clock()
    sys.path.insert(0, str(ROOT / "src"))
    import mstlang as mst

    tracer = None
    if trace_out:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.open("sample")

    verdicts = {}
    # Per run of the timed section: seconds per part, reductions, and the
    # per-reduction latencies in us in order with the cuts between parts.
    # Only runs with latencies count towards steps/s.
    parts, op_steps, deltas = {}, {}, {}
    out = {}
    if sample.workload == "check":
        setup_s = clock() - t_setup
        speed.done(force=True)
        setup_ref = statistics.fmean(speed.refs[first_ref:])
        for inp in sample.inputs:
            parse_and_check(mst, inp, res, verdicts)
            speed.done(inp.name, force=True)
    else:
        loaded = {}
        for inp in sample.inputs:
            got = parse_and_check(mst, inp, res, verdicts)
            speed.done(inp.name, force=True)
            if got is not None:
                loaded[inp.name] = got
        setup_s = clock() - t_setup - (speed.spent - spent0)
        speed.done(force=True)
        setup_ref = statistics.fmean(speed.refs[first_ref:])
        stats = {"rules": Counter(), "heap_max": 0, "threads_max": 0}
        digests = {} if trace_out else None
        for run in sample.runs:
            if run.program not in loaded:
                res.attempted += 1
                res.fail(run.name, "program did not load", wrong=False)
                continue
            if tracer:
                tracer.open("run")
            n, parts_s, d, cuts = execute(mst, run, loaded[run.program], res, stats, digests, speed)
            if tracer:
                tracer.close()
            speed.done(part(run.name, len(cuts)))
            if n:
                parts[run.name] = parts_s
                op_steps[run.name] = n
                # Unmonitored runs of `scale` only feed its rate drops.
                if run.monitored or sample.workload == "run":
                    deltas[run.name] = (d, cuts)
        out.update(rules=dict(stats["rules"]), heap_max=stats["heap_max"],
                   threads_max=stats["threads_max"], digests=digests)
    speed.done("end", force=True)

    # Every timing is scaled by the reference times around its part.
    f = speed.factor
    verdict_ms = {name: ms * f(name) for name, ms in verdicts.items()}
    if sample.workload == "check":
        # An operation is one input's verdict and counts as one reduction
        # of its own latency.
        op_s = {name: ms / 1000.0 for name, ms in verdict_ms.items()}
        op_steps = {name: 1 for name in op_s}
        step_us = {name: [round(ms * 1000.0, 3)] for name, ms in verdict_ms.items()}
        raw_wall_s = sum(verdicts.values()) / 1000.0
    else:
        op_s = {name: sum(s * f(part(name, j)) for j, s in enumerate(ps)) for name, ps in parts.items()}
        step_us = {name: [round(v * f(part(name, bisect_right(cuts, i))), 3) for i, v in enumerate(d)]
                   for name, (d, cuts) in deltas.items()}
        raw_wall_s = sum(sum(ps) for ps in parts.values())
    out.update(
        refs=speed.refs,
        verdict_ms=verdict_ms,
        op_s=op_s,
        op_steps=op_steps,
        step_us=step_us,
        setup_s=setup_s * calibrate.NOMINAL_S / setup_ref,
        raw_setup_s=setup_s,
        raw_wall_s=raw_wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=res.attempted,
        failed=res.failed,
        wrong=res.wrong,
        problems=res.problems,
    )
    if tracer:
        tracer.close()
        tokens = sum(len(mst.parser.tokenize(i.text)) for i in sample.inputs)
        out["trace"] = tracer.report(tokens)
        tracer.write(Path(trace_out))
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))), flush=True)
    # Skip interpreter teardown, which frees every cached type node and takes
    # up to a third of a second that would only lengthen the sample loop.
    os._exit(0)

"""The mstlang benchmark: one workload per invocation, every output checked.

    python3 benchmarks/run.py --workload monitor --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30

Workloads (see workloads.py for the inputs and why each was chosen):
  check    parse and check the corpus plus generated wide protocols and
           long bodies
  run      the criterion-08 mix and the deadlock programs, unmonitored
  monitor  the same mix under Monitor(verify_states, verify_traces)
  scale    generated heap, body and thread growth families, small and large

The load is a closed loop: one worker process at a time, each a fresh
Python process running one sample (see worker.py). Every sample of a run
runs the same inputs. With --trace 0 the samples repeat until --seconds
have passed; the worker scales each timing to a nominal host speed by a
reference load timed around it (calibrate.py), and the end-to-end metrics
are medians over the samples. With --trace 1 one traced sample gives the
per-layer metrics and untraced samples of the same inputs give the tracing
overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the metric names and units are read from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_SAMPLES = 3
WORKER_TIMEOUT_S = 150
# Fixed string hashing makes set iteration, and so the traced counters,
# repeat exactly between runs.
WORKER_ENV = {**os.environ, "PYTHONHASHSEED": "0"}
RULES = ("New", "Swap", "Call", "Return", "Switch", "Seq", "While", "SelfCall",
         "Init", "ComBase", "ComObj", "Spawn")


class BenchError(Exception):
    pass


def run_worker(workload, seed, trace_path=None):
    job = {"workload": workload, "seed": seed,
           "trace": str(trace_path) if trace_path else None}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def warm_up():
    """Import mstlang once so that later samples do not pay for bytecode
    compilation, which a user's repeated runs do not pay either."""
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import mstlang"],
                   cwd=ROOT, env=WORKER_ENV, check=True, timeout=WORKER_TIMEOUT_S)


def collect(workload, seed, seconds, start=None):
    """Samples of the seed's inputs until the next one would end after
    `seconds` from `start` (at least MIN_SAMPLES). Every sample runs the
    same inputs and schedules, so each operation is timed once per sample."""
    samples, start = [], time.monotonic() if start is None else start
    took = 0.0
    while len(samples) < MIN_SAMPLES or time.monotonic() - start + took / len(samples) <= seconds:
        t0 = time.monotonic()
        samples.append(run_worker(workload, seed))
        took += time.monotonic() - t0
    return samples


def quantile(sorted_values, q):
    """The q-quantile of an already sorted list, interpolating linearly
    between neighbours."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def median_by_name(samples, key):
    """Per name, the median over samples of the sample's (scaled) value."""
    by = {}
    for s in samples:
        for name, v in s[key].items():
            by.setdefault(name, []).append(v)
    return {name: statistics.median(v) for name, v in by.items()}


def step_latencies(samples):
    """The scaled latency of every reduction, median over samples: the
    k-th reduction of a run is the same reduction in every sample."""
    out = []
    per_sample = [s["step_us"] for s in samples]
    for run in per_sample[0]:
        out.extend(statistics.median(col) for col in zip(*(p[run] for p in per_sample if run in p)))
    out.sort()
    return out


def steps_per_s(samples):
    """Reductions per second over the operations that count reductions,
    from each operation's median time."""
    op_s = median_by_name(samples, "op_s")
    counted = samples[0]["step_us"]
    steps = sum(samples[0]["op_steps"][name] for name in counted)
    secs = sum(op_s[name] for name in counted)
    return steps / secs if secs else 0.0


def rate_drops(samples):
    op_s = median_by_name(samples, "op_s")
    steps = samples[0]["op_steps"]
    out = {}
    for family, name in (("heap", "rate_drop.heap"), ("body", "rate_drop.body"),
                         ("threads", "rate_drop.threads"), ("iheap", "interp_rate_drop.heap")):
        small, large = f"{family}.small", f"{family}.large"
        if op_s.get(small) and op_s.get(large):
            out[name] = (steps[small] / op_s[small]) / (steps[large] / op_s[large])
        else:
            out[name] = 0.0
    return out


def end_to_end(samples):
    """Every timing, scaled by the worker, is a median over samples; sums
    and latency percentiles are taken over the operations or reductions of
    those medians."""
    verdicts = sorted(median_by_name(samples, "verdict_ms").values())
    steps = step_latencies(samples)
    m = {
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "wall_s": sum(median_by_name(samples, "op_s").values()),
        "verdict_ms_p50": quantile(verdicts, 0.5),
        "verdict_ms_p90": quantile(verdicts, 0.9),
        "steps_per_s": steps_per_s(samples),
        "step_us_p50": quantile(steps, 0.5),
        "step_us_p99": quantile(steps, 0.99),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }
    ref = sorted(r * 1000 for s in samples for r in s["refs"])
    notes = {
        "samples": len(samples),
        "verdicts per sample": len(samples[0]["verdict_ms"]),
        "steps per sample": len(steps),
        "reference load ms, min/median/max": f"{ref[0]:.2f}/{statistics.median(ref):.2f}/{ref[-1]:.2f}",
        "unscaled median wall_s": round(statistics.median(s["raw_wall_s"] for s in samples), 4),
    }
    return m, notes


def per_layer(traced, untraced):
    t = traced["trace"]
    m = {k: v for k, v in t.items() if isinstance(v, (int, float))}
    m["parser.tokens_per_s"] = t["parser.tokens"] / t["parser.parse.s"] if t.get("parser.parse.s") else 0.0
    rules = traced.get("rules", {})
    for r in RULES:
        m[f"interpreter.rule.{r}.count"] = rules.get(r, 0)
    events = sum(rules.values())
    m["interpreter.decompose_per_step"] = m.get("interpreter.decompose.top", 0) / events if events else 0.0
    m["syntax.heap.max_objects"] = traced.get("heap_max", 0)
    m["syntax.threads.max"] = traced.get("threads_max", 0)
    m.update(rate_drops(untraced))
    traced_rate = steps_per_s([traced])
    m["trace.overhead"] = steps_per_s(untraced) / traced_rate if traced_rate else 0.0
    return m


def select(values, declared, fill_missing):
    out = {}
    for spec in declared:
        name = spec["name"]
        if name not in values and not fill_missing:
            raise BenchError(f"metric {name} was not measured")
        out[name] = {"value": float(values.get(name, 0.0)), "unit": spec["unit"]}
    return out


def print_table(title, metrics, notes):
    print(f"== {title}")
    for name, mv in metrics.items():
        print(f"  {name:44s} {mv['value']:14.6g} {mv['unit']}")
    for k, v in notes.items():
        print(f"  ({k}: {v})")


def run_workload(workload, seed, seconds, trace, spec):
    if trace:
        trace_path = HERE / "out" / f"trace-{workload}-{seed}.json"
        start = time.monotonic()
        traced = run_worker(workload, seed, trace_path)
        untraced = collect(workload, seed, seconds, start=start)
        values = per_layer(traced, untraced)
        metrics = select(values, spec["per_layer"], fill_missing=True)
        samples = [traced] + untraced
        notes = {"trace file": trace_path.relative_to(ROOT)}
    else:
        samples = collect(workload, seed, seconds)
        values, notes = end_to_end(samples)
        metrics = select(values, spec["end_to_end"], fill_missing=False)
        if workload == "scale":
            notes.update({k: round(v, 3) for k, v in rate_drops(samples).items()})
    raw = HERE / "out" / f"samples-{workload}-{seed}-trace{int(trace)}.json"
    raw.parent.mkdir(exist_ok=True)
    raw.write_text(json.dumps([{k: v for k, v in s.items() if k not in ("trace", "digests", "step_us")}
                               for s in samples]))
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    wrong = sum(s["wrong"] for s in samples)
    notes["fail_ratio"] = f"{failed}/{attempted}"
    problems = sorted({p for s in samples for p in s["problems"]})
    for p in problems[:10]:
        print(f"  failed: {p}")
    print_table(f"{workload} seed={seed} trace={int(trace)}", metrics, notes)
    # `correct` is false when an output differs from its expected answer;
    # an exception is a failed operation without an output.
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/mstlang/__init__.py", "corpus", "BENCHMARK.json")
               if not (ROOT / p).exists()]
    if missing:
        print(f"error: run from an mstlang checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        warm_up()
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace), spec) for w in names]
    except (BenchError, subprocess.SubprocessError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for r in results:
        print(json.dumps(r))
    return 0


if __name__ == "__main__":
    sys.exit(main())

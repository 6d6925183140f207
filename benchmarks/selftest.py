"""Self-tests of the benchmark itself.

    python3 benchmarks/selftest.py

Checks that
  * two traced runs of one seed give identical counters and identical
    digests of the event log of every run, on every workload;
  * a different seed changes the seeded schedules (and so their event logs)
    but not the deterministic runs;
  * every generated program gets its expected verdict and run outcome, for
    several seeds. The over-limit body of `check` may fail only with the
    RecursionError documented in workloads.py.
Exits 0 when all hold, 1 otherwise.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads  # noqa: E402

OUT = HERE / "out"
failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def counters(result):
    """The parts of a traced sample that must repeat exactly."""
    t = {k: v for k, v in result["trace"].items()
         if not k.endswith(".s") and k not in ("self_s",)}
    return t, result.get("rules"), result.get("digests")


def traced(workload, seed, tag):
    return bench.run_worker(workload, seed, OUT / f"selftest-{workload}-{seed}-{tag}.json")


def main():
    bench.warm_up()
    runs = {}
    for w in workloads.WORKLOADS:
        a, b = traced(w, 1, "a"), traced(w, 1, "b")
        runs[w] = a
        ca, cb = counters(a), counters(b)
        expect(ca[0] == cb[0], f"{w}: traced counters repeat for one seed ({len(ca[0])} counters)")
        expect(ca[1] == cb[1] and ca[2] == cb[2], f"{w}: rule counts and event-log digests repeat")

    expect(workloads.schedule_seeds(1, 8) != workloads.schedule_seeds(2, 8),
           "a different seed draws different schedule seeds")
    one, two = runs["run"]["digests"], traced("run", 2, "a")["digests"]
    det_one = {k.split("@")[0]: v for k, v in one.items() if k.endswith("@None")}
    det_two = {k.split("@")[0]: v for k, v in two.items() if k.endswith("@None")}
    seeded_one = sorted(v for k, v in one.items() if not k.endswith("@None"))
    seeded_two = sorted(v for k, v in two.items() if not k.endswith("@None"))
    expect(det_one == det_two, "deterministic runs are the same under another seed")
    expect(seeded_one != seeded_two, "seeded schedules change with the seed")

    known = "gen/body1000: RecursionError"
    for seed in (1, 2, 3):
        chk = bench.run_worker("check", seed)
        other = [p for p in chk["problems"] if not p.startswith(known)]
        expect(not other and chk["wrong"] == 0, f"check seed {seed}: expected verdicts {other}")
        if chk["problems"]:
            print(f"     known defect still present: {chk['problems'][0][:60]}")
        sc = bench.run_worker("scale", seed)
        expect(sc["failed"] == 0, f"scale seed {seed}: generated programs check and run as built "
               f"{sc['problems']}")
    if failures:
        print(f"{len(failures)} self-test(s) failed")
        return 1
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads: which inputs each sample runs, and the expected answers.

Everything here is derived from the workload seed, and
nothing here imports the program under test: the worker receives only the
generated inputs. Expected answers come from the acceptance tests
(criteria 02, 08 and 09) and from the construction of the generated
programs, never from recording what the code under test returns.

Why each workload, and why each size, is written next to it below; the
growth figures quoted were probed on a 2-core x86-64 host with Python 3.11.
"""

import random
from dataclasses import dataclass, field
from pathlib import Path

import gen

# The runnable corpus programs of acceptance criterion 08.
RUNNABLE = (
    "file.mst",
    "reduction_ex.mst",
    "remote1.mst",
    "remote2.mst",
    "progs/p01_while.mst",
    "progs/p02_selfcall.mst",
    "progs/p03_spawn.mst",
    "progs/p04_delegate.mst",
    "progs/p05_transfer.mst",
    "progs/p06_park.mst",
    "progs/p07_overload.mst",
    "progs/p08_enum_store.mst",
    "progs/p09_two_pairs.mst",
    "progs/p10_garbage.mst",
    "progs/p11_reuse_access.mst",
    "progs/p12_park_recv.mst",
    "progs/p13_while_enum.mst",
    "progs/p14_box_delegate.mst",
)

# Per-thread classifications of the blocked programs (criterion 09, by hand
# analysis of the three programs).
DEADLOCKS = {
    "deadlock1.mst": ("terminated", "deadlocked-on-channel", "deadlocked-on-channel"),
    "deadlock2.mst": ("unmatched-accept",),
    "deadlock3.mst": ("terminated", "unmatched-request"),
}

# Criterion 02: in algexample.mst only DBad is rejected, at method `a`; the
# file declares no main, which is a program error of its own.
CLASS_FAILURES = {"algexample.mst": ({"DBad": "a"}, ("MainMissing",))}

RUN_CAP = 1050  # criterion 08's step cap
DEADLOCK_CAP = 2000  # criterion 09's step cap
CAP_MIN_EVENTS = 1000  # criterion 08: a run that hits the cap made >= 1000 steps

# Schedules per program in one sample: the deterministic schedule, then
# seeded ones. Every sample of a run does the same work. `run` is cheap (about 0.1 s per schedule over
# all 18 programs), so a sample takes eight; `monitor` spends about 2.3 s per
# schedule, 93% of it in remote1/remote2, so one: the deterministic one.
SCHEDULES = {"run": 8, "monitor": 1}

# check: wide protocols. Parsing a ring of K named states grows about as K^3
# (K = 20: 0.06 s, 30: 0.18 s, 40: 0.57 s); K stops at 20 so that a sample
# stays well under a second. Two seeds per size give the 90th percentile
# more than one input to rest on.
WIDE_SIZES = (5, 10, 15, 20)
WIDE_PER_SIZE = 2
# check: straight-line bodies. The resolver recurses once per statement and
# fails near 490 statements in a fresh process, so 100 and 400 stay below the
# ceiling. OVER_LIMIT_BODY is the ROADMAP's N = 1000: its expected verdict is
# OK, and at the commit that introduced this benchmark it raises
# RecursionError, which the benchmark counts as a failed operation.
BODY_SIZES = (100, 400)
OVER_LIMIT_BODY = 1000

# scale: (family, size label, size, monitored). Sizes pair a small and a
# large instance; the ratio of their steps/s is the family's rate drop.
# A sample of all eight runs takes about 3.5 s. Rates are medians over the
# samples of the ten runs recorded in baseline.json (2-core host).
#  heap:    500 -> 2000 steps, heap 47 -> 184 objects; monitored steps/s
#           falls 3.8k -> 1.5k because the monitor re-walks the whole heap
#           each step. 500 is where ROADMAP item 3's gate starts.
#  body:    n = 50 -> 150 statements, 2.2k -> 0.74k steps/s: each step
#           re-checks the whole remaining expression. 150 keeps the run
#           under 0.6 s and well below the recursion ceiling.
#  threads: 1 -> 8 looping workers at a 500-step cap, 6.4k -> 1.4k steps/s:
#           each step re-checks every thread. The corpus never has more
#           than 3 threads.
#  iheap:   the heap family unmonitored, 1000 -> 16000 steps (heap 93 ->
#           1456 objects), 54k -> 29k steps/s: Heap is a tuple of pairs, so
#           lookups are linear in its size.
SCALE = (
    ("heap", "small", 500, True),
    ("heap", "large", 2000, True),
    ("body", "small", 50, True),
    ("body", "large", 150, True),
    ("threads", "small", 1, True),
    ("threads", "large", 8, True),
    ("iheap", "small", 1000, False),
    ("iheap", "large", 16000, False),
)
THREADS_CAP = 500

WORKLOADS = ("check", "run", "monitor", "scale")


@dataclass
class Input:
    """One program to parse and check, with its expected verdict."""

    name: str
    text: str
    class_failures: dict = field(default_factory=dict)  # class -> failing method
    program_errors: tuple = ()  # expected program error prefixes


@dataclass
class Run:
    """One program x schedule execution and its expected outcome."""

    name: str
    program: str  # key into the sample's inputs
    schedule: object  # None (deterministic) or an int seed
    cap: int
    monitored: bool
    kinds: tuple  # acceptable outcome kinds
    thread_kinds: tuple = None  # exact per-thread classification, if blocked
    exact_events: int = None  # runs of generated programs stop exactly at the cap
    family: str = ""  # scale only
    size: str = ""  # scale only


@dataclass
class Sample:
    workload: str
    inputs: list
    runs: list


def corpus_inputs(root: Path):
    out = []
    for path in sorted((root / "corpus").rglob("*.mst")):
        rel = path.relative_to(root / "corpus").as_posix()
        fails, errors = CLASS_FAILURES.get(rel, ({}, ()))
        out.append(Input(rel, path.read_text(encoding="utf-8"), dict(fails), errors))
    return out


def generated_check_inputs(seed):
    rng = random.Random(f"{seed}/check")
    out = []
    for k in WIDE_SIZES:
        for j in range(WIDE_PER_SIZE):
            out.append(Input(f"gen/wide{k}.{j}", gen.wide_protocol(rng.getrandbits(32), k)))
    for n in BODY_SIZES + (OVER_LIMIT_BODY,):
        out.append(Input(f"gen/body{n}", gen.long_body(rng.getrandbits(32), n)))
    return out


def schedule_seeds(seed, count):
    rng = random.Random(f"{seed}/schedules")
    return [rng.getrandbits(32) for _ in range(count)]


def build_sample(workload, seed, root: Path) -> Sample:
    if workload == "check":
        return Sample(workload, corpus_inputs(root) + generated_check_inputs(seed), [])
    if workload in ("run", "monitor"):
        monitored = workload == "monitor"
        inputs = {i.name: i for i in corpus_inputs(root)}
        runs = []
        count = SCHEDULES[workload]
        scheds = [None] + schedule_seeds(seed, count - 1)
        for name in RUNNABLE:
            for sched in scheds:
                runs.append(Run(f"{name}@{sched}", name, sched, RUN_CAP, monitored,
                                ("terminated", "limit")))
        for name, kinds in DEADLOCKS.items():
            runs.append(Run(f"{name}@None", name, None, DEADLOCK_CAP, monitored,
                            ("blocked",), thread_kinds=kinds))
        used = set(RUNNABLE) | set(DEADLOCKS)
        return Sample(workload, [inputs[n] for n in sorted(used)], runs)
    if workload == "scale":
        rng = random.Random(f"{seed}/scale")
        texts = {"heap": gen.heap_growth(rng.getrandbits(32))}
        sched = schedule_seeds(seed, 1)[0]
        runs = []
        for family, size, n, monitored in SCALE:
            if family in ("heap", "iheap"):
                runs.append(Run(f"{family}.{size}", "heap", None, n, monitored, ("limit",),
                                exact_events=n, family=family, size=size))
            elif family == "body":
                texts[f"body{n}"] = gen.long_body(rng.getrandbits(32), n)
                runs.append(Run(f"body.{size}", f"body{n}", None, 100 * n, monitored,
                                ("terminated",), thread_kinds=("terminated",),
                                family=family, size=size))
            else:
                texts[f"threads{n}"] = gen.spawned_workers(rng.getrandbits(32), n)
                runs.append(Run(f"threads.{size}", f"threads{n}", sched, THREADS_CAP, monitored,
                                ("limit",), exact_events=THREADS_CAP, family=family, size=size))
        return Sample(workload, [Input(k, t) for k, t in texts.items()], runs)
    raise ValueError(f"unknown workload {workload!r}")

"""Seeded generators for the benchmark's four program families.

Each generator returns the text of one `.mst` program. A seed picks the
names, labels and statement kinds; the size arguments fix how much work the
program is, so two seeds give programs of the same cost shape. Every program
is well typed by construction, and its expected verdict and run outcome are
known without running the code under test:

* wide protocol: a class whose session has K named states in one loop.
  Checks OK.
* long body: a straight-line method body of n statements that swap null or
  a label into one of two fields. Checks OK, terminates.
* heap growth: a loop that never exits and drops a fresh object each
  iteration, so the heap grows by one object per iteration. Checks OK; a run
  stops at its step cap.
* spawned workers: a boot method spawns k workers, each looping forever
  without allocating. Checks OK; a run stops at its step cap.
"""

import random

LABELS = ("A", "B", "C", "D")


def _name(rng, prefix):
    return prefix + "".join(rng.choice("abcdefghkmnpqrstuvwxyz") for _ in range(4))


def wide_protocol(seed, k):
    """K named states in one loop: state i offers m_i, which leads to state
    i+1 (mod K). The seed picks the class and state names and the order in
    which the states are written."""
    rng = random.Random(seed)
    cls = _name(rng, "Wide")
    states = [_name(rng, f"S{i}x") for i in range(k)]
    rows = [f"{states[i]} = {{Null m{i}(Null): {states[(i + 1) % k]}}}" for i in range(k)]
    first = rows[0]
    rest = rows[1:]
    rng.shuffle(rest)
    where = ",\n        ".join([first] + rest)
    methods = "\n".join(f"  m{i}(x) {{ x }}" for i in range(k))
    return (
        f"class {cls} {{\n  session {states[0]}\n  where {where}\n  f;\n{methods}\n}}\n"
        f"main {cls}.m0;\n"
    )


def long_body(seed, n):
    """One method whose body is n straight-line statements: half are
    `f = v;` and half `f <-> v;`, in a seeded order, so every seed gives the
    same number of reduction steps."""
    rng = random.Random(seed)
    cls = _name(rng, "Long")
    forms = ["{} = {};"] * (n // 2) + ["{} <-> {};"] * (n - n // 2)
    rng.shuffle(forms)
    stmts = [form.format(rng.choice("fg"), rng.choice(("null",) + LABELS)) for form in forms]
    body = "\n    ".join(stmts)
    return (
        f"class {cls} {{\n  session {{Null go(Null): {{}}}}\n  f; g;\n"
        f"  go(x) {{\n    {body}\n    null\n  }}\n}}\n"
        f"main {cls}.go;\n"
    )


_LOOP = """class {loop} {{
  session {state}
  where {state} = {{{{TRUE, FALSE}} more(Null): <TRUE: {state}, FALSE: {{}}>}}
  more(x) {{ TRUE }}
}}
"""


def heap_growth(seed):
    """`while (c.more(null)) { t = new Junk(); t <-> null; null }` forever:
    one dropped object per iteration."""
    rng = random.Random(seed)
    loop, junk, main = _name(rng, "Loop"), _name(rng, "Junk"), _name(rng, "Main")
    return (
        _LOOP.format(loop=loop, state=_name(rng, "L"))
        + f"class {junk} {{\n  session {{Null use(Null): {{}}}}\n  use(x) {{ x }}\n}}\n"
        + f"class {main} {{\n  session {{Null go(Null): {{}}}}\n  c; t;\n"
        + f"  go(x) {{\n    c = new {loop}();\n"
        + f"    while (c.more(null)) {{ t = new {junk}(); t <-> null; null }}\n  }}\n}}\n"
        + f"main {main}.go;\n"
    )


def spawned_workers(seed, k):
    """A boot method spawns k workers; each loops forever on its own
    loop object and allocates nothing else."""
    rng = random.Random(seed)
    loop, worker, boot = _name(rng, "Loop"), _name(rng, "Work"), _name(rng, "Boot")
    spawns = " ".join(f"spawn {worker}.work(null);" for _ in range(k))
    return (
        _LOOP.format(loop=loop, state=_name(rng, "L"))
        + f"class {worker} {{\n  session {{Null work(Null): {{}}}}\n  c;\n"
        + f"  work(x) {{\n    c = new {loop}();\n    while (c.more(null)) {{ null; }}\n  }}\n}}\n"
        + f"class {boot} {{\n  session {{Null go(Null): {{}}}}\n  go(x) {{ {spawns} }}\n}}\n"
        + f"main {boot}.go;\n"
    )

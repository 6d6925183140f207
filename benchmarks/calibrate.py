"""A fixed reference load that measures how fast the host runs Python now.

The benchmark's host is a few virtual cores of a shared machine, and how
fast they run plain Python moves by up to 2x from second to second and
drifts over minutes with the load of other tenants (README.md, "Noise").
Each sample times this load in its own process before mstlang is
imported, after the set-up, between operations and between the reductions
of long runs, and scales each timing by the reference's speed around it
(worker.py). The load never changes and does not touch mstlang, so a
change to mstlang moves the scaled timings and the host's speed moves them
much less.

The load is the pure-Python parser of the standard library's regular
expressions (`re._parser`) run over fixed patterns: a recursive-descent
parser that builds small lists and tuples, like mstlang's own parser and
checker. Its time moves with the host's speed as mstlang's does (README.md,
"Noise").
"""

import gc
import time

try:
    from re import _parser
except ImportError:  # Python before 3.11
    import sre_parse as _parser

# Timings are scaled to the host speed at which this load takes this long,
# about its time on calm minutes of the 2-core host that recorded
# baseline.json (see README.md, "Noise").
NOMINAL_S = 0.0025
# Short enough to be timed every REF_GAP_S (worker.py) at little cost.
ROUNDS = 10
PATTERNS = (
    r"(a|b)*c{2,5}[^xyz]+\d+",
    r"(?P<n>\w+)\s*=\s*(?P<v>[^;]+);",
    r"^(\s*)(def|class)\s+([A-Za-z_]\w*)\s*(\(.*\))?:",
    r"((ab|cd)+|ef?g{1,3})*[0-9a-fA-F]{4,8}$",
    r"(?:https?://)?([\w.-]+)(:\d+)?(/[\w./%-]*)?(\?[\w=&%-]*)?",
)


def load():
    """One run of the reference load; returns a checksum."""
    total = 0
    for _ in range(ROUNDS):
        for p in PATTERNS:
            total += len(_parser.parse(p).data)
    return total


CHECKSUM = load()


def reference_s():
    """Seconds for one run of the reference load. The garbage collector is
    off meanwhile, so that the objects the process already holds (mstlang's
    caches, after a sample) do not slow it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        got = load()
        took = time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
    if got != CHECKSUM:
        raise RuntimeError("the reference load gave another result")
    return took


if __name__ == "__main__":
    print(f"reference load: {reference_s() * 1000:.2f} ms (checksum {CHECKSUM})")

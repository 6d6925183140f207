"""Per-layer tracing of mstlang from outside the package.

`Tracer.install()` wraps public functions of the mstlang modules in place:

* coarse phases (`parse`, `check`, and the benchmark's own `sample` and
  `run`) are recorded as spans (name, start, end, parent);
* per-step phases (`step`, `on_step`, `track`, `check_state`,
  `check_traces`) are kept as call counts and summed time;
* fine-grained functions are kept as call counts and summed time, and the
  shared ones (`subtyping`, `channels`, `syntax`) also per innermost open
  phase, e.g. `syntax.canon.in-check_state`.

A function imported by name into another module is wrapped there too, so
calls through either name are seen. Everything stays in memory until
`write()`; the benchmark's timed samples never import this module.
"""

import json
import time
from collections import defaultdict

import mstlang
from mstlang import channels, interpreter, monitor, parser, subtyping, syntax, typechecker

clock = time.perf_counter

MODULES = (mstlang, channels, interpreter, monitor, parser, subtyping, syntax, typechecker)

# A call to one of these opens a phase: (metric name, phase). Shared
# functions are attributed to the innermost open phase.
PHASE_FUNCTIONS = {
    (parser, "parse_program"): ("parser.parse", "parse"),
    (typechecker, "check_program"): ("typechecker.check", "check"),
}
PHASE_METHODS = {
    (interpreter.Interpreter, "step"): ("interpreter.step", "step"),
    (monitor.Monitor, "on_step"): ("monitor.on_step", None),
    (monitor.Monitor, "track"): ("monitor.track", "track"),
    (monitor.Monitor, "check_state"): ("monitor.check_state", "check_state"),
    (monitor.Monitor, "check_traces"): ("monitor.check_traces", "check_traces"),
}
FINE_FUNCTIONS = {
    (typechecker, "consistency"): "typechecker.consistency",
    (typechecker, "infer_expr"): "typechecker.infer_expr",
    (interpreter, "decompose"): "interpreter.decompose",
    (monitor, "lts_step"): "monitor.lts_step",
    (monitor, "replay_trace"): "monitor.replay_trace",
}
SHARED_FUNCTIONS = {
    (subtyping, "subtype_session"): "subtyping.subtype_session",
    (subtyping, "equivalent"): "subtyping.equivalent",
    (subtyping, "subtype_any"): "subtyping.subtype_any",
    (subtyping, "join_session"): "subtyping.join_session",
    (channels, "dual"): "channels.dual",
    (channels, "translate_channel"): "channels.translate_channel",
    (channels, "translate_access"): "channels.translate_access",
    (channels, "subtype_channel"): "channels.subtype_channel",
    (syntax, "unfold"): "syntax.unfold",
}
# Calls made from the monitor to these functions are also counted under the
# monitor's own name for them.
IMPORTED_NAMES = {(monitor, "consistency"), (monitor, "decompose")}


class Tracer:
    def __init__(self):
        self.stack = []  # open phases, innermost last
        self.span_stack = []  # ids of open spans
        self.spans = []  # [name, start, end, parent id]
        self.calls = defaultdict(int)
        self.top_calls = defaultdict(int)  # calls not nested in the same function
        self.seconds = defaultdict(float)
        self.canon_misses = 0
        self._depth = defaultdict(int)

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        parent = self.span_stack[-1] if self.span_stack else -1
        self.spans.append([name, clock(), None, parent])
        self.span_stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.span_stack.pop()][2] = clock()

    # -- wrappers ------------------------------------------------------------

    def _timed(self, fn, name, phase=None, shared=False, span=False):
        depth, calls, top, seconds, stack = (
            self._depth, self.calls, self.top_calls, self.seconds, self.stack)
        key = id(fn)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if depth[key]:
                return fn(*args, **kwargs)  # recursive call: counted, not re-timed
            where = stack[-1] if stack else "other"
            depth[key] = 1
            if phase:
                stack.append(phase)
            if span:
                self.open(phase)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                if span:
                    self.close()
                if phase:
                    stack.pop()
                depth[key] = 0
                top[name] += 1
                seconds[name] += dt
                if shared:
                    seconds[f"{name}.in-{where}"] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch_everywhere(self, module, fname, name, **kw):
        original = getattr(module, fname)
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    label = f"{mod.__name__.split('.')[-1]}.{attr}" if (mod, attr) in IMPORTED_NAMES else name
                    setattr(mod, attr, self._timed(original, label, **kw))

    def install(self):
        for (mod, fname), (name, phase) in PHASE_FUNCTIONS.items():
            self._patch_everywhere(mod, fname, name, phase=phase, span=True)
        for (cls, meth), (name, phase) in PHASE_METHODS.items():
            setattr(cls, meth, self._timed(getattr(cls, meth), name, phase=phase))
        for (mod, fname), name in FINE_FUNCTIONS.items():
            self._patch_everywhere(mod, fname, name)
        for (mod, fname), name in SHARED_FUNCTIONS.items():
            self._patch_everywhere(mod, fname, name, shared=True)
        self._install_canon()

    def _install_canon(self):
        canon = syntax.Type.canon
        timed = self._timed(canon, "syntax.canon", shared=True)

        def wrapper(node):
            if getattr(node, "_canon", None) is None:
                self.canon_misses += 1
            return timed(node)

        syntax.Type.canon = wrapper

    # -- output --------------------------------------------------------------

    def self_times(self):
        """Summed self time per span name: duration minus child spans."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def report(self, tokens):
        """Counters and summed times by metric name."""
        out = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
        for name, s in self.seconds.items():
            out[f"{name}.s"] = s
        out["syntax.canon.misses"] = self.canon_misses
        out["interpreter.decompose.top"] = self.top_calls.get("interpreter.decompose", 0)
        out["parser.tokens"] = tokens
        out["self_s"] = self.self_times()
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "spans": self.spans,
                "self_s": self.self_times(),
                "calls": dict(self.calls),
                "seconds": dict(self.seconds),
                "canon_misses": self.canon_misses,
            }, fh)

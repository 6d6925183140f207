"""What loading the package costs: `import mstlang` and `mst check` load the
parse and check layers only, and the run-time names load their module on
first use, resolving to the same objects as before."""

import importlib
import os
import subprocess
import sys

import pytest

import mstlang
from conftest import CORPUS

SRC = str(CORPUS.parent / "src")
RUN_TIME_MODULES = {"mstlang.interpreter", "mstlang.monitor", "dataclasses"}

# Every name the package exported before its run-time names loaded lazily,
# and the module it comes from.
EXPORTS = {
    "syntax": [
        "Branch", "ChanEnd", "ChanOffer", "ChanRecv", "ChanSelect", "ChanSend", "EnumType",
        "Heap", "LinkField", "LinkThis", "MethodSig", "NullType", "ObjectInternal", "Path",
        "Program", "RecordF", "SessionState", "ChannelState", "VariantF", "VariantS", "unfold",
    ],
    "parser": ["parse_program", "parse_file", "parse_files", "parse_session_type", "parse_channel_type"],
    "subtyping": ["equivalent", "join_field", "join_session", "subtype_session", "subtype_value"],
    "channels": ["dual", "subtype_channel", "translate_access", "translate_channel"],
    "typechecker": ["check_program"],
    "interpreter": ["Configuration", "Interpreter"],
    "monitor": ["Monitor", "lts_step", "parse_trace", "replay_trace"],
}


def python(*argv):
    """`python argv` on this source tree, in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          cwd=CORPUS.parent, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def imported(*argv):
    """The modules `python -X importtime argv` imports beyond what the
    interpreter's own start-up imports."""
    def names(proc):
        return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:") and "|" in line}
    return names(python("-X", "importtime", *argv)) - names(python("-X", "importtime", "-c", "pass"))


def test_import_mstlang_loads_only_the_parse_and_check_layers():
    loaded = imported("-c", "import mstlang")
    assert {m for m in loaded if m.startswith("mstlang")} == {
        "mstlang", "mstlang.syntax", "mstlang.parser", "mstlang.subtyping",
        "mstlang.channels", "mstlang.typechecker", "mstlang.render",
    }
    assert not loaded & RUN_TIME_MODULES


def test_mst_check_loads_no_run_time_layer():
    loaded = imported("-m", "mstlang", "check", "corpus/file.mst")
    assert "mstlang.typechecker" in loaded
    assert not loaded & RUN_TIME_MODULES


def test_run_time_names_load_on_first_use_and_stay():
    # each name is absent from the package until first read, then kept in
    # the package globals, the same object as in its own module
    python("-c", """if True:
        import sys, mstlang
        for name, home in [("Interpreter", "interpreter"), ("Configuration", "interpreter"),
                           ("Monitor", "monitor"), ("lts_step", "monitor"),
                           ("parse_trace", "monitor"), ("replay_trace", "monitor")]:
            assert name not in vars(mstlang), name
            value = getattr(mstlang, name)
            assert f"mstlang.{home}" in sys.modules
            assert vars(mstlang)[name] is value is getattr(sys.modules[f"mstlang.{home}"], name)
    """)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_exported_names_are_their_modules_objects(module, name):
    assert getattr(mstlang, name) is getattr(importlib.import_module(f"mstlang.{module}"), name)
    assert name in dir(mstlang)


def test_benchmark_access_paths_on_a_fresh_import():
    # benchmarks/worker.py reads these through the package before (or
    # without) reading a run-time name; tracing.py imports the modules by name
    python("-c", """if True:
        import mstlang as mst
        assert issubclass(mst.monitor.MonitorViolation, Exception)
        assert callable(mst.interpreter.format_event)
        from mstlang import channels, interpreter, monitor, parser, subtyping, syntax, typechecker
        assert monitor.Monitor is mst.Monitor and interpreter.Interpreter is mst.Interpreter
    """)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        mstlang.no_such_name
    assert not hasattr(mstlang, "Outcome")
    with pytest.raises(ImportError):
        from mstlang import no_such_name  # noqa: F401

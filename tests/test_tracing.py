"""The traced benchmark (`benchmarks/tracing.py`) wraps mstlang functions by
name; a rename must fail here, not only in `benchmarks/run.py --trace 1`."""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).parent.parent / "benchmarks" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("mstlang_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # imports only; install() is never called
    names = [
        *tracing.PHASE_FUNCTIONS,
        *tracing.PHASE_METHODS,
        *tracing.FINE_FUNCTIONS,
        *tracing.SHARED_FUNCTIONS,
        *tracing.IMPORTED_NAMES,
    ]
    assert len(names) > 20
    missing = [f"{owner.__name__}.{name}" for owner, name in names
               if not callable(getattr(owner, name, None))]
    assert missing == []

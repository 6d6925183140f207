"""Typestate language with modular session types.

A library and command line tool for a small class-based object language
whose classes carry session types: parsing, coinductive subtyping, static
checking, channel type duality and translation, a small-step interpreter for
the sequential and concurrent semantics, and a runtime monitor that tracks
typing environments and call-trace conformance along executions.

`import mstlang` loads the parse and check layers only: `syntax`, `parser`,
`subtyping`, `channels`, `typechecker` and `render`. The run-time names
(`Interpreter`, `Configuration`, `Monitor`, `lts_step`, `parse_trace`,
`replay_trace`) and the modules `interpreter` and `monitor` load their module
on first use (PEP 562), so checking never pays to load the interpreter or
the monitor.
"""

from importlib import import_module

from .syntax import (  # noqa: F401
    Branch,
    ChanEnd,
    ChanOffer,
    ChanRecv,
    ChanSelect,
    ChanSend,
    EnumType,
    Heap,
    LinkField,
    LinkThis,
    MethodSig,
    NullType,
    ObjectInternal,
    Path,
    Program,
    RecordF,
    SessionState,
    ChannelState,
    VariantF,
    VariantS,
    unfold,
)
from .parser import parse_program, parse_file, parse_files, parse_session_type, parse_channel_type  # noqa: F401
from .subtyping import equivalent, join_field, join_session, subtype_session, subtype_value  # noqa: F401
from .channels import dual, subtype_channel, translate_access, translate_channel  # noqa: F401
from .typechecker import check_program  # noqa: F401

__version__ = "0.1.0"

# Each run-time name and the module it lives in.
_RUNTIME = {
    "Configuration": "interpreter",
    "Interpreter": "interpreter",
    "Monitor": "monitor",
    "lts_step": "monitor",
    "parse_trace": "monitor",
    "replay_trace": "monitor",
}
_RUNTIME_MODULES = ("interpreter", "monitor")


def __getattr__(name):
    """Load a run-time name's module on first use and keep the name in the
    module globals, so the next read is a plain attribute read."""
    if name in _RUNTIME_MODULES:
        return import_module(f"{__name__}.{name}")
    home = _RUNTIME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{home}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_RUNTIME, *_RUNTIME_MODULES})

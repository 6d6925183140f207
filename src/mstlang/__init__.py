"""Typestate language with modular session types.

A library and command line tool for a small class-based object language
whose classes carry session types: parsing, coinductive subtyping, static
checking, channel type duality and translation, a small-step interpreter for
the sequential and concurrent semantics, and a runtime monitor that tracks
typing environments and call-trace conformance along executions.
"""

from .syntax import (  # noqa: F401
    Branch,
    ChanEnd,
    ChanOffer,
    ChanRecv,
    ChanSelect,
    ChanSend,
    Configuration,
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
from .interpreter import Interpreter  # noqa: F401
from .monitor import Monitor, lts_step, parse_trace, replay_trace  # noqa: F401

__version__ = "0.1.0"

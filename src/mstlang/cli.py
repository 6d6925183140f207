"""Command line front end.

Exit codes: 0 success / AllTerminated; 1 check failure, invalid trace, or
no runnable main under `run --unchecked`; 2 blocked run; 3 step limit;
4 monitor violation; 64 usage (a negative `--steps` too; `--steps 0` takes
no step); 65 parse error, at `line:col` within its file, prefixed with the
file's path when several files are given; 66 an input file not readable
as UTF-8 text; 70 runtime fault, a state no checked program reaches (say an
undeclared class or method under `run --unchecked`), or internal error: any
other exception, in every subcommand, is reported as one `internal error:
<Type>: <message>` line on stderr (say the `RecursionError` of an expression
nested about 1,000 deep).
"""

from __future__ import annotations

import argparse
import sys

from . import parser as psr
from .channels import dual, translate_channel
from .interpreter import Interpreter, MainMissing, RuntimeFault, format_event
from .monitor import Monitor, MonitorViolation, TypeErrorTransition, parse_trace, replay_trace
from .render import render_type
from .subtyping import equivalent, subtype_session
from .syntax import CoreError
from .typechecker import check_program

USAGE_EXIT = 64
PARSE_EXIT = 65
NOINPUT_EXIT = 66
CHECK_EXIT = 1
VIOLATION_EXIT = 4
RUNTIME_FAULT_EXIT = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _step_count(text):
    try:
        steps = int(text)
    except ValueError:
        steps = -1
    if steps < 0:
        raise argparse.ArgumentTypeError(f"expected a step count of 0 or more, found {text!r}")
    return steps


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="mst", description="Session-typed object language tool")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="type check programs")
    c.add_argument("files", nargs="+")
    c.add_argument("--machine", action="store_true", help="one CLASS line per verdict")

    r = sub.add_parser("run", help="execute a program")
    r.add_argument("files", nargs="+")
    r.add_argument("--steps", type=_step_count, default=100_000)
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--trace", action="store_true", help="print the event log")
    r.add_argument("--verify-states", action="store_true")
    r.add_argument("--verify-traces", action="store_true")
    r.add_argument("--unchecked", action="store_true", help="skip static checking")

    s = sub.add_parser("subtype", help="decide T1 <: T2")
    s.add_argument("file")
    s.add_argument("t1")
    s.add_argument("t2")

    q = sub.add_parser("equiv", help="decide T1 = T2 up to unfolding")
    q.add_argument("file")
    q.add_argument("t1")
    q.add_argument("t2")

    d = sub.add_parser("dual", help="dual of a channel type")
    d.add_argument("expr")
    d.add_argument("--file", default=None)

    t = sub.add_parser("translate", help="class session type of a channel type")
    t.add_argument("expr")
    t.add_argument("--file", default=None)

    tr = sub.add_parser("trace", help="replay a call trace against a class session")
    tr.add_argument("file")
    tr.add_argument("cls")
    tr.add_argument("trace")
    return p


def _load(files):
    try:
        return psr.parse_files(files)
    except psr.ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        raise SystemExit(PARSE_EXIT)
    except OSError as e:
        print(f"error: cannot read {e.filename}: {e.strerror}", file=sys.stderr)
        raise SystemExit(NOINPUT_EXIT)


def _load_text_type(parse, text, program):
    try:
        return parse(text, program)
    except psr.ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        raise SystemExit(PARSE_EXIT)


def cmd_check(args) -> int:
    program = _load(args.files)
    report, _ = check_program(program)
    for line in report.lines():
        print(line)
    if not args.machine:
        bad = sum(1 for v in report.classes if not v.ok) + len(report.program_errors)
        print("ok" if report.ok else f"{bad} problem(s)")
    return 0 if report.ok else CHECK_EXIT


def cmd_run(args) -> int:
    program = _load(args.files)
    ctx = None
    if not args.unchecked or args.verify_states or args.verify_traces:
        report, ctx = check_program(program)
        if not args.unchecked and not report.ok:
            for line in report.lines():
                print(line)
            return CHECK_EXIT
    interp = Interpreter(program)
    monitor = None
    if args.verify_states or args.verify_traces:
        monitor = Monitor(
            program, ctx, verify_states=args.verify_states, verify_traces=args.verify_traces
        )

    def observer(step_no, before, ev, after):
        if args.trace:
            print(format_event(step_no, ev))
        if monitor is not None:
            monitor.on_step(step_no, before, ev, after)

    try:
        if monitor is not None:
            monitor.start(interp.initial_config())
        outcome, _, _ = interp.run(args.steps, seed=args.seed, observer=observer)
    except MonitorViolation as v:
        print(str(v))
        return VIOLATION_EXIT
    except MainMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return CHECK_EXIT
    except (RuntimeFault, CoreError) as e:
        print(f"runtime fault: {e}", file=sys.stderr)
        return RUNTIME_FAULT_EXIT
    print(outcome.describe())
    return outcome.exit_code


def cmd_subtype(args, want_equiv=False) -> int:
    program = _load([args.file])
    t1 = _load_text_type(psr.parse_session_type, args.t1, program)
    t2 = _load_text_type(psr.parse_session_type, args.t2, program)
    result = equivalent(t1, t2) if want_equiv else subtype_session(t1, t2)
    print("yes" if result else "no")
    return 0


def cmd_dual(args, translate=False) -> int:
    program = _load([args.file]) if args.file else None
    sigma = _load_text_type(psr.parse_channel_type, args.expr, program)
    out = translate_channel(sigma) if translate else dual(sigma)
    print(render_type(out))
    return 0


def cmd_trace(args) -> int:
    program = _load([args.file])
    decl = program.classes.get(args.cls)
    if decl is None:
        print(f"error: unknown class {args.cls!r}", file=sys.stderr)
        return USAGE_EXIT
    trace = parse_trace(args.trace)
    try:
        replay_trace(decl.session, trace)
    except TypeErrorTransition as e:
        print(f"invalid {e}")
        return CHECK_EXIT
    print("valid")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "check":
            code = cmd_check(args)
        elif args.command == "run":
            code = cmd_run(args)
        elif args.command == "subtype":
            code = cmd_subtype(args)
        elif args.command == "equiv":
            code = cmd_subtype(args, want_equiv=True)
        elif args.command == "dual":
            code = cmd_dual(args)
        elif args.command == "translate":
            code = cmd_dual(args, translate=True)
        else:
            code = cmd_trace(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else USAGE_EXIT
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return RUNTIME_FAULT_EXIT
    return code


if __name__ == "__main__":
    sys.exit(main())

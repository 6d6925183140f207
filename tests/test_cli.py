import hashlib
import os
import subprocess
import sys

import pytest

from conftest import CORPUS
from mstlang.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_ok(capsys):
    code, out, _ = run(["check", str(CORPUS / "file.mst")], capsys)
    assert code == 0
    assert "CLASS File OK" in out


def _python_m_mstlang(argv, timeout=60, **env):
    """`python -m mstlang argv` on this source tree, with `env` added."""
    src = str(CORPUS.parent / "src")
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "mstlang", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def test_python_m_mstlang(capsys):
    # `python -m mstlang` is the same command line as `mst`
    path = str(CORPUS / "file.mst")
    proc = _python_m_mstlang(["check", path])
    assert proc.returncode == 0 and proc.stdout.endswith("CLASS Main OK\nok\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == run(["check", path], capsys)


def test_check_failure_exit_code(capsys):
    code, out, _ = run(["check", str(CORPUS / "algexample.mst")], capsys)
    assert code == 1
    assert "CLASS DBad ERR ResultTypeMismatch" in out


def test_run_terminates(capsys):
    code, out, _ = run(["run", str(CORPUS / "file.mst"), "--steps", "500"], capsys)
    assert code == 0
    assert "AllTerminated" in out


def test_run_blocked_exit_2(capsys):
    code, out, _ = run(["run", str(CORPUS / "deadlock1.mst"), "--steps", "500"], capsys)
    assert code == 2
    assert "deadlocked-on-channel" in out


def test_run_step_limit_exit_3(capsys):
    code, out, _ = run(["run", str(CORPUS / "remote1.mst"), "--steps", "200"], capsys)
    assert code == 3


def test_run_monitored_with_trace(capsys):
    code, out, _ = run(
        ["run", str(CORPUS / "reduction_ex.mst"), "--steps", "100",
         "--trace", "--verify-states", "--verify-traces"],
        capsys,
    )
    assert code == 0
    assert "#1 " in out and "AllTerminated" in out


def test_run_violation_exit_4(capsys):
    bad = CORPUS / ".." / "tests" / "data_bad.mst"
    bad.parent.mkdir(exist_ok=True)
    bad.write_text(
        """
        class P { session {Null use(Null): {}} use(x) { x } }
        class M {
          session {Null go(Null): {}}
          f;
          go(x) { f = new P(); f.use(null); f.use(null); }
        }
        main M.go;
        """
    )
    code, out, _ = run(
        ["run", str(bad), "--unchecked", "--verify-states", "--steps", "50"], capsys
    )
    assert code == 4
    assert "VIOLATION" in out
    bad.unlink()


def test_subtype_yes_no(capsys):
    f = str(CORPUS / "file.mst")
    code, out, _ = run(["subtype", f, "File.Init", "FileReadToEnd.Init"], capsys)
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run(["subtype", f, "FileReadToEnd.Init", "File.Init"], capsys)
    assert code == 0 and out.strip() == "no"


def test_equiv(capsys):
    f = str(CORPUS / "remote1.mst")
    code, out, _ = run(["equiv", f, "RemoteFile.Init", "File.Init"], capsys)
    assert out.strip() == "yes"


def test_dual_and_translate(capsys):
    code, out, _ = run(["dual", "End"], capsys)
    assert code == 0 and out.strip() == "End"
    code, out, _ = run(["dual", "!{A}.End"], capsys)
    assert out.strip() == "?{A}.End"
    code, out, _ = run(["translate", "End"], capsys)
    assert out.strip() == "{}"
    code, out, _ = run(["translate", "?{A}.End"], capsys)
    assert "receive" in out


def test_trace_valid_and_invalid(capsys):
    f = str(CORPUS / "file.mst")
    code, out, _ = run(["trace", f, "File", "open OK hasNext FALSE close"], capsys)
    assert code == 0 and out.strip() == "valid"
    code, out, _ = run(["trace", f, "File", "open OK read"], capsys)
    assert code == 1
    assert "invalid" in out and "position 3" in out


def test_usage_error_exit_64(capsys):
    assert main(["subtype"]) == 64
    assert main([]) == 64


def test_parse_error_exit_65(tmp_path, capsys):
    bad = tmp_path / "bad.mst"
    bad.write_text("class { nope }")
    assert main(["check", str(bad)]) == 65


@pytest.mark.parametrize(
    "argv, where",
    [
        (["check", "FILE"], "1:43"),
        (["subtype", "OK", "<A: {}, A: {}>", "{}"], "1:9"),
        (["check", "ACCESS"], "1:19"),
        (["dual", "+{A: End, A: End}"], "1:11"),
        (["translate", "&{A: End, A: ?{B}.End}"], "1:11"),
        (["check", "SWITCH"], "1:72"),
    ],
    ids=[
        "check-variant", "subtype-variant", "check-offer", "dual-select", "translate-offer",
        "check-switch",
    ],
)
def test_repeated_label_is_a_parse_error(tmp_path, capsys, argv, where):
    files = {
        "FILE": "class M { session {Null go(Null): <A: {}, A: {}>} go(x) { null } }",
        "OK": "class M { session {Null go(Null): {}} go(x) { null } }",
        "ACCESS": "access <&{A: End, A: End}> srv;",
        "SWITCH": "class M { session {Null go(Null): {}} f; go(x) { switch (A) { A: null; "
        "A: f = new M(); } } }",
    }
    for name, text in files.items():
        (tmp_path / f"{name}.mst").write_text(text)
    argv = [str(tmp_path / f"{a}.mst") if a in files else a for a in argv]
    code, out, err = run(argv, capsys)
    assert (code, out) == (65, "")
    assert err == f"parse error: {where}: repeated label 'A'\n"


@pytest.mark.parametrize(
    "text, error",
    [
        ("class M { session {Null go(Null): {}, Null go(Null): {}} go(x) { null } }",
         "1:1: repeated signature go(Null) in a branch"),
        ("class M { session {Null go({A, B}): {}, Null go({B, A}): {}} go(x) { null } }",
         "1:1: repeated signature go({A, B}) in a branch"),
        ("class M { session {Null go(Null): {}} f, g; f; go(x) { null } }",
         "1:45: repeated field 'f'"),
        ("class M { session {Null go(Null): {}} f; req Null f, {X} f ens Null f Null h() "
         "{ null } go(x) { null } }",
         "1:58: repeated field 'f'"),
        ("class M { session {Null go(Null): {}} go(x) { null } }\nmain M.go;\nmain M.go;",
         "3:1: repeated main designation"),
    ],
    ids=["signature", "signature-canonical", "class-field", "annotation-field", "main"],
)
def test_repeated_declaration_is_a_parse_error(tmp_path, capsys, text, error):
    path = tmp_path / "dup.mst"
    path.write_text(text)
    assert run(["check", str(path)], capsys) == (65, "", f"parse error: {error}\n")


def test_parse_error_position_within_its_file(tmp_path, capsys):
    a = tmp_path / "a.mst"
    b = tmp_path / "b.mst"
    a.write_text("class A { session {} }\n")
    b.write_text("class B { session {} }\n  ?\n")
    assert run(["check", str(a), str(b)], capsys) == (
        65, "", f"parse error: {b}:2:3: expected a declaration, found '?'\n"
    )
    assert run(["check", str(b)], capsys) == (65, "", "parse error: 2:3: expected a declaration, found '?'\n")


@pytest.mark.parametrize(
    "text, error",
    [
        ("\nclass U {\n  session Nope\n}\n", "2:1: unknown session type name 'Nope'"),
        ("class M { session <A: {}> }", "1:1: class M: declared session must unfold to a branch"),
        ("access <End> a;\n  access <End> a;", "2:3: duplicate access point 'a'"),
        ("type T = {};\ntype T = {};", "2:1: duplicate type alias 'T'"),
        ("chantype T = End;\nchantype T = End;", "2:1: duplicate channel type alias 'T'"),
        ("type T = {};\n\ntype N = Nope;", "3:1: unknown session type name 'Nope'"),
        ("class M { session {Null go(Null): {}}\n  go(x) { y } }", "2:3: class M: unbound name 'y'"),
    ],
    ids=["session-name", "not-a-branch", "access-point", "type-alias", "channel-alias",
         "in-alias", "body-name"],
)
def test_name_resolution_error_names_its_declaration(tmp_path, capsys, text, error):
    a = tmp_path / "a.mst"
    u = tmp_path / "u.mst"
    a.write_text("class A { session {Null go(Null): {}} go(x) { null } }\n")
    u.write_text(text)
    assert run(["check", str(u)], capsys) == (65, "", f"parse error: {error}\n")
    assert run(["check", str(a), str(u)], capsys) == (65, "", f"parse error: {u}:{error}\n")




HELPER_CALLER = """class C {{
  session {{Null use(Null): {{}}}}
  use(x) {{ null }}
}}
class D {{
  session {{Null go(Null): {{}}}}
  f;
  req {req} f ens {ens} f {result} helper({param} y) {{ null }}
  go(x) {{ f = new C(); {call} }}
}}
main D.go;
"""


def test_non_contractive_annotation_is_a_parse_error_not_a_hang(tmp_path):
    # checking the call unfolds the parameter type, which never ends for rec X.X
    path = tmp_path / "hang.mst"
    path.write_text(HELPER_CALLER.format(
        req="Null", ens="Null", result="Null", param="rec X.X", call="helper(f)"))
    proc = _python_m_mstlang(["check", str(path)], timeout=10)
    assert (proc.returncode, proc.stdout) == (65, "")
    assert proc.stderr == "parse error: 8:3: D.helper annotation: type is not contractive\n"


@pytest.mark.parametrize("slot", ["req", "ens", "result", "param"])
def test_non_contractive_annotation_type_without_a_call(tmp_path, capsys, slot):
    types = dict(req="Null", ens="Null", result="Null", param="Null")
    types[slot] = "rec X.rec Y.X"
    path = tmp_path / "nc.mst"
    path.write_text(HELPER_CALLER.format(**types, call="null"))
    assert run(["check", str(path)], capsys) == (
        65, "", "parse error: 8:3: D.helper annotation: type is not contractive\n"
    )


def test_check_messages_do_not_depend_on_string_hashing(tmp_path):
    path = tmp_path / "labels.mst"
    path.write_text(
        "class M {\n  session {Null go(Null): {}}\n  f;\n"
        "  req Null f ens Null f {A, B, C, D, E} pick(Null y) { A }\n"
        "  go(x) { switch (pick(null)) { A: null; B: null; C: null; } }\n}\n"
        "class N {\n  session {{A, B} m(Null): <A: {}, B: {}>}\n  f;\n"
        "  req Null f ens Null f {A, B, C, D, E} pick(Null y) { A }\n"
        "  m(x) { pick(null) }\n}\nmain M.go;\n"
    )
    outs = {_python_m_mstlang(["check", str(path)], PYTHONHASHSEED=seed).stdout
            for seed in ("1", "2", "3")}
    assert outs == {
        "CLASS M ERR SwitchLabelCoverage in go: subject labels {'A', 'B', 'C', 'D', 'E'} "
        "exceed switch cases {'A', 'B', 'C'}\n"
        "CLASS N ERR VariantShapeMismatch: field typing labels {'A', 'B', 'C', 'D', 'E'} "
        "exceed state labels\n"
        "2 problem(s)\n"
    }


def test_negative_step_count_is_a_usage_error(capsys):
    f = str(CORPUS / "file.mst")
    code, out, err = run(["run", f, "--steps", "-5"], capsys)
    assert (code, out) == (64, "")
    assert err.endswith("error: argument --steps: expected a step count of 0 or more, found '-5'\n")
    assert run(["run", f, "--steps", "0"], capsys) == (3, "StepLimit\n", "")


def test_overload_match_inside_a_recursive_proof(capsys):
    # at the parent commit both exited 70 with RecursionError
    f = str(CORPUS / "file.mst")
    s = "rec X.{Null m(X): X, Null m({A}): X, Null n(Null): X}"
    t = "rec Y.{Null m(Y): Y, Null m({A}): Y}"
    assert run(["subtype", f, s, t], capsys) == (0, "no\n", "")
    assert run(["equiv", f, s, t], capsys) == (0, "no\n", "")


def test_run_unchecked_verify_states_exit_4(tmp_path, capsys):
    from test_monitor import TAG_ARG_SELF_CALL

    path = tmp_path / "tag_arg.mst"
    path.write_text(TAG_ARG_SELF_CALL)
    code, out, _ = run(["run", "--unchecked", "--verify-states", str(path)], capsys)
    assert code == 4
    assert out.startswith("VIOLATION StateIllTyped step=0 thread=t0")


@pytest.mark.parametrize(
    "text, detail",
    [
        ("class M { session {Null go(Null): {}} k; go(x) { k = new Nope(); null } } main M.go;",
         "runtime fault: undeclared class 'Nope'\n"),
        ("class M { session {Null go(Null): {}} k; go(x) { k = new M(); k.zap(null) } } main M.go;",
         "runtime fault: class M has no method 'zap'\n"),
    ],
    ids=["undeclared-class", "undefined-method"],
)
def test_run_unchecked_runtime_fault_exit_70(tmp_path, capsys, text, detail):
    path = tmp_path / "fault.mst"
    path.write_text(text)
    code, out, err = run(["run", "--unchecked", str(path)], capsys)
    assert (code, out, err) == (70, "", detail)


def test_run_unchecked_main_missing_exit_1(capsys):
    code, out, err = run(["run", "--unchecked", str(CORPUS / "algexample.mst")], capsys)
    assert (code, out, err) == (1, "", "error: program has no main designation\n")


def test_internal_error_exit_70(tmp_path, capsys):
    # an argument nested deeper than the parser's recursion allows
    arg = "f.go(" * 1000 + "null" + ")" * 1000
    path = tmp_path / "deep.mst"
    path.write_text(f"class L {{ session {{Null go(Null): {{}}}} f; go(x) {{ {arg} }} }} main L.go;")
    code, out, err = run(["check", str(path)], capsys)
    assert (code, out) == (70, "")
    assert err.startswith("internal error: RecursionError: ") and err.count("\n") == 1


def test_long_body_checks(tmp_path, capsys):
    # no walker recurses per statement, so body length is not bounded by recursion
    body = " ".join(["f = null;"] * 1000)
    path = tmp_path / "long.mst"
    path.write_text(f"class L {{ session {{Null go(Null): {{}}}} f; go(x) {{ {body} null }} }} main L.go;")
    assert run(["check", str(path)], capsys) == (0, "CLASS L OK\nok\n", "")


def test_unreadable_input_exit_66(tmp_path, capsys):
    missing = tmp_path / "missing.mst"
    code, out, err = run(["check", str(missing)], capsys)
    assert (code, out, err) == (66, "", f"error: cannot read {missing}: No such file or directory\n")
    binary = tmp_path / "binary.mst"
    binary.write_bytes(b"class \xff\xfe M {}")
    code, out, err = run(["check", str(binary)], capsys)
    assert (code, out) == (66, "")
    assert err == f"error: cannot read {binary}: not UTF-8 text (invalid start byte at byte 6)\n"


# `mst run --trace --steps 2000` on every corpus file, as (exit code, first 16
# hex digits of the sha256 of stdout): the event log and the outcome line are
# an output format, so a change to the interpreter must leave them byte-identical.
TRACE_MODES = {"det": [], "seed7": ["--seed", "7", "--verify-states", "--verify-traces"]}
TRACE_DIGESTS = {
    ("algexample.mst", "det"): (1, "077330eb6debc017"),
    ("algexample.mst", "seed7"): (1, "077330eb6debc017"),
    ("deadlock1.mst", "det"): (2, "1453f0e7762adc37"),
    ("deadlock1.mst", "seed7"): (2, "0eee7cf5048fda03"),
    ("deadlock2.mst", "det"): (2, "3e1c7d73a62e3053"),
    ("deadlock2.mst", "seed7"): (2, "3e1c7d73a62e3053"),
    ("deadlock3.mst", "det"): (2, "385c76a217110b79"),
    ("deadlock3.mst", "seed7"): (2, "385c76a217110b79"),
    ("file.mst", "det"): (0, "58f3e83af9d5a89f"),
    ("file.mst", "seed7"): (0, "58f3e83af9d5a89f"),
    ("progs/p01_while.mst", "det"): (0, "68c421e757c8e864"),
    ("progs/p01_while.mst", "seed7"): (0, "68c421e757c8e864"),
    ("progs/p02_selfcall.mst", "det"): (0, "611a28b38d6aacf2"),
    ("progs/p02_selfcall.mst", "seed7"): (0, "611a28b38d6aacf2"),
    ("progs/p03_spawn.mst", "det"): (0, "a30a11c667265921"),
    ("progs/p03_spawn.mst", "seed7"): (0, "98d4eca6d9a2d8ac"),
    ("progs/p04_delegate.mst", "det"): (0, "433ad4334df6d041"),
    ("progs/p04_delegate.mst", "seed7"): (0, "09b1301b142f370e"),
    ("progs/p05_transfer.mst", "det"): (0, "edc9e43acf7aed5e"),
    ("progs/p05_transfer.mst", "seed7"): (0, "3efeb56e83e361e4"),
    ("progs/p06_park.mst", "det"): (0, "d22785532aeee917"),
    ("progs/p06_park.mst", "seed7"): (0, "d22785532aeee917"),
    ("progs/p07_overload.mst", "det"): (0, "e3001b4f9b0d7dea"),
    ("progs/p07_overload.mst", "seed7"): (0, "e3001b4f9b0d7dea"),
    ("progs/p08_enum_store.mst", "det"): (0, "67e7ea1b26a24a50"),
    ("progs/p08_enum_store.mst", "seed7"): (0, "67e7ea1b26a24a50"),
    ("progs/p09_two_pairs.mst", "det"): (0, "113f63b83a8d0813"),
    ("progs/p09_two_pairs.mst", "seed7"): (0, "2386713b82cbdcc0"),
    ("progs/p10_garbage.mst", "det"): (0, "d19e87a3120f0eac"),
    ("progs/p10_garbage.mst", "seed7"): (0, "d19e87a3120f0eac"),
    ("progs/p11_reuse_access.mst", "det"): (0, "080a56f26a502fe6"),
    ("progs/p11_reuse_access.mst", "seed7"): (0, "d20f122e7eaf68da"),
    ("progs/p12_park_recv.mst", "det"): (0, "f6ed7ea9afd4036d"),
    ("progs/p12_park_recv.mst", "seed7"): (0, "50bb9fa8b7930d75"),
    ("progs/p13_while_enum.mst", "det"): (0, "6b085b4576fb95e1"),
    ("progs/p13_while_enum.mst", "seed7"): (0, "6b085b4576fb95e1"),
    ("progs/p14_box_delegate.mst", "det"): (0, "c53bcfb37a9abe4c"),
    ("progs/p14_box_delegate.mst", "seed7"): (0, "a328ab9792a3cc34"),
    ("reduction_ex.mst", "det"): (0, "f86b6ca8193a6f7c"),
    ("reduction_ex.mst", "seed7"): (0, "f86b6ca8193a6f7c"),
    ("remote1.mst", "det"): (3, "a5c592954f6d146d"),
    ("remote1.mst", "seed7"): (3, "ddf863d9fa3a7b7b"),
    ("remote2.mst", "det"): (3, "1b7858ae09033c31"),
    ("remote2.mst", "seed7"): (3, "09211ab69f4971f9"),
}


def test_trace_digests_cover_the_corpus():
    files = {str(p.relative_to(CORPUS)) for p in CORPUS.rglob("*.mst")}
    assert len(files) == 22
    assert set(TRACE_DIGESTS) == {(f, m) for f in files for m in TRACE_MODES}


@pytest.mark.parametrize("name,mode", sorted(TRACE_DIGESTS))
def test_trace_log_digest(name, mode, capsys):
    code, out, _ = run(["run", str(CORPUS / name), "--trace", "--steps", "2000", *TRACE_MODES[mode]], capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()[:16]) == TRACE_DIGESTS[name, mode]

"""The value semantics of the package's plain classes: each record compares
and hashes by its class and fields, as a dataclass would, and only the
interpreter's three records are dataclasses, which are built at import."""

import dataclasses
import importlib
import pkgutil

import pytest

import mstlang
from mstlang import syntax
from mstlang.monitor import ActiveLink, Frame, TraceCall, TraceLabel
from mstlang.parser import _RawClass
from mstlang.syntax import (
    CHAN_END,
    EMPTY_BRANCH,
    NULL_E,
    NULL_T,
    AccessE,
    Branch,
    CallE,
    ChanRecv,
    ChanSend,
    ClassDecl,
    EndpointE,
    EnumType,
    Expr,
    ExprKeys,
    LabelE,
    MethodAnnotation,
    MethodDef,
    MethodSig,
    NewE,
    NullE,
    ObjectInternal,
    ObjectRecord,
    ObjIdE,
    Path,
    Program,
    RecordF,
    ReturnE,
    SelfCallE,
    SeqE,
    SpawnE,
    SwapE,
    SwitchE,
    VarE,
    WhileE,
)
from mstlang.typechecker import CheckContext, CheckReport, ClassVerdict, RuntimeEnv

# Per expression form, a function of one string that builds a node from it:
# equal strings give nodes with equal fields, and another string another
# field. Each build makes new children, so no two nodes share one.
EXPRS = {
    NullE: None,
    LabelE: lambda s: LabelE(s),
    VarE: lambda s: VarE(s),
    NewE: lambda s: NewE(s),
    SwapE: lambda s: SwapE("f", LabelE(s)),
    CallE: lambda s: CallE("f", s, NullE()),
    SelfCallE: lambda s: SelfCallE(s, NullE()),
    SeqE: lambda s: SeqE(NullE(), VarE(s)),
    SwitchE: lambda s: SwitchE(VarE("x"), (("A", LabelE(s)),)),
    WhileE: lambda s: WhileE(VarE(s), NullE()),
    SpawnE: lambda s: SpawnE("C", s, NullE()),
    ReturnE: lambda s: ReturnE(VarE(s)),
    ObjIdE: lambda s: ObjIdE(s),
    EndpointE: lambda s: EndpointE("c0", s),
    AccessE: lambda s: AccessE(s),
}


def _prog(main):
    return Program({}, main=main)


# The other records, likewise, each with whether it hashes: one with a table
# or list field cannot, and those not meant as keys do not.
RECORDS = {
    "ObjectRecord": (lambda s: ObjectRecord("C", (("f", LabelE(s)),)), True),
    "MethodAnnotation": (
        lambda s: MethodAnnotation(RecordF(()), RecordF(()), EnumType({s}), NULL_T), True
    ),
    "MethodDef": (lambda s: MethodDef("m", "x", VarE(s)), True),
    "ClassDecl": (lambda s: ClassDecl("C", EMPTY_BRANCH, ("f",), {}, {s: EMPTY_BRANCH}), False),
    "Program": (lambda s: _prog(("Main", s)), False),
    "ClassVerdict": (lambda s: ClassVerdict("C", False, "Code", s), False),
    "CheckReport": (lambda s: CheckReport([ClassVerdict(s, True)]), False),
    "CheckContext": (lambda s: CheckContext(_prog(("Main", s))), False),
    "RuntimeEnv": (lambda s: RuntimeEnv({("obj", s): NULL_T}), False),
    "TraceCall": (lambda s: TraceCall(s, NULL_T), True),
    "TraceLabel": (lambda s: TraceLabel(s), True),
    "Frame": (lambda s: Frame("f", s, EMPTY_BRANCH), False),
    "ActiveLink": (lambda s: ActiveLink(Path("o"), s, EMPTY_BRANCH), False),
    "_RawClass": (lambda s: _RawClass("C", (), {}, [s], [], ("f", "", 0)), False),
}

# Type forms compare by the trees they unfold to (`Type.canon`).
TYPES = {
    "EnumType": lambda s: EnumType({s}),
    "Branch": lambda s: Branch((MethodSig(s, NULL_T, NULL_T, Branch(())),)),
    "RecordF": lambda s: RecordF(((s, NULL_T),)),
    "ChanSend": lambda s: ChanSend(EnumType({s}), CHAN_END),
    "ObjectInternal": lambda s: ObjectInternal(s, RecordF(())),
}


def _assert_value(a, b, other, hashable):
    assert a is not b and a == b and not a != b
    assert a != other and not a == other
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2
    else:
        with pytest.raises(TypeError):
            hash(a)


def test_every_expression_form_is_listed():
    forms = {c for c in vars(syntax).values() if isinstance(c, type) and issubclass(c, Expr)}
    assert forms - {Expr} == set(EXPRS)


@pytest.mark.parametrize("cls", list(EXPRS), ids=lambda c: c.__name__)
def test_expression_equality_is_by_class_and_fields(cls):
    build = EXPRS[cls]
    if build is None:
        assert NullE() == NULL_E and hash(NullE()) == hash(NULL_E)
        assert NullE() != LabelE("A")
        return
    a, b = build("A"), build("A")
    _assert_value(a, b, build("B"), hashable=True)
    # the key a hash-consing table stores on a node is not one of its fields
    ExprKeys().key(a)
    assert a == b and hash(a) == hash(b)


def test_expressions_of_distinct_forms_with_equal_fields_differ():
    forms = [LabelE("x"), VarE("x"), NewE("x"), ObjIdE("x"), AccessE("x")]
    for i, a in enumerate(forms):
        for b in forms[i + 1:]:
            assert a != b
    assert len(set(forms)) == len(forms)
    assert SeqE(NULL_E, NULL_E) != WhileE(NULL_E, NULL_E)


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_equality_is_by_class_and_fields(name):
    build, hashable = RECORDS[name]
    _assert_value(build("A"), build("A"), build("B"), hashable)


def test_records_of_distinct_classes_with_equal_fields_differ():
    assert TraceCall("A") != TraceLabel("A")
    assert ClassVerdict("C", True) != CheckReport()
    assert Frame("f", "C", EMPTY_BRANCH) != ActiveLink("f", "C", EMPTY_BRANCH)


def test_record_defaults_are_fresh():
    # a default table or list is new per record, as a default_factory made it
    a, b = CheckReport(), CheckReport()
    a.classes.append(ClassVerdict("C", True))
    assert b.classes == [] and a != b
    p, q = Program({}), Program({})
    p.access_points["a"] = CHAN_END
    assert q.access_points == {} and p != q
    assert ClassDecl("C", EMPTY_BRANCH, (), {}).states == {}
    a, b = CheckContext(p), CheckContext(p)
    assert a.witnesses == {} and a.witnesses is not b.witnesses
    assert MethodDef("m", "x", NULL_E).annotation is None and TraceCall("m").param is None


def test_runtime_env_compares_values_and_pending_calls_only():
    frame = Frame("f", "C", EMPTY_BRANCH)
    a = RuntimeEnv({}, (frame,), consistent=lambda *a: None, memo=object())
    b = RuntimeEnv({}, (Frame("f", "C", EMPTY_BRANCH),))
    assert a == b
    assert a != RuntimeEnv({}, ())


def test_check_context_compares_program_and_table():
    prog = _prog(None)
    a, b = CheckContext(prog), CheckContext(prog)
    a.record_witness("C", EMPTY_BRANCH, RecordF(()))
    assert a != b
    b.record_witness("C", EMPTY_BRANCH, RecordF(()))
    assert a == b


@pytest.mark.parametrize("name", list(TYPES))
def test_type_equality_is_by_structure(name):
    build = TYPES[name]
    _assert_value(build("A"), build("A"), build("B"), hashable=True)


def test_types_of_distinct_forms_with_equal_fields_differ():
    assert ChanRecv(NULL_T, CHAN_END) != ChanSend(NULL_T, CHAN_END)


def test_branch_entries_compare_by_identity():
    # an entry is no value of its own; the branches holding two equal
    # entries are equal types
    a, b = (MethodSig("m", NULL_T, NULL_T, EMPTY_BRANCH) for _ in range(2))
    assert a != b and a == a and hash(a) != hash(b)
    assert Branch((a,)) == Branch((b,))


def test_only_the_interpreter_records_are_dataclasses():
    # a dataclass is built when its module is imported, which `import
    # mstlang` pays on every start; a new one shows here
    found = set()
    for info in pkgutil.iter_modules(mstlang.__path__):
        module = importlib.import_module(f"mstlang.{info.name}")
        found |= {
            f"{info.name}.{name}"
            for name, obj in vars(module).items()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and dataclasses.is_dataclass(obj)
        }
    assert found == {"interpreter.StepEvent", "interpreter.Outcome", "syntax.Configuration"}

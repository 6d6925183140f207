import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from mstlang import parser, typechecker
from mstlang.syntax import ObjectInternal

CORPUS = pathlib.Path(__file__).parent.parent / "corpus"

RUNNABLE = [
    "file.mst",
    "reduction_ex.mst",
    "remote1.mst",
    "remote2.mst",
    "progs/p01_while.mst",
    "progs/p02_selfcall.mst",
    "progs/p03_spawn.mst",
    "progs/p04_delegate.mst",
    "progs/p05_transfer.mst",
    "progs/p06_park.mst",
    "progs/p07_overload.mst",
    "progs/p08_enum_store.mst",
    "progs/p09_two_pairs.mst",
    "progs/p10_garbage.mst",
    "progs/p11_reuse_access.mst",
    "progs/p12_park_recv.mst",
    "progs/p13_while_enum.mst",
    "progs/p14_box_delegate.mst",
]

DEADLOCKS = ["deadlock1.mst", "deadlock2.mst", "deadlock3.mst"]

_cache = {}


def load(name):
    if name not in _cache:
        _cache[name] = parser.parse_file(CORPUS / name)
    return _cache[name]


_checked = {}


def load_checked(name):
    if name not in _checked:
        prog = load(name)
        report, ctx = typechecker.check_program(prog)
        _checked[name] = (prog, report, ctx)
    return _checked[name]


def root_type(env):
    """A monitored thread's root entry as the paper writes it: the root's
    C[F], each pending call's callee in place at the field it opened, as
    it is now."""
    t = env.opened[-1].type
    for d in range(len(env.frames) - 1, -1, -1):
        caller = env.opened[d].type
        t = ObjectInternal(caller.cls, caller.typing.set(env.frames[d].field, t))
    return t


@pytest.fixture
def corpus_dir():
    return CORPUS


@pytest.fixture
def file_prog():
    return load("file.mst")


@pytest.fixture
def remote1():
    return load("remote1.mst")


@pytest.fixture
def remote2():
    return load("remote2.mst")

import random

import pytest

from gen import gen_channel, widen_channel
from mstlang.channels import dual, subtype_channel, translate_access, translate_channel
from mstlang.parser import parse_channel_type as pc, parse_session_type as pt
from mstlang.render import render_type
from mstlang.subtyping import equivalent, subtype_session
from mstlang.syntax import (
    Branch,
    ChanEnd,
    ChanRecv,
    EnumType,
    LinkThis,
    NULL_T,
    unfold,
)


def test_dual_base_cases():
    assert dual(ChanEnd()) == ChanEnd()
    c = pc("!{A}.End")
    assert dual(c) == pc("?{A}.End")
    assert dual(pc("+{L: End}")) == pc("&{L: End}")


def test_dual_involution_corpus(remote1):
    ch = remote1.channel_aliases["FileReadCh"]
    assert dual(dual(ch)) == ch


def test_dual_involution_random():
    rng = random.Random(41)
    for _ in range(400):
        c = gen_channel(rng, 6)
        assert dual(dual(c)) == c


@pytest.mark.parametrize(
    "first, sigma, dual_text, translation_text",
    [
        ("rec Y.!{A}.Y", "rec X.!{A}.X", "rec X.?{A}.X", "rec X.{Null send({A}): X}"),
        ("+{B: End, A: End}", "+{A: End, B: End}", "&{A: End, B: End}",
         "{Null send({A}): {}, Null send({B}): {}}"),
        ("&{B: End, A: End}", "&{A: End, B: End}", "+{A: End, B: End}",
         "{linkthis receive(Null): <A: {}, B: {}>}"),
    ],
    ids=["alpha-variant", "reordered-select", "reordered-offer"],
)
def test_dual_and_translation_render_their_own_argument(first, sigma, dual_text, translation_text):
    # an equal type computed first must not lend its names or case order
    dual(pc(first))
    translate_channel(pc(first))
    sigma = pc(sigma)
    assert render_type(dual(sigma)) == dual_text
    assert render_type(translate_channel(sigma)) == translation_text


def test_translate_end_is_empty_branch():
    assert translate_channel(ChanEnd()) == Branch(())


def test_translate_select_singleton_equals_send():
    sigma = pc("+{L: End}")
    assert translate_channel(sigma) == translate_channel(pc("!{L}.End"))


def test_translate_recv_and_offer_shapes():
    t = translate_channel(pc("?{A}.End"))
    entry = unfold(t).entries[0]
    assert entry.name == "receive" and entry.param == NULL_T
    assert entry.result == EnumType(frozenset({"A"}))
    t2 = translate_channel(pc("&{A: End, B: End}"))
    entry2 = unfold(t2).entries[0]
    assert isinstance(entry2.result, LinkThis)


def test_translate_corpus_matches_written_out_types(remote1, remote2):
    ch = remote1.channel_aliases["FileReadCh"]
    assert equivalent(translate_channel(ch), remote1.session_aliases["FileRead_s"])
    assert equivalent(translate_channel(dual(ch)), remote1.session_aliases["FileRead_cl"])
    ch2 = remote2.channel_aliases["FileChannel"]
    assert equivalent(translate_channel(ch2), remote2.session_aliases["ServerCh"])
    assert equivalent(translate_channel(dual(ch2)), remote2.session_aliases["ClientCh"])


def test_translate_access_shape():
    t = translate_access(pc("End"))
    u = unfold(t)
    names = {e.name for e in u.entries}
    assert names == {"request", "accept"}
    for e in u.entries:
        assert unfold(e.cont) == u  # both loop back
        assert e.cont is t  # to the state node itself
    # with end protocols both methods yield the empty branch
    expected = pt("rec X.{{} request(Null): X, {} accept(Null): X}")
    assert equivalent(t, expected)


def test_translate_access_one_node_per_protocol():
    sigma = pc("rec X.?{A}.!{B}.X")
    assert translate_access(sigma) is translate_access(sigma)


def test_access_request_and_accept_sides(remote1):
    sigma = remote1.channel_aliases["FileReadCh"]
    t = unfold(translate_access(sigma))
    by_name = {e.name: e for e in t.entries}
    assert equivalent(by_name["accept"].result, translate_channel(sigma))
    assert equivalent(by_name["request"].result, translate_channel(dual(sigma)))


def test_channel_oracle_basics():
    assert subtype_channel(pc("End"), pc("End"))
    assert subtype_channel(pc("?{A}.End"), pc("?{A, B}.End"))
    assert not subtype_channel(pc("?{A, B}.End"), pc("?{A}.End"))
    assert subtype_channel(pc("!{A, B}.End"), pc("!{A}.End"))
    assert subtype_channel(pc("&{A: End}"), pc("&{A: End, B: End}"))
    assert subtype_channel(pc("+{A: End, B: End}"), pc("+{A: End}"))
    assert not subtype_channel(pc("?{A}.End"), pc("!{A}.End"))


def test_translation_monotone_on_widenings():
    rng = random.Random(43)
    for _ in range(150):
        sigma = gen_channel(rng, 4)
        wider = widen_channel(rng, sigma)
        assert subtype_channel(sigma, wider)
        assert subtype_session(translate_channel(sigma), translate_channel(wider))


def test_translation_extra_facts():
    rng = random.Random(47)
    end_t = translate_channel(ChanEnd())
    for _ in range(100):
        sigma = gen_channel(rng, 4)
        assert subtype_session(translate_channel(sigma), end_t)
    # receive of an enumeration is below the offer over the same labels
    for _ in range(60):
        cont = gen_channel(rng, 3)
        labels = sorted(rng.sample(["A", "B", "C"], rng.randint(1, 3)))
        recv = ChanRecv(EnumType(frozenset(labels)), cont)
        offer = pc("&{" + ", ".join(f"{l}: End" for l in labels) + "}")
        from mstlang.syntax import ChanOffer

        offer = ChanOffer(tuple((l, cont) for l in labels))
        assert subtype_session(translate_channel(recv), translate_channel(offer))

"""Duality of channel session types and their translation into class session
types, so that channel endpoints and access points can be used as objects
with send/receive/request/accept methods."""

from __future__ import annotations

from . import syntax as sx
from .syntax import (
    ChanEnd,
    ChanOffer,
    ChanRecv,
    ChanSelect,
    ChanSend,
    ChannelType,
    EnumType,
    SessionType,
)
from .subtyping import coinductive, subtype_value


def _map_graph(root, key, build, state, payloads):
    """The image of a channel type graph, from one worklist, children first:
    `build(t, image)` makes a constructor's from the images of its
    continuations and cases, and of its channel payloads if `payloads`; a
    state's is `state(name)`, made before its body's so a cycle closes on
    it. Each node keeps its image in its memo under `key`."""
    todo = [root]
    while todo:
        t = todo[-1]
        memo = t.memo()
        out = memo.get(key)
        if isinstance(t, sx.State):
            if out is None:
                memo[key] = state(t.name)
                todo.append(t.body)
                continue
            body = t.body.memo().get(key)
            if out.body is None and body is not None:
                out.define(body)
            todo.pop()  # else met again inside its own body: defined further down
            continue
        if out is None:
            if isinstance(t, (ChanRecv, ChanSend)):
                kids = [t.cont]
                if payloads and isinstance(t.payload, ChannelType):
                    kids.append(t.payload)
            else:
                kids = [c for _, c in getattr(t, "cases", ())]
            missing = [c for c in kids if key not in c.memo()]
            if missing:
                todo.extend(missing)
                continue
            memo[key] = build(t, lambda c: c.memo()[key])
        todo.pop()
    return root.memo()[key]


def dual(sigma: ChannelType) -> ChannelType:
    """The other endpoint's view: send/receive and offer/select exchanged,
    payloads unchanged. An involution. Memoised on sigma's nodes, each
    state's image keeping its name."""
    return _map_graph(sigma, "dual", _dual, sx.ChannelState, False)


_DUAL = {ChanSend: ChanRecv, ChanRecv: ChanSend, ChanSelect: ChanOffer, ChanOffer: ChanSelect}


def _dual(sigma, image):
    if isinstance(sigma, (ChanRecv, ChanSend)):
        return _DUAL[type(sigma)](sigma.payload, image(sigma.cont))
    if isinstance(sigma, (ChanOffer, ChanSelect)):
        return _DUAL[type(sigma)](tuple((l, image(c)) for l, c in sigma.cases))
    return sigma  # end


def translate_channel(sigma: ChannelType) -> SessionType:
    """Class session type of an endpoint of type sigma.

    end is the empty branch; ?T.S becomes a receive returning T; !T.S a send
    taking T; an offer is a receive whose result selects a variant; a select
    is a family of send overloads, one singleton parameter type per label.
    A channel state becomes a session state of the same name and case
    order is kept; each node, channel payloads too, keeps its translation.
    """
    return _map_graph(sigma, "translate", _translate, sx.SessionState, True)


def _translate(sigma, image):
    if isinstance(sigma, ChanEnd):
        return sx.EMPTY_BRANCH
    if isinstance(sigma, (ChanRecv, ChanSend)):
        p = sigma.payload
        p = image(p) if isinstance(p, ChannelType) else p
        if isinstance(sigma, ChanRecv):
            entry = sx.MethodSig("receive", sx.NULL_T, p, image(sigma.cont))
        else:
            entry = sx.MethodSig("send", p, sx.NULL_T, image(sigma.cont))
        return sx.Branch((entry,))
    if isinstance(sigma, ChanOffer):
        variant = sx.VariantS(tuple((l, image(c)) for l, c in sigma.cases))
        return sx.Branch((sx.MethodSig("receive", sx.NULL_T, sx.LINK_THIS, variant),))
    return sx.Branch(
        tuple(
            sx.MethodSig("send", EnumType(frozenset({l})), sx.NULL_T, image(c))
            for l, c in sigma.cases
        )
    )


def translate_access(sigma: ChannelType) -> SessionType:
    """Class session type of an access point: request and accept are always
    available; request yields the dual endpoint, accept the declared one.
    The result, a state `_AP` whose methods lead back to it, is memoised on
    sigma, so each protocol has one such node."""
    memo = sigma.memo()
    out = memo.get("access")
    if out is None:
        out = memo["access"] = sx.SessionState("_AP")
        out.define(sx.Branch((
            sx.MethodSig("request", sx.NULL_T, translate_channel(dual(sigma)), out),
            sx.MethodSig("accept", sx.NULL_T, translate_channel(sigma), out),
        )))
    return out


# ---------------------------------------------------------------------------
# Direct channel subtyping
# ---------------------------------------------------------------------------


def subtype_channel(a: ChannelType, b: ChannelType) -> bool:
    """Direct sub-channel relation. The monitor uses it to match a delegated
    endpoint against a send's payload type and to check that the two ends of
    a channel stay dual; the tests use it as an oracle for the monotonicity
    of the translation above. Receive payloads are covariant, send payloads
    contravariant; offers are covariant and selects contravariant in their
    label sets."""
    return _subtype_channel(a, b, None)


def _subtype_channel(a, b, assumptions):
    return coinductive(_subtype_unfolded, a, b, assumptions)


def _subtype_unfolded(au, bu, assumptions):
    if isinstance(au, ChanEnd) and isinstance(bu, ChanEnd):
        return True
    if isinstance(au, ChanRecv) and isinstance(bu, ChanRecv):
        return _payload_sub(au.payload, bu.payload, assumptions) and _subtype_channel(
            au.cont, bu.cont, assumptions
        )
    if isinstance(au, ChanSend) and isinstance(bu, ChanSend):
        return _payload_sub(bu.payload, au.payload, assumptions) and _subtype_channel(
            au.cont, bu.cont, assumptions
        )
    if isinstance(au, ChanOffer) and isinstance(bu, ChanOffer):
        if not au.labels <= bu.labels:
            return False
        return all(_subtype_channel(c, bu.case(l), assumptions) for l, c in au.cases)
    if isinstance(au, ChanSelect) and isinstance(bu, ChanSelect):
        if not bu.labels <= au.labels:
            return False
        return all(_subtype_channel(au.case(l), c, assumptions) for l, c in bu.cases)
    return False


def _payload_sub(p, q, assumptions):
    if isinstance(p, ChannelType) and isinstance(q, ChannelType):
        return _subtype_channel(p, q, assumptions)
    if isinstance(p, ChannelType) or isinstance(q, ChannelType):
        return False
    return subtype_value(p, q)

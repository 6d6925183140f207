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
    RecC,
    RecS,
    SessionType,
    VarC,
    VarS,
)
from .subtyping import coinductive, subtype_value


def dual(sigma: ChannelType) -> ChannelType:
    """The other endpoint's view: send/receive and offer/select exchanged,
    payloads unchanged. An involution."""
    memo = sigma.memo()
    out = memo.get("dual")
    if out is None:
        out = memo["dual"] = _dual(sigma)
    return out


def _dual(sigma: ChannelType) -> ChannelType:
    if isinstance(sigma, ChanEnd):
        return sigma
    if isinstance(sigma, VarC):
        return sigma
    if isinstance(sigma, RecC):
        return RecC(sigma.var, dual(sigma.body))
    if isinstance(sigma, ChanSend):
        return ChanRecv(sigma.payload, dual(sigma.cont))
    if isinstance(sigma, ChanRecv):
        return ChanSend(sigma.payload, dual(sigma.cont))
    if isinstance(sigma, ChanSelect):
        return ChanOffer(tuple((l, dual(c)) for l, c in sigma.cases))
    if isinstance(sigma, ChanOffer):
        return ChanSelect(tuple((l, dual(c)) for l, c in sigma.cases))
    raise TypeError(f"not a channel type: {sigma!r}")


def translate_payload(t):
    """Payload types of sends/receives, with channel payloads translated so
    the resulting signature is a pure class type (delegation)."""
    if isinstance(t, ChannelType):
        return translate_channel(t)
    return t


def translate_channel(sigma: ChannelType) -> SessionType:
    """Class session type of an endpoint of type sigma.

    end is the empty branch; ?T.S becomes a receive returning T; !T.S a send
    taking T; an offer is a receive whose result selects a variant; a select
    is a family of send overloads, one singleton parameter type per label.
    The result is memoised on sigma and keeps sigma's bound variable names
    and case order.
    """
    memo = sigma.memo()
    out = memo.get("translate")
    if out is None:
        out = memo["translate"] = _translate_channel(sigma)
    return out


def _translate_channel(sigma: ChannelType) -> SessionType:
    if isinstance(sigma, ChanEnd):
        return sx.EMPTY_BRANCH
    if isinstance(sigma, VarC):
        return VarS(sigma.name)
    if isinstance(sigma, RecC):
        return RecS(sigma.var, translate_channel(sigma.body))
    if isinstance(sigma, ChanRecv):
        return sx.Branch(
            (sx.MethodSig("receive", sx.NULL_T, translate_payload(sigma.payload),
                          translate_channel(sigma.cont)),)
        )
    if isinstance(sigma, ChanSend):
        return sx.Branch(
            (sx.MethodSig("send", translate_payload(sigma.payload), sx.NULL_T,
                          translate_channel(sigma.cont)),)
        )
    if isinstance(sigma, ChanOffer):
        variant = sx.VariantS(tuple((l, translate_channel(c)) for l, c in sigma.cases))
        return sx.Branch((sx.MethodSig("receive", sx.NULL_T, sx.LINK_THIS, variant),))
    if isinstance(sigma, ChanSelect):
        return sx.Branch(
            tuple(
                sx.MethodSig("send", EnumType(frozenset({l})), sx.NULL_T, translate_channel(c))
                for l, c in sigma.cases
            )
        )
    raise TypeError(f"not a channel type: {sigma!r}")


def translate_access(sigma: ChannelType) -> SessionType:
    """Class session type of an access point: request and accept are always
    available; request yields the dual endpoint, accept the declared one.
    The result is memoised on sigma, so each protocol has one such node."""
    memo = sigma.memo()
    out = memo.get("access")
    if out is None:
        out = memo["access"] = _translate_access(sigma)
    return out


def _translate_access(sigma: ChannelType) -> SessionType:
    var = "_AP"
    return RecS(
        var,
        sx.Branch(
            (
                sx.MethodSig("request", sx.NULL_T, translate_channel(dual(sigma)), VarS(var)),
                sx.MethodSig("accept", sx.NULL_T, translate_channel(sigma), VarS(var)),
            )
        ),
    )


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
    return _subtype_channel(a, b, frozenset())


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

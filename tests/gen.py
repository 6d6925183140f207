"""Random type generators and widening operators shared by the tests.

Generated session types respect the structural restrictions: variant cases
are branches, linkthis results are paired with variant continuations, and
every recursive type is contractive, each of its states defined.
"""

from mstlang.syntax import (
    Branch,
    ChanEnd,
    ChanOffer,
    ChanRecv,
    ChanSelect,
    ChanSend,
    ChannelType,
    EnumType,
    LINK_THIS,
    MethodSig,
    NULL_T,
    ChannelState,
    SessionState,
    SessionType,
    VariantS,
    unfold,
)

LABELS = ["A", "B", "C", "D"]
METHODS = ["m", "n", "p", "q"]


def gen_enum(rng, width=3):
    k = rng.randint(1, width)
    return EnumType(frozenset(rng.sample(LABELS, k)))


def gen_value(rng, depth):
    r = rng.random()
    if r < 0.45:
        return NULL_T
    if r < 0.85 or depth <= 0:
        return gen_enum(rng)
    return gen_session(rng, depth - 1)


def gen_session(rng, depth, bound=()):
    """A branch, or a state whose body is a branch; `bound` holds the states
    whose bodies are being generated, which the branch may lead back to."""
    if depth > 0 and rng.random() < 0.3:
        state = SessionState(f"X{len(bound)}")
        state.define(gen_branch(rng, depth - 1, bound + (state,)))
        return state
    return gen_branch(rng, depth, bound)


def _gen_state(rng, depth, bound):
    if bound and rng.random() < 0.4:
        return rng.choice(bound)
    return gen_session(rng, depth, bound)


def gen_branch(rng, depth, bound=()):
    n = rng.randint(0, 3) if depth > 0 else rng.randint(0, 1)
    entries = []
    names = rng.sample(METHODS, min(n, len(METHODS)))
    for name in names:
        param = gen_value(rng, depth - 1)
        if depth > 0 and rng.random() < 0.3:
            cont = gen_variant(rng, depth - 1, bound)
            entries.append(MethodSig(name, param, LINK_THIS, cont))
        else:
            result = NULL_T if rng.random() < 0.5 else gen_enum(rng)
            cont = _gen_state(rng, depth - 1, bound) if depth > 0 else Branch(())
            entries.append(MethodSig(name, param, result, cont))
    return Branch(tuple(entries))


def gen_variant(rng, depth, bound=()):
    k = rng.randint(1, 3)
    labels = rng.sample(LABELS, k)
    return VariantS(tuple((l, _gen_state(rng, depth, bound)) for l in labels))


# -- widening: S <: widen(S) --------------------------------------------------


def widen_session(rng, s: SessionType, fuel=6) -> SessionType:
    if fuel <= 0:
        return s
    u = unfold(s)
    if isinstance(u, Branch):
        entries = list(u.entries)
        if entries and rng.random() < 0.4:
            entries.pop(rng.randrange(len(entries)))
            return Branch(tuple(entries))
        if entries:
            i = rng.randrange(len(entries))
            entries[i] = _widen_entry(rng, entries[i], fuel - 1)
            return Branch(tuple(entries))
        return u
    if isinstance(u, VariantS):
        cases = list(u.cases)
        fresh = [l for l in LABELS if l not in u.labels]
        if fresh and rng.random() < 0.5:
            cases.append((rng.choice(fresh), cases[rng.randrange(len(cases))][1]))
            return VariantS(tuple(cases))
        i = rng.randrange(len(cases))
        l, c = cases[i]
        cases[i] = (l, widen_session(rng, c, fuel - 1))
        return VariantS(tuple(cases))
    return u


def _widen_entry(rng, e: MethodSig, fuel=4) -> MethodSig:
    param = e.param
    if isinstance(param, EnumType) and len(param.labels) > 1 and rng.random() < 0.3:
        drop = rng.choice(sorted(param.labels))
        param = EnumType(param.labels - {drop})
    if isinstance(e.result, EnumType):
        if rng.random() < 0.25:
            # an enum result can be used at linkthis with the uniform variant
            uniform = VariantS(tuple((l, e.cont) for l in sorted(e.result.labels)))
            return MethodSig(e.name, param, LINK_THIS, uniform)
        result = e.result
        fresh = [l for l in LABELS if l not in result.labels]
        if fresh and rng.random() < 0.4:
            result = EnumType(result.labels | {rng.choice(fresh)})
        return MethodSig(e.name, param, result, widen_session(rng, e.cont, fuel))
    return MethodSig(e.name, param, e.result, widen_session(rng, e.cont, fuel))


# -- channel types -------------------------------------------------------------


def gen_channel(rng, depth, pending=(), ok=()):
    """pending: states whose bodies are being generated and not yet guarded
    by a communication; ok: such states that may be led back to."""
    if ok and rng.random() < 0.25:
        return rng.choice(ok)
    if depth <= 0:
        return ChanEnd()
    r = rng.random()
    if r < 0.12:
        state = ChannelState(f"Y{len(pending) + len(ok)}")
        state.define(gen_channel(rng, depth - 1, pending + (state,), ok))
        return state
    if r < 0.2:
        return ChanEnd()
    inner_ok = ok + pending
    if r < 0.45:
        return ChanRecv(_gen_payload(rng, depth), gen_channel(rng, depth - 1, (), inner_ok))
    if r < 0.7:
        return ChanSend(_gen_payload(rng, depth), gen_channel(rng, depth - 1, (), inner_ok))
    k = rng.randint(1, 3)
    labels = rng.sample(LABELS, k)
    cases = tuple((l, gen_channel(rng, depth - 1, (), inner_ok)) for l in labels)
    return ChanOffer(cases) if r < 0.85 else ChanSelect(cases)


def _gen_payload(rng, depth):
    r = rng.random()
    if r < 0.4:
        return NULL_T
    if r < 0.8:
        return gen_enum(rng)
    if r < 0.9 and depth > 1:
        return gen_session(rng, 1)
    return gen_channel(rng, 1)


def widen_channel(rng, c: ChannelType, fuel=6) -> ChannelType:
    if fuel <= 0:
        return c
    u = unfold(c)
    if isinstance(u, ChanEnd):
        return u
    if isinstance(u, ChanRecv):
        payload = u.payload
        if isinstance(payload, EnumType) and rng.random() < 0.5:
            fresh = [l for l in LABELS if l not in payload.labels]
            if fresh:
                payload = EnumType(payload.labels | {rng.choice(fresh)})
        return ChanRecv(payload, widen_channel(rng, u.cont, fuel - 1))
    if isinstance(u, ChanSend):
        payload = u.payload
        if isinstance(payload, EnumType) and len(payload.labels) > 1 and rng.random() < 0.5:
            drop = rng.choice(sorted(payload.labels))
            payload = EnumType(payload.labels - {drop})
        return ChanSend(payload, widen_channel(rng, u.cont, fuel - 1))
    if isinstance(u, ChanOffer):
        cases = list(u.cases)
        fresh = [l for l in LABELS if l not in u.labels]
        if fresh and rng.random() < 0.5:
            cases.append((rng.choice(fresh), cases[rng.randrange(len(cases))][1]))
            return ChanOffer(tuple(cases))
        i = rng.randrange(len(cases))
        l, k = cases[i]
        cases[i] = (l, widen_channel(rng, k, fuel - 1))
        return ChanOffer(tuple(cases))
    if isinstance(u, ChanSelect):
        cases = list(u.cases)
        if len(cases) > 1 and rng.random() < 0.5:
            cases.pop(rng.randrange(len(cases)))
            return ChanSelect(tuple(cases))
        i = rng.randrange(len(cases))
        l, k = cases[i]
        cases[i] = (l, widen_channel(rng, k, fuel - 1))
        return ChanSelect(tuple(cases))
    return u


def rejoining_class(n):
    """Class D, whose protocol branches and re-joins n times: state S_i
    offers `a` and `b`, both leading to S_(i+1), and S_n offers nothing. Its
    n + 1 states lie on 2^n paths."""
    rows = [f"S{i} = {{Null a(Null): S{i + 1}, Null b(Null): S{i + 1}}}" for i in range(n)]
    where = ",\n        ".join(rows + [f"S{n} = {{}}"])
    return f"class D {{\n  session S0\n  where {where}\n  a(x) {{ null }}\n  b(x) {{ null }}\n}}\n"


def self_recursion(n=1):
    """Class R, whose method `step` sets field k n times, the last time to A,
    then calls itself and returns null: each call leaves one more frame
    `_; null` around the next, so a run deepens its context by one frame
    per call. n = 1 is ROADMAP item 2's program."""
    body = " ".join([f"k = {'A' if (n - i) % 2 else 'B'};" for i in range(n)] + ["step(null); null"])
    return (
        "class R { session {Null go(Null): {}}  k;\n"
        "  go(x) { k = A; step(null) }\n"
        "  req {A} k ens Null k\n"
        f"  Null step(Null y) {{ {body} }} }}\n"
        "main R.go;\n"
    )


# Each call of N's go stores a new N in n and calls its go: a run opens one
# more object inside its caller every five steps and never returns.
CALL_DESCENT = (
    "class N { session {Null go(Null): {}} n; go(x) { n = new N(); n.go(null) } }\n"
    "main N.go;\n"
)


def call_chain(k):
    """Classes N0 to Nk: the go of each Ni below Nk stores a new N(i+1) and
    calls its go, and Nk's returns null, so a run nests k pending calls,
    then returns from each."""
    rows = [
        f"class N{i} {{ session {{Null go(Null): {{}}}} n; go(x) {{ n = new N{i + 1}(); n.go(null) }} }}"
        for i in range(k)
    ]
    rows.append(f"class N{k} {{ session {{Null go(Null): {{}}}} go(x) {{ null }} }}")
    return "\n".join(rows + ["main N0.go;\n"])

"""Parser for the surface language (.mst files).

One file holds class declarations, access point declarations, standalone
type aliases and an optional main designation. Session types are written in
the signature-carrying style; ``where`` clauses introduce named states that
are folded into rec types. One fold serves session and channel names: a name
becomes the binder at its first expansion when the expansion refers back to
it, and back references become variables. Every binder, written or folded,
is checked to be contractive as it is made, so each resolved type (annotation
types included) is closed and contractive, and unfolding it terminates.

Sugar applied while parsing:
  f = e        =>  (f <-> e); null
  f            =>  f <-> null            (bare field read in expression position)
  f.m()        =>  f.m(null)             (missing argument)
  m(e), m()    =>  self-call
  enum result on a signature whose continuation is a variant  =>  linkthis
"""

from __future__ import annotations

import errno
import re
from contextlib import contextmanager
from dataclasses import dataclass
from types import MappingProxyType

from . import syntax as sx


class ParseError(Exception):
    """A parse error, at `line`:`col` of source `file` when those are known."""

    def __init__(self, msg, line=None, col=None):
        super().__init__(msg)
        self.msg = msg
        self.line = line
        self.col = col
        self.file = None

    def __str__(self):
        where = ":".join(str(x) for x in (self.file, self.line, self.col) if x is not None)
        return f"{where}: {self.msg}" if where else self.msg


class UnboundStateName(ParseError):
    pass


class NonContractiveType(ParseError):
    pass


class DuplicateClass(ParseError):
    pass


KEYWORDS = {
    "class", "session", "where", "rec", "req", "ens", "new", "spawn",
    "switch", "case", "while", "null", "linkthis", "Null", "End",
    "access", "type", "chantype",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<op><->|[{}<>(),;:.=?!&+])
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # 'op', 'ident', 'kw', 'eof'
    text: str
    line: int
    col: int


def tokenize(text: str):
    toks = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        value = m.group(0)
        if m.lastgroup == "op":
            toks.append(Token("op", value, line, col))
        elif m.lastgroup == "ident":
            kind = "kw" if value in KEYWORDS else "ident"
            toks.append(Token(kind, value, line, col))
        nl = value.count("\n")
        if nl:
            line += nl
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    toks.append(Token("eof", "", line, col))
    return toks


def _is_upper(name):
    return name[0].isupper()


# Raw (unresolved) type trees: plain tuples, resolved in a second pass once
# all aliases in the file are known.


class _P:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self, ahead=0):
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, text, ahead=0):
        t = self.peek(ahead)
        return t.text == text and t.kind in ("op", "kw")

    def expect(self, text):
        t = self.next()
        if t.text != text or t.kind not in ("op", "kw"):
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def ident(self, what="identifier"):
        t = self.next()
        if t.kind != "ident":
            raise ParseError(f"expected {what}, found {t.text!r}", t.line, t.col)
        return t.text

    def uident(self, what="name"):
        t = self.peek()
        name = self.ident(what)
        if not _is_upper(name):
            raise ParseError(f"{what} must start uppercase, found {name!r}", t.line, t.col)
        return name

    def lident(self, what="name"):
        t = self.peek()
        name = self.ident(what)
        if _is_upper(name):
            raise ParseError(f"{what} must start lowercase, found {name!r}", t.line, t.col)
        return name

    # -- types (raw) ---------------------------------------------------------

    def raw_session(self):
        t = self.peek()
        if self.at("{"):
            return self.raw_braced(session_only=True)
        if self.at("<"):
            return self.raw_variant_or_access()
        if self.at("rec"):
            self.next()
            var = self.uident("type variable")
            self.expect(".")
            return ("rec", var, self.raw_session())
        if t.kind == "ident" and _is_upper(t.text):
            self.next()
            return ("name", t.text)
        raise ParseError(f"expected a session type, found {t.text!r}", t.line, t.col)

    def raw_braced(self, session_only=False):
        """Parse a '{...}' which is an enum, or a branch session type."""
        self.expect("{")
        if self.at("}"):
            self.next()
            return ("branch", ())
        # enum: uppercase idents separated by commas, then '}'
        t = self.peek()
        if (
            not session_only
            and t.kind == "ident"
            and _is_upper(t.text)
            and self.peek(1).text in (",", "}")
        ):
            labels = [self.uident("label")]
            while self.at(","):
                self.next()
                labels.append(self.uident("label"))
            self.expect("}")
            return ("enum", tuple(labels))
        sigs = [self.raw_signature()]
        while self.at(","):
            self.next()
            sigs.append(self.raw_signature())
        self.expect("}")
        return ("branch", tuple(sigs))

    def raw_signature(self):
        result = self.raw_vtype()
        name = self.lident("method name")
        self.expect("(")
        if self.at(")"):
            param = ("null",)
        else:
            param = self.raw_vtype()
            # the parameter may carry a name in annotated headers; ignore it
            if self.peek().kind == "ident" and not _is_upper(self.peek().text):
                self.next()
        self.expect(")")
        self.expect(":")
        cont = self.raw_session()
        return (result, name, param, cont)

    def raw_vtype(self):
        t = self.peek()
        if self.at("Null"):
            self.next()
            return ("null",)
        if self.at("linkthis"):
            self.next()
            return ("linkthis",)
        if self.at("{"):
            return self.raw_braced()
        if self.at("<"):
            return self.raw_variant_or_access()
        if self.at("rec"):
            return self.raw_session()
        if t.kind == "ident" and _is_upper(t.text):
            self.next()
            return ("name", t.text)
        raise ParseError(f"expected a type, found {t.text!r}", t.line, t.col)

    def raw_variant_or_access(self):
        self.expect("<")
        t = self.peek()
        if t.kind == "ident" and _is_upper(t.text) and self.at(":", 1):
            cases = self.raw_cases("variant label", self.raw_session)
            self.expect(">")
            return ("variant", cases)
        proto = self.raw_channel()
        self.expect(">")
        return ("access", proto)

    def fresh(self, name, taken, noun):
        """`name`, the token just read, unless it is one of `taken`."""
        if name in taken:
            t = self.toks[self.i - 1]
            raise ParseError(f"repeated {noun} {name!r}", t.line, t.col)
        return name

    def raw_cases(self, what, item):
        """`L1: x1, ..., Ln: xn` with distinct labels, each x read by `item`."""
        cases = []
        while True:
            label = self.fresh(self.uident(what), [l for l, _ in cases], "label")
            self.expect(":")
            cases.append((label, item()))
            if not self.at(","):
                return tuple(cases)
            self.next()

    def raw_channel(self):
        t = self.peek()
        if self.at("End"):
            self.next()
            return ("end",)
        if self.at("?") or self.at("!"):
            op = self.next().text
            payload = self.raw_payload()
            self.expect(".")
            cont = self.raw_channel()
            return ("recv" if op == "?" else "send", payload, cont)
        if self.at("&") or self.at("+"):
            op = self.next().text
            self.expect("{")
            cases = self.raw_cases("label", self.raw_channel)
            self.expect("}")
            return ("offer" if op == "&" else "select", cases)
        if self.at("rec"):
            self.next()
            var = self.uident("type variable")
            self.expect(".")
            return ("recc", var, self.raw_channel())
        if self.at("("):
            self.next()
            inner = self.raw_channel()
            self.expect(")")
            return inner
        if t.kind == "ident" and _is_upper(t.text):
            self.next()
            return ("cname", t.text)
        raise ParseError(f"expected a channel type, found {t.text!r}", t.line, t.col)

    def raw_payload(self):
        t = self.peek()
        if t.text in ("?", "!", "&", "+", "End", "("):
            return self.raw_channel()
        if t.kind == "ident" and _is_upper(t.text):
            self.next()
            return ("pname", t.text)  # channel alias or session name, decided later
        return self.raw_vtype()

    # -- expressions ---------------------------------------------------------

    def stmts(self, stop=("}",)):
        parts = [self.stmt()]
        while True:
            if self.at(";"):
                self.next()
            elif not isinstance(parts[-1], (sx.SwitchE, sx.WhileE)):
                break
            t = self.peek()
            if t.kind == "eof" or t.text in stop:
                break
            if t.kind == "ident" and _is_upper(t.text) and self.at(":", 1):
                break  # next switch case
            if self.at("case"):
                break
            parts.append(self.stmt())
        return sx.seq(parts)

    def stmt(self):
        if self.at("while"):
            self.next()
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            if self.at("{"):
                self.next()
                body = self.stmts()
                self.expect("}")
            else:
                body = self.stmt()
            return sx.WhileE(cond, body)
        t = self.peek()
        if t.kind == "ident" and not _is_upper(t.text) and self.at("=", 1):
            f = self.lident("field name")
            self.next()  # '='
            return sx.SeqE(sx.SwapE(f, self.expr()), sx.NULL_E)
        return self.expr()

    def expr(self):
        t = self.peek()
        if self.at("null"):
            self.next()
            return sx.NULL_E
        if self.at("new"):
            self.next()
            cls = self.uident("class name")
            self.expect("(")
            self.expect(")")
            return sx.NewE(cls)
        if self.at("spawn"):
            self.next()
            cls = self.uident("class name")
            self.expect(".")
            m = self.lident("method name")
            self.expect("(")
            arg = sx.NULL_E if self.at(")") else self.expr()
            self.expect(")")
            return sx.SpawnE(cls, m, arg)
        if self.at("switch"):
            self.next()
            self.expect("(")
            subject = self.expr()
            self.expect(")")
            self.expect("{")
            cases = []
            while not self.at("}"):
                if self.at("case"):
                    self.next()
                label = self.fresh(self.uident("case label"), [l for l, _ in cases], "label")
                self.expect(":")
                cases.append((label, self.stmts()))
            self.expect("}")
            if not cases:
                raise ParseError("switch needs at least one case", t.line, t.col)
            return sx.SwitchE(subject, tuple(cases))
        if t.kind == "ident" and _is_upper(t.text):
            self.next()
            return sx.LabelE(t.text)
        if t.kind == "ident":
            name = self.lident()
            if self.at("<->"):
                self.next()
                return sx.SwapE(name, self.expr())
            if self.at("."):
                self.next()
                m = self.lident("method name")
                self.expect("(")
                arg = sx.NULL_E if self.at(")") else self.expr()
                self.expect(")")
                return sx.CallE(name, m, arg)
            if self.at("("):
                self.next()
                arg = sx.NULL_E if self.at(")") else self.expr()
                self.expect(")")
                return sx.SelfCallE(name, arg)
            return sx.VarE(name)  # param, bare field read, or access name
        raise ParseError(f"expected an expression, found {t.text!r}", t.line, t.col)


# ---------------------------------------------------------------------------
# Name resolution / mu-folding
# ---------------------------------------------------------------------------

_NO_NAMES = MappingProxyType({})  # no name is being expanded


class _Resolver:
    """Turns raw type trees into closed, contractive types.

    One fold serves session and channel names: a name is expanded from its
    definition unless it is bound by a written `rec` or already being
    expanded, when it becomes a variable. Meeting a name again while it is
    being expanded marks it used, and only a used expansion is wrapped in a
    binder of that name. Every binder, written or folded, is checked to be
    contractive as it is made; a failure is reported by `checked` once the
    whole type has resolved, so an unknown name anywhere in it comes first.
    """

    def __init__(self, session_defs, channel_defs):
        self.folds = {
            "name": (session_defs, self.session, sx.RecS, sx.VarS, "session"),
            "cname": (channel_defs, self.channel, sx.RecC, sx.VarC, "channel"),
        }
        self.channel_defs = channel_defs
        self.contractive = True

    def checked(self, t, what):
        """`t`, just resolved, unless a binder made for it is not contractive."""
        contractive, self.contractive = self.contractive, True
        if not contractive:
            raise NonContractiveType(f"{what}: type is not contractive")
        return t

    def _fold(self, raw, stack, bound):
        """The type named by `raw`. `stack` maps each name being expanded to
        its used mark; `bound` holds the variables of written binders."""
        defs, resolve, rec, var, noun = self.folds[raw[0]]
        name = raw[1]
        if name in bound:
            return var(name)
        if name in stack:
            stack[name][0] = True
            return var(name)
        if name not in defs:
            raise UnboundStateName(f"unknown {noun} type name {name!r}")
        used = [False]
        body = resolve(defs[name], {**stack, name: used}, bound)
        return self._binder(rec, name, body) if used[0] else body

    def _binder(self, rec, var, body):
        """`rec var.body`, noting a non-contractive binder: one whose body,
        under its leading binders, is a variable of that chain."""
        chain = {var}
        head = body
        while isinstance(head, sx.Rec):
            chain.add(head.var)
            head = head.body
        if isinstance(head, sx.TypeVar) and head.name in chain:
            self.contractive = False
        return rec(var, body)

    def session(self, raw, stack=_NO_NAMES, bound=frozenset()):
        tag = raw[0]
        if tag == "branch":
            entries = []
            for result, name, param, cont in raw[1]:
                entries.append(
                    (result, name, param, self.session(cont, stack, bound))
                )
            sigs = []
            for result, name, param, cont in entries:
                r = self.vtype(result, stack, bound)
                p = self.vtype(param, stack, bound)
                # a repeated (name, parameter) pair would make every call ambiguous
                if any(q.name == name and q.param.canon() == p.canon() for q in sigs):
                    raise ParseError(f"repeated signature {name}({p!r}) in a branch")
                # surface enum result + variant continuation means linkthis
                if isinstance(r, sx.EnumType) and self._variant_like(cont):
                    r = sx.LINK_THIS
                sigs.append(sx.MethodSig(name, p, r, cont))
            return sx.Branch(tuple(sigs))
        if tag == "variant":
            return sx.VariantS(tuple((l, self.session(s, stack, bound)) for l, s in raw[1]))
        if tag == "rec":
            return self._binder(sx.RecS, raw[1], self.session(raw[2], stack, bound | {raw[1]}))
        if tag == "name":
            return self._fold(raw, stack, bound)
        raise ParseError(f"not a session type: {tag}")

    def _variant_like(self, s):
        while isinstance(s, sx.RecS):
            s = s.body
        return isinstance(s, sx.VariantS)

    def vtype(self, raw, stack=_NO_NAMES, bound=frozenset()):
        tag = raw[0]
        if tag == "null":
            return sx.NULL_T
        if tag == "enum":
            return sx.EnumType(frozenset(raw[1]))
        if tag == "linkthis":
            return sx.LINK_THIS
        if tag == "access":
            from .channels import translate_access

            return translate_access(self.channel(raw[1]))
        return self.session(raw, stack, bound)

    def channel(self, raw, stack=_NO_NAMES, bound=frozenset()):
        tag = raw[0]
        if tag == "end":
            return sx.CHAN_END
        if tag in ("recv", "send"):
            payload = self.payload(raw[1], stack, bound)
            cont = self.channel(raw[2], stack, bound)
            return sx.ChanRecv(payload, cont) if tag == "recv" else sx.ChanSend(payload, cont)
        if tag in ("offer", "select"):
            cases = tuple((l, self.channel(s, stack, bound)) for l, s in raw[1])
            return sx.ChanOffer(cases) if tag == "offer" else sx.ChanSelect(cases)
        if tag == "recc":
            return self._binder(sx.RecC, raw[1], self.channel(raw[2], stack, bound | {raw[1]}))
        if tag == "cname":
            return self._fold(raw, stack, bound)
        raise ParseError(f"not a channel type: {tag}")

    def payload(self, raw, stack, bound):
        if raw[0] == "pname":
            name = raw[1]
            if name in self.channel_defs or name in bound or name in stack:
                return self.channel(("cname", name), stack, bound)
            return self.session(("name", name))
        if raw[0] in ("end", "recv", "send", "offer", "select", "recc"):
            return self.channel(raw, stack, bound)
        return self.vtype(raw)


def _check_variant_components(s, what, seen):
    key = s.canon()
    if key in seen:
        return
    seen.add(key)
    u = sx.unfold(s)
    if isinstance(u, sx.VariantS):
        for l, case in u.cases:
            cu = sx.unfold(case)
            if not isinstance(cu, sx.Branch):
                raise ParseError(f"{what}: variant case {l!r} is not a branch type")
    if isinstance(u, sx.Branch):
        for e in u.entries:
            _check_variant_components(e.cont, what, seen)
            if isinstance(e.param, sx.SessionType):
                _check_variant_components(e.param, what, seen)
            if isinstance(e.result, sx.SessionType):
                _check_variant_components(e.result, what, seen)
    elif isinstance(u, sx.VariantS):
        for _, case in u.cases:
            _check_variant_components(case, what, seen)


# ---------------------------------------------------------------------------
# Program parsing
# ---------------------------------------------------------------------------


@dataclass
class _RawClass:
    name: str
    session: tuple
    states: dict
    fields: list
    methods: list  # (annot raw or None, name, param name, body, token)
    where: tuple = (None, None)  # (file, first token) of the declaration


@contextmanager
def _located(where):
    """Fill in what a ParseError raised while resolving a declaration lacks:
    the position of the declaration's first token, and its file."""
    try:
        yield
    except ParseError as err:
        filename, tok = where
        if err.line is None:
            err.line, err.col = tok.line, tok.col
        if err.file is None:
            err.file = filename
        raise


def parse_program(text: str, filename: str | None = None) -> sx.Program:
    """Parse one source text; a parse error's position names `filename`,
    when one is given."""
    return _parse_sources([(text, filename)])


def _parse_sources(sources) -> sx.Program:
    """Parse (text, filename) sources as one program: each text is read on
    its own, so a parse error's position is within its file, and the
    declarations of all of them are resolved together."""
    raw_classes = []
    raw_accesses = []  # (name, raw channel, where)
    raw_type_aliases = {}
    raw_chan_aliases = {}
    alias_where = {}  # ("type" or "chantype", name) -> where
    main = None

    for text, filename in sources:
        try:
            p = _P(tokenize(text))
            while p.peek().kind != "eof":
                t = p.peek()
                where = (filename, t)
                if p.at("class"):
                    rc = _parse_class(p)
                    rc.where = where
                    raw_classes.append(rc)
                elif p.at("access"):
                    p.next()
                    p.expect("<")
                    proto = p.raw_channel()
                    p.expect(">")
                    name = p.lident("access point name")
                    p.expect(";")
                    raw_accesses.append((name, proto, where))
                elif p.at("type"):
                    p.next()
                    name = p.uident("type alias name")
                    p.expect("=")
                    if name in raw_type_aliases:
                        raise ParseError(f"duplicate type alias {name!r}", t.line, t.col)
                    raw_type_aliases[name] = p.raw_session()
                    alias_where[("type", name)] = where
                    if p.at(";"):
                        p.next()
                elif p.at("chantype"):
                    p.next()
                    name = p.uident("channel type alias name")
                    p.expect("=")
                    if name in raw_chan_aliases:
                        raise ParseError(f"duplicate channel type alias {name!r}", t.line, t.col)
                    raw_chan_aliases[name] = p.raw_channel()
                    alias_where[("chantype", name)] = where
                    if p.at(";"):
                        p.next()
                elif t.kind == "ident" and t.text == "main":
                    p.next()
                    if main is not None:
                        raise ParseError("repeated main designation", t.line, t.col)
                    cls = p.uident("class name")
                    p.expect(".")
                    m = p.lident("method name")
                    p.expect(";")
                    main = (cls, m)
                else:
                    raise ParseError(f"expected a declaration, found {t.text!r}", t.line, t.col)
        except ParseError as err:
            err.file = filename
            raise

    # Class states share the namespace with file-level aliases; class-local
    # names shadow the aliases.
    classes = {}
    for rc in raw_classes:
        with _located(rc.where):
            classes[rc.name] = _resolve_class(rc, classes, raw_type_aliases, raw_chan_aliases)

    top_resolver = _Resolver(dict(raw_type_aliases), raw_chan_aliases)
    session_aliases = {}
    for name in raw_type_aliases:
        with _located(alias_where[("type", name)]):
            what = f"type {name}"
            s = top_resolver.checked(top_resolver.session(("name", name)), what)
            _check_variant_components(s, what, set())
        session_aliases[name] = s
    channel_aliases = {}
    for name in raw_chan_aliases:
        with _located(alias_where[("chantype", name)]):
            c = top_resolver.checked(top_resolver.channel(("cname", name)), f"chantype {name}")
        channel_aliases[name] = c
    access_points = {}
    for name, proto, where in raw_accesses:
        with _located(where):
            if name in access_points:
                raise ParseError(f"duplicate access point {name!r}")
            c = top_resolver.checked(top_resolver.channel(proto), f"access point {name}")
        access_points[name] = c

    program = sx.Program(
        classes=classes,
        access_points=access_points,
        session_aliases=session_aliases,
        channel_aliases=channel_aliases,
        main=main,
    )
    _resolve_bodies(program, raw_classes)
    return program


def _resolve_class(rc, classes, raw_type_aliases, raw_chan_aliases) -> sx.ClassDecl:
    if rc.name in classes:
        raise DuplicateClass(f"class {rc.name!r} declared more than once")
    session_defs = dict(raw_type_aliases)
    session_defs.update(rc.states)
    resolver = _Resolver(session_defs, raw_chan_aliases)
    session = resolver.checked(resolver.session(rc.session), f"class {rc.name}")
    _check_variant_components(session, f"class {rc.name}", set())
    if not isinstance(sx.unfold(session), sx.Branch):
        raise ParseError(f"class {rc.name}: declared session must unfold to a branch")
    states = {}
    for sname in rc.states:
        what = f"{rc.name}.{sname}"
        st = resolver.checked(resolver.session(("name", sname)), what)
        _check_variant_components(st, what, set())
        states[sname] = st
    methods = {}
    for annot_raw, mname, pname, body, tok in rc.methods:
        if mname in methods:
            raise ParseError(f"duplicate method {mname!r} in class {rc.name}", tok.line, tok.col)
        annot = None
        if annot_raw is not None:
            req_raw, ens_raw, result_raw, ptype_raw = annot_raw
            what = f"{rc.name}.{mname} annotation"
            with _located((rc.where[0], tok)):
                req = _resolve_record(resolver, req_raw, rc.fields, rc.name, what)
                ens = _resolve_record(resolver, ens_raw, rc.fields, rc.name, what)
                if isinstance(ens, sx.VariantF):
                    raise ParseError(f"{rc.name}.{mname}: ens annotation cannot be a variant")
                annot = sx.MethodAnnotation(
                    req=req,
                    ens=ens,
                    result=resolver.checked(resolver.vtype(result_raw), what),
                    param_type=resolver.checked(resolver.vtype(ptype_raw), what),
                )
        methods[mname] = sx.MethodDef(mname, pname, body, annot)
    return sx.ClassDecl(
        name=rc.name,
        session=session,
        fields=tuple(rc.fields),
        methods=methods,
        states=states,
    )


def _parse_class(p: _P) -> _RawClass:
    p.expect("class")
    name = p.uident("class name")
    p.expect("{")
    p.expect("session")
    session = p.raw_session()
    states = {}
    if p.at("where"):
        p.next()
        while True:
            t = p.peek()
            if t.kind == "ident" and _is_upper(t.text) and p.at("=", 1):
                sname = p.uident()
                p.expect("=")
                if sname in states:
                    raise ParseError(f"duplicate state {sname!r}", t.line, t.col)
                states[sname] = p.raw_session()
                if p.at(","):
                    p.next()
                continue
            break
    fields = []
    methods = []
    while not p.at("}"):
        t = p.peek()
        if p.at("req"):
            methods.append(_parse_annotated_method(p))
        elif t.kind == "ident" and not _is_upper(t.text) and p.peek(1).text in (";", ","):
            while True:
                fields.append(p.fresh(p.lident("field name"), fields, "field"))
                if not p.at(","):
                    break
                p.next()
            p.expect(";")
        elif t.kind == "ident" and not _is_upper(t.text) and p.at("(", 1):
            mname = p.lident("method name")
            p.expect("(")
            pname = "_x" if p.at(")") else p.lident("parameter name")
            p.expect(")")
            p.expect("{")
            body = p.stmts()
            p.expect("}")
            methods.append((None, mname, pname, body, t))
        else:
            raise ParseError(
                f"expected a field, method or '}}', found {t.text!r}", t.line, t.col
            )
    p.expect("}")
    return _RawClass(name, session, states, fields, methods)


def _parse_annotated_method(p: _P):
    tok = p.peek()
    p.expect("req")
    req = _parse_field_binds(p)
    p.expect("ens")
    ens = _parse_field_binds(p)
    result = p.raw_vtype()
    mname = p.lident("method name")
    p.expect("(")
    if p.at(")"):
        ptype, pname = ("null",), "_x"
    else:
        ptype = p.raw_vtype()
        pname = p.lident("parameter name")
    p.expect(")")
    p.expect("{")
    body = p.stmts()
    p.expect("}")
    return ((req, ens, result, ptype), mname, pname, body, tok)


def _parse_field_binds(p: _P):
    binds = []
    while True:
        t = p.raw_vtype()
        f = p.fresh(p.lident("field name"), [f for f, _ in binds], "field")
        binds.append((f, t))
        if p.at(","):
            p.next()
            continue
        break
    return tuple(binds)


def _resolve_record(resolver, binds, fields, cls_name, what):
    typed = {f: resolver.checked(resolver.vtype(t), what) for f, t in binds}
    missing = [f for f in fields if f not in typed]
    extra = [f for f in typed if f not in fields]
    if missing or extra:
        raise ParseError(
            f"class {cls_name}: annotation fields {sorted(typed)} do not match "
            f"declared fields {list(fields)}"
        )
    return sx.RecordF(tuple((f, typed[f]) for f in fields))


def _resolve_bodies(program: sx.Program, raw_classes):
    """Rewrite bare identifiers to parameter refs, field reads or access names."""
    for rc in raw_classes:
        cls = program.classes[rc.name]
        for _, mname, _, _, tok in rc.methods:
            m = cls.methods[mname]
            with _located((rc.where[0], tok)):
                body = _resolve_expr(m.body, m.param, cls, program)
            cls.methods[mname] = sx.MethodDef(m.name, m.param, body, m.annotation)


def _resolve_expr(e, param, cls, program):
    def resolve(x):
        if isinstance(x, sx.SwapE):
            if x.field == param:
                raise ParseError(f"class {cls.name}: cannot assign to parameter {x.field!r}")
            return None
        if x.name == param:
            return x
        if x.name in cls.fields:
            return sx.SwapE(x.name, sx.NULL_E)
        if x.name in program.access_points:
            return sx.AccessE(x.name)
        raise ParseError(f"class {cls.name}: unbound name {x.name!r}")

    return sx.map_expr(e, resolve, (sx.VarE, sx.SwapE))


# ---------------------------------------------------------------------------
# Standalone type expressions (CLI, tests)
# ---------------------------------------------------------------------------


def parse_session_type(text: str, program: sx.Program = None) -> sx.SessionType:
    """Parse a session type expression; `Class.State` resolves declared states."""
    program = program or sx.Program(classes={})
    p = _P(tokenize(text))
    t = p.peek()
    if (
        t.kind == "ident"
        and _is_upper(t.text)
        and p.at(".", 1)
        and p.peek(2).kind == "ident"
        and t.text in program.classes
    ):
        cls = p.uident()
        p.expect(".")
        state = p.uident("state name")
        _expect_eof(p)
        decl = program.classes[cls]
        if state not in decl.states:
            raise UnboundStateName(f"class {cls} has no state {state!r}")
        return decl.states[state]
    resolver = _session_resolver(program)
    s = resolver.session(p.raw_session())
    _expect_eof(p)
    s = resolver.checked(s, "type expression")
    _check_variant_components(s, "type expression", set())
    return s


def parse_channel_type(text: str, program: sx.Program = None) -> sx.ChannelType:
    program = program or sx.Program(classes={})
    p = _P(tokenize(text))
    resolver = _session_resolver(program)
    c = resolver.channel(p.raw_channel())
    _expect_eof(p)
    return resolver.checked(c, "channel type expression")


def _session_resolver(program):
    return _Resolver(dict(program.session_aliases), dict(program.channel_aliases))


def _expect_eof(p):
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)


def parse_file(path) -> sx.Program:
    return parse_files([path])


def parse_files(paths) -> sx.Program:
    """Parse several .mst files as one program.

    Declarations (including access points) are shared across all files given
    to a single invocation, so the sources are resolved together. A parse
    error's position is within its file, and names the file when there are
    several. A file that cannot be read as UTF-8 text raises OSError naming it.
    """
    sources = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as e:
            reason = f"not UTF-8 text ({e.reason} at byte {e.start})"
            raise OSError(errno.EILSEQ, reason, str(path)) from None
        sources.append((text, str(path) if len(paths) > 1 else None))
    return _parse_sources(sources)

"""Parser for the surface language (.mst files).

Tokens are plain strings, from one `re.findall` pass over the text, and ""
is end of input. A token's kind is read from its text: a word is an
identifier unless it is a keyword, and every other token is an operator.
A token's line and column are computed only when a ParseError needs them,
from its index, by reading the text again.

One file holds class declarations, access point declarations, standalone
type aliases and an optional main designation. Session types are written in
the signature-carrying style; ``where`` clauses introduce named states. A
class's states, with the file's aliases, are one system of equations
(`_Equations`): each name, and each written ``rec``, is one state node whose
definition is resolved once. What each declaration adds is checked once:
every state contractive, no cycle through an access-point type, no repeated
signature, every variant case a branch. So every resolved type (annotation
types included) has each state defined and unfolds in finitely many steps.

Sugar applied while parsing:
  f = e        =>  (f <-> e); null
  f            =>  f <-> null            (bare field read in expression position)
  f.m()        =>  f.m(null)             (missing argument)
  m(e), m()    =>  self-call
  enum result on a signature whose continuation starts with a variant  =>  linkthis
"""

from __future__ import annotations

import errno
import re
from contextlib import contextmanager
from itertools import islice
from types import MappingProxyType

from . import channels
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

_OPS = {"<->", *"{}<>(),;:.=?!&+"}
_NOT_IDENT = KEYWORDS | _OPS | {""}  # "" is end of input
_SPACE = r"(?:\s+|//[^\n]*)*"  # whitespace and comments
# One match per token, with the space after it; `.` is a character that no
# token starts with.
_TOKEN_RE = re.compile(r"(<->|[{}<>(),;:.=?!&+]|[A-Za-z_][A-Za-z0-9_]*|.)" + _SPACE, re.S)
_LEADING_SPACE = re.compile(_SPACE)
_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"
_STARTS = {t[0] for t in _OPS} | set(_LETTERS) | {""}  # what a token starts with


def tokenize(text: str):
    """The tokens of `text` as strings, then "" for end of input."""
    toks = _TOKEN_RE.findall(text, _LEADING_SPACE.match(text).end())
    toks.append("")
    bad = {t for t in set(toks) if t[:1] not in _STARTS}
    if bad:
        first = next(i for i, t in enumerate(toks) if t in bad)
        raise ParseError(f"unexpected character {toks[first]!r}", *_line_col(text, first))
    return toks


def _line_col(text, index):
    """The line and column in `text` of its token `index`, end of input
    included, found by reading `text` again up to that token."""
    start = _LEADING_SPACE.match(text).end()
    m = next(islice(_TOKEN_RE.finditer(text, start), index, None), None)
    at = m.start() if m else len(text)
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


def _is_upper(t):
    """Whether the token `t` is an identifier that starts uppercase."""
    return t not in _NOT_IDENT and t[0].isupper()


def _is_lower(t):
    return t not in _NOT_IDENT and not t[0].isupper()


def _is_type_name(t):
    # `_` and an uppercase letter: the names access-point types and joins bind
    return _is_upper(t) or (t[:1] == "_" and t[1:2].isupper())


# Raw (unresolved) type trees: plain tuples, resolved in a second pass once
# all aliases in the file are known.


class _P:
    """The parser's place in the tokens of `text`, read from `file`. Two
    more "" pad the end of input, so looking two tokens ahead needs no
    bound."""

    def __init__(self, text, file=None):
        self.text, self.file = text, file
        self.toks = tokenize(text)
        self.toks += ("", "")
        self.i = 0

    def peek(self, ahead=0):
        return self.toks[self.i + ahead]

    def next(self):
        self.i += 1
        return self.toks[self.i - 1]

    def at(self, text, ahead=0):
        return self.toks[self.i + ahead] == text

    def where(self):
        """The place of the next token: its file, text and index."""
        return self.file, self.text, self.i

    def error(self, msg, at=None):
        """A ParseError at token `at`, by default the next one."""
        return ParseError(msg, *_line_col(self.text, self.i if at is None else at))

    def expect(self, text):
        if self.toks[self.i] != text:
            raise self.error(f"expected {text!r}, found {self.toks[self.i]!r}")
        self.i += 1

    def ident(self, what="identifier"):
        t = self.toks[self.i]
        if t in _NOT_IDENT:
            raise self.error(f"expected {what}, found {t!r}")
        self.i += 1
        return t

    def uident(self, what="name", ok=_is_upper):
        name = self.ident(what)
        if not ok(name):
            raise self.error(f"{what} must start uppercase, found {name!r}", self.i - 1)
        return name

    def lident(self, what="name"):
        name = self.ident(what)
        if _is_upper(name):
            raise self.error(f"{what} must start lowercase, found {name!r}", self.i - 1)
        return name

    # -- types (raw) ---------------------------------------------------------

    def raw_session(self, what="a session type"):
        t = self.peek()
        if t == "{":
            return self.raw_braced(session_only=True)
        if t == "<":
            return self.raw_variant_or_access()
        if t == "rec":
            return self.raw_rec("rec", self.raw_session)
        if _is_type_name(t):
            self.next()
            return ("name", t)
        raise self.error(f"expected {what}, found {t!r}")

    def raw_rec(self, tag, body):
        self.expect("rec")
        var = self.uident("type variable", _is_type_name)
        self.expect(".")
        return (tag, var, body())

    def raw_braced(self, session_only=False):
        """Parse a '{...}' which is an enum, or a branch session type."""
        self.expect("{")
        if self.at("}"):
            self.next()
            return ("branch", ())
        # enum: uppercase idents separated by commas, then '}'
        t = self.peek()
        if not session_only and _is_upper(t) and self.peek(1) in (",", "}"):
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
            if _is_lower(self.peek()):
                self.next()
        self.expect(")")
        self.expect(":")
        cont = self.raw_session()
        return (result, name, param, cont)

    def raw_vtype(self):
        if self.at("Null"):
            self.next()
            return ("null",)
        if self.at("linkthis"):
            self.next()
            return ("linkthis",)
        if self.at("{"):
            return self.raw_braced()
        return self.raw_session("a type")

    def raw_variant_or_access(self):
        self.expect("<")
        t = self.peek()
        if _is_upper(t) and self.at(":", 1):
            cases = self.raw_cases("variant label", self.raw_session)
            self.expect(">")
            return ("variant", cases)
        proto = self.raw_channel()
        self.expect(">")
        return ("access", proto)

    def fresh(self, name, taken, noun):
        """`name`, the token just read, unless it is one of `taken`."""
        if name in taken:
            raise self.error(f"repeated {noun} {name!r}", self.i - 1)
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
        if t == "End":
            self.next()
            return ("end",)
        if t == "?" or t == "!":
            op = self.next()
            payload = self.raw_payload()
            self.expect(".")
            cont = self.raw_channel()
            return ("recv" if op == "?" else "send", payload, cont)
        if t == "&" or t == "+":
            op = self.next()
            self.expect("{")
            cases = self.raw_cases("label", self.raw_channel)
            self.expect("}")
            return ("offer" if op == "&" else "select", cases)
        if t == "rec":
            return self.raw_rec("recc", self.raw_channel)
        if t == "(":
            self.next()
            inner = self.raw_channel()
            self.expect(")")
            return inner
        if _is_type_name(t):
            self.next()
            return ("cname", t)
        raise self.error(f"expected a channel type, found {t!r}")

    def raw_payload(self):
        t = self.peek()
        if t in ("?", "!", "&", "+", "End", "("):
            return self.raw_channel()
        if _is_type_name(t):
            self.next()
            return ("pname", t)  # channel alias or session name, decided later
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
            if not t or t in stop or t == "case":
                break
            if _is_upper(t) and self.at(":", 1):
                break  # next switch case
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
        if _is_lower(t) and self.at("=", 1):
            f = self.lident("field name")
            self.next()  # '='
            return sx.SeqE(sx.SwapE(f, self.expr()), sx.NULL_E)
        return self.expr()

    def expr(self):
        start, t = self.i, self.peek()
        if t == "null":
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
                raise self.error("switch needs at least one case", start)
            return sx.SwitchE(subject, tuple(cases))
        if _is_upper(t):
            self.next()
            return sx.LabelE(t)
        if _is_lower(t):
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
        raise self.error(f"expected an expression, found {t!r}")


# ---------------------------------------------------------------------------
# Name resolution: equation systems
# ---------------------------------------------------------------------------

_NO_NAMES = MappingProxyType({})  # no written binder in scope
_MAKE = {"variant": sx.VariantS, "offer": sx.ChanOffer, "select": sx.ChanSelect,
         "recv": sx.ChanRecv, "send": sx.ChanSend}
_CHANNEL = ("end", "recv", "send", "offer", "select", "recc", "cname")  # raw channel tags


class _Equations:
    """The named types of one scope: the file's aliases, or a class's
    states with the aliases already resolved. Each name, and each written
    `rec`, is one state node whose definition is resolved once, from a
    worklist, so no chain of names recurses; a `rec` variable means its node
    in the binder's body only."""

    def __init__(self, session_defs, channel_defs):
        self.defs = {"name": session_defs, "cname": channel_defs}
        self.nodes = {}  # (tag, name), or id of a written rec -> its state
        self.pending = {}  # id of a state -> (raw, binders) of its definition
        self.todo = []  # states whose definitions are pending, in the order met
        self.access = {}  # id of an access type's state -> its protocol
        self.named = set()  # ids of the states of names
        self.new = []  # states and branches made since the last check
        self.cased = set()  # ids of nodes whose variant cases were checked

    def read(self, raw, what, session=True):
        """`raw` resolved and checked; `session` unless a value or channel type."""
        t = self.resolve_all(raw, not session)
        self.check(t, what, session)
        return t

    def resolve_all(self, raw, value=False):
        """`raw` resolved with every definition it reaches, depth first."""
        t, stack = self.resolve(raw, _NO_NAMES, value), []
        while self.todo or stack:
            stack.extend(reversed(self.todo))
            self.todo.clear()
            node = stack.pop()
            node.define(self.resolve(*self.pending[id(node)]))
            del self.pending[id(node)]
        return t

    def _state(self, key, tag, name, raw, binders):
        node = (sx.SessionState if tag in ("name", "rec") else sx.ChannelState)(name)
        self.nodes[key] = node
        if tag in ("rec", "recc"):
            binders = {**binders, name: node}
        self.pending[id(node)] = (raw, binders)
        self.todo.append(node)
        self.new.append(node)
        return node

    def resolve(self, raw, binders=_NO_NAMES, value=False):
        """The type `raw` stands for under the written binders `binders`
        (variable -> state); an access-point type only as a `value` type. A
        state is returned before its definition is resolved."""
        tag = raw[0]
        if tag == "branch":
            conts = [self.resolve(cont, binders) for _, _, _, cont in raw[1]]
            sigs = []
            for (result, name, param, _), c in zip(raw[1], conts):
                r = self.resolve(result, binders, True)
                p = self.resolve(param, binders, True)
                # surface enum result + variant continuation means linkthis
                if result[0] == "enum" and self.starts(c) is sx.VariantS:
                    r = sx.LINK_THIS
                sigs.append(sx.MethodSig(name, p, r, c))
            self.new.append(sx.Branch(tuple(sigs)))
            return self.new[-1]
        if tag in ("variant", "offer", "select"):
            return _MAKE[tag](tuple((l, self.resolve(s, binders)) for l, s in raw[1]))
        if tag in ("rec", "recc"):
            node = self.nodes.get(id(raw))
            return node or self._state(id(raw), tag, raw[1], raw[2], binders)
        if tag in ("name", "cname"):
            name, defs = raw[1], self.defs[tag]
            if name in binders:
                return binders[name]
            if name not in defs:
                noun = "session" if tag == "name" else "channel"
                raise UnboundStateName(f"unknown {noun} type name {name!r}")
            if isinstance(defs[name], sx.Type):
                return defs[name]  # an alias resolved earlier
            if raw not in self.nodes:
                self.named.add(id(self._state(raw, tag, name, defs[name], _NO_NAMES)))
            return self.nodes[raw]
        if tag in ("recv", "send"):
            payload = raw[1]
            if payload[0] == "pname":
                # a channel name when one is defined or bound, else a session name
                channel = payload[1] in self.defs["cname"] or payload[1] in binders
                payload = ("cname" if channel else "name", payload[1])
            # the channel's written binders reach a channel payload, not a value type
            scope = binders if payload[0] in _CHANNEL else _NO_NAMES
            return _MAKE[tag](self.resolve(payload, scope, True), self.resolve(raw[2], binders))
        if tag == "access":
            if not value:
                raise ParseError("not a session type: access")
            node = sx.SessionState("_AP")  # defined by the translation, once checked
            self.access[id(node)] = self.resolve(raw[1])
            self.new.append(node)
            return node
        if tag == "enum":
            return sx.EnumType(frozenset(raw[1]))
        return {"null": sx.NULL_T, "linkthis": sx.LINK_THIS, "end": sx.CHAN_END}[tag]

    def starts(self, t):
        """The constructor class t unfolds to, read through pending
        definitions; None for a chain of states back to itself."""
        seen = set()
        while isinstance(t, sx.State):
            if id(t) in seen:
                return None
            seen.add(id(t))
            if id(t) in self.pending:
                raw, binders = self.pending[id(t)]
                if raw[0] not in ("rec", "recc", "name", "cname"):
                    return {"branch": sx.Branch, "variant": sx.VariantS}.get(raw[0])
                t = self.resolve(raw, binders)
            else:
                t = t.body
        return None if t is None else type(t)

    def check(self, t, what, cases=True):
        """Check what was made since the last check: no cycle through an
        access-point type, every state contractive; then, the access types
        translated, no repeated signature; with `cases`, every variant case
        reached from `t` a branch, the first that is not in `_walk` order."""
        new, self.new = self.new, []
        for node in new:
            for v, path in self._walk(self.access.get(id(node)), set()):
                if v is node:
                    while id(path[0]) not in self.named:
                        path = path[1]
                    noun = "session" if isinstance(path[0], sx.SessionType) else "channel"
                    raise ParseError(f"{noun} type name {path[0].name!r} refers to itself "
                                     "through an access-point type")
        for node in new:
            if isinstance(node, sx.State) and id(node) not in self.access:
                if self.starts(node) is None:
                    raise NonContractiveType(f"{what}: type is not contractive")
        for node in new:
            if id(node) in self.access:
                node.define(channels.translate_access(self.access[id(node)]))
        for entries in (b.entries for b in new if isinstance(b, sx.Branch)):
            for i, e in enumerate(entries):
                if any(q.name == e.name and q.param == e.param for q in entries[:i]):
                    # a repeated (name, parameter) pair would make every call ambiguous
                    raise ParseError(f"repeated signature {e.name}({e.param!r}) in a branch")
        for v, _ in self._walk(t if cases else None, self.cased):
            if isinstance(v, sx.VariantS):
                bad = [l for l, c in v.cases if self.starts(c) is not sx.Branch]
                if bad:
                    raise ParseError(f"{what}: variant case {bad[0]!r} is not a branch type")

    def _walk(self, t, seen):
        """The nodes reached from t (if any) not in `seen`, each with the
        nodes on the way as a linked list, innermost first; depth first: a
        variant's cases; a signature's continuation, parameter and result; a
        channel's continuation, then its payload; an access type's protocol."""
        todo = [] if t is None else [(t, None)]
        while todo:
            t, path = todo.pop()
            if id(t) in seen:
                continue
            seen.add(id(t))
            yield t, path
            if isinstance(t, sx.State):
                parts = [self.access.get(id(t), t.body)]
            elif isinstance(t, sx.Branch):
                parts = [x for e in t.entries for x in (e.cont, e.param, e.result)]
            elif isinstance(t, (sx.ChanRecv, sx.ChanSend)):
                parts = [t.cont, t.payload]
            else:
                parts = [c for _, c in getattr(t, "cases", ())]
            todo.extend((c, (t, path)) for c in reversed(parts))


# ---------------------------------------------------------------------------
# Program parsing
# ---------------------------------------------------------------------------


class _RawClass(sx.Struct):
    __slots__ = ("name", "session", "states", "fields", "methods", "where")
    __hash__ = None

    def __init__(self, name: str, session: tuple, states: dict, fields: list, methods: list,
                 where: tuple):
        self.name, self.session, self.states, self.fields = name, session, states, fields
        self.methods = methods  # (annot raw or None, name, param name, body, where)
        self.where = where  # (file, text, index) of the declaration's first token


@contextmanager
def _located(where):
    """Fill in what a ParseError raised while resolving a declaration lacks:
    the position of the declaration's first token, computed from its `where`,
    `(file, text, index)`, only then; and its file."""
    try:
        yield
    except ParseError as err:
        filename, text, index = where
        if err.line is None:
            err.line, err.col = _line_col(text, index)
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
            p = _P(text, filename)
            while p.peek():
                t, where = p.peek(), p.where()
                if t == "class":
                    raw_classes.append(_parse_class(p))
                elif t == "access":
                    p.next()
                    p.expect("<")
                    proto = p.raw_channel()
                    p.expect(">")
                    name = p.lident("access point name")
                    p.expect(";")
                    raw_accesses.append((name, proto, where))
                elif t == "type" or t == "chantype":
                    kw = p.next()
                    noun = "type alias" if kw == "type" else "channel type alias"
                    raws = raw_type_aliases if kw == "type" else raw_chan_aliases
                    name = p.uident(f"{noun} name")
                    p.expect("=")
                    if name in raws:
                        raise p.error(f"duplicate {noun} {name!r}", where[2])
                    raws[name] = p.raw_session() if kw == "type" else p.raw_channel()
                    alias_where[(kw, name)] = where
                    if p.at(";"):
                        p.next()
                elif t == "main":
                    p.next()
                    if main is not None:
                        raise p.error("repeated main designation", where[2])
                    cls = p.uident("class name")
                    p.expect(".")
                    m = p.lident("method name")
                    p.expect(";")
                    main = (cls, m)
                else:
                    raise p.error(f"expected a declaration, found {t!r}")
        except ParseError as err:
            err.file = filename
            raise

    # Aliases and access points are resolved once, at file scope; a class's
    # states share the namespace with the resolved aliases, and shadow them
    # in the class's own types only.
    top = _Equations(raw_type_aliases, raw_chan_aliases)
    aliases = {"type": {}, "chantype": {}}
    kinds = (("type", raw_type_aliases, "name"), ("chantype", raw_chan_aliases, "cname"))
    for kw, raws, tag in kinds:
        for name in raws:
            with _located(alias_where[(kw, name)]):
                aliases[kw][name] = top.read((tag, name), f"{kw} {name}", kw == "type")
    access_points = {}
    for name, proto, where in raw_accesses:
        with _located(where):
            if name in access_points:
                raise ParseError(f"duplicate access point {name!r}")
            c = top.read(proto, f"access point {name}", False)
        access_points[name] = c
    classes = {}
    for rc in raw_classes:
        with _located(rc.where):
            classes[rc.name] = _resolve_class(rc, classes, aliases["type"], aliases["chantype"])

    program = sx.Program(
        classes=classes,
        access_points=access_points,
        session_aliases=aliases["type"],
        channel_aliases=aliases["chantype"],
        main=main,
    )
    _resolve_bodies(program, raw_classes)
    return program


def _resolve_class(rc, classes, type_aliases, chan_aliases) -> sx.ClassDecl:
    if rc.name in classes:
        raise DuplicateClass(f"class {rc.name!r} declared more than once")
    eqs = _Equations({**type_aliases, **rc.states}, chan_aliases)
    session = eqs.read(rc.session, f"class {rc.name}")
    if eqs.starts(session) is not sx.Branch:
        raise ParseError(f"class {rc.name}: declared session must unfold to a branch")
    states = {}
    for sname in rc.states:
        states[sname] = eqs.read(("name", sname), f"{rc.name}.{sname}")
    methods = {}
    for annot_raw, mname, pname, body, where in rc.methods:
        with _located(where):
            if mname in methods:
                raise ParseError(f"duplicate method {mname!r} in class {rc.name}")
            annot = None
            if annot_raw is not None:
                req_raw, ens_raw, result_raw, ptype_raw = annot_raw
                what = f"{rc.name}.{mname} annotation"
                req = _resolve_record(eqs, req_raw, rc.fields, rc.name, what)
                ens = _resolve_record(eqs, ens_raw, rc.fields, rc.name, what)
                if isinstance(ens, sx.VariantF):
                    raise ParseError(f"{rc.name}.{mname}: ens annotation cannot be a variant")
                annot = sx.MethodAnnotation(
                    req=req,
                    ens=ens,
                    result=eqs.read(result_raw, what, False),
                    param_type=eqs.read(ptype_raw, what, False),
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
    where = p.where()
    p.expect("class")
    name = p.uident("class name")
    p.expect("{")
    p.expect("session")
    session = p.raw_session()
    states = {}
    if p.at("where"):
        p.next()
        while _is_upper(p.peek()) and p.at("=", 1):
            at = p.i
            sname = p.uident()
            p.expect("=")
            if sname in states:
                raise p.error(f"duplicate state {sname!r}", at)
            states[sname] = p.raw_session()
            if p.at(","):
                p.next()
    fields = []
    methods = []
    while not p.at("}"):
        t, at = p.peek(), p.where()
        if t == "req":
            methods.append(_parse_annotated_method(p))
        elif _is_lower(t) and p.peek(1) in (";", ","):
            while True:
                fields.append(p.fresh(p.lident("field name"), fields, "field"))
                if not p.at(","):
                    break
                p.next()
            p.expect(";")
        elif _is_lower(t) and p.at("(", 1):
            mname = p.lident("method name")
            p.expect("(")
            pname = "_x" if p.at(")") else p.lident("parameter name")
            p.expect(")")
            p.expect("{")
            body = p.stmts()
            p.expect("}")
            methods.append((None, mname, pname, body, at))
        else:
            raise p.error(f"expected a field, method or '}}', found {t!r}")
    p.expect("}")
    return _RawClass(name, session, states, fields, methods, where)


def _parse_annotated_method(p: _P):
    where = p.where()
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
    return ((req, ens, result, ptype), mname, pname, body, where)


def _parse_field_binds(p: _P):
    binds = []
    while True:
        t = p.raw_vtype()
        binds.append((p.fresh(p.lident("field name"), [f for f, _ in binds], "field"), t))
        if not p.at(","):
            return tuple(binds)
        p.next()


def _resolve_record(eqs, binds, fields, cls_name, what):
    typed = {f: eqs.read(t, what, False) for f, t in binds}
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
        for _, mname, _, _, where in rc.methods:
            m = cls.methods[mname]
            with _located(where):
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
    p = _P(text)
    if p.peek() in program.classes and p.at(".", 1) and p.peek(2) not in _NOT_IDENT:
        cls = p.uident()
        p.expect(".")
        state = p.uident("state name")
        _expect_eof(p)
        decl = program.classes[cls]
        if state not in decl.states:
            raise UnboundStateName(f"class {cls} has no state {state!r}")
        return decl.states[state]
    eqs = _Equations(program.session_aliases, program.channel_aliases)
    s = eqs.resolve_all(p.raw_session())
    _expect_eof(p)
    eqs.check(s, "type expression")
    return s


def parse_channel_type(text: str, program: sx.Program = None) -> sx.ChannelType:
    program = program or sx.Program(classes={})
    p = _P(text)
    eqs = _Equations(program.session_aliases, program.channel_aliases)
    c = eqs.resolve_all(p.raw_channel())
    _expect_eof(p)
    eqs.check(c, "channel type expression", False)
    return c


def _expect_eof(p):
    if p.peek():
        raise p.error(f"trailing input {p.peek()!r}")


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

"""Textual rendering of types and expressions.

Rendering round-trips: parsing the output of render_type yields a type
structurally equal to the input (same for expressions of the surface
language). Internal-only forms (object ids, endpoints, return) render in
an unambiguous notation used by trace logs; they are not re-parseable.
"""

from __future__ import annotations

import re

from . import syntax as sx


def render_type(t) -> str:
    names = _Names()
    return names.resolve(_render(t, names))


_CASES = {sx.VariantS: "<>", sx.VariantF: "<>", sx.ChanOffer: "&{}", sx.ChanSelect: "+{}"}


class _Binder:
    __slots__ = ("name", "met", "shadows")

    def __init__(self, name):
        self.name, self.met, self.shadows = name, False, False


class _Names:
    """The states whose bodies are being rendered, and the names they are
    written by. A state met again is written as a mark that `resolve` turns
    into its name: its own, unless it is written `rec name.` and, inside,
    an outer state of the same name is met again, which the binder would
    capture; then a name used by no state rendered."""

    def __init__(self):
        self.open = {}  # id of an open state -> the index of its binder
        self.by_name = {}  # name -> indices of the open binders of that name
        self.binders = []

    def enter(self, s):
        i = self.open[id(s)] = len(self.binders)
        self.by_name.setdefault(s.name, []).append(i)
        self.binders.append(_Binder(s.name))

    def leave(self, s):
        """Close the binder of s: its mark if s was met again, else None."""
        i = self.open.pop(id(s))
        b = self.binders[i]
        self.by_name[b.name].pop()
        return f"\0{i}\0" if b.met else None

    def meet(self, s):
        i = self.open[id(s)]
        self.binders[i].met = True
        for j in reversed(self.by_name[s.name]):
            if j == i:
                break
            self.binders[j].shadows = True
        return f"\0{i}\0"

    def resolve(self, text):
        if "\0" not in text:
            return text
        taken = {b.name for b in self.binders}
        names = []
        for b in self.binders:
            name, n = b.name, 0
            while b.met and b.shadows and name in taken:
                n += 1
                name = f"{b.name}_{n}"
            taken.add(name)
            names.append(name)
        return re.sub("\0(\\d+)\0", lambda m: names[int(m[1])], text)


def _render(t, names) -> str:
    """One call per level of nesting, states included."""
    states = []
    while isinstance(t, sx.State) and id(t) not in names.open:
        names.enter(t)
        states.append(t)
        t = t.body
    parts = []
    if isinstance(t, sx.State):
        text = names.meet(t)
    elif isinstance(t, sx.NullType):
        text = "Null"
    elif isinstance(t, sx.EnumType):
        text = "{" + ", ".join(sorted(t.labels)) + "}"
    elif isinstance(t, sx.LinkThis):
        text = "linkthis"
    elif isinstance(t, sx.LinkField):
        text = f"link {t.field}"
    elif isinstance(t, sx.Branch):
        for e in t.entries:
            parts.append(f"{_render(e.result, names)} {e.name}({_render(e.param, names)}): "
                         f"{_render(e.cont, names)}")
        text = "{" + ", ".join(parts) + "}"
    elif type(t) in _CASES:
        for l, c in t.cases:
            parts.append(f"{l}: {_render(c, names)}")
        text = _CASES[type(t)][:-1] + ", ".join(parts) + _CASES[type(t)][-1]
    elif isinstance(t, sx.ChanEnd):
        text = "End"
    elif isinstance(t, (sx.ChanRecv, sx.ChanSend)):
        p = _render(t.payload, names)
        # a structured channel payload needs parentheses to keep '.' unambiguous
        if isinstance(t.payload, sx.ChannelType) and p.startswith(("?", "!", "rec ")):
            p = f"({p})"
        text = f"{'?' if isinstance(t, sx.ChanRecv) else '!'}{p}.{_render(t.cont, names)}"
    elif isinstance(t, sx.RecordF):
        text = "{" + ", ".join(f"{_render(v, names)} {f}" for f, v in t.items) + "}"
    elif isinstance(t, sx.ObjectInternal):
        text = f"{t.cls}[{_render(t.typing, names)}]"
    else:
        raise TypeError(f"cannot render {type(t).__name__}")
    for s in reversed(states):
        mark = names.leave(s)
        if mark:
            text = f"rec {mark}.{text}"
    return text


def render_expr(e) -> str:
    if isinstance(e, sx.NullE):
        return "null"
    if isinstance(e, sx.LabelE):
        return e.label
    if isinstance(e, sx.VarE):
        return e.name
    if isinstance(e, sx.NewE):
        return f"new {e.cls}()"
    if isinstance(e, sx.SwapE):
        return f"{e.field} <-> {render_expr(e.expr)}"
    if isinstance(e, sx.CallE):
        return f"{e.field}.{e.method}({render_expr(e.arg)})"
    if isinstance(e, sx.SelfCallE):
        return f"{e.method}({render_expr(e.arg)})"
    if isinstance(e, sx.SeqE):
        return "; ".join(_seq_part(s) for s in sx.statements(e))
    if isinstance(e, sx.SwitchE):
        cases = " ".join(f"{l}: {render_expr(b)};" for l, b in e.cases)
        return f"switch ({render_expr(e.subject)}) {{ {cases} }}"
    if isinstance(e, sx.WhileE):
        return f"while ({render_expr(e.cond)}) {{ {render_expr(e.body)} }}"
    if isinstance(e, sx.SpawnE):
        return f"spawn {e.cls}.{e.method}({render_expr(e.arg)})"
    if isinstance(e, sx.ReturnE):
        return f"return({render_expr(e.expr)})"
    if isinstance(e, sx.ObjIdE):
        return f"#{e.oid}"
    if isinstance(e, sx.EndpointE):
        return f"#{e.chan}{e.polarity}"
    if isinstance(e, sx.AccessE):
        return e.name
    raise TypeError(f"cannot render expression {type(e).__name__}")


def _seq_part(e) -> str:
    """One statement of a sequence. The one sequence the parser makes a
    statement of is an assignment `f = v`, its sugar for `f <-> v; null`,
    which renders as written."""
    if isinstance(e, sx.SeqE) and isinstance(e.first, sx.SwapE) and isinstance(e.second, sx.NullE):
        return f"{e.first.field} = {render_expr(e.first.expr)}"
    s = render_expr(e)
    return f"({s})" if isinstance(e, sx.SeqE) else s

"""Textual rendering of types and expressions.

Rendering round-trips: parsing the output of render_type yields a type
structurally equal to the input (same for expressions of the surface
language). Internal-only forms (object ids, endpoints, return) render in
an unambiguous notation used by trace logs; they are not re-parseable.
"""

from __future__ import annotations

from . import syntax as sx


def render_type(t) -> str:
    if isinstance(t, sx.NullType):
        return "Null"
    if isinstance(t, sx.EnumType):
        return "{" + ", ".join(sorted(t.labels)) + "}"
    if isinstance(t, sx.LinkThis):
        return "linkthis"
    if isinstance(t, sx.LinkField):
        return f"link {t.field}"
    if isinstance(t, sx.Branch):
        sigs = ", ".join(
            f"{render_type(e.result)} {e.name}({render_type(e.param)}): {render_type(e.cont)}"
            for e in t.entries
        )
        return "{" + sigs + "}"
    if isinstance(t, sx.VariantS):
        return "<" + ", ".join(f"{l}: {render_type(s)}" for l, s in t.cases) + ">"
    if isinstance(t, sx.RecS):
        return f"rec {t.var}.{render_type(t.body)}"
    if isinstance(t, sx.VarS):
        return t.name
    if isinstance(t, sx.ChanEnd):
        return "End"
    if isinstance(t, sx.ChanRecv):
        return f"?{_payload(t.payload)}.{render_type(t.cont)}"
    if isinstance(t, sx.ChanSend):
        return f"!{_payload(t.payload)}.{render_type(t.cont)}"
    if isinstance(t, sx.ChanOffer):
        return "&{" + ", ".join(f"{l}: {render_type(s)}" for l, s in t.cases) + "}"
    if isinstance(t, sx.ChanSelect):
        return "+{" + ", ".join(f"{l}: {render_type(s)}" for l, s in t.cases) + "}"
    if isinstance(t, sx.RecC):
        return f"rec {t.var}.{render_type(t.body)}"
    if isinstance(t, sx.VarC):
        return t.name
    if isinstance(t, sx.AccessPointType):
        return f"<{render_type(t.protocol)}>"
    if isinstance(t, sx.RecordF):
        return "{" + ", ".join(f"{render_type(v)} {f}" for f, v in t.items) + "}"
    if isinstance(t, sx.VariantF):
        return "<" + ", ".join(f"{l}: {render_type(f)}" for l, f in t.cases) + ">"
    if isinstance(t, sx.ObjectInternal):
        return f"{t.cls}[{render_type(t.typing)}]"
    raise TypeError(f"cannot render {t!r:.40}")


def _payload(p) -> str:
    # Channel payloads that are themselves structured channel types need
    # parentheses to keep '.' unambiguous.
    if isinstance(p, (sx.ChanRecv, sx.ChanSend, sx.RecC)):
        return f"({render_type(p)})"
    return render_type(p)


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
    s = render_expr(e)
    return f"({s})" if isinstance(e, sx.SeqE) else s

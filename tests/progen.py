"""Seeded generator of small mstlang programs for the soundness fuzzer.

A program is a few protocol-carrying leaf classes, an optional channel
protocol with a server and a client class, a spawned worker, and a main
class that drives its objects along their protocols: calls, switches on
returned tags (directly or after parking the tag in a field), while loops
over TRUE/FALSE variants, annotated self-calls (also with tag arguments),
enum overloads, object transfer and dropped objects.

Most choices follow the protocols, so a good share of the programs check;
with a small probability a choice is deliberately off (a label outside a
parameter type, a method not in the current state, a missing case), which
probes the boundary of what the checker accepts. The generator emits
source text, so a failing program can be printed and replayed with `mst`.
Only the standard library's `random` is used.
"""

import random

LABELS = ("A", "B", "C")
SLIP = 0.06  # chance of a deliberately off choice


def _enum(labels):
    return "{" + ", ".join(labels) + "}"


class _Leaf:
    """A class with one enum-valued field `k` and a protocol of named states.

    states: name -> list of entries (name, param, result, cont), where param
    is None (Null) or a label tuple, result is None (Null), a label tuple
    (enumeration) or "link", and cont is a state name, "End", or for "link"
    a tuple of (label, state name) pairs.
    """

    def __init__(self, name, states, bodies, helpers):
        self.name = name
        self.states = states
        self.bodies = bodies  # method name -> body text
        self.helpers = helpers  # annotated method texts

    def text(self):
        order = list(self.states)
        lines = [f"class {self.name} {{", f"  session {order[0]}"]
        defs = []
        for s in order:
            defs.append(f"{s} = {_branch_text(self.states[s])}")
        lines.append("  where " + ",\n        ".join(defs))
        lines.append("  k;")
        for m, body in self.bodies.items():
            lines.append(f"  {m}(x) {{ {body} }}")
        lines.extend("  " + h for h in self.helpers)
        lines.append("}")
        return "\n".join(lines)


def _state_ref(s):
    return "{}" if s == "End" else s


def _branch_text(entries):
    sigs = []
    for name, param, result, cont in entries:
        p = "Null" if param is None else _enum(param)
        if result == "link":
            r = "linkthis"
            c = "<" + ", ".join(f"{l}: {_state_ref(s)}" for l, s in cont) + ">"
        else:
            r = "Null" if result is None else _enum(result)
            c = _state_ref(cont)
        sigs.append(f"{r} {name}({p}): {c}")
    return "{" + ", ".join(sigs) + "}"


class ProgramGen:
    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.counter = 0

    def off(self):
        return self.rng.random() < SLIP

    def fresh(self, prefix):
        self.counter += 1
        return f"{prefix}{self.counter}"

    # -- leaf classes -----------------------------------------------------------

    def leaf(self, name):
        rng = self.rng
        n = rng.randint(2, 4)
        names = [f"{name}S{i}" for i in range(n)]
        states = {s: [] for s in names}
        bodies = {}
        helpers = []
        helper_names = []
        if rng.random() < 0.5:
            helper_names.append(self._tick_helper(helpers))
        if rng.random() < 0.4:
            helper_names.append(self._flip_helper(helpers))

        def target():
            return rng.choice(names[1:] + ["End"])

        for i, s in enumerate(list(names)):
            if i > 0 and rng.random() < 0.25:
                # a loop state: while (o.more()) { o.next() }
                body_state = self.fresh(f"{name}B")
                exit_state = target()
                more, nxt = self.fresh("more"), self.fresh("next")
                states[s].append((more, None, "link", (("TRUE", body_state), ("FALSE", exit_state))))
                states[body_state] = [(nxt, None, None, s)]
                names.append(body_state)
                bodies[more] = self._body(None, "link", ("TRUE", "FALSE"), helper_names, i > 0)
                bodies[nxt] = self._body(None, None, None, helper_names, True)
                continue
            for _ in range(rng.randint(1, 2)):
                m = self.fresh("m")
                param = rng.choice([None, None, ("A", "B"), ("A",), ("A", "B", "C")])
                r = rng.random()
                if r < 0.35:
                    k = rng.randint(1, 2)
                    labs = tuple(rng.sample(LABELS, k))
                    cont = tuple((l, target()) for l in labs)
                    states[s].append((m, param, "link", cont))
                    bodies[m] = self._body(param, "link", labs, helper_names, i > 0)
                else:
                    result = None if r < 0.75 else tuple(sorted(rng.sample(LABELS, 2)))
                    states[s].append((m, param, result, target()))
                    bodies[m] = self._body(param, result, result, helper_names, i > 0)
            if rng.random() < 0.15:
                # an enum overload: the least applicable parameter type wins
                m = self.fresh("o")
                pair = [(m, ("A",), None, target()), (m, ("A", "B"), None, target())]
                rng.shuffle(pair)
                states[s].extend(pair)
                bodies[m] = self._body(("A",), None, None, helper_names, i > 0)
        return _Leaf(name, states, bodies, helpers)

    def _tick_helper(self, helpers):
        m = self.fresh("tick")
        param = self.rng.choice([None, ("A", "B")])
        if param is None:
            helpers.append(
                f"req {{A, B, C}} k ens {{A, B, C}} k Null {m}(Null y) "
                f"{{ switch (k <-> null) {{ A: k = B; null; B: k = C; null; C: k = A; null }} }}"
            )
        else:
            helpers.append(
                f"req {{A, B, C}} k ens {{A, B, C}} k Null {m}({{A, B}} y) "
                f"{{ k <-> null; switch (y) {{ A: k = B; null; B: k = C; null }} }}"
            )
        return (m, param)

    def _flip_helper(self, helpers):
        m = self.fresh("flip")
        helpers.append(
            f"req {{A, B, C}} k ens {{A, B, C}} k {{TRUE, FALSE}} {m}(Null y) "
            f"{{ switch (k <-> null) {{ A: k = B; TRUE; B: k = C; TRUE; C: k = A; FALSE }} }}"
        )
        return (m, "flip")

    def _result(self, result, labs):
        """An expression of the declared result."""
        if result is None:
            return "null"
        if self.off():
            return self.rng.choice(LABELS + ("null",))
        return self.rng.choice(labs)

    def _body(self, param, result, labs, helper_names, k_set):
        rng = self.rng
        shapes = ["set"]
        if param is not None:
            shapes += ["store", "switch_param"]
        if k_set or self.off():
            shapes += ["switch_k", "switch_k"]
            if helper_names:
                shapes += ["self", "self"]
        shape = rng.choice(shapes)
        if shape == "set":
            return f"k = {rng.choice(LABELS)}; {self._result(result, labs)}"
        if shape == "store":
            return f"k = x; {self._result(result, labs)}"
        if shape == "switch_param":
            cases = list(param)
            if self.off() and len(cases) > 1:
                cases.pop()
            arms = " ".join(f"{l}: k = {l}; {self._result(result, labs)};" for l in cases)
            return f"switch (x) {{ {arms} }}"
        if shape == "switch_k":
            arms = " ".join(
                f"{l}: k = {rng.choice(LABELS)}; {self._result(result, labs)};" for l in LABELS
            )
            return f"switch (k <-> null) {{ {arms} }}"
        m, kind = rng.choice(helper_names)
        if kind == "flip":
            return f"{m}(null); while ({m}(null)) {{ null }}; {self._result(result, labs)}"
        if kind is None:
            return f"{m}(null); {self._result(result, labs)}"
        arg = rng.choice(kind) if not self.off() else "C"
        if param is not None and rng.random() < 0.3:
            arg = "x"
        return f"{m}({arg}); {self._result(result, labs)}"

    # -- clients ------------------------------------------------------------------

    def walk(self, leaf, fld, state, budget, spare):
        """Statements driving field `fld` (an object of `leaf` at `state`)."""
        rng = self.rng
        out = []
        while budget > 0 and state != "End":
            entries = leaf.states[state]
            name, param, result, cont = rng.choice(entries)
            if self.off():
                name = rng.choice([e[0] for s in leaf.states.values() for e in s])
            budget -= 1
            if param is None:
                arg = "null"
            else:
                arg = rng.choice(param) if not self.off() else rng.choice(LABELS)
            call = f"{fld}.{name}({arg})"
            if result == "link":
                labs = [l for l, _ in cont]
                nxt = dict(cont)
                if "TRUE" in nxt:
                    # a loop state: its TRUE case calls back into it
                    step = leaf.states[nxt["TRUE"]][0][0]
                    out.append(f"while ({call}) {{ {fld}.{step}(null) }}")
                    state = nxt["FALSE"]
                    continue
                if spare and rng.random() < 0.4:
                    # park the tag in a spare field, then switch on it later
                    out.append(f"{spare} = {call}")
                    out.append("null")
                    subject = f"{spare} <-> null"
                else:
                    subject = call
                if self.off():
                    labs = labs[:-1] or labs
                arms = []
                for l in labs:
                    inner = self.walk(leaf, fld, nxt[l], budget - 1, spare)
                    inner.append(f"{fld} = null")
                    arms.append(f"{l}: " + "; ".join(inner) + ";")
                out.append(f"switch ({subject}) {{ {' '.join(arms)} }}")
                return out
            if result is not None and spare and rng.random() < 0.3:
                out.append(f"{spare} = {call}")
                out.append(f"{spare} <-> null")
            else:
                out.append(call)
            state = cont
        return out

    def client_body(self, leaves, fields, spare):
        rng = self.rng
        stmts = []
        for fld in fields:
            leaf = rng.choice(leaves)
            stmts.append(f"{fld} = new {leaf.name}()")
            stmts.extend(self.walk(leaf, fld, next(iter(leaf.states)), rng.randint(1, 4), spare))
        return stmts

    # -- channels -------------------------------------------------------------------

    def channel(self, depth):
        rng = self.rng
        if depth <= 0 or rng.random() < 0.2:
            return ("end",)
        r = rng.random()
        if r < 0.3:
            return ("recv", rng.choice(["Null", "{A, B}", "Tok"]), self.channel(depth - 1))
        if r < 0.6:
            return ("send", rng.choice(["Null", "{A, B}", "{A}", "Tok"]), self.channel(depth - 1))
        labs = rng.sample(LABELS, rng.randint(1, 2))
        kind = "offer" if r < 0.8 else "select"
        return (kind, tuple((l, self.channel(depth - 1)) for l in labs))

    @staticmethod
    def dual(p):
        kind = p[0]
        swap = {"recv": "send", "send": "recv", "offer": "select", "select": "offer"}
        if kind == "end":
            return p
        if kind in ("recv", "send"):
            return (swap[kind], p[1], ProgramGen.dual(p[2]))
        return (swap[kind], tuple((l, ProgramGen.dual(c)) for l, c in p[1]))

    @staticmethod
    def chan_text(p):
        kind = p[0]
        if kind == "end":
            return "End"
        if kind in ("recv", "send"):
            payload = "TokT" if p[1] == "Tok" else p[1]
            return ("?" if kind == "recv" else "!") + payload + "." + ProgramGen.chan_text(p[2])
        sym = "&" if kind == "offer" else "+"
        return sym + "{" + ", ".join(f"{l}: {ProgramGen.chan_text(c)}" for l, c in p[1]) + "}"

    def chan_walk(self, p):
        """Statements following protocol p on field c."""
        rng = self.rng
        out = []
        while p[0] != "end":
            kind = p[0]
            if kind == "recv":
                if p[1] == "Tok":
                    out.append("t = c.receive(null)")
                    out.append("t.use(null)")
                elif rng.random() < 0.5:
                    out.append("e = c.receive(null)")
                else:
                    out.append("c.receive(null)")
                p = p[2]
            elif kind == "send":
                if p[1] == "Tok":
                    out.append("t = new Tok()")
                    out.append("c.send(t <-> null)")
                elif p[1] == "Null":
                    out.append("c.send(null)")
                else:
                    labs = ("A", "B") if p[1] == "{A, B}" else ("A",)
                    out.append(f"c.send({rng.choice(labs) if not self.off() else 'C'})")
                p = p[2]
            elif kind == "select":
                l, p = rng.choice(p[1])
                out.append(f"c.send({l})")
            else:
                arms = []
                for l, c in p[1]:
                    inner = self.chan_walk(c) or ["null"]
                    arms.append(f"{l}: " + "; ".join(inner) + ";")
                out.append(f"switch (c.receive(null)) {{ {' '.join(arms)} }}")
                return out
        return out

    # -- whole programs -----------------------------------------------------------------

    def program(self):
        rng = self.rng
        leaves = [self.leaf(f"L{i}") for i in range(rng.randint(1, 2))]
        parts = [leaf.text() for leaf in leaves]
        parts.append(
            "type TokT = {Null use(Null): {}}\n"
            "class Tok { session TokT use(x) { x } }"
        )
        boot = []
        if rng.random() < 0.5:
            proto = self.channel(3)
            parts.insert(0, f"access <{self.chan_text(proto)}> ap;")
            for cls, side, p in (("Srv", "accept", proto), ("Cli", "request", self.dual(proto))):
                body = ["a = ap", f"c = a.{side}(null)"] + self.chan_walk(p)
                parts.append(self._go_class(cls, "a; c; e; t;", body))
            boot += ["spawn Srv.go(null)", "spawn Cli.go(null)"]
        if rng.random() < 0.3:
            body = self.client_body(leaves, ["w"], "h")
            parts.append(self._go_class("Wrk", "w; h;", body))
            boot.append("spawn Wrk.go(null)")
        fields = ["f0", "f1"][: rng.randint(1, 2)]
        body = boot + self.client_body(leaves, fields, "g")
        if rng.random() < 0.3:
            body.insert(rng.randrange(len(body) + 1), "e = B; e <-> null")
        parts.append(self._go_class("Main", "f0; f1; g; e;", body))
        parts.append("main Main.go;")
        return "\n\n".join(parts) + "\n"

    @staticmethod
    def _go_class(name, fields, body):
        stmts = ";\n    ".join(body + ["null"])
        return (
            f"class {name} {{\n  session {{Null go(Null): {{}}}}\n  {fields}\n"
            f"  go(x) {{\n    {stmts};\n  }}\n}}"
        )


def generate(seed):
    """Source text of the program for one seed."""
    return ProgramGen(seed).program()

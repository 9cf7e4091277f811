"""Frozen inputs of the benchmark, and the seeded variants built from them.

The corpora below are copies of the law, beta/eta, ALpi-correspondence and
distinguishing fixtures of the test suite, each with its expected verdict.
They are kept here so that an edit to a test cannot change the benchmark.
The seed only picks congruent variants of the fixed inputs (shuffled and
re-associated ``|``, reordered restrictions, renamed binders) and the
generated programs; no expected verdict depends on it.
"""

from awpi.encodings import SApp, SLam, SVar
from awpi.syntax import (
    Case, ChanType, Input, LetTuple, Name, NIL, Nil, Output, Par, RepInput,
    Res, UNIT, VInl, VInr, VName, VTuple, VUNIT,
)
from awpi.typecheck import is_copyable

# (name, environment, connections, lhs, rhs): internal-bisimilar up to
# depth 6.
LAWS = [
    ("wire-law-out-end", "a: o[unit]; c: o[o[unit]]", "",
     "new(bi: i[unit], b)( c!(b) | !bi(x).a!(x) )",
     "c!(a)"),
    ("wire-law-in-end", "a: i[unit]; c: o[i[unit]]", "",
     "new(b: i[unit], bo)( c!(b) | !a(x).bo!(x) )",
     "c!(a)"),
    ("wire-law-linear", "a: lo[unit]; c: lo[lo[unit]]", "",
     "new(bi: li[unit], b)( c!(b) | bi(x).a!(x) )",
     "c!(a)"),
    ("wire-subst-out-twice", "a: o[unit]; c: o[o[unit]]; k: o[o[unit]]", "",
     "new(bi: i[unit], b)( !bi(x).a!(x) | ( c!(b) | k!(b) ) )",
     "c!(a) | k!(a)"),
    ("wire-subst-in-client", "a: i[unit]; k: o[unit]", "",
     "new(b: i[unit], bo)( !a(x).bo!(x) | b(y).k!(y) )",
     "a(y).k!(y)"),
    ("wire-subst-in-server", "a: i[unit]; k: o[unit]", "",
     "new(b: i[unit], bo)( !a(x).bo!(x) | !b(y).k!(y) )",
     "!a(y).k!(y)"),
    ("wire-compose-contracts", "a: i[unit]; c: o[unit]", "",
     "new(m: i[unit], mo)( !a(x).mo!(x) | !m(y).c!(y) )",
     "!a(x).c!(x)"),
    ("wire-compose-linear", "a: li[unit]; c: lo[unit]", "",
     "new(m: li[unit], mo)( a(x).mo!(x) | m(y).c!(y) )",
     "a(x).c!(x)"),
    ("input-commute", "a: i[unit]; b: i[unit]; k: o[unit]", "",
     "a(x).b(y).k!()",
     "b(y).a(x).k!()"),
    ("input-commute-used-payloads", "a: li[unit]; b: li[o[unit]]", "",
     "a(x).b(y).y!()",
     "b(y).a(x).y!()"),
    ("drop-idle-input", "a: i[unit]", "",
     "a(x).0",
     "0"),
    ("drop-idle-linear-input", "a: li[unit]", "",
     "a(x).0",
     "0"),
    ("message-meets-companion", "a: i[unit]; b: o[unit]; c: o[unit]", "a-b",
     "!a(x).c!() | b!()",
     "!a(x).c!() | c!()"),
    ("message-meets-companion-payload",
     "a: i[o[unit]]; b: o[o[unit]]; k: o[unit]", "a-b",
     "!a(x).x!() | b!(k)",
     "!a(x).x!() | k!()"),
    ("replication-unfold", "a: i[unit]; b: o[unit]", "",
     "!a(x).b!(x)",
     "a(x).( b!(x) | !a(y).b!(y) )"),
    ("replication-unfold-closed-body", "a: i[unit]; k: o[unit]", "",
     "!a(x).k!()",
     "a(x).( k!() | !a(y).k!() )"),
    ("receptive-rename", "a: i[unit]; a2: i[unit]; k: o[unit]", "",
     "new(b: i[unit], bo)( !a(x).bo!(x) | b(y).a2(z).k!() )",
     "a(y).a2(z).k!()"),
    ("par-unit", "k: o[unit]", "",
     "k!() | 0",
     "k!()"),
    ("par-commute", "c: o[unit]; k: o[unit]", "",
     "c!() | k!()",
     "k!() | c!()"),
    ("internal-step-invisible", "k: o[unit]", "",
     "new(a: i[unit], b)( a(x).k!() | b!() )",
     "k!()"),
    ("tuple-projection", "k: o[unit]", "",
     "let (u, v) = ((), ()) in k!(v)",
     "k!()"),
    ("case-commit", "k: o[unit]; c: o[unit]", "",
     "case inl () { inl x -> k!(x) ; inr y -> c!(y) }",
     "k!()"),
]

# Internal-game pairs that must be distinguished with a replayable witness.
MUTATED_WIRE = ("a: o[unit]; k: o[unit]; c: o[o[unit]]",
                "new(bi: i[unit], b)( c!(b) | !bi(x).k!(x) )",
                "c!(a)")
STRATA = ("a: i[unit]",
          "success ok; success err; a(x).ok!()",
          "success ok; success err; a(x).err!()")

# (name, free-variable types, lhs, rhs, type): equal by beta/eta alone.
BETA_ETA = [
    ("beta-id-base", {"y": "o"}, "(\\x:o. x) y", "y", "o"),
    ("eta-fn", {"f": "o -> o"}, "\\x:o. f x", "f", "o -> o"),
    ("beta-fn", {"g": "o -> o"}, "(\\f:o -> o. f) g", "g", "o -> o"),
    ("beta-under-lam", {"x": "o"}, "(\\y:o. \\z:o. y) x", "\\z:o. x",
     "o -> o"),
    ("beta-drop", {"x": "o", "w": "o"}, "(\\z:o. w) x", "w", "o"),
    ("eta-id", {}, "\\x:o. (\\y:o. y) x", "\\y:o. y", "o -> o"),
    ("beta-compose", {"f": "o -> o", "x": "o"}, "(\\y:o. f y) x", "f x", "o"),
    ("beta-order2", {"F": "(o -> o) -> o", "g": "o -> o"},
     "(\\h:o -> o. F h) g", "F g", "o"),
    ("eta-order2", {"F": "(o -> o) -> o"}, "\\g:o -> o. F g", "F",
     "(o -> o) -> o"),
    ("beta-id-id", {}, "(\\f:o -> o. f) (\\x:o. x)", "\\x:o. x", "o -> o"),
    ("beta-arg-fn", {"g": "o -> o", "x": "o"}, "(\\f:o -> o. f x) g", "g x",
     "o"),
]
UNEQUAL_STLC = ("unequal-k-ks", {}, "\\x:o. \\y:o. x", "\\x:o. \\y:o. y",
                "o -> o -> o")

# (name, closed localised process, weak barbs of source and image).
ALPI = [
    ("message", "success ok; new(a: ^unit)( a!() | a(y).ok!() )", ["ok"]),
    ("race", "success ok; success err; new(a: ^unit)"
             "( a!() | a(x).ok!() | a(y).err!() )", ["err", "ok"]),
    ("sequence", "success ok; new(a: ^unit)( a!() | a!() | a(x).a(y).ok!() )",
     ["ok"]),
    ("replication", "success ok; new(a: ^unit)( a!() | a!() | !a(y).ok!() )",
     ["ok"]),
    ("name-passing", "success ok; success done; new(b: ^unit) new(a: ^o[unit])"
                     "( a!(b) | a(y).(y!() | ok!()) | b(z).done!() )",
     ["done", "ok"]),
]

_CHOICE = ("success ok; success err; "
           "new(a: i[unit+unit], b)( a(x).case x {{ inl u -> ok!() ; "
           "inr v -> err!() }} | b!({}) )")
BARBED_CHOICE = (_CHOICE.format("inl ()"), _CHOICE.format("inr ()"))
REFINEMENT_FALLBACK = (
    "success ok; new(a: i[unit], b)( a(x).( ok!() | ok!() ) | b!() )",
    "success ok; new(a: i[unit], b)( a(x).ok!() | b!() )")


def client_server(n):
    """A replicated server answering ``n`` clients; each client then emits
    ``ok``.  Up to congruence its states are the multisets of ``n`` client
    stages out of four (request pending, reply pending, ``ok!()``, done)."""
    client = "new(r: i[unit], ro)( so!(ro) | r(x).ok!() )"
    return ("success ok; new(s: i[o[unit]], so)( !s(r).r!() | "
            + " | ".join([client] * n) + " )")


def client_server_states(n):
    """Distinct states of :func:`client_server`: C(n + 3, 3)."""
    return (n + 1) * (n + 2) * (n + 3) // 6


def identical_outputs(n):
    return " | ".join(["k!()"] * n)


def nested(depth):
    """``depth`` restrictions, each guarding the next behind a handshake."""
    text = "k!()"
    for i in range(depth, 0, -1):
        text = f"new(a{i}: i[unit], b{i})( b{i}!() | a{i}(x{i}).({text}) )"
    return text


def ring(size):
    """``size`` restricted ``i[unit]`` pairs; atom i forwards to pair i + 1."""
    pairs = [(Name(f"a{i}"), Name(f"b{i}")) for i in range(size)]
    atoms = [Input(a, Name(f"x{i}"), Output(pairs[(i + 1) % size][1], VUNIT))
             for i, (a, _b) in enumerate(pairs)]
    body = _tree(atoms, None)
    for a, b in reversed(pairs):
        body = Res(a, b, ChanType("i", UNIT), body)
    return body


def deep_prefix(depth):
    return "".join(f"a(x{i})." for i in range(depth)) + "k!()"


# ---------------------------------------------------------------------------
# congruent variants


class Variants:
    """Seeded congruent copies.  Renamed binders get indices from 500 up,
    which no input uses, so renaming never captures."""

    def __init__(self, rng):
        self.rng = rng
        self.index = 500

    def fresh(self, n):
        self.index += 1
        return Name(n.base, self.index, n.kind)

    def process(self, p, env=None):
        """Shuffle and re-associate each ``|`` chain, reorder each
        restriction chain, and rename every binder."""
        env = env or {}
        if isinstance(p, Nil):
            return p
        if isinstance(p, Par):
            atoms, todo = [], [p]
            while todo:
                q = todo.pop()
                if isinstance(q, Par):
                    todo += [q.right, q.left]
                else:
                    atoms.append(self.process(q, env))
            self.rng.shuffle(atoms)
            return _tree(atoms, self.rng)
        if isinstance(p, Output):
            return Output(env.get(p.subject, p.subject),
                          _rename_value(p.payload, env))
        if isinstance(p, (Input, RepInput)):
            x = self.fresh(p.param)
            body = self.process(p.body, {**env, p.param: x})
            return type(p)(env.get(p.subject, p.subject), x, body)
        if isinstance(p, Res):
            chain = []
            while isinstance(p, Res):
                chain.append(p)
                p = p.body
            inner = dict(env)
            renamed = []
            for r in chain:
                a, b = self.fresh(r.in_name), self.fresh(r.out_name)
                inner[r.in_name], inner[r.out_name] = a, b
                renamed.append((a, b, r.in_type))
            body = self.process(p, inner)
            self.rng.shuffle(renamed)
            for a, b, t in renamed:
                body = Res(a, b, t, body)
            return body
        if isinstance(p, LetTuple):
            xs = tuple(self.fresh(x) for x in p.params)
            body = self.process(p.body, {**env, **dict(zip(p.params, xs))})
            return LetTuple(xs, _rename_value(p.scrutinee, env), body)
        if isinstance(p, Case):
            x, y = self.fresh(p.left_param), self.fresh(p.right_param)
            return Case(_rename_value(p.scrutinee, env),
                        x, self.process(p.left_body, {**env, p.left_param: x}),
                        y, self.process(p.right_body, {**env, p.right_param: y}))
        raise TypeError(f"not a process: {p!r}")

    def term(self, t, env=None):
        """Alpha-rename every lambda binder of a simply-typed term."""
        env = env or {}
        if isinstance(t, SVar):
            return SVar(env.get(t.name, t.name))
        if isinstance(t, SLam):
            self.index += 1
            x = f"{t.var}v{self.index}"
            return SLam(x, t.var_type, self.term(t.body, {**env, t.var: x}))
        return SApp(self.term(t.fn, env), self.term(t.arg, env))


def _rename_value(v, env):
    if isinstance(v, VName):
        return VName(env.get(v.name, v.name))
    if isinstance(v, VTuple):
        return VTuple(tuple(_rename_value(i, env) for i in v.items))
    if isinstance(v, VInl):
        return VInl(_rename_value(v.value, env))
    if isinstance(v, VInr):
        return VInr(_rename_value(v.value, env))
    return v


def _tree(atoms, rng):
    """A ``|`` tree over ``atoms``: left-nested, or of random shape."""
    atoms = list(atoms)
    if not atoms:
        return NIL
    while len(atoms) > 1:
        i = rng.randrange(len(atoms) - 1) if rng else 0
        atoms[i:i + 2] = [Par(atoms[i], atoms[i + 1])]
    return atoms[0]


# ---------------------------------------------------------------------------
# generated well-typed programs

O_UNIT = ChanType("o", UNIT)
GEN_ENV = {Name("a"): ChanType("i", UNIT), Name("b"): O_UNIT,
           Name("c"): ChanType("o", O_UNIT), Name("k"): O_UNIT}


class Generator:
    """Random processes that typecheck in :data:`GEN_ENV`.

    Affine names (input ends and linear ends) go to one side of a ``|``
    and a linear end is consumed by its use; a replicated body sees only
    copyable names.  Payloads are ``unit`` or ``o[unit]``.
    """

    def __init__(self, rng):
        self.rng = rng
        self.index = 0

    def fresh(self, base):
        self.index += 1
        return Name(base, self.index)

    def program(self, size):
        return self.gen(dict(GEN_ENV), size)

    def gen(self, ctx, budget):
        rng = self.rng
        if budget <= 1:
            return self.leaf(ctx)
        roll = rng.random()
        if roll < 0.15:
            return self.redex(ctx, budget)
        if roll < 0.28:
            return self.res(ctx, budget)
        if roll < 0.52:
            return self.par(ctx, budget)
        if roll < 0.90:
            ins = sorted((n for n, t in ctx.items() if isinstance(t, ChanType)
                          and t.mode in ("i", "li")), key=str)
            if ins:
                return self.input(ctx, budget, rng.choice(ins),
                                  replicated=roll >= 0.78)
        if roll < 0.95:
            x, y = self.fresh("x"), self.fresh("y")
            return LetTuple((x, y), VTuple((VUNIT, VUNIT)),
                            self.gen({**ctx, x: UNIT, y: UNIT}, budget - 1))
        x, y = self.fresh("x"), self.fresh("y")
        half = max(1, (budget - 1) // 2)
        return Case(VInl(VUNIT), x, self.gen({**ctx, x: UNIT}, half),
                    y, self.gen({**ctx, y: UNIT}, half))

    def value(self, ctx, t):
        if t == UNIT:
            return VUNIT
        names = sorted((n for n, u in ctx.items() if u == t), key=str)
        return VName(self.rng.choice(names)) if names else None

    def leaf(self, ctx):
        outs = sorted((n for n, t in ctx.items() if isinstance(t, ChanType)
                       and t.mode in ("o", "lo")), key=str)
        self.rng.shuffle(outs)
        for subj in outs:
            v = self.value(ctx, ctx[subj].payload)
            if v is not None:
                if ctx[subj].mode == "lo":
                    del ctx[subj]
                return Output(subj, v)
        return NIL

    def redex(self, ctx, budget):
        t = O_UNIT if self.rng.random() < 0.3 else UNIT
        v = self.value(ctx, t)
        if v is None:
            t, v = UNIT, VUNIT
        a, b, x = self.fresh("r"), self.fresh("s"), self.fresh("x")
        if self.rng.random() < 0.3:
            body = self.gen({**self.copyable(ctx), x: t}, budget - 3)
            recv = RepInput(a, x, body)
        else:
            recv = Input(a, x, self.gen({**ctx, x: t}, budget - 3))
        return Res(a, b, ChanType("i", t), Par(recv, Output(b, v)))

    def res(self, ctx, budget):
        payload = O_UNIT if self.rng.random() < 0.3 else UNIT
        mode = "li" if self.rng.random() < 0.2 else "i"
        a, b = self.fresh("n"), self.fresh("m")
        inner = {**ctx, a: ChanType(mode, payload),
                 b: ChanType("lo" if mode == "li" else "o", payload)}
        return Res(a, b, ChanType(mode, payload), self.gen(inner, budget - 1))

    def par(self, ctx, budget):
        left, right = {}, {}
        for n, t in ctx.items():
            if is_copyable(t):
                left[n] = right[n] = t
            elif self.rng.random() < 0.5:
                left[n] = t
            else:
                right[n] = t
        lb = self.rng.randint(1, max(1, budget - 2))
        return Par(self.gen(left, lb), self.gen(right, budget - 1 - lb))

    def input(self, ctx, budget, subj, replicated):
        t = ctx[subj]
        x = self.fresh("x")
        if replicated and t.mode == "i":
            return RepInput(subj, x,
                            self.gen({**self.copyable(ctx), x: t.payload},
                                     budget - 1))
        inner = dict(ctx)
        if t.mode == "li":
            del inner[subj]
        inner[x] = t.payload
        return Input(subj, x, self.gen(inner, budget - 1))

    @staticmethod
    def copyable(ctx):
        return {n: t for n, t in ctx.items() if is_copyable(t)}


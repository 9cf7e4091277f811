"""Bounded equivalence checkers.

Strong and weak bisimilarity, weak similarity, barbed bisimilarity on
closed processes, and the connection-set-indexed internal bisimilarity,
all decided as stratified games over the composite transition system.
Verdicts are three-valued: budget edges surface as ``inconclusive``
rather than as a silent guess, and every ``distinguished`` verdict
carries a trace that :func:`replay_witness` can re-validate.

Names introduced during a play (input parameters, exported ends) are
renamed to reserved ``%``-names indexed by the play depth, so the two
sides agree on labels without a nominal state-space construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .syntax import (
    ChanType, Name, Output, Par, Process, SUCCESS, SumType, TupleType,
    UnitType, VInl, VInr, VName, VTuple, VUNIT, canonicalize, free_names,
    print_process, print_value, rename_free, substitute, value_names,
)
from .typecheck import ANY, dual, typecheck
from .internal import internalize, is_internal
from .semantics import (
    BoundOut, Composite, In, Tau, canonical_barbs, closure, composite_step,
    delta_key, explore, reducts, reduction_closure, state, tau_steps,
)


class NotClosed(ValueError):
    """Barbed bisimilarity is defined on closed processes only."""


class NotInternal(ValueError):
    """Internal bisimilarity requires both processes in the fragment."""


class TypeMismatch(ValueError):
    """The comparands do not typecheck under the supplied environment."""


EQUIVALENT = "equivalent"
DISTINGUISHED = "distinguished"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class BisimConfig:
    depth: int = 6
    tau_budget: int = 300
    state_budget: int = 4000
    kind: str = "weak"

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be >= 0")


@dataclass(frozen=True)
class WitnessStep:
    side: str            # "left" | "right"
    label: str
    attacker_after: str  # canonical key of the attacking side's target
    defender_after: Optional[str]  # response followed, None on the last step
    delta: str


@dataclass
class Verdict:
    result: str
    witness: tuple = ()
    bounds: dict = field(default_factory=dict)
    truncated: bool = False

    @property
    def equivalent(self):
        return self.result == EQUIVALENT

    @property
    def distinguished(self):
        return self.result == DISTINGUISHED

    @property
    def inconclusive(self):
        return self.result == INCONCLUSIVE


def _label_key(mu) -> str:
    if isinstance(mu, BoundOut):
        pol = "i" if mu.exported_is_input else "o"
        return f"{mu.subject}!(new {mu.exported}/{pol})"
    return str(mu)


def _value_shapes(t):
    """Observer value skeletons at a payload type, one per sum choice.

    None means the type does not pin the shape down (wildcards), in which
    case the game falls back to an opaque parameter.
    """
    if isinstance(t, UnitType):
        return [("unit",)]
    if isinstance(t, ChanType):
        return [("chan", t)]
    if isinstance(t, TupleType):
        outs = [()]
        for comp in t.items:
            shapes = _value_shapes(comp)
            if shapes is None:
                return None
            outs = [prev + (s,) for prev in outs for s in shapes]
        return [("tuple", o) for o in outs]
    if isinstance(t, SumType):
        ls, rs = _value_shapes(t.left), _value_shapes(t.right)
        if ls is None or rs is None:
            return None
        return [("inl", s) for s in ls] + [("inr", s) for s in rs]
    return None


def _fill_shape(shape, d, counter, intro):
    tag = shape[0]
    if tag == "unit":
        return VUNIT
    if tag == "chan":
        n = Name(f"%v{d}", counter[0])
        counter[0] += 1
        intro.append((n, shape[1]))
        return VName(n)
    if tag == "tuple":
        return VTuple(tuple(_fill_shape(s, d, counter, intro)
                            for s in shape[1]))
    if tag == "inl":
        return VInl(_fill_shape(shape[1], d, counter, intro))
    return VInr(_fill_shape(shape[1], d, counter, intro))


def _ground_variants(payload, d):
    """Concrete inputs an observer can feed at a known payload type.

    Channel slots become reserved %v names, reported with their types;
    a sum contributes one variant per branch.  Without the instantiation
    a tuple-destructuring input would sit stuck on an opaque parameter
    and the game would equate processes vacuously.
    """
    shapes = _value_shapes(payload)
    if shapes is None:
        return None
    out = []
    for shape in shapes:
        counter = [0]
        intro = []
        val = _fill_shape(shape, d, counter, intro)
        out.append((val, tuple(intro)))
    return out


class _Game:
    """Shared stratified game engine.

    A pair is equivalent at depth 0; at depth n every attacker move must
    have a defender response whose continuation is equivalent at n-1.
    ``method`` selects the move/response discipline.
    """

    def __init__(self, method: str, cfg: BisimConfig, env=None):
        self.method = method
        self.cfg = cfg
        self.env = dict(env or {})
        self.memo = {}
        self.truncated = False
        self._moves = {}     # (state key, play depth) -> _std_moves result
        self._closures = {}  # state key -> tau closure

    # -- moves and closures of states --------------------------------------

    def _std_moves(self, comp: Composite, d: int):
        """Transitions of ``comp`` with introduced names canonicalized.

        Input parameters become %i#d, exported pair ends %e#d with companion
        %k#d, so moves taken at the same play depth by the two sides carry
        identical labels.  Returns (key, label, kind, target) tuples.
        """
        mk = (comp.key, d)
        out = self._moves.get(mk)
        if out is not None:
            return out
        out = []
        for mu, c2 in composite_step(comp):
            if isinstance(mu, In):
                c = Name("%i", d)
                tgt = state(rename_free(c2.process, {mu.param: c}), c2.delta)
                mu2 = In(mu.subject, c)
                out.append((_label_key(mu2), mu2, "in", tgt))
            elif isinstance(mu, BoundOut):
                e, k = Name("%e", d), Name("%k", d)
                ren = {mu.exported: e, mu.companion: k}
                p2 = rename_free(c2.process, ren)
                d2 = frozenset((ren.get(x, x), ren.get(y, y)) for x, y in c2.delta)
                mu2 = BoundOut(mu.subject, e, k, mu.in_type, mu.exported_is_input)
                out.append((_label_key(mu2), mu2, "bout", state(p2, d2)))
            elif isinstance(mu, Tau):
                out.append(("tau", mu, "tau", state(c2.process, c2.delta)))
            else:
                out.append((_label_key(mu), mu, "out",
                            state(c2.process, c2.delta)))
        out.sort(key=lambda t: t[0])
        self._moves[mk] = out
        return out

    def _closure(self, comp: Composite):
        """States tau-reachable from ``comp`` within the tau budget, and
        whether the budget cut the closure short."""
        hit = self._closures.get(comp.key)
        if hit is None:
            reach, trunc = closure(comp, tau_steps, self.cfg.tau_budget)
            hit = self._closures[comp.key] = (list(reach.values()), trunc)
        return hit

    def _weak_after(self, comp: Composite, key: str, d: int, value=None):
        """Targets of tau* . key . tau* from ``comp``; key "tau" allows the
        empty move.  A ``value`` instantiates the parameter of the matched
        input with the attack value, so destructors in the body can fire."""
        pre, trunc = self._closure(comp)
        if key == "tau":
            return pre, trunc
        found = {}
        for c1 in pre:
            for k2, mu, kind, c2 in self._std_moves(c1, d):
                if k2 != key:
                    continue
                if value is not None:
                    c2 = state(substitute(c2.process, {mu.param: value}),
                               c2.delta)
                post, t2 = self._closure(c2)
                trunc = trunc or t2
                for c3 in post:
                    found[c3.key] = c3
        return list(found.values()), trunc

    # -- move disciplines --------------------------------------------------

    def _attacks(self, comp: Composite, d: int, env=None, spent=frozenset()):
        """Attacker moves as (key, label, kind, target, value, intro).

        ``value`` is the concrete input fed by the observer when the
        subject's payload type determines its shape (None for the opaque
        fallback and for non-input moves); ``intro`` lists the fresh
        observer names inside it with their types.
        """
        moves = self._std_moves(comp, d)
        if self.method != "internal":
            return [(key, mu, kind, tgt, None, ())
                    for key, mu, kind, tgt in moves]
        kept = []
        dnames = {n for pair in comp.delta for n in pair}
        for key, mu, kind, tgt in moves:
            if kind == "bout":
                if mu.exported in free_names(tgt.process):
                    raise RuntimeError(
                        f"exported name {mu.exported} retained after {mu}; "
                        "strict duality violated")
                if mu.subject in dnames:
                    continue  # outputs toward the connection are unobserved
            if kind == "out" and mu.subject in dnames:
                continue
            if kind == "in":
                if mu.subject in spent:
                    # the environment's one output at the linear dual is
                    # used up
                    continue
                kept.extend(self._input_attacks(key, mu, tgt, d, env))
                continue
            kept.append((key, mu, kind, tgt, None, ()))
        return kept

    def _input_attacks(self, key, mu, tgt, d, env):
        t = (env or {}).get(mu.subject)
        variants = _ground_variants(t.payload, d) \
            if isinstance(t, ChanType) else None
        if variants is None:
            return [(key, mu, "in", tgt, None, ())]
        out = []
        for val, intro in variants:
            p2 = substitute(tgt.process, {mu.param: val})
            k2 = f"{mu.subject}({print_value(val)})"
            out.append((k2, mu, "in", state(p2, tgt.delta), val, intro))
        return out

    def _spend(self, mu, kind, env, spent):
        if self.method != "internal" or kind != "in":
            return spent
        t = (env or {}).get(mu.subject)
        if isinstance(t, ChanType) and t.mode == "li":
            return spent | {mu.subject}
        return spent

    def _responses(self, dfn: Composite, key, mu, kind, d, env, value=None):
        """Defender continuations: (defender state, env') pairs."""
        if self.method == "strong":
            outs = [(t, env) for k, m, kd, t in self._std_moves(dfn, d)
                    if k == key]
            return outs, False
        targets, trunc = self._weak_after(dfn, _label_key(mu), d, value)
        outs = [(t, env) for t in targets]
        if self.method != "internal" or kind != "in":
            return outs, trunc
        # internal-bisimilarity input clause: match the input directly, or
        # absorb the message at the companion side of the connection
        subject = mu.subject
        payload = VName(mu.param) if value is None else value
        stay, t2 = self._closure(dfn)
        trunc = trunc or t2
        companion = None
        for x, y in dfn.delta:
            if x == subject:
                companion = y
        dnames = {n for pair in dfn.delta for n in pair}
        if companion is not None:
            for q in stay:
                p2 = Par(q.process, self._particle(companion, payload, env))
                outs.append((state(p2, q.delta), env))
        elif subject not in dnames:
            comp_name = Name("%a", d)
            env2 = dict(env)
            t = env2.get(subject)
            env2[comp_name] = dual(t) if isinstance(t, ChanType) else ANY
            for q in stay:
                d2 = q.delta | {(subject, comp_name)}
                p2 = Par(q.process, self._particle(comp_name, payload, env2))
                outs.append((state(p2, d2), env2))
        return outs, trunc

    def _particle(self, at: Name, payload, env):
        """The absorbed message, wrapped into the internal fragment when
        it would otherwise export channels."""
        msg = Output(at, payload)
        if any(isinstance(env.get(n), ChanType)
               for n in value_names(payload)):
            return internalize(msg, env)
        return msg

    def _env_after(self, mu, kind, env, value=None, intro=()):
        if kind == "in":
            env = dict(env)
            if value is None:
                t = env.get(mu.subject)
                env[mu.param] = t.payload if isinstance(t, ChanType) else ANY
            else:
                env.update(dict(intro))
        elif kind == "bout":
            env = dict(env)
            ti = mu.in_type
            env[mu.exported] = ti if mu.exported_is_input else dual(ti)
            env[mu.companion] = dual(ti) if mu.exported_is_input else ti
        return env

    # -- the game ----------------------------------------------------------

    def run(self, a: Composite, b: Composite, n: int, d: int = 1, env=None,
            spent=frozenset()):
        """Returns (True | False | None, witness_steps)."""
        if env is None:
            env = self.env
        if n == 0:
            return True, ()
        if a.key == b.key:
            return True, ()  # identical states match each other move for move
        mk = (a.key, b.key, n, tuple(sorted((str(x), repr(t))
                                            for x, t in env.items())),
              frozenset(str(s) for s in spent))
        if mk in self.memo:
            return self.memo[mk]
        sides = (("left", a, b), ("right", b, a))
        if self.method == "sim":
            sides = sides[:1]
        verdict = True
        witness = ()
        for side, att, dfn in sides:
            for key, mu, kind, tgt, val, intro in self._attacks(
                    att, d, env, spent):
                env1 = self._env_after(mu, kind, env, val, intro)
                spent1 = self._spend(mu, kind, env, spent)
                responses, trunc = self._responses(dfn, key, mu, kind, d,
                                                   env1, val)
                responses.sort(key=lambda r: r[0].key != tgt.key)
                matched = False
                saw_open = trunc
                first_fail = None
                for resp, env2 in responses:
                    att2 = tgt.with_delta(resp.delta)
                    pair = (att2, resp) if side == "left" else (resp, att2)
                    sub, w = self.run(pair[0], pair[1], n - 1, d + 1, env2,
                                      spent1)
                    if sub is True:
                        matched = True
                        break
                    if sub is None:
                        saw_open = True
                    elif first_fail is None:
                        first_fail = (resp.key, w)
                if matched:
                    continue
                if saw_open:
                    verdict = None
                    self.truncated = True
                    continue
                step = WitnessStep(
                    side=side, label=key, attacker_after=tgt.key,
                    defender_after=first_fail[0] if first_fail else None,
                    delta=delta_key(tgt.delta))
                witness = (step,) + (first_fail[1] if first_fail else ())
                self.memo[mk] = (False, witness)
                return False, witness
        self.memo[mk] = (verdict, ())
        return verdict, ()


def _verdict(res, witness, cfg, method, truncated):
    bounds = {"method": method, "depth": cfg.depth,
              "tau_budget": cfg.tau_budget, "state_budget": cfg.state_budget}
    if res is True:
        return Verdict(EQUIVALENT, (), bounds, truncated)
    if res is False:
        return Verdict(DISTINGUISHED, tuple(witness), bounds, truncated)
    return Verdict(INCONCLUSIVE, (), bounds, True)


# ---------------------------------------------------------------------------
# partition refinement, used when both graphs are finite and label-stable


def _stable_graphs(p, q, delta, cfg):
    out = []
    for r in (p, q):
        if out and state(r, delta).gc().key == out[0].nodes[out[0].root].key:
            out.append(out[0])  # same start state: the same graph
            break
        g = explore(delta, r, depth_bound=cfg.state_budget,
                    state_bound=cfg.state_budget)
        if g.truncated:
            return None
        for src, mu, dst in g.edges:
            if isinstance(mu, (In, BoundOut)):
                return None  # introduced names make naive refinement unsound
        out.append(g)
    return out


def _refine(ga, gb):
    """Joint partition refinement; returns True iff the roots end up in the
    same block."""
    states = ([("a", i) for i in range(len(ga.nodes))]
              + [("b", j) for j in range(len(gb.nodes))])
    succ = {s: [] for s in states}
    for g, tag in ((ga, "a"), (gb, "b")):
        for src, mu, dst in g.edges:
            succ[(tag, src)].append((_label_key(mu), (tag, dst)))
    block = {s: 0 for s in states}
    while True:
        sig = {}
        for s in states:
            sig[s] = (block[s],
                      frozenset((l, block[t]) for l, t in succ[s]))
        ids = {}
        nxt = {}
        for s in states:
            nxt[s] = ids.setdefault(sig[s], len(ids))
        if nxt == block:
            break
        block = nxt
    return block[("a", ga.root)] == block[("b", gb.root)]


# ---------------------------------------------------------------------------
# public checkers


def strong_bisim(p: Process, q: Process, delta=frozenset(), cfg=None):
    cfg = cfg or BisimConfig(kind="strong")
    graphs = _stable_graphs(p, q, delta, cfg)
    if graphs is not None:
        ga, gb = graphs
        if _refine(ga, gb):
            bounds = {"method": "strong", "exact": True,
                      "states": len(ga.nodes) + len(gb.nodes)}
            return Verdict(EQUIVALENT, (), bounds, False)
        # fall through to the game so the verdict carries a witness
        cfg = BisimConfig(depth=len(ga.nodes) + len(gb.nodes) + 1,
                          tau_budget=cfg.tau_budget,
                          state_budget=cfg.state_budget, kind="strong")
    game = _Game("strong", cfg)
    res, w = game.run(state(p, delta), state(q, delta), cfg.depth)
    return _verdict(res, w, cfg, "strong", game.truncated)


def weak_bisim(p: Process, q: Process, delta=frozenset(), cfg=None):
    cfg = cfg or BisimConfig(kind="weak")
    game = _Game("weak", cfg)
    res, w = game.run(state(p, delta), state(q, delta), cfg.depth)
    return _verdict(res, w, cfg, "weak", game.truncated)


def weak_sim(p: Process, q: Process, cfg=None, delta=frozenset()):
    """Does q weakly simulate p: every move of p has a weak answer in q."""
    cfg = cfg or BisimConfig(kind="sim")
    game = _Game("sim", cfg)
    res, w = game.run(state(p, delta), state(q, delta), cfg.depth)
    return _verdict(res, w, cfg, "sim", game.truncated)


def _closed(p: Process) -> bool:
    return all(n.kind == SUCCESS for n in free_names(p))


def barbed_bisim(p: Process, q: Process, cfg=None):
    cfg = cfg or BisimConfig(kind="barbed")
    if not _closed(p) or not _closed(q):
        raise NotClosed("barbed bisimilarity needs closed processes")
    memo = {}
    truncated = [False]

    def game(a, b, n):
        if n == 0:
            return True, ()
        mk = (a.key, b.key, n)
        if mk in memo:
            return memo[mk]
        for side, x, y in (("left", a, b), ("right", b, a)):
            closure_y, wb = reduction_closure(y, cfg.tau_budget)
            truncated[0] = truncated[0] or wb.truncated
            missing = canonical_barbs(x.process) - wb
            if missing:
                if wb.truncated:
                    memo[mk] = (None, ())
                    return None, ()
                s = sorted(missing, key=str)[0]
                step = WitnessStep(side, f"{s}!()", x.key, None, "")
                memo[mk] = (False, (step,))
                return False, (step,)
            for x2 in reducts(x):
                matched = False
                open_branch = False
                fail = None
                for y2 in closure_y:
                    sub, w = game(x2, y2, n - 1) if side == "left" \
                        else game(y2, x2, n - 1)
                    if sub is True:
                        matched = True
                        break
                    if sub is None:
                        open_branch = True
                    elif fail is None:
                        fail = (y2.key, w)
                if matched:
                    continue
                if open_branch or wb.truncated:
                    memo[mk] = (None, ())
                    return None, ()
                step = WitnessStep(side, "tau", x2.key,
                                   fail[0] if fail else None, "")
                wit = (step,) + (fail[1] if fail else ())
                memo[mk] = (False, wit)
                return False, wit
        return True, ()

    res, w = game(canonicalize(p), canonicalize(q), cfg.depth)
    return _verdict(res, w, cfg, "barbed", truncated[0])


def internal_bisim_n(delta, p: Process, q: Process, n: int,
                     env=None, cfg=None):
    """Stratified internal bisimilarity at connection set ``delta``.

    Bound outputs whose subject belongs to the connection set impose no
    matching obligation; an input may be answered directly or absorbed by
    emitting the message at the subject's companion, extending the
    connection set with a fresh pair when the subject is unconnected.
    """
    cfg = cfg or BisimConfig(kind="internal")
    env = dict(env or {})
    delta = frozenset(delta)
    a, b = state(p, delta), state(q, delta)
    for side, proc in (("left", a.process), ("right", b.process)):
        if not is_internal(proc, env):
            raise NotInternal(f"{side} process is not in the internal "
                              f"fragment: {print_process(proc)}")
    if env:
        for side, proc in (("left", a.process), ("right", b.process)):
            v = typecheck(env, proc)
            if not v.ok:
                raise TypeMismatch(f"{side} process does not typecheck: "
                                   f"{v.errors[0]}")
    game = _Game("internal", cfg, env)
    res, w = game.run(a, b, n)
    bounds = {"method": "internal", "depth": n,
              "tau_budget": cfg.tau_budget, "state_budget": cfg.state_budget}
    if res is True:
        return Verdict(EQUIVALENT, (), bounds, game.truncated)
    if res is False:
        return Verdict(DISTINGUISHED, tuple(w), bounds, game.truncated)
    return Verdict(INCONCLUSIVE, (), bounds, True)


# ---------------------------------------------------------------------------
# witness replay


def replay_witness(p: Process, q: Process, verdict: Verdict,
                   delta=frozenset(), env=None) -> bool:
    """Re-validate a distinguishing trace against the original processes.

    Each step's attack must exist with the recorded label and target; the
    recorded defender response must be reproducible; the final attack must
    find the defender without any response.
    """
    if not verdict.distinguished or not verdict.witness:
        return False
    method = verdict.bounds.get("method", "weak")
    cfg = BisimConfig(
        depth=verdict.bounds.get("depth", 6),
        tau_budget=verdict.bounds.get("tau_budget", 300),
        state_budget=verdict.bounds.get("state_budget", 4000),
        kind=method)
    if method == "barbed":
        return _replay_barbed(p, q, verdict, cfg)
    game = _Game(method, cfg, env)
    a = state(p, delta)
    b = state(q, delta)
    envc = dict(env or {})
    spent = frozenset()
    d = 1
    for i, step in enumerate(verdict.witness):
        att, dfn = (a, b) if step.side == "left" else (b, a)
        move = None
        for key, mu, kind, tgt, val, intro in game._attacks(
                att, d, envc, spent):
            if key == step.label and tgt.key == step.attacker_after:
                move = (key, mu, kind, tgt, val, intro)
                break
        if move is None:
            return False
        key, mu, kind, tgt, val, intro = move
        spent = game._spend(mu, kind, envc, spent)
        envc = game._env_after(mu, kind, envc, val, intro)
        responses, trunc = game._responses(dfn, key, mu, kind, d, envc, val)
        if step.defender_after is None:
            if responses or trunc:
                return False
            return i == len(verdict.witness) - 1
        chosen = None
        for resp, env2 in responses:
            if resp.key == step.defender_after:
                chosen = (resp, env2)
                break
        if chosen is None:
            return False
        resp, envc = chosen
        att2 = tgt.with_delta(resp.delta)
        a, b = (att2, resp) if step.side == "left" else (resp, att2)
        d += 1
    # trace ended on a step that still had responses: not a valid witness
    return False


def _replay_barbed(p, q, verdict, cfg):
    a, b = canonicalize(p), canonicalize(q)
    for i, step in enumerate(verdict.witness):
        att, dfn = (a, b) if step.side == "left" else (b, a)
        if step.defender_after is None:
            if step.label == "tau":
                return False
            barb = step.label.split("!")[0]
            _, weak = reduction_closure(dfn, cfg.tau_budget)
            here = {str(n) for n in canonical_barbs(att.process)}
            there = {str(n) for n in weak}
            ok = barb in here and barb not in there
            return ok and i == len(verdict.witness) - 1
        if step.label != "tau":
            return False
        att2 = next((r for r in reducts(att) if r.key == step.attacker_after),
                    None)
        reach, _ = reduction_closure(dfn, cfg.tau_budget)
        resp = next((r for r in reach if r.key == step.defender_after), None)
        if att2 is None or resp is None:
            return False
        a, b = (att2, resp) if step.side == "left" else (resp, att2)
    return False

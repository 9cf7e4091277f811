"""Bounded equivalence checkers.

Strong and weak bisimilarity, weak similarity, barbed bisimilarity on
closed processes, and the connection-set-indexed internal bisimilarity,
all played as one stratified game, :class:`_Game`, whose method picks the
moves and the responses.  Barbed moves come from the reduction route
(:func:`semantics.reducts`), never from the LTS, and each success barb is
a move of its own.  Strong bisimilarity on two finite explored graphs is
decided exactly by partition refinement; the game, seeded with those
graphs, then only supplies a distinguished pair's witness.
Verdicts are three-valued: budget edges surface as ``inconclusive``
rather than as a silent guess, and every ``distinguished`` verdict
carries a trace that :func:`replay_witness` can re-validate.

Names introduced during a play (input parameters, exported ends) are
renamed to reserved ``%``-names indexed by the play depth, so the two
sides agree on labels without a nominal state-space construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .syntax import (
    CanonicalForm, ChanType, Name, Output, Par, Process, SUCCESS, SumType,
    TupleType, UnitType, VInl, VInr, VName, VTuple, VUNIT, free_names,
    print_process, print_value, rename_free, substitute, value_names,
)
from .typecheck import ANY, dual, typecheck
from .internal import internalize, is_internal
from .semantics import (
    TAU, BoundOut, Composite, FreeOut, In, Tau, canonical_barbs, closure,
    composite_step, delta_key, explore, reducts, state,
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
        self._steps = {}     # state key -> _step result
        self._moves = {}     # (state key, play depth) -> _std_moves result
        self._targets = {}   # (state key, index, depth | label) -> state
        self._closures = {}  # state key -> tau closure
        self._fed = {}       # (state key, index, value) -> _feed result
        self._absorbed = {}  # (state key, particle, delta) -> _absorb result

    # -- moves and closures of states --------------------------------------

    def _step(self, comp: Composite):
        """The transitions of ``comp``, computed once per game.

        The table is per game and keyed by the state key: every state the
        game steps was built by :func:`state` (or re-pointed at another
        connection set by ``with_delta``), so one key means one canonical
        process under one connection set, hence one list of transitions.
        Tau targets are built as states here, once, because closures need
        their keys; every other target stays raw until :meth:`_target` or
        :meth:`_feed` reads it.  The barbed method's transitions are the
        reducts of the normal-form route, as tau moves.
        """
        out = self._steps.get(comp.key)
        if out is None:
            if self.method == "barbed":
                canon = CanonicalForm(comp.process, comp.pkey)
                out = [(TAU, Composite(r.process, comp.delta, r.key))
                       for r in reducts(canon)]
            else:
                out = [(mu, state(c2.process, c2.delta)
                        if isinstance(mu, Tau) else c2)
                       for mu, c2 in composite_step(comp)]
            self._steps[comp.key] = out
        return out

    def _std_moves(self, comp: Composite, d: int):
        """Moves of ``comp`` as (key, label, kind, index) tuples sorted by
        key; ``index`` points into :meth:`_step`, and no target is built.

        Input parameters become %i#d, exported pair ends %e#d with companion
        %k#d, so moves taken at the same play depth by the two sides carry
        identical labels.  The table is per game and keyed by (state key,
        play depth), the two things a label depends on.
        """
        mk = (comp.key, d)
        out = self._moves.get(mk)
        if out is not None:
            return out
        out = []
        for i, (mu, _) in enumerate(self._step(comp)):
            if isinstance(mu, In):
                mu, kind = In(mu.subject, Name("%i", d)), "in"
            elif isinstance(mu, BoundOut):
                mu, kind = BoundOut(mu.subject, Name("%e", d), Name("%k", d),
                                    mu.in_type, mu.exported_is_input), "bout"
            else:
                kind = "tau" if isinstance(mu, Tau) else "out"
            out.append((_label_key(mu), mu, kind, i))
        out.sort(key=lambda t: t[0])
        self._moves[mk] = out
        return out

    def _target(self, comp: Composite, i: int, d: int):
        """The target of transition ``i`` of ``comp`` as a state.

        The table is per game.  ``i`` indexes :meth:`_step`'s list, fixed
        per state key, so (state key, i) names one raw target; an input or
        bound-output target also renames its introduced names to play depth
        ``d``'s %-names, as :meth:`_std_moves` does, and is keyed by (state
        key, i, d).  A free-output target is keyed by (state key, label):
        the output is a top-level atom of the canonical state, so equal
        labels give congruent targets, as :func:`explore` argues.  A target
        that is already a state with nothing to rename, as a tau target or
        a node of a seeded graph, is returned as it is.
        """
        mu, c2 = self._step(comp)[i]
        ren = {}
        if isinstance(mu, In):
            ren = {mu.param: Name("%i", d)}
        elif isinstance(mu, BoundOut):
            ren = {mu.exported: Name("%e", d), mu.companion: Name("%k", d)}
        elif c2.pkey is not None:
            return c2
        tk = (comp.key, i, d) if ren else (comp.key, mu)
        out = self._targets.get(tk)
        if out is None:
            out = self._targets[tk] = state(
                rename_free(c2.process, ren),
                frozenset((ren.get(x, x), ren.get(y, y)) for x, y in c2.delta))
        return out

    def _closure(self, comp: Composite):
        """States tau-reachable from ``comp`` within the tau budget, and
        whether the budget cut the closure short.

        The table is per game and keyed by the state key, like
        :meth:`_step`, whose tau targets it follows in transition order:
        reducts, for the barbed method.
        """
        hit = self._closures.get(comp.key)
        if hit is None:
            reach, trunc = closure(comp, self._tau_targets,
                                   self.cfg.tau_budget)
            hit = self._closures[comp.key] = (list(reach.values()), trunc)
        return hit

    def _tau_targets(self, comp: Composite):
        return [c2 for mu, c2 in self._step(comp) if isinstance(mu, Tau)]

    def _feed(self, comp: Composite, i: int, value):
        """The target of input transition ``i`` of ``comp`` with its
        parameter bound to ``value``.

        The table is per game and keyed by (state key, i, printed value),
        with no play depth: the value is substituted into the raw
        :meth:`_step` target at its own parameter, which gives the state
        that renaming the parameter to %i#d first gives, as substitution
        avoids capture.  One key means one raw target and one value.
        """
        fk = (comp.key, i, print_value(value))
        out = self._fed.get(fk)
        if out is None:
            mu, c2 = self._step(comp)[i]
            out = self._fed[fk] = state(
                substitute(c2.process, {mu.param: value}), c2.delta)
        return out

    def _weak_after(self, comp: Composite, key: str, d: int, value=None):
        """Targets of tau* . key . tau* from ``comp``; key "tau" allows the
        empty move.  A ``value`` instantiates the parameter of the matched
        input with the attack value, so destructors in the body can fire.
        Only the targets of matching moves are built."""
        pre, trunc = self._closure(comp)
        if key == "tau":
            return pre, trunc
        found = {}
        for c1 in pre:
            for k2, mu, kind, i in self._std_moves(c1, d):
                if k2 != key:
                    continue
                c2 = self._target(c1, i, d) if value is None \
                    else self._feed(c1, i, value)
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
        observer names inside it with their types.  Only the targets of
        the moves kept are built.  A barbed attacker also shows each of its
        success barbs, first and in name order, as a "barb" move that stays
        at ``comp``.
        """
        moves = self._std_moves(comp, d)
        kept = []
        if self.method == "barbed":
            for s in sorted(canonical_barbs(comp.process), key=str):
                mu = FreeOut(s, VUNIT)
                kept.append((_label_key(mu), mu, "barb", comp, None, ()))
        if self.method != "internal":
            return kept + [(key, mu, kind, self._target(comp, i, d), None, ())
                           for key, mu, kind, i in moves]
        dnames = {n for pair in comp.delta for n in pair}
        for key, mu, kind, i in moves:
            if kind == "bout":
                # checked on the raw target, under the name lts_step chose,
                # so that unobserved outputs need not be built
                raw_mu, raw = self._step(comp)[i]
                if raw_mu.exported in free_names(raw.process):
                    raise RuntimeError(
                        f"exported name {raw_mu.exported} retained after "
                        f"{raw_mu}; strict duality violated")
            if kind in ("out", "bout") and mu.subject in dnames:
                continue  # outputs toward the connection are unobserved
            if kind == "in":
                if mu.subject in spent:
                    # the environment's one output at the linear dual is
                    # used up
                    continue
                kept.extend(self._input_attacks(comp, key, mu, i, d, env))
                continue
            kept.append((key, mu, kind, self._target(comp, i, d), None, ()))
        return kept

    def _input_attacks(self, comp, key, mu, i, d, env):
        t = (env or {}).get(mu.subject)
        variants = _ground_variants(t.payload, d) \
            if isinstance(t, ChanType) else None
        if variants is None:
            return [(key, mu, "in", self._target(comp, i, d), None, ())]
        out = []
        for val, intro in variants:
            k2 = f"{mu.subject}({print_value(val)})"
            out.append((k2, mu, "in", self._feed(comp, i, val), val, intro))
        return out

    def _spend(self, mu, kind, env, spent):
        if self.method != "internal" or kind != "in":
            return spent
        t = (env or {}).get(mu.subject)
        if isinstance(t, ChanType) and t.mode == "li":
            return spent | {mu.subject}
        return spent

    def _responses(self, dfn: Composite, key, mu, kind, d, env, value=None):
        """Defender continuations: (defender state, env') pairs.  A barb
        is answered by the states of the defender's closure that show it,
        and nothing follows."""
        if kind == "barb":
            stay, trunc = self._closure(dfn)
            return [(q, env) for q in stay
                    if mu.subject in canonical_barbs(q.process)], trunc
        if self.method == "strong":
            outs = [(self._target(dfn, i, d), env)
                    for k, m, kd, i in self._std_moves(dfn, d) if k == key]
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
            at, pair = companion, frozenset()
        elif subject not in dnames:
            at = Name("%a", d)
            pair = frozenset({(subject, at)})
            env = dict(env)
            t = env.get(subject)
            env[at] = dual(t) if isinstance(t, ChanType) else ANY
        else:
            return outs, trunc
        particle = self._particle(at, payload, env)
        for q in stay:
            outs.append((self._absorb(q, particle, q.delta | pair), env))
        return outs, trunc

    def _absorb(self, q: Composite, particle, delta):
        """The defender state ``q`` with the absorbed message ``particle``
        beside it, under connection set ``delta``.

        The table is per game and keyed by (state key, printed particle,
        connection-set key).  The particle depends on the environment only
        through :func:`internalize`, and its printed form records that
        dependence, so one key means one process under one connection set.
        """
        ak = (q.key, print_process(particle), delta_key(delta))
        out = self._absorbed.get(ak)
        if out is None:
            out = self._absorbed[ak] = state(Par(q.process, particle), delta)
        return out

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
                if kind == "barb" and responses:
                    continue  # a shown barb ends the play
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
                return None  # the game renames introduced names per depth
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


def _seed(game: _Game, g, delta):
    """Enter the transitions of explored graph ``g`` into ``game``'s
    table and return its root, so that the game builds no state again.

    A graph :func:`_stable_graphs` accepts has no bound output, so no
    transition grows the connection set: every node lives under ``delta``,
    of which ``explore`` only dropped the pairs the node no longer touches.
    """
    nodes = [c.with_delta(delta) for c in g.nodes]
    steps = {c.key: [] for c in nodes}
    for src, mu, dst in g.edges:
        steps[nodes[src].key].append((mu, nodes[dst]))
    game._steps.update(steps)
    return nodes[g.root]


# ---------------------------------------------------------------------------
# public checkers


def strong_bisim(p: Process, q: Process, delta=frozenset(), cfg=None):
    """Strong bisimilarity.  When both processes have finite graphs whose
    labels introduce no names, partition refinement decides exactly; a
    distinguished pair's witness then comes from the game, played on those
    graphs one round deeper than they have states together."""
    cfg = cfg or BisimConfig()
    game = _Game("strong", cfg)
    graphs = _stable_graphs(p, q, delta, cfg)
    if graphs is None:
        a, b = state(p, delta), state(q, delta)
    else:
        ga, gb = graphs
        if _refine(ga, gb):
            bounds = {"method": "strong", "exact": True,
                      "states": len(ga.nodes) + len(gb.nodes)}
            return Verdict(EQUIVALENT, (), bounds, False)
        a, b = _seed(game, ga, delta), _seed(game, gb, delta)
        cfg = replace(cfg, depth=len(ga.nodes) + len(gb.nodes) + 1)
    res, w = game.run(a, b, cfg.depth)
    return _verdict(res, w, cfg, "strong", game.truncated)


def weak_bisim(p: Process, q: Process, delta=frozenset(), cfg=None):
    cfg = cfg or BisimConfig()
    game = _Game("weak", cfg)
    res, w = game.run(state(p, delta), state(q, delta), cfg.depth)
    return _verdict(res, w, cfg, "weak", game.truncated)


def weak_sim(p: Process, q: Process, cfg=None, delta=frozenset()):
    """Does q weakly simulate p: every move of p has a weak answer in q."""
    cfg = cfg or BisimConfig()
    game = _Game("sim", cfg)
    res, w = game.run(state(p, delta), state(q, delta), cfg.depth)
    return _verdict(res, w, cfg, "sim", game.truncated)


def _closed(p: Process) -> bool:
    return all(n.kind == SUCCESS for n in free_names(p))


def barbed_bisim(p: Process, q: Process, cfg=None):
    """Barbed bisimilarity of closed processes: reductions are answered by
    the defender's reduction closure, and every success barb must show
    somewhere in the defender's closure."""
    cfg = cfg or BisimConfig()
    if not _closed(p) or not _closed(q):
        raise NotClosed("barbed bisimilarity needs closed processes")
    game = _Game("barbed", cfg)
    res, w = game.run(state(p, frozenset()), state(q, frozenset()), cfg.depth)
    return _verdict(res, w, cfg, "barbed", game.truncated)


def internal_bisim_n(delta, p: Process, q: Process, n: int,
                     env=None, cfg=None):
    """Stratified internal bisimilarity at connection set ``delta``.

    Bound outputs whose subject belongs to the connection set impose no
    matching obligation; an input may be answered directly or absorbed by
    emitting the message at the subject's companion, extending the
    connection set with a fresh pair when the subject is unconnected.
    The game is played to depth ``n``, which replaces ``cfg.depth``; a
    negative ``n`` raises ``ValueError`` as ``BisimConfig`` does.
    """
    cfg = replace(cfg or BisimConfig(), depth=n)
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
    return _verdict(res, w, cfg, "internal", game.truncated)


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
    cfg = replace(BisimConfig(), **{
        k: verdict.bounds[k] for k in ("depth", "tau_budget", "state_budget")
        if k in verdict.bounds})
    game = _Game(verdict.bounds.get("method", "weak"), cfg, env)
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
        if kind == "barb" and responses:
            return False  # a shown barb ends the play, as in :meth:`run`
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


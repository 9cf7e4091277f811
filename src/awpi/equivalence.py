"""Bounded equivalence checkers.

Strong and weak bisimilarity, weak similarity, barbed bisimilarity on
closed processes, and the connection-set-indexed internal bisimilarity,
all played as one stratified game, :class:`_Game`, whose method picks the
moves and the responses, over one :class:`semantics.Fragments` table of
states and transitions; the internal game's states are settled, and
serve their requests first.  Barbed moves come from the reduction route
(:func:`semantics._reductions`, the moves :func:`semantics.weak_barbs`
walks), never from the LTS, and a success barb is no move but what a
state shows (:meth:`_Game._rounds`); the localised-pi correspondence in
``encodings`` plays over the reference LTS of ``api``.
Strong bisimilarity is decided exactly by partition refinement over one
walk of that table from both start states, when the walk is finite and
its labels introduce no names; the game, played over the same table,
then only supplies a distinguished pair's witness.
Verdicts are three-valued: budget edges surface as ``inconclusive``
rather than as a silent guess, and every ``distinguished`` verdict
carries a trace that :func:`replay_witness` can re-validate.

Inputs are ground: the observer supplies what an input receives, as in
the early semantics of the asynchronous pi-calculus (Amadio, Castellani
& Sangiorgi, "On bisimulations for the asynchronous pi-calculus", TCS
1998).  Moves match by keys that name no introduced name, and the
observer names what a played move introduces (an input's value, a bound
output's ends) with reserved ``%``-names of its play depth, so the two
sides agree on labels without a nominal state-space construction.  The
game's memo is keyed by position, up to those names, and a
``distinguished`` witness is read off it by one walk from the root.

The game builds a state only when its search reads it, as on-the-fly
checkers build the product of two systems (Fernandez & Mounier, "'On the
fly' verification of behavioural equivalences and preorders", CAV 1991):
an attack's target when its round is played, and the defender's answers
one at a time, in construction order, until one is proved.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Optional

from .syntax import (
    ChanType, Name, Output, Par, Process, SUCCESS, SumType, TupleType,
    UnitType, VInl, VInr, VName, VTuple, VUNIT, _node, free_names,
    print_process, print_value, substitute, substitute_value, value_names,
)
from .typecheck import ANY, dual, typecheck
from .internal import internalize, is_internal
from .semantics import (
    TAU, BoundOut, Composite, Fragments, FreeOut, In, Tau, _lts,
    _barb_walk, _reductions, canonical_barbs, closure, delta_key,
    delta_names, requests, settle,
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
    """Bounds of a check.  ``depth``: rounds of the game, the
    correspondence check's included.  ``tau_budget``: states of each weak
    closure.  ``state_budget``: distinct states of :func:`strong_bisim`'s
    one refinement walk; the game ignores it.
    """

    depth: int = 6
    tau_budget: int = 300
    state_budget: int = 4000

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be >= 0")


@_node
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
    if isinstance(mu, FreeOut):
        # success names marked, as subject or payload, as in state keys
        # (``syntax._shown``)
        marked = {n: VName(Name(f"${n.base}", n.index))
                  for n in value_names(mu.payload) if n.kind == SUCCESS}
        if marked:
            mu = FreeOut(mu.subject, substitute_value(mu.payload, marked))
        if mu.subject.kind == SUCCESS:
            return f"${mu}"
    return str(mu)


def _named(mu, d):
    """``mu`` with the names it introduces renamed to play depth ``d``'s:
    an input's parameter to ``%i#d``, a bound output's ends to ``%e#d``
    and ``%k#d``."""
    if isinstance(mu, In):
        return In(mu.subject, Name("%i", d))
    if isinstance(mu, BoundOut):
        return BoundOut(mu.subject, Name("%e", d), Name("%k", d),
                        mu.in_type, mu.exported_is_input)
    return mu


def _ground_variants(t, d, k=0):
    """Concrete inputs an observer can feed at payload type ``t``, one per
    sum choice, as (value, its channel slots' reserved names ``%v<d>#j``,
    j counting from ``k`` left to right, with their types).  None when a
    wildcard leaves the shape open: the game then falls back to an opaque
    parameter, on which a tuple-destructuring input would sit stuck and
    the game would equate processes vacuously."""
    if isinstance(t, UnitType):
        return [(VUNIT, ())]
    if isinstance(t, ChanType):
        n = Name(f"%v{d}", k)
        return [(VName(n), ((n, t),))]
    if isinstance(t, SumType):
        ls, rs = _ground_variants(t.left, d, k), _ground_variants(t.right, d, k)
        if ls is None or rs is None:
            return None
        return [(VInl(v), i) for v, i in ls] + [(VInr(v), i) for v, i in rs]
    if not isinstance(t, TupleType):
        return None
    outs = [((), ())]
    for comp in t.items:
        longer = []
        for vals, intro in outs:
            more = _ground_variants(comp, d, k + len(intro))
            if more is None:
                return None
            longer += [(vals + (v,), intro + i) for v, i in more]
        outs = longer
    return [(VTuple(vals), intro) for vals, intro in outs]


# a name introduced during a play, as it prints in a state key
_INTRODUCED = re.compile(r"%[a-z]+\d*(?:#\d+)?")


class _Round:
    """One round: ``side`` attacks with ``label`` to ``target``.

    Iterating it, once, yields the defender's answers as (defender state,
    env) pairs, each built as it is read; :meth:`position` gives the
    position an answer leads to.  ``truncated``, whether a budget cut the
    answers short, is known only once they have run out.
    """

    def __init__(self, side, label, target, spent, answers):
        self.side, self.label, self.target = side, label, target
        self.spent, self.truncated = spent, False
        self._answers = answers

    def __iter__(self):
        self.truncated = yield from self._answers

    def position(self, answer: Composite, env):
        att = self.target.with_delta(answer.delta)
        pair = (att, answer) if self.side == "left" else (answer, att)
        return pair + (env, self.spent)


def _unanswered(cut: bool):
    """No answer, cut short when ``cut``: a barb the defender lacks."""
    yield from ()
    return cut


def _internal_steps(space: Fragments, comp: Composite):
    """The internal game's transitions: the first :func:`requests` entry,
    in fragment-key order, then atom order, whose target has fewer
    requests, as the only tau; else :func:`_lts`.

    Sound as tau-prioritisation: following one confluent tau along a
    well-founded relation preserves branching, hence weak, bisimilarity
    (Groote & Sellink, "Confluence for process verification", TCS 1996;
    Groote & van de Pol, MFCS 2000).  A request and a ready destructor,
    which the space fires on building a fragment (:func:`settle`), are
    confluent: by property (1), which ``typecheck`` enforces (a game given
    no environment is not checked, and keeps the full LTS), the server
    alone receives on ``a`` and, replicated, stays for every other message;
    a destructor has no partner.  A firing removes a destructor and a
    request taken here lowers the count, so neither runs forever and hides
    the other moves.  ``b!(v)`` is unobserved: ``b`` is restricted or in
    delta, whose outputs the attacker does not play.  Delta grows only by
    fresh pairs, so a request keeps its partner, and a message absorbed at
    a server is one more request.  ``spent`` removes input attacks, no
    tau.  ``depth`` counts rounds of this reduced game: a distinction may
    take a round more or fewer.  Equal messages share one builder, built
    once, and congruent targets are one state, judged once."""
    reqs, judged = requests(comp.process, comp.delta), set()
    for build in dict.fromkeys(reqs):
        t = space.state(build(), comp.delta)
        if t.key in judged:
            continue
        judged.add(t.key)
        if len(requests(t.process, t.delta)) < len(reqs):
            return [(TAU, t)]
    return _lts(space, comp)


class _Game:
    """Shared stratified game engine.

    A pair is equivalent at depth 0; at depth n every attacker move must
    have a defender response whose continuation is equivalent at n-1.
    ``method`` selects the move/response discipline, and ``space`` the
    states and transitions (by default the LTS, or the reducts for the
    barbed method).  :meth:`_rounds` gives a position's rounds to the
    search, the witness walk and :meth:`replay`; the search is the local,
    on-the-fly game of Stirling ("Local model checking games", CONCUR
    1995).  Targets and answers are built when played: :meth:`_rounds`
    builds an attack's target when it reaches the attack, and a round's
    answers are built as they are read, so a refuted position builds no
    target past its first winning attack and a round none past its first
    proved answer.

    Every table lives and dies with one game.  The space, a
    :class:`semantics.Fragments` table, holds the transitions and the
    states, and leads back to no game; the game holds the
    memo and what depends on the method: ``_moves`` and ``_closures``,
    keyed by state key, one entry per state; and ``_targets``, the one
    table of built targets, fed or with named ends, keyed by how a target
    is reached from its source, so that a hit builds no raw target (see
    :meth:`_target`).  A cached closure reads the space, never the game,
    so no table of the game leads back to it.
    """

    def __init__(self, method: str, cfg: BisimConfig, env=None, space=None):
        if method not in ("strong", "weak", "sim", "barbed", "internal"):
            raise ValueError(f"no game plays the method {method!r}")
        self.method = method
        self.cfg = cfg
        self.env = dict(env or {})
        self.space = space or (
            Fragments(_internal_steps, settle) if method == "internal" and env
            else Fragments(_reductions if method == "barbed" else _lts))
        self.memo = {}
        self.truncated = False
        self._moves = {}     # state key -> _std_moves result
        self._targets = {}   # how a target is reached -> state
        self._closures = {}  # state key -> closure

    # -- moves and closures of states --------------------------------------

    def _std_moves(self, comp: Composite):
        """Moves of ``comp`` as (key, label, index) triples sorted by key,
        kept per game and keyed by the state key; ``label`` is the one
        ``space.step`` made, ``index`` points into its list, and no target
        is built.

        A key names no introduced name: it is :func:`_label_key` of the
        label renamed to play depth 0 (:func:`_named`), whose ``%i``,
        ``%e`` and ``%k`` no state holds, so the two sides' moves that
        introduce names match by key at every depth.  Keys sort as the
        keys of any depth ``d``, which print ``%i#d``, sort.
        """
        out = self._moves.get(comp.key)
        if out is None:
            out = self._moves[comp.key] = sorted(
                ((_label_key(_named(mu, 0)), mu, i)
                 for i, (mu, _) in enumerate(self.space.step(comp))),
                key=lambda t: t[0])
        return out

    def _target(self, comp: Composite, i: int, d: int, value=None):
        """The target of transition ``i`` of ``comp`` as a state: an
        input's parameter is bound to the fed ``value``, a bound output's
        ends are named ``%e#d`` and ``%k#d``.

        Such a target is kept in one table per game, keyed by how it is
        reached (``i`` indexes ``space.step``'s list, fixed per state key):
        (state key, i, printed value) for an input, with no play depth, as
        the value names its own depth; (state key, i, d) for a bound
        output.  A free output's target goes straight to the space, which
        keeps the fragments the output left alone.  A target that is
        already a state is returned as it is: one with a key, as a tau
        target has, or of a :class:`Composite` subclass, which keys itself
        when first read (``encodings._api_steps``).
        """
        mu, c2 = self.space.step(comp)[i]
        ren = {}
        if isinstance(mu, In):
            tk, sub = (comp.key, i, print_value(value)), {mu.param: value}
        elif isinstance(mu, BoundOut):
            ren = {mu.exported: Name("%e", d), mu.companion: Name("%k", d)}
            tk, sub = (comp.key, i, d), {x: VName(y) for x, y in ren.items()}
        elif c2.pkey is not None or type(c2) is not Composite:
            return c2
        else:
            return self.space.state(c2.process, c2.delta)
        out = self._targets.get(tk)
        if out is None:
            out = self._targets[tk] = self.space.state(
                substitute(c2.process, sub),
                frozenset((ren.get(x, x), ren.get(y, y)) for x, y in c2.delta))
        return out

    def _closure(self, comp: Composite):
        """The tau closure of ``comp`` within the tau budget, a lazy
        :func:`closure` kept per game and keyed by the state key.  It
        follows the space's tau targets in transition order."""
        walk = self._closures.get(comp.key)
        if walk is None:
            walk = self._closures[comp.key] = closure(
                comp, self.space.tau_targets, self.cfg.tau_budget)
        return walk

    def _weak_after(self, comp: Composite, key: str, d: int, env,
                    value=None):
        """Yields each target of tau* . key . tau* from ``comp``, with
        ``env``, as it is built, and returns whether the tau budget cut a
        closure short; ``key`` is a move key of :meth:`_std_moves`, and
        "tau" allows the empty move.  A matched move introduces what the
        attack did at depth ``d``: an input is fed ``value``, so
        destructors in the body can fire, and a bound output's ends are
        named ``%e#d`` and ``%k#d``.

        Targets come in construction order: the closure states of
        ``comp`` for "tau"; otherwise, for each closure state in order and
        each of its moves keyed ``key``, the closure of that move's
        target, without the states already yielded.  Only the targets of
        matching moves are built, and only as far as the caller reads."""
        pre = self._closure(comp)
        if key == "tau":
            for c1 in pre:
                yield c1, env
            return pre.truncated
        seen, trunc = set(), False
        for c1 in pre:
            for k2, _, i in self._std_moves(c1):
                if k2 != key:
                    continue
                post = self._closure(self._target(c1, i, d, value))
                for c3 in post:
                    if c3.key not in seen:
                        seen.add(c3.key)
                        yield c3, env
                trunc = trunc or post.truncated
        return trunc or pre.truncated

    # -- move disciplines --------------------------------------------------

    def _attacks(self, comp: Composite, d: int, env, spent=frozenset()):
        """Attacker moves at play depth ``d`` as (key, move key, label,
        index, value, intro): ``key`` is the label the witness shows,
        ``move key``, ``label`` and ``index`` are the move's
        :meth:`_std_moves` triple, and ``intro`` lists the names the move
        introduces at ``d`` with their types.

        The observer feeds every input ``value``: in the internal game,
        when the subject's payload type in ``env`` determines its shape,
        one concrete value per :func:`_ground_variants` choice, else the
        fresh name ``%i#d`` typed by that payload.  A bound output's ends
        are ``%e#d`` and ``%k#d``.  Barbs are no attacks (:meth:`_rounds`).
        """
        kept = []
        internal = self.method == "internal"
        dnames = delta_names(comp.delta)
        for key, mu, i in self._std_moves(comp):
            if isinstance(mu, In):
                if mu.subject in spent:
                    # the environment's one output at the linear dual is
                    # used up
                    continue
                t, x = env.get(mu.subject), Name("%i", d)
                typed = isinstance(t, ChanType)
                fed = internal and typed and _ground_variants(t.payload, d)
                for v, intro in fed or [
                        (VName(x), ((x, t.payload if typed else ANY),))]:
                    kept.append((f"{mu.subject}({print_value(v)})", key, mu,
                                 i, v, intro))
                continue
            if internal and not isinstance(mu, Tau):
                if isinstance(mu, BoundOut) and mu.exported in free_names(
                        self.space.step(comp)[i][1].process):
                    # checked on the raw target, under the name lts_step
                    # chose, so that unobserved outputs need not be built
                    raise RuntimeError(
                        f"exported name {mu.exported} retained after "
                        f"{mu}; strict duality violated")
                if mu.subject in dnames:
                    continue  # outputs toward the connection are unobserved
            intro = ()
            if isinstance(mu, BoundOut):
                ti, e, k = mu.in_type, Name("%e", d), Name("%k", d)
                intro = ((e, ti), (k, dual(ti))) if mu.exported_is_input \
                    else ((e, dual(ti)), (k, ti))
            kept.append((_label_key(_named(mu, d)), key, mu, i, None, intro))
        return kept

    def _responses(self, dfn: Composite, attack, d, env):
        """Yields the defender's answers to ``attack``, a move of
        :meth:`_attacks` at play depth ``d``, as (defender state, env)
        pairs, each built as it is read, and returns whether a budget cut
        them short; ``env`` already types what the attack introduced.

        They come in construction order: the moves with the attack's move
        key (the weak ones in :meth:`_weak_after`'s order), each
        introducing what the attack did, then, for an internal input, the
        absorptions of the fed value at each closure state in order."""
        _, key, mu, i, value, _ = attack
        if self.method == "strong":
            for k, _, j in self._std_moves(dfn):
                if k == key:
                    yield self._target(dfn, j, d, value), env
            return False
        trunc = yield from self._weak_after(dfn, key, d, env, value)
        if self.method != "internal" or not isinstance(mu, In):
            return trunc
        # internal-bisimilarity input clause: match the input directly, or
        # absorb the message at the companion side of the connection
        subject = mu.subject
        companion = None
        for x, y in dfn.delta:
            if x == subject:
                companion = y
        dnames = delta_names(dfn.delta)
        if companion is not None:
            at, pair = companion, frozenset()
        elif subject not in dnames:
            at = Name("%a", d)
            pair = frozenset({(subject, at)})
            env = dict(env)
            t = env.get(subject)
            env[at] = dual(t) if isinstance(t, ChanType) else ANY
        else:
            return trunc
        particle = self._particle(at, value, env)
        for q in self._closure(dfn):
            yield self.space.state(Par(q.process, particle),
                                   q.delta | pair), env
        return trunc

    def _particle(self, at: Name, payload, env):
        """The absorbed message, wrapped into the internal fragment when
        it would otherwise export channels."""
        msg = Output(at, payload)
        if any(isinstance(env.get(n), ChanType)
               for n in value_names(payload)):
            return internalize(msg, env)
        return msg

    # -- the game ----------------------------------------------------------

    def _rounds(self, a, b, env, spent, d, step=None):
        """The rounds of position (a, b, env, spent) at play depth ``d``,
        or only those of a witness ``step``'s attack.  A barbed side's
        first rounds stay at the attacker, with no answer, one for each of
        its barbs, in name order, that one :func:`semantics._barb_walk`
        does not find in the defender's closure.  An attack's target is
        built here, when its round is reached, so the targets of the
        attacks after a winning one are never built; for a ``step``, only
        attacks with its label are built.  A round's answers are built as
        it is read.

        They are not reordered.  Putting an answer equal to the target
        first would need every answer built, and gains nothing but order:
        such an answer leads to a position of two identical states, which
        :meth:`_solve` proves at once, so the order changes which answers
        are tried before it, never a position's value.  A refuted round
        has no such answer, so the witness walk's first answer is the same
        in either order."""
        sides = (("left", a, b), ("right", b, a))
        for side, att, dfn in sides[:1] if self.method == "sim" else sides:
            if self.method == "barbed" and (not step or step.side == side):
                wanted = canonical_barbs(att.process)
                shown, cut = _barb_walk(self._closure(dfn), wanted)
                for s in sorted(wanted - shown, key=str):
                    label = str(FreeOut(s, VUNIT))
                    if not step or (label, att.key) == (step.label,
                                                        step.attacker_after):
                        yield _Round(side, label, att, spent, _unanswered(cut))
            for attack in self._attacks(att, d, env, spent):
                key, _, mu, i, value, intro = attack
                if step and (side, key) != (step.side, step.label):
                    continue
                tgt = self._target(att, i, d, value)
                if step and tgt.key != step.attacker_after:
                    continue
                t = env.get(mu.subject) if isinstance(mu, In) else None
                linear = self.method == "internal" and \
                    isinstance(t, ChanType) and t.mode == "li"
                yield _Round(side, key, tgt,
                             spent | {mu.subject} if linear else spent,
                             self._responses(dfn, attack, d,
                                             env | dict(intro)))

    def _position(self, a, b, env, spent):
        """A position's memo key: the state keys with introduced names
        renamed in first-use order to ``%@0``, ``%@1``, ..., which no key
        prints, those names' types and the spent subjects.  Strata are
        closed under injective renaming of introduced names, and the
        interface environment is fixed per game."""
        live = {}

        def rename(m):
            return live.setdefault(m.group(), f"%@{len(live)}")

        keys = (_INTRODUCED.sub(rename, a.key), _INTRODUCED.sub(rename, b.key))
        types = frozenset((live[str(x)], t) for x, t in env.items()
                          if str(x) in live)
        return keys, types, frozenset(live.get(s, s) for s in map(str, spent)
                                      if s in live or s[0] != "%")

    def _solve(self, pos, n, d):
        """True, False or None (a budget cut it short): does the defender
        of ``pos`` at play depth ``d`` answer every attack for ``n`` rounds.
        A loop over a stack of :meth:`_play` generators; the memo maps a
        :meth:`_position` to [largest depth proved, smallest depth refuted,
        inconclusive depths], as strata are anti-monotone."""
        stack, sub = [], None
        while True:
            if pos is not None and (n == 0 or pos[0].key == pos[1].key):
                sub = True  # identical states match each other move for move
            elif pos is not None:
                key = self._position(*pos)
                proved, refuted, open_ = self.memo.setdefault(
                    key, [0, math.inf, set()])
                sub = True if n <= proved else False if n >= refuted else None
                if sub is None and n not in open_:
                    stack.append((key, n, d, self._play(pos, d)))
            if not stack:
                return sub
            key, n, d, play = stack[-1]
            try:
                pos, n, d = play.send(sub), n - 1, d + 1
            except StopIteration as stop:
                stack.pop()
                pos, sub, entry = None, stop.value, self.memo[key]
                if sub is True:
                    entry[0] = n
                elif sub is False:
                    entry[1] = min(entry[1], n)
                else:
                    entry[2].add(n)

    def _play(self, pos, d):
        """Yields the position of each answer, is sent its result, and
        returns the result of ``pos``.  A round stops at its first proved
        answer, so the answers after it are never built."""
        verdict = True
        for rnd in self._rounds(*pos, d):
            open_ = False
            for answer in rnd:
                sub = yield rnd.position(*answer)
                if sub is True:
                    break
                open_ = open_ or sub is None
            else:
                if not (open_ or rnd.truncated):
                    return False
                verdict, self.truncated = None, True
        return verdict

    def run(self, a: Composite, b: Composite, n: int):
        """True, False or None: the game from (a, b) to depth ``n``."""
        return self._solve((a, b, self.env, frozenset()), n, 1)

    def witness(self, a: Composite, b: Composite):
        """After :meth:`run` returned False, the attacker's winning play in
        its own %-names, read off the memo.  At each position, refuted at
        depth m at the least, it takes the first attack whose answers are
        complete and refuted at m - 1 (solving any refuted only under other
        names), and follows that attack's first answer."""
        steps, pos, d = [], (a, b, self.env, frozenset()), 1
        while pos is not None:
            n = self.memo[self._position(*pos)][1]
            for rnd in self._rounds(*pos, d):
                answers = list(rnd)
                if not rnd.truncated and all(
                        self._solve(rnd.position(*r), n - 1, d + 1) is False
                        for r in answers):
                    break
            else:
                raise RuntimeError("no attack refutes a refuted position")
            answer, pos = (answers[0][0].key, rnd.position(*answers[0])) \
                if answers else (None, None)
            steps.append(WitnessStep(rnd.side, rnd.label, rnd.target.key,
                                     answer, delta_key(rnd.target.delta)))
            d += 1
        return tuple(steps)

    def replay(self, a: Composite, b: Composite, witness) -> bool:
        """Does ``witness`` replay from (a, b)?  Each step's attack must
        exist with its label and target, and its answer among the answers;
        the last attack must have none, with no budget cutting them."""
        pos, d = (a, b, self.env, frozenset()), 1
        for i, step in enumerate(witness):
            rnd = next(self._rounds(*pos, d, step), None)
            if rnd is None:
                return False
            answers = list(rnd)
            if step.defender_after is None:
                return (not answers and not rnd.truncated
                        and i == len(witness) - 1)
            answer = next((r for r in answers
                           if r[0].key == step.defender_after), None)
            if answer is None:
                return False
            pos = rnd.position(*answer)
            d += 1
        # the trace ended on a step that still had answers
        return False


def _verdict(game: _Game, a: Composite, b: Composite, cfg: BisimConfig):
    res = game.run(a, b, cfg.depth)
    truncated = game.truncated  # as the search left it, before the walk
    bounds = {"method": game.method, "depth": cfg.depth,
              "tau_budget": cfg.tau_budget, "state_budget": cfg.state_budget}
    if res is None:
        return Verdict(INCONCLUSIVE, (), bounds, True)
    witness = () if res else game.witness(a, b)
    return Verdict(EQUIVALENT if res else DISTINGUISHED, witness, bounds,
                   truncated)


# ---------------------------------------------------------------------------
# partition refinement over one finite, label-stable walk from both starts


def _refine(space: Fragments, a: Composite, b: Composite, budget: int):
    """Joint partition refinement over the states reachable from ``a`` or
    ``b`` through ``space``, walked breadth first once, state keys naming
    one state each: (whether ``a`` and ``b`` end up in the same block, the
    distinct states walked), or None when the walk passes ``budget``
    distinct states or meets a label that introduces a name."""
    succ, todo = {a.key: set(), b.key: set()}, deque((a, b))
    while todo:
        s = todo.popleft()
        for mu, c in space.step(s):
            if isinstance(mu, (In, BoundOut)):
                return None  # the game names introduced names per depth
            t = space.state(c.process, c.delta)
            succ[s.key].add((_label_key(mu), t.key))
            if t.key not in succ:
                succ[t.key] = set()
                todo.append(t)
        if len(succ) > budget:
            return None
    block = dict.fromkeys(succ, 0)
    while True:
        ids = {}
        nxt = {s: ids.setdefault((block[s], frozenset(
            (l, block[t]) for l, t in out)), len(ids))
            for s, out in succ.items()}
        if nxt == block:
            break
        block = nxt
    return block[a.key] == block[b.key], len(succ)


# ---------------------------------------------------------------------------
# public checkers


def strong_bisim(p: Process, q: Process, delta=frozenset(), cfg=None):
    """Strong bisimilarity.  Congruent starts are equivalent at once, as
    in the game.  Otherwise, when the walk from both starts stays within
    ``cfg.state_budget`` distinct states and meets no label that
    introduces a name, partition refinement (:func:`_refine`) decides
    exactly; a distinguished pair's witness then comes from the game,
    played one round deeper than the walk has states.  The walk steps the
    game's table, so the game builds and steps no walked state again."""
    cfg = cfg or BisimConfig()
    game = _Game("strong", cfg)
    a, b = game.space.state(p, delta), game.space.state(q, delta)
    refined = (True, 1) if a.key == b.key else _refine(
        game.space, a, b, cfg.state_budget)
    if refined is not None:
        same, states = refined
        if same:
            bounds = {"method": "strong", "exact": True, "states": states}
            return Verdict(EQUIVALENT, (), bounds, False)
        cfg = replace(cfg, depth=states + 1)
    return _verdict(game, a, b, cfg)


def _check(game: _Game, p: Process, q: Process, delta):
    """:func:`_verdict` from start states built by the game's space."""
    a, b = game.space.state(p, delta), game.space.state(q, delta)
    return _verdict(game, a, b, game.cfg)


def weak_bisim(p: Process, q: Process, delta=frozenset(), cfg=None):
    return _check(_Game("weak", cfg or BisimConfig()), p, q, delta)


def weak_sim(p: Process, q: Process, delta=frozenset(), cfg=None):
    """Does q weakly simulate p: every move of p has a weak answer in q."""
    return _check(_Game("sim", cfg or BisimConfig()), p, q, delta)


def barbed_bisim(p: Process, q: Process, cfg=None):
    """Barbed bisimilarity of closed processes: reductions are answered by
    the defender's reduction closure, and every success barb must show
    somewhere in the defender's closure."""
    if any(n.kind != SUCCESS for n in free_names(p) | free_names(q)):
        raise NotClosed("barbed bisimilarity needs closed processes")
    return _check(_Game("barbed", cfg or BisimConfig()), p, q, frozenset())


def internal_bisim_n(delta, p: Process, q: Process, n: int,
                     env=None, cfg=None):
    """Stratified internal bisimilarity at connection set ``delta``.

    Bound outputs whose subject belongs to the connection set impose no
    matching obligation; an input may be answered directly or absorbed by
    emitting the message at the subject's companion, extending the
    connection set with a fresh pair when the subject is unconnected.
    The game is played to depth ``n``, which replaces ``cfg.depth``; a
    negative ``n`` raises ``ValueError`` as ``BisimConfig`` does.  With an
    ``env``, states are settled and serve requests first
    (:func:`_internal_steps`), and ``n`` counts rounds of that game.
    """
    cfg = replace(cfg or BisimConfig(), depth=n)
    env = dict(env or {})
    delta = frozenset(delta)
    game = _Game("internal", cfg, env)
    a, b = game.space.state(p, delta), game.space.state(q, delta)
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
    return _verdict(game, a, b, cfg)


# ---------------------------------------------------------------------------
# witness replay


def replay_witness(p: Process, q: Process, verdict: Verdict,
                   delta=frozenset(), env=None) -> bool:
    """Re-validate a game verdict's distinguishing trace against the
    original processes, on a fresh game with the verdict's method and
    bounds (:meth:`_Game.replay`)."""
    if not verdict.distinguished or not verdict.witness:
        return False
    cfg = replace(BisimConfig(), **{
        k: verdict.bounds[k] for k in ("depth", "tau_budget")
        if k in verdict.bounds})
    game = _Game(verdict.bounds.get("method", "weak"), cfg, env)
    return game.replay(game.space.state(p, delta),
                       game.space.state(q, delta), verdict.witness)

"""Operational semantics: reduction, barbs, the connection-set LTS,
composite processes, the one table of states and transitions each walk
keeps (:class:`Fragments`), one bounded closure walk, state-space
exploration, and the erasure into the ordinary asynchronous pi-calculus.

:func:`closure` is the one bounded tau/reduction walk, breadth first and
lazy: :func:`weak_barbs` runs it over the reductions of its table, and the
games in ``equivalence``, the localised-pi correspondence's among them,
run it over the tau transitions of their states to build weak moves.

Two independent routes to dynamics are kept deliberately separate:

* ``reduce`` works on structural-congruence normal forms and locates
  redexes syntactically (a restriction chain connecting an input atom to
  an output atom, or a destructor applied to a literal value);
* ``lts_step`` is a structural SOS over raw terms, parameterized by a
  connection set delta that licenses synchronization between an input
  name and an output name.

Their agreement on restricted processes is the harmony property checked
by the test suite; neither is defined in terms of the other.  The internal
game's two deterministic steps, :func:`settle` and :func:`requests`, reuse
``reduce``'s atom rules, ``_fire`` and ``_served``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, partial

from . import api
from .syntax import (
    Case, ChanType, Input, LetTuple, Name, Nil, NIL, Output, Par, Process,
    RepInput, Res, SUCCESS, VInl, VInr, VName, VTuple, VUNIT, Value, _chain,
    _fragments, _frees, _level, _node, _par, _par_list, _shallow,
    _split_chain, canonicalize, canonical_process, free_names, fresh_name,
    parse_name, print_value, rename_free, substitute, substitute_value,
    value_names,
)


# ---------------------------------------------------------------------------
# Labels
# ---------------------------------------------------------------------------

class Label:
    pass


@_node
class Tau(Label):
    def __str__(self):
        return "tau"


@_node
class In(Label):
    subject: Name
    param: Name  # bound in the label: ground transitions never instantiate it

    def __str__(self):
        return f"{self.subject}({self.param})"


@_node
class FreeOut(Label):
    subject: Name
    payload: Value

    def __str__(self):
        inner = "" if self.payload == VUNIT else print_value(self.payload)
        return f"{self.subject}!({inner})"


@_node
class BoundOut(Label):
    """Bound output: the exported name and its companion are both extruded.

    ``in_type`` is the annotation of the opened restriction so a Close can
    re-form it; ``exported_is_input`` records which member left as payload.
    """

    subject: Name
    exported: Name
    companion: Name
    in_type: ChanType
    exported_is_input: bool

    def __str__(self):
        return f"{self.subject}!(new {self.exported})"


TAU = Tau()


# ---------------------------------------------------------------------------
# Connection sets
# ---------------------------------------------------------------------------

def delta_names(delta) -> frozenset:
    return frozenset(n for pair in delta for n in pair)


def delta_key(delta) -> str:
    """``"a-b,c-d"``, sorted: the connection set's part of a state key."""
    return ",".join(sorted(f"{a}-{b}" for a, b in delta))


def parse_delta(text: str) -> frozenset:
    """Parse ``"a-b,c-d"`` into a set of (input name, output name) pairs,
    each name read by the process grammar's name rule."""
    if not text.strip():
        return frozenset()
    pairs = set()
    for part in text.split(","):
        left, sep, right = part.partition("-")
        if not sep:
            raise ValueError(f"bad connection {part!r}; expected in-out")
        pairs.add((parse_name(left), parse_name(right)))
    return frozenset(pairs)


# ---------------------------------------------------------------------------
# The delta-parameterized LTS
# ---------------------------------------------------------------------------

def _binds_any(mu: Label, names) -> bool:
    """Whether ``mu`` binds a name in ``names``, without building a set."""
    if isinstance(mu, In):
        return mu.param in names
    if isinstance(mu, BoundOut):
        return mu.exported in names or mu.companion in names
    return False


def _freshen_bound(mu: Label, target: Process, avoid):
    """Rename the label's bound names (and the target) away from ``avoid``,
    only if one of them is in it.  Only bound names are renamed: an input
    may bind its own subject, ``a(a).P``, whose label keeps subject ``a``."""
    if not _binds_any(mu, avoid):
        return mu, target
    bound = (mu.param,) if isinstance(mu, In) else (mu.exported, mu.companion)
    taken = set(avoid) | {mu.subject, *bound} | free_names(target)
    renames = {}
    for n in bound:
        if n in avoid:
            renames[n] = fresh_name(n, taken)
            taken.add(renames[n])
    if isinstance(mu, In):
        mu = In(mu.subject, renames[mu.param])
    else:
        mu = BoundOut(mu.subject, renames.get(mu.exported, mu.exported),
                      renames.get(mu.companion, mu.companion), mu.in_type,
                      mu.exported_is_input)
    return mu, rename_free(target, renames)


def lts_step(delta, p: Process):
    """All transitions of ``p`` under connection set ``delta``.

    Ground style: input parameters stay uninstantiated.  The caller is
    expected to have canonicalized ``p`` or its fragments, which may bind
    the same names: a pair hides what delta connects at its names.  One
    walk: a ``|`` node freshens bound labels against the names its right
    child keeps and those gathered along the spine, not re-walking a
    sibling once per step.  Raises ValueError on a process nested too
    deeply for the recursion limit, such as a long restriction chain.
    """
    return _shallow(_steps, delta, p)


def _steps(delta, p: Process):
    """The transitions of ``p``."""
    if isinstance(p, Par):
        # the left | spine in a loop, combined as the recursion would
        spine = []
        while isinstance(p, Par):
            spine.append(p)
            p = p.left
        # one set of the spine's names: kept on each inner | they cost n^2
        steps, names = _steps(delta, p), set(_frees(p))
        for node in reversed(spine):
            steps = _par_steps(delta, node, steps, names)
            names |= _frees(node.right)
        return steps
    out = []
    if isinstance(p, Res):
        pair = {p.in_name, p.out_name}
        # the pair hides what delta connects at its names
        inner = frozenset([(a, b) for a, b in delta if a not in pair
                           and b not in pair] + [(p.in_name, p.out_name)])
        for mu, q in _steps(inner, p.body):
            if isinstance(mu, Tau):
                out.append((TAU, Res(p.in_name, p.out_name, p.in_type, q)))
                continue
            if isinstance(mu, FreeOut) and mu.subject not in pair:
                pnames = value_names(mu.payload)
                if pnames & pair:
                    if isinstance(mu.payload, VName):
                        m = mu.payload.name
                        other = p.out_name if m == p.in_name else p.in_name
                        out.append((BoundOut(mu.subject, m, other, p.in_type,
                                             m == p.in_name), q))
                    # a composite value holding a restricted name cannot be
                    # extruded; the name stays private
                    continue
                out.append((mu, Res(p.in_name, p.out_name, p.in_type, q)))
                continue
            # a free output here has its subject in the pair
            if (isinstance(mu, FreeOut) or mu.subject in pair
                    or _binds_any(mu, pair)):
                continue
            out.append((mu, Res(p.in_name, p.out_name, p.in_type, q)))
        return out
    if isinstance(p, Input):
        out.append((In(p.subject, p.param), p.body))
    elif isinstance(p, RepInput):
        out.append((In(p.subject, p.param), Par(p.body, p)))
    elif isinstance(p, Output):
        out.append((FreeOut(p.subject, p.payload), NIL))
    elif isinstance(p, LetTuple):
        if isinstance(p.scrutinee, VTuple) and len(p.scrutinee.items) == len(p.params):
            body = substitute(p.body, dict(zip(p.params, p.scrutinee.items)))
            out.append((TAU, body))
    elif isinstance(p, Case):
        if isinstance(p.scrutinee, VInl):
            out.append((TAU, substitute(p.left_body,
                                        {p.left_param: p.scrutinee.value})))
        elif isinstance(p.scrutinee, VInr):
            out.append((TAU, substitute(p.right_body,
                                        {p.right_param: p.scrutinee.value})))
    elif not isinstance(p, Nil):
        raise TypeError(f"not a process: {p!r}")
    return out


def _par_steps(delta, p: Par, lsteps, lnames):
    """The transitions of ``p`` from those and the names of ``p.left``."""
    rsteps, rnames = _steps(delta, p.right), _frees(p.right)
    out = []
    for mu, l2 in lsteps:
        mu2, l3 = _freshen_bound(mu, l2, rnames)
        out.append((mu2, Par(l3, p.right)))
    for mu, r2 in rsteps:
        mu2, r3 = _freshen_bound(mu, r2, lnames)
        out.append((mu2, Par(p.left, r3)))
    for fromleft in (True, False):
        isteps = lsteps if fromleft else rsteps
        osteps = rsteps if fromleft else lsteps
        for mu_i, pi in isteps:
            if not isinstance(mu_i, In):
                continue
            for mu_o, qo in osteps:
                if isinstance(mu_o, FreeOut):
                    if (mu_i.subject, mu_o.subject) not in delta:
                        continue
                    inst = substitute(pi, {mu_i.param: mu_o.payload})
                    tgt = Par(inst, qo) if fromleft else Par(qo, inst)
                    out.append((TAU, tgt))
                elif isinstance(mu_o, BoundOut):
                    if (mu_i.subject, mu_o.subject) not in delta:
                        continue
                    # keep the extruded pair clear of the receiving side
                    mu_o2, qo2 = _freshen_bound(
                        mu_o, qo, _frees(pi) | {mu_i.param})
                    inst = substitute(pi, {mu_i.param: VName(mu_o2.exported)})
                    body = Par(inst, qo2) if fromleft else Par(qo2, inst)
                    if mu_o2.exported_is_input:
                        a, b = mu_o2.exported, mu_o2.companion
                    else:
                        a, b = mu_o2.companion, mu_o2.exported
                    out.append((TAU, Res(a, b, mu_o2.in_type, body)))
    return out



# ---------------------------------------------------------------------------
# Composite processes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Composite:
    """A process with its connection set.

    ``pkey`` is the fragment key of ``process``: the keys of its canonical
    fragments (:func:`canonicalize`'s certificates), sorted and joined by
    ``" | "``.  It is set when :class:`Fragments` built the composite
    (``process`` is then the ``|`` of those fragments in key order).
    ``key`` identifies the state modulo structural congruence as
    ``pkey@a-b,...``; a composite built without ``pkey`` finds its
    fragment key the first time ``key`` is read.  Neither is process
    text: print ``process`` to read a state.
    """

    process: Process
    delta: frozenset  # of (Name, Name)
    pkey: str | None = field(default=None, compare=False, repr=False)

    @cached_property
    def key(self) -> str:
        pkey = self.pkey or state(self.process, ()).pkey
        return f"{pkey}@{delta_key(self.delta)}"

    def with_delta(self, delta) -> "Composite":
        delta = frozenset(delta)
        if delta == self.delta:
            return self
        return Composite(self.process, delta, self.pkey)

    def gc(self) -> "Composite":
        """Drop connection pairs no longer touching the process."""
        fn = free_names(self.process)
        return self.with_delta((a, b) for a, b in self.delta
                               if a in fn or b in fn)


class Fragments:
    """One walk's table: the fragments it has met, the states built of
    them, and their transitions, each built when first read.

    A fragment is a pair-free top-level atom, or ``new(chain)(atoms)``
    whose atoms the chain's pairs connect, canonicalized alone, so
    siblings may bind the same ``_#k`` names.  A state's process is the
    ``|`` of its fragments in key order, and its ``pkey`` is their keys in
    that order (:class:`Composite`).  A target
    keeps the fragments its step left alone, which :meth:`state` finds by
    identity; it splits and canonicalizes, once per chain and multiset of
    atoms, each other top-level component, settled if ``settle`` is given.

    Processes are congruent exactly when their fragment multisets are
    equal (Engelfriet & Gelsema, TCS 1999).  Equal multisets make both
    congruent to one ``|`` of fragments, by scope extrusion and the monoid
    laws of ``|``.  Congruent processes have one canonical form, whose top
    level :func:`canonicalize` certifies component by component, each at
    binder depth 0 with no label bound, as it would certify it alone.  The
    table holds each node it keys, so no ``id`` is reused while it lives.

    :meth:`step` steps a state once per table, by ``successors(table,
    state)``: :func:`_lts`, :func:`_reductions`,
    ``equivalence._internal_steps`` (whose table also ``settle``s what it
    builds) or ``encodings._api_steps``.  Tau targets must be states, as
    closures read their keys.  A table holds no closure and nothing that
    leads back to a game, and its successors are module-level functions,
    so a game and its tables form no reference cycle, and each game is
    freed by reference counting when its check returns.
    """

    __slots__ = ("_successors", "_settle", "_keys", "_pieces", "_states",
                 "_steps")

    def __init__(self, successors=None, settle=None):
        self._successors, self._settle = successors, settle
        self._keys = {}    # id(fragment node) -> (node, key)
        self._pieces = {}  # (chain, atoms sorted by hash) -> fragments
        self._states = {}  # state key -> state
        self._steps = {}   # state key -> transitions

    def state(self, p: Process, delta) -> Composite:
        """The state of ``p`` under ``delta``, one object per key."""
        frags = []
        for x in _par_list(p):
            got = self._keys.get(id(x))
            frags += [got] if got else self._new(x)
        frags.sort(key=lambda f: f[1])
        delta = frozenset(delta)
        pkey = " | ".join([k for _, k in frags]) or "0"
        key = f"{pkey}@{delta_key(delta)}"
        out = self._states.get(key)
        if out is None:
            root = _par([f for f, _ in frags])
            _frees(root)  # the root keeps its fragments' names too
            out = self._states[key] = Composite(root, delta, pkey)
        return out

    def _new(self, x: Process) -> list:
        """The fragments of a top-level component that is no fragment,
        found once per restriction chain and multiset of atoms."""
        pairs, core = _split_chain(x)
        atoms = [a for a in _par_list(core) if not isinstance(a, Nil)]
        sk = (tuple(pairs), tuple(sorted(atoms, key=hash)))
        out = self._pieces.get(sk)
        if out is None:
            out = self._pieces[sk] = []
            for f in _fragments(self._settle(x) if self._settle else x):
                c = canonicalize(f)
                out.append((c.process, c.key))
                self._keys[id(c.process)] = out[-1]
        return out

    def step(self, comp: Composite):
        """The transitions of ``comp``, once per state key: one key is one
        state up to the table's identity (structural congruence and
        connection set, or alpha equivalence on the reference route)."""
        out = self._steps.get(comp.key)
        if out is None:
            out = self._steps[comp.key] = self._successors(self, comp)
        return out

    def tau_targets(self, comp: Composite):
        return [c2 for mu, c2 in self.step(comp) if isinstance(mu, Tau)]


def state(process: Process, delta) -> Composite:
    """The composite of ``process`` as the ``|`` of its canonical
    fragments, carrying the key that everything built from it reads; a
    walk keeps one :class:`Fragments` table instead of calling this."""
    return Fragments().state(process, delta)


def composite_step(comp: Composite):
    """Transitions of a composite: delta grows on O-name bound outputs."""
    out = []
    for mu, q in lts_step(comp.delta, comp.process):
        if isinstance(mu, BoundOut) and not mu.exported_is_input:
            delta2 = comp.delta | {(mu.companion, mu.exported)}
        else:
            delta2 = comp.delta
        out.append((mu, Composite(q, delta2)))
    return out


def _lts(table: Fragments, comp: Composite):
    """The connection-set LTS.  Tau targets are built as states, once per
    table; every other target stays raw until its reader builds it.  A
    typed internal game reads it only where no request is served first."""
    return [(mu, table.state(c2.process, c2.delta) if isinstance(mu, Tau)
             else c2) for mu, c2 in composite_step(comp)]


# ---------------------------------------------------------------------------
# Bounded closure
# ---------------------------------------------------------------------------

class closure:
    """Everything reachable from ``start`` through ``successors``, found
    as it is read.

    States are identified by their ``key`` (composites, canonical forms).
    Iterating yields them in breadth-first order, ``start`` first.  The
    walk expands a state only when a reader asks for more states than it
    has found, and only while it has found fewer than ``budget``.  What
    it has found stays, so a later reader, or one nested in the first,
    starts from there and no state is expanded twice.  ``truncated`` runs
    the walk to its end and says whether the budget cut it short.

    Lazy, because readers stop early: a game's defender at its first
    proved answer, a barb walk once it has seen every barb it could see.
    The image of a replicated server has an unbounded closure, so an
    eager walk from each of its states would run to the budget.

    Breadth first, because a process that keeps regenerating work, as a
    replicated server fed by its own requests, has an unbounded path of
    ever larger states: a depth-first walk follows that path until the
    budget fires and never reaches the states a few steps off it.
    """

    __slots__ = ("_successors", "_budget", "_keys", "_found", "_next",
                 "_cut")

    def __init__(self, start, successors, budget: int):
        self._successors, self._budget = successors, budget
        self._keys, self._found = {start.key}, [start]
        self._next = 0  # index in _found of the next state to expand
        self._cut = False

    def __iter__(self):
        found, i = self._found, 0
        while i < len(found) or self._expand():
            if i < len(found):
                yield found[i]
                i += 1

    def _expand(self) -> bool:
        """Expand the next state; False once the walk has ended."""
        found = self._found
        if self._next == len(found):
            return False
        if len(found) >= self._budget:
            self._cut = True
            return False
        for nxt in self._successors(found[self._next]):
            if nxt.key not in self._keys:
                self._keys.add(nxt.key)
                found.append(nxt)
        self._next += 1
        return True

    @property
    def truncated(self) -> bool:
        while self._expand():
            pass
        return self._cut


# ---------------------------------------------------------------------------
# Reduction (normal-form route, independent of the LTS)
# ---------------------------------------------------------------------------

def _fire(atom: Process):
    """What a ready destructor fires to: a ``let`` on a tuple literal of its
    arity, or a ``case`` on ``inl``/``inr``; None for any other atom."""
    if isinstance(atom, LetTuple):
        v = atom.scrutinee
        if isinstance(v, VTuple) and len(v.items) == len(atom.params):
            return substitute(atom.body, dict(zip(atom.params, v.items)))
    elif isinstance(atom, Case):
        v = atom.scrutinee
        if isinstance(v, VInl):
            return substitute(atom.left_body, {atom.left_param: v.value})
        if isinstance(v, VInr):
            return substitute(atom.right_body, {atom.right_param: v.value})
    return None


def _served(pairs, atoms, i: int, j: int) -> Process:
    """``new pairs (atoms)`` once input atom ``i`` has received message atom
    ``j``, the receiver staying if it is replicated."""
    recv, send = atoms[i], atoms[j]
    body = substitute(recv.body, {recv.param: send.payload})
    rest = [x for k, x in enumerate(atoms) if k not in (i, j)]
    keep = [recv] if isinstance(recv, RepInput) else []
    return _chain(pairs, _par([body] + keep + rest))


def _redexes(p: Process) -> list:
    """One-step reducts of ``p``, a canonical process or the ``|`` of
    canonical fragments, unbuilt, each fragment reducing on its own."""
    frags, out = _par_list(p), []
    for k, frag in enumerate(frags):
        pairs, core = _split_chain(frag)
        atoms = _par_list(core)
        made = [_served(pairs, atoms, i, j) for a, b, _ in pairs
                for i, recv in enumerate(atoms)
                if isinstance(recv, (Input, RepInput)) and recv.subject == a
                for j, send in enumerate(atoms)
                if j != i and isinstance(send, Output) and send.subject == b]
        made += [_chain(pairs, _par([fired] + atoms[:i] + atoms[i + 1:]))
                 for i, fired in enumerate(map(_fire, atoms))
                 if fired is not None]
        out += [_par(frags[:k] + [r] + frags[k + 1:]) for r in made]
    return out


def reduce(p: Process):
    """One-step reducts of ``p`` modulo structural congruence.

    Synchronization happens only across a restriction connecting the input
    end to the output end; destructors fire on literal values.  Results are
    canonical, deduplicated.
    """
    return {canonical_process(r) for r in _redexes(canonical_process(p))}


def _reductions(table: Fragments, comp: Composite):
    """The reducts of the normal-form route, fragment by fragment, as tau
    moves in key order, one per key."""
    out = {t.key: t for t in [table.state(r, comp.delta)
                              for r in _redexes(comp.process)]}
    return [(TAU, out[k]) for k in sorted(out)]


def settle(p: Process) -> Process:
    """``p`` with its ready destructors under ``|`` and ``new`` fired until
    none is left, or ``p`` itself if none is ready.  It ends: each firing
    removes a destructor, and substitution adds none."""
    pairs, core = _split_chain(p)
    atoms = _par_list(core)
    done = []
    for atom in atoms:
        fired = _fire(atom)
        done.append(atom if fired is None and not isinstance(atom, Res)
                    else settle(atom if fired is None else fired))
    if all(x is atom for x, atom in zip(done, atoms)):
        return p
    return _chain(pairs, _par(done))


def requests(p: Process, delta) -> list:
    """The requests of ``p``, a canonical process or the ``|`` of canonical
    fragments, under ``delta``, in fragment order, then atom order: each
    message ``b!(v)`` whose one pair ``(a, b)`` has a server ``!a(x).P``
    among the top-level atoms, as a ``build()`` of ``p`` once served (a
    reduct of ``reduce``).  A pair of a fragment's chain has its server in
    that fragment; a pair of ``delta`` may join two (:func:`_request`).
    Equal messages of one fragment at one server build congruent targets,
    so they share one builder: the list counts every request, and
    ``dict.fromkeys`` of it gives each target once."""
    outer, frags, levels, servers, wants = {}, _par_list(p), [], {}, []
    for a, b in delta:
        outer[b] = None if b in outer else a  # None: two input ends
    for i, frag in enumerate(frags):
        pairs, core = _split_chain(frag)
        levels.append((pairs, _par_list(core)))
        # a chain name -> the server key of its pair, None at an input end
        own = dict(x for a, b, _ in pairs for x in ((a, None), (b, (i, a))))
        for j, x in enumerate(levels[-1][1]):
            if isinstance(x, RepInput):
                servers[(i, x.subject) if x.subject in own else x.subject] = (
                    i, j)
            elif isinstance(x, Output):
                wants.append((own[x.subject] if x.subject in own
                               else outer.get(x.subject), i, j))
    builds = {}
    return [builds.setdefault((servers[w], i, levels[i][1][j]), partial(
                _request, frags, levels, *servers[w], i, j))
            for w, i, j in wants if w in servers]


def _request(frags, levels, k, s, i, j) -> Process:
    """``frags`` once message ``j`` of fragment ``i`` is served by server
    ``s`` of fragment ``k``, two fragments merged under one chain first."""
    if k != i:  # the server's atoms come first
        j += len(levels[k][1])
    pairs, atoms = _level(Par(frags[k], frags[i])) if k != i else levels[i]
    return _par([f for n, f in enumerate(frags) if n not in (i, k)]
                + [_served(pairs, atoms, s, j)])


# ---------------------------------------------------------------------------
# Barbs
# ---------------------------------------------------------------------------

class NameSet(frozenset):
    """Set of names; ``truncated`` marks an exhausted search budget."""

    truncated = False


def canonical_barbs(canon: Process) -> frozenset:
    """Success names with an unguarded output in a canonical process or
    in the ``|`` of canonical fragments, read fragment by fragment."""
    return frozenset(atom.subject for frag in _par_list(canon)
                     for atom in _par_list(_split_chain(frag)[1])
                     if isinstance(atom, Output)
                     and atom.subject.kind == SUCCESS)


def strong_barbs(p: Process) -> NameSet:
    """Success names with an unguarded output occurrence."""
    return NameSet(canonical_barbs(canonical_process(p)))


def weak_barbs(p: Process, budget: int = 2000) -> NameSet:
    """Union of strong barbs over reducts reachable within the budget
    (``truncated`` when the budget cut the search short).

    The walk is :func:`_barb_walk` over the tau moves of one
    :class:`Fragments` table of :func:`_reductions`, so breadth first, in
    the barbed game's state identity and order.
    """
    table = Fragments(_reductions)
    start = table.state(p, ())
    possible = {n for n in free_names(start.process) if n.kind == SUCCESS}
    seen, truncated = _barb_walk(table, start, budget, possible,
                                 lambda c: canonical_barbs(c.process))
    barbs = NameSet(seen)
    barbs.truncated = truncated
    return barbs


def _barb_walk(table: Fragments, start, budget: int, possible, barbs_of):
    """The barbs, by ``barbs_of`` a state, over the :func:`closure` of
    ``start`` through ``table``'s tau targets, and whether ``budget`` cut
    the walk short.

    ``possible`` holds the success names free in ``start``.  The walk
    stops once it has seen them all, with an answer that is not
    truncated.  That is exact: a tau step never adds a free name, so no
    state of the walk can show a barb outside that set.  With no free
    success name, it stops after its first state.
    """
    seen = set()
    walk = closure(start, table.tau_targets, budget)
    for c in walk:
        seen |= barbs_of(c)
        if seen == possible:
            return frozenset(seen), False
    return frozenset(seen), walk.truncated


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------

@dataclass
class LtsGraph:
    nodes: list  # of Composite (canonical process, gc'd delta)
    edges: list  # of (int, Label, int)
    root: int
    depth_truncated: bool
    state_truncated: bool

    @property
    def truncated(self) -> bool:
        return self.depth_truncated or self.state_truncated


def explore(delta, p: Process, depth_bound: int = 6,
            state_bound: int = 2000) -> LtsGraph:
    """Breadth-first LTS exploration over composite states, built and
    stepped by one :class:`Fragments` table of :func:`_lts` per call."""
    return _explore(Fragments(_lts), delta, p, depth_bound, state_bound)


def _explore(table: Fragments, delta, p: Process, depth_bound: int,
             state_bound: int) -> LtsGraph:
    """:func:`explore` through ``table``, which keeps every state built
    and every node's transitions (:meth:`Fragments.step`), so a game over
    the same table steps no node again.  A node is its state with the
    connection pairs it no longer touches dropped (:meth:`Composite.gc`).
    A node at the depth bound is not stepped through the table, which
    would build its tau targets as states: :func:`lts_step` only tells
    whether it has a transition."""
    root = table.state(p, delta).gc()
    nodes = [root]
    index = {root.key: 0}
    edges = []
    depth_trunc = False
    state_trunc = False
    frontier = deque([(0, 0)])
    while frontier:
        nid, depth = frontier.popleft()
        node = nodes[nid]
        if depth >= depth_bound:
            depth_trunc = depth_trunc or bool(lts_step(node.delta,
                                                       node.process))
            continue
        for mu, c in table.step(node):
            nxt = table.state(c.process, c.delta).gc()
            tid = index.get(nxt.key)
            if tid is None:
                if len(nodes) >= state_bound:
                    state_trunc = True
                    continue
                tid = len(nodes)
                index[nxt.key] = tid
                nodes.append(nxt)
                frontier.append((tid, depth + 1))
            edges.append((nid, mu, tid))
    return LtsGraph(nodes, edges, 0, depth_trunc, state_trunc)


# ---------------------------------------------------------------------------
# Erasure to the ordinary asynchronous pi-calculus
# ---------------------------------------------------------------------------

def _erase_value(v: Value, m):
    return substitute_value(v, {k: VName(w) for k, w in m.items()})


def erase_to_api(comp: Composite) -> api.Process:
    """Collapse every connected pair and restricted pair to its O-name.
    Raises ValueError on a process nested too deeply for the recursion
    limit."""
    m = {a: b for a, b in comp.delta}

    def go(p, m):
        if isinstance(p, Nil):
            return api.NIL
        if isinstance(p, Par):
            # walk the left | spine in a loop, keeping its left-nested shape
            rights = []
            while isinstance(p, Par):
                rights.append(p.right)
                p = p.left
            out = go(p, m)
            for r in reversed(rights):
                out = api.Par(out, go(r, m))
            return out
        if isinstance(p, Input):
            return api.Input(m.get(p.subject, p.subject), p.param, go(p.body, m))
        if isinstance(p, RepInput):
            return api.RepInput(m.get(p.subject, p.subject), p.param, go(p.body, m))
        if isinstance(p, Output):
            return api.Output(m.get(p.subject, p.subject), _erase_value(p.payload, m))
        if isinstance(p, Res):
            m2 = dict(m)
            m2[p.in_name] = p.out_name
            m2.pop(p.out_name, None)
            return api.Res(p.out_name, go(p.body, m2))
        if isinstance(p, LetTuple):
            return api.LetTuple(p.params, _erase_value(p.scrutinee, m), go(p.body, m))
        if isinstance(p, Case):
            return api.Case(_erase_value(p.scrutinee, m),
                            p.left_param, go(p.left_body, m),
                            p.right_param, go(p.right_body, m))
        raise TypeError(f"not a process: {p!r}")

    return _shallow(go, comp.process, m)


def erase_label(mu: Label, delta) -> "api.Label":
    m = {a: b for a, b in delta}
    if isinstance(mu, Tau):
        return api.TAU
    if isinstance(mu, In):
        return api.InLabel(m.get(mu.subject, mu.subject), mu.param)
    if isinstance(mu, FreeOut):
        return api.OutLabel(m.get(mu.subject, mu.subject),
                            _erase_value(mu.payload, m))
    if isinstance(mu, BoundOut):
        oname = mu.companion if mu.exported_is_input else mu.exported
        return api.BoundOutLabel(m.get(mu.subject, mu.subject), oname)
    raise TypeError(f"not a label: {mu!r}")

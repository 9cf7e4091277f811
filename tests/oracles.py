"""Independent reference implementations used only by the test suite.

Nothing here may import behavior from the modules it checks beyond the plain
AST constructors: the point is to compute expected answers by a different
route (naive algorithms, brute-force closures) and compare.
"""

from __future__ import annotations

import random
from collections import deque

from awpi.syntax import (
    Case, ChanType, Input, LetTuple, Name, Nil, NIL, Output, Par, Process,
    RepInput, Res, SUCCESS, UNIT, VInl, VInr, VName, VTuple, VUNIT, VUnit,
    ast_size, free_names, value_names,
)


def bound_names(p: Process):
    """The names bound anywhere in ``p``, by plain recursion."""
    if isinstance(p, (Nil, Output)):
        return frozenset()
    if isinstance(p, Par):
        return bound_names(p.left) | bound_names(p.right)
    if isinstance(p, (Input, RepInput)):
        return {p.param} | bound_names(p.body)
    if isinstance(p, Res):
        return {p.in_name, p.out_name} | bound_names(p.body)
    if isinstance(p, LetTuple):
        return set(p.params) | bound_names(p.body)
    if isinstance(p, Case):
        return ({p.left_param, p.right_param} | bound_names(p.left_body)
                | bound_names(p.right_body))
    raise TypeError(f"not a process: {p!r}")


# ---------------------------------------------------------------------------
# Alpha-invariant key (de Bruijn style printing), independent of canonicalize
# ---------------------------------------------------------------------------

def alpha_key(p: Process) -> str:
    return _akey(p, {}, [0])


def _akey_name(n, env):
    got = env.get(n)
    return got if got is not None else f"f:{n}"


def _akey_value(v, env):
    if isinstance(v, VName):
        return _akey_name(v.name, env)
    if isinstance(v, VUnit):
        return "()"
    if isinstance(v, VTuple):
        return "(" + ",".join(_akey_value(i, env) for i in v.items) + ")"
    if isinstance(v, VInl):
        return "l." + _akey_value(v.value, env)
    if isinstance(v, VInr):
        return "r." + _akey_value(v.value, env)
    raise TypeError(str(v))


def _akey(p, env, ctr):
    if isinstance(p, Nil):
        return "0"
    if isinstance(p, Par):
        return f"({_akey(p.left, env, ctr)}|{_akey(p.right, env, ctr)})"
    if isinstance(p, Output):
        return f"{_akey_name(p.subject, env)}!{_akey_value(p.payload, env)}"
    if isinstance(p, (Input, RepInput)):
        bang = "!" if isinstance(p, RepInput) else ""
        env2 = dict(env)
        ctr[0] += 1
        env2[p.param] = f"b{ctr[0]}"
        return f"{bang}{_akey_name(p.subject, env)}({env2[p.param]}).{_akey(p.body, env2, ctr)}"
    if isinstance(p, Res):
        env2 = dict(env)
        ctr[0] += 1
        env2[p.in_name] = f"b{ctr[0]}"
        ctr[0] += 1
        env2[p.out_name] = f"b{ctr[0]}"
        return (f"new({env2[p.in_name]}:{p.in_type},{env2[p.out_name]})"
                f"{_akey(p.body, env2, ctr)}")
    if isinstance(p, LetTuple):
        env2 = dict(env)
        ps = []
        for prm in p.params:
            ctr[0] += 1
            env2[prm] = f"b{ctr[0]}"
            ps.append(env2[prm])
        return (f"let({','.join(ps)})={_akey_value(p.scrutinee, env)}"
                f" in {_akey(p.body, env2, ctr)}")
    if isinstance(p, Case):
        envl = dict(env)
        ctr[0] += 1
        envl[p.left_param] = f"b{ctr[0]}"
        lk = _akey(p.left_body, envl, ctr)
        envr = dict(env)
        ctr[0] += 1
        envr[p.right_param] = f"b{ctr[0]}"
        rk = _akey(p.right_body, envr, ctr)
        return (f"case {_akey_value(p.scrutinee, env)}"
                f"{{l {envl[p.left_param]}.{lk};r {envr[p.right_param]}.{rk}}}")
    raise TypeError(str(p))


# ---------------------------------------------------------------------------
# Naive substitution oracle: freshen every binder globally, then replace
# free occurrences textually (no capture is possible after freshening).
# ---------------------------------------------------------------------------

def subst_oracle(p: Process, mapping) -> Process:
    avoid = set(free_names(p)) | set(mapping)
    for v in mapping.values():
        avoid |= value_names(v)
    ctr = [0]

    def freshen(q, ren):
        def take():
            ctr[0] += 1
            return Name("zz", ctr[0])

        if isinstance(q, Nil):
            return q
        if isinstance(q, Par):
            return Par(freshen(q.left, ren), freshen(q.right, ren))
        if isinstance(q, Output):
            return Output(ren.get(q.subject, q.subject), _ren_value(q.payload, ren))
        if isinstance(q, (Input, RepInput)):
            nx = take()
            ren2 = dict(ren)
            ren2[q.param] = nx
            return type(q)(ren.get(q.subject, q.subject), nx, freshen(q.body, ren2))
        if isinstance(q, Res):
            na, nb = take(), take()
            ren2 = dict(ren)
            ren2[q.in_name] = na
            ren2[q.out_name] = nb
            return Res(na, nb, q.in_type, freshen(q.body, ren2))
        if isinstance(q, LetTuple):
            ren2 = dict(ren)
            nps = []
            for prm in q.params:
                nn = take()
                ren2[prm] = nn
                nps.append(nn)
            return LetTuple(tuple(nps), _ren_value(q.scrutinee, ren), freshen(q.body, ren2))
        if isinstance(q, Case):
            nl, nr = take(), take()
            renl = dict(ren)
            renl[q.left_param] = nl
            renr = dict(ren)
            renr[q.right_param] = nr
            return Case(_ren_value(q.scrutinee, ren), nl, freshen(q.left_body, renl),
                        nr, freshen(q.right_body, renr))
        raise TypeError(str(q))

    def _ren_value(v, ren):
        if isinstance(v, VName):
            return VName(ren.get(v.name, v.name))
        if isinstance(v, VUnit):
            return v
        if isinstance(v, VTuple):
            return VTuple(tuple(_ren_value(i, ren) for i in v.items))
        if isinstance(v, VInl):
            return VInl(_ren_value(v.value, ren))
        if isinstance(v, VInr):
            return VInr(_ren_value(v.value, ren))
        raise TypeError(str(v))

    def naive(q):
        if isinstance(q, Nil):
            return q
        if isinstance(q, Par):
            return Par(naive(q.left), naive(q.right))
        if isinstance(q, Output):
            subj = q.subject
            if subj in mapping:
                subj = mapping[subj].name
            return Output(subj, naive_value(q.payload))
        if isinstance(q, (Input, RepInput)):
            subj = q.subject
            if subj in mapping:
                subj = mapping[subj].name
            return type(q)(subj, q.param, naive(q.body))
        if isinstance(q, Res):
            return Res(q.in_name, q.out_name, q.in_type, naive(q.body))
        if isinstance(q, LetTuple):
            return LetTuple(q.params, naive_value(q.scrutinee), naive(q.body))
        if isinstance(q, Case):
            return Case(naive_value(q.scrutinee), q.left_param, naive(q.left_body),
                        q.right_param, naive(q.right_body))
        raise TypeError(str(q))

    def naive_value(v):
        if isinstance(v, VName):
            return mapping.get(v.name, v)
        if isinstance(v, VUnit):
            return v
        if isinstance(v, VTuple):
            return VTuple(tuple(naive_value(i) for i in v.items))
        if isinstance(v, VInl):
            return VInl(naive_value(v.value))
        if isinstance(v, VInr):
            return VInr(naive_value(v.value))
        raise TypeError(str(v))

    return naive(freshen(p, {}))


# ---------------------------------------------------------------------------
# Brute-force structural-congruence closure over the six axioms
# ---------------------------------------------------------------------------

def _axiom_rewrites(p):
    """All single axiom applications at the root, both usable orientations."""
    out = []
    if isinstance(p, Par):
        # unit
        if isinstance(p.right, Nil):
            out.append(p.left)
        if isinstance(p.left, Nil):
            out.append(p.right)
        # commutativity
        out.append(Par(p.right, p.left))
        # associativity
        if isinstance(p.left, Par):
            out.append(Par(p.left.left, Par(p.left.right, p.right)))
        if isinstance(p.right, Par):
            out.append(Par(Par(p.left, p.right.left), p.right.right))
        # scope extrusion: P | new(a,b)Q -> new(a,b)(P|Q) when a,b not free in P
        if isinstance(p.right, Res):
            r = p.right
            if r.in_name not in free_names(p.left) and r.out_name not in free_names(p.left):
                out.append(Res(r.in_name, r.out_name, r.in_type, Par(p.left, r.body)))
        if isinstance(p.left, Res):
            r = p.left
            if r.in_name not in free_names(p.right) and r.out_name not in free_names(p.right):
                out.append(Res(r.in_name, r.out_name, r.in_type, Par(r.body, p.right)))
    # unit, growing direction
    out.append(Par(p, NIL))
    if isinstance(p, Res):
        # restriction of nil
        if isinstance(p.body, Nil):
            out.append(NIL)
        # swap
        if isinstance(p.body, Res):
            q = p.body
            out.append(Res(q.in_name, q.out_name, q.in_type,
                           Res(p.in_name, p.out_name, p.in_type, q.body)))
        # scope extrusion, shrinking direction
        if isinstance(p.body, Par):
            l, r = p.body.left, p.body.right
            if p.in_name not in free_names(l) and p.out_name not in free_names(l):
                out.append(Par(l, Res(p.in_name, p.out_name, p.in_type, r)))
            if p.in_name not in free_names(r) and p.out_name not in free_names(r):
                out.append(Par(Res(p.in_name, p.out_name, p.in_type, l), r))
    return out


def _one_step(p):
    """All processes one axiom application away from ``p`` (any position)."""
    results = list(_axiom_rewrites(p))
    if isinstance(p, Par):
        for l2 in _one_step(p.left):
            results.append(Par(l2, p.right))
        for r2 in _one_step(p.right):
            results.append(Par(p.left, r2))
    elif isinstance(p, (Input, RepInput)):
        for b2 in _one_step(p.body):
            results.append(type(p)(p.subject, p.param, b2))
    elif isinstance(p, Res):
        for b2 in _one_step(p.body):
            results.append(Res(p.in_name, p.out_name, p.in_type, b2))
    elif isinstance(p, LetTuple):
        for b2 in _one_step(p.body):
            results.append(LetTuple(p.params, p.scrutinee, b2))
    elif isinstance(p, Case):
        for b2 in _one_step(p.left_body):
            results.append(Case(p.scrutinee, p.left_param, b2, p.right_param, p.right_body))
        for b2 in _one_step(p.right_body):
            results.append(Case(p.scrutinee, p.left_param, p.left_body, p.right_param, b2))
    return results


def congruence_closure(p, size_cap=None, state_cap=200000):
    """Alpha-keys of all terms derivable from ``p`` by the six axioms."""
    if size_cap is None:
        size_cap = ast_size(p) + 3
    seen = {alpha_key(p)}
    frontier = deque([p])
    while frontier and len(seen) < state_cap:
        cur = frontier.popleft()
        for nxt in _one_step(cur):
            if ast_size(nxt) > size_cap:
                continue
            k = alpha_key(nxt)
            if k not in seen:
                seen.add(k)
                frontier.append(nxt)
    return seen


def group_all_congruent(members, state_cap=200000):
    """Check that every member is derivably congruent to the first.

    Returns the list of members that could NOT be verified.  Verified
    derivation states are pooled, so by transitivity each later member only
    needs a search that touches the pool.
    """
    members = sorted(members, key=ast_size)
    cap = ast_size(members[-1]) + 3
    pool = set(congruence_closure(members[0],
                                  size_cap=ast_size(members[0]) + 3,
                                  state_cap=state_cap))
    failures = []
    for q in members[1:]:
        k = alpha_key(q)
        if k in pool:
            continue
        # BFS from q, stopping as soon as it meets the pool
        seen = {k}
        frontier = deque([q])
        hit = False
        while frontier and not hit and len(seen) < state_cap:
            cur = frontier.popleft()
            for nxt in _one_step(cur):
                if ast_size(nxt) > cap:
                    continue
                nk = alpha_key(nxt)
                if nk in pool:
                    hit = True
                    break
                if nk not in seen:
                    seen.add(nk)
                    frontier.append(nxt)
        if hit:
            pool |= seen
        else:
            failures.append(q)
    return failures


def oracle_congruent(p, q, size_cap=None, state_cap=200000) -> bool:
    """Meet-in-the-middle test for derivability by the six axioms."""
    kp, kq = alpha_key(p), alpha_key(q)
    if kp == kq:
        return True
    if size_cap is None:
        size_cap = max(ast_size(p), ast_size(q)) + 3
    seen_p = {kp: True}
    seen_q = {kq: True}
    fp, fq = deque([p]), deque([q])
    while (fp or fq) and len(seen_p) + len(seen_q) < state_cap:
        for frontier, seen, other in ((fp, seen_p, seen_q), (fq, seen_q, seen_p)):
            if not frontier:
                continue
            cur = frontier.popleft()
            for nxt in _one_step(cur):
                if ast_size(nxt) > size_cap:
                    continue
                k = alpha_key(nxt)
                if k in other:
                    return True
                if k not in seen:
                    seen[k] = True
                    frontier.append(nxt)
    return False


# ---------------------------------------------------------------------------
# Term generators
# ---------------------------------------------------------------------------

IUNIT = ChanType("i", UNIT)


def enumerate_core(max_size, in_frees=("a",), out_frees=("b",)):
    """All core processes (no let/case) up to ``max_size``.

    The signature is deliberately tight: free input subjects ``in_frees``,
    free output subjects ``out_frees``, unit payloads, every restriction at
    type i[unit].  Binders take fixed names x1,x2,... / n1,m1,n2,m2,... so
    the enumeration is finite.
    """
    ins0 = tuple(Name(s) for s in in_frees)
    outs0 = tuple(Name(s) for s in out_frees)

    def gen(size, ins, outs, depth):
        if size <= 0:
            return
        if size == 1:
            yield NIL
            for o in outs:
                yield Output(o, VUNIT)
            # an input with least body also costs 2; nothing else fits in 1
        if size >= 2:
            x = Name("x", depth + 1)
            for subj in ins:
                for body in gen(size - 1, ins, outs + (), depth + 1):
                    yield Input(subj, x, body)
                for body in gen(size - 1, ins, outs, depth + 1):
                    yield RepInput(subj, x, body)
            a = Name("n", depth + 1)
            b = Name("m", depth + 1)
            for body in gen(size - 1, ins + (a,), outs + (b,), depth + 1):
                yield Res(a, b, IUNIT, body)
            for ls in range(1, size - 1):
                for left in gen(ls, ins, outs, depth):
                    for right in gen(size - 1 - ls, ins, outs, depth):
                        yield Par(left, right)

    for n in range(1, max_size + 1):
        yield from gen(n, ins0, outs0, 0)


def random_process(rng: random.Random, size: int, frees=None) -> Process:
    """A random (possibly ill-typed) process of roughly ``size`` constructors."""
    if frees is None:
        frees = [Name("a"), Name("b"), Name("c")]
    ctr = [0]

    def fresh(base):
        ctr[0] += 1
        return Name(base, ctr[0])

    def value(scope, depth=0):
        r = rng.random()
        if depth > 2 or r < 0.45:
            return VName(rng.choice(scope))
        if r < 0.6:
            return VUNIT
        if r < 0.75:
            return VTuple(tuple(value(scope, depth + 1)
                                for _ in range(rng.randint(2, 3))))
        if r < 0.875:
            return VInl(value(scope, depth + 1))
        return VInr(value(scope, depth + 1))

    def gen(budget, scope):
        if budget <= 1:
            if rng.random() < 0.4:
                return NIL
            return Output(rng.choice(scope), value(scope))
        kind = rng.choice(["par", "input", "rep", "res", "out", "let", "case", "nil"])
        if kind == "nil":
            return NIL
        if kind == "out":
            return Output(rng.choice(scope), value(scope))
        if kind == "par":
            ls = rng.randint(1, budget - 1)
            return Par(gen(ls, scope), gen(budget - 1 - ls, scope))
        if kind in ("input", "rep"):
            x = fresh("x")
            cls = RepInput if kind == "rep" else Input
            return cls(rng.choice(scope), x, gen(budget - 1, scope + [x]))
        if kind == "res":
            a, b = fresh("n"), fresh("m")
            t = rng.choice([ChanType("i", UNIT), ChanType("li", UNIT),
                            ChanType("i", ChanType("o", UNIT))])
            return Res(a, b, t, gen(budget - 1, scope + [a, b]))
        if kind == "let":
            xs = tuple(fresh("y") for _ in range(rng.randint(2, 3)))
            return LetTuple(xs, value(scope), gen(budget - 1, scope + list(xs)))
        x1, x2 = fresh("u"), fresh("w")
        half = max(1, (budget - 1) // 2)
        return Case(value(scope), x1, gen(half, scope + [x1]),
                    x2, gen(budget - 1 - half, scope + [x2]))

    return gen(size, list(frees))


# ---------------------------------------------------------------------------
# Strong bisimilarity on a finite graph by naive partition refinement
# ---------------------------------------------------------------------------

def bisimulation_classes(nodes, edges):
    """The coarsest strong bisimulation on a finite labelled graph, as a
    block number per node.

    ``edges`` are (source, label, target) triples over ``nodes``; labels
    compare by equality.  Every round splits each block by the set of
    (label, target block) pairs of its members, until no block splits.
    """
    succ = {s: [] for s in nodes}
    for src, label, dst in edges:
        succ[src].append((label, dst))
    block = {s: 0 for s in nodes}
    while True:
        ids = {}
        nxt = {s: ids.setdefault(
                   (block[s], frozenset((l, block[t]) for l, t in succ[s])),
                   len(ids))
               for s in nodes}
        if len(ids) == len(set(block.values())):
            return block  # refinement only splits: same count, same blocks
        block = nxt


# ---------------------------------------------------------------------------
# Weak barbs by a plain breadth-first walk over a given reduction step
# ---------------------------------------------------------------------------

def _unguarded_success_outputs(p: Process):
    """Success names with an output under ``|`` and ``new`` only."""
    if isinstance(p, Par):
        return (_unguarded_success_outputs(p.left)
                | _unguarded_success_outputs(p.right))
    if isinstance(p, Res):
        return _unguarded_success_outputs(p.body)
    if isinstance(p, Output) and p.subject.kind == SUCCESS:
        return {p.subject}
    return set()


def weak_barbs_walk(p: Process, budget: int, step, key):
    """The success barbs of the states reachable from ``p`` and whether the
    budget cut the walk short, as (set of names, bool).

    States are found breadth first, the successors of each, ``step(q)``,
    taken in ``key`` order and kept once per key.  The walk expands a state
    only while it has found fewer than ``budget``; it is cut when it stops
    there with a state left unexpanded.  The barbs are read state by state
    in the order found, and a walk that has shown every success name free
    in ``p`` answers with those, not cut.
    """
    found, keys, expanded = [p], {key(p)}, 0
    while expanded < len(found) and len(found) < budget:
        for q in sorted(step(found[expanded]), key=key):
            if key(q) not in keys:
                keys.add(key(q))
                found.append(q)
        expanded += 1
    possible = {n for n in free_names(p) if n.kind == SUCCESS}
    seen = set()
    for q in found:
        seen |= _unguarded_success_outputs(q)
        if seen == possible:
            return seen, False
    return seen, expanded < len(found)

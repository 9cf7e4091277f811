import pytest

from awpi.syntax import (
    ChanType, Name, UNIT, VName, VTuple, VUNIT, canonical_process,
    canonicalize, free_names, parse_file, parse_process, print_process,
    print_value, rename_free,
)
from awpi.syntax import NIL, Res, _fragments
from awpi.syntax import Input as SInput, Output as SOutput, Par as SPar
from awpi.typecheck import typecheck
from awpi import api
from awpi import semantics as S
from awpi.semantics import (
    BoundOut, Composite, Fragments, FreeOut, In, Tau, TAU, composite_step,
    erase_label, closure, erase_to_api, explore, lts_step, reduce, requests,
    settle, strong_barbs, weak_barbs,
)
from awpi.encodings import (
    _api_steps, _api_weak_barbs, encode_alpi, parse_alpi,
)

from gen_typed import random_typed
from oracles import enumerate_core, weak_barbs_walk


def proc(src, success=()):
    return parse_process(src, success=success)


def keys(processes):
    return {canonicalize(p).key for p in processes}


def tau_targets(p, delta=frozenset()):
    p = canonical_process(p)
    return {canonicalize(q).key for mu, q in lts_step(delta, p)
            if isinstance(mu, Tau)}


CHOICE_SRC = """
success ok;
success err;
new(a: i[o[unit]], a') new(b: i[unit], b') new(c: i[unit], c') (
  a(x).x!() | a'!(b') | a'!(c') | b(u).ok!() | c(v).err!()
)
"""


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def test_reduce_basic_sync():
    r = reduce(proc("new(a: i[unit], b) ( a(x).0 | b!() )"))
    assert keys(r) == keys([proc("0")])


def test_reduce_requires_a_restriction():
    assert reduce(proc("a(x).0 | b!()")) == set()


def test_reduce_substitutes_payload():
    r = reduce(proc("new(a: i[o[unit]], b) ( a(x).x!() | b!(c) )"))
    assert keys(r) == keys([proc("c!()")])


def test_reduce_replication_keeps_replica():
    r = reduce(proc("new(a: i[unit], b) ( !a(x).c!() | b!() | b!() )"))
    assert len(r) == 1
    got = print_process(next(iter(r)))
    assert got == "new(_: i[unit], _#1) (!_(_#2).c!() | _#1!() | c!())"


def test_reduce_let_tuple():
    r = reduce(proc("let (x, y) = (u, v) in w!((x, y))"))
    assert keys(r) == keys([proc("w!(u, v)")])


def test_reduce_case_inl():
    r = reduce(proc("case inl u { inl x -> w!(x); inr y -> 0 }"))
    assert keys(r) == keys([proc("w!(u)")])


def test_reduce_case_inr():
    r = reduce(proc("case inr () { inl x -> w!(x); inr y -> v!() }"))
    assert keys(r) == keys([proc("v!()")])


def test_reduce_is_closed_under_congruence():
    p = proc("new(a: i[unit], b) ( a(x).0 | b!() ) | 0")
    q = proc("0 | new(a: i[unit], b) ( b!() | a(x).0 )")
    assert keys(reduce(p)) == keys(reduce(q))


def test_reduce_branching():
    p = proc("new(a: i[unit], b) ( a(x).c!() | a' | b!() )"
             .replace("a'", "new(a2: i[unit], b2) (a2(y).d!() | b2!())"))
    assert len(reduce(p)) == 2


def test_reduce_results_are_canonical():
    for q in reduce(proc("new(a: i[unit], b) ( a(x).(0 | 0) | b!() )")):
        assert q == canonical_process(q)


def test_settle_fires_ready_destructors_under_par_and_new():
    p = proc("k!() | let (u, v) = ((), ()) in case inl () { inl x -> "
             "new(a: i[unit], b)( let (w, z) = (x, ()) in k!(w) | b!() ) ; "
             "inr y -> c!(y) }")
    assert print_process(settle(p)) == \
        "k!() | new(a: i[unit], b) (k!() | b!())"
    # what a firing leaves is a reduct, and none is left to fire
    assert reduce(settle(p)) == set()


@pytest.mark.parametrize("src", [
    "k!()", "a(x).let (u, v) = ((), ()) in k!()",
    "let (u, v) = x in k!()", "let (u, v) = ((), (), ()) in k!()",
    "case x { inl y -> k!() ; inr z -> 0 }",
    "new(a: i[unit], b)( b!() | !a(x).k!() )",
])
def test_settle_returns_a_process_with_no_ready_destructor(src):
    p = proc(src)
    assert settle(p) is p


def test_requests_are_served_in_atom_order():
    # two messages to a server on a restricted pair and one to a server on
    # a connected pair; the message to a one-shot input is no request
    c = canonicalize(proc("new(s: i[unit], t)( t!() | !s(x).k!() | t!() ) "
                          "| !a(y).m!(y) | b!() | c(z).0 | d!()"))
    delta = frozenset({(Name("a"), Name("b")), (Name("c"), Name("d"))})
    served = [canonical_process(build())
              for build in requests(c.process, delta)]
    chain = "new(_: i[unit], _#1) (!_(_#2).k!() | _#1!() | "
    at_t = chain + "!a(_#3).m!(_#3) | b!() | c(_#4).0 | d!() | k!())"
    at_b = chain + "_#1!() | !a(_#3).m!(_#3) | c(_#4).0 | d!() | m!())"
    assert [print_process(q) for q in served] == [at_t, at_t, at_b]
    # serving on the restricted pair is the one reduction reduce finds
    assert reduce(c.process) == {served[0]}
    # outside the connection set, b!() is no request
    assert [canonical_process(build())
            for build in requests(c.process, frozenset())] == served[:2]
    # nor when c(z).0 may receive it too
    two = delta | {(Name("c"), Name("b"))}
    assert [canonical_process(build())
            for build in requests(c.process, two)] == served[:2]


def test_internal_choice_reaches_two_outcomes():
    p = parse_file(CHOICE_SRC).process
    seen = set()
    stack = [p]
    terminals = []
    while stack:
        cur = stack.pop()
        k = canonicalize(cur).key
        if k in seen:
            continue
        seen.add(k)
        rs = reduce(cur)
        if not rs:
            terminals.append(cur)
        stack.extend(rs)
    outcomes = sorted(tuple(sorted(str(n) for n in strong_barbs(t)))
                      for t in terminals)
    assert outcomes == [("err",), ("ok",)]


# ---------------------------------------------------------------------------
# barbs
# ---------------------------------------------------------------------------

def test_strong_barbs_only_unguarded_success():
    f = parse_file("""
    success ok;
    success err;
    new(a: i[unit], b) ( ok!() | a(x).err!() )
    """)
    assert {str(n) for n in strong_barbs(f.process)} == {"ok"}


def test_weak_barbs_after_sync():
    f = parse_file("""
    success ok;
    new(a: i[unit], b) ( a(x).ok!() | b!() )
    """)
    assert strong_barbs(f.process) == frozenset()
    wb = weak_barbs(f.process)
    assert {str(n) for n in wb} == {"ok"}
    assert not wb.truncated


def test_weak_barbs_of_internal_choice():
    p = parse_file(CHOICE_SRC).process
    wb = weak_barbs(p)
    assert {str(n) for n in wb} == {"err", "ok"}


def test_weak_barbs_budget_truncation():
    # the requests regenerate without end, and the guarded ok never fires
    p = proc("new(a: i[unit], b) (!a(x).(b!() | b!()) | b!()) "
             "| new(c: i[unit], d) c(y).ok!()", success=("ok",))
    wb = weak_barbs(p, budget=6)
    assert wb.truncated
    assert wb == frozenset()


def test_weak_barbs_without_success_names_is_exact():
    p = proc("new(a: i[unit], b) (!a(x).(b!() | b!()) | b!())")
    wb = weak_barbs(p, budget=6)
    assert wb == frozenset() and not wb.truncated


REPLICATION_IMAGE = canonical_process(encode_alpi(parse_alpi(
    "success ok; new(a: ^unit)( a!() | a!() | !a(y).ok!() )"), {}))


@pytest.mark.parametrize("budget", [25, 2000])
def test_weak_barbs_find_the_barb_of_a_regenerating_image(budget):
    # the image's replicated server keeps issuing requests; a depth-first
    # walk follows them until the budget fires and never sees the barb
    wb = weak_barbs(REPLICATION_IMAGE, budget=budget)
    assert {str(n) for n in wb} == {"ok"}
    assert not wb.truncated


def test_weak_barbs_stop_once_every_success_name_is_seen(monkeypatch):
    calls = []
    real = S._redexes
    monkeypatch.setattr(S, "_redexes", lambda p: calls.append(p) or real(p))
    p = proc("new(a: i[unit], b) ( a(x).ok!() | b!() "
             "| !a(y).(b!() | b!()) )", success=("ok",))
    wb = weak_barbs(p)
    assert {str(n) for n in wb} == {"ok"} and not wb.truncated
    assert len(calls) == 1


def test_weak_barbs_agree_with_the_reference_route():
    """On closed enumerated processes (the free output renamed to a
    success name), the reduction route's weak barbs equal the reference
    LTS's wherever neither walk was cut short."""
    ok = parse_process("ok!()", success=("ok",)).subject
    compared = shown = 0
    for p in enumerate_core(6, in_frees=()):
        p = rename_free(p, {Name("b"): ok})
        wb = weak_barbs(p, budget=50)
        erased = erase_to_api(Composite(p, frozenset()))
        barbs, truncated = _api_weak_barbs(erased, 50,
                                           Fragments(_api_steps))
        if wb.truncated or truncated:
            continue
        assert {str(n) for n in wb} == barbs, print_process(p)
        compared += 1
        shown += bool(barbs)
    assert compared > 2000 and 0 < shown < compared


def _canonical_key(q):
    return canonicalize(q).key


@pytest.mark.parametrize("budget", [1, 3, 6, 50])
def test_weak_barbs_match_a_walk_keyed_by_canonical_keys(budget):
    """``weak_barbs`` walks the barbed game's fragment states; a plain
    breadth-first walk of ``reduce``, keyed by whole-process canonical
    keys in key order, finds the same barbs and the same cut, on closed
    enumerated processes (the free output renamed to a success name).
    Only budget 1 cuts a walk of these short."""
    ok = parse_process("ok!()", success=("ok",)).subject
    shown = cut = 0
    for p in enumerate_core(5, in_frees=()):
        p = rename_free(p, {Name("b"): ok})
        wb = weak_barbs(p, budget=budget)
        expected = weak_barbs_walk(p, budget, reduce, _canonical_key)
        assert (set(wb), wb.truncated) == expected, print_process(p)
        shown += bool(wb)
        cut += wb.truncated
    assert shown and bool(cut) == (budget == 1)


def test_weak_barbs_cut_short_show_no_more_than_an_uncut_walk():
    """On generated typed programs, whose closures outgrow small budgets,
    an answer that is not truncated is exact: it equals the reference
    walk's answer when that is not truncated either, and holds every barb
    of a truncated one.  Which states a cut walk reaches depends on the
    order it takes reducts in, so truncated answers may differ."""
    ok = parse_process("ok!()", success=("ok",)).subject
    cut = 0
    for seed in range(400):
        p = rename_free(random_typed(seed, size=18)[1], {Name("b"): ok})
        for budget in (2, 4, 8):
            wb = weak_barbs(p, budget=budget)
            barbs, truncated = weak_barbs_walk(p, budget, reduce,
                                               _canonical_key)
            if not wb.truncated:
                assert barbs <= set(wb), print_process(p)
            if not truncated:
                assert set(wb) <= barbs, print_process(p)
            cut += wb.truncated
    assert cut


# ---------------------------------------------------------------------------
# labelled transitions
# ---------------------------------------------------------------------------

def test_lts_bound_output_example():
    p = proc("new(c: i[unit], d) e!(d)")
    steps = lts_step(frozenset(), p)
    assert len(steps) == 1
    mu, q = steps[0]
    assert mu == BoundOut(Name("e"), Name("d"), Name("c"),
                          ChanType("i", UNIT), False)
    assert q == proc("0")


def test_lts_bound_output_of_input_member():
    p = proc("new(c: i[unit], d) e!(c)")
    ((mu, q),) = lts_step(frozenset(), p)
    assert isinstance(mu, BoundOut)
    assert mu.exported == Name("c")
    assert mu.companion == Name("d")
    assert mu.exported_is_input


def test_lts_ground_input():
    ((mu, q),) = lts_step(frozenset(), proc("a(x).x!()"))
    assert mu == In(Name("a"), Name("x"))
    assert q == proc("x!()")


def test_lts_free_output():
    ((mu, q),) = lts_step(frozenset(), proc("b!(c)"))
    assert mu == FreeOut(Name("b"), VName(Name("c")))
    assert q == proc("0")


def test_lts_com_needs_connection():
    p = proc("a(x).x!() | b!(c)")
    assert not any(isinstance(mu, Tau) for mu, _ in lts_step(frozenset(), p))
    delta = frozenset({(Name("a"), Name("b"))})
    taus = [(mu, q) for mu, q in lts_step(delta, p) if isinstance(mu, Tau)]
    assert len(taus) == 1
    assert keys([taus[0][1]]) == keys([proc("c!() | 0")])


def test_lts_close_reforms_restriction():
    delta = frozenset({(Name("a"), Name("b"))})
    p = proc("a(x).x!() | new(ci: i[unit], c) (b!(c) | ci(y).ok!())",
             success=("ok",))
    taus = [q for mu, q in lts_step(delta, p) if isinstance(mu, Tau)]
    assert len(taus) == 1
    assert print_process(taus[0]) == \
        "new(ci: i[unit], c) (c!() | (0 | ci(y).ok!()))"


def test_lts_restricted_subjects_are_silent():
    assert lts_step(frozenset(), proc("new(a: i[unit], b) a(x).0")) == []
    assert lts_step(frozenset(), proc("new(a: i[unit], b) b!()")) == []


def test_lts_tuple_holding_restricted_name_stays_private():
    p = proc("new(a: i[unit], b) e!((), b)")
    assert lts_step(frozenset(), p) == []


def test_lts_input_param_freshened_against_sibling():
    p = proc("a(x).0 | x!()")
    ins = [(mu, q) for mu, q in lts_step(frozenset(), p)
           if isinstance(mu, In)]
    assert len(ins) == 1
    mu, q = ins[0]
    assert mu.subject == Name("a")
    assert mu.param != Name("x")
    assert Name("x") in free_names(q)


def test_lts_replication_steps_to_body_and_replica():
    ((mu, q),) = lts_step(frozenset(), proc("!a(x).c!()"))
    assert isinstance(mu, In)
    assert keys([q]) == keys([proc("c!() | !a(x).c!()")])


def test_lts_destructors_fire_silently():
    ((mu, q),) = lts_step(frozenset(), proc("let (x, y) = (u, v) in w!(x)"))
    assert mu == TAU and q == proc("w!(u)")
    ((mu, q),) = lts_step(frozenset(),
                          proc("case inr c { inl x -> 0; inr y -> y!() }"))
    assert mu == TAU and q == proc("c!()")


# ---------------------------------------------------------------------------
# harmony between the two routes
# ---------------------------------------------------------------------------

def test_harmony_exhaustive_small():
    checked = 0
    for p in enumerate_core(7):
        p0 = canonical_process(p)
        assert keys(reduce(p0)) == tau_targets(p0), print_process(p0)
        checked += 1
    assert checked >= 500


def test_harmony_on_generated_typed_terms():
    for seed in range(300):
        env, p = random_typed(seed, size=14)
        p0 = canonical_process(p)
        assert keys(reduce(p0)) == tau_targets(p0), \
            f"seed {seed}: {print_process(p0)}"


def test_harmony_under_connection_pairs():
    # reducts of new(a,b)P against tau targets of the composite at a-b
    from awpi.syntax import Res, parse_vtype

    iunit = parse_vtype("i[unit]")
    a, b = Name("a"), Name("b")
    delta = frozenset({(a, b)})
    checked = 0
    for p in enumerate_core(6):
        wrapped = canonical_process(Res(a, b, iunit, p))
        got = set()
        for mu, comp in composite_step(Composite(canonical_process(p), delta)):
            if isinstance(mu, Tau):
                assert comp.delta == delta
                got.add(canonicalize(Res(a, b, iunit, comp.process)).key)
        assert keys(reduce(wrapped)) == got, print_process(wrapped)
        checked += 1
    assert checked >= 500


# ---------------------------------------------------------------------------
# typing meets dynamics
# ---------------------------------------------------------------------------

def test_subject_reduction_on_generated_terms():
    checked = 0
    for seed in range(250):
        env, p = random_typed(seed, size=14)
        assert typecheck(env, p)
        frontier = [canonical_process(p)]
        for _ in range(2):
            nxt = []
            for q in frontier:
                for r in reduce(q):
                    v = typecheck(env, r)
                    assert v, (f"seed {seed}: reduct fails\n"
                               f"  {print_process(q)}\n  -> {print_process(r)}\n"
                               f"  {[(e.rule, e.msg) for e in v.errors]}")
                    checked += 1
                    nxt.append(r)
            frontier = nxt
    assert checked >= 50


def test_closed_terms_only_do_tau_and_success():
    p = parse_file(CHOICE_SRC).process
    g = explore(frozenset(), p, depth_bound=10, state_bound=100)
    for _, mu, _ in g.edges:
        if isinstance(mu, Tau):
            continue
        assert isinstance(mu, FreeOut) and mu.subject.kind == "success", str(mu)


def _left_par(atoms, par):
    out = atoms[0]
    for a in atoms[1:]:
        out = par(out, a)
    return out


def _count_syntax_walks(monkeypatch):
    """Count the calls of ``syntax._frees`` on a node that keeps no names
    yet, through the bindings of ``syntax`` and ``semantics``, recursive
    calls included: each of them walks the node's children."""
    import awpi.syntax
    calls = [0]
    original = awpi.syntax._frees

    def counted(p):
        calls[0] += getattr(p, "_names", None) is None
        return original(p)

    for m in (awpi.syntax, S):
        monkeypatch.setattr(m, "_frees", counted)
    return calls


def _count_api_walks(monkeypatch):
    """Count the calls of ``api._frees`` on a node that keeps no names yet,
    recursive calls included: each of them walks the node's children."""
    calls = [0]
    original = api._frees

    def counted(p):
        calls[0] += p._names is None
        return original(p)

    monkeypatch.setattr(api, "_frees", counted)
    return calls


@pytest.mark.parametrize("side", ["semantics", "api"])
def test_lts_step_walks_a_wide_par_once(monkeypatch, side):
    width = 64
    if side == "semantics":
        label, inp, out, par = In, SInput, SOutput, SPar
        step = lambda p: lts_step(frozenset(), p)
        calls = _count_syntax_walks(monkeypatch)
    else:
        label, inp, out, par = api.InLabel, api.Input, api.Output, api.Par
        step = api.lts_step
        calls = _count_api_walks(monkeypatch)
    # at most one walk per node (2 * width - 1); re-walking a sibling's
    # free names per step made 10,017 calls here on the semantics side,
    # and keeping no names on the nodes 4,220 walks on the api side
    bound = 2 * width
    body = out(Name("k"), VUNIT)
    subjects = [(Name(f"a{i}"), Name(f"x{i}")) for i in range(width)]
    atoms = [inp(a, x, body) for a, x in subjects]
    p = _left_par(atoms, par)
    expected = [(label(a, x), _left_par(atoms[:i] + [body] + atoms[i + 1:], par))
                for i, (a, x) in enumerate(subjects)]
    steps = step(p)
    assert calls[0] <= bound
    assert steps == expected


@pytest.mark.parametrize("side", ["semantics", "api"])
def test_lts_step_keeps_no_names_on_inner_pars(side):
    # the | spine's names are gathered in one set: kept on each inner |,
    # they held 51.8 MB after stepping the 1,500-way k0!() | ... | k1499!()
    if side == "semantics":
        out, par, step = SOutput, SPar, lambda p: lts_step(frozenset(), p)
    else:
        out, par, step = api.Output, api.Par, api.lts_step
    p = _left_par([out(Name(f"k{i}"), VUNIT) for i in range(64)], par)
    assert len(step(p)) == 64
    q = p.left
    while isinstance(q, par):
        assert getattr(q, "_names", None) is None
        q = q.left


def test_lts_step_rejects_a_long_restriction_chain():
    # the canonical form of this | is one chain of 1,200 pairs, and the
    # step recurses once per restriction, past the recursion limit
    p = canonical_process(parse_process(" | ".join(
        f"new(a{i}: i[unit], b{i})(a{i}(x).k!() | b{i}!())"
        for i in range(1200))))
    with pytest.raises(ValueError, match="nested too deeply"):
        lts_step(frozenset(), p)


def test_canonical_root_keeps_the_input_free_names(monkeypatch):
    """A canonical process keeps its input's free names on its root, so
    that ``Composite.gc`` of a state walks nothing again."""
    walks = _count_syntax_walks(monkeypatch)
    for seed in range(200):
        _, p = random_typed(seed)
        names = free_names(p)
        c = canonicalize(p)
        assert getattr(c.process, "_names", None) == names
        assert free_names(parse_process(print_process(c.process))) == names
        delta = {(Name("u"), Name("v"))} | {(n, n) for n in names}
        comp = S.state(p, delta)
        before = walks[0]
        assert comp.gc().delta == {(n, n) for n in names}
        assert walks[0] == before


def test_free_names_of_a_wide_par():
    width = 1500
    p = parse_process(" | ".join(["k!()"] * width))
    assert free_names(p) == {Name("k")}
    ap = _left_par([api.Output(Name("k"), VUNIT)] * width, api.Par)
    assert api.free_names(ap) == {Name("k")}


def test_rename_free_of_a_wide_par():
    width = 1500
    p = parse_process(" | ".join(["k!()"] * width))
    q = rename_free(p, {Name("k"): Name("m")})
    # a left-nested chain prints flat: the shape is kept
    assert print_process(q) == " | ".join(["m!()"] * width)
    under = rename_free(parse_process(f"a(x).({print_process(p)})"),
                        {Name("k"): Name("m")})
    assert print_process(under) == f"a(x).({print_process(q)})"


def test_api_print_and_alpha_key_of_a_wide_par():
    width = 1500
    ap = _left_par([api.Output(Name("k"), VUNIT)] * width, api.Par)
    assert api.print_process(ap) == " | ".join(["k!()"] * width)
    assert api.alpha_key(ap) == ("(" * (width - 1) + "f:k!*"
                                 + "|f:k!*)" * (width - 1))


def _deep_api():
    """A 3,000-deep prefix chain and a 3,000-deep restriction chain of the
    reference calculus, built through its constructors."""
    a = Name("a")
    prefixes, restrictions = api.NIL, api.Output(a, VUNIT)
    for _ in range(3000):
        prefixes = api.Input(a, a, prefixes)
        restrictions = api.Res(a, restrictions)
    return prefixes, restrictions


@pytest.mark.parametrize("walk", [
    lambda p, r: api.alpha_key(p),
    lambda p, r: api.lts_step(api.Par(api.Output(Name("a"), VUNIT), r)),
    lambda p, r: api.free_names(p),
    lambda p, r: api.print_process(r),
    lambda p, r: api.substitute(p, {Name("a"): VName(Name("c"))}),
], ids=["alpha_key", "lts_step", "free_names", "print_process", "substitute"])
def test_api_walks_reject_deep_nesting(walk):
    # each raised RecursionError
    with pytest.raises(ValueError, match="process nested too deeply"):
        walk(*_deep_api())


def test_erase_to_api_rejects_deep_nesting():
    # raised RecursionError
    p = NIL
    for _ in range(3000):
        p = Res(Name("a"), Name("b"), ChanType("i", UNIT), p)
    with pytest.raises(ValueError, match="process nested too deeply"):
        erase_to_api(Composite(p, frozenset()))


def test_lts_step_and_api_substitute_of_a_wide_par():
    # each recursed down the | spine and raised RecursionError
    width = 1500
    p = parse_process(" | ".join(["k!()"] * width))
    steps = lts_step(frozenset(), p)
    assert len(steps) == width
    assert {mu for mu, _ in steps} == {FreeOut(Name("k"), VUNIT)}
    ap = _left_par([api.Output(Name("k"), VUNIT)] * width, api.Par)
    assert len(api.lts_step(ap)) == width
    q = api.substitute(ap, {Name("k"): VName(Name("m"))})
    assert api.print_process(q) == " | ".join(["m!()"] * width)


def test_erase_to_api_of_a_wide_par():
    # recursed down the | spine and raised RecursionError
    width = 1500
    p = parse_process(" | ".join(["k!()"] * width))
    ap = erase_to_api(Composite(p, frozenset()))
    assert api.print_process(ap) == " | ".join(["k!()"] * width)
    assert api.alpha_key(ap) == api.alpha_key(
        _left_par([api.Output(Name("k"), VUNIT)] * width, api.Par))


def test_explore_builds_a_free_output_target_once_per_label(monkeypatch):
    calls = [0]
    build = S.canonicalize

    def counted(p):
        calls[0] += 1
        return build(p)

    monkeypatch.setattr(S, "canonicalize", counted)
    g = explore(frozenset(), parse_process(" | ".join(["k!()"] * 30)),
                depth_bound=30)
    # one call for the root's thirty equal components, and none for a
    # target, which keeps the rest; one per state made 31, and building
    # one target per edge made 466
    assert calls[0] == 1
    assert (len(g.nodes), len(g.edges), g.truncated) == (31, 465, False)
    assert [dst for _, _, dst in g.edges[:30]] == [1] * 30


def _api_nested_terms():
    par, res, out, nil = api.Par, api.Res, api.Output, api.NIL
    inp, rep = api.Input, api.RepInput
    a, b, c, x, y, z = (Name(s) for s in "abcxyz")
    return [
        par(par(inp(a, x, out(x, VUNIT)),
                res(b, par(out(b, VName(a)), inp(b, y, nil)))),
            rep(c, z, par(out(z, VUNIT), out(c, VName(z))))),
        par(res(b, inp(b, x, par(out(x, VUNIT), nil))),
            par(inp(a, y, res(c, out(y, VName(c)))), par(out(a, VUNIT), nil))),
        res(b, par(par(inp(b, x, inp(x, y, out(y, VUNIT))), out(b, VName(a))),
                   res(c, par(out(c, VUNIT), inp(c, z, nil))))),
    ]


def test_api_print_and_alpha_key_of_nested_terms_are_unchanged():
    # the strings of the recursive walks; alpha keys number binders left
    # to right and parenthesize every |
    expected = [
        ("a(x).x!() | new(b) (b!(a) | b(y).0) | !c(z).(z!() | c!(z))",
         "((f:a?.b0!*|nu.(b1!f:a|b1?.0))|!f:c?.(b3!*|f:c!b3))"),
        ("new(b) b(x).(x!() | 0) | (a(y).new(c) y!(c) | (a!() | 0))",
         "(nu.b0?.(b1!*|0)|(f:a?.nu.b2!b3|(f:a!*|0)))"),
        ("new(b) (b(x).x(y).y!() | b!(a) | new(c) (c!() | c(z).0))",
         "nu.((b0?.b1?.b2!*|b0!f:a)|nu.(b3!*|b3?.0))"),
    ]
    got = [(api.print_process(t), api.alpha_key(t))
           for t in _api_nested_terms()]
    assert got == expected


def test_api_alpha_key_scopes_end_at_their_body():
    # binders are bound in place: an inner binder of the same name shadows
    # the outer one in its own body only, and a free use after a binder's
    # body stays free
    a, b, x = Name("a"), Name("b"), Name("x")
    out = api.Output(x, VUNIT)
    t = api.Input(a, x, api.Par(api.Input(x, x, out), out))
    assert api.alpha_key(api.Par(t, api.Output(b, VName(x)))) == \
        "(f:a?.(b0?.b1!*|b0!*)|f:b!f:x)"
    case = api.Case(VName(b), x, out, x, api.Par(out, api.Res(x, out)))
    assert api.alpha_key(api.Par(case, out)) == \
        "(case f:b [b0!*][(b1!*|nu.b2!*)]|f:x!*)"


# ---------------------------------------------------------------------------
# composites and exploration
# ---------------------------------------------------------------------------

def test_composite_delta_grows_on_output_member_export():
    comp = Composite(proc("new(ci: i[unit], c) ( e!(c) | ci(x).0 )"),
                     frozenset())
    ((mu, c2),) = composite_step(comp)
    assert isinstance(mu, BoundOut) and not mu.exported_is_input
    assert c2.delta == frozenset({(Name("ci"), Name("c"))})


def test_composite_delta_fixed_on_input_member_export():
    comp = Composite(proc("new(ci: i[unit], c) ( e!(ci) | c!() )"),
                     frozenset())
    steps = [x for x in composite_step(comp)
             if isinstance(x[0], BoundOut)]
    ((mu, c2),) = steps
    assert mu.exported_is_input
    assert c2.delta == frozenset()


def test_composite_delta_monotone():
    for seed in range(120):
        env, p = random_typed(seed, size=12)
        comp = Composite(canonical_process(p), frozenset())
        frontier = [comp]
        for _ in range(3):
            nxt = []
            for c in frontier:
                for mu, c2 in composite_step(c):
                    assert c2.delta >= c.delta
                    nxt.append(Composite(canonical_process(c2.process),
                                         c2.delta).gc())
            frontier = nxt


def test_composite_gc_drops_dead_pairs():
    comp = Composite(proc("0"), frozenset({(Name("a"), Name("b"))}))
    assert comp.gc().delta == frozenset()
    comp = Composite(proc("b!()"), frozenset({(Name("a"), Name("b"))}))
    assert comp.gc().delta == frozenset({(Name("a"), Name("b"))})


def test_explore_internal_choice_graph():
    p = parse_file(CHOICE_SRC).process
    g = explore(frozenset(), p, depth_bound=10, state_bound=100)
    assert len(g.nodes) == 7
    assert len(g.edges) == 6
    assert not g.truncated
    assert g.root == 0
    labels = sorted(str(mu) for _, mu, _ in g.edges)
    assert labels == ["err!()", "ok!()", "tau", "tau", "tau", "tau"]


def test_explore_state_bound_truncates():
    p = parse_file(CHOICE_SRC).process
    g = explore(frozenset(), p, depth_bound=10, state_bound=3)
    assert len(g.nodes) == 3
    assert g.state_truncated and not g.depth_truncated


def test_explore_depth_bound_truncates():
    p = proc("new(a: i[unit], b) (!a(x).(b!() | b!()) | b!())")
    g = explore(frozenset(), p, depth_bound=2, state_bound=100)
    assert g.depth_truncated


def test_explore_steps_no_node_at_its_depth_bound(monkeypatch):
    # bench/corpus.client_server(4)
    client = "new(r: i[unit], ro)( so!(ro) | r(x).ok!() )"
    p = parse_file("success ok; new(s: i[o[unit]], so)( !s(r).r!() | "
                   + " | ".join([client] * 4) + " )").process
    calls = [0]
    build = S.canonicalize

    def counted(q):
        calls[0] += 1
        return build(q)

    monkeypatch.setattr(S, "canonicalize", counted)
    g = explore(frozenset(), p, depth_bound=3)
    # stepping the nodes at the bound built their tau targets: 22 calls
    assert calls[0] == 20
    assert (len(g.nodes), len(g.edges), g.depth_truncated) == (7, 16, True)


CLIENT_SERVER_SRC = """
success ok;
new(s: i[o[unit]], so) (
  !s(r).r!()
  | new(r: i[unit], ro) ( so!(ro) | r(x).ok!() )
  | new(r: i[unit], ro) ( so!(ro) | r(x).ok!() )
)
"""


def fragment_key(p):
    """The fragment key of ``p`` computed afresh: its top-level connected
    components canonicalized one by one, their keys sorted."""
    return " | ".join(sorted(canonicalize(f).key for f in _fragments(p))) \
        or "0"


def fresh_key(comp):
    return fragment_key(comp.process) + "@" + S.delta_key(comp.delta)


def test_explored_states_carry_fresh_keys():
    p = parse_file(CLIENT_SERVER_SRC).process
    g = explore(frozenset(), p, depth_bound=12, state_bound=100)
    assert len(g.nodes) == 10 and not g.truncated
    for node in g.nodes:
        assert node.key == fresh_key(node)
    assert len({node.key for node in g.nodes}) == len(g.nodes)


def test_explore_edges_replay():
    p = parse_file(CHOICE_SRC).process
    g = explore(frozenset(), p, depth_bound=10, state_bound=100)
    for src, mu, dst in g.edges:
        node = g.nodes[src]
        moves = composite_step(node)
        hits = [c2 for mu2, c2 in moves if mu2 == mu]
        assert any(
            Composite(canonical_process(c2.process), c2.delta).gc().key
            == g.nodes[dst].key for c2 in hits)


# ---------------------------------------------------------------------------
# bounded closure
# ---------------------------------------------------------------------------

class _Node:
    def __init__(self, key):
        self.key = key


def _regenerating(n):
    """A path that regenerates work forever next to a state one step
    away: s -> near -> done, and s -> deep1 -> deep2 -> ..."""
    k = n.key
    if k.startswith("deep"):
        return [_Node("deep" + str(int(k[4:]) + 1))]
    return [_Node(x) for x in {"s": ["near", "deep1"],
                               "near": ["done"]}.get(k, [])]


def test_closure_is_breadth_first():
    walk = closure(_Node("s"), _regenerating, 5)
    # depth first, the walk would follow deep1, deep2, ... and miss done
    assert [n.key for n in walk] == ["s", "near", "deep1", "done", "deep2"]
    assert walk.truncated


def test_closure_expands_only_as_far_as_it_is_read():
    expanded = []

    def successors(n):
        expanded.append(n.key)
        return _regenerating(n)

    walk = closure(_Node("s"), successors, 5)
    first = iter(walk)
    assert next(first).key == "s" and expanded == []
    assert [next(first).key for _ in range(2)] == ["near", "deep1"]
    assert expanded == ["s"]
    # a second reader starts from the states found
    assert [n.key for _, n in zip(range(3), walk)] == ["s", "near", "deep1"]
    assert expanded == ["s"]
    assert next(first).key == "done" and expanded == ["s", "near"]
    # the eager walk's answer, and nothing expanded twice
    assert walk.truncated and expanded == ["s", "near", "deep1"]
    assert [n.key for n in walk] == ["s", "near", "deep1", "done", "deep2"]
    assert expanded == ["s", "near", "deep1"]
    finite = closure(_Node("near"), successors, 5)
    assert not finite.truncated and [n.key for n in finite] == ["near", "done"]


# ---------------------------------------------------------------------------
# erasure
# ---------------------------------------------------------------------------

def test_erase_connected_input():
    comp = Composite(proc("a(x).0"), frozenset({(Name("a"), Name("b"))}))
    assert api.print_process(erase_to_api(comp)) == "b(x).0"


def test_erase_restricted_pair():
    comp = Composite(proc("new(a: i[unit], b) ( a(x).0 | b!() )"),
                     frozenset())
    assert api.print_process(erase_to_api(comp)) == "new(b) (b(x).0 | b!())"


def test_erase_payload_occurrences():
    comp = Composite(proc("c!(a)"), frozenset({(Name("a"), Name("b"))}))
    assert api.print_process(erase_to_api(comp)) == "c!(b)"


def test_erase_label_bound_output_both_polarities():
    t = ChanType("i", UNIT)
    delta = frozenset()
    mu1 = BoundOut(Name("e"), Name("d"), Name("c"), t, False)
    mu2 = BoundOut(Name("e"), Name("c"), Name("d"), t, True)
    assert erase_label(mu1, delta) == api.BoundOutLabel(Name("e"), Name("d"))
    assert erase_label(mu2, delta) == api.BoundOutLabel(Name("e"), Name("d"))


PSTD = Name("%p")
NSTD = Name("%n")


def _api_move_key(mu, tgt):
    if isinstance(mu, api.TauLabel):
        return ("tau", api.alpha_key(tgt))
    if isinstance(mu, api.InLabel):
        return ("in", str(mu.subject),
                api.alpha_key(api.rename_free(tgt, {mu.param: PSTD})))
    if isinstance(mu, api.OutLabel):
        return ("out", str(mu.subject), print_value(mu.payload),
                api.alpha_key(tgt))
    if isinstance(mu, api.BoundOutLabel):
        return ("bout", str(mu.subject),
                api.alpha_key(api.rename_free(tgt, {mu.exported: NSTD})))
    raise TypeError(mu)


def _erased_moves(comp):
    out = set()
    for mu, c2 in composite_step(comp):
        out.add(_api_move_key(erase_label(mu, comp.delta), erase_to_api(c2)))
    return out


def _api_moves(ap):
    return {_api_move_key(mu, q) for mu, q in api.lts_step(ap)}


def _check_erasure(comp):
    want = _api_moves(erase_to_api(comp))
    got = _erased_moves(comp)
    assert got == want, (
        f"{print_process(comp.process)} delta="
        f"{sorted((str(a), str(b)) for a, b in comp.delta)}\n"
        f"  only erased: {sorted(got - want)}\n"
        f"  only direct: {sorted(want - got)}")


def test_erasure_simulation_exhaustive_small():
    deltas = (frozenset(), frozenset({(Name("a"), Name("b"))}))
    checked = 0
    for p in enumerate_core(6):
        p0 = canonical_process(p)
        for delta in deltas:
            _check_erasure(Composite(p0, delta))
            checked += 1
    assert checked >= 1000


def test_erasure_simulation_on_typed_composites():
    for seed in range(150):
        env, p = random_typed(seed, size=12)
        comp = Composite(canonical_process(p), frozenset())
        frontier = [comp]
        seen = set()
        for _ in range(3):
            nxt = []
            for c in frontier:
                k = c.key
                if k in seen:
                    continue
                seen.add(k)
                _check_erasure(c)
                for mu, c2 in composite_step(c):
                    nxt.append(Composite(canonical_process(c2.process),
                                         c2.delta).gc())
            frontier = nxt


def test_api_lts_close_example():
    ap = api.Res(Name("b"), api.Par(api.Input(Name("b"), Name("x"), api.NIL),
                                    api.Output(Name("b"), VUNIT)))
    ((mu, q),) = api.lts_step(ap)
    assert mu == api.TAU
    assert api.alpha_eq(q, api.Res(Name("b"), api.Par(api.NIL, api.NIL)))


def _api_clash_cases():
    """(process, [(label, printed target)]) for bound names that clash
    with a sibling other than the adjacent one, so the renaming runs; the
    expected steps are written by hand."""
    a, b, c, e, x, y = map(Name, "abcexy")
    inp, out, par, res = api.Input, api.Output, api.Par, api.Res
    # a(x).x!() | b!() | x!(): the parameter clashes with x!() only
    wide_in = par(par(inp(a, x, out(x, VUNIT)), out(b, VUNIT)), out(x, VUNIT))
    in_steps = [(api.InLabel(a, Name("x", 1)), "x#1!() | b!() | x!()"),
                (api.OutLabel(b, VUNIT), "a(x).x!() | 0 | x!()"),
                (api.OutLabel(x, VUNIT), "a(x).x!() | b!() | 0")]
    # new(c) (e!(c) | c(y).0) | b!() | c!(): the exported c clashes with
    # c!() only
    wide_out = par(par(res(c, par(out(e, VName(c)), inp(c, y, api.NIL))),
                       out(b, VUNIT)), out(c, VUNIT))
    opened = "new(c) (e!(c) | c(y).0)"
    out_steps = [(api.BoundOutLabel(e, Name("c", 1)),
                  "0 | c#1(y).0 | b!() | c!()"),
                 (api.OutLabel(b, VUNIT), f"{opened} | 0 | c!()"),
                 (api.OutLabel(c, VUNIT), f"{opened} | b!() | 0")]
    # a close whose exported c is free in the receiver e(y).c!(y): the
    # restriction is re-formed on a fresh name
    sender, receiver = res(c, out(e, VName(c))), inp(e, y, out(c, VName(y)))
    return [
        (wide_in, in_steps),
        (wide_out, out_steps),
        # the same under new: b!() is dropped, the renamed steps pass
        (res(b, wide_in), [(mu, f"new(b) ({t})") for mu, t in in_steps
                           if mu != api.OutLabel(b, VUNIT)]),
        (res(a, wide_out), [(mu, f"new(a) ({t})") for mu, t in out_steps]),
        (par(sender, receiver),
         [(api.BoundOutLabel(e, Name("c", 1)), "0 | e(y).c!(y)"),
          (api.InLabel(e, y), "new(c) e!(c) | c!(y)"),
          (api.TAU, "new(c#1) (0 | c!(c#1))")]),
        (par(receiver, sender),
         [(api.InLabel(e, y), "c!(y) | new(c) e!(c)"),
          (api.BoundOutLabel(e, Name("c", 1)), "e(y).c!(y) | 0"),
          (api.TAU, "new(c#1) (c!(c#1) | 0)")]),
    ]


@pytest.mark.parametrize("case", range(6), ids=[
    "input-far-sibling", "bound-output-far-sibling", "input-under-new",
    "bound-output-under-new", "close-output-left", "close-output-right"])
def test_api_lts_step_renames_a_bound_name_on_a_clash(case):
    p, expected = _api_clash_cases()[case]
    assert [(mu, api.print_process(q)) for mu, q in api.lts_step(p)] \
        == expected


def test_freshening_keeps_the_subject_an_input_binds():
    # a(a).a!() beside a free a: the parameter is renamed away from the
    # sibling's a, on both routes, and the subject stays a; renaming every
    # name of the label made the input's label a#1(a#1)
    a, a1, k = Name("a"), Name("a", 1), Name("k")
    p = parse_process("a(a).a!() | k!(a)")
    (mu, q), _ = lts_step(frozenset(), p)
    assert mu == In(a, a1) and print_process(q) == "a#1!() | k!(a)"
    ap = api.Par(api.Input(a, a, api.Output(a, VUNIT)),
                 api.Output(k, VName(a)))
    (mu, q), _ = api.lts_step(ap)
    assert mu == api.InLabel(a, a1)
    assert api.print_process(q) == "a#1!() | k!(a)"


def test_close_of_an_exported_input_end():
    # d!(a) sends the input end a of its pair to c(x), connected to d:
    # the Close re-forms the pair with a still its input end, now received
    # as x and read by the receiver; swapping the ends made the receiver
    # read the output end b, which does not typecheck
    a, b = Name("a"), Name("b")
    delta = frozenset({(Name("c"), Name("d"))})
    p = parse_process("new(a: i[unit], b)( d!(a) | b!() ) | c(x).x(y).k!()")
    moves = lts_step(delta, p)
    (out,) = [mu for mu, _ in moves if isinstance(mu, BoundOut)]
    assert out.exported_is_input and (out.exported, out.companion) == (a, b)
    (tgt,) = [q for mu, q in moves if isinstance(mu, Tau)]
    assert isinstance(tgt, Res) and (tgt.in_name, tgt.out_name) == (a, b)
    assert print_process(tgt) == "new(a: i[unit], b) (0 | b!() | a(y).k!())"
    assert typecheck({Name("k"): ChanType("o", UNIT)}, tgt).ok


def test_api_open_example():
    ap = api.Res(Name("c"), api.Output(Name("e"), VName(Name("c"))))
    ((mu, q),) = api.lts_step(ap)
    assert mu == api.BoundOutLabel(Name("e"), Name("c"))
    assert q == api.NIL


# ---------------------------------------------------------------------------
# connection-set plumbing
# ---------------------------------------------------------------------------

def test_parse_delta():
    d = S.parse_delta("a-b, c#1-d")
    assert d == frozenset({(Name("a"), Name("b")), (Name("c", 1), Name("d"))})
    assert S.parse_delta("") == frozenset()
    with pytest.raises(ValueError):
        S.parse_delta("a")
    # names no process can contain: Name("a b"), Name("("), Name("b-c") and
    # the keyword Name("new") were accepted
    for bad in ("a b-c", "(-)", "a-b-c", "new-b", "a-", "a-b,"):
        with pytest.raises(ValueError):
            S.parse_delta(bad)


def test_delta_names():
    d = frozenset({(Name("a"), Name("b"))})
    assert S.delta_names(d) == frozenset({Name("a"), Name("b")})


def test_api_substitute_walks_a_deep_prefix_once(monkeypatch):
    calls = [0]
    for walk in ("free_names", "_frees"):
        def counted(*args, _walk=getattr(api, walk)):
            calls[0] += 1
            return _walk(*args)
        monkeypatch.setattr(api, walk, counted)
    depth = 400
    p = api.Output(Name("k"), VName(Name("m")))
    for i in reversed(range(depth)):
        p = api.Input(Name("a"), Name("x", i + 1), p)
    q = api.substitute(p, {Name("m"): VName(Name("z"))})
    # each level guarded its body with a walk of its free names: about
    # 80,000 free_names calls
    assert calls[0] <= 4 * depth
    assert api.print_process(q).endswith(".k!(z)")


def _api_binders(x, body):
    """One process per binder kind of ``api``, each binding ``x`` over
    ``body(x)``, a case over both of its branches."""
    a = Name("a")
    return [
        api.Input(a, x, body(x)),
        api.RepInput(a, x, body(x)),
        api.Res(x, body(x)),
        api.LetTuple((x, Name("y")), VName(a), body(x)),
        api.Case(VName(a), x, body(x), x, body(x)),
    ]


def test_api_substitute_refreshes_a_binder_the_value_names():
    x, m, w = Name("x"), Name("m"), Name("w")

    def uses(b, free):
        return api.Output(Name("k"), VTuple((VName(b), VName(free))))

    # m := x under a binder of x: the binder is renamed, here to w, so that
    # the incoming x stays free
    got = [api.substitute(p, {m: VName(x)})
           for p in _api_binders(x, lambda b: uses(b, m))]
    want = _api_binders(w, lambda b: uses(b, x))
    assert [api.alpha_key(p) for p in got] == [api.alpha_key(q) for q in want]
    # keeping the binder captured the x
    captured = _api_binders(x, lambda b: uses(b, b))
    assert all(api.alpha_key(p) != api.alpha_key(q)
               for p, q in zip(got, captured))

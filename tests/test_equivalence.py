"""Equivalence checkers: games, the algebraic law corpus, witnesses."""

import dataclasses
import gc
import inspect
import os
import random
import subprocess
import sys
import weakref

import pytest

import awpi
from awpi.syntax import (
    NIL, Name, Par, Res, VName, VUNIT, _par_list, _split_chain,
    canonical_process, canonicalize, parse_file, parse_process, parse_vtype,
    print_process, rename_free,
)
from awpi.encodings import check_alpi_correspondence, encode_alpi, parse_alpi
from awpi.internal import internalize
from awpi.semantics import (
    Composite, FreeOut, Tau, composite_step, delta_key, erase_to_api,
    explore, state, weak_barbs,
)
from awpi.typecheck import ANY
from awpi import api
from awpi.equivalence import (
    DISTINGUISHED, INCONCLUSIVE, BisimConfig, NotClosed, NotInternal,
    TypeMismatch, Verdict, WitnessStep, _Game, _stable_graphs, barbed_bisim,
    internal_bisim_n, replay_witness, strong_bisim, weak_bisim, weak_sim,
)

from oracles import bisimulation_classes
from test_semantics import fragment_key, fresh_key


def nm(s):
    return Name(s)


def tenv(spec):
    out = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        n, t = part.split(":", 1)
        out[Name(n.strip())] = parse_vtype(t.strip())
    return out


def proc(src):
    return parse_file(src).process if "success" in src else parse_process(src)


# ---------------------------------------------------------------------------
# basic verdicts


def test_identical_processes_equivalent():
    p = proc("success ok; new(a: i[unit], b)( a(x).ok!() | b!() )")
    assert weak_bisim(p, p).equivalent
    assert strong_bisim(p, p).equivalent


def test_congruent_pair_strongly_equivalent():
    p = proc("success ok; success err; ok!() | ( err!() | 0 )")
    q = proc("success ok; success err; ( 0 | err!() ) | ok!()")
    v = strong_bisim(p, q)
    assert v.equivalent


def test_tau_prefix_weakly_but_not_strongly_equivalent():
    p = proc("success ok; new(a: i[unit], b)( a(x).ok!() | b!() )")
    q = proc("success ok; ok!()")
    assert weak_bisim(p, q).equivalent
    assert strong_bisim(p, q).distinguished


def test_distinct_success_names_distinguished():
    p = proc("success ok; ok!()")
    q = proc("success err; err!()")
    v = weak_bisim(p, q)
    assert v.distinguished
    assert replay_witness(p, q, v)


def test_dropped_continuation_distinguished_with_input_witness():
    e = tenv("a: i[unit]")
    p = proc("success ok; a(x).ok!()")
    q = proc("success ok; 0")
    v = weak_bisim(p, q, delta=frozenset())
    assert v.distinguished
    assert v.witness[0].label.startswith("a(")
    assert replay_witness(p, q, v)


def test_weak_sim_is_one_directional():
    small = proc("success ok; ok!()")
    big = proc("success ok; success err; ok!() | err!()")
    assert weak_sim(small, big).equivalent
    assert weak_sim(big, small).distinguished


def test_weak_sim_takes_delta_third_as_the_other_checkers_do():
    # a(x).k!() | b!() reaches k!() only through the pair (a, b)
    small, big = proc("k!()"), proc("a(x).k!() | b!()")
    delta = frozenset({(Name("a"), Name("b"))})
    v = weak_sim(small, big, delta)
    w = weak_sim(small, big, delta=delta)
    assert v.equivalent
    assert (v.result, v.witness, v.bounds) == (w.result, w.witness, w.bounds)
    assert weak_sim(small, big).distinguished


def test_barbed_requires_closed_terms():
    with pytest.raises(NotClosed):
        barbed_bisim(parse_process("a(x).0"), parse_process("0"))


def test_barbed_choice_order_irrelevant_after_commit():
    p = proc("success ok; success err; "
             "new(a: i[unit+unit], b)( a(x).case x { inl u -> ok!() ; "
             "inr v -> err!() } | b!(inl ()) )")
    q = proc("success ok; ok!()")
    assert barbed_bisim(p, q).equivalent


def test_barbed_distinct_committed_choices_distinguished():
    p = proc("success ok; success err; "
             "new(a: i[unit+unit], b)( a(x).case x { inl u -> ok!() ; "
             "inr v -> err!() } | b!(inl ()) )")
    q = proc("success ok; success err; "
             "new(a: i[unit+unit], b)( a(x).case x { inl u -> ok!() ; "
             "inr v -> err!() } | b!(inr ()) )")
    v = barbed_bisim(p, q)
    assert v.distinguished
    assert replay_witness(p, q, v)


def test_barbed_shown_barb_ends_the_play():
    p = proc("success ok; success err; "
             "ok!() | new(a: i[unit], b)( a(x).err!() | b!() )")
    q = proc("success ok; ok!()")
    v = barbed_bisim(p, q)
    assert v.distinguished
    # q shows ok, so that move has no continuation: the witness goes
    # through the reduction, which q answers by staying, and ends on the
    # err barb q cannot show
    assert [(s.label, s.defender_after) for s in v.witness] == [
        ("tau", state(q, frozenset()).key), ("err!()", None)]
    assert replay_witness(p, q, v)


def test_barbed_reaches_the_barb_of_a_regenerating_image():
    # the compiled image's server keeps issuing requests; the ok barb is a
    # few reductions off that path, past a depth-first tau walk's budget
    image = canonical_process(encode_alpi(parse_alpi(
        "success ok; new(a: ^unit)( a!() | a!() | !a(y).ok!() )"), {}))
    v = barbed_bisim(proc("success ok; ok!()"), image,
                     BisimConfig(depth=1, tau_budget=100))
    assert v.equivalent


def test_replay_reads_missing_bounds_from_the_config_defaults():
    p = proc("success ok; success err; ok!()")
    q = proc("success ok; success err; err!()")
    v = barbed_bisim(p, q)
    assert v.distinguished
    bare = dataclasses.replace(v, bounds={"method": "barbed"})
    assert replay_witness(p, q, bare)


BARBED_CHOICE_SCRIPT = """
from awpi.syntax import parse_file
from awpi.equivalence import barbed_bisim, replay_witness
head = "success ok; success err; new(a: i[unit + unit], b)( a(x).case x "
tail = " | b!(inl ()) | b!(inr ()) )"
p = parse_file(head + "{ inl y -> ok!() ; inr z -> err!() }" + tail).process
q = parse_file(head + "{ inl y -> 0 ; inr z -> 0 }" + tail).process
v = barbed_bisim(p, q)
print(v.result, replay_witness(p, q, v))
print(v.witness)
"""


def test_barbed_witness_does_not_depend_on_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(awpi.__file__)))
    outs = []
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", BARBED_CHOICE_SCRIPT],
                             env=env, capture_output=True, text=True,
                             check=True)
        outs.append(run.stdout)
    assert outs[0].startswith("distinguished True")
    assert outs[0] == outs[1]


def test_game_closure_states_carry_fresh_keys():
    p = proc("a(x).(c!() | new(d: i[unit], e)( d(y).k!() | e!() )) "
             "| b!() | b!()")
    delta = frozenset({(nm("a"), nm("b"))})
    walk = _Game("weak", BisimConfig())._closure(state(p, delta))
    reach = list(walk)
    assert len(reach) == 3 and not walk.truncated
    for s in reach:
        assert s.key == fresh_key(s)


def test_every_game_is_freed_when_its_check_returns(monkeypatch):
    # with the cyclic collector off, a game lives on only if something it
    # holds leads back to it, as a cached closure over a bound method of
    # the game would
    games = []
    init = _Game.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        games.append(weakref.ref(self))

    monkeypatch.setattr(_Game, "__init__", recording)
    p = proc("success ok; new(a: i[unit], b)( a(x).ok!() | b!() )")
    q = proc("success ok; success err; ok!() | new(a: i[unit], b)"
             "( a(x).err!() | b!() )")
    delta, lhs, rhs, env = _law("message-meets-companion-payload")
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert weak_bisim(p, q).distinguished
        assert strong_bisim(p, q).distinguished
        assert barbed_bisim(p, q).distinguished
        assert internal_bisim_n(delta, lhs, rhs, 4, env=env).equivalent
        assert check_alpi_correspondence(parse_alpi(
            "success ok; new(a: ^unit)( a!() | a!() | !a(y).ok!() )"),
            BisimConfig(depth=6, tau_budget=400)).equivalent
        assert len(games) == 5
        assert [g() for g in games] == [None] * 5
    finally:
        if enabled:
            gc.enable()


def _one_table_checks():
    """(name, a call of one check) pairs, each built outside the call."""
    p = proc("success ok; new(a: i[unit], b)( a(x).ok!() | b!() )")
    q = proc("success ok; success err; ok!() | new(a: i[unit], b)"
             "( a(x).err!() | b!() )")
    distinguished = weak_bisim(p, q)
    delta, lhs, rhs, env = _law("message-meets-companion-payload")
    alpi = parse_alpi("success ok; new(a: ^unit)( a!() | a!() | !a(y).ok!() )")
    congruent = proc("success ok; new(a: i[unit], b)( a(x).ok!() | b!() )")
    bound = proc("new(a: i[unit], b)( m!(b) | a(x).k!() )")
    return [
        ("weak", lambda: weak_bisim(p, q)),
        ("sim", lambda: weak_sim(p, q)),
        ("barbed", lambda: barbed_bisim(p, q)),
        ("internal", lambda: internal_bisim_n(delta, lhs, rhs, 4, env=env)),
        ("alpi", lambda: check_alpi_correspondence(
            alpi, BisimConfig(depth=4, tau_budget=100))),
        ("replay", lambda: replay_witness(p, q, distinguished)),
        ("strong-congruent", lambda: strong_bisim(congruent, congruent)),
        ("strong-distinct", lambda: strong_bisim(*_strong_pair(2, 3))),
        ("strong-bound-output", lambda: strong_bisim(bound, congruent)),
        ("weak_barbs", lambda: weak_barbs(p)),
        ("explore", lambda: explore(frozenset(), p)),
    ]


def test_each_check_reads_and_adds_states_through_one_table(monkeypatch):
    import awpi.semantics
    tables = []
    init = awpi.semantics.Fragments.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tables.append(type(self).__name__)

    checks = _one_table_checks()
    monkeypatch.setattr(awpi.semantics.Fragments, "__init__", counting)
    counted = {}
    for name, check in checks:
        del tables[:]
        check()
        counted[name] = len(tables)
    assert counted == {name: 1 for name, _ in checks}


def test_truncated_search_reports_inconclusive_not_distinguished():
    chain = proc(
        "success ok; "
        "new(a1: i[unit], b1)( b1!() | a1(x1)."
        "new(a2: i[unit], b2)( b2!() | a2(x2)."
        "new(a3: i[unit], b3)( b3!() | a3(x3).ok!() ) ) )")
    flat = proc("success ok; ok!()")
    tight = BisimConfig(depth=6, tau_budget=2)
    assert weak_bisim(chain, flat, cfg=tight).inconclusive
    assert weak_bisim(chain, flat).equivalent
    assert barbed_bisim(chain, flat, cfg=tight).inconclusive
    assert barbed_bisim(chain, flat).equivalent


# ---------------------------------------------------------------------------
# the algebraic law corpus: every pair internal-bisimilar at depth 6
#
# Each fixture is (name, environment, connections, lhs, rhs); both sides are
# run through the wiring translation before the game.

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


@pytest.mark.parametrize("name,espec,dspec,lsrc,rsrc",
                         LAWS, ids=[l[0] for l in LAWS])
def test_law(name, espec, dspec, lsrc, rsrc):
    env = tenv(espec)
    delta = frozenset()
    if dspec:
        pairs = []
        for item in dspec.split(","):
            i, o = item.split("-")
            pairs.append((nm(i), nm(o)))
        delta = frozenset(pairs)
    lhs = internalize(parse_process(lsrc), env)
    rhs = internalize(parse_process(rsrc), env)
    v = internal_bisim_n(delta, lhs, rhs, 6, env=env)
    assert v.equivalent, f"{name}: {v.result}"


def test_law_count_covers_the_suite():
    assert len(LAWS) >= 20


def _law(name):
    """Law ``name``'s connection set, wired sides and environment."""
    _, espec, dspec, lsrc, rsrc = next(l for l in LAWS if l[0] == name)
    env = tenv(espec)
    delta = frozenset()
    for item in filter(None, dspec.split(",")):
        i, o = item.split("-")
        delta |= {(nm(i), nm(o))}
    lhs = internalize(parse_process(lsrc), env)
    rhs = internalize(parse_process(rsrc), env)
    return delta, lhs, rhs, env


def _law_game(name):
    delta, lhs, rhs, env = _law(name)
    return internal_bisim_n(delta, lhs, rhs, 6, env=env)


@pytest.mark.parametrize("depth", [4, 6, 8, 10])
def test_game_memo_is_keyed_by_position(depth):
    # the messages observers feed pile up, so the positions grow with the
    # depth; keyed by play, with each introduced name's round, the memo
    # held 11,948 entries at depth 10
    delta, lhs, rhs, env = _law("message-meets-companion-payload")
    game = _Game("internal", BisimConfig(depth=depth), env)
    assert game.run(state(lhs, delta), state(rhs, delta), depth) is True
    assert len(game.memo) <= 5 * depth


def test_position_keeps_introduced_and_bound_names_apart():
    # after the input on a, A1 sends the received channel and A2 what it
    # then reads on it; B is A1 with a tau in front of its output.  A key
    # that renamed %i#1 into the namespace of bound names could give
    # (A1, B) and (A2, B) one entry, so the proof of the first would
    # answer the second
    b = proc("a(x).x(y).new(z: i[unit], s)( s!() | z(w).c!(x) )")
    a1, a2 = proc("a(x).x(y).c!(x)"), proc("a(x).x(y).c!(y)")
    game = _Game("weak", BisimConfig(depth=4))
    assert game.run(state(a1, frozenset()), state(b, frozenset()), 4)
    assert game.run(state(a2, frozenset()), state(b, frozenset()), 4) is False
    i1 = Name("%i", 1)

    def after_a(p):
        return state(rename_free(p.body, {p.param: i1}), frozenset())

    env = {i1: ANY}
    keys = [game._position(after_a(p), after_a(b), env, frozenset())
            for p in (a1, a2)]
    assert keys[0] != keys[1] and all(k in game.memo for k in keys)


STEP_ONCE_LAWS = ["wire-subst-out-twice", "message-meets-companion-payload"]


@pytest.mark.parametrize("name", STEP_ONCE_LAWS)
def test_game_steps_each_state_once(monkeypatch, name):
    import awpi.equivalence
    import awpi.semantics
    step = awpi.semantics.composite_step
    calls = {}

    def counting(comp):
        calls[comp.key] = calls.get(comp.key, 0) + 1
        return step(comp)

    monkeypatch.setattr(awpi.semantics, "composite_step", counting)
    assert _law_game(name).equivalent
    # moves and tau closures each stepped a state again: up to 9 per key
    assert calls and max(calls.values()) == 1


@pytest.mark.parametrize("name", STEP_ONCE_LAWS)
def test_game_instantiates_each_input_once(monkeypatch, name):
    import awpi.equivalence
    from awpi.syntax import print_process, print_value
    subst = awpi.equivalence.substitute
    seen = []

    def recording(p, mapping):
        # the fresh %i#d an opaque input is fed and the %e#d, %k#d a bound
        # output's ends are named are renames; only values of
        # _ground_variants are recorded
        if not all(isinstance(v, VName) and v.name.base in ("%i", "%e", "%k")
                   for v in mapping.values()):
            seen.append((print_process(p), tuple(sorted(
                (str(k), print_value(v)) for k, v in mapping.items()))))
        return subst(p, mapping)

    monkeypatch.setattr(awpi.equivalence, "substitute", recording)
    assert _law_game(name).equivalent
    # each partner of an attacker state instantiated its input again:
    # up to 18 times per input
    assert seen and len(seen) == len(set(seen))


def test_game_feeds_each_choice_of_a_sum():
    # the observer feeds s both inl () and inr (), so the swapped branches
    # show; had the sum branch of _ground_variants given None, s would be
    # fed an opaque name, the case would sit stuck and the game would
    # equate them, and had it dropped a side, one attack would be missing
    env = tenv("s: i[unit + unit]; k: o[unit]; m: o[unit]")
    p = proc("s(x).case x { inl y -> k!() ; inr z -> m!() }")
    q = proc("s(x).case x { inl y -> m!() ; inr z -> k!() }")
    game = _Game("internal", BisimConfig(), env)
    attacks = game._attacks(game.space.state(p, frozenset()), 1, env)
    assert [a[0] for a in attacks] == ["s(inl ())", "s(inr ())"]
    v = internal_bisim_n(frozenset(), p, q, 3, env=env)
    assert v.distinguished
    assert v.witness[0].label in ("s(inl ())", "s(inr ())")
    assert replay_witness(p, q, v, frozenset(), env)


def _record_states(monkeypatch):
    """Patch the fragment table's ``state`` to record each (printed
    process, delta) that it makes a new state for."""
    import awpi.semantics
    from awpi.syntax import print_process
    build = awpi.semantics.Fragments.state
    built = []

    def recording(table, p, delta):
        before = len(table._states)
        out = build(table, p, delta)
        if len(table._states) > before:
            built.append((print_process(p), delta_key(frozenset(delta))))
        return out

    monkeypatch.setattr(awpi.semantics.Fragments, "state", recording)
    return built


def test_game_moves_build_no_state(monkeypatch):
    p = proc("a(x).k!() | c!() | new(d: i[unit], e)( m!(e) | d(y).k!() )")
    comp = state(p, frozenset())
    built = _record_states(monkeypatch)
    moves = _Game("internal", BisimConfig())._std_moves(comp)
    assert sorted(type(m[1]).__name__ for m in moves) == \
        ["BoundOut", "FreeOut", "In"]
    # building every move's target here made three states
    assert built == []


def test_game_feeds_an_input_once_across_play_depths(monkeypatch):
    env = tenv("a: i[unit]; k: o[unit]")
    comp = state(proc("a(x).k!()"), frozenset())
    game = _Game("internal", BisimConfig(), env)
    built = _record_states(monkeypatch)

    def played(d):
        _, _, _, i, value, _ = game._attacks(comp, d, env)[0]
        return game._target(comp, i, d, value)

    targets = [played(d) for d in (1, 2)]
    assert targets[0] is targets[1]
    # renaming the parameter to %i#1 and %i#2 before feeding made four
    # states, a renamed and a fed target at each depth
    assert built == [("k!()", "")]


def test_game_absorbs_a_message_once(monkeypatch):
    env = tenv("a: i[unit]; k: o[unit]")
    dfn = state(proc("new(d: i[unit], e)( d(y).k!() | e!() )"), frozenset())
    game = _Game("internal", BisimConfig(), env)
    attack = game._attacks(state(proc("a(x).k!()"), frozenset()), 1, env)[0]
    assert attack[0] == "a(())" and attack[4] == VUNIT
    built = _record_states(monkeypatch)
    first = list(game._responses(dfn, attack, 1, env))
    second = list(game._responses(dfn, attack, 1, env))
    assert [s.key for s, e in first] == [s.key for s, e in second]
    assert len(first) == 2 and all("%a#1!()" in print_process(s.process)
                                   for s, e in first)
    # rebuilding them on the second call made four absorption states
    absorbed = [b for b in built if "%a#1" in b[0]]
    assert len(absorbed) == 2 and len(set(absorbed)) == 2


def test_game_builds_one_target_for_two_copies_of_a_message(monkeypatch):
    comp = state(proc("k!() | k!() | a(x).0"), frozenset())
    game = _Game("internal", BisimConfig())
    outs = [i for _, mu, i in game._std_moves(comp)
            if isinstance(mu, FreeOut)]
    assert len(outs) == 2
    built = _record_states(monkeypatch)
    first, second = (game._target(comp, i, 1) for i in outs)
    assert first is second
    # keying by transition index built it twice
    assert built == [("a(_).0 | 0 | k!()", "")]


def test_game_builds_a_states_moves_once_across_play_depths():
    comp = state(proc("a(x).k!() | new(d: i[unit], e)( m!(e) | d(y).k!() )"),
                 frozenset())
    game = _Game("internal", BisimConfig())
    for d in (1, 2, 3):
        game._attacks(comp, d, {})
    # keyed by (state key, play depth) where a label introduces a name,
    # the state's moves were listed once per depth
    assert len(game._moves) == 1


def test_game_builds_congruent_tau_siblings_once(monkeypatch):
    # each e!() meets the replicated input: two tau targets that differ
    # only in which copy of the message is left
    comp = state(proc("new(d: i[unit], e)( e!() | e!() | !d(y).k!() )"),
                 frozenset())
    game = _Game("weak", BisimConfig())
    built = _record_states(monkeypatch)
    taus = [c2 for mu, c2 in game.space.step(comp) if isinstance(mu, Tau)]
    assert len(taus) == 2 and taus[0] is taus[1]
    # canonicalizing each target built both
    assert built == [("new(_: i[unit], _#1) (k!() | !_(_#2).k!() | 0 | _#1!())",
                      "")]


def _shuffled_par(atoms, rng):
    """``atoms`` joined by ``|`` in a random order and bracketing."""
    atoms = list(atoms)
    rng.shuffle(atoms)
    while len(atoms) > 1:
        i = rng.randrange(len(atoms) - 1)
        atoms[i:i + 2] = [Par(atoms[i], atoms[i + 1])]
    return atoms[0]


def test_game_state_table_keys_up_to_the_monoid_laws():
    from gen_typed import random_typed
    rng = random.Random(20261019)
    shuffled = 0
    for seed in range(200):
        _, p = random_typed(seed, size=4 + seed % 16)
        pairs, core = _split_chain(p)
        atoms = _par_list(core)
        more = atoms + [NIL] * rng.randrange(3)
        q = _shuffled_par(more, rng)
        for a, b, t in reversed(pairs):
            q = Res(a, b, t, q)
        game = _Game("weak", BisimConfig())
        first = game.space.state(p, frozenset())
        assert game.space.state(q, frozenset()) is first
        assert first.pkey == fragment_key(q)
        shuffled += len(atoms) > 1
    assert shuffled >= 50


def test_a_step_canonicalizes_only_the_fragment_it_touched(monkeypatch):
    # bench/corpus.client_server(4): a served client leaves the server's
    # fragment, and its own step canonicalizes no other
    client = "new(r: i[unit], ro)( so!(ro) | r(x).ok!() )"
    p = proc("success ok; new(s: i[o[unit]], so)( !s(r).r!() | "
             + " | ".join([client] * 4) + " )")
    space = _Game("weak", BisimConfig()).space
    served = next(t for mu, t in space.step(space.state(p, frozenset()))
                  if isinstance(mu, Tau))
    big, alone = sorted(_par_list(served.process),
                        key=lambda f: -len(print_process(f)))
    assert print_process(alone) == \
        "new(_: i[unit], _#1) (_(_#2).ok!() | _#1!())"
    steps = [c for mu, c in composite_step(served) if isinstance(mu, Tau)
             and any(f is big for f in _par_list(c.process))]
    assert len(steps) == 1
    calls = []

    def recording(q):
        calls.append(print_process(q))
        return canonicalize(q)

    monkeypatch.setattr(awpi.semantics, "canonicalize", recording)
    after = space.state(steps[0].process, steps[0].delta)
    # canonicalizing the state canonicalized the server's fragment too
    assert calls == ["ok!()"]
    assert any(f is big for f in _par_list(after.process))


def test_game_stops_at_the_first_winning_attack(monkeypatch):
    env = tenv("a: o[unit]; c: o[unit]")
    built = _record_states(monkeypatch)
    v = internal_bisim_n(frozenset(), proc("a!() | c!()"), proc("0"), 3,
                         env=env)
    assert v.distinguished and v.witness[0].label == "a!()"
    assert ("0 | c!()", "") in built
    # building every attack's target first built a!()'s sibling too
    assert ("a!() | 0", "") not in built


def test_game_stops_at_the_first_proved_answer(monkeypatch):
    # at depth 1 every first answer is proved; the defender's tau leads to
    # k!() | k!() | m!(), whose k!() and m!() moves answer weakly as well
    p = proc("k!() | m!()")
    q = proc("k!() | m!() | new(s: i[unit], t)( t!() | s(y).k!() )")
    built = _record_states(monkeypatch)
    assert weak_bisim(p, q, cfg=BisimConfig(depth=1)).equivalent
    # building every answer first built both later weak answers' targets
    assert ("0 | k!() | m!()", "") not in built
    assert ("k!() | k!() | 0", "") not in built


def test_mutated_wire_distinguished_and_witnessed():
    env = tenv("a: o[unit]; k: o[unit]; c: o[o[unit]]")
    lhs = internalize(
        parse_process("new(bi: i[unit], b)( c!(b) | !bi(x).k!(x) )"), env)
    rhs = internalize(parse_process("c!(a)"), env)
    v = internal_bisim_n(frozenset(), lhs, rhs, 6, env=env)
    assert v.distinguished
    assert v.witness[-1].defender_after is None
    assert replay_witness(lhs, rhs, v, env=env)


def test_internal_game_rejects_untranslated_terms():
    env = tenv("a: o[unit]; c: o[o[unit]]")
    with pytest.raises(NotInternal):
        internal_bisim_n(frozenset(), parse_process("c!(a)"),
                         parse_process("c!(a)"), 3, env=env)


def test_internal_game_rejects_ill_typed_terms():
    env = tenv("a: i[unit]")
    with pytest.raises(TypeMismatch):
        internal_bisim_n(frozenset(), parse_process("a!()"),
                         parse_process("a!()"), 3, env=env)


# ---------------------------------------------------------------------------
# the reduced internal game: settled states, requests served first


def _rule_off(monkeypatch):
    """Play the internal game on the full LTS, without settling."""
    import awpi.equivalence
    monkeypatch.setattr(awpi.equivalence, "_internal_steps",
                        awpi.equivalence._lts)
    monkeypatch.setattr(awpi.equivalence, "settle", None)


def _record_priority(monkeypatch):
    """Record each (state, transitions) that the request rule reduced to
    one tau: the internal game's transitions, found without ``_lts``."""
    import awpi.equivalence
    steps, lts = awpi.equivalence._internal_steps, awpi.equivalence._lts
    fired, full = [], []

    def recording(space, comp):
        del full[:]
        out = steps(space, comp)
        if not full:
            fired.append((comp, out))
        return out

    def counted(space, comp):
        full.append(comp)
        return lts(space, comp)

    monkeypatch.setattr(awpi.equivalence, "_internal_steps", recording)
    monkeypatch.setattr(awpi.equivalence, "_lts", counted)
    return fired


def test_equal_messages_build_one_request_target(monkeypatch):
    # each request to the growing server adds a message, so none lowers the
    # count and every distinct target is judged; the three equal messages
    # share one builder, where each built its own congruent target
    import awpi.equivalence
    import awpi.semantics
    request, calls = awpi.semantics._request, []

    def counted(*args):
        calls.append(args)
        return request(*args)

    monkeypatch.setattr(awpi.semantics, "_request", counted)
    space = awpi.semantics.Fragments(awpi.equivalence._internal_steps,
                                     awpi.semantics.settle)
    comp = space.state(parse_process(
        "new(a: i[unit], b)( b!() | b!() | b!() | !a(x).( b!() | b!() ) )"),
        frozenset())
    steps = space.step(comp)
    assert len(calls) == 1
    assert [str(mu) for mu, _ in steps] == ["tau", "tau", "tau"]
    reqs = awpi.semantics.requests(comp.process, comp.delta)
    assert len(reqs) == 3 and len(set(reqs)) == 1


# a server fed by its own requests: it sends as many as it serves (the
# ring and the forwarder) or more (the growing server), so a rule without
# the strict decrease would play its tau forever and never show k!()
UNSETTLED_SERVERS = [
    ("growing", "new(a: i[unit], b)( b!() | !a(x).( b!() | b!() ) )"),
    ("ring", "new(a: i[unit], b) new(c: i[unit], d)"
             "( b!() | !a(x).d!(x) | !c(y).b!(y) )"),
    ("forwarder", "new(a: i[unit], b)( b!() | !a(x).b!(x) )"),
]


@pytest.mark.parametrize("name,src", UNSETTLED_SERVERS,
                         ids=[s[0] for s in UNSETTLED_SERVERS])
def test_a_request_that_never_falls_keeps_every_move(name, src):
    env = tenv("k: o[unit]")
    q = parse_process(src)
    p = Par(q, parse_process("k!()"))
    # without the strict decrease, each of the three was equivalent
    if name == "growing":
        # the defender's closure grows without end, so no answer to k!()
        # is ruled out at any tau budget; a small one keeps the states small
        v = internal_bisim_n(frozenset(), p, q, 4, env=env,
                             cfg=BisimConfig(tau_budget=20))
        assert v.inconclusive and v.truncated
    else:
        v = internal_bisim_n(frozenset(), p, q, 4, env=env)
        assert v.distinguished and v.witness[0].label == "k!()"
        assert replay_witness(p, q, v, env=env)
    game = _Game("internal", BisimConfig(), env)
    assert "k!()" in [str(mu) for mu, _ in
                      game.space.step(state(p, frozenset()))]


def test_requests_are_counted_once_per_distinct_state(monkeypatch):
    # each request of the growing server leads to one congruent target;
    # a state's requests are counted when it is stepped, and a target's
    # once when first judged
    import awpi.equivalence
    from collections import Counter
    counted = Counter()
    original = awpi.equivalence.requests

    def counting(p, delta):
        counted[p] += 1
        return original(p, delta)

    monkeypatch.setattr(awpi.equivalence, "requests", counting)
    q = parse_process(UNSETTLED_SERVERS[0][1])
    p = Par(q, parse_process("k!()"))
    v = internal_bisim_n(frozenset(), p, q, 1, env=tenv("k: o[unit]"),
                         cfg=BisimConfig(tau_budget=20))
    assert v.inconclusive and len(counted) > 1
    assert max(counted.values()) <= 2


def test_a_game_without_an_environment_keeps_the_full_lts():
    # two receivers on a break property (1), which only a typed game
    # checks; serving b!() to the server first hid the one-shot receiver's
    # m!(), and the pair came out equivalent
    p = proc("new(a: i[unit], b)( !a(x).k!() | a(y).m!() | b!() )")
    q = proc("new(a: i[unit], b)( !a(x).k!() | a(y).m!() ) | k!()")
    v = internal_bisim_n(frozenset(), p, q, 4)
    assert v.distinguished and replay_witness(p, q, v)


def test_laws_hold_in_the_full_game_too(monkeypatch):
    # test_law plays them in the reduced game
    _rule_off(monkeypatch)
    for name, *_ in LAWS:
        assert _law_game(name).equivalent, name


def _without_first_atom(seed):
    """A generated program and the same without its first top-level atom,
    both internalized, with their environment."""
    from gen_typed import random_typed
    from awpi.syntax import _chain, _par
    env, p = random_typed(seed, size=6)
    pairs, core = _split_chain(p)
    q = _chain(pairs, _par(_par_list(core)[1:]))
    return env, internalize(p, env), internalize(q, env)


def test_reduced_game_distinguishes_what_the_full_game_does(monkeypatch):
    # a distinction may take the reduced game a round more or fewer, so a
    # depth-4 distinction of either game must be one of the other at 6
    seeds = range(120)
    fired = _record_priority(monkeypatch)
    verdicts, reduced = {}, set()
    for seed in seeds:
        env, p, q = _without_first_atom(seed)
        del fired[:]
        for n in (4, 6):
            verdicts[seed, "on", n] = internal_bisim_n(
                frozenset(), p, q, n, env=env).result
        if fired:
            reduced.add(seed)
    monkeypatch.undo()
    _rule_off(monkeypatch)
    for seed in seeds:
        env, p, q = _without_first_atom(seed)
        for n in (4, 6):
            verdicts[seed, "off", n] = internal_bisim_n(
                frozenset(), p, q, n, env=env).result
    inconclusive = [k for k, v in verdicts.items() if v == INCONCLUSIVE]
    print(f"{len(inconclusive)} inconclusive of {len(verdicts)} games; "
          f"the rule fired on {len(reduced)} of {len(seeds)} pairs")
    for seed in seeds:
        for one, other in (("on", "off"), ("off", "on")):
            if verdicts[seed, one, 4] == DISTINGUISHED:
                assert verdicts[seed, other, 6] == DISTINGUISHED, seed
    assert len(reduced) >= 10
    assert sum(v == DISTINGUISHED for v in verdicts.values()) >= 100


def test_a_prioritised_tau_is_a_tau_of_the_full_lts(monkeypatch):
    from awpi.semantics import composite_step, settle
    from test_encodings import BETA_ETA, _encode_pair
    fired = _record_priority(monkeypatch)
    # the law, beta/eta and distinguishing corpora
    for name, *_ in LAWS:
        _law_game(name)
    unequal = ({}, "\\x:o. \\y:o. x", "\\x:o. \\y:o. y", "o -> o -> o")
    for envs, lsrc, rsrc, tsrc in [row[1:] for row in BETA_ETA] + [unequal]:
        le, re_, env, _, _ = _encode_pair(envs, lsrc, rsrc, tsrc)
        internal_bisim_n(frozenset(), internalize(le, env),
                         internalize(re_, env), 6, env=env)
    env = tenv("a: o[unit]; k: o[unit]; c: o[o[unit]]")
    internal_bisim_n(frozenset(), internalize(parse_process(
        "new(bi: i[unit], b)( c!(b) | !bi(x).k!(x) )"), env),
        internalize(parse_process("c!(a)"), env), 6, env=env)
    assert len(fired) >= 20
    for comp, out in fired:
        (mu, target), = out
        taus = {state(settle(c.process), c.delta).key
                for nu, c in composite_step(comp) if isinstance(nu, Tau)}
        assert isinstance(mu, Tau) and target.key in taus


# ---------------------------------------------------------------------------
# stratification


def test_strata_are_anti_monotone():
    env = tenv("a: i[unit]")
    p = proc("success ok; success err; a(x).ok!()")
    q = proc("success ok; success err; a(x).err!()")
    results = []
    for n in range(0, 7):
        results.append(internal_bisim_n(frozenset(), p, q, n, env=env))
    # once distinguished, distinguished at every deeper stratum
    flipped = [v.distinguished for v in results]
    assert flipped == sorted(flipped)
    assert results[0].equivalent
    assert results[-1].distinguished


def test_internal_game_rejects_a_negative_depth():
    k = parse_process("k!()")
    env = tenv("k: o[unit]")
    with pytest.raises(ValueError, match="depth must be >= 0"):
        internal_bisim_n(frozenset(), k, parse_process("k!() | k!()"), -1,
                         env=env)


@pytest.mark.parametrize("n", [0, 6])
def test_internal_bounds_name_the_depth_played(n):
    env = tenv("k: o[unit]")
    cfg = BisimConfig(depth=3, tau_budget=50, state_budget=70)
    v = internal_bisim_n(frozenset(), parse_process("k!()"),
                         parse_process("k!() | k!()"), n, env=env, cfg=cfg)
    assert v.bounds == {"method": "internal", "depth": n, "tau_budget": 50,
                        "state_budget": 70}
    assert v.result == ("equivalent" if n == 0 else "distinguished")


def test_depth_zero_relates_everything():
    env = tenv("a: i[unit]")
    p = proc("success ok; a(x).ok!()")
    assert internal_bisim_n(frozenset(), p, parse_process("0"), 0,
                            env=env).equivalent


def test_strong_equivalence_implies_weak():
    pairs = [
        ("success ok; ok!() | 0", "success ok; ok!()"),
        ("success ok; success err; ok!() | err!()",
         "success ok; success err; err!() | ok!()"),
    ]
    for lsrc, rsrc in pairs:
        p, q = proc(lsrc), proc(rsrc)
        assert strong_bisim(p, q).equivalent
        assert weak_bisim(p, q).equivalent


def test_strong_refinement_verdict_is_exact_on_finite_graphs():
    p = proc("success ok; new(a: i[unit], b)( a(x).ok!() | b!() )")
    v = strong_bisim(p, p)
    assert v.equivalent
    assert v.bounds.get("exact")


def test_strong_bisim_explores_once_when_start_states_share_a_key(monkeypatch):
    from awpi.semantics import _explore, explore
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return _explore(*args, **kwargs)

    monkeypatch.setattr("awpi.equivalence._explore", counting)
    client = "new(r{0}: i[unit], ro{0})( so!(ro{0}) | r{0}(x).ok!() )"
    p = proc("success ok; new(s: i[o[unit]], so)( !s(r).r!() | "
             + client.format(1) + " | " + client.format(2) + " )")
    q = proc("success ok; new(t: i[o[unit]], to)( "
             + client.format(3).replace("so!", "to!") + " | !t(r).r!() | "
             + client.format(4).replace("so!", "to!") + " )")
    v = strong_bisim(p, q)
    assert len(calls) == 1
    assert v.equivalent
    budget = BisimConfig().state_budget
    nodes = len(explore(frozenset(), p, depth_bound=budget,
                        state_bound=budget).nodes)
    assert v.bounds == {"method": "strong", "exact": True, "states": 2 * nodes}


def test_strong_distinction_found_through_refinement_fallback():
    p = proc("success ok; new(a: i[unit], b)( a(x).( ok!() | ok!() ) | b!() )")
    q = proc("success ok; new(a: i[unit], b)( a(x).ok!() | b!() )")
    v = strong_bisim(p, q)
    assert v.distinguished
    assert replay_witness(p, q, v)


def test_strong_bisim_steps_each_state_once(monkeypatch):
    import awpi.semantics
    step = awpi.semantics.composite_step
    calls = {}

    def counting(comp):
        calls[comp.key] = calls.get(comp.key, 0) + 1
        return step(comp)

    monkeypatch.setattr(awpi.semantics, "composite_step", counting)
    p = proc("success ok; new(a: i[unit], b)( a(x).( ok!() | ok!() ) | b!() )")
    q = proc("success ok; new(a: i[unit], b)( a(x).ok!() | b!() )")
    assert strong_bisim(p, q).distinguished
    # a witness game that steps the explored states again makes 12 steps
    # of these 5 keys
    assert calls and max(calls.values()) == 1


def _strong_pair(n, m):
    """``!a(x).ok!()`` fed by n messages against m one-shot copies of
    ``a(x).ok!()``, each fed by its own message: strongly bisimilar, and
    not congruent, exactly when n == m."""
    p = proc("success ok; new(a: i[unit], b)( !a(x).ok!() | "
             + " | ".join(["b!()"] * n) + " )")
    q = proc("success ok; "
             + " | ".join(["new(a: i[unit], b)( a(x).ok!() | b!() )"] * m))
    return p, q


# (left, right, states of both graphs when bisimilar, else None)
STRONG_PAIRS = [_strong_pair(n, n) + (s,) for n, s in ((2, 12), (3, 20),
                                                        (4, 30))] + [
    _strong_pair(2, 3) + (None,), _strong_pair(3, 2) + (None,),
    (proc("success ok; new(a: i[unit], b)( a(x).( ok!() | ok!() ) | b!() )"),
     proc("success ok; new(a: i[unit], b)( a(x).ok!() | b!() )"), None),
    (proc("success ok; new(a: i[unit], b)( a(x).ok!() | b!() )"),
     proc("success ok; ok!()"), None),
]


@pytest.mark.parametrize("p,q,states", STRONG_PAIRS)
def test_strong_bisim_agrees_with_partition_refinement(monkeypatch, p, q,
                                                       states):
    assert canonicalize(p).key != canonicalize(q).key
    calls = []

    def counting(x):
        calls.append(x)
        return canonicalize(x)

    monkeypatch.setattr("awpi.semantics.canonicalize", counting)
    graphs = _stable_graphs(_Game("strong", BisimConfig()).space, p, q,
                            frozenset(), BisimConfig())
    explored = len(calls)
    del calls[:]
    v = strong_bisim(p, q)
    # refinement, and the witness game over the table the graphs were
    # explored through, build no state again
    assert len(calls) == explored
    monkeypatch.undo()

    ga, gb = graphs
    nodes = ([("a", i) for i in range(len(ga.nodes))]
             + [("b", j) for j in range(len(gb.nodes))])
    edges = [((tag, s), mu, (tag, t))
             for tag, g in (("a", ga), ("b", gb)) for s, mu, t in g.edges]
    block = bisimulation_classes(nodes, edges)
    bisimilar = block[("a", ga.root)] == block[("b", gb.root)]
    assert bisimilar == (states is not None)
    if bisimilar:
        assert v.bounds == {"method": "strong", "exact": True,
                            "states": states}
    else:
        assert v.distinguished
        assert replay_witness(p, q, v)


def _counters(p_sizes, q_sizes):
    """``!a(x).o<i>!()`` counters fed by ``p_sizes[i]`` messages against
    ``q_sizes[i]`` one-shot copies of ``a(x).o<i>!()``, each side beside a
    message that a replicated input keeps re-sending, so every state has a
    tau self-loop and no play of the game ever ends."""
    loop = "new(a: i[unit], b)( !a(x).b!() | b!() )"
    head = "".join(f"success o{i}; " for i in range(len(p_sizes)))
    p = proc(head + " | ".join(
        f"new(a: i[unit], b)( !a(x).o{i}!() | " + " | ".join(["b!()"] * n)
        + " )" for i, n in enumerate(p_sizes)) + " | " + loop)
    q = proc(head + " | ".join(
        f"new(a: i[unit], b)( a(x).o{i}!() | b!() )"
        for i, n in enumerate(q_sizes) for _ in range(n)) + " | " + loop)
    return p, q


def test_strong_bisim_is_exact_on_a_large_cyclic_pair():
    # four counters of sizes 10, 6, 3 and 3: 540 states a side
    p, q = _counters((3, 2, 1, 1), (3, 2, 1, 1))
    assert canonicalize(p).key != canonicalize(q).key
    v = strong_bisim(p, q)
    assert v.bounds == {"method": "strong", "exact": True, "states": 1080}


def test_strong_witness_game_does_not_recurse_per_round():
    # the witness game on the refined graphs is played to depth 161; a
    # game that recursed once per round raised RecursionError here
    p, q = _counters((3, 2), (3, 3))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        v = strong_bisim(p, q)
    finally:
        sys.setrecursionlimit(limit)
    assert v.distinguished
    assert replay_witness(p, q, v)
    # the witness walk starts at the least depth the memo refutes the pair
    # at, not at 161: walked from 161 the witness had 157 steps
    assert len(v.witness) <= 4


# ---------------------------------------------------------------------------
# witness integrity


def test_witness_replay_rejects_tampering():
    p = proc("success ok; ok!()")
    q = proc("success err; err!()")
    for v in (weak_bisim(p, q), barbed_bisim(p, q)):
        assert v.distinguished
        assert replay_witness(p, q, v)
        # swapping the comparands invalidates the trace
        assert not replay_witness(q, p, v)
    # a barb the defender shows ends the play: a trace that goes on from
    # there, here to "distinguish" a process from itself, is rejected
    p = proc("success ok; success err; "
             "ok!() | new(a: i[unit], b)( a(x).err!() | a(x).0 | b!() )")
    start = state(p, frozenset())
    shows_err, silent = sorted(
        (c for _, c in _Game("barbed", BisimConfig()).space.step(start)),
        key=lambda c: "err" not in c.key)
    forged = Verdict(DISTINGUISHED, (
        WitnessStep("left", "ok!()", start.key, silent.key, ""),
        WitnessStep("left", "tau", shows_err.key, silent.key, ""),
        WitnessStep("left", "err!()", shows_err.key, None, "")),
        {"method": "barbed"})
    assert not replay_witness(p, p, forged)
    # a witness names what a play introduces by the round it was introduced
    # in: moving a name to another round's index in one step breaks it
    env = tenv("a: o[unit]; k: o[unit]; c: o[o[unit]]")
    lhs = internalize(
        parse_process("new(bi: i[unit], b)( c!(b) | !bi(x).k!(x) )"), env)
    rhs = internalize(parse_process("c!(a)"), env)
    v = internal_bisim_n(frozenset(), lhs, rhs, 6, env=env)
    i = next(i for i, s in enumerate(v.witness) if "%k#1" in s.label)
    assert i > 0 and replay_witness(lhs, rhs, v, env=env)
    moved = dataclasses.replace(v.witness[i], **{
        f.name: getattr(v.witness[i], f.name).replace("%k#1", "%k#2")
        for f in dataclasses.fields(WitnessStep)
        if getattr(v.witness[i], f.name) is not None})
    tampered = dataclasses.replace(
        v, witness=v.witness[:i] + (moved,) + v.witness[i + 1:])
    assert not replay_witness(lhs, rhs, tampered, env=env)


def test_witness_replay_needs_a_distinguished_verdict():
    p = proc("success ok; ok!()")
    v = weak_bisim(p, p)
    assert v.equivalent
    assert not replay_witness(p, p, v)


# ---------------------------------------------------------------------------
# agreement with the erased semantics


def _api_weak_taus(p, budget=500):
    seen = {api.alpha_key(p): p}
    frontier = [p]
    while frontier and len(seen) < budget:
        cur = frontier.pop()
        for mu, q in api.lts_step(cur):
            if not isinstance(mu, api.TauLabel):
                continue
            k = api.alpha_key(q)
            if k not in seen:
                seen[k] = q
                frontier.append(q)
    return list(seen.values())


def _api_weak_game(p, q, n):
    """Independent bounded weak game over the erased transition system,
    for closed terms whose only visible actions are outputs."""
    if n == 0:
        return True
    for a, b in ((p, q), (q, p)):
        for mu, a2 in api.lts_step(a):
            ok = False
            if isinstance(mu, api.TauLabel):
                cands = _api_weak_taus(b)
            else:
                cands = []
                for b1 in _api_weak_taus(b):
                    for mv, b2 in api.lts_step(b1):
                        if isinstance(mv, api.TauLabel) or repr(mv) != repr(mu):
                            continue
                        cands.extend(_api_weak_taus(b2))
            for b2 in cands:
                swap = (a2, b2) if a is p else (b2, a2)
                if _api_weak_game(swap[0], swap[1], n - 1):
                    ok = True
                    break
            if not ok:
                return False
    return True


def test_weak_verdicts_agree_with_erased_oracle():
    fixtures = [
        ("success ok; new(a: i[unit], b)( a(x).ok!() | b!() )",
         "success ok; ok!()", True),
        ("success ok; ok!()", "success err; err!()", False),
        ("success ok; success err; ok!() | err!()",
         "success ok; success err; err!() | ok!()", True),
    ]
    for lsrc, rsrc, expect in fixtures:
        p, q = proc(lsrc), proc(rsrc)
        v = weak_bisim(p, q)
        assert v.equivalent == expect
        ep = erase_to_api(Composite(p, frozenset()))
        eq = erase_to_api(Composite(q, frozenset()))
        assert _api_weak_game(ep, eq, 4) == expect

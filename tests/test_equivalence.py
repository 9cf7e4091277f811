"""Equivalence checkers: games, the algebraic law corpus, witnesses."""

import os
import subprocess
import sys

import pytest

import awpi
from awpi.syntax import (
    Name, canonicalize, parse_file, parse_process, parse_vtype,
)
from awpi.internal import internalize
from awpi.semantics import Composite, delta_key, erase_to_api, state
from awpi import api
from awpi.equivalence import (
    BisimConfig, NotClosed, NotInternal, TypeMismatch, _Game, barbed_bisim,
    internal_bisim_n, replay_witness, strong_bisim, weak_bisim, weak_sim,
)


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
    reach, truncated = _Game("weak", BisimConfig())._closure(state(p, delta))
    assert len(reach) == 3 and not truncated
    for s in reach:
        assert s.key == canonicalize(s.process).key + "@" + delta_key(s.delta)


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
    from awpi.semantics import explore
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return explore(*args, **kwargs)

    monkeypatch.setattr("awpi.equivalence.explore", counting)
    client = "new(r{0}: i[unit], ro{0})( so!(ro{0}) | r{0}(x).ok!() )"
    p = proc("success ok; new(s: i[o[unit]], so)( !s(r).r!() | "
             + client.format(1) + " | " + client.format(2) + " )")
    q = proc("success ok; new(t: i[o[unit]], to)( "
             + client.format(3).replace("so!", "to!") + " | !t(r).r!() | "
             + client.format(4).replace("so!", "to!") + " )")
    v = strong_bisim(p, q)
    assert len(calls) == 1
    assert v.equivalent
    budget = BisimConfig(kind="strong").state_budget
    nodes = len(explore(frozenset(), p, depth_bound=budget,
                        state_bound=budget).nodes)
    assert v.bounds == {"method": "strong", "exact": True, "states": 2 * nodes}


def test_strong_distinction_found_through_refinement_fallback():
    p = proc("success ok; new(a: i[unit], b)( a(x).( ok!() | ok!() ) | b!() )")
    q = proc("success ok; new(a: i[unit], b)( a(x).ok!() | b!() )")
    v = strong_bisim(p, q)
    assert v.distinguished
    assert replay_witness(p, q, v)


# ---------------------------------------------------------------------------
# witness integrity


def test_witness_replay_rejects_tampering():
    p = proc("success ok; ok!()")
    q = proc("success err; err!()")
    v = weak_bisim(p, q)
    assert v.distinguished
    assert replay_witness(p, q, v)
    # swapping the comparands invalidates the trace
    assert not replay_witness(q, p, v)


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

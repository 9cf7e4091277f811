import pytest

from awpi.syntax import (
    Case, ChanType, Input, LetTuple, Name, Nil, Output, Par, RepInput, Res,
    VName, VUNIT, canonical_process, canonicalize, congruent, free_names,
    parse_file, parse_process, parse_vtype, substitute_value,
)
from awpi.typecheck import ANY, dual, typecheck
from awpi.internal import WireSpec, internalize, is_internal, wire
from awpi import semantics as S


def nm(s):
    return Name(s)


def tenv(spec):
    """Parse "a: i[unit]; b: o[unit]" into a typing environment."""
    env = {}
    for part in spec.split(";"):
        if not part.strip():
            continue
        n, t = part.split(":", 1)
        env[nm(n.strip())] = parse_vtype(t.strip())
    return env


def image_of(envsrc, src):
    env = tenv(envsrc)
    return env, internalize(parse_process(src), env)


def same(p, expected_src):
    return congruent(p, parse_process(expected_src))


# ---------------------------------------------------------------------------
# wire construction


def test_wire_is_replicated_forwarder():
    w = wire(WireSpec(nm("a"), nm("b"), parse_vtype("unit")))
    assert same(w, "!a(x).b!(x)")
    assert isinstance(w, RepInput)


def test_linear_wire_fires_once():
    w = wire(WireSpec(nm("a"), nm("b"), parse_vtype("unit"), linear=True))
    assert same(w, "a(x).b!(x)")
    assert not isinstance(w, RepInput)


def test_wire_env_accepts_dual_ends():
    env = tenv("a: i[unit]; b: o[unit]")
    w = wire(WireSpec(nm("a"), nm("b"), parse_vtype("unit")), env)
    assert same(w, "!a(x).b!(x)")


def test_wire_env_rejects_mismatched_ends():
    env = tenv("a: o[unit]; b: o[unit]")
    with pytest.raises(ValueError):
        wire(WireSpec(nm("a"), nm("b"), parse_vtype("unit")), env)


def test_wire_graph_has_single_input_edge():
    w = parse_process("!a(x).b!(x)")
    g = S.explore(frozenset(), w, depth_bound=1, state_bound=50)
    assert len(g.edges) == 1
    ((src, mu, dst),) = g.edges
    assert src == g.root and isinstance(mu, S.In) and mu.subject == nm("a")


# ---------------------------------------------------------------------------
# translation images, one fixture per payload shape


def test_output_of_out_name_exports_fresh_out_end():
    env, ip = image_of("c: o[o[unit]]; a: o[unit]", "c!(a)")
    assert same(ip, "new(d: i[unit], d') ( c!(d') | !d(x).a!(x) )")


def test_output_of_in_name_exports_fresh_in_end():
    env, ip = image_of("c: o[i[unit]]; a: i[unit]", "c!(a)")
    assert same(ip, "new(d: i[unit], d') ( c!(d) | !a(x).d'!(x) )")


def test_linear_payload_gets_single_shot_wire():
    env, ip = image_of("c: o[lo[unit]]; a: lo[unit]", "c!(a)")
    assert same(ip, "new(d: li[unit], d') ( c!(d') | d(x).a!(x) )")


def test_channel_free_payload_left_untouched():
    env, ip = image_of("c: o[unit]", "c!(())")
    assert same(ip, "c!(())")


def test_tuple_payload_wired_componentwise():
    env, ip = image_of("c: o[unit * o[unit]]; b: o[unit]", "c!((), b)")
    assert same(ip, "new(d: i[unit], d') ( c!((), d') | !d(x).b!(x) )")


def test_sum_payload_wired_inside_tag():
    env, ip = image_of("c: o[o[unit] + unit]; b: o[unit]", "c!(inl b)")
    assert same(ip, "new(d: i[unit], d') ( c!(inl d') | !d(x).b!(x) )")


def test_higher_order_payload_expands_recursively():
    env, ip = image_of("c: o[o[o[unit]]]; a: o[o[unit]]", "c!(a)")
    expected = """
    new(d: i[o[unit]], d') (
      c!(d') |
      !d(y).new(e: i[unit], e') ( a!(e') | !e(x).y!(x) )
    )
    """
    assert same(ip, expected)


def test_input_prefix_translated_homomorphically():
    env, ip = image_of("a: i[o[unit]]; c: o[o[unit]]", "a(x).c!(x)")
    assert same(ip, "a(x).new(d: i[unit], d') ( c!(d') | !d(y).x!(y) )")


def test_let_bound_channel_payload_wired():
    env, ip = image_of("c: o[o[unit]]; b: o[unit]",
                       "let (u, v) = ((), b) in c!(v)")
    expected = "let (u, v) = ((), b) in new(d: i[unit], d') ( c!(d') | !d(x).v!(x) )"
    assert same(ip, expected)


def test_case_branch_payload_wired_under_literal_scrutinee():
    env, ip = image_of("c: o[o[unit]]; b: o[unit]",
                       "case inl b { inl x -> c!(x) ; inr y -> 0 }")
    expected = """
    case inl b {
      inl x -> new(d: i[unit], d') ( c!(d') | !d(z).x!(z) ) ;
      inr y -> 0
    }
    """
    assert same(ip, expected)


FIXTURES = [
    ("c: o[o[unit]]; a: o[unit]", "c!(a)"),
    ("c: o[i[unit]]; a: i[unit]", "c!(a)"),
    ("c: o[lo[unit]]; a: lo[unit]", "c!(a)"),
    ("c: o[unit]", "c!(())"),
    ("c: o[unit * o[unit]]; b: o[unit]", "c!((), b)"),
    ("c: o[o[unit] + unit]; b: o[unit]", "c!(inl b)"),
    ("c: o[o[o[unit]]]; a: o[o[unit]]", "c!(a)"),
    ("a: i[o[unit]]; c: o[o[unit]]", "a(x).c!(x)"),
    ("c: o[o[unit]]; b: o[unit]", "let (u, v) = ((), b) in c!(v)"),
    ("c: o[o[unit]]; b: o[unit]",
     "case inl b { inl x -> c!(x) ; inr y -> 0 }"),
]


@pytest.mark.parametrize("envsrc,src", FIXTURES)
def test_images_typecheck(envsrc, src):
    env, ip = image_of(envsrc, src)
    verdict = typecheck(env, ip)
    assert verdict.ok, verdict.error


@pytest.mark.parametrize("envsrc,src", FIXTURES)
def test_images_are_internal_and_stay_so_under_canonicalization(envsrc, src):
    env, ip = image_of(envsrc, src)
    assert is_internal(ip, env)
    assert is_internal(canonical_process(ip), env)


def test_reapplication_keeps_typing_and_internality():
    # not idempotent: fresh export ends are channel typed and get re-wired,
    # but the result must stay well typed and internal
    for envsrc, src in FIXTURES:
        env, ip = image_of(envsrc, src)
        again = internalize(ip, env)
        assert typecheck(env, again).ok
        assert is_internal(again, env)


# ---------------------------------------------------------------------------
# the internality predicate itself


def test_case_on_a_received_sum_types_its_branches():
    # x is received at type o[unit] + unit, so y is an output channel and
    # c!(y) exports it: not internal until wired; had a name scrutinee's
    # branches been left untyped, y would pass unseen and nothing be wired
    env = tenv("s: i[o[unit] + unit]; c: o[o[unit]]")
    p = parse_process("s(x).case x { inl y -> c!(y) ; inr z -> 0 }")
    assert not is_internal(p, env)
    ip = internalize(p, env)
    assert ip != p and is_internal(ip, env) and typecheck(env, ip).ok


def test_free_output_of_channel_name_is_not_internal():
    env = tenv("c: o[o[unit]]; a: o[unit]")
    assert not is_internal(parse_process("c!(a)"), env)


def test_export_without_wire_is_not_internal():
    env = tenv("c: o[o[unit]]")
    p = parse_process("new(d: i[unit], d') c!(d')")
    assert not is_internal(p, env)


def test_wire_listening_on_exported_end_is_not_internal():
    # exports the input end d but nothing forwards through the companion d'
    env = tenv("c: o[i[unit]]; a: o[unit]")
    p = parse_process("new(d: i[unit], d') ( c!(d) | !d(x).a!(x) )")
    assert not is_internal(p, env)


def test_channel_free_outputs_are_internal():
    env = tenv("c: o[unit]; e: o[unit + unit]")
    assert is_internal(parse_process("c!(()) | e!(inr ())"), env)


def test_success_outputs_do_not_break_internality():
    p = parse_process("ok!() | a(x).ok!()", success=("ok",))
    assert is_internal(p, tenv("a: i[unit]"))


# ---------------------------------------------------------------------------
# behaviour: a wired image drives the same observable as the raw output


def test_image_preserves_weak_barbs_through_the_wire():
    src = """
    success ok;
    new(ai: i[unit], a) new(ci: i[o[unit]], c) (
      c!(a) | ci(x).x!() | ai(y).ok!()
    )
    """
    raw = parse_file(src).process
    image = internalize(raw, {})
    assert not is_internal(raw, {})
    assert is_internal(image, {})
    assert {str(n) for n in S.weak_barbs(raw, budget=200)} == {"ok"}
    assert {str(n) for n in S.weak_barbs(image, budget=200)} == {"ok"}


# ---------------------------------------------------------------------------
# generated coverage: typing, internality, and export freshness along runs

_SCAN = {}


def _scan():
    """Explore internalized generated terms three levels deep.

    Collects, across all reachable transitions, the bound outputs seen and
    any violation of the two run invariants: targets of a bound output must
    not retain the exported name free, and every target must stay internal.
    """
    if _SCAN:
        return _SCAN
    from gen_typed import random_typed

    bout = 0
    duality_breaks = []
    internality_breaks = []
    typing_breaks = []
    for seed in range(1600):
        env, p = random_typed(seed, size=12)
        ip = canonical_process(internalize(p, env))
        if not typecheck(env, ip).ok:
            typing_breaks.append(seed)
            continue
        frontier = [(S.Composite(ip, frozenset()), dict(env))]
        seen = set()
        for _ in range(3):
            nxt = []
            for comp, cenv in frontier:
                key = comp.key
                if key in seen:
                    continue
                seen.add(key)
                for mu, comp2 in S.composite_step(comp):
                    env2 = dict(cenv)
                    if isinstance(mu, S.BoundOut):
                        bout += 1
                        if mu.exported in free_names(comp2.process):
                            duality_breaks.append((seed, str(mu)))
                        ti = mu.in_type
                        env2[mu.exported] = ti if mu.exported_is_input else dual(ti)
                        env2[mu.companion] = dual(ti) if mu.exported_is_input else ti
                    if isinstance(mu, S.In):
                        t = env2.get(mu.subject)
                        env2[mu.param] = t.payload if isinstance(t, ChanType) else ANY
                    cp = canonical_process(comp2.process)
                    if not is_internal(cp, env2):
                        internality_breaks.append((seed, str(mu)))
                    nxt.append((S.Composite(cp, comp2.delta).gc(), env2))
            frontier = nxt
    _SCAN.update(bound_outputs=bout, duality=duality_breaks,
                 internality=internality_breaks, typing=typing_breaks)
    return _SCAN


def test_internalize_preserves_typing_on_generated_terms():
    assert _scan()["typing"] == []


def test_targets_stay_internal_along_runs():
    assert _scan()["internality"] == []


def test_exported_names_never_retained_by_targets():
    scan = _scan()
    assert scan["bound_outputs"] >= 1000
    assert scan["duality"] == []


# ---------------------------------------------------------------------------
# fresh names: only the names in scope are avoided

# the names the translation tries first for its pairs and forwarders
_FIRST_TRIED = [Name(base, i) for i in range(4) for base in ("w", "w'", "x")]


def _low_binders(p, ren):
    """``p`` alpha-renamed so that every binder is the first name of
    ``_FIRST_TRIED`` that captures no free name of its scope; ``ren`` maps
    each binder in scope to its new name."""
    def pick(binders, body):
        used = {ren.get(n, n) for n in free_names(body) - set(binders)}
        new = []
        for _ in binders:
            new.append(next(n for n in _FIRST_TRIED
                            if n not in used and n not in new))
        return new

    def under(binders, new, body):
        return _low_binders(body, {**ren, **dict(zip(binders, new))})

    def value(v):
        return substitute_value(v, {k: VName(n) for k, n in ren.items()})

    if isinstance(p, Nil):
        return p
    if isinstance(p, Par):
        return Par(_low_binders(p.left, ren), _low_binders(p.right, ren))
    if isinstance(p, Output):
        return Output(ren.get(p.subject, p.subject), value(p.payload))
    if isinstance(p, (Input, RepInput)):
        (x,) = pick([p.param], p.body)
        return type(p)(ren.get(p.subject, p.subject), x,
                       under([p.param], [x], p.body))
    if isinstance(p, Res):
        ends = [p.in_name, p.out_name]
        new = pick(ends, p.body)
        return Res(*new, p.in_type, under(ends, new, p.body))
    if isinstance(p, LetTuple):
        new = pick(p.params, p.body)
        return LetTuple(tuple(new), value(p.scrutinee),
                        under(p.params, new, p.body))
    (lp,) = pick([p.left_param], p.left_body)
    (rp,) = pick([p.right_param], p.right_body)
    return Case(value(p.scrutinee), lp, under([p.left_param], [lp], p.left_body),
                rp, under([p.right_param], [rp], p.right_body))


def test_internalize_avoids_the_binders_in_scope():
    """Generated programs whose binders take the names the translation
    tries first translate as the programs themselves do: a fresh pair or
    forwarder that took a binder's name in its scope would capture it."""
    from gen_typed import random_typed
    wired = 0
    for seed in range(300):
        env, p = random_typed(seed, size=14)
        low = _low_binders(p, {})
        assert canonicalize(low).key == canonicalize(p).key
        ip, ilow = internalize(p, env), internalize(low, env)
        wired += ip is not p
        assert canonicalize(ilow).key == canonicalize(ip).key, seed
        assert typecheck(env, ilow).ok, seed
        assert is_internal(ilow, env), seed
    assert wired >= 100


# ---------------------------------------------------------------------------
# one walk per level, and unchanged nodes kept
# ---------------------------------------------------------------------------

def test_is_internal_walks_nested_levels_once():
    from awpi.syntax import Input, Output, Par, Res, VUNIT
    reads = [0]

    def counted(cls):
        class Counted(cls):
            """A node whose body reads are counted: one per node visit."""

            def __getattribute__(self, attr):
                if attr == "body":
                    reads[0] += 1
                return object.__getattribute__(self, attr)
        return Counted

    CRes, CInput = counted(Res), counted(Input)
    depth = 100
    # new(a_i: i[unit], b_i)( a_i(x).(...) | b_i!() ), nested
    p = Output(nm("k"), VUNIT)
    for i in reversed(range(depth)):
        a, b = Name("a", i + 1), Name("b", i + 1)
        p = CRes(a, b, parse_vtype("i[unit]"),
                 Par(CInput(a, nm("x"), p), Output(b, VUNIT)))
    assert is_internal(p, tenv("k: o[unit]"))
    # each pair end's payload occurrences were counted over the whole
    # level below it: about 20,000 body reads
    assert reads[0] <= 10 * 2 * depth


def test_internalize_keeps_a_wide_par_and_rejects_deep_nesting():
    env = tenv("a: i[unit]; k: o[unit]")
    # a 1,500-way | raised RecursionError: the walk recursed down both sides
    wide = parse_process(" | ".join(["k!()"] * 1500))
    assert internalize(wide, env) is wide
    assert is_internal(wide, env)
    deep = Output(nm("k"), VUNIT)
    for i in range(3000):
        deep = Input(nm("a"), Name("x", i), deep)
    with pytest.raises(ValueError, match="process nested too deeply"):
        internalize(deep, env)


def test_internalize_copies_no_environment_per_level(monkeypatch):
    """``internalize`` binds binders in one environment in place; a copy
    per binder is quadratic on deep nesting."""
    import awpi.internal as internal
    depth, env = 150, tenv("k: o[unit]")
    p = parse_process("".join(f"let (x{i}, y{i}) = ((), ()) in "
                              for i in range(depth)) + "k!()")
    seen, walk = [], internal._walk

    def spy(q, env, fresh):
        seen.append(id(env))
        return walk(q, env, fresh)

    monkeypatch.setattr(internal, "_walk", spy)
    assert internalize(p, env) is p
    # one environment for all 151 levels (151 when every binder copied it)
    assert len(seen) == depth + 1 and len(set(seen)) == 1
    assert env == tenv("k: o[unit]")


def test_internalize_keeps_a_program_without_channel_outputs():
    env = tenv("a: i[unit]; k: o[unit]; e: o[unit + unit]")
    p = parse_process(
        "new(r: i[unit * unit], s)( r(x).let (y, z) = x in k!() "
        "| s!((), ()) | a(w).case inl () { inl u -> e!(inl ()) ; "
        "inr v -> 0 } | !a(w).k!() )")
    assert internalize(p, env) is p

"""Parser, printer, substitution, alpha equality and canonical forms."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from awpi.syntax import (
    CanonicalForm, ChanType, Input, Name, Nil, Output, Par, ParseError,
    RepInput, Res, SUCCESS, UNIT, VName, VUNIT, alpha_eq, ast_size,
    bound_names, canonicalize, congruent, free_names, fresh_name, parse_file,
    parse_process, parse_value, parse_vtype, print_process, print_value,
    print_vtype, substitute, substitute_value,
)

from oracles import (
    alpha_key, congruence_closure, enumerate_core, oracle_congruent,
    random_process, subst_oracle,
)


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

ROUND_TRIP_SOURCES = [
    "0",
    "a(x).0",
    "!a(x).b!(x)",
    "a!()",
    "a!(x, y)",
    "a!(inl ())",
    "a!(inr (x, (y, z)))",
    "new(a: i[unit], b) (a(x).0 | b!())",
    "new(a: li[o[unit]], b) a(x).x!()",
    "let (x, y) = z in x!(y)",
    "case v { inl x -> x!() ; inr y -> 0 }",
    "case v { inl x -> x!() | c!() ; inr y -> new(n: i[unit], m) n(u).0 }",
    "a(x).(b!() | c(y).0)",
    "a#3(x#1).b#2!(x#1)",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_round_trip_fixed(src):
    p = parse_process(src)
    assert alpha_eq(p, parse_process(print_process(p)))


def test_polyadic_input_sugar():
    p = parse_process("a(x, y).c!(x)")
    assert isinstance(p, Input)
    inner = p.body
    assert print_process(inner).startswith("let (x, y) = ")
    # nullary input receives a unit the body never uses
    q = parse_process("a().c!()")
    assert isinstance(q, Input)
    assert q.param not in free_names(q.body)


def test_output_payload_shapes():
    assert parse_process("a!()").payload == VUNIT
    assert parse_process("a!(x)").payload == VName(Name("x"))
    p = parse_process("a!(x, y, z)")
    assert len(p.payload.items) == 3


def test_types_round_trip():
    for src in ["unit", "i[unit]", "o[i[unit]]", "li[unit * unit]",
                "lo[unit + i[unit]]", "i[(unit + unit) * o[unit]]",
                "i[unit * unit * unit]"]:
        t = parse_vtype(src)
        assert parse_vtype(print_vtype(t)) == t


def test_parse_errors():
    for bad in ["a!", "a(x).", "new(a: o[unit], b) 0", "new(a: unit, b) 0",
                "let (x) = v in 0", "case v { inl x -> 0 }", "a | ",
                "new(a: i[unit], a) 0", "(a!()", "inl x"]:
        with pytest.raises(ParseError):
            parse_process(bad)


def test_keywords_rejected_as_names():
    with pytest.raises(ParseError):
        parse_process("new(x).0")
    with pytest.raises(ParseError):
        parse_process("case(x).0")


def test_parse_file_headers():
    f = parse_file("""
        free a : i[unit];
        free b : o[i[unit]];
        success ok;
        a(x).ok!()
    """)
    assert f.env[Name("a")] == ChanType("i", UNIT)
    assert f.env[Name("b")] == ChanType("o", ChanType("i", UNIT))
    assert len(f.success) == 1 and f.success[0].kind == SUCCESS
    # success names inside the body resolve to the declared success name
    assert any(n.kind == SUCCESS for n in free_names(f.process))


def test_comment_lines():
    p = parse_process("a(x).0 ## trailing comment\n | b!()")
    assert isinstance(p, Par)


def test_round_trip_seeded_bulk():
    rng = random.Random(20260819)
    for i in range(1000):
        p = random_process(rng, rng.randint(1, 12))
        s = print_process(p)
        q = parse_process(s)
        assert alpha_eq(p, q), f"round trip failed for {s}"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**48 - 1), st.integers(1, 14))
def test_round_trip_hypothesis(seed, size):
    p = random_process(random.Random(seed), size)
    assert alpha_eq(p, parse_process(print_process(p)))


# ---------------------------------------------------------------------------
# Free names and substitution
# ---------------------------------------------------------------------------

def test_free_names_frozen_example():
    p = parse_process("new(a: i[unit], b) (a(x).0 | b!() | d!())")
    assert free_names(p) == frozenset({Name("d")})


def test_substitute_frozen_example():
    p = parse_process("a(x).c!(y)")
    q = substitute(p, {Name("y"): VName(Name("x"))})
    assert print_process(q) == "a(x#1).c!(x)"


def test_substitute_avoids_capture_in_restriction():
    p = parse_process("new(n: i[unit], m) c!(y)")
    q = substitute(p, {Name("y"): VName(Name("m"))})
    # the bound m must be renamed so the substituted m stays free
    assert Name("m") in free_names(q)
    mentioned = free_names(q)
    assert Name("y") not in mentioned


def test_substitute_identity_and_missing():
    p = parse_process("a(x).b!(x)")
    assert substitute(p, {}) is p
    assert substitute(p, {Name("z"): VName(Name("w"))}) is p
    assert substitute(p, {Name("x"): VName(Name("w"))}) is p  # x is bound


def test_substitute_vs_oracle_seeded():
    rng = random.Random(7)
    frees = [Name("a"), Name("b"), Name("c"), Name("d")]
    for i in range(400):
        p = random_process(rng, rng.randint(1, 10), frees)
        targets = rng.sample(frees, rng.randint(1, 3))
        mapping = {t: VName(rng.choice(frees + [Name("e")])) for t in targets}
        got = substitute(p, mapping)
        want = subst_oracle(p, mapping)
        assert alpha_eq(got, want), (print_process(p), mapping)


def test_substitute_composition():
    rng = random.Random(11)
    a, b, c, d = Name("a"), Name("b"), Name("c"), Name("d")
    for i in range(200):
        p = random_process(rng, rng.randint(1, 9), [a, b, c, d])
        m1 = {a: VName(b)}
        m2 = {b: VName(c), d: VName(a)}
        lhs = substitute(substitute(p, m1), m2)
        # composed: apply m2 to m1's values, keep m2 entries not shadowed
        composed = {a: VName(c), b: VName(c), d: VName(a)}
        rhs = substitute(p, composed)
        assert alpha_eq(lhs, rhs), print_process(p)


def test_fresh_name_smallest_index():
    avoid = {Name("x"), Name("x", 1), Name("x", 3)}
    assert fresh_name(Name("x"), avoid) == Name("x", 2)


# ---------------------------------------------------------------------------
# Alpha equality
# ---------------------------------------------------------------------------

def test_alpha_eq_basic():
    assert alpha_eq(parse_process("a(x).b!(x)"), parse_process("a(y).b!(y)"))
    assert not alpha_eq(parse_process("a(x).b!(x)"), parse_process("a(x).b!(a)"))
    assert alpha_eq(parse_process("new(n: i[unit], m) (n(x).0 | m!())"),
                    parse_process("new(p: i[unit], q) (p(z).0 | q!())"))
    assert not alpha_eq(parse_process("new(n: i[unit], m) n(x).0"),
                        parse_process("new(n: li[unit], m) n(x).0"))


def test_alpha_eq_is_not_commutativity():
    assert not alpha_eq(parse_process("a!() | b!()"), parse_process("b!() | a!()"))


def test_alpha_eq_agrees_with_alpha_key():
    rng = random.Random(13)
    pool = [random_process(rng, rng.randint(1, 8)) for _ in range(60)]
    for p in pool:
        for q in pool:
            assert alpha_eq(p, q) == (alpha_key(p) == alpha_key(q))


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

def test_canonicalize_idempotent_seeded():
    rng = random.Random(17)
    for i in range(300):
        p = random_process(rng, rng.randint(1, 10))
        c = canonicalize(p)
        again = canonicalize(c.process)
        assert again.key == c.key, print_process(p)


def test_canonicalize_barendregt():
    rng = random.Random(19)
    for i in range(200):
        p = random_process(rng, rng.randint(1, 10))
        c = canonicalize(p).process
        bn = []
        _collect_binders(c, bn)
        assert len(bn) == len(set(bn)), print_process(c)
        assert not (set(bn) & free_names(c)), print_process(c)


def _collect_binders(p, out):
    from awpi.syntax import Case, Input, LetTuple, RepInput
    if isinstance(p, (Input, RepInput)):
        out.append(p.param)
        _collect_binders(p.body, out)
    elif isinstance(p, Res):
        out.extend([p.in_name, p.out_name])
        _collect_binders(p.body, out)
    elif isinstance(p, Par):
        _collect_binders(p.left, out)
        _collect_binders(p.right, out)
    elif isinstance(p, LetTuple):
        out.extend(p.params)
        _collect_binders(p.body, out)
    elif isinstance(p, Case):
        out.append(p.left_param)
        _collect_binders(p.left_body, out)
        out.append(p.right_param)
        _collect_binders(p.right_body, out)


def test_canonicalize_frozen_rewrites():
    # nil unit
    assert congruent(parse_process("0 | a!()"), parse_process("a!()"))
    # restriction of nil
    assert canonicalize(parse_process("new(a: i[unit], b) 0")).key == \
        canonicalize(parse_process("0")).key
    # scope extrusion
    assert congruent(
        parse_process("c!() | new(a: i[unit], b) (a(x).0 | b!())"),
        parse_process("new(a: i[unit], b) (c!() | a(x).0 | b!())"))
    # restriction swap
    assert congruent(
        parse_process("new(a: i[unit], b) new(c: i[unit], d) (a(x).0 | d!())"),
        parse_process("new(c: i[unit], d) new(a: i[unit], b) (a(x).0 | d!())"))
    # commutativity + associativity
    assert congruent(parse_process("(a!() | b!()) | c!()"),
                     parse_process("c!() | (b!() | a!())"))
    # replication is never unfolded
    assert not congruent(parse_process("!a(x).0"),
                         parse_process("a(x).0 | !a(x).0"))


def test_canonicalize_respects_axioms_one_step():
    """Every single-axiom rewrite preserves the canonical key."""
    from oracles import _one_step
    rng = random.Random(23)
    pool = [random_process(rng, rng.randint(2, 9)) for _ in range(150)]
    pool += list(enumerate_core(5))
    for p in pool:
        cp = canonicalize(p).key
        for q in _one_step(p):
            assert canonicalize(q).key == cp, \
                f"{print_process(p)}  vs  {print_process(q)}"


def test_canonicalize_sound_exhaustive():
    """Equal canonical keys imply derivability by the six axioms (size <= 7)."""
    from oracles import group_all_congruent
    groups = {}
    for p in enumerate_core(7):
        groups.setdefault(canonicalize(p).key, []).append(p)
    checked = 0
    for members in groups.values():
        if len(members) < 2:
            continue
        fails = group_all_congruent(members)
        assert not fails, \
            f"not derivable: {print_process(members[0])}  ~  {print_process(fails[0])}"
        checked += len(members) - 1
    assert checked >= 50000  # the enumeration genuinely exercises the oracle


def test_dead_restriction_drop_is_derivable():
    """The normal form's dead-pair removal is justified by the six axioms."""
    rng = random.Random(29)
    for i in range(25):
        p = random_process(rng, rng.randint(1, 5))
        a, b = Name("dead_n"), Name("dead_m")
        wrapped = Res(a, b, ChanType("i", UNIT), p)
        assert oracle_congruent(wrapped, p), print_process(wrapped)


def test_canonicalize_distinguishes():
    # different processes stay apart
    pairs = [
        ("a(x).0", "!a(x).0"),
        ("a!()", "a(x).0"),
        ("a!() | a!()", "a!()"),
        ("new(n: i[unit], m) (n(x).0 | m!())", "new(n: li[unit], m) (n(x).0 | m!())"),
        ("a(x).b!()", "a(x).c!()"),
    ]
    for s1, s2 in pairs:
        assert canonicalize(parse_process(s1)).key != canonicalize(parse_process(s2)).key


def test_canonical_form_hashable():
    c1 = canonicalize(parse_process("a!() | b!()"))
    c2 = canonicalize(parse_process("b!() | a!()"))
    assert c1 == c2 and hash(c1) == hash(c2)
    assert len({c1, c2}) == 1


def test_ast_size():
    assert ast_size(parse_process("0")) == 1
    assert ast_size(parse_process("a!() | b!()")) == 3
    assert ast_size(parse_process("new(a: i[unit], b) a(x).0")) == 3


# ---------------------------------------------------------------------------
# Canonical forms: congruent copies and scaling families
# ---------------------------------------------------------------------------

def _variant(p, rng, env=None, ctr=None):
    """A congruent copy: every ``|`` chain shuffled and re-associated, every
    restriction chain reordered, every binder renamed to a fresh ``v#k``."""
    from awpi.syntax import Case, LetTuple
    env = env or {}
    ctr = ctr if ctr is not None else [1000]

    def fresh():
        ctr[0] += 1
        return Name("v", ctr[0])

    def value(v):
        return substitute_value(v, {k: VName(n) for k, n in env.items()})

    if isinstance(p, Nil):
        return p
    if isinstance(p, Par):
        atoms, todo = [], [p]
        while todo:
            q = todo.pop()
            if isinstance(q, Par):
                todo += [q.right, q.left]
            else:
                atoms.append(_variant(q, rng, env, ctr))
        rng.shuffle(atoms)
        while len(atoms) > 1:
            i = rng.randrange(len(atoms) - 1)
            atoms[i:i + 2] = [Par(atoms[i], atoms[i + 1])]
        return atoms[0]
    if isinstance(p, Output):
        return Output(env.get(p.subject, p.subject), value(p.payload))
    if isinstance(p, (Input, RepInput)):
        x = fresh()
        return type(p)(env.get(p.subject, p.subject), x,
                       _variant(p.body, rng, {**env, p.param: x}, ctr))
    if isinstance(p, Res):
        chain, inner = [], dict(env)
        while isinstance(p, Res):
            a, b = fresh(), fresh()
            inner[p.in_name], inner[p.out_name] = a, b
            chain.append((a, b, p.in_type))
            p = p.body
        body = _variant(p, rng, inner, ctr)
        rng.shuffle(chain)
        for a, b, t in chain:
            body = Res(a, b, t, body)
        return body
    if isinstance(p, LetTuple):
        xs = tuple(fresh() for _ in p.params)
        return LetTuple(xs, value(p.scrutinee),
                        _variant(p.body, rng, {**env, **dict(zip(p.params, xs))},
                                 ctr))
    if isinstance(p, Case):
        x, y = fresh(), fresh()
        return Case(value(p.scrutinee),
                    x, _variant(p.left_body, rng, {**env, p.left_param: x}, ctr),
                    y, _variant(p.right_body, rng, {**env, p.right_param: y}, ctr))
    raise TypeError(p)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**48 - 1), st.integers(1, 16))
def test_canonical_key_invariant_under_congruent_copies(seed, size):
    rng = random.Random(seed)
    p = random_process(rng, size)
    key = canonicalize(p).key
    for _ in range(3):
        assert canonicalize(_variant(p, rng)).key == key, print_process(p)


def test_canonicalize_complete_within_three_rewrites():
    """Every term three axiom rewrites away (under a size cap) gets the
    key of the process it came from."""
    from oracles import _one_step
    rng = random.Random(31)
    checked = 0
    for _ in range(100):
        p = random_process(rng, rng.randint(4, 10))
        key = canonicalize(p).key
        cap = ast_size(p) + 4
        seen = {alpha_key(p)}
        frontier = [p]
        for _ in range(3):
            nxt = []
            for q in frontier:
                for r in _one_step(q):
                    k = alpha_key(r)
                    if ast_size(r) <= cap and k not in seen:
                        seen.add(k)
                        nxt.append(r)
                        assert canonicalize(r).key == key, \
                            f"{print_process(p)}  vs  {print_process(r)}"
            frontier = nxt
        checked += len(seen) - 1
    assert checked >= 5000


def _ring(size):
    """``size`` restricted ``i[unit]`` pairs; atom i forwards to pair i+1."""
    t = ChanType("i", UNIT)
    pairs = [(Name(f"a{i}"), Name(f"b{i}")) for i in range(size)]
    body = Nil()
    for i, (a, _) in enumerate(pairs):
        atom = Input(a, Name(f"x{i}"), Output(pairs[(i + 1) % size][1], VUNIT))
        body = atom if i == 0 else Par(body, atom)
    for a, b in reversed(pairs):
        body = Res(a, b, t, body)
    return body


def _client_server(n):
    client = "new(r: i[unit], ro)( so!(ro) | r(x).ok!() )"
    return parse_file("success ok; new(s: i[o[unit]], so)( !s(r).r!() | "
                      + " | ".join([client] * n) + " )").process


def _nested(depth):
    text = "k!()"
    for i in range(depth, 0, -1):
        text = f"new(a{i}: i[unit], b{i})( b{i}!() | a{i}(x{i}).({text}) )"
    return parse_process(text)


@pytest.mark.parametrize("family, p", [
    ("ring-7", _ring(7)),
    ("ring-10", _ring(10)),
    ("client-server-8", _client_server(8)),
    ("identical-12", parse_process(" | ".join(["k!()"] * 12))),
    ("nested-20", _nested(20)),
])
def test_scaling_family_shuffles_share_one_key(family, p):
    rng = random.Random(37)
    key = canonicalize(p).key
    keys = {canonicalize(_variant(p, rng)).key for _ in range(20)}
    assert keys == {key}, family


def test_wide_par_round_trips_and_canonicalizes():
    atoms = [parse_process("k!()")] * 1500
    text = " | ".join(["k!()"] * 1500)
    p = parse_process(text)
    assert print_process(p) == text
    assert alpha_eq(p, parse_process(print_process(p)))
    right = atoms[-1]
    for a in atoms[-2::-1]:
        right = Par(a, right)
    assert canonicalize(right).key == canonicalize(p).key

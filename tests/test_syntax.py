"""Parser, printer, substitution, alpha equality and canonical forms."""

import dataclasses
import os
import random
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from awpi.syntax import (
    ChanType, Input, Name, Nil, Output, Par, ParseError, RepInput, Res,
    SUCCESS, UNIT, VName, VUNIT, alpha_eq, ast_size, canonicalize,
    congruent, free_names, fresh_name, parse_file, parse_process,
    parse_value, parse_vtype, print_process, print_vtype, rename_free,
    substitute, substitute_value,
)
from awpi import api, encodings, equivalence, internal, semantics, syntax
from awpi import typecheck as typecheck_module
from awpi.encodings import parse_alpi, parse_stlc, parse_stlc_type
from awpi.internal import is_internal
from awpi.typecheck import typecheck

from gen_typed import random_typed
from oracles import (
    alpha_key, bound_names, enumerate_core, oracle_congruent,
    random_process, subst_oracle,
)
from test_semantics import _count_syntax_walks


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


def test_deep_prefix_round_trips_and_deeper_is_a_parse_error():
    p = parse_process("".join(f"a(x{i})." for i in range(400)) + "k!()")
    assert alpha_eq(p, parse_process(print_process(p)))
    # 2,000 levels raised RecursionError
    for src in ("a(x)." * 2000 + "0", "(" * 2000 + "0" + ")" * 2000):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_process(src)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_value("inl " * 2000 + "x")


def _deep_prefix(depth):
    """``a(x0).a(x1)...k!()``, built through the constructors."""
    p = Output(Name("k"), VUNIT)
    for i in reversed(range(depth)):
        p = Input(Name("a"), Name(f"x{i}"), p)
    return p


def test_deep_prefix_built_through_the_api():
    p = _deep_prefix(400)
    assert print_process(canonicalize(p).process).startswith("a(_).a(_#1).")
    assert print_process(p).startswith("a(x0).a(x1).")
    assert free_names(p) == {Name("a"), Name("k")}
    assert alpha_eq(p, _deep_prefix(400)) and ast_size(p) == 401
    assert free_names(rename_free(p, {Name("k"): Name("m")})) == free_names(
        substitute(p, {Name("k"): VName(Name("m"))})) == {Name("a"), Name("m")}
    env = {Name("a"): parse_vtype("i[unit]"), Name("k"): parse_vtype("o[unit]")}
    assert typecheck(env, p).ok and is_internal(p, env)
    # 1,500 levels raised RecursionError in each
    deep = _deep_prefix(1500)
    for walk in (canonicalize, print_process, free_names, ast_size,
                 lambda q: alpha_eq(q, q),
                 lambda q: rename_free(q, {Name("k"): Name("m")}),
                 lambda q: substitute(q, {Name("k"): VName(Name("m"))}),
                 lambda q: typecheck(env, q), lambda q: is_internal(q, env)):
        with pytest.raises(ValueError, match="process nested too deeply"):
            walk(deep)


def test_canonicalize_a_wide_par_of_restrictions():
    # the 1,200 pairs make one restriction chain, whose free names are
    # found in a loop (the root keeps its input's): recursion raised
    # ValueError
    p = parse_process(" | ".join(f"new(a{i}: i[unit], b{i})(a{i}(x).k!() | b{i}!())"
                                 for i in range(1200)))
    c = canonicalize(p)
    assert c.key.count("new(") == 1200 and free_names(c.process) == {Name("k")}
    body = c.process.body
    assert free_names(body) == {Name("k"), c.process.in_name, c.process.out_name}


def test_substitute_walks_a_deep_prefix_once():
    reads = [0]

    class Counted(Input):
        """An input whose body reads are counted: one per node visit."""

        def __getattribute__(self, attr):
            if attr == "body":
                reads[0] += 1
            return object.__getattribute__(self, attr)

    p = Output(Name("k"), VUNIT)
    for i in reversed(range(400)):
        p = Counted(Name("a"), Name(f"x{i}"), p)
    got = rename_free(p, {Name("k"): Name("m")})
    # the free and bound names of the body under every binder were walked
    # again at that binder: 160,800 body reads
    assert reads[0] <= 10 * 400
    assert print_process(got) == print_process(
        rename_free(_deep_prefix(400), {Name("k"): Name("m")}))


def test_every_entry_point_rejects_trailing_input():
    for parse, src in [(parse_process, "0 0"), (parse_value, "x y"),
                       (parse_vtype, "unit unit"), (parse_file, "0 )")]:
        with pytest.raises(ParseError, match="trailing input") as e:
            parse(src)
        assert (e.value.line, e.value.col) == (1, src.rindex(" ") + 2)


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


def test_substitute_refreshes_an_inner_binder_a_refreshed_one_meets():
    p = parse_process("a(x).a(x#1).k!((x, x#1, y))")
    q = substitute(p, {Name("y"): VName(Name("x"))})
    # x becomes x#1, the first index free in its scope, and then the
    # inner x#1 would capture it, so that binder is refreshed too
    assert print_process(q) == "a(x#1).a(x#2).k!(x#1, x#2, x)"
    assert alpha_eq(q, subst_oracle(p, {Name("y"): VName(Name("x"))}))


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


def test_substitute_keeps_the_components_it_does_not_touch():
    atoms = [Output(Name("k", i), VUNIT) for i in range(64)]
    left = atoms[0]
    for a in atoms[1:]:
        left = Par(left, a)
    got = syntax._par_list(substitute(left, {Name("k", 17): VName(Name("m"))}))
    assert got[17] == Output(Name("m"), VUNIT)
    assert all(x is a for i, (x, a) in enumerate(zip(got, atoms)) if i != 17)
    # a right-nested | keeps no names on its inner | nodes, before or after
    right = atoms[-1]
    for a in reversed(atoms[:-1]):
        right = Par(a, right)
    out = substitute(right, {Name("k", 17): VName(Name("m"))})
    assert syntax._par_list(out) == got
    for p in (right, out):
        inner = []
        while isinstance(p.right, Par):
            p = p.right
            inner.append(getattr(p, "_names", None))
        assert inner == [None] * 62


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


# ---------------------------------------------------------------------------
# Names
# ---------------------------------------------------------------------------

def test_fresh_name_smallest_index():
    avoid = {Name("x"), Name("x", 1), Name("x", 3)}
    assert fresh_name(Name("x"), avoid) == Name("x", 2)
    # deterministic: the same set built in another order, and the kind kept
    taken = [Name("x", i) for i in (0, 1, 2, 4)] + [Name("y", 1)]
    firsts = {fresh_name(Name("x"), set(order))
              for order in (taken, taken[::-1], taken[2:] + taken[:2])}
    assert firsts == {Name("x", 3)}
    ok = fresh_name(Name("ok", kind=SUCCESS), {Name("ok", 1, SUCCESS)})
    assert ok == Name("ok", 2, SUCCESS)


def test_name_prints_and_reprs():
    assert str(Name("a")) == "a"
    assert str(Name("a", 3)) == "a#3"
    assert repr(Name("a", 3)) == "Name(base='a', index=3, kind='regular')"
    ok = Name("ok", kind=SUCCESS)
    assert (ok.base, ok.index, ok.kind) == ("ok", 0, SUCCESS)
    assert str(ok) == "ok"
    assert repr(ok) == "Name(base='ok', index=0, kind='success')"


def test_name_orders_and_hashes_as_its_fields():
    names = [Name("b"), Name("a", 2), Name("a", 2, SUCCESS), Name("_", 7),
             Name("a"), Name("b", 1), Name("a", 10)]
    assert sorted(names) == sorted(names, key=lambda n: (n.base, n.index, n.kind))
    assert Name("a", 1) == Name("a", 1) and hash(Name("a", 1)) == hash(Name("a", 1))
    assert Name("a", 1) != Name("a", 1, SUCCESS)
    # set and dict orders over names, and so canonical keys, rest on this
    for n in names:
        assert hash(n) == hash((n.base, n.index, n.kind))


def test_name_is_immutable():
    n = Name("a")
    for field, value in (("base", "b"), ("index", 1), ("kind", SUCCESS)):
        with pytest.raises(AttributeError):
            setattr(n, field, value)
    with pytest.raises(AttributeError):
        n.extra = 1
    assert n == Name("a")


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


def test_alpha_eq_scopes_end_at_their_body():
    # binders are bound in place: an inner binder of the same name shadows
    # the outer one in its own body only (a | compares its right operand
    # first, so each left operand here is read after a scope has closed)
    p = parse_process("x!() | a(x).(x!() | x(x).x!())")
    assert alpha_eq(p, parse_process("x!() | a(y).(y!() | y(z).z!())"))
    assert not alpha_eq(p, parse_process("x!() | a(y).(z!() | y(z).z!())"))
    assert not alpha_eq(p, parse_process("x!() | a(y).(y!() | y(z).y!())"))
    assert not alpha_eq(p, parse_process("y!() | a(y).(y!() | y(z).z!())"))


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


# (lhs, rhs, congruent?) for each rewrite the normal form must make
FROZEN_REWRITES = [
    ("0 | a!()", "a!()", True),  # nil unit
    ("new(a: i[unit], b) 0", "0", True),  # restriction of nil
    ("c!() | new(a: i[unit], b) (a(x).0 | b!())",  # scope extrusion
     "new(a: i[unit], b) (c!() | a(x).0 | b!())", True),
    ("new(a: i[unit], b) new(c: i[unit], d) (a(x).0 | d!())",  # swap
     "new(c: i[unit], d) new(a: i[unit], b) (a(x).0 | d!())", True),
    ("(a!() | b!()) | c!()", "c!() | (b!() | a!())", True),  # comm + assoc
    ("!a(x).0", "a(x).0 | !a(x).0", False),  # replication is never unfolded
    # an inner pair shadows an end of an outer one
    ("new(a: i[unit], b) new(a: li[unit], c) (a(x).0 | c!())",
     "new(a: li[unit], c) (a(x).0 | c!())", True),
    ("new(a: i[unit], b) new(a: li[unit], c) (a(x).0 | b!() | c!())",
     "new(a: i[unit], b) new(e: li[unit], c) (a(x).0 | b!() | c!())", False),
]


def test_canonicalize_frozen_rewrites():
    for lhs, rhs, same in FROZEN_REWRITES:
        assert congruent(parse_process(lhs), parse_process(rhs)) == same, lhs


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


@pytest.fixture(scope="module")
def size7_keys():
    """Each process of the size <= 7 enumeration with its canonical key,
    in enumeration order, built once for the tests that read them all."""
    return [(p, canonicalize(p).key) for p in enumerate_core(7)]


def test_canonicalize_sound_exhaustive(size7_keys):
    """Equal canonical keys imply derivability by the six axioms (size <= 7)."""
    from oracles import group_all_congruent
    groups = {}
    for p, key in size7_keys:
        groups.setdefault(key, []).append(p)
    checked = 0
    for members in groups.values():
        if len(members) < 2:
            continue
        fails = group_all_congruent(members)
        assert not fails, \
            f"not derivable: {print_process(members[0])}  ~  {print_process(fails[0])}"
        checked += len(members) - 1
    assert checked >= 50000  # the enumeration genuinely exercises the oracle


def test_fragment_key_is_the_canonical_key(size7_keys):
    """A stepping table's key of a state, the sorted keys of its
    canonicalized connected components, is the text ``canonicalize`` gives
    the whole process, on the size <= 7 enumeration of
    :func:`test_canonicalize_sound_exhaustive`."""
    for p, key in size7_keys:
        assert semantics.Fragments(semantics._lts).state(p, ()).pkey == key
    assert (len(size7_keys), len({key for _, key in size7_keys})) == (
        92075, 22975)


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


def _recanonicalized_inputs():
    """Inputs whose canonical process, printed and parsed back, is checked
    to canonicalize to the same key."""
    yield from (random_typed(seed, size=4 + seed % 16)[1] for seed in range(200))
    yield _ring(7)
    yield _ring(10)
    yield _client_server(8)
    yield parse_process(" | ".join(["k!()"] * 12))
    yield _nested(20)
    for lhs, rhs, _ in FROZEN_REWRITES:
        yield parse_process(lhs)
        yield parse_process(rhs)
    atoms = [parse_process("k!()")] * 1500
    right = atoms[-1]
    for a in atoms[-2::-1]:
        right = Par(a, right)
    yield parse_process(" | ".join(["k!()"] * 1500))
    yield right


def test_canonical_process_recanonicalizes_to_its_key():
    # the key is render's certificate and build makes the process apart
    # from it: a build that drops, duplicates or misbinds a node makes a
    # process that certifies otherwise; the text is read back with the
    # process's success names, which the key marks
    for p in _recanonicalized_inputs():
        c = canonicalize(p)
        ok = [n for n in free_names(p) if n.kind == SUCCESS]
        back = parse_process(print_process(c.process), success=ok)
        assert canonicalize(back).key == c.key


@pytest.mark.parametrize("src", [
    "new(a: i[unit], b)( a(y).k!(y) | b!() )",
    "new(a: i[unit], b)( a(y).new(c: i[unit], d)( c(z).k!(y) | d!() ) | b!() )",
])
def test_canonicalize_aliased_subtrees(src):
    """A node object reused in several places canonicalizes as its text."""
    x = parse_process(src)
    for p in (Par(x, x), Par(x, Par(x, x)), Input(Name("k"), Name("q"), Par(x, x))):
        c = canonicalize(p)
        assert c.key == canonicalize(parse_process(print_process(p))).key


# (name, input, printed canonical process) for each rewrite that flattening
# a level makes; the printed processes are literals, so that a change to
# how levels are flattened cannot move them unseen
_x = parse_process("new(a: i[unit], b)( a(x).k!(x) | b!(a) )")
_k = parse_process("k!()")
PINNED_KEYS = [
    # a hoisted pair renamed to avoid capture: of a free name, of the
    # level's own pair, of a free name under an input
    ("capture-free", "k!(a) | new(a: i[unit], b)( a(x).m!(x) | b!() )",
     "new(_: i[unit], _#1) (k!(a) | _(_#2).m!(_#2) | _#1!())"),
    ("capture-pair",
     "new(a: i[unit], b)( a(x).k!() | new(a: i[unit], b)( a(y).b!() | b!() ) | b!() )",
     "new(_: i[unit], _#1) new(_#2: i[unit], _#3) "
     "(_(_#4)._#1!() | _#1!() | _#2(_#5).k!() | _#3!())"),
    ("capture-under-input",
     "c(z).( z!(a) | new(a: i[unit], b)( a(x).x!(z) | b!(a) ) )",
     "c(_).new(_#1: i[unit], _#2) (_!(a) | _#1(_#3)._#3!(_) | _#2!(_#1))"),
    # a chain that repeats a name is merged one scope at a time
    ("repeated-chain",
     "new(a: i[unit], b) new(a: i[unit], c)( a(x).k!() | b!() | c!() )",
     "new(_: i[unit], _#1) new(_#2: i[unit], _#3) (_(_#4).k!() | _#1!() | _#3!())"),
    ("repeated-chain-3",
     "new(a: i[unit], b) new(a: i[unit], c) new(d: i[unit], c)"
     "( a(x).k!(x) | b!() | c!() | d(y).b!() )",
     "new(_: i[unit], _#1) new(_#2: i[unit], _#3) new(_#4: i[unit], _#5) "
     "(_(_#6).k!(_#6) | _#2(_#7)._#5!() | _#3!() | _#5!())"),
    # bodies that flatten to one atom or to nil
    ("input-one-atom", "a(x).(0 | x!())", "a(_)._!()"),
    ("input-nil", "a(x).(0 | new(c: i[unit], d) 0)", "a(_).0"),
    ("input-unused-pair", "!a(x).new(c: i[unit], d)( x!() )", "!a(_)._!()"),
    ("let-one-atom", "let (y, z) = (u, v) in (0 | new(c: i[unit], d)( y!(z) ))",
     "let (_, _#1) = (u, v) in _!(_#1)"),
    ("let-nil", "let (y, z) = (u, v) in (0 | 0)", "let (_, _#1) = (u, v) in 0"),
    ("case-one-atom-and-nil",
     "case w { inl y -> (0 | y!()) ; inr z -> new(c: i[unit], d) (0 | 0) }",
     "case w { inl _ -> _!() ; inr _#1 -> 0 }"),
    # unused pairs are dropped
    ("unused-pairs",
     "new(a: i[unit], b) new(c: i[unit], d)( c(x).k!() | new(e: i[unit], f) 0 )",
     "new(_: i[unit], _#1) _(_#2).k!()"),
    ("all-unused", "new(a: i[unit], b) new(c: i[unit], d)( 0 | k!() )", "k!()"),
    # | nested under every binder
    ("par-under-every-binder",
     "new(a: i[unit], b)( !a(x).(x!() | (k!() | 0)) | b!(m)"
     " | c(y).(y!() | new(e: i[unit], f)(e(z).y!() | f!()))"
     " | let (p, q) = (u, v) in (p!() | q!())"
     " | case w { inl r -> (r!() | r!()) ; inr s -> (0 | (s!() | k!())) } )",
     "new(_: i[unit], _#1) ("
     "c(_#2).new(_#3: i[unit], _#4) (_#2!() | _#3(_#5)._#2!() | _#4!()) | "
     "case w { inl _#6 -> _#6!() | _#6!() ; inr _#7 -> _#7!() | k!() } | "
     "let (_#8, _#9) = (u, v) in (_#8!() | _#9!()) | "
     "!_(_#10).(_#10!() | k!()) | _#1!(m))"),
    # one subterm object in several places
    ("shared-res-twice", Par(_x, _x),
     "new(_: i[unit], _#1) new(_#2: i[unit], _#3) "
     "(_(_#4).k!(_#4) | _#1!(_) | _#2(_#5).k!(_#5) | _#3!(_#2))"),
    ("shared-under-input", Par(Input(Name("c"), Name("y"), Par(_x, _k)), Par(_x, _k)),
     "new(_: i[unit], _#1) ("
     "c(_#2).new(_#3: i[unit], _#4) (k!() | _#3(_#5).k!(_#5) | _#4!(_#3)) | "
     "k!() | _(_#6).k!(_#6) | _#1!(_))"),
    ("shared-atom-twice",
     Par(_k, Par(Res(Name("a"), Name("b"), parse_vtype("i[unit]"), Par(_k, _k)), _k)),
     "k!() | k!() | k!() | k!()"),
]


@pytest.mark.parametrize("name, p, key", PINNED_KEYS,
                         ids=[case[0] for case in PINNED_KEYS])
def test_canonical_keys_of_flattened_levels(name, p, key):
    c = canonicalize(parse_process(p) if isinstance(p, str) else p)
    assert print_process(c.process) == key
    assert c.key == canonicalize(parse_process(key)).key


def _count_levels(p):
    """The ``|`` and ``new`` nodes of ``p``."""
    kids = [getattr(p, f.name) for f in dataclasses.fields(p)]
    return isinstance(p, (Par, Res)) + sum(
        _count_levels(q) for q in kids if isinstance(q, syntax.Process))


def test_canonicalize_makes_only_the_levels_of_its_result(monkeypatch):
    """Levels are flattened where a walk reaches them in the input, so no
    ``|`` or ``new`` node is made but those of the canonical process."""
    made = [0]
    for cls in (Par, Res):
        init = cls.__init__

        def counted(self, *args, _init=init):
            made[0] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    for name, p, _ in PINNED_KEYS:
        if name.startswith("capture"):
            continue  # a renamed atom is a copy
        p = parse_process(p) if isinstance(p, str) else p
        made[0] = 0
        q = canonicalize(p).process
        assert made[0] == _count_levels(q), name


def test_canonicalize_memoizes_only_under_a_pair_search():
    # outside a search each node is certified once, so nothing is memoized
    c = syntax._Canon()
    c.render(_nested(6), 0, {}, False)
    assert c.memo == {}
    # a search renders atoms again, per leaf and per automorphism check
    c.render(_ring(7), 0, {}, False)
    assert c.memo and not c.searching


def test_kept_free_names_leave_canonical_keys_unchanged():
    """Nodes keep their free names once a walk finds them, and canonicalize
    reads them there; its own tables are keyed by node id.  A program whose
    nodes the other layers filled first gets the key of a fresh parse."""
    for seed in range(200):
        env, p = random_typed(seed)
        text = print_process(p)
        fresh = canonicalize(parse_process(text)).key
        p = parse_process(text)
        assert typecheck(env, p).ok, text
        is_internal(p, env)
        semantics.lts_step(frozenset(), p)
        names = sorted(free_names(p))
        substitute(p, {names[0]: VName(Name("z"))} if names else {})
        assert canonicalize(p).key == fresh, text
        # and again, once canonicalize has filled the names it read too
        assert canonicalize(p).key == fresh, text


def test_polyadic_parse_walks_no_body_per_level(monkeypatch):
    visits = _count_syntax_walks(monkeypatch)
    depth = 400
    p = parse_process(".".join(f"a(x{i}, y{i})" for i in range(depth))
                      + ".k!()")
    # the free and bound names of the body were walked at every level:
    # about 320,000 visits
    assert visits[0] <= 4 * depth
    assert p.param == Name("_v", depth) and ast_size(p) == 2 * depth + 1


def test_polyadic_sugar_prints_as_before():
    assert print_process(parse_process(
        "a(x0, y0).a(x1, y1).a(x2, y2).k!()")) == (
        "a(_v#3).let (x0, y0) = _v#3 in a(_v#2).let (x1, y1) = _v#2 in "
        "a(_v#1).let (x2, y2) = _v#1 in k!()")
    # a _v#k of the body, of the binder or of the subject is avoided
    assert print_process(parse_process("a(x0, y0).a(_v#1).a().k!(_v#2)")) == (
        "a(_v#3).let (x0, y0) = _v#3 in a(_v#1).a(_v#1).k!(_v#2)")
    assert print_process(parse_process("a(_v#1, y).k!()")) == (
        "a(_v#2).let (_v#1, y) = _v#2 in k!()")


_SUGAR_NAMES = ["a", "k", "x", "_v", "_v#1", "_v#2", "_v#3", "_v#5"]


def _sugar_text(rng, size):
    """A random process text with polyadic inputs and ``_v#k`` names in
    bodies, binders and subjects; monadic inputs bind only ``x`` or ``y``."""
    def name():
        return rng.choice(_SUGAR_NAMES)

    def prefix(k):
        s = _sugar_text(rng, k)
        return f"({s})" if " | " in s else s

    if size <= 1:
        return f"{name()}!({', '.join(name() for _ in range(rng.randint(0, 2)))})"
    r = rng.random()
    bang = "!" if rng.random() < 0.2 else ""
    if r < 0.4:
        params = ", ".join(name() for _ in range(rng.choice([0, 2, 3])))
        return f"{bang}{name()}({params}).{prefix(size - 1)}"
    if r < 0.5:
        return f"{bang}{name()}({rng.choice('xy')}).{prefix(size - 1)}"
    if r < 0.7:
        k = rng.randint(1, size - 1)
        return f"{prefix(k)} | {prefix(size - k)}"
    if r < 0.8:
        a, b = rng.sample(_SUGAR_NAMES, 2)
        return f"new({a}: i[unit], {b}) {prefix(size - 1)}"
    if r < 0.9:
        return (f"let ({name()}, {name()}) = ({name()}, {name()})"
                f" in {prefix(size - 1)}")
    k = max(1, (size - 1) // 2)
    return (f"case {name()} {{ inl {name()} -> {prefix(k)} ; "
            f"inr {name()} -> {prefix(k)} }}")


def _sugar_picks(p, out):
    """(picked name, the name fresh_name picks) for every polyadic input
    in ``p``: an input binding a ``_v`` name, whose body destructures it
    when the input had two or more parameters."""
    from awpi.syntax import Case, LetTuple
    if isinstance(p, (Input, RepInput)):
        if p.param.base == "_v":
            body, params = p.body, set()
            if isinstance(body, LetTuple) and body.scrutinee == VName(p.param):
                body, params = body.body, set(body.params)
            avoid = free_names(body) | bound_names(body) | params | {p.subject}
            out.append((p.param, fresh_name(Name("_v"), avoid)))
        _sugar_picks(p.body, out)
    elif isinstance(p, Par):
        _sugar_picks(p.left, out)
        _sugar_picks(p.right, out)
    elif isinstance(p, (Res, LetTuple)):
        _sugar_picks(p.body, out)
    elif isinstance(p, Case):
        _sugar_picks(p.left_body, out)
        _sugar_picks(p.right_body, out)
    return out


def test_polyadic_sugar_picks_what_fresh_name_picks():
    """The parser's frames pick, for each polyadic input, the ``_v#k``
    that fresh_name picks against the body's free and bound names, the
    parameters and the subject, also when a header makes a ``_v#k`` a
    success name."""
    rng = random.Random(20261019)
    picks = 0
    for i in range(400):
        text = _sugar_text(rng, rng.randint(2, 10))
        p = parse_process(text, success=("_v#2",) if i % 4 == 0 else ())
        for got, want in _sugar_picks(p, []):
            assert got == want, text
            picks += 1
    assert picks > 300


# ---------------------------------------------------------------------------
# Node constructors and error positions
# ---------------------------------------------------------------------------

NODE_MODULES = (syntax, api, semantics, encodings, typecheck_module,
                internal, equivalence)


def _dataclasses():
    return [c for m in NODE_MODULES for c in vars(m).values()
            if isinstance(c, type) and dataclasses.is_dataclass(c)
            and c.__module__ == m.__name__]


def _node_classes():
    """The classes made by ``syntax._node``: the dataclasses whose
    parameters say ``init=False``, as ``_node`` makes the ``__init__``."""
    return [c for c in _dataclasses() if not c.__dataclass_params__.init]


def _own(cls):
    """The functions the body of ``cls`` defines."""
    file = sys.modules[cls.__module__].__file__
    return {k: v for k, v in vars(cls).items()
            if getattr(getattr(v, "__code__", None), "co_filename", None)
            == file and v.__qualname__ == f"{cls.__qualname__}.{k}"}


def _twin(cls):
    """A plain ``@dataclass(frozen=True)`` with the name, fields and slots
    of ``cls`` and the methods its body defines, and the ``__init__``,
    ``__eq__``, ``__hash__``, ``__repr__``, ``__setattr__`` and
    ``__delattr__`` that dataclasses generates where the body defines
    none."""
    return dataclasses.make_dataclass(
        cls.__name__, [(f.name, f.type) for f in dataclasses.fields(cls)],
        bases=cls.__bases__, namespace=_own(cls), frozen=True,
        slots="__slots__" in vars(cls))


def test_node_classes_keep_frozen_dataclass_behaviour():
    classes = _node_classes()
    assert {f"{c.__module__}.{c.__name__}" for c in classes} == {
        f"awpi.{m}.{n}" for m, names in (
            ("syntax", "UnitType ChanType TupleType SumType VName VUnit "
                       "VTuple VInl VInr Nil Par Input RepInput Output Res "
                       "LetTuple Case CanonicalForm"),
            ("api", "Nil Par Input RepInput Output Res LetTuple Case "
                    "TauLabel InLabel OutLabel BoundOutLabel"),
            ("semantics", "Tau In FreeOut BoundOut"),
            ("encodings", "AlpiUnit AlpiChan AlpiNil AlpiPar AlpiInput "
                          "AlpiRepInput AlpiOutput AlpiRes Base Arrow SVar "
                          "SLam SApp"),
            ("typecheck", "AnyType"),
            ("equivalence", "WitnessStep"))
        for n in names.split()}
    # the records with defaults, field options or mutable fields
    assert {c.__name__ for c in _dataclasses()} - {
        c.__name__ for c in classes} == {
        "SourceFile", "Composite", "_ApiState", "LtsGraph", "TypeVerdict",
        "WireSpec", "BisimConfig", "Verdict"}
    for cls in classes:
        twin, own = _twin(cls), _own(cls)
        names = [f.name for f in dataclasses.fields(cls)]
        vals = [f"{n}-0" for n in names]
        other = [f"{n}-1" for n in names]
        x, t = cls(*vals), twin(*vals)
        assert x.__init__.__code__ is not t.__init__.__code__, cls
        assert cls(**dict(zip(names, vals))) == x
        assert [getattr(x, n) for n in names] == vals
        assert repr(x) == repr(t), cls
        assert cls.__match_args__ == twin.__match_args__
        # (compared with x, compared with t); an instance of a subclass is
        # not equal to one of its class
        pairs = [(cls(*vals), twin(*vals)), ("text", "text"), (t, x),
                 (type("Sub", (cls,), {})(*vals),
                  type("Sub", (twin,), {})(*vals))]
        if names:
            last = vals[:-1] + other[-1:]
            pairs += [(cls(*other), twin(*other)), (cls(*last), twin(*last))]
        if "__eq__" in own:
            # the body's equality and hash are kept, not generated
            assert cls.__eq__ is own["__eq__"]
            assert cls.__hash__ is own["__hash__"]
        else:
            assert hash(x) == hash(t), cls
            for y, u in pairs:
                assert (x == y) == (t == u) and (x != y) == (t != u), cls
        assert ([(f.name, f.type) for f in dataclasses.fields(x)]
                == [(f.name, f.type) for f in dataclasses.fields(t)])
        if names:
            y = dataclasses.replace(x, **{names[0]: "new"})
            assert type(y) is cls and getattr(y, names[0]) == "new"
            assert [getattr(y, n) for n in names[1:]] == vals[1:]
        else:
            assert dataclasses.replace(x) == x
        for n, obj in [(n, obj) for n in names for obj in (x, t)] + [
                ("not_a_field", x)]:
            # a slotted frozen dataclass of 3.10 and 3.11 raises TypeError
            # on a name that is not a field, so only x is tried with one
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, n, "changed")
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, n)
        if names:
            with pytest.raises(TypeError):
                cls(*vals[:-1])
        with pytest.raises(TypeError):
            cls(*vals, "extra")
        assert hasattr(x, "__dict__") == hasattr(t, "__dict__"), cls
    # a process node of either calculus keeps its free names once found,
    # and its equality, hash, repr and fields do not see them
    a, x, y = Name("a"), Name("x"), Name("y")
    for m in (api, syntax):
        out = m.Output(a, VName(x))
        real = {m.Nil: (), m.Par: (out, m.NIL), m.Input: (a, x, out),
                m.RepInput: (a, x, out), m.Output: (a, VName(x)),
                m.Res: ((x, out) if m is api
                        else (x, y, ChanType("i", UNIT), out)),
                m.LetTuple: ((x, y), VName(a), out),
                m.Case: (VName(a), x, out, y, out)}
        assert set(real) == {c for c in classes if issubclass(c, m.Process)}
        for cls, vals in real.items():
            node, t = cls(*vals), _twin(cls)(*vals)
            assert m.free_names(node) is m.free_names(node), cls
            assert node == cls(*vals) and not node != cls(*vals), cls
            assert hash(node) == hash(t) == hash(cls(*vals)), cls
            assert repr(node) == repr(t), cls
            assert ([(f.name, f.type) for f in dataclasses.fields(node)]
                    == [(f.name, f.type) for f in dataclasses.fields(t)]), cls


# exec calls made from dataclasses.py and from the package while the four
# top modules import.  Through Python 3.12 dataclasses execs once per
# method it makes: one call per node class (49) and 30 for the seven
# records, where every frozen dataclass made six and the package made 338
# in all.  From 3.13 on it execs once per dataclass, node classes too.
IMPORT_EXEC_BOUND = 80 if sys.version_info < (3, 13) else 106

_COUNT_IMPORT_EXECS = """
import builtins, dataclasses, os, sys
real, callers = builtins.exec, []
def counting(*args, **kwargs):
    callers.append(sys._getframe(1).f_code.co_filename)
    return real(*args, **kwargs)
builtins.exec = counting
import awpi.encodings, awpi.equivalence, awpi.internal, awpi.typecheck
builtins.exec = real
package = os.path.dirname(awpi.__file__)
print(sum(f == dataclasses.__file__ or os.path.dirname(f) == package
          for f in callers))
"""


def test_importing_the_package_generates_little_code():
    src = os.path.dirname(os.path.dirname(syntax.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", _COUNT_IMPORT_EXECS],
                         env=env, capture_output=True, text=True, check=True)
    assert int(out.stdout) <= IMPORT_EXEC_BOUND


# Texts for the three grammars as token lists, joined by random blanks and
# comment lines, so that each token's offset is known.  A corruption puts
# the error at a known offset, and the error's (line, col) must be that
# offset's, worked out here from the text before it.

def _awpi_tokens(rng):
    _, p = random_typed(rng.randrange(10**6), size=rng.randint(4, 16))
    return re.findall(r"[A-Za-z_][A-Za-z0-9_']*(?:#[0-9]+)?|->|\S",
                      print_process(p))


def _alpi_tokens(rng, depth=0):
    a, b, x = (rng.choice("abcxyz") for _ in range(3))
    k = rng.randrange(6 if depth < 4 else 2)
    if k == 0:
        return [a, "!", "(", b, ")"]
    if k == 1:
        return [a, "!", "(", ")"]
    if k == 2:
        return _alpi_tokens(rng, depth + 1) + ["|"] + _alpi_tokens(rng, depth + 1)
    if k == 3:
        return ["(", *_alpi_tokens(rng, depth + 1), ")"]
    if k == 4:
        ty = ["unit"]
        for _ in range(rng.randrange(3)):
            ty = ["o", "[", *ty, "]"]
        return ["new", "(", x, ":", "^", *ty, ")", *_alpi_tokens(rng, depth + 1)]
    return (["!"] if rng.random() < 0.3 else []) + [
        a, "(", x, ")", ".", *_alpi_tokens(rng, depth + 1)]


def _stlc_type_tokens(rng, depth=0):
    if depth > 2 or rng.random() < 0.4:
        return ["o"]
    left = _stlc_type_tokens(rng, depth + 1)
    if len(left) > 1:
        left = ["(", *left, ")"]
    return left + ["->"] + _stlc_type_tokens(rng, depth + 1)


def _stlc_tokens(rng, depth=0):
    k = rng.randrange(3 if depth < 4 else 1)
    if k == 0:
        return [rng.choice(["x", "y", "f"])]
    if k == 1:
        return ["\\", rng.choice(["x", "y"]), ":", *_stlc_type_tokens(rng),
                ".", *_stlc_tokens(rng, depth + 1)]
    return ["(", *_stlc_tokens(rng, depth + 1), ")", "(",
            *_stlc_tokens(rng, depth + 1), ")"]


# grammar -> (parse, tokens, comment, the token an expected-token error
# replaces and what replaces it, the token an end-of-input cut follows)
_GRAMMARS = {
    "awpi": (parse_process, _awpi_tokens, "##", ("(", "[", "!"), "."),
    "awpi-file": (parse_file, _awpi_tokens, "##", ("(", "[", "!"), "."),
    "alpi": (parse_alpi, _alpi_tokens, "#", ("(", "[", "!"), "."),
    "stlc": (parse_stlc, _stlc_tokens, "#", (".", ":", None), "."),
    "stlc-type": (parse_stlc_type, _stlc_type_tokens, "#", (")", ".", None),
                  "->"),
}


def _line_col_of(text, offset):
    lines = text[:offset].split("\n")
    return len(lines), len(lines[-1]) + 1


@pytest.mark.parametrize("grammar", sorted(_GRAMMARS))
def test_error_positions_are_the_offsets_line_and_column(grammar):
    parse, tokens, comment, (want, wrong, after), cut = _GRAMMARS[grammar]
    rng = random.Random(f"{grammar}-17")
    seps = [" ", "  ", "\n", "\n\n  ", f"\n{comment} a note\n", f"  {comment}\n\t"]
    seen = set()
    for _ in range(150):
        toks = tokens(rng)
        head = ("free k : o[unit];\n## header\nsuccess ok;\n"
                if grammar == "awpi-file" else "")
        text, starts = head + rng.choice(["", "\n", f"{comment} top\n"]), []
        for i, tok in enumerate(toks):
            text += rng.choice(seps) if i else ""
            starts.append(len(text))
            text += tok
        parse(text)
        kind = rng.choice(["unexpected", "expected", "trailing", "end"])
        if kind == "unexpected":
            at = rng.choice(starts)
            bad, msg = text[:at] + "@" + text[at:], "unexpected character '@'"
        elif kind == "expected":
            spots = [s for i, s in enumerate(starts) if toks[i] == want
                     and (after is None or (i and toks[i - 1] == after))]
            if not spots:
                continue
            at = rng.choice(spots)
            bad = text[:at] + wrong + text[at + 1:]
            msg = f"expected {want!r}, found {wrong!r}"
        elif kind == "trailing":
            bad = text + rng.choice(seps) + ")"
            at, msg = len(bad) - 1, "trailing input ')'"
        else:
            spots = [s + len(cut) for i, s in enumerate(starts)
                     if toks[i] == cut]
            if not spots:
                continue
            bad = text[:rng.choice(spots)] + rng.choice(seps)
            at, msg = len(bad), "end of input"
        with pytest.raises(ParseError) as e:
            parse(bad)
        assert msg in e.value.msg, (bad, e.value.msg)
        assert (e.value.line, e.value.col) == _line_col_of(bad, at), bad
        seen.add(kind)
    assert seen == {"unexpected", "expected", "trailing", "end"}

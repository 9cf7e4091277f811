import random

import pytest

from awpi.syntax import (
    ChanType, Name, Output, VName, parse_file, parse_process, parse_vtype,
)
from awpi.typecheck import (
    ANY, EnvCombineError, classify, combine_env, dual, is_copyable,
    is_discardable, typecheck, types_match,
)

from gen_typed import random_typed


def check_src(src):
    f = parse_file(src)
    return typecheck(f.env, f.process)


def rules_of(verdict):
    return {e.rule for e in verdict.errors}


# ---------------------------------------------------------------------------
# type-level helpers
# ---------------------------------------------------------------------------

TYPES = [
    "unit",
    "i[unit]", "o[unit]", "li[unit]", "lo[unit]",
    "o[o[unit]]", "i[unit * o[unit]]",
    "unit * unit", "unit * o[unit]", "li[unit] * unit",
    "unit + unit", "o[unit] + li[unit]",
]


@pytest.mark.parametrize("src", TYPES)
def test_dual_is_an_involution_on_channels(src):
    t = parse_vtype(src)
    if isinstance(t, ChanType):
        assert dual(dual(t)) == t
        assert dual(t).payload == t.payload


def test_dual_swaps_modes():
    assert dual(parse_vtype("i[unit]")) == parse_vtype("o[unit]")
    assert dual(parse_vtype("li[unit]")) == parse_vtype("lo[unit]")
    assert dual(parse_vtype("lo[o[unit]]")) == parse_vtype("li[o[unit]]")


def test_everything_is_discardable():
    for src in TYPES:
        assert is_discardable(parse_vtype(src))


def test_copyable_fragment():
    copyable = ["unit", "o[unit]", "o[o[unit]]", "unit * unit",
                "unit * o[unit]", "unit + unit"]
    notcopyable = ["i[unit]", "li[unit]", "lo[unit]", "li[unit] * unit",
                   "o[unit] + li[unit]", "i[unit * o[unit]]"]
    for src in copyable:
        assert is_copyable(parse_vtype(src)), src
    for src in notcopyable:
        assert not is_copyable(parse_vtype(src)), src


def test_classify():
    c = classify(parse_vtype("o[unit]"))
    assert c == {"discardable": True, "copyable": True}
    c = classify(parse_vtype("li[unit]"))
    assert c == {"discardable": True, "copyable": False}


def test_types_match_wildcard():
    assert types_match(ANY, parse_vtype("i[unit]"))
    assert types_match(parse_vtype("o[unit]"), ANY)
    assert types_match(ChanType("o", ANY), parse_vtype("o[i[unit]]"))
    assert not types_match(parse_vtype("o[unit]"), parse_vtype("i[unit]"))


def test_combine_env_merges_copyable():
    a = Name("a")
    g1 = {a: parse_vtype("o[unit]")}
    g2 = {a: parse_vtype("o[unit]")}
    assert combine_env(g1, g2) == g1


def test_combine_env_rejects_shared_input():
    a = Name("a")
    g = {a: parse_vtype("i[unit]")}
    with pytest.raises(EnvCombineError) as e:
        combine_env(g, dict(g))
    assert e.value.kind == "SharedInput"


def test_combine_env_rejects_shared_linear():
    a = Name("a")
    g = {a: parse_vtype("lo[unit]")}
    with pytest.raises(EnvCombineError) as e:
        combine_env(g, dict(g))
    assert e.value.kind == "SharedLinear"


def test_combine_env_rejects_mismatch():
    a = Name("a")
    with pytest.raises(EnvCombineError) as e:
        combine_env({a: parse_vtype("o[unit]")}, {a: parse_vtype("unit")})
    assert e.value.kind == "TypeMismatch"


# ---------------------------------------------------------------------------
# accepted processes
# ---------------------------------------------------------------------------

def test_request_server_with_connection_return():
    # a request carries a payload and a reply channel; the input capability
    # of the request channel is itself shipped to a replicated worker
    src = """
    free a : i[unit * o[unit]];
    new(bi: i[i[unit * o[unit]]], b) (
      a(n, q).( q!(n) | b!(a) )
      | bi(x). !x(m, r). r!(m)
    )
    """
    assert check_src(src)


def test_nested_reinput_on_same_subject():
    assert check_src("""
    free a : i[unit];
    a(x). a(y). 0
    """)


def test_linear_input_consumed():
    assert check_src("""
    free a : li[o[unit]];
    a(x). x!()
    """)


def test_linear_output_used_once():
    assert check_src("""
    free b : lo[unit];
    b!()
    """)


def test_case_branches_share_linear_name():
    # the branch rule is additive: both sides may spend the same resource
    assert check_src("""
    free b : lo[unit];
    free e : o[unit + unit];
    new(ci: i[unit + unit], c) (
      ci(x). case x { inl u -> b!(); inr v -> b!() }
      | c!(inl ())
    )
    """)


def test_replication_with_copyable_residual():
    assert check_src("""
    free a : i[o[unit]];
    free b : o[unit];
    !a(x). ( x!() | b!() )
    """)


def test_success_output_needs_no_declaration_type():
    assert check_src("""
    success ok;
    ok!()
    """)


def test_tuple_and_sum_payloads():
    assert check_src("""
    free b : o[unit * (unit + o[unit])];
    free c : o[unit];
    b!((), inr c)
    """)


def test_unused_env_entries_are_fine():
    assert check_src("""
    free a : i[unit];
    free b : lo[unit];
    0
    """)


def test_parallel_split_of_distinct_linear_names():
    assert check_src("""
    free b : lo[unit];
    free c : lo[unit];
    b!() | c!()
    """)


def test_copyable_output_shared_across_parallel():
    assert check_src("""
    free b : o[unit];
    b!() | b!()
    """)


# ---------------------------------------------------------------------------
# rejected processes
# ---------------------------------------------------------------------------

def test_two_inputs_race_on_one_subject():
    v = check_src("""
    free b : o[unit];
    new(a: i[unit], b') ( a(x).0 | a(y).0 | b'!() )
    """)
    assert not v
    assert "OneInputViolation" in {e.rule for e in v.errors} or \
        any("input" in e.msg.lower() for e in v.errors)


def test_free_input_name_shared_across_parallel():
    v = check_src("""
    free a : i[unit];
    a(x).0 | a(y).0
    """)
    assert not v


def test_linear_name_shared_across_parallel():
    v = check_src("""
    free b : lo[unit];
    b!() | b!()
    """)
    assert not v


def test_linear_input_reused_in_body():
    v = check_src("""
    free a : li[unit];
    a(x). a(y). 0
    """)
    assert not v


def test_output_at_input_name():
    v = check_src("""
    free a : i[unit];
    a!()
    """)
    assert not v


def test_input_at_output_name():
    v = check_src("""
    free b : o[unit];
    b(x).0
    """)
    assert not v


def test_payload_type_mismatch():
    v = check_src("""
    free b : o[o[unit]];
    b!(())
    """)
    assert not v


def test_polyadic_arity_mismatch():
    v = check_src("""
    free b : o[unit * unit];
    b!((), (), ())
    """)
    assert not v


def test_replication_needs_unrestricted_subject():
    v = check_src("""
    free a : li[unit];
    !a(x).0
    """)
    assert not v
    assert "RIn" in rules_of(v)


def test_replication_body_must_not_capture_linear_resources():
    v = check_src("""
    free a : i[unit];
    free b : lo[unit];
    !a(x). b!()
    """)
    assert not v


def test_replication_body_must_not_capture_input_names():
    v = check_src("""
    free a : i[unit];
    free c : i[unit];
    !a(x). c(y).0
    """)
    assert not v


def test_success_name_cannot_be_bound():
    v = check_src("""
    success ok;
    new(a: i[unit], b) a(ok).0
    """)
    assert not v


def test_success_name_cannot_be_input_subject():
    v = check_src("""
    success ok;
    ok(x).0
    """)
    assert not v


def test_success_payload_must_be_unit():
    v = check_src("""
    success ok;
    free b : o[unit];
    ok!(b)
    """)
    assert not v


def test_case_on_non_sum():
    v = check_src("""
    free b : o[unit];
    case () { inl x -> 0; inr y -> 0 }
    """)
    assert not v


def test_let_on_non_tuple():
    v = check_src("""
    free b : o[unit];
    let (x, y) = b in 0
    """)
    assert not v


def test_undeclared_free_name():
    v = check_src("""
    free b : o[unit];
    c!()
    """)
    assert not v


def test_nonlinear_payload_duplicated_inside_value():
    v = check_src("""
    free a : li[unit];
    free b : o[li[unit] * li[unit]];
    b!(a, a)
    """)
    assert not v


def test_input_capability_kept_after_being_sent():
    # shipping the input end and then listening on it would break the
    # one-receiver guarantee
    v = check_src("""
    free a : i[unit];
    free b : o[i[unit]];
    b!(a) | a(x).0
    """)
    assert not v


def test_error_reports_rule_and_path():
    v = check_src("""
    free a : i[unit];
    a!()
    """)
    assert not v
    err = v.errors[0]
    assert err.rule
    assert isinstance(err.path, tuple)


def test_wide_par_typechecks_and_keeps_the_one_input_check():
    env = {Name("k"): parse_vtype("o[unit]")}
    # a 1,500-way | raised RecursionError
    assert typecheck(env, parse_process(" | ".join(["k!()"] * 1500)))
    env[Name("a")] = parse_vtype("i[unit]")
    for src in ("a(x).0 | k!() | a(y).0", "k!() | (a(x).0 | a(y).0)"):
        v = typecheck(env, parse_process(src))
        assert rules_of(v) == {"OneInputViolation"} and v.errors[0].path == ()
    v = typecheck(env, parse_process("k!() | a(x).(b!() | k!())"))
    assert rules_of(v) == {"Out"} and v.errors[0].path == ("par1", "body", "par0")


# ---------------------------------------------------------------------------
# generated coverage
# ---------------------------------------------------------------------------

def test_generated_terms_typecheck():
    for seed in range(500):
        env, p = random_typed(seed, size=14)
        v = typecheck(env, p)
        assert v, f"seed {seed}: {v.errors}"


def test_weakening_preserves_typability():
    rng = random.Random(7)
    junk_types = [parse_vtype(s) for s in
                  ("unit", "o[unit]", "li[unit]", "i[o[unit]]")]
    for seed in range(60):
        env, p = random_typed(seed, size=12)
        env2 = dict(env)
        for k in range(3):
            env2[Name("junk", k + 1)] = rng.choice(junk_types)
        assert typecheck(env2, p)


def test_mutated_terms_often_fail():
    # sanity guard against a checker that accepts everything: flipping a
    # well-typed output subject to an arbitrary input name must be caught
    env, p = random_typed(3, size=12)
    bad = Output(Name("a"), VName(Name("a")))
    from awpi.syntax import Par
    v = typecheck(env, Par(p, bad))
    assert not v


# ---------------------------------------------------------------------------
# one walk per call, and the first error reported
# ---------------------------------------------------------------------------

def test_typecheck_walks_a_deep_let_chain_once():
    from awpi.syntax import LetTuple, VTuple, VUNIT
    reads = [0]

    class Counted(LetTuple):
        """A let whose body reads are counted: one per node visit."""

        def __getattribute__(self, attr):
            if attr == "body":
                reads[0] += 1
            return object.__getattribute__(self, attr)

    depth = 400
    p = Output(Name("k"), VUNIT)
    for i in reversed(range(depth)):
        p = Counted((Name("x", i + 1), Name("y", i + 1)),
                    VTuple((VUNIT, VUNIT)), p)
    assert typecheck({Name("k"): parse_vtype("o[unit]")}, p).ok
    # the free names of every let body were walked again at each ancestor:
    # about 80,000 body reads
    assert reads[0] <= 10 * depth


def _let_chain(depth, bottom):
    return parse_process("".join(f"let (x{i}, y{i}) = ((), ()) in "
                                 for i in range(depth)) + bottom)


def test_typecheck_copies_no_environment_or_path_per_level(monkeypatch):
    """Every level of one call reads the one environment and the one path
    stack, bound and pushed in place: copying them per binder made the
    deep let chain quadratic in time, though linear in node visits."""
    import awpi.typecheck as tc
    seen, check = [], tc._check

    def spy(env, p, path, table):
        seen.append((id(env), id(path)))
        return check(env, p, path, table)

    monkeypatch.setattr(tc, "_check", spy)
    depth, env = 200, {Name("k"): parse_vtype("o[unit]")}
    assert typecheck(env, _let_chain(depth, "k!()")).ok
    assert len(seen) == depth + 1
    # one environment and one path for all 201 levels (201 of each when
    # every binder copied them)
    assert len({e for e, _ in seen}) == 1 and len({p for _, p in seen}) == 1
    assert env == {Name("k"): parse_vtype("o[unit]")}
    # the path is still built for the error at the bottom
    v = typecheck(env, _let_chain(depth, "x0!()"))
    assert v.errors[0].path == ("body",) * depth
    assert v.errors[0].rule == "Out"


_TWO_ERRORS_ENV = ("free a: i[unit]; free b: o[unit]; free c: li[unit]; "
                   "free d: lo[unit]; free k: o[unit];\n")

# programs with at least two typing errors each, and the first one reported
# (rule, path, message), which does not depend on how free names are found
TWO_ERRORS = [
    ("a(x).k!() | a(y).k!() | zz!()",
     ("OneInputViolation", (), "input name a is used by both sides of Par")),
    ("k!() | (a(x).zz!() | b(y).k!())",
     ("Out", ("par1", "body"), "unbound name zz")),
    ("new(r: li[unit], s)( r(x).r(y).k!() | s!() | s!() )",
     ("LinearReuse", ("body",),
      "s : lo[unit] is affine but used by both sides of Par")),
    ("c(x).c(y).k!()",
     ("LinearReuse", (), "affine input name c reused in its own body")),
    ("!a(x).(c(y).k!() | zz!())",
     ("LinearUnderReplication", (),
      "c : li[unit] is affine and cannot occur under replication")),
    ("!a(x).(d!() | k(y).k!())",
     ("LinearUnderReplication", (),
      "d : lo[unit] is affine and cannot occur under replication")),
    ("let (x, y) = (a, k) in (a(z).k!() | x(w).zz!())",
     ("OneInputViolation", (), "input name a is used by both sides of With")),
    ("case inl c { inl x -> c(z).k!() ; inr y -> zz!() }",
     ("LinearReuse", (),
      "c : li[unit] is affine but used by both sides of Case")),
    ("case inl () { inl x -> b(z).k!() ; inr y -> a!() }",
     ("In", ("left_body",), "input at b : o[unit]; subject must be an I-name")),
    ("new(r: i[unit], s)( r(x).k!() | (s!() | r(y).b(z).k!()) )",
     ("OneInputViolation", ("body",),
      "input name r is used by both sides of Par")),
    ("let (x, y) = (d, d) in x!() | d!()",
     ("LinearReuse", (), "d : lo[unit] is affine but used by both sides of Par")),
    ("a(x, y).(k!(x) | zz!())",
     ("With", ("body",),
      "let destructures 2 components but the scrutinee has type unit")),
    # the replicated input's own checks, in the order they run
    ("!c(x).(c(y).k!() | zz!())",
     ("RIn", (), "replicated input needs a nonlinear subject; c : li[unit]")),
    ("success w; !b(w).zz!()",
     ("RIn", (), "input at b : o[unit]; subject must be an I-name")),
    ("success w; !a(w).(a(y).k!() | zz!())",
     ("Success", (), "success name w cannot be bound by RIn")),
    ("!a(x).(a(y).k!() | zz!())",
     ("InputUnderReplication", (),
      "input name a is not copyable and cannot occur under replication")),
]


@pytest.mark.parametrize("src,first", TWO_ERRORS)
def test_first_of_two_errors_is_reported(src, first):
    v = check_src(_TWO_ERRORS_ENV + src)
    assert not v.ok and len(v.errors) == 1
    e = v.errors[0]
    assert (e.rule, e.path, e.msg) == first

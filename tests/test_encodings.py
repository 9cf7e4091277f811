"""Translator tests: localised-pi compilation with its correspondence
check, and the lambda-calculus encoding with its equational sanity."""

import hashlib
import time
from functools import partial

import pytest

from awpi import api
from awpi.syntax import (
    ChanType, Input, Name, NIL, Output, Par, ParseError, RepInput, Res,
    SUCCESS, VName, alpha_eq, canonical_process, parse_process,
    print_process,
)
from awpi.semantics import (
    Composite, Fragments, _barb_walk, closure, erase_to_api,
)
from awpi.typecheck import ANY, typecheck
from awpi.internal import internalize
from awpi import encodings
from awpi.equivalence import BisimConfig, NotClosed, TypeMismatch, _Game, \
    internal_bisim_n, replay_witness
from awpi.encodings import (
    ALPI_NIL, AlpiChan, AlpiInput, AlpiOutput, AlpiPar, AlpiRepInput,
    AlpiRes, ALPI_UNIT, Arrow, BASE, IllTyped, LocalityViolation, SApp,
    SLam, SVar, UnmappedName, _api_barbs, _api_state, _api_steps,
    alpi_env, alpi_free_names, alpi_to_api, check_alpi_correspondence,
    check_locality,
    encode_alpi, encode_stlc, encode_stlc_type, is_local, is_negative_for,
    parse_alpi, parse_stlc, parse_stlc_type, stlc_env, stlc_type, term_size,
    trans_alpi_type, type_order,
)


def nm(s):
    return Name(s)


# ---------------------------------------------------------------------------
# localised pi: parsing and locality


def test_parse_alpi_shapes():
    p = parse_alpi("success ok; new(a: ^unit)( a!() | a(y).ok!() )")
    assert isinstance(p, AlpiRes)
    assert p.payload_type == ALPI_UNIT
    assert isinstance(p.body, AlpiPar)
    out, inp = p.body.left, p.body.right
    assert isinstance(out, AlpiOutput) and out.payload is None
    assert isinstance(inp, AlpiInput)
    assert inp.body == AlpiOutput(Name("ok", kind="success"), None)


def test_parse_alpi_nested_types():
    p = parse_alpi("new(b: ^unit) new(a: ^o[unit]) ( a!(b) | !a(y).y!() )")
    assert p.payload_type == ALPI_UNIT
    inner = p.body
    assert inner.payload_type == AlpiChan(ALPI_UNIT)
    assert isinstance(inner.body.right, AlpiRepInput)


def test_parse_alpi_rejects_junk():
    for src in ("a!", "new(a) 0", "a(y)", "!a!(b)", "a(y).0 |"):
        with pytest.raises(ParseError):
            parse_alpi(src)


def test_parse_alpi_success_header_reads_a_name():
    # a bare header raised IndexError, and any token after "success" was
    # taken as a success name, "(" included
    for src in ("success", "success ( ; 0", "success ok", "success ; 0"):
        with pytest.raises(ParseError):
            parse_alpi(src)
    p = parse_alpi("success ok; success _w ; ok!() | _w!()")
    assert p.left.subject.kind == p.right.subject.kind == "success"


def test_locality_flags_received_input_subject():
    p = parse_alpi("a(y).y(z).0")
    with pytest.raises(LocalityViolation):
        check_locality(p)
    assert not is_local(p)
    # output use of the received name is the allowed capability
    assert is_local(parse_alpi("a(y).y!()"))
    # a restriction shadowing the parameter restores input capability
    assert is_local(parse_alpi("a(y).new(y: ^unit)( y(z).0 )"))


def test_free_names_and_type_translation():
    p = parse_alpi("new(a: ^unit)( a!() | b!(c) )")
    assert {str(n) for n in alpi_free_names(p)} == {"b", "c"}
    t = trans_alpi_type(AlpiChan(AlpiChan(ALPI_UNIT)))
    assert str(t) == "o[o[unit]]"


# ---------------------------------------------------------------------------
# localised pi: the compilation clauses


def test_output_clause_is_identity():
    img = encode_alpi(AlpiOutput(nm("a"), nm("b")), {})
    assert alpha_eq(img, parse_process("a!(b)"))


def test_input_clause_requests_then_listens():
    img = encode_alpi(AlpiInput(nm("a"), nm("y"), ALPI_NIL),
                      {nm("a"): nm("fa")})
    expected = Res(nm("zi"), nm("z"), ChanType("i", ANY),
                   Par(Output(nm("fa"), VName(nm("z"))),
                       Input(nm("zi"), nm("y"), NIL)))
    assert alpha_eq(img, expected)


def test_input_clause_requires_request_channel():
    with pytest.raises(UnmappedName):
        encode_alpi(AlpiInput(nm("a"), nm("y"), ALPI_NIL), {})


def test_encode_rejects_nonlocal_process():
    p = parse_alpi("a(y).y(z).0")
    with pytest.raises(LocalityViolation):
        encode_alpi(p, {nm("a"): nm("fa")})


def test_replicated_input_gets_trigger_loop():
    img = encode_alpi(parse_alpi("new(a: ^unit)( !a(y).0 )"), {})
    # under the three server pairs: a trigger pair whose token respawns
    # one request per consumption
    inner = img.body.body.body.left.left
    assert isinstance(inner, Res) and str(inner.in_type) == "i[unit]"
    assert isinstance(inner.body, Par)
    token, loop = inner.body.left, inner.body.right
    assert isinstance(token, Output) and token.subject == inner.out_name
    assert isinstance(loop, RepInput) and loop.subject == inner.in_name
    assert isinstance(loop.body, Par)
    assert isinstance(loop.body.left, Output)
    assert loop.body.left.subject == inner.out_name


def test_restriction_builds_server():
    img = encode_alpi(parse_alpi("new(a: ^unit)( a!() )"), {})
    assert print_process(img).count("new(") == 3
    # the value channel keeps its source name at the output end
    assert isinstance(img, Res) and str(img.out_name) == "a"
    c_res = img.body.body
    server = c_res.body.right
    assert isinstance(server, RepInput) and server.subject == c_res.in_name
    token = c_res.body.left.right
    assert isinstance(token, Output) and token.subject == c_res.out_name


def test_closed_image_typechecks():
    srcs = [
        "success ok; new(a: ^unit)( a!() | a(y).ok!() )",
        "success ok; new(a: ^unit)( a!() | !a(y).ok!() )",
        "success ok; new(b: ^unit) new(a: ^o[unit])"
        "( a!(b) | a(y).(y!() | ok!()) | b(z).ok!() )",
    ]
    for src in srcs:
        p = parse_alpi(src)
        img = encode_alpi(p, {})
        v = typecheck(alpi_env(p), img)
        assert v.ok, (src, [str(e) for e in v.errors][:1])


# ---------------------------------------------------------------------------
# localised pi: behavioural correspondence

FIXTURES = [
    ("message", "success ok; new(a: ^unit)( a!() | a(y).ok!() )", {"ok"}),
    ("race", "success ok; success err; new(a: ^unit)"
             "( a!() | a(x).ok!() | a(y).err!() )", {"ok", "err"}),
    ("sequence", "success ok; new(a: ^unit)( a!() | a!() | a(x).a(y).ok!() )",
     {"ok"}),
    ("replication", "success ok; new(a: ^unit)( a!() | a!() | !a(y).ok!() )",
     {"ok"}),
    ("name-passing", "success ok; success done; new(b: ^unit) new(a: ^o[unit])"
                     "( a!(b) | a(y).(y!() | ok!()) | b(z).done!() )",
     {"ok", "done"}),
]


def test_fixture_images_typecheck():
    for name, src, _barbs in FIXTURES:
        p = parse_alpi(src)
        v = typecheck(alpi_env(p), encode_alpi(p, {}))
        assert v.ok, (name, [str(e) for e in v.errors][:1])


def test_fixture_correspondence():
    cfg = BisimConfig(depth=6, tau_budget=400)
    for name, src, barbs in FIXTURES:
        p = parse_alpi(src)
        v = check_alpi_correspondence(p, cfg)
        assert v.equivalent, (name, v.result, v.bounds)
        assert v.bounds["forward"] == "equivalent", name
        assert v.bounds["backward"] == "equivalent", name
        assert set(v.bounds["barbs_direct"]) == barbs, name
        assert set(v.bounds["barbs_encoded"]) == barbs, name


def test_success_output_is_identity_like():
    p = parse_alpi("success ok; ok!()")
    assert alpha_eq(encode_alpi(p, {}), parse_process("ok!()", success=("ok",)))
    v = check_alpi_correspondence(p)
    assert v.equivalent


def test_correspondence_of_an_input_that_binds_its_subject():
    # the reference route freshened a(a)'s parameter and its subject alike,
    # so the received name escaped the restriction: distinguished, while
    # the alpha-variant a(x).x!() was equivalent
    for src in ("success ok; new(a: ^o[unit])( a(a).a!() | a!(ok) )",
                "success ok; new(a: ^o[unit])( a(x).x!() | a!(ok) )"):
        v = check_alpi_correspondence(parse_alpi(src))
        assert v.equivalent, src
        assert (v.bounds["forward"], v.bounds["backward"]) == (
            "equivalent", "equivalent")


def test_correspondence_needs_closed_process():
    with pytest.raises(NotClosed):
        check_alpi_correspondence(parse_alpi("a!()"))


def test_correspondence_rejects_a_success_name_with_a_payload():
    # success names carry unit, and an image that sends them anything else
    # is rejected before a game is played, not judged distinguished
    for src in ("success ok; new(a: ^unit)(ok!(a))",
                "success ok; success e; new(a: ^unit)(ok!(a)) | e!()"):
        with pytest.raises(TypeMismatch, match="payload of ok has type "
                                               "o\\[unit\\], expected unit"):
            check_alpi_correspondence(parse_alpi(src))


def _api_game(cfg):
    """The game ``check_alpi_correspondence`` plays: weak simulation over
    reference-route states."""
    return _Game("sim", cfg, space=Fragments(_api_steps))


def test_api_weak_sim_distinguishes():
    cfg = BisimConfig()
    ok, err, message = (_api_state(alpi_to_api(parse_alpi(src))) for src in (
        "success ok; ok!()", "success err; err!()",
        "success ok; new(a: ^unit)( a!() | a(y).ok!() )"))
    assert _api_game(cfg).run(ok, err, cfg.depth) is False
    assert _api_game(cfg).run(ok, ok, cfg.depth) is True
    # a weak answer: the message's tau, then its ok!()
    assert _api_game(cfg).run(ok, message, cfg.depth) is True


def test_distinguished_correspondence_has_a_witness_that_replays(monkeypatch):
    # an encoder that drops the ok!() of "message" leaves the source's
    # ok!() unanswered: the forward direction fails, with a witness
    cfg = BisimConfig(depth=6, tau_budget=400)
    (src,) = [s for name, s, _b in FIXTURES if name == "message"]
    dropped = parse_alpi("new(a: ^unit)( a!() | a(y).0 )")
    real = encodings.encode_alpi
    monkeypatch.setattr(encodings, "encode_alpi", lambda p, f: real(dropped, f))
    p = parse_alpi(src)
    v = check_alpi_correspondence(p, cfg)
    assert v.distinguished and v.witness
    assert v.bounds["forward"] == "distinguished"
    assert v.bounds["backward"] == "equivalent"
    direct, erased = alpi_to_api(p), _api_pair(dropped)[1]
    assert _api_game(cfg).replay(_api_state(direct), _api_state(erased),
                                 v.witness)
    assert not _api_game(cfg).replay(_api_state(erased), _api_state(direct),
                                     v.witness)


def _api_pair(p):
    """The source ``p`` and its erased image, built as
    ``check_alpi_correspondence`` builds them."""
    image = canonical_process(encode_alpi(p, {}))
    return alpi_to_api(p), erase_to_api(Composite(image, frozenset()))


def _replication_source():
    (src,) = [s for name, s, _b in FIXTURES if name == "replication"]
    return parse_alpi(src)


def _replication_pair():
    return _api_pair(_replication_source())


def _record_steps(monkeypatch):
    """Record the alpha key of each outermost ``api.lts_step`` call."""
    keys = []
    original = api.lts_step
    depth = [0]

    def recorded(p):
        if not depth[0]:
            keys.append(api.alpha_key(p))
        depth[0] += 1
        try:
            return original(p)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(api, "lts_step", recorded)
    return keys


def test_api_weak_sim_steps_each_state_once(monkeypatch):
    cfg = BisimConfig(depth=6, tau_budget=400)
    direct, erased = map(_api_state, _replication_pair())
    keys = _record_steps(monkeypatch)
    for p, q in ((direct, erased), (erased, direct)):
        keys.clear()
        assert _api_game(cfg).run(p, q, cfg.depth) is True
        assert keys and len(keys) == len(set(keys))


def _api_weak_barbs(p, budget):
    """The weak success barbs of the closed ``p`` on the reference route,
    by name, and whether ``budget`` cut the walk short: ``_barb_walk``
    over the closure of ``p`` in a fresh table, wanting every free success
    name, as ``check_alpi_correspondence`` reads them off its game's."""
    space = Fragments(_api_steps)
    wanted = {str(n) for n in api.free_names(p) if n.kind == SUCCESS}
    return _barb_walk(closure(_api_state(p), space.tau_targets, budget),
                      wanted, partial(_api_barbs, space))


def test_api_weak_barbs_steps_each_visited_state_once(monkeypatch):
    # beside a stuck ``err`` the replication image never shows every free
    # success name, so its walk runs to the tau budget
    _direct, erased = _api_pair(parse_alpi(
        "success ok; success err; new(a: ^unit)( a!() | a!() | !a(y).ok!() )"
        " | new(c: ^unit)( c(z).err!() )"))
    keys = _record_steps(monkeypatch)
    barbs, truncated = _api_weak_barbs(erased, 400)
    assert barbs == {"ok"} and truncated
    assert len(keys) == len(set(keys)) == 400


def test_api_weak_barbs_stops_once_every_success_name_is_seen(monkeypatch):
    _direct, erased = _replication_pair()
    keys = _record_steps(monkeypatch)
    assert _api_weak_barbs(erased, 400) == ({"ok"}, False)
    assert len(keys) <= 40


def test_api_weak_barbs_without_success_names_steps_once(monkeypatch):
    loop = alpi_to_api(parse_alpi("new(a: ^unit)( a!() | !a(y).a!() )"))
    keys = _record_steps(monkeypatch)
    assert _api_weak_barbs(loop, 400) == (frozenset(), False)
    assert len(keys) == 1


def test_correspondence_keys_each_start_process_once(monkeypatch):
    # the barbs of both start states are read off the game's closures of
    # them, which reuse the keys the game read, not off fresh states
    starts, keyed = {}, {}
    alpha_key, to_api, erase = api.alpha_key, alpi_to_api, erase_to_api

    def counted_key(p):
        keyed[id(p)] = keyed.get(id(p), 0) + 1
        return alpha_key(p)

    def start(name, build):
        def built(*args):
            starts[name] = build(*args)
            return starts[name]
        return built

    monkeypatch.setattr(api, "alpha_key", counted_key)
    monkeypatch.setattr(encodings, "alpi_to_api", start("direct", to_api))
    monkeypatch.setattr(encodings, "erase_to_api", start("erased", erase))
    v = check_alpi_correspondence(_replication_source(),
                                  BisimConfig(depth=6, tau_budget=400))
    assert v.equivalent and v.bounds["barbs_encoded"] == ["ok"]
    assert {name: keyed.get(id(p)) for name, p in starts.items()} == {
        "direct": 1, "erased": 1}


def test_correspondence_steps_each_state_once(monkeypatch):
    # both simulation directions and both barb walks share one state table
    keys = _record_steps(monkeypatch)
    v = check_alpi_correspondence(_replication_source(),
                                  BisimConfig(depth=6, tau_budget=400))
    assert v.equivalent
    assert keys and len(keys) == len(set(keys))


def test_correspondence_keys_a_state_when_first_read(monkeypatch):
    # a target no game or barb walk reads is never keyed
    keyed, built = [0], [0]
    alpha_key, steps = api.alpha_key, encodings._api_steps

    def counted_key(p):
        keyed[0] += 1
        return alpha_key(p)

    def counted_steps(space, comp):
        out = steps(space, comp)
        built[0] += len(out)
        return out

    monkeypatch.setattr(api, "alpha_key", counted_key)
    monkeypatch.setattr(encodings, "_api_steps", counted_steps)
    v = check_alpi_correspondence(_replication_source(),
                                  BisimConfig(depth=6, tau_budget=400))
    assert 0 < keyed[0] < built[0]
    # as when every target was keyed when built
    assert (v.result, v.witness, v.truncated) == ("equivalent", (), False)
    assert v.bounds == {
        "method": "alpi-correspondence", "forward": "equivalent",
        "backward": "equivalent", "barbs_direct": ["ok"],
        "barbs_encoded": ["ok"], "depth": 6, "tau_budget": 400}


# ---------------------------------------------------------------------------
# lambda-calculus: parsing and typing


def test_parse_stlc_shapes():
    t = parse_stlc("\\f:o -> o. \\x:o. f (f x)")
    assert isinstance(t, SLam) and t.var_type == Arrow(BASE, BASE)
    inner = t.body
    assert isinstance(inner.body, SApp)
    assert inner.body.fn == SVar("f")
    assert inner.body.arg == SApp(SVar("f"), SVar("x"))


def test_application_associates_left():
    t = parse_stlc("f x y")
    assert t == SApp(SApp(SVar("f"), SVar("x")), SVar("y"))


def test_arrow_associates_right():
    assert parse_stlc_type("o -> o -> o") == Arrow(BASE, Arrow(BASE, BASE))
    assert parse_stlc_type("(o -> o) -> o") == Arrow(Arrow(BASE, BASE), BASE)


def test_parse_stlc_rejects_junk():
    for src in ("", "\\x. x", "\\x:o x", "(x", "x )"):
        with pytest.raises(ParseError):
            parse_stlc(src)


def test_front_end_errors_carry_a_position():
    cases = [(parse_alpi, src) for src in (
        "a!", "new(a) 0", "a(y)", "!a!(b)", "a(y).0 |", "success",
        "a(y).0 )", "a $ b", "²!()", "new(a: ^x) 0")]
    cases += [(parse_stlc, src) for src in (
        "", "\\x. x", "\\x:o x", "(x", "x )", "x 1", "\\²:o. x")]
    cases += [(parse_stlc_type, src) for src in ("", "o ->", "(o", "o o", "x")]
    for parse, src in cases:
        with pytest.raises(ParseError) as e:
            parse(src)
        assert e.value.line is not None and e.value.col is not None, src
    with pytest.raises(ParseError) as e:
        parse_alpi("a(y).0\n | b!() )")
    assert (e.value.line, e.value.col) == (2, 9)


@pytest.mark.parametrize("parse, src", [
    (parse_alpi, "a(x)." * 2000 + "0"),
    (parse_alpi, "(" * 2000 + "0" + ")" * 2000),
    (parse_stlc, "(" * 2000 + "x" + ")" * 2000),
    (parse_stlc, "\\x:o. " * 2000 + "x"),
    (parse_stlc_type, "(" * 2000 + "o" + ")" * 2000),
    (parse_stlc_type, "o -> " * 2000 + "o"),
], ids=["alpi-prefix", "alpi-parens", "stlc-parens", "stlc-lambdas",
        "type-parens", "type-arrows"])
def test_deep_nesting_is_a_parse_error(parse, src):
    # each raised RecursionError
    with pytest.raises(ParseError, match="nested too deeply") as e:
        parse(src)
    assert e.value.line == 1 and e.value.col > 1


def _deep_alpi():
    """A 3,000-deep prefix chain and a 3,000-deep restriction chain, closed
    but for the success name, built through the constructors."""
    a, ok = nm("a"), Name("ok", kind="success")
    prefixes = restrictions = AlpiOutput(ok, None)
    for _ in range(3000):
        prefixes = AlpiInput(a, nm("y"), prefixes)
        restrictions = AlpiRes(a, ALPI_UNIT, restrictions)
    return prefixes, restrictions


@pytest.mark.parametrize("walk", [
    lambda p, r: alpi_free_names(p),
    lambda p, r: check_locality(p),
    lambda p, r: encodings.alpi_names(r),
    lambda p, r: alpi_env(p),
    lambda p, r: alpi_to_api(r),
    lambda p, r: check_alpi_correspondence(r),
], ids=["alpi_free_names", "check_locality", "alpi_names", "alpi_env",
        "alpi_to_api", "check_alpi_correspondence"])
def test_alpi_walks_reject_deep_nesting(walk):
    # each raised RecursionError, and then each said "process"
    with pytest.raises(ValueError,
                       match="^localised process nested too deeply$"):
        walk(*_deep_alpi())


@pytest.mark.parametrize("check", [
    lambda p: encode_alpi(p, {}), check_alpi_correspondence,
], ids=["encode_alpi", "check_alpi_correspondence"])
def test_encoding_rejects_a_source_it_cannot_compile(check):
    # 300 restricted inputs pass the source's own walks, but the encoder
    # recursed twice per level of the source and raised RecursionError
    p = AlpiOutput(Name("ok", kind="success"), None)
    for _ in range(300):
        p = AlpiRes(nm("a"), ALPI_UNIT, AlpiInput(nm("a"), nm("y"), p))
    with pytest.raises(ValueError,
                       match="^localised process nested too deeply$"):
        check(p)


def _deep_stlc():
    """A 3,000-deep abstraction chain and a 3,000-deep argument-nested
    arrow ``((o -> o) -> o) -> ... -> o``, built through the constructors."""
    term, ty = SVar("x"), BASE
    for _ in range(3000):
        term = SLam("x", BASE, term)
        ty = Arrow(ty, BASE)
    return term, ty


@pytest.mark.parametrize("walk, what", [
    (lambda t, ty: stlc_type(t, {}), "term"),
    (lambda t, ty: term_size(t), "term"),
    (lambda t, ty: str(t), "term"),
    (lambda t, ty: encode_stlc(t, {}, nm("p")), "term"),
    (lambda t, ty: type_order(ty), "type"),
    (lambda t, ty: encode_stlc_type(ty), "type"),
], ids=["stlc_type", "term_size", "str", "encode_stlc", "type_order",
        "encode_stlc_type"])
def test_stlc_walks_reject_deep_nesting(walk, what):
    # each raised RecursionError, and then each said "process"
    with pytest.raises(ValueError, match=f"^lambda {what} nested too deeply$"):
        walk(*_deep_stlc())


def test_stlc_typing_errors():
    with pytest.raises(IllTyped):
        stlc_type(parse_stlc("x"), {})
    with pytest.raises(IllTyped):
        stlc_type(parse_stlc("x x"), {"x": BASE})
    with pytest.raises(IllTyped):
        stlc_type(parse_stlc("(\\x:o. x) (\\y:o. y)"), {})
    assert stlc_type(parse_stlc("\\x:o. x"), {}) == Arrow(BASE, BASE)


def test_term_metrics():
    assert term_size(parse_stlc("(\\x:o. x) y")) == 4
    assert type_order(parse_stlc_type("o")) == 0
    assert type_order(parse_stlc_type("o -> o -> o")) == 1
    assert type_order(parse_stlc_type("(o -> o) -> o")) == 2


# ---------------------------------------------------------------------------
# lambda-calculus: type translation


def test_type_translation_expansions():
    assert str(encode_stlc_type(parse_stlc_type("o"))) == "li[unit]"
    assert str(encode_stlc_type(parse_stlc_type("o -> o"))) \
        == "li[o[unit] * unit]"
    assert str(encode_stlc_type(parse_stlc_type("(o -> o) -> o"))) \
        == "li[o[o[unit] * unit] * unit]"


# ---------------------------------------------------------------------------
# lambda-calculus: the encoding clauses


def test_variable_clause_base_type():
    img = encode_stlc(parse_stlc("x"), {"x": BASE}, nm("p"))
    assert alpha_eq(img, parse_process("p(u).x!(u)"))


def test_variable_clause_arrow_type():
    img = encode_stlc(parse_stlc("x"), {"x": parse_stlc_type("o -> o")},
                      nm("p"))
    assert alpha_eq(img, parse_process("p(y, u).x!(y, u)"))


def test_identity_abstraction_matches_clause_shapes():
    img = encode_stlc(parse_stlc("\\x:o. x"), {}, nm("p"))
    expected = parse_process(
        "p(x1, q).new(r: li[unit], ro)( ro!(q) | r(u).x1!(u) )")
    assert alpha_eq(img, expected)


def _subterms(p):
    out = [p]
    for f in ("body", "left", "right"):
        child = getattr(p, f, None)
        if child is not None and hasattr(child, "__dataclass_fields__"):
            out.extend(_subterms(child))
    return out


def test_application_replicates_argument():
    img = encode_stlc(parse_stlc("(\\x:o. x) y"), {"y": BASE}, nm("p"))
    text = print_process(img)
    assert text.startswith("p(")
    assert "y!(" in text
    reps = [t for t in _subterms(img) if isinstance(t, RepInput)]
    assert len(reps) == 1
    assert any(isinstance(t, Output) and t.subject == nm("y")
               for t in _subterms(reps[0]))


def test_weakening_leaves_image_unchanged():
    a = encode_stlc(parse_stlc("x"), {"x": BASE}, nm("p"))
    b = encode_stlc(parse_stlc("x"),
                    {"x": BASE, "z": parse_stlc_type("o -> o")}, nm("p"))
    assert alpha_eq(a, b)


# ---------------------------------------------------------------------------
# lambda-calculus: the equational corpus
#
# Each pair is provably equal by beta/eta alone; the encodings must be
# internally bisimilar at depth 6 under the translated typing.

BETA_ETA = [
    ("beta-id-base", {"y": "o"}, "(\\x:o. x) y", "y", "o"),
    ("eta-fn", {"f": "o -> o"}, "\\x:o. f x", "f", "o -> o"),
    ("beta-fn", {"g": "o -> o"}, "(\\f:o -> o. f) g", "g", "o -> o"),
    ("beta-under-lam", {"x": "o"}, "(\\y:o. \\z:o. y) x", "\\z:o. x",
     "o -> o"),
    ("beta-drop", {"x": "o", "w": "o"}, "(\\z:o. w) x", "w", "o"),
    ("eta-id", {}, "\\x:o. (\\y:o. y) x", "\\y:o. y", "o -> o"),
    ("beta-compose", {"f": "o -> o", "x": "o"}, "(\\y:o. f y) x", "f x", "o"),
    ("beta-order2", {"F": "(o -> o) -> o", "g": "o -> o"},
     "(\\h:o -> o. F h) g", "F g", "o"),
    ("eta-order2", {"F": "(o -> o) -> o"}, "\\g:o -> o. F g", "F",
     "(o -> o) -> o"),
    ("beta-id-id", {}, "(\\f:o -> o. f) (\\x:o. x)", "\\x:o. x", "o -> o"),
    ("beta-arg-fn", {"g": "o -> o", "x": "o"}, "(\\f:o -> o. f x) g", "g x",
     "o"),
]


def _encode_pair(envs, lsrc, rsrc, tsrc):
    p = nm("p")
    env = {k: parse_stlc_type(v) for k, v in envs.items()}
    lt, rt = parse_stlc(lsrc), parse_stlc(rsrc)
    ty = parse_stlc_type(tsrc)
    assert stlc_type(lt, env) == ty == stlc_type(rt, env)
    le, re_ = encode_stlc(lt, env, p), encode_stlc(rt, env, p)
    return le, re_, stlc_env(env, ty, p), p, (lt, rt)


def test_corpus_is_at_desk_scale():
    assert len(BETA_ETA) >= 10
    for name, envs, lsrc, rsrc, tsrc in BETA_ETA:
        env = {k: parse_stlc_type(v) for k, v in envs.items()}
        for src in (lsrc, rsrc):
            t = parse_stlc(src)
            assert term_size(t) <= 6, (name, src)
            assert type_order(stlc_type(t, env)) <= 2, (name, src)


def test_corpus_images_typecheck_and_are_negative():
    for name, envs, lsrc, rsrc, tsrc in BETA_ETA:
        le, re_, tenv, p, _ = _encode_pair(envs, lsrc, rsrc, tsrc)
        for side, img in (("lhs", le), ("rhs", re_)):
            v = typecheck(tenv, img)
            assert v.ok, (name, side, [str(e) for e in v.errors][:1])
            assert is_negative_for(img, p), (name, side)


def test_beta_eta_pairs_bisimilar():
    for name, envs, lsrc, rsrc, tsrc in BETA_ETA:
        le, re_, tenv, p, _ = _encode_pair(envs, lsrc, rsrc, tsrc)
        il, ir = internalize(le, tenv), internalize(re_, tenv)
        v = internal_bisim_n(frozenset(), il, ir, 6, env=tenv)
        assert v.equivalent, (name, v.result)


def _chain(n):
    """``\\x:o. \\x:o. ... x``: ``n`` curried binders of one name."""
    return "\\x:o. " * n + "x"


# sha256 of the printed images below, as the encoders made them before
# their fresh names came from a per-call next index: the images must not
# change
IMAGES_SHA256 = (
    "e661d9bbca5408b38c66da00675cfb1d5874bddbbaf5db3e9da9c8a100bb1a44")


def test_images_are_unchanged():
    texts = []
    for name, envs, lsrc, rsrc, tsrc in BETA_ETA:
        le, re_, _tenv, _p, _ = _encode_pair(envs, lsrc, rsrc, tsrc)
        texts += [print_process(le), print_process(re_)]
    for n in range(1, 31):
        texts.append(print_process(encode_stlc(parse_stlc(_chain(n)), {},
                                               nm("p"))))
    for name, src, _barbs in FIXTURES:
        texts.append(print_process(encode_alpi(parse_alpi(src), {})))
    nested = ("success ok; " + "new(a: ^unit) " * 12
              + "(" + " | ".join(["a!() | !a(y).a(z).ok!()"] * 4) + ")")
    texts.append(print_process(encode_alpi(parse_alpi(nested), {})))
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == IMAGES_SHA256


def test_curried_chain_encodes_in_quadratic_time():
    # each fresh name searched its base's indices from 1 again, about n**4
    # probes on a chain: n = 160 took about a minute
    term = parse_stlc(_chain(160))
    start = time.perf_counter()
    image = encode_stlc(term, {}, nm("p"))
    assert time.perf_counter() - start < 5.0
    assert typecheck(stlc_env({}, stlc_type(term, {}), nm("p")), image).ok


def test_encoding_types_each_subterm_once(monkeypatch):
    # every node typed its own subterm again: 1,377 / 5,252 / 20,502
    # stlc_type calls at n = 50 / 100 / 200
    calls, typed = [0], encodings._typed

    def counted(term, env):
        calls[0] += 1
        return typed(term, env)

    monkeypatch.setattr(encodings, "_typed", counted)
    for n in (50, 100, 200):
        term = parse_stlc(_chain(n))
        calls[0] = 0
        encode_stlc(term, {}, nm("p"))
        assert calls[0] == term_size(term) == n + 1
    app = parse_stlc("\\f:o -> o -> o. \\y:o. f (f y y) ((\\z:o. z) y)")
    calls[0] = 0
    encode_stlc(app, {}, nm("p"))
    assert calls[0] == term_size(app)


def test_unequal_terms_distinguished():
    le, re_, tenv, p, _ = _encode_pair(
        {}, "\\x:o. \\y:o. x", "\\x:o. \\y:o. y", "o -> o -> o")
    il, ir = internalize(le, tenv), internalize(re_, tenv)
    v = internal_bisim_n(frozenset(), il, ir, 6, env=tenv)
    assert v.distinguished
    assert replay_witness(il, ir, v, frozenset(), tenv)

"""The three workloads as lists of timed queries, and one pass over them.

A query is what a user at a desk waits for: one equivalence check with its
witness replay, one correspondence check, one canonical form, one round
trip.  Each query checks its own outcome against the frozen expectation.

Workloads:

* ``game`` -- the internal-bisimilarity game: the law corpus at depth 5,
  the beta/eta pairs at depth 6, and the distinguishing pairs with witness
  replay.  ``canonicalize`` does most of the work here, on many small
  distinct states.
* ``closed`` -- checks on closed processes: ALpi correspondence (reference
  LTS in ``api``), barbed and strong bisimilarity and ``explore`` on a
  client/server family.  Reduction, weak barbs and the reference LTS do
  most of the work; the internal game does not run.
* ``syntax`` -- the front end and state identity without any game:
  generated programs through print, parse, typecheck, internalize and
  canonicalize; the canonicalization scaling families; round trips of a
  wide ``|`` chain and a deep prefix chain.
"""

import gc
import hashlib
import random
import resource
import time
from dataclasses import dataclass, field
from functools import partial

from awpi.encodings import (
    check_alpi_correspondence, encode_stlc, parse_alpi, parse_stlc,
    parse_stlc_type, stlc_env,
)
from awpi.equivalence import (
    DISTINGUISHED, EQUIVALENT, BisimConfig, barbed_bisim, internal_bisim_n,
    replay_witness, strong_bisim,
)
from awpi.internal import internalize, is_internal
from awpi.semantics import explore, reduce, weak_barbs
from awpi.syntax import (
    Name, ParseError, alpha_eq, canonicalize, parse_file, parse_process,
    parse_vtype, print_process, rename_free,
)
from awpi.typecheck import typecheck

import corpus

GENERATED_PROGRAMS = 300
GENERATED_SIZE = 25
RING_SHUFFLES = 20
# The tests check the laws at depth 6, where the corpus alone takes about
# 14 s; at depth 5 a whole game pass takes about 10 s, so a run can make
# three fresh passes and report their median.  The laws hold at every
# depth up to 6 (the strata are anti-monotone) and the same game code runs.
LAW_DEPTH = 5
# A generated program whose congruent copy gets another canonical key is a
# known defect (canonicalize is not canonical past its tie cap).  Over 32
# seeds at most 5 of the 300 programs failed so; more than this many in a
# pass makes the run incorrect.
GENERATED_KEY_LIMIT = 15


@dataclass
class Query:
    """``run`` returns (verdict, failure kind or None).

    ``tolerated`` names failure kinds that are known defects of the program
    at the benchmark's creation: they count as failed ops in ``ok_ratio``
    and ``failed_ratio``, but not in the result line's ``failed``, and do
    not make the run incorrect, up to the limits of ``DEFECT_LIMITS``.
    Past those limits they fail as any other failure.  ``rejects``
    marks inputs on which a ``ParseError`` or ``ValueError`` is a
    documented rejection, not a failure.
    """

    name: str
    run: object
    tolerated: frozenset = field(default_factory=frozenset)
    rejects: bool = False

    def call(self):
        try:
            return self.run()
        except Exception as e:
            kind = type(e).__name__
            if self.rejects and isinstance(e, (ParseError, ValueError)):
                return f"rejected:{kind}", None
            return f"raised:{kind}: {e}"[:200], kind


def _digest(text):
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def _tenv(spec):
    out = {}
    for part in filter(None, (p.strip() for p in spec.split(";"))):
        n, t = part.split(":", 1)
        out[Name(n.strip())] = parse_vtype(t.strip())
    return out


def _delta(text):
    """Connection set ``a-b,c-d`` as name pairs."""
    pairs = (item.split("-") for item in text.split(",") if item)
    return frozenset((Name(i), Name(o)) for i, o in pairs)


def _proc(src):
    return parse_file(src).process if "success" in src else parse_process(src)


def _judge(v, expected, replay):
    if v.result != expected:
        return v.result, "verdict"
    if v.distinguished and not replay():
        return v.result, "witness"
    return v.result, None


# ---------------------------------------------------------------------------
# game


def _internal(delta, lhs, rhs, env, depth, expected):
    il, ir = internalize(lhs, env), internalize(rhs, env)
    v = internal_bisim_n(delta, il, ir, depth, env=env)
    return _judge(v, expected, lambda: replay_witness(il, ir, v, delta, env))


def _stlc(env, lhs, rhs, ty, expected):
    p = Name("p")
    tenv = stlc_env(env, ty, p)
    il = internalize(encode_stlc(lhs, env, p), tenv)
    ir = internalize(encode_stlc(rhs, env, p), tenv)
    v = internal_bisim_n(frozenset(), il, ir, 6, env=tenv)
    return _judge(v, expected,
                  lambda: replay_witness(il, ir, v, frozenset(), tenv))


def game_queries(rng):
    var = corpus.Variants(rng)
    out = []
    for name, espec, dspec, lsrc, rsrc in corpus.LAWS:
        lhs, rhs = var.process(_proc(lsrc)), var.process(_proc(rsrc))
        out.append(Query(f"law/{name}", partial(
            _internal, _delta(dspec), lhs, rhs, _tenv(espec), LAW_DEPTH,
            EQUIVALENT)))
    for name, envs, lsrc, rsrc, tsrc, expected in (
            [row + (EQUIVALENT,) for row in corpus.BETA_ETA]
            + [corpus.UNEQUAL_STLC + (DISTINGUISHED,)]):
        env = {k: parse_stlc_type(t) for k, t in envs.items()}
        out.append(Query(f"beta-eta/{name}", partial(
            _stlc, env, var.term(parse_stlc(lsrc)), var.term(parse_stlc(rsrc)),
            parse_stlc_type(tsrc), expected)))
    espec, lsrc, rsrc = corpus.MUTATED_WIRE
    out.append(Query("distinguish/mutated-wire", partial(
        _internal, frozenset(), var.process(_proc(lsrc)),
        var.process(_proc(rsrc)), _tenv(espec), 6, DISTINGUISHED)))
    espec, lsrc, rsrc = corpus.STRATA
    for depth, expected in ((0, EQUIVALENT), (6, DISTINGUISHED)):
        out.append(Query(f"distinguish/strata-{depth}", partial(
            _internal, frozenset(), var.process(_proc(lsrc)),
            var.process(_proc(rsrc)), _tenv(espec), depth, expected)))
    return out


# ---------------------------------------------------------------------------
# closed


def _alpi(p, barbs):
    v = check_alpi_correspondence(p, BisimConfig(depth=6, tau_budget=400))
    b = v.bounds
    if not v.equivalent or (b["forward"], b["backward"]) != (EQUIVALENT,
                                                            EQUIVALENT):
        return f"{v.result}/{b['forward']}/{b['backward']}", "verdict"
    if b["barbs_direct"] != barbs or b["barbs_encoded"] != barbs:
        return f"barbs {b['barbs_direct']} {b['barbs_encoded']}", "barbs"
    return v.result, None


def _barbed(p, q, expected):
    v = barbed_bisim(p, q)
    return _judge(v, expected, lambda: replay_witness(p, q, v))


def _strong(p, q, expected, exact):
    v = strong_bisim(p, q)
    if exact and not v.bounds.get("exact"):
        return v.result, "inexact"
    return _judge(v, expected, lambda: replay_witness(p, q, v))


def _explore(p, depth, states):
    g = explore(frozenset(), p, depth_bound=depth, state_bound=2000)
    verdict = f"{len(g.nodes)} states, {len(g.edges)} edges"
    if g.truncated:
        return verdict, "truncated"
    return verdict, None if len(g.nodes) == states else "states"


def closed_queries(rng):
    var = corpus.Variants(rng)
    out = [Query(f"alpi/{name}", partial(_alpi, parse_alpi(src), barbs))
           for name, src, barbs in corpus.ALPI]
    cs2 = _proc(corpus.client_server(2))
    out.append(Query("barbed/client-server-2", partial(
        _barbed, var.process(cs2), _proc("success ok; ok!() | ok!()"),
        EQUIVALENT)))
    p, q = corpus.BARBED_CHOICE
    out.append(Query("barbed/distinct-choices", partial(
        _barbed, var.process(_proc(p)), var.process(_proc(q)),
        DISTINGUISHED)))
    cs4 = _proc(corpus.client_server(4))
    out.append(Query("strong/client-server-4", partial(
        _strong, var.process(cs4), var.process(cs4), EQUIVALENT, True)))
    out.append(Query("explore/client-server-4", partial(
        _explore, var.process(cs4), 12, corpus.client_server_states(4))))
    p, q = corpus.REFINEMENT_FALLBACK
    out.append(Query("strong/refinement-fallback", partial(
        _strong, var.process(_proc(p)), var.process(_proc(q)), DISTINGUISHED,
        False)))
    return out


# ---------------------------------------------------------------------------
# syntax


def _pipeline(p, copy):
    q = parse_process(print_process(p))
    if not alpha_eq(p, q):
        return "round trip differs", "roundtrip"
    if not typecheck(corpus.GEN_ENV, q).ok:
        return "ill-typed", "typecheck"
    w = internalize(q, corpus.GEN_ENV)
    if not is_internal(w, corpus.GEN_ENV):
        return "not internal", "internal"
    key = canonicalize(w).key
    if canonicalize(copy.process(w)).key != key:
        return _digest(key), "key"
    return _digest(key), None


def _canon_reference(p, keys, family):
    keys[family] = canonicalize(p).key
    return _digest(keys[family]), None


def _canon_copy(p, keys, family):
    key = canonicalize(p).key
    return _digest(key), None if key == keys.get(family) else "key"


def _round_trip(text):
    p = parse_process(text)
    if not alpha_eq(p, parse_process(print_process(p))):
        return "round trip differs", "roundtrip"
    return "round trip", None


def syntax_queries(rng):
    var = corpus.Variants(rng)
    key_defect = frozenset({"key"})
    out = []
    for i in range(GENERATED_PROGRAMS):
        p = corpus.Generator(random.Random(rng.random())).program(
            GENERATED_SIZE)
        copy = corpus.Variants(random.Random(rng.random()))
        out.append(Query(f"generated/{i}", partial(_pipeline, p, copy),
                         key_defect))
    keys = {}
    # (family, reference, congruent copies, tolerated); nine identical atoms
    # take a third of a pass, so that form is canonicalized once, without a
    # copy.  Only the ring's shuffles get other keys at seed (10 distinct of
    # 20); no copy of the other families did over 60 seeds.
    families = ([(f"identical-{n}", _proc(corpus.identical_outputs(n)),
                  int(n < 9), frozenset()) for n in range(6, 10)]
                + [(f"nested-{d}", _proc(corpus.nested(d)), 1, frozenset())
                   for d in range(10, 14)]
                + [("ring-7", corpus.ring(7), RING_SHUFFLES, key_defect)])
    for family, p, copies, tolerated in families:
        out.append(Query(f"canon/{family}/reference", partial(
            _canon_reference, p, keys, family)))
        for i in range(copies):
            out.append(Query(f"canon/{family}/copy-{i}", partial(
                _canon_copy, var.process(p), keys, family), tolerated))
    out.append(Query("round-trip/wide-par-1500", partial(
        _round_trip, corpus.identical_outputs(1500)),
        frozenset({"RecursionError"}), rejects=True))
    out.append(Query("round-trip/deep-prefix-400", partial(
        _round_trip, corpus.deep_prefix(400)), rejects=True))
    return out


QUERIES = {"game": game_queries, "closed": closed_queries,
            "syntax": syntax_queries}
# query-name prefix -> most tolerated failures of its queries in one pass
DEFECT_LIMITS = {"generated": GENERATED_KEY_LIMIT}


# ---------------------------------------------------------------------------
# one pass


def warm_up():
    """Call every layer once on tiny inputs, so that first-call costs fall
    in set-up, not in the first query, and every per-layer span is seen on
    every workload."""
    env = {Name("k"): corpus.O_UNIT}
    p = parse_process("new(a: i[unit], b)( a(x).k!() | b!() )")
    parse_process(print_process(p))
    rename_free(p, {Name("k"): Name("k")})
    typecheck(env, p)
    lhs, rhs = internalize(p, env), internalize(parse_process("k!()"), env)
    v = internal_bisim_n(frozenset(), lhs, rhs, 2, env=env)
    replay_witness(lhs, rhs, v, frozenset(), env)
    c = parse_file("success ok; new(a: i[unit], b)( a(x).ok!() | b!() )")
    reduce(c.process)
    weak_barbs(c.process)
    explore(frozenset(), c.process, depth_bound=2)
    strong_bisim(c.process, c.process)
    barbed_bisim(c.process, c.process, BisimConfig(depth=1))
    check_alpi_correspondence(parse_alpi("success ok; ok!()"))
    encode_stlc(parse_stlc("x"), {"x": parse_stlc_type("o")}, Name("p"))


# Times are reported in reference seconds.  The machines this runs on are
# shared, and their speed drifts by half or more over minutes, which no
# number of passes averages out.  So a pass also times a fixed pure-Python
# loop, at the start and end and at most every CALIBRATE_EVERY_S between
# queries, and scales its times by CALIBRATION_REF_S (about the loop's
# time on a quiet 2-core x86 VM) over the loop's mean time: a pass that ran
# while the machine was slow is scaled down by as much as the loop was
# slowed.  Raw seconds are reported next to them.  The collector is off
# while the loop runs, so that no collection of the program's heap lands in
# it and the program's heap size does not move the scale.
CALIBRATION_REF_S = 0.013
CALIBRATE_EVERY_S = 0.25


def _calibrate(samples):
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        for _ in range(50):  # small tables, so peak memory stays the pass's
            table = {}
            for i in range(1000):
                table[str(i)] = (i, 2 * i)
            sum(len(k) for k in table)
        samples.append(time.perf_counter() - t)
    finally:
        if enabled:
            gc.enable()


def run_pass(workload, seed, trace, started):
    """Build the inputs, then run every query once, in order.

    ``started`` is the ``time.monotonic()`` reading taken by the parent just
    before it started this interpreter, so set-up time covers interpreter
    start, imports, input building and warm-up.
    """
    queries = QUERIES[workload](random.Random(seed))
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    warm_up()
    setup_s = time.monotonic() - started
    calibration = []
    _calibrate(calibration)
    times, verdicts, failures = [], [], []
    last = time.perf_counter()
    tolerated_left = dict(DEFECT_LIMITS)
    for q in queries:
        if time.perf_counter() - last >= CALIBRATE_EVERY_S:
            _calibrate(calibration)
            last = time.perf_counter()
        t = time.perf_counter()
        verdict, failure = q.call()
        times.append(time.perf_counter() - t)
        verdicts.append(verdict)
        if failure is not None:
            prefix = q.name.split("/")[0]
            tolerated = (failure in q.tolerated
                         and tolerated_left.get(prefix, 1) > 0)
            if tolerated and prefix in tolerated_left:
                tolerated_left[prefix] -= 1
            failures.append((q.name, failure, tolerated))
    _calibrate(calibration)
    scale = CALIBRATION_REF_S / (sum(calibration) / len(calibration))
    result = {
        "setup_s": setup_s * scale,
        "raw_setup_s": setup_s,
        "calibration_s": calibration,
        "wall_s": sum(times) * scale,
        "raw_wall_s": sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ops": len(queries),
        "failures": failures,
        "verdicts": [(q.name, v) for q, v in zip(queries, verdicts)],
        "query_s": [t * scale for t in times],
    }
    if tracer is not None:
        result["layers"] = {k: v * scale if k.endswith("_s") else v
                            for k, v in tracer.metrics().items()}
    return result

"""Front-end translators targeting the workbench calculus.

Two sources are supported.  The localised asynchronous pi-calculus,
where a restricted name may be used in both input and output position
but received names may only be used for output, is compiled by splitting
every name into a value channel, a request channel and a server that
matches one pending value with one pending request at a time; the
image is checked against the source by weak simulation both ways, on
the reference LTS of ``api`` and the game engine of ``equivalence``.  The
simply-typed lambda-calculus is compiled continuation-style: a term
becomes a process listening on one linear input name for the channels
standing for its arguments, and context variables become free output
names.
"""

from __future__ import annotations

import re
from functools import cached_property, partial

from . import api
from .syntax import (
    ChanType, LetTuple, Name, NIL, Input, Output, Par, Process, RepInput, Res,
    SUCCESS, TokenStream, TupleType, UNIT, VName, VUNIT, _Fresh, _bind,
    _node, _shallow, _unbind, canonical_process, vtuple,
)
from .typecheck import ANY, typecheck
from .semantics import (
    TAU, Composite, Fragments, _barb_walk, erase_to_api, lts_step, In,
)
from .equivalence import BisimConfig, NotClosed, TypeMismatch, Verdict, _Game


class LocalityViolation(ValueError):
    """A received name was used as an input subject."""


class UnmappedName(ValueError):
    """An input subject has no request channel assigned."""


class IllTyped(ValueError):
    """The lambda-term does not simply typecheck."""


# ---------------------------------------------------------------------------
# Localised asynchronous pi-calculus: terms and types
# ---------------------------------------------------------------------------

class AlpiType:
    pass


@_node
class AlpiUnit(AlpiType):
    def __str__(self):
        return "unit"


@_node
class AlpiChan(AlpiType):
    """Payload type of names passed around: receivers may only send on them."""

    payload: AlpiType

    def __str__(self):
        return f"o[{self.payload}]"


ALPI_UNIT = AlpiUnit()


class AlpiProcess:
    pass


@_node
class AlpiNil(AlpiProcess):
    pass


@_node
class AlpiPar(AlpiProcess):
    left: AlpiProcess
    right: AlpiProcess


@_node
class AlpiInput(AlpiProcess):
    subject: Name
    param: Name
    body: AlpiProcess


@_node
class AlpiRepInput(AlpiProcess):
    subject: Name
    param: Name
    body: AlpiProcess


@_node
class AlpiOutput(AlpiProcess):
    subject: Name
    payload: Name | None  # None sends the unit value


@_node
class AlpiRes(AlpiProcess):
    """Single-name restriction; the bound name may be read and written."""

    name: Name
    payload_type: AlpiType
    body: AlpiProcess


ALPI_NIL = AlpiNil()


# The public walks over a localised process raise ValueError("localised
# process nested too deeply") on one nested too deeply for the recursion
# limit (see ``syntax._shallow``).  Its free names are those of its
# embedding in the plain calculus (:func:`alpi_to_api`).

def alpi_free_names(p: AlpiProcess) -> frozenset:
    return api.free_names(alpi_to_api(p))


def check_locality(p: AlpiProcess, received=frozenset()) -> None:
    """Received names may appear under their binder only in output position."""
    _shallow(_locality, p, received, what="localised process")


def _locality(p: AlpiProcess, received) -> None:
    if isinstance(p, AlpiNil):
        return
    if isinstance(p, AlpiPar):
        _locality(p.left, received)
        _locality(p.right, received)
        return
    if isinstance(p, (AlpiInput, AlpiRepInput)):
        if p.subject in received:
            raise LocalityViolation(
                f"received name {p.subject} used as an input subject")
        _locality(p.body, received | {p.param})
        return
    if isinstance(p, AlpiOutput):
        return
    if isinstance(p, AlpiRes):
        _locality(p.body, received - {p.name})
        return
    raise TypeError(f"not a localised process: {p!r}")


def is_local(p: AlpiProcess) -> bool:
    try:
        check_locality(p)
    except LocalityViolation:
        return False
    return True


def alpi_names(p: AlpiProcess) -> frozenset:
    """Every name occurring in ``p``, bound or free."""
    return _shallow(_alpi_names, p, what="localised process")


def _alpi_names(p: AlpiProcess) -> frozenset:
    if isinstance(p, AlpiNil):
        return frozenset()
    if isinstance(p, AlpiPar):
        return _alpi_names(p.left) | _alpi_names(p.right)
    if isinstance(p, (AlpiInput, AlpiRepInput)):
        return frozenset((p.subject, p.param)) | _alpi_names(p.body)
    if isinstance(p, AlpiOutput):
        out = frozenset((p.subject,))
        return out if p.payload is None else out | {p.payload}
    if isinstance(p, AlpiRes):
        return frozenset((p.name,)) | _alpi_names(p.body)
    raise TypeError(f"not a localised process: {p!r}")


# ---------------------------------------------------------------------------
# Localised pi -> workbench calculus
# ---------------------------------------------------------------------------

def trans_alpi_type(t: AlpiType):
    """Payload types: received names grant the output capability only."""
    if isinstance(t, AlpiUnit):
        return UNIT
    if isinstance(t, AlpiChan):
        return ChanType("o", trans_alpi_type(t.payload))
    raise TypeError(f"not a payload type: {t!r}")


def encode_alpi(p: AlpiProcess, f: dict) -> Process:
    """Compile a localised process, with ``f`` giving the request channel
    for each free name that is used in input position.

    Every name of the source keeps its identity as an output channel.  An
    input becomes a request carrying a fresh return channel; a restriction
    spawns the server that pairs values with requests.
    """
    check_locality(p)
    fresh = _Fresh(alpi_names(p) | set(f.keys()) | set(f.values()))
    return _shallow(_enc_alpi, p, dict(f), {}, fresh, what="localised process")


def _enc_alpi(p: AlpiProcess, f: dict, tenv: dict, fresh: _Fresh) -> Process:
    if isinstance(p, AlpiNil):
        return NIL
    if isinstance(p, AlpiPar):
        return Par(_enc_alpi(p.left, f, tenv, fresh),
                   _enc_alpi(p.right, f, tenv, fresh))
    if isinstance(p, AlpiOutput):
        payload = VUNIT if p.payload is None else VName(p.payload)
        return Output(p.subject, payload)
    if isinstance(p, AlpiInput):
        return _enc_alpi_input(p, f, tenv, fresh)
    if isinstance(p, AlpiRepInput):
        once = AlpiInput(p.subject, p.param, p.body)
        d = fresh("d")
        do = fresh("do")
        t = fresh("t")
        again = Par(Output(do, VUNIT), _enc_alpi_input(once, f, tenv, fresh))
        return Res(d, do, ChanType("i", UNIT),
                   Par(Output(do, VUNIT), RepInput(d, t, again)))
    if isinstance(p, AlpiRes):
        return _enc_alpi_res(p, f, tenv, fresh)
    raise TypeError(f"not a localised process: {p!r}")


def _enc_alpi_input(p: AlpiInput, f: dict, tenv: dict,
                    fresh: _Fresh) -> Process:
    if p.subject not in f:
        raise UnmappedName(f"no request channel for input subject {p.subject}")
    pay = trans_alpi_type(tenv[p.subject]) if p.subject in tenv else ANY
    zi = fresh("zi")
    z = fresh("z")
    body = _enc_alpi(p.body, f, tenv, fresh)
    # ask for the next value at the request channel, listen on the
    # fresh return channel
    return Res(zi, z, ChanType("i", pay),
               Par(Output(f[p.subject], VName(z)), Input(zi, p.param, body)))


def _enc_alpi_res(p: AlpiRes, f: dict, tenv: dict, fresh: _Fresh) -> Process:
    a = p.name
    pay = trans_alpi_type(p.payload_type)
    ai = fresh(a.base + "i")
    bi = fresh("bi")
    b = fresh("b")
    ci = fresh("ci")
    c = fresh("c")
    body = _enc_alpi(p.body, {**f, a: b}, {**tenv, a: p.payload_type}, fresh)

    a2 = fresh("vc")
    b2 = fresh("rc")
    x = fresh("x")
    y = fresh("y")
    tok = fresh("tk")
    serve = Input(a2, x, Input(b2, y, Par(
        Output(c, vtuple((VName(a2), VName(b2)))),
        Output(y, VName(x)))))
    server = RepInput(ci, tok, LetTuple((a2, b2), VName(tok), serve))
    token = Output(c, vtuple((VName(ai), VName(bi))))

    req_pay = ChanType("o", pay)
    tok_pay = TupleType((ChanType("i", pay), ChanType("i", req_pay)))
    return Res(ai, a, ChanType("i", pay),
               Res(bi, b, ChanType("i", req_pay),
                   Res(ci, c, ChanType("i", tok_pay),
                       Par(Par(body, token), server))))


def alpi_env(p: AlpiProcess) -> dict:
    """Typing environment for the image of a process whose free names are
    success names carrying unit."""
    return _success_env(alpi_free_names(p))


def _success_env(names) -> dict:
    """:func:`alpi_env` from the source's free names."""
    return {n: ChanType("o", UNIT) for n in names if n.kind == SUCCESS}


# ---------------------------------------------------------------------------
# Localised pi: concrete syntax
# ---------------------------------------------------------------------------
#
#   file    := { "success" name ";" } process
#   process := par { "|" par }
#   par     := "0" | "(" process ")" | "new" "(" name ":" "^" type ")" par
#            | ["!"] name "(" name? ")" "." par | name "!" "(" name? ")"
#   type    := "unit" | "o" "[" type "]"
#
# A comment runs from "#" to the end of the line (".awpi" files use "##").

_ALPI_TOKENS = re.compile(r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<zero>0)
  | (?P<ident>[^\W\d]\w*)
  | (?P<punct>[|.!():;^\[\]])
""", re.VERBOSE)


def _variable(stream: TokenStream) -> str:
    """A localised-pi or lambda-calculus name: a letter or "_" first."""
    t = stream.next()
    # the ident regex also admits numerals that are not letters, as "²"
    if t.kind != "ident" or not (t.text[0].isalpha() or t.text[0] == "_"):
        stream.fail(f"expected a name, found {t.text or 'end of input'!r}", t)
    return t.text


class _AlpiParser(TokenStream):
    tokens = _ALPI_TOKENS

    def file(self):
        self.success = set()
        while self.peek().text == "success":
            self.next()
            self.success.add(self.name().base)
            self.expect(";")
        return self.process()

    def name(self):
        t = _variable(self)
        return Name(t, kind=SUCCESS if t in self.success else "regular")

    def type(self):
        t = self.next()
        if t.text == "unit":
            return ALPI_UNIT
        if t.text == "o":
            self.expect("[")
            inner = self.type()
            self.expect("]")
            return AlpiChan(inner)
        self.fail(f"expected a payload type, found {t.text!r}", t)

    def process(self):
        out = self.prefix()
        while self.peek().kind == "|":
            self.next()
            out = AlpiPar(out, self.prefix())
        return out

    def prefix(self):
        t = self.peek()
        if t.kind == "zero":
            self.next()
            return ALPI_NIL
        if t.kind == "(":
            self.next()
            inner = self.process()
            self.expect(")")
            return inner
        if t.text == "new":
            self.next()
            self.expect("(")
            n = self.name()
            self.expect(":")
            self.expect("^")
            ty = self.type()
            self.expect(")")
            return AlpiRes(n, ty, self.prefix())
        if t.kind == "!":
            self.next()
            return self.guard(replicated=True)
        return self.guard(replicated=False)

    def guard(self, replicated: bool):
        subject = self.name()
        t = self.next()
        if t.kind == "!":
            if replicated:
                self.fail("replication guards an input, not an output", t)
            self.expect("(")
            payload = None if self.peek().kind == ")" else self.name()
            self.expect(")")
            return AlpiOutput(subject, payload)
        if t.kind == "(":
            param = self.name() if self.peek().kind != ")" else Name("_w")
            self.expect(")")
            self.expect(".")
            body = self.prefix()
            cls = AlpiRepInput if replicated else AlpiInput
            return cls(subject, param, body)
        self.fail(f"expected '!' or '(' after name {subject}", t)


def parse_alpi(text: str):
    return _AlpiParser(text).whole(_AlpiParser.file)


# ---------------------------------------------------------------------------
# Correspondence between a localised process and its image
# ---------------------------------------------------------------------------

def alpi_to_api(p: AlpiProcess) -> api.Process:
    """The source is a fragment of the plain asynchronous calculus, so it
    embeds directly; this gives the reference behaviour."""
    return _shallow(_to_api, p, what="localised process")


def _to_api(p: AlpiProcess) -> api.Process:
    if isinstance(p, AlpiNil):
        return api.NIL
    if isinstance(p, AlpiPar):
        return api.Par(_to_api(p.left), _to_api(p.right))
    if isinstance(p, AlpiInput):
        return api.Input(p.subject, p.param, _to_api(p.body))
    if isinstance(p, AlpiRepInput):
        return api.RepInput(p.subject, p.param, _to_api(p.body))
    if isinstance(p, AlpiOutput):
        payload = VUNIT if p.payload is None else VName(p.payload)
        return api.Output(p.subject, payload)
    if isinstance(p, AlpiRes):
        return api.Res(p.name, _to_api(p.body))
    raise TypeError(f"not a localised process: {p!r}")


class _ApiState(Composite):
    """A state of the reference route: a process of the plain calculus,
    with no connection set, keyed by its alpha key the first time ``key``
    is read, so a target that no game or walk reads is never keyed."""

    @cached_property
    def key(self) -> str:
        return api.alpha_key(self.process)


def _api_state(p: api.Process) -> Composite:
    """``p`` as a reference-route state, keyed on first read."""
    return _ApiState(p, frozenset())


def _api_steps(space: Fragments, comp: Composite):
    """The reference LTS as a table's successors: each transition
    of ``api.lts_step`` as (label, target state), tau as ``TAU``.  Every
    target is a state already, keyed the first time its key is read.

    States are keyed by alpha key, so each alpha class is stepped once
    per table.  That is sound because the processes compared are closed
    and their images typecheck (:func:`check_alpi_correspondence`
    rejects the rest), so their labels are tau or ``s!()`` on a success
    name ``s``: alpha-equivalent states then have the same labels and
    alpha-equivalent targets, whichever process or direction first
    stepped the key.
    """
    return [(TAU if isinstance(mu, api.TauLabel) else mu, _api_state(q))
            for mu, q in api.lts_step(comp.process)]


def _api_barbs(space: Fragments, s: Composite) -> set:
    """The success barbs ``s`` shows, by name: the subjects of its ``s!()``
    transitions in ``space``, a table of :func:`_api_steps`."""
    return {str(mu.subject) for mu, _ in space.step(s)
            if isinstance(mu, api.OutLabel) and mu.subject.kind == SUCCESS}


def check_alpi_correspondence(p: AlpiProcess, cfg: BisimConfig = None) -> Verdict:
    """Compare a closed localised process against its compiled image.

    The source runs on the reference transition system of the plain
    asynchronous calculus; the image runs on the workbench semantics and
    is erased to the same calculus.  The verdict combines a weak
    simulation game in each direction with a comparison of the weak
    success barbs.  A ``distinguished`` verdict carries the witness of
    the first direction that fails, which :meth:`_Game.replay` replays on
    a fresh reference-route game.  An image that does not typecheck under
    :func:`alpi_env` raises ``TypeMismatch`` before any game is played.

    Both directions are ``_Game``'s ``sim`` method over one table of
    reference-route states (:func:`_api_steps`), and each start state's
    weak barbs are read off the game's closure of it by
    :func:`semantics._barb_walk`, so each alpha class is stepped once per
    call and each start state keyed once.  Only the game loop is shared
    with the workbench: the transitions come from ``api.py``, which shares
    no code with the workbench's LTS, so the check tests the encoding, and
    the loop is tested against an independent weak game in the tests.

    A decided direction is the exact stratified answer.  The game plays
    a position on past an attack it cannot decide, so a later refuted
    attack still decides it, and no play budget applies: ``state_budget``
    bounds only the distinct states of :func:`strong_bisim`'s refinement
    walk.  A barb walk that has seen every free success name stops there
    with an exact answer, not a truncated one.
    """
    cfg = cfg or BisimConfig()
    source = alpi_to_api(p)
    names = api.free_names(source)
    for n in names:
        if n.kind != SUCCESS:
            raise NotClosed(f"free name {n} is not a success name")
    image = encode_alpi(p, {})
    typed = typecheck(_success_env(names), image)
    if not typed.ok:
        raise TypeMismatch(f"image does not typecheck: {typed.errors[0]}")
    direct = _api_state(source)
    erased = _api_state(erase_to_api(
        Composite(canonical_process(image), frozenset())))

    game = _Game("sim", cfg, space=Fragments(_api_steps))
    fwd = game.run(direct, erased, cfg.depth)
    bwd = game.run(erased, direct, cfg.depth)
    (barbs_d, tr_d), (barbs_e, tr_e) = [_barb_walk(game._closure(s), {
        str(n) for n in api.free_names(s.process) if n.kind == SUCCESS},
        partial(_api_barbs, game.space)) for s in (direct, erased)]

    word = {True: "equivalent", False: "distinguished", None: "inconclusive"}
    witness = (game.witness(direct, erased) if fwd is False else
               game.witness(erased, direct) if bwd is False else ())
    # A truncated barb walk can only miss barbs, so disagreement under
    # truncation stays open while agreement stands with the sim verdicts.
    barbs_open = (barbs_d != barbs_e) and (tr_d or tr_e)
    if fwd is False or bwd is False or (barbs_d != barbs_e and not barbs_open):
        result = "distinguished"
    elif fwd is None or bwd is None or barbs_open:
        result = "inconclusive"
    else:
        result = "equivalent"
    bounds = {
        "method": "alpi-correspondence",
        "forward": word[fwd],
        "backward": word[bwd],
        "barbs_direct": sorted(barbs_d),
        "barbs_encoded": sorted(barbs_e),
        "depth": cfg.depth,
        "tau_budget": cfg.tau_budget,
    }
    return Verdict(result, witness, bounds)


# ---------------------------------------------------------------------------
# Simply-typed lambda-calculus: terms and types
# ---------------------------------------------------------------------------

class StlcType:
    def __str__(self):
        return _shallow(_show, self, what="lambda type")


@_node
class Base(StlcType):
    pass


@_node
class Arrow(StlcType):
    arg: StlcType
    res: StlcType


BASE = Base()


class StlcTerm:
    def __str__(self):
        return _shallow(_show, self, what="lambda term")


@_node
class SVar(StlcTerm):
    name: str


@_node
class SLam(StlcTerm):
    var: str
    var_type: StlcType
    body: StlcTerm


@_node
class SApp(StlcTerm):
    fn: StlcTerm
    arg: StlcTerm


# The public walks over lambda-terms and their types go through
# ``syntax._shallow``, so a term or type nested too deeply for the
# recursion limit is a ValueError("lambda term nested too deeply") or
# ValueError("lambda type nested too deeply"), not a RecursionError.

def _show(x) -> str:
    """The text of a term or type, as the parser reads it."""
    if isinstance(x, Base):
        return "o"
    if isinstance(x, Arrow):
        left = f"({_show(x.arg)})" if isinstance(x.arg, Arrow) else _show(x.arg)
        return f"{left} -> {_show(x.res)}"
    if isinstance(x, SVar):
        return x.name
    if isinstance(x, SLam):
        return f"\\{x.var}:{_show(x.var_type)}. {_show(x.body)}"
    if isinstance(x, SApp):
        fn = f"({_show(x.fn)})" if isinstance(x.fn, SLam) else _show(x.fn)
        arg = _show(x.arg) if isinstance(x.arg, SVar) else f"({_show(x.arg)})"
        return f"{fn} {arg}"
    raise TypeError(f"not a lambda term or type: {x!r}")


def arrow_parts(t: StlcType):
    """The unique decomposition into argument types and the base result."""
    args = []
    while isinstance(t, Arrow):
        args.append(t.arg)
        t = t.res
    return args


def stlc_type(term: StlcTerm, env: dict) -> StlcType:
    return _shallow(_typed, term, dict(env), what="lambda term")[0]


def _typed(term: StlcTerm, env: dict) -> tuple:
    """``term``'s typing: its type, then the typing of each of its
    subterms (``(type,)`` for a variable, ``(type, body)`` for an
    abstraction, ``(type, fn, arg)`` for an application), so that the
    encoder reads every subterm's type without typing it again.  A binder
    is bound in ``env`` in place while its body is walked."""
    if isinstance(term, SVar):
        if term.name not in env:
            raise IllTyped(f"unbound variable {term.name}")
        return (env[term.name],)
    if isinstance(term, SLam):
        old = _bind(env, term.var, term.var_type)
        body = _typed(term.body, env)
        _unbind(env, term.var, old)
        return Arrow(term.var_type, body[0]), body
    if isinstance(term, SApp):
        fn = _typed(term.fn, env)
        arg = _typed(term.arg, env)
        if not isinstance(fn[0], Arrow):
            raise IllTyped(f"applied term has base type: {term.fn}")
        if fn[0].arg != arg[0]:
            raise IllTyped(
                f"argument type {arg[0]} does not match expected {fn[0].arg}")
        return fn[0].res, fn, arg
    raise TypeError(f"not a lambda term: {term!r}")


def term_size(term: StlcTerm) -> int:
    return _shallow(_size, term, what="lambda term")


def _size(term: StlcTerm) -> int:
    if isinstance(term, SVar):
        return 1
    if isinstance(term, SLam):
        return 1 + _size(term.body)
    if isinstance(term, SApp):
        return 1 + _size(term.fn) + _size(term.arg)
    raise TypeError(f"not a lambda term: {term!r}")


def type_order(t: StlcType) -> int:
    return _shallow(_order, t, what="lambda type")


def _order(t: StlcType) -> int:
    if isinstance(t, Base):
        return 0
    return max(_order(t.arg) + 1, _order(t.res))


# ---------------------------------------------------------------------------
# Lambda-terms: concrete syntax
# ---------------------------------------------------------------------------
#
#   term := "\" name ":" type "." term | atom { atom }
#   atom := name | "(" term ")"
#   type := "o" | type "->" type (right associative) | "(" type ")"
#
# A comment runs from "#" to the end of the line (".awpi" files use "##").

_STLC_TOKENS = re.compile(r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<arrow>->)
  | (?P<ident>[^\W\d]\w*)
  | (?P<punct>[\\:.()])
""", re.VERBOSE)


class _StlcParser(TokenStream):
    tokens = _STLC_TOKENS

    def type_atom(self):
        t = self.next()
        if t.text == "o":
            return BASE
        if t.kind == "(":
            inner = self.type()
            self.expect(")")
            return inner
        self.fail(f"expected a type, found {t.text or 'end of input'!r}", t)

    def type(self):
        left = self.type_atom()
        if self.peek().kind == "arrow":
            self.next()
            return Arrow(left, self.type())
        return left

    def term(self):
        if self.peek().kind == "\\":
            self.next()
            var = _variable(self)
            self.expect(":")
            ty = self.type()
            self.expect(".")
            return SLam(var, ty, self.term())
        out = self.atom()
        while self.peek().kind not in ("eof", ")"):
            out = SApp(out, self.atom())
        return out

    def atom(self):
        t = self.peek()
        if t.kind == "\\":
            return self.term()
        if t.kind == "(":
            self.next()
            inner = self.term()
            self.expect(")")
            return inner
        return SVar(_variable(self))


def parse_stlc(text: str) -> StlcTerm:
    return _StlcParser(text).whole(_StlcParser.term)


def parse_stlc_type(text: str) -> StlcType:
    return _StlcParser(text).whole(_StlcParser.type)


# ---------------------------------------------------------------------------
# Lambda-terms -> workbench calculus
# ---------------------------------------------------------------------------

def encode_stlc_type(t: StlcType) -> ChanType:
    """A term listens once on a channel carrying one output channel per
    argument, plus a final unit component."""
    return _shallow(_enc_type, t, what="lambda type")


def _enc_type(t: StlcType) -> ChanType:
    comps = [ChanType("o", _enc_type(a).payload) for a in arrow_parts(t)]
    items = tuple(comps) + (UNIT,)
    payload = UNIT if len(items) == 1 else TupleType(items)
    return ChanType("li", payload)


def stlc_env(env: dict, result: StlcType, p: Name) -> dict:
    """Typing environment for an encoded judgement: context variables are
    output channels, the continuation is the one linear input."""
    out = {Name(x): ChanType("o", encode_stlc_type(t).payload)
           for x, t in env.items()}
    out[p] = encode_stlc_type(result)
    return out


def encode_stlc(term: StlcTerm, env: dict, p: Name) -> Process:
    """Compile a typed term against continuation name ``p``.

    The three clauses: a variable forwards the received argument tuple to
    its context channel; an abstraction receives all arguments, peels off
    the first and resends the rest to the body's continuation; an
    application allocates a replicated server for the argument and resends
    the widened tuple to the function's continuation.  The term is typed
    once, before any construction (raising IllTyped), and each clause reads
    its subterm's type from that typing.
    """
    typed = _shallow(_typed, term, dict(env), what="lambda term")
    fresh = _Fresh({Name(x) for x in env} | {p})
    chan = {x: Name(x) for x in env}
    return _shallow(_enc_stlc, term, typed, chan, p, fresh, what="lambda term")


def _receive(subject: Name, params: tuple, body: Process,
             fresh: _Fresh) -> Process:
    if len(params) == 1:
        return Input(subject, params[0], body)
    tmp = fresh("pk")
    return Input(subject, tmp, LetTuple(params, VName(tmp), body))


def _enc_stlc(term, typed, chan, p, fresh):
    """``term``, whose typing (:func:`_typed`) is ``typed``, against
    continuation ``p``; ``chan`` maps each variable in scope to its
    channel, bound in place while a body is encoded."""
    ty = typed[0]
    args = arrow_parts(ty)

    if isinstance(term, SVar):
        ys = [fresh("y") for _ in args]
        u = fresh("u")
        payload = vtuple([VName(n) for n in ys] + [VName(u)])
        return _receive(p, tuple(ys) + (u,), Output(chan[term.name], payload),
                        fresh)

    if isinstance(term, SLam):
        x1 = fresh(term.var)
        rest = [fresh("x") for _ in args[1:]]
        q = fresh("q")
        r = fresh("r")
        ro = fresh("ro")
        old = _bind(chan, term.var, x1)
        body = _enc_stlc(term.body, typed[1], chan, r, fresh)
        _unbind(chan, term.var, old)
        resend = Output(ro, vtuple([VName(n) for n in rest] + [VName(q)]))
        inner_ty = _enc_type(ty.res)
        return _receive(p, (x1,) + tuple(rest) + (q,),
                        Res(r, ro, inner_ty, Par(resend, body)), fresh)

    if isinstance(term, SApp):
        fn_ty = typed[1][0]
        rest = [fresh("x") for _ in args]
        q = fresh("q")
        r = fresh("r")
        ro = fresh("ro")
        y = fresh("a")
        x1 = fresh("ao")
        fn = _enc_stlc(term.fn, typed[1], chan, r, fresh)
        arg = _enc_stlc(term.arg, typed[2], chan, y, fresh)
        if not isinstance(arg, Input):
            raise IllTyped("argument encoding must start at its continuation")
        served = RepInput(arg.subject, arg.param, arg.body)
        resend = Output(ro, vtuple(
            [VName(x1)] + [VName(n) for n in rest] + [VName(q)]))
        arg_pay = _enc_type(fn_ty.arg).payload
        inner = Res(r, ro, _enc_type(fn_ty),
                    Res(y, x1, ChanType("i", arg_pay),
                        Par(Par(resend, fn), served)))
        return _receive(p, tuple(rest) + (q,), inner, fresh)

    raise TypeError(f"not a lambda term: {term!r}")


def initial_actions(p: Process):
    """Labels available before any step; used to confirm an encoding is
    input-guarded at its continuation."""
    return [mu for mu, _t in lts_step(frozenset(), canonical_process(p))]


def is_negative_for(p: Process, cont: Name) -> bool:
    moves = initial_actions(p)
    return bool(moves) and all(
        isinstance(mu, In) and mu.subject == cont for mu in moves)

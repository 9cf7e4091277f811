"""Abstract syntax for AWpi processes.

The calculus separates input names from output names: a restriction
``new(a:T, b) P`` binds a dual pair, the input end ``a`` and its output
companion ``b``.  Values are names, the unit constant, tuples and binary
injections; processes are nil, parallel composition, (replicated) input,
asynchronous output, restriction, a tuple destructor and a case split.

This module owns the concrete syntax (parser and printer), free names,
capture-avoiding substitution, alpha equality and the canonical form used
everywhere as state identity.  Canonicalization implements the structural
congruence axioms as a normal form: parallel compositions are flattened to a
sorted multiset, nil components and dead restrictions are dropped,
restrictions are extruded outward as far as parallel structure allows, and
bound names are renamed positionally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class ParseError(Exception):
    def __init__(self, msg, line=None, col=None):
        loc = "" if line is None else f" at {line}:{col}"
        super().__init__(f"{msg}{loc}")
        self.msg = msg
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Names
# ---------------------------------------------------------------------------

REGULAR = "regular"
SUCCESS = "success"


@dataclass(frozen=True, order=True)
class Name:
    """A channel name: printed ``base`` or ``base#index``.

    ``kind`` distinguishes success names (observable barbs) from regular
    names; it is assigned by the file header, never by the grammar.
    """

    base: str
    index: int = 0
    kind: str = REGULAR

    def __str__(self):
        return self.base if self.index == 0 else f"{self.base}#{self.index}"


def fresh_name(like: Name, avoid) -> Name:
    """Smallest-index variant of ``like`` not in ``avoid`` (deterministic)."""
    i = like.index + 1
    while Name(like.base, i, like.kind) in avoid:
        i += 1
    return Name(like.base, i, like.kind)


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

class ValueType:
    pass


@dataclass(frozen=True)
class UnitType(ValueType):
    def __str__(self):
        return "unit"


@dataclass(frozen=True)
class ChanType(ValueType):
    mode: str  # "i" | "o" | "li" | "lo"
    payload: ValueType

    def __str__(self):
        return f"{self.mode}[{self.payload}]"


@dataclass(frozen=True)
class TupleType(ValueType):
    items: tuple  # of ValueType, arity >= 2

    def __str__(self):
        return " * ".join(_vtype_atom_str(t) for t in self.items)


@dataclass(frozen=True)
class SumType(ValueType):
    left: ValueType
    right: ValueType

    def __str__(self):
        ls = _vtype_sum_operand(self.left)
        rs = _vtype_atom_str(self.right) if isinstance(self.right, (SumType,)) else _vtype_sum_operand(self.right)
        return f"{ls} + {rs}"


UNIT = UnitType()

MODES = ("i", "o", "li", "lo")
INPUT_MODES = ("i", "li")
OUTPUT_MODES = ("o", "lo")
LINEAR_MODES = ("li", "lo")


def _vtype_atom_str(t: ValueType) -> str:
    # products and sums need parentheses when nested inside a product
    if isinstance(t, (TupleType, SumType)):
        return f"({t})"
    return str(t)


def _vtype_sum_operand(t: ValueType) -> str:
    # sums associate to the left; parenthesize sum operands for clarity
    if isinstance(t, SumType):
        return f"({t})"
    return str(t)


def tuple_type(items) -> ValueType:
    """Smart product: zero components is unit, one is the component itself."""
    items = tuple(items)
    if len(items) == 0:
        return UNIT
    if len(items) == 1:
        return items[0]
    return TupleType(items)


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

class Value:
    pass


@dataclass(frozen=True)
class VName(Value):
    name: Name


@dataclass(frozen=True)
class VUnit(Value):
    pass


@dataclass(frozen=True)
class VTuple(Value):
    items: tuple  # of Value, arity >= 2


@dataclass(frozen=True)
class VInl(Value):
    value: Value


@dataclass(frozen=True)
class VInr(Value):
    value: Value


VUNIT = VUnit()


def vtuple(items) -> Value:
    items = tuple(items)
    if len(items) == 0:
        return VUNIT
    if len(items) == 1:
        return items[0]
    return VTuple(items)


def value_names(v: Value) -> frozenset:
    if isinstance(v, VName):
        return frozenset((v.name,))
    if isinstance(v, VUnit):
        return frozenset()
    if isinstance(v, VTuple):
        out = frozenset()
        for item in v.items:
            out |= value_names(item)
        return out
    if isinstance(v, (VInl, VInr)):
        return value_names(v.value)
    raise TypeError(f"not a value: {v!r}")


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

class Process:
    pass


@dataclass(frozen=True)
class Nil(Process):
    pass


@dataclass(frozen=True)
class Par(Process):
    left: Process
    right: Process


@dataclass(frozen=True)
class Input(Process):
    subject: Name
    param: Name
    body: Process


@dataclass(frozen=True)
class RepInput(Process):
    subject: Name
    param: Name
    body: Process


@dataclass(frozen=True)
class Output(Process):
    subject: Name
    payload: Value


@dataclass(frozen=True)
class Res(Process):
    """``new(in_name : in_type, out_name) body`` binding a dual pair."""

    in_name: Name
    out_name: Name
    in_type: ChanType
    body: Process


@dataclass(frozen=True)
class LetTuple(Process):
    params: tuple  # of Name, arity >= 2
    scrutinee: Value
    body: Process


@dataclass(frozen=True)
class Case(Process):
    scrutinee: Value
    left_param: Name
    left_body: Process
    right_param: Name
    right_body: Process


NIL = Nil()


def ast_size(p: Process) -> int:
    """Number of process constructors (values and types do not count)."""
    if isinstance(p, Nil) or isinstance(p, Output):
        return 1
    if isinstance(p, Par):
        return 1 + ast_size(p.left) + ast_size(p.right)
    if isinstance(p, (Input, RepInput)):
        return 1 + ast_size(p.body)
    if isinstance(p, Res):
        return 1 + ast_size(p.body)
    if isinstance(p, LetTuple):
        return 1 + ast_size(p.body)
    if isinstance(p, Case):
        return 1 + ast_size(p.left_body) + ast_size(p.right_body)
    raise TypeError(f"not a process: {p!r}")


def free_names(p: Process) -> frozenset:
    if isinstance(p, Nil):
        return frozenset()
    if isinstance(p, Par):
        return free_names(p.left) | free_names(p.right)
    if isinstance(p, (Input, RepInput)):
        return frozenset((p.subject,)) | (free_names(p.body) - {p.param})
    if isinstance(p, Output):
        return frozenset((p.subject,)) | value_names(p.payload)
    if isinstance(p, Res):
        return free_names(p.body) - {p.in_name, p.out_name}
    if isinstance(p, LetTuple):
        return value_names(p.scrutinee) | (free_names(p.body) - set(p.params))
    if isinstance(p, Case):
        return (value_names(p.scrutinee)
                | (free_names(p.left_body) - {p.left_param})
                | (free_names(p.right_body) - {p.right_param}))
    raise TypeError(f"not a process: {p!r}")


def bound_names(p: Process) -> frozenset:
    if isinstance(p, (Nil, Output)):
        return frozenset()
    if isinstance(p, Par):
        return bound_names(p.left) | bound_names(p.right)
    if isinstance(p, (Input, RepInput)):
        return frozenset((p.param,)) | bound_names(p.body)
    if isinstance(p, Res):
        return frozenset((p.in_name, p.out_name)) | bound_names(p.body)
    if isinstance(p, LetTuple):
        return frozenset(p.params) | bound_names(p.body)
    if isinstance(p, Case):
        return (frozenset((p.left_param, p.right_param))
                | bound_names(p.left_body) | bound_names(p.right_body))
    raise TypeError(f"not a process: {p!r}")


# AST paths: tuples of field names, used by the type checker's error reports.
CHILD_FIELDS = {
    Par: ("left", "right"),
    Input: ("body",),
    RepInput: ("body",),
    Res: ("body",),
    LetTuple: ("body",),
    Case: ("left_body", "right_body"),
    Nil: (),
    Output: (),
}


def resolve_path(p: Process, path) -> Process:
    """Follow a field path from ``p``; raises KeyError on an invalid step."""
    cur = p
    for step in path:
        if step not in CHILD_FIELDS[type(cur)]:
            raise KeyError(f"no child {step!r} at {type(cur).__name__}")
        cur = getattr(cur, step)
    return cur


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def substitute_value(v: Value, mapping) -> Value:
    if isinstance(v, VName):
        return mapping.get(v.name, v)
    if isinstance(v, VUnit):
        return v
    if isinstance(v, VTuple):
        return VTuple(tuple(substitute_value(item, mapping) for item in v.items))
    if isinstance(v, VInl):
        return VInl(substitute_value(v.value, mapping))
    if isinstance(v, VInr):
        return VInr(substitute_value(v.value, mapping))
    raise TypeError(f"not a value: {v!r}")


def _subst_subject(n: Name, mapping) -> Name:
    got = mapping.get(n)
    if got is None:
        return n
    if not isinstance(got, VName):
        raise ValueError(f"cannot use {got!r} as a channel subject for {n}")
    return got.name


def substitute(p: Process, mapping) -> Process:
    """Capture-avoiding simultaneous substitution of values for free names.

    Bound names are refreshed deterministically (smallest unused index) when
    they would capture a name of the substituted values.
    """
    mapping = {k: v for k, v in mapping.items() if not (isinstance(v, VName) and v.name == k)}
    if not mapping or not (set(mapping) & free_names(p)):
        return p
    return _subst(p, mapping)


def _value_name_union(mapping):
    out = set()
    for v in mapping.values():
        out |= value_names(v)
    return out


def _subst_binders(binders, body_extra, mapping, p):
    """Refresh ``binders`` as needed; returns (new binders, inner mapping)."""
    inner = {k: v for k, v in mapping.items() if k not in binders}
    relevant = {k: v for k, v in inner.items() if k in free_names(p)}
    clash = _value_name_union(relevant)
    if not relevant:
        # nothing to substitute below; keep binders untouched
        return list(binders), {}
    avoid = set(clash) | set(relevant) | free_names(p) | bound_names(p) | set(binders)
    renames = {}
    out = []
    for b in binders:
        if b in clash:
            nb = fresh_name(b, avoid)
            avoid.add(nb)
            renames[b] = VName(nb)
            out.append(nb)
        else:
            out.append(b)
    if renames:
        inner2 = dict(relevant)
        inner2.update(renames)
        return out, inner2
    return out, relevant


def _subst(p: Process, mapping) -> Process:
    if isinstance(p, Nil):
        return p
    if isinstance(p, Par):
        return Par(_subst(p.left, mapping), _subst(p.right, mapping))
    if isinstance(p, Output):
        return Output(_subst_subject(p.subject, mapping),
                      substitute_value(p.payload, mapping))
    if isinstance(p, (Input, RepInput)):
        subject = _subst_subject(p.subject, mapping)
        (param,), inner = _subst_binders((p.param,), None, mapping, p.body)
        body = _subst(p.body, inner) if inner else p.body
        return type(p)(subject, param, body)
    if isinstance(p, Res):
        (a, b), inner = _subst_binders((p.in_name, p.out_name), None, mapping, p.body)
        body = _subst(p.body, inner) if inner else p.body
        return Res(a, b, p.in_type, body)
    if isinstance(p, LetTuple):
        scrut = substitute_value(p.scrutinee, mapping)
        params, inner = _subst_binders(tuple(p.params), None, mapping, p.body)
        body = _subst(p.body, inner) if inner else p.body
        return LetTuple(tuple(params), scrut, body)
    if isinstance(p, Case):
        scrut = substitute_value(p.scrutinee, mapping)
        (lp,), linner = _subst_binders((p.left_param,), None, mapping, p.left_body)
        (rp,), rinner = _subst_binders((p.right_param,), None, mapping, p.right_body)
        lbody = _subst(p.left_body, linner) if linner else p.left_body
        rbody = _subst(p.right_body, rinner) if rinner else p.right_body
        return Case(scrut, lp, lbody, rp, rbody)
    raise TypeError(f"not a process: {p!r}")


def rename_free(p: Process, renames) -> Process:
    """Substitution specialized to name-for-name replacement."""
    return substitute(p, {old: VName(new) for old, new in renames.items()})


# ---------------------------------------------------------------------------
# Alpha equality
# ---------------------------------------------------------------------------

def alpha_eq(p: Process, q: Process) -> bool:
    return _alpha(p, q, {}, {}, [0])


def _alpha_name(a: Name, b: Name, envl, envr) -> bool:
    la = envl.get(a)
    lb = envr.get(b)
    if la is None and lb is None:
        return a == b  # both free
    return la is not None and la == lb


def _alpha_value(v, w, envl, envr) -> bool:
    if type(v) is not type(w):
        return False
    if isinstance(v, VName):
        return _alpha_name(v.name, w.name, envl, envr)
    if isinstance(v, VUnit):
        return True
    if isinstance(v, VTuple):
        return (len(v.items) == len(w.items)
                and all(_alpha_value(a, b, envl, envr) for a, b in zip(v.items, w.items)))
    if isinstance(v, (VInl, VInr)):
        return _alpha_value(v.value, w.value, envl, envr)
    raise TypeError(f"not a value: {v!r}")


def _alpha_bind(names_l, names_r, envl, envr, counter):
    envl = dict(envl)
    envr = dict(envr)
    for a, b in zip(names_l, names_r):
        counter[0] += 1
        envl[a] = counter[0]
        envr[b] = counter[0]
    return envl, envr


def _alpha(p, q, envl, envr, counter) -> bool:
    if type(p) is not type(q):
        return False
    if isinstance(p, Nil):
        return True
    if isinstance(p, Par):
        # walk the left spine in a loop, so a wide chain compares
        while isinstance(p, Par) and isinstance(q, Par):
            if not _alpha(p.right, q.right, envl, envr, counter):
                return False
            p, q = p.left, q.left
        return _alpha(p, q, envl, envr, counter)
    if isinstance(p, Output):
        return (_alpha_name(p.subject, q.subject, envl, envr)
                and _alpha_value(p.payload, q.payload, envl, envr))
    if isinstance(p, (Input, RepInput)):
        if not _alpha_name(p.subject, q.subject, envl, envr):
            return False
        el, er = _alpha_bind((p.param,), (q.param,), envl, envr, counter)
        return _alpha(p.body, q.body, el, er, counter)
    if isinstance(p, Res):
        if p.in_type != q.in_type:
            return False
        el, er = _alpha_bind((p.in_name, p.out_name), (q.in_name, q.out_name),
                             envl, envr, counter)
        return _alpha(p.body, q.body, el, er, counter)
    if isinstance(p, LetTuple):
        if len(p.params) != len(q.params):
            return False
        if not _alpha_value(p.scrutinee, q.scrutinee, envl, envr):
            return False
        el, er = _alpha_bind(p.params, q.params, envl, envr, counter)
        return _alpha(p.body, q.body, el, er, counter)
    if isinstance(p, Case):
        if not _alpha_value(p.scrutinee, q.scrutinee, envl, envr):
            return False
        el, er = _alpha_bind((p.left_param,), (q.left_param,), envl, envr, counter)
        if not _alpha(p.left_body, q.left_body, el, er, counter):
            return False
        el, er = _alpha_bind((p.right_param,), (q.right_param,), envl, envr, counter)
        return _alpha(p.right_body, q.right_body, el, er, counter)
    raise TypeError(f"not a process: {p!r}")


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def print_value(v: Value) -> str:
    if isinstance(v, VName):
        return str(v.name)
    if isinstance(v, VUnit):
        return "()"
    if isinstance(v, VTuple):
        return "(" + ", ".join(print_value(item) for item in v.items) + ")"
    if isinstance(v, VInl):
        return f"inl {print_value(v.value)}"
    if isinstance(v, VInr):
        return f"inr {print_value(v.value)}"
    raise TypeError(f"not a value: {v!r}")


def print_vtype(t: ValueType) -> str:
    return str(t)


def _print_payload(v: Value) -> str:
    if isinstance(v, VUnit):
        return ""
    if isinstance(v, VTuple):
        return ", ".join(print_value(item) for item in v.items)
    return print_value(v)


def _print_prefix(p: Process) -> str:
    # a process at prefix level: parallel compositions get parentheses
    if isinstance(p, Par):
        return f"({print_process(p)})"
    return print_process(p)


def print_process(p: Process) -> str:
    if isinstance(p, Nil):
        return "0"
    if isinstance(p, Par):
        # '|' parses left associative: a left-nested chain prints flat and a
        # Par in right position keeps parentheses so the shape round-trips;
        # the left spine is walked in a loop, so a wide chain prints
        rights = []
        while isinstance(p, Par):
            rights.append(p.right)
            p = p.left
        rights.append(p)
        return " | ".join(_print_prefix(q) for q in reversed(rights))
    if isinstance(p, Input):
        return f"{p.subject}({p.param}).{_print_prefix(p.body)}"
    if isinstance(p, RepInput):
        return f"!{p.subject}({p.param}).{_print_prefix(p.body)}"
    if isinstance(p, Output):
        return f"{p.subject}!({_print_payload(p.payload)})"
    if isinstance(p, Res):
        head = f"new({p.in_name}: {p.in_type}, {p.out_name})"
        if isinstance(p.body, Par):
            return f"{head} ({print_process(p.body)})"
        return f"{head} {_print_prefix(p.body)}"
    if isinstance(p, LetTuple):
        names = ", ".join(str(n) for n in p.params)
        return f"let ({names}) = {print_value(p.scrutinee)} in {_print_prefix(p.body)}"
    if isinstance(p, Case):
        return (f"case {print_value(p.scrutinee)} "
                f"{{ inl {p.left_param} -> {print_process(p.left_body)} ; "
                f"inr {p.right_param} -> {print_process(p.right_body)} }}")
    raise TypeError(f"not a process: {p!r}")


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|\#\#[^\n]*)
  | (?P<arrow>->)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*(\#[0-9]+)?)
  | (?P<zero>0)
  | (?P<punct>[(){}\[\],;:.|!=+*])
""", re.VERBOSE)

KEYWORDS = {"new", "let", "in", "case", "inl", "inr", "unit", "free", "success"}


@dataclass
class _Tok:
    kind: str  # "ident" | "zero" | "arrow" | punctuation char | "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str):
    toks = []
    pos = 0
    line = 1
    linestart = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             line, pos - linestart + 1)
        col = pos - linestart + 1
        if m.lastgroup == "ws":
            nl = m.group(0).count("\n")
            if nl:
                line += nl
                linestart = pos + m.group(0).rindex("\n") + 1
        elif m.lastgroup == "ident":
            toks.append(_Tok("ident", m.group(0), line, col))
        elif m.lastgroup == "zero":
            toks.append(_Tok("zero", "0", line, col))
        elif m.lastgroup == "arrow":
            toks.append(_Tok("arrow", "->", line, col))
        else:
            toks.append(_Tok(m.group(0), m.group(0), line, col))
        pos = m.end()
    toks.append(_Tok("eof", "", line, n - linestart + 1))
    return toks


class _Parser:
    def __init__(self, text: str, success=()):
        self.toks = _tokenize(text)
        self.pos = 0
        # map (base, index) -> Name with success kind
        success = [Name(s, kind=SUCCESS) if isinstance(s, str) else s
                   for s in success]
        self.success = {(s.base, s.index): s for s in success}

    def peek(self, ahead=0) -> _Tok:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind) -> _Tok:
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        return t

    def fail(self, msg):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    # -- names ------------------------------------------------------------
    def parse_name(self) -> Name:
        t = self.expect("ident")
        if t.text in KEYWORDS:
            raise ParseError(f"{t.text!r} is a keyword, not a name", t.line, t.col)
        if "#" in t.text:
            base, idx = t.text.split("#")
            nm = Name(base, int(idx))
        else:
            nm = Name(t.text)
        return self.success.get((nm.base, nm.index), nm)

    def _name_list(self):
        names = []
        if self.peek().kind == ")":
            return names
        names.append(self.parse_name())
        while self.peek().kind == ",":
            self.next()
            names.append(self.parse_name())
        return names

    # -- types ------------------------------------------------------------
    def parse_vtype(self) -> ValueType:
        t = self._vtype_prod()
        while self.peek().kind == "+":
            self.next()
            t = SumType(t, self._vtype_prod())
        return t

    def _vtype_prod(self) -> ValueType:
        items = [self._vtype_atom()]
        while self.peek().kind == "*":
            self.next()
            items.append(self._vtype_atom())
        return tuple_type(items) if len(items) > 1 else items[0]

    def _vtype_atom(self) -> ValueType:
        t = self.peek()
        if t.kind == "(":
            self.next()
            inner = self.parse_vtype()
            self.expect(")")
            return inner
        if t.kind == "ident":
            if t.text == "unit":
                self.next()
                return UNIT
            if t.text in MODES and self.peek(1).kind == "[":
                self.next()
                self.expect("[")
                payload = self.parse_vtype()
                self.expect("]")
                return ChanType(t.text, payload)
        self.fail(f"expected a type, found {t.text!r}")

    def parse_ctype(self) -> ChanType:
        t = self.peek()
        got = self.parse_vtype()
        if not isinstance(got, ChanType):
            raise ParseError("restriction annotation must be a channel type",
                             t.line, t.col)
        return got

    # -- values -----------------------------------------------------------
    def parse_value(self) -> Value:
        t = self.peek()
        if t.kind == "(":
            self.next()
            if self.peek().kind == ")":
                self.next()
                return VUNIT
            items = [self.parse_value()]
            while self.peek().kind == ",":
                self.next()
                items.append(self.parse_value())
            self.expect(")")
            return vtuple(items)
        if t.kind == "ident" and t.text == "inl":
            self.next()
            return VInl(self.parse_value())
        if t.kind == "ident" and t.text == "inr":
            self.next()
            return VInr(self.parse_value())
        if t.kind == "ident":
            return VName(self.parse_name())
        self.fail(f"expected a value, found {t.text or 'end of input'!r}")

    def _value_list(self):
        vals = []
        if self.peek().kind == ")":
            return vals
        vals.append(self.parse_value())
        while self.peek().kind == ",":
            self.next()
            vals.append(self.parse_value())
        return vals

    # -- processes ----------------------------------------------------------
    def parse_proc(self) -> Process:
        p = self.parse_prefix()
        while self.peek().kind == "|":
            self.next()
            p = Par(p, self.parse_prefix())
        return p

    def parse_prefix(self) -> Process:
        t = self.peek()
        if t.kind == "zero":
            self.next()
            return NIL
        if t.kind == "(":
            self.next()
            inner = self.parse_proc()
            self.expect(")")
            return inner
        if t.kind == "!":
            self.next()
            return self._input(replicated=True)
        if t.kind == "ident" and t.text == "new":
            self.next()
            self.expect("(")
            in_name = self.parse_name()
            self.expect(":")
            in_type = self.parse_ctype()
            self.expect(",")
            out_name = self.parse_name()
            self.expect(")")
            if in_type.mode not in INPUT_MODES:
                self.fail("restriction annotates the input end: mode must be i or li")
            if in_name == out_name:
                self.fail("restriction must bind two distinct names")
            body = self.parse_prefix()
            return Res(in_name, out_name, in_type, body)
        if t.kind == "ident" and t.text == "let":
            self.next()
            self.expect("(")
            params = self._name_list()
            self.expect(")")
            if len(params) < 2:
                self.fail("let destructures a tuple: at least two names")
            self.expect("=")
            scrut = self.parse_value()
            tin = self.expect("ident")
            if tin.text != "in":
                raise ParseError("expected 'in'", tin.line, tin.col)
            body = self.parse_prefix()
            return LetTuple(tuple(params), scrut, body)
        if t.kind == "ident" and t.text == "case":
            self.next()
            scrut = self.parse_value()
            self.expect("{")
            kw = self.expect("ident")
            if kw.text != "inl":
                raise ParseError("expected 'inl'", kw.line, kw.col)
            lp = self.parse_name()
            self.expect("arrow")
            lbody = self.parse_proc()
            self.expect(";")
            kw = self.expect("ident")
            if kw.text != "inr":
                raise ParseError("expected 'inr'", kw.line, kw.col)
            rp = self.parse_name()
            self.expect("arrow")
            rbody = self.parse_proc()
            self.expect("}")
            return Case(scrut, lp, lbody, rp, rbody)
        if t.kind == "ident":
            subject = self.parse_name()
            nxt = self.peek()
            if nxt.kind == "!":
                self.next()
                self.expect("(")
                vals = self._value_list()
                self.expect(")")
                return Output(subject, vtuple(vals))
            if nxt.kind == "(":
                self.pos -= 1  # rewind: _input reparses the subject
                return self._input(replicated=False)
            self.fail(f"expected '!' or '(' after name {subject}")
        self.fail(f"expected a process, found {t.text or 'end of input'!r}")

    def _input(self, replicated: bool) -> Process:
        subject = self.parse_name()
        self.expect("(")
        params = self._name_list()
        self.expect(")")
        self.expect(".")
        body = self.parse_prefix()
        cls = RepInput if replicated else Input
        if len(params) == 1:
            return cls(subject, params[0], body)
        # polyadic sugar: receive a tuple (or unit) and destructure it
        avoid = free_names(body) | bound_names(body) | set(params) | {subject}
        tmp = fresh_name(Name("_v"), avoid)
        if len(params) == 0:
            return cls(subject, tmp, body)
        return cls(subject, tmp, LetTuple(tuple(params), VName(tmp), body))


def parse_process(text: str, success=()) -> Process:
    """Parse a process term.  ``success`` lists names with the success kind."""
    p = _Parser(text, success)
    proc = p.parse_proc()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return proc


def parse_value(text: str, success=()) -> Value:
    p = _Parser(text, success)
    v = p.parse_value()
    if p.peek().kind != "eof":
        p.fail("trailing input after value")
    return v


def parse_vtype(text: str) -> ValueType:
    p = _Parser(text)
    t = p.parse_vtype()
    if p.peek().kind != "eof":
        p.fail("trailing input after type")
    return t


@dataclass
class SourceFile:
    """A parsed ``.awpi`` file: declared frees, success names, one process."""

    env: dict  # Name -> ValueType
    success: tuple  # of Name
    process: Process


def parse_file(text: str) -> SourceFile:
    """Parse header lines (``free a : T;`` / ``success ok;``) then a process."""
    p = _Parser(text)
    env = {}
    success = []
    while p.peek().kind == "ident" and p.peek().text in ("free", "success"):
        kw = p.next()
        if kw.text == "free":
            nm = p.parse_name()
            p.expect(":")
            t = p.parse_vtype()
            p.expect(";")
            env[nm] = t
        else:
            nm = p.parse_name()
            p.expect(";")
            nm = Name(nm.base, nm.index, SUCCESS)
            p.success[(nm.base, nm.index)] = nm
            success.append(nm)
    proc = p.parse_proc()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return SourceFile(env, tuple(success), proc)


def print_file(f: SourceFile) -> str:
    lines = [f"free {n} : {t};" for n, t in f.env.items()]
    lines += [f"success {n};" for n in f.success]
    lines.append(print_process(f.process))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalForm:
    """A structurally normalized process with a stable identity key."""

    process: Process
    key: str

    def __eq__(self, other):
        return isinstance(other, CanonicalForm) and self.key == other.key

    def __hash__(self):
        return hash(self.key)


def _split_chain(p):
    """Peel the top restriction chain: ((in, out, type) list, core)."""
    pairs = []
    while isinstance(p, Res):
        pairs.append((p.in_name, p.out_name, p.in_type))
        p = p.body
    return pairs, p


def _par_list(p):
    """The components of a ``|`` tree, left to right, without recursion."""
    out, todo = [], [p]
    while todo:
        q = todo.pop()
        if isinstance(q, Par):
            todo.append(q.right)
            todo.append(q.left)
        else:
            out.append(q)
    return out


def _chain(pairs, core):
    for a, b, t in reversed(pairs):
        core = Res(a, b, t, core)
    return core


def _par(atoms):
    if not atoms:
        return NIL
    out = atoms[0]
    for a in atoms[1:]:
        out = Par(out, a)
    return out


class _GlobalAlloc:
    def __init__(self, start):
        self.k = start

    def take(self):
        n = Name("_", self.k)
        self.k += 1
        return n


def _ranks(sigs):
    """Dense ranks of ``sigs`` in sorted order, so colours are canonical."""
    rank = {s: r for r, s in enumerate(sorted(set(sigs)))}
    return [rank[s] for s in sigs]


def _render_value(v, env):
    if isinstance(v, VName):
        return env.get(v.name) or str(v.name)
    if isinstance(v, VUnit):
        return "()"
    if isinstance(v, VTuple):
        return "(" + ",".join(_render_value(i, env) for i in v.items) + ")"
    if isinstance(v, VInl):
        return "inl " + _render_value(v.value, env)
    if isinstance(v, VInr):
        return "inr " + _render_value(v.value, env)
    raise TypeError(f"not a value: {v!r}")


def _value_leaves(v):
    if isinstance(v, VTuple):
        for item in v.items:
            yield from _value_leaves(item)
    elif isinstance(v, (VInl, VInr)):
        yield from _value_leaves(v.value)
    else:
        yield v


def _pair_labels(order, d, env):
    """``env`` plus de Bruijn levels ``%d``, ``%d+1``, ... for ``order``."""
    out = dict(env)
    for r, (a, b, _) in enumerate(order):
        out[a], out[b] = f"%{d + 2 * r}", f"%{d + 2 * r + 1}"
    return out


def _hide(names, binders):
    if any(b in names for b in binders):
        return {n: v for n, v in names.items() if n not in binders}
    return names


class _Canon:
    """The memo tables of one :func:`canonicalize` call.

    ``fvs`` maps ``id(node)`` to ``(node, free names)``; holding the node
    keeps its id from being reused while the call runs.  ``memo`` maps
    ``(id(node), depth, shape, labels of the node's free names)`` to the
    node's rendering and, for a level, the decisions that produced it.
    """

    def __init__(self):
        self.fvs = {}
        self.memo = {}

    def fv(self, p):
        got = self.fvs.get(id(p))
        if got is not None:
            return got[1]
        if isinstance(p, Par):
            out = frozenset().union(*[self.fv(c) for c in _par_list(p)])
        elif isinstance(p, (Input, RepInput)):
            out = (self.fv(p.body) - {p.param}) | {p.subject}
        elif isinstance(p, Res):
            out = self.fv(p.body) - {p.in_name, p.out_name}
        elif isinstance(p, LetTuple):
            out = (self.fv(p.body) - set(p.params)) | value_names(p.scrutinee)
        elif isinstance(p, Case):
            out = (value_names(p.scrutinee)
                   | (self.fv(p.left_body) - {p.left_param})
                   | (self.fv(p.right_body) - {p.right_param}))
        else:
            out = free_names(p)
        self.fvs[id(p)] = (p, out)
        return out

    # -- normalization ----------------------------------------------------

    def normalize(self, p):
        """Flatten ``|``, hoist restrictions, drop nil and dead pairs.

        Every level of the result is a restriction chain over a flat ``|``
        of atoms (inputs, outputs, lets and cases), in source order.
        """
        if isinstance(p, (Input, RepInput)):
            return type(p)(p.subject, p.param, self.normalize(p.body))
        if isinstance(p, LetTuple):
            return LetTuple(p.params, p.scrutinee, self.normalize(p.body))
        if isinstance(p, Case):
            return Case(p.scrutinee, p.left_param, self.normalize(p.left_body),
                        p.right_param, self.normalize(p.right_body))
        if isinstance(p, Par):
            return self._merge([], [self.normalize(c) for c in _par_list(p)])
        if isinstance(p, Res):
            return self._merge([(p.in_name, p.out_name, p.in_type)],
                               [self.normalize(p.body)])
        return p

    def _merge(self, pairs, comps):
        """Combine components under one restriction chain with capture
        avoidance; a pair no atom uses is dropped (scope extrusion and the
        nil axioms derive this)."""
        taken = set().union(*[self.fv(c) for c in comps])
        for a, b, _ in pairs:
            taken |= {a, b}
        pairs = list(pairs)
        atoms = []
        for c in comps:
            cpairs, core = _split_chain(c)
            renames = {}
            for a, b, t in cpairs:
                for n in (a, b):
                    if n in taken:
                        renames[n] = fresh_name(n, taken)
                    taken.add(renames.get(n, n))
                pairs.append((renames.get(a, a), renames.get(b, b), t))
            for atom in _par_list(core):
                if not isinstance(atom, Nil):
                    atoms.append(rename_free(atom, renames) if renames else atom)
        used = set().union(*[self.fv(x) for x in atoms])
        pairs = [(a, b, t) for a, b, t in pairs if a in used or b in used]
        return _chain(pairs, _par(atoms)) if atoms else NIL

    # -- certificates -----------------------------------------------------

    def render(self, p, d, env, shape):
        """Certificate of ``p`` with binder depth ``d``.

        Names in ``env`` print as their labels and other free names as
        themselves; binders inside ``p`` print as their de Bruijn level
        ``%k``.  A level's restriction pairs are numbered by
        :meth:`_search`, or, when ``shape`` is set, print as typed slots,
        which gives an invariant of ``p`` without any search.
        """
        if isinstance(p, Output):
            return (f"{env.get(p.subject) or str(p.subject)}"
                    f"!({_render_value(p.payload, env)})")
        if isinstance(p, Nil):
            return "0"
        key = (id(p), d, shape, tuple([env.get(n) for n in self.fv(p)]))
        got = self.memo.get(key)
        if got is not None:
            return got[0]
        decision = None
        if isinstance(p, (Input, RepInput)):
            x = f"%{d}"
            body = self.render(p.body, d + 1, {**env, p.param: x}, shape)
            bang = "!" if isinstance(p, RepInput) else ""
            s = f"{bang}{env.get(p.subject) or str(p.subject)}({x}).({body})"
        elif isinstance(p, LetTuple):
            xs = [f"%{d + i}" for i in range(len(p.params))]
            inner = {**env, **dict(zip(p.params, xs))}
            body = self.render(p.body, d + len(xs), inner, shape)
            s = (f"let({','.join(xs)})={_render_value(p.scrutinee, env)}"
                 f" in ({body})")
        elif isinstance(p, Case):
            x = f"%{d}"
            left = self.render(p.left_body, d + 1, {**env, p.left_param: x}, shape)
            right = self.render(p.right_body, d + 1, {**env, p.right_param: x},
                                shape)
            s = (f"case {_render_value(p.scrutinee, env)}"
                 f"{{inl {x}->({left});inr {x}->({right})}}")
        else:
            s, decision = self._level(p, d, env, shape)
        self.memo[key] = (s, decision)
        return s

    def _level(self, p, d, env, shape):
        """A restriction chain over ``|``: its connected components (atoms
        linked by the pairs they use) in certificate order, components
        with pairs first."""
        pairs, core = _split_chain(p)
        atoms = _par_list(core)
        if shape:
            slots = dict(env)
            for a, b, t in pairs:
                slots[a], slots[b] = f"?i:{t}", f"?o:{t}"
            return "|".join(sorted(self.render(x, d, slots, True)
                                   for x in atoms)), None
        comps = []
        for cpairs, catoms in self._components(pairs, atoms):
            if cpairs:
                order = self._search(cpairs, catoms, d, env)
                cert, catoms = self._leaf(order, catoms, d, env)
            else:
                order, cert = [], self.render(catoms[0], d, env, False)
            comps.append((not order, cert, order, catoms))
        comps.sort(key=lambda c: c[:2])
        return ("|".join(c[1] for c in comps),
                [(order, catoms, d + 2 * len(order))
                 for _, _, order, catoms in comps])

    def _components(self, pairs, atoms):
        """Connected components of a level: ``(pairs, atoms)`` groups."""
        owner = {}
        for k, (a, b, _) in enumerate(pairs):
            owner[a] = owner[b] = k
        root = list(range(len(pairs)))

        def find(k):
            while root[k] != k:
                root[k] = k = root[root[k]]
            return k

        uses = []
        for x in atoms:
            ks = [owner[n] for n in self.fv(x) & owner.keys()]
            uses.append(ks)
            for k in ks[1:]:
                root[find(k)] = find(ks[0])
        comps = {}
        for k, pair in enumerate(pairs):
            comps.setdefault(find(k), ([], []))[0].append(pair)
        out = []
        for x, ks in zip(atoms, uses):
            if ks:
                comps[find(ks[0])][1].append(x)
            else:
                out.append(([], [x]))
        return out + list(comps.values())

    def _leaf(self, order, atoms, d, env):
        """Certificate of a component whose pairs are numbered in
        ``order``, and its atoms in certificate order."""
        labels = _pair_labels(order, d, env)
        ad = d + 2 * len(order)
        certs = [self.render(x, ad, labels, False) for x in atoms]
        idx = sorted(range(len(atoms)), key=certs.__getitem__)
        head = "".join(f"new({labels[a]}:{t},{labels[b]})" for a, b, t in order)
        return (f"{head}({'|'.join(certs[i] for i in idx)})",
                [atoms[i] for i in idx])

    def _occurrences(self, p, owner):
        """``(role, pair)`` for each use of a pair name in atom ``p``.  The
        role is the end used, the kind and prefix depth of the position
        and the index within a value, so it does not depend on names or on
        the order of ``|``."""
        out = []

        def use(n, role, names):
            got = names.get(n)
            if got is not None:
                out.append(((got[1],) + role, got[0]))

        def walk(q, depth, names):
            if not names.keys() & self.fv(q):
                return
            if isinstance(q, Output):
                use(q.subject, ("o", depth, -1), names)
                for pos, v in enumerate(_value_leaves(q.payload)):
                    if isinstance(v, VName):
                        use(v.name, ("v", depth, pos), names)
            elif isinstance(q, (Input, RepInput)):
                use(q.subject, ("r" if isinstance(q, RepInput) else "i",
                                depth, -1), names)
                walk(q.body, depth + 1, _hide(names, (q.param,)))
            elif isinstance(q, Res):
                walk(q.body, depth, _hide(names, (q.in_name, q.out_name)))
            elif isinstance(q, Par):
                for c in _par_list(q):
                    walk(c, depth, names)
            elif isinstance(q, LetTuple):
                for pos, v in enumerate(_value_leaves(q.scrutinee)):
                    if isinstance(v, VName):
                        use(v.name, ("l", depth, pos), names)
                walk(q.body, depth + 1, _hide(names, q.params))
            elif isinstance(q, Case):
                for pos, v in enumerate(_value_leaves(q.scrutinee)):
                    if isinstance(v, VName):
                        use(v.name, ("c", depth, pos), names)
                walk(q.left_body, depth + 1, _hide(names, (q.left_param,)))
                walk(q.right_body, depth + 1, _hide(names, (q.right_param,)))

        walk(p, 0, owner)
        return out

    def _search(self, pairs, atoms, d, env):
        """Canonical order of a component's pairs.

        Pairs start coloured by type and atoms by their shape; colour
        refinement splits them by the colours of what they use and are
        used by.  While a cell of pairs is tied, each member in turn is
        individualized and refined; a member is skipped when aligning its
        refined colouring with an explored sibling's gives an automorphism
        (checked on atom certificates) that fixes the earlier choices and
        maps the sibling to it.  The least leaf certificate wins.
        """
        m = len(pairs)
        types = _ranks([str(t) for _, _, t in pairs])
        if len(set(types)) == m:
            return [pairs[k] for k in sorted(range(m), key=types.__getitem__)]
        ad = d + 2 * m
        slots = dict(env)
        owner = {}
        for k, (a, b, t) in enumerate(pairs):
            slots[a], slots[b] = f"?i:{t}", f"?o:{t}"
            owner[a], owner[b] = (k, "i"), (k, "o")
        occ = [self._occurrences(x, owner) for x in atoms]
        inc = [[] for _ in range(m)]
        for i, uses in enumerate(occ):
            for role, k in uses:
                inc[k].append((role, i))
        base = _pair_labels(pairs, d, env)

        def refine(pc, ac):
            while True:
                ac2 = _ranks([(ac[i], tuple(sorted((r, pc[k]) for r, k in uses)))
                              for i, uses in enumerate(occ)])
                pc2 = _ranks([(pc[k], tuple(sorted((r, ac2[i]) for r, i in inc[k])))
                              for k in range(m)])
                if len(set(pc2)) == len(set(pc)) and len(set(ac2)) == len(set(ac)):
                    return pc2, ac2
                pc, ac = pc2, ac2

        def cells(pc):
            out = {}
            for k, c in enumerate(pc):
                out.setdefault(c, []).append(k)
            return out

        def maps_onto(pi, pj, i, j, fixed):
            gamma = list(range(m))
            cj = cells(pj)
            for c, a in cells(pi).items():
                b = cj.get(c, [])
                if len(a) != len(b):
                    return False
                for x, y in zip(sorted(set(a) - set(b)), sorted(set(b) - set(a))):
                    gamma[x] = y
            if gamma[i] != j or any(gamma[k] != k for k in fixed):
                return False
            image = list(pairs)
            for k in range(m):
                image[gamma[k]] = pairs[k]
            moved = _pair_labels(image, d, env)
            touched = {a for k in range(m) if gamma[k] != k for _, a in inc[k]}
            return (sorted(self.render(atoms[a], ad, base, False) for a in touched)
                    == sorted(self.render(atoms[a], ad, moved, False)
                              for a in touched))

        best = []

        def visit(pc, ac, fixed):
            split = cells(pc)
            if len(split) == m:
                order = [pairs[k] for k in sorted(range(m), key=pc.__getitem__)]
                cert = self._leaf(order, atoms, d, env)[0]
                if not best or cert < best[0]:
                    best[:] = [cert, order]
                return
            _, c = min((len(v), c) for c, v in split.items() if len(v) > 1)
            explored = []
            for j in split[c]:
                pj, aj = refine([2 * x + (k != j) for k, x in enumerate(pc)], ac)
                if any(maps_onto(pi, pj, i, j, fixed) for i, pi in explored):
                    continue
                explored.append((j, pj))
                visit(pj, aj, fixed + [j])

        shapes = _ranks([self.render(x, ad, slots, True) for x in atoms])
        visit(*refine(types, shapes), [])
        return best[1]

    # -- the canonical process --------------------------------------------

    def build(self, p, d, labels, names, alloc):
        """``p`` rebuilt in the order its certificate under ``labels``
        chose, with binders renamed ``_#k`` in print order."""
        if isinstance(p, Nil):
            return p
        if isinstance(p, Output):
            return Output(names.get(p.subject, VName(p.subject)).name,
                          substitute_value(p.payload, names))
        if isinstance(p, (Input, RepInput)):
            x = alloc.take()
            body = self.build(p.body, d + 1, {**labels, p.param: f"%{d}"},
                              {**names, p.param: VName(x)}, alloc)
            return type(p)(names.get(p.subject, VName(p.subject)).name, x, body)
        if isinstance(p, LetTuple):
            xs = [alloc.take() for _ in p.params]
            lab, nam = dict(labels), dict(names)
            for i, (prm, x) in enumerate(zip(p.params, xs)):
                lab[prm], nam[prm] = f"%{d + i}", VName(x)
            return LetTuple(tuple(xs), substitute_value(p.scrutinee, names),
                            self.build(p.body, d + len(xs), lab, nam, alloc))
        if isinstance(p, Case):
            scrut = substitute_value(p.scrutinee, names)
            x = alloc.take()
            left = self.build(p.left_body, d + 1, {**labels, p.left_param: f"%{d}"},
                              {**names, p.left_param: VName(x)}, alloc)
            y = alloc.take()
            right = self.build(p.right_body, d + 1,
                               {**labels, p.right_param: f"%{d}"},
                               {**names, p.right_param: VName(y)}, alloc)
            return Case(scrut, x, left, y, right)
        key = (id(p), d, False, tuple([labels.get(n) for n in self.fv(p)]))
        pairs, scopes = [], []
        for order, atoms, ad in self.memo[key][1]:
            nam = dict(names)
            for a, b, t in order:
                x, y = alloc.take(), alloc.take()
                nam[a], nam[b] = VName(x), VName(y)
                pairs.append((x, y, t))
            scopes.append((atoms, ad, _pair_labels(order, d, labels), nam))
        built = [self.build(x, ad, lab, nam, alloc)
                 for atoms, ad, lab, nam in scopes for x in atoms]
        return _chain(pairs, _par(built))


def canonicalize(p: Process) -> CanonicalForm:
    """Normal form for structural congruence.

    Every level (the top, an input or let body, a case branch) becomes one
    restriction chain over a flat ``|`` of atoms, with no nil component
    and no unused pair.  The level's connected components (atoms linked by
    the pairs they use) come in certificate order, components with pairs
    first; within a component the pairs are numbered by colour refinement
    and individualization, keeping the least certificate, and the atoms
    follow in certificate order.  Bound names become ``_#k`` in print
    order, above the index of any free name with base ``_``.  Congruent
    processes get equal keys and, as the key prints the rebuilt process,
    only they do.
    """
    c = _Canon()
    norm = c.normalize(p)
    start = max((n.index + 1 for n in c.fv(norm)
                 if n.base == "_" and n.kind == REGULAR), default=0)
    c.render(norm, 0, {}, False)
    built = c.build(norm, 0, {}, {}, _GlobalAlloc(start))
    return CanonicalForm(built, print_process(built))


def canonical_process(p: Process) -> Process:
    return canonicalize(p).process


def congruent(p: Process, q: Process) -> bool:
    """Structural congruence, decided via the canonical form."""
    return canonicalize(p).key == canonicalize(q).key

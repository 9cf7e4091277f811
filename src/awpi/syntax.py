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

import itertools
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
        return (_alpha(p.left, q.left, envl, envr, counter)
                and _alpha(p.right, q.right, envl, envr, counter))
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
        # Par in right position keeps parentheses so the shape round-trips
        left = print_process(p.left) if isinstance(p.left, Par) else _print_prefix(p.left)
        return f"{left} | {_print_prefix(p.right)}"
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
    if isinstance(p, Par):
        return _par_list(p.left) + _par_list(p.right)
    return [p]


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


def _normalize(p: Process) -> Process:
    """Flatten parallel structure, hoist restrictions, drop nil and dead pairs.

    The result at every level is a restriction chain over a flat parallel
    composition of non-nil, non-par, non-res atoms (in source order; ordering
    happens in the renaming pass).
    """
    if isinstance(p, Nil) or isinstance(p, Output):
        return p
    if isinstance(p, Input):
        return Input(p.subject, p.param, _normalize(p.body))
    if isinstance(p, RepInput):
        return RepInput(p.subject, p.param, _normalize(p.body))
    if isinstance(p, LetTuple):
        return LetTuple(p.params, p.scrutinee, _normalize(p.body))
    if isinstance(p, Case):
        return Case(p.scrutinee, p.left_param, _normalize(p.left_body),
                    p.right_param, _normalize(p.right_body))
    if isinstance(p, Par):
        comps = [_normalize(c) for c in _par_list(p)]
        return _merge(([], comps))
    if isinstance(p, Res):
        body = _normalize(p.body)
        return _merge(([(p.in_name, p.out_name, p.in_type)], [body]))
    raise TypeError(f"not a process: {p!r}")


def _merge(seed):
    """Combine components under one restriction chain with capture avoidance."""
    own_pairs, comps = seed
    pairs = list(own_pairs)
    atoms = []
    # free names of everything at this level, used for capture avoidance
    taken = set()
    for c in comps:
        taken |= free_names(c)
    for a, b, _ in pairs:
        taken.add(a)
        taken.add(b)
    for c in comps:
        cpairs, core = _split_chain(c)
        if cpairs:
            renames = {}
            for i, (a, b, t) in enumerate(cpairs):
                na, nb = a, b
                if a in taken:
                    na = fresh_name(a, taken | set(renames))
                    renames[a] = na
                taken.add(na)
                if b in taken:
                    nb = fresh_name(b, taken | set(renames) | {na})
                    renames[b] = nb
                taken.add(nb)
                cpairs[i] = (na, nb, t)
            if renames:
                core = rename_free(core, renames)
                # renames may affect deeper pair bodies only via free names,
                # which rename_free already handled (binders were peeled off)
            pairs.extend(cpairs)
            for atom in _par_list(core):
                if not isinstance(atom, Nil):
                    atoms.append(atom)
        else:
            for atom in _par_list(core):
                if not isinstance(atom, Nil):
                    atoms.append(atom)
    # drop dead restrictions (derivable from scope extrusion + nil axioms);
    # a pair can only be used by atoms, so one pass suffices
    used = set()
    for atom in atoms:
        used |= free_names(atom)
    pairs = [(a, b, t) for (a, b, t) in pairs if a in used or b in used]
    if not atoms:
        return NIL
    return _chain(pairs, _par(atoms))


# Canonical renaming: bound names become Name("_", k) in print order, with k
# starting above any free name that already uses the "_" base.

def _pend_tag(pend, n):
    info = pend.get(n)
    if info is None:
        return None
    which, t = info
    return f"?{which}:{t}"


def _ckey_value(v, env, pend):
    if isinstance(v, VName):
        tag = _pend_tag(pend, v.name)
        if tag is not None:
            return tag
        return env.get(v.name, str(v.name))
    if isinstance(v, VUnit):
        return "()"
    if isinstance(v, VTuple):
        return "(" + ",".join(_ckey_value(i, env, pend) for i in v.items) + ")"
    if isinstance(v, VInl):
        return "inl " + _ckey_value(v.value, env, pend)
    if isinstance(v, VInr):
        return "inr " + _ckey_value(v.value, env, pend)
    raise TypeError(f"not a value: {v!r}")


def _ckey_name(n, env, pend):
    tag = _pend_tag(pend, n)
    if tag is not None:
        return tag
    return env.get(n, str(n))


class _LocalAlloc:
    def __init__(self):
        self.k = 0

    def take(self):
        s = f"%{self.k}"
        self.k += 1
        return s


def _ckey(p, env, pend, alloc):
    """Alpha-invariant rendering used to order parallel components.

    ``env`` maps already-named binders (and nothing else) to strings; ``pend``
    maps the current chain's binders to typed placeholders; all other binders
    are numbered locally in print order.
    """
    if isinstance(p, Nil):
        return "0"
    if isinstance(p, Output):
        return f"{_ckey_name(p.subject, env, pend)}!({_ckey_value(p.payload, env, pend)})"
    if isinstance(p, (Input, RepInput)):
        bang = "!" if isinstance(p, RepInput) else ""
        px = alloc.take()
        env2 = dict(env)
        env2[p.param] = px
        pend2 = {k: v for k, v in pend.items() if k != p.param}
        return f"{bang}{_ckey_name(p.subject, env, pend)}({px}).{_ckey(p.body, env2, pend2, alloc)}"
    if isinstance(p, LetTuple):
        env2 = dict(env)
        ps = []
        for prm in p.params:
            s = alloc.take()
            env2[prm] = s
            ps.append(s)
        pend2 = {k: v for k, v in pend.items() if k not in p.params}
        return (f"let({','.join(ps)})={_ckey_value(p.scrutinee, env, pend)}"
                f" in {_ckey(p.body, env2, pend2, alloc)}")
    if isinstance(p, Case):
        sv = _ckey_value(p.scrutinee, env, pend)
        lx = alloc.take()
        envl = dict(env)
        envl[p.left_param] = lx
        pendl = {k: v for k, v in pend.items() if k != p.left_param}
        lk = _ckey(p.left_body, envl, pendl, alloc)
        rx = alloc.take()
        envr = dict(env)
        envr[p.right_param] = rx
        pendr = {k: v for k, v in pend.items() if k != p.right_param}
        rk = _ckey(p.right_body, envr, pendr, alloc)
        return f"case {sv}{{inl {lx}->{lk};inr {rx}->{rk}}}"
    # a restriction chain over components: order them before rendering
    pairs, core = _split_chain(p)
    if pairs:
        atoms = _par_list(core)
        own_pend = dict(pend)
        for a, b, t in pairs:
            own_pend[a] = ("in", str(t))
            own_pend[b] = ("out", str(t))
        idx = sorted(range(len(atoms)),
                     key=lambda i: _ckey(atoms[i], env, own_pend, _LocalAlloc()))
        # assign local numbers to this chain's binders by first use
        order = _first_use_order([atoms[i] for i in idx], pairs)
        env2 = dict(env)
        names = {}
        for a, b, t in order:
            names[a] = alloc.take()
            names[b] = alloc.take()
            env2[a] = names[a]
            env2[b] = names[b]
        pend2 = {k: v for k, v in pend.items() if k not in names}
        header = "".join(f"new({names[a]}:{t},{names[b]})" for a, b, t in order)
        body = "|".join(_ckey(atoms[i], env2, pend2, alloc) for i in idx)
        return header + "(" + body + ")"
    if isinstance(p, Par):
        atoms = _par_list(p)
        idx = sorted(range(len(atoms)),
                     key=lambda i: _ckey(atoms[i], env, pend, _LocalAlloc()))
        return "|".join(_ckey(atoms[i], env, pend, alloc) for i in idx)
    raise TypeError(f"not a process: {p!r}")


def _occurrences(p, targets, out):
    """Append names from ``targets`` to ``out`` in print order (pre-order)."""
    if isinstance(p, Nil):
        return
    if isinstance(p, Output):
        if p.subject in targets:
            out.append(p.subject)
        _value_occurrences(p.payload, targets, out)
        return
    if isinstance(p, (Input, RepInput)):
        if p.subject in targets:
            out.append(p.subject)
        if p.param in targets:
            _occurrences(p.body, targets - {p.param}, out)
        else:
            _occurrences(p.body, targets, out)
        return
    if isinstance(p, Res):
        inner = targets - {p.in_name, p.out_name}
        _occurrences(p.body, inner, out)
        return
    if isinstance(p, Par):
        _occurrences(p.left, targets, out)
        _occurrences(p.right, targets, out)
        return
    if isinstance(p, LetTuple):
        _value_occurrences(p.scrutinee, targets, out)
        _occurrences(p.body, targets - set(p.params), out)
        return
    if isinstance(p, Case):
        _value_occurrences(p.scrutinee, targets, out)
        _occurrences(p.left_body, targets - {p.left_param}, out)
        _occurrences(p.right_body, targets - {p.right_param}, out)
        return
    raise TypeError(f"not a process: {p!r}")


def _value_occurrences(v, targets, out):
    if isinstance(v, VName):
        if v.name in targets:
            out.append(v.name)
        return
    if isinstance(v, VUnit):
        return
    if isinstance(v, VTuple):
        for item in v.items:
            _value_occurrences(item, targets, out)
        return
    if isinstance(v, (VInl, VInr)):
        _value_occurrences(v.value, targets, out)
        return
    raise TypeError(f"not a value: {v!r}")


def _first_use_order(sorted_atoms, pairs):
    """Order restriction pairs by the first occurrence of either member."""
    members = set()
    for a, b, _ in pairs:
        members.add(a)
        members.add(b)
    seq = []
    for atom in sorted_atoms:
        _occurrences(atom, members, seq)
    rank = {}
    for i, n in enumerate(seq):
        rank.setdefault(n, i)
    def pair_rank(pr):
        a, b, _ = pr
        return min(rank.get(a, 1 << 30), rank.get(b, 1 << 30))
    return sorted(pairs, key=pair_rank)


class _GlobalAlloc:
    def __init__(self, start):
        self.k = start

    def take(self):
        n = Name("_", self.k)
        self.k += 1
        return n


# When parallel components tie under the alpha-invariant sort key (possible
# when distinct restriction pairs of the same type render alike), the final
# naming can depend on their order.  Try every ordering within tied groups,
# up to this many candidates, and keep the lexicographically least result.
_TIE_CANDIDATES = 128


def _tied_orderings(atoms, idx, keys):
    """Yield candidate index orders: permutations within equal-key groups."""
    groups = []
    i = 0
    while i < len(idx):
        j = i
        while j + 1 < len(idx) and keys[idx[j + 1]] == keys[idx[i]]:
            j += 1
        groups.append(idx[i:j + 1])
        i = j + 1

    def expand(gi):
        if gi == len(groups):
            yield []
            return
        group = groups[gi]
        if len(group) == 1:
            for rest in expand(gi + 1):
                yield group + rest
            return
        seen = set()
        for perm in itertools.permutations(group):
            sig = tuple(print_process(atoms[i]) for i in perm)
            if sig in seen:
                continue
            seen.add(sig)
            for rest in expand(gi + 1):
                yield list(perm) + rest

    count = 0
    for order in expand(0):
        yield order
        count += 1
        if count >= _TIE_CANDIDATES:
            return


def _build(p, env, alloc):
    """Rebuild ``p`` with canonical bound names and sorted parallel order."""
    if isinstance(p, Nil):
        return p
    if isinstance(p, Output):
        return Output(env.get(p.subject, p.subject),
                      substitute_value(p.payload, {k: VName(v) for k, v in env.items()}))
    if isinstance(p, (Input, RepInput)):
        nx = alloc.take()
        env2 = dict(env)
        env2[p.param] = nx
        return type(p)(env.get(p.subject, p.subject), nx, _build(p.body, env2, alloc))
    if isinstance(p, LetTuple):
        env2 = dict(env)
        nps = []
        for prm in p.params:
            nn = alloc.take()
            env2[prm] = nn
            nps.append(nn)
        scrut = substitute_value(p.scrutinee, {k: VName(v) for k, v in env.items()})
        return LetTuple(tuple(nps), scrut, _build(p.body, env2, alloc))
    if isinstance(p, Case):
        scrut = substitute_value(p.scrutinee, {k: VName(v) for k, v in env.items()})
        lx = alloc.take()
        envl = dict(env)
        envl[p.left_param] = lx
        lb = _build(p.left_body, envl, alloc)
        rx = alloc.take()
        envr = dict(env)
        envr[p.right_param] = rx
        rb = _build(p.right_body, envr, alloc)
        return Case(scrut, lx, lb, rx, rb)
    pairs, core = _split_chain(p)
    if pairs or isinstance(p, Par):
        atoms = _par_list(core)
        env_str = {k: str(v) for k, v in env.items()}
        own_pend = {}
        for a, b, t in pairs:
            own_pend[a] = ("in", str(t))
            own_pend[b] = ("out", str(t))
        keys = [_ckey(a, env_str, own_pend, _LocalAlloc()) for a in atoms]
        idx = sorted(range(len(atoms)), key=lambda i: keys[i])
        has_tie = any(keys[idx[i]] == keys[idx[i + 1]] for i in range(len(idx) - 1))
        orders = _tied_orderings(atoms, idx, keys) if has_tie else [idx]
        best = None
        start_k = alloc.k
        for order in orders:
            alloc.k = start_k
            pair_order = _first_use_order([atoms[i] for i in order], pairs)
            env2 = dict(env)
            new_pairs = []
            for a, b, t in pair_order:
                na = alloc.take()
                nb = alloc.take()
                env2[a] = na
                env2[b] = nb
                new_pairs.append((na, nb, t))
            built = [_build(atoms[i], env2, alloc) for i in order]
            cand = _chain(new_pairs, _par(built))
            ckey = print_process(cand)
            if best is None or ckey < best[0]:
                best = (ckey, cand, alloc.k)
        alloc.k = best[2]
        return best[1]
    raise TypeError(f"not a process: {p!r}")


def canonicalize(p: Process) -> CanonicalForm:
    """Normal form for structural congruence (sound; desk-scale complete)."""
    norm = _normalize(p)
    frees = free_names(norm)
    start = 0
    for n in frees:
        if n.base == "_" and n.kind == REGULAR:
            start = max(start, n.index + 1)
    built = _build(norm, {}, _GlobalAlloc(start))
    return CanonicalForm(built, print_process(built))


def canonical_process(p: Process) -> Process:
    return canonicalize(p).process


def congruent(p: Process, q: Process) -> bool:
    """Structural congruence, decided via the canonical form."""
    return canonicalize(p).key == canonicalize(q).key

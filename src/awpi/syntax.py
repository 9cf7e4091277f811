"""Abstract syntax for AWpi processes.

The calculus separates input names from output names: a restriction
``new(a:T, b) P`` binds a dual pair, the input end ``a`` and its output
companion ``b``.  Values are names, the unit constant, tuples and binary
injections; processes are nil, parallel composition, (replicated) input,
asynchronous output, restriction, a tuple destructor and a case split.

This module owns the concrete syntax (parser and printer), free names,
fresh names, capture-avoiding substitution, alpha equality and the
canonical form used everywhere as state identity.  Every fresh name of the
package is picked here: by :func:`fresh_name`, or by one :class:`_Fresh`
per translation (``internalize``, ``encode_alpi``, ``encode_stlc``).
:class:`TokenStream` is the one lexer of every front end: the ``.awpi``
grammar here and the localised-pi and lambda-calculus grammars in
``encodings`` each subclass it with their own token regex.
Canonicalization implements the structural congruence axioms as a normal
form: parallel compositions are flattened to a sorted multiset, nil
components and dead restrictions are dropped, restrictions are extruded
outward as far as parallel structure allows, and bound names are renamed
positionally.

A :class:`Name` is a tuple, because every layer's inner loop looks names
up (substitution, fresh names, connection sets, typing environments,
canonical keys), and a tuple hashes and compares in C.  It equals the
plain tuple of its fields and hashes like it, which is also how the
frozen dataclass it replaced hashed, so set and dict orders over names,
and with them every key, are as they were.  No dict or set here or in the
other modules holds both names and other 3-tuples.  Processes, values and
types stay dataclasses, not tuples: ``Input``/``RepInput`` and
``VInl``/``VInr`` have the same fields, and as tuples they would compare
equal; AST nodes as tagged tuples also measured no faster on the front end,
as their fields are read through descriptors all the same.  Process and
value nodes are slotted (``__slots__`` on :class:`Process` and
:class:`Value` and ``_node(slots=True)`` on each node), so a node has no
per-instance ``__dict__``.  A process node has one more slot, ``_names``:
nodes are immutable, so each keeps its free names once :func:`_frees`
finds them, and no walk keeps a table of them.

Every node class of the package (processes, values, types and labels
here and in ``api``, ``semantics``, ``encodings`` and ``typecheck``, and
:class:`CanonicalForm`) is made by :func:`_node`, which gives it the
behaviour of a frozen dataclass at a fraction of the cost: a frozen
dataclass makes about six functions with ``exec`` per class at import,
which was most of the package's import time.  Node
construction is a large self-time item on every workload, as
substitution, transitions and the canonical build make nodes by the
thousand; ``_node``'s ``__init__`` stores each field through a setter
bound once (on a slotted class the slot's own descriptor), where a
dataclass's looks ``object.__setattr__`` up again for every field.
Equality and hash have the bodies dataclasses generates, so hash values,
and with them keys and set orders, are as they were.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass, fields
from itertools import count, repeat
from types import MemberDescriptorType
from typing import NamedTuple


def _node(cls=None, /, *, slots=False):
    """Make ``cls`` a node class: a dataclass that behaves as one made by
    ``@dataclass(frozen=True, slots=slots)``, at a fraction of the cost.

    ``dataclass`` only records the fields, so ``fields``, ``replace`` and
    ``is_dataclass`` work; its ``__dataclass_params__`` say ``init=False``
    and ``frozen=False``.  One ``exec`` per class makes ``__init__``,
    ``__eq__`` and ``__hash__`` with the bodies dataclasses generates, but
    ``__init__`` stores each field through a setter bound here: the slot's
    own descriptor on a slotted class, else ``object.__setattr__``.
    ``__repr__``, ``__setattr__`` and ``__delattr__`` are shared.  A method
    the class body defines is kept.  Every field must be passed, as no node
    field has a default.
    """
    if cls is None:
        return lambda c: _node(c, slots=slots)
    if cls.__doc__ is None:
        # else dataclasses builds one from inspect.signature, which is slow
        cls.__doc__ = (f"{cls.__name__}("
                       f"{', '.join(vars(cls).get('__annotations__', ()))})")
    cls = dataclass(cls, init=False, repr=False, eq=False, slots=slots)
    own = vars(cls)
    names = [f.name for f in fields(cls)]
    env, body = {"_set": object.__setattr__}, []
    if isinstance(getattr(cls, "_names", None), MemberDescriptorType):
        env["_setn"] = cls._names.__set__  # a process keeps no names yet
        body.append("_setn(self, None)")
    for k, name in enumerate(names):
        slot = own.get(name)
        if isinstance(slot, MemberDescriptorType):
            env[f"_set{k}"] = slot.__set__
            body.append(f"_set{k}(self, {name})")
        else:
            body.append(f"_set(self, {name!r}, {name})")
    mine = "".join(f"self.{n}," for n in names)
    theirs = "".join(f"other.{n}," for n in names)
    made = {
        "__init__": f"def __init__(self{''.join(', ' + n for n in names)}):\n"
                    f"    {'; '.join(body) or 'pass'}\n",
        "__eq__": "def __eq__(self, other):\n"
                  "    if other.__class__ is self.__class__:\n"
                  f"        return ({mine}) == ({theirs})\n"
                  "    return NotImplemented\n",
        "__hash__": f"def __hash__(self):\n    return hash(({mine}))\n",
    }
    made = {k: text for k, text in made.items() if k not in own}
    exec("".join(made.values()), env)
    for k in made:
        env[k].__qualname__ = f"{cls.__qualname__}.{k}"
        setattr(cls, k, env[k])
    for k, method in (("__repr__", _node_repr),
                      ("__setattr__", _node_setattr),
                      ("__delattr__", _node_delattr)):
        if k not in own:
            setattr(cls, k, method)
    return cls


def _node_repr(self):
    return (f"{self.__class__.__qualname__}("
            + ", ".join(f"{f.name}={getattr(self, f.name)!r}"
                        for f in fields(self)) + ")")


def _node_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _node_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


class ParseError(ValueError):
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


class Name(NamedTuple):
    """A channel name: printed ``base`` or ``base#index``.

    ``kind`` distinguishes success names (observable barbs) from regular
    names; it is assigned by the file header, never by the grammar.

    A name is a tuple, so it hashes, compares and orders in C.  It equals
    the plain tuple ``(base, index, kind)``, hashes like it and orders as
    it does; no dict or set in the package holds both names and other
    3-tuples, so that equality never merges two keys.  Fields cannot be
    assigned.
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


class _Fresh:
    """The fresh names of one translation call.  ``fresh(base, scope)``
    makes the smallest-index name of ``base``, from 0, in neither ``taken``
    (the input's free names and every name made so far) nor ``scope`` (the
    names in scope where it is bound, the only others it could capture),
    and takes it.  A base's search starts past the index it last made, so
    it is linear over a call, however deeply the input nests."""

    __slots__ = ("taken", "_next")

    def __init__(self, taken):
        self.taken = set(taken)
        self._next = {}

    def __call__(self, base: str, scope=()) -> Name:
        n = Name(base, self._next.get(base, 0))
        while n in self.taken or n in scope:
            n = Name(base, n.index + 1)
        self._next[base] = n.index + 1
        self.taken.add(n)
        return n


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

class ValueType:
    pass


@_node
class UnitType(ValueType):
    def __str__(self):
        return "unit"


@_node
class ChanType(ValueType):
    mode: str  # "i" | "o" | "li" | "lo"
    payload: ValueType

    def __str__(self):
        return f"{self.mode}[{self.payload}]"


@_node
class TupleType(ValueType):
    items: tuple  # of ValueType, arity >= 2

    def __str__(self):
        return " * ".join(_vtype_atom_str(t) for t in self.items)


@_node
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
    __slots__ = ()


@_node(slots=True)
class VName(Value):
    name: Name


@_node(slots=True)
class VUnit(Value):
    pass


@_node(slots=True)
class VTuple(Value):
    items: tuple  # of Value, arity >= 2


@_node(slots=True)
class VInl(Value):
    value: Value


@_node(slots=True)
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


def _value_leaves(v):
    """The names and units of ``v``, left to right."""
    if isinstance(v, VTuple):
        for item in v.items:
            yield from _value_leaves(item)
    elif isinstance(v, (VInl, VInr)):
        yield from _value_leaves(v.value)
    else:
        yield v


def _value_counts(v: Value, counts):
    """Add the occurrences of each name in ``v`` to ``counts``."""
    for leaf in _value_leaves(v):
        if isinstance(leaf, VName):
            counts[leaf.name] = counts.get(leaf.name, 0) + 1


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

class Process:
    # free names, None until :func:`_frees` stores them with ``_keep_names``
    # (the slot's setter; ``_node_setattr`` refuses them); a slot, not a
    # field, so equality, hash, repr and ``fields`` do not see them
    __slots__ = ("_names",)


@_node(slots=True)
class Nil(Process):
    pass


@_node(slots=True)
class Par(Process):
    left: Process
    right: Process


@_node(slots=True)
class Input(Process):
    subject: Name
    param: Name
    body: Process


@_node(slots=True)
class RepInput(Process):
    subject: Name
    param: Name
    body: Process


@_node(slots=True)
class Output(Process):
    subject: Name
    payload: Value


@_node(slots=True)
class Res(Process):
    """``new(in_name : in_type, out_name) body`` binding a dual pair."""

    in_name: Name
    out_name: Name
    in_type: ChanType
    body: Process


@_node(slots=True)
class LetTuple(Process):
    params: tuple  # of Name, arity >= 2
    scrutinee: Value
    body: Process


@_node(slots=True)
class Case(Process):
    scrutinee: Value
    left_param: Name
    left_body: Process
    right_param: Name
    right_body: Process


NIL = Nil()
_keep_names = Process._names.__set__


def ast_size(p: Process) -> int:
    """Number of process constructors (values and types do not count)."""
    return _shallow(_ast_size, p)


def _ast_size(p: Process) -> int:
    if isinstance(p, Nil) or isinstance(p, Output):
        return 1
    if isinstance(p, Par):
        return 1 + _ast_size(p.left) + _ast_size(p.right)
    if isinstance(p, (Input, RepInput)):
        return 1 + _ast_size(p.body)
    if isinstance(p, Res):
        return 1 + _ast_size(p.body)
    if isinstance(p, LetTuple):
        return 1 + _ast_size(p.body)
    if isinstance(p, Case):
        return 1 + _ast_size(p.left_body) + _ast_size(p.right_body)
    raise TypeError(f"not a process: {p!r}")


def _shallow(walk, *args, what="process"):
    """``walk(*args)``, where nesting too deep for the recursion limit is a
    ``ValueError(f"{what} nested too deeply")``, not a RecursionError,
    as :meth:`TokenStream.whole` does for text; ``what`` names what the
    walk is over.  Public walks over a process go through here; the parser
    and the walks themselves call the recursive ones directly, so that
    too-deep text is still a ParseError."""
    try:
        return walk(*args)
    except RecursionError:
        pass
    raise ValueError(f"{what} nested too deeply")


def _bind(env, name, value):
    """Bind ``name`` to ``value`` in ``env`` in place, so that a binder
    does not copy ``env``; return what it shadowed (None if nothing),
    which :func:`_unbind` puts back."""
    old = env.get(name)
    env[name] = value
    return old


def _unbind(env, name, old):
    if old is None:
        del env[name]
    else:
        env[name] = old


def _bind_all(env, names, values):
    """:func:`_bind` for each of ``names``; a later name that repeats an
    earlier one shadows it.  Returns what each shadowed, read before any
    is bound, so :func:`_unbind_all` may put them back in any order."""
    olds = list(map(env.get, names))
    env.update(zip(names, values))
    return olds


def _unbind_all(env, names, olds):
    for n, old in zip(names, olds):
        if old is None:
            env.pop(n, None)
        else:
            env[n] = old


def free_names(p: Process) -> frozenset:
    """The free names of ``p``.  Raises ValueError on a process nested too
    deeply for the recursion limit (a ``|`` chain of any width is fine)."""
    return _shallow(_frees, p)


def _frees(p: Process) -> frozenset:
    """The free names of ``p``, kept on the node the first time they are
    found, as a ``str`` keeps its hash, so a subterm that many states share
    or that a walk asks about again is walked once in its life."""
    out = p._names
    if out is not None:
        return out
    if isinstance(p, Par):
        # the | tree in a loop, not by recursion, down to nodes that keep
        # names; only p keeps them, as a set per inner | is quadratic
        names, todo = set(), [p]
        while todo:
            q = todo.pop()
            if isinstance(q, Par) and q._names is None:
                todo += (q.left, q.right)
            else:
                names |= _frees(q)
        out = frozenset(names)
    elif isinstance(p, Res):
        # a chain in a loop too: a wide |'s canonical form is one long chain
        bound, q = [p.in_name, p.out_name], p.body
        while isinstance(q, Res) and q._names is None:
            bound += (q.in_name, q.out_name)
            q = q.body
        out = _frees(q).difference(bound)
    elif isinstance(p, Output):
        out = frozenset((p.subject,)) | value_names(p.payload)
    elif isinstance(p, Nil):
        out = frozenset()
    elif isinstance(p, (Input, RepInput)):
        out = frozenset((p.subject,)) | (_frees(p.body) - {p.param})
    elif isinstance(p, LetTuple):
        out = value_names(p.scrutinee) | (_frees(p.body) - set(p.params))
    elif isinstance(p, Case):
        out = (value_names(p.scrutinee)
               | (_frees(p.left_body) - {p.left_param})
               | (_frees(p.right_body) - {p.right_param}))
    else:
        raise TypeError(f"not a process: {p!r}")
    _keep_names(p, out)
    return out


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

    A binder that would capture a name of the substituted values is
    refreshed deterministically (smallest unused index) against that
    name, the names substituted for, the binder's other names and the free
    names of its scope.  A refreshed binder that meets an inner binder of
    the same name is substituted into that binder's scope like any other
    value, so the inner binder is refreshed in turn.  The free names kept
    on each node (see :func:`_frees`) guard every subterm and serve every
    refresh, so a subterm's names are found once, not once per binder
    above it, and the work is linear in the size of ``p``, however deeply
    it nests.
    """
    mapping = {k: v for k, v in mapping.items() if not (isinstance(v, VName) and v.name == k)}
    if not mapping or mapping.keys().isdisjoint(_shallow(_frees, p)):
        return p
    return _shallow(_subst, p, mapping)


def _subst_binders(binders, mapping, p):
    """Refresh ``binders`` as needed; returns (new binders, inner mapping)."""
    free = _frees(p)
    relevant = {k: v for k, v in mapping.items() if k not in binders and k in free}
    if not relevant:
        # nothing to substitute below; keep binders untouched
        return list(binders), {}
    clash = set().union(*map(value_names, relevant.values()))
    if clash.isdisjoint(binders):
        return list(binders), relevant
    avoid = clash | free | set(binders)
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
    # some binder clashed, so ``renames`` is not empty
    return out, {**relevant, **renames}


def _subst(p: Process, mapping) -> Process:
    if isinstance(p, Nil):
        return p
    if isinstance(p, Par):
        # the left | spine in a loop, as in _frees, shape kept; a component
        # free of mapped names is kept, and no inner | is asked (n^2 names)
        rights = []
        while isinstance(p, Par):
            rights.append(p.right)
            p = p.left
        out = p if mapping.keys().isdisjoint(_frees(p)) else _subst(p, mapping)
        for r in reversed(rights):
            keep = not isinstance(r, Par) and mapping.keys().isdisjoint(_frees(r))
            out = Par(out, r if keep else _subst(r, mapping))
        return out
    if isinstance(p, Output):
        return Output(_subst_subject(p.subject, mapping),
                      substitute_value(p.payload, mapping))
    if isinstance(p, (Input, RepInput)):
        subject = _subst_subject(p.subject, mapping)
        (param,), inner = _subst_binders((p.param,), mapping, p.body)
        body = _subst(p.body, inner) if inner else p.body
        return type(p)(subject, param, body)
    if isinstance(p, Res):
        (a, b), inner = _subst_binders((p.in_name, p.out_name), mapping, p.body)
        body = _subst(p.body, inner) if inner else p.body
        return Res(a, b, p.in_type, body)
    if isinstance(p, LetTuple):
        scrut = substitute_value(p.scrutinee, mapping)
        params, inner = _subst_binders(tuple(p.params), mapping, p.body)
        body = _subst(p.body, inner) if inner else p.body
        return LetTuple(tuple(params), scrut, body)
    if isinstance(p, Case):
        scrut = substitute_value(p.scrutinee, mapping)
        (lp,), linner = _subst_binders((p.left_param,), mapping, p.left_body)
        (rp,), rinner = _subst_binders((p.right_param,), mapping, p.right_body)
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
    return _shallow(_alpha, p, q, {}, {}, [0])


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
    """Bind each pair of binders to the next number, in place; return the
    entries they shadow, which ``_alpha_unbind`` puts back."""
    undo = []
    for a, b in zip(names_l, names_r):
        undo += ((envl, a, envl.get(a)), (envr, b, envr.get(b)))
        counter[0] += 1
        envl[a] = envr[b] = counter[0]
    return undo


def _alpha_unbind(undo):
    for env, n, old in reversed(undo):
        if old is None:
            del env[n]
        else:
            env[n] = old


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
    # the scopes a binder opens, each as (left binders, right binders,
    # left body, right body), compared in order
    if isinstance(p, (Input, RepInput)):
        if not _alpha_name(p.subject, q.subject, envl, envr):
            return False
        scopes = (((p.param,), (q.param,), p.body, q.body),)
    elif isinstance(p, Res):
        if p.in_type != q.in_type:
            return False
        scopes = (((p.in_name, p.out_name), (q.in_name, q.out_name),
                   p.body, q.body),)
    elif isinstance(p, LetTuple):
        if len(p.params) != len(q.params):
            return False
        if not _alpha_value(p.scrutinee, q.scrutinee, envl, envr):
            return False
        scopes = ((p.params, q.params, p.body, q.body),)
    elif isinstance(p, Case):
        if not _alpha_value(p.scrutinee, q.scrutinee, envl, envr):
            return False
        scopes = (((p.left_param,), (q.left_param,), p.left_body, q.left_body),
                  ((p.right_param,), (q.right_param,), p.right_body,
                   q.right_body))
    else:
        raise TypeError(f"not a process: {p!r}")
    for names_l, names_r, body_l, body_r in scopes:
        undo = _alpha_bind(names_l, names_r, envl, envr, counter)
        same = _alpha(body_l, body_r, envl, envr, counter)
        _alpha_unbind(undo)
        if not same:
            return False
    return True


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
    text = _print_process(p)
    return f"({text})" if isinstance(p, Par) else text


def print_process(p: Process) -> str:
    """The concrete syntax of ``p``, which :func:`parse_process` reads back.
    Raises ValueError on a process nested too deeply for the recursion
    limit (a left-nested ``|`` chain, as the parser builds, of any width is
    fine)."""
    return _shallow(_print_process, p)


def _print_process(p: Process) -> str:
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
            return f"{head} ({_print_process(p.body)})"
        return f"{head} {_print_prefix(p.body)}"
    if isinstance(p, LetTuple):
        names = ", ".join(str(n) for n in p.params)
        return f"let ({names}) = {print_value(p.scrutinee)} in {_print_prefix(p.body)}"
    if isinstance(p, Case):
        return (f"case {print_value(p.scrutinee)} "
                f"{{ inl {p.left_param} -> {_print_process(p.left_body)} ; "
                f"inr {p.right_param} -> {_print_process(p.right_body)} }}")
    raise TypeError(f"not a process: {p!r}")


# ---------------------------------------------------------------------------
# Token stream / parser
# ---------------------------------------------------------------------------

# One token regex per language: the group ``ws`` is skipped, a ``punct``
# token's kind is its text and any other token's kind is its group name.
_AWPI_TOKENS = re.compile(r"""
    (?P<ws>\s+|\#\#[^\n]*)
  | (?P<arrow>->)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*(\#[0-9]+)?)
  | (?P<zero>0)
  | (?P<punct>[(){}\[\],;:.|!=+*])
""", re.VERBOSE)

KEYWORDS = {"new", "let", "in", "case", "inl", "inr", "unit", "free", "success"}


def _line_col(text, pos):
    """1-based line and column of offset ``pos`` in ``text``."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


class _Tok(NamedTuple):
    kind: str  # group name, punctuation text, or "eof"
    text: str
    pos: int  # offset of the token's first character in the text


# a token is made by tuple.__new__ itself, without the Python frame of the
# named tuple's own __new__, as the lexer makes one per token
_new_tok = tuple.__new__


class TokenStream:
    """The one lexer and cursor of every front end.

    A subclass is one language: it sets ``tokens`` to that language's
    token regex and adds only its grammar methods.  A token is a tuple of
    its kind, text and offset; an error's line and column are worked out
    from the offset only when it is raised, as most texts raise none.  The
    token list ends in two ``eof`` tokens and :meth:`next` never passes
    the first, so :meth:`peek` with ``ahead`` 0 or 1 (no grammar looks
    further) is a plain index.
    """

    tokens: re.Pattern

    def __init__(self, text: str):
        toks = []
        append, scan = toks.append, self.tokens.scanner(text).match
        m = None
        for m in iter(scan, None):
            group = m.lastgroup
            if group != "ws":
                got = m.group()
                append(_new_tok(_Tok, (got if group == "punct" else group,
                                       got, m.start())))
        end = 0 if m is None else m.end()
        if end < len(text):
            raise ParseError(f"unexpected character {text[end]!r}",
                             *_line_col(text, end))
        eof = _Tok("eof", "", len(text))
        toks += (eof, eof)
        self.text, self.toks, self.pos = text, toks, 0

    def peek(self, ahead=0) -> _Tok:
        return self.toks[self.pos + ahead]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind) -> _Tok:
        t = self.toks[self.pos]
        if t.kind != kind:
            self.fail(f"expected {kind!r}, found {t.text or 'end of input'!r}",
                      t)
        self.pos += 1  # not past eof, as no grammar expects it
        return t

    def fail(self, msg, t=None):
        if t is None:
            t = self.peek()
        raise ParseError(msg, *_line_col(self.text, t.pos))

    def whole(self, parse):
        """``parse(self)``, which must read the whole input.  Nesting too
        deep for the recursive grammar is a ParseError at the token
        reached, not a RecursionError."""
        try:
            out = parse(self)
        except RecursionError:
            pass
        else:
            if self.peek().kind != "eof":
                self.fail(f"trailing input {self.peek().text!r}")
            return out
        self.fail("input nested too deeply")


class _Parser(TokenStream):
    tokens = _AWPI_TOKENS

    def __init__(self, text: str, success=()):
        super().__init__(text)
        # map (base, index) -> Name with success kind
        success = [Name(s, kind=SUCCESS) if isinstance(s, str) else s
                   for s in success]
        self.success = {(s.base, s.index): s for s in success}
        # one frame per polyadic input body being read, innermost last:
        # [indices k of the regular names _v#k read or bound in it, the
        # least k not known to be among them].  The bodies' free and bound
        # names, kept on each node as free names are (_frees), would visit
        # each node once but still copy the names and try _v#1, _v#2, ...
        # at every level.
        self.v_frames = [[set(), 1]]

    # -- names ------------------------------------------------------------
    def parse_name(self) -> Name:
        t = self.expect("ident")
        text = t.text
        if text in KEYWORDS:
            self.fail(f"{text!r} is a keyword, not a name", t)
        if "#" in text:
            base, idx = text.split("#")
            nm = Name(base, int(idx))
        else:
            nm = Name(text)
        if self.success:
            nm = self.success.get((nm.base, nm.index), nm)
        if nm.base == "_v" and nm.kind == REGULAR:
            self.v_frames[-1][0].add(nm.index)
        return nm

    def _list(self, item):
        """``item``s separated by commas, up to a closing parenthesis."""
        out = [] if self.peek().kind == ")" else [item()]
        while self.peek().kind == ",":
            self.next()
            out.append(item())
        return out

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

    # -- values -----------------------------------------------------------
    def parse_value(self) -> Value:
        t = self.peek()
        if t.kind == "(":
            self.next()
            items = self._list(self.parse_value)
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
            tt = self.peek()
            in_type = self.parse_vtype()
            self.expect(",")
            out_name = self.parse_name()
            self.expect(")")
            if not (isinstance(in_type, ChanType) and in_type.mode in INPUT_MODES):
                self.fail("restriction annotates the input end: i[T] or li[T]", tt)
            if in_name == out_name:
                self.fail("restriction must bind two distinct names")
            body = self.parse_prefix()
            return Res(in_name, out_name, in_type, body)
        if t.kind == "ident" and t.text == "let":
            self.next()
            self.expect("(")
            params = self._list(self.parse_name)
            self.expect(")")
            if len(params) < 2:
                self.fail("let destructures a tuple: at least two names")
            self.expect("=")
            scrut = self.parse_value()
            tin = self.expect("ident")
            if tin.text != "in":
                self.fail("expected 'in'", tin)
            body = self.parse_prefix()
            return LetTuple(tuple(params), scrut, body)
        if t.kind == "ident" and t.text == "case":
            self.next()
            scrut = self.parse_value()
            self.expect("{")
            kw = self.expect("ident")
            if kw.text != "inl":
                self.fail("expected 'inl'", kw)
            lp = self.parse_name()
            self.expect("arrow")
            lbody = self.parse_proc()
            self.expect(";")
            kw = self.expect("ident")
            if kw.text != "inr":
                self.fail("expected 'inr'", kw)
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
                vals = self._list(self.parse_value)
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
        params = self._list(self.parse_name)
        self.expect(")")
        self.expect(".")
        cls = RepInput if replicated else Input
        if len(params) == 1:
            return cls(subject, params[0], self.parse_prefix())
        # polyadic sugar: receive a tuple (or unit) and destructure it
        self.v_frames.append([set(), 1])
        body = self.parse_prefix()
        tmp = Name("_v", self._close_v_frame(params + [subject]))
        if len(params) == 0:
            return cls(subject, tmp, body)
        return cls(subject, tmp, LetTuple(tuple(params), VName(tmp), body))

    def _close_v_frame(self, outside) -> int:
        """Pop the frame of the input body just read and return the least
        k >= 1 such that ``_v#k`` is neither a name of the body nor one of
        ``outside``, which is what ``fresh_name`` picks against the body's
        free and bound names, without walking the body.  The body's
        indices and k pass to the enclosing frame, the smaller set merged
        into the larger."""
        seen, low = self.v_frames.pop()
        while low in seen:
            low += 1
        taken = {n.index for n in outside if n.base == "_v" and n.kind == REGULAR}
        k = low
        while k in seen or k in taken:
            k += 1
        seen.add(k)
        outer = self.v_frames[-1]
        if len(outer[0]) < len(seen):
            outer[0], seen = seen, outer[0]
        outer[0] |= seen
        outer[1] = max(outer[1], low)
        return k

    def source_file(self) -> "SourceFile":
        env = {}
        success = []
        while self.peek().text in ("free", "success"):
            kw = self.next()
            nm = self.parse_name()
            if kw.text == "free":
                self.expect(":")
                env[nm] = self.parse_vtype()
            else:
                nm = Name(nm.base, nm.index, SUCCESS)
                self.success[(nm.base, nm.index)] = nm
                success.append(nm)
            self.expect(";")
        return SourceFile(env, tuple(success), self.parse_proc())


def parse_process(text: str, success=()) -> Process:
    """Parse a process term.  ``success`` lists names with the success kind."""
    return _Parser(text, success).whole(_Parser.parse_proc)


def parse_value(text: str, success=()) -> Value:
    return _Parser(text, success).whole(_Parser.parse_value)


def parse_vtype(text: str) -> ValueType:
    return _Parser(text).whole(_Parser.parse_vtype)


def parse_name(text: str) -> Name:
    """One name, read by the process grammar's name rule."""
    return _Parser(text).whole(_Parser.parse_name)


@dataclass
class SourceFile:
    """A parsed ``.awpi`` file: declared frees, success names, one process."""

    env: dict  # Name -> ValueType
    success: tuple  # of Name
    process: Process


def parse_file(text: str) -> SourceFile:
    """Parse header lines (``free a : T;`` / ``success ok;``) then a process."""
    return _Parser(text).whole(_Parser.source_file)


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------

@_node
class CanonicalForm:
    """A structurally normalized process and its identity key, the
    certificate :func:`canonicalize` computed for it.  The key is no
    process text: print ``process`` with :func:`print_process` to read
    it."""

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


def _pair_labels(order, d, env):
    """``env`` plus de Bruijn levels ``%d``, ``%d+1``, ... for ``order``."""
    out = dict(env)
    for r, (a, b, _) in enumerate(order):
        out[a], out[b] = f"%{d + 2 * r}", f"%{d + 2 * r + 1}"
    return out


def _renamed(n, names):
    """``n`` under ``names``, a map from names to ``VName`` values."""
    got = names.get(n)
    return n if got is None else got.name


def _hide(names, binders):
    if any(b in names for b in binders):
        return {n: v for n, v in names.items() if n not in binders}
    return names


_NIL_ENTRY = ("0", None)


class _Canon:
    """The tables of one :func:`canonicalize` call, both keyed by ``id``.

    A call walks its input twice, making no normalized copy: :meth:`render`
    certifies it, and the certificate is the key; :meth:`build` makes the
    canonical process as the certificate plans, and prints nothing.  Free
    names are read from the nodes, which keep them (:func:`_frees`).
    ``parts`` maps ``id(level)`` of each ``|`` or ``new`` node of the input
    that a walk reaches to ``(level, pairs, atoms)``, as :meth:`_flat`
    flattens it then.  ``memo`` maps ``(id(node), depth, shape, labels of
    the node's free names)`` to ``(node, entry)``, where the entry is
    ``(certificate, plan)``; only a pair search renders a node again, so
    it is used only while :meth:`_search` runs.  Each table holds its
    nodes, so no id in it is reused while the call runs.

    A plan is the certificate's decisions, kept beside it so that
    :meth:`build` only follows them: an input's or a let's plan is its
    body's entry, a case's is both branches' entries, and a level's is one
    ``(pair order, atoms, their entries)`` per component, components and
    atoms in certificate order.  So the build walks each node of the
    result once, and looks up no memo key and numbers no pair again.
    """

    def __init__(self):
        self.parts = {}
        self.memo = {}
        self.searching = 0

    # -- levels -----------------------------------------------------------

    def _flat(self, p):
        """``(p, pairs, atoms)`` for a ``|`` or ``new`` node ``p``: one
        restriction chain over a flat ``|`` of atoms (inputs, outputs, lets
        and cases) in source order.  A chain whose pairs repeat a name is
        merged one scope at a time, so that no level binds a name twice.  A
        level of no pair and at most one atom stands for that atom or nil."""
        got = self.parts.get(id(p))
        if got is None:
            pairs, core = _split_chain(p)
            if len({n for a, b, _ in pairs for n in (a, b)}) < 2 * len(pairs):
                got = p, *self._merge(pairs[:1], [p.body])
            else:
                got = p, *self._merge(pairs, _par_list(core))
            self.parts[id(p)] = got
        return got

    def _merge(self, pairs, comps):
        """``(pairs, atoms)`` of components under one restriction chain,
        with capture avoidance; a pair no atom uses is dropped (scope
        extrusion and the nil axioms derive this).  A ``|`` or ``new``
        component is flattened first.  An atom that uses a renamed pair is
        renamed with :func:`rename_free`; its own levels flatten when a
        walk reaches them."""
        pairs, atoms, taken = list(pairs), [], None
        for c in comps:
            if isinstance(c, (Par, Res)):
                _, cpairs, catoms = self._flat(c)
            else:
                cpairs, catoms = (), () if isinstance(c, Nil) else (c,)
            if not cpairs:
                atoms += catoms
                continue
            if taken is None:
                taken = set().union(*map(_frees, comps), *[pair[:2] for pair in pairs])
            renames = {}
            for a, b, t in cpairs:
                for n in (a, b):
                    if n in taken:
                        renames[n] = fresh_name(n, taken)
                    taken.add(renames.get(n, n))
                pairs.append((renames.get(a, a), renames.get(b, b), t))
            for atom in catoms:
                if renames and not renames.keys().isdisjoint(_frees(atom)):
                    atom = rename_free(atom, renames)
                atoms.append(atom)
        if pairs:
            used = set().union(*map(_frees, atoms))
            pairs = [(a, b, t) for a, b, t in pairs if a in used or b in used]
        return pairs, atoms

    # -- certificates -----------------------------------------------------

    def render(self, p, d, env, shape):
        """Entry ``(certificate, plan)`` of ``p`` with binder depth ``d``.

        Names in ``env`` print as their labels and other free names as
        themselves; binders inside ``p`` print as their de Bruijn level
        ``%k``, bound in ``env`` in place while their scope is rendered.
        A level's restriction pairs are numbered by :meth:`_search`, or,
        when ``shape`` is set, print as typed slots, which gives an
        invariant of ``p`` without any search.  The plan is what
        :meth:`build` follows: for an input or a let the body's entry, for
        a case both branches' entries, and for a level one ``(pair order,
        atoms, their entries)`` per component, atoms and components in
        certificate order.
        """
        if isinstance(p, (Par, Res)):
            _, pairs, atoms = self._flat(p)
            if not pairs and len(atoms) < 2:
                p = atoms[0] if atoms else NIL
        if isinstance(p, Output):
            return (f"{env.get(p.subject) or str(p.subject)}"
                    f"!({_render_value(p.payload, env)})", None)
        if isinstance(p, Nil):
            return _NIL_ENTRY
        key = None
        if self.searching:
            key = (id(p), d, shape, tuple(map(env.get, _frees(p))))
            got = self.memo.get(key)
            if got is not None:
                return got[1]
        if isinstance(p, (Input, RepInput)):
            x = f"%{d}"
            head = (f"{'!' if isinstance(p, RepInput) else ''}"
                    f"{env.get(p.subject) or str(p.subject)}({x})")
            old = _bind(env, p.param, x)
            plan = self.render(p.body, d + 1, env, shape)
            _unbind(env, p.param, old)
            s = f"{head}.({plan[0]})"
        elif isinstance(p, LetTuple):
            xs = [f"%{d + i}" for i in range(len(p.params))]
            head = f"let({','.join(xs)})={_render_value(p.scrutinee, env)}"
            olds = _bind_all(env, p.params, xs)
            plan = self.render(p.body, d + len(xs), env, shape)
            _unbind_all(env, p.params, olds)
            s = f"{head} in ({plan[0]})"
        elif isinstance(p, Case):
            x = f"%{d}"
            old = _bind(env, p.left_param, x)
            left = self.render(p.left_body, d + 1, env, shape)
            _unbind(env, p.left_param, old)
            old = _bind(env, p.right_param, x)
            right = self.render(p.right_body, d + 1, env, shape)
            _unbind(env, p.right_param, old)
            plan = (left, right)
            s = (f"case {_render_value(p.scrutinee, env)}"
                 f"{{inl {x}->({left[0]});inr {x}->({right[0]})}}")
        else:
            s, plan = self._level(pairs, atoms, d, env, shape)
        got = s, plan
        if key is not None:
            self.memo[key] = p, got
        return got

    def _level(self, pairs, atoms, d, env, shape):
        """Entry of a restriction chain over ``|``: its connected components
        (atoms linked by the pairs they use) in certificate order,
        components with pairs first."""
        if shape:
            slots = dict(env)
            for a, b, t in pairs:
                slots[a], slots[b] = f"?i:{t}", f"?o:{t}"
            return "|".join(sorted([self.render(x, d, slots, True)[0]
                                    for x in atoms])), None
        comps = []
        for cpairs, catoms in self._components(pairs, atoms):
            if cpairs:
                cert, plan = self._search(cpairs, catoms, d, env)
            else:
                entry = self.render(catoms[0], d, env, False)
                cert, plan = entry[0], ((), catoms, (entry,))
            comps.append((not cpairs, cert, plan))
        comps.sort(key=lambda c: c[:2])
        return "|".join([c[1] for c in comps]), [c[2] for c in comps]

    @staticmethod
    def _components(pairs, atoms):
        """Connected components of a level: ``(pairs, atoms)`` groups."""
        if not pairs:
            return [([], [x]) for x in atoms]
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
            ks = list(map(owner.__getitem__, _frees(x) & owner.keys()))
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
        """Entry of a component whose pairs are numbered in ``order``: its
        certificate and the plan ``(order, atoms, their entries)``, atoms
        in certificate order."""
        labels = _pair_labels(order, d, env)
        ad = d + 2 * len(order)
        entries = [self.render(x, ad, labels, False) for x in atoms]
        certs = [e[0] for e in entries]
        idx = sorted(range(len(atoms)), key=certs.__getitem__)
        head = "".join([f"new({labels[a]}:{t},{labels[b]})"
                        for a, b, t in order])
        return (f"{head}({'|'.join([certs[i] for i in idx])})",
                (order, [atoms[i] for i in idx], [entries[i] for i in idx]))

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
            if not names.keys() & _frees(q):
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
            elif isinstance(q, (Res, Par)):
                _, pairs, atoms = self._flat(q)
                inner = _hide(names, [n for a, b, _ in pairs for n in (a, b)])
                for c in atoms:
                    walk(c, depth, inner)
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
        """Entry of a component (see :meth:`_leaf`) under the canonical
        order of its pairs.

        Pairs start coloured by type and atoms by their shape; colour
        refinement splits them by the colours of what they use and are
        used by.  While a cell of pairs is tied, each member in turn is
        individualized and refined; a member is skipped when aligning its
        refined colouring with an explored sibling's gives an automorphism
        (checked on atom certificates) that fixes the earlier choices and
        maps the sibling to it.  The leaf with the least certificate wins.
        """
        m = len(pairs)
        types = _ranks([str(t) for _, _, t in pairs])
        if len(set(types)) == m:
            return self._leaf([pairs[k] for k in sorted(range(m),
                                                        key=types.__getitem__)],
                              atoms, d, env)
        self.searching += 1
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
            return (sorted(self.render(atoms[a], ad, base, False)[0]
                           for a in touched)
                    == sorted(self.render(atoms[a], ad, moved, False)[0]
                              for a in touched))

        best = []

        def visit(pc, ac, fixed):
            split = cells(pc)
            if len(split) == m:
                order = [pairs[k] for k in sorted(range(m), key=pc.__getitem__)]
                leaf = self._leaf(order, atoms, d, env)
                if not best or leaf[0] < best[0][0]:
                    best[:] = [leaf]
                return
            _, c = min((len(v), c) for c, v in split.items() if len(v) > 1)
            explored = []
            for j in split[c]:
                pj, aj = refine([2 * x + (k != j) for k, x in enumerate(pc)], ac)
                if any(maps_onto(pi, pj, i, j, fixed) for i, pi in explored):
                    continue
                explored.append((j, pj))
                visit(pj, aj, fixed + [j])

        shapes = _ranks([self.render(x, ad, slots, True)[0] for x in atoms])
        visit(*refine(types, shapes), [])
        self.searching -= 1
        return best[0]

    # -- the canonical process --------------------------------------------

    def build(self, p, entry, names, alloc):
        """``p`` rebuilt as its render ``entry`` plans it, with binders
        renamed ``_#k`` in the order it meets them, a level's pairs before
        its atoms.  ``names`` maps the names
        bound above ``p`` to their new names as ``VName`` values; a binder
        is bound in it in place while its scope is built.  ``alloc``
        yields the new names, ``_#k`` with k counting up."""
        if isinstance(p, (Par, Res)):
            _, pairs, atoms = self.parts[id(p)]
            if not pairs and len(atoms) < 2:
                p = atoms[0] if atoms else NIL
        if isinstance(p, Nil):
            return p
        if isinstance(p, Output):
            return Output(_renamed(p.subject, names),
                          substitute_value(p.payload, names))
        plan = entry[1]
        if isinstance(p, (Input, RepInput)):
            x = next(alloc)
            subject = _renamed(p.subject, names)
            old = _bind(names, p.param, VName(x))
            body = self.build(p.body, plan, names, alloc)
            _unbind(names, p.param, old)
            return type(p)(subject, x, body)
        if isinstance(p, LetTuple):
            xs = [next(alloc) for _ in p.params]
            scrut = substitute_value(p.scrutinee, names)
            olds = _bind_all(names, p.params, [VName(x) for x in xs])
            body = self.build(p.body, plan, names, alloc)
            _unbind_all(names, p.params, olds)
            return LetTuple(tuple(xs), scrut, body)
        if isinstance(p, Case):
            scrut = substitute_value(p.scrutinee, names)
            x = next(alloc)
            old = _bind(names, p.left_param, VName(x))
            left = self.build(p.left_body, plan[0], names, alloc)
            _unbind(names, p.left_param, old)
            y = next(alloc)
            old = _bind(names, p.right_param, VName(y))
            right = self.build(p.right_body, plan[1], names, alloc)
            _unbind(names, p.right_param, old)
            return Case(scrut, x, left, y, right)
        # a level: every pair is named before any atom, as the certificate
        # numbers them; no atom uses a pair of another component, so all
        # are bound at once
        pairs, ends, news = [], [], []
        for order, _, _ in plan:
            for a, b, t in order:
                x, y = next(alloc), next(alloc)
                ends += (a, b)
                news += (VName(x), VName(y))
                pairs.append((x, y, t))
        olds = _bind_all(names, ends, news)
        built = [self.build(x, e, names, alloc)
                 for _, atoms, entries in plan for x, e in zip(atoms, entries)]
        _unbind_all(names, ends, olds)
        return _chain(pairs, _par(built))


def canonicalize(p: Process) -> CanonicalForm:
    """Normal form for structural congruence.

    Every level (the top, an input or let body, a case branch) becomes one
    restriction chain over a flat ``|`` of atoms, with no nil component
    and no unused pair.  The level's connected components (atoms linked by
    the pairs they use) come in certificate order, components with pairs
    first; within a component the pairs are numbered by colour refinement
    and individualization, keeping the least certificate, and the atoms
    follow in certificate order.  Bound names become ``_#k`` in that
    order, a level's pairs before its atoms, above the index of any free
    name with base ``_``.

    The key is the certificate of the least leaf, as in canonical labelling
    (McKay & Piperno, "Practical graph isomorphism, II", JSC 2014): the
    search makes it equal for congruent processes.  Only they get equal
    keys.  The certificate spells out every node of the normal form:
    inputs, replication, outputs, lets and cases in their own syntax, each
    restriction pair with its type, and every free name by its text (its
    kind, which a file header fixes for every occurrence, is not printed).
    Binders print as de Bruijn levels ``%k`` where they bind, and every
    body, branch and chain's scope is enclosed in balanced parentheses, so
    the text reads back as one normal form, up to the names of its
    binders.  Equal keys thus stand for one normal form, to which both
    processes are congruent.  A test independent of this function checks
    it over every process of size at most 7
    (``test_canonicalize_sound_exhaustive``).

    Two walks: one certifies the input, flattening each level where it
    first reaches it (a node is certified again, from a memo, only under a
    pair search), and one builds the result, whose root keeps the input's
    free names.  Raises ValueError on a process nested too deeply for the
    recursion limit (a ``|`` chain of any width is fine).
    """
    return _shallow(_canonicalize, p)


def _canonicalize(p: Process) -> CanonicalForm:
    c = _Canon()
    names = _frees(p)
    start = max((n.index + 1 for n in names
                 if n.base == "_" and n.kind == REGULAR), default=0)
    alloc = map(Name, repeat("_"), count(start))
    entry = c.render(p, 0, {}, False)
    q = c.build(p, entry, {}, alloc)
    _keep_names(q, names)  # the canonical form has the input's free names
    return CanonicalForm(q, entry[0])


def _level(p: Process) -> tuple:
    """``(pairs, atoms)``: ``p``'s top level as one chain over its atoms,
    in order, names that clash renamed apart (:meth:`_Canon._flat`)."""
    if not isinstance(p, (Par, Res)):
        return [], [] if isinstance(p, Nil) else [p]
    return _Canon()._flat(p)[1:]


def _fragments(p: Process) -> list:
    """The connected components of ``p``'s top level, each pair pushed to
    its smallest scope: pair-free atoms, and chains over the atoms that
    their pairs connect.  No nil."""
    return [_chain(cpairs, _par(catoms))
            for cpairs, catoms in _Canon._components(*_level(p))]


def canonical_process(p: Process) -> Process:
    return canonicalize(p).process


def congruent(p: Process, q: Process) -> bool:
    """Structural congruence, decided via the canonical form."""
    return canonicalize(p).key == canonicalize(q).key

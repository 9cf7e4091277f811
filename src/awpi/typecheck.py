"""Affine type checker enforcing I/O separation and the 1-input property.

Channel types come in four modes: ``i``/``o`` are nonlinear input and output
ends, ``li``/``lo`` their affine (use at most once) variants.  Every type is
discardable, so unused bindings are always allowed; only base values and
output capabilities are copyable, so a shared name on both sides of a
multiplicative split must be an output or base type.  Input names are the
interesting case: they are discardable but never copyable, which is exactly
the 1-input property.

The checker is algorithmic: it walks the term top-down with a lexically
scoped environment and validates each multiplicative split (parallel
composition, output payloads, destructor scrutinees) by requiring the shared
free names to be copyable.  The free names of the subterms it compares are
the ones each node keeps (``syntax._frees``), so each subterm is walked
once in its life, not once per ancestor.  The environment is one dict per
call, where a binder is bound in place while its scope is checked, and the
path to the node checked is one stack, read only when an error is
reported; so no level copies either, and a deep chain of binders is
checked in linear time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .syntax import (
    Case, ChanType, INPUT_MODES, Input, LetTuple, Name, Nil, OUTPUT_MODES,
    Output, Par, Process, RepInput, Res, SUCCESS, SumType, TupleType, UNIT,
    UnitType, VInl, VInr, VName, VTuple, VUnit, Value, ValueType, _bind,
    _bind_all, _frees, _node, _par_list, _shallow, _unbind, _unbind_all,
    _value_counts, value_names,
)


@_node
class AnyType(ValueType):
    """Wildcard for the component of an injection no annotation determines.

    ``inl v`` synthesizes ``T + ?`` and the dead branch of a case on it binds
    its parameter at ``?``; matching and classification treat it as the most
    permissive type, so the live parts of the term still get full checking.
    """

    def __str__(self):
        return "?"


ANY = AnyType()


def dual(t: ChanType) -> ChanType:
    swap = {"i": "o", "o": "i", "li": "lo", "lo": "li"}
    return ChanType(swap[t.mode], t.payload)


def is_discardable(t: ValueType) -> bool:
    if isinstance(t, (UnitType, ChanType, AnyType)):
        return True
    if isinstance(t, TupleType):
        return all(is_discardable(i) for i in t.items)
    if isinstance(t, SumType):
        return is_discardable(t.left) and is_discardable(t.right)
    raise TypeError(f"not a value type: {t!r}")


def is_copyable(t: ValueType) -> bool:
    if isinstance(t, (UnitType, AnyType)):
        return True
    if isinstance(t, ChanType):
        return t.mode == "o"
    if isinstance(t, TupleType):
        return all(is_copyable(i) for i in t.items)
    if isinstance(t, SumType):
        return is_copyable(t.left) and is_copyable(t.right)
    raise TypeError(f"not a value type: {t!r}")


def classify(t: ValueType) -> dict:
    return {"discardable": is_discardable(t), "copyable": is_copyable(t)}


def types_match(t1: ValueType, t2: ValueType) -> bool:
    """Structural equality with the wildcard matching anything."""
    if isinstance(t1, AnyType) or isinstance(t2, AnyType):
        return True
    if isinstance(t1, UnitType) and isinstance(t2, UnitType):
        return True
    if isinstance(t1, ChanType) and isinstance(t2, ChanType):
        return t1.mode == t2.mode and types_match(t1.payload, t2.payload)
    if isinstance(t1, TupleType) and isinstance(t2, TupleType):
        return (len(t1.items) == len(t2.items)
                and all(types_match(a, b) for a, b in zip(t1.items, t2.items)))
    if isinstance(t1, SumType) and isinstance(t2, SumType):
        return types_match(t1.left, t2.left) and types_match(t1.right, t2.right)
    return False


class TypingError(Exception):
    def __init__(self, rule: str, path, msg: str):
        # the checker passes its path stack, copied here, once, on error
        path = tuple(path)
        super().__init__(f"[{rule}] at {'/'.join(path) or '<root>'}: {msg}")
        self.rule = rule
        self.path = path
        self.msg = msg


class EnvCombineError(Exception):
    def __init__(self, kind: str, name: Name, msg: str):
        super().__init__(f"{kind}({name}): {msg}")
        self.kind = kind
        self.name = name
        self.msg = msg


def combine_env(env1: dict, env2: dict) -> dict:
    """Pointwise environment combination; shared names must agree and copy."""
    out = dict(env1)
    for n, t in env2.items():
        if n not in out:
            out[n] = t
            continue
        t1 = out[n]
        if not types_match(t1, t):
            raise EnvCombineError("TypeMismatch", n,
                                  f"{n} bound at both {t1} and {t}")
        if is_copyable(t1):
            continue
        if isinstance(t1, ChanType) and t1.mode == "i":
            raise EnvCombineError(
                "SharedInput", n,
                f"input name {n} may be owned by at most one component")
        raise EnvCombineError("SharedLinear", n,
                              f"{n} has affine type {t1} and cannot be shared")
    return out


# ---------------------------------------------------------------------------
# Value typing
# ---------------------------------------------------------------------------

def _synth_value(env: dict, v: Value, path: tuple, rule: str) -> ValueType:
    if isinstance(v, VUnit):
        return UNIT
    if isinstance(v, VName):
        if v.name not in env:
            raise TypingError(rule, path, f"unbound name {v.name}")
        return env[v.name]
    if isinstance(v, VTuple):
        return TupleType(tuple(_synth_value(env, i, path, rule) for i in v.items))
    if isinstance(v, VInl):
        return SumType(_synth_value(env, v.value, path, rule), ANY)
    if isinstance(v, VInr):
        return SumType(ANY, _synth_value(env, v.value, path, rule))
    raise TypeError(f"not a value: {v!r}")


def typecheck_value(env: dict, v: Value, path: tuple = (), rule: str = "Val") -> ValueType:
    """Synthesize the type of ``v`` under ``env``.

    Raises TypingError for unbound names or a non-copyable name used more
    than once inside the value (the Tup rule's environment combination).
    """
    counts = {}
    _value_counts(v, counts)
    for n, k in counts.items():
        if k > 1 and n in env and not is_copyable(env[n]):
            kind = ("OneInputViolation"
                    if isinstance(env[n], ChanType) and env[n].mode == "i"
                    else "LinearReuse")
            raise TypingError(kind, path,
                              f"{n} used {k} times inside one value")
    return _synth_value(env, v, path, rule)


# ---------------------------------------------------------------------------
# Process typing
# ---------------------------------------------------------------------------

@dataclass
class TypeVerdict:
    ok: bool
    errors: list = field(default_factory=list)  # of TypingError

    def __bool__(self):
        return self.ok


def _shared_ok(env, shared, path, rule):
    """Names free on two sides of a multiplicative split must be copyable."""
    for n in sorted(shared):
        t = env.get(n)
        if t is None or is_copyable(t):
            continue
        if isinstance(t, ChanType) and t.mode == "i":
            raise TypingError("OneInputViolation", path,
                              f"input name {n} is used by both sides of {rule}")
        raise TypingError("LinearReuse", path,
                          f"{n} : {t} is affine but used by both sides of {rule}")


def _check_success_binder(names, path, rule):
    for n in names:
        if n.kind == SUCCESS:
            raise TypingError("Success", path,
                              f"success name {n} cannot be bound by {rule}")


def _subject_type(env, subject, path, rule, want_mode):
    if subject.kind == SUCCESS:
        return ChanType("o", UNIT)
    t = env.get(subject)
    if t is None:
        raise TypingError(rule, path, f"unbound name {subject}")
    if isinstance(t, AnyType):
        # dead-branch parameter: any channel type could be chosen for it
        return ChanType(want_mode, ANY)
    if not isinstance(t, ChanType):
        raise TypingError(rule, path, f"{subject} : {t} is not a channel")
    return t


def _check(env: dict, p: Process, path: list):
    """Check ``p`` under ``env``.  A binder is bound in ``env`` in place
    while its body is checked, and ``path`` is the stack of steps from the
    root, pushed and popped in place, so that neither is copied per level;
    on an error neither is restored, as the call is over."""
    if isinstance(p, Nil):
        return
    if isinstance(p, Par):
        # one | level as a list: a wide | costs one pass, no recursion
        comps = _par_list(p)
        seen, shared = set(), set()
        for c in comps:
            names = _frees(c)
            shared |= seen & names
            seen |= names
        _shared_ok(env, shared, path, "Par")
        for i, c in enumerate(comps):
            path.append(f"par{i}")
            _check(env, c, path)
            path.pop()
        return
    if isinstance(p, Output):
        t = _subject_type(env, p.subject, path, "Out", "o")
        if t.mode not in OUTPUT_MODES:
            raise TypingError("Out", path,
                              f"output at {p.subject} : {t}; subject must be an O-name")
        payload_frees = value_names(p.payload)
        if p.subject in payload_frees and not is_copyable(t):
            raise TypingError("LinearReuse", path,
                              f"{p.subject} occurs in its own payload")
        got = typecheck_value(env, p.payload, path, "Out")
        if not types_match(got, t.payload):
            raise TypingError("Out", path,
                              f"payload of {p.subject} has type {got}, expected {t.payload}")
        return
    if isinstance(p, (Input, RepInput)):
        rep = isinstance(p, RepInput)
        rule = "RIn" if rep else "In"
        t = _subject_type(env, p.subject, path, rule, "i")
        if p.subject.kind == SUCCESS:
            raise TypingError("Success", path,
                              f"success name {p.subject} cannot be an input subject")
        if rep and t.mode == "li":
            raise TypingError("RIn", path,
                              f"replicated input needs a nonlinear subject; {p.subject} : {t}")
        if t.mode not in INPUT_MODES:
            raise TypingError(rule, path,
                              f"input at {p.subject} : {t}; subject must be an I-name")
        _check_success_binder((p.param,), path, rule)
        owned = None  # an affine subject, which the body does not own
        if rep:
            for n in sorted(_frees(p.body) - {p.param}):
                rt = env.get(n)
                if rt is None or is_copyable(rt):
                    continue  # an unbound name is reported where it is used
                if isinstance(rt, ChanType) and rt.mode == "i":
                    raise TypingError(
                        "InputUnderReplication", path,
                        f"input name {n} is not copyable and cannot occur under replication")
                raise TypingError(
                    "LinearUnderReplication", path,
                    f"{n} : {rt} is affine and cannot occur under replication")
        elif t.mode == "li":
            owned = env.pop(p.subject)
            if p.subject in _frees(p.body) and p.param != p.subject:
                raise TypingError(
                    "LinearReuse", path,
                    f"affine input name {p.subject} reused in its own body")
        old = _bind(env, p.param, t.payload)
        path.append("body")
        _check(env, p.body, path)
        path.pop()
        _unbind(env, p.param, old)
        if owned is not None:
            env[p.subject] = owned
        return
    if isinstance(p, Res):
        _check_success_binder((p.in_name, p.out_name), path, "Res")
        if p.in_type.mode not in INPUT_MODES:
            raise TypingError("Res", path,
                              "restriction annotates the input end (i or li)")
        ends = (p.in_name, p.out_name)
        olds = _bind_all(env, ends, (p.in_type, dual(p.in_type)))
        path.append("body")
        _check(env, p.body, path)
        path.pop()
        _unbind_all(env, ends, olds)
        return
    if isinstance(p, LetTuple):
        _check_success_binder(p.params, path, "With")
        body_frees = _frees(p.body) - set(p.params)
        _shared_ok(env, value_names(p.scrutinee) & body_frees, path, "With")
        st = typecheck_value(env, p.scrutinee, path, "With")
        if isinstance(st, AnyType):
            comp = tuple(ANY for _ in p.params)
        elif isinstance(st, TupleType) and len(st.items) == len(p.params):
            comp = st.items
        else:
            raise TypingError("With", path,
                              f"let destructures {len(p.params)} components "
                              f"but the scrutinee has type {st}")
        olds = _bind_all(env, p.params, comp)
        path.append("body")
        _check(env, p.body, path)
        path.pop()
        _unbind_all(env, p.params, olds)
        return
    if isinstance(p, Case):
        _check_success_binder((p.left_param, p.right_param), path, "Case")
        branch_frees = ((_frees(p.left_body) - {p.left_param})
                        | (_frees(p.right_body) - {p.right_param}))
        _shared_ok(env, value_names(p.scrutinee) & branch_frees, path, "Case")
        st = typecheck_value(env, p.scrutinee, path, "Case")
        if isinstance(st, AnyType):
            lt = rt = ANY
        elif isinstance(st, SumType):
            lt, rt = st.left, st.right
        else:
            raise TypingError("Case", path,
                              f"case on a non-sum value of type {st}")
        for step, x, tx, body in (("left_body", p.left_param, lt, p.left_body),
                                  ("right_body", p.right_param, rt,
                                   p.right_body)):
            old = _bind(env, x, tx)
            path.append(step)
            _check(env, body, path)
            path.pop()
            _unbind(env, x, old)
        return
    raise TypeError(f"not a process: {p!r}")


def typecheck(env: dict, p: Process) -> TypeVerdict:
    """Check ``p`` under ``env`` (success names are implicitly o[unit]).

    The checks run top down, in the order that fixes the first error
    reported; the free names they read are kept on the nodes, found the
    first time a subterm is asked about.
    """
    try:
        _shallow(_check, dict(env), p, [])
    except TypingError as e:
        return TypeVerdict(False, [e])
    return TypeVerdict(True, [])

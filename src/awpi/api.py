"""The ordinary asynchronous pi-calculus: the target of erasure.

Restriction binds a single name and the same name may occur in input and
output position; there is no connection set.  The transition system here
is written directly from the standard early rules (com and close fire on
a shared subject) so it can serve as an independent reference when
checking that erasure preserves and reflects transitions.  It must not be
defined via the connection-set machinery.

From :mod:`syntax` it takes names, values, ``_node``, the ``_shallow``
depth guard and the ``_bind``/``_unbind`` environment steps, none of which
has semantics; it shares no walk over a process.  Nodes are immutable, so
each keeps its free names once they are found (see :func:`_frees`), as a
``str`` keeps its hash.
"""

from __future__ import annotations

from .syntax import (
    Name, SUCCESS, Value, VName, VTuple, VInl, VInr, VUNIT, _bind, _node,
    _shallow, _unbind, fresh_name, print_value, substitute_value, value_names,
)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Process:
    # the free names, once :func:`_frees` has found them; a class default,
    # not a field, so equality, hash, repr and ``fields`` do not see them
    _names = None


@_node
class Nil(Process):
    pass


@_node
class Par(Process):
    left: Process
    right: Process


@_node
class Input(Process):
    subject: Name
    param: Name
    body: Process


@_node
class RepInput(Process):
    subject: Name
    param: Name
    body: Process


@_node
class Output(Process):
    subject: Name
    payload: Value


@_node
class Res(Process):
    name: Name
    body: Process


@_node
class LetTuple(Process):
    params: tuple
    scrutinee: Value
    body: Process


@_node
class Case(Process):
    scrutinee: Value
    left_param: Name
    left_body: Process
    right_param: Name
    right_body: Process


NIL = Nil()


def free_names(p: Process) -> frozenset:
    return _shallow(_frees, p)


def _frees(p: Process) -> frozenset:
    """The free names of ``p``.  They are kept on the node the first time
    they are found, so a subterm that many states share, or that a walk
    asks about again, as :func:`substitute` and :func:`lts_step` do, is
    walked once in its life.  The names live and die with the node."""
    out = p._names
    if out is not None:
        return out
    if isinstance(p, Par):
        # walk the | tree in a loop, down to the nodes that have their
        # names, so that a wide composition cannot exhaust the recursion
        # limit; only p keeps its names, as a set for each inner | would
        # make a wide one quadratic
        names, todo = set(), [p]
        while todo:
            q = todo.pop()
            if isinstance(q, Par) and q._names is None:
                todo += (q.left, q.right)
            else:
                names |= _frees(q)
        out = frozenset(names)
    elif isinstance(p, Nil):
        out = frozenset()
    elif isinstance(p, Output):
        out = frozenset((p.subject,)) | value_names(p.payload)
    elif isinstance(p, (Input, RepInput)):
        out = frozenset((p.subject,)) | (_frees(p.body) - {p.param})
    elif isinstance(p, Res):
        out = _frees(p.body) - {p.name}
    elif isinstance(p, LetTuple):
        out = value_names(p.scrutinee) | (_frees(p.body) - set(p.params))
    elif isinstance(p, Case):
        out = (value_names(p.scrutinee)
               | (_frees(p.left_body) - {p.left_param})
               | (_frees(p.right_body) - {p.right_param}))
    else:
        raise TypeError(f"not a process: {p!r}")
    object.__setattr__(p, "_names", out)
    return out


def substitute(p: Process, mapping) -> Process:
    """Capture-avoiding substitution of values for free names.  The free
    names kept on each node (see :func:`_frees`) guard every subterm and
    serve every refresh, so a subterm's names are found once, not once
    per binder above it."""
    mapping = {k: v for k, v in mapping.items() if v != VName(k)}
    return _shallow(_guarded, p, mapping)


def _guarded(p: Process, mapping) -> Process:
    """``p`` itself when ``mapping`` touches none of its free names, else
    ``p`` with ``mapping`` applied."""
    if not mapping or mapping.keys().isdisjoint(_frees(p)):
        return p
    return _subst(p, mapping)


def _subst_subject(n: Name, mapping) -> Name:
    v = mapping.get(n)
    if v is None:
        return n
    if isinstance(v, VName):
        return v.name
    raise ValueError(f"cannot use non-name value as subject for {n}")


def _scope(binders, mapping, body):
    """One binder level: (binders, body, mapping) as they stand under it.
    The entries the binders shadow are dropped from ``mapping``, and a
    binder that clashes with a name ``mapping`` brings in is renamed apart
    in ``body``.  The caller applies the inner mapping to the body, so a
    level costs two stack frames, :func:`_subst` and :func:`_guarded`."""
    live = {k: v for k, v in mapping.items() if k not in binders}
    incoming = set()
    for v in live.values():
        incoming |= value_names(v)
    if incoming.isdisjoint(binders):
        return binders, body, live
    taken = incoming | set(binders) | _frees(body)
    renames = {}
    for b in binders:
        if b in incoming:
            renames[b] = VName(fresh_name(b, taken))
            taken.add(renames[b].name)
    return (tuple(renames[b].name if b in renames else b for b in binders),
            _guarded(body, renames), live)


def _subst(p: Process, mapping) -> Process:
    if isinstance(p, Nil):
        return p
    if isinstance(p, Par):
        # walk the left | spine in a loop, keeping its left-nested shape
        rights = []
        while isinstance(p, Par):
            rights.append(p.right)
            p = p.left
        out = _guarded(p, mapping)
        for r in reversed(rights):
            out = Par(out, _guarded(r, mapping))
        return out
    if isinstance(p, Output):
        return Output(_subst_subject(p.subject, mapping),
                      substitute_value(p.payload, mapping))
    if isinstance(p, (Input, RepInput)):
        subj = _subst_subject(p.subject, mapping)
        (x,), body, live = _scope((p.param,), mapping, p.body)
        return type(p)(subj, x, _guarded(body, live))
    if isinstance(p, Res):
        (x,), body, live = _scope((p.name,), mapping, p.body)
        return Res(x, _guarded(body, live))
    if isinstance(p, LetTuple):
        scrut = substitute_value(p.scrutinee, mapping)
        xs, body, live = _scope(p.params, mapping, p.body)
        return LetTuple(xs, scrut, _guarded(body, live))
    if isinstance(p, Case):
        scrut = substitute_value(p.scrutinee, mapping)
        (x,), lb, livel = _scope((p.left_param,), mapping, p.left_body)
        (y,), rb, liver = _scope((p.right_param,), mapping, p.right_body)
        return Case(scrut, x, _guarded(lb, livel), y, _guarded(rb, liver))
    raise TypeError(f"not a process: {p!r}")


def rename_free(p: Process, renames) -> Process:
    return substitute(p, {k: VName(v) for k, v in renames.items()})


def print_process(p: Process) -> str:
    return _shallow(_print, p)


def _print(p: Process) -> str:
    # walk the left | spine in a loop, so that a wide composition cannot
    # exhaust the recursion limit; a right operand that is a | prints in
    # parentheses
    rights = []
    while isinstance(p, Par):
        rights.append(p.right)
        p = p.left
    return " | ".join([_atom(p)] + [_atom(r) for r in reversed(rights)])


def _atom(p: Process) -> str:
    if isinstance(p, Nil):
        return "0"
    if isinstance(p, Par):
        return f"({_print(p)})"
    if isinstance(p, Input):
        return f"{p.subject}({p.param}).{_atom(p.body)}"
    if isinstance(p, RepInput):
        return f"!{p.subject}({p.param}).{_atom(p.body)}"
    if isinstance(p, Output):
        inner = "" if p.payload == VUNIT else print_value(p.payload)
        return f"{p.subject}!({inner})"
    if isinstance(p, Res):
        return f"new({p.name}) {_atom(p.body)}"
    if isinstance(p, LetTuple):
        ps = ", ".join(str(x) for x in p.params)
        return f"let ({ps}) = {print_value(p.scrutinee)} in {_atom(p.body)}"
    if isinstance(p, Case):
        return (f"case {print_value(p.scrutinee)} {{ "
                f"inl {p.left_param} -> {_print(p.left_body)}; "
                f"inr {p.right_param} -> {_print(p.right_body)} }}")
    raise TypeError(f"not a process: {p!r}")


# ---------------------------------------------------------------------------
# Alpha-invariant keys
# ---------------------------------------------------------------------------

def alpha_key(p: Process) -> str:
    return _shallow(_akey, p, {}, [0])


def _akey_name(n, env):
    # a bound name's label, else its printed name marked by its kind
    label = env.get(n)
    return label or f"{'s' if n.kind == SUCCESS else 'f'}:{n}"


def _akey_value(v, env):
    if isinstance(v, VName):
        return _akey_name(v.name, env)
    if isinstance(v, VTuple):
        return "(" + ",".join(_akey_value(x, env) for x in v.items) + ")"
    if isinstance(v, VInl):
        return f"inl {_akey_value(v.value, env)}"
    if isinstance(v, VInr):
        return f"inr {_akey_value(v.value, env)}"
    return "*"


def _label(counter):
    """The next binder label; binders are numbered left to right, and
    each is bound in ``env`` in place (``syntax._bind``), so that no
    binder copies ``env`` or builds a list."""
    counter[0] += 1
    return f"b{counter[0] - 1}"


def _akey(p, env, counter):
    if isinstance(p, Nil):
        return "0"
    if isinstance(p, Par):
        # walk the left | spine in a loop, so that a wide composition
        # cannot exhaust the recursion limit; binders are numbered left to
        # right
        rights = []
        while isinstance(p.left, Par):
            rights.append(p.right)
            p = p.left
        out = f"({_akey(p.left, env, counter)}|{_akey(p.right, env, counter)})"
        for r in reversed(rights):
            out = f"({out}|{_akey(r, env, counter)})"
        return out
    if isinstance(p, (Input, RepInput)):
        bang = "!" if isinstance(p, RepInput) else ""
        subject = _akey_name(p.subject, env)
        old = _bind(env, p.param, _label(counter))
        body = _akey(p.body, env, counter)
        _unbind(env, p.param, old)
        return f"{bang}{subject}?.{body}"
    if isinstance(p, Output):
        return f"{_akey_name(p.subject, env)}!{_akey_value(p.payload, env)}"
    if isinstance(p, Res):
        old = _bind(env, p.name, _label(counter))
        body = _akey(p.body, env, counter)
        _unbind(env, p.name, old)
        return f"nu.{body}"
    if isinstance(p, LetTuple):
        s = _akey_value(p.scrutinee, env)
        shadowed = [_bind(env, x, _label(counter)) for x in p.params]
        body = _akey(p.body, env, counter)
        for x, old in zip(reversed(p.params), reversed(shadowed)):
            _unbind(env, x, old)
        return f"let{len(p.params)} {s} in {body}"
    if isinstance(p, Case):
        # both branch binders are numbered before either branch is keyed
        s = _akey_value(p.scrutinee, env)
        ll, lr = _label(counter), _label(counter)
        old = _bind(env, p.left_param, ll)
        left = _akey(p.left_body, env, counter)
        _unbind(env, p.left_param, old)
        old = _bind(env, p.right_param, lr)
        right = _akey(p.right_body, env, counter)
        _unbind(env, p.right_param, old)
        return f"case {s} [{left}][{right}]"
    raise TypeError(f"not a process: {p!r}")


def alpha_eq(p: Process, q: Process) -> bool:
    return alpha_key(p) == alpha_key(q)


# ---------------------------------------------------------------------------
# Labels and transitions
# ---------------------------------------------------------------------------

class Label:
    pass


@_node
class TauLabel(Label):
    def __str__(self):
        return "tau"


@_node
class InLabel(Label):
    subject: Name
    param: Name

    def __str__(self):
        return f"{self.subject}({self.param})"


@_node
class OutLabel(Label):
    subject: Name
    payload: Value

    def __str__(self):
        inner = "" if self.payload == VUNIT else print_value(self.payload)
        return f"{self.subject}!({inner})"


@_node
class BoundOutLabel(Label):
    subject: Name
    exported: Name

    def __str__(self):
        return f"{self.subject}!(new {self.exported})"


TAU = TauLabel()


def _bound(mu: Label):
    """The one name ``mu`` binds, or None: a label binds one name at
    most, so a clash is one ``in`` test, with no set built."""
    if isinstance(mu, InLabel):
        return mu.param
    if isinstance(mu, BoundOutLabel):
        return mu.exported
    return None


def _freshen_bound(mu, target, avoid):
    """Rename the label's bound name (and the target) away from the
    names in ``avoid``, only if it is one of them.  The subject is kept,
    also where an input binds its own subject, ``a(a).P``."""
    b = _bound(mu)
    if b is None or b not in avoid:
        return mu, target
    nn = fresh_name(b, set(avoid) | {mu.subject, b} | _frees(target))
    return type(mu)(mu.subject, nn), rename_free(target, {b: nn})


def lts_step(p: Process):
    """Early transitions (ground inputs), written from the standard rules.

    One bottom-up walk.  A ``|`` node freshens bound labels against the
    names its right child keeps (see :func:`_frees`) and those gathered
    along the ``|`` spine, not re-walking a sibling once per step.
    """
    return _shallow(_steps, p)


def _steps(p: Process):
    if isinstance(p, Par):
        # the left | spine in a loop, combined as the recursion would
        spine = []
        while isinstance(p, Par):
            spine.append(p)
            p = p.left
        # one set of the spine's names: kept on each inner | they cost n^2
        steps, names = _steps(p), set(_frees(p))
        for node in reversed(spine):
            steps = _par_steps(node, steps, names)
            names |= _frees(node.right)
        return steps
    out = []
    if isinstance(p, Res):
        n = p.name
        for mu, q in _steps(p.body):
            if isinstance(mu, OutLabel):
                if mu.subject == n:
                    continue
                if n in value_names(mu.payload):
                    if mu.payload == VName(n):
                        out.append((BoundOutLabel(mu.subject, n), q))
                    # a composite value holding the restricted name stays
                    # private
                    continue
            elif not isinstance(mu, TauLabel) and (mu.subject == n
                                                   or _bound(mu) == n):
                continue
            out.append((mu, Res(n, q)))
    elif isinstance(p, Input):
        out.append((InLabel(p.subject, p.param), p.body))
    elif isinstance(p, RepInput):
        out.append((InLabel(p.subject, p.param), Par(p.body, p)))
    elif isinstance(p, Output):
        out.append((OutLabel(p.subject, p.payload), NIL))
    elif isinstance(p, LetTuple):
        if isinstance(p.scrutinee, VTuple) and len(p.scrutinee.items) == len(p.params):
            out.append((TAU, substitute(p.body,
                                        dict(zip(p.params, p.scrutinee.items)))))
    elif isinstance(p, Case):
        if isinstance(p.scrutinee, VInl):
            out.append((TAU, substitute(p.left_body,
                                        {p.left_param: p.scrutinee.value})))
        elif isinstance(p.scrutinee, VInr):
            out.append((TAU, substitute(p.right_body,
                                        {p.right_param: p.scrutinee.value})))
    elif not isinstance(p, Nil):
        raise TypeError(f"not a process: {p!r}")
    return out


def _par_steps(p: Par, lsteps, lnames):
    """The transitions of ``p`` from those and the names of ``p.left``."""
    rsteps, rnames = _steps(p.right), _frees(p.right)
    out = []
    for mu, l2 in lsteps:
        mu2, l3 = _freshen_bound(mu, l2, rnames)
        out.append((mu2, Par(l3, p.right)))
    for mu, r2 in rsteps:
        mu2, r3 = _freshen_bound(mu, r2, lnames)
        out.append((mu2, Par(p.left, r3)))
    for fromleft in (True, False):
        isteps = lsteps if fromleft else rsteps
        osteps = rsteps if fromleft else lsteps
        for mu_i, pi in isteps:
            if not isinstance(mu_i, InLabel):
                continue
            for mu_o, qo in osteps:
                if isinstance(mu_o, OutLabel) and mu_o.subject == mu_i.subject:
                    inst = substitute(pi, {mu_i.param: mu_o.payload})
                    tgt = Par(inst, qo) if fromleft else Par(qo, inst)
                    out.append((TAU, tgt))
                elif (isinstance(mu_o, BoundOutLabel)
                      and mu_o.subject == mu_i.subject):
                    mu_o2, qo2 = _freshen_bound(
                        mu_o, qo, _frees(pi) | {mu_i.param})
                    inst = substitute(pi, {mu_i.param: VName(mu_o2.exported)})
                    body = Par(inst, qo2) if fromleft else Par(qo2, inst)
                    out.append((TAU, Res(mu_o2.exported, body)))
    return out

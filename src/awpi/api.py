"""The ordinary asynchronous pi-calculus: the target of erasure.

Restriction binds a single name and the same name may occur in input and
output position; there is no connection set.  The transition system here
is written directly from the standard early rules (com and close fire on
a shared subject) so it can serve as an independent reference when
checking that erasure preserves and reflects transitions.  It must not be
defined via the connection-set machinery.
"""

from __future__ import annotations

from .syntax import (
    Name, Value, VName, VTuple, VInl, VInr, VUNIT, _node,
    fresh_name, print_value, substitute_value, value_names,
)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Process:
    pass


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


def _shallow(walk, *args):
    """``walk(*args)``, where nesting too deep for the recursion limit is a
    ``ValueError("process nested too deeply")``, not a RecursionError.
    Each public walk goes through here."""
    try:
        return walk(*args)
    except RecursionError:
        pass
    raise ValueError("process nested too deeply")


def free_names(p: Process) -> frozenset:
    return _shallow(_frees, p, {})


def _frees(p: Process, table) -> frozenset:
    """The free names of ``p``.  ``table`` maps ``id(node)`` to (node,
    free names) for every node above a leaf that a walk with it has
    reached, filled in post order, so that a caller that asks about a
    subterm and again about its parts, as :func:`substitute` does, walks
    each node once in all.  It holds each node, so no id in it is
    reused."""
    if isinstance(p, Nil):
        return frozenset()
    if isinstance(p, Output):
        return frozenset((p.subject,)) | value_names(p.payload)
    hit = table.get(id(p))
    if hit is not None:
        return hit[1]
    if isinstance(p, Par):
        # walk the | spine in a loop, so that a wide composition cannot
        # exhaust the recursion limit
        names, todo = set(), [p]
        while todo:
            q = todo.pop()
            if isinstance(q, Par):
                todo += (q.left, q.right)
            else:
                names |= _frees(q, table)
        out = frozenset(names)
    elif isinstance(p, (Input, RepInput)):
        out = frozenset((p.subject,)) | (_frees(p.body, table) - {p.param})
    elif isinstance(p, Res):
        out = _frees(p.body, table) - {p.name}
    elif isinstance(p, LetTuple):
        out = value_names(p.scrutinee) | (_frees(p.body, table) - set(p.params))
    elif isinstance(p, Case):
        out = (value_names(p.scrutinee)
               | (_frees(p.left_body, table) - {p.left_param})
               | (_frees(p.right_body, table) - {p.right_param}))
    else:
        raise TypeError(f"not a process: {p!r}")
    table[id(p)] = (p, out)
    return out


def substitute(p: Process, mapping) -> Process:
    """Capture-avoiding substitution of values for free names.  One call
    keeps one table of free names (see :func:`_frees`), which guards
    every subterm and serves every refresh, so a subterm's names are
    found once, not once per binder above it."""
    mapping = {k: v for k, v in mapping.items() if v != VName(k)}
    return _shallow(_guarded, p, mapping, {})


def _guarded(p: Process, mapping, table) -> Process:
    """``p`` itself when ``mapping`` touches none of its free names, else
    ``p`` with ``mapping`` applied."""
    if not mapping or mapping.keys().isdisjoint(_frees(p, table)):
        return p
    return _subst(p, mapping, table)


def _subst_subject(n: Name, mapping) -> Name:
    v = mapping.get(n)
    if v is None:
        return n
    if isinstance(v, VName):
        return v.name
    raise ValueError(f"cannot use non-name value as subject for {n}")


def _refresh(binders, mapping, bodies, table):
    """Drop shadowed entries, rename binders clashing with incoming names."""
    live = {k: v for k, v in mapping.items() if k not in binders}
    incoming = set()
    for v in live.values():
        incoming |= value_names(v)
    renames = {}
    if incoming & set(binders):
        taken = incoming | set(binders)
        for b in bodies:
            taken |= _frees(b, table)
        for b in binders:
            if b in incoming:
                nb = fresh_name(b, taken)
                taken.add(nb)
                renames[b] = nb
    return live, renames


def _subst(p: Process, mapping, table) -> Process:
    if isinstance(p, Nil):
        return p
    if isinstance(p, Par):
        # walk the left | spine in a loop, keeping its left-nested shape
        rights = []
        while isinstance(p, Par):
            rights.append(p.right)
            p = p.left
        out = _guarded(p, mapping, table)
        for r in reversed(rights):
            out = Par(out, _guarded(r, mapping, table))
        return out
    if isinstance(p, Output):
        return Output(_subst_subject(p.subject, mapping),
                      substitute_value(p.payload, mapping))
    if isinstance(p, (Input, RepInput)):
        subj = _subst_subject(p.subject, mapping)
        live, ren = _refresh((p.param,), mapping, (p.body,), table)
        body = p.body
        if ren:
            body = _guarded(body, {k: VName(v) for k, v in ren.items()}, table)
        return type(p)(subj, ren.get(p.param, p.param),
                       _guarded(body, live, table))
    if isinstance(p, Res):
        live, ren = _refresh((p.name,), mapping, (p.body,), table)
        body = p.body
        if ren:
            body = _guarded(body, {k: VName(v) for k, v in ren.items()}, table)
        return Res(ren.get(p.name, p.name), _guarded(body, live, table))
    if isinstance(p, LetTuple):
        scrut = substitute_value(p.scrutinee, mapping)
        live, ren = _refresh(p.params, mapping, (p.body,), table)
        body = p.body
        if ren:
            body = _guarded(body, {k: VName(v) for k, v in ren.items()}, table)
        params = tuple(ren.get(x, x) for x in p.params)
        return LetTuple(params, scrut, _guarded(body, live, table))
    if isinstance(p, Case):
        scrut = substitute_value(p.scrutinee, mapping)
        livel, renl = _refresh((p.left_param,), mapping, (p.left_body,), table)
        lb = p.left_body
        if renl:
            lb = _guarded(lb, {k: VName(v) for k, v in renl.items()}, table)
        liver, renr = _refresh((p.right_param,), mapping, (p.right_body,),
                               table)
        rb = p.right_body
        if renr:
            rb = _guarded(rb, {k: VName(v) for k, v in renr.items()}, table)
        return Case(scrut,
                    renl.get(p.left_param, p.left_param),
                    _guarded(lb, livel, table),
                    renr.get(p.right_param, p.right_param),
                    _guarded(rb, liver, table))
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
    return env.get(n, f"f:{n}")


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


def _labels(counter, k):
    """The next ``k`` binder labels; binders are numbered left to right."""
    first = counter[0]
    counter[0] += k
    return [f"b{i}" for i in range(first, first + k)]


def _bind(env, names, labels):
    """Bind ``names`` to ``labels`` in place, so that no binder copies
    ``env``; return the entries they shadow, which ``_unbind`` puts back."""
    shadowed = [(n, env.get(n)) for n in names]
    env.update(zip(names, labels))
    return shadowed


def _unbind(env, shadowed):
    for n, old in reversed(shadowed):
        if old is None:
            del env[n]
        else:
            env[n] = old


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
        shadowed = _bind(env, (p.param,), _labels(counter, 1))
        body = _akey(p.body, env, counter)
        _unbind(env, shadowed)
        return f"{bang}{subject}?.{body}"
    if isinstance(p, Output):
        return f"{_akey_name(p.subject, env)}!{_akey_value(p.payload, env)}"
    if isinstance(p, Res):
        shadowed = _bind(env, (p.name,), _labels(counter, 1))
        body = _akey(p.body, env, counter)
        _unbind(env, shadowed)
        return f"nu.{body}"
    if isinstance(p, LetTuple):
        s = _akey_value(p.scrutinee, env)
        shadowed = _bind(env, p.params, _labels(counter, len(p.params)))
        body = _akey(p.body, env, counter)
        _unbind(env, shadowed)
        return f"let{len(p.params)} {s} in {body}"
    if isinstance(p, Case):
        # both branch binders are numbered before either branch is keyed
        s = _akey_value(p.scrutinee, env)
        ll, lr = _labels(counter, 2)
        shadowed = _bind(env, (p.left_param,), (ll,))
        left = _akey(p.left_body, env, counter)
        _unbind(env, shadowed)
        shadowed = _bind(env, (p.right_param,), (lr,))
        right = _akey(p.right_body, env, counter)
        _unbind(env, shadowed)
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


def label_free_names(mu: Label) -> frozenset:
    if isinstance(mu, TauLabel):
        return frozenset()
    if isinstance(mu, InLabel):
        return frozenset((mu.subject,))
    if isinstance(mu, OutLabel):
        return frozenset((mu.subject,)) | value_names(mu.payload)
    if isinstance(mu, BoundOutLabel):
        return frozenset((mu.subject,))
    raise TypeError(f"not a label: {mu!r}")


def label_bound_names(mu: Label) -> frozenset:
    if isinstance(mu, InLabel):
        return frozenset((mu.param,))
    if isinstance(mu, BoundOutLabel):
        return frozenset((mu.exported,))
    return frozenset()


def label_names(mu: Label) -> frozenset:
    return label_free_names(mu) | label_bound_names(mu)


def _rename_label(mu: Label, renames) -> Label:
    if isinstance(mu, TauLabel):
        return mu
    if isinstance(mu, InLabel):
        return InLabel(renames.get(mu.subject, mu.subject),
                       renames.get(mu.param, mu.param))
    if isinstance(mu, OutLabel):
        return OutLabel(renames.get(mu.subject, mu.subject),
                        substitute_value(mu.payload,
                                         {k: VName(v) for k, v in renames.items()}))
    if isinstance(mu, BoundOutLabel):
        return BoundOutLabel(renames.get(mu.subject, mu.subject),
                             renames.get(mu.exported, mu.exported))
    raise TypeError(f"not a label: {mu!r}")


def _freshen_bound(mu, target, avoid):
    clash = label_bound_names(mu) & frozenset(avoid)
    if not clash:
        return mu, target
    taken = set(avoid) | label_names(mu) | free_names(target)
    renames = {}
    for n in clash:
        nn = fresh_name(n, taken)
        taken.add(nn)
        renames[n] = nn
    return _rename_label(mu, renames), rename_free(target, renames)


def lts_step(p: Process):
    """Early transitions (ground inputs), written from the standard rules.

    One bottom-up walk: each subterm's transitions come with its free
    names, so a ``|`` node freshens bound labels against its children's
    names instead of re-walking a sibling once per step.
    """
    return _shallow(_steps, p)[0]


def _steps(p: Process):
    """``(transitions of p, free names of p)``."""
    if isinstance(p, Par):
        # the left | spine in a loop, combined as the recursion would
        spine = []
        while isinstance(p, Par):
            spine.append(p)
            p = p.left
        steps, names = _steps(p)
        for node in reversed(spine):
            steps, names = _par_steps(node, steps, names)
        return steps, names
    out = []
    if isinstance(p, Res):
        steps, names = _steps(p.body)
        for mu, q in steps:
            if isinstance(mu, OutLabel) and mu.subject != p.name \
                    and p.name in value_names(mu.payload):
                if mu.payload == VName(p.name):
                    out.append((BoundOutLabel(mu.subject, p.name), q))
                # a composite value holding the restricted name stays private
                continue
            if p.name in label_names(mu):
                continue
            out.append((mu, Res(p.name, q)))
        return out, names - {p.name}
    if isinstance(p, Input):
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
    return out, free_names(p)


def _par_steps(p: Par, lsteps, lnames):
    """The transitions and free names of ``p`` from those of ``p.left``."""
    rsteps, rnames = _steps(p.right)
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
                        mu_o, qo, free_names(pi) | {mu_i.param})
                    inst = substitute(pi, {mu_i.param: VName(mu_o2.exported)})
                    body = Par(inst, qo2) if fromleft else Par(qo2, inst)
                    out.append((TAU, Res(mu_o2.exported, body)))
    return out, lnames | rnames

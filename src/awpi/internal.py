"""Wires and the translation into the internal fragment.

A wire forwards every message arriving at an input name to an output
name.  The translation rewrites each output of channel names into a
bound output: the process exports one end of a fresh pair and installs a
wire connecting the other end to the original name, so that emitted
names are always fresh.  Payloads whose type carries no channel are left
untouched; tuple and sum literals are wired componentwise.

The translation keeps one typing environment per call and binds each
binder in it in place while its scope is walked, so a deep chain of
binders costs linear time, not a copy of the environment per level.  Its
fresh names come from one ``syntax._Fresh`` per call, which avoids the
input's free names, every name it has made and the names of that
environment, which are exactly the names in scope where a new pair is
bound; a name bound elsewhere in the input cannot be captured there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    Case, ChanType, Input, LINEAR_MODES, LetTuple, Name, Nil, OUTPUT_MODES,
    Output, Par, Process, RepInput, Res, TupleType, SumType, UNIT, VInl,
    VInr, VName, VTuple, VUnit, Value, ValueType, _Fresh, _bind, _bind_all,
    _frees, _par_list, _shallow, _split_chain, _unbind, _unbind_all,
    _value_counts, _value_leaves, fresh_name, free_names,
)
from .typecheck import ANY, dual


@dataclass(frozen=True)
class WireSpec:
    """The two ends of a wire and the type it carries.

    ``from_name`` is the receiving (input) end, ``to_name`` the emitting
    (output) end; ``linear`` drops the replication.
    """

    from_name: Name
    to_name: Name
    payload: ValueType
    linear: bool = False


def wire(w: WireSpec, env=None) -> Process:
    """Build the forwarder ``!from(x).to!(x)`` (unreplicated if linear)."""
    if env is not None:
        ft = env.get(w.from_name)
        tt = env.get(w.to_name)
        want_in = ChanType("li" if w.linear else "i", w.payload)
        if ft != want_in or tt != dual(want_in):
            raise ValueError(
                f"wire ends must be typed {want_in} / {dual(want_in)}, "
                f"got {ft} / {tt}")
    x = fresh_name(Name("x"), {w.from_name, w.to_name})
    body = Output(w.to_name, VName(x))
    if w.linear:
        return Input(w.from_name, x, body)
    return RepInput(w.from_name, x, body)


def _is_chan(t) -> bool:
    return isinstance(t, ChanType)


def _value_type(v: Value, env):
    if isinstance(v, VName):
        return env.get(v.name, ANY)
    if isinstance(v, VUnit):
        return UNIT
    if isinstance(v, VTuple):
        return TupleType(tuple(_value_type(x, env) or ANY for x in v.items))
    # inl/inr alone do not determine the other summand
    return None


def _branch_types(scrutinee: Value, env):
    """Types of the two case branches' parameters.

    A name scrutinee of sum type fixes both params; a literal tag fixes
    the live branch and leaves the dead one unconstrained.
    """
    if isinstance(scrutinee, VInl):
        return _value_type(scrutinee.value, env) or ANY, ANY
    if isinstance(scrutinee, VInr):
        return ANY, _value_type(scrutinee.value, env) or ANY
    t = _value_type(scrutinee, env)
    if isinstance(t, SumType):
        return t.left, t.right
    return ANY, ANY


def _let_types(p, env):
    """Types of the names that let ``p`` binds."""
    t = _value_type(p.scrutinee, env)
    if isinstance(t, TupleType) and len(t.items) == len(p.params):
        return t.items
    return [ANY] * len(p.params)


def _chan_names_in(v: Value, env):
    """Names of channel type occurring in ``v`` (with multiplicity)."""
    return [n.name for n in _value_leaves(v)
            if isinstance(n, VName) and _is_chan(env.get(n.name))]


def internalize(p: Process, env) -> Process:
    """Rewrite every output of channel names into bound-output-plus-wire.

    ``env`` assigns types to the free names; binder types are propagated
    from it.  The result types under the same environment and is related
    to ``p`` by the wire laws.  A process none of whose outputs carries
    a channel is returned itself.  Raises ValueError on a process nested
    too deeply for the recursion limit (a ``|`` chain of any width is
    fine).
    """
    return _shallow(_walk, p, dict(env), _Fresh(free_names(p)))


def _rewire(v: Value, env, fresh):
    """Replace channel-typed names in ``v`` by fresh exported ends.

    Returns (v', bindings) where each binding carries the restriction to
    wrap and the raw wire to install.
    """
    if isinstance(v, VName):
        t = env.get(v.name)
        if not _is_chan(t):
            return v, []
        exported, companion = fresh("w", env), fresh("w'", env)
        if t.mode in OUTPUT_MODES:
            # export a fresh output end; its input companion feeds the
            # original target
            in_end, in_type = companion, ChanType(
                "li" if t.mode == "lo" else "i", t.payload)
            res = (in_end, exported, in_type)
            fwd_subject = v.name
            wire_subject = in_end
        else:
            # export a fresh input end; we keep listening at the original
            # name and resend through the fresh output companion
            in_type = ChanType(t.mode, t.payload)
            res = (exported, companion, in_type)
            fwd_subject = companion
            wire_subject = v.name
        linear = t.mode in LINEAR_MODES
        return VName(exported), [(res, wire_subject, fwd_subject,
                                  t.payload, linear)]
    if isinstance(v, VTuple):
        items = []
        binds = []
        for item in v.items:
            item2, b = _rewire(item, env, fresh)
            items.append(item2)
            binds.extend(b)
        return VTuple(tuple(items)), binds
    if isinstance(v, VInl):
        v2, b = _rewire(v.value, env, fresh)
        return VInl(v2), b
    if isinstance(v, VInr):
        v2, b = _rewire(v.value, env, fresh)
        return VInr(v2), b
    return v, []


def _walk(p: Process, env, fresh) -> Process:
    """``p`` with its outputs of channel names rewired; a node none of
    whose children changed is returned itself.  A binder is bound in
    ``env`` in place while its scope is walked, so no level copies it."""
    if isinstance(p, Nil):
        return p
    if isinstance(p, Par):
        # the left | spine is walked in a loop, as in syntax._frees, so a
        # wide composition cannot exhaust the recursion limit
        spine = []
        while isinstance(p, Par):
            spine.append(p)
            p = p.left
        out = _walk(p, env, fresh)
        for node in reversed(spine):
            right = _walk(node.right, env, fresh)
            out = (node if out is node.left and right is node.right
                   else Par(out, right))
        return out
    if isinstance(p, (Input, RepInput)):
        t = env.get(p.subject)
        old = _bind(env, p.param, t.payload if _is_chan(t) else ANY)
        body = _walk(p.body, env, fresh)
        _unbind(env, p.param, old)
        return p if body is p.body else type(p)(p.subject, p.param, body)
    if isinstance(p, Res):
        ends = (p.in_name, p.out_name)
        olds = _bind_all(env, ends, (p.in_type, dual(p.in_type)))
        body = _walk(p.body, env, fresh)
        _unbind_all(env, ends, olds)
        return p if body is p.body else Res(p.in_name, p.out_name,
                                            p.in_type, body)
    if isinstance(p, LetTuple):
        olds = _bind_all(env, p.params, _let_types(p, env))
        body = _walk(p.body, env, fresh)
        _unbind_all(env, p.params, olds)
        return p if body is p.body else LetTuple(p.params, p.scrutinee, body)
    if isinstance(p, Case):
        lt, rt = _branch_types(p.scrutinee, env)
        old = _bind(env, p.left_param, lt)
        left = _walk(p.left_body, env, fresh)
        _unbind(env, p.left_param, old)
        old = _bind(env, p.right_param, rt)
        right = _walk(p.right_body, env, fresh)
        _unbind(env, p.right_param, old)
        if left is p.left_body and right is p.right_body:
            return p
        return Case(p.scrutinee, p.left_param, left, p.right_param, right)
    if isinstance(p, Output):
        v2, binds = _rewire(p.payload, env, fresh)
        if not binds:
            return p
        core = Output(p.subject, v2)
        for (in_name, out_name, in_type), wsubj, fwd, vtype, linear in binds:
            x = fresh("x", env)
            ends = (x, in_name, out_name)
            olds = _bind_all(env, ends, (vtype, in_type, dual(in_type)))
            # the forwarded output is itself internalized, so wiring
            # recurses through the payload type
            fwd_out = _walk(Output(fwd, VName(x)), env, fresh)
            _unbind_all(env, ends, olds)
            w = Input(wsubj, x, fwd_out) if linear \
                else RepInput(wsubj, x, fwd_out)
            core = Par(core, w)
        for (in_name, out_name, in_type), _, _, _, _ in reversed(binds):
            core = Res(in_name, out_name, in_type, core)
        return core
    raise TypeError(f"not a process: {p!r}")


# ---------------------------------------------------------------------------
# The internal-fragment predicate
# ---------------------------------------------------------------------------

def is_internal(p: Process, env) -> bool:
    """True iff every output either carries a channel-free value or is in
    the bound-output-plus-wire shape the translation produces.

    One walk checks every restriction level (:func:`_chk`) and returns,
    from each subterm, its free payload occurrences, so a level reads its
    pair ends' occurrences off its atoms instead of walking them once per
    end.  The free names of a wire's body are the ones it keeps
    (``syntax._frees``).
    """
    try:
        _shallow(_chk, p, dict(env))
    except _External:
        return False
    return True


class _External(Exception):
    """An output of the process checked is not in the internal shape."""


def _chk(p: Process, env) -> dict:
    """The free occurrences of each name inside output payloads of ``p``,
    at any depth, as name -> count, where ``p`` is checked as one level: a
    restriction chain over a ``|`` of atoms.  Subject, forward-target and
    scrutinee positions do not count: only a payload position emits the
    name to a peer.  Raises ``_External`` when an output is not in the
    internal shape."""
    pairs, core = _split_chain(p)
    atoms = _par_list(core)
    if pairs:
        env = dict(env)
    in_of, out_of = {}, {}
    for a, b, t in pairs:
        env[a] = t
        env[b] = dual(t)
        in_of[b] = a
        out_of[a] = b
    total, occs = {}, []
    for atom in atoms:
        if isinstance(atom, Output):
            for n in _chan_names_in(atom.payload, env):
                if n not in in_of and n not in out_of:
                    raise _External
            occ = {}
            _value_counts(atom.payload, occ)
        elif isinstance(atom, (Input, RepInput)):
            t = env.get(atom.subject)
            env2 = dict(env)
            env2[atom.param] = t.payload if _is_chan(t) else ANY
            occ = _chk(atom.body, env2)
            occ.pop(atom.param, None)
        elif isinstance(atom, Res):
            occ = _chk(atom, env)
        elif isinstance(atom, LetTuple):
            env2 = dict(env)
            env2.update(zip(atom.params, _let_types(atom, env)))
            occ = _chk(atom.body, env2)
            for x in atom.params:
                occ.pop(x, None)
        elif isinstance(atom, Case):
            lt, rt = _branch_types(atom.scrutinee, env)
            occ = _chk(atom.left_body, {**env, atom.left_param: lt})
            occ.pop(atom.left_param, None)
            right = _chk(atom.right_body, {**env, atom.right_param: rt})
            right.pop(atom.right_param, None)
            for m, k in right.items():
                occ[m] = occ.get(m, 0) + k
        elif isinstance(atom, Nil):
            occ = {}
        else:
            raise TypeError(f"not a process: {atom!r}")
        occs.append(occ)
        for m, k in occ.items():
            total[m] = total.get(m, 0) + k
    for m in list(in_of) + list(out_of):
        if m not in total:
            continue
        # a pair end may be emitted once, by a top-level sibling of its wire
        exporter = next((a for a, occ in zip(atoms, occs)
                         if isinstance(a, Output) and m in occ), None)
        if total[m] > 1 or exporter is None:
            raise _External
        rest = [a for a in atoms if a is not exporter]
        if m in in_of:
            # exported output end: the companion input end is served by a
            # wire, an input that forwards its parameter onward
            c = in_of[m]
            served = any(isinstance(w, (Input, RepInput)) and w.subject == c
                         and w.param in _frees(w.body) for w in rest)
        else:
            # exported input end: some wire forwards into the companion
            c = out_of[m]
            served = any(isinstance(w, (Input, RepInput))
                         and c in _frees(w.body) for w in rest)
        if not served:
            raise _External
    for a, b, _ in pairs:
        total.pop(a, None)
        total.pop(b, None)
    return total

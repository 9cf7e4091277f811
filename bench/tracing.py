"""Per-layer spans recorded from outside the program.

Each layer is a group of public functions.  :meth:`Tracer.install` wraps
every function of every group and rebinds the wrapper in each loaded
module that holds the function under some name, so calls between the
program's modules are seen as well as the benchmark's own calls.  A span
records its layer, start, end and parent span.  A call made while the same
layer is already open (recursion, or one function of a group calling
another) records no span of its own.  A layer's self time is the total
duration of its spans minus the time their child spans cover.  The
tracer's own work around a span (rebinding wrappers, noting what
``canonicalize`` was given) is timed too and counted as covered by the
child, so that it falls in no layer's self time.
"""

import sys
import time
from array import array

# layer -> (module, public functions)
LAYERS = {
    "syntax.canonicalize": ("syntax", ("canonicalize",)),
    "syntax.parse": ("syntax", ("parse_process", "parse_file")),
    "syntax.print": ("syntax", ("print_process",)),
    "syntax.substitute": ("syntax", ("substitute", "rename_free")),
    "typecheck.typecheck": ("typecheck", ("typecheck",)),
    "internal.internalize": ("internal", ("internalize",)),
    "internal.is_internal": ("internal", ("is_internal",)),
    "semantics.lts_step": ("semantics", ("lts_step",)),
    "semantics.composite_step": ("semantics", ("composite_step",)),
    "semantics.reduce": ("semantics", ("reduce",)),
    "semantics.weak_barbs": ("semantics", ("weak_barbs",)),
    "semantics.explore": ("semantics", ("explore",)),
    "equivalence.check": ("equivalence", ("internal_bisim_n", "strong_bisim",
                                          "barbed_bisim")),
    "equivalence.replay": ("equivalence", ("replay_witness",)),
    "encodings.encode": ("encodings", ("encode_alpi", "encode_stlc")),
    "encodings.correspondence": ("encodings", ("check_alpi_correspondence",)),
    "api.lts_step": ("api", ("lts_step",)),
    "api.alpha_key": ("api", ("alpha_key",)),
}

# layers whose call counts are reported next to their self time
COUNTED = ("syntax.canonicalize", "typecheck.typecheck", "semantics.lts_step",
           "semantics.composite_step", "api.lts_step")


class Tracer:
    def __init__(self):
        self.layers = list(LAYERS)
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.overhead = array("d")
        self.open = []
        self.busy = [False] * len(self.layers)
        self.canon_inputs = set()
        self.explored_states = 0

    def install(self):
        """Wrap every layer function, in every loaded module that holds it
        (the program's own modules and the benchmark's)."""
        import awpi.syntax
        self._print = awpi.syntax.print_process
        modules = [m for m in list(sys.modules.values()) if m is not None]
        for lid, (mod, funcs) in enumerate(LAYERS.values()):
            module = sys.modules[f"awpi.{mod}"]
            originals = [getattr(module, f) for f in funcs]
            # (namespace, attribute, original) for every binding of the layer
            bindings = [(vars(m), attr, value) for m in modules
                        for attr, value in list(vars(m).items())
                        if any(value is f for f in originals)]
            restore = []
            wrappers = [self._wrap(lid, fn, bindings, restore)
                        for fn in originals]
            for ns, attr, fn in bindings:
                ns[attr] = wrappers[originals.index(fn)]
                restore.append((ns, attr, ns[attr]))

    def _wrap(self, lid, fn, bindings, restore):
        """While a span of the layer is open, every binding of the layer
        points at the original function again, so calls back into the layer
        neither record spans nor add the wrapper's stack frames."""
        busy, open_ = self.busy, self.open
        layer, start, end, parent, overhead = (
            self.layer, self.start, self.end, self.parent, self.overhead)
        clock = time.perf_counter
        all_busy = [True] * len(busy)
        observe = {"syntax.canonicalize": self._saw_canonicalize,
                   "semantics.explore": self._saw_explore}.get(
                       self.layers[lid])

        def traced(*args, **kwargs):
            if busy[lid]:
                return fn(*args, **kwargs)
            entered = clock()
            busy[lid] = True
            for ns, attr, original in bindings:
                ns[attr] = original
            sid = len(layer)
            layer.append(lid)
            parent.append(open_[-1] if open_ else -1)
            end.append(0.0)
            overhead.append(0.0)
            open_.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                open_.pop()
                for ns, attr, wrapper in restore:
                    ns[attr] = wrapper
                busy[lid] = False
            if observe is not None:
                # every layer is marked busy, so that the observer's own
                # calls into the program (printing) record no spans
                paused = busy[:]
                busy[:] = all_busy
                try:
                    observe(args, result)
                finally:
                    busy[:] = paused
            overhead[sid] = clock() - end[sid] + start[sid] - entered
            return result

        return traced

    def _saw_canonicalize(self, args, result):
        try:
            self.canon_inputs.add(self._print(args[0]))
        except RecursionError:
            self.canon_inputs.add(("unprintable", len(self.layer)))

    def _saw_explore(self, args, result):
        self.explored_states += len(result.nodes)

    def metrics(self):
        """Per-layer self time and counts of everything recorded so far."""
        n = len(self.layer)
        covered = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                covered[p] += (self.end[sid] - self.start[sid]
                               + self.overhead[sid])
        self_s = [0.0] * len(self.layers)
        calls = [0] * len(self.layers)
        for sid in range(n):
            lid = self.layer[sid]
            self_s[lid] += self.end[sid] - self.start[sid] - covered[sid]
            calls[lid] += 1
        out = {}
        for lid, layer in enumerate(self.layers):
            out[f"{layer}.self_s"] = self_s[lid]
            if layer in COUNTED:
                out[f"{layer}.calls"] = calls[lid]
        canon = calls[self.layers.index("syntax.canonicalize")]
        out["syntax.canonicalize.distinct_ratio"] = (
            len(self.canon_inputs) / canon if canon else 0.0)
        out["semantics.explore.states"] = self.explored_states
        out["spans"] = n
        return out

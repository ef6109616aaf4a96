"""Span tracing of grapde's layers, applied from outside the package.

``Tracer.install()`` replaces each traced function with a wrapper that
records a span (name, start, end, parent, request id) and restores the
originals on ``uninstall()``.  A function bound into another module by
``from .x import y`` lives on as a separate name there, so every grapde module
attribute that *is* the original object is patched, not only the defining
one.  ``expressions.evaluate`` calls itself through its module-global name;
tracing it would record one span per tree node, so its callers
``Nonlinearity.values`` and ``Nonlinearity.eval`` are traced instead.

Self time is kept while recording: when a span ends, its duration is added
to its parent's child time, and self time is duration minus child time.
Spans are kept in flat arrays and written out with ``dump``.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time

# (module, attribute, span name).  Methods use "Class.method" as attribute.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("graph", "load_graph", "graph.load_graph"),
    ("graph", "validate", "graph.validate"),
    ("nonlinearity", "Nonlinearity.values", "nonlinearity.values"),
    ("nonlinearity", "Nonlinearity.eval", "nonlinearity.eval"),
    ("nonlinearity", "check_hypotheses", "nonlinearity.check_hypotheses"),
    ("calculus", "polylap_apply", "calculus.polylap_apply"),
    ("calculus", "grad_modulus", "calculus.grad_modulus"),
    ("energy", "phi", "energy.phi"),
    ("energy", "phi_grad", "energy.phi_grad"),
    ("spaces", "w_norm", "spaces.w_norm"),
    ("_optim", "path_saddle", "optim.path_saddle"),
    ("_optim", "polish_root", "optim.polish_root"),
    ("_optim", "bb_minimize", "optim.bb_minimize"),
    ("solvers", "negative_endpoint", "solvers.negative_endpoint"),
    ("solvers", "bound_certificate_mp", "solvers.bound_certificate_mp"),
    ("solvers", "ball_radius", "solvers.ball_radius"),
    ("solvers", "uniqueness_certificate", "solvers.uniqueness_certificate"),
    ("solvers", "nonexistence_check", "solvers.nonexistence_check"),
    ("continuation", "sweep", "continuation.sweep"),
    ("continuation", "branch_continuity_report", "continuation.branch_continuity_report"),
    ("scalar", "scalar_sweep", "scalar.scalar_sweep"),
    ("scalar", "scalar_grad", "scalar.scalar_grad"),
)

# Bindings that must be patched for the trace to be complete; checked on
# install so that a refactor that moves an import shows up as an error here
# instead of as silently missing spans.
REQUIRED_BINDINGS = (
    ("energy", "polylap_apply"),
    ("scalar", "polylap_apply"),
    ("solvers", "path_saddle"),
    ("scalar", "path_saddle"),
    ("continuation", "polish_root"),
    ("solvers", "phi"),
    ("cli", "load_graph"),
    ("cli", "validate"),
)


class Tracer:
    """Records spans of the patched functions while installed."""

    def __init__(self):
        self.names = [t[2] for t in TARGETS]
        self._name_id = {name: k for k, name in enumerate(self.names)}
        k = len(self.names)
        self.calls = [0] * k
        self.total = [0.0] * k
        self.self_time = [0.0] * k
        # per-call outcomes gathered by the result hooks
        self.extra = {
            "path_saddle.outer": 0,
            "path_saddle.coarse_ok": 0,
            "polish_root.converged": 0,
            "polish_root.grads": 0,
            "sweep.warm_attempts": 0,
            "sweep.warm_hits": 0,
        }
        self.request_id = 0
        # span storage: parallel flat arrays
        self.sp_name = array.array("i")
        self.sp_start = array.array("d")
        self.sp_end = array.array("d")
        self.sp_parent = array.array("q")
        self.sp_request = array.array("i")
        self._stack = []  # (span index, child time)
        self._patched = []  # (owner, attribute, original)

    # --- recording --------------------------------------------------------

    def _wrap(self, fn, name):
        nid = self._name_id[name]
        hook = _RESULT_HOOKS.get(name)
        arg_hook = _ARG_HOOKS.get(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.sp_name)
            parent = stack[-1][0] if stack else -1
            tracer.sp_name.append(nid)
            tracer.sp_parent.append(parent)
            tracer.sp_request.append(tracer.request_id)
            tracer.sp_start.append(0.0)
            tracer.sp_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            if arg_hook is not None:
                args, kwargs = arg_hook(tracer, args, kwargs)
            t0 = clock()
            tracer.sp_start[idx] = t0
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer.sp_end[idx] = t1
                dur = t1 - t0
                # unwind to this frame even if a timeout interrupted a child
                while stack and stack[-1] is not frame:
                    stack.pop()
                if stack:
                    stack.pop()
                if stack:
                    stack[-1][1] += dur
                tracer.calls[nid] += 1
                tracer.total[nid] += dur
                tracer.self_time[nid] += dur - frame[1]
            if hook is not None:
                hook(tracer, result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    # --- patching ---------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "grapde" or name.startswith("grapde.")]
        for mod_name, attr, span in TARGETS:
            module = sys.modules[f"grapde.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                wrapper = self._wrap(original, span)
                setattr(owner, meth, wrapper)
                self._patched.append((owner, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))
        for mod_name, attr in REQUIRED_BINDINGS:
            bound = getattr(sys.modules[f"grapde.{mod_name}"], attr)
            if not hasattr(bound, "__wrapped_original__"):
                raise RuntimeError(f"grapde.{mod_name}.{attr} was not patched")

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()
        self._stack.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def reset_stack(self):
        """Drop open spans left behind by a request that was interrupted.

        An interrupt that lands between the appends of one span leaves the
        arrays with unequal lengths; the incomplete tail is cut off.
        """
        self._stack.clear()
        cols = (self.sp_name, self.sp_start, self.sp_end, self.sp_parent, self.sp_request)
        keep = min(len(c) for c in cols)
        for col in cols:
            del col[keep:]

    # --- results ----------------------------------------------------------

    def stat(self, name):
        k = self._name_id[name]
        return self.calls[k], self.total[k], self.self_time[k]

    def dump(self, path):
        """Write every span and the per-name totals as one JSON file."""
        spans = {
            "names": self.names,
            "name": self.sp_name.tolist(),
            "start": self.sp_start.tolist(),
            "end": self.sp_end.tolist(),
            "parent": self.sp_parent.tolist(),
            "request": self.sp_request.tolist(),
        }
        totals = {
            name: {"calls": self.calls[k], "s": self.total[k], "self_s": self.self_time[k]}
            for k, name in enumerate(self.names)
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"totals": totals, "extra": self.extra, "spans": spans}, fh)


# --- per-call outcome hooks (read the public return values) ---------------

def _path_saddle_result(tracer, result):
    _peak, outer, _fevals, coarse_ok = result
    tracer.extra["path_saddle.outer"] += int(outer)
    tracer.extra["path_saddle.coarse_ok"] += int(bool(coarse_ok))


def _polish_root_result(tracer, result):
    tracer.extra["polish_root.converged"] += int(bool(result.converged))


def _polish_root_args(tracer, args, kwargs):
    """Count the gradient evaluations that one polish makes."""
    grad = args[0] if args else kwargs.pop("grad")

    def counted(x):
        tracer.extra["polish_root.grads"] += 1
        return grad(x)

    return (counted,) + tuple(args[1:]), kwargs


def _sweep_result(tracer, branch):
    """Warm starts are tried after every converged point; a hit keeps its flag."""
    reports = branch.reports
    for prev, cur in zip(reports, reports[1:]):
        if prev is not None and prev.converged:
            tracer.extra["sweep.warm_attempts"] += 1
            if cur is not None and "warm start" in cur.flags:
                tracer.extra["sweep.warm_hits"] += 1


_RESULT_HOOKS = {
    "optim.path_saddle": _path_saddle_result,
    "optim.polish_root": _polish_root_result,
    "continuation.sweep": _sweep_result,
}
_ARG_HOOKS = {
    "optim.polish_root": _polish_root_args,
}

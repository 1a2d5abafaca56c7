"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each listed public function of micz9 with a
timing wrapper, at every micz9 module that binds it (``spheroidal`` binds
``tridiag_eigh`` by name, ``wavefield`` binds ``separation_constants``, and
so on), and ``uninstall`` puts the originals back.  The program itself is
not changed.  For each wrapped function the tracer keeps:

* calls;
* busy seconds: wall time of the outermost active call, so recursion is
  counted once;
* self seconds: busy time minus the time spent in wrapped callees.

Spans are aggregated in memory as they close rather than stored one by one:
squarefree reduction alone runs hundreds of thousands of times per round.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# (module, function) pairs, grouped by the layer they belong to.
WRAPPED = (
    ("micz9._backend", "tridiag_eigh"),
    ("micz9._backend", "laguerre"),
    ("micz9._backend", "jacobi"),
    ("micz9.exactscalar", "squarefree_split"),
    ("micz9.coeffs", "k_diag"),
    ("micz9.coeffs", "k_offdiag"),
    ("micz9.coeffs", "m9_spherical_matrix"),
    ("micz9.interbasis", "w_coefficient"),
    ("micz9.interbasis", "w_matrix"),
    ("micz9.interbasis", "w_via_cg"),
    ("micz9.interbasis", "w_recurrence_residual"),
    ("micz9.interbasis", "m9_matrix_bruteforce"),
    ("micz9.spheroidal", "build_k_matrix"),
    ("micz9.spheroidal", "separation_constants"),
    ("micz9.spheroidal", "sweep_branches"),
    ("micz9.spheroidal", "t_by_continuant"),
    ("micz9.spheroidal", "check_spherical_limit"),
    ("micz9.spheroidal", "check_parabolic_limit"),
    ("micz9.wavefield", "gauss_rule"),
    ("micz9.wavefield", "w_overlap_quadrature"),
    ("micz9.wavefield", "w_overlap_stable"),
    ("micz9.wavefield", "ode_residuals"),
    ("micz9.cli", "main"),
)


class Stat:
    __slots__ = ("calls", "busy", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    """Timing wrappers around micz9's public functions, plus a few counters."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.rule_keys: set = set()  # first-seen Gauss-rule keys
        self.overlap_nodes = 0  # sum of n_q^2 over quadrature overlaps
        self.nested_quadratures = 0  # quadrature overlaps inside w_overlap_stable
        self._child_time: list[float] = []  # one slot per open span
        self._patched: list[tuple[object, str, object]] = []

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _wrap(self, name: str, fn):
        stat = self.stat(name)
        clock = time.perf_counter
        child_time = self._child_time
        on_call = self._hooks(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            stat.calls += 1
            stat.depth += 1
            child_time.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stat.depth -= 1
                stat.self_time += elapsed - child_time.pop()
                if stat.depth == 0:
                    stat.busy += elapsed
                if child_time:
                    child_time[-1] += elapsed

        return wrapper

    def _hooks(self, name: str, fn):
        """Extra counters read from a call's arguments, or None."""
        if name not in ("gauss_rule", "w_overlap_quadrature"):
            return None
        sig = inspect.signature(fn)
        stable = self.stat("w_overlap_stable")

        def gauss_rule(args, kwargs):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            self.rule_keys.add((b.arguments["kind"], b.arguments["n_q"], float(b.arguments["order"])))

        def w_overlap_quadrature(args, kwargs):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            self.overlap_nodes += b.arguments["n_q"] ** 2
            if stable.depth:
                self.nested_quadratures += 1

        return gauss_rule if name == "gauss_rule" else w_overlap_quadrature

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "micz9" or k.startswith("micz9.")]
        for mod_name, fn_name in WRAPPED:
            original = getattr(importlib.import_module(mod_name), fn_name)
            wrapper = self._wrap(fn_name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        """Totals so far, per wrapped function plus the extra counters."""
        out = {
            name: {"calls": s.calls, "busy_s": s.busy, "self_s": s.self_time}
            for name, s in self.stats.items()
        }
        out["_counters"] = {
            "gauss_rule_builds": len(self.rule_keys),
            "overlap_nodes": self.overlap_nodes,
            "overlap_doublings": self.nested_quadratures - self.stat("w_overlap_stable").calls,
        }
        return out

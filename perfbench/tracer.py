"""Timing wrappers around procurelab's public functions, installed from outside.

The tracer replaces a function on every procurelab namespace that binds it
(for example ``strategy.expect_vs``, ``equilibria.expect_vs`` and
``experiments.expect_vs`` all get the same wrapper), so the program itself
is not edited.  One wrapper object serves every binding of one function,
which keeps identity checks such as ``kernel_n is payoff_n`` true.

Two kinds of wrapper:

* span: one record ``(id, name, parent_id, start, end)`` per call, kept in
  memory and handed out by :meth:`Tracer.records` for writing at exit;
* hot: scalar functions called up to ~10^6 times per pass (``payoff_n``,
  ``best_deviation``, ``expect_vs``...) only add to counters keyed by
  ``(name, parent name)``.

Both kinds maintain a frame stack, so each layer's self time (its calls'
duration minus the time covered by traced calls below them) is derived
on the fly.  A target that its module no longer binds is listed in
:attr:`Tracer.absent` instead of raising, so refactors of the program do
not break the benchmark.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "game_core", "strategy", "equilibria", "oracle_solver", "experiments")


def _rows(a, r):
    return {"rows": len(a["bids"])}


def _cells(a, r):
    return {"cells": len(a["xs"]) * len(a["ys"])}


def _draws(a, r):
    return {"draws": a["n"]}


def _lp(a, r):
    # constraint-matrix bytes are computed from the array sizes, not measured
    size = sum(getattr(a.get(k), "size", 0) for k in ("A_ub", "A_eq"))
    return {"nit": int(getattr(r, "nit", 0)), "failed": int(not r.success), "bytes": 8 * size}


def _cert(a, r):
    return {"cert_max": r.exploitability}


def _br_steps(a, r):
    return {"steps": len(r.profiles) - 1}


def _mc_draws(a, r):
    return {"draws": a["samples"] * len(a["strategies"])}


def _expect_vs_name(args, kwargs):
    method = kwargs.get("method", args[5] if len(args) > 5 else "auto")
    kernel = kwargs.get("kernel", args[2] if len(args) > 2 else None)
    exact = method != "quadrature" and 0.0 < getattr(kernel, "p", 0.5) < 1.0
    return "strategy.expect_vs.exact" if exact else "strategy.expect_vs.quad"


# (home module, attribute path, layer, hot, hook).  The layer is where the
# time is charged; linprog is scipy's but is the oracle_solver LP.
TARGETS = (
    ("game_core", "payoff_n", "game_core", True, None),
    ("game_core", "best_deviation", "game_core", True, None),
    ("game_core", "cutpoints3", "game_core", True, None),
    ("game_core", "ordering_cell", "game_core", True, None),
    ("game_core", "payoff_n_batch", "game_core", False, _rows),
    ("game_core", "WeightedKernel.matrix", "game_core", False, _cells),
    ("strategy", "expect_vs", "strategy", True, None),
    ("strategy", "expect_joint", "strategy", False, None),
    ("strategy", "MixedStrategy.sample", "strategy", False, _draws),
    ("equilibria", "functional_residual", "equilibria", True, None),
    ("equilibria", "closed_form_curves", "equilibria", False, None),
    ("equilibria", "value_weighted", "equilibria", False, None),
    ("oracle_solver", "payoff_matrix", "oracle_solver", False, None),
    ("oracle_solver", "solve_matrix_game", "oracle_solver", False, _cert),
    ("oracle_solver", "linprog", "oracle_solver", False, _lp),
    ("oracle_solver", "exploitability", "oracle_solver", False, None),
    ("oracle_solver", "project_to_grid", "oracle_solver", False, None),
    ("oracle_solver", "pure_ne_scan", "oracle_solver", False, None),
    ("oracle_solver", "ddpm_probe", "oracle_solver", False, None),
    ("oracle_solver", "value_curve_oracle", "oracle_solver", False, None),
    ("experiments", "run_battery", "experiments", False, None),
    ("experiments", "br_dynamics", "experiments", False, _br_steps),
    ("experiments", "mc_tournament", "experiments", False, _mc_draws),
    ("experiments", "region_grid", "experiments", False, None),
    ("cli", "main", "cli", False, None),
)

_NAMERS = {"strategy.expect_vs": _expect_vs_name}


class _Stat:
    __slots__ = ("calls", "total", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.extra: dict[str, float] = {}


class Tracer:
    """Installs wrappers and accumulates spans, counters and self times."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.hot: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.self_time: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[list] = []  # [name, span id, child time]
        self._next_id = 0

    # -- installation -----------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every target; `modules` maps short names to imported modules."""
        namespaces = [m for m in modules.values() if m is not None]
        for home, path, layer, hot, hook in TARGETS:
            mod = modules.get(home)
            if mod is None:  # module not imported in this process
                continue
            owner_path, _, attr = path.rpartition(".")
            owner = mod
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(f"{home}.{path}")
                continue
            name = f"{layer}.{path}"
            wrapper = self._wrap(fn, name, layer, hot, hook)
            if owner_path:
                setattr(owner, attr, wrapper)
                continue
            for ns in namespaces:
                if ns.__dict__.get(attr) is fn:
                    setattr(ns, attr, wrapper)

    def _wrap(self, fn, name, layer, hot, hook):
        stack = self._stack
        self_time = self.self_time
        namer = _NAMERS.get(name)
        sig = inspect.signature(fn) if hook else None
        if hot:
            agg = self.hot

            def wrapper(*args, **kwargs):
                nm = namer(args, kwargs) if namer else name
                frame = [nm, None, 0.0]
                parent = stack[-1] if stack else None
                stack.append(frame)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = perf_counter() - t0
                    stack.pop()
                    self_time[layer] += d - frame[2]
                    if parent is not None:
                        parent[2] += d
                    rec = agg[(nm, parent[0] if parent else "")]
                    rec[0] += 1
                    rec[1] += d
        else:
            spans = self.spans
            st = self.stats[name]

            def wrapper(*args, **kwargs):
                sid = self._next_id
                self._next_id += 1
                frame = [name, sid, 0.0]
                parent = stack[-1] if stack else None
                stack.append(frame)
                t0 = perf_counter()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    t1 = perf_counter()
                    d = t1 - t0
                    stack.pop()
                    self_time[layer] += d - frame[2]
                    if parent is not None:
                        parent[2] += d
                    spans.append((sid, name, parent[1] if parent else None, t0, t1))
                    st.calls += 1
                    st.total += d
                    if hook is not None and result is not None:
                        bound = sig.bind(*args, **kwargs)
                        bound.apply_defaults()
                        for key, val in hook(bound.arguments, result).items():
                            _accumulate(st.extra, key, val)

        return functools.update_wrapper(wrapper, fn)

    # -- read-out -----------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per function: calls, inclusive seconds and hook counters."""
        out = {name: {"calls": st.calls, "s": st.total, **st.extra}
               for name, st in self.stats.items()}
        for (name, _parent), (calls, total) in self.hot.items():
            rec = out.setdefault(name, {"calls": 0, "s": 0.0})
            rec["calls"] += calls
            rec["s"] += total
        return out

    def summary(self) -> dict:
        """JSON-ready totals, layer self times and absent targets."""
        return {"functions": self.totals(), "self_s": dict(self.self_time),
                "absent": list(self.absent)}

    def records(self) -> list[dict]:
        """One record per span, then one per hot (name, parent) counter."""
        out = [{"id": sid, "name": name, "parent": parent, "start": t0, "end": t1}
               for sid, name, parent, t0, t1 in self.spans]
        out += [{"name": name, "parent": parent or None, "calls": calls, "s": total}
                for (name, parent), (calls, total) in sorted(self.hot.items())]
        return out


# Per-layer metrics: (metric, traced function, field, unit).  Counts and
# seconds are per traced pass; cert_max is the largest certificate seen.
LAYER_METRICS = (
    ("game_core.payoff_n_calls", "game_core.payoff_n", "calls", "count"),
    ("game_core.best_deviation_calls", "game_core.best_deviation", "calls", "count"),
    ("game_core.best_deviation_s", "game_core.best_deviation", "s", "s"),
    ("game_core.payoff_n_batch_rows", "game_core.payoff_n_batch", "rows", "count"),
    ("game_core.payoff_n_batch_s", "game_core.payoff_n_batch", "s", "s"),
    ("game_core.kernel_matrix_s", "game_core.WeightedKernel.matrix", "s", "s"),
    ("game_core.kernel_cells", "game_core.WeightedKernel.matrix", "cells", "count"),
    ("game_core.cutpoints3_calls", "game_core.cutpoints3", "calls", "count"),
    ("game_core.ordering_cell_calls", "game_core.ordering_cell", "calls", "count"),
    ("strategy.expect_vs_exact_calls", "strategy.expect_vs.exact", "calls", "count"),
    ("strategy.expect_vs_exact_s", "strategy.expect_vs.exact", "s", "s"),
    ("strategy.expect_vs_quad_calls", "strategy.expect_vs.quad", "calls", "count"),
    ("strategy.expect_vs_quad_s", "strategy.expect_vs.quad", "s", "s"),
    ("strategy.expect_joint_s", "strategy.expect_joint", "s", "s"),
    ("strategy.sample_draws", "strategy.MixedStrategy.sample", "draws", "count"),
    ("strategy.sample_s", "strategy.MixedStrategy.sample", "s", "s"),
    ("equilibria.functional_residual_calls", "equilibria.functional_residual", "calls", "count"),
    ("equilibria.functional_residual_s", "equilibria.functional_residual", "s", "s"),
    ("equilibria.closed_form_curves_s", "equilibria.closed_form_curves", "s", "s"),
    ("equilibria.value_weighted_s", "equilibria.value_weighted", "s", "s"),
    ("oracle_solver.payoff_matrix_s", "oracle_solver.payoff_matrix", "s", "s"),
    ("oracle_solver.solve_s", "oracle_solver.solve_matrix_game", "s", "s"),
    ("oracle_solver.lp_calls", "oracle_solver.linprog", "calls", "count"),
    ("oracle_solver.lp_s", "oracle_solver.linprog", "s", "s"),
    ("oracle_solver.lp_nit", "oracle_solver.linprog", "nit", "count"),
    ("oracle_solver.lp_failed", "oracle_solver.linprog", "failed", "count"),
    ("oracle_solver.lp_bytes", "oracle_solver.linprog", "bytes", "bytes"),
    ("oracle_solver.cert_max", "oracle_solver.solve_matrix_game", "cert_max", "payoff"),
    ("oracle_solver.exploitability_s", "oracle_solver.exploitability", "s", "s"),
    ("oracle_solver.project_to_grid_s", "oracle_solver.project_to_grid", "s", "s"),
    ("oracle_solver.pure_ne_scan_s", "oracle_solver.pure_ne_scan", "s", "s"),
    ("oracle_solver.ddpm_probe_s", "oracle_solver.ddpm_probe", "s", "s"),
    ("experiments.br_dynamics_s", "experiments.br_dynamics", "s", "s"),
    ("experiments.br_steps", "experiments.br_dynamics", "steps", "count"),
    ("experiments.mc_tournament_s", "experiments.mc_tournament", "s", "s"),
    ("experiments.mc_draws", "experiments.mc_tournament", "draws", "count"),
)


def _accumulate(acc: dict, key: str, val: float) -> None:
    """Counters add up; fields named *_max keep the largest value."""
    old = acc.get(key, 0)
    acc[key] = max(old, val) if key.endswith("_max") else old + val


def layer_metrics(functions: dict, passes: int) -> dict[str, float]:
    """LAYER_METRICS from summed tracer totals over `passes` traced passes."""
    out = {}
    for metric, fn, field, _unit in LAYER_METRICS:
        val = functions.get(fn, {}).get(field, 0)
        out[metric] = val if field.endswith("_max") else val / passes
    return out


def merge_totals(into: dict, functions: dict) -> None:
    """Add one tracer's totals into another's."""
    for fn, rec in functions.items():
        acc = into.setdefault(fn, {})
        for k, v in rec.items():
            _accumulate(acc, k, v)


def timed_imports(target: str) -> dict[str, float]:
    """Import numpy, the scipy submodules procurelab uses, then `target`; seconds each."""
    t0 = perf_counter()
    importlib.import_module("numpy")
    t1 = perf_counter()
    importlib.import_module("scipy.integrate")
    importlib.import_module("scipy.optimize")
    t2 = perf_counter()
    importlib.import_module(target)
    t3 = perf_counter()
    return {"import_numpy_s": t1 - t0, "import_scipy_s": t2 - t1, "import_s": t3 - t0}


def procurelab_modules() -> dict:
    """The imported procurelab submodules by short name, plus the package."""
    mods = {name.rpartition(".")[2]: mod for name, mod in list(sys.modules.items())
            if name.startswith("procurelab.") and mod is not None}
    mods["procurelab"] = sys.modules.get("procurelab")
    return mods

"""The four benchmark workloads: seeded inputs, op lists and correctness gates.

Each workload is a closed loop with one client: the worker runs its ops one
after another in a single process (cli-cold starts one CLI process per op
and waits for it).  An op returns ``(ok, payload, info)``: ``ok`` is its
correctness gate, ``payload`` the seeded output that must repeat byte for
byte, ``info`` extra numbers for the report.

Every call into procurelab goes through the module attribute at call time
(``strategy.expect_vs``, not a name imported once), so the tracer's
wrappers see it.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from procurelab import equilibria, experiments, game_core, oracle_solver, strategy

LADDER_N = (401, 801, 1601)
SCAN_EXACT_BIDS = 20_000
SCAN_QUAD_BIDS = 1_000
SCAN_RESIDUAL_POINTS = 1_000
SCAN_MC_DRAWS = 1_000_000
CLI_TIMEOUT_S = 60


def draw_weights(seed: int) -> tuple[np.random.Generator, float, float]:
    """The seeded generator and the weights p_hi in [0.26, 0.48], p_lo in [0.05, 0.20]."""
    rng = np.random.default_rng(seed)
    return rng, float(rng.uniform(0.26, 0.48)), float(rng.uniform(0.05, 0.20))


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# battery: the verification gate, dominated by scalar best-response play


def battery(seed: int, root: Path):
    cfg = game_core.default_config()

    def op(traced: bool):
        reports = experiments.run_battery(cfg, seed)
        payload = "\n".join(r.to_json() for r in reports)
        info = {"checks": {r.check: r.runtime_s for r in reports}}
        if not experiments.battery_passed(reports):
            info["error"] = "failed checks: " + ", ".join(r.check for r in reports
                                                          if not r.passed)
        return experiments.battery_passed(reports), payload, info

    return [("run_battery", op)], None


# ---------------------------------------------------------------------------
# grid-ladder: dense kernel matrices and HiGHS LPs, no strategy code


def grid_ladder(seed: int, root: Path):
    cfg = game_core.default_config()
    # One weight per regime: critical, intermediate, low p.  Fixed, not drawn:
    # at some drawn weights (p=0.0846806..., n=401) the LP certificate misses
    # its 1e-9 tolerance and the solve reports converged=False, which would
    # fail the run.  The seed orders the solves instead.
    ps = (game_core.critical_p(), 0.3, 0.1)

    def solve(p, n):
        def op(traced: bool):
            (row,) = oracle_solver.value_curve_oracle([p], cfg, [n])
            info = {"p": p, "n": n, "gap": row["gap"]}
            if not row["converged"]:
                info["error"] = "solver certificate above its tolerance"
            return bool(row["converged"]), _dumps(row), info
        return op

    ops = [(f"p={p!r},n={n}", solve(p, n)) for p in ps for n in LADDER_N]
    ops = [ops[i] for i in np.random.default_rng(seed).permutation(len(ops))]

    def pass_gate(results: dict) -> list[str]:
        """Keys of solves whose gap grew over the next smaller n at the same p."""
        bad = []
        for p in ps:
            gaps = [results[f"p={p!r},n={n}"].get("gap") for n in LADDER_N]
            if None in gaps:  # a solve raised; it already counts as failed
                continue
            bad += [f"p={p!r},n={n}" for n, lo, hi in zip(LADDER_N[1:], gaps, gaps[1:])
                    if hi > lo]
        return bad

    return ops, pass_gate


# ---------------------------------------------------------------------------
# equilibrium-scan: exact and quadrature expected payoffs, residuals, sampling


def _scan_cases(cfg, p_hi: float, p_lo: float):
    """(label, strategy builder, kernel weight, functional systems with domain)."""
    p_star = game_core.critical_p()
    sym = (equilibria.FunctionalSystem.SYMMETRIC,)
    weighted = (equilibria.FunctionalSystem.WEIGHTED_ROW,
                equilibria.FunctionalSystem.WEIGHTED_COLUMN)

    def sym_domain():
        return game_core.sym_sequence_A(2, cfg), (game_core.sym_sequence_A(1, cfg),)

    def weighted_domain(p):
        seq = game_core.weighted_sequences(p, 1, cfg)
        return seq.d_check[1], (seq.a_check[1], seq.a_hat[1])

    return (
        ("log", lambda: equilibria.log_equilibrium(cfg), 0.5, sym, sym_domain),
        # the critical equalizer is a uniform mixture and solves neither system
        ("critical", lambda: equilibria.critical_regime_strategy(cfg), p_star, (), None),
        ("weighted-hi", lambda: equilibria.weighted_equilibrium(p_hi, cfg), p_hi, weighted,
         lambda: weighted_domain(p_hi)),
        ("weighted-lo", lambda: equilibria.weighted_equilibrium(p_lo, cfg), p_lo, weighted,
         lambda: weighted_domain(p_lo)),
    )


def equilibrium_scan(seed: int, root: Path):
    cfg = game_core.default_config()
    rng, p_hi, p_lo = draw_weights(seed)
    span = cfg.B - cfg.A
    AS_ROW, AS_COLUMN = game_core.Side.AS_ROW, game_core.Side.AS_COLUMN
    ops = []
    for label, build, p, systems, domain in _scan_cases(cfg, p_hi, p_lo):
        row_bids = (cfg.A + span * rng.random(SCAN_EXACT_BIDS)).tolist()
        col_bids = (cfg.A + span * rng.random(SCAN_EXACT_BIDS)).tolist()
        mc_seed = int(rng.integers(2**31))

        def op(traced: bool, build=build, p=p, systems=systems, domain=domain,
               row_bids=row_bids, col_bids=col_bids, mc_seed=mc_seed):
            s = build()
            kern = game_core.WeightedKernel(p=p, cfg=cfg)
            v = equilibria.value_weighted(p).v
            ev = strategy.expect_vs
            row = [ev(x, s, kern, side=AS_ROW, method="exact") for x in row_bids]
            col = [ev(x, s, kern, side=AS_COLUMN, method="exact") for x in col_bids]
            k = SCAN_QUAD_BIDS
            quad_dev = max(
                max(abs(ev(x, s, kern, side=AS_ROW, method="quadrature") - e)
                    for x, e in zip(row_bids[:k], row[:k])),
                max(abs(ev(x, s, kern, side=AS_COLUMN, method="quadrature") - e)
                    for x, e in zip(col_bids[:k], col[:k])),
            )
            resid = 0.0
            if systems:
                hi, avoid = domain()
                xs = np.linspace(cfg.A, hi - 1e-9, SCAN_RESIDUAL_POINTS)
                for a in avoid:
                    xs = xs[np.abs(xs - a) > 1e-9]
                resid = max(abs(equilibria.functional_residual(sy, s, float(x), p, cfg))
                            for sy in systems for x in xs)
            joint = strategy.expect_joint(s, s, kern).value
            mc = experiments.mc_tournament([s, s], kern, SCAN_MC_DRAWS, mc_seed)
            res = {
                "p": p, "v": v, "row_max": max(row), "col_min": min(col),
                "quad_dev": quad_dev, "residual_max": resid, "joint": joint,
                "mc_mean": mc.means[0], "mc_stderr": mc.stderrs[0],
            }
            z = abs(mc.means[0] - v) / mc.stderrs[0]
            gates = {
                "row max above v": res["row_max"] > v + 1e-9,
                "column min below v": res["col_min"] < v - 1e-9,
                "quadrature off exact": quad_dev > 1e-8,
                "residual": resid > 1e-9,
                "joint value off v": abs(joint - v) > 1e-9,
                "Monte Carlo beyond 4 stderr": z > 4.0,
            }
            failed = [name for name, bad in gates.items() if bad]
            info = {"z": z, **({"error": ", ".join(failed)} if failed else {})}
            return not failed, _dumps(res), info

        ops.append((label, op))
    return ops, None


# ---------------------------------------------------------------------------
# cli-cold: one fresh interpreter per invocation, so import cost shows


def cli_args(seed: int) -> list[list[str]]:
    rng, p_hi, _ = draw_weights(seed)
    cfg = game_core.default_config()
    start = cfg.A + (cfg.B - cfg.A) * rng.random(2)
    return [
        ["regimes", "--p", "0.1"],
        ["cutpoints3", "--y", "0.9", "--z", "0.8"],
        ["solve-grid", "--p", "0.3", "--n", "101"],
        ["simulate", "--row", "log", "--col", "log", "--samples", "100000", "--seed", str(seed)],
        ["verify", "--strategy", "log", "--grid", "200"],
        ["verify", "--strategy", "weighted", "--p", repr(p_hi), "--grid", "200"],
        ["value-curve", "--p-min", "0.25", "--p-max", "0.5", "--steps", "6"],
        ["ddpm-probe", "--samples", "200", "--seed", str(seed)],
        ["pure-ne-scan", "--N", "2", "--n", "51"],
        ["region-grid", "--kind", "WeightedP", "--p", "0.3", "--resolution", "64"],
        ["br-dynamics", "--start", ",".join(repr(float(b)) for b in start), "--steps", "1000"],
    ]


def cli_cold(seed: int, root: Path):
    launcher = str(Path(__file__).with_name("clitrace.py"))
    out_dir = root / "perfbench" / "out"

    def invoke(args):
        def op(traced: bool):
            cmd = [sys.executable, "-m", "procurelab.cli", *args]
            trace_file = None
            if traced:
                out_dir.mkdir(parents=True, exist_ok=True)
                fd, trace_file = tempfile.mkstemp(suffix=".json", dir=out_dir)
                os.close(fd)
                cmd = [sys.executable, launcher, trace_file, *args]
            try:
                proc = subprocess.run(cmd, cwd=root, capture_output=True,
                                      timeout=CLI_TIMEOUT_S)
                info = {"rc": proc.returncode}
                if proc.returncode != 0:
                    info["error"] = f"exit {proc.returncode}: {proc.stderr.decode()[-200:]}"
                if trace_file is not None and proc.returncode == 0:
                    info["trace"] = json.loads(Path(trace_file).read_text())
            finally:
                if trace_file is not None:
                    os.unlink(trace_file)
            if proc.returncode == 0 and b"run_config" not in proc.stdout:
                info["error"] = "no run_config in stdout"
            return "error" not in info, proc.stdout.decode(), info
        return op

    return [(" ".join(a), invoke(a)) for a in cli_args(seed)], None


WORKLOADS = {
    "battery": battery,
    "grid-ladder": grid_ladder,
    "equilibrium-scan": equilibrium_scan,
    "cli-cold": cli_cold,
}

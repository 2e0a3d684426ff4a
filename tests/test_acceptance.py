"""Acceptance gate: the twelve primary criteria, one printed line each.

Each test prints `criterion NN [PASS|FAIL] label` through the capture so the
line is visible in any pytest run, then asserts.  Tolerances are the package's
contractual gates; weakening them here voids the gate.

What a battery check computes, a criterion reads from the session `battery`
fixture rather than computing again: it asserts that the named reports
passed at a tolerance, and on samples, no looser than its own.  What no
battery check computes (the grid LPs, the quadrature scans) stays here.
"""
import time

import numpy as np

from procurelab.equilibria import (
    CurveKind,
    closed_form_curves,
    critical_regime_strategy,
    log_equilibrium,
    uniform_equilibrium,
    value_weighted,
    weighted_equilibrium,
)
from procurelab.game_core import (
    Side,
    WeightedKernel,
    critical_p,
    default_config,
    sym_sequence_A,
    symmetric_kernel,
)
from procurelab.oracle_solver import (
    make_grid,
    payoff_matrix,
    solve_matrix_game,
    value_curve_oracle,
)
from procurelab.strategy import expect_vs

CFG = default_config()
P_STAR = critical_p()


def announce(capsys, num: int, ok: bool, label: str, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    with capsys.disabled():
        print(f"criterion {num:02d} [{tag}] {label}{suffix}")


def read(battery, gates: dict) -> tuple[bool, list]:
    """The battery reports named by `gates`, in its order, and whether each
    passed at a tolerance no looser than the one `gates` gives it."""
    by_name = {r.check: r for r in battery}
    picked = [by_name[name] for name in gates]
    return all(r.passed and r.tolerance <= gates[r.check] for r in picked), picked


def at_least(report, **need) -> bool:
    """Whether the report's parameters reach each needed size: a number no
    smaller, a list holding every needed value, a flag set."""
    def reaches(have, want):
        return set(want) <= set(have) if isinstance(want, list) else have >= want

    return all(reaches(report.parameters[key], want) for key, want in need.items())


def test_criterion_01_symmetric_grid_value(capsys):
    t0 = time.perf_counter()
    worst_v = worst_e = 0.0
    for n in (51, 201):
        g = make_grid(n, CFG)
        sol = solve_matrix_game(payoff_matrix(symmetric_kernel(CFG), g, g))
        worst_v = max(worst_v, abs(sol.value - 0.5))
        worst_e = max(worst_e, sol.exploitability)
    elapsed = time.perf_counter() - t0
    ok = worst_v <= 1e-3 and worst_e <= 1e-3 and elapsed < 30.0
    announce(capsys, 1, ok, "symmetric grid value is one half",
             f"|value-0.5| {worst_v:.2e}, exploitability {worst_e:.2e}, {elapsed:.1f}s")
    assert ok


def _symmetric_scan(s):
    kern = symmetric_kernel(CFG)
    a2 = sym_sequence_A(2, CFG)
    xs = np.linspace(CFG.A, CFG.B, 2_000)
    g = expect_vs(xs, s, kern, method="quadrature")
    over = max(0.0, float((g - 0.5).max()))
    flat = max(0.0, float(np.abs(g[xs <= a2] - 0.5).max()))
    return over, flat


def test_criterion_02_uniform_based_equilibrium(capsys):
    t0 = time.perf_counter()
    over, flat = _symmetric_scan(uniform_equilibrium(CFG))
    agree = 0.0
    kern = symmetric_kernel(CFG)
    s = uniform_equilibrium(CFG)
    xs = np.linspace(CFG.A, CFG.B, 500)
    for side in (Side.AS_ROW, Side.AS_COLUMN):
        curve = closed_form_curves(CurveKind.SYM_UNIFORM, 0.5, CFG, side=side)
        ref = expect_vs(xs, s, kern, side=side, method="quadrature")
        agree = max(agree, float(np.abs(curve(xs) - ref).max()))
    elapsed = time.perf_counter() - t0
    ok = over <= 1e-6 and flat <= 1e-6 and agree <= 1e-6 and elapsed < 10.0
    announce(capsys, 2, ok, "uniform-based equilibrium holds the game at 1/2",
             f"overshoot {over:.2e}, flat band {flat:.2e}, "
             f"curve agreement {agree:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_03_log_equilibrium(battery, capsys):
    s = log_equilibrium(CFG)
    over, flat = _symmetric_scan(s)
    # the p = 1/2 block of functional-residuals is the log strategy's
    # symmetric system on [A, A_2) off A_1
    ok, (res,) = read(battery, {"functional-residuals": 1e-9})
    ok = ok and at_least(res, p=[0.5], points=1_000)
    mass_exact = s.total_mass == 1.0
    ok = ok and over <= 1e-6 and flat <= 1e-6 and mass_exact
    announce(capsys, 3, ok, "log-density equilibrium: bounds, residuals, exact mass",
             f"overshoot {over:.2e}, flat band {flat:.2e}, residual {res.max_violation:.2e}, "
             f"mass {s.total_mass!r}")
    assert ok


def test_criterion_04_value_formula_anchors(battery, capsys):
    ok, (half, crit, ident) = read(battery, {
        "value-at-half": 1e-12, "value-at-critical": 1e-10, "critical-map-identity": 1e-9,
    })
    ok = ok and at_least(ident, configs=2)
    announce(capsys, 4, ok, "explicit value anchors and the critical map identity",
             f"|v(1/2)-1/2| {half.max_violation:.2e}, |v(p*)-1/3| {crit.max_violation:.2e}, "
             f"map identity {ident.max_violation:.2e}")
    assert ok


def _quadrature_bounds(s, kern, v):
    """How far the row payoff rises above v, and the column payoff falls
    below it, on 2,000 bids across [A, B] (0.0 when it never does)."""
    xs = np.linspace(CFG.A, CFG.B, 2_000)
    row = expect_vs(xs, s, kern, method="quadrature", side=Side.AS_ROW)
    col = expect_vs(xs, s, kern, method="quadrature", side=Side.AS_COLUMN)
    return max(0.0, float((row - v).max())), max(0.0, float((v - col).max()))


def test_criterion_05_weighted_equilibrium_p03(battery, capsys):
    s = weighted_equilibrium(0.3, CFG)
    v = value_weighted(0.3).v
    row_over, col_under = _quadrature_bounds(s, WeightedKernel(p=0.3, cfg=CFG), v)
    ok, (mass, res, joint) = read(battery, {
        "strategy-normalization": 1e-12, "functional-residuals": 1e-9,
        "joint-value-consistency": 1e-6,
    })
    ok = ok and at_least(res, p=[0.3], points=1_000) and at_least(joint, p=[0.3])
    # |joint - 0.376992| <= |v - 0.376992| + |joint - v|: the paper's anchor
    # holds for the joint value if this bound meets it
    anchor = abs(v - 0.376992) + joint.max_violation
    ok = ok and row_over <= 1e-6 and col_under <= 1e-6 and anchor <= 1e-6
    announce(capsys, 5, ok, "weighted equilibrium at p=0.3",
             f"mass {mass.max_violation:.2e}, row over {row_over:.2e}, "
             f"col under {col_under:.2e}, residual {res.max_violation:.2e}, "
             f"joint value off at most {anchor:.2e}")
    assert ok


def test_criterion_06_grid_refinement_convergence(capsys):
    t0 = time.perf_counter()
    ladder = [101, 201, 401, 801]
    rows = value_curve_oracle([0.3, P_STAR], CFG, ladder)
    ok = all(r["converged"] for r in rows)
    details = []
    for p in (0.3, P_STAR):
        gaps = [r["gap"] for r in rows if r["p"] == p]
        ok = ok and all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        ok = ok and gaps[-1] <= 0.03
        details.append(f"p={p:.4g} gaps {gaps[0]:.2e}->{gaps[-1]:.2e}")
    adjud = value_curve_oracle([0.45], CFG, [401])[0]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    announce(capsys, 6, ok, "grid values converge to the explicit formula",
             "; ".join(details)
             + f"; p=0.45 adjudication: closer={adjud['closer']}, "
               f"formula gap {adjud['gap']:.2e}, "
               f"benchmark gap {adjud['benchmark_gap']:.2e}; {elapsed:.1f}s")
    assert ok


def test_criterion_07_payoff_implementations_agree(battery, capsys):
    ok, (cons, comb, three) = read(battery, {
        "payoff-conservation": 1e-12, "combinatorial-agreement": 0.0,
        "three-player-agreement": 0.0,
    })
    ok = (ok and at_least(cons, profiles=10_000, N=[2, 3, 4], tie_share=0.25)
          and at_least(comb, profiles=10_000, N=[2, 3, 4], tie_share=0.25,
                       three_way_share=0.125)
          and at_least(three, profiles=100_000, conservation=True))
    announce(capsys, 7, ok, "payoff implementations agree and conserve the award",
             f"mismatches {comb.max_violation:.0f}, three-player dev {three.max_violation}, "
             f"conservation {cons.max_violation:.2e}")
    assert ok


def test_criterion_08_three_player_geometry(battery, capsys):
    ok, picked = read(battery, {
        "cutpoint-relations": 1e-12, "ordering-cells-exhaustive": 0.0, "jump-sign-scan": 0.0,
    })
    announce(capsys, 8, ok, "three-player cutpoint geometry",
             ", ".join(f"{r.check} {r.max_violation:.2e}" for r in picked))
    assert ok


def test_criterion_09_no_pure_equilibrium(battery, capsys):
    ok, (scan, dyn) = read(battery, {"pure-ne-scan": 0.0, "br-dynamics-no-fixed-point": 0.0})
    announce(capsys, 9, ok, "no pure equilibrium on grids or under play",
             f"scan worst {scan.worst}, dynamics worst {dyn.worst}")
    assert ok


def test_criterion_10_critical_regime(capsys):
    s = critical_regime_strategy(CFG)
    kern = WeightedKernel(p=P_STAR, cfg=CFG)
    row_over, col_under = _quadrature_bounds(s, kern, 1.0 / 3.0)
    ok = row_over <= 1e-6 and col_under <= 1e-6
    announce(capsys, 10, ok, "critical-weight strategy pins the value at 1/3",
             f"row over {row_over:.2e}, col under {col_under:.2e}")
    assert ok


def test_criterion_11_tie_hypersurface_probes(battery, capsys):
    ok, (report,) = read(battery, {"ddpm-one-sided-limits": 0.0})
    ok = ok and at_least(report, samples=1_000)
    announce(capsys, 11, ok, "one-sided limits at the tie hypersurfaces",
             f"violations {report.max_violation}, "
             f"classes {report.parameters.get('per_class')}")
    assert ok


def test_criterion_12_monte_carlo_consistency(battery, capsys):
    ok, (mc,) = read(battery, {"mc-consistency": 1.0})
    announce(capsys, 12, ok, "seeded Monte Carlo matches quadrature values",
             f"worst 4-stderr ratio {mc.max_violation:.3f}")
    assert ok

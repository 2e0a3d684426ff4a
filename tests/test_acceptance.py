"""Acceptance gate: the twelve primary criteria, one printed line each.

Each test prints `criterion NN [PASS|FAIL] label` through the capture so the
line is visible in any pytest run, then asserts.  Tolerances are the package's
contractual gates; weakening them here voids the gate.
"""
import math
import time

import numpy as np

from procurelab._rng import derive_seed, uniform_stream
from procurelab.equilibria import (
    CurveKind,
    FunctionalSystem,
    closed_form_curves,
    critical_regime_strategy,
    functional_residual,
    log_equilibrium,
    uniform_equilibrium,
    value_weighted,
    weighted_equilibrium,
)
from procurelab.game_core import (
    MarketConfig,
    Side,
    WeightedKernel,
    critical_p,
    default_config,
    maps_p,
    payoff_3,
    payoff_n,
    payoff_n_batch,
    payoff_n_combinatorial,
    sym_sequence_A,
    symmetric_kernel,
    weighted_sequences,
)
from procurelab.oracle_solver import (
    ddpm_probe,
    make_grid,
    payoff_matrix,
    solve_matrix_game,
    value_curve_oracle,
)
from procurelab.strategy import expect_joint, expect_vs

CFG = default_config()
P_STAR = critical_p()


def announce(capsys, num: int, ok: bool, label: str, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    with capsys.disabled():
        print(f"criterion {num:02d} [{tag}] {label}{suffix}")


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


def test_criterion_03_log_equilibrium(capsys):
    s = log_equilibrium(CFG)
    over, flat = _symmetric_scan(s)
    a1, a2 = sym_sequence_A(1, CFG), sym_sequence_A(2, CFG)
    xs = np.linspace(CFG.A, a2 - 1e-9, 1_000)
    xs = xs[np.abs(xs - a1) > 1e-9]
    residual = max(
        abs(functional_residual(FunctionalSystem.SYMMETRIC, s, float(x), 0.5, CFG))
        for x in xs
    )
    mass_exact = s.total_mass == 1.0
    ok = over <= 1e-6 and flat <= 1e-6 and residual <= 1e-9 and mass_exact
    announce(capsys, 3, ok, "log-density equilibrium: bounds, residuals, exact mass",
             f"overshoot {over:.2e}, flat band {flat:.2e}, residual {residual:.2e}, "
             f"mass {s.total_mass!r}")
    assert ok


def test_criterion_04_value_formula_anchors(capsys):
    dev_half = abs(value_weighted(0.5).v - 0.5)
    dev_crit = abs(value_weighted(P_STAR).v - 1.0 / 3.0)
    dev_map = 0.0
    for c in (CFG, MarketConfig(A=0.2, B=2.0, E=1.1)):
        seq = weighted_sequences(P_STAR, 2, c)
        dev_map = max(dev_map, abs(maps_p(P_STAR, c).h2(seq.a_check[2]) - c.A))
    ok = dev_half <= 1e-12 and dev_crit <= 1e-10 and dev_map <= 1e-9
    announce(capsys, 4, ok, "explicit value anchors and the critical map identity",
             f"|v(1/2)-1/2| {dev_half:.2e}, |v(p*)-1/3| {dev_crit:.2e}, "
             f"map identity {dev_map:.2e}")
    assert ok


def _quadrature_bounds(s, kern, v):
    """How far the row payoff rises above v, and the column payoff falls
    below it, on 2,000 bids across [A, B] (0.0 when it never does)."""
    xs = np.linspace(CFG.A, CFG.B, 2_000)
    row = expect_vs(xs, s, kern, method="quadrature", side=Side.AS_ROW)
    col = expect_vs(xs, s, kern, method="quadrature", side=Side.AS_COLUMN)
    return max(0.0, float((row - v).max())), max(0.0, float((v - col).max()))


def test_criterion_05_weighted_equilibrium_p03(capsys):
    s = weighted_equilibrium(0.3, CFG)
    kern = WeightedKernel(p=0.3, cfg=CFG)
    v = value_weighted(0.3).v
    mass_dev = abs(s.total_mass - 1.0)
    row_over, col_under = _quadrature_bounds(s, kern, v)
    seq = weighted_sequences(0.3, 1, CFG)
    xs = np.linspace(CFG.A, seq.d_check[1] - 1e-9, 1_000)
    for avoid in (seq.a_check[1], seq.a_hat[1]):
        xs = xs[np.abs(xs - avoid) > 1e-9]
    residual = max(
        abs(functional_residual(system, s, float(x), 0.3, CFG))
        for system in (FunctionalSystem.WEIGHTED_ROW, FunctionalSystem.WEIGHTED_COLUMN)
        for x in xs
    )
    joint_dev = abs(expect_joint(s, s, kern).value - 0.376992)
    ok = (mass_dev <= 1e-12 and row_over <= 1e-6 and col_under <= 1e-6
          and residual <= 1e-9 and joint_dev <= 1e-6)
    announce(capsys, 5, ok, "weighted equilibrium at p=0.3",
             f"mass {mass_dev:.2e}, row over {row_over:.2e}, col under {col_under:.2e}, "
             f"residual {residual:.2e}, joint value off {joint_dev:.2e}")
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


def test_criterion_07_payoff_implementations_agree(capsys):
    span = CFG.B - CFG.A
    mismatches = 0
    conservation = 0.0
    for n_players in (2, 3, 4):
        u = uniform_stream(derive_seed(42, "acceptance-comb", n_players),
                           10_000 * n_players)
        bids = CFG.A + span * u.reshape(10_000, n_players)
        bids[: 2_500, 1] = bids[: 2_500, 0]  # forced ties
        oracle = payoff_n_combinatorial(bids, CFG).tolist()
        mismatches += sum(list(payoff_n(prof, CFG)) != want
                          for prof, want in zip(bids.tolist(), oracle))
        conservation = max(
            conservation, float(np.abs(payoff_n_batch(bids, CFG).sum(axis=1) - 1.0).max())
        )
    u = uniform_stream(derive_seed(42, "acceptance-three"), 300_000)
    triples = CFG.A + span * u.reshape(100_000, 3)
    direct = payoff_3(*triples.T, CFG)
    general = payoff_n_batch(triples, CFG)
    three_dev = float(np.abs(direct - general[:, 0]).max())
    conservation = max(conservation, float(np.abs(general.sum(axis=1) - 1.0).max()))
    ok = mismatches == 0 and three_dev == 0.0 and conservation <= 1e-12
    announce(capsys, 7, ok, "payoff implementations agree and conserve the award",
             f"mismatches {mismatches}, three-player dev {three_dev}, "
             f"conservation {conservation:.2e}")
    assert ok


def test_criterion_08_three_player_geometry(battery, capsys):
    by_name = {r.check: r for r in battery}
    picked = [by_name[name] for name in
              ("cutpoint-relations", "ordering-cells-exhaustive", "jump-sign-scan")]
    ok = all(r.passed for r in picked)
    announce(capsys, 8, ok, "three-player cutpoint geometry",
             ", ".join(f"{r.check} {r.max_violation:.2e}" for r in picked))
    assert ok


def test_criterion_09_no_pure_equilibrium(battery, capsys):
    by_name = {r.check: r for r in battery}
    scan = by_name["pure-ne-scan"]
    dyn = by_name["br-dynamics-no-fixed-point"]
    ok = scan.passed and dyn.passed
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


def test_criterion_11_tie_hypersurface_probes(capsys):
    report = ddpm_probe(1_000, derive_seed(42, "acceptance-ddpm"), CFG)
    ok = report.passed and report.max_violation == 0.0
    announce(capsys, 11, ok, "one-sided limits at the tie hypersurfaces",
             f"violations {report.max_violation}, "
             f"classes {report.parameters.get('per_class')}")
    assert ok


def test_criterion_12_monte_carlo_consistency(battery, capsys):
    mc = {r.check: r for r in battery}["mc-consistency"]
    ok = mc.passed
    announce(capsys, 12, ok, "seeded Monte Carlo matches quadrature values",
             f"worst 4-stderr ratio {mc.max_violation:.3f}")
    assert ok

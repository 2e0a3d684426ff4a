"""Tests for closed-form equilibria, the explicit value, curves, and residuals."""
import math

import numpy as np
import pytest

from procurelab import equilibria as eq
from procurelab import game_core as gc
from procurelab import strategy as st
from procurelab.equilibria import CurveKind, FunctionalSystem, ValueReport
from procurelab.game_core import (
    DomainError,
    MarketConfig,
    Regime,
    Side,
    WeightedKernel,
    critical_p,
    default_config,
    sym_sequence_A,
    weighted_sequences,
)
from procurelab.strategy import MixedStrategy, Piece, PieceKind

CFG = default_config()
SYM = gc.symmetric_kernel(CFG)
P_STAR = critical_p()

V03 = 0.37699184903068894  # value at p = 0.3, from the log-ratio formula


class TestConstructors:
    def test_uniform_shape(self):
        s = eq.uniform_equilibrium(CFG)
        flat = [v for p in s.pieces for v in (p.a, p.b, p.w)]
        assert flat == pytest.approx(
            [0.0, 2.0 / 3.0, 0.5, 2.0 / 3.0, 8.0 / 9.0, 0.5], abs=1e-15
        )
        # densities 3/4 and 9/4 on the two blocks
        assert s.density(0.3) == pytest.approx(0.75)
        assert s.density(0.8) == pytest.approx(2.25)

    def test_log_shape(self):
        s = eq.log_equilibrium(CFG)
        (pc,) = s.pieces
        assert pc.kind is PieceKind.RECIPROCAL and (pc.a, pc.b, pc.w) == (0.0, 8.0 / 9.0, 1.0)
        assert s.density(0.0) == pytest.approx(1.0 / math.log(9.0), abs=1e-15)
        assert s.density(8.0 / 9.0 - 1e-12) == pytest.approx(9.0 / math.log(9.0), rel=1e-9)
        assert s.total_mass == pytest.approx(1.0, abs=1e-15)

    def test_weighted_support_and_density(self):
        s = eq.weighted_equilibrium(0.3, CFG)
        (pc,) = s.pieces
        assert pc.b == pytest.approx(200.0 / 221.0, abs=1e-15)
        assert s.density(0.0) == pytest.approx(1.0 / math.log(221.0 / 21.0), abs=1e-15)

    def test_weighted_reduces_to_log_at_half(self):
        assert eq.weighted_equilibrium(0.5, CFG) == eq.log_equilibrium(CFG)

    def test_weighted_normalized_for_seeded_p(self):
        rng = np.random.default_rng(11)
        for p in rng.uniform(0.01, 0.5, 20):
            s = eq.weighted_equilibrium(float(p), CFG)
            assert abs(s.total_mass - 1.0) <= 1e-12

    def test_weighted_domain(self):
        for bad in (0.0, -0.1, 0.51, float("nan")):
            with pytest.raises(DomainError):
                eq.weighted_equilibrium(bad, CFG)

    def test_critical_thirds(self):
        s = eq.critical_regime_strategy(CFG)
        assert len(s.pieces) == 3
        assert all(pc.w == pytest.approx(1.0 / 3.0) for pc in s.pieces)
        seq = weighted_sequences(P_STAR, 3, CFG)
        assert s.pieces[0].a == CFG.A
        assert s.pieces[-1].b == pytest.approx(seq.a_check[3])

    def test_other_config(self):
        cfg2 = MarketConfig(0.2, 2.0, 1.1)
        for s in (
            eq.uniform_equilibrium(cfg2),
            eq.log_equilibrium(cfg2),
            eq.weighted_equilibrium(0.3, cfg2),
            eq.critical_regime_strategy(cfg2),
        ):
            assert abs(s.total_mass - 1.0) <= 1e-12


class TestEquilibriumInequalities:
    def test_uniform_holds_half(self):
        nu = eq.uniform_equilibrium(CFG)
        a2 = sym_sequence_A(2, CFG)
        xs = np.linspace(CFG.A, CFG.B, 2000)
        vals = np.array([st.expect_vs(float(x), nu, SYM) for x in xs])
        assert vals.max() <= 0.5 + 1e-6
        assert np.abs(vals[xs <= a2] - 0.5).max() <= 1e-6

    def test_log_holds_half(self):
        nu = eq.log_equilibrium(CFG)
        a2 = sym_sequence_A(2, CFG)
        xs = np.linspace(CFG.A, CFG.B, 2000)
        vals = np.array([st.expect_vs(float(x), nu, SYM) for x in xs])
        assert vals.max() <= 0.5 + 1e-6
        assert np.abs(vals[xs <= a2] - 0.5).max() <= 1e-6

    def test_critical_is_equalizer(self):
        s = eq.critical_regime_strategy(CFG)
        kern = WeightedKernel(P_STAR, CFG)
        top = s.pieces[-1].b
        xs = np.linspace(CFG.A, CFG.B, 801)
        row = np.array([st.expect_vs(float(x), s, kern) for x in xs])
        assert row.max() <= 1.0 / 3.0 + 1e-6
        assert np.abs(row[xs < top - 1e-9] - 1.0 / 3.0).max() <= 1e-6
        col = np.array([st.expect_vs(float(y), s, kern, side=Side.AS_COLUMN) for y in xs])
        assert col.min() >= 1.0 / 3.0 - 1e-6

    def test_weighted_brackets_value(self):
        w = eq.weighted_equilibrium(0.3, CFG)
        kern = WeightedKernel(0.3, CFG)
        xs = np.linspace(CFG.A, CFG.B, 500)
        row = np.array([st.expect_vs(float(x), w, kern) for x in xs])
        col = np.array([st.expect_vs(float(y), w, kern, side=Side.AS_COLUMN) for y in xs])
        assert row.max() <= V03 + 1e-6
        assert col.min() >= V03 - 1e-6

    def test_joint_value_consistency(self):
        for p in (0.3, P_STAR, 0.5):
            w = eq.weighted_equilibrium(p, CFG)
            j = st.expect_joint(w, w, WeightedKernel(p, CFG))
            assert j.value == pytest.approx(eq.value_weighted(p).v, abs=1e-6)


class TestRegimeFamily:
    def test_intermediate_partition_frozen(self):
        cells = eq.regime_partition(0.3, CFG)
        bounds = [cells[0][0]] + [hi for _, hi in cells]
        expect = [0.0, 230.0 / 867.0, 10.0 / 17.0, 10280.0 / 14739.0, 240.0 / 289.0, 200.0 / 221.0]
        assert bounds == pytest.approx(expect, abs=1e-12)

    def test_low_p_partition_has_gaps(self):
        cells = eq.regime_partition(0.1, CFG)
        assert len(cells) == 5  # m = 2
        seq = weighted_sequences(0.1, 6, CFG)
        assert cells[0][0] == pytest.approx(seq.d_hat[3])
        assert cells[0][1] == pytest.approx(seq.a_check[1])
        assert cells[-1] == pytest.approx((seq.a_check[4], seq.d_check[1]))
        # strictly positive gaps between cells 2-3 and 4-5
        assert cells[2][0] > cells[1][1] + 1e-3
        assert cells[4][0] > cells[3][1] + 1e-3

    def test_low_p_cell_counts(self):
        assert len(eq.regime_partition(0.05, CFG)) == 6  # m = 3
        assert len(eq.regime_partition(P_STAR - 1e-4, CFG)) == 4  # m = 1

    def test_partition_regime_guard(self):
        for p in (0.5, P_STAR, 0.0):
            with pytest.raises(DomainError):
                eq.regime_partition(p, CFG)

    def test_partition_other_config(self):
        cfg2 = MarketConfig(0.2, 2.0, 1.1)
        for p in (0.3, 0.1):
            cells = eq.regime_partition(p, cfg2)
            assert cfg2.A <= cells[0][0] and cells[-1][1] < cfg2.E


class TestValue:
    def test_anchors(self):
        assert eq.value_weighted(0.5).v == pytest.approx(0.5, abs=1e-12)
        assert eq.value_weighted(P_STAR).v == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert eq.value_weighted(0.3).v == pytest.approx(0.376992, abs=5e-7)
        assert eq.value_weighted(0.1).v == pytest.approx(0.237580, abs=5e-7)

    def test_report_fields(self):
        r = eq.value_weighted(0.3)
        assert r.regime is Regime.INTERMEDIATE and r.m is None
        assert r.benchmark == pytest.approx(0.4)
        assert r.epsilon_p == pytest.approx(0.4 - V03)
        r = eq.value_weighted(0.1)
        assert r.regime is Regime.LOW_P and r.m == 2
        assert r.benchmark == pytest.approx(0.25)
        r = eq.value_weighted(0.45)
        # the formula runs above the 2/5 benchmark here; sign is reported as is
        assert r.epsilon_p < 0

    def test_degenerate(self):
        r = eq.value_weighted(0.0)
        assert r.v == 0.0 and r.regime is Regime.DEGENERATE and r.epsilon_p == 0.0

    def test_bounds_on_range(self):
        for p in np.linspace(0.01, 0.5, 50):
            assert 0.0 <= eq.value_weighted(float(p)).v <= 1.0

    def test_json(self):
        import json

        d = json.loads(eq.value_weighted(0.1).to_json())
        assert d["regime"] == "LowP" and d["m"] == 2

    def test_domain(self):
        with pytest.raises(gc.UnsupportedError):
            eq.value_weighted(0.6)
        with pytest.raises(DomainError):
            eq.value_weighted(-0.1)


class TestCurves:
    def test_sym_uniform_anchors(self):
        row = eq.closed_form_curves(CurveKind.SYM_UNIFORM, 0.5, CFG)
        assert row(25.0 / 27.0) == pytest.approx(0.25, abs=1e-12)
        col = eq.closed_form_curves(CurveKind.SYM_UNIFORM, 0.5, CFG, side=Side.AS_COLUMN)
        assert col(8.0 / 9.0) == pytest.approx(0.5, abs=1e-12)
        assert col(26.0 / 27.0) == pytest.approx(1.0, abs=1e-12)
        assert row.breakpoints == pytest.approx((8.0 / 9.0, 26.0 / 27.0))

    def test_sym_log_flat_on_support(self):
        row = eq.closed_form_curves(CurveKind.SYM_LOG, 0.5, CFG)
        xs = np.linspace(CFG.A, 8.0 / 9.0, 100)
        assert np.abs(row(xs) - 0.5).max() <= 1e-12

    def test_weighted_breakpoints_are_map_images(self):
        m = gc.maps_p(0.3, CFG)
        a_tilde = 200.0 / 221.0
        row = eq.closed_form_curves(CurveKind.WEIGHTED_ROW, 0.3, CFG)
        col = eq.closed_form_curves(CurveKind.WEIGHTED_COLUMN, 0.3, CFG)
        assert row.breakpoints == pytest.approx((a_tilde, m.f2(a_tilde)), abs=1e-15)
        assert col.breakpoints == pytest.approx((a_tilde, m.f1(a_tilde)), abs=1e-15)

    @pytest.mark.parametrize(
        "kind,p,strat,side",
        [
            (CurveKind.SYM_UNIFORM, 0.5, "uniform", Side.AS_ROW),
            (CurveKind.SYM_UNIFORM, 0.5, "uniform", Side.AS_COLUMN),
            (CurveKind.SYM_LOG, 0.5, "log", Side.AS_ROW),
            (CurveKind.SYM_LOG, 0.5, "log", Side.AS_COLUMN),
            (CurveKind.WEIGHTED_ROW, 0.3, "weighted", Side.AS_ROW),
            (CurveKind.WEIGHTED_COLUMN, 0.3, "weighted", Side.AS_COLUMN),
        ],
    )
    def test_matches_quadrature(self, kind, p, strat, side):
        builders = {
            "uniform": eq.uniform_equilibrium,
            "log": eq.log_equilibrium,
            "weighted": lambda cfg: eq.weighted_equilibrium(p, cfg),
        }
        nu = builders[strat](CFG)
        curve = eq.closed_form_curves(kind, p, CFG, side=side if kind.value.startswith("Sym") else None)
        kern = WeightedKernel(p, CFG)
        rng = np.random.default_rng(7)
        xs = rng.uniform(CFG.A, CFG.B, 200)
        quad = np.array(
            [st.expect_vs(float(x), nu, kern, side=side, method="quadrature") for x in xs]
        )
        assert np.abs(curve(xs) - quad).max() <= 1e-6

    def test_bounded(self):
        xs = np.linspace(CFG.A, CFG.B, 500)
        for curve in (
            eq.closed_form_curves(CurveKind.SYM_UNIFORM, 0.5, CFG),
            eq.closed_form_curves(CurveKind.SYM_LOG, 0.5, CFG, side=Side.AS_COLUMN),
            eq.closed_form_curves(CurveKind.WEIGHTED_ROW, 0.1, CFG),
            eq.closed_form_curves(CurveKind.WEIGHTED_COLUMN, 0.1, CFG),
        ):
            vals = curve(xs)
            assert vals.min() >= 0.0 and vals.max() <= 1.0

    def test_guards(self):
        with pytest.raises(DomainError):
            eq.closed_form_curves(CurveKind.SYM_LOG, 0.3, CFG)
        with pytest.raises(DomainError):
            eq.closed_form_curves(CurveKind.WEIGHTED_ROW, 0.3, CFG, side=Side.AS_COLUMN)
        with pytest.raises(DomainError):
            eq.closed_form_curves(CurveKind.WEIGHTED_COLUMN, 0.0, CFG)
        curve = eq.closed_form_curves(CurveKind.SYM_LOG, 0.5, CFG)
        with pytest.raises(DomainError):
            curve(2.0)

    @pytest.mark.parametrize("kind", [CurveKind.WEIGHTED_ROW, CurveKind.WEIGHTED_COLUMN])
    def test_nan_bid_is_refused(self, kind):
        # a NaN among finite bids, or every bid NaN, is not a bid in [A, B]
        curve = eq.closed_form_curves(kind, 0.3, CFG)
        for xs in ([0.5, math.nan], [math.nan, math.nan], math.nan):
            with pytest.raises(DomainError, match="nan outside"):
                curve(np.array(xs))

    def test_fields(self):
        curve = eq.closed_form_curves(CurveKind.WEIGHTED_ROW, 0.3, CFG)
        assert curve.kind is CurveKind.WEIGHTED_ROW and len(curve.breakpoints) == 2
        assert curve.tags == ("flat-value", "log-decline", "zero")


class TestResiduals:
    def off_breakpoint_grid(self, top, avoid):
        xs = np.linspace(CFG.A, top - 1e-9, 1000)
        for a in avoid:
            xs = xs[np.abs(xs - a) > 1e-9]
        return xs

    def test_symmetric_log_solves_system(self):
        f = eq.log_equilibrium(CFG)
        a1, a2 = sym_sequence_A(1, CFG), sym_sequence_A(2, CFG)
        xs = self.off_breakpoint_grid(a2, [a1])
        res = [eq.functional_residual(FunctionalSystem.SYMMETRIC, f, float(x), 0.5, CFG) for x in xs]
        assert max(abs(r) for r in res) <= 1e-9

    def test_weighted_row_corrected_branch(self):
        f = eq.weighted_equilibrium(0.3, CFG)
        seq = weighted_sequences(0.3, 1, CFG)
        xs = self.off_breakpoint_grid(seq.d_check[1], [seq.a_check[1]])
        res = [
            eq.functional_residual(FunctionalSystem.WEIGHTED_ROW, f, float(x), 0.3, CFG)
            for x in xs
        ]
        assert max(abs(r) for r in res) <= 1e-9

    def test_weighted_column_literal(self):
        f = eq.weighted_equilibrium(0.3, CFG)
        seq = weighted_sequences(0.3, 1, CFG)
        xs = self.off_breakpoint_grid(seq.d_check[1], [seq.a_hat[1]])
        res = [
            eq.functional_residual(FunctionalSystem.WEIGHTED_COLUMN, f, float(x), 0.3, CFG)
            for x in xs
        ]
        assert max(abs(r) for r in res) <= 1e-9

    def test_alternating_markets_and_weights(self):
        # each (p, market) keeps its own maps, so alternating calls must not
        # hand one market's maps to another
        cases = []
        for cfg in (CFG, MarketConfig(0.2, 2.0, 1.1)):
            for p in (0.3, 0.1):
                seq = weighted_sequences(p, 1, cfg)
                xs = np.linspace(cfg.A, seq.d_check[1], 41)[1:-1]
                for a in (seq.a_check[1], seq.a_hat[1]):  # where the residual jumps
                    xs = xs[np.abs(xs - a) > 1e-9]
                cases.append((eq.weighted_equilibrium(p, cfg), p, cfg, xs))
        worst = max(
            abs(eq.functional_residual(system, f, float(xs[i]), p, cfg))
            for i in range(min(len(xs) for *_, xs in cases))
            for system in (FunctionalSystem.WEIGHTED_ROW, FunctionalSystem.WEIGHTED_COLUMN)
            for f, p, cfg, xs in cases
        )
        assert worst <= 1e-9

    def test_upper_branch_forces_zero_density(self):
        f = eq.log_equilibrium(CFG)
        assert eq.functional_residual(FunctionalSystem.SYMMETRIC, f, 1.2, 0.5, CFG) == 0.0
        above = MixedStrategy(
            (Piece(PieceKind.UNIFORM, 0.9, 1.2, 1.0),), (), CFG
        ).validate()
        r = eq.functional_residual(FunctionalSystem.SYMMETRIC, above, 1.1, 0.5, CFG)
        assert r == pytest.approx(-1.0 / 0.3, rel=1e-12)

    def test_guards(self):
        f = eq.log_equilibrium(CFG)
        with pytest.raises(DomainError):
            eq.functional_residual(FunctionalSystem.SYMMETRIC, f, 0.5, 0.3, CFG)
        atom = st.point_mass(0.5, CFG)
        with pytest.raises(DomainError):
            eq.functional_residual(FunctionalSystem.SYMMETRIC, atom, 0.5, 0.5, CFG)

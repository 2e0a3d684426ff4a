"""Tests for mixed-strategy representation and expected payoffs."""
import math

import numpy as np
import pytest

from procurelab import game_core as gc
from procurelab import strategy as st
from procurelab.game_core import DomainError, Interval, UnsupportedError, default_config
from procurelab.strategy import Atom, MixedStrategy, Piece, PieceKind

CFG = default_config()
SYM = gc.symmetric_kernel(CFG)

A1 = 2.0 / 3.0
A2 = 8.0 / 9.0


def uniform_pair() -> MixedStrategy:
    # half the mass flat on [A, A1), half on [A1, A2)
    return MixedStrategy(
        (Piece(PieceKind.UNIFORM, 0.0, A1, 0.5), Piece(PieceKind.UNIFORM, A1, A2, 0.5)),
        (),
        CFG,
    ).validate()


def log_curve() -> MixedStrategy:
    return MixedStrategy(
        (Piece(PieceKind.RECIPROCAL, 0.0, A2, 1.0),), (), CFG
    ).validate()


def random_mixture(rng: np.random.Generator) -> MixedStrategy:
    """Small seeded mixture with disjoint pieces and an occasional atom."""
    n_pieces = int(rng.integers(1, 4))
    cuts = np.sort(rng.uniform(0.0, 1.5, 2 * n_pieces))
    pieces = []
    for k in range(n_pieces):
        a, b = cuts[2 * k], cuts[2 * k + 1]
        if b - a < 1e-3:
            continue
        if rng.random() < 0.5 and b < CFG.E - 1e-3:
            kind = PieceKind.RECIPROCAL
        else:
            kind = PieceKind.UNIFORM
        pieces.append([kind, a, b, rng.uniform(0.2, 1.0)])
    if not pieces:
        pieces.append([PieceKind.UNIFORM, 0.1, 0.9, 1.0])
    atoms = []
    if rng.random() < 0.4:
        atoms.append([float(rng.uniform(0.0, 1.5)), rng.uniform(0.1, 0.5)])
    total = sum(p[3] for p in pieces) + sum(a[1] for a in atoms)
    return MixedStrategy(
        tuple(Piece(p[0], p[1], p[2], p[3] / total) for p in pieces),
        tuple(Atom(a[0], a[1] / total) for a in atoms),
        CFG,
    ).validate()


class TestConstruction:
    def test_structural_checks(self):
        with pytest.raises(DomainError):
            MixedStrategy((Piece(PieceKind.UNIFORM, 0.5, 0.4, 1.0),), (), CFG)
        with pytest.raises(DomainError):
            MixedStrategy((Piece(PieceKind.UNIFORM, 0.0, 1.6, 1.0),), (), CFG)
        with pytest.raises(DomainError):
            MixedStrategy((Piece(PieceKind.UNIFORM, 0.0, 1.0, -0.5),), (), CFG)
        with pytest.raises(DomainError):
            MixedStrategy((), (Atom(0.5, 0.0),), CFG)

    def test_reciprocal_must_avoid_estimate(self):
        with pytest.raises(DomainError):
            MixedStrategy((Piece(PieceKind.RECIPROCAL, 0.0, 1.0, 1.0),), (), CFG)
        with pytest.raises(DomainError):
            MixedStrategy((Piece(PieceKind.RECIPROCAL, 0.0, 1.2, 1.0),), (), CFG)

    def test_validate_checks_mass(self):
        bad = MixedStrategy((Piece(PieceKind.UNIFORM, 0.0, 1.0, 0.9),), (), CFG)
        assert bad.total_mass == pytest.approx(0.9)
        with pytest.raises(DomainError):
            bad.validate()

    def test_json_round_trip(self):
        s = MixedStrategy(
            (Piece(PieceKind.UNIFORM, 0.0, 0.5, 0.5),), (Atom(0.7, 0.5),), CFG
        ).validate()
        assert MixedStrategy.from_json(s.to_json(), CFG) == s

    def test_json_rejects_unknown_fields(self):
        with pytest.raises(DomainError):
            MixedStrategy.from_json('{"pieces": [], "atoms": [], "extra": 1}', CFG)
        with pytest.raises(DomainError):
            MixedStrategy.from_json(
                '{"pieces": [{"kind": "uniform", "a": 0, "b": 1, "w": 1, "q": 2}], "atoms": []}',
                CFG,
            )


class TestCdfQuantile:
    def test_uniform_anchor(self):
        s = MixedStrategy((Piece(PieceKind.UNIFORM, 0.0, A1, 1.0),), (), CFG).validate()
        assert s.cdf(1.0 / 3.0) == pytest.approx(0.5, abs=1e-15)

    def test_reciprocal_anchor(self):
        s = log_curve()
        assert s.cdf(2.0 / 3.0) == pytest.approx(math.log(3) / math.log(9), abs=1e-12)

    def test_cdf_at_b_is_one(self):
        for s in (uniform_pair(), log_curve()):
            assert s.cdf(CFG.B) == pytest.approx(1.0, abs=1e-12)

    def test_cdf_monotone_and_matches_numeric_integral(self):
        s = log_curve()
        xs = np.linspace(0.0, 1.5, 400)
        vals = s.cdf(xs)
        assert (np.diff(vals) >= -1e-15).all()
        # numeric integral of the density over [0, x]
        from scipy import integrate

        c = 1.0 / math.log(9.0)
        num, _ = integrate.quad(lambda t: c / (1.0 - t), 0.0, 0.6)
        assert s.cdf(0.6) == pytest.approx(num, abs=1e-10)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for s in (uniform_pair(), log_curve()):
            us = rng.uniform(0.0, 1.0, 1000)
            assert np.abs(s.cdf(s.quantile(us)) - us).max() < 1e-10

    def test_atom_plateau(self):
        s = st.point_mass(0.7, CFG)
        assert s.quantile(0.0) == 0.7 and s.quantile(1.0) == 0.7

    def test_quantile_domain(self):
        with pytest.raises(DomainError):
            uniform_pair().quantile(1.5)

    def test_overlapping_pieces_fall_back_to_bisection(self):
        s = MixedStrategy(
            (Piece(PieceKind.UNIFORM, 0.0, 1.0, 0.5), Piece(PieceKind.UNIFORM, 0.5, 1.2, 0.5)),
            (),
            CFG,
        ).validate()
        us = np.linspace(0.01, 0.99, 99)
        assert np.abs(s.cdf(s.quantile(us)) - us).max() < 1e-9

    def test_measure_brackets(self):
        s = MixedStrategy(
            (Piece(PieceKind.UNIFORM, 0.0, 0.5, 0.5),), (Atom(0.7, 0.5),), CFG
        ).validate()
        assert s.measure(Interval(0.0, 0.7, True, False)) == pytest.approx(0.5)
        assert s.measure(Interval(0.0, 0.7, True, True)) == pytest.approx(1.0)
        assert s.measure(Interval(0.7, 0.7, True, True)) == pytest.approx(0.5)
        assert s.measure(Interval(0.7, 1.5, False, True)) == 0.0


class TestSampling:
    def test_determinism(self):
        s = log_curve()
        assert np.array_equal(s.sample(99, 1000), s.sample(99, 1000))
        assert not np.array_equal(s.sample(99, 1000), s.sample(100, 1000))

    def test_atom_only_constant(self):
        samp = st.point_mass(0.7, CFG).sample(1, 50)
        assert (samp == 0.7).all()

    def test_ks_statistic(self):
        s = log_curve()
        n = 10**6
        samp = np.sort(s.sample(2024, n))
        ks = np.abs(s.cdf(samp) - np.arange(1, n + 1) / n).max()
        assert ks <= 0.002

    def test_count_validated(self):
        with pytest.raises(DomainError):
            log_curve().sample(1, 0)


class TestExpectVs:
    def test_against_point_mass_is_kernel_value(self):
        assert st.expect_vs(0.4, st.point_mass(0.9, CFG), SYM) == SYM(0.4, 0.9)
        assert st.expect_vs(0.7, st.point_mass(0.7, CFG), SYM) == 0.5

    def test_uniform_pair_holds_value_on_support(self):
        nu = uniform_pair()
        for x in (0.0, 0.25, 0.5, A1, 0.8, A2):
            assert st.expect_vs(x, nu, SYM) == pytest.approx(0.5, abs=1e-7)

    def test_uniform_pair_declines_past_support(self):
        nu = uniform_pair()
        # (A + 26E - 27x) / (4(E-A)) on (A2, A3)
        assert st.expect_vs(0.95, nu, SYM) == pytest.approx((26 - 27 * 0.95) / 4, abs=1e-12)
        assert st.expect_vs(1.2, nu, SYM) == 0.0

    def test_log_curve_anchor(self):
        v = st.expect_vs(0.93, log_curve(), SYM)
        assert v == pytest.approx(math.log(27 * 0.07) / (2 * math.log(3)), abs=1e-7)

    def test_exact_agrees_with_quadrature(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            s = random_mixture(rng)
            x = float(rng.uniform(0.0, 1.5))
            p = float(rng.uniform(0.05, 0.95))
            kern = gc.WeightedKernel(p, CFG)
            ve = st.expect_vs(x, s, kern, method="exact")
            vq = st.expect_vs(x, s, kern, method="quadrature")
            assert ve == pytest.approx(vq, abs=1e-8)

    def test_column_side_matches_role_swap(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            s = random_mixture(rng)
            y = float(rng.uniform(0.0, 1.5))
            p = float(rng.uniform(0.05, 0.95))
            kern = gc.WeightedKernel(p, CFG)
            col = st.expect_vs(y, s, kern, side=gc.Side.AS_COLUMN)
            swap = 1.0 - st.expect_vs(y, s, kern.swapped())
            assert col == pytest.approx(swap, abs=1e-10)

    def test_exact_refused_outside_open_interval(self):
        with pytest.raises(UnsupportedError):
            st.expect_vs(0.5, uniform_pair(), gc.WeightedKernel(0.0, CFG), method="exact")
        # auto falls back to quadrature and still answers
        v = st.expect_vs(0.5, uniform_pair(), gc.WeightedKernel(0.0, CFG))
        assert 0.0 <= v <= 1.0

    def test_side_and_method_are_keyword_only(self):
        with pytest.raises(TypeError):
            st.expect_vs(0.5, uniform_pair(), SYM, gc.Side.AS_COLUMN)
        with pytest.raises(TypeError):
            st.expect_vs(0.5, uniform_pair(), SYM, None, gc.Side.AS_ROW, "quadrature")


def _equilibrium_cases():
    from procurelab import equilibria as eq

    return [
        ("uniform", eq.uniform_equilibrium(CFG), 0.5),
        ("log", eq.log_equilibrium(CFG), 0.5),
        ("critical", eq.critical_regime_strategy(CFG), gc.critical_p()),
        ("weighted-0.3", eq.weighted_equilibrium(0.3, CFG), 0.3),
        ("weighted-0.1", eq.weighted_equilibrium(0.1, CFG), 0.1),
        ("point-mass", st.point_mass(0.9, CFG), 0.3),
    ]


def _probe_bids(s: MixedStrategy, p: float) -> np.ndarray:
    """A, B, E, every piece end and atom, and the map images of grid points."""
    maps = gc.maps_p(p, CFG)
    grid = np.linspace(CFG.A, CFG.B, 301)
    pts = [CFG.A, CFG.B, CFG.E]
    pts += [q for pc in s.pieces for q in (pc.a, pc.b)] + [a.x for a in s.atoms]
    for f in (maps.h1, maps.f1, maps.h2, maps.f2):
        pts += f(grid).tolist()
    bids = np.array(pts + grid.tolist())
    return bids[(bids >= CFG.A) & (bids <= CFG.B)]


class TestExpectVsArray:
    @pytest.mark.parametrize("side", list(gc.Side))
    @pytest.mark.parametrize("case", range(6), ids=[c[0] for c in _equilibrium_cases()])
    def test_array_matches_float_bids(self, case, side):
        label, s, p = _equilibrium_cases()[case]
        kern = gc.WeightedKernel(p, CFG)
        bids = _probe_bids(s, p)
        arr = st.expect_vs(bids, s, kern, side=side)
        one = np.array([st.expect_vs(float(x), s, kern, side=side) for x in bids])
        assert arr.shape == bids.shape
        if all(pc.kind is PieceKind.UNIFORM for pc in s.pieces):
            assert np.array_equal(arr, one), label
        else:
            # np.log and math.log may round one ulp apart; the sum then
            # differs by at most one ulp of a payoff in [1/2, 1)
            assert np.abs(arr - one).max() <= np.spacing(0.5), label

    def test_random_mixtures_with_atoms(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            s = random_mixture(rng)
            p = float(rng.uniform(0.05, 0.95))
            kern = gc.WeightedKernel(p, CFG)
            bids = _probe_bids(s, p)
            for side in gc.Side:
                arr = st.expect_vs(bids, s, kern, side=side)
                one = np.array([st.expect_vs(float(x), s, kern, side=side) for x in bids])
                assert np.abs(arr - one).max() <= np.spacing(0.5)

    @pytest.mark.parametrize("bad", [-1e-9, 1.5 + 1e-9, math.nan])
    def test_bids_outside_interval_are_domain_errors(self, bad):
        with pytest.raises(DomainError):
            st.expect_vs(np.array([0.5, bad]), uniform_pair(), SYM)

    def test_two_dimensional_bids_are_domain_errors(self):
        with pytest.raises(DomainError):
            st.expect_vs(np.full((2, 2), 0.5), uniform_pair(), SYM)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_degenerate_weights_are_unsupported(self, p):
        for method in ("auto", "exact"):
            with pytest.raises(UnsupportedError):
                st.expect_vs(np.array([0.5]), uniform_pair(), gc.WeightedKernel(p, CFG),
                             method=method)

    def test_quadrature_is_unsupported(self):
        with pytest.raises(UnsupportedError):
            st.expect_vs(np.array([0.5]), uniform_pair(), SYM, method="quadrature")

    def test_empty_array_gives_empty_array(self):
        out = st.expect_vs(np.array([]), uniform_pair(), SYM)
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_float_bid_still_gives_float(self):
        assert type(st.expect_vs(0.5, uniform_pair(), SYM)) is float
        assert type(st.expect_vs(np.float64(0.5), uniform_pair(), SYM)) is float


class TestQuadrature:
    @pytest.mark.parametrize("side", list(gc.Side))
    @pytest.mark.parametrize("p", [0.5, gc.critical_p(), 0.3, 0.1, 0.05, 0.01, 0.001])
    def test_matches_exact_expect_vs(self, p, side):
        from procurelab import equilibria as eq

        s = eq.weighted_equilibrium(p, CFG)
        kern = gc.WeightedKernel(p, CFG)
        rng = np.random.default_rng(31)
        ends = [q for pc in s.pieces for q in (pc.a, pc.b)]
        bids = np.concatenate([[CFG.A, CFG.B, CFG.E], ends, rng.uniform(CFG.A, CFG.B, 200)])
        exact = st.expect_vs(bids, s, kern, side=side)
        quad = np.array([st.expect_vs(float(x), s, kern, side=side, method="quadrature")
                         for x in bids])
        assert np.abs(quad - exact).max() <= 1e-12

    @pytest.mark.parametrize("pair", [uniform_pair, log_curve])
    def test_joint_at_degenerate_weights(self, pair):
        # the limiting kinks of p in {0, 1} sit at (q + E)/2 and 2q - E;
        # with the p = 1/2 ones the fixed-order rule straddles them
        s = pair()
        j0 = st.expect_joint(s, s, gc.WeightedKernel(0.0, CFG)).value
        j1 = st.expect_joint(s, s, gc.WeightedKernel(1.0, CFG)).value
        assert abs(j0 + j1 - 1.0) <= 1e-12
        if pair is uniform_pair:
            assert abs(j0 - 0.265625) <= 1e-12

    @pytest.mark.parametrize("b", [0.999, 0.99999])
    def test_joint_against_reciprocal_ending_near_estimate(self, b):
        # the payoff against nu is log-singular at E, so the uniform piece of
        # mu is halved toward E too; halving only reciprocal pieces raised here
        mu = MixedStrategy((Piece(PieceKind.UNIFORM, 0.0, 1.5, 1.0),), (), CFG).validate()
        nu = MixedStrategy((Piece(PieceKind.RECIPROCAL, 0.2, b, 1.0),), (), CFG).validate()
        assert st.expect_joint(mu, nu, SYM).max_gap <= 1e-12
        st.expect_joint(mu, nu, gc.WeightedKernel(0.3, CFG))

    def test_missing_cut_raises(self):
        s = MixedStrategy((Piece(PieceKind.UNIFORM, 0.0, 1.0, 1.0),), (), CFG).validate()
        f = lambda ys: SYM.batch(0.6, ys)
        cuts = st._region_cutpoints(0.6, gc.Side.AS_ROW, SYM)
        assert st._integrate_against(s, f, cuts) == pytest.approx(
            st.expect_vs(0.6, s, SYM), abs=1e-12)
        # without the cut at the bid itself the kernel jumps inside a panel
        with pytest.raises(st.QuadratureError):
            st._integrate_against(s, f, [q for q in cuts if q != 0.6])


class TestExpectJoint:
    def test_shared_point_mass_pays_tie(self):
        j = st.expect_joint(st.point_mass(0.6, CFG), st.point_mass(0.6, CFG), SYM)
        assert j.value == pytest.approx(0.5, abs=1e-15)
        assert j.max_gap < 1e-15

    def test_uniform_pair_self_play(self):
        j = st.expect_joint(uniform_pair(), uniform_pair(), SYM)
        assert j.value == pytest.approx(0.5, abs=1e-6)
        assert j.max_gap <= 1e-6
        assert set(j.by_form) == {"outer", "cdf", "swapped"}

    def test_log_curve_self_play(self):
        j = st.expect_joint(log_curve(), log_curve(), SYM)
        assert j.value == pytest.approx(0.5, abs=1e-6)
        assert j.max_gap <= 1e-6

    def test_fubini_on_seeded_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            mu = random_mixture(rng)
            nu = random_mixture(rng)
            j = st.expect_joint(mu, nu, SYM)
            assert j.max_gap <= 1e-6, (mu, nu, j.by_form)

    def test_monte_carlo_consistency(self):
        rng = np.random.default_rng(29)
        mu = random_mixture(rng)
        nu = random_mixture(rng)
        j = st.expect_joint(mu, nu, SYM)
        n = 200_000
        xs = mu.sample(7, n)
        ys = nu.sample(8, n)
        vals = SYM.batch(xs, ys)
        err = vals.std() / math.sqrt(n)
        assert abs(vals.mean() - j.value) <= 4 * max(err, 1e-9)

    def test_asymmetric_kernel_outer_only_by_default(self):
        kern = gc.WeightedKernel(0.3, CFG)
        j = st.expect_joint(st.point_mass(0.4, CFG), st.point_mass(0.4, CFG), kern)
        assert set(j.by_form) == {"outer"}
        assert j.value == pytest.approx(0.3, abs=1e-15)

    def test_atom_at_estimate_boundary(self):
        # a point mass at E loses to everything below and wins above
        below = MixedStrategy((Piece(PieceKind.UNIFORM, 0.0, 0.5, 1.0),), (), CFG).validate()
        j = st.expect_joint(st.point_mass(CFG.E, CFG), below, SYM)
        assert j.value == pytest.approx(0.0, abs=1e-12)
        assert j.max_gap <= 1e-12
        j2 = st.expect_joint(below, st.point_mass(CFG.E, CFG), SYM)
        assert j2.value == pytest.approx(1.0, abs=1e-12)
        assert j2.max_gap <= 1e-12

"""Tests for mixed-strategy representation and expected payoffs."""
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from procurelab import _rng
from procurelab import game_core as gc
from procurelab import strategy as st
from procurelab.experiments import mc_tournament
from procurelab.game_core import (
    DomainError,
    MarketConfig,
    UnsupportedError,
    default_config,
)
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

    def test_nan_masses_are_rejected(self):
        with pytest.raises(DomainError, match="piece weight"):
            MixedStrategy((Piece(PieceKind.UNIFORM, 0.0, 1.0, math.nan),), (), CFG)
        with pytest.raises(DomainError, match="atom mass"):
            MixedStrategy((Piece(PieceKind.UNIFORM, 0.0, 1.0, 0.5),),
                          (Atom(0.5, math.nan),), CFG)

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

    def test_piece_constants_are_outside_equality_hash_and_json(self):
        def build():
            return MixedStrategy(
                (Piece(PieceKind.UNIFORM, 0.0, 0.5, 0.25),
                 Piece(PieceKind.RECIPROCAL, 0.5, 0.9, 0.25)),
                (Atom(1.1, 0.5),), CFG,
            ).validate()

        cached, fresh = build(), build()
        assert "piece_constants" not in vars(cached)  # built on first use only
        assert cached.piece_constants == (
            (True, 0.0, 0.5, 0.25, 0.25 / 0.5),
            (False, 0.5, 0.9, 0.25, 0.25 / math.log((1.0 - 0.5) / (1.0 - 0.9))),
        )
        assert "piece_constants" in vars(cached) and "piece_constants" not in vars(fresh)
        assert cached == fresh and hash(cached) == hash(fresh)
        assert repr(cached) == repr(fresh)


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

    @pytest.mark.parametrize("u", [-1e-9, 1.5, math.nan, np.array([0.2, math.nan])],
                             ids=["below", "above", "nan", "array-with-nan"])
    def test_quantile_domain(self, u):
        with pytest.raises(DomainError):
            uniform_pair().quantile(u)

    def test_quantile_takes_empty_array(self):
        out = uniform_pair().quantile(np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,)

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
        # [A, 0.7), [A, 0.7], {0.7} and (0.7, B] from the right and left CDF
        assert s._cdf_left(0.7) == pytest.approx(0.5)
        assert s.cdf(0.7) == pytest.approx(1.0)
        assert s.cdf(0.7) - s._cdf_left(0.7) == pytest.approx(0.5)
        assert s.cdf(1.5) - s.cdf(0.7) == 0.0


# the SplitMix64 increment and its two mixing multipliers
_GAMMA, _MIX1, _MIX2 = map(np.uint64, (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
                                       0x94D049BB133111EB))


def _reference_finalize(z):
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _reference_stream(seed: int, n: int) -> np.ndarray:
    """The SplitMix64 stream as whole-array expressions, one new array per step."""
    idx = np.arange(1, n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = _reference_finalize(np.uint64(seed & (2**64 - 1)) + idx * _GAMMA)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _reference_quantile(s: MixedStrategy, u: np.ndarray) -> np.ndarray:
    """The ordered-component quantile with a search and a mask per component."""
    E = s.cfg.E
    comps = s._ordered_components()
    masses = np.array([c.w if isinstance(c, Piece) else c.m for c in comps])
    edges = np.cumsum(masses)
    u = np.minimum(u, edges[-1])
    idx = np.minimum(np.searchsorted(edges, u, side="left"), len(comps) - 1)
    out = np.empty_like(u)
    base = edges - masses
    for k, comp in enumerate(comps):
        sel = idx == k
        if not sel.any():
            continue
        if isinstance(comp, Atom):
            out[sel] = comp.x
        else:
            local = u[sel] - base[k]
            if comp.kind is PieceKind.UNIFORM:
                out[sel] = comp.a + (comp.b - comp.a) * local / comp.w
            else:
                out[sel] = E - (E - comp.a) * np.exp(-local / comp.normalizer(E))
    return np.clip(out, s.cfg.A, s.cfg.B)


class TestSampling:
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**63 + 5, 2**64 - 1, -1, 2**70 + 3])
    def test_uniform_stream_matches_reference(self, seed):
        # 65_536 draws make one block: the sizes around one and two blocks
        # put the seams between blocks at every position
        for n in (1, 7, 65_535, 65_536, 65_537, 100_000, 2 * 65_536 + 5):
            assert np.array_equal(_rng.uniform_stream(seed, n), _reference_stream(seed, n))

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**63 + 5, 2**64 - 1, -1, 2**70 + 3])
    def test_uniform_rows_match_child_streams(self, seed):
        # the ks run across the 1,024-draw chunks that ddpm_probe takes
        for ks, n in ((np.arange(1_000, 1_050), 2), (np.array([0, 7, 2**40, 3]), 5),
                      (np.arange(3), 1), (np.arange(2), 0)):
            rows = _rng.uniform_rows(seed, ks, n)
            assert rows.shape == (len(ks), n)
            for k, row in zip(ks.tolist(), rows):
                assert np.array_equal(row, _rng.uniform_stream(_rng.derive_seed(seed, k), n))
        # salts fold left, so a tag's children are rows of the tag's seed
        rows = _rng.uniform_rows(_rng.derive_seed(seed, "tr"), np.arange(1_020, 1_030), 2)
        for k, row in zip(range(1_020, 1_030), rows):
            assert np.array_equal(row, _rng.uniform_stream(_rng.derive_seed(seed, "tr", k), 2))

    def test_negative_counts_are_refused(self):
        for call, named in ((lambda: _rng.uniform_stream(1, -1), "n=-1"),
                            (lambda: _rng.uniform_block(1, -5, 3), "start=-5"),
                            (lambda: _rng.uniform_block(1, 0, -2), "n=-2"),
                            (lambda: _rng.uniform_rows(1, np.arange(3), -1), "n=-1")):
            with pytest.raises(DomainError, match=named):
                call()
        assert _rng.uniform_stream(1, 0).shape == (0,)
        assert _rng.uniform_block(1, 5, 0).shape == (0,)
        assert _rng.uniform_rows(1, np.arange(4), 0).shape == (4, 0)

    def test_derive_seed_matches_reference(self):
        for seed, salts in ((42, ("br", 2, 7)), (2**64 - 1, ("tournament", 0)), (0, (5,))):
            z = np.uint64(seed & (2**64 - 1))
            with np.errstate(over="ignore"):
                for salt in salts:
                    if isinstance(salt, str):
                        salt = int.from_bytes(hashlib.blake2s(
                            salt.encode(), digest_size=8).digest(), "big")
                    z = _reference_finalize((z ^ np.uint64(salt)) + _GAMMA)
            assert _rng.derive_seed(seed, *salts) == int(z)

    def test_quantile_matches_reference(self):
        from procurelab import equilibria as eq

        rng = np.random.default_rng(37)
        strategies = [log_curve(), uniform_pair(), st.point_mass(0.7, CFG),
                      eq.weighted_equilibrium(0.1, CFG), eq.critical_regime_strategy(CFG)]
        strategies += [random_mixture(rng) for _ in range(20)]
        # overlapping components take the bisection, which this does not cover
        strategies = [s for s in strategies if s._ordered_components() is not None]
        assert len(strategies) > 20
        for s in strategies:
            edges = np.cumsum([pc.w for pc in s.pieces] + [a.m for a in s.atoms])
            us = np.concatenate([[0.0, 1.0], edges[edges <= 1.0], _rng.uniform_stream(5, 5_000)])
            assert np.array_equal(s.quantile(us), _reference_quantile(s, us)), s
            assert s.quantile(0.5) == _reference_quantile(s, np.array([0.5]))[0]
        # more draws than one quantile block, so the seams between blocks count
        us = _rng.uniform_stream(6, 2 * _rng.BLOCK + 5)
        for s in (eq.critical_regime_strategy(CFG), eq.weighted_equilibrium(0.1, CFG),
                  strategies[-1]):
            assert np.array_equal(s.quantile(us), _reference_quantile(s, us)), s

    def test_determinism(self):
        s = log_curve()
        draws = lambda seed: s.quantile(_rng.uniform_stream(seed, 1000))
        assert np.array_equal(draws(99), draws(99))
        assert not np.array_equal(draws(99), draws(100))

    def test_atom_only_constant(self):
        samp = st.point_mass(0.7, CFG).quantile(_rng.uniform_stream(1, 50))
        assert (samp == 0.7).all()

    def test_ks_statistic(self):
        s = log_curve()
        n = 10**6
        samp = np.sort(s.quantile(_rng.uniform_stream(2024, n)))
        ks = np.abs(s.cdf(samp) - np.arange(1, n + 1) / n).max()
        assert ks <= 0.002


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
        for p in (0.0, 1.0):
            kern = gc.WeightedKernel(p, CFG)
            with pytest.raises(UnsupportedError):
                st.expect_vs(0.5, uniform_pair(), kern)
            # the quadrature still answers there
            v = st.expect_vs(0.5, uniform_pair(), kern, method="quadrature")
            assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize("method", ["exact", "quadrature"])
    def test_bid_types_give_the_float_value(self, method):
        rng = np.random.default_rng(23)
        for s in (log_curve(), uniform_pair(), random_mixture(rng)):
            for side in gc.Side:
                for bid in (1, np.float64(0.83), np.array(0.41)):
                    want = st.expect_vs(float(bid), s, SYM, side=side, method=method)
                    got = st.expect_vs(bid, s, SYM, side=side, method=method)
                    assert type(got) is float and got == want, (s, side, bid)

    def test_unknown_method_is_domain_error(self):
        with pytest.raises(DomainError):
            st.expect_vs(0.5, uniform_pair(), SYM, method="auto")

    @pytest.mark.parametrize("method", ["exact", "quadrature"])
    def test_unknown_side_is_domain_error(self, method):
        for side in ("AsRow", "AsColumn", None):
            with pytest.raises(DomainError):
                st.expect_vs(0.5, uniform_pair(), SYM, side=side, method=method)
        with pytest.raises(DomainError):
            st.expect_vs(np.array([0.5]), uniform_pair(), SYM, side="AsRow", method=method)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_unknown_side_is_domain_error_at_degenerate_weights(self, p):
        with pytest.raises(DomainError):
            st.expect_vs(0.5, uniform_pair(), gc.WeightedKernel(p, CFG), side="AsRow",
                         method="quadrature")

    def test_side_and_method_are_keyword_only(self):
        with pytest.raises(TypeError):
            st.expect_vs(0.5, uniform_pair(), SYM, gc.Side.AS_COLUMN)
        with pytest.raises(TypeError):
            st.expect_vs(0.5, uniform_pair(), SYM, None, gc.Side.AS_ROW, "quadrature")


OTHER_CFG = MarketConfig(0.0, 1.5, 1.2)


class TestMarketCheck:
    """A strategy built on another market than the kernel's is refused."""

    @staticmethod
    def other_market():
        from procurelab import equilibria as eq

        return eq.weighted_equilibrium(0.3, OTHER_CFG)

    @pytest.mark.parametrize("method", ["exact", "quadrature"])
    def test_expect_vs_float(self, method):
        with pytest.raises(DomainError):
            st.expect_vs(0.5, self.other_market(), SYM, method=method)

    def test_expect_vs_array(self):
        with pytest.raises(DomainError):
            st.expect_vs(np.array([0.5, 0.9]), self.other_market(), SYM)

    def test_expect_vs_degenerate_weight(self):
        with pytest.raises(DomainError):
            st.expect_vs(0.5, self.other_market(), gc.WeightedKernel(0.0, CFG))

    def test_expect_joint(self):
        with pytest.raises(DomainError):
            st.expect_joint(self.other_market(), log_curve(), SYM)

    def test_mc_tournament(self):
        other = self.other_market()
        with pytest.raises(DomainError):
            mc_tournament([log_curve(), other], SYM, 100, 1)
        with pytest.raises(DomainError):
            mc_tournament([log_curve(), other, log_curve()], None, 100, 1)

    def test_equal_market_is_accepted(self):
        # an equal config passes, not only the very same object
        twin = MarketConfig(CFG.A, CFG.B, CFG.E)
        assert twin is not CFG
        s = MixedStrategy((Piece(PieceKind.RECIPROCAL, 0.0, A2, 1.0),), (), twin).validate()
        assert st.expect_vs(0.93, s, SYM) == st.expect_vs(0.93, log_curve(), SYM)
        assert mc_tournament([s, log_curve()], SYM, 100, 1) == mc_tournament(
            [log_curve(), log_curve()], SYM, 100, 1)


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


def _quadrature_cases():
    from procurelab import equilibria as eq

    with_atoms = MixedStrategy(
        (Piece(PieceKind.UNIFORM, 0.0, 0.5, 0.25), Piece(PieceKind.RECIPROCAL, 0.5, 0.9, 0.25)),
        (Atom(0.7, 0.2), Atom(1.1, 0.3)), CFG,
    ).validate()
    return [
        ("uniform", eq.uniform_equilibrium(CFG), 0.5),
        ("log", eq.log_equilibrium(CFG), 0.5),
        ("critical", eq.critical_regime_strategy(CFG), gc.critical_p()),
        ("pieces-and-atoms", with_atoms, 0.37),
        # the reciprocal piece ends close to E, so panels halve deep toward it
        ("weighted-0.01", eq.weighted_equilibrium(0.01, CFG), 0.01),
        ("log-p0", eq.log_equilibrium(CFG), 0.0),
        ("uniform-p1", eq.uniform_equilibrium(CFG), 1.0),
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


def _reference_mass(piece: Piece, lo: float, hi: float, E: float) -> float:
    """Mass of one piece on (lo, hi), its normalizer recomputed per call."""
    lo = max(lo, piece.a)
    hi = min(hi, piece.b)
    if hi <= lo:
        return 0.0
    if piece.kind is PieceKind.UNIFORM:
        return piece.w * (hi - lo) / (piece.b - piece.a)
    return piece.normalizer(E) * math.log((E - lo) / (E - hi))


def _reference_expect_vs(bid: float, s: MixedStrategy, kernel: gc.WeightedKernel,
                         side: gc.Side) -> float:
    """The float exact path as a loop over the win-region ends and pieces."""
    pair = (lambda y: (bid, y)) if side is gc.Side.AS_ROW else (lambda y: (y, bid))
    atom_part = sum(a.m * kernel(*pair(a.x)) for a in s.atoms)
    cont = 0.0
    for lo, hi in gc.win_ends(bid, side, gc.maps_p(kernel.p, kernel.cfg), kernel.cfg):
        for piece in s.pieces:
            cont += _reference_mass(piece, lo, hi, kernel.cfg.E)
    return atom_part + cont


def _reference_cases():
    from procurelab import equilibria as eq

    cases = [
        ("uniform", eq.uniform_equilibrium(CFG), 0.5),
        ("log", eq.log_equilibrium(CFG), 0.5),
        ("critical", eq.critical_regime_strategy(CFG), gc.critical_p()),
        *((f"weighted-{p}", eq.weighted_equilibrium(p, CFG), p) for p in (0.3, 0.1, 0.01)),
    ]
    rng = np.random.default_rng(41)
    while len(cases) < 18:
        s = random_mixture(rng)
        if s.atoms:
            cases.append((f"mixture-{len(cases)}", s, float(rng.uniform(0.05, 0.95))))
    return cases


class TestExpectVsReference:
    @pytest.mark.parametrize("side", list(gc.Side))
    @pytest.mark.parametrize("case", range(18), ids=[c[0] for c in _reference_cases()])
    def test_float_path_equals_reference(self, case, side):
        label, s, p = _reference_cases()[case]
        kern = gc.WeightedKernel(p, CFG)
        maps = gc.maps_p(p, CFG)
        ends = [q for pc in s.pieces for q in (pc.a, pc.b)] + [a.x for a in s.atoms]
        images = [f(q) for q in ends for f in (maps.h1, maps.f1, maps.h2, maps.f2)]
        draw = np.random.default_rng(43).uniform(CFG.A, CFG.B, 2_000).tolist()
        bids = [CFG.A, CFG.B, CFG.E, *ends, *images, *_probe_bids(s, p).tolist(), *draw]
        bids = [float(x) for x in bids if CFG.A <= x <= CFG.B]
        for x in bids:
            got = st.expect_vs(x, s, kern, side=side)
            assert got == _reference_expect_vs(x, s, kern, side), (label, x)


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
        with pytest.raises(UnsupportedError):
            st.expect_vs(np.array([0.5]), uniform_pair(), gc.WeightedKernel(p, CFG))

    @pytest.mark.parametrize("side", list(gc.Side))
    @pytest.mark.parametrize("case", range(7), ids=[c[0] for c in _quadrature_cases()])
    def test_quadrature_equals_float_bids(self, case, side):
        label, s, p = _quadrature_cases()[case]
        kern = gc.WeightedKernel(p, CFG)
        ends = [q for pc in s.pieces for q in (pc.a, pc.b)] + [a.x for a in s.atoms]
        bids = np.concatenate([[CFG.A, CFG.B, CFG.E], ends, np.linspace(CFG.A, CFG.B, 151)])
        # the nodes of all panels span more than one block of CELLS
        cuts = [gc.kernel_cutpoints(kern, x, side) for x in bids.tolist()]
        panels = sum(len(st._panels(ck, a, b, CFG.E))
                     for ck in cuts for _, a, b, _, _ in s.piece_constants)
        assert panels * st._GL_NODES.size > gc.CELLS
        arr = st.expect_vs(bids, s, kern, side=side, method="quadrature")
        one = [st.expect_vs(float(x), s, kern, side=side, method="quadrature") for x in bids]
        assert arr.shape == bids.shape
        assert np.array_equal(arr, one), label

    def test_quadrature_error_names_the_worst_bid(self):
        s = MixedStrategy((Piece(PieceKind.UNIFORM, 0.0, 1.0, 1.0),), (), CFG).validate()
        bids = np.array([0.3, 0.6, 0.9])
        f = lambda k, ys: SYM.batch(bids[k], ys)
        cuts = [gc.kernel_cutpoints(SYM, x, gc.Side.AS_ROW) for x in bids.tolist()]
        assert np.array_equal(st._integrate_against(s, f, cuts, at=bids),
                              st.expect_vs(bids, s, SYM, method="quadrature"))
        # 0.6 loses the cut at itself, 0.3 the one at its h1 image (which
        # lies below the piece and so changes nothing); only 0.6 fails
        cuts[1] = [q for q in cuts[1] if q != 0.6]
        cuts[0] = [q for q in cuts[0] if q != SYM.maps.h1(0.3)]
        with pytest.raises(st.QuadratureError, match=r"at 0\.6 ") as err:
            st._integrate_against(s, f, cuts, at=bids)
        assert err.value.achieved_tol > 1e-8
        # 0.4 without its own cut misses by more than 0.6 does, and sits past
        # the first block of nodes (every bid has at least one panel), so
        # the error names it and not the first failing bid
        bids = np.concatenate([[0.3, 0.6], np.linspace(0.05, 1.45, 400), [0.4]])
        assert len(bids) - 1 >= gc.CELLS // st._GL_NODES.size
        cuts = [gc.kernel_cutpoints(SYM, x, gc.Side.AS_ROW) for x in bids.tolist()]
        cuts[1] = [q for q in cuts[1] if q != 0.6]
        cuts[-1] = [q for q in cuts[-1] if q != 0.4]
        with pytest.raises(st.QuadratureError, match=r"at 0\.4 ") as worst:
            st._integrate_against(s, f, cuts, at=bids)
        with pytest.raises(st.QuadratureError, match=r"at 0\.4 ") as alone:
            st._integrate_against(s, lambda k, ys: SYM.batch(0.4, ys), cuts[-1:], at=bids[-1:])
        assert worst.value.achieved_tol == alone.value.achieved_tol > err.value.achieved_tol

    def test_quadrature_holds_one_block(self):
        # 500 bids take about 2,400 panels: 0.9 MiB per array of their nodes
        # if they were evaluated at once
        from procurelab.equilibria import weighted_equilibrium

        s = weighted_equilibrium(0.3, CFG)
        kern = gc.WeightedKernel(0.3, CFG)
        bids = np.linspace(CFG.A, CFG.B, 500)
        first = st.expect_vs(bids, s, kern, side=gc.Side.AS_COLUMN, method="quadrature")
        tracemalloc.start()
        try:
            again = st.expect_vs(bids, s, kern, side=gc.Side.AS_COLUMN, method="quadrature")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(first, again)
        assert peak <= 1.5 * 2**20

    def test_quadrature_takes_empty_array(self):
        out = st.expect_vs(np.array([]), uniform_pair(), SYM, method="quadrature")
        assert isinstance(out, np.ndarray) and out.shape == (0,)

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
        f = lambda k, ys: SYM.batch(0.6, ys)
        cuts = gc.kernel_cutpoints(SYM, 0.6, gc.Side.AS_ROW)
        assert st._integrate_against(s, f, [cuts])[0] == pytest.approx(
            st.expect_vs(0.6, s, SYM), abs=1e-12)
        # without the cut at the bid itself the kernel jumps inside a panel
        with pytest.raises(st.QuadratureError):
            st._integrate_against(s, f, [[q for q in cuts if q != 0.6]])


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
        xs = mu.quantile(_rng.uniform_stream(7, n))
        ys = nu.quantile(_rng.uniform_stream(8, n))
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

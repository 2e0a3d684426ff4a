"""Unit tests for the award rules and analytic primitives.

Oracle values are frozen as exact fractions derived by hand from the award
rules and the map algebra, not read back from the implementation.
"""
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from procurelab import game_core as gc
from procurelab.game_core import (
    BoundaryError,
    DiscontinuityClass,
    DomainError,
    MarketConfig,
    Regime,
    Side,
    UnsupportedError,
    default_config,
)

CFG = default_config()


def last_slot_deviation(others, cfg):
    """best_deviation with the mover after every opponent."""
    return gc.best_deviation(others, len(others), cfg)


def test_config_ordering_enforced():
    with pytest.raises(DomainError):
        MarketConfig(A=1.0, B=1.5, E=0.5)
    with pytest.raises(DomainError):
        MarketConfig(A=0.0, B=1.0, E=1.0)
    cfg = MarketConfig(A=0.2, B=2.0, E=1.1)
    assert cfg.require_bid(0.2) == 0.2
    with pytest.raises(DomainError):
        cfg.require_bid(0.1999)
    with pytest.raises(DomainError):
        cfg.require_bid(float("nan"))


class TestAwardRules:
    def test_below_beats_above(self):
        # P = 0.975: the lower bid is at-or-below and wins
        assert gc.payoff_n([0.8, 1.1], CFG) == (1.0, 0.0)

    def test_at_price_counts_as_below(self):
        # P = 1.025 > 1.0: x=1.0 is below; with x exactly at P it still wins
        assert gc.payoff_n([1.0, 1.1], CFG) == (1.0, 0.0)
        # construct x == P exactly: x=0.75, y=0.25 gives P=0.75 in floats
        assert gc.payoff_n([0.75, 0.25], CFG) == (1.0, 0.0)

    def test_all_above_lowest_wins(self):
        # P = 1.15, both bids above: the smaller one wins
        assert gc.payoff_n([1.2, 1.4], CFG) == (1.0, 0.0)

    def test_ties_split(self):
        assert gc.payoff_n([0.7, 0.7], CFG) == (0.5, 0.5)
        assert gc.payoff_n([0.6, 0.6, 0.6], CFG) == pytest.approx((1 / 3,) * 3)

    def test_conservation(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            bids = rng.uniform(0.0, 1.5, n)
            assert sum(gc.payoff_n(bids, CFG)) == pytest.approx(1.0, abs=1e-15)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(55)
        for trial in range(300):
            n = int(rng.integers(2, 6))
            bids = list(rng.uniform(0.0, 1.5, n))
            if trial % 3 == 0:
                bids[0] = bids[-1]
            perm = rng.permutation(n)
            base = gc.payoff_n(bids, CFG)
            shuffled = gc.payoff_n([bids[k] for k in perm], CFG)
            assert shuffled == tuple(base[k] for k in perm)

    def test_tilde_zeroes_shared_awards(self):
        assert gc.payoff_n_tilde([0.7, 0.7], CFG) == (0.0, 0.0)
        assert gc.payoff_n_tilde([0.8, 1.1], CFG) == (1.0, 0.0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        bids = rng.uniform(0.0, 1.5, (500, 4))
        bids[::5, 1] = bids[::5, 2]  # forced ties
        out = gc.payoff_n_batch(bids, CFG)
        for k in range(0, 500, 7):
            assert tuple(out[k]) == gc.payoff_n(bids[k], CFG)

    def test_combinatorial_oracle_agreement(self):
        # tie-heavy draws: a quarter of the profiles copy one bid onto
        # another, a further eighth copy it onto a third player as well
        for n in (2, 3, 4, 5, 6):
            rng = np.random.default_rng(42 + n)
            bids = rng.uniform(0.0, 1.5, (2_000, n))
            bids[:500, 1] = bids[:500, 0]
            if n > 2:
                bids[500:750, 2] = bids[500:750, 1] = bids[500:750, 0]
            oracle = gc.payoff_n_combinatorial(bids, CFG)
            assert oracle.shape == bids.shape
            for prof, row in zip(bids.tolist(), oracle.tolist()):
                assert tuple(row) == gc.payoff_n(prof, CFG), prof

    def test_combinatorial_oracle_on_dyadic_grid(self):
        # multiples of 1/8 land on the reference price, which the award rule
        # counts as below it: (0.75, 0.25) prices at 0.75
        assert gc.payoff_n_combinatorial(np.array([[0.75, 0.25]]), CFG).tolist() == [[1.0, 0.0]]
        axis = np.arange(13) / 8.0
        for n in (2, 3, 4):
            bids = np.stack(np.meshgrid(*[axis] * n, indexing="ij"), axis=-1).reshape(-1, n)
            assert np.array_equal(gc.payoff_n_combinatorial(bids, CFG),
                                  gc.payoff_n_batch(bids, CFG))

    def test_combinatorial_refuses_large_n(self):
        with pytest.raises(UnsupportedError):
            gc.payoff_n_combinatorial(np.full((3, 7), 0.5), CFG)
        with pytest.raises(DomainError):
            gc.payoff_n_combinatorial(np.array([[0.5, 1.6]]), CFG)


class TestScalarAwardRule:
    """The scalar award rule behind payoff_n, payoff_n_tilde and the
    deviation paths: validation, input types, and the tie-zeroed variant."""

    BAD = (math.nan, math.inf, -math.inf, -0.25, 1.75)

    @pytest.mark.parametrize("bad", BAD)
    def test_bad_bid_is_named(self, bad):
        msg = re.escape(f"bid {bad} outside [{CFG.A}, {CFG.B}]")
        # the first bad bid is named, wherever it sits
        for prof in ([bad, 0.5], [0.5, bad, 0.7], [0.5, 0.7, bad, 2.0]):
            for rule in (gc.payoff_n, gc.payoff_n_tilde, gc.check_profile):
                with pytest.raises(DomainError, match=msg):
                    rule(prof, CFG)
            with pytest.raises(DomainError, match=msg):
                gc.classify_discontinuity(0, prof, CFG)
            others = prof[1:] if prof[0] == 0.5 else prof
            for dev in (gc.threshold_t, last_slot_deviation):
                with pytest.raises(DomainError, match=msg):
                    dev(others, CFG)

    def test_too_few_bids(self):
        for rule in (gc.payoff_n, gc.payoff_n_tilde, gc.check_profile):
            with pytest.raises(DomainError, match="at least 2 bids"):
                rule([0.5], CFG)
            with pytest.raises(DomainError, match="at least 2 bids"):
                rule([], CFG)
        for dev in (gc.threshold_t, last_slot_deviation):
            with pytest.raises(DomainError, match="at least one opponent"):
                dev([], CFG)

    def test_deviation_rounded_past_b_is_clipped(self):
        # E an ulp under B: the threshold quotient rounds above B, though the
        # exact one lies inside (A, B); the deviation is clipped to B
        from procurelab.experiments import br_dynamics

        B = 206827.85867444094
        cfg = MarketConfig(0.0, B, math.nextafter(B, 0.0))
        assert gc.threshold_t([B] * 5, cfg) > B
        star = gc.best_deviation([B] * 5, 2, cfg)
        assert type(star) is float and star <= B
        traj = br_dynamics((B,) * 6, 60, cfg)
        assert all(cfg.A <= b <= B for prof in traj.profiles for b in prof)

    def test_deviation_on_near_degenerate_markets(self):
        # E an ulp from B (or A) and every opponent at B or E (A or E): the
        # quotient rounds past the end now and then, and the deviation is
        # still an admissible bid that wins in its slot.  On these markets
        # the reference price rounds by more than E - A, and a tie at the
        # threshold often leaves no bid that wins outright: then the
        # deviation raises
        rng = np.random.default_rng(20)
        outside = clipped_wins = 0
        for k in range(2_000):
            A = float(rng.uniform(-1e6, 1e6))
            B = A + float(10.0 ** rng.uniform(-6, 6))
            end = B if k % 2 else A
            E = math.nextafter(end, A + B - end)
            cfg = MarketConfig(A, B, E)
            others = [end if u < 0.8 else E for u in rng.random(int(rng.integers(1, 7)))]
            past = not (A <= gc.threshold_t(others, cfg) <= B)
            outside += past
            for i in range(len(others) + 1):
                try:
                    star = gc.best_deviation(others, i, cfg)
                except DomainError as err:
                    assert "no winning undercut" in str(err)
                    continue
                assert A <= star <= B
                assert gc.payoff_n(others[:i] + [star] + others[i:], cfg)[i] == 1.0
                clipped_wins += past
        assert outside >= 5  # the sweep does reach quotients past an end
        assert clipped_wins >= 5  # and clipped deviations that win

    def test_bid_types_give_the_float_tuple(self):
        profiles = ([0.75, 0.25], [1.0, 1.1], [0.7, 0.7], [0.5, 0.9, 1.25], [1.0, 0.0, 0.5, 1.5],
                    [1.0, 0.0], [1.0, 1.0, 0.0])
        for prof in profiles:
            for rule in (gc.payoff_n, gc.payoff_n_tilde):
                want = rule(prof, CFG)
                assert all(type(v) is float for v in want)
                assert rule(np.array(prof), CFG) == want
                assert rule(np.array([prof, prof])[1], CFG) == want
                assert rule([np.float64(b) for b in prof], CFG) == want
                assert rule(tuple(prof), CFG) == want
                if all(b == int(b) for b in prof):
                    assert rule([int(b) for b in prof], CFG) == want
            others = prof[1:]
            for dev in (gc.threshold_t, last_slot_deviation):
                want = dev(others, CFG)
                assert type(want) is float
                assert dev(np.array(others), CFG) == want
                assert dev([np.float64(b) for b in others], CFG) == want
                assert dev(tuple(others), CFG) == want
                if all(b == int(b) for b in others):
                    assert dev([int(b) for b in others], CFG) == want

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_tilde_on_dyadic_grid(self, n):
        # multiples of 1/8 tie often and land on the reference price
        axis = (np.arange(13) / 8.0).tolist()
        solo = shared = 0
        for prof in itertools.product(axis, repeat=n):
            full = gc.payoff_n(prof, CFG)
            tilde = gc.payoff_n_tilde(prof, CFG)
            if 1.0 in full:
                solo += 1
                assert tilde == full, prof
            else:
                shared += 1
                assert tilde == (0.0,) * n, prof
        assert solo and shared


class TestScalarPayoffs:
    def test_two_player_cascade_matches_rules(self):
        rng = np.random.default_rng(9)
        for trial in range(3000):
            x, y = rng.uniform(0.0, 1.5, 2)
            if trial % 5 == 0:
                y = x
            assert gc.WeightedKernel(0.5, CFG)(x, y) == gc.payoff_n([x, y], CFG)[0]

    def test_weighted_reduces_to_symmetric_at_half(self):
        # the column player's side: its payoff is the weighted rule with roles swapped
        kern = gc.WeightedKernel(0.5, CFG)
        rng = np.random.default_rng(10)
        for _ in range(2000):
            x, y = rng.uniform(0.0, 1.5, 2)
            assert kern(y, x) == gc.payoff_n([x, y], CFG)[1]

    def test_weighted_tie_pays_p(self):
        assert gc.WeightedKernel(0.3, CFG)(0.7, 0.7) == 0.3

    def test_weighted_constant_sum_under_role_swap(self):
        rng = np.random.default_rng(12)
        for trial in range(3000):
            p = rng.uniform(0.0, 1.0)
            x, y = rng.uniform(0.0, 1.5, 2)
            if trial % 4 == 0:
                y = x
            total = gc.WeightedKernel(p, CFG)(x, y) + gc.WeightedKernel(1.0 - p, CFG)(y, x)
            assert total == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize(
        "cfg", [CFG, MarketConfig(0.0, 1.5e6, 1e6), MarketConfig(-3.0, 0.0, -1.0)])
    def test_kernel_batch_matches_case_by_case_reference(self, cfg):
        def reference(x, y, p, w_col):
            # the award spelled out case by case over the two price tests
            price = (p * x + w_col * y + cfg.E) / 2.0
            x_in, y_in = x <= price, y <= price
            row_wins = np.where(x_in & y_in, x > y,
                                np.where(x_in, True, np.where(y_in, False, x < y)))
            return np.where(x == y, p, np.where(row_wins, 1.0, 0.0))

        rng = np.random.default_rng(47)
        grid = np.linspace(cfg.A, cfg.B, 201)
        xs = np.concatenate([np.repeat(grid, grid.size), rng.uniform(cfg.A, cfg.B, 20_000)])
        ys = np.concatenate([np.tile(grid, grid.size), rng.uniform(cfg.A, cfg.B, 20_000)])
        for p in (0.0, 0.01, 0.1, gc.critical_p(), 0.3, 0.5, 1.0):
            kern = gc.WeightedKernel(p, cfg)
            for k in (kern, kern.swapped()):
                got = k.batch(xs, ys)
                assert got.dtype == np.float64
                assert np.array_equal(got, reference(xs, ys, k.p, k.w_col)), (p, k.p)

    def test_weighted_rejects_bad_weight(self):
        with pytest.raises(DomainError):
            gc.WeightedKernel(1.2, CFG)
        with pytest.raises(DomainError):
            gc.WeightedKernel(0.3, CFG)(1.6, 0.6)

    def test_three_player_cascade_matches_rules(self):
        rng = np.random.default_rng(13)
        x, y, z = rng.uniform(0.0, 1.5, (3, 5000))
        z[::4] = y[::4]
        y[::7] = x[::7]
        ref = [gc.payoff_n(prof, CFG)[0] for prof in zip(x.tolist(), y.tolist(), z.tolist())]
        assert np.array_equal(gc.payoff_3(x, y, z, CFG), ref)
        assert gc.payoff_3(0.5, 0.5, 0.5, CFG) == pytest.approx(1 / 3)
        assert type(gc.payoff_3(0.5, 0.7, 0.9, CFG)) is float

    # the fifteen cases of payoff_3's cascade, in its order
    CASES = (
        "z <= y < x <= t", "y < z < x <= t", "y < x <= t < z", "z < x <= t < y",
        "x <= t < z <= y", "x <= t < y < z", "t < x < z <= y", "t < x < y < z",
        "z < y == x <= t", "y < z == x <= t", "y == x <= t < z", "z == x <= t < y",
        "t <= y == x < z", "t <= z == x < y", "x == y == z",
    )
    # a profile (x, y, z) for each case, the first that holds for it at the
    # default market's t = (x + y + z + 3E) / 6 (None: no case holds), and
    # what it pays; ties between bids and bids exactly on t included
    CASCADE = [
        (0, (0.5, 0.25, 0.25), 1.0),
        (1, (0.5, 0.125, 0.25), 1.0),
        (1, (0.75, 0.25, 0.5), 1.0),  # x == t
        (2, (0.5, 0.25, 1.375), 1.0),
        (3, (0.5, 1.375, 0.25), 1.0),
        (4, (0.5, 1.25, 1.25), 1.0),
        (4, (1.125, 1.375, 1.25), 1.0),  # x == t
        (5, (0.5, 1.125, 1.25), 1.0),
        (5, (1.125, 1.25, 1.375), 1.0),  # x == t
        (6, (1.25, 1.375, 1.375), 1.0),
        (7, (1.25, 1.375, 1.5), 1.0),
        (8, (0.5, 0.5, 0.125), 0.5),
        (9, (0.5, 0.125, 0.5), 0.5),
        (10, (0.5, 0.5, 1.375), 0.5),
        (10, (1.125, 1.125, 1.5), 0.5),  # x == y == t
        (11, (0.5, 1.375, 0.5), 0.5),
        (12, (1.25, 1.25, 1.5), 0.5),
        (13, (1.25, 1.5, 1.25), 0.5),
        (14, (0.75, 0.75, 0.75), 1.0 / 3.0),
        (None, (1.375, 0.25, 0.5), 0.0),
        (None, (1.25, 1.25, 0.25), 0.0),
    ]

    @pytest.mark.parametrize("row", range(len(CASCADE)),
                             ids=[str(c[0]) for c in CASCADE])
    def test_array_cascade_equals_float_cascade(self, row):
        case, (x, y, z), pay = self.CASCADE[row]
        env = {"x": x, "y": y, "z": z, "t": (x + y + z + 3.0 * CFG.E) / 6.0}
        first = next((i for i, c in enumerate(self.CASES) if eval(c, env)), None)
        assert first == case, "the profile takes another case"
        assert gc.payoff_3(x, y, z, CFG) == pay
        # the profile amid the others, so a case cannot borrow another's row
        profiles = np.array([c[1] for c in self.CASCADE]).T
        arr = gc.payoff_3(*profiles, CFG)
        assert arr[row] == pay
        assert np.array_equal(arr, [gc.payoff_3(*prof, CFG) for prof in profiles.T.tolist()])

    def test_three_player_batch(self):
        rng = np.random.default_rng(14)
        b = rng.uniform(0.0, 1.5, (1000, 3))
        assert np.array_equal(gc.payoff_n_batch(b, CFG)[:, 0], gc.payoff_3(*b.T, CFG))

    def test_three_player_arrays_are_checked(self):
        with pytest.raises(DomainError):
            gc.payoff_3(np.array([0.5, 1.6]), 0.5, 0.5, CFG)
        with pytest.raises(DomainError):
            gc.payoff_3(0.5, np.array([0.5, math.nan]), 0.5, CFG)


class TestDeviation:
    def test_two_player_formula(self):
        # (y + 2E) / 3 for a single opponent
        for i in (0, 1):
            assert gc.best_deviation([0.8], i, CFG) == pytest.approx((0.8 + 2.0) / 3.0)

    def test_deviation_wins(self):
        rng = np.random.default_rng(15)
        for _ in range(2000):
            n = int(rng.integers(2, 6))
            others = list(rng.uniform(0.0, 1.5, n - 1))
            for i in range(n):
                star = gc.best_deviation(others, i, CFG)
                assert CFG.A < star < CFG.B
                assert gc.payoff_n(others[:i] + [star] + others[i:], CFG)[i] == 1.0

    def test_slot_is_required_and_checked(self):
        with pytest.raises(TypeError):
            gc.best_deviation([0.8], CFG)
        for i in (-1, 2):
            with pytest.raises(DomainError, match="slot"):
                gc.best_deviation([0.8], i, CFG)

    def test_threshold_matches_deviation(self):
        # same quotient; the deviation may sit a few ulps lower
        t = gc.threshold_t([0.4, 0.9], CFG)
        star = gc.best_deviation([0.4, 0.9], 1, CFG)
        assert t == pytest.approx(star, abs=1e-12)
        assert gc.threshold_t([0.2], CFG) == pytest.approx(2.2 / 3.0, abs=1e-15)
        assert gc.threshold_t([1.0, 1.0], CFG) == pytest.approx(1.0, abs=1e-15)


class TestMaps:
    def test_round_trips_and_commutation(self):
        maps = gc.maps_p(0.3, CFG)
        for x in np.linspace(0.0, 1.5, 13):
            assert maps.h2(maps.f1(x)) == pytest.approx(x, abs=1e-12)
            assert maps.h1(maps.f2(x)) == pytest.approx(x, abs=1e-12)
            assert maps.f1(maps.f2(x)) == pytest.approx(maps.f2(maps.f1(x)), abs=1e-12)

    def test_fixed_point_is_estimate(self):
        maps = gc.maps_p(0.41, CFG)
        for f in (maps.f1, maps.f2, maps.h1, maps.h2):
            assert f(CFG.E) == pytest.approx(CFG.E, abs=1e-12)

    def test_explicit_values(self):
        maps = gc.maps_p(0.3, CFG)
        assert maps.f1(0.0) == pytest.approx(1 / 1.3)
        assert maps.f2(0.0) == pytest.approx(1 / 1.7)
        assert maps.h1(0.7) == pytest.approx((1.7 * 0.7 - 1.0) / 0.7)
        assert maps.h2(0.7) == pytest.approx((1.3 * 0.7 - 1.0) / 0.3)

    def test_kernel_maps_are_cached_outside_equality_and_hash(self):
        kern = gc.WeightedKernel(0.3, CFG)
        assert "maps" not in vars(kern)  # built on first use only
        assert kern.maps is kern.maps and kern.maps == gc.maps_p(0.3, CFG)
        assert kern == gc.WeightedKernel(0.3, CFG)
        assert hash(kern) == hash(gc.WeightedKernel(0.3, CFG))
        assert repr(kern) == repr(gc.WeightedKernel(0.3, CFG))
        with pytest.raises(DomainError):
            gc.WeightedKernel(0.0, CFG).maps

    def test_domain(self):
        with pytest.raises(DomainError):
            gc.maps_p(0.0, CFG)
        with pytest.raises(DomainError):
            gc.maps_p(1.0, CFG)


class TestSequences:
    def test_symmetric_sequence(self):
        assert gc.sym_sequence_A(0, CFG) == CFG.A
        assert gc.sym_sequence_A(1, CFG) == pytest.approx(2 / 3)
        assert gc.sym_sequence_A(2, CFG) == pytest.approx(8 / 9)
        assert gc.sym_sequence_A(40, CFG) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(DomainError):
            gc.sym_sequence_A(-1, CFG)

    def test_weighted_anchors_p03(self):
        seq = gc.weighted_sequences(0.3, 8, CFG)
        assert seq.a_check[1] == pytest.approx(10 / 17, abs=1e-15)
        assert seq.a_check[2] == pytest.approx(240 / 289, abs=1e-14)
        assert seq.d_check[1] == pytest.approx(200 / 221, abs=1e-14)
        assert seq.c_check[1] == pytest.approx(230 / 867, abs=1e-14)
        assert seq.a_hat[1] == pytest.approx(10 / 13, abs=1e-15)
        assert math.isnan(seq.d_hat[0]) and math.isnan(seq.d_check[0])

    def test_seed_identity(self):
        # the hat-side seed equals the reflection of the second check entry
        for p in (0.1, 0.3, 0.45):
            seq = gc.weighted_sequences(p, 4, CFG)
            maps = gc.maps_p(p, CFG)
            assert seq.d_hat[1] == pytest.approx(maps.h2(seq.a_check[2]), abs=1e-10)
            assert seq.d_hat[1] == pytest.approx(seq.c_check[1], abs=1e-10)

    def test_recurrences(self):
        seq = gc.weighted_sequences(0.22, 10, CFG)
        maps = gc.maps_p(0.22, CFG)
        for i in range(1, 10):
            assert seq.a_hat[i + 1] == pytest.approx(maps.f1(seq.a_hat[i]), abs=1e-14)
            assert seq.a_check[i + 1] == pytest.approx(maps.f2(seq.a_check[i]), abs=1e-14)
            assert seq.d_hat[i + 1] == pytest.approx(maps.f2(seq.d_hat[i]), abs=1e-14)
            assert seq.d_check[i + 1] == pytest.approx(maps.f1(seq.d_check[i]), abs=1e-14)
            assert seq.c_check[i] == pytest.approx(maps.h2(seq.a_check[i + 1]), abs=1e-12)

    def test_monotone_toward_estimate(self):
        seq = gc.weighted_sequences(0.3, 20, CFG)
        diffs = np.diff(seq.a_check)
        assert (diffs > 0).all()
        assert seq.a_check[20] < CFG.E
        assert seq.a_check[20] == pytest.approx(CFG.E, abs=1e-3)

    def test_index_bounds(self):
        with pytest.raises(DomainError):
            gc.weighted_sequences(0.3, 0, CFG)
        with pytest.raises(DomainError):
            gc.weighted_sequences(0.3, 131, CFG)


class TestRegimes:
    def test_critical_p_is_quadratic_root(self):
        ps = gc.critical_p()
        assert 3 * ps**2 - 5 * ps + 1 == pytest.approx(0.0, abs=1e-14)
        assert ps == pytest.approx(0.23240812075600183, abs=1e-15)

    def test_critical_p_closes_the_loop(self):
        # at p* the reflection of the second check entry returns to A
        for cfg in (CFG, MarketConfig(A=0.3, B=2.5, E=1.7)):
            seq = gc.weighted_sequences(gc.critical_p(), 3, cfg)
            maps = gc.maps_p(gc.critical_p(), cfg)
            assert maps.h2(seq.a_check[2]) == pytest.approx(cfg.A, abs=1e-9)

    def test_classification(self):
        ps = gc.critical_p()
        assert gc.regime(0.5) is Regime.SYMMETRIC
        assert gc.regime(0.3) is Regime.INTERMEDIATE
        assert gc.regime(ps) is Regime.CRITICAL
        assert gc.regime(ps + 5e-13) is Regime.CRITICAL
        assert gc.regime(ps - 5e-13) is Regime.CRITICAL
        assert gc.regime(ps + 1e-6) is Regime.INTERMEDIATE
        assert gc.regime(ps - 1e-6) is Regime.LOW_P
        assert gc.regime(0.1) is Regime.LOW_P
        assert gc.regime(0.0) is Regime.DEGENERATE
        with pytest.raises(DomainError):
            gc.regime(-0.01)
        with pytest.raises(UnsupportedError):
            gc.regime(0.51)

    def test_low_p_m_values(self):
        assert gc.low_p_m(0.1) == 2
        assert gc.low_p_m(0.05) == 3
        assert gc.low_p_m(gc.critical_p() - 1e-4) == 1
        assert gc.low_p_m(1e-12) == 38
        assert gc.low_p_m(1e-16) == 52

    @staticmethod
    def _exact_m(p: float) -> int:
        """Largest i with r2^(1+i) >= r1, in exact rationals."""
        q = Fraction(p)
        r1, r2 = q / (q + 1), (1 - q) / (2 - q)
        i, power = 0, r2 * r2
        while power >= r1:
            i, power = i + 1, power * r2
        return i

    def test_low_p_m_is_the_exact_count(self):
        # at p = 2^-k, log r1 / log r2 lies within about k·2^-k of an
        # integer, closer than floats can resolve
        ps = [float(p) for p in np.geomspace(2.8e-20, gc.critical_p(), 200, endpoint=False)]
        ps += [2.0**-k for k in range(3, 66)]
        assert [gc.low_p_m(p) for p in ps] == [self._exact_m(p) for p in ps]

    def test_low_p_m_domain(self):
        for p in (0.0, 0.3, 0.5, gc.critical_p()):
            with pytest.raises(DomainError):
                gc.low_p_m(p)

    def test_low_p_m_smallest_supported_weight(self):
        # m reaches the cap of 64 exactly at p = 2^-66; below it m is 65 or
        # more, and low_p_m refuses, naming that weight
        p_min = 2.0**-66
        assert gc.low_p_m(p_min) == self._exact_m(p_min) == 64
        below = math.nextafter(p_min, 0.0)
        assert self._exact_m(below) == 65
        for p in (below, 1e-25):
            with pytest.raises(UnsupportedError, match=re.escape(repr(p_min))):
                gc.low_p_m(p)


def _inside(opp: float, ends) -> bool:
    """Membership in the win regions: lower closed-open, upper open-closed."""
    (lo1, hi1), (lo2, hi2) = ends
    return lo1 <= opp < hi1 or lo2 < opp <= hi2


class TestWinRegions:
    M03 = gc.maps_p(0.3, CFG)

    def test_row_structure_p03(self):
        lower, upper = gc.win_ends(0.7, Side.AS_ROW, self.M03, CFG)
        assert lower[0] == pytest.approx(0.19 / 0.7) and lower[1] == 0.7
        assert upper[0] == pytest.approx(1.21 / 1.3) and upper[1] == CFG.B

    def test_row_clips_to_a(self):
        lower, _ = gc.win_ends(0.3, Side.AS_ROW, self.M03, CFG)
        assert lower == (CFG.A, 0.3)

    def test_row_above_estimate_has_no_lower_part(self):
        lower, upper = gc.win_ends(1.05, Side.AS_ROW, self.M03, CFG)
        assert lower[1] <= lower[0]
        assert upper == (1.05, CFG.B)

    def test_column_structure_p03(self):
        lower, upper = gc.win_ends(0.7, Side.AS_COLUMN, self.M03, CFG)
        # h2(0.7) < A, so only the upper part survives
        assert lower[1] <= lower[0]
        assert upper[0] == 0.7 and upper[1] == pytest.approx(1.49 / 1.7)

    def test_column_above_estimate_collapses(self):
        lower, upper = gc.win_ends(1.2, Side.AS_COLUMN, self.M03, CFG)
        assert lower == (CFG.A, 1.2)
        assert upper[1] <= upper[0]

    @pytest.mark.parametrize("side", [Side.AS_ROW, Side.AS_COLUMN])
    def test_endpoints_follow_the_award(self, side):
        # the ends that random draws never hit: each is in a region exactly
        # when the award there is a strict win.  Only the bid, A and B are
        # tried; a map image is a rounded end, where membership holds in
        # exact arithmetic only.  The bid E is tried too: a column bid there
        # ends its lower region at E itself, not at h2(E)
        kern = gc.WeightedKernel(0.3, CFG)
        for bid in (0.0, 0.3, 0.45, 0.7, 0.95, CFG.E, 1.05, 1.2, 1.5):
            ends = gc.win_ends(bid, side, kern.maps, CFG)
            for opp in {q for lo_hi in ends for q in lo_hi if q in (bid, CFG.A, CFG.B)}:
                g = kern(bid, opp) if side is Side.AS_ROW else kern(opp, bid)
                assert _inside(opp, ends) == (g == 1.0), (side, bid, opp)

    @pytest.mark.parametrize("side", [Side.AS_ROW, Side.AS_COLUMN])
    def test_membership_matches_payoff(self, side):
        rng = np.random.default_rng(77)
        for _ in range(10000):
            p = rng.uniform(0.05, 0.95)
            bid = rng.uniform(0.0, 1.5)
            opp = rng.uniform(0.0, 1.5)
            kern = gc.WeightedKernel(p, CFG)
            inside = _inside(opp, gc.win_ends(bid, side, kern.maps, CFG))
            g = kern(bid, opp) if side is Side.AS_ROW else kern(opp, bid)
            assert inside == (g == 1.0), (side, p, bid, opp)

    @pytest.mark.parametrize("cfg", [CFG, MarketConfig(0.2, 2.0, 1.1)])
    @pytest.mark.parametrize("p", [0.5, gc.critical_p(), 0.3, 0.1, 0.01])
    @pytest.mark.parametrize("side", [Side.AS_ROW, Side.AS_COLUMN])
    def test_array_ends_equal_scalar_ends(self, side, p, cfg):
        maps = gc.maps_p(p, cfg)
        grid = np.linspace(cfg.A, cfg.B, 61)
        images = [f(grid) for f in (maps.h1, maps.f1, maps.h2, maps.f2)]
        draw = np.random.default_rng(53).uniform(cfg.A, cfg.B, 2_000)
        bids = np.concatenate([[cfg.A, cfg.B, cfg.E], *images, draw])
        bids = bids[(bids >= cfg.A) & (bids <= cfg.B)]
        arrays = np.array(gc.win_region_ends(bids, side, maps, cfg))  # (region, end, bid)
        scalars = np.array([gc.win_ends(float(x), side, maps, cfg) for x in bids])
        assert arrays.dtype == scalars.dtype == np.float64
        # bit for bit, so a signed zero or an ulp apart would show
        assert np.array_equal(arrays.transpose(2, 0, 1).view(np.uint64),
                              scalars.view(np.uint64))


class TestKernelCutpoints:
    @pytest.mark.parametrize("cfg", [CFG, MarketConfig(1e6, 1e6 + 1.5, 1e6 + 1)])
    @pytest.mark.parametrize("p", [0.0, 0.3, gc.critical_p(), 1.0])
    @pytest.mark.parametrize("side", [Side.AS_ROW, Side.AS_COLUMN])
    def test_every_jump_is_near_a_cutpoint(self, side, p, cfg):
        from procurelab.oracle_solver import _REACH_ULPS

        kern = gc.WeightedKernel(p, cfg)
        bids = np.append([cfg.A, cfg.B, cfg.E], np.linspace(cfg.A, cfg.B, 151))
        cuts = np.stack(gc.kernel_cutpoints(kern, bids, side), axis=1)
        # a dense opponent axis holding every bid (for the ties) and each
        # cutpoint with its one-ulp neighbours (for the region ends)
        near = np.concatenate([cuts.ravel(), np.nextafter(cuts.ravel(), -np.inf),
                               np.nextafter(cuts.ravel(), np.inf)])
        ys = np.unique(np.concatenate([np.linspace(cfg.A, cfg.B, 2_001), bids, near]))
        ys = ys[(ys >= cfg.A) & (ys <= cfg.B)]
        vals = (kern.batch(bids[:, None], ys[None, :]) if side is Side.AS_ROW
                else kern.batch(ys[None, :], bids[:, None]))
        row, col = np.nonzero(np.diff(vals, axis=1))
        assert len(row) >= len(bids)
        # _grid_steps' rounding allowance, with the opponent's price weight
        weight = kern.w_col if side is Side.AS_ROW else kern.p
        reach = _REACH_ULPS * math.ulp(max(abs(cfg.A), abs(cfg.B))) / (weight or 1.0)
        c = cuts[row]
        near_jump = (c >= ys[col, None] - reach) & (c <= ys[col + 1, None] + reach)
        missed = ~near_jump.any(axis=1)
        assert not missed.any(), (bids[row[missed]][:3], ys[col[missed]][:3])

    @pytest.mark.parametrize("p", [0.0, 0.3, gc.critical_p(), 1.0])
    @pytest.mark.parametrize("side", [Side.AS_ROW, Side.AS_COLUMN])
    def test_array_form_equals_float_form(self, side, p):
        kern = gc.WeightedKernel(p, CFG).swapped()
        bids = np.append([CFG.A, CFG.B, CFG.E], np.linspace(CFG.A, CFG.B, 151))
        arrays = np.stack(gc.kernel_cutpoints(kern, bids, side), axis=1)
        floats = [gc.kernel_cutpoints(kern, x, side) for x in bids.tolist()]
        assert all(type(q) is float for cut in floats for q in cut)
        # bit for bit, so a signed zero or an ulp apart would show
        assert np.array_equal(arrays.view(np.uint64), np.array(floats).view(np.uint64))

    def test_unknown_side_raises(self):
        with pytest.raises(DomainError):
            gc.kernel_cutpoints(gc.WeightedKernel(0.0, CFG), 0.5, "AsRow")


class TestCutpointGeometry:
    def test_relations(self):
        rng = np.random.default_rng(21)
        for _ in range(10000):
            y, z = rng.uniform(0.0, 1.5, 2)
            c = gc.cutpoints3(y, z, CFG)
            assert (c.p_y - y) == pytest.approx(5 * (y - c.t), abs=1e-12)
            assert (c.p_z - z) == pytest.approx(5 * (z - c.t), abs=1e-12)
            assert (c.p_y - c.p_z) == pytest.approx(6 * (y - z), abs=1e-12)

    def test_anchor_values(self):
        c = gc.cutpoints3(0.8, 0.6, CFG)
        assert c.t == pytest.approx((0.8 + 0.6 + 3.0) / 5.0)
        assert c.p_y == pytest.approx(5 * 0.8 - 3.0 - 0.6)
        assert c.p_z == pytest.approx(5 * 0.6 - 3.0 - 0.8)

    def test_cells_match_their_patterns(self):
        # the same 50,000 draws as one pair per rng call, classified at once
        ys, zs = np.random.default_rng(23).uniform(0.0, 1.5, (50000, 2)).T
        cells = gc.ordering_cells(ys, zs, CFG)
        inside = ~cells.boundary
        y, z, tag, mirrored = ys[inside], zs[inside], cells.tag[inside], cells.mirrored[inside]
        t = gc.cutpoints3(y, z, CFG).t
        a = np.where(mirrored, z, y)
        b = np.where(mirrored, y, z)
        p_a = 5 * a - 3 * CFG.E - b
        p_b = 5 * b - 3 * CFG.E - a
        patterns = {
            "O1": [p_a, p_b, a, b, t],
            "O2": [p_a, a, p_b, b, t],
            "O3": [p_a, a, t, b, p_b],
            "O4": [t, a, b, p_a, p_b],
            "O5": [t, a, p_a, b, p_b],
        }
        for name, ordered in patterns.items():
            mine = tag == name
            assert all((u[mine] < v[mine]).all() for u, v in zip(ordered, ordered[1:])), name
        assert set(tag) == {"O1", "O2", "O3", "O4", "O5"}

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryError):
            gc.ordering_cell(0.6, 0.6, CFG)
        # y = t forces z = 4y - 3E
        y = 0.9
        z = 4 * y - 3.0
        with pytest.raises(BoundaryError):
            gc.ordering_cell(y, z, CFG)

    # one pair on each cell boundary, unmirrored (y < z): y = z, b = t,
    # p_b = a and p_a = b, with a = min(y, z) and b = max(y, z)
    BOUNDARY_PAIRS = [(0.6, 0.6), (0.6, 0.9), (0.25, 0.7), (1.1, 1.25)]

    def test_boundary_pairs_rejected(self):
        for y, z in self.BOUNDARY_PAIRS:
            for pair in ((y, z), (z, y)):
                with pytest.raises(BoundaryError):
                    gc.ordering_cell(*pair, CFG)
                cells = gc.ordering_cells(np.array([pair[0]]), np.array([pair[1]]), CFG)
                assert cells.boundary[0] and cells.tag[0] == ""

    def test_array_cells_match_scalar(self):
        axis = np.linspace(CFG.A, CFG.B, 202)[1:-1]
        ys, zs = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))
        extra = np.array(self.BOUNDARY_PAIRS + [(0.55, 0.6), (0.3, 1.2), (1.05, 1.3)])
        ys = np.concatenate([ys, extra[:, 0], extra[:, 1]])  # and each pair mirrored
        zs = np.concatenate([zs, extra[:, 1], extra[:, 0]])
        cells = gc.ordering_cells(ys, zs, CFG)
        assert cells.tag.shape == cells.mirrored.shape == cells.boundary.shape == ys.shape
        # the grid's own boundary pairs plus eight constructed ones
        assert cells.boundary.sum() == 376 + 2 * len(self.BOUNDARY_PAIRS)
        assert (cells.tag[cells.boundary] == "").all()
        assert set(cells.tag[~cells.boundary]) == {"O1", "O2", "O3", "O4", "O5"}
        n = len(extra)
        assert cells.mirrored[-3:].all() and not cells.mirrored[-n - 3:-n].any()
        # ordering_cell is ordering_cells on one pair: check it on the constructed ones
        for k in range(len(ys) - 2 * n, len(ys)):
            if cells.boundary[k]:
                with pytest.raises(BoundaryError):
                    gc.ordering_cell(ys[k], zs[k], CFG)
            else:
                cell = gc.ordering_cell(ys[k], zs[k], CFG)
                assert (cell.tag, cell.mirrored) == (cells.tag[k], cells.mirrored[k])

    def test_array_cutpoints_match_scalar(self):
        rng = np.random.default_rng(25)
        ys, zs = rng.uniform(0.0, 1.5, (2, 500))
        cut = gc.cutpoints3(ys, zs, CFG)
        for k in range(len(ys)):
            one = gc.cutpoints3(float(ys[k]), float(zs[k]), CFG)
            assert (one.t, one.p_y, one.p_z) == (cut.t[k], cut.p_y[k], cut.p_z[k])
        with pytest.raises(DomainError):
            gc.cutpoints3(np.array([0.5, math.nan]), np.array([0.5, 0.5]), CFG)

    def test_jump_sign_tables(self):
        cell = gc.ordering_cell(0.55, 0.6, CFG)  # both below t, p_b < a
        assert cell.tag == "O1" and not cell.mirrored
        assert gc.jump_signs(cell) == {"y": 0, "p_y": -1, "z": 1, "p_z": 0, "t": -1}
        mirrored = gc.ordering_cell(0.6, 0.55, CFG)
        assert mirrored.tag == "O1" and mirrored.mirrored
        assert gc.jump_signs(mirrored) == {"z": 0, "p_z": -1, "y": 1, "p_y": 0, "t": -1}


class TestDiscontinuities:
    def test_tie(self):
        assert gc.classify_discontinuity(0, [0.6, 0.6, 0.3], CFG) is DiscontinuityClass.TIE

    def test_losing_tie_is_continuity(self):
        # tied pair loses to the 0.6 bid: not a discontinuity for its members
        assert gc.classify_discontinuity(0, [0.3, 0.3, 0.6], CFG) is DiscontinuityClass.CONTINUITY

    def test_fixed_point(self):
        others = [0.5, 0.8]
        t = gc.threshold_t(others, CFG)
        assert gc.classify_discontinuity(0, [t] + others, CFG) is DiscontinuityClass.FIXED_POINT

    def test_fixed_point_from_probe_construction(self):
        for x in np.linspace(0.75, 0.95, 7):
            c = (5 * x - 3.0) / 2.0
            if c < CFG.A:
                continue
            cls = gc.classify_discontinuity(0, [x, c, c], CFG)
            assert cls is DiscontinuityClass.FIXED_POINT, (x, cls)

    def test_transition(self):
        xi = 0.5
        c = (xi + 3.0) / 4.0  # opponents exactly at the reference price
        assert gc.classify_discontinuity(0, [xi, c, c], CFG) is DiscontinuityClass.TRANSITION
        for x in np.linspace(0.1, 0.9, 9):
            y = (x + 2.0) / 3.0
            assert gc.classify_discontinuity(0, [x, y], CFG) is DiscontinuityClass.TRANSITION

    def test_generic_profiles_are_continuity_points(self):
        rng = np.random.default_rng(31)
        for _ in range(2000):
            prof = rng.uniform(0.0, 1.5, int(rng.integers(2, 5)))
            assert gc.classify_discontinuity(0, prof, CFG) is DiscontinuityClass.CONTINUITY

    def test_index_validation(self):
        with pytest.raises(DomainError):
            gc.classify_discontinuity(3, [0.4, 0.6], CFG)


class TestKernels:
    def test_matrix_and_batch(self):
        k = gc.WeightedKernel(p=0.3, cfg=CFG)
        xs = np.linspace(0.0, 1.5, 9)
        ys = np.linspace(0.0, 1.5, 7)
        m = k.matrix(xs, ys)
        assert m.shape == (9, 7)
        for i in range(9):
            for j in range(7):
                assert m[i, j] == k(xs[i], ys[j])

    @pytest.mark.parametrize("make", [
        lambda: gc.WeightedKernel(p=0.5, cfg=CFG),
        lambda: gc.WeightedKernel(p=0.3, cfg=CFG),
        lambda: gc.WeightedKernel(p=0.3, cfg=CFG).swapped(),
    ], ids=["p=0.5", "p=0.3", "p=0.3-swapped"])
    @pytest.mark.parametrize("n, m", [
        (1601, 1601),  # 10 rows per block: the last block holds one row
        (3, gc.BLOCK + 3),  # a row wider than a block: one row per block
        (70_000, 1),  # one column: many rows per block, a short last block
        (0, 5),
        (4, 0),
    ])
    def test_matrix_is_the_one_shot_batch(self, make, n, m):
        k = make()
        rng = np.random.default_rng(n + m)
        # E and A where there is room; xs starts with ys, so ties fill the
        # leading diagonal
        ys = np.concatenate([[CFG.E, CFG.A], rng.uniform(CFG.A, CFG.B, m)])[:m]
        xs = np.concatenate([ys, rng.uniform(CFG.A, CFG.B, n)])[:n]
        m_blocked = k.matrix(xs, ys)
        m_whole = k.batch(xs[:, None], ys[None, :])
        assert m_blocked.dtype == np.float64 and m_blocked.flags.c_contiguous
        assert m_blocked.shape == (n, m)
        assert np.array_equal(m_blocked, m_whole)

    def test_symmetric_kernel_is_constant_sum(self):
        k = gc.symmetric_kernel(CFG)
        assert k.is_symmetric and k.tie_value == 0.5
        xs = np.linspace(0.0, 1.5, 31)
        m = k.matrix(xs, xs)
        assert np.array_equal(m + m.T, np.ones_like(m))

    def test_swapped_is_the_exact_complement(self):
        rng = np.random.default_rng(23)
        for cfg in (CFG, gc.MarketConfig(A=0.2, B=2.0, E=1.1),
                    gc.MarketConfig(A=1e6, B=1e6 + 1.5, E=1e6 + 1)):
            for p in (0.3, 0.1, gc.critical_p(), *rng.uniform(0.0, 1.0, 5)):
                k = gc.WeightedKernel(p=float(p), cfg=cfg)
                s = k.swapped()
                assert s.p == k.w_col and s.w_col == k.p and s.swapped() == k
                xs = np.unique(np.concatenate([np.linspace(cfg.A, cfg.B, 61), [cfg.E]]))
                assert np.array_equal(k.matrix(xs, xs) + s.matrix(xs, xs).T, np.ones((xs.size,) * 2))
                for x, y in rng.uniform(cfg.A, cfg.B, (50, 2)):
                    assert k(x, y) + s(y, x) == 1.0
                    assert k(x, y) == k.batch(x, y)

    def test_weight_validation(self):
        with pytest.raises(DomainError):
            gc.WeightedKernel(p=-0.1, cfg=CFG)
        with pytest.raises(DomainError):
            gc.WeightedKernel(p=0.3, cfg=CFG, w_col=0.6)
        with pytest.raises(DomainError):
            gc.WeightedKernel(p=1.0, cfg=CFG, w_col=-1e-17)

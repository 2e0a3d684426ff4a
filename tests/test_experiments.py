"""Tests for the experiment drivers and the verification battery."""
import dataclasses
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from procurelab._report import worst_of
from procurelab._rng import derive_seed, uniform_stream
from procurelab.equilibria import (
    log_equilibrium,
    uniform_equilibrium,
    value_weighted,
    weighted_equilibrium,
)
from procurelab.experiments import (
    DynamicsTrajectory,
    RegionKind,
    battery_passed,
    br_dynamics,
    equilibrium_inequalities,
    functional_residuals,
    make_report,
    mc_tournament,
    region_grid,
    region_grid_csv,
    run_battery,
)
from procurelab.game_core import (
    DomainError,
    MarketConfig,
    UnsupportedError,
    WeightedKernel,
    best_deviation,
    default_config,
    payoff_n,
    payoff_n_batch,
    symmetric_kernel,
    threshold_t,
)
from procurelab import experiments
from procurelab.equilibria import critical_regime_strategy
from procurelab.strategy import Atom, MixedStrategy, Piece, PieceKind, point_mass

CFG = default_config()
CONFIGS = [CFG, MarketConfig(0.2, 2.0, 1.1), MarketConfig(1e6, 1e6 + 1.5, 1e6 + 1)]

BATTERY_CHECKS = [
    "payoff-conservation",
    "combinatorial-agreement",
    "three-player-agreement",
    "deviation-optimality",
    "cutpoint-relations",
    "ordering-cells-exhaustive",
    "jump-sign-scan",
    "map-roundtrips",
    "strategy-normalization",
    "equilibrium-inequalities",
    "curve-quadrature-agreement",
    "functional-residuals",
    "value-at-half",
    "value-at-critical",
    "critical-map-identity",
    "joint-value-consistency",
    "mc-consistency",
    "matrix-constant-sum",
    "solver-certificate-recompute",
    "projection-gap-ladder",
    "pure-ne-scan",
    "br-dynamics-no-fixed-point",
    "value-ladder-desk",
    "ddpm-one-sided-limits",
]


class TestReport:
    def test_make_report_sets_pass_flag(self):
        assert make_report("c", {}, 1e-13, 1e-12).passed
        assert not make_report("c", {}, 1e-11, 1e-12).passed
        # boundary counts as passing
        assert make_report("c", {}, 1e-12, 1e-12).passed

    def test_numpy_violation_reports_fail(self):
        r = make_report("c", {}, np.float64(1.0), 0.0)
        assert r.passed is False
        assert make_report("c", {}, np.float64(0.0), np.float64(1.0)).passed is True

    def test_nan_violation_fails(self):
        assert not make_report("c", {}, math.nan, 1e-12).passed

    @pytest.mark.parametrize("pairs, at", [
        ([(math.nan, "a"), (1.0, "b"), (math.nan, "c")], "a"),
        ([(1.0, "a"), (math.nan, "b"), (2.0, "c")], "b"),
        ([(1.0, "a"), (2.0, "b"), (math.nan, "c")], "c"),
    ], ids=["first", "middle", "last"])
    def test_worst_of_ranks_nan_on_top(self, pairs, at):
        top, worst = worst_of(pairs)
        assert math.isnan(top) and worst == [at]

    def test_worst_of_keeps_the_first_tie(self):
        assert worst_of([(0.5, "a"), (1.0, "b"), (1.0, "c")]) == (1.0, ["b"])
        assert worst_of([(np.array([0.5, 2.0, 2.0]), lambda k: k)]) == (2.0, [1])

    def test_worst_of_without_a_positive_violation(self):
        assert worst_of([]) == (0.0, [])
        assert worst_of([(0.0, "a"), (-1.0, "b"), (np.zeros(3), lambda k: k)]) == (0.0, [])

    def test_worst_of_hands_the_argmax_to_where(self):
        seen = []

        def where(k):
            seen.append(k)
            return ("bid", k)

        top, worst = worst_of([(np.array([0.1, 0.4, 0.3]), where), (0.2, "scalar"),
                               (np.array([0.0, 0.5, math.nan, 0.7]), where)])
        assert seen == [1, 2]  # the first NaN is the largest entry
        assert math.isnan(top) and worst == [("bid", 2)]
        top, worst = worst_of([(np.array([0.1, 0.4, 0.3]), where), (0.2, "scalar")])
        assert type(top) is float and (top, worst) == (0.4, [("bid", 1)])

    def test_json_shape(self):
        r = make_report("c", {"n": 3}, 0.5, 1.0, worst=((1, 2),), runtime_s=0.25)
        payload = json.loads(r.to_json())
        assert payload["check"] == "c"
        assert payload["parameters"] == {"n": 3}
        assert payload["max_violation"] == 0.5
        assert payload["tolerance"] == 1.0
        assert payload["pass"] is True
        # wall time varies between runs and must not leak into the payload
        assert "runtime_s" not in payload
        assert "runtime" not in r.to_json()


class TestTournament:
    def test_shared_atom_splits_exactly(self):
        pe = point_mass(CFG.E, CFG)
        res = mc_tournament([pe, pe], symmetric_kernel(CFG), 500, 7)
        assert res.means == (0.5, 0.5)
        assert res.stderrs == (0.0, 0.0)
        assert res.samples == 500 and res.seed == 7

    def test_column_is_exact_complement(self):
        s = log_equilibrium(CFG)
        res = mc_tournament([s, uniform_equilibrium(CFG)], symmetric_kernel(CFG), 2_000, 3)
        assert abs(res.means[0] + res.means[1] - 1.0) < 1e-12
        assert res.stderrs[0] == res.stderrs[1]

    def test_log_pair_brackets_half(self):
        s = log_equilibrium(CFG)
        res = mc_tournament([s, s], symmetric_kernel(CFG), 100_000, 42)
        assert abs(res.means[0] - 0.5) <= 4.0 * res.stderrs[0]
        assert 1e-4 < res.stderrs[0] < 1e-2

    def test_weighted_pair_brackets_value(self):
        w = weighted_equilibrium(0.3, CFG)
        res = mc_tournament([w, w], WeightedKernel(p=0.3, cfg=CFG), 100_000, 42)
        assert abs(res.means[0] - value_weighted(0.3).v) <= 4.0 * res.stderrs[0]

    def test_three_player_mode(self):
        pe = point_mass(CFG.E, CFG)
        res = mc_tournament([pe, pe, pe], None, 300, 11)
        assert len(res.means) == 3
        for m, se in zip(res.means, res.stderrs):
            assert abs(m - 1.0 / 3.0) < 1e-15
            assert se < 1e-15

    def test_deterministic_and_seed_sensitive(self):
        s = log_equilibrium(CFG)
        kern = symmetric_kernel(CFG)
        a = mc_tournament([s, s], kern, 5_000, 42)
        b = mc_tournament([s, s], kern, 5_000, 42)
        c = mc_tournament([s, s], kern, 5_000, 43)
        assert a == b
        assert a.means != c.means

    @staticmethod
    def _whole_array(strategies, kernel, samples, seed):
        """Means and stderrs of whole-array payoffs (np.mean, np.std)."""
        bids = np.column_stack([
            s.quantile(uniform_stream(derive_seed(seed, "tournament", i), samples))
            for i, s in enumerate(strategies)
        ])
        if kernel is not None:
            row = kernel.batch(bids[:, 0], bids[:, 1])
            cols = [row, 1.0 - row]
        else:
            pays = payoff_n_batch(bids, CFG)
            cols = [pays[:, i] for i in range(len(strategies))]
        return ([float(c.mean()) for c in cols],
                [float(c.std(ddof=1) / math.sqrt(samples)) for c in cols])

    def _assert_matches_whole_array(self, strategies, kernel, samples, seed):
        res = mc_tournament(strategies, kernel, samples, seed)
        means, stderrs = self._whole_array(strategies, kernel, samples, seed)
        # a sum of 0/1 payoffs is exact either way; the stderr comes from
        # counts instead of a pairwise sum of squares, so it may move by ulps
        assert list(res.means) == means
        for got, want in zip(res.stderrs, stderrs):
            assert abs(got - want) <= 4 * math.ulp(want)
        assert (res.samples, res.seed) == (samples, seed)

    @pytest.mark.parametrize("samples", [2, 65_537, 200_003])
    def test_matches_unblocked_reference(self, samples):
        """Streamed counts give the means of whole-array payoffs exactly."""
        two = ([weighted_equilibrium(0.3, CFG)] * 2, WeightedKernel(p=0.3, cfg=CFG))
        three = ([log_equilibrium(CFG), uniform_equilibrium(CFG), point_mass(0.9, CFG)], None)
        for strategies, kernel in (two, three):
            self._assert_matches_whole_array(strategies, kernel, samples, 5)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_tie_value_coinciding_with_loss_or_win(self, p):
        # atoms make bids tie; at p = 0 a tie pays the loss value, at p = 1
        # the win value, so two of the three payoff values are one
        mixed = MixedStrategy((Piece(PieceKind.UNIFORM, 0.0, 0.4, 0.3),
                               Piece(PieceKind.RECIPROCAL, 0.5, 0.9, 0.4)),
                              (Atom(0.45, 0.1), Atom(0.95, 0.2)), CFG).validate()
        self._assert_matches_whole_array([mixed, mixed], WeightedKernel(p=p, cfg=CFG),
                                         70_001, 7)

    def test_block_size_independence(self, monkeypatch):
        cases = (
            ([log_equilibrium(CFG), uniform_equilibrium(CFG)], symmetric_kernel(CFG)),
            ([log_equilibrium(CFG), uniform_equilibrium(CFG), critical_regime_strategy(CFG)],
             None),
        )
        for strategies, kernel in cases:
            results = []
            for block in (1_000, 65_536):
                monkeypatch.setattr(experiments, "CELLS", block)
                results.append(mc_tournament(strategies, kernel, 70_001, 3))
            assert results[0] == results[1]

    def test_unexpected_payoff_value_raises(self, monkeypatch):
        real = experiments.payoff_n_batch
        monkeypatch.setattr(experiments, "payoff_n_batch",
                            lambda bids, cfg: 0.9 * real(bids, cfg))
        s = log_equilibrium(CFG)
        with pytest.raises(RuntimeError, match="payoffs outside"):
            mc_tournament([s, s, s], None, 100, 0)

    def test_unexpected_two_player_payoff_raises(self, monkeypatch):
        real = WeightedKernel.batch
        monkeypatch.setattr(WeightedKernel, "batch", lambda self, x, y: 0.9 * real(self, x, y))
        s = log_equilibrium(CFG)
        with pytest.raises(RuntimeError, match="payoffs outside"):
            mc_tournament([s, s], symmetric_kernel(CFG), 100, 0)

    @pytest.mark.parametrize("make", [log_equilibrium, critical_regime_strategy])
    def test_million_draws_stay_small(self, make):
        # the draws, payoffs and statistics are made a block at a time; a
        # million-element float array alone would be 7.6 MiB
        s = make(CFG)
        kernel = symmetric_kernel(CFG)
        mc_tournament([s, s], kernel, 1_000, 1)  # fill the strategy's caches
        tracemalloc.start()
        try:
            mc_tournament([s, s], kernel, 1_000_000, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_validation(self):
        s = log_equilibrium(CFG)
        with pytest.raises(DomainError):
            mc_tournament([s, s], symmetric_kernel(CFG), 1, 0)
        with pytest.raises(DomainError):
            mc_tournament([s, s, s], symmetric_kernel(CFG), 10, 0)
        with pytest.raises(DomainError):
            mc_tournament([s], None, 10, 0)


class TestDynamics:
    def test_no_fixed_point_from_floor(self):
        traj = br_dynamics((CFG.A, CFG.A), 10_000, CFG)
        assert traj.fixed_point_step is None
        assert traj.min_winner_payoff == 1.0
        assert len(traj.profiles) == 10_001
        assert traj.profiles[0] == (CFG.A, CFG.A)

    def test_three_player_cycle(self):
        traj = br_dynamics((CFG.A, 0.75, CFG.B), 10_000, CFG)
        assert traj.fixed_point_step is None
        assert traj.min_winner_payoff == 1.0

    def test_deterministic(self):
        a = br_dynamics((0.2, 1.1), 500, CFG)
        b = br_dynamics((0.2, 1.1), 500, CFG)
        assert a == b

    def test_moves_stay_in_range(self):
        traj = br_dynamics((CFG.B, CFG.B), 200, CFG)
        arr = np.array(traj.profiles)
        assert arr.min() >= CFG.A and arr.max() <= CFG.B

    def test_validation(self):
        with pytest.raises(DomainError):
            br_dynamics((0.5,), 10, CFG)
        with pytest.raises(DomainError):
            br_dynamics((0.5, 0.5), 0, CFG)
        with pytest.raises(DomainError):
            br_dynamics((CFG.A - 1.0, 0.5), 10, CFG)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["default", "other", "translated"])
    @pytest.mark.parametrize("n_players", [2, 3, 4, 5])
    def test_secured_move_wins_in_own_slot(self, cfg, n_players):
        # best_deviation, the move of best-response play, against ties
        # everywhere: all bids equal (at A, E and B), the mover tied with an
        # opponent, and an opponent on the threshold the others induce, so
        # the deviation ties it and must undercut
        span = cfg.B - cfg.A
        u = uniform_stream(derive_seed(13, "secured", n_players), 40 * n_players)
        profiles = [[b] * n_players for b in (cfg.A, cfg.E, cfg.B)]
        for row in (cfg.A + span * u).reshape(40, n_players).tolist():
            tied = list(row)
            tied[1] = tied[0]
            rest = row[2:]
            on_t = (sum(rest) + n_players * cfg.E) / (2.0 * n_players - 2.0)
            profiles += [row, tied, [row[0], min(on_t, cfg.B), *rest]]
        for current in profiles:
            for i in range(n_players):
                head, tail = current[:i], current[i + 1:]
                bid = best_deviation(head + tail, i, cfg)
                assert payoff_n((*head, bid, *tail), cfg)[i] == 1.0, (current, i)

    def test_nan_winner_payoff_is_the_minimum(self, monkeypatch):
        import procurelab.experiments as ex

        monkeypatch.setattr(ex, "payoff_n", lambda bids, cfg: (math.nan,) * len(bids))
        assert math.isnan(br_dynamics([0.3, 0.7], 200, default_config()).min_winner_payoff)
        by_name = {r.check: r for r in run_battery(seed=42)}
        report = by_name["br-dynamics-no-fixed-point"]
        assert not report.passed and math.isnan(report.max_violation)


def reference_br_dynamics(start, steps, cfg):
    """Step-by-step best-response play, every step simulated (the oracle)."""
    import procurelab.experiments as ex

    current = [cfg.require_bid(b) for b in start]
    n = len(current)
    profiles = [tuple(current)]
    unchanged = 0
    fixed_at = None
    min_winner = 1.0
    for t in range(steps):
        i = t % n
        bid = ex.best_deviation(current[:i] + current[i + 1:], i, cfg)
        unchanged = unchanged + 1 if bid == current[i] else 0
        current[i] = bid
        min_winner = min(min_winner, ex.payoff_n(tuple(current), cfg)[i])
        profiles.append(tuple(current))
        if unchanged >= n:
            fixed_at = t
            break
    return tuple(profiles), fixed_at, min_winner


def same_as_reference(traj, start, steps, cfg):
    return (traj.profiles, traj.fixed_point_step, traj.min_winner_payoff) == (
        reference_br_dynamics(start, steps, cfg)
    )


class TestDynamicsCycles:
    @pytest.mark.parametrize("cfg", CONFIGS, ids=["default", "other", "translated"])
    @pytest.mark.parametrize("n_players", [2, 3, 4, 5])
    def test_matches_step_by_step_play(self, cfg, n_players):
        u = uniform_stream(derive_seed(11, "cycle-test", n_players), n_players)
        starts = [
            [cfg.A] * n_players,
            [cfg.B] * n_players,
            [cfg.A + (cfg.B - cfg.A) * float(x) for x in u],
        ]
        for start in starts:
            full = br_dynamics(start, 10_000, cfg)
            assert full.cycle_start is not None and full.fixed_point_step is None
            repeat = full.cycle_start + full.period
            # the repeat is seen exactly at step `repeat`; past it the tail is replayed
            for steps in sorted({repeat - 1, repeat, max(repeat + 1, 500)}):
                traj = br_dynamics(start, steps, cfg)
                assert same_as_reference(traj, start, steps, cfg)
                assert len(traj.profiles) == steps + 1
                if steps < repeat:
                    assert (traj.cycle_start, traj.period) == (None, None)
                else:
                    assert (traj.cycle_start, traj.period) == (full.cycle_start, full.period)

    @pytest.mark.parametrize("move", [
        lambda others, i: (0.3, 0.7, 0.5)[i],
        lambda others, i: min(others),
    ], ids=["keep", "match-lowest"])
    def test_fixed_point_is_reported_before_the_repeat(self, monkeypatch, move):
        # the game has no pure equilibrium, so a stand-in move rule, which
        # sees only the opponents and the slot, makes one: keep bids the
        # start again, and match-lowest reaches its fixed point after a
        # transient, at the very step its state first repeats
        import procurelab.experiments as ex

        monkeypatch.setattr(ex, "best_deviation", lambda others, i, cfg: move(others, i))
        start = (0.3, 0.7, 0.5)
        traj = br_dynamics(start, 50, CFG)
        assert traj.fixed_point_step is not None
        assert (traj.cycle_start, traj.period) == (None, None)
        assert same_as_reference(traj, start, 50, CFG)

    def test_battery_starts_cycle_early(self):
        for n_players, traj in battery_trajectories():
            assert traj.period == {2: 46, 3: 81}[n_players]
            assert traj.cycle_start + traj.period <= 189
            assert len(traj.profiles) == 10_001

    def test_battery_moves_sit_on_the_threshold(self):
        # each simulated move of the battery's starts is the clipped
        # threshold or one of the 8 floats under it, unless an opponent bids
        # one of those 9 and the move undercuts it
        far = 0
        for n_players, traj in battery_trajectories():
            simulated = traj.profiles[:traj.cycle_start + traj.period + 1]
            for t, (before, after) in enumerate(zip(simulated, simulated[1:])):
                i = t % n_players
                others = before[:i] + before[i + 1:]
                ladder = [min(max(threshold_t(others, CFG), CFG.A), CFG.B)]
                for _ in range(8):
                    ladder.append(math.nextafter(ladder[-1], CFG.A))
                far += after[i] not in ladder and not any(b in ladder for b in others)
        assert far == 0


def battery_trajectories():
    """(N, trajectory) of br-dynamics-no-fixed-point's 20 starts at seed 42."""
    span = CFG.B - CFG.A
    for n_players in (2, 3):
        for run_idx in range(10):
            u = uniform_stream(derive_seed(42, "br", n_players, run_idx), n_players)
            yield n_players, br_dynamics([CFG.A + span * float(x) for x in u], 10_000, CFG)


class TestRegionGrid:
    def test_two_player_plane(self):
        M = region_grid(RegionKind.TWO_PLAYER, 512, CFG)
        assert M.shape == (512, 512)
        assert np.all(np.diag(M) == 0.5)
        assert np.array_equal(M + M.T, np.ones_like(M))

    def test_weighted_plane_diagonal_is_p(self):
        M = region_grid(RegionKind.WEIGHTED_P, 64, CFG, p=0.1)
        assert np.all(np.diag(M) == 0.1)

    def test_three_player_slice_depends_on_own_bid(self):
        at_e = region_grid(RegionKind.THREE_PLAYER_SLICE, 64, CFG, x=CFG.E)
        at_a = region_grid(RegionKind.THREE_PLAYER_SLICE, 64, CFG, x=CFG.A)
        assert at_e.shape == (64, 64)
        assert (at_e != at_a).mean() > 0.1

    def test_resolution_caps(self):
        with pytest.raises(UnsupportedError):
            region_grid(RegionKind.TWO_PLAYER, 4097, CFG)
        with pytest.raises(DomainError):
            region_grid(RegionKind.TWO_PLAYER, 1, CFG)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            region_grid(RegionKind.TWO_PLAYER, 8, CFG, p=0.3)
        with pytest.raises(DomainError):
            region_grid(RegionKind.WEIGHTED_P, 8, CFG)
        with pytest.raises(DomainError):
            region_grid(RegionKind.WEIGHTED_P, 8, CFG, p=0.3, x=0.5)
        with pytest.raises(DomainError):
            region_grid(RegionKind.THREE_PLAYER_SLICE, 8, CFG)
        with pytest.raises(DomainError):
            region_grid(RegionKind.THREE_PLAYER_SLICE, 8, CFG, x=0.5, p=0.3)

    def test_csv_header_and_shape(self):
        M = region_grid(RegionKind.TWO_PLAYER, 8, CFG)
        text = region_grid_csv(M, RegionKind.TWO_PLAYER, 8, CFG)
        lines = text.splitlines()
        assert lines[0] == "kind=TwoPlayer,resolution=8,A=0,B=1.5,E=1"
        assert len(lines) == 9
        assert text.endswith("\n")
        parsed = np.array([[float(v) for v in row.split(",")] for row in lines[1:]])
        assert np.allclose(parsed, M, atol=1e-12)

    def test_csv_header_carries_slice_parameters(self):
        Mw = region_grid(RegionKind.WEIGHTED_P, 4, CFG, p=0.1)
        assert region_grid_csv(Mw, RegionKind.WEIGHTED_P, 4, CFG, p=0.1).splitlines()[0] == (
            "kind=WeightedP,p=0.1,resolution=4,A=0,B=1.5,E=1"
        )
        M3 = region_grid(RegionKind.THREE_PLAYER_SLICE, 4, CFG, x=CFG.E)
        assert region_grid_csv(M3, RegionKind.THREE_PLAYER_SLICE, 4, CFG, x=CFG.E).splitlines()[0] == (
            "kind=ThreePlayerSlice,x=1,resolution=4,A=0,B=1.5,E=1"
        )


class TestEquilibriumChecks:
    def test_atom_only_strategy_is_domain_error(self):
        with pytest.raises(DomainError):
            equilibrium_inequalities([("atom", point_mass(CFG.A, CFG), 0.5)], [CFG.A])

    def test_empty_grid_has_no_violation(self):
        cases = [("log", log_equilibrium(CFG), 0.5), ("weighted-0.3",
                 weighted_equilibrium(0.3, CFG), 0.3)]
        assert equilibrium_inequalities(cases, []) == (0.0, [])
        assert equilibrium_inequalities(cases, np.array([])) == (0.0, [])

    def test_inequalities_find_the_worst_bid(self):
        # a uniform opponent on [A, E) is no equilibrium: the first breach on
        # the grid is found the same way bid by bid
        flat = MixedStrategy((Piece(PieceKind.UNIFORM, CFG.A, CFG.E, 1.0),), (), CFG)
        grid = np.linspace(CFG.A, CFG.B, 301)
        top, worst = equilibrium_inequalities([("flat", flat, 0.5)], grid)
        devs = [equilibrium_inequalities([("flat", flat, 0.5)], [x])[0] for x in grid]
        k = int(np.argmax(devs))
        assert top == devs[k] > 0.0 and worst == [("flat", float(grid[k]))]

    @pytest.mark.parametrize("p, systems", [
        (0.5, {"Symmetric", "WeightedRow", "WeightedColumn"}),
        (0.3, {"WeightedRow", "WeightedColumn"}),
    ])
    def test_residual_systems_follow_p(self, monkeypatch, p, systems):
        import procurelab.experiments as ex

        seen = set()

        def record(system, s, x, p_, cfg):
            seen.add(system.value)
            return 0.0

        monkeypatch.setattr(ex, "functional_residual", record)
        top, worst = functional_residuals([(weighted_equilibrium(p, CFG), p)])
        assert seen == systems
        assert (top, worst) == (0.0, [])

    @pytest.mark.parametrize("cfg", [MarketConfig(0.0, 1.5e-6, 1e-6), MarketConfig(0.0, 1.5e6, 1e6)],
                             ids=["micro", "mega"])
    def test_residuals_are_scale_free(self, cfg):
        cases = [(log_equilibrium(cfg), 0.5)]
        cases += [(weighted_equilibrium(p, cfg), p) for p in (0.3, 0.1)]
        top, _ = functional_residuals(cases)
        assert top <= 1e-9

    def test_nan_mass_before_a_finite_one_is_the_worst(self):
        cases = [("bad", SimpleNamespace(total_mass=math.nan)),
                 ("u", uniform_equilibrium(CFG))]
        top, worst = experiments.strategy_normalization(cases)
        assert math.isnan(top) and worst == ["bad"]


def _first_nan(a):
    a = np.array(a, dtype=np.float64)
    a.flat[0] = math.nan
    return a


# each check whose quantity the nan_battery fixture makes NaN, in part or
# whole; every other check must still pass
NAN_CHECKS = {
    "payoff-conservation", "three-player-agreement", "cutpoint-relations", "map-roundtrips",
    "equilibrium-inequalities", "curve-quadrature-agreement", "functional-residuals",
    "critical-map-identity", "joint-value-consistency", "mc-consistency",
    "solver-certificate-recompute", "projection-gap-ladder", "br-dynamics-no-fixed-point",
    "value-ladder-desk", "ordering-cells-exhaustive",
}


@pytest.fixture(scope="module")
def nan_battery():
    """One battery run (seed 42) with NaN put into the quantities of NAN_CHECKS.

    Arrays get a NaN first entry among finite ones; scalars become NaN.
    The faults go in through the module's bindings, so only the battery's
    calls see them.
    """
    import procurelab.experiments as ex

    real = {name: getattr(ex, name) for name in (
        "payoff_n_batch", "cutpoints3", "maps_p", "expect_vs", "closed_form_curves",
        "expect_joint", "mc_tournament", "exploitability", "grid_exploitability", "br_dynamics",
        "value_curve_oracle")}

    def cutpoints(*args):
        c = real["cutpoints3"](*args)
        return dataclasses.replace(c, p_y=_first_nan(c.p_y))

    def maps(p, cfg):
        m = real["maps_p"](p, cfg)
        return SimpleNamespace(f1=m.f1, f2=m.f2, h1=m.h1, h2=lambda x: math.nan)

    def exact_vs(xs, s, kern, method, side):
        out = real["expect_vs"](xs, s, kern, method=method, side=side)
        return _first_nan(out) if method == "exact" else out

    def curves(*args, **kwargs):
        curve = real["closed_form_curves"](*args, **kwargs)
        return lambda xs: _first_nan(curve(xs))

    def mc(*args):
        # one NaN object in both runs, so the rerun still compares equal
        res = real["mc_tournament"](*args)
        return dataclasses.replace(res, means=(math.nan,) * len(res.means))

    def last_gap(kern, g, *args):
        return math.nan if g.size > 801 else real["grid_exploitability"](kern, g, *args)

    patches = {
        "payoff_n_batch": lambda bids, cfg: _first_nan(real["payoff_n_batch"](bids, cfg)),
        "cutpoints3": cutpoints,
        "maps_p": maps,
        "expect_vs": exact_vs,
        "closed_form_curves": curves,
        "functional_residual": lambda *args: math.nan,
        "expect_joint": lambda *args: dataclasses.replace(real["expect_joint"](*args),
                                                          value=math.nan),
        "mc_tournament": mc,
        "exploitability": lambda *args: math.nan,
        "grid_exploitability": last_gap,
        "br_dynamics": lambda *args: dataclasses.replace(real["br_dynamics"](*args),
                                                         min_winner_payoff=math.nan),
        "value_curve_oracle": lambda *args: [{**row, "gap": math.nan}
                                             for row in real["value_curve_oracle"](*args)],
    }
    with pytest.MonkeyPatch.context() as mp:
        for name, fn in patches.items():
            mp.setattr(ex, name, fn)
        return ex.run_battery(seed=42)


@pytest.fixture(scope="module")
def faulted_battery():
    """One battery run (seed 7) with three faults at once.

    A strategy of mass 0.9 stands in for the critical one, the value
    formula raises and the probe classifier raises.  The three
    ``TestBattery`` fault tests each read their part of this one run.
    """
    import procurelab.experiments as ex
    import procurelab.oracle_solver as osv

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    def short_mass(cfg):
        return MixedStrategy(
            (Piece(PieceKind.UNIFORM, cfg.A, cfg.A + 0.5 * (cfg.E - cfg.A), 0.9),), (), cfg
        )

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ex, "critical_regime_strategy", short_mass)
        mp.setattr(ex, "value_weighted", boom)
        mp.setattr(osv, "classify_discontinuity", boom)
        return ex.run_battery(seed=7)


class TestBattery:
    def test_all_checks_pass(self, battery):
        failed = [r.check for r in battery if not r.passed]
        assert failed == []
        assert battery_passed(battery)

    def test_check_names_are_stable(self, battery):
        assert [r.check for r in battery] == BATTERY_CHECKS

    def test_reports_carry_runtimes(self, battery):
        assert all(r.runtime_s >= 0.0 for r in battery)
        assert all(r.tolerance >= 0.0 for r in battery)

    def test_json_identical_across_runs(self, battery):
        again = run_battery(seed=42)
        assert [r.to_json() for r in battery] == [r.to_json() for r in again]

    def test_fault_injection_hits_only_normalization(self, faulted_battery):
        reports = faulted_battery
        assert [r.check for r in reports] == BATTERY_CHECKS
        assert not battery_passed(reports)
        failed = {r.check: r for r in reports if not r.passed}
        # the normalization check only reads a wrong mass; it does not raise
        norm = failed["strategy-normalization"]
        assert norm.worst == ("critical",)
        assert abs(norm.max_violation - 0.1) < 1e-12
        assert "error" not in norm.parameters

    def test_raising_check_is_isolated(self, faulted_battery):
        reports = faulted_battery
        failed = {r.check: r for r in reports if not r.passed}
        # the checks that call value_weighted, and the probe, raise
        raised = {"equilibrium-inequalities", "value-at-half", "value-at-critical",
                  "joint-value-consistency", "mc-consistency", "ddpm-one-sided-limits"}
        assert set(failed) == raised | {"strategy-normalization"}
        for name in raised:
            assert math.isinf(failed[name].max_violation)
            assert "boom" in failed[name].parameters["error"]
        # unrelated checks still ran and passed
        by_name = {r.check: r for r in reports}
        assert by_name["payoff-conservation"].passed
        assert by_name["matrix-constant-sum"].passed

    def test_nan_violation_fails_its_check(self, nan_battery):
        assert [r.check for r in nan_battery] == BATTERY_CHECKS
        failed = {r.check: r for r in nan_battery if not r.passed}
        assert set(failed) == NAN_CHECKS
        # ordering-cells-exhaustive counts the pairs out of order: the NaN
        # p_y leading each of its 13 bands of rows, but for the first band's
        # pair y = z, which is on a boundary
        counted = failed.pop("ordering-cells-exhaustive")
        assert counted.max_violation == 12.0 and "error" not in counted.parameters
        for r in failed.values():
            assert math.isnan(r.max_violation) and "error" not in r.parameters

    def test_raising_probe_is_isolated(self, faulted_battery):
        reports = faulted_battery
        assert [r.check for r in reports] == BATTERY_CHECKS
        probe = reports[-1]
        assert probe.check == "ddpm-one-sided-limits"
        assert not probe.passed
        assert math.isinf(probe.max_violation)
        assert "boom" in probe.parameters["error"]

    def test_jump_pairs_are_the_stream_in_order(self, monkeypatch):
        # jump-sign-scan draws its pairs a chunk of CELLS // 5 pairs (five
        # cutpoint values each) at a time; together the chunks are its one
        # seeded stream, in order.  On this market cell O5 never fills, so
        # the check draws all of its 1,000,000 pairs.
        jumps, step, chunks = derive_seed(42, "jumps"), experiments.CELLS // 5, []
        real = experiments.uniform_block

        def spy(seed, start, n):
            out = real(seed, start, n)
            if seed == jumps:
                chunks.append((start, out))
            return out

        monkeypatch.setattr(experiments, "uniform_block", spy)
        run_battery(MarketConfig(0.0, 1.5, 1.4), seed=42)
        assert [start for start, _ in chunks] == list(range(0, 2 * step * len(chunks), 2 * step))
        drawn = np.concatenate([out for _, out in chunks])
        assert np.array_equal(drawn, uniform_stream(jumps, 2_000_000))

    def test_battery_roundtrips_through_file(self, battery, tmp_path):
        path = tmp_path / "battery.jsonl"
        path.write_text("".join(r.to_json() + "\n" for r in battery))
        lines = path.read_text().splitlines()
        assert len(lines) == len(BATTERY_CHECKS)
        assert all(json.loads(l)["pass"] for l in lines)

import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import OptimizeResult, linprog

from procurelab import oracle_solver
from procurelab._rng import derive_seed, uniform_stream
from procurelab.game_core import (
    CELLS,
    DiscontinuityClass,
    DomainError,
    MarketConfig,
    UnsupportedError,
    WeightedKernel,
    classify_discontinuity,
    critical_p,
    default_config,
    payoff_n_tilde,
    sym_sequence_A,
    symmetric_kernel,
    threshold_t,
    weighted_sequences,
)
from procurelab.equilibria import log_equilibrium, weighted_equilibrium
from procurelab.oracle_solver import (
    Grid,
    MatrixGameSolution,
    ddpm_probe,
    exploitability,
    grid_exploitability,
    grid_sup_inf,
    make_grid,
    payoff_matrix,
    project_to_grid,
    pure_ne_scan,
    regime_breakpoints,
    solve_grid_game,
    solve_matrix_game,
    value_curve_oracle,
)
from procurelab.strategy import point_mass

CFG = default_config()
# the default market and its five affine images x -> a + s x
AFFINE_MARKETS = (CFG, MarketConfig(0.0, 1.5e-6, 1e-6), MarketConfig(-3.0, 0.0, -1.0),
                  MarketConfig(0.2, 2.0, 1.1), MarketConfig(0.0, 1.5e6, 1e6),
                  MarketConfig(1e6, 1e6 + 1.5, 1e6 + 1))
MP = np.array([[1.0, 0.0], [0.0, 1.0]])


def _dense_value(M) -> float:
    """Value of M from the row player's LP over the dense matrix."""
    n, m = M.shape
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=np.hstack([-M.T, np.ones((m, 1))]), b_ub=np.zeros(m),
                  A_eq=np.append(np.ones(n), 0.0)[None, :], b_eq=[1.0],
                  bounds=[(0.0, None)] * n + [(None, None)], method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.success
    return -res.fun


def _count_presolves(monkeypatch, solve=None) -> list[bool]:
    """Patch oracle_solver.linprog to record each call's presolve option."""
    calls = []
    solve = solve or oracle_solver.linprog

    def counting(*args, **kwargs):
        calls.append(kwargs["options"]["presolve"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(oracle_solver, "linprog", counting)
    return calls


class TestGrid:
    def test_landmarks_present_once(self):
        g = make_grid(3, CFG, mandatory=(0.75, 1.0))
        assert g.points == (0.0, 0.75, 1.0, 1.5)
        assert g.n == 3 and g.size == 4

    def test_uniform_base_and_E(self):
        g = make_grid(101, CFG)
        pts = g.array
        assert pts[0] == CFG.A and pts[-1] == CFG.B
        assert CFG.E in g.points
        assert (np.diff(pts) > 0).all()

    def test_validation(self):
        with pytest.raises(DomainError):
            make_grid(1, CFG)
        with pytest.raises(DomainError):
            make_grid(11, CFG, mandatory=(2.0,))
        with pytest.raises(DomainError):
            Grid(n=2, points=(0.0, 1.5), cfg=CFG)  # E missing
        with pytest.raises(DomainError):
            Grid(n=3, points=(0.0, 1.0, 1.0, 1.5), cfg=CFG)

    def test_other_config(self):
        cfg = MarketConfig(A=0.2, B=2.0, E=1.1)
        g = make_grid(11, cfg)
        assert 1.1 in g.points and g.points[0] == 0.2


class TestPayoffMatrix:
    def test_hand_checked_two_by_two(self):
        k = symmetric_kernel(CFG)
        M = k.matrix(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert M.tolist() == [[0.5, 1.0], [0.0, 0.5]]

    def test_constant_sum_symmetric(self):
        g = make_grid(51, CFG)
        M = payoff_matrix(symmetric_kernel(CFG), g, g)
        assert np.abs(M + M.T - 1.0).max() == 0.0
        assert (np.diag(M) == 0.5).all()

    def test_constant_sum_weighted(self):
        g = make_grid(41, CFG)
        k = WeightedKernel(p=0.3, cfg=CFG)
        M = payoff_matrix(k, g, g)
        opp = payoff_matrix(k.swapped(), g, g)
        assert np.abs(M + opp.T - 1.0).max() == 0.0
        assert (np.diag(M) == 0.3).all()

    def test_swapped_kernel_is_exact_off_the_unit_market(self):
        # WeightedKernel(0.7) rounds the price of some grid pairs differently
        # from WeightedKernel(0.3) here, and both roles "win" those cells
        cfg = MarketConfig(A=0.2, B=2.0, E=1.1)
        g = make_grid(201, cfg)
        k = WeightedKernel(p=0.3, cfg=cfg)
        M = payoff_matrix(k, g, g)
        assert np.abs(M + payoff_matrix(k.swapped(), g, g).T - 1.0).max() == 0.0
        assert np.abs(M + payoff_matrix(WeightedKernel(p=0.7, cfg=cfg), g, g).T - 1.0).max() == 1.0

    def test_build_stays_within_one_block_of_the_result(self):
        # rows are filled a block at a time; one n x n temporary (a 19.6 MiB
        # price or a 2.4 MiB mask) would break the bound
        g = make_grid(1601, CFG)
        tracemalloc.start()
        try:
            M = payoff_matrix(WeightedKernel(p=0.3, cfg=CFG), g, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= M.nbytes + 2**20

    def test_config_mismatch(self):
        other = MarketConfig(A=0.0, B=2.0, E=1.0)
        with pytest.raises(DomainError):
            payoff_matrix(symmetric_kernel(CFG), make_grid(5, CFG), make_grid(5, other))


class TestExploitability:
    def test_pure_mixes_on_matching_pennies(self):
        assert exploitability(MP, (1, 0), (1, 0)) == 1.0

    def test_exact_solution_is_zero(self):
        assert exploitability(MP, (0.5, 0.5), (0.5, 0.5)) <= 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            exploitability(MP, (1, 0, 0), (1, 0))
        with pytest.raises(DomainError):
            exploitability(MP, (0.7, 0.7), (1, 0))

    def test_nan_mixes_are_rejected(self):
        with pytest.raises(DomainError, match="row_mix"):
            exploitability(MP, (math.nan, 1.0), (1, 0))
        g = make_grid(5, CFG)
        with pytest.raises(DomainError, match="col_mix"):
            grid_exploitability(symmetric_kernel(CFG), g, g, np.full(g.size, 1 / g.size),
                                np.full(g.size, math.nan))
        for mixes in (((math.nan, 1.0), (1.0,)), ((1.0,), (math.nan,))):
            with pytest.raises(DomainError, match="distributions"):
                MatrixGameSolution(0.5, *mixes, 0.0, True)
        with pytest.raises(DomainError, match="nonnegative"):
            MatrixGameSolution(0.5, (1.0,), (1.0,), math.nan, True)


class TestSolver:
    def test_matching_pennies(self):
        sol = solve_matrix_game(MP)
        assert sol.value == pytest.approx(0.5, abs=1e-12)
        assert sol.row_mix == pytest.approx((0.5, 0.5), abs=1e-9)
        assert sol.col_mix == pytest.approx((0.5, 0.5), abs=1e-9)
        assert sol.exploitability <= 1e-12
        assert sol.converged

    def test_singleton(self):
        sol = solve_matrix_game([[0.5]])
        assert sol.value == 0.5 and sol.row_mix == (1.0,)

    @pytest.mark.parametrize("n", [51, 201])
    def test_symmetric_value_exact(self, n):
        g = make_grid(n, CFG)
        sol = solve_matrix_game(payoff_matrix(symmetric_kernel(CFG), g, g))
        assert sol.value == pytest.approx(0.5, abs=1e-9)
        assert sol.exploitability <= 1e-9
        assert sol.converged

    def test_certificate_recompute(self):
        g = make_grid(101, CFG)
        M = payoff_matrix(WeightedKernel(p=0.3, cfg=CFG), g, g)
        sol = solve_matrix_game(M)
        again = exploitability(M, sol.row_mix, sol.col_mix)
        assert abs(again - sol.exploitability) <= 1e-12

    def test_deterministic(self):
        g = make_grid(67, CFG)
        M = payoff_matrix(WeightedKernel(p=0.3, cfg=CFG), g, g)
        a, b = solve_matrix_game(M), solve_matrix_game(M)
        assert a.row_mix == b.row_mix and a.col_mix == b.col_mix
        assert a.value == b.value

    def test_weighted_value_near_closed_form(self):
        g = make_grid(101, CFG, mandatory=regime_breakpoints(0.3, CFG))
        sol = solve_matrix_game(payoff_matrix(WeightedKernel(p=0.3, cfg=CFG), g, g))
        assert sol.value == pytest.approx(0.372519372552, abs=1e-6)

    def test_validation(self):
        with pytest.raises(DomainError):
            solve_matrix_game(np.zeros((0, 3)))
        with pytest.raises(DomainError):
            solve_matrix_game([[np.nan]])
        with pytest.raises(DomainError):
            solve_matrix_game(MP, tol=0.0)
        with pytest.raises(DomainError):
            MatrixGameSolution(0.5, (0.6, 0.6), (1.0,), 0.0, True)
        with pytest.raises(DomainError):
            MatrixGameSolution(0.5, (1.0,), (1.0,), -1e-3, True)

    @pytest.mark.parametrize("cfg, p, n", [
        (MarketConfig(A=0.2, B=2.0, E=1.1), critical_p(), 201),
        (CFG, 0.0846806, 401),
        (CFG, 0.23360440691267048, 201),
    ])
    def test_certificate_meets_default_tol(self, cfg, p, n):
        # measured with two LPs at HiGHS's default tolerances: 3.0e-9 and 8.4e-8;
        # the third missed it at 1.23e-9 while rising tail sums gave negative weights
        g = make_grid(n, cfg, mandatory=regime_breakpoints(p, cfg))
        sol = solve_matrix_game(payoff_matrix(WeightedKernel(p=p, cfg=cfg), g, g))
        assert sol.exploitability <= 1e-9 and sol.converged

    def test_one_lp_per_solve(self, monkeypatch):
        calls = _count_presolves(monkeypatch)
        g = make_grid(51, CFG, mandatory=regime_breakpoints(0.3, CFG))
        sol = solve_matrix_game(payoff_matrix(WeightedKernel(p=0.3, cfg=CFG), g, g))
        assert calls == [True] and sol.converged

    def test_certificate_miss_solves_again_without_presolve(self, monkeypatch):
        real = oracle_solver.linprog

        def perturbing(*args, **kwargs):
            res = real(*args, **kwargs)
            if kwargs["options"]["presolve"]:
                # move 1% of the row player's mass onto the first row
                res.ineqlin.marginals[:] *= 0.99
                res.ineqlin.marginals[0] -= 0.01
            return res

        calls = _count_presolves(monkeypatch, perturbing)
        g = make_grid(51, CFG, mandatory=regime_breakpoints(0.3, CFG))
        M = payoff_matrix(WeightedKernel(p=0.3, cfg=CFG), g, g)
        sol = solve_matrix_game(M)
        assert calls == [True, False]
        assert sol.converged and sol.exploitability <= 1e-9
        assert exploitability(M, sol.row_mix, sol.col_mix) <= 1e-9

    def test_lp_is_sparse(self, monkeypatch):
        seen = {}
        real = oracle_solver.linprog

        def capturing(*args, **kwargs):
            seen["A_ub"] = kwargs["A_ub"]
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle_solver, "linprog", capturing)
        g = make_grid(401, CFG, mandatory=regime_breakpoints(0.3, CFG))
        sol = solve_matrix_game(payoff_matrix(WeightedKernel(p=0.3, cfg=CFG), g, g))
        A = seen["A_ub"]
        n = m = g.size
        assert sparse.issparse(A)
        assert A.nnz <= 8 * (n + m)
        assert sol.converged

    @pytest.mark.parametrize("cfg", [
        MarketConfig(A=0.0, B=1.5e6, E=1e6),
        MarketConfig(A=1e6, B=1e6 + 1.5, E=1e6 + 1),
    ])
    def test_critical_solve_far_from_unit_market(self, cfg, monkeypatch):
        # with HiGHS presolve on, these solves stop with a solver error
        # ("excessive primal values" after postsolve); the second solve,
        # with presolve off, converges
        calls = _count_presolves(monkeypatch)
        p = critical_p()
        g = make_grid(801, cfg, mandatory=regime_breakpoints(p, cfg))
        sol = solve_matrix_game(payoff_matrix(WeightedKernel(p=p, cfg=cfg), g, g))
        assert calls == [True, False]
        assert sol.converged

    @pytest.mark.parametrize("p", [0.5, critical_p(), 0.3, 0.1])
    def test_value_matches_dense_reference(self, p):
        g = make_grid(201, CFG, mandatory=regime_breakpoints(p, CFG))
        M = payoff_matrix(WeightedKernel(p=p, cfg=CFG), g, g)
        assert solve_matrix_game(M).value == pytest.approx(_dense_value(M), abs=1e-12)

    def test_value_matches_dense_reference_off_the_kernel(self):
        M = np.random.default_rng(5).uniform(-1.0, 1.0, (7, 5))
        assert np.count_nonzero(np.diff(M, axis=1, prepend=0.0)) == M.size
        for game in (MP, M):
            assert solve_matrix_game(game).value == pytest.approx(_dense_value(game), abs=1e-12)

    def test_solver_failure_raises(self, monkeypatch):
        def failing(*args, **kwargs):
            return OptimizeResult(success=False, status=4, message="numerical difficulties",
                                  x=np.full(3, 0.5))

        calls = _count_presolves(monkeypatch, failing)
        with pytest.raises(RuntimeError, match=r"status 4.*numerical difficulties"):
            solve_matrix_game(MP)
        assert calls == [True, False]

    @pytest.mark.parametrize("shape, columns", [
        ((9, 6), None),  # negative entries and a nonzero first column
        ((8, 4), [0, 0, 1, 2, 2, 2, 3]),  # repeated columns: zero steps
        ((1, 7), None),
        ((6, 1), None),
    ])
    def test_steps_give_the_dense_value_and_certificate(self, shape, columns):
        # the value and the certificate are taken from the step matrix D;
        # they must match the dense r M c and exploitability on any matrix
        M = np.random.default_rng(derive_seed(3, "steps", *shape)).uniform(-2.0, 1.0, shape)
        if columns is not None:
            M = M[:, columns]
        assert (M < 0.0).any() and (M[:, 0] != 0.0).all()
        sol = solve_matrix_game(M)
        r, c = np.array(sol.row_mix), np.array(sol.col_mix)
        assert sol.value == pytest.approx(float(r @ M @ c), abs=1e-12)
        assert sol.exploitability == pytest.approx(exploitability(M, r, c), abs=1e-12)
        assert sol.converged


class TestGridGame:
    @pytest.mark.parametrize("p", [critical_p(), 0.3, 0.1, 0.5])
    def test_equals_the_dense_path(self, p):
        g = make_grid(201, CFG, mandatory=regime_breakpoints(p, CFG))
        for kern in (WeightedKernel(p=p, cfg=CFG), WeightedKernel(p=p, cfg=CFG).swapped()):
            sol = solve_grid_game(kern, g, g)
            assert sol == solve_matrix_game(payoff_matrix(kern, g, g))
            assert sol.converged

    @pytest.mark.parametrize(
        "cfg", AFFINE_MARKETS + (MarketConfig(0.0, 1.5, 1.4), MarketConfig(0.0, 1.5, 1.49)),
        ids=lambda c: f"{c.A},{c.B},{c.E}")
    def test_converges_across_markets(self, cfg):
        for p in (0.5, critical_p(), 0.3, 0.1):
            g = make_grid(201, cfg, mandatory=regime_breakpoints(p, cfg))
            assert solve_grid_game(WeightedKernel(p=p, cfg=cfg), g, g).converged, p

    def test_non_square_with_a_short_last_block(self):
        gx, gy = make_grid(203, CFG), make_grid(301, CFG)
        rows_per_block = CELLS // gy.size
        assert gx.size != gy.size
        assert gx.size > rows_per_block and gx.size % rows_per_block != 0
        kern = WeightedKernel(p=0.3, cfg=CFG)
        sol = solve_grid_game(kern, gx, gy)
        assert sol == solve_matrix_game(payoff_matrix(kern, gx, gy))
        assert len(sol.row_mix) == gx.size and len(sol.col_mix) == gy.size

    def test_validation(self):
        other = MarketConfig(A=0.0, B=2.0, E=1.0)
        g = make_grid(5, CFG)
        with pytest.raises(DomainError):
            solve_grid_game(WeightedKernel(p=0.3, cfg=other), g, g)
        with pytest.raises(DomainError):
            solve_grid_game(WeightedKernel(p=0.3, cfg=CFG), g, make_grid(5, other))
        with pytest.raises(DomainError):
            solve_grid_game(WeightedKernel(p=0.3, cfg=CFG), g, g, tol=0.0)

    def test_never_holds_the_matrix(self):
        # D is built a block of rows at a time; the dense 1601 x 1601 matrix
        # alone would take 19.6 MiB
        kern = WeightedKernel(p=0.3, cfg=CFG)
        small = make_grid(5, CFG)
        solve_grid_game(kern, small, small)  # loads scipy.optimize outside the trace
        g = make_grid(1601, CFG)
        tracemalloc.start()
        try:
            sol = solve_grid_game(kern, g, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20
        assert sol.converged


# the default market, its five affine images, and two with E near A or B
STEP_MARKETS = AFFINE_MARKETS + (MarketConfig(0.0, 1.5, 0.003), MarketConfig(0.0, 1.01, 1.0))
STEP_WEIGHTS = (0.0, 1e-6, 0.1, critical_p(), 0.3, 0.5, 0.7, 1.0 - 1e-6, 1.0)


def _assert_dense_steps(kern, gx, gy):
    """_grid_steps equals the dense step build over kernel.matrix, array for array."""
    got = oracle_solver._grid_steps(kern, gx, gy)
    want = oracle_solver._steps(kern.matrix(gx.array, gy.array))
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (kern, gx.size, gy.size, name)


def _crowded_grid(kern, row):
    """make_grid(51) plus 6 nextafter points on each side of row `row`'s h1(x) and f1(x)."""
    g = make_grid(51, CFG)
    x = g.points[row]
    pts = set(g.points)
    for c in (kern.maps.h1(x), kern.maps.f1(x)):
        lo = hi = c
        pts.add(c)
        for _ in range(6):
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
            pts |= {lo, hi}
    return Grid(n=51, points=tuple(sorted(pts)), cfg=CFG), x


class TestGridSteps:
    @pytest.mark.parametrize("cfg", STEP_MARKETS, ids=lambda c: f"{c.A},{c.B},{c.E}")
    def test_equal_the_dense_steps(self, cfg):
        for n in (2, 3, 51, 401):
            gx, gy = make_grid(n, cfg), make_grid(n + 7, cfg)
            for p in STEP_WEIGHTS:
                kern = WeightedKernel(p=p, cfg=cfg)
                for k in (kern, kern.swapped()):
                    _assert_dense_steps(k, gx, gx)
                    _assert_dense_steps(k, gx, gy)
                    _assert_dense_steps(k, gy, gx)

    def test_equal_the_dense_steps_on_ladder_grids(self):
        for p in (critical_p(), 0.3, 0.1):
            g = make_grid(1601, CFG, mandatory=regime_breakpoints(p, CFG))
            kern = WeightedKernel(p=p, cfg=CFG)
            _assert_dense_steps(kern, g, g)
            _assert_dense_steps(kern.swapped(), g, g)
        _assert_dense_steps(kern, g, make_grid(1601, CFG))

    @pytest.mark.parametrize("p,row", [(0.1, 18), (critical_p(), 19), (0.3, 20), (0.7, 26)])
    def test_equal_the_dense_steps_on_crowded_cutpoints(self, p, row):
        kern = WeightedKernel(p=p, cfg=CFG)
        g, x = _crowded_grid(kern, row)
        # the row's step near h1(x) sits 3 or more points off the computed
        # cutpoint, so a window of a fixed few columns would miss it
        h = kern.maps.h1(x)
        steps = np.nonzero(np.diff(kern.matrix([x], g.array)[0]))[0] + 1
        assert any(3 <= abs(j - g.points.index(h)) <= 6 for j in steps)
        for k in (kern, kern.swapped()):
            _assert_dense_steps(k, g, g)
            _assert_dense_steps(k, g, make_grid(51, CFG))
            _assert_dense_steps(k, make_grid(51, CFG), g)

    def test_a_ladder_solve_evaluates_a_few_cells_per_row(self, monkeypatch):
        # the dense build evaluates every one of the 1,606 cells of a row
        calls = []
        batch = WeightedKernel.batch

        def counted(self, x, y):
            out = batch(self, x, y)
            calls.append(np.broadcast_to(x, out.shape).ravel())
            return out

        monkeypatch.setattr(WeightedKernel, "batch", counted)
        p = 0.3
        g = make_grid(1601, CFG, mandatory=regime_breakpoints(p, CFG))
        sol = solve_grid_game(WeightedKernel(p=p, cfg=CFG), g, g)
        assert sol.converged
        assert max(len(c) for c in calls) <= CELLS
        rows, cells = np.unique(np.concatenate(calls), return_counts=True)
        assert len(rows) == g.size
        assert cells.max() <= 32


class TestProjection:
    def test_atom_at_grid_point(self):
        g = make_grid(101, CFG)
        w = project_to_grid(point_mass(CFG.E, CFG), g)
        assert w[g.points.index(CFG.E)] == 1.0
        assert w.sum() == 1.0

    def test_uniform_masses_match_cdf(self):
        from procurelab.equilibria import uniform_equilibrium

        s = uniform_equilibrium(CFG)
        g = make_grid(11, CFG)
        w = project_to_grid(s, g)
        pts = g.array
        mids = 0.5 * (pts[1:] + pts[:-1])
        manual = np.diff(np.concatenate([[0.0], np.atleast_1d(s.cdf(mids)), [1.0]]))
        assert w == pytest.approx(manual, abs=1e-15)
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_nan_cdf_is_rejected(self, monkeypatch):
        s = log_equilibrium(CFG)
        monkeypatch.setattr(type(s), "cdf", lambda self, x: np.full(np.shape(x), math.nan))
        with pytest.raises(DomainError, match="sum to 1"):
            project_to_grid(s, make_grid(11, CFG))

    def test_log_projection_gap_ladder(self):
        # measured gaps: 0.0159, 0.0113, 0.0042, 0.0030
        s = log_equilibrium(CFG)
        k = symmetric_kernel(CFG)
        gaps = []
        for n in (101, 201, 401, 801):
            g = make_grid(n, CFG)
            w = project_to_grid(s, g)
            gaps.append(exploitability(payoff_matrix(k, g, g), w, w))
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 0.02

    @pytest.mark.parametrize("n", [101, 201])
    def test_step_gap_equals_the_dense_oracle(self, n):
        # grid_exploitability takes the gains from the steps D, built a
        # block of rows at a time; the dense exploitability is the oracle
        g = make_grid(n, CFG)
        w = project_to_grid(log_equilibrium(CFG), g)
        v = project_to_grid(weighted_equilibrium(0.3, CFG), g)
        kern = WeightedKernel(p=0.3, cfg=CFG)
        for k, r, c in ((symmetric_kernel(CFG), w, w), (kern, v, w), (kern.swapped(), w, v)):
            dense = exploitability(payoff_matrix(k, g, g), r, c)
            assert dense > 1e-3
            assert abs(grid_exploitability(k, g, g, r, c) - dense) <= 1e-15

    def test_step_gap_never_holds_the_matrix(self):
        # the dense 801 x 801 matrix alone would take 4.9 MiB
        kern = symmetric_kernel(CFG)
        small = make_grid(5, CFG)
        one = np.eye(small.size)[0]
        grid_exploitability(kern, small, small, one, one)  # loads scipy.sparse untraced
        g = make_grid(801, CFG)
        w = project_to_grid(log_equilibrium(CFG), g)
        tracemalloc.start()
        try:
            grid_exploitability(kern, g, g, w, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20

    def test_step_gap_validation(self):
        g = make_grid(5, CFG)
        kern = symmetric_kernel(CFG)
        one, short, heavy = np.eye(g.size)[0], np.eye(g.size - 1)[0], np.eye(g.size)[0] * 1.4
        with pytest.raises(DomainError, match="shape"):
            grid_exploitability(kern, g, g, short, one)
        with pytest.raises(DomainError, match="probability"):
            grid_exploitability(kern, g, g, one, heavy)
        other = make_grid(5, MarketConfig(A=0.0, B=2.0, E=1.0))
        with pytest.raises(DomainError, match="market"):
            grid_exploitability(kern, g, other, one, one)


class TestScan:
    def test_two_player_empty(self):
        assert pure_ne_scan(2, make_grid(101, CFG)) == []

    def test_three_player_empty(self):
        assert pure_ne_scan(3, make_grid(21, CFG)) == []

    def test_caps(self):
        with pytest.raises(UnsupportedError):
            pure_ne_scan(2, make_grid(202, CFG))
        with pytest.raises(UnsupportedError):
            pure_ne_scan(3, make_grid(42, CFG))
        with pytest.raises(UnsupportedError):
            pure_ne_scan(4, make_grid(5, CFG))

    def test_finds_planted_equilibrium(self, monkeypatch):
        # concave payoff maximized at E: everyone bidding E is the unique pure NE
        def pull_to_E(bids, cfg):
            return -((np.asarray(bids) - cfg.E) ** 2)

        monkeypatch.setattr(oracle_solver, "payoff_n_batch", pull_to_E)
        monkeypatch.setattr(oracle_solver, "payoff_n", lambda prof, cfg: tuple(pull_to_E(prof, cfg)))
        found = pure_ne_scan(2, make_grid(16, CFG))
        assert found == [(CFG.E, CFG.E)]

    def test_sup_inf_gap(self):
        g = make_grid(101, CFG)
        M = payoff_matrix(symmetric_kernel(CFG), g, g)
        assert grid_sup_inf(M) == (0.0, 1.0)


class TestValueCurve:
    def test_ladder_gaps_shrink(self):
        rows = value_curve_oracle([0.3, critical_p()], CFG, [101, 201, 401, 801])
        for p in (0.3, critical_p()):
            gaps = [r["gap"] for r in rows if r["p"] == p]
            assert len(gaps) == 4
            assert all(b <= a for a, b in zip(gaps, gaps[1:]))
            assert gaps[-1] <= 0.03
        assert all(r["converged"] for r in rows)

    def test_closer_flag(self):
        rows = value_curve_oracle([0.3], CFG, [101])
        row = rows[0]
        assert row["closer"] == "formula"
        assert row["benchmark"] == pytest.approx(0.4, abs=1e-15)
        rows = value_curve_oracle([critical_p()], CFG, [101])
        assert rows[0]["closer"] == "tie"  # formula and benchmark coincide at p*

    def test_critical_ladder_converges_off_default_config(self):
        rows = value_curve_oracle([critical_p()], MarketConfig(A=0.2, B=2.0, E=1.1), [101, 201])
        assert [r["converged"] for r in rows] == [True, True]

    def test_symmetric_rows_exact(self):
        rows = value_curve_oracle([0.5], CFG, [51, 101])
        for r in rows:
            assert r["value_n"] == pytest.approx(0.5, abs=1e-9)
            assert r["regime"] == "Symmetric"

    def test_twelve_significant_digits(self):
        rows = value_curve_oracle([0.3], CFG, [101])
        assert f"{rows[0]['v_formula']:.12g}" == "0.376991849031"

    def test_validation(self):
        with pytest.raises(DomainError):
            value_curve_oracle([0.3], CFG, [201, 101])
        with pytest.raises(DomainError):
            value_curve_oracle([0.0], CFG, [51])


class TestRegimeBreakpoints:
    def test_symmetric(self):
        marks = regime_breakpoints(0.5, CFG)
        assert marks == tuple(sym_sequence_A(i, CFG) for i in (1, 2, 3))

    def test_critical(self):
        seq = weighted_sequences(critical_p(), 3, CFG)
        assert regime_breakpoints(critical_p(), CFG) == seq.a_check[1:4]

    @pytest.mark.parametrize("cfg", AFFINE_MARKETS, ids=lambda c: f"{c.A},{c.B},{c.E}")
    def test_critical_landmarks_are_distinct(self, cfg):
        # d_check[1] equals a_check[3] at p* but sits an ulp from it in
        # floats; listed twice it put a twin point on every critical grid
        marks = np.array(regime_breakpoints(critical_p(), cfg))
        assert (np.diff(marks) > 1e-9 * (cfg.E - cfg.A)).all()

    # the edges of the check-A, check-C, hat-D and check-D cells, at the
    # sequence indices of each regime (m = 2 at p = 0.1)
    CELL_EDGES = {
        0.3: lambda seq: {*seq.c_check[1:3], *seq.a_check[1:3], seq.d_check[1]},
        0.1: lambda seq: {seq.a_check[1], seq.a_check[3], seq.a_check[4], *seq.d_hat[3:7],
                          seq.d_check[1]},
    }

    @pytest.mark.parametrize("p", [0.3, 0.1])
    def test_interval_regimes_cover_partition(self, p):
        for cfg in (CFG, MarketConfig(0.2, 2.0, 1.1)):
            marks = regime_breakpoints(p, cfg)
            assert marks == tuple(sorted(self.CELL_EDGES[p](weighted_sequences(p, 6, cfg))))
            assert cfg.A < marks[0] and marks[-1] < cfg.E

    def test_intermediate_landmarks_frozen(self):
        expect = [230.0 / 867.0, 10.0 / 17.0, 10280.0 / 14739.0, 240.0 / 289.0, 200.0 / 221.0]
        assert regime_breakpoints(0.3, CFG) == pytest.approx(expect, abs=1e-12)

    def test_low_p_landmarks_have_gaps(self):
        marks = regime_breakpoints(0.1, CFG)
        seq = weighted_sequences(0.1, 6, CFG)
        assert marks[:2] == (seq.d_hat[3], seq.a_check[1])
        assert marks[-1] == seq.d_check[1]
        assert np.diff(marks).min() > 1e-3

    def test_low_p_landmark_counts(self):
        assert len(regime_breakpoints(0.1, CFG)) == 8  # m = 2
        assert len(regime_breakpoints(0.05, CFG)) == 9  # m = 3
        assert len(regime_breakpoints(critical_p() - 1e-4, CFG)) == 6  # m = 1

    def test_low_p_landmarks_far_from_the_origin(self):
        # the sequences of this market round by 1e-10 near E; sorted, their
        # points stay inside (A, E) without forming ordered cells
        cfg = MarketConfig(1e6, 1e6 + 1.5, 1e6 + 1)
        marks = np.array(regime_breakpoints(1e-9, cfg))
        assert (np.diff(marks) > 0).all()
        assert cfg.A < marks[0] and marks[-1] < cfg.E

    @pytest.mark.parametrize("p, market", [
        (1.7012542798525858e-15, (0.0, 1.5, 1.0)),
        (1e-15, (1e6, 1e6 + 1.5, 1e6 + 1)),
    ])
    def test_low_p_landmarks_inside_the_bids(self, p, market):
        # weights where rounded market points give too large an m, whose
        # d_hat[m + 1] lies below A
        cfg = MarketConfig(*market)
        marks = regime_breakpoints(p, cfg)
        assert all(cfg.A < b <= cfg.B for b in marks)

    def test_degenerate_refused(self):
        with pytest.raises(DomainError):
            regime_breakpoints(0.0, CFG)


class TestDdpmProbe:
    def test_fixed_point_anchor(self):
        assert classify_discontinuity(0, (0.8, 0.4), CFG) is DiscontinuityClass.FIXED_POINT
        assert payoff_n_tilde((0.8 - 1e-6, 0.4), CFG)[0] == 1.0

    def test_tie_anchor(self):
        c = 0.6
        assert payoff_n_tilde((c, c), CFG)[0] == 0.0
        assert payoff_n_tilde((c + 1e-6, c), CFG)[0] == 1.0

    def test_thousand_probes_per_class(self):
        rep = ddpm_probe(1000, 42, CFG)
        assert rep.passed
        assert rep.max_violation == 0.0
        assert rep.parameters["per_class"] == {
            "FixedPoint": 1000,
            "Transition": 1000,
            "Tie": 1000,
        }

    def test_deterministic_json(self):
        assert ddpm_probe(200, 3, CFG).to_json() == ddpm_probe(200, 3, CFG).to_json()

    def test_other_config(self):
        rep = ddpm_probe(100, 11, MarketConfig(A=0.2, B=2.0, E=1.1))
        assert rep.passed

    @pytest.mark.parametrize("market, samples", [((0.0, 1.5, 0.003), 40),
                                                 ((5.0, 6.0, 5.004), 25)])
    def test_narrow_market_fills_every_class(self, market, samples):
        # E sits near A, where margins of 1e-3 * (B - A) would leave no room
        # for a Transition profile below E; they scale with E - A
        rep = ddpm_probe(samples, 7, MarketConfig(*market))
        assert rep.passed
        assert rep.parameters["per_class"] == {
            "FixedPoint": samples,
            "Transition": samples,
            "Tie": samples,
        }

    def test_validation(self):
        with pytest.raises(DomainError):
            ddpm_probe(0, 1, CFG)

    @staticmethod
    def _probe_with_profiles(monkeypatch, samples, seed, cfg):
        seen = []
        real = oracle_solver.classify_discontinuity

        def spy(i, profile, cfg):
            seen.append(profile)
            return real(i, profile, cfg)

        with monkeypatch.context() as mp:
            mp.setattr(oracle_solver, "classify_discontinuity", spy)
            return ddpm_probe(samples, seed, cfg).to_json(), seen

    @pytest.mark.parametrize("market, samples", [((0.0, 1.5, 1.0), 1_000),
                                                 ((0.0, 1.5, 0.003), 40)])
    def test_chunked_draws_match_per_draw_streams(self, monkeypatch, market, samples):
        # the default market's Transition class runs past its first 1,024
        # draws, so its uniforms cross a chunk seam
        cfg = MarketConfig(*market)
        chunked = self._probe_with_profiles(monkeypatch, samples, 7, cfg)

        def per_draw(seed, ks, n):
            return np.array([uniform_stream(derive_seed(seed, k), n) for k in ks.tolist()])

        monkeypatch.setattr(oracle_solver, "uniform_rows", per_draw)
        assert chunked == self._probe_with_profiles(monkeypatch, samples, 7, cfg)

    def test_fixed_points_come_from_draw_k(self, monkeypatch):
        # the FixedPoint class rebuilt draw by draw: draw k takes 1 + k % 2
        # opponents from uniform_stream(derive_seed(seed, "fp", k), 2); 1,100
        # samples take more than one 1,024-draw chunk
        samples, seed = 1_100, 5
        _, seen = self._probe_with_profiles(monkeypatch, samples, seed, CFG)
        span, margin = CFG.B - CFG.A, 1e-3 * (CFG.E - CFG.A)
        want, k = [], 0
        while len(want) < samples:
            u = uniform_stream(derive_seed(seed, "fp", k), 2)
            others = [CFG.A + span * v for v in u[: 1 + k % 2]]
            t = threshold_t(others, CFG)
            if CFG.A + margin < t < CFG.B - margin and min(abs(t - b) for b in others) > margin:
                want.append((t, *others))
            k += 1
        assert k > 1_024
        assert seen[:samples] == want

"""Brute-force oracles: grids, matrix games, scans, and hypersurface probes.

Everything here cross-checks the closed forms by independent means: discretize
the bid interval, solve the induced finite constant-sum game behind an
exploitability certificate, project analytic strategies onto grids, enumerate
pure profiles, and probe the payoff's one-sided limits on its discontinuity
surfaces.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._report import VerificationReport, make_report
from ._rng import derive_seed, uniform_rows
from .game_core import (
    CELLS,
    DiscontinuityClass,
    DomainError,
    MarketConfig,
    Regime,
    Side,
    UnsupportedError,
    WeightedKernel,
    best_deviation,
    classify_discontinuity,
    kernel_cutpoints,
    low_p_m,
    payoff_n,
    payoff_n_batch,
    payoff_n_tilde,
    regime,
    sym_sequence_A,
    threshold_t,
    weighted_sequences,
)
from .equilibria import value_weighted
from .strategy import MixedStrategy

__all__ = [
    "Grid",
    "make_grid",
    "regime_breakpoints",
    "payoff_matrix",
    "MatrixGameSolution",
    "solve_matrix_game",
    "solve_grid_game",
    "exploitability",
    "grid_exploitability",
    "project_to_grid",
    "grid_sup_inf",
    "pure_ne_scan",
    "value_curve_oracle",
    "ddpm_probe",
]


# ---------------------------------------------------------------------------
# Grids


@dataclass(frozen=True)
class Grid:
    """Sorted bid grid over [A, B] with guaranteed landmark points.

    n is the nominal uniform resolution; points also carry E and any
    caller-supplied mandatory landmarks, deduplicated, so len(points) can
    exceed n.
    """

    n: int
    points: tuple[float, ...]
    cfg: MarketConfig

    def __post_init__(self) -> None:
        pts = self.points
        if len(pts) < 2:
            raise DomainError("grid needs at least two points")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise DomainError("grid points must be strictly increasing")
        for landmark in (self.cfg.A, self.cfg.B, self.cfg.E):
            if landmark not in pts:
                raise DomainError(f"grid is missing landmark {landmark}")

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=np.float64)


def make_grid(
    n: int, cfg: MarketConfig, mandatory: Sequence[float] = ()
) -> Grid:
    if n < 2:
        raise DomainError(f"grid resolution {n} < 2")
    for x in mandatory:
        cfg.require_bid(x)
    base = np.linspace(cfg.A, cfg.B, n)
    pts = np.unique(np.concatenate([base, [cfg.E], np.asarray(mandatory, dtype=np.float64)]))
    return Grid(n=n, points=tuple(float(x) for x in pts), cfg=cfg)


def regime_breakpoints(p: float, cfg: MarketConfig) -> tuple[float, ...]:
    """Interior grid landmarks at weight p, from the weighted sequences.

    - symmetric (p = 1/2): A_1, A_2 and A_3;
    - critical (p*): a_check[1..3], the critical strategy's cell ends;
    - intermediate: c_check[1..2], a_check[1..2] and d_check[1];
    - low p, with m = low_p_m(p): a_check at the odd indices up to
      m + 2, a_check[m + 2], d_hat[m + 1 .. 2m + 2] and d_check[1].

    The last two lists come sorted, deduplicated and without A.  d_check[1]
    ends weighted_equilibrium's support; the other points sharpen the grid
    values.
    """
    reg = regime(p)
    if reg is Regime.DEGENERATE:
        raise DomainError("no breakpoints in the degenerate regime")
    if reg is Regime.SYMMETRIC:
        return tuple(sym_sequence_A(i, cfg) for i in (1, 2, 3))
    if reg is Regime.CRITICAL:
        # d_check[1] equals a_check[3] at p* but sits an ulp away in floats:
        # listed too, it put a twin point on every critical grid; listed
        # instead, it made HiGHS 1.12 presolve segfault at (0, 1.5, 1.4),
        # n = 1601
        return weighted_sequences(p, 3, cfg).a_check[1:4]
    if reg is Regime.INTERMEDIATE:
        seq = weighted_sequences(p, 3, cfg)
        marks = (*seq.c_check[1:3], *seq.a_check[1:3], seq.d_check[1])
    else:
        m = low_p_m(p)
        seq = weighted_sequences(p, 2 * m + 2, cfg)
        marks = (*seq.a_check[1:m + 3:2], seq.a_check[m + 2], *seq.d_hat[m + 1:],
                 seq.d_check[1])
    return tuple(b for b in sorted(set(marks)) if b != cfg.A)


# ---------------------------------------------------------------------------
# Matrix games


def payoff_matrix(kernel: WeightedKernel, gridX: Grid, gridY: Grid) -> np.ndarray:
    """M[i, j] = kernel(x_i, y_j) over the two grids: the dense oracle.

    Built by kernel.matrix a block of rows at a time, so the build takes the
    result plus one block's temporaries (a few hundred KiB), not several
    matrix-sized arrays.  Only this oracle builds the full matrix:
    solve_grid_game and grid_exploitability take the same game's steps from
    a few cells per row (_grid_steps).
    """
    return kernel.matrix(*_grid_axes(kernel, gridX, gridY))


def _grid_axes(kernel: WeightedKernel, gridX: Grid, gridY: Grid) -> tuple[np.ndarray, np.ndarray]:
    if not (kernel.cfg == gridX.cfg == gridY.cfg):
        raise DomainError("kernel and grids disagree on the market config")
    return gridX.array, gridY.array


def _check_mix(v, size: int, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape != (size,):
        raise DomainError(f"{name} has shape {arr.shape}, expected ({size},)")
    if not (arr.min() >= -1e-12 and abs(arr.sum() - 1.0) <= 1e-9):  # so NaN fails
        raise DomainError(f"{name} is not a probability vector")
    return np.maximum(arr, 0.0)


def exploitability(M, row_mix, col_mix) -> float:
    """Best-response gap of a mix pair: row maximizes M, column minimizes it.

    The larger of the two players' gains, from the dense M: the independent
    oracle for the certificate that the solvers and grid_exploitability take
    from M's steps.
    """
    M = np.asarray(M, dtype=np.float64)
    r = _check_mix(row_mix, M.shape[0], "row_mix")
    c = _check_mix(col_mix, M.shape[1], "col_mix")
    g = float(r @ M @ c)
    row_gain = max(float((M @ c).max()) - g, 0.0)
    col_gain = max(g - float((r @ M).min()), 0.0)
    return max(row_gain, col_gain)


@dataclass(frozen=True)
class MatrixGameSolution:
    value: float
    row_mix: tuple[float, ...]
    col_mix: tuple[float, ...]
    # max best-response gain of either player against the two mixes, taken
    # from the step matrix D (M c = D T, r M = cumsum(D^T r))
    exploitability: float
    converged: bool

    def __post_init__(self) -> None:
        for mix in (self.row_mix, self.col_mix):
            if not (min(mix) >= 0.0 and abs(sum(mix) - 1.0) <= 1e-12):
                raise DomainError("solution mixes must be distributions")
        if not self.exploitability >= 0.0:
            raise DomainError("exploitability must be nonnegative")


def linprog(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=(0, None),
            method="highs", options=None):
    """scipy.optimize.linprog, imported on the first call.

    Importing scipy.optimize takes longer than most subcommands take to run,
    so only the LP paths load it.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                         method=method, options=options)


def _csr(data: np.ndarray, cols: np.ndarray, counts: np.ndarray, n: int, m: int):
    """The n x m CSR matrix with the given nonzeros, row by row; counts[i] of them in row i."""
    from scipy import sparse

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return sparse.csr_matrix((data, cols, indptr), shape=(n, m))


def _steps(M: np.ndarray):
    """Sparse step matrix D of a dense matrix M.

    D[i, 0] = M[i, 0] and D[i, j] = M[i, j] - M[i, j - 1], so M is the
    running sum of D along each row.  Only the nonzero steps are stored (a
    step is nonzero exactly where two neighbours differ).  Grid games build
    the same D without M (_grid_steps).
    """
    step = np.empty(M.shape, dtype=bool)
    np.not_equal(M[:, 0], 0.0, out=step[:, 0])
    np.not_equal(M[:, 1:], M[:, :-1], out=step[:, 1:])
    r, c = np.nonzero(step)
    prev = M[r, c - 1]
    prev[c == 0] = 0.0
    return _csr(M[r, c] - prev, c, np.bincount(r, minlength=len(M)), *M.shape)


def _lp_solve(D, presolve: bool) -> tuple[np.ndarray, np.ndarray]:
    """Column mix from the column player's LP in tail sums, row mix from its duals.

    With T_k = sum_{j>=k} c_j the row payoffs are M c = D T, where D holds
    the steps of each row of M.  A kernel row changes value at only a few
    columns, so D is sparse where M is not.
    """
    from scipy import sparse  # scipy.optimize loads it anyway

    n, m = D.shape
    T_steps = sparse.eye(m - 1, m, k=1) - sparse.eye(m - 1, m)
    # variables (T_0..T_{m-1}, w); rows: D T - w <= 0, then T_{k+1} - T_k <= 0
    A_ub = sparse.bmat([[D, sparse.csr_matrix(np.full((n, 1), -1.0))],
                        [T_steps, None]], format="csc")
    c_obj = np.zeros(m + 1)
    c_obj[-1] = 1.0
    bounds = [(1.0, 1.0)] + [(0.0, None)] * (m - 1) + [(None, None)]
    # at HiGHS's default feasibility tolerances (1e-7) the mixes can miss the
    # default 1e-9 certificate on a few-hundred-point grid; 1e-10 meets it.
    # Presolve drops 2/3 of the columns at n = 1601 and p = 0.3, but on some
    # p* grids HiGHS errors after postsolve or its mixes miss the
    # certificate, so _solve_steps can re-solve without it.
    res = linprog(c_obj, A_ub=A_ub, b_ub=np.zeros(n + m - 1), bounds=bounds,
                  method="highs",
                  options={"presolve": presolve,
                           "primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise RuntimeError(f"HiGHS failed (status {res.status}): {res.message}")
    # the multiplier of (M c)_i <= w is -r_i: the row player's mix.  HiGHS
    # may let the tail sums rise by ~1e-9; their running minimum keeps c >= 0
    return -res.ineqlin.marginals[:n], -np.diff(np.minimum.accumulate(res.x[:-1]), append=0.0)


def _normalize(mix: np.ndarray) -> np.ndarray:
    mix = np.maximum(mix, 0.0)
    return mix / mix.sum()


def _step_certificate(D, r: np.ndarray, c: np.ndarray) -> tuple[float, float]:
    """(value, exploitability) of the mixes r, c in the game whose payoff rows have the steps D.

    With T the tail sums of c, M c = D T and r M = cumsum(D^T r), so M is
    never needed.
    """
    row_pay = D @ np.cumsum(c[::-1])[::-1]
    value = float(r @ row_pay)
    col_pay = np.cumsum(D.T @ r)
    return value, max(float(row_pay.max()) - value, value - float(col_pay.min()), 0.0)


def _solve_steps(D, tol: float) -> MatrixGameSolution:
    """Solve the game whose payoff rows have the steps D, with its certificate.

    One HiGHS LP with presolve on; if HiGHS fails or the mixes miss tol, the
    same LP once more with presolve off, and that second solve is reported.
    The value and both best-response gains come from D too
    (_step_certificate).
    """
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    for presolve in (True, False):
        try:
            r, c = (_normalize(v) for v in _lp_solve(D, presolve))
        except RuntimeError:
            if not presolve:
                raise
            continue
        value, cert = _step_certificate(D, r, c)
        if cert <= tol:
            break
    return MatrixGameSolution(
        value=value,
        row_mix=tuple(float(x) for x in r),
        col_mix=tuple(float(x) for x in c),
        exploitability=cert,
        converged=cert <= tol,
    )


def solve_matrix_game(M, tol: float = 1e-9) -> MatrixGameSolution:
    """Solve a finite constant-sum game behind an exploitability certificate.

    The column player's LP in tail sums gives the column mix from its
    primal solution and the row mix from the duals of its (M c)_i <= w
    rows.  HiGHS solves it with presolve on, and once more with presolve
    off if that fails or misses tol (_solve_steps); a failure of the second
    solve raises RuntimeError.  The value and the certificate are computed
    from the final mixes through M's step matrix D (M c = D T,
    r M = cumsum(D^T r)), and a result that misses tol is returned with
    converged=False rather than hidden.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.size == 0:
        raise DomainError("payoff matrix must be a nonempty 2-D array")
    if not np.isfinite(M).all():
        raise DomainError("payoff matrix must be finite")
    return _solve_steps(_steps(M), tol)


# Evaluated reach around each cutpoint of a grid row, in ulps of the
# market's magnitude over the column weight; _grid_steps derives it.
_REACH_ULPS = 32


def _grid_steps(kernel: WeightedKernel, gridX: Grid, gridY: Grid):
    """The step matrix D of payoff_matrix(kernel, gridX, gridY), from a few cells per row.

    Row x of the kernel, as a function of the column bid y, is piecewise
    constant: exactly, with the kernel's float weights p and w = w_col, it
    jumps only at y = x (the tie), at h1(x), past which a lower y lets the
    price (p x + w y + E) / 2 reach x, and at f1(x), past which a higher y
    stays above the price (kernel_cutpoints lists these three and E, and
    the limits of h1 and f1 at p in {0, 1}).  In floats only the price's
    rounding moves a jump.  With u = 2**-53 and K = max(|A|, |B|):

    - the price's four rounded operations err by at most 2 u K, so a
      column whose float value differs from the exact one lies within
      4 u K / w of h1(x) (the price moves by w / 2 per unit of y) or
      within 4 u K of f1(x);
    - computing h1(x) = ((2 - p) x - E) / (1 - p) and f1(x) =
      (p x + E) / (p + 1) errs by at most about 8 u K / w, since 1 - p
      may differ from w by 2 u.

    Every column that can break the pattern therefore lies within
    12 u K / w < 12 ulp(K) / w of a computed cutpoint; the rounding
    allowance is 32 ulp(K) / w (32 ulp(K) at w = 0, where the price does
    not move with y), over twice that bound.  Over 300 rows on each of the
    default market, its five affine images, (0, 1.5, 0.003) and
    (0, 1.01, 1), at seven weights and their swapped kernels, the farthest
    flip sat 3.6 ulp(K) / w from its computed cutpoint.

    Each row evaluates, through kernel.batch, column 0, every column within
    the allowance of a cutpoint, and one neighbour on each side of each such
    window.  A column outside every window has its exact value, and no jump
    lies between two evaluated columns with only such columns between them,
    so the steps between consecutive evaluated columns are M's steps, taken
    with the same subtraction: D equals _steps(payoff_matrix(...)) bit for
    bit.  A grid-ladder row evaluates at most 12 cells, so the build costs
    O(cells per row * len(gridX)), not len(gridX) * len(gridY); it runs in
    blocks of CELLS cells (at least one row).
    """
    xs, ys = _grid_axes(kernel, gridX, gridY)
    n, m = len(xs), len(ys)
    cfg = kernel.cfg
    reach = _REACH_ULPS * math.ulp(max(abs(cfg.A), abs(cfg.B))) / (kernel.w_col or 1.0)
    data, cols, counts = [], [], []

    def emit(x: np.ndarray, first: np.ndarray, size: np.ndarray) -> None:
        # the cells of the runs [first, first + size) of each row, in order
        per_row = size.sum(axis=1)
        runs = size.ravel()
        col = np.arange(runs.sum()) + np.repeat(first.ravel() - (np.cumsum(runs) - runs), runs)
        # float64 as in the dense matrix, even for an integer weight p
        vals = np.asarray(kernel.batch(np.repeat(x, per_row), ys[col]), dtype=np.float64)
        starts = np.cumsum(per_row) - per_row  # each row opens at column 0
        prev = np.empty_like(vals)
        prev[1:] = vals[:-1]
        prev[starts] = 0.0
        step = vals != prev
        data.append(vals[step] - prev[step])
        cols.append(col[step])
        counts.append(np.add.reduceat(step, starts, dtype=np.int64))

    rows = CELLS // 32  # one block at up to 32 cells a row; grid-ladder rows take <= 12
    for i in range(0, n, rows):
        x = xs[i:i + rows]
        cuts = np.stack(kernel_cutpoints(kernel, x, Side.AS_ROW), axis=1)
        # column 0, then each cutpoint's window with a neighbour on each side
        first = np.zeros((len(x), 5), dtype=np.int64)
        last = np.zeros_like(first)
        first[:, 1:] = np.searchsorted(ys, cuts - reach) - 1
        last[:, 1:] = np.searchsorted(ys, cuts + reach, side="right")
        np.clip(first, 0, m - 1, out=first)
        np.clip(last, 0, m - 1, out=last)
        order = np.argsort(first, axis=1, kind="stable")
        first = np.take_along_axis(first, order, axis=1)
        last = np.take_along_axis(last, order, axis=1)
        # start each run past the runs before it, so no cell repeats
        first[:, 1:] = np.maximum(first[:, 1:], np.maximum.accumulate(last, axis=1)[:, :-1] + 1)
        size = np.maximum(last - first + 1, 0)
        # a grid crowded near a cutpoint gets fewer rows per block
        k = max(1, CELLS // int(size.sum(axis=1).max()))
        for j in range(0, len(x), k):
            emit(x[j:j + k], first[j:j + k], size[j:j + k])
    return _csr(np.concatenate(data), np.concatenate(cols), np.concatenate(counts), n, m)


def solve_grid_game(kernel: WeightedKernel, gridX: Grid, gridY: Grid,
                    tol: float = 1e-9) -> MatrixGameSolution:
    """solve_matrix_game(payoff_matrix(kernel, gridX, gridY), tol), matrix-free.

    The step matrix D is built from the kernel's cutpoints, a few cells per
    row (_grid_steps), and the LP, the value and the certificate all read
    D, so no len(gridX) x len(gridY) array is ever held: at n = 1601 the
    traced peak is about 1 MiB, where the dense matrix alone takes
    19.6 MiB.  D is the dense path's bit for bit, so the mixes are too.
    """
    return _solve_steps(_grid_steps(kernel, gridX, gridY), tol)


def grid_exploitability(kernel: WeightedKernel, gridX: Grid, gridY: Grid,
                        row_mix, col_mix) -> float:
    """exploitability(payoff_matrix(kernel, gridX, gridY), row_mix, col_mix), matrix-free.

    The gains come from the grid game's step matrix D, built from the
    kernel's cutpoints as solve_grid_game builds it, so no
    len(gridX) x len(gridY) array is held; they match the dense oracle up to
    rounding.
    """
    D = _grid_steps(kernel, gridX, gridY)
    r = _check_mix(row_mix, D.shape[0], "row_mix")
    c = _check_mix(col_mix, D.shape[1], "col_mix")
    return _step_certificate(D, r, c)[1]


def project_to_grid(s: MixedStrategy, g: Grid) -> np.ndarray:
    """Point masses on g assigned by exact CDF differences over cell midpoints."""
    pts = g.array
    mids = 0.5 * (pts[1:] + pts[:-1])
    F = np.atleast_1d(s.cdf(mids))
    w = np.empty(len(pts))
    w[0] = F[0]
    w[1:-1] = np.diff(F)
    w[-1] = 1.0 - F[-1]
    if not abs(w.sum() - 1.0) <= 1e-12:
        raise DomainError("projected masses fail to sum to 1")
    return np.maximum(w, 0.0)


def grid_sup_inf(M) -> tuple[float, float]:
    """(max_i min_j M[i,j], min_j max_i M[i,j]): the pure guarantee pair."""
    M = np.asarray(M, dtype=np.float64)
    return float(M.min(axis=1).max()), float(M.max(axis=0).min())


# ---------------------------------------------------------------------------
# Pure-profile enumeration

_SCAN_CAPS = {2: 201, 3: 41}


def pure_ne_scan(N: int, g: Grid) -> list[tuple[float, ...]]:
    """Exhaustive pure-equilibrium scan of the award rule over grid profiles.

    A profile survives only if no player can improve by any grid deviation,
    nor by the continuum best_deviation against the others in its own slot
    (its payoff_n at that bid beats its current payoff).  The theory says
    the returned list is empty; the scan does not assume it.
    """
    cap = _SCAN_CAPS.get(N)
    if cap is None:
        raise UnsupportedError(f"pure scan supports N in {sorted(_SCAN_CAPS)}, got {N}")
    if g.n > cap:
        raise UnsupportedError(f"N={N} scan capped at n <= {cap}, got n={g.n}")
    cfg = g.cfg
    pts = g.array
    s = len(pts)
    idx = np.indices((s,) * N).reshape(N, -1).T
    profiles = pts[idx]
    pay = payoff_n_batch(profiles, cfg)
    mask = np.ones(len(profiles), dtype=bool)
    for player in range(N):
        tensor = pay[:, player].reshape((s,) * N)
        best = tensor.max(axis=player, keepdims=True)
        mask &= (tensor == best).reshape(-1)
    out = []
    for flat in np.nonzero(mask)[0]:
        prof = tuple(float(v) for v in profiles[flat])
        current = payoff_n(prof, cfg)
        for i in range(N):
            head, tail = prof[:i], prof[i + 1:]
            star = best_deviation(head + tail, i, cfg)
            if payoff_n((*head, star, *tail), cfg)[i] > current[i]:
                break
        else:
            out.append(prof)
    return out


# ---------------------------------------------------------------------------
# Value curve


def value_curve_oracle(
    p_list: Sequence[float],
    cfg: MarketConfig,
    n_list: Sequence[int],
    tol: float = 1e-9,
) -> list[dict]:
    """Grid-game values against the analytic value and the regime benchmark.

    One row per (p, n) pair: the finite-game value from solve_grid_game at
    certificate tolerance tol (so no n x n payoff matrix is built), the
    closed-form value with its gap, the regime's coarse benchmark with its
    gap, and which of the two predictions the finite value sits closer to.
    """
    if list(n_list) != sorted(n_list):
        raise DomainError("n_list must be ascending")
    rows = []
    for p in p_list:
        rep = value_weighted(p)
        kernel = WeightedKernel(p=p, cfg=cfg)
        marks = regime_breakpoints(p, cfg)
        for n in n_list:
            g = make_grid(n, cfg, mandatory=marks)
            sol = solve_grid_game(kernel, g, g, tol)
            gap = abs(sol.value - rep.v)
            bench_gap = abs(sol.value - rep.benchmark)
            if math.isclose(gap, bench_gap, rel_tol=0.0, abs_tol=1e-12):
                closer = "tie"
            else:
                closer = "formula" if gap < bench_gap else "benchmark"
            rows.append(
                {
                    "p": p,
                    "n": n,
                    "value_n": sol.value,
                    "v_formula": rep.v,
                    "gap": gap,
                    "regime": rep.regime.value,
                    "benchmark": rep.benchmark,
                    "benchmark_gap": bench_gap,
                    "closer": closer,
                    "converged": sol.converged,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Hypersurface probes


_DDPM_CHUNK = 1_024  # draws whose uniforms ddpm_probe makes in one pass


def ddpm_probe(samples: int, seed: int, cfg: MarketConfig) -> VerificationReport:
    """One-sided limit checks of the tie-zeroed payoff on each surface class.

    Constructs seeded profiles sitting exactly on the FixedPoint,
    Transition, and Tie hypersurfaces (confirmed via classify_discontinuity),
    then evaluates the deviator's payoff along approach ladders:

    - FixedPoint / Transition: approaching from below never drops the
      payoff under its surface value.
    - Tie below E: stepping just above the shared bid pays 1 (the tie
      itself pays 0); above E the payoff is 1 below the shared bid and 0
      above it.

    Each class draws up to 50 * samples profiles, two uniforms from its own
    seed stream per draw, and skips a draw whose profile misses the margins,
    1e-3 * (E - A) from [A, B]'s ends and from the other bids.  Returns a
    violation-count report (expected 0).
    """
    if samples < 1:
        raise DomainError("samples must be positive")
    t0 = time.perf_counter()
    A, B, E = cfg.A, cfg.B, cfg.E
    span = B - A
    # the Transition profiles live inside [A, E], so the margins and the
    # approach steps scale with E - A; a market whose E sits near A still
    # leaves room between them
    below_e = E - A
    margin = 1e-3 * below_e
    deltas = (1e-6 * below_e, 1e-7 * below_e, 1e-8 * below_e)

    def tilde(bids: tuple) -> float:
        return payoff_n_tilde(bids, cfg)[0]

    def clear(x: float, others: list) -> bool:
        return A + margin < x < B - margin and min(abs(x - b) for b in others) > margin

    def fixed_point(k: int, u: np.ndarray) -> tuple | None:
        # the deviator bids the threshold of one or two others
        others = [A + span * v for v in u[: 1 + k % 2]]
        t = threshold_t(others, cfg)
        return (t, *others) if clear(t, others) else None

    def transition(k: int, u: np.ndarray) -> tuple | None:
        # an opponent sits exactly on the price the profile induces
        if k % 2 == 0:
            lo, hi, rest = (A + 2.0 * E) / 3.0 + margin, E - margin, []
        else:
            z = A + (E - A) * u[0]
            lo, hi, rest = z + margin, (z + 3.0 * E) / 4.0 - margin, [z]
        if lo >= hi:
            return None
        b_low = lo + (hi - lo) * u[k % 2]
        others = [b_low, *rest]
        n = len(others) + 1
        x = (2.0 * n - 1.0) * b_low - (sum(others) - b_low) - n * E
        return (x, *others) if clear(x, others) else None

    def tie(k: int, u: np.ndarray) -> tuple | None:
        # two players share a bid: above E every third draw, else below it,
        # alone or with a third bid above the price the three induce
        lo, hi = (E + margin, B - margin) if k % 3 == 2 else (A + margin, E - margin)
        if lo >= hi:
            return None
        c = lo + (hi - lo) * u[0]
        if k % 3 != 1:
            return (c, c)
        z_lo = (2.0 * c + 3.0 * E) / 5.0 + margin
        if z_lo >= B - margin:
            return None
        return (c, c, z_lo + (B - margin - z_lo) * u[1])

    def from_below(profile: tuple) -> list[str]:
        x, *others = profile
        current = tilde(profile)
        return [f"payoff {pay} < {current} at -{d}" for d in deltas
                if (pay := tilde((x - d, *others))) < current - 1e-12]

    def tie_limits(profile: tuple) -> list[str]:
        c, *rest = profile
        at = tilde(profile)
        notes = [] if at == 0.0 else [f"tie pays {at}, expected 0"]
        for d in deltas:
            if c > E:
                below = tilde((c - d, *rest))
                above = tilde((c + d, *rest))
                if below != 1.0:
                    notes.append(f"payoff {below} below-at -{d}, expected 1")
                if above != 0.0:
                    notes.append(f"payoff {above} above-at +{d}, expected 0")
            elif (above := tilde((c + d, *rest))) != 1.0:
                notes.append(f"payoff {above} at +{d}, expected 1")
        return notes

    surfaces = (
        (DiscontinuityClass.FIXED_POINT, "fp", fixed_point, from_below),
        (DiscontinuityClass.TRANSITION, "tr", transition, from_below),
        (DiscontinuityClass.TIE, "tie", tie, tie_limits),
    )
    draws = 50 * samples
    counts: dict[str, int] = {}
    broken: list[tuple] = []
    for cls, tag, build, limits in surfaces:
        counts[cls.value] = 0
        stream = derive_seed(seed, tag)
        for k in range(draws):
            if counts[cls.value] == samples:
                break
            if k % _DDPM_CHUNK == 0:
                # row k % _DDPM_CHUNK is uniform_stream(derive_seed(seed, tag, k), 2),
                # as plain floats
                ks = np.arange(k, min(k + _DDPM_CHUNK, draws))
                chunk = uniform_rows(stream, ks, 2).tolist()
            profile = build(k, chunk[k % _DDPM_CHUNK])
            if profile is None:
                continue
            counts[cls.value] += 1
            if classify_discontinuity(0, profile, cfg) is not cls:
                notes = ["misclassified"]
            else:
                notes = limits(profile)
            broken += [(cls.value, profile, note) for note in notes]
    if min(counts.values()) < samples:
        broken.append(("sampling", (), "could not construct enough on-surface profiles"))
    return make_report(
        check="ddpm-one-sided-limits",
        parameters={"samples": samples, "seed": seed, "per_class": counts},
        max_violation=float(len(broken)),
        tolerance=0.0,
        worst=broken[:5],
        runtime_s=time.perf_counter() - t0,
    )

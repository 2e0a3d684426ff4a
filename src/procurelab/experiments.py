"""Seeded experiment drivers and the machine-readable verification battery."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from ._report import VerificationReport, make_report, worst_of
from ._rng import derive_seed, uniform_block, uniform_stream
from .game_core import (
    CELLS,
    DomainError,
    MarketConfig,
    Side,
    UnsupportedError,
    WeightedKernel,
    best_deviation,
    critical_p,
    cutpoints3,
    default_config,
    jump_signs,
    maps_p,
    ordering_cells,
    payoff_3,
    payoff_n,
    payoff_n_batch,
    payoff_n_combinatorial,
    sym_sequence_A,
    symmetric_kernel,
    weighted_sequences,
    OrderingCell,
)
from .equilibria import (
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
from .oracle_solver import (
    exploitability,
    grid_exploitability,
    grid_sup_inf,
    make_grid,
    payoff_matrix,
    project_to_grid,
    pure_ne_scan,
    solve_grid_game,
    value_curve_oracle,
    ddpm_probe,
)
from .strategy import MixedStrategy, expect_joint, expect_vs, require_market

__all__ = [
    "VerificationReport",
    "make_report",
    "TournamentResult",
    "mc_tournament",
    "DynamicsTrajectory",
    "br_dynamics",
    "RegionKind",
    "region_grid",
    "region_grid_csv",
    "equilibrium_inequalities",
    "functional_residuals",
    "run_battery",
    "battery_passed",
]


# ---------------------------------------------------------------------------
# Monte Carlo tournaments


@dataclass(frozen=True)
class TournamentResult:
    """Per-player mean payoff of a tournament and the standard error of each.

    Both come from exact counts of each payoff value the award rule can
    return, so they depend on the draws alone, not on how the draws were
    blocked.
    """

    means: tuple[float, ...]
    stderrs: tuple[float, ...]
    samples: int
    seed: int


def _count_stats(counts: dict[float, int], n: int) -> tuple[float, float]:
    """(mean, standard error) of n payoffs given as {value: count}.

    The values are summed in sorted order, so the floats are fixed; a sum of
    0/1 payoffs is an exact count.
    """
    terms = sorted(counts.items())
    mean = sum(v * c for v, c in terms) / n
    ss = sum(c * (v - mean) ** 2 for v, c in terms)
    return mean, math.sqrt(ss / (n - 1)) / math.sqrt(n)


def mc_tournament(
    strategies: Sequence[MixedStrategy],
    kernel: Optional[WeightedKernel],
    samples: int,
    seed: int,
) -> TournamentResult:
    """Empirical per-player payoffs of a strategy profile.

    With a two-player kernel the column player's payoff is the exact
    complement of the row draw.  kernel=None plays the N-player
    equal-weight game instead.

    Player i's bids are the quantiles of uniform_stream(derive_seed(seed,
    "tournament", i), samples), made and scored CELLS draws at a time: the
    award rule pays only known values ({0, tie value, 1} under a kernel, 0
    or 1/k for k tied winners otherwise), so each block adds to exact
    per-value counts and no array of `samples` elements is built.  A payoff outside those
    values raises instead of being dropped.
    """
    if samples < 2:
        raise DomainError("need at least two samples")
    if kernel is not None and len(strategies) != 2:
        raise DomainError("a two-player kernel needs exactly two strategies")
    if len(strategies) < 2:
        raise DomainError("need at least two players")
    cfg = strategies[0].cfg if kernel is None else kernel.cfg
    require_market(cfg, *strategies)
    if kernel is not None:
        values = sorted({0.0, kernel.tie_value, 1.0})
        # the row payoff of each draw, a 1-D array counted as a whole: one
        # row of counts, summed without numpy's slower axis= path
        score = kernel.batch
        count = lambda pay: [[np.count_nonzero(pay == v) for v in values]]
    else:
        values = sorted({0.0, *(1.0 / k for k in range(1, len(strategies) + 1))})
        score = lambda *bids: payoff_n_batch(np.column_stack(bids), cfg)
        count = lambda pay: np.stack([np.count_nonzero(pay == v, axis=0)
                                      for v in values], axis=1).tolist()
    seeds = [derive_seed(seed, "tournament", i) for i in range(len(strategies))]
    blocks = []
    for start in range(0, samples, CELLS):
        k = min(CELLS, samples - start)
        pay = score(*(s.quantile(uniform_block(sd, start, k))
                      for s, sd in zip(strategies, seeds)))
        block = count(pay)
        if any(sum(row) != k for row in block):
            raise RuntimeError(f"payoffs outside {values} in draws {start}..{start + k - 1}")
        blocks.append(block)
    tallies = [dict(zip(values, row)) for row in np.sum(blocks, axis=0).tolist()]
    if kernel is not None:
        tallies.append({1.0 - v: c for v, c in tallies[0].items()})
    stats = [_count_stats(t, samples) for t in tallies]
    return TournamentResult(
        means=tuple(m for m, _ in stats),
        stderrs=tuple(s for _, s in stats),
        samples=samples,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Best-response dynamics


@dataclass(frozen=True)
class DynamicsTrajectory:
    """Profiles after each move, profiles[0] being the start.

    Play is deterministic in the state (profile, next mover), so once a
    state repeats, profiles[cycle_start + k] == profiles[cycle_start + k +
    period] for every k.  cycle_start and period are None when the steps
    ran out before a repeat or play stopped at a fixed point.
    """

    profiles: tuple[tuple[float, ...], ...]
    fixed_point_step: Optional[int]
    min_winner_payoff: float
    cycle_start: Optional[int]
    period: Optional[int]


def br_dynamics(start: Sequence[float], steps: int, cfg: MarketConfig) -> DynamicsTrajectory:
    """Round-robin best-response play from a starting profile.

    Each move is best_deviation against the other bids in the mover's own
    slot, so it wins the award outright (payoff 1).  A fixed point would
    need every player to keep its bid through a full round; the trajectory
    records one if that ever happens.

    A move depends only on the state (profile, next mover), so play stops
    simulating at the first repeated state and fills the remaining
    profiles from the cycle already seen; min_winner_payoff over the
    replayed steps is its minimum over that cycle.  A NaN winner payoff is
    the minimum, as worst_of ranks it.
    """
    if len(start) < 2:
        raise DomainError("need at least two players")
    if steps < 1:
        raise DomainError("steps must be positive")
    current = [cfg.require_bid(b) for b in start]
    n = len(current)
    profiles = [tuple(current)]
    seen = {(profiles[0], 0): 0}
    unchanged = 0
    fixed_at: Optional[int] = None
    cycle_start: Optional[int] = None
    period: Optional[int] = None
    winner_payoffs = []
    for t in range(steps):
        i = t % n
        bid = best_deviation(current[:i] + current[i + 1:], i, cfg)
        unchanged = unchanged + 1 if bid == current[i] else 0
        current[i] = bid
        winner_payoffs.append(payoff_n(tuple(current), cfg)[i])
        profiles.append(tuple(current))
        # a fixed point repeats its state at exactly this step, so it is
        # tested first to keep fixed_point_step
        if unchanged >= n:
            fixed_at = t
            break
        first = seen.setdefault((profiles[-1], (t + 1) % n), t + 1)
        if first <= t:
            cycle_start, period = first, t + 1 - first
            break
    if period is not None:
        for k in range(len(profiles), steps + 1):
            profiles.append(profiles[k - period])
    lowest = worst_of((1.0 - w, w) for w in winner_payoffs)[1]
    return DynamicsTrajectory(
        profiles=tuple(profiles),
        fixed_point_step=fixed_at,
        min_winner_payoff=lowest[0] if lowest else 1.0,
        cycle_start=cycle_start,
        period=period,
    )


# ---------------------------------------------------------------------------
# Region grids


class RegionKind(Enum):
    TWO_PLAYER = "TwoPlayer"
    WEIGHTED_P = "WeightedP"
    THREE_PLAYER_SLICE = "ThreePlayerSlice"


def region_grid(
    kind: RegionKind,
    resolution: int,
    cfg: MarketConfig,
    p: Optional[float] = None,
    x: Optional[float] = None,
) -> np.ndarray:
    """Dense payoff matrix over a bid-plane grid, for plotting.

    TwoPlayer/WeightedP: entry [i, j] is the row payoff at bids
    (axis[i], axis[j]).  ThreePlayerSlice: player 1's payoff at fixed own
    bid x over opponent bids (axis[i], axis[j]).
    """
    if resolution > 4096:
        raise UnsupportedError(f"resolution {resolution} exceeds 4096")
    if resolution < 2:
        raise DomainError("resolution must be at least 2")
    axis = np.linspace(cfg.A, cfg.B, resolution)
    if kind is RegionKind.TWO_PLAYER:
        if p is not None or x is not None:
            raise DomainError("TwoPlayer takes no p or x parameter")
        return symmetric_kernel(cfg).matrix(axis, axis)
    if kind is RegionKind.WEIGHTED_P:
        if p is None or x is not None:
            raise DomainError("WeightedP takes p and no x")
        return WeightedKernel(p=p, cfg=cfg).matrix(axis, axis)
    if kind is RegionKind.THREE_PLAYER_SLICE:
        if x is None or p is not None:
            raise DomainError("ThreePlayerSlice takes x and no p")
        own = cfg.require_bid(x)
        bids = np.stack(np.broadcast_arrays(own, axis[:, None], axis[None, :]), axis=-1)
        return payoff_n_batch(bids.reshape(-1, 3), cfg)[:, 0].reshape(resolution, resolution)
    raise DomainError(f"unknown region kind {kind!r}")


def region_grid_csv(
    matrix: np.ndarray,
    kind: RegionKind,
    resolution: int,
    cfg: MarketConfig,
    p: Optional[float] = None,
    x: Optional[float] = None,
) -> str:
    fields = [f"kind={kind.value}"]
    if p is not None:
        fields.append(f"p={p:.12g}")
    if x is not None:
        fields.append(f"x={x:.12g}")
    fields += [
        f"resolution={resolution}",
        f"A={cfg.A:.12g}",
        f"B={cfg.B:.12g}",
        f"E={cfg.E:.12g}",
    ]
    lines = [",".join(fields)]
    for row in matrix:
        lines.append(",".join(f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Equilibrium checks shared by the battery and `procurelab verify`

RESIDUAL_POINTS = 1_000  # bids per residual domain


def equilibrium_inequalities(cases: Sequence[tuple], grid: Sequence[float]) -> tuple[float, list]:
    """Worst breach of row payoff <= v(p) <= column payoff over the grid bids.

    Each case is (label, strategy, p): the opponent plays the strategy in the
    weight-p game.  Below the end of the strategy's last piece, less
    1e-9·(E − A), the row payoff must also equal v(p) exactly: the flat band.
    Returns worst_of's (max_violation, [(label, bid)]), so a NaN payoff is
    the worst point and fails the check.
    """
    grid = np.asarray(grid, dtype=np.float64)

    def breaches():
        for label, s, p in cases:
            if not s.pieces:
                raise DomainError(f"strategy {label!r} has no density pieces")
            if not grid.size:
                continue
            kern = WeightedKernel(p=p, cfg=s.cfg)
            v = value_weighted(p).v
            flat_hi = max(pc.b for pc in s.pieces) - 1e-9 * (s.cfg.E - s.cfg.A)
            row = expect_vs(grid, s, kern, method="exact", side=Side.AS_ROW)
            col = expect_vs(grid, s, kern, method="exact", side=Side.AS_COLUMN)
            dev = np.maximum(row - v, v - col)
            dev = np.where(grid < flat_hi, np.maximum(dev, np.abs(row - v)), dev)
            yield dev, lambda k: (label, float(grid[k]))

    return worst_of(breaches())


def functional_residuals(cases: Sequence[tuple]) -> tuple[float, list]:
    """Worst functional-equation residual of each (strategy, p) case.

    p = 1/2 checks the symmetric system on [A, A_2) off A_1.  Every p checks
    the weighted row and column systems on [A, check-D_1) off the first
    check-A and hat-A points.  The residual may jump at those points.  Each
    domain is sampled at RESIDUAL_POINTS bids before they are dropped.
    Residuals are densities, which scale as 1/(E − A), so each is reported
    times (E − A), and the domain offsets are 1e-9·(E − A): the result does
    not change when the market is rescaled.
    Returns worst_of's (max_violation, [(p, system, bid)]), so a NaN
    residual is the worst point and fails the check.
    """
    def residuals():
        for s, p in cases:
            cfg = s.cfg
            scale = cfg.E - cfg.A
            blocks = []
            if p == 0.5:
                blocks.append((
                    (FunctionalSystem.SYMMETRIC,),
                    sym_sequence_A(2, cfg), (sym_sequence_A(1, cfg),),
                ))
            seq = weighted_sequences(p, 1, cfg)
            blocks.append((
                (FunctionalSystem.WEIGHTED_ROW, FunctionalSystem.WEIGHTED_COLUMN),
                seq.d_check[1], (seq.a_check[1], seq.a_hat[1]),
            ))
            for systems, hi, avoid in blocks:
                xs = np.linspace(cfg.A, hi - 1e-9 * scale, RESIDUAL_POINTS)
                for a in avoid:
                    xs = xs[np.abs(xs - a) > 1e-9 * scale]
                for system in systems:
                    r = [functional_residual(system, s, x, p, cfg) for x in xs.tolist()]
                    yield np.abs(r) * scale, lambda k: (p, system.value, float(xs[k]))

    return worst_of(residuals())


def strategy_normalization(cases: Sequence[tuple]) -> tuple[float, list]:
    """Worst |total mass − 1| of each (label, strategy) case.

    Returns worst_of's (max_violation, [label]), so a NaN mass is the worst
    case and fails the check.
    """
    return worst_of((abs(s.total_mass - 1.0), label) for label, s in cases)


def joint_value_consistency(cases: Sequence[tuple]) -> tuple[float, list]:
    """Worst |G(s, s) − v(p)| of each (strategy, p) case.

    G(s, s) is the joint expectation of the strategy against itself in the
    weight-p game, which an equilibrium must bring to the value v(p).
    Returns worst_of's (max_violation, [p]), so a NaN value is the worst
    case and fails the check.
    """
    return worst_of(
        (abs(expect_joint(s, s, WeightedKernel(p=p, cfg=s.cfg)).value - value_weighted(p).v), p)
        for s, p in cases
    )


# ---------------------------------------------------------------------------
# The verification battery


def battery_passed(reports: Sequence[VerificationReport]) -> bool:
    return all(r.passed for r in reports)


def run_battery(
    cfg: Optional[MarketConfig] = None,
    seed: int = 42,
) -> list[VerificationReport]:
    """Every module invariant at desk scale, one report per named check.

    Checks are isolated: a raising check records an infinite violation and
    the rest still run.  All sampling derives from `seed`, so two runs
    produce identical report payloads.
    """
    cfg = cfg or default_config()
    span = cfg.B - cfg.A
    reports: list[VerificationReport] = []

    def isolated(name: str, params: dict, tol: float, build: Callable[[], VerificationReport]):
        t0 = time.perf_counter()
        try:
            reports.append(build())
        except Exception as exc:  # isolation is the contract here
            reports.append(VerificationReport(name, {**params, "error": repr(exc)}, math.inf,
                                              tol, (), time.perf_counter() - t0))

    def run(name: str, params: dict, tol: float, fn: Callable[[], tuple[float, list]]):
        def build() -> VerificationReport:
            t0 = time.perf_counter()
            violation, worst = fn()
            return make_report(name, params, violation, tol, worst, time.perf_counter() - t0)

        isolated(name, params, tol, build)

    def draw_bids(tag: str, rows: int, cols: int) -> np.ndarray:
        u = uniform_stream(derive_seed(seed, tag, cols), rows * cols)
        return cfg.A + span * u.reshape(rows, cols)

    def bid_blocks(tag: str, rows: int, cols: int):
        # draw_bids(tag, rows, cols) a block of CELLS cells at a time, as
        # (first row, block) pairs
        stream, m = derive_seed(seed, tag, cols), CELLS // cols
        for i in range(0, rows, m):
            k = min(m, rows - i)
            yield i, cfg.A + span * uniform_block(stream, cols * i, cols * k).reshape(k, cols)

    def float_rows(a: np.ndarray):
        # the rows of a as lists of Python floats, on which the scalar
        # oracles run faster than on numpy scalars, made 512 rows at a time:
        # a whole block's lists would outweigh its array
        for i in range(0, len(a), 512):
            yield from a[i:i + 512].tolist()

    # --- game_core ---------------------------------------------------------

    def conservation():
        # the rows of draw_bids("conserve", 10_000, N), the first quarter
        # tied, a block at a time
        for n_players in (2, 3, 4, 5):
            for i, bids in bid_blocks("conserve", 10_000, n_players):
                ties = max(0, 10_000 // 4 - i)
                bids[:ties, 1] = bids[:ties, 0]
                yield (np.abs(payoff_n_batch(bids, cfg).sum(axis=1) - 1.0),
                       lambda k: tuple(bids[k]))

    run("payoff-conservation", {"profiles": 10_000, "N": [2, 3, 4, 5], "tie_share": 0.25}, 1e-12,
        lambda: worst_of(conservation()))

    def combinatorial():
        # the scalar payoff_n, profile by profile, against the array oracle;
        # half the tied rows tie a third bid too, for N >= 3
        bad, worst = 0, []
        for n_players in (2, 3, 4):
            bids = draw_bids("comb", 10_000, n_players)
            ties = len(bids) // 4
            bids[:ties, 1] = bids[:ties, 0]
            if n_players >= 3:
                bids[: ties // 2, 2] = bids[: ties // 2, 0]
            m = CELLS // n_players
            for i in range(0, len(bids), m):
                block = bids[i:i + m]
                oracle = payoff_n_combinatorial(block, cfg)
                for prof, want in zip(map(tuple, float_rows(block)), float_rows(oracle)):
                    if list(payoff_n(prof, cfg)) != want:
                        bad += 1
                        if len(worst) < 5:
                            worst.append(prof)
        return float(bad), worst

    run("combinatorial-agreement",
        {"profiles": 10_000, "N": [2, 3, 4], "tie_share": 0.25, "three_way_share": 0.125}, 0.0,
        combinatorial)

    def three_way():
        # the indicator cascade against payoff_n_batch's first column; the
        # rows of payoff_n_batch must also sum to exactly 1.  The profiles
        # are draw_bids("three", 100_000, 3), made a block at a time
        for _, bids in bid_blocks("three", 100_000, 3):
            general = payoff_n_batch(bids, cfg)
            yield (np.maximum(np.abs(payoff_3(*bids.T, cfg) - general[:, 0]),
                              np.abs(general.sum(axis=1) - 1.0)),
                   lambda k: tuple(bids[k]))

    run("three-player-agreement", {"profiles": 100_000, "conservation": True}, 0.0,
        lambda: worst_of(three_way()))

    def deviation_wins():
        bad, worst = 0, []
        for n_players in (2, 3, 5):
            for row in float_rows(draw_bids("deviate", 3_334, n_players - 1)):
                star = best_deviation(row, 0, cfg)
                if payoff_n((star, *row), cfg)[0] != 1.0:
                    bad += 1
                    if len(worst) < 5:
                        worst.append(tuple(row))
        return float(bad), worst

    run("deviation-optimality", {"profiles": 3 * 3_334, "N": [2, 3, 5]}, 0.0, deviation_wins)

    def relations():
        y, z = draw_bids("relations", 10_000, 2).T
        c = cutpoints3(y, z, cfg)
        r = np.maximum.reduce([
            np.abs((c.p_y - y) - 5.0 * (y - c.t)),
            np.abs((c.p_z - z) - 5.0 * (z - c.t)),
            np.abs((c.p_y - c.p_z) - 6.0 * (y - z)),
        ])
        return worst_of([(r, lambda k: (float(y[k]), float(z[k])))])

    run("cutpoint-relations", {"pairs": 10_000}, 1e-12, relations)

    def ordering_exhaustive():
        axis = np.linspace(cfg.A, cfg.B, 202)[1:-1]
        tags = ("O1", "O2", "O3", "O4", "O5")
        bad, worst, seen = 0, [], set()
        # the grid in bands of rows, in grid order, with five cutpoint values
        # a pair
        band = max(1, CELLS // (5 * len(axis)))
        for i in range(0, len(axis), band):
            y, z = (g.ravel() for g in np.meshgrid(axis[i:i + band], axis, indexing="ij"))
            cells = ordering_cells(y, z, cfg)
            cut = cutpoints3(y, z, cfg)
            t = cut.t
            a = np.where(cells.mirrored, z, y)
            b = np.where(cells.mirrored, y, z)
            p_a = np.where(cells.mirrored, cut.p_z, cut.p_y)
            p_b = np.where(cells.mirrored, cut.p_y, cut.p_z)
            patterns = (
                [p_a, p_b, a, b, t],
                [p_a, a, p_b, b, t],
                [p_a, a, t, b, p_b],
                [t, a, b, p_a, p_b],
                [t, a, p_a, b, p_b],
            )
            bad_at = np.zeros(y.shape, dtype=bool)
            for tag, pattern in zip(tags, patterns):
                ordered = np.logical_and.reduce([u < v for u, v in zip(pattern, pattern[1:])])
                bad_at |= (cells.tag == tag) & ~ordered
            bad += int(bad_at.sum())
            worst += [(float(y[k]), float(z[k]), str(cells.tag[k]))
                      for k in np.flatnonzero(bad_at)[:5 - len(worst)]]
            seen |= set(cells.tag[~cells.boundary].tolist())
        if seen != set(tags):
            bad += 1
            worst.append(("cells-seen", sorted(seen)))
        return float(bad), worst

    run("ordering-cells-exhaustive", {"grid": "200x200"}, 0.0, ordering_exhaustive)

    def jump_sign_scan():
        delta = 1e-7 * span
        per_cell = 1_000
        keys = ("y", "z", "t", "p_y", "p_z")
        filled = {tag: 0 for tag in ("O1", "O2", "O3", "O4", "O5")}
        # each cell's expected sign of every cutpoint, plain and mirrored
        signs = {(tag, m): [jump_signs(OrderingCell(tag, m))[key] for key in keys]
                 for tag in filled for m in (False, True)}
        bad, worst = 0, []
        jumps, pairs = derive_seed(seed, "jumps"), 1_000_000
        # draw and classify up to `pairs` pairs of the stream a chunk at a
        # time (five cutpoint values a pair), keeping in stream order the
        # first per_cell pairs of each cell whose cutpoints lie more than
        # 3·delta apart, and probe the chunk's kept pairs
        chunk = CELLS // len(keys)
        for start in range(0, pairs, chunk):
            if min(filled.values()) >= per_cell:
                break
            k = min(chunk, pairs - start)
            y, z = (cfg.A + span * uniform_block(jumps, 2 * start, 2 * k).reshape(-1, 2)).T
            cells = ordering_cells(y, z, cfg)
            cut = cutpoints3(y, z, cfg)
            values = np.stack([y, z, cut.t, cut.p_y, cut.p_z], axis=-1)
            gaps = np.diff(np.sort(values, axis=-1), axis=-1).min(axis=-1)
            keep = ~cells.boundary & (gaps > 3 * delta)
            take = np.zeros(y.shape, dtype=bool)
            for tag in filled:
                idx = np.flatnonzero(keep & (cells.tag == tag))[:per_cell - filled[tag]]
                take[idx] = True
                filled[tag] += len(idx)
            idx = np.flatnonzero(take)
            expected = np.array([signs[key] for key in zip(cells.tag[idx].tolist(),
                                                            cells.mirrored[idx].tolist())],
                                dtype=int).reshape(-1, len(keys))
            # the payoff just above each cutpoint, minus the payoff just
            # below it, for the cutpoints at least delta inside (A, B)
            v0 = values[idx]
            row, col = np.nonzero((cfg.A + delta < v0) & (v0 < cfg.B - delta))
            x, yk, zk = v0[row, col], y[idx[row]], z[idx[row]]
            got = np.sign(payoff_3(x + delta, yk, zk, cfg) - payoff_3(x - delta, yk, zk, cfg))
            miss = np.flatnonzero(got != expected[row, col])
            bad += len(miss)
            worst += [(float(yk[j]), float(zk[j]), keys[col[j]], int(expected[row[j], col[j]]),
                       int(got[j])) for j in miss[:5 - len(worst)]]
        if min(filled.values()) < per_cell:
            bad += 1
            worst.append(("under-filled", filled))
        return float(bad), worst

    run("jump-sign-scan", {"per_cell": 1_000, "delta": 1e-7 * span}, 0.0, jump_sign_scan)

    def maps_roundtrip():
        draws = draw_bids("maps", 1_000, 1)[:, 0]
        ps = 0.01 + 0.49 * uniform_stream(derive_seed(seed, "maps-p"), 1_000)
        terms = []
        for p, x in zip(ps, draws):
            m = maps_p(float(p), cfg)
            terms.append((
                abs(m.h2(m.f1(x)) - x),
                abs(m.h1(m.f2(x)) - x),
                abs(m.f1(m.f2(x)) - m.f2(m.f1(x))),
                abs(m.f1(cfg.E) - cfg.E),
                abs(m.f2(cfg.E) - cfg.E),
            ))
        # np.max, unlike max, keeps a NaN term
        r = np.max(terms, axis=1)
        return worst_of([(r, lambda k: (float(ps[k]), float(draws[k])))])

    run("map-roundtrips", {"samples": 1_000}, 1e-12, maps_roundtrip)

    # --- strategy / equilibria ---------------------------------------------

    p_star = critical_p()

    def normalization():
        return strategy_normalization([
            ("uniform", uniform_equilibrium(cfg)),
            ("log", log_equilibrium(cfg)),
            ("weighted-0.3", weighted_equilibrium(0.3, cfg)),
            ("critical", critical_regime_strategy(cfg)),
        ])

    run("strategy-normalization", {"strategies": 4}, 1e-12, normalization)

    def inequalities():
        cases = [
            ("uniform", uniform_equilibrium(cfg), 0.5),
            ("log", log_equilibrium(cfg), 0.5),
            ("critical", critical_regime_strategy(cfg), p_star),
            ("weighted-0.3", weighted_equilibrium(0.3, cfg), 0.3),
            ("weighted-0.1", weighted_equilibrium(0.1, cfg), 0.1),
        ]
        return equilibrium_inequalities(cases, np.linspace(cfg.A, cfg.B, 2_000))

    run("equilibrium-inequalities", {"grid": 2_000, "p": [0.5, p_star, 0.3, 0.1]}, 1e-6,
        inequalities)

    def curve_quadrature():
        cases = [
            (CurveKind.SYM_UNIFORM, 0.5, uniform_equilibrium(cfg), Side.AS_ROW),
            (CurveKind.SYM_UNIFORM, 0.5, uniform_equilibrium(cfg), Side.AS_COLUMN),
            (CurveKind.SYM_LOG, 0.5, log_equilibrium(cfg), Side.AS_ROW),
            (CurveKind.SYM_LOG, 0.5, log_equilibrium(cfg), Side.AS_COLUMN),
            (CurveKind.WEIGHTED_ROW, 0.3, weighted_equilibrium(0.3, cfg), Side.AS_ROW),
            (CurveKind.WEIGHTED_COLUMN, 0.3, weighted_equilibrium(0.3, cfg), Side.AS_COLUMN),
        ]
        for which, p, s, side in cases:
            curve = closed_form_curves(which, p, cfg, side=side)
            kern = WeightedKernel(p=p, cfg=cfg)
            us = uniform_stream(derive_seed(seed, "curves", which.value, side.value), 500)
            xs = cfg.A + span * us
            yield (np.abs(curve(xs) - expect_vs(xs, s, kern, side=side, method="quadrature")),
                   lambda k: (which.value, side.value, float(xs[k])))

    run("curve-quadrature-agreement", {"curves": 6, "points": 500}, 1e-6,
        lambda: worst_of(curve_quadrature()))

    def residuals():
        cases = [(log_equilibrium(cfg), 0.5)]
        cases += [(weighted_equilibrium(p, cfg), p) for p in (0.3, 0.1)]
        return functional_residuals(cases)

    run("functional-residuals", {"p": [0.5, 0.3, 0.1], "points": RESIDUAL_POINTS}, 1e-9,
        residuals)

    def value_anchor_half():
        return abs(value_weighted(0.5).v - 0.5), []

    run("value-at-half", {}, 1e-12, value_anchor_half)

    def value_anchor_critical():
        return abs(value_weighted(p_star).v - 1.0 / 3.0), []

    run("value-at-critical", {}, 1e-10, value_anchor_critical)

    def critical_identity():
        for c in (cfg, MarketConfig(A=0.2, B=2.0, E=1.1)):
            seq = weighted_sequences(p_star, 2, c)
            yield abs(maps_p(p_star, c).h2(seq.a_check[2]) - c.A), (c.A, c.B, c.E)

    run("critical-map-identity", {"configs": 2}, 1e-9, lambda: worst_of(critical_identity()))

    def joint_values():
        return joint_value_consistency([
            (log_equilibrium(cfg), 0.5),
            (weighted_equilibrium(0.3, cfg), 0.3),
            (weighted_equilibrium(p_star, cfg), p_star),
        ])

    run("joint-value-consistency", {"p": [0.5, 0.3, p_star]}, 1e-6, joint_values)

    def mc_consistency():
        cases = [
            ("log", log_equilibrium(cfg), 0.5, 0.5),
            ("weighted-0.3", weighted_equilibrium(0.3, cfg), 0.3, value_weighted(0.3).v),
        ]
        for name, s, p, v in cases:
            kern = WeightedKernel(p=p, cfg=cfg)
            res = mc_tournament([s, s], kern, 1_000_000, derive_seed(seed, "mc", name))
            again = mc_tournament([s, s], kern, 1_000_000, derive_seed(seed, "mc", name))
            if res != again:
                yield math.inf, (name, "rerun-mismatch")
                return
            yield (abs(res.means[0] - v) / (4.0 * res.stderrs[0]),
                   (name, res.means[0], res.stderrs[0]))

    run("mc-consistency", {"samples": 1_000_000, "band": "4 stderr"}, 1.0,
        lambda: worst_of(mc_consistency()))

    # --- oracle_solver ------------------------------------------------------

    def constant_sum_matrices():
        # M + Mo^T = 1 (Mo the column player's matrix) and diag(M) = p, for
        # the symmetric and the p = 0.3 kernel on a 201-point grid, from
        # row blocks of M and the matching column blocks of Mo
        xs = make_grid(201, cfg).array
        m = CELLS // len(xs)
        for kern in (symmetric_kernel(cfg), WeightedKernel(p=0.3, cfg=cfg)):
            for i in range(0, len(xs), m):
                rows = kern.matrix(xs[i:i + m], xs)
                cols = kern.swapped().matrix(xs, xs[i:i + m]).T
                yield np.abs(rows + cols - 1.0).max(), None
                yield np.abs(np.diagonal(rows, offset=i) - kern.p).max(), None

    run("matrix-constant-sum", {"n": 201}, 0.0,
        lambda: (worst_of(constant_sum_matrices())[0], []))

    def solver_certificates():
        for p in (0.5, 0.3):
            g = make_grid(101, cfg)
            kern = WeightedKernel(p=p, cfg=cfg)
            sol = solve_grid_game(kern, g, g)
            # the dense oracle against the certificate solve_grid_game took from D
            dense = exploitability(payoff_matrix(kern, g, g), sol.row_mix, sol.col_mix)
            if not sol.converged:
                yield math.inf, (p, "non-convergence")
                return
            yield abs(dense - sol.exploitability), p

    run("solver-certificate-recompute", {"n": 101, "p": [0.5, 0.3]}, 1e-12,
        lambda: worst_of(solver_certificates()))

    def projection_ladder():
        s = log_equilibrium(cfg)
        kern = symmetric_kernel(cfg)
        gaps = []
        for n in (101, 201, 401, 801):
            g = make_grid(n, cfg)
            w = project_to_grid(s, g)
            gaps.append(grid_exploitability(kern, g, g, w, w))
        rises = [(b - a, None) for a, b in zip(gaps, gaps[1:])]
        return worst_of(rises + [(gaps[-1] - 0.02, None)])[0], [tuple(gaps)]

    run("projection-gap-ladder", {"n": [101, 201, 401, 801], "cap": 0.02}, 1e-12,
        projection_ladder)

    def scans():
        bad = 0.0
        found2 = pure_ne_scan(2, make_grid(101, cfg))
        found3 = pure_ne_scan(3, make_grid(21, cfg))
        bad += len(found2) + len(found3)
        g = make_grid(101, cfg)
        si, is_ = grid_sup_inf(payoff_matrix(symmetric_kernel(cfg), g, g))
        bad += abs(si - 0.0) + abs(is_ - 1.0)
        return bad, [("found", found2 + found3), ("guarantees", (si, is_))]

    run("pure-ne-scan", {"N2_n": 101, "N3_n": 21}, 0.0, scans)

    def dynamics():
        fp, lows = 0, []
        for n_players in (2, 3):
            for run_idx in range(10):
                u = uniform_stream(derive_seed(seed, "br", n_players, run_idx), n_players)
                start = [cfg.A + span * float(x) for x in u]
                traj = br_dynamics(start, 10_000, cfg)
                if traj.fixed_point_step is not None:
                    fp += 1
                lows.append(traj.min_winner_payoff)
        # the lowest winner payoff, a NaN one first, and its shortfall below 1
        short, at = worst_of((1.0 - w, w) for w in lows)
        return float(fp) + short, [("min_winner_payoff", at[0] if at else 1.0)]

    run("br-dynamics-no-fixed-point", {"starts": 10, "steps": 10_000, "N": [2, 3]},
        0.0, dynamics)

    def desk_value_ladder():
        rows = value_curve_oracle([0.3, p_star], cfg, [101, 201])
        bad = 0.0
        for p in (0.3, p_star):
            gaps = [r["gap"] for r in rows if r["p"] == p]
            bad += worst_of([(gaps[1] - gaps[0], None)])[0]
        bad += sum(0.0 if r["converged"] else 1.0 for r in rows)
        return bad, [(r["p"], r["n"], r["gap"]) for r in rows]

    run("value-ladder-desk", {"p": [0.3, p_star], "n": [101, 201]}, 1e-12,
        desk_value_ladder)

    ddpm_seed = derive_seed(seed, "ddpm")
    isolated("ddpm-one-sided-limits", {"samples": 1_000, "seed": ddpm_seed}, 0.0,
             lambda: ddpm_probe(1_000, ddpm_seed, cfg))
    return reports

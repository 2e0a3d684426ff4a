"""Award rules and analytic primitives of the average-bid procurement game.

N bidders submit sealed bids in an admissible interval [A, B].  The reference
price is the average of the engineer's estimate E and the mean bid; the award
goes to the bid closest to the reference price from below (at-or-below counts
as below), or to the lowest bid when everyone is above.  Exact ties split the
award evenly.

This module evaluates those rules exactly and exposes the analytic objects
attached to them: deviation thresholds, the four affine reflection maps of the
weighted two-player game, cutpoint sequences, regime classification, win
regions and the kernel's cutpoints, the N=3 cutpoint geometry, and the
discontinuity taxonomy used by the numeric probes.

Everything here is a pure function of its arguments.  Payoff comparisons are
exact float comparisons (ties happen only for bit-equal bids); a tolerance is
used only to classify points as lying on a discontinuity hypersurface.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "MarketConfig",
    "default_config",
    "DomainError",
    "UnsupportedError",
    "BoundaryError",
    "HYPERSURFACE_TOL",
    "payoff_n",
    "payoff_n_tilde",
    "payoff_n_batch",
    "payoff_n_combinatorial",
    "payoff_3",
    "best_deviation",
    "threshold_t",
    "win_region_ends",
    "WeightedKernel",
    "symmetric_kernel",
    "Side",
    "AffineMaps",
    "maps_p",
    "Regime",
    "regime",
    "critical_p",
    "low_p_m",
    "sym_sequence_A",
    "weighted_sequences",
    "Cutpoints3",
    "cutpoints3",
    "OrderingCell",
    "ordering_cell",
    "OrderingCells",
    "ordering_cells",
    "jump_signs",
    "DiscontinuityClass",
    "classify_discontinuity",
]

# Absolute tolerance for deciding that a profile sits on a measure-zero
# hypersurface (tie / fixed-point / transition).  Payoff evaluation itself
# never uses it.
HYPERSURFACE_TOL = 1e-12

# Draws per block of the sampling loops, so a block's uint64 and float
# arrays stay in L2.
BLOCK = 1 << 16

# Float64 cells per block of the array passes (the kernel matrix, the grid
# game's steps, the battery's scans): 128 KiB, glibc's default mmap
# threshold, so a block's temporaries are reused heap, not freshly mapped
# and page-faulted for every block.
CELLS = BLOCK // 4


class DomainError(ValueError):
    """Input outside the domain an operation is defined on."""


class UnsupportedError(ValueError):
    """Input is well-formed but outside the analyzed parameter range."""


class BoundaryError(DomainError):
    """Input sits exactly on a classification boundary."""


@dataclass(frozen=True)
class MarketConfig:
    """Market triple: admissible bid interval [A, B] and estimated cost E."""

    A: float
    B: float
    E: float

    def __post_init__(self) -> None:
        if not (self.A < self.E < self.B):
            raise DomainError(
                f"need A < E < B, got A={self.A}, E={self.E}, B={self.B}"
            )

    def require_bid(self, x: float) -> float:
        if not (self.A <= x <= self.B):
            raise DomainError(f"bid {x} outside [{self.A}, {self.B}]")
        return float(x)

    def require_bids(self, xs) -> np.ndarray:
        """Array form of require_bid: every entry in [A, B], none NaN."""
        xs = np.asarray(xs, dtype=np.float64)
        bad = ~((xs >= self.A) & (xs <= self.B))
        if bad.any():
            raise DomainError(f"bid {xs[bad].flat[0]} outside [{self.A}, {self.B}]")
        return xs


def default_config() -> MarketConfig:
    return MarketConfig(A=0.0, B=1.5, E=1.0)


Profile = Sequence[float]


def check_profile(bids: Profile, cfg: MarketConfig) -> tuple[float, ...]:
    """Validate a bid profile: N >= 2, every bid admissible."""
    out = tuple(map(float, bids))
    if len(out) < 2:
        raise DomainError(f"profile needs at least 2 bids, got {len(out)}")
    A, B = cfg.A, cfg.B
    for b in out:
        if not (A <= b <= B):
            raise DomainError(f"bid {b} outside [{A}, {B}]")
    return out


# ---------------------------------------------------------------------------
# Award rules


def award(bids: tuple[float, ...], cfg: MarketConfig) -> tuple[float, int]:
    """The winning bid of a validated profile and how many players bid it.

    The reference price is (sum of bids + N*E) / (2N), the bids summed left
    to right.  The highest bid at or below it wins; when every bid is above
    it, the lowest.  Slot i wins outright exactly when the result is
    (bids[i], 1).  This is the one scalar award rule: payoff_n,
    payoff_n_tilde and the deviation paths all read it.
    """
    n = len(bids)
    price = (sum(bids) + n * cfg.E) / (2.0 * n)
    target = min(bids)
    if target <= price:
        for b in bids:
            if target < b <= price:
                target = b
    return target, bids.count(target)


def payoff_n(bids: Profile, cfg: MarketConfig) -> tuple[float, ...]:
    """Payoff vector under the award rules; entries sum to exactly 1."""
    bids = check_profile(bids, cfg)
    target, count = award(bids, cfg)
    share = 1.0 / count
    return tuple([share if b == target else 0.0 for b in bids])


def payoff_n_tilde(bids: Profile, cfg: MarketConfig) -> tuple[float, ...]:
    """Tie-averse variant: any shared award pays everyone zero."""
    bids = check_profile(bids, cfg)
    target, count = award(bids, cfg)
    if count > 1:
        return (0.0,) * len(bids)
    return tuple([1.0 if b == target else 0.0 for b in bids])


def payoff_n_batch(bids: np.ndarray, cfg: MarketConfig) -> np.ndarray:
    """Vectorized payoff_n over an (m, N) array of profiles."""
    bids = np.asarray(bids, dtype=np.float64)
    if bids.ndim != 2 or bids.shape[1] < 2:
        raise DomainError("expected an (m, N) array with N >= 2")
    if bids.shape[0] == 0:
        return np.empty_like(bids)
    if not (bids.min() >= cfg.A and bids.max() <= cfg.B):
        raise DomainError("bid outside the admissible interval")
    n = bids.shape[1]
    price = (bids.sum(axis=1, keepdims=True) + n * cfg.E) / (2.0 * n)
    below = bids <= price
    any_below = below.any(axis=1, keepdims=True)
    masked = np.where(below, bids, -np.inf)
    target = np.where(
        any_below, masked.max(axis=1, keepdims=True), bids.min(axis=1, keepdims=True)
    )
    winners = bids == target
    return winners / winners.sum(axis=1, keepdims=True)


def payoff_n_combinatorial(bids: np.ndarray, cfg: MarketConfig) -> np.ndarray:
    """Subset-sum form of the payoff vectors, used as an oracle for payoff_n.

    Takes an (m, N) array of profiles and evaluates, for each player i of
    each profile, the double sum over tie groups J of

        1/(|J|+1) * prod_{k in J} 1{x_i = x_k} * (below-branch + above-branch)

    where the below branch requires every opponent outside J that bids at
    or under the reference price to bid strictly under x_i (the award rule
    counts a bid at the price as below it), and the above branch requires
    every opponent outside J to bid strictly over x_i.
    Each group is a boolean mask over the profiles.  Exponential in N, so
    refused for N > 6.
    """
    bids = np.asarray(bids, dtype=np.float64)
    if bids.ndim != 2 or bids.shape[1] < 2:
        raise DomainError("expected an (m, N) array with N >= 2")
    n_players = bids.shape[1]
    if n_players > 6:
        raise UnsupportedError(f"subset enumeration refused for N={n_players} > 6")
    cfg.require_bids(bids)
    # the bids summed left to right, as award sums a profile
    total = bids[:, 0]
    for j in range(1, n_players):
        total = total + bids[:, j]
    price = (total + n_players * cfg.E) / (2.0 * n_players)
    under = bids <= price[:, None]
    out = np.zeros_like(bids)
    for i in range(n_players):
        xi = bids[:, i]
        others = [j for j in range(n_players) if j != i]
        at_or_below = xi <= price
        for size in range(n_players):
            for group in itertools.combinations(others, size):
                ok = np.ones(len(bids), dtype=bool)
                for k in group:
                    ok &= bids[:, k] == xi
                for j in others:
                    if j not in group:
                        ok &= np.where(at_or_below, ~under[:, j] | (bids[:, j] < xi),
                                       xi < bids[:, j])
                out[:, i] += np.where(ok, 1.0 / (size + 1), 0.0)
    return out


def payoff_3(x, y, z, cfg: MarketConfig) -> float | np.ndarray:
    """Three-player payoff of player 1 as an explicit indicator cascade.

    Spelled out case by case (rather than delegating to payoff_n) so the
    N=3 cutpoint analysis has an independent formulation to test against.
    Arrays of x, y and z broadcast and give an array: np.select takes the
    first case that holds, in cascade order.
    """
    scalar = not (np.ndim(x) or np.ndim(y) or np.ndim(z))
    x, y, z = np.broadcast_arrays(cfg.require_bids(x), cfg.require_bids(y), cfg.require_bids(z))
    t = (x + y + z + 3.0 * cfg.E) / 6.0
    cases = (
        (z <= y) & (y < x) & (x <= t),   # z <= y < x <= t
        (y < z) & (z < x) & (x <= t),    # y < z < x <= t
        (y < x) & (x <= t) & (t < z),    # y < x <= t < z
        (z < x) & (x <= t) & (t < y),    # z < x <= t < y
        (x <= t) & (t < z) & (z <= y),   # x <= t < z <= y
        (x <= t) & (t < y) & (y < z),    # x <= t < y < z
        (t < x) & (x < z) & (z <= y),    # t < x < z <= y
        (t < x) & (x < y) & (y < z),     # t < x < y < z
        (z < y) & (y == x) & (x <= t),   # z < y == x <= t
        (y < z) & (z == x) & (x <= t),   # y < z == x <= t
        (y == x) & (x <= t) & (t < z),   # y == x <= t < z
        (z == x) & (x <= t) & (t < y),   # z == x <= t < y
        (t <= y) & (y == x) & (x < z),   # t <= y == x < z
        (t <= z) & (z == x) & (x < y),   # t <= z == x < y
        (x == y) & (y == z),             # x == y == z
    )
    pays = (1.0,) * 8 + (0.5,) * 6 + (1.0 / 3.0,)
    out = np.select(cases, pays, default=0.0)
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# Deviations and thresholds


def best_deviation(others: Sequence[float], i: int, cfg: MarketConfig) -> float:
    """The bid that wins the award outright in slot i of others[:i] + (bid,) + others[i:].

    The one award-securing move: best-response play, the pure scan and
    deviation-optimality call it.  The slot matters, since float summation
    order shifts the reference price by an ulp between slot orders.  The
    bid starts from threshold_t's quotient, the bid equal to the price it
    induces, clipped to [A, B] (it lies inside in exact arithmetic, so a
    quotient past an end is rounding).  While it does not win, it steps down
    an ulp, at most 8 times, stopping at an opponent's bid; then it is
    undercut by e = 1e-6 * (E - A), halving e up to 80 times.  DomainError
    if no bid wins.
    """
    star = float(min(max(threshold_t(others, cfg), cfg.A), cfg.B))
    others = tuple(map(float, others))
    if not 0 <= i <= len(others):
        raise DomainError(f"slot {i} outside 0..{len(others)}")
    head, tail = others[:i], others[i:]

    def wins(bid: float) -> bool:
        return award((*head, bid, *tail), cfg) == (bid, 1)

    for _ in range(8):
        if star in others:
            break
        if wins(star):
            return star
        star = math.nextafter(star, cfg.A)
    else:
        if wins(star):
            return star
    e = 1e-6 * (cfg.E - cfg.A)
    for _ in range(80):
        cand = max(cfg.A, star - e)
        if wins(cand):
            return cand
        e *= 0.5
    raise DomainError(f"no winning undercut below {star} against {others} in slot {i}")


def threshold_t(others: Sequence[float], cfg: MarketConfig) -> float:
    """Opponents-only threshold: own bids at or below it are at or below P.

    The quotient (sum(x_{-i}) + N*E) / (2N - 1), unclipped: a
    classification threshold must not move, while best_deviation, which
    starts from it, must return a bid that wins (a few ulps lower, or
    undercut on a tie).
    """
    if len(others) < 1:
        raise DomainError("need at least one opponent")
    A, B = cfg.A, cfg.B
    for b in others:
        if not (A <= b <= B):
            raise DomainError(f"bid {b} outside [{A}, {B}]")
    n = len(others) + 1
    return (sum(map(float, others)) + n * cfg.E) / (2.0 * n - 1.0)


# ---------------------------------------------------------------------------
# Affine maps, sequences, regimes


@dataclass(frozen=True)
class AffineMaps:
    """The four reflection maps of the weighted two-player game.

    f1 sends own bid x to the reference price it induces when the opponent
    matches it from above; f2 is the opposite-role analogue; h1 and h2 are
    their respective inverses (h2 of f1 = id, h1 of f2 = id).  All four fix E.
    """

    p: float
    E: float

    def f1(self, x: float) -> float:
        return (self.p * x + self.E) / (self.p + 1.0)

    def f2(self, x: float) -> float:
        return ((1.0 - self.p) * x + self.E) / (2.0 - self.p)

    def h1(self, x: float) -> float:
        return ((2.0 - self.p) * x - self.E) / (1.0 - self.p)

    def h2(self, x: float) -> float:
        return ((self.p + 1.0) * x - self.E) / self.p


def maps_p(p: float, cfg: MarketConfig) -> AffineMaps:
    if not (0.0 < p < 1.0):
        raise DomainError(f"maps need 0 < p < 1, got p={p}")
    return AffineMaps(p=float(p), E=cfg.E)


def sym_sequence_A(i: int, cfg: MarketConfig) -> float:
    """A_i = (A + (3^i - 1) E) / 3^i, the symmetric-game cutpoints."""
    if i < 0:
        raise DomainError(f"index must be >= 0, got {i}")
    # E - (E - A)/3^i is the same value in a cancellation-free form.
    return cfg.E - (cfg.E - cfg.A) / 3.0**i


# low_p_m counts m up to _M_MAX; regime_breakpoints reads d_hat up to 2m + 2
_M_MAX = 64
_SEQ_I_MAX = 2 * _M_MAX + 2


@dataclass(frozen=True)
class WeightedSequences:
    """Cutpoint sequences of the weighted game, indexed by subscript.

    a_hat[i] iterates f1 from A, a_check[i] iterates f2 from A; c_hat[i] is
    h1(a_hat[i]) and c_check[i] is h2(a_check[i+1]).  d_hat iterates f2 and
    d_check iterates f1 from closed-form seeds at index 1; index 0 of both is
    NaN (no seed exists there).  Early d_hat entries may fall below A; they
    are reported as computed, and consumers clip to the admissible interval.
    """

    p: float
    a_hat: tuple[float, ...]
    a_check: tuple[float, ...]
    c_hat: tuple[float, ...]
    c_check: tuple[float, ...]
    d_hat: tuple[float, ...]
    d_check: tuple[float, ...]


def weighted_sequences(p: float, i_max: int, cfg: MarketConfig) -> WeightedSequences:
    if not (1 <= i_max <= _SEQ_I_MAX):
        raise DomainError(f"i_max must be in [1, {_SEQ_I_MAX}], got {i_max}")
    maps = maps_p(p, cfg)
    A, E = cfg.A, cfg.E

    a_hat = [A]
    a_check = [A]
    for _ in range(i_max + 1):
        a_hat.append(maps.f1(a_hat[-1]))
        a_check.append(maps.f2(a_check[-1]))

    d_hat = [math.nan, ((p + 1.0) * (1.0 - p) ** 2 * A + ((5.0 - 3.0 * p) * p - 1.0) * E)
             / (p * (2.0 - p) ** 2)]
    d_check = [math.nan, (2.0 * E + p * (1.0 - p) * A) / ((2.0 - p) * (p + 1.0))]
    for _ in range(i_max - 1):
        d_hat.append(maps.f2(d_hat[-1]))
        d_check.append(maps.f1(d_check[-1]))

    c_hat = tuple(maps.h1(a) for a in a_hat[: i_max + 1])
    c_check = tuple(maps.h2(a_check[i + 1]) for i in range(i_max + 1))
    return WeightedSequences(
        p=float(p),
        a_hat=tuple(a_hat[: i_max + 1]),
        a_check=tuple(a_check[: i_max + 1]),
        c_hat=c_hat,
        c_check=c_check,
        d_hat=tuple(d_hat),
        d_check=tuple(d_check),
    )


def critical_p() -> float:
    """Root of 3p^2 - 5p + 1 in (0, 1/2); where h2(a_check[2]) hits A."""
    return (5.0 - math.sqrt(13.0)) / 6.0


class Regime(Enum):
    SYMMETRIC = "Symmetric"
    INTERMEDIATE = "Intermediate"
    CRITICAL = "Critical"
    LOW_P = "LowP"
    DEGENERATE = "Degenerate"


def regime(p: float) -> Regime:
    """Classify the weight p into the five analyzed parameter ranges."""
    if math.isnan(p) or p < 0.0:
        raise DomainError(f"weight p={p} outside [0, 1/2]")
    if p > 0.5:
        raise UnsupportedError(
            f"p={p} > 1/2 is outside the analyzed range (swap player roles instead)"
        )
    if abs(p - critical_p()) <= HYPERSURFACE_TOL:
        return Regime.CRITICAL
    if p == 0.0:
        return Regime.DEGENERATE
    if p == 0.5:
        return Regime.SYMMETRIC
    return Regime.INTERMEDIATE if p > critical_p() else Regime.LOW_P


def low_p_m(p: float, cfg: MarketConfig) -> int:
    """Largest i with a_check[2+i] <= d_check[1]; >= 1 throughout the regime."""
    if regime(p) is not Regime.LOW_P:
        raise DomainError(f"p={p} is not in the low-p regime")
    seq = weighted_sequences(p, _M_MAX + 2, cfg)
    d1 = seq.d_check[1]
    m = next((k for k, a in enumerate(seq.a_check[3:]) if not a <= d1), _M_MAX)
    if m < 1:
        raise DomainError(f"no admissible m at p={p}; regime guarantee violated")
    return m


# ---------------------------------------------------------------------------
# Win regions


class Side(Enum):
    AS_ROW = "AsRow"
    AS_COLUMN = "AsColumn"


# on Python 3.11 a member looked up on its Enum class costs ≈100 ns, a module
# global a few; win_ends and strategy.expect_vs test the side once per float
# expect_vs call
_AS_ROW, _AS_COLUMN = Side.AS_ROW, Side.AS_COLUMN


def win_ends(
    bid: float, side: Side, maps: AffineMaps, cfg: MarketConfig
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Opponent bids against which an admissible bid strictly wins (payoff 1).

    Returns the (lo, hi) ends of the lower, then the upper, region as plain
    floats; a region is empty where hi <= lo.  Endpoints follow from the
    award rules: a weak win at the reference price makes the lower region
    closed-open, [lo, hi), and the upper one open-closed, (lo, hi].  For a
    column bid at or above E every strictly lower row bid wins, so the lower
    region is [A, bid) and the upper one is empty; at E this keeps the tie
    out, where h2(E) may round above E.  win_region_ends is the array form.
    """
    if side is _AS_ROW:
        # max(h, A) and max(f, bid) as conditionals, the first argument
        # kept on a tie
        A, h, f = cfg.A, maps.h1(bid), maps.f1(bid)
        return (A if A > h else h, bid), (bid if bid > f else f, cfg.B)
    if side is _AS_COLUMN:
        if bid >= cfg.E:
            return (cfg.A, bid), (bid, bid)
        return (cfg.A, maps.h2(bid)), (bid, maps.f2(bid))
    raise DomainError(f"unknown side {side!r}")


def win_region_ends(
    bids: np.ndarray, side: Side, maps: AffineMaps, cfg: MarketConfig
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """win_ends over an array of admissible bids, as (lo, hi) arrays."""
    A, B, E = cfg.A, cfg.B, cfg.E
    if side is Side.AS_ROW:
        lower = (np.maximum(maps.h1(bids), A), bids)
        upper = (np.maximum(maps.f1(bids), bids), np.full_like(bids, B))
    elif side is Side.AS_COLUMN:
        above = bids >= E
        lower = (np.full_like(bids, A), np.where(above, bids, maps.h2(bids)))
        upper = (bids, np.where(above, bids, maps.f2(bids)))
    else:
        raise DomainError(f"unknown side {side!r}")
    return lower, upper


def kernel_cutpoints(kernel: WeightedKernel, bid: float | np.ndarray, side: Side) -> tuple:
    """(bid, E, lo, hi): the opponent bids where the payoff of `bid` may jump.

    For a fixed own bid the kernel is piecewise constant in the opponent's
    bid; it jumps only at the tie, at E and at the two win-region ends, lo
    and hi: h1(bid) and f1(bid) on the row seat, h2(bid) and f2(bid) on the
    column seat, not clipped to [A, B] or to the bid.  At p in {0, 1} the
    maps are not defined, and lo and hi are their limits 2 bid - E and
    (bid + E) / 2 on either seat.  A float bid gives four floats; a 1-D array
    gives four arrays of its shape, each entry equal to the float's.
    """
    if side is not _AS_ROW and side is not _AS_COLUMN:
        raise DomainError(f"unknown side {side!r}")
    E = kernel.cfg.E
    if not 0.0 < kernel.p < 1.0:
        lo, hi = 2.0 * bid - E, (bid + E) / 2.0
    elif side is _AS_ROW:
        maps = kernel.maps
        lo, hi = maps.h1(bid), maps.f1(bid)
    else:
        maps = kernel.maps
        lo, hi = maps.h2(bid), maps.f2(bid)
    # E in the bid's shape: 0 * bid is a zero of either sign, so the sum is E
    return bid, 0.0 * bid + E, lo, hi


# ---------------------------------------------------------------------------
# N=3 cutpoint geometry


@dataclass(frozen=True)
class Cutpoints3:
    """The three opponent-derived cutpoints for N=3: the own-bid threshold t
    and the bids p_y, p_z at which the reference price crosses y and z."""

    t: float
    p_y: float
    p_z: float


def cutpoints3(y, z, cfg: MarketConfig) -> Cutpoints3:
    """The cutpoints of opponent bids (y, z); arrays of y and z give arrays."""
    if np.ndim(y) or np.ndim(z):
        y, z = cfg.require_bids(y), cfg.require_bids(z)
    else:
        y, z = cfg.require_bid(y), cfg.require_bid(z)
    E = cfg.E
    return Cutpoints3(
        t=(y + z + 3.0 * E) / 5.0,
        p_y=5.0 * y - 3.0 * E - z,
        p_z=5.0 * z - 3.0 * E - y,
    )


@dataclass(frozen=True)
class OrderingCell:
    """One of the five admissible strict orders of {p_y, p_z, y, z, t};
    mirrored means the pattern holds after swapping y and z."""

    tag: str
    mirrored: bool


@dataclass(frozen=True)
class OrderingCells:
    """OrderingCell over arrays of (y, z); boundary marks the pairs that
    ordering_cell refuses, and their tag is the empty string."""

    tag: np.ndarray
    mirrored: np.ndarray
    boundary: np.ndarray


_JUMP_SIGNS: dict[str, dict[str, int]] = {
    "O1": {"y": 0, "p_y": -1, "z": 1, "p_z": 0, "t": -1},
    "O2": {"y": 1, "p_y": -1, "z": 1, "p_z": -1, "t": -1},
    "O3": {"y": 1, "p_y": -1, "z": 0, "p_z": 0, "t": -1},
    "O4": {"y": -1, "p_y": 0, "z": 0, "p_z": 0, "t": 0},
    "O5": {"y": -1, "p_y": 0, "z": 0, "p_z": 0, "t": 0},
}


def ordering_cells(y: np.ndarray, z: np.ndarray, cfg: MarketConfig) -> OrderingCells:
    """Classify each pair (y[k], z[k]) by the strict order of the five N=3
    cutpoints.

    A pair is on a boundary when any two of {y, z, t, p_y, p_z} fall within
    HYPERSURFACE_TOL of each other: there the order is not strict and
    adjacent cells merge.  The tolerance matters: pairs that coincide in
    exact arithmetic can land an ulp apart in floats, and classifying them
    would report a strict order that is pure rounding noise.
    """
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if y.shape != z.shape:
        raise DomainError(f"y and z shapes differ: {y.shape} vs {z.shape}")
    cut = cutpoints3(y, z, cfg)
    ordered = np.sort(np.stack([y, z, cut.t, cut.p_y, cut.p_z], axis=-1), axis=-1)
    boundary = np.diff(ordered, axis=-1).min(axis=-1) <= HYPERSURFACE_TOL

    mirrored = z < y
    a = np.where(mirrored, z, y)  # a < b
    b = np.where(mirrored, y, z)
    p_a = np.where(mirrored, cut.p_z, cut.p_y)
    p_b = np.where(mirrored, cut.p_y, cut.p_z)
    tag = np.where(
        b < cut.t,
        np.where(p_b < a, "O1", "O2"),
        np.where(a < cut.t, "O3", np.where(p_a > b, "O4", "O5")),
    )
    return OrderingCells(tag=np.where(boundary, "", tag), mirrored=mirrored, boundary=boundary)


def ordering_cell(y: float, z: float, cfg: MarketConfig) -> OrderingCell:
    """ordering_cells for one pair; raises BoundaryError on a boundary."""
    cells = ordering_cells(np.array([y], dtype=np.float64),
                           np.array([z], dtype=np.float64), cfg)
    if cells.boundary[0]:
        raise BoundaryError(
            f"two cutpoints of (y, z) = ({y}, {z}) lie within {HYPERSURFACE_TOL}")
    return OrderingCell(tag=str(cells.tag[0]), mirrored=bool(cells.mirrored[0]))


def jump_signs(cell: OrderingCell) -> dict[str, int]:
    """Payoff jump sign of player 1 across each cutpoint, for the cell."""
    base = _JUMP_SIGNS[cell.tag]
    if not cell.mirrored:
        return dict(base)
    swap = {"y": "z", "z": "y", "p_y": "p_z", "p_z": "p_y", "t": "t"}
    return {swap[name]: sign for name, sign in base.items()}


# ---------------------------------------------------------------------------
# Discontinuity taxonomy


class DiscontinuityClass(Enum):
    TIE = "Tie"
    FIXED_POINT = "FixedPoint"
    TRANSITION = "Transition"
    CONTINUITY = "Continuity"


def classify_discontinuity(i: int, bids: Profile, cfg: MarketConfig) -> DiscontinuityClass:
    """Locate player i's bid relative to the discontinuity hypersurfaces.

    Tie: i shares its bid with someone and the tied group wins.
    FixedPoint: i's bid equals the threshold induced by the others (there
    the bid coincides with the reference price and wins outright).
    Transition: the highest opponent bid not above the threshold sits
    exactly on the reference price, so an infinitesimal move of x_i
    re-awards the contract away from i.
    Anything else is a continuity point.

    Checks run in that order and the first hit wins.  Membership is decided
    from the defining geometry within HYPERSURFACE_TOL; the payoff values
    the surfaces carry (1 at a fixed point, 0 at a transition) follow from
    the geometry exactly on the surface, and re-testing them at a
    float-rounded profile would misclassify points an ulp away.
    """
    bids = check_profile(bids, cfg)
    if not (0 <= i < len(bids)):
        raise DomainError(f"player index {i} out of range")
    xi = bids[i]
    others = [b for j, b in enumerate(bids) if j != i]

    if award(bids, cfg)[0] == xi and any(abs(b - xi) <= HYPERSURFACE_TOL for b in others):
        return DiscontinuityClass.TIE

    t = threshold_t(others, cfg)
    if abs(xi - t) <= HYPERSURFACE_TOL:
        return DiscontinuityClass.FIXED_POINT

    n = len(bids)
    candidates = [b for b in others if b <= t + HYPERSURFACE_TOL]
    if candidates:
        b_low = max(candidates)
        surface = (2.0 * n - 1.0) * b_low - (sum(others) - b_low) - n * cfg.E
        if abs(xi - surface) <= HYPERSURFACE_TOL:
            return DiscontinuityClass.TRANSITION
    return DiscontinuityClass.CONTINUITY


# ---------------------------------------------------------------------------
# Payoff kernels


@dataclass(frozen=True)
class WeightedKernel:
    """Two-player payoff kernel g_p(x, y) with vectorized evaluation.

    The price weighs the row bid by p and the column bid by w_col, which
    is 1 - p unless given; ties pay p.  The two weights must sum to 1 in
    floats.  swapped() is the column player's kernel: it exchanges the two
    weights, so g(x, y) + g.swapped()(y, x) == 1 holds bit for bit, where
    WeightedKernel(1 - p) can round the price differently.
    """

    p: float
    cfg: MarketConfig
    w_col: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.p <= 1.0):
            raise DomainError(f"weight p={self.p} outside [0, 1]")
        if self.w_col is None:
            object.__setattr__(self, "w_col", 1.0 - self.p)
        elif not (0.0 <= self.w_col <= 1.0 and self.p + self.w_col == 1.0):
            raise DomainError(f"weights p={self.p} and w_col={self.w_col} do not sum to 1")

    @cached_property
    def maps(self) -> AffineMaps:
        """maps_p of this kernel, built on first use; needs 0 < p < 1."""
        return maps_p(self.p, self.cfg)

    def swapped(self) -> WeightedKernel:
        """The same game seen from the column player's seat."""
        return WeightedKernel(p=self.w_col, cfg=self.cfg, w_col=self.p)

    @property
    def tie_value(self) -> float:
        return self.p

    @property
    def is_symmetric(self) -> bool:
        return self.p == 0.5

    def __call__(self, x: float, y: float) -> float:
        return float(self.batch(self.cfg.require_bid(x), self.cfg.require_bid(y)))

    def batch(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Elementwise payoff over broadcast arrays of bids."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        p, E = self.p, self.cfg.E
        price = (p * x + self.w_col * y + E) / 2.0
        # the higher bid at or below the price wins; when both are above it,
        # the lower one
        row_wins = ((y < x) & (x <= price)) | ((x < y) & (price < y))
        return np.where(x == y, p, row_wins)

    def matrix(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Payoff matrix M[i, j] = g_p(xs[i], ys[j]).

        Filled a block of rows at a time, CELLS cells per block (but at
        least one row), so the build takes the result plus one block's
        temporaries.  Each entry is batch's, bit for bit.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        out = np.empty((len(xs), len(ys)))
        k = max(1, CELLS // max(1, len(ys)))
        for i in range(0, len(xs), k):
            out[i:i + k] = self.batch(xs[i:i + k, None], ys[None, :])
        return out


def symmetric_kernel(cfg: MarketConfig) -> WeightedKernel:
    return WeightedKernel(p=0.5, cfg=cfg)

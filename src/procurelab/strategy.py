"""Mixed strategies on [A, B] and expected payoffs against them.

A strategy is a finite mixture of uniform pieces, reciprocal pieces (density
proportional to 1/(E - x), the shape every non-uniform equilibrium here
uses), and point masses.  CDF, quantile, and the piece masses inside a
win region all have closed forms, so expected payoffs
against the procurement kernels are computed exactly; Gauss-Legendre
quadrature at two fixed orders is kept as an independent cross-check path.

Draws are inverse-transform: quantile maps the deterministic uniform stream
of _rng, so a seed pins them bit-for-bit across platforms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from procurelab.game_core import (
    _AS_COLUMN,
    _AS_ROW,
    BLOCK,
    CELLS,
    DomainError,
    MarketConfig,
    Side,
    UnsupportedError,
    WeightedKernel,
    kernel_cutpoints,
    maps_p,
    win_ends,
    win_region_ends,
)

__all__ = [
    "Piece",
    "PieceKind",
    "Atom",
    "MixedStrategy",
    "point_mass",
    "expect_vs",
    "expect_joint",
    "JointExpectation",
    "QuadratureError",
]


class QuadratureError(RuntimeError):
    """Numeric integration failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved_tol: float):
        super().__init__(f"{message} (achieved tolerance {achieved_tol:.3e})")
        self.achieved_tol = achieved_tol


class PieceKind(Enum):
    UNIFORM = "uniform"
    RECIPROCAL = "reciprocal"


@dataclass(frozen=True)
class Piece:
    """Density piece of weight w on [a, b): flat, or proportional to 1/(E-x)."""

    kind: PieceKind
    a: float
    b: float
    w: float

    def normalizer(self, E: float) -> float:
        """Density constant: w/(b-a) when flat, c in c/(E-x) when reciprocal."""
        if self.kind is PieceKind.UNIFORM:
            return self.w / (self.b - self.a)
        return self.w / math.log((E - self.a) / (E - self.b))


@dataclass(frozen=True)
class Atom:
    x: float
    m: float


@dataclass(frozen=True)
class MixedStrategy:
    """Immutable mixture of pieces and atoms on the admissible interval.

    Construction checks structure only (interval ordering, domain, the
    reciprocal singularity).  Total mass is checked by validate(), which
    every package factory calls; building an unnormalized strategy directly
    is possible on purpose, so verification routines have something broken
    to detect.
    """

    pieces: tuple[Piece, ...]
    atoms: tuple[Atom, ...]
    cfg: MarketConfig

    def __post_init__(self) -> None:
        object.__setattr__(self, "pieces", tuple(self.pieces))
        object.__setattr__(self, "atoms", tuple(self.atoms))
        A, B, E = self.cfg.A, self.cfg.B, self.cfg.E
        for p in self.pieces:
            if not (A <= p.a < p.b <= B):
                raise DomainError(f"piece [{p.a}, {p.b}) not inside [{A}, {B}]")
            if not p.w > 0.0:  # a NaN weight too
                raise DomainError(f"piece weight {p.w} must be positive")
            if p.kind is PieceKind.RECIPROCAL and p.b >= E:
                raise DomainError(
                    f"reciprocal piece [{p.a}, {p.b}) must end below E={E}: "
                    "the density 1/(E-x) is not integrable there"
                )
        for atom in self.atoms:
            self.cfg.require_bid(atom.x)
            if not atom.m > 0.0:
                raise DomainError(f"atom mass {atom.m} must be positive")

    @cached_property
    def piece_constants(self) -> tuple[tuple[bool, float, float, float, float], ...]:
        """(flat, a, b, w, normalizer) of each piece, computed on first use.

        flat is True for a uniform piece.  The cache sits outside the
        dataclass fields, so ==, hash and repr do not see it.
        """
        E = self.cfg.E
        return tuple((p.kind is PieceKind.UNIFORM, p.a, p.b, p.w, p.normalizer(E))
                     for p in self.pieces)

    @property
    def total_mass(self) -> float:
        return sum(p.w for p in self.pieces) + sum(a.m for a in self.atoms)

    def validate(self) -> "MixedStrategy":
        if not abs(self.total_mass - 1.0) <= 1e-12:
            raise DomainError(f"total mass {self.total_mass} differs from 1")
        return self

    # -- exact measure queries ------------------------------------------

    def _piece_cdf(self, x: np.ndarray) -> np.ndarray:
        """Continuous-part CDF (pieces only), vectorized."""
        E = self.cfg.E
        out = np.zeros_like(x, dtype=np.float64)
        for flat, a, b, w, c in self.piece_constants:
            xe = np.clip(x, a, b)
            if flat:
                out += w * (xe - a) / (b - a)
            else:
                out += c * np.log((E - a) / (E - xe))
        return out

    def cdf(self, x) -> float | np.ndarray:
        """P(X <= x); right-continuous, exact."""
        arr = np.asarray(x, dtype=np.float64)
        out = self._piece_cdf(arr)
        for a in self.atoms:
            out = out + a.m * (arr >= a.x)
        return float(out) if np.isscalar(x) or arr.ndim == 0 else out

    def _cdf_left(self, x) -> float | np.ndarray:
        """P(X < x)."""
        arr = np.asarray(x, dtype=np.float64)
        out = self._piece_cdf(arr)
        for a in self.atoms:
            out = out + a.m * (arr > a.x)
        return float(out) if np.isscalar(x) or arr.ndim == 0 else out

    def density(self, x: float) -> float:
        """Density of the pieces at x, zero outside them; [a, b) as in the cdf."""
        E = self.cfg.E
        return sum((c if flat else c / (E - x)
                    for flat, a, b, _, c in self.piece_constants if a <= x < b), 0.0)

    def atom_mass_at(self, x: float) -> float:
        return sum(a.m for a in self.atoms if a.x == x)

    # -- quantile and sampling ------------------------------------------

    def _ordered_components(self):
        """Pieces and atoms in position order, or None when they overlap."""
        events = []
        for p in self.pieces:
            events.append((p.a, 1, p))
        for a in self.atoms:
            events.append((a.x, 0, a))
        events.sort(key=lambda e: (e[0], e[1]))
        pos = self.cfg.A
        for loc, _, comp in events:
            if isinstance(comp, Piece):
                if comp.a < pos:
                    return None
                pos = comp.b
            else:
                if comp.x < pos:
                    return None
                pos = max(pos, comp.x)
        return [comp for _, _, comp in events]

    @cached_property
    def _quantile_tables(self) -> tuple[np.ndarray, ...] | None:
        """Per-component constants of the quantile, or None when components overlap.

        (rec, masses, start, span, to_e, norm) hold one entry per ordered
        component, then come the cumulative masses below and at the end of
        each.  An atom at x is the linear quantile of a zero-width piece,
        a + 0·local/w = x; a reciprocal piece gets 1.0 as its linear span and
        normalizer, values that its element never uses.  Computed on first
        use and cached like piece_constants.
        """
        comps = self._ordered_components()
        if comps is None:
            return None
        E = self.cfg.E
        rec = np.array([isinstance(c, Piece) and c.kind is PieceKind.RECIPROCAL
                        for c in comps])
        masses = np.array([c.w if isinstance(c, Piece) else c.m for c in comps])
        start = np.array([c.a if isinstance(c, Piece) else c.x for c in comps])
        span = np.array([c.b - c.a if isinstance(c, Piece) else 0.0 for c in comps])
        to_e = np.array([E - c.a if r else 1.0 for c, r in zip(comps, rec)])
        norm = np.array([c.normalizer(E) if r else 1.0 for c, r in zip(comps, rec)])
        edges = np.cumsum(masses)
        tables = rec, masses, start, span, to_e, norm, edges - masses, edges
        for t in tables:  # shared by every later call, so read-only
            t.flags.writeable = False
        return tables

    def quantile(self, u) -> float | np.ndarray:
        """Generalized inverse of the CDF: inf{x : cdf(x) >= u}.

        Every u must lie in [0, 1]; NaN or anything outside raises
        DomainError.  An empty array gives an empty array.
        """
        scalar = np.isscalar(u) or np.asarray(u).ndim == 0
        uu = np.atleast_1d(np.asarray(u, dtype=np.float64))
        # one pass for each end; min and max return NaN if any u is NaN, and
        # the comparisons then fail
        if uu.size and not (uu.min() >= 0.0 and uu.max() <= 1.0):
            raise DomainError("quantile argument outside [0, 1]")
        tables = self._quantile_tables
        if tables is not None:
            out = self._quantile_ordered(uu, *tables)
        else:
            out = self._quantile_bisect(uu)
        return float(out[0]) if scalar else out

    def _quantile_ordered(self, u: np.ndarray, rec, masses, start, span, to_e, norm,
                          base, edges) -> np.ndarray:
        E = self.cfg.E

        def block(u: np.ndarray) -> np.ndarray:
            # the component of each u: how many of the first len(edges) - 1
            # edges lie below it; for a few components this is several times
            # faster than np.searchsorted
            idx = np.zeros(u.shape, dtype=np.intp)
            for e in edges[:-1]:
                idx += u > e
            pick = lambda v: np.take(v, idx)
            local = u - pick(base)
            if rec.all():
                return E - pick(to_e) * np.exp(-local / pick(norm))
            lin = pick(start) + pick(span) * local / pick(masses)
            if not rec.any():
                return lin
            return np.where(pick(rec), E - pick(to_e) * np.exp(-local / pick(norm)), lin)

        out = np.minimum(u, edges[-1])
        if len(edges) == 1 and rec[0]:
            # one reciprocal component (log and every weighted equilibrium):
            # E - to_e·exp(-u/norm) in place, so no temporaries at all
            out /= -norm[0]
            np.exp(out, out=out)
            out *= to_e[0]
            return np.clip(np.subtract(E, out, out=out), self.cfg.A, self.cfg.B, out=out)
        # blocks of BLOCK draws bound the temporaries, a few per-element
        # arrays of 512 KiB, to 2-3 MiB however many draws there are (less
        # for a shorter u, such as mc_tournament's CELLS draws)
        for i in range(0, out.size, BLOCK):
            out[i:i + BLOCK] = block(out[i:i + BLOCK])
        return np.clip(out, self.cfg.A, self.cfg.B, out=out)

    def _quantile_bisect(self, u: np.ndarray) -> np.ndarray:
        # overlapping components: fall back to monotone bisection on the CDF
        out = np.full_like(u, np.nan)
        for a in self.atoms:
            lo_mass = self._cdf_left(a.x)
            hi_mass = self.cdf(a.x)
            hit = (u > lo_mass) & (u <= hi_mass)
            out[hit] = a.x
        todo = np.isnan(out)
        lo = np.full(todo.sum(), self.cfg.A)
        hi = np.full(todo.sum(), self.cfg.B)
        target = u[todo]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            ge = self.cdf(mid) >= target
            hi = np.where(ge, mid, hi)
            lo = np.where(ge, lo, mid)
        out[todo] = hi
        return out


def point_mass(x: float, cfg: MarketConfig) -> MixedStrategy:
    return MixedStrategy((), (Atom(cfg.require_bid(x), 1.0),), cfg).validate()


# ---------------------------------------------------------------------------
# Expected payoffs


_QUAD_REL_TOL = 1e-9  # relative tolerance of the quadrature path
# Gauss-Legendre nodes, shifted from [-1, 1] to [0, 2], and weights at two
# orders, side by side; the gap between the orders is the quadrature's error
# estimate
_GL_LOW = 16
_GL_NODES, _GL_WEIGHTS = (
    np.concatenate(parts) for parts in zip(*(leggauss(n) for n in (_GL_LOW, 2 * _GL_LOW)))
)
_GL_NODES += 1.0
# the same tables halved: a panel of width d has its nodes at d·(t/2) and its
# weights d·(w/2), which equal (d/2)·t and (d/2)·w exactly for normal floats
_GL_HALF_NODES, _GL_HALF_WEIGHTS = _GL_NODES / 2.0, _GL_WEIGHTS / 2.0


@dataclass(frozen=True)
class JointExpectation:
    """Double expectation with the per-form values and their max spread."""

    value: float
    by_form: dict[str, float]
    max_gap: float


def _panels(points: Iterable[float], lo: float, hi: float, E: float) -> list[float]:
    """The right ends of the panels of [lo, hi], in order; the first starts at lo.

    Panels run between the points inside [lo, hi], halved toward E.  The
    reciprocal densities, and the payoffs against them, are singular at E;
    a panel below E is cut at its midpoints toward E until none lies closer
    to E than its own length, so a fixed-order rule resolves it.
    """
    out = []
    a = lo
    for b in [*sorted({q for q in points if lo < q < hi}), hi]:
        while b < E and (mid := (a + E) / 2.0) < b:
            out.append(mid)
            a = mid
        out.append(b)
        a = b
    return out


def require_market(cfg: MarketConfig, *strategies: MixedStrategy) -> None:
    """Raise DomainError unless every strategy is built on the market cfg.

    Identity is tried first, so the usual case costs one comparison.
    """
    for s in strategies:
        if s.cfg is not cfg and s.cfg != cfg:
            raise DomainError(f"strategy on market {s.cfg} played on market {cfg}")


def expect_vs(
    bid: float | np.ndarray,
    s: MixedStrategy,
    kernel: WeightedKernel,
    *,
    side: Side = Side.AS_ROW,
    method: str = "exact",
) -> float | np.ndarray:
    """Expected payoff of `bid` against an opponent playing `s`.

    side AS_ROW evaluates E[g(bid, Y)], AS_COLUMN evaluates E[g(X, bid)]
    where g is the row player's payoff.  The default method decomposes the
    opponent's pieces over the exact win regions (the kernel is constant on
    each part, so no numeric integration happens at all); "quadrature"
    integrates the kernel itself against the pieces instead and exists to
    cross-check the closed forms.  Atom ties contribute the kernel's tie
    payoff.

    Any other bid (a float, an int, a numpy scalar or a 0-d array) is read
    as float(bid); an admissible float passes its range check in one chained
    comparison.  Its exact path builds no closure or array: it clips the
    float win_ends to each piece with the strategy's cached piece_constants,
    and scores atoms with the kernel.  Its quadrature path is one block of
    _integrate_against: one call of kernel.batch on every node of its
    panels.

    A 1-D array of bids gives the array of their payoffs.  The exact path
    adds the same terms in the same order as a float bid does; reciprocal
    pieces may differ from the float path by an ulp, because np.log and
    math.log may round differently.  At p in {0, 1} the win regions are not
    defined, so the exact method raises UnsupportedError there and only
    "quadrature" answers.  A float bid is the one-element case of the
    quadrature routine, so each bid's quadrature value is its float value
    bit for bit.

    A side that is not a Side, or a strategy built on another market than
    the kernel's, raises DomainError on every path.  The checks run in the
    order method, side, market, weight, bid, so a call with several faults
    names the first of them.
    """
    # each check in its cheapest form: Side has two members, so identity with
    # them is the isinstance test, and the market needs require_market's
    # equality test only when it is not the kernel's object
    if method == "exact":
        exact = True
    elif method == "quadrature":
        exact = False
    else:
        raise DomainError(f"unknown method {method!r}")
    if side is not _AS_ROW and side is not _AS_COLUMN:
        raise DomainError(f"unknown side {side!r}")
    cfg = kernel.cfg
    if s.cfg is not cfg:
        require_market(cfg, s)
    if exact and not 0.0 < kernel.p < 1.0:
        raise UnsupportedError("exact win regions need 0 < p < 1")
    # an admissible float needs no more checks; anything else is an array or
    # goes through require_bid, which reads it as float(bid)
    if type(bid) is not float or not cfg.A <= bid <= cfg.B:
        if isinstance(bid, np.ndarray) and bid.ndim:
            if bid.ndim != 1:
                raise DomainError(f"array bids must be 1-D, got shape {bid.shape}")
            bids = cfg.require_bids(bid)
            if exact:
                return _expect_vs_exact_array(bids, s, kernel, side)
            return _expect_vs_quadrature(bids, s, kernel, side)
        bid = cfg.require_bid(bid)
    # a float bid stays on scalar code for the exact path: for one bid it is
    # several times faster than a one-element array
    if exact:
        # each piece's mass inside the two win regions, from plain floats and
        # the per-strategy constants; an empty region adds no term.  The
        # conditionals clip as max(lo, a) and min(hi, b) do, ties included
        E, log = cfg.E, math.log
        cont = 0.0
        for lo, hi in win_ends(bid, side, kernel.maps, cfg):
            for flat, a, b, w, c in s.piece_constants:
                lo_in = a if a > lo else lo
                hi_in = b if b < hi else hi
                if hi_in > lo_in:
                    cont += (w * (hi_in - lo_in) / (b - a) if flat
                             else c * log((E - lo_in) / (E - hi_in)))
        if s.atoms:
            row = side is _AS_ROW
            cont += sum(a.m * (kernel(bid, a.x) if row else kernel(a.x, bid))
                        for a in s.atoms)
        return cont

    # the one-bid case of the array quadrature below
    f = ((lambda _, ys: kernel.batch(bid, ys)) if side is _AS_ROW
         else (lambda _, ys: kernel.batch(ys, bid)))
    return _integrate_against(s, f, [kernel_cutpoints(kernel, bid, side)], at=(bid,))[0]


def _expect_vs_exact_array(bids: np.ndarray, s: MixedStrategy, kernel: WeightedKernel,
                           side: Side) -> np.ndarray:
    atom_part = np.zeros_like(bids)
    for a in s.atoms:
        g = kernel.batch(bids, a.x) if side is Side.AS_ROW else kernel.batch(a.x, bids)
        atom_part = atom_part + a.m * g
    # each piece's mass inside the two win regions; endpoints carry no mass
    # and an empty region gives 0.0
    E = kernel.cfg.E
    cont = np.zeros_like(bids)
    for lo, hi in win_region_ends(bids, side, kernel.maps, kernel.cfg):
        for flat, a, b, w, c in s.piece_constants:
            lo_in = np.clip(lo, a, b)
            hi_in = np.maximum(np.minimum(hi, b), lo_in)
            cont = cont + (w * (hi_in - lo_in) / (b - a) if flat
                           else c * np.log((E - lo_in) / (E - hi_in)))
    return atom_part + cont


def _expect_vs_quadrature(bids: np.ndarray, s: MixedStrategy, kernel: WeightedKernel,
                          side: Side) -> np.ndarray:
    # the kernel at the nodes, not its win regions, so the cross-check stays
    # independent of the exact path
    if side is Side.AS_ROW:
        f = lambda k, ys: kernel.batch(bids[k], ys)
    else:
        f = lambda k, ys: kernel.batch(ys, bids[k])
    cuts = [kernel_cutpoints(kernel, bid, side) for bid in bids.tolist()]
    return np.array(_integrate_against(s, f, cuts, at=bids), dtype=np.float64)


def _outer_cutpoints(inner: MixedStrategy, kernel: WeightedKernel) -> set[float]:
    """Bid values at which the expected payoff against `inner` can kink.

    A bid's payoff kinks where one of its kernel cutpoints crosses a
    breakpoint q of `inner` (E, a piece end or an atom), that is at the
    preimages of q.  Since h1 and f2, and h2 and f1, are inverse pairs, those
    are the cutpoints of q on both seats.
    """
    qs = {kernel.cfg.E, *(a.x for a in inner.atoms)}
    for p in inner.pieces:
        qs |= {p.a, p.b}
    return {t for q in qs for side in Side for t in kernel_cutpoints(kernel, q, side)}


def _integrate_against(mu: MixedStrategy, f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                       cuts: Sequence[Iterable[float]], at: Sequence[float] | None = None
                       ) -> list[float]:
    """The floats ∫ f(k, ·) dμ for k < len(cuts); f(k, ·) is smooth between cuts[k].

    f takes integrand indices (an integer array, or the scalar 0 when there
    is one integrand) and points that broadcast against them, and returns
    values of the broadcast shape.
    It is called on the Gauss-Legendre nodes of every panel of every piece
    at both orders, for all integrands together, and once more on the
    atoms, whose mass is added exactly.  Panels that fit one block of CELLS
    nodes (a float bid's always do) are summed in one call of f; more are
    summed CELLS nodes at a time, and since a panel's sums do not depend on
    the other panels in its block, each panel gives the same floats either
    way.  Integrand k's summed gap between the orders over its panels is its
    error estimate; when any miss the tolerance, QuadratureError names the
    worst of all, as at[k] when at is given.
    """
    E = mu.cfg.E
    m = len(cuts)
    consts = mu.piece_constants
    # True or False when every piece is uniform or every one reciprocal, so
    # the density needs no per-node choice; None for a mixture of both
    flat = consts[0][0] if len({pc[0] for pc in consts}) == 1 else None
    los, his, cs, flats, ends = [], [], [], [], []
    for ck in cuts:
        for is_flat, a, b, _, c in consts:
            tops = _panels(ck, a, b, E)
            los += [a, *tops[:-1]]
            his += tops
            cs += [c] * len(tops)
            if flat is None:
                flats += [is_flat] * len(tops)
        ends.append(len(his))
    # the panels' starts, ends and density constants (and kinds) as columns
    # of one array, built from one flat list
    n = len(los)
    if flat is None:
        panel = np.array(los + his + cs + flats, dtype=np.float64).reshape(4, n, 1)
        flat = panel[3]
    else:
        panel = np.array(los + his + cs, dtype=np.float64).reshape(3, n, 1)
    del los, his, cs, flats  # lists of floats take more memory than the array
    lo, c = panel[0], panel[2]
    d = panel[1] - lo
    # each panel's integrand; a lone integrand's index is passed as a scalar,
    # which numpy broadcasts faster
    owner = 0 if m == 1 else np.repeat(np.arange(m), np.diff([0, *ends]))[:, None]
    step = CELLS // _GL_NODES.size
    if 0 < n <= step:
        high, spread = _panel_sums(f, owner, E, lo, d, c, flat)
    else:
        high, spread = np.empty(n), np.empty(n)
        for i in range(0, n, step):
            blk = slice(i, i + step)
            high[blk], spread[blk] = _panel_sums(
                f, owner if m == 1 else owner[blk], E, lo[blk], d[blk], c[blk],
                flat if isinstance(flat, bool) else flat[blk])
    if mu.atoms:
        masses = [a.m for a in mu.atoms]
        at_atoms = f(np.arange(m)[:, None], np.tile([a.x for a in mu.atoms], (m, 1)))
        atom_part = [np.dot(masses, row) for row in at_atoms]
    else:
        atom_part = [0.0] * m
    # each integrand's sums run over its own panels only, in the order they
    # would have alone, so its value does not depend on the other integrands
    totals, worst, i = [], None, 0
    for j, a in zip(ends, atom_part):
        total = float(a + np.add.reduce(high[i:j]))
        gap = float(np.add.reduce(spread[i:j]))
        bound = max(_QUAD_REL_TOL * max(abs(total), 1.0), 1e-12) * 10.0
        if gap > bound and (worst is None or gap / bound > worst[0]):
            worst = (gap / bound, len(totals), gap)
        totals.append(total)
        i = j
    if worst is not None:
        _, k, gap = worst
        where = f" at {float(at[k])!r}" if at is not None else f" in integrand {k}"
        raise QuadratureError(f"Gauss-Legendre orders disagree{where}", gap)
    return totals


def _panel_sums(f: Callable[[np.ndarray, np.ndarray], np.ndarray], owner, E: float,
                lo: np.ndarray, d: np.ndarray, c: np.ndarray, flat: bool | np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Each panel's higher-order sum and its gap to the lower-order one.

    lo, d and c are columns of panel starts, widths and density constants;
    flat is True (all uniform), False (all reciprocal) or a column saying
    which panels are uniform.
    """
    x = lo + d * _GL_HALF_NODES
    # each panel's density: c on a uniform piece, c/(E - x) on a reciprocal one
    if flat is True:
        density = c
    elif flat is False:
        density = c / (E - x)
    else:
        density = c / np.where(flat, 1.0, E - x)
    wf = d * _GL_HALF_WEIGHTS * density * f(owner, x)
    high = np.add.reduce(wf[:, _GL_LOW:], axis=1)
    return high, np.abs(high - np.add.reduce(wf[:, :_GL_LOW], axis=1))


def expect_joint(mu: MixedStrategy, nu: MixedStrategy, kernel: WeightedKernel) -> JointExpectation:
    """E[g(X, Y)] for X ~ mu, Y ~ nu, computed several independent ways.

    Forms: "outer" integrates the exact conditional expectation over mu;
    "cdf" evaluates the swapped-order closed form that queries mu-measures
    of the win regions as a function of y; "swapped" does the mirror with
    nu-measures as a function of x.  The last two bake in the symmetric
    price (both bids weighted equally), so only a symmetric kernel gets them.
    """
    require_market(kernel.cfg, mu, nu)
    cfg = kernel.cfg
    E = cfg.E

    def integral(dist: MixedStrategy, f, cuts: Iterable[float]) -> float:
        return _integrate_against(dist, lambda _, ys: f(ys), [cuts])[0]

    # the exact win regions need 0 < p < 1
    method = "exact" if 0.0 < kernel.p < 1.0 else "quadrature"
    outer = lambda xs: expect_vs(xs.ravel(), nu, kernel, method=method).reshape(xs.shape)
    by_form = {"outer": integral(mu, outer, _outer_cutpoints(nu, kernel))}

    if kernel.is_symmetric:
        # at p = 1/2, h1(t) = 3t - 2E and f1(t) = (t + 2E)/3
        maps = maps_p(0.5, cfg)
        tie = sum(kernel.tie_value * a.m * nu.atom_mass_at(a.x) for a in mu.atoms)

        # mu-measure of the row bids that beat y: (y, f1(y)] and [A, h1(y))
        # below E, [A, y) from E on.  At an atom of nu this is also its exact
        # term: at y = E the two split regions coincide, so it counts once
        def row_beats(y: np.ndarray) -> np.ndarray:
            split = mu.cdf(maps.f1(y)) - mu.cdf(y) + mu._cdf_left(maps.h1(y))
            return np.where(y < E, split, mu._cdf_left(y))

        by_form["cdf"] = integral(nu, row_beats, _outer_cutpoints(mu, kernel)) + tie

        # nu-measure of the column bids x beats: [h1(x), x) and (f1(x), B]
        # below E, (x, B] from E on
        def row_win(x: np.ndarray) -> np.ndarray:
            total = nu.cdf(cfg.B)
            split = nu._cdf_left(x) - nu._cdf_left(maps.h1(x)) + total - nu.cdf(maps.f1(x))
            return np.where(x < E, split, total - nu.cdf(x))

        by_form["swapped"] = integral(mu, row_win, _outer_cutpoints(nu, kernel)) + tie

    vals = list(by_form.values())
    return JointExpectation(value=by_form["outer"], by_form=by_form, max_gap=max(vals) - min(vals))

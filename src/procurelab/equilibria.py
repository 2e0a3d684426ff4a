"""Closed-form equilibrium strategies, the explicit game value, and payoff curves.

Everything here is analytic: the constructors return exact mixtures, the value
is a two-line log formula, and the curves are piecewise elementary functions.
Numerical integration enters only through the test suite, which checks each
closed form against quadrature.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np

from .game_core import (
    DomainError,
    MarketConfig,
    Regime,
    Side,
    low_p_m,
    maps_p,
    regime,
    sym_sequence_A,
    weighted_sequences,
)
from .strategy import MixedStrategy, Piece, PieceKind

__all__ = [
    "uniform_equilibrium",
    "log_equilibrium",
    "weighted_equilibrium",
    "critical_regime_strategy",
    "ValueReport",
    "value_weighted",
    "CurveKind",
    "ClosedFormCurve",
    "closed_form_curves",
    "FunctionalSystem",
    "functional_residual",
]


# ---------------------------------------------------------------------------
# equilibrium constructors


def uniform_equilibrium(cfg: MarketConfig) -> MixedStrategy:
    """Symmetric equilibrium from two stacked uniform blocks.

    Half the mass sits flat on [A, A_1), the other half on [A_1, A_2); the
    expected payoff against it is exactly 1/2 everywhere on [A, A_2].
    """
    a1 = sym_sequence_A(1, cfg)
    a2 = sym_sequence_A(2, cfg)
    return MixedStrategy(
        (
            Piece(PieceKind.UNIFORM, cfg.A, a1, 0.5),
            Piece(PieceKind.UNIFORM, a1, a2, 0.5),
        ),
        (),
        cfg,
    ).validate()


def log_equilibrium(cfg: MarketConfig) -> MixedStrategy:
    """Symmetric equilibrium with density 1/(ln 9 (E-x)) on [A, A_2)."""
    a2 = sym_sequence_A(2, cfg)
    return MixedStrategy(
        (Piece(PieceKind.RECIPROCAL, cfg.A, a2, 1.0),), (), cfg
    ).validate()


def _check_weight(p: float) -> None:
    if not (isinstance(p, (int, float)) and 0.0 < p <= 0.5) or math.isnan(p):
        raise DomainError(f"weight p must lie in (0, 1/2], got {p!r}")


def weighted_equilibrium(p: float, cfg: MarketConfig) -> MixedStrategy:
    """Reciprocal-density equilibrium of the weighted game.

    The support ends at the first check-D point; at p = 1/2 that point is A_2
    and this reduces to log_equilibrium.
    """
    _check_weight(p)
    a_tilde = weighted_sequences(p, 1, cfg).d_check[1]
    return MixedStrategy(
        (Piece(PieceKind.RECIPROCAL, cfg.A, a_tilde, 1.0),), (), cfg
    ).validate()


def critical_regime_strategy(cfg: MarketConfig) -> MixedStrategy:
    """Equal-thirds uniform mixture over the first three check-A cells at p*.

    An exact equalizer: the opposing expected payoff is 1/3 on the whole
    support.
    """
    from .game_core import critical_p

    seq = weighted_sequences(critical_p(), 3, cfg)
    thirds = []
    for lo, hi in zip(seq.a_check[:3], seq.a_check[1:4]):
        thirds.append(Piece(PieceKind.UNIFORM, lo, hi, 1.0 / 3.0))
    return MixedStrategy(tuple(thirds), (), cfg).validate()


# ---------------------------------------------------------------------------
# the explicit value


@dataclass(frozen=True)
class ValueReport:
    """Game value at weight p, with the regime's benchmark level.

    epsilon_p is the signed offset benchmark - v. The source analysis is
    inconsistent about its sign, so it is reported, never assumed.
    """

    p: float
    v: float
    regime: Regime
    m: Optional[int]
    benchmark: float
    epsilon_p: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "p": self.p,
                "v": self.v,
                "regime": self.regime.value,
                "m": self.m,
                "benchmark": self.benchmark,
                "epsilon_p": self.epsilon_p,
            }
        )


def value_weighted(p: float) -> ValueReport:
    """Explicit value of the weighted game for p in [0, 1/2].

    v = ln((2-p)/(1-p)) / ln((2-p)(p+1)/(p(1-p))), taken in the positive-ratio
    form. The benchmark is the level the regime analysis brackets: 1/2, 2/5,
    1/3, 1/(m+2), or 0.
    """
    reg = regime(p)
    if reg is Regime.DEGENERATE:
        return ValueReport(p=0.0, v=0.0, regime=reg, m=None, benchmark=0.0, epsilon_p=0.0)
    v = math.log((2.0 - p) / (1.0 - p)) / math.log(
        (2.0 - p) * (p + 1.0) / (p * (1.0 - p))
    )
    m: Optional[int] = None
    if reg is Regime.SYMMETRIC:
        benchmark = 0.5
    elif reg is Regime.CRITICAL:
        benchmark = 1.0 / 3.0
    elif reg is Regime.INTERMEDIATE:
        benchmark = 0.4
    else:
        m = low_p_m(p)
        benchmark = 1.0 / (m + 2)
    return ValueReport(p=p, v=v, regime=reg, m=m, benchmark=benchmark, epsilon_p=benchmark - v)


# ---------------------------------------------------------------------------
# closed-form payoff curves


class CurveKind(Enum):
    SYM_UNIFORM = "SymUniform"
    SYM_LOG = "SymLog"
    WEIGHTED_ROW = "WeightedRow"
    WEIGHTED_COLUMN = "WeightedColumn"


@dataclass(frozen=True)
class ClosedFormCurve:
    """Piecewise expected-payoff curve against an equilibrium strategy.

    breakpoints splits [A, B] into len(tags) pieces, half-open on the right
    except the last. Callable on scalars and arrays.
    """

    kind: CurveKind
    side: Side
    p: float
    cfg: MarketConfig
    breakpoints: tuple[float, ...]
    tags: tuple[str, ...]
    _fns: tuple[Callable[[np.ndarray], np.ndarray], ...] = field(repr=False, compare=False)

    def __call__(self, x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        xs = self.cfg.require_bids(x)
        idx = np.searchsorted(np.asarray(self.breakpoints), xs, side="right")
        out = np.empty_like(xs, dtype=float)
        for k, fn in enumerate(self._fns):
            mask = idx == k
            if mask.any():
                out[mask] = fn(xs[mask])
        return float(out) if np.isscalar(x) else out


def closed_form_curves(
    which: CurveKind,
    p: float,
    cfg: MarketConfig,
    side: Optional[Side] = None,
) -> ClosedFormCurve:
    """Build the curve x -> G(x, nu*) or y -> G(mu*, y) for a named equilibrium.

    The Sym kinds accept either side (default row); the Weighted kinds fix it.
    Quadrature over the actual strategy is the ground truth these formulas are
    tested against.
    """
    A, B, E = cfg.A, cfg.B, cfg.E
    span = E - A
    if which in (CurveKind.SYM_UNIFORM, CurveKind.SYM_LOG):
        if p != 0.5:
            raise DomainError(f"{which.value} curve requires p = 1/2, got {p!r}")
        side = side if side is not None else Side.AS_ROW
    elif which is CurveKind.WEIGHTED_ROW:
        if side not in (None, Side.AS_ROW):
            raise DomainError("WeightedRow is a row-side curve")
        side = Side.AS_ROW
        _check_weight(p)
    else:
        if side not in (None, Side.AS_COLUMN):
            raise DomainError("WeightedColumn is a column-side curve")
        side = Side.AS_COLUMN
        _check_weight(p)

    if which is CurveKind.SYM_UNIFORM:
        a2 = sym_sequence_A(2, cfg)
        a3 = sym_sequence_A(3, cfg)
        if side is Side.AS_ROW:
            fns = (
                lambda x: np.full_like(x, 0.5),
                lambda x: (A + 26.0 * E - 27.0 * x) / (4.0 * span),
                lambda x: np.zeros_like(x),
            )
            tags = ("flat-value", "linear-decline", "zero")
        else:
            fns = (
                lambda x: np.full_like(x, 0.5),
                lambda x: (27.0 * x - 5.0 * A - 22.0 * E) / (4.0 * span),
                lambda x: np.ones_like(x),
            )
            tags = ("flat-value", "linear-climb", "one")
        return ClosedFormCurve(which, side, p, cfg, (a2, a3), tags, fns)

    # the three log-family curves share one parametrization: the density
    # c/(E-x) of weighted_equilibrium on [A, a_tilde)
    (piece,) = weighted_equilibrium(p, cfg).pieces
    a_tilde = piece.b
    m = maps_p(p, cfg)
    c = piece.normalizer(E)
    v = c * math.log((2.0 - p) / (1.0 - p))
    if side is Side.AS_ROW:
        hi = m.f2(a_tilde)  # where the declining branch hits zero
        fns = (
            lambda x: np.full_like(x, v),
            lambda x: c * np.log((2.0 - p) * (E - x) / ((1.0 - p) * (E - a_tilde))),
            lambda x: np.zeros_like(x),
        )
        tags = ("flat-value", "log-decline", "zero")
    else:
        hi = m.f1(a_tilde)  # where the climbing branch saturates at one
        fns = (
            lambda x: np.full_like(x, v),
            lambda x: c * np.log(p * span / ((p + 1.0) * (E - x))),
            lambda x: np.ones_like(x),
        )
        tags = ("flat-value", "log-climb", "one")
    return ClosedFormCurve(which, side, p, cfg, (a_tilde, hi), tags, fns)


# ---------------------------------------------------------------------------
# functional-equation residuals


class FunctionalSystem(Enum):
    SYMMETRIC = "Symmetric"
    WEIGHTED_ROW = "WeightedRow"
    WEIGHTED_COLUMN = "WeightedColumn"


# one AffineMaps per (p, cfg), which a residual sweep holds fixed
_residual_maps = functools.lru_cache(maxsize=16)(maps_p)


def functional_residual(
    which: FunctionalSystem,
    f: MixedStrategy,
    x: float,
    p: float,
    cfg: MarketConfig,
) -> float:
    """Residual of the equalizing-density system at bid x.

    The row system differentiates the indifference condition written with the
    row player's own win-region maps: the lower branch reflects through h1 and
    switches on at the first check-A point. The column system needs no such
    correction. A density solves a system iff the residual vanishes on its
    support (off breakpoints); on [E, B] every system forces the density
    itself to zero.
    """
    if f.atoms:
        raise DomainError("functional residuals are defined for atom-free strategies")
    cfg.require_bid(x)
    if which is FunctionalSystem.SYMMETRIC and p != 0.5:
        raise DomainError("the symmetric system fixes p = 1/2")
    m = _residual_maps(p, cfg)
    if which in (FunctionalSystem.SYMMETRIC, FunctionalSystem.WEIGHTED_ROW):
        if x >= cfg.E:
            return -f.density(x)
        r = f.density(x) - (p / (p + 1.0)) * f.density(m.f1(x))
        if x >= m.f2(cfg.A):  # a_check[1]
            r -= ((2.0 - p) / (1.0 - p)) * f.density(m.h1(x))
        return r
    if x >= cfg.E:
        return f.density(x)
    r = ((1.0 - p) / (2.0 - p)) * f.density(m.f2(x)) - f.density(x)
    if x >= m.f1(cfg.A):  # a_hat[1]
        r += ((p + 1.0) / p) * f.density(m.h2(x))
    return r

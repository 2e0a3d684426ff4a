"""Pinned float paths: expect_vs on a float bid and two-player Monte Carlo counts.

Every value below is the float.hex of the result at a fixed input, so a
reassociated sum or a reordered term anywhere on these paths fails here, not
only in the max-based payloads of a scan.  The bids of each strategy are A,
E, B, its piece ends and a few interior points.
"""
import pytest

from procurelab import equilibria as eq
from procurelab import game_core as gc
from procurelab import strategy as st
from procurelab.experiments import mc_tournament
from procurelab.strategy import Atom, MixedStrategy, Piece, PieceKind

CFG = gc.default_config()


def _cases():
    return {
        "log": (eq.log_equilibrium(CFG), 0.5),
        "critical": (eq.critical_regime_strategy(CFG), gc.critical_p()),
        "weighted-0.3": (eq.weighted_equilibrium(0.3, CFG), 0.3),
        "weighted-0.1": (eq.weighted_equilibrium(0.1, CFG), 0.1),
    }


def _bids(s: MixedStrategy) -> list[float]:
    ends = {q for pc in s.pieces for q in (pc.a, pc.b)}
    return sorted({CFG.A, CFG.E, CFG.B, 0.3, 0.7, 0.95, 1.2} | ends)


_PINNED = {
    'log': {
        ('AS_ROW', 'exact'): (
            '0x1.fffffffffffffp-2', '0x1.0000000000000p-1', '0x1.0000000000002p-1',
            '0x1.0000000000001p-1', '0x1.17b9152ebd799p-3', '0x0.0p+0',
            '0x0.0p+0', '0x0.0p+0',
        ),
        ('AS_ROW', 'quadrature'): (
            '0x1.fffffffffffffp-2', '0x1.0000000000000p-1', '0x1.0000000000002p-1',
            '0x1.0000000000000p-1', '0x1.17b9152ebd79ap-3', '0x0.0p+0',
            '0x0.0p+0', '0x0.0p+0',
        ),
        ('AS_COLUMN', 'exact'): (
            '0x1.0000000000000p-1', '0x1.fffffffffffffp-2', '0x1.ffffffffffffcp-2',
            '0x1.fffffffffffffp-2', '0x1.ba11bab450a19p-1', '0x1.0000000000000p+0',
            '0x1.0000000000000p+0', '0x1.0000000000000p+0',
        ),
        ('AS_COLUMN', 'quadrature'): (
            '0x1.0000000000000p-1', '0x1.fffffffffffffp-2', '0x1.ffffffffffffcp-2',
            '0x1.ffffffffffffep-2', '0x1.ba11bab450a19p-1', '0x1.0000000000000p+0',
            '0x1.0000000000000p+0', '0x1.0000000000000p+0',
        ),
    },
    'critical': {
        ('AS_ROW', 'exact'): (
            '0x1.5555555555558p-2', '0x1.555555555555ep-2', '0x1.5555555555561p-2',
            '0x1.5555555555555p-2', '0x1.5555555555553p-2', '0x1.5555555555548p-2',
            '0x1.a97739ee647f5p-4', '0x0.0p+0', '0x0.0p+0',
            '0x0.0p+0',
        ),
        ('AS_ROW', 'quadrature'): (
            '0x1.5555555555554p-2', '0x1.555555555555ep-2', '0x1.5555555555555p-2',
            '0x1.5555555555554p-2', '0x1.5555555555552p-2', '0x1.5555555555554p-2',
            '0x1.a97739ee647f4p-4', '0x0.0p+0', '0x0.0p+0',
            '0x0.0p+0',
        ),
        ('AS_COLUMN', 'exact'): (
            '0x1.5555555555555p-2', '0x1.5555555555556p-2', '0x1.5555555555555p-2',
            '0x1.555555555554cp-2', '0x1.555555555555fp-2', '0x1.5555555555563p-2',
            '0x1.20266e1788c62p-1', '0x1.0000000000000p+0', '0x1.0000000000000p+0',
            '0x1.0000000000000p+0',
        ),
        ('AS_COLUMN', 'quadrature'): (
            '0x1.5555555555555p-2', '0x1.5555555555555p-2', '0x1.5555555555554p-2',
            '0x1.555555555554cp-2', '0x1.5555555555554p-2', '0x1.5555555555555p-2',
            '0x1.20266e1788c62p-1', '0x1.fffffffffffffp-1', '0x1.fffffffffffffp-1',
            '0x1.fffffffffffffp-1',
        ),
    },
    'weighted-0.3': {
        ('AS_ROW', 'exact'): (
            '0x1.820a26b9c8115p-2', '0x1.820a26b9c8112p-2', '0x1.820a26b9c8112p-2',
            '0x1.820a26b9c8119p-2', '0x1.aabca1b72cda5p-4', '0x0.0p+0',
            '0x0.0p+0', '0x0.0p+0',
        ),
        ('AS_ROW', 'quadrature'): (
            '0x1.820a26b9c8114p-2', '0x1.820a26b9c8112p-2', '0x1.820a26b9c8112p-2',
            '0x1.820a26b9c811ap-2', '0x1.aabca1b72cda3p-4', '0x0.0p+0',
            '0x0.0p+0', '0x0.0p+0',
        ),
        ('AS_COLUMN', 'exact'): (
            '0x1.820a26b9c8114p-2', '0x1.820a26b9c8114p-2', '0x1.820a26b9c8114p-2',
            '0x1.820a26b9c8115p-2', '0x1.4cb29282e2755p-1', '0x1.0000000000000p+0',
            '0x1.0000000000000p+0', '0x1.0000000000000p+0',
        ),
        ('AS_COLUMN', 'quadrature'): (
            '0x1.820a26b9c8112p-2', '0x1.820a26b9c8113p-2', '0x1.820a26b9c8114p-2',
            '0x1.820a26b9c8114p-2', '0x1.4cb29282e2754p-1', '0x1.ffffffffffffep-1',
            '0x1.ffffffffffffep-1', '0x1.ffffffffffffep-1',
        ),
    },
    'weighted-0.1': {
        ('AS_ROW', 'exact'): (
            '0x1.e690379cdc889p-3', '0x1.e690379cdc894p-3', '0x1.e690379cdc86dp-3',
            '0x1.e690379cdc868p-3', '0x1.e690379cdc86ep-3', '0x0.0p+0',
            '0x0.0p+0', '0x0.0p+0',
        ),
        ('AS_ROW', 'quadrature'): (
            '0x1.e690379cdc88ap-3', '0x1.e690379cdc894p-3', '0x1.e690379cdc86bp-3',
            '0x1.e690379cdc867p-3', '0x1.e690379cdc86ep-3', '0x0.0p+0',
            '0x0.0p+0', '0x0.0p+0',
        ),
        ('AS_COLUMN', 'exact'): (
            '0x1.e690379cdc86ap-3', '0x1.e690379cdc86dp-3', '0x1.e690379cdc86dp-3',
            '0x1.e690379cdc881p-3', '0x1.e690379cdc890p-3', '0x1.0000000000000p+0',
            '0x1.0000000000000p+0', '0x1.0000000000000p+0',
        ),
        ('AS_COLUMN', 'quadrature'): (
            '0x1.e690379cdc868p-3', '0x1.e690379cdc86cp-3', '0x1.e690379cdc86bp-3',
            '0x1.e690379cdc882p-3', '0x1.e690379cdc890p-3', '0x1.0000000000000p+0',
            '0x1.0000000000000p+0', '0x1.0000000000000p+0',
        ),
    },
}

_PINNED_MC = {
    'weighted-0.3': (
        ('0x1.82eb1c432ca58p-2', '0x1.3e8a71de69ad4p-1'),
        ('0x1.3dc152d1ab3a0p-9', '0x1.3dc152d1ab3a0p-9'),
    ),
    'atoms': (
        ('0x1.8c74538ef34d7p-2', '0x1.39c5d63886595p-1'),
        ('0x1.382431bdb8537p-9', '0x1.382431bdb8537p-9'),
    ),
}


@pytest.mark.parametrize("method", ["exact", "quadrature"])
@pytest.mark.parametrize("side", list(gc.Side))
@pytest.mark.parametrize("label", list(_PINNED))
def test_float_bid_values_are_pinned(label, side, method):
    s, p = _cases()[label]
    kern = gc.WeightedKernel(p, CFG)
    got = [st.expect_vs(x, s, kern, side=side, method=method).hex() for x in _bids(s)]
    assert got == list(_PINNED[label][side.name, method])


def _atom_mixture() -> MixedStrategy:
    return MixedStrategy((Piece(PieceKind.UNIFORM, 0.0, 0.4, 0.3),
                          Piece(PieceKind.RECIPROCAL, 0.5, 0.9, 0.4)),
                         (Atom(0.45, 0.1), Atom(0.95, 0.2)), CFG).validate()


@pytest.mark.parametrize("label", list(_PINNED_MC))
def test_two_player_counts_are_pinned(label):
    # 40,000 draws cross two block seams; the atoms make tied bids, so all
    # three payoff values are counted
    s = eq.weighted_equilibrium(0.3, CFG) if label == "weighted-0.3" else _atom_mixture()
    res = mc_tournament([s, s], gc.WeightedKernel(0.3, CFG), 40_000, 5)
    means, stderrs = _PINNED_MC[label]
    assert tuple(m.hex() for m in res.means) == means
    assert tuple(e.hex() for e in res.stderrs) == stderrs

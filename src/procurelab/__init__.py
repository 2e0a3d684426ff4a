"""Numerical laboratory for the average-bid procurement auction game.

A constant-sum bidding game where the award goes to the bid closest to a
reference price from below.  The package holds the exact payoff kernels, the
closed-form mixed equilibria with their verification machinery, brute-force
grid oracles, seeded experiment drivers, and a CLI front end.

Each submodule's ``__all__`` declares its public names; the package exports
all five lists.
"""

from procurelab.equilibria import *
from procurelab.experiments import *
from procurelab.game_core import *
from procurelab.oracle_solver import *
from procurelab.strategy import *
from procurelab import equilibria, experiments, game_core, oracle_solver, strategy

__all__ = [
    *equilibria.__all__,
    *experiments.__all__,
    *game_core.__all__,
    *oracle_solver.__all__,
    *strategy.__all__,
]

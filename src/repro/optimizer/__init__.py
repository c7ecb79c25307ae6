"""Schema optimization: choose column families via a BIP (paper §V, §VI-D).

The problem container gathers per-statement plan spaces; the BIP solver
(scipy's HiGHS backend, substituting for the paper's Gurobi) selects a
set of column families and one plan per statement minimising total
weighted cost, then re-solves to shrink that schema at the same cost,
optionally under a storage constraint.  A brute-force optimizer
cross-checks the encoding on small instances.
"""

from repro.optimizer.bip import BIPOptimizer
from repro.optimizer.brute import BruteForceOptimizer
from repro.optimizer.problem import OptimizationProblem
from repro.optimizer.results import SchemaRecommendation

__all__ = [
    "BIPOptimizer",
    "BruteForceOptimizer",
    "OptimizationProblem",
    "SchemaRecommendation",
]

"""Former home of the windowed program.

The windowed BIP is built by :mod:`repro.optimizer.bip`
(:func:`~repro.optimizer.bip.solve_schedule`).  This module only keeps
the ``milp`` name that ``perfbench/spans.py`` patches for its solver
census.
"""

from scipy.optimize import milp  # noqa: F401

"""Hitting-time statistics laboratory for random dynamical systems.

Two engines share one question: when a randomly driven system is asked to
hit a small target, does the suitably rescaled hitting time look like a
unit exponential?  The shift engine answers it exactly (automaton
recursions over random Bernoulli fiber measures, plus a full error
ledger); the circle engine answers it by exact-arithmetic Monte Carlo for
random compositions of expanding maps.
"""

__version__ = "0.1.0"

from .base_process import BaseProcess, BaseWindow, make_rng, sample_window
from .circle import (BallTarget, CirclePoint, CircleRDS, circle_distance,
                     quenched_law_statistic, random_orbit, required_bits)
from .errors import PrecisionBudgetError, UnsupportedConfigError
from .fiber import (DensityRatio, FiberMeasure, Pattern, binary_symmetric_model,
                    density_ratio, fiber_cylinder_measure,
                    marginal_cylinder_measure, sample_fiber_prefix)
from .ledger import (ErrorLedger, compute_ledger, entrance_sum, entropy_slopes,
                     gap_schedule, hits_sum, verify_recursion_bound,
                     verify_sandwich)
from .stats import TrendReport, dkw_band, ks_to_exponential, trend_report
from .survival import (PatternAutomaton, RescaledCurve, SurvivalCurve,
                       build_automaton, conditional_return_survival,
                       quenched_survival, rescaled_survival)

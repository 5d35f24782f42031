"""Calibration algorithms.

Every algorithm speaks the batched ask/tell protocol of
:class:`~repro.core.algorithms.base.CalibrationAlgorithm` (``setup`` /
``ask`` / ``tell`` / ``done``); the paper's blocking loop survives as the serial
:class:`~repro.core.calibrator.Calibrator`, so seeded trajectories match
the original implementations byte for byte while the same algorithms can
be driven in parallel by :class:`~repro.core.parallel.BatchCalibrator`.

The three algorithms evaluated in the paper (Section III.B):

* :class:`GridSearch` (``"grid"``) — progressively refined grid;
* :class:`RandomSearch` (``"random"``) — uniform sampling in the (log2)
  parameter representation;
* :class:`GradientDescent` (``"gdfix"`` / ``"gddyn"``) — numerical gradient
  descent with backtracking line search and random restarts, with a fixed
  or dynamically updated finite-difference step.

Plus the extensions the paper mentions as alternatives / future work:

* :class:`LatinHypercubeSearch` (``"lhs"``) and :class:`SobolSearch`
  (``"sobol"``) — space-filling sampling;
* :class:`CoordinateDescent` (``"coordinate"``) and :class:`PatternSearch`
  (``"pattern"``) — derivative-free local searches with restarts;
* :class:`NelderMead` (``"nelder-mead"``) — downhill simplex;
* :class:`SimulatedAnnealing` (``"annealing"``);
* :class:`DifferentialEvolution` (``"de"``) and :class:`CMAES`
  (``"cmaes"``) — population-based global optimizers;
* :class:`TPESearch` (``"tpe"``) and :class:`BayesianOptimization`
  (``"bayesian"``) — sequential model-based optimizers (the paper's
  conclusion singles out Bayesian optimization as the natural next step).
"""

from repro.core.algorithms.base import ALGORITHMS, CalibrationAlgorithm, get_algorithm, register
from repro.core.algorithms.annealing import SimulatedAnnealing
from repro.core.algorithms.bayesian import BayesianOptimization
from repro.core.algorithms.cmaes import CMAES
from repro.core.algorithms.coordinate import CoordinateDescent
from repro.core.algorithms.differential_evolution import DifferentialEvolution
from repro.core.algorithms.gradient import GradientDescent
from repro.core.algorithms.grid import GridSearch
from repro.core.algorithms.latin_hypercube import LatinHypercubeSearch
from repro.core.algorithms.nelder_mead import NelderMead
from repro.core.algorithms.pattern_search import PatternSearch
from repro.core.algorithms.random_search import RandomSearch
from repro.core.algorithms.sobol import SobolSearch
from repro.core.algorithms.tpe import TPESearch

__all__ = [
    "ALGORITHMS",
    "BayesianOptimization",
    "CMAES",
    "CalibrationAlgorithm",
    "CoordinateDescent",
    "DifferentialEvolution",
    "GradientDescent",
    "GridSearch",
    "LatinHypercubeSearch",
    "NelderMead",
    "PatternSearch",
    "RandomSearch",
    "SimulatedAnnealing",
    "SobolSearch",
    "TPESearch",
    "get_algorithm",
    "register",
]

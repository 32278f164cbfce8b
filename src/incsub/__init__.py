"""Incremental stochastic subgradient methods over agent networks.

Two methods minimize a sum of per-agent convex functions over a closed
convex set using noisy subgradient oracles.  Both run the same projected
step in one loop, :func:`run_batch`, and differ only in their order: the
ring order passes the iterate through all agents in fixed sequence each
cycle, and the randomized order lets the updating agent evolve as a
Markov chain over a (possibly time-varying) neighbor structure.  The
analysis module provides the matching geometric mixing constants and
closed-form constant-step error bounds, and the harness verifies those
bounds against seeded simulations.
"""

from .version import __version__

from .errors import (CertificateError, ConfigError, DimensionMismatchError,
                     IncsubError, NonFiniteError, SchemeViolationError,
                     TopologyError)
from .sets import Ball, Box, Simplex
from .schedules import Constant, PowerLaw
from .noise import (BiasedGaussianNoise, BoundedUniformNoise, GaussianNoise,
                    NoNoise)
from .objectives import (LinearUtility, LogUtility, QuadraticFamily,
                         RegressionFamily, SqrtUtility, UtilityFamily)
from .problems import (OptimumCertificate, ProblemInstance, grid_search,
                       make_allocation, make_quadratic_suite, make_regression)
from .engine import run_batch
from .cyclic import RingOrder
from .markov import (ChainOrder, EqualProbability, MinEqualNeighbor,
                     PeriodicTopology, RandomEdgeTopology, StaticTopology,
                     WeightedMetropolisHastings, adjacency_from_edges,
                     build_transition, complete_edges, path_edges, ring_edges,
                     topology_eta, validate_transition)
from .analysis import (BoundReport, BoundVerdict, OptimalWindow, RateConstants,
                       aggregate_verdicts, cyclic_bound, delta_window,
                       markov_bound, max_uniform_deviation, optimal_window,
                       phi_product, rate_constants, simple_delta_bound,
                       verify_bound_empirically)
from .trace import RunTrace, record_indices
from .config import ExperimentConfig, canonical_config_text, parse_config_text
from .harness import Run, build_run, compare_bounds, run_experiment

__all__ = [name for name in dir() if not name.startswith("_")]

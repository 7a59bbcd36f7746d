"""Resilient distributed convex optimization over switching digraphs.

A deterministic simulator and verification library for heterogeneous linear
agents that cooperatively minimize a sum of private convex costs while their
communication topology jumps among digraphs (continuous-time Markov chain)
and denial-of-service attacks periodically sever every channel.
"""

from .attack import (AttackBudget, AttackMetrics, AttackSchedule,
                     activity_series, attack_metrics, check_duration_condition,
                     check_frequency_condition)
from .controller import AlgorithmParams, TriggerParams, eta_flow
from .cost import CostSpec, centralized_optimum
from .errors import (AssumptionViolatedError, DivergenceError,
                     InvariantViolatedError, RegulationError, ResoptError,
                     UnboundedObjectiveError, ValidationError)
from .graph import (GraphProcess, SwitchingPath, WeightedDigraph, laplacian,
                    minimum_cut, mirror_union_laplacian,
                    sample_switching_path, stationary_weighting, union_graph)
from .plant import (AgentModel, check_rank_condition, is_hurwitz,
                    solve_regulation)
from .sim import (ConvergenceReport, InitialCondition, Scenario, Trajectory,
                  convergence_report, final_spread, run)

__version__ = "0.1.0"

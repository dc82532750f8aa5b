"""Optimal secondary channel-access policies for spectrum sharing with a
retransmitting primary user, with interference cancellation at the
secondary receiver."""

from .channel import (PU_IDLE_THROUGHPUT, SU_CLEAN_THROUGHPUT,
                      SU_INTERFERED_THROUGHPUT, LinkStats, RegionClassifier,
                      SystemParams, link_stats, optimize_rate, outage_pp)
from .experiments import (DEADLINE, EXPLICIT, FIC_BIC, FIC_ONLY, GPS_RATIO,
                          GSP_RATIO, NO_IC, PM_KNOWN, RSU_EQ_RSK, RSU_RATIO,
                          RSU_STAR, SCHEMES, TS_VS_TP, derive_rates,
                          evaluate_scheme, sweep)
from .mdp import (PHI_K, PHI_U, CycleValues, NetState, Policy, PolicyMetrics,
                  cycle_values, enumerate_states, long_term_metrics,
                  policy_from_json_obj, policy_to_json_obj,
                  stationary_distribution, transition_table)
from .optimizer import (PolicyPath, access_rate_budget, efficiency_report,
                        greedy_policy_path, optimal_policy)
from .oracle import FrontierPoint, enumerate_frontier, oracle_optimum
from .simulator import (SimConfig, SimResult, empirical_transition_check,
                        run)

__version__ = "0.1.0"

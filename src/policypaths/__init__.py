"""Value-preserving policy interpolation paths, reward poisoning games,
and the gradient-domination/connectivity counterexample pair."""

from .attack import (AttackResult, AttackSpec, RewardRegion, attack,
                     det_occupancies, maxmin_value, minimax_gap, minmax_value,
                     nn_minimax_gap, region_from_anchor)
from .errors import PolicyPathsError
from .landscape import (ScalarField2D, census, eval_f, eval_g, field_f,
                        field_g, find_stationary_points, grad_f, grad_g,
                        superlevel_components)
from .mdp import (ErgodicityCertificate, Mdp, StationaryDistribution,
                  average_reward, check_ergodicity, check_one_policy,
                  check_policy, deterministic_policy, discounted_to_average, occupancy,
                  policy_from_occupancy, random_ergodic_mdp,
                  stationary_distribution, transition_matrix)
from .netpaths import (PathSegment, SegmentedPath, assemble_nn_path,
                       canonical_layers, first_layer_swap, fullrank_tall_path,
                       h_map, preimage_chain_path, rank_restore_first_layer,
                       realize_policy, weight_fullrank_repair)
from .network import (AssumptionReport, NetArchitecture, Theta,
                      check_assumptions, forward, one_hot_features,
                      random_theta, sigma, sigma_inv, softmax_inv_rows,
                      softmax_rows, value_of_theta)
from .tabular import (PathTrace, interpolate_policies,
                      select_preferred_on_path, uniform_grid,
                      verify_equiconnectedness)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Value-preserving interpolation paths between tabular policies.

The path between two policies is the occupancy-space straight line pulled
back to policy space: blend the two occupancy measures and renormalize
per state.  Along this path the stationary distribution and the occupancy
measure are both exactly linear in the blend weight, so the average
reward never drops below the worse endpoint, for every reward table at
once.
"""

import io
from dataclasses import dataclass

import numpy as np

from .errors import BoundViolated
from .mdp import (check_policy, occupancy, policy_from_occupancy,
                  stationary_distribution, transition_matrix)

VALUE_BOUND_TOL = 1e-9
DEFAULT_GRID_SIZE = 101


@dataclass
class PathTrace:
    """A sampled continuous path certifying a connectivity claim.

    ``alphas`` is sorted, deduplicated, and includes 0 and 1.  Convention:
    alpha = 1 maps to the first supplied endpoint, alpha = 0 to the second.
    """

    alphas: np.ndarray
    points: list                    # one policy table per alpha
    values: np.ndarray              # (n_alphas, n_rewards)
    residuals: dict                 # name -> array of length n_alphas

    def to_csv(self):
        """CSV with one row per alpha: alpha, per-reward values, residuals."""
        buf = io.StringIO()
        reward_cols = [f"J_r{i}" for i in range(self.values.shape[1])]
        residual_cols = sorted(self.residuals)
        buf.write(",".join(["alpha"] + reward_cols + residual_cols) + "\n")
        for i, alpha in enumerate(self.alphas):
            row = [repr(float(alpha))]
            row += [repr(float(v)) for v in self.values[i]]
            row += [repr(float(self.residuals[c][i])) for c in residual_cols]
            buf.write(",".join(row) + "\n")
        return buf.getvalue()

    def max_residual(self, name):
        return float(np.max(self.residuals[name]))


def uniform_grid(n=DEFAULT_GRID_SIZE):
    return np.linspace(0.0, 1.0, n)


def interpolate_policies(mdp, pi1, pi2, alpha, mu1=None, mu2=None):
    """Policy at position ``alpha`` on the path; alpha=1 gives pi1, alpha=0 pi2."""
    pi1 = check_policy(pi1, mdp.n_states, mdp.n_actions)
    pi2 = check_policy(pi2, mdp.n_states, mdp.n_actions)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if alpha == 1.0:
        return pi1.copy()
    if alpha == 0.0:
        return pi2.copy()
    if mu1 is None:
        mu1 = stationary_distribution(transition_matrix(mdp, pi1)).mu
    if mu2 is None:
        mu2 = stationary_distribution(transition_matrix(mdp, pi2)).mu
    blend = alpha * mu1[:, None] * pi1 + (1.0 - alpha) * mu2[:, None] * pi2
    return policy_from_occupancy(blend)


def _endpoint_stationaries(mdp, pi1, pi2):
    mu1 = stationary_distribution(transition_matrix(mdp, pi1)).mu
    mu2 = stationary_distribution(transition_matrix(mdp, pi2)).mu
    return mu1, mu2


def _evaluate(mdp, pi1, pi2, mu1, mu2, alphas, rewards):
    """Policy, reward values and both linearity residuals at each alpha."""
    mu_hat1 = mu1[:, None] * pi1
    mu_hat2 = mu2[:, None] * pi2
    points, values, stat_res, occ_res = [], [], [], []
    for alpha in alphas:
        pi_a = interpolate_policies(mdp, pi1, pi2, alpha, mu1=mu1, mu2=mu2)
        mu_hat_a = occupancy(mdp, pi_a)
        mu_a = mu_hat_a.sum(axis=1)
        points.append(pi_a)
        values.append([float(np.sum(r * mu_hat_a)) for r in rewards])
        stat_res.append(np.max(np.abs(mu_a - (alpha * mu1 + (1 - alpha) * mu2))))
        occ_res.append(np.max(np.abs(
            mu_hat_a - (alpha * mu_hat1 + (1 - alpha) * mu_hat2))))
    return points, np.asarray(values), np.asarray(stat_res), np.asarray(occ_res)


def verify_equiconnectedness(mdp, pi1, pi2, rewards, grid=None,
                             tol=VALUE_BOUND_TOL):
    """Certify the shared path against every reward in ``rewards``.

    The snapshot sequence depends only on the endpoints and the grid, never
    on the rewards.  Raises BoundViolated if some value curve drops below
    the min of its endpoint values beyond ``tol`` (an implementation bug:
    the construction guarantees the bound).
    """
    if grid is None:
        grid = uniform_grid()
    grid = np.unique(np.concatenate([[0.0, 1.0], np.asarray(grid, dtype=float)]))
    pi1 = check_policy(pi1, mdp.n_states, mdp.n_actions)
    pi2 = check_policy(pi2, mdp.n_states, mdp.n_actions)
    rewards = [np.asarray(r, dtype=float) for r in rewards]
    mu1, mu2 = _endpoint_stationaries(mdp, pi1, pi2)
    points, values, stat_res, occ_res = _evaluate(mdp, pi1, pi2, mu1, mu2,
                                                  grid, rewards)

    floors = values[np.isclose(grid, 1.0)][0], values[np.isclose(grid, 0.0)][0]
    floor = np.minimum(*floors) if rewards else np.zeros(0)
    for j in range(len(rewards)):
        worst = int(np.argmin(values[:, j]))
        if values[worst, j] < floor[j] - tol:
            raise BoundViolated(
                f"J_r{j}(pi_alpha) = {values[worst, j]:.12g} at alpha = "
                f"{grid[worst]:.6g} undercuts the endpoint floor {floor[j]:.12g}",
                alpha=float(grid[worst]), reward_index=j)
    return PathTrace(alphas=grid, points=points, values=values,
                     residuals={"stationary_linearity": stat_res,
                                "occupancy_linearity": occ_res})


def select_preferred_on_path(mdp, pi1, pi2, preference, level, grid=None):
    """Pick the preference-maximizing policy on the path, certified >= level.

    ``preference`` is a scalar functional over policy tables; ``level`` is
    the value floor both endpoints are assumed to attain under the MDP's
    reward table.
    """
    trace = verify_equiconnectedness(mdp, pi1, pi2, [mdp.reward], grid=grid)
    for j, value in enumerate(trace.values[:, 0]):
        if value < level - VALUE_BOUND_TOL:
            raise BoundViolated(
                f"path value {value:.12g} at alpha = {trace.alphas[j]:.6g} "
                f"undercuts the requested level {level:.12g}",
                alpha=float(trace.alphas[j]), reward_index=0)
    scores = [preference(p) for p in trace.points]
    best = int(np.argmax(scores))
    return float(trace.alphas[best]), trace.points[best]

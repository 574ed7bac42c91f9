"""Reward poisoning against average-reward planners, and its audit.

The attacker replaces the reward table by the closest one (Euclidean)
under which a chosen deterministic target policy beats every other
deterministic policy by at least a margin.  The defender, seeing only
the poisoned table, considers the set of rewards whose projection would
land there (anchor minus the cone of active constraint gradients,
intersected with the reward box) and plays the game
max over occupancies, min over that set, of the average reward.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (AnchorInvalid, CrossCheckMismatch, Infeasible,
                     NonConvergence)
from .mdp import (_deterministic_chains, check_one_policy, occupancy,
                  stationary_distribution)
from .numerics import (LpProblem, extragradient_saddle, lp_solve, nnls,
                       project_polyhedron)

MARGIN_ACTIVITY_TOL = 1e-7
KKT_TOL = 1e-6
MEMBERSHIP_TOL = 1e-7
CROSS_CHECK_TOL = 1e-5
EG_ITERS = 60000
REALIZE_FLOOR = 1e-9


def _as_assignment(mdp, target):
    """Accept an action assignment or a deterministic policy table."""
    target = np.asarray(target)
    if target.ndim == 1:
        assignment = target.astype(int)
        if assignment.shape != (mdp.n_states,) or assignment.min() < 0 \
                or assignment.max() >= mdp.n_actions:
            raise ValueError("target assignment must pick one action per state")
        return assignment
    pi = check_one_policy(target, mdp.n_states, mdp.n_actions)
    if not np.all(np.isin(pi, (0.0, 1.0))):
        raise ValueError("target policy must be deterministic")
    return np.argmax(pi, axis=1)


def det_occupancies(mdp):
    """Flattened occupancy measures of all deterministic policies, in
    lexicographic assignment order.

    The chains are solved in stacks by ``stationary_distribution``, each
    with the bits and checks of its own call; the first policy that fails
    raises what ``stationary_distribution`` raises on that policy's chain.
    """
    S, A = mdp.n_states, mdp.n_actions
    blocks = []
    for assignments, P in _deterministic_chains(mdp):
        try:
            mu = stationary_distribution(P).mu
        except NonConvergence as exc:  # the failing chain's own message
            stationary_distribution(P[exc.chain])
            raise
        occ = np.zeros((len(mu), S * A))
        occ[np.arange(len(mu))[:, None], np.arange(S) * A + assignments] = mu
        blocks.append(occ)
    return np.concatenate(blocks)


@dataclass
class AttackSpec:
    """Target assignment (one action per state) plus the required margin."""

    target: np.ndarray
    margin: float

    def __post_init__(self):
        self.target = np.asarray(self.target, dtype=int)
        if self.margin <= 0:
            raise ValueError("margin must be positive")


@dataclass
class AttackResult:
    poisoned: np.ndarray            # (S, A) reward table
    cost: float                     # Euclidean distance moved
    margins: np.ndarray             # per competing deterministic policy
    multipliers: np.ndarray
    active: np.ndarray              # indices of active constraints
    kkt_residual: float


def _constraint_rows(mdp, assignment):
    """Gradient rows (target occupancy minus competitor occupancy) and the
    index of the target among the lexicographic deterministic policies."""
    occ = det_occupancies(mdp)
    target_index = int(np.ravel_multi_index(tuple(assignment),
                                            (mdp.n_actions,) * mdp.n_states))
    rows = occ[np.arange(len(occ)) != target_index] * (-1.0) \
        + occ[target_index][None, :]
    if np.max(np.abs(rows), axis=1).min() < 1e-12:
        raise Infeasible("some competing policy has the same occupancy as the "
                         "target; no reward separates them")
    return rows, target_index


def attack(mdp, spec):
    """Minimal-norm poisoned reward making the target policy beat every
    other deterministic policy by at least the margin.

    The poisoned table is the Euclidean projection of the true reward
    onto the margin polyhedron; the result carries a verified KKT
    residual.  The reward box is deliberately not imposed here, so the
    poisoned table can leave [0, U_r].
    """
    assignment = _as_assignment(mdp, spec.target)
    A, _ = _constraint_rows(mdp, assignment)
    b = np.full(A.shape[0], spec.margin)
    r = mdp.reward.ravel()
    x, lam = project_polyhedron(r, A, b)
    margins = A @ x
    stationarity = np.linalg.norm(x - r - A.T @ lam, ord=np.inf)
    feasibility = max(0.0, float(np.max(b - margins)))
    complementarity = float(np.max(np.abs(lam * (margins - b)))) if lam.size else 0.0
    kkt = max(stationarity, feasibility, complementarity)
    if kkt > KKT_TOL:
        raise Infeasible(f"projection KKT residual {kkt:.3e} exceeds {KKT_TOL}")
    active = np.nonzero(margins - b <= MARGIN_ACTIVITY_TOL)[0]
    return AttackResult(poisoned=x.reshape(mdp.reward.shape),
                        cost=float(np.linalg.norm(x - r)),
                        margins=margins, multipliers=lam, active=active,
                        kkt_residual=float(kkt))


@dataclass
class RewardRegion:
    """Rewards consistent with a poisoned table: the anchor minus the cone
    of its active constraint gradients, inside the reward box."""

    anchor: np.ndarray              # flattened poisoned reward
    generators: np.ndarray          # (n, k): one column per active gradient
    bound: float

    def __post_init__(self):
        self.anchor = np.asarray(self.anchor, dtype=float).ravel()
        self.generators = np.asarray(self.generators, dtype=float)
        if self.generators.ndim != 2 \
                or self.generators.shape[0] != self.anchor.size:
            raise ValueError("generators must be one column per cone direction")

    def contains(self, r, tol=MEMBERSHIP_TOL):
        r = np.asarray(r, dtype=float).ravel()
        if np.any(r < -tol) or np.any(r > self.bound + tol):
            return False
        _, rnorm = nnls(self.generators, self.anchor - r)
        return rnorm <= tol

    def project_cone_translate(self, z):
        """Projection onto {anchor - G lam : lam >= 0} (box ignored)."""
        z = np.asarray(z, dtype=float).ravel()
        lam, _ = nnls(self.generators, self.anchor - z)
        return self.anchor - self.generators @ lam

    def project(self, z, max_iter=5000):
        """Projection onto the full region via alternating projections."""
        from .numerics import dykstra
        return dykstra(np.asarray(z, dtype=float).ravel(),
                       [self.project_cone_translate,
                        lambda v: np.clip(v, 0.0, self.bound)],
                       max_iter=max_iter)


def region_from_anchor(mdp, spec, anchor):
    """Build the defender's region from a purported poisoned table.

    The anchor is validated by re-projection: projecting it onto the
    margin polyhedron must return it unchanged (it must be feasible and
    lie where the attack's projection could have produced it).
    """
    assignment = _as_assignment(mdp, spec.target)
    A, _ = _constraint_rows(mdp, assignment)
    b = np.full(A.shape[0], spec.margin)
    anchor = np.asarray(anchor, dtype=float).ravel()
    reproj, _ = project_polyhedron(anchor, A, b)
    if np.linalg.norm(reproj - anchor, ord=np.inf) > KKT_TOL:
        raise AnchorInvalid(
            f"anchor moves by {np.linalg.norm(reproj - anchor):.3e} under "
            "re-projection; it does not satisfy the margin constraints")
    margins = A @ anchor
    active = np.nonzero(margins - b <= MARGIN_ACTIVITY_TOL)[0]
    return RewardRegion(anchor=anchor, generators=A[active].T,
                        bound=mdp.reward_bound)


def _occupancy_constraints(mdp):
    """Equality system (flow balance stacked with normalization) defining
    the occupancy polytope over flattened state-action variables."""
    S, A = mdp.n_states, mdp.n_actions
    n = S * A
    E = np.zeros((S, n))
    for s in range(S):
        E[s, s * A:(s + 1) * A] = 1.0
    B = mdp.kernel.reshape(n, S).T           # B[s', (s, a)] = P(s'|s, a)
    A_eq = np.vstack([E - B, np.ones((1, n))])
    b_eq = np.concatenate([np.zeros(S), [1.0]])
    return A_eq, b_eq


def inner_min_over_region(mdp, region, mu_hat_flat):
    """min over rewards in the region of the average reward of mu_hat."""
    n = region.anchor.size
    k = region.generators.shape[1]
    # Variables (r, lam): minimize mu_hat @ r subject to r + G lam = anchor.
    c = np.concatenate([mu_hat_flat, np.zeros(k)])
    A_eq = np.hstack([np.eye(n), region.generators])
    bounds = [(0.0, region.bound)] * n + [(0.0, None)] * k
    sol = lp_solve(LpProblem(c=c, A_eq=A_eq, b_eq=region.anchor, bounds=bounds))
    return sol.optimum, sol.x[:n]


def maxmin_value(mdp, region, cross_check):
    """Best worst-case average reward over the defender's region.

    Solved as one LP by dualizing the inner minimization; optionally
    cross-checked by an extragradient run on the bilinear saddle with
    independent projection oracles.  Returns (value, mu_hat, worst_reward).
    """
    n = region.anchor.size
    k = region.generators.shape[1]
    A_eq_occ, b_eq_occ = _occupancy_constraints(mdp)
    m_occ = A_eq_occ.shape[0]
    # Variables: (mu_hat, y, p, q), all length n.  Maximize
    # y @ anchor - bound * sum(q) subject to mu_hat in the occupancy
    # polytope, y + p - q = mu_hat, G^T y <= 0, p >= 0, q >= 0.
    c = np.concatenate([np.zeros(n), -region.anchor, np.zeros(n),
                        np.full(n, region.bound)])
    A_eq = np.zeros((m_occ + n, 4 * n))
    A_eq[:m_occ, :n] = A_eq_occ
    A_eq[m_occ:, :n] = -np.eye(n)
    A_eq[m_occ:, n:2 * n] = np.eye(n)
    A_eq[m_occ:, 2 * n:3 * n] = np.eye(n)
    A_eq[m_occ:, 3 * n:] = -np.eye(n)
    b_eq = np.concatenate([b_eq_occ, np.zeros(n)])
    A_ub = np.zeros((k, 4 * n))
    A_ub[:, n:2 * n] = region.generators.T
    b_ub = np.zeros(k)
    bounds = [(0.0, None)] * n + [(None, None)] * n + [(0.0, None)] * (2 * n)
    sol = lp_solve(LpProblem(c=c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                             bounds=bounds))
    value = -sol.optimum
    mu_hat = sol.x[:n]
    _, worst_reward = inner_min_over_region(mdp, region, mu_hat)

    if cross_check:
        eg_value = _maxmin_extragradient(mdp, region)
        if abs(eg_value - value) > CROSS_CHECK_TOL:
            raise CrossCheckMismatch(
                f"extragradient value {eg_value:.8f} vs LP value {value:.8f}")
    return value, mu_hat, worst_reward


def _maxmin_extragradient(mdp, region):
    """Independent route to the maxmin value: extragradient on the saddle
    with projection oracles for both feasible sets.

    The value reported is the exact inner minimum at the final occupancy
    iterate, so it underestimates the true maxmin by at most the achieved
    duality gap.
    """
    from .numerics import dykstra

    A_eq_occ, b_eq_occ = _occupancy_constraints(mdp)
    n = region.anchor.size
    occ = det_occupancies(mdp)
    # Cache the affine projector for the flow/normalization equalities.
    pinv_eq = np.linalg.pinv(A_eq_occ)

    def project_occ(z):
        return dykstra(z, [lambda v: v - pinv_eq @ (A_eq_occ @ v - b_eq_occ),
                           lambda v: np.maximum(v, 0.0)],
                       max_iter=500)

    def project_region(z):
        return region.project(z, max_iter=500)

    def gap(x, y):
        best_response = float(np.max(occ @ project_region(y)))
        inner, _ = inner_min_over_region(mdp, region,
                                         np.maximum(project_occ(x), 0.0))
        return best_response - inner

    result = extragradient_saddle(
        np.eye(n), project_occ, project_region,
        x0=np.full(n, 1.0 / n), y0=region.anchor.copy(),
        iters=EG_ITERS, gap_oracle=gap, gap_tol=2e-6, check_every=500)
    inner, _ = inner_min_over_region(mdp, region,
                                     np.maximum(result.x, 0.0))
    return inner


def minmax_value(mdp, region):
    """Worst reward in the region against a best-responding planner.

    One LP: minimize t over rewards in the region subject to t at least
    the value of every deterministic policy.  Returns (value, reward).
    """
    occ = det_occupancies(mdp)
    n = region.anchor.size
    k = region.generators.shape[1]
    m = occ.shape[0]
    # Variables (t, r, lam).
    c = np.concatenate([[1.0], np.zeros(n + k)])
    A_ub = np.hstack([-np.ones((m, 1)), occ, np.zeros((m, k))])
    b_ub = np.zeros(m)
    A_eq = np.hstack([np.zeros((n, 1)), np.eye(n), region.generators])
    b_eq = region.anchor
    bounds = [(None, None)] + [(0.0, region.bound)] * n + [(0.0, None)] * k
    sol = lp_solve(LpProblem(c=c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                             bounds=bounds))
    return sol.optimum, sol.x[1:1 + n]


def minimax_gap(mdp, region, cross_check=True):
    """minmax minus maxmin; zero (to LP accuracy) by the minimax theorem."""
    lo, mu_hat, worst = maxmin_value(mdp, region, cross_check=cross_check)
    hi, reward = minmax_value(mdp, region)
    return {"maxmin": lo, "minmax": hi, "gap": hi - lo,
            "mu_hat": mu_hat, "worst_reward": worst, "minmax_reward": reward}


def nn_minimax_gap(mdp, arch, X, region, seed=0):
    """Value loss from restricting the max player to softmax networks.

    Realizes the maxmin-optimal policy (floored at REALIZE_FLOOR so the
    softmax can express it) and replays the inner minimization.  The
    maxmin LP runs without the extragradient cross-check.
    """
    from .mdp import policy_from_occupancy
    from .netpaths import canonical_layers, realize_policy
    from .network import forward

    value, mu_hat, _ = maxmin_value(mdp, region, cross_check=False)
    pi_star = policy_from_occupancy(np.maximum(mu_hat, 0.0).reshape(mdp.reward.shape))
    blend = 2.0 * REALIZE_FLOOR * mdp.n_actions
    pi_star = (1.0 - blend) * pi_star + blend / mdp.n_actions
    theta = realize_policy(arch, X, canonical_layers(arch, seed), pi_star,
                           floor=REALIZE_FLOOR)
    pi_net = forward(arch, theta, X)
    net_value, _ = inner_min_over_region(mdp, region,
                                         occupancy(mdp, pi_net).ravel())
    return {"maxmin": value, "network_value": net_value,
            "gap": abs(value - net_value), "theta": theta}


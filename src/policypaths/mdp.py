"""Finite average-reward MDPs and the exact quantities built on them.

Conventions: the transition kernel is indexed ``kernel[s, a, s']``; the
induced state transition matrix is column-stochastic with entry ``(s', s)``
so that the stationary distribution satisfies ``mu = P @ mu``.  Every
stationary distribution, and so every occupancy measure and average reward,
comes from one exact GTH elimination per chain, which also decides
ergodicity from the chain's graph.  ``check_ergodicity`` takes its verdict
for every deterministic policy from that same elimination.
"""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, NonConvergence, ZeroStateMass

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-12
ENUMERATION_CAP = 10 ** 5
DEFAULT_REWARD_BOUND = 1.0


@dataclass(frozen=True)
class Mdp:
    """A finite MDP (S, A, P, r) with bounded nonnegative rewards."""

    kernel: np.ndarray        # (S, A, S), each kernel[s, a] a distribution
    reward: np.ndarray        # (S, A), entries in [0, reward_bound]
    reward_bound: float = DEFAULT_REWARD_BOUND

    def __post_init__(self):
        kernel = np.asarray(self.kernel, dtype=float)
        reward = np.asarray(self.reward, dtype=float)
        if kernel.ndim != 3 or kernel.shape[0] != kernel.shape[2]:
            raise ValueError(f"kernel must have shape (S, A, S), got {kernel.shape}")
        if reward.shape != kernel.shape[:2]:
            raise ValueError(f"reward shape {reward.shape} does not match kernel {kernel.shape[:2]}")
        if np.any(kernel < 0):
            raise ValueError("kernel entries must be nonnegative")
        row_sums = kernel.sum(axis=2)
        if np.max(np.abs(row_sums - 1.0)) > ROW_SUM_TOL:
            raise ValueError("kernel rows must sum to 1 within 1e-12")
        if self.reward_bound <= 0:
            raise ValueError("reward_bound must be positive")
        if np.any(reward < 0) or np.any(reward > self.reward_bound):
            raise ValueError("reward entries must lie in [0, reward_bound]")
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "reward", reward)

    @property
    def n_states(self):
        return self.kernel.shape[0]

    @property
    def n_actions(self):
        return self.kernel.shape[1]

    def to_dict(self):
        return {
            "n_states": int(self.n_states),
            "n_actions": int(self.n_actions),
            "kernel": self.kernel.tolist(),
            "reward": self.reward.tolist(),
            "reward_bound": float(self.reward_bound),
        }

    def to_json(self):
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data):
        kernel = np.asarray(data["kernel"], dtype=float)
        reward = np.asarray(data["reward"], dtype=float)
        mdp = cls(kernel=kernel, reward=reward, reward_bound=float(data["reward_bound"]))
        if mdp.n_states != data["n_states"] or mdp.n_actions != data["n_actions"]:
            raise ValueError("declared sizes disagree with the kernel shape")
        return mdp

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class StationaryDistribution:
    """Stationary distribution of an ergodic chain, with achieved residual."""

    mu: np.ndarray
    residual: float
    iterations: int           # always 1: the solve is one direct elimination


@dataclass
class ErgodicityCertificate:
    """Result of checking ergodicity over all deterministic policies."""

    ergodic: bool
    witness: tuple | None = None       # action assignment of a failing policy
    reason: str | None = None
    checked_policies: int = 0


def check_policy(pi, n_states, n_actions):
    """Validate a policy table pi[s, a] and return it as a float array."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (n_states, n_actions):
        raise ValueError(f"policy shape {pi.shape} != ({n_states}, {n_actions})")
    if np.any(pi < 0):
        raise ValueError("policy entries must be nonnegative")
    if np.max(np.abs(pi.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
        raise ValueError("policy rows must sum to 1 within 1e-12")
    return pi


def transition_matrix(mdp, pi):
    """Column-stochastic state transition matrix P[s', s] under policy pi."""
    pi = check_policy(pi, mdp.n_states, mdp.n_actions)
    return np.einsum("sap,sa->ps", mdp.kernel, pi)


def stationary_distribution(P):
    """Stationary distribution of a column-stochastic matrix by GTH elimination.

    One exact, subtraction-free elimination (``_gth``), so ``iterations``
    is always 1.  Raises NonConvergence when the chain is not ergodic,
    judged from its graph (reducible or periodic), and when the balance
    residual exceeds STATIONARY_TOL.
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    if P.shape != (n, n):
        raise ValueError("P must be square")
    if not (P.min() >= 0.0 and np.abs(P.sum(axis=0) - 1.0).max() <= 1e-10):
        raise ValueError("P must be column-stochastic")
    mu = _gth(P)
    if isinstance(mu, tuple):
        raise NonConvergence("%s chain: %s" % mu)
    mu /= mu.sum()
    residual = float(np.abs(P @ mu - mu).max())
    if not residual <= STATIONARY_TOL:
        raise NonConvergence(f"balance residual {residual:.3e} exceeds "
                             f"tol={STATIONARY_TOL}")
    return StationaryDistribution(mu=mu, residual=residual, iterations=1)


def _gth(P):
    """Unnormalised stationary vector of a column-stochastic P, or the
    verdict ``(reason, detail)`` with reason "reducible" or "periodic".

    One Grassmann-Taksar-Heyman elimination (Oper. Res. 1985) on the
    row-stochastic transpose, followed by back-substitution.  The elimination
    never subtracts, so it stays accurate on slow-mixing and nearly
    decomposable chains, and the zero pattern of every pivot and mass is
    exact.  A zero pivot means some state cannot reach state 0, and a zero
    mass means state 0 cannot reach some state: together they decide
    irreducibility.  A self-loop proves an irreducible chain aperiodic;
    without one, ``_period`` decides.
    """
    n = P.shape[0]
    A = P.T.copy()  # row-stochastic: A[s, s'] = P(s' | s)
    for k in range(n - 1, 0, -1):
        pivot = A[k, :k].sum()
        if pivot <= 0.0:
            return "reducible", f"state {k} cannot reach state 0"
        A[:k, k] /= pivot
        A[:k, :k] += np.multiply.outer(A[:k, k], A[k, :k])
    mu = np.empty(n)
    mu[0] = 1.0
    for k in range(1, n):
        mu[k] = mu[:k] @ A[:k, k]
    if mu.min() <= 0.0:
        return "reducible", f"state 0 cannot reach state {int(np.argmin(mu > 0.0))}"
    if P.trace() <= 0.0 and _period(P) != 1:
        return "periodic", "the stationary distribution is not a limit"
    return mu


def occupancy(mdp, pi):
    """State-action stationary distribution mu_hat[s, a] induced by pi."""
    P = transition_matrix(mdp, pi)
    mu = stationary_distribution(P).mu
    return mu[:, None] * np.asarray(pi, dtype=float)


def policy_from_occupancy(mu_hat):
    """Recover the policy whose occupancy measure is ``mu_hat``."""
    mu_hat = np.asarray(mu_hat, dtype=float)
    marginals = mu_hat.sum(axis=1)
    if np.any(marginals <= 0.0):
        raise ZeroStateMass(f"state marginals must be positive, got min {marginals.min():.3e}")
    return mu_hat / marginals[:, None]


def average_reward(mdp, pi, reward=None):
    """Long-run average reward J_r(pi); ``reward`` defaults to the MDP's table."""
    if reward is None:
        reward = mdp.reward
    return float(np.sum(np.asarray(reward, dtype=float) * occupancy(mdp, pi)))


def _period(P):
    """Period of an irreducible chain via BFS level differences."""
    n = P.shape[0]
    adj = [np.nonzero(P[:, s] > 0)[0] for s in range(n)]
    dist = np.full(n, -1, dtype=int)
    dist[0] = 0
    queue = [0]
    while queue:
        u = queue.pop(0)
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    g = 0
    for u in range(n):
        for v in adj[u]:
            g = math.gcd(g, dist[u] + 1 - dist[v])
    return abs(g)


def deterministic_policy(assignment, n_actions):
    """Point-mass policy table from an action index per state."""
    assignment = np.asarray(assignment, dtype=int)
    pi = np.zeros((assignment.size, n_actions))
    pi[np.arange(assignment.size), assignment] = 1.0
    return pi


def _assignments(mdp, cap):
    """Action assignments of all |A|^|S| deterministic policies, in
    lexicographic order; raises CapExceeded above ``cap``."""
    count = mdp.n_actions ** mdp.n_states
    if count > cap:
        raise CapExceeded(f"{count} deterministic policies exceed the cap {cap}")
    return itertools.product(range(mdp.n_actions), repeat=mdp.n_states)


def enumerate_deterministic_policies(mdp, cap=ENUMERATION_CAP):
    """All |A|^|S| point-mass policies in lexicographic assignment order."""
    return [deterministic_policy(assignment, mdp.n_actions)
            for assignment in _assignments(mdp, cap)]


def check_ergodicity(mdp):
    """Certify that every deterministic policy induces an ergodic chain.

    Sufficient for all stochastic policies: the edge set of any policy's
    chain contains that of a deterministic selection from its support.
    Each verdict comes from ``_gth``, the elimination behind
    ``stationary_distribution``, so no policy of a certified MDP is one the
    solver rejects as reducible or periodic.  The first failing assignment
    in lexicographic order is the witness.
    """
    states = np.arange(mdp.n_states)
    checked = 0
    for assignment in _assignments(mdp, ENUMERATION_CAP):
        checked += 1
        verdict = _gth(mdp.kernel[states, assignment].T)
        if isinstance(verdict, tuple):
            return ErgodicityCertificate(
                ergodic=False, witness=assignment, reason=verdict[0],
                checked_policies=checked)
    return ErgodicityCertificate(ergodic=True, checked_policies=checked)


def random_ergodic_mdp(seed, n_states, n_actions, concentration=1.0,
                       reward_bound=DEFAULT_REWARD_BOUND):
    """Random MDP with a strictly positive Dirichlet kernel (hence ergodic)."""
    if concentration <= 0:
        raise ValueError("concentration must be positive")
    rng = np.random.default_rng(seed)
    kernel = rng.dirichlet(np.full(n_states, concentration), size=(n_states, n_actions))
    reward = rng.uniform(0.0, reward_bound, size=(n_states, n_actions))
    return Mdp(kernel=kernel, reward=reward, reward_bound=reward_bound)


def discounted_to_average(mdp, gamma, restart):
    """Average-reward MDP equivalent to a discounted one via restart mixing."""
    if not 0.0 <= gamma < 1.0 + 1e-15:
        raise ValueError("gamma must lie in [0, 1]")
    restart = np.asarray(restart, dtype=float)
    if restart.shape != (mdp.n_states,) or np.any(restart < 0) \
            or abs(restart.sum() - 1.0) > ROW_SUM_TOL:
        raise ValueError("restart must be a distribution over states")
    kernel = gamma * mdp.kernel + (1.0 - gamma) * restart[None, None, :]
    return Mdp(kernel=kernel, reward=mdp.reward, reward_bound=mdp.reward_bound)

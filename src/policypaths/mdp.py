"""Finite average-reward MDPs and the exact quantities built on them.

Conventions: the transition kernel is indexed ``kernel[s, a, s']``; the
induced state transition matrix is column-stochastic with entry ``(s', s)``
so that the stationary distribution satisfies ``mu = P @ mu``.  Every
stationary distribution, and so every occupancy measure and average reward,
comes from one exact GTH elimination, ``_gth``, which also decides
ergodicity from the chain's graph.  It solves one chain or a stack of
chains with the same operations, so the enumerations over all |A|^|S|
deterministic policies (``check_ergodicity`` here, ``det_occupancies`` in
``attack``) solve their chains in stacks of at most CHAIN_BLOCK, with the
bits and verdicts of one call per chain.  ``check_policy``,
``transition_matrix``, ``stationary_distribution`` and ``occupancy`` take
a stack too: policies of shape ``(..., S, A)`` or chains of shape
``(..., n, n)``.  Each chain of a stack gets the bits, the checks and the
verdict of its own call, a single policy or chain is the empty stack, and
a failing stack names its first failing chain.  ``check_one_policy`` and
``average_reward`` take one policy and reject a stack.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, NonConvergence, ZeroStateMass

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-12
ENUMERATION_CAP = 10 ** 5
CHAIN_BLOCK = 4096            # chains per stacked elimination; bounds memory
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
    """Stationary distribution of an ergodic chain, with achieved residual;
    for a stack of chains, one row of ``mu`` and one residual per chain."""

    mu: np.ndarray
    residual: float | np.ndarray
    iterations: int           # always 1: the solve is one direct elimination


@dataclass
class ErgodicityCertificate:
    """Result of checking ergodicity over all deterministic policies."""

    ergodic: bool
    witness: tuple | None = None       # action assignment of a failing policy
    reason: str | None = None
    checked_policies: int = 0


def check_policy(pi, n_states, n_actions):
    """Validate a policy table pi[s, a], or a stack of them with shape
    ``(..., S, A)``, and return it as a float array.  Entry points that
    take one policy use ``check_one_policy``."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape[-2:] != (n_states, n_actions):
        raise ValueError(f"policy shape {pi.shape} != ({n_states}, {n_actions})")
    if np.any(pi < 0):
        raise ValueError("policy entries must be nonnegative")
    if np.max(np.abs(pi.sum(axis=-1) - 1.0)) > ROW_SUM_TOL:
        raise ValueError("policy rows must sum to 1 within 1e-12")
    return pi


def check_one_policy(pi, n_states, n_actions):
    """``check_policy`` for one policy table: a stack is rejected."""
    pi = check_policy(pi, n_states, n_actions)
    if pi.ndim != 2:
        raise ValueError(f"policy shape {pi.shape} != ({n_states}, {n_actions})")
    return pi


def transition_matrix(mdp, pi):
    """Column-stochastic state transition matrix P[s', s] under policy pi,
    or the ``(..., S, S)`` stack of them for a stack of policies."""
    pi = check_policy(pi, mdp.n_states, mdp.n_actions)
    return np.einsum("sap,...sa->...ps", mdp.kernel, pi)


def stationary_distribution(P):
    """Stationary distribution of a column-stochastic matrix by GTH
    elimination, or of each matrix of an ``(..., n, n)`` stack.

    One exact, subtraction-free elimination (``_gth``), so ``iterations``
    is always 1.  Raises NonConvergence when a chain is not ergodic,
    judged from its graph (reducible or periodic), and when its balance
    residual exceeds STATIONARY_TOL.  In a stack the first failing chain
    (in flat order) is named, as ``chain`` on the error.
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[-1]
    if P.ndim < 2 or P.shape[-2] != n:
        raise ValueError("P must be square")
    if not (P.min() >= 0.0 and np.abs(P.sum(axis=-2) - 1.0).max() <= 1e-10):
        raise ValueError("P must be column-stochastic")
    mu, failures = _gth(P)
    single = P.ndim == 2
    if single:  # one chain keeps its scalar sum and its 2-D product
        mu /= mu.sum()
        residual = worst = float(np.abs(P @ mu - mu).max())
    else:
        mu /= mu.sum(axis=-1, keepdims=True)
        residual = np.abs((P @ mu[..., None])[..., 0] - mu).max(axis=-1)
        worst = residual.max()
    if failures or not worst <= STATIONARY_TOL:
        flat = np.ravel(residual)
        first = min(failures.keys() | set(
            np.flatnonzero(~(flat <= STATIONARY_TOL)).tolist()))
        error = NonConvergence(
            ("" if single else f"chain {first}: ")
            + ("%s chain: %s" % failures[first] if first in failures else
               f"balance residual {flat[first]:.3e} exceeds tol={STATIONARY_TOL}"))
        error.chain = first
        raise error
    return StationaryDistribution(mu=mu, residual=residual, iterations=1)


def _gth(P):
    """Unnormalised stationary vectors of a column-stochastic matrix, or of
    a stack of them with shape ``(..., n, n)``, and the chains that are not
    ergodic.

    Returns ``(mu, failures)``: ``mu`` has shape ``(..., n)``, and
    ``failures`` maps the flat index of each chain that is not ergodic (0
    for a single matrix) to its verdict ``(reason, detail)``, with reason
    "reducible" or "periodic".  The ``mu`` of such a chain is meaningless.

    One Grassmann-Taksar-Heyman elimination (Oper. Res. 1985) on the
    row-stochastic transposes, followed by back-substitution, with the same
    operations on every chain of the stack.  The elimination never
    subtracts, so it stays accurate on slow-mixing and nearly decomposable
    chains, and the zero pattern of every pivot and mass is exact.  A zero
    pivot means some state cannot reach state 0, and a zero mass means
    state 0 cannot reach some state: together they decide irreducibility.
    A self-loop proves an irreducible chain aperiodic; without one,
    ``_period`` decides.
    """
    A = P.swapaxes(-1, -2).copy()  # row-stochastic: A[..., s, s'] = P(s' | s)
    n = A.shape[-1]
    cut = None  # per chain, the first state found unable to reach state 0
    for k in range(n - 1, 0, -1):
        row, col = A[..., k, :k], A[..., :k, k]
        pivot = np.add.reduce(row, axis=-1, keepdims=True)
        if np.count_nonzero(pivot) < pivot.size:  # pivots are never negative
            zero = pivot[..., 0] <= 0.0
            if cut is None:
                cut = np.zeros(zero.shape, dtype=int)
            cut[zero & (cut == 0)] = k
            pivot[zero] = 1.0  # the row is zero, so the update adds nothing
        col /= pivot
        A[..., :k, :k] += col[..., None] * row[..., None, :]
    mu = np.empty(A.shape[:-1])
    mu[..., 0] = 1.0
    for k in range(1, n):
        np.matmul(mu[..., None, :k], A[..., :k, k, None],
                  out=mu[..., None, k:k + 1])
    loops = P.trace(axis1=-2, axis2=-1)
    # masses and traces are never negative either: nonzero means positive
    if cut is None and np.count_nonzero(mu) == mu.size \
            and np.count_nonzero(loops) == loops.size:
        return mu, {}
    failures = {}
    if cut is not None:
        for i in np.flatnonzero(cut):
            failures[int(i)] = ("reducible",
                                f"state {cut.flat[i]} cannot reach state 0")
    mu_flat = mu.reshape(-1, n)
    for i in np.flatnonzero(mu_flat.min(axis=1) <= 0.0):
        failures.setdefault(int(i), (
            "reducible",
            f"state 0 cannot reach state {int(np.argmin(mu_flat[i] > 0.0))}"))
    loopless = [int(i) for i in np.flatnonzero(np.ravel(loops) <= 0.0)
                if int(i) not in failures]
    for i, period in zip(loopless, _period(P.reshape(-1, n, n)[loopless])):
        if period != 1:
            failures[i] = ("periodic",
                           "the stationary distribution is not a limit")
    return mu, failures


def occupancy(mdp, pi):
    """State-action stationary distribution mu_hat[s, a] induced by pi, or
    the ``(..., S, A)`` stack of them for a stack of policies."""
    P = transition_matrix(mdp, pi)
    mu = stationary_distribution(P).mu
    return mu[..., None] * np.asarray(pi, dtype=float)


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
    pi = check_one_policy(pi, mdp.n_states, mdp.n_actions)
    return float(np.sum(np.asarray(reward, dtype=float) * occupancy(mdp, pi)))


def _period(P):
    """Periods of irreducible chains, one per matrix of an ``(m, n, n)``
    stack: the gcd, over the edges u -> v, of level(u) + 1 - level(v), where
    a state's level is its BFS distance from state 0."""
    m, n, _ = P.shape
    edge = P.swapaxes(1, 2) > 0.0  # edge[i, u, v]: u -> v
    level = np.full((m, n), -1)
    level[:, 0] = 0
    frontier = level == 0
    for depth in range(1, n):
        frontier = (frontier[:, None, :] @ edge)[:, 0] & (level < 0)
        level[frontier] = depth
    shift = np.abs(level[:, :, None] + 1 - level[:, None, :])
    return np.gcd.reduce(np.where(edge, shift, 0).reshape(m, n * n), axis=1)


def deterministic_policy(assignment, n_actions):
    """Point-mass policy table from an action index per state."""
    assignment = np.asarray(assignment, dtype=int)
    pi = np.zeros((assignment.size, n_actions))
    pi[np.arange(assignment.size), assignment] = 1.0
    return pi


def _deterministic_chains(mdp):
    """The chains of all |A|^|S| deterministic policies, in lexicographic
    assignment order, as blocks ``(assignments, P)`` of at most CHAIN_BLOCK
    policies: ``assignments`` has one row of actions per policy and ``P``
    the stacked column-stochastic matrices.  Raises CapExceeded above
    ENUMERATION_CAP before anything is allocated."""
    count = mdp.n_actions ** mdp.n_states
    if count > ENUMERATION_CAP:
        raise CapExceeded(f"{count} deterministic policies exceed the cap "
                          f"{ENUMERATION_CAP}")
    places = mdp.n_actions ** np.arange(mdp.n_states - 1, -1, -1)
    states = np.arange(mdp.n_states)
    for start in range(0, count, CHAIN_BLOCK):
        index = np.arange(start, min(start + CHAIN_BLOCK, count))
        assignments = index[:, None] // places % mdp.n_actions
        yield assignments, mdp.kernel[states, assignments].swapaxes(1, 2)


def check_ergodicity(mdp):
    """Certify that every deterministic policy induces an ergodic chain.

    Sufficient for all stochastic policies: the edge set of any policy's
    chain contains that of a deterministic selection from its support.
    Each verdict comes from ``_gth``, the elimination behind
    ``stationary_distribution``, so no policy of a certified MDP is one the
    solver rejects as reducible or periodic.  The first failing assignment
    in lexicographic order is the witness.
    """
    checked = 0
    for assignments, P in _deterministic_chains(mdp):
        _, failures = _gth(P)
        if failures:
            first = min(failures)
            return ErgodicityCertificate(
                ergodic=False, witness=tuple(assignments[first].tolist()),
                reason=failures[first][0], checked_policies=checked + first + 1)
        checked += len(assignments)
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

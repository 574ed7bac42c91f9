"""Softmax policy networks: forward pass, exact activation inverses,
architecture checks, and value evaluation.

A Theta may hold a stack of parameter sets, each weight of shape
``(..., n_{k-1}, n_k)`` and each bias ``(..., n_k)`` with the same leading
shape; ``forward`` then evaluates every set at once, each with the bits
of its own call.

Hidden layers use a leaky rectifier (slope beta on the negative side),
which is strictly monotonic with range equal to the whole real line, so
it has an exact elementwise inverse.  The final layer is a row softmax.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveEntry, ShapeMismatch
from .mdp import average_reward

DEFAULT_LEAKY_SLOPE = 0.01


@dataclass(frozen=True)
class NetArchitecture:
    """Layer widths (n_0 = feature dim, ..., n_L = number of actions)."""

    widths: tuple
    leaky_slope: float = DEFAULT_LEAKY_SLOPE

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if len(self.widths) < 2:
            raise ValueError("need at least an input and an output width")
        if any(w <= 0 for w in self.widths):
            raise ValueError("widths must be positive")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ValueError("leaky_slope must lie in (0, 1)")

    @property
    def depth(self):
        return len(self.widths) - 1

    @property
    def feature_dim(self):
        return self.widths[0]

    @property
    def n_actions(self):
        return self.widths[-1]


@dataclass
class Theta:
    """Per-layer weights and biases matching a NetArchitecture."""

    weights: list       # W_k of shape (n_{k-1}, n_k)
    biases: list        # b_k of shape (n_k,)

    def __post_init__(self):
        self.weights = [np.asarray(W, dtype=float) for W in self.weights]
        self.biases = [np.asarray(b, dtype=float) for b in self.biases]
        if len(self.weights) != len(self.biases):
            raise ShapeMismatch("weights and biases must pair up per layer")

    @classmethod
    def stack(cls, thetas):
        """One Theta holding ``thetas`` along a new leading axis."""
        return cls(weights=[np.stack(W) for W in zip(*(t.weights for t in thetas))],
                   biases=[np.stack(b) for b in zip(*(t.biases for t in thetas))])

    def check_shapes(self, arch):
        if len(self.weights) != arch.depth:
            raise ShapeMismatch(
                f"{len(self.weights)} layers vs architecture depth {arch.depth}")
        lead = self.weights[0].shape[:-2]
        for k, (W, b) in enumerate(zip(self.weights, self.biases)):
            expected = (arch.widths[k], arch.widths[k + 1])
            if W.shape != lead + expected or b.shape != lead + expected[1:]:
                raise ShapeMismatch(
                    f"layer {k + 1}: W {W.shape}, b {b.shape}, expected {expected}")

    def copy(self):
        return Theta(weights=[W.copy() for W in self.weights],
                     biases=[b.copy() for b in self.biases])

    def flat(self):
        return np.concatenate([W.ravel() for W in self.weights]
                              + [b.ravel() for b in self.biases])

    def to_dict(self, arch=None):
        data = {"layers": [{"W": W.tolist(), "b": b.tolist()}
                           for W, b in zip(self.weights, self.biases)]}
        if arch is not None:
            data["widths"] = list(arch.widths)
            data["leaky_slope"] = arch.leaky_slope
        return data

    @classmethod
    def from_dict(cls, data):
        return cls(weights=[np.asarray(layer["W"]) for layer in data["layers"]],
                   biases=[np.asarray(layer["b"]) for layer in data["layers"]])


def softmax_rows(M):
    """Row-wise softmax with per-row max subtraction for overflow safety."""
    M = np.asarray(M, dtype=float)
    shifted = M - M.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_inv_rows(M):
    """Row-centered right inverse of the row softmax (rows sum to zero)."""
    M = np.asarray(M, dtype=float)
    if np.any(M <= 0):
        raise NonPositiveEntry("softmax inverse needs strictly positive entries")
    logs = np.log(M)
    return logs - logs.mean(axis=-1, keepdims=True)


def sigma(x, slope=DEFAULT_LEAKY_SLOPE):
    x = np.asarray(x, dtype=float)
    return np.where(x >= 0, x, slope * x)


def sigma_inv(y, slope=DEFAULT_LEAKY_SLOPE):
    y = np.asarray(y, dtype=float)
    return np.where(y >= 0, y, y / slope)


def one_hot_features(n_states, dim=None):
    """Default feature table: one-hot rows padded to width ``dim``."""
    if dim is None:
        dim = n_states
    if dim < n_states:
        raise ValueError("feature dim below the state count duplicates no rows "
                         "but loses rank; pick dim >= n_states")
    X = np.zeros((n_states, dim))
    X[:, :n_states] = np.eye(n_states)
    return X


def pre_softmax(arch, theta, X):
    """The hidden activation tables ``[F_1, ..., F_{L-1}]`` and the
    pre-softmax table of the network on a feature table, stacked like
    ``theta``; ``forward`` is the row softmax of that table."""
    theta.check_shapes(arch)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != arch.feature_dim:
        raise ShapeMismatch(f"feature table {X.shape} vs input width {arch.feature_dim}")
    ones = np.ones((X.shape[0], 1))
    F = X
    hidden = []
    for k in range(arch.depth):
        pre = F @ theta.weights[k] + ones * theta.biases[k][..., None, :]
        if k < arch.depth - 1:
            F = sigma(pre, arch.leaky_slope)
            hidden.append(F)
    return hidden, pre


def forward(arch, theta, X, return_hidden=False):
    """Evaluate the network on a feature table; returns the policy table,
    or the ``(..., S, A)`` stack of them for a stacked Theta.

    With ``return_hidden`` also returns the per-layer outputs
    ``[F_1, ..., F_L]`` (post-activation; the last entry is the policy).
    """
    hidden, pre = pre_softmax(arch, theta, X)
    F = softmax_rows(pre)
    return (hidden + [F], F) if return_hidden else F


@dataclass
class AssumptionReport:
    first_layer_wide_enough: bool
    strictly_decreasing_widths: bool
    output_matches_actions: bool | None
    distinct_feature_rows: bool
    feature_table_full_row_rank: bool

    def core_ok(self):
        ok = (self.first_layer_wide_enough and self.strictly_decreasing_widths
              and self.distinct_feature_rows)
        if self.output_matches_actions is not None:
            ok = ok and self.output_matches_actions
        return ok


def check_assumptions(arch, X, n_actions=None):
    """Testable architecture conditions: n_1 >= 2|S|, strictly decreasing
    widths, output width = |A|, distinct feature rows, and (as an optional
    flag) rank(X) = |S|."""
    X = np.asarray(X, dtype=float)
    n_states = X.shape[0]
    widths = arch.widths
    distinct = all(
        not np.array_equal(X[i], X[j])
        for i in range(n_states) for j in range(i + 1, n_states))
    return AssumptionReport(
        first_layer_wide_enough=widths[1] >= 2 * n_states,
        strictly_decreasing_widths=all(
            widths[k] > widths[k + 1] for k in range(1, len(widths) - 1)),
        output_matches_actions=(widths[-1] == n_actions) if n_actions is not None else None,
        distinct_feature_rows=distinct,
        feature_table_full_row_rank=np.linalg.matrix_rank(X) == n_states,
    )


def value_of_theta(mdp, arch, theta, X, reward=None):
    """Average reward of the policy the network produces."""
    return average_reward(mdp, forward(arch, theta, X), reward=reward)


def random_theta(arch, seed):
    """Standard Gaussian parameters; full rank with probability one."""
    rng = np.random.default_rng(seed)
    weights = [rng.normal(size=(arch.widths[k], arch.widths[k + 1]))
               for k in range(arch.depth)]
    biases = [rng.normal(size=arch.widths[k + 1]) for k in range(arch.depth)]
    return Theta(weights=weights, biases=biases)

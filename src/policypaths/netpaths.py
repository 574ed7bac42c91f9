"""Continuous parameter-space paths between policy networks.

The path between two networks is a concatenation of segments, as in the
paper's lemmas.  A segment is a kind, a list of stages (maps t in [0, 1]
-> parameters, joined end to end with equal lengths) and a declared
invariant: a residual sampled at every point, with the bound it must keep.
The output-preserving segments are full-rank repairs, first-layer rank
restoration and swap, pseudo-inverse preimage moves and full-rank tall
matrix paths; one "tabular lift" segment carries the network output along
the occupancy-blend policy path, which is where the value bound comes
from.  The assembled path is certified in one pass, one stacked step per
leg: a single forward evaluation of all the leg's snapshots feeds both the
output-drift check and one stacked occupancy solve, which gives the value
of every reward.
"""

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (BoundViolated, NonConvergence, NonPositivePolicy,
                     OutputDrift, PathStalled, PolicyFloorViolated,
                     RankDeficient, RepairUnavailable, RestorationStalled,
                     SwapFailed)
from .mdp import occupancy, stationary_distribution, transition_matrix
from .network import (NetArchitecture, Theta, check_assumptions, forward,
                      sigma, sigma_inv, softmax_inv_rows)
from .numerics import pinv, rank_with_tol
from .tabular import interpolate_policies, uniform_grid

SEGMENT_TOL = 1e-7
LEMMA_DRIFT_TOL = 1e-8
ASSEMBLED_TOL = 1e-6
MIN_SIGMA = 1e-9
RANK_SIGMA_FRAC = 1e-6
REWIRE_TRIES = 50
ROTATION_LOG_TRIES = 8


@dataclass
class PathSegment:
    """One sampled segment of a parameter path.

    ``points`` holds one parameter snapshot per alpha; its type depends on
    ``kind`` (full Theta for assembled segments, tuples of arrays for the
    lower-level lemma segments).  ``residuals`` holds the named invariant
    samples.
    """

    kind: str
    alphas: np.ndarray
    points: list
    residuals: dict
    metadata: dict = field(default_factory=dict)

    def max_residual(self, name):
        return float(np.max(self.residuals[name]))


@dataclass
class SegmentedPath:
    segments: list
    theta_start: Theta
    theta_end: Theta
    certificate: dict

    def snapshot_bytes(self):
        """Canonical serialization of the full snapshot schedule (for
        reward-independence byte checks)."""
        chunks = []
        for seg in self.segments:
            chunks.append(seg.kind.encode())
            chunks.append(np.ascontiguousarray(seg.alphas).tobytes())
            for theta in seg.points:
                chunks.append(theta.flat().tobytes())
        return b"".join(chunks)


@dataclass(frozen=True)
class _Invariant:
    """A residual measured at every sample of a segment, and its bound:
    an upper bound, or a lower bound when ``floor`` is set."""

    name: str
    measure: Callable
    tol: float
    error: type
    label: str
    floor: bool = False

    def check(self, samples):
        """The residual at each sample; raises ``error`` past the bound."""
        residual = np.array([self.measure(s) for s in samples])
        worst = residual.min() if self.floor else residual.max()
        if (worst < self.tol) if self.floor else (worst > self.tol):
            bound = "dipped below" if self.floor else "exceeds"
            raise self.error(f"{self.label} {worst:.3e} {bound} {self.tol}")
        return residual


def _at(seg, i):
    """Where a failure of the assembled certification happened."""
    return f" on {seg.kind} at alpha {seg.alphas[i]:.6g}"


def _sample(stages, grid):
    """Sample the concatenation of ``stages`` over [0, 1], each stage an
    equal share, at the grid points and every joint.  Joints are evaluated
    at exactly t = 0 or t = 1, so adjacent stages meet bitwise."""
    k = len(stages)
    grid = uniform_grid() if grid is None else np.asarray(grid, dtype=float)
    alphas = np.unique(np.concatenate([grid, np.arange(k + 1) / k, [0.0, 1.0]]))
    if alphas[0] < 0.0 or alphas[-1] > 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    points = []
    for alpha in alphas:
        i = min(int(alpha * k), k - 1)
        points.append(stages[i](alpha * k - i))
    return alphas, points


def _segment(kind, stages, grid, invariant=None, metadata=None):
    """Sample ``stages`` and certify ``invariant`` at every point.  Without
    an invariant the residuals are left to the assembled certification."""
    alphas, points = _sample(stages, grid)
    residuals = {} if invariant is None else \
        {invariant.name: invariant.check(points)}
    return PathSegment(kind=kind, alphas=alphas, points=points,
                       residuals=residuals, metadata=metadata or {})


def _augment(X):
    X = np.asarray(X, dtype=float)
    return np.hstack([X, np.ones((X.shape[0], 1))])


def _stack(W, b):
    return np.vstack([W, np.asarray(b, dtype=float)[None, :]])


def _unstack(Wb):
    return Wb[:-1], Wb[-1]


def _check_full_column_rank(W, name):
    if rank_with_tol(W) < W.shape[1]:
        raise RankDeficient(f"{name} must have full column rank")


def _min_sigma(T):
    s = np.linalg.svd(T, compute_uv=False)
    return float(s[-1]) if s.size else 0.0


def _activation_full_rank(T, n_required):
    s = np.linalg.svd(T, compute_uv=False)
    if s.size < n_required or s[0] == 0.0:
        return False
    return s[n_required - 1] >= RANK_SIGMA_FRAC * s[0]


def h_map(M, layers, pi, slope):
    """Reconstruct the layer feeding a fixed full-rank chain so the chain
    emits the policy ``pi`` on input table ``M``.

    ``layers`` is the fixed chain in forward order; the last entry feeds
    the softmax.  An empty chain means the produced layer is the softmax
    layer itself.  Returns (W, b).
    """
    M = np.asarray(M, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if np.any(pi <= 0):
        raise NonPositivePolicy("target policy must be strictly positive")
    M1 = _augment(M)
    if rank_with_tol(M1) < M1.shape[0]:
        raise RankDeficient("input table (with ones column appended) must have "
                            "full row rank")
    ones = np.ones((M.shape[0], 1))
    B = softmax_inv_rows(pi)
    if layers:
        for idx, (W, b) in enumerate(reversed(layers)):
            _check_full_column_rank(np.asarray(W, dtype=float),
                                    f"chain weight {len(layers) - idx}")
            B = (B - ones * np.asarray(b, dtype=float)[None, :]) @ pinv(W)
            if idx < len(layers) - 1:
                B = sigma_inv(B, slope)
        pre = sigma_inv(B, slope)
    else:
        pre = B
    Wb = pinv(M1) @ pre
    return _unstack(Wb)


def realize_policy(arch, X, layers, pi, floor=1e-12):
    """Parameters whose network output equals ``pi`` exactly (up to
    pseudo-inverse conditioning).  ``layers`` are the fixed layers 2..L."""
    pi = np.asarray(pi, dtype=float)
    if np.any(pi < floor):
        raise PolicyFloorViolated(
            f"policy entries must be >= {floor}; softmax outputs cannot be 0")
    W1, b1 = h_map(X, layers, pi, arch.leaky_slope)
    theta = Theta(weights=[W1] + [np.asarray(W, dtype=float) for W, _ in layers],
                  biases=[b1] + [np.asarray(b, dtype=float) for _, b in layers])
    theta.check_shapes(arch)
    return theta


def canonical_layers(arch, seed):
    """Random standard Gaussian full-rank layers 2..L for use with
    realize_policy."""
    rng = np.random.default_rng(seed)
    layers = []
    for k in range(1, arch.depth):
        while True:
            W = rng.normal(size=(arch.widths[k], arch.widths[k + 1]))
            if rank_with_tol(W) == W.shape[1]:
                break
        layers.append((W, rng.normal(size=arch.widths[k + 1])))
    return layers


# ---------------------------------------------------------------------------
# Preimage-chain segment: connect two first-layer parameter pairs that give
# the same network output, holding the output fixed the whole way.
# ---------------------------------------------------------------------------

def _first_layer_coordinates(X, theta, slope):
    """Decompose a first layer into canonical pseudo-inverse parts plus
    null-space components, relative to the fixed layers 2..L."""
    M1 = _augment(X)
    ones = np.ones((X.shape[0], 1))
    depth = len(theta.weights)
    F = sigma(X @ theta.weights[0] + ones * theta.biases[0][None, :], slope)
    hidden = [F]
    for k in range(1, depth - 1):
        F = sigma(F @ theta.weights[k] + ones * theta.biases[k][None, :], slope)
        hidden.append(F)
    logits = hidden[-1] @ theta.weights[-1] + ones * theta.biases[-1][None, :] \
        if depth > 1 else X @ theta.weights[0] + ones * theta.biases[0][None, :]
    if depth == 1:
        return {"logits": logits,
                "nulls": [],
                "null0": _stack(theta.weights[0], theta.biases[0])
                - pinv(M1) @ logits}
    nulls = [None] * (depth - 1)
    upper = logits
    for l in range(depth - 2, -1, -1):
        W_next = theta.weights[l + 1]
        b_next = theta.biases[l + 1]
        A = (upper - ones * b_next[None, :]) @ pinv(W_next)
        nulls[l] = hidden[l] - A
        upper = sigma_inv(hidden[l], slope)
    null0 = _stack(theta.weights[0], theta.biases[0]) \
        - pinv(M1) @ sigma_inv(hidden[0], slope)
    return {"logits": logits, "nulls": nulls, "null0": null0}


def _first_layer_from_coordinates(X, theta_fixed, coords, slope):
    """Inverse of _first_layer_coordinates for fixed layers 2..L."""
    M1 = _augment(X)
    ones = np.ones((X.shape[0], 1))
    depth = len(theta_fixed.weights)
    if depth == 1:
        Wb = pinv(M1) @ coords["logits"] + coords["null0"]
        return _unstack(Wb)
    F = (coords["logits"] - ones * theta_fixed.biases[-1][None, :]) \
        @ pinv(theta_fixed.weights[-1]) + coords["nulls"][depth - 2]
    for l in range(depth - 3, -1, -1):
        F = (sigma_inv(F, slope) - ones * theta_fixed.biases[l + 1][None, :]) \
            @ pinv(theta_fixed.weights[l + 1]) + coords["nulls"][l]
    Wb = pinv(M1) @ sigma_inv(F, slope) + coords["null0"]
    return _unstack(Wb)


def preimage_chain_path(arch, X, theta_a, theta_b, grid=None):
    """Output-constant path between two networks differing only in the
    first layer.  Layers 2..L must be identical, full column rank."""
    theta_a.check_shapes(arch)
    theta_b.check_shapes(arch)
    for k in range(1, arch.depth):
        if not (np.array_equal(theta_a.weights[k], theta_b.weights[k])
                and np.array_equal(theta_a.biases[k], theta_b.biases[k])):
            raise ValueError("layers 2..L must be identical between endpoints")
        _check_full_column_rank(theta_a.weights[k], f"layer {k + 1} weight")
    pi_a = forward(arch, theta_a, X)
    pi_b = forward(arch, theta_b, X)
    if np.max(np.abs(pi_a - pi_b)) > 1e-8:
        raise ValueError("endpoints must produce the same output within 1e-8")
    pi_ref = pi_a
    slope = arch.leaky_slope
    coords_a = _first_layer_coordinates(X, theta_a, slope)
    coords_b = _first_layer_coordinates(X, theta_b, slope)

    def blend(t):
        mix = {
            "logits": (1 - t) * coords_a["logits"] + t * coords_b["logits"],
            "nulls": [(1 - t) * na + t * nb
                      for na, nb in zip(coords_a["nulls"], coords_b["nulls"])],
            "null0": (1 - t) * coords_a["null0"] + t * coords_b["null0"],
        }
        return mix

    def stage(t):
        if t == 0.0:
            return theta_a.copy()
        if t == 1.0:
            return theta_b.copy()
        W1, b1 = _first_layer_from_coordinates(X, theta_a, blend(t), slope)
        theta = theta_a.copy()
        theta.weights[0] = W1
        theta.biases[0] = b1
        return theta

    drift = _Invariant("output_drift",
                       lambda p: np.max(np.abs(forward(arch, p, X) - pi_ref)),
                       SEGMENT_TOL, OutputDrift, "preimage chain drift")
    return _segment("preimage-chain", [stage], grid, drift,
                    metadata={"pi_ref": pi_ref})


# ---------------------------------------------------------------------------
# Rank restoration of the first-layer activation table.
# ---------------------------------------------------------------------------

def _dependent_column(T, candidates=None):
    """A column of T expressible by the others, with its coefficients.

    Returns (j, c, others) where T[:, j] ~= T[:, others] @ c, or None.
    """
    n_cols = T.shape[1]
    pool = range(n_cols) if candidates is None else candidates
    scale = max(1.0, float(np.linalg.norm(T)))
    best = None
    for j in pool:
        others = [i for i in range(n_cols) if i != j]
        c, res, *_ = np.linalg.lstsq(T[:, others], T[:, j], rcond=None)
        residual = float(np.linalg.norm(T[:, others] @ c - T[:, j]))
        if best is None or residual < best[2]:
            best = (j, np.asarray(c), residual, others)
    if best is None or best[2] > 1e-9 * scale:
        return None
    return best[0], best[1], best[3]


def _transfer_stage(fixed, V, j, others, coeffs):
    """Linear V-move zeroing neuron j's output row while keeping T V fixed.
    Each point is copies of the ``fixed`` arrays followed by V."""
    V0 = V.copy()

    def stage(t):
        Vt = V0.copy()
        Vt[others] = V0[others] + t * coeffs[:, None] * V0[j][None, :]
        Vt[j] = (1 - t) * V0[j]
        return tuple(a.copy() for a in fixed) + (Vt,)

    V_end = V0.copy()
    V_end[others] = V0[others] + coeffs[:, None] * V0[j][None, :]
    V_end[j] = 0.0
    return stage, V_end


def _rewire_stage(W1, b1, V, j, w_new, b_new):
    """Linear move of neuron j's incoming weights (its output row is zero)."""
    W0, b0 = W1.copy(), b1.copy()

    def stage(t):
        Wt, bt = W0.copy(), b0.copy()
        Wt[:, j] = (1 - t) * W0[:, j] + t * w_new
        bt[j] = (1 - t) * b0[j] + t * b_new
        return Wt, bt, V.copy()

    W_end, b_end = W0.copy(), b0.copy()
    W_end[:, j] = w_new
    b_end[j] = b_new
    return stage, W_end, b_end


def rank_restore_first_layer(X, W1, b1, V, slope, seed=0, grid=None):
    """Path ending with a full-row-rank first-layer activation table,
    keeping the product Z = sigma(X W1 + 1 b1^T) V constant throughout."""
    X = np.asarray(X, dtype=float)
    W1 = np.asarray(W1, dtype=float).copy()
    b1 = np.asarray(b1, dtype=float).copy()
    V = np.asarray(V, dtype=float).copy()
    n_states = X.shape[0]
    n1 = W1.shape[1]
    rng = np.random.default_rng(seed)
    ones = np.ones((n_states, 1))

    def activation(W, b):
        return sigma(X @ W + ones * b[None, :], slope)

    Z0 = activation(W1, b1) @ V
    stages = []
    rounds = 0
    while not _activation_full_rank(activation(W1, b1), n_states):
        rounds += 1
        if rounds > n1:
            raise RestorationStalled("rank restoration exceeded its round cap")
        T = activation(W1, b1)
        dep = _dependent_column(T)
        if dep is None:
            raise RestorationStalled("no redundant activation column found")
        j, coeffs, others = dep
        stage_a, V = _transfer_stage((W1, b1), V, j, others, coeffs)
        stages.append(stage_a)
        rank_before = rank_with_tol(T, RANK_SIGMA_FRAC)
        for _ in range(REWIRE_TRIES):
            w_new = rng.normal(size=W1.shape[0])
            b_new = float(rng.normal())
            T_try = T.copy()
            T_try[:, j] = sigma(X @ w_new + b_new, slope).ravel()
            if rank_with_tol(T_try, RANK_SIGMA_FRAC) > rank_before:
                break
        else:
            raise RestorationStalled("rewiring failed to raise the rank")
        stage_b, W1, b1 = _rewire_stage(W1, b1, V, j, w_new, b_new)
        stages.append(stage_b)
    if not stages:
        stages = [lambda t: (W1, b1, V)]

    drift = _Invariant("product_drift",
                       lambda p: np.max(np.abs(activation(*p[:2]) @ p[2] - Z0)),
                       LEMMA_DRIFT_TOL, OutputDrift, "product drift")
    seg = _segment("rank-restore-F1", stages, grid, drift)
    T_end = activation(*seg.points[-1][:2])
    seg.metadata = {"terminal_min_sigma": _min_sigma(T_end),
                    "terminal_rank": rank_with_tol(T_end, RANK_SIGMA_FRAC),
                    "rounds": rounds}
    return seg


# ---------------------------------------------------------------------------
# First-layer swap: drive the first-layer weights to a target while the
# product with the next layer stays fixed.
# ---------------------------------------------------------------------------

def _pivot_columns(T, k):
    _, _, piv = scipy.linalg.qr(T, pivoting=True)
    return sorted(int(p) for p in piv[:k])


def first_layer_swap(X, W, V, W_target, slope, seed=0, grid=None):
    """Path with W(1) = W_target and sigma(X W) V constant throughout.

    ``X`` is the (possibly ones-augmented) input table; bias handling is
    the caller's choice of augmentation.  Requires both activation tables
    to have full row rank and at least 2|S| neurons.
    """
    X = np.asarray(X, dtype=float)
    W = np.asarray(W, dtype=float).copy()
    V = np.asarray(V, dtype=float).copy()
    W_target = np.asarray(W_target, dtype=float)
    n_states = X.shape[0]
    n1 = W.shape[1]
    if n1 < 2 * n_states:
        raise SwapFailed(f"need at least {2 * n_states} neurons, have {n1}")
    rng = np.random.default_rng(seed)

    def activation(Wm):
        return sigma(X @ Wm, slope)

    T = activation(W)
    T_target = activation(W_target)
    for name, table in (("source", T), ("target", T_target)):
        if not _activation_full_rank(table, n_states):
            raise RankDeficient(f"{name} activation table must have rank {n_states}")
    Z0 = T @ V
    drift = _Invariant("product_drift",
                       lambda p: np.max(np.abs(activation(p[0]) @ p[1] - Z0)),
                       LEMMA_DRIFT_TOL, OutputDrift, "swap product drift")
    if np.array_equal(W, W_target):
        return _segment("first-layer-swap", [lambda t: (W, V)], grid, drift)
    stages = []

    target_block = _pivot_columns(T_target, n_states)
    keep_block = [j for j in range(n1) if j not in target_block]

    # Make the kept block of the source activation full rank, by the same
    # transfer + rewire moves as rank restoration.
    rounds = 0
    while not _activation_full_rank(T[:, keep_block], n_states):
        rounds += 1
        if rounds > n1:
            raise SwapFailed("could not make the kept neuron block full rank")
        dep = _dependent_column(T, candidates=keep_block)
        if dep is None:
            raise SwapFailed("no redundant activation column in the kept block")
        j, coeffs, others = dep
        stage_a, V = _transfer_stage((W,), V, j, others, coeffs)
        stages.append(stage_a)
        rank_before = rank_with_tol(T[:, keep_block], RANK_SIGMA_FRAC)
        for _ in range(REWIRE_TRIES):
            w_new = rng.normal(size=W.shape[0])
            T_try = T.copy()
            T_try[:, j] = sigma(X @ w_new, slope).ravel()
            if rank_with_tol(T_try[:, keep_block], RANK_SIGMA_FRAC) > rank_before:
                break
        else:
            raise SwapFailed("rewiring failed to raise the kept-block rank")
        W_new = W.copy()
        W_new[:, j] = w_new
        stages.append(_linear_pair_stage((W, V), (W_new, V)))
        W = W_new
        T = activation(W)

    # Stage 1: concentrate the product on the kept block.
    C, *_ = np.linalg.lstsq(T[:, keep_block], T[:, target_block], rcond=None)
    V_end = V.copy()
    V_end[keep_block] = V[keep_block] + C @ V[target_block]
    V_end[target_block] = 0.0
    stages.append(_linear_pair_stage((W, V), (W, V_end)))
    V = V_end

    # Stage 2: rewire the freed block to the target weights.
    W_end = W.copy()
    W_end[:, target_block] = W_target[:, target_block]
    stages.append(_linear_pair_stage((W, V), (W_end, V)))
    W = W_end
    T = activation(W)

    # Stage 3: move the product onto the rewired block.
    D = np.linalg.solve(T[:, target_block], T[:, keep_block])
    V_end = V.copy()
    V_end[target_block] = D @ V[keep_block]
    V_end[keep_block] = 0.0
    stages.append(_linear_pair_stage((W, V), (W, V_end)))
    V = V_end

    # Stage 4: rewire the kept block to the target weights.
    W_end = W_target.copy()
    stages.append(_linear_pair_stage((W, V), (W_end, V)))
    W = W_end

    seg = _segment("first-layer-swap", stages, grid, drift)
    if not np.array_equal(seg.points[-1][0], W_target):
        raise SwapFailed("terminal weights do not equal the target")
    return seg


def _linear_pair_stage(start, end):
    a0, b0 = start
    a1, b1 = end

    def stage(t):
        if t == 0.0:
            return a0.copy(), b0.copy()
        if t == 1.0:
            return a1.copy(), b1.copy()
        return (1 - t) * a0 + t * a1, (1 - t) * b0 + t * b1

    return stage


# ---------------------------------------------------------------------------
# Connectivity of full-column-rank tall matrices.
# ---------------------------------------------------------------------------

def _orthogonal_completion(U):
    comp = scipy.linalg.null_space(U.T)
    return np.hstack([U, comp])


def _rotation_log(Q, rng):
    for _ in range(ROTATION_LOG_TRIES):
        L = scipy.linalg.logm(Q)
        L = np.real(L)
        L = 0.5 * (L - L.T)
        if np.linalg.norm(scipy.linalg.expm(L) - Q) <= 1e-8:
            return L, None
        # Retry through a random rotation waypoint: Q = (Q S^T) S.
        m = Q.shape[0]
        S_raw, _ = np.linalg.qr(rng.normal(size=(m, m)))
        if np.linalg.det(S_raw) < 0:
            S_raw[:, 0] = -S_raw[:, 0]
        L1 = np.real(scipy.linalg.logm(S_raw))
        L1 = 0.5 * (L1 - L1.T)
        L2 = np.real(scipy.linalg.logm(Q @ S_raw.T))
        L2 = 0.5 * (L2 - L2.T)
        ok1 = np.linalg.norm(scipy.linalg.expm(L1) - S_raw) <= 1e-8
        ok2 = np.linalg.norm(scipy.linalg.expm(L2) - Q @ S_raw.T) <= 1e-8
        if ok1 and ok2:
            return L1, L2
    raise PathStalled("could not compute a usable rotation logarithm")


def _stiefel_stages(U_from, U_to, rng):
    """Stages rotating one orthonormal frame into another inside SO(m)."""
    m, n = U_from.shape
    A = _orthogonal_completion(U_from)
    B = _orthogonal_completion(U_to)
    # Adjust so the rotation taking U_from to U_to is special orthogonal;
    # the completion columns are free because only the first n columns of
    # B A^T act on U_from.
    if np.linalg.det(B) * np.linalg.det(A) < 0:
        B[:, -1] = -B[:, -1]
    Q = B @ A.T
    first, second = _rotation_log(Q, rng)
    if second is None:
        def stage(t):
            if t == 0.0:
                return U_from.copy()
            if t == 1.0:
                return U_to.copy()
            return scipy.linalg.expm(t * first) @ U_from
        return [stage]

    mid = scipy.linalg.expm(first) @ U_from

    def stage_one(t):
        if t == 0.0:
            return U_from.copy()
        return scipy.linalg.expm(t * first) @ U_from

    def stage_two(t):
        if t == 1.0:
            return U_to.copy()
        return scipy.linalg.expm(t * second) @ mid

    return [stage_one, stage_two]


def fullrank_tall_path(F_a, F_b, grid=None, seed=0):
    """Path of full-column-rank m x n matrices (m > n) between two such
    matrices, certified by the smallest singular value at every sample."""
    F_a = np.asarray(F_a, dtype=float)
    F_b = np.asarray(F_b, dtype=float)
    m, n = F_a.shape
    if F_b.shape != (m, n) or m <= n:
        raise ValueError("endpoints must share a tall m x n shape with m > n")
    for name, F in (("first", F_a), ("second", F_b)):
        if _min_sigma(F) < MIN_SIGMA:
            raise RankDeficient(f"{name} endpoint is rank deficient")
    rng = np.random.default_rng(seed)

    if np.array_equal(F_a, F_b):
        F_const = F_a.copy()
        stages = [lambda t: F_const]
    else:
        def polar_factor(F):
            U, _, Vt = np.linalg.svd(F, full_matrices=False)
            return U @ Vt

        def polar_line(F, ortho, reverse=False):
            def stage(t):
                tt = 1 - t if reverse else t
                if tt == 0.0:
                    return F.copy()
                if tt == 1.0:
                    return ortho.copy()
                return (1 - tt) * F + tt * ortho
            return stage

        U_a = polar_factor(F_a)
        U_b = polar_factor(F_b)
        E = np.vstack([np.eye(n), np.zeros((m - n, n))])
        stages = [polar_line(F_a, U_a)]
        stages += _stiefel_stages(U_a, E, rng)
        stages += _stiefel_stages(E, U_b, rng)
        stages.append(polar_line(F_b, U_b, reverse=True))

    sigmas = _Invariant("min_sigma", _min_sigma,
                        MIN_SIGMA, PathStalled, "minimum singular value",
                        floor=True)
    return _segment("fullrank-tall", stages, grid, sigmas)


# ---------------------------------------------------------------------------
# Full-column-rank repair of deep weights, output preserved.
# ---------------------------------------------------------------------------

def weight_fullrank_repair(arch, theta, X, seed=0, grid=None):
    """Path ending with all W_l, l >= 2, full column rank while the
    pre-softmax output table stays constant.

    Only the kernel-perturbation construction is implemented: a deficient
    layer whose upstream activation has a trivial kernel raises
    RepairUnavailable.
    """
    theta.check_shapes(arch)
    X = np.asarray(X, dtype=float)
    rng = np.random.default_rng(seed)
    slope = arch.leaky_slope
    hidden, _ = forward(arch, theta, X, return_hidden=True)
    current = theta.copy()
    stages = []
    for l in range(1, arch.depth):        # layer index l+1 in math terms
        W = current.weights[l]
        if rank_with_tol(W) == W.shape[1]:
            continue
        F_prev = hidden[l - 1]
        kernel = scipy.linalg.null_space(F_prev, rcond=1e-10)
        if kernel.shape[1] == 0:
            raise RepairUnavailable(
                f"layer {l + 1} is rank deficient but its input table has a "
                "trivial kernel; no output-preserving repair exists")
        for _ in range(REWIRE_TRIES):
            delta = kernel @ rng.normal(size=(kernel.shape[1], W.shape[1]))
            if rank_with_tol(W + delta) == W.shape[1]:
                break
        else:
            raise RepairUnavailable(
                f"layer {l + 1}: kernel perturbations failed to reach full rank")
        start = current.copy()
        end = current.copy()
        end.weights[l] = W + delta

        def stage(t, s=start, e=end, layer=l):
            if t == 0.0:
                return s.copy()
            if t == 1.0:
                return e.copy()
            theta_t = s.copy()
            theta_t.weights[layer] = (1 - t) * s.weights[layer] + t * e.weights[layer]
            return theta_t

        stages.append(stage)
        current = end
    if not stages:
        stages = [lambda t: current]

    ones = np.ones((X.shape[0], 1))

    def pre_softmax(th):
        h, _ = forward(arch, th, X, return_hidden=True)
        if arch.depth == 1:
            return X @ th.weights[0] + ones * th.biases[0][None, :]
        return h[-2] @ th.weights[-1] + ones * th.biases[-1][None, :]

    ref = pre_softmax(theta)
    drift = _Invariant("output_drift",
                       lambda p: np.max(np.abs(pre_softmax(p) - ref)),
                       LEMMA_DRIFT_TOL, OutputDrift, "repair drift")
    return _segment("weight-fullrank-repair", stages, grid, drift)


# ---------------------------------------------------------------------------
# Full path assembly between two policy networks.
# ---------------------------------------------------------------------------

def _lift(seg, embed=None, reverse=False):
    """``seg`` with its points mapped to full Thetas by ``embed`` and, with
    ``reverse``, travelled from its last point back to its first."""
    points = [embed(p) for p in seg.points] if embed else list(seg.points)
    alphas, residuals = seg.alphas.copy(), dict(seg.residuals)
    if reverse:
        alphas = 1.0 - seg.alphas[::-1]
        points = points[::-1]
        residuals = {k: v[::-1].copy() for k, v in seg.residuals.items()}
    return PathSegment(kind=seg.kind, alphas=alphas, points=points,
                       residuals=residuals, metadata=dict(seg.metadata))


def _theta_from_parts(first, second, deep):
    W1, b1 = first
    W2, b2 = second
    weights = [np.asarray(W1, dtype=float), np.asarray(W2, dtype=float)]
    biases = [np.asarray(b1, dtype=float), np.asarray(b2, dtype=float)]
    for W, b in deep:
        weights.append(np.asarray(W, dtype=float))
        biases.append(np.asarray(b, dtype=float))
    return Theta(weights=weights, biases=biases)


def _deep_layers(theta):
    return [(theta.weights[k], theta.biases[k])
            for k in range(2, len(theta.weights))]


def _prepare_endpoint(arch, X, theta, seed, grid):
    """Repair deep ranks, then restore first-layer activation rank.

    Returns (segments in travel order theta -> prepared, prepared Theta).
    """
    seg_repair = weight_fullrank_repair(arch, theta, X, seed=seed, grid=grid)
    theta_r = seg_repair.points[-1]
    seg_restore_raw = rank_restore_first_layer(
        X, theta_r.weights[0], theta_r.biases[0], theta_r.weights[1],
        arch.leaky_slope, seed=seed + 1, grid=grid)
    deep = _deep_layers(theta_r)
    b2 = theta_r.biases[1]

    def embed(point):
        W1, b1, V = point
        return _theta_from_parts((W1, b1), (V, b2), deep)

    seg_restore = _lift(seg_restore_raw, embed)
    theta_p = seg_restore.points[-1]
    return [seg_repair, seg_restore], theta_p


def assemble_nn_path(mdp, arch, X, theta_1, theta_2, rewards=None, grid=None,
                     seed=0, assembled_tol=ASSEMBLED_TOL):
    """Continuous parameter path from theta_1 to theta_2 along which the
    average reward never drops below the worse endpoint, simultaneously
    for every reward table supplied.

    The schedule of parameter snapshots depends only on the endpoints,
    the architecture, the MDP kernel, the grid, and the seed; rewards are
    used for certification only.  Raises BoundViolated or OutputDrift if
    a certified invariant fails (the construction guarantees both, so a
    failure indicates a bug or an assumption violation).
    """
    X = np.asarray(X, dtype=float)
    theta_1.check_shapes(arch)
    theta_2.check_shapes(arch)
    if arch.depth < 2:
        raise ValueError("need at least one hidden layer")
    report = check_assumptions(arch, X, n_actions=mdp.n_actions)
    if not (report.core_ok() and report.feature_table_full_row_rank):
        raise RankDeficient(f"architecture assumptions violated: {report}")
    rewards = [np.asarray(r, dtype=float) for r in (rewards or [])]
    slope = arch.leaky_slope
    pi_1 = forward(arch, theta_1, X)
    pi_2 = forward(arch, theta_2, X)

    prep_1, theta_1p = _prepare_endpoint(arch, X, theta_1, seed, grid)
    prep_2, theta_2p = _prepare_endpoint(arch, X, theta_2, seed + 100, grid)

    # Move the first layer of side 1 onto the (prepared) first layer of
    # side 2, keeping the product into layer 2 fixed.
    X_aug = _augment(X)
    Wb_1 = _stack(theta_1p.weights[0], theta_1p.biases[0])
    Wb_2 = _stack(theta_2p.weights[0], theta_2p.biases[0])
    seg_swap_raw = first_layer_swap(
        X_aug, Wb_1, theta_1p.weights[1], Wb_2, slope=slope,
        seed=seed + 200, grid=grid)
    deep_1 = _deep_layers(theta_1p)
    b2_1 = theta_1p.biases[1]

    def embed_swap(point):
        Wb, V = point
        return _theta_from_parts(_unstack(Wb), (V, b2_1), deep_1)

    seg_swap = _lift(seg_swap_raw, embed_swap)
    theta_1s = seg_swap.points[-1]

    # Everything downstream of the shared first layer is a policy network
    # on the activation table of that layer.
    first_shared = (theta_1s.weights[0], theta_1s.biases[0])
    F1 = sigma(X @ first_shared[0]
               + np.ones((X.shape[0], 1)) * first_shared[1][None, :], slope)
    sub_arch = NetArchitecture(widths=arch.widths[1:], leaky_slope=slope)

    def sub_theta(theta):
        return Theta(weights=theta.weights[1:], biases=theta.biases[1:])

    def embed_sub(theta_s):
        return Theta(weights=[first_shared[0]] + theta_s.weights,
                     biases=[first_shared[1]] + theta_s.biases)

    deep_2 = _deep_layers(theta_2p)

    def sub_with_h(layers, pi):
        W2, b2 = h_map(F1, [(W, b) for W, b in layers], pi, slope)
        return Theta(weights=[W2] + [W for W, _ in layers],
                     biases=[b2] + [b for _, b in layers])

    theta_1h_sub = sub_with_h(deep_1, pi_1)
    theta_2h_sub = sub_with_h(deep_2, pi_2)

    seg_chain_1 = _lift(
        preimage_chain_path(sub_arch, F1, sub_theta(theta_1s), theta_1h_sub,
                            grid=grid),
        embed_sub)

    # Each leg declares the output it must keep: the policy of the endpoint
    # on its side, or none for the tabular lift.
    legs = [(seg, pi_1) for seg in prep_1 + [seg_swap, seg_chain_1]]

    # Carry the deep weights from side 1 to side 2 through full-rank tall
    # matrices, re-solving the second layer so the output stays pinned.
    if deep_1:
        tall = [fullrank_tall_path(W_a, W_b, grid=grid, seed=seed + 300 + k)
                for k, ((W_a, _), (W_b, _)) in enumerate(zip(deep_1, deep_2))]
        # The tall paths are sampled on the same grid plus their own
        # joints, so they hold a point at every alpha of this one-stage leg.
        tall_at = [dict(zip(path.alphas.tolist(), path.points))
                   for path in tall]

        def h_swap_stage(t):
            layers_t = []
            for k, at in enumerate(tall_at):
                b_a, b_b = deep_1[k][1], deep_2[k][1]
                b_t = b_a if t == 0.0 else (b_b if t == 1.0
                                            else (1 - t) * b_a + t * b_b)
                layers_t.append((at[t], b_t))
            return embed_sub(sub_with_h(layers_t, pi_1))

        legs.append((_segment("weight-swap-with-h", [h_swap_stage], grid),
                     pi_1))

    # The only non-output-preserving leg: slide the realized policy along
    # the occupancy-blend path from pi_1 to pi_2.
    mu1 = stationary_distribution(transition_matrix(mdp, pi_1)).mu
    mu2 = stationary_distribution(transition_matrix(mdp, pi_2)).mu

    def lift_stage(t):
        pi_t = interpolate_policies(mdp, pi_1, pi_2, 1.0 - t, mu1=mu1, mu2=mu2)
        return embed_sub(sub_with_h(deep_2, pi_t))

    legs.append((_segment("tabular-lift", [lift_stage], grid), None))

    seg_chain_2 = _lift(
        preimage_chain_path(sub_arch, F1, theta_2h_sub, sub_theta(theta_2p),
                            grid=grid),
        embed_sub)
    side_2 = [seg_chain_2] + [_lift(s, reverse=True) for s in reversed(prep_2)]
    legs += [(seg, pi_2) for seg in side_2]
    segments = [seg for seg, _ in legs]

    # Certification in one pass, one stacked step per leg: one forward over
    # the leg's snapshots feeds the drift check of an output-preserving leg
    # and one occupancy solve, which gives the value of every reward.
    floor = None
    margins = None
    if rewards:
        R = np.reshape(rewards, (len(rewards), pi_1.size))
        mu_hat1 = mu1[:, None] * pi_1
        mu_hat2 = mu2[:, None] * pi_2
        ends = np.array([(R * mu_hat1.ravel()).sum(axis=1),
                         (R * mu_hat2.ravel()).sum(axis=1)])
        floor = ends.min(axis=0)
        margins = np.full(len(rewards), np.inf)
        dips = [None] * len(rewards)  # per reward, where its margin was set
    drift_max = 0.0
    for seg, pinned in legs:
        if pinned is None and not rewards:
            continue
        outputs = forward(arch, Theta.stack(seg.points), X)
        if pinned is not None:
            residual = np.abs(outputs - pinned).max(axis=(1, 2))
            i = int(residual.argmax())
            if residual[i] > assembled_tol:
                raise OutputDrift(
                    f"assembled output drift {residual[i]:.3e} exceeds "
                    f"{assembled_tol}{_at(seg, i)}")
            seg.residuals["output_drift"] = residual
            drift_max = max(drift_max, float(residual[i]))
        if rewards:
            try:
                occ = occupancy(mdp, outputs)
            except NonConvergence as exc:
                exc.args = (f"{exc}{_at(seg, exc.chain)}",)
                raise
            values = (R * occ.reshape(len(occ), 1, -1)).sum(axis=-1)
            seg.residuals["values"] = values
            low = values.min(axis=0) - floor
            lowest = values.argmin(axis=0)
            for j in np.flatnonzero(low < margins):
                dips[j] = (seg, lowest[j])
            margins = np.minimum(margins, low)
    if rewards:
        worst = int(np.argmin(margins))
        if margins[worst] < -assembled_tol:
            seg, i = dips[worst]
            raise BoundViolated(
                f"value dropped {-margins[worst]:.3e} below the endpoint floor "
                f"for reward {worst}{_at(seg, i)}",
                alpha=float(seg.alphas[i]), reward_index=worst)

    certificate = {
        "segment_kinds": [s.kind for s in segments],
        "max_output_drift": drift_max,
        "value_floor": None if floor is None else floor.tolist(),
        "value_margins": None if margins is None else margins.tolist(),
        "n_rewards": len(rewards),
        "verdict": True,
    }
    return SegmentedPath(segments=segments, theta_start=theta_1,
                         theta_end=theta_2, certificate=certificate)

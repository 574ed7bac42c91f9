"""Continuous parameter-space paths between policy networks.

The path between two networks is a concatenation of segments, as in the
paper's lemmas.  A segment is a kind, a list of stages (maps t in [0, 1]
-> parameters, joined end to end with equal lengths) and a declared
invariant: a residual sampled at every point, with the bound it must keep.
The output-preserving segments are full-rank repairs, first-layer rank
restoration and swap, pseudo-inverse preimage moves and full-rank tall
matrix paths; one "tabular lift" segment carries the network output along
the occupancy-blend policy path, which is where the value bound comes
from.  Each move is written once: every straight-line stage is ``_line``,
every rotation of one orthonormal frame into another is one ``_rotation``
stage, whose real logarithm comes from the real Schur form of the
rotation, and both first-layer builders raise the rank of an activation
column block by the one transfer-and-rewire routine, ``_raise_rank``.  One
pull-back, ``_pull_back``, serves ``h_map`` and the preimage
moves: a pre-softmax table goes down a fixed full-rank chain through each
layer's pseudo-inverse and activation inverse, then onto the input table.
A leg whose chain stays fixed takes that chain's pseudo-inverses and rank
checks once, not at every snapshot; only the weight-swap leg, whose tall
layers move, takes them per snapshot.  Each builder measures its invariant
over all of a segment's samples in one stacked call.  The assembled path
is certified in one pass, one stacked step per leg: a single forward
evaluation of all the leg's snapshots feeds both the output-drift check
and one stacked occupancy solve, which gives the value of every reward.
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
                      pre_softmax, sigma, sigma_inv, softmax_inv_rows)
from .numerics import pinv, rank_with_tol
from .tabular import interpolate_policies, uniform_grid

SEGMENT_TOL = 1e-7
LEMMA_DRIFT_TOL = 1e-8
ASSEMBLED_TOL = 1e-6
MIN_SIGMA = 1e-9
RANK_SIGMA_FRAC = 1e-6
REWIRE_TRIES = 50


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
    an upper bound, or a lower bound when ``floor`` is set.  ``measure``
    maps the list of samples to the array of their residuals in one
    stacked evaluation."""

    name: str
    measure: Callable
    tol: float
    error: type
    label: str
    floor: bool = False

    def check(self, samples):
        """The residual at each sample; raises ``error`` past the bound."""
        residual = self.measure(samples)
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


def _max_abs_gap(tables, ref):
    """Largest entry of |table - ref| for each table of a stack."""
    return np.abs(tables - ref).max(axis=(-2, -1))


def _stack_points(points):
    """Tuple points of arrays as one tuple of stacked arrays."""
    return tuple(np.stack(parts) for parts in zip(*points))


def _line(a, b):
    """The straight stage from ``a`` to ``b``, two arrays or two tuples of
    arrays: exact copies at t = 0 and t = 1, so adjacent stages meet
    bitwise, and (1 - t) a + t b in between."""
    if isinstance(a, tuple):
        lines = [_line(x, y) for x, y in zip(a, b)]
        return lambda t: tuple(line(t) for line in lines)

    def stage(t):
        if t == 0.0:
            return a.copy()
        if t == 1.0:
            return b.copy()
        return (1 - t) * a + t * b
    return stage


def _check_full_column_rank(W, name):
    if rank_with_tol(W) < W.shape[1]:
        raise RankDeficient(f"{name} must have full column rank")


def _min_sigma(T):
    s = np.linalg.svd(T, compute_uv=False)
    return float(s[-1]) if s.size else 0.0


def _target_logits(pi):
    """The row-centred pre-softmax table of a strictly positive policy."""
    pi = np.asarray(pi, dtype=float)
    if np.any(pi <= 0):
        raise NonPositivePolicy("target policy must be strictly positive")
    return softmax_inv_rows(pi)


def _input_inverse(M1):
    """``pinv`` of the ones-augmented input table, which must have full
    row rank."""
    if rank_with_tol(M1) < M1.shape[0]:
        raise RankDeficient("input table (with ones column appended) must have "
                            "full row rank")
    return pinv(M1)


def _chain_inverses(layers):
    """``pinv`` of each weight of a fixed chain (forward order), after
    checking from the last layer down that each has full column rank."""
    for k in reversed(range(len(layers))):
        _check_full_column_rank(np.asarray(layers[k][0], dtype=float),
                                f"chain weight {k + 1}")
    return [pinv(W) for W, _ in layers]


def _pull_back(layers, inverses, B, slope, nulls):
    """(W, b) on the ones-augmented input table under which the fixed
    chain ``layers`` (forward order) emits the pre-softmax table ``B``.
    ``inverses`` holds the pseudo-inverse of each layer's weight, then the
    one of the input table; a caller whose chain stays fixed takes them
    once.  ``nulls`` is None or the null-space parts to add back: one after
    each layer's pseudo-inverse, then one to the stacked (W, b)."""
    ones = np.ones((B.shape[0], 1))
    for k in reversed(range(len(layers))):
        b = np.asarray(layers[k][1], dtype=float)
        B = (B - ones * b[None, :]) @ inverses[k]
        if nulls is not None:
            B = B + nulls[k]
        B = sigma_inv(B, slope)
    Wb = inverses[-1] @ B
    return _unstack(Wb if nulls is None else Wb + nulls[-1])


def h_map(M, layers, pi, slope):
    """Reconstruct the layer feeding a fixed full-rank chain so the chain
    emits the policy ``pi`` on input table ``M``.

    ``layers`` is the fixed chain in forward order; the last entry feeds
    the softmax.  An empty chain means the produced layer is the softmax
    layer itself.  Returns (W, b).
    """
    logits = _target_logits(pi)
    M_inv = _input_inverse(_augment(M))
    return _pull_back(layers, _chain_inverses(layers) + [M_inv], logits,
                      slope, None)


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

def _first_layer_coordinates(arch, X, theta, inverses):
    """Split the first layer into the pre-softmax table and the null-space
    parts that ``_pull_back`` through layers 2..L adds back: one per fixed
    layer, then the one of the stacked (W_1, b_1).  ``inverses`` are the
    pull-back's pseudo-inverses of layers 2..L and of the input table."""
    hidden, logits = pre_softmax(arch, theta, X)
    ones = np.ones((X.shape[0], 1))
    nulls = []
    upper = logits
    for l in range(arch.depth - 2, -1, -1):
        A = (upper - ones * theta.biases[l + 1][None, :]) @ inverses[l]
        nulls.insert(0, hidden[l] - A)
        upper = sigma_inv(hidden[l], arch.leaky_slope)
    nulls.append(_stack(theta.weights[0], theta.biases[0])
                 - inverses[-1] @ upper)
    return logits, nulls


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
    # The chain is fixed along the leg: its pseudo-inverses are taken once.
    layers = list(zip(theta_a.weights[1:], theta_a.biases[1:]))
    inverses = [pinv(W) for W, _ in layers] + [pinv(_augment(X))]
    logits_a, nulls_a = _first_layer_coordinates(arch, X, theta_a, inverses)
    logits_b, nulls_b = _first_layer_coordinates(arch, X, theta_b, inverses)

    def stage(t):
        if t == 0.0:
            return theta_a.copy()
        if t == 1.0:
            return theta_b.copy()
        nulls = [(1 - t) * na + t * nb for na, nb in zip(nulls_a, nulls_b)]
        W1, b1 = _pull_back(layers, inverses,
                            (1 - t) * logits_a + t * logits_b, slope, nulls)
        theta = theta_a.copy()
        theta.weights[0] = W1
        theta.biases[0] = b1
        return theta

    drift = _Invariant("output_drift",
                       lambda ps: _max_abs_gap(
                           forward(arch, Theta.stack(ps), X), pi_ref),
                       SEGMENT_TOL, OutputDrift, "preimage chain drift")
    return _segment("preimage-chain", [stage], grid, drift,
                    metadata={"pi_ref": pi_ref})


# ---------------------------------------------------------------------------
# Rank restoration of the first-layer activation table.
# ---------------------------------------------------------------------------

def _dependent_column(T):
    """A column of T expressible by the others, with its coefficients.

    Returns (j, c, others) where T[:, j] ~= T[:, others] @ c, or None.
    """
    n_cols = T.shape[1]
    scale = max(1.0, float(np.linalg.norm(T)))
    best = None
    for j in range(n_cols):
        others = [i for i in range(n_cols) if i != j]
        c, res, *_ = np.linalg.lstsq(T[:, others], T[:, j], rcond=None)
        residual = float(np.linalg.norm(T[:, others] @ c - T[:, j]))
        if best is None or residual < best[2]:
            best = (j, np.asarray(c), residual, others)
    if best is None or best[2] > 1e-9 * scale:
        return None
    return best[0], best[1], best[3]


def _raise_rank(activation, first, V, block, rng, error):
    """Transfer-and-rewire rounds until the columns ``block`` of the
    activation table ``activation(*first)`` reach full row rank, with the
    product ``activation(*first) @ V`` fixed throughout.

    ``first`` is the first layer as a tuple of arrays whose last axis runs
    over the neurons.  A round takes a column j of the block that the
    block's other columns express, moves j's share of the product onto them
    (a V-move), then rewires j's incoming weights at random until the
    block's rank rises (j's output row is zero, so the product stays put).
    Dependence is measured inside the block: a column that only columns
    outside it express adds to the block's rank, so rewiring it cannot
    raise that rank.  Returns the stages, two per round, with points
    (*first, V), and the final ``first`` and V.
    """
    stages = []
    T = activation(*first)
    rank = rank_with_tol(T[:, block], RANK_SIGMA_FRAC)
    while rank < T.shape[0]:
        if len(stages) == 2 * T.shape[1]:
            raise error("rank raising exceeded its round cap")
        dep = _dependent_column(T[:, block])
        if dep is None:
            raise error("no redundant activation column in the block")
        j, coeffs, others = dep
        j, others = block[j], [block[i] for i in others]
        V_end = V.copy()
        V_end[others] = V[others] + coeffs[:, None] * V[j][None, :]
        V_end[j] = 0.0
        stages.append(_line((*first, V), (*first, V_end)))
        V = V_end
        for _ in range(REWIRE_TRIES):
            rewired = tuple(a.copy() for a in first)
            for a in rewired:
                a[..., j] = rng.normal(size=a.shape[:-1])
            T = activation(*rewired)
            raised = rank_with_tol(T[:, block], RANK_SIGMA_FRAC)
            if raised > rank:
                break
        else:
            raise error("rewiring failed to raise the block rank")
        stages.append(_line((*first, V), (*rewired, V)))
        first, rank = rewired, raised
    return stages, first, V


def rank_restore_first_layer(X, W1, b1, V, slope, seed=0, grid=None):
    """Path ending with a full-row-rank first-layer activation table,
    keeping the product Z = sigma(X W1 + 1 b1^T) V constant throughout."""
    X = np.asarray(X, dtype=float)
    W1 = np.asarray(W1, dtype=float).copy()
    b1 = np.asarray(b1, dtype=float).copy()
    V = np.asarray(V, dtype=float).copy()
    ones = np.ones((X.shape[0], 1))

    def activation(W, b):
        return sigma(X @ W + ones * b[..., None, :], slope)

    Z0 = activation(W1, b1) @ V
    stages, (W1, b1), V = _raise_rank(
        activation, (W1, b1), V, list(range(W1.shape[1])),
        np.random.default_rng(seed), RestorationStalled)
    rounds = len(stages) // 2
    if not stages:
        stages = [lambda t: (W1, b1, V)]

    def product_drift(points):
        W, b, V = _stack_points(points)
        return _max_abs_gap(activation(W, b) @ V, Z0)

    drift = _Invariant("product_drift", product_drift,
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

    def activation(Wm):
        return sigma(X @ Wm, slope)

    T = activation(W)
    T_target = activation(W_target)
    for name, table in (("source", T), ("target", T_target)):
        if rank_with_tol(table, RANK_SIGMA_FRAC) < n_states:
            raise RankDeficient(f"{name} activation table must have rank {n_states}")
    Z0 = T @ V

    def product_drift(points):
        Wm, Vm = _stack_points(points)
        return _max_abs_gap(activation(Wm) @ Vm, Z0)

    drift = _Invariant("product_drift", product_drift,
                       LEMMA_DRIFT_TOL, OutputDrift, "swap product drift")
    if np.array_equal(W, W_target):
        return _segment("first-layer-swap", [lambda t: (W, V)], grid, drift)

    target_block = _pivot_columns(T_target, n_states)
    keep_block = [j for j in range(n1) if j not in target_block]

    # Make the kept block of the source activation full rank.
    stages, (W,), V = _raise_rank(activation, (W,), V, keep_block,
                                  np.random.default_rng(seed), SwapFailed)
    T = activation(W)

    # Stage 1: concentrate the product on the kept block.
    C, *_ = np.linalg.lstsq(T[:, keep_block], T[:, target_block], rcond=None)
    V_end = V.copy()
    V_end[keep_block] = V[keep_block] + C @ V[target_block]
    V_end[target_block] = 0.0
    stages.append(_line((W, V), (W, V_end)))
    V = V_end

    # Stage 2: rewire the freed block to the target weights.
    W_end = W.copy()
    W_end[:, target_block] = W_target[:, target_block]
    stages.append(_line((W, V), (W_end, V)))
    W = W_end
    T = activation(W)

    # Stage 3: move the product onto the rewired block.
    D = np.linalg.solve(T[:, target_block], T[:, keep_block])
    V_end = V.copy()
    V_end[target_block] = D @ V[keep_block]
    V_end[keep_block] = 0.0
    stages.append(_line((W, V), (W, V_end)))
    V = V_end

    # Stage 4: rewire the kept block to the target weights.
    stages.append(_line((W, V), (W_target, V)))

    seg = _segment("first-layer-swap", stages, grid, drift)
    if not np.array_equal(seg.points[-1][0], W_target):
        raise SwapFailed("terminal weights do not equal the target")
    return seg


# ---------------------------------------------------------------------------
# Connectivity of full-column-rank tall matrices.
# ---------------------------------------------------------------------------

def _orthogonal_completion(U):
    comp = scipy.linalg.null_space(U.T)
    return np.hstack([U, comp])


def _rotation(U_from, U_to):
    """The stage expm(t L) U_from rotating one orthonormal frame into
    another inside SO(m): exactly U_from at t = 0 and U_to at t = 1.

    L is the real logarithm of the rotation Q taking the completed frame
    of U_from to that of U_to, read off the real Schur form Q = Z T Z^T.
    Q is normal, so T is block diagonal: a 2 x 2 block [[c, -s], [s, c]]
    turns its plane by atan2(s, c), and the 1 x 1 blocks equal to -1, even
    in number because det Q = +1, pair into turns by pi.
    """
    A = _orthogonal_completion(U_from)
    B = _orthogonal_completion(U_to)
    # Adjust so the rotation taking U_from to U_to is special orthogonal;
    # the completion columns are free because only the first n columns of
    # B A^T act on U_from.
    if np.linalg.det(B) * np.linalg.det(A) < 0:
        B[:, -1] = -B[:, -1]
    T, Z = scipy.linalg.schur(B @ A.T, output="real")
    starts = np.flatnonzero(np.diag(T, -1))        # of the 2 x 2 blocks
    lone = np.setdiff1d(np.arange(len(T)), np.concatenate([starts, starts + 1]))
    flipped = lone[np.diag(T)[lone] < 0.0]         # the -1 entries
    L = np.zeros_like(T)
    L[starts + 1, starts] = np.arctan2(T[starts + 1, starts], T[starts, starts])
    L[flipped[1::2], flipped[0::2]] = np.pi
    L = Z @ (L - L.T) @ Z.T
    if np.abs(scipy.linalg.expm(L) @ U_from - U_to).max() > 1e-8:
        raise PathStalled("could not compute a usable rotation logarithm")

    def stage(t):
        if t == 0.0:
            return U_from.copy()
        if t == 1.0:
            return U_to.copy()
        return scipy.linalg.expm(t * L) @ U_from
    return stage


def fullrank_tall_path(F_a, F_b, grid=None):
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

    if np.array_equal(F_a, F_b):
        F_const = F_a.copy()
        stages = [lambda t: F_const]
    else:
        def polar_factor(F):
            U, _, Vt = np.linalg.svd(F, full_matrices=False)
            return U @ Vt

        U_a = polar_factor(F_a)
        U_b = polar_factor(F_b)
        E = np.vstack([np.eye(n), np.zeros((m - n, n))])
        # The last stage is the line from F_b to its polar factor, travelled
        # backwards, so its points are bitwise those of that line.
        back = _line(F_b, U_b)
        stages = [_line(F_a, U_a), _rotation(U_a, E), _rotation(E, U_b),
                  lambda t: back(1 - t)]

    sigmas = _Invariant("min_sigma",
                        lambda Fs: np.linalg.svd(np.stack(Fs),
                                                 compute_uv=False)[:, -1],
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
    hidden, ref = pre_softmax(arch, theta, X)
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
        line = _line(W, W + delta)

        def stage(t, s=current, line=line, layer=l):
            theta_t = s.copy()
            theta_t.weights[layer] = line(t)
            return theta_t

        stages.append(stage)
        current = stage(1.0)
    if not stages:
        stages = [lambda t: current]

    drift = _Invariant("output_drift",
                       lambda ps: _max_abs_gap(
                           pre_softmax(arch, Theta.stack(ps), X)[1], ref),
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

    def embed(point):
        W1, b1, V = point
        return Theta(weights=[W1, V] + theta_r.weights[2:],
                     biases=[b1] + theta_r.biases[1:])

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

    def embed_swap(point):
        Wb, V = point
        W1, b1 = _unstack(Wb)
        return Theta(weights=[W1, V] + theta_1p.weights[2:],
                     biases=[b1] + theta_1p.biases[1:])

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

    deep_1 = _deep_layers(theta_1p)
    deep_2 = _deep_layers(theta_2p)

    def sub_with_h(layers, inverses, logits):
        """``h_map`` on F1: the layer feeding ``layers`` that emits
        ``logits``, given the chain's pseudo-inverses."""
        W2, b2 = _pull_back(layers, inverses + [F1_inv], logits, slope, None)
        return Theta(weights=[W2] + [W for W, _ in layers],
                     biases=[b2] + [b for _, b in layers])

    # h_map's checks in its order, with F1's row rank, its pseudo-inverse
    # and the fixed chains' ones taken once per assembly.
    logits_1 = _target_logits(pi_1)
    F1_inv = _input_inverse(_augment(F1))
    theta_1h_sub = sub_with_h(deep_1, _chain_inverses(deep_1), logits_1)
    logits_2 = _target_logits(pi_2)
    inverses_2 = _chain_inverses(deep_2)
    theta_2h_sub = sub_with_h(deep_2, inverses_2, logits_2)

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
        tall = [fullrank_tall_path(W_a, W_b, grid=grid)
                for (W_a, _), (W_b, _) in zip(deep_1, deep_2)]
        # The tall paths are sampled on the same grid plus their own
        # joints, so they hold a point at every alpha of this one-stage leg.
        tall_at = [dict(zip(path.alphas.tolist(), path.points))
                   for path in tall]
        bias_lines = [_line(b_a, b_b)
                      for (_, b_a), (_, b_b) in zip(deep_1, deep_2)]

        def h_swap_stage(t):
            layers_t = [(at[t], line(t))
                        for at, line in zip(tall_at, bias_lines)]
            # The tall layers move with t: their ranks and pseudo-inverses
            # are taken at every snapshot.
            return embed_sub(sub_with_h(layers_t, _chain_inverses(layers_t),
                                        logits_1))

        legs.append((_segment("weight-swap-with-h", [h_swap_stage], grid),
                     pi_1))

    # The only non-output-preserving leg: slide the realized policy along
    # the occupancy-blend path from pi_1 to pi_2.
    mu1 = stationary_distribution(transition_matrix(mdp, pi_1)).mu
    mu2 = stationary_distribution(transition_matrix(mdp, pi_2)).mu

    def lift_stage(t):
        pi_t = interpolate_policies(mdp, pi_1, pi_2, 1.0 - t, mu1=mu1, mu2=mu2)
        return embed_sub(sub_with_h(deep_2, inverses_2, _target_logits(pi_t)))

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

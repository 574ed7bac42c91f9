"""Tests for the network parameter-space path segments and their assembly."""

import itertools

import numpy as np
import pytest
import scipy.linalg

from policypaths import netpaths
from policypaths.errors import (BoundViolated, NonConvergence,
                                NonPositivePolicy, OutputDrift, PathStalled,
                                RankDeficient, RepairUnavailable)
from policypaths.mdp import (Mdp, average_reward, deterministic_policy,
                             occupancy, random_ergodic_mdp,
                             stationary_distribution, transition_matrix)
from policypaths.netpaths import (assemble_nn_path, canonical_layers,
                                  first_layer_swap, fullrank_tall_path, h_map,
                                  preimage_chain_path, rank_restore_first_layer,
                                  realize_policy, weight_fullrank_repair)
from policypaths.network import (NetArchitecture, Theta, forward,
                                 one_hot_features, random_theta, sigma)
from policypaths.numerics import rank_with_tol
from policypaths.tabular import interpolate_policies, uniform_grid

ARCH = NetArchitecture(widths=(3, 6, 4, 2))
X3 = one_hot_features(3)
SLOPE = ARCH.leaky_slope


def sub_forward(M, W, b, layers, slope):
    """Forward pass of (W, b) followed by a fixed chain ending in softmax."""
    arch = NetArchitecture(
        widths=(M.shape[1], W.shape[1]) + tuple(w.shape[1] for w, _ in layers),
        leaky_slope=slope)
    theta = Theta(weights=[W] + [w for w, _ in layers],
                  biases=[b] + [bb for _, bb in layers])
    return forward(arch, theta, M)


def test_h_map_uniform_policy_zero_chain():
    # empty chain: the produced layer feeds the softmax directly, and the
    # uniform policy has all-zero centered logits
    pi = np.full((3, 2), 0.5)
    W, b = h_map(X3, [], pi, SLOPE)
    logits = X3 @ W + b[None, :]
    assert np.max(np.abs(logits)) < 1e-12


def test_h_map_round_trip_random_chain():
    rng = np.random.default_rng(0)
    layers = canonical_layers(ARCH, 0)
    pi = rng.dirichlet(np.ones(2), size=3)
    W, b = h_map(X3, layers, pi, SLOPE)
    out = sub_forward(X3, W, b, layers, SLOPE)
    assert np.max(np.abs(out - pi)) < 1e-8


def test_h_map_rejects_rank_deficient_chain():
    layers = canonical_layers(ARCH, 1)
    W0 = layers[0][0].copy()
    W0[:, 1] = W0[:, 0]
    W0[:, 2] = W0[:, 0]
    W0[:, 3] = W0[:, 0]
    bad = [(W0, layers[0][1]), layers[1]]
    with pytest.raises(RankDeficient):
        h_map(X3, bad, np.full((3, 2), 0.5), SLOPE)


def test_h_map_rejects_nonpositive_policy():
    with pytest.raises(NonPositivePolicy):
        h_map(X3, [], np.array([[1.0, 0.0]] * 3), SLOPE)


def test_realize_policy_uniform():
    theta = realize_policy(ARCH, X3, canonical_layers(ARCH, 2),
                           np.full((3, 2), 0.5))
    assert np.max(np.abs(forward(ARCH, theta, X3) - 0.5)) < 1e-10


def test_realize_policy_batch_round_trip():
    rng = np.random.default_rng(3)
    layers = canonical_layers(ARCH, 3)
    worst = 0.0
    for _ in range(50):
        pi = rng.dirichlet(np.ones(2), size=3)
        theta = realize_policy(ARCH, X3, layers, pi)
        worst = max(worst, float(np.max(np.abs(forward(ARCH, theta, X3) - pi))))
    assert worst <= 1e-8


def test_realize_policy_floored_optimum_value_shift():
    mdp = random_ergodic_mdp(4, 3, 2)
    rng = np.random.default_rng(4)
    pi = rng.dirichlet(np.ones(2), size=3)
    eps = 1e-6
    pi_floor = np.maximum(pi, eps)
    pi_floor /= pi_floor.sum(axis=1, keepdims=True)
    theta = realize_policy(ARCH, X3, canonical_layers(ARCH, 4), pi_floor,
                           floor=eps / 2)
    gap = abs(average_reward(mdp, forward(ARCH, theta, X3))
              - average_reward(mdp, pi))
    assert gap <= mdp.reward_bound * 3 * 2 * eps * 10


def test_preimage_chain_constant_when_endpoints_equal():
    theta = random_theta(ARCH, 5)
    seg = preimage_chain_path(ARCH, X3, theta, theta.copy())
    assert seg.max_residual("output_drift") < 1e-12
    # endpoints bitwise, interior points reconstructed up to rounding
    assert np.array_equal(seg.points[0].flat(), theta.flat())
    assert np.array_equal(seg.points[-1].flat(), theta.flat())
    for p in seg.points:
        assert np.max(np.abs(p.flat() - theta.flat())) < 1e-9


def test_preimage_chain_to_canonical_h_map():
    rng = np.random.default_rng(6)
    theta_a = random_theta(ARCH, 6)
    pi_ref = forward(ARCH, theta_a, X3)
    layers = [(theta_a.weights[k], theta_a.biases[k])
              for k in range(1, ARCH.depth)]
    W1, b1 = h_map(X3, layers, pi_ref, SLOPE)
    theta_b = theta_a.copy()
    theta_b.weights[0] = W1
    theta_b.biases[0] = b1
    seg = preimage_chain_path(ARCH, X3, theta_a, theta_b,
                              grid=uniform_grid(101))
    assert seg.max_residual("output_drift") <= 1e-7
    assert np.array_equal(seg.points[0].flat(), theta_a.flat())
    assert np.array_equal(seg.points[-1].flat(), theta_b.flat())


def test_preimage_chain_kernel_perturbation_is_straight_line():
    # perturb (W_1, b_1) inside the kernel of [X, 1]: the pre-activations
    # are untouched, so the path is the straight parameter line
    rng = np.random.default_rng(7)
    wide = NetArchitecture(widths=(5, 8, 4, 2))
    X = one_hot_features(3, 5)        # 3 states, feature width 5
    theta_a = random_theta(wide, 7)
    X_aug = np.hstack([X, np.ones((3, 1))])
    import scipy.linalg
    kernel = scipy.linalg.null_space(X_aug)
    assert kernel.shape[1] > 0
    delta = kernel @ rng.normal(size=(kernel.shape[1], 8))
    theta_b = theta_a.copy()
    theta_b.weights[0] = theta_a.weights[0] + delta[:-1]
    theta_b.biases[0] = theta_a.biases[0] + delta[-1]
    seg = preimage_chain_path(wide, X, theta_a, theta_b)
    ones = np.ones((3, 1))
    pre_a = X @ theta_a.weights[0] + ones * theta_a.biases[0][None, :]
    for p in seg.points:
        pre = X @ p.weights[0] + ones * p.biases[0][None, :]
        assert np.max(np.abs(pre - pre_a)) < 1e-12


def test_preimage_chain_depth_one_network():
    # a (3, 2) network has no fixed chain: the pull-back is the input
    # table's pseudo-inverse alone, and the blend of the pre-softmax
    # table and the kernel part of (W_1, b_1) is the straight line
    shallow = NetArchitecture(widths=(3, 2))
    theta_a = random_theta(shallow, 8)
    W1, b1 = h_map(X3, [], forward(shallow, theta_a, X3), SLOPE)
    theta_b = Theta(weights=[W1], biases=[b1])
    seg = preimage_chain_path(shallow, X3, theta_a, theta_b,
                              grid=uniform_grid(41))
    assert seg.kind == "preimage-chain"
    assert seg.max_residual("output_drift") <= 1e-7
    assert np.array_equal(seg.points[0].flat(), theta_a.flat())
    assert np.array_equal(seg.points[-1].flat(), theta_b.flat())
    for alpha, p in zip(seg.alphas, seg.points):
        line = (1 - alpha) * theta_a.flat() + alpha * theta_b.flat()
        assert np.max(np.abs(p.flat() - line)) < 1e-12


def degenerate_first_layer(rng, n_states, n1, rank_drop):
    """First layer whose activation table has rank n_states - rank_drop."""
    X = one_hot_features(n_states)
    while True:
        W = rng.normal(size=(n_states, n1))
        b = rng.normal(size=n1)
        T = sigma(X @ W + np.ones((n_states, 1)) * b[None, :], SLOPE)
        U, s, Vt = np.linalg.svd(T, full_matrices=False)
        s[n_states - rank_drop:] = 0.0
        T_low = U @ np.diag(s) @ Vt
        # invert the activation row-wise to get parameters reproducing T_low
        from policypaths.network import sigma_inv
        pre = sigma_inv(T_low, SLOPE)
        sol, *_ = np.linalg.lstsq(np.hstack([X, np.ones((n_states, 1))]),
                                  pre, rcond=None)
        W_low, b_low = sol[:-1], sol[-1]
        T_check = sigma(X @ W_low + np.ones((n_states, 1)) * b_low[None, :],
                        SLOPE)
        s_check = np.linalg.svd(T_check, compute_uv=False)
        if s_check[n_states - rank_drop - 1] > 1e-3 \
                and s_check[n_states - rank_drop] < 1e-10:
            return X, W_low, b_low


def test_rank_restore_already_full_rank_is_constant():
    rng = np.random.default_rng(8)
    W = rng.normal(size=(3, 6))
    b = rng.normal(size=6)
    V = rng.normal(size=(6, 4))
    seg = rank_restore_first_layer(X3, W, b, V, SLOPE)
    assert seg.metadata["rounds"] == 0
    assert seg.max_residual("product_drift") == 0.0


def test_rank_restore_duplicate_neuron():
    rng = np.random.default_rng(9)
    while True:
        W = rng.normal(size=(3, 6))
        W[:, 1] = W[:, 0]
        W[:, 2] = W[:, 0]
        W[:, 3] = W[:, 0]
        W[:, 4] = W[:, 0]
        W[:, 5] = W[:, 0]
        b = np.full(6, float(rng.normal()))
        T = sigma(X3 @ W + np.ones((3, 1)) * b[None, :], SLOPE)
        if np.linalg.matrix_rank(T) == 1:
            break
    V = rng.normal(size=(6, 4))
    seg = rank_restore_first_layer(X3, W, b, V, SLOPE, seed=1)
    assert seg.max_residual("product_drift") <= 1e-9
    assert seg.metadata["terminal_rank"] == 3


def test_rank_restore_random_degenerate():
    rng = np.random.default_rng(10)
    X, W, b = degenerate_first_layer(rng, 3, 6, rank_drop=2)
    V = rng.normal(size=(6, 4))
    seg = rank_restore_first_layer(X, W, b, V, SLOPE, seed=2)
    assert seg.metadata["terminal_rank"] == 3
    assert seg.max_residual("product_drift") <= 1e-8
    assert seg.metadata["rounds"] <= 6


def test_rank_restore_near_duplicate_neuron():
    # Rows 0 and 1 of W differ by 1e-8, so the activation table's third
    # singular ratio (about 5e-10) lies between the 1e-10 cut of
    # rank_with_tol and RANK_SIGMA_FRAC = 1e-6.  The rewiring must compare
    # ranks at one tolerance, or no try can raise the rank.
    rng = np.random.default_rng(0)
    W = rng.normal(size=(3, 6))
    noise = rng.normal(size=6)
    W[1] = W[0] + 1e-8 * noise
    b = np.abs(noise) + 5.0             # every preactivation positive
    V = rng.normal(size=(6, 2))
    seg = rank_restore_first_layer(np.eye(3), W, b, V, SLOPE)
    assert seg.metadata["terminal_rank"] == 3
    assert seg.max_residual("product_drift") <= 1e-8


def augmented(X):
    return np.hstack([X, np.ones((X.shape[0], 1))])


def test_first_layer_swap_identity_target():
    rng = np.random.default_rng(11)
    Xa = augmented(X3)
    W = rng.normal(size=(4, 6))
    V = rng.normal(size=(6, 4))
    seg = first_layer_swap(Xa, W, V, W.copy(), slope=SLOPE)
    assert seg.max_residual("product_drift") == 0.0


def test_first_layer_swap_permuted_target():
    rng = np.random.default_rng(12)
    Xa = augmented(X3)
    W = rng.normal(size=(4, 6))
    V = rng.normal(size=(6, 4))
    perm = rng.permutation(6)
    W_target = W[:, perm]
    seg = first_layer_swap(Xa, W, V, W_target, slope=SLOPE, seed=3)
    assert seg.max_residual("product_drift") <= 1e-10
    assert np.array_equal(seg.points[-1][0], W_target)


def test_first_layer_swap_random_pair_minimum_width():
    rng = np.random.default_rng(13)
    Xa = augmented(X3)          # 3 states, n1 = 6 = 2|S| exactly
    for trial in range(5):
        W = rng.normal(size=(4, 6))
        V = rng.normal(size=(6, 4))
        W_target = rng.normal(size=(4, 6))
        seg = first_layer_swap(Xa, W, V, W_target, slope=SLOPE, seed=trial)
        assert seg.max_residual("product_drift") <= 1e-8
        assert np.array_equal(seg.points[-1][0], W_target)


@pytest.mark.parametrize("n_states", [3, 4])
def test_first_layer_swap_duplicate_kept_neurons(n_states):
    # Every kept neuron (the complement of the target's pivot columns) is a
    # copy of one, so the kept block has rank 1 and the swap takes
    # rank-raising rounds.  Dependence must be measured inside the kept
    # block: a kept column that only the target block's columns express
    # cannot be rewired to raise the kept block's rank.
    rng = np.random.default_rng(40 + n_states)
    n1 = 2 * n_states
    Xa = augmented(one_hot_features(n_states))

    def full_rank(W):
        T = sigma(Xa @ W, SLOPE)
        return rank_with_tol(T, netpaths.RANK_SIGMA_FRAC) == n_states

    swaps = 0
    while swaps < 40:
        W, W_target = rng.normal(size=(2, n_states + 1, n1))
        V = rng.normal(size=(n1, 3))
        target_block = netpaths._pivot_columns(sigma(Xa @ W_target, SLOPE),
                                               n_states)
        keep = [j for j in range(n1) if j not in target_block]
        W[:, keep] = W[:, [keep[0]]]
        if not (full_rank(W) and full_rank(W_target)):
            continue
        seg = first_layer_swap(Xa, W, V, W_target, slope=SLOPE, seed=swaps)
        assert seg.max_residual("product_drift") <= netpaths.LEMMA_DRIFT_TOL
        assert np.array_equal(seg.points[-1][0], W_target)
        swaps += 1


def test_fullrank_tall_path_constant():
    rng = np.random.default_rng(14)
    F = rng.normal(size=(6, 2))
    seg = fullrank_tall_path(F, F.copy())
    assert all(np.array_equal(p, F) for p in seg.points)


def test_fullrank_tall_path_antipodal():
    rng = np.random.default_rng(15)
    F = rng.normal(size=(6, 2))
    seg = fullrank_tall_path(F, -F)
    assert min(seg.residuals["min_sigma"]) >= 1e-9
    assert np.array_equal(seg.points[0], F)
    assert np.array_equal(seg.points[-1], -F)


def test_fullrank_tall_path_rotation_waypoint(monkeypatch):
    # The rotation taking E to -E has eigenvalue -1, which has no real
    # principal logarithm; the Schur logarithm still turns each leg in one
    # rotation stage, with no waypoint in between.
    E = np.vstack([np.eye(2), np.zeros((4, 2))])
    built = []
    real = netpaths._rotation

    def recording(U_from, U_to):
        built.append((U_from, U_to))
        return real(U_from, U_to)

    monkeypatch.setattr(netpaths, "_rotation", recording)
    seg = fullrank_tall_path(E, -E)
    assert len(built) == 2
    assert np.array_equal(built[1][0], E) and np.array_equal(built[1][1], -E)
    assert np.array_equal(seg.points[0], E)
    assert np.array_equal(seg.points[-1], -E)
    assert min(seg.residuals["min_sigma"]) >= netpaths.MIN_SIGMA


def _frame(rng, m, n):
    return np.linalg.qr(rng.normal(size=(m, n)))[0]


def _rotation_cases():
    """Frame pairs for ``_rotation``: random pairs at m = 3..13, E -> -E at
    n = 2 and n = 3, and a pair whose rotation has both a 2 x 2 Schur
    block and a pair of -1 eigenvalues."""
    rng = np.random.default_rng(29)
    cases = [(_frame(rng, m, n), _frame(rng, m, n))
             for m in range(3, 14) for n in range(1, m)]
    for n in (2, 3):
        E = np.vstack([np.eye(n), np.zeros((6 - n, n))])
        cases.append((E, -E))
    # With n = m - 1 the rotation is fixed by the frames, so it is Q below.
    P = _frame(rng, 5, 5)
    c, s = np.cos(1.1), np.sin(1.1)
    Q = P @ scipy.linalg.block_diag([[c, -s], [s, c]], -1.0, -1.0, 1.0) @ P.T
    U = _frame(rng, 5, 4)
    cases.append((U, Q @ U))
    return cases


def test_rotation_schur_logarithm():
    cases = _rotation_cases()
    # the last case exercises both kinds of Schur block
    U, V = cases[-1]
    A = netpaths._orthogonal_completion(U)
    B = netpaths._orthogonal_completion(V)
    if np.linalg.det(B) * np.linalg.det(A) < 0:
        B[:, -1] = -B[:, -1]
    T, _ = scipy.linalg.schur(B @ A.T, output="real")
    sub = np.flatnonzero(np.diag(T, -1))
    lone = [i for i in range(len(T)) if i not in sub and i - 1 not in sub]
    assert len(sub) == 1
    assert sum(T[i, i] < 0 for i in lone) == 2
    for U_from, U_to in cases:
        stage = netpaths._rotation(U_from, U_to)
        assert np.array_equal(stage(0.0), U_from)
        assert np.array_equal(stage(1.0), U_to)
        n = U_from.shape[1]
        for t in (0.1, 0.5, 0.9):
            P = stage(t)
            assert np.abs(P.T @ P - np.eye(n)).max() <= 1e-12
        assert np.abs(stage(np.nextafter(1.0, 0.0)) - U_to).max() <= 1e-12


def test_fullrank_tall_path_random_pairs():
    rng = np.random.default_rng(16)
    for _ in range(5):
        F_a = rng.normal(size=(6, 2))
        F_b = rng.normal(size=(6, 2))
        seg = fullrank_tall_path(F_a, F_b)
        assert min(seg.residuals["min_sigma"]) >= 1e-9
        assert np.array_equal(seg.points[0], F_a)
        assert np.array_equal(seg.points[-1], F_b)


def test_fullrank_tall_path_rejects_rank_deficient():
    F = np.zeros((6, 2))
    with pytest.raises(RankDeficient):
        fullrank_tall_path(F, np.ones((6, 2)))


def test_repair_full_rank_constant():
    theta = random_theta(ARCH, 17)
    seg = weight_fullrank_repair(ARCH, theta, X3)
    assert seg.max_residual("output_drift") == 0.0
    assert len(seg.points) >= 2


def test_repair_zeroed_column():
    theta = random_theta(ARCH, 18)
    theta.weights[1][:, 0] = 0.0        # deep layer loses a column
    seg = weight_fullrank_repair(ARCH, theta, X3, seed=1)
    assert seg.max_residual("output_drift") <= 1e-9
    end = seg.points[-1]
    for k in range(1, ARCH.depth):
        assert np.linalg.matrix_rank(end.weights[k]) == end.weights[k].shape[1]


def test_repair_unavailable_trivial_kernel():
    # F_1 here is 3 x 3 full rank (square-ish sub-net), so its kernel as a
    # map on the deficient layer's input is trivial
    arch = NetArchitecture(widths=(3, 3, 2))
    theta = random_theta(arch, 19)
    theta.weights[1][:, 0] = 0.0
    # make sure F_1 has full column rank so the kernel is trivial
    with pytest.raises(RepairUnavailable):
        weight_fullrank_repair(arch, theta, X3)


def test_assemble_same_endpoint():
    mdp = random_ergodic_mdp(20, 3, 2)
    theta = random_theta(ARCH, 20)
    path = assemble_nn_path(mdp, ARCH, X3, theta, theta.copy(),
                            rewards=[mdp.reward], grid=uniform_grid(21))
    assert path.certificate["verdict"]
    assert path.certificate["max_output_drift"] <= 1e-6
    assert min(path.certificate["value_margins"]) >= -1e-6


def test_assemble_same_output_different_deep_layers():
    rng = np.random.default_rng(21)
    mdp = random_ergodic_mdp(21, 3, 2)
    theta_1 = random_theta(ARCH, 21)
    pi = forward(ARCH, theta_1, X3)
    theta_2 = realize_policy(ARCH, X3, canonical_layers(ARCH, 210), pi)
    path = assemble_nn_path(mdp, ARCH, X3, theta_1, theta_2,
                            rewards=[mdp.reward], grid=uniform_grid(21),
                            seed=1)
    assert path.certificate["max_output_drift"] <= 1e-6
    # both endpoints share the output, so the floor is the shared value
    # and every margin stays above -1e-6
    assert min(path.certificate["value_margins"]) >= -1e-6


def test_assemble_segment_order_and_joints():
    mdp = random_ergodic_mdp(22, 3, 2)
    theta_1 = random_theta(ARCH, 22)
    theta_2 = random_theta(ARCH, 23)
    path = assemble_nn_path(mdp, ARCH, X3, theta_1, theta_2,
                            rewards=[mdp.reward], grid=uniform_grid(21))
    kinds = path.certificate["segment_kinds"]
    assert kinds == ["weight-fullrank-repair", "rank-restore-F1",
                     "first-layer-swap", "preimage-chain",
                     "weight-swap-with-h", "tabular-lift", "preimage-chain",
                     "rank-restore-F1", "weight-fullrank-repair"]
    # joints: each segment ends exactly where the next begins
    for prev, nxt in zip(path.segments[:-1], path.segments[1:]):
        assert np.array_equal(prev.points[-1].flat(), nxt.points[0].flat())
    assert np.array_equal(path.segments[0].points[0].flat(), theta_1.flat())
    assert np.array_equal(path.segments[-1].points[-1].flat(), theta_2.flat())


def test_assemble_schedule_reward_independent():
    mdp = random_ergodic_mdp(24, 3, 2)
    rng = np.random.default_rng(24)
    theta_1 = random_theta(ARCH, 24)
    theta_2 = random_theta(ARCH, 25)
    r_a = [rng.uniform(size=(3, 2)) for _ in range(2)]
    r_b = [rng.uniform(-1.0, 1.0, size=(3, 2)) for _ in range(5)]
    p_a = assemble_nn_path(mdp, ARCH, X3, theta_1, theta_2, rewards=r_a,
                           grid=uniform_grid(21))
    p_b = assemble_nn_path(mdp, ARCH, X3, theta_1, theta_2, rewards=r_b,
                           grid=uniform_grid(21))
    assert p_a.snapshot_bytes() == p_b.snapshot_bytes()


def test_assemble_value_floor_multiple_rewards():
    mdp = random_ergodic_mdp(26, 3, 2)
    rng = np.random.default_rng(26)
    theta_1 = random_theta(ARCH, 26)
    theta_2 = random_theta(ARCH, 27)
    rewards = [rng.uniform(-1.0, 1.0, size=(3, 2)) for _ in range(10)]
    path = assemble_nn_path(mdp, ARCH, X3, theta_1, theta_2, rewards=rewards,
                            grid=uniform_grid(21))
    pi_1 = forward(ARCH, theta_1, X3)
    pi_2 = forward(ARCH, theta_2, X3)
    for j, r in enumerate(rewards):
        floor = min(float(np.sum(r * occupancy(mdp, pi_1))),
                    float(np.sum(r * occupancy(mdp, pi_2))))
        assert abs(path.certificate["value_floor"][j] - floor) < 1e-12
        assert path.certificate["value_margins"][j] >= -1e-6


def test_assemble_residuals_cover_every_snapshot():
    mdp = random_ergodic_mdp(28, 3, 2)
    rng = np.random.default_rng(28)
    rewards = [rng.uniform(-1.0, 1.0, size=(3, 2)) for _ in range(4)]
    path = assemble_nn_path(mdp, ARCH, X3, random_theta(ARCH, 28),
                            random_theta(ARCH, 29), rewards=rewards,
                            grid=uniform_grid(21))
    for seg in path.segments:
        n = len(seg.alphas)
        assert len(seg.points) == n
        assert seg.residuals["values"].shape == (n, len(rewards))
        if seg.kind == "tabular-lift":
            assert "output_drift" not in seg.residuals
        else:
            assert seg.residuals["output_drift"].shape == (n,)
            assert seg.max_residual("output_drift") \
                <= path.certificate["max_output_drift"]


def test_assemble_depth_two_network():
    # widths (3, 6, 2): the sub-network past the shared first layer is a
    # single softmax layer, so no deep weights are carried across
    shallow = NetArchitecture(widths=(3, 6, 2))
    mdp = random_ergodic_mdp(33, 3, 2)
    rng = np.random.default_rng(33)
    theta_1, theta_2 = random_theta(shallow, 33), random_theta(shallow, 34)
    r_a = [rng.uniform(-1.0, 1.0, size=(3, 2)) for _ in range(3)]
    r_b = [rng.uniform(size=(3, 2))]
    p_a = assemble_nn_path(mdp, shallow, X3, theta_1, theta_2, rewards=r_a,
                           grid=uniform_grid(21))
    p_b = assemble_nn_path(mdp, shallow, X3, theta_1, theta_2, rewards=r_b,
                           grid=uniform_grid(21))
    assert p_a.certificate["verdict"] is True
    assert p_a.certificate["segment_kinds"] == [
        "weight-fullrank-repair", "rank-restore-F1", "first-layer-swap",
        "preimage-chain", "tabular-lift", "preimage-chain",
        "rank-restore-F1", "weight-fullrank-repair"]
    assert p_a.certificate["max_output_drift"] <= 1e-6
    assert min(p_a.certificate["value_margins"]) >= -1e-6
    assert p_a.snapshot_bytes() == p_b.snapshot_bytes()
    # with no fixed chain the preimage chains are straight parameter lines
    for seg in p_a.segments:
        if seg.kind == "preimage-chain":
            start, end = seg.points[0].flat(), seg.points[-1].flat()
            for alpha, p in zip(seg.alphas, seg.points):
                line = (1 - alpha) * start + alpha * end
                assert np.max(np.abs(p.flat() - line)) < 1e-9


BENCH_WIDTHS = [(3, 6, 4, 2), (4, 8, 6, 3), (3, 8, 6, 4, 2), (6, 12, 8, 4)]


def certify_per_snapshot(mdp, arch, X, path, rewards):
    """The certification pass one snapshot at a time: one forward and one
    occupancy solve per snapshot.  The oracle for the stacked pass of
    ``assemble_nn_path``; returns its certificate and, per segment, the
    residuals that pass writes."""
    pi_1 = forward(arch, path.theta_start, X)
    pi_2 = forward(arch, path.theta_end, X)
    mu1 = stationary_distribution(transition_matrix(mdp, pi_1)).mu
    mu2 = stationary_distribution(transition_matrix(mdp, pi_2)).mu
    kinds = [seg.kind for seg in path.segments]
    lift = kinds.index("tabular-lift")
    R = np.reshape(rewards, (len(rewards), pi_1.size))
    ends = np.array([(R * (mu1[:, None] * pi_1).ravel()).sum(axis=1),
                     (R * (mu2[:, None] * pi_2).ravel()).sum(axis=1)])
    floor = ends.min(axis=0)
    margins = np.full(len(rewards), np.inf)
    drift_max = 0.0
    residuals = []
    for k, seg in enumerate(path.segments):
        pinned = pi_1 if k < lift else (None if k == lift else pi_2)
        outputs = [forward(arch, p, X) for p in seg.points]
        found = {}
        if pinned is not None:
            drift = np.array([np.max(np.abs(out - pinned)) for out in outputs])
            found["output_drift"] = drift
            drift_max = max(drift_max, float(drift.max()))
        values = np.array([(R * occupancy(mdp, out).ravel()).sum(axis=1)
                           for out in outputs])
        found["values"] = values
        margins = np.minimum(margins, values.min(axis=0) - floor)
        residuals.append(found)
    certificate = {"segment_kinds": kinds, "max_output_drift": drift_max,
                   "value_floor": floor.tolist(),
                   "value_margins": margins.tolist(),
                   "n_rewards": len(rewards), "verdict": True}
    return certificate, residuals


@pytest.mark.parametrize("widths", BENCH_WIDTHS)
@pytest.mark.parametrize("seed", [0, 1])
def test_assemble_matches_per_snapshot_oracle(widths, seed):
    # Bitwise: the stacked pass certifies exactly what the per-snapshot
    # pass certifies, and leaves the snapshot schedule untouched.
    n_states, n_actions = widths[0], widths[-1]
    arch = NetArchitecture(widths=widths)
    X = one_hot_features(n_states)
    mdp = random_ergodic_mdp(40 + seed, n_states, n_actions)
    rng = np.random.default_rng(40 + seed)
    rewards = [rng.uniform(size=(n_states, n_actions)) for _ in range(10)]
    theta_1, theta_2 = random_theta(arch, 2 * seed), random_theta(arch, 2 * seed + 1)
    grid = uniform_grid(101)
    path = assemble_nn_path(mdp, arch, X, theta_1, theta_2, rewards=rewards,
                            grid=grid, seed=seed)
    certificate, residuals = certify_per_snapshot(mdp, arch, X, path, rewards)
    assert path.certificate == certificate
    assert repr(path.certificate) == repr(certificate)
    for seg, found in zip(path.segments, residuals):
        for name, residual in found.items():
            assert seg.residuals[name].dtype == residual.dtype
            assert np.array_equal(seg.residuals[name], residual)
    unrewarded = assemble_nn_path(mdp, arch, X, theta_1, theta_2, grid=grid,
                                  seed=seed)
    assert path.snapshot_bytes() == unrewarded.snapshot_bytes()


def _path_inputs(seed):
    mdp = random_ergodic_mdp(seed, 3, 2)
    return mdp, random_theta(ARCH, seed), random_theta(ARCH, seed + 1)


def test_assemble_drift_failure_names_segment_and_alpha(monkeypatch):
    # Knock one interior snapshot of each preimage chain off its output.
    real = netpaths.preimage_chain_path
    knocked = []

    def knocked_chain(*args, **kwargs):
        seg = real(*args, **kwargs)
        i = len(seg.points) // 2
        theta = seg.points[i].copy()
        theta.biases[-1] = theta.biases[-1] + np.array([0.5, 0.0])
        seg.points[i] = theta
        knocked.append(seg.alphas[i])
        return seg

    monkeypatch.setattr(netpaths, "preimage_chain_path", knocked_chain)
    mdp, theta_1, theta_2 = _path_inputs(30)
    with pytest.raises(OutputDrift) as failure:
        assemble_nn_path(mdp, ARCH, X3, theta_1, theta_2,
                         rewards=[mdp.reward], grid=uniform_grid(21))
    assert str(failure.value).startswith("assembled output drift")
    assert str(failure.value).endswith(
        f" on preimage-chain at alpha {knocked[0]:.6g}")


def test_assemble_bound_failure_names_segment_and_alpha(monkeypatch):
    # Swap the lift's policy at alpha 0.5 for one worth less than both ends.
    mdp, theta_1, theta_2 = _path_inputs(31)
    values = {a: average_reward(mdp, deterministic_policy(a, 2))
              for a in itertools.product(range(2), repeat=3)}
    low = 0.999 * deterministic_policy(min(values, key=values.get), 2) + 0.0005
    floor = min(average_reward(mdp, forward(ARCH, t, X3))
                for t in (theta_1, theta_2))
    assert average_reward(mdp, low) < floor - 1e-3
    real = netpaths.interpolate_policies

    def dipping(mdp_, pi1, pi2, alpha, **kwargs):
        return low if alpha == 0.5 else real(mdp_, pi1, pi2, alpha, **kwargs)

    monkeypatch.setattr(netpaths, "interpolate_policies", dipping)
    with pytest.raises(BoundViolated) as failure:
        assemble_nn_path(mdp, ARCH, X3, theta_1, theta_2,
                         rewards=[np.zeros((3, 2)), mdp.reward],
                         grid=uniform_grid(21))
    assert failure.value.reward_index == 1
    assert failure.value.alpha == 0.5
    assert str(failure.value).endswith(
        "for reward 1 on tabular-lift at alpha 0.5")


def test_assemble_nonconvergence_names_segment_and_alpha(monkeypatch):
    # Action 0 stays put, so the policy that always takes it is reducible;
    # it replaces the middle snapshot of every stack the pass solves.
    rng = np.random.default_rng(32)
    kernel = np.stack([np.eye(3), rng.dirichlet(np.ones(3), size=3)], axis=1)
    mdp = Mdp(kernel=kernel, reward=rng.uniform(size=(3, 2)))
    real = netpaths.occupancy

    def stuck(mdp_, pis):
        pis = pis.copy()
        pis[len(pis) // 2] = [1.0, 0.0]
        return real(mdp_, pis)

    monkeypatch.setattr(netpaths, "occupancy", stuck)
    _, theta_1, theta_2 = _path_inputs(32)
    with pytest.raises(NonConvergence) as failure:
        assemble_nn_path(mdp, ARCH, X3, theta_1, theta_2,
                         rewards=[mdp.reward], grid=uniform_grid(21))
    assert failure.value.chain == 10
    assert str(failure.value).startswith("chain 10: reducible chain")
    assert str(failure.value).endswith(
        " on weight-fullrank-repair at alpha 0.5")


# ---------------------------------------------------------------------------
# The fixed chain's pseudo-inverses are taken once per leg, and each builder
# invariant is measured in one stacked call; both keep the per-snapshot bits.
# ---------------------------------------------------------------------------

PULL_BACK_WIDTHS = [(3, 6, 2), (3, 6, 4, 2), (3, 8, 6, 4, 2)]


def _first_layer_table(theta, X, slope):
    return sigma(X @ theta.weights[0]
                 + np.ones((X.shape[0], 1)) * theta.biases[0][None, :], slope)


@pytest.mark.parametrize("widths", PULL_BACK_WIDTHS)
def test_hoisted_pull_back_matches_one_shot_h_map(widths):
    # Past the shared first layer the pull-back runs through a network of
    # depth 1, 2 or 3.  Every lift snapshot is h_map's one-shot answer, and
    # every interior preimage-chain snapshot is the pull-back with its
    # inverses taken afresh at that snapshot, bit for bit.
    arch = NetArchitecture(widths=widths)
    sub_arch = NetArchitecture(widths=widths[1:], leaky_slope=arch.leaky_slope)
    X = one_hot_features(3)
    mdp = random_ergodic_mdp(50, 3, widths[-1])
    theta_1, theta_2 = random_theta(arch, 50), random_theta(arch, 51)
    path = assemble_nn_path(mdp, arch, X, theta_1, theta_2,
                            grid=uniform_grid(21), seed=5)
    pi_1, pi_2 = forward(arch, theta_1, X), forward(arch, theta_2, X)
    mu1 = stationary_distribution(transition_matrix(mdp, pi_1)).mu
    mu2 = stationary_distribution(transition_matrix(mdp, pi_2)).mu
    kinds = path.certificate["segment_kinds"]
    lift = path.segments[kinds.index("tabular-lift")]
    for alpha, theta in zip(lift.alphas, lift.points):
        F1 = _first_layer_table(theta, X, SLOPE)
        deep = list(zip(theta.weights[2:], theta.biases[2:]))
        pi_t = interpolate_policies(mdp, pi_1, pi_2, 1.0 - alpha,
                                    mu1=mu1, mu2=mu2)
        W2, b2 = h_map(F1, deep, pi_t, SLOPE)
        assert np.array_equal(theta.weights[1], W2)
        assert np.array_equal(theta.biases[1], b2)
    chains = [s for s in path.segments if s.kind == "preimage-chain"]
    assert len(chains) == 2
    for seg in chains:
        F1 = _first_layer_table(seg.points[0], X, SLOPE)
        ends = [Theta(weights=p.weights[1:], biases=p.biases[1:])
                for p in (seg.points[0], seg.points[-1])]
        layers = list(zip(ends[0].weights[1:], ends[0].biases[1:]))
        for alpha, theta in zip(seg.alphas[1:-1], seg.points[1:-1]):
            inverses = [netpaths.pinv(W) for W, _ in layers] \
                + [netpaths.pinv(netpaths._augment(F1))]
            (logits_a, nulls_a), (logits_b, nulls_b) = (
                netpaths._first_layer_coordinates(sub_arch, F1, end, inverses)
                for end in ends)
            nulls = [(1 - alpha) * na + alpha * nb
                     for na, nb in zip(nulls_a, nulls_b)]
            W2, b2 = netpaths._pull_back(
                layers, inverses, (1 - alpha) * logits_a + alpha * logits_b,
                SLOPE, nulls)
            assert np.array_equal(theta.weights[1], W2)
            assert np.array_equal(theta.biases[1], b2)


def _counting_pinv(monkeypatch):
    calls = []
    real = netpaths.pinv

    def counted(M):
        calls.append(np.shape(M))
        return real(M)

    monkeypatch.setattr(netpaths, "pinv", counted)
    return calls


@pytest.mark.parametrize("widths", [(3, 2), (3, 6, 2), (3, 6, 4, 2)])
def test_preimage_chain_takes_its_inverses_once(widths, monkeypatch):
    # One pinv per layer of the fixed chain and one of the input table, for
    # the whole 101-point leg; the endpoint split shares them.
    arch = NetArchitecture(widths=widths)
    theta_a = random_theta(arch, 60)
    layers = list(zip(theta_a.weights[1:], theta_a.biases[1:]))
    pi = forward(arch, theta_a, X3)
    calls = _counting_pinv(monkeypatch)
    W1, b1 = h_map(X3, layers, pi, arch.leaky_slope)
    assert len(calls) == len(layers) + 1
    theta_b = theta_a.copy()
    theta_b.weights[0], theta_b.biases[0] = W1, b1
    calls.clear()
    seg = preimage_chain_path(arch, X3, theta_a, theta_b,
                              grid=uniform_grid(101))
    assert len(seg.points) == 101
    assert len(calls) == len(layers) + 1


@pytest.mark.parametrize("widths", PULL_BACK_WIDTHS)
def test_assembly_pinv_count(widths, monkeypatch):
    # F1's inverse once, each fixed chain's once, each preimage chain's
    # once; only the weight-swap leg, whose tall layers move, takes the
    # inverses of its chain at every snapshot.
    arch = NetArchitecture(widths=widths)
    X = one_hot_features(3)
    mdp = random_ergodic_mdp(61, 3, widths[-1])
    calls = _counting_pinv(monkeypatch)
    path = assemble_nn_path(mdp, arch, X, random_theta(arch, 61),
                            random_theta(arch, 62), grid=uniform_grid(101))
    deep = arch.depth - 2
    swap = [s for s in path.segments if s.kind == "weight-swap-with-h"]
    moving = sum(len(s.points) for s in swap) * deep
    assert len(calls) == 1 + 2 * deep + 2 * (deep + 1) + moving
    if deep == 0:
        assert len(calls) == 3


def _logits_one(arch, theta, X):
    """The pre-softmax table of one Theta, computed on its own."""
    hidden, _ = forward(arch, theta, X, return_hidden=True)
    F = hidden[-2] if arch.depth > 1 else X
    return F @ theta.weights[-1] \
        + np.ones((X.shape[0], 1)) * theta.biases[-1][None, :]


def _per_sample(name, args, kwargs, seg):
    """The residual of each point of a builder's segment, one sample at a
    time: the oracle of the stacked measures."""
    if name == "preimage_chain_path":
        arch, X = args[:2]
        pi_ref = seg.metadata["pi_ref"]
        return [np.max(np.abs(forward(arch, p, X) - pi_ref))
                for p in seg.points]
    if name == "weight_fullrank_repair":
        arch, theta, X = args[:3]
        ref = _logits_one(arch, theta, X)
        return [np.max(np.abs(_logits_one(arch, p, X) - ref))
                for p in seg.points]
    if name == "rank_restore_first_layer":
        X, W, b, V, slope = args[:5]
        ones = np.ones((X.shape[0], 1))
        act = lambda W, b: sigma(X @ W + ones * b[None, :], slope)
        Z0 = act(W, b) @ V
        return [np.max(np.abs(act(W, b) @ V - Z0)) for W, b, V in seg.points]
    if name == "first_layer_swap":
        X, W, V = args[:3]
        slope = kwargs["slope"]
        Z0 = sigma(X @ W, slope) @ V
        return [np.max(np.abs(sigma(X @ W, slope) @ V - Z0))
                for W, V in seg.points]
    assert name == "fullrank_tall_path"
    return [np.linalg.svd(F, compute_uv=False)[-1] for F in seg.points]


BUILDERS = {  # builder: (invariant name, label, tolerance)
    "weight_fullrank_repair": ("output_drift", "repair drift",
                               "LEMMA_DRIFT_TOL"),
    "rank_restore_first_layer": ("product_drift", "product drift",
                                 "LEMMA_DRIFT_TOL"),
    "first_layer_swap": ("product_drift", "swap product drift",
                         "LEMMA_DRIFT_TOL"),
    "preimage_chain_path": ("output_drift", "preimage chain drift",
                            "SEGMENT_TOL"),
    "fullrank_tall_path": ("min_sigma", "minimum singular value", "MIN_SIGMA"),
}


def _record_builders(monkeypatch):
    """Wrap the five builders; each call appends (name, stacked residual,
    per-sample oracle) in call order."""
    record = []
    for name, (invariant, _, _) in BUILDERS.items():
        real = getattr(netpaths, name)

        def wrapped(*args, _real=real, _name=name, _inv=invariant, **kwargs):
            seg = _real(*args, **kwargs)
            record.append((_name, seg.residuals[_inv].copy(),
                           np.array(_per_sample(_name, args, kwargs, seg))))
            return seg

        monkeypatch.setattr(netpaths, name, wrapped)
    return record


def _load_bench_workloads():
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _criterion_3_instances():
    rng = np.random.default_rng(3)
    for i in range(20):
        mdp = random_ergodic_mdp(3000 + i, 3, 2)
        theta_1 = random_theta(ARCH, 3100 + i)
        theta_2 = random_theta(ARCH, 3200 + i)
        rewards = [rng.uniform(-1.0, 1.0, size=(3, 2)) for _ in range(10)]
        yield lambda: assemble_nn_path(mdp, ARCH, X3, theta_1, theta_2,
                                       rewards=rewards, seed=i)


def _bench_instances(seed, count):
    workload = _load_bench_workloads().NnPaths(seed, None)
    for i in range(count):
        inst = workload.instance(i)
        yield lambda: workload.run(inst)


@pytest.mark.parametrize("sweep", ["criterion-3", "nn-paths-0", "nn-paths-3"])
def test_stacked_invariants_match_per_sample_oracle(sweep, monkeypatch):
    # Each builder's residual array, measured in one stacked call, equals
    # the per-sample measure bit for bit, for all five invariants.
    runs = (_criterion_3_instances() if sweep == "criterion-3"
            else _bench_instances(int(sweep.rsplit("-", 1)[1]), 10))
    record = _record_builders(monkeypatch)
    for run in runs:
        run()
    assert {name for name, _, _ in record} == set(BUILDERS)
    for name, stacked, oracle in record:
        assert stacked.dtype == oracle.dtype == np.float64
        assert np.array_equal(stacked, oracle), name


@pytest.mark.parametrize("tol_name", ["SEGMENT_TOL", "LEMMA_DRIFT_TOL"])
def test_forced_builder_failure_keeps_its_message(tol_name, monkeypatch):
    # At a zero tolerance the first builder whose per-sample residuals are
    # positive fails, with the type and message of the per-sample check.
    mdp, theta_1, theta_2 = _path_inputs(34)
    record = _record_builders(monkeypatch)
    assemble_nn_path(mdp, ARCH, X3, theta_1, theta_2, grid=uniform_grid(21))
    name, _, oracle = next(r for r in record
                           if BUILDERS[r[0]][2] == tol_name and r[2].max() > 0)
    expected = f"{BUILDERS[name][1]} {oracle.max():.3e} exceeds 0.0"
    monkeypatch.setattr(netpaths, tol_name, 0.0)
    with pytest.raises(OutputDrift) as failure:
        assemble_nn_path(mdp, ARCH, X3, theta_1, theta_2,
                         grid=uniform_grid(21))
    assert str(failure.value) == expected


def test_forced_min_sigma_failure_keeps_its_message(monkeypatch):
    # The endpoints bound the path's singular values, so MIN_SIGMA above
    # them stops the endpoint check first; with that check passed, the
    # floor invariant fails at the per-sample minimum.
    rng = np.random.default_rng(35)
    F_a, F_b = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
    oracle = _per_sample("fullrank_tall_path", (), {},
                         fullrank_tall_path(F_a, F_b))
    monkeypatch.setattr(netpaths, "MIN_SIGMA", 10.0)
    with pytest.raises(RankDeficient, match="first endpoint is rank"):
        fullrank_tall_path(F_a, F_b)
    monkeypatch.setattr(netpaths, "_min_sigma", lambda F: np.inf)
    with pytest.raises(PathStalled) as failure:
        fullrank_tall_path(F_a, F_b)
    assert str(failure.value) == \
        f"minimum singular value {min(oracle):.3e} dipped below 10.0"

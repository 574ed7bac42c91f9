"""Tests for the network parameter-space path segments and their assembly."""

import numpy as np
import pytest

from policypaths.errors import (NonPositivePolicy, RankDeficient,
                                RepairUnavailable)
from policypaths.mdp import average_reward, occupancy, random_ergodic_mdp
from policypaths.netpaths import (assemble_nn_path, canonical_layers,
                                  first_layer_swap, fullrank_tall_path, h_map,
                                  preimage_chain_path, rank_restore_first_layer,
                                  realize_policy, weight_fullrank_repair)
from policypaths.network import (NetArchitecture, Theta, forward,
                                 one_hot_features, random_theta, sigma)
from policypaths.tabular import uniform_grid

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


def test_fullrank_tall_path_random_pairs():
    rng = np.random.default_rng(16)
    for trial in range(5):
        F_a = rng.normal(size=(6, 2))
        F_b = rng.normal(size=(6, 2))
        seg = fullrank_tall_path(F_a, F_b, seed=trial)
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

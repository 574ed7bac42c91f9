"""Tests for the network parameter-space path segments and their assembly."""

import itertools

import numpy as np
import pytest

from policypaths import netpaths
from policypaths.errors import (BoundViolated, NonConvergence,
                                NonPositivePolicy, OutputDrift, RankDeficient,
                                RepairUnavailable)
from policypaths.mdp import (Mdp, average_reward, deterministic_policy,
                             occupancy, random_ergodic_mdp,
                             stationary_distribution, transition_matrix)
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

"""Tests for the occupancy-blend policy interpolation path."""

import numpy as np
import pytest

from policypaths.errors import BoundViolated
from policypaths.mdp import (Mdp, average_reward, check_ergodicity, occupancy,
                             random_ergodic_mdp, stationary_distribution,
                             transition_matrix)
from policypaths.tabular import (interpolate_policies, select_preferred_on_path,
                                 uniform_grid, verify_equiconnectedness)
from ring_kernels import ring_mdp


def random_policy(rng, s, a):
    return rng.dirichlet(np.ones(a), size=s)


def test_interpolate_endpoints():
    mdp = random_ergodic_mdp(0, 3, 2)
    rng = np.random.default_rng(0)
    pi1 = random_policy(rng, 3, 2)
    pi2 = random_policy(rng, 3, 2)
    # convention: alpha = 1 is the first endpoint
    assert np.array_equal(interpolate_policies(mdp, pi1, pi2, 1.0), pi1)
    assert np.array_equal(interpolate_policies(mdp, pi1, pi2, 0.0), pi2)


def test_interpolate_equal_stationaries_is_linear():
    # fully symmetric kernel: every policy has the uniform stationary
    # distribution, so the path is the straight policy line
    kernel = np.full((2, 2, 2), 0.5)
    mdp = Mdp(kernel=kernel, reward=np.zeros((2, 2)))
    rng = np.random.default_rng(1)
    pi1 = random_policy(rng, 2, 2)
    pi2 = random_policy(rng, 2, 2)
    alpha = 0.3
    pia = interpolate_policies(mdp, pi1, pi2, alpha)
    assert np.max(np.abs(pia - (alpha * pi1 + (1 - alpha) * pi2))) < 1e-12


def test_interpolate_midpoint_stationary_blend():
    mdp = random_ergodic_mdp(2, 4, 3)
    rng = np.random.default_rng(2)
    pi1 = random_policy(rng, 4, 3)
    pi2 = random_policy(rng, 4, 3)
    mu1 = stationary_distribution(transition_matrix(mdp, pi1)).mu
    mu2 = stationary_distribution(transition_matrix(mdp, pi2)).mu
    pia = interpolate_policies(mdp, pi1, pi2, 0.5)
    mua = stationary_distribution(transition_matrix(mdp, pia)).mu
    assert np.max(np.abs(mua - 0.5 * (mu1 + mu2))) < 1e-9


def test_interpolate_rejects_out_of_range_alpha():
    mdp = random_ergodic_mdp(3, 2, 2)
    pi = np.full((2, 2), 0.5)
    with pytest.raises(ValueError):
        interpolate_policies(mdp, pi, pi, 1.5)


def test_stationary_linearity_random_instance():
    mdp = random_ergodic_mdp(5, 3, 2)
    rng = np.random.default_rng(5)
    trace = verify_equiconnectedness(mdp, random_policy(rng, 3, 2),
                                     random_policy(rng, 3, 2), [],
                                     grid=uniform_grid())
    assert trace.max_residual("stationary_linearity") <= 1e-8


def test_stationary_linearity_identical_endpoints():
    mdp = random_ergodic_mdp(7, 2, 2)
    rng = np.random.default_rng(7)
    pi = random_policy(rng, 2, 2)
    trace = verify_equiconnectedness(mdp, pi, pi, [], grid=uniform_grid(11))
    assert trace.max_residual("stationary_linearity") <= 1e-11


def test_equiconnectedness_constant_reward():
    mdp = random_ergodic_mdp(11, 3, 2)
    rng = np.random.default_rng(11)
    trace = verify_equiconnectedness(mdp, random_policy(rng, 3, 2),
                                     random_policy(rng, 3, 2),
                                     [np.full((3, 2), 0.4)])
    assert np.max(np.abs(trace.values - 0.4)) < 1e-9


def test_equiconnectedness_value_floor_and_linearity():
    rng = np.random.default_rng(13)
    for seed in range(5):
        mdp = random_ergodic_mdp(100 + seed, 3, 2)
        pi1 = random_policy(rng, 3, 2)
        pi2 = random_policy(rng, 3, 2)
        rewards = [rng.uniform(-1.0, 1.0, size=(3, 2)) for _ in range(5)]
        trace = verify_equiconnectedness(mdp, pi1, pi2, rewards)
        assert trace.max_residual("occupancy_linearity") <= 1e-9
        assert trace.max_residual("stationary_linearity") <= 1e-8
        floors = np.minimum(trace.values[trace.alphas == 1.0][0],
                            trace.values[trace.alphas == 0.0][0])
        assert np.all(trace.values >= floors[None, :] - 1e-9)


@pytest.mark.parametrize("n_states", [6, 32])
def test_equiconnectedness_sparse_slow_ring(n_states):
    # sparse slow-mixing kernels at the acceptance tolerances (criterion 1);
    # at |S|=6 the enumeration certifies ergodicity, at |S|=32 the ring and
    # self-loop in every row do
    mdp = ring_mdp(300 + n_states, n_states, 3)
    if n_states == 6:
        assert check_ergodicity(mdp).ergodic
    rng = np.random.default_rng(n_states)
    pi1 = random_policy(rng, n_states, 3)
    pi2 = random_policy(rng, n_states, 3)
    rewards = [rng.uniform(-1.0, 1.0, size=(n_states, 3)) for _ in range(20)]
    trace = verify_equiconnectedness(mdp, pi1, pi2, rewards,
                                     grid=uniform_grid(101), tol=1e-9)
    assert trace.max_residual("stationary_linearity") <= 1e-8
    assert trace.max_residual("occupancy_linearity") <= 1e-8


def test_equiconnectedness_endpoint_snapshots_exact():
    mdp = random_ergodic_mdp(17, 2, 3)
    rng = np.random.default_rng(17)
    pi1 = random_policy(rng, 2, 3)
    pi2 = random_policy(rng, 2, 3)
    trace = verify_equiconnectedness(mdp, pi1, pi2, [mdp.reward])
    assert np.array_equal(trace.points[-1], pi1)
    assert np.array_equal(trace.points[0], pi2)


def test_equiconnectedness_snapshots_reward_independent():
    mdp = random_ergodic_mdp(19, 3, 2)
    rng = np.random.default_rng(19)
    pi1 = random_policy(rng, 3, 2)
    pi2 = random_policy(rng, 3, 2)
    r_a = [rng.uniform(size=(3, 2)) for _ in range(3)]
    r_b = [rng.uniform(-1.0, 1.0, size=(3, 2)) for _ in range(7)]
    for grid in (None, uniform_grid(21)):
        t_a = verify_equiconnectedness(mdp, pi1, pi2, r_a, grid=grid)
        t_b = verify_equiconnectedness(mdp, pi1, pi2, r_b, grid=grid)
        blob_a = t_a.alphas.tobytes() + b"".join(p.tobytes() for p in t_a.points)
        blob_b = t_b.alphas.tobytes() + b"".join(p.tobytes() for p in t_b.points)
        assert blob_a == blob_b


def test_trace_csv_shape():
    mdp = random_ergodic_mdp(23, 2, 2)
    rng = np.random.default_rng(23)
    trace = verify_equiconnectedness(mdp, random_policy(rng, 2, 2),
                                     random_policy(rng, 2, 2),
                                     [mdp.reward], grid=uniform_grid(11))
    lines = trace.to_csv().strip().split("\n")
    assert lines[0].startswith("alpha,J_r0")
    assert len(lines) == trace.alphas.size + 1


def entropy(pi):
    return float(-(pi * np.log(pi + 1e-300)).sum())


def test_select_preferred_uniform_fixed_point():
    mdp = random_ergodic_mdp(29, 2, 2)
    uniform = np.full((2, 2), 0.5)
    level = average_reward(mdp, uniform)
    alpha, best = select_preferred_on_path(mdp, uniform, uniform, entropy,
                                           level - 1e-9)
    assert np.allclose(best, uniform)


def test_select_preferred_distance_to_endpoint():
    mdp = random_ergodic_mdp(31, 3, 2)
    rng = np.random.default_rng(31)
    pi1 = random_policy(rng, 3, 2)
    pi2 = random_policy(rng, 3, 2)
    level = min(average_reward(mdp, pi1), average_reward(mdp, pi2))
    alpha, best = select_preferred_on_path(
        mdp, pi1, pi2, lambda p: -float(np.linalg.norm(p - pi1)),
        level - 1e-9)
    assert alpha == 1.0
    assert np.array_equal(best, pi1)


def test_select_preferred_entropy_matches_finer_grid():
    mdp = random_ergodic_mdp(37, 3, 2)
    rng = np.random.default_rng(37)
    pi1 = random_policy(rng, 3, 2)
    pi2 = random_policy(rng, 3, 2)
    level = min(average_reward(mdp, pi1), average_reward(mdp, pi2))
    alpha, best = select_preferred_on_path(mdp, pi1, pi2, entropy,
                                           level - 1e-9,
                                           grid=uniform_grid(101))
    assert entropy(best) >= min(entropy(pi1), entropy(pi2)) - 1e-12
    # 10x finer rescan: the coarse-grid winner is within the value spread
    # of one coarse cell of the fine-grid winner
    _, best_fine = select_preferred_on_path(mdp, pi1, pi2, entropy,
                                            level - 1e-9,
                                            grid=uniform_grid(1001))
    assert entropy(best_fine) >= entropy(best) - 1e-12
    assert entropy(best_fine) - entropy(best) < 1e-4


def test_select_preferred_level_violation():
    mdp = random_ergodic_mdp(41, 2, 2)
    rng = np.random.default_rng(41)
    pi1 = random_policy(rng, 2, 2)
    pi2 = random_policy(rng, 2, 2)
    with pytest.raises(BoundViolated):
        select_preferred_on_path(mdp, pi1, pi2, entropy, 10.0)


def test_occupancy_exactly_linear_along_path():
    mdp = random_ergodic_mdp(43, 4, 2)
    rng = np.random.default_rng(43)
    pi1 = random_policy(rng, 4, 2)
    pi2 = random_policy(rng, 4, 2)
    mh1 = occupancy(mdp, pi1)
    mh2 = occupancy(mdp, pi2)
    for alpha in (0.2, 0.5, 0.9):
        pia = interpolate_policies(mdp, pi1, pi2, alpha)
        mha = occupancy(mdp, pia)
        assert np.max(np.abs(mha - (alpha * mh1 + (1 - alpha) * mh2))) < 1e-9

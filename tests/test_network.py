"""Tests for the softmax policy network and its exact inverses."""

import numpy as np
import pytest

from policypaths.errors import NonPositiveEntry, ShapeMismatch
from policypaths.mdp import average_reward, random_ergodic_mdp
from policypaths.network import (NetArchitecture, Theta, check_assumptions,
                                 forward, one_hot_features, random_theta,
                                 sigma, sigma_inv, softmax_inv_rows,
                                 softmax_rows, value_of_theta)


def test_softmax_zero_row_uniform():
    out = softmax_rows(np.zeros((2, 4)))
    assert np.allclose(out, 0.25)


def test_softmax_large_logit_point_mass():
    row = np.array([[40.0, 0.0, 0.0]])
    out = softmax_rows(row)
    assert out[0, 0] > 1.0 - 1e-6


def test_softmax_row_shift_invariance():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(3, 4))
    shifted = M + rng.normal(size=(3, 1))
    assert np.max(np.abs(softmax_rows(M) - softmax_rows(shifted))) < 1e-12


def test_softmax_overflow_safe():
    out = softmax_rows(np.array([[1e4, 0.0]]))
    assert np.isfinite(out).all()


def test_softmax_inv_uniform_is_zero():
    out = softmax_inv_rows(np.full((3, 5), 0.2))
    assert np.max(np.abs(out)) < 1e-15


def test_softmax_inv_is_centered_logits():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(4, 3))
    M = softmax_rows(A)
    expected = A - A.mean(axis=1, keepdims=True)
    assert np.max(np.abs(softmax_inv_rows(M) - expected)) < 1e-10
    assert np.max(np.abs(softmax_inv_rows(M).sum(axis=1))) < 1e-12


def test_softmax_round_trips():
    rng = np.random.default_rng(2)
    for _ in range(100):
        M = rng.dirichlet(np.ones(4), size=3)
        back = softmax_rows(softmax_inv_rows(M))
        assert np.max(np.abs(back - M)) < 1e-12


def test_softmax_inv_rejects_zeros():
    with pytest.raises(NonPositiveEntry):
        softmax_inv_rows(np.array([[1.0, 0.0]]))


def test_sigma_values():
    assert sigma(0.0) == 0.0
    assert sigma(-2.0, slope=0.1) == -0.2
    assert sigma_inv(-0.2, slope=0.1) == -2.0


def test_sigma_inverse_exact():
    rng = np.random.default_rng(3)
    x = rng.normal(size=1000)
    # power-of-two slope: multiply/divide round-trips exactly
    assert np.max(np.abs(sigma_inv(sigma(x, slope=0.25), slope=0.25) - x)) == 0.0
    # default slope: exact up to one rounding of the negative branch
    err = np.abs(sigma_inv(sigma(x)) - x)
    assert np.max(err) < 1e-15


def test_forward_zero_theta_uniform():
    arch = NetArchitecture(widths=(3, 6, 4, 2))
    theta = Theta(weights=[np.zeros((3, 6)), np.zeros((6, 4)), np.zeros((4, 2))],
                  biases=[np.zeros(6), np.zeros(4), np.zeros(2)])
    pi = forward(arch, theta, one_hot_features(3))
    assert np.allclose(pi, 0.5)


def test_forward_rows_positive_and_stochastic():
    arch = NetArchitecture(widths=(3, 6, 4, 2))
    theta = random_theta(arch, 4)
    pi = forward(arch, theta, one_hot_features(3))
    assert np.all(pi > 0)
    assert np.max(np.abs(pi.sum(axis=1) - 1.0)) < 1e-12


def test_forward_shape_mismatch():
    arch = NetArchitecture(widths=(3, 6, 4, 2))
    theta = random_theta(arch, 5)
    with pytest.raises(ShapeMismatch):
        forward(arch, theta, np.zeros((3, 4)))


BENCH_WIDTHS = [(3, 6, 4, 2), (4, 8, 6, 3), (3, 8, 6, 4, 2), (6, 12, 8, 4)]


@pytest.mark.parametrize("widths", BENCH_WIDTHS)
def test_stacked_forward_matches_one_theta_calls(widths):
    # Bitwise: a snapshot's output must not depend on the stack it is in.
    rng = np.random.default_rng(sum(widths))
    for slope in (0.01, 0.3):
        arch = NetArchitecture(widths=widths, leaky_slope=slope)
        thetas = [random_theta(arch, seed) for seed in range(7)]
        stacked = Theta.stack(thetas)
        for X in (one_hot_features(widths[0]),
                  rng.normal(size=(widths[0] + 1, widths[0]))):
            hidden, pi = forward(arch, stacked, X, return_hidden=True)
            assert pi.shape == (7, X.shape[0], widths[-1])
            assert np.array_equal(forward(arch, stacked, X), pi)
            for i, theta in enumerate(thetas):
                one_hidden, one_pi = forward(arch, theta, X, return_hidden=True)
                assert np.array_equal(pi[i], one_pi)
                assert len(hidden) == len(one_hidden)
                for F, one_F in zip(hidden, one_hidden):
                    assert np.array_equal(F[i], one_F)
            # a stack of stacks is one stack in C order
            twice = forward(arch, Theta.stack([stacked, stacked]), X)
            assert np.array_equal(twice, np.stack([pi, pi]))


def test_stacked_theta_shape_mismatch():
    arch = NetArchitecture(widths=(3, 6, 4, 2))
    stacked = Theta.stack([random_theta(arch, seed) for seed in range(3)])
    stacked.biases[1] = stacked.biases[1][0]
    with pytest.raises(ShapeMismatch):
        forward(arch, stacked, one_hot_features(3))


def test_forward_row_constant_logit_shift():
    arch = NetArchitecture(widths=(3, 6, 4, 2))
    theta = random_theta(arch, 6)
    shifted = theta.copy()
    shifted.biases[-1] = shifted.biases[-1] + 3.7
    X = one_hot_features(3)
    assert np.max(np.abs(forward(arch, theta, X)
                         - forward(arch, shifted, X))) < 1e-12


def test_check_assumptions_boundary_pass():
    arch = NetArchitecture(widths=(4, 6, 4, 2))
    X = one_hot_features(3, 4)
    report = check_assumptions(arch, X, n_actions=2)
    assert report.first_layer_wide_enough      # 6 >= 2 * 3
    assert report.strictly_decreasing_widths
    assert report.output_matches_actions
    assert report.core_ok()


def test_check_assumptions_failures():
    arch = NetArchitecture(widths=(4, 5, 5, 2))
    X = one_hot_features(3, 4)
    assert not check_assumptions(arch, X).strictly_decreasing_widths
    X_dup = np.zeros((3, 4))
    report = check_assumptions(NetArchitecture(widths=(4, 6, 4, 2)), X_dup)
    assert not report.distinct_feature_rows
    assert not report.feature_table_full_row_rank


def test_value_of_theta_matches_explicit_composition():
    arch = NetArchitecture(widths=(3, 6, 4, 2))
    theta = random_theta(arch, 7)
    X = one_hot_features(3)
    mdp = random_ergodic_mdp(7, 3, 2)
    direct = value_of_theta(mdp, arch, theta, X)
    via_policy = average_reward(mdp, forward(arch, theta, X))
    assert abs(direct - via_policy) < 1e-15


def test_value_of_theta_constant_reward():
    arch = NetArchitecture(widths=(3, 6, 4, 2))
    theta = random_theta(arch, 8)
    mdp = random_ergodic_mdp(8, 3, 2)
    c = 0.7
    v = value_of_theta(mdp, arch, theta, one_hot_features(3),
                       reward=np.full((3, 2), c))
    assert abs(v - c) < 1e-10


def test_theta_json_round_trip():
    arch = NetArchitecture(widths=(3, 6, 4, 2))
    theta = random_theta(arch, 9)
    back = Theta.from_dict(theta.to_dict(arch))
    assert np.array_equal(back.flat(), theta.flat())


def test_one_hot_features_padding():
    X = one_hot_features(3, 5)
    assert X.shape == (3, 5)
    assert np.linalg.matrix_rank(X) == 3
    with pytest.raises(ValueError):
        one_hot_features(3, 2)


def test_architecture_validation():
    with pytest.raises(ValueError):
        NetArchitecture(widths=(3,))
    with pytest.raises(ValueError):
        NetArchitecture(widths=(3, 4), leaky_slope=1.5)

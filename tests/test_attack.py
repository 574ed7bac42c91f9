"""Tests for the reward-poisoning attack, the feasible reward region, and
the minimax game values."""

import numpy as np
import pytest

from policypaths.attack import (AttackSpec, RewardRegion, attack,
                                det_occupancies, inner_min_over_region,
                                maxmin_value, minimax_gap, minmax_value,
                                nn_minimax_gap, region_from_anchor)
from enumeration import enumerate_deterministic_policies
from policypaths.errors import AnchorInvalid, NonConvergence
from policypaths.mdp import (Mdp, average_reward, deterministic_policy,
                             occupancy, policy_from_occupancy,
                             random_ergodic_mdp)
from policypaths.network import NetArchitecture, one_hot_features


def single_state_mdp():
    return Mdp(kernel=np.ones((1, 2, 1)), reward=np.array([[0.0, 1.0]]))


def test_attack_closed_form_single_state():
    # |S|=1, r=(0,1), target action 0, margin 0.5: one halfspace
    # r(0) - r(1) >= 0.5 and the projection lands at (0.75, 0.25)
    mdp = single_state_mdp()
    result = attack(mdp, AttackSpec(target=[0], margin=0.5))
    assert np.max(np.abs(result.poisoned - np.array([[0.75, 0.25]]))) < 1e-9
    assert result.kkt_residual <= 1e-6
    assert abs(result.cost - 0.75 * np.sqrt(2.0)) < 1e-9


def test_attack_feasible_target_unchanged():
    # target already clears the margin: projection of a feasible point
    mdp = single_state_mdp()
    result = attack(mdp, AttackSpec(target=[1], margin=0.5))
    assert np.max(np.abs(result.poisoned - mdp.reward)) < 1e-10
    assert result.cost < 1e-10


def test_attack_margins_on_random_instance():
    mdp = random_ergodic_mdp(0, 2, 2)
    spec = AttackSpec(target=[1, 0], margin=0.1)
    result = attack(mdp, spec)
    # recompute every competitor's value under the poisoned reward
    target_pi = deterministic_policy([1, 0], 2)
    j_target = average_reward(mdp, target_pi, reward=result.poisoned)
    for pi in enumerate_deterministic_policies(mdp):
        if np.array_equal(pi, target_pi):
            continue
        j = average_reward(mdp, pi, reward=result.poisoned)
        assert j_target - j >= 0.1 - 1e-8


def _one_policy_at_a_time(mdp):
    """det_occupancies as it was built: one occupancy solve per policy."""
    return np.stack([occupancy(mdp, pi).ravel()
                     for pi in enumerate_deterministic_policies(mdp)])


def _sparse_mdp(rng, n_states, n_actions):
    kernel = np.zeros((n_states, n_actions, n_states))
    for s in range(n_states):
        for a in range(n_actions):
            size = min(n_states, int(rng.integers(1, 3)))
            support = rng.choice(n_states, size=size, replace=False)
            kernel[s, a, support] = rng.dirichlet(np.ones(len(support)))
    return Mdp(kernel=kernel, reward=np.zeros((n_states, n_actions)))


@pytest.mark.filterwarnings("error")
def test_det_occupancies_matches_one_policy_at_a_time():
    # dense and sparse kernels, |S| 1-5 and |A| 1-3: the same bits, or the
    # same NonConvergence message from the first policy that fails
    rng = np.random.default_rng(73)
    raised = 0
    for n_states in range(1, 6):
        for n_actions in range(1, 4):
            for mdp in (random_ergodic_mdp(int(rng.integers(1000)), n_states,
                                           n_actions),
                        _sparse_mdp(rng, n_states, n_actions)):
                try:
                    expected = _one_policy_at_a_time(mdp)
                except NonConvergence as exc:
                    raised += 1
                    with pytest.raises(NonConvergence) as got:
                        det_occupancies(mdp)
                    assert str(got.value) == str(exc)
                    continue
                occ = det_occupancies(mdp)
                assert occ.shape == expected.shape
                assert np.array_equal(occ, expected)
    assert 5 <= raised <= 25


@pytest.mark.parametrize("kernel_rows, message", [
    # policy (0, 1) leaves state 1 absorbing: a zero pivot
    ([[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.0, 1.0]]],
     "reducible chain: state 1 cannot reach state 0"),
    # policy (1, 0) leaves state 0 absorbing: a zero mass
    ([[[0.5, 0.5], [1.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]]],
     "reducible chain: state 0 cannot reach state 1"),
])
def test_det_occupancies_reducible_policy_message(kernel_rows, message):
    mdp = Mdp(kernel=np.array(kernel_rows), reward=np.zeros((2, 2)))
    with pytest.raises(NonConvergence) as got:
        det_occupancies(mdp)
    assert str(got.value) == message


def test_attack_idempotent():
    mdp = random_ergodic_mdp(1, 2, 2)
    spec = AttackSpec(target=[0, 1], margin=0.1)
    first = attack(mdp, spec)
    poisoned_mdp = Mdp(kernel=mdp.kernel,
                       reward=np.clip(first.poisoned, 0.0, None),
                       reward_bound=max(1.0, first.poisoned.max()))
    second = attack(poisoned_mdp, spec)
    # re-projection of a point already in the polyhedron moves nothing
    assert np.max(np.abs(second.poisoned - poisoned_mdp.reward)) < 1e-8


def test_attack_grid_search_oracle_2d():
    # 2-D instances (|S|=1, |A|=2): exhaustive lattice oracle
    rng = np.random.default_rng(2)
    for trial in range(5):
        reward = rng.uniform(size=(1, 2))
        mdp = Mdp(kernel=np.ones((1, 2, 1)), reward=reward)
        spec = AttackSpec(target=[int(rng.integers(2))], margin=0.3)
        result = attack(mdp, spec)
        g = np.zeros(2)
        g[spec.target[0]] = 1.0
        g[1 - spec.target[0]] = -1.0
        grid = np.linspace(-1.0, 2.0, 400)
        best = None
        for r0 in grid:
            for r1 in grid:
                cand = np.array([r0, r1])
                if g @ cand >= spec.margin:
                    d = np.linalg.norm(cand - reward.ravel())
                    if best is None or d < best[0]:
                        best = (d, cand)
        assert np.max(np.abs(result.poisoned.ravel() - best[1])) <= 1e-2
        assert abs(result.cost - best[0]) <= 1e-2


def test_attack_kkt_random_sweep():
    rng = np.random.default_rng(3)
    for seed in range(10):
        s = int(rng.integers(1, 4))
        a = int(rng.integers(2, 4))
        mdp = random_ergodic_mdp(100 + seed, s, a)
        spec = AttackSpec(target=rng.integers(0, a, size=s), margin=0.05)
        result = attack(mdp, spec)
        assert result.kkt_residual <= 1e-6
        assert np.all(result.multipliers >= 0)


def test_region_interior_anchor_is_singleton_cone():
    mdp = single_state_mdp()
    spec = AttackSpec(target=[1], margin=0.5)
    result = attack(mdp, spec)
    region = region_from_anchor(mdp, spec, result.poisoned)
    assert region.generators.shape[1] == 0         # no active constraints
    assert region.contains(result.poisoned)
    # nothing else in the cone translate: only box moves change membership
    assert not region.contains(result.poisoned.ravel()
                               + np.array([0.3, 0.0]))


def test_region_single_state_ray():
    mdp = single_state_mdp()
    spec = AttackSpec(target=[0], margin=0.5)
    result = attack(mdp, spec)
    region = region_from_anchor(mdp, spec, result.poisoned)
    assert region.generators.shape[1] == 1
    g = region.generators[:, 0]
    assert np.allclose(np.abs(g), [1.0, 1.0], atol=1e-10)
    # the true reward lies on the ray: anchor - t g with t >= 0
    assert region.contains(mdp.reward.ravel())
    # moving along +g leaves the region
    assert not region.contains(region.anchor + 0.1 * g)


def test_region_membership_consistency_with_reprojection():
    mdp = random_ergodic_mdp(4, 2, 2)
    spec = AttackSpec(target=[0, 0], margin=0.1)
    result = attack(mdp, spec)
    region = region_from_anchor(mdp, spec, result.poisoned)
    rng = np.random.default_rng(4)
    agree = 0
    for _ in range(100):
        r = rng.uniform(0.0, 1.0, size=4)
        member = region.contains(r)
        # oracle: the attack from r must return the anchor
        probe = Mdp(kernel=mdp.kernel, reward=r.reshape(2, 2))
        reattack = attack(probe, spec)
        lands = np.max(np.abs(reattack.poisoned.ravel()
                              - region.anchor)) <= 1e-6
        assert member == lands
        agree += 1
    assert agree == 100


def test_region_convexity_witness():
    mdp = random_ergodic_mdp(5, 2, 2)
    spec = AttackSpec(target=[1, 1], margin=0.1)
    result = attack(mdp, spec)
    region = region_from_anchor(mdp, spec, result.poisoned)
    rng = np.random.default_rng(5)
    members = []
    while len(members) < 2:
        cand = region.project(rng.uniform(size=4))
        if region.contains(cand, tol=1e-6):
            members.append(cand)
    r1, r2 = members
    for t in np.linspace(0.0, 1.0, 11):
        assert region.contains(t * r1 + (1 - t) * r2, tol=1e-6)


def test_region_anchor_invalid():
    mdp = single_state_mdp()
    spec = AttackSpec(target=[0], margin=0.5)
    with pytest.raises(AnchorInvalid):
        region_from_anchor(mdp, spec, np.array([0.0, 1.0]))  # violates margin


def singleton_region(mdp, anchor):
    return RewardRegion(anchor=anchor,
                        generators=np.zeros((anchor.size, 0)),
                        bound=mdp.reward_bound)


def test_maxmin_singleton_region_is_best_response():
    mdp = random_ergodic_mdp(6, 2, 2)
    region = singleton_region(mdp, mdp.reward.ravel())
    value, mu_hat, worst = maxmin_value(mdp, region, cross_check=False)
    best = max(average_reward(mdp, pi)
               for pi in enumerate_deterministic_policies(mdp))
    assert abs(value - best) < 1e-8
    assert np.max(np.abs(worst - mdp.reward.ravel())) < 1e-8


def test_maxmin_constant_reward_region():
    mdp = random_ergodic_mdp(7, 2, 2)
    c = 0.6
    region = singleton_region(mdp, np.full(4, c))
    value, _, _ = maxmin_value(mdp, region, cross_check=False)
    assert abs(value - c) < 1e-9


def test_maxmin_matches_brute_force_on_ray():
    # single active generator: the region is a ray piece inside the box,
    # discretize it and enumerate deterministic policies
    mdp = random_ergodic_mdp(8, 2, 2)
    spec = AttackSpec(target=[0, 1], margin=0.1)
    result = attack(mdp, spec)
    region = region_from_anchor(mdp, spec, result.poisoned)
    if region.generators.shape[1] == 0:
        pytest.skip("interior anchor: region is a singleton")
    value, _, _ = maxmin_value(mdp, region, cross_check=False)
    occ = det_occupancies(mdp)
    best = -np.inf
    for mu in occ:
        worst = np.inf
        # scan the cone coefficients on a lattice
        k = region.generators.shape[1]
        for coeffs in np.ndindex(*([40] * k)):
            lam = np.asarray(coeffs, dtype=float) / 10.0
            r = region.anchor - region.generators @ lam
            if np.all(r >= -1e-12) and np.all(r <= region.bound + 1e-12):
                worst = min(worst, float(mu @ r))
        best = max(best, worst)
    # mixed policies can strictly beat every deterministic one here, so
    # the brute force over vertices is only a lower bound
    assert value >= best - 1e-4


def test_minmax_singleton_matches_maxmin():
    mdp = random_ergodic_mdp(9, 2, 2)
    region = singleton_region(mdp, mdp.reward.ravel())
    lo, _, _ = maxmin_value(mdp, region, cross_check=False)
    hi, _ = minmax_value(mdp, region)
    assert abs(hi - lo) < 1e-8


def test_minmax_single_state_line_search():
    mdp = single_state_mdp()
    spec = AttackSpec(target=[0], margin=0.5)
    result = attack(mdp, spec)
    region = region_from_anchor(mdp, spec, result.poisoned)
    hi, r_star = minmax_value(mdp, region)
    # 1-D oracle: walk the feasible ray and minimize max(r(0), r(1))
    g = region.generators[:, 0]
    best = np.inf
    for t in np.linspace(0.0, 2.0, 4001):
        r = region.anchor - t * g
        if np.all(r >= 0) and np.all(r <= 1.0):
            best = min(best, float(np.max(r)))
    assert abs(hi - best) < 1e-3


def test_weak_duality_random_instances():
    rng = np.random.default_rng(10)
    for seed in range(5):
        s = int(rng.integers(1, 4))
        mdp = random_ergodic_mdp(200 + seed, s, 2)
        spec = AttackSpec(target=rng.integers(0, 2, size=s), margin=0.05)
        result = attack(mdp, spec)
        region = region_from_anchor(mdp, spec, result.poisoned)
        lo, _, _ = maxmin_value(mdp, region, cross_check=False)
        hi, _ = minmax_value(mdp, region)
        assert hi >= lo - 1e-9


def test_minimax_gap_closes():
    mdp = random_ergodic_mdp(11, 2, 2)
    spec = AttackSpec(target=[1, 0], margin=0.05)
    result = attack(mdp, spec)
    region = region_from_anchor(mdp, spec, result.poisoned)
    game = minimax_gap(mdp, region, cross_check=True)
    assert game["gap"] >= -1e-6
    assert game["gap"] <= 1e-5


def test_maxmin_equilibrium_saddle_property():
    mdp = random_ergodic_mdp(12, 2, 2)
    spec = AttackSpec(target=[0, 0], margin=0.05)
    result = attack(mdp, spec)
    region = region_from_anchor(mdp, spec, result.poisoned)
    value, mu_hat, worst = maxmin_value(mdp, region, cross_check=False)
    pi_star = policy_from_occupancy(np.maximum(mu_hat, 0.0).reshape(2, 2))
    # the equilibrium policy defends the value against the witness reward
    assert average_reward(mdp, pi_star, reward=worst.reshape(2, 2)) \
        >= value - 1e-5
    # and the witness reward caps every deterministic policy near the value
    hi = max(float(mu @ worst) for mu in det_occupancies(mdp))
    assert hi <= value + 1e-5 or hi >= value - 1e-5


def test_inner_min_consistency():
    mdp = random_ergodic_mdp(13, 2, 2)
    spec = AttackSpec(target=[1, 1], margin=0.05)
    result = attack(mdp, spec)
    region = region_from_anchor(mdp, spec, result.poisoned)
    mu_hat = det_occupancies(mdp)[0]
    value, r_star = inner_min_over_region(mdp, region, mu_hat)
    assert region.contains(r_star, tol=1e-6)
    assert abs(value - float(mu_hat @ r_star)) < 1e-9


def test_nn_minimax_gap_small():
    mdp = random_ergodic_mdp(14, 3, 2)
    spec = AttackSpec(target=[0, 1, 0], margin=0.05)
    result = attack(mdp, spec)
    region = region_from_anchor(mdp, spec, result.poisoned)
    arch = NetArchitecture(widths=(3, 6, 4, 2))
    report = nn_minimax_gap(mdp, arch, one_hot_features(3), region)
    assert report["gap"] <= 2e-5
    # a zero network (uniform policy) never beats the realized equilibrium
    from policypaths.mdp import occupancy
    uniform = np.full((3, 2), 0.5)
    uniform_value, _ = inner_min_over_region(
        mdp, region, occupancy(mdp, uniform).ravel())
    assert uniform_value <= report["network_value"] + 1e-9

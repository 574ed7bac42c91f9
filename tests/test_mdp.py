"""Tests for the MDP core: transition matrices, stationary distributions,
occupancy measures, values, ergodicity, generators."""

import collections
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.sparse.csgraph import connected_components

from enumeration import enumerate_deterministic_policies
from policypaths.attack import AttackSpec, attack, det_occupancies
from policypaths.errors import CapExceeded, NonConvergence, ZeroStateMass
from policypaths.mdp import (CHAIN_BLOCK, ErgodicityCertificate, Mdp,
                             _deterministic_chains, _gth, average_reward,
                             check_ergodicity, check_one_policy,
                             check_policy, deterministic_policy,
                             discounted_to_average, occupancy,
                             policy_from_occupancy, random_ergodic_mdp,
                             stationary_distribution, transition_matrix)
from policypaths.tabular import interpolate_policies, verify_equiconnectedness
from ring_kernels import lazy_ring, ring_kernel, ring_mdp


def uniform_policy(s, a):
    return np.full((s, a), 1.0 / a)


def test_transition_matrix_single_state():
    mdp = Mdp(kernel=np.ones((1, 2, 1)), reward=np.array([[0.0, 1.0]]))
    P = transition_matrix(mdp, np.array([[0.3, 0.7]]))
    assert np.allclose(P, [[1.0]])


def test_transition_matrix_point_mass_selects_kernel_slice():
    mdp = random_ergodic_mdp(3, 3, 2)
    pi = deterministic_policy([1, 0, 1], 2)
    P = transition_matrix(mdp, pi)
    for s, a_star in enumerate([1, 0, 1]):
        assert np.allclose(P[:, s], mdp.kernel[s, a_star])


def test_transition_matrix_against_triple_loop():
    # independent brute-force summation oracle
    mdp = random_ergodic_mdp(7, 3, 2)
    rng = np.random.default_rng(0)
    pi = rng.dirichlet(np.ones(2), size=3)
    P = transition_matrix(mdp, pi)
    for sp in range(3):
        for s in range(3):
            total = 0.0
            for a in range(2):
                total += mdp.kernel[s, a, sp] * pi[s, a]
            assert abs(P[sp, s] - total) < 1e-14
    assert np.allclose(P.sum(axis=0), 1.0)


def test_stationary_symmetric_two_state():
    res = stationary_distribution(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert np.allclose(res.mu, [0.5, 0.5], atol=1e-12)


def test_stationary_hand_solved_two_state():
    # mu = P mu with columns (0.7, 0.3) and (0.4, 0.6): mu = (4/7, 3/7)
    P = np.array([[0.7, 0.4], [0.3, 0.6]])
    res = stationary_distribution(P)
    assert np.allclose(res.mu, [4.0 / 7.0, 3.0 / 7.0], atol=1e-11)
    assert res.residual <= 1e-12


def test_stationary_periodic_chain_raises():
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NonConvergence):
        stationary_distribution(P)


def test_stationary_two_closed_classes_raises():
    # states 0 and 1 are absorbing and state 2 splits between them: every
    # mixture of the two point masses balances, so none is the answer
    P = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5], [0.0, 0.0, 0.0]])
    with pytest.raises(NonConvergence, match="reducible"):
        stationary_distribution(P)


def test_stationary_transient_state_raises():
    # unichain: state 2 is transient, so the stationary distribution exists
    # but is not positive and the chain is not ergodic
    P = np.array([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5], [0.0, 0.0, 0.0]])
    with pytest.raises(NonConvergence, match="reducible"):
        stationary_distribution(P)


@pytest.mark.parametrize("P", [[[1.5, 0.5], [-0.5, 0.5]],
                               [[np.nan, 0.5], [0.5, 0.5]]])
def test_stationary_rejects_non_stochastic(P):
    # columns sum to 1, but a negative or NaN entry is no probability
    with pytest.raises(ValueError):
        stationary_distribution(np.array(P))


def test_stationary_aperiodic_without_self_loops():
    # cycles 0-1-0 and 0-1-2-0 have coprime lengths: aperiodic, mu = (2,2,1)/5
    P = np.array([[0.0, 0.5, 1.0], [1.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
    res = stationary_distribution(P)
    assert np.allclose(res.mu, [0.4, 0.4, 0.2], atol=1e-15)


@pytest.mark.parametrize("stay", [1e-2, 1e-3])
def test_stationary_slow_lazy_ring_is_uniform(stay):
    # nearly periodic ergodic chain: it mixes ever more slowly as stay -> 0
    res = stationary_distribution(lazy_ring(50, stay))
    assert np.max(np.abs(res.mu - 1.0 / 50)) <= 1e-12
    assert res.residual <= 1e-12
    assert res.iterations == 1


@pytest.mark.parametrize("n_states", [16, 48, 200])
def test_stationary_sparse_ring_matches_null_space(n_states):
    rng = np.random.default_rng(n_states)
    kernel = ring_kernel(rng, n_states, 3)
    pi = rng.dirichlet(np.ones(3), size=n_states)
    P = np.einsum("sap,sa->ps", kernel, pi)
    res = stationary_distribution(P)
    reference = null_space(P - np.eye(n_states))[:, 0]
    reference /= reference.sum()
    assert np.max(np.abs(res.mu - reference)) <= 1e-12
    assert np.all(res.mu > 0)
    assert res.residual <= 1e-12


def test_occupancy_single_state_is_policy_row():
    mdp = Mdp(kernel=np.ones((1, 2, 1)), reward=np.array([[0.0, 1.0]]))
    mu_hat = occupancy(mdp, np.array([[0.3, 0.7]]))
    assert np.allclose(mu_hat, [[0.3, 0.7]], atol=1e-12)


def test_occupancy_uniform_symmetric_chain():
    kernel = np.full((2, 2, 2), 0.5)
    mdp = Mdp(kernel=kernel, reward=np.zeros((2, 2)))
    mu_hat = occupancy(mdp, uniform_policy(2, 2))
    assert np.allclose(mu_hat, 0.25, atol=1e-12)


def test_occupancy_flow_balance():
    mdp = random_ergodic_mdp(11, 4, 3)
    rng = np.random.default_rng(1)
    pi = rng.dirichlet(np.ones(3), size=4)
    mu_hat = occupancy(mdp, pi)
    assert abs(mu_hat.sum() - 1.0) < 1e-10
    assert np.all(mu_hat >= 0)
    # flow balance: sum_a mu_hat(s',a) = sum_{s,a} P(s'|s,a) mu_hat(s,a)
    inflow = np.einsum("sap,sa->p", mdp.kernel, mu_hat)
    assert np.max(np.abs(mu_hat.sum(axis=1) - inflow)) < 1e-9


def test_policy_from_occupancy_uniform():
    pi = policy_from_occupancy(np.full((3, 2), 1.0 / 6.0))
    assert np.allclose(pi, 0.5)


def test_policy_occupancy_round_trip():
    mdp = random_ergodic_mdp(13, 3, 3)
    rng = np.random.default_rng(2)
    pi = rng.dirichlet(np.ones(3), size=3)
    back = policy_from_occupancy(occupancy(mdp, pi))
    assert np.max(np.abs(back - pi)) < 1e-9


def test_policy_from_occupancy_zero_row():
    mu_hat = np.array([[0.5, 0.5], [0.0, 0.0]])
    with pytest.raises(ZeroStateMass):
        policy_from_occupancy(mu_hat)


def test_average_reward_constant():
    mdp = random_ergodic_mdp(17, 3, 2)
    pi = uniform_policy(3, 2)
    c = 0.37
    assert abs(average_reward(mdp, pi, reward=np.full((3, 2), c)) - c) < 1e-10


def test_average_reward_single_state():
    mdp = Mdp(kernel=np.ones((1, 2, 1)), reward=np.array([[0.0, 1.0]]))
    assert abs(average_reward(mdp, np.array([[0.25, 0.75]])) - 0.75) < 1e-12


def test_average_reward_monte_carlo():
    # 1,000 independent trajectories of 1,000 recorded steps each (10^6
    # transitions) as an independent oracle
    mdp = random_ergodic_mdp(19, 3, 2)
    rng = np.random.default_rng(19)
    pi = rng.dirichlet(np.ones(2), size=3)
    exact = average_reward(mdp, pi)

    n_chains, burn_in, n_steps = 1000, 50, 1000
    cdf = np.cumsum(mdp.kernel, axis=2)
    pi_cdf = np.cumsum(pi, axis=1)
    s = rng.integers(3, size=n_chains)
    totals = np.zeros(n_chains)
    # inverse-CDF draws; the clip guards a cumulative sum that rounds below 1
    for t in range(burn_in + n_steps):
        a = np.minimum((rng.random((n_chains, 1)) > pi_cdf[s]).sum(axis=1), 1)
        if t >= burn_in:
            totals += mdp.reward[s, a]
        s = np.minimum((rng.random((n_chains, 1)) > cdf[s, a]).sum(axis=1), 2)
    chain_means = totals / n_steps
    estimate = chain_means.mean()
    se = chain_means.std(ddof=1) / np.sqrt(n_chains)
    # per-chain means are independent, so se is honest; the bound is a
    # generous 30 se (at least 3e-3)
    assert abs(estimate - exact) < 3 * max(se * 10, 1e-3)


def test_average_reward_linear_in_reward():
    mdp = random_ergodic_mdp(23, 3, 2)
    rng = np.random.default_rng(5)
    pi = rng.dirichlet(np.ones(2), size=3)
    r1 = rng.uniform(size=(3, 2))
    r2 = rng.uniform(size=(3, 2))
    alpha = 0.3
    lhs = average_reward(mdp, pi, reward=alpha * r1 + (1 - alpha) * r2)
    rhs = alpha * average_reward(mdp, pi, reward=r1) \
        + (1 - alpha) * average_reward(mdp, pi, reward=r2)
    assert abs(lhs - rhs) < 1e-10


def test_max_value_attained_by_deterministic_policy():
    mdp = random_ergodic_mdp(29, 3, 3)
    best_det = max(average_reward(mdp, pi)
                   for pi in enumerate_deterministic_policies(mdp))
    # projected gradient ascent over the policy table, with the exact
    # average-reward gradient mu(s) q(s, a) (q from the Poisson equation)
    def exact_gradient(pi):
        P = transition_matrix(mdp, pi)        # (s', s)
        mu = stationary_distribution(P).mu
        J = average_reward(mdp, pi)
        r_pi = (pi * mdp.reward).sum(axis=1)
        n = mdp.n_states
        h = np.linalg.solve(np.eye(n) - P.T + np.outer(np.ones(n), mu),
                            r_pi - J)
        q = mdp.reward - J + np.einsum("sap,p->sa", mdp.kernel, h)
        return mu[:, None] * q

    # conditional-gradient ascent: move toward the vertex maximizing the
    # linearized objective, with a backtracking line search
    rng = np.random.default_rng(6)
    pi = rng.dirichlet(np.ones(3), size=3)
    for _ in range(200):
        grad = exact_gradient(pi)
        vertex = np.zeros_like(pi)
        vertex[np.arange(3), np.argmax(grad, axis=1)] = 1.0
        current = average_reward(mdp, pi)
        eta = 1.0
        while eta > 1e-10:
            cand = (1 - eta) * pi + eta * vertex
            if average_reward(mdp, cand) >= current:
                pi = cand
                break
            eta *= 0.5
    assert average_reward(mdp, pi) <= best_det + 1e-6
    assert best_det - average_reward(mdp, pi) < 1e-6


def test_check_ergodicity_positive_kernel():
    mdp = random_ergodic_mdp(31, 3, 2)
    cert = check_ergodicity(mdp)
    assert cert.ergodic
    assert cert.checked_policies == 8


def test_check_ergodicity_absorbing_state():
    kernel = np.zeros((2, 2, 2))
    kernel[0, :, 0] = 1.0     # state 0 absorbing under both actions
    kernel[1, :, 1] = 0.5
    kernel[1, :, 0] = 0.5
    mdp = Mdp(kernel=kernel, reward=np.zeros((2, 2)))
    cert = check_ergodicity(mdp)
    assert not cert.ergodic
    assert cert.reason == "reducible"
    assert cert.witness is not None


def test_check_ergodicity_periodic_swap():
    kernel = np.zeros((2, 2, 2))
    kernel[0, :, 1] = 1.0
    kernel[1, :, 0] = 1.0
    mdp = Mdp(kernel=kernel, reward=np.zeros((2, 2)))
    cert = check_ergodicity(mdp)
    assert not cert.ergodic
    assert cert.reason == "periodic"


def _reference_period(P):
    """Period of an irreducible chain: gcd of BFS level differences over
    its edges."""
    n = P.shape[0]
    level = [-1] * n
    level[0] = 0
    queue = collections.deque([0])
    while queue:
        u = queue.popleft()
        for v in np.nonzero(P[:, u] > 0)[0]:
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(v)
    g = 0
    for u in range(n):
        for v in np.nonzero(P[:, u] > 0)[0]:
            g = math.gcd(g, abs(level[u] + 1 - level[v]))
    return g


def _reference_ergodicity(mdp):
    """Enumeration oracle: scipy strong connectivity, then the BFS period,
    for every deterministic policy in lexicographic order."""
    checked = 0
    for assignment in itertools.product(range(mdp.n_actions),
                                        repeat=mdp.n_states):
        checked += 1
        P = transition_matrix(mdp, deterministic_policy(assignment, mdp.n_actions))
        n_comp, _ = connected_components(P.T > 0, directed=True,
                                         connection="strong")
        if n_comp != 1:
            return ErgodicityCertificate(False, assignment, "reducible", checked)
        if _reference_period(P) != 1:
            return ErgodicityCertificate(False, assignment, "periodic", checked)
    return ErgodicityCertificate(True, checked_policies=checked)


def _sparse_kernel(rng, n_states, n_actions, self_loops):
    """Random kernel whose rows have random supports; with ``self_loops``
    false no row puts mass on its own state."""
    density = rng.uniform(0.2, 1.0)
    kernel = np.zeros((n_states, n_actions, n_states))
    for s in range(n_states):
        for a in range(n_actions):
            allowed = [t for t in range(n_states) if self_loops or t != s]
            support = [t for t in allowed if rng.random() < density]
            if not support:
                support = [allowed[int(rng.integers(len(allowed)))]]
            kernel[s, a, support] = rng.dirichlet(np.ones(len(support)))
    return Mdp(kernel=kernel, reward=np.zeros((n_states, n_actions)))


@pytest.mark.parametrize("self_loops", [True, False])
def test_check_ergodicity_matches_enumeration_oracle(self_loops):
    # |S| 1-5 with self-loops allowed, |S| 2-5 without any; each family
    # yields ergodic, reducible and periodic verdicts
    rng = np.random.default_rng(61 if self_loops else 67)
    reasons = collections.Counter()
    for _ in range(200):
        n_states = int(rng.integers(1 if self_loops else 2, 6))
        mdp = _sparse_kernel(rng, n_states, int(rng.integers(1, 4)), self_loops)
        cert = check_ergodicity(mdp)
        assert cert == _reference_ergodicity(mdp)
        reasons[cert.reason] += 1
    assert len(reasons) == 3 and min(reasons.values()) >= 10


def test_enumeration_counts_and_order():
    # lexicographic assignment order, also across the blocks of 3^8 = 6561
    # chains; each stacked matrix is the policy's transition matrix
    for seed, n_states, n_actions in [(37, 2, 2), (37, 3, 3), (38, 8, 3)]:
        mdp = random_ergodic_mdp(seed, n_states, n_actions)
        blocks = list(_deterministic_chains(mdp))
        assert max(len(a) for a, _ in blocks) <= CHAIN_BLOCK
        assignments = np.concatenate([a for a, _ in blocks])
        assert assignments.tolist() == [list(a) for a in itertools.product(
            range(n_actions), repeat=n_states)]
        chains = np.concatenate([P for _, P in blocks])
        for pi, P in zip(enumerate_deterministic_policies(mdp), chains):
            assert np.array_equal(P, transition_matrix(mdp, pi))
    assert assignments.shape == (3 ** 8, 8) and len(blocks) == 2
    first = next(_deterministic_chains(random_ergodic_mdp(37, 2, 2)))[0]
    assert first.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_enumeration_cap():
    # 2^17 policies exceed the cap: both enumerations refuse before they
    # allocate a stack (one block would take 4096 * 17 * 17 * 8 = 9.5 MB)
    mdp = random_ergodic_mdp(41, 17, 2)
    for enumeration in (check_ergodicity, det_occupancies):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match="131072 deterministic"):
                enumeration(mdp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6


def _mixed_stack(rng, n):
    """Column-stochastic n x n chains of every kind _gth tells apart:
    ergodic, reducible by a zero pivot, reducible by a zero mass, periodic
    and nearly decomposable."""
    chains = [rng.dirichlet(np.ones(n), size=n).T for _ in range(3)]
    if n >= 2:
        trapped = rng.dirichlet(np.ones(n), size=n).T
        trapped[:, n - 1] = np.eye(n)[n - 1]     # state n-1 is absorbing
        chains.append(trapped)                  # zero pivot
        source = rng.dirichlet(np.ones(n), size=n).T
        source[:, 0] = np.eye(n)[0]              # state 0 is absorbing
        chains.append(source)                   # zero mass
        chains.append(np.roll(np.eye(n), 1, axis=0))   # the n-cycle
        ring = np.roll(np.eye(n), 1, axis=0)
        ring[:, 0] = 0.0
        ring[[0, 1], 0] = 0.5                   # a 1-cycle joins the n-cycle
        chains.append(ring)
    if n >= 4:
        half = n // 2
        blocks = np.zeros((n, n))
        blocks[:half, :half] = rng.dirichlet(np.ones(half), size=half).T
        blocks[half:, half:] = rng.dirichlet(np.ones(n - half),
                                             size=n - half).T
        blocks[:, 0] = (1 - 1e-12) * blocks[:, 0] + 1e-12 * np.eye(n)[n - 1]
        blocks[:, n - 1] = (1 - 1e-12) * blocks[:, n - 1] + 1e-12 * np.eye(n)[0]
        chains.append(blocks)                   # nearly decomposable
        bipartite = np.zeros((n, n))
        bipartite[half:, :half] = rng.dirichlet(np.ones(n - half), size=half).T
        bipartite[:half, half:] = rng.dirichlet(np.ones(half), size=n - half).T
        chains.append(bipartite)                # period 2
    return np.array(chains)


@pytest.mark.filterwarnings("error")
def test_stacked_gth_matches_one_chain_calls():
    rng = np.random.default_rng(71)
    reasons = collections.Counter()
    for n in [1, 2, 3, 4, 5, 6, 12, 30]:
        stack = _mixed_stack(rng, n)
        stack = stack[rng.permutation(len(stack))]
        mu, failures = _gth(stack)
        assert mu.shape == (len(stack), n)
        for i, P in enumerate(stack):
            one_mu, one_failures = _gth(P)
            assert np.array_equal(mu[i], one_mu)
            assert failures.get(i) == one_failures.get(0)
            reasons[failures[i] if i in failures else None] += 1
        # a stack with extra leading axes flattens them in C order
        mu2, failures2 = _gth(stack.reshape(1, len(stack), n, n))
        assert np.array_equal(mu2[0], mu) and failures2 == failures
    assert {verdict[0] for verdict in reasons if verdict} == {"reducible",
                                                             "periodic"}
    assert ("reducible", "state 0 cannot reach state 1") in reasons
    assert any(v and v[1].endswith("cannot reach state 0") for v in reasons)
    assert reasons[None] >= 8 * 3


def test_random_mdp_determinism_and_variation():
    a = random_ergodic_mdp(43, 3, 2)
    b = random_ergodic_mdp(43, 3, 2)
    c = random_ergodic_mdp(44, 3, 2)
    assert a.to_json() == b.to_json()
    assert a.to_json() != c.to_json()
    assert check_ergodicity(a).ergodic


def test_mdp_json_round_trip():
    mdp = random_ergodic_mdp(47, 2, 3)
    back = Mdp.from_json(mdp.to_json())
    assert np.array_equal(back.kernel, mdp.kernel)
    assert np.array_equal(back.reward, mdp.reward)


def test_mdp_invariant_rejection():
    with pytest.raises(ValueError):
        Mdp(kernel=np.full((2, 2, 2), 0.4), reward=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Mdp(kernel=np.full((2, 2, 2), 0.5), reward=np.full((2, 2), 2.0))


def test_discounted_to_average_limits():
    mdp = random_ergodic_mdp(53, 2, 2)
    restart = np.array([0.5, 0.5])
    same = discounted_to_average(mdp, 1.0, restart)
    assert np.allclose(same.kernel, mdp.kernel, atol=1e-15)
    flat = discounted_to_average(mdp, 0.0, restart)
    assert np.allclose(flat.kernel, np.broadcast_to(restart, (2, 2, 2)))


def test_discounted_to_average_hand_formula():
    mdp = random_ergodic_mdp(59, 2, 2)
    restart = np.array([0.25, 0.75])
    gamma = 0.9
    out = discounted_to_average(mdp, gamma, restart)
    expected = gamma * mdp.kernel + (1 - gamma) * restart[None, None, :]
    assert np.max(np.abs(out.kernel - expected)) <= 1e-15


def _stack_families():
    """(MDP, stack of strictly positive policies): dense kernels with |S|
    2-6 and |A| 2-4, and ring kernels up to |S| = 48."""
    rng = np.random.default_rng(81)
    for S in range(2, 7):
        for A in range(2, 5):
            yield random_ergodic_mdp(810 + 10 * S + A, S, A), \
                rng.dirichlet(np.full(A, 0.5), size=(9, S))
    for S in (3, 8, 16, 24, 48):
        yield ring_mdp(820 + S, S, 3), rng.dirichlet(np.ones(3), size=(9, S))


@pytest.mark.filterwarnings("error")
def test_stacked_occupancy_matches_one_policy_calls():
    # Bitwise: a policy's occupancy must not depend on the stack it is in.
    for mdp, pis in _stack_families():
        P = transition_matrix(mdp, pis)
        stationary = stationary_distribution(P)
        occ = occupancy(mdp, pis)
        assert occ.shape == pis.shape
        assert stationary.residual.shape == (len(pis),)
        for i, pi in enumerate(pis):
            one_P = transition_matrix(mdp, pi)
            one = stationary_distribution(one_P)
            assert np.array_equal(P[i], one_P)
            assert np.array_equal(stationary.mu[i], one.mu)
            assert stationary.residual[i] == one.residual
            assert np.array_equal(occ[i], occupancy(mdp, pi))
        # two leading axes are one stack in C order
        grid = occupancy(mdp, pis.reshape(3, 3, *pis.shape[1:]))
        assert np.array_equal(grid.reshape(pis.shape), occ)


def _positive_chains(rng, n, count):
    return np.array([rng.dirichlet(np.ones(n), size=n).T for _ in range(count)])


def test_stacked_stationary_names_first_failing_chain():
    rng = np.random.default_rng(82)
    stack = _positive_chains(rng, 4, 7)
    stack[3][:, 3] = np.eye(4)[3]                 # state 3 absorbs
    stack[5] = np.roll(np.eye(4), 1, axis=0)      # period 4
    with pytest.raises(NonConvergence) as one:
        stationary_distribution(stack[3])
    assert one.value.chain == 0
    with pytest.raises(NonConvergence) as stacked:
        stationary_distribution(stack)
    assert stacked.value.chain == 3
    assert str(stacked.value) == "chain 3: " + str(one.value)
    # the occupancy of a stack of policies names its first failing policy
    kernel = np.stack([np.eye(3), rng.dirichlet(np.ones(3), size=3)], axis=1)
    mdp = Mdp(kernel=kernel, reward=np.zeros((3, 2)))
    pis = rng.dirichlet(np.ones(2), size=(5, 3))
    pis[2] = [1.0, 0.0]                           # stay put: reducible
    with pytest.raises(NonConvergence, match=r"^chain 2: reducible chain"):
        occupancy(mdp, pis)


def test_stacked_stationary_names_first_residual_failure(monkeypatch):
    # The uniform chain's residual is exactly 0, a random chain's is not:
    # with the tolerance at 0, chain 1 fails on its residual before chain 3
    # fails on its graph.
    rng = np.random.default_rng(83)
    stack = np.full((4, 4, 4), 0.25)
    stack[1] = _positive_chains(rng, 4, 1)[0]
    stack[3][:, 0] = np.eye(4)[0]                 # state 0 absorbs
    monkeypatch.setattr("policypaths.mdp.STATIONARY_TOL", 0.0)
    assert stationary_distribution(stack[0]).residual == 0.0
    with pytest.raises(NonConvergence,
                       match=r"^chain 1: balance residual .* exceeds tol=0.0"):
        stationary_distribution(stack)


def test_single_policy_entry_points_reject_a_stack():
    # Only check_policy, transition_matrix and occupancy take a stack; the
    # rest would silently mix the policies of one.
    mdp = random_ergodic_mdp(84, 3, 2)
    pis = np.full((2, 3, 2), 0.5)
    pis[1] = deterministic_policy([0, 1, 0], 2)
    for call in (lambda: check_one_policy(pis, 3, 2),
                 lambda: average_reward(mdp, pis),
                 lambda: interpolate_policies(mdp, pis, pis[0], 0.5),
                 lambda: verify_equiconnectedness(mdp, pis[0], pis,
                                                  [mdp.reward]),
                 lambda: attack(mdp, AttackSpec(target=pis[[1, 1]], margin=0.1))):
        with pytest.raises(ValueError, match=r"policy shape \(2, 3, 2\)"):
            call()
    assert np.array_equal(check_one_policy(pis[1], 3, 2), pis[1])
    assert np.array_equal(check_policy(pis, 3, 2), pis)
    assert occupancy(mdp, pis).shape == pis.shape

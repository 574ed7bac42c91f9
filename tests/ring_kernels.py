"""Sparse ring-plus-self-loop kernels: slow-mixing, yet ergodic under every
policy.

Every action of every state keeps a self-loop and the ring edge s -> s+1,
so every policy's chain contains the Hamiltonian ring (irreducible) and a
self-loop (aperiodic).  One extra chord per action to a random state carries
a small share of the moving mass.
"""

import numpy as np

from policypaths.mdp import Mdp


def ring_kernel(rng, n_states, n_actions):
    """(S, A, S) kernel with a self-loop, the ring edge and one chord per row.

    The stay probability is uniform on [0.1, 0.5]; the chord carries at most
    5% of the moving mass.
    """
    if n_states < 3:
        raise ValueError("the ring needs at least 3 states")
    kernel = np.zeros((n_states, n_actions, n_states))
    for s in range(n_states):
        for a in range(n_actions):
            p_stay = rng.uniform(0.1, 0.5)
            chord = (1.0 - p_stay) * rng.uniform(0.0, 0.05)
            kernel[s, a, s] = p_stay
            kernel[s, a, (s + int(rng.integers(2, n_states))) % n_states] = chord
            kernel[s, a, (s + 1) % n_states] = 1.0 - p_stay - chord
    return kernel


def ring_mdp(seed, n_states, n_actions):
    """Ring kernel with uniform [0, 1] rewards."""
    rng = np.random.default_rng(seed)
    kernel = ring_kernel(rng, n_states, n_actions)
    reward = rng.uniform(0.0, 1.0, size=(n_states, n_actions))
    return Mdp(kernel=kernel, reward=reward)


def lazy_ring(n_states, stay):
    """Column-stochastic lazy ring: stay with ``stay``, else step to s+1."""
    P = np.zeros((n_states, n_states))
    s = np.arange(n_states)
    P[s, s] = stay
    P[(s + 1) % n_states, s] = 1.0 - stay
    return P

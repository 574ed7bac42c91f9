"""One policy at a time: the enumeration oracle for the stacked
deterministic-policy solves in ``policypaths``."""

import itertools

from policypaths.mdp import deterministic_policy


def enumerate_deterministic_policies(mdp):
    """All |A|^|S| point-mass policies in lexicographic assignment order."""
    return [deterministic_policy(assignment, mdp.n_actions)
            for assignment in itertools.product(range(mdp.n_actions),
                                                repeat=mdp.n_states)]

"""Tests for the shared numerical kernels against independent oracles."""

import itertools

import numpy as np
import pytest

from policypaths.attack import DYKSTRA_SWEEPS
from policypaths.errors import Infeasible, IterationCap, Unbounded
from policypaths.numerics import (LpProblem, dykstra, extragradient_saddle,
                                  lp_solve, nnls, pinv, project_polyhedron,
                                  rank_with_tol)


# Projection oracles for the extragradient and Dykstra tests.

def project_simplex(z):
    """Euclidean projection onto the probability simplex."""
    z = np.asarray(z, dtype=float)
    u = np.sort(z)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, z.size + 1)
    cond = u - (css - 1.0) / ks > 0
    k = ks[cond][-1]
    tau = (css[k - 1] - 1.0) / k
    return np.maximum(z - tau, 0.0)


def project_affine(z, E, e):
    """Euclidean projection onto {x : E x = e} (E may be rank deficient)."""
    E = np.asarray(E, dtype=float)
    e = np.asarray(e, dtype=float)
    correction, *_ = np.linalg.lstsq(E, E @ z - e, rcond=None)
    # lstsq returns the min-norm solution, which lies in the row space of E.
    return z - correction


def test_rank_with_tol():
    assert rank_with_tol(np.zeros((3, 3))) == 0
    assert rank_with_tol(np.eye(3)) == 3
    u = np.array([[1.0], [2.0]])
    assert rank_with_tol(u @ u.T) == 1


def test_pinv_identity_and_tall():
    assert np.allclose(pinv(np.eye(3)), np.eye(3))
    rng = np.random.default_rng(2)
    M = rng.normal(size=(6, 3))
    assert np.linalg.norm(pinv(M) @ M - np.eye(3)) < 1e-10


def test_pinv_rank_one_closed_form():
    rng = np.random.default_rng(3)
    u = rng.normal(size=5)
    v = rng.normal(size=3)
    M = np.outer(u, v)
    expected = np.outer(v, u) / (u @ u) / (v @ v)
    assert np.linalg.norm(pinv(M) - expected) < 1e-10


def test_pinv_penrose_identities():
    rng = np.random.default_rng(4)
    M = rng.normal(size=(5, 3))
    Mp = pinv(M)
    assert np.linalg.norm(M @ Mp @ M - M) < 1e-8
    assert np.linalg.norm(Mp @ M @ Mp - Mp) < 1e-8
    assert np.linalg.norm((M @ Mp).T - M @ Mp) < 1e-8
    assert np.linalg.norm((Mp @ M).T - Mp @ M) < 1e-8


def test_nnls_exact_fit():
    rng = np.random.default_rng(5)
    A = np.abs(rng.normal(size=(6, 3)))
    lam_true = np.abs(rng.normal(size=3))
    lam, rnorm = nnls(A, A @ lam_true)
    assert rnorm < 1e-9
    assert np.allclose(lam, lam_true, atol=1e-8)


def test_nnls_orthogonal_rhs():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    lam, _ = nnls(A, np.array([0.0, 0.0, 2.0]))
    assert np.allclose(lam, 0.0)


def test_nnls_against_sign_pattern_enumeration():
    # exhaustive active-set oracle: for each subset of columns solve the
    # unconstrained LS on it, keep feasible candidates, take the best
    rng = np.random.default_rng(6)
    for trial in range(20):
        m, n = 7, 5
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        best = np.linalg.norm(b)
        for k in range(1, n + 1):
            for cols in itertools.combinations(range(n), k):
                sub = A[:, cols]
                coef, *_ = np.linalg.lstsq(sub, b, rcond=None)
                if np.all(coef >= -1e-12):
                    best = min(best, np.linalg.norm(sub @ coef - b))
        _, rnorm = nnls(A, b)
        assert rnorm <= best + 1e-9


def test_nnls_kkt():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(8, 4))
    b = rng.normal(size=8)
    lam, _ = nnls(A, b)
    grad = A.T @ (A @ lam - b)
    assert np.all(lam >= 0)
    assert np.min(grad) > -1e-9
    assert np.max(np.abs(lam * grad)) < 1e-9


def test_lp_simple_bound():
    sol = lp_solve(LpProblem(c=np.array([1.0]), A_ub=np.array([[-1.0]]),
                             b_ub=np.array([-3.0])))
    assert abs(sol.optimum - 3.0) < 1e-9


def test_lp_transportation_toy():
    # ship from 2 sources (supply 1, 2) to 2 sinks (demand 2, 1),
    # costs [[1, 3], [2, 1]]; optimum puts the cheap edges first
    c = np.array([1.0, 3.0, 2.0, 1.0])
    A_eq = np.array([
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
    ])
    b_eq = np.array([1.0, 2.0, 2.0, 1.0])
    bounds = [(0.0, None)] * 4
    sol = lp_solve(LpProblem(c=c, A_eq=A_eq, b_eq=b_eq, bounds=bounds))
    # hand solution: x11=1, x21=1, x22=1 -> cost 1 + 2 + 1 = 4
    assert abs(sol.optimum - 4.0) < 1e-9


def test_lp_matches_vertex_enumeration():
    # brute-force the basic feasible solutions of a random bounded LP in
    # standard inequality form over the box [0, 1]^3
    rng = np.random.default_rng(8)
    for trial in range(10):
        c = rng.normal(size=3)
        A_ub = rng.normal(size=(3, 3))
        b_ub = A_ub @ np.full(3, 0.5) + np.abs(rng.normal(size=3))
        rows = [(A_ub[i], b_ub[i]) for i in range(3)]
        rows += [(e, 1.0) for e in np.eye(3)]          # x_i <= 1
        rows += [(-e, 0.0) for e in np.eye(3)]         # x_i >= 0
        best = np.inf
        for combo in itertools.combinations(range(len(rows)), 3):
            M = np.array([rows[i][0] for i in combo])
            rhs = np.array([rows[i][1] for i in combo])
            if abs(np.linalg.det(M)) < 1e-10:
                continue
            x = np.linalg.solve(M, rhs)
            feas = all(row @ x <= b + 1e-9 for row, b in rows)
            if feas:
                best = min(best, c @ x)
        sol = lp_solve(LpProblem(c=c, A_ub=A_ub, b_ub=b_ub,
                                 bounds=[(0.0, 1.0)] * 3))
        assert abs(sol.optimum - best) < 1e-8


def test_lp_duality_gap():
    # standard-form instance (x >= 0, binding inequality rows) so the dual
    # objective is just b^T y: strong duality closes the gap to 1e-8
    rng = np.random.default_rng(9)
    for trial in range(5):
        c = -np.abs(rng.normal(size=4)) - 0.1
        A_ub = np.abs(rng.normal(size=(3, 4))) + 0.1
        b_ub = np.abs(rng.normal(size=3)) + 1.0
        sol = lp_solve(LpProblem(c=c, A_ub=A_ub, b_ub=b_ub,
                                 bounds=[(0.0, None)] * 4))
        assert np.all(A_ub @ sol.x <= b_ub + 1e-8)
        assert np.all(sol.dual_ub <= 1e-12)
        assert abs(b_ub @ sol.dual_ub - sol.optimum) < 1e-8
        reduced = c - A_ub.T @ sol.dual_ub
        assert np.min(reduced) > -1e-8
        assert np.max(np.abs(sol.x * reduced)) < 1e-7


def test_lp_infeasible_and_unbounded():
    with pytest.raises(Infeasible):
        lp_solve(LpProblem(c=np.array([1.0]),
                           A_ub=np.array([[1.0], [-1.0]]),
                           b_ub=np.array([-1.0, -1.0])))
    with pytest.raises(Unbounded):
        lp_solve(LpProblem(c=np.array([-1.0]), bounds=[(0.0, None)]))


def test_project_box_and_simplex():
    p = project_simplex(np.array([0.8, 0.3, -0.4]))
    assert abs(p.sum() - 1.0) < 1e-12
    assert np.all(p >= 0)
    # interior case is a pure shift
    q = project_simplex(np.array([0.5, 0.3, 0.2]))
    assert np.allclose(q, [0.5, 0.3, 0.2])


def test_project_affine():
    E = np.array([[1.0, 1.0, 0.0]])
    x = project_affine(np.array([1.0, 0.0, 3.0]), E, np.array([1.0]))
    assert np.allclose(E @ x, 1.0)
    assert np.allclose(x, [1.0, 0.0, 3.0])  # already feasible


def test_project_polyhedron_halfspace_closed_form():
    # projection of z onto {x : a x >= b} is z + (b - a z)/||a||^2 a
    z = np.array([0.0, 1.0])
    A = np.array([[1.0, -1.0]])
    b = np.array([0.5])
    x, lam = project_polyhedron(z, A=A, b=b)
    assert np.allclose(x, [0.75, 0.25], atol=1e-12)
    assert np.all(lam >= 0)


def test_project_polyhedron_feasible_point_unmoved():
    rng = np.random.default_rng(10)
    A = rng.normal(size=(5, 3))
    z = rng.normal(size=3)
    b = A @ z - np.abs(rng.normal(size=5))      # z strictly feasible
    x, lam = project_polyhedron(z, A=A, b=b)
    assert np.allclose(x, z)
    assert np.allclose(lam, 0.0)


def test_project_polyhedron_kkt_random():
    rng = np.random.default_rng(11)
    for trial in range(20):
        A = rng.normal(size=(6, 4))
        b = rng.normal(size=6)
        z = rng.normal(size=4)
        try:
            x, lam = project_polyhedron(z, A=A, b=b)
        except Infeasible:
            continue
        margins = A @ x - b
        assert margins.min() > -1e-8
        assert np.linalg.norm(x - z - A.T @ lam, ord=np.inf) < 1e-8
        assert np.max(np.abs(lam * margins)) < 1e-7


def test_project_polyhedron_infeasible():
    A = np.array([[1.0], [-1.0]])
    b = np.array([1.0, 1.0])                    # x >= 1 and x <= -1
    with pytest.raises(Infeasible):
        project_polyhedron(np.zeros(1), A=A, b=b)


def test_dykstra_box_halfplane():
    # intersection of the unit box with {x + y >= 1.5}
    target = dykstra(np.zeros(2), [
        lambda v: np.clip(v, 0.0, 1.0),
        lambda v: project_affine(v, np.array([[1.0, 1.0]]), np.array([1.5]))
        if v.sum() < 1.5 else v,
    ], max_iter=DYKSTRA_SWEEPS)
    assert abs(target.sum() - 1.5) < 1e-8
    assert np.all(target >= -1e-9) and np.all(target <= 1.0 + 1e-9)


def test_dykstra_raises_at_its_iteration_cap():
    # the same problem needs a second sweep to see its iterate stand still,
    # so a cap of one sweep must raise rather than return the iterate
    projections = [
        lambda v: np.clip(v, 0.0, 1.0),
        lambda v: project_affine(v, np.array([[1.0, 1.0]]), np.array([1.5]))
        if v.sum() < 1.5 else v,
    ]
    assert np.allclose(dykstra(np.zeros(2), projections, max_iter=2), 0.75)
    with pytest.raises(IterationCap, match="max_iter=1 sweeps"):
        dykstra(np.zeros(2), projections, max_iter=1)


def simplex_projector(v):
    return project_simplex(v)


def test_extragradient_trivial_game():
    res = extragradient_saddle(np.array([[0.0]]), simplex_projector,
                               simplex_projector, np.ones(1), np.ones(1),
                               iters=100)
    assert abs(res.value) < 1e-12


def test_extragradient_matching_pennies():
    K = np.array([[1.0, -1.0], [-1.0, 1.0]])
    res = extragradient_saddle(K, simplex_projector, simplex_projector,
                               np.array([0.9, 0.1]), np.array([0.2, 0.8]),
                               iters=20000)
    assert abs(res.value) < 1e-4
    assert np.allclose(res.x, 0.5, atol=1e-3)
    assert np.allclose(res.y, 0.5, atol=1e-3)


def test_extragradient_random_game_matches_lp():
    rng = np.random.default_rng(12)
    K = rng.normal(size=(3, 3))
    # LP for the max player of max_x min_y x^T K y over simplices:
    # maximize t subject to (K^T x)_j >= t for all j
    c = np.concatenate([np.zeros(3), [-1.0]])
    A_ub = np.hstack([-K.T, np.ones((3, 1))])
    b_ub = np.zeros(3)
    A_eq = np.array([[1.0, 1.0, 1.0, 0.0]])
    b_eq = np.array([1.0])
    bounds = [(0.0, None)] * 3 + [(None, None)]
    sol = lp_solve(LpProblem(c=c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                             bounds=bounds))
    game_value = -sol.optimum
    res = extragradient_saddle(K, simplex_projector, simplex_projector,
                               np.full(3, 1 / 3), np.full(3, 1 / 3),
                               iters=60000)
    achieved = float(np.min(K.T @ res.x))
    assert abs(achieved - game_value) < 1e-4

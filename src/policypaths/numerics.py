"""Shared dense linear-algebra and optimization kernels.

Everything here is desk scale: dense matrices with at most a few hundred
rows.  The LP and NNLS kernels wrap SciPy, and the polyhedral projection
is one NNLS solve; the extragradient and Dykstra routines are
self-contained so they can serve as independent cross-checks.
"""

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .errors import Infeasible, IterationCap, LpFailure, Unbounded

PINV_TOL = 1e-10
DYKSTRA_TOL = 1e-12


def rank_with_tol(M, tol=PINV_TOL):
    """Numerical rank: count of singular values above tol * sigma_max."""
    s = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def pinv(M):
    """Moore-Penrose pseudo-inverse, zeroing singular values below
    PINV_TOL * sigma_max."""
    return np.linalg.pinv(np.asarray(M, dtype=float), rcond=PINV_TOL)


def nnls(A, b):
    """Nonnegative least squares: lam >= 0 minimizing ||A lam - b||_2."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.shape[1] == 0:
        return np.zeros(0), float(np.linalg.norm(b))
    try:
        lam, rnorm = scipy.optimize.nnls(A, b)
    except RuntimeError as exc:
        raise IterationCap(str(exc)) from exc
    return lam, float(rnorm)


@dataclass
class LpProblem:
    """min c @ x  s.t.  A_ub x <= b_ub, A_eq x = b_eq, bounds per variable."""

    c: np.ndarray
    A_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    bounds: list | None = None          # list of (lo, hi), None entries = free

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.size
        for name in ("A_ub", "A_eq"):
            M = getattr(self, name)
            if M is not None:
                M = np.asarray(M, dtype=float)
                if M.shape[1] != n:
                    raise ValueError(f"{name} has {M.shape[1]} columns, expected {n}")
                setattr(self, name, M)
        if self.bounds is None:
            self.bounds = [(None, None)] * n


@dataclass
class LpSolution:
    optimum: float
    x: np.ndarray
    dual_ub: np.ndarray
    dual_eq: np.ndarray


def lp_solve(problem):
    """Solve an LpProblem; raises Infeasible/Unbounded/LpFailure."""
    res = scipy.optimize.linprog(
        problem.c, A_ub=problem.A_ub, b_ub=problem.b_ub,
        A_eq=problem.A_eq, b_eq=problem.b_eq,
        bounds=problem.bounds, method="highs")
    if res.status == 2:
        raise Infeasible(res.message)
    if res.status == 3:
        raise Unbounded(res.message)
    if res.status != 0:
        raise LpFailure(res.message)
    dual_ub = np.asarray(res.ineqlin.marginals) if problem.A_ub is not None else np.zeros(0)
    dual_eq = np.asarray(res.eqlin.marginals) if problem.A_eq is not None else np.zeros(0)
    return LpSolution(optimum=float(res.fun), x=np.asarray(res.x),
                      dual_ub=dual_ub, dual_eq=dual_eq)


def project_polyhedron(z, A, b):
    """Euclidean projection of z onto {x : A x >= b}.

    Returns (x, lam) with nonnegative multipliers lam satisfying
    x = z + A.T lam.  Uses the least-distance-programming reduction: one
    NNLS on the stacked system, with the point and multipliers read off its
    residual, which is robust to degenerate constraint sets.  Raises
    Infeasible when the polyhedron is empty.
    """
    z = np.asarray(z, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    h = b - A @ z
    if m == 0 or np.max(h) <= 0.0:
        return z.copy(), np.zeros(m)
    E = np.vstack([A.T, h[None, :]])
    f = np.zeros(n + 1)
    f[n] = 1.0
    u, _ = nnls(E, f)
    r = E @ u - f
    denom = -r[n]
    if denom <= 1e-13:
        raise Infeasible("polyhedron is empty (least-distance residual "
                         "vanished)")
    y = r[:n] / denom
    lam = u / denom
    return z + y, lam


def dykstra(z, projections, max_iter):
    """Dykstra's alternating projection onto an intersection of convex sets,
    stopped once an iterate moves by at most DYKSTRA_TOL; raises
    IterationCap when ``max_iter`` sweeps do not get there."""
    x = np.asarray(z, dtype=float).copy()
    increments = [np.zeros_like(x) for _ in projections]
    for _ in range(max_iter):
        x_prev = x.copy()
        for i, proj in enumerate(projections):
            y = proj(x + increments[i])
            increments[i] = x + increments[i] - y
            x = y
        if np.max(np.abs(x - x_prev)) <= DYKSTRA_TOL:
            return x
    raise IterationCap(f"Dykstra projection did not settle within "
                       f"max_iter={max_iter} sweeps")


@dataclass
class SaddleResult:
    x: np.ndarray
    y: np.ndarray
    value: float
    residual: float
    gap: float | None
    iterations: int


def extragradient_saddle(K, project_x, project_y, x0, y0, iters=10 ** 5,
                         gap_oracle=None, gap_tol=0.0, check_every=200):
    """Extragradient iteration for the bilinear saddle max_x min_y x.T K y.

    ``project_x`` / ``project_y`` are Euclidean projection oracles onto the
    compact feasible sets.  The last iterate is returned (for bilinear
    problems over polyhedra it converges linearly, unlike plain
    gradient-descent-ascent); ``residual`` is its movement under one more
    extragradient step, ``gap`` is filled from ``gap_oracle`` when
    supplied, and iteration stops early once gap <= gap_tol.  The step is
    0.9 / ||K||_2.
    """
    K = np.asarray(K, dtype=float)
    step = 0.9 / max(np.linalg.norm(K, 2), 1e-12)
    x = project_x(np.asarray(x0, dtype=float))
    y = project_y(np.asarray(y0, dtype=float))
    it = 0
    gap = None
    for it in range(1, iters + 1):
        x_half = project_x(x + step * (K @ y))
        y_half = project_y(y - step * (K.T @ x))
        x = project_x(x + step * (K @ y_half))
        y = project_y(y - step * (K.T @ x_half))
        if gap_oracle is not None and it % check_every == 0:
            gap = float(gap_oracle(x, y))
            if gap <= gap_tol:
                break
    x_next = project_x(x + step * (K @ y))
    y_next = project_y(y - step * (K.T @ x))
    residual = float(np.hypot(np.linalg.norm(x_next - x),
                              np.linalg.norm(y_next - y)) / step)
    if gap_oracle is not None and gap is None:
        gap = float(gap_oracle(x, y))
    return SaddleResult(x=x, y=y, value=float(x @ K @ y),
                        residual=residual, gap=gap, iterations=it)

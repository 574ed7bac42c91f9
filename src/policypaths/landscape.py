"""Two scalar fields separating gradient domination from superlevel-set
connectivity, plus the numerical census machinery for both.

The piecewise cubic ``f`` satisfies gradient domination on its domain
(its only stationary points are the two global maximizers) yet has a
disconnected maximizer set.  The quartic "volcano" ``g`` has connected
superlevel sets at every level but a stationary point at the origin that
is not a maximizer.
"""

import io
from dataclasses import dataclass

import numpy as np
import scipy.ndimage

from .errors import OutOfDomain

F_DOMAIN = ((-4.0, 4.0), (-2.0, 0.0))
G_DOMAIN = ((-3.0, 3.0), (-3.0, 3.0))
STATIONARY_TOL = 1e-8
FD_STEP = 1e-5
GRADIENT_POINTS = 1000
GRADIENT_SEED = 0
GRADIENT_REL_TOL = 1e-5
CURVATURE_TOL = 1e-6
BOUNDARY_MARGIN = 1e-3
NEWTON_SEEDS = 25
NEWTON_DAMPING = 0.5
NEWTON_MAX_ITER = 200
DEDUP_RADIUS = 1e-4
LEVEL_NUDGE = 1e-6


@dataclass
class ScalarField2D:
    """A scalar field with analytic gradient on a rectangular domain."""

    evaluate: callable              # (x, y) -> float
    gradient: callable              # (x, y) -> (gx, gy)
    bounds: tuple                   # ((x_lo, x_hi), (y_lo, y_hi))
    name: str = ""
    branch_seams: tuple = ()        # x-values where the definition switches

    def check_domain(self, x, y):
        (x_lo, x_hi), (y_lo, y_hi) = self.bounds
        if not (x_lo <= x <= x_hi and y_lo <= y <= y_hi):
            raise OutOfDomain(f"({x}, {y}) outside "
                              f"[{x_lo}, {x_hi}] x [{y_lo}, {y_hi}]")

    def __call__(self, x, y):
        self.check_domain(x, y)
        return self.evaluate(x, y)

    def grad(self, x, y):
        self.check_domain(x, y)
        return self.gradient(x, y)


def _f1(x, y):
    return (-(x - 1.0) ** 3 + 3.0 * (x - 1.0) - y * y - 2.0 * y
            - 0.02 * (y + 10.0) ** 2 * (10.0 - x * x))


def _f2(x, y):
    return (-(-x - 1.0) ** 3 + 3.0 * (-x - 1.0) - y * y - 2.0 * y
            - 0.02 * (y + 10.0) ** 2 * (10.0 - x * x))


def _grad_f1(x, y):
    gx = -3.0 * (x - 1.0) ** 2 + 3.0 + 0.04 * x * (y + 10.0) ** 2
    gy = -2.0 * y - 2.0 - 0.04 * (y + 10.0) * (10.0 - x * x)
    return gx, gy


def _grad_f2(x, y):
    gx = 3.0 * (x + 1.0) ** 2 - 3.0 + 0.04 * x * (y + 10.0) ** 2
    gy = -2.0 * y - 2.0 - 0.04 * (y + 10.0) * (10.0 - x * x)
    return gx, gy


def eval_f(x, y):
    """Piecewise cubic on [-4, 4] x [-2, 0]; the two branches agree in
    value and derivative on the seam x = 0."""
    return _FIELD_F(x, y)


def grad_f(x, y):
    return _FIELD_F.grad(x, y)


def eval_g(x, y):
    t = x * x + y * y
    return -t * t + 4.0 * t


def grad_g(x, y):
    t = x * x + y * y
    common = -4.0 * t + 8.0
    return common * x, common * y


def field_f():
    """The field f; ``check_domain`` is its only domain check."""
    return ScalarField2D(
        evaluate=lambda x, y: _f1(x, y) if x >= 0 else _f2(x, y),
        gradient=lambda x, y: _grad_f1(x, y) if x >= 0 else _grad_f2(x, y),
        bounds=F_DOMAIN, name="f", branch_seams=(0.0,))


_FIELD_F = field_f()


def field_g():
    return ScalarField2D(evaluate=eval_g, gradient=grad_g, bounds=G_DOMAIN,
                         name="g")


def check_gradient(field):
    """Compare the analytic gradient against central differences (step
    FD_STEP) at GRADIENT_POINTS random interior points, skipping a
    2 FD_STEP margin around domain edges and branch seams; the points are
    drawn with seed GRADIENT_SEED.  Returns the worst relative error;
    raises past GRADIENT_REL_TOL."""
    rng = np.random.default_rng(GRADIENT_SEED)
    (x_lo, x_hi), (y_lo, y_hi) = field.bounds
    h = FD_STEP
    worst = 0.0
    checked = 0
    while checked < GRADIENT_POINTS:
        x = rng.uniform(x_lo + 2 * h, x_hi - 2 * h)
        y = rng.uniform(y_lo + 2 * h, y_hi - 2 * h)
        if any(abs(x - seam) < 2 * h for seam in field.branch_seams):
            continue
        checked += 1
        gx, gy = field.grad(x, y)
        fd_x = (field(x + h, y) - field(x - h, y)) / (2 * h)
        fd_y = (field(x, y + h) - field(x, y - h)) / (2 * h)
        scale = max(1.0, np.hypot(gx, gy))
        err = max(abs(fd_x - gx), abs(fd_y - gy)) / scale
        worst = max(worst, err)
    if worst > GRADIENT_REL_TOL:
        raise AssertionError(
            f"gradient of {field.name or 'field'} disagrees with finite "
            f"differences: rel err {worst:.3e}")
    return worst


def _hessian_fd(field, x, y):
    (x_lo, x_hi), (y_lo, y_hi) = field.bounds
    xp, xm = min(x + FD_STEP, x_hi), max(x - FD_STEP, x_lo)
    yp, ym = min(y + FD_STEP, y_hi), max(y - FD_STEP, y_lo)
    gxp = field.grad(xp, y)
    gxm = field.grad(xm, y)
    gyp = field.grad(x, yp)
    gym = field.grad(x, ym)
    H = np.array([
        [(gxp[0] - gxm[0]) / (xp - xm), (gyp[0] - gym[0]) / (yp - ym)],
        [(gxp[1] - gxm[1]) / (xp - xm), (gyp[1] - gym[1]) / (yp - ym)],
    ])
    return 0.5 * (H + H.T)


def _classify(H):
    eigs = np.linalg.eigvalsh(H)
    if eigs[-1] < -CURVATURE_TOL:
        return "max"
    if eigs[0] > CURVATURE_TOL:
        return "min"
    if eigs[0] < -CURVATURE_TOL < CURVATURE_TOL < eigs[-1]:
        return "saddle"
    return "degenerate"


def _newton_from(field, x, y, sub_bounds):
    (x_lo, x_hi), (y_lo, y_hi) = sub_bounds
    g = np.array(field.grad(x, y))
    for _ in range(NEWTON_MAX_ITER):
        norm = np.linalg.norm(g, ord=np.inf)
        if norm <= STATIONARY_TOL:
            return x, y
        H = _hessian_fd(field, x, y)
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            return None
        scale = 1.0
        while scale > 1e-6:
            xn = min(max(x + scale * step[0], x_lo), x_hi)
            yn = min(max(y + scale * step[1], y_lo), y_hi)
            gn = np.array(field.grad(xn, yn))
            if np.linalg.norm(gn, ord=np.inf) < norm:
                x, y, g = xn, yn, gn
                break
            scale *= NEWTON_DAMPING
        else:
            return None
    return None


@dataclass
class StationaryPoint:
    x: float
    y: float
    value: float
    classification: str
    grad_norm: float

    def to_dict(self):
        return {"x": self.x, "y": self.y, "value": self.value,
                "class": self.classification, "grad_norm": self.grad_norm}


def find_stationary_points(field):
    """Damped Newton from a NEWTON_SEEDS x NEWTON_SEEDS seed grid (run
    separately on each branch of a piecewise field), deduplicated and
    Hessian-classified.

    Points that converge onto the domain or seam boundary are dropped:
    the census targets interior stationary points.
    """
    (x_lo, x_hi), (y_lo, y_hi) = field.bounds
    seams = sorted(field.branch_seams)
    x_edges = [x_lo] + [s for s in seams if x_lo < s < x_hi] + [x_hi]
    found = []
    for lo, hi in zip(x_edges[:-1], x_edges[1:]):
        eps = 1e-9 * max(1.0, hi - lo)
        xs = np.linspace(lo + eps, hi - eps, NEWTON_SEEDS)
        ys = np.linspace(y_lo + eps, y_hi - eps, NEWTON_SEEDS)
        for x0 in xs:
            for y0 in ys:
                res = _newton_from(field, x0, y0, ((lo, hi), (y_lo, y_hi)))
                if res is None:
                    continue
                x, y = res
                if (x - lo < BOUNDARY_MARGIN and lo != x_lo) \
                        or (hi - x < BOUNDARY_MARGIN and hi != x_hi):
                    # converged onto a seam; the mirrored branch owns it
                    if np.linalg.norm(field.grad(x, y),
                                      ord=np.inf) > STATIONARY_TOL:
                        continue
                if min(x - x_lo, x_hi - x, y - y_lo, y_hi - y) \
                        < BOUNDARY_MARGIN:
                    continue
                if any(np.hypot(x - p.x, y - p.y) < DEDUP_RADIUS
                       for p in found):
                    continue
                H = _hessian_fd(field, x, y)
                found.append(StationaryPoint(
                    x=float(x), y=float(y), value=float(field(x, y)),
                    classification=_classify(H),
                    grad_norm=float(np.linalg.norm(field.grad(x, y),
                                                   ord=np.inf))))
    found.sort(key=lambda p: (p.x, p.y))
    return found


def field_grid(field, resolution):
    (x_lo, x_hi), (y_lo, y_hi) = field.bounds
    xs = np.linspace(x_lo, x_hi, resolution)
    ys = np.linspace(y_lo, y_hi, resolution)
    values = np.empty((resolution, resolution))
    for i, y in enumerate(ys):
        for j, x in enumerate(xs):
            values[i, j] = field(x, y)
    return xs, ys, values


def superlevel_components(field, level, resolution):
    """Number of 4-connected components of {(x, y) : field >= level} on a
    regular grid, with the labeled mask.

    Levels within 1e-6 of a grid value are nudged by +-1e-6; the two
    nudged counts must agree, otherwise the count is flagged ambiguous.
    """
    if resolution < 64:
        raise ValueError("resolution must be at least 64")
    _, _, values = field_grid(field, resolution)
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])

    def count(at_level):
        mask = values >= at_level
        labels, n = scipy.ndimage.label(mask, structure=structure)
        return int(n), labels

    near_grid_value = np.min(np.abs(values - level)) < LEVEL_NUDGE
    if near_grid_value:
        n_lo, labels = count(level - LEVEL_NUDGE)
        n_hi, _ = count(level + LEVEL_NUDGE)
        ambiguous = n_lo != n_hi
        n = n_lo
    else:
        n, labels = count(level)
        ambiguous = False
    return {"components": n, "labels": labels, "ambiguous": ambiguous,
            "level": float(level), "resolution": resolution}


def heatmap_csv(field, resolution):
    """CSV grid of field values: first row x coordinates, first column y."""
    xs, ys, values = field_grid(field, resolution)
    buf = io.StringIO()
    buf.write("y\\x," + ",".join(repr(float(x)) for x in xs) + "\n")
    for i, y in enumerate(ys):
        buf.write(repr(float(y)) + ","
                  + ",".join(repr(float(v)) for v in values[i]) + "\n")
    return buf.getvalue()


def census(resolution):
    """Stationary points and component counts for both fields, JSON-ready:
    f at 0.1 below its highest stationary value, g at 3 and -10."""
    f = field_f()
    g = field_g()
    points_f = find_stationary_points(f)
    points_g = find_stationary_points(g)
    levels_f = [max(p.value for p in points_f) - 0.1] if points_f else []
    levels_g = [3.0, -10.0]
    return {
        "f": {"stationary_points": [p.to_dict() for p in points_f],
              "components": {repr(float(lv)): superlevel_components(
                  f, lv, resolution)["components"] for lv in levels_f}},
        "g": {"stationary_points": [p.to_dict() for p in points_g],
              "components": {repr(float(lv)): superlevel_components(
                  g, lv, resolution)["components"] for lv in levels_g}},
    }

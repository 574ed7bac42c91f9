"""Tests for the two counterexample scalar fields and their census."""

import json

import numpy as np
import pytest

from policypaths.errors import OutOfDomain
from policypaths.landscape import (DEDUP_RADIUS, census, check_gradient,
                                   eval_f, eval_g, field_f, field_g,
                                   field_grid, find_stationary_points,
                                   grad_f, grad_g, heatmap_csv,
                                   superlevel_components)


def grid_by_points(field, resolution):
    """Reference for ``field_grid``: one scalar ``field(x, y)`` call per
    grid point."""
    (x_lo, x_hi), (y_lo, y_hi) = field.bounds
    xs = np.linspace(x_lo, x_hi, resolution)
    ys = np.linspace(y_lo, y_hi, resolution)
    values = np.empty((resolution, resolution))
    for i, y in enumerate(ys):
        for j, x in enumerate(xs):
            values[i, j] = field(x, y)
    return xs, ys, values


def assert_separated(points):
    # the dedup keeps no two points closer than DEDUP_RADIUS
    x = np.array([p.x for p in points])
    y = np.array([p.y for p in points])
    dist = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
    np.fill_diagonal(dist, np.inf)
    assert dist.min() >= DEDUP_RADIUS


def test_f_branch_seam_consistency():
    # both branches agree in value and x-derivative on the seam x = 0
    from policypaths.landscape import _f1, _f2, _grad_f1, _grad_f2
    for y in np.linspace(-2.0, 0.0, 21):
        assert abs(_f1(0.0, y) - _f2(0.0, y)) < 1e-12
        g1 = _grad_f1(0.0, y)
        g2 = _grad_f2(0.0, y)
        assert abs(g1[0] - g2[0]) < 1e-12
        assert abs(g1[1] - g2[1]) < 1e-12


def test_f_hand_value():
    # f(1, -1) = 0 + 0 - 1 + 2 - 0.02 * 81 * 9 = 1 - 14.58 = -13.58
    assert abs(eval_f(1.0, -1.0) - (-13.58)) < 1e-12


def test_f_mirror_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.uniform(-4.0, 4.0)
        y = rng.uniform(-2.0, 0.0)
        assert abs(eval_f(x, y) - eval_f(-x, y)) < 1e-12


def test_f_out_of_domain():
    with pytest.raises(OutOfDomain):
        eval_f(5.0, -1.0)
    with pytest.raises(OutOfDomain):
        grad_f(0.0, 1.0)


def test_g_origin_and_peak():
    assert eval_g(0.0, 0.0) == 0.0
    assert grad_g(0.0, 0.0) == (0.0, 0.0)
    # max value 4 attained on the circle x^2 + y^2 = 2
    assert abs(eval_g(np.sqrt(2.0), 0.0) - 4.0) < 1e-12
    assert abs(eval_g(1.0, 1.0) - 4.0) < 1e-12
    rng = np.random.default_rng(1)
    vals = [eval_g(x, y) for x, y in rng.uniform(-3, 3, size=(200, 2))]
    assert max(vals) <= 4.0 + 1e-12


def test_g_rotational_invariance():
    rng = np.random.default_rng(2)
    for _ in range(50):
        x, y = rng.uniform(-2, 2, size=2)
        assert abs(eval_g(x, y) - eval_g(-y, x)) < 1e-12


def test_gradients_match_finite_differences():
    assert check_gradient(field_f()) <= 1e-5
    assert check_gradient(field_g()) <= 1e-5


def test_f_stationary_points():
    points = find_stationary_points(field_f())
    assert len(points) == 2
    assert all(p.classification == "max" for p in points)
    assert all(p.grad_norm <= 1e-8 for p in points)
    xs = sorted(p.x for p in points)
    assert abs(xs[0] - (-3.05)) < 1e-2
    assert abs(xs[1] - 3.05) < 1e-2
    assert all(abs(p.y - (-1.12)) < 1e-2 for p in points)
    # symmetric pair: equal values
    assert abs(points[0].value - points[1].value) < 1e-9
    assert_separated(points)


def test_g_stationary_points():
    points = find_stationary_points(field_g())
    origin = [p for p in points if np.hypot(p.x, p.y) < 1e-4]
    assert origin
    assert origin[0].classification != "max"
    ring = [p for p in points if abs(np.hypot(p.x, p.y) - np.sqrt(2)) < 1e-4]
    assert ring
    assert all(abs(p.value - 4.0) < 1e-8 for p in ring)
    assert_separated(points)


@pytest.mark.parametrize("make_field", [field_f, field_g])
@pytest.mark.parametrize("resolution", [64, 65, 512])
def test_field_grid_matches_pointwise(make_field, resolution):
    # Bitwise, not to a tolerance: the heatmaps and the census must not
    # depend on whether a value came from the grid or from a point.  At 65
    # the seam x = 0 of f lies on the grid.  NumPy's vectorised ** can round
    # some cubes of f differently from Python's scalar pow.
    field = make_field()
    xs, ys, values = field_grid(field, resolution)
    ref_xs, ref_ys, ref = grid_by_points(field, resolution)
    assert xs.tobytes() == ref_xs.tobytes()
    assert ys.tobytes() == ref_ys.tobytes()
    assert values.shape == ref.shape
    assert values.tobytes() == ref.tobytes()
    if resolution == 65:
        assert 0.0 in xs


def test_f_superlevel_two_components_near_max():
    points = find_stationary_points(field_f())
    level = max(p.value for p in points) - 0.1
    out = superlevel_components(field_f(), level, resolution=512)
    assert out["components"] == 2
    assert not out["ambiguous"]
    # stable under resolution doubling
    assert superlevel_components(field_f(), level,
                                 resolution=1024)["components"] == 2


def test_g_superlevel_annulus_and_box():
    assert superlevel_components(field_g(), 3.0,
                                 resolution=512)["components"] == 1
    assert superlevel_components(field_g(), -10.0,
                                 resolution=512)["components"] == 1
    assert superlevel_components(field_g(), 3.0,
                                 resolution=1024)["components"] == 1


def test_superlevel_resolution_floor():
    with pytest.raises(ValueError):
        superlevel_components(field_g(), 0.0, resolution=32)


def test_heatmap_csv_dimensions():
    text = heatmap_csv(field_g(), resolution=64)
    lines = text.strip().split("\n")
    assert len(lines) == 65
    assert all(len(line.split(",")) == 65 for line in lines)


def test_census_report_schema():
    report = census(resolution=256)
    assert len(report["f"]["stationary_points"]) == 2
    assert all(v == 2 for v in report["f"]["components"].values())
    assert all(v == 1 for v in report["g"]["components"].values())
    text = json.dumps(report, indent=2, sort_keys=True)
    assert '"stationary_points"' in text

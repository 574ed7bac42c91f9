"""Acceptance sweep: every top-level certified property at its stated
tolerance, one pass/fail line per criterion.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion detail lines while passing).
"""

import filecmp
import json
import os
import time

import numpy as np

from policypaths.attack import (AttackSpec, attack, minimax_gap,
                                nn_minimax_gap, region_from_anchor)
from policypaths.cli import EXIT_PASS, main as cli_main
from policypaths.landscape import (check_gradient, field_f, field_g,
                                   find_stationary_points,
                                   superlevel_components)
from policypaths.mdp import Mdp, random_ergodic_mdp
from policypaths.netpaths import (assemble_nn_path, canonical_layers,
                                  first_layer_swap, fullrank_tall_path,
                                  rank_restore_first_layer, realize_policy)
from policypaths.network import (NetArchitecture, forward, one_hot_features,
                                 random_theta, sigma)
from policypaths.tabular import uniform_grid, verify_equiconnectedness

ARCH = NetArchitecture(widths=(3, 6, 4, 2))
X3 = one_hot_features(3)


def report(criterion, ok, detail):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_tabular_path_value_floor():
    # 100 random ergodic MDPs x 20 rewards x 101-point grids: the value
    # never drops below the worse endpoint, and both linearity residuals
    # stay small.  Runtime budget 60 s.
    start = time.time()
    rng = np.random.default_rng(1)
    worst_stat = worst_occ = 0.0
    for i in range(100):
        s = int(rng.integers(2, 7))
        a = int(rng.integers(2, 5))
        mdp = random_ergodic_mdp(1000 + i, s, a)
        pi1 = rng.dirichlet(np.ones(a), size=s)
        pi2 = rng.dirichlet(np.ones(a), size=s)
        rewards = [rng.uniform(-1.0, 1.0, size=(s, a)) for _ in range(20)]
        trace = verify_equiconnectedness(mdp, pi1, pi2, rewards,
                                         grid=uniform_grid(101), tol=1e-9)
        worst_stat = max(worst_stat, trace.max_residual("stationary_linearity"))
        worst_occ = max(worst_occ, trace.max_residual("occupancy_linearity"))
    elapsed = time.time() - start
    report("1 tabular sweep",
           worst_stat <= 1e-8 and worst_occ <= 1e-8 and elapsed < 60,
           f"stat {worst_stat:.2e}, occ {worst_occ:.2e}, {elapsed:.1f}s")


def test_criterion_02_tabular_schedule_reward_independent():
    rng = np.random.default_rng(2)
    ok = True
    for i in range(5):
        mdp = random_ergodic_mdp(2000 + i, 3, 2)
        pi1 = rng.dirichlet(np.ones(2), size=3)
        pi2 = rng.dirichlet(np.ones(2), size=3)
        r_a = [rng.uniform(size=(3, 2)) for _ in range(3)]
        r_b = [rng.uniform(-1.0, 1.0, size=(3, 2)) for _ in range(20)]
        t_a = verify_equiconnectedness(mdp, pi1, pi2, r_a)
        t_b = verify_equiconnectedness(mdp, pi1, pi2, r_b)
        blob = lambda t: t.alphas.tobytes() + b"".join(p.tobytes()
                                                       for p in t.points)
        ok = ok and blob(t_a) == blob(t_b)
    report("2 equiconnected schedule", ok, "byte-identical across reward lists")


def test_criterion_03_nn_path_sweep():
    # 20 random instances, |S|=3, |A|=2, widths (3, 6, 4, 2): assembled
    # paths certify drift <= 1e-6 and the 10-reward value floor, with a
    # reward-independent schedule.  Runtime budget 5 min.
    start = time.time()
    rng = np.random.default_rng(3)
    worst_drift = 0.0
    worst_margin = np.inf
    schedules_ok = True
    for i in range(20):
        mdp = random_ergodic_mdp(3000 + i, 3, 2)
        theta_1 = random_theta(ARCH, 3100 + i)
        theta_2 = random_theta(ARCH, 3200 + i)
        rewards = [rng.uniform(-1.0, 1.0, size=(3, 2)) for _ in range(10)]
        path = assemble_nn_path(mdp, ARCH, X3, theta_1, theta_2,
                                rewards=rewards, seed=i)
        worst_drift = max(worst_drift, path.certificate["max_output_drift"])
        worst_margin = min(worst_margin,
                           min(path.certificate["value_margins"]))
        if i < 3:
            other = assemble_nn_path(mdp, ARCH, X3, theta_1, theta_2,
                                     rewards=rewards[:2], seed=i)
            schedules_ok = schedules_ok \
                and path.snapshot_bytes() == other.snapshot_bytes()
    elapsed = time.time() - start
    report("3 nn path sweep",
           worst_drift <= 1e-6 and worst_margin >= -1e-6
           and schedules_ok and elapsed < 300,
           f"drift {worst_drift:.2e}, margin {worst_margin:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_04_policy_realization():
    rng = np.random.default_rng(4)
    layers = canonical_layers(ARCH, 4)
    worst = 0.0
    for _ in range(50):
        pi = rng.dirichlet(np.ones(2), size=3)
        theta = realize_policy(ARCH, X3, layers, pi)
        worst = max(worst, float(np.max(np.abs(forward(ARCH, theta, X3) - pi))))
    report("4 policy realization", worst <= 1e-8, f"max residual {worst:.2e}")


def test_criterion_05_lemma_contracts():
    rng = np.random.default_rng(5)
    slope = ARCH.leaky_slope
    # rank restoration on constructed degenerate instances
    restore_ok = True
    for trial in range(5):
        W = rng.normal(size=(3, 6))
        W[:, 3] = W[:, 0]
        W[:, 4] = W[:, 1]
        W[:, 5] = W[:, 0] + W[:, 1]
        b = rng.normal() * np.ones(6)
        b[3:] = b[:3]
        T = sigma(X3 @ W + np.ones((3, 1)) * b[None, :], slope)
        V = rng.normal(size=(6, 4))
        seg = rank_restore_first_layer(X3, W, b, V, slope, seed=trial)
        restore_ok = restore_ok and seg.metadata["terminal_rank"] == 3 \
            and seg.max_residual("product_drift") <= 1e-8
    # first-layer swap invariant
    swap_ok = True
    Xa = np.hstack([X3, np.ones((3, 1))])
    for trial in range(5):
        W = rng.normal(size=(4, 6))
        V = rng.normal(size=(6, 4))
        W_t = rng.normal(size=(4, 6))
        seg = first_layer_swap(Xa, W, V, W_t, slope=slope, seed=trial)
        swap_ok = swap_ok and seg.max_residual("product_drift") <= 1e-8 \
            and np.array_equal(seg.points[-1][0], W_t)
    # tall-matrix paths, including the antipodal pair
    tall_ok = True
    for _ in range(5):
        F = rng.normal(size=(6, 2))
        for F_b in (-F, rng.normal(size=(6, 2))):
            seg = fullrank_tall_path(F, F_b)
            tall_ok = tall_ok and min(seg.residuals["min_sigma"]) >= 1e-9
    report("5 lemma contracts", restore_ok and swap_ok and tall_ok,
           f"restore {restore_ok}, swap {swap_ok}, tall {tall_ok}")


def test_criterion_06_attack_kkt():
    rng = np.random.default_rng(6)
    worst_kkt = 0.0
    for i in range(100):
        s = int(rng.integers(1, 4))
        a = int(rng.integers(2, 4))
        mdp = random_ergodic_mdp(6000 + i, s, a)
        spec = AttackSpec(target=rng.integers(0, a, size=s), margin=0.05)
        result = attack(mdp, spec)
        worst_kkt = max(worst_kkt, result.kkt_residual)
    # closed-form |S|=1 example
    toy = Mdp(kernel=np.ones((1, 2, 1)), reward=np.array([[0.0, 1.0]]))
    closed = attack(toy, AttackSpec(target=[0], margin=0.5))
    closed_ok = np.max(np.abs(closed.poisoned
                              - np.array([[0.75, 0.25]]))) <= 1e-9
    # 2-D lattice oracle
    grid_ok = True
    for trial in range(3):
        reward = rng.uniform(size=(1, 2))
        mdp = Mdp(kernel=np.ones((1, 2, 1)), reward=reward)
        t = int(rng.integers(2))
        result = attack(mdp, AttackSpec(target=[t], margin=0.3))
        g = np.array([1.0, -1.0]) if t == 0 else np.array([-1.0, 1.0])
        pts = np.linspace(-1.0, 2.0, 601)
        best = np.inf
        best_pt = None
        for r0 in pts:
            for r1 in pts:
                if g[0] * r0 + g[1] * r1 >= 0.3:
                    d = np.hypot(r0 - reward[0, 0], r1 - reward[0, 1])
                    if d < best:
                        best, best_pt = d, (r0, r1)
        grid_ok = grid_ok and np.max(np.abs(
            result.poisoned.ravel() - np.asarray(best_pt))) <= 1e-2 \
            and abs(result.cost - best) <= 1e-3
    report("6 attack KKT", worst_kkt <= 1e-6 and closed_ok and grid_ok,
           f"worst KKT {worst_kkt:.2e}, closed form {closed_ok}, "
           f"grid oracle {grid_ok}")


def test_criterion_07_minimax_equality():
    start = time.time()
    rng = np.random.default_rng(7)
    worst_gap = -np.inf
    weak_ok = True
    count = 0
    i = 0
    while count < 50:
        s = int(rng.integers(1, 4))
        a = 2
        mdp = random_ergodic_mdp(7000 + i, s, a)
        i += 1
        spec = AttackSpec(target=rng.integers(0, a, size=s), margin=0.05)
        result = attack(mdp, spec)
        region = region_from_anchor(mdp, spec, result.poisoned)
        game = minimax_gap(mdp, region, cross_check=True)  # raises on
        # LP-vs-extragradient disagreement beyond 1e-5
        weak_ok = weak_ok and game["gap"] >= -1e-9
        worst_gap = max(worst_gap, abs(game["gap"]))
        count += 1
    elapsed = time.time() - start
    report("7 minimax equality",
           worst_gap <= 1e-5 and weak_ok and elapsed < 300,
           f"worst |gap| {worst_gap:.2e}, weak duality {weak_ok}, "
           f"{elapsed:.1f}s")


def test_criterion_08_nn_minimax_gap():
    rng = np.random.default_rng(8)
    worst = 0.0
    for i in range(10):
        mdp = random_ergodic_mdp(8000 + i, 3, 2)
        spec = AttackSpec(target=rng.integers(0, 2, size=3), margin=0.05)
        result = attack(mdp, spec)
        region = region_from_anchor(mdp, spec, result.poisoned)
        out = nn_minimax_gap(mdp, ARCH, X3, region, seed=i)
        worst = max(worst, out["gap"])
    report("8 network minimax gap", worst <= 2e-5, f"worst gap {worst:.2e}")


def test_criterion_09_landscape_census():
    points = find_stationary_points(field_f())
    two_maxima = (len(points) == 2
                  and all(p.classification == "max" for p in points)
                  and abs(points[0].value - points[1].value) <= 1e-9)
    near_printed = all(
        min(np.hypot(p.x - sx, p.y + 1.12) for sx in (3.05, -3.05)) <= 1e-2
        for p in points)
    level = max(p.value for p in points) - 0.1
    comp_f = superlevel_components(field_f(), level, 512)["components"]
    comp_g3 = superlevel_components(field_g(), 3.0, 512)["components"]
    comp_gm = superlevel_components(field_g(), -10.0, 512)["components"]
    grad_ok = (check_gradient(field_f()) <= 1e-5
               and check_gradient(field_g()) <= 1e-5)
    report("9 landscape census",
           two_maxima and near_printed and comp_f == 2
           and comp_g3 == 1 and comp_gm == 1 and grad_ok,
           f"points {[(round(p.x, 4), round(p.y, 4)) for p in points]}, "
           f"components f={comp_f} g={comp_g3},{comp_gm}")


def test_criterion_10_cli_determinism(tmp_path):
    specs = [
        (["tabular-verify", "--instances", "4", "--seed", "9",
          "--grid", "21"], "tabular-verify.json"),
        (["attack", "--instances", "4", "--seed", "9"], "attack.json"),
    ]
    ok = True
    for argv, name in specs:
        out_a = str(tmp_path / (name + ".a"))
        out_b = str(tmp_path / (name + ".b"))
        ok = ok and cli_main(argv + ["--jobs", "1",
                                     "--out", out_a]) == EXIT_PASS
        ok = ok and cli_main(argv + ["--jobs", "2",
                                     "--out", out_b]) == EXIT_PASS
        ok = ok and filecmp.cmp(os.path.join(out_a, name),
                                os.path.join(out_b, name), shallow=False)
    report("10 CLI determinism", ok, "reports byte-identical across --jobs")

"""Batch command line driver.

Each subcommand runs one verification pipeline over randomly generated
instances and writes JSON/CSV artifacts.  Reports are byte-reproducible
for a fixed (config, seed): wall-clock metadata goes to a separate
metadata.json, instance work is keyed by instance id, and report
assembly sorts by id so --jobs never changes the output.

Exit codes: 0 all certified, 2 a certified property failed, 1
operational error (size caps, solver failures, bad config, ...).  A run
with both kinds of failure exits 1.
"""

import argparse
import concurrent.futures
import dataclasses
import json
import os
import sys
import time
import traceback

import numpy as np
import scipy

from . import __version__, errors
from . import landscape as landscape_mod
from .attack import (AttackSpec, attack, maxmin_value, minimax_gap,
                     region_from_anchor)
from .errors import PolicyPathsError, PropertyViolation
from .mdp import check_ergodicity, random_ergodic_mdp
from .netpaths import assemble_nn_path
from .network import NetArchitecture, one_hot_features, random_theta
from .tabular import uniform_grid, verify_equiconnectedness

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2


@dataclasses.dataclass
class RunConfig:
    """Materialized run parameters; every field lands in the report dir."""

    seed: int = 0
    out: str = "out"
    instances: int = 10
    grid: int = 101
    jobs: int = 1
    n_states: tuple = (2, 6)            # inclusive range
    n_actions: tuple = (2, 4)
    n_rewards: int = 20
    margin: float = 0.05
    widths: tuple = (3, 6, 4, 2)
    resolution: int = 512
    value_tol: float = 1e-9
    assembled_tol: float = 1e-6
    gap_tol: float = 1e-5

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["n_states"] = list(self.n_states)
        d["n_actions"] = list(self.n_actions)
        d["widths"] = list(self.widths)
        return d

    @classmethod
    def load(cls, args):
        values = {}
        if args.config:
            with open(args.config, encoding="utf-8") as fh:
                values.update(json.load(fh))
        for flag in ("seed", "out", "instances", "grid", "jobs"):
            override = getattr(args, flag, None)
            if override is not None:
                values[flag] = override
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**values)
        if cfg.instances <= 0 or cfg.grid < 2 or cfg.jobs < 1:
            raise ValueError("instances, grid, jobs must be positive")
        if cfg.value_tol <= 0 or cfg.assembled_tol <= 0 or cfg.gap_tol <= 0:
            raise ValueError("tolerances must be positive")
        return cfg


def _write(path, text):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(cfg, name, report, extra_files=None):
    out = cfg.out
    _write(os.path.join(out, "config.json"),
           json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")
    _write(os.path.join(out, f"{name}.json"),
           json.dumps(report, indent=2, sort_keys=True) + "\n")
    versions = {"python": sys.version.split()[0], "numpy": np.__version__,
                "scipy": scipy.__version__, "policypaths": __version__}
    _write(os.path.join(out, "metadata.json"),
           json.dumps({"command": name, "finished_unix": time.time(),
                       "versions": versions},
                      indent=2, sort_keys=True) + "\n")
    for rel, text in (extra_files or {}).items():
        _write(os.path.join(out, rel), text)


def _exit_code(results):
    """EXIT_PASS when every instance passed, EXIT_ERROR when any failure is
    operational, else EXIT_VIOLATION.  A failed row without an error type
    failed its own certificate check."""
    failed = [r for r in results if not r["ok"]]
    if not failed:
        return EXIT_PASS
    for r in failed:
        name = r.get("error_type")
        if name and not issubclass(getattr(errors, name), PropertyViolation):
            return EXIT_ERROR
    return EXIT_VIOLATION


def _instance_sizes(cfg, rng):
    s = int(rng.integers(cfg.n_states[0], cfg.n_states[1] + 1))
    a = int(rng.integers(cfg.n_actions[0], cfg.n_actions[1] + 1))
    return s, a


def _run_instances(cfg, worker, ids):
    """Run worker(cfg, i) over ids, optionally in parallel, sorted by id."""
    if cfg.jobs == 1:
        results = [worker(cfg, i) for i in ids]
    else:
        with concurrent.futures.ProcessPoolExecutor(cfg.jobs) as pool:
            futures = {pool.submit(worker, cfg, i): i for i in ids}
            gathered = {}
            for fut in concurrent.futures.as_completed(futures):
                gathered[futures[fut]] = fut.result()
        results = [gathered[i] for i in sorted(gathered)]
    return results


# ---------------------------------------------------------------------------
# Instance workers (top level so process pools can pickle them).
# ---------------------------------------------------------------------------

def _failure(i, exc):
    return {"id": i, "ok": False, "error": str(exc),
            "error_type": type(exc).__name__}


def _random_policy(rng, n_states, n_actions):
    return rng.dirichlet(np.ones(n_actions), size=n_states)


def gen_mdp_worker(cfg, i):
    rng = np.random.default_rng(cfg.seed + i)
    s, a = _instance_sizes(cfg, rng)
    mdp = random_ergodic_mdp(cfg.seed + i, s, a)
    cert = check_ergodicity(mdp)
    return {"id": i, "mdp": mdp.to_dict(),
            "ergodic": cert.ergodic, "checked_policies": cert.checked_policies}


def tabular_worker(cfg, i):
    rng = np.random.default_rng(cfg.seed + i)
    s, a = _instance_sizes(cfg, rng)
    mdp = random_ergodic_mdp(cfg.seed + i, s, a)
    pi1 = _random_policy(rng, s, a)
    pi2 = _random_policy(rng, s, a)
    rewards = [rng.uniform(0.0, mdp.reward_bound, size=(s, a))
               for _ in range(cfg.n_rewards)]
    try:
        trace = verify_equiconnectedness(mdp, pi1, pi2, rewards,
                                         grid=uniform_grid(cfg.grid),
                                         tol=cfg.value_tol)
    except PolicyPathsError as exc:
        return _failure(i, exc)
    return {"id": i, "ok": True,
            "stationary_residual": trace.max_residual("stationary_linearity"),
            "occupancy_residual": trace.max_residual("occupancy_linearity"),
            "n_alphas": int(trace.alphas.size)}


def nn_worker(cfg, i):
    rng = np.random.default_rng(cfg.seed + i)
    widths = tuple(cfg.widths)
    arch = NetArchitecture(widths=widths)
    s = widths[0]
    a = widths[-1]
    mdp = random_ergodic_mdp(cfg.seed + i, s, a)
    X = one_hot_features(s, widths[0])
    theta_1 = random_theta(arch, cfg.seed + 10 * i + 1)
    theta_2 = random_theta(arch, cfg.seed + 10 * i + 2)
    rewards = [rng.uniform(0.0, mdp.reward_bound, size=(s, a))
               for _ in range(10)]
    try:
        path = assemble_nn_path(mdp, arch, X, theta_1, theta_2,
                                rewards=rewards, grid=uniform_grid(cfg.grid),
                                seed=cfg.seed + i,
                                assembled_tol=cfg.assembled_tol)
    except PolicyPathsError as exc:
        return _failure(i, exc)
    cert = path.certificate
    return {"id": i, "ok": True,
            "max_output_drift": cert["max_output_drift"],
            "min_value_margin": min(cert["value_margins"]),
            "segments": cert["segment_kinds"]}


def attack_worker(cfg, i):
    rng = np.random.default_rng(cfg.seed + i)
    s, a = _instance_sizes(cfg, rng)
    mdp = random_ergodic_mdp(cfg.seed + i, s, a)
    target = rng.integers(0, a, size=s)
    spec = AttackSpec(target=target, margin=cfg.margin)
    try:
        result = attack(mdp, spec)
    except PolicyPathsError as exc:
        return _failure(i, exc)
    return {"id": i, "ok": True, "kkt_residual": result.kkt_residual,
            "cost": result.cost, "min_margin": float(result.margins.min()),
            "target": target.tolist()}


def _poisoned_region(cfg, i):
    """The set-up of the game subcommands: an ergodic MDP with 1-3 states
    and 2 actions, a random deterministic target, its attack and the reward
    region around the poisoned reward.  Returns (mdp, region)."""
    rng = np.random.default_rng(cfg.seed + i)
    s = int(rng.integers(1, 4))
    a = 2
    mdp = random_ergodic_mdp(cfg.seed + i, s, a)
    spec = AttackSpec(target=rng.integers(0, a, size=s), margin=cfg.margin)
    result = attack(mdp, spec)
    return mdp, region_from_anchor(mdp, spec, result.poisoned)


def defend_worker(cfg, i):
    try:
        mdp, region = _poisoned_region(cfg, i)
        true_in_region = bool(region.contains(mdp.reward.ravel()))
        value, _, _ = maxmin_value(mdp, region, cross_check=False)
    except PolicyPathsError as exc:
        return _failure(i, exc)
    return {"id": i, "ok": True, "n_generators": int(region.generators.shape[1]),
            "true_reward_in_region": true_in_region, "maxmin": value}


def minimax_worker(cfg, i):
    try:
        mdp, region = _poisoned_region(cfg, i)
        game = minimax_gap(mdp, region)
    except PolicyPathsError as exc:
        return _failure(i, exc)
    return {"id": i, "ok": abs(game["gap"]) <= cfg.gap_tol
            and game["gap"] >= -1e-9,
            "maxmin": game["maxmin"], "minmax": game["minmax"],
            "gap": game["gap"]}


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_gen_mdp(cfg):
    results = _run_instances(cfg, gen_mdp_worker, range(cfg.instances))
    files = {}
    for res in results:
        files[f"mdp_{res['id']:04d}.json"] = json.dumps(
            res, indent=2, sort_keys=True) + "\n"
    ok = all(r["ergodic"] for r in results)
    report = {"instances": [{k: v for k, v in r.items() if k != "mdp"}
                            for r in results], "all_ergodic": ok}
    _emit(cfg, "gen-mdp", report, extra_files=files)
    return EXIT_PASS if ok else EXIT_VIOLATION


def _certify(name, worker, worst):
    """The subcommand ``name``: ``worker`` certifies each instance, and the
    report lists the rows.  ``worst`` is None or (key, field): the report
    also gives, under ``key``, the largest ``abs`` of ``field`` over the
    rows that have it."""
    def command(cfg):
        results = _run_instances(cfg, worker, range(cfg.instances))
        report = {"instances": results, "pass": all(r["ok"] for r in results)}
        if worst is not None:
            key, row_field = worst
            report[key] = max((abs(r[row_field]) for r in results
                               if row_field in r), default=None)
        _emit(cfg, name, report)
        return _exit_code(results)
    return command


def cmd_landscape(cfg):
    report = landscape_mod.census(resolution=cfg.resolution)
    points_f = report["f"]["stationary_points"]
    ok = (len(points_f) == 2
          and all(p["class"] == "max" for p in points_f)
          and all(c == 2 for c in report["f"]["components"].values())
          and all(c == 1 for c in report["g"]["components"].values()))
    report["pass"] = ok
    heat_res = min(cfg.resolution, 256)
    extra = {
        "heatmap_f.csv": landscape_mod.heatmap_csv(landscape_mod.field_f(),
                                                   heat_res),
        "heatmap_g.csv": landscape_mod.heatmap_csv(landscape_mod.field_g(),
                                                   heat_res),
    }
    _emit(cfg, "landscape", report, extra_files=extra)
    return EXIT_PASS if ok else EXIT_VIOLATION


COMMANDS = {
    "gen-mdp": cmd_gen_mdp,
    "tabular-verify": _certify("tabular-verify", tabular_worker,
                               ("worst_stationary_residual",
                                "stationary_residual")),
    "nn-verify": _certify("nn-verify", nn_worker, None),
    "attack": _certify("attack", attack_worker, ("worst_kkt", "kkt_residual")),
    "defend": _certify("defend", defend_worker, None),
    "minimax": _certify("minimax", minimax_worker, ("worst_gap", "gap")),
    "landscape": cmd_landscape,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="policypaths",
        description="Verification pipelines for policy interpolation paths, "
                    "reward poisoning games, and the landscape counterexamples.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--instances", type=int, default=None)
        p.add_argument("--grid", type=int, default=None)
        p.add_argument("--jobs", type=int, default=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args)
        return COMMANDS[args.command](cfg)
    except PropertyViolation as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except Exception:
        traceback.print_exc()
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

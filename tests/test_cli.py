"""Tests for the batch CLI driver: exit codes, report reproducibility,
config handling."""

import filecmp
import json
import os

import pytest

from policypaths.cli import (EXIT_ERROR, EXIT_PASS, EXIT_VIOLATION,
                             RunConfig, _exit_code, build_parser, main)


def run(argv):
    return main(argv)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def report_files(out):
    # metadata carries the timestamp; config echoes the output path
    return sorted(f for f in os.listdir(out)
                  if f.endswith(".json")
                  and f not in ("metadata.json", "config.json"))


def test_gen_mdp_deterministic(tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert run(["gen-mdp", "--instances", "3", "--seed", "7",
                "--out", out_a]) == EXIT_PASS
    assert run(["gen-mdp", "--instances", "3", "--seed", "7",
                "--out", out_b]) == EXIT_PASS
    for name in report_files(out_a):
        assert filecmp.cmp(os.path.join(out_a, name),
                           os.path.join(out_b, name), shallow=False)
    report = read_json(os.path.join(out_a, "gen-mdp.json"))
    assert report["all_ergodic"]
    assert len(report["instances"]) == 3
    # per-instance MDP files carry the ergodicity certificate
    inst = read_json(os.path.join(out_a, "mdp_0000.json"))
    assert inst["ergodic"]
    assert "kernel" in inst["mdp"]
    meta = read_json(os.path.join(out_a, "metadata.json"))
    assert set(meta["versions"]) == {"python", "numpy", "scipy", "policypaths"}


def test_tabular_verify_passes(tmp_path):
    out = str(tmp_path / "tab")
    assert run(["tabular-verify", "--instances", "3", "--seed", "1",
                "--grid", "21", "--out", out]) == EXIT_PASS
    report = read_json(os.path.join(out, "tabular-verify.json"))
    assert report["pass"]
    assert report["worst_stationary_residual"] <= 1e-8


def test_nn_verify_passes(tmp_path):
    out = str(tmp_path / "nn")
    assert run(["nn-verify", "--instances", "2", "--seed", "3",
                "--grid", "21", "--out", out]) == EXIT_PASS
    report = read_json(os.path.join(out, "nn-verify.json"))
    assert report["pass"]
    for inst in report["instances"]:
        assert inst["max_output_drift"] <= 1e-6
        assert inst["min_value_margin"] >= -1e-6


def test_attack_and_defend(tmp_path):
    out = str(tmp_path / "atk")
    assert run(["attack", "--instances", "4", "--seed", "5",
                "--out", out]) == EXIT_PASS
    report = read_json(os.path.join(out, "attack.json"))
    assert report["worst_kkt"] <= 1e-6
    out2 = str(tmp_path / "def")
    assert run(["defend", "--instances", "3", "--seed", "5",
                "--out", out2]) == EXIT_PASS


def test_attack_size_cap_is_operational_error(tmp_path):
    # 3^11 deterministic policies exceed the enumeration cap: an
    # operational failure, not a violated certificate
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instances": 1, "n_states": [11, 11],
                               "n_actions": [3, 3]}))
    out = str(tmp_path / "cap")
    assert run(["attack", "--config", str(cfg), "--out", out]) == EXIT_ERROR
    report = read_json(os.path.join(out, "attack.json"))
    assert report["instances"][0]["error_type"] == "CapExceeded"


def test_exit_code_taxonomy():
    passed = {"id": 0, "ok": True}
    drift = {"id": 1, "ok": False, "error_type": "OutputDrift"}
    gap = {"id": 2, "ok": False}            # failed its own certificate check
    cap = {"id": 3, "ok": False, "error_type": "CapExceeded"}
    assert _exit_code([passed]) == EXIT_PASS
    assert _exit_code([passed, drift, gap]) == EXIT_VIOLATION
    assert _exit_code([drift, cap]) == EXIT_ERROR


def test_minimax_gap_report(tmp_path):
    out = str(tmp_path / "mm")
    assert run(["minimax", "--instances", "3", "--seed", "2",
                "--out", out]) == EXIT_PASS
    report = read_json(os.path.join(out, "minimax.json"))
    assert report["pass"]
    assert report["worst_gap"] <= 1e-5
    for inst in report["instances"]:
        assert inst["gap"] >= -1e-9       # weak duality


def test_landscape_report(tmp_path):
    out = str(tmp_path / "land")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"resolution": 128}))
    assert run(["landscape", "--config", str(cfg),
                "--out", out]) == EXIT_PASS
    report = read_json(os.path.join(out, "landscape.json"))
    assert report["pass"]
    assert len(report["f"]["stationary_points"]) == 2
    heat = os.path.join(out, "heatmap_f.csv")
    lines = open(heat, encoding="utf-8").read().strip().split("\n")
    assert len(lines) == 129


def test_jobs_do_not_change_bytes(tmp_path):
    out_a = str(tmp_path / "j1")
    out_b = str(tmp_path / "j2")
    assert run(["tabular-verify", "--instances", "4", "--seed", "9",
                "--grid", "21", "--jobs", "1", "--out", out_a]) == EXIT_PASS
    assert run(["tabular-verify", "--instances", "4", "--seed", "9",
                "--grid", "21", "--jobs", "2", "--out", out_b]) == EXIT_PASS
    assert filecmp.cmp(os.path.join(out_a, "tabular-verify.json"),
                       os.path.join(out_b, "tabular-verify.json"),
                       shallow=False)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"instances": 2, "seed": 11, "grid": 21}))
    out = str(tmp_path / "o")
    assert run(["tabular-verify", "--config", str(cfg), "--seed", "12",
                "--out", out]) == EXIT_PASS
    saved = read_json(os.path.join(out, "config.json"))
    assert saved["seed"] == 12          # flag wins over file
    assert saved["instances"] == 2


def test_unknown_config_key_is_operational_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert run(["tabular-verify", "--config", str(cfg),
                "--out", str(tmp_path / "x")]) == 1


def test_run_config_validation():
    class Args:
        config = None
        seed = 0
        out = "o"
        instances = 0
        grid = 101
        jobs = 1

    with pytest.raises(ValueError):
        RunConfig.load(Args())


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("gen-mdp", "tabular-verify", "nn-verify", "attack",
                 "defend", "minimax", "landscape"):
        assert name in text

"""Checks of the benchmark itself: the slow-mix generator, the tracer, the
deadline, the correctness gate and the agreement with BENCHMARK.json.

    python3 -m pytest bench -q
"""

import json
import math
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import run
import tracer as tracing_mod
import workloads
from conftest import BENCH_DIR
from policypaths.mdp import Mdp, check_ergodicity

ROOT = BENCH_DIR.parent


# -- slow-mix generator -----------------------------------------------------

def test_slowmix_kernels_keep_ring_and_self_loop():
    for seed in range(3):
        wl = workloads.TabularSlowmix(seed, None)
        for index in range(2 * len(wl.CELLS)):
            kernel = wl.instance(index)["mdp"].kernel
            assert kernel.shape[0] in (16, 24, 32, 40, 48)
            assert workloads.slowmix_support_ok(kernel)


@pytest.mark.parametrize("n_states", [3, 5, 8])
def test_slowmix_kernels_certified_where_enumeration_fits(n_states):
    # 3^8 = 6561 deterministic policies, under the enumeration cap.
    for seed in range(3):
        rng = np.random.default_rng([seed, n_states])
        kernel = workloads.slowmix_kernel(rng, n_states, 3)
        assert workloads.slowmix_support_ok(kernel)
        cert = check_ergodicity(Mdp(kernel=kernel,
                                    reward=np.zeros((n_states, 3))))
        assert cert.ergodic


def test_support_check_rejects_a_broken_ring():
    kernel = workloads.slowmix_kernel(np.random.default_rng(0), 6, 3)
    kernel[2, 1, 2] += kernel[2, 1, 3]
    kernel[2, 1, 3] = 0.0
    assert not workloads.slowmix_support_ok(kernel)


# -- tracer -----------------------------------------------------------------

def test_tracer_counts_every_call_of_a_grid_101_tabular_instance():
    wl = workloads.TabularDense(0, None)
    inst = wl.instance(0)
    tracer = tracing_mod.Tracer()
    with tracing_mod.tracing(tracer):
        tracer.begin_instance(0, inst["kind"])
        trace = wl.run(inst)
        tracer.end_instance()
    assert trace.alphas.size == 101
    assert tracer.calls["mdp.stationary_distribution"] == 103
    assert tracer.calls["mdp.occupancy"] == 101
    assert tracer.calls["tabular.interpolate_policies"] == 101
    assert tracer.calls["tabular.verify_equiconnectedness"] == 1
    totals = tracer.span_totals()
    assert totals["mdp.occupancy"][0] == 101
    verify = totals["tabular.verify_equiconnectedness"]
    assert 0.0 < verify[2] < verify[1]
    metrics = tracing_mod.layer_metrics(tracer)
    assert metrics["tabular.useful_eval_ratio"]["value"] == 1.0


def test_tracer_counts_a_cross_checked_game():
    wl = workloads.Poison(0, None)
    inst = wl._make(True, 1, 2, np.random.default_rng(3))
    tracer = tracing_mod.Tracer()
    with tracing_mod.tracing(tracer):
        tracer.begin_instance(0, inst["kind"])
        wl.check(inst, wl.run(inst))
        tracer.end_instance()
    metrics = tracing_mod.layer_metrics(tracer)
    assert metrics["attack.det_occupancies.per_game"]["value"] == 4.0
    assert metrics["numerics.extragradient_saddle.iterations"]["value"] > 0
    assert metrics["numerics.extragradient_saddle.capped"]["value"] == 0.0
    assert tracer.calls["numerics.dykstra"] > 0


def test_tracing_restores_every_binding():
    import policypaths
    tabular = sys.modules["policypaths.tabular"]
    mdp = sys.modules["policypaths.mdp"]
    before = (mdp.occupancy, tabular.occupancy, policypaths.occupancy,
              sys.modules["policypaths.landscape"].ScalarField2D.__call__)
    with tracing_mod.tracing(tracing_mod.Tracer()):
        assert tabular.occupancy is not before[1]
        assert policypaths.occupancy is mdp.occupancy
    after = (mdp.occupancy, tabular.occupancy, policypaths.occupancy,
             sys.modules["policypaths.landscape"].ScalarField2D.__call__)
    assert all(a is b for a, b in zip(before, after))


@pytest.mark.parametrize("cls, index", [
    (workloads.TabularDense, 3),
    (workloads.TabularSlowmix, 0),
    (workloads.NnPaths, 0),
    (workloads.PoisonLp, 0),
    (workloads.PoisonLp, 1),
])
def test_traced_certificates_are_bit_identical(cls, index):
    wl = cls(7, None)
    plain, _ = wl.check(wl.instance(index), wl.run(wl.instance(index)))
    tracer = tracing_mod.Tracer()
    with tracing_mod.tracing(tracer):
        inst = wl.instance(index)
        tracer.begin_instance(index, inst["kind"])
        traced, _ = wl.check(inst, wl.run(inst))
        tracer.end_instance()
    assert traced == plain
    assert len(tracer.spans) > 1


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    emitted = set(tracing_mod.layer_metrics(tracing_mod.Tracer()))
    emitted |= {"trace.instances", "trace.overhead_share"}
    assert {m["name"] for m in spec["per_layer"]} == emitted


# -- workloads and BENCHMARK.json ----------------------------------------------

def test_benchmark_json_names_and_reasons_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert [m["name"] for m in spec["end_to_end"]] == [
        "certified_per_s", "latency_p50_ms", "latency_tail_ms",
        "failure_share", "setup_s", "peak_rss_mb"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_instances_depend_on_seed_and_index_only(name):
    cls = workloads.WORKLOADS[name]
    if cls is workloads.CliBatch:
        a, b = cls(5, "w").cycle, cls(5, "w").cycle
        assert a == b and a != cls(6, "w").cycle
        return
    first = cls(5, None).instance(4)
    again = cls(5, None).instance(4)
    other = cls(6, None).instance(4)
    assert np.array_equal(first["mdp"].kernel, again["mdp"].kernel)
    assert not np.array_equal(first["mdp"].reward, other["mdp"].reward)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tail_is_the_highest_percentile_with_ten_beyond(name):
    cls = workloads.WORKLOADS[name]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    n = run.instance_count(cls, spec["run_seconds"])
    assert n % cls.block == 0

    def beyond(pct):
        return n - math.ceil(pct / 100.0 * n)

    assert beyond(cls.tail_pct) >= 10 > beyond(cls.tail_pct + 1)
    assert f"tail=p{cls.tail_pct}," in cls.why


def test_stratified_cells_cover_every_size_once_per_block():
    wl = workloads.TabularDense(3, None)
    cells = wl.CELLS
    seen = [workloads._cell(3, i, cells) for i in range(len(cells))]
    assert sorted(seen) == sorted(cells)


# -- gate and deadline ---------------------------------------------------------

def test_gate_rejects_a_residual_above_tolerance():
    wl = workloads.TabularDense(0, None)
    inst = wl.instance(0)
    trace = wl.run(inst)
    trace.residuals["occupancy_linearity"][5] = 2 * workloads.LINEARITY_TOL
    with pytest.raises(workloads.GateViolation):
        wl.check(inst, trace)


def test_cli_gate_rejects_changed_report_bytes(tmp_path):
    wl = workloads.CliBatch(0, str(tmp_path))
    slot = next(i for i, (cmd, _) in enumerate(wl.cycle) if cmd == "gen-mdp")
    inst = wl.instance(slot)
    assert wl.run(inst) == 0
    wl.check(inst, 0)
    report = tmp_path / f"out-{slot}" / "gen-mdp.json"
    report.write_text(report.read_text() + " ")
    with pytest.raises(workloads.GateViolation):
        wl.check(inst, 0)


class _Stalling:
    deadline_s = 0.2

    def run(self, inst):
        try:
            while True:          # stands in for a stalled solver
                time.sleep(0.01)
        except Exception:        # a blanket handler must not hide the stop
            return "swallowed"


def test_deadline_stops_an_overrunning_instance():
    deadline = run.Deadline(_Stalling.deadline_s)
    try:
        seconds, error, out = run.run_instance(_Stalling(), deadline, None)
    finally:
        deadline.close()
    assert error == "Timeout" and out is None
    assert 0.2 <= seconds < 2.0


def test_failed_instance_counts_beyond_every_success():
    wl = workloads.TabularDense(0, None)
    rows = [{"index": i, "kind": "tabular", "seconds": 0.01 * (i + 1),
             "error": None} for i in range(19)]
    rows.append({"index": 19, "kind": "tabular", "seconds": 0.001,
                 "error": "Infeasible"})
    summary = run.summarize(wl, rows, busy=sum(r["seconds"] for r in rows))
    assert summary["latency_tail_ms"] == 1000.0 * wl.deadline_s
    assert summary["failed"] == 1 and summary["errors"] == {"Infeasible": 1}
    assert summary["failed_instances"] == [[19, "tabular", "Infeasible"]]
    assert summary["failure_share"] == pytest.approx(1.5 / 21)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tabular-dense",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Benchmark workloads: input generators, the calls under test and the
per-instance correctness gate.

Every input is generated here from the benchmark seed; the package only
receives the finished instances.  Instance ``i`` of a workload depends on
``(seed, i)`` alone, so a traced and an untraced pass over the same indices
see identical inputs.  Sizes are stratified: each block of consecutive
instances visits every size cell of the workload once, in an order shuffled
by the seed, so every run carries the same size mix and the seed only moves
the numbers inside each cell.

Package functions are always looked up through the module objects below at
call time, never bound with ``from ... import``, so the tracer's wrappers
see every call the benchmark makes.
"""

import hashlib
import json
import os
import shutil
from importlib import import_module

import numpy as np

attack_mod = import_module("policypaths.attack")
cli = import_module("policypaths.cli")
mdp_mod = import_module("policypaths.mdp")
network = import_module("policypaths.network")
netpaths = import_module("policypaths.netpaths")
tabular = import_module("policypaths.tabular")

# Tier-1 acceptance tolerances (tests/test_acceptance.py).
LINEARITY_TOL = 1e-8
DRIFT_TOL = 1e-6
MARGIN_TOL = 1e-6
KKT_TOL = 1e-6
GAP_TOL = 1e-5

GRID = np.linspace(0.0, 1.0, 101)
ATTACK_MARGIN = 0.05


class GateViolation(Exception):
    """The package returned a result that fails its certificate check."""


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()


def _rng(seed, index, stream):
    return np.random.default_rng([seed, index, stream])


def _cell(seed, index, cells, stream=0):
    """Stratified size cell of instance ``index``."""
    block, pos = divmod(index, len(cells))
    order = np.random.default_rng([seed, block, 100 + stream]).permutation(
        len(cells))
    return cells[int(order[pos])]


def dense_mdp(rng, n_states, n_actions):
    """Dirichlet(1) kernel and uniform [0, 1] rewards, as the CLI draws them."""
    kernel = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    reward = rng.uniform(0.0, 1.0, size=(n_states, n_actions))
    return mdp_mod.Mdp(kernel=kernel, reward=reward)


FORWARD_SHARE_MAX = 0.05


def slowmix_kernel(rng, n_states, n_actions):
    """Sparse, slow-mixing kernel that is ergodic under every policy.

    Each row keeps a self-loop with stay probability in [0.1, 0.5], the ring
    edge s -> s+1 and one forward edge to a random state other than s and
    s+1, which carries at most 5% of the moving mass.  Every policy's chain
    therefore contains the Hamiltonian ring (irreducible) and a self-loop
    (aperiodic).
    """
    if n_states < 3:
        raise ValueError("the slow-mix ring needs at least 3 states")
    kernel = np.zeros((n_states, n_actions, n_states))
    for s in range(n_states):
        for a in range(n_actions):
            stay = rng.uniform(0.1, 0.5)
            forward = (1.0 - stay) * rng.uniform(0.0, FORWARD_SHARE_MAX)
            far = (s + int(rng.integers(2, n_states))) % n_states
            kernel[s, a, s] = stay
            kernel[s, a, far] = forward
            kernel[s, a, (s + 1) % n_states] = 1.0 - stay - forward
    return kernel


def slowmix_support_ok(kernel):
    """Every action of every state keeps a positive self-loop and ring edge."""
    n = kernel.shape[0]
    s = np.arange(n)
    return bool(np.all(kernel[s, :, s] > 0)
                and np.all(kernel[s, :, (s + 1) % n] > 0))


class Workload:
    """A named instance stream with its deadline and tail percentile.

    ``instance(i)`` builds input ``i`` (untimed), ``run(inst)`` makes the
    timed package calls and returns the raw result, and ``check(inst, out)``
    applies the correctness gate and returns the certificate digest plus
    any counters for the traced run.  Every ``block`` consecutive instances
    visit each size stratum equally often.  ``baseline_rate`` (instances per
    second, measured at the baseline on 2 cores) sizes a run; ``tail_pct``
    is the highest percentile with at least ten instances beyond it at the
    instance count of a 20-second run.
    """

    name = ""
    deadline_s = 0.0
    tail_pct = 0
    block = 1
    baseline_rate = 1.0
    why = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def warm(self):
        """Smallest fixed calls that finish each entry point's first-call setup."""
        raise NotImplementedError

    def artifacts(self):
        """Extra record fields that identify the run's outputs."""
        return {}


class TabularDense(Workload):
    name = "tabular-dense"
    deadline_s = 2.0
    tail_pct = 99
    why = ("tabular verify on dense Dirichlet kernels |S| 2-6, |A| 2-4, "
           "20 rewards, grid 101: per-call overhead; tail=p99, deadline 2 s")
    CELLS = [(s, a) for s in range(2, 7) for a in range(2, 5)]
    block = len(CELLS)
    baseline_rate = 64.5
    N_REWARDS = 20

    def _model(self, rng, n_states, n_actions):
        return dense_mdp(rng, n_states, n_actions)

    def instance(self, index):
        n_states, n_actions = _cell(self.seed, index, self.CELLS)
        rng = _rng(self.seed, index, 1)
        model = self._model(rng, n_states, n_actions)
        pi1 = rng.dirichlet(np.ones(n_actions), size=n_states)
        pi2 = rng.dirichlet(np.ones(n_actions), size=n_states)
        rewards = [rng.uniform(0.0, 1.0, size=(n_states, n_actions))
                   for _ in range(self.N_REWARDS)]
        return {"kind": "tabular", "mdp": model, "pi1": pi1, "pi2": pi2,
                "rewards": rewards}

    def run(self, inst):
        return tabular.verify_equiconnectedness(
            inst["mdp"], inst["pi1"], inst["pi2"], inst["rewards"], grid=GRID)

    def check(self, inst, trace):
        stat = trace.max_residual("stationary_linearity")
        occ = trace.max_residual("occupancy_linearity")
        if not (stat <= LINEARITY_TOL and occ <= LINEARITY_TOL):
            raise GateViolation(f"linearity residuals {stat:.3e}, {occ:.3e}")
        return _digest(trace.alphas, trace.values,
                       trace.residuals["stationary_linearity"],
                       trace.residuals["occupancy_linearity"]), {}

    def warm(self):
        rng = np.random.default_rng(0)
        model = dense_mdp(rng, 2, 2)
        pi = np.full((2, 2), 0.5)
        tabular.verify_equiconnectedness(model, pi, np.eye(2) * 0.5 + 0.25,
                                         [model.reward],
                                         grid=np.linspace(0.0, 1.0, 3))


class TabularSlowmix(TabularDense):
    name = "tabular-slowmix"
    deadline_s = 10.0
    tail_pct = 80
    why = ("same verify on sparse slow-mixing ring kernels |S| 16-48, |A| 3: "
           "bound by power-iteration count; tail=p80, deadline 10 s")
    CELLS = [(s, 3) for s in (16, 24, 32, 40, 48)]
    block = len(CELLS)
    baseline_rate = 2.6

    def _model(self, rng, n_states, n_actions):
        kernel = slowmix_kernel(rng, n_states, n_actions)
        reward = rng.uniform(0.0, 1.0, size=(n_states, n_actions))
        return mdp_mod.Mdp(kernel=kernel, reward=reward)


class NnPaths(Workload):
    name = "nn-paths"
    deadline_s = 10.0
    tail_pct = 90
    why = ("assemble_nn_path over four certifying widths, 10 rewards, grid "
           "101: segment builders, forward and the value pass; tail=p90, "
           "deadline 10 s")
    WIDTHS = [(3, 6, 4, 2), (4, 8, 6, 3), (3, 8, 6, 4, 2), (6, 12, 8, 4)]
    block = len(WIDTHS)
    baseline_rate = 5.3
    N_REWARDS = 10

    def instance(self, index):
        return self._make(_cell(self.seed, index, self.WIDTHS),
                          _rng(self.seed, index, 1))

    def _make(self, widths, rng):
        n_states, n_actions = widths[0], widths[-1]
        model = dense_mdp(rng, n_states, n_actions)
        arch = network.NetArchitecture(widths=widths)

        def theta():
            return network.Theta(
                weights=[rng.normal(size=(widths[k], widths[k + 1]))
                         for k in range(arch.depth)],
                biases=[rng.normal(size=widths[k + 1])
                        for k in range(arch.depth)])

        theta_1, theta_2 = theta(), theta()
        rewards = [rng.uniform(0.0, 1.0, size=(n_states, n_actions))
                   for _ in range(self.N_REWARDS)]
        return {"kind": "nn", "mdp": model, "arch": arch,
                "X": np.eye(n_states), "theta_1": theta_1, "theta_2": theta_2,
                "rewards": rewards, "path_seed": int(rng.integers(2 ** 31))}

    def run(self, inst):
        return netpaths.assemble_nn_path(
            inst["mdp"], inst["arch"], inst["X"], inst["theta_1"],
            inst["theta_2"], rewards=inst["rewards"], grid=GRID,
            seed=inst["path_seed"])

    def check(self, inst, path):
        cert = path.certificate
        drift = cert["max_output_drift"]
        margin = min(cert["value_margins"])
        if not (cert["verdict"] is True and drift <= DRIFT_TOL
                and margin >= -MARGIN_TOL):
            raise GateViolation(f"verdict {cert['verdict']}, drift "
                                f"{drift:.3e}, margin {margin:.3e}")
        return _digest([drift], cert["value_margins"], cert["value_floor"]), {}

    def warm(self):
        inst = self._make(self.WIDTHS[0], np.random.default_rng(0))
        netpaths.assemble_nn_path(
            inst["mdp"], inst["arch"], inst["X"], inst["theta_1"],
            inst["theta_2"], rewards=inst["rewards"],
            grid=np.linspace(0.0, 1.0, 3), seed=0)


class Poison(Workload):
    """Even instances mirror the ``attack`` subcommand, odd ones the
    ``minimax`` subcommand with the extragradient cross-check on."""

    name = "poison"
    deadline_s = 8.0
    tail_pct = 93
    baseline_rate = 8.0
    why = ("attack |S| 2-6, |A| 2-4 alternating with cross-checked games "
           "|S| 1-3, |A| 2; tail=p93, deadline 8 s")
    ATTACK_CELLS = [(s, a) for s in range(2, 7) for a in range(2, 5)]
    GAME_CELLS = [(s, 2) for s in (1, 2, 3)]
    block = 2 * len(ATTACK_CELLS)           # a multiple of 2 * len(GAME_CELLS)
    CROSS_CHECK = True

    def instance(self, index):
        game = index % 2 == 1
        cells = self.GAME_CELLS if game else self.ATTACK_CELLS
        return self._make(game, *_cell(self.seed, index // 2, cells,
                                       stream=int(game)),
                          _rng(self.seed, index, 1))

    def _make(self, game, n_states, n_actions, rng):
        model = dense_mdp(rng, n_states, n_actions)
        spec = attack_mod.AttackSpec(
            target=rng.integers(0, n_actions, size=n_states),
            margin=ATTACK_MARGIN)
        return {"kind": "game" if game else "attack", "mdp": model,
                "spec": spec}

    def run(self, inst):
        result = attack_mod.attack(inst["mdp"], inst["spec"])
        if inst["kind"] == "attack":
            return result, None
        region = attack_mod.region_from_anchor(inst["mdp"], inst["spec"],
                                               result.poisoned)
        return result, attack_mod.minimax_gap(inst["mdp"], region,
                                              cross_check=self.CROSS_CHECK)

    def check(self, inst, out):
        result, game = out
        if not result.kkt_residual <= KKT_TOL:
            raise GateViolation(f"attack KKT residual {result.kkt_residual:.3e}")
        if game is None:
            return _digest(result.poisoned, [result.kkt_residual]), {}
        if not abs(game["gap"]) <= GAP_TOL:
            raise GateViolation(f"game gap {game['gap']:.3e}")
        return _digest(result.poisoned, [result.kkt_residual, game["maxmin"],
                                         game["minmax"], game["gap"]]), {}

    def warm(self):
        for game in (False, True):
            self.run(self._make(game, 2, 2, np.random.default_rng(0)))


class PoisonLp(Poison):
    """The ``attack`` subcommand alternating with the LP game of the
    ``defend`` subcommand (both LPs, no extragradient cross-check)."""

    name = "poison-lp"
    deadline_s = 8.0
    tail_pct = 98
    baseline_rate = 32.2
    why = ("attack |S| 2-6, |A| 2-4 alternating with the two game LPs "
           "(no cross-check) at |S| 1-3, |A| 2; tail=p98, deadline 8 s")
    CROSS_CHECK = False


class CliBatch(Workload):
    """In-process CLI invocations, alternating ``landscape`` and ``gen-mdp``
    over a fixed cycle of six configurations.  Every configuration repeats
    within a run, so its report hash can be compared.  The seed picks the
    ``gen-mdp`` seeds; the sizes are pinned per configuration, because the
    enumeration cost of ``check_ergodicity`` grows as |A|^|S|."""

    name = "cli-batch"
    deadline_s = 10.0
    tail_pct = 79
    why = ("in-process CLI, --jobs 1: landscape at resolution 256/256/512 "
           "alternating with gen-mdp --instances 10 at |S|x|A| 4x3/5x3/6x3; "
           "tail=p79, deadline 10 s")
    # Sorted by cost the cycle runs gen 4x3 < gen 5x3 < landscape 256 (x2)
    # < gen 6x3 < landscape 512, so the median falls inside the doubled
    # landscape-256 stratum and not on the edge between two strata.
    LANDSCAPE_RESOLUTIONS = (256, 256, 512)
    GEN_SIZES = ((4, 3), (5, 3), (6, 3))
    block = 2 * len(GEN_SIZES)
    baseline_rate = 2.4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        gen_seeds = np.random.default_rng([seed, 0, 2]).integers(
            0, 10 ** 6, size=len(self.GEN_SIZES))
        self.cycle = []
        for res, (n_states, n_actions), gen_seed in zip(
                self.LANDSCAPE_RESOLUTIONS, self.GEN_SIZES, gen_seeds):
            self.cycle.append(("landscape", {"resolution": res}))
            self.cycle.append(("gen-mdp", {
                "seed": int(gen_seed), "instances": 10,
                "n_states": [n_states, n_states],
                "n_actions": [n_actions, n_actions]}))
        self.report_hashes = {}

    def instance(self, index):
        slot = index % len(self.cycle)
        command, config = self.cycle[slot]
        out = os.path.join(self.workdir, f"out-{slot}")
        shutil.rmtree(out, ignore_errors=True)
        cfg_path = os.path.join(self.workdir, f"config-{slot}.json")
        if not os.path.exists(cfg_path):
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
        return {"kind": command, "slot": slot, "out": out,
                "argv": [command, "--config", cfg_path, "--out", out,
                         "--jobs", "1"]}

    def run(self, inst):
        return cli.main(inst["argv"])

    def check(self, inst, code):
        if code != 0:
            raise GateViolation(f"exit code {code}")
        report_path = os.path.join(inst["out"], f"{inst['kind']}.json")
        with open(report_path, "rb") as fh:
            data = fh.read()
        report = json.loads(data)
        flag = "pass" if inst["kind"] == "landscape" else "all_ergodic"
        if report.get(flag) is not True:
            raise GateViolation(f"report {flag} = {report.get(flag)!r}")
        digest = hashlib.sha256(data).hexdigest()
        first = self.report_hashes.setdefault(inst["slot"], digest)
        if digest != first:
            raise GateViolation("report bytes differ from the previous run "
                                "of the same configuration")
        written = sum(entry.stat().st_size for entry in os.scandir(inst["out"]))
        return digest, {"cli.report_bytes": written}

    def artifacts(self):
        return {"report_sha256": {
            f"{self.cycle[slot][0]}-{slot}": digest
            for slot, digest in sorted(self.report_hashes.items())}}

    def warm(self):
        out = os.path.join(self.workdir, "warm")
        cfg_path = os.path.join(self.workdir, "warm.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump({"resolution": 64}, fh)
        for argv in (["landscape", "--config", cfg_path],
                     ["gen-mdp", "--instances", "1"]):
            if cli.main(argv + ["--out", out, "--jobs", "1"]) != 0:
                raise RuntimeError(f"warm-up {argv[0]} failed")
        shutil.rmtree(out, ignore_errors=True)


WORKLOADS = {w.name: w for w in (TabularDense, TabularSlowmix, NnPaths,
                                 Poison, PoisonLp, CliBatch)}

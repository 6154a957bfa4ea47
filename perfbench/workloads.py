"""The four benchmark workloads.

A workload prepares its inputs in ``setup`` and then runs operations by index.
``run`` is the timed part of an operation and returns what the checks need;
``check`` and ``finish`` are untimed.  Operation seeds derive from the workload
seed and the operation index, so a seed fixes every input of a run.  All
operations of a workload are of one kind and one size.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
from dataclasses import asdict

import numpy as np

import causalkit.cli
from causalkit.ate_estimators import psm_att
from causalkit.data_model import load_csv
from causalkit.dgp import ObsDgpConfig
from causalkit.montecarlo import dr_suite
from causalkit.nuisance import cross_fit

import checks
from checks import require

# Spawn keys under the workload seed: the warm-up, the operations, setup inputs.
WARMUP, OPS, INPUTS = 0, 1, 2


def derived_seed(seed: int, *key: int) -> int:
    """A 31-bit seed for the keyed sub-computation of a run."""
    state = np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)
    return int(state[0] >> 1)


def rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


class OpFailed(Exception):
    """The program reported an error for an operation."""


def cli(argv: list[str]) -> None:
    """One in-process `causalkit` invocation; its stdout is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = causalkit.cli.main(argv)
    if code != 0:
        raise OpFailed(f"causalkit {argv[0]} exited with {code}")


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


class Workload:
    name = ""
    round_size = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def op_seed(self, index: int) -> int:
        """Seed of operation `index`; index -1 is the warm-up."""
        return derived_seed(self.seed, WARMUP) if index < 0 else derived_seed(self.seed, OPS, index)

    def setup(self) -> None:
        """Prepare the inputs every operation reads."""

    def warmup(self) -> None:
        self.run(-1)

    def run(self, index: int):
        raise NotImplementedError

    def check(self, index: int, outcome) -> int:
        """Check one operation's outputs; return the units of work it completed."""
        raise NotImplementedError

    def expected_failure(self, index: int) -> bool:
        """Whether the operation's inputs trigger a fault the program has today."""
        return False

    def finish(self) -> None:
        """Run-level checks, once per run."""


class McDr(Workload):
    """dr_suite over the four scenarios of the acceptance suite's DGP."""

    name = "mc_dr"
    REPLICATIONS = 4
    ESTIMATORS = ("naive", "ipw", "gformula", "aipw")
    BASE = dict(n=2000, d=2, confounding_strength=0.5, tau=2.0,
                outcome_form="linear_plus_quadratic", propensity_form="linear_plus_quadratic")

    def setup(self) -> None:
        self.base = ObsDgpConfig(**self.BASE)
        self.pool = checks.AipwPool()
        self.first = None

    def _suite(self, seed: int) -> dict:
        return dr_suite(self.base, replications=self.REPLICATIONS, n=self.base.n, seed=seed,
                        estimators=self.ESTIMATORS)

    def run(self, index: int):
        return self._suite(self.op_seed(index))

    def check(self, index: int, outcome) -> int:
        reports = {s: asdict(r) for s, r in outcome.items()}
        checks.check_mc_op(reports, self.REPLICATIONS, self.ESTIMATORS)
        self.pool.add(reports)
        if index == 0:
            self.first = outcome
        return self.REPLICATIONS

    def finish(self) -> None:
        self.pool.check(self.base.tau)
        require(self._suite(self.op_seed(0)) == self.first, "re-running operation 0 changed its report")


class CsvRoundtrip(Workload):
    """causalkit simulate writes a 200k-row file, causalkit estimate reads it back."""

    name = "csv_roundtrip"
    N = 200_000

    def simulate(self, seed: int, data: str, truth: str) -> None:
        cli(["simulate", "--dgp", "obs", "--n", str(self.N), "--d", "3", "--confounding", "0.5",
             "--tau", "2.0", "--seed", str(seed), "--out", data, "--truth-out", truth])

    def run(self, index: int):
        seed = self.op_seed(index)
        data, truth, report = self.path("data.csv"), self.path("truth.csv"), self.path("report.json")
        self.simulate(seed, data, truth)
        cli(["estimate", "--input", data, "--method", "naive", "--covariates", "x1,x2,x3",
             "--out", report])
        return seed

    def check(self, index: int, seed) -> int:
        report = read_json(self.path("report.json"))
        checks.check_interval(report, self.N)
        if index == 0:
            # Parsing 200k rows takes seconds, so the full checks run once.
            data_path, truth_path = self.path("data.csv"), self.path("truth.csv")
            data, truth = checks.read_columns(data_path), checks.read_columns(truth_path)
            checks.check_simulated_files(data, truth, self.N)
            checks.check_naive_report(report, data["a"], data["y"])
            again = self.path("data2.csv"), self.path("truth2.csv")
            self.simulate(seed, *again)
            for first, second in zip((data_path, truth_path), again):
                with open(first, "rb") as f1, open(second, "rb") as f2:
                    require(f1.read() == f2.read(), f"simulate with one seed wrote two versions of {first}")
        return self.N


class EifCheck(Workload):
    """causalkit eif-check --functional ate on 64-point measures.

    Each round runs GOOD measures drawn from the workload seed, then one
    measure that does not depend on the seed, in which one arm-by-cell holds a
    total mass of SMALL_MASS; its numerical influence values are wrong today.
    """

    name = "eif_check"
    GOOD = 7
    round_size = GOOD + 1
    SMALL_MASS = 1e-3
    NAMES = ("x1", "x2", "a", "y")
    SUPPORT = np.array(list(itertools.product(range(4), range(4), (0, 1), (0, 1))), dtype=float)

    def _measure(self, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        m = len(self.SUPPORT)
        probs = 0.6 / m + 0.4 * gen.dirichlet(np.ones(m))
        estimated = probs * np.exp(0.5 * gen.standard_normal(m))
        return probs / probs.sum(), estimated / estimated.sum()

    def _write(self, path: str, probs: np.ndarray) -> None:
        lines = [",".join(self.NAMES + ("prob",))]
        for point, p in zip(self.SUPPORT, probs):
            lines.append(",".join([*(str(int(v)) for v in point), repr(float(p))]))
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")

    def setup(self) -> None:
        self.measures = []
        for k in range(self.round_size):
            if k < self.GOOD:
                probs, estimated = self._measure(rng(self.seed, INPUTS, k))
            else:
                probs, estimated = self._measure(rng(0, INPUTS))
                small = (self.SUPPORT[:, 0] == 0) & (self.SUPPORT[:, 1] == 0) & (self.SUPPORT[:, 2] == 1)
                probs = np.where(small, self.SMALL_MASS / small.sum(),
                                 probs * (1 - self.SMALL_MASS) / probs[~small].sum())
            paths = self.path(f"measure{k}.csv"), self.path(f"estimated{k}.csv")
            self._write(paths[0], probs)
            self._write(paths[1], estimated)
            self.measures.append(paths)
        self.oracles = {}

    def expected_failure(self, index: int) -> bool:
        return index % self.round_size == self.GOOD

    def run(self, index: int):
        k = 0 if index < 0 else index % self.round_size
        measure, estimated = self.measures[k]
        cli(["eif-check", "--measure", measure, "--functional", "ate", "--estimated", estimated,
             "--seed", str(self.op_seed(index)), "--out", self.path("report.json")])
        return k

    def check(self, index: int, k) -> int:
        if k not in self.oracles:
            cols = checks.read_columns(self.measures[k][0])
            probs = np.array(cols.pop("prob"))
            self.oracles[k] = (probs, *checks.ate_oracle(tuple(cols), np.column_stack(list(cols.values())), probs))
        report = read_json(self.path("report.json"))
        checks.check_eif_report(report, *self.oracles[k])
        return int(report["support_size"])


class PsmMatch(Workload):
    """causalkit estimate --method psm on a 20k-row file made in setup."""

    name = "psm_match"
    N = 20_000

    def setup(self) -> None:
        self.data = self.path("data.csv")
        cli(["simulate", "--dgp", "obs", "--n", str(self.N), "--d", "3", "--confounding", "0.5",
             "--tau", "2.0", "--seed", str(derived_seed(self.seed, INPUTS)), "--out", self.data])
        self.columns = self.treated = self.first = None

    def run(self, index: int):
        seed = self.op_seed(index)
        cli(["estimate", "--input", self.data, "--method", "psm", "--covariates", "x1,x2,x3",
             "--seed", str(seed), "--out", self.path("report.json")])
        return seed

    def check(self, index: int, seed) -> int:
        if self.columns is None:
            self.columns = checks.read_columns(self.data)
            self.treated = sum(1 for v in self.columns["a"] if v == 1.0)
        report = read_json(self.path("report.json"))
        checks.check_psm_report(report, self.treated, len(self.columns["a"]) - self.treated)
        if index == 0:
            self.first = seed, report["psi_hat"]
        return report["n"]

    def finish(self) -> None:
        seed, psi_hat = self.first
        dataset = load_csv(self.data, {"treatment": "a", "outcome": "y", "covariates": ["x1", "x2", "x3"]})
        pi_hat = cross_fit(dataset, seed=seed).pi_hat
        _, matches = psm_att(dataset, pi_hat)
        oracle = checks.greedy_match(pi_hat, np.asarray(self.columns["a"]))
        checks.check_match_table(matches, oracle, np.asarray(self.columns["y"]), psi_hat)


WORKLOADS = {w.name: w for w in (McDr, CsvRoundtrip, EifCheck, PsmMatch)}

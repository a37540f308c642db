"""The benchmark's three workloads, run against grunwald's public API.

Each workload builds its inputs from the seed, warms up the code paths it
times (first LAPACK calls, first gamma evaluations), and then runs whole
rounds. A round returns the list of checks made on its outputs; the work
it does is fixed and counted in `ops_per_round`, in `ops_unit`.

Calls go through the module attributes (`harness.reproduce_table`, not a
name bound at import), so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from fractions import Fraction

import numpy as np

from grunwald import diffusion, generators, harness, problems, steady
from grunwald.operators import GridSpec

import checks


class CnTables:
    """Tables 5 and 6: Crank-Nicolson runs, 36 cells, 56,700 steps."""

    name = "cn-tables"
    ops_unit = "CN steps"
    TABLES = (5, 6)

    def __init__(self, seed: int, workdir: str):
        # The cells are fixed by the paper; the seed orders the two calls.
        self.tables = list(self.TABLES)
        random.Random(seed).shuffle(self.tables)
        self.ops_per_round = sum(
            sum(table.m_values) * len(table.errors)
            for table in map(checks.PAPER_CN_TABLES.get, self.tables))

    def warm_up(self):
        grid = GridSpec(0.0, 1.0, 16)
        for scheme in ("order2", "order3"):
            problem = problems.polynomial_diffusion_problem(1.5)
            diffusion.cn_solve(problem, grid, 16, scheme)

    def round(self) -> list:
        found = []
        for table_id in self.tables:
            report = harness.reproduce_table(table_id)
            found += checks.table_cells(report, table_id)
        return found

    def close(self):
        pass


class SteadyLadder:
    """Steady solves at order2 and order3, alpha in {1.1, 1.5, 1.9},
    N = 16 ... 4096: 54 solves, with CSV and JSON reports read back."""

    name = "steady-ladder"
    ops_unit = "steady solves"
    ALPHAS = (1.1, 1.5, 1.9)
    SCHEMES = ("order2", "order3")
    N_VALUES = tuple(2**k for k in range(4, 13))

    def __init__(self, seed: int, workdir: str):
        # The ladder is fixed; the seed orders the schemes and the alphas.
        rng = random.Random(seed)
        alphas = list(self.ALPHAS)
        schemes = list(self.SCHEMES)
        rng.shuffle(alphas)
        rng.shuffle(schemes)
        self._tmp = tempfile.TemporaryDirectory(prefix="steady-", dir=workdir)
        self.configs = [
            harness.RunConfig(
                problem="steady-poly", scheme=scheme, alphas=tuple(alphas),
                n_values=self.N_VALUES,
                output=os.path.join(self._tmp.name, f"{scheme}.csv"),
                json_mirror=True)
            for scheme in schemes
        ]
        self.ops_per_round = (len(schemes) * len(alphas)
                              * len(self.N_VALUES))

    def warm_up(self):
        config = harness.RunConfig(
            problem="steady-poly", scheme="order3", alphas=(1.5,),
            n_values=(16, 32), json_mirror=True,
            output=os.path.join(self._tmp.name, "warm-up.csv"))
        harness.run_convergence(config)
        harness.read_report_csv(config.output)

    def round(self) -> list:
        found = []
        for config in self.configs:
            reports = harness.run_convergence(config)
            found += checks.steady_rows(reports, config.scheme,
                                        config.n_values)
            label = f"steady {config.scheme} reports"
            found.append(checks.csv_round_trip(
                reports, harness.read_report_csv(config.output), label))
            json_path = os.path.splitext(config.output)[0] + ".json"
            with open(json_path) as handle:
                found.append(checks.json_round_trip(
                    reports, json.load(handle), label))
        for alpha in self.configs[0].alphas:
            found.append(checks.closed_form(
                problems.polynomial_steady_problem(alpha), alpha))
        return found

    def close(self):
        self._tmp.cleanup()


class SymbolScan:
    """Order and stability analysis, no time stepping: exact and float
    verify_order with the construction oracle on p=1..6, r=0..3,
    alpha=k/100 for k=20..200; order-2 weight signs at long K; the
    stability scan of orders 2..6; the property suite."""

    name = "symbol-scan"
    ops_unit = "generator/alpha checks"
    ORDERS = range(1, 7)
    SHIFTS = range(0, 4)
    ALPHAS = tuple(Fraction(k, 100) for k in range(20, 201))
    SIGN_K = 50_000
    SIGN_RANDOM_ALPHAS = 30
    SCAN_ORDERS = range(2, 7)
    SCAN_ALPHAS = tuple(np.linspace(1.0, 2.0, 100))
    SCAN_N = 256

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.sign_alphas = (1.0, 2.0) + tuple(
            float(a) for a in rng.uniform(1.0, 2.0, self.SIGN_RANDOM_ALPHAS))
        self.cases = [(p, r, a) for p in self.ORDERS for r in self.SHIFTS
                      for a in self.ALPHAS]
        self.ops_per_round = (len(self.cases) + len(self.sign_alphas)
                              + len(self.SCAN_ORDERS) * len(self.SCAN_ALPHAS))

    def warm_up(self):
        for alpha in (Fraction(3, 2), 1.5):
            generators.verify_order(generators.beta_table(3, 1, alpha), 3)
            generators.construct_beta(3, 1, alpha)
        generators.grunwald_weights(generators.beta_table(2, 1, 1.5), 100)
        steady.stability_scan(3, 1, (1.5,), GridSpec(0.0, 1.0, 16),
                              n_samples=10, seed=self.seed)

    def round(self) -> list:
        found = []
        for order, shift, alpha in self.cases:
            table = generators.beta_table(order, shift, alpha)
            found += checks.symbol_case(
                order, shift, alpha,
                exact=generators.verify_order(table, order),
                table=table,
                built=generators.construct_beta(order, shift, alpha),
                floating=generators.verify_order(
                    generators.beta_table(order, shift, float(alpha)), order),
            )
        for alpha in self.sign_alphas:
            weights = generators.grunwald_weights(
                generators.beta_table(2, 1, alpha), self.SIGN_K)
            found += checks.weight_signs(alpha, weights.values)
        grid = GridSpec(0.0, 1.0, self.SCAN_N)
        for order in self.SCAN_ORDERS:
            found.append(checks.scan_verdict(steady.stability_scan(
                order, 1, self.SCAN_ALPHAS, grid, seed=self.seed)))
        found += checks.property_results(
            harness.run_property_suite(self.seed))
        return found

    def close(self):
        pass


WORKLOADS = {w.name: w for w in (CnTables, SteadyLadder, SymbolScan)}

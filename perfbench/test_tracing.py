"""The tracer times calls at their call sites, its self times add up to
the traced wall time, and a missing function is skipped, not fatal.

    python3 -m pytest perfbench/test_tracing.py
"""

import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
from grunwald import diffusion, generators, harness, operators  # noqa: E402
from grunwald import problems  # noqa: E402
from grunwald.operators import GridSpec  # noqa: E402


def traced_cn_run():
    tracer = tracing.Tracer()
    started = time.perf_counter()
    with tracer.round():
        harness._solve_once("diffusion-poly", "order3", 1.5, 16, 20)
    return tracer, time.perf_counter() - started


def test_calls_are_timed_at_their_call_sites():
    tracer, _ = traced_cn_run()
    sites = {span[0] for span in tracer.spans}
    assert {"harness.cn_solve", "diffusion.solve_factored",
            "diffusion.checked_lu", "problems.source"} <= sites
    seconds, calls = tracer.layer_totals()
    assert calls["operators.solve_factored"] == 20
    assert calls["problems.source"] == 20
    assert tracer.counts["diffusion.cn_steps"] == 20
    assert tracer.peaks["diffusion.trajectory_mb"] == 21 * 17 * 8 / 1e6


def test_self_times_add_up_to_the_round():
    tracer, wall = traced_cn_run()
    seconds, _ = tracer.layer_totals()
    round_span = next(s for s in tracer.spans if s[0] == tracing.ROUND)
    assert abs(sum(seconds.values()) - (round_span[2] - round_span[1])) < 1e-9
    assert round_span[2] - round_span[1] <= wall
    assert all(value >= 0 for value in seconds.values())


def test_wrappers_are_removed_after_the_round():
    before = (diffusion.solve_factored, operators.solve_factored,
              harness.cn_solve, problems.polynomial_diffusion_problem)
    traced_cn_run()
    after = (diffusion.solve_factored, operators.solve_factored,
             harness.cn_solve, problems.polynomial_diffusion_problem)
    assert before == after


def test_missing_function_is_skipped(monkeypatch):
    monkeypatch.delattr(generators, "construct_beta")
    tracer = tracing.Tracer()
    with tracer.round():
        generators.grunwald_weights(generators.beta_table(2, 1, 1.5), 10)
    assert tracer.skipped == ["generators.construct_beta"]
    assert tracer.counts["generators.weight_terms"] == 11
    assert not hasattr(generators, "construct_beta")

"""Tests of the benchmark's own helpers.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fdwiretap import bcd, errors, harness, linalg, system_model  # noqa: E402
from fdwiretap.channel import SystemParams, draw_channels  # noqa: E402

import gate  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402


def desk_params(**kw):
    return SystemParams.from_db(M_a=2, M_bt=2, M_br=2, M_e=2, N=2,
                                kappa_db=-30.0, beta_db=-30.0, **kw)


# --- tail percentile ----------------------------------------------------------


@pytest.mark.parametrize("n", [11, 12, 35, 100])
def test_tail_leaves_ten_samples_beyond(n):
    samples = list(np.random.default_rng(n).permutation(n) + 1.0)
    value, pct, count = layers.tail_percentile(samples)
    assert count == n
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_is_the_highest_such_percentile():
    samples = [float(k) for k in range(1, 36)]
    value, pct, _ = layers.tail_percentile(samples)
    # One step higher would leave only nine samples beyond.
    assert value == 25.0 and pct == pytest.approx(100 * 25 / 35)


def test_tail_with_ten_or_fewer_samples_is_the_maximum():
    assert layers.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert layers.tail_percentile([float(k) for k in range(10)])[0] == 9.0


# --- spans and self time ------------------------------------------------------


def test_self_time_subtracts_nested_children():
    recs = [["root", 0.0, 10.0, -1, 0],
            ["a", 1.0, 4.0, 0, 0],
            ["a.inner", 2.0, 3.0, 1, 0],
            ["b", 5.0, 9.0, 0, 0]]
    assert spans.self_times(recs) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert math.fsum(spans.self_times(recs)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    recs = [["root", 0.0, 10.0, -1, 0],
            ["a", 1.0, 6.0, 0, 0],
            ["b", 4.0, 12.0, 0, 0]]
    assert spans.self_times(recs)[0] == pytest.approx(1.0)


def test_tracer_records_nesting_and_restores_modules():
    mod = SimpleNamespace(__name__="pkg.outer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    for fn in (inner, outer):
        fn.__module__ = "pkg.outer"
    mod.inner, mod.outer = inner, outer
    tracer = spans.Tracer()
    tracer.trial = 7
    with spans.patched(tracer.replacements([mod], [], "pkg")):
        assert mod.outer(1) == 4
    assert mod.inner is inner and mod.outer is outer
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("outer.outer", -1, 7), ("outer.inner", 0, 7)]
    assert spans.totals(tracer.spans)["outer.outer"]["calls"] == 1


# --- extrapolation candidates -------------------------------------------------


def test_extrap_candidates_arithmetic():
    # Two optimizer runs, five outer iterations, twelve auxiliary updates:
    # two initial refreshes, five per-iteration ones, five candidates.
    assert layers.extrap_candidates(12, 5, 2) == 5


def test_extrap_candidates_matches_a_traced_optimize():
    p = desk_params()
    ch = draw_channels(p, 3)
    probe = layers.ResultProbe()
    tracer = spans.Tracer(probe.probes())
    with spans.patched(tracer.replacements([bcd, system_model], [linalg],
                                           "fdwiretap")):
        result = bcd.optimize(p, ch, outer_tol=1e-3, inner_tol=1e-4)
    m = layers.layer_metrics(tracer, probe)
    assert m["bcd.outer_iters"] == result.state.iterations
    assert m["bcd.optimize_calls"] == 1
    # Every candidate refreshes the auxiliaries and scores the surrogate.
    candidates = m["bcd.extrap_candidates"]
    assert candidates >= 0
    assert m["bcd.surrogate_calls"] == m["bcd.aux_calls"]
    assert m["bcd.aux_calls"] == 1 + result.state.iterations + candidates


# --- failure classification ---------------------------------------------------


def test_clean_cell_passes():
    assert gate.cell_failures("Converged", 3.2, None, [[1.0, 2.0, 2.0]]) == []


def test_numerical_trouble_status_fails():
    assert gate.cell_failures("NumericalTrouble", 3.2, None, []) == ["status"]


def test_non_finite_bits_fail():
    assert gate.cell_failures("Converged", float("nan"), None, []) == ["bits"]
    assert gate.cell_failures("Converged", float("inf"), None, []) == ["bits"]


def test_trace_drop_beyond_tolerance_fails():
    assert gate.cell_failures("Converged", 1.0, None,
                              [[1.0, 2.0], [1.0, 1.0 - 2e-9]]) == ["trace"]
    assert gate.cell_failures("Converged", 1.0, None,
                              [[1.0, 1.0 - 5e-10]]) == []


def test_design_violation_fails():
    assert gate.cell_failures("Converged", 1.0, "not PSD", []) == ["design"]


def test_one_directional_design_checks():
    p = desk_params()
    design = bcd.init_uniform(p, with_jamming=True)
    assert gate.design_violation(p, design, system_model, errors) is None
    over = design.copy()
    over.X[0] = over.X[0] * (1.0 + 1e-3)
    assert "budget" in gate.design_violation(p, over, system_model, errors)
    indefinite = design.copy()
    indefinite.W[1] = np.diag([0.5, -1e-6]).astype(complex)
    assert "PSD" in gate.design_violation(p, indefinite, system_model, errors)
    assert gate.design_violation(p, None, system_model, errors)


def test_bidirectional_design_checks():
    p = desk_params(p_a_max_db=10.0, p_b_max_db=10.0)
    design = bcd.init_uniform_bidirectional(p)
    assert gate.design_violation(p, design, system_model, errors) is None
    jammed = design.copy()
    jammed.W_a[0] = 0.01 * np.eye(2)  # node A already spends P_A_max on X_a
    assert "node A" in gate.design_violation(p, jammed, system_model, errors)
    indefinite = design.copy()
    indefinite.W_b[1] = np.diag([0.0, -1e-6]).astype(complex)
    assert "node B" in gate.design_violation(p, indefinite, system_model,
                                             errors)


def test_gate_captures_cells_of_a_run():
    cfg = harness.ExperimentConfig.from_dict(dict(
        M_a=2, M_bt=2, M_br=2, M_e=2, N=2, kappa_db=-30.0, beta_db=-30.0,
        strategies=["Optimal-FD", "Equal-HD"], trials=1, master_seed=5,
        outer_tol=1e-3, inner_tol=1e-4))
    cell_gate = gate.CellGate(harness, bcd)
    with spans.patched(cell_gate.replacements()):
        rows = harness.run_experiment(cfg).trial_rows
    assert harness.strategy_dispatch.__name__ == "strategy_dispatch"
    assert [c["strategy"] for c in cell_gate.cells] == cfg.strategies
    assert len(cell_gate.cells[0]["traces"]) == 1
    assert cell_gate.cells[1]["traces"] == []
    assert cell_gate.judge(rows, system_model, errors) == [[], []]

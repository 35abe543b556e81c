from dataclasses import fields, replace

import numpy as np
import pytest

from fdwiretap import bcd, harness, system_model
from fdwiretap.channel import SystemParams, db2lin, draw_channels
from fdwiretap.errors import ConfigError, NonPositiveDefinite, UnknownStrategy
from fdwiretap.harness import (ExperimentConfig, ExperimentResult, TrialRow,
                               emit_results, load_results, run_experiment,
                               run_trial, strategy_dispatch)

DESK = dict(M_a=2, M_bt=2, M_br=2, M_e=2, N=2,
            kappa_db=-30.0, beta_db=-30.0)
OPTS = {"outer_tol": 1e-3, "inner_tol": 1e-4}


def desk_config(**overrides):
    raw = dict(DESK)
    raw.update(strategies=["Equal-FD", "Equal-HD"], trials=3,
               master_seed=7, outer_tol=1e-3, inner_tol=1e-4)
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


# --- configuration ----------------------------------------------------------


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        desk_config(typo_key=1)


def test_config_rejects_unknown_strategy():
    with pytest.raises(UnknownStrategy):
        desk_config(strategies=["Optimal-FD", "Maximal-FD"])


def test_config_requires_strategies():
    raw = dict(DESK, trials=2)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


def test_config_rejects_bad_trials_and_sweep():
    with pytest.raises(ConfigError):
        desk_config(trials=0)
    with pytest.raises(ConfigError):
        desk_config(sweep_param="bandwidth_db")
    with pytest.raises(ConfigError):
        desk_config(sweep_values=[])


@pytest.mark.parametrize("bad", [
    dict(trials="2"), dict(trials=True), dict(master_seed=1.0),
    dict(max_outer="5"), dict(inner_max_iter=2.0), dict(outer_tol="1e-3"),
    dict(inner_tol=None), dict(sweep_values=3), dict(sweep_values=(0.0,)),
    dict(strategies="Equal-FD")])
def test_config_rejects_values_of_the_wrong_type(bad):
    """A value of the wrong type is rejected by name, never coerced."""
    with pytest.raises(ConfigError, match=next(iter(bad))):
        desk_config(**bad)


def test_config_accepts_an_integer_tolerance():
    assert desk_config(outer_tol=0).outer_tol == 0


def test_config_rejects_a_bad_sweep_value_at_load():
    """Every sweep value is read as a float and applied to the params once
    at load, before any cell runs."""
    with pytest.raises(ConfigError, match="sweep_values"):
        desk_config(sweep_param="M_b", sweep_values=[2, 0])
    for sweep_param in ("W_max_db", "none", "csi_error_db"):
        with pytest.raises(ConfigError, match="sweep_values"):
            desk_config(sweep_param=sweep_param, sweep_values=["high"])
    # A string float() reads, such as YAML's plain -inf, stays valid.
    assert desk_config(sweep_param="csi_error_db",
                       sweep_values=["-inf"]).sweep_values == ["-inf"]


def test_config_from_yaml(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "M_a: 2\nM_bt: 2\nM_br: 2\nM_e: 2\nN: 2\n"
        "strategies: [Equal-FD]\ntrials: 2\nmaster_seed: 5\n"
        "sweep_param: W_max_db\nsweep_values: [-10.0, 0.0]\n")
    cfg = ExperimentConfig.from_yaml(path)
    assert cfg.trials == 2
    assert cfg.master_seed == 5
    assert cfg.sweep_values == [-10.0, 0.0]
    assert cfg.params.M_a == 2


def test_config_from_yaml_rejects_non_mapping(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("- just\n- a\n- list\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_yaml(path)


# --- sweeps -----------------------------------------------------------------


def test_apply_sweep_w_max():
    p = SystemParams.from_db(**DESK)
    swept = harness.SWEEPS["W_max_db"](p, 10.0)
    assert swept.W_max == pytest.approx(10.0)
    assert swept.X_max == p.X_max


def test_apply_sweep_p_max_sets_all_budgets():
    p = SystemParams.from_db(**DESK)
    swept = harness.SWEEPS["P_max_db"](p, 10.0)
    for budget in (swept.X_max, swept.W_max, swept.P_A_max, swept.P_B_max):
        assert budget == pytest.approx(10.0)


def test_apply_sweep_kappa_beta():
    p = SystemParams.from_db(**DESK)
    swept = harness.SWEEPS["kappa_beta_db"](p, -10.0)
    assert swept.kappa["b"] == pytest.approx(0.1)
    assert swept.beta["a"] == pytest.approx(0.1)


def test_apply_sweep_antennas():
    p = SystemParams.from_db(**DESK)
    swept = harness.SWEEPS["M_b"](p, 3)
    assert swept.M_bt == 3 and swept.M_br == 3
    assert harness.SWEEPS["M_e"](p, 3).M_e == 3


def test_apply_sweep_none_is_identity():
    p = SystemParams.from_db(**DESK)
    assert harness.SWEEPS["none"](p, 0.0) is p


def test_sweepable_order():
    """The CLI lists the --param choices in this order."""
    assert tuple(harness.SWEEPS) == ("W_max_db", "X_max_db", "kappa_beta_db",
                                     "noise_db", "M_b", "M_e", "P_max_db",
                                     "csi_error_db", "none")


def test_csi_variance_mapping():
    assert harness._csi_variance("W_max_db", -20.0) == 0.0
    assert harness._csi_variance("csi_error_db", float("-inf")) == 0.0
    assert harness._csi_variance("csi_error_db", -20.0) == pytest.approx(0.01)


# --- trial counting and determinism -----------------------------------------


def test_row_counts_and_cells():
    cfg = desk_config(sweep_param="W_max_db",
                      sweep_values=[-10.0, 0.0, 10.0], trials=5)
    res = run_experiment(cfg)
    assert len(res.trial_rows) == 2 * 3 * 5
    aggs = res.aggregates()
    assert len(aggs) == 2 * 3
    keys = [(a.strategy, a.sweep_value) for a in aggs]
    assert keys == sorted(keys)


def test_reruns_are_bit_identical():
    cfg = desk_config(strategies=["Optimal-FD", "Equal-FD"], trials=2)
    rows1 = run_experiment(cfg).trial_rows
    rows2 = run_experiment(cfg).trial_rows
    for a, b in zip(rows1, rows2):
        assert a.bits == b.bits
        assert a.seed == b.seed
        assert a.iters == b.iters


def test_strategies_share_channel_within_trial():
    cfg = desk_config(trials=2)
    rows = run_experiment(cfg).trial_rows
    by_trial = {}
    for row in rows:
        by_trial.setdefault(row.trial, set()).add(row.seed)
    for seeds in by_trial.values():
        assert len(seeds) == 1


def test_equal_power_rows_do_not_iterate():
    cfg = desk_config(trials=2)
    for row in run_experiment(cfg).trial_rows:
        assert row.iters == 0
        assert row.status == "Converged"


def test_aggregate_statistics_by_hand():
    rows = [TrialRow("S", 0.0, t, 1, b, 4, "Converged")
            for t, b in enumerate([1.0, 2.0, 4.0])]
    res = ExperimentResult(config_echo={"sweep_param": "none"},
                           master_seed=0, trial_rows=rows)
    [agg] = res.aggregates()
    assert agg.mean_bits == pytest.approx(7.0 / 3.0)
    assert agg.stderr_bits == pytest.approx(np.std([1, 2, 4], ddof=1)
                                            / np.sqrt(3))
    assert agg.mean_iters == pytest.approx(4.0)


def test_failed_trial_marks_result(monkeypatch):
    cfg = desk_config(strategies=["Optimal-FD"], trials=1)

    def boom(*args, **kwargs):
        raise NonPositiveDefinite("synthetic failure")

    monkeypatch.setattr(bcd, "optimize_bidirectional", boom)
    rows = run_trial(cfg, 0.0, 0)
    assert rows[0].status == "NumericalTrouble"
    assert rows[0].worst_inner == "NumericalTrouble"
    assert np.isnan(rows[0].bits)
    res = ExperimentResult(config_echo={}, master_seed=0, trial_rows=rows)
    assert res.any_failed()


def test_programming_error_propagates_from_trial(monkeypatch):
    """Only numerical failures become NumericalTrouble rows; a bug in a
    strategy is raised, not written to trials.csv as data."""
    cfg = desk_config(strategies=["Optimal-FD"], trials=1)

    def bug(*args, **kwargs):
        raise TypeError("synthetic bug")

    monkeypatch.setattr(bcd, "optimize_bidirectional", bug)
    with pytest.raises(TypeError):
        run_trial(cfg, 0.0, 0)


# --- strategy semantics -----------------------------------------------------


def test_optimized_beats_equal_power():
    cfg = desk_config(strategies=["Optimal-HD", "Equal-HD"], trials=5)
    means = {agg.strategy: agg.mean_bits
             for agg in run_experiment(cfg).aggregates()}
    opt, equal = means["Optimal-HD"], means["Equal-HD"]
    assert opt >= equal - 1e-9


def test_bob_fd_matches_one_directional_at_default_budgets():
    """With X_max = P_A_max and W_max = P_B_max the single-pair FD strategy
    coincides with the plain optimized design."""
    p = SystemParams.from_db(**DESK)
    ch = draw_channels(p, 11)
    d1, it1, _ = strategy_dispatch("Optimal-FD", p, ch, OPTS)
    d2, it2, _ = strategy_dispatch("Bob-FD/Bob-Jam", p, ch, OPTS)
    assert it1 == it2
    np.testing.assert_allclose(d1.X, d2.X, atol=1e-12)
    np.testing.assert_allclose(d1.W, d2.W, atol=1e-12)


def test_both_hd_no_jam_bits_on_fixed_seed():
    """The reverse link runs as the b->a direction of the two-node model.
    The value is that of inexact inner solves; solving every subproblem to
    inner_tol gave 4.921625392371903 in 8 iterations, and a tight solve
    (outer 1e-10, inner 1e-9) gives 4.9216572."""
    p = SystemParams.from_db(**DESK)
    ch = draw_channels(p, 3)
    design, iters, status = strategy_dispatch("Both-HD/No-Jam", p, ch, OPTS)
    bits = harness._evaluate("Both-HD/No-Jam", p, design, ch)
    assert abs(bits - 4.921655578851032) <= 1e-12
    assert (iters, status) == (10, "Converged")


def test_both_hd_no_jam_is_half_of_standalone_links():
    p = SystemParams.from_db(**DESK)
    ch = draw_channels(p, 4)
    design, _, _ = strategy_dispatch("Both-HD/No-Jam", p, ch, OPTS)
    bits = harness._evaluate("Both-HD/No-Jam", p, design, ch)
    assert bits > 0
    assert np.all(design.W_a == 0) and np.all(design.W_b == 0)
    # Each direction alone, without residual SI, scores its own half.
    hd = replace(p, kappa={"a": 0.0, "b": 0.0}, beta={"a": 0.0, "b": 0.0})
    halves = []
    for info in ("X_a", "X_b"):
        alone = system_model.BidirectionalDesign.zeros(p)
        getattr(alone, info)[:] = getattr(design, info)
        halves.append(0.5 * system_model.secrecy_rates(hd, ch, alone).I_sum)
    assert bits == pytest.approx(sum(halves), abs=1e-12)


@pytest.mark.parametrize("counts", [dict(M_at=3, M_ar=3),
                                    dict(M_a=3, M_at=3, M_ar=3)])
def test_two_node_strategies_run_with_alice_transmit_count_m_at(counts):
    """Alice's links and blocks share one transmit antenna count, whichever
    name sets it."""
    p = SystemParams.from_db(M_bt=2, M_br=2, M_e=2, N=2, kappa_db=-30.0,
                             beta_db=-30.0, **counts)
    ch = draw_channels(p, 6)
    for name in ("Both-FD/No-Jam", "Both-FD/Bob-Jam", "Both-FD/Both-Jam",
                 "Both-HD/No-Jam", "Bob-FD/Bob-Jam"):
        design, _, _ = strategy_dispatch(name, p, ch, OPTS)
        assert np.isfinite(harness._evaluate(name, p, design, ch)), name


def test_config_rejects_conflicting_alice_transmit_counts():
    with pytest.raises(ConfigError):
        desk_config(M_a=2, M_at=3)


def test_strategy_runs_name_two_node_blocks():
    """Every strategy frees blocks by their two-node names, whichever
    design type it starts from."""
    for name, spec in harness.STRATEGY_TABLE.items():
        for free in spec.runs:
            assert free and set(free) <= set(bcd.BLOCKS), (name, free)


def test_hd_strategies_carry_no_jamming():
    p = SystemParams.from_db(**DESK)
    ch = draw_channels(p, 5)
    design, _, _ = strategy_dispatch("Optimal-HD", p, ch, OPTS)
    assert np.all(design.W == 0)
    design, _, _ = strategy_dispatch("Equal-HD", p, ch, OPTS)
    assert np.all(design.W == 0)


@pytest.mark.parametrize("name", ["Equal-FD", "Equal-HD", "Optimal-FD"])
def test_an_unknown_solver_option_is_an_error(name):
    """A mistyped option is an error, not dropped, also for a strategy that
    runs no optimizer."""
    p = SystemParams.from_db(**DESK)
    ch = draw_channels(p, 5)
    with pytest.raises(TypeError):
        strategy_dispatch(name, p, ch, {"outer_tolerance": 1e-3})


# --- emission and parsing ---------------------------------------------------


def test_csv_headers_are_the_dataclass_fields():
    assert harness.TRIAL_HEADER == tuple(f.name for f in fields(TrialRow))
    assert harness.AGGREGATE_HEADER == tuple(
        f.name for f in fields(harness.AggregateRow))


def test_emit_load_round_trip(tmp_path, monkeypatch):
    """Every TrialRow field, of a failed row too, survives the CSVs with
    its type, and emitting the loaded result gives the same bytes."""
    cfg = desk_config(strategies=["Optimal-FD", "Equal-FD"], trials=2,
                      sweep_param="W_max_db", sweep_values=[-10.0, 0.0])
    res = run_experiment(cfg)

    def boom(*args, **kwargs):
        raise NonPositiveDefinite("synthetic failure")

    monkeypatch.setattr(bcd, "optimize_bidirectional", boom)
    res.trial_rows += run_trial(cfg, 0.0, 0)
    assert res.any_failed()
    emit_results(res, tmp_path / "out")
    loaded = load_results(tmp_path / "out")
    assert len(loaded.trial_rows) == len(res.trial_rows)
    for a, b in zip(loaded.trial_rows, res.trial_rows):
        for f in fields(TrialRow):
            va, vb = getattr(a, f.name), getattr(b, f.name)
            assert type(va) is type(vb) is f.type, f.name
            assert va == vb or (np.isnan(va) and np.isnan(vb)), f.name
    assert loaded.master_seed == res.master_seed
    assert loaded.config_echo == res.config_echo
    emit_results(loaded, tmp_path / "again")
    for name in ("aggregate.csv", "trials.csv", "metadata.json"):
        assert ((tmp_path / "out" / name).read_bytes()
                == (tmp_path / "again" / name).read_bytes()), name


def test_rows_carry_inner_solver_totals(tmp_path):
    """inner_iters and worst_inner total every inner solve of a row's
    optimizer runs, and survive the CSV round trip."""
    p = SystemParams.from_db(**DESK)
    ch = draw_channels(p, 2)
    for opts, worst in ((OPTS, "Converged"),
                        (dict(OPTS, inner_max_iter=8), "MaxIter")):
        run = strategy_dispatch("Both-HD/No-Jam", p, ch, opts)
        assert run.worst_inner == worst
        hd = harness._half_duplex(p)
        reports = []
        for silent in ("X_b", "X_a"):
            init = bcd.init_uniform_bidirectional(hd)
            getattr(init, silent)[:] = 0.0
            reports += bcd.optimize_bidirectional(
                hd, ch, init=init, free={"X_a", "X_b"} - {silent},
                **opts).state.inner_reports
        assert run.inner_iters == sum(rep.iterations for rep in reports)
        assert {rep.status.value for rep in reports} >= {worst, "Converged"}
    cfg = desk_config(strategies=["Optimal-FD", "Equal-FD"], trials=2,
                      inner_max_iter=2)
    res = run_experiment(cfg)
    emit_results(res, tmp_path)
    loaded = load_results(tmp_path).trial_rows
    assert [(r.inner_iters, r.worst_inner) for r in loaded] == [
        (r.inner_iters, r.worst_inner) for r in res.trial_rows]
    for row in res.trial_rows:
        if row.strategy == "Equal-FD":
            assert (row.inner_iters, row.worst_inner) == (0, "Converged")
        else:
            assert row.inner_iters > 0 and row.worst_inner == "MaxIter"


def test_rows_carry_extrapolations_and_final_residual(tmp_path):
    """extrapolations sums the accepted extrapolation steps of a row's
    optimizer runs and final_residual is the largest residual of a run's
    last inner solve; both survive the CSV round trip."""
    p = SystemParams.from_db(**DESK)
    ch = draw_channels(p, 2)
    run = strategy_dispatch("Both-HD/No-Jam", p, ch, OPTS)
    hd = harness._half_duplex(p)
    states = []
    for silent in ("X_b", "X_a"):
        init = bcd.init_uniform_bidirectional(hd)
        getattr(init, silent)[:] = 0.0
        states.append(bcd.optimize_bidirectional(
            hd, ch, init=init, free={"X_a", "X_b"} - {silent}, **OPTS).state)
    assert run.extrapolations == sum(s.extrapolations for s in states)
    assert run.final_residual == max(s.inner_reports[-1].residual
                                     for s in states)
    cfg = desk_config(strategies=["Optimal-FD", "Equal-FD"], trials=3)
    res = run_experiment(cfg)
    emit_results(res, tmp_path)
    loaded = load_results(tmp_path).trial_rows
    assert [(r.extrapolations, r.final_residual) for r in loaded] == [
        (r.extrapolations, r.final_residual) for r in res.trial_rows]
    for row in res.trial_rows:
        if row.strategy == "Equal-FD":
            assert (row.extrapolations, row.final_residual) == (0, 0.0)
        else:
            assert 0.0 < row.final_residual <= cfg.inner_tol
    assert sum(r.extrapolations for r in res.trial_rows) > 0


def test_emitted_files_are_byte_identical_across_reruns(tmp_path):
    cfg = desk_config(strategies=["Optimal-FD", "Equal-FD"], trials=2)
    emit_results(run_experiment(cfg), tmp_path / "a")
    emit_results(run_experiment(cfg), tmp_path / "b")
    for name in ("aggregate.csv", "trials.csv", "metadata.json"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_empty_rows_emit_header_only(tmp_path):
    res = ExperimentResult(config_echo={"sweep_param": "none"},
                           master_seed=0, trial_rows=[])
    emit_results(res, tmp_path)
    agg_lines = (tmp_path / "aggregate.csv").read_text().strip().splitlines()
    trial_lines = (tmp_path / "trials.csv").read_text().strip().splitlines()
    assert agg_lines == [",".join(harness.AGGREGATE_HEADER)]
    assert trial_lines == [",".join(harness.TRIAL_HEADER)]

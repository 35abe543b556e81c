import numpy as np
import pytest

from fdwiretap import bcd, linalg, system_model
from fdwiretap.channel import ChannelRealization, SystemParams, draw_channels
from fdwiretap.errors import DegenerateChannel
from fdwiretap.system_model import BidirectionalDesign, TransmitDesign


def small_params(**kw):
    base = dict(M_a=2, M_bt=2, M_br=2, M_e=2, N=2,
                kappa_db=-30.0, beta_db=-30.0)
    base.update(kw)
    return SystemParams.from_db(**base)


def random_design(params, seed):
    rng = np.random.default_rng(seed)
    d = TransmitDesign.zeros(params)
    for n in range(params.N):
        g = rng.standard_normal((params.M_a, params.M_a)) \
            + 1j * rng.standard_normal((params.M_a, params.M_a))
        v = g @ g.conj().T
        d.X[n] = v * (params.X_max / params.N / np.real(np.trace(v)))
        g = rng.standard_normal((params.M_bt, params.M_bt)) \
            + 1j * rng.standard_normal((params.M_bt, params.M_bt))
        v = g @ g.conj().T
        d.W[n] = v * (params.W_max / params.N / np.real(np.trace(v)))
    return d


# --- auxiliaries -----------------------------------------------------------


def test_aux_q_scaled_identity():
    p = small_params(kappa_db=None, beta_db=None).with_updates(
        noise={"a": 2.0, "b": 2.0, "e": 2.0})
    ch = draw_channels(p, 0)
    aux_q, _ = bcd.update_auxiliaries(p, ch, TransmitDesign.zeros(p))
    assert list(aux_q) == ["ab"]
    for n in range(p.N):
        np.testing.assert_allclose(aux_q["ab"][n], 0.5 * np.eye(p.M_br),
                                   atol=1e-12)


def test_aux_t_unit_noise():
    p = small_params()
    ch = draw_channels(p, 0)
    _, aux_t = bcd.update_auxiliaries(p, ch, TransmitDesign.zeros(p))
    for n in range(p.N):
        np.testing.assert_allclose(aux_t["ab"][n],
                                   np.eye(p.M_e) / p.noise["e"][n], atol=1e-9)


def test_surrogate_tight_after_aux_update():
    p = small_params()
    for seed in range(10):
        ch = draw_channels(p, seed)
        d = random_design(p, seed)
        aux_q, aux_t = bcd.update_auxiliaries(p, ch, d)
        sur = bcd.surrogate_objective(p, ch, d, aux_q, aux_t)
        true = system_model.unclamped_objective_nats(p, ch, d)
        assert sur == pytest.approx(true, abs=1e-8)


def test_surrogate_lower_bounds_true_objective():
    """With mismatched auxiliaries the surrogate can only be lower."""
    p = small_params()
    ch = draw_channels(p, 1)
    d1 = random_design(p, 1)
    d2 = random_design(p, 2)
    aux_q, aux_t = bcd.update_auxiliaries(p, ch, d2)
    sur = bcd.surrogate_objective(p, ch, d1, aux_q, aux_t)
    true = system_model.unclamped_objective_nats(p, ch, d1)
    assert sur <= true + 1e-10


def test_subproblem_size_is_constant_in_n():
    """Optimal-FD's subproblem has one receiver and one Eve term, and four
    (variable, operator) pairs, at any number of subcarriers."""
    free = {"X_a", "W_b"}
    sizes = []
    for n in (2, 16):
        p = small_params(N=n)
        ch = draw_channels(p, 0)
        view = bcd._active_view(bcd.init_uniform(p).nodes(), free)
        aux_q, aux_t = bcd.update_auxiliaries(p, ch, view)
        prob = bcd._subproblem(p, ch, view, free, aux_q, aux_t,
                               {"a": p.X_max, "b": p.W_max})
        sizes.append((len(prob.logdet_terms),
                      sum(len(term.maps) for term in prob.logdet_terms)))
    assert sizes == [(2, 4), (2, 4)]


# --- initializations -------------------------------------------------------


def test_init_uniform_default_scale():
    p = SystemParams.from_db()  # 4 antennas, 4 subcarriers, 0 dB budget
    d = bcd.init_uniform(p)
    for n in range(4):
        np.testing.assert_allclose(d.X[n], np.eye(4) / 16.0, atol=1e-15)
        assert not np.any(d.W[n])
    total = sum(np.real(np.trace(x)) for x in d.X)
    assert total == pytest.approx(p.X_max, abs=1e-12)


def test_init_uniform_with_jamming_budget():
    p = small_params()
    d = bcd.init_uniform(p, with_jamming=True)
    total_w = sum(np.real(np.trace(w)) for w in d.W)
    assert total_w == pytest.approx(p.W_max, abs=1e-12)


def test_spatial_beam_aligns_with_top_singular_direction():
    # undesired channel absent: the beam must capture the largest singular
    # value of F
    rng = np.random.default_rng(3)
    f = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q = bcd._spatial_beam(f, np.zeros((3, 3), complex), 1e-3, 1e-3)
    assert np.real(np.trace(q)) == pytest.approx(1.0, abs=1e-12)
    smax = np.linalg.svd(f, compute_uv=False)[0]
    captured = np.real(np.trace(f @ q @ f.conj().T))
    assert captured == pytest.approx(smax ** 2, abs=1e-6)


def test_spatial_beam_symmetric_case_deterministic():
    rng = np.random.default_rng(4)
    f = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    g_gram = linalg.hermitize(f.conj().T @ f)
    q1 = bcd._spatial_beam(f, g_gram, 0.5, 0.5)
    q2 = bcd._spatial_beam(f, g_gram, 0.5, 0.5)
    np.testing.assert_array_equal(q1, q2)
    # F = G makes the ratio objective constant (= 1) for any unit-trace Q
    num = np.real(np.trace(f @ q1 @ f.conj().T)) + 0.5
    den = np.real(np.trace(g_gram @ q1)) + 0.5
    assert num / den == pytest.approx(1.0, abs=1e-9)


def test_spatial_beam_scalar_ratio():
    f = np.array([[1.7]], dtype=complex)
    g_gram = np.array([[0.36]], dtype=complex)
    q = bcd._spatial_beam(f, g_gram, 0.2, 0.4)
    assert q[0, 0] == pytest.approx(1.0, abs=1e-12)
    ratio = (abs(1.7) ** 2 * q[0, 0].real + 0.2) / (0.36 * q[0, 0].real + 0.4)
    assert ratio == pytest.approx((1.7 ** 2 + 0.2) / (0.36 + 0.4), abs=1e-12)


def test_spatial_beam_degenerate_rejected():
    with pytest.raises(DegenerateChannel):
        bcd._spatial_beam(np.zeros((2, 2), complex), np.zeros((2, 2), complex),
                          0.1, 0.1)


def test_init_optimal_beam_budget_and_rank():
    p = small_params()
    ch = draw_channels(p, 5)
    d = bcd.init_optimal_beam(p, ch)
    total_x = sum(np.real(np.trace(x)) for x in d.X)
    total_w = sum(np.real(np.trace(w)) for w in d.W)
    assert total_x == pytest.approx(p.X_max, abs=1e-9)
    assert total_w == pytest.approx(p.W_max, abs=1e-9)
    for n in range(p.N):
        vals = np.linalg.eigvalsh(d.X[n])
        assert vals[-1] == pytest.approx(p.X_max / p.N, abs=1e-9)
        assert abs(vals[0]) < 1e-9  # rank one


def test_init_random_reproducible_and_feasible():
    p = small_params()
    d1 = bcd.init_random(p, 9)
    d2 = bcd.init_random(p, 9)
    np.testing.assert_array_equal(d1.X, d2.X)
    d3 = bcd.init_random(p, 10)
    assert not np.array_equal(d1.X, d3.X)
    d1.validate(p)


# --- one-directional optimization ------------------------------------------


def test_point_to_point_capacity():
    """No leakage path, no SI: the optimum is full power on the single
    link and the rate is the closed-form capacity."""
    p = SystemParams.from_db(M_a=1, M_bt=1, M_br=1, M_e=1, N=1,
                             kappa_db=None, beta_db=None)
    ch = draw_channels(p, 6)
    h = dict(ch.H)
    h["ae"] = np.zeros((1, 1, 1), complex)
    ch = ChannelRealization(H=h, seed=ch.seed)
    res = bcd.optimize(p, ch, outer_tol=1e-8, inner_tol=1e-10)
    cap = np.log2(1.0 + abs(ch.H["ab"][0, 0, 0]) ** 2 * p.X_max
                  / p.noise["b"][0])
    assert res.report.I_sum == pytest.approx(cap, abs=1e-4)


def test_optimize_monotone_trace_and_budgets():
    p = small_params()
    for seed in range(5):
        ch = draw_channels(p, seed)
        res = bcd.optimize(p, ch)
        trace = np.array(res.state.objective_trace)
        assert np.all(np.diff(trace) >= -1e-9)
        total_x = sum(np.real(np.trace(x)) for x in res.design.X)
        total_w = sum(np.real(np.trace(w)) for w in res.design.W)
        assert total_x <= p.X_max + 1e-6
        assert total_w <= p.W_max + 1e-6
        for n in range(p.N):
            assert linalg.min_eigenvalue(res.design.X[n]) >= -1e-9
            assert linalg.min_eigenvalue(res.design.W[n]) >= -1e-9


def test_optimize_improves_on_equal_power():
    p = small_params()
    for seed in range(5):
        ch = draw_channels(p, seed)
        init = bcd.init_uniform(p, with_jamming=True)
        start = system_model.unclamped_objective_nats(p, ch, init)
        res = bcd.optimize(p, ch, init=init)
        final = system_model.unclamped_objective_nats(p, ch, res.design)
        assert final >= start - 1e-9


def test_optimize_frozen_jamming_stays_put():
    p = small_params()
    ch = draw_channels(p, 7)
    init = bcd.init_uniform(p, with_jamming=True)
    res = bcd.optimize(p, ch, init=init, optimize_w=False)
    np.testing.assert_array_equal(res.design.W, init.W)
    assert not np.array_equal(res.design.X, init.X)


def test_optimize_frozen_information_stays_put():
    p = small_params()
    ch = draw_channels(p, 8)
    init = bcd.init_uniform(p, with_jamming=True)
    res = bcd.optimize(p, ch, init=init, optimize_x=False)
    np.testing.assert_array_equal(res.design.X, init.X)


def test_no_optimization_returns_init():
    p = small_params()
    ch = draw_channels(p, 8)
    init = bcd.init_uniform(p)
    res = bcd.optimize(p, ch, init=init, optimize_x=False, optimize_w=False)
    np.testing.assert_array_equal(res.design.X, init.X)
    assert res.state.iterations == 0


def test_benchmark_best_dominates_restarts():
    p = small_params()
    ch = draw_channels(p, 13)
    bench = bcd.benchmark_best(p, ch, restarts=4, seed=0)
    single = bcd.optimize(p, ch, init=bcd.init_random(p, 12345))
    assert bench.report.I_sum >= single.report.I_sum - 0.5


def test_lemma1_no_power_on_negative_subcarriers():
    """At convergence almost all trials should put no power where the
    unclamped secrecy is negative."""
    p = small_params()
    clean = 0
    trials = 10
    for seed in range(trials):
        ch = draw_channels(p, seed)
        res = bcd.optimize(p, ch)
        ok = True
        for n in range(p.N):
            power = np.real(np.trace(res.design.X[n]))
            margin = res.report.I_ab[n] - res.report.I_ae[n]
            if power > 1e-6 and margin < -1e-9:
                ok = False
        clean += ok
    assert clean >= 0.9 * trials


# --- bidirectional ---------------------------------------------------------


def test_bidirectional_monotone_and_budgets():
    p = small_params()
    ch = draw_channels(p, 14)
    res = bcd.optimize_bidirectional(p, ch)
    trace = np.array(res.state.objective_trace)
    assert np.all(np.diff(trace) >= -1e-9)
    tot_a = sum(np.real(np.trace(m)) for m in res.design.X_a) \
        + sum(np.real(np.trace(m)) for m in res.design.W_a)
    tot_b = sum(np.real(np.trace(m)) for m in res.design.X_b) \
        + sum(np.real(np.trace(m)) for m in res.design.W_b)
    assert tot_a <= p.P_A_max + 1e-6
    assert tot_b <= p.P_B_max + 1e-6


def test_bidirectional_surrogate_tightness():
    p = small_params()
    ch = draw_channels(p, 15)
    d = BidirectionalDesign.zeros(p)
    rng = np.random.default_rng(0)
    for n in range(p.N):
        for stack, dim in ((d.X_a, p.M_a), (d.W_a, p.M_a),
                           (d.X_b, p.M_bt), (d.W_b, p.M_bt)):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            v = g @ g.conj().T
            stack[n] = v * (0.2 / np.real(np.trace(v)))
    aux_q, aux_t = bcd.update_auxiliaries(p, ch, d)
    assert sorted(aux_q) == sorted(aux_t) == ["ab", "ba"]
    sur = bcd.surrogate_objective(p, ch, d, aux_q, aux_t)
    true = system_model.unclamped_objective_nats(p, ch, d)
    assert sur == pytest.approx(true, abs=1e-8)


def test_bidirectional_reduces_to_one_directional():
    """Silencing the reverse information stream and the forward node's
    jamming leaves exactly the one-directional problem: the silent blocks
    and the inactive direction add no terms, so the two runs take the same
    steps."""
    p = small_params()
    ch = draw_channels(p, 16)
    init = BidirectionalDesign.zeros(p)
    for n in range(p.N):
        init.X_a[n] = (p.P_A_max / (p.N * p.M_a)) * np.eye(p.M_a)
    res_bi = bcd.optimize_bidirectional(p, ch, init=init, jam_a=False,
                                        tx_b=False, outer_tol=1e-6)
    p_one = p.with_updates(X_max=p.P_A_max, W_max=p.P_B_max)
    res_one = bcd.optimize(p_one, ch, outer_tol=1e-6)
    assert len(res_bi.state.objective_trace) == len(
        res_one.state.objective_trace)
    np.testing.assert_allclose(res_bi.state.objective_trace,
                               res_one.state.objective_trace, rtol=0,
                               atol=1e-12)
    assert abs(res_bi.report.I_sum - res_one.report.I_sum) <= 1e-12


def test_bidirectional_jamming_flags_respected():
    p = small_params()
    ch = draw_channels(p, 17)
    res = bcd.optimize_bidirectional(p, ch, jam_a=False, jam_b=False)
    assert not np.any(res.design.W_a)
    assert not np.any(res.design.W_b)
    res2 = bcd.optimize_bidirectional(p, ch, jam_a=False, jam_b=True)
    assert not np.any(res2.design.W_a)
    assert np.any(res2.design.W_b)

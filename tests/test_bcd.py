from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdwiretap import bcd, linalg, maxdet, system_model, waterfill
from fdwiretap.channel import ChannelRealization, SystemParams, draw_channels
from fdwiretap.errors import DegenerateChannel
from fdwiretap.system_model import BidirectionalDesign, TransmitDesign
from test_maxdet import assert_hermitian_to_rounding


def small_params(**kw):
    base = dict(M_a=2, M_bt=2, M_br=2, M_e=2, N=2,
                kappa_db=-30.0, beta_db=-30.0)
    base.update(kw)
    return SystemParams.from_db(**base)


def random_design(params, seed):
    """``bcd.init_random`` drawn one subcarrier at a time."""
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
    p = replace(small_params(kappa_db=None, beta_db=None),
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


@pytest.mark.parametrize("one_directional", [True, False])
def test_subproblem_gradient_is_the_objective_gradient(one_directional):
    """After the auxiliary update the surrogate is tight and touches the
    objective from below, so the subproblem's gradient in the free blocks,
    whose norm the inner solver's first residual measures, is the gradient
    of the unclamped objective."""
    p = small_params()
    ch = draw_channels(p, 21)
    if one_directional:
        design = random_design(p, 21).nodes()
        free = {"X_a", "W_b"}
        budgets = {"a": p.X_max, "b": p.W_max}
    else:
        design = BidirectionalDesign.zeros(p)
        rng = np.random.default_rng(21)
        for b in bcd.BLOCKS:
            g = rng.standard_normal((p.N, 2, 2, 2)) @ [1, 1j]
            getattr(design, b)[:] = 0.1 * g @ g.conj().swapaxes(-1, -2)
        free = set(bcd.BLOCKS)
        budgets = {"a": p.P_A_max, "b": p.P_B_max}
    view = bcd._active_view(design, free)
    aux_q, aux_t = bcd.update_auxiliaries(p, ch, view)
    prob = bcd._subproblem(p, ch, view, free, aux_q, aux_t, budgets)
    point = {b: getattr(view, b) for b, _ in prob.variables}
    _, grads, _ = maxdet._eval_state(prob, point)
    rng = np.random.default_rng(22)
    eps = 1e-6
    for b, _ in prob.variables:
        d = linalg.hermitize(rng.standard_normal(point[b].shape)
                             + 1j * rng.standard_normal(point[b].shape))
        up = system_model.unclamped_objective_nats(
            p, ch, replace(view, **{b: point[b] + eps * d}))
        down = system_model.unclamped_objective_nats(
            p, ch, replace(view, **{b: point[b] - eps * d}))
        assert linalg.inner(grads[b], d) == pytest.approx(
            (up - down) / (2 * eps), rel=1e-5, abs=1e-7), b


@pytest.mark.parametrize("one_directional, free", [
    (True, {"X_a", "W_b"}), (True, {"X_a"}),
    (False, set(bcd.BLOCKS)), (False, {"X_a", "X_b", "W_b"})])
def test_subproblem_objective_is_the_surrogate_up_to_a_constant(
        one_directional, free):
    """At fixed auxiliaries the subproblem leaves out only terms that do not
    depend on the free blocks, so between two feasible points its objective
    changes exactly as the surrogate does."""
    p = small_params()
    ch = draw_channels(p, 31)
    rng = np.random.default_rng(31)
    if one_directional:
        design = random_design(p, 31).nodes()
        budgets = {"a": p.X_max, "b": p.W_max}
    else:
        design = BidirectionalDesign.zeros(p)
        for b in bcd.BLOCKS:
            g = rng.standard_normal((p.N, 2, 2, 2)) @ [1, 1j]
            getattr(design, b)[:] = 0.1 * g @ g.conj().swapaxes(-1, -2)
        budgets = {"a": p.P_A_max, "b": p.P_B_max}
    view = bcd._active_view(design, free)
    aux_q, aux_t = bcd.update_auxiliaries(p, ch, view)
    prob = bcd._subproblem(p, ch, view, free, aux_q, aux_t, budgets)
    start = {b: getattr(view, b) for b, _ in prob.variables}
    end = {}
    for b, v in start.items():
        g = rng.standard_normal(v.shape + (2,)) @ [1, 1j]
        end[b] = v + 0.1 * linalg.hermitize(g)
    end = maxdet.project_feasible(prob, end)
    sub = [maxdet._eval_state(prob, pt)[0] for pt in (start, end)]
    sur = [bcd.surrogate_objective(p, ch, replace(view, **pt), aux_q, aux_t)
           for pt in (start, end)]
    assert abs(sur[1] - sur[0]) > 1e-3
    assert abs((sub[1] - sub[0]) - (sur[1] - sur[0])) <= 1e-9


@pytest.mark.parametrize("outer_tol, inner_tol", [(1e-4, 1e-6),
                                                  (1e-3, 1e-4)])
def test_convergence_is_declared_only_after_a_full_solve(outer_tol,
                                                         inner_tol):
    """Replays the stop rule along each run: a step that passes it after a
    truncated solve does not stop the loop, and a converged run ends on a
    solve to inner_tol."""
    p = small_params()
    guarded = 0
    for seed in range(6):
        state = bcd.optimize(p, draw_channels(p, seed), outer_tol=outer_tol,
                             inner_tol=inner_tol).state
        trace = state.objective_trace
        assert state.status == "Converged"
        for i, rep in enumerate(state.inner_reports):
            passes = abs(trace[i + 1] - trace[i]) < outer_tol * (
                1.0 + abs(trace[i + 1]))
            full = rep.threshold <= inner_tol
            assert (passes and full) == (i == state.iterations - 1), (seed, i)
            guarded += passes and not full
        assert state.inner_reports[-1].threshold == inner_tol
    assert guarded > 0  # the rule did fire on truncated solves


@settings(max_examples=30, deadline=None, derandomize=True)
@given(m_a=st.integers(1, 3), m_b=st.integers(1, 3), m_e=st.integers(1, 3),
       n=st.integers(1, 4), kappa_db=st.floats(-50.0, 0.0),
       beta_db=st.floats(-50.0, 0.0), budget_a_db=st.floats(-30.0, 10.0),
       budget_b_db=st.floats(-30.0, 10.0), two_node=st.booleans(),
       seed=st.integers(0, 10**6))
def test_optimizer_invariants_on_random_instances(
        m_a, m_b, m_e, n, kappa_db, beta_db, budget_a_db, budget_b_db,
        two_node, seed):
    """Feasible PSD result, Hermitian to rounding, non-decreasing surrogate
    trace, and a surrogate tight at the returned design, from tiny budgets
    to 0 dB residual SI."""
    p = SystemParams.from_db(M_a=m_a, M_bt=m_b, M_br=m_b, M_e=m_e, N=n,
                             kappa_db=kappa_db, beta_db=beta_db,
                             x_max_db=budget_a_db, w_max_db=budget_b_db,
                             p_a_max_db=budget_a_db, p_b_max_db=budget_b_db)
    ch = draw_channels(p, seed)
    if two_node:
        res = bcd.optimize_bidirectional(p, ch)
        d = res.design
        blocks = [(p.P_A_max, (d.X_a, d.W_a)), (p.P_B_max, (d.X_b, d.W_b))]
    else:
        res = bcd.optimize(p, ch)
        blocks = [(p.X_max, (res.design.X,)), (p.W_max, (res.design.W,))]
    for budget, stacks in blocks:
        assert sum(linalg.real_trace(s) for s in stacks) <= budget + 1e-9
        for s in stacks:
            assert linalg.min_eigenvalue(s) >= -1e-9
            assert_hermitian_to_rounding(s)
    trace = np.array(res.state.objective_trace)
    assert np.all(np.diff(trace) >= -1e-9)
    true = system_model.unclamped_objective_nats(p, ch, res.design)
    aux = bcd.update_auxiliaries(p, ch, res.design)
    surrogate = bcd.surrogate_objective(p, ch, res.design, *aux)
    assert surrogate == pytest.approx(true, abs=1e-9)
    assert trace[-1] == pytest.approx(true, abs=1e-9)


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
    # A stack is rejected when any one subcarrier has both channels zero.
    rng = np.random.default_rng(6)
    f = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    g_gram = f.conj().swapaxes(-1, -2) @ f
    f[1] = 0.0
    bcd._spatial_beam(f, g_gram, 0.1, 0.1)
    g_gram[1] = 0.0
    with pytest.raises(DegenerateChannel):
        bcd._spatial_beam(f, g_gram, 0.1, 0.1)


def test_init_optimal_beam_budget_and_rank():
    """The beams fill both budgets with rank-1 covariances, and equal one
    single-matrix beam per subcarrier."""
    q = small_params(M_a=3, M_bt=2, M_br=2, M_e=3, N=5)
    ch = draw_channels(q, 7)
    d = bcd.init_optimal_beam(q, ch)
    gram = bcd.residual_si_gram(q, ch)
    for n in range(q.N):
        h_ae = ch.H["ae"][n]
        beams = ((d.X[n], q.X_max, bcd._spatial_beam(
                     ch.H["ab"][n], h_ae.conj().T @ h_ae,
                     q.noise["b"][n], q.noise["e"][n])),
                 (d.W[n], q.W_max, bcd._spatial_beam(
                     ch.H["be"][n], gram[n], q.noise["e"][n], q.noise["b"][n])))
        for cov, budget, beam in beams:
            ref = (budget / q.N) * beam
            assert np.abs(cov - ref).max() <= 1e-13 * np.abs(ref).max()
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
    # The whole-band draw is the per-subcarrier draw, bit for bit.
    for m_a, m_bt, n in ((1, 3, 1), (3, 2, 5), (2, 4, 32), (4, 1, 8)):
        q = small_params(M_a=m_a, M_bt=m_bt, N=n)
        d, ref = bcd.init_random(q, 11), random_design(q, 11)
        np.testing.assert_array_equal(d.X, ref.X)
        np.testing.assert_array_equal(d.W, ref.W)


# --- one-directional optimization ------------------------------------------


def test_point_to_point_capacity():
    """No leakage path, no SI: the optimum is full power on the single
    link and the rate is the closed-form capacity."""
    p = SystemParams.from_db(M_a=1, M_bt=1, M_br=1, M_e=1, N=1,
                             kappa_db=None, beta_db=None)
    ch = draw_channels(p, 6)
    h = dict(ch.H)
    h["ae"] = np.zeros((1, 1, 1), complex)
    ch = ChannelRealization(H=h)
    res = bcd.optimize(p, ch, outer_tol=1e-8, inner_tol=1e-10)
    cap = np.log2(1.0 + abs(ch.H["ab"][0, 0, 0]) ** 2 * p.X_max
                  / p.noise["b"][0])
    assert res.report.I_sum == pytest.approx(cap, abs=1e-4)


def test_optimize_monotone_trace_and_budgets():
    p = small_params()
    extrapolations = 0
    for seed in range(5):
        ch = draw_channels(p, seed)
        res = bcd.optimize(p, ch)
        trace = np.array(res.state.objective_trace)
        assert np.all(np.diff(trace) >= -1e-9)
        # At most three extrapolation steps follow each outer iteration
        # after the first.
        assert 0 <= res.state.extrapolations <= 3 * (res.state.iterations - 1)
        extrapolations += res.state.extrapolations
        total_x = sum(np.real(np.trace(x)) for x in res.design.X)
        total_w = sum(np.real(np.trace(w)) for w in res.design.W)
        assert total_x <= p.X_max + 1e-6
        assert total_w <= p.W_max + 1e-6
        for n in range(p.N):
            assert linalg.min_eigenvalue(res.design.X[n]) >= -1e-9
            assert linalg.min_eigenvalue(res.design.W[n]) >= -1e-9
    assert extrapolations > 0


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
    res = bcd.optimize_bidirectional(p, ch, init=init, free={"W_b"})
    np.testing.assert_array_equal(res.design.X, init.X)


def test_an_empty_free_set_is_rejected():
    p = small_params()
    ch = draw_channels(p, 8)
    with pytest.raises(ValueError, match="free blocks"):
        bcd.optimize_bidirectional(p, ch, init=bcd.init_uniform(p), free=())


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


@pytest.mark.parametrize("optimize_w", [False, True],
                         ids=["equal-w-optimal-x", "optimal-fd"])
def test_single_antenna_optimum_matches_the_closed_form(optimize_w):
    """At M_a = 1 the optimal information powers for a fixed jamming design
    are the water-filling solution of :mod:`fdwiretap.waterfill`.  On a grid
    fixed in advance, the water-filling objective at the optimizer's final
    W exceeds the optimizer's unclamped objective by at most 1e-7 nats,
    with W frozen at equal power (Equal-W/Optimal-X) and with W optimized
    from silence (Optimal-FD)."""
    worst = (-np.inf, None)
    for kappa_db in (-40.0, -20.0, -10.0, 0.0):
        for n in (1, 2, 4, 8):
            p = SystemParams.from_db(M_a=1, M_bt=2, M_br=2, M_e=2, N=n,
                                     kappa_db=kappa_db, beta_db=kappa_db)
            for seed in range(100, 110):
                ch = draw_channels(p, seed)
                init = bcd.init_uniform(p, with_jamming=not optimize_w)
                res = bcd.optimize(p, ch, init=init, optimize_w=optimize_w,
                                   outer_tol=1e-8, inner_tol=1e-9,
                                   max_outer=500)
                closed = waterfill.waterfill(waterfill.gains_from_system(
                    p, ch, res.design.W)).objective
                gap = closed - system_model.unclamped_objective_nats(
                    p, ch, res.design)
                worst = max(worst, (gap, (kappa_db, n, seed)))
    assert worst[0] <= 1e-7, worst


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
    res_bi = bcd.optimize_bidirectional(p, ch, init=init,
                                        free={"X_a", "W_b"}, outer_tol=1e-6)
    p_one = replace(p, X_max=p.P_A_max, W_max=p.P_B_max)
    res_one = bcd.optimize(p_one, ch, outer_tol=1e-6)
    assert len(res_bi.state.objective_trace) == len(
        res_one.state.objective_trace)
    np.testing.assert_allclose(res_bi.state.objective_trace,
                               res_one.state.objective_trace, rtol=0,
                               atol=1e-12)
    assert abs(res_bi.report.I_sum - res_one.report.I_sum) <= 1e-12
    # A one-directional design takes the same path, under its own budgets.
    res_td = bcd.optimize_bidirectional(p_one, ch,
                                        init=bcd.init_uniform(p_one),
                                        free={"X_a", "W_b"}, outer_tol=1e-6)
    assert isinstance(res_td.design, TransmitDesign)
    assert res_td.state.objective_trace == res_one.state.objective_trace
    np.testing.assert_array_equal(res_td.design.X, res_one.design.X)
    np.testing.assert_array_equal(res_td.design.W, res_one.design.W)
    assert res_td.report.I_sum == res_one.report.I_sum


def test_bidirectional_jamming_flags_respected():
    p = small_params()
    ch = draw_channels(p, 17)
    res = bcd.optimize_bidirectional(p, ch, free={"X_a", "X_b"})
    assert not np.any(res.design.W_a)
    assert not np.any(res.design.W_b)
    res2 = bcd.optimize_bidirectional(p, ch, free={"X_a", "X_b", "W_b"})
    assert not np.any(res2.design.W_a)
    assert np.any(res2.design.W_b)


def test_free_blocks_outside_the_two_node_names_are_rejected():
    p = small_params()
    ch = draw_channels(p, 17)
    with pytest.raises(ValueError, match="free blocks"):
        bcd.optimize_bidirectional(p, ch, init=bcd.init_uniform(p),
                                   free={"X", "W"})

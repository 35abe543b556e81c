import pickle
from dataclasses import replace

import numpy as np
import pytest

from fdwiretap import bcd, harness, linalg, system_model
from fdwiretap.channel import (ChannelRealization, SystemParams, draw_channels,
                               perturb_csi)
from fdwiretap.errors import DimensionMismatch
from fdwiretap.system_model import (BidirectionalDesign, ReceiveDistortion,
                                    TraceCorrelation, TransmitDesign,
                                    TransmitDistortion, interference,
                                    secrecy_rates, sigma_eve,
                                    sigma_node_bidirectional, signal)
from test_linalg import is_hermitian


def small_params(**kw):
    base = dict(M_a=2, M_bt=2, M_br=2, M_e=2, N=2,
                kappa_db=-30.0, beta_db=-30.0)
    base.update(kw)
    return SystemParams.from_db(**base)


def sigma_bob(p, ch, d, n):
    return sigma_node_bidirectional(p, ch, d, "b")[n]


def random_design(params, seed, x_frac=1.0, w_frac=1.0):
    rng = np.random.default_rng(seed)

    def cov(dim, trace):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        v = g @ g.conj().T
        return v * (trace / np.real(np.trace(v)))

    d = TransmitDesign.zeros(params)
    for n in range(params.N):
        d.X[n] = cov(params.M_a, x_frac * params.X_max / params.N)
        d.W[n] = cov(params.M_bt, w_frac * params.W_max / params.N)
    return d


def test_sigma_node_is_only_for_the_two_nodes():
    p = small_params()
    with pytest.raises(ValueError, match="node must be 'a' or 'b'"):
        sigma_node_bidirectional(p, draw_channels(p, 0),
                                 TransmitDesign.zeros(p), "e")


def test_sigma_bob_no_jamming_is_noise():
    p = small_params()
    ch = draw_channels(p, 0)
    d = TransmitDesign.zeros(p)
    for n in range(p.N):
        np.testing.assert_allclose(sigma_bob(p, ch, d, n),
                                   p.noise["b"][n] * np.eye(p.M_br), atol=1e-15)


def test_sigma_bob_perfect_cancellation():
    p = small_params(kappa_db=None, beta_db=None)
    ch = draw_channels(p, 0)
    d = random_design(p, 1)
    for n in range(p.N):
        np.testing.assert_allclose(sigma_bob(p, ch, d, n),
                                   p.noise["b"][n] * np.eye(p.M_br), atol=1e-15)


def test_sigma_bob_independent_of_w_when_cancelled():
    p = small_params(kappa_db=None, beta_db=None)
    ch = draw_channels(p, 0)
    d1 = random_design(p, 1)
    d2 = random_design(p, 2)
    for n in range(p.N):
        np.testing.assert_array_equal(sigma_bob(p, ch, d1, n),
                                      sigma_bob(p, ch, d2, n))


def test_sigma_bob_scalar_hand_expansion():
    """M_bt = M_br = 1, N = 1: everything collapses to scalars."""
    p = SystemParams.from_db(M_a=1, M_bt=1, M_br=1, M_e=1, N=1,
                             kappa_db=-10.0, beta_db=-13.0)
    ch = draw_channels(p, 3)
    d = TransmitDesign.zeros(p)
    w = 0.37
    d.W[0, 0, 0] = w
    h = complex(ch.H["bb"][0, 0, 0])
    expected = (p.noise["b"][0] + p.kappa["b"][0] * abs(h) ** 2 * w
                + p.beta["b"][0] * abs(h) ** 2 * w)
    got = sigma_bob(p, ch, d, 0)
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(expected, abs=1e-12)


def test_sigma_bob_couples_subcarriers():
    # jamming on subcarrier 0 must raise the floor on subcarrier 1
    p = small_params(kappa_db=-20.0, beta_db=-20.0)
    ch = draw_channels(p, 4)
    d = TransmitDesign.zeros(p)
    d.W[0] = np.eye(p.M_bt) * 0.25
    base = p.noise["b"][1] * np.eye(p.M_br)
    raised = sigma_bob(p, ch, d, 1)
    assert linalg.real_trace(raised) > linalg.real_trace(base)


def test_sigma_eve_no_jamming():
    p = small_params()
    ch = draw_channels(p, 0)
    d = TransmitDesign.zeros(p)
    np.testing.assert_allclose(sigma_eve(p, ch, d)[0],
                               p.noise["e"][0] * np.eye(p.M_e), atol=1e-15)


def test_sigma_eve_rank_one_direct_product():
    p = SystemParams.from_db(M_a=2, M_bt=2, M_br=2, M_e=2, N=1,
                             noise_db=0.0)
    ch = draw_channels(p, 0)
    v = np.array([1.0, 1j]) / np.sqrt(2.0)
    d = TransmitDesign.zeros(p)
    d.W[0] = np.outer(v, v.conj())
    hbe = ch.H["be"][0]
    expected = np.eye(2) + hbe @ np.outer(v, v.conj()) @ hbe.conj().T
    np.testing.assert_allclose(sigma_eve(p, ch, d)[0], expected, atol=1e-12)


def test_secrecy_zero_design_is_zero():
    p = small_params()
    ch = draw_channels(p, 0)
    rep = secrecy_rates(p, ch, TransmitDesign.zeros(p))
    assert rep.I_sum == 0.0
    assert np.all(rep.I_sec == 0.0)


@pytest.mark.parametrize("block", ["X_a", "W_a", "X_b", "W_b"])
def test_a_misshaped_block_is_rejected(block):
    """A block with one subcarrier of two is an error naming the block, not
    a stack broadcast over the band."""
    p = small_params()
    d = BidirectionalDesign.zeros(p)
    setattr(d, block, getattr(d, block)[:1])
    with pytest.raises(DimensionMismatch, match=block):
        secrecy_rates(p, draw_channels(p, 0), d)


def test_two_node_validate_checks_each_node():
    """The feasibility check written once from the layout serves the
    two-node type: node budgets, PSD blocks and shapes; absent blocks are
    skipped."""
    p = small_params(p_a_max_db=3.0)
    d = bcd.init_uniform_bidirectional(p)
    d.validate(p)
    over = d.copy()
    over.W_a[0] = 0.01 * np.eye(2)  # Alice already spends P_A_max on X_a
    with pytest.raises(ValueError, match="node a power .* exceeds its budget"):
        over.validate(p)
    over.validate(p, budget_tol=0.1)
    indefinite = d.copy()
    indefinite.W_b[1] = np.diag([0.0, -1e-6]).astype(complex)
    with pytest.raises(ValueError, match="W_b is not PSD"):
        indefinite.validate(p)
    indefinite.validate(p, psd_tol=1e-5)
    misshaped = d.copy()
    misshaped.X_b = misshaped.X_b[:1]
    with pytest.raises(DimensionMismatch, match="X_b"):
        misshaped.validate(p)
    absent = BidirectionalDesign(X_a=d.X_a, W_a=None, X_b=None, W_b=d.W_b)
    absent.validate(p)
    copied = absent.copy()
    assert copied.W_a is None and copied.X_b is None
    assert copied.X_a is not d.X_a
    np.testing.assert_array_equal(copied.X_a, d.X_a)


@pytest.mark.parametrize("block", ["X_b", "W_a", "X"])
def test_a_uniform_block_the_design_lacks_is_a_value_error(block):
    """A one-directional design has only X_a and W_b of the two-node
    blocks, so a uniform start that names another block is refused with
    the block and the design type named."""
    with pytest.raises(ValueError, match=f"TransmitDesign has no block "
                                         f"'{block}'"):
        TransmitDesign.uniform(small_params(), ("X_a", block))


def test_a_uniform_start_splits_a_node_budget_among_its_named_blocks():
    """Two named blocks of one node share its budget: each is
    P_B_max/(2 N M) I on every subcarrier, so the start passes validate."""
    p = small_params()
    d = BidirectionalDesign.uniform(p, ("X_b", "W_b"))
    share = p.P_B_max / (2 * p.N * p.M_bt) * np.eye(p.M_bt)
    for block in ("X_b", "W_b"):
        np.testing.assert_array_equal(
            getattr(d, block), np.broadcast_to(share, d.X_b.shape))
    assert not np.any(d.X_a) and not np.any(d.W_a)
    d.validate(p)


@pytest.mark.parametrize("where", [np.s_[0], np.s_[0, 1, 1]],
                         ids=["matrix", "diagonal-entry"])
@pytest.mark.parametrize("make, block", [
    (bcd.init_uniform, "X"), (bcd.init_uniform_bidirectional, "W_b")])
def test_validate_rejects_a_nan_block(make, block, where):
    """A NaN fails the PSD test and the budget test, so no NaN block
    passes: a matrix of NaNs has NaN eigenvalues, and one NaN on a
    diagonal, whose eigenvalues can come out finite, has a NaN trace."""
    p = small_params()
    d = make(p)
    getattr(d, block)[where] = np.nan
    with pytest.raises(ValueError):
        d.validate(p)


def test_secrecy_scalar_leakage_free():
    """h_ab = 1, h_ae = 0, X = 1, N_b = 1 gives exactly one bit."""
    p = SystemParams.from_db(M_a=1, M_bt=1, M_br=1, M_e=1, N=1,
                             noise_db=0.0, eta_db=0.0)
    ch = draw_channels(p, 0)
    h = dict(ch.H)
    h["ab"] = np.ones((1, 1, 1), complex)
    h["ae"] = np.zeros((1, 1, 1), complex)
    ch = ChannelRealization(H=h)
    d = TransmitDesign.zeros(p)
    d.X[0, 0, 0] = 1.0
    rep = secrecy_rates(p, ch, d)
    assert rep.I_sum == pytest.approx(1.0, abs=1e-12)


def independent_secrecy_eval(p, ch, d):
    """Straight-line reimplementation of the rate equations for testing.

    Covariances assembled entrywise from the definitions, capacity from
    log2 det of the full (signal + interference) over interference ratio
    computed with numpy's det on small matrices.
    """
    total = 0.0
    per = []
    for n in range(p.N):
        sb = p.noise["b"][n] * np.eye(p.M_br, dtype=complex)
        sb = sb + np.trace(d.W[n]) * p.D_corr["b"]
        hn = ch.H["bb"][n]
        inner = np.zeros((p.M_bt, p.M_bt), complex)
        for m in range(p.N):
            inner += p.kappa["b"][n] * np.diag(np.diag(d.W[m]))
        sb = sb + hn @ inner @ hn.conj().T
        diag_acc = np.zeros((p.M_br, p.M_br), complex)
        for m in range(p.N):
            hm = ch.H["bb"][m]
            diag_acc += np.diag(np.diag(hm @ d.W[m] @ hm.conj().T))
        sb = sb + p.beta["b"][n] * diag_acc
        se = p.noise["e"][n] * np.eye(p.M_e, dtype=complex)
        hbe = ch.H["be"][n]
        se = se + hbe @ d.W[n] @ hbe.conj().T
        hab = ch.H["ab"][n]
        hae = ch.H["ae"][n]
        i_ab = np.log2(np.real(
            np.linalg.det(sb + hab @ d.X[n] @ hab.conj().T)
            / np.linalg.det(sb)))
        i_ae = np.log2(np.real(
            np.linalg.det(se + hae @ d.X[n] @ hae.conj().T)
            / np.linalg.det(se)))
        per.append(max(i_ab - i_ae, 0.0))
        total += per[-1]
    return total, np.array(per)


def test_secrecy_matches_independent_evaluator():
    p = small_params()
    for seed in range(5):
        ch = draw_channels(p, seed)
        d = random_design(p, seed + 100)
        rep = secrecy_rates(p, ch, d)
        total, per = independent_secrecy_eval(p, ch, d)
        np.testing.assert_allclose(rep.I_sec, per, atol=1e-10)
        assert rep.I_sum == pytest.approx(total, abs=1e-10)


def test_rates_monotone_in_eve_noise():
    p = small_params()
    ch = draw_channels(p, 9)
    d = random_design(p, 9)
    prev = None
    for noise_e in (1e-4, 1e-3, 1e-2, 1e-1):
        pn = replace(p, noise={"a": p.noise["a"], "b": p.noise["b"],
                               "e": noise_e})
        rep = secrecy_rates(pn, ch, d)
        if prev is not None:
            assert np.all(rep.I_ae <= prev + 1e-12)
        prev = rep.I_ae


def test_covariances_hermitian_psd():
    p = small_params(kappa_db=-10.0, beta_db=-10.0)
    ch = draw_channels(p, 12)
    d = random_design(p, 12)
    for n in range(p.N):
        for mat in (sigma_bob(p, ch, d, n), sigma_eve(p, ch, d)[n]):
            assert is_hermitian(mat)
            assert linalg.min_eigenvalue(mat) >= -1e-9


def test_report_clamp_invariants():
    p = small_params()
    for seed in range(4):
        ch = draw_channels(p, seed)
        rep = secrecy_rates(p, ch, random_design(p, seed))
        assert np.all(rep.I_sec >= 0.0)
        assert rep.I_sum >= 0.0
        np.testing.assert_allclose(rep.I_sec,
                                   np.maximum(rep.I_ab - rep.I_ae, 0.0),
                                   atol=0.0)
        assert rep.I_sum == pytest.approx(float(rep.I_sec.sum()))


# --- bidirectional ---------------------------------------------------------


def test_sigma_node_trivial_noise_only():
    p = small_params(kappa_db=None, beta_db=None)
    ch = draw_channels(p, 0)
    d = BidirectionalDesign.zeros(p)
    for node in ("a", "b"):
        out = sigma_node_bidirectional(p, ch, d, node)[0]
        np.testing.assert_allclose(out, p.noise[node][0] * np.eye(p.M_br),
                                   atol=1e-15)


def test_sigma_node_reduces_to_sigma_bob_when_alice_silent():
    """With Alice silent the Bob-side covariance must equal the
    one-directional sigma_bob once Bob's information signal is folded
    into the jamming slot (the SI terms act on X_b + W_b)."""
    p = small_params(kappa_db=-15.0, beta_db=-15.0)
    ch = draw_channels(p, 21)
    bi = BidirectionalDesign.zeros(p)
    rng = np.random.default_rng(0)
    for n in range(p.N):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        bi.X_b[n] = 0.1 * g @ g.conj().T
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        bi.W_b[n] = 0.1 * g @ g.conj().T
    folded = TransmitDesign.zeros(p)
    folded.W[:] = bi.X_b + bi.W_b
    for n in range(p.N):
        np.testing.assert_allclose(
            sigma_node_bidirectional(p, ch, bi, "b")[n],
            sigma_bob(p, ch, folded, n), atol=1e-13)


def test_sigma_node_scalar_expansion():
    p = SystemParams.from_db(M_a=1, M_bt=1, M_br=1, M_e=1, N=1,
                             kappa_db=-10.0, beta_db=-12.0)
    ch = draw_channels(p, 2)
    d = BidirectionalDesign.zeros(p)
    d.X_b[0, 0, 0] = 0.2
    d.W_b[0, 0, 0] = 0.3
    d.W_a[0, 0, 0] = 0.15
    h_si = abs(complex(ch.H["bb"][0, 0, 0])) ** 2
    h_cross = abs(complex(ch.H["ab"][0, 0, 0])) ** 2
    own = 0.5
    expected = (p.noise["b"][0] + h_cross * 0.15
                + (p.kappa["b"][0] + p.beta["b"][0]) * h_si * own)
    got = sigma_node_bidirectional(p, ch, d, "b")[0]
    assert got[0, 0] == pytest.approx(expected, abs=1e-12)


def test_covariance_stacks_match_per_subcarrier_loop():
    """The band operators against the covariance written out subcarrier by
    subcarrier, with a different kappa and beta on each subcarrier, a
    nonzero CSI-error correlation and every block of both nodes."""
    rng = np.random.default_rng(7)
    p = SystemParams.from_db(M_a=2, M_bt=3, M_br=2, M_e=2, N=3, M_ar=3)
    d_corr = {}
    for node, dim in (("a", 3), ("b", 2)):
        g = rng.standard_normal((dim, dim)) \
            + 1j * rng.standard_normal((dim, dim))
        d_corr[node] = 0.01 * g @ g.conj().T
    p = replace(p, kappa={"a": [0.02, 0.005, 0.01], "b": [0.003, 0.03, 0.0]},
                beta={"a": [0.001, 0.02, 0.007], "b": [0.04, 0.0, 0.01]},
                D_corr=d_corr)
    ch = draw_channels(p, 8)
    d = BidirectionalDesign.zeros(p)
    for stack in (d.X_a, d.W_a, d.X_b, d.W_b):
        for n in range(p.N):
            g = rng.standard_normal(stack.shape[1:]) \
                + 1j * rng.standard_normal(stack.shape[1:])
            stack[n] = 0.1 * g @ g.conj().T
    for node, partner, dim in (("a", "b", p.M_ar), ("b", "a", p.M_br)):
        own = getattr(d, f"X_{node}") + getattr(d, f"W_{node}")
        si = ch.H[node + node]
        got = sigma_node_bidirectional(p, ch, d, node)
        for n in range(p.N):
            h = ch.H[partner + node][n]
            want = (p.noise[node][n] * np.eye(dim)
                    + h @ getattr(d, f"W_{partner}")[n] @ h.conj().T)
            want = want + np.trace(own[n]).real * p.D_corr[node]
            band = sum(np.diag(np.diag(own[m])) for m in range(p.N))
            want = want + p.kappa[node][n] * si[n] @ band @ si[n].conj().T
            rx_band = sum(np.diag(np.diag(si[m] @ own[m] @ si[m].conj().T))
                          for m in range(p.N))
            want = want + p.beta[node][n] * rx_band
            np.testing.assert_allclose(got[n], want, rtol=1e-12, atol=1e-15)
    got = sigma_eve(p, ch, d)
    for n in range(p.N):
        want = p.noise["e"][n] * np.eye(p.M_e)
        for node in ("a", "b"):
            h = ch.H[node + "e"][n]
            want = want + h @ getattr(d, f"W_{node}")[n] @ h.conj().T
        np.testing.assert_allclose(got[n], want, rtol=1e-12, atol=1e-15)


def test_sigma_eve_bidirectional_both_zero():
    p = small_params()
    ch = draw_channels(p, 0)
    d = BidirectionalDesign.zeros(p)
    out = sigma_eve(p, ch, d)[0]
    np.testing.assert_allclose(out, p.noise["e"][0] * np.eye(p.M_e),
                               atol=1e-15)


def test_bidirectional_report_structure():
    p = small_params()
    ch = draw_channels(p, 30)
    d = BidirectionalDesign.zeros(p)
    rng = np.random.default_rng(1)
    for n in range(p.N):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        d.X_a[n] = 0.2 * g @ g.conj().T
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        d.X_b[n] = 0.2 * g @ g.conj().T
    rep = secrecy_rates(p, ch, d)
    assert rep.I_ba is not None and rep.I_be is not None
    expect = (np.maximum(rep.I_ab - rep.I_ae, 0.0)
              + np.maximum(rep.I_ba - rep.I_be, 0.0))
    np.testing.assert_allclose(rep.I_sec, expect, atol=0.0)
    assert rep.I_sum >= 0.0


def test_cached_operators_never_cross_inputs():
    """The operators are built once per (params, channel), and the noise
    floors once per (params, receiver): a channel, its CSI-perturbed copy
    and the half-duplex form of the params each get their own, so every
    report equals one computed from empty caches."""
    p = small_params(kappa_db=-20.0, beta_db=-20.0)
    ch = draw_channels(p, 31)
    rng = np.random.default_rng(31)
    d = BidirectionalDesign.zeros(p)
    for stack in (d.X_a, d.W_a, d.X_b, d.W_b):
        for n in range(p.N):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            stack[n] = 0.1 * g @ g.conj().T
    one_way = random_design(p, 32)
    cases = [(p, ch), (p, perturb_csi(ch, 0.1, 33)),
             (harness._half_duplex(p), ch)]
    for design in (d, one_way):
        warm = [secrecy_rates(q, c, design) for q, c in cases]
        legit = [float(rep.I_ab.sum()) for rep in warm]
        assert len(set(legit)) == len(legit)
        for (q, c), rep in zip(cases, warm):
            system_model._operators.cache_clear()
            system_model._noise_floor.cache_clear()
            cold = secrecy_rates(q, c, design)
            for rates in ("I_ab", "I_ae", "I_ba", "I_be", "I_sec"):
                got, want = getattr(rep, rates), getattr(cold, rates)
                assert (got is None) == (want is None)
                if got is not None:
                    np.testing.assert_array_equal(got, want)
            assert rep.I_sum == cold.I_sum


def test_one_operator_table_serves_every_design():
    """A one-directional design, a two-node one and the optimizer's view
    with absent blocks share one table per (params, channel), and one
    congruence object per link."""
    p = small_params()
    ch = draw_channels(p, 34)
    two_node = BidirectionalDesign.zeros(p)
    view = two_node.sent({"X_a"})
    assert view.W_a is None and view.X_b is None and view.W_b is None
    system_model._operators.cache_clear()
    for design in (random_design(p, 35), two_node, view):
        secrecy_rates(p, ch, design)
        for rx in ("a", "b", "e"):
            interference(p, ch, design, rx)
    info = system_model._operators.cache_info()
    assert (info.misses, info.currsize) == (1, 1) and info.hits > 0
    at_bob = dict(interference(p, ch, two_node, "b"))
    at_eve = dict(interference(p, ch, two_node, "e"))
    assert at_bob["W_a"] is signal(p, ch, "a", "b")[1]
    assert at_eve["W_b"] is signal(p, ch, "b", "e")[1]


def test_interference_names_only_present_blocks_in_order():
    """Partner jamming comes first, then the own blocks X and W for each
    SI operator in turn; Eve sees W_a, then W_b.  Absent blocks and
    all-zero operators are left out."""
    p = small_params(D_corr={"a": np.eye(2), "b": np.eye(2)})
    ch = draw_channels(p, 36)
    si = (TraceCorrelation, TransmitDistortion, ReceiveDistortion)
    both = BidirectionalDesign.zeros(p)
    one_way = random_design(p, 37)

    def named(design, rx, q=p):
        return [(b, type(op)) for b, op in interference(q, ch, design, rx)]

    assert named(both, "b")[0][0] == "W_a"
    assert named(both, "b")[1:] == [(b, op) for op in si
                                    for b in ("X_b", "W_b")]
    assert named(both, "a")[1:] == [(b, op) for op in si
                                    for b in ("X_a", "W_a")]
    assert [b for b, _ in named(both, "e")] == ["W_a", "W_b"]
    assert named(one_way, "b") == [("W_b", op) for op in si]
    assert named(one_way, "a")[1:] == [("X_a", op) for op in si]
    assert [b for b, _ in named(one_way, "e")] == ["W_b"]
    no_kappa = replace(p, kappa={"a": 0.0, "b": 0.0})
    assert named(one_way, "b", no_kappa) == [
        ("W_b", TraceCorrelation), ("W_b", ReceiveDistortion)]


def test_params_and_channel_arrays_are_read_only():
    """An in-place write into a stored array raises, where it used to
    leave the cached operators stale, and so does one into a cached noise
    floor; inputs are copied, not frozen, and both types still pickle."""
    p = small_params()
    ch = draw_channels(p, 38)
    d = random_design(p, 39)
    secrecy_rates(p, ch, d)
    with pytest.raises(ValueError):
        ch.H["ab"][...] *= 2
    floor = sigma_eve(p, ch, BidirectionalDesign(X_a=d.X, W_a=None,
                                                 X_b=None, W_b=None))
    with pytest.raises(ValueError):
        floor[...] = 0.0
    for field_name in ("noise", "kappa", "beta", "D_corr"):
        with pytest.raises(ValueError):
            getattr(p, field_name)["b"][...] = 0.1
    assert secrecy_rates(p, ch, d).I_sum == secrecy_rates(
        small_params(), ChannelRealization(H=dict(ch.H)), d).I_sum
    noise = np.full(p.N, 1e-3)
    h = np.array(ch.H["ab"])
    q = replace(p, noise={"a": noise, "b": noise, "e": noise})
    c = ChannelRealization(H={**ch.H, "ab": h})
    noise[0] = h[0, 0, 0] = 2.0
    assert q.noise["a"][0] == 1e-3 and c.H["ab"][0, 0, 0] != 2.0
    q_copy, c_copy = pickle.loads(pickle.dumps((q, c)))
    assert q_copy.noise["a"][0] == 1e-3
    np.testing.assert_array_equal(c_copy.H["ab"], c.H["ab"])


def test_params_and_channel_mappings_cannot_be_rebound():
    """Rebinding an entry of a stored mapping raises, where it used to
    leave the cached operators stale: after one evaluation,
    ``ch.H["ab"] = 2 * ch.H["ab"]`` still gave the old channel's I_sum,
    1.230, where a fresh channel with the doubled link gives 5.699.  A
    pickled channel is read-only too."""
    p = small_params()
    ch = draw_channels(p, 0)
    d = bcd.init_uniform(p, with_jamming=True)
    assert secrecy_rates(p, ch, d).I_sum == pytest.approx(1.230, abs=1e-3)
    with pytest.raises(TypeError):
        ch.H["ab"] = 2 * ch.H["ab"]
    for name in ("eta", "noise", "kappa", "beta", "D_corr"):
        mapping = getattr(p, name)
        key = next(iter(mapping))
        with pytest.raises(TypeError):
            mapping[key] = 2 * mapping[key]
    assert secrecy_rates(p, ch, d).I_sum == pytest.approx(1.230, abs=1e-3)
    copy = pickle.loads(pickle.dumps(ch))
    with pytest.raises(TypeError):
        copy.H["ab"] = 2 * copy.H["ab"]
    assert not copy.H["ab"].flags.writeable

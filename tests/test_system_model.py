import numpy as np
import pytest

from fdwiretap import linalg
from fdwiretap.channel import ChannelRealization, SystemParams, draw_channels
from fdwiretap.system_model import (BidirectionalDesign, TransmitDesign,
                                    secrecy_rates, sigma_eve,
                                    sigma_node_bidirectional)
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


def test_secrecy_scalar_leakage_free():
    """h_ab = 1, h_ae = 0, X = 1, N_b = 1 gives exactly one bit."""
    p = SystemParams.from_db(M_a=1, M_bt=1, M_br=1, M_e=1, N=1,
                             noise_db=0.0, eta_db=0.0)
    ch = draw_channels(p, 0)
    h = dict(ch.H)
    h["ab"] = np.ones((1, 1, 1), complex)
    h["ae"] = np.zeros((1, 1, 1), complex)
    ch = ChannelRealization(H=h, seed=ch.seed)
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
        pn = p.with_updates(noise={"a": p.noise["a"], "b": p.noise["b"],
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
    p = p.with_updates(
        kappa={"a": [0.02, 0.005, 0.01], "b": [0.003, 0.03, 0.0]},
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

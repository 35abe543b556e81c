import numpy as np
import pytest

from fdwiretap.channel import (SystemParams, db2lin, draw_channels, lin2db,
                               link_shape, perturb_csi, trial_seed)
from fdwiretap.errors import ConfigError


def small_params(**kw):
    base = dict(M_a=2, M_bt=2, M_br=2, M_e=2, N=2)
    base.update(kw)
    return SystemParams.from_db(**base)


def test_db_conversion():
    assert db2lin(0.0) == pytest.approx(1.0)
    assert db2lin(-30.0) == pytest.approx(1e-3)
    assert lin2db(db2lin(-12.7)) == pytest.approx(-12.7)


def test_default_setup_values():
    p = SystemParams.from_db(kappa_db=-30.0, beta_db=-30.0)
    assert p.M_a == p.M_bt == p.M_br == p.M_e == 4
    assert p.N == 4 and p.K_R == 10.0
    assert p.X_max == pytest.approx(1.0)
    assert p.eta["ab"] == pytest.approx(1e-2)
    assert p.noise["b"][0] == pytest.approx(1e-3)
    assert p.kappa["b"][0] == pytest.approx(1e-3)


def test_invalid_params_rejected():
    with pytest.raises(ConfigError):
        small_params(N=0)
    with pytest.raises(ConfigError):
        small_params(x_max_db=0.0).with_updates(X_max=-1.0)


def test_antenna_counts_are_positive_integers():
    """An integral float count is stored as an int; a fractional, infinite
    or non-numeric one is rejected, never truncated."""
    p = small_params(M_e=3.0).with_updates(M_bt=2.0)
    assert (p.M_e, p.M_bt) == (3, 2)
    assert type(p.M_e) is type(p.M_bt) is int
    for bad in (2.9, 0, -1.0, float("inf"), float("nan"), "2"):
        with pytest.raises(ConfigError, match="M_e"):
            small_params(M_e=bad)


def test_alice_transmit_count_has_one_value():
    """M_at is another name for M_a; from_db's default M_a is no conflict,
    an explicit different M_a is."""
    assert SystemParams.from_db(M_at=3, M_ar=2).M_a == 3
    assert SystemParams.from_db(M_a=3, M_at=3).M_a == 3
    assert not hasattr(SystemParams.from_db(), "M_at")
    with pytest.raises(ConfigError):
        SystemParams.from_db(M_a=2, M_at=3)


def test_channel_shapes():
    p = SystemParams.from_db(M_a=2, M_bt=3, M_br=4, M_e=5, N=3)
    ch = draw_channels(p, 0)
    for name in ("ab", "ae", "bb", "be", "ba", "aa"):
        assert ch.H[name].shape == (3,) + link_shape(p, name)


def test_determinism():
    p = small_params()
    a = draw_channels(p, 42)
    b = draw_channels(p, 42)
    for name in a.H:
        np.testing.assert_array_equal(a.H[name], b.H[name])
    c = draw_channels(p, 43)
    assert not np.array_equal(a.H["ab"], c.H["ab"])


def test_rician_mean_dominates_at_large_k():
    p = small_params(K_R=1e12)
    ch = draw_channels(p, 0)
    assert np.max(np.abs(ch.H["bb"] - 1.0)) < 1e-5


def test_rayleigh_variance_moment():
    # eta_ab = -20 dB = 0.01; over 1e5 elements the sample variance
    # should land within 5%
    p = SystemParams.from_db(M_a=10, M_bt=2, M_br=10, M_e=2, N=100,
                             eta_db=-20.0)
    ch = draw_channels(p, 7)
    h = ch.H["ab"].ravel()
    assert h.size == 10000
    var = float(np.mean(np.abs(h) ** 2))
    assert abs(var - 0.01) / 0.01 < 0.05
    assert abs(np.mean(h.real)) < 0.005 and abs(np.mean(h.imag)) < 0.005


def test_rician_mean_moment():
    p = SystemParams.from_db(M_a=2, M_bt=10, M_br=10, M_e=2, N=100, K_R=10.0)
    ch = draw_channels(p, 11)
    target = np.sqrt(10.0 / 11.0)
    sample = float(np.mean(ch.H["bb"].real))
    assert abs(sample - target) / target < 0.02
    fluct_var = float(np.mean(np.abs(ch.H["bb"] - target) ** 2))
    assert abs(fluct_var - 1.0 / 11.0) / (1.0 / 11.0) < 0.05


def test_subcarriers_uncorrelated():
    p = SystemParams.from_db(M_a=2, M_bt=2, M_br=2, M_e=2, N=2)
    draws = [draw_channels(p, trial_seed(123, t)) for t in range(10000)]
    a = np.array([d.H["ab"][0].ravel() for d in draws])
    b = np.array([d.H["ab"][1].ravel() for d in draws])
    for i in range(a.shape[1]):
        num = np.mean(a[:, i] * np.conj(b[:, i]))
        den = np.sqrt(np.mean(np.abs(a[:, i]) ** 2) * np.mean(np.abs(b[:, i]) ** 2))
        assert abs(num) / den < 0.05


def test_perturb_csi_zero_error_is_identity():
    p = small_params()
    ch = draw_channels(p, 0)
    out = perturb_csi(ch, 0.0, 99)
    for name in ch.H:
        np.testing.assert_array_equal(out.H[name], ch.H[name])


def test_perturb_csi_leaves_si_channels_alone():
    p = small_params()
    ch = draw_channels(p, 0)
    out = perturb_csi(ch, 0.1, 99)
    np.testing.assert_array_equal(out.H["bb"], ch.H["bb"])
    np.testing.assert_array_equal(out.H["aa"], ch.H["aa"])
    assert not np.array_equal(out.H["ab"], ch.H["ab"])
    assert not np.array_equal(out.H["ae"], ch.H["ae"])
    assert not np.array_equal(out.H["be"], ch.H["be"])
    assert not np.array_equal(out.H["ba"], ch.H["ba"])


def test_perturb_csi_moment():
    p = SystemParams.from_db(M_a=10, M_bt=2, M_br=10, M_e=2, N=100)
    ch = draw_channels(p, 5)
    out = perturb_csi(ch, 0.01, 6)
    err = (out.H["ab"] - ch.H["ab"]).ravel()
    var = float(np.mean(np.abs(err) ** 2))
    assert abs(var - 0.01) / 0.01 < 0.05


def test_perturb_csi_seed_dependence():
    p = small_params()
    ch = draw_channels(p, 0)
    a = perturb_csi(ch, 0.01, 1)
    b = perturb_csi(ch, 0.01, 2)
    assert not np.array_equal(a.H["ab"], b.H["ab"])
    np.testing.assert_array_equal(a.H["bb"], b.H["bb"])


def test_trial_seed_derivation():
    s1 = trial_seed(0, 0)
    s2 = trial_seed(0, 1)
    s3 = trial_seed(1, 0)
    assert len({s1, s2, s3}) == 3
    assert trial_seed(0, 0) == s1
    assert trial_seed(0, 0, stream=1) != s1

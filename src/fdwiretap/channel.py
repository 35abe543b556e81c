"""System parameters and seeded random channel generation.

All quantities are stored in linear scale; dB-valued configuration inputs
are converted once at construction time (linear = 10^(dB/10)).  A complex
Gaussian entry with variance v has real and imaginary parts each N(0, v/2).
"""

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError

#: Links drawn as uncorrelated Rayleigh fading, and perturbed in the
#: CSI-error study.
RAYLEIGH_LINKS = ("ab", "ae", "be", "ba")
#: Self-interference links drawn with a Rician line-of-sight component; the
#: optimizer is assumed to know them exactly.
SI_LINKS = ("bb", "aa")


def db2lin(db: float) -> float:
    """Convert a dB power value to linear scale."""
    return float(10.0 ** (db / 10.0))


def lin2db(lin: float) -> float:
    return float(10.0 * np.log10(lin))


def _per_subcarrier(value, n: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        arr = np.full(n, float(arr[0]))
    if arr.shape != (n,):
        raise ConfigError(f"{name}: expected scalar or length-{n} sequence")
    return arr


@dataclass(frozen=True, eq=False)
class SystemParams:
    """Antenna counts, noise/distortion coefficients and power budgets.

    ``M_a`` counts Alice's transmit antennas and ``M_ar`` (default ``M_a``)
    her receive antennas; Bob has ``M_bt`` and ``M_br``.  A count given as
    an integral float is stored as an int; a fractional one is an error.
    Per-subcarrier fields (noise, kappa, beta) are length-N arrays; scalar
    inputs are broadcast.  ``kappa``/``beta`` and the CSI-error correlation
    matrices ``D_corr`` may be zero, everything else must be positive.
    """

    M_a: int
    M_bt: int
    M_br: int
    M_e: int
    N: int
    K_R: float = 10.0
    eta: dict = field(default_factory=dict)       # link -> variance, linear
    noise: dict = field(default_factory=dict)     # node -> (N,) array, linear
    kappa: dict = field(default_factory=dict)     # node -> (N,) array
    beta: dict = field(default_factory=dict)      # node -> (N,) array
    D_corr: dict = field(default_factory=dict)    # node -> (M_xr, M_xr) array
    X_max: float = 1.0
    W_max: float = 1.0
    P_A_max: float = 1.0
    P_B_max: float = 1.0
    M_ar: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "M_ar", self.M_ar or self.M_a)
        for name in ("M_a", "M_bt", "M_br", "M_e", "N", "M_ar"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real)
                    and float(value).is_integer() and value >= 1):
                raise ConfigError(f"{name} must be a positive integer, "
                                  f"not {value!r}")
            object.__setattr__(self, name, int(value))
        eta = dict(self.eta)
        for link in RAYLEIGH_LINKS:
            eta.setdefault(link, 0.01)
            if eta[link] <= 0:
                raise ConfigError(f"eta[{link}] must be > 0")
        object.__setattr__(self, "eta", eta)
        noise = {node: _per_subcarrier(self.noise.get(node, 0.001), self.N,
                                       f"noise[{node}]")
                 for node in ("a", "b", "e")}
        if any((noise[node] <= 0).any() for node in noise):
            raise ConfigError("noise powers must be > 0")
        object.__setattr__(self, "noise", noise)
        for name in ("kappa", "beta"):
            coeffs = {node: _per_subcarrier(getattr(self, name).get(node, 0.0),
                                            self.N, f"{name}[{node}]")
                      for node in ("a", "b")}
            if any((coeffs[node] < 0).any() for node in coeffs):
                raise ConfigError(f"{name} coefficients must be >= 0")
            object.__setattr__(self, name, coeffs)
        d_corr = dict(self.D_corr)
        for node, dim in (("a", self.M_ar), ("b", self.M_br)):
            mat = np.asarray(d_corr.get(node,
                                        np.zeros((dim, dim))), dtype=complex)
            if mat.shape != (dim, dim):
                raise ConfigError(f"D_corr[{node}] must be {dim}x{dim}")
            d_corr[node] = mat
        object.__setattr__(self, "D_corr", d_corr)
        for name in ("X_max", "W_max", "P_A_max", "P_B_max"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        if self.K_R < 0:
            raise ConfigError("K_R must be >= 0")

    @classmethod
    def from_db(cls, *, M_a=None, M_bt=4, M_br=4, M_e=4, N=4, K_R=10.0,
                eta_db=-20.0, noise_db=-30.0, kappa_db=None, beta_db=None,
                x_max_db=0.0, w_max_db=0.0, p_a_max_db=0.0, p_b_max_db=0.0,
                M_at=None, M_ar=None, D_corr=None) -> "SystemParams":
        """Build params from dB-valued powers, matching the default setup:
        4 antennas everywhere, 4 subcarriers, K_R = 10, -20 dB pathloss,
        -30 dB noise and distortion, 0 dB budgets.

        ``M_at`` is another name for Alice's transmit antenna count ``M_a``;
        giving both with different values is a ConfigError.
        """
        if M_at is not None:
            if M_a is not None and M_a != M_at:
                raise ConfigError(f"M_a={M_a} and M_at={M_at} both set "
                                  "Alice's transmit antenna count")
            M_a = M_at
        if M_a is None:
            M_a = 4
        kappa = 0.0 if kappa_db is None else db2lin(kappa_db)
        beta = 0.0 if beta_db is None else db2lin(beta_db)
        return cls(
            M_a=M_a, M_bt=M_bt, M_br=M_br, M_e=M_e, N=N, K_R=K_R,
            eta={link: db2lin(eta_db) for link in RAYLEIGH_LINKS},
            noise={node: db2lin(noise_db) for node in ("a", "b", "e")},
            kappa={"a": kappa, "b": kappa},
            beta={"a": beta, "b": beta},
            X_max=db2lin(x_max_db), W_max=db2lin(w_max_db),
            P_A_max=db2lin(p_a_max_db), P_B_max=db2lin(p_b_max_db),
            M_ar=M_ar,
            D_corr=D_corr or {},
        )

    def with_updates(self, **kwargs) -> "SystemParams":
        return replace(self, **kwargs)


#: Channel matrix shapes, rows x cols, as functions of the antenna counts.
def link_shape(params: SystemParams, link: str) -> tuple[int, int]:
    return {
        "ab": (params.M_br, params.M_a),
        "ae": (params.M_e, params.M_a),
        "bb": (params.M_br, params.M_bt),
        "be": (params.M_e, params.M_bt),
        "ba": (params.M_ar, params.M_bt),
        "aa": (params.M_ar, params.M_a),
    }[link]


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One draw of every link for every subcarrier.

    ``H[link]`` is an (N, rows, cols) complex array; the same seed with the
    same parameters reproduces the realization bit for bit.
    """

    H: dict
    seed: int


def _complex_gaussian(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    scale = np.sqrt(variance / 2.0)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale


def draw_channels(params: SystemParams, seed: int) -> ChannelRealization:
    """Draw a full channel realization.

    Non-SI links are i.i.d. circularly-symmetric complex Gaussian with
    per-element variance eta; SI channels have mean sqrt(K_R/(1+K_R)) on
    every element and fluctuation variance 1/(1+K_R).  Subcarriers are
    independent.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    h = {}
    for link in RAYLEIGH_LINKS:
        shape = (params.N,) + link_shape(params, link)
        h[link] = _complex_gaussian(rng, shape, params.eta[link])
    los = np.sqrt(params.K_R / (1.0 + params.K_R))
    for link in SI_LINKS:
        shape = (params.N,) + link_shape(params, link)
        h[link] = los + _complex_gaussian(rng, shape, 1.0 / (1.0 + params.K_R))
    return ChannelRealization(H=h, seed=int(seed))


def perturb_csi(ch: ChannelRealization, sigma_err_sq: float,
                seed: int) -> ChannelRealization:
    """Return a copy with additive Gaussian CSI error on the Rayleigh links.

    Error entries are i.i.d. complex Gaussian with per-element variance
    sigma_err_sq, drawn link by link in ``RAYLEIGH_LINKS`` order; SI
    channels are left untouched.
    """
    if sigma_err_sq < 0:
        raise ConfigError("sigma_err_sq must be >= 0")
    h = {name: arr for name, arr in ch.H.items()}
    if sigma_err_sq > 0:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        for link in RAYLEIGH_LINKS:
            h[link] = h[link] + _complex_gaussian(rng, h[link].shape, sigma_err_sq)
    return ChannelRealization(H=h, seed=ch.seed)


def trial_seed(master_seed: int, trial: int, stream: int = 0) -> int:
    """Derive a per-trial (and per-stream) seed from the master seed.

    Uses a splittable seed sequence so concurrent trial workers get
    statistically independent, reproducible streams.
    """
    ss = np.random.SeedSequence([int(master_seed), int(trial), int(stream)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])

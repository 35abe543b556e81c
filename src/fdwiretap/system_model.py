"""Interference-plus-noise covariances and secrecy rate evaluation.

The model has two nodes, Alice ('a') and Bob ('b'), each of which may send
information and jam, and one eavesdropper, Eve.  Information flows in two
rate directions, a->b and b->a.  The one-directional system is the special
case in which Alice does not jam and Bob sends no information:
:meth:`TransmitDesign.nodes` views it as a two-node design with those two
blocks absent.  Every function here skips absent blocks, and a direction
whose information block is absent has no rates.

The residual self-interference model couples subcarriers: the transmit and
receive distortion terms sum a node's own transmit covariances over the
whole band, so a jamming choice on one subcarrier raises the interference
floor on all of them.  Rates are reported in bits/s/Hz (base-2 logs); the
optimizer works in nats internally.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .channel import ChannelRealization, SystemParams
from .errors import DimensionMismatch

LN2 = float(np.log(2.0))

#: Rate directions as (transmitting node, receiving node).
DIRECTIONS = (("a", "b"), ("b", "a"))


@dataclass(eq=False)
class TransmitDesign:
    """Per-subcarrier information (X) and jamming (W) covariances.

    X has shape (N, M_a, M_a), W has shape (N, M_bt, M_bt).
    """

    X: np.ndarray
    W: np.ndarray

    @classmethod
    def zeros(cls, params: SystemParams) -> "TransmitDesign":
        return cls(X=np.zeros((params.N, params.M_a, params.M_a), complex),
                   W=np.zeros((params.N, params.M_bt, params.M_bt), complex))

    def copy(self) -> "TransmitDesign":
        return TransmitDesign(X=self.X.copy(), W=self.W.copy())

    def nodes(self) -> "BidirectionalDesign":
        """The two-node view: Alice sends X, Bob jams with W, and the other
        two blocks are absent.  The view shares this design's arrays."""
        return BidirectionalDesign(X_a=self.X, W_a=None, X_b=None, W_b=self.W)

    def validate(self, params: SystemParams, psd_tol: float = 1e-9,
                 budget_tol: float = 1e-6) -> None:
        if self.X.shape != (params.N, params.M_a, params.M_a):
            raise DimensionMismatch("X has wrong shape")
        if self.W.shape != (params.N, params.M_bt, params.M_bt):
            raise DimensionMismatch("W has wrong shape")
        for stack in (self.X, self.W):
            for m in stack:
                if linalg.min_eigenvalue(m) < -psd_tol:
                    raise ValueError("covariance is not PSD within tolerance")
        if sum(linalg.real_trace(m) for m in self.X) > params.X_max + budget_tol:
            raise ValueError("information power budget violated")
        if sum(linalg.real_trace(m) for m in self.W) > params.W_max + budget_tol:
            raise ValueError("jamming power budget violated")


@dataclass(eq=False)
class BidirectionalDesign:
    """Information (X) and jamming (W) covariances of both nodes.

    Alice's blocks are (N, M_at, M_at) stacks, Bob's (N, M_bt, M_bt); a
    block is None when the system does not have it.
    """

    X_a: np.ndarray | None
    W_a: np.ndarray | None
    X_b: np.ndarray | None
    W_b: np.ndarray | None

    @classmethod
    def zeros(cls, params: SystemParams) -> "BidirectionalDesign":
        na, nb = params.M_at, params.M_bt
        z = lambda m: np.zeros((params.N, m, m), complex)
        return cls(X_a=z(na), W_a=z(na), X_b=z(nb), W_b=z(nb))

    def copy(self) -> "BidirectionalDesign":
        return BidirectionalDesign(*(None if m is None else m.copy()
                                     for m in (self.X_a, self.W_a,
                                               self.X_b, self.W_b)))

    def nodes(self) -> "BidirectionalDesign":
        return self

    def info(self, node: str) -> np.ndarray | None:
        return self.X_a if node == "a" else self.X_b

    def jam(self, node: str) -> np.ndarray | None:
        return self.W_a if node == "a" else self.W_b

    def active(self) -> list:
        """The rate directions whose information block is present."""
        return [(tx, rx) for tx, rx in DIRECTIONS if self.info(tx) is not None]


@dataclass(eq=False)
class SecrecyReport:
    """Per-subcarrier and summed secrecy rates in bits/s/Hz.

    ``I_sec[n]`` sums ``max(I_ab[n] - I_ae[n], 0)`` and, when Bob sends
    information, ``max(I_ba[n] - I_be[n], 0)``.  The rates of a direction
    without an information block are None.
    """

    I_ab: np.ndarray | None
    I_ae: np.ndarray | None
    I_sec: np.ndarray
    I_sum: float
    I_ba: np.ndarray | None = field(default=None)
    I_be: np.ndarray | None = field(default=None)


def _check_jam_shapes(params: SystemParams, design: BidirectionalDesign) -> None:
    for w, m in ((design.W_a, params.M_at), (design.W_b, params.M_bt)):
        if w is not None and w.shape != (params.N, m, m):
            raise DimensionMismatch("jamming covariance has wrong shape")


def _own_transmission(design: BidirectionalDesign, node: str):
    """X + W of a node, or whichever of the two is present, or None."""
    x, w = design.info(node), design.jam(node)
    if x is None or w is None:
        return w if x is None else x
    return x + w


def sigma_node_bidirectional(params: SystemParams, ch: ChannelRealization,
                             design, node: str, n: int) -> np.ndarray:
    """Interference-plus-noise covariance at node 'a' or 'b' on subcarrier n.

    Interference combines the partner's jamming (through the cross channel)
    with residual SI driven by the node's own total transmission X + W.  The
    distortion sums run over all subcarriers: both the transmit-chain term
    (through the SI channel of subcarrier n) and the receive-chain term
    accumulate the whole-band transmission.  ``design`` is a two-node design
    or a one-directional one, whose receiver is Bob.
    """
    if node not in ("a", "b"):
        raise ValueError("node must be 'a' or 'b'")
    design = design.nodes()
    _check_jam_shapes(params, design)
    partner = "b" if node == "a" else "a"
    m = params.M_ar if node == "a" else params.M_br
    out = params.noise[node][n] * np.eye(m, dtype=complex)
    partner_w = design.jam(partner)
    if partner_w is not None:
        h_cross = ch.link(partner + node, n)
        if h_cross.shape[0] != m:
            raise DimensionMismatch("cross channel has wrong row count")
        out = out + h_cross @ partner_w[n] @ h_cross.conj().T
    own = _own_transmission(design, node)
    if own is None:
        return linalg.hermitize(out)
    d_corr = params.D_corr[node]
    if np.any(d_corr):
        out = out + linalg.real_trace(own[n]) * d_corr
    kappa = params.kappa[node][n]
    if kappa > 0:
        diag_sum = np.sum(np.diagonal(own, axis1=1, axis2=2), axis=0)
        h = ch.link(node + node, n)
        out = out + kappa * (h * np.real(diag_sum)) @ h.conj().T
    beta = params.beta[node][n]
    if beta > 0:
        acc = np.zeros(m)
        for k in range(params.N):
            h = ch.link(node + node, k)
            acc = acc + np.real(np.diagonal(h @ own[k] @ h.conj().T))
        out = out + beta * np.diag(acc)
    return linalg.hermitize(out)


def sigma_eve(params: SystemParams, ch: ChannelRealization, design,
              n: int) -> np.ndarray:
    """Noise-plus-jamming covariance at Eve on subcarrier n.

    Worst case: Eve is assumed to decode and cancel the information
    signals, so only the jamming of both nodes interferes.
    """
    design = design.nodes()
    _check_jam_shapes(params, design)
    out = params.noise["e"][n] * np.eye(params.M_e, dtype=complex)
    for node in ("a", "b"):
        w = design.jam(node)
        if w is not None:
            h = ch.link(node + "e", n)
            out = out + h @ w[n] @ h.conj().T
    return linalg.hermitize(out)


def _rate_bits(h: np.ndarray, x: np.ndarray, noise_cov: np.ndarray) -> float:
    """log2 |I + H X H^H Sigma^-1|, evaluated as a log-det difference."""
    signal = h @ x @ h.conj().T
    return (linalg.logdet(linalg.hermitize(noise_cov + signal))
            - linalg.logdet(noise_cov)) / LN2


def secrecy_rates(params: SystemParams, ch: ChannelRealization,
                  design) -> SecrecyReport:
    """Per-subcarrier clamped secrecy rates and their sum, in bits/s/Hz,
    of a one-directional or a two-node design."""
    nodes = design.nodes()
    active = nodes.active()
    legit = {tx: np.zeros(params.N) for tx, _ in active}
    leak = {tx: np.zeros(params.N) for tx, _ in active}
    for n in range(params.N):
        se = sigma_eve(params, ch, nodes, n)
        for tx, rx in active:
            x = nodes.info(tx)[n]
            s_rx = sigma_node_bidirectional(params, ch, nodes, rx, n)
            legit[tx][n] = _rate_bits(ch.link(tx + rx, n), x, s_rx)
            leak[tx][n] = _rate_bits(ch.link(tx + "e", n), x, se)
    i_sec = np.sum([np.maximum(legit[tx] - leak[tx], 0.0) for tx, _ in active],
                   axis=0)
    return SecrecyReport(I_ab=legit.get("a"), I_ae=leak.get("a"), I_sec=i_sec,
                         I_sum=float(i_sec.sum()), I_ba=legit.get("b"),
                         I_be=leak.get("b"))


def unclamped_objective_nats(params: SystemParams, ch: ChannelRealization,
                             design) -> float:
    """Sum over directions and subcarriers of the unclamped secrecy
    differences, in nats.

    This is the quantity the block-coordinate optimizer maximizes; the
    reporting clamp is applied only in :func:`secrecy_rates`.
    """
    rep = secrecy_rates(params, ch, design)
    pairs = ((rep.I_ab, rep.I_ae), (rep.I_ba, rep.I_be))
    return LN2 * float(sum(np.sum(legit - leak) for legit, leak in pairs
                           if legit is not None))

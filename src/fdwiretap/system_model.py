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
floor on all of them.

Each receiver's covariance is defined once, here, as a noise floor plus a
list of (block, operator) pairs whose operators act on whole (N, M, M)
block stacks (:func:`interference`, :func:`signal`).  Evaluation applies
them to the design's blocks; the optimizer hands the same pairs to its
concave subproblem.  Rates are reported in bits/s/Hz (base-2 logs); the
optimizer works in nats internally.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .channel import ChannelRealization, SystemParams
from .errors import DimensionMismatch
from .maxdet import ChannelMap, Congruence, LinearMap

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

    @staticmethod
    def budgets(params: SystemParams) -> dict:
        """Each node's trace budget: X_max for Alice, W_max for Bob."""
        return {"a": params.X_max, "b": params.W_max}

    def validate(self, params: SystemParams, psd_tol: float = 1e-9,
                 budget_tol: float = 1e-6) -> None:
        budgets = self.budgets(params)
        for name, stack, dim, node, kind in (
                ("X", self.X, params.M_a, "a", "information"),
                ("W", self.W, params.M_bt, "b", "jamming")):
            if stack.shape != (params.N, dim, dim):
                raise DimensionMismatch(f"{name} has wrong shape")
            if linalg.min_eigenvalue(stack) < -psd_tol:
                raise ValueError("covariance is not PSD within tolerance")
            if linalg.real_trace(stack) > budgets[node] + budget_tol:
                raise ValueError(f"{kind} power budget violated")


@dataclass(eq=False)
class BidirectionalDesign:
    """Information (X) and jamming (W) covariances of both nodes.

    Alice's blocks are (N, M_a, M_a) stacks, Bob's (N, M_bt, M_bt); a
    block is None when the system does not have it.
    """

    X_a: np.ndarray | None
    W_a: np.ndarray | None
    X_b: np.ndarray | None
    W_b: np.ndarray | None

    @classmethod
    def zeros(cls, params: SystemParams) -> "BidirectionalDesign":
        na, nb = params.M_a, params.M_bt
        z = lambda m: np.zeros((params.N, m, m), complex)
        return cls(X_a=z(na), W_a=z(na), X_b=z(nb), W_b=z(nb))

    def copy(self) -> "BidirectionalDesign":
        return BidirectionalDesign(*(None if m is None else m.copy()
                                     for m in (self.X_a, self.W_a,
                                               self.X_b, self.W_b)))

    def nodes(self) -> "BidirectionalDesign":
        return self

    @staticmethod
    def budgets(params: SystemParams) -> dict:
        """Each node's trace budget: P_A_max for Alice, P_B_max for Bob."""
        return {"a": params.P_A_max, "b": params.P_B_max}

    def active(self) -> list:
        """The rate directions whose information block is present."""
        return [(tx, rx) for tx, rx in DIRECTIONS
                if getattr(self, f"X_{tx}") is not None]


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


# ---------------------------------------------------------------------------
# Band operators of the residual self-interference model.  Each acts on a
# whole (N, M, M) block stack; the distortion operators sum their input over
# the band once per apply and once per adjoint.


@dataclass(frozen=True, eq=False)
class TraceCorrelation(LinearMap):
    """V_n -> tr(V_n) D, the CSI-error term with correlation matrix D; V_n
    is dim_in x dim_in."""

    D: np.ndarray
    dim_in: int

    def apply(self, v):
        trace = v.diagonal(axis1=-2, axis2=-1).real.sum(axis=-1)
        return trace[..., None, None] * self.D

    def adjoint(self, g):
        c = (self.D.conj() * g).real.sum(axis=(-2, -1))
        return c[..., None, None] * np.eye(self.dim_in, dtype=complex)


@dataclass(frozen=True, eq=False)
class TransmitDistortion(ChannelMap):
    """V -> kappa_n H_n diag(sum_m V_m) H_n^H for the SI channel stack H."""

    H: np.ndarray
    kappa: np.ndarray

    def apply(self, v):
        band = v.diagonal(axis1=-2, axis2=-1).real.sum(axis=0)
        return self.kappa[:, None, None] * ((self.H * band) @ self.H_h)

    def adjoint(self, g):
        seen = (self.H_h @ g @ self.H).diagonal(axis1=-2, axis2=-1).real
        band = np.diag(self.kappa @ seen)
        return np.repeat(band[None], self.kappa.size, axis=0)


@dataclass(frozen=True, eq=False)
class ReceiveDistortion(ChannelMap):
    """V -> beta_n diag(sum_m diag(H_m V_m H_m^H)) for the SI channel
    stack H."""

    H: np.ndarray
    beta: np.ndarray

    def apply(self, v):
        received = (self.H @ v @ self.H_h).diagonal(axis1=-2, axis2=-1).real
        return self.beta[:, None, None] * np.diag(received.sum(axis=0))

    def adjoint(self, g):
        band = self.beta @ g.diagonal(axis1=-2, axis2=-1).real
        return (self.H_h * band) @ self.H


# ---------------------------------------------------------------------------
# Receiver covariances.


def _check_jam_shapes(params: SystemParams,
                      design: BidirectionalDesign) -> None:
    for w, m in ((design.W_a, params.M_a), (design.W_b, params.M_bt)):
        if w is not None and w.shape != (params.N, m, m):
            raise DimensionMismatch("jamming covariance has wrong shape")


def interference(params: SystemParams, ch: ChannelRealization, design,
                 rx: str) -> list:
    """The design-dependent part of the interference-plus-noise covariance
    at receiver ``rx`` ('a', 'b' or Eve 'e'), as (block, operator) pairs.

    Eve sees both nodes' jamming.  A node sees its partner's jamming
    through the cross channel, and residual SI driven by its own blocks X
    and W: the CSI-error term, and transmit and receive distortion summed
    over the whole band, each one operator shared by both blocks.
    Operators whose coefficients are all zero are left out.
    """
    nodes = design.nodes()
    _check_jam_shapes(params, nodes)
    if rx == "e":
        return [(f"W_{node}", Congruence(ch.H[node + "e"]))
                for node in ("a", "b")
                if getattr(nodes, f"W_{node}") is not None]
    partner = "b" if rx == "a" else "a"
    pairs = []
    if getattr(nodes, f"W_{partner}") is not None:
        pairs.append((f"W_{partner}", Congruence(ch.H[partner + rx])))
    own = [b for b in (f"X_{rx}", f"W_{rx}") if getattr(nodes, b) is not None]
    si = ch.H[rx + rx]
    ops = []
    if np.any(params.D_corr[rx]):
        ops.append(TraceCorrelation(params.D_corr[rx], si.shape[-1]))
    if np.any(params.kappa[rx]):
        ops.append(TransmitDistortion(si, params.kappa[rx]))
    if np.any(params.beta[rx]):
        ops.append(ReceiveDistortion(si, params.beta[rx]))
    return pairs + [(b, op) for op in ops for b in own]


def signal(ch: ChannelRealization, tx: str, rx: str) -> tuple:
    """Node ``tx``'s information signal at receiver ``rx``, as a (block,
    operator) pair."""
    return f"X_{tx}", Congruence(ch.H[tx + rx])


def covariance(params: SystemParams, design, rx: str,
               pairs: list) -> np.ndarray:
    """The (N, M, M) stack noise_rx[n] I + sum of op(block) over ``pairs``."""
    nodes = design.nodes()
    dim = {"a": params.M_ar, "b": params.M_br, "e": params.M_e}[rx]
    out = params.noise[rx][:, None, None] * np.eye(dim, dtype=complex)
    for block, op in pairs:
        out = out + op.apply(getattr(nodes, block))
    return linalg.hermitize(out)


def with_signal(ch: ChannelRealization, design, tx: str, rx: str,
                sigma: np.ndarray) -> np.ndarray:
    """``sigma`` plus node ``tx``'s information signal at receiver ``rx``."""
    block, op = signal(ch, tx, rx)
    return linalg.hermitize(sigma + op.apply(getattr(design.nodes(), block)))


def sigma_node_bidirectional(params: SystemParams, ch: ChannelRealization,
                             design, node: str) -> np.ndarray:
    """Interference-plus-noise covariance stack at node 'a' or 'b'.

    ``design`` is a two-node design or a one-directional one, whose
    receiver is Bob.
    """
    if node not in ("a", "b"):
        raise ValueError("node must be 'a' or 'b'")
    return covariance(params, design, node,
                      interference(params, ch, design, node))


def sigma_eve(params: SystemParams, ch: ChannelRealization,
              design) -> np.ndarray:
    """Noise-plus-jamming covariance stack at Eve.

    Worst case: Eve is assumed to decode and cancel the information
    signals, so only the jamming of both nodes interferes.
    """
    return covariance(params, design, "e",
                      interference(params, ch, design, "e"))


def _rate_bits(total: np.ndarray, noise_cov: np.ndarray) -> np.ndarray:
    """Per-subcarrier log2 |total| - log2 |noise_cov|."""
    return (linalg.logdet(total) - linalg.logdet(noise_cov)) / LN2


def secrecy_rates(params: SystemParams, ch: ChannelRealization,
                  design) -> SecrecyReport:
    """Per-subcarrier clamped secrecy rates and their sum, in bits/s/Hz,
    of a one-directional or a two-node design."""
    nodes = design.nodes()
    se = sigma_eve(params, ch, nodes)
    legit, leak = {}, {}
    for tx, rx in nodes.active():
        s_rx = sigma_node_bidirectional(params, ch, nodes, rx)
        legit[tx] = _rate_bits(with_signal(ch, nodes, tx, rx, s_rx), s_rx)
        leak[tx] = _rate_bits(with_signal(ch, nodes, tx, "e", se), se)
    i_sec = np.sum([np.maximum(legit[tx] - leak[tx], 0.0) for tx in legit],
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

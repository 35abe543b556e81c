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

import functools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .channel import RAYLEIGH_LINKS, ChannelRealization, SystemParams
from .errors import DimensionMismatch
from .maxdet import ChannelMap, Congruence

LN2 = float(np.log(2.0))

#: Rate directions as (transmitting node, receiving node).
DIRECTIONS = (("a", "b"), ("b", "a"))


class Design:
    """A design type is a dataclass whose fields are its blocks; ``NODES``
    maps each block to the node that sends it, and the type states its
    nodes' ``budgets`` and its two-node view (``nodes``)."""

    @classmethod
    def shapes(cls, params: SystemParams) -> dict:
        """Each block's (N, M, M) shape, M its node's transmit antennas."""
        dims = {"a": params.M_a, "b": params.M_bt}
        return {b: (params.N, dims[node], dims[node])
                for b, node in cls.NODES.items()}

    @classmethod
    def zeros(cls, params: SystemParams):
        return cls(**{b: np.zeros(shape, complex)
                      for b, shape in cls.shapes(params).items()})

    @classmethod
    def uniform(cls, params: SystemParams, blocks):
        """The design whose named blocks (two-node names, :data:`BLOCKS`)
        share their node's budget evenly: each of a node's k named blocks is
        budget/(k N M) I on every subcarrier, and every other block is zero.
        A block the design type does not have is a ValueError."""
        design, budgets = cls.zeros(params), cls.budgets(params)
        nodes = [BidirectionalDesign.NODES.get(block) for block in blocks]
        for block, node in zip(blocks, nodes):
            m = getattr(design.nodes(), block, None)
            if m is None:
                raise ValueError(f"{cls.__name__} has no block {block!r}")
            dim, power = m.shape[-1], budgets[node] / nodes.count(node)
            m[:] = power / (params.N * dim) * np.eye(dim, dtype=complex)
        return design

    def copy(self):
        return type(self)(**{b: None if getattr(self, b) is None
                             else getattr(self, b).copy() for b in self.NODES})

    def validate(self, params: SystemParams, psd_tol: float = 1e-9,
                 budget_tol: float = 1e-6) -> None:
        """Raise DimensionMismatch for a misshaped block, and ValueError for
        a block not PSD within ``psd_tol`` or a node over its budget by more
        than ``budget_tol``.  Both tests are NaN-safe, so a block holding a
        NaN fails one of them (or the eigensolver raises LinAlgError, also a
        ValueError).  Absent (None) blocks are skipped."""
        _check_shapes(params, self)
        power = dict.fromkeys("ab", 0.0)
        for block, node in self.NODES.items():
            m = getattr(self, block)
            if m is not None:
                if not linalg.min_eigenvalue(m) >= -psd_tol:
                    raise ValueError(f"{block} is not PSD within tolerance")
                power[node] += linalg.real_trace(m)
        for node, budget in self.budgets(params).items():
            if not power[node] <= budget + budget_tol:
                raise ValueError(f"node {node} power {power[node]!r} "
                                 f"exceeds its budget {budget!r}")


def _check_shapes(params: SystemParams, design: Design) -> None:
    """Every present block has its shape (:meth:`Design.shapes`)."""
    for block, shape in design.shapes(params).items():
        m = getattr(design, block)
        if m is not None and m.shape != shape:
            raise DimensionMismatch(f"{block} has shape {m.shape}, not {shape}")


@dataclass(eq=False)
class TransmitDesign(Design):
    """Alice's information (X) and Bob's jamming (W) covariance stacks."""

    X: np.ndarray
    W: np.ndarray

    NODES = {"X": "a", "W": "b"}

    def nodes(self) -> "BidirectionalDesign":
        """The two-node view: Alice sends X, Bob jams with W, and the other
        two blocks are absent.  The view shares this design's arrays."""
        return BidirectionalDesign(X_a=self.X, W_a=None, X_b=None, W_b=self.W)

    @staticmethod
    def budgets(params: SystemParams) -> dict:
        """Each node's trace budget: X_max for Alice, W_max for Bob."""
        return {"a": params.X_max, "b": params.W_max}


@dataclass(eq=False)
class BidirectionalDesign(Design):
    """Information (X) and jamming (W) covariance stacks of both nodes; a
    block is None when the system does not have it."""

    X_a: np.ndarray | None
    W_a: np.ndarray | None
    X_b: np.ndarray | None
    W_b: np.ndarray | None

    NODES = {"X_a": "a", "W_a": "a", "X_b": "b", "W_b": "b"}

    def nodes(self) -> "BidirectionalDesign":
        return self

    @staticmethod
    def budgets(params: SystemParams) -> dict:
        """Each node's trace budget: P_A_max for Alice, P_B_max for Bob."""
        return {"a": params.P_A_max, "b": params.P_B_max}

    def sent(self, free=()) -> "BidirectionalDesign":
        """The view without the blocks that send nothing (absent or all
        zero) and are not in ``free``; it shares this design's arrays.  A
        block that sends nothing adds nothing to any covariance."""
        blocks = {b: getattr(self, b) for b in self.NODES}
        return BidirectionalDesign(**{
            b: m if m is not None and (b in free or np.any(m)) else None
            for b, m in blocks.items()})

    def active(self) -> list:
        """The rate directions whose information block is present."""
        return [(tx, rx) for tx, rx in DIRECTIONS
                if getattr(self, f"X_{tx}") is not None]


#: Blocks of the two-node design, in the order of the solver's variables.
BLOCKS = tuple(BidirectionalDesign.NODES)


@dataclass(eq=False)
class SecrecyReport:
    """Per-subcarrier and summed secrecy rates in bits/s/Hz.

    ``I_sec[n]`` sums ``max(I_ab[n] - I_ae[n], 0)`` and, when Bob sends
    information, ``max(I_ba[n] - I_be[n], 0)``.  The rates of a direction
    whose information block is absent or all zero are None.
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
class TraceCorrelation:
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


def interference(params: SystemParams, ch: ChannelRealization, design,
                 rx: str) -> list:
    """The design-dependent part of the interference-plus-noise covariance
    at receiver ``rx`` ('a', 'b' or Eve 'e'), as (block, operator) pairs.

    Eve sees both nodes' jamming.  A node sees its partner's jamming
    through the cross channel, and residual SI driven by its own blocks X
    and W: the CSI-error term, and transmit and receive distortion summed
    over the whole band, each one operator shared by both blocks.
    Operators whose coefficients are all zero are left out, and so are the
    pairs of blocks the design does not have.  The design's shapes are
    checked on every call; the operators come from :func:`_operators`.
    """
    nodes = design.nodes()
    _check_shapes(params, nodes)
    return [(b, op) for b, op in _operators(params, ch)[rx]
            if getattr(nodes, b) is not None]


# SystemParams and ChannelRealization hash by identity and hold read-only
# arrays, and a cache entry holds its key objects, so an id is not reused
# while its entry lives and an entry never goes stale.
@functools.lru_cache(maxsize=32)
def _operators(params: SystemParams, ch: ChannelRealization) -> dict:
    """Every operator of the model for one (params, channel), built once.

    Each cross link (:data:`RAYLEIGH_LINKS`) maps to its congruence, one
    object wherever the link appears, and each receiver to its (block,
    operator) pairs over all four blocks: at a node, partner jamming and
    then the own blocks X and W for each SI operator; at Eve, W_a and W_b.
    """
    table = {link: Congruence(ch.H[link]) for link in RAYLEIGH_LINKS}
    table["e"] = (("W_a", table["ae"]), ("W_b", table["be"]))
    for rx, partner in (("a", "b"), ("b", "a")):
        si = ch.H[rx + rx]
        ops = []
        if np.any(params.D_corr[rx]):
            ops.append(TraceCorrelation(params.D_corr[rx], si.shape[-1]))
        if np.any(params.kappa[rx]):
            ops.append(TransmitDistortion(si, params.kappa[rx]))
        if np.any(params.beta[rx]):
            ops.append(ReceiveDistortion(si, params.beta[rx]))
        table[rx] = ((f"W_{partner}", table[partner + rx]),
                     *((b, op) for op in ops for b in (f"X_{rx}", f"W_{rx}")))
    return table


def signal(params: SystemParams, ch: ChannelRealization, tx: str,
           rx: str) -> tuple:
    """Node ``tx``'s information signal at receiver ``rx``, as a (block,
    operator) pair; the operator is the one :func:`interference` uses for
    link ``tx + rx``, from :func:`_operators`."""
    return f"X_{tx}", _operators(params, ch)[tx + rx]


@functools.lru_cache(maxsize=32)
def _noise_floor(params: SystemParams, rx: str) -> np.ndarray:
    """The read-only (N, M, M) stack noise_rx[n] I at receiver ``rx``,
    built once per (params, receiver) as :func:`_operators` is."""
    dim = {"a": params.M_ar, "b": params.M_br, "e": params.M_e}[rx]
    out = params.noise[rx][:, None, None] * np.eye(dim, dtype=complex)
    out.flags.writeable = False
    return out


def covariance(params: SystemParams, design, rx: str,
               pairs: list) -> np.ndarray:
    """The (N, M, M) stack noise_rx[n] I + sum of op(block) over ``pairs``;
    with no pairs it is the read-only noise floor itself."""
    nodes = design.nodes()
    out = _noise_floor(params, rx)
    for block, op in pairs:
        out = out + op.apply(getattr(nodes, block))
    return out


def with_signal(params: SystemParams, ch: ChannelRealization, design,
                tx: str, rx: str, sigma: np.ndarray) -> np.ndarray:
    """``sigma`` plus :func:`signal`'s pair for ``tx``, ``rx`` applied."""
    block, op = signal(params, ch, tx, rx)
    return sigma + op.apply(getattr(design.nodes(), block))


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
    of a one-directional or a two-node design; the blocks that send nothing
    are left out (:meth:`BidirectionalDesign.sent`)."""
    nodes = design.nodes()
    _check_shapes(params, nodes)  # before an all-zero block is left out
    nodes = nodes.sent()
    se = sigma_eve(params, ch, nodes)
    legit, leak = {}, {}
    for tx, rx in nodes.active():
        s_rx = sigma_node_bidirectional(params, ch, nodes, rx)
        legit[tx] = _rate_bits(with_signal(params, ch, nodes, tx, rx, s_rx),
                               s_rx)
        leak[tx] = _rate_bits(with_signal(params, ch, nodes, tx, "e", se), se)
    i_sec = np.sum([np.maximum(legit[tx] - leak[tx], 0.0) for tx in legit]
                   or [np.zeros(params.N)], axis=0)
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

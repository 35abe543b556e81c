"""Block coordinate ascent for sum secrecy rate maximization.

The unclamped secrecy objective is a difference of log-dets, so it is not
concave.  Each -log|R| term is replaced by its tight concave surrogate
max_Q log|Q| - tr(Q R) + dim, which splits the problem into two blocks:
the transmit covariances (a concave log-det-plus-linear program handed to
:mod:`fdwiretap.maxdet`) and the auxiliary matrices, whose optimum is the
closed form Q = R^{-1}.  Alternating the blocks increases the surrogate
monotonically, and after every auxiliary update the surrogate equals the
true unclamped objective.

One optimizer serves the one-directional and the two-node system.  It
works on the two-node design of :mod:`fdwiretap.system_model`, one rate
direction (a->b, b->a) at a time: each active direction owns its receiver
log-det term, its auxiliary pair (Q, T) and its surrogate constants, and
Eve's log-det term counts once per active direction.  The free blocks,
whole (N, M, M) stacks, are the subproblem's variables, and its terms
apply the operators :mod:`fdwiretap.system_model` defines, so the
subproblem's size does not grow with N.  A block that is neither free nor nonzero contributes nothing
and is left out, and a direction whose information block is left out is
inactive.  An inactive direction's secrecy difference and its surrogate
are identically zero, so dropping its terms keeps the objective and the
monotone ascent of block successive upper-bound minimization (Razaviyayn,
Hong & Luo, SIAM J. Optim. 2013).  The one-directional system is the a->b
direction with Alice not jamming and Bob sending no information.

Block successive upper-bound minimization needs only an improving step per
block, and monotone Armijo SPG gives one at any iteration count (Birgin,
Martinez & Raydan, SIAM J. Optim. 2000).  So each subproblem is solved only
until its stationarity residual falls to INNER_REL_TOL of its starting
value, or to ``inner_tol`` if that is larger.  A truncated solve can make
slow progress look like convergence, so when the outer stop rule fires on
a step whose solve was truncated, the loop goes on and solves every later
subproblem to ``inner_tol``; it reports convergence only on a step whose
solve ran to ``inner_tol``.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg, maxdet, system_model
from .channel import ChannelRealization, SystemParams
from .errors import DegenerateChannel
from .system_model import BidirectionalDesign, SecrecyReport, TransmitDesign

#: Blocks of the two-node design, in the order of the solver's variables.
BLOCKS = ("X_a", "W_a", "X_b", "W_b")
#: Each subproblem is solved to this fraction of its starting stationarity
#: residual until the outer stop rule first fires.
INNER_REL_TOL = 0.1


@dataclass(eq=False)
class BcdState:
    """Optimizer state: auxiliaries and objective history.

    ``aux_Q`` and ``aux_T`` map each active direction's link name ('ab',
    'ba') to its (N, M, M) auxiliary stack.  ``objective_trace`` holds the
    surrogate objective in nats after every outer iteration and is
    non-decreasing along the run.  ``status`` ends as "Converged" or, when
    ``max_outer`` iterations ran without passing the stop rule,
    "MaxOuter".  ``extrapolations`` counts the accepted extrapolation
    steps.
    """

    aux_Q: dict
    aux_T: dict
    objective_trace: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    status: str = "Running"
    inner_reports: list = field(default_factory=list)
    extrapolations: int = 0


# ---------------------------------------------------------------------------
# Auxiliary updates and surrogate evaluation.


def _dim_sum(stack: np.ndarray) -> int:
    """The trace of the identity stack shaped like ``stack``."""
    return stack.shape[0] * stack.shape[-1]


def update_auxiliaries(params: SystemParams, ch: ChannelRealization,
                       design) -> tuple[dict, dict]:
    """Closed-form block update of every active direction tx->rx:
    Q = Sigma_rx^{-1} and T = (Sigma_e + H_{tx,e} X_tx H_{tx,e}^H)^{-1}.

    Returns (Q, T), each a dict from the direction's link name ('ab', 'ba')
    to an (N, M, M) stack.  A one-directional design has only 'ab'.
    """
    nodes = design.nodes()
    se = system_model.sigma_eve(params, ch, nodes)
    aux_q, aux_t = {}, {}
    for tx, rx in nodes.active():
        aux_q[tx + rx] = linalg.psd_inverse(
            system_model.sigma_node_bidirectional(params, ch, nodes, rx))
        aux_t[tx + rx] = linalg.psd_inverse(
            system_model.with_signal(ch, nodes, tx, "e", se))
    return aux_q, aux_t


def surrogate_objective(params: SystemParams, ch: ChannelRealization,
                        design, aux_q: dict, aux_t: dict) -> float:
    """Surrogate objective in nats, including the tightness constants.

    With the auxiliaries at their closed-form optimum this equals the
    unclamped secrecy objective exactly.
    """
    nodes = design.nodes()
    se = system_model.sigma_eve(params, ch, nodes)
    total = 0.0
    for tx, rx in nodes.active():
        q, t = aux_q[tx + rx], aux_t[tx + rx]
        s_rx = system_model.sigma_node_bidirectional(params, ch, nodes, rx)
        received = system_model.with_signal(ch, nodes, tx, rx, s_rx)
        leaked = system_model.with_signal(ch, nodes, tx, "e", se)
        total += linalg.logdet(received).sum() + linalg.logdet(se).sum()
        total -= linalg.inner(q, s_rx) + linalg.inner(t, leaked)
        total += (linalg.logdet(q).sum() + linalg.logdet(t).sum()
                  + _dim_sum(q) + _dim_sum(t))
    return total


# ---------------------------------------------------------------------------
# The covariance subproblem.


def _subproblem(params: SystemParams, ch: ChannelRealization,
                view: BidirectionalDesign, free: set, aux_q: dict,
                aux_t: dict, budgets: dict) -> maxdet.MaxDetProblem:
    """The concave covariance subproblem at fixed auxiliaries: the free
    blocks are the variables, and the other present blocks are folded into
    the constants.  Its objective differs from :func:`surrogate_objective`
    by a constant, the terms that do not depend on the free blocks."""
    variables = [(b, getattr(view, b).shape[-1]) for b in BLOCKS
                 if b in free and getattr(view, b) is not None]
    linear = {b: np.zeros_like(getattr(view, b)) for b, _ in variables}

    def split(rx, pairs):
        """The covariance over the fixed blocks, and the free pairs."""
        fixed = [(b, op) for b, op in pairs if b not in linear]
        return (system_model.covariance(params, view, rx, fixed),
                [(b, op) for b, op in pairs if b in linear])

    def add_linear(pairs, aux):
        """The free blocks' part of -tr(aux * covariance) as linear terms;
        the fixed blocks' part is a constant, left out."""
        for b, op in pairs:
            if b in linear:
                linear[b] = linear[b] + op.adjoint(aux)

    eve = system_model.interference(params, ch, view, "e")
    active = view.active()
    logdet_terms = []
    for tx, rx in active:
        q, t = aux_q[tx + rx], aux_t[tx + rx]
        pairs = system_model.interference(params, ch, view, rx)
        # log|Sigma_rx + H X_tx H^H| - tr(Q Sigma_rx)
        # - tr(T (Sigma_e + H_e X_tx H_e^H)), up to a constant.
        logdet_terms.append(maxdet.LogDetTerm(
            *split(rx, pairs + [system_model.signal(ch, tx, rx)])))
        add_linear(pairs, q)
        add_linear(eve + [system_model.signal(ch, tx, "e")], t)
    # log|Sigma_e| once for every active direction.
    logdet_terms.append(maxdet.LogDetTerm(*split("e", eve),
                                          weight=float(len(active))))
    constraints = []
    for node in ("a", "b"):
        group = tuple(b for b, _ in variables if b[-1] == node)
        if group:
            constraints.append((group, budgets[node]))
    return maxdet.MaxDetProblem(
        variables=variables,
        logdet_terms=logdet_terms,
        linear_terms={b: linalg.hermitize(c) for b, c in linear.items()},
        constraints=constraints,
    )


# ---------------------------------------------------------------------------
# Initializations.


def init_uniform(params: SystemParams, with_jamming: bool = False) -> TransmitDesign:
    """Scaled-identity covariances with equal power across subcarriers.

    Information covariances take the full budget; jamming starts at zero
    unless ``with_jamming`` spreads the full jamming budget uniformly.
    """
    design = TransmitDesign.zeros(params)
    x_scale = params.X_max / (params.N * params.M_a)
    for n in range(params.N):
        design.X[n] = x_scale * np.eye(params.M_a)
    if with_jamming:
        w_scale = params.W_max / (params.N * params.M_bt)
        for n in range(params.N):
            design.W[n] = w_scale * np.eye(params.M_bt)
    return design


def _spatial_beam(f: np.ndarray, g_gram: np.ndarray, nu_f: float,
                  nu_g: float) -> np.ndarray:
    """Unit-trace rank-1 covariance maximizing the desired-to-undesired
    power ratio (tr(F Q F^H) + nu_f) / (tr(G Q G^H) + nu_g).

    ``g_gram`` is G^H G.  The optimizer is the dominant generalized
    eigenvector of the pencil (F^H F + nu_f I, G^H G + nu_g I), computed
    through a Hermitian whitening so the deterministic phase convention of
    :func:`fdwiretap.linalg.dominant_eigenpair` applies.
    """
    dim = g_gram.shape[0]
    if not np.any(f) and not np.any(g_gram):
        raise DegenerateChannel("both desired and undesired channels are zero")
    a = linalg.hermitize(f.conj().T @ f + nu_f * np.eye(dim))
    b = linalg.hermitize(g_gram + nu_g * np.eye(dim))
    vals, vecs = np.linalg.eigh(b)
    b_inv_half = (vecs / np.sqrt(vals)) @ vecs.conj().T
    _, u, _ = linalg.dominant_eigenpair(
        linalg.hermitize(b_inv_half @ a @ b_inv_half))
    m = b_inv_half @ u
    m = linalg.fix_phase(m / np.linalg.norm(m))
    return np.outer(m, m.conj())


def residual_si_gram(params: SystemParams, ch: ChannelRealization,
                     n: int, node: str = "b") -> np.ndarray:
    """Gram matrix of the effective SI leakage channel for the jamming beam.

    tr(residual_si_gram @ W) is the total distortion power the jamming
    covariance W injects into the node's own receiver on subcarrier n.
    """
    si_link = "bb" if node == "b" else "aa"
    h = ch.link(si_link, n)
    gram = h.conj().T @ h
    kappa = params.kappa[node][n]
    beta = params.beta[node][n]
    d_corr = params.D_corr[node]
    out = kappa * np.diag(np.real(np.diagonal(gram))).astype(complex)
    out = out + beta * gram
    out = out + linalg.real_trace(d_corr) * np.eye(gram.shape[0])
    return linalg.hermitize(out)


def init_optimal_beam(params: SystemParams, ch: ChannelRealization) -> TransmitDesign:
    """Rank-1 beams toward the desired receiver, away from leakage paths.

    The information beam treats the Alice-Eve channel as undesired; the
    jamming beam treats the residual-SI leakage into Bob's own receiver as
    undesired.  Power is split equally across subcarriers.
    """
    design = TransmitDesign.zeros(params)
    for n in range(params.N):
        h_ae = ch.link("ae", n)
        q_x = _spatial_beam(ch.link("ab", n), h_ae.conj().T @ h_ae,
                            params.noise["b"][n], params.noise["e"][n])
        design.X[n] = (params.X_max / params.N) * q_x
        q_w = _spatial_beam(ch.link("be", n), residual_si_gram(params, ch, n),
                            params.noise["e"][n], params.noise["b"][n])
        design.W[n] = (params.W_max / params.N) * q_w
    return design


def init_random(params: SystemParams, seed: int) -> TransmitDesign:
    """Wishart-style random PSD covariances, trace-normalized per budget."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    design = TransmitDesign.zeros(params)
    for n in range(params.N):
        design.X[n] = _random_covariance(rng, params.M_a,
                                         params.X_max / params.N)
        design.W[n] = _random_covariance(rng, params.M_bt,
                                         params.W_max / params.N)
    return design


def _random_covariance(rng: np.random.Generator, dim: int,
                       trace: float) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    v = g @ g.conj().T
    return v * (trace / np.real(np.trace(v)))


# ---------------------------------------------------------------------------
# Main loop.


@dataclass(eq=False)
class BcdResult:
    design: TransmitDesign | BidirectionalDesign
    report: SecrecyReport
    state: BcdState


def _active_view(design: BidirectionalDesign, free: set) -> BidirectionalDesign:
    """The design without the blocks that are neither free nor nonzero;
    the view shares the design's arrays."""
    blocks = {b: getattr(design, b) for b in BLOCKS}
    return BidirectionalDesign(**{
        b: m if m is not None and (b in free or np.any(m)) else None
        for b, m in blocks.items()})


def _extrapolate(params, ch, view, prob, point, prev_point, f_new, aux):
    """Safeguarded extrapolation along the last block-update displacement.

    Alternating updates contract linearly near the optimum, so stepping
    past the new iterate along (point - prev_point) and projecting back
    often recovers several iterations at once.  A candidate is kept only
    when the tight surrogate improves, which preserves the monotone
    objective trace.  Returns the best (point, surrogate, auxiliaries) and
    the number of accepted steps.
    """
    best = point, f_new, aux
    accepted = 0
    for theta in (1.0, 3.0, 9.0):
        cand = {b: point[b] + theta * (point[b] - prev_point[b])
                for b in point}
        cand = maxdet.project_feasible(prob, cand)
        trial = replace(view, **cand)
        aux = update_auxiliaries(params, ch, trial)
        f_cand = surrogate_objective(params, ch, trial, *aux)
        if f_cand <= best[1]:
            break
        best = cand, f_cand, aux
        accepted += 1
    return best, accepted


def _ascend(params: SystemParams, ch: ChannelRealization, design,
            free: set, budgets: dict, outer_tol: float, max_outer: int,
            inner_tol: float, inner_max_iter: int) -> BcdState:
    """Alternate the covariance subproblem over the ``free`` blocks with the
    closed-form auxiliary updates, updating ``design`` in place.

    ``budgets`` maps each node to the trace budget of its free blocks.  The
    auxiliaries are refreshed from the initial design before the first
    subproblem so the surrogate starts tight.  The inner tolerance follows
    the policy of the module docstring.
    """
    view = _active_view(design.nodes(), free)
    aux_q, aux_t = update_auxiliaries(params, ch, view)
    state = BcdState(aux_Q=aux_q, aux_T=aux_t)
    f_cur = surrogate_objective(params, ch, view, aux_q, aux_t)
    state.objective_trace.append(f_cur)
    if not free:
        state.converged = True
        state.status = "Converged"
        return state
    prev_point = None
    rel_tol = INNER_REL_TOL
    for _ in range(max_outer):
        state.iterations += 1
        prob = _subproblem(params, ch, view, free, state.aux_Q, state.aux_T,
                           budgets)
        point, inner_report = maxdet.solve(
            prob, {b: getattr(view, b) for b, _ in prob.variables},
            max_iter=inner_max_iter, tol=inner_tol, rel_tol=rel_tol)
        state.inner_reports.append(inner_report)
        trial = replace(view, **point)
        aux = update_auxiliaries(params, ch, trial)
        f_new = surrogate_objective(params, ch, trial, *aux)
        if prev_point is not None:
            (point, f_new, aux), accepted = _extrapolate(
                params, ch, view, prob, point, prev_point, f_new, aux)
            state.extrapolations += accepted
        for b, value in point.items():
            getattr(view, b)[:] = value
        state.aux_Q, state.aux_T = aux
        prev_point = point
        state.objective_trace.append(f_new)
        if abs(f_new - f_cur) < outer_tol * (1.0 + abs(f_new)):
            if inner_report.threshold <= inner_tol:
                state.converged = True
                state.status = "Converged"
                return state
            # The step was small because its solve was truncated.
            rel_tol = 0.0
        f_cur = f_new
    state.status = "MaxOuter"
    return state


def optimize(params: SystemParams, ch: ChannelRealization,
             init: TransmitDesign | None = None, outer_tol: float = 1e-4,
             max_outer: int = 50, inner_tol: float = 1e-6,
             inner_max_iter: int = 200, optimize_x: bool = True,
             optimize_w: bool = True) -> BcdResult:
    """One-directional design: alternate the transmit-covariance subproblem
    with the closed-form auxiliary updates until the surrogate objective
    stabilizes.

    X and W are budgeted by X_max and W_max.  Blocks can be frozen
    (``optimize_x`` / ``optimize_w``) for the half-duplex and equal-power
    comparison strategies.
    """
    design = (init or init_uniform(params)).copy()
    free = {b for b, on in (("X_a", optimize_x), ("W_b", optimize_w)) if on}
    state = _ascend(params, ch, design, free,
                    {"a": params.X_max, "b": params.W_max},
                    outer_tol, max_outer, inner_tol, inner_max_iter)
    report = system_model.secrecy_rates(params, ch, design)
    return BcdResult(design=design, report=report, state=state)


def benchmark_best(params: SystemParams, ch: ChannelRealization,
                   restarts: int = 20, seed: int = 0,
                   **opt_kwargs) -> BcdResult:
    """Best of ``restarts`` random initializations, by clamped sum rate."""
    best = None
    for r in range(restarts):
        init = init_random(params, np.random.SeedSequence([seed, r])
                           .generate_state(1)[0])
        result = optimize(params, ch, init=init, **opt_kwargs)
        if best is None or result.report.I_sum > best.report.I_sum:
            best = result
    return best


def init_uniform_bidirectional(params: SystemParams) -> BidirectionalDesign:
    """Full-budget uniform information covariances, zero jamming."""
    design = BidirectionalDesign.zeros(params)
    for n in range(params.N):
        design.X_a[n] = (params.P_A_max / (params.N * params.M_a)
                         ) * np.eye(params.M_a)
        design.X_b[n] = (params.P_B_max / (params.N * params.M_bt)
                         ) * np.eye(params.M_bt)
    return design


def optimize_bidirectional(params: SystemParams, ch: ChannelRealization,
                           init: BidirectionalDesign | None = None,
                           outer_tol: float = 1e-4, max_outer: int = 50,
                           inner_tol: float = 1e-6, inner_max_iter: int = 200,
                           jam_a: bool = True, jam_b: bool = True,
                           tx_a: bool = True, tx_b: bool = True) -> BcdResult:
    """Two-node block coordinate ascent over up to four covariance sets.

    Node A's blocks share the budget P_A_max and node B's share P_B_max.
    ``jam_a`` / ``jam_b`` control whether each node's jamming covariances
    are optimized; disabled jammers stay at their initial value (zero for
    the default initialization).  ``tx_a`` / ``tx_b`` likewise freeze a
    node's information covariances, which silences that direction when the
    initial value is zero.
    """
    design = (init or init_uniform_bidirectional(params)).copy()
    flags = dict(X_a=tx_a, W_a=jam_a, X_b=tx_b, W_b=jam_b)
    free = {b for b in BLOCKS if flags[b]}
    state = _ascend(params, ch, design, free,
                    {"a": params.P_A_max, "b": params.P_B_max},
                    outer_tol, max_outer, inner_tol, inner_max_iter)
    report = system_model.secrecy_rates(params, ch, design)
    return BcdResult(design=design, report=report, state=state)

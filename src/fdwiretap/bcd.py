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
Eve's log-det term counts once per active direction.  The auxiliaries
and the surrogate read the direction's covariances from
:func:`fdwiretap.system_model.direction_covariances`.  The free blocks,
whole (N, M, M) stacks, are the subproblem's variables, and its terms
apply the operators :mod:`fdwiretap.system_model` defines, so the
subproblem's size does not grow with N.  A block that is neither free
nor nonzero contributes nothing and is left out, and a direction whose
information block is left out is inactive.  An inactive direction's
secrecy difference and its surrogate are identically zero, so dropping its
terms keeps the objective and the monotone ascent of block successive
upper-bound minimization (Razaviyayn, Hong & Luo, SIAM J. Optim. 2013).
The one-directional system is the a->b direction with Alice not jamming
and Bob sending no information.

Both design types take one path: :func:`optimize_bidirectional` names the
free blocks from :data:`BLOCKS`, each design type states its nodes'
budgets, and :func:`optimize` is the one-directional form.

Block successive upper-bound minimization needs only an improving step per
block, and monotone Armijo SPG gives one at any iteration count (Birgin,
Martinez & Raydan, SIAM J. Optim. 2000).  So each subproblem is solved only
until its max-det duality gap, MAXDET's stop (Vandenberghe, Boyd & Wu
1998), falls to INNER_REL_TOL of the gap at its start, or to the larger of
``inner_tol`` and GAP_FRACTION * ``outer_tol * (1 + |f|)`` at the step's
starting objective f; at tight auxiliaries the gap is in the objective's
own nats.  A step is certified when its gap is within that larger level.
The loop stops when the outer change test passes on a certified step, and
reports convergence, or on a full solve that hit its iteration cap, and
reports a stall.  When the change test passes on any other step, whose
slow progress may be truncation's or rounding's, the loop solves every
later subproblem in full.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg, maxdet, system_model
from .channel import ChannelRealization, SystemParams
from .errors import DegenerateChannel
from .system_model import (BLOCKS, BidirectionalDesign, SecrecyReport,
                           TransmitDesign)

#: Each subproblem is solved to this fraction of its starting duality gap
#: until the outer stop rule first fires.
INNER_REL_TOL = 0.1
#: A solve's gap tolerance as a fraction of the outer change tolerance
#: outer_tol * (1 + |f|).
GAP_FRACTION = 0.1


@dataclass(eq=False)
class BcdState:
    """Optimizer history of one run.

    ``objective_trace`` holds the surrogate objective in nats at the start
    and after every outer iteration and is non-decreasing along the run.
    ``status`` ends as "Converged" when the stop rule passes on a
    certified step (module docstring), "Stalled" when it passes on a full
    solve that hit its iteration cap, or, when ``max_outer`` iterations
    ran without either, "MaxOuter".  A run whose full solves keep stopping
    on rounding above the certifying level, each passing the change test,
    is bounded only by ``max_outer`` and ends MaxOuter.  ``converged``
    reads the status.
    ``extrapolations`` counts the accepted extrapolation steps.
    """

    objective_trace: list
    iterations: int = 0
    status: str = "Running"
    inner_reports: list = field(default_factory=list)
    extrapolations: int = 0

    @property
    def converged(self) -> bool:
        return self.status == "Converged"


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
    aux_q, aux_t = {}, {}
    for (tx, rx), (s_rx, _, _, leaked) in system_model.direction_covariances(
            params, ch, design):
        aux_q[tx + rx] = linalg.psd_inverse(s_rx)
        aux_t[tx + rx] = linalg.psd_inverse(leaked)
    return aux_q, aux_t


def surrogate_objective(params: SystemParams, ch: ChannelRealization,
                        design, aux_q: dict, aux_t: dict) -> float:
    """Surrogate objective in nats, including the tightness constants.

    With the auxiliaries at their closed-form optimum this equals the
    unclamped secrecy objective exactly.
    """
    total = 0.0
    for (tx, rx), (s_rx, received, s_e, leaked) in (
            system_model.direction_covariances(params, ch, design)):
        q, t = aux_q[tx + rx], aux_t[tx + rx]
        total += linalg.logdet(received).sum() + linalg.logdet(s_e).sum()
        total -= linalg.inner(q, s_rx) + linalg.inner(t, leaked)
        total += (linalg.logdet(q).sum() + linalg.logdet(t).sum()
                  + _dim_sum(q) + _dim_sum(t))
    return total


def _tight(params: SystemParams, ch: ChannelRealization, design) -> tuple:
    """The surrogate at ``design``, which there equals the unclamped
    objective, and the auxiliaries (Q, T) that make it tight."""
    aux = update_auxiliaries(params, ch, design)
    return surrogate_objective(params, ch, design, *aux), aux


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
            *split(rx, pairs + [system_model.signal(params, ch, tx, rx)])))
        add_linear(pairs, q)
        add_linear(eve + [system_model.signal(params, ch, tx, "e")], t)
    # log|Sigma_e| once for every active direction.
    logdet_terms.append(maxdet.LogDetTerm(*split("e", eve),
                                          weight=float(len(active))))
    groups = {node: tuple(b for b, _ in variables if view.NODES[b] == node)
              for node in budgets}
    return maxdet.MaxDetProblem(
        variables=variables,
        logdet_terms=logdet_terms,
        linear_terms=linear,
        constraints=[(g, budgets[node]) for node, g in groups.items() if g],
    )


# ---------------------------------------------------------------------------
# Initializations.


def init_uniform(params: SystemParams, with_jamming: bool = False) -> TransmitDesign:
    """Alice's X spends X_max uniformly (:meth:`Design.uniform`), and Bob's W
    is zero unless ``with_jamming`` spreads W_max the same way."""
    return TransmitDesign.uniform(
        params, ("X_a", "W_b") if with_jamming else ("X_a",))


def init_uniform_bidirectional(params: SystemParams) -> BidirectionalDesign:
    """Both nodes' X spend their budget uniformly, and neither node jams."""
    return BidirectionalDesign.uniform(params, ("X_a", "X_b"))


def _spatial_beam(f: np.ndarray, g_gram: np.ndarray, nu_f, nu_g) -> np.ndarray:
    """Unit-trace rank-1 covariance maximizing the desired-to-undesired
    power ratio (tr(F Q F^H) + nu_f) / (tr(G Q G^H) + nu_g), or a stack of
    them for stacks of F, G^H G and the noise levels.

    ``g_gram`` is G^H G.  The optimizer is the dominant generalized
    eigenvector of the pencil (F^H F + nu_f I, G^H G + nu_g I), computed
    through a Hermitian whitening so the deterministic phase convention of
    :func:`fdwiretap.linalg.dominant_eigenpair` applies.
    """
    if np.any(~np.any(f, axis=(-2, -1)) & ~np.any(g_gram, axis=(-2, -1))):
        raise DegenerateChannel("both desired and undesired channels are zero")
    eye = np.eye(g_gram.shape[-1])
    a = f.conj().swapaxes(-1, -2) @ f + np.multiply.outer(nu_f, eye)
    b = g_gram + np.multiply.outer(nu_g, eye)
    vals, vecs = linalg.eigh(b)
    b_inv_half = ((vecs / np.sqrt(vals)[..., None, :])
                  @ vecs.conj().swapaxes(-1, -2))
    _, u, _ = linalg.dominant_eigenpair(b_inv_half @ a @ b_inv_half)
    m = (b_inv_half @ u[..., None])[..., 0]
    m = linalg.fix_phase(m / np.linalg.norm(m, axis=-1, keepdims=True))
    return m[..., :, None] * m.conj()[..., None, :]


def residual_si_gram(params: SystemParams, ch: ChannelRealization) -> np.ndarray:
    """Gram matrices of Bob's effective SI leakage channel for the jamming
    beam, one per subcarrier.

    tr(residual_si_gram[n] @ W[n]) is the total distortion power the
    jamming covariance W[n] injects into Bob's own receiver on subcarrier n.
    """
    h = ch.H["bb"]
    gram = h.conj().swapaxes(-1, -2) @ h
    eye = np.eye(gram.shape[-1])
    diag = np.real(np.diagonal(gram, axis1=-2, axis2=-1))
    out = params.kappa["b"][:, None, None] * (eye * diag[:, None, :])
    out = out + params.beta["b"][:, None, None] * gram
    return out + linalg.real_trace(params.D_corr["b"]) * eye


def init_optimal_beam(params: SystemParams, ch: ChannelRealization) -> TransmitDesign:
    """Rank-1 beams toward the desired receiver, away from leakage paths.

    The information beam treats the Alice-Eve channel as undesired; the
    jamming beam treats the residual-SI leakage into Bob's own receiver as
    undesired.  Power is split equally across subcarriers.
    """
    h_ae = ch.H["ae"]
    q_x = _spatial_beam(ch.H["ab"], h_ae.conj().swapaxes(-1, -2) @ h_ae,
                        params.noise["b"], params.noise["e"])
    q_w = _spatial_beam(ch.H["be"], residual_si_gram(params, ch),
                        params.noise["e"], params.noise["b"])
    return TransmitDesign(X=(params.X_max / params.N) * q_x,
                          W=(params.W_max / params.N) * q_w)


def init_random(params: SystemParams, seed: int) -> TransmitDesign:
    """Wishart-style random PSD covariances, trace-normalized per budget."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    split = 2 * params.M_a ** 2
    z = rng.standard_normal((params.N, split + 2 * params.M_bt ** 2))
    return TransmitDesign(
        X=_random_covariance(z[:, :split], params.M_a, params.X_max / params.N),
        W=_random_covariance(z[:, split:], params.M_bt, params.W_max / params.N))


def _random_covariance(z: np.ndarray, dim: int, trace: float) -> np.ndarray:
    """G G^H at the given trace for each row [Re G, Im G] of z."""
    re, im = np.split(z, 2, axis=1)
    g = (re + 1j * im).reshape(-1, dim, dim)
    v = g @ g.conj().swapaxes(-1, -2)
    return v * (trace / np.real(np.trace(v, axis1=-2, axis2=-1)))[:, None, None]


# ---------------------------------------------------------------------------
# Main loop.


@dataclass(eq=False)
class BcdResult:
    design: TransmitDesign | BidirectionalDesign
    report: SecrecyReport
    state: BcdState


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
        f_cand, aux = _tight(params, ch, replace(view, **cand))
        if f_cand <= best[1]:
            break
        best = cand, f_cand, aux
        accepted += 1
    return best, accepted


@linalg.guarded()
def _run(params: SystemParams, ch: ChannelRealization, init, free,
         outer_tol: float, max_outer: int, inner_tol: float,
         inner_max_iter: int) -> BcdResult:
    """Alternate the covariance subproblem over the ``free`` blocks, a
    nonempty subset of :data:`BLOCKS`, of a copy of ``init`` with the
    closed-form auxiliary updates, and report the result's secrecy rates.

    Each node's free blocks share what its present fixed blocks leave of
    the trace budget the design's type states (``design.budgets``).  Every
    point is scored by the surrogate made tight there, the start included.
    Each solve's gap floor is the larger of ``inner_tol`` and
    ``GAP_FRACTION * outer_tol * (1 + |f|)`` at the step's starting
    objective f, and the stop follows the policy of the module docstring.
    """
    if not free or not set(free) <= set(BLOCKS):
        raise ValueError(f"free blocks {sorted(free)} must be a nonempty "
                         f"subset of {BLOCKS}")
    design = init.copy()
    view = design.nodes().sent(free)
    budgets = design.budgets(params)
    for b in BLOCKS:
        if b not in free and getattr(view, b) is not None:
            budgets[view.NODES[b]] -= linalg.real_trace(getattr(view, b))
    f_cur, aux = _tight(params, ch, view)
    state = BcdState(objective_trace=[f_cur])
    prev_point = None
    rel_tol = INNER_REL_TOL
    for _ in range(max_outer):
        state.iterations += 1
        prob = _subproblem(params, ch, view, free, *aux, budgets)
        level = max(inner_tol, GAP_FRACTION * outer_tol * (1.0 + abs(f_cur)))
        point, inner_report = maxdet.solve(
            prob, {b: getattr(view, b) for b, _ in prob.variables},
            max_iter=inner_max_iter, tol=level, rel_tol=rel_tol)
        state.inner_reports.append(inner_report)
        f_new, aux = _tight(params, ch, replace(view, **point))
        if prev_point is not None:
            (point, f_new, aux), accepted = _extrapolate(
                params, ch, view, prob, point, prev_point, f_new, aux)
            state.extrapolations += accepted
        for b, value in point.items():
            getattr(view, b)[:] = value
        prev_point = point
        state.objective_trace.append(f_new)
        if abs(f_new - f_cur) < outer_tol * (1.0 + abs(f_new)):
            if inner_report.gap <= level:
                state.status = "Converged"
                break
            if (rel_tol == 0.0 and inner_report.status
                    is maxdet.SolverStatus.MAX_ITER):
                state.status = "Stalled"
                break
            # The step was small because its solve was truncated, or a
            # full solve stopped on rounding: the next step's subproblem,
            # made at new auxiliaries, starts over at unit steps.
            rel_tol = 0.0
        f_cur = f_new
    else:
        state.status = "MaxOuter"
    report = system_model.secrecy_rates(params, ch, design)
    return BcdResult(design=design, report=report, state=state)


def optimize(params: SystemParams, ch: ChannelRealization,
             init: TransmitDesign | None = None, outer_tol: float = 1e-4,
             max_outer: int = 50, inner_tol: float = 1e-6,
             inner_max_iter: int = 200, optimize_w: bool = True) -> BcdResult:
    """One-directional design: alternate the transmit-covariance subproblem
    with the closed-form auxiliary updates until the surrogate objective
    stabilizes.

    X and W are budgeted by X_max and W_max.  X, the two-node block X_a,
    is always free; ``optimize_w=False`` freezes W, the block W_b.  Other
    choices of free blocks go through :func:`optimize_bidirectional`.
    """
    free = {"X_a", "W_b"} if optimize_w else {"X_a"}
    return _run(params, ch, init or init_uniform(params), free, outer_tol,
                max_outer, inner_tol, inner_max_iter)


def optimize_bidirectional(params: SystemParams, ch: ChannelRealization,
                           init=None, outer_tol: float = 1e-4,
                           max_outer: int = 50, inner_tol: float = 1e-6,
                           inner_max_iter: int = 200,
                           free=BLOCKS) -> BcdResult:
    """Block coordinate ascent over the ``free`` blocks, a nonempty subset
    of :data:`BLOCKS`, of a two-node design, by default the uniform one, or
    a one-directional design, whose X and W are X_a and W_b.

    Each node's blocks, free and frozen, share the budget the design's type
    states.  Frozen blocks keep their initial value, so a zero information
    block silences its direction.
    """
    return _run(params, ch, init or init_uniform_bidirectional(params), free,
                outer_tol, max_outer, inner_tol, inner_max_iter)


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

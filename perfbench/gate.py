"""Correctness gate: decides, cell by cell, whether a result can be trusted.

A cell is one strategy on one trial.  The gate captures what a cell
returned by wrapping ``harness.strategy_dispatch`` (the design) and
``bcd.optimize`` / ``bcd.optimize_bidirectional`` (the surrogate objective
traces; the Both-HD baseline runs two one-directional optimizations in one
cell).  The checks run after the timed region.
"""

import functools
import math

import numpy as np

PSD_TOL = 1e-9
BUDGET_TOL = 1e-6
#: Largest allowed drop of the surrogate objective trace (acceptance
#: criterion 02's bound).
TRACE_DROP_TOL = 1e-9


def trace_drop(trace) -> float:
    """Largest decrease between consecutive entries of an objective trace."""
    diffs = np.diff(np.asarray(trace, dtype=float))
    return float(max(0.0, -diffs.min())) if diffs.size else 0.0


def _min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])


def bidirectional_violation(params, design) -> str | None:
    """PSD and per-node budget check of a bidirectional design: node A's
    information plus jamming power within P_A_max, node B's within P_B_max."""
    nodes = (("A", design.X_a, design.W_a, params.P_A_max),
             ("B", design.X_b, design.W_b, params.P_B_max))
    for node, x, w, budget in nodes:
        for m in (*x, *w):
            if _min_eig(m) < -PSD_TOL:
                return f"node {node} covariance is not PSD"
        power = float(np.real(np.trace(x, axis1=1, axis2=2).sum()
                              + np.trace(w, axis1=1, axis2=2).sum()))
        if power > budget + BUDGET_TOL:
            return f"node {node} power {power!r} exceeds budget {budget!r}"
    return None


def design_violation(params, design, system_model, errors) -> str | None:
    """Why a returned design is infeasible, or None when it is feasible."""
    if design is None:
        return "no design returned"
    if isinstance(design, system_model.BidirectionalDesign):
        return bidirectional_violation(params, design)
    try:
        design.validate(params, psd_tol=PSD_TOL, budget_tol=BUDGET_TOL)
    except (ValueError, errors.DimensionMismatch) as exc:
        return str(exc)
    return None


def cell_failures(status: str, bits: float, violation: str | None,
                  traces) -> list:
    """Failure kinds of one cell, a sublist of ``["status", "bits",
    "design", "trace"]``; empty if the cell passes.

    ``status`` is the row status (``run_trial`` turns any exception into a
    ``NumericalTrouble`` row, so that status is never trusted), ``bits`` the
    row's clamped secrecy rate, ``violation`` the output of
    :func:`design_violation` and ``traces`` the surrogate objective traces of
    the cell's optimizer runs.
    """
    kinds = []
    if status == "NumericalTrouble":
        kinds.append("status")
    if not math.isfinite(bits):
        kinds.append("bits")
    if violation is not None:
        kinds.append("design")
    if any(trace_drop(t) > TRACE_DROP_TOL for t in traces):
        kinds.append("trace")
    return kinds


class CellGate:
    """Captures each cell's design and objective traces during a run."""

    def __init__(self, harness, bcd):
        self.harness = harness
        self.bcd = bcd
        self.cells = []

    def replacements(self):
        """Module-attribute replacements for :func:`spans.patched`."""
        out = [(self.harness, "strategy_dispatch",
                self._capture_design(self.harness.strategy_dispatch))]
        for attr in ("optimize", "optimize_bidirectional"):
            out.append((self.bcd, attr,
                        self._capture_trace(getattr(self.bcd, attr))))
        return out

    def _capture_design(self, dispatch):
        @functools.wraps(dispatch)
        def wrapper(name, params, ch, opts=None):
            cell = {"strategy": name, "params": params, "design": None,
                    "traces": []}
            self.cells.append(cell)
            result = dispatch(name, params, ch, opts)
            cell["design"] = result[0]
            return result
        return wrapper

    def _capture_trace(self, optimize):
        @functools.wraps(optimize)
        def wrapper(*args, **kwargs):
            result = optimize(*args, **kwargs)
            if self.cells:
                self.cells[-1]["traces"].append(result.state.objective_trace)
            return result
        return wrapper

    def judge(self, rows, system_model, errors) -> list:
        """Failure kinds per row; ``rows`` are the run's trial rows in order,
        one per captured cell."""
        if len(rows) != len(self.cells):
            raise RuntimeError(f"{len(rows)} trial rows but "
                               f"{len(self.cells)} dispatched cells")
        out = []
        for row, cell in zip(rows, self.cells):
            if row.strategy != cell["strategy"]:
                raise RuntimeError(f"row {row.strategy} does not match "
                                   f"cell {cell['strategy']}")
            violation = design_violation(cell["params"], cell["design"],
                                         system_model, errors)
            out.append(cell_failures(row.status, row.bits, violation,
                                     cell["traces"]))
        return out

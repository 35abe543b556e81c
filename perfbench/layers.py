"""Per-layer metrics of a traced pass, and the tail-percentile rule.

Times are totals in seconds over the pass; counts are totals over the pass.
Names follow ``<module>.<quantity>``; a ``_s`` suffix is inclusive span
time and ``self_s`` is span time minus the time in child spans.  Inside
trials every span belongs to one module, so ``harness.self_s`` and the
``self.<module>_s`` times add up to ``trace.trial_s``.
"""

import math

from spans import totals

MODULES = ("harness", "bcd", "maxdet", "system_model", "channel")
OPTIMIZE = ("bcd.optimize", "bcd.optimize_bidirectional")
AUX = ("bcd.update_auxiliaries", "bcd.update_auxiliaries_bidirectional")
SURROGATE = ("bcd.surrogate_objective",
             "bcd.surrogate_objective_bidirectional")
SIGMA = ("system_model.sigma_bob", "system_model.sigma_eve",
         "system_model.sigma_node_bidirectional",
         "system_model.sigma_eve_bidirectional")
RATES = ("system_model.secrecy_rates",
         "system_model.secrecy_rates_bidirectional")
LINALG_COUNTED = ("hermitize", "logdet", "psd_inverse")


def tail_percentile(samples, beyond: int = 10):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, n)``.  The sample at 0-based sorted index
    k sits at percentile 100*(k+1)/n.  With ``beyond`` or fewer samples no
    percentile qualifies and the maximum is returned at percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    k = n - beyond - 1 if n > beyond else n - 1
    return xs[k], 100.0 * (k + 1) / n, n


def extrap_candidates(aux_calls: int, outer_iters: int,
                      optimize_calls: int) -> int:
    """Extrapolation candidates tried by the outer loop.

    Each optimizer run refreshes the auxiliaries once before its first
    iteration, once per outer iteration, and once per extrapolation
    candidate it evaluates; the rest is the candidate count.
    """
    return aux_calls - outer_iters - optimize_calls


class ResultProbe:
    """Counts read off the objects the solver and optimizer return."""

    def __init__(self):
        self.inner_iters = 0
        self.maps = 0
        self.statuses = {}
        self.outer_iters = 0

    def solve(self, args, kwargs, result):
        prob = args[0] if args else kwargs["prob"]
        report = result[1]
        self.inner_iters += report.iterations
        self.maps += sum(len(term.maps) for term in prob.logdet_terms)
        status = str(getattr(report.status, "value", report.status))
        self.statuses[status] = self.statuses.get(status, 0) + 1

    def optimize(self, args, kwargs, result):
        self.outer_iters += result.state.iterations

    def probes(self) -> dict:
        """Span-name to callback map for :class:`spans.Tracer`."""
        out = {"maxdet.solve": self.solve}
        for name in OPTIMIZE:
            out[name] = self.optimize
        return out


def layer_metrics(tracer, probe: ResultProbe) -> dict:
    """Per-layer metric values of one traced pass."""
    spans = totals(tracer.spans)
    in_trials = totals(tracer.spans, trials_only=True)

    def calls(*names):
        return sum(spans[n]["calls"] for n in names if n in spans)

    def incl(*names):
        return sum(spans[n]["s"] for n in names if n in spans)

    def self_of(*names):
        return sum(spans[n]["self_s"] for n in names if n in spans)

    solves = calls("maxdet.solve")
    optimize_calls = calls(*OPTIMIZE)
    aux_calls = calls(*AUX)
    m = {
        "maxdet.solve_calls": solves,
        "maxdet.inner_iters": probe.inner_iters,
        "maxdet.inner_per_solve": probe.inner_iters / solves if solves else 0.0,
        "maxdet.solve_s": incl("maxdet.solve"),
        "maxdet.solve_self_s": self_of("maxdet.solve"),
        "maxdet.s_per_inner_iter": (incl("maxdet.solve") / probe.inner_iters
                                    if probe.inner_iters else 0.0),
        "maxdet.project_s": incl("maxdet.project_feasible"),
        "maxdet.project_calls": calls("maxdet.project_feasible"),
        "maxdet.objective_value_s": incl("maxdet.objective_value"),
        "maxdet.maps_per_solve": probe.maps / solves if solves else 0.0,
        "maxdet.status_max_iter": probe.statuses.get("MaxIter", 0),
        "maxdet.status_trouble": probe.statuses.get("NumericalTrouble", 0),
        "bcd.optimize_calls": optimize_calls,
        "bcd.outer_iters": probe.outer_iters,
        "bcd.self_s": self_of(*OPTIMIZE),
        "bcd.aux_s": incl(*AUX),
        "bcd.aux_calls": aux_calls,
        "bcd.surrogate_s": incl(*SURROGATE),
        "bcd.surrogate_calls": calls(*SURROGATE),
        "bcd.extrap_candidates": extrap_candidates(
            aux_calls, probe.outer_iters, optimize_calls),
        "system_model.sigma_s": incl(*SIGMA),
        "system_model.sigma_calls": calls(*SIGMA),
        "system_model.rates_s": incl(*RATES),
        "system_model.rates_calls": calls(*RATES),
        "channel.draw_s": incl("channel.draw_channels"),
        "channel.draw_calls": calls("channel.draw_channels"),
        "harness.emit_s": incl("harness.emit_results"),
    }
    for fn in LINALG_COUNTED:
        m[f"linalg.{fn}_calls"] = tracer.counts.get(f"linalg.{fn}", 0)
    module_self = {mod: 0.0 for mod in MODULES}
    for name, agg in in_trials.items():
        module_self[name.split(".", 1)[0]] += agg["self_s"]
    # run_trial minus its children from other modules.
    m["harness.self_s"] = module_self["harness"]
    for mod in MODULES[1:]:
        m[f"self.{mod}_s"] = module_self[mod]
    trial_s = in_trials.get("harness.run_trial", {"s": 0.0})["s"]
    m["trace.trial_s"] = trial_s
    m["trace.self_sum_frac"] = (math.fsum(module_self.values()) / trial_s
                                if trial_s else 0.0)
    return m

"""Monte Carlo experiment runner: parameter sweeps, design strategies,
seeded trial generation, aggregation and CSV emission.

A run is fully determined by (config, master seed): every trial derives its
channel seed from the master seed and trial index, strategies within a
trial share the same channel realization, and aggregation is permutation
invariant, so repeated runs are byte-identical.  Each record's dataclass
is its schema: the CSV columns are the fields of :class:`TrialRow` and
:class:`AggregateRow`, and the config keys those of
:class:`ExperimentConfig`.
"""

import csv
import inspect
import json
import numbers
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__, bcd, maxdet, system_model
from .channel import (SystemParams, db2lin, draw_channels, perturb_csi,
                      require, trial_seed)
from .errors import ConfigError, FdWiretapError, UnknownStrategy
from .system_model import BidirectionalDesign, TransmitDesign


def _budgets(*names):
    """A sweep that sets every named budget to the value in dB."""
    return lambda p, v: replace(p, **dict.fromkeys(names, db2lin(v)))


#: Each sweep parameter and how one of its values updates the base params.
SWEEPS = {
    "W_max_db": _budgets("W_max"),
    "X_max_db": _budgets("X_max"),
    "kappa_beta_db": lambda p, v: replace(
        p, kappa=dict.fromkeys("ab", db2lin(v)),
        beta=dict.fromkeys("ab", db2lin(v))),
    "noise_db": lambda p, v: replace(p, noise=dict.fromkeys("abe", db2lin(v))),
    "M_b": lambda p, v: replace(p, M_bt=v, M_br=v, D_corr={}),
    "M_e": lambda p, v: replace(p, M_e=v),
    "P_max_db": _budgets("P_A_max", "P_B_max", "X_max", "W_max"),
    "csi_error_db": lambda p, v: p,  # handled at the trial level
    "none": lambda p, v: p,
}

#: The config fields handed to the optimizer.
SOLVER_OPTIONS = ("outer_tol", "max_outer", "inner_tol", "inner_max_iter")


@dataclass(eq=False)
class ExperimentConfig:
    """Everything needed to reproduce an experiment.  ``strategies`` names
    each strategy once, and at least one.  Its numbers pass
    :func:`~fdwiretap.channel.require`: ``trials`` >= 1, ``master_seed`` and
    the :data:`SOLVER_OPTIONS` >= 0, and no sweep value is NaN."""

    params: SystemParams
    strategies: list = field(default_factory=list)
    trials: int = 20
    master_seed: int = 0
    sweep_param: str = "none"
    sweep_values: list = field(default_factory=lambda: [0.0])
    outer_tol: float = 1e-4
    max_outer: int = 50
    inner_tol: float = 1e-6
    inner_max_iter: int = 200
    label: str = "experiment"

    def __post_init__(self):
        # Each field holds its declared type; a float field takes any real.
        for f in fields(self):
            value = getattr(self, f.name)
            kind = numbers.Real if f.type is float else f.type
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"{f.name} must be {f.type.__name__}, "
                                  f"not {type(value).__name__} {value!r}")
        require("trials", self.trials, 1, strict=False)
        for name in ("master_seed", *SOLVER_OPTIONS):
            require(name, getattr(self, name), strict=False)
        if self.sweep_param not in SWEEPS:
            raise ConfigError(
                f"sweep_param '{self.sweep_param}' not in {tuple(SWEEPS)}")
        for name in self.strategies:
            _strategy(name)  # raises UnknownStrategy
        names = self.strategies
        if not names or len(set(names)) < len(names):
            raise ConfigError(f"strategies {names!r}: name at least one "
                              f"strategy, and none twice")
        if not self.sweep_values:
            raise ConfigError("sweep_values must not be empty")
        for value in self.sweep_values:
            try:
                if np.isnan(float(value)):  # a cell records it as a float
                    raise ValueError("not a number")
                SWEEPS[self.sweep_param](self.params, value)
                require(self.sweep_param,
                        _csi_variance(self.sweep_param, value), strict=False)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"sweep_values: {value!r}: {exc}") from exc

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        raw = dict(raw)
        param_args = {k: raw.pop(k) for k in _PARAM_KEYS if k in raw}
        try:
            params = SystemParams.from_db(**param_args)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
        unknown = set(raw) - set(_CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unrecognized config keys: {sorted(unknown)}")
        return cls(params=params, **raw)

    @classmethod
    def from_yaml(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = yaml.safe_load(fh)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:  # multi-line text
            raise ConfigError(f"{path}: {' '.join(str(exc).split())}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a mapping")
        return cls.from_dict(raw)


#: The config keys of the system parameters.  D_corr is a matrix per node,
#: so a config cannot set it.
_PARAM_KEYS = tuple(k for k in inspect.signature(SystemParams.from_db)
                    .parameters if k != "D_corr")
#: The config keys besides the system parameters.
_CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig)
                     if f.name != "params")


@dataclass(eq=False)
class TrialRow:
    """One strategy on one trial.  ``iters`` counts outer iterations, and
    ``status`` is the first outer status of its runs that is not Converged:
    Stalled (a run stopped on a full solve that hit its iteration cap) or
    MaxOuter.  ``inner_iters`` counts the inner solver's iterations and
    ``worst_inner`` is its worst status (Converged < MaxIter <
    NumericalTrouble).  ``extrapolations`` counts the accepted
    extrapolation steps, and ``final_gap`` is the largest duality gap (in
    nats) a run's last inner solve returned.  A failed row has status and
    worst_inner NumericalTrouble, NaN bits and no iterations.  Each field
    is converted to its declared type on construction, so a numpy scalar
    is stored, and written, as a plain number."""

    strategy: str
    sweep_value: float
    trial: int
    seed: int
    bits: float
    iters: int
    status: str
    inner_iters: int = 0
    worst_inner: str = "Converged"
    extrapolations: int = 0
    final_gap: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, f.type(getattr(self, f.name)))


@dataclass(eq=False)
class AggregateRow:
    strategy: str
    sweep_param: str
    sweep_value: float
    mean_bits: float
    stderr_bits: float
    mean_iters: float


@dataclass(eq=False)
class ExperimentResult:
    config_echo: dict
    master_seed: int
    trial_rows: list
    version: str = f"fdwiretap-{__version__}"

    def aggregates(self) -> list:
        """Mean, standard error and mean iteration count per cell."""
        sweep_param = self.config_echo.get("sweep_param", "none")
        cells = {}
        for row in self.trial_rows:
            cells.setdefault((row.strategy, row.sweep_value), []).append(row)
        out = []
        for (strategy, value), rows in sorted(cells.items()):
            bits = np.array([r.bits for r in rows])
            stderr = (float(bits.std(ddof=1) / np.sqrt(bits.size))
                      if bits.size > 1 else 0.0)
            out.append(AggregateRow(
                strategy=strategy, sweep_param=sweep_param, sweep_value=value,
                mean_bits=float(bits.mean()), stderr_bits=stderr,
                mean_iters=float(np.mean([r.iters for r in rows]))))
        return out


def _csi_variance(sweep_param: str, sweep_value) -> float:
    """CSI error variance for a sweep cell; -inf dB means perfect CSI."""
    if sweep_param != "csi_error_db":
        return 0.0
    value = float(sweep_value)
    return 0.0 if np.isneginf(value) else db2lin(value)


# ---------------------------------------------------------------------------
# Strategies.


def _half_duplex(params: SystemParams) -> SystemParams:
    """No node transmits while it receives, so no residual SI."""
    return replace(params, kappa={"a": 0.0, "b": 0.0},
                   beta={"a": 0.0, "b": 0.0}, D_corr={})


@dataclass(frozen=True, eq=False)
class Strategy:
    """A strategy is data: its starting design and its optimizer runs.

    The start is ``design.uniform(params, start)``: a node's named blocks
    share its budget evenly and the others are zero
    (:meth:`~fdwiretap.system_model.Design.uniform`).  The design type sets
    the budgets: X_max and W_max for a one-directional ``TransmitDesign``,
    whose X and W are the two-node blocks 'X_a' and 'W_b', or P_A_max and
    P_B_max for the default ``BidirectionalDesign``.  Each entry of
    ``runs`` is one optimizer run over the named free blocks, a subset of
    :data:`fdwiretap.bcd.BLOCKS`; with no run the start is the answer.
    Several runs time-share the channel: each starts with the other runs'
    blocks silent, no node transmits while it receives (:meth:`params`),
    and each run has the channel for its share of the time (:meth:`score`).
    """

    design: type = BidirectionalDesign
    start: tuple = ("X_a", "X_b")
    runs: tuple = ()

    def params(self, params: SystemParams) -> SystemParams:
        """The system parameters of both the design and the evaluation."""
        return _half_duplex(params) if len(self.runs) > 1 else params

    def score(self, report: system_model.SecrecyReport) -> float:
        """The row's bits: the sum rate, split evenly between time-shared
        runs."""
        return report.I_sum / max(len(self.runs), 1)


STRATEGY_TABLE = {
    "Optimal-FD": Strategy(TransmitDesign, ("X_a",), runs=({"X_a", "W_b"},)),
    "Optimal-HD": Strategy(TransmitDesign, ("X_a",), runs=({"X_a"},)),
    "Equal-FD": Strategy(TransmitDesign, ("X_a", "W_b")),
    "Equal-HD": Strategy(TransmitDesign, ("X_a",)),
    "Equal-X/Optimal-W": Strategy(TransmitDesign, ("X_a", "W_b"),
                                  runs=({"W_b"},)),
    "Equal-W/Optimal-X": Strategy(TransmitDesign, ("X_a", "W_b"),
                                  runs=({"X_a"},)),
    "Both-FD/No-Jam": Strategy(runs=({"X_a", "X_b"},)),
    "Both-FD/Bob-Jam": Strategy(runs=({"X_a", "X_b", "W_b"},)),
    "Both-FD/Both-Jam": Strategy(runs=({"X_a", "W_a", "X_b", "W_b"},)),
    "Both-HD/No-Jam": Strategy(runs=({"X_a"}, {"X_b"})),
    "Bob-FD/Bob-Jam": Strategy(start=("X_a",), runs=({"X_a", "W_b"},)),
}


def _strategy(name: str) -> Strategy:
    try:
        return STRATEGY_TABLE[name]
    except (KeyError, TypeError):  # a TypeError for an unhashable name
        raise UnknownStrategy(f"unknown strategy '{name}'") from None


#: Inner solver statuses from best to worst.
_INNER_ORDER = list(maxdet.SolverStatus)


class Dispatch(tuple):
    """A strategy's result on one channel, read off its runs' optimizer
    states.  It unpacks as (design, outer iterations, outer status): their
    sum and the first status that is not "Converged".  ``inner_iters``,
    ``worst_inner``, ``extrapolations`` and ``final_gap`` total the states
    as the :class:`TrialRow` fields of those names do."""

    def __new__(cls, design, states):
        iters = sum(state.iterations for state in states)
        status = next((s.status for s in states if not s.converged),
                      "Converged")
        self = super().__new__(cls, (design, iters, status))
        reports = [r for state in states for r in state.inner_reports]
        self.inner_iters = sum(r.iterations for r in reports)
        self.worst_inner = max(
            (r.status for r in reports), default=_INNER_ORDER[0],
            key=_INNER_ORDER.index).value
        self.extrapolations = sum(state.extrapolations for state in states)
        last = [state.inner_reports[-1] for state in states
                if state.inner_reports]
        self.final_gap = max((r.gap for r in last), default=0.0)
        return self


def strategy_dispatch(name: str, params: SystemParams, ch,
                      opts: dict | None = None) -> Dispatch:
    """Run one strategy on one channel realization, passing ``opts`` to
    every optimizer run as keyword arguments, for example the
    :data:`SOLVER_OPTIONS` of a config; any other key is a ``TypeError``,
    also for a strategy that runs no optimizer.

    Returns a :class:`Dispatch` of the design and the runs' states.  The
    design is evaluated against whatever channel the caller chooses (the
    estimation channel here, the true channel in the CSI study).
    """
    unknown = set(opts or {}) - set(SOLVER_OPTIONS)
    if unknown:
        raise TypeError(f"unknown solver options {sorted(unknown)}")
    spec = _strategy(name)
    params = spec.params(params)
    design = spec.design.uniform(params, spec.start)
    states = []
    for free in spec.runs:
        init = design.copy()
        for other in spec.runs:
            if other is not free:
                for block in other:
                    getattr(init.nodes(), block)[:] = 0.0
        result = bcd.optimize_bidirectional(params, ch, init=init, free=free,
                                            **(opts or {}))
        found = result.design.nodes()
        for block in free:
            getattr(design.nodes(), block)[:] = getattr(found, block)
        states.append(result.state)
    return Dispatch(design, states)


def _evaluate(name: str, params: SystemParams, design, eval_ch) -> float:
    spec = _strategy(name)
    return spec.score(system_model.secrecy_rates(spec.params(params),
                                                 eval_ch, design))


def run_trial(cfg: ExperimentConfig, sweep_value, trial: int) -> list:
    """All strategy rows for one (sweep value, trial) cell."""
    params = SWEEPS[cfg.sweep_param](cfg.params, sweep_value)
    seed = trial_seed(cfg.master_seed, trial)
    ch_true = draw_channels(params, seed)
    csi_var = _csi_variance(cfg.sweep_param, sweep_value)
    if csi_var > 0:
        ch_est = perturb_csi(ch_true, csi_var,
                             trial_seed(cfg.master_seed, trial, stream=1))
    else:
        ch_est = ch_true
    opts = {k: getattr(cfg, k) for k in SOLVER_OPTIONS}
    cell = dict(sweep_value=float(sweep_value), trial=trial, seed=seed)
    rows = []
    for name in cfg.strategies:
        try:
            run = strategy_dispatch(name, params, ch_est, opts)
            design, iters, status = run
            bits = _evaluate(name, params, design, ch_true)
        except (FdWiretapError, np.linalg.LinAlgError):
            rows.append(TrialRow(name, bits=float("nan"), iters=0,
                                 status="NumericalTrouble",
                                 worst_inner="NumericalTrouble", **cell))
            continue
        rows.append(TrialRow(name, bits=bits, iters=iters, status=status,
                             inner_iters=run.inner_iters,
                             worst_inner=run.worst_inner,
                             extrapolations=run.extrapolations,
                             final_gap=run.final_gap, **cell))
    return rows


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every (sweep value, strategy, trial) cell and aggregate."""
    trial_rows = []
    for sweep_value in cfg.sweep_values:
        for trial in range(cfg.trials):
            trial_rows.extend(run_trial(cfg, sweep_value, trial))
    echo = {key: getattr(cfg, key) for key in _CONFIG_KEYS}
    echo["sweep_values"] = [float(v) for v in cfg.sweep_values]
    return ExperimentResult(config_echo=echo, master_seed=cfg.master_seed,
                            trial_rows=trial_rows)


# ---------------------------------------------------------------------------
# Emission and parsing.

AGGREGATE_HEADER = tuple(f.name for f in fields(AggregateRow))
TRIAL_HEADER = tuple(f.name for f in fields(TrialRow))


def _write_csv(path: Path, header: tuple, rows) -> None:
    """One line per row, its fields in ``header`` order; a float is written
    as its repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            values = (getattr(row, name) for name in header)
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in values])


def emit_results(res: ExperimentResult, outdir) -> None:
    """Write aggregate and trial CSVs plus a JSON metadata sidecar.

    Overwrites existing files; float fields use repr so reruns with the
    same seed are byte-identical.
    """
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        _write_csv(outdir / "aggregate.csv", AGGREGATE_HEADER,
                   res.aggregates())
        _write_csv(outdir / "trials.csv", TRIAL_HEADER, res.trial_rows)
        with open(outdir / "metadata.json", "w") as fh:
            json.dump({"config": res.config_echo,
                       "master_seed": res.master_seed,
                       "version": res.version}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"failed writing results to {outdir}: {exc}") from exc


def load_results(outdir) -> ExperimentResult:
    """Parse results written by :func:`emit_results`; each column is read
    with its :class:`TrialRow` field's type, which the row converts to."""
    outdir = Path(outdir)
    with open(outdir / "metadata.json") as fh:
        meta = json.load(fh)
    with open(outdir / "trials.csv", newline="") as fh:
        rows = [TrialRow(**rec) for rec in csv.DictReader(fh)]
    return ExperimentResult(config_echo=meta["config"],
                            master_seed=meta["master_seed"],
                            trial_rows=rows, version=meta["version"])

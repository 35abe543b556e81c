"""Command line front end.

Exit codes: 0 on success; 2 on a config error (malformed YAML, a missing
config file, an option value of the wrong type, or a number out of range, not
finite or in dB too large for a float) or an output path that cannot be
written, checked before any trial runs; 3 when at least one trial
failed numerically (partial results are still written).
"""

import csv
import dataclasses
import sys
from pathlib import Path

import click
import numpy as np

from . import bcd, harness, waterfill as wf
from .channel import SystemParams, draw_channels, require, trial_seed
from .errors import ConfigError, FdWiretapError


def _floats(ctx, param, text: str) -> list:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{param.opts[0]}: {exc}") from None


def _run_and_emit(cfg: harness.ExperimentConfig, outdir: str) -> None:
    Path(outdir).mkdir(parents=True, exist_ok=True)
    result = harness.run_experiment(cfg)
    harness.emit_results(result, outdir)
    n_fail = sum(r.status == "NumericalTrouble" for r in result.trial_rows)
    if n_fail:
        click.echo(f"{n_fail} trial(s) failed numerically; "
                   f"partial results in {outdir}", err=True)
        sys.exit(3)
    click.echo(f"wrote {len(result.trial_rows)} trial rows to {outdir}")


class _Main(click.Group):
    """Its ``invoke`` alone exits 2: on a ConfigError, an OSError or a
    value that click's own parameter types reject."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ConfigError, OSError, click.BadParameter) as exc:
            text = (exc.format_message()
                    if isinstance(exc, click.BadParameter) else exc)
            click.echo(f"config error: {text}", err=True)
            sys.exit(2)


@click.group(cls=_Main)
def main():
    """Sum secrecy rate simulator for a multi-carrier wiretap channel with
    a full-duplex jamming receiver."""


@main.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--outdir", "-o", default="results", show_default=True,
              help="Directory for CSV and metadata output.")
def run(config_path, outdir):
    """Run the experiment described by a YAML config file."""
    _run_and_emit(harness.ExperimentConfig.from_yaml(config_path), outdir)


@main.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--param", required=True,
              type=click.Choice([p for p in harness.SWEEPS if p != "none"]),
              help="Parameter to sweep.")
@click.option("--values", required=True, callback=_floats,
              help="Comma-separated sweep values (dB where applicable).")
@click.option("--outdir", "-o", default="results", show_default=True)
def sweep(config_path, param, values, outdir):
    """Run a config with an inline one-parameter sweep override."""
    cfg = harness.ExperimentConfig.from_yaml(config_path)
    _run_and_emit(dataclasses.replace(cfg, sweep_param=param,
                                      sweep_values=values), outdir)


@main.command(name="waterfill")
@click.option("--alpha", required=True, callback=_floats,
              help="Comma-separated alpha gains.")
@click.option("--beta", required=True, callback=_floats,
              help="Comma-separated beta gains.")
@click.option("--budget", required=True, type=float,
              help="Total power budget.")
@click.option("--out", "-o", default="-",
              help="Output CSV path ('-' for stdout).")
def waterfill_cmd(alpha, beta, budget, out):
    """Water-fill a power budget over subcarriers with given gain pairs."""
    a, b = np.array(alpha), np.array(beta)
    alloc = wf.waterfill(wf.SubcarrierGains(alpha=a, beta=b, X_max=budget))
    fh = sys.stdout if out == "-" else open(out, "w", newline="")
    try:
        writer = csv.writer(fh)
        writer.writerow(["subcarrier", "alpha", "beta", "power",
                         "secrecy_nats"])
        secrecy = wf.secrecy_per_subcarrier(alloc.X, a, b)
        for n, row in enumerate(zip(a, b, alloc.X, secrecy)):
            writer.writerow([n] + [repr(float(v)) for v in row])
        writer.writerow(["total", "", "", repr(float(alloc.X.sum())),
                         repr(alloc.objective)])
    finally:
        if fh is not sys.stdout:
            fh.close()
    click.echo(f"water level {alloc.water_level:.6g}", err=True)


@main.command(name="bench-init")
@click.option("--kappa-db", default=-40.0, show_default=True,
              help="Distortion level kappa = beta in dB.")
@click.option("--trials", default=5, show_default=True)
@click.option("--restarts", default=10, show_default=True,
              help="Random restarts for the benchmark objective.")
@click.option("--seed", default=0, show_default=True)
@click.option("--m", "m_ant", default=2, show_default=True,
              help="Antennas per node.")
@click.option("--subcarriers", default=2, show_default=True)
def bench_init(kappa_db, trials, restarts, seed, m_ant, subcarriers):
    """Compare uniform and beamforming initializations against a
    random-restart benchmark."""
    require("--trials", trials, 1, strict=False)
    require("--seed", seed, strict=False)
    require("--restarts", restarts, 1, strict=False)
    params = SystemParams.from_db(
        M_a=m_ant, M_bt=m_ant, M_br=m_ant, M_e=m_ant, N=subcarriers,
        kappa_db=kappa_db, beta_db=kappa_db)
    click.echo("trial,uniform_bits,beam_bits,benchmark_bits")
    failed = False
    for t in range(trials):
        ch = draw_channels(params, trial_seed(seed, t))
        try:
            uni = bcd.optimize(params, ch, init=bcd.init_uniform(params))
            beam = bcd.optimize(params, ch, init=bcd.init_optimal_beam(params, ch))
            bench = bcd.benchmark_best(params, ch, restarts=restarts,
                                       seed=trial_seed(seed, t, stream=2))
            rows = [r.report.I_sum for r in (uni, beam, bench)]
        except FdWiretapError as exc:
            click.echo(f"{t},failed,failed,failed  # {exc}", err=True)
            failed = True
            continue
        click.echo(f"{t},{rows[0]:.6f},{rows[1]:.6f},{rows[2]:.6f}")
    if failed:
        sys.exit(3)


if __name__ == "__main__":
    main()

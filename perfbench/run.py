#!/usr/bin/env python3
"""Monte Carlo trial benchmark of fdwiretap.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 0 --seconds 48 --trace 0

A run executes two experiments of the workload through the same entry
points as ``fdwiretap run``: the YAML config is loaded with
``ExperimentConfig.from_dict``, run with ``harness.run_experiment`` and
written with ``harness.emit_results``.  The standing experiment (master
seed STANDING_SEED, the same trials in every run) is timed; the fresh one
(master seed --seed) is not.  Both pass through the correctness gate
(``gate.py``).  The untraced run (``--trace 0``) adds only a timer around
``harness.run_trial`` and the gate's wrappers.  The traced run
(``--trace 1``) instruments the package from outside (``spans.py``) and
reports per-layer metrics (``layers.py``).

Standard output holds one line per metric with its unit, then, as the last
line, one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  Metric names and units come from ``BENCHMARK.json``.
See perfbench/README.md for the workloads and the seeds.
"""

import os

# One BLAS thread: the blocks are 2x2, so more threads only add scheduler
# noise.  Set before numpy is imported.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import ExitStack  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import yaml  # noqa: E402

from gate import CellGate  # noqa: E402
from layers import ResultProbe, layer_metrics, tail_percentile  # noqa: E402
from spans import Tracer, patched  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Master seed of the standing experiment: the same trials in every run,
#: and the only part that is timed.  reference/<workload>.json holds its bits.
STANDING_SEED = 1802
#: Never used while writing a change; confirms a claim made on other seeds.
HELD_OUT_SEED = 9173
#: Share of --seconds spent on the fresh experiment, whose master seed is
#: --seed.  It is checked by the gate and counted in sum_rate_bits but not
#: timed: draws differ up to 5x in cost and a run holds only 9 to 37 of them,
#: so timing fresh draws would make two seeds differ by more than the bounds
#: (README.md, "Inputs and seeds").
FRESH_SHARE = 0.2

#: Strategies that are not optimized; left out of sum_rate_bits.
EQUAL_POWER = ("Equal-FD", "Equal-HD")
SPAN_MODULES = ("channel", "system_model", "maxdet", "bcd", "harness")
COUNT_MODULES = ("linalg",)
SETUP_REPEATS = 3
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from fdwiretap import harness; "
              "harness.ExperimentConfig.from_yaml(sys.argv[2])")


@dataclass(frozen=True)
class Workload:
    """Run sizing, from wall times measured on a 2-core x86 host."""

    #: Mean wall time of one trial of the standing experiment.
    standing_trial_s: float
    #: Mean wall time of one trial over random draws.
    fresh_trial_s: float
    #: Standing trials the traced run times with and without tracing.
    overhead_trials: int


WORKLOADS = {
    "desk": Workload(standing_trial_s=1.16, fresh_trial_s=1.33,
                     overhead_trials=4),
    "wideband": Workload(standing_trial_s=1.04, fresh_trial_s=1.07,
                         overhead_trials=4),
    "bidirectional": Workload(standing_trial_s=4.15, fresh_trial_s=5.8,
                              overhead_trials=2),
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=48,
                    help="intended measuring time; fixes the trial count")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="rewrite reference/<workload>.json from this "
                         "checkout and exit")
    return ap.parse_args(argv)


class Package:
    """The fdwiretap modules of this checkout."""

    def __init__(self):
        if not (SRC / "fdwiretap" / "__init__.py").is_file():
            raise SystemExit(f"perfbench: no fdwiretap sources under {SRC}")
        sys.path.insert(0, str(SRC))
        for name in SPAN_MODULES + COUNT_MODULES + ("errors",):
            setattr(self, name, importlib.import_module(f"fdwiretap.{name}"))
        origin = Path(self.harness.__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise SystemExit(f"perfbench: imported fdwiretap from {origin}, "
                             f"not from {SRC}")

    def modules(self, names):
        return [getattr(self, name) for name in names]


@dataclass
class Pass:
    rows: list
    trial_times: list
    elapsed: float
    failures: list
    emitted_ok: bool


def trial_counts(workload: str, seconds: int) -> tuple:
    """``(standing, fresh)`` trial counts of a run meant to take
    ``seconds``."""
    wl = WORKLOADS[workload]
    standing = round((1 - FRESH_SHARE) * seconds / wl.standing_trial_s)
    fresh = round(FRESH_SHARE * seconds / wl.fresh_trial_s)
    return max(1, standing), max(1, fresh)


def config_path(workload: str) -> Path:
    return HERE / "workloads" / f"{workload}.yaml"


def load_config(pkg, workload: str, seed: int, trials: int):
    with open(config_path(workload)) as fh:
        raw = yaml.safe_load(fh)
    raw.update(master_seed=seed, trials=trials)
    return pkg.harness.ExperimentConfig.from_dict(raw)


def same_rows(a, b) -> bool:
    """Trial rows equal field by field (NaN bits compare equal)."""
    def key(r):
        return (r.strategy, r.sweep_value, r.trial, r.seed, repr(r.bits),
                r.iters, r.status)
    return [key(r) for r in a] == [key(r) for r in b]


def _timed_run_trial(run_trial, times, tracer):
    @functools.wraps(run_trial)
    def wrapper(cfg, sweep_value, trial):
        if tracer is not None:
            tracer.trial = trial
        t0 = time.perf_counter()
        try:
            return run_trial(cfg, sweep_value, trial)
        finally:
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.trial = -1
    return wrapper


def _instrument(stack, pkg, gate, times, tracer) -> None:
    """Enter the tracer's span recorders (if any), then the gate's wrappers
    and the timer around ``harness.run_trial``, which sit above them."""
    if tracer is not None:
        stack.enter_context(patched(tracer.replacements(
            pkg.modules(SPAN_MODULES), pkg.modules(COUNT_MODULES),
            "fdwiretap")))
    stack.enter_context(patched(gate.replacements() + [
        (pkg.harness, "run_trial",
         _timed_run_trial(pkg.harness.run_trial, times, tracer))]))


def run_pass(pkg, cfg, outdir: Path, tracer=None) -> Pass:
    """Run and emit one experiment as ``fdwiretap run`` does, then check
    every cell and that the emitted files read back to the same rows."""
    harness = pkg.harness
    gate = CellGate(harness, pkg.bcd)
    times = []
    with ExitStack() as stack:
        _instrument(stack, pkg, gate, times, tracer)
        t0 = time.perf_counter()
        result = harness.run_experiment(cfg)
        harness.emit_results(result, outdir)
        elapsed = time.perf_counter() - t0
    rows = result.trial_rows
    emitted_ok = same_rows(rows, harness.load_results(outdir).trial_rows)
    failures = gate.judge(rows, pkg.system_model, pkg.errors)
    return Pass(rows, times, elapsed, failures, emitted_ok)


def overhead_pairs(pkg, workload: str, m: int) -> tuple:
    """Tracing overhead: traced over untraced wall time of the first ``m``
    standing trials.

    Each trial runs both ways back to back, in alternating order, so that
    drift of the machine's speed cancels.  Returns the ratio, and whether
    both ways gave the same rows and passed the gate.
    """
    cfg = load_config(pkg, workload, STANDING_SEED, m)
    secs = {False: 0.0, True: 0.0}
    ok = True
    for trial in range(m):
        rows = {}
        for with_trace in ((False, True) if trial % 2 == 0 else (True, False)):
            gate = CellGate(pkg.harness, pkg.bcd)
            times = []
            with ExitStack() as stack:
                _instrument(stack, pkg, gate, times,
                            Tracer() if with_trace else None)
                rows[with_trace] = pkg.harness.run_trial(
                    cfg, cfg.sweep_values[0], trial)
            secs[with_trace] += times[0]
            failures = gate.judge(rows[with_trace], pkg.system_model,
                                  pkg.errors)
            ok = ok and not any(failures)
        ok = ok and same_rows(rows[False], rows[True])
    return secs[True] / secs[False], ok


def measure_setup(workload: str) -> float:
    """Median wall time for a fresh interpreter to import fdwiretap and
    load and validate the workload config."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC),
                        str(config_path(workload))],
                       cwd=ROOT, check=True, timeout=120)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def provenance(args, standing: int, fresh: int) -> dict:
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "standing_seed": STANDING_SEED,
            "held_out_seed": HELD_OUT_SEED,
            "standing_trials": standing, "fresh_trials": fresh,
            "git_revision": git_revision(), "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "thread_pins": THREAD_PINS, "trials_run": "sequentially"}


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def reference_path(workload: str) -> Path:
    return HERE / "reference" / f"{workload}.json"


def write_reference(pkg, args, standing: int, outdir: Path) -> None:
    cfg = load_config(pkg, args.workload, STANDING_SEED, standing)
    run = run_pass(pkg, cfg, outdir)
    if any(run.failures) or not run.emitted_ok:
        raise SystemExit("perfbench: the standing experiment failed the "
                         "gate; no reference written")
    path = reference_path(args.workload)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": STANDING_SEED,
                   "cells": [{"trial": r.trial, "strategy": r.strategy,
                              "bits": r.bits} for r in run.rows]},
                  fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(run.rows)} reference cells to {path}")


def bits_deviation(rows, workload: str) -> tuple:
    """Largest |bits - reference| over the standing rows the committed
    reference covers, the number of those rows off by more than 1e-9, and
    the number compared."""
    with open(reference_path(workload)) as fh:
        reference = json.load(fh)
    ref = {(c["trial"], c["strategy"]): c["bits"] for c in reference["cells"]}
    devs = [abs(r.bits - ref[(r.trial, r.strategy)]) for r in rows
            if (r.trial, r.strategy) in ref]
    return max(devs, default=0.0), sum(d > 1e-9 for d in devs), len(devs)


def end_to_end(pkg, args, standing: int, fresh: int, outdir: Path):
    # Package() has imported fdwiretap, so the bytecode cache is warm, as a
    # user's second run finds it.
    setup_s = measure_setup(args.workload)
    timed = run_pass(pkg, load_config(pkg, args.workload, STANDING_SEED,
                                      standing), outdir / "standing")
    new = run_pass(pkg, load_config(pkg, args.workload, args.seed, fresh),
                   outdir / "fresh")
    tail, pct, n = tail_percentile(timed.trial_times)
    optimized = [r.bits for r in timed.rows + new.rows
                 if r.strategy not in EQUAL_POWER and math.isfinite(r.bits)]
    values = {
        "trials_per_s": standing / timed.elapsed,
        "trial_s_p50": statistics.median(timed.trial_times),
        "trial_s_tail": tail,
        "sum_rate_bits": statistics.fmean(optimized) if optimized else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
    }
    dev_max, dev_cells, compared = bits_deviation(timed.rows, args.workload)
    notes = {"trial_s_tail": f"p{pct:.1f} of {n} trials",
             "bits_dev_max": f"{dev_max!r} bits/s/Hz ({dev_cells} of "
                             f"{compared} reference cells above 1e-9)"}
    return values, [timed, new], notes, True


def traced(pkg, args, standing: int, fresh: int, outdir: Path):
    probe = ResultProbe()
    tracer = Tracer(probe.probes())
    timed = run_pass(pkg, load_config(pkg, args.workload, STANDING_SEED,
                                      standing), outdir / "standing", tracer)
    new = run_pass(pkg, load_config(pkg, args.workload, args.seed, fresh),
                   outdir / "fresh")
    m = min(WORKLOADS[args.workload].overhead_trials, standing)
    overhead, pairs_ok = overhead_pairs(pkg, args.workload, m)
    values = layer_metrics(tracer, probe)
    dev_max, dev_cells, compared = bits_deviation(timed.rows, args.workload)
    values.update({
        "harness.cells": len(timed.rows) + len(new.rows),
        "harness.cells_failed": sum(bool(f) for f in timed.failures
                                    + new.failures),
        "harness.bits_dev_max": dev_max,
        "harness.bits_dev_cells": dev_cells,
        "trace.overhead": overhead,
    })
    notes = {"harness.bits_dev_max": f"over {compared} reference cells",
             "trace.overhead": f"traced/untraced time of the first {m} "
                               f"standing trial(s), run both ways"}
    # Tracing must not change a result, and self times must add up.
    ok = pairs_ok and abs(values["trace.self_sum_frac"] - 1.0) < 1e-6
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump({"provenance": provenance(args, standing, fresh),
                   "fields": ["name", "start", "end", "parent", "trial"],
                   "spans": tracer.spans, "counts": tracer.counts,
                   "metrics": values}, fh)
    return values, [timed, new], notes, ok


def main(argv=None) -> int:
    args = parse_args(argv)
    pkg = Package()
    standing, fresh = trial_counts(args.workload, args.seconds)
    outdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        if args.write_reference:
            write_reference(pkg, args, standing, outdir)
            return 0
        measure = traced if args.trace else end_to_end
        values, passes, notes, ok = measure(pkg, args, standing, fresh,
                                            outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    spec = benchmark_spec()
    rows = [row for p in passes for row in p.rows]
    failures = [kinds for p in passes for kinds in p.failures]
    failed = sum(bool(kinds) for kinds in failures)
    print(json.dumps(provenance(args, standing, fresh), sort_keys=True))
    for row, kinds in zip(rows, failures):
        if kinds:
            print(f"FAILED cell {row.strategy} trial {row.trial} "
                  f"seed {row.seed}: {', '.join(kinds)}")
    metrics = {}
    for entry in spec["per_layer" if args.trace else "end_to_end"]:
        name = entry["name"]
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {values[name]!r} {entry['unit']}{note}")
    print(f"failed_frac = {failed / len(rows)!r} "
          f"({failed} of {len(rows)} cells)")
    if "bits_dev_max" in notes:
        print(f"bits_dev_max = {notes['bits_dev_max']}")
    correct = ok and failed == 0 and all(p.emitted_ok for p in passes)
    print(json.dumps({"correct": bool(correct), "attempted": len(rows),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

import numpy as np
import pytest
from click.testing import CliRunner

from fdwiretap import bcd, cli, harness
from fdwiretap.errors import NonPositiveDefinite

CONFIG = """\
M_a: 2
M_bt: 2
M_br: 2
M_e: 2
N: 2
kappa_db: -30.0
beta_db: -30.0
strategies: [Equal-FD, Equal-HD]
trials: 2
master_seed: 3
outer_tol: 1.0e-3
inner_tol: 1.0e-4
"""


def write_config(tmp_path, text=CONFIG):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return str(path)


def test_run_writes_results(tmp_path):
    outdir = tmp_path / "out"
    result = CliRunner().invoke(cli.main, ["run", write_config(tmp_path),
                                           "-o", str(outdir)])
    assert result.exit_code == 0, result.output
    for name in ("aggregate.csv", "trials.csv", "metadata.json"):
        assert (outdir / name).exists()


def test_run_bad_config_exits_2(tmp_path):
    cfg = write_config(tmp_path, CONFIG + "unknown_knob: 1\n")
    result = CliRunner().invoke(cli.main, ["run", cfg, "-o",
                                           str(tmp_path / "out")])
    assert result.exit_code == 2
    assert "config error" in result.output


@pytest.mark.parametrize("command", [
    ["run"], ["sweep", "--param", "W_max_db", "--values", "0"]])
def test_unknown_strategy_exits_2(tmp_path, command):
    cfg = write_config(tmp_path, CONFIG.replace("Equal-HD", "Maximal-FD"))
    outdir = tmp_path / "out"
    result = CliRunner().invoke(cli.main, [*command, cfg, "-o", str(outdir)])
    assert result.exit_code == 2, result.output
    assert "config error: unknown strategy 'Maximal-FD'" in result.output
    assert not outdir.exists()


@pytest.mark.parametrize("old, new, key", [
    ("trials: 2", 'trials: "2"', "trials"),
    ("trials: 2", 'trials: 2\nmax_outer: "5"', "max_outer"),
    ("trials: 2", "trials: 2\nsweep_values: 3", "sweep_values"),
    # YAML reads 1e-3, without a decimal point, as a string.
    ("outer_tol: 1.0e-3", "outer_tol: 1e-3", "outer_tol"),
    ("strategies: [Equal-FD, Equal-HD]", "strategies: Optimal-FD",
     "strategies"),
    ("trials: 2", "trials: 2\nsweep_param: M_b\nsweep_values: [2, 0]",
     "sweep_values"),
])
def test_run_malformed_value_exits_2(tmp_path, old, new, key):
    cfg = write_config(tmp_path, CONFIG.replace(old, new))
    outdir = tmp_path / "out"
    result = CliRunner().invoke(cli.main, ["run", cfg, "-o", str(outdir)])
    assert result.exit_code == 2, result.output
    assert f"config error: {key}" in result.output
    assert not outdir.exists()


def test_run_numerical_failure_exits_3(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, CONFIG.replace(
        "strategies: [Equal-FD, Equal-HD]", "strategies: [Optimal-FD]"))

    def boom(*args, **kwargs):
        raise NonPositiveDefinite("synthetic failure")

    monkeypatch.setattr(bcd, "optimize_bidirectional", boom)
    outdir = tmp_path / "out"
    result = CliRunner().invoke(cli.main, ["run", cfg, "-o", str(outdir)])
    assert result.exit_code == 3
    # Partial results are still on disk.
    assert (outdir / "trials.csv").exists()
    assert "NumericalTrouble" in (outdir / "trials.csv").read_text()


def test_a_budget_below_float_resolution_exits_3(tmp_path):
    """At w_max_db -200 the solver's water level cannot be resolved, so
    Optimal-FD's row reads NumericalTrouble and the run exits 3, with no
    traceback.  (At x_max_db -200 the duality gap of the start is already
    within tolerance, so no solve projects a trial point.)"""
    cfg = write_config(tmp_path, CONFIG.replace(
        "strategies: [Equal-FD, Equal-HD]", "strategies: [Optimal-FD]\n"
        "w_max_db: -200").replace("trials: 2", "trials: 1"))
    outdir = tmp_path / "out"
    result = CliRunner().invoke(cli.main, ["run", cfg, "-o", str(outdir)])
    assert result.exit_code == 3, result.output
    (row,) = harness.load_results(outdir).trial_rows
    assert (row.strategy, row.status) == ("Optimal-FD", "NumericalTrouble")


def test_sweep_override(tmp_path):
    outdir = tmp_path / "out"
    result = CliRunner().invoke(cli.main, [
        "sweep", write_config(tmp_path), "--param", "W_max_db",
        "--values", "-10,0", "-o", str(outdir)])
    assert result.exit_code == 0, result.output
    text = (outdir / "aggregate.csv").read_text()
    assert "W_max_db" in text
    # 2 strategies x 2 sweep values of aggregates plus the header.
    assert len(text.strip().splitlines()) == 5


def test_sweep_value_the_params_reject_exits_2(tmp_path):
    """A zero or fractional antenna count is a config error at load, not a
    truncated count."""
    outdir = tmp_path / "out"
    for param, values in (("M_b", "2,0"), ("M_b", "2,2.9"),
                          ("M_e", "2,2.9")):
        result = CliRunner().invoke(cli.main, [
            "sweep", write_config(tmp_path), "--param", param,
            "--values", values, "-o", str(outdir)])
        assert result.exit_code == 2, (param, values, result.output)
        assert "config error: sweep_values" in result.output
        assert not outdir.exists()


def test_waterfill_stdout():
    result = CliRunner().invoke(cli.main, [
        "waterfill", "--alpha", "2.0,1.0", "--beta", "0.5,2.0",
        "--budget", "2.0"])
    assert result.exit_code == 0
    lines = [ln for ln in result.output.strip().splitlines()
             if "water level" not in ln]
    assert lines[0].startswith("subcarrier,")
    total = lines[-1].split(",")
    assert total[0] == "total"
    assert float(total[3]) <= 2.0 + 1e-9
    # The dominated subcarrier (beta > alpha) gets no power.
    assert float(lines[2].split(",")[3]) == 0.0
    result = CliRunner().invoke(cli.main, [
        "waterfill", "--alpha", "2,1,3", "--beta", "0.5,1.5,1",
        "--budget", "2"])
    assert result.exit_code == 0
    assert result.stdout == (
        "subcarrier,alpha,beta,power,secrecy_nats\n"
        "0,2.0,0.5,1.1266714155464508,0.7328612185255275\n"
        "1,1.0,1.5,0.0,0.0\n"
        "2,3.0,1.0,0.8733285739429443,0.6587532469493116\n"
        "total,,,1.9999999894893952,1.3916144654748392\n")


def test_waterfill_writes_the_csv_to_a_file(tmp_path):
    args = ["waterfill", "--alpha", "2,1,3", "--beta", "0.5,1.5,1",
            "--budget", "2"]
    out = tmp_path / "alloc.csv"
    result = CliRunner().invoke(cli.main, args + ["-o", str(out)])
    assert result.exit_code == 0
    assert result.stdout == ""
    assert out.read_text() == CliRunner().invoke(cli.main, args).stdout


def test_waterfill_length_mismatch_exits_2():
    result = CliRunner().invoke(cli.main, [
        "waterfill", "--alpha", "2.0,1.0", "--beta", "0.5",
        "--budget", "1.0"])
    assert result.exit_code == 2


def test_bench_init_csv_shape():
    result = CliRunner().invoke(cli.main, [
        "bench-init", "--trials", "1", "--restarts", "2", "--m", "2",
        "--subcarriers", "2"])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert lines[0] == "trial,uniform_bits,beam_bits,benchmark_bits"
    fields = lines[1].split(",")
    assert fields[0] == "0"
    assert all(np.isfinite(float(v)) for v in fields[1:])


def test_bench_init_bad_antenna_count_exits_2():
    result = CliRunner().invoke(cli.main, ["bench-init", "--m", "0"])
    assert result.exit_code == 2
    assert "config error: M_a must be a positive integer" in result.output


def test_bench_init_failed_trial_exits_3(monkeypatch):
    def boom(*args, **kwargs):
        raise NonPositiveDefinite("synthetic failure")

    monkeypatch.setattr(bcd, "optimize", boom)
    result = CliRunner().invoke(cli.main, [
        "bench-init", "--trials", "2", "--restarts", "2"])
    assert result.exit_code == 3
    assert result.stdout == "trial,uniform_bits,beam_bits,benchmark_bits\n"
    assert "1,failed,failed,failed  # synthetic failure" in result.stderr


def call(name, *args, edit=("", ""), code=2, field=None):
    """One CLI call: its arguments, where CFG is the config file edited by
    replacing ``edit[0]`` with ``edit[1]``, OUT an output path that does
    not exist yet, MISSING a path in a missing directory, BLOCKED a path
    under a regular file and NOCFG a config file that does not exist; its
    exit code; and the field, option or path that an exit 2 names after
    "config error:"."""
    return pytest.param(list(args), edit, code, field, id=name)


WATERFILL = ("waterfill", "--alpha", "2,1", "--beta", "0.5,0.2")


@pytest.mark.parametrize("args, edit, code, field", [
    call("run", "run", "CFG", "-o", "OUT", code=0),
    call("sweep", "sweep", "CFG", "--param", "W_max_db", "--values", "-10",
         "-o", "OUT", code=0),
    call("waterfill", *WATERFILL, "--budget", "2", "-o", "OUT", code=0),
    call("bench-init", "bench-init", "--trials", "1", "--restarts", "1",
         "--seed", "0", "--m", "1", "--subcarriers", "1", code=0),
    *(call(f"run-{key}-nan", "run", "CFG", "-o", "OUT",
           edit=("N: 2", f"N: 2\n{key}: .nan"), field=field)
      for key, field in (("x_max_db", "X_max"), ("noise_db", "noise[a]"),
                         ("eta_db", "eta[ab]"), ("K_R", "K_R"))),
    call("run-kappa_db-nan", "run", "CFG", "-o", "OUT",
         edit=("kappa_db: -30.0", "kappa_db: .nan"), field="kappa[a]"),
    call("run-master_seed", "run", "CFG", "-o", "OUT",
         edit=("master_seed: 3", "master_seed: -1"), field="master_seed"),
    call("run-inner_tol-nan", "run", "CFG", "-o", "OUT",
         edit=("inner_tol: 1.0e-4", "inner_tol: .nan"), field="inner_tol"),
    call("sweep-W_max_db-nan", "sweep", "CFG", "--param", "W_max_db",
         "--values", "0,nan", "-o", "OUT", field="sweep_values"),
    call("sweep-csi_error_db-nan", "sweep", "CFG", "--param", "csi_error_db",
         "--values", "-inf,nan", "-o", "OUT", field="sweep_values"),
    call("bench-init-kappa-nan", "bench-init", "--kappa-db", "nan",
         field="kappa[a]"),
    call("bench-init-seed", "bench-init", "--seed", "-1", field="--seed"),
    call("bench-init-restarts", "bench-init", "--restarts", "0",
         field="--restarts"),
    call("waterfill-budget-nan", *WATERFILL, "--budget", "nan", "-o", "OUT",
         field="X_max"),
    call("waterfill-budget-inf", *WATERFILL, "--budget", "inf", "-o", "OUT",
         field="X_max"),
    call("waterfill-alpha", "waterfill", "--alpha", "-2,1", "--beta", "0,0",
         "--budget", "1", "-o", "OUT", field="alpha"),
    call("waterfill-missing-dir", *WATERFILL, "--budget", "1", "-o",
         "MISSING", field="MISSING"),
    *(call(f"run-{key}-huge", "run", "CFG", "-o", "OUT",
           edit=("N: 2", f"N: 2\n{key}: 4000.0"), field=field)
      for key, field in (("x_max_db", "X_max"), ("eta_db", "eta[ab]"))),
    *(call(f"sweep-{param}-huge", "sweep", "CFG", "--param", param,
           "--values", "4000", "-o", "OUT", field=param.removesuffix("_db"))
      for param in ("X_max_db", "csi_error_db")),
    call("bench-init-kappa-huge", "bench-init", "--kappa-db", "4000",
         field="kappa[a]"),
    call("bench-init-trials", "bench-init", "--trials", "-1",
         field="--trials"),
    call("run-malformed-yaml", "run", "CFG", "-o", "OUT",
         edit=("M_a: 2", "M_a: [2"), field="CFG"),
    call("run-blocked", "run", "CFG", "-o", "BLOCKED", field="BLOCKED"),
    call("sweep-values-text", "sweep", "CFG", "--param", "W_max_db",
         "--values", "abc", "-o", "OUT", field="--values"),
    call("waterfill-alpha-text", "waterfill", "--alpha", "x,1", "--beta",
         "0.5,0.2", "--budget", "1", "-o", "OUT", field="--alpha"),
    call("waterfill-budget-text", "waterfill", "--alpha", "1", "--beta", "0",
         "--budget", "abc", "-o", "OUT", field="--budget"),
    call("run-missing-config", "run", "NOCFG", "-o", "OUT", field="NOCFG"),
    *(call(f"run-strategies-{name}", "run", "CFG", "-o", "OUT",
           edit=("strategies: [Equal-FD, Equal-HD]", f"strategies: {value}"),
           field="strategies")
      for name, value in (("empty", "[]"),
                          ("repeated", "[Equal-FD, Equal-FD]"))),
])
def test_exit_codes(tmp_path, args, edit, code, field):
    """Exit 0 on a valid call; exit 2 on a config that is not valid YAML
    or does not exist, an option that is not a number or a list of numbers,
    a number that is out of range or not finite, or an output path that
    cannot be written, naming the field, option or path on one line and
    writing nothing."""
    cfg = write_config(tmp_path, CONFIG.replace(*edit))
    (tmp_path / "file").write_text("")
    paths = {"CFG": cfg, "OUT": str(tmp_path / "out"),
             "MISSING": str(tmp_path / "missing" / "alloc.csv"),
             "BLOCKED": str(tmp_path / "file" / "out"),
             "NOCFG": str(tmp_path / "missing.yaml")}
    result = CliRunner().invoke(cli.main, [paths.get(a, a) for a in args])
    assert result.exit_code == code, result.output
    if code == 2:
        (message,) = result.output.splitlines()
        assert message.startswith("config error:")
        assert paths.get(field, field) in message
        assert not (tmp_path / "out").exists()
        assert (tmp_path / "file").read_text() == ""
    else:
        assert "config error" not in result.output


def test_unwritable_outdir_exits_2_before_any_trial(tmp_path, monkeypatch):
    """``run -o`` under a regular file is found before the first trial, not
    after the last."""
    def no_trial(*args, **kwargs):
        raise AssertionError("run_trial called")

    monkeypatch.setattr(harness, "run_trial", no_trial)
    (tmp_path / "file").write_text("")
    outdir = tmp_path / "file" / "out"
    result = CliRunner().invoke(cli.main, ["run", write_config(tmp_path),
                                           "-o", str(outdir)])
    assert result.exit_code == 2, result.output
    assert result.output == (f"config error: [Errno 20] Not a directory: "
                             f"'{outdir}'\n")


def test_value_error_inside_a_run_is_not_a_config_error(tmp_path, monkeypatch):
    """Only a ConfigError or an OSError exits 2: any other ValueError raised
    during a run is a fault of the program, so it keeps its traceback."""
    def broken(cfg):
        raise ValueError("synthetic programming error")

    monkeypatch.setattr(harness, "run_experiment", broken)
    result = CliRunner().invoke(cli.main, ["run", write_config(tmp_path),
                                           "-o", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert isinstance(result.exception, ValueError)
    assert "config error" not in result.output

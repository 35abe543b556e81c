import numpy as np
import pytest
from click.testing import CliRunner

from fdwiretap import bcd, cli
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

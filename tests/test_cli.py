import numpy as np
import pytest

from beamgeneric.cli import CSV_HEADER, main, parse_config_text


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASE_CONFIG = """
# quick desk run
model = TimoshenkoFrictional
n = 16
length = 1.0
dt = 1e-3
t_end = 0.5
record_every = 5
amplitude = 0.1
mode = 1
"""


def test_parse_config_defaults_and_overrides():
    cfg = parse_config_text("model = TimoshenkoHeatI\nkappa = 0.5\nn = 32\n")
    assert cfg.model == "TimoshenkoHeatI"
    assert cfg.n == 32
    assert cfg.params.kappa == 0.5
    assert cfg.params.k == 1.0
    assert cfg.dt == 1e-3 and cfg.t_end == 10.0


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="kapa"):
        parse_config_text("model = TimoshenkoHeatI\nkapa = 1\n")


def test_parse_config_rejects_duplicates_and_garbage():
    with pytest.raises(ValueError, match="duplicate"):
        parse_config_text("model = A\nmodel = B\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config_text("model TimoshenkoHeatI\n")
    with pytest.raises(ValueError, match="model"):
        parse_config_text("n = 16\n")
    with pytest.raises(ValueError, match="cannot parse"):
        parse_config_text("model = X\nn = sixteen\n")


def test_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "diag.csv"
    cfg = write_config(tmp_path, BASE_CONFIG + f"output = {out}\n")
    assert main(["simulate", "--config", cfg]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    data = np.loadtxt(str(out), delimiter=",", skiprows=1)
    assert data.shape[1] == 7
    # entropy column nondecreasing for a damped run
    entropy = data[:, 2]
    assert np.all(np.diff(entropy) >= -1e-12)
    # energy column stays flat to integrator accuracy
    energy = data[:, 1]
    assert np.max(np.abs(energy - energy[0])) <= 1e-6 * abs(energy[0])


def test_simulate_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    cfg1 = write_config(tmp_path, BASE_CONFIG + f"output = {out1}\n", "a.cfg")
    cfg2 = write_config(tmp_path, BASE_CONFIG + f"output = {out2}\n", "b.cfg")
    assert main(["simulate", "--config", cfg1]) == 0
    assert main(["simulate", "--config", cfg2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_bad_config_exit_codes(tmp_path, capsys):
    cfg = write_config(tmp_path, "model = TimoshenkoHeatI\nkapa = 1\n")
    assert main(["simulate", "--config", cfg]) == 1
    assert "kapa" in capsys.readouterr().err

    cfg = write_config(tmp_path, "model = NoSuchModel\n")
    assert main(["simulate", "--config", cfg]) == 1

    assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 1

    # non-finite values, keys that nothing reads and a mode the grid would
    # alias are rejected at the boundary, naming the key
    for line, key in (("kappa = nan", "kappa"), ("length = inf", "length"),
                      ("t_end = inf", "t_end"), ("seed = 1", "seed"),
                      ("amplitude = nan", "amplitude"), ("amplitude = inf", "amplitude"),
                      ("mode = 9", "mode")):
        capsys.readouterr()
        cfg = write_config(
            tmp_path,
            f"model = TimoshenkoHeatI\nn = 16\n{line}\noutput = {tmp_path / 'x.csv'}\n",
        )
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err


def test_simulate_divergence_exit_code(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "model = TimoshenkoFrictional\nn = 16\ndt = 1e-3\nt_end = 1.0\n"
        f"amplitude = 1e200\noutput = {tmp_path / 'x.csv'}\n",
    )
    assert main(["simulate", "--config", cfg]) == 2
    assert "step" in capsys.readouterr().err


def test_verify_single_model(capsys):
    assert main(["verify", "--model", "TimoshenkoFrictional", "--trials", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 5
    for line in lines:
        parts = line.split()
        assert parts[0] == "TimoshenkoFrictional"
        assert parts[-1] == "PASS"
        float(parts[2])
        float(parts[3])


def test_verify_unknown_model_and_bad_trials(capsys):
    assert main(["verify", "--model", "WhatBeam", "--trials", "3"]) == 1
    assert main(["verify", "--model", "TimoshenkoHeatI", "--trials", "0"]) == 1


def test_decay_frictional(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "model = TimoshenkoFrictional\nn = 16\ndt = 1e-3\nt_end = 6.0\nrecord_every = 20\n",
    )
    assert main(["decay", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "decay_rate" in out
    rate = float(out.split("decay_rate")[1].split()[0])
    assert rate < 0.0
    assert "confidence" in out


def test_decay_zero_energy_is_domain_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "model = TimoshenkoFrictional\nn = 16\ndt = 1e-3\nt_end = 2.0\n"
        "record_every = 20\namplitude = 0.0\n",
    )
    assert main(["decay", "--config", cfg]) == 2
    assert "positive" in capsys.readouterr().err


def test_decay_undamped_warns(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "model = TimoshenkoUndamped\nn = 16\ndt = 1e-3\nt_end = 6.0\nrecord_every = 20\n",
    )
    assert main(["decay", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "warning" in out
    rate = float(out.split("decay_rate")[1].split()[0])
    assert abs(rate) <= 1e-6


def test_verify_all_models(capsys):
    assert main(["verify", "--model", "all", "--trials", "2", "--seed", "0"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    assert len(lines) == 50  # ten models, five checks each
    assert all(ln.endswith("PASS") for ln in lines)
    # buffered per model, reported in catalog order
    assert lines[0].startswith("TimoshenkoUndamped")
    assert lines[-1].startswith("BresseHeatII")


def test_console_script_entry_point(tmp_path):
    import shutil
    import subprocess

    exe = shutil.which("beamgeneric")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run(
        [exe, "verify", "--model", "TimoshenkoUndamped", "--trials", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_usage_errors_exit_one(capsys):
    assert main(["simulate"]) == 1          # missing --config
    assert main(["no-such-command"]) == 1

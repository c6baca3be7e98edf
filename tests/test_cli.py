import itertools
import math
import tracemalloc

import numpy as np
import pytest

from beamgeneric import cli
from beamgeneric.cli import CSV_HEADER, main, parse_config_text
from beamgeneric.engine import DiagnosticsRecord
from conftest import needs_scipy, new_needs_scipy, run_python


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
    assert cfg.dt is None and cfg.t_end == 10.0   # unset: the run picks its step


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="kapa"):
        parse_config_text("model = TimoshenkoHeatI\nkapa = 1\n")


def test_parse_config_rejects_an_empty_key_at_its_line(tmp_path, capsys):
    with pytest.raises(ValueError, match=r"^line 2: empty key in '= 4'$"):
        parse_config_text("model = TimoshenkoHeatI\n = 4\n")
    cfg = write_config(tmp_path, "model = TimoshenkoHeatI\n\n= 4\n")
    assert main(["simulate", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: line 3: empty key in '= 4'\n"
    with pytest.raises(ValueError, match=r"^unknown config key\(s\): 'a b', 'kapa'$"):
        parse_config_text("model = TimoshenkoHeatI\nkapa = 1\na b = 2\n")


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


@pytest.mark.parametrize("model", new_needs_scipy(m.value for m in cli.ALL_MODEL_IDS))
def test_simulate_without_dt_runs_every_model(tmp_path, capsys, model):
    # an unset dt is DEFAULT_DT capped at the model's step bound, so the
    # documented minimal config runs for every model of the catalog
    out = tmp_path / "diag.csv"
    cfg = write_config(tmp_path, f"model = {model}\noutput = {out}\nt_end = 0.05\n")
    assert main(["simulate", "--config", cfg]) == 0
    assert capsys.readouterr().err == ""
    bound = cli.build_model(cli.ModelId(model)).dt_bound
    t = np.loadtxt(str(out), delimiter=",", skiprows=1)[:, 0]
    assert t[1] == 10 * min(cli.DEFAULT_DT, bound)


def test_simulate_explicit_dt_above_the_bound_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, f"model = TimoshenkoHeatI\ndt = 1e-3\noutput = {tmp_path / 'x.csv'}\n")
    assert main(["simulate", "--config", cfg]) == 1
    assert "dt=0.001 exceeds the stable bound" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_simulate_of_a_slowly_moving_model_above_its_finite_bound_exits_one(tmp_path, capsys):
    # tiny stiffnesses give a bound of 3.95e6, not inf: a step of 1e9, which
    # would write energy = inf, must be refused before the run
    cfg = write_config(tmp_path, "model = TimoshenkoUndamped\nk = 1e-16\nb = 1e-16\ndt = 1e9\n"
                                 f"t_end = 3e10\noutput = {tmp_path / 'x.csv'}\n")
    assert main(["simulate", "--config", cfg]) == 1
    assert "dt=1e+09 exceeds the stable bound 3.94652e+06" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


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

    # finite but extreme constants overflow the model's derivation: rejected
    # without leaking numpy warnings (an error under the pytest settings),
    # the ones that turn its results non-finite with a message that says so
    for line, message in (("alpha = 1e-320", "not finite"), ("k = 1e308", "not finite"),
                          ("length = 1e-300", "not finite"), ("kappa = 1e300", "stable step")):
        capsys.readouterr()
        cfg = write_config(
            tmp_path,
            f"model = TimoshenkoHeatI\nn = 64\n{line}\noutput = {tmp_path / 'x.csv'}\n",
        )
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


def test_simulate_rejects_output_before_the_run(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("integrate must not run for a bad output path")

    monkeypatch.setattr(cli, "integrate", fail)
    for output in (tmp_path / "missing" / "x.csv", tmp_path, f"{tmp_path / 'x.csv'}/"):
        cfg = write_config(tmp_path, BASE_CONFIG + f"output = {output}\n")
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "output" in err
        assert "Traceback" not in err


def test_simulate_rejects_an_empty_output_before_the_run(tmp_path, capsys, monkeypatch):
    # "" is not a directory and its directory (the cwd) exists, so only its
    # missing file name rejects it
    def fail(*args, **kwargs):
        raise AssertionError("integrate must not run for an empty output path")

    monkeypatch.setattr(cli, "integrate", fail)
    cfg = write_config(tmp_path, BASE_CONFIG + "output =\n")
    assert main(["simulate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "config key 'output': '' is not a file in an existing directory" in err
    assert "Traceback" not in err


def test_simulate_divergence_exit_code(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "model = TimoshenkoFrictional\nn = 16\ndt = 1e-3\nt_end = 1.0\n"
        f"amplitude = 1e200\noutput = {tmp_path / 'x.csv'}\n",
    )
    # TimoshenkoFrictional is linear: the Fourier path's replay names the
    # first bad step, and the error carries no traceback
    assert main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "non-finite state at step 1 (" in err
    assert "Traceback" not in err


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


def test_verify_negative_seed_names_the_key(capsys):
    assert main(["verify", "--model", "TimoshenkoHeatI", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be a non-negative integer, got -1\n"
    assert captured.out == ""


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


def test_decay_frictional_over_a_long_horizon(tmp_path, capsys):
    # by t = 40 the mechanical energy is about 5e-18 of the total; taken as
    # the sum of the square terms it stays positive, and the rate is -1
    cfg = write_config(
        tmp_path,
        "model = TimoshenkoFrictional\nn = 64\nt_end = 40\nrecord_every = 100\n",
    )
    assert main(["decay", "--config", cfg]) == 0
    out = capsys.readouterr().out
    rate = float(out.split("decay_rate")[1].split()[0])
    assert abs(rate + 1.0) <= 1e-3
    assert "(5/5 windows negative)" in out


def test_a_constant_the_model_does_not_read_is_rejected(tmp_path, capsys):
    with pytest.raises(ValueError, match=r"^TimoshenkoFrictional does not read the constant\(s\) 'kappa'$"):
        parse_config_text("model = TimoshenkoFrictional\nkappa = 5\n")
    with pytest.raises(ValueError, match=r"^TimoshenkoNew does not read the constant\(s\) 'k0', 'alpha'$"):
        parse_config_text("model = TimoshenkoNew\nalpha = 2\ndelta = 0.5\nk0 = 3\n")
    assert parse_config_text("model = TimoshenkoNew\ndelta = 0.5\n").params.delta == 0.5
    cfg = write_config(tmp_path, f"model = TimoshenkoFrictional\nkappa = 5\noutput = {tmp_path / 'x.csv'}\n")
    assert main(["simulate", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: TimoshenkoFrictional does not read the constant(s) 'kappa'\n"
    assert not (tmp_path / "x.csv").exists()


def test_decay_refuses_too_few_records_for_the_windows(tmp_path, capsys):
    # 10 records fit a rate, but their last half (5) cannot give each of the
    # five windows two records; 11 can
    text = "model = TimoshenkoFrictional\nn = 16\ndt = 1e-3\nrecord_every = 1\n"
    cfg = write_config(tmp_path, text + "t_end = 0.009\n")
    assert main(["decay", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert "last half" in captured.err
    assert "Traceback" not in captured.err
    assert "confidence" not in captured.out
    cfg = write_config(tmp_path, text + "t_end = 0.01\n")
    assert main(["decay", "--config", cfg]) == 0
    assert "/5 windows negative)" in capsys.readouterr().out


def test_decay_rejects_output(tmp_path, capsys):
    # decay writes no file, so an output key would be silently ignored
    for output in ("/nonexistent/dir/x.csv", tmp_path / "x.csv"):
        cfg = write_config(tmp_path, BASE_CONFIG + f"output = {output}\n")
        assert main(["decay", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "'output'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()


def test_simulate_keeps_its_default_output(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["simulate", "--config", cfg]) == 0
    assert (tmp_path / cli.DEFAULT_OUTPUT).read_text().startswith(CSV_HEADER)


def _records(count):
    return [DiagnosticsRecord(0.1 * i, 1.0 / 3.0, -i / 7.0, math.exp(-i), 0.0, 0.0, math.nan)
            for i in range(count)]


def _csv_bytes(records):
    """The CSV text formatted one ``_CSV_ROW`` line at a time."""
    return (CSV_HEADER + "\n" + "".join(cli._CSV_ROW % r for r in records)).encode("ascii")


def test_write_csv_is_the_row_by_row_formatting(tmp_path):
    records = _records(5)
    path = tmp_path / "out.csv"
    cli.write_csv(str(path), records)
    assert path.read_bytes() == _csv_bytes(records)


def test_write_csv_over_a_longer_file_leaves_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "out.csv"
    cli.write_csv(str(path), _records(40))
    longer = path.stat().st_size
    cli.write_csv(str(path), _records(3))
    assert path.stat().st_size < longer
    assert path.read_bytes() == _csv_bytes(_records(3))


def test_simulate_to_a_file_that_is_not_regular(tmp_path, capsys):
    # /dev/null cannot be truncated; a file that is not regular is only written
    cfg = write_config(tmp_path, BASE_CONFIG + "output = /dev/null\n")
    assert main(["simulate", "--config", cfg]) == 0
    assert "records to /dev/null" in capsys.readouterr().out


def test_write_csv_that_raises_leaves_none_of_the_old_file(tmp_path, monkeypatch):
    # the file is truncated on open: a write that fails part way (here the
    # second chunk, whose last record cannot be formatted) leaves the rows
    # written before it and no byte of the old file
    path = tmp_path / "out.csv"
    cli.write_csv(str(path), _records(40))
    monkeypatch.setattr(cli, "_CSV_CHUNK", 2)
    records = _records(3) + [_records(1)[0]._replace(t="not a time")]
    with pytest.raises(TypeError):
        cli.write_csv(str(path), records)
    assert path.read_bytes() == _csv_bytes(records[:2])


def test_write_csv_holds_one_chunk_of_text_at_a_time(tmp_path):
    # a long run is formatted and written a chunk at a time, so the text
    # held at once stays a small share of the file however long the run
    records = _records(40_000)
    path = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        cli.write_csv(str(path), records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == _csv_bytes(records)
    assert peak < path.stat().st_size / 2


def test_underflowing_step_bound_names_model_and_spectral_radius(tmp_path, capsys):
    cfg = write_config(tmp_path, "model = TimoshenkoHeatI\nkappa = 1e300\n")
    assert main(["decay", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "TimoshenkoHeatI" in err
    assert "underflows" in err
    assert "spectral radius 4.096e+303" in err
    assert "Traceback" not in err


def test_decay_zero_energy_is_domain_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "model = TimoshenkoFrictional\nn = 16\ndt = 1e-3\nt_end = 2.0\n"
        "record_every = 20\namplitude = 0.0\n",
    )
    assert main(["decay", "--config", cfg]) == 2
    assert "positive" in capsys.readouterr().err


def test_decay_over_an_overflowing_energy_is_domain_error(tmp_path, capsys):
    # the state stays finite while its mechanical energy overflows to inf in
    # the fit window: the fit must refuse it, naming the first such record,
    # not print a NaN rate
    cfg = write_config(
        tmp_path,
        "model = TimoshenkoFrictional\nn = 16\nt_end = 1\namplitude = 1e153\n",
    )
    assert main(["decay", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: record 50 in the fit window is not finite (t = 0.5, mechanical energy inf)\n"
    )
    assert captured.out == ""


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


def _decay_output(tmp_path, capsys, model: str, n: int, mode: int) -> str:
    cfg = write_config(
        tmp_path,
        f"model = {model}\nn = {n}\nmode = {mode}\ndt = 5e-4\nt_end = 0.02\nrecord_every = 2\n",
    )
    assert main(["decay", "--config", cfg]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("model", new_needs_scipy(("TimoshenkoHeatI", "TimoshenkoNew")))
def test_decay_warns_on_an_undamped_mode(tmp_path, capsys, model):
    # at the Nyquist bin of an even n the central difference vanishes, so
    # the heat coupling cannot damp mode n/2; an odd n has no such bin
    out = _decay_output(tmp_path, capsys, model, 64, 32)
    assert f"warning: {model} does not damp mode 32 on n = 64" in out
    assert "decay_rate" in out
    for n, mode in ((64, 1), (65, 32)):
        assert "warning" not in _decay_output(tmp_path, capsys, model, n, mode), (n, mode)


def test_decay_no_warning_for_the_frictional_nyquist_mode(tmp_path, capsys):
    # friction damps every motion of mode n/2; its zero eigenvalue (a
    # zero-energy sawtooth of phi) is a steady state, not an undamped motion
    assert "warning" not in _decay_output(tmp_path, capsys, "TimoshenkoFrictional", 64, 32)


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


# --------------------------------------------------------------------------
# resource budget: every case fails before anything of its size is allocated


@pytest.mark.parametrize("command, text, estimate", [
    # a grid whose set-up alone would take hundreds of GiB
    ("simulate", "model = TimoshenkoHeatI\nn = 100000000\n", "estimated memory 477 GiB"),
    ("decay", "model = BresseHeatII\nn = 100000000\n", "estimated memory 763 GiB"),
    # 1e13 steps: their records alone are above the memory limit
    ("simulate", "model = TimoshenkoHeatI\nn = 16\ndt = 1e-12\n", "estimated memory"),
    # two records, but finding a first non-finite step may replay the
    # interval's 1e12 steps on 81 slots one by one
    ("simulate", "model = TimoshenkoHeatI\nn = 16\ndt = 1e-12\nt_end = 1\n"
     "record_every = 1000000000000\n", "estimated work 8.1e+13 slot updates"),
    # 1e9 stage steps of TimoshenkoNew on 80 slots hold few records
    ("simulate", "model = TimoshenkoNew\nn = 16\ndt = 1e-8\nrecord_every = 100000\n",
     "estimated work 8e+10 slot updates"),
])
def test_runs_above_the_budget_exit_one(tmp_path, capsys, command, text, estimate):
    if command == "simulate":
        text += f"output = {tmp_path / 'x.csv'}\n"
    assert main([command, "--config", write_config(tmp_path, text)]) == 1
    err = capsys.readouterr().err
    assert estimate in err
    assert "above the limit of" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


def test_budget_message_gives_a_huge_step_count_to_three_digits(tmp_path, capsys):
    # k = 1e300 shrinks TimoshenkoFrictional's step bound so far that the
    # run would take a 153-digit count of steps
    cfg = write_config(tmp_path, "model = TimoshenkoFrictional\nk = 1e300\n")
    assert main(["decay", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "error: TimoshenkoFrictional integrate over 2.51e+152 steps: estimated memory" in err
    assert "above the limit of" in err
    assert len(err) < 150


@pytest.mark.parametrize("config, error", [
    # the budget rejects the run
    ("model = TimoshenkoFrictional\nk = 1e300\n",
     "error: TimoshenkoFrictional integrate over 2.51e+152 steps: "),
    # mode n/2 is undamped, and the fit rejects the run's four records
    ("model = TimoshenkoHeatI\nmode = 32\ndt = 5e-4\nt_end = 0.003\nrecord_every = 2\n",
     "error: need at least 10 records for a decay fit, got 4"),
])
def test_decay_warns_nothing_for_a_run_it_rejects(tmp_path, capsys, config, error):
    # the undamped-mode warning comes only once the run has been accepted
    # and fitted, so a rejected run prints its error alone
    cfg = write_config(tmp_path, config)
    assert main(["decay", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(error)
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_verify_trials_above_the_budget_exit_one(capsys):
    # 1e9 trials of TimoshenkoUndamped's 257 slots at n = 64, each slot
    # counting VERIFY_WORK_WEIGHT = 4 updates
    assert main(["verify", "--model", "all", "--trials", "1000000000"]) == 1
    captured = capsys.readouterr()
    assert "estimated work 1.03e+12 slot updates is above the limit of 1e+10" in captured.err
    assert captured.out == ""


# --------------------------------------------------------------------------
# lean import


@needs_scipy
def test_import_and_verify_leave_scipy_unloaded():
    # scipy's CSR kernel loads with the first call of a compiled right-hand
    # side (step_rk4, TimoshenkoNew's stage path), from its extension module
    # alone: the package, the derivation and the object-level verifier load
    # no scipy, and nothing loads scipy.sparse
    proc = run_python(
        "import io, sys\n"
        "import beamgeneric as bg\n"
        "from beamgeneric import cli\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        "assert cli.cmd_verify('TimoshenkoHeatI', 1, 0, out=io.StringIO()) == 0\n"
        "assert 'scipy' not in sys.modules, 'verify'\n"
        "model = bg.build_model('TimoshenkoNew', bg.ModelParams(), bg.Grid(16, 1.0))\n"
        "z0 = bg.default_initial_state(model.id, model.grid)\n"
        "bg.integrate(model, z0, bg.IntegratorConfig(1e-4, 1e-3))\n"
        "assert 'scipy.sparse' not in sys.modules, 'TimoshenkoNew integrate'\n"
        "bg.step_rk4(model, z0, 1e-4)\n"
        "assert 'scipy.sparse' not in sys.modules, 'step_rk4'\n"
    )
    assert proc.returncode == 0, proc.stderr
    proc = run_python(
        "import sys\n"
        "import numpy as np\n"
        "import beamgeneric as bg\n"
        "model = bg.build_model('TimoshenkoHeatI', bg.ModelParams(), bg.Grid(16, 1.0))\n"
        "rhs = bg.compile_rhs(model)\n"
        "assert 'scipy' not in sys.modules, 'compile_rhs'\n"
        "rhs(np.zeros(model.layout.flat_dim))\n"
        "assert 'scipy.sparse' not in sys.modules, 'a call of compile_rhs(model)'\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_simulate_and_decay_leave_numpy_random_unloaded(tmp_path):
    # the derivation checks its Fourier form at a check state made without a
    # generator, so a simulate or decay of a linear model never imports
    # numpy.random (about 6 MB of resident memory and 12 ms); where numpy
    # imports it itself there is nothing to check
    proc = run_python("""
import sys
import numpy
if 'numpy.random' in sys.modules:
    sys.exit(3)
from beamgeneric import cli
config = 'model = TimoshenkoHeatI\\nn = 16\\nt_end = 2\\n'
with open('decay.cfg', 'w') as f:
    f.write(config)
with open('run.cfg', 'w') as f:
    f.write(config + 'output = run.csv\\n')
assert cli.main(['simulate', '--config', 'run.cfg']) == 0
assert 'numpy.random' not in sys.modules, 'simulate'
assert cli.main(['decay', '--config', 'decay.cfg']) == 0
assert 'numpy.random' not in sys.modules, 'decay'
""", cwd=tmp_path)
    if proc.returncode == 3:
        pytest.skip("numpy imports numpy.random itself")
    assert proc.returncode == 0, proc.stderr


@needs_scipy
def test_csr_kernel_is_loaded_once_and_scipy_sparse_still_imports():
    # every model reuses the kernel loaded once; a later import of
    # scipy.sparse binds a submodule of its own, its products stay right and
    # the stage steps stay bitwise the same
    proc = run_python("""
import sys
import numpy as np
import beamgeneric as bg
from beamgeneric import engine
grid = bg.Grid(16, 1.0)
before = []
for name in ('TimoshenkoNew', 'BresseHeatII', 'TimoshenkoNew'):
    model = bg.build_model(name, bg.ModelParams(), grid)
    before.append(bg.step_rk4(model, bg.default_initial_state(model.id, grid), 1e-4).flat)
assert engine._csr_matvec.cache_info().misses == 1, engine._csr_matvec.cache_info()
assert 'scipy.sparse' not in sys.modules
import scipy.sparse
assert scipy.sparse._sparsetools.csr_matvec is engine._csr_matvec()
dense = np.random.default_rng(5).standard_normal((40, 30)) * (np.arange(30) % 3 == 0)
y = np.linspace(-1.0, 1.0, 30)
assert np.allclose(scipy.sparse.csr_matrix(dense) @ y, dense @ y, rtol=1e-14, atol=1e-14)
for name, flat in zip(('TimoshenkoNew', 'BresseHeatII'), before):
    model = bg.build_model(name, bg.ModelParams(), grid)
    after = bg.step_rk4(model, bg.default_initial_state(model.id, grid), 1e-4).flat
    assert after.tobytes() == flat.tobytes(), name
""")
    assert proc.returncode == 0, proc.stderr


@needs_scipy
def test_csr_kernel_falls_back_to_the_scipy_sparse_package(tmp_path):
    # where scipy's directory holds no _sparsetools file (an editable build),
    # the kernel comes through the scipy.sparse package, with the same
    # records; an empty directory stands for that directory here
    proc = run_python(f"""
import sys
import beamgeneric as bg
from beamgeneric import engine
grid = bg.Grid(16, 1.0)
cfg = bg.IntegratorConfig(1e-4, 2e-3, 5)
def records():
    model = bg.build_model('TimoshenkoNew', bg.ModelParams(), grid)
    return bg.integrate(model, bg.default_initial_state(model.id, grid), cfg)
direct = records()
assert 'scipy.sparse' not in sys.modules
kernel = engine._load_csr_matvec([{str(tmp_path)!r}])
import scipy.sparse._sparsetools
assert kernel is scipy.sparse._sparsetools.csr_matvec
engine._csr_matvec = lambda: kernel
assert records() == direct
""")
    assert proc.returncode == 0, proc.stderr


#: makes every import of scipy fail, as on an install without it
_NO_SCIPY = """
import sys
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked: {name}")
sys.meta_path.insert(0, NoScipy())
"""


LINEAR_NAMES = tuple(m.value for m in cli.ALL_MODEL_IDS if m is not cli.ModelId.TIMOSHENKO_NEW)


def test_linear_models_run_without_scipy(tmp_path):
    # the nine linear models never call a compiled right-hand side, so their
    # whole library and CLI path runs where scipy cannot be imported; the
    # undamped ones have no dissipative rows, a branch of the derivation the
    # damped ones never take
    for name in LINEAR_NAMES:
        config = f"model = {name}\nn = 64\nt_end = 0.5\nrecord_every = 5\n"
        write_config(tmp_path, config + f"output = {tmp_path / name}.csv\n", f"{name}.cfg")
        write_config(tmp_path, config, f"{name}-decay.cfg")
    proc = run_python(_NO_SCIPY + f"LINEAR_NAMES = {LINEAR_NAMES!r}\n" + """
import io
from contextlib import redirect_stdout
import beamgeneric as bg
from beamgeneric import cli, engine
for name in LINEAR_NAMES:
    model = bg.build_model(name, bg.ModelParams(), bg.Grid(64, 1.0))
    dt = model.dt_bound
    bg.compile_rhs(model)
    z0 = bg.default_initial_state(model.id, model.grid)
    records = bg.integrate(model, z0, bg.IntegratorConfig(dt, 50 * dt, 5))
    assert len(records) == 11, name
    assert not model.damped or engine.mode_abscissa(model, 1) < 0.0, name
    with redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--config", f"{name}.cfg"]) == 0, name
        assert cli.main(["decay", "--config", f"{name}-decay.cfg"]) == 0, name
with redirect_stdout(io.StringIO()) as out:
    assert cli.main(["verify", "--model", "all"]) == 0
assert "FAIL" not in out.getvalue()
try:
    import scipy.sparse
except ImportError:
    pass
else:
    raise AssertionError("scipy was importable")
""", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in LINEAR_NAMES:
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) > 2


def test_timoshenko_new_without_scipy_exits_one(tmp_path):
    # TimoshenkoNew steps on its compiled right-hand side, whose first call
    # loads scipy's CSR kernel: where a finder refuses scipy, or none finds
    # it, simulate and decay exit 1 naming the model and scipy, with no
    # traceback and no CSV
    config = "model = TimoshenkoNew\nn = 16\nt_end = 0.01\n"
    write_config(tmp_path, config + "output = new.csv\n", "new.cfg")
    write_config(tmp_path, config, "new-decay.cfg")
    not_found = "import importlib.util\nimportlib.util.find_spec = lambda name, package=None: None\n"
    cases = ((_NO_SCIPY, "scipy is blocked: scipy"), (not_found, "No module named 'scipy')"))
    for (block, reason), argv in itertools.product(
            cases, (["simulate", "--config", "new.cfg"], ["decay", "--config", "new-decay.cfg"])):
        proc = run_python(block + f"""
import sys
from beamgeneric import cli
sys.exit(cli.main({argv!r}))
""", cwd=tmp_path)
        assert proc.returncode == 1, (argv, proc.stderr)
        assert proc.stdout == "", argv
        assert proc.stderr.startswith(
            "error: TimoshenkoNew: the compiled right-hand side needs scipy, which cannot be "
            f"imported ({reason}"), argv
        assert "Traceback" not in proc.stderr, argv
    assert not (tmp_path / "new.csv").exists()


# --------------------------------------------------------------------------
# seeded fuzzer of config files


_FUZZ_FLOATS = ("0.5", "1", "2.0", "1e-300", "5e-324", "1e300", "-1", "-1e-3", "0", "nan",
                "-inf", "inf", "x", "", "é", "１", "1e999", "0x10", "1_0")
_FUZZ_INTS = ("0", "-1", "1", "3", "4", "5", "16", "1e3", "2.5", "", "nan", "ünï",
              "99999999999999999999", "٣")


def _fuzz_config(rng, tmp_path) -> str:
    """One config text: the run's and the model's keys with values drawn
    from the valid and the invalid, plus unknown and duplicate keys.  n is at
    most 16 (or fails before any allocation) and t_end at most 10 dt."""
    def pick(values):
        return values[int(rng.integers(len(values)))]

    lines = {}
    if rng.random() < 0.95:
        lines["model"] = pick([m.value for m in cli.ALL_MODEL_IDS] * 3 + ["NoBeam", "", "Tïmo"])
    lines["n"] = str(int(rng.integers(4, 17))) if rng.random() < 0.75 else pick(_FUZZ_INTS)
    if rng.random() < 0.8:
        dt = float(10.0 ** rng.uniform(-6, -1))
        lines["dt"] = repr(dt)
        lines["t_end"] = repr(dt * float(rng.uniform(1.0, 10.0)))
    else:
        lines["dt"], lines["t_end"] = pick(_FUZZ_FLOATS), pick(_FUZZ_FLOATS)
    if rng.random() < 0.3:
        lines["amplitude"] = pick(("0.1", "1e200", "1e-300", "0", "-0.2") + _FUZZ_FLOATS)
    if rng.random() < 0.3:
        lines["record_every"] = pick(("1", "2", "7") + _FUZZ_INTS)
    for key in rng.permutation(sorted(cli._KEY_TYPES)):
        if key in lines or rng.random() > 0.05:
            continue
        if key == "output":
            lines[key] = pick([str(tmp_path / "out.csv"), str(tmp_path), str(tmp_path / "no" / "x"),
                               str(tmp_path / "ü.csv"), ""])
        elif cli._KEY_TYPES[key] is int:
            lines[key] = pick(_FUZZ_INTS)
        else:
            lines[key] = pick(_FUZZ_FLOATS)
    text = [f"{key} = {value}" for key, value in lines.items()]
    if rng.random() < 0.1:
        text.append(pick(["kapa = 1", "n_steps = 3", "= 4", "model", "# note = 1"]))
    if rng.random() < 0.1:
        text.append(pick(text))
    return "\n".join(str(line) for line in rng.permutation(text)) + "\n"


def test_fuzzed_configs_exit_cleanly(tmp_path, capsys, monkeypatch):
    # every config either runs (exit 0, nothing on stderr) or fails with one
    # 'error:' line and exit 1 or 2; no exception escapes main
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(2026)
    codes = set()
    for case in range(300):
        text = _fuzz_config(rng, tmp_path)
        path = write_config(tmp_path, text)
        command = "simulate" if rng.random() < 0.7 else "decay"
        code = main([command, "--config", path])
        err = capsys.readouterr().err
        codes.add(code)
        assert code in (0, 1, 2), (case, text)
        if code == 0:
            assert err == "", (case, text, err)
        else:
            assert err.count("\n") == 1 and err.startswith("error: "), (case, text, err)
    assert codes == {0, 1, 2}

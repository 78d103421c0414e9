"""Command-line surface: exit codes, artifacts, summary lines."""

import re

import pytest

from asym_pe import cli
from asym_pe.game import OutcomeKind
from asym_pe.trace_io import parse_trace_csv


FAST_SCENARIO = "preset: fig2_collision\nt_max: 0.2\n"


@pytest.fixture()
def fast_file(tmp_path):
    path = tmp_path / "quick.yaml"
    path.write_text(FAST_SCENARIO)
    return path


def test_presets_command(capsys):
    assert cli.main(["presets"]) == 0
    out = capsys.readouterr().out.split()
    assert len(out) == 8
    assert "fig2_collision" in out
    assert "fig9_local_minimum" in out


def test_run_writes_trace(tmp_path, fast_file, capsys):
    rc = cli.main(["run", str(fast_file), "--out", str(tmp_path / "results")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "outcome=Timeout" in out
    trace_path = tmp_path / "results" / "quick_trace.csv"
    assert trace_path.is_file()
    parsed = parse_trace_csv(trace_path.read_text())
    assert parsed.outcome_kind == "Timeout"
    assert parsed.t_end == pytest.approx(0.2)
    assert len(parsed.rows) == 3  # two decision rows plus the terminal row


def test_run_with_preset_name(tmp_path, capsys):
    rc = cli.main(["run", "fig2_collision", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "outcome=PursuerCollision" in out
    assert (tmp_path / "fig2_collision_trace.csv").is_file()


def test_field_command(tmp_path, capsys):
    rc = cli.main(["field", "fig3_desensitized", "--t", "1.0",
                   "--grid", "0,4,-1,3,5", "--out", str(tmp_path)])
    assert rc == 0
    assert "points=25" in capsys.readouterr().out
    text = (tmp_path / "fig3_desensitized_field.csv").read_text()
    assert len(text.strip().splitlines()) == 26


def test_sweep_command(fast_file, capsys):
    rc = cli.main(["sweep", str(fast_file), "--vary", "epsilon=0.3,0.5"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert "epsilon=0.3" in lines[0]
    assert "epsilon=0.5" in lines[1]


def test_sweep_rejects_unknown_field(fast_file, capsys):
    rc = cli.main(["sweep", str(fast_file), "--vary", "wingspan=1,2"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("vary,message", [
    ("Q=abc", "error: Q must be"), ("Q=[1", "error: bad --vary values")])
def test_sweep_rejects_a_malformed_value(fast_file, capsys, vary, message):
    rc = cli.main(["sweep", str(fast_file), "--vary", vary])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_scenario_file_with_a_bad_number_is_an_error(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("preset: fig2_collision\nN: abc\n")
    rc = cli.main(["run", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert "error: N must be" in capsys.readouterr().err
    assert not (tmp_path / "bad_trace.csv").exists()


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe\x00", "error: scenario file"),
    (b"1: 2\nfoo: 3\n", "error: unknown scenario keys: 1, foo"),
    (b"preset: fig2_collision\nrho_true_speed: 0.3\nrho_true_heading_deg: abc\n",
     "error: rho_true_speed and rho_true_heading_deg must be finite numbers"),
])
def test_malformed_scenario_file_is_an_error(tmp_path, capsys, content, message):
    # Not UTF-8, keys of mixed types, a polar velocity that is not a number:
    # each ends as an error naming the file or the key, not a traceback.
    path = tmp_path / "bad.yaml"
    path.write_bytes(content)
    rc = cli.main(["run", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "bad_trace.csv").exists()


def test_sweep_has_no_out_option(fast_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", str(fast_file), "--vary", "epsilon=0.3",
                  "--out", str(tmp_path / "results")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


def test_unknown_scenario_is_an_error(capsys):
    rc = cli.main(["run", "fig99_mystery"])
    assert rc == 2
    assert "neither a preset nor a scenario file" in capsys.readouterr().err


def test_bad_grid_is_an_error(capsys):
    rc = cli.main(["field", "fig2_collision", "--t", "1.0", "--grid", "0,4"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("t,grid,message", [
    ("nan", "0,4,-1,3,5", "error: --t must be a finite number"),
    ("inf", "0,4,-1,3,5", "error: --t must be a finite number"),
    ("1.0", "nan,8,-4,4,5", "error: x1_min must be a finite number"),
    ("1.0", "-2,inf,-4,4,5", "error: x1_max must be a finite number"),
    ("1.0", "0,4,-1,3,5.9", "error: grid resolution must be an integer"),
])
def test_field_rejects_nonfinite_or_fractional_input(tmp_path, capsys, t, grid,
                                                    message):
    out = tmp_path / "fields"
    rc = cli.main(["field", "fig2_collision", "--t", t, f"--grid={grid}",
                   "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_env_seed_override(monkeypatch, tmp_path, fast_file, capsys):
    monkeypatch.chdir(tmp_path)  # the default --out is the cwd
    monkeypatch.setenv(cli.ENV_SEED, "12345")
    assert cli.main(["run", str(fast_file)]) == 0
    capsys.readouterr()
    monkeypatch.setenv(cli.ENV_SEED, "not-a-number")
    assert cli.main(["run", str(fast_file)]) == 2
    assert cli.ENV_SEED in capsys.readouterr().err


def test_negative_env_seed_is_an_error(monkeypatch, fast_file, capsys):
    monkeypatch.setenv(cli.ENV_SEED, "-1")
    assert cli.main(["run", str(fast_file)]) == 2
    assert "error: seed must be nonnegative" in capsys.readouterr().err


def test_verify_command_pass_and_fail(monkeypatch, capsys):
    monkeypatch.setattr(cli, "PRESET_EXPECTATIONS", {
        "fig2_collision": ({OutcomeKind.PURSUER_COLLISION}, None)})
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS fig2_collision" in out
    # fig2 holds no heading, and every one of its step games converges.
    assert re.search(r"fig2_collision: .* holds=0 gs_iters=[1-9]\d* unconverged=0 ", out)
    assert "all preset checks passed" in out

    monkeypatch.setattr(cli, "PRESET_EXPECTATIONS", {
        "fig2_collision": ({OutcomeKind.CAPTURE}, None)})
    assert cli.main(["verify"]) == 1
    captured = capsys.readouterr()
    assert "FAIL fig2_collision" in captured.out
    assert "1 preset check(s) failed" in captured.err

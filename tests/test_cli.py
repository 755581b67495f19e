import numpy as np
import pytest

from nhqc.cli import ConfigError, main, parse_config
from nhqc.model import DecayKind

PAPER_LINES = [
    "# reference parameters",
    "jx = -1",
    "jy = -1",
    "jz = 0.5",
    "c = 0.24",
    "beta = 0.1",
    "gamma_kind = identity",
    "gamma = 0.5",
    "steps = 1000",
    "seed = 7",
    "initial_state = phi",
]


def write_config(tmp_path, lines):
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_parse_config_paper_defaults(tmp_path):
    sp, bp, decay, config = parse_config(write_config(tmp_path, PAPER_LINES))
    assert (sp.jx, sp.jy, sp.jz) == (-1.0, -1.0, 0.5)
    assert bp.c == 0.24 and bp.beta == 0.1 and bp.mass == 1.0 and bp.omega == 1.0
    assert decay.kind is DecayKind.IDENTITY_UNIFORM and decay.strength == 0.5
    assert config.dt == 0.01 and config.n_samples == 50_000 and config.mode == "adiabatic"
    assert config.output_stride == 1


def test_parse_config_fig3_fragment(tmp_path):
    lines = [ln for ln in PAPER_LINES if not ln.startswith(("gamma", "initial_state"))]
    lines += ["gamma_kind = projector_ee", "gamma = 0.01", "initial_state = psi"]
    _, _, decay, config = parse_config(write_config(tmp_path, lines))
    assert decay.kind is DecayKind.PROJECTOR_EE and decay.strength == 0.01
    assert config.initial_state == "psi"


def test_parse_config_rejects_zero_dt(tmp_path):
    with pytest.raises(ConfigError, match="dt"):
        parse_config(write_config(tmp_path, PAPER_LINES + ["dt = 0"]))


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(["jx = 1", "jq = 3"])


def test_parse_config_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(["jx = 1", "jx = 2"])


def test_parse_config_rejects_malformed_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config(["jx 1"])


def test_parse_config_rejects_bad_enum():
    with pytest.raises(ConfigError, match="mode"):
        parse_config(PAPER_LINES + ["mode = sideways"])


def test_parse_config_missing_mandatory():
    with pytest.raises(ConfigError, match="missing mandatory"):
        parse_config(["jx = 1", "jy = 1"])


def small_run_lines(**over):
    values = {
        "jx": -1,
        "jy": -1,
        "jz": 0.5,
        "c": 0.24,
        "beta": 0.1,
        "gamma_kind": "identity",
        "gamma": 0.0,
        "steps": 50,
        "samples": 20,
        "seed": 11,
        "initial_state": "phi",
        "output_stride": 10,
    }
    values.update(over)
    return [f"{k} = {v}" for k, v in values.items()]


def run_cli(tmp_path, lines, subdir, threads=1):
    cfg = write_config(tmp_path, lines)
    out = tmp_path / subdir
    code = main(["run", "--config", str(cfg), "--out", str(out), "--threads", str(threads)])
    outputs = sorted(out.glob("*.csv"))
    return code, outputs


def test_run_command_writes_csv_and_conserves_trace(tmp_path, capsys):
    code, outputs = run_cli(tmp_path, small_run_lines(), "out")
    assert code == 0
    assert len(outputs) == 1
    from nhqc.observables import read_csv

    series = read_csv(outputs[0])
    assert len(series.rows) == 6
    assert abs(series.traces()[-1] - 1.0) < 1e-10  # Hermitian run conserves trace
    printed = capsys.readouterr().out
    assert "final trace" in printed and "wall time" in printed


def test_run_command_is_deterministic(tmp_path):
    _, first = run_cli(tmp_path, small_run_lines(), "a")
    _, second = run_cli(tmp_path, small_run_lines(), "b")
    assert first[0].read_bytes() == second[0].read_bytes()


def test_run_command_thread_flag_does_not_change_bytes(tmp_path, monkeypatch):
    import nhqc.propagator as prop

    monkeypatch.setattr(prop, "CHUNK_SAMPLES", 8)
    _, first = run_cli(tmp_path, small_run_lines(), "t1", threads=1)
    _, second = run_cli(tmp_path, small_run_lines(), "t8", threads=8)
    assert first[0].read_bytes() == second[0].read_bytes()


def test_run_command_env_seed_override(tmp_path, monkeypatch):
    _, base = run_cli(tmp_path, small_run_lines(), "e1")
    monkeypatch.setenv("NHQC_SEED", "999")
    _, overridden = run_cli(tmp_path, small_run_lines(), "e2")
    assert base[0].read_bytes() != overridden[0].read_bytes()
    from nhqc.observables import read_csv

    assert read_csv(overridden[0]).metadata["seed"] == "999"


def test_run_command_bad_config_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, ["nonsense"])
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_run_command_bad_env_seed_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NHQC_SEED", "-1")
    code, outputs = run_cli(tmp_path, small_run_lines(), "neg")
    assert code == 2 and outputs == []
    assert "error:" in capsys.readouterr().err


def test_preset_non_integer_env_seed_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NHQC_SEED", "abc")
    code = main(["preset", "fig1", "--out", str(tmp_path / "p"), "--samples", "6"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_preset_zero_samples_exit_code(tmp_path, capsys):
    code = main(["preset", "fig1", "--out", str(tmp_path / "p"), "--samples", "0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_preset_writes_curves_and_script(tmp_path, capsys):
    out = tmp_path / "fig3"
    code = main(["preset", "fig3", "--out", str(out), "--samples", "12", "--seed", "3"])
    assert code == 0
    csvs = sorted(out.glob("*.csv"))
    assert [p.name for p in csvs] == [
        "fig3_gamma0.001.csv",
        "fig3_gamma0.01.csv",
        "fig3_gamma0.1.csv",
    ]
    script = (out / "fig3.gp").read_text()
    assert "using 1:2:3" in script
    from nhqc.observables import read_csv

    for path in csvs:
        series = read_csv(path)
        assert len(series.rows) == 1001
        assert series.rows[-1].t == pytest.approx(10.0)


def test_preset_is_pure_function_of_name_and_seed(tmp_path):
    out1 = tmp_path / "p1"
    out2 = tmp_path / "p2"
    main(["preset", "fig1", "--out", str(out1), "--samples", "6", "--seed", "5"])
    main(["preset", "fig1", "--out", str(out2), "--samples", "6", "--seed", "5"])
    for a, b in zip(sorted(out1.glob("*.csv")), sorted(out2.glob("*.csv"))):
        assert a.read_bytes() == b.read_bytes()


def test_preset_fig1_curves_ordered_by_decay(tmp_path):
    out = tmp_path / "fig1"
    main(["preset", "fig1", "--out", str(out), "--samples", "8", "--seed", "2"])
    from nhqc.observables import read_csv

    finals = []
    for g in ("0", "0.1", "0.5", "1"):
        series = read_csv(out / f"fig1_gamma{g}.csv")
        finals.append(series.traces()[-1])
    assert finals[0] == pytest.approx(1.0, abs=1e-10)
    assert all(a > b for a, b in zip(finals, finals[1:]))  # top-to-bottom ordering


def test_check_subcommand_reports_lines(monkeypatch, capsys):
    from nhqc.acceptance import CriterionResult

    fake = [
        CriterionResult(1, "demo pass", True, "ok"),
        CriterionResult(2, "demo fail", False, "bad"),
    ]
    monkeypatch.setattr("nhqc.acceptance.run_all", lambda quick=False: fake)
    code = main(["check", "--quick"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[PASS] criterion 1" in out and "[FAIL] criterion 2" in out
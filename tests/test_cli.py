import warnings
from dataclasses import fields

import numpy as np
import pytest

from nhqc.cli import ConfigError, check_run_invariants, main, parse_config, preset
from nhqc.model import BathParams, DecayKind, SimConfig, decay_operator
from nhqc.observables import emit_plot_script
from nhqc.propagator import simulate

from engines import diagonal_series

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


def test_parse_config_optional_keys_take_the_dataclass_defaults(tmp_path):
    optional = {"mass", "omega", "dt", "samples", "mode", "output_stride"}
    assert not optional & {ln.split("=")[0].strip() for ln in PAPER_LINES}
    _, bp, _, config = parse_config(write_config(tmp_path, PAPER_LINES))
    defaults = {(cls, f.name): f.default for cls in (BathParams, SimConfig) for f in fields(cls)}
    for cls, value, attr in [
        (BathParams, bp, "mass"),
        (BathParams, bp, "omega"),
        (SimConfig, config, "dt"),
        (SimConfig, config, "n_samples"),
        (SimConfig, config, "mode"),
        (SimConfig, config, "output_stride"),
    ]:
        assert getattr(value, attr) == defaults[cls, attr], attr


def test_parse_config_fig3_fragment(tmp_path):
    lines = [ln for ln in PAPER_LINES if not ln.startswith(("gamma", "initial_state"))]
    lines += ["gamma_kind = projector_ee", "gamma = 0.01", "initial_state = psi"]
    _, _, decay, config = parse_config(write_config(tmp_path, lines))
    assert decay.kind is DecayKind.PROJECTOR_EE and decay.strength == 0.01
    assert config.initial_state == "psi"


def test_parse_config_words_are_case_insensitive():
    lines = [ln for ln in PAPER_LINES if not ln.startswith(("gamma_kind", "initial_state"))]
    _, _, decay, config = parse_config(lines + ["gamma_kind = Projector_EE", "mode = NonAdiabatic", "initial_state = PSI"])
    assert decay.kind is DecayKind.PROJECTOR_EE
    assert (config.mode, config.initial_state) == ("nonadiabatic", "psi")


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
    printed = capsys.readouterr()
    assert "final trace" in printed.out and "wall time" in printed.out
    assert printed.err == ""  # the adiabatic mode prints no warning


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


def test_run_command_out_names_a_file_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, small_run_lines())
    target = tmp_path / "taken"
    target.write_text("not a directory")
    code = main(["run", "--config", str(cfg), "--out", str(target)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert target.read_text() == "not a directory"


def test_run_command_warns_on_nonadiabatic_mode(tmp_path, capsys):
    # at c = 0 no transition channel is open, so the run passes its invariants
    lines = small_run_lines(mode="nonadiabatic", c=0)
    code, warned = run_cli(tmp_path, lines, "na")
    err = capsys.readouterr().err
    assert code == 0
    assert len(err.splitlines()) == 1
    assert err.startswith("warning:") and "nonadiabatic" in err and "unvalidated" in err
    # the warning changes nothing else: same bytes as a direct simulate + write
    from nhqc.observables import write_csv

    series, _ = simulate(*parse_config(lines))
    write_csv(series, tmp_path / "direct.csv")
    assert warned[0].read_bytes() == (tmp_path / "direct.csv").read_bytes()


def test_preset_out_names_a_file_exit_code(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("not a directory")
    code = main(["preset", "fig1", "--out", str(target), "--samples", "6"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert target.read_text() == "not a directory"


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


def refuse_to_simulate(*args, **kwargs):
    raise AssertionError("simulate must not run")


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_run_command_rejects_threads_below_one(tmp_path, monkeypatch, capsys, threads):
    monkeypatch.setattr("nhqc.cli.simulate", refuse_to_simulate)
    cfg = write_config(tmp_path, small_run_lines())
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "t"), "--threads", threads])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "--threads" in err
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_preset_rejects_threads_below_one(tmp_path, monkeypatch, capsys, threads):
    monkeypatch.setattr("nhqc.cli.simulate", refuse_to_simulate)
    code = main(["preset", "fig1", "--out", str(tmp_path / "p"), "--samples", "6", "--threads", threads])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "--threads" in err
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize(
    "key,value",
    [
        ("mass", "nan"),
        ("omega", "inf"),
        ("beta", "nan"),
        ("beta", "inf"),
        ("dt", "nan"),
        ("gamma", "nan"),
        ("gamma_kind", "custom"),  # a word outside the allowed ones fails alike
    ],
)
def test_run_command_rejects_non_finite_parameters(tmp_path, monkeypatch, capsys, key, value):
    monkeypatch.setattr("nhqc.cli.simulate", refuse_to_simulate)
    cfg = write_config(tmp_path, small_run_lines(**{key: value}))
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "nf")])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:") and key in err
    assert not (tmp_path / "nf").exists()


def test_preset_invariant_violation_exit_code(tmp_path, monkeypatch, capsys):
    def violated(series, decay):
        raise ValueError("trace increased under a positive semidefinite decay operator")

    monkeypatch.setattr("nhqc.cli.check_run_invariants", violated)
    out = tmp_path / "p"
    code = main(["preset", "fig1", "--out", str(out), "--samples", "6"])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("invariant violation: trace increased")
    assert list(out.glob("*")) == []  # nothing is written for a violated curve


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
    # fig4 plots the same curves, so this run writes its script too
    assert sorted(p.name for p in out.glob("*.gp")) == ["fig3.gp", "fig4.gp"]
    labels = ["gamma=0.001", "gamma=0.01", "gamma=0.1"]
    for figure in ("fig3", "fig4"):
        script = (out / f"{figure}.gp").read_text()
        assert script == emit_plot_script([str(p) for p in csvs], figure, labels=labels)
        assert "every" not in script  # each written row is plotted
    assert "using 1:2:3" in (out / "fig3.gp").read_text()
    from nhqc.observables import read_csv

    for path in csvs:
        series = read_csv(path)
        # one row every 20 steps of dt = 0.01 over t in [0, 10]
        assert series.metadata["output_stride"] == "20"
        assert len(series.rows) == 51
        assert series.times() == pytest.approx(0.2 * np.arange(51))


def test_preset_is_pure_function_of_name_and_seed(tmp_path):
    out1 = tmp_path / "p1"
    out2 = tmp_path / "p2"
    main(["preset", "fig1", "--out", str(out1), "--samples", "6", "--seed", "5"])
    main(["preset", "fig1", "--out", str(out2), "--samples", "6", "--seed", "5"])
    assert sorted(p.name for p in out1.glob("*.gp")) == ["fig1.gp", "fig2.gp"]
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
    monkeypatch.setattr("nhqc.acceptance.run_all", lambda: fake)
    code = main(["check"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[PASS] criterion 1" in out and "[FAIL] criterion 2" in out


def test_run_command_rejects_a_non_finite_curve(tmp_path, monkeypatch, capsys):
    # c = 1e100 is finite and so are the initial frames (trace 1 at t = 0),
    # but the dynamics overflow to NaN; the run silences numpy's warnings in
    # the worker threads of its chunks too
    import nhqc.propagator as prop

    monkeypatch.setattr(prop, "CHUNK_SAMPLES", 4)
    lines = small_run_lines(c=1e100, samples=10, steps=10, output_stride=1, initial_state="psi")
    code, outputs = run_cli(tmp_path, lines, "nan", threads=2)
    assert code == 1 and outputs == []
    err = capsys.readouterr().err
    assert err.startswith("invariant violation:") and "non-finite" in err


@pytest.mark.parametrize("mode", ["adiabatic", "nonadiabatic"])
def test_run_command_rejects_a_decay_integral_that_overflows(tmp_path, capsys, mode):
    # gamma = -1e6 lowers phi's per-column decay integral by 2e4 a step, in
    # both modes: its factor overflows to inf, which the check reports,
    # where libm's exp would raise an OverflowError
    code, outputs = run_cli(tmp_path, small_run_lines(gamma=-1e6, mode=mode), mode)
    assert code == 1 and outputs == []
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("invariant violation:") and "non-finite" in last


def test_run_command_rejects_a_partly_overflowed_start(tmp_path, capsys):
    # c = 1e308 overflows psi's block-B frames at t = 0: only its |ee> half
    # spawns members, and the trace starts at 1/2
    lines = small_run_lines(c=1e308, samples=10, steps=10, output_stride=1, initial_state="psi")
    code, outputs = run_cli(tmp_path, lines, "half")
    assert code == 1 and outputs == []
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: trace at t = 0 is 0.49999")


@pytest.mark.parametrize("seed", [2, 3])
def test_run_command_rejects_an_empty_start(tmp_path, capsys, seed):
    # c = 1e308 overflows the initial frames: no pair is spawned, and the
    # trace reads 0 from t = 0 on, which no later check would catch
    lines = small_run_lines(c=1e308, gamma=0.5, samples=10, steps=10, output_stride=1, seed=seed)
    code, outputs = run_cli(tmp_path, lines, "empty")
    assert code == 1 and outputs == []
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("invariant violation: trace at t = 0")


@pytest.mark.parametrize(
    "over, code, message",
    [
        # the initial frames overflow, so no pair is spawned
        (
            {"c": "1e200"},
            1,
            "invariant violation: trace at t = 0 is 0: samples [0, 20) spawn no pair (non-finite initial frames)",
        ),
        # t would overflow to inf
        ({"dt": "1e308"}, 2, "error: dt * n_steps must be finite, got 1e+308 * 50"),
        # block A's off-diagonal element -(jx - jy) would overflow
        ({"jx": "1e308", "jy": "-1e308"}, 2, "error: jx - jy must be finite, got inf from jx = 1e+308, jy = -1e+308"),
    ],
    ids=["c", "dt", "jx-jy"],
)
def test_run_command_fails_cleanly_on_overflowing_input(tmp_path, capsys, over, code, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_cli(tmp_path, small_run_lines(**over), "overflow")
    assert result == (code, [])
    assert capsys.readouterr().err == message + "\n"
    assert [str(w.message) for w in caught] == []


def test_preset_rejects_an_empty_start(tmp_path, monkeypatch, capsys):
    import nhqc.cli as cli
    from nhqc.model import BathParams

    monkeypatch.setattr(cli, "REFERENCE_BP", BathParams(c=1e308, beta=0.1))
    out = tmp_path / "p"
    code = main(["preset", "fig1", "--out", str(out), "--samples", "10", "--seed", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("invariant violation: trace at t = 0")
    assert list(out.glob("*")) == []


@pytest.mark.parametrize(
    "rise, kind, gamma, rejected",
    [
        (2e-12, "identity", 1.0, True),  # above the 1e-12 tolerance under a PSD operator
        (5e-13, "identity", 1.0, False),  # within it
        (2e-12, "projector_ee", -0.1, False),  # a negative gamma may raise the trace
    ],
)
def test_check_run_invariants_rejects_a_rising_trace_only_under_a_psd_decay(rise, kind, gamma, rejected):
    series, decay = diagonal_series([0.0, 0.1], [1.0, 1.0 + rise]), decay_operator(kind, gamma)
    if rejected:
        with pytest.raises(ValueError, match="trace increased under a positive semidefinite decay operator"):
            check_run_invariants(series, decay)
    else:
        check_run_invariants(series, decay)


@pytest.mark.parametrize("offset, rejected", [(1e-9, True), (-1e-9, True), (1e-13, False), (-1e-13, False)])
def test_check_run_invariants_requires_a_unit_trace_at_t0_within_1e_12(offset, rejected):
    series, decay = diagonal_series([0.0, 0.1], [1.0 + offset] * 2), decay_operator("identity", 0.5)
    if rejected:
        with pytest.raises(ValueError, match="trace at t = 0 is .* not 1 within 1e-12"):
            check_run_invariants(series, decay)
    else:
        check_run_invariants(series, decay)


def test_unknown_preset_exits_2(tmp_path, capsys):
    assert preset("fig9", tmp_path / "p") == 2
    assert capsys.readouterr().err == "error: unknown preset 'fig9'\n"
    assert not (tmp_path / "p").exists()

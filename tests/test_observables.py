import numpy as np
import pytest

from nhqc.model import (
    PHI,
    PSI,
    BathParams,
    DecayKind,
    SimConfig,
    SpinChainParams,
    decay_operator,
)
from nhqc.observables import (
    MomentAccumulator,
    TimeRecord,
    TimeSeries,
    emit_plot_script,
    read_csv,
    reduce_snapshot,
    write_csv,
)
from nhqc.propagator import EnsembleState, simulate
from nhqc.sampler import initial_subsystem

PAPER_SP = SpinChainParams(jx=-1.0, jy=-1.0, jz=0.5)
PAPER_BP = BathParams(c=0.24, beta=0.1)


def small_config(**kw):
    base = dict(n_steps=100, seed=42, n_samples=64, dt=0.01, initial_state=PHI)
    base.update(kw)
    return SimConfig(**base)


def test_reduce_at_time_zero_is_exact():
    for state in (PHI, PSI):
        engine = EnsembleState(PAPER_SP, PAPER_BP, decay_operator("identity", 0.3), small_config(initial_state=state))
        red = reduce_snapshot(engine.snapshot())
        assert np.max(np.abs(red.elements - initial_subsystem(state))) < 1e-13
        assert np.max(red.stderr) < 1e-13
        red.validate()


def test_identity_decay_trace_at_t1():
    engine = EnsembleState(
        PAPER_SP, PAPER_BP, decay_operator("identity", 1.0), small_config(n_steps=100)
    )
    engine.advance(100)
    red = reduce_snapshot(engine.snapshot())
    assert np.real(red.trace) == pytest.approx(np.exp(-2.0), abs=1e-10)
    assert abs(red.trace.imag) < 1e-12


def test_projector_decay_trace_at_t10():
    engine = EnsembleState(
        PAPER_SP,
        PAPER_BP,
        decay_operator("projector_ee", 0.1),
        small_config(n_steps=1000, n_samples=32, initial_state=PSI),
    )
    engine.advance(1000)
    red = reduce_snapshot(engine.snapshot())
    assert np.real(red.trace) == pytest.approx(0.5 + 0.5 * np.exp(-2.0), abs=1e-10)


def test_moment_accumulator_combine_matches_whole():
    rng = np.random.default_rng(8)
    data = rng.normal(size=(40, 4, 4)) + 1j * rng.normal(size=(40, 4, 4))
    whole = MomentAccumulator.from_samples(data)
    parts = MomentAccumulator.from_samples(data[:13]).combine(
        MomentAccumulator.from_samples(data[13:])
    )
    assert np.max(np.abs(whole.mean - parts.mean)) < 1e-13
    assert np.max(np.abs(whole.m2 - parts.m2)) < 1e-11
    assert whole.trace_mean == pytest.approx(parts.trace_mean, abs=1e-13)
    d1, d2 = whole.density(), parts.density()
    assert np.max(np.abs(d1.stderr - d2.stderr)) < 1e-13


def test_decoupled_reconstruction_is_frame_independent():
    # at c = 0 the frame never moves, so rotating with U(R(t)) or U(R(0))
    # must give the same matrices
    bp0 = BathParams(c=0.0, beta=0.1)
    config = small_config(n_samples=16, n_steps=50)
    engine = EnsembleState(PAPER_SP, bp0, decay_operator("identity", 0.2), config)
    snap0 = engine.snapshot()
    engine.advance(50)
    snap1 = engine.snapshot()
    mats_now = snap1.sample_matrices()
    # manual reconstruction with the initial frames
    borrowed = EnsembleState(PAPER_SP, bp0, decay_operator("identity", 0.2), config)
    borrowed.phase = snap1.phase.copy()
    borrowed.decay_acc = snap1.decay.copy()
    borrowed.weight = snap1.weight.copy()
    mats_then = borrowed.snapshot().sample_matrices()
    assert np.max(np.abs(mats_now - mats_then)) < 1e-13
    assert np.array_equal(snap0.frames.xB, snap1.frames.xB)


def series_for_test(n_steps=20, stride=10, **kw):
    cfg = small_config(n_steps=n_steps, output_stride=stride, n_samples=12, **kw)
    series, _ = simulate(PAPER_SP, PAPER_BP, decay_operator("identity", 0.4), cfg)
    return series


def test_time_series_shape_and_validation():
    series = series_for_test()
    assert len(series.rows) == 3
    assert series.times()[0] == 0.0
    series.validate()
    assert len(series.run_id) == 12


def test_csv_round_trip_is_bit_exact(tmp_path):
    from nhqc.observables import TRIANGLE

    series = series_for_test()
    path = tmp_path / "run.csv"
    write_csv(series, path)
    back = read_csv(path)
    assert len(back.rows) == len(series.rows)
    for r1, r2 in zip(series.rows, back.rows):
        assert r2.t == r1.t
        assert r2.trace_stderr == r1.trace_stderr
        assert np.real(r2.density.trace) == np.real(r1.density.trace)
        for i, j in TRIANGLE:  # every stored value comes back identical
            assert r2.density.elements[i, j] == r1.density.elements[i, j]
            assert r2.density.stderr[i, j] == r1.density.stderr[i, j]
        # the reconstructed lower triangle is the exact conjugate by format
        assert np.max(np.abs(r2.density.elements - r2.density.elements.conj().T)) == 0.0
    assert back.metadata["gamma_kind"] == "identity"


def test_csv_empty_series_has_header_only(tmp_path):
    series = TimeSeries(rows=[], metadata={"samples": 0, "seed": 1})
    path = tmp_path / "empty.csv"
    write_csv(series, path)
    lines = path.read_text().strip().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    assert len(comments) >= 2  # run id plus config entries
    assert len(data) == 1  # header row only
    assert data[0].startswith("t,trace_re,trace_stderr,re_11,im_11,err_11")


def test_csv_comments_carry_config(tmp_path):
    series = series_for_test()
    path = tmp_path / "run.csv"
    write_csv(series, path)
    text = path.read_text()
    for key in ("jx", "beta", "gamma_kind", "seed", "dt"):
        assert f"# {key}=" in text


def test_plot_script_fig1(tmp_path):
    files = []
    for k in range(4):
        path = tmp_path / f"curve{k}.csv"
        write_csv(series_for_test(), path)
        files.append(str(path))
    script = emit_plot_script(files, "fig1", labels=[f"g={g}" for g in (0, 0.1, 0.5, 1)])
    assert "set datafile separator ','" in script
    assert script.count("using 1:2:3") == 4
    assert "yerrorlines" in script


def test_plot_script_fig2_applies_shifts(tmp_path):
    files = []
    for k in range(3):
        path = tmp_path / f"c{k}.csv"
        write_csv(series_for_test(), path)
        files.append(str(path))
    script = emit_plot_script(files, "fig2")
    assert "using 1:($16-0)" in script
    assert "using 1:($16-1.5)" in script
    assert "using 1:($16-3)" in script
    script3 = emit_plot_script(files, "fig3")
    assert script3.count("using 1:2:3") == 3


def test_plot_script_fig4_has_both_populations(tmp_path):
    path = tmp_path / "c.csv"
    write_csv(series_for_test(), path)
    script = emit_plot_script([str(path)], "fig4")
    assert "using 1:4:6" in script  # |ee| population columns
    assert "using 1:16:18" in script  # |eg| population columns


def test_plot_script_missing_file():
    with pytest.raises(FileNotFoundError):
        emit_plot_script(["/nonexistent/file.csv"], "fig1")
    with pytest.raises(ValueError):
        emit_plot_script([], "fig9")


def test_trace_imaginary_part_small_everywhere():
    series = series_for_test(n_steps=40, stride=4)
    for row in series.rows:
        assert abs(row.density.trace.imag) < 1e-10

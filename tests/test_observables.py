import numpy as np
import pytest

from nhqc.cli import parse_config
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
    ElementRows,
    MomentAccumulator,
    TimeRecord,
    TimeSeries,
    emit_plot_script,
    read_csv,
    reduce_snapshot,
    write_csv,
)
from nhqc.propagator import simulate
from nhqc.sampler import initial_subsystem

from engines import sampled_engine

PAPER_SP = SpinChainParams(jx=-1.0, jy=-1.0, jz=0.5)
PAPER_BP = BathParams(c=0.24, beta=0.1)


def small_config(**kw):
    base = dict(n_steps=100, seed=42, n_samples=64, dt=0.01, initial_state=PHI)
    base.update(kw)
    return SimConfig(**base)


def test_reduce_at_time_zero_is_exact():
    for state in (PHI, PSI):
        engine = sampled_engine(PAPER_SP, PAPER_BP, decay_operator("identity", 0.3), small_config(initial_state=state))
        red = reduce_snapshot(engine.snapshot())
        assert np.max(np.abs(red.elements - initial_subsystem(state))) < 1e-13
        assert np.max(red.stderr) < 1e-13
        red.validate()


def test_identity_decay_trace_at_t1():
    engine = sampled_engine(
        PAPER_SP, PAPER_BP, decay_operator("identity", 1.0), small_config(n_steps=100)
    )
    engine.advance(100)
    red = reduce_snapshot(engine.snapshot())
    assert np.real(red.trace) == pytest.approx(np.exp(-2.0), abs=1e-10)
    assert abs(red.trace.imag) < 1e-12


def test_projector_decay_trace_at_t10():
    engine = sampled_engine(
        PAPER_SP,
        PAPER_BP,
        decay_operator("projector_ee", 0.1),
        small_config(n_steps=1000, n_samples=32, initial_state=PSI),
    )
    engine.advance(1000)
    red = reduce_snapshot(engine.snapshot())
    assert np.real(red.trace) == pytest.approx(0.5 + 0.5 * np.exp(-2.0), abs=1e-10)


def hermitian(data):
    """data + data^dagger for each matrix of data (n, 4, 4): exactly Hermitian."""
    return data + data.conj().transpose(0, 2, 1)


def test_moment_accumulator_combine_matches_whole():
    rng = np.random.default_rng(8)
    data = hermitian(rng.normal(size=(40, 4, 4)) + 1j * rng.normal(size=(40, 4, 4)))
    whole = MomentAccumulator.from_samples(ElementRows.from_matrices(data))
    parts = MomentAccumulator.from_samples(ElementRows.from_matrices(data[:13])).combine(
        MomentAccumulator.from_samples(ElementRows.from_matrices(data[13:]))
    )
    assert np.max(np.abs(whole.mean - parts.mean)) < 1e-13
    assert np.max(np.abs(whole.m2 - parts.m2)) < 1e-11
    assert whole.trace_mean == pytest.approx(parts.trace_mean, abs=1e-13)
    d1, d2 = whole.density(), parts.density()
    assert np.max(np.abs(d1.stderr - d2.stderr)) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 40])
def test_moment_accumulator_matches_plain_definitions(n):
    rng = np.random.default_rng(n)
    data = hermitian(rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4)))
    acc = MomentAccumulator.from_samples(ElementRows.from_matrices(data))
    mean = data.mean(axis=0)
    m2 = np.sum(np.abs(data - mean) ** 2, axis=0)
    traces = np.trace(data, axis1=1, axis2=2).real
    tm2 = np.sum((traces - traces.mean()) ** 2)
    assert acc.count == n
    assert np.allclose(acc.mean, mean, rtol=1e-13, atol=0)
    assert np.allclose(acc.m2, m2, rtol=1e-13, atol=0)
    assert acc.trace_mean == pytest.approx(traces.mean(), rel=1e-13)
    assert acc.trace_m2 == pytest.approx(tm2, rel=1e-13)


def test_element_rows_from_matrices_refuse_non_hermitian_input():
    rng = np.random.default_rng(5)
    data = hermitian(rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4)))
    record = ElementRows.from_matrices(data)
    assert record.index == (0, 1, 2, 3, 5, 6, 7, 10, 11, 15)
    assert record.matrices().tobytes() == data.tobytes()
    for r, c, value in ((2, 0, 1e-12), (1, 1, 1e-12j)):  # a lower entry, then a diagonal
        broken = data.copy()
        broken[1, r, c] += value
        with pytest.raises(ValueError, match="not exactly Hermitian"):
            ElementRows.from_matrices(broken)


def test_sample_matrices_are_element_rows_and_reduce_like_a_copy():
    engine = sampled_engine(PAPER_SP, PAPER_BP, decay_operator("identity", 0.3), small_config(initial_state=PSI))
    engine.advance(20)
    record = engine.snapshot().sample_matrices()
    mats = record.matrices()
    assert mats.shape == (64, 4, 4)
    assert record.rows.shape == (len(record.index), 64)
    # contiguous rows of the live entries, ascending: the layout the moments sum
    assert record.rows.flags.c_contiguous
    assert list(record.index) == sorted(set(record.index))
    viewed = MomentAccumulator.from_samples(record)
    copied = MomentAccumulator.from_samples(ElementRows.from_matrices(mats))
    assert np.array_equal(viewed.mean, copied.mean)
    assert np.array_equal(viewed.m2, copied.m2)
    assert viewed.trace_mean == copied.trace_mean
    assert viewed.trace_m2 == copied.trace_m2


def test_decoupled_reconstruction_is_frame_independent():
    # at c = 0 the frame never moves, so rotating with U(R(t)) or U(R(0))
    # must give the same matrices
    bp0 = BathParams(c=0.0, beta=0.1)
    config = small_config(n_samples=16, n_steps=50)
    engine = sampled_engine(PAPER_SP, bp0, decay_operator("identity", 0.2), config)
    snap0 = engine.snapshot()
    engine.advance(50)
    snap1 = engine.snapshot()
    mats_now = snap1.sample_matrices().matrices()
    # manual reconstruction with the initial frames
    borrowed = sampled_engine(PAPER_SP, bp0, decay_operator("identity", 0.2), config)
    borrowed.phase = snap1.phase.copy()
    borrowed.decay_acc = snap1.decay.copy()
    borrowed.weight = snap1.weight.copy()
    mats_then = borrowed.snapshot().sample_matrices().matrices()
    assert np.max(np.abs(mats_now - mats_then)) < 1e-13
    assert np.array_equal(snap0.blocks[1].vector[0], snap1.blocks[1].vector[0])


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
    # the comment lines, less the run id, are a configuration that rebuilds the run
    runs = [
        (PAPER_SP, PAPER_BP, decay_operator("identity", 0.4), small_config(n_steps=20, output_stride=10, n_samples=12)),
        (
            SpinChainParams(jx=-1.0, jy=-0.6, jz=0.3),
            BathParams(mass=2.0, omega=0.7, c=1.5, beta=0.3),
            decay_operator("projector_ee", 0.05),
            SimConfig(n_steps=6, seed=9, dt=0.02, n_samples=5, mode="nonadiabatic", initial_state=PSI, output_stride=3),
        ),
    ]
    for sp, bp, decay, config in runs:
        series, _ = simulate(sp, bp, decay, config)
        write_csv(series, path)
        lines = [ln[1:] for ln in path.read_text().splitlines() if ln.startswith("#") and "run_id=" not in ln]
        sp2, bp2, decay2, config2 = parse_config(lines)
        assert (sp2, bp2, config2) == (sp, bp, config)
        assert decay2.kind is decay.kind and decay2.strength == decay.strength
        assert np.array_equal(decay2.matrix, decay.matrix)


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

import numpy as np
import pytest

from nhqc.model import (
    PHI,
    PSI,
    BathParams,
    DecayKind,
    PairTrajectory,
    PhasePoint,
    SimConfig,
    SpinChainParams,
    decay_operator,
)
from nhqc.observables import reduce_snapshot
from nhqc.oracle import build_frame, classical_step, momentum_jump, sstp_step
from nhqc.propagator import EnsembleState, simulate
from nhqc.sampler import initial_subsystem, sample_bath_point, trajectory_stream

PAPER_SP = SpinChainParams(jx=-1.0, jy=-1.0, jz=0.5)
PAPER_BP = BathParams(c=0.24, beta=0.1)
BP0 = BathParams(c=0.0, beta=0.1)
GAMMA0 = decay_operator(DecayKind.IDENTITY_UNIFORM, 0.0)


def test_classical_step_free_drift():
    pt = PhasePoint(R=[1.0, -2.0], P=[0.5, 0.25])
    out = classical_step(pt, (np.zeros(2), np.zeros(2)), BP0, 0.1)
    assert np.allclose(out.R, [1.05, -1.975])
    assert np.allclose(out.P, pt.P)


def test_classical_step_harmonic_orbit():
    # a full period of the bare oscillator returns to the start at O(dt^2)
    pt = PhasePoint(R=[1.0, 0.0], P=[0.0, 0.5])
    dt = 0.01
    n = round(2 * np.pi / dt)

    def force(r):
        return -r

    for _ in range(n):
        pt = classical_step(pt, (-pt.R, -pt.R), BP0, dt, force)
    assert np.allclose(pt.R, [1.0, 0.0], atol=5e-2)
    energy = 0.5 * np.sum(pt.P**2) + 0.5 * np.sum(pt.R**2)
    assert energy == pytest.approx(0.5 * (1.0 + 0.25), abs=1e-3)


def test_classical_step_rejects_bad_dt():
    with pytest.raises(ValueError):
        classical_step(PhasePoint(R=[0.0], P=[0.0]), (np.zeros(1), np.zeros(1)), BP0, 0.0)


def test_momentum_jump_zero_gap():
    pt = PhasePoint(R=[0.0, 0.0], P=[0.3, -0.1])
    out = momentum_jump(pt, np.array([1.0, 0.0]), 0.0, 1.0)
    assert np.allclose(out.P, pt.P)


def test_momentum_jump_frustrated():
    pt = PhasePoint(R=[0.0, 0.0], P=[0.1, 0.0])
    assert momentum_jump(pt, np.array([1.0, 0.0]), 1.0, 1.0) is None


def test_momentum_jump_downhill_conserves_energy():
    pt = PhasePoint(R=[0.0, 0.0], P=[0.4, -0.2])
    d = np.array([0.06, -0.06])
    delta_e = -4.0  # downhill
    out = momentum_jump(pt, d, delta_e, 1.0)
    dhat = d / np.linalg.norm(d)
    assert abs(out.P @ dhat) > abs(pt.P @ dhat)
    before = 0.5 * np.sum(pt.P**2)
    after = 0.5 * np.sum(out.P**2) + delta_e
    assert after == pytest.approx(before, abs=1e-12)
    # the perpendicular momentum component is untouched
    perp = np.array([dhat[1], -dhat[0]])
    assert out.P @ perp == pytest.approx(pt.P @ perp, abs=1e-14)


def paper_config(**kw):
    base = dict(n_steps=50, seed=99, n_samples=1, dt=0.01, initial_state=PHI)
    base.update(kw)
    return SimConfig(**base)


def reference_evolution(sp, bp, decay, config, n_steps):
    """Evolve every nonzero ordered pair of sample 0 with the single-member
    reference step and reconstruct the sample density matrix."""
    point = sample_bath_point(bp, trajectory_stream(config.seed, 0))
    frame0 = build_frame(sp, bp, point.R)
    rho0 = initial_subsystem(config.initial_state)
    elements = frame0.vectors.conj().T @ rho0 @ frame0.vectors
    members = []
    for a in range(4):
        for b in range(4):
            if abs(elements[a, b]) > 1e-14:
                members.append(
                    (PairTrajectory(a, b, point, weight=elements[a, b]), frame0)
                )
    for _ in range(n_steps):
        members = [
            sstp_step(m, f, sp, bp, decay, config.dt, mode="adiabatic") for m, f in members
        ]
    total = np.zeros((4, 4), dtype=complex)
    for m, f in members:
        factor = m.weight * np.exp(-1j * m.phase - m.decay)
        total += factor * np.outer(f.vectors[:, m.alpha], f.vectors[:, m.alpha_prime].conj())
    return members, total


@pytest.mark.filterwarnings("ignore::nhqc.oracle.DegeneratePairWarning")
@pytest.mark.parametrize("state,decay_kind,g", [(PHI, DecayKind.IDENTITY_UNIFORM, 0.5), (PSI, DecayKind.PROJECTOR_EE, 0.1)])
def test_engine_matches_reference_route(state, decay_kind, g):
    # closed-form block engine vs generic eigensolver route, 50 steps
    decay = decay_operator(decay_kind, g)
    config = paper_config(initial_state=state)
    engine = EnsembleState(PAPER_SP, PAPER_BP, decay, config)
    engine.advance(50)
    engine_matrix = engine.snapshot().sample_matrices()[0]
    _, reference_matrix = reference_evolution(PAPER_SP, PAPER_BP, decay, config, 50)
    assert np.max(np.abs(engine_matrix - reference_matrix)) < 1e-9


def test_engine_identity_decay_is_uniform():
    decay = decay_operator(DecayKind.IDENTITY_UNIFORM, 0.5)
    config = paper_config(n_steps=100, n_samples=8)
    engine = EnsembleState(PAPER_SP, PAPER_BP, decay, config)
    engine.advance(100)  # t = 1
    snap = engine.snapshot()
    assert np.allclose(snap.decay, 1.0, atol=1e-12)  # rate 2*gamma1 = 1
    assert np.allclose(snap.phase[snap.alpha == snap.alpha_prime], 0.0, atol=1e-14)


def test_engine_phase_constant_gap_at_zero_coupling():
    config = paper_config(n_steps=100)
    engine = EnsembleState(PAPER_SP, BP0, GAMMA0, config)
    engine.advance(100)
    snap = engine.snapshot()
    coher = (snap.alpha == 2) & (snap.alpha_prime == 3)
    # block gap is exactly 4 at c = 0, so the coherence phase is -4t or +4t
    assert np.allclose(np.abs(snap.phase[coher]), 4.0 * engine.t, atol=1e-10)


def test_engine_diagonal_member_conserves_energy():
    config = paper_config(n_steps=1000, seed=3)
    engine = EnsembleState(PAPER_SP, PAPER_BP, GAMMA0, config)
    snap0 = engine.snapshot()
    diag = np.nonzero(snap0.alpha == snap0.alpha_prime)[0][0]
    a = int(snap0.alpha[diag])
    e0 = snap0.frames.energies[a, diag] + 0.5 * np.sum(engine.P[:, diag] ** 2)
    engine.advance(1000)
    snap1 = engine.snapshot()
    e1 = snap1.frames.energies[a, diag] + 0.5 * np.sum(engine.P[:, diag] ** 2)
    assert e1 == pytest.approx(e0, abs=2e-3)  # O(dt^2) drift over t = 10


def test_engine_deterministic():
    decay = decay_operator(DecayKind.IDENTITY_UNIFORM, 0.1)
    config = paper_config(n_steps=20, n_samples=5, output_stride=10)
    runs = []
    for _ in range(2):
        engine = EnsembleState(PAPER_SP, PAPER_BP, decay, config)
        outputs = []
        for k in range(3):
            if k:
                engine.advance(config.output_stride)
            snap = engine.snapshot()
            outputs.append(
                (engine.t, snap.weight.copy(), snap.phase.copy(), engine.R.copy(), snap.sample_matrices())
            )
        runs.append(outputs)
    for out1, out2 in zip(*runs):
        assert out1[0] == out2[0]
        for a, b in zip(out1[1:], out2[1:]):
            assert np.array_equal(a, b)


def test_member_count_constant():
    config = paper_config(n_samples=3, initial_state=PSI)
    engine = EnsembleState(PAPER_SP, PAPER_BP, GAMMA0, config)
    n0 = engine.summary.n_members
    assert n0 == 3 * 9  # three slots populated -> nine ordered pairs per sample
    engine.advance(10)
    snap = engine.snapshot()
    # stored members plus their implicit mirrors
    assert snap.weight.size + np.count_nonzero(snap.mirrored) == n0
    assert np.all((0 <= snap.alpha) & (snap.alpha <= 3))
    assert np.all((0 <= snap.alpha_prime) & (snap.alpha_prime <= 3))
    assert np.all(np.isfinite(snap.phase)) and np.all(snap.decay >= 0)


def test_snapshot_matrices_hermitian_adiabatic():
    decay = decay_operator(DecayKind.PROJECTOR_EE, 0.1)
    config = paper_config(n_samples=16, n_steps=40, initial_state=PSI)
    engine = EnsembleState(PAPER_SP, PAPER_BP, decay, config)
    engine.advance(40)
    mats = engine.snapshot().sample_matrices()
    assert np.max(np.abs(mats - mats.conj().transpose(0, 2, 1))) < 1e-14


def test_nonadiabatic_reduces_to_adiabatic_without_coupling():
    # at c = 0 every transition channel has zero amplitude
    config_a = paper_config(n_samples=6, n_steps=30)
    config_n = SimConfig(
        n_steps=30, seed=99, n_samples=6, dt=0.01, initial_state=PHI, mode="nonadiabatic"
    )
    ea = EnsembleState(PAPER_SP, BP0, GAMMA0, config_a)
    en = EnsembleState(PAPER_SP, BP0, GAMMA0, config_n)
    ea.advance(30)
    en.advance(30)
    assert en.summary.n_hops == 0
    ma = ea.snapshot().sample_matrices()
    mn = en.snapshot().sample_matrices()
    assert np.max(np.abs(ma - mn)) < 1e-13


def test_nonadiabatic_hops_occur_and_stay_finite():
    strong = BathParams(c=1.5, beta=0.1)
    config = SimConfig(
        n_steps=200, seed=5, n_samples=32, dt=0.01, initial_state=PHI, mode="nonadiabatic"
    )
    engine = EnsembleState(PAPER_SP, strong, GAMMA0, config)
    engine.advance(200)
    assert engine.summary.n_hops > 0
    snap = engine.snapshot()
    assert np.all(np.isfinite(snap.weight.view(float)))
    mats = snap.sample_matrices()
    assert np.all(np.isfinite(mats.view(float)))


def test_nonadiabatic_mirror_pairs_stay_conjugate():
    strong = BathParams(c=1.5, beta=0.1)
    config = SimConfig(
        n_steps=150, seed=11, n_samples=8, dt=0.01, initial_state=PHI, mode="nonadiabatic"
    )
    engine = EnsembleState(PAPER_SP, strong, GAMMA0, config)
    engine.advance(150)
    snap = engine.snapshot()
    # find explicit mirror partners: same sample, swapped labels at t=0 means
    # their full histories are conjugate, so phases are opposite and weights conjugate
    n = snap.n_samples  # member k * n + s belongs to sample s
    checked = 0
    for i in range(snap.weight.size):
        for j in range(i + n, snap.weight.size, n):
            if snap.alpha[i] == snap.alpha_prime[j] and snap.alpha_prime[i] == snap.alpha[j] and snap.alpha[i] != snap.alpha[j]:
                if np.array_equal(engine.R[:, i], engine.R[:, j]):
                    assert snap.phase[i] == pytest.approx(-snap.phase[j], abs=1e-12)
                    assert snap.weight[i] == pytest.approx(np.conj(snap.weight[j]), abs=1e-12)
                    checked += 1
    assert checked > 0


def test_simulate_matches_engine_reduction():
    decay = decay_operator(DecayKind.IDENTITY_UNIFORM, 0.2)
    config = paper_config(n_samples=10, n_steps=20, output_stride=10)
    series, summary = simulate(PAPER_SP, PAPER_BP, decay, config)
    engine = EnsembleState(PAPER_SP, PAPER_BP, decay, config)
    assert len(series.rows) == 3
    for k, row in enumerate(series.rows):
        if k:
            engine.advance(config.output_stride)
        assert row.t == pytest.approx(engine.t, abs=1e-12)
        direct = reduce_snapshot(engine.snapshot())
        assert np.max(np.abs(row.density.elements - direct.elements)) < 1e-15
    assert summary.n_members == 4 * 10


def test_decay_integral_monotone_for_psd_operator():
    decay = decay_operator(DecayKind.PROJECTOR_EE, 0.3)
    config = paper_config(n_samples=12, n_steps=60, initial_state=PSI)
    engine = EnsembleState(PAPER_SP, PAPER_BP, decay, config)
    # snapshots are views of the engine's arrays: keep copies to compare
    previous = engine.snapshot().decay.copy()
    for _ in range(6):
        engine.advance(10)
        current = engine.snapshot().decay.copy()
        assert np.all(current >= previous - 1e-14)
        previous = current


def test_custom_ket_initial_state_runs():
    ket = tuple(np.array([1.0, 1.0, 1.0, 1.0]) / 2.0)
    config = SimConfig(n_steps=40, seed=13, n_samples=6, dt=0.01, initial_state=ket)
    engine = EnsembleState(PAPER_SP, PAPER_BP, GAMMA0, config)
    engine.advance(40)
    red = reduce_snapshot(engine.snapshot())
    assert np.real(red.trace) == pytest.approx(1.0, abs=1e-10)
    red.validate()


def test_simulate_thread_invariance(monkeypatch):
    # shrink the chunk size so 40 samples span several chunks
    import nhqc.propagator as prop

    monkeypatch.setattr(prop, "CHUNK_SAMPLES", 8)
    decay = decay_operator(DecayKind.PROJECTOR_EE, 0.05)
    config = SimConfig(n_steps=30, seed=17, n_samples=40, dt=0.01, initial_state=PSI, output_stride=15)
    series1, _ = simulate(PAPER_SP, PAPER_BP, decay, config, threads=1)
    series2, _ = simulate(PAPER_SP, PAPER_BP, decay, config, threads=4)
    for r1, r2 in zip(series1.rows, series2.rows):
        assert np.array_equal(r1.density.elements, r2.density.elements)
        assert np.array_equal(r1.density.stderr, r2.density.stderr)


def test_simulate_chunking_invariance(monkeypatch):
    # the pooled moments from many chunks must match a single-chunk run
    import nhqc.propagator as prop

    decay = decay_operator(DecayKind.IDENTITY_UNIFORM, 0.3)
    config = SimConfig(n_steps=20, seed=23, n_samples=30, dt=0.01, initial_state=PHI, output_stride=20)
    whole, _ = simulate(PAPER_SP, PAPER_BP, decay, config)
    monkeypatch.setattr(prop, "CHUNK_SAMPLES", 7)
    pieces, _ = simulate(PAPER_SP, PAPER_BP, decay, config)
    for r1, r2 in zip(whole.rows, pieces.rows):
        assert np.max(np.abs(r1.density.elements - r2.density.elements)) < 1e-14
        assert np.max(np.abs(r1.density.stderr - r2.density.stderr)) < 1e-14
        assert r1.trace_stderr == pytest.approx(r2.trace_stderr, abs=1e-14)

import math
from dataclasses import replace

import numpy as np
import pytest

from nhqc.adiabatic import SLOT_SZ, Block, slot_coupling, slot_frames
from nhqc.model import (
    PHI,
    PSI,
    REFERENCE_BP,
    REFERENCE_SP,
    BathParams,
    DecayKind,
    SimConfig,
    SpinChainParams,
    decay_operator,
)
from nhqc.oracle import (
    PairTrajectory,
    PhasePoint,
    build_frame,
    classical_step,
    decay_matrix,
    dense_sample_matrices,
    frame_matrices,
    frames_at,
    oscillator_couplings,
    sstp_step,
    transition_channels,
)
from nhqc.propagator import (
    CHUNK_SAMPLES,
    HOP_STREAM_TAG,
    SPAWN_TOL,
    EnsembleState,
    _momentum_jump,
    member_factor,
    simulate,
)
from nhqc.sampler import initial_subsystem, sample_bath_point

from engines import reduce_snapshot, sampled_engine

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
    p = np.array([0.2])  # p_A = P1 + P2 of P = (0.3, -0.1)
    assert np.allclose(_momentum_jump(p, np.array([0.0]), 1.0), p)


def test_momentum_jump_downhill_conserves_energy():
    P0 = np.array([0.4, -0.2])
    p_a, p_b = P0[0] + P0[1], P0[0] - P0[1]  # a block-B coupling lies along (1, -1)
    delta_e = -4.0  # downhill
    shifted = _momentum_jump(np.array([p_b]), np.array([delta_e]), 1.0)
    P1 = np.array([p_a + shifted[0], p_a - shifted[0]]) / 2
    dhat = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert abs(P1 @ dhat) > abs(P0 @ dhat)
    before = (p_a**2 + p_b**2) / 4  # 0.5 |P|^2 in normal coordinates
    after = (p_a**2 + shifted[0] ** 2) / 4 + delta_e
    assert after == pytest.approx(before, abs=1e-12)
    # the perpendicular momentum component is untouched
    perp = np.array([dhat[1], -dhat[0]])
    assert P1 @ perp == pytest.approx(P0 @ perp, abs=1e-14)


def momentum_jump_2d(P, d, delta_e, mass):
    """The oscillator-space jump rule: shift P (2, k) along the unit vector of
    d (k, 2) to absorb delta_e; returns the allowed mask and the shifted
    momenta of the allowed members, shape (2, count)."""
    norm = np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2)
    d1 = d[:, 0] / norm
    d2 = d[:, 1] / norm
    pdot = P[0] * d1 + P[1] * d2
    radicand = pdot**2 - 2.0 * mass * delta_e
    ok = radicand >= 0.0
    shift = np.copysign(np.sqrt(radicand[ok]), pdot[ok]) - pdot[ok]
    return ok, np.array([P[0, ok] + shift * d1[ok], P[1, ok] + shift * d2[ok]])


def test_momentum_jump_equals_the_oscillator_space_rule():
    rng = np.random.default_rng(17)
    n, mass = 1000, 1.3
    P = rng.normal(size=(2, n))
    sign = rng.choice([1.0, -1.0], n)  # along (1, 1) for block A, (1, -1) for block B
    row = rng.choice([1.0, -1.0], n) * rng.uniform(0.01, 2.0, n)
    d = np.stack([row, sign * row], axis=1)
    delta_e = rng.normal(scale=0.5, size=n)
    ok, P_2d = momentum_jump_2d(P, d, delta_e, mass)
    assert 0 < np.count_nonzero(~ok) < n
    # the hop stage closes the uphill rows the jump cannot pay for, so
    # _momentum_jump sees only allowed members
    p_k, p_other = P[0] + sign * P[1], P[0] - sign * P[1]
    p_new = _momentum_jump(p_k[ok], delta_e[ok], mass)
    s = sign[ok]
    assert np.allclose(p_new, P_2d[0] + s * P_2d[1], rtol=1e-12, atol=0)
    assert np.allclose(p_other[ok], P_2d[0] - s * P_2d[1], rtol=1e-12, atol=0)


def paper_config(**kw):
    base = dict(n_steps=50, seed=99, n_samples=1, dt=0.01, initial_state=PHI)
    base.update(kw)
    return SimConfig(**base)


def reference_evolution(sp, bp, decay, config, point, n_steps):
    """Evolve every nonzero ordered pair started at the bath point ``point``
    with the single-member reference step and reconstruct the sample
    density matrix."""
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
        members = [sstp_step(m, f, sp, bp, decay, config.dt) for m, f in members]
    total = np.zeros((4, 4), dtype=complex)
    for m, f in members:
        factor = m.weight * np.exp(-1j * m.phase - m.decay)
        total += factor * np.outer(f.vectors[:, m.alpha], f.vectors[:, m.alpha_prime].conj())
    return members, total


# hand-picked starting points (R1, R2, P1, P2): two generic ones, one on
# block A's crossing R1 + R2 = 0, and the origin
REFERENCE_POINTS = np.array(
    [[0.9, -0.4, 0.6, 1.3], [-1.7, 0.5, -0.8, 0.2], [1.1, -1.1, 0.7, -0.3], [0.0, 0.0, 0.0, 0.0]]
)


@pytest.mark.parametrize("state,decay_kind,g", [(PHI, DecayKind.IDENTITY_UNIFORM, 0.5), (PSI, DecayKind.PROJECTOR_EE, 0.1)])
def test_engine_matches_reference_route(state, decay_kind, g):
    # closed-form block engine vs generic eigensolver route from the same
    # points, 50 steps
    decay = decay_operator(decay_kind, g)
    config = paper_config(initial_state=state)
    r1, r2, p1, p2 = REFERENCE_POINTS.T
    engine = EnsembleState(PAPER_SP, PAPER_BP, decay, config, (r1 + r2, r1 - r2), (p1 + p2, p1 - p2))
    engine.advance(50)
    matrices = engine.snapshot().sample_matrices().matrices()
    assert matrices.shape == (len(REFERENCE_POINTS), 4, 4)
    for (r1, r2, p1, p2), matrix in zip(REFERENCE_POINTS, matrices):
        point = PhasePoint(R=[r1, r2], P=[p1, p2])
        _, reference = reference_evolution(PAPER_SP, PAPER_BP, decay, config, point, 50)
        assert np.max(np.abs(matrix - reference)) < 1e-9


def test_engine_identity_decay_is_uniform():
    decay = decay_operator(DecayKind.IDENTITY_UNIFORM, 0.5)
    config = paper_config(n_steps=100, n_samples=8)
    engine = sampled_engine(PAPER_SP, PAPER_BP, decay, config)
    engine.advance(100)  # t = 1
    snap = engine.snapshot()
    assert np.allclose(snap.decay, 1.0, atol=1e-12)  # rate 2*gamma1 = 1
    assert np.allclose(snap.phase[snap.alpha == snap.alpha_prime], 0.0, atol=1e-14)


def test_engine_phase_constant_gap_at_zero_coupling():
    config = paper_config(n_steps=100)
    engine = sampled_engine(PAPER_SP, BP0, GAMMA0, config)
    engine.advance(100)
    snap = engine.snapshot()
    coher = (snap.alpha == 2) & (snap.alpha_prime == 3)
    # block gap is exactly 4 at c = 0, so the coherence phase is -4t or +4t
    assert np.allclose(np.abs(snap.phase[coher]), 4.0 * engine.t, atol=1e-10)


def member_rows(engine, k, members):
    """Rows of block k's normal coordinates and momenta holding ``members``
    (all in columns that store block k)."""
    first = engine._cols[k].start * engine.n_local
    return np.asarray(members) - first


def test_engine_diagonal_member_conserves_energy():
    config = paper_config(n_steps=1000, seed=3)
    engine = sampled_engine(PAPER_SP, PAPER_BP, GAMMA0, config)
    snap0 = engine.snapshot()
    diag = np.nonzero(snap0.alpha == snap0.alpha_prime)[0][0]
    a = int(snap0.alpha[diag])
    k = a // 2  # the normal mode the member's block depends on
    row = member_rows(engine, k, diag)
    mass, restore = PAPER_BP.mass, PAPER_BP.mass * PAPER_BP.omega**2

    def energy(snap):
        # the slot energy from V_bath plus the normal mode's own energy
        q, p = engine._q[k][row], engine._p[k][row]
        return snap.blocks[k].energies[a % 2, row] + p**2 / (4 * mass) + restore * q**2 / 4

    e0 = energy(snap0)
    engine.advance(1000)
    e1 = energy(engine.snapshot())
    assert e1 == pytest.approx(e0, abs=2e-3)  # O(dt^2) drift over t = 10


def test_engine_deterministic():
    decay = decay_operator(DecayKind.IDENTITY_UNIFORM, 0.1)
    config = paper_config(n_steps=20, n_samples=5, output_stride=10)
    runs = []
    for _ in range(2):
        engine = sampled_engine(PAPER_SP, PAPER_BP, decay, config)
        outputs = []
        for k in range(3):
            if k:
                engine.advance(config.output_stride)
            snap = engine.snapshot()
            outputs.append(
                (engine.t, snap.weight.copy(), snap.phase.copy(), engine.q.copy(), snap.sample_matrices().matrices())
            )
        runs.append(outputs)
    for out1, out2 in zip(*runs):
        assert out1[0] == out2[0]
        for a, b in zip(out1[1:], out2[1:]):
            assert np.array_equal(a, b)


def test_member_count_constant():
    config = paper_config(n_samples=3, initial_state=PSI)
    engine = sampled_engine(PAPER_SP, PAPER_BP, GAMMA0, config)
    n0 = engine.summary.n_members
    assert n0 == 3 * 9  # three slots populated -> nine ordered pairs per sample
    engine.advance(10)
    snap = engine.snapshot()
    # stored members plus the implicit partners of the off-diagonal ones
    assert snap.weight.size + np.count_nonzero(snap.alpha != snap.alpha_prime) == n0
    # the same ordered pairs in nonadiabatic mode
    config = paper_config(n_samples=3, initial_state=PSI, mode="nonadiabatic")
    nonadiabatic = sampled_engine(PAPER_SP, PAPER_BP, GAMMA0, config)
    assert nonadiabatic.weight.size == snap.weight.size
    assert nonadiabatic.summary.n_members == n0
    assert np.all((0 <= snap.alpha) & (snap.alpha <= 3))
    assert np.all((0 <= snap.alpha_prime) & (snap.alpha_prime <= 3))
    assert np.all(np.isfinite(snap.phase)) and np.all(snap.decay >= 0)


@pytest.mark.parametrize("mode,c", [("adiabatic", 0.24), ("nonadiabatic", 1.5)])
def test_snapshot_matrices_hermitian(mode, c):
    # every sample's matrix, not only the mean: the implicit partners make it
    # X + X^dagger whatever its members hopped to, bit for bit
    decay = decay_operator(DecayKind.PROJECTOR_EE, 0.1)
    config = paper_config(n_samples=16, n_steps=40, initial_state=PSI, mode=mode)
    engine = sampled_engine(PAPER_SP, BathParams(c=c, beta=0.1), decay, config)
    engine.advance(40)
    assert (engine.summary.n_hops > 0) == (mode == "nonadiabatic")
    mats = engine.snapshot().sample_matrices().matrices()
    assert np.array_equal(mats, mats.conj().transpose(0, 2, 1))
    assert np.all(np.diagonal(mats, axis1=1, axis2=2).imag == 0)


def test_nonadiabatic_reduces_to_adiabatic_without_coupling():
    # at c = 0 every transition channel has zero amplitude
    config_a = paper_config(n_samples=6, n_steps=30)
    config_n = SimConfig(
        n_steps=30, seed=99, n_samples=6, dt=0.01, initial_state=PHI, mode="nonadiabatic"
    )
    ea = sampled_engine(PAPER_SP, BP0, GAMMA0, config_a)
    en = sampled_engine(PAPER_SP, BP0, GAMMA0, config_n)
    ea.advance(30)
    en.advance(30)
    assert en.summary.n_hops == 0
    # both modes run the one reduction, and no channel opens
    ma = ea.snapshot().sample_matrices().matrices()
    mn = en.snapshot().sample_matrices().matrices()
    assert ma.tobytes() == mn.tobytes()


def test_nonadiabatic_hops_occur_and_stay_finite():
    strong = BathParams(c=1.5, beta=0.1)
    config = SimConfig(
        n_steps=200, seed=5, n_samples=32, dt=0.01, initial_state=PHI, mode="nonadiabatic"
    )
    engine = sampled_engine(PAPER_SP, strong, GAMMA0, config)
    engine.advance(200)
    assert engine.summary.n_hops > 0
    snap = engine.snapshot()
    assert np.all(np.isfinite(snap.weight.view(float)))
    mats = snap.sample_matrices().matrices()
    assert np.all(np.isfinite(mats))


def two_force_verlet(engine, n_steps):
    """Reference for ``advance``: velocity Verlet on each stored normal-mode
    row with the force c n_k sz_k - M omega^2 q_k evaluated twice per step
    from the frames and labels, before the drift and after it, n_k summed
    from the labels' spin-1 signs, and every pair cache rebuilt for all
    members after a hop stage.  Each member adds dt times its labels'
    constant decay rates and, where rates vary, the trapezoid of their sz_A
    coefficients times block A's sz.  Returns the decay integrals, which it
    accumulates per member, whatever the engine's layout of them."""
    bp, dt, n = engine.bp, engine.config.dt, engine.n_local
    decay = np.zeros(engine.weight.size)

    def force(k):
        columns = engine._cols[k]
        a, b = (x.reshape(-1, n)[columns.start : columns.stop] for x in (engine.alpha, engine.alpha_prime))
        n_k = sum(np.where(x // 2 == k, np.array(SLOT_SZ)[x, 0], 0.0) for x in (a, b))
        sz = engine._blocks[k].sz
        sz = sz.reshape(-1, n) if np.ndim(sz) else sz
        return (bp.c * n_k * sz - bp.mass * bp.omega**2 * engine._q[k].reshape(-1, n)).ravel()

    def kick():
        for k in range(2):
            if engine._q[k].size:
                engine._p[k][:] += 0.5 * dt * force(k)

    for _ in range(n_steps):
        kick()
        engine.q += dt / bp.mass * engine.p
        omega_old, block_a = engine._omega.copy(), engine._blocks[0]
        engine._refresh_frames()
        engine._refresh_pair_caches()
        kick()
        live = engine._live
        engine.phase.reshape(-1, n)[live.start : live.stop] += 0.5 * dt * (omega_old + engine._omega)
        a, b = engine.alpha, engine.alpha_prime
        decay += dt * (engine._rate[a] + engine._rate[b])
        if engine._rates_vary:
            rows = engine._q[0].size  # block A's columns come first
            slope = engine._slope[a[:rows]] + engine._slope[b[:rows]]
            decay[:rows] += 0.5 * dt * slope * (block_a.sz + engine._blocks[0].sz)
        if engine.mode == "nonadiabatic":
            engine._hop_stage(dt)
            engine._relabel(np.arange(engine.weight.size))
            engine._refresh_pair_caches()
        engine._step_index += 1
        engine.t = engine._step_index * dt
    return decay


@pytest.mark.parametrize(
    "jy,c,state,decay,mode",
    [
        (-1.0, 0.24, PHI, decay_operator(DecayKind.IDENTITY_UNIFORM, 0.5), "adiabatic"),
        (-0.6, 0.24, PSI, decay_operator(DecayKind.PROJECTOR_EE, 0.1), "adiabatic"),
        # rates constant in R, and hops that rewrite every coefficient but the rate
        (-0.6, 1.5, PHI, decay_operator(DecayKind.IDENTITY_UNIFORM, 0.5), "nonadiabatic"),
        # both blocks hop under constant rates, which the engine holds per
        # column: a hop must leave each member's constant rates as they were
        (-0.6, 1.5, PSI, decay_operator(DecayKind.IDENTITY_UNIFORM, 0.5), "nonadiabatic"),
        (-0.6, 1.5, PSI, decay_operator(DecayKind.PROJECTOR_EE, 0.1), "nonadiabatic"),
        # block A uncoupled: the (0, 0) column never moves, so the live
        # columns, whose frequencies hops rewrite, start after column 0
        (-1.0, 1.5, PSI, decay_operator(DecayKind.PROJECTOR_EE, 0.1), "nonadiabatic"),
    ],
)
def test_advance_equals_the_two_force_verlet_step_bit_for_bit(jy, c, state, decay, mode):
    # one cached force per step, refreshed after the drift and after each
    # hop stage, reproduces the step that evaluates the force twice
    sp, bp = SpinChainParams(jx=-1.0, jy=jy, jz=0.5), BathParams(c=c, beta=0.1)
    config = SimConfig(n_steps=60, seed=5, n_samples=32, initial_state=state, mode=mode)
    engine, reference = (sampled_engine(sp, bp, decay, config) for _ in range(2))
    engine.advance(60)
    decay = two_force_verlet(reference, 60)
    if mode == "nonadiabatic":
        assert engine.summary.n_hops > 0
    assert (engine.summary.n_hops, engine.summary.n_frustrated) == (
        reference.summary.n_hops, reference.summary.n_frustrated
    )
    for name in ("q", "p", "phase", "weight", "alpha", "alpha_prime"):
        assert np.array_equal(getattr(engine, name), getattr(reference, name)), name
    # a (K, 1) column integral stands for each of its members' own
    members = np.broadcast_to(engine.decay_acc, (engine.decay_acc.shape[0], config.n_samples))
    assert np.array_equal(members.ravel(), decay)


@pytest.mark.parametrize(
    "jy,decay,mode,per_column",
    [
        # the two adiabatic benchmark models: rates constant in R
        (-1.0, decay_operator(DecayKind.IDENTITY_UNIFORM, 0.5), "adiabatic", True),
        (-1.0, decay_operator(DecayKind.PROJECTOR_EE, 0.1), "adiabatic", True),
        # block A coupled and |ee>, |gg> decaying at different rates: the
        # rates follow each member's frame
        (-0.6, decay_operator(DecayKind.PROJECTOR_EE, 0.1), "adiabatic", False),
        # a member's labels can move, but only within a coupled block, whose
        # two slots share one constant rate
        (-1.0, decay_operator(DecayKind.IDENTITY_UNIFORM, 0.5), "nonadiabatic", True),
        (-0.6, decay_operator(DecayKind.IDENTITY_UNIFORM, 0.5), "nonadiabatic", True),
        (-1.0, decay_operator(DecayKind.PROJECTOR_EE, 0.1), "nonadiabatic", True),
        (-0.6, decay_operator(DecayKind.PROJECTOR_EE, 0.1), "nonadiabatic", False),
    ],
)
def test_decay_integrals_are_per_column_only_for_constant_rates(jy, decay, mode, per_column):
    sp = SpinChainParams(jx=-1.0, jy=jy, jz=0.5)
    config = SimConfig(n_steps=10, seed=5, n_samples=16, initial_state=PSI, mode=mode)
    engine = sampled_engine(sp, PAPER_BP, decay, config)
    engine.advance(10)
    n_columns = engine.weight.size // 16
    assert engine.decay_acc.shape == (n_columns, 1 if per_column else 16)
    assert engine.snapshot().decay is engine.decay_acc


@pytest.mark.parametrize(
    "jy,decay",
    [
        (-0.6, decay_operator(DecayKind.IDENTITY_UNIFORM, 0.5)),  # both blocks coupled
        (-1.0, decay_operator(DecayKind.PROJECTOR_EE, 0.1)),  # block A uncoupled, as in fig3
        (-0.6, decay_operator(DecayKind.PROJECTOR_EE, 0.1)),  # rates that follow sz_A
    ],
)
@pytest.mark.parametrize("mode", ["adiabatic", "nonadiabatic"])
@pytest.mark.parametrize("state", [PHI, PSI])
def test_steps_leave_the_frame_vectors_and_energies_unbuilt(state, jy, decay, mode, monkeypatch):
    # a step reads only the half gaps and the per-block <sigma_z> rows: the
    # force, the decay rates and the hop stage's amplitudes and jump gaps.
    # The reduction reads sz and sx within a block; it builds x and y only
    # on the columns that can hold a cross-block pair, of which phi has none
    vector_at, built = Block.vector_at, []

    def recorded(block, rows):
        built.append((block.rows, rows.start, rows.stop))
        return vector_at(block, rows)

    monkeypatch.setattr(Block, "vector_at", recorded)
    sp = SpinChainParams(jx=-1.0, jy=jy, jz=0.5)
    config = SimConfig(n_steps=10, seed=5, n_samples=16, initial_state=state, mode=mode)
    engine = sampled_engine(sp, PAPER_BP, decay, config)
    assert not any("vector" in vars(block) for block in engine._blocks if block is not None)
    engine.advance(10)
    assert (engine.summary.n_hops > 0) == (mode == "nonadiabatic")
    blocks = [block for block in engine._blocks if block is not None]
    assert not any({"vector", "energies"} & set(vars(block)) for block in blocks)
    built.clear()  # the initial elements read every row's vector
    engine.snapshot().sample_matrices()
    assert not any({"vector", "energies"} & set(vars(block)) for block in blocks)
    both, n = range(engine._cols[1].start, engine._cols[0].stop), config.n_samples
    cross = [
        (block.rows, (both.start - columns.start) * n, (both.stop - columns.start) * n)
        for block, columns in zip(engine._blocks, engine._cols)
        if both and block.half_gap is not None
    ]
    assert sorted(built) == cross
    assert bool(built) == (state == PSI)


def test_constant_decay_integrals_do_not_depend_on_the_chunk():
    # identity decay at the reference couplings, where block B is coupled:
    # every rate is exactly gamma, whatever bath points an engine starts from
    config = SimConfig(n_steps=10, seed=5, n_samples=2 * CHUNK_SAMPLES, initial_state=PHI)
    decay = decay_operator(DecayKind.IDENTITY_UNIFORM, 0.5)
    integrals = []
    for start in (0, 64, 640, 4032, CHUNK_SAMPLES, CHUNK_SAMPLES + 512):
        engine = sampled_engine(REFERENCE_SP, REFERENCE_BP, decay, config, start, 64)
        engine.advance(10)
        assert engine.decay_acc.shape[1] == 1
        integrals.append(engine.decay_acc.tobytes())
    assert len(set(integrals)) == 1


def test_simulate_rejects_an_empty_start():
    # c = 1e308 overflows every initial frame of phi: no pair is spawned, and
    # an empty ensemble would read trace 0 from t = 0 on
    config = SimConfig(n_steps=10, seed=2, n_samples=10, initial_state=PHI)
    decay = decay_operator(DecayKind.IDENTITY_UNIFORM, 0.5)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="^trace at t = 0"):
        simulate(PAPER_SP, BathParams(c=1e308, beta=0.1), decay, config)


def full_block_hop_uniforms(engine, start, codes):
    """Reference for the hop uniforms: the stream of the samples' block drawn
    in full (CHUNK_SAMPLES * 16 uniforms), member k * n + s read at
    16 ((start + s) mod CHUNK_SAMPLES) plus its pair's code ``codes[k, s]``
    as set up."""
    seq = np.random.SeedSequence([engine.config.seed, HOP_STREAM_TAG, engine._step_index, start // CHUNK_SAMPLES])
    block = np.random.Generator(np.random.Philox(seq)).random(CHUNK_SAMPLES * 16)
    rows = (start + np.arange(engine.n_local)) % CHUNK_SAMPLES
    return block[(rows * 16 + codes).ravel()]


def test_hop_uniforms_equal_the_full_block_draw():
    # the last 92 samples of the second block
    start, n = 2 * CHUNK_SAMPLES - 92, 92
    strong = BathParams(c=1.5, beta=0.1)
    config = SimConfig(n_steps=3, seed=5, n_samples=2 * CHUNK_SAMPLES, initial_state=PSI, mode="nonadiabatic")
    engine = sampled_engine(PAPER_SP, strong, GAMMA0, config, start, n)
    codes = (engine.alpha * 4 + engine.alpha_prime).reshape(-1, n)
    for _ in range(3):
        assert np.array_equal(engine._hop_uniforms(), full_block_hop_uniforms(engine, start, codes))
        engine.advance(1)
    assert engine.summary.n_hops > 0


@pytest.mark.parametrize("mode", ["adiabatic", "nonadiabatic"])
def test_engine_rejects_samples_across_two_blocks(mode):
    # a nonadiabatic engine reads one block's hop stream: samples of the next
    # block would silently read draws of the wrong stream
    config = SimConfig(n_steps=1, seed=5, n_samples=2 * CHUNK_SAMPLES, initial_state=PSI, mode=mode)
    rows = (np.zeros(200), np.zeros(200))
    with pytest.raises(ValueError, match="straddle a block"):
        EnsembleState(PAPER_SP, PAPER_BP, GAMMA0, config, rows, rows, CHUNK_SAMPLES - 100)
    # ending on the boundary stays inside the first block
    EnsembleState(PAPER_SP, PAPER_BP, GAMMA0, config, rows, rows, CHUNK_SAMPLES - 200)


@pytest.mark.parametrize(
    "q0, p0, start, fault",
    [
        ((np.zeros(0), np.zeros(0)), (np.zeros(0), np.zeros(0)), 0, "hold no sample"),
        ((np.zeros(8), np.zeros(8)), (np.zeros(8), np.zeros(8)), -1, "sample_start must be >= 0, got -1"),
        ((np.zeros(8), np.zeros(7)), (np.zeros(8), np.zeros(8)), 0, "1-D rows of one length"),
        ((np.zeros(8), np.zeros(8)), (np.zeros(9), np.zeros(9)), 0, "1-D rows of one length"),
        ((np.zeros((8, 1)), np.zeros((8, 1))), (np.zeros((8, 1)), np.zeros((8, 1))), 0, "1-D rows of one length"),
        ((np.zeros(8),) * 3, (np.zeros(8),) * 2, 0, "two rows each"),
    ],
    ids=["empty", "negative-start", "unequal-blocks", "unequal-q-p", "2-D", "three-rows"],
)
def test_engine_rejects_bad_starting_rows(q0, p0, start, fault):
    config = SimConfig(n_steps=1, seed=5, n_samples=8, initial_state=PSI)
    with pytest.raises(ValueError, match=fault):
        EnsembleState(PAPER_SP, PAPER_BP, GAMMA0, config, q0, p0, start)


# psi's initial weights may differ from the dense sandwich by this many
# ulps: each is the product of two rounded amplitudes, u_p c times u_q c,
# where the sandwich rounds c^2 and two products
SETUP_ULPS = 6


@pytest.mark.parametrize("state", [PHI, PSI])
@pytest.mark.parametrize("jy", [-1.0, -0.6, 1.0])  # block A uncoupled, both coupled, block B uncoupled
def test_initial_weights_equal_the_dense_sandwich(jy, state):
    # each pair the engine spawns starts at its element of u^T rho0 u over
    # the dense frame matrices, halved on the diagonal, and it spawns
    # exactly the pairs whose element exceeds SPAWN_TOL in some sample
    sp = SpinChainParams(jx=-1.0, jy=jy, jz=0.5)
    config = SimConfig(n_steps=1, seed=21, n_samples=500, initial_state=state)
    n = config.n_samples
    engine = sampled_engine(sp, PAPER_BP, GAMMA0, config)
    R, _ = sample_bath_point(PAPER_BP, config.seed, 0, n)
    u = frame_matrices(frames_at(sp, PAPER_BP, R).blocks)
    expected = np.einsum("nip,ij,njq->pqn", u, initial_subsystem(state), u)
    spawned = [(p, q) for p in range(4) for q in range(p, 4) if np.any(np.abs(expected[p, q]) > SPAWN_TOL)]
    labels = list(zip(engine.alpha[::n].tolist(), engine.alpha_prime[::n].tolist()))
    assert sorted(labels) == spawned
    for (p, q), weight in zip(labels, engine.weight.reshape(-1, n)):
        want = expected[p, q] * (0.5 if p == q else 1.0)
        if state == PHI:
            assert np.array_equal(weight, want), (p, q)
        else:
            assert np.all(np.abs(weight - want) <= SETUP_ULPS * np.spacing(np.abs(want))), (p, q)


def test_transition_channels():
    R, _ = sample_bath_point(PAPER_BP, 21, 0, 50)
    frames_ab = frames_at(SpinChainParams(jx=-1.0, jy=-0.6, jz=0.5), PAPER_BP, R).blocks  # both blocks coupled
    frames_b = frames_at(PAPER_SP, PAPER_BP, R).blocks  # block A uncoupled
    identity = decay_operator(DecayKind.IDENTITY_UNIFORM, 0.5)
    projector = decay_operator(DecayKind.PROJECTOR_EE, 0.1)
    # each coupled block's derivative coupling, upper to lower slot and back
    coupling = {k: [(side, s, "coupling") for s in (2 * k, 2 * k + 1) for side in ("ket", "bra")] for k in range(2)}
    assert transition_channels(identity, frames_ab) == coupling[0] + coupling[1]
    assert transition_channels(projector, frames_b) == coupling[1]
    # then block A's decay channels, in the same order
    assert transition_channels(projector, frames_ab) == coupling[0] + coupling[1] + [
        ("ket", 0, "decay"), ("bra", 0, "decay"), ("ket", 1, "decay"), ("bra", 1, "decay")
    ]
    # the projector's decay channels open at any gamma != 0, and only then
    negative = decay_operator(DecayKind.PROJECTOR_EE, -0.1)
    assert transition_channels(negative, frames_ab) == transition_channels(projector, frames_ab)
    closed = decay_operator(DecayKind.PROJECTOR_EE, 0.0)
    assert transition_channels(closed, frames_ab) == coupling[0] + coupling[1]


@pytest.mark.parametrize(
    "decay",
    [
        decay_operator(DecayKind.IDENTITY_UNIFORM, 0.5),
        decay_operator(DecayKind.PROJECTOR_EE, 0.1),
        decay_operator(DecayKind.PROJECTOR_EE, 0.0),
    ],
    ids=["identity", "projector", "projector-zero"],
)
@pytest.mark.parametrize("jy", [-1.0, -0.6, 1.0])  # block A uncoupled, both coupled, block B uncoupled
@pytest.mark.parametrize("state", [PHI, PSI])
def test_columns_hold_the_pairs_the_oracle_channels_reach(state, jy, decay):
    # a label reaches its own slot and the targets of the oracle's channels
    # from it, and a column can hold every pair of the slots its two starting
    # labels reach; in adiabatic mode a column holds its own pair alone
    sp = SpinChainParams(jx=-1.0, jy=jy, jz=0.5)
    config = SimConfig(n_steps=1, seed=21, n_samples=16, initial_state=state, mode="nonadiabatic")
    engine = sampled_engine(sp, PAPER_BP, decay, config)
    R, _ = sample_bath_point(PAPER_BP, config.seed, 0, config.n_samples)
    channels = transition_channels(decay, frames_at(sp, PAPER_BP, R).blocks)
    reach = [{s} | {s ^ 1 for _, source, _ in channels if source == s} for s in range(4)]
    starts = list(zip(engine.alpha[:: config.n_samples].tolist(), engine.alpha_prime[:: config.n_samples].tolist()))
    assert engine.snapshot().column_labels == tuple(
        tuple(sorted((x, y) for x in reach[a] for y in reach[b])) for a, b in starts
    )
    adiabatic = sampled_engine(sp, PAPER_BP, decay, replace(config, mode="adiabatic"))
    assert adiabatic.snapshot().column_labels == tuple((pair,) for pair in starts)


def spread_rows(engine, rows):
    """Per-block rows in the engine's layout (``_q`` or ``_p``) spread over
    every member, shape (2, n_members): a member's row of block k, or 0
    where its column does not store block k."""
    n = engine.n_local
    out = np.zeros((2, engine.weight.size))
    for k, columns in enumerate(engine._cols):
        out[k, columns.start * n : columns.stop * n] = rows[k]
    return out


def staged_engine(c):
    """A jx = -1, jy = -0.6 psi engine under the projector decay (8 coupling
    and 4 decay channels open) after its first step's drift, where its hop
    stage would run next.  The off-diagonal members of every odd sample
    start flipped to (alpha', alpha), a label order hops produce, so that a
    bra-side channel comes first for them."""
    decay = decay_operator(DecayKind.PROJECTOR_EE, 0.1)
    config = SimConfig(n_steps=1, seed=7, n_samples=40, initial_state=PSI, mode="nonadiabatic")
    sp = SpinChainParams(jx=-1.0, jy=-0.6, jz=0.5)
    engine = sampled_engine(sp, BathParams(c=c, beta=0.1), decay, config)
    assert all(block.half_gap is not None for block in engine._blocks)
    assert len(transition_channels(decay, engine._blocks)) == 8 + 4
    # psi's ten pairs: three in block A, four across the blocks, three in block B
    assert engine._cols == (range(7), range(3, 10))
    members = np.arange(engine.weight.size)
    # member k * 40 + s is odd exactly where its sample s is
    flip = members[(members % 2 == 1) & (engine.alpha != engine.alpha_prime)]
    engine.alpha[flip], engine.alpha_prime[flip] = engine.alpha_prime[flip], engine.alpha[flip]
    engine._relabel(flip)
    engine._refresh_pair_caches()
    engine._hop_stage = lambda dt: None
    engine.advance(1)
    del engine._hop_stage
    return engine


def hop_stage_input(engine):
    """The labels, weights, normal momenta (p_A, p_B) and both blocks' frames
    of every member as the hop stage finds them (``spread_rows``).  A member
    whose column does not store a block reads that block at q = p = 0; none
    of its labels lies there, so no channel it opens reads it."""
    q = spread_rows(engine, engine._q)
    return dict(
        alpha=engine.alpha.copy(),
        alpha_prime=engine.alpha_prime.copy(),
        weight=engine.weight.copy(),
        p=spread_rows(engine, engine._p),
        frames=tuple(slot_frames(engine.sp, engine.bp, k, q[k]) for k in range(2)),
    )


def run_hop_stage(engine, uniforms):
    """Run the engine's hop stage once, member k drawing ``uniforms[k]``."""
    engine._hop_uniforms = lambda: uniforms
    engine._hop_stage(engine.config.dt)


def pinned_hop_step(c, uniform):
    """The hop stage input of ``staged_engine(c)``, and the engine after its
    stage ran with every uniform pinned to ``uniform``."""
    engine = staged_engine(c)
    before = hop_stage_input(engine)
    run_hop_stage(engine, np.full(engine.weight.size, uniform))
    return before, engine


def dense_decay_entries(before, decay):
    """u^T Gamma u per member from the oracle's dense frame matrices, shape (n, 4, 4)."""
    u = frame_matrices(before["frames"])
    return np.einsum("nip,ij,njq->npq", u, decay_matrix(decay).real, u)


def oscillator_velocity(before, engine):
    """Each member's oscillator-space velocity (V1, V2) from its normal
    momenta p_A = P1 + P2 and p_B = P1 - P2, shape (2, n)."""
    return np.array([before["p"][0] + before["p"][1], before["p"][0] - before["p"][1]]) / (2 * engine.bp.mass)


def open_channels(before, engine):
    """The channels open from each member's labels as the hop stage found
    them, from the oracle's frames of a ``staged_engine``: per member a list
    of (side, s, kind, a) in the stage's order, each taking the side's label
    s to its partner slot with amplitude a != 0; and per side, where the
    member's label met a closed uphill row.

    The derivative couplings come first, by source slot s, ket before bra:
    a = dt v . d_st.  An uphill one (s odd) is closed where its nonzero a
    meets p_k^2 < 4 M (E_t - E_s), on the frames' energies.  Then block A's
    projector decay channels in the same order: a = dt (u^T Gamma u)[s, t]
    on the ket side and [t, s] on the bra side."""
    dt, mass, n = engine.config.dt, engine.bp.mass, before["weight"].size
    labels = {"ket": before["alpha"], "bra": before["alpha_prime"]}
    v = oscillator_velocity(before, engine)
    energies = np.concatenate([block.energies for block in before["frames"]])  # (4, n), less V_bath
    rows, closed = [], {side: np.zeros(n, dtype=bool) for side in labels}
    for (s, t), d in sorted(oscillator_couplings(engine.bp, before["frames"]).items()):
        a = dt * (v[0] * d[:, 0] + v[1] * d[:, 1])
        p = before["p"][s // 2]
        shut = (p * p < 4.0 * mass * (energies[t] - energies[s])) & (a != 0)
        for side in labels:
            closed[side] |= shut & (labels[side] == s)
            rows.append((side, s, "coupling", a, ~shut))
    gs, ar = dense_decay_entries(before, engine.decay), np.arange(n)
    for s in (0, 1):
        for side in labels:
            a = dt * (gs[ar, s, s ^ 1] if side == "ket" else gs[ar, s ^ 1, s])
            rows.append((side, s, "decay", a, True))
    channels = [[] for _ in range(n)]
    for side, s, kind, a, allowed in rows:
        for m in np.flatnonzero((labels[side] == s) & allowed & (a != 0)):
            channels[m].append((side, s, kind, a[m]))
    return channels, closed


def no_hop_total(channels):
    """Each member's sum of |a| over its open channels (``open_channels``)."""
    return np.array([sum(abs(a) for *_, a in open_) for open_ in channels])


PARTNER = np.array([1, 0, 3, 2])  # the other slot of the same block


def test_hop_rule_at_zero_uniforms_takes_the_first_open_channel():
    # u = 0 hops every member that opens a channel on the first one in the
    # stage's order: most take the coupling from the lower label to its
    # partner slot, ket side first on a tie.  A member that lacks the energy
    # for an uphill coupling finds it closed and takes the next open channel
    before, engine = pinned_hop_step(0.24, 0.0)
    a, b = before["alpha"], before["alpha_prime"]
    n = engine.weight.size
    assert n == 10 * 40
    channels, closed = open_channels(before, engine)
    frustrated = closed["ket"] | closed["bra"]
    hopped = (engine.alpha != a) | (engine.alpha_prime != b)
    assert np.array_equal(hopped, [bool(open_) for open_ in channels])
    assert engine.summary.n_hops == np.count_nonzero(hopped) > 0
    assert engine.summary.n_frustrated == np.count_nonzero(frustrated) > 0
    assert np.any(frustrated & hopped)  # past a closed row, on a later channel
    first = [open_[0] if open_ else ("ket", 0, "none", 0.0) for open_ in channels]
    ket = np.array([side == "ket" for side, *_ in first])
    source = np.array([s for _, s, _, _ in first])
    coupling = np.array([kind == "coupling" for *_, kind, _ in first]) & hopped
    amp = np.array([a_ for *_, a_ in first])
    assert np.any(hopped & ~ket)  # bra-side hops too
    assert np.any(coupling & (source % 2 == 0)) and np.any(coupling & (source % 2 == 1))  # both directions
    assert np.any(hopped & ~coupling)  # decay hops too
    assert np.array_equal(engine.alpha[hopped], np.where(ket, PARTNER[source], a)[hopped])
    assert np.array_equal(engine.alpha_prime[hopped], np.where(ket, b, PARTNER[source])[hopped])
    # a coupling hop conserves the energy on the hopping label's surfaces
    # (V_bath, left out of the block energies, is the same on both sides);
    # every other member keeps its momenta
    ar = np.arange(n)
    energies = np.concatenate([block.energies for block in before["frames"]])
    p_after = spread_rows(engine, engine._p)
    kinetic = [np.sum(p**2, axis=0) / (4 * engine.bp.mass) for p in (before["p"], p_after)]
    e_old = kinetic[0] + energies[source, ar]
    e_new = kinetic[1] + energies[PARTNER[source], ar]
    assert np.allclose(e_new[coupling], e_old[coupling], rtol=0, atol=1e-12)
    assert np.array_equal(p_after[:, ~coupling], before["p"][:, ~coupling])
    # a hop takes the real factor -(1 + total) a / |a|, the rest 1 + total
    scale = 1.0 + no_hop_total(channels)
    ratio = engine.weight / before["weight"]
    assert np.allclose(ratio, np.where(hopped, -scale * np.sign(amp), scale), rtol=1e-12, atol=0)


def test_hop_rule_at_zero_uniforms_without_coupling_takes_the_first_decay_channel():
    # at c = 0 every coupling amplitude vanishes, so u = 0 hops every member
    # with a block-A label on the first decay channel its labels open: the
    # lower label moves to its partner slot, ket side first on a tie.  A
    # member with both labels in block B opens no channel
    before, engine = pinned_hop_step(0.0, 0.0)
    a, b = before["alpha"], before["alpha_prime"]
    source = np.minimum(a, b)
    moves = source < 2
    assert engine.summary.n_hops == np.count_nonzero(moves) > 0 and engine.summary.n_frustrated == 0
    assert np.any(moves & (a > b))  # bra-side hops too
    ket = a <= b
    assert np.array_equal(engine.alpha, np.where(moves & ket, PARTNER[source], a))
    assert np.array_equal(engine.alpha_prime, np.where(moves & ~ket, PARTNER[source], b))
    assert np.array_equal(spread_rows(engine, engine._p), before["p"])
    # factor -(1 + total) a / |a|, with a = (u^T Gamma u)[s, t] on the ket
    # side and [t, s] on the bra side; the rest keep 1 + total = 1
    ar = np.arange(a.size)
    gs = dense_decay_entries(before, engine.decay)
    entry = np.where(ket, gs[ar, source, PARTNER[source]], gs[ar, PARTNER[source], source])
    scale = 1.0 + no_hop_total(open_channels(before, engine)[0])
    expected = np.where(moves, -scale * np.sign(entry), scale)
    assert np.allclose(engine.weight / before["weight"], expected, rtol=1e-12, atol=0)


def test_hop_rule_below_one_never_hops():
    # u = 1 - 2**-53 lies above every channel: no hop, and every weight is
    # scaled by its real no-hop factor 1 + total over its open channels
    before, engine = pinned_hop_step(0.24, 1.0 - 2.0**-53)
    channels, closed = open_channels(before, engine)
    assert engine.summary.n_hops == 0
    assert engine.summary.n_frustrated == np.count_nonzero(closed["ket"] | closed["bra"]) > 0
    assert np.array_equal(engine.alpha, before["alpha"])
    assert np.array_equal(engine.alpha_prime, before["alpha_prime"])
    assert np.array_equal(spread_rows(engine, engine._p), before["p"])
    ratio = engine.weight / before["weight"]
    assert np.allclose(ratio, 1.0 + no_hop_total(channels), rtol=1e-12, atol=0)
    assert np.all(ratio >= 1.0) and np.any(ratio > 1.0)


def channel_table(engine):
    """The hop stage's amplitudes as one (channels x members) table, from
    the engine's own closed forms and rows as the stage finds them: each
    channel of ``nhqc.oracle.transition_channels`` in its order holds |a|
    where the side's label is its source s, and 0 elsewhere and where an
    uphill coupling is closed.  Returns the table and whether any entry was
    closed."""
    n, dt, mass = engine.n_local, engine.config.dt, engine.bp.mass
    labels = {"ket": engine.alpha, "bra": engine.alpha_prime}
    channels = transition_channels(engine.decay, engine._blocks)
    table, any_closed = np.zeros((len(channels), engine.weight.size)), False
    for row, (side, s, kind) in zip(table, channels):
        block, p, columns = engine._blocks[s // 2], engine._p[s // 2], engine._cols[s // 2]
        held = labels[side][columns.start * n : columns.stop * n] == s
        if kind == "coupling":
            amp = dt * (p / mass * slot_coupling(engine.bp, block))
            if s % 2:
                closed = held & (p * p - 4.0 * mass * (2.0 * block.half_gap) < 0.0) & (amp != 0.0)
                any_closed |= bool(closed.any())
                held &= ~closed
        else:
            amp = (-0.5 * dt * engine.decay.strength * block.w) / block.half_gap
        row[columns.start * n : columns.stop * n] = np.where(held, np.abs(amp), 0.0)
    return table, any_closed


def test_no_hop_factor_is_the_channel_table_sum_bit_for_bit():
    # u = 1 - 2**-53 hops no member, and every weight takes the no-hop
    # factor 1 + total, total the column sum of the channel table, which
    # adds its rows in channel order: the stage's sum over each member's own
    # two labels must equal it exactly
    engine = staged_engine(0.24)
    table, any_closed = channel_table(engine)
    weight = engine.weight.copy()
    run_hop_stage(engine, np.full(weight.size, 1.0 - 2.0**-53))
    assert engine.summary.n_hops == 0 and any_closed
    assert np.count_nonzero(table, axis=0).max() == 4  # a coupling and a decay channel per side
    assert np.array_equal(engine.weight, weight * (1.0 + table.sum(axis=0)))


@pytest.mark.parametrize("jy", [-0.6, -1.0])
def test_hop_stage_leaves_the_pair_caches_of_a_fresh_relabel_bit_for_bit(jy):
    # the stage leaves every member's coefficients, half kick and Bohr
    # frequency equal to those that a fresh relabel of every member and a
    # refresh on its current labels and frames give.  jy = -0.6: the staged
    # engine at u = 0, where most members hop; jy = -1.0: block A uncoupled,
    # so the (0, 0) column never moves and the live columns start after
    # column 0
    if jy == -0.6:
        _, engine = pinned_hop_step(0.24, 0.0)
    else:
        config = SimConfig(n_steps=3, seed=5, n_samples=32, initial_state=PSI, mode="nonadiabatic")
        engine = sampled_engine(PAPER_SP, BathParams(c=1.5, beta=0.1), decay_operator(DecayKind.PROJECTOR_EE, 0.1), config)
        engine.advance(2)
        assert engine._live.start > 0
        run_hop_stage(engine, np.zeros(engine.weight.size))
    assert 2 * engine.summary.n_hops > engine.weight.size
    kick, omega = engine._kick.copy(), engine._omega.copy()
    shape = engine.alpha.reshape(-1, engine.n_local).shape
    fresh = engine._label_coefficients(engine.alpha.reshape(shape), engine.alpha_prime.reshape(shape))
    assert fresh.keys() == engine._coef.keys()
    for key, value in fresh.items():
        assert np.array_equal(engine._coef[key], value), key
    engine._relabel(np.arange(engine.weight.size))
    engine._refresh_pair_caches()
    assert np.array_equal(engine._kick, kick) and np.array_equal(engine._omega, omega)


def test_hop_stage_never_takes_a_closed_uphill_row():
    # a member with p_k^2 < 4 M (2 r_k) lacks the energy to jump up its
    # block's gap: whatever its uniform, a label whose uphill row is closed
    # moves, if at all, only by decay, which leaves the momenta as they were
    for uniform in np.linspace(0.0, 1.0, 16, endpoint=False):
        before, engine = pinned_hop_step(0.24, uniform)
        _, closed = open_channels(before, engine)
        assert closed["ket"].any() and closed["bra"].any()
        p_after = spread_rows(engine, engine._p)
        for side, label in (("ket", engine.alpha), ("bra", engine.alpha_prime)):
            moved = closed[side] & (label != before["alpha" if side == "ket" else "alpha_prime"])
            assert np.array_equal(p_after[:, moved], before["p"][:, moved])


def test_hop_stage_keeps_the_exact_one_step_law():
    # SSTP samples 1 - dt J: after one stage a member's expected weight is w
    # on the no-hop branch and -a w on each open channel, with the jumped
    # momentum, and a closed channel adds nothing.  A member's outcome
    # depends only on its own uniform, so the expectation is a finite sum:
    # the stage runs once per outcome, each member's uniform at the midpoint
    # of that outcome's interval, [C_{i-1}, C_i) / (1 + total) for its i-th
    # open channel (C the running sum of |a|) and [total, 1 + total) /
    # (1 + total) for no hop, and each result counts by its interval length
    engine = staged_engine(0.24)
    before, bp = hop_stage_input(engine), engine.bp
    n = before["weight"].size
    channels, closed = open_channels(before, engine)
    total = no_hop_total(channels)
    ends = [np.cumsum([0.0] + [abs(a) for *_, a in open_] + [1.0]) / (1.0 + t) for open_, t in zip(channels, total)]
    got = [{} for _ in range(n)]  # (alpha, alpha', momenta moved) -> [expected weight, momenta]
    for i in range(max(map(len, channels)) + 1):
        engine = staged_engine(0.24)
        outcome = [min(i, len(e) - 2) for e in ends]
        run_hop_stage(engine, np.array([(e[o] + e[o + 1]) / 2 for e, o in zip(ends, outcome)]))
        p_after = spread_rows(engine, engine._p)
        for m in np.flatnonzero([i == o for o in outcome]):
            key = (engine.alpha[m], engine.alpha_prime[m], bool(np.any(p_after[:, m] != before["p"][:, m])))
            entry = got[m].setdefault(key, [0.0, p_after[:, m]])
            entry[0] += (ends[m][i + 1] - ends[m][i]) * engine.weight[m]
    # the law from the oracle: couplings and decay entries of its frames, and
    # the oscillator-space momentum jump along the coupling
    couplings = oscillator_couplings(bp, before["frames"])
    energies = np.concatenate([block.energies for block in before["frames"]])
    P = np.array([before["p"][0] + before["p"][1], before["p"][0] - before["p"][1]]) / 2
    kinds = set()
    for m in range(n):
        a, b, w = before["alpha"][m], before["alpha_prime"][m], before["weight"][m]
        want = {(a, b, False): (w, before["p"][:, m])}
        for side, s, kind, amp in channels[m]:
            kinds.add((kind, side, s % 2))
            labels = (PARTNER[s], b) if side == "ket" else (a, PARTNER[s])
            p_new = before["p"][:, m]
            if kind == "coupling":
                gap = energies[PARTNER[s], m] - energies[s, m]
                d = couplings[s, PARTNER[s]][m : m + 1]
                ok, P_new = momentum_jump_2d(P[:, m : m + 1], d, np.array([gap]), bp.mass)
                assert ok.all()
                p_new = np.array([P_new[0, 0] + P_new[1, 0], P_new[0, 0] - P_new[1, 0]])
            want[(*labels, kind == "coupling")] = (-amp * w, p_new)
        assert set(got[m]) == set(want), m
        for key, (weight, p) in want.items():
            assert got[m][key][0] == pytest.approx(weight, rel=1e-12, abs=0), (m, key)
            assert np.allclose(got[m][key][1], p, rtol=1e-12, atol=1e-12), (m, key)
    # coupling both ways on both sides, decay from both slots on both sides,
    # and members that met a closed uphill row
    assert kinds == {(kind, side, up) for kind in ("coupling", "decay") for side in ("ket", "bra") for up in (0, 1)}
    assert closed["ket"].any() and closed["bra"].any()


def test_nonadiabatic_conserves_the_trace_at_zero_decay():
    # identity decay at gamma = 0 conserves the trace exactly for any dynamics
    gamma0 = decay_operator(DecayKind.IDENTITY_UNIFORM, 0.0)
    z = {}
    for seed in range(11, 17):
        config = SimConfig(
            n_steps=200, seed=seed, n_samples=2000, initial_state=PHI, mode="nonadiabatic", output_stride=200
        )
        series, _ = simulate(REFERENCE_SP, REFERENCE_BP, gamma0, config)
        last = series.rows[-1]
        assert last.t == pytest.approx(2.0)
        z[seed] = abs(np.real(last.density.trace) - 1.0) / last.trace_stderr
    assert all(v < 4.0 for v in z.values()), z


def test_nonadiabatic_run_with_hops_passes_validate():
    # every sample's matrix is Hermitian, so the mean's trace is real to
    # rounding, not to within its statistical noise
    decay = decay_operator(DecayKind.IDENTITY_UNIFORM, 0.5)
    config = SimConfig(n_steps=100, seed=11, n_samples=200, initial_state=PHI, mode="nonadiabatic", output_stride=10)
    series, summary = simulate(REFERENCE_SP, REFERENCE_BP, decay, config)
    assert summary.n_hops > 0
    for row in series.rows:
        row.density.validate()
        assert abs(row.density.trace.imag) <= 1e-15


def test_simulate_matches_engine_reduction():
    decay = decay_operator(DecayKind.IDENTITY_UNIFORM, 0.2)
    config = paper_config(n_samples=10, n_steps=20, output_stride=10)
    series, summary = simulate(PAPER_SP, PAPER_BP, decay, config)
    engine = sampled_engine(PAPER_SP, PAPER_BP, decay, config)
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
    engine = sampled_engine(PAPER_SP, PAPER_BP, decay, config)
    # snapshots are views of the engine's arrays: keep copies to compare
    previous = engine.snapshot().decay.copy()
    for _ in range(6):
        engine.advance(10)
        current = engine.snapshot().decay.copy()
        assert np.all(current >= previous - 1e-14)
        previous = current


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


def test_simulate_thread_invariance_nonadiabatic(monkeypatch):
    # hop draws are keyed by sample block, so hops do not depend on threads
    import nhqc.propagator as prop

    monkeypatch.setattr(prop, "CHUNK_SAMPLES", 8)
    decay = decay_operator(DecayKind.PROJECTOR_EE, 0.1)
    sp = SpinChainParams(jx=-1.0, jy=-0.6, jz=0.5)
    config = SimConfig(
        n_steps=30, seed=17, n_samples=40, dt=0.01, initial_state=PSI, mode="nonadiabatic", output_stride=15
    )
    series1, summary1 = simulate(sp, PAPER_BP, decay, config, threads=1)
    series4, summary4 = simulate(sp, PAPER_BP, decay, config, threads=4)
    assert summary1.n_hops > 0
    assert (summary1.n_hops, summary1.n_frustrated) == (summary4.n_hops, summary4.n_frustrated)
    for r1, r4 in zip(series1.rows, series4.rows):
        assert np.array_equal(r1.density.elements, r4.density.elements)
        assert np.array_equal(r1.density.stderr, r4.density.stderr)


@pytest.mark.parametrize("mass,omega", [(2.0, 1.0), (1.0, 0.7), (2.0, 0.7)])
def test_a_run_at_any_mass_and_frequency_equals_its_unit_image(mass, omega):
    # with R = R' / sqrt(M omega), P = P' sqrt(M omega) and t = t' / omega,
    # the model at (M, omega) is the one at unit mass and frequency with
    # every energy divided by omega: c' = c / (omega sqrt(M omega)),
    # j' = j / omega, gamma' = gamma / omega, beta' = beta omega and
    # dt' = omega dt.  Each output then equals its image's at t' = omega t
    # to rounding, the thermal widths and every hop decision included
    sp = SpinChainParams(jx=-1.0, jy=-0.6, jz=0.5)
    bp = BathParams(mass=mass, omega=omega, c=0.9, beta=0.3)
    image_sp = SpinChainParams(jx=sp.jx / omega, jy=sp.jy / omega, jz=sp.jz / omega)
    image_bp = BathParams(c=bp.c / (omega * math.sqrt(mass * omega)), beta=bp.beta * omega)
    runs = [
        (PHI, "identity", 0.5, "adiabatic"),
        (PSI, "projector_ee", 0.1, "adiabatic"),
        (PSI, "projector_ee", 0.1, "nonadiabatic"),
        (PHI, "identity", 0.5, "nonadiabatic"),
    ]
    for state, kind, gamma, mode in runs:
        config = SimConfig(n_steps=40, seed=13, dt=0.02, n_samples=64, initial_state=state, mode=mode, output_stride=10)
        series, summary = simulate(sp, bp, decay_operator(kind, gamma), config)
        image_config = replace(config, dt=omega * config.dt)
        image, image_summary = simulate(image_sp, image_bp, decay_operator(kind, gamma / omega), image_config)
        assert image_summary.n_hops == summary.n_hops and (summary.n_hops > 0) == (mode == "nonadiabatic")
        for row, unit in zip(series.rows, image.rows, strict=True):
            assert unit.t == pytest.approx(omega * row.t, rel=1e-12)
            assert np.max(np.abs(row.density.elements - unit.density.elements)) <= 1e-12, (state, mode, row.t)
            assert np.max(np.abs(row.density.stderr - unit.density.stderr)) <= 1e-12, (state, mode, row.t)


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


DECAYS = {
    "identity": decay_operator(DecayKind.IDENTITY_UNIFORM, 0.3),
    "projector": decay_operator(DecayKind.PROJECTOR_EE, 0.3),
    # a negative gamma opens the same decay channels with negative rates
    "projector gamma<0": decay_operator(DecayKind.PROJECTOR_EE, -0.3),
    # gamma = 0 closes them and leaves the rates constant
    "projector gamma=0": decay_operator(DecayKind.PROJECTOR_EE, 0.0),
}


# each coordinate of the reduction lies within this many ulps of its
# sample's sum of |member factor| from the dense frame-vector sum: both round
# each term at the scale of its factor (the worst seen is 2.8)
REDUCTION_ULPS = 8


@pytest.mark.parametrize("mode", ["adiabatic", "nonadiabatic"])
@pytest.mark.parametrize("jy", [-1.0, -0.6, 1.0])  # block A uncoupled, both coupled, block B uncoupled
@pytest.mark.parametrize("decay_name", list(DECAYS))
@pytest.mark.parametrize("state", [PHI, PSI])
def test_element_rows_match_the_dense_reference_to_rounding(state, decay_name, jy, mode):
    sp = SpinChainParams(jx=-1.0, jy=jy, jz=0.5)
    # at c = 1.5 nonadiabatic members hop, so a column holds several labels,
    # and |delta| reaches 30 |w|
    bp = BathParams(c=1.5 if mode == "nonadiabatic" else 0.24, beta=0.1)
    config = SimConfig(n_steps=40, seed=31, n_samples=24, initial_state=state, mode=mode)
    engine = sampled_engine(sp, bp, DECAYS[decay_name], config)
    plans = []
    for steps in (0, 40):
        if steps:
            engine.advance(steps)
        # the weights are real from the start, and every hop factor is real
        assert engine.weight.dtype == np.float64
        snap = engine.snapshot()
        # every member holds a pair its column can hold, and the plan for
        # those pairs is formed once per engine
        pairs = np.stack([snap.alpha, snap.alpha_prime], axis=1).reshape(-1, config.n_samples, 2)
        for held, column in zip(snap.column_labels, pairs):
            assert {tuple(pair) for pair in column.tolist()} <= set(held)
        plans.append(snap.plan)
        record = snap.sample_matrices()
        reference = dense_sample_matrices(snap)
        weight, phase = (v.reshape(-1, config.n_samples) for v in (snap.weight, snap.phase))
        scale = sum(np.abs(member_factor(w, p, d)) for w, p, d in zip(weight, phase, snap.decay))
        matrices = record.matrices()
        for part in (np.real, np.imag):
            error = np.abs(part(matrices) - part(reference)).reshape(-1, 16).max(axis=1)
            assert np.all(error <= REDUCTION_ULPS * np.finfo(float).eps * scale)
        # the index lists upper-triangle entries; a dead one is 0 on both
        # sides, with the same signs of zero
        assert all(e // 4 <= e % 4 for e in record.index)
        dead = [r * 4 + c for r, c in np.ndindex(4, 4) if min(r, c) * 4 + max(r, c) not in record.index]
        dead_entries = [side.reshape(-1, 16)[:, dead] for side in (matrices, reference)]
        assert np.all(dead_entries[0] == 0) and dead_entries[0].tobytes() == dead_entries[1].tobytes()
    assert plans[0] is plans[1]
    if mode == "nonadiabatic" and not (state == PHI and jy == 1.0):  # phi's block B uncoupled: no hops
        labels = (engine.alpha * 4 + engine.alpha_prime).reshape(-1, config.n_samples)
        assert any(np.unique(column).size > 1 for column in labels)


def test_member_factor_phasor_matches_numpy_exp():
    # unit weight and zero decay leave e^{-i phase} alone on both sides
    step = 2 * np.pi / 1024
    rng = np.random.default_rng(19)
    j = np.arange(-2048, 2048)
    phase = np.concatenate(
        [
            rng.uniform(-1e6, 1e6, 20_000),
            rng.uniform(-30.0, 30.0, 20_000),
            j * step,  # every table entry, from either sign
            (j + 0.5) * step,  # halfway between two entries
            [0.0, -0.0, 1e-300],
        ]
    )
    # a column with a phase beyond the table's exact reduction takes numpy's exp
    for phases in (phase, np.array([0.5, 3e6, -1e9])):
        ones = np.ones(phases.size, dtype=complex)
        error = np.abs(member_factor(ones, phases, np.zeros(1)) - ones * np.exp(-1j * phases - 0.0))
        assert error.max() <= 2.3e-16


def test_member_factor_matches_numpy_exp_with_weights_and_decay():
    # relative to |weight| exp(-decay): the phasor's 2.3e-16 plus the
    # roundings of the products on both sides, each within sqrt(5) u
    rng = np.random.default_rng(23)
    n = 20_000
    weight = rng.normal(size=n) + 1j * rng.normal(size=n)
    phase = rng.uniform(-1e4, 1e4, n)
    for decay in (rng.uniform(0.0, 3.0, n), np.array([0.7])):  # per member or per column
        factor = member_factor(weight, phase, decay)
        reference = weight * np.exp(-1j * phase - decay)
        assert np.max(np.abs(factor - reference) / (np.abs(weight) * np.exp(-decay))) <= 1e-15
    # an identically zero phase takes the real factor
    zero = np.zeros(n)
    assert np.array_equal(member_factor(weight, zero, zero), weight * np.exp(-zero))


def test_a_per_column_decay_past_libm_exp_gives_an_infinite_factor():
    # libm's exp overflows, and raises, past 709.78: an integral at or below
    # -700 takes numpy's exp, whose inf the run's invariant check reports
    weight, phase = np.array([1.0, -2.0]), np.zeros(2)
    assert np.array_equal(member_factor(weight, phase, np.array([-699.0])), weight * math.exp(699.0))
    with np.errstate(over="ignore"):
        assert np.array_equal(member_factor(weight, phase, np.array([-800.0])), [np.inf, -np.inf])


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_non_finite_phases_give_non_finite_factors_that_validate_rejects():
    phase = np.array([0.3, np.nan, np.inf, -np.inf, -2.0])
    factor = member_factor(np.ones(5, dtype=complex), phase, np.zeros(1))
    assert np.array_equal(np.isfinite(factor), [True, False, False, False, True])
    decay = decay_operator(DecayKind.IDENTITY_UNIFORM, 0.5)
    for bad in (np.nan, np.inf, -np.inf):
        engine = sampled_engine(PAPER_SP, PAPER_BP, decay, paper_config(n_samples=8))
        engine.advance(5)
        engine.phase.reshape(-1, 8)[engine._live.start, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            reduce_snapshot(engine.snapshot()).validate()


def test_element_rows_reuse_the_engine_buffer():
    decay = decay_operator(DecayKind.IDENTITY_UNIFORM, 0.5)
    engine = sampled_engine(PAPER_SP, PAPER_BP, decay, paper_config(n_samples=32))
    first = engine.snapshot().sample_matrices()
    kept = first.matrices()
    engine.advance(5)
    second = engine.snapshot().sample_matrices()
    assert np.shares_memory(first.rows, engine._buffer)
    assert np.shares_memory(second.rows, engine._buffer)
    assert np.shares_memory(first.rows, second.rows)
    # phi lives in block B, and block A is uncoupled at jx = jy: real rows
    # for the three entries, and an imaginary row for the coherence
    assert first.index == second.index == (5, 6, 10)
    assert first.off_diagonal == [6]
    assert engine._buffer.dtype == np.float64 and engine._buffer.shape == (16, 32)
    assert first.rows.shape == second.rows.shape == (4, 32)
    # the earlier record now reads the later output; its copy does not
    assert np.array_equal(first.matrices(), second.matrices())
    assert not np.array_equal(kept, second.matrices())


def stored_labels(engine, k):
    """The label pairs of the columns that store block k."""
    labels = (engine.alpha * 4 + engine.alpha_prime).reshape(-1, engine.n_local)[:, 0]
    return {divmod(int(labels[c]), 4) for c in engine._cols[k]}


def test_phi_stores_no_block_a_row_at_equal_exchange():
    engine = sampled_engine(PAPER_SP, PAPER_BP, GAMMA0, paper_config(n_samples=8))
    assert engine._cols[0] == range(0) and engine._q[0].size == engine._p[0].size == 0
    assert engine._blocks[0] is None
    assert stored_labels(engine, 1) == {(2, 2), (2, 3), (3, 3)}
    assert engine._q[1].size == 3 * 8


def test_psi_stores_block_a_rows_only_for_its_block_a_labels():
    decay = decay_operator(DecayKind.PROJECTOR_EE, 0.1)
    engine = sampled_engine(PAPER_SP, PAPER_BP, decay, paper_config(n_samples=8, initial_state=PSI))
    assert stored_labels(engine, 0) == {(0, 0), (0, 2), (0, 3)}
    assert stored_labels(engine, 1) == {(0, 2), (0, 3), (2, 2), (2, 3), (3, 3)}
    assert engine._q[0].size == 3 * 8 and engine._q[1].size == 5 * 8


def test_nonadiabatic_labels_stay_in_their_blocks():
    # every transition takes a slot to the other slot of its block, so a
    # column stores only the blocks of its starting labels, in either mode
    sp = SpinChainParams(jx=-1.0, jy=-0.6, jz=0.5)
    config = SimConfig(n_steps=40, seed=5, n_samples=8, initial_state=PSI, mode="nonadiabatic")
    engine = sampled_engine(sp, BathParams(c=1.5, beta=0.1), decay_operator(DecayKind.PROJECTOR_EE, 0.1), config)
    assert engine._cols == (range(7), range(3, 10))
    start = [(engine.alpha // 2).copy(), (engine.alpha_prime // 2).copy()]
    engine.advance(40)
    assert engine.summary.n_hops > 0
    assert np.array_equal(engine.alpha // 2, start[0]) and np.array_equal(engine.alpha_prime // 2, start[1])

import numpy as np
import pytest

from nhqc.adiabatic import SLOT_SZ, slot_vectors
from nhqc.model import (
    PHI,
    PSI,
    REFERENCE_BP,
    REFERENCE_SP,
    BathParams,
    DecayKind,
    DecaySpec,
    SimConfig,
    SpinChainParams,
    decay_operator,
)
from nhqc.observables import reduce_snapshot
from nhqc.oracle import (
    PairTrajectory,
    PhasePoint,
    build_frame,
    classical_step,
    dense_sample_matrices,
    frame_matrices,
    frames_at,
    oscillator_couplings,
    sstp_step,
)
from nhqc.propagator import (
    CHUNK_SAMPLES,
    HOP_STREAM_TAG,
    EnsembleState,
    _momentum_jump,
    _open_gamma_channels,
    _slot_entry,
    member_factor,
    simulate,
)
from nhqc.sampler import initial_subsystem, sample_bath_point

from engines import sampled_engine

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
    ok, shifted = _momentum_jump(p, np.array([0.0]), 1.0)
    assert ok.tolist() == [True]
    assert np.allclose(shifted, p)


def test_momentum_jump_frustrated():
    # the first member lacks the kinetic energy p^2 / 4M of its normal mode;
    # the second has it
    p = np.array([0.2, 3.0])
    ok, shifted = _momentum_jump(p, np.array([1.0, 1.0]), 1.0)
    assert ok.tolist() == [False, True]
    assert shifted.shape == (1,)


def test_momentum_jump_downhill_conserves_energy():
    P0 = np.array([0.4, -0.2])
    p_a, p_b = P0[0] + P0[1], P0[0] - P0[1]  # a block-B coupling lies along (1, -1)
    delta_e = -4.0  # downhill
    ok, shifted = _momentum_jump(np.array([p_b]), np.array([delta_e]), 1.0)
    assert ok.tolist() == [True]
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
    ok_2d, P_2d = momentum_jump_2d(P, d, delta_e, mass)
    p_k, p_other = P[0] + sign * P[1], P[0] - sign * P[1]
    ok, p_new = _momentum_jump(p_k, delta_e, mass)
    assert 0 < np.count_nonzero(~ok) < n
    assert np.array_equal(ok, ok_2d)
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


@pytest.mark.filterwarnings("ignore::nhqc.oracle.DegeneratePairWarning")
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
    members after a hop stage.  Returns the decay integrals, which it
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
        omega_old, gamma_old = engine._omega.copy(), getattr(engine, "_gamma", None)
        gamma_old = None if gamma_old is None else gamma_old.copy()
        engine._refresh_frames()
        engine._refresh_pair_caches()
        kick()
        live = engine._live
        engine.phase.reshape(-1, n)[live.start : live.stop] += 0.5 * dt * (omega_old + engine._omega)
        if gamma_old is None:  # constant rates dt (Gamma_aa + Gamma_bb)
            decay += dt * (engine._gd[engine.alpha] + engine._gd[engine.alpha_prime])
        else:
            decay += (0.5 * dt * (gamma_old + engine._gamma)).ravel()
        if engine.mode == "nonadiabatic":
            engine._hop_stage(dt)
            engine._relabel(np.arange(engine.weight.size))
            engine._refresh_pair_caches()
        engine._step_index += 1
        engine.t = engine._step_index * dt
    return decay


CROSS_BLOCK_DECAY = np.array(
    [[1.0, 0.1, 0.0, 0.0], [0.1, 0.2, 0.0, 0.0], [0.0, 0.0, 0.2, 0.0], [0.0, 0.0, 0.0, 1.0]]
)


@pytest.mark.parametrize(
    "jy,c,state,decay,mode",
    [
        (-1.0, 0.24, PHI, decay_operator(DecayKind.IDENTITY_UNIFORM, 0.5), "adiabatic"),
        (-0.6, 0.24, PSI, decay_operator(DecayKind.PROJECTOR_EE, 0.1), "adiabatic"),
        # rates constant in R but distinct across blocks, which decay hops cross
        (-0.6, 1.5, PHI, decay_operator(DecayKind.CUSTOM, matrix=CROSS_BLOCK_DECAY), "nonadiabatic"),
        (-0.6, 1.5, PSI, decay_operator(DecayKind.PROJECTOR_EE, 0.1), "nonadiabatic"),
        # block A uncoupled: the (0, 0) column never moves, so the live
        # columns, whose frequencies hops rewrite, start after column 0
        (-1.0, 1.5, PSI, decay_operator(DecayKind.PROJECTOR_EE, 0.1), "nonadiabatic"),
    ],
)
def test_advance_equals_the_two_force_verlet_step_bit_for_bit(jy, c, state, decay, mode):
    # one cached force per step, refreshed only for the members that hop,
    # reproduces the step that evaluates the force twice
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
        # constant rates, but a member's labels, and so its rates, can move
        (-1.0, decay_operator(DecayKind.IDENTITY_UNIFORM, 0.5), "nonadiabatic", False),
    ],
)
def test_decay_integrals_are_per_column_only_for_constant_adiabatic_rates(jy, decay, mode, per_column):
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
    ],
)
def test_constant_rate_adiabatic_steps_leave_the_frame_vectors_unbuilt(jy, decay):
    # the step reads only energies and the per-block <sigma_z> rows; x and y
    # are built on first read, here by the reduction
    sp = SpinChainParams(jx=-1.0, jy=jy, jz=0.5)
    engine = sampled_engine(sp, PAPER_BP, decay, SimConfig(n_steps=3, seed=5, n_samples=16, initial_state=PSI))
    assert engine._gdiag_constant
    assert not any("vector" in vars(block) for block in engine._blocks if block is not None)
    engine.advance(3)
    blocks = [block for block in engine._blocks if block is not None]
    assert not any("vector" in vars(block) for block in blocks)
    engine.snapshot().sample_matrices()
    assert all("vector" in vars(block) for block in blocks)


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


def sandwich_operands():
    """Densities and decay operators the slot sandwich must reproduce: the
    two preparations, a complex custom ket, and identity, projector and a
    complex Hermitian custom decay."""
    rng = np.random.default_rng(8)
    ket = rng.normal(size=4) + 1j * rng.normal(size=4)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return {
        "phi": initial_subsystem(PHI),
        "psi": initial_subsystem(PSI),
        "custom ket": initial_subsystem(ket / np.linalg.norm(ket)),
        "identity": decay_operator(DecayKind.IDENTITY_UNIFORM, 0.5).matrix,
        "projector": decay_operator(DecayKind.PROJECTOR_EE, 0.1).matrix,
        "custom decay": DecaySpec(matrix=a @ a.conj().T, kind=DecayKind.CUSTOM).matrix,
    }


@pytest.mark.parametrize("jy", [-1.0, -0.6, 1.0])  # block A uncoupled, both coupled, block B uncoupled
def test_slot_sandwich_equals_the_einsum_bit_for_bit(jy):
    sp = SpinChainParams(jx=-1.0, jy=jy, jz=0.5)
    R, _ = sample_bath_point(PAPER_BP, 21, 0, 500)
    blocks = frames_at(sp, PAPER_BP, R).blocks
    u, comps = frame_matrices(blocks), slot_vectors(blocks)
    for name, m in sandwich_operands().items():
        expected = np.einsum("nip,ij,njq->npq", u, m, u)
        entries = [[_slot_entry(comps, m, s, t, 500) for t in range(4)] for s in range(4)]
        assert np.array_equal(np.transpose(entries, (2, 0, 1)), expected), name


def test_open_gamma_channels():
    R, _ = sample_bath_point(PAPER_BP, 21, 0, 50)
    frames_ab = frames_at(SpinChainParams(jx=-1.0, jy=-0.6, jz=0.5), PAPER_BP, R).blocks  # both blocks coupled
    frames_b = frames_at(PAPER_SP, PAPER_BP, R).blocks  # block A uncoupled
    identity = decay_operator(DecayKind.IDENTITY_UNIFORM, 0.5)
    projector = decay_operator(DecayKind.PROJECTOR_EE, 0.1)
    assert _open_gamma_channels(identity, frames_ab) == []
    assert _open_gamma_channels(projector, frames_b) == []
    assert _open_gamma_channels(projector, frames_ab) == [
        ("ket", 0, 1), ("bra", 0, 1), ("ket", 1, 0), ("bra", 1, 0)
    ]
    dense = DecaySpec(matrix=sandwich_operands()["custom decay"], kind=DecayKind.CUSTOM)
    every = [(side, s, t) for s in range(4) for t in range(4) if s != t for side in ("ket", "bra")]
    assert _open_gamma_channels(dense, frames_ab) == every  # all 24, in hop-stage order


def pinned_hop_step(monkeypatch, c, uniform):
    """One nonadiabatic step of a jx = -1, jy = -0.6 engine under a dense
    complex decay operator (all 8 coupling and 24 decay channels open, so
    every column stores both blocks over all members), every hop uniform
    pinned to ``uniform``; the labels, weights, normal momenta (p_A, p_B)
    and blocks as the hop stage found them, and the engine after it.

    The off-diagonal members of every odd sample start flipped to
    (alpha', alpha), a label order hops produce, so that a bra-side channel
    comes first for them."""
    rng = np.random.default_rng(5)
    ket = rng.normal(size=4) + 1j * rng.normal(size=4)
    decay = DecaySpec(matrix=sandwich_operands()["custom decay"], kind=DecayKind.CUSTOM)
    config = SimConfig(
        n_steps=1, seed=7, n_samples=40, initial_state=tuple(ket / np.linalg.norm(ket)), mode="nonadiabatic"
    )
    sp = SpinChainParams(jx=-1.0, jy=-0.6, jz=0.5)
    engine = sampled_engine(sp, BathParams(c=c, beta=0.1), decay, config)
    assert all(block.half_gap is not None for block in engine._blocks) and len(engine._gamma_channels) == 24
    assert engine._cols == (range(10), range(10))
    members = np.arange(engine.weight.size)
    # member k * 40 + s is odd exactly where its sample s is
    flip = members[(members % 2 == 1) & (engine.alpha != engine.alpha_prime)]
    engine.alpha[flip], engine.alpha_prime[flip] = engine.alpha_prime[flip], engine.alpha[flip]
    engine.weight[flip] = np.conj(engine.weight[flip])
    engine._relabel(flip)
    engine._refresh_member_rows(flip)
    monkeypatch.setattr(EnsembleState, "_hop_uniforms", lambda self: np.full(self.weight.size, uniform))
    before = {}
    hop_stage = engine._hop_stage

    def recorded(dt):
        before.update(
            alpha=engine.alpha.copy(),
            alpha_prime=engine.alpha_prime.copy(),
            weight=engine.weight.copy(),
            p=engine.p.reshape(2, -1).copy(),
            frames=engine._blocks,
        )
        hop_stage(dt)

    engine._hop_stage = recorded
    engine.advance(1)
    return before, engine


def dense_decay_entries(before, decay):
    """u^T Gamma u per member from the oracle's dense frame matrices, shape (n, 4, 4)."""
    u = frame_matrices(before["frames"])
    return np.einsum("nip,ij,njq->npq", u, decay.matrix, u)


def no_hop_total(before, engine):
    """Sum of |amplitude| over every channel open from each member's labels:
    dt |v . d| for the coupling to the partner slot and dt |(u^T Gamma u)|
    for each decay channel, ket side (s, t) and bra side (t, s)."""
    dt = engine.config.dt
    a, b = before["alpha"], before["alpha_prime"]
    ar = np.arange(a.size)
    gs = dense_decay_entries(before, engine.decay)
    # oscillator-space velocities from the normal momenta P1 +- P2
    v = np.array([before["p"][0] + before["p"][1], before["p"][0] - before["p"][1]]) / (2 * engine.bp.mass)
    total = np.zeros(a.size)
    for (s, _), d in oscillator_couplings(engine.bp, before["frames"]).items():
        rate = np.abs(dt * (v[0] * d[:, 0] + v[1] * d[:, 1]))
        total += rate * ((a == s).astype(float) + (b == s))
    for t in range(4):
        total += np.where(a != t, np.abs(dt * gs[ar, a, t]), 0.0)
        total += np.where(b != t, np.abs(dt * gs[ar, t, b]), 0.0)
    return total


PARTNER = np.array([1, 0, 3, 2])  # the other slot of the same block


def test_hop_rule_at_zero_uniforms_takes_the_first_coupling_channel(monkeypatch):
    # u = 0 hops every member on the first channel its labels open: the
    # coupling from the lower label to its partner slot, ket side first on a
    # tie; a frustrated member lacks the energy for it and keeps its labels
    before, engine = pinned_hop_step(monkeypatch, 0.24, 0.0)
    a, b = before["alpha"], before["alpha_prime"]
    n = engine.weight.size
    assert n == 10 * 40
    summary = engine.summary
    assert summary.n_hops > 0 and summary.n_frustrated > 0
    assert summary.n_hops + summary.n_frustrated == n
    hopped = (engine.alpha != a) | (engine.alpha_prime != b)
    assert np.count_nonzero(hopped) == summary.n_hops
    assert np.any(hopped & (a > b))  # bra-side hops too
    ket = a <= b
    assert np.array_equal(engine.alpha[hopped], np.where(ket, PARTNER[a], a)[hopped])
    assert np.array_equal(engine.alpha_prime[hopped], np.where(ket, b, PARTNER[b])[hopped])
    # the jump conserves the energy on the hopping label's surfaces
    source = np.minimum(a, b)
    ar = np.arange(n)
    # (V_bath, left out of the block energies, is the same on both sides)
    energies = np.concatenate([block.energies for block in before["frames"]])
    p_after = engine.p.reshape(2, -1)
    kinetic = [np.sum(p**2, axis=0) / (4 * engine.bp.mass) for p in (before["p"], p_after)]
    e_old = kinetic[0] + energies[source, ar]
    e_new = kinetic[1] + energies[PARTNER[source], ar]
    assert np.allclose(e_new[hopped], e_old[hopped], rtol=0, atol=1e-12)
    assert np.array_equal(p_after[:, ~hopped], before["p"][:, ~hopped])
    # real coupling amplitudes give real factors of modulus 1 + total; a
    # frustrated member keeps the positive no-hop factor
    ratio = engine.weight / before["weight"]
    assert np.max(np.abs(ratio.imag)) < 1e-12
    assert np.allclose(np.abs(ratio.real), 1.0 + no_hop_total(before, engine), rtol=1e-12, atol=0)
    assert np.all(ratio.real[~hopped] > 1.0)


def test_hop_rule_at_zero_uniforms_without_coupling_takes_the_first_decay_channel(monkeypatch):
    # at c = 0 every coupling amplitude vanishes, so u = 0 hops every member
    # on the first decay channel its labels open: the lower label moves to
    # the lowest other slot, ket side first on a tie
    before, engine = pinned_hop_step(monkeypatch, 0.0, 0.0)
    a, b = before["alpha"], before["alpha_prime"]
    assert engine.summary.n_hops == engine.weight.size and engine.summary.n_frustrated == 0
    assert np.any(a > b)  # bra-side hops too
    source = np.minimum(a, b)
    target = np.where(source == 0, 1, 0)
    ket = a <= b
    assert np.array_equal(engine.alpha, np.where(ket, target, a))
    assert np.array_equal(engine.alpha_prime, np.where(ket, b, target))
    assert np.array_equal(engine.p.reshape(2, -1), before["p"])
    # factor -(1 + total) a / |a|, with a = (u^T Gamma u)[s, t] on the ket
    # side and [t, s] on the bra side
    ar = np.arange(a.size)
    gs = dense_decay_entries(before, engine.decay)
    entry = np.where(ket, gs[ar, source, target], gs[ar, target, source])
    expected = -(1.0 + no_hop_total(before, engine)) * entry / np.abs(entry)
    assert np.allclose(engine.weight / before["weight"], expected, rtol=1e-12, atol=0)


def test_hop_rule_below_one_never_hops(monkeypatch):
    # u = 1 - 2**-53 lies above every channel: no hop, and every weight is
    # scaled by its real no-hop factor 1 + total
    before, engine = pinned_hop_step(monkeypatch, 0.24, 1.0 - 2.0**-53)
    assert engine.summary.n_hops == 0 and engine.summary.n_frustrated == 0
    assert np.array_equal(engine.alpha, before["alpha"])
    assert np.array_equal(engine.alpha_prime, before["alpha_prime"])
    assert np.array_equal(engine.p.reshape(2, -1), before["p"])
    ratio = engine.weight / before["weight"]
    assert np.max(np.abs(ratio.imag)) < 1e-12
    assert np.allclose(ratio.real, 1.0 + no_hop_total(before, engine), rtol=1e-12, atol=0)
    assert np.all(ratio.real > 1.0)


@pytest.mark.xfail(strict=True, reason="D3: the nonadiabatic trace rises above 1 at gamma = 0")
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


def test_custom_ket_initial_state_runs():
    ket = tuple(np.array([1.0, 1.0, 1.0, 1.0]) / 2.0)
    config = SimConfig(n_steps=40, seed=13, n_samples=6, dt=0.01, initial_state=ket)
    engine = sampled_engine(PAPER_SP, PAPER_BP, GAMMA0, config)
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


def test_simulate_thread_invariance_nonadiabatic(monkeypatch):
    # hop draws are keyed by sample block, so hops do not depend on threads
    import nhqc.propagator as prop

    monkeypatch.setattr(prop, "CHUNK_SAMPLES", 8)
    decay = DecaySpec(matrix=sandwich_operands()["custom decay"], kind=DecayKind.CUSTOM)
    sp = SpinChainParams(jx=-1.0, jy=-0.6, jz=0.5)
    config = SimConfig(
        n_steps=30, seed=17, n_samples=40, dt=0.01, initial_state=PSI, mode="nonadiabatic", output_stride=15
    )
    series1, summary1 = simulate(sp, PAPER_BP, decay, config, threads=1)
    series4, summary4 = simulate(sp, PAPER_BP, decay, config, threads=4)
    assert summary1.n_hops > 0 and summary1.n_frustrated > 0
    assert (summary1.n_hops, summary1.n_frustrated) == (summary4.n_hops, summary4.n_frustrated)
    for r1, r4 in zip(series1.rows, series4.rows):
        assert np.array_equal(r1.density.elements, r4.density.elements)
        assert np.array_equal(r1.density.stderr, r4.density.stderr)


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


def _states_and_decays():
    rng = np.random.default_rng(8)
    ket = rng.normal(size=4) + 1j * rng.normal(size=4)
    custom = DecaySpec(matrix=sandwich_operands()["custom decay"], kind=DecayKind.CUSTOM)
    states = {"phi": PHI, "psi": PSI, "custom ket": tuple(ket / np.linalg.norm(ket))}
    decays = {
        "identity": decay_operator(DecayKind.IDENTITY_UNIFORM, 0.3),
        "projector": decay_operator(DecayKind.PROJECTOR_EE, 0.3),
        "custom decay": custom,
    }
    return states, decays


@pytest.mark.parametrize("mode", ["adiabatic", "nonadiabatic"])
@pytest.mark.parametrize("jy", [-1.0, -0.6, 1.0])  # block A uncoupled, both coupled, block B uncoupled
@pytest.mark.parametrize("decay_name", ["identity", "projector", "custom decay"])
@pytest.mark.parametrize("state_name", ["phi", "psi", "custom ket"])
def test_element_rows_equal_the_dense_reference_bit_for_bit(state_name, decay_name, jy, mode):
    states, decays = _states_and_decays()
    sp = SpinChainParams(jx=-1.0, jy=jy, jz=0.5)
    # at c = 1.5 nonadiabatic members hop, so a column holds several labels
    bp = BathParams(c=1.5 if mode == "nonadiabatic" else 0.24, beta=0.1)
    config = SimConfig(n_steps=40, seed=31, n_samples=24, initial_state=states[state_name], mode=mode)
    engine = sampled_engine(sp, bp, decays[decay_name], config)
    plans = []
    for steps in (0, 40):
        if steps:
            engine.advance(steps)
        snap = engine.snapshot()
        # every member holds a pair its column can hold, and the plan for
        # those pairs is formed once per engine
        pairs = np.stack([snap.alpha, snap.alpha_prime], axis=1).reshape(-1, config.n_samples, 2)
        for held, column in zip(snap.column_labels, pairs):
            assert {tuple(pair) for pair in column.tolist()} <= set(held)
        plans.append(snap.plan)
        record = snap.sample_matrices()
        reference = dense_sample_matrices(snap)
        # the same bits, signs of zero included
        assert record.matrices().tobytes() == reference.tobytes()
        assert np.array_equal(record.matrices(), reference)
        # the index lists upper-triangle entries; a dead one is 0 on both sides
        assert all(e // 4 <= e % 4 for e in record.index)
        dead = [r * 4 + c for r, c in np.ndindex(4, 4) if min(r, c) * 4 + max(r, c) not in record.index]
        assert np.all(reference.reshape(-1, 16)[:, dead] == 0)
    assert plans[0] is plans[1]
    if mode == "nonadiabatic" and not (state_name == "phi" and jy == 1.0):  # phi's block B uncoupled: no hops
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
    # phi lives in block B, and block A is uncoupled at jx = jy
    assert first.index == second.index == (5, 6, 10)
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


@pytest.mark.parametrize(
    "jy,state",
    [
        (-0.6, PHI),  # both blocks coupled: every slot reaches every other
        (-1.0, (0.5, 0.5j, -0.5, 0.5)),  # block A uncoupled: |gg> reaches no other slot
    ],
)
def test_cross_block_decay_stores_both_blocks_where_a_label_can_cross(jy, state):
    config = SimConfig(n_steps=1, seed=5, n_samples=8, initial_state=state, mode="nonadiabatic")
    sp = SpinChainParams(jx=-1.0, jy=jy, jz=0.5)
    engine = sampled_engine(sp, PAPER_BP, decay_operator(DecayKind.CUSTOM, matrix=CROSS_BLOCK_DECAY), config)
    n_columns = engine.weight.size // 8
    if jy == -0.6:
        assert engine._cols == (range(n_columns), range(n_columns))
        assert engine._q[0].size == engine._q[1].size == engine.weight.size
    else:
        # the (1, 1) column, |gg> on both sides, stores block A only and its
        # phase never moves; every other column can reach both blocks
        assert engine.snapshot().column_labels[0] == ((1, 1),)
        assert engine._cols == (range(10), range(1, 10))
        assert 0 not in engine._live

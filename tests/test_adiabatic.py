import warnings

import numpy as np
import pytest

from nhqc.adiabatic import SLOT_ROWS, slot_gamma_diag, slot_vectors
from nhqc.model import BathParams, DecayKind, SpinChainParams, decay_operator
from nhqc.oracle import (
    DegeneratePairError,
    DegeneratePairWarning,
    analytic_energies,
    build_frame,
    dressed_hamiltonian,
    frame_matrices,
    frame_permutation,
    frames_at,
    gamma_in_adiabatic,
    hellmann_feynman_force,
    nonadiabatic_coupling,
    slot_sigma_z,
)

PAPER_SP = SpinChainParams(jx=-1.0, jy=-1.0, jz=0.5)
PAPER_BP = BathParams(c=0.24, beta=0.1)


def ee_slot(frame) -> int:
    """Column of the frame that is the |ee> basis state (exact for jx = jy)."""
    return int(np.argmax(np.abs(frame.vectors[0, :])))


def test_frame_energies_at_origin():
    frame = build_frame(PAPER_SP, PAPER_BP, np.zeros(2))
    assert np.allclose(frame.energies, [-1.5, -0.5, -0.5, 2.5], atol=1e-12)


def test_frame_energies_off_origin_closed_form():
    frame = build_frame(PAPER_SP, PAPER_BP, np.array([1.0, 0.0]))
    vb = 0.5
    gap = np.sqrt(4.0 + 0.24**2)
    expected = np.sort([vb + 0.5 - gap, vb - 0.5 - 0.24, vb - 0.5 + 0.24, vb + 0.5 + gap])
    assert np.allclose(frame.energies, expected, atol=1e-12)


def test_frame_decoupled_limit():
    bp0 = BathParams(c=0.0, beta=0.1)
    rng = np.random.default_rng(0)
    ref = build_frame(PAPER_SP, bp0, np.zeros(2))
    for _ in range(10):
        R = rng.uniform(-3, 3, 2)
        frame = build_frame(PAPER_SP, bp0, R)
        vb = 0.5 * np.sum(R**2)
        assert np.allclose(frame.energies, ref.energies + vb, atol=1e-12)
        assert np.max(np.abs(np.abs(frame.vectors) - np.abs(ref.vectors))) < 1e-10


def test_analytic_energies_match_eigensolver():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        R = rng.uniform(-10, 10, 2)
        frame = build_frame(PAPER_SP, PAPER_BP, R)
        assert np.max(np.abs(frame.energies - analytic_energies(PAPER_SP, PAPER_BP, R))) < 1e-12


def test_analytic_energies_rejects_xy_asymmetry():
    with pytest.raises(ValueError):
        analytic_energies(SpinChainParams(1.0, -1.0, 0.0), PAPER_BP, np.zeros(2))


def test_eigen_residual_on_random_configurations():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        R = rng.uniform(-10, 10, 2)
        frame = build_frame(PAPER_SP, PAPER_BP, R)
        h = dressed_hamiltonian(PAPER_SP, PAPER_BP, R)
        resid = np.max(np.abs(h @ frame.vectors - frame.vectors * frame.energies))
        ortho = np.max(np.abs(frame.vectors.conj().T @ frame.vectors - np.eye(4)))
        worst = max(worst, resid, ortho)
    assert worst < 1e-10


def test_bohr_frequency():
    # the engine's phase rate of pair (a, b) is E_a - E_b of the slot frames:
    # block B splits by 4 at the origin, block A is degenerate there
    e = frames_at(PAPER_SP, PAPER_BP, np.zeros((2, 1))).energies[:, 0]
    assert e[2] - e[3] == pytest.approx(4.0, abs=1e-12)
    assert e[0] - e[1] == 0.0


def test_force_on_ee_surface_at_origin():
    frame = build_frame(PAPER_SP, PAPER_BP, np.zeros(2))
    with pytest.warns(DegeneratePairWarning):
        f = hellmann_feynman_force(PAPER_SP, PAPER_BP, frame, ee_slot(frame))
    assert np.allclose(f, [0.24, 0.24], atol=1e-12)


def test_force_decoupled_is_harmonic():
    # at c = 0 block A's levels -jz (1 and 2 in energy order) are degenerate
    # at every R: their forces warn, the other two's do not
    bp0 = BathParams(c=0.0, beta=0.1)
    frame = build_frame(PAPER_SP, bp0, np.array([1.0, 2.0]))
    for alpha in range(4):
        if alpha in (1, 2):
            with pytest.warns(DegeneratePairWarning, match=f"level {alpha} "):
                f = hellmann_feynman_force(PAPER_SP, bp0, frame, alpha)
        else:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                f = hellmann_feynman_force(PAPER_SP, bp0, frame, alpha)
            assert caught == []
        assert np.allclose(f, [-1.0, -2.0], atol=1e-12)


def test_force_matches_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-5
    checked = 0
    while checked < 25:
        R = rng.uniform(-4, 4, 2)
        if abs(R[0] + R[1]) < 1e-3:  # stay off the block-A degeneracy manifold
            continue
        frame = build_frame(PAPER_SP, PAPER_BP, R)
        for alpha in range(4):
            f = hellmann_feynman_force(PAPER_SP, PAPER_BP, frame, alpha)
            for k in range(2):
                dR = np.zeros(2)
                dR[k] = h
                up = build_frame(PAPER_SP, PAPER_BP, R + dR).energies[alpha]
                dn = build_frame(PAPER_SP, PAPER_BP, R - dR).energies[alpha]
                assert f[k] == pytest.approx(-(up - dn) / (2 * h), abs=1e-6)
        checked += 1


def test_nonadiabatic_coupling_block_value():
    frame = build_frame(PAPER_SP, PAPER_BP, np.zeros(2))
    d = nonadiabatic_coupling(PAPER_SP, PAPER_BP, frame, 3, 0)
    assert np.allclose(d, [0.06, -0.06], atol=1e-10)
    d_rev = nonadiabatic_coupling(PAPER_SP, PAPER_BP, frame, 0, 3)
    assert np.allclose(d_rev, -d.conj(), atol=1e-12)


def test_nonadiabatic_coupling_vanishes_outside_block():
    rng = np.random.default_rng(9)
    for _ in range(20):
        R = rng.uniform(-3, 3, 2)
        if abs(R[0] + R[1]) < 0.05:
            continue
        frame = build_frame(PAPER_SP, PAPER_BP, R)
        ee = ee_slot(frame)
        gg = int(np.argmax(np.abs(frame.vectors[3, :])))
        for other in range(4):
            for special in (ee, gg):
                if other == special:
                    continue
                try:
                    d = nonadiabatic_coupling(PAPER_SP, PAPER_BP, frame, special, other)
                except DegeneratePairError:
                    continue
                assert np.max(np.abs(d)) < 1e-12


def test_nonadiabatic_coupling_antihermitian():
    rng = np.random.default_rng(13)
    for _ in range(20):
        R = rng.uniform(-3, 3, 2)
        frame = build_frame(PAPER_SP, PAPER_BP, R)
        for a in range(4):
            for b in range(a + 1, 4):
                try:
                    d_ab = nonadiabatic_coupling(PAPER_SP, PAPER_BP, frame, a, b)
                    d_ba = nonadiabatic_coupling(PAPER_SP, PAPER_BP, frame, b, a)
                except DegeneratePairError:
                    continue
                assert np.allclose(d_ba, -d_ab.conj(), atol=1e-12)


def test_nonadiabatic_coupling_degenerate_pair_raises():
    frame = build_frame(PAPER_SP, PAPER_BP, np.zeros(2))
    with pytest.raises(DegeneratePairError):
        nonadiabatic_coupling(PAPER_SP, PAPER_BP, frame, 1, 2)


def test_gauge_continuity_along_path():
    # slowly sweep R and keep the gauge aligned with the previous frame
    frame = build_frame(PAPER_SP, PAPER_BP, np.array([2.0, -1.0]))
    for i in range(100):
        R = np.array([2.0 - 0.01 * i, -1.0 + 0.02 * i])
        nxt = build_frame(PAPER_SP, PAPER_BP, R, previous=frame)
        perm = frame_permutation(frame, nxt)
        overlaps = np.einsum("ia,ia->a", frame.vectors.conj(), nxt.vectors[:, perm])
        assert np.all(np.real(overlaps) > 0.99)
        frame = nxt


def test_frame_permutation_tracks_crossing():
    # the |ee>/|gg> energies swap order when R1+R2 changes sign
    before = build_frame(PAPER_SP, PAPER_BP, np.array([0.05, 0.05]))
    after = build_frame(PAPER_SP, PAPER_BP, np.array([-0.05, -0.05]), previous=before)
    perm = frame_permutation(before, after)
    ee_before = ee_slot(before)
    ee_after = ee_slot(after)
    assert perm[ee_before] == ee_after
    assert ee_before != ee_after  # the crossing really swapped sorted positions


def test_gamma_identity_any_frame():
    spec = decay_operator(DecayKind.IDENTITY_UNIFORM, 0.7)
    frame = build_frame(PAPER_SP, PAPER_BP, np.array([0.3, -1.2]))
    gad = gamma_in_adiabatic(spec, frame)
    assert np.allclose(gad.diag, 0.7)
    assert np.max(np.abs(gad.offdiag)) < 1e-12


def test_gamma_projector_diagonal_in_adiabatic_basis():
    spec = decay_operator(DecayKind.PROJECTOR_EE, 0.1)
    rng = np.random.default_rng(17)
    for _ in range(20):
        R = rng.uniform(-4, 4, 2)
        frame = build_frame(PAPER_SP, PAPER_BP, R)
        gad = gamma_in_adiabatic(spec, frame)
        slot = ee_slot(frame)
        expected = np.zeros(4)
        expected[slot] = 0.1
        assert np.allclose(gad.diag, expected, atol=1e-12)
        assert np.max(np.abs(gad.offdiag)) < 1e-12


def test_gamma_random_hermitian_consistency():
    rng = np.random.default_rng(19)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    spec = decay_operator(DecayKind.CUSTOM, matrix=m + m.conj().T)
    frame = build_frame(PAPER_SP, PAPER_BP, np.array([1.1, 0.4]))
    gad = gamma_in_adiabatic(spec, frame)
    direct = frame.vectors.conj().T @ spec.matrix @ frame.vectors
    assert np.max(np.abs(gad.full - direct)) < 1e-12
    assert np.max(np.abs(gad.full - gad.full.conj().T)) < 1e-12
    assert np.max(np.abs(gad.full - (np.diag(gad.diag) + gad.offdiag))) < 1e-14


def test_gamma_rate_values_and_symmetry():
    frame = build_frame(PAPER_SP, PAPER_BP, np.array([0.2, 0.9]))
    # damping rate of element (a, b): the sum of the two diagonal decay
    # expectations (hbar = 1)
    gad_id = gamma_in_adiabatic(decay_operator(DecayKind.IDENTITY_UNIFORM, 0.5), frame)
    for a in range(4):
        for b in range(4):
            assert gad_id.diag[a] + gad_id.diag[b] == pytest.approx(1.0, abs=1e-14)
    rate_p = gamma_in_adiabatic(decay_operator(DecayKind.PROJECTOR_EE, 0.1), frame).diag
    slot = ee_slot(frame)
    other = (slot + 1) % 4
    assert rate_p[slot] + rate_p[other] == pytest.approx(0.1, abs=1e-12)
    assert rate_p[other] + rate_p[other] == pytest.approx(0.0, abs=1e-12)
    assert rate_p[slot] + rate_p[slot] == pytest.approx(0.2, abs=1e-12)
    rngm = np.random.default_rng(23)
    m = rngm.normal(size=(4, 4))
    diag = gamma_in_adiabatic(decay_operator(DecayKind.CUSTOM, matrix=m + m.T), frame).diag
    rates = diag[:, None] + diag[None, :]
    assert np.array_equal(rates, rates.T)


def test_gamma_rate_nonnegative_for_psd_operator():
    rng = np.random.default_rng(29)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    psd = m @ m.conj().T  # positive semidefinite by construction
    spec = decay_operator(DecayKind.CUSTOM, matrix=psd)
    assert spec.positive_semidefinite
    for _ in range(10):
        frame = build_frame(PAPER_SP, PAPER_BP, rng.uniform(-3, 3, 2))
        diag = gamma_in_adiabatic(spec, frame).diag
        assert np.all(diag[:, None] + diag[None, :] >= -1e-12)


# ---------------------------------------------------------------------------
# closed-form slot route against the generic eigensolver route
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("jy", [-1.0, -0.6, 1.0])  # block A uncoupled, both coupled, block B uncoupled
def test_slot_vectors_scatter_to_the_oracle_frame_matrices(jy):
    rng = np.random.default_rng(29)
    frames = frames_at(SpinChainParams(jx=-1.0, jy=jy, jz=0.5), PAPER_BP, rng.uniform(-6, 6, (2, 300)))
    u = np.zeros((300, 4, 4))
    for s, comps in enumerate(slot_vectors(frames.blocks)):
        for i, c in zip(SLOT_ROWS[s], comps):
            u[:, i, s] = c
    assert np.array_equal(u, frame_matrices(frames.blocks))


@pytest.mark.parametrize("sp", [PAPER_SP, SpinChainParams(0.7, -0.4, 0.3)])
def test_slot_frames_match_build_frame(sp):
    rng = np.random.default_rng(31)
    R = rng.uniform(-6, 6, (200, 2))
    frames = frames_at(sp, PAPER_BP, R.T)
    u = frame_matrices(frames.blocks)
    for i in range(R.shape[0]):
        frame = build_frame(sp, PAPER_BP, R[i])
        assert np.max(np.abs(np.sort(frames.energies[:, i]) - frame.energies)) < 1e-12
        h = dressed_hamiltonian(sp, PAPER_BP, R[i])
        resid = np.max(np.abs(np.real(h) @ u[i] - u[i] * frames.energies[:, i]))
        assert resid < 1e-10
        assert np.max(np.abs(u[i].T @ u[i] - np.eye(4))) < 1e-12


@pytest.mark.parametrize("sign", [1.0, -1.0])  # both signs of both blocks' off-diagonal w
def test_half_gap_is_hypot_within_one_ulp(sign):
    # jz = 0, c = 1 and R2 = 0 make delta = -R1 exactly in both blocks, so
    # the half gap must be hypot(delta, w) to within its last bit
    x = np.logspace(-8, 150, 3001)
    x = np.concatenate([x, -x])
    sp = SpinChainParams(jx=-sign, jy=-0.6 * sign, jz=0.0)
    frames = frames_at(sp, BathParams(c=1.0, beta=0.1), np.array([x, np.zeros_like(x)]))
    for block, w in zip(frames.blocks, (-(sp.jx - sp.jy), -(sp.jx + sp.jy))):
        exact = np.hypot(x, w)
        assert np.all(np.abs(block.half_gap - exact) <= np.spacing(exact))
    a, b = frames.blocks
    for part in (frames.energies, slot_sigma_z(frames.blocks), *a.vector, *b.vector):
        assert np.all(np.isfinite(part))


# spin-1 and spin-2 sigma_z over the basis |ee>, |eg>, |ge>, |gg>
SIGMA_Z = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])
FEW_ULP = 4 * np.spacing(1.0)  # <sigma_z> lies in [-1, 1]

SZ_CASES = {
    "jx = jy": (SpinChainParams(-1.0, -1.0, 0.5), 0.24),  # block A uncoupled
    "jx = -jy": (SpinChainParams(-1.0, 1.0, 0.5), 0.24),  # block B uncoupled
    "both coupled": (SpinChainParams(-1.0, -0.6, 0.5), 1.5),
    "c = 0": (SpinChainParams(-1.0, -0.6, 0.5), 0.0),
}


def sz_configurations():
    """R1 +- R2 of both signs over five decades, plus q = 0 in each block."""
    rng = np.random.default_rng(43)
    mag = np.logspace(-4, 1, 400)
    sign = rng.choice([-1.0, 1.0], (2, mag.size))
    q = sign[0] * rng.permutation(mag), sign[1] * mag
    edges = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, 0.0]])  # q_A, q_B = (2, 0), (0, 2), (0, 0)
    return np.hstack([0.5 * np.array([q[0] + q[1], q[0] - q[1]]), edges])


@pytest.mark.parametrize("case", SZ_CASES)
def test_sz_rows_equal_the_frame_vectors_within_a_few_ulp(case):
    sp, c = SZ_CASES[case]
    frames = frames_at(sp, BathParams(c=c, beta=0.1), sz_configurations())
    for block in frames.blocks:
        x, y = block.vector
        if block.half_gap is not None:
            assert np.max(np.abs(block.sz - (x * x - y * y))) <= FEW_ULP
        else:
            assert (block.sz, x, y) == (1.0, 1.0, 0.0)
    # the eight-row layout of spin 1, then spin 2, from the vectors
    n = frames.energies.shape[1]
    (xA, yA), (xB, yB) = (block.vector for block in frames.blocks)
    c2A, c2B = xA**2 - yA**2, xB**2 - yB**2
    rows = [c2A, -c2A, c2B, -c2B, c2A, -c2A, -c2B, c2B]
    eight = np.array([np.broadcast_to(row, n) for row in rows]).reshape(2, 4, n)
    assert np.max(np.abs(slot_sigma_z(frames.blocks) - eight)) <= FEW_ULP


@pytest.mark.parametrize("case", SZ_CASES)
def test_sz_rows_match_the_eigensolver(case):
    sp, c = SZ_CASES[case]
    bp = BathParams(c=c, beta=0.1)
    R = sz_configurations()[:, ::8]
    frames = frames_at(sp, bp, R)
    u = frame_matrices(frames.blocks)
    for i in range(R.shape[1]):
        frame = build_frame(sp, bp, R[:, i])
        if np.min(np.diff(frame.energies)) < 1e-6:
            continue  # a crossing of the uncoupled block: its eigenvectors are not unique
        col_of_slot = np.argmax(np.abs(u[i].T @ np.real(frame.vectors)), axis=1)
        sz = SIGMA_Z @ np.abs(frame.vectors[:, col_of_slot]) ** 2
        assert np.max(np.abs(slot_sigma_z(frames.blocks)[:, :, i] - sz)) < 1e-12


def test_slot_gamma_diag_matches_generic():
    rng = np.random.default_rng(37)
    R = rng.uniform(-4, 4, (50, 2))
    frames = frames_at(PAPER_SP, PAPER_BP, R.T)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    spec = decay_operator(DecayKind.CUSTOM, matrix=m + m.conj().T)
    gd = np.concatenate([slot_gamma_diag(spec, block) for block in frames.blocks])
    u = frame_matrices(frames.blocks)
    for i in range(R.shape[0]):
        direct = np.real(np.einsum("ia,ij,ja->a", u[i], spec.matrix, u[i]))
        assert np.max(np.abs(gd[:, i] - direct)) < 1e-12


def test_slot_coupling_matches_generic():
    rng = np.random.default_rng(41)
    R = rng.uniform(-4, 4, (30, 2))
    frames = frames_at(PAPER_SP, PAPER_BP, R.T)
    couplings = frames.couplings
    assert set(couplings) == {(2, 3), (3, 2)}  # block A is uncoupled for jx = jy
    u = frame_matrices(frames.blocks)
    for i in range(R.shape[0]):
        frame = build_frame(PAPER_SP, PAPER_BP, R[i])
        # identify the frame columns of slots 2 and 3 by overlap
        overlap = u[i].T @ np.real(frame.vectors)
        col_of_slot = np.argmax(np.abs(overlap), axis=1)
        sgn2 = np.sign(overlap[2, col_of_slot[2]])
        sgn3 = np.sign(overlap[3, col_of_slot[3]])
        d_generic = nonadiabatic_coupling(
            PAPER_SP, PAPER_BP, frame, int(col_of_slot[2]), int(col_of_slot[3])
        )
        assert np.allclose(couplings[(2, 3)][i], sgn2 * sgn3 * np.real(d_generic), atol=1e-10)

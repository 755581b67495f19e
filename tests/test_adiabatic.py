import numpy as np
import pytest

from nhqc.adiabatic import SLOT_ROWS, slot_gamma_diag, slot_vectors
from nhqc.model import BathParams, DecayKind, SpinChainParams, coupling_hamiltonian, decay_operator
from nhqc.oracle import (
    DegeneratePairError,
    analytic_energies,
    build_frame,
    decay_matrix,
    dressed_hamiltonian,
    frame_matrices,
    frames_at,
    gamma_in_adiabatic,
    hellmann_feynman_force,
    nonadiabatic_coupling,
    slot_sigma_z,
)

PAPER_SP = SpinChainParams(jx=-1.0, jy=-1.0, jz=0.5)
PAPER_BP = BathParams(c=0.24, beta=0.1)
# jx != jy couples block A, whose frames then mix |ee> and |gg>
COUPLED_SP = SpinChainParams(jx=-1.0, jy=-0.6, jz=0.5)
REFERENCE_DECAYS = [decay_operator(DecayKind.IDENTITY_UNIFORM, 0.5), decay_operator(DecayKind.PROJECTOR_EE, 0.1)]


# for jx = jy block A is uncoupled: slot 0 is |ee>, slot 1 is |gg>
EE, GG = 0, 1


def test_frame_energies_at_origin():
    frame = build_frame(PAPER_SP, PAPER_BP, np.zeros(2))
    assert np.allclose(frame.energies, [-0.5, -0.5, 2.5, -1.5], atol=1e-12)


def test_frame_energies_off_origin_closed_form():
    frame = build_frame(PAPER_SP, PAPER_BP, np.array([1.0, 0.0]))
    vb = 0.5
    gap = np.sqrt(4.0 + 0.24**2)
    expected = [vb - 0.5 - 0.24, vb - 0.5 + 0.24, vb + 0.5 + gap, vb + 0.5 - gap]
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
        assert np.max(np.abs(np.sort(frame.energies) - analytic_energies(PAPER_SP, PAPER_BP, R))) < 1e-12


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
    f = hellmann_feynman_force(PAPER_BP, frame, EE)
    assert np.allclose(f, [0.24, 0.24], atol=1e-12)


def test_force_decoupled_is_harmonic():
    # at c = 0 block A's two slots are degenerate at every R
    bp0 = BathParams(c=0.0, beta=0.1)
    frame = build_frame(PAPER_SP, bp0, np.array([1.0, 2.0]))
    for alpha in range(4):
        f = hellmann_feynman_force(bp0, frame, alpha)
        assert np.allclose(f, [-1.0, -2.0], atol=1e-12)


def test_force_matches_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(25):
        R = rng.uniform(-4, 4, 2)
        frame = build_frame(PAPER_SP, PAPER_BP, R)
        for alpha in range(4):
            f = hellmann_feynman_force(PAPER_BP, frame, alpha)
            for k in range(2):
                dR = np.zeros(2)
                dR[k] = h
                up = build_frame(PAPER_SP, PAPER_BP, R + dR).energies[alpha]
                dn = build_frame(PAPER_SP, PAPER_BP, R - dR).energies[alpha]
                assert f[k] == pytest.approx(-(up - dn) / (2 * h), abs=1e-6)


def test_nonadiabatic_coupling_block_value():
    frame = build_frame(PAPER_SP, PAPER_BP, np.zeros(2))
    d = nonadiabatic_coupling(PAPER_BP, frame, 3, 2)
    assert np.allclose(d, [0.06, -0.06], atol=1e-10)
    d_rev = nonadiabatic_coupling(PAPER_BP, frame, 2, 3)
    assert np.allclose(d_rev, -d.conj(), atol=1e-12)


def test_nonadiabatic_coupling_vanishes_outside_block():
    rng = np.random.default_rng(9)
    for _ in range(20):
        R = rng.uniform(-3, 3, 2)
        frame = build_frame(PAPER_SP, PAPER_BP, R)
        for other in range(4):
            for special in (EE, GG):
                if other == special:
                    continue
                try:
                    d = nonadiabatic_coupling(PAPER_BP, frame, special, other)
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
                    d_ab = nonadiabatic_coupling(PAPER_BP, frame, a, b)
                    d_ba = nonadiabatic_coupling(PAPER_BP, frame, b, a)
                except DegeneratePairError:
                    continue
                assert np.allclose(d_ba, -d_ab.conj(), atol=1e-12)


def test_nonadiabatic_coupling_degenerate_pair_raises():
    frame = build_frame(PAPER_SP, PAPER_BP, np.zeros(2))
    with pytest.raises(DegeneratePairError):
        nonadiabatic_coupling(PAPER_BP, frame, EE, GG)


def test_gamma_identity_any_frame():
    spec = decay_operator(DecayKind.IDENTITY_UNIFORM, 0.7)
    frame = build_frame(PAPER_SP, PAPER_BP, np.array([0.3, -1.2]))
    gad = gamma_in_adiabatic(spec, frame)
    assert np.allclose(np.real(np.diag(gad)), 0.7)
    assert np.max(np.abs(gad - np.diag(np.diag(gad)))) < 1e-12


def test_gamma_projector_diagonal_in_adiabatic_basis():
    spec = decay_operator(DecayKind.PROJECTOR_EE, 0.1)
    rng = np.random.default_rng(17)
    for _ in range(20):
        R = rng.uniform(-4, 4, 2)
        frame = build_frame(PAPER_SP, PAPER_BP, R)
        gad = gamma_in_adiabatic(spec, frame)
        expected = np.zeros(4)
        expected[EE] = 0.1
        assert np.allclose(np.real(np.diag(gad)), expected, atol=1e-12)
        assert np.max(np.abs(gad - np.diag(np.diag(gad)))) < 1e-12


@pytest.mark.parametrize("spec", REFERENCE_DECAYS, ids=["identity", "projector"])
def test_gamma_in_adiabatic_is_the_hermitian_sandwich(spec):
    frame = build_frame(COUPLED_SP, PAPER_BP, np.array([1.1, 0.4]))
    gad = gamma_in_adiabatic(spec, frame)
    direct = frame.vectors.conj().T @ decay_matrix(spec) @ frame.vectors
    assert np.max(np.abs(gad - direct)) < 1e-12
    assert np.max(np.abs(gad - gad.conj().T)) < 1e-12


def test_gamma_rate_values_and_symmetry():
    frame = build_frame(PAPER_SP, PAPER_BP, np.array([0.2, 0.9]))
    # damping rate of element (a, b): the sum of the two diagonal decay
    # expectations (hbar = 1)
    def diag(spec):
        return np.real(np.diag(gamma_in_adiabatic(spec, frame)))

    diag_id = diag(decay_operator(DecayKind.IDENTITY_UNIFORM, 0.5))
    for a in range(4):
        for b in range(4):
            assert diag_id[a] + diag_id[b] == pytest.approx(1.0, abs=1e-14)
    rate_p = diag(decay_operator(DecayKind.PROJECTOR_EE, 0.1))
    assert rate_p[EE] + rate_p[GG] == pytest.approx(0.1, abs=1e-12)
    assert rate_p[GG] + rate_p[GG] == pytest.approx(0.0, abs=1e-12)
    assert rate_p[EE] + rate_p[EE] == pytest.approx(0.2, abs=1e-12)


@pytest.mark.parametrize("spec", REFERENCE_DECAYS, ids=["identity", "projector"])
def test_gamma_rate_nonnegative_for_psd_operator(spec):
    rng = np.random.default_rng(29)
    assert spec.positive_semidefinite
    for _ in range(10):
        frame = build_frame(COUPLED_SP, PAPER_BP, rng.uniform(-3, 3, 2))
        diag = np.real(np.diag(gamma_in_adiabatic(spec, frame)))
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


@pytest.mark.parametrize("jy", [-0.6, -1.0, 1.0])  # both coupled, block A uncoupled, block B uncoupled
@pytest.mark.parametrize("sign", [1.0, -1.0])  # both signs of the off-diagonal w
def test_slot_outer_products_are_linear_in_sz_and_sx(sign, jy):
    # within a block u_a u_b^T is a fixed form in (1, sz, sx), from
    # x^2 = (1 + sz) / 2, y^2 = (1 - sz) / 2 and x y = sx / 2: the reduction
    # reads these rows instead of x and y.  jz = 0, c = 1 and R2 = 0 make
    # delta = -R1, so |delta| / |w| runs from 1e-8 to 1e8 with both signs,
    # and delta = 0
    r1 = np.logspace(-8, 8, 1601)
    sp = SpinChainParams(jx=-sign, jy=jy * sign, jz=0.0)
    r1 = np.concatenate([r1, -r1, [0.0]])
    frames = frames_at(sp, BathParams(c=1.0, beta=0.1), np.array([r1, np.zeros_like(r1)]))
    comps = slot_vectors(frames.blocks)
    for k, block in enumerate(frames.blocks):
        s, c = block.sz, block.sx
        up, lo = 2 * k, 2 * k + 1
        forms = {
            (up, up): ((1 + s, c), (c, 1 - s)),
            (lo, lo): ((1 - s, -c), (-c, 1 + s)),
            (up, lo): ((-c, 1 + s), (s - 1, c)),
            (lo, up): ((-c, s - 1), (1 + s, c)),
        }
        for (a, b), form in forms.items():
            for p, q in np.ndindex(2, 2):
                product, expected = comps[a][p] * comps[b][q], 0.5 * form[p][q]
                if block.half_gap is None:  # the scalars 1 and 0, exactly
                    assert (s, c) == (1.0, 0.0) and product == expected
                else:
                    assert np.max(np.abs(product - expected)) <= FEW_ULP


@pytest.mark.parametrize("sp", [PAPER_SP, SpinChainParams(0.7, -0.4, 0.3)])
def test_slot_frames_match_build_frame(sp):
    rng = np.random.default_rng(31)
    R = rng.uniform(-6, 6, (200, 2))
    frames = frames_at(sp, PAPER_BP, R.T)
    u = frame_matrices(frames.blocks)
    for i in range(R.shape[0]):
        frame = build_frame(sp, PAPER_BP, R[i])
        assert np.max(np.abs(frames.energies[:, i] - frame.energies)) < 1e-12
        h = dressed_hamiltonian(sp, PAPER_BP, R[i])
        resid = np.max(np.abs(np.real(h) @ u[i] - u[i] * frames.energies[:, i]))
        assert resid < 1e-10
        assert np.max(np.abs(u[i].T @ u[i] - np.eye(4))) < 1e-12


@pytest.mark.parametrize("case", SZ_CASES)
def test_build_frame_equals_the_slot_frames(case):
    # the eigensolver's per-block frames against the closed form, slot by
    # slot with no matching or sign fix, q = 0 crossings included
    sp, c = SZ_CASES[case]
    bp = BathParams(c=c, beta=0.1)
    R = sz_configurations()
    frames = frames_at(sp, bp, R)
    u = frame_matrices(frames.blocks)
    for i in range(R.shape[1]):
        frame = build_frame(sp, bp, R[:, i])
        assert np.max(np.abs(frame.energies - frames.energies[:, i])) < 1e-12
        assert np.max(np.abs(frame.vectors - u[i])) < 1e-12


@pytest.mark.parametrize("case", SZ_CASES)
def test_sz_rows_match_the_eigensolver(case):
    # both spins' <sigma_z> per slot, from the eigensolver's vectors
    sp, c = SZ_CASES[case]
    bp = BathParams(c=c, beta=0.1)
    R = sz_configurations()
    sz = slot_sigma_z(frames_at(sp, bp, R).blocks)
    for i in range(R.shape[1]):
        frame = build_frame(sp, bp, R[:, i])
        assert np.max(np.abs(SIGMA_Z @ np.abs(frame.vectors) ** 2 - sz[:, :, i])) < 1e-12


def test_slot_coupling_matches_generic():
    # the coupled blocks' derivative couplings, slot by slot, in every case
    for sp, c in SZ_CASES.values():
        bp = BathParams(c=c, beta=0.1)
        R = sz_configurations()
        frames = frames_at(sp, bp, R)
        coupled = [k for k, w in enumerate((sp.jx - sp.jy, sp.jx + sp.jy)) if w != 0]
        assert set(frames.couplings) == {p for k in coupled for p in ((2 * k, 2 * k + 1), (2 * k + 1, 2 * k))}
        for i in range(R.shape[1]):
            frame = build_frame(sp, bp, R[:, i])
            for (a, b), d in frames.couplings.items():
                assert np.max(np.abs(nonadiabatic_coupling(bp, frame, a, b) - d[i])) < 1e-12


def test_build_frame_rejects_an_entry_outside_the_slot_blocks(monkeypatch):
    def leaky(bp, R):
        h = coupling_hamiltonian(bp, R)
        h[0, 1] = h[1, 0] = 0.1  # |ee><eg| + h.c. joins the two blocks
        return h

    monkeypatch.setattr("nhqc.oracle.coupling_hamiltonian", leaky)
    with pytest.raises(ValueError, match="outside its two slot blocks"):
        build_frame(PAPER_SP, PAPER_BP, np.array([0.3, -0.2]))


@pytest.mark.parametrize(
    "sp,spec",
    [
        (COUPLED_SP, REFERENCE_DECAYS[0]),
        (COUPLED_SP, REFERENCE_DECAYS[1]),
        (COUPLED_SP, decay_operator(DecayKind.PROJECTOR_EE, -0.3)),
        (COUPLED_SP, decay_operator(DecayKind.PROJECTOR_EE, 0.0)),
        (COUPLED_SP, decay_operator(DecayKind.IDENTITY_UNIFORM, -0.3)),
        (PAPER_SP, REFERENCE_DECAYS[1]),  # block A uncoupled: sz_A is the scalar 1
    ],
    ids=["identity", "projector", "projector-negative", "projector-zero", "identity-negative", "projector-uncoupled"],
)
def test_slot_gamma_diag_matches_generic(sp, spec):
    rng = np.random.default_rng(37)
    R = rng.uniform(-4, 4, (50, 2))
    frames = frames_at(sp, PAPER_BP, R.T)
    constant, coefficient = slot_gamma_diag(spec)
    gd = constant[:, None] + coefficient[:, None] * np.broadcast_to(frames.blocks[0].sz, len(R))
    u, gamma = frame_matrices(frames.blocks), decay_matrix(spec).real
    block_a = frames.blocks[0]
    for i in range(R.shape[0]):
        direct = np.einsum("ip,ij,jq->pq", u[i], gamma, u[i])
        assert np.max(np.abs(gd[:, i] - np.diag(direct))) < 1e-12
        # the only off-diagonal element between slots is block A's,
        # -slope_0 w / r (sx = w / r), which the hop stage reads
        off = np.zeros((4, 4))
        if block_a.half_gap is not None:
            off[0, 1] = off[1, 0] = -coefficient[0] * block_a.sx[i]
        assert np.max(np.abs(direct - np.diag(np.diag(direct)) - off)) < 1e-12

import numpy as np
import pytest

from nhqc.model import PHI, PSI, BathParams, SimConfig, SpinChainParams, decay_operator
from nhqc.sampler import CHUNK_SAMPLES, bath_sigmas, initial_subsystem, sample_bath_point

from engines import sampled_engine

PAPER_SP = SpinChainParams(jx=-1.0, jy=-1.0, jz=0.5)
PAPER_BP = BathParams(c=0.24, beta=0.1)


def test_bath_sigma_values():
    sr, sp_ = bath_sigmas(BathParams(beta=0.1))
    assert sr**2 == pytest.approx(1.0 / (2.0 * np.tanh(0.05)), rel=1e-12)
    assert sr == sp_
    sr_cold, _ = bath_sigmas(BathParams(beta=100.0))
    assert sr_cold**2 == pytest.approx(0.5, rel=1e-6)  # ground-state Wigner width


def test_sample_variance_matches_distribution():
    n = 200_000
    R, P = sample_bath_point(PAPER_BP, 2024, 0, n)
    assert R.shape == P.shape == (2, n)
    target = 1.0 / (2.0 * np.tanh(0.05))
    for data in (*R, *P):
        assert np.var(data) == pytest.approx(target, rel=0.02)
        assert abs(np.mean(data)) < 4 * np.sqrt(target / n)


def test_sample_cross_covariances_vanish():
    n = 100_000
    R, P = sample_bath_point(PAPER_BP, 77, 0, n)
    cov = np.cov(np.concatenate([R, P]))
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) < 5 * np.max(np.diag(cov)) / np.sqrt(n)


def test_streams_are_reproducible_and_decorrelated():
    R1, P1 = sample_bath_point(PAPER_BP, 123, 5, 2)
    R2, P2 = sample_bath_point(PAPER_BP, 123, 5, 2)
    assert np.array_equal(R1, R2) and np.array_equal(P1, P2)
    assert not np.array_equal(R1[:, 0], R1[:, 1])  # samples 5 and 6


def test_different_seeds_give_different_points():
    R1, P1 = sample_bath_point(PAPER_BP, 123, 0, 100)
    R2, P2 = sample_bath_point(PAPER_BP, 124, 0, 100)
    assert not np.any(R1 == R2) and not np.any(P1 == P2)


@pytest.mark.parametrize("start,n", [(8000, 400), (0, 100), (8192, 1), (16_383, 1)])
def test_points_do_not_depend_on_the_block_split(start, n):
    R_all, P_all = sample_bath_point(PAPER_BP, 5, 0, 16_384)
    R, P = sample_bath_point(PAPER_BP, 5, start, n)
    assert np.array_equal(R, R_all[:, start : start + n])
    assert np.array_equal(P, P_all[:, start : start + n])


def test_engine_starts_from_the_same_points_at_any_chunk_offset():
    # the last 192 samples of the second block
    start, n = 2 * CHUNK_SAMPLES - 192, 192
    R_all, P_all = sample_bath_point(PAPER_BP, 5, 0, 2 * CHUNK_SAMPLES)
    config = SimConfig(n_steps=1, seed=5, n_samples=2 * CHUNK_SAMPLES, initial_state=PSI)
    engine = sampled_engine(PAPER_SP, PAPER_BP, decay_operator("identity", 0.0), config, start, n)
    # every column a block stores starts from the normal coordinates of the
    # local samples, in order: q = R1 + R2, p = P1 + P2 for block A and the
    # differences for block B
    R, P = R_all[:, start : start + n], P_all[:, start : start + n]
    for k, sign in enumerate((1.0, -1.0)):
        assert engine._q[k].size > 0
        assert np.array_equal(engine._q[k].reshape(-1, n), np.broadcast_to(R[0] + sign * R[1], (engine._q[k].size // n, n)))
        assert np.array_equal(engine._p[k].reshape(-1, n), np.broadcast_to(P[0] + sign * P[1], (engine._p[k].size // n, n)))


def test_initial_subsystem_phi():
    rho = initial_subsystem(PHI)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    assert np.allclose(rho, expected)


def test_initial_subsystem_psi():
    rho = initial_subsystem(PSI)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[1, 1] = 0.5
    expected[0, 1] = expected[1, 0] = -0.5
    assert np.allclose(rho, expected, atol=1e-15)


@pytest.mark.parametrize("state", [PHI, PSI])
def test_initial_subsystem_is_pure(state):
    rho = initial_subsystem(state)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(rho @ rho - rho)) < 1e-14


def test_initial_subsystem_custom_ket():
    ket = np.array([0.5, 0.5, 0.5, 0.5])
    rho = initial_subsystem(ket)
    assert np.trace(rho) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        initial_subsystem(np.array([1.0, 1.0, 0.0, 0.0]))


def initial_members(bp, state, seed, n):
    """The engine's members at t = 0: the initial state projected into the
    slot frame of each sampled bath point, as (K, n) arrays of labels and
    initial elements (row k holds the k-th pair of every sample).  A
    diagonal member starts at half its element, its implicit partner
    adding the other half."""
    config = SimConfig(n_steps=1, seed=seed, n_samples=n, initial_state=state)
    snap = sampled_engine(PAPER_SP, bp, decay_operator("identity", 0.0), config).snapshot()
    elements = snap.weight * np.where(snap.alpha == snap.alpha_prime, 2.0, 1.0)
    return snap.alpha.reshape(-1, n), snap.alpha_prime.reshape(-1, n), elements.reshape(-1, n)


def test_initial_condition_trace_preserved():
    alpha, alpha_prime, weight = initial_members(PAPER_BP, PSI, 9, 200)
    diagonal = alpha[:, 0] == alpha_prime[:, 0]
    assert np.allclose(weight[diagonal].sum(axis=0), 1.0, atol=1e-12)


def test_initial_condition_psi_ee_population():
    # |ee> is an exact adiabatic state (slot 0 for jx = jy), so its initial
    # population is 1/2 at any R
    alpha, alpha_prime, weight = initial_members(PAPER_BP, PSI, 31, 50)
    ee = (alpha[:, 0] == 0) & (alpha_prime[:, 0] == 0)
    assert np.count_nonzero(ee) == 1
    assert np.allclose(np.real(weight[ee]), 0.5, atol=1e-12)


def test_initial_condition_decoupled_is_configuration_independent():
    bp0 = BathParams(c=0.0, beta=0.1)
    _, _, weight = initial_members(bp0, PHI, 4, 10)
    assert np.allclose(weight, weight[:, :1], atol=1e-12)

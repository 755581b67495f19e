import numpy as np
import pytest

from nhqc.model import PHI, PSI, BathParams, SimConfig, SpinChainParams, decay_operator
from nhqc.propagator import EnsembleState
from nhqc.sampler import bath_sigmas, initial_subsystem, sample_bath_point, trajectory_stream

PAPER_SP = SpinChainParams(jx=-1.0, jy=-1.0, jz=0.5)
PAPER_BP = BathParams(c=0.24, beta=0.1)


def draw_many(bp, seed, n):
    R = np.empty((n, 2))
    P = np.empty((n, 2))
    for i in range(n):
        pt = sample_bath_point(bp, trajectory_stream(seed, i))
        R[i] = pt.R
        P[i] = pt.P
    return R, P


def test_bath_sigma_values():
    sr, sp_ = bath_sigmas(BathParams(beta=0.1))
    assert sr**2 == pytest.approx(1.0 / (2.0 * np.tanh(0.05)), rel=1e-12)
    assert sr == sp_
    sr_cold, _ = bath_sigmas(BathParams(beta=100.0))
    assert sr_cold**2 == pytest.approx(0.5, rel=1e-6)  # ground-state Wigner width


def test_sample_variance_matches_distribution():
    n = 200_000
    R, P = draw_many(PAPER_BP, seed=2024, n=n)
    target = 1.0 / (2.0 * np.tanh(0.05))
    for data in (R[:, 0], R[:, 1], P[:, 0], P[:, 1]):
        assert np.var(data) == pytest.approx(target, rel=0.02)
        assert abs(np.mean(data)) < 4 * np.sqrt(target / n)


def test_sample_cross_covariances_vanish():
    n = 100_000
    R, P = draw_many(PAPER_BP, seed=77, n=n)
    cols = np.column_stack([R, P])
    cov = np.cov(cols.T)
    off = cov - np.diag(np.diag(cov))
    assert np.max(np.abs(off)) < 5 * np.max(np.diag(cov)) / np.sqrt(n)


def test_streams_are_reproducible_and_decorrelated():
    a1 = sample_bath_point(PAPER_BP, trajectory_stream(123, 5))
    a2 = sample_bath_point(PAPER_BP, trajectory_stream(123, 5))
    b = sample_bath_point(PAPER_BP, trajectory_stream(123, 6))
    assert np.array_equal(a1.R, a2.R) and np.array_equal(a1.P, a2.P)
    assert not np.array_equal(a1.R, b.R)


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
    weights (row k holds the k-th pair of every sample)."""
    config = SimConfig(n_steps=1, seed=seed, n_samples=n, initial_state=state)
    snap = EnsembleState(PAPER_SP, bp, decay_operator("identity", 0.0), config).snapshot()
    return snap.alpha.reshape(-1, n), snap.alpha_prime.reshape(-1, n), snap.weight.reshape(-1, n)


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

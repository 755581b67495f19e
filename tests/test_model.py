import numpy as np
import pytest

from nhqc.cli import parse_config
from nhqc.model import (
    BathParams,
    DecayKind,
    DecaySpec,
    ReducedDensity,
    SimConfig,
    SpinChainParams,
    bath_potential,
    coupling_hamiltonian,
    decay_operator,
    subsystem_hamiltonian,
)
from nhqc.oracle import PhasePoint, decay_matrix
from nhqc.sampler import initial_subsystem

from engines import diagonal_series

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
EYE2 = np.eye(2, dtype=complex)


def kron_hamiltonian(jx, jy, jz):
    """Brute-force Pauli tensor-product construction (independent oracle)."""
    return -jx * np.kron(SX, SX) - jy * np.kron(SY, SY) - jz * np.kron(SZ, SZ)


def test_subsystem_hamiltonian_paper_couplings():
    h = subsystem_hamiltonian(SpinChainParams(jx=-1, jy=-1, jz=0.5))
    assert np.allclose(np.diag(h), [-0.5, 0.5, 0.5, -0.5])
    assert h[1, 2] == h[2, 1] == 2.0
    assert h[0, 3] == h[3, 0] == 0.0


def test_subsystem_hamiltonian_zero_couplings():
    h = subsystem_hamiltonian(SpinChainParams(0.0, 0.0, 0.0))
    assert np.all(h == 0)


def test_subsystem_hamiltonian_xy_asymmetry():
    h = subsystem_hamiltonian(SpinChainParams(jx=1.0, jy=-1.0, jz=0.0))
    assert h[0, 3] == -2.0
    assert np.allclose(h, kron_hamiltonian(1.0, -1.0, 0.0), atol=1e-14)


def test_subsystem_hamiltonian_matches_kron_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        jx, jy, jz = rng.uniform(-3, 3, 3)
        h = subsystem_hamiltonian(SpinChainParams(jx, jy, jz))
        assert np.max(np.abs(h - kron_hamiltonian(jx, jy, jz))) < 1e-12
        assert np.max(np.abs(h - h.conj().T)) < 1e-14


@pytest.mark.parametrize(
    "c,R,expected",
    [
        (0.24, (1.0, 0.0), (-0.24, -0.24, 0.24, 0.24)),
        (0.0, (3.7, -1.2), (0.0, 0.0, 0.0, 0.0)),
        (0.24, (1.0, -1.0), (0.0, -0.48, 0.48, 0.0)),
    ],
)
def test_coupling_hamiltonian_values(c, R, expected):
    h = coupling_hamiltonian(BathParams(c=c, beta=0.1), np.array(R))
    assert np.allclose(np.diag(h), expected, atol=1e-14)


def test_coupling_hamiltonian_matches_kron_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        c = rng.uniform(-2, 2)
        R = rng.uniform(-5, 5, 2)
        h = coupling_hamiltonian(BathParams(c=c, beta=0.1), R)
        oracle = -c * (R[0] * np.kron(SZ, EYE2) + R[1] * np.kron(EYE2, SZ))
        assert np.max(np.abs(h - oracle)) < 1e-12
        assert np.allclose(h, np.diag(np.diag(h)))
        assert abs(np.trace(h)) < 1e-12


def test_coupling_hamiltonian_rejects_bad_shape():
    with pytest.raises(ValueError):
        coupling_hamiltonian(BathParams(c=1.0, beta=0.1), np.zeros(3))


@pytest.mark.parametrize("R,expected", [((0.0, 0.0), 0.0), ((1.0, 0.0), 0.5), ((1.0, 2.0), 2.5)])
def test_bath_potential(R, expected):
    assert bath_potential(BathParams(beta=0.1), np.array(R)) == pytest.approx(expected, abs=1e-14)


def test_decay_operator_identity():
    spec = decay_operator(DecayKind.IDENTITY_UNIFORM, 0.5)
    assert np.allclose(decay_matrix(spec), 0.5 * np.eye(4))
    assert spec.positive_semidefinite


def test_decay_operator_projector():
    spec = decay_operator("projector_ee", 0.1)
    gamma = decay_matrix(spec)
    assert np.allclose(np.diag(gamma), [0.1, 0, 0, 0])
    assert np.allclose(gamma, np.diag(np.diag(gamma)))
    assert spec.positive_semidefinite


def test_decay_operators_positive_semidefinite_property():
    # the closed form reads the same as the least eigenvalue of the matrix,
    # on both sides of the -1e-12 tolerance
    for kind in DecayKind:
        for g in (0.7, 0.01, 0.0, -1e-13, -1e-12, -2e-12, -0.3):
            spec = decay_operator(kind, g)
            assert spec.positive_semidefinite is bool(np.min(np.linalg.eigvalsh(decay_matrix(spec))) >= -1e-12), (kind, g)
        assert decay_operator(kind, 0.7).positive_semidefinite
        assert not decay_operator(kind, -0.3).positive_semidefinite


def test_phase_point_validation():
    p = PhasePoint(R=[1.0, 2.0], P=[0.0, -1.0])
    assert p.R.shape == (2,)
    with pytest.raises(ValueError):
        PhasePoint(R=[1.0], P=[1.0, 2.0])
    with pytest.raises(ValueError):
        PhasePoint(R=[np.nan, 0.0], P=[0.0, 0.0])


def test_sim_config_validation():
    cfg = SimConfig(n_steps=10, seed=1)
    assert cfg.dt == 0.01 and cfg.n_samples == 50_000 and cfg.mode == "adiabatic"
    with pytest.raises(ValueError):
        SimConfig(n_steps=10, seed=1, dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(n_steps=10, seed=1, output_stride=3)
    with pytest.raises(ValueError):
        SimConfig(n_steps=10, seed=1, mode="diabatic")
    # the seed is any unsigned 64-bit integer
    assert SimConfig(n_steps=10, seed=2**64 - 1).seed == 2**64 - 1
    for seed in (2**64, -1):
        with pytest.raises(ValueError, match="seed must fit in 64 bits"):
            SimConfig(n_steps=10, seed=seed)


def test_reduced_density_validation():
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    ReducedDensity(rho, np.zeros((4, 4)), 10).validate()
    skew = rho.copy()
    skew[0, 1] = 0.1
    with pytest.raises(ValueError):
        ReducedDensity(skew, np.zeros((4, 4)), 10).validate()
    # a large stderr excuses the same asymmetry
    ReducedDensity(skew, np.full((4, 4), 0.1), 10).validate()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SpinChainParams(jx=-1.0, jy=np.inf, jz=0.5), "jy must be a finite real"),
        (lambda: BathParams(c=np.nan), "c must be finite"),
        (lambda: DecaySpec(kind="projector_ee", strength=np.nan), "gamma must be finite, got nan"),
        (lambda: decay_operator("custom"), r"gamma_kind must be one of \('identity', 'projector_ee'\), got 'custom'"),
        (lambda: SimConfig(n_steps=10, seed=1, initial_state="chi"), "initial_state must be 'phi' or 'psi', got 'chi'"),
        # a ket, once accepted, is refused by name, not by numpy's truth test
        (
            lambda: SimConfig(n_steps=10, seed=1, initial_state=np.array([1.0, 0.0, 0.0, 0.0])),
            r"initial_state must be 'phi' or 'psi', got array\(\[1., 0., 0., 0.\]\)",
        ),
        (lambda: bath_potential(BathParams(), [1.0, 2.0, 3.0]), r"R must have length 2, got shape \(3,\)"),
        (lambda: initial_subsystem("chi"), "unknown initial state 'chi'"),
        # a large stderr gets the imaginary diagonal past the Hermiticity check
        (
            lambda: ReducedDensity(np.diag([1.0 + 1e-6j, 0.0, 0.0, 0.0]), np.ones((4, 4)), 10).validate(),
            "trace has imaginary part 1.000e-06",
        ),
        (lambda: diagonal_series([0.0, 0.1, 0.1], [1.0] * 3).validate(), "time series must be strictly increasing in t"),
        (lambda: diagonal_series([0.0, 0.1], [1.0] * 2, steps=10, output_stride=5).validate(), "expected 3 rows, found 2"),
        (lambda: parse_config("no-such-dir/run.cfg"), "cannot read config"),
        (
            lambda: parse_config(["gamma_kind = custom"]),
            r"line 1: bad value for 'gamma_kind': must be one of \('identity', 'projector_ee'\)",
        ),
        (lambda: SpinChainParams(jx=1e308, jy=1e308, jz=0.0), r"jx \+ jy must be finite, got inf"),
        (lambda: SimConfig(n_steps=10, seed=1, dt=1e308), r"dt \* n_steps must be finite, got 1e\+308 \* 10"),
    ],
)
def test_bad_input_fails_with_its_message(make, message):
    with pytest.raises(ValueError, match=message):
        make()

"""Model definition: two coupled spins, two harmonic oscillators, decay operators.

Everything is adimensional: energies in units of the oscillator quantum,
times multiplied by the oscillator frequency, hbar = 1.  The subsystem basis
is fixed throughout the package as

    |1> = |ee>,  |2> = |eg>,  |3> = |ge>,  |4> = |gg>

(0-indexed 0..3 in code).  All 4x4 matrices use this ordering.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CONFIG_KEYS",
    "HERMITICITY_TOL",
    "REFERENCE_BP",
    "REFERENCE_SP",
    "BathParams",
    "DecayKind",
    "DecaySpec",
    "ReducedDensity",
    "SimConfig",
    "SpinChainParams",
    "bath_potential",
    "coupling_hamiltonian",
    "decay_operator",
    "subsystem_hamiltonian",
]

HERMITICITY_TOL = 1e-12

# Pauli z expectation per basis state, first and second spin.
SZ1_DIAG = np.array([1.0, 1.0, -1.0, -1.0])
SZ2_DIAG = np.array([1.0, -1.0, 1.0, -1.0])


def _require_finite(name: str, value: np.ndarray) -> None:
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SpinChainParams:
    """Exchange couplings of the two-spin chain (adimensional energies)."""

    jx: float
    jy: float
    jz: float

    def __post_init__(self) -> None:
        for name in ("jx", "jy", "jz"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite real")


@dataclass(frozen=True)
class BathParams:
    """Parameters of the harmonic bath, one oscillator per spin.

    ``beta`` is the adimensional inverse temperature; ``c`` couples oscillator
    k linearly to the z component of spin k.
    """

    mass: float = 1.0
    omega: float = 1.0
    c: float = 0.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        for name in ("mass", "omega", "beta"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and strictly positive, got {value!r}")
        _require_finite("c", np.asarray(self.c))


class DecayKind(enum.Enum):
    """Shape of the decay operator."""

    IDENTITY_UNIFORM = "identity"
    PROJECTOR_EE = "projector_ee"
    CUSTOM = "custom"


@dataclass(frozen=True)
class DecaySpec:
    """Hermitian decay operator of the subsystem (adimensional)."""

    matrix: np.ndarray
    kind: DecayKind
    strength: float | None = None

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"decay matrix must be 4x4, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("decay matrix must be finite")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValueError("decay matrix must be Hermitian")
        object.__setattr__(self, "matrix", m)

    @property
    def positive_semidefinite(self) -> bool:
        """True when all eigenvalues are >= -1e-12 (reported, never enforced)."""
        return bool(np.min(np.linalg.eigvalsh(self.matrix)) >= -1e-12)


@dataclass(frozen=True)
class ReducedDensity:
    """Bath-averaged 4x4 subsystem density matrix with per-element errors."""

    elements: np.ndarray
    stderr: np.ndarray
    n_samples: int

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.elements))

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.elements - self.elements.conj().T)))

    def validate(self) -> None:
        """Raise if the statistical-consistency invariants are violated."""
        # every comparison below is False for NaN, so non-finite values must be caught first
        if not (np.all(np.isfinite(self.elements)) and np.all(np.isfinite(self.stderr))):
            raise ValueError("density has non-finite elements or standard errors")
        tol = 3.0 * np.maximum(self.stderr, self.stderr.T) + 1e-10
        defect = np.abs(self.elements - self.elements.conj().T)
        if np.any(defect > tol):
            raise ValueError(f"density not Hermitian within tolerance: {defect.max():.3e}")
        if abs(self.trace.imag) > 1e-10:
            raise ValueError(f"trace has imaginary part {self.trace.imag:.3e}")


PHI = "phi"
PSI = "psi"

# The reference couplings of the figure sweeps and the acceptance criteria.
REFERENCE_SP = SpinChainParams(jx=-1.0, jy=-1.0, jz=0.5)
REFERENCE_BP = BathParams(c=0.24, beta=0.1)

_MODES = ("adiabatic", "nonadiabatic")

# The keys of a run configuration, in the order a run's metadata lists
# them: key -> (the type its value parses to, float, int or the tuple of
# allowed words; the run parameter that holds it, "sp", "bp", "decay" or
# "config"; that parameter's attribute).
CONFIG_KEYS = {
    "jx": (float, "sp", "jx"),
    "jy": (float, "sp", "jy"),
    "jz": (float, "sp", "jz"),
    "c": (float, "bp", "c"),
    "mass": (float, "bp", "mass"),
    "omega": (float, "bp", "omega"),
    "beta": (float, "bp", "beta"),
    "gamma_kind": (("identity", "projector_ee"), "decay", "kind"),
    "gamma": (float, "decay", "strength"),
    "dt": (float, "config", "dt"),
    "steps": (int, "config", "n_steps"),
    "samples": (int, "config", "n_samples"),
    "seed": (int, "config", "seed"),
    "mode": (_MODES, "config", "mode"),
    "initial_state": ((PHI, PSI), "config", "initial_state"),
    "output_stride": (int, "config", "output_stride"),
}


@dataclass(frozen=True)
class SimConfig:
    """Run controls for the trajectory-ensemble propagation."""

    n_steps: int
    seed: int
    dt: float = 0.01
    n_samples: int = 50_000
    mode: str = "adiabatic"
    initial_state: str | tuple = PHI
    output_stride: int = 1

    def __post_init__(self) -> None:
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt!r}")
        if self.n_steps < 1 or self.n_samples < 1:
            raise ValueError("n_steps and n_samples must be >= 1")
        if self.output_stride < 1 or self.n_steps % self.output_stride != 0:
            raise ValueError("output_stride must divide n_steps")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")
        state = self.initial_state
        if isinstance(state, str):
            if state not in (PHI, PSI):
                raise ValueError(f"initial_state must be '{PHI}', '{PSI}' or a 4-ket")
        else:
            ket = np.asarray(state, dtype=complex)
            if ket.shape != (4,):
                raise ValueError("custom ket must have 4 amplitudes")
            norm = np.linalg.norm(ket)
            if abs(norm - 1.0) > 1e-12:
                raise ValueError("custom ket must be normalized to 1 within 1e-12")
            # stored normalized, so the trace starts at 1 to rounding
            object.__setattr__(self, "initial_state", tuple(ket / norm))


def subsystem_hamiltonian(sp: SpinChainParams) -> np.ndarray:
    """Two-spin exchange Hamiltonian in the |ee>,|eg>,|ge>,|gg> basis.

    The xx and yy couplings act only inside the {|ee>,|gg>} and {|eg>,|ge>}
    subspaces; the zz coupling is diagonal.  Real symmetric for real
    couplings (returned as complex for uniformity downstream).
    """
    jp = -(sp.jx + sp.jy)  # couples |eg> <-> |ge>
    jm = -(sp.jx - sp.jy)  # couples |ee> <-> |gg>
    h = np.array(
        [
            [-sp.jz, 0.0, 0.0, jm],
            [0.0, sp.jz, jp, 0.0],
            [0.0, jp, sp.jz, 0.0],
            [jm, 0.0, 0.0, -sp.jz],
        ],
        dtype=complex,
    )
    return h


def coupling_hamiltonian(bp: BathParams, R: np.ndarray) -> np.ndarray:
    """Spin-bath coupling at bath configuration R: diagonal, traceless.

    Oscillator k couples to the z component of spin k with strength -c R_k.
    """
    R = np.asarray(R, dtype=float)
    if R.shape != (2,):
        raise ValueError(f"R must have length 2, got shape {R.shape}")
    return np.diag(-bp.c * (R[0] * SZ1_DIAG + R[1] * SZ2_DIAG)).astype(complex)


def bath_potential(bp: BathParams, R: np.ndarray) -> float:
    """Harmonic bath potential; shifts every adiabatic energy by a scalar."""
    R = np.asarray(R, dtype=float)
    if R.shape != (2,):
        raise ValueError(f"R must have length 2, got shape {R.shape}")
    return float(0.5 * bp.mass * bp.omega**2 * np.sum(R**2))


def decay_operator(kind: DecayKind | str, gamma: float = 0.0, matrix=None) -> DecaySpec:
    """Build one of the two reference decay operators, or wrap a custom one.

    ``IDENTITY_UNIFORM`` drains every state at the same rate; ``PROJECTOR_EE``
    drains only the doubly excited state.  A custom matrix is accepted when
    Hermitian; positivity is reported via ``DecaySpec.positive_semidefinite``
    but not required.
    """
    if isinstance(kind, str):
        kind = DecayKind(kind)
    if not np.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma!r}")
    if kind is DecayKind.IDENTITY_UNIFORM:
        return DecaySpec(gamma * np.eye(4, dtype=complex), kind, gamma)
    if kind is DecayKind.PROJECTOR_EE:
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = gamma
        return DecaySpec(m, kind, gamma)
    if matrix is None:
        raise ValueError("custom decay operator requires a matrix")
    return DecaySpec(np.asarray(matrix, dtype=complex), DecayKind.CUSTOM, None)

"""Initial-condition sampling: thermal Wigner bath points and subsystem states.

Each trajectory index owns a counter-based random stream derived from
(master seed, index), so resampling with the same seed reproduces identical
points no matter how the work is split across workers.
"""

from __future__ import annotations

import numpy as np

from .model import PHI, PSI, BathParams, PhasePoint

__all__ = [
    "bath_sigmas",
    "initial_subsystem",
    "sample_bath_point",
    "trajectory_stream",
]


def trajectory_stream(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for one trajectory."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), int(index)])))


def bath_sigmas(bp: BathParams) -> tuple[float, float]:
    """Width of the thermal Wigner distribution per oscillator: (sigma_R, sigma_P).

    The distribution is exp[-2 tanh(beta omega / 2) H_osc / omega], a Gaussian
    with variance 1 / (2 tanh(beta/2)) in both R and P for unit mass and
    frequency.
    """
    u = np.tanh(0.5 * bp.beta * bp.omega)
    sigma_r = 1.0 / np.sqrt(2.0 * bp.mass * bp.omega * u)
    sigma_p = np.sqrt(bp.mass * bp.omega / (2.0 * u))
    return float(sigma_r), float(sigma_p)


def _box_muller_pair(rng: np.random.Generator) -> tuple[float, float]:
    u1 = 1.0 - rng.random()  # (0, 1]: keeps the log finite
    u2 = rng.random()
    radius = np.sqrt(-2.0 * np.log(u1))
    return radius * np.cos(2.0 * np.pi * u2), radius * np.sin(2.0 * np.pi * u2)


def sample_bath_point(bp: BathParams, rng: np.random.Generator) -> PhasePoint:
    """Draw one phase-space point from the bath thermal Wigner distribution."""
    sigma_r, sigma_p = bath_sigmas(bp)
    R = np.empty(bp.n_osc)
    P = np.empty(bp.n_osc)
    for k in range(bp.n_osc):
        z_r, z_p = _box_muller_pair(rng)
        R[k] = sigma_r * z_r
        P[k] = sigma_p * z_p
    return PhasePoint(R=R, P=P)


def initial_subsystem(state) -> np.ndarray:
    """Initial subsystem density matrix: |phi><phi|, |psi><psi| or a custom ket.

    phi = |eg> and psi = (|ee> - |eg>)/sqrt(2), the two preparations paired
    with the uniform and projector decay operators respectively.
    """
    if isinstance(state, str):
        if state == PHI:
            ket = np.array([0, 1, 0, 0], dtype=complex)
        elif state == PSI:
            ket = np.array([1, -1, 0, 0], dtype=complex) / np.sqrt(2)
        else:
            raise ValueError(f"unknown initial state {state!r}")
    else:
        ket = np.asarray(state, dtype=complex)
        if ket.shape != (4,):
            raise ValueError("custom ket must have 4 amplitudes")
        norm = np.linalg.norm(ket)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError("custom ket must be normalized")
    return np.outer(ket, ket.conj())


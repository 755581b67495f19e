"""Initial-condition sampling: thermal Wigner bath points and subsystem states.

Each preparation is stated once, as a real ket (``initial_ket``) whose slot
amplitudes start the engine's members; ``initial_subsystem`` is its density
matrix, for the references (criterion 3's RK4, the tests' reference routes).

Random numbers come from counter-based Philox streams, one per fixed block
of CHUNK_SAMPLES consecutive samples, so a sample's draws depend only on the
seed and its index, never on how the work is split across chunks or workers.
"""

from __future__ import annotations

import numpy as np

from .model import PHI, PSI, BathParams

__all__ = [
    "CHUNK_SAMPLES",
    "bath_sigmas",
    "block_stream",
    "initial_ket",
    "initial_subsystem",
    "sample_bath_point",
]

# Samples per stream block and per work chunk.  Fixed (never derived from the
# worker count) so that chunk boundaries, and therefore all reduction orders
# and random streams, are identical for any number of threads.
CHUNK_SAMPLES = 8192
SAMPLE_TAG = 0x534D50  # distinguishes bath-sampling streams from hop streams


def block_stream(seed: int, tag: int, *counters: int) -> np.random.Generator:
    """Philox generator keyed by (seed, tag, *counters)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, tag, *counters])))


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


def sample_bath_point(bp: BathParams, seed: int, start: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Thermal Wigner points of samples [start, start + n) as (2, n)
    arrays R and P, one row per oscillator.

    Sample i's coordinates (R_1, R_2, P_1, P_2), in units of
    ``bath_sigmas``, are row i % CHUNK_SAMPLES of the standard normals of the
    stream keyed (seed, SAMPLE_TAG, i // CHUNK_SAMPLES).  A shorter draw from
    a stream is a prefix of a longer one, so each block draws only the rows
    up to the last one it needs.
    """
    sigma_r, sigma_p = bath_sigmas(bp)
    z = np.empty((n, 4))
    stop = start + n
    for block in range(start // CHUNK_SAMPLES, (stop - 1) // CHUNK_SAMPLES + 1):
        first = block * CHUNK_SAMPLES
        lo, hi = max(start, first), min(stop, first + CHUNK_SAMPLES)
        draws = block_stream(seed, SAMPLE_TAG, block).standard_normal((hi - first, z.shape[1]))
        z[lo - start : hi - start] = draws[lo - first :]
    return sigma_r * z[:, :2].T, sigma_p * z[:, 2:].T


def initial_ket(state: str) -> np.ndarray:
    """Preparation phi = |eg> or psi = (|ee> - |eg>)/sqrt(2) as a real ket on
    |ee>, |eg>, |ge>, |gg>, paired with the uniform and the projector decay
    operator respectively."""
    if state == PHI:
        return np.array([0.0, 1.0, 0.0, 0.0])
    if state == PSI:
        return np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2)
    raise ValueError(f"unknown initial state {state!r}")


def initial_subsystem(state: str) -> np.ndarray:
    """Initial subsystem density matrix |ket><ket| of ``initial_ket``, real."""
    ket = initial_ket(state)
    return np.outer(ket, ket)

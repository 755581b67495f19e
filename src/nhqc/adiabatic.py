"""Closed-form adiabatic frames of the ensemble engine, vectorized over
bath configurations.

The dressed Hamiltonian h(R) = H_spin + H_coupling(R) + V_bath(R) I of this
model couples only |ee><gg| and |eg><ge|, so it splits into two real
symmetric 2x2 blocks at every bath configuration.  ``slot_frames`` evaluates
both blocks in closed form for whole batches of configurations at once.
Slots are labeled per block, not by energy order, which makes them
continuous along any bath path (no relabeling at surface crossings).

The generic eigensolver route (``nhqc.oracle.build_frame``) cross-checks
these frames in the test suite and the acceptance criteria.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BathParams, DecaySpec, SpinChainParams

__all__ = [
    "SlotFrames",
    "slot_coupling",
    "slot_frames",
    "slot_gamma_diag",
    "slot_vectors",
]


@dataclass(frozen=True)
class SlotFrames:
    """Adiabatic frames for a batch of configurations, in block-slot order.

    Slot layout: 0, 1 live in block A (|ee>, |gg>), slots 2, 3 in block B
    (|eg>, |ge>).  In an uncoupled block the slots are the bare basis states
    and their energies may cross; in a coupled block slot order is (upper,
    lower) of that block, which never crosses.  Either way each slot is a
    smooth function of R, so slot labels track adiabatic states continuously
    without any reordering bookkeeping.

    ``x*, y*`` are the in-block components of the first slot of each block
    ((n,) arrays, or the scalars 1/0 for an uncoupled block); the second
    slot is (-y, x).  ``z[k]`` holds the per-slot Pauli-z expectations of
    spin k + 1, from which Hellmann-Feynman forces follow directly.
    """

    energies: np.ndarray  # (4, n)
    z: np.ndarray         # (2, 4, n)
    xA: np.ndarray | float
    yA: np.ndarray | float
    xB: np.ndarray | float
    yB: np.ndarray | float
    coupled_A: bool
    coupled_B: bool
    half_gap_A: np.ndarray | None  # (n,) half level splitting, coupled blocks only
    half_gap_B: np.ndarray | None


def slot_frames(sp: SpinChainParams, bp: BathParams, R: np.ndarray) -> SlotFrames:
    """Closed-form frames at configurations R of shape (2, n), one row per
    oscillator.

    Uncoupled blocks carry scalar 1/0 vector components (they broadcast
    wherever the arrays would); their half gap is not needed and stays None.
    """
    r1, r2 = R
    n = r1.shape[0]
    total = r1 + r2
    diff = r1 - r2
    vb = 0.5 * bp.mass * bp.omega**2 * (r1 * r1 + r2 * r2)

    energies = np.empty((4, n))
    z = np.empty((2, 4, n))
    z1, z2 = z

    def block(w: float, d1: np.ndarray, d2: np.ndarray) -> tuple:
        coupled = abs(w) > 1e-300
        if not coupled:
            return coupled, d1, d2, 1.0, 0.0, None
        # upper eigenvector of [[delta, w], [w, -delta]] is prop. to
        # (r + delta, w): never vanishes for w != 0, hence a smooth gauge
        delta = 0.5 * (d1 - d2)
        r = np.hypot(delta, w)
        lead = r + delta
        norm = np.sqrt(lead * lead + w * w)
        x = lead / norm
        y = w / norm
        mean = 0.5 * (d1 + d2)
        return coupled, mean + r, mean - r, x, y, r

    # block A: diag (-jz -c*total, -jz +c*total), off-diagonal -(jx - jy)
    cA, e0, e1, xA, yA, rA = block(
        -(sp.jx - sp.jy), -sp.jz - bp.c * total, -sp.jz + bp.c * total
    )
    # block B: diag (jz -c*diff, jz +c*diff), off-diagonal -(jx + jy)
    cB, e2, e3, xB, yB, rB = block(
        -(sp.jx + sp.jy), sp.jz - bp.c * diff, sp.jz + bp.c * diff
    )
    np.add(e0, vb, out=energies[0])
    np.add(e1, vb, out=energies[1])
    np.add(e2, vb, out=energies[2])
    np.add(e3, vb, out=energies[3])
    # sz expectations: both spins point the same way in block A states,
    # opposite ways in block B.
    c2A = 1.0 if not cA else xA * xA - yA * yA
    c2B = 1.0 if not cB else xB * xB - yB * yB
    z1[0] = c2A
    z2[0] = c2A
    z1[1] = -c2A if cA else -1.0
    z2[1] = z1[1]
    z1[2] = c2B
    z2[2] = -c2B if cB else -1.0
    z1[3] = z2[2]
    z2[3] = z1[2]
    return SlotFrames(
        energies=energies, z=z,
        xA=xA, yA=yA, xB=xB, yB=yB,
        coupled_A=cA, coupled_B=cB, half_gap_A=rA, half_gap_B=rB,
    )


def slot_gamma_diag(decay: DecaySpec, frames: SlotFrames) -> np.ndarray:
    """Diagonal decay expectations per slot, shape (4, n)."""
    g = np.real(decay.matrix)
    n = frames.energies.shape[1]
    out = np.empty((4, n))
    xa, ya, xb, yb = frames.xA, frames.yA, frames.xB, frames.yB
    out[0] = xa**2 * g[0, 0] + 2 * xa * ya * g[0, 3] + ya**2 * g[3, 3]
    out[1] = ya**2 * g[0, 0] - 2 * xa * ya * g[0, 3] + xa**2 * g[3, 3]
    out[2] = xb**2 * g[1, 1] + 2 * xb * yb * g[1, 2] + yb**2 * g[2, 2]
    out[3] = yb**2 * g[1, 1] - 2 * xb * yb * g[1, 2] + xb**2 * g[2, 2]
    return out


def slot_vectors(frames: SlotFrames) -> np.ndarray:
    """Materialize the frame columns as dense matrices, shape (n, 4, 4)."""
    n = frames.energies.shape[1]
    u = np.zeros((n, 4, 4))
    u[:, 0, 0] = frames.xA
    u[:, 3, 0] = frames.yA
    u[:, 0, 1] = -frames.yA
    u[:, 3, 1] = frames.xA
    u[:, 1, 2] = frames.xB
    u[:, 2, 2] = frames.yB
    u[:, 1, 3] = -frames.yB
    u[:, 2, 3] = frames.xB
    return u


def slot_coupling(bp: BathParams, frames: SlotFrames) -> dict[tuple[int, int], np.ndarray]:
    """Within-block derivative couplings, as {(slot_from, slot_to): (n, 2)}.

    Cross-block couplings vanish identically because dh/dR is diagonal.
    Only coupled blocks carry a channel.
    """
    out: dict[tuple[int, int], np.ndarray] = {}
    n = frames.energies.shape[1]
    if frames.coupled_A:
        d = np.empty((n, 2))
        xy = frames.xA * frames.yA
        # dh/dR_k restricted to block A has diagonal (-c, +c) for both k
        d[:, 0] = -xy * bp.c / frames.half_gap_A
        d[:, 1] = -xy * bp.c / frames.half_gap_A
        out[(0, 1)] = d
        out[(1, 0)] = -d
    if frames.coupled_B:
        d = np.empty((n, 2))
        xy = frames.xB * frames.yB
        # block B diagonal of dh/dR_1 is (-c, +c); of dh/dR_2 is (+c, -c)
        d[:, 0] = -xy * bp.c / frames.half_gap_B
        d[:, 1] = xy * bp.c / frames.half_gap_B
        out[(2, 3)] = d
        out[(3, 2)] = -d
    return out

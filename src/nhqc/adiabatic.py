"""Closed-form adiabatic frames of the ensemble engine, vectorized over
bath configurations.

The dressed Hamiltonian h(R) = H_spin + H_coupling(R) + V_bath(R) I of this
model couples only |ee><gg| and |eg><ge|, so it splits into two real
symmetric 2x2 blocks at every bath configuration.  Each block depends on R
only through one normal coordinate, q = R1 + R2 for block A (|ee>, |gg>)
and q = R1 - R2 for block B (|eg>, |ge>):

    V_bath + mean + [[delta, w], [w, -delta]],    delta = -c q,

with mean = -jz, w = -(jx - jy) in block A and mean = +jz, w = -(jx + jy)
in block B.  ``slot_frames`` solves both blocks in closed form for whole
batches of configurations at once, one ``Block`` record each.  A coupled
block has the half gap r = sqrt(delta^2 + w^2), the slot energies
(V_bath + mean) +- r and, in its upper slot, <sigma_z> = delta / r on the
first spin; an uncoupled block (w = 0) has the energies
(V_bath + mean) +- delta and <sigma_z> = 1.  Slots are labeled per block,
not by energy order, which makes them continuous along any bath path (no
relabeling at surface crossings).  This module alone states the slot
layout: block k holds slots 2k and 2k + 1, slot s's frame vector has the
two components ``slot_vectors(frames)[s]`` on the basis rows
``SLOT_ROWS[s]``, formed from its block's upper vector (x, y) as
``SLOT_PARTS[s]`` states, and its <sigma_z> on both spins follows from its
block's ``sz`` row by the signs ``SLOT_SZ[s]``.

Only what a constant-rate adiabatic step reads is computed eagerly: the
energies and each block's <sigma_z> row.  A block's frame-vector components
x, y are built on first read of ``Block.vector``, once per block, by
whoever needs them (the reduction, the decay expectations, the derivative
couplings).

The half gap is formed with one square root in a single n-long buffer, not
with ``np.hypot``, whose scalar libm call cost six times as much (0.44
against 0.07 ms for 49 152 points on a 2-vCPU Xeon).  It agrees with
``hypot`` to within one ulp while |delta| stays below about 1e154.  Beyond
that delta^2 overflows: r is inf, so the block's energies are +-inf, its
<sigma_z> row reads 0 (NaN where delta itself overflowed, which then
reaches the force of every member in that configuration) and its frame
vectors are NaN; ``nhqc run`` reports the resulting non-finite curve as an
invariant violation.

The generic eigensolver route (``nhqc.oracle.build_frame``) cross-checks
these frames in the test suite and the acceptance criteria.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import BathParams, DecaySpec, SpinChainParams

__all__ = [
    "SLOT_PARTS",
    "SLOT_ROWS",
    "SLOT_SZ",
    "Block",
    "SlotFrames",
    "slot_coupling",
    "slot_frames",
    "slot_gamma_diag",
    "slot_vectors",
]

# basis rows spanned by each slot's frame vector (block A: |ee>, |gg>;
# block B: |eg>, |ge>)
SLOT_ROWS = ((0, 3), (0, 3), (1, 2), (1, 2))
# each slot's two components as (sign, index into its block's upper vector
# (x, y)): the upper slot 2k is (x, y), the lower slot 2k + 1 is (-y, x)
SLOT_PARTS = (((1, 0), (1, 1)), ((-1, 1), (1, 0)), ((1, 0), (1, 1)), ((-1, 1), (1, 0)))
# each slot's <sigma_z> of spin 1 and of spin 2, as signs of its block's
# ``sz`` row: both spins point the same way in a block-A state and opposite
# ways in a block-B state
SLOT_SZ = ((1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0))


@dataclass(frozen=True)
class Block:
    """One block [[delta, w], [w, -delta]] of the dressed Hamiltonian, less
    V_bath + mean, solved at n configurations on the basis rows ``rows``."""

    rows: tuple[int, int]
    delta: np.ndarray  # (n,) -c q
    w: float  # off-diagonal element
    half_gap: np.ndarray | None  # (n,) half level splitting r; None when uncoupled
    sz: np.ndarray | float  # spin 1's <sigma_z> in the upper slot: delta / r, or 1.0 uncoupled

    @cached_property
    def vector(self) -> tuple:
        """(x, y) of the upper slot on ``rows`` (the lower slot is (-y, x)),
        built on first read and then kept.  The upper eigenvector is prop.
        to (r + delta, w), which never vanishes for w != 0, hence a smooth
        gauge; an uncoupled block keeps the bare states, scalars 1 and 0."""
        if self.half_gap is None:
            return 1.0, 0.0
        lead = self.half_gap + self.delta
        norm = lead * lead
        norm += self.w * self.w
        np.sqrt(norm, out=norm)
        lead /= norm
        return lead, np.divide(self.w, norm, out=norm)


@dataclass(frozen=True)
class SlotFrames:
    """Adiabatic frames for a batch of configurations, in block-slot order.

    Slot layout: 0, 1 live in block A (|ee>, |gg>), slots 2, 3 in block B
    (|eg>, |ge>).  In an uncoupled block the slots are the bare basis states
    and their energies may cross; in a coupled block slot order is (upper,
    lower) of that block, which never crosses.  Either way each slot is a
    smooth function of R, so slot labels track adiabatic states continuously
    without any reordering bookkeeping.

    ``energies`` (4, n) are the slot energies; ``blocks`` holds the records
    of blocks A and B, from whose ``sz`` rows Hellmann-Feynman forces
    follow with the signs ``SLOT_SZ``.
    """

    energies: np.ndarray
    blocks: tuple[Block, Block]


def slot_frames(sp: SpinChainParams, bp: BathParams, R: np.ndarray) -> SlotFrames:
    """Closed-form frames at configurations R of shape (2, n), one row per
    oscillator.

    Uncoupled blocks carry the scalar <sigma_z> 1.0 and scalar 1/0 vector
    components (they broadcast wherever the arrays would); their half gap
    is not needed and stays None.
    """
    r1, r2 = R
    n = r1.shape[0]
    vb = r1 * r1
    vb += r2 * r2
    vb *= 0.5 * bp.mass * bp.omega**2
    energies = np.empty((4, n))

    def block(k: int, q: np.ndarray, mean: float, w: float) -> Block:
        """Write the energies of block k's two slots into rows 2k and
        2k + 1 and return its record."""
        first, second = energies[2 * k], energies[2 * k + 1]
        delta = q
        delta *= -bp.c
        np.add(vb, mean, out=first)
        if abs(w) <= 1e-300:  # uncoupled: the bare states, crossing at q = 0
            np.subtract(first, delta, out=second)
            first += delta
            return Block(SLOT_ROWS[2 * k], delta, w, None, 1.0)
        r = delta * delta
        r += w * w
        np.sqrt(r, out=r)
        np.subtract(first, r, out=second)
        first += r
        return Block(SLOT_ROWS[2 * k], delta, w, r, delta / r)

    blocks = (block(0, r1 + r2, -sp.jz, -(sp.jx - sp.jy)), block(1, r1 - r2, sp.jz, -(sp.jx + sp.jy)))
    return SlotFrames(energies, blocks)


def slot_gamma_diag(decay: DecaySpec, frames: SlotFrames) -> np.ndarray:
    """Diagonal decay expectations per slot, shape (4, n)."""
    g = np.real(decay.matrix)
    out = np.empty((4, frames.energies.shape[1]))
    for k, block in enumerate(frames.blocks):
        (i, j), (x, y) = block.rows, block.vector
        out[2 * k] = x**2 * g[i, i] + 2 * x * y * g[i, j] + y**2 * g[j, j]
        out[2 * k + 1] = y**2 * g[i, i] - 2 * x * y * g[i, j] + x**2 * g[j, j]
    return out


def slot_vectors(frames: SlotFrames) -> tuple:
    """Each slot's frame-vector components on its two ``SLOT_ROWS``:
    ((xA, yA), (-yA, xA), (xB, yB), (-yB, xB)), with an uncoupled block's
    scalar 1/0 components left scalar."""
    comps = []
    for s, parts in enumerate(SLOT_PARTS):
        xy = frames.blocks[s // 2].vector
        comps.append(tuple(xy[i] if sign > 0 else -xy[i] for sign, i in parts))
    return tuple(comps)


def slot_coupling(bp: BathParams, frames: SlotFrames) -> dict[tuple[int, int], np.ndarray]:
    """Within-block derivative couplings, as {(slot_from, slot_to): (n, 2)}.

    Cross-block couplings vanish identically because dh/dR is diagonal.
    Only coupled blocks carry a channel.  dh/dR_k restricted to a block is
    -c times spin k's sigma_z there, and spin 2's equals spin 1's times the
    block's spin-2 sign in ``SLOT_SZ`` (+1 in block A, -1 in block B), so
    the coupling lies along (1, 1) in block A and (1, -1) in block B.  Each
    block's row is computed once.
    """
    out: dict[tuple[int, int], np.ndarray] = {}
    for k, block in enumerate(frames.blocks):
        if block.half_gap is None:
            continue
        x, y = block.vector
        row = -(x * y) * bp.c / block.half_gap
        d = np.empty((row.size, 2))
        d[:, 0] = row
        d[:, 1] = SLOT_SZ[2 * k][1] * row
        pair = (2 * k, 2 * k + 1)
        out[pair] = d
        out[pair[::-1]] = -d
    return out

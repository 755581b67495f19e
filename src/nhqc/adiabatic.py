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
batches of configurations at once.  A coupled block has the half gap
r = sqrt(delta^2 + w^2), the slot energies (V_bath + mean) +- r and, in its
upper slot, <sigma_z> = delta / r on the first spin; an uncoupled block
(w = 0) has the energies (V_bath + mean) +- delta and <sigma_z> = 1.
Slots are labeled per block, not by energy order, which makes them
continuous along any bath path (no relabeling at surface crossings).
This module alone states the slot layout: slot s's frame vector has the two
components ``slot_vectors(frames)[s]`` on the basis rows ``SLOT_ROWS[s]``,
and its <sigma_z> on both spins follows from its block's row by the signs
``SLOT_SZ[s]``.

Only what a constant-rate adiabatic step reads is computed eagerly: the
energies and the two per-block <sigma_z> rows.  The frame-vector components
x, y and the per-slot, per-spin <sigma_z> table ``z`` are built on first
read, once per ``SlotFrames``, by whoever needs them (the reduction, the
decay expectations, the derivative couplings).

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

from dataclasses import dataclass, field

import numpy as np

from .model import BathParams, DecaySpec, SpinChainParams

__all__ = [
    "SLOT_ROWS",
    "SLOT_SZ",
    "SlotFrames",
    "slot_coupling",
    "slot_frames",
    "slot_gamma_diag",
    "slot_vectors",
]

# basis rows spanned by each slot's frame vector (block A: |ee>, |gg>;
# block B: |eg>, |ge>)
SLOT_ROWS = ((0, 3), (0, 3), (1, 2), (1, 2))
# each slot's <sigma_z> of spin 1 and of spin 2, as signs of its block's
# ``sz_A`` or ``sz_B`` row: both spins point the same way in a block-A
# state and opposite ways in a block-B state
SLOT_SZ = ((1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0))


@dataclass(frozen=True)
class SlotFrames:
    """Adiabatic frames for a batch of configurations, in block-slot order.

    Slot layout: 0, 1 live in block A (|ee>, |gg>), slots 2, 3 in block B
    (|eg>, |ge>).  In an uncoupled block the slots are the bare basis states
    and their energies may cross; in a coupled block slot order is (upper,
    lower) of that block, which never crosses.  Either way each slot is a
    smooth function of R, so slot labels track adiabatic states continuously
    without any reordering bookkeeping.

    Computed eagerly: ``energies`` (4, n); ``sz_A`` and ``sz_B``, the
    <sigma_z> of spin 1 in slots 0 and 2 (delta / r, or the scalar 1.0 for
    an uncoupled block), from which Hellmann-Feynman forces follow with the
    signs ``SLOT_SZ``; each block's ``delta_*`` row and, for a coupled
    block, its ``half_gap_*`` row (None otherwise).

    Built on first read and then kept: ``x*, y*``, the components on
    ``SLOT_ROWS`` of the first slot of each block ((n,) arrays, or the
    scalars 1/0 for an uncoupled block; the second slot is (-y, x), as
    ``slot_vectors`` lists them), and ``z``, shape (2, 4, n), where
    ``z[k, s]`` is slot s's <sigma_z> of spin k + 1.
    """

    energies: np.ndarray  # (4, n)
    sz_A: np.ndarray | float
    sz_B: np.ndarray | float
    delta_A: np.ndarray  # -c (R1 + R2)
    delta_B: np.ndarray  # -c (R1 - R2)
    w_A: float  # off-diagonal element of each block
    w_B: float
    half_gap_A: np.ndarray | None  # (n,) half level splitting, coupled blocks only
    half_gap_B: np.ndarray | None
    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def coupled_A(self) -> bool:
        return self.half_gap_A is not None

    @property
    def coupled_B(self) -> bool:
        return self.half_gap_B is not None

    def _vector(self, block: str) -> tuple:
        """(x, y) of the block's first slot: the upper eigenvector of
        [[delta, w], [w, -delta]] is prop. to (r + delta, w), which never
        vanishes for w != 0, hence a smooth gauge."""
        xy = self._built.get(block)
        if xy is None:
            if block == "A":
                delta, r, w = self.delta_A, self.half_gap_A, self.w_A
            else:
                delta, r, w = self.delta_B, self.half_gap_B, self.w_B
            if r is None:
                xy = (1.0, 0.0)
            else:
                lead = r + delta
                norm = np.sqrt(lead * lead + w * w)
                xy = (lead / norm, w / norm)
            self._built[block] = xy
        return xy

    @property
    def xA(self) -> np.ndarray | float:
        return self._vector("A")[0]

    @property
    def yA(self) -> np.ndarray | float:
        return self._vector("A")[1]

    @property
    def xB(self) -> np.ndarray | float:
        return self._vector("B")[0]

    @property
    def yB(self) -> np.ndarray | float:
        return self._vector("B")[1]

    @property
    def z(self) -> np.ndarray:
        z = self._built.get("z")
        if z is None:
            z = np.empty((2, 4, self.energies.shape[1]))
            for s, signs in enumerate(SLOT_SZ):
                sz = self.sz_A if s < 2 else self.sz_B
                for k, sign in enumerate(signs):
                    z[k, s] = sign * sz
            self._built["z"] = z
        return z


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

    def block(first: np.ndarray, second: np.ndarray, q: np.ndarray, mean: float, w: float) -> tuple:
        """Write the energies of the block's two slots into ``first`` and
        ``second``; return its delta row, <sigma_z> row and half gap."""
        delta = q
        delta *= -bp.c
        np.add(vb, mean, out=first)
        if abs(w) <= 1e-300:  # uncoupled: the bare states, crossing at q = 0
            np.subtract(first, delta, out=second)
            first += delta
            return delta, 1.0, None
        r = delta * delta
        r += w * w
        np.sqrt(r, out=r)
        np.subtract(first, r, out=second)
        first += r
        return delta, delta / r, r

    w_A, w_B = -(sp.jx - sp.jy), -(sp.jx + sp.jy)
    delta_A, sz_A, r_A = block(energies[0], energies[1], r1 + r2, -sp.jz, w_A)
    delta_B, sz_B, r_B = block(energies[2], energies[3], r1 - r2, sp.jz, w_B)
    return SlotFrames(
        energies=energies, sz_A=sz_A, sz_B=sz_B, delta_A=delta_A, delta_B=delta_B,
        w_A=w_A, w_B=w_B, half_gap_A=r_A, half_gap_B=r_B,
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


def slot_vectors(frames: SlotFrames) -> tuple:
    """Each slot's frame-vector components on its two ``SLOT_ROWS``:
    ((xA, yA), (-yA, xA), (xB, yB), (-yB, xB)), with an uncoupled block's
    scalar 1/0 components left scalar."""
    xa, ya, xb, yb = frames.xA, frames.yA, frames.xB, frames.yB
    return (xa, ya), (-ya, xa), (xb, yb), (-yb, xb)


def slot_coupling(bp: BathParams, frames: SlotFrames) -> dict[tuple[int, int], np.ndarray]:
    """Within-block derivative couplings, as {(slot_from, slot_to): (n, 2)}.

    Cross-block couplings vanish identically because dh/dR is diagonal.
    Only coupled blocks carry a channel.  dh/dR_k restricted to block A has
    the diagonal (-c, +c) for both k, so its coupling lies along (1, 1); in
    block B the diagonal of dh/dR_2 is that of dh/dR_1 negated, so its
    coupling lies along (1, -1).  Each block's row is computed once.
    """
    out: dict[tuple[int, int], np.ndarray] = {}
    for coupled, x, y, r, sign, pair in (
        (frames.coupled_A, frames.xA, frames.yA, frames.half_gap_A, 1.0, (0, 1)),
        (frames.coupled_B, frames.xB, frames.yB, frames.half_gap_B, -1.0, (2, 3)),
    ):
        if not coupled:
            continue
        row = -(x * y) * bp.c / r
        d = np.empty((row.size, 2))
        d[:, 0] = row
        d[:, 1] = sign * row
        out[pair] = d
        out[pair[::-1]] = -d
    return out

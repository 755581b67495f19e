"""Closed-form adiabatic frames of the ensemble engine, vectorized over
bath configurations.

The dressed Hamiltonian h(R) = H_spin + H_coupling(R) + V_bath(R) I of this
model couples only |ee><gg| and |eg><ge|, so it splits into two real
symmetric 2x2 blocks at every bath configuration.  Because each spin couples
to its own oscillator, each block depends on R only through one normal
coordinate, q = R1 + R2 for block A (|ee>, |gg>) and q = R1 - R2 for
block B (|eg>, |ge>):

    V_bath + mean + [[delta, w], [w, -delta]],    delta = -c q,

with mean = -jz, w = -(jx - jy) in block A and mean = +jz, w = -(jx + jy)
in block B.  The scalar V_bath shifts every slot energy alike and cancels
in every energy difference the engine reads (Bohr frequencies, hop gaps),
so the energies here are measured from it: ``slot_frames`` solves one block
in closed form on a batch of its coordinates q and returns its ``Block``.
A coupled block has the half gap r = sqrt(delta^2 + w^2), the slot energies
mean +- r and, in its upper slot, <sigma_z> = delta / r on the first spin;
an uncoupled block (w = 0) has the energies mean +- delta and
<sigma_z> = 1.  Slots are labeled per block, not by energy order, which
makes them continuous along any bath path (no relabeling at surface
crossings).  This module alone states the slot layout: block k holds slots
2k and 2k + 1, slot s's frame vector has the two components
``slot_vectors(blocks)[s]`` on the basis rows ``SLOT_ROWS[s]``, formed from
its block's upper vector (x, y) as ``SLOT_PARTS[s]`` states, and its
<sigma_z> on both spins follows from its block's ``sz`` row by the signs
``SLOT_SZ[s]``.

Only what every step reads is computed eagerly: delta and the half gap, from
which the engine forms its Bohr frequencies as mean differences plus signed
half gaps, and in nonadiabatic mode its hop amplitudes and jump gaps.  The
<sigma_z> row is built on first read, once per block, where the force, a
decay rate or an output reads it, and so is the <sigma_x> row w / r
(``sx``): each outer product of a block's two slots is linear in
(1, sz, sx), so the frame-vector components x, y are built only for
products across the blocks (``vector_at``), at set-up and in checks, and
the energies only where a check reads them.  The decay expectations and the
derivative coupling need no frame vector: ``slot_gamma_diag`` and
``slot_coupling`` state them in closed form.

The half gap is formed with one square root in a single n-long buffer, not
with ``np.hypot``, whose scalar libm call cost six times as much (0.44
against 0.07 ms for 49 152 points on a 2-vCPU Xeon).  It agrees with
``hypot`` to within one ulp while |delta| stays below about 1e154.  Beyond
that delta^2 overflows: r is inf, so the block's energies are +-inf and
its Bohr frequencies inf, its <sigma_z> and <sigma_x> rows read 0 (NaN
where delta itself overflowed, which then reaches the force of every
member in that configuration) and its frame vectors are not finite;
``nhqc run`` reports the resulting non-finite curve as an invariant
violation.

The generic eigensolver route (``nhqc.oracle.build_frame``) cross-checks
these frames in the test suite: it solves the two blocks of the dense h(R)
numerically, in the same slot order and gauge, so its energies, vectors and
couplings equal those of the oracle's view of both blocks at oscillator
coordinates R (``nhqc.oracle.frames_at``) slot by slot, with no matching
across crossings.  Acceptance criterion 4 checks their energies against the closed form
``nhqc.oracle.analytic_energies`` and their forces against finite
differences of those energies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import BathParams, DecayKind, DecaySpec, SpinChainParams

__all__ = [
    "SLOT_PARTS",
    "SLOT_ROWS",
    "SLOT_SZ",
    "Block",
    "block_constants",
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
# ways in a block-B state.  The spin-1 sign is also the sign of the slot's
# half gap in its energy: +1 for the upper slot 2k, -1 for the lower.
SLOT_SZ = ((1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0))


def block_constants(sp: SpinChainParams, k: int) -> tuple[float, float]:
    """Mean and off-diagonal element w of block k (0 = A, 1 = B)."""
    if k == 0:
        return -sp.jz, -(sp.jx - sp.jy)
    return sp.jz, -(sp.jx + sp.jy)


@dataclass(frozen=True)
class Block:
    """One block mean + [[delta, w], [w, -delta]] of the dressed Hamiltonian,
    less V_bath, solved at n configurations on the basis rows ``rows``."""

    rows: tuple[int, int]
    mean: float
    delta: np.ndarray  # (n,) -c q
    w: float  # off-diagonal element
    half_gap: np.ndarray | None  # (n,) half level splitting r; None when uncoupled

    @property
    def upper(self) -> np.ndarray:
        """The upper slot's energy above the block mean, shape (n,): the half
        gap, or delta when uncoupled; the lower slot's lies as far below."""
        return self.delta if self.half_gap is None else self.half_gap

    @cached_property
    def energies(self) -> np.ndarray:
        """Energies of the upper and the lower slot, shape (2, n), measured
        from V_bath, built on first read and then kept."""
        out = np.empty((2, self.delta.size))
        np.add(self.mean, self.upper, out=out[0])
        np.subtract(self.mean, self.upper, out=out[1])
        return out

    @cached_property
    def sz(self) -> np.ndarray | float:
        """Spin 1's <sigma_z> in the upper slot, delta / r, or 1.0 when
        uncoupled; built on first read and then kept."""
        return 1.0 if self.half_gap is None else self.delta / self.half_gap

    @cached_property
    def sx(self) -> np.ndarray | float:
        """The upper slot's <sigma_x> in the block's basis, w / r, or 0.0 when
        uncoupled; built on first read and then kept."""
        return 0.0 if self.half_gap is None else self.w / self.half_gap

    @cached_property
    def vector(self) -> tuple:
        """``vector_at`` every configuration, built on first read and then kept."""
        return self.vector_at(slice(None))

    def vector_at(self, configs: slice) -> tuple:
        """(x, y) of the upper slot on ``rows`` at the configurations
        ``configs``, fresh arrays; the lower slot is (-y, x).  The upper
        eigenvector is prop. to (r + delta, w), which never vanishes for
        w != 0, hence a smooth gauge.  Where delta < 0, r + delta cancels, so
        there it is formed as the same direction (|w|, sign(w) (r + |delta|)),
        since (r + delta)(r - delta) = w^2: x^2 = (1 + sz) / 2,
        y^2 = (1 - sz) / 2 and x y = sx / 2 then hold within a few ulps at
        any |delta| / |w|.  An uncoupled block keeps the bare states, scalars
        1 and 0."""
        if self.half_gap is None:
            return 1.0, 0.0
        delta = self.delta[configs]
        t = np.abs(delta) + self.half_gap[configs]
        below = delta < 0
        lead, tail = np.where(below, abs(self.w), t), np.where(below, np.copysign(t, self.w), self.w)
        norm = np.sqrt(lead * lead + tail * tail)
        return lead / norm, tail / norm


def slot_frames(sp: SpinChainParams, bp: BathParams, k: int, q: np.ndarray) -> Block:
    """Closed-form frames of block k (0 = A, 1 = B) at its normal
    coordinates q, shape (n,): R1 + R2 for block A, R1 - R2 for block B.

    An uncoupled block (w = 0) keeps the bare basis states, crossing at
    q = 0; its half gap is not needed and stays None.
    """
    mean, w = block_constants(sp, k)
    delta = q * -bp.c
    if abs(w) <= 1e-300:
        return Block(SLOT_ROWS[2 * k], mean, delta, w, None)
    r = delta * delta
    r += w * w
    np.sqrt(r, out=r)
    return Block(SLOT_ROWS[2 * k], mean, delta, w, r)


def slot_gamma_diag(decay: DecaySpec) -> tuple[np.ndarray, np.ndarray]:
    """Each slot's diagonal decay expectation u_s^T Gamma u_s in closed form,
    as a constant plus a coefficient times block A's upper-slot <sigma_z>
    sz_A (``Block.sz``): two rows of shape (4,), in slot order.

    The identity gives every slot gamma.  The projector on |ee> gives a slot
    gamma times its |ee> weight: x^2 = (1 + sz_A) / 2 in block A's upper
    slot and y^2 = (1 - sz_A) / 2 in its lower slot, since x^2 + y^2 = 1
    and x^2 - y^2 = delta / r, and 0 in block B, which does not span |ee>.

    The same rows give the operator's only off-diagonal element between
    slots, block A's u_0^T Gamma u_1 = -slope_0 w / r (the projector's
    gamma x (-y), with 2 x y = w / r; 0 for the identity), which the hop
    stage reads as its decay amplitude.  Block B's is 0 for both operators,
    and a coupled block's two slots share one constant rate, so a transition
    within it never changes a member's constant rates.
    """
    g = decay.strength
    if decay.kind is DecayKind.IDENTITY_UNIFORM:
        return np.full(4, g), np.zeros(4)
    return np.array([0.5 * g, 0.5 * g, 0.0, 0.0]), np.array([0.5 * g, -0.5 * g, 0.0, 0.0])


def slot_vectors(blocks: tuple) -> tuple:
    """Each slot's frame-vector components on its two ``SLOT_ROWS``:
    ((xA, yA), (-yA, xA), (xB, yB), (-yB, xB)) from the pair of blocks
    (A, B), with an uncoupled block's scalar 1/0 components left scalar; a
    block given as None (solved nowhere) gives None for its two slots."""
    comps = []
    for s, parts in enumerate(SLOT_PARTS):
        block = blocks[s // 2]
        if block is None:
            comps.append(None)
            continue
        xy = block.vector
        comps.append(tuple(xy[i] if sign > 0 else -xy[i] for sign, i in parts))
    return tuple(comps)


def slot_coupling(bp: BathParams, block: Block) -> np.ndarray:
    """Derivative coupling of a coupled block from its upper slot to its
    lower one, along the block's normal coordinate, shape (n,); the reverse
    channel is its negative.

    Cross-block couplings vanish identically because dh/dR is diagonal.
    dh/dR_k restricted to a block is -c times spin k's sigma_z there, and
    spin 2's equals spin 1's times the block's spin-2 sign in ``SLOT_SZ``
    (+1 in block A, -1 in block B), so the coupling in oscillator space is
    this row times (1, 1) in block A and (1, -1) in block B, and its dot
    product with the velocity is this row times p / M for the block's
    normal momentum p = P1 +- P2.  On the upper vector (x, y) the row is
    -c x y / r = -c w / (2 r^2), since 2 x y = w / r: no frame vector.
    """
    r = block.half_gap
    return (-0.5 * bp.c * block.w) / (r * r)

"""Independent references that cross-check the ensemble engine.

* The bath-decoupled limit (dense-matrix RK4) and the two closed-form trace
  laws, exact answers in the regimes where they exist.
* The generic eigensolver route: ``build_frame`` diagonalizes the two 2x2
  blocks of the dense dressed Hamiltonian on ``SLOT_ROWS`` numerically
  (LAPACK), after checking that nothing lies outside them, and returns the
  levels in slot order and the engine's gauge; Hellmann-Feynman forces,
  derivative couplings and decay matrices follow from its frames.
* ``decay_matrix``, the dense decay operator Gamma, which the engine never
  builds (it reads the closed form ``slot_gamma_diag``), for the RK4 route,
  the eigensolver route and the tests; and ``transition_channels``, which
  nonadiabatic transitions can be nonzero for a pair of blocks, in the hop
  stage's order, stated from the frames' coupling and Gamma's entries.
* ``frames_at``, the engine's closed-form blocks solved together at
  oscillator coordinates R (block A on R1 + R2, block B on R1 - R2) with
  V_bath added back: the (4, n) slot energies and (n, 2) derivative
  couplings of the oscillator-space picture the eigensolver route works in.
  ``frame_matrices`` and ``slot_sigma_z`` write a pair of blocks out as
  dense 4x4 column matrices and as every slot's <sigma_z> on both spins.
* ``dense_sample_matrices``, the per-sample reduction of an ensemble
  snapshot as one dense sum over every member's four slot-component terms,
  X + X^dagger folded onto the upper triangle in a plain loop: the
  reference for ``EnsembleSnapshot.sample_matrices``, which forms only the
  live upper-triangle rows from its plan and shared products.  It reads the
  slot layout (``SLOT_ROWS``, ``slot_vectors``) from ``nhqc.adiabatic`` and
  each column's factor from ``nhqc.propagator.member_factor`` as the engine
  does, so it checks the reduction's arithmetic, not the frames or the
  factor; the factor is checked against numpy's complex exp on its own.
* ``sstp_step``, the single-member short-time step on that route: a plain
  restatement of the engine's adiabatic step (the SSTP scheme of Mac Kernan,
  Ciccotti and Kapral, JCP 116, 2346 (2002)).  It is adiabatic only; the
  rule of the engine's nonadiabatic transition stage is stated once, in
  ``nhqc.propagator``.

Apart from the slot layout (which ``build_frame`` reads too), the member
factor and the block solve that ``frames_at`` wraps (it is what the
eigensolver route checks), nothing here shares code with the ensemble
engine, which runs on the closed-form block frames of ``nhqc.adiabatic`` in
normal coordinates; ``oscillator_couplings`` forms the derivative couplings
from the frame vectors, not from the engine's ``slot_coupling``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .adiabatic import SLOT_ROWS, SLOT_SZ, Block, slot_frames, slot_vectors
from .model import (
    SZ1_DIAG,
    SZ2_DIAG,
    BathParams,
    DecayKind,
    DecaySpec,
    SpinChainParams,
    bath_potential,
    coupling_hamiltonian,
    subsystem_hamiltonian,
)
from .propagator import EnsembleSnapshot, member_factor

__all__ = [
    "DEGENERACY_TOL",
    "AdiabaticFrame",
    "DegeneratePairError",
    "PairTrajectory",
    "PhasePoint",
    "QuantumState",
    "SlotFrames",
    "analytic_energies",
    "build_frame",
    "classical_step",
    "decay_matrix",
    "dense_sample_matrices",
    "dressed_hamiltonian",
    "frame_matrices",
    "frames_at",
    "gamma_in_adiabatic",
    "hamiltonian_gradient",
    "hellmann_feynman_force",
    "nonadiabatic_coupling",
    "oscillator_couplings",
    "rk4_step",
    "solve_quantum",
    "slot_sigma_z",
    "sstp_step",
    "trace_law_identity",
    "trace_law_projector",
    "transition_channels",
]

DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class QuantumState:
    """Dense 4x4 density matrix at time t."""

    rho: np.ndarray
    t: float = 0.0


def _rhs(rho: np.ndarray, h: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    # d rho/dt = -i [H, rho] - {Gamma, rho}   (hbar = 1)
    return -1j * (h @ rho - rho @ h) - (gamma @ rho + rho @ gamma)


def rk4_step(state: QuantumState, h: np.ndarray, gamma: np.ndarray, dt: float) -> QuantumState:
    """Classic fourth-order step of the non-unitary von Neumann equation."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    rho = np.asarray(state.rho, dtype=complex)
    k1 = _rhs(rho, h, gamma)
    k2 = _rhs(rho + 0.5 * dt * k1, h, gamma)
    k3 = _rhs(rho + 0.5 * dt * k2, h, gamma)
    k4 = _rhs(rho + dt * k3, h, gamma)
    return QuantumState(rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), state.t + dt)


def solve_quantum(rho0: np.ndarray, h: np.ndarray, gamma: np.ndarray, dt: float, n_steps: int) -> list[QuantumState]:
    """Integrate n_steps and return the state after every step (t=0 included)."""
    states = [QuantumState(np.asarray(rho0, dtype=complex), 0.0)]
    for _ in range(n_steps):
        states.append(rk4_step(states[-1], h, gamma, dt))
    return states


def trace_law_identity(gamma1: float, t: float) -> float:
    """Trace of a unit-trace state under uniform decay: exp(-2 gamma1 t).

    Exact for any Hamiltonian and any bath coupling, because a uniform decay
    operator commutes with everything.
    """
    return float(np.exp(-2.0 * gamma1 * t))


def trace_law_projector(gamma2: float, t: float, p_ee0: float) -> float:
    """Trace under the doubly-excited-state drain, adiabatic dynamics.

    The |ee> population p_ee0 decays at rate 2*gamma2 while the rest is
    conserved; exact for this model because |ee> is an adiabatic state at
    every bath configuration and the decay operator has no off-diagonal
    part in the adiabatic basis.
    """
    if not 0.0 <= p_ee0 <= 1.0:
        raise ValueError("p_ee0 must be in [0, 1]")
    return float((1.0 - p_ee0) + p_ee0 * np.exp(-2.0 * gamma2 * t))


# ---------------------------------------------------------------------------
# Generic eigensolver route (one configuration at a time).
# ---------------------------------------------------------------------------

class DegeneratePairError(Exception):
    """Raised when a nonadiabatic coupling is requested across a degeneracy."""


@dataclass(frozen=True)
class AdiabaticFrame:
    """Eigen-decomposition of the dressed subsystem Hamiltonian at fixed R.

    ``energies`` (V_bath included) and the columns of ``vectors`` are in
    slot order: column alpha is slot alpha's state |alpha;R> in the
    subsystem basis.
    """

    R_at: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray


def dressed_hamiltonian(sp: SpinChainParams, bp: BathParams, R: np.ndarray) -> np.ndarray:
    """h(R): subsystem plus coupling plus the scalar bath potential."""
    R = np.asarray(R, dtype=float)
    return (
        subsystem_hamiltonian(sp)
        + coupling_hamiltonian(bp, R)
        + bath_potential(bp, R) * np.eye(4)
    )


def hamiltonian_gradient(bp: BathParams, R: np.ndarray) -> np.ndarray:
    """dh/dR_k, analytic: diagonal -c sz^(k) + M omega^2 R_k I, shape (2, 4, 4)."""
    R = np.asarray(R, dtype=float)
    grad = np.zeros((2, 4, 4), dtype=complex)
    restore = bp.mass * bp.omega**2
    grad[0] = np.diag(-bp.c * SZ1_DIAG + restore * R[0])
    grad[1] = np.diag(-bp.c * SZ2_DIAG + restore * R[1])
    return grad


def build_frame(sp: SpinChainParams, bp: BathParams, R: np.ndarray) -> AdiabaticFrame:
    """Diagonalize h(R) block by block, in slot order and the engine's gauge.

    Each 2x2 block of h(R) on ``SLOT_ROWS`` goes to ``np.linalg.eigh``; a
    nonzero entry outside the two blocks is a ``ValueError``.  A block with
    a nonzero off-diagonal element puts its higher level in the upper slot;
    a diagonal block keeps its basis states, the first in the upper slot.
    Each vector is made real positive on its own row (the block's first row
    for the upper slot, its second for the lower).
    """
    R = np.asarray(R, dtype=float)
    h = dressed_hamiltonian(sp, bp, R)
    if not np.all(np.isfinite(h)):
        raise ValueError("non-finite Hamiltonian; cannot diagonalize")
    energies = np.empty(4)
    vectors = np.zeros((4, 4), dtype=complex)
    outside = np.ones((4, 4), dtype=bool)
    for k in range(2):
        rows, slots = np.ix_(SLOT_ROWS[2 * k], SLOT_ROWS[2 * k]), [2 * k, 2 * k + 1]
        outside[rows] = False
        block = h[rows]
        if block[0, 1] == 0:
            e, v = np.real(np.diag(block)), np.eye(2, dtype=complex)
        else:
            e, v = np.linalg.eigh(block)
            e, v = e[::-1], v[:, ::-1]
        own = np.diag(v)
        energies[slots] = e
        vectors[rows[0], slots] = v * (np.conj(own) / np.abs(own))
    if np.any(h[outside] != 0):
        raise ValueError("h(R) has a nonzero entry outside its two slot blocks")
    return AdiabaticFrame(R_at=R, energies=energies, vectors=vectors)


def analytic_energies(sp: SpinChainParams, bp: BathParams, R: np.ndarray) -> np.ndarray:
    """Closed-form spectrum of h(R) for jx = jy, sorted ascending.

    In that regime |ee> and |gg> are exact eigenstates while |eg>, |ge> mix
    inside their own block; an independent oracle for both frame routes.
    """
    if sp.jx != sp.jy:
        raise ValueError("closed form stated for jx = jy only")
    R = np.asarray(R, dtype=float)
    vb = bath_potential(bp, R)
    total = bp.c * (R[0] + R[1])
    diff = bp.c * (R[0] - R[1])
    wb = -(sp.jx + sp.jy)
    gap = np.hypot(wb, diff)
    levels = np.array(
        [-sp.jz - total, -sp.jz + total, sp.jz - gap, sp.jz + gap]
    )
    return np.sort(levels + vb)


def hellmann_feynman_force(bp: BathParams, frame: AdiabaticFrame, alpha: int) -> np.ndarray:
    """Force on slot alpha: -<alpha| dh/dR |alpha>."""
    grad = hamiltonian_gradient(bp, frame.R_at)
    vec = frame.vectors[:, alpha]
    return -np.real(np.einsum("i,kij,j->k", vec.conj(), grad, vec))


def nonadiabatic_coupling(bp: BathParams, frame: AdiabaticFrame, alpha: int, beta: int) -> np.ndarray:
    """Derivative coupling d_ab = <a| dh/dR |b> / (E_b - E_a), length 2."""
    if alpha == beta:
        raise ValueError("coupling defined between distinct states")
    gap = frame.energies[beta] - frame.energies[alpha]
    if abs(gap) < DEGENERACY_TOL:
        raise DegeneratePairError(f"slots {alpha}, {beta} degenerate within {DEGENERACY_TOL}")
    grad = hamiltonian_gradient(bp, frame.R_at)
    element = np.einsum("i,kij,j->k", frame.vectors[:, alpha].conj(), grad, frame.vectors[:, beta])
    return element / gap


def decay_matrix(decay: DecaySpec) -> np.ndarray:
    """The decay operator as a dense complex 4x4 matrix Gamma: ``strength``
    times the identity, or times the projector on |ee>."""
    rows = range(4) if decay.kind is DecayKind.IDENTITY_UNIFORM else [0]
    gamma = np.zeros((4, 4), dtype=complex)
    gamma[rows, rows] = decay.strength
    return gamma


def gamma_in_adiabatic(decay: DecaySpec, frame: AdiabaticFrame) -> np.ndarray:
    """The decay operator in the frame, V^dagger Gamma V, shape (4, 4)."""
    return frame.vectors.conj().T @ decay_matrix(decay) @ frame.vectors


def transition_channels(decay: DecaySpec, blocks: tuple) -> list[tuple[str, int, str]]:
    """Every nonadiabatic transition (side, s, kind) that can be nonzero for
    a pair of blocks (A, B), in the order of the engine's hop stage, each
    from the side's label s to the other slot s ^ 1 of its block: each
    coupled block's derivative coupling, upper to lower slot, then back,
    ket before bra; then, in the same order, the decay channels of each
    coupled block on whose two basis rows Gamma (``decay_matrix``, diagonal
    for both operators) has unequal entries.  There the slots' off-diagonal
    element u_upper^T Gamma u_lower = x y (Gamma_jj - Gamma_ii), with
    2 x y = w / r != 0, is nonzero at every configuration: only the
    projector at gamma != 0, in block A when it is coupled."""
    coupled = [s for s in range(4) if blocks[s // 2].half_gap is not None]
    gamma = np.diag(decay_matrix(decay)).real
    kinds = {"coupling": coupled, "decay": [s for s in coupled if gamma[SLOT_ROWS[s][0]] != gamma[SLOT_ROWS[s][1]]]}
    return [(side, s, kind) for kind, slots in kinds.items() for s in slots for side in ("ket", "bra")]


@dataclass(frozen=True)
class SlotFrames:
    """Both closed-form blocks at n oscillator configurations R, in the
    oscillator-space picture: ``energies`` (4, n) are the slot energies with
    V_bath(R) added back, ``couplings`` the within-block derivative
    couplings {(slot_from, slot_to): (n, 2)} of the coupled blocks, each
    block's scalar row along (1, 1) in block A and (1, -1) in block B."""

    energies: np.ndarray
    blocks: tuple[Block, Block]
    couplings: dict


def frames_at(sp: SpinChainParams, bp: BathParams, R: np.ndarray) -> SlotFrames:
    """Solve both blocks at configurations R of shape (2, n), one row per
    oscillator, and add V_bath back to their energies."""
    r1, r2 = np.asarray(R, dtype=float)
    blocks = (slot_frames(sp, bp, 0, r1 + r2), slot_frames(sp, bp, 1, r1 - r2))
    v_bath = 0.5 * bp.mass * bp.omega**2 * (r1 * r1 + r2 * r2)
    energies = np.concatenate([block.energies for block in blocks]) + v_bath
    return SlotFrames(energies, blocks, oscillator_couplings(bp, blocks))


def oscillator_couplings(bp: BathParams, blocks: tuple) -> dict:
    """The within-block derivative couplings of a pair of blocks in
    oscillator space, {(slot_from, slot_to): (n, 2)}: each coupled block's
    scalar row -c x y / r, on its upper vector (x, y), times (1, 1) in
    block A and (1, -1) in block B."""
    couplings = {}
    for k, block in enumerate(blocks):
        if block.half_gap is None:
            continue
        x, y = block.vector
        row = -(x * y) * bp.c / block.half_gap
        d = np.stack([row, SLOT_SZ[2 * k][1] * row], axis=1)
        couplings[2 * k, 2 * k + 1] = d
        couplings[2 * k + 1, 2 * k] = -d
    return couplings


def frame_matrices(blocks: tuple[Block, Block]) -> np.ndarray:
    """A pair of closed-form blocks (A, B) at the same n configurations as
    dense matrices, shape (n, 4, 4): column s is slot s's frame vector in
    the subsystem basis (block k's slots 2k and 2k + 1 on its two rows), the
    second slot of a block being (-y, x)."""
    u = np.zeros((blocks[0].delta.size, 4, 4))
    for k, block in enumerate(blocks):
        (i, j), (x, y) = block.rows, block.vector
        u[:, i, 2 * k] = x
        u[:, j, 2 * k] = y
        u[:, i, 2 * k + 1] = -y
        u[:, j, 2 * k + 1] = x
    return u


def slot_sigma_z(blocks: tuple[Block, Block]) -> np.ndarray:
    """Each slot's <sigma_z> on both spins for a pair of blocks (A, B) at the
    same n configurations, shape (2, 4, n): z[k, s] is slot s's <sigma_z>
    of spin k + 1.  A block's upper slot has its ``sz`` row times the
    <sigma_z> of the block's first basis state, the lower slot the negative
    (the second basis state flips both spins)."""
    z = np.empty((2, 4, blocks[0].delta.size))
    for b, block in enumerate(blocks):
        for k, diag in enumerate((SZ1_DIAG, SZ2_DIAG)):
            sign = diag[block.rows[0]]
            z[k, 2 * b] = sign * block.sz
            z[k, 2 * b + 1] = -sign * block.sz
    return z


def dense_sample_matrices(snapshot: EnsembleSnapshot) -> np.ndarray:
    """Per-sample density matrices of a snapshot, shape (n_samples, 4, 4).

    Each sample's matrix is X + X^dagger, X being the sum over its members
    of the factor weight * exp(-i phase - decay), formed by the engine's own
    ``member_factor`` (so this checks the sum, not the factor), times
    u_a[p] * u_b[q] at entry (row p of slot a, row q of slot b).  The sum
    runs one member column at a time and in (p, q) order, into zeroed rows,
    and folds onto the upper triangle: a term at (r, c) with r > c adds its
    conjugate at (c, r).  A diagonal entry then becomes 2 Re of its sum and
    each lower entry the conjugate of its upper one.  A column whose members
    hold several labels is split into one piece per label some member
    holds, zero elsewhere, and a term whose two components are both scalars
    is dropped where their product is 0.  What this checks on its own:
    which entries each pair reaches, the pieces, the signs, the products and
    the fold, against the engine's plan of (1, sz, sx) forms; the two sums
    round differently and agree to a few ulps of each sample's sum of |f|.
    """
    n = snapshot.n_samples
    weight, phase = (v.reshape(-1, n) for v in (snapshot.weight, snapshot.phase))
    codes = (snapshot.alpha * 4 + snapshot.alpha_prime).reshape(-1, n)
    # each slot's components as rows of the member columns its block is
    # solved on; column k reads row k less the first of those columns
    slots = [
        None if comp is None else [c.reshape(-1, n) if np.ndim(c) else c for c in comp]
        for comp in slot_vectors(snapshot.blocks)
    ]
    offset = [columns.start for columns in snapshot.block_columns]
    out = np.zeros((4, 4, n), dtype=complex)
    for k in range(codes.shape[0]):
        comps = [
            None
            if slot is None or k not in snapshot.block_columns[s // 2]
            else [c[k - offset[s // 2]] if np.ndim(c) else c for c in slot]
            for s, slot in enumerate(slots)
        ]
        factor = member_factor(weight[k], phase[k], snapshot.decay[k])
        first = int(codes[k, 0])
        if np.all(codes[k] == first):
            pieces = [(first, factor)]
        else:
            pieces = [(int(c), np.where(codes[k] == c, factor, 0.0)) for c in np.unique(codes[k])]
        for code, f in pieces:
            a, b = divmod(code, 4)
            for p, q in ((0, 0), (0, 1), (1, 0), (1, 1)):
                coef = comps[a][p] * comps[b][q]
                if np.ndim(coef) == 0 and coef == 0.0:
                    continue
                row, col = SLOT_ROWS[a][p], SLOT_ROWS[b][q]
                if row <= col:
                    out[row, col] += f * coef
                else:
                    out[col, row] += np.conj(f * coef)
    for row in range(4):
        out[row, row] = 2.0 * out[row, row].real
        for col in range(row):
            out[row, col] = np.conj(out[col, row])
    return out.transpose(2, 0, 1).copy()


# ---------------------------------------------------------------------------
# Single-member reference step on the eigensolver route.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhasePoint:
    """Classical bath state X = (R, P)."""

    R: np.ndarray
    P: np.ndarray

    def __post_init__(self) -> None:
        r = np.atleast_1d(np.asarray(self.R, dtype=float))
        p = np.atleast_1d(np.asarray(self.P, dtype=float))
        if r.shape != p.shape:
            raise ValueError("R and P must have the same length")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(p))):
            raise ValueError("R and P must be finite")
        object.__setattr__(self, "R", r)
        object.__setattr__(self, "P", p)


@dataclass
class PairTrajectory:
    """One (alpha, alpha') density-matrix element riding a classical trajectory.

    ``phase`` and ``decay`` are the accumulated frequency and damping
    integrals; ``weight`` is the initial adiabatic-basis element.
    """

    alpha: int
    alpha_prime: int
    point: PhasePoint
    phase: float = 0.0
    decay: float = 0.0
    weight: complex = 0.0 + 0.0j


def classical_step(point: PhasePoint, force_pair, bp: BathParams, dt: float, force_fn=None) -> PhasePoint:
    """One velocity-Verlet step on the mean of two adiabatic surfaces.

    ``force_pair`` holds the two surface forces at the current position; the
    closing half-kick re-evaluates the mean force at the new position via
    ``force_fn(R)`` when given (a constant-force leapfrog otherwise).
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    f0 = 0.5 * (np.asarray(force_pair[0], dtype=float) + np.asarray(force_pair[1], dtype=float))
    p_half = point.P + 0.5 * dt * f0
    r_new = point.R + dt * p_half / bp.mass
    f1 = f0 if force_fn is None else np.asarray(force_fn(r_new), dtype=float)
    return PhasePoint(R=r_new, P=p_half + 0.5 * dt * f1)


def sstp_step(
    member: PairTrajectory,
    frame: AdiabaticFrame,
    sp: SpinChainParams,
    bp: BathParams,
    decay: DecaySpec,
    dt: float,
) -> tuple[PairTrajectory, AdiabaticFrame]:
    """Advance one member one adiabatic step on the generic eigensolver route.

    Reference implementation of the engine's adiabatic step: velocity Verlet
    on the mean surface, trapezoidal phase and decay accumulation over the
    endpoint frames.  The member keeps its slot labels, which run on through
    every crossing.  The nonadiabatic transition stage has no restatement
    here.
    """
    pair = [member.alpha, member.alpha_prime]
    frames = [frame]

    def forces(f: AdiabaticFrame) -> list:
        return [hellmann_feynman_force(bp, f, a) for a in pair]

    def mean_force(r_new):
        frames.append(build_frame(sp, bp, r_new))
        f_a, f_b = forces(frames[1])
        return 0.5 * (f_a + f_b)

    point = classical_step(member.point, forces(frame), bp, dt, mean_force)
    omega = [f.energies[pair[0]] - f.energies[pair[1]] for f in frames]
    gamma = [np.sum(np.real(np.diag(gamma_in_adiabatic(decay, f)))[pair]) for f in frames]
    out = replace(
        member,
        point=point,
        phase=member.phase + 0.5 * dt * (omega[0] + omega[1]),
        decay=member.decay + 0.5 * dt * (gamma[0] + gamma[1]),
    )
    return out, frames[1]

"""Independent references that cross-check the ensemble engine.

* The bath-decoupled limit (dense-matrix RK4) and the two closed-form trace
  laws, exact answers in the regimes where they exist.
* The generic eigensolver route: ``build_frame`` diagonalizes the full 4x4
  dressed Hamiltonian numerically (LAPACK), sorts energies ascending and
  fixes the eigenvector gauge; Hellmann-Feynman forces, derivative
  couplings and decay matrices follow from its frames.
* ``frames_at``, the engine's closed-form blocks solved together at
  oscillator coordinates R (block A on R1 + R2, block B on R1 - R2) with
  V_bath added back: the (4, n) slot energies and (n, 2) derivative
  couplings of the oscillator-space picture the eigensolver route works in.
  ``frame_matrices`` and ``slot_sigma_z`` write a pair of blocks out as
  dense 4x4 column matrices and as every slot's <sigma_z> on both spins.
* ``dense_sample_matrices``, the per-sample reduction of an ensemble
  snapshot as one dense sum over every member's four slot-component terms,
  the reference for ``EnsembleSnapshot.sample_matrices``, which forms only
  the live element rows from shared products.  It reads the slot layout
  (``SLOT_ROWS``, ``slot_vectors``) from ``nhqc.adiabatic`` and each
  column's factor from ``nhqc.propagator.member_factor`` as the engine
  does, so it checks the reduction's arithmetic, not the frames or the
  factor; the factor is checked against numpy's complex exp on its own.
* ``sstp_step``, the single-member short-time step on that route: a plain
  restatement of the engine's adiabatic step (the SSTP scheme of Mac Kernan,
  Ciccotti and Kapral, JCP 116, 2346 (2002)).  It is adiabatic only; the
  engine's nonadiabatic transition stage is stated once, in
  ``nhqc.propagator``.

Apart from that slot layout, the member factor and the block solve that
``frames_at`` wraps (it is what the eigensolver route checks), nothing here
shares code with
the ensemble engine, which runs on the closed-form block frames of
``nhqc.adiabatic`` in normal coordinates and reads them only as each
slot's two components.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .adiabatic import SLOT_ROWS, SLOT_SZ, Block, slot_coupling, slot_frames, slot_vectors
from .model import (
    SZ1_DIAG,
    SZ2_DIAG,
    BathParams,
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
    "DegeneratePairWarning",
    "GammaAdiabatic",
    "PairTrajectory",
    "PhasePoint",
    "QuantumState",
    "SlotFrames",
    "analytic_energies",
    "build_frame",
    "classical_step",
    "dense_sample_matrices",
    "dressed_hamiltonian",
    "frame_matrices",
    "frames_at",
    "frame_permutation",
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


class DegeneratePairWarning(UserWarning):
    """Emitted when a Hellmann-Feynman force touches a degenerate level."""


@dataclass(frozen=True)
class AdiabaticFrame:
    """Eigen-decomposition of the dressed subsystem Hamiltonian at fixed R.

    ``energies`` are ascending (stable tie order); column alpha of ``vectors``
    is the adiabatic state |alpha;R> expressed in the subsystem basis.
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


def _resolve_degeneracies(energies: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate eigenvectors inside degenerate groups onto the coupling axes.

    Within each group the vectors are chosen to diagonalize the projection of
    sz^(1) (then sz^(2) for any remaining tie), ordered by descending
    expectation value.  For this model that yields exactly |ee>, |gg> at the
    crossing of block A.
    """
    i = 0
    while i < 4:
        j = i + 1
        while j < 4 and energies[j] - energies[i] < DEGENERACY_TOL:
            j += 1
        if j - i > 1:
            sub = vectors[:, i:j]
            # tiny symmetry-breaking sz2 admixture resolves ties deterministically
            op = np.diag(SZ1_DIAG + 1e-4 * SZ2_DIAG).astype(complex)
            proj = sub.conj().T @ op @ sub
            vals, rot = np.linalg.eigh(proj)
            order = np.argsort(vals)[::-1]
            vectors[:, i:j] = sub @ rot[:, order]
        i = j
    return energies, vectors


def _canonical_gauge(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column real positive."""
    lead = np.argmax(np.abs(vectors), axis=0)
    for col in range(vectors.shape[1]):
        pivot = vectors[lead[col], col]
        if abs(pivot) > 0:
            vectors[:, col] *= np.conj(pivot) / abs(pivot)
    return vectors


def build_frame(
    sp: SpinChainParams,
    bp: BathParams,
    R: np.ndarray,
    previous: AdiabaticFrame | None = None,
) -> AdiabaticFrame:
    """Diagonalize h(R); energies ascending, gauge fixed, optionally phase-
    aligned against a previous frame for continuity along a trajectory.

    With ``previous`` given, each column is phase-rotated so its overlap with
    the same column of the previous frame is real positive; columns whose
    same-index overlap is small (a surface crossing happened in between) keep
    the canonical gauge, and ``frame_permutation`` recovers the relabeling.
    """
    R = np.asarray(R, dtype=float)
    h = dressed_hamiltonian(sp, bp, R)
    if not np.all(np.isfinite(h)):
        raise ValueError("non-finite Hamiltonian; cannot diagonalize")
    energies, vectors = np.linalg.eigh(h)
    energies, vectors = _resolve_degeneracies(energies, vectors)
    vectors = _canonical_gauge(vectors)
    if previous is not None:
        overlaps = np.einsum("ia,ia->a", previous.vectors.conj(), vectors)
        for col in range(4):
            if abs(overlaps[col]) > 0.1:
                vectors[:, col] *= np.conj(overlaps[col]) / abs(overlaps[col])
    return AdiabaticFrame(R_at=R, energies=energies, vectors=vectors)


def frame_permutation(previous: AdiabaticFrame, current: AdiabaticFrame) -> np.ndarray:
    """Column of ``current`` continuing each labeled state of ``previous``.

    Returns perm with perm[i] = j such that |<i;R_prev | j;R_now>| is maximal.
    Raises if the assignment is not a bijection (frames too far apart).
    """
    overlap = np.abs(previous.vectors.conj().T @ current.vectors)
    perm = np.argmax(overlap, axis=1)
    if len(set(perm.tolist())) != 4:
        raise ValueError("frames too far apart to track state labels")
    return perm


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


def hellmann_feynman_force(
    sp: SpinChainParams, bp: BathParams, frame: AdiabaticFrame, alpha: int
) -> np.ndarray:
    """Force on surface alpha: -<alpha| dh/dR |alpha>.

    Warns (but still answers) when alpha sits within DEGENERACY_TOL of
    another level, where the adiabatic surface is not differentiable in
    general.
    """
    gaps = np.abs(frame.energies - frame.energies[alpha])
    gaps[alpha] = np.inf
    if np.min(gaps) < DEGENERACY_TOL:
        warnings.warn(
            f"force on level {alpha} within {DEGENERACY_TOL} of a degeneracy",
            DegeneratePairWarning,
            stacklevel=2,
        )
    grad = hamiltonian_gradient(bp, frame.R_at)
    vec = frame.vectors[:, alpha]
    return -np.real(np.einsum("i,kij,j->k", vec.conj(), grad, vec))


def _coupling_vector(bp: BathParams, frame: AdiabaticFrame, alpha: int, beta: int) -> np.ndarray:
    gap = frame.energies[beta] - frame.energies[alpha]
    if abs(gap) < DEGENERACY_TOL:
        raise DegeneratePairError(
            f"levels {alpha}, {beta} degenerate within {DEGENERACY_TOL}"
        )
    grad = hamiltonian_gradient(bp, frame.R_at)
    element = np.einsum("i,kij,j->k", frame.vectors[:, alpha].conj(), grad, frame.vectors[:, beta])
    return element / gap


def nonadiabatic_coupling(
    sp: SpinChainParams, bp: BathParams, frame: AdiabaticFrame, alpha: int, beta: int
) -> np.ndarray:
    """Derivative coupling d_ab = <a| dh/dR |b> / (E_b - E_a), length 2."""
    if alpha == beta:
        raise ValueError("coupling defined between distinct states")
    return _coupling_vector(bp, frame, alpha, beta)


@dataclass(frozen=True)
class GammaAdiabatic:
    """Decay operator in the adiabatic basis, split diagonal/off-diagonal."""

    full: np.ndarray
    diag: np.ndarray
    offdiag: np.ndarray


def gamma_in_adiabatic(decay: DecaySpec, frame: AdiabaticFrame) -> GammaAdiabatic:
    """Rotate the decay operator into the frame and split it."""
    full = frame.vectors.conj().T @ decay.matrix @ frame.vectors
    diag = np.real(np.diag(full)).copy()
    offdiag = full - np.diag(np.diag(full))
    return GammaAdiabatic(full=full, diag=diag, offdiag=offdiag)


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
    scalar row times (1, 1) in block A and (1, -1) in block B."""
    couplings = {}
    for k, block in enumerate(blocks):
        if block.half_gap is None:
            continue
        row = slot_coupling(bp, block)
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

    Every member adds its factor weight * exp(-i phase - decay), formed by
    the engine's own ``member_factor`` (so this checks the sum, not the
    factor), times u_a[p] * u_b[q] to entry (row p of slot a, row q of slot
    b) of its sample's matrix, one member column at a time and in (p, q)
    order, into zeroed rows; a column whose members hold several labels is
    split into one piece per label some member holds, zero elsewhere.  The
    members of a mirrored column (every column in nonadiabatic mode) then
    add the conjugate of every term at the transposed entry, in the same
    order, so a sample whose columns are all mirrored gets X + X^dagger,
    Hermitian by construction.  A term whose two components are both
    scalars is dropped where their product is 0.  What this checks on its
    own: which entries each pair reaches, the pieces, the signs, the
    products and the order of every sum, against the engine's plan and
    shared products.
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
    out = np.zeros((16, n), dtype=complex)
    mirror_terms = []
    for k in range(codes.shape[0]):
        mirrored = snapshot.mirrored[k]
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
                val = f * coef
                out[row * 4 + col] += val
                if mirrored:
                    mirror_terms.append((col * 4 + row, val))
    for dest, val in mirror_terms:
        out[dest] += np.conj(val)
    return out.T.reshape(n, 4, 4)


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
    endpoint frames, and state labels tracked through crossings by frame
    overlap.  The nonadiabatic transition stage has no restatement here.
    """
    alpha, alpha_p = member.alpha, member.alpha_prime
    store: dict = {}

    def mean_force(r_new):
        nxt = build_frame(sp, bp, r_new, previous=frame)
        perm = frame_permutation(frame, nxt)
        store["frame"] = nxt
        store["perm"] = perm
        fa = hellmann_feynman_force(sp, bp, nxt, int(perm[alpha]))
        fb = hellmann_feynman_force(sp, bp, nxt, int(perm[alpha_p]))
        return 0.5 * (fa + fb)

    f_a = hellmann_feynman_force(sp, bp, frame, alpha)
    f_b = hellmann_feynman_force(sp, bp, frame, alpha_p)
    point = classical_step(member.point, (f_a, f_b), bp, dt, mean_force)
    nxt: AdiabaticFrame = store["frame"]
    a1 = int(store["perm"][alpha])
    b1 = int(store["perm"][alpha_p])

    gad0 = gamma_in_adiabatic(decay, frame)
    gad1 = gamma_in_adiabatic(decay, nxt)
    omega0 = frame.energies[alpha] - frame.energies[alpha_p]
    omega1 = nxt.energies[a1] - nxt.energies[b1]
    gamma0 = gad0.diag[alpha] + gad0.diag[alpha_p]
    gamma1 = gad1.diag[a1] + gad1.diag[b1]
    out = PairTrajectory(
        alpha=a1,
        alpha_prime=b1,
        point=point,
        phase=member.phase + 0.5 * dt * (omega0 + omega1),
        decay=member.decay + 0.5 * dt * (gamma0 + gamma1),
        weight=member.weight,
    )
    return out, nxt

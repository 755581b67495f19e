"""Sequential short-time propagation of the pair-trajectory ensemble.

Each starting bath point spawns one member per nonzero initial adiabatic
element (alpha, alpha') with alpha <= alpha', one per unordered pair.  Both
preparations are pure and real, so set-up forms each element as the product
a_alpha a_alpha' of the slot amplitudes a_s = <s; R|ket> of the preparation's
ket (``nhqc.sampler.initial_ket``), each from the slot's two frame-vector
components on its basis rows (``slot_vectors``).  A member advects
classically on the mean of its two adiabatic surfaces while accumulating
the frequency integral of its phase factor and the damping integral of its
decay factor (trapezoid over each step, consistent with the second-order
step splitting).  In nonadiabatic mode a single stochastic
transition per member per step is sampled from the derivative-coupling and
off-diagonal-decay channels, with importance reweighting and the
momentum-jump rule, so that a member's expected weight after the stage
follows the first-order transition operator 1 - dt J exactly (Mac Kernan,
Ciccotti and Kapral, JCP 116, 2346 (2002)).  The engine states that rule,
and which transitions exist in which order, only in
``EnsembleState._hop_stage`` and ``_momentum_jump``; every transition moves
a label to the other slot of its coupled block.  The tests read the
channels from ``nhqc.oracle.transition_channels``, stated independently.

``EnsembleState`` propagates all members of a run of samples at once on the
closed-form block frames of ``nhqc.adiabatic``.  Block A depends on the bath
only through the normal coordinate q_A = R1 + R2 and block B through
q_B = R1 - R2, and the bath Hamiltonian separates into the two normal
modes, so the engine's state is per-block rows: q_A with p_A = P1 + P2 and
q_B with p_B = P1 - P2.  The engine samples nothing: ``simulate`` draws each
chunk's thermal Wigner points (``nhqc.sampler``), starts an engine from
their rows and reduces it into a time series.

A member column (every sample's k-th pair) can hold every pair of the slots
its two labels reach, fixed at set-up: labels move only in nonadiabatic
mode, each within its block where that block is coupled.  Those pairs fix
the blocks a column stores (those of its labels), whether its phase moves
(some pair is off-diagonal) and the reduction's terms.  Columns are ordered
block-A-only, both, then block-B-only, so each block's rows are one
contiguous view.  Each stored row follows velocity Verlet on

    dp_k/dt = c n_k sz_k - M omega^2 q_k,    dq_k/dt = p_k / M,

with sz_k the block's upper-slot <sigma_z> and n_k the sum of the
``SLOT_SZ`` spin-1 signs of the member's labels in block k: a per-column
scalar in adiabatic mode, a per-member row in nonadiabatic mode, and the
same code broadcasts either.  The Bohr frequency E_a - E_b is the
difference of the labels' block means plus their signed half gaps, the
bath potential V_bath cancelling in it, so the engine never builds V_bath.
Its velocity-Verlet step evaluates the force once: the force (as the half
kick) is cached with each member's frequency, and these rows are rebuilt
after every drift, and by a hop stage for the members that hop.  The
adiabatic step restated for a single member on the generic eigensolver
route is ``nhqc.oracle.sstp_step``, its cross-check; the oracle has no
nonadiabatic counterpart.

The engine reads the decay operator only through ``slot_gamma_diag``, in
both modes.  A member decays at its two labels' rates, each a constant plus
a multiple of block A's <sigma_z> sz_A, both fixed per pair at set-up: a
step adds dt times the constant and, where the multiple is nonzero and
block A is coupled and stored, the trapezoid of the multiple on block A's
member columns.  The constant rates of a coupled block's two slots are
equal, so a hop never changes them: every member of a column adds the same
constant at every step, and where rates do not depend on R the engine
keeps one decay integral per column, shape (K, 1), in both modes, and
(K, n) otherwise.

Each output reduces the members to real coordinates of per-sample matrices
in a buffer the engine allocates once (``EnsembleSnapshot.sample_matrices``),
writing only the entries its members can reach.  A pair within one block
reduces from the block's rows sz, which the step's force has built, and
sx = w / r, in which each outer product of its slots is linear; only a pair
across the blocks reads frame-vector components.  It agrees with the dense
frame-vector sum ``nhqc.oracle.dense_sample_matrices`` to a few ulps.  Both
weight each member by ``member_factor``, w exp(-i phi - Lambda): one libm
exp per column where the decay integral is per column, and e^{-i phi} from
a table and short polynomials rather than numpy's complex exp, which calls
the scalar libm cosine and sine for every element.  The weights are real.
Both modes keep one Hermitian rule: every member's (alpha', alpha) partner
is implicit and a diagonal member starts at half its weight, so each
sample's matrix is X + X^dagger, of which only the upper triangle is
formed.
"""

from __future__ import annotations

import contextvars
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .adiabatic import (
    SLOT_PARTS,
    SLOT_ROWS,
    SLOT_SZ,
    Block,
    block_constants,
    slot_coupling,
    slot_frames,
    slot_gamma_diag,
    slot_vectors,
)
from .model import CONFIG_KEYS, BathParams, DecayKind, DecaySpec, SimConfig, SpinChainParams
from .observables import ElementRows, MomentAccumulator, TimeRecord, TimeSeries
from .sampler import CHUNK_SAMPLES, block_stream, initial_ket, sample_bath_point

__all__ = [
    "CHUNK_SAMPLES",
    "EnsembleSnapshot",
    "EnsembleState",
    "RunSummary",
    "member_factor",
    "simulate",
]

SPAWN_TOL = 1e-14
HOP_STREAM_TAG = 0x484F50  # distinguishes hop streams from sampling streams

# SLOT_SIGN[k, s]: slot s's spin-1 sign in ``SLOT_SZ`` if it lies in block
# k, else 0; it signs both the slot's <sigma_z> and its half gap
SLOT_SIGN = np.array([[sign if s // 2 == k else 0.0 for s, (sign, _) in enumerate(SLOT_SZ)] for k in range(2)])

# e^{-i phase} is read from a table at steps of 2 pi / 1024 (Tang, ACM TOMS
# 15, 144 (1989)).  The step is split in two (Cody and Waite): a high part
# of 25 significant bits, whose product with any integer |k| < 2^28 is exact,
# and the rest, which also carries 2 pi - fl(2 pi).  Beyond that range the
# reduction would round, so such a phase takes numpy's complex exp.
_TABLE_SIZE = 1024
_STEP_HI = math.floor(2 * math.pi / _TABLE_SIZE * 2.0**32) / 2.0**32
_STEP_LO = (2 * math.pi / _TABLE_SIZE - _STEP_HI) + 2.4492935982947064e-16 / _TABLE_SIZE
_PHASE_LIMIT = (2**28 - 1) * _STEP_HI


def _phasor_table() -> np.ndarray:
    """e^{-i theta_j} at theta_j = j 2 pi / 1024, each angle taken as the
    exact sum j * _STEP_HI + j * _STEP_LO and the libm cosine and sine of
    the first part corrected to second order in the second."""
    j = np.arange(_TABLE_SIZE)
    hi, lo = j * _STEP_HI, j * _STEP_LO
    cos, sin, half_lo2 = np.cos(hi), np.sin(hi), 0.5 * lo * lo
    return (cos - (cos * half_lo2 + sin * lo)) - 1j * (sin - (sin * half_lo2 - cos * lo))


_PHASORS = _phasor_table()


def _phasor(phase: np.ndarray) -> np.ndarray:
    """e^{-i phase} for finite |phase| <= _PHASE_LIMIT, a fresh array.

    phase = k 2 pi / 1024 + r with |r| <= pi / 1024; the table gives
    e^{-i k 2 pi / 1024} and the Taylor polynomials of degree 4 and 5 give
    1 - cos r and sin r, whose truncation errors are below 2e-18.  The
    rotation by e^{-i r} is applied as t - t (1 - cos r + i sin r), so that
    only the last subtraction rounds at the scale of t."""
    k = np.rint(phase * (_TABLE_SIZE / (2 * math.pi)))
    r = phase - k * _STEP_HI
    r -= k * _STEP_LO
    t = _PHASORS[k.astype(np.intp) & (_TABLE_SIZE - 1)]
    r2 = r * r
    z = np.empty(phase.shape, dtype=complex)
    np.multiply(r2, 0.5 - r2 * (1 / 24), out=z.real)
    np.multiply(r, 1.0 - r2 * (1 / 6 - r2 * (1 / 120)), out=z.imag)
    z *= t
    return np.subtract(t, z, out=t)


def member_factor(weight: np.ndarray, phase: np.ndarray, decay: np.ndarray) -> np.ndarray:
    """The output factor weight * exp(-i phase - decay) of one member column.

    ``decay`` is the column's decay integral, shape (n,) or (1,) where
    every member carries the same one.  A column whose phase is identically
    0, as it is where the column can hold only a diagonal pair, gets the
    real weight * exp(-decay).  Otherwise the factor is weight * exp(-decay)
    times e^{-i phase} from ``_phasor``, which lies within 2.3e-16 of
    numpy's complex exp; a column with a phase that is not finite, or beyond
    the table's exact reduction, takes numpy's complex exp, so a non-finite
    phase gives a non-finite factor.  A per-column integral takes libm's
    exp, whose bytes do not depend on numpy's SIMD level, short of overflow."""
    scale = weight * (math.exp(-decay[0]) if decay.shape == (1,) and decay[0] > -700.0 else np.exp(-decay))
    if phase[0] == 0.0 and not phase.any():  # one read rules out most columns
        return scale
    if np.abs(phase).max() <= _PHASE_LIMIT:  # False for NaN
        rotation = _phasor(phase)
        rotation *= scale
        return rotation
    return scale * np.exp(-1j * phase)


@dataclass
class RunSummary:
    """Bookkeeping attached to every run.  ``n_members`` counts the ordered
    pairs the ensemble represents: each stored member, plus its implicit
    (alpha', alpha) partner where alpha != alpha', the same in both modes.
    ``n_frustrated`` counts the member-steps at which a held label met a
    closed uphill row of the hop stage (``EnsembleState._hop_stage``)."""

    n_members: int = 0
    n_hops: int = 0
    n_frustrated: int = 0
    wall_time: float = 0.0

    def merge(self, other: "RunSummary") -> None:
        self.n_members += other.n_members
        self.n_hops += other.n_hops
        self.n_frustrated += other.n_frustrated


def _momentum_jump(p: np.ndarray, delta_e: np.ndarray, mass: float) -> np.ndarray:
    """The normal momenta p (k,) of the hopping block shifted to absorb the
    energy gaps delta_e (k,), which the hop stage lets only a member whose
    normal mode's kinetic energy p^2 / (4M) covers them take.

    A within-block derivative coupling lies along the block's normal axis,
    (1, 1) or (1, -1) in oscillator space, so the jump along it changes that
    block's p alone, to sign(p) sqrt(p^2 - 4 M delta_e), and leaves the
    other block's momentum as it was."""
    return np.copysign(np.sqrt(p * p - 4.0 * mass * delta_e), p)


def _reduction_plan(labels: tuple, constants: dict) -> tuple:
    """The live upper-triangle entries, ascending, and the terms of each
    column and label pair of ``labels`` (the pairs each column can hold,
    fixed at set-up, so an engine forms its plan once) as (row, part, sign,
    key) on the ``ElementRows`` rows: sign times the real (0) or imaginary
    (1) part of the pair's piece times the product of the key's rows.

    X's term u_a[p] u_b[q] at (r, c) adds its value to X + X^dagger there
    when r < c, its conjugate at (c, r) when r > c, and 2 Re of it on the
    diagonal.  Within one block it is a form in the block's rows ``sz`` and
    ``sx`` (x^2 = (1 + sz) / 2, y^2 = (1 - sz) / 2, x y = sx / 2), and a
    coordinate's forms add up to 0, +-1, +-sz, +-sx or +-(1 +- sz).  Only a
    cross-block term reads x and y, keyed by its factors (block, "x" or "y")
    in sorted order.  The factors in ``constants``, an uncoupled block's
    scalars, are folded in: a term that vanishes there is left out, and a
    constant other than +-1 (the 2 of 1 + sz) ends its key."""

    def pair_terms(a: int, b: int) -> list:
        sums: dict = {}  # (entry, part) -> {key: coefficient}, in the order met
        for p, q in ((0, 0), (0, 1), (1, 0), (1, 1)):
            (sa, i), (sb, j), k = SLOT_PARTS[a][p], SLOT_PARTS[b][q], a // 2
            if k != b // 2:
                form = {tuple(sorted(((k, "xy"[i]), (b // 2, "xy"[j])))): 1.0}
            else:  # x x, y y, or x y
                form = {(): 0.5, ((k, "sz"),): 0.5 - i} if i == j else {((k, "sx"),): 0.5}
            r, c = SLOT_ROWS[a][p], SLOT_ROWS[b][q]
            e = min(r, c) * 4 + max(r, c)
            for at, fold in ({(e, 0): 2.0} if r == c else {(e, 0): 1.0, (e, 1): (-1.0) ** (r > c)}).items():
                row = sums.setdefault(at, {})
                for key, v in form.items():
                    kept = tuple(factor for factor in key if factor not in constants)
                    row[kept] = row.get(kept, 0.0) + sa * sb * fold * v * math.prod(constants.get(f, 1.0) for f in key)
        return [(at, key, v) for at, row in sums.items() for key, v in row.items() if v]

    terms = [[pair_terms(*pair) for pair in pairs] for pairs in labels]
    index = tuple(sorted({at[0] for column in terms for pair in column for at, _, _ in pair}))
    order = [(e, 0) for e in index] + [(e, 1) for e in index if e % 5]  # (entry, part) per row

    def term(at: tuple, key: tuple, v: float) -> tuple:
        return order.index(at), at[1], 1 if v > 0 else -1, key if abs(v) == 1 else key + (abs(v),)

    return index, tuple(tuple(tuple(term(*t) for t in pair) for pair in column) for column in terms)


@dataclass
class EnsembleSnapshot:
    """Member state at one output time for a block of samples.

    Members are stored column by column: every sample holds the same K
    members, and member ``k * n_samples + s`` is the k-th pair of local
    sample s.  ``decay`` holds the decay integrals by column, shape (K, 1)
    where every member of a column carries the same one (rates that do not
    depend on the bath configuration, in either mode), else (K, n_samples).
    The arrays are views of the engine's own, which later steps overwrite in
    place; ``buffer`` is the engine's (16, n_samples) real coordinate
    buffer, which every ``sample_matrices`` call of that engine overwrites.
    ``blocks`` holds the frames of blocks A and B (None where no column
    stores the block), solved on the member columns ``block_columns[k]``,
    ``len(block_columns[k]) * n_samples`` rows in column order.
    ``column_labels`` holds the (alpha, alpha') pairs each column's members
    can hold, in ascending order of their codes alpha * 4 + alpha', and
    ``plan`` the reduction's terms for them (``_reduction_plan``); both are
    fixed when the engine is set up.
    """

    t: float
    n_samples: int
    alpha: np.ndarray
    alpha_prime: np.ndarray
    weight: np.ndarray
    phase: np.ndarray
    decay: np.ndarray
    blocks: tuple[Block | None, Block | None]
    block_columns: tuple[range, range]
    column_labels: tuple[tuple[tuple[int, int], ...], ...]
    plan: tuple
    buffer: np.ndarray

    def sample_matrices(self) -> ElementRows:
        """Per-sample subsystem density matrices as the real coordinate rows
        of their live upper-triangle entries.

        Each sample's matrix is X + X^dagger, X summing every member's
        factor f (``member_factor``) times u_a u_b^T in its own current
        frame, term by term as ``plan`` states.  A pair within one block
        reads the block's ``sz`` row, which the step's force has built, and
        its ``sx`` row: a diagonal pair adds Re f (1 +- sz) to the block's
        diagonal entries and +-Re f sx to its coherence's real part; an
        off-diagonal pair adds -+Re f sx to the diagonal entries, Re f sz to
        the coherence's real part and +-Im f, by the pair's order, to its
        imaginary part.  Only a cross-block pair reads x and y, built on the
        columns that store both blocks alone (``Block.vector_at``).

        A piece of a pair that no member of its column holds at this output
        is left out.  Each live coordinate sums its terms from +0 in
        member-column order, a coordinate that gets no term is +0, and a
        column forms each product of rows, and each part of a piece times
        one, once.  Each coordinate lies within a few ulps of its sample's
        sum of |f| of the frame-vector sum of
        ``nhqc.oracle.dense_sample_matrices``, which shares ``member_factor``.

        The live rows fill the first rows of ``buffer`` in ``ElementRows``
        order, and the record returned holds a view of them: it is valid
        until this engine's next ``sample_matrices`` call.
        """
        n = self.n_samples
        weight, phase = (v.reshape(-1, n) for v in (self.weight, self.phase))
        offset = [columns.start for columns in self.block_columns]
        both = range(offset[1], self.block_columns[0].stop)  # the columns that can hold a cross-block pair
        frame = {}  # (block, name): the factor's rows by column, built on first read

        def factor_row(k: int, factor):  # column k's row of one factor of a key; a constant is itself
            if not isinstance(factor, tuple):
                return factor
            blk, name = factor
            if factor not in frame and name in ("x", "y"):
                start = (both.start - offset[blk]) * n
                x, y = self.blocks[blk].vector_at(slice(start, start + len(both) * n))
                frame[blk, "x"], frame[blk, "y"] = x.reshape(-1, n), y.reshape(-1, n)
            elif factor not in frame:
                frame[factor] = getattr(self.blocks[blk], name).reshape(-1, n)
            return frame[factor][k - (both.start if name in ("x", "y") else offset[blk])]

        if any(len(pairs) > 1 for pairs in self.column_labels):
            codes = (self.alpha * 4 + self.alpha_prime).reshape(-1, n)
        index, plan = self.plan
        rows = self.buffer[: len(index) + sum(e % 5 > 0 for e in index)]
        started = [False] * len(rows)
        for k, pairs in enumerate(self.column_labels):
            factor = member_factor(weight[k], phase[k], self.decay[k])
            products = {}  # the product of each key's rows on this column
            for pair, terms in zip(pairs, plan[k]):
                # a column whose members can hold several labels splits into
                # one piece per label held, zero where a member holds another
                if len(pairs) == 1:
                    f = factor
                else:
                    held = codes[k] == pair[0] * 4 + pair[1]
                    if not held.any():
                        continue
                    f = np.where(held, factor, 0.0)
                parts = (f.real, f.imag) if np.iscomplexobj(f) else (f,)
                values = {}  # a part of the piece times a key's product, per (part, key)
                for r, part, sign, key in terms:
                    if part == len(parts):  # a real factor adds no imaginary part
                        continue
                    if (part, key) not in values:
                        if key and key not in products:
                            first, *rest = (factor_row(k, each) for each in key)
                            products[key] = first * rest[0] if rest else first
                        values[part, key] = parts[part] * products[key] if key else parts[part]
                    total = rows[r] if started[r] else 0.0
                    (np.add if sign > 0 else np.subtract)(total, values[part, key], out=rows[r])
                    started[r] = True
        rows[[r for r, done in enumerate(started) if not done]] = 0.0
        return ElementRows(index, rows)


class EnsembleState:
    """Vectorized ensemble over samples [sample_start, sample_start + n),
    started from their normal-mode rows q0 = (q_A, q_B) and p0 = (p_A, p_B),
    each of shape (n,) with n >= 1 and sample_start >= 0.  The samples lie
    in one block of ``CHUNK_SAMPLES``, whose hop stream a nonadiabatic engine
    reads.  Rows of another shape, a negative start or a range across two
    blocks raise ``ValueError``.

    Member arrays are laid out column by column as in ``EnsembleSnapshot``,
    one member per unordered pair, alpha <= alpha' at the start, under the
    module's Hermitian rule.  In nonadiabatic mode that rule is unbiased,
    since the exact evolution of each Hermitian part of the initial state
    stays Hermitian.

    The bath state is ``q`` and ``p``: block A's rows (columns ``_cols[0]``)
    followed by block B's (columns ``_cols[1]``), each a member-ordered run
    of its columns; ``_q[k]`` and ``_p[k]`` are block k's views.
    """

    def __init__(
        self,
        sp: SpinChainParams,
        bp: BathParams,
        decay: DecaySpec,
        config: SimConfig,
        q0: tuple[np.ndarray, np.ndarray],
        p0: tuple[np.ndarray, np.ndarray],
        sample_start: int = 0,
    ):
        self.sp, self.bp, self.decay, self.config = sp, bp, decay, config
        if len(q0) != 2 or len(p0) != 2:
            raise ValueError(f"q0 and p0 must hold two rows each (blocks A and B), got {len(q0)} and {len(p0)}")
        shapes = [np.shape(row) for rows in (q0, p0) for row in rows]
        if any(len(shape) != 1 for shape in shapes) or len(set(shapes)) != 1:
            raise ValueError(f"q0 and p0 must be 1-D rows of one length, got shapes {shapes}")
        if not shapes[0][0]:
            raise ValueError("q0 and p0 hold no sample")
        if sample_start < 0:
            raise ValueError(f"sample_start must be >= 0, got {sample_start}")
        self.n_local = len(q0[0])
        stop = sample_start + self.n_local
        if sample_start // CHUNK_SAMPLES != (stop - 1) // CHUNK_SAMPLES:
            raise ValueError(f"samples [{sample_start}, {stop}) straddle a block of {CHUNK_SAMPLES}")
        self.mode = config.mode
        self.t = 0.0
        self._step_index = 0
        self.summary = RunSummary()

        # each slot's amplitude <s|ket> from its two components on its rows,
        # an uncoupled block's scalars broadcast; pair (p, q) starts at
        # amp[p] amp[q], its element of |ket><ket| in the slot frames
        blocks0 = tuple(slot_frames(sp, bp, k, q0[k]) for k in range(2))
        ket, amp = initial_ket(config.initial_state), np.empty((4, self.n_local))
        for s, (u, (i, j)) in enumerate(zip(slot_vectors(blocks0), SLOT_ROWS)):
            amp[s] = u[0] * ket[i] + u[1] * ket[j]

        adiabatic = self.mode == "adiabatic"
        # a pair p <= q is carried by every sample of the block once its
        # element exceeds SPAWN_TOL in any of them, so each sample holds the
        # same K members; they are stored column by column (member k * n + s)
        pairs = [(p, q) for p in range(4) for q in range(p, 4) if np.any(np.abs(amp[p] * amp[q]) > SPAWN_TOL)]
        if not pairs:
            # a normalized state always spawns a pair unless its elements
            # overflowed to NaN; an empty ensemble would read trace 0
            raise ValueError(
                f"trace at t = 0 is 0: samples [{sample_start}, {stop}) "
                "spawn no pair (non-finite initial frames)"
            )
        # the slots a label can reach: its own, and in nonadiabatic mode the
        # other slot of its block where that block is coupled, so a diagonal
        # column that cannot move sorts to an end
        reach = [{s} if adiabatic or blocks0[s // 2].half_gap is None else {s, s ^ 1} for s in range(4)]
        # a column can hold every pair of the slots its labels reach, and
        # stores the blocks of its labels: its group is block A only (0),
        # both (1) or block B only (2).  Columns run in group order, block A
        # only with its diagonal pairs first and block B only with them
        # last, so that each block's columns and the columns that can hold an
        # off-diagonal pair (whose phase moves) are contiguous
        held = {(a, b): tuple(sorted((x, y) for x in reach[a] for y in reach[b])) for a, b in pairs}
        group = {(a, b): a // 2 + b // 2 for a, b in pairs}
        pairs.sort(key=lambda pair: (group[pair], (pair[0] == pair[1]) == (group[pair] == 2)))
        counts = [list(group.values()).count(g) for g in range(3)]
        self._cols = (range(counts[0] + counts[1]), range(counts[0], len(pairs)))
        labels = self._labels = tuple(held[pair] for pair in pairs)
        al = np.array([p for p, _ in pairs], dtype=np.int64)
        ap = np.array([q for _, q in pairs], dtype=np.int64)
        self.alpha = np.repeat(al, self.n_local)
        self.alpha_prime = np.repeat(ap, self.n_local)
        # the amplitudes of both preparations are real, and so are all hop
        # factors.  The partners are implicit (see the class docstring):
        # X + X^dagger counts a diagonal member twice
        weight = amp[al] * amp[ap]
        weight[al == ap] *= 0.5
        self.weight = weight.ravel()
        n = self.weight.size
        self.phase = np.zeros(n)
        self.summary.n_members = self.n_local * sum(1 + (a != b) for a, b in pairs)
        # the reduction's terms follow from the labels and the scalar rows
        # of uncoupled blocks; the coordinate buffer is this engine's own,
        # so chunks reduce independently
        fixed = [(k, b) for k, b in enumerate(blocks0) if b.half_gap is None]
        constants = {(k, name): v for k, b in fixed for name, v in zip(("x", "y", "sz", "sx"), (*b.vector, b.sz, b.sx))}
        self._plan = _reduction_plan(labels, constants)
        self._buffer = np.empty((16, self.n_local))

        # normal-mode rows of the stored blocks, every column starting from
        # its sample's point
        sizes = [len(columns) * self.n_local for columns in self._cols]
        self.q = np.empty(sum(sizes))
        self.p = np.empty_like(self.q)
        self._q = (self.q[: sizes[0]], self.q[sizes[0] :])
        self._p = (self.p[: sizes[0]], self.p[sizes[0] :])
        for k in range(2):
            self._q[k].reshape(-1, self.n_local)[:] = q0[k]
            self._p[k].reshape(-1, self.n_local)[:] = p0[k]
        self._kick = np.empty_like(self.q)
        self._kick_rows = (self._kick[: sizes[0]], self._kick[sizes[0] :])
        self._scratch = np.empty_like(self.q)

        if self.mode == "nonadiabatic":
            # a member reads its block's hop stream at its sample's row there,
            # offset by its pair's code alpha * 4 + alpha' as set up
            self._hop_block = sample_start // CHUNK_SAMPLES
            rows = np.tile(np.arange(self.n_local) + sample_start % CHUNK_SAMPLES, len(pairs))
            self._hop_offset = rows * 16 + self.alpha * 4 + self.alpha_prime
            self._hop_draws = int(self._hop_offset.max()) + 1
            # the hop stage's rows, laid out as q: signed coupling and decay
            # amplitudes; |a| of the coupling from an even (upper) label and
            # from an odd one, 0 where closed, and of the decay, twice; where
            # that uphill row is closed (row 1); and 2 r.  A side reads its
            # entries at ``_index``: label parity * size + row.  The coupled
            # blocks' rows form one span, None where no channel can open
            size = self.q.size
            self._amp, self._mag, self._gap = np.zeros((2, size)), np.zeros((4, size)), np.empty(size)
            self._closed = np.zeros((2, size), dtype=bool)
            base = [cols.start * self.n_local - start for cols, start in zip(self._cols, (0, sizes[0]))]
            self._slot_index = np.array([s % 2 * size - base[s // 2] for s in range(4)])
            self._block_rows = (slice(0, sizes[0]), slice(sizes[0], size))
            coupled = [r for r, block, k in zip(self._block_rows, blocks0, sizes) if k and block.half_gap is not None]
            self._coupled = slice(coupled[0].start, coupled[-1].stop) if coupled else None
        # rates depend on R where sz_A has a nonzero coefficient and block A
        # is coupled and stored; an uncoupled block A's sz_A is a constant.
        # Otherwise every member of a column adds the same rates, in either
        # mode, and the column holds one decay integral (K, 1)
        self._rate, self._slope = slot_gamma_diag(decay)
        self._rates_vary = bool(self._slope[0] != 0) and blocks0[0].half_gap is not None and len(self._cols[0]) > 0
        if blocks0[0].half_gap is None:
            self._rate = self._rate + self._slope * blocks0[0].sz
        self.decay_acc = np.zeros((len(pairs), self.n_local if self._rates_vary else 1))
        # a hop keeps a label in its coupled block, whose two slots share
        # one constant rate, so each column adds one dt_rate per step
        self._dt_rate = config.dt * (self._rate[al] + self._rate[ap])[:, None]
        self._restore = bp.mass * bp.omega**2

        # the columns whose Bohr frequency can be nonzero: those that can
        # hold an off-diagonal pair
        live = [k for k, column in enumerate(labels) if any(a != b for a, b in column)]
        self._live = range(live[0], live[-1] + 1) if live else range(0)
        # per-pair coefficients: per column (K, 1) in adiabatic mode; per
        # member (K, n) in nonadiabatic mode, where hops rewrite them from a
        # table by pair code alpha * 4 + alpha'
        if adiabatic:
            self._coef = self._label_coefficients(al[:, None], ap[:, None])
        else:
            self._pair_coef = self._label_coefficients(np.arange(16) // 4, np.arange(16) % 4)
            self._coef = {key: np.empty((len(pairs), self.n_local)) for key in self._pair_coef}
            self._index = np.empty((2, n), dtype=np.intp)
            self._relabel(np.arange(n))
        self._omega_spare = np.empty((len(self._live), self.n_local))
        self._omega = np.empty_like(self._omega_spare)
        self._refresh_frames()
        self._refresh_pair_caches()

    # -- frame-dependent caches ------------------------------------------

    def _label_coefficients(self, a: np.ndarray, b: np.ndarray) -> dict:
        """The per-pair coefficients of labels a, b (any matching shapes):
        ``("cn", k)`` = c n_k for block k's force, ``("g", k)`` = the signs of
        block k's half gap in the Bohr frequency, ``"mu"`` = the difference
        of the labels' block means and, where rates depend on R, ``"slope"``
        = dt / 2 times the sum of their sz_A coefficients."""
        means = np.array([block_constants(self.sp, s // 2)[0] for s in range(4)])
        coef = {"mu": means[a] - means[b]}
        for k in range(2):
            coef["cn", k] = self.bp.c * (SLOT_SIGN[k][a] + SLOT_SIGN[k][b])
            coef["g", k] = SLOT_SIGN[k][a] - SLOT_SIGN[k][b]
        if self._rates_vary:
            coef["slope"] = 0.5 * self.config.dt * (self._slope[a] + self._slope[b])
        return coef

    def _relabel(self, members: np.ndarray) -> None:
        """Rewrite the per-member coefficients and hop-stage indices of
        ``members`` (nonadiabatic mode), whose labels a transition changed."""
        ket, bra = self.alpha[members], self.alpha_prime[members]
        codes = ket * 4 + bra
        for key, table in self._pair_coef.items():
            self._coef[key].reshape(-1)[members] = table[codes]
        for index, labels in zip(self._index, (ket, bra)):
            index[members] = members + self._slot_index[labels]

    def _refresh_frames(self) -> None:
        self._blocks = tuple(slot_frames(self.sp, self.bp, k, q) if q.size else None for k, q in enumerate(self._q))

    def _refresh_pair_caches(self) -> None:
        """Half kick and Bohr frequency of every member on the current
        frames, in one pass over the stored blocks, the latter into a fresh
        buffer: the previous one stays readable as the step's starting
        value."""
        n, coef, dt, live = self.n_local, self._coef, self.config.dt, self._live
        omega, self._omega_spare = self._omega_spare, self._omega
        self._omega = omega
        np.copyto(omega, coef["mu"][live.start : live.stop])
        for k, (block, columns) in enumerate(zip(self._blocks, self._cols)):
            if block is None:
                continue
            kick = self._kick_rows[k].reshape(-1, n)
            np.multiply(self._q[k].reshape(-1, n), -self._restore, out=kick)
            sz = block.sz.reshape(-1, n) if isinstance(block.sz, np.ndarray) else block.sz
            term = self._scratch[: kick.size].reshape(kick.shape)
            np.multiply(coef["cn", k][columns.start : columns.stop], sz, out=term)
            kick += term
            kick *= 0.5 * dt
            lo, hi = max(live.start, columns.start), min(live.stop, columns.stop)
            if lo < hi:
                upper = block.upper.reshape(-1, n)[lo - columns.start : hi - columns.start]
                term = self._scratch[: upper.size].reshape(upper.shape)
                np.multiply(coef["g", k][lo:hi], upper, out=term)
                omega[lo - live.start : hi - live.start] += term

    def _refresh_members(self, members: np.ndarray) -> None:
        """``_refresh_pair_caches`` for the sorted ``members`` alone, in its
        arithmetic and order, in place: the other members' caches stand."""
        n, coef, dt, omega = self.n_local, self._coef, self.config.dt, self._omega.reshape(-1)
        ranges = [r for columns in (self._live, *self._cols) for r in (columns.start * n, columns.stop * n)]
        ends = np.searchsorted(members, ranges).tolist()  # of the live members and of each block's
        on = members[ends[0] : ends[1]]
        omega[on - ranges[0]] = coef["mu"].reshape(-1)[on]
        for k, (block, start, lo, hi) in enumerate(zip(self._blocks, ranges[2::2], ends[2::2], ends[3::2])):
            if block is None:
                continue
            j = members[lo:hi] - start
            cn_sz = coef["cn", k].reshape(-1)[members[lo:hi]] * (block.sz[j] if np.ndim(block.sz) else block.sz)
            self._kick_rows[k][j] = (self._q[k][j] * -self._restore + cn_sz) * (0.5 * dt)
            on = members[max(lo, ends[0]) : min(hi, ends[1])]
            omega[on - ranges[0]] += coef["g", k].reshape(-1)[on] * block.upper[on - start]

    # -- time stepping ----------------------------------------------------

    def advance(self, n_steps: int) -> None:
        dt, n = self.config.dt, self.n_local
        over_mass = dt / self.bp.mass
        half_dt = 0.5 * dt
        phase = self.phase.reshape(-1, n)[self._live.start : self._live.stop]
        for _ in range(n_steps):
            # the half kick that ends one step starts the next: it is cached
            # with the frames, and refreshed wherever q or a label changes
            self.p += self._kick
            np.multiply(self.p, over_mass, out=self._scratch)
            self.q += self._scratch
            omega_old, block_a = self._omega, self._blocks[0]
            self._refresh_frames()
            self._refresh_pair_caches()
            self.p += self._kick
            # the previous frequency buffer is spare from here on
            omega_old += self._omega
            omega_old *= half_dt
            phase += omega_old
            self.decay_acc += self._dt_rate
            if self._rates_vary:  # the trapezoid of the sz_A term, on block A's columns
                term = self._scratch[: block_a.delta.size].reshape(-1, n)
                np.add(block_a.sz.reshape(-1, n), self._blocks[0].sz.reshape(-1, n), out=term)
                term *= self._coef["slope"][: len(term)]
                self.decay_acc[: len(term)] += term
            if self.mode == "nonadiabatic":
                self._hop_stage(dt)
            self._step_index += 1
            self.t = self._step_index * dt

    # -- stochastic transitions (nonadiabatic mode) ------------------------

    def _hop_uniforms(self) -> np.ndarray:
        """One uniform per (sample, unordered pair) for this step, from the
        stream keyed by the engine's fixed sample block, so the values do not
        depend on how samples were chunked across workers.  The stream is
        drawn only up to the last offset read from it."""
        stream = block_stream(self.config.seed, HOP_STREAM_TAG, self._step_index, self._hop_block)
        return stream.random(self._hop_draws)[self._hop_offset]

    def _hop_stage(self, dt: float) -> None:
        """Sample at most one transition per member.

        The transitions, from the side's label s to s ^ 1 in a coupled block,
        run in this order: each coupled block's derivative coupling, upper
        to lower slot, then back, ket before bra; then, where rates depend on
        R, block A's decay channels in the same order.  A member opens at
        most a coupling and a decay channel per side.  Each amplitude a is a
        closed form in block k = s // 2's half gap r (no frame vector, no
        energy row): dt (p_k / M) ``slot_coupling``, negated from the lower
        to the upper slot, and for decay, on block A, dt times the
        off-diagonal element -slope_0 w / r of ``slot_gamma_diag``, the same
        both ways.  Their |a| rows are formed by
        row of q, an uphill coupling (s odd) closed (0) where
        p_k^2 - 4 M (2 r) < 0, the radicand of ``_momentum_jump``, and each
        side gathers its member's entries (``_index``).  ``total``, a member's
        sum of |a|, is their sum in channel order bit for bit: the couplings
        commute and the decay entries are equal.  A member hops only if its
        uniform times 1 + total falls below ``total``, on the first channel in
        that order whose running sum exceeds that product, with the factor
        -(1 + total) a / |a| and, on a coupling, the jump across the gap -+2r;
        every other member gets 1 + total: its expected weight is w with no
        hop and -a w on each open channel.  One pass in that order resolves
        the hits; only their pair caches are rebuilt."""
        if self._coupled is None:
            return
        mass, size, (ket, bra) = self.bp.mass, self.q.size, self._index
        amp, mag, closed, gap, span = self._amp, self._mag, self._closed, self._gap, self._coupled
        a = np.divide(self.p[span], mass, out=amp[0, span])
        for block, rows in zip(self._blocks, self._block_rows):
            if block is not None and block.half_gap is not None:
                amp[0, rows] *= slot_coupling(self.bp, block)
                np.multiply(block.half_gap, 2.0, out=gap[rows])
        a *= dt
        np.abs(a, out=mag[0, span])
        np.less(np.square(self.p[span]) - 4.0 * mass * gap[span], 0.0, out=closed[1, span])
        closed[1, span] &= a != 0.0
        mag[1, span] = mag[0, span]
        np.putmask(mag[1, span], closed[1, span], 0.0)
        coupling = [mag[:2].reshape(-1)[i] for i in (ket, bra)]
        total = coupling[0] + coupling[1]
        if self._rates_vary:
            block, rows = self._blocks[0], self._block_rows[0]
            np.divide(-dt * self._slope[0] * block.w, block.half_gap, out=amp[1, rows])
            mag[2, rows] = mag[3, rows] = np.abs(amp[1, rows])
            decay = mag[2:].reshape(-1)
            total += decay[ket]
            total += decay[bra]
        self.summary.n_frustrated += int(np.count_nonzero(closed.reshape(-1)[ket] | closed.reshape(-1)[bra]))
        scale = 1.0 + total
        u = self._hop_uniforms() * scale
        hit = np.flatnonzero(u < total)  # False for NaN: no hop
        self.weight *= scale  # the no-hop factor; a hop also takes the sign of -a
        if not hit.size:
            return
        # each hit member's running sums in channel order, the lower label's
        # side first within each kind (ket on a tie); it takes the first
        # channel whose sum exceeds u: 0, 1 a coupling, 2, 3 a decay
        labels = self.alpha[hit], self.alpha_prime[hit]
        first, ck, cb, u = labels[0] <= labels[1], coupling[0][hit], coupling[1][hit], u[hit]
        sums = [np.where(first, ck, cb), ck + cb]
        if self._rates_vary:
            sums.append(sums[1] + np.where(first, decay[ket[hit]], decay[bra[hit]]))
        choice = sum(u >= running for running in sums)
        on_ket = (choice % 2 == 0) == first
        kind, rows, up = choice // 2, np.where(on_ket, ket[hit], bra[hit]) % size, np.where(on_ket, *labels) % 2 == 1
        self.weight[hit[(amp[kind, rows] > 0) != (up & (kind == 0))]] *= -1.0  # where the a taken is > 0
        jumps, gaps = rows[kind == 0], gap[rows[kind == 0]]
        self.p[jumps] = _momentum_jump(self.p[jumps], np.where(up[kind == 0], gaps, -gaps), mass)
        self.alpha[hit[on_ket]] ^= 1
        self.alpha_prime[hit[~on_ket]] ^= 1
        self.summary.n_hops += int(hit.size)
        self._relabel(hit)
        self._refresh_members(hit)

    # -- views -------------------------------------------------------------

    def snapshot(self) -> EnsembleSnapshot:
        """The current member state, as views of the engine's arrays."""
        return EnsembleSnapshot(
            t=self.t,
            n_samples=self.n_local,
            alpha=self.alpha,
            alpha_prime=self.alpha_prime,
            weight=self.weight,
            phase=self.phase,
            decay=self.decay_acc,
            blocks=self._blocks,
            block_columns=self._cols,
            column_labels=self._labels,
            plan=self._plan,
            buffer=self._buffer,
        )


def _run_metadata(sp, bp, decay, config) -> dict:
    """Each ``CONFIG_KEYS`` value of the run as a configuration file states it."""
    params = {"sp": sp, "bp": bp, "decay": decay, "config": config}
    metadata = {}
    for key, (_, owner, attr) in CONFIG_KEYS.items():
        value = getattr(params[owner], attr)
        metadata[key] = value.value if isinstance(value, DecayKind) else value
    return metadata


def _chunk_accumulate(sp, bp, decay, config, bounds) -> tuple[list[MomentAccumulator], RunSummary]:
    start, stop = bounds
    (r1, r2), (p1, p2) = sample_bath_point(bp, config.seed, start, stop - start)
    engine = EnsembleState(sp, bp, decay, config, (r1 + r2, r1 - r2), (p1 + p2, p1 - p2), start)
    del r1, r2, p1, p2  # free the draws before the output loop
    accs = [MomentAccumulator.from_samples(engine.snapshot().sample_matrices())]
    for _ in range(config.n_steps // config.output_stride):
        engine.advance(config.output_stride)
        accs.append(MomentAccumulator.from_samples(engine.snapshot().sample_matrices()))
    return accs, engine.summary


def simulate(
    sp: SpinChainParams,
    bp: BathParams,
    decay: DecaySpec,
    config: SimConfig,
    threads: int = 1,
) -> tuple[TimeSeries, RunSummary]:
    """Full pipeline: sample, propagate, reduce to a time series.

    Each chunk is one sample block, whose points its worker draws, and the
    chunks' statistics combine in chunk order, so the output bytes depend
    only on the configuration and seed, never on the worker count.  Each
    worker runs in a copy of the caller's context, so the caller's
    ``np.errstate`` holds in every thread.
    """
    started = time.perf_counter()
    bounds = [
        (s, min(s + CHUNK_SAMPLES, config.n_samples))
        for s in range(0, config.n_samples, CHUNK_SAMPLES)
    ]
    if threads > 1 and len(bounds) > 1:
        context = contextvars.copy_context()
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda b: context.copy().run(_chunk_accumulate, sp, bp, decay, config, b), bounds))
    else:
        results = [_chunk_accumulate(sp, bp, decay, config, b) for b in bounds]

    summary = RunSummary()
    accs = results[0][0]
    summary.merge(results[0][1])
    for chunk_accs, chunk_summary in results[1:]:
        accs = [a.combine(b) for a, b in zip(accs, chunk_accs)]
        summary.merge(chunk_summary)

    stride_t = config.output_stride * config.dt
    rows = [
        TimeRecord(t=k * stride_t, density=acc.density(), trace_stderr=acc.trace_stderr())
        for k, acc in enumerate(accs)
    ]
    summary.wall_time = time.perf_counter() - started
    return TimeSeries(rows=rows, metadata=_run_metadata(sp, bp, decay, config)), summary

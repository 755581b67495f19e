"""Sequential short-time propagation of the pair-trajectory ensemble.

Each starting bath point spawns one member per nonzero initial adiabatic
element (alpha, alpha') with alpha <= alpha', one per unordered pair.  A
member advects classically on the mean of its two adiabatic surfaces while
accumulating the frequency integral of its phase factor and the damping
integral of its decay factor (trapezoid over each step, consistent with
the second-order step splitting).  In nonadiabatic mode a single stochastic
transition per member per step is sampled from the derivative-coupling and
off-diagonal-decay channels, with importance reweighting and the
momentum-jump rule; that rule is stated only here, in
``EnsembleState._hop_stage`` and ``_momentum_jump``.  The stage sums each
channel's label-masked |amplitude| row once for the no-hop total, chooses a
channel only for the members whose uniform falls below that total, and
forms decay amplitudes only for the entries where a channel is open.

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
mode, along a coupled block's derivative coupling and the open decay
channels.  That one table fixes the blocks a column stores (those of its
labels), whether its phase moves (some pair is off-diagonal), the blocks
that feel a force and the reduction's terms.  Columns are ordered
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
kick) is cached with each member's frequency and decay rate, and these rows
are rebuilt after every drift and, for the members that hopped, after the
hop stage.  The adiabatic step restated for a single member on the generic
eigensolver route is ``nhqc.oracle.sstp_step``, its cross-check; the oracle
has no nonadiabatic counterpart.

In adiabatic mode with configuration-independent decay rates every member
of a column adds the same rate at every step, so the engine keeps one decay
integral per column, shape (K, 1), and (K, n) otherwise.

Each output reduces the members to per-sample matrices in an element
buffer the engine allocates once (``EnsembleSnapshot.sample_matrices``),
writing only the entries its members can reach; the dense member sum it
must equal bit for bit is ``nhqc.oracle.dense_sample_matrices``.  Both
weight each member by ``member_factor``, w exp(-i phi - Lambda): one real
exp per column where the decay integral is per column, and e^{-i phi} from
a table and short polynomials rather than numpy's complex exp, which calls
the scalar libm cosine and sine for every element.  Both modes keep one
Hermitian rule: every member's (alpha', alpha) partner is implicit and a
diagonal member starts at half its weight, so each sample's matrix is
X + X^dagger, of which only the upper triangle is formed.
"""

from __future__ import annotations

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
from .sampler import CHUNK_SAMPLES, block_stream, initial_subsystem, sample_bath_point

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
    z.real = r2 * (0.5 - r2 * (1 / 24))
    z.imag = r * (1.0 - r2 * (1 / 6 - r2 * (1 / 120)))
    z *= t
    return np.subtract(t, z, out=t)


def member_factor(weight: np.ndarray, phase: np.ndarray, decay: np.ndarray) -> np.ndarray:
    """The output factor weight * exp(-i phase - decay) of one member column.

    ``decay`` is the column's decay integral, shape (n,) or (1,) where
    every member carries the same one.  A column whose phase is identically
    0, as it is where the column can hold only a diagonal pair, gets the
    real weight * exp(-decay).  Otherwise the factor is weight * exp(-decay)
    times e^{-i phase} from ``_phasor``, which lies within 2.3e-16 of
    numpy's complex exp; a column with a phase that is not finite, or
    beyond the table's exact reduction, takes numpy's complex exp, so a
    non-finite phase gives a non-finite factor."""
    scale = weight * np.exp(-decay)
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
    (alpha', alpha) partner where alpha != alpha', the same in both modes."""

    n_members: int = 0
    n_hops: int = 0
    n_frustrated: int = 0
    wall_time: float = 0.0

    def merge(self, other: "RunSummary") -> None:
        self.n_members += other.n_members
        self.n_hops += other.n_hops
        self.n_frustrated += other.n_frustrated


def _slot_entry(comps: tuple, m: np.ndarray, s: int, t: int, n: int) -> np.ndarray:
    """Entry (s, t) of u^T m u for slot components ``comps``, shape (n,):
    the terms (u_is * m[i, j]) * u_jt of numpy's unoptimized einsum
    "nip,ij,njq->npq" in its order, less those with m[i, j] == 0 or i, j off
    ``SLOT_ROWS``, so equal to it bit for bit."""
    out = np.zeros(n, dtype=np.result_type(float, m))
    for p, i in enumerate(SLOT_ROWS[s]):
        for q, j in enumerate(SLOT_ROWS[t]):
            if m[i, j] != 0:
                out += (comps[s][p] * m[i, j]) * comps[t][q]
    return out


def _open_gamma_channels(decay: DecaySpec, blocks: tuple[Block, Block]) -> list[tuple[str, int, int]]:
    """Off-diagonal decay channels (side, s, t) that can be nonzero, in
    hop-stage order; the s -> t transition reads entry (s, t) of u^T Gamma u
    on the ket side and (t, s) on the bra side.  A slot spans the rows of its
    components other than a scalar 0.0, so an entry opens only where
    Gamma[i, j] != 0 for rows i, j the two slots span; the identity
    operator, diagonal in every orthonormal frame, opens none."""
    if decay.kind is DecayKind.IDENTITY_UNIFORM:
        return []
    spans = [
        [i for i, c in zip(SLOT_ROWS[s], comp) if np.ndim(c) or c != 0.0]
        for s, comp in enumerate(slot_vectors(blocks))
    ]
    m = decay.matrix

    def opens(p: int, q: int) -> bool:
        return p != q and any(m[i, j] != 0 for i in spans[p] for j in spans[q])

    channels = []
    for s in range(4):
        for t in range(4):
            if opens(s, t):
                channels.append(("ket", s, t))
            if opens(t, s):
                channels.append(("bra", s, t))
    return channels


def _momentum_jump(p: np.ndarray, delta_e: np.ndarray, mass: float) -> tuple[np.ndarray, np.ndarray]:
    """Shift normal momenta p (k,) of the hopping block to absorb the energy
    gaps delta_e (k,).  Returns the allowed mask and the new momenta of the
    allowed members, shape (count,); a frustrated member lacks the kinetic
    energy p^2 / (4M) of its block's normal mode for an uphill transition.

    A within-block derivative coupling lies along the block's normal axis,
    (1, 1) or (1, -1) in oscillator space, so the jump along it changes that
    block's p alone, to sign(p) sqrt(p^2 - 4 M delta_e), and leaves the
    other block's momentum as it was."""
    radicand = p * p - 4.0 * mass * delta_e
    ok = radicand >= 0.0
    return ok, np.copysign(np.sqrt(radicand[ok]), p[ok])


def _pair_terms(a: int, b: int, vanishing: frozenset) -> list[tuple[int, int, tuple, bool]]:
    """The terms u_a[p] * u_b[q] of label pair (a, b) in (p, q) order, as
    (upper-triangle entry row * 4 + col, sign, product key, below), less
    those with a component in ``vanishing``.  A term whose entry lies below
    the diagonal is folded onto the transposed entry, where its conjugate is
    added (``below``).  A component is keyed (block, 0 for x or 1 for y);
    the key of a product is its two components in sorted order, so x * y
    and y * x, equal bit for bit, share it."""
    terms = []
    for p, q in ((0, 0), (0, 1), (1, 0), (1, 1)):
        (sa, i), (sb, j) = SLOT_PARTS[a][p], SLOT_PARTS[b][q]
        u, v = (a // 2, i), (b // 2, j)
        if u not in vanishing and v not in vanishing:
            r, c = SLOT_ROWS[a][p], SLOT_ROWS[b][q]
            terms.append((min(r, c) * 4 + max(r, c), sa * sb, tuple(sorted((u, v))), r > c))
    return terms


def _reduction_plan(labels: tuple, vanishing: frozenset) -> tuple:
    """The terms of the member sum for columns that can hold the label
    pairs ``labels`` (a tuple of pairs per column).  The pairs a column can
    hold are fixed at set-up (``EnsembleState``: the slots its two labels
    reach), so an engine forms its plan once.

    Returns the live upper-triangle entries in ascending order and the terms
    of each column and pair as (row among the live entries, sign, product
    key, below).
    """
    terms = [[_pair_terms(*pair, vanishing) for pair in pairs] for pairs in labels]
    index = tuple(sorted({t[0] for column in terms for pair in column for t in pair}))
    return index, tuple(
        tuple(tuple((index.index(e), *rest) for e, *rest in pair) for pair in column) for column in terms
    )


@dataclass
class EnsembleSnapshot:
    """Member state at one output time for a block of samples.

    Members are stored column by column: every sample holds the same K
    members, and member ``k * n_samples + s`` is the k-th pair of local
    sample s.  ``decay`` holds the decay integrals by column, shape (K, 1)
    where every member of a column carries the same one (adiabatic mode
    with configuration-independent rates), else (K, n_samples).  The arrays
    are views of the engine's own, which later steps overwrite in place;
    ``buffer`` is the engine's (16, n_samples) complex element buffer, which
    every ``sample_matrices`` call of that engine overwrites.  ``blocks``
    holds the frames of blocks A and B (None where no column stores the
    block), solved on the member columns ``block_columns[k]``,
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
        """Per-sample subsystem density matrices as their live upper-triangle
        element rows.

        Each sample's matrix is X + X^dagger, X summing every member's
        factor (``member_factor``, which the dense reference shares)
        back-rotated with its own current frame.  A term of X on entry
        (r, c) adds its value there when r <= c, else its conjugate at
        (c, r); a diagonal entry ends as 2 Re of its sum, imaginary part 0.

        Only the entries that the pairs of ``column_labels`` reach are live:
        a term with an uncoupled block's scalar 0 component is left out, and
        so is the piece of a pair that no member of its column holds at this
        output.  Each live entry sums its terms from +0 in member-column
        order, and an entry that gets no term is +0.  A column's terms share
        the products of two frame components and those products times the
        column factor, each formed once; a term whose slot components carry
        a minus sign (``SLOT_PARTS``) is subtracted.  Negation is exact and a
        sum started at +0 keeps no sign of zero, so every entry equals the
        dense sum of ``nhqc.oracle.dense_sample_matrices`` bit for bit.

        The live rows fill the first rows of ``buffer`` in ascending entry
        order, and the record returned holds a view of them: it is valid
        until this engine's next ``sample_matrices`` call.
        """
        n = self.n_samples
        weight, phase = (v.reshape(-1, n) for v in (self.weight, self.phase))
        # each stored block's x and y as rows of its member columns, keyed
        # (block, 0 or 1); an uncoupled block's are the scalars 1 and 0, and
        # a term with the scalar 0 vanishes identically
        comps = {
            (blk, i): c.reshape(-1, n) if isinstance(c, np.ndarray) else c
            for blk, block in enumerate(self.blocks)
            if block is not None
            for i, c in enumerate(block.vector)
        }
        offset = [columns.start for columns in self.block_columns]
        if any(len(pairs) > 1 for pairs in self.column_labels):
            codes = (self.alpha * 4 + self.alpha_prime).reshape(-1, n)
        index, plan = self.plan
        rows = self.buffer[: len(index)]
        started = [False] * len(index)
        for k, pairs in enumerate(self.column_labels):
            factor = member_factor(weight[k], phase[k], self.decay[k])
            # a column reads only the blocks its labels lie in, which it stores
            column = {
                key: c[k - offset[key[0]]] if isinstance(c, np.ndarray) else c
                for key, c in comps.items()
                if k in self.block_columns[key[0]]
            }
            products = {}
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
                values = {}  # factor * product per product key
                for r, sign, key, below in terms:
                    if key not in values:
                        if key not in products:
                            products[key] = column[key[0]] * column[key[1]]
                        values[key] = f * products[key]
                    value = np.conj(values[key]) if below else values[key]
                    (np.add if sign > 0 else np.subtract)(rows[r] if started[r] else 0.0, value, out=rows[r])
                    started[r] = True
        for r, entry in enumerate(index):
            if not started[r]:
                rows[r] = 0.0
            elif entry % 5 == 0:  # a diagonal entry of X + X^dagger
                rows[r] = 2.0 * rows[r].real
        return ElementRows(index, rows)


class EnsembleState:
    """Vectorized ensemble over samples [sample_start, sample_start + n),
    started from their normal-mode rows q0 = (q_A, q_B) and p0 = (p_A, p_B),
    each of shape (n,).  The samples lie in one block of ``CHUNK_SAMPLES``,
    whose hop stream a nonadiabatic engine reads; a range across two blocks
    raises ``ValueError``.

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
        self.n_local = len(q0[0])
        stop = sample_start + self.n_local
        if sample_start // CHUNK_SAMPLES != (stop - 1) // CHUNK_SAMPLES:
            raise ValueError(f"samples [{sample_start}, {stop}) straddle a block of {CHUNK_SAMPLES}")
        self.mode = config.mode
        self.t = 0.0
        self._step_index = 0
        self.summary = RunSummary()

        blocks0 = tuple(slot_frames(sp, bp, k, q0[k]) for k in range(2))
        comps0 = slot_vectors(blocks0)
        rho0 = initial_subsystem(config.initial_state)
        elements0 = np.empty((4, 4, self.n_local), dtype=complex)
        for p, q in np.ndindex(4, 4):
            elements0[p, q] = _slot_entry(comps0, rho0, p, q, self.n_local)

        adiabatic = self.mode == "adiabatic"
        # a pair p <= q is carried by every sample of the block once its
        # element exceeds SPAWN_TOL in any of them, so each sample holds the
        # same K members; they are stored column by column (member k * n + s)
        pairs = [(p, q) for p in range(4) for q in range(p, 4) if np.any(np.abs(elements0[p, q]) > SPAWN_TOL)]
        if not pairs:
            # a normalized state always spawns a pair unless its elements
            # overflowed to NaN; an empty ensemble would read trace 0
            raise ValueError(
                f"trace at t = 0 is 0: samples [{sample_start}, {stop}) "
                "spawn no pair (non-finite initial frames)"
            )
        # the slots a label can move to: none in adiabatic mode; in
        # nonadiabatic mode a coupled block's partner slot and the targets of
        # the open decay channels, closed transitively.  Every channel runs
        # both ways, so a diagonal column that cannot move sorts to an end
        self._gamma_channels = [] if adiabatic else _open_gamma_channels(decay, blocks0)
        edges = {(s, t) for _, s, t in self._gamma_channels}
        edges |= {(s, s ^ 1) for s in range(4) if not adiabatic and blocks0[s // 2].half_gap is not None}
        reach = [{s} | {t for u, t in edges if u == s} for s in range(4)]
        for _ in range(2):  # paths of up to four channels, enough for four slots
            reach = [set().union(*(reach[t] for t in r)) for r in reach]
        # a column can hold every pair of the slots its labels reach, and
        # stores the blocks of those slots, from that of the lowest to that
        # of the highest: its group is block A only (0), both (1) or block B
        # only (2).  Columns run in group order, block A only with its
        # diagonal pairs first and block B only with them last, so that each
        # block's columns and the columns that can hold an off-diagonal pair
        # (whose phase moves) are contiguous
        held = {(a, b): tuple(sorted((x, y) for x in reach[a] for y in reach[b])) for a, b in pairs}
        group = {pair: min(held[pair][0]) // 2 + max(held[pair][-1]) // 2 for pair in pairs}
        pairs.sort(key=lambda pair: (group[pair], (pair[0] == pair[1]) == (group[pair] == 2)))
        counts = [list(group.values()).count(g) for g in range(3)]
        self._cols = (range(counts[0] + counts[1]), range(counts[0], len(pairs)))
        labels = self._labels = tuple(held[pair] for pair in pairs)
        al = np.array([p for p, _ in pairs], dtype=np.int64)
        ap = np.array([q for _, q in pairs], dtype=np.int64)
        self.alpha = np.repeat(al, self.n_local)
        self.alpha_prime = np.repeat(ap, self.n_local)
        # the partners are implicit (see the class docstring): X + X^dagger
        # counts a diagonal member twice
        weight = elements0[al, ap]
        weight[al == ap] *= 0.5
        self.weight = weight.ravel()
        n = self.weight.size
        self.phase = np.zeros(n)
        self.summary.n_members = self.n_local * sum(1 + (a != b) for a, b in pairs)
        # the reduction's terms follow from the labels and the scalar 0
        # components of uncoupled blocks; the element buffer is this
        # engine's own, so chunks reduce independently
        vanishing = frozenset(
            (k, i) for k, block in enumerate(blocks0) for i, c in enumerate(block.vector) if np.ndim(c) == 0 and c == 0
        )
        self._plan = _reduction_plan(labels, vanishing)
        self._buffer = np.empty((16, self.n_local), dtype=complex)

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
        # decay expectations are configuration-independent unless a coupled
        # block mixes states that the operator distinguishes
        g = np.real(decay.matrix)
        self._gdiag_constant = not any(
            block.half_gap is not None and (g[i, i] != g[j, j] or g[i, j] != 0.0)
            for block in blocks0
            for i, j in [block.rows]
        )
        if self._gdiag_constant:
            # per-slot rates, read once from sample 0, whose frame vectors
            # ``slot_vectors(blocks0)`` has built: they do not depend on R
            self._gd = np.concatenate([slot_gamma_diag(decay, block)[:, 0] for block in blocks0])
        # decay integrals by column: with constant rates every member of an
        # adiabatic column adds the same ones, so the column holds one (K, 1)
        per_column = adiabatic and self._gdiag_constant
        self.decay_acc = np.zeros((len(pairs), 1 if per_column else self.n_local))
        self._restore = bp.mass * bp.omega**2

        # the columns whose Bohr frequency can be nonzero: those that can
        # hold an off-diagonal pair
        live = [k for k, column in enumerate(labels) if any(a != b for a, b in column)]
        self._live = range(live[0], live[-1] + 1) if live else range(0)
        # per-pair coefficients: per column (K, 1) in adiabatic mode, per
        # member (K, n) in nonadiabatic mode, where hops rewrite them
        if adiabatic:
            self._coef = self._label_coefficients(al[:, None], ap[:, None])
        else:
            shape = (len(pairs), self.n_local)
            self._coef = self._label_coefficients(self.alpha.reshape(shape), self.alpha_prime.reshape(shape))
        # block k's force term c n_k sz_k, left out where n_k is 0 for every
        # pair its columns can hold (its <sigma_z> row is then never built)
        self._pulls = tuple(
            bp.c != 0 and any(SLOT_SIGN[k][a] + SLOT_SIGN[k][b] != 0 for j in columns for a, b in labels[j])
            for k, columns in enumerate(self._cols)
        )
        self._omega_spare = np.empty((len(self._live), self.n_local))
        self._omega = np.empty_like(self._omega_spare)
        if not self._gdiag_constant:
            self._gamma_spare = np.empty((len(pairs), self.n_local))
            self._gamma = np.empty_like(self._gamma_spare)
        self._refresh_frames()
        self._refresh_pair_caches()

    # -- frame-dependent caches ------------------------------------------

    def _label_coefficients(self, a: np.ndarray, b: np.ndarray) -> dict:
        """The per-pair coefficients of labels a, b (any matching shapes):
        ``("cn", k)`` = c n_k for block k's force, ``("g", k)`` = the signs of
        block k's half gap in the Bohr frequency, ``"mu"`` = the difference
        of the labels' block means, and either ``"dt_gamma"`` = dt times the
        constant decay rate or ``("count", s)`` = how many of the two labels
        are slot s."""
        means = np.array([block_constants(self.sp, s // 2)[0] for s in range(4)])
        coef = {"mu": means[a] - means[b]}
        for k in range(2):
            coef["cn", k] = self.bp.c * (SLOT_SIGN[k][a] + SLOT_SIGN[k][b])
            coef["g", k] = SLOT_SIGN[k][a] - SLOT_SIGN[k][b]
        if self._gdiag_constant:
            coef["dt_gamma"] = self.config.dt * (self._gd[a] + self._gd[b])
        else:
            for s in range(4):
                coef["count", s] = (a == s).astype(float) + (b == s)
        return coef

    def _relabel(self, members: np.ndarray) -> None:
        """Rewrite the per-member coefficients of ``members`` (nonadiabatic
        mode), whose labels a transition changed."""
        fresh = self._label_coefficients(self.alpha[members], self.alpha_prime[members])
        for key, value in fresh.items():
            self._coef[key].reshape(-1)[members] = value

    def _refresh_frames(self) -> None:
        self._blocks = tuple(slot_frames(self.sp, self.bp, k, q) if q.size else None for k, q in enumerate(self._q))
        if not self._gdiag_constant:
            self._gdiag = tuple(None if block is None else slot_gamma_diag(self.decay, block) for block in self._blocks)

    def _refresh_pair_caches(self) -> None:
        """Half kick, Bohr frequency and (R-dependent) decay rate of every
        member on the current frames, the latter two into fresh buffers: the
        previous ones stay readable as the step's starting values."""
        n, coef, dt = self.n_local, self._coef, self.config.dt
        for k, (block, columns) in enumerate(zip(self._blocks, self._cols)):
            if block is None:
                continue
            kick = self._kick_rows[k].reshape(-1, n)
            np.multiply(self._q[k].reshape(-1, n), -self._restore, out=kick)
            if self._pulls[k]:
                sz = block.sz.reshape(-1, n) if isinstance(block.sz, np.ndarray) else block.sz
                term = self._scratch[: kick.size].reshape(kick.shape)
                np.multiply(coef["cn", k][columns.start : columns.stop], sz, out=term)
                kick += term
            kick *= 0.5 * dt
        omega, self._omega_spare = self._omega_spare, self._omega
        self._omega = omega
        live = self._live
        np.copyto(omega, coef["mu"][live.start : live.stop])
        for k, (block, columns) in enumerate(zip(self._blocks, self._cols)):
            lo, hi = max(live.start, columns.start), min(live.stop, columns.stop)
            if lo >= hi:
                continue
            upper = block.upper.reshape(-1, n)[lo - columns.start : hi - columns.start]
            term = self._scratch[: upper.size].reshape(upper.shape)
            np.multiply(coef["g", k][lo:hi], upper, out=term)
            omega[lo - live.start : hi - live.start] += term
        if not self._gdiag_constant:
            gamma, self._gamma_spare = self._gamma_spare, self._gamma
            self._gamma = gamma
            gamma.fill(0.0)
            for k, (gd, columns) in enumerate(zip(self._gdiag, self._cols)):
                if gd is None:
                    continue
                upper, lower = (row.reshape(-1, n) for row in gd)
                part = coef["count", 2 * k][columns.start : columns.stop] * upper
                part += coef["count", 2 * k + 1][columns.start : columns.stop] * lower
                gamma[columns.start : columns.stop] += part

    def _refresh_member_rows(self, members: np.ndarray) -> None:
        """The pair caches of ``members`` alone (nonadiabatic mode), after a
        transition changed their labels.  Every cached entry is elementwise
        in its member and formed in the order of ``_refresh_pair_caches``,
        so this equals a full refresh bit for bit."""
        n, coef = self.n_local, self._coef
        omega = coef["mu"].reshape(-1)[members]
        gamma = None if self._gdiag_constant else np.zeros(members.size)
        for k, (block, columns) in enumerate(zip(self._blocks, self._cols)):
            if block is None:
                continue
            inside = (members >= columns.start * n) & (members < columns.stop * n)
            sel = members[inside]
            rows = sel - columns.start * n
            kick = self._q[k][rows] * -self._restore
            if self._pulls[k]:
                kick += coef["cn", k].reshape(-1)[sel] * (block.sz[rows] if isinstance(block.sz, np.ndarray) else block.sz)
            kick *= 0.5 * self.config.dt
            self._kick_rows[k][rows] = kick
            omega[inside] += coef["g", k].reshape(-1)[sel] * block.upper[rows]
            if gamma is not None:
                gd = self._gdiag[k]
                part = coef["count", 2 * k].reshape(-1)[sel] * gd[0, rows]
                part += coef["count", 2 * k + 1].reshape(-1)[sel] * gd[1, rows]
                gamma[inside] += part
        self._omega.reshape(-1)[members - self._live.start * n] = omega
        if gamma is not None:
            self._gamma.reshape(-1)[members] = gamma

    # -- time stepping ----------------------------------------------------

    def advance(self, n_steps: int) -> None:
        dt = self.config.dt
        over_mass = dt / self.bp.mass
        half_dt = 0.5 * dt
        phase = self.phase.reshape(-1, self.n_local)[self._live.start : self._live.stop]
        for _ in range(n_steps):
            # the half kick that ends one step starts the next: it is cached
            # with the frames, and refreshed wherever q or a label changes
            self.p += self._kick
            np.multiply(self.p, over_mass, out=self._scratch)
            self.q += self._scratch
            omega_old = self._omega
            gamma_old = None if self._gdiag_constant else self._gamma
            self._refresh_frames()
            self._refresh_pair_caches()
            self.p += self._kick
            # the previous frequency and rate buffers are spare from here on
            omega_old += self._omega
            omega_old *= half_dt
            phase += omega_old
            if gamma_old is None:  # configuration-independent rates
                self.decay_acc += self._coef["dt_gamma"]
            else:
                gamma_old += self._gamma
                gamma_old *= half_dt
                self.decay_acc += gamma_old
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

        The channels, in order, are the derivative couplings (upper to lower
        slot, then back, block A first, ket before bra) and the open decay
        channels, whose amplitudes are formed only for the open (s, t)
        entries.  Each is a record (side 0 = ket or 1 = bra, source, target,
        first member, amplitude, |amplitude|, coupling block or None) whose
        rows cover the members of the columns that store the blocks of both
        slots; no other member can hold its source label.  Its row is
        |amplitude| where the side's label, as the stage found it, equals
        the source, else 0.  One pass sums the rows in channel order into
        ``total``.  Only a member whose uniform times 1 + total falls below
        ``total`` hops, on the first channel where the running sum of its
        rows exceeds that product.  Every other member, frustrated ones
        included, gets the no-hop factor 1 + total.
        """
        n = self.weight.size
        labels = (self.alpha, self.alpha_prime)
        spans = [(columns.start * self.n_local, columns.stop * self.n_local) for columns in self._cols]
        channels = []
        for k, block in enumerate(self._blocks):
            if block is None or block.half_gap is None:
                continue
            amp = dt * (self._p[k] / self.bp.mass * slot_coupling(self.bp, block))
            mag = np.abs(amp)
            for s, t, a in ((2 * k, 2 * k + 1, amp), (2 * k + 1, 2 * k, -amp)):
                channels.append((0, s, t, spans[k][0], a, mag, k))
                channels.append((1, s, t, spans[k][0], a, mag, k))
        if self._gamma_channels:
            comps, entries = slot_vectors(self._blocks), {}
            for side, s, t in self._gamma_channels:
                key = (s, t) if side == "ket" else (t, s)
                lo = max(spans[s // 2][0], spans[t // 2][0])
                hi = min(spans[s // 2][1], spans[t // 2][1])
                if lo >= hi:
                    continue  # no column stores both blocks: no member holds s
                if key not in entries:
                    # the two slots' components on the members [lo, hi)
                    part = {
                        u: tuple(c[lo - spans[u // 2][0] : hi - spans[u // 2][0]] if np.ndim(c) else c for c in comps[u])
                        for u in key
                    }
                    amp = dt * _slot_entry(part, self.decay.matrix, *key, hi - lo)
                    entries[key] = amp, np.abs(amp)
                channels.append((0 if side == "ket" else 1, s, t, lo, *entries[key], None))
        if not channels:
            return
        masks = {}
        total = np.zeros(n)
        for side, s, _, lo, _, mag, _ in channels:
            if (side, s) not in masks:
                masks[side, s] = labels[side] == s
            total[lo : lo + mag.size] += np.where(masks[side, s][lo : lo + mag.size], mag, 0.0)
        scale = 1.0 + total
        u = self._hop_uniforms() * scale
        hit = np.flatnonzero(u < total)  # False for NaN: no hop
        weight0 = self.weight[hit]
        self.weight *= scale  # the no-hop factor; hops overwrite theirs below
        if not hit.size:
            return
        # a hit member outside a channel's rows reads a clipped row there,
        # masked off: it cannot hold the channel's source label
        rows = [
            np.where(masks[side, s][hit], mag[np.minimum(np.maximum(hit - lo, 0), mag.size - 1)], 0.0)
            for side, s, _, lo, _, mag, _ in channels
        ]
        choice = np.argmax(u[hit] < np.cumsum(rows, axis=0), axis=0)
        moved = []
        for c in np.unique(choice):
            side, s, t, lo, amp, mag, k = channels[c]
            sel = choice == c
            idx, w = hit[sel], weight0[sel]
            j = idx - lo
            factor = -scale[idx] * amp[j] / mag[j]
            if k is not None:
                energies = self._blocks[k].energies
                delta_e = energies[t % 2, j] - energies[s % 2, j]
                ok, p_new = _momentum_jump(self._p[k][j], delta_e, self.bp.mass)
                self.summary.n_frustrated += int(idx.size - np.count_nonzero(ok))
                idx, w, factor = idx[ok], w[ok], factor[ok]
                self._p[k][j[ok]] = p_new
            w *= factor  # in place: numpy rounds a one-element complex product differently out of place
            self.weight[idx] = w
            labels[side][idx] = t
            self.summary.n_hops += int(idx.size)
            moved.append(idx)
        # every cached row is elementwise in its member, so only the rows of
        # the members that hopped change
        moved = np.concatenate(moved)
        self._relabel(moved)
        self._refresh_member_rows(moved)

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
    """Each ``CONFIG_KEYS`` value of the run as a configuration file states
    it; a custom decay matrix or ket, which no key can state, reads "custom"."""
    params = {"sp": sp, "bp": bp, "decay": decay, "config": config}
    metadata = {}
    for key, (kind, owner, attr) in CONFIG_KEYS.items():
        value = getattr(params[owner], attr)
        if isinstance(value, DecayKind):
            value = value.value
        if value is None or (isinstance(kind, tuple) and value not in kind):
            value = "custom"
        metadata[key] = value
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
    only on the configuration and seed, never on the worker count.
    """
    started = time.perf_counter()
    bounds = [
        (s, min(s + CHUNK_SAMPLES, config.n_samples))
        for s in range(0, config.n_samples, CHUNK_SAMPLES)
    ]
    if threads > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda b: _chunk_accumulate(sp, bp, decay, config, b), bounds))
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

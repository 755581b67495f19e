"""Reduction of trajectory ensembles to subsystem observables, plus file IO.

The reduced density matrix is the sample mean of per-sample 4x4 matrices;
statistical errors are standard errors of the mean over the independent
samples.  Per-sample matrices are Hermitian and travel as ``ElementRows``:
one contiguous real row per real coordinate that can be nonzero.  Within a
chunk the sums run along those rows, with numpy's pairwise summation for
the means.
Moments are accumulated chunk by chunk with an exact pairwise
combination rule, so results are bitwise reproducible for a fixed chunk
layout no matter how many workers ran the chunks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .model import ReducedDensity

__all__ = [
    "ElementRows",
    "MomentAccumulator",
    "TimeRecord",
    "TimeSeries",
    "emit_plot_script",
    "read_csv",
    "write_csv",
]

# upper-triangle element order used in CSV columns
TRIANGLE = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
# flat entries of the strict upper triangle and of their transposes
ABOVE = [i * 4 + j for i, j in TRIANGLE if i != j]
BELOW = [j * 4 + i for i, j in TRIANGLE if i != j]


@dataclass(frozen=True)
class ElementRows:
    """Per-sample Hermitian 4x4 matrices stored as real coordinate rows.

    ``index`` holds the flat entries row * 4 + col, row <= col, that can be
    nonzero, ascending, and ``rows`` (m, n) their real coordinates over the
    n samples, C-contiguous: the real part of each entry of ``index``, then
    the imaginary part of each off-diagonal one (``off_diagonal``).  Every
    other coordinate is exactly 0 in every sample, and the lower triangle
    is the exact conjugate of the upper.  The record that
    ``EnsembleSnapshot.sample_matrices`` returns holds a view of its
    engine's buffer, valid until that engine's next ``sample_matrices``
    call; ``matrices()`` copies it out for a caller that keeps it.
    """

    index: tuple[int, ...]
    rows: np.ndarray

    @property
    def off_diagonal(self) -> list[int]:
        """The entries of ``index`` whose imaginary part has a row."""
        return [e for e in self.index if e % 5]

    @classmethod
    def from_matrices(cls, matrices: np.ndarray) -> "ElementRows":
        """The upper triangle of dense matrices, shape (n, 4, 4), as rows.

        Raises ValueError unless every matrix equals its conjugate transpose
        exactly, so that no lower-triangle value is lost."""
        if not np.array_equal(matrices, np.conj(matrices).transpose(0, 2, 1)):
            raise ValueError("per-sample matrices are not exactly Hermitian")
        flat = matrices.reshape(-1, 16)
        upper = tuple(i * 4 + j for i, j in TRIANGLE)
        rows = np.concatenate([flat[:, upper].real, flat[:, ABOVE].imag], axis=1)
        return cls(upper, np.ascontiguousarray(rows.T, dtype=float))

    def matrices(self) -> np.ndarray:
        """A fresh dense copy, shape (n, 4, 4)."""
        n, k = self.rows.shape[1], len(self.index)
        out = np.zeros((n, 16), dtype=complex)
        out.real[:, list(self.index)] = self.rows[:k].T
        out.imag[:, self.off_diagonal] = self.rows[k:].T
        out[:, BELOW] = np.conj(out[:, ABOVE])
        return out.reshape(n, 4, 4)


@dataclass
class MomentAccumulator:
    """Running mean and scatter of per-sample density matrices and traces."""

    count: int
    mean: np.ndarray        # (4, 4) complex
    m2: np.ndarray          # (4, 4) real, sum |x - mean|^2
    trace_mean: float
    trace_m2: float

    @classmethod
    def from_samples(cls, samples: ElementRows) -> "MomentAccumulator":
        """Moments of per-sample matrices given as real coordinate rows.

        The mean and scatter are taken over the live coordinate rows only,
        which the record may share with its engine (nothing is kept from
        them); every other entry has mean and scatter exactly 0.  Each row's
        scatter goes through one reused n-long buffer, cheaper than a
        temporary as large as the rows at every output, and skips a row that
        is all zero.  An off-diagonal entry's scatter is the sum of its two
        rows'.  The lower triangle's mean is the conjugate of the upper's and
        its scatter a copy, as the Hermitian rows imply.
        """
        index, rows, off = list(samples.index), samples.rows, samples.off_diagonal
        n, k = rows.shape[1], len(index)
        means, scatter, diff = rows.mean(axis=1), np.zeros(len(rows)), np.empty(n)
        for r, row in enumerate(rows):
            if means[r] != 0 or row.any():
                np.subtract(row, means[r], out=diff)
                scatter[r] = np.einsum("i,i->", diff, diff)
        mean, m2 = np.zeros(16, dtype=complex), np.zeros(16)
        mean.real[index], mean.imag[off] = means[:k], means[k:]
        m2[index] = scatter[:k]
        m2[off] += scatter[k:]
        mean[BELOW], m2[BELOW] = np.conj(mean[ABOVE]), m2[ABOVE]
        diagonal = [row for e, row in zip(index, rows) if e % 5 == 0]
        traces = sum(diagonal[1:], diagonal[0])  # every density matrix has a live diagonal entry
        tmean = float(traces.mean())
        tm2 = float(np.sum((traces - tmean) ** 2))
        return cls(count=n, mean=mean.reshape(4, 4), m2=m2.reshape(4, 4), trace_mean=tmean, trace_m2=tm2)

    def combine(self, other: "MomentAccumulator") -> "MomentAccumulator":
        """Exact pooled moments of two disjoint sample sets."""
        n = self.count + other.count
        delta = other.mean - self.mean
        frac = other.count / n
        mean = self.mean + delta * frac
        m2 = self.m2 + other.m2 + np.abs(delta) ** 2 * (self.count * frac)
        tdelta = other.trace_mean - self.trace_mean
        tmean = self.trace_mean + tdelta * frac
        tm2 = self.trace_m2 + other.trace_m2 + tdelta**2 * (self.count * frac)
        return MomentAccumulator(n, mean, m2, tmean, tm2)

    def density(self) -> ReducedDensity:
        if self.count > 1:
            stderr = np.sqrt(self.m2 / (self.count - 1) / self.count)
        else:
            stderr = np.zeros((4, 4))
        return ReducedDensity(elements=self.mean, stderr=stderr, n_samples=self.count)

    def trace_stderr(self) -> float:
        if self.count > 1:
            return float(np.sqrt(self.trace_m2 / (self.count - 1) / self.count))
        return 0.0


@dataclass(frozen=True)
class TimeRecord:
    t: float
    density: ReducedDensity
    trace_stderr: float


@dataclass
class TimeSeries:
    """Ordered reduced-density records plus the configuration that made them."""

    rows: list[TimeRecord]
    metadata: dict = field(default_factory=dict)

    @property
    def run_id(self) -> str:
        text = "\n".join(f"{k}={v}" for k, v in sorted(self.metadata.items()))
        return hashlib.sha1(text.encode()).hexdigest()[:12]

    def times(self) -> np.ndarray:
        return np.array([row.t for row in self.rows])

    def traces(self) -> np.ndarray:
        return np.array([np.real(row.density.trace) for row in self.rows])

    def validate(self) -> None:
        times = self.times()
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("time series must be strictly increasing in t")
        steps = self.metadata.get("steps")
        stride = self.metadata.get("output_stride")
        if steps is not None and stride is not None:
            expected = int(steps) // int(stride) + 1
            if len(self.rows) != expected:
                raise ValueError(f"expected {expected} rows, found {len(self.rows)}")
        for row in self.rows:
            row.density.validate()


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _header_columns() -> list[str]:
    cols = ["t", "trace_re", "trace_stderr"]
    for i, j in TRIANGLE:
        tag = f"{i + 1}{j + 1}"
        cols += [f"re_{tag}", f"im_{tag}", f"err_{tag}"]
    return cols


def write_csv(series: TimeSeries, destination) -> None:
    """Write the series; '#' comment lines carry the full configuration,
    values carry 17 significant digits so parsing them back is bit-exact."""
    lines = [f"# run_id={series.run_id}"]
    for key in sorted(series.metadata):
        lines.append(f"# {key}={series.metadata[key]}")
    lines.append(",".join(_header_columns()))
    for row in series.rows:
        e = row.density.elements
        s = row.density.stderr
        fields = [_fmt(row.t), _fmt(np.real(row.density.trace)), _fmt(row.trace_stderr)]
        for i, j in TRIANGLE:
            fields += [_fmt(e[i, j].real), _fmt(e[i, j].imag), _fmt(s[i, j])]
        lines.append(",".join(fields))
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w") as fh:
            fh.write(text)


def read_csv(path) -> TimeSeries:
    """Parse a file produced by ``write_csv`` (bit-exact round trip)."""
    metadata = {}
    rows = []
    header_seen = False
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, value = body.split("=", 1)
                    metadata[key.strip()] = value.strip()
                continue
            if not header_seen:
                header_seen = True
                continue
            vals = [float(x) for x in line.split(",")]
            t, trace_re, trace_err = vals[0], vals[1], vals[2]
            elements = np.zeros((4, 4), dtype=complex)
            stderr = np.zeros((4, 4))
            for k, (i, j) in enumerate(TRIANGLE):
                re, im, err = vals[3 + 3 * k : 6 + 3 * k]
                elements[i, j] = re + 1j * im
                stderr[i, j] = err
                if i != j:
                    elements[j, i] = re - 1j * im
                    stderr[j, i] = err
            n = int(metadata.get("samples", 0)) or 1
            rows.append(TimeRecord(t, ReducedDensity(elements, stderr, n), trace_err))
    metadata.pop("run_id", None)
    return TimeSeries(rows=rows, metadata=metadata)


# column numbers (1-based, for gnuplot) of selected observables
_COL_TRACE = (2, 3)
_COL_RHO11 = (4, 6)
_COL_RHO22 = (16, 18)


def emit_plot_script(series_files: list, style: str, labels: list[str] | None = None) -> str:
    """Gnuplot script reproducing one of the four reference figures.

    Every row of each file is plotted.  fig1/fig3 plot the trace, fig2 the
    |eg> population with a cumulative downward shift of 1.5 per curve, and
    fig4 both the |ee> and |eg> populations (the source figure is ambiguous
    about which it shows, so both are provided).
    """
    import os

    if style not in ("fig1", "fig2", "fig3", "fig4"):
        raise ValueError(f"unknown style {style!r}")
    missing = [str(f) for f in series_files if not os.path.exists(str(f))]
    if missing:
        raise FileNotFoundError(f"missing series files: {missing}")
    labels = labels or [os.path.basename(str(f)) for f in series_files]

    lines = [
        "set datafile separator ','",
        "set xlabel 't'",
        "set key top right",
        "set style data yerrorlines",
    ]
    plots = []
    if style in ("fig1", "fig3"):
        lines.append("set ylabel 'trace of reduced density matrix'")
        c, e = _COL_TRACE
        for f, lab in zip(series_files, labels):
            plots.append(f"'{f}' using 1:{c}:{e} title '{lab}'")
    elif style == "fig2":
        lines.append("set ylabel 'population of |eg> (curves shifted by -1.5 each)'")
        c, e = _COL_RHO22
        for k, (f, lab) in enumerate(zip(series_files, labels)):
            shift = 1.5 * k
            plots.append(f"'{f}' using 1:(${c}-{_fmt(shift)}):{e} title '{lab}'")
    else:  # fig4
        lines.append("set ylabel 'diagonal populations'")
        for f, lab in zip(series_files, labels):
            c, e = _COL_RHO11
            plots.append(f"'{f}' using 1:{c}:{e} title '{lab} |ee>'")
            c, e = _COL_RHO22
            plots.append(f"'{f}' using 1:{c}:{e} title '{lab} |eg>'")
    lines.append("plot \\")
    lines.append(", \\\n".join("    " + p for p in plots))
    lines.append("pause -1")
    return "\n".join(lines) + "\n"

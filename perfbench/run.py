"""nhqc benchmark: run one workload through simulate + write_csv and report.

    python3 perfbench/run.py --workload fig1-dense --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times whole operations (one operation is one
``nhqc.propagator.simulate`` call followed by ``nhqc.observables.write_csv``,
plus its correctness checks), as many as fit in ``--seconds`` but at least
three, each between two passes of a fixed calibration kernel, and reports
their times in reference seconds (see ``calibrate.py``) as medians.  With
``--trace 1`` it runs untraced/traced pairs the same way and reports the
per-layer split measured by ``tracer.Tracer``.  The last line of standard
output is one JSON object with keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it is a JSON ``context`` record (versions,
seed, diagnostics, raw timings).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy

from calibrate import Calibration, in_reference_s
from tracer import Tracer
from workloads import ROOT, WORKLOADS, Workload, apply_d1_shim, check_output, load_nhqc

OUT_DIR = ROOT / "perfbench" / ".out"
SETUP_PROBES = 5
MIN_OPS = 3  # a median that rejects one outlier
PROBE_TIMEOUT_S = 120
# Per-layer times reported in the context line only: slot_coupling runs in
# nonadiabatic mode alone, so its time reads exactly 0 s on the other two
# workloads, and it is under 1 % of the one that calls it.
CONTEXT_ONLY = ("adiabatic.slot_coupling.s",)


@dataclass
class Op:
    """One operation: a simulate + write_csv call and its checks."""

    wall: float = float("nan")
    cpu: float = float("nan")
    sha: str = ""
    failures: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    summary: object = None
    raised: bool = False


def run_op(nhqc, workload: Workload, seed: int, path: Path, tracer: Tracer | None = None) -> Op:
    sp, bp, decay, config = workload.params(nhqc, seed)
    op = Op()
    try:
        with tracer if tracer is not None else nullcontext():
            w0, c0 = time.perf_counter(), time.process_time()
            series, op.summary = nhqc.propagator.simulate(sp, bp, decay, config, threads=workload.threads)
            nhqc.observables.write_csv(series, path)
            op.wall, op.cpu = time.perf_counter() - w0, time.process_time() - c0
    except Exception:
        traceback.print_exc()
        op.failures.append("raised: " + traceback.format_exc(limit=1).strip().splitlines()[-1])
        op.raised = True
        return op
    op.sha = hashlib.sha256(path.read_bytes()).hexdigest()
    op.failures, op.diagnostics = check_output(nhqc, workload, series, decay)
    return op


def setup(nhqc, workload: Workload, seed: int, run_dir: Path) -> None:
    """First-call set-up: one tiny run with the workload's own parameters."""
    op = run_op(nhqc, workload.warmup(), seed, run_dir / "warmup.csv")
    if op.raised:
        raise RuntimeError(f"warm-up failed: {op.failures[0]}")


def probe_setup_s(workload: Workload, seed: int) -> float:
    """Time from starting a fresh interpreter until it has imported nhqc and
    finished set-up, as a child process reports it ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload.name, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def _fits(start: float, seconds: float, rounds: list[float]) -> bool:
    """Whether one more round, as long as the median of ``rounds``, still
    ends within ``seconds`` of ``start``."""
    return bool(rounds) and time.perf_counter() - start + statistics.median(rounds) <= seconds


def measure_timed(nhqc, workload: Workload, seed: int, seconds: float, run_dir: Path):
    """One operation, before the calibration kernel allocates its arrays,
    gives ``peak_rss_mb``.  Then set-up probes and operations each run
    between two calibration passes (cal, probe, cal, ..., probe, cal, op,
    cal, op, ..., cal), and their times are reported in reference seconds,
    which cancels drift in the machine's speed."""
    setup(nhqc, workload, seed, run_dir)
    ops = [run_op(nhqc, workload, seed, run_dir / "op0.csv")]
    if ops[0].raised:
        return ops, None, {}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cal = Calibration()
    cal.run()  # warm-up
    probe_cals = [cal.run()]
    probes: list[float] = []
    for _ in range(SETUP_PROBES):
        probes.append(probe_setup_s(workload, seed))
        probe_cals.append(cal.run())
    timed: list[Op] = []
    cals = [probe_cals[-1]]
    rounds: list[float] = []
    start = time.perf_counter()
    while len(timed) < MIN_OPS or _fits(start, seconds, rounds):
        op = run_op(nhqc, workload, seed, run_dir / f"op{len(ops)}.csv")
        ops.append(op)
        if op.raised:
            break
        timed.append(op)
        cals.append(cal.run())
        rounds.append(op.wall + cals[-1][0])
    if not timed:
        return ops, None, {}
    cal_walls = [wall for wall, _ in cals]
    wall_ref = in_reference_s([op.wall for op in timed], cal_walls)
    cpu_ref = in_reference_s([op.cpu for op in timed], [cpu for _, cpu in cals])
    metrics = {
        "wall_ref_s": (statistics.median(wall_ref), "s"),
        "cpu_ref_s": (statistics.median(cpu_ref), "s"),
        "setup_s": (statistics.median(in_reference_s(probes, [wall for wall, _ in probe_cals])), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw = {
        "wall_s": statistics.median(op.wall for op in timed),
        "cpu_s": statistics.median(op.cpu for op in timed),
        "setup_s": statistics.median(probes),
        "calibration_wall_s": [wall for wall, _ in probe_cals] + cal_walls[1:],
        "wall_ref_s_per_op": wall_ref,
    }
    return ops, metrics, raw


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, op: Op, untraced_wall: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced operation, and what was absent."""
    busy = tracer.busy()
    absent = tracer.absent_layers()

    def secs(layer):
        return busy.get(layer, 0.0)

    def count(layer, key):
        return tracer.counts.get(layer, {}).get(key, 0)

    def summary(name):
        value = getattr(op.summary, name, None)
        if value is None:
            absent.append(f"RunSummary.{name}")
            return 0
        return value

    hops, frustrated = summary("n_hops"), summary("n_frustrated")
    draws = count("sampler", "draws")
    points = count("adiabatic.slot_frames", "points")
    member_steps = count("propagator.advance", "member_steps")
    top_busy = sum(s.end - s.start for s in tracer.top_level())
    metrics = {
        "sampler.draws": (draws, "count"),
        "sampler.s": (secs("sampler"), "s"),
        "sampler.us_per_draw": (_ratio(secs("sampler") * 1e6, draws), "us"),
        "adiabatic.slot_frames.calls": (count("adiabatic.slot_frames", "calls"), "count"),
        "adiabatic.slot_frames.points": (points, "count"),
        "adiabatic.slot_frames.s": (secs("adiabatic.slot_frames"), "s"),
        "adiabatic.slot_frames.ns_per_point": (_ratio(secs("adiabatic.slot_frames") * 1e9, points), "ns"),
        "adiabatic.slot_vectors.s": (secs("adiabatic.slot_vectors"), "s"),
        "adiabatic.slot_coupling.s": (secs("adiabatic.slot_coupling"), "s"),
        "adiabatic.slot_gamma_diag.s": (secs("adiabatic.slot_gamma_diag"), "s"),
        "propagator.init.s": (secs("propagator.init"), "s"),
        "propagator.advance.s": (secs("propagator.advance"), "s"),
        "propagator.advance.self_s": (tracer.self_time("propagator.advance"), "s"),
        "propagator.member_steps": (member_steps, "count"),
        "propagator.ns_per_member_step": (_ratio(secs("propagator.advance") * 1e9, member_steps), "ns"),
        "propagator.hops": (hops, "count"),
        "propagator.frustrated": (frustrated, "count"),
        "propagator.hop_accept_ratio": (_ratio(hops, hops + frustrated), "ratio"),
        "propagator.members": (summary("n_members"), "count"),
        "propagator.reduce.s": (secs("propagator.reduce"), "s"),
        "observables.moments.s": (secs("observables.moments"), "s"),
        "observables.moments.calls": (count("observables.moments", "calls"), "count"),
        "observables.csv.s": (secs("observables.csv"), "s"),
        "observables.csv.bytes": (count("observables.csv", "bytes"), "bytes"),
        "propagator.concurrency": (_ratio(top_busy, op.wall), "ratio"),
        "trace.unattributed_s": (op.wall - tracer.covered(), "s"),
        "trace.overhead_s": (op.wall - untraced_wall, "s"),
    }
    return metrics, absent


def measure_traced(nhqc, workload: Workload, seed: int, seconds: float, run_dir: Path):
    setup(nhqc, workload, seed, run_dir)
    ops: list[Op] = []
    per_op: list[dict] = []
    absent: list[str] = []
    start = time.perf_counter()
    pair_walls: list[float] = []
    while not per_op or _fits(start, seconds, pair_walls):
        plain = run_op(nhqc, workload, seed, run_dir / f"op{len(ops)}.csv")
        ops.append(plain)
        if plain.raised:
            break
        tracer = Tracer()
        traced = run_op(nhqc, workload, seed, run_dir / f"op{len(ops)}.csv", tracer)
        ops.append(traced)
        if traced.raised:
            break
        metrics, absent = layer_metrics(tracer, traced, plain.wall)
        per_op.append(metrics)
        pair_walls.append(plain.wall + traced.wall)
    if not per_op:
        return ops, None, absent
    metrics = {
        name: (statistics.median(m[name][0] for m in per_op), unit)
        for name, (_, unit) in per_op[0].items()
    }
    return ops, metrics, absent


def context(nhqc, workload: Workload, seed: int, d1_shim: bool) -> dict:
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "d1_shim": d1_shim,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "chunk_samples": getattr(nhqc.propagator, "CHUNK_SAMPLES", None),
        "threads": workload.threads,
        "samples": workload.samples,
        "steps": workload.steps,
        "output_stride": workload.stride,
        "mode": workload.mode,
    }


def probe(args) -> int:
    nhqc = load_nhqc()
    apply_d1_shim(nhqc)
    run_dir = OUT_DIR / f"probe-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup(nhqc, WORKLOADS[args.workload], args.seed, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print("ready", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.probe:
        return probe(args)

    try:
        nhqc = load_nhqc()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    d1_shim = apply_d1_shim(nhqc)
    run_dir = OUT_DIR / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    absent: list[str] = []
    raw: dict = {}
    try:
        if args.trace:
            ops, metrics, absent = measure_traced(nhqc, workload, args.seed, args.seconds, run_dir)
        else:
            ops, metrics, raw = measure_timed(nhqc, workload, args.seed, args.seconds, run_dir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            OUT_DIR.rmdir()
        except OSError:
            pass  # other runs still use it
    if metrics is None:
        print("error: no operation completed", file=sys.stderr)
        return 1

    reference = next((op.sha for op in ops if op.sha), "")
    failed = 0
    for op in ops:
        if op.sha and op.sha != reference:
            op.failures.append("csv sha256 differs from the first operation of this run")
        failed += bool(op.failures)
    info = context(nhqc, workload, args.seed, d1_shim)
    if args.trace:
        info["context_only_metrics"] = {name: metrics.pop(name)[0] for name in CONTEXT_ONLY}
    info.update({
        "error_rate": failed / len(ops),
        "failures": sorted({f for op in ops for f in op.failures}),
        "diagnostics": ops[0].diagnostics,
        "csv_sha256": reference,
        "op_wall_s": [None if op.raised else op.wall for op in ops],
        "absent": absent,
        "raw_timings": raw,
    })
    print(json.dumps({"context": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: configuration files, runs, figure presets, checks."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .model import (
    REFERENCE_BP,
    REFERENCE_SP,
    BathParams,
    DecaySpec,
    SimConfig,
    SpinChainParams,
    decay_operator,
)
from .observables import TimeSeries, emit_plot_script, write_csv
from .propagator import simulate

__all__ = ["ConfigError", "main", "parse_config", "preset", "run"]


class ConfigError(ValueError):
    """Bad configuration file or value."""


_FLOAT_KEYS = ("jx", "jy", "jz", "c", "mass", "omega", "beta", "gamma", "dt")
_INT_KEYS = ("steps", "samples", "seed", "output_stride")
_ENUM_KEYS = {
    "gamma_kind": ("identity", "projector_ee"),
    "mode": ("adiabatic", "nonadiabatic"),
    "initial_state": ("phi", "psi"),
}
_ALL_KEYS = set(_FLOAT_KEYS) | set(_INT_KEYS) | set(_ENUM_KEYS)
_DEFAULTS = {"mass": 1.0, "omega": 1.0, "dt": 0.01, "samples": 50_000, "mode": "adiabatic", "output_stride": 1}
_MANDATORY = ("jx", "jy", "jz", "c", "beta", "gamma_kind", "gamma", "steps", "seed", "initial_state")


def parse_config(source) -> tuple[SpinChainParams, BathParams, DecaySpec, SimConfig]:
    """Parse key=value configuration lines from a file path or a sequence.

    Unknown or duplicate keys, malformed lines and invalid values are
    rejected with their line number; '#' starts a comment.
    """
    if isinstance(source, (str, Path)):
        try:
            lines = Path(source).read_text().splitlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
    else:
        lines = list(source)

    values: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            if key in _FLOAT_KEYS:
                values[key] = float(text)
            elif key in _INT_KEYS:
                values[key] = int(text)
            else:
                text = text.lower()
                if text not in _ENUM_KEYS[key]:
                    raise ValueError(f"must be one of {_ENUM_KEYS[key]}")
                values[key] = text
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc

    missing = [k for k in _MANDATORY if k not in values]
    if missing:
        raise ConfigError(f"missing mandatory keys: {', '.join(missing)}")
    merged = {**_DEFAULTS, **values}
    try:
        sp = SpinChainParams(jx=merged["jx"], jy=merged["jy"], jz=merged["jz"])
        bp = BathParams(mass=merged["mass"], omega=merged["omega"], c=merged["c"], beta=merged["beta"])
        decay = decay_operator(merged["gamma_kind"], merged["gamma"])
        config = SimConfig(
            n_steps=merged["steps"],
            seed=merged["seed"],
            dt=merged["dt"],
            n_samples=merged["samples"],
            mode=merged["mode"],
            initial_state=merged["initial_state"],
            output_stride=merged["output_stride"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return sp, bp, decay, config


def _apply_seed_override(config: SimConfig) -> SimConfig:
    env = os.environ.get("NHQC_SEED")
    if env is None:
        return config
    try:
        seed = int(env)
    except ValueError as exc:
        raise ConfigError(f"NHQC_SEED must be an integer, got {env!r}") from exc
    try:
        return replace(config, seed=seed)
    except ValueError as exc:
        raise ConfigError(f"NHQC_SEED: {exc}") from exc


def check_run_invariants(series: TimeSeries, decay: DecaySpec) -> None:
    """Verify the run-level guarantees instead of assuming them."""
    series.validate()
    traces = series.traces()
    if decay.positive_semidefinite and np.any(np.diff(traces) > 1e-12):
        raise ValueError("trace increased under a positive semidefinite decay operator")


def run(config_path, out_dir, threads: int = 1) -> int:
    """Execute one configured run and write its time series as CSV."""
    try:
        sp, bp, decay, config = parse_config(config_path)
        config = _apply_seed_override(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    series, summary = simulate(sp, bp, decay, config, threads=threads)
    try:
        check_run_invariants(series, decay)
    except ValueError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    target = out / f"run-{series.run_id}.csv"
    write_csv(series, target)
    last = series.rows[-1]
    print(f"wrote {target}")
    print(
        f"final trace {np.real(last.density.trace):.6f} +- {last.trace_stderr:.2e} at t={last.t:g}; "
        f"{summary.n_members} members, "
        f"{summary.n_hops} hops ({summary.n_frustrated} frustrated), "
        f"wall time {summary.wall_time:.1f} s"
    )
    return 0


PRESETS = {
    "fig1": ("identity", "phi", (0.0, 0.1, 0.5, 1.0)),
    "fig2": ("identity", "phi", (0.0, 0.1, 0.5, 1.0)),
    "fig3": ("projector_ee", "psi", (0.001, 0.01, 0.1)),
    "fig4": ("projector_ee", "psi", (0.001, 0.01, 0.1)),
}
PRESET_SEED = 20107


def preset(name: str, out_dir, seed: int | None = None, samples: int = 50_000, threads: int = 1) -> int:
    """Run one of the reference sweeps and emit its data and plot script.

    Sweeps use the reference couplings (jx = jy = -1, jz = 0.5, c = 0.24,
    beta = 0.1, dt = 0.01) over t in [0, 10]; with default arguments the
    result is a pure function of (name, seed).
    """
    if name not in PRESETS:
        print(f"error: unknown preset {name!r}", file=sys.stderr)
        return 2
    kind, state, gammas = PRESETS[name]
    try:
        config = SimConfig(
            n_steps=1000,
            seed=PRESET_SEED if seed is None else seed,
            dt=0.01,
            n_samples=samples,
            initial_state=state,
        )
        config = _apply_seed_override(config)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files, labels = [], []
    for g in gammas:
        decay = decay_operator(kind, g)
        series, summary = simulate(REFERENCE_SP, REFERENCE_BP, decay, config, threads=threads)
        check_run_invariants(series, decay)
        path = out / f"{name}_gamma{g:g}.csv"
        write_csv(series, path)
        files.append(str(path))
        labels.append(f"gamma={g:g}")
        print(f"wrote {path} ({summary.wall_time:.1f} s)")
    script = emit_plot_script(files, name, labels=labels)
    script_path = out / f"{name}.gp"
    script_path.write_text(script)
    print(f"wrote {script_path}")
    return 0


def check(quick: bool = False) -> int:
    """Run the acceptance criteria and print one verdict line per criterion."""
    from .acceptance import run_all

    results = run_all(quick=quick)
    for res in results:
        mark = "PASS" if res.passed else "FAIL"
        print(f"[{mark}] criterion {res.number}: {res.name} -- {res.detail}")
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nhqc",
        description="Trajectory-ensemble simulator for open two-spin dynamics with probability decay",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured simulation")
    p_run.add_argument("--config", required=True, help="key=value configuration file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--threads", type=int, default=1, help="worker threads (output-invariant)")

    p_preset = sub.add_parser("preset", help="run a reference figure sweep")
    p_preset.add_argument("name", choices=sorted(PRESETS))
    p_preset.add_argument("--out", required=True)
    p_preset.add_argument("--seed", type=int, default=None)
    p_preset.add_argument("--samples", type=int, default=50_000)
    p_preset.add_argument("--threads", type=int, default=1)

    p_check = sub.add_parser("check", help="run the acceptance suite")
    p_check.add_argument("--quick", action="store_true", help="reduced sizes (smoke test, not the gate)")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.out, threads=args.threads)
    if args.command == "preset":
        return preset(args.name, args.out, seed=args.seed, samples=args.samples, threads=args.threads)
    return check(quick=args.quick)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Runs a preset (optionally overridden flag by flag), writes the population
trace as CSV plus a JSON run manifest, and optionally emits the compiled
per-step circuit in the textual IR.  A separate mode prints closed-form
resource tallies.

Exit codes: 0 success, 2 configuration error, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, compiler, engine, isa, model, presets

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="vibrosim",
        description="Hybrid oscillator-qubit simulation of dissipative "
                    "three-chromophore dynamics")
    p.add_argument("--preset", choices=presets.PRESET_NAMES,
                   help="named experiment to run")
    p.add_argument("--config", metavar="JSON",
                   help="chemical parameter file overriding the bundled set")
    p.add_argument("--tau-fs", type=float, help="Trotter step in fs")
    p.add_argument("--steps", type=int, help="number of Trotter steps")
    p.add_argument("--fock", type=int, help="Fock cutoff per mode")
    p.add_argument("--shots", type=int, help="Monte-Carlo shots")
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument("--threads", type=int, help="worker threads for shots")
    p.add_argument("--out", metavar="DIR", help="output directory")
    p.add_argument("--emit-circuit", action="store_true",
                   help="also write the compiled step circuit IR")
    p.add_argument("--resources", type=int, metavar="N",
                   help="print per-step gate tallies for an N-site array")
    p.add_argument("--arch", choices=("transmon", "cavity"),
                   default="transmon", help="architecture for --resources")
    p.add_argument("--noise-cnot", type=float, metavar="EPS",
                   help="stochastic CNOT error strength")
    p.add_argument("--noise-cd", action="store_true",
                   help="enable conditional-displacement noise")
    for s in ("all",) + model.SITES:
        p.add_argument(f"--gamma-amp-{s}", type=float,
                       help=f"amplitude damping rate (1/s), site {s}")
        p.add_argument(f"--gamma-dep-{s}", type=float,
                       help=f"dephasing rate (1/s), site {s}")
    p.add_argument("--exact-angles", choices=("on", "off"), default="on",
                   help="exact vs first-order dilation angles")
    return p


def _three_site_flags(args):
    """(flag, value) of every option only the three-site model reads."""
    yield "--config", args.config
    yield "--fock", args.fock
    yield "--noise-cd", args.noise_cd or None
    for kind in ("amp", "dep"):
        for s in ("all",) + model.SITES:
            yield f"--gamma-{kind}-{s}", getattr(args, f"gamma_{kind}_{s}")


def _resolve_spec(args) -> presets.ExperimentSpec:
    if not args.preset:
        raise ConfigError("--preset is required unless --resources is used")
    spec = presets.preset(args.preset)
    if spec.kind == "spin_boson":
        ignored = [flag for flag, val in _three_site_flags(args)
                   if val is not None]
        if ignored:
            raise ConfigError(f"--preset {args.preset} does not use "
                              f"{', '.join(ignored)}")
    if spec.name == "appD" and args.emit_circuit:
        raise ConfigError("--preset appD runs a convergence sweep and writes "
                          "no circuit; drop --emit-circuit")
    if args.config:
        try:
            spec.params = model.ChromophoreParams.from_json(args.config)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            raise ConfigError(f"bad --config file: {exc}") from exc
    if args.tau_fs is not None:
        if args.tau_fs <= 0:
            raise ConfigError("--tau-fs must be positive")
        spec.tau = args.tau_fs * 1e-15
    for name in ("steps", "fock", "shots", "seed", "threads"):
        val = getattr(args, name)
        if val is None:
            continue
        if val < 0 or (val == 0 and name not in ("seed",)):
            raise ConfigError(f"--{name} must be positive")
        attr = {"steps": "n_steps", "fock": "n_fock"}.get(name, name)
        setattr(spec, attr, val)

    noise = spec.noise
    if args.noise_cnot is not None:
        if not 0.0 <= args.noise_cnot <= 1.0:
            raise ConfigError("--noise-cnot must be in [0, 1]")
        noise = dataclasses.replace(noise, cnot_epsilon=args.noise_cnot)
    if args.noise_cd:
        noise = dataclasses.replace(noise, cd_enabled=True)
    spec.noise = noise
    spec.exact_angles = args.exact_angles == "on"

    for kind, store in (("amp", spec.gamma_amp), ("dep", spec.gamma_dep)):
        all_val = getattr(args, f"gamma_{kind}_all")
        if all_val is not None:
            for s in model.SITES:
                store[s] = all_val
        for s in model.SITES:
            val = getattr(args, f"gamma_{kind}_{s}")
            if val is not None:
                store[s] = val
        for s, v in store.items():
            if v < 0:
                raise ConfigError(f"gamma_{kind}_{s} must be >= 0")
    if spec.name == "appD":   # the sweep compares traces point by point
        spec.record_every = 4
        points = [presets.sweep_point(spec, "tau", v)
                  for v in _sweep_axes(spec)["tau"]]
        grids = {tuple(p.tau / spec.tau * np.arange(0, p.n_steps + 1,
                                                     p.record_every))
                 for p in points}   # in units of tau: exact, ratios are 2^k
        if len(grids) > 1:
            raise ConfigError(f"--steps {spec.n_steps} records the "
                              "convergence sweep's tau, 2 tau and 4 tau runs "
                              "on different time grids; use a multiple of 4")
    return spec


def _write_manifest(out: Path, spec: presets.ExperimentSpec, extra: dict):
    manifest = {
        "tool": "vibrosim",
        "version": __version__,
        "preset": spec.name,
        "kind": spec.kind,
        "tau_s": spec.tau,
        "n_steps": spec.n_steps,
        "n_fock": spec.n_fock,
        "shots": spec.shots,
        "seed": spec.seed,
        "threads": spec.threads,
        "exact_angles": spec.exact_angles,
        "lowfreq_split": spec.lowfreq_split,
        "gamma_amp": spec.gamma_amp,
        "gamma_dep": spec.gamma_dep,
        "noise": dataclasses.asdict(spec.noise),
    }
    if spec.kind == "three_site":
        params = spec.params or model.default_params()
        manifest["chemical_params"] = params.to_dict()
        manifest["effective_params"] = model.derive_effective(params).to_dict()
    else:
        manifest["spin_boson"] = dataclasses.asdict(spec.spin_boson)
        manifest["rates"] = model.lindblad_rates(spec.spin_boson)
    manifest.update(extra)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n",
                                       encoding="utf-8")


def _sweep_axes(spec: presets.ExperimentSpec) -> dict:
    return {
        "tau": [spec.tau, 2 * spec.tau, 4 * spec.tau],
        "shots": [spec.shots, spec.shots // 2, spec.shots // 4],
        "fock": [spec.n_fock, max(2, spec.n_fock - 1), 2],
    }


def _run_convergence(spec: presets.ExperimentSpec, out: Path) -> dict:
    tables = {axis: presets.sweep_convergence(spec, axis, values,
                                              seed0=spec.seed + 100)
              for axis, values in _sweep_axes(spec).items()}
    (out / "convergence.json").write_text(
        json.dumps(tables, indent=2) + "\n", encoding="utf-8")
    with open(out / "convergence.csv", "w", encoding="utf-8") as fh:
        fh.write("axis,value,rmse_percent,normalized\n")
        for axis, tab in tables.items():
            for v, r, n in zip(tab["values"], tab["rmse_percent"],
                               tab["normalized"]):
                fh.write(f"{axis},{v:.9g},{r:.9g},{n:.9g}\n")
    return {"outputs": ["convergence.json", "convergence.csv"]}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.resources is not None:
            arch = "cavity_only" if args.arch == "cavity" else "transmon"
            tallies = compiler.resource_count(args.resources, arch)
            print(json.dumps({"n_sites": args.resources, "architecture": arch,
                              "per_step": tallies}, indent=2))
            return EXIT_OK
        spec = _resolve_spec(args)
        if not args.out:
            raise ConfigError("--out is required to run an experiment")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        if spec.name == "appD":
            extra = _run_convergence(spec, out)
            _write_manifest(out, spec, extra)
            return EXIT_OK
        program = spec.build_program()
        if args.emit_circuit:
            (out / "circuit.txt").write_text(
                isa.circuit_to_text(program.step_ops), encoding="utf-8")
        trace = engine.run_experiment(
            program, spec.n_steps, spec.shots, spec.seed, noise=spec.noise,
            record_every=spec.record_every, threads=spec.threads)
        trace.to_csv(out / "populations.csv")
        extra = {"outputs": ["populations.csv"]
                 + (["circuit.txt"] if args.emit_circuit else [])}
        _write_manifest(out, spec, extra)
    except (FloatingPointError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:   # e.g. a noise probability above 1
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

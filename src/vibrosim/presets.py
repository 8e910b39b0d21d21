"""Canned experiment configurations and ensemble/convergence analysis.

Each preset mirrors one of the published experiments: the spin-boson
validation, the non-dissipative three-site dynamics, the engineered
damping/dephasing variants, the hardware-noise studies and the
convergence sweep.  Presets only bundle defaults -- every knob can be
overridden from the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import compiler, engine, model

GAMMA_AMP_DEFAULT = 3.15e12   # published 105 cm^-1 damping rate
GAMMA_DEP_DEFAULT = 9.00e11   # published 30 cm^-1 (77 K) dephasing rate


@dataclass
class ExperimentSpec:
    """Fully resolved configuration of one simulation run."""

    name: str
    kind: str                      # "three_site" | "spin_boson"
    tau: float = 1.0e-14
    n_steps: int = 200
    n_fock: int = 8
    shots: int = 10_000
    seed: int = 7
    threads: int = 1
    record_every: int = 1
    initial_site: str = "a"
    exact_angles: bool = True
    lowfreq_split: str = "printed"
    gamma_amp: dict = field(default_factory=dict)   # site -> rate
    gamma_dep: dict = field(default_factory=dict)
    noise: engine.NoiseModel = field(default_factory=engine.NoiseModel)
    params: model.ChromophoreParams | None = None
    spin_boson: model.SpinBosonParams = field(
        default_factory=model.SpinBosonParams)

    def rates_by_site(self) -> dict:
        rates: dict = {}
        for s in model.SITES:
            site_rates = {}
            if self.gamma_amp.get(s):
                site_rates["amp"] = self.gamma_amp[s]
            if self.gamma_dep.get(s):
                site_rates["dep"] = self.gamma_dep[s]
            if site_rates:
                rates[s] = site_rates
        return rates

    def build_program(self) -> compiler.CompiledProgram:
        if self.kind == "spin_boson":
            return compiler.compile_spin_boson_step(
                self.spin_boson, self.tau, exact_angles=self.exact_angles)
        params = self.params or model.default_params()
        ep = model.derive_effective(params)
        return compiler.compile_step(
            ep, self.tau, self.n_fock,
            rates_by_site=self.rates_by_site(),
            initial_site=self.initial_site,
            exact_angles=self.exact_angles,
            lowfreq_split=self.lowfreq_split)

    def run(self) -> engine.PopulationTrace:
        return engine.run_experiment(
            self.build_program(), self.n_steps, self.shots, self.seed,
            noise=self.noise, record_every=self.record_every,
            threads=self.threads)


def _uniform(rate: float) -> dict:
    return {s: rate for s in model.SITES}


def preset(name: str) -> ExperimentSpec:
    """Default configuration of a named experiment."""
    if name == "fig3":
        return ExperimentSpec(name=name, kind="spin_boson", tau=1.0e-14,
                              n_steps=100, shots=2000, n_fock=0)
    if name == "fig4":
        return ExperimentSpec(name=name, kind="three_site")
    if name == "fig5":
        return ExperimentSpec(name=name, kind="three_site",
                              gamma_amp=_uniform(GAMMA_AMP_DEFAULT))
    if name == "fig6":
        return ExperimentSpec(name=name, kind="three_site",
                              gamma_dep=_uniform(GAMMA_DEP_DEFAULT))
    if name == "fig8":
        return ExperimentSpec(name=name, kind="three_site",
                              gamma_amp=_uniform(GAMMA_AMP_DEFAULT),
                              gamma_dep=_uniform(GAMMA_DEP_DEFAULT))
    if name == "fig9":
        return ExperimentSpec(name=name, kind="three_site",
                              noise=engine.NoiseModel(cnot_epsilon=1e-3))
    if name == "fig10":
        return ExperimentSpec(name=name, kind="three_site",
                              noise=engine.NoiseModel(cd_enabled=True))
    if name == "appD":
        # reduced-footprint defaults; the sweep scales each axis from here
        return ExperimentSpec(name=name, kind="three_site", n_fock=4,
                              shots=2000, n_steps=100)
    raise ValueError(f"unknown preset {name!r}")


PRESET_NAMES = ("fig3", "fig4", "fig5", "fig6", "fig8", "fig9", "fig10",
                "appD")


# ---------------------------------------------------------------------------
# trace comparison / convergence analysis
# ---------------------------------------------------------------------------

def trace_rmse(a: engine.PopulationTrace, b: engine.PopulationTrace,
               percent: bool = True) -> np.ndarray:
    """Per-readout-qubit RMSE between two traces on a common grid."""
    if a.p.shape != b.p.shape:
        raise ValueError("traces have different shapes")
    out = np.sqrt(np.mean((a.p - b.p) ** 2, axis=0))
    return 100.0 * out if percent else out


def ensemble_mean(traces) -> engine.PopulationTrace:
    """Average the populations of an ensemble of same-shape traces."""
    p = np.mean([t.p for t in traces], axis=0)
    shots = sum(t.shots for t in traces)
    se = np.sqrt(p * (1.0 - p) / shots)
    first = traces[0]
    return engine.PopulationTrace(times_s=first.times_s, p=p, se=se,
                                  shots=shots, labels=first.labels)


def ensemble_rmse(group_a, group_b) -> float:
    """Scalar percent RMSE between two ensemble means (qubits averaged)."""
    return float(np.mean(trace_rmse(ensemble_mean(group_a),
                                    ensemble_mean(group_b))))


def run_ensemble(spec: ExperimentSpec, n_runs: int, seed0: int):
    """Independent runs of a spec with consecutive seeds."""
    return [replace(spec, seed=seed0 + i).run() for i in range(n_runs)]


def sweep_point(base: ExperimentSpec, axis: str, value) -> ExperimentSpec:
    """``base`` with one sweep axis set to ``value``; on the ``tau`` axis
    the step count and the record interval are rescaled to keep the total
    evolved time and the recording period."""
    if axis == "tau":
        total = base.tau * base.n_steps
        t_rec = base.tau * base.record_every
        n_steps = max(1, int(round(total / value)))
        rec = max(1, int(round(t_rec / value)))
        return replace(base, tau=value, n_steps=n_steps, record_every=rec)
    if axis == "shots":
        return replace(base, shots=int(value))
    return replace(base, n_fock=int(value))


def sweep_convergence(base: ExperimentSpec, axis: str, values,
                      n_ensemble: int = 5, seed0: int = 100) -> dict:
    """Convergence study along one parameter axis.

    The most accurate value (first in ``values``; the caller orders them
    best-first) defines the reference ensemble.  Two disjoint reference
    ensembles give the self-baseline RMSE; every other value is compared
    against the reference ensemble.  The total evolved time is held fixed
    when sweeping ``tau`` by rescaling the step count.

    Returns ``{"axis", "values", "rmse_percent", "self_rmse_percent",
    "normalized"}`` where ``normalized`` is RMSE over the self-baseline.
    """
    if axis not in ("tau", "shots", "fock"):
        raise ValueError(f"unknown sweep axis {axis!r}")

    ref_spec = sweep_point(base, axis, values[0])
    ref_a = run_ensemble(ref_spec, n_ensemble, seed0)
    ref_b = run_ensemble(ref_spec, n_ensemble, seed0 + n_ensemble)
    self_rmse = ensemble_rmse(ref_a, ref_b)

    rmses = [self_rmse]
    for value in values[1:]:
        group = run_ensemble(sweep_point(base, axis, value), n_ensemble,
                             seed0 + 2 * n_ensemble)
        rmses.append(ensemble_rmse(group, ref_a))
    return {
        "axis": axis,
        "values": list(values),
        "rmse_percent": rmses,
        "self_rmse_percent": self_rmse,
        "normalized": [r / self_rmse for r in rmses],
    }

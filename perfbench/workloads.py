"""The benchmark's workloads.

Each workload is one published preset at a fixed size.  A run is one call
of ``engine.run_experiment`` at the library defaults (``threads=1``); the
benchmark repeats runs closed-loop, each with its own seed derived from
the workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import vibrosim.engine
import vibrosim.presets


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    cutoff: int        # Fock cutoff; 0 for the qubit-only spin-boson register
    shots: int
    steps: int
    reference: str     # "lanczos" | "lindblad" | "density-matrix"

    def spec(self):
        spec = vibrosim.presets.preset(self.preset)
        if self.cutoff:
            spec.n_fock = self.cutoff
        return spec

    def build(self):
        """Compile the program; returns ``(program, noise model)``."""
        spec = self.spec()
        return spec.build_program(), spec.noise

    def run(self, program, noise, seed: int):
        """One closed-loop run; the engine is looked up at call time so a
        traced run goes through the wrapper."""
        return vibrosim.engine.run_experiment(
            program, self.steps, self.shots, seed, noise=noise)

    @property
    def binomial_readout(self) -> bool:
        """A noiseless, measurement-free program runs one deterministic
        trajectory and samples every time point independently."""
        return self.reference == "lanczos"

    def sizes(self) -> dict:
        return {"preset": self.preset, "cutoff": self.cutoff,
                "shots": self.shots, "steps": self.steps,
                "shot_steps": self.shots * self.steps}


# Why each workload exists: BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("coherent-fock8", "fig4", 8, 10_000, 12, "lanczos"),
    Workload("damped-fock2", "fig5", 2, 256, 8, "density-matrix"),
    Workload("cnot-noise-fock2", "fig9", 2, 128, 8, "density-matrix"),
    Workload("spin-boson", "fig3", 0, 3_000, 100, "lindblad"),
)}

"""Hybrid oscillator-qubit simulation of dissipative vibronic dynamics.

The package compiles an effective chromophore Hamiltonian onto a native
hybrid gate set, executes Trotterized shot-sampled dynamics with
measurement-based dissipation channels, and validates the results against
built-in Lindblad and Krylov reference solvers.
"""

__version__ = "0.1.0"

from .hilbert import HilbertLayout, apply_local, basis_state, embed
from .isa import GateOp, gate_matrix
from .model import (ChromophoreParams, EffectiveParams, SpinBosonParams,
                    build_hamiltonian_terms, default_params, derive_effective,
                    lindblad_rates)
from .channels import dilation_angle, dilation_circuit, kraus_ops
from .compiler import (CompiledProgram, compile_spin_boson_step, compile_step,
                       resource_count, trotter_error_coeff)
from .engine import NoiseModel, PopulationTrace, run_experiment, run_shot
from .reference import exact_evolve, lindblad_solve
from .presets import ExperimentSpec, preset

__all__ = [
    "HilbertLayout", "apply_local", "basis_state", "embed",
    "GateOp", "gate_matrix",
    "ChromophoreParams", "EffectiveParams", "SpinBosonParams",
    "build_hamiltonian_terms", "default_params", "derive_effective",
    "lindblad_rates",
    "dilation_angle", "dilation_circuit", "kraus_ops",
    "CompiledProgram", "compile_spin_boson_step", "compile_step",
    "resource_count", "trotter_error_coeff",
    "NoiseModel", "PopulationTrace", "run_experiment", "run_shot",
    "exact_evolve", "lindblad_solve",
    "ExperimentSpec", "preset",
]

"""Native gate set for the hybrid oscillator/qubit architecture.

Gate kinds fall into three families:

* qubit gates: ``RX RY RZ X Z H CNOT SWAP RXX RYY`` plus the controlled
  gates ``CRY`` and ``CZ`` used inside dissipation dilation fragments;
* qumode gates: displacement ``D``, phase-space rotation ``R``, ``SNAP``
  and the two-mode beam splitter ``BS``;
* hybrid gates: conditional displacement ``CD`` and conditional rotation
  ``CR`` (qubit control, qumode target).

Matrices are built by exponentiating the *truncated* generator, so every
realized gate is exactly unitary on the truncated Fock space (at the price
of small deviations from the ideal infinite-dimensional composition laws,
which vanish as the cutoff grows).

Circuits additionally carry the non-unitary bookkeeping ops ``MEASURE``
and ``RESET`` (projective qubit measurement / measure-and-flip-to-|0>).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .hilbert import SX, SY, SZ, destroy

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi

#: kind -> (n_qubit_targets, n_qumode_targets, n_params)
GATE_ARITY = {
    "RX": (1, 0, 1),
    "RY": (1, 0, 1),
    "RZ": (1, 0, 1),
    "X": (1, 0, 0),
    "Z": (1, 0, 0),
    "H": (1, 0, 0),
    "CNOT": (2, 0, 0),
    "SWAP": (2, 0, 0),
    "CZ": (2, 0, 0),
    "CRY": (2, 0, 1),
    "RXX": (2, 0, 1),
    "RYY": (2, 0, 1),
    "D": (0, 1, 1),
    "R": (0, 1, 1),
    "SNAP": (0, 1, -1),  # one phase per Fock level
    "BS": (0, 2, 2),
    "CD": (1, 1, 1),
    "CR": (1, 1, 1),
    "MEASURE": (1, 0, 0),
    "RESET": (1, 0, 0),
}

TWO_QUBIT_KINDS = {"CNOT", "SWAP", "CZ", "CRY", "RXX", "RYY"}

_I2 = np.eye(2, dtype=np.complex128)


def _normalize_params(kind: str, params: tuple) -> tuple:
    """Reduce rotation angles modulo their nominal period."""
    if kind in ("RX", "RY", "RZ", "CRY", "RXX", "RYY"):
        return (params[0] % FOUR_PI,)
    if kind in ("R", "CR"):
        return (params[0] % TWO_PI,)
    if kind == "SNAP":
        return tuple(p % TWO_PI for p in params)
    if kind == "BS":
        theta, phi = params
        # BS(theta, phi + pi) = BS(-theta, phi)
        phi = phi % TWO_PI
        if phi >= math.pi:
            theta, phi = -theta, phi - math.pi
        return (theta % FOUR_PI, phi)
    return params


@dataclass(frozen=True)
class GateOp:
    """One circuit operation: a gate kind, its targets and parameters.

    ``targets`` are subsystem indices into the circuit's layout, qubit
    targets first (for hybrid gates the control qubit precedes the qumode).
    ``tag`` is free-form provenance used for resource accounting and noise
    insertion (e.g. which Hamiltonian term or channel emitted the gate).
    """

    kind: str
    targets: tuple[int, ...]
    params: tuple = ()
    tag: str = ""

    def __post_init__(self):
        if self.kind not in GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        nq, nm, npar = GATE_ARITY[self.kind]
        if len(self.targets) != nq + nm:
            raise ValueError(f"{self.kind} expects {nq + nm} targets, "
                             f"got {self.targets}")
        if npar >= 0 and len(self.params) != npar:
            raise ValueError(f"{self.kind} expects {npar} params, got {self.params}")
        targets = tuple(int(t) for t in self.targets)
        if len(set(targets)) != len(targets):
            raise ValueError(f"{self.kind} has duplicate targets {targets}")
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "params",
                           _normalize_params(self.kind, tuple(self.params)))


# ---------------------------------------------------------------------------
# gate matrices
# ---------------------------------------------------------------------------

def _rot(generator: np.ndarray, theta: float) -> np.ndarray:
    half = -0.5j * theta
    return scipy.linalg.expm(half * generator)


def _displacement(beta: complex, n_fock: int) -> np.ndarray:
    a = destroy(n_fock)
    return scipy.linalg.expm(beta * a.conj().T - np.conj(beta) * a)


def _mode_rotation(theta: float, n_fock: int) -> np.ndarray:
    return np.diag(np.exp(1j * theta * np.arange(n_fock)))


def _controlled(block0: np.ndarray, block1: np.ndarray) -> np.ndarray:
    return scipy.linalg.block_diag(block0, block1)


def gate_matrix(op: GateOp, n_fock: int = 0) -> np.ndarray:
    """Dense unitary of a gate on its local target space.

    The local ordering matches ``op.targets``: the first target is the
    slowest-varying index.  ``n_fock`` is required for qumode/hybrid gates.
    """
    kind, p = op.kind, op.params
    if kind == "RX":
        return _rot(SX, p[0])
    if kind == "RY":
        return _rot(SY, p[0])
    if kind == "RZ":
        return _rot(SZ, p[0])
    if kind == "X":
        return SX.copy()
    if kind == "Z":
        return SZ.copy()
    if kind == "H":
        # native realization: H = X . Ry(pi/2)
        return SX @ _rot(SY, math.pi / 2)
    if kind == "CNOT":
        return _controlled(_I2, SX)
    if kind == "CZ":
        return np.diag([1, 1, 1, -1]).astype(np.complex128)
    if kind == "CRY":
        return _controlled(_I2, _rot(SY, p[0]))
    if kind == "SWAP":
        m = np.eye(4, dtype=np.complex128)
        m[[1, 2]] = m[[2, 1]]
        return m
    if kind == "RXX":
        return _rot(np.kron(SX, SX), p[0])
    if kind == "RYY":
        return _rot(np.kron(SY, SY), p[0])

    if n_fock < 2:
        raise ValueError(f"{kind} requires a Fock cutoff")
    if kind == "D":
        return _displacement(complex(p[0]), n_fock)
    if kind == "R":
        return _mode_rotation(p[0], n_fock)
    if kind == "SNAP":
        phases = np.zeros(n_fock)
        phases[: len(p)] = p[: n_fock]
        return np.diag(np.exp(-1j * phases))
    if kind == "BS":
        theta, phi = p
        a = destroy(n_fock)
        ad = a.conj().T
        gen = (cmath.exp(1j * phi) * np.kron(ad, a)
               + cmath.exp(-1j * phi) * np.kron(a, ad))
        return scipy.linalg.expm(-0.5j * theta * gen)
    if kind == "CD":
        beta = complex(p[0])
        return _controlled(_displacement(beta, n_fock),
                           _displacement(-beta, n_fock))
    if kind == "CR":
        theta = p[0]
        return _controlled(_mode_rotation(theta, n_fock),
                           _mode_rotation(-theta, n_fock))
    raise ValueError(f"gate {kind} has no matrix")  # MEASURE / RESET


class MatrixCache:
    """Memoizes realized gate matrices keyed by (kind, params, cutoff).

    Matrices are immutable after construction, so concurrent reads are safe;
    a racy double-build just does redundant work.
    """

    def __init__(self):
        self._cache: dict[tuple, np.ndarray] = {}

    def get(self, op: GateOp, n_fock: int = 0) -> np.ndarray:
        key = (op.kind, op.params, n_fock)
        mat = self._cache.get(key)
        if mat is None:
            mat = gate_matrix(op, n_fock)
            mat.setflags(write=False)
            self._cache[key] = mat
        return mat


def decompose_swap(op: GateOp) -> list[GateOp]:
    """SWAP as its standard three-CNOT identity (same targets, same tag)."""
    if op.kind != "SWAP":
        raise ValueError("expected a SWAP op")
    a, b = op.targets
    return [
        GateOp("CNOT", (a, b), tag=op.tag),
        GateOp("CNOT", (b, a), tag=op.tag),
        GateOp("CNOT", (a, b), tag=op.tag),
    ]


def format_op(op: GateOp) -> str:
    """One-line textual form: ``KIND target... param...``.

    Parameters print at 17 significant digits; a complex displacement
    prints as its real and imaginary parts.
    """
    parts = [op.kind] + [str(t) for t in op.targets]
    for p in op.params:
        if op.kind in ("CD", "D") or isinstance(p, complex):
            z = complex(p)
            parts += [f"{z.real:.17g}", f"{z.imag:.17g}"]
        else:
            parts.append(f"{float(p):.17g}")
    return " ".join(parts)


def parse_op(line: str) -> GateOp:
    """Inverse of :func:`format_op` (tags are not round-tripped)."""
    parts = line.split()
    kind = parts[0]
    if kind not in GATE_ARITY:
        raise ValueError(f"unknown gate kind {kind!r}")
    nq, nm, _ = GATE_ARITY[kind]
    n_targets = nq + nm
    targets = tuple(int(t) for t in parts[1:1 + n_targets])
    nums = [float(x) for x in parts[1 + n_targets:]]
    if kind in ("CD", "D"):
        if len(nums) != 2:
            raise ValueError(f"{kind} expects two numbers (re, im)")
        params: tuple = (complex(nums[0], nums[1]),)
    else:
        params = tuple(nums)
    return GateOp(kind, targets, params)


def circuit_to_text(ops) -> str:
    """Serialize an op list, one op per line."""
    return "\n".join(format_op(op) for op in ops) + "\n"


def circuit_from_text(text: str) -> list[GateOp]:
    return [parse_op(line) for line in text.splitlines() if line.strip()]


def decompose_cnot_cavity_only() -> list[GateOp]:
    """Gate template of one CNOT in the cavity-only (dual-rail) mapping.

    Four beam-splitter gates between adjacent cavities 1 and 2 plus four
    conditional displacements of cavity 1 controlled by transmon 0.  Used
    only for resource accounting of the alternative architecture; the
    primary architecture treats CNOT as native, so this template is never
    executed.
    """
    ops = []
    for _ in range(4):
        ops.append(GateOp("BS", (1, 2), (math.pi / 2, 0.0), tag="cnot-dual-rail"))
        ops.append(GateOp("CD", (0, 1), (0.1,), tag="cnot-dual-rail"))
    return ops

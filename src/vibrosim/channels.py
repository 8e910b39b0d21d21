"""Single-qubit dissipation channels and their measurement dilations.

Three jump processes are supported, each realized as a two-qubit dilation
fragment (system qubit + disposable ancilla that is measured and reset):

* ``amp``  - amplitude damping (|1> -> |0>), Kraus
  ``A0 = sqrt(p)|0><1|``, ``A1 = |0><0| + sqrt(1-p)|1><1|``;
* ``exc``  - excitation (|0> -> |1>), the X-conjugate of ``amp``;
* ``dep``  - pure dephasing, Kraus ``K0 = sqrt(p) sigma_z``,
  ``K1 = sqrt(1-p) I``.

With the exact angle choices below, one fragment per Trotter step is the
exact Lindblad semigroup element for the step duration: ``1 - p =
exp(-gamma t)`` for damping/excitation and ``1 - 2p = exp(-2 gamma t)``
for dephasing.  The historical first-order angles
``theta = 2 arcsin(sqrt(gamma tau))`` are available behind
``exact=False`` (they require ``gamma*tau <= 1``).
"""

from __future__ import annotations

import math

import numpy as np

from .hilbert import SX, SZ
from .isa import GateOp

CHANNEL_KINDS = ("amp", "exc", "dep")


def jump_probability(channel: str, gamma: float, t: float) -> float:
    """Kraus branch probability accumulated over a duration t."""
    _check_channel(channel)
    if gamma < 0 or t < 0:
        raise ValueError("rate and duration must be non-negative")
    if channel in ("amp", "exc"):
        return 1.0 - math.exp(-gamma * t)
    return 0.5 * (1.0 - math.exp(-2.0 * gamma * t))


def dilation_angle(channel: str, gamma: float, tau: float,
                   exact: bool = True) -> float:
    """Ancilla rotation angle realizing the channel over one step."""
    _check_channel(channel)
    if exact:
        if channel in ("amp", "exc"):
            return 2.0 * math.acos(math.exp(-0.5 * gamma * tau))
        return 2.0 * math.asin(math.sqrt(jump_probability("dep", gamma, tau)))
    x = gamma * tau
    if x > 1.0:
        raise ValueError(
            f"first-order angle undefined for gamma*tau = {x:.3g} > 1")
    return 2.0 * math.asin(math.sqrt(x))


def probability_from_angle(theta: float) -> float:
    """p = sin^2(theta/2)."""
    return math.sin(0.5 * theta) ** 2


def kraus_ops(channel: str, p: float) -> list[np.ndarray]:
    """Kraus operators of the channel at branch probability p."""
    _check_channel(channel)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    sq, sr = math.sqrt(p), math.sqrt(1.0 - p)
    if channel == "amp":
        return [np.array([[0, sq], [0, 0]], dtype=np.complex128),
                np.array([[1, 0], [0, sr]], dtype=np.complex128)]
    if channel == "exc":
        return [SX @ k @ SX for k in kraus_ops("amp", p)]
    return [sq * SZ, sr * np.eye(2, dtype=np.complex128)]


def apply_channel_dm(kraus, rho: np.ndarray) -> np.ndarray:
    """Apply a Kraus map to a density matrix."""
    return sum(k @ rho @ k.conj().T for k in kraus)


def dilation_circuit(channel: str, theta: float, system: int,
                     ancilla: int) -> list[GateOp]:
    """Gate fragment realizing the channel on ``system`` via ``ancilla``.

    The ancilla must enter in |0> and is measured and reset at the end, so
    fragments can be chained on a single physical ancilla.
    """
    _check_channel(channel)
    tag = f"channel-{channel}"
    if channel == "amp":
        ops = [GateOp("CRY", (system, ancilla), (theta,), tag=tag),
               GateOp("CNOT", (ancilla, system), tag=tag)]
    elif channel == "exc":
        ops = [GateOp("X", (system,), tag=tag),
               GateOp("CRY", (system, ancilla), (theta,), tag=tag),
               GateOp("X", (system,), tag=tag),
               GateOp("CNOT", (ancilla, system), tag=tag)]
    else:  # dep
        ops = [GateOp("RY", (ancilla,), (theta,), tag=tag),
               GateOp("CZ", (system, ancilla), tag=tag)]
    ops.append(GateOp("RESET", (ancilla,), tag=tag))
    return ops


def dilation_kraus(channel: str, theta: float) -> list[np.ndarray]:
    """Kraus operators induced by the dilation fragment.

    Computed as ``A_k = <k|_anc U |0>_anc`` from the fragment's two-qubit
    unitary; by construction they match ``kraus_ops`` at
    ``p = sin^2(theta/2)`` up to irrelevant Kraus-label ordering.
    """
    from .isa import gate_matrix  # local import to avoid cycles at module load

    u = np.eye(4, dtype=np.complex128)
    for op in dilation_circuit(channel, theta, 0, 1):
        if op.kind == "RESET":
            continue
        g = gate_matrix(op)
        if op.targets == (0, 1):
            full = g
        elif op.targets == (1, 0):
            # reorder a (anc, sys) two-qubit gate into (sys, anc) convention
            perm = np.eye(4)[[0, 2, 1, 3]]
            full = perm @ g @ perm
        elif op.targets == (0,):
            full = np.kron(g, np.eye(2))
        else:
            full = np.kron(np.eye(2), g)
        u = full @ u
    # system slow, ancilla fast: <k|_anc U |0>_anc
    return [u[k::2, 0::2] for k in (1, 0)]


def compose_general_channel(rates: dict, tau: float, system: int, ancilla: int,
                            exact: bool = True) -> list[GateOp]:
    """Chain amp, exc and dep fragments for one step of duration tau.

    ``rates`` maps channel kind to a rate in 1/s; zero-rate channels are
    skipped entirely (all rates zero yields an empty fragment).
    """
    ops: list[GateOp] = []
    for channel in CHANNEL_KINDS:
        gamma = rates.get(channel, 0.0)
        if gamma == 0.0:
            continue
        theta = dilation_angle(channel, gamma, tau, exact=exact)
        ops.extend(dilation_circuit(channel, theta, system, ancilla))
    return ops


def _check_channel(channel: str) -> None:
    if channel not in CHANNEL_KINDS:
        raise ValueError(f"unknown channel kind {channel!r}")

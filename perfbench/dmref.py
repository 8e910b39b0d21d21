"""Density-matrix reference for the engine's lowered instruction list.

The trajectory engine unravels each step of ``engine.inject_noise`` into
pure-state jumps; the ensemble average of that unravelling is the map
propagated here exactly, one instruction at a time:

* ``gate``: rho -> U rho U^dagger with the engine's own gate matrix;
* ``measure``: rho -> P0 rho P0 + P1 rho P1;
* ``reset``: the same with X applied on the P1 branch;
* ``kraus amp eps``: K0 = diag(1, sqrt(1-eps)), K1 = sqrt(eps)|0><1|;
* ``kraus dep eps``: rho -> (1-eps) rho + eps Z rho Z.

rho is held as a tensor with one row axis and one column axis per
subsystem, so each instruction touches only its own axes.  It is meant for
small registers (Fock cutoff 2: dimension 256).
"""

from __future__ import annotations

import numpy as np

import vibrosim.isa


def _apply(rho, mat, axes):
    k = len(axes)
    tdims = [rho.shape[a] for a in axes]
    op = mat.reshape(tdims + tdims)
    out = np.tensordot(op, rho, axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(out, list(range(k)), list(axes))


def _block(n, q, row, col):
    index = [slice(None)] * (2 * n)
    index[q] = row
    index[n + q] = col
    return tuple(index)


def _unitary(n, mat, targets):
    """U rho U^dagger as one local map, kron(U, conj U), on the target row
    and column axes."""
    axes = list(targets) + [n + t for t in targets]
    both = np.kron(mat, mat.conj())

    def step(rho):
        return _apply(rho, both, axes)
    return step


def _qubit_map(n, q, kind, eps=0.0):
    """Maps acting on the 2x2 block structure of one qubit."""
    b00, b01, b10, b11 = (_block(n, q, r, c)
                          for r, c in ((0, 0), (0, 1), (1, 0), (1, 1)))

    def step(rho):  # in place: rho is owned by propagate()
        if kind == "dep":
            rho[b01] *= 1.0 - 2.0 * eps
            rho[b10] *= 1.0 - 2.0 * eps
            return rho
        if kind == "amp":
            rho[b00] += eps * rho[b11]
            rho[b01] *= np.sqrt(1.0 - eps)
            rho[b10] *= np.sqrt(1.0 - eps)
            rho[b11] *= 1.0 - eps
            return rho
        rho[b01] = 0.0
        rho[b10] = 0.0
        if kind == "reset":
            rho[b00] += rho[b11]
            rho[b11] = 0.0
        return rho
    return step


def _compile(lowered, n, n_fock):
    steps = []
    for ins in lowered:
        kind = ins[0]
        if kind == "gate":
            op = ins[1]
            steps.append(_unitary(n, vibrosim.isa.gate_matrix(op, n_fock),
                                  op.targets))
        elif kind in ("measure", "reset"):
            steps.append(_qubit_map(n, ins[1], kind))
        elif kind == "kraus" and ins[1] in ("amp", "dep"):
            _, channel, eps, qubit = ins
            steps.append(_qubit_map(n, qubit, channel, eps))
        else:
            raise NotImplementedError(f"no density-matrix map for {ins!r}")
    return steps


def excited(rho, dims, targets) -> np.ndarray:
    """P(qubit = |1>) for each target, from the diagonal of rho."""
    d = int(np.prod(dims))
    diag = np.real(rho.reshape(d, d).diagonal()).reshape(dims)
    out = []
    for t in targets:
        axes = tuple(i for i in range(len(dims)) if i != t)
        out.append(diag.sum(axis=axes)[1])
    return np.array(out)


def propagate(program, lowered, n_steps: int) -> np.ndarray:
    """Readout populations, shape ``(n_steps + 1, n_readout)``, of the
    ensemble the engine samples, at t = 0 and after every step."""
    dims = tuple(program.layout.dims)
    n = len(dims)
    psi = np.zeros(dims, dtype=np.complex128)
    psi[(0,) * n] = 1.0
    for op in program.prep_ops:
        psi = _apply(psi, vibrosim.isa.gate_matrix(op, program.n_fock),
                     list(op.targets))
    rho = np.multiply.outer(psi, psi.conj())
    maps = _compile(lowered, n, program.n_fock)
    pops = [excited(rho, dims, program.readout)]
    for _ in range(n_steps):
        for step in maps:
            rho = step(rho)
        pops.append(excited(rho, dims, program.readout))
    return np.array(pops)

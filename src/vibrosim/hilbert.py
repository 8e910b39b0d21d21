"""Hilbert-space layout and statevector primitives for hybrid qubit/qumode registers.

A register is an ordered list of subsystems (qubits of dimension 2 and
bosonic modes truncated at a common Fock cutoff).  The first subsystem in
the layout is the slowest-varying index of the flattened amplitude vector,
i.e. ``state.reshape(dims)[i0, i1, ...]`` addresses occupation ``i0`` of
subsystem 0 and so on.

All statevector helpers accept either a single state of shape
``(total_dim,)`` or a batch of shape ``(total_dim, n_batch)`` whose columns
are independent states; batching is how the trajectory engine amortises
numpy dispatch overhead over many Monte-Carlo shots.  ``apply_local`` takes
a 1-D operator as a diagonal (one broadcast multiply) and applies a square
one on ascending, adjacent targets as a strided matmul on a view; other
supports move their axes to the front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


def _constant(rows) -> np.ndarray:
    mat = np.array(rows, dtype=np.complex128)
    mat.setflags(write=False)
    return mat


#: Pauli matrices in the computational basis (|0>, |1>); read-only
SX = _constant([[0, 1], [1, 0]])
SY = _constant([[0, -1j], [1j, 0]])
SZ = _constant([[1, 0], [0, -1]])


def destroy(n: int) -> np.ndarray:
    """Annihilation operator on a Fock space truncated at ``n`` levels."""
    return np.diag(np.sqrt(np.arange(1, n)).astype(np.complex128), k=1)


@dataclass(frozen=True)
class HilbertLayout:
    """Ordered subsystem layout of a hybrid register.

    Attributes:
        dims: local dimension of each subsystem, slowest-varying first.
        labels: optional human-readable name per subsystem (unique).
    """

    dims: tuple[int, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.dims:
            raise ValueError("layout needs at least one subsystem")
        if any(d < 2 for d in self.dims):
            raise ValueError(f"subsystem dimensions must be >= 2, got {self.dims}")
        if self.labels:
            if len(self.labels) != len(self.dims):
                raise ValueError("labels/dims length mismatch")
            if len(set(self.labels)) != len(self.labels):
                raise ValueError("duplicate subsystem labels")

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    def index(self, label: str) -> int:
        """Subsystem index for a label."""
        return self.labels.index(label)


def basis_state(layout: HilbertLayout, occupations) -> np.ndarray:
    """Computational/Fock basis state |n0, n1, ...> as a dense column."""
    occupations = tuple(int(n) for n in occupations)
    if len(occupations) != layout.n_subsystems:
        raise ValueError("occupation list length must match layout")
    for n, d in zip(occupations, layout.dims):
        if not 0 <= n < d:
            raise ValueError(f"occupation {n} out of range for dimension {d}")
    flat = 0
    for n, d in zip(occupations, layout.dims):
        flat = flat * d + n
    state = np.zeros(layout.total_dim, dtype=np.complex128)
    state[flat] = 1.0
    return state


def embed(layout: HilbertLayout, op: np.ndarray, targets) -> sp.csr_matrix:
    """Lift a local operator to the full register as a sparse matrix.

    ``op`` acts on the listed target subsystems in the given order (first
    target is the slowest-varying index of the local operator).  Targets
    need not be adjacent in the layout.
    """
    targets = tuple(int(t) for t in targets)
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate targets")
    tdims = tuple(layout.dims[t] for t in targets)
    d_loc = int(np.prod(tdims))
    op = np.asarray(op, dtype=np.complex128)
    if op.shape != (d_loc, d_loc):
        raise ValueError(f"operator shape {op.shape} does not match targets {tdims}")

    others = [i for i in range(layout.n_subsystems) if i not in targets]
    d_rest = int(np.prod([layout.dims[i] for i in others], dtype=np.int64)) if others else 1

    # Strides of each subsystem in the flattened index.
    strides = np.ones(layout.n_subsystems, dtype=np.int64)
    for i in range(layout.n_subsystems - 2, -1, -1):
        strides[i] = strides[i + 1] * layout.dims[i + 1]

    # Flat offsets contributed by the target subsystems for each local index.
    loc_offsets = np.zeros(d_loc, dtype=np.int64)
    loc_idx = np.arange(d_loc)
    rem = loc_idx.copy()
    for t, d in zip(targets[::-1], tdims[::-1]):
        loc_offsets += (rem % d) * strides[t]
        rem //= d
    # Flat offsets of the spectator subsystems.
    rest_offsets = np.zeros(d_rest, dtype=np.int64)
    rem = np.arange(d_rest)
    for t in others[::-1]:
        rest_offsets += (rem % layout.dims[t]) * strides[t]
        rem //= layout.dims[t]

    rows_loc, cols_loc = np.nonzero(op)
    vals = op[rows_loc, cols_loc]
    rows = (loc_offsets[rows_loc][:, None] + rest_offsets[None, :]).ravel()
    cols = (loc_offsets[cols_loc][:, None] + rest_offsets[None, :]).ravel()
    data = np.repeat(vals, d_rest)
    full = sp.coo_matrix((data, (rows, cols)),
                         shape=(layout.total_dim, layout.total_dim))
    return full.tocsr()


def apply_local(state: np.ndarray, layout: HilbertLayout, op: np.ndarray,
                targets) -> np.ndarray:
    """Apply a local operator to a state (or batch of states) in place of
    building the full matrix.

    The path follows from the arguments: a 1-D ``op`` is the diagonal of the
    local operator and is applied as one broadcast multiply over the target
    axes; a square ``op`` on ascending, adjacent targets is one strided
    ``(L, d_loc, R)`` matmul on a view of the state, with no copy in; any
    other square ``op`` moves the target axes to the front first.

    Args:
        state: shape ``(total_dim,)`` or ``(total_dim, n_batch)``.
        op: dense ``(d_loc, d_loc)`` operator on the target subsystems, or
            its diagonal, shape ``(d_loc,)``.
        targets: subsystem indices, first index slowest-varying in ``op``.

    Returns:
        The transformed state, same shape as the input.
    """
    targets = tuple(int(t) for t in targets)
    batched = state.ndim == 2
    n_batch = state.shape[1] if batched else 1
    tdims = tuple(layout.dims[t] for t in targets)
    d_loc = math.prod(tdims)
    if op.shape not in ((d_loc,), (d_loc, d_loc)):
        raise ValueError(f"operator shape {op.shape} does not match targets {tdims}")

    if op.ndim == 1:
        shape = [1] * (layout.n_subsystems + 1)
        for t in targets:
            shape[t] = layout.dims[t]
        diag = op.reshape(tdims).transpose(np.argsort(targets)).reshape(shape)
        tensor = state.reshape(layout.dims + (n_batch,))
        return (tensor * diag).reshape(state.shape)
    if targets == tuple(range(targets[0], targets[0] + len(targets))):
        left = math.prod(layout.dims[:targets[0]])
        view = state.reshape(left, d_loc, -1)
        if view.shape[2] == 1:   # one GEMM, not ``left`` matrix-vector products
            return (view[..., 0] @ op.T).reshape(state.shape)
        return np.matmul(op, view).reshape(state.shape)

    tensor = state.reshape(layout.dims + (n_batch,))
    tensor = np.moveaxis(tensor, targets, range(len(targets)))
    moved_shape = tensor.shape
    mat = tensor.reshape(d_loc, -1)
    mat = op @ mat
    tensor = np.moveaxis(mat.reshape(moved_shape), range(len(targets)), targets)
    out = tensor.reshape(layout.total_dim, n_batch)
    return out if batched else out[:, 0]


def level_mask(layout: HilbertLayout, target: int, level: int = 1) -> np.ndarray:
    """Boolean mask over the flattened basis where ``target`` occupies ``level``."""
    occ = np.zeros(layout.dims, dtype=bool)
    index = [slice(None)] * layout.n_subsystems
    index[target] = level
    occ[tuple(index)] = True
    return occ.ravel()


def level_populations(prob: np.ndarray, layout: HilbertLayout,
                      target: int) -> np.ndarray:
    """Occupation of each level of ``target`` from ``prob = |state|^2``,
    shape ``(d,)`` or ``(d, n_batch)``; sums a ``(left, d, right * n_batch)``
    view, with no register-sized mask."""
    d = layout.dims[target]
    sums = prob.reshape(math.prod(layout.dims[:target]), d, -1).sum(axis=0)
    return sums.reshape((d, -1) + prob.shape[1:]).sum(axis=1)


def excited_populations(state: np.ndarray, layout: HilbertLayout,
                        targets) -> np.ndarray:
    """P(subsystem = |1>) for each target qubit.

    Returns shape ``(n_targets,)`` for a single state or
    ``(n_targets, n_batch)`` for a batch.
    """
    prob = np.abs(state) ** 2
    return np.array([level_populations(prob, layout, t)[1] for t in targets])


def measure_qubit_batch(states: np.ndarray, layout: HilbertLayout, qubit: int,
                        uniforms: np.ndarray):
    """Vectorized projective measurement of ``qubit`` across a batch.

    One pass over ``|states|^2`` gives each column's level populations; a
    column reads 1 where its uniform is below ``p1 = P(qubit = 1)``, and its
    kept branch is scaled by 1/sqrt(the branch's population).

    Args:
        states: shape ``(total_dim, n_batch)``, not modified.
        qubit: index of a two-level subsystem.
        uniforms: one uniform [0,1) draw per column.

    Returns:
        ``(outcomes, collapsed_states, p1)``: outcomes an int8 array
        ``(n_batch,)`` and ``p1`` the populations before the measurement.
    """
    n_batch = states.shape[1]
    pops = level_populations(np.abs(states) ** 2, layout, qubit)
    outcomes = (uniforms < pops[1]).astype(np.int8)
    p_branch = np.where(outcomes, pops[1], pops[0])
    if not np.all(p_branch > 0.0):
        raise FloatingPointError("measurement collapsed onto a zero branch")
    scale = (np.arange(2)[:, None] == outcomes) / np.sqrt(p_branch)
    left = math.prod(layout.dims[:qubit])
    collapsed = states.reshape(left, 2, -1, n_batch) * scale[:, None]
    return outcomes, collapsed.reshape(states.shape), pops[1]

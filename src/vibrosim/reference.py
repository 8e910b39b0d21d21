"""Reference solvers used to validate the circuit engine.

``lindblad_solve`` integrates the Lindblad master equation with a
fixed-step RK4 scheme plus step-halving error control, intended for small
systems (dimension <= 64: the single-qubit benchmarks and channel
analytics).  ``exact_evolve`` propagates a pure state under a sparse
Hamiltonian with a Lanczos/Krylov short-time propagator and scales to the
full three-site register.  It works only on the indices psi0 can reach:
the union of the connected components of H's sparsity pattern (taken as
undirected) that meet supp(psi0).  That union is invariant under H and
H^dagger, so the restricted solve is exact, not an approximation; on the
three-site register at cutoff 8 it is the 12,288-state sector "ancilla
0, one excitation" of 65,536 states.  An operator without a stored
pattern (anything but a scipy sparse matrix or an ndarray) runs on the
full space.

Hamiltonians are understood as H/hbar (units 1/s), times in seconds.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def _lindblad_rhs(rho: np.ndarray, h: np.ndarray, jumps) -> np.ndarray:
    out = -1j * (h @ rho - rho @ h)
    for op in jumps:
        od = op.conj().T
        anti = od @ op
        out += op @ rho @ od - 0.5 * (anti @ rho + rho @ anti)
    return out


def _rk4_span(rho: np.ndarray, h: np.ndarray, jumps, t_span: float,
              n_steps: int) -> np.ndarray:
    dt = t_span / n_steps
    for _ in range(n_steps):
        k1 = _lindblad_rhs(rho, h, jumps)
        k2 = _lindblad_rhs(rho + 0.5 * dt * k1, h, jumps)
        k3 = _lindblad_rhs(rho + 0.5 * dt * k2, h, jumps)
        k4 = _lindblad_rhs(rho + dt * k3, h, jumps)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def lindblad_solve(h: np.ndarray, jumps, rho0: np.ndarray, times,
                   tol: float = 1e-8, max_doublings: int = 16) -> np.ndarray:
    """Integrate d rho/dt = -i[H, rho] + sum_k D[L_k] rho on a time grid.

    Jump operators carry their rate inside (L = sqrt(gamma) A).  Step count
    per interval starts at a conservative estimate from the generator
    scale and doubles until the step-halving difference drops below
    ``tol``.  The difference is the sum of the absolute entries of the
    endpoint mismatch, an upper bound on its trace norm.

    Returns an array of density matrices, one per grid time (the grid must
    start at the initial time of ``rho0``).
    """
    h = np.asarray(h, dtype=np.complex128)
    dim = h.shape[0]
    if dim > 64:
        raise ValueError("lindblad_solve is limited to dimension <= 64")
    jumps = [np.asarray(j, dtype=np.complex128) for j in jumps]
    times = np.asarray(times, dtype=float)
    scale = np.linalg.norm(h, 2) + sum(np.linalg.norm(j, 2) ** 2 for j in jumps)

    out = np.empty((len(times), dim, dim), dtype=np.complex128)
    rho = np.array(rho0, dtype=np.complex128)
    out[0] = rho
    for i in range(1, len(times)):
        span = times[i] - times[i - 1]
        if span < 0:
            raise ValueError("time grid must be non-decreasing")
        if span == 0:
            out[i] = rho
            continue
        n = max(4, int(np.ceil(scale * span)))
        coarse = _rk4_span(rho, h, jumps, span, n)
        for _ in range(max_doublings):
            n *= 2
            fine = _rk4_span(rho, h, jumps, span, n)
            err = np.abs(coarse - fine).sum()
            coarse = fine
            if err < tol:
                break
        else:
            raise RuntimeError("lindblad_solve failed to reach tolerance")
        rho = coarse
        out[i] = rho
    return out


def _small_propagator(alphas, betas, dt: float) -> np.ndarray:
    """exp(-i T dt) e1 for the Lanczos tridiagonal T."""
    tmat = np.diag(alphas)
    if betas:
        off = np.asarray(betas)
        tmat = tmat + np.diag(off, 1) + np.diag(off, -1)
    evals, evecs = np.linalg.eigh(tmat)
    return evecs @ (np.exp(-1j * dt * evals) * evecs[0].conj())


def _lanczos_expm(hmat, psi: np.ndarray, dt: float, krylov_dim: int,
                  tol: float) -> np.ndarray:
    """One short-time step exp(-i H dt) psi via a Lanczos Krylov space.

    The Krylov dimension grows adaptively until the weight on the newest
    basis vector falls below ``tol`` (or the cap is reached).
    """
    beta0 = np.linalg.norm(psi)
    v = psi / beta0
    basis = [v]
    alphas: list[float] = []
    betas: list[float] = []
    for j in range(krylov_dim):
        w = hmat @ basis[j]
        if j > 0:
            w = w - betas[j - 1] * basis[j - 1]
        alpha = float(np.real(np.vdot(basis[j], w)))
        alphas.append(alpha)
        w = w - alpha * basis[j]
        coef = _small_propagator(alphas, betas, dt)
        beta = float(np.linalg.norm(w))
        if abs(coef[-1]) < tol or beta < 1e-14:
            break
        if j < krylov_dim - 1:
            betas.append(beta)
            basis.append(w / beta)
    out = np.zeros_like(psi)
    for c, b in zip(coef, basis):
        out += c * b
    return beta0 * out


def _reachable(hmat, psi: np.ndarray):
    """Sorted indices of the union of the connected components of
    ``hmat``'s sparsity pattern, taken as undirected, that meet supp(psi);
    None for an operator without a stored pattern."""
    if not (sp.issparse(hmat) or isinstance(hmat, np.ndarray)):
        return None
    # imported here to keep scipy.sparse.csgraph out of ``import vibrosim``
    from scipy.sparse.csgraph import connected_components
    _, labels = connected_components(sp.csr_matrix(hmat != 0), directed=False)
    return np.flatnonzero(np.isin(labels, labels[psi != 0]))


def exact_evolve(hmat, psi0: np.ndarray, times, step: float = 1e-15,
                 krylov_dim: int = 30, tol: float = 1e-10) -> np.ndarray:
    """Propagate |psi(t)> = exp(-i H t)|psi0> on a time grid.

    ``hmat`` may be dense, sparse or any object supporting ``@``.  The
    interval between grid points is subdivided into Lanczos steps of at
    most ``step`` seconds with Krylov dimension capped at ``krylov_dim``.

    The Lanczos loop runs on H restricted to the indices psi0 can reach:
    the union of the connected components of H's sparsity pattern, taken
    as undirected, that meet supp(psi0).  No entry of H or H^dagger links
    that union to its complement, so every Krylov vector vanishes outside
    it and the restriction is exact.  An operator without a stored pattern
    (neither a scipy sparse matrix nor an ndarray) runs on the full space.

    Returns an array of statevectors, one per grid time.
    """
    if sp.issparse(hmat):
        hmat = hmat.tocsr()
    times = np.asarray(times, dtype=float)
    psi = np.array(psi0, dtype=np.complex128)
    out = np.zeros((len(times), psi.size), dtype=np.complex128)
    keep = _reachable(hmat, psi)
    if keep is not None and keep.size < psi.size:
        hmat = hmat[np.ix_(keep, keep)]
        psi = psi[keep]
    else:
        keep = slice(None)
    out[0, keep] = psi
    for i in range(1, len(times)):
        span = times[i] - times[i - 1]
        if span < 0:
            raise ValueError("time grid must be non-decreasing")
        n_sub = max(1, int(np.ceil(span / step)))
        dt = span / n_sub
        for _ in range(n_sub):
            psi = _lanczos_expm(hmat, psi, dt, krylov_dim, tol)
        # unitarity guard: renormalization drift signals a too-small Krylov
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > 1e-6:
            raise RuntimeError(f"Lanczos propagation lost unitarity: {norm}")
        psi = psi / norm
        out[i, keep] = psi
    return out

"""Unit tests of the Lindblad and Krylov reference solvers."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from vibrosim import hilbert, model
from vibrosim.reference import _reachable, exact_evolve, lindblad_solve

_SZ = np.diag([1.0, -1.0]).astype(np.complex128)
_LOWER = np.array([[0, 1], [0, 0]], dtype=np.complex128)


class TestLindbladSolve:
    def test_amplitude_damping_analytic(self):
        gamma = 2.0e12
        h = np.zeros((2, 2), dtype=np.complex128)
        jump = math.sqrt(gamma) * _LOWER
        rho0 = np.diag([0.0, 1.0]).astype(np.complex128)
        times = np.linspace(0.0, 2e-12, 9)
        rhos = lindblad_solve(h, [jump], rho0, times)
        expected = np.exp(-gamma * times)
        assert np.allclose(rhos[:, 1, 1].real, expected, atol=1e-8)
        assert np.allclose([np.trace(r).real for r in rhos], 1.0, atol=1e-8)

    def test_dephasing_coherence_decay(self):
        gamma = 1.0e12
        h = np.zeros((2, 2), dtype=np.complex128)
        jump = math.sqrt(gamma) * _SZ
        rho0 = 0.5 * np.ones((2, 2), dtype=np.complex128)
        times = np.linspace(0.0, 1e-12, 5)
        rhos = lindblad_solve(h, [jump], rho0, times)
        # L = sqrt(gamma) sigma_z decays coherences as exp(-2 gamma t)
        assert np.allclose(rhos[:, 0, 1].real, 0.5 * np.exp(-2 * gamma * times),
                           atol=1e-8)

    def test_unitary_limit(self):
        omega = 1.0e12
        h = omega * np.array([[0, 1], [1, 0]], dtype=np.complex128)
        rho0 = np.diag([1.0, 0.0]).astype(np.complex128)
        times = np.linspace(0.0, 3e-12, 7)
        rhos = lindblad_solve(h, [], rho0, times)
        assert np.allclose(rhos[:, 1, 1].real, np.sin(omega * times) ** 2,
                           atol=1e-7)

    def test_dimension_limit(self):
        h = np.zeros((128, 128), dtype=np.complex128)
        with pytest.raises(ValueError):
            lindblad_solve(h, [], h, [0.0, 1.0])

    def test_decreasing_grid_rejected(self):
        h = np.zeros((2, 2), dtype=np.complex128)
        rho0 = np.diag([1.0, 0.0]).astype(np.complex128)
        with pytest.raises(ValueError):
            lindblad_solve(h, [], rho0, [0.0, 1e-12, 0.5e-12])


class TestExactEvolve:
    def test_matches_dense_expm(self):
        rng = np.random.default_rng(0)
        dim = 24
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = sp.csr_matrix((m + m.conj().T) * 1e12)
        psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi0 /= np.linalg.norm(psi0)
        times = np.array([0.0, 0.5e-13, 1.3e-13])
        psis = exact_evolve(h, psi0, times, step=1e-14)
        hd = np.asarray(h.todense())
        for t, psi in zip(times, psis):
            expected = scipy.linalg.expm(-1j * t * hd) @ psi0
            assert np.abs(psi - expected).max() < 1e-7

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        dim = 16
        m = rng.normal(size=(dim, dim))
        h = sp.csr_matrix((m + m.T).astype(np.complex128) * 1e13)
        psi0 = np.zeros(dim, dtype=np.complex128)
        psi0[0] = 1.0
        psis = exact_evolve(h, psi0, np.linspace(0, 1e-12, 11))
        norms = np.linalg.norm(psis, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-10)

    def test_decreasing_grid_rejected(self):
        h = sp.identity(4, format="csr", dtype=np.complex128)
        psi0 = np.array([1, 0, 0, 0], dtype=np.complex128)
        with pytest.raises(ValueError):
            exact_evolve(h, psi0, [0.0, 1e-13, 0.5e-13])

    def test_dense_input_accepted(self):
        h = np.diag([0.0, 1.0e12]).astype(np.complex128)
        psi0 = np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2)
        psis = exact_evolve(h, psi0, [0.0, 1e-12])
        phase = psis[1][1] / psis[1][0]
        assert np.isclose(phase, np.exp(-1j * 1.0), atol=1e-8)


class _PlainMatvec:
    """An operator with ``@`` and no sparsity pattern: the full-space path."""

    def __init__(self, mat):
        self.mat = mat

    def __matmul__(self, vec):
        return self.mat @ vec


class TestRestriction:
    """exact_evolve runs on the components of H's pattern that psi0 meets."""

    @pytest.fixture(scope="class")
    def three_site(self):
        terms = model.build_hamiltonian_terms(
            model.derive_effective(model.default_params()), 3)
        return model.total_hamiltonian(terms), terms["layout"]

    @staticmethod
    def _state(lay, *excited):
        occ = [0] * lay.n_subsystems
        for label in excited:
            occ[lay.index(label)] = 1
        return hilbert.basis_state(lay, occ)

    def test_sector_is_closed_under_h(self, three_site):
        h, lay = three_site
        keep = _reachable(h, self._state(lay, "qa"))
        occ = np.indices(lay.dims).reshape(lay.n_subsystems, -1)
        qubits = [lay.index(q) for q in ("qa", "qb", "qc")]
        sector = np.flatnonzero((occ[qubits].sum(axis=0) == 1)
                                & (occ[lay.index("anc")] == 0))
        assert (lay.total_dim, sector.size) == (1296, 243)
        assert np.array_equal(keep, sector)
        rest = np.setdiff1d(np.arange(lay.total_dim), keep)
        leak = h[rest][:, keep]
        assert leak.count_nonzero() == 0

    @pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
    @pytest.mark.parametrize("excited", [[("qa",)], [("qa",), ("qa", "qb")]],
                             ids=["one-sector", "two-sectors"])
    def test_matches_full_space(self, three_site, excited, dense):
        h, lay = three_site
        psi0 = sum(self._state(lay, *e) for e in excited) / np.sqrt(len(excited))
        times = 1e-14 * np.arange(21)
        restricted = exact_evolve(h.toarray() if dense else h, psi0, times)
        full = exact_evolve(_PlainMatvec(h), psi0, times)
        assert np.abs(restricted - full).max() < 1e-12
        assert np.allclose(np.linalg.norm(restricted, axis=1), 1.0, atol=1e-10)

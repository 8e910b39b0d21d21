"""Unit tests of the register layout and statevector primitives."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vibrosim.hilbert import (HilbertLayout, apply_local, basis_state, embed,
                              excited_populations, level_mask,
                              level_populations, measure_qubit_batch)


def random_state(layout, rng):
    psi = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    return psi / np.linalg.norm(psi)


def random_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestLayout:
    def test_basic_properties(self):
        lay = HilbertLayout((2, 3, 4), ("q", "m1", "m2"))
        assert lay.n_subsystems == 3
        assert lay.total_dim == 24
        assert lay.index("m1") == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            HilbertLayout(())
        with pytest.raises(ValueError):
            HilbertLayout((2, 1))
        with pytest.raises(ValueError):
            HilbertLayout((2, 2), ("a",))
        with pytest.raises(ValueError):
            HilbertLayout((2, 2), ("a", "a"))


class TestBasisState:
    def test_ordering_first_subsystem_slowest(self):
        lay = HilbertLayout((2, 3))
        psi = basis_state(lay, (1, 2))
        assert psi[1 * 3 + 2] == 1.0
        assert np.sum(np.abs(psi)) == 1.0

    def test_out_of_range(self):
        lay = HilbertLayout((2, 3))
        with pytest.raises(ValueError):
            basis_state(lay, (2, 0))
        with pytest.raises(ValueError):
            basis_state(lay, (0,))


class TestEmbed:
    def test_adjacent_matches_kron(self):
        lay = HilbertLayout((2, 3, 2))
        rng = np.random.default_rng(0)
        op = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        full = embed(lay, op, (0, 1)).toarray()
        expected = np.kron(op, np.eye(2))
        assert np.allclose(full, expected)

    def test_trailing_target(self):
        lay = HilbertLayout((2, 3))
        op = np.diag([1.0, 2.0, 3.0])
        full = embed(lay, op, (1,)).toarray()
        assert np.allclose(full, np.kron(np.eye(2), op))

    def test_non_adjacent_targets(self):
        lay = HilbertLayout((2, 3, 2))
        rng = np.random.default_rng(1)
        op = rng.normal(size=(4, 4))
        full = embed(lay, op, (0, 2)).toarray()
        # kron(op, I3) is ordered (s0, s2, s1); transpose back to (s0, s1, s2)
        kron = np.kron(op, np.eye(3)).reshape(2, 2, 3, 2, 2, 3)
        expected = kron.transpose(0, 2, 1, 3, 5, 4).reshape(12, 12)
        assert np.allclose(full, expected)

    def test_reversed_target_order(self):
        lay = HilbertLayout((2, 2))
        cnot = np.eye(4)[[0, 1, 3, 2]]
        fwd = embed(lay, cnot, (0, 1)).toarray()
        rev = embed(lay, cnot, (1, 0)).toarray()
        # CNOT control-on-0 vs control-on-1 differ
        assert not np.allclose(fwd, rev)
        swap = np.eye(4)[[0, 2, 1, 3]]
        assert np.allclose(rev, swap @ fwd @ swap)

    def test_duplicate_targets_rejected(self):
        lay = HilbertLayout((2, 2))
        with pytest.raises(ValueError):
            embed(lay, np.eye(4), (0, 0))

    def test_shape_mismatch_rejected(self):
        lay = HilbertLayout((2, 3))
        with pytest.raises(ValueError):
            embed(lay, np.eye(2), (1,))


@st.composite
def local_problems(draw):
    """A layout, targets (contiguous, sorted with gaps, or unsorted), a
    batch width (None: a single state), a diagonal flag and a seed."""
    dims = draw(st.lists(st.integers(2, 4), min_size=2, max_size=5))
    order = draw(st.sampled_from(["contiguous", "sorted", "unsorted"]))
    if order == "contiguous":
        k = draw(st.integers(1, min(3, len(dims))))
        lo = draw(st.integers(0, len(dims) - k))
        targets = list(range(lo, lo + k))
    else:
        targets = draw(st.lists(st.integers(0, len(dims) - 1), min_size=1,
                                max_size=3, unique=True))
        if order == "sorted":
            targets.sort()
    n_batch = draw(st.sampled_from([None, 1, 3]))
    return (tuple(dims), tuple(targets), n_batch, draw(st.booleans()),
            draw(st.integers(0, 2**32 - 1)))


class TestApplyLocal:
    @given(problem=local_problems())
    @settings(max_examples=200, deadline=None)
    def test_every_path_matches_embed(self, problem):
        """Diagonal, strided and general paths against the sparse lift; a
        1-D op is the diagonal of the local operator."""
        dims, targets, n_batch, diagonal, seed = problem
        lay = HilbertLayout(dims)
        rng = np.random.default_rng(seed)
        d = int(np.prod([dims[t] for t in targets]))
        op_shape = (d,) if diagonal else (d, d)
        op = rng.normal(size=op_shape) + 1j * rng.normal(size=op_shape)
        shape = (lay.total_dim,) + (() if n_batch is None else (n_batch,))
        state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        out = apply_local(state, lay, op, targets)
        expected = embed(lay, np.diag(op) if diagonal else op, targets) @ state
        assert out.shape == state.shape
        assert np.max(np.abs(out - expected)) < 1e-12


    @pytest.mark.parametrize("targets", [(0,), (1,), (2,), (0, 2), (2, 0), (1, 2)])
    def test_matches_embed(self, targets):
        lay = HilbertLayout((2, 3, 2))
        rng = np.random.default_rng(7)
        d = int(np.prod([lay.dims[t] for t in targets]))
        op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        psi = random_state(lay, rng)
        out = apply_local(psi, lay, op, targets)
        expected = embed(lay, op, targets) @ psi
        assert np.allclose(out, expected)

    def test_batched_columns_independent(self):
        lay = HilbertLayout((2, 3))
        rng = np.random.default_rng(3)
        op = random_unitary(3, rng)
        batch = np.stack([random_state(lay, rng) for _ in range(5)], axis=1)
        out = apply_local(batch, lay, op, (1,))
        assert out.shape == batch.shape
        for k in range(5):
            single = apply_local(batch[:, k], lay, op, (1,))
            assert np.allclose(out[:, k], single)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_unitary_preserves_norm(self, seed):
        lay = HilbertLayout((2, 3, 2))
        rng = np.random.default_rng(seed)
        op = random_unitary(6, rng)
        psi = random_state(lay, rng)
        out = apply_local(psi, lay, op, (1, 2))
        assert np.isclose(np.linalg.norm(out), 1.0)


class TestMeasurement:
    def test_level_mask_counts(self):
        lay = HilbertLayout((2, 3))
        mask = level_mask(lay, 1, 2)
        assert mask.sum() == 2
        assert mask[2] and mask[5]

    def test_excited_populations(self):
        lay = HilbertLayout((2, 2))
        psi = (basis_state(lay, (0, 0)) + basis_state(lay, (1, 1))) / np.sqrt(2)
        pops = excited_populations(psi, lay, (0, 1))
        assert np.allclose(pops, [0.5, 0.5])

    @pytest.mark.parametrize("target", [0, 1, 2])
    def test_level_populations_match_masks(self, target):
        lay = HilbertLayout((2, 3, 4))
        rng = np.random.default_rng(target)
        batch = np.stack([random_state(lay, rng) for _ in range(5)], axis=1)
        prob = np.abs(batch) ** 2
        masked = [level_mask(lay, target, k) @ prob
                  for k in range(lay.dims[target])]
        assert np.allclose(level_populations(prob, lay, target), masked,
                           rtol=0, atol=1e-14)
        assert np.allclose(level_populations(prob[:, 3], lay, target),
                           np.array(masked)[:, 3], rtol=0, atol=1e-14)
        assert excited_populations(batch, lay, (target,)).shape == (1, 5)

    def test_measure_collapses_bell_state(self):
        lay = HilbertLayout((2, 2))
        psi = (basis_state(lay, (0, 0)) + basis_state(lay, (1, 1))) / np.sqrt(2)
        # one column per branch: u = 0.25 < p1 reads 1, u = 0.75 reads 0
        batch = np.stack([psi, psi], axis=1)
        outcomes, collapsed, _ = measure_qubit_batch(
            batch, lay, 0, np.array([0.25, 0.75]))
        assert list(outcomes) == [1, 0]
        # the partner qubit is perfectly correlated
        pops = excited_populations(collapsed, lay, (1,))
        assert np.allclose(pops[0], outcomes)
        assert np.allclose(np.linalg.norm(collapsed, axis=0), 1.0)

    def test_measure_statistics(self):
        lay = HilbertLayout((2,))
        psi = np.array([np.sqrt(0.3), np.sqrt(0.7)], dtype=np.complex128)
        rng = np.random.default_rng(42)
        batch = np.repeat(psi[:, None], 4000, axis=1)
        outcomes, _, _ = measure_qubit_batch(batch, lay, 0, rng.random(4000))
        hits = outcomes.sum()
        assert abs(hits / 4000 - 0.7) < 3 * np.sqrt(0.7 * 0.3 / 4000)

    def test_measure_batch_matches_single(self):
        lay = HilbertLayout((2, 2))
        rng = np.random.default_rng(5)
        batch = np.stack([random_state(lay, rng) for _ in range(8)], axis=1)
        mask = level_mask(lay, 0, 1)
        uniforms = rng.random(8)
        before = batch.copy()
        outcomes, collapsed, p1_out = measure_qubit_batch(batch, lay, 0,
                                                          uniforms)
        assert np.array_equal(batch, before)   # out of place
        prob = np.abs(batch) ** 2
        p1 = mask @ prob
        assert np.array_equal(outcomes, (uniforms < p1).astype(np.int8))
        assert np.allclose(p1_out, p1, rtol=0, atol=1e-15)
        norms = np.sqrt(np.sum(np.abs(collapsed) ** 2, axis=0))
        assert np.allclose(norms, 1.0)
        # collapsed states live entirely in the measured branch
        for k in range(8):
            branch = mask if outcomes[k] else ~mask
            assert np.allclose(collapsed[~branch, k], 0.0)

    def test_zero_branch_raises(self):
        lay = HilbertLayout((2,))
        states = np.array([[1.0], [0.0]], dtype=np.complex128)
        with pytest.raises(FloatingPointError):
            measure_qubit_batch(np.zeros_like(states), lay, 0, np.array([0.5]))

"""Unit tests of the native gate set and the textual circuit IR."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vibrosim.isa import (GATE_ARITY, GateOp, MatrixCache,
                          circuit_from_text, circuit_to_text,
                          decompose_cnot_cavity_only, decompose_swap,
                          format_op, gate_matrix, parse_op)
from vibrosim.hilbert import HilbertLayout


def is_unitary(m):
    return np.allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=1e-12)


SAMPLE_OPS = [
    GateOp("RX", (0,), (0.7,)),
    GateOp("RY", (0,), (-1.1,)),
    GateOp("RZ", (0,), (2.3,)),
    GateOp("X", (0,)),
    GateOp("Z", (0,)),
    GateOp("H", (0,)),
    GateOp("CNOT", (0, 1)),
    GateOp("SWAP", (0, 1)),
    GateOp("CZ", (0, 1)),
    GateOp("CRY", (0, 1), (0.4,)),
    GateOp("RXX", (0, 1), (0.9,)),
    GateOp("RYY", (0, 1), (0.9,)),
    GateOp("D", (0,), (0.3 - 0.2j,)),
    GateOp("R", (0,), (0.6,)),
    GateOp("SNAP", (0,), (0.1, 0.2, 0.3)),
    GateOp("BS", (0, 1), (0.8, 0.5)),
    GateOp("CD", (0, 1), (0.2 + 0.1j,)),
    GateOp("CR", (0, 1), (0.4,)),
]


class TestGateOpValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            GateOp("FOO", (0,))

    def test_wrong_target_count(self):
        with pytest.raises(ValueError):
            GateOp("CNOT", (0,))

    def test_duplicate_targets(self):
        with pytest.raises(ValueError, match="duplicate"):
            GateOp("CNOT", (0, 0))

    def test_wrong_param_count(self):
        with pytest.raises(ValueError):
            GateOp("RZ", (0,))

    def test_snap_variadic_params(self):
        op = GateOp("SNAP", (0,), (0.1, 0.2, 0.3, 0.4))
        assert len(op.params) == 4

    def test_arity_table_consistency(self):
        for kind, (nq, nm, npar) in GATE_ARITY.items():
            assert nq >= 0 and nm >= 0 and npar >= -1


class TestParamNormalization:
    def test_qubit_rotation_period_4pi(self):
        a = GateOp("RZ", (0,), (0.5,))
        b = GateOp("RZ", (0,), (0.5 + 4 * math.pi,))
        assert np.isclose(a.params[0], b.params[0])

    def test_mode_rotation_period_2pi(self):
        a = GateOp("R", (0,), (0.5,))
        b = GateOp("R", (0,), (0.5 + 2 * math.pi,))
        assert np.isclose(a.params[0], b.params[0])

    def test_bs_phase_fold(self):
        a = GateOp("BS", (0, 1), (0.7, 0.3 + math.pi))
        b = GateOp("BS", (0, 1), (-0.7, 0.3))
        assert np.allclose(a.params, b.params)
        assert np.allclose(gate_matrix(a, 4), gate_matrix(b, 4))

    @given(theta=st.floats(-50, 50, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_normalized_angle_same_matrix(self, theta):
        raw = np.array(
            [[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]])
        assert np.allclose(gate_matrix(GateOp("RZ", (0,), (theta,))), raw,
                           atol=1e-9)


class TestGateMatrices:
    @pytest.mark.parametrize("op", SAMPLE_OPS, ids=lambda o: o.kind)
    def test_unitary(self, op):
        assert is_unitary(gate_matrix(op, n_fock=5))

    def test_hadamard_is_x_ry(self):
        h = gate_matrix(GateOp("H", (0,)))
        assert np.allclose(h, np.array([[1, 1], [1, -1]]) / np.sqrt(2))

    def test_cnot(self):
        m = gate_matrix(GateOp("CNOT", (0, 1)))
        assert np.allclose(m, np.eye(4)[[0, 1, 3, 2]])

    def test_swap(self):
        m = gate_matrix(GateOp("SWAP", (0, 1)))
        assert np.allclose(m, np.eye(4)[[0, 2, 1, 3]])

    def test_cd_block_structure(self):
        beta = 0.3 + 0.1j
        n = 6
        m = gate_matrix(GateOp("CD", (0, 1), (beta,)), n_fock=n)
        d_plus = gate_matrix(GateOp("D", (0,), (beta,)), n_fock=n)
        d_minus = gate_matrix(GateOp("D", (0,), (-beta,)), n_fock=n)
        assert np.allclose(m[:n, :n], d_plus)
        assert np.allclose(m[n:, n:], d_minus)
        assert np.allclose(m[:n, n:], 0)

    def test_cr_block_structure(self):
        theta = 0.4
        n = 5
        m = gate_matrix(GateOp("CR", (0, 1), (theta,)), n_fock=n)
        levels = np.arange(n)
        assert np.allclose(np.diag(m)[:n], np.exp(1j * theta * levels))
        assert np.allclose(np.diag(m)[n:], np.exp(-1j * theta * levels))

    def test_mode_gate_requires_cutoff(self):
        with pytest.raises(ValueError):
            gate_matrix(GateOp("D", (0,), (0.1,)))

    def test_measure_has_no_matrix(self):
        with pytest.raises(ValueError):
            gate_matrix(GateOp("MEASURE", (0,)))

    def test_displacement_composition_tightens_with_cutoff(self):
        # D(a) D(b) = exp(i Im(a conj(b))) D(a+b) in the full space; the
        # truncated defect must shrink as the cutoff grows
        a, b = 0.3 + 0.2j, -0.1 + 0.4j
        phase = np.exp(1j * (a * np.conj(b)).imag)
        errs = []
        for n in (6, 10, 16):
            da = gate_matrix(GateOp("D", (0,), (a,)), n)
            db = gate_matrix(GateOp("D", (0,), (b,)), n)
            dab = gate_matrix(GateOp("D", (0,), (a + b,)), n)
            errs.append(np.abs(da @ db - phase * dab)[0, 0])
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-8


class TestDecompositions:
    def test_swap_as_three_cnots(self):
        op = GateOp("SWAP", (0, 1), tag="x")
        cnots = decompose_swap(op)
        assert [c.kind for c in cnots] == ["CNOT"] * 3
        assert all(c.tag == "x" for c in cnots)
        u = np.eye(4)
        lay = HilbertLayout((2, 2))
        from vibrosim.hilbert import apply_local
        for c in cnots:
            u = apply_local(u, lay, gate_matrix(c), c.targets)
        assert np.allclose(u, gate_matrix(op))

    def test_swap_decompose_rejects_other_kinds(self):
        with pytest.raises(ValueError):
            decompose_swap(GateOp("CNOT", (0, 1)))

    def test_cavity_only_cnot_template(self):
        ops = decompose_cnot_cavity_only()
        kinds = [op.kind for op in ops]
        assert kinds.count("BS") == 4
        assert kinds.count("CD") == 4


class TestTextIR:
    @pytest.mark.parametrize("op", SAMPLE_OPS, ids=lambda o: o.kind)
    def test_round_trip(self, op):
        back = parse_op(format_op(op))
        assert back.kind == op.kind
        assert back.targets == op.targets
        assert np.allclose(np.asarray(back.params, dtype=complex),
                           np.asarray(op.params, dtype=complex))

    def test_displacement_prints_two_numbers(self):
        line = format_op(GateOp("CD", (1, 4), (0.25 - 0.5j,)))
        parts = line.split()
        assert parts[0] == "CD" and parts[1:3] == ["1", "4"]
        assert float(parts[3]) == 0.25 and float(parts[4]) == -0.5

    def test_circuit_text_round_trip(self):
        text = circuit_to_text(SAMPLE_OPS)
        back = circuit_from_text(text)
        assert len(back) == len(SAMPLE_OPS)
        assert circuit_to_text(back) == text

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_op("FROB 0 1")


class TestCircuitAndCache:
    def test_cache_returns_same_object(self):
        cache = MatrixCache()
        op = GateOp("RZ", (0,), (0.3,))
        m1 = cache.get(op)
        m2 = cache.get(GateOp("RZ", (1,), (0.3,)))
        assert m1 is m2
        assert not m1.flags.writeable

"""Unit tests of the shot-sampled trajectory engine."""

import numpy as np
import pytest

from vibrosim import channels, engine
from vibrosim.compiler import (CompiledProgram, compile_spin_boson_step,
                               compile_step, ops_to_unitary)
from vibrosim.engine import (NoiseModel, _Executor, _gate, _jump,
                             _kraus_pair, _measure, _run, inject_noise,
                             run_experiment, run_shot)
from vibrosim.hilbert import (HilbertLayout, apply_local, basis_state,
                              destroy, embed, excited_populations, level_mask,
                              level_populations)
from vibrosim.isa import GateOp, gate_matrix
from vibrosim.model import SpinBosonParams, default_params, derive_effective
from vibrosim.presets import preset
from vibrosim.reference import lindblad_solve


@pytest.fixture(scope="module")
def sb_program():
    return compile_spin_boson_step(SpinBosonParams(), 1e-14)


def tiny_program(step_ops, prep_ops=None, readout=(0,), dims=(2, 2)):
    lay = HilbertLayout(dims)
    return CompiledProgram(layout=lay, n_fock=0, tau=1e-14,
                           prep_ops=prep_ops or [], step_ops=step_ops,
                           forward_ops=step_ops, readout=readout,
                           metadata={"readout_labels": ("1",)})


#: Two qubits and an idle 4096-level subsystem: 2^14 amplitudes, so the
#: engine's batch cap of 2^16 amplitudes runs 520 shots as 130 batches.
WIDE_SHOTS = 520
WIDE_NOISE = NoiseModel(cnot_epsilon=0.05)


@pytest.fixture(scope="module")
def wide_program():
    ops = [GateOp("RY", (0,), (0.7,)), GateOp("CNOT", (0, 1)),
           GateOp("RESET", (1,))]
    return tiny_program(ops, prep_ops=[GateOp("H", (0,))], readout=(0, 1),
                        dims=(2, 2, 4096))


class TestNoiseModel:
    def test_kappa_all_default_16khz(self):
        assert NoiseModel().kappa_all == 16.0e3

    def test_cd_error_rate(self):
        nm = NoiseModel(cd_alpha=30.0)
        beta = 0.5
        t_g = beta / (30.0 * nm.cd_chi)
        assert np.isclose(nm.cd_error_rate(beta), nm.kappa_all * t_g)

    def test_is_active(self):
        assert not NoiseModel().is_active
        assert NoiseModel(cnot_epsilon=1e-4).is_active
        assert NoiseModel(cd_enabled=True).is_active


class TestInjectNoise:
    def test_noiseless_structure_unchanged(self):
        ops = [GateOp("SWAP", (0, 1)), GateOp("MEASURE", (0,)),
               GateOp("RESET", (1,))]
        lowered = inject_noise(ops, NoiseModel())
        assert lowered == [("gate", ops[0]), ("measure", 0), ("reset", 1)]

    def test_cnot_noise_expands_swaps(self):
        noise = NoiseModel(cnot_epsilon=1e-3)
        lowered = inject_noise([GateOp("SWAP", (0, 1))], noise)
        kinds = [ins[0] for ins in lowered]
        assert kinds.count("gate") == 3          # SWAP -> 3 CNOT
        assert kinds.count("kraus") == 6         # amp + dep per CNOT
        amp = [ins for ins in lowered if ins[0] == "kraus" and ins[1] == "amp"]
        dep = [ins for ins in lowered if ins[0] == "kraus" and ins[1] == "dep"]
        assert all(ins[2] == 1e-3 for ins in amp)
        assert all(ins[2] == 0.5e-3 for ins in dep)

    def test_cd_noise_events(self):
        noise = NoiseModel(cd_enabled=True)
        op = GateOp("CD", (0, 4), (0.3j,))
        lowered = inject_noise([op], noise)
        kinds = [ins[0] for ins in lowered]
        assert kinds == ["gate", "kraus", "kraus", "cavity_loss"]
        t_g = noise.cd_gate_time(0.3j)
        assert np.isclose(lowered[1][2], noise.kappa_1q * t_g)
        assert np.isclose(lowered[3][1], noise.kappa_1c * t_g)


class TestRunExperiment:
    def test_validation(self, sb_program):
        with pytest.raises(ValueError):
            run_experiment(sb_program, 1, 0, 0)
        with pytest.raises(ValueError):
            run_experiment(sb_program, -1, 10, 0)

    def test_reproducible_across_threads_and_batches(self, sb_program,
                                                     wide_program):
        a = run_experiment(sb_program, 10, 300, seed=3, threads=1)
        b = run_experiment(sb_program, 10, 300, seed=3, threads=4)
        assert np.array_equal(a.p, b.p)
        # 130 batches, run in order and on two threads
        a = run_experiment(wide_program, 2, WIDE_SHOTS, seed=3,
                           noise=WIDE_NOISE, threads=1)
        b = run_experiment(wide_program, 2, WIDE_SHOTS, seed=3,
                           noise=WIDE_NOISE, threads=2)
        assert np.array_equal(a.p, b.p)
        assert 0.0 < a.p[-1, 0] < 1.0

    @pytest.mark.parametrize("name", ["fig5", "spin-boson"])
    def test_draw_blocks_are_invisible(self, name, sb_program, monkeypatch):
        """A shot's uniforms are drawn in blocks of steps, so a 5-step run
        draws blocks of 5 rows where a 12-step run draws blocks of 12; the
        5-step counts (t=0 and steps 1-5) are the 12-step run's first
        points.  Blocks of a few steps give the same counts again."""
        prog = sb_program if name == "spin-boson" else \
            TestFusion.program("fig5", 2)
        short = run_experiment(prog, 5, 300, seed=4)
        full = run_experiment(prog, 12, 300, seed=4)
        assert np.array_equal(short.p, full.p[:6])
        monkeypatch.setattr(engine, "_DRAW_BLOCK", 5000)
        assert np.array_equal(run_experiment(prog, 12, 300, seed=4).p,
                              full.p)

    def test_seed_changes_counts(self, sb_program):
        a = run_experiment(sb_program, 5, 200, seed=1)
        b = run_experiment(sb_program, 5, 200, seed=2)
        assert not np.array_equal(a.p, b.p)

    def test_record_every_grid(self, sb_program):
        trace = run_experiment(sb_program, 12, 50, seed=0, record_every=4)
        assert np.allclose(trace.times_s,
                           np.array([0, 4, 8, 12]) * sb_program.tau)
        skip_t0 = run_experiment(sb_program, 12, 50, seed=0, record_every=4,
                                 include_t0=False)
        assert len(skip_t0.times_s) == 3

    def test_plus_state_readout_statistics(self):
        prog = tiny_program([GateOp("RZ", (0,), (0.4,))],
                            prep_ops=[GateOp("H", (0,))])
        trace = run_experiment(prog, 4, 4000, seed=9)
        se = np.sqrt(0.25 / 4000)
        assert np.all(np.abs(trace.p - 0.5) < 4 * se)

    def test_deterministic_path_binomial_se(self):
        prog = tiny_program([GateOp("X", (0,))])
        trace = run_experiment(prog, 1, 500, seed=0)
        # |0> -> |1> deterministically: all shots report 1 at step 1
        assert trace.p[0, 0] == 0.0 and trace.p[1, 0] == 1.0
        assert np.allclose(trace.se, 0.0)

    def test_dissipative_decay_envelope(self):
        gamma, tau = 2.0e12, 1e-14
        frag = channels.compose_general_channel({"amp": gamma}, tau, 0, 1)
        prog = tiny_program(frag, prep_ops=[GateOp("X", (0,))])
        trace = run_experiment(prog, 50, 3000, seed=4)
        expected = np.exp(-gamma * trace.times_s)
        se = np.maximum(trace.se[:, 0], 1e-3)
        assert np.all(np.abs(trace.p[:, 0] - expected) < 4 * se)


class TestCavityLoss:
    @pytest.mark.parametrize("p, d", [(1e-6, 8), (0.01, 12), (0.2, 5),
                                      (1.0, 2)])
    def test_pair_is_trace_preserving(self, p, d):
        lay = HilbertLayout((2, d))
        k_jump, k_stay = _kraus_pair(("cavity_loss", p, 1), lay)
        total = k_jump.conj().T @ k_jump + np.diag(np.abs(k_stay) ** 2)
        assert np.max(np.abs(total - np.eye(d))) < 1e-14

    def test_loss_above_one_over_cutoff_raises(self):
        """p (d - 1) > 1 has no trace-preserving no-jump branch."""
        noise = NoiseModel(cd_enabled=True, cd_alpha=1.0, cd_chi=1.0,
                           kappa_1c=0.3, kappa_1q=0.0, kappa_phi_q=0.0)
        step = [GateOp("CD", (0, 1), (1.0,))]

        def program(d):
            return CompiledProgram(layout=HilbertLayout((2, d)), n_fock=d,
                                   tau=1.0, prep_ops=[], step_ops=step,
                                   forward_ops=step, readout=(0,),
                                   metadata={})
        with pytest.raises(ValueError, match="cavity loss"):
            _Executor(program(5), noise)
        _Executor(program(4), noise)   # p (d - 1) = 0.9

    def test_ensemble_matches_lindblad(self):
        """Qubit + mode under RY, CD and CD-attached cavity loss at
        p = 0.01 per photon and step: the readout population follows the
        step unitary interleaved with exact loss (jump sqrt(kappa) a)."""
        n_fock, beta, p, steps, shots = 12, 0.6, 0.01, 20, 4000
        noise = NoiseModel(cd_enabled=True, cd_alpha=1.0, cd_chi=1.0,
                           kappa_1c=p / beta, kappa_1q=0.0, kappa_phi_q=0.0)
        lay = HilbertLayout((2, n_fock))
        prep = [GateOp("H", (0,))]
        step = [GateOp("RY", (0,), (0.5,)), GateOp("CD", (0, 1), (beta,))]
        prog = CompiledProgram(layout=lay, n_fock=n_fock, tau=beta,
                               prep_ops=prep, step_ops=step, forward_ops=step,
                               readout=(0,), metadata={})
        trace = run_experiment(prog, steps, shots, seed=1, noise=noise)

        psi = ops_to_unitary(prep, lay, n_fock) @ basis_state(lay, (0, 0))
        rho = np.outer(psi, psi.conj())
        u = ops_to_unitary(step, lay, n_fock)
        jump = np.sqrt(noise.kappa_1c) * np.kron(np.eye(2), destroy(n_fock))
        excited = level_mask(lay, 0, 1)
        ref = [rho.diagonal()[excited].sum().real]
        for _ in range(steps):
            rho = lindblad_solve(np.zeros_like(rho), [jump],
                                 u @ rho @ u.conj().T, [0.0, beta])[-1]
            ref.append(rho.diagonal()[excited].sum().real)
        se = np.maximum(trace.se[:, 0], 1e-3)
        assert np.all(np.abs(trace.p[:, 0] - np.array(ref)) < 4 * se)


class TestFusion:
    """The fused plan keeps the gate-by-gate program: the same barriers in
    the same order, and between two barriers kernels whose product is the
    product of the original gates."""

    @staticmethod
    def program(name, n_fock):
        spec = preset(name)
        spec.n_fock = n_fock
        return spec.build_program()

    @pytest.mark.parametrize("name, n_fock, noise", [
        ("fig5", 2, NoiseModel()),
        ("fig9", 2, NoiseModel(cnot_epsilon=0.02)),
        ("fig10", 2, NoiseModel(cd_enabled=True)),
        ("fig4", 3, NoiseModel()),
    ], ids=["fig5", "fig9", "fig10", "fig4"])
    def test_plan_matches_gates(self, name, n_fock, noise):
        prog = self.program(name, n_fock)
        lay = prog.layout
        lowered = inject_noise(prog.step_ops, noise)
        plan = _Executor(prog, noise).plan

        def barrier(ins):
            if ins[0] in ("measure", "reset"):
                return "_measure", ins[1], ins[0] == "reset"
            return ("_dephase" if ins[1] == "dep" else "_jump"), ins[-1]

        def planned(entry):
            name, args = entry.func.__name__, entry.args
            return (name, args[1], args[4]) if entry.func is _measure \
                else (name, args[1])

        assert [planned(e) for e in plan if e.func is not _gate] == \
            [barrier(ins) for ins in lowered if ins[0] != "gate"]

        gate_runs, kernel_runs = [[]], [[]]
        for ins in lowered:
            if ins[0] == "gate":
                gate_runs[-1].append(ins[1])
            else:
                gate_runs.append([])
        for entry in plan:
            if entry.func is _gate:
                kernel_runs[-1].append(entry.args[1:])
            else:
                kernel_runs.append([])
        assert sum(map(len, kernel_runs)) < sum(map(len, gate_runs))
        for ops, kernels in zip(gate_runs, kernel_runs, strict=True):
            fused = np.eye(lay.total_dim, dtype=np.complex128)
            for mat, targets in kernels:
                assert not mat.flags.writeable
                fused = apply_local(fused, lay, mat, targets)
            exact = ops_to_unitary(ops, lay, n_fock)
            assert np.max(np.abs(fused - exact)) < 1e-12

    def test_run_shot_matches_gate_product(self):
        prog = self.program("fig4", 3)
        lay = prog.layout
        psi = basis_state(lay, (0,) * lay.n_subsystems)
        for op in prog.prep_ops + 3 * prog.step_ops:
            psi = apply_local(psi, lay, gate_matrix(op, 3), op.targets)
        final = run_shot(prog, 3, seed=0)["final_state"]
        assert np.max(np.abs(final - psi)) < 1e-12


class TestCanonicalPlan:
    """Every kernel of ``plan`` and ``no_jump`` is stored once in canonical
    form: ascending targets, a read-only matrix, and a block with no
    nonzero off-diagonal entry as its 1-D diagonal."""

    @pytest.mark.parametrize("name, n_fock, noise", [
        ("fig4", 3, NoiseModel()),
        ("fig9", 2, NoiseModel(cnot_epsilon=1e-3)),
        ("fig10", 2, NoiseModel(cd_enabled=True)),
    ], ids=["fig4", "fig9", "fig10"])
    def test_kernels_are_canonical(self, name, n_fock, noise):
        ex = _Executor(TestFusion.program(name, n_fock), noise)
        kernels = [e.args[1:] for e in ex.plan + ex.no_jump
                   if e.func is _gate]
        assert kernels and (ex.no_jump or name == "fig4")
        for mat, targets in kernels:
            assert list(targets) == sorted(set(targets))
            assert not mat.flags.writeable
            if mat.ndim == 2:
                assert np.count_nonzero(mat - np.diag(mat.diagonal()))
        if name == "fig4":
            assert any(mat.ndim == 1 for mat, _ in kernels)


class TestThinning:
    """A column whose uniforms clear every noise event's bound takes the
    fused no-jump product of the step instead of the plan."""

    @staticmethod
    def executor(name, noise):
        prog = TestFusion.program(name, 2)
        return prog, _Executor(prog, noise)

    @pytest.mark.parametrize("name, noise", [
        ("fig9", NoiseModel(cnot_epsilon=1e-3)),
        ("fig10", NoiseModel(cd_enabled=True)),
    ], ids=["fig9", "fig10"])
    def test_no_jump_is_ordered_product(self, name, noise):
        """The no-jump kernels compose to the step's gates and each noise
        event's K_stay, in program order."""
        prog, ex = self.executor(name, noise)
        lay = prog.layout
        lowered = inject_noise(prog.step_ops, noise)
        assert len(ex.no_jump) <= 4 < len(ex.plan)
        exact = np.eye(lay.total_dim, dtype=np.complex128)
        for ins in lowered:
            if ins[0] == "gate":
                op = ins[1]
                exact = apply_local(exact, lay, gate_matrix(op, 2), op.targets)
            elif ins[0] == "kraus":
                k_stay = channels.kraus_ops(ins[1], ins[2])[1]
                exact = apply_local(exact, lay, k_stay, (ins[3],))
            else:   # cavity loss: K_stay = sqrt(1 - p n)
                _, p, mode = ins
                k_stay = np.diag(np.sqrt(1.0 - p * np.arange(lay.dims[mode])))
                exact = apply_local(exact, lay, k_stay, (mode,))
        fused = np.eye(lay.total_dim, dtype=np.complex128)
        for entry in ex.no_jump:
            fused = apply_local(fused, lay, *entry.args[1:])
        assert np.max(np.abs(fused - exact)) < 1e-12
        assert _Executor(TestFusion.program("fig5", 2), noise).no_jump == []

    @pytest.mark.parametrize("name, noise", [
        ("fig9", NoiseModel(cnot_epsilon=0.02)),
        ("fig10", NoiseModel(cd_enabled=True, kappa_1c=1e9, kappa_1q=1e9,
                             kappa_phi_q=1e9)),
    ], ids=["fig9", "fig10"])
    def test_cleared_batch_matches_plan(self, name, noise):
        """Uniforms at or above every bound: the step equals the plan
        applied entry by entry."""
        prog, ex = self.executor(name, noise)
        rng = np.random.default_rng(0)
        dim, nb = prog.layout.total_dim, 6
        states = rng.normal(size=(dim, nb)) + 1j * rng.normal(size=(dim, nb))
        states /= np.linalg.norm(states, axis=0)
        noise_u = ex.bounds + (1.0 - ex.bounds) * rng.random((nb, ex.n_noise))
        noise_u[0] = ex.bounds   # the bound itself clears
        chan_u = np.empty((nb, 0))
        fast = ex.step(states.copy(), chan_u, noise_u)
        slow = _run(ex.plan, states.copy(), chan_u, noise_u)
        assert np.max(np.abs(fast - slow)) < 1e-12
        assert np.allclose(np.linalg.norm(fast, axis=0), 1.0, atol=1e-14)

    def test_ensemble_matches_density_matrix(self):
        """fig9 at cutoff 2 and eps = 0.005, where about 30% of columns
        take the no-jump product in a step: readout populations follow the
        step's gates and each noise event's ``kraus_ops`` channel."""
        eps, steps, shots = 0.005, 20, 1000
        noise = NoiseModel(cnot_epsilon=eps)
        prog = TestFusion.program("fig9", 2)
        lay = prog.layout
        trace = run_experiment(prog, steps, shots, seed=6, noise=noise)

        maps = []
        for ins in inject_noise(prog.step_ops, noise):
            if ins[0] == "gate":
                ops = [gate_matrix(ins[1], 2)]
                targets = ins[1].targets
            else:
                ops, targets = channels.kraus_ops(ins[1], ins[2]), ins[3:]
            maps.append([embed(lay, k, targets) for k in ops])
        psi = basis_state(lay, (0,) * lay.n_subsystems)
        for op in prog.prep_ops:
            psi = apply_local(psi, lay, gate_matrix(op, 2), op.targets)
        rho = np.outer(psi, psi.conj())
        ref = []
        for i in range(steps + 1):
            for ops in maps if i else []:
                rho = channels.apply_channel_dm(ops, rho)
            ref.append([level_populations(rho.diagonal().real, lay, q)[1]
                        for q in prog.readout])
        se = np.maximum(trace.se, 1e-3)
        assert np.all(np.abs(trace.p - np.array(ref)) < 4 * se)


class TestHardwareNoise:
    @pytest.mark.parametrize("gate", ["CNOT", "CD"])
    def test_ensemble_matches_density_matrix(self, gate):
        """Two two-level subsystems under RY and a CNOT or CD carrying amp
        and dep noise at eps ~ 0.05: the readout populations follow the
        step unitary, then each noise event's ``kraus_ops`` channel on the
        noisy qubit."""
        eps, beta, steps, shots = 0.05, 0.8, 20, 4000
        lay = HilbertLayout((2, 2))
        if gate == "CNOT":
            noise = NoiseModel(cnot_epsilon=eps)
            step = [GateOp("RY", (0,), (0.6,)), GateOp("CNOT", (0, 1))]
            noisy, events = 1, (("amp", eps), ("dep", eps / 2))
        else:
            noise = NoiseModel(cd_enabled=True, cd_alpha=1.0, cd_chi=1.0,
                               kappa_1c=0.0, kappa_1q=eps / beta,
                               kappa_phi_q=eps / beta)
            step = [GateOp("RY", (0,), (0.6,)), GateOp("CD", (0, 1), (beta,))]
            noisy, events = 0, (("amp", eps), ("dep", eps))
        prog = CompiledProgram(layout=lay, n_fock=2, tau=1e-14, prep_ops=[],
                               step_ops=step, forward_ops=step,
                               readout=(0, 1), metadata={})
        trace = run_experiment(prog, steps, shots, seed=2, noise=noise)

        u = ops_to_unitary(step, lay, 2)
        kraus = [[embed(lay, k, (noisy,)).toarray()
                  for k in channels.kraus_ops(kind, p)] for kind, p in events]
        rho = np.outer(*(2 * [basis_state(lay, (0, 0))]))
        ref = []
        for i in range(steps + 1):
            if i:
                rho = u @ rho @ u.conj().T
                for ops in kraus:
                    rho = channels.apply_channel_dm(ops, rho)
            ref.append([level_populations(rho.diagonal().real, lay, q)[1]
                        for q in (0, 1)])
        se = np.maximum(trace.se, 1e-3)
        assert np.all(np.abs(trace.p - np.array(ref)) < 4 * se)

    def test_zero_branch_raises(self):
        lay = HilbertLayout((2, 2))
        excited = basis_state(lay, (1, 0))[:, None]
        with pytest.raises(FloatingPointError):
            _jump(lay, 0, 0, np.zeros((2, 2)), np.array([1.0, 0.0]),
                  excited, None, np.array([[0.5]]))


class TestTraceAndCsv:
    def test_csv_format(self, sb_program, tmp_path):
        trace = run_experiment(sb_program, 3, 40, seed=0)
        path = tmp_path / "pops.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time_ps,P_1,SE_1"
        assert len(lines) == 1 + len(trace.times_s)
        first = lines[1].split(",")
        assert float(first[0]) == 0.0

    def test_three_site_csv_header(self, tmp_path):
        ep = derive_effective(default_params())
        prog = compile_step(ep, 1e-14, 2)
        trace = run_experiment(prog, 1, 10, seed=0)
        path = tmp_path / "pops.csv"
        trace.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "time_ps,P_A,SE_A,P_B,SE_B,P_C,SE_C"


class TestRunShot:
    def test_record_shapes(self, sb_program):
        rec = run_shot(sb_program, 7, seed=0)
        assert rec["populations"].shape == (7, 1)
        assert rec["outcomes"].shape == (7, 1)
        assert set(np.unique(rec["outcomes"])) <= {0, 1}
        assert np.isclose(np.linalg.norm(rec["final_state"]), 1.0)

    def test_matches_engine_stream_convention(self, sb_program):
        """Single-shot records add up to the counts of the batched engine."""
        trace = run_experiment(sb_program, 30, 40, seed=11, include_t0=False)
        outcomes = sum(run_shot(sb_program, 30, seed=11, shot_index=i)
                       ["outcomes"] for i in range(40))
        assert np.array_equal(np.rint(trace.p * 40), outcomes)

    def test_matches_split_batches(self, wide_program):
        trace = run_experiment(wide_program, 2, WIDE_SHOTS, seed=5,
                               noise=WIDE_NOISE, include_t0=False)
        outcomes = sum(run_shot(wide_program, 2, seed=5, shot_index=i,
                                noise=WIDE_NOISE)["outcomes"]
                       for i in range(WIDE_SHOTS))
        assert np.array_equal(np.rint(trace.p * WIDE_SHOTS), outcomes)

    def test_reset_leaves_ground_state(self):
        prog = tiny_program([GateOp("RESET", (0,))],
                            prep_ops=[GateOp("X", (0,)), GateOp("X", (1,))])
        lay = prog.layout
        psi = run_shot(prog, 1, seed=0)["final_state"]
        assert np.isclose(excited_populations(psi, lay, (0,))[0], 0.0)
        assert np.isclose(excited_populations(psi, lay, (1,))[0], 1.0)

"""Shot-sampled execution of compiled Trotter programs.

Each Monte-Carlo shot is a pure-state trajectory, one quantum-jump
unravelling of the step's channel: unitary gates are applied
deterministically, dilation measurements and stochastic hardware noise
collapse the state according to per-shot random streams.  One loop,
``_Executor.trajectories``, advances every trajectory: it runs a
contiguous range of shots as one vectorized batch (states stored
column-wise) and yields the batch at t=0 and after every step.  Every shot
consumes its own named random streams in a fixed event order, so results
are reproducible for a given seed regardless of batch size or thread
count, and ``run_shot`` is that loop on a single shot.

The step is lowered once per run into a plan.  Every hardware-noise event
follows one jump rule (Dalibard, Castin & Molmer, PRL 68, 580 (1992)): a
trajectory jumps to ``K_jump psi`` with probability ``||K_jump psi||^2``,
otherwise takes ``K_stay psi``, and is renormalised.

Readout: at every recorded step the engine samples one Bernoulli outcome
per readout qubit from the trajectory's conditional populations without
collapsing the state.  A fresh run restarted from t=0 and measured
terminally at that depth would produce the identical joint distribution of
(dilation record, terminal outcome), so the per-point population
statistics are exactly those of the terminal-measurement protocol at a
cost linear (not quadratic) in the number of time points.  A program with
no measurement or noise event runs the loop on shot 0 alone and samples
the counts of all shots binomially from its populations.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .channels import kraus_ops
from .compiler import CompiledProgram
from .hilbert import SX, apply_local, basis_state, destroy, \
    excited_populations, level_mask, level_populations, measure_qubit_batch
from .isa import GateOp, MatrixCache, decompose_swap

_STREAM_CHANNEL, _STREAM_NOISE, _STREAM_READOUT = 0, 1, 2


@dataclass(frozen=True)
class NoiseModel:
    """Stochastic hardware-noise model.

    ``cnot_epsilon`` attaches amplitude damping of strength eps followed by
    dephasing of strength eps/2 to the target of every CNOT (SWAPs are
    expanded into three CNOTs first so their noise emerges naturally).

    ``cd_enabled`` attaches noise to every conditional displacement from
    its gate duration ``t_g = |beta| / (alpha * chi)``: qubit damping at
    ``kappa_1q * t_g``, qubit dephasing at ``kappa_phi_q * t_g`` and a
    cavity single-photon loss with probability ``kappa_1c * t_g`` per
    photon.  Each event is a Kraus pair ``(K_jump, K_stay)`` that jumps with
    probability ``||K_jump psi||^2``: amp and dep from ``channels.kraus_ops``,
    cavity loss ``(sqrt(p) a, 1 - (p/2) n)`` (first order, valid for the
    p <= 1e-4 regime targeted here).
    """

    cnot_epsilon: float = 0.0
    cd_enabled: bool = False
    cd_alpha: float = 30.0
    cd_chi: float = 2.0 * math.pi * 5.0e4
    kappa_1c: float = 1.0e3       # (1 ms)^-1
    kappa_1q: float = 1.0e4       # (100 us)^-1
    kappa_phi_q: float = 5.0e3    # (200 us)^-1

    @property
    def kappa_all(self) -> float:
        return self.kappa_1c + self.kappa_1q + self.kappa_phi_q

    def cd_gate_time(self, beta: complex) -> float:
        return abs(beta) / (self.cd_alpha * self.cd_chi)

    def cd_error_rate(self, beta: complex) -> float:
        """Total per-CD error probability epsilon_CD = kappa_all * t_g."""
        return self.kappa_all * self.cd_gate_time(beta)

    @property
    def is_active(self) -> bool:
        return self.cnot_epsilon > 0.0 or self.cd_enabled


@dataclass
class PopulationTrace:
    """Shot-averaged excited-state populations on a time grid."""

    times_s: np.ndarray
    p: np.ndarray          # (n_points, n_readout)
    se: np.ndarray         # standard error sqrt(p(1-p)/shots)
    shots: int
    labels: tuple[str, ...]

    def to_csv(self, path) -> None:
        cols = []
        for lbl in self.labels:
            cols += [f"P_{lbl}", f"SE_{lbl}"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("time_ps," + ",".join(cols) + "\n")
            for i, t in enumerate(self.times_s):
                row = [f"{t * 1e12:.9g}"]
                for j in range(len(self.labels)):
                    row += [f"{self.p[i, j]:.9g}", f"{self.se[i, j]:.9g}"]
                fh.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# program lowering
# ---------------------------------------------------------------------------

def inject_noise(ops: list[GateOp], noise: NoiseModel) -> list:
    """Lower a gate list into executable instructions with noise markers.

    Returns a list of tuples: ``("gate", op)``, ``("measure", qubit)``,
    ``("reset", qubit)``, ``("kraus", channel, eps, qubit)`` or
    ``("cavity_loss", p, mode)``.  With an inactive noise model the gate
    structure is unchanged (SWAPs stay native).
    """
    lowered = []
    for op in ops:
        if op.kind == "MEASURE":
            lowered.append(("measure", op.targets[0]))
            continue
        if op.kind == "RESET":
            lowered.append(("reset", op.targets[0]))
            continue
        if not noise.is_active:
            lowered.append(("gate", op))
            continue
        if op.kind == "SWAP" and noise.cnot_epsilon > 0.0:
            for cnot in decompose_swap(op):
                lowered.extend(_lower_gate(cnot, noise))
            continue
        lowered.extend(_lower_gate(op, noise))
    return lowered


def _lower_gate(op: GateOp, noise: NoiseModel) -> list:
    out = [("gate", op)]
    if op.kind == "CNOT" and noise.cnot_epsilon > 0.0:
        target = op.targets[1]
        out.append(("kraus", "amp", noise.cnot_epsilon, target))
        out.append(("kraus", "dep", 0.5 * noise.cnot_epsilon, target))
    elif op.kind == "CD" and noise.cd_enabled:
        qubit, mode = op.targets
        t_g = noise.cd_gate_time(op.params[0])
        out.append(("kraus", "amp", noise.kappa_1q * t_g, qubit))
        out.append(("kraus", "dep", noise.kappa_phi_q * t_g, qubit))
        out.append(("cavity_loss", noise.kappa_1c * t_g, mode))
    return out


def _shot_generator(seed: int, shot: int, stream: int) -> np.random.Generator:
    """Counter-based per-shot named stream, independent of batching order."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(shot, stream))
    return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _uniforms(gens, n_events: int, n_batch: int) -> np.ndarray:
    """One row of ``n_events`` uniforms per shot, shape (n_batch, n_events)."""
    if not n_events:
        return np.empty((n_batch, 0))
    return np.stack([g.random(n_events) for g in gens])


def _readout(states, program: CompiledProgram, read_gens):
    """Conditional readout populations ``(n_read, n_batch)`` and one
    Bernoulli outcome per readout qubit and shot, drawn without collapse."""
    pops = excited_populations(states, program.layout, program.readout)
    n_read = len(program.readout)
    u = np.stack([g.random(n_read) for g in read_gens])
    return pops, u.T < pops


def _gate(layout, mat, targets, states, chan_u, noise_u):
    return apply_local(states, layout, mat, targets)


def _measure(layout, qubit, mask, column, reset, states, chan_u, noise_u):
    outcomes, states = measure_qubit_batch(states, mask, chan_u[:, column])
    if reset and np.any(outcomes):
        flipped = apply_local(states, layout, SX, (qubit,))
        states = np.where(outcomes[None, :] == 1, flipped, states)
    return states


def _kraus_pair(ins, layout):
    """``(K_jump, diagonal of K_stay)`` of a lowered noise instruction."""
    if ins[0] == "kraus":
        k_jump, k_stay = kraus_ops(ins[1], ins[2])
        return k_jump, k_stay.diagonal()
    _, p, mode = ins   # cavity loss, first-order no-jump Kraus
    d = layout.dims[mode]
    return math.sqrt(p) * destroy(d), 1.0 - 0.5 * p * np.arange(d)


def _jump(layout, target, column, k_jump, k_stay, states, chan_u, noise_u):
    """Noise event: Kraus pair ``(k_jump, diag k_stay)`` on ``target``.

    A column jumps where its uniform is below ``||k_jump psi||^2`` (read off
    the level populations: ``k_jump^+ k_jump`` is diagonal), else it takes
    ``k_stay``; each column is divided by sqrt(its branch probability).
    """
    d, n_batch = layout.dims[target], states.shape[1]
    left = math.prod(layout.dims[:target])
    pops = level_populations(np.abs(states) ** 2, layout, target)
    p_jump = np.sum(np.abs(k_jump) ** 2, axis=0) @ pops
    jump = noise_u[:, column] < p_jump
    p_branch = np.where(jump, p_jump, np.abs(k_stay) ** 2 @ pops)
    if not np.all(p_branch > 0.0):
        raise FloatingPointError("noise event took a zero-probability branch")
    norm = 1.0 / np.sqrt(p_branch)
    out = states.reshape(left, d, -1, n_batch) * (k_stay[:, None, None] * norm)
    cols = np.nonzero(jump)[0]
    if cols.size:
        jumped = k_jump @ states[:, cols].reshape(left, d, -1)
        out[..., cols] = jumped.reshape(left, d, -1, cols.size) * norm[cols]
    return out.reshape(states.shape)


class _Executor:
    """Advances trajectories of one program under one noise model.

    ``plan`` holds one ``entry(states, chan_u, noise_u) -> states`` per
    lowered instruction; ``chan_u``/``noise_u`` are a step's per-shot
    uniforms, shape (n_batch, n_events), and each entry reads its column.
    """

    def __init__(self, program: CompiledProgram, noise: NoiseModel):
        lay = program.layout
        cache = MatrixCache()
        self.plan = []
        self.n_meas = self.n_noise = 0   # events per step, by stream
        for ins in inject_noise(program.step_ops, noise):
            kind = ins[0]
            if kind == "gate":
                op = ins[1]
                entry = partial(_gate, lay, cache.get(op, program.n_fock),
                                op.targets)
            elif kind in ("measure", "reset"):
                entry = partial(_measure, lay, ins[1],
                                level_mask(lay, ins[1], 1), self.n_meas,
                                kind == "reset")
                self.n_meas += 1
            else:
                entry = partial(_jump, lay, ins[-1], self.n_noise,
                                *_kraus_pair(ins, lay))
                self.n_noise += 1
            self.plan.append(entry)
        self.stochastic = self.n_meas > 0 or self.n_noise > 0
        psi = basis_state(lay, (0,) * lay.n_subsystems)
        for op in program.prep_ops:
            psi = apply_local(psi, lay, cache.get(op, program.n_fock),
                              op.targets)
        self.psi0 = psi

    def trajectories(self, lo: int, hi: int, seed: int, n_steps: int):
        """Run shots ``[lo, hi)`` as one batch for ``n_steps`` steps.

        Yields ``(step, states)`` at t=0 and after every step, one column
        per shot.  Shot ``s`` draws its measurement and noise uniforms from
        its own named streams, so its trajectory does not depend on the
        batch it runs in.
        """
        nb = hi - lo
        chan = [_shot_generator(seed, s, _STREAM_CHANNEL)
                for s in range(lo, hi)] if self.n_meas else []
        noise = [_shot_generator(seed, s, _STREAM_NOISE)
                 for s in range(lo, hi)] if self.n_noise else []
        states = np.repeat(self.psi0[:, None], nb, axis=1)
        yield 0, states
        for step in range(1, n_steps + 1):
            chan_u = _uniforms(chan, self.n_meas, nb)
            noise_u = _uniforms(noise, self.n_noise, nb)
            for entry in self.plan:
                states = entry(states, chan_u, noise_u)
            yield step, states


def run_experiment(program: CompiledProgram, n_steps: int, shots: int,
                   seed: int, noise: NoiseModel | None = None,
                   record_every: int = 1, threads: int = 1,
                   include_t0: bool = True) -> PopulationTrace:
    """Run a compiled program for ``n_steps`` Trotter steps.

    Populations of the readout qubits are sampled at every
    ``record_every``-th step (plus t=0 when ``include_t0``); standard
    errors use the binomial formula sqrt(p(1-p)/shots).
    """
    if shots < 1 or n_steps < 0:
        raise ValueError("shots must be >= 1 and n_steps >= 0")
    executor = _Executor(program, noise or NoiseModel())
    record_steps = [s for s in range(1, n_steps + 1) if s % record_every == 0]
    if include_t0:
        record_steps = [0] + record_steps
    row = {s: i for i, s in enumerate(record_steps)}
    last = record_steps[-1] if record_steps else 0
    n_read = len(program.readout)
    counts = np.zeros((len(record_steps), n_read), dtype=np.int64)

    if not executor.stochastic:
        # every shot follows shot 0: sample all shots' counts at once
        rng = _shot_generator(seed, 0, _STREAM_READOUT)
        for step, states in executor.trajectories(0, 1, seed, last):
            if step in row:
                pops = excited_populations(states, program.layout,
                                           program.readout)[:, 0]
                counts[row[step]] = rng.binomial(shots,
                                                 np.clip(pops, 0.0, 1.0))
    else:
        def run_chunk(chunk):
            lo, hi = chunk
            part = np.zeros_like(counts)
            read_gens = [_shot_generator(seed, s, _STREAM_READOUT)
                         for s in range(lo, hi)]
            for step, states in executor.trajectories(lo, hi, seed, last):
                if step in row:
                    _, outcomes = _readout(states, program, read_gens)
                    part[row[step]] = outcomes.sum(axis=1)
            return part

        batch_cap = max(1, (1 << 22) // program.layout.total_dim)
        chunks = [(lo, min(shots, lo + batch_cap))
                  for lo in range(0, shots, batch_cap)]
        if threads > 1 and len(chunks) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                counts = sum(pool.map(run_chunk, chunks))
        else:
            counts = sum(map(run_chunk, chunks))

    p_hat = counts / shots
    se = np.sqrt(p_hat * (1.0 - p_hat) / shots)
    times = program.tau * np.asarray(record_steps, dtype=float)
    labels = tuple(program.metadata.get("readout_labels",
                                        ("A", "B", "C")[:n_read]))
    return PopulationTrace(times_s=times, p=p_hat, se=se, shots=shots,
                           labels=labels)


def run_shot(program: CompiledProgram, n_steps: int, seed: int,
             shot_index: int = 0, noise: NoiseModel | None = None) -> dict:
    """Run trajectory ``shot_index`` on its own and return its record.

    This is the loop of :func:`run_experiment` on the single shot
    ``[shot_index, shot_index + 1)`` without the t=0 point.  The record
    holds, after every step, the conditional readout populations
    (``"populations"``, shape ``(n_steps, n_read)``) and the sampled
    outcomes (``"outcomes"``), plus ``"final_state"``.  For a program with
    measurement or noise events, summing ``"outcomes"`` over all shot
    indices gives the counts of ``run_experiment(..., include_t0=False)``
    at the same seed.
    """
    executor = _Executor(program, noise or NoiseModel())
    read_gens = [_shot_generator(seed, shot_index, _STREAM_READOUT)]
    pops, outcomes = [], []
    for step, states in executor.trajectories(shot_index, shot_index + 1,
                                              seed, n_steps):
        if step:
            p, out = _readout(states, program, read_gens)
            pops.append(p[:, 0])
            outcomes.append(out[:, 0].astype(int))
    return {"populations": np.array(pops), "outcomes": np.array(outcomes),
            "final_state": states[:, 0]}

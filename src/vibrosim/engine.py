"""Shot-sampled execution of compiled Trotter programs.

Each Monte-Carlo shot is a pure-state trajectory, one quantum-jump
unravelling of the step's channel: unitary gates are applied
deterministically, dilation measurements and stochastic hardware noise
collapse the state according to per-shot random streams.  One loop,
``_Executor.trajectories``, advances every trajectory: it runs a
contiguous range of shots (a chunk) as one table, ``states`` with one
column per distinct state and ``idx`` giving each shot's column, and yields
the table at t=0 and after every step.  Every shot consumes its own named
random streams in a fixed event order, so results are reproducible for a
given seed regardless of chunking, slicing or thread count, and
``run_shot`` is that loop on a single shot.  A shot's uniforms are drawn in
blocks of steps (at most ``_DRAW_BLOCK`` per stream), one
``random((k, n))`` call per block, which yields the same numbers as ``k``
per-step calls.

Shots with the same record of clicks and jumps carry the same state, so the
table starts as one column and grows only where shots part.  At a barrier
the branch probability is computed once per column and every shot decides
``u < p`` on its own uniform: a column whose shots all take one branch is
updated in place, and the shots that disagree with it move to a copy of the
column, appended, which takes the other branch (``_settle``; dephasing and
the thinning screen, whose decisions do not depend on the state, split
first, ``_split``).  No column is ever left without shots, so none is
collapsed onto a branch that no shot took.  A chunk holds at most
``_TABLE_CAP`` amplitudes when every shot has its own column, which bounds
the table's memory; each step advances the table in column slices of at
most ``_BATCH_CAP`` amplitudes, the kernel width that is cheapest per
column.

The step is lowered once per run into a plan.  Measurements, resets and
noise events are its barriers; between two of them, gates are fused
greedily into dense unitaries on at most ``_FUSE_CAP`` local amplitudes
(Haner & Steiger, arXiv:1704.01127), each stored once in canonical form:
ascending targets, and a diagonal block as its 1-D diagonal, which
``apply_local`` runs as a phase multiply.  Every hardware-noise event
follows one jump rule (Dalibard, Castin & Molmer, PRL 68, 580 (1992)): a
trajectory jumps to ``K_jump psi`` with probability ``||K_jump psi||^2``,
otherwise takes ``K_stay psi``, and is renormalised; dephasing jumps at eps.
Each pair is trace-preserving; cavity loss uses ``K_stay = sqrt(1 - p n)``.

Since a step's uniforms are known before it runs, each shot is screened
first (thinning, Lewis & Shedler 1979): where every noise uniform is at or
above its event's largest jump probability, the shot cannot jump in this
step.  A column's cleared shots take the step's gates and ``K_stay``
factors fused into a few kernels, then one renormalisation, as one column;
its other shots, and every shot of a step with a measurement or reset, run
the plan.

Readout: at every recorded step the engine samples one Bernoulli outcome
per readout qubit and shot from the conditional populations of the shot's
column, computed once per column, without collapsing the state.  A fresh
run restarted from t=0 and measured terminally at that depth would produce
the identical joint distribution of (dilation record, terminal outcome), so
the per-point population statistics are exactly those of the
terminal-measurement protocol at a cost linear (not quadratic) in the
number of time points.  A program with no measurement or noise event runs
the loop on shot 0 alone and samples the counts of all shots binomially
from its populations.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import groupby

import numpy as np

from .channels import kraus_ops
from .compiler import CompiledProgram
from .hilbert import SX, SZ, HilbertLayout, apply_local, basis_state, \
    destroy, excited_populations, level_populations, measure_qubit_batch
from .isa import GateOp, MatrixCache, decompose_swap

_STREAM_CHANNEL, _STREAM_NOISE, _STREAM_READOUT = 0, 1, 2

_FUSE_CAP = 128   # local amplitudes of a fused kernel (BENCH_5.json sweep)
_DRAW_BLOCK = 1 << 17   # uniforms per stream in one draw block (1 MiB)
_BATCH_CAP = 1 << 16    # amplitudes of one column slice (BENCH_8.json sweep)
_TABLE_CAP = 1 << 26    # amplitudes of a chunk's shots (BENCH_9.json sweep)


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
    photon.  Each event is a Kraus pair ``(K_jump, K_stay)`` with
    ``K_jump^+ K_jump + K_stay^+ K_stay = 1`` that jumps with probability
    ``||K_jump psi||^2``: amp and dep from ``channels.kraus_ops``, cavity
    loss ``(sqrt(p) a, sqrt(1 - p n))``, which needs ``p (d - 1) <= 1`` at
    Fock cutoff d (a larger p raises ``ValueError`` when the step is
    lowered) and agrees with the loss channel to first order in p.  An
    event's jump probability never exceeds its bound: eps for amp and dep,
    ``p (d - 1)`` for loss; a trajectory whose uniforms clear every bound
    of a step takes the fused no-jump product of that step.  Uniforms are
    drawn per shot in blocks of steps.
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

def _draws(seed: int, lo: int, hi: int, stream: int, n: int, rows: int):
    """Yield ``rows`` arrays ``(hi - lo, n)``: row r holds the r-th ``n``
    uniforms of stream ``stream`` of each shot in ``[lo, hi)``.

    A shot's rows are drawn ``k`` at a time with one ``random((k, n))``
    call, which gives the same numbers as ``k`` calls of ``random(n)``; a
    block holds at most ``_DRAW_BLOCK`` uniforms per stream.
    """
    if not n:   # no events on this stream: no generators either
        yield from (np.empty((hi - lo, 0)) for _ in range(rows))
        return
    gens = [_shot_generator(seed, s, stream) for s in range(lo, hi)]
    per_block = max(1, _DRAW_BLOCK // (n * (hi - lo)))
    while rows > 0:
        k = min(rows, per_block)
        block = np.empty((hi - lo, k, n))
        for gen, out in zip(gens, block):
            gen.random(out=out)
        yield from (block[:, i] for i in range(k))
        rows -= k


def _readout(states, idx, program: CompiledProgram, u):
    """Conditional readout populations of each shot ``(n_read, n_shots)``,
    computed once per column of the table ``(states, idx)``, and one
    Bernoulli outcome per readout qubit and shot from the readout uniforms
    ``u`` (n_shots, n_read), drawn without collapse."""
    pops = excited_populations(states, program.layout, program.readout)[:, idx]
    return pops, u.T < pops


def _move(idx, moved, n_cols):
    """Send the shots ``moved`` to new columns numbered from ``n_cols``, one
    per column they leave; returns (the columns they leave, the new idx)."""
    src, new = np.unique(idx[moved], return_inverse=True)
    idx = idx.copy()
    idx[moved] = n_cols + new
    return src, idx


def _split(states, idx, flags):
    """Give every column one value of the per-shot ``flags``.

    A column takes the flag of one of its shots; the shots that disagree
    move to a copy of the column, appended.  Returns ``(states, idx, flag
    per column)``; with no disagreement the table is returned as it is.
    """
    col = np.empty(states.shape[1], dtype=bool)
    col[idx] = flags
    moved = np.nonzero(flags != col[idx])[0]
    if moved.size:
        src, idx = _move(idx, moved, col.size)
        states = np.concatenate((states, states[:, src]), axis=1)
        col = np.concatenate((col, ~col[src]))
    return states, idx, col


def _settle(branch, states, idx, u):
    """Apply a stochastic barrier to a table, keeping every shot on its own
    branch.

    ``branch(states, u_col) -> (jumped, out, p)`` sends column j down the
    jump branch where ``u_col[j] < p[j]`` and returns the new columns out of
    place.  Each column draws the uniform of one of its shots; the shots
    whose own uniform falls on the other side of ``p`` move to a copy of the
    column taken before the barrier, which ``branch`` sends down the other
    branch (a uniform of 0 jumps wherever p > 0, one of 2 never does).
    """
    u_col = np.empty(states.shape[1])
    u_col[idx] = u
    jumped, out, p = branch(states, u_col)
    moved = np.nonzero((u < p[idx]) != jumped[idx])[0]
    if moved.size:
        src, idx = _move(idx, moved, out.shape[1])
        _, copies, _ = branch(states[:, src], np.where(jumped[src], 2.0, 0.0))
        out = np.concatenate((out, copies), axis=1)
    return out, idx


def _each(states, idx, groups, advance):
    """Advance the columns of each group as a table of their own.

    ``groups`` labels every column; ``advance(label, states, idx, shots)``
    gets the group's columns, its shots (positions in ``idx``) and their
    indices into those columns, and returns the group's new table, whose
    first columns are its input columns in order and the rest copies.  Each
    group is written back in place, so ``states`` is overwritten, and the
    copies are appended.
    """
    copies, out_idx, width = [], idx.copy(), states.shape[1]
    for label in np.unique(groups):
        cols = np.nonzero(groups == label)[0]
        shots = np.nonzero(groups[idx] == label)[0]
        part, sub = advance(label, states[:, cols],
                            np.searchsorted(cols, idx[shots]), shots)
        states[:, cols] = part[:, :cols.size]
        out_idx[shots] = np.concatenate(
            (cols, np.arange(width, width + part.shape[1] - cols.size)))[sub]
        width += part.shape[1] - cols.size
        copies.append(part[:, cols.size:])
    if width > states.shape[1]:
        states = np.concatenate([states] + copies, axis=1)
    return states, out_idx


def _gate(layout, mat, targets, states, idx, chan_u, noise_u):
    return apply_local(states, layout, mat, targets), idx


def _fuse(layout, gates):
    """Plan entries of a gate run ``(matrix, targets)``, fused greedily into
    blocks on at most ``_FUSE_CAP`` local amplitudes each, in canonical
    form: targets ascending, the matrix permuted to match and read-only,
    and a block with no nonzero off-diagonal entry stored as its diagonal."""
    blocks = [((), [])]   # (sorted union of targets, gates)
    for gate in gates:
        union = sorted(set(blocks[-1][0]).union(gate[1]))
        if math.prod(layout.dims[t] for t in union) <= _FUSE_CAP:
            blocks[-1] = (union, blocks[-1][1] + [gate])
        else:
            blocks.append((sorted(gate[1]), [gate]))
    kernels = []
    for union, block in blocks:
        if not block:
            continue
        u = block[0][0]
        if len(block) > 1 or list(block[0][1]) != union:
            sub = HilbertLayout(tuple(layout.dims[t] for t in union))
            u = np.eye(sub.total_dim, dtype=np.complex128)
            for mat, targets in block:
                u = apply_local(u, sub, mat, [union.index(t) for t in targets])
        if np.count_nonzero(u) == np.count_nonzero(u.diagonal()):
            u = u.diagonal().copy()
        u.setflags(write=False)
        kernels.append(partial(_gate, layout, u, tuple(union)))
    return kernels


def _measure(layout, qubit, column, reset, states, idx, chan_u, noise_u):
    """Measurement of ``qubit``; a reset flips the columns that read 1."""
    def collapse(states, u):
        outcomes, states, p1 = measure_qubit_batch(states, layout, qubit, u)
        cols = np.nonzero(outcomes)[0]
        if reset and cols.size:
            states[:, cols] = apply_local(states[:, cols], layout, SX,
                                          (qubit,))
        return outcomes, states, p1
    return _settle(collapse, states, idx, chan_u[:, column])


def _dephase(layout, target, column, eps, states, idx, chan_u, noise_u):
    """Dephasing: shots whose uniform is below eps take sigma_z, in place."""
    flip = noise_u[:, column] < eps
    if flip.any():
        states, idx, flip = _split(states, idx, flip)
        cols = np.nonzero(flip)[0]
        states[:, cols] = apply_local(states[:, cols], layout, SZ.diagonal(),
                                      (target,))
    return states, idx


def _kraus_pair(ins, layout):
    """``(K_jump, diagonal of K_stay)`` of a lowered noise instruction."""
    if ins[0] == "kraus":
        k_jump, k_stay = kraus_ops(ins[1], ins[2])
        return k_jump, k_stay.diagonal()
    _, p, mode = ins   # cavity loss: K_stay = sqrt(1 - p n) keeps the trace
    d = layout.dims[mode]
    if p * (d - 1) > 1.0:
        raise ValueError(f"cavity loss p = {p:.3g} per photon exceeds "
                         f"1/(d-1) at Fock cutoff {d}")
    return math.sqrt(p) * destroy(d), np.sqrt(1.0 - p * np.arange(d))


def _jump(layout, target, column, k_jump, k_stay, states, idx, chan_u,
          noise_u):
    """Noise event: Kraus pair ``(k_jump, diag k_stay)`` on ``target``.

    A column jumps where its uniform is below ``||k_jump psi||^2`` (read off
    the level populations: ``k_jump^+ k_jump`` is diagonal), else it takes
    ``k_stay``; each column is divided by sqrt(its branch probability).
    """
    d, left = layout.dims[target], math.prod(layout.dims[:target])

    def branch(states, u):
        n_cols = states.shape[1]
        pops = level_populations(np.abs(states) ** 2, layout, target)
        p_jump = np.sum(np.abs(k_jump) ** 2, axis=0) @ pops
        jump = u < p_jump
        p_branch = np.where(jump, p_jump, np.abs(k_stay) ** 2 @ pops)
        if not np.all(p_branch > 0.0):
            raise FloatingPointError(
                "noise event took a zero-probability branch")
        norm = 1.0 / np.sqrt(p_branch)
        out = states.reshape(left, d, -1, n_cols) * (k_stay[:, None, None]
                                                     * norm)
        cols = np.nonzero(jump)[0]
        if cols.size:
            jumped = k_jump @ states[:, cols].reshape(left, d, -1)
            out[..., cols] = jumped.reshape(left, d, -1, cols.size) * norm[cols]
        return jump, out.reshape(states.shape), p_jump
    return _settle(branch, states, idx, noise_u[:, column])


def _run(entries, states, idx, chan_u, noise_u):
    for entry in entries:
        states, idx = entry(states, idx, chan_u, noise_u)
    return states, idx


class _Executor:
    """Advances trajectories of one program under one noise model.

    Trajectories live in a table: ``states`` (total_dim, n_cols) holds one
    column per distinct state and ``idx`` (n_shots,) the column of each
    shot.  ``plan`` holds one ``entry(states, idx, chan_u, noise_u) ->
    (states, idx)`` per fused kernel or barrier; ``chan_u``/``noise_u`` are
    a step's per-shot uniforms, shape (n_shots, n_events), and each barrier
    reads its column.  An entry may overwrite ``states``; it keeps every
    column in its place and appends the copies it makes.
    ``bounds[k]`` is the largest jump probability of noise event k, the
    largest diagonal entry of ``K_jump^+ K_jump``, and ``no_jump`` holds the
    step's gates and ``K_stay`` factors in order, fused.  A step with a
    measurement or reset has no ``no_jump``: those click whatever the
    column's uniform (bound 1).
    """

    def __init__(self, program: CompiledProgram, noise: NoiseModel):
        lay = program.layout
        cache = MatrixCache()
        self.plan, stay, bounds = [], [], []
        self.n_meas = self.n_noise = 0   # events per step, by stream
        lowered = inject_noise(program.step_ops, noise)
        for is_gate, group in groupby(lowered, lambda ins: ins[0] == "gate"):
            if is_gate:
                gates = [(cache.get(op, program.n_fock), op.targets)
                         for _, op in group]
                self.plan += _fuse(lay, gates)
                stay += gates
                continue
            for ins in group:
                if ins[0] in ("measure", "reset"):
                    entry = partial(_measure, lay, ins[1], self.n_meas,
                                    ins[0] == "reset")
                    self.n_meas += 1
                else:
                    k_jump, k_stay = _kraus_pair(ins, lay)
                    if ins[1] == "dep":   # jumps where u < eps
                        entry = partial(_dephase, lay, ins[-1], self.n_noise,
                                        ins[2])
                        bounds.append(ins[2])
                    else:
                        entry = partial(_jump, lay, ins[-1], self.n_noise,
                                        k_jump, k_stay)
                        bounds.append(np.max(np.sum(np.abs(k_jump) ** 2,
                                                    axis=0)))
                    stay.append((np.diag(k_stay), (ins[-1],)))
                    self.n_noise += 1
                self.plan.append(entry)
        self.stochastic = self.n_meas > 0 or self.n_noise > 0
        self.bounds = np.array(bounds)
        self.no_jump = _fuse(lay, stay) if self.n_noise and not self.n_meas \
            else []
        psi = basis_state(lay, (0,) * lay.n_subsystems)
        for op in program.prep_ops:
            psi = apply_local(psi, lay, cache.get(op, program.n_fock),
                              op.targets)
        self.psi0 = psi

    def trajectories(self, lo: int, hi: int, seed: int, n_steps: int):
        """Run shots ``[lo, hi)`` as one table for ``n_steps`` steps.

        Yields ``(step, states, idx)`` at t=0 and after every step: shot
        ``lo + s`` is column ``idx[s]`` of ``states``.  The table starts as
        one column, and a column is copied only where its shots take
        different branches.  Shot ``s`` draws its measurement and noise
        uniforms from its own named streams, so its trajectory does not
        depend on the shots it runs with.
        """
        chan = _draws(seed, lo, hi, _STREAM_CHANNEL, self.n_meas, n_steps)
        noise = _draws(seed, lo, hi, _STREAM_NOISE, self.n_noise, n_steps)
        states = self.psi0[:, None].copy()
        idx = np.zeros(hi - lo, dtype=np.intp)
        yield 0, states, idx
        for step, chan_u, noise_u in zip(range(1, n_steps + 1), chan, noise):
            states, idx = self.step(states, idx, chan_u, noise_u)
            yield step, states, idx

    def step(self, states, idx, chan_u, noise_u):
        """Advance the table ``(states, idx)`` by one step, in column slices
        of at most ``_BATCH_CAP`` amplitudes; returns the new table and may
        overwrite ``states``."""
        width = max(1, _BATCH_CAP // len(states))
        if states.shape[1] <= width:
            return self._advance(states, idx, chan_u, noise_u)
        return _each(states, idx, np.arange(states.shape[1]) // width,
                     lambda _, states, idx, shots: self._advance(
                         states, idx, chan_u[shots], noise_u[shots]))

    def _advance(self, states, idx, chan_u, noise_u):
        """One step of one slice.

        A shot whose uniforms clear every noise event's bound,
        ``u_k >= bounds[k]``, cannot jump anywhere in the step (thinning:
        Lewis & Shedler, Naval Res. Logist. Q. 26, 403 (1979)).  A column's
        cleared shots take ``no_jump`` and one renormalisation as one
        column; its other shots run the plan.
        """
        fast = np.all(noise_u >= self.bounds, axis=1) if self.no_jump else ()
        if not np.any(fast):
            return _run(self.plan, states, idx, chan_u, noise_u)
        if fast.all():
            return self._no_jump(states), idx
        states, idx, fast = _split(states, idx, fast)

        def advance(is_fast, states, idx, shots):
            if is_fast:
                return self._no_jump(states), idx
            return _run(self.plan, states, idx, chan_u[shots], noise_u[shots])
        return _each(states, idx, fast, advance)

    def _no_jump(self, states):
        # a column here has u_k >= bounds[k] with u_k < 1 at every event, so
        # its no-jump probability is at least prod(1 - bounds[k]) > 0
        states, _ = _run(self.no_jump, states, None, None, None)
        return states / np.linalg.norm(states, axis=0)


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
        for step, states, _ in executor.trajectories(0, 1, seed, last):
            if step in row:
                pops = excited_populations(states, program.layout,
                                           program.readout)[:, 0]
                counts[row[step]] = rng.binomial(shots,
                                                 np.clip(pops, 0.0, 1.0))
    else:
        def run_chunk(chunk):
            lo, hi = chunk
            part = np.zeros_like(counts)
            read_u = _draws(seed, lo, hi, _STREAM_READOUT, n_read,
                            len(record_steps))
            for step, states, idx in executor.trajectories(lo, hi, seed,
                                                           last):
                if step in row:
                    _, outcomes = _readout(states, idx, program, next(read_u))
                    part[row[step]] = outcomes.sum(axis=1)
            return part

        chunk = max(1, _TABLE_CAP // program.layout.total_dim)
        chunks = [(lo, min(shots, lo + chunk))
                  for lo in range(0, shots, chunk)]
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
    read_u = _draws(seed, shot_index, shot_index + 1, _STREAM_READOUT,
                    len(program.readout), n_steps)
    pops, outcomes = [], []
    for step, states, idx in executor.trajectories(shot_index,
                                                   shot_index + 1, seed,
                                                   n_steps):
        if step:
            p, out = _readout(states, idx, program, next(read_u))
            pops.append(p[:, 0])
            outcomes.append(out[:, 0].astype(int))
    return {"populations": np.array(pops), "outcomes": np.array(outcomes),
            "final_state": states[:, idx[0]]}

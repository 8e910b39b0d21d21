"""In-memory span tracing of vibrosim's layers, from outside the package.

Tracing wraps public functions at the names their callers bind: ``engine``
imports ``apply_local``, ``measure_qubit_batch`` and ``excited_populations``
by name, so those wrappers go on ``vibrosim.engine``; ``MatrixCache.get``
looks up ``gate_matrix`` in ``vibrosim.isa``'s globals, so that wrapper goes
on ``vibrosim.isa``.  Wrappers exist only inside ``Tracer.installed()``;
untraced runs execute the unmodified functions.

A span is ``(run_id, span_id, parent_id, name, t0_ns, t1_ns, nbytes)``.
Spans stay in memory until ``Tracer.write`` dumps them as JSON lines.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

import vibrosim.compiler
import vibrosim.engine
import vibrosim.isa
import vibrosim.model
import vibrosim.reference

_MARK = "__perfbench_span__"


def _state_bytes(args, kwargs):
    """Bytes of state read plus written by ``apply_local(state, ...)``."""
    state = args[0] if args else kwargs["state"]
    return 2 * state.nbytes


#: (owner, attribute, span name, byte counter or None)
TARGETS = (
    (vibrosim.engine, "run_experiment", "engine.run_experiment", None),
    (vibrosim.engine, "apply_local", "hilbert.apply_local", _state_bytes),
    (vibrosim.engine, "measure_qubit_batch", "hilbert.measure_qubit_batch",
     None),
    (vibrosim.engine, "excited_populations", "hilbert.excited_populations",
     None),
    (vibrosim.isa, "gate_matrix", "isa.gate_matrix", None),
    (vibrosim.isa.MatrixCache, "get", "isa.matrix_cache.get", None),
    (vibrosim.model, "derive_effective", "model.derive_effective", None),
    (vibrosim.model, "build_hamiltonian_terms",
     "model.build_hamiltonian_terms", None),
    (vibrosim.compiler, "compile_step", "compiler.compile_step", None),
    (vibrosim.compiler, "compile_spin_boson_step",
     "compiler.compile_spin_boson_step", None),
    (vibrosim.reference, "exact_evolve", "reference.exact_evolve", None),
    (vibrosim.reference, "lindblad_solve", "reference.lindblad_solve", None),
)


def is_pristine() -> bool:
    """True when no traced wrapper is bound at any target name."""
    return not any(hasattr(getattr(owner, attr), _MARK)
                   for owner, attr, _, _ in TARGETS)


class Tracer:
    """Collects nested spans of one process; single-threaded use only."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = ""
        self._stack: list[int] = []

    def _wrap(self, fn, name, nbytes):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)  # reserve the slot; filled on exit
            self._stack.append(span_id)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self._stack.pop()
                self.spans[span_id] = (
                    self.run_id, span_id, parent, name, t0, t1,
                    nbytes(args, kwargs) if nbytes else 0)

        setattr(traced, _MARK, name)
        return traced

    @contextlib.contextmanager
    def installed(self, run_id: str):
        """Bind the wrappers for the duration of the block, then restore."""
        self.run_id = run_id
        saved = []
        try:
            for owner, attr, name, nbytes in TARGETS:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, nbytes))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for run_id, sid, parent, name, t0, t1, nbytes in self.spans:
                fh.write(json.dumps({"run": run_id, "id": sid,
                                     "parent": parent, "name": name,
                                     "t0_ns": t0, "t1_ns": t1,
                                     "bytes": nbytes}) + "\n")


def layer_stats(spans, run_id: str) -> dict:
    """Per span name: calls, self seconds and bytes, for one run id.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly in a single thread, so children never
    overlap each other.
    """
    mine = [s for s in spans if s[0] == run_id]
    child_ns = defaultdict(int)
    for _, _, parent, _, t0, t1, _ in mine:
        if parent is not None:
            child_ns[parent] += t1 - t0
    out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "bytes": 0})
    for _, sid, _, name, t0, t1, nbytes in mine:
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += (t1 - t0 - child_ns[sid]) * 1e-9
        entry["bytes"] += nbytes
    return dict(out)


def cache_hits(spans, run_id: str) -> tuple[int, int]:
    """(hits, lookups) of ``MatrixCache.get``: a lookup whose span has no
    ``gate_matrix`` child was served from the cache."""
    gets = {s[1] for s in spans
            if s[0] == run_id and s[3] == "isa.matrix_cache.get"}
    missed = {s[2] for s in spans
              if s[0] == run_id and s[3] == "isa.gate_matrix" and s[2] in gets}
    return len(gets) - len(missed), len(gets)


class CountingMatvec:
    """Operator wrapper that counts ``@`` products, for ``exact_evolve``."""

    def __init__(self):
        self.mat = None
        self.count = 0

    def wrap(self, mat):
        self.mat = mat
        return self

    def __matmul__(self, vec):
        self.count += 1
        return self.mat @ vec

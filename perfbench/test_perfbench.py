"""Self-test of the benchmark.  Run from the checkout root with::

    python3 -m pytest perfbench -q
"""

import sys
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import refcheck  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_is_span_minus_direct_children():
    # a [0, 10000] ns has children b [1000, 3000] and c [4000, 9000];
    # c has a child b [5000, 6000]; one span of another run is ignored
    tree = [
        ("r1", 0, None, "a", 0, 10_000, 0),
        ("r1", 1, 0, "b", 1_000, 3_000, 8),
        ("r1", 2, 0, "c", 4_000, 9_000, 0),
        ("r1", 3, 2, "b", 5_000, 6_000, 8),
        ("r2", 4, None, "a", 0, 50_000, 0),
    ]
    stats = spans.layer_stats(tree, "r1")
    assert stats["a"]["calls"] == 1
    assert abs(stats["a"]["self_s"] - 3_000e-9) < 1e-18
    assert stats["b"]["calls"] == 2
    assert abs(stats["b"]["self_s"] - 3_000e-9) < 1e-18
    assert stats["b"]["bytes"] == 16
    assert abs(stats["c"]["self_s"] - 4_000e-9) < 1e-18
    total = sum(s["self_s"] for s in stats.values())
    assert abs(total - 10_000e-9) < 1e-18  # self times partition the root


def test_cache_hits_count_lookups_without_a_gate_matrix_child():
    tree = [
        ("r", 0, None, "isa.matrix_cache.get", 0, 10, 0),
        ("r", 1, 0, "isa.gate_matrix", 1, 9, 0),
        ("r", 2, None, "isa.matrix_cache.get", 20, 21, 0),
        ("r", 3, None, "isa.matrix_cache.get", 30, 31, 0),
    ]
    assert spans.cache_hits(tree, "r") == (2, 3)


def test_wrong_trace_fails_the_check():
    """fig4 populations scored against the fig5 reference fail; fig5's own
    populations pass."""
    damped = replace(workloads.WORKLOADS["damped-fock2"], shots=1000)
    coherent = replace(workloads.WORKLOADS["coherent-fock8"], cutoff=2,
                       steps=damped.steps, shots=damped.shots)
    program, noise = damped.build()
    p_ref = refcheck.reference_populations(damped, program, noise)
    bound = refcheck.z2_bound(1, damped.binomial_readout)

    right = damped.run(program, noise, seed=5).p
    z2, _ = refcheck.z2_score(right, p_ref, damped.shots)
    assert z2 <= bound

    wrong = coherent.run(*coherent.build(), seed=5).p
    z2, _ = refcheck.z2_score(wrong, p_ref, damped.shots)
    assert z2 > bound


def test_untraced_runs_leave_vibrosim_unwrapped():
    originals = {(o, a): getattr(o, a) for o, a, _, _ in spans.TARGETS}
    observed = []

    @dataclass(frozen=True)
    class Probe(workloads.Workload):
        def run(self, program, noise, seed):
            observed.append(spans.is_pristine())
            return super().run(program, noise, seed)

    base = workloads.WORKLOADS["spin-boson"]
    wl = Probe(**{**base.__dict__, "shots": 20, "steps": 3})
    program, noise = wl.build()

    runs = bench.Runs(wl, program, noise, seed=0)
    runs.loop(0.0)
    assert observed and all(observed)

    observed.clear()
    tracer = spans.Tracer()
    runs = bench.Runs(wl, program, noise, seed=0)
    runs.loop(0.0, tracer)
    traced = [r["traced"] for r in runs.records]
    assert observed == [not t for t in traced]
    assert any(s[3] == "hilbert.apply_local" for s in tracer.spans)

    assert spans.is_pristine()
    for (owner, attr), fn in originals.items():
        assert getattr(owner, attr) is fn

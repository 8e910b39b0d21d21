"""Measurement loop of the vibrosim benchmark (entry point: ``run.py``).

One invocation measures one workload in one process:

* ``--trace 0``: closed-loop runs of ``engine.run_experiment`` for
  ``--seconds``; a set-up probe in a fresh process after every run and a
  reference solve after every ``REF_EVERY`` runs, so all timings sample the
  same window.  No wrapper is installed.
* ``--trace 1``: traced and untraced runs alternate for ``--seconds``; the
  traced ones give per-layer self times and counts, both give the tracing
  overhead.  Set-up and the reference solve are traced in-process.

Every run's output is checked against the reference (see ``refcheck``).
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import refcheck
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_RUNS = 3           # runs per measured series, even past --seconds
TRACED_BUILDS = 5      # in-process builds traced for the set-up layers
MIN_REF_SOLVES = 3     # reference solves timed per invocation
REF_EVERY = 2          # one reference solve after every this many runs

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "shot_steps_per_s": "1/s",
                    "ref_s": "s", "peak_rss_mb": "MiB"}
#: layers timed inside each run, and whether bytes are counted
RUN_LAYERS = {"hilbert.apply_local": True, "hilbert.measure_qubit_batch": False,
              "hilbert.excited_populations": False, "isa.gate_matrix": False}
SETUP_LAYERS = ("model.derive_effective", "compiler.compile_step",
                "compiler.compile_spin_boson_step")
REF_LAYERS = ("model.build_hamiltonian_terms", "reference.exact_evolve",
              "reference.lindblad_solve")


def run_seed(seed: int, index: int) -> int:
    """Seed of the index-th run of an invocation; distinct per (seed, run)."""
    return (seed << 32) + index


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded into this process."""
    out = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                out[Path(path).name] = getter()
                break
    return out


def _git_commit() -> str:
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _probe(kind: str, wl) -> str:
    """Run ``probe.py <kind> <workload>`` and return its last output line."""
    probe = Path(__file__).resolve().parent / "probe.py"
    res = subprocess.run([sys.executable, str(probe), kind, wl.name],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=150, check=True)
    return res.stdout.strip().splitlines()[-1]


def measure_setup(wl) -> float:
    """Seconds from process start to compiled program, in a fresh process."""
    t0 = time.monotonic()
    return float(_probe("setup", wl)) - t0


class Runs:
    """Closed-loop runs of one workload and their outputs."""

    def __init__(self, wl, program, noise, seed: int):
        self.wl, self.program, self.noise, self.seed = wl, program, noise, seed
        self.records: list[dict] = []

    def run_once(self, tracer=None, warmup=False) -> dict:
        index = len(self.records)
        rec = {"seed": run_seed(self.seed, index), "traced": tracer is not None,
               "warmup": warmup,
               "run_id": f"{self.wl.name}/{self.seed}/run{index}"}
        try:
            if tracer is None:
                t0 = time.perf_counter()
                rec["trace"] = self.wl.run(self.program, self.noise, rec["seed"])
                rec["run_s"] = time.perf_counter() - t0
            else:
                with tracer.installed(rec["run_id"]):
                    t0 = time.perf_counter()
                    rec["trace"] = self.wl.run(self.program, self.noise,
                                               rec["seed"])
                    rec["run_s"] = time.perf_counter() - t0
        except Exception:  # a failed run is counted, the loop goes on
            rec["error"] = traceback.format_exc()
            print(rec["error"], file=sys.stderr)
        self.records.append(rec)
        return rec

    def loop(self, seconds: float, tracer=None, after_run=None,
             enough=lambda: True) -> None:
        """One untimed warm-up run, then runs until ``seconds`` have passed,
        every series has ``MIN_RUNS`` runs and ``enough()`` holds; with a
        tracer, traced and untraced runs alternate.  ``after_run(n)`` is
        called after the n-th timed run, so what it measures is sampled
        across the whole window."""
        self.run_once(warmup=True)
        t_end = time.perf_counter() + seconds
        n = 0
        while True:
            traced = tracer is not None and n % 2 == 1
            self.run_once(tracer if traced else None)
            n += 1
            if after_run is not None:
                after_run(n)
            per_series = n // 2 if tracer is not None else n
            if (per_series >= MIN_RUNS and enough()
                    and time.perf_counter() >= t_end):
                return

    def times(self, traced: bool) -> list[float]:
        return [r["run_s"] for r in self.records
                if r["traced"] == traced and not r["warmup"] and "run_s" in r]

    def check(self, p_ref) -> None:
        """Score every run against the reference, and the first
        ``MIN_RUNS`` runs pooled (a fixed amount of data, so the pooled
        check's power does not depend on how fast the runs are).
        ``p_ref`` None marks everything failed (the reference failed)."""
        pooled = []
        for rec in self.records:
            trace = rec.pop("trace", None)
            rec["ok"] = False
            if trace is None or p_ref is None:
                continue
            p = trace.p
            if p.shape != p_ref.shape or not np.all(np.isfinite(p)):
                continue
            if len(pooled) < MIN_RUNS:
                pooled.append(p)
            rec.update(self._score(p, self.wl.shots, p_ref))
        self.pooled = {"runs": len(pooled), "ok": False}
        if p_ref is not None and len(pooled) == MIN_RUNS:
            self.pooled.update(self._score(np.mean(pooled, axis=0),
                                           MIN_RUNS * self.wl.shots, p_ref))

    def _score(self, p, shots, p_ref) -> dict:
        z2, n = refcheck.z2_score(p, p_ref, shots)
        bound = refcheck.z2_bound(n, self.wl.binomial_readout)
        return {"z2": z2, "z2_points": n, "z2_bound": bound, "ok": z2 <= bound}

    def outcome(self) -> tuple[int, int]:
        """(attempted, failed): every run plus the pooled check."""
        failed = sum(1 for r in self.records if not r["ok"])
        failed += not self.pooled["ok"]
        return len(self.records) + 1, failed


class Reference:
    """Reference solves, each timed in a fresh process (``probe.py``);
    ``p`` is None until one succeeds, and after any solve fails."""

    def __init__(self, wl):
        self.wl = wl
        self.p = None
        self.failed = False
        self.times: list[float] = []

    def solve(self) -> None:
        if self.failed:
            return
        t0 = time.perf_counter()
        try:
            out = json.loads(_probe("reference", self.wl))
        except (subprocess.SubprocessError, ValueError) as exc:
            print(getattr(exc, "stderr", None) or exc, file=sys.stderr)
            self.p, self.failed = None, True
            self.times.append(time.perf_counter() - t0)
            return
        self.p = np.array(out["p"])
        self.times.append(out["seconds"])

    def enough(self) -> bool:
        return self.failed or len(self.times) >= MIN_REF_SOLVES


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def untraced_metrics(wl, runs, setup_times, ref_times, peak_kib) -> dict:
    """End-to-end timings are means over the window (total time / count):
    on a shared host timings drift rather than spike, and over ten
    invocations the means spread less than the medians did."""
    run_s = _mean(runs.times(traced=False))
    values = {
        "setup_s": _mean(setup_times),
        "run_s": run_s,
        "shot_steps_per_s": wl.shots * wl.steps / run_s if run_s else 0.0,
        "ref_s": _mean(ref_times),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def traced_metrics(tracer, runs, setup_ids, matvecs) -> dict:
    """Per-layer metrics: medians over traced runs (run layers) and over
    traced builds (set-up layers); the reference solve is traced once."""
    rec_ids = [r["run_id"] for r in runs.records if r["traced"]]
    per_run = [spans.layer_stats(tracer.spans, rid) for rid in rec_ids]
    per_build = [spans.layer_stats(tracer.spans, sid) for sid in setup_ids]
    ref = spans.layer_stats(tracer.spans, "reference")

    def med(stats, name, key):
        return _median([s.get(name, {}).get(key, 0) for s in stats])

    out = {}
    for name, with_bytes in RUN_LAYERS.items():
        out[f"{name}.calls"] = (med(per_run, name, "calls"), "count")
        out[f"{name}.self_s"] = (med(per_run, name, "self_s"), "s")
        if with_bytes:
            out[f"{name}.bytes_computed"] = (med(per_run, name, "bytes"), "B")
    hits = [spans.cache_hits(tracer.spans, rid) for rid in rec_ids]
    out["isa.matrix_cache.hit_ratio"] = (
        _median([h / n for h, n in hits if n]), "ratio")
    out["isa.matrix_cache.lookups"] = (_median([n for _, n in hits]), "count")
    out["engine.run_experiment.self_s"] = (
        med(per_run, "engine.run_experiment", "self_s"), "s")
    for name in SETUP_LAYERS:
        out[f"{name}.self_s"] = (med(per_build, name, "self_s"), "s")
    for name in REF_LAYERS:
        out[f"{name}.self_s"] = (ref.get(name, {}).get("self_s", 0.0), "s")
    out["reference.exact_evolve.matvecs"] = (matvecs, "count")
    plain = _mean(runs.times(traced=False))
    traced = _mean(runs.times(traced=True))
    out["trace.overhead_pct"] = (
        100.0 * (traced - plain) / plain if plain else 0.0, "%")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def main(args) -> int:
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "sizes": wl.sizes(),
              "environment": environment(args.seed)}

    if args.trace:
        tracer = spans.Tracer()
        setup_ids = [f"setup{i}" for i in range(TRACED_BUILDS)]
        for sid in setup_ids:
            with tracer.installed(sid):
                program, noise = wl.build()
        runs = Runs(wl, program, noise, args.seed)
        runs.loop(args.seconds, tracer)
        matvecs = spans.CountingMatvec()
        try:
            with tracer.installed("reference"):
                p_ref = refcheck.reference_populations(
                    wl, program, noise, matvec_wrap=matvecs.wrap)
        except Exception:
            print(traceback.format_exc(), file=sys.stderr)
            p_ref = None
        runs.check(p_ref)
        metrics = traced_metrics(tracer, runs, setup_ids, matvecs.count)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        report["spans_file"] = str(spans_file.relative_to(ROOT))
        report["spans"] = len(tracer.spans)
    else:
        program, noise = wl.build()
        runs = Runs(wl, program, noise, args.seed)
        ref = Reference(wl)
        setup_times = []

        def after_run(n):
            setup_times.append(measure_setup(wl))
            if n % REF_EVERY == 0:
                ref.solve()

        runs.loop(args.seconds, after_run=after_run, enough=ref.enough)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        runs.check(ref.p)
        metrics = untraced_metrics(wl, runs, setup_times, ref.times, peak_kib)
        report["setup_s_all"] = setup_times
        report["ref_s_all"] = ref.times

    attempted, failed = runs.outcome()
    report["runs"] = [{k: v for k, v in r.items() if k != "error"}
                      for r in runs.records]
    report["check"] = {
        "rule": "mean z^2 <= bound at false-failure rate alpha, for each run "
                f"and for the first {MIN_RUNS} runs pooled",
        "alpha": refcheck.ALPHA,
        "pooled": runs.pooled,
        "ref_z2_mean": runs.pooled.get("z2"),
        "failed_frac": failed / attempted,
    }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0

"""Reference populations and the statistical check of a run's output.

Reference results do not depend on the seed, so one solve serves every
run of an invocation (the benchmark repeats the solve only to time it):

* ``lanczos``: ``reference.exact_evolve`` of the three-site Hamiltonian;
* ``lindblad``: ``reference.lindblad_solve`` (RK4) of the spin-boson model;
* ``density-matrix``: :mod:`dmref`, the exact ensemble of the engine's
  lowered instruction list.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import chi2

import vibrosim.engine
import vibrosim.hilbert
import vibrosim.model
import vibrosim.reference

import dmref

#: false-failure rate of one run's output check (normal approximation)
ALPHA = 1e-6
#: points whose expected count variance shots*p*(1-p) is below this are
#: left out of the score: the normal approximation fails there
MIN_VARIANCE_COUNT = 10.0


def reference_populations(wl, program, noise, matvec_wrap=None):
    """Exact readout populations of workload ``wl`` on its runs' time grid,
    shape ``(steps + 1, n_readout)``.

    ``matvec_wrap`` optionally wraps the Lanczos Hamiltonian (for counting
    products); it is ignored by the other references.
    """
    times = program.tau * np.arange(wl.steps + 1)
    if wl.reference == "lanczos":
        ep = vibrosim.model.derive_effective(vibrosim.model.default_params())
        terms = vibrosim.model.build_hamiltonian_terms(ep, wl.cutoff)
        hmat = vibrosim.model.total_hamiltonian(terms)
        lay = terms["layout"]
        occ = [0] * lay.n_subsystems
        occ[lay.index("qa")] = 1
        psi0 = vibrosim.hilbert.basis_state(lay, occ)
        if matvec_wrap is not None:
            hmat = matvec_wrap(hmat)
        psis = vibrosim.reference.exact_evolve(hmat, psi0, times)
        return np.abs(psis) ** 2 @ _readout_masks(lay, program.readout)
    if wl.reference == "lindblad":
        sb = wl.spec().spin_boson
        rates = vibrosim.model.lindblad_rates(sb)
        h = vibrosim.model.spin_boson_hamiltonian(sb)
        jumps = [math.sqrt(rates["relax"]) * np.array([[0, 1], [0, 0]]),
                 math.sqrt(rates["exc"]) * np.array([[0, 0], [1, 0]]),
                 math.sqrt(rates["dep"]) * np.diag([1.0, -1.0])]
        plus = np.full((2, 2), 0.5, dtype=np.complex128)
        rhos = vibrosim.reference.lindblad_solve(h, jumps, plus, times)
        return rhos[:, 1:2, 1].real
    lowered = vibrosim.engine.inject_noise(program.step_ops, noise)
    return dmref.propagate(program, lowered, wl.steps)


def _readout_masks(lay, readout) -> np.ndarray:
    """(total_dim, n_readout) 0/1 matrix selecting each qubit's |1> level;
    built here, not with ``hilbert.level_mask``, which the engine's own
    readout uses."""
    cols = []
    for q in readout:
        occ = np.zeros(lay.dims)
        index = [slice(None)] * lay.n_subsystems
        index[q] = 1
        occ[tuple(index)] = 1.0
        cols.append(occ.ravel())
    return np.stack(cols, axis=1)


def z2_score(p_hat, p_ref, shots: int) -> tuple[float, int]:
    """Mean of z^2 = (p_hat - p_ref)^2 / (p_ref (1 - p_ref) / shots) over
    every (time, readout) point with enough expected variance, and the
    number of points scored."""
    var = p_ref * (1.0 - p_ref)
    use = shots * var >= MIN_VARIANCE_COUNT
    if not use.any():
        raise ValueError("no point has enough variance to be scored")
    z2 = (p_hat[use] - p_ref[use]) ** 2 / (var[use] / shots)
    return float(z2.mean()), int(use.sum())


def z2_bound(n_points: int, binomial_readout: bool) -> float:
    """Upper bound on one run's mean z^2 with false-failure rate ALPHA.

    With binomial readout of one deterministic trajectory every point is
    an independent draw, so the score is chi2(n)/n.  A trajectory run
    shares its shots across time points; the mean of correlated squared
    standard normals has its heaviest upper tail when all are equal
    (Szekely & Bakirov, Probab. Theory Relat. Fields 126, 2003), so the
    chi2(1) quantile bounds it for any correlation.
    """
    if binomial_readout:
        return float(chi2.isf(ALPHA, n_points) / n_points)
    return float(chi2.isf(ALPHA, 1))

"""Chemical parameters, effective-Hamiltonian derivation and term builders.

The three-chromophore model is specified by bare vibronic data (ground and
excited vibrational frequencies, Huang-Rhys factors, electronic couplings
and their modulation by a shared low-frequency mode).  ``derive_effective``
maps those onto the coefficients of the effective hybrid Hamiltonian

    H/hbar = H0 + H1 + H2XX + H2YY

written in terms of qubit Paulis and truncated bosonic modes.  All
frequencies are the plain-Hz values obtained from wavenumbers via
``f = c * nu_tilde`` with c = 2.998e10 cm/s; these coefficients multiply
time in seconds directly in ``exp(-i H t)``.

The spin-boson benchmark (Debye bath) works in eV with
hbar = 6.582e-16 eV s and k_B = 8.617e-5 eV/K.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, asdict, fields
from importlib import resources

import numpy as np
import scipy.sparse as sp

from .hilbert import SX, SY, SZ, HilbertLayout, destroy, embed

C_CM_PER_S = 2.998e10          # speed of light, cm/s
HBAR_EV_S = 6.582e-16          # hbar, eV*s
KB_EV_PER_K = 8.617e-5         # Boltzmann constant, eV/K
HC_EV_CM = 2.0 * math.pi * HBAR_EV_S * C_CM_PER_S  # photon energy per cm^-1

SITES = ("a", "b", "c")


def wavenumber_to_hz(nu_tilde: float) -> float:
    """Convert a wavenumber in cm^-1 to a frequency in Hz."""
    return C_CM_PER_S * nu_tilde


def wavenumber_to_ev(nu_tilde: float) -> float:
    """Convert a wavenumber in cm^-1 to an energy in eV."""
    return HC_EV_CM * nu_tilde


@dataclass(frozen=True)
class ChromophoreParams:
    """Bare three-chromophore inputs (frequencies in Hz).

    Field names mirror the published parameter table; the bundled default
    file carries that table verbatim.  ``eta_i`` (identity-channel
    modulation) is stored for completeness but enters no derived quantity.
    """

    omega_g_a: float
    omega_e_a: float
    omega_g_b: float
    omega_e_b: float
    omega_g_c: float
    omega_e_c: float
    omega_l: float
    j_ab_0: float
    j_ac_0: float
    eta_ab: float
    eta_ac: float
    s_a: float
    s_b: float
    s_c: float
    s_l: float
    gamma_amp_all: float = 0.0
    gamma_dep_all: float = 0.0
    eta_i: float = 0.0

    def omega_g(self, site: str) -> float:
        return getattr(self, f"omega_g_{site}")

    def omega_e(self, site: str) -> float:
        return getattr(self, f"omega_e_{site}")

    def huang_rhys(self, site: str) -> float:
        return getattr(self, f"s_{site}")

    @classmethod
    def from_json(cls, path) -> "ChromophoreParams":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ChromophoreParams":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown parameter fields: {sorted(unknown)}")
        missing = {f.name for f in fields(cls)
                   if f.default is MISSING} - set(raw)
        if missing:
            raise ValueError(f"missing parameter fields: {sorted(missing)}")
        return cls(**raw)

    def to_dict(self) -> dict:
        return asdict(self)


def default_params() -> ChromophoreParams:
    """The bundled parameter set (published table, converted-Hz column)."""
    text = resources.files("vibrosim.data").joinpath("three_site_params.json")
    return ChromophoreParams.from_dict(json.loads(text.read_text()))


@dataclass(frozen=True)
class EffectiveParams:
    """Coefficients of the effective hybrid Hamiltonian (all in Hz)."""

    omega_a: float
    omega_b: float
    omega_c: float
    omega_l: float
    chi_a: float
    chi_b: float
    chi_c: float
    omega_q_a: float
    omega_q_b: float
    omega_q_c: float
    delta_ab: float
    delta_ac: float
    g_cd_a: float
    g_cd_b: float
    g_cd_c: float
    g_cd_l: float
    g_ab: float
    g_ac: float
    g_abl: float
    g_acl: float

    def to_dict(self) -> dict:
        return asdict(self)


def derive_effective(cp: ChromophoreParams) -> EffectiveParams:
    """Derive the effective-Hamiltonian coefficients from bare inputs.

    Mode frequencies are vibrational averages, dispersive shifts are
    ground/excited differences, conditional-displacement strengths follow
    from the Huang-Rhys factors, and the qubit frequencies collect the
    polaron/dispersive corrections (the dimensionless ``g_cd_l^2/omega_l^2``
    correction is kept as published; it is numerically negligible).
    """
    omega = {}
    chi = {}
    g = {}
    g_cd = {}
    for s in SITES:
        wg, we = cp.omega_g(s), cp.omega_e(s)
        omega[s] = 0.5 * (wg + we)
        chi[s] = we - wg
        g[s] = math.sqrt(cp.huang_rhys(s)) * we
        g_cd[s] = g[s] * wg / omega[s]
    g_cd_l = math.sqrt(cp.s_l) * cp.omega_l

    def omega_q(s: str) -> float:
        wq = (cp.omega_e(s) * cp.huang_rhys(s)
              + 0.5 * chi[s]
              + chi[s] * g[s] ** 2 / (4.0 * omega[s] ** 2)
              - g[s] ** 2 / omega[s])
        if s == "a":
            wq += cp.omega_l * cp.s_l
            wq -= g_cd_l ** 2 / cp.omega_l ** 2
        return wq

    wq = {s: omega_q(s) for s in SITES}
    return EffectiveParams(
        omega_a=omega["a"], omega_b=omega["b"], omega_c=omega["c"],
        omega_l=cp.omega_l,
        chi_a=chi["a"], chi_b=chi["b"], chi_c=chi["c"],
        omega_q_a=wq["a"], omega_q_b=wq["b"], omega_q_c=wq["c"],
        delta_ab=wq["a"] - wq["b"],
        delta_ac=wq["a"] - wq["c"],
        g_cd_a=g_cd["a"], g_cd_b=g_cd["b"], g_cd_c=g_cd["c"],
        g_cd_l=g_cd_l,
        g_ab=cp.j_ab_0, g_ac=cp.j_ac_0,
        g_abl=cp.eta_ab * cp.j_ab_0,
        g_acl=cp.eta_ac * cp.j_ac_0,
    )


# ---------------------------------------------------------------------------
# register layout and Hamiltonian terms
# ---------------------------------------------------------------------------

#: subsystem labels of the three-site register, slowest-varying first
THREE_SITE_LABELS = ("qa", "qb", "qc", "anc", "ma", "mb", "mc", "ml")


def three_site_layout(n_fock: int) -> HilbertLayout:
    """Qubits a, b, c, dilation ancilla, then qumodes a, b, c, l."""
    if n_fock < 2:
        raise ValueError("n_fock must be >= 2")
    return HilbertLayout(dims=(2, 2, 2, 2) + (n_fock,) * 4,
                         labels=THREE_SITE_LABELS)


def _num(n_fock: int) -> np.ndarray:
    return np.diag(np.arange(n_fock).astype(np.complex128))

def _quad(n_fock: int) -> np.ndarray:
    """b + b^dagger on the truncated space."""
    a = destroy(n_fock)
    return a + a.conj().T


def build_hamiltonian_terms(ep: EffectiveParams, n_fock: int,
                            lowfreq_split: str = "printed") -> dict:
    """Sparse matrices of the four Trotter groups on the three-site register.

    Returns ``{"h0", "h1", "h2xx", "h2yy", "layout"}``.  ``lowfreq_split``
    selects how the low-frequency dispersive term ``sigma_z_a (l + l^dag)``
    is split between the XX and YY groups: ``"printed"`` puts a coefficient
    ``g_cd_l/4`` in each (as published), ``"half"`` puts ``g_cd_l/2`` in
    each (the alternative reading, doubling the total coupling).
    """
    if lowfreq_split not in ("printed", "half"):
        raise ValueError(f"unknown lowfreq_split {lowfreq_split!r}")
    lay = three_site_layout(n_fock)
    num = _num(n_fock)
    quad = _quad(n_fock)
    q = {s: lay.index(f"q{s}") for s in SITES}
    m = {s: lay.index(f"m{s}") for s in SITES}
    ml = lay.index("ml")

    def emb(op, targets):
        return embed(lay, op, targets)

    mode_omega = {"a": ep.omega_a, "b": ep.omega_b, "c": ep.omega_c}
    chi = {"a": ep.chi_a, "b": ep.chi_b, "c": ep.chi_c}
    g_cd = {"a": ep.g_cd_a, "b": ep.g_cd_b, "c": ep.g_cd_c}

    h0 = sum(mode_omega[s] * emb(num, (m[s],)) for s in SITES)
    h0 = h0 + ep.omega_l * emb(num, (ml,))
    h0 = h0 - 0.5 * ep.delta_ab * emb(SZ, (q["b"],))
    h0 = h0 - 0.5 * ep.delta_ac * emb(SZ, (q["c"],))

    h1 = sp.csr_matrix((lay.total_dim, lay.total_dim), dtype=np.complex128)
    for s in SITES:
        h1 = h1 - 0.5 * chi[s] * emb(np.kron(SZ, num), (q[s], m[s]))
        h1 = h1 + 0.5 * g_cd[s] * emb(np.kron(SZ, quad), (q[s], m[s]))

    lcoef = ep.g_cd_l / (4.0 if lowfreq_split == "printed" else 2.0)
    lterm = lcoef * emb(np.kron(SZ, quad), (q["a"], ml))

    def pair_terms(pauli):
        pp = np.kron(pauli, pauli)
        t = (0.5 * ep.g_ab * emb(pp, (q["a"], q["b"]))
             + 0.5 * ep.g_ac * emb(pp, (q["a"], q["c"]))
             + 0.5 * ep.g_abl * emb(np.kron(pp, quad), (q["a"], q["b"], ml))
             + 0.5 * ep.g_acl * emb(np.kron(pp, quad), (q["a"], q["c"], ml)))
        return t

    h2xx = lterm + pair_terms(SX)
    h2yy = lterm + pair_terms(SY)
    return {"h0": h0.tocsr(), "h1": h1.tocsr(),
            "h2xx": h2xx.tocsr(), "h2yy": h2yy.tocsr(), "layout": lay}


def total_hamiltonian(terms: dict) -> sp.csr_matrix:
    return (terms["h0"] + terms["h1"] + terms["h2xx"] + terms["h2yy"]).tocsr()


# ---------------------------------------------------------------------------
# spin-boson benchmark
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpinBosonParams:
    """Debye-bath spin-boson inputs (energies in eV, temperature in K)."""

    eta: float = 0.3                 # bath coupling strength, eV
    omega_c_cm: float = 30.0         # Debye cutoff, cm^-1
    e0: float = 0.2                  # half level splitting, eV
    temperature: float = 77.0        # K
    eta_x: float = 1.0 / 3.0
    eta_y: float = 1.0 / 3.0
    eta_z: float = 1.0 / 3.0

    @property
    def omega_c_ev(self) -> float:
        return wavenumber_to_ev(self.omega_c_cm)

    @property
    def beta_ev(self) -> float:
        return 1.0 / (KB_EV_PER_K * self.temperature)


def debye_spectral_density(omega_ev: float, eta: float, omega_c_ev: float) -> float:
    """Debye (overdamped) spectral density J(w) = eta*w*wc / (w^2 + wc^2)."""
    return eta * omega_ev * omega_c_ev / (omega_ev ** 2 + omega_c_ev ** 2)


def lindblad_rates(sb: SpinBosonParams) -> dict:
    """Bath-induced jump rates in 1/s: relaxation (sigma+), excitation
    (sigma-) and pure dephasing (sigma_z).

    The relaxation/excitation pair satisfies detailed balance
    ``gamma_exc/gamma_relax = exp(-2 beta E0)`` by construction.
    """
    wc = sb.omega_c_ev
    beta = sb.beta_ev
    coef = 2.0 * (sb.eta_x ** 2 + sb.eta_y ** 2)
    gamma_relax = (coef * debye_spectral_density(2.0 * sb.e0, sb.eta, wc)
                   / (1.0 - math.exp(-2.0 * beta * sb.e0)))
    gamma_exc = (coef * debye_spectral_density(-2.0 * sb.e0, sb.eta, wc)
                 / (1.0 - math.exp(2.0 * beta * sb.e0)))
    # J'(0) = eta/omega_c for the Debye form
    gamma_dep = sb.eta_z ** 2 * (sb.eta / wc) / beta
    return {
        "relax": gamma_relax / HBAR_EV_S,
        "exc": gamma_exc / HBAR_EV_S,
        "dep": gamma_dep / HBAR_EV_S,
    }


def spin_boson_hamiltonian(sb: SpinBosonParams) -> np.ndarray:
    """System Hamiltonian H_S/hbar = -(E0/hbar) sigma_z in rad/s."""
    return -(sb.e0 / HBAR_EV_S) * SZ

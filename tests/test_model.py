"""Unit tests of parameter handling, derivation and Hamiltonian builders."""

import json
import math

import numpy as np
import pytest

from vibrosim import model
from vibrosim.hilbert import embed
from vibrosim.model import (ChromophoreParams, SpinBosonParams,
                            build_hamiltonian_terms, debye_spectral_density,
                            default_params, derive_effective, lindblad_rates,
                            spin_boson_hamiltonian, three_site_layout,
                            total_hamiltonian, wavenumber_to_ev,
                            wavenumber_to_hz)


def hermiticity_defect(m):
    return abs(m - m.conj().T).max()


class TestUnits:
    def test_wavenumber_to_hz(self):
        assert np.isclose(wavenumber_to_hz(1.0), 2.998e10)

    def test_wavenumber_to_ev(self):
        # 8065.5 cm^-1 ~ 1 eV
        assert np.isclose(wavenumber_to_ev(8065.5), 1.0, rtol=1e-3)


class TestChromophoreParams:
    def test_default_params_load(self):
        cp = default_params()
        assert cp.omega_l == 6.0e12
        assert cp.s_l == 0.05
        assert cp.omega_g("a") == cp.omega_g_a

    def test_unknown_field_rejected(self):
        raw = default_params().to_dict()
        raw["bogus"] = 1.0
        with pytest.raises(ValueError, match="unknown"):
            ChromophoreParams.from_dict(raw)

    def test_missing_field_rejected(self):
        raw = default_params().to_dict()
        del raw["omega_l"]
        with pytest.raises(ValueError, match="missing"):
            ChromophoreParams.from_dict(raw)

    def test_from_json_round_trip(self, tmp_path):
        cp = default_params()
        path = tmp_path / "params.json"
        path.write_text(json.dumps(cp.to_dict()))
        assert ChromophoreParams.from_json(path) == cp


class TestDeriveEffective:
    def test_definitional_relations(self):
        cp = default_params()
        ep = derive_effective(cp)
        for s in model.SITES:
            omega = 0.5 * (cp.omega_g(s) + cp.omega_e(s))
            assert getattr(ep, f"omega_{s}") == omega
            assert getattr(ep, f"chi_{s}") == cp.omega_e(s) - cp.omega_g(s)
            g = math.sqrt(cp.huang_rhys(s)) * cp.omega_e(s)
            assert np.isclose(getattr(ep, f"g_cd_{s}"), g * cp.omega_g(s) / omega)
        assert np.isclose(ep.g_cd_l, math.sqrt(cp.s_l) * cp.omega_l)
        assert ep.delta_ab == ep.omega_q_a - ep.omega_q_b
        assert ep.delta_ac == ep.omega_q_a - ep.omega_q_c
        assert ep.g_abl == cp.eta_ab * cp.j_ab_0
        assert ep.g_acl == cp.eta_ac * cp.j_ac_0

    def test_detunings_sign_structure(self):
        ep = derive_effective(default_params())
        assert ep.delta_ab > 0 > ep.chi_a
        assert ep.delta_ac > 0


@pytest.fixture(scope="module")
def terms():
    return build_hamiltonian_terms(derive_effective(default_params()), 3)


class TestThreeSiteHamiltonian:

    def test_layout(self, terms):
        lay = terms["layout"]
        assert lay.labels == model.THREE_SITE_LABELS
        assert lay.dims == (2, 2, 2, 2, 3, 3, 3, 3)

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            three_site_layout(1)

    def test_hermitian(self, terms):
        for key in ("h0", "h1", "h2xx", "h2yy"):
            assert hermiticity_defect(terms[key]) < 1e-6

    def test_total_is_sum(self, terms):
        total = total_hamiltonian(terms)
        partial = terms["h0"] + terms["h1"] + terms["h2xx"] + terms["h2yy"]
        assert abs(total - partial).max() == 0.0

    def test_qubit_excitation_conserved(self, terms):
        # XX + YY is a flip-flop: total electronic excitation commutes with H
        lay = terms["layout"]
        n_up = np.array([[0, 0], [0, 1]], dtype=np.complex128)
        n_tot = sum(embed(lay, n_up, (lay.index(f"q{s}"),))
                    for s in model.SITES)
        h = total_hamiltonian(terms)
        comm = h @ n_tot - n_tot @ h
        assert abs(comm).max() < 1e-3 * abs(h).max()

    def test_lowfreq_split_options(self):
        ep = derive_effective(default_params())
        printed = build_hamiltonian_terms(ep, 2, lowfreq_split="printed")
        half = build_hamiltonian_terms(ep, 2, lowfreq_split="half")
        # the low-frequency dispersive coefficient doubles; subtracting the
        # shared pair terms isolates it
        diff = (half["h2xx"] - printed["h2xx"]).toarray()
        lay = printed["layout"]
        quad = np.array([[0, 1], [1, 0]], dtype=np.complex128)
        sz = np.diag([1.0, -1.0]).astype(np.complex128)
        expected = (ep.g_cd_l / 4.0) * embed(
            lay, np.kron(sz, quad), (lay.index("qa"), lay.index("ml"))).toarray()
        assert np.allclose(diff, expected)
        with pytest.raises(ValueError):
            build_hamiltonian_terms(ep, 2, lowfreq_split="bogus")


class TestSpinBoson:
    def test_debye_spectral_density_shape(self):
        wc = 0.01
        peak = debye_spectral_density(wc, 1.0, wc)
        assert np.isclose(peak, 0.5)
        assert debye_spectral_density(2 * wc, 1.0, wc) < peak
        assert debye_spectral_density(-wc, 1.0, wc) == -peak

    def test_detailed_balance(self):
        sb = SpinBosonParams()
        rates = lindblad_rates(sb)
        ratio = rates["exc"] / rates["relax"]
        assert np.isclose(ratio, math.exp(-2.0 * sb.beta_ev * sb.e0), rtol=1e-10)

    def test_default_rates_magnitudes(self):
        rates = lindblad_rates(SpinBosonParams())
        assert np.isclose(rates["relax"], 1.884e12, rtol=1e-3)
        assert np.isclose(rates["dep"], 9.034e13, rtol=1e-3)
        assert rates["exc"] < 1e-10  # frozen out at 77 K

    def test_dephasing_rate_linear_in_temperature(self):
        r1 = lindblad_rates(SpinBosonParams(temperature=77.0))["dep"]
        r2 = lindblad_rates(SpinBosonParams(temperature=154.0))["dep"]
        assert np.isclose(r2, 2 * r1)

    def test_hamiltonian(self):
        sb = SpinBosonParams()
        h = spin_boson_hamiltonian(sb)
        assert np.allclose(h, np.diag([-sb.e0, sb.e0]) / model.HBAR_EV_S)

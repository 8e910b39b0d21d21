"""End-to-end tests of the command-line interface."""

import json

import pytest

from vibrosim import cli
from vibrosim.compiler import TRANSMON_STEP_COUNT
from vibrosim.isa import circuit_from_text
from vibrosim.model import default_params


def run_cli(args):
    return cli.main(args)


class TestResources:
    def test_transmon_tally(self, capsys):
        assert run_cli(["--resources", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["per_step"] == TRANSMON_STEP_COUNT

    def test_cavity_tally(self, capsys):
        assert run_cli(["--resources", "4", "--arch", "cavity"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["architecture"] == "cavity_only"
        assert out["per_step"]["bs"] == 2 * 336

    def test_too_few_sites_is_config_error(self, capsys):
        assert run_cli(["--resources", "2"]) == 2


class TestConfigErrors:
    def test_missing_preset(self, tmp_path):
        assert run_cli(["--out", str(tmp_path)]) == 2

    def test_missing_out(self):
        assert run_cli(["--preset", "fig3"]) == 2

    def test_bad_tau(self, tmp_path):
        assert run_cli(["--preset", "fig3", "--out", str(tmp_path),
                        "--tau-fs", "-1"]) == 2

    def test_bad_shots(self, tmp_path):
        assert run_cli(["--preset", "fig3", "--out", str(tmp_path),
                        "--shots", "0"]) == 2

    def test_bad_noise_eps(self, tmp_path):
        assert run_cli(["--preset", "fig3", "--out", str(tmp_path),
                        "--noise-cnot", "1.5"]) == 2

    def test_bad_gamma(self, tmp_path):
        assert run_cli(["--preset", "fig4", "--out", str(tmp_path),
                        "--gamma-amp-b", "-3"]) == 2

    def test_bad_config_file(self, tmp_path):
        cfg = tmp_path / "params.json"
        cfg.write_text("{\"bogus\": 1}")
        assert run_cli(["--preset", "fig4", "--out", str(tmp_path),
                        "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("flag", [["--fock", "3"],
                                      ["--gamma-amp-all", "1e12"],
                                      ["--gamma-dep-b", "1e12"],
                                      ["--config", "params.json"],
                                      ["--noise-cd"]])
    def test_spin_boson_rejects_three_site_flags(self, tmp_path, flag):
        assert run_cli(["--preset", "fig3", "--out", str(tmp_path)]
                       + flag) == 2
        assert not (tmp_path / "populations.csv").exists()

    def test_unknown_preset_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["--preset", "nope", "--out", "x"])
        assert exc.value.code == 2


class TestRuns:
    def test_spin_boson_run(self, tmp_path):
        assert run_cli(["--preset", "fig3", "--out", str(tmp_path),
                        "--steps", "5", "--shots", "50"]) == 0
        csv = (tmp_path / "populations.csv").read_text().splitlines()
        assert csv[0] == "time_ps,P_1,SE_1"
        assert len(csv) == 7  # header + t0 + 5 steps
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["tool"] == "vibrosim"
        assert manifest["preset"] == "fig3"
        assert "rates" in manifest

    def test_three_site_run_with_circuit(self, tmp_path):
        assert run_cli(["--preset", "fig4", "--out", str(tmp_path),
                        "--steps", "1", "--shots", "20", "--fock", "2",
                        "--emit-circuit"]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "effective_params" in manifest
        assert "circuit.txt" in manifest["outputs"]
        ops = circuit_from_text((tmp_path / "circuit.txt").read_text())
        assert len(ops) > 100  # the full palindromic step round-trips

    def test_gamma_overrides_recorded(self, tmp_path):
        assert run_cli(["--preset", "fig4", "--out", str(tmp_path),
                        "--steps", "1", "--shots", "20", "--fock", "2",
                        "--gamma-dep-all", "9e11", "--gamma-amp-b", "1e12"]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["gamma_dep"] == {s: 9e11 for s in ("a", "b", "c")}
        assert manifest["gamma_amp"] == {"b": 1e12}

    def test_config_file_round_trip(self, tmp_path):
        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps(default_params().to_dict()))
        out = tmp_path / "run"
        assert run_cli(["--preset", "fig4", "--out", str(out),
                        "--config", str(cfg), "--steps", "1", "--shots", "10",
                        "--fock", "2"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["chemical_params"] == default_params().to_dict()

    def test_noise_flags_recorded(self, tmp_path):
        assert run_cli(["--preset", "fig4", "--out", str(tmp_path),
                        "--steps", "1", "--shots", "10", "--fock", "2",
                        "--noise-cnot", "1e-3", "--noise-cd"]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["noise"]["cnot_epsilon"] == 1e-3
        assert manifest["noise"]["cd_enabled"] is True

    def test_first_order_angles_flag(self, tmp_path):
        assert run_cli(["--preset", "fig3", "--out", str(tmp_path),
                        "--steps", "2", "--shots", "20",
                        "--exact-angles", "off"]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["exact_angles"] is False

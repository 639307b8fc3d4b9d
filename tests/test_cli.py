"""End-to-end command-line runs, in process, against temporary directories."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import ddse
from ddse.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGENT,
    EXIT_OK,
    ConfigError,
    RunConfig,
    main,
)
from ddse.integrand import IntegrandSpec

UNIT_PSI = {"kind": "constant", "params": [1.0]}
ZERO_PSI = {"kind": "constant", "params": [0.0]}


def write_config(path, **fields):
    with open(path, "w") as fh:
        json.dump(fields, fh)
    return str(path)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestRunConfig:
    def test_roundtrip_through_json_dict(self):
        config = RunConfig(
            psi=IntegrandSpec.exponential_decay(2.0, 0.5),
            horizon=2.0,
            steps=16,
            n_paths=5_000,
            seed=99,
            scheme="em",
            antithetic=True,
            p_values=(1.5, 3.0),
            output_dir="out",
            format="csv",
        )
        assert RunConfig.from_dict(config.to_json_dict()) == config

    def test_defaults(self):
        config = RunConfig.from_dict({})
        assert config.psi == IntegrandSpec.constant(1.0)
        assert config.steps == 32
        assert config.p_values == (2.0,)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            RunConfig.from_dict({"pathz": 3})

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError, match="steps"):
            RunConfig.from_dict({"steps": True})

    def test_p_values_validated(self):
        with pytest.raises(ConfigError, match="p_values"):
            RunConfig.from_dict({"p_values": "2.0"})
        with pytest.raises(ConfigError, match="p_values"):
            RunConfig.from_dict({"p_values": []})
        with pytest.raises(ConfigError, match="p_values"):
            RunConfig.from_dict({"p_values": [2.0, True]})
        with pytest.raises(ConfigError, match="positive"):
            RunConfig.from_dict({"p_values": [-1.0]})

    def test_scheme_and_format_validated(self):
        with pytest.raises(ConfigError, match="scheme"):
            RunConfig.from_dict({"scheme": "milstein"})
        with pytest.raises(ConfigError, match="format"):
            RunConfig.from_dict({"format": "yaml"})


class TestUsageErrors:
    def test_no_subcommand(self, workdir, capsys):
        assert main([]) == EXIT_CONFIG
        assert "subcommand" in capsys.readouterr().err

    def test_missing_config_file(self, workdir, capsys):
        assert main(["novikov", "--config", "nope.json"]) == EXIT_CONFIG
        assert "cannot read config" in capsys.readouterr().err

    def test_malformed_json_reports_position(self, workdir, capsys):
        path = workdir / "bad.json"
        path.write_text('{"horizon": 1.0,}')
        assert main(["novikov", "--config", str(path)]) == EXIT_CONFIG
        assert "line" in capsys.readouterr().err

    def test_psi_without_kind(self, workdir, capsys):
        cfg = write_config(workdir / "c.json", psi={"params": [1.0]})
        assert main(["novikov", "--config", cfg]) == EXIT_CONFIG
        assert "kind" in capsys.readouterr().err

    def test_unknown_field(self, workdir, capsys):
        cfg = write_config(workdir / "c.json", horizonn=1.0)
        assert main(["novikov", "--config", cfg]) == EXIT_CONFIG

    def test_bad_flag_value(self, workdir, capsys):
        assert main(["estimate", "--n-paths", "many"]) == EXIT_CONFIG

    def test_workers_validated(self, workdir, capsys):
        assert main(["novikov", "--workers", "0"]) == EXIT_CONFIG


class TestNovikov:
    def test_finite_integrand(self, workdir, capsys):
        cfg = write_config(workdir / "c.json", psi=UNIT_PSI, horizon=1.0)
        assert main(["novikov", "--config", cfg]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "finite"
        assert doc["half_qv"] == 0.5
        assert doc["first_excess_time"] is None

    def test_divergent_integrand(self, workdir, capsys):
        cfg = write_config(
            workdir / "c.json",
            psi={"kind": "inverse_sqrt_blowup", "params": [1.0], "blowup_time": 0.5},
            horizon=1.0,
        )
        assert main(["novikov", "--config", cfg]) == EXIT_DIVERGENT
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "divergent"
        assert doc["first_excess_time"] == pytest.approx(0.5, abs=1e-6)

    def test_simulate_refuses_divergent_integrand(self, workdir, capsys):
        cfg = write_config(
            workdir / "c.json",
            psi={"kind": "inverse_sqrt_blowup", "params": [1.0], "blowup_time": 0.5},
            horizon=1.0,
            n_paths=200,
            steps=4,
        )
        assert main(["simulate", "--config", cfg]) == EXIT_DIVERGENT
        assert "divergent" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "psi",
        [
            {"kind": "exponential_decay", "params": [1.0, -800.0]},
            {"kind": "polynomial", "params": [0.0] * 5 + [1e200]},
        ],
    )
    def test_overflowing_closed_form_is_divergent(self, workdir, capsys, psi):
        cfg = write_config(workdir / "c.json", psi=psi, horizon=1.0, n_paths=200, steps=4)
        assert main(["novikov", "--config", cfg]) == EXIT_DIVERGENT

        def reject(token):
            raise AssertionError(f"non-standard JSON token {token}")

        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc == {"verdict": "divergent", "half_qv": None, "first_excess_time": None}
        assert main(["estimate", "--config", cfg]) == EXIT_DIVERGENT


class TestSimulate:
    def base_config(self, workdir, **extra):
        fields = dict(
            psi=UNIT_PSI,
            horizon=1.0,
            steps=4,
            n_paths=200,
            seed=5,
            output_dir=str(workdir / "out"),
        )
        fields.update(extra)
        return write_config(workdir / "c.json", **fields)

    def test_writes_all_artifacts(self, workdir, capsys):
        cfg = self.base_config(workdir)
        assert main(["simulate", "--config", cfg]) == EXIT_OK
        out = workdir / "out"
        assert (out / "paths.csv").exists()
        assert (out / "paths.bin").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        echoed = json.loads(capsys.readouterr().out)
        assert echoed == manifest
        assert manifest["seed"] == 5
        assert manifest["n_paths"] == 200
        assert len(manifest["increments_sha256"]) == 64

    def test_rerun_reproduces_bytes(self, workdir, capsys):
        cfg = self.base_config(workdir)
        main(["simulate", "--config", cfg])
        first = (workdir / "out" / "paths.csv").read_bytes()
        first_manifest = (workdir / "out" / "manifest.json").read_bytes()
        main(["simulate", "--config", cfg])
        assert (workdir / "out" / "paths.csv").read_bytes() == first
        assert (workdir / "out" / "manifest.json").read_bytes() == first_manifest

    def test_schemes_share_driving_noise(self, workdir, capsys):
        cfg = self.base_config(workdir)
        main(["simulate", "--config", cfg, "--scheme", "exact", "--out", str(workdir / "a")])
        main(["simulate", "--config", cfg, "--scheme", "em", "--out", str(workdir / "b")])
        a = json.loads((workdir / "a" / "manifest.json").read_text())
        b = json.loads((workdir / "b" / "manifest.json").read_text())
        assert a["increments_sha256"] == b["increments_sha256"]
        assert a["scheme"] == "exact" and b["scheme"] == "em"

    def test_flag_overrides_beat_config(self, workdir, capsys):
        cfg = self.base_config(workdir)
        main(["simulate", "--config", cfg, "--seed", "77"])
        manifest = json.loads((workdir / "out" / "manifest.json").read_text())
        assert manifest["seed"] == 77

    def test_zero_integrand_z_column_is_one(self, workdir, capsys):
        cfg = self.base_config(workdir, psi=ZERO_PSI, n_paths=3, steps=2)
        main(["simulate", "--config", cfg])
        lines = (workdir / "out" / "paths.csv").read_text().splitlines()
        assert lines[0] == "path_id,node_index,t,B,I,Z"
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[4]) == 0.0  # signed zero allowed
            assert fields[5] == "1.0"


class TestEstimate:
    def config(self, workdir, **extra):
        fields = dict(
            psi=UNIT_PSI,
            horizon=1.0,
            steps=8,
            n_paths=20_000,
            seed=12,
            p_values=[2.0],
            output_dir=str(workdir / "out"),
        )
        fields.update(extra)
        return write_config(workdir / "c.json", **fields)

    def test_full_report_passes(self, workdir, capsys):
        cfg = self.config(workdir)
        assert main(["estimate", "--config", cfg]) == EXIT_OK
        doc = json.loads((workdir / "out" / "report.json").read_text())
        assert doc["all_pass"] is True
        assert doc["mean_z"]["pass"] is True
        assert doc["increment_test"]["pass"] is True
        assert doc["scans"][0]["monotone_pass"] is True
        stdout = capsys.readouterr().out
        assert "report written to" in stdout
        assert "all_pass=true" in stdout

    def test_flat_profile_still_exits_zero(self, workdir, capsys):
        cfg = self.config(workdir, psi=ZERO_PSI, n_paths=10_000, steps=4)
        assert main(["estimate", "--config", cfg]) == EXIT_OK
        doc = json.loads((workdir / "out" / "report.json").read_text())
        assert doc["scans"][0]["monotone_pass"] is False
        assert any("constant profile" in n for n in doc["scans"][0]["notes"])

    def test_small_run_skips_increment_test(self, workdir, capsys):
        cfg = self.config(workdir, n_paths=500, steps=4)
        assert main(["estimate", "--config", cfg]) == EXIT_OK
        doc = json.loads((workdir / "out" / "report.json").read_text())
        assert doc["increment_test"] is None
        assert any("skipped" in n for n in doc["notes"])

    def test_rerun_is_byte_identical(self, workdir, capsys):
        cfg = self.config(workdir)
        main(["estimate", "--config", cfg])
        first = (workdir / "out" / "report.json").read_bytes()
        main(["estimate", "--config", cfg])
        assert (workdir / "out" / "report.json").read_bytes() == first

    def test_worker_count_does_not_change_bytes(self, workdir, capsys):
        cfg = self.config(workdir)
        main(["estimate", "--config", cfg, "--workers", "1"])
        first = (workdir / "out" / "report.json").read_bytes()
        main(["estimate", "--config", cfg, "--workers", "8"])
        assert (workdir / "out" / "report.json").read_bytes() == first

    def test_unit_moment_equals_martingale_block(self, workdir, capsys):
        cfg = self.config(workdir, p_values=[1.0])
        assert main(["estimate", "--config", cfg]) == EXIT_OK
        doc = json.loads((workdir / "out" / "report.json").read_text())
        assert doc["p_moments"][0] == doc["mean_z"]
        assert doc["scans"] == []

    def test_euler_scheme_unit_moment(self, workdir, capsys):
        cfg = self.config(workdir, scheme="em", steps=32, seed=21, p_values=[1.0])
        assert main(["estimate", "--config", cfg]) == EXIT_OK

    def test_csv_format(self, workdir, capsys):
        cfg = self.config(workdir, format="csv")
        assert main(["estimate", "--config", cfg]) == EXIT_OK
        lines = (workdir / "out" / "report.csv").read_text().splitlines()
        assert lines[0] == "quantity,n,estimate,se,ci_low,ci_high,target,pass"
        assert any(line.startswith("mean_z@t=1,") for line in lines)
        assert any(line.startswith("pth_moment@p=2;t=1,") for line in lines)


class TestWick:
    def test_zero_integrand(self, workdir, capsys):
        cfg = write_config(workdir / "c.json", psi=ZERO_PSI, horizon=1.0)
        assert main(["wick", "--config", cfg, "--order", "4"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["mgf"]["total"] == 1.0
        assert doc["cgf"]["total"] == 0.0
        assert doc["log_relation"]["gap"] == 0.0
        assert doc["log_relation"]["pass"] is True

    def test_default_order_fourteen(self, workdir, capsys):
        cfg = write_config(workdir / "c.json", psi=UNIT_PSI, horizon=1.0)
        assert main(["wick", "--config", cfg]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["mgf"]["orders"][-1][0] == 14
        high_cumulants = [term for m, term in doc["cgf"]["orders"] if m >= 3]
        assert high_cumulants == [0.0] * 12
        assert doc["log_relation"]["gap"] <= 1e-6

    def test_odd_order_rejected(self, workdir, capsys):
        cfg = write_config(workdir / "c.json", psi=UNIT_PSI, horizon=1.0)
        assert main(["wick", "--config", cfg, "--order", "13"]) == EXIT_CONFIG
        assert "--order" in capsys.readouterr().err

    def test_divergent_integrand(self, workdir, capsys):
        cfg = write_config(
            workdir / "c.json",
            psi={"kind": "inverse_sqrt_blowup", "params": [1.0], "blowup_time": 0.25},
            horizon=1.0,
        )
        assert main(["wick", "--config", cfg]) == EXIT_DIVERGENT


class TestGolden:
    # digests pinned by the reproducibility contract: a faster route to
    # the same numbers must not change a byte of stdout
    TABLE = [[k / 32, 0.5 + (37 * k % 29) / 29] for k in range(33)]
    DIGESTS = {
        "novikov": "81a86432ad7d98991406db478ae22f78ae4a17f4ad6729686650277622b8b1a9",
        "wick": "b543b6244af71d6249d9e11e557cb1760472ea8f9aabaa518b15a11a07e875a7",
    }

    @pytest.mark.parametrize("argv", [["novikov"], ["wick", "--order", "14"]])
    def test_tabulated_stdout_digest(self, workdir, capsys, argv):
        cfg = write_config(workdir / "c.json", psi={"kind": "tabulated", "table": self.TABLE}, horizon=1.0)
        assert main(argv + ["--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == self.DIGESTS[argv[0]]


class TestImports:
    @staticmethod
    def run_python(*args):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ddse.__file__)))
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)

    def test_module_entry_point_runs_without_runpy_warning(self):
        done = self.run_python("-W", "error::RuntimeWarning", "-m", "ddse.cli", "novikov")
        assert done.returncode == EXIT_OK, done.stderr
        assert json.loads(done.stdout)["verdict"] == "finite"

    def test_package_import_leaves_out_adaptive_quadrature(self):
        done = self.run_python("-c", "import sys, ddse; print('scipy.integrate' in sys.modules)")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

"""End-to-end command-line runs, in process, against temporary directories."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import threading

import pytest

import ddse
import ddse.cli
import ddse.estimators
from ddse.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGENT,
    EXIT_OK,
    EXIT_STAT_FAIL,
    ConfigError,
    RunConfig,
    main,
)
from ddse.estimators import (
    estimate_mean_z,
    estimate_p_moment,
    martingale_increment_test,
    submartingale_scan,
)
from ddse.integrand import IntegrandSpec
from ddse.paths import stoch_exp_em, stoch_exp_exact

UNIT_PSI = {"kind": "constant", "params": [1.0]}
ZERO_PSI = {"kind": "constant", "params": [0.0]}


def write_config(path, **fields):
    with open(path, "w") as fh:
        json.dump(fields, fh)
    return str(path)


def reject_constant(token):
    raise AssertionError(f"non-standard JSON token {token}")


def failed_verdicts(node, path=""):
    """Dotted paths of the verdict keys (``...pass``) of a report that read false."""
    if isinstance(node, (list, dict)):
        items = enumerate(node) if isinstance(node, list) else node.items()
        return {p for key, value in items for p in failed_verdicts(value, f"{path}.{key}" if path else str(key))}
    return {path} if node is False and path.endswith("pass") else set()


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
        doc = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert doc == {"verdict": "divergent", "half_qv": None, "first_excess_time": None}
        assert main(["estimate", "--config", cfg]) == EXIT_DIVERGENT

    @pytest.mark.parametrize("command", ["novikov", "wick", "estimate"])
    @pytest.mark.parametrize("table", [[[0, 1e200]], [[0, 1e200], [0.5, -1e200], [1, 1e200]]])
    def test_table_whose_square_overflows_is_divergent(self, workdir, capsys, table, command):
        # f^2 overflows float64, so the running qv passes the cap at once;
        # in the second table a^2 + ab + b^2 would read inf - inf
        psi = {"kind": "tabulated", "table": table}
        cfg = write_config(workdir / "c.json", psi=psi, horizon=1.0, n_paths=200, steps=4)
        # a RuntimeWarning fails the test (pyproject.toml's filterwarnings)
        assert main([command, "--config", cfg]) == EXIT_DIVERGENT
        captured = capsys.readouterr()
        if command == "novikov":
            doc = json.loads(captured.out, parse_constant=reject_constant)
            assert (doc["verdict"], doc["half_qv"]) == ("divergent", None)
            assert 0.0 <= doc["first_excess_time"] < 1e-6
        else:
            assert captured.err.startswith("divergent:")
            assert "cap" in captured.err


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

    def test_failed_write_leaves_no_temp_file(self, workdir, capsys, monkeypatch):
        def broken(bundle, path):
            with open(path, "wb") as fh:
                fh.write(b"DDSE")
            raise OSError("disk full")

        monkeypatch.setattr(ddse.cli, "write_binary", broken)
        assert main(["simulate", "--config", self.base_config(workdir)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write ") and "disk full" in err
        assert not [name for name in os.listdir(workdir / "out") if ".tmp" in name]
        assert not (workdir / "out" / "paths.bin").exists()

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

    @pytest.mark.parametrize("scheme", ["exact", "em"])
    def test_each_block_is_generated_once(self, workdir, capsys, monkeypatch, scheme):
        # estimate streams row blocks: no full-matrix sampler may run, and
        # each block is generated once, also when an Euler run scans the
        # exact law on the same noise
        def refuse(*args, **kwargs):
            raise AssertionError("estimate built a full path matrix")

        for name in ("stoch_exp_exact", "stoch_exp_em", "sample_brownian"):
            real = getattr(ddse.paths, name)
            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("ddse") and getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, refuse)
        blocks = []
        real_block = ddse.paths.RowBlocks._block

        def counted(self, start, stop):
            blocks.append(start)
            return real_block(self, start, stop)

        monkeypatch.setattr(ddse.paths.RowBlocks, "_block", counted)
        n_paths = 40_000
        cfg = self.config(workdir, scheme=scheme, n_paths=n_paths, p_values=[2.0, 3.0])
        assert main(["estimate", "--config", cfg]) in (EXIT_OK, EXIT_STAT_FAIL)
        assert sorted(blocks) == list(range(0, n_paths, ddse.paths._BLOCK_ROWS))
        assert len(blocks) == math.ceil(n_paths / ddse.paths._BLOCK_ROWS)
        doc = json.loads((workdir / "out" / "report.json").read_text())
        assert [scan["p"] for scan in doc["scans"]] == [2.0, 3.0]

    @pytest.mark.parametrize("scheme,p_values,calls", [
        ("exact", [0.5], 1),
        ("exact", [0.5, 2.0], 1),
        ("em", [0.5], 1),
        ("em", [0.5, 2.0], 2),
    ])
    def test_euler_run_folds_exact_z_only_to_scan(self, workdir, capsys, monkeypatch, scheme, p_values, calls):
        # the exact z of an Euler run feeds only the scans, which need a p > 1
        folded = []
        real_partials = ddse.estimators.NodeMoments.partials

        def counted(self, z):
            folded.append(self.powers)
            return real_partials(self, z)

        monkeypatch.setattr(ddse.estimators.NodeMoments, "partials", counted)
        cfg = self.config(workdir, scheme=scheme, n_paths=2_000, p_values=p_values)
        assert main(["estimate", "--config", cfg]) in (EXIT_OK, EXIT_STAT_FAIL)
        assert len(folded) == calls

    @pytest.mark.parametrize(
        "extra", [{}, {"antithetic": True}, {"scheme": "em"}], ids=["plain", "antithetic", "em"]
    )
    def test_report_invariant_to_workers_and_block_size(self, workdir, capsys, monkeypatch, extra):
        # 70,000 rows make 5, 3 and 2 blocks at 2^14, 2^15 and 2^16 rows,
        # so every multi-worker run below maps blocks over the thread pool
        cfg = self.config(workdir, n_paths=70_000, steps=4, p_values=[0.5, 2.0, 3.0], **extra)
        report = workdir / "out" / "report.json"
        blobs = []
        for workers in ("1", "2", "3"):
            main(["estimate", "--config", cfg, "--workers", workers])
            blobs.append(report.read_bytes())
        for rows in (1 << 15, 1 << 16):
            monkeypatch.setattr(ddse.paths, "_BLOCK_ROWS", rows)
            main(["estimate", "--config", cfg, "--workers", "2"])
            blobs.append(report.read_bytes())
        assert all(blob == blobs[0] for blob in blobs)

    @pytest.mark.parametrize(
        "extra", [{}, {"antithetic": True}, {"scheme": "em"}], ids=["plain", "antithetic", "em"]
    )
    def test_streamed_report_matches_bundle_functions(self, workdir, capsys, extra):
        # the CLI folds row blocks as they are generated; the library
        # functions fold the rows of a full bundle; the two must agree
        cfg = self.config(workdir, n_paths=40_000, p_values=[1.0, 2.0, 3.0], **extra)
        assert main(["estimate", "--config", cfg]) in (EXIT_OK, EXIT_STAT_FAIL)
        doc = json.loads((workdir / "out" / "report.json").read_text())
        config = RunConfig.from_dict(json.loads(open(cfg).read()))
        args = (config.psi, config.grid, config.n_paths, config.seed_spec, config.antithetic)
        bundle = (stoch_exp_em if config.scheme == "em" else stoch_exp_exact)(*args)
        exact = stoch_exp_exact(*args)
        assert doc["mean_z"] == estimate_mean_z(bundle, 8).to_json_dict()
        assert doc["p_moments"] == [estimate_p_moment(bundle, 8, p).to_json_dict() for p in config.p_values]
        assert doc["increment_test"] == martingale_increment_test(bundle, 4, 8, 16).to_json_dict()
        assert doc["scans"] == [submartingale_scan(exact, p).to_json_dict() for p in (2.0, 3.0)]

    def test_nonfinite_statistic_is_a_failed_verdict(self, workdir, capsys):
        # c = 40 drives z(s) and z(t) below the smallest double on most paths,
        # so some increment groups have SE 0 and an infinite gap ratio
        cfg = self.config(workdir, psi={"kind": "constant", "params": [40.0]}, p_values=[1.5])
        code = main(["estimate", "--config", cfg])
        assert code in (EXIT_OK, EXIT_STAT_FAIL)
        doc = json.loads((workdir / "out" / "report.json").read_text(), parse_constant=reject_constant)
        increment = doc["increment_test"]
        assert increment["max_abs_gap_in_se"] is None
        assert increment["pass"] is False
        assert any(note.startswith("non-finite statistic") for note in increment["notes"])
        assert code == EXIT_STAT_FAIL and doc["all_pass"] is False

    @pytest.mark.parametrize("command", ["estimate", "simulate"])
    def test_unwritable_output_keeps_exit_contract(self, workdir, capsys, command):
        taken = workdir / "taken"
        taken.write_text("a regular file where the output directory should go\n")
        cfg = self.config(workdir, n_paths=500, steps=4)
        assert main([command, "--config", cfg, "--out", str(taken)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: cannot write {taken}")
        assert taken.read_text().startswith("a regular file")

    @staticmethod
    def child_peak_kb(*argv):
        # ru_maxrss outlives exec, so a child of a large test process would
        # report the parent's peak; VmHWM counts the child's own pages only
        probe = (
            "import sys\n"
            "from ddse.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "peak = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
            "print(code, peak.split()[1])\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ddse.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, timeout=300
        )
        code, kb = done.stdout.split()[-2:]
        assert int(code) in (EXIT_OK, EXIT_STAT_FAIL), done.stderr
        return int(kb)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
    def test_peak_memory_does_not_grow_with_paths(self, workdir):
        # each child reports its own peak RSS; row blocks keep it flat, where
        # full path matrices would add about 25 MB per 100,000 paths here
        cfg = self.config(workdir, n_paths=1_000)
        peak_kb = [
            self.child_peak_kb("estimate", "--config", cfg, "--n-paths", str(n_paths)) for n_paths in (2**17, 2**20)
        ]
        assert peak_kb[1] - peak_kb[0] <= 32 * 1024, peak_kb

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
    def test_euler_scan_peak_memory_adds_one_z_array(self, workdir):
        # an Euler run that scans folds its Euler z and the exact z of each
        # block one after the other, in one set of fold buffers per thread:
        # its peak may pass the exact run's by the block's second z array
        # (plus 2 MB), not by a second set of fold buffers (about 15 MB
        # over the exact peak when each fold kept its own)
        steps = 32
        cfg = self.config(workdir, n_paths=2**16, steps=steps, p_values=[2.0, 3.0])
        exact, em = (self.child_peak_kb("estimate", "--config", cfg, "--scheme", s) for s in ("exact", "em"))
        z_kb = ddse.paths._BLOCK_ROWS * (steps + 1) * 8 // 1024
        assert em - exact <= z_kb + 2 * 1024, (exact, em)

    @pytest.mark.parametrize("mode", ["exact", "em", "antithetic"])
    def test_thread_buffers_hold_one_block_and_one_slice(self, workdir, capsys, monkeypatch, mode):
        # a thread's buffers hold one block's increments, Ito sums and z and
        # one (nodes, 8192) reduction slice: no transposed copy of z, no
        # block-sized |z|^p and no second set for a second fold
        peak = {}
        real_take = ddse.paths._Scratch.take

        def take(scratch, name, shape):
            key = (id(scratch), threading.get_ident(), name)
            peak[key] = max(peak.get(key, 0), 8 * math.prod(shape))
            return real_take(scratch, name, shape)

        monkeypatch.setattr(ddse.paths._Scratch, "take", take)
        rows, steps, slice_size = ddse.paths._BLOCK_ROWS, 32, ddse.estimators._SUM_BLOCK
        nodes = steps + 1
        extra = {"em": {"scheme": "em"}, "antithetic": {"antithetic": True}}.get(mode, {})
        cfg = self.config(workdir, n_paths=rows, steps=steps, p_values=[2.0, 3.0], **extra)
        assert main(["estimate", "--config", cfg]) in (EXIT_OK, EXIT_STAT_FAIL)
        more = {
            "exact": 0,
            # the Euler z beside the exact z, which the scans fold
            "em": rows * nodes,
            # a slice of pair means, and the uniforms of the half rows drawn
            "antithetic": nodes * slice_size + rows // 2 * steps,
        }[mode]
        bound = 8 * (rows * (steps + 2 * nodes) + nodes * slice_size + more)
        assert sum(peak.values()) <= bound, peak

    @pytest.mark.skipif(sys.platform != "linux", reason="needs Linux getrusage fault counts")
    def test_page_faults_do_not_grow_with_paths(self, workdir):
        # each child reports its own minor page faults; row blocks generated
        # and folded in arrays each thread reuses keep the count flat, where
        # arrays allocated afresh for every block fault in their pages again
        # (about 114,000 more faults at 2^19 paths than at 2^17 on a 2-vCPU Xeon)
        probe = (
            "import resource, sys\n"
            "from ddse.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt)\n"
        )
        steps = 32
        cfg = self.config(workdir, n_paths=1_000, steps=steps, p_values=[2.0, 3.0])
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ddse.__file__)))
        faults = []
        for n_paths in (2**17, 2**19):
            done = subprocess.run(
                [sys.executable, "-c", probe, "estimate", "--config", cfg, "--n-paths", str(n_paths)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            code, count = done.stdout.split()[-2:]
            assert int(code) in (EXIT_OK, EXIT_STAT_FAIL), done.stderr
            faults.append(int(count))
        # fewer than the pages of one block of z
        block_pages = ddse.paths._BLOCK_ROWS * (steps + 1) * 8 // os.sysconf("SC_PAGE_SIZE")
        assert faults[1] - faults[0] < block_pages, faults

    @pytest.mark.parametrize(
        "level,code", [(10.0, None), (20.0, EXIT_DIVERGENT), (40.0, EXIT_DIVERGENT), (1e150, EXIT_DIVERGENT)]
    )
    def test_overflowing_target_keeps_exit_contract(self, workdir, capsys, level, code):
        # c = 20: the p = 3 target exp(3 c^2 t) passes float64 range at t > 0.6;
        # c = 40 and 1e150: the p = 2 target does too
        cfg = self.config(workdir, psi={"kind": "constant", "params": [level]}, p_values=[2.0, 3.0])
        got = main(["estimate", "--config", cfg])
        report = workdir / "out" / "report.json"
        if code == EXIT_DIVERGENT:
            assert got == EXIT_DIVERGENT
            assert capsys.readouterr().err.startswith("divergent:")
            assert not report.exists()
            return
        assert got in (EXIT_OK, EXIT_STAT_FAIL)
        json.loads(report.read_text(), parse_constant=reject_constant)

    def test_csv_format(self, workdir, capsys):
        cfg = self.config(workdir, format="csv")
        assert main(["estimate", "--config", cfg]) == EXIT_OK
        lines = (workdir / "out" / "report.csv").read_text().splitlines()
        assert lines[0] == "quantity,n,estimate,se,ci_low,ci_high,target,pass"
        assert any(line.startswith("mean_z@t=1,") for line in lines)
        assert any(line.startswith("pth_moment@p=2;t=1,") for line in lines)

    @pytest.mark.parametrize("sigmas", [None, 0.0], ids=["as-is", "every-group-fails"])
    def test_csv_pass_column_decides_all_pass_and_exit(self, workdir, capsys, monkeypatch, sigmas):
        # report.csv holds every check, the increment test's bin groups
        # included, so its pass column alone gives all_pass and the exit code
        if sigmas is not None:
            monkeypatch.setattr(ddse.estimators, "BIN_GAP_SIGMAS", sigmas)
        cfg = self.config(workdir, format="csv")
        code = main(["estimate", "--config", cfg])
        rows = (workdir / "out" / "report.csv").read_text().splitlines()[1:]
        assert sum(row.startswith("increment_gap@s=0.5;t=1;group=") for row in rows) == 16
        verdict = all(row.endswith(",true") for row in rows)
        assert verdict is (sigmas is None)
        assert capsys.readouterr().out.endswith(f"all_pass={str(verdict).lower()}\n")
        assert code == (EXIT_OK if verdict else EXIT_STAT_FAIL)

    @pytest.mark.parametrize(
        "quantity,verdicts",
        [
            ("mean_z@t=1", {"mean_z.pass"}),
            ("pth_moment@p=2;t=1", {"p_moments.0.pass"}),
            ("increment_gap@s=0.5;t=1;group=7", {"increment_test.pass"}),
            ("pth_moment@p=2;t=0.5", {"scans.0.reports.4.pass", "scans.0.statistical_pass"}),
        ],
        ids=["mean-z", "horizon-p-moment", "increment-group", "scan-node"],
    )
    def test_no_check_escapes_the_aggregate(self, workdir, capsys, monkeypatch, quantity, verdicts):
        # one failing record of each kind fails the whole report; the
        # horizon p-moment is built before the scan node of the same name
        real_check = ddse.estimators._check
        flipped = []

        def check(*args):
            record = real_check(*args)
            if record.quantity == quantity and not flipped:
                flipped.append(record)
                return dataclasses.replace(record, passed=False)
            return record

        monkeypatch.setattr(ddse.estimators, "_check", check)
        for fmt in ("json", "csv"):
            flipped.clear()
            assert main(["estimate", "--config", self.config(workdir, format=fmt)]) == EXIT_STAT_FAIL
            assert capsys.readouterr().out.endswith("all_pass=false\n")
            assert len(flipped) == 1
        doc = json.loads((workdir / "out" / "report.json").read_text())
        assert failed_verdicts(doc) == verdicts | {"all_pass"}
        rows = (workdir / "out" / "report.csv").read_text().splitlines()[1:]
        failed = [row for row in rows if not row.endswith(",true")]
        assert len(failed) == 1 and failed[0].startswith(quantity + ",") and failed[0].endswith(",false")


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

    @pytest.mark.parametrize("level,code", [(10.0, EXIT_OK), (40.0, EXIT_OK), (1e150, EXIT_DIVERGENT)])
    def test_overflowing_series_keeps_exit_contract(self, workdir, capsys, level, code):
        # c = 10: the remainder bound is vacuous; c = 40: exp(qv/2) overflows;
        # c = 1e150: the order-4 moment overflows
        cfg = write_config(workdir / "c.json", psi={"kind": "constant", "params": [level]}, horizon=1.0)
        assert main(["wick", "--config", cfg]) == code
        captured = capsys.readouterr()
        if code == EXIT_DIVERGENT:
            assert captured.err.startswith("divergent:")
            assert captured.out == ""
            return

        doc = json.loads(captured.out, parse_constant=reject_constant)
        assert doc["log_relation"]["bound"] is None
        assert doc["log_relation"]["pass"] is True


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

    # paths.csv, paths.bin, manifest.json of a 40-path, 8-step simulate run
    SIMULATE_DIGESTS = {
        "exact": (
            "b14d64e58ace4c63238221f44bcdd753ab68a78a34deddb428cb49d887292ed8",
            "c1bcdcefed375d749555d45f310117bc4dbf345677f7a6ca6ccb361524d6cd75",
            "51f633503f8effdb13483537dc5387cfaf9fb464f18bc5cdedcd7abb25fafe13",
        ),
        "em": (
            "0c9e3407c30416ed04c2c0a9a4cec00a1883038353694809b6ad3953144f750d",
            "0617013fa3258af8fe76636d2787918cb57755d80342385d465e1d616400d2a1",
            "8a77319876384ad5a0b09c1488fa1738a23dfdb0fa5693cdb760918027a6d5be",
        ),
        "antithetic": (
            "5e8a64e36fc5edb479c3452163c6b42767264206b398ab0d49dbcd2ddada46bf",
            "3c4c20571721e8b6afbbe4840186bbf818368254dd30af07516b972fca972c51",
            "c9ad4e5984b0de1d2ac537dc33eac54a5f9eeaa14c19b37a94b2fe428c8dd6b3",
        ),
    }

    # report.json of a 40,000-path estimate run (a short last block), with
    # 8 steps, or with 5, whose rows are not a whole number of four-double
    # counter blocks wide, so the uniforms are drawn through a scratch array
    ESTIMATE_DIGESTS = {
        "exact": "9ff19a3f13ff1b0e506f6fb81a474f2a26a688d51da3ecd1b4bd726f75770776",
        "em": "dffd46af3df762d385e6af0ec555368eb1d1ac8ea5ae2d6716c677ea991c2aca",
        "antithetic": "c367a92965af174a5b6cd09898f7de25e68055171796d380093bf230ffb1538f",
        "exact-steps5": "45f6bb928a3e30101252a1d4a71e9cd112ffad222402709f0a3a646ab5fa2d00",
        "antithetic-steps5": "1c1d555f99667c73170a8bb386db516cd91f55a39fa1590b636fc20b5c99dafa",
    }

    # report.csv of the same runs, and of that file without its
    # increment_gap@ rows, which is the file written before the increment
    # test's bin groups became rows
    ESTIMATE_CSV_DIGESTS = {
        "exact": (
            "55ccd4241e1beeca006868c8bdc4e470621e8eb791567310b26410deb4db18b3",
            "fe78bf881fcd7c781ce72800802f76bd01b23767ba3eb542b41ff56d76ba7730",
        ),
        "em": (
            "7b5e85ee3149d0b3fd92bc8d42a58d8f368370008771a1ad95df63500ac3a055",
            "1ad44273669b87b5df446c003d87de6028253fa07293b1936225d6a35943ca54",
        ),
        "antithetic": (
            "f3aa61713c3cc33b183abd001e35e0798342aa1f609df968b375445ad64e6c0f",
            "b4972f522113b19e4eca784bf6884dbe4583161163c4b68dd29b13f5220a0eac",
        ),
    }

    def estimate_argv(self, workdir, mode):
        scheme, _, steps = mode.partition("-steps")
        extra = {"em": {"scheme": "em"}, "antithetic": {"antithetic": True}}.get(scheme, {})
        cfg = write_config(
            workdir / "c.json",
            psi={"kind": "tabulated", "table": self.TABLE},
            horizon=1.0,
            steps=int(steps or 8),
            n_paths=40_000,
            seed=2024,
            output_dir="out",
            **extra,
        )
        return ["estimate", "--config", cfg, "--p", "0.5", "--p", "2", "--p", "3"]

    @pytest.mark.parametrize("mode", ["exact", "em", "antithetic", "exact-steps5", "antithetic-steps5"])
    def test_estimate_report_digests(self, workdir, capsys, mode):
        for workers in ("1", "2"):
            assert main(self.estimate_argv(workdir, mode) + ["--workers", workers]) in (EXIT_OK, EXIT_STAT_FAIL)
            digest = hashlib.sha256((workdir / "out" / "report.json").read_bytes()).hexdigest()
            assert digest == self.ESTIMATE_DIGESTS[mode], workers

    @pytest.mark.parametrize("mode", ["exact", "em", "antithetic"])
    def test_estimate_csv_digests(self, workdir, capsys, mode):
        for workers in ("1", "2"):
            argv = self.estimate_argv(workdir, mode) + ["--format", "csv", "--workers", workers]
            assert main(argv) in (EXIT_OK, EXIT_STAT_FAIL)
            lines = (workdir / "out" / "report.csv").read_bytes().splitlines(keepends=True)
            without_groups = b"".join(line for line in lines if not line.startswith(b"increment_gap@"))
            digests = tuple(hashlib.sha256(blob).hexdigest() for blob in (b"".join(lines), without_groups))
            assert digests == self.ESTIMATE_CSV_DIGESTS[mode], workers

    @pytest.mark.parametrize("mode", ["exact", "em", "antithetic", "exact-steps5", "antithetic-steps5"])
    def test_report_records_are_its_json_verdicts(self, workdir, capsys, monkeypatch, mode):
        # the records report.csv is written from are every verdict leaf of
        # report.json, in report order, and their conjunction is all_pass
        records = []
        real_to_csv = ddse.cli.reports_to_csv

        def to_csv(reports):
            records.extend(reports)
            return real_to_csv(reports)

        monkeypatch.setattr(ddse.cli, "reports_to_csv", to_csv)
        code = main(self.estimate_argv(workdir, mode))
        assert main(self.estimate_argv(workdir, mode) + ["--format", "csv"]) == code
        doc = json.loads((workdir / "out" / "report.json").read_text())
        increment = doc["increment_test"]
        head, tail = 1 + len(doc["p_moments"]), 1 + len(doc["p_moments"]) + len(increment["gaps"])
        assert [r.to_json_dict() for r in records[:head]] == [doc["mean_z"], *doc["p_moments"]]
        groups = records[head:tail]
        assert [r.quantity for r in groups] == [
            f"increment_gap@s={increment['s']:g};t={increment['t']:g};group={k}" for k in range(len(groups))
        ]
        assert [r.estimate for r in groups] == increment["gaps"]
        assert all(r.passed for r in groups) is increment["pass"]
        assert [r.to_json_dict() for r in records[tail:]] == [r for scan in doc["scans"] for r in scan["reports"]]
        assert [scan["statistical_pass"] for scan in doc["scans"]] == [
            all(r["pass"] for r in scan["reports"]) for scan in doc["scans"]
        ]
        assert all(r.passed for r in records) is doc["all_pass"]
        assert code == (EXIT_OK if doc["all_pass"] else EXIT_STAT_FAIL)

    @pytest.mark.parametrize("mode", ["exact", "em", "antithetic"])
    def test_simulate_output_digests(self, workdir, capsys, mode):
        extra = {"em": {"scheme": "em"}, "antithetic": {"antithetic": True}}.get(mode, {})
        cfg = write_config(
            workdir / "c.json",
            psi={"kind": "tabulated", "table": self.TABLE},
            horizon=1.0,
            steps=8,
            n_paths=40,
            seed=2024,
            output_dir="out",
            **extra,
        )
        assert main(["simulate", "--config", cfg]) == EXIT_OK
        digests = tuple(
            hashlib.sha256((workdir / "out" / name).read_bytes()).hexdigest()
            for name in ("paths.csv", "paths.bin", "manifest.json")
        )
        assert digests == self.SIMULATE_DIGESTS[mode]


class TestImports:
    @staticmethod
    def run_python(*args):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ddse.__file__)))
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)

    def test_module_entry_point_runs_without_runpy_warning(self, tmp_path):
        done = self.run_python("-W", "error::RuntimeWarning", "-m", "ddse.cli", "novikov")
        assert done.returncode == EXIT_OK, done.stderr
        assert json.loads(done.stdout)["verdict"] == "finite"
        # overflowing moment targets end in the divergence code, not a warning
        cfg = write_config(
            tmp_path / "c.json",
            psi={"kind": "constant", "params": [20.0]},
            n_paths=1_000,
            steps=8,
            p_values=[2.0, 3.0],
            output_dir=str(tmp_path / "out"),
        )
        done = self.run_python("-W", "error::RuntimeWarning", "-m", "ddse.cli", "estimate", "--config", cfg)
        assert done.returncode == EXIT_DIVERGENT, done.stderr

    def test_package_import_leaves_out_adaptive_quadrature(self):
        done = self.run_python("-c", "import sys, ddse; print('scipy.integrate' in sys.modules)")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

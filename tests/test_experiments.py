"""Experiment harness and CLI: configs, CSV determinism, manifests."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qembezzle
from qembezzle.errors import ConfigError, QEmbezzleError
from qembezzle.experiments import (
    ExperimentConfig,
    config_from_dict,
    parse_result_csv,
    replay_manifest,
    run_experiment,
)


class TestConfig:
    def test_unknown_field_rejected_with_path(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"experiment": "fidelity", "bogus": 1})
        assert err.value.field == "bogus"

    def test_bad_epsilon_grid_path(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"experiment": "nmin", "epsilon_grid": [0.1, 2.0]})
        assert err.value.field == "epsilon_grid[1]"

    def test_missing_experiment(self):
        with pytest.raises(ConfigError):
            config_from_dict({})

    @pytest.mark.parametrize(
        "field, value",
        [("seed", "5"), ("d", 2.0), ("candidates", True), ("epsilon_grid", 0.1),
         ("m_values", [4, "8"]), ("state_source", 3), ("threshold", "0.9")],
    )
    def test_mistyped_field_rejected_with_path(self, field, value):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"experiment": "nmin", field: value})
        assert err.value.field == field

    def test_int_accepted_for_float_field(self):
        # No integer threshold lies in (0, 1), so the int goes to another float field.
        assert config_from_dict({"experiment": "qutrit-map", "margin": 0}).margin == 0

    def test_defaults_valid(self):
        cfg = config_from_dict({"experiment": "fidelity"})
        assert cfg.d == 2 and cfg.seed == 0


class TestRuns:
    def test_fidelity_rows_match_labels(self, tmp_path):
        cfg = ExperimentConfig(experiment="fidelity", output_path=str(tmp_path / "f.csv"))
        result = run_experiment(cfg)
        table = parse_result_csv(result.csv_path.read_text())
        assert table.header[:2] == ("table", "row")
        labelled = [r for r in table.rows if r[2]]
        assert len(labelled) == 4
        for row in labelled:
            label = float(row[2])
            value = float(row[5]) if row[3] == "avg_fidelity" else float(row[4])
            assert abs(value - label) <= 0.01

    def test_csv_round_trip_preserves_12_digits(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="embezzle", epsilon_grid=[0.1, 0.2], output_path=str(tmp_path / "e.csv")
        )
        result = run_experiment(cfg)
        parsed = parse_result_csv(result.csv_path.read_text())
        for raw_row, typed_row in zip(parsed.rows, result.table.rows):
            for cell, value in zip(raw_row, typed_row):
                if isinstance(value, float):
                    assert float(cell) == pytest.approx(value, rel=1e-11)

    def test_byte_identical_rerun(self, tmp_path):
        cfg1 = ExperimentConfig(
            experiment="nmin",
            epsilon_grid=[0.1, 0.2],
            candidates=5,
            seed=11,
            output_path=str(tmp_path / "a.csv"),
        )
        cfg2 = ExperimentConfig(
            experiment="nmin",
            epsilon_grid=[0.1, 0.2],
            candidates=5,
            seed=11,
            output_path=str(tmp_path / "b.csv"),
        )
        run_experiment(cfg1)
        run_experiment(cfg2)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_manifest_replay(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="montecarlo",
            samples=3,
            candidates=3,
            seed=21,
            output_path=str(tmp_path / "mc.csv"),
        )
        result = run_experiment(cfg)
        replayed = replay_manifest(result.manifest_path, tmp_path / "mc2.csv")
        assert (tmp_path / "mc.csv").read_bytes() == (tmp_path / "mc2.csv").read_bytes()
        assert replayed.manifest["csv_sha256"] == result.manifest["csv_sha256"]

    def test_threads_do_not_change_output(self, tmp_path):
        base = dict(experiment="montecarlo", samples=4, candidates=3, seed=5)
        r1 = run_experiment(ExperimentConfig(**base, output_path=str(tmp_path / "t1.csv")))
        r2 = run_experiment(
            ExperimentConfig(**base, threads=4, output_path=str(tmp_path / "t2.csv"))
        )
        assert r1.table == r2.table

    def test_manifest_contents(self, tmp_path):
        cfg = ExperimentConfig(experiment="consumption", m_values=[4, 8], output_path=str(tmp_path / "c.csv"))
        result = run_experiment(cfg)
        doc = json.loads(result.manifest_path.read_text())
        assert doc["config"]["experiment"] == "consumption"
        assert set(doc["versions"]) == {"qembezzle", "numpy", "mpmath", "python"}
        assert set(doc["environment"]) == {"platform", "cpu_count"}
        assert doc["wall_time_s"] >= 0.0
        assert len(doc["csv_sha256"]) == 64

    def test_replay_mismatch_detected(self, tmp_path):
        cfg = ExperimentConfig(experiment="consumption", m_values=[4], output_path=str(tmp_path / "x.csv"))
        result = run_experiment(cfg)
        doc = json.loads(result.manifest_path.read_text())
        doc["csv_sha256"] = "0" * 64
        bad = tmp_path / "bad.manifest.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(QEmbezzleError):
            replay_manifest(bad, tmp_path / "y.csv")


class TestPinnedTables:
    """Digests of tables whose values are deterministic functions of the config."""

    @pytest.mark.parametrize(
        "config, digest",
        [
            (
                {"experiment": "qutrit-map", "resolution": 100},
                "45069680a17f3c105e9eec68bcba598788de0381e1f40cfd0b339fe1742e5cb7",
            ),
            (
                {"experiment": "consumption"},
                "fcaa7ef3568234cc9b6c4d59cee9ad4e078cd30067cd4e4335c6dea772a01dd7",
            ),
            (
                {"experiment": "distill"},
                "6b1613485b065894f6465cc517c69097070d03e782c2c0a28718078c8a0262a5",
            ),
        ],
    )
    def test_csv_digest(self, tmp_path, config, digest):
        cfg = ExperimentConfig(**config, output_path=str(tmp_path / "t.csv"))
        result = run_experiment(cfg)
        assert hashlib.sha256(result.csv_path.read_bytes()).hexdigest() == digest


class TestAtomicWrites:
    def test_run_leaves_no_temp_files(self, tmp_path):
        cfg = ExperimentConfig(experiment="consumption", m_values=[4], output_path=str(tmp_path / "c.csv"))
        run_experiment(cfg)
        run_experiment(cfg)  # and again over the existing files
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "c.csv.manifest.json"]

    def test_manifest_write_failure_leaves_no_partial_csv(self, tmp_path, monkeypatch):
        write_text = Path.write_text

        def failing(path, text, *args, **kwargs):
            if ".manifest.json." in path.name:
                write_text(path, text[: len(text) // 2], *args, **kwargs)
                raise OSError(28, "No space left on device")
            return write_text(path, text, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", failing)
        cfg = ExperimentConfig(experiment="consumption", m_values=[4], output_path=str(tmp_path / "c.csv"))
        with pytest.raises(OSError):
            run_experiment(cfg)
        assert list(tmp_path.iterdir()) == []


# The directory holding the qembezzle package this process imported. The CLI
# subprocesses run in a temp directory, where a relative PYTHONPATH such as
# "src" no longer resolves, so this absolute path goes first on theirs and they
# import the same copy of the package as the tests.
IMPORT_ROOT = str(Path(qembezzle.__file__).resolve().parents[1])


class TestCli:
    def _run(self, *args, cwd):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [IMPORT_ROOT, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-m", "qembezzle.cli", *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env=env,
        )
        if "ModuleNotFoundError" in out.stderr:
            pytest.fail(
                f"the CLI subprocess did not start with {IMPORT_ROOT} first on "
                f"PYTHONPATH:\n{out.stderr}"
            )
        return out

    def test_happy_path_and_replay(self, tmp_path):
        out = self._run(
            "fidelity", "--out", "fid.csv", "--state-source", "fixture:I", cwd=tmp_path
        )
        assert out.returncode == 0, out.stderr
        assert (tmp_path / "fid.csv").exists()
        rep = self._run("replay", "--manifest", "fid.csv.manifest.json", "--out", "fid2.csv", cwd=tmp_path)
        assert rep.returncode == 0, rep.stderr
        assert (tmp_path / "fid.csv").read_bytes() == (tmp_path / "fid2.csv").read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epsilon_grid": [0.2], "candidates": 2, "seed": 9}))
        out = self._run(
            "nmin", "--config", str(cfg_path), "--out", "n.csv", "--seed", "10", cwd=tmp_path
        )
        assert out.returncode == 0, out.stderr
        manifest = json.loads((tmp_path / "n.csv.manifest.json").read_text())
        assert manifest["config"]["seed"] == 10  # flag wins over file

    def test_config_error_exit_code(self, tmp_path):
        out = self._run("nmin", "--epsilon", "2.0", cwd=tmp_path)
        assert out.returncode == 2
        assert "config error" in out.stderr
        assert "Traceback" not in out.stderr

    def test_unreadable_config_exit_code(self, tmp_path):
        out = self._run("nmin", "--config", "missing.json", cwd=tmp_path)
        assert out.returncode == 2
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize(
        "source", ["fixture:I:x", "file:/missing.json", "fixture:nope:0", "fixture:I:99"]
    )
    def test_bad_state_source_exit_code(self, tmp_path, source):
        out = self._run("fidelity", "--state-source", source, "--out", "f.csv", cwd=tmp_path)
        assert out.returncode == 2, out.stderr
        assert "config error: state_source" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("experiment", ["nmin", "distill"])
    def test_state_split_must_match_d(self, tmp_path, experiment):
        out = self._run(experiment, "--d", "3", "--candidates", "2", "--out", "x.csv", cwd=tmp_path)
        assert out.returncode == 2, out.stderr
        assert "config error: state_source" in out.stderr
        assert "d=3" in out.stderr
        assert "Traceback" not in out.stderr
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "args, config, field",
        [
            (["qutrit-map", "--threshold", "2.0"], None, "threshold"),
            (["qutrit-map"], {"margin": 0.5}, "margin"),
            (["qutrit-map", "--threshold", "0.1"], None, "threshold"),  # eps (d+1)/d >= 1
            (["embezzle", "--epsilon", "0.7"], None, "epsilon"),
        ],
    )
    def test_out_of_range_budget_exit_code(self, tmp_path, args, config, field):
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            args = [*args, "--config", "cfg.json"]
        out = self._run(*args, "--out", "x.csv", cwd=tmp_path)
        assert out.returncode == 2, out.stderr
        assert f"config error: {field}" in out.stderr
        assert "Traceback" not in out.stderr
        assert not (tmp_path / "x.csv").exists()

    def test_mistyped_config_value_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": "5"}))
        out = self._run("fidelity", "--config", str(cfg_path), "--out", "f.csv", cwd=tmp_path)
        assert out.returncode == 2, out.stderr
        assert "config error: seed" in out.stderr
        assert "Traceback" not in out.stderr

    def test_missing_manifest_exit_code(self, tmp_path):
        out = self._run("replay", "--manifest", "missing.json", cwd=tmp_path)
        assert out.returncode == 2, out.stderr
        assert "Traceback" not in out.stderr

    def test_numerical_failure_exit_code(self, tmp_path):
        # A state document that is not PSD must fail numerically, not as config.
        bad = {
            "dim": 2,
            "splitA": 1,
            "splitB": 2,
            "entries": [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
        }
        path = tmp_path / "bad_state.json"
        path.write_text(json.dumps(bad))
        out = self._run(
            "nmin", "--state-source", f"file:{path}", "--epsilon", "0.1", cwd=tmp_path
        )
        assert out.returncode == 3
        assert "numerical failure" in out.stderr
        assert "Traceback" not in out.stderr

"""End-to-end command-line pipeline."""

import copy
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpt import io as qio
from qpt import projection
from qpt.channels import standard_channel
from qpt.cli import main


# A JSON integer of 401 digits: valid JSON, but beyond the float range.
HUGE_INTEGER = 10**400


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def records_path(tmp_path):
    path = tmp_path / "records.json"
    assert run("simulate", "--preset", "paper-20ns", "--out", path) == 0
    return path


@pytest.fixture
def result_path(tmp_path, records_path):
    path = tmp_path / "result.json"
    assert run("reconstruct", "--records", records_path, "--out", path) == 0
    return path


class TestSimulate:
    def test_writes_records_document(self, records_path):
        doc = qio.read_json(str(records_path))
        assert doc["kind"] == "qpt-records"
        parsed = qio.parse_records_document(doc)
        assert len(parsed) == 4
        assert parsed[0].config.shots is None

    def test_shot_and_seed_overrides(self, tmp_path):
        path = tmp_path / "noisy.json"
        assert run(
            "simulate", "--preset", "paper-40ns", "--shots", "250",
            "--seed", "7", "--out", path,
        ) == 0
        config = qio.config_from_dict(qio.read_json(str(path))["config"])
        assert config.shots == 250
        assert config.seed == 7
        assert config.decoherence_time == 40.0

    def test_exact_keyword(self, tmp_path):
        path = tmp_path / "exact.json"
        assert run(
            "simulate", "--preset", "paper-20ns", "--shots", "exact", "--out", path
        ) == 0
        assert qio.read_json(str(path))["config"]["shots"] is None

    def test_config_file(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps({"t2": 120.0, "t1": 300.0, "decoherence_time": 15.0, "shots": 64})
        )
        out = tmp_path / "records.json"
        assert run("simulate", "--config", config_path, "--out", out) == 0
        stored = qio.config_from_dict(qio.read_json(str(out))["config"])
        assert stored.t2 == 120.0
        assert stored.t1 == 300.0
        assert stored.shots == 64

    def test_preset_and_config_together_rejected(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"t2": 100.0}))
        code = run(
            "simulate", "--preset", "paper-20ns", "--config", config_path,
            "--out", tmp_path / "x.json",
        )
        assert code == 2
        assert "exactly one" in capsys.readouterr().err

    def test_neither_source_rejected(self, tmp_path):
        assert run("simulate", "--out", tmp_path / "x.json") == 2

    def test_unknown_preset_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run("simulate", "--preset", "paper-30ns", "--out", tmp_path / "x.json")
        assert info.value.code == 2

    def test_bad_shots_value(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run(
                "simulate", "--preset", "paper-20ns", "--shots", "0",
                "--out", tmp_path / "x.json",
            )
        assert info.value.code == 2

    def test_missing_required_out(self):
        with pytest.raises(SystemExit) as info:
            run("simulate", "--preset", "paper-20ns")
        assert info.value.code == 2

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    def test_shots_beyond_int64_exit_2(self, tmp_path, capsys, command, source):
        # The binomial sampler takes a 64-bit count; 2**63 and up is rejected
        # with the config, before anything is simulated or written.  The
        # message gives a huge count by its size, not its 401 digits.
        for shots in (10**20, 10**400):
            if source == "flag":
                argv = ["--preset", "paper-20ns", "--shots", shots]
            else:
                config = tmp_path / "config.json"
                config.write_text(json.dumps({"t2": 100.0, "shots": shots}))
                argv = ["--config", config]
            out = tmp_path / "out"
            assert run(command, *argv, "--out", out) == 2
            err = capsys.readouterr().err
            assert "shots must lie in" in err
            assert len(err) < 200
            assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag",
        [("simulate", "--shots"), ("simulate", "--seed"), ("render", "--subdivisions")],
    )
    def test_integer_flag_past_digit_limit_exit_2(self, tmp_path, capsys, command, flag):
        # 5001 digits is past Python's 4300-digit parsing limit.  The error
        # line names the text by its length instead of echoing it; argparse
        # prints its usage block (about 150 bytes for simulate) before it.
        digits = "1" * 5001
        source = ["--preset", "paper-20ns"] if command == "simulate" else [
            "--result", tmp_path / "result.json"
        ]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            run(command, *source, flag, digits, "--out", out)
        assert info.value.code == 2
        err = capsys.readouterr().err
        line = err.splitlines()[-1]
        assert line.startswith(f"qpt {command}: error: argument {flag}:")
        assert "text of 5001 characters" in line
        assert len(line.encode()) < 200
        assert len(err.encode()) < 400
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("value", [1e308, -1e308], ids=["1e308", "-1e308"])
    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    def test_pulse_angle_overflow_exit_2(self, tmp_path, capsys, command, value):
        # pi * (1 + pulse_error) overflows, so no pulse could be built.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"t2": 100.0, "pulse_error": value}))
        out = tmp_path / "out"
        assert run(command, "--config", config, "--out", out) == 2
        assert "pulse_error" in capsys.readouterr().err
        assert not out.exists()

    def test_large_finite_pulse_angle_simulates(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"t2": 100.0, "pulse_error": 5e307}))
        out = tmp_path / "records.json"
        assert run("simulate", "--config", config, "--out", out) == 0
        assert qio.read_json(str(out))["config"]["pulse_error"] == 5e307

    def test_broken_config_json_reports_position(self, tmp_path, capsys):
        config_path = tmp_path / "broken.json"
        config_path.write_text('{"t2": 100.0,}')
        code = run("simulate", "--config", config_path, "--out", tmp_path / "x.json")
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_config_file_is_io_error(self, tmp_path):
        code = run(
            "simulate", "--config", tmp_path / "absent.json", "--out", tmp_path / "x.json"
        )
        assert code == 3


# Over-long user text, named by its length in error messages.
LONG_TEXT = "x" * 5000


def assert_bounded_input_error(
    tmp_path, capsys, *argv, shown="text of 5000 characters"
):
    """``qpt argv`` exits 2, writes nothing and names the long value as
    ``shown`` in under 1 KB of stderr."""
    before = sorted(tmp_path.iterdir())
    try:
        code = run(*argv)
    except SystemExit as exc:  # argparse's own errors
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert shown in err
    assert len(err.encode()) < 1024
    assert sorted(tmp_path.iterdir()) == before


class TestLongTextBounded:
    def test_preset(self, tmp_path, capsys):
        assert_bounded_input_error(
            tmp_path, capsys, "simulate", "--preset", LONG_TEXT,
            "--out", tmp_path / "o.json",
        )

    def test_stray_positional(self, tmp_path, capsys):
        assert_bounded_input_error(
            tmp_path, capsys, "simulate", "--preset", "paper-20ns",
            "--out", tmp_path / "o.json", LONG_TEXT,
        )

    def test_many_stray_positionals(self, tmp_path, capsys):
        assert_bounded_input_error(
            tmp_path, capsys, "simulate", "--preset", "paper-20ns",
            "--out", tmp_path / "o.json", *(["ab"] * 3000),
            shown="'ab' 'ab' 'ab' and 2997 more",
        )

    def test_unknown_subcommand(self, tmp_path, capsys):
        assert_bounded_input_error(
            tmp_path, capsys, LONG_TEXT, "--out", tmp_path / "o.json"
        )

    @pytest.mark.parametrize(
        "value, shown",
        [
            (LONG_TEXT, "text of 5000 characters"),
            ([0] * 2000, "a list written in 6000 characters"),
        ],
        ids=["text", "list"],
    )
    def test_config_number_not_a_number(self, tmp_path, capsys, value, shown):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"t2": value}))
        assert_bounded_input_error(
            tmp_path, capsys, "simulate", "--config", config,
            "--out", tmp_path / "o.json", shown=shown,
        )

    def test_records_kind(self, tmp_path, capsys, records_path):
        doc = json.loads(records_path.read_text())
        doc["kind"] = LONG_TEXT
        records_path.write_text(json.dumps(doc))
        assert_bounded_input_error(
            tmp_path, capsys, "reconstruct", "--records", records_path,
            "--out", tmp_path / "o.json",
        )

    def test_compare_operand(self, tmp_path, capsys):
        assert_bounded_input_error(
            tmp_path, capsys, "compare", LONG_TEXT, "identity",
            "--out", tmp_path / "o.json",
        )

    def test_compare_channel_argument(self, tmp_path, capsys):
        assert_bounded_input_error(
            tmp_path, capsys, "compare", f"dephasing:{LONG_TEXT}", "identity",
            "--out", tmp_path / "o.json",
        )

    def test_output_name_too_long_is_io_error(self, tmp_path, capsys):
        # The file system refuses the name; the error names it by length.
        code = run("simulate", "--preset", "paper-20ns", "--out", tmp_path / LONG_TEXT)
        assert code == 3
        err = capsys.readouterr().err
        assert "text of" in err and "characters" in err
        assert len(err.encode()) < 1024
        assert list(tmp_path.iterdir()) == []


class TestReconstruct:
    def test_result_document(self, result_path):
        doc = qio.read_json(str(result_path))
        assert doc["kind"] == "qpt-result"
        chi = qio.document_chi(doc)
        f = math.exp(-0.2)
        np.testing.assert_allclose(
            chi, np.diag([(1 + f) / 2, 0.0, 0.0, (1 - f) / 2]), atol=1e-10
        )
        assert doc["raw"]["cp"]["flag"] is True
        assert doc["projected"] is None

    def test_missing_records_file(self, tmp_path):
        assert run(
            "reconstruct", "--records", tmp_path / "none.json", "--out", tmp_path / "r.json"
        ) == 3

    def test_wrong_kind_rejected(self, tmp_path, result_path):
        code = run(
            "reconstruct", "--records", result_path, "--out", tmp_path / "r2.json"
        )
        assert code == 2

    def test_entropy_weight_flag_removed(self, tmp_path, records_path):
        with pytest.raises(SystemExit) as info:
            run(
                "reconstruct", "--records", records_path, "--out", tmp_path / "r.json",
                "--entropy-weight", "0.1",
            )
        assert info.value.code == 2

    def test_entries_reconstructed_by_input_index(self, tmp_path):
        ordered = tmp_path / "ordered.json"
        assert run(
            "simulate", "--preset", "paper-20ns", "--shots", "500", "--seed", "5",
            "--out", ordered,
        ) == 0
        doc = json.loads(ordered.read_text())
        entries = {entry["input_index"]: entry for entry in doc["records"]}
        doc["records"] = [entries[i] for i in (2, 1, 4, 3)]
        shuffled = tmp_path / "shuffled.json"
        shuffled.write_text(json.dumps(doc))
        for source in (ordered, shuffled):
            assert run(
                "reconstruct", "--records", source, "--out", f"{source}.result"
            ) == 0
        np.testing.assert_array_equal(
            qio.document_chi(qio.read_json(f"{shuffled}.result")),
            qio.document_chi(qio.read_json(f"{ordered}.result")),
        )

    def test_huge_expectations_reconstruct(self, tmp_path, records_path):
        doc = json.loads(records_path.read_text())
        for expectation in doc["records"][0]["expectations"][:2]:
            expectation["value"] = 1e308
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert run("reconstruct", "--records", huge, "--out", out) == 0
        residuals = qio.read_json(str(out))["raw"]["residuals"]
        assert residuals[0] == pytest.approx(math.sqrt(2.0) * 1e308)
        assert all(math.isfinite(r) for r in residuals)

    @pytest.mark.parametrize(
        "indices, message",
        [
            ((1, 1, 1, 1), "duplicate input_index 1"),
            ((1, 2, 3, 1.5), "input_index must be an integer"),
            ((1, 2, 3, True), "input_index must be an integer"),
            ((1, 2, 4), r"missing input_index \[3\]"),
            (
                (1, 2, 3, 10**400),
                "input_index must be 1..4, got an integer of 1329 bits",
            ),
        ],
        ids=["duplicate", "fractional", "boolean", "missing", "huge"],
    )
    def test_bad_input_indices_rejected(
        self, tmp_path, records_path, capsys, indices, message
    ):
        doc = json.loads(records_path.read_text())
        doc["records"] = [
            dict(entry, input_index=index) for entry, index in zip(doc["records"], indices)
        ]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert run("reconstruct", "--records", broken, "--out", out) == 2
        err = capsys.readouterr().err
        assert re.search(message, err)
        assert len(err) < 200
        assert not out.exists()

    def _simulate(self, tmp_path, **preparation):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"t2": 100.0, "decoherence_time": 40.0, **preparation})
        )
        records = tmp_path / "records.json"
        assert run("simulate", "--config", config, "--out", records) == 0
        return records

    def test_declared_preparation_honoured(self, tmp_path):
        records = self._simulate(tmp_path, polarization=0.9, pulse_error=0.05)
        out = tmp_path / "r.json"
        assert run("reconstruct", "--records", records, "--out", out) == 0
        doc = qio.read_json(str(out))
        np.testing.assert_allclose(
            qio.document_chi(doc), standard_channel("dephasing", factor=math.exp(-0.4)),
            atol=1e-13,
        )
        assert doc["raw"]["cp"]["flag"] and doc["raw"]["tp"]["flag"]

    def test_non_spanning_preparation_exits_2(self, tmp_path, capsys):
        records = self._simulate(tmp_path, polarization=0.5)
        out = tmp_path / "r.json"
        assert run("reconstruct", "--records", records, "--out", out) == 2
        assert "does not span" in capsys.readouterr().err
        assert not out.exists()


class TestProject:
    def test_attaches_projection(self, tmp_path, result_path):
        out = tmp_path / "projected.json"
        assert run("project", "--result", result_path, "--out", out) == 0
        doc = qio.read_json(str(out))
        assert doc["projected"]["converged"] is True
        assert doc["projected"]["distance"] < 1e-6
        assert doc["discrepancy"]["frobenius_norm"] < 1e-6
        assert "fidelity" in doc["state_metrics"]

    def test_budget_exhaustion_still_writes(self, tmp_path, capsys, monkeypatch):
        noisy_records = tmp_path / "noisy.json"
        assert run(
            "simulate", "--preset", "paper-20ns", "--shots", "500",
            "--seed", "5", "--out", noisy_records,
        ) == 0
        raw = tmp_path / "raw.json"
        assert run("reconstruct", "--records", noisy_records, "--out", raw) == 0
        out = tmp_path / "projected.json"
        monkeypatch.setattr(projection, "MAX_ITERATIONS", 1)
        code = run("project", "--result", raw, "--out", out)
        assert code == 4
        doc = qio.read_json(str(out))
        assert doc["projected"] is not None
        assert doc["projected"]["converged"] is False
        assert np.isfinite(doc["projected"]["distance"])

    @pytest.mark.parametrize("command", ["project", "pipeline"])
    def test_max_iterations_flag_removed(self, tmp_path, result_path, command):
        # The budget is fixed at projection.MAX_ITERATIONS; the flag that set
        # it is now a usage error.
        source = (
            ["--result", result_path] if command == "project" else ["--preset", "paper-20ns"]
        )
        with pytest.raises(SystemExit) as info:
            run(command, *source, "--out", tmp_path / "o", "--max-iterations", "100")
        assert info.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_non_finite_chi_is_input_error(self, tmp_path, result_path, capsys):
        doc = json.loads(result_path.read_text())
        doc["raw"]["chi"][0][0] = [math.nan, 0.0]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))  # the default encoder writes NaN
        assert run("project", "--result", broken, "--out", tmp_path / "o.json") == 2
        assert "non-finite number NaN" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()


class TestCompare:
    def test_result_against_named_channel(self, tmp_path, result_path, capsys):
        out = tmp_path / "cmp.json"
        assert run("compare", result_path, "identity", "--out", out) == 0
        doc = qio.read_json(str(out))
        assert doc["kind"] == "qpt-comparison"
        assert doc["context"][0].endswith(":raw")
        assert doc["context"][1] == "identity"
        line = capsys.readouterr().out.strip()
        assert "frobenius=" in line and "d_pro=" in line
        # Raw exact 20 ns reconstruction against identity: known gap.
        f = math.exp(-0.2)
        expected = math.sqrt(2.0) * (1.0 - f) / 2.0
        assert doc["norms"]["frobenius_norm"] == pytest.approx(expected, abs=1e-9)

    def test_two_named_channels(self, tmp_path):
        out = tmp_path / "cmp.json"
        assert run("compare", "dephasing:0.5", "identity", "--out", out) == 0
        doc = qio.read_json(str(out))
        chi_a = standard_channel("dephasing", factor=0.5)
        chi_b = standard_channel("identity")
        expected = float(np.linalg.norm(chi_a - chi_b))
        assert doc["norms"]["frobenius_norm"] == pytest.approx(expected, abs=1e-12)
        assert "fidelity" in doc["state_metrics"]

    def test_projected_label_preferred(self, tmp_path, result_path):
        projected = tmp_path / "projected.json"
        assert run("project", "--result", result_path, "--out", projected) == 0
        out = tmp_path / "cmp.json"
        assert run("compare", projected, "identity", "--out", out) == 0
        assert qio.read_json(str(out))["context"][0].endswith(":projected")

    def test_unknown_channel_name(self, tmp_path, capsys):
        code = run("compare", "identity", "squeezing:0.5", "--out", tmp_path / "c.json")
        assert code == 2
        assert "squeezing" in capsys.readouterr().err

    def test_malformed_factor(self, tmp_path):
        assert run("compare", "dephasing:x", "identity", "--out", tmp_path / "c.json") == 2

    def test_non_hermitian_chi_exits_2(self, tmp_path, result_path, capsys):
        # Hermitian part CPTP (fully depolarizing), anti-Hermitian 0.1j at [0, 1]
        # and [1, 0]: the state metrics refuse it as an input error.
        doc = json.loads(result_path.read_text())
        chi = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        chi[0][1] = chi[1][0] = [0.0, 0.1]
        doc["raw"]["chi"] = chi
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        out = tmp_path / "c.json"
        assert run("compare", broken, "identity", "--out", out) == 2
        assert "not Hermitian" in capsys.readouterr().err
        assert not out.exists()


class TestRender:
    def test_raw_only(self, tmp_path, result_path):
        prefix = tmp_path / "mesh"
        assert run(
            "render", "--result", result_path, "--out", prefix, "--subdivisions", "1"
        ) == 0
        assert (tmp_path / "mesh_raw.obj").exists()
        assert (tmp_path / "mesh_raw.json").exists()
        assert not (tmp_path / "mesh_projected.obj").exists()
        meta = qio.read_json(str(tmp_path / "mesh_raw.json"))
        assert meta["vertex_count"] == 42
        f = math.exp(-0.2)
        np.testing.assert_allclose(sorted(meta["axis_lengths"]), [f, f, 1.0], atol=1e-9)

    def test_projected_included_after_projection(self, tmp_path, result_path):
        projected = tmp_path / "projected.json"
        assert run("project", "--result", result_path, "--out", projected) == 0
        prefix = tmp_path / "mesh"
        assert run(
            "render", "--result", projected, "--out", prefix, "--subdivisions", "1"
        ) == 0
        assert (tmp_path / "mesh_projected.obj").exists()
        assert (tmp_path / "mesh_projected.json").exists()

    def test_rejects_non_result(self, tmp_path, records_path):
        assert run("render", "--result", records_path, "--out", tmp_path / "m") == 2

    @pytest.mark.parametrize("command", ["render", "pipeline"])
    @pytest.mark.parametrize("value", ["0", "-3", "8"])
    def test_subdivisions_out_of_range(self, tmp_path, result_path, command, value):
        source = (
            ["--result", result_path] if command == "render" else ["--preset", "paper-20ns"]
        )
        with pytest.raises(SystemExit) as info:
            run(command, *source, "--out", tmp_path / "m", "--subdivisions", value)
        assert info.value.code == 2
        assert not list(tmp_path.glob("m*"))


class TestPipeline:
    def test_single_preset(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(
            "pipeline", "--preset", "paper-20ns", "--out", out, "--subdivisions", "1"
        )
        assert code == 0
        for name in (
            "records.json", "result.json", "compare_identity.json",
            "mesh_raw.obj", "mesh_raw.json", "mesh_projected.obj", "mesh_projected.json",
        ):
            assert (out / name).exists(), name
        doc = qio.read_json(str(out / "result.json"))
        assert doc["projected"]["converged"] is True
        summary = capsys.readouterr().out
        assert "projection distance" in summary
        assert "identity frobenius" in summary

    def test_repro_sweeps_all_presets(self, tmp_path):
        out = tmp_path / "repro"
        code = run(
            "pipeline", "--preset", "paper-repro", "--out", out, "--subdivisions", "1"
        )
        assert code == 0
        gaps = []
        for name in ("paper-20ns", "paper-40ns", "paper-80ns"):
            compare = qio.read_json(str(out / name / "compare_identity.json"))
            gaps.append(compare["norms"]["frobenius_norm"])
            assert qio.read_json(str(out / name / "result.json"))["projected"] is not None
        # Longer decoherence intervals sit further from the identity.
        assert gaps[0] < gaps[1] < gaps[2]

    @pytest.mark.parametrize(
        "preparation", [{"polarization": 0.5}, {"pulse_error": -1.0}],
        ids=["polarization", "pulse-error"],
    )
    def test_non_spanning_preparation_exits_2(self, tmp_path, capsys, preparation):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"t2": 100.0, "decoherence_time": 40.0, **preparation}))
        out = tmp_path / "run"
        assert run("pipeline", "--config", config, "--out", out) == 2
        assert "does not span" in capsys.readouterr().err
        assert not out.exists()

    def test_repro_not_accepted_elsewhere(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run("simulate", "--preset", "paper-repro", "--out", tmp_path / "x.json")
        assert info.value.code == 2


class TestLogging:
    def test_log_level_from_environment(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setenv("QPT_LOG", "INFO")
        with caplog.at_level("INFO", logger="qpt"):
            assert run(
                "simulate", "--preset", "paper-20ns", "--out", tmp_path / "r.json"
            ) == 0
        assert any("record sets" in message for message in caplog.messages)

    def test_bad_level_falls_back(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QPT_LOG", "NOISY")
        assert run(
            "simulate", "--preset", "paper-20ns", "--out", tmp_path / "r.json"
        ) == 0


def command_argv(command, path, out_dir):
    """argv of one document-reading command; every output starts with ``out``."""
    return {
        "simulate": ["simulate", "--config", path, "--out", out_dir / "out.json"],
        "reconstruct": ["reconstruct", "--records", path, "--out", out_dir / "out.json"],
        "project": ["project", "--result", path, "--out", out_dir / "out.json"],
        "compare": ["compare", path, "identity", "--out", out_dir / "out.json"],
        "render": [
            "render", "--result", path, "--out", out_dir / "out", "--subdivisions", "1",
        ],
    }[command]


class TestUnparseableFile:
    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe\x00{", b"[" * 100000, b'{"t2": 1' + b"0" * 5000 + b"}"],
        ids=["not-utf8", "deep-nesting", "overlong-integer"],
    )
    @pytest.mark.parametrize(
        "command", ["simulate", "reconstruct", "project", "compare", "render"]
    )
    def test_exit_2_without_output(self, tmp_path, capsys, command, content):
        source = tmp_path / "source.json"
        source.write_bytes(content)
        assert run(*command_argv(command, source, tmp_path)) == 2
        assert capsys.readouterr().err.startswith(f"error: {source}: ")
        assert not list(tmp_path.glob("out*"))


class TestMalformedResult:
    @pytest.mark.parametrize(
        "command, section, value",
        [
            ("project", "raw", 5),
            ("compare", "raw", 5),
            ("render", "raw", 5),
            ("render", "projected", 5),
            ("compare", "projected", 5),
            ("render", "raw", []),
            ("render", "projected", {}),
            ("render", None, None),
        ],
        ids=[
            "project-raw-number",
            "compare-raw-number",
            "render-raw-number",
            "render-projected-number",
            "compare-projected-number",
            "render-raw-list",
            "render-projected-empty",
            "render-top-level-list",
        ],
    )
    def test_exit_2_without_output(
        self, tmp_path, result_path, capsys, command, section, value
    ):
        doc = json.loads(result_path.read_text())
        if section is None:
            doc = [doc]  # a top-level list
        else:
            doc[section] = value
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        assert run(*command_argv(command, broken, tmp_path)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("block", ["raw", "projected"])
    def test_render_overflow_leaves_no_output(self, tmp_path, result_path, capsys, block):
        projected = tmp_path / "projected.json"
        assert run("project", "--result", result_path, "--out", projected) == 0
        doc = json.loads(projected.read_text())
        doc[block]["affine"]["matrix"][0][0] = 1e308
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        assert run(*command_argv("render", broken, tmp_path)) == 2
        assert capsys.readouterr().err.startswith(f"error: {block}.affine")
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("value", [1e200, 1e308], ids=["1e200", "1e308"])
    @pytest.mark.parametrize("command", ["project", "compare"])
    def test_chi_overflow_leaves_no_output(
        self, tmp_path, result_path, capsys, command, value
    ):
        # Finite entries this large overflow the norms to inf (or stop the
        # eigensolver); either is an input error, caught before any write.
        doc = json.loads(result_path.read_text())
        doc["raw"]["chi"][0][0][0] = value
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        assert run(*command_argv(command, broken, tmp_path)) == 2
        assert capsys.readouterr().err.startswith(f"error: {broken}")
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("value", [1e50, 1e100], ids=["1e50", "1e100"])
    def test_large_chi_projects(self, tmp_path, result_path, value):
        # Large but far from overflow: the projection is still certified.
        doc = json.loads(result_path.read_text())
        doc["raw"]["chi"][0][0][0] = value
        large = tmp_path / "large.json"
        large.write_text(json.dumps(doc))
        assert run(*command_argv("project", large, tmp_path)) == 0
        projected = qio.read_json(str(tmp_path / "out.json"))["projected"]
        assert projected["converged"] is True
        assert projected["tp_residual"] <= 1e-12
        assert projected["min_eigenvalue"] >= -1e-12

    @pytest.mark.parametrize(
        "command, path, value",
        [
            ("reconstruct", ("schema_version",), True),
            ("reconstruct", ("records", 1, "expectations", 0, "value"), "0.5"),
            ("reconstruct", ("records", 2, "expectations", 1, "shots"), True),
            ("reconstruct", ("config", "t2"), "100"),
            ("compare", ("schema_version",), True),
            ("project", ("raw", "chi", 0, 0, 0), True),
            ("render", ("raw", "affine", "translation", 2), "0.5"),
            # An integer no float can hold, in a field read as a float.
            ("simulate", ("t1",), HUGE_INTEGER),
            ("simulate", ("t2",), HUGE_INTEGER),
            ("simulate", ("decoherence_time",), HUGE_INTEGER),
            ("simulate", ("polarization",), HUGE_INTEGER),
            ("simulate", ("pulse_error",), HUGE_INTEGER),
            ("reconstruct", ("records", 1, "expectations", 0, "value"), HUGE_INTEGER),
            ("project", ("raw", "chi", 1, 2, 0), HUGE_INTEGER),
            ("compare", ("raw", "chi", 0, 0, 1), HUGE_INTEGER),
            ("render", ("raw", "affine", "matrix", 0, 0), HUGE_INTEGER),
        ],
        ids=[
            "records-version-true",
            "value-text",
            "shots-true",
            "config-text",
            "result-version-true",
            "chi-true",
            "affine-text",
            "t1-huge-integer",
            "t2-huge-integer",
            "decoherence-time-huge-integer",
            "polarization-huge-integer",
            "pulse-error-huge-integer",
            "value-huge-integer",
            "project-chi-huge-integer",
            "compare-chi-huge-integer",
            "affine-huge-integer",
        ],
    )
    def test_wrong_typed_number_rejected(self, tmp_path, capsys, command, path, value):
        source = tmp_path / "source.json"
        assert run(
            "simulate", "--preset", "paper-20ns", "--shots", "200", "--out", source
        ) == 0
        if command not in ("simulate", "reconstruct"):
            assert run("reconstruct", "--records", source, "--out", source) == 0
        doc = json.loads(source.read_text())
        if command == "simulate":
            doc = doc["config"]
        source.write_text(json.dumps(replaced(doc, path, value)))
        assert run(*command_argv(command, source, tmp_path)) == 2
        err = capsys.readouterr().err
        assert "must be a" in err
        field = [key for key in path if isinstance(key, str)][-1]
        assert field in err
        assert str(HUGE_INTEGER) not in err
        assert not list(tmp_path.glob("out*"))


# Replacement values no field of either document accepts: non-numeric
# text, numbers written as text, booleans, lists of text and objects without
# any known key.
_POISON_TEXT = st.text(alphabet="qwz!#", min_size=1, max_size=3)
POISON = st.one_of(
    _POISON_TEXT,
    st.one_of(st.integers(-5, 5), st.floats(-2.0, 2.0)).map(str),
    st.booleans(),
    st.lists(_POISON_TEXT, max_size=3),
    st.dictionaries(_POISON_TEXT, _POISON_TEXT, max_size=2),
)
# What each command reads: (document, exact paths, subtrees).  Fields a
# command never reads may hold anything.
_SECTIONS = [(), ("raw",), ("projected",)]
_HEADER = [("schema_version",), ("kind",)]
READS = {
    "reconstruct": ("records", [], [()]),
    "project": ("raw", _SECTIONS, _HEADER + [("raw", "chi")]),
    "compare": ("raw", _SECTIONS, _HEADER + [("raw", "chi")]),
    "render": ("projected", _SECTIONS, _HEADER + [("raw", "affine"), ("projected", "affine")]),
}


def document_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from document_paths(child, prefix + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def valid_documents(tmp_path_factory):
    paths = {
        name: tmp_path_factory.mktemp("documents") / f"{name}.json"
        for name in ("records", "raw", "projected")
    }
    assert run(
        "simulate", "--preset", "paper-40ns", "--shots", "300", "--seed", "2",
        "--out", paths["records"],
    ) == 0
    assert run("reconstruct", "--records", paths["records"], "--out", paths["raw"]) == 0
    assert run("project", "--result", paths["raw"], "--out", paths["projected"]) == 0
    return {name: json.loads(path.read_text()) for name, path in paths.items()}


class TestExitCodeContract:
    @settings(max_examples=300)
    @given(data=st.data())
    def test_corrupted_field_is_an_input_error(self, valid_documents, data):
        command = data.draw(st.sampled_from(sorted(READS)), label="command")
        kind, exact, subtrees = READS[command]
        doc = valid_documents[kind]
        readable = [
            path
            for path in document_paths(doc)
            if path in exact or any(path[: len(t)] == t for t in subtrees)
        ]
        path = data.draw(st.sampled_from(readable), label="path")
        value = data.draw(POISON, label="value")
        with tempfile.TemporaryDirectory() as scratch:
            scratch = Path(scratch)
            source = scratch / "doc.json"
            source.write_text(json.dumps(replaced(doc, path, value)))
            code = main([str(a) for a in command_argv(command, source, scratch)])
        assert code in (2, 3)

"""JSON document formats and atomic writes."""

import json
import math
import os

import numpy as np
import pytest

from qpt import channels as ch
from qpt import io
from qpt.errors import ConfigError, NonConvergenceError, _input_error
from qpt.metrics import process_distance_report
from qpt.process_tomography import run_process_tomography
from qpt.projection import project_to_physical, projection_report
from qpt.simulator import ExperimentConfig, MeasurementRecord, run_experiment


def noisy_config(**overrides):
    base = dict(t2=100.0, decoherence_time=20.0, shots=400, seed=3)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestComplexMatrixCodec:
    def test_round_trip(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        encoded = io.encode_complex_matrix(m)
        assert json.loads(json.dumps(encoded)) == encoded
        decoded = io.decode_complex_matrix(encoded, (4, 4), "chi")
        np.testing.assert_array_equal(decoded, m)

    def test_malformed_entries(self):
        with pytest.raises(ConfigError, match="chi"):
            io.decode_complex_matrix([[1.0, 2.0]], (1, 2), "chi")

    def test_wrong_shape(self):
        encoded = io.encode_complex_matrix(np.eye(2))
        with pytest.raises(ConfigError, match="expected shape"):
            io.decode_complex_matrix(encoded, (4, 4), "chi")

    @pytest.mark.parametrize(
        "entry",
        [{}, {"re": 1.0}, ["nan", 0.0], [0.0, "-inf"], [0.5, 0.0, 1.0], [True, 0.0]],
        ids=[
            "empty-object", "object", "nan-text", "infinite-text", "three-numbers",
            "boolean",
        ],
    )
    def test_bad_entry_is_config_error(self, entry):
        encoded = io.encode_complex_matrix(np.eye(2))
        encoded[0][1] = entry
        with pytest.raises(ConfigError, match="chi"):
            io.decode_complex_matrix(encoded, (2, 2), "chi")


class TestAffineCodec:
    def test_round_trip(self):
        affine = ch.AffineMap(np.diag([0.8, 0.8, 1.0]), np.array([0.0, 0.0, 0.1]))
        decoded = io.decode_affine(io.encode_affine(affine), "affine")
        np.testing.assert_array_equal(decoded.matrix, affine.matrix)
        np.testing.assert_array_equal(decoded.translation, affine.translation)

    def test_malformed(self):
        with pytest.raises(ConfigError, match="affine"):
            io.decode_affine({"matrix": [[1.0]]}, "affine")


class TestConfigCodec:
    def test_round_trip_with_damping(self):
        config = ExperimentConfig(
            t2=100.0, t1=250.0, decoherence_time=40.0, polarization=0.9,
            shots=1000, seed=7, pulse_error=0.02,
        )
        assert io.config_from_dict(io.config_to_dict(config)) == config

    def test_infinite_t1_stored_as_null(self):
        config = ExperimentConfig(t2=100.0)
        data = io.config_to_dict(config)
        assert data["t1"] is None
        assert data["shots"] is None
        restored = io.config_from_dict(data)
        assert math.isinf(restored.t1)
        assert restored == config

    def test_json_safe(self):
        # Infinity never reaches the encoder.
        text = json.dumps(io.config_to_dict(ExperimentConfig(t2=100.0)), allow_nan=False)
        assert "Infinity" not in text

    def test_missing_t2(self):
        # The reader's own message, not the constructor's TypeError.
        for data in ({}, {"decoherence_time": 20.0}):
            with pytest.raises(ConfigError, match="^config is missing the required key t2$"):
                io.config_from_dict(data)

    def test_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys: 'tt2'"):
            io.config_from_dict({"t2": 100.0, "tt2": 1.0})

    def test_invalid_values_wrapped(self):
        with pytest.raises(ConfigError, match="invalid config"):
            io.config_from_dict({"t2": -5.0})

    def test_non_object(self):
        with pytest.raises(ConfigError, match="must be an object"):
            io.config_from_dict([1, 2, 3])


class TestRecordsDocument:
    def test_round_trip(self):
        records = run_experiment(noisy_config())
        doc = io.records_document(records)
        assert doc["kind"] == io.RECORDS_KIND
        assert doc["schema_version"] == io.SCHEMA_VERSION
        rebuilt = json.loads(json.dumps(doc))
        parsed = io.parse_records_document(rebuilt)
        assert len(parsed) == 4
        for original, restored in zip(records, parsed):
            assert restored.input_index == original.input_index
            assert restored.config == original.config
            assert [r.value for r in restored.records] == [
                r.value for r in original.records
            ]
            assert [r.shots for r in restored.records] == [
                r.shots for r in original.records
            ]

    def test_exact_records_round_trip(self):
        records = run_experiment(ExperimentConfig(t2=100.0, decoherence_time=20.0))
        parsed = io.parse_records_document(
            json.loads(json.dumps(io.records_document(records)))
        )
        assert all(r.shots is None for rec in parsed for r in rec.records)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no measurement records"):
            io.records_document([])

    def test_records_of_two_runs_rejected(self):
        # Written from the first config, the mix would read back as one run.
        short = run_experiment(noisy_config(decoherence_time=20.0, shots=100))
        long = run_experiment(noisy_config(decoherence_time=80.0, shots=1000))
        with pytest.raises(ValueError, match="^records carry different configs"):
            io.records_document(short[:2] + long[2:])

    @pytest.mark.parametrize(
        "indices, message",
        [
            ((0, 1, 1, 3), r"^records\[2\]: duplicate input_index 2$"),
            ((0, 1, 2), r"^missing input_index \[4\]$"),
            ((3, 2, 1), r"^missing input_index \[1\]$"),
        ],
        ids=["duplicate", "missing-last", "missing-first"],
    )
    def test_not_one_record_per_input_rejected(self, indices, message):
        # The rule parse_records_document applies: a document it would
        # refuse is never written.
        records = run_experiment(noisy_config())
        with pytest.raises(ValueError, match=message):
            io.records_document([records[i] for i in indices])

    def test_any_input_order_written_as_given(self):
        records = run_experiment(noisy_config())
        shuffled = [records[i] for i in (2, 0, 3, 1)]
        doc = io.records_document(shuffled)
        assert [entry["input_index"] for entry in doc["records"]] == [3, 1, 4, 2]
        assert io.parse_records_document(json.loads(json.dumps(doc))) == records

    def test_header_checks(self):
        records = run_experiment(noisy_config())
        doc = io.records_document(records)
        wrong_kind = dict(doc, kind="qpt-result")
        with pytest.raises(ConfigError, match="expected kind"):
            io.parse_records_document(wrong_kind)
        wrong_version = dict(doc, schema_version=99)
        with pytest.raises(ConfigError, match="schema_version"):
            io.parse_records_document(wrong_version)
        with pytest.raises(ConfigError, match="missing key"):
            io.parse_records_document({"schema_version": 1, "kind": io.RECORDS_KIND})
        with pytest.raises(ConfigError, match="^records document: expected a JSON object$"):
            io.parse_records_document([])

    def test_entry_errors_carry_position(self):
        doc = io.records_document(run_experiment(noisy_config()))
        doc["records"][2]["expectations"][0]["axis"] = "q"
        with pytest.raises(ConfigError, match=r"records\[2\]"):
            io.parse_records_document(doc)
        doc["records"][0]["expectations"] = {"axis": "x", "value": 1.0}
        with pytest.raises(ConfigError, match=r"^records\[0\]: expectations must be a list$"):
            io.parse_records_document(doc)


def round_trip(records):
    """Records written by the library and read back through strict JSON."""
    return io.parse_records_document(json.loads(json.dumps(io.records_document(records))))


# A value inside each float field's range, exact in every spelling below.
CONFIG_NUMBERS = {
    "t2": 100, "t1": 300, "decoherence_time": 40, "polarization": 1, "pulse_error": 0,
}


class TestDocumentsReadBack:
    """Every spelling a config or a record accepts is written as a document
    that the records reader accepts, holding the same values."""

    @pytest.mark.parametrize("field", sorted(CONFIG_NUMBERS))
    @pytest.mark.parametrize(
        "spelling", [int, float, np.int64, np.int32, np.float64, np.float32, np.float16]
    )
    def test_config_numbers(self, field, spelling):
        numbers = dict(CONFIG_NUMBERS, **{field: spelling(CONFIG_NUMBERS[field])})
        config = ExperimentConfig(**numbers)
        value = getattr(config, field)
        # Python numbers are kept as given, so documents keep their bytes;
        # numpy scalars become the equal Python number.
        assert value == CONFIG_NUMBERS[field]
        assert type(value) is (int if spelling in (int, np.int64, np.int32) else float)
        parsed = round_trip(run_experiment(config))
        assert parsed[0].config == config
        assert type(getattr(parsed[0].config, field)) is type(value)

    @pytest.mark.parametrize("field", sorted(CONFIG_NUMBERS))
    @pytest.mark.parametrize(
        "bad",
        [
            True, False, np.bool_(True), "100", None, 100j, np.complex128(100), [100],
            pytest.param(10**400, id="huge-integer"),
        ],
    )
    def test_config_non_numbers_rejected(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be a number"):
            ExperimentConfig(**dict(CONFIG_NUMBERS, **{field: bad}))

    @pytest.mark.parametrize("spelling", [int, np.int64, np.int32, np.uint8])
    def test_input_index(self, spelling):
        records = [
            MeasurementRecord(spelling(r.input_index), r.records, r.config)
            for r in run_experiment(noisy_config())
        ]
        assert all(type(r.input_index) is int for r in records)
        parsed = round_trip(records)
        assert [r.input_index for r in parsed] == [1, 2, 3, 4]
        assert [r.records for r in parsed] == [r.records for r in records]

    @pytest.mark.parametrize("bad", [True, np.bool_(True), 2.0, np.float64(2.0), "2", None])
    def test_input_index_non_integers_rejected(self, bad):
        record = run_experiment(noisy_config())[1]
        with pytest.raises(ValueError, match="^input_index must be an integer"):
            MeasurementRecord(bad, record.records, record.config)


class TestResultDocument:
    def build(self):
        config = noisy_config()
        estimate = run_process_tomography(run_experiment(config))
        doc = io.result_document(estimate, config)
        return config, estimate, doc

    def test_raw_block(self):
        config, estimate, doc = self.build()
        assert doc["kind"] == io.RESULT_KIND
        assert doc["projected"] is None and doc["discrepancy"] is None
        raw = doc["raw"]
        np.testing.assert_array_equal(
            io.decode_complex_matrix(raw["chi"], (4, 4), "chi"), estimate.chi
        )
        assert raw["cp"]["flag"] == estimate.cp_flag
        assert raw["tp"]["deficit"] == estimate.tp_deficit
        assert sorted(raw) == ["affine", "chi", "cp", "tp"]
        # The whole document is valid strict JSON.
        json.dumps(doc, allow_nan=False)

    def test_attach_projection(self):
        config, estimate, doc = self.build()
        result = project_to_physical(estimate.chi)
        report = projection_report(estimate.chi, result)
        comparison = process_distance_report(
            estimate.chi, result.chi_tilde, context=("estimated", "projected")
        )
        io.attach_projection(doc, result, comparison)
        assert doc["projected"]["distance"] == result.distance
        assert doc["projected"]["converged"] is True
        assert doc["projected"]["tp_residual"] == result.tp_residual <= 1e-12
        assert doc["projected"]["min_eigenvalue"] == result.min_eigenvalue >= -1e-12
        assert "restart_distances" not in doc["projected"]
        assert doc["discrepancy"] == report.as_dict() == comparison.norms.as_dict()
        json.dumps(doc, allow_nan=False)

    def test_state_metrics_skip_reason_serialized(self):
        config, estimate, doc = self.build()
        result = project_to_physical(estimate.chi)
        comparison = process_distance_report(
            estimate.chi, result.chi_tilde, context=("raw", "projected")
        )
        io.attach_projection(doc, result, comparison)
        # The raw estimate violates complete positivity for this seed, so
        # the state-metric block records why it was skipped.
        assert estimate.cp_flag is False
        assert "skipped" in doc["state_metrics"]
        assert "raw" in doc["state_metrics"]["skipped"]

    def test_document_chi_prefers_projected(self):
        config, estimate, doc = self.build()
        result = project_to_physical(estimate.chi)
        comparison = process_distance_report(
            estimate.chi, result.chi_tilde, context=("raw", "projected")
        )
        np.testing.assert_array_equal(io.document_chi(doc), estimate.chi)
        io.attach_projection(doc, result, comparison)
        roundtrip = json.loads(json.dumps(doc))
        np.testing.assert_allclose(
            io.document_chi(roundtrip), result.chi_tilde, atol=1e-15
        )
        np.testing.assert_allclose(
            io.document_chi(roundtrip, prefer_projected=False), estimate.chi, atol=1e-15
        )

    def test_document_chi_shape_is_checked_by_the_array_rule(self):
        _, _, doc = self.build()
        doc["raw"]["chi"] = doc["raw"]["chi"][:3]
        with pytest.raises(ConfigError, match=r"^raw\.chi: expected shape 4x4, got \(3, 4\)$"):
            io.document_chi(doc)

    def test_document_config(self):
        config, estimate, doc = self.build()
        assert io.config_from_dict(doc["config"]) == config
        assert io.result_document(estimate)["config"] is None


class TestFileIo:
    def test_write_and_read_json(self, tmp_path):
        path = str(tmp_path / "doc.json")
        io.write_json_atomic(path, {"schema_version": 1, "kind": "qpt-records"})
        loaded = io.read_json(path)
        assert loaded["kind"] == "qpt-records"

    def test_missing_directory_raises_and_leaves_nothing(self, tmp_path):
        # No parent directory is made; the error names the requested path,
        # not the temporary file that would have gone beside it.
        path = str(tmp_path / "sub" / "doc.json")
        with pytest.raises(FileNotFoundError) as info:
            io.write_json_atomic(path, {"a": 1})
        assert info.value.filename == path
        assert os.listdir(tmp_path) == []

    def test_trailing_newline(self, tmp_path):
        path = str(tmp_path / "doc.json")
        io.write_json_atomic(path, {"a": 1})
        with open(path) as handle:
            assert handle.read().endswith("}\n")

    def test_no_temp_file_left_behind(self, tmp_path):
        path = str(tmp_path / "doc.json")
        io.write_json_atomic(path, {"a": 1})
        assert os.listdir(tmp_path) == ["doc.json"]

    def test_atomic_text_file_keeps_the_old_file_when_the_block_raises(self, tmp_path):
        path = tmp_path / "doc.txt"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with io.atomic_text_file(str(path)) as handle:
                handle.write("new\n")
                raise RuntimeError("stop")
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["doc.txt"]
        with io.atomic_text_file(str(path)) as handle:
            handle.write("new\n")
        assert path.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["doc.txt"]

    def test_overwrite_is_atomic_replace(self, tmp_path):
        path = str(tmp_path / "doc.json")
        io.write_json_atomic(path, {"a": 1})
        io.write_json_atomic(path, {"a": 2})
        assert io.read_json(path)["a"] == 2

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constants_rejected(self, tmp_path, constant):
        path = str(tmp_path / "doc.json")
        with open(path, "w") as handle:
            handle.write('{"a": [1.0, %s]}' % constant)
        with pytest.raises(ConfigError, match=f"non-finite number {constant}"):
            io.read_json(path)

    def test_invalid_json_position(self, tmp_path):
        path = str(tmp_path / "broken.json")
        with open(path, "w") as handle:
            handle.write('{\n  "a": 1,\n}')
        with pytest.raises(ConfigError, match="line 3"):
            io.read_json(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            io.read_json(str(tmp_path / "absent.json"))

    def test_non_finite_rejected_by_strict_encoder(self, tmp_path):
        with pytest.raises(ValueError):
            io.write_json_atomic(str(tmp_path / "bad.json"), {"x": math.inf})
        assert not (tmp_path / "bad.json").exists()
        assert os.listdir(tmp_path) == []


class TestInputErrorRule:
    """``errors._input_error``, the one translation of an input error."""

    @pytest.mark.parametrize(
        "error",
        [
            ValueError("bad value"),
            np.linalg.LinAlgError("bad value"),
            TypeError("bad value"),
            KeyError("bad value"),
            IndexError("bad value"),
        ],
        ids=["ValueError", "LinAlgError", "TypeError", "KeyError", "IndexError"],
    )
    def test_input_errors_become_config_errors(self, error):
        with pytest.raises(ConfigError) as raised:
            with _input_error("source.json"):
                raise error
        assert str(raised.value) == f"source.json: {error}"
        assert raised.value.__cause__ is error
        with pytest.raises(ConfigError) as raised:
            with _input_error():
                raise error
        assert str(raised.value) == str(error)

    @pytest.mark.parametrize(
        "error",
        [
            ConfigError("already an input error"),
            NonConvergenceError("out of budget", best_result=object()),
            OSError(2, "No such file or directory", "absent.json"),
        ],
        ids=["ConfigError", "NonConvergenceError", "OSError"],
    )
    def test_other_errors_pass_through(self, error):
        with pytest.raises(type(error)) as raised:
            with _input_error("source.json"):
                raise error
        assert raised.value is error

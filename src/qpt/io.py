"""JSON artifact formats and atomic file writes.

Three document kinds flow through the pipeline: measurement records
(``qpt-records``), analysis results (``qpt-result``) and process
comparisons (``qpt-comparison``).  All are plain JSON with complex numbers
as ``[real, imag]`` pairs, so documents round-trip bit exactly through the
standard encoder.  Writes go through a temporary file in the destination
directory followed by an atomic rename; readers never observe partial
documents.

Malformed input (bad JSON, wrong kind, missing or invalid fields) raises
``ConfigError`` with the file position or field name; filesystem problems
propagate as ``OSError``.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import MISSING, asdict, fields
from typing import Iterable, Sequence

import numpy as np

from .channels import AffineMap, affine_from_chi
from .errors import ConfigError, _shown
from .metrics import ProcessComparison
from .process_tomography import ProcessEstimate
from .projection import ProjectionResult
from .simulator import INPUT_COUNT, ExperimentConfig, MeasurementRecord
from .state_tomography import ExpectationRecord

SCHEMA_VERSION = 1
RECORDS_KIND = "qpt-records"
RESULT_KIND = "qpt-result"
COMPARISON_KIND = "qpt-comparison"


def _json_number(value, field: str) -> int | float:
    """``value`` if it is a JSON number; anything else raises ``ConfigError``.

    ``true`` is not a number although ``bool`` subclasses ``int``, and
    numeric text such as ``"0.5"`` is text: neither is coerced.  An integer
    too large for a float is rejected too; the value is returned unchanged.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field} must be a number, got {_shown(value)}")
    try:
        float(value)
    except OverflowError:
        raise ConfigError(
            f"{field} must be a number within the float range, got an integer "
            f"of {value.bit_length()} bits"
        ) from None
    return value


def _json_integer(value, field: str) -> int:
    """``value`` if it is a JSON integer (not ``true``); else ``ConfigError``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field} must be an integer, got {_shown(value)}")
    return value


def encode_complex_matrix(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def decode_complex_matrix(data, shape: tuple[int, int], field: str) -> np.ndarray:
    try:
        m = np.array(
            [
                [
                    complex(_json_number(re, field), _json_number(im, field))
                    for re, im in row
                ]
                for row in data
            ]
        )
    except (TypeError, ValueError, LookupError) as exc:
        raise ConfigError(f"{field}: malformed complex matrix: {exc}") from exc
    if m.shape != shape:
        raise ConfigError(f"{field}: expected shape {shape}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ConfigError(f"{field}: non-finite entries")
    return m


def encode_affine(a: AffineMap) -> dict:
    return {
        "matrix": [[float(v) for v in row] for row in a.matrix],
        "translation": [float(v) for v in a.translation],
    }


def decode_affine(data, field: str) -> AffineMap:
    try:
        matrix = [
            [_json_number(v, f"{field}.matrix") for v in row] for row in data["matrix"]
        ]
        translation = [
            _json_number(v, f"{field}.translation") for v in data["translation"]
        ]
        return AffineMap(
            matrix=np.array(matrix, dtype=float),
            translation=np.array(translation, dtype=float),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{field}: malformed affine map: {exc}") from exc


def config_to_dict(config: ExperimentConfig) -> dict:
    doc = asdict(config)
    # JSON has no infinity; null stands for "no amplitude damping".
    if math.isinf(config.t1):
        doc["t1"] = None
    return doc


def config_from_dict(data) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config must be an object, got {type(data).__name__}")
    spec = {f.name: f for f in fields(ExperimentConfig)}
    unknown = set(data) - set(spec)
    if unknown:
        raise ConfigError(
            f"unknown config keys: {', '.join(map(_shown, sorted(unknown)))}"
        )
    for name, field in spec.items():
        if field.default is MISSING and name not in data:
            raise ConfigError(f"config is missing the required key {name}")
    kwargs = {}
    for key, value in data.items():
        # null is "no amplitude damping" for t1, and the default where that
        # is None (shots: exact expectations).
        if value is None and (key == "t1" or spec[key].default is None):
            continue
        # Annotations are text here: "float", "int" or "int | None".
        check = _json_integer if spec[key].type.startswith("int") else _json_number
        kwargs[key] = check(value, f"config.{key}")
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def records_document(records: Sequence[MeasurementRecord]) -> dict:
    if not records:
        raise ValueError("no measurement records to serialize")
    config = records[0].config
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": RECORDS_KIND,
        "config": config_to_dict(config),
        "records": [
            {
                "input_index": record.input_index,
                "expectations": [asdict(r) for r in record.records],
            }
            for record in records
        ],
    }


def _require(doc: dict, key: str, context: str):
    if key not in doc:
        raise ConfigError(f"{context}: missing key {key!r}")
    return doc[key]


def _check_header(doc, kind: str, context: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{context}: expected a JSON object")
    version = _json_number(
        _require(doc, "schema_version", context), f"{context}: schema_version"
    )
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{context}: unsupported schema_version {_shown(version)} "
            f"(expected {SCHEMA_VERSION})"
        )
    found = _require(doc, "kind", context)
    if found != kind:
        raise ConfigError(f"{context}: expected kind {kind!r}, got {_shown(found)}")


def parse_records_document(doc) -> list[MeasurementRecord]:
    """Records of a ``qpt-records`` document, ordered by ``input_index``.

    Each input index ``1..INPUT_COUNT`` must appear exactly once, as a JSON
    integer; the entries may be listed in any order.
    """
    _check_header(doc, RECORDS_KIND, "records document")
    config = config_from_dict(_require(doc, "config", "records document"))
    entries = _require(doc, "records", "records document")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("records document: records must be a non-empty list")
    parsed = {}
    for pos, entry in enumerate(entries):
        context = f"records[{pos}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{context}: expected an object")
        index = _json_integer(
            _require(entry, "input_index", context), f"{context}: input_index"
        )
        if index in parsed:
            raise ConfigError(f"{context}: duplicate input_index {index}")
        expectations = _require(entry, "expectations", context)
        if not isinstance(expectations, list):
            raise ConfigError(f"{context}: expectations must be a list")
        try:
            records = tuple(
                ExpectationRecord(
                    axis=e["axis"],
                    value=_json_number(e["value"], f"{context}: value"),
                    shots=None
                    if e.get("shots") is None
                    else _json_integer(e["shots"], f"{context}: shots"),
                )
                for e in expectations
            )
            parsed[index] = MeasurementRecord(
                input_index=index, records=records, config=config
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{context}: {exc}") from exc
    missing = sorted(set(range(1, INPUT_COUNT + 1)) - set(parsed))
    if missing:
        raise ConfigError(f"records document: missing input_index {missing}")
    return [parsed[index] for index in sorted(parsed)]


def result_document(
    estimate: ProcessEstimate, config: ExperimentConfig | None = None
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": RESULT_KIND,
        "config": None if config is None else config_to_dict(config),
        "raw": {
            "chi": encode_complex_matrix(estimate.chi),
            "affine": encode_affine(estimate.affine),
            "cp": {
                "flag": estimate.cp_flag,
                "min_choi_eigenvalue": estimate.cp_min_eigenvalue,
            },
            "tp": {"flag": estimate.tp_flag, "deficit": estimate.tp_deficit},
            "anti_hermitian_norm": estimate.anti_hermitian_norm,
            "residuals": list(estimate.residuals),
            "lambda": encode_complex_matrix(estimate.lambda_matrix),
        },
        "projected": None,
        "discrepancy": None,
        "state_metrics": None,
    }


def attach_projection(
    doc: dict,
    result: ProjectionResult,
    comparison: ProcessComparison,
) -> dict:
    """Fill the projection sections of a result document in place.

    ``comparison`` compares the estimate with ``result.chi_tilde``; its norm
    block is written as the discrepancy removed by projection.
    """
    doc["projected"] = {
        "chi": encode_complex_matrix(result.chi_tilde),
        "affine": encode_affine(affine_from_chi(result.chi_tilde)),
        "distance": result.distance,
        "iterations": result.iterations,
        "converged": result.converged,
        "tp_residual": result.tp_residual,
        "min_eigenvalue": result.min_eigenvalue,
    }
    doc["discrepancy"] = comparison.norms.as_dict()
    doc["state_metrics"] = _state_metrics_section(comparison)
    return doc


def _state_metrics_section(comparison: ProcessComparison) -> dict:
    """The state-metric block of a comparison, or why it was skipped."""
    if comparison.state_metrics is None:
        return {"skipped": comparison.skip_reason}
    return comparison.state_metrics.as_dict()


def result_sections(doc) -> tuple[dict, dict | None]:
    """The ``raw`` and ``projected`` sections of a result document.

    Checks the header, that ``raw`` is an object and that ``projected`` is
    an object or null; anything else raises ``ConfigError``.
    """
    _check_header(doc, RESULT_KIND, "result document")
    raw = _require(doc, "raw", "result document")
    if not isinstance(raw, dict):
        raise ConfigError(
            f"result document: raw must be an object, got {type(raw).__name__}"
        )
    projected = doc.get("projected")
    if projected is not None and not isinstance(projected, dict):
        raise ConfigError(
            "result document: projected must be an object or null, "
            f"got {type(projected).__name__}"
        )
    return raw, projected


def document_chi(doc, prefer_projected: bool = True) -> np.ndarray:
    """Extract a coefficient matrix from a result document.

    Takes the projected matrix when present (unless told otherwise), the raw
    one else.
    """
    raw, projected = result_sections(doc)
    if prefer_projected and projected is not None:
        return decode_complex_matrix(
            _require(projected, "chi", "projected"), (4, 4), "projected.chi"
        )
    return decode_complex_matrix(_require(raw, "chi", "raw"), (4, 4), "raw.chi")


def document_affines(doc) -> dict[str, AffineMap]:
    """Affine maps of a result document by section: raw, then projected if set."""
    raw, projected = result_sections(doc)
    return {
        name: decode_affine(_require(section, "affine", name), f"{name}.affine")
        for name, section in (("raw", raw), ("projected", projected))
        if section is not None
    }


def comparison_document(comparison: ProcessComparison) -> dict:
    """The ``qpt-comparison`` document of a process comparison."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": COMPARISON_KIND,
        "context": list(comparison.norms.context),
        "norms": comparison.norms.as_dict(),
        "state_metrics": _state_metrics_section(comparison),
    }


def read_json(path: str) -> dict:
    """Parse a strict JSON file.

    ``NaN`` and ``Infinity``, bytes that are not UTF-8, nesting deeper
    than the parser's recursion limit and integers longer than Python's
    integer-string limit (4300 digits by default) raise ``ConfigError``.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc

    def reject_constant(name: str):
        raise ConfigError(f"{path}: non-finite number {name} is not valid JSON")

    try:
        return json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: JSON nested too deeply to parse") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: JSON integer too long to parse: {exc}") from exc


def write_text_atomic(path: str, text: str | Iterable[str]) -> None:
    """Write via a sibling temporary file and an atomic rename.

    ``text`` is a string or an iterable of strings, written as they come.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        mode="w", encoding="utf-8", dir=directory, delete=False, suffix=".tmp"
    )
    try:
        with handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def write_json_atomic(path: str, doc: dict) -> None:
    write_text_atomic(path, json.dumps(doc, indent=2, allow_nan=False) + "\n")

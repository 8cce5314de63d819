"""Command-line pipeline: simulate, reconstruct, project, compare, render.

Exit codes: 0 success, 2 configuration or input-validation problem, 3
filesystem problem, 4 projection did not converge (the best iterate is
still written).  The ``QPT_LOG`` environment variable sets the log level
(DEBUG, INFO, WARNING, ERROR).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from . import io as qio
from .channels import _PARAMETER_SETS, standard_channel
from .errors import ConfigError, NonConvergenceError, QptError, _input_error, _shown
from .simulator import PRESETS, ExperimentConfig, run_experiment

# The stages past simulation (process_tomography, projection, metrics,
# mesh) are imported in the functions that run them, so each command's
# process loads only the stages it runs; `io` and the simulator are
# module-level, since every command reads or writes a document and the
# parser's --preset choices are the simulator's PRESETS.

log = logging.getLogger("qpt")

PAPER_REPRO = "paper-repro"
# Each level quadruples the mesh: level 7 writes 34.5 MB of OBJ per map and
# level 9 would write ~550 MB.  README's `render` entry gives two-map render
# times and peak RSS at levels 6 and 7.
MAX_SUBDIVISIONS = 7


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors show command-line text through
    :func:`qpt.errors._shown`, so over-long text is named by its length
    instead of echoed.  Subcommand parsers are made of the same class."""

    def _check_value(self, action, value):
        # argparse's own check, for --preset and the subcommand name.
        if action.choices is not None and value not in action.choices:
            raise argparse.ArgumentError(
                action,
                f"invalid choice: {_shown(value)} "
                f"(choose from {', '.join(map(repr, action.choices))})",
            )

    def parse_args(self, args=None, namespace=None):
        namespace, extras = self.parse_known_args(args, namespace)
        if extras:
            more = f" and {len(extras) - 3} more" if len(extras) > 3 else ""
            self.error(
                "unrecognized arguments: "
                + " ".join(map(_shown, extras[:3]))
                + more
            )
        return namespace


def _integer_text(text: str, name: str, expected: str) -> int:
    """``int(text)`` for an argparse type, else an error saying ``name`` must be
    ``expected``; text such as an integer past Python's digit limit is
    shown bounded."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{name} must be {expected}, got {_shown(text)}"
        ) from None


def _shots_argument(text: str):
    if text == "exact":
        return "exact"
    value = _integer_text(text, "shots", "a positive integer or 'exact'")
    if value < 1:
        raise argparse.ArgumentTypeError(f"shots must be positive, got {_shown(value)}")
    return value


def _seed_argument(text: str) -> int:
    return _integer_text(text, "seed", "an integer")


def _subdivisions_argument(text: str) -> int:
    """argparse type for ``--subdivisions``: an integer in 1..MAX_SUBDIVISIONS."""
    value = _integer_text(text, "subdivisions", "an integer")
    if not 1 <= value <= MAX_SUBDIVISIONS:
        raise argparse.ArgumentTypeError(
            f"subdivisions must be between 1 and {MAX_SUBDIVISIONS}, "
            f"got {_shown(value)}"
        )
    return value


def _resolve_configs(args) -> dict[str, ExperimentConfig]:
    """The configurations to run, with the flag overrides applied, by output
    subdirectory: every bundled preset for ``paper-repro``, else the one
    given, under ``""``."""
    if (args.preset is None) == (args.config is None):
        raise ConfigError("exactly one of --preset and --config is required")
    if args.preset == PAPER_REPRO:
        configs = dict(PRESETS)
    elif args.preset is not None:
        configs = {"": PRESETS[args.preset]}
    else:
        configs = {"": qio.config_from_dict(qio.read_json(args.config))}
    return {name: _apply_overrides(config, args) for name, config in configs.items()}


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.shots is not None:
        updates["shots"] = None if args.shots == "exact" else args.shots
    with _input_error("invalid override"):
        return replace(config, **updates)


def cmd_simulate(args) -> int:
    (config,) = _resolve_configs(args).values()
    records = run_experiment(config)
    qio.write_json_atomic(args.out, qio.records_document(records))
    log.info("wrote %d record sets to %s", len(records), args.out)
    return 0


def cmd_reconstruct(args) -> int:
    from .process_tomography import run_process_tomography

    records = qio.parse_records_document(qio.read_json(args.records))
    with _input_error(args.records):
        doc = qio.result_document(run_process_tomography(records), records[0].config)
    qio.write_json_atomic(args.out, doc)
    raw = doc["raw"]
    log.info(
        "reconstructed process: cp=%s tp=%s -> %s",
        raw["cp"]["flag"], raw["tp"]["flag"], args.out,
    )
    return 0


def _project_into_document(doc: dict) -> int:
    from .metrics import process_distance_report
    from .projection import project_to_physical

    chi = qio.document_chi(doc, prefer_projected=False)
    code = 0
    try:
        result = project_to_physical(chi)
    except NonConvergenceError as exc:
        log.error("projection did not converge: %s", exc)
        result = exc.best_result
        code = 4
    comparison = process_distance_report(
        chi, result.chi_tilde, context=("estimated", "projected")
    )
    qio.attach_projection(doc, result, comparison)
    return code


def cmd_project(args) -> int:
    doc = qio.read_json(args.result)
    with _input_error(args.result):
        code = _project_into_document(doc)
    qio.write_json_atomic(args.out, doc)
    log.info("projected result written to %s", args.out)
    return code


def _channel_by_name(name: str) -> np.ndarray:
    """The channel a ``qpt compare`` operand names: a family with no
    parameter by its name alone, one with a one-parameter set as
    ``KIND:VALUE``."""
    base, colon, argument = name.partition(":")
    kind = base.replace("-", "_")
    accepted = _PARAMETER_SETS.get(kind, ())
    if () in accepted and not colon:
        return standard_channel(kind)
    singles = [names for names in accepted if len(names) == 1]
    if not singles:
        known = (
            ":".join([family.replace("_", "-"), *map(str.upper, names)])
            for family, sets in _PARAMETER_SETS.items()
            for names in sets
            if len(names) <= 1
        )
        raise ConfigError(
            f"{_shown(name)} is neither an existing result file nor a known "
            f"channel ({', '.join(known)})"
        )
    try:
        value = float(argument)
    except ValueError:
        raise ConfigError(
            f"channel {_shown(name)}: {_shown(argument)} is not a number"
        ) from None
    with _input_error(f"channel {_shown(name)}"):
        return standard_channel(kind, **{singles[0][0]: value})


def _comparison_operand(spec: str) -> tuple[np.ndarray, str]:
    if os.path.exists(spec):
        doc = qio.read_json(spec)
        # Two documents are read: a refused field names its file.
        try:
            chi = qio.document_chi(doc)
        except ConfigError as exc:
            raise ConfigError(f"{spec}: {exc}") from exc
        section = "raw" if doc.get("projected") is None else "projected"
        return chi, f"{os.path.basename(spec)}:{section}"
    return _channel_by_name(spec), spec


def cmd_compare(args) -> int:
    from .metrics import process_distance_report

    chi_a, label_a = _comparison_operand(args.a)
    chi_b, label_b = _comparison_operand(args.b)
    with _input_error(f"{args.a} vs {args.b}"):
        comparison = process_distance_report(chi_a, chi_b, context=(label_a, label_b))
    qio.write_json_atomic(args.out, qio.comparison_document(comparison))
    print(
        f"{label_a} vs {label_b}: frobenius={comparison.norms.frobenius_norm:.6f} "
        f"d_pro={comparison.norms.trace_distance_pro:.6f}"
    )
    return 0


def _render_document(doc: dict, prefix: str, subdivisions: int) -> None:
    """Write ``<prefix>_<section>.obj`` and ``.json`` for each stored map.

    All maps share one icosphere.  Every mesh and sidecar is built before
    the first file is written, so a map that cannot be rendered leaves no
    output at all.
    """
    from .mesh import ellipsoid_meshes, mesh_metadata, write_objs

    affines = qio.document_affines(doc)
    meshes = ellipsoid_meshes(affines.values(), subdivisions)
    sidecars = {
        block: mesh_metadata(affine, mesh)
        for (block, affine), mesh in zip(affines.items(), meshes)
    }
    write_objs({f"{prefix}_{block}.obj": mesh for block, mesh in zip(affines, meshes)})
    for block, metadata in sidecars.items():
        qio.write_json_atomic(f"{prefix}_{block}.json", metadata)


def cmd_render(args) -> int:
    _render_document(qio.read_json(args.result), args.out, args.subdivisions)
    log.info("meshes written with prefix %s", args.out)
    return 0


def _run_single_pipeline(config: ExperimentConfig, out_dir: str, args) -> int:
    from .metrics import process_distance_report
    from .process_tomography import run_process_tomography

    records = run_experiment(config)
    # Reconstruct first: records it cannot invert, or whose estimate no
    # reader would accept, leave no file of the run.
    with _input_error("simulated records"):
        doc = qio.result_document(run_process_tomography(records), config)
    os.makedirs(out_dir, exist_ok=True)
    qio.write_json_atomic(
        os.path.join(out_dir, "records.json"), qio.records_document(records)
    )
    code = _project_into_document(doc)
    qio.write_json_atomic(os.path.join(out_dir, "result.json"), doc)

    comparison = process_distance_report(
        qio.document_chi(doc),
        standard_channel("identity"),
        context=("projected", "identity"),
    )
    qio.write_json_atomic(
        os.path.join(out_dir, "compare_identity.json"),
        qio.comparison_document(comparison),
    )
    _render_document(doc, os.path.join(out_dir, "mesh"), args.subdivisions)
    print(
        f"{out_dir}: projection distance {doc['projected']['distance']:.6f}, "
        f"identity frobenius {comparison.norms.frobenius_norm:.6f}"
    )
    return code


def cmd_pipeline(args) -> int:
    code = 0
    for name, config in _resolve_configs(args).items():
        out_dir = os.path.join(args.out, name) if name else args.out
        step = _run_single_pipeline(config, out_dir, args)
        code = code or step
    return code


def _add_config_arguments(parser, include_repro: bool = False) -> None:
    names = sorted(PRESETS)
    if include_repro:
        names.append(PAPER_REPRO)
    parser.add_argument(
        "--preset", choices=names, help="bundled experiment configuration"
    )
    parser.add_argument("--config", help="path to a config JSON file")
    parser.add_argument("--seed", type=_seed_argument, help="override the noise seed")
    parser.add_argument(
        "--shots",
        type=_shots_argument,
        help="override shots per expectation ('exact' disables sampling)",
    )


def _add_subdivisions_argument(parser) -> None:
    parser.add_argument(
        "--subdivisions",
        type=_subdivisions_argument,
        default=3,
        help=f"icosphere refinement level, 1 to {MAX_SUBDIVISIONS} (default 3)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qpt",
        description="Single-qubit process tomography pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the experiment, write records JSON")
    _add_config_arguments(p)
    p.add_argument("--out", required=True, help="output records path")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("reconstruct", help="records JSON to a result document")
    p.add_argument("--records", required=True, help="input records path")
    p.add_argument("--out", required=True, help="output result path")
    p.set_defaults(handler=cmd_reconstruct)

    p = sub.add_parser("project", help="attach the physical projection to a result")
    p.add_argument("--result", required=True, help="input result path")
    p.add_argument("--out", required=True, help="output result path")
    p.set_defaults(handler=cmd_project)

    p = sub.add_parser(
        "compare", help="compare two results or named channels"
    )
    p.add_argument("a", help="result path or channel name")
    p.add_argument("b", help="result path or channel name")
    p.add_argument("--out", required=True, help="output comparison path")
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("render", help="write Bloch-ellipsoid meshes for a result")
    p.add_argument("--result", required=True, help="input result path")
    p.add_argument("--out", required=True, help="output file prefix")
    _add_subdivisions_argument(p)
    p.set_defaults(handler=cmd_render)

    p = sub.add_parser(
        "pipeline", help="simulate, reconstruct, project, compare, render"
    )
    _add_config_arguments(p, include_repro=True)
    p.add_argument("--out", required=True, help="output directory")
    _add_subdivisions_argument(p)
    p.set_defaults(handler=cmd_pipeline)
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("QPT_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s", force=False
    )
    log.setLevel(level)


def _os_error_text(exc: OSError) -> str:
    """``str(exc)``, except that a file name longer than Linux's
    ``PATH_MAX`` (4096 characters) is named by its length."""
    if exc.filename is None:
        return str(exc)
    names = [
        repr(name) if len(str(name)) <= 4096 else _shown(name)
        for name in (exc.filename, exc.filename2) if name is not None
    ]
    return f"[Errno {exc.errno}] {exc.strerror}: {' -> '.join(names)}"


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except OSError as exc:
        print(f"error: {_os_error_text(exc)}", file=sys.stderr)
        return 3
    except QptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

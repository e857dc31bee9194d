"""Command-line interface: solve / propagate / dispersion / compare / sweep.

Exit codes: 0 success, 2 configuration error, 3 solver non-convergence,
4 singular-region or non-hyperbolic diagnostic.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import (EXIT_CONFIG, EXIT_NONCONVERGENCE, EXIT_OK,
                     ConfigurationError, WavekitError)
from .scenario import (EQUATIONS, RunReport, canonical_json, compare_reports,
                       error_object, frames_csv, load_document, parse_sweep,
                       run_scenario, run_sweep, spectrum_csv, sweep_table,
                       validate_scenario)


def _read_config(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc


def _write(out: str, text: str):
    try:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write --out {out}: {exc}") from exc


def _write_report(report: RunReport, out: str | None, fmt: str, quiet: bool):
    if fmt == "csv":
        kind = report.payload.get("kind")
        text = spectrum_csv(report) if kind == "spectrum" else frames_csv(report)
    else:
        text = report.to_json()
    if out:
        _write(out, text)
        if not quiet:
            print(f"report written to {out}")
    elif not quiet:
        print(text)


def _write_error(exc: WavekitError, out: str | None, quiet: bool) -> int:
    text = canonical_json(error_object(exc))
    if out:
        try:
            _write(out, text)
        except ConfigurationError as unwritable:  # reported on stderr instead
            return _write_error(unwritable, None, False)
    if not quiet:
        print(text, file=sys.stderr)
    return exc.exit_code


def cmd_scenario(args) -> int:
    """solve / propagate / dispersion: one run of an equation of the command."""
    try:
        doc = load_document(_read_config(args.config))
        output = {} if doc.get("output") is None else doc["output"]
        if args.frame_stride is not None and isinstance(output, dict):
            # into the document, so the schema checks it and the echo holds it
            doc["output"] = {**output, "frame_stride": args.frame_stride}
        config = validate_scenario(doc)
        command = EQUATIONS[config.equation].command
        if command != args.command:
            raise ConfigurationError(
                f"equation {config.equation!r} is run by 'wavekit {command}', "
                f"not 'wavekit {args.command}'")
        _write_report(run_scenario(config), args.out, args.format, args.quiet)
    except WavekitError as exc:
        return _write_error(exc, args.out, args.quiet)
    return EXIT_OK


def _load_report(path: str) -> RunReport:
    """The report in the file at ``path``; raises ValueError when the file
    holds other JSON, such as the error object of a failed run."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not (isinstance(doc, dict) and isinstance(doc.get("scenario"), dict)
            and isinstance(doc.get("payload"), dict)):
        raise ValueError(f"{path} is not a report: a report is a JSON object "
                         "with 'scenario' and 'payload' objects")
    return RunReport(doc["scenario"], doc["payload"], doc.get("diagnostics", {}),
                     doc.get("version", ""), doc.get("input_digest", ""),
                     doc.get("payload_digest", ""))


def cmd_compare(args) -> int:
    try:
        delta = compare_reports(*(_load_report(path)
                                  for path in (args.report_a, args.report_b)))
    except (OSError, ValueError) as exc:  # JSON, UTF-8, truncated payloads
        print(f"cannot load report: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WavekitError as exc:
        return _write_error(exc, args.out, args.quiet)
    try:
        text = canonical_json(delta)
        if args.out:
            _write(args.out, text)
    except WavekitError as exc:
        return _write_error(exc, args.out, args.quiet)
    if not args.quiet:
        print(text)
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        doc, parameter, values = parse_sweep(_read_config(args.config))
        cells = run_sweep(doc, parameter, values, jobs=args.jobs)
        table = sweep_table(cells, parameter)
        if args.out:
            _write(args.out, table)
    except WavekitError as exc:
        return _write_error(exc, args.out, args.quiet)
    if not args.quiet:
        print(table)
    ok = any(c["status"] == "ok" for c in cells)
    return EXIT_OK if ok else EXIT_NONCONVERGENCE


def _at_least_one(text: str) -> int:
    """argparse type of an integer >= 1 (``--jobs``)."""
    value = int(text) if text.strip().lstrip("+-").isdecimal() else 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavekit",
        description="Solvers and audits for modified quantum wave equations")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="scenario YAML path")
        p.add_argument("--out", default=None, help="output path")
        p.add_argument("--quiet", action="store_true")
        return p

    # CSV tables exist for spectra and trajectories, not residual tables
    for command, what, formats in (
            ("solve", "stationary spectra", ("json", "csv")),
            ("propagate", "time-dependent evolution", ("json", "csv")),
            ("dispersion", "plane-wave residual audit", ("json",))):
        p = common(sub.add_parser(command, help=what))
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--frame-stride", type=int, default=None,
                       help="keep every n-th time step in memory and emit "
                            "it as a frame (overrides output.frame_stride)")

    pc = sub.add_parser("compare", help="delta of two spectrum reports")
    pc.add_argument("report_a")
    pc.add_argument("report_b")
    pc.add_argument("--out", default=None)
    pc.add_argument("--quiet", action="store_true")

    ps = common(sub.add_parser("sweep", help="one-parameter scenario sweep"))
    ps.add_argument("--jobs", type=_at_least_one, default=1)
    return parser


COMMANDS = {"solve": cmd_scenario, "propagate": cmd_scenario,
            "dispersion": cmd_scenario, "compare": cmd_compare,
            "sweep": cmd_sweep}


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    # argparse (3.11) hands an option written --name=-- an empty list and
    # skips its type: refused here, on stderr, like a parse error
    for name, value in vars(args).items():
        if isinstance(value, list):
            flag = "--" + name.replace("_", "-")
            return _write_error(ConfigurationError(
                f"{flag} needs a value, and '--' is not one"), None, False)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

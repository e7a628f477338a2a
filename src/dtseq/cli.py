"""Command-line front end: parse, validate, resolve, render score files.

Diagnostics go to stderr as ``file:line:col: kind: message`` (validation
findings carry no source position and use 0:0); data goes to stdout so
output can be piped.  Exit codes: 0 success, 1 parse or validation
errors (or a render too long for a WAV file), 2 usage errors (including
a bad ``--rate``), 3 I/O failures.  A render that leaves notes at or
above half the rate silent says so in one ``band-limit`` warning and
still exits 0.  Set DTS_COLOR=0 to disable the coloring of diagnostics
on a terminal.
"""

from __future__ import annotations

import argparse
import os
import sys

from .model import ERROR, Composition, validate_composition
from .rational import builtin_scales, cents
from .render import RenderSettings, WAVEFORMS, export_events, synthesize, write_wav
from .resolve import frequency_table, resolve_composition
from .scorefile import parse

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _write_diagnostics(path: str, diagnostics) -> None:
    """Write ``(line, col, kind, message)`` diagnostics to stderr as
    ``path:line:col: kind: message`` lines, in one write."""
    color = os.environ.get("DTS_COLOR", "1") != "0" and sys.stderr.isatty()
    lines = []
    for line, col, kind, message in diagnostics:
        if color:
            kind = f"\x1b[{'33' if kind == 'warning' else '31'}m{kind}\x1b[0m"
        lines.append(f"{path}:{line}:{col}: {kind}: {message}\n")
    if lines:
        sys.stderr.write("".join(lines))


def _load(path: str) -> tuple[Composition | None, int]:
    """Read, parse and validate a score file, printing diagnostics.

    Returns the composition (None when unusable) and the exit code so
    far.  Boundary-crossing warnings are printed but do not fail.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        print(f"dtseq: {exc}", file=sys.stderr)
        return None, EXIT_IO

    result = parse(data)
    if isinstance(result, list):
        _write_diagnostics(path, [(e.position.line, e.position.column, e.kind, e.message)
                                  for e in result])
        return None, EXIT_INVALID

    report = validate_composition(result)
    _write_diagnostics(path, [
        (0, 0, v.kind, f"{v.path}: {v.message}") if v.severity == ERROR
        else (0, 0, "warning", f"{v.kind}: {v.path}: {v.message}")
        for v in report])
    if any(v.severity == ERROR for v in report):
        return None, EXIT_INVALID
    return result, EXIT_OK


def cmd_validate(args) -> int:
    _, status = _load(args.path)
    return status


def cmd_resolve(args) -> int:
    composition, status = _load(args.path)
    if composition is None:
        return status
    if args.table:
        sys.stdout.write("instrument\tticks\tkey\tfactor\tfrequency_hz\n")
        for inst in composition.instruments:
            for region in frequency_table(composition, inst.name):
                for row in region.rows:
                    sys.stdout.write(
                        f"{inst.name}\t[{region.start},{region.end})\t{row.key_index}\t"
                        f"{row.factor.numerator}/{row.factor.denominator}\t"
                        f"{row.frequency_hz:.6g}\n")
    else:
        sys.stdout.write(export_events(resolve_composition(composition)))
    return EXIT_OK


def cmd_render(args) -> int:
    try:
        settings = RenderSettings(sample_rate=args.rate, waveform=args.waveform)
    except ValueError as exc:
        print(f"dtseq: {exc}", file=sys.stderr)
        return EXIT_USAGE
    composition, status = _load(args.path)
    if composition is None:
        return status
    events = resolve_composition(composition)
    try:
        buffer = synthesize(events, settings)
    except ValueError as exc:  # the render is too long for a WAV file
        _write_diagnostics(args.path, [(0, 0, "range", str(exc))])
        return EXIT_INVALID
    if buffer.silent_events:
        _write_diagnostics(args.path, [(0, 0, "warning", (
            f"band-limit: {buffer.silent_events} of {len(events)} events, at "
            f"{buffer.silent_frequencies} distinct frequencies, sound at or above "
            f"{settings.sample_rate / 2:g} Hz, half the sample rate, and are left silent"))])
    try:
        write_wav(buffer, args.out)
    except OSError as exc:
        print(f"dtseq: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"rendered {len(events)} events, {len(buffer.samples)} samples")
    return EXIT_OK


def cmd_scales(args) -> int:
    for scale in builtin_scales():
        ratios = " ".join(f"{k.numerator}/{k.denominator}" for k in scale.keys)
        cent_values = " ".join(f"{cents(k):.2f}" for k in scale.keys)
        print(f"{scale.name}: {ratios}  (cents: {cent_values})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtseq",
        description="Sequence and render compositions written as hierarchies "
                    "of exact rational transpositions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a score file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("resolve", help="print the resolved event listing")
    p.add_argument("path")
    p.add_argument("--table", action="store_true",
                   help="print the per-region frequency table instead of events")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("render", help="synthesize a score to a WAV file")
    p.add_argument("path")
    p.add_argument("--out", required=True, help="output WAV path")
    p.add_argument("--rate", type=int, default=44100, help="sample rate (default 44100)")
    p.add_argument("--waveform", choices=WAVEFORMS, default="sine")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("scales", help="list built-in scales with cents values")
    p.set_defaults(func=cmd_scales)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

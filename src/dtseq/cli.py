"""Command-line front end: parse, validate, resolve, render score files.

Diagnostics go to stderr as ``file:line:col: kind: message`` (validation
findings carry no source position and use 0:0).  Each ``cmd_*`` returns
its exit code and its stdout text, such as a listing formatted by
:mod:`dtseq.resolve`; ``main`` alone writes that text, in one write, and
turns every I/O failure into exit 3.  Each command imports the layers it
runs when it runs, so ``scales`` loads neither the parser nor the
resolver, and only ``render`` loads numpy.  Exit codes:

- 0 success;
- 1 parse or validation errors, or a render too long for a WAV file or
  too large for memory;
- 2 usage errors, including a bad ``--rate``;
- 3 I/O failures: an unreadable score, an unwritable WAV, or a closed or
  full stdout, each with one ``dtseq:`` line (a closed pipe ends with
  no message).

A closed or full stderr loses the diagnostics and usage messages and
changes nothing else, neither the output nor the exit code.  A
render that leaves notes at or above half the rate silent says so in one
``band-limit`` warning and still exits 0.  Set DTS_COLOR=0 to disable
the coloring of diagnostics on a terminal.

``main()`` with no ``argv`` is the program: the ``dtseq`` console script
and ``python -m dtseq.cli`` call it so, and the process ends when it
returns.  It runs the command with the cyclic collector off and calls
``gc.freeze()`` on the way out, leaving the collector off.  A command
leaves no cyclic garbage that grows with the score, only a few hundred
objects from argparse and from the modules it imports, so the
collections it would run find next to nothing; and the interpreter's
full collections at exit would walk every object still alive, the
parsed score and the findings and events that the layers keep for the
next call, only to free nothing.  Frozen, those objects are left out of
them.  ``main(argv)`` with a list, as the tests and a program that
embeds dtseq call it, leaves the collector as it found it, enabled or
not and with the same freeze count, because its process goes on.
"""

from __future__ import annotations

import argparse
import errno
import gc
import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from typing import TYPE_CHECKING

from . import WAVEFORMS
from .rational import builtin_scales, cents, ratio_text

if TYPE_CHECKING:
    from .model import Composition

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _discard(stream) -> None:
    """Point ``stream``'s descriptor at the null device, so that what it
    still buffers goes nowhere at exit instead of failing again."""
    with open(os.devnull, "wb") as null:
        os.dup2(null.fileno(), stream.fileno())


def _stderr(text: str) -> None:
    """Write ``text`` to stderr; a closed or full stderr loses it."""
    if sys.stderr is not None:  # None when descriptor 2 was closed at start-up
        try:
            sys.stderr.write(text)
        except OSError:
            _discard(sys.stderr)


def _write_diagnostics(path: str, diagnostics=(), violations=()) -> None:
    """Write diagnostics to stderr in one write, each built in one step
    as a ``path:line:col: kind: message`` line.  ``diagnostics`` are
    ``(line, col, kind, message)`` tuples; validation ``violations`` have
    no source position and use 0:0, and a warning's own kind leads its
    message."""
    from .model import ERROR

    color = (os.environ.get("DTS_COLOR", "1") != "0" and sys.stderr is not None
             and sys.stderr.isatty())

    def label(kind: str) -> str:
        return f"\x1b[{'33' if kind == 'warning' else '31'}m{kind}\x1b[0m" if color else kind

    warning = label("warning")
    lines = [f"{path}:{line}:{col}: {label(kind)}: {message}\n"
             for line, col, kind, message in diagnostics]
    lines += [f"{path}:0:0: {label(v.kind)}: {v.path}: {v.message}\n" if v.severity == ERROR
              else f"{path}:0:0: {warning}: {v.kind}: {v.path}: {v.message}\n"
              for v in violations]
    _stderr("".join(lines))


def _load(path: str) -> Composition | None:
    """Read, parse and validate a score file, printing diagnostics.

    Returns the composition, or None when it is unusable (exit 1).
    Boundary-crossing warnings are printed but do not fail.
    """
    from .model import ERROR, validate_composition
    from .scorefile import parse

    with open(path, "rb") as fh:
        result = parse(fh.read())
    if isinstance(result, list):
        _write_diagnostics(path, [(e.position.line, e.position.column, e.kind, e.message)
                                  for e in result])
        return None

    report = validate_composition(result)
    _write_diagnostics(path, violations=report)
    return None if any(v.severity == ERROR for v in report) else result


def cmd_validate(args) -> tuple[int, str]:
    return (EXIT_INVALID if _load(args.path) is None else EXIT_OK), ""


def cmd_resolve(args) -> tuple[int, str]:
    from .resolve import export_events, export_table, resolve_composition

    composition = _load(args.path)
    if composition is None:
        return EXIT_INVALID, ""
    return EXIT_OK, (export_table(composition) if args.table
                     else export_events(resolve_composition(composition)))


def cmd_render(args) -> tuple[int, str]:
    from .render import RenderSettings, synthesize, write_wav
    from .resolve import resolve_composition

    try:
        settings = RenderSettings(sample_rate=args.rate, waveform=args.waveform)
    except ValueError as exc:
        _stderr(f"dtseq: {exc}\n")
        return EXIT_USAGE, ""
    composition = _load(args.path)
    if composition is None:
        return EXIT_INVALID, ""
    events = resolve_composition(composition)
    try:
        buffer = synthesize(events, settings)
    except (ValueError, MemoryError) as exc:  # too long for a WAV file, or for memory
        _write_diagnostics(args.path, [(0, 0, "range", str(exc) or "out of memory")])
        return EXIT_INVALID, ""
    if buffer.silent_events:
        _write_diagnostics(args.path, [(0, 0, "warning", (
            f"band-limit: {buffer.silent_events} of {len(events)} events, at "
            f"{buffer.silent_frequencies} distinct frequencies, sound at or above "
            f"{settings.sample_rate / 2:g} Hz, half the sample rate, and are left silent"))])
    write_wav(buffer, args.out)
    return EXIT_OK, f"rendered {len(events)} events, {len(buffer.samples)} samples\n"


def cmd_scales(args) -> tuple[int, str]:
    lines = []
    for scale in builtin_scales():
        ratios = " ".join(map(ratio_text, scale.keys))
        cent_values = " ".join(f"{cents(k):.2f}" for k in scale.keys)
        lines.append(f"{scale.name}: {ratios}  (cents: {cent_values})\n")
    return EXIT_OK, "".join(lines)


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


def _run(argv) -> tuple[int, str]:
    """Parse ``argv`` and run its command.  argparse's help and usage
    text is captured while it parses, so it takes the same paths as a
    command's: help is stdout text, a usage error goes to stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:  # -h, or a usage error
        _stderr(err.getvalue())
        return exc.code, out.getvalue()
    return args.func(args)


def main(argv=None) -> int:
    """Run the command in ``argv``, or, when it is None, the program's own
    command line with the collector off and, at the end, frozen."""
    if argv is not None:
        return _main(argv)
    gc.disable()
    try:
        return _main(sys.argv[1:])
    finally:
        gc.freeze()


def _main(argv: list[str]) -> int:
    text = ""
    try:
        status, text = _run(argv)
        if text:
            if sys.stdout is None:  # descriptor 1 was closed at start-up
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:  # an unreadable score, an unwritable WAV, or stdout
        if text and sys.stdout is not None:  # stdout failed
            _discard(sys.stdout)
        if not isinstance(exc, BrokenPipeError):
            _stderr(f"dtseq: {exc}\n")
        return EXIT_IO
    return status


if __name__ == "__main__":
    sys.exit(main())

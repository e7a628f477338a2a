"""Checks of dtseq's outputs against the generator's own references.

Each check returns None when the output is right and a one-line reason
when it is not; the benchmark counts every reason as a failed operation.
"""

from __future__ import annotations

import hashlib
import math
import re
import struct
from collections import Counter, defaultdict
from fractions import Fraction

from scores import BINDINGS, TONE_TICKS, Score, seconds

EVENT_HEADER = "instrument\tfactor\tfrequency_hz\tstart_sec\tduration_sec\tvelocity"
WARNING = ": warning: boundary-crossing: "
SCALE_LINE = re.compile(r"[A-Za-z_][\w.\-]*: ([\d/ ]+)  \(cents: ([-\d. ]+)\)\Z")


class References:
    """Expected outputs of one score rendered at one sample rate."""

    def __init__(self, score: Score, rate: int):
        self.rate = rate
        self.notes = len(score.notes)
        self.warnings = score.warnings()
        self.events = score.event_lines()
        self.table = score.table_text()
        self.samples = score.samples(rate)
        self.digest: str | None = None  # of the first WAV rendered


def check_scales(code: int, out: str) -> str | None:
    if code != 0:
        return f"scales exited {code}"
    lines = out.splitlines()
    if not lines:
        return "scales printed nothing"
    for line in lines:
        m = SCALE_LINE.match(line)
        if not m:
            return f"scales printed a malformed line: {line!r}"
        ratios, cents = m[1].split(), m[2].split()
        if len(ratios) != len(cents) or any(
                abs(1200 * math.log2(Fraction(r)) - float(c)) > 0.006
                for r, c in zip(ratios, cents)):
            return f"scales: wrong cents in {line!r}"
    return None


def check_command(kind: str, code: int, out: str, err: str, refs: References,
                  wav: bytes | None = None) -> str | None:
    """Check one `dtseq validate|resolve|table|render` run on a score."""
    if code != 0:
        return f"{kind} exited {code}: {err[-300:]}"
    err_lines = err.splitlines()
    warnings = sum(WARNING in line for line in err_lines)
    if warnings != refs.warnings:
        return f"{kind}: {warnings} boundary-crossing warnings, expected {refs.warnings}"
    errors = [line for line in err_lines if ": warning: " not in line]
    if errors:
        return f"{kind}: unexpected diagnostic {errors[0][-200:]!r}"
    if kind == "validate":
        return "validate printed data" if out else None
    if kind == "resolve":
        lines = out.splitlines()
        if not lines or lines[0] != EVENT_HEADER:
            return "resolve: bad header"
        if Counter(lines[1:]) != refs.events:
            return "resolve: events differ from the reference"
        starts = [float(line.split("\t")[3]) for line in lines[1:]]
        if any(a > b for a, b in zip(starts, starts[1:])):
            return "resolve: events not in start order"
        return None
    if kind == "table":
        return None if out == refs.table else "resolve --table differs from the reference"
    if kind == "render":
        expected = f"rendered {refs.notes} events, {refs.samples} samples\n"
        if out != expected:
            return f"render printed {out.strip()!r}, expected {expected.strip()!r}"
        problem = _check_wav(wav, refs.rate, refs.samples)
        if problem:
            return problem
        digest = hashlib.sha256(wav).hexdigest()
        refs.digest = refs.digest or digest
        if digest != refs.digest:
            return "render: WAV differs from an earlier render of the same score"
        return None
    raise ValueError(kind)


def _check_wav(wav: bytes, rate: int, samples: int) -> str | None:
    if len(wav) < 44:
        return "render: WAV shorter than its header"
    riff, size, wave, fmt, fmt_size, pcm, channels, sr, byte_rate, align, bits, data, data_size = \
        struct.unpack("<4sI4s4sIHHIIHH4sI", wav[:44])
    expected = (b"RIFF", 36 + 2 * samples, b"WAVE", b"fmt ", 16, 1, 1, rate, 2 * rate, 2, 16,
                b"data", 2 * samples)
    got = (riff, size, wave, fmt, fmt_size, pcm, channels, sr, byte_rate, align, bits, data,
           data_size)
    if got != expected:
        return f"render: WAV header {got} != {expected}"
    if len(wav) != 44 + 2 * samples:
        return f"render: WAV holds {len(wav) - 44} data bytes, expected {2 * samples}"
    return None


def check_events(events, score: Score) -> str | None:
    """Library events against the reference factors, as a multiset."""
    got = Counter((e.instrument, e.factor, e.start_sec, e.duration_sec, e.velocity)
                  for e in events)
    expected = Counter((n.instrument, score.factor(n), seconds(n.start),
                        seconds(n.duration), n.velocity) for n in score.notes)
    return None if got == expected else "resolve_composition differs from the reference"


def check_edit(before, after, violations, table, inst: str, harmony: str, tone: int,
               r: Fraction, score: Score) -> str | None:
    """After scaling `harmony`'s tone `tone` by `r`: events of instruments
    bound to it whose onset lies in the tone scale by exactly `r`, every
    other event is unchanged, and `inst`'s table matches the reference
    (`score`, to which the same edit has been applied)."""
    if any(v.severity != "warning" for v in violations):
        return "edit: validation errors"
    if len(violations) != score.warnings():
        return f"edit: {len(violations)} warnings, expected {score.warnings()}"
    lo, hi = seconds(tone * TONE_TICKS), seconds((tone + 1) * TONE_TICKS)
    bound = {name for name, hs in BINDINGS.items() if harmony in hs}
    expected, got = defaultdict(list), defaultdict(list)
    for ev in before:
        key = (ev.instrument, ev.start_sec, ev.duration_sec, ev.velocity)
        inside = ev.instrument in bound and lo <= ev.start_sec < hi
        expected[key].append(ev.factor * r if inside else ev.factor)
    for ev in after:
        got[(ev.instrument, ev.start_sec, ev.duration_sec, ev.velocity)].append(ev.factor)
    if expected.keys() != got.keys() or any(sorted(expected[k]) != sorted(got[k])
                                            for k in expected):
        return "edit: events did not scale by exactly r inside the tone only"
    rows = [(reg.start, reg.end, row.key_index, row.factor) for reg in table for row in reg.rows]
    if rows != score.table_rows(inst):
        return "edit: frequency table differs from the reference"
    return None

"""Seeded `.dts` score generation and the reference answers the checks use.

Every score has the same shape: four instruments `v0`..`v3`, each bound
to three harmony levels.  Level 1 has two timelines, `h1a` (followed by
`v0` and `v2`) and `h1b` (followed by `v1` and `v3`), so a re-harmonisation
edit touches some instruments and leaves others alone; levels 2 and 3
(`h2`, `h3`) are shared.  All harmony tones last `TONE_TICKS`, so every
harmony boundary lies on the same grid.  Notes have random onsets and
lengths of 1..960 ticks.

The references are computed here from the generator's own lists, never
from dtseq: a note's factor is its instrument key times the tone key of
each bound harmony at `onset // TONE_TICKS`.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

TONE_TICKS = 480
PPQ = 480
TEMPO = 120.0
BASE = 220.0
ATTACK_SEC = 0.010   # dtseq.RenderSettings defaults, which `dtseq render`
RELEASE_SEC = 0.050  # uses; the sample-count reference depends on them

JUST8 = tuple(Fraction(r) for r in
              ("1/1", "9/8", "5/4", "4/3", "3/2", "5/3", "15/8", "2/1"))

INSTRUMENTS = ("v0", "v1", "v2", "v3")
HARMONIES = (("h1a", 1), ("h1b", 1), ("h2", 2), ("h3", 3))
BINDINGS = {"v0": ("h1a", "h2", "h3"), "v1": ("h1b", "h2", "h3"),
            "v2": ("h1a", "h2", "h3"), "v3": ("h1b", "h2", "h3")}


def seconds(ticks: int) -> float:
    """Tick count to seconds, in the float arithmetic the score format defines."""
    return ticks * 60.0 / (TEMPO * PPQ)


def _odd_primes(count: int) -> list[int]:
    primes: list[int] = []
    n = 3
    while len(primes) < count:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 2
    return primes


def _octave(p: int) -> Fraction:
    f = Fraction(p)
    while f >= 2:
        f /= 2
    return f


def prime_scales() -> dict[str, tuple[Fraction, ...]]:
    """Four 16-key scales over disjoint sets of primes, each key octave-
    reduced, so products of one key from each scale never coincide."""
    primes = _odd_primes(64)
    return {f"pl{i}": tuple(_octave(p) for p in primes[16 * i:16 * (i + 1)])
            for i in range(4)}


@dataclass(frozen=True)
class Shape:
    notes: int
    tones: int           # tones per harmony timeline
    prime_limit: bool    # 16-key prime-limit scales instead of the just scale

    def half(self) -> "Shape":
        return Shape(self.notes // 2, self.tones // 2, self.prime_limit)


@dataclass
class NoteRef:
    instrument: str
    key: int
    start: int
    duration: int
    velocity: int


class Score:
    """One generated score: its `.dts` text and its reference answers.

    `tone_keys` is mutable so that the re-harmonisation loop can apply
    the same edit to the reference as it applies through dtseq.
    """

    def __init__(self, shape: Shape, seed: int, tag: str):
        rng = random.Random(f"{tag}:{seed}:{shape.notes}:{shape.tones}")
        self.length = shape.tones * TONE_TICKS
        if shape.prime_limit:
            self.scales = prime_scales()
            self.inst_scale = "pl0"
            self.harmony_scale = {"h1a": "pl1", "h1b": "pl1", "h2": "pl2", "h3": "pl3"}
        else:
            self.scales = {"just8": JUST8}
            self.inst_scale = "just8"
            self.harmony_scale = {name: "just8" for name, _ in HARMONIES}
        self.tone_keys = {
            name: [rng.randrange(len(self.scales[self.harmony_scale[name]]))
                   for _ in range(shape.tones)]
            for name, _ in HARMONIES}
        n_keys = len(self.scales[self.inst_scale])
        seen = set()
        self.notes: list[NoteRef] = []
        while len(self.notes) < shape.notes:
            duration = rng.randint(1, 960)
            note = (rng.choice(INSTRUMENTS), rng.randrange(n_keys),
                    rng.randint(0, self.length - duration), duration,
                    rng.randint(40, 127))
            if note not in seen:
                seen.add(note)
                self.notes.append(NoteRef(*note))

    # The input the program sees

    def text(self) -> str:
        lines = [f"base {BASE}", f"ppq {PPQ}", f"tempo {TEMPO}", f"length {self.length}", ""]
        for name, keys in self.scales.items():
            lines.append(f"scale {name} " + " ".join(f"{k.numerator}/{k.denominator}"
                                                      for k in keys))
        for name, level in HARMONIES:
            lines.append(f"harmony {name} level {level} scale {self.harmony_scale[name]}")
            lines.extend(f"  tone {k} @ {i * TONE_TICKS} +{TONE_TICKS}"
                         for i, k in enumerate(self.tone_keys[name]))
            lines.append("end")
        for inst in INSTRUMENTS:
            lines.append(f"instrument {inst} scale {self.inst_scale} "
                         f"harmonies {' '.join(BINDINGS[inst])}")
            lines.extend(f"  note {n.key} @ {n.start} +{n.duration} vel {n.velocity}"
                         for n in self.notes if n.instrument == inst)
            lines.append("end")
        return "\n".join(lines) + "\n"

    # Reference answers

    def shift(self, inst: str, region: int) -> Fraction:
        """Product of the bound harmonies' tone keys over one tone region."""
        f = Fraction(1)
        for h in BINDINGS[inst]:
            f *= self.scales[self.harmony_scale[h]][self.tone_keys[h][region]]
        return f

    def factor(self, note: NoteRef) -> Fraction:
        return (self.scales[self.inst_scale][note.key]
                * self.shift(note.instrument, note.start // TONE_TICKS))

    def warnings(self) -> int:
        """Boundary-crossing warnings: one per note and bound harmony whose
        next tone boundary after the onset falls before the note's end."""
        crossing = sum((n.start // TONE_TICKS + 1) * TONE_TICKS < n.start + n.duration
                       for n in self.notes)
        return 3 * crossing

    def event_lines(self) -> Counter:
        """`dtseq resolve` rows as a multiset (their order is checked apart)."""
        out = Counter()
        for n in self.notes:
            f = self.factor(n)
            out[f"{n.instrument}\t{f.numerator}/{f.denominator}\t"
                f"{float(Fraction(BASE) * f):.6g}\t{seconds(n.start):.6g}\t"
                f"{seconds(n.duration):.6g}\t{n.velocity}"] += 1
        return out

    def table_rows(self, inst: str) -> list[tuple[int, int, int, Fraction]]:
        """(start, end, key, factor) of every row of one instrument's table."""
        keys = self.scales[self.inst_scale]
        rows = []
        for region in range(len(self.tone_keys["h2"])):
            s = self.shift(inst, region)
            lo = region * TONE_TICKS
            rows.extend((lo, lo + TONE_TICKS, i, k * s) for i, k in enumerate(keys))
        return rows

    def table_text(self) -> str:
        lines = ["instrument\tticks\tkey\tfactor\tfrequency_hz"]
        for inst in INSTRUMENTS:
            lines.extend(f"{inst}\t[{lo},{hi})\t{i}\t{f.numerator}/{f.denominator}\t"
                         f"{float(Fraction(BASE) * f):.6g}"
                         for lo, hi, i, f in self.table_rows(inst))
        return "\n".join(lines) + "\n"

    def samples(self, rate: int) -> int:
        """Length of the rendered mix, from the documented envelope: each
        event rings for its duration plus a release, and notes shorter than
        attack + release have both squeezed to fit."""
        total = 0
        for n in self.notes:
            start, dur = seconds(n.start), seconds(n.duration)
            release = RELEASE_SEC
            if ATTACK_SEC + RELEASE_SEC > dur:
                release *= dur / (ATTACK_SEC + RELEASE_SEC)
            total = max(total, round(start * rate) + round(dur * rate) + round(release * rate))
        return total

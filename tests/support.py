"""Shared test fixtures: the reference score, a brute-force frequency
oracle, a randomized composition generator and editor, ratios too long
for the interpreter's int-to-string digit limit, and a serialize, parse,
validate and resolve with nothing reused.

The oracle deliberately avoids the library's lookup code: it finds the
active tone of each level by linear scan at every single tick, so any
agreement with the resolver is meaningful.
"""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

from dtseq import (
    Composition,
    HarmonicSequence,
    Instrument,
    InstrumentScore,
    Note,
    Scale,
    TimeInterval,
    TranspositionTone,
)
from dtseq import model, resolve, scorefile

REFERENCE_SCORE = """\
# header
base      440.0            # f0 in Hz
ppq       480              # ticks per beat
tempo     120              # beats per minute
length    1920             # composition length in ticks

scale just-major-7  1/1 9/8 5/4 4/3 3/2 5/3 15/8 2/1
scale fifths        1/1 3/2

harmony H1 level 1 scale fifths
  tone 0 @ 0    +960
  tone 1 @ 960  +960
end

instrument lead scale just-major-7 harmonies H1
  note 0 @ 0    +480  vel 96
  note 2 @ 480  +480  vel 96
  note 4 @ 960  +960  vel 112
end
"""


# Ratios beyond the int-to-string digit limit

def near_one(digits: int) -> str:
    """``(10**digits + 1) / 10**digits`` as score text: a ratio just above 1
    whose parts have ``digits + 1`` digits, written without ``str(int)``."""
    return f"1{'0' * (digits - 1)}1/1{'0' * digits}"


@contextmanager
def int_digit_limit(digits: int):
    """Run the body under ``sys.set_int_max_str_digits(digits)``; 0 lifts
    the limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-string digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def cold_parse(text):
    """``parse`` with no blocks (bodies, events or built objects) kept
    from an earlier call, as in a fresh process: the tagged memo is reset
    to no blocks, which reads the same under any digit limit."""
    scorefile._last_blocks = (0, {})
    return scorefile.parse(text)


def cold_serialize(composition):
    """``serialize`` with no block texts kept from an earlier call, as in
    a fresh process: the tagged memo is reset to no texts, which reads
    the same under any digit limit."""
    scorefile._last_texts = (0, {})
    return scorefile.serialize(composition)


def cold_validate(composition):
    """``validate_composition`` with nothing kept from an earlier call of
    it or of the resolver, as in a fresh process: no findings, timelines
    or range verdict kept, and no resolver memo."""
    model._last_findings, model._last_harmonies, model._last_range = {}, {}, None
    resolve._the_memo = resolve._Memo()
    return model.validate_composition(composition)


def cold_resolve(call, composition, *args):
    """``call(composition, *args)``, a function of :mod:`dtseq.resolve`,
    with nothing kept from an earlier resolver call (no sweeps, events or
    tables), as in a fresh process."""
    resolve._the_memo = resolve._Memo()
    return call(composition, *args)


def outcome(result):
    """A parse result to compare: the Composition, or each error's
    ``(line, column, kind, message)``."""
    if isinstance(result, Composition):
        return result
    return [(e.position.line, e.position.column, e.kind, e.message) for e in result]


# Brute-force oracle

def per_tick_level_factors(composition: Composition,
                           harmony: HarmonicSequence) -> list[Fraction]:
    """The harmony's factor at every tick of the piece, by linear scan."""
    keys = composition.scales[harmony.scale_name].keys
    factors = []
    for t in range(composition.length_ticks):
        hit = None
        for tone in harmony.tones:
            if tone.interval.start <= t < tone.interval.start + tone.interval.duration:
                hit = tone
                break
        assert hit is not None, f"tick {t} uncovered in {harmony.name}"
        factors.append(keys[hit.key_index])
    return factors


def oracle_note_factor(composition: Composition, instrument: Instrument,
                       note: Note,
                       level_factors: dict[str, list[Fraction]]) -> Fraction:
    """Expected cumulative factor for one note, from per-tick tables."""
    factor = composition.scales[instrument.scale_name].keys[note.key_index]
    for name in instrument.harmony_names:
        factor *= level_factors[name][note.interval.start]
    return factor


def all_level_factors(composition: Composition) -> dict[str, list[Fraction]]:
    return {
        name: per_tick_level_factors(composition, harmony)
        for name, harmony in composition.harmonies.items()
    }


# Randomized composition generator

RATIO_POOL = [
    (1, 1), (2, 1), (1, 2), (3, 2), (2, 3), (4, 3), (5, 4), (6, 5),
    (9, 8), (5, 3), (15, 8), (8, 5), (5, 6), (7, 4), (16, 9), (9, 4),
]


def random_scale(rng: random.Random, name: str) -> Scale:
    pairs = rng.sample(RATIO_POOL, rng.randint(1, 6))
    return Scale(name, [Fraction(a, b) for a, b in pairs])


def random_timeline(rng: random.Random, length: int,
                    scale_size: int) -> list[TranspositionTone]:
    """A valid spanning, contiguous, non-overlapping tone list."""
    count = rng.randint(1, min(length, 8))
    cuts = sorted(rng.sample(range(1, length), count - 1)) if count > 1 else []
    edges = [0, *cuts, length]
    return [
        TranspositionTone(rng.randrange(scale_size), TimeInterval(lo, hi - lo))
        for lo, hi in zip(edges, edges[1:])
    ]


def random_composition(rng: random.Random, *, max_instruments: int = 4,
                       max_harmonic_levels: int = 2, max_ticks: int = 10_000,
                       max_notes: int = 10, min_instruments: int = 0,
                       min_notes: int = 0, min_harmonic_levels: int = 0) -> Composition:
    """A structurally valid composition of bounded size.

    ``max_harmonic_levels`` counts transposition levels, so 2 means up to
    a level-3 piece (score plus two stacked harmonies).  Everything the
    validator checks holds by construction; boundary-crossing notes can
    and do occur.
    """
    # skew lengths small so per-tick oracles stay fast, but cover the
    # full range up to max_ticks
    small, medium = min(100, max_ticks), min(1200, max_ticks)
    bucket = rng.randrange(3)
    if bucket == 0:
        length = rng.randint(1, small)
    elif bucket == 1:
        length = rng.randint(small, medium)
    else:
        length = rng.randint(medium, max_ticks)

    scales = [random_scale(rng, f"s{i}") for i in range(rng.randint(1, 3))]
    by_name = {s.name: s for s in scales}
    scale_names = [s.name for s in scales]

    levels = rng.randint(min_harmonic_levels, max_harmonic_levels)
    harmonies = []
    alternatives: dict[int, list[str]] = {}
    for level in range(1, levels + 1):
        alternatives[level] = []
        for tag in "ab"[: rng.randint(1, 2)]:
            name = f"h{level}{tag}"
            scale_name = rng.choice(scale_names)
            tones = random_timeline(rng, length, len(by_name[scale_name]))
            harmonies.append(HarmonicSequence(name, level, scale_name, tones))
            alternatives[level].append(name)

    instruments = []
    for i in range(rng.randint(min_instruments, max_instruments)):
        scale_name = rng.choice(scale_names)
        depth = rng.randint(0, levels)
        bound = [rng.choice(alternatives[level]) for level in range(1, depth + 1)]
        notes = []
        for _ in range(rng.randint(min_notes, max_notes)):
            start = rng.randrange(length)
            duration = rng.randint(1, length - start)
            notes.append(Note(rng.randrange(len(by_name[scale_name])),
                              TimeInterval(start, duration),
                              rng.randint(1, 127)))
        instruments.append(Instrument(f"inst{i}", scale_name, bound,
                                      InstrumentScore(notes)))

    return Composition(
        base_frequency_hz=rng.choice([220.0, 261.63, 432.0, 440.0]),
        ticks_per_beat=rng.choice([96, 240, 480]),
        tempo_bpm=rng.choice([60.0, 90.0, 120.0, 140.0]),
        length_ticks=length,
        scales=by_name,
        harmonies=harmonies,
        instruments=instruments,
    )


def scaled_tone_composition(composition: Composition, harmony_name: str,
                            tone_index: int, r: Fraction) -> Composition:
    """A copy where one transposition tone's effective ratio is times ``r``.

    Implemented by pointing the tone at a key equal to old * r, appending
    that key to the harmony's scale when it is not already present.
    """
    harmony = composition.harmonies[harmony_name]
    scale = composition.scales[harmony.scale_name]
    target = harmony.tones[tone_index]
    new_key = scale.keys[target.key_index] * r

    if new_key in scale.keys:
        new_index = scale.keys.index(new_key)
        new_scales = dict(composition.scales)
    else:
        new_index = len(scale.keys)
        new_scales = dict(composition.scales)
        new_scales[scale.name] = Scale(scale.name, scale.keys + (new_key,))

    new_tones = list(harmony.tones)
    new_tones[tone_index] = TranspositionTone(new_index, target.interval)
    new_harmonies = dict(composition.harmonies)
    new_harmonies[harmony_name] = HarmonicSequence(
        harmony.name, harmony.level, harmony.scale_name, new_tones)

    return Composition(
        base_frequency_hz=composition.base_frequency_hz,
        ticks_per_beat=composition.ticks_per_beat,
        tempo_bpm=composition.tempo_bpm,
        length_ticks=composition.length_ticks,
        scales=new_scales,
        harmonies=new_harmonies,
        instruments=composition.instruments,
    )


def broken_composition(rng: random.Random, composition: Composition) -> Composition:
    """A copy of ``composition`` with one to three random defects.

    Defects: a harmony timeline with a moved, dropped, stretched or
    reordered tone or an out-of-scale tone key; a harmony, scale or
    binding that names nothing; a note past the end or outside its scale.
    """
    harmonies = dict(composition.harmonies)
    instruments = list(composition.instruments)
    length = composition.length_ticks
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(5)
        if kind <= 1 and harmonies:
            name = rng.choice(sorted(harmonies))
            h = harmonies[name]
            tones = list(h.tones)
            i = rng.randrange(len(tones))
            key, span = tones[i].key_index, tones[i].interval
            op = rng.randrange(6)
            if op == 0:
                span = TimeInterval(max(0, span.start + rng.randint(-40, 40)), span.duration)
            elif op == 1:
                span = TimeInterval(span.start, span.duration + rng.randint(1, 40))
            elif op == 2:  # h's scale may already be renamed to "nosuch" (op 5)
                scale = composition.scales[composition.harmonies[name].scale_name]
                key = len(scale) + rng.randrange(3)
            tones[i] = TranspositionTone(key, span)
            if op == 3 and len(tones) > 1:
                del tones[i]
            elif op == 4:
                rng.shuffle(tones)
            scale_name = "nosuch" if op == 5 else h.scale_name
            harmonies[name] = HarmonicSequence(h.name, h.level, scale_name, tones)
        elif kind == 2 and harmonies:
            del harmonies[rng.choice(sorted(harmonies))]
        elif instruments:
            j = rng.randrange(len(instruments))
            inst = instruments[j]
            scale_name, names, notes = inst.scale_name, list(inst.harmony_names), list(inst.score)
            op = rng.randrange(3) if kind == 3 else 3
            if op == 0:
                scale_name = "nosuch"
            elif op == 1:
                names.insert(rng.randint(0, len(names)), "nosuch")
            elif op == 2 and names:
                del names[rng.randrange(len(names))]
            else:
                start = rng.randrange(length + 20)
                key = rng.randrange(8)
                notes.append(Note(key, TimeInterval(start, rng.randint(1, 60))))
            instruments[j] = Instrument(inst.name, scale_name, names, notes)
    return Composition(
        composition.base_frequency_hz, composition.ticks_per_beat,
        composition.tempo_bpm, length, composition.scales, harmonies, instruments)


EDITS = ("tone key", "tone timing", "add note", "drop note", "move note", "scale key",
         "base", "tempo", "ppq", "length", "rename instrument", "duplicate name",
         "instrument scale", "rename scale", "rename harmony", "rebind", "split tone")


def edited_composition(rng: random.Random, composition: Composition, edit: str) -> Composition:
    """A copy of ``composition`` with one edit of the kind ``edit`` (one of
    :data:`EDITS`), which may break it; every object the edit does not
    touch is shared.  Unchanged when the composition has nothing to edit."""
    base, ppq, tempo = (composition.base_frequency_hz, composition.ticks_per_beat,
                        composition.tempo_bpm)
    length = composition.length_ticks
    scales, harmonies = dict(composition.scales), dict(composition.harmonies)
    instruments = list(composition.instruments)
    if edit in ("tone key", "tone timing", "split tone") and harmonies:
        h = harmonies[rng.choice(sorted(harmonies))]
        tones = list(h.tones)
        i = rng.randrange(len(tones))
        key, span = tones[i].key_index, tones[i].interval
        if edit == "split tone":  # into two at a cut, or dropped when the cut is its start
            cut = rng.randrange(span.start, span.end)
            tones[i:i + 1] = [TranspositionTone(key, TimeInterval(span.start, cut - span.start)),
                              TranspositionTone(key, TimeInterval(cut, span.end - cut))
                              ] if cut > span.start else []
        elif edit == "tone key":
            key = rng.randrange(len(scales[h.scale_name]) + 1 if h.scale_name in scales else 4)
        elif i + 1 < len(tones) and rng.random() < 0.5:  # move a cut, keeping the timeline
            nxt = tones[i + 1].interval
            if nxt.end - span.start > 1:
                cut = rng.randrange(span.start + 1, nxt.end)
                span = TimeInterval(span.start, cut - span.start)
                tones[i + 1] = TranspositionTone(tones[i + 1].key_index,
                                                 TimeInterval(cut, nxt.end - cut))
        else:
            span = TimeInterval(max(0, span.start + rng.randint(-30, 30)),
                                max(1, span.duration + rng.randint(-30, 30)))
        if edit != "split tone":
            tones[i] = TranspositionTone(key, span)
        harmonies[h.name] = HarmonicSequence(h.name, h.level, h.scale_name, tones)
    elif edit.endswith(" note") and instruments:
        j = rng.randrange(len(instruments))
        inst = instruments[j]
        notes = list(inst.score)
        if notes and edit != "add note":
            note = notes.pop(rng.randrange(len(notes)))
            if edit == "move note":
                start = rng.randrange(length)
                notes.append(Note(note.key_index,
                                  TimeInterval(start, rng.randint(1, length - start + 20)),
                                  note.velocity))
        elif edit == "add note":
            start = rng.randrange(length + 10)
            notes.append(Note(rng.randrange(7), TimeInterval(start, rng.randint(1, 60))))
        instruments[j] = Instrument(inst.name, inst.scale_name, inst.harmony_names, notes)
    elif edit == "scale key":
        scale = scales[rng.choice(sorted(scales))]
        keys = list(scale.keys)
        spare = [Fraction(a, b) for a, b in RATIO_POOL + [(11, 8), (13, 8), (7, 6)]
                 if Fraction(a, b) not in keys]
        op = rng.randrange(3)
        if op == 0:
            keys[rng.randrange(len(keys))] = rng.choice(spare)
        elif op == 1:
            keys.append(rng.choice(spare))
        elif len(keys) > 1:
            del keys[rng.randrange(len(keys))]
        scales[scale.name] = Scale(scale.name, keys)
    elif edit == "base":
        base = rng.choice([b for b in (110.0, 220.0, 261.63, 432.0, 440.0, 1e-320) if b != base])
    elif edit == "tempo":
        tempo = rng.choice([t for t in (60.0, 90.0, 120.0, 140.0, 1e308) if t != tempo])
    elif edit == "ppq":
        ppq = rng.choice([q for q in (96, 240, 480, 960) if q != ppq])
    elif edit == "length":
        length = max(1, length + rng.choice([-1, 1]) * rng.randint(1, max(1, length // 2)))
    elif edit in ("rename instrument", "duplicate name", "instrument scale") and instruments:
        j = rng.randrange(len(instruments))
        inst = instruments[j]
        name, scale_name = inst.name, inst.scale_name
        if edit == "rename instrument":
            name = f"{name}x"
        elif edit == "duplicate name":
            name = rng.choice(instruments).name
        else:
            scale_name = rng.choice(sorted(scales) + ["nosuch"])
        instruments[j] = Instrument(name, scale_name, inst.harmony_names, inst.score)
    elif edit == "rename scale":
        old = rng.choice(sorted(scales))
        new = f"{old}x"
        scales = {(new if k == old else k): (Scale(new, v.keys) if k == old else v)
                  for k, v in scales.items()}
        harmonies = {k: (HarmonicSequence(k, h.level, new, h.tones) if h.scale_name == old else h)
                     for k, h in harmonies.items()}
        instruments = [Instrument(i.name, new, i.harmony_names, i.score)
                       if i.scale_name == old else i for i in instruments]
    elif edit == "rebind" and instruments:  # another instrument's binding, or one level less
        j = rng.randrange(len(instruments))
        inst = instruments[j]
        others = sorted({i.harmony_names for i in instruments} - {inst.harmony_names})
        names = rng.choice(others) if others and rng.random() < 0.5 else inst.harmony_names[:-1]
        instruments[j] = Instrument(inst.name, inst.scale_name, names, inst.score)
    elif edit == "rename harmony" and harmonies:
        old = rng.choice(sorted(harmonies))
        new = f"{old}x"
        harmonies = {(new if k == old else k):
                     (HarmonicSequence(new, h.level, h.scale_name, h.tones) if k == old else h)
                     for k, h in harmonies.items()}
        instruments = [Instrument(i.name, i.scale_name,
                                  [new if n == old else n for n in i.harmony_names], i.score)
                       if old in i.harmony_names else i for i in instruments]
    return Composition(base, ppq, tempo, length, scales, harmonies, instruments)


def edit_pairs(seed: int, count: int):
    """``count`` triples ``(a, b, edit)``: a random composition ``a``, every
    other one broken, and ``b``, ``a`` after one edit, taking each kind of
    :data:`EDITS` in turn."""
    rng = random.Random(seed)
    for n in range(count):
        a = random_composition(rng, max_ticks=2000, max_notes=12, min_instruments=1)
        if n % 2:
            a = broken_composition(rng, a)
        edit = EDITS[n % len(EDITS)]
        yield a, edited_composition(rng, a, edit), edit

import gc
import random
import sys
import threading
import tracemalloc
import types
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtseq import (
    Composition,
    HarmonicSequence,
    Instrument,
    InstrumentScore,
    Note,
    ResolutionError,
    ResolvedEvent,
    Scale,
    TableRegion,
    TableRow,
    TimeInterval,
    TranspositionTone,
    frequency_table,
    parse,
    resolve_composition,
    resolve_note,
    validate_composition,
)
from dtseq import resolve as resolve_module
from dtseq.rational import ratio_text
from dtseq.resolve import _frequency, export_table
from support import (
    EDITS,
    REFERENCE_SCORE,
    all_level_factors,
    broken_composition,
    cold_resolve,
    cold_validate,
    edit_pairs,
    edited_composition,
    oracle_note_factor,
    random_composition,
    scaled_tone_composition,
)


def spanning(key, length):
    return [TranspositionTone(key, TimeInterval(0, length))]


def level3_composition():
    """One note under two stacked single-tone harmonies: 5/4 * 3/2 * 2."""
    return Composition(
        440.0, 480, 120.0, 960,
        scales=[Scale("inst", ["1/1", "5/4"]),
                Scale("trans", ["1/1", "3/2", "2/1"])],
        harmonies=[HarmonicSequence("H1", 1, "trans", spanning(1, 960)),
                   HarmonicSequence("H2", 2, "trans", spanning(2, 960))],
        instruments=[Instrument("lead", "inst", ["H1", "H2"],
                                [Note(1, TimeInterval(0, 960))])],
    )


class TestResolveNote:
    def test_level3_product(self):
        comp = level3_composition()
        event = resolve_note(comp, comp.instruments[0], comp.instruments[0].score.notes[0])
        assert event.factor == Fraction(15, 4)
        assert event.frequency_hz == 1650.0

    def test_level1_identity(self):
        comp = Composition(
            440.0, 480, 120.0, 960,
            scales=[Scale("inst", ["1/1"])],
            instruments=[Instrument("solo", "inst", [],
                                    [Note(0, TimeInterval(0, 480))])],
        )
        event = resolve_note(comp, comp.instruments[0], comp.instruments[0].score.notes[0])
        assert event.factor == Fraction(1)
        assert event.frequency_hz == 440.0

    def test_minor_third_under_fifth(self):
        comp = Composition(
            440.0, 480, 120.0, 960,
            scales=[Scale("inst", ["6/5"]), Scale("trans", ["3/2"])],
            harmonies=[HarmonicSequence("H1", 1, "trans", spanning(0, 960))],
            instruments=[Instrument("alto", "inst", ["H1"],
                                    [Note(0, TimeInterval(0, 480))])],
        )
        event = resolve_note(comp, comp.instruments[0], comp.instruments[0].score.notes[0])
        assert event.factor == Fraction(9, 5)
        assert event.frequency_hz == 792.0

    def test_timing_uses_tempo_and_ppq(self):
        comp = level3_composition()
        event = resolve_note(comp, comp.instruments[0], comp.instruments[0].score.notes[0])
        assert event.start_sec == 0.0
        assert event.duration_sec == pytest.approx(960 * 60 / (120 * 480))

    def test_error_names_failing_level(self):
        comp = level3_composition()
        inst = comp.instruments[0]
        bad_key = Note(7, TimeInterval(0, 480))
        with pytest.raises(ResolutionError) as exc:
            resolve_note(comp, inst, bad_key)
        assert exc.value.level == 0

        orphan = Instrument("x", "inst", ["nope"], [])
        with pytest.raises(ResolutionError) as exc:
            resolve_note(comp, orphan, Note(0, TimeInterval(0, 480)))
        assert exc.value.level == 1

    def test_onset_outside_harmony_span(self):
        comp = Composition(
            440.0, 480, 120.0, 960,
            scales=[Scale("inst", ["1/1"]), Scale("trans", ["3/2"])],
            harmonies=[HarmonicSequence("H1", 1, "trans",
                                        [TranspositionTone(0, TimeInterval(0, 480))])],
            instruments=[Instrument("i", "inst", ["H1"], [])],
        )
        late = Note(0, TimeInterval(700, 100))
        with pytest.raises(ResolutionError) as exc:
            resolve_note(comp, comp.instruments[0], late)
        assert exc.value.level == 1


class TestResolveComposition:
    def test_one_event_per_note(self):
        rng = random.Random(7)
        comp = random_composition(rng, min_instruments=2, max_instruments=2,
                                  min_notes=3, max_notes=3, max_ticks=400)
        assert len(resolve_composition(comp)) == sum(
            len(i.score.notes) for i in comp.instruments)

    def test_empty_scores_give_empty_list(self):
        comp = Composition(440.0, 480, 120.0, 960,
                           scales=[Scale("t", ["1/1"])],
                           instruments=[Instrument("i", "t", [], [])])
        assert resolve_composition(comp) == []

    def test_reference_example_against_oracle(self):
        comp = parse(REFERENCE_SCORE)
        assert isinstance(comp, Composition)
        factors = all_level_factors(comp)
        events = resolve_composition(comp)
        expected = sorted(
            oracle_note_factor(comp, inst, note, factors)
            for inst in comp.instruments for note in inst.score.notes)
        assert sorted(e.factor for e in events) == expected
        assert [e.frequency_hz for e in events] == [440.0, 550.0, 990.0]

    def test_oracle_agreement_randomized(self):
        rng = random.Random(101)
        for _ in range(25):
            comp = random_composition(rng, max_ticks=600,
                                      min_instruments=1, min_notes=1)
            factors = all_level_factors(comp)
            for inst in comp.instruments:
                for note in inst.score.notes:
                    expected = oracle_note_factor(comp, inst, note, factors)
                    assert resolve_note(comp, inst, note).factor == expected

    def test_note_order_independence(self):
        rng = random.Random(23)
        comp = random_composition(rng, min_instruments=1, min_notes=4, max_ticks=500)
        inst = comp.instruments[0]
        shuffled_notes = list(inst.score.notes)
        rng.shuffle(shuffled_notes)
        shuffled = Composition(
            comp.base_frequency_hz, comp.ticks_per_beat, comp.tempo_bpm,
            comp.length_ticks, comp.scales, comp.harmonies,
            [Instrument(i.name, i.scale_name, i.harmony_names,
                        InstrumentScore(shuffled_notes) if i is inst else i.score)
             for i in comp.instruments])
        assert resolve_composition(shuffled) == resolve_composition(comp)

    def test_output_is_deterministic(self):
        comp = parse(REFERENCE_SCORE)
        assert resolve_composition(comp) == resolve_composition(comp)

    def test_errors_carry_note_path(self):
        comp = Composition(
            440.0, 480, 120.0, 960,
            scales=[Scale("t", ["1/1"])],
            instruments=[Instrument("i", "t", [],
                                    [Note(0, TimeInterval(0, 480)),
                                     Note(5, TimeInterval(480, 480))])],
        )
        with pytest.raises(ResolutionError) as exc:
            resolve_composition(comp)
        assert "note 1" in str(exc.value)
        assert exc.value.level == 0

    def test_all_unit_tones_collapse_to_level1(self):
        length = 960
        scales = [Scale("inst", ["1/1", "5/4", "3/2"]), Scale("unit", ["1/1"])]
        notes = [Note(0, TimeInterval(0, 480)), Note(2, TimeInterval(480, 480), 70)]
        stacked = Composition(
            440.0, 480, 120.0, length, scales,
            harmonies=[
                HarmonicSequence("H1", 1, "unit",
                                 [TranspositionTone(0, TimeInterval(0, 500)),
                                  TranspositionTone(0, TimeInterval(500, 460))]),
                HarmonicSequence("H2", 2, "unit", spanning(0, length)),
            ],
            instruments=[Instrument("i", "inst", ["H1", "H2"], notes)])
        flat = Composition(440.0, 480, 120.0, length, scales,
                           instruments=[Instrument("i", "inst", [], notes)])
        assert resolve_composition(stacked) == resolve_composition(flat)

    def test_exactness_identical_context_identical_factors(self):
        comp = level3_composition()
        inst = comp.instruments[0]
        a = resolve_note(comp, inst, Note(1, TimeInterval(0, 100)))
        b = resolve_note(comp, inst, Note(1, TimeInterval(100, 700), 50))
        assert a.factor == b.factor
        assert a.frequency_hz == b.frequency_hz

    def test_transposition_invariance_small(self):
        rng = random.Random(31)
        hits = 0
        for _ in range(20):
            comp = random_composition(rng, min_harmonic_levels=1,
                                      min_instruments=1, min_notes=2, max_ticks=400)
            hname = rng.choice(sorted(comp.harmonies))
            index = rng.randrange(len(comp.harmonies[hname].tones))
            r = Fraction(*rng.choice([(3, 2), (2, 3), (9, 8), (2, 1), (1, 2)]))
            scaled = scaled_tone_composition(comp, hname, index, r)
            span = comp.harmonies[hname].tones[index].interval
            for inst, inst2 in zip(comp.instruments, scaled.instruments):
                for note in inst.score.notes:
                    before = resolve_note(comp, inst, note)
                    after = resolve_note(scaled, inst2, note)
                    if hname in inst.harmony_names and span.contains(note.interval.start):
                        hits += 1
                        assert after.factor == before.factor * r
                    else:
                        assert after == before
        assert hits > 0


class TestFrequencyTable:
    def test_single_tone_harmony_triad(self):
        comp = Composition(
            440.0, 480, 120.0, 960,
            scales=[Scale("triad", ["1/1", "5/4", "3/2"]), Scale("t", ["1/1"])],
            harmonies=[HarmonicSequence("H1", 1, "t", spanning(0, 960))],
            instruments=[Instrument("i", "triad", ["H1"], [])])
        regions = frequency_table(comp, "i")
        assert len(regions) == 1
        assert len(regions[0].rows) == 3
        assert (regions[0].start, regions[0].end) == (0, 960)

    def test_two_tone_harmony_shifts_key(self):
        comp = Composition(
            440.0, 480, 120.0, 960,
            scales=[Scale("inst", ["5/4"]), Scale("t", ["1/1", "3/2"])],
            harmonies=[HarmonicSequence("H1", 1, "t",
                                        [TranspositionTone(0, TimeInterval(0, 480)),
                                         TranspositionTone(1, TimeInterval(480, 480))])],
            instruments=[Instrument("i", "inst", ["H1"], [])])
        regions = frequency_table(comp, "i")
        assert [r.rows[0].frequency_hz for r in regions] == [550.0, 825.0]

    def test_region_count_matches_boundary_refinement(self):
        rng = random.Random(5)
        for _ in range(20):
            comp = random_composition(rng, min_harmonic_levels=1,
                                      min_instruments=1, max_ticks=300)
            inst = comp.instruments[0]
            bounds = {0, comp.length_ticks}
            for name in inst.harmony_names:
                for t in comp.harmonies[name].tones:
                    bounds.update((t.interval.start, t.interval.end))
            assert len(frequency_table(comp, inst.name)) == len(bounds) - 1

    def test_unknown_instrument(self):
        comp = level3_composition()
        with pytest.raises(KeyError):
            frequency_table(comp, "missing")

    def test_reference_example_regions(self):
        comp = parse(REFERENCE_SCORE)
        assert validate_composition(comp) == []
        regions = frequency_table(comp, "lead")
        assert len(regions) == 2
        assert all(len(r.rows) == 8 for r in regions)


# References: resolution one note and one level at a time, and the table
# recomputed region by region, as the resolver did before region shifts.

def reference_resolve_note(composition, instrument, note):
    onset = note.interval.start
    scale = composition.scales.get(instrument.scale_name)
    if scale is None:
        raise ResolutionError(
            f"instrument {instrument.name!r}: unknown scale {instrument.scale_name!r}",
            instrument=instrument.name, level=0)
    if note.key_index >= len(scale):
        raise ResolutionError(
            f"instrument {instrument.name!r}: key index {note.key_index} outside "
            f"scale {scale.name!r} of {len(scale)} keys",
            instrument=instrument.name, level=0)
    factor = scale.keys[note.key_index]
    for level, harmony_name in enumerate(instrument.harmony_names, start=1):
        harmony = composition.harmonies.get(harmony_name)
        if harmony is None:
            raise ResolutionError(
                f"instrument {instrument.name!r} level {level}: "
                f"unknown harmony {harmony_name!r}",
                instrument=instrument.name, level=level)
        hscale = composition.scales.get(harmony.scale_name)
        if hscale is None:
            raise ResolutionError(
                f"instrument {instrument.name!r} level {level}: harmony "
                f"{harmony_name!r} uses unknown scale {harmony.scale_name!r}",
                instrument=instrument.name, level=level)
        try:
            tone = harmony.tone_at(onset)
        except ValueError as exc:
            raise ResolutionError(
                f"instrument {instrument.name!r} level {level}: {exc}",
                instrument=instrument.name, level=level) from exc
        if tone.key_index >= len(hscale):
            raise ResolutionError(
                f"instrument {instrument.name!r} level {level}: tone key index "
                f"{tone.key_index} outside scale {hscale.name!r}",
                instrument=instrument.name, level=level)
        factor *= hscale.keys[tone.key_index]
    return ResolvedEvent(
        instrument=instrument.name,
        factor=factor,
        frequency_hz=float(Fraction(composition.base_frequency_hz) * factor),
        start_sec=composition.seconds(onset),
        duration_sec=composition.seconds(note.interval.duration),
        velocity=note.velocity,
    )


def per_note_resolve(composition, resolve_one):
    events = []
    for inst in composition.instruments:
        for i, note in enumerate(inst.score.normalized().notes):
            try:
                events.append(resolve_one(composition, inst, note))
            except ResolutionError as exc:
                raise ResolutionError(
                    f"note {i} of {exc}", instrument=exc.instrument,
                    level=exc.level) from exc
    events.sort(key=lambda e: (e.start_sec, e.instrument, e.frequency_hz, e.velocity))
    return events


def per_region_table(composition, instrument_name):
    inst = composition.instrument(instrument_name)
    scale = composition.scales[inst.scale_name]
    harmonies = [composition.harmonies[name] for name in inst.harmony_names]
    bounds = {0, composition.length_ticks}
    for harmony in harmonies:
        for t in harmony.tones:
            bounds.add(t.interval.start)
            bounds.add(t.interval.end)
    ticks = sorted(b for b in bounds if 0 <= b <= composition.length_ticks)
    base = Fraction(composition.base_frequency_hz)
    regions = []
    for lo, hi in zip(ticks, ticks[1:]):
        shift = Fraction(1)
        for harmony in harmonies:
            hscale = composition.scales[harmony.scale_name]
            shift *= hscale.keys[harmony.tone_at(lo).key_index]
        rows = tuple(TableRow(i, key * shift, float(base * key * shift))
                     for i, key in enumerate(scale.keys))
        regions.append(TableRegion(lo, hi, rows))
    return regions


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the message and level of the
    ResolutionError it raises."""
    try:
        return fn(*args)
    except ResolutionError as exc:
        return ("error", str(exc), exc.instrument, exc.level)


def per_region_shifts(composition, harmony_names, starts):
    """The shift at each of ``starts`` under ``harmony_names``, recomputed
    level by level through ``tone_at``; None where some level has no tone."""
    shifts = []
    for tick in starts:
        shift = Fraction(1)
        for name in harmony_names:
            try:
                harmony = composition.harmonies[name]
                shift *= composition.scales[harmony.scale_name].keys[
                    harmony.tone_at(tick).key_index]
            except (KeyError, IndexError, ValueError):
                shift = None
                break
        shifts.append(shift)
    return shifts


class TestRegionShiftEquivalence:
    def compositions(self, seed, count=120):
        """``count`` compositions of up to 3 harmony levels, then half as
        many of 4 to 8, each level cut on ticks of its own; every other
        one is broken."""
        rng = random.Random(seed)
        for n in range(count + count // 2):
            deep = n >= count
            comp = random_composition(rng, max_ticks=1500, max_notes=20,
                                      max_harmonic_levels=8 if deep else 3,
                                      min_harmonic_levels=4 if deep else 0, min_instruments=1)
            yield (broken_composition(rng, comp) if n % 2 else comp), bool(n % 2)

    def test_resolve_composition_equals_per_note_resolution(self):
        errors = 0
        for comp, _ in self.compositions(61):
            expected = outcome(per_note_resolve, comp, reference_resolve_note)
            assert outcome(resolve_composition, comp) == expected
            assert outcome(per_note_resolve, comp, resolve_note) == expected
            errors += isinstance(expected, tuple)
        assert errors > 30

    def test_resolve_note_equals_reference_on_every_note(self):
        for comp, _ in self.compositions(62, 60):
            for inst in comp.instruments:
                for note in inst.score.notes:
                    assert (outcome(resolve_note, comp, inst, note)
                            == outcome(reference_resolve_note, comp, inst, note))

    def test_frequency_table_equals_per_region_recompute(self):
        tabled = 0
        for comp, broken in self.compositions(63):
            for inst in comp.instruments:
                try:
                    expected = per_region_table(comp, inst.name)
                except (KeyError, IndexError, ValueError):
                    assert broken
                    continue
                assert frequency_table(comp, inst.name) == expected
                tabled += broken
        assert tabled > 30

    def test_equal_shifts_share_rows(self):
        comp = Composition(
            440.0, 480, 120.0, 960,
            scales=[Scale("inst", ["1/1", "5/4"]), Scale("t", ["1/1", "3/2"])],
            harmonies=[HarmonicSequence("H1", 1, "t", [
                TranspositionTone(k, TimeInterval(i * 240, 240))
                for i, k in enumerate([0, 1, 0, 1])])],
            instruments=[Instrument("i", "inst", ["H1"], [])])
        regions = frequency_table(comp, "i")
        assert regions[0].rows is regions[2].rows
        assert regions[1].rows is regions[3].rows
        assert regions[0].rows != regions[1].rows

    def test_regions_equal_per_region_recompute(self):
        gaps = 0
        for comp, _ in self.compositions(66):
            for names in {inst.harmony_names for inst in comp.instruments}:
                starts, ids, shifts = resolve_module._regions(comp, names)
                assert starts == sorted({0, comp.length_ticks, *(
                    tick for name in names if name in comp.harmonies
                    for tone in comp.harmonies[name].tones
                    for tick in (tone.interval.start, tone.interval.end))})
                assert len(set(shifts)) == len(shifts)
                assert [None if i is None else shifts[i] for i in ids] == \
                    per_region_shifts(comp, names, starts)
                gaps += None in ids[:-1]
        assert gaps > 10

    def test_equal_shifts_from_different_keys_share_an_id_and_rows(self):
        """9/8 * 4/3 in one region and 3/2 * 1/1 in the next are one shift."""
        comp = Composition(
            440.0, 480, 120.0, 960,
            scales=[Scale("inst", ["1/1", "5/4"]), Scale("t", ["1/1", "9/8", "4/3", "3/2"])],
            harmonies=[HarmonicSequence("H1", 1, "t", [
                           TranspositionTone(1, TimeInterval(0, 480)),
                           TranspositionTone(3, TimeInterval(480, 480))]),
                       HarmonicSequence("H2", 2, "t", [
                           TranspositionTone(2, TimeInterval(0, 480)),
                           TranspositionTone(0, TimeInterval(480, 480))])],
            instruments=[Instrument("i", "inst", ["H1", "H2"], [])])
        assert resolve_module._regions(comp, ("H1", "H2")) == \
            ([0, 480, 960], [0, 0, None], [Fraction(3, 2)])
        first, second = frequency_table(comp, "i")
        assert first.rows is second.rows
        assert [row.factor for row in first.rows] == [Fraction(3, 2), Fraction(15, 8)]

    def test_note_in_timeline_gap_raises(self):
        comp = Composition(
            440.0, 480, 120.0, 960,
            scales=[Scale("inst", ["1/1"]), Scale("t", ["3/2"])],
            harmonies=[HarmonicSequence("H1", 1, "t", [
                TranspositionTone(0, TimeInterval(0, 400)),
                TranspositionTone(0, TimeInterval(500, 460))])],
            instruments=[Instrument("i", "inst", ["H1"],
                                    [Note(0, TimeInterval(0, 100)),
                                     Note(0, TimeInterval(450, 10))])])
        with pytest.raises(ResolutionError) as exc:
            resolve_composition(comp)
        assert exc.value.level == 1
        assert str(exc.value).startswith("note 1 of instrument 'i' level 1:")


def test_tone_key_one_past_its_scale_is_an_error_not_a_shift():
    comp = Composition(
        440.0, 480, 120.0, 960,
        scales=[Scale("inst", ["1/1"]), Scale("t", ["1/1", "3/2"])],
        harmonies=[HarmonicSequence("H1", 1, "t", [
            TranspositionTone(1, TimeInterval(0, 480)),
            TranspositionTone(2, TimeInterval(480, 480))])],
        instruments=[Instrument("i", "inst", ["H1"],
                                [Note(0, TimeInterval(0, 100)),
                                 Note(0, TimeInterval(600, 10))])])
    expected = outcome(per_note_resolve, comp, reference_resolve_note)
    assert expected == ("error", "note 1 of instrument 'i' level 1: tone key index 2 "
                                 "outside scale 't'", "i", 1)
    assert outcome(resolve_composition, comp) == expected
    with pytest.raises(ResolutionError, match="level 1: tone key index 2 outside"):
        frequency_table(comp, "i")


def level_probe(levels):
    """``levels`` harmonies of 10 tones each, whose inner boundaries fall on
    ticks of their own, all followed by one instrument of 100 notes."""
    rng = random.Random(levels)
    stride = levels + 10
    length = 10 * stride
    harmonies = []
    for level in range(1, levels + 1):
        edges = [0, *(i * stride + level for i in range(1, 10)), length]
        harmonies.append(HarmonicSequence(f"h{level}", level, "ten", [
            TranspositionTone(rng.randrange(10), TimeInterval(lo, hi - lo))
            for lo, hi in zip(edges, edges[1:])]))
    notes = [Note(rng.randrange(10), TimeInterval(rng.randrange(length), 1))
             for _ in range(100)]
    return Composition(
        440.0, 480, 120.0, length,
        scales=[Scale("ten", ["1/1", "16/15", "9/8", "6/5", "5/4", "4/3", "3/2", "8/5",
                              "5/3", "15/8"])],
        harmonies=harmonies,
        instruments=[Instrument("v", "ten", [h.name for h in harmonies], notes)])


def test_region_sweep_memory_is_linear_in_levels():
    """100 levels, 902 region starts: one key tuple per start takes about
    0.8 MiB, where memoising the product of every key-index prefix took
    25 MiB."""
    comp = level_probe(100)
    names = comp.instruments[0].harmony_names
    tracemalloc.start()
    try:
        starts, ids, shifts = resolve_module._regions(comp, names)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(starts) == 902 and None not in ids[:-1]
    assert peak < 2.5 * 2**20


# Instruments that share a binding, the harmonies they follow, share one
# region list and, with the same scale, one memo of pitches and table rows
# within a call; each must still resolve and tabulate as it would alone.

def with_shared_bindings(rng, composition):
    """``composition`` plus, for each instrument, one copy with its scale
    and binding and one with its binding under another scale, each with
    notes of its own."""
    scales = composition.scales
    copies = []
    for inst in composition.instruments:
        for tag, scale_name in (("s", inst.scale_name), ("o", rng.choice(sorted(scales)))):
            size = len(scales[scale_name])
            notes = [Note(rng.randrange(size), note.interval, note.velocity)
                     for note in inst.score if rng.random() < 0.7]
            copies.append(Instrument(f"{inst.name}{tag}", scale_name, inst.harmony_names,
                                     notes))
    return Composition(composition.base_frequency_hz, composition.ticks_per_beat,
                       composition.tempo_bpm, composition.length_ticks, scales,
                       composition.harmonies, [*composition.instruments, *copies])


def per_region_export(composition):
    """``export_table`` text from each instrument's own per-region table."""
    lines = ["instrument\tticks\tkey\tfactor\tfrequency_hz"]
    for inst in composition.instruments:
        for region in per_region_table(composition, inst.name):
            lines += [f"{inst.name}\t[{region.start},{region.end})\t{row.key_index}\t"
                      f"{ratio_text(row.factor)}\t{row.frequency_hz:.6g}"
                      for row in region.rows]
    return "\n".join(lines) + "\n"


class TestSharedBindings:
    def compositions(self, seed, count=120):
        rng = random.Random(seed)
        for n in range(count):
            comp = random_composition(rng, max_ticks=1500, max_notes=20,
                                      max_harmonic_levels=3, min_instruments=1)
            comp = with_shared_bindings(rng, comp)
            yield (broken_composition(rng, comp) if n % 2 else comp), bool(n % 2)

    def test_resolve_composition_equals_per_note_resolution(self):
        errors = 0
        for comp, _ in self.compositions(64):
            expected = outcome(per_note_resolve, comp, reference_resolve_note)
            assert outcome(resolve_composition, comp) == expected
            errors += isinstance(expected, tuple)
        assert errors > 30

    def test_tables_equal_per_region_recompute(self):
        tabled = 0
        for comp, broken in self.compositions(65):
            try:
                expected = per_region_export(comp)
            except (KeyError, IndexError, ValueError):
                assert broken
                with pytest.raises(ResolutionError):
                    export_table(comp)
                continue
            assert export_table(comp) == expected
            for inst in comp.instruments:
                assert frequency_table(comp, inst.name) == per_region_table(comp, inst.name)
            tabled += broken
        assert tabled > 10


def first_region_error(composition, inst):
    """The reference error for a key-0 note at the first region start of
    ``inst`` below the length where it raises, or None where none does."""
    starts = sorted({0, composition.length_ticks, *(
        tick for name in inst.harmony_names if name in composition.harmonies
        for tone in composition.harmonies[name].tones
        for tick in (tone.interval.start, tone.interval.end))})
    for lo in starts:
        if lo >= composition.length_ticks:
            return None
        result = outcome(reference_resolve_note, composition, inst, Note(0, TimeInterval(lo, 1)))
        if isinstance(result, tuple):
            return result


@pytest.mark.parametrize("cls, seed", [(TestRegionShiftEquivalence, 67),
                                       (TestSharedBindings, 68)])
def test_table_errors_equal_reference(cls, seed):
    """Each instrument's table raises what the reference raises at its
    first failing region, and the listing raises the first of those."""
    errors, unknown_scales = 0, 0
    for comp, _ in cls().compositions(seed):
        expected = [first_region_error(comp, inst) for inst in comp.instruments]
        for inst, error in zip(comp.instruments, expected):
            table = outcome(frequency_table, comp, inst.name)
            assert table == error if error else isinstance(table, list)
            errors += error is not None
            unknown_scales += error is not None and error[3] == 0  # key 0 is in any scale
        first = next(filter(None, expected), None)
        listing = outcome(export_table, comp)
        assert listing == first if first else isinstance(listing, str)
    assert errors > 40 and unknown_scales > 3


def two_binding_composition(base: float = 440.0):
    """Four instruments under two bindings; v2 has v0's binding under
    another scale."""
    h1a, h1b = ([TranspositionTone(k, TimeInterval(i * 240, 240)) for i, k in enumerate(keys)]
                for keys in ([0, 1, 2, 1], [2, 0, 0, 1]))
    notes = [Note(k % 2, TimeInterval(t, 180)) for k, t in enumerate(range(0, 720, 120))]
    return Composition(
        base, 480, 120.0, 960,
        scales=[Scale("inst", ["1/1", "5/4"]), Scale("other", ["1/1", "6/5"]),
                Scale("t", ["1/1", "3/2", "2/1"])],
        harmonies=[HarmonicSequence("h1a", 1, "t", h1a), HarmonicSequence("h1b", 1, "t", h1b),
                   HarmonicSequence("h2", 2, "t", [TranspositionTone(1, TimeInterval(0, 960))])],
        instruments=[Instrument("v0", "inst", ["h1a", "h2"], notes),
                     Instrument("v1", "inst", ["h1b", "h2"], notes),
                     Instrument("v2", "other", ["h1a", "h2"], notes),
                     Instrument("v3", "inst", ["h1b", "h2"], notes[::2])])


# each call that sweeps regions, with the bindings it sweeps
SWEEPING_CALLS = pytest.mark.parametrize("call,base,bindings", [
    (resolve_composition, 440.0, [("h1a", "h2"), ("h1b", "h2")]),
    (export_table, 440.0, [("h1a", "h2"), ("h1b", "h2")]),
    (lambda comp: frequency_table(comp, "v3"), 440.0, [("h1b", "h2")]),
    # every frequency underflows, so the validator walks every instrument
    (validate_composition, 1e-320, [("h1a", "h2"), ("h1b", "h2")]),
], ids=["resolve", "export-table", "frequency-table", "validate-underflow"])


@SWEEPING_CALLS
def test_regions_are_walked_once_per_binding(monkeypatch, call, base, bindings):
    """Once per binding on a composition first seen, and not at all on
    the one seen last."""
    walked = []
    regions = resolve_module._regions

    def counted(composition, harmony_names, *sweep):
        walked.append(harmony_names)
        return regions(composition, harmony_names, *sweep)

    expected = call(two_binding_composition(base))
    monkeypatch.setattr(resolve_module, "_regions", counted)
    comp = two_binding_composition(base)
    resolve_module._the_memo = resolve_module._Memo()
    assert call(comp) == expected
    assert sorted(walked) == bindings
    walked.clear()
    assert call(comp) == expected
    assert walked == []


def with_tones(composition, harmony_name, tones):
    """``composition`` with new tones for one harmony; every other object
    is shared, as ``parse`` shares those of unchanged lines."""
    harmony = composition.harmonies[harmony_name]
    harmonies = {**composition.harmonies, harmony_name: HarmonicSequence(
        harmony.name, harmony.level, harmony.scale_name, tones)}
    return Composition(composition.base_frequency_hz, composition.ticks_per_beat,
                       composition.tempo_bpm, composition.length_ticks, composition.scales,
                       harmonies, composition.instruments)


def with_tone_key(composition, harmony_name, index, key):
    """``composition`` with the key of one tone changed (see :func:`with_tones`)."""
    tones = list(composition.harmonies[harmony_name].tones)
    tones[index] = TranspositionTone(key, tones[index].interval)
    return with_tones(composition, harmony_name, tones)


@SWEEPING_CALLS
def test_a_tone_key_edit_walks_only_that_tones_regions(monkeypatch, call, base, bindings):
    """h1b's tone 1 spans [240, 480), which holds one region start of its
    binding: after an edit of its key, that start is the only one walked
    again, once per level, and the result equals a cold call's."""
    before = two_binding_composition(base)
    after = with_tone_key(before, "h1b", 1, 2)
    expected = outcome(cold_resolve, call, after)
    outcome(cold_resolve, call, before)
    ticks = []
    contains = TimeInterval.contains

    def counted(interval, tick):
        ticks.append(tick)
        return contains(interval, tick)

    monkeypatch.setattr(TimeInterval, "contains", counted)
    assert outcome(call, after) == expected
    assert ticks == [240, 240]


@SWEEPING_CALLS
@pytest.mark.parametrize("change", ["drop", "add"])
def test_a_tone_dropped_or_added_at_the_end_is_swept_again(call, base, bindings, change):
    """The tones before it are the very objects the last sweep read, but
    the region starts are not the same."""
    before = two_binding_composition(base)
    tones = before.harmonies["h1b"].tones
    tones = tones[:-1] if change == "drop" else (*tones, TranspositionTone(0, TimeInterval(960, 40)))
    after = with_tones(before, "h1b", tones)
    expected = outcome(cold_resolve, call, after)
    outcome(cold_resolve, call, before)
    assert outcome(call, after) == expected


def test_carried_maps_stay_within_two_tuples_per_region_start():
    """Three levels of 6-key scales cut into 8 region starts, edited one
    tone key at a time: the key tuples and shifts a sweep carries over
    grow past a cold sweep's and are cut back, never past 16, and every
    call equals a cold call."""
    rng = random.Random(90)
    keys = ["1/1", "9/8", "5/4", "4/3", "3/2", "5/3"]
    comp = Composition(
        440.0, 480, 120.0, 600, scales=[Scale("six", keys)],
        harmonies=[HarmonicSequence(f"h{level}", level, "six", [
            TranspositionTone(rng.randrange(6), TimeInterval(lo, hi - lo))
            for lo, hi in zip([0, 100 + level, 300 + level], [100 + level, 300 + level, 600])])
            for level in (1, 2, 3)],
        instruments=[Instrument("v", "six", ["h1", "h2", "h3"],
                                [Note(rng.randrange(6), TimeInterval(t, 50))
                                 for t in range(0, 600, 25)])])
    chain = [comp]
    for _ in range(1000):
        name = rng.choice(sorted(comp.harmonies))
        comp = with_tone_key(comp, name, rng.randrange(3), rng.randrange(6))
        chain.append(comp)
    expected = [[cold_resolve(call, comp) for call in (resolve_composition, export_table)]
                for comp in chain]
    sizes = []
    for comp, (events, listing) in zip(chain, expected):
        assert resolve_composition(comp) == events
        assert export_table(comp) == listing
        sweep = resolve_module._the_memo.sweeps["h1", "h2", "h3"]
        assert len(sweep.shifts) <= len(sweep.index_of) <= 2 * len(sweep.starts) == 16
        sizes.append(len(sweep.index_of))
    assert max(sizes) > 8
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))


@given(st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
       st.integers(1, 10**400), st.integers(1, 10**400))
def test_hz_is_the_float_of_the_exact_product(base, num, den):
    base, factor = Fraction(base), Fraction(num, den)
    try:
        expected = float(base * factor)
    except OverflowError:
        expected = ("error", "instrument 'a': resolved frequency is beyond the float range",
                    "a", 0)
    assert outcome(_frequency, Instrument("a", "s"), base, factor) == expected


@pytest.mark.parametrize("warm", [False, True])
def test_a_frequency_beyond_the_float_range_is_a_resolution_error(warm):
    comp = Composition(1e308, 1, 60.0, 4, scales=[Scale("s", ["1/1", "4/1"])],
                       instruments=[Instrument("a", "s", (), [Note(1, TimeInterval(0, 1))])])
    assert [v.kind for v in validate_composition(comp)] == ["overflow", "overflow"]
    inst = comp.instruments[0]
    beyond = "instrument 'a': resolved frequency is beyond the float range"
    for call, args, message in [(resolve_note, (inst, inst.score.notes[0]), beyond),
                                (resolve_composition, (), f"note 0 of {beyond}"),
                                (frequency_table, ("a",), beyond), (export_table, (), beyond)]:
        got = outcome(call, comp, *args) if warm else outcome(cold_resolve, call, comp, *args)
        assert got == ("error", message, "a", 0)


def reachable(root):
    """The ids of every object reachable from ``root`` through containers
    and instances, but not through types, modules or functions."""
    seen, todo = set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) not in seen and not isinstance(obj, (type, types.ModuleType,
                                                         types.FunctionType)):
            seen.add(id(obj))
            todo.extend(gc.get_referents(obj))
    return seen


def region_rows(table):
    """The rows of each region of a :func:`frequency_table` result, or
    its error outcome."""
    return [region.rows for region in table] if isinstance(table, list) else table


def shared(first, then):
    """Whether two results share an object, as a reused one does."""
    return (isinstance(first, list) and isinstance(then, list)
            and bool({id(x) for x in first} & {id(x) for x in then}))


class TestWarmEqualsCold:
    """Resolving, tabulating and validating an edit of the previous
    composition, reusing what the previous calls kept, gives what a
    fresh process gives."""

    def test_resolve_after_an_edit(self):
        reused = 0
        for a, b, edit in edit_pairs(72, 600):
            expected = outcome(cold_resolve, resolve_composition, b)
            first = outcome(cold_resolve, resolve_composition, a)
            events = outcome(resolve_composition, b)
            assert events == expected, edit
            assert outcome(resolve_composition, b) == expected, edit
            reused += shared(first, events)
        assert reused > 150

    @staticmethod
    def calls(composition):
        """(what, call) of every call on ``composition``: validate, resolve,
        the table listing and the table of each instrument."""
        return [("validate", validate_composition), ("resolve", resolve_composition),
                ("listing", export_table)] + [
                    (inst.name, lambda comp, name=inst.name: frequency_table(comp, name))
                    for inst in composition.instruments]

    def test_every_call_on_an_edit_in_any_order(self):
        rng = random.Random(73)
        for a, b, edit in edit_pairs(74, 450):
            calls = self.calls(b)
            expected = {what: cold_validate(b) if what == "validate"
                        else outcome(cold_resolve, call, b) for what, call in calls}
            cold_validate(a)
            outcome(cold_resolve, resolve_composition, a)
            for _, call in self.calls(a)[2:]:  # the tables, after a cold resolve
                outcome(call, a)
            rng.shuffle(calls)
            for what, call in calls:
                assert outcome(call, b) == expected[what], (edit, what)

    def test_table_after_a_tone_key_edit_shares_rows(self):
        rng = random.Random(81)
        reused = 0
        for _ in range(150):
            a = random_composition(rng, max_ticks=2000, min_instruments=1, min_harmonic_levels=1)
            b = edited_composition(rng, a, "tone key")
            for inst in b.instruments:
                expected = outcome(cold_resolve, frequency_table, b, inst.name)
                first = outcome(cold_resolve, frequency_table, a, inst.name)
                table = outcome(frequency_table, b, inst.name)
                assert table == expected
                reused += shared(region_rows(first), region_rows(table))
        assert reused > 200

    def test_rows_kept_through_an_edit_that_does_not_tabulate_them(self):
        """v0's table, then v1's after an edit of a tone key, then v0's
        after another: the last shares v0's rows with the first, and equals
        a cold call's."""
        a = two_binding_composition()
        b = with_tone_key(a, "h1b", 1, 2)
        c = with_tone_key(b, "h1b", 2, 1)
        expected = outcome(cold_resolve, frequency_table, c, "v0")
        first = outcome(cold_resolve, frequency_table, a, "v0")
        outcome(frequency_table, b, "v1")
        table = outcome(frequency_table, c, "v0")
        assert table == expected
        assert shared(region_rows(first), region_rows(table))

    @pytest.mark.parametrize("edit", ["base", "scale key"])
    def test_a_changed_base_or_scale_takes_nothing_over(self, edit):
        """An instrument whose base or scale keys changed reuses none of
        its events or table rows, and gets what a cold call gets."""
        rng = random.Random(82)
        checked = 0
        for _ in range(150):
            a = random_composition(rng, max_ticks=2000, min_instruments=1, min_notes=1)
            b = edited_composition(rng, a, edit)
            for inst in b.instruments:
                keys = [comp.scales[inst.scale_name].keys for comp in (a, b)]
                if edit == "scale key" and keys[0] == keys[1]:
                    continue
                expected = [outcome(cold_resolve, resolve_composition, b),
                            outcome(cold_resolve, frequency_table, b, inst.name)]
                first = [outcome(cold_resolve, resolve_composition, a),
                         outcome(frequency_table, a, inst.name)]
                got = [outcome(resolve_composition, b), outcome(frequency_table, b, inst.name)]
                assert got == expected
                if isinstance(got[0], list):
                    assert not shared(*[[ev for ev in events if ev.instrument == inst.name]
                                        for events in (first[0], got[0])])
                assert not shared(region_rows(first[1]), region_rows(got[1]))
                checked += isinstance(got[1], list)
        assert checked > 100

    def test_a_call_that_raises_keeps_no_events(self):
        rng = random.Random(75)
        raised = 0
        for a, b, _ in edit_pairs(76, 300):
            if not isinstance(outcome(cold_resolve, resolve_composition, b), tuple):
                continue
            raised += 1
            c = edited_composition(rng, a, rng.choice(EDITS))
            expected = outcome(cold_resolve, resolve_composition, c)
            outcome(cold_resolve, resolve_composition, a)
            assert isinstance(outcome(resolve_composition, b), tuple)
            assert resolve_module._the_memo.composition is b
            assert resolve_module._the_memo.events == {}
            assert outcome(resolve_composition, c) == expected
        assert raised > 50

    def test_nothing_of_an_older_score_is_kept(self):
        """After resolving x, then y, then z, nothing of x that y does not
        share is reachable from the kept memo."""
        rng = random.Random(77)
        for x, y, _ in edit_pairs(78, 120):
            z = edited_composition(rng, y, rng.choice(EDITS))
            x_events, y_events = (outcome(resolve_composition, comp) for comp in (x, y))
            outcome(resolve_composition, z)
            x_only = {id(x)} | {id(ev) for ev in x_events if isinstance(x_events, list)}
            x_only -= {id(ev) for ev in y_events if isinstance(y_events, list)}
            assert not x_only & reachable(resolve_module._the_memo)

    def test_a_chain_of_edits(self):
        """300 successive edits of one composition, most of them of a tone
        key, so that what the memos carry builds up; each edit is made to
        the last composition that validated clean.  Every call on every
        composition equals a cold call."""
        rng = random.Random(79)
        comp = random_composition(rng, max_ticks=2000, max_notes=12, min_instruments=2,
                                  min_harmonic_levels=2)
        chain, clean = [], comp
        for _ in range(300):
            edit = rng.choices(["tone key", "tone timing", "split tone", "scale key", "length",
                                "rebind"], [12, 2, 1, 2, 1, 2])[0]
            comp = edited_composition(rng, clean, edit)
            expected = {what: cold_validate(comp) if what == "validate"
                        else outcome(cold_resolve, call, comp) for what, call in self.calls(comp)}
            chain.append((comp, edit, expected))
            if not any(v.severity == "error" for v in expected["validate"]):
                clean = comp
        assert sum(comp is not clean for comp, _, _ in chain) > 20  # broken ones too
        for comp, edit, expected in chain:
            for what, call in self.calls(comp):
                assert outcome(call, comp) == expected[what], (edit, what)

    def test_one_resolver_call_at_a_time(self, monkeypatch):
        """A call on another composition, started in a thread while a call
        sweeps, waits until that call has returned; then both equal cold
        calls.  Every join is bounded, so a deadlock fails the test."""
        a = two_binding_composition()
        b = with_tone_key(a, "h1b", 1, 2)
        expected = [outcome(cold_resolve, resolve_composition, comp) for comp in (a, b)]
        regions, got, waited = resolve_module._regions, [], []
        other = threading.Thread(target=lambda: got.append(outcome(resolve_composition, b)))

        def interleaved(composition, harmony_names, sweep):
            if composition is a and not waited:
                other.start()
                other.join(timeout=1)
                waited.append(other.is_alive())
            return regions(composition, harmony_names, sweep)

        monkeypatch.setattr(resolve_module, "_regions", interleaved)
        first = outcome(resolve_composition, a)
        other.join(timeout=60)
        assert not other.is_alive()
        assert waited == [True]
        assert [first, *got] == expected

    def test_calls_in_threads_equal_cold_calls(self):
        pairs = list(edit_pairs(78, 8))
        comps = [comp for pair in pairs for comp in pair[:2]]
        calls = (validate_composition, resolve_composition, export_table)
        expected = [[cold_validate(comp) if call is validate_composition
                     else outcome(cold_resolve, call, comp) for call in calls] for comp in comps]
        wrong = []

        def work(offset):
            try:
                for i in range(40):
                    k = (offset + i) % len(comps)
                    for j, call in enumerate(calls):
                        if outcome(call, comps[k]) != expected[k][j]:
                            wrong.append((k, j))
            except Exception as exc:  # a worker that raises fails the test too
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

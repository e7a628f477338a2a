import random
import re
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtseq import (
    Composition,
    HarmonicSequence,
    Instrument,
    Note,
    ParseError,
    Scale,
    TimeInterval,
    TranspositionTone,
    parse,
    serialize,
    validate_composition,
)
from dtseq import scorefile
from dtseq.scorefile import PARSE_ERROR_KINDS
from support import (
    REFERENCE_SCORE,
    cold_parse,
    cold_serialize,
    edited_composition,
    int_digit_limit,
    near_one,
    outcome,
    random_composition,
)


def parse_ok(text) -> Composition:
    result = parse(text)
    assert isinstance(result, Composition), result
    return result


def parse_errors(text) -> list[ParseError]:
    result = parse(text)
    assert isinstance(result, list), "expected parse errors"
    return result


def assert_parse_result(result) -> None:
    """A Composition, or errors whose every kind is a documented one."""
    if not isinstance(result, Composition):
        assert isinstance(result, list) and result
        assert {e.kind for e in result} <= set(PARSE_ERROR_KINDS), result


MINIMAL_HEADER = "base 440\nppq 480\ntempo 120\nlength 960\n"


class TestParse:
    def test_reference_example_counts(self):
        comp = parse_ok(REFERENCE_SCORE)
        assert sorted(comp.scales) == ["fifths", "just-major-7"]
        assert list(comp.harmonies) == ["H1"]
        assert len(comp.harmonies["H1"].tones) == 2
        assert [i.name for i in comp.instruments] == ["lead"]
        assert len(comp.instruments[0].score.notes) == 3
        assert comp.base_frequency_hz == 440.0
        assert comp.ticks_per_beat == 480
        assert comp.tempo_bpm == 120.0
        assert comp.length_ticks == 1920

    def test_zero_denominator_is_bad_ratio_with_position(self):
        text = (MINIMAL_HEADER
                + "scale t 1/1\nharmony H level 1 scale t\n  tone 9/0 @ 0 +480\nend\n")
        errs = parse_errors(text)
        assert any(e.kind == "bad-ratio" and e.position.line == 7 for e in errs)

        errs = parse_errors(MINIMAL_HEADER + "scale t 1/1 9/0\n")
        assert [(e.kind, e.position.line) for e in errs] == [("bad-ratio", 5)]

    def test_out_of_range_key_parses_and_fails_validation(self):
        text = (MINIMAL_HEADER
                + "scale t 1/1 3/2 2/1\n"
                + "instrument i scale t\n  note 7 @ 0 +480\nend\n")
        comp = parse_ok(text)
        report = validate_composition(comp)
        assert any(v.kind == "range" and "note 0" in v.path for v in report)

    def test_bare_integers_accepted_as_ratios(self):
        comp = parse_ok(MINIMAL_HEADER + "scale t 1 2\n")
        assert comp.scales["t"].keys == (Fraction(1), Fraction(2))

    def test_default_velocity(self):
        comp = parse_ok(MINIMAL_HEADER
                        + "scale t 1/1\ninstrument i scale t\n  note 0 @ 0 +480\nend\n")
        assert comp.instruments[0].score.notes[0].velocity == 96

    def test_comments_and_blank_lines_ignored(self):
        comp = parse_ok("# leading comment\n\n" + MINIMAL_HEADER + "  # only comment\n")
        assert comp.length_ticks == 960

    @pytest.mark.parametrize("text,kind", [
        ("base 440\nppq 480\ntempo 120\nlength 960\nwibble 3\n", "unknown-directive"),
        (MINIMAL_HEADER + "scale t 1/1\nscale t 3/2\n", "duplicate-name"),
        (MINIMAL_HEADER + "base 220\n", "duplicate-name"),
        (MINIMAL_HEADER + "scale t a/b\n", "bad-ratio"),
        (MINIMAL_HEADER + "scale t 1/1 6/4 3/2\n", "bad-ratio"),
        (MINIMAL_HEADER + "harmony H level 1 scale ghost\n end\n", "bad-reference"),
        (MINIMAL_HEADER + "instrument i scale ghost\nend\n", "bad-reference"),
        (MINIMAL_HEADER + "scale t 1/1\ninstrument i scale t harmonies ghost\nend\n",
         "bad-reference"),
        (MINIMAL_HEADER + "length 0\n", "duplicate-name"),
        ("base 440\nppq 0\ntempo 120\nlength 960\n", "range"),
        ("base -4\nppq 480\ntempo 120\nlength 960\n", "range"),
        (MINIMAL_HEADER + "scale t 1/1\nharmony H level 0 scale t\nend\n", "range"),
        (MINIMAL_HEADER
         + "scale t 1/1\ninstrument i scale t\n  note 0 @ 0 +480 vel 200\nend\n",
         "range"),
        (MINIMAL_HEADER + "scale t 1/1\nharmony H level 1 scale t\n", "syntax"),
        (MINIMAL_HEADER + "end\n", "syntax"),
        (MINIMAL_HEADER + "note 0 @ 0 +480\n", "syntax"),
        (MINIMAL_HEADER
         + "scale t 1/1\nharmony H level 1 scale t\n  note 0 @ 0 +480\nend\n",
         "syntax"),
        ("ppq 480\ntempo 120\nlength 960\n", "syntax"),
    ])
    def test_error_kinds(self, text, kind):
        errs = parse_errors(text)
        assert kind in {e.kind for e in errs}, errs

    def test_all_errors_reported_not_just_first(self):
        text = "base x\nppq 0\ntempo 120\nlength 960\nscale t 0/1\nbogus\n"
        errs = parse_errors(text)
        assert {e.kind for e in errs} >= {"syntax", "range", "bad-ratio",
                                          "unknown-directive"}
        assert len(errs) >= 4

    def test_errors_sorted_by_position(self):
        errs = parse_errors("bogus1\nbogus2\nbase 440\nppq 480\ntempo 120\nlength 0\n")
        positions = [(e.position.line, e.position.column) for e in errs]
        assert positions == sorted(positions)

    def test_error_positions_point_at_offending_token(self):
        text = (MINIMAL_HEADER
                + "scale t 1/1 5/0\nharmony H level 1 scale ghost\n  tone 0 @ 0 +480\nend\n")
        lines = text.splitlines()
        for err in parse_errors(text):
            line = lines[err.position.line - 1]
            assert err.position.column <= len(line)
            assert line[err.position.column - 1] not in (" ", "\t")

    @pytest.mark.parametrize("text,expected", [
        # the duration '0', not the key or start '0' before it
        (MINIMAL_HEADER + "scale s 1/1\ninstrument i scale s\n  note 0 @ 0 +0\nend\n",
         [(7, 15, "range", "value 0 must be >= 1")]),
        (MINIMAL_HEADER + "scale s 1/1 3/2 1/1\n",
         [(5, 17, "bad-ratio", "duplicate key 1/1 in scale")]),
        # positions kept from the header and reported by the whole-file checks
        (MINIMAL_HEADER + "harmony H level 1 scale H\nend\n",
         [(5, 25, "bad-reference", "unknown scale 'H'")]),
        (MINIMAL_HEADER + "instrument i scale s harmonies i\nend\n",
         [(5, 20, "bad-reference", "unknown scale 's'"),
          (5, 32, "bad-reference", "unknown harmony 'i'")]),
    ])
    def test_error_column_of_a_text_repeated_on_its_line(self, text, expected):
        errs = parse_errors(text)
        assert [(e.position.line, e.position.column, e.kind, e.message)
                for e in errs] == expected

    def test_block_recovery_reports_missing_end_and_continues(self):
        text = (MINIMAL_HEADER
                + "scale t 1/1\nharmony H level 1 scale t\n  tone 0 @ 0 +960\n"
                + "instrument i scale t\nend\n")
        errs = parse_errors(text)
        assert any(e.kind == "syntax" and "end" in e.message for e in errs)

    def test_bytes_input_with_invalid_utf8(self):
        data = MINIMAL_HEADER.encode() + b"\xff\xfe garbage \x00\n"
        result = parse(data)
        assert isinstance(result, (Composition, list))

    @pytest.mark.parametrize("encode", [str.encode, str], ids=["bytes", "str"])
    def test_a_leading_byte_order_mark_is_dropped(self, encode):
        """Equal to the parse without it, with every error at the same
        place; one anywhere else is not dropped."""
        misspelt = REFERENCE_SCORE.replace("# header\n", "bse 440\n")
        for text in REFERENCE_SCORE, misspelt, misspelt.replace("  tone 1 @", "  tone x @"):
            assert outcome(cold_parse(encode("\ufeff" + text))) == outcome(cold_parse(text))
        assert outcome(parse_errors(encode(MINIMAL_HEADER + "\ufeffscale s 1/1\n"))) == [
            (5, 1, "unknown-directive", "unknown directive '\\ufeffscale'")]

    @given(st.binary(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_bytes_never_raise(self, data):
        assert_parse_result(parse(data))

    @given(st.text(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_text_never_raises(self, text):
        assert_parse_result(parse(text))


class TestAsciiNumbers:
    # int() and float() read other Unicode digits and '_' separators; the
    # format's numbers are ASCII digits only
    @pytest.mark.parametrize("old,new,expected", [
        ("ppq 480", "ppq ٤٨٠", [(2, 5, "syntax", "expected an integer, got '٤٨٠'")]),
        ("length 960", "length 1_920", [(4, 8, "syntax", "expected an integer, got '1_920'")]),
        ("base 440", "base ４４０", [(1, 6, "syntax", "expected a number, got '４４０'")]),
        ("tempo 120", "tempo 1_20", [(3, 7, "syntax", "expected a number, got '1_20'")]),
    ], ids=["ppq", "length", "base", "tempo"])
    def test_header_fields(self, old, new, expected):
        errors = parse_errors(MINIMAL_HEADER.replace(old, new))
        assert [(e.position.line, e.position.column, e.kind, e.message)
                for e in errors] == expected

    def test_ratios_and_event_fields(self):
        errors = parse_errors(MINIMAL_HEADER + "scale s 1/1 ٣/2 3/2\n"
                              "instrument i scale s\n  note ١ @ 0 +1_000\nend\n")
        assert [(e.position.line, e.position.column, e.kind, e.message) for e in errors] == [
            (5, 13, "bad-ratio", "malformed ratio '٣/2'"),
            (7, 8, "syntax", "expected an integer, got '١'"),
            (7, 15, "syntax", "expected an integer, got '1_000'")]


class TestHeaderGiven:
    # a header line gives its field even when its value is bad
    @pytest.mark.parametrize("old,new,column", [
        ("base 440", "base nan", 6), ("tempo 120", "tempo inf", 7)])
    def test_bad_value_is_not_also_missing(self, old, new, column):
        errors = parse_errors(MINIMAL_HEADER.replace(old, new))
        line = MINIMAL_HEADER.splitlines().index(old) + 1
        assert [(e.position.line, e.position.column, e.kind) for e in errors] == [
            (line, column, "range")]

    def test_later_line_for_a_bad_field_is_a_duplicate(self):
        errors = parse_errors("base 0\n" + MINIMAL_HEADER)
        assert [(e.position.line, e.kind, e.message) for e in errors] == [
            (1, "range", "value 0 must be positive and finite"),
            (2, "duplicate-name", "duplicate 'base' directive")]

    def test_line_without_a_value_is_not_also_missing(self):
        errors = parse_errors(MINIMAL_HEADER.replace("ppq 480", "ppq"))
        assert [(e.position.line, e.kind, e.message) for e in errors] == [
            (2, "syntax", "expected 'ppq VALUE'")]


class TestLineEnds:
    # str.splitlines() also ends a line at these; in a score they are whitespace
    SEPARATORS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    OUT_OF_SCALE = "instrument a scale s\n  note 9 @ 0 +960\nend\n"

    @pytest.mark.parametrize("sep", SEPARATORS, ids=repr)
    def test_separator_in_a_comment_does_not_end_it(self, sep):
        text = MINIMAL_HEADER + f"# fifth{sep}above\nscale s 1/1 3/2\n" + self.OUT_OF_SCALE
        composition = parse_ok(text)
        assert composition == parse_ok(text.replace(sep, " "))
        assert [v.message for v in validate_composition(composition)] == [
            "key index 9 outside scale 's' of 2 keys"]

    @pytest.mark.parametrize("sep", SEPARATORS, ids=repr)
    def test_separator_between_tokens_is_whitespace(self, sep):
        text = MINIMAL_HEADER + f"scale s 1/1{sep}3/2{sep}5/4\nbogus{sep}1\n"
        errors = parse_errors(text)
        assert [(e.position.line, e.position.column, e.kind) for e in errors] == [
            (6, 1, "unknown-directive")]
        assert parse_ok(MINIMAL_HEADER + f"scale s 1/1{sep}3/2{sep}5/4\n").scales["s"] == \
            parse_ok(MINIMAL_HEADER + "scale s 1/1 3/2 5/4\n").scales["s"]

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["CRLF", "CR"])
    def test_crlf_and_cr_end_lines_as_lf_does(self, end):
        text = MINIMAL_HEADER + "scale s 1/1 3/2\nharmony H level 1 scale s\n  tone 5 @ 0 x\n"
        assert parse_errors(text.replace("\n", end)) == parse_errors(text)
        # a clean score whose lines end in turn with CRLF, CR and LF, the last
        # with a lone CR: the CR after the base line's comment ends it
        lines = REFERENCE_SCORE.split("\n")[:-1]
        mixed = "".join(line + ("\r\n", "\r", "\n")[n % 3] for n, line in enumerate(lines[:-1]))
        mixed += lines[-1] + "\r"
        assert "# f0 in Hz\rppq" in mixed
        assert cold_parse(mixed) == cold_parse(REFERENCE_SCORE)
        # a re-parse of the text with other line ends, warm after the LF one
        expected = cold_parse(REFERENCE_SCORE.replace("\n", end))
        cold_parse(REFERENCE_SCORE)
        assert parse(REFERENCE_SCORE.replace("\n", end)) == expected


class TestSerialize:
    def test_reference_is_roundtrip_fixpoint(self):
        comp = parse_ok(REFERENCE_SCORE)
        canonical = serialize(comp)
        comp2 = parse_ok(canonical)
        assert comp2 == comp
        assert serialize(comp2) == canonical

    def test_ratios_print_reduced(self):
        comp = parse_ok(MINIMAL_HEADER + "scale t 1/1 6/4\n")
        assert "3/2" in serialize(comp)
        assert "6/4" not in serialize(comp)

    def test_no_instruments_emits_header_and_scales_only(self):
        comp = parse_ok(MINIMAL_HEADER + "scale t 1/1 3/2\n")
        text = serialize(comp)
        assert "instrument" not in text
        assert "harmony" not in text
        assert text == ("base 440.0\nppq 480\ntempo 120.0\nlength 960\n"
                        "\nscale t 1/1 3/2\n")

    def test_entities_sorted_by_name(self):
        text = (MINIMAL_HEADER
                + "scale zz 1/1\nscale aa 1/1\n"
                + "instrument zed scale zz\nend\ninstrument ann scale aa\nend\n")
        out = serialize(parse_ok(text))
        assert out.index("scale aa") < out.index("scale zz")
        assert out.index("instrument ann") < out.index("instrument zed")

    def test_large_base_and_tempo_read_back(self):
        text = serialize(Composition(1e20, 480, 1e16, 960))
        assert text == "base 1e20\nppq 480\ntempo 1e16\nlength 960\n"
        comp = parse_ok(text)
        assert (comp.base_frequency_hz, comp.tempo_bpm) == (1e20, 1e16)

    @given(st.floats(min_value=0, exclude_min=True, allow_infinity=False),
           st.floats(min_value=0, exclude_min=True, allow_infinity=False))
    def test_any_positive_finite_base_and_tempo_round_trip(self, base, tempo):
        text = serialize(Composition(base, 480, tempo, 960))
        comp = parse_ok(text)
        assert (comp.base_frequency_hz, comp.tempo_bpm) == (base, tempo)
        assert serialize(comp) == text

    def test_ratios_beyond_the_digit_limit_are_refused(self):
        longest, too_long = near_one(639), near_one(640)  # 640- and 641-digit parts
        s = Scale("s", ["1/1", longest])
        t = Scale("t", ["1/1", longest, too_long])
        refused = Composition(440, 480, 120, 960, scales=[s, t])
        with int_digit_limit(640):
            with pytest.raises(ValueError) as exc:
                serialize(refused)
            assert str(exc.value) == "scale t key 2: ratio parts too long to parse back"
            text = serialize(Composition(440, 480, 120, 960, scales=[s]))
            assert text.endswith(f"scale s 1/1 {longest}\n")
            assert serialize(parse_ok(text)) == text

    FAR = 10 ** 699  # 700 digits

    @pytest.mark.parametrize("where, part", [
        ("ppq", {"ppq": FAR}),
        ("length", {"length": FAR}),
        ("harmony H level", {"level": FAR}),
        ("harmony H tone 1", {"tone": TimeInterval(480, FAR)}),
        ("instrument i note 1", {"note": TimeInterval(FAR, 1)}),
        ("instrument i note 1", {"key": FAR}),
        # out of start order: the index is into the tones, not the sorted text
        ("harmony H tone 0", {"first": TimeInterval(960, FAR)}),
    ])
    def test_numbers_beyond_the_digit_limit_name_their_place(self, where, part):
        """Cold, and with the block's text kept from a call under no limit."""
        fields = {"ppq": 480, "length": 960, "level": 1, "first": TimeInterval(0, 480),
                  "tone": TimeInterval(480, 480), "note": TimeInterval(0, 960), "key": 0, **part}
        comp = Composition(
            440, fields["ppq"], 120, fields["length"], [Scale("s", ["1/1"])],
            [HarmonicSequence("H", fields["level"], "s", [
                TranspositionTone(0, fields["first"]), TranspositionTone(0, fields["tone"])])],
            [Instrument("i", "s", ["H"], [Note(0, TimeInterval(0, 960)),
                                          Note(fields["key"], fields["note"])])])
        with int_digit_limit(0):
            text = cold_serialize(comp)
        assert str(self.FAR) in text
        for call in (serialize, cold_serialize):
            with int_digit_limit(640), pytest.raises(ValueError) as exc:
                call(comp)
            assert str(exc.value) == f"{where}: number too long to parse back"
            with int_digit_limit(0):
                assert serialize(comp) == text

    @staticmethod
    def formatting(monkeypatch) -> list[str]:
        """The names of the blocks serialize formats from now on, in order."""
        formatted, block_lines = [], scorefile._block_lines

        def counted(block):
            formatted.append(block.name)
            return block_lines(block)

        monkeypatch.setattr(scorefile, "_block_lines", counted)
        return formatted

    def test_a_reserialize_formats_only_the_blocks_that_changed(self, monkeypatch):
        formatted = self.formatting(monkeypatch)
        comp = parse_ok(REFERENCE_SCORE)
        text = cold_serialize(comp)
        assert sorted(formatted) == ["H1", "lead"]
        formatted.clear()
        assert serialize(comp) == text
        assert formatted == []
        h1 = comp.harmonies["H1"]
        edited = Composition(440.0, 480, 120.0, 1920, comp.scales, [HarmonicSequence(
            "H1", 1, "fifths", [TranspositionTone(1, h1.tones[0].interval), h1.tones[1]])],
            comp.instruments)
        warm = serialize(edited)
        assert formatted == ["H1"]
        assert warm == cold_serialize(edited) != text

    def test_a_reserialize_of_the_parse_of_its_text_formats_no_block(self, monkeypatch):
        """Parse hands each block it built from the text serialize wrote
        for it that text, so an edit's block is formatted once, not again
        after its parse."""
        formatted = self.formatting(monkeypatch)
        comp = random_composition(random.Random(11), min_instruments=3, min_harmonic_levels=2)
        text = cold_serialize(comp)
        assert len(formatted) == len(comp.harmonies) + len(comp.instruments) > 4
        parsed = cold_parse(text)
        formatted.clear()
        assert serialize(parsed) == text
        assert formatted == []
        h = sorted(parsed.harmonies)[0]
        edited = Composition(parsed.base_frequency_hz, parsed.ticks_per_beat, parsed.tempo_bpm,
                             parsed.length_ticks, parsed.scales,
                             {**parsed.harmonies, h: HarmonicSequence(
                                 h, parsed.harmonies[h].level, parsed.harmonies[h].scale_name,
                                 parsed.harmonies[h].tones[:-1])}, parsed.instruments)
        warm = serialize(edited)
        assert formatted == [h]
        again = parse(warm)
        assert again.harmonies[h] is not edited.harmonies[h]
        assert serialize(again) == warm
        assert formatted == [h]
        assert warm == cold_serialize(again)
        with int_digit_limit(640):  # another limit than the text's: formatted again
            formatted.clear()
            assert serialize(cold_parse(warm)) == warm
            assert len(formatted) == len(comp.harmonies) + len(comp.instruments)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None, database=None)
    def test_a_reserialize_after_a_parse_of_an_edited_text_equals_a_cold_one(self, seed):
        """Only a block built from the very text serialize wrote for it
        takes that text: one built from an edit of it is formatted."""
        rng = random.Random(seed)
        text = serialize(random_composition(rng, max_ticks=2000))
        edited = parse(edit(rng, text))
        if isinstance(edited, Composition):
            assert serialize(edited) == cold_serialize(edited)

    def test_kept_blocks_read_the_same_under_any_digit_limit(self, monkeypatch):
        """A kept text, however long its lines, is taken only under the
        digit limit it was written under: under another limit the block is
        written again, or refused again."""
        far = 10 ** 699  # a 700-digit duration, on a line of over 640 characters
        comp = Composition(440, 480, 120, 960, [Scale("s", ["1/1"])],
                           [HarmonicSequence("H", 1, "s", [TranspositionTone(
                               0, TimeInterval(0, far))])],
                           [Instrument("i", "s", ["H"], [Note(0, TimeInterval(0, 960))])])
        formatted = self.formatting(monkeypatch)
        with int_digit_limit(640):
            with pytest.raises(ValueError) as cold:
                cold_serialize(comp)
        with int_digit_limit(0):
            text = cold_serialize(comp)
            assert f"  tone 0 @ 0 +{far}\n" in text
            formatted.clear()
            assert serialize(comp) == text
            assert formatted == []  # the long block's text is kept
        with int_digit_limit(640):  # lowered: formatted again, and refused as in a cold call
            with pytest.raises(ValueError) as warm:
                serialize(comp)
            assert str(warm.value) == str(cold.value)
            assert formatted == ["H"]
        with int_digit_limit(0):  # the limit of the texts kept, which the refusal left
            formatted.clear()
            assert serialize(comp) == text
            assert formatted == []
        with int_digit_limit(4300):  # raised: every block written again
            formatted.clear()
            assert serialize(comp) == text == cold_serialize(comp)
            assert formatted == ["H", "i", "H", "i"]

    def test_serializes_in_threads_equal_cold_serializes(self):
        rng = random.Random(10)
        comps = [random_composition(rng, min_instruments=2, min_notes=5) for _ in range(4)]
        comps += [edited_composition(rng, comp, "tone key") for comp in comps]
        expected = [cold_serialize(comp) for comp in comps]
        wrong = []

        def work(offset):
            try:
                for i in range(60):
                    k = (offset + i) % len(comps)
                    if serialize(comps[k]) != expected[k]:
                        wrong.append(k)
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

    def test_roundtrip_randomized(self):
        rng = random.Random(77)
        for _ in range(30):
            comp = random_composition(rng, max_ticks=2000)
            text = serialize(comp)
            reparsed = parse_ok(text)
            assert reparsed == comp
            assert serialize(reparsed) == text


class TestColumnWalk:
    """Each line's columns come from one walk over its tokens, however
    many of them a diagnostic or a harmony reference needs."""

    @staticmethod
    def steps(monkeypatch, text: str) -> int:
        from dtseq.scorefile import _Parser
        walked = []
        columns = _Parser.columns

        def counted(self, toks):
            walked.append(len(toks))
            return columns(self, toks)

        monkeypatch.setattr(_Parser, "columns", counted)
        parse(text)
        return sum(walked)

    @staticmethod
    def many_harmonies(n: int) -> str:
        names = [f"h{i}" for i in range(n)]
        return "".join([
            "base 440\nppq 1\ntempo 60\nlength 1\nscale s 1/1\n",
            *(f"harmony {h} level {i + 1} scale s\n  tone 0 @ 0 +1\nend\n"
              for i, h in enumerate(names)),
            f"instrument i scale s harmonies {' '.join(names)}\n  note 0 @ 0 +1\nend\n"])

    def test_a_line_naming_n_harmonies_is_walked_once(self, monkeypatch):
        steps = {n: self.steps(monkeypatch, self.many_harmonies(n)) for n in (2000, 4000)}
        # each harmony line walks its 6 tokens once, the instrument line its n + 5
        assert steps == {2000: 7 * 2000 + 5, 4000: 7 * 4000 + 5}

    def test_a_line_of_n_bad_keys_is_walked_once(self, monkeypatch):
        steps = {n: self.steps(monkeypatch, "scale s" + " x" * n + "\n") for n in (2000, 4000)}
        assert steps == {2000: 2002, 4000: 4002}

    def test_columns_of_a_repeated_token(self):
        errors = parse_errors("scale s 1/1 x x 3/2 x\n")
        assert [(e.position.column, e.message) for e in errors if e.kind == "bad-ratio"] == [
            (13, "malformed ratio 'x'"), (15, "malformed ratio 'x'"),
            (21, "malformed ratio 'x'")]


def edit(rng: random.Random, text: str) -> str:
    """``text`` with one tone's key changed, one note moved, or one line
    broken."""
    lines = text.split("\n")
    tones = [i for i, line in enumerate(lines) if line.startswith("  tone ")]
    notes = [i for i, line in enumerate(lines) if line.startswith("  note ")]
    kind = rng.choice(["break"] + ["tone"] * bool(tones) + ["note"] * bool(notes))
    if kind == "tone":
        i = rng.choice(tones)
        fields = lines[i].split(" ")  # ['', '', 'tone', KEY, '@', START, +DURATION]
        fields[3] = str(rng.randrange(8))
        lines[i] = " ".join(fields)
    elif kind == "note":
        i = rng.choice(notes)
        if rng.random() < 0.5:  # to any line, inside a block of either kind or none
            lines.insert(rng.randrange(len(lines)), lines.pop(i))
        else:  # to another start
            fields = lines[i].split(" ")
            fields[5] = str(rng.randrange(2000))
            lines[i] = " ".join(fields)
    else:
        i = rng.randrange(len(lines))
        line = lines[i]
        lines[i] = rng.choice([line[:rng.randrange(len(line) + 1)], line + " x", "bogus", "",
                               "  note 1/2 @ 0 +1", "  tone 0 @ 0 +0", "end",
                               line.replace("@", "")])
    return "\n".join(lines)


class TestReuse:
    """``parse`` reuses the events of its previous call's clean event
    lines; whatever came before, its result equals a cold parse."""

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None, database=None)
    def test_a_parse_after_an_edit_equals_a_cold_parse(self, seed):
        rng = random.Random(seed)
        before = serialize(random_composition(rng, max_ticks=2000))
        after = edit(rng, before)
        parse(before)
        warm = parse(after)
        assert outcome(warm) == outcome(cold_parse(after)), after

    def test_a_reparse_reuses_every_event(self):
        first, second = parse_ok(REFERENCE_SCORE), parse_ok(REFERENCE_SCORE)
        events = [*first.harmonies["H1"].tones, *first.instruments[0].score.notes]
        again = [*second.harmonies["H1"].tones, *second.instruments[0].score.notes]
        assert len(events) == 5
        assert all(a is b for a, b in zip(events, again))

    def test_a_reparse_returns_the_blocks_it_did_not_change(self):
        edits = [("  tone 1 @ 960  +960", "  tone 0 @ 960  +960", "harmony"),
                 ("level 1 scale fifths", "level 2 scale fifths", "harmony"),
                 ("harmonies H1", "", "instrument"),
                 ("  note 4 @ 960  +960  vel 112\n", "", "instrument")]
        texts = [REFERENCE_SCORE.replace(old, new) for old, new, _ in edits]
        expected = [cold_parse(text) for text in texts]
        first = parse_ok(REFERENCE_SCORE)
        again = parse_ok(REFERENCE_SCORE)
        assert again.harmonies["H1"] is first.harmonies["H1"]
        assert again.instruments[0] is first.instruments[0]
        # other spacing and a comment: new events, equal ones, so the same block
        respaced = REFERENCE_SCORE.replace("  note 0 @ 0    +480  vel 96",
                                           "  note 0 @ 0 +480 vel 96  # first")
        assert parse_ok(respaced).instruments[0] is first.instruments[0]
        for (_, _, kind), text, cold in zip(edits, texts, expected):
            before = parse_ok(REFERENCE_SCORE)
            edited = parse_ok(text)
            assert edited == cold
            assert (edited.harmonies["H1"] is before.harmonies["H1"]) == (kind != "harmony")
            assert (edited.instruments[0] is before.instruments[0]) == (kind != "instrument")

    def test_reuse_does_not_depend_on_the_digit_limit(self):
        long = "1" + "0" * 699  # a 700-digit tick count
        text = (f"base 440\nppq 480\ntempo 120\nlength {long}\nscale s 1/1 3/2\n"
                f"harmony H level 1 scale s\n  tone 0 @ 0 +{long}\nend\n"
                f"instrument i scale s harmonies H\n  note 1 @ 0 +{long}\nend\n")
        with int_digit_limit(0):
            parse_ok(text)
        with int_digit_limit(640):
            errors = parse_errors(text)
            assert [(e.position.line, e.kind, e.message) for e in errors] == [
                (line, "range", "number too long for the int-string digit limit")
                for line in (4, 7, 10)]
            assert outcome(errors) == outcome(cold_parse(text))

    def test_a_kept_note_line_in_a_harmony_block_is_an_error_at_its_place(self):
        parse_ok(REFERENCE_SCORE)  # keeps '  note 0 @ 0    +480  vel 96'
        text = REFERENCE_SCORE.replace("  tone 0 @ 0    +960",
                                       "  tone 0 @ 0    +960\n  note 0 @ 0    +480  vel 96")
        errors = parse_errors(text)
        assert outcome(errors) == [
            (12, 3, "syntax", "expected 'tone' or 'end' inside harmony block, got 'note'")]
        assert outcome(errors) == outcome(cold_parse(text))

    def test_only_the_last_built_scores_blocks_are_kept(self):
        """The memo is the digit limit of the last parse that built a
        composition, and that composition's blocks and scale lines, long
        lines and all; they are taken only under that limit."""
        rng = random.Random(5)
        parse_ok(serialize(random_composition(rng, min_instruments=4, min_notes=10)))
        kept = scorefile._last_blocks
        assert len(kept[1]) > 4
        parse("base 440\n")  # errors: the blocks of the last composition built stay
        assert scorefile._last_blocks is kept
        far = "1" + "0" * 699  # a 700-digit duration, on a line of over 640 characters
        text = REFERENCE_SCORE.replace("  tone 1 @ 960  +960", f"  tone 1 @ 960  +{far}")
        lines = text.split("\n")
        with int_digit_limit(640):
            refused = outcome(cold_parse(text))
        assert refused == [(12, 18, "range", "number too long for the int-string digit limit")]
        with int_digit_limit(0):
            first = parse_ok(text)
            kept = scorefile._last_blocks
            assert (kept[0], {key: block[0] for key, block in kept[1].items()}) == (0, {
                ("scale", "just-major-7"): lines[6], ("scale", "fifths"): lines[7],
                ("harmony", "H1"): lines[10:13], ("instrument", "lead"): lines[15:19]})
        with int_digit_limit(640):  # lowered: refused as in a cold parse
            assert outcome(parse(text)) == refused
            assert scorefile._last_blocks is kept
        with int_digit_limit(0):  # the kept limit again: the kept blocks again
            again = parse_ok(text)
            assert again.harmonies["H1"] is first.harmonies["H1"]
            assert again.instruments[0] is first.instruments[0]
        with int_digit_limit(4300):  # raised: new blocks, equal to a cold parse's
            raised = parse_ok(text)
            assert scorefile._last_blocks[0] == 4300
            assert raised.harmonies["H1"] is not first.harmonies["H1"]
            assert raised == first == cold_parse(text)

    def test_a_reparse_returns_the_scales_of_unchanged_lines(self):
        text = REFERENCE_SCORE.replace("fifths        1/1 3/2", "fifths        1/1 4/3")
        cold = cold_parse(text)
        first = parse_ok(REFERENCE_SCORE)
        edited = parse_ok(text)
        assert edited.scales["just-major-7"] is first.scales["just-major-7"]
        assert edited.scales["fifths"] is not first.scales["fifths"]
        assert edited == cold
        # other spacing or a comment is another text: a new scale, an equal one
        respaced = text.replace("just-major-7  1/1", "just-major-7 1/1")
        again = parse_ok(respaced)
        assert again.scales["just-major-7"] is not first.scales["just-major-7"]
        assert again.scales["just-major-7"] == first.scales["just-major-7"]
        assert again.scales["fifths"] is edited.scales["fifths"]

    def test_a_duplicate_of_a_kept_scale_line_is_an_error_at_its_place(self):
        parse_ok(REFERENCE_SCORE)
        line = "scale fifths        1/1 3/2\n"
        text = REFERENCE_SCORE.replace(line, line + line)
        errors = parse_errors(text)
        assert outcome(errors) == [(9, 7, "duplicate-name", "scale 'fifths' already defined")]
        assert outcome(errors) == outcome(cold_parse(text))

    def test_a_parse_under_another_digit_limit_reuses_no_scale(self):
        with int_digit_limit(0):
            first = parse_ok(REFERENCE_SCORE)
            assert parse_ok(REFERENCE_SCORE).scales["fifths"] is first.scales["fifths"]
        with int_digit_limit(640):
            other = parse_ok(REFERENCE_SCORE)
        assert all(other.scales[name] is not scale for name, scale in first.scales.items())
        assert other == first

    def test_errors_after_reused_lines_keep_their_lines(self):
        parse_ok(REFERENCE_SCORE)
        text = REFERENCE_SCORE.replace("  note 4 @ 960  +960  vel 112",
                                       "  note 4 @ 960  +960  vel 112\n  note 5 @ x +1\nbogus")
        errors = parse_errors(text)
        assert outcome(errors) == [
            (19, 12, "syntax", "expected an integer, got 'x'"),
            (20, 1, "syntax", "expected 'note' or 'end' inside instrument block, got 'bogus'")]
        assert outcome(errors) == outcome(cold_parse(text))

    def test_parses_in_threads_equal_cold_parses(self):
        rng = random.Random(9)
        texts = [serialize(random_composition(rng, min_instruments=2, min_notes=5))
                 for _ in range(4)]
        texts += [edit(rng, text) for text in texts]
        expected = [outcome(cold_parse(text)) for text in texts]
        wrong = []

        def work(offset):
            try:
                for i in range(60):
                    k = (offset + i) % len(texts)
                    if outcome(parse(texts[k])) != expected[k]:
                        wrong.append(k)
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


def block_edit(rng: random.Random, text: str) -> str:
    """``text`` with one block moved, copied, cut short or given another
    header, or a line put before it."""
    lines = text.split("\n")
    heads = [i for i, line in enumerate(lines) if line.startswith(("harmony ", "instrument "))]
    if not heads:
        return text
    i = rng.choice(heads)
    j = lines.index("end", i) + 1
    block = lines[i:j]
    kind = rng.choice(["move", "copy", "cut", "line", "header"])
    if kind in ("move", "copy"):
        if kind == "move":
            del lines[i:j]
        k = rng.randrange(len(lines) + 1)
        lines[k:k] = block
    elif kind == "cut":
        del lines[j - 1]
    elif kind == "line":
        lines.insert(i, rng.choice(["", "# a comment", "bogus", "end", "  note 0 @ 0 +1"]))
    else:
        lines[i] = (lines[i].split(" harmonies ")[0] if lines[i].startswith("instrument")
                    else lines[i].replace(" level ", " level 1"))
    return "\n".join(lines)


class TestBlockSkip:
    """A block body whose lines equal those of the block of its kind and
    name in the last composition built is not walked; every parse still
    equals a cold one."""

    LINES = REFERENCE_SCORE.split("\n")
    HARMONY = "\n".join(LINES[9:13]) + "\n"  # 'harmony H1 ...' up to its 'end'
    INSTRUMENT = "\n".join(LINES[14:19]) + "\n"  # 'instrument lead ...' up to its 'end'

    @staticmethod
    def warm(monkeypatch, text, before=REFERENCE_SCORE):
        """``parse(text)`` after a parse of ``before`` (none if None), and
        the numbers of the lines it tokenised."""
        if before is not None:
            parse_ok(before)
        tokenised, dispatch = [], scorefile._Parser.dispatch

        def recorded(self, toks):
            tokenised.append(self.ln)
            return dispatch(self, toks)

        with monkeypatch.context() as patch:
            patch.setattr(scorefile._Parser, "dispatch", recorded)
            return parse(text), tokenised

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None, database=None)
    def test_a_parse_after_a_block_edit_equals_a_cold_parse(self, seed):
        rng = random.Random(seed)
        before = serialize(random_composition(rng, max_ticks=2000))
        after = block_edit(rng, before)
        parse(before)
        warm = parse(after)
        assert outcome(warm) == outcome(cold_parse(after)), after

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None, database=None)
    def test_a_parse_after_a_block_edit_and_a_limit_switch_equals_a_cold_parse(self, seed):
        rng = random.Random(seed)
        before = serialize(random_composition(rng, max_ticks=2000))
        if rng.random() < 0.5:  # a 700-digit duration, which only the limit 640 refuses
            before = re.sub(r"(?m)^(  (?:tone|note) [^+]*\+)[0-9]+", rf"\g<1>1{'0' * 699}",
                            before, count=1)
        after = block_edit(rng, before)
        kept, limit = rng.sample([0, 640, 4300], 2)
        with int_digit_limit(kept):
            parse(before)
        with int_digit_limit(limit):
            warm = parse(after)
            assert outcome(warm) == outcome(cold_parse(after)), after

    def test_a_reparse_tokenises_only_the_headers(self, monkeypatch):
        first = parse_ok(REFERENCE_SCORE)
        again, tokenised = self.warm(monkeypatch, REFERENCE_SCORE)
        assert tokenised == [2, 3, 4, 5, 7, 8, 10, 15]
        assert again.harmonies["H1"] is first.harmonies["H1"]
        assert again.instruments[0] is first.instruments[0]

    def test_moved_blocks_keep_the_positions_of_later_lines(self, monkeypatch):
        # the instrument before the harmony, a comment between, and the
        # harmony's scale gone: its bad reference and a bad line after it
        text = "\n".join([*self.LINES[:7], "", self.INSTRUMENT, "# moved", self.HARMONY,
                          "bogus", ""])
        errors, tokenised = self.warm(monkeypatch, text)
        assert outcome(errors) == [(16, 26, "bad-reference", "unknown scale 'fifths'"),
                                   (21, 1, "unknown-directive", "unknown directive 'bogus'")]
        assert tokenised == [2, 3, 4, 5, 7, 9, 16, 21]
        assert outcome(errors) == outcome(cold_parse(text))

    def test_inserted_lines_move_the_positions_of_a_kept_block(self, monkeypatch):
        text = REFERENCE_SCORE.replace("\nharmony", "\n\n# a comment\nharmony").replace(
            "harmonies H1", "harmonies H1 H2")
        errors, tokenised = self.warm(monkeypatch, text + "note 0 @ 0 +1\n")
        assert outcome(errors) == [
            (17, 49, "bad-reference", "unknown harmony 'H2'"),
            (22, 1, "syntax", "'note' outside a block")]
        assert tokenised == [2, 3, 4, 5, 7, 8, 12, 17, 22]
        assert outcome(errors) == outcome(cold_parse(text + "note 0 @ 0 +1\n"))
        edited, _ = self.warm(monkeypatch, text.replace(" H2", ""))
        assert edited == cold_parse(text.replace(" H2", ""))

    def test_a_duplicate_block_with_a_kept_body_is_not_taken(self, monkeypatch):
        text = REFERENCE_SCORE + self.HARMONY.replace("level 1", "level 2") + self.INSTRUMENT
        errors, tokenised = self.warm(monkeypatch, text)
        assert outcome(errors) == [
            (20, 9, "duplicate-name", "harmony 'H1' already defined"),
            (24, 12, "duplicate-name", "instrument 'lead' already defined")]
        assert tokenised == [2, 3, 4, 5, 7, 8, 10, 15, *range(20, 29)]  # the duplicates walked
        assert outcome(errors) == outcome(cold_parse(text))

    @pytest.mark.parametrize("text,expected", [
        (REFERENCE_SCORE + "harmony H2 level 2 scale fifths\n  tone 0 @ 0 +1920\n",
         [(20, 1, "syntax", "harmony 'H2' is missing its 'end' line")]),
        (REFERENCE_SCORE.replace("vel 112\nend\n", "vel 112\n"),
         [(15, 1, "syntax", "instrument 'lead' is missing its 'end' line")]),
        (REFERENCE_SCORE.replace("+960\nend\n", "+960\n"),
         [(14, 1, "syntax", "missing 'end' for harmony 'H1' before 'instrument'")]),
    ], ids=["after-the-kept-bodies", "after-a-kept-body", "a-kept-body-without-it"])
    def test_a_block_missing_its_end(self, monkeypatch, text, expected):
        errors, _ = self.warm(monkeypatch, text)
        assert outcome(errors) == expected
        assert outcome(errors) == outcome(cold_parse(text))

    @pytest.mark.parametrize("old,new,kind", [
        ("H1 level 1", "H1 level 2", "harmony"),
        ("scale fifths\n  tone", "scale just-major-7\n  tone", "harmony"),
        ("lead scale just-major-7", "lead scale fifths", "instrument"),
        ("harmonies H1", "harmonies H1 H1", "instrument"),
    ])
    def test_an_edited_header_over_a_kept_body(self, monkeypatch, old, new, kind):
        first = parse_ok(REFERENCE_SCORE)
        text = REFERENCE_SCORE.replace(old, new)
        edited, tokenised = self.warm(monkeypatch, text)
        assert tokenised == [2, 3, 4, 5, 7, 8, 10, 15]
        assert edited == cold_parse(text)
        harmony, instrument = edited.harmonies["H1"], edited.instruments[0]
        assert (harmony is first.harmonies["H1"]) == (kind != "harmony")
        assert (instrument is first.instruments[0]) == (kind != "instrument")
        # a new block, built from the very events kept
        assert all(a is b for a, b in zip(harmony.tones, first.harmonies["H1"].tones))
        assert all(a is b for a, b in zip(instrument.score.notes,
                                          first.instruments[0].score.notes))

    def test_an_edited_body_with_blank_and_comment_lines(self, monkeypatch):
        before = REFERENCE_SCORE.replace("vel 96\n", "vel 96\n\n    # a comment\n", 1)
        text = before.replace("note 4 @ 960", "note 5 @ 960")
        edited, tokenised = self.warm(monkeypatch, text, before=before)
        assert tokenised == [2, 3, 4, 5, 7, 8, 10, 15, 20, 21]
        assert edited == cold_parse(text)

    def test_a_body_with_a_long_line_is_skipped_under_its_digit_limit(self, monkeypatch):
        far = "1" + "0" * 699  # a 700-digit duration, on a line of over 640 characters
        text = REFERENCE_SCORE.replace("+960\nend", f"+{far}\nend")
        headers = [2, 3, 4, 5, 7, 8, 10, 15]
        every = [2, 3, 4, 5, 7, 8, 10, 11, 12, 13, 15, 16, 17, 18, 19]
        with int_digit_limit(640):
            refused = outcome(cold_parse(text))
        assert refused == [(12, 18, "range", "number too long for the int-string digit limit")]
        with int_digit_limit(0):
            cold = cold_parse(text)
            kept, tokenised = self.warm(monkeypatch, text, before=text)
            assert (kept, tokenised) == (cold, headers)  # the long body is not walked
        with int_digit_limit(640):  # lowered: every line read again, and refused
            errors, tokenised = self.warm(monkeypatch, text, before=None)
            assert (outcome(errors), tokenised) == (refused, every)
        for limit, walked in ((0, headers), (4300, every)):  # the kept limit again, a raised one
            with int_digit_limit(limit):
                edited, tokenised = self.warm(monkeypatch, text, before=None)
                assert (edited, tokenised) == (cold, walked)

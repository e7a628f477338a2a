"""``parse`` against the frozen reference parser in ``reference_parser``.

Both must return an equal Composition, or the same list of
``(line, column, kind, message)`` errors, on line soups built from the
grammar's pieces (well-formed and broken lines of every directive), on
free text, on the checked-in scores and on serialized random compositions.
Each text is parsed with the event lines of the previous example kept,
again with its own kept, and cold.
"""

import random
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_parser
from dtseq import parse, serialize
from dtseq.scorefile import PARSE_ERROR_KINDS
from support import cold_parse, outcome, random_composition

SCORES = Path(__file__).resolve().parent.parent / "scores"

HEADER = ["base 440", "ppq 480", "tempo 120", "length 960"]
BROKEN_HEADER = [
    "base", "base 0", "base -1", "base inf", "base nan", "base x", "base 440 1",
    "ppq 0", "ppq 1/2", "ppq 4.5", "ppq ٤٨٠", "tempo 1e-307",
    "length 960 960", "length 1" + "0" * 400, "length ９６０", "length 1_920",
    "base ４４０", "tempo 1_20", "ppq",
]
SCALES = [
    "scale s 1/1 3/2 5/4", "scale t 1 2 3", "scale s 9/8", "scale", "scale 1s 1/1",
    "scale u 1/1 2/2", "scale u 1/1 6/4 3/2", "scale v 0/1 1/0", "scale v a/b 3/2",
    "scale w 1/1 ٣/2", "scale w " + "7" * 5000 + "/1", "scale x 1/1 3/2 # comment",
]
HARMONIES = [
    "harmony H level 1 scale s", "harmony H level 2 scale t", "harmony G level 1 scale t",
    "harmony H level 0 scale s", "harmony H level 1/2 scale s", "harmony H",
    "harmony H lvl 1 scale s", "harmony H level 1 scale s extra", "harmony 1H level 1 scale s",
    "harmony K level 1 scale missing", "harmony H level x tonic s",
]
INSTRUMENTS = [
    "instrument i scale s", "instrument i scale s harmonies H",
    "instrument j scale t harmonies H G", "instrument j scale s harmonies",
    "instrument i scale s harm H", "instrument k scale s harmonies H 1bad",
    "instrument", "instrument k scale", "instrument m scale missing harmonies ghost",
    "instrument 2i scale s",
]
EVENTS = [  # well-formed for both words
    "{w} 0 @ 0 +960", "{w} 1 @ 0 +480", "{w} 2 @ 480 +480", "{w} 0@0+960", "{w} 1@480+480",
    "\t{w}\t0\t@\t0\t+960", "{w} 0 @ 0 +960 # trailing", "{w} 0 @ 0 +960#x",
    "{w} ١ @ ٠ +٩٦٠", "{w} 0 @ 0 +1_000", "{w} 5 @ 900 +60", "{w} 00 @ 000 +0960",
]
VELOCITIES = ["{w} 0 @ 0 +480 vel 96", "{w} 1 @ 480 +480 vel 1", "{w} 0 @ 0 +480 vel 127"]
BROKEN_EVENTS = [
    "{w} 0 @ 0 +480 vel 0", "{w} 0 @ 0 +480 vel 128", "{w} 0 @ 0 +480 vel",
    "{w} 0 @ 0 +480 vel 1 2", "{w} 0 @ 0 +480 velocity 3", "{w} 0 @ 0 +480 vel x",
    "{w} 0 @ 0 +480 extra", "{w} 0 @ 0", "{w} 0 @ 0 +0", "{w} -1 @ -1 +1", "{w} 0 0 + 1",
    "{w} 0 @ 0 480", "{w} 1/2 @ 0 +1", "{w} 0 @ 1/2 +1/3", "{w}", "{w} 0 @ 0 ++ 1",
]
ALL_EVENTS = EVENTS + VELOCITIES + BROKEN_EVENTS
MISC = ["end", "end extra", "end # done", "", "   ", "# comment", "bogus", "@ +", "+",
        "été 1", "\x00", "note", "tone"]
# characters str.splitlines() ends a line at, which are whitespace in a score
SEPARATED = [piece.format(s=s) for s in ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                          "\u2028", "\u2029")
             for piece in ("# fifth{s}above", "base{s}440", "scale{s}s 1/1{s}3/2", "end{s}",
                           "{s}", "tone 0 @ 0{s}+960", "note 1{s}@ 480 +480 # x{s}y")]
# a token or number longer than a message shows whole, where each kind of
# message quotes one (a soup that takes a name twice defines it again)
LONG = ["length -" + "1" * 5000, "ppq -" + "1" * 4000, "base 1" + "0" * 5000,
        "tempo " + "9" * 50 + "x", "scale s 1/1 " + "1" * 60 + "x/1",
        "scale t 1/1 " + "0" * 60 + "/1", "scale t 1/1 " + "3" * 50 + "/1 " + "3" * 50 + "/1",
        "x" * 5000, "harmony H " + "l" * 60 + " 1 scale s",
        "harmony " + "H" * 60 + " level 1 scale s",
        "instrument " + "i" * 60 + " scale " + "z" * 60 + " harmonies " + "g" * 60,
        "instrument i scale s harmonies H " + "1" * 60, "note 0 @ 0 +480 vel " + "9" * 50,
        "tone " + "1/" * 30 + " @ 0 +1", "note 0 @ -" + "1" * 60 + " +1",
        "scale " + "s" * 60 + " 1/1"]
PIECES = (HEADER + BROKEN_HEADER + SCALES + HARMONIES + INSTRUMENTS + MISC + SEPARATED + LONG
          + [e.format(w=w) for e in ALL_EVENTS for w in ("tone", "note")])


def assert_same(text):
    """Warm from the previous example, warm from this text, then cold."""
    expected = outcome(reference_parser.parse(text))
    for result in (parse(text), parse(text), cold_parse(text)):
        assert outcome(result) == expected, text
        if isinstance(result, list):
            assert {e.kind for e in result} <= set(PARSE_ERROR_KINDS)


@st.composite
def line_soups(draw):
    """Pieces in any order, often after a clean header so that soups which
    parse to a Composition are common too."""
    lines = list(HEADER) if draw(st.booleans()) else []
    lines += draw(st.lists(st.sampled_from(PIECES), max_size=16))
    indent = draw(st.sampled_from(["", "  ", "\t"]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(indent + line for line in lines) + draw(st.sampled_from(["", end]))


@st.composite
def block_soups(draw):
    """Well-formed blocks with some lines swapped for pieces, so that lines
    land both inside and outside open blocks."""
    lines = list(HEADER) + ["scale s 1/1 3/2 5/4", "scale t 1 2 3"]
    for header, word in (("harmony H level 1 scale s", "tone"),
                         ("harmony G level 1 scale t", "tone"),
                         ("instrument i scale s harmonies H", "note"),
                         ("instrument j scale t harmonies G", "note")):
        lines.append(header)
        vel = VELOCITIES * 3 if word == "note" else VELOCITIES
        events = st.sampled_from(EVENTS * 6 + vel + BROKEN_EVENTS)
        lines += [e.format(w=word) for e in draw(st.lists(events, max_size=4))]
        lines.append("end")
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        position = draw(st.integers(0, len(lines)))
        if draw(st.booleans()) and position < len(lines):
            lines[position] = draw(st.sampled_from(PIECES))
        else:
            lines.insert(position, draw(st.sampled_from(PIECES)))
    return "\n".join(lines)


@settings(max_examples=1000, deadline=None, database=None)
@given(text=line_soups())
def test_line_soups_parse_alike(text):
    assert_same(text)


@settings(max_examples=1000, deadline=None, database=None)
@given(text=block_soups())
def test_block_soups_parse_alike(text):
    assert_same(text)


@settings(max_examples=300, deadline=None, database=None)
@given(text=st.text(max_size=200))
def test_free_text_parses_alike(text):
    assert_same(text)


def test_scores_parse_alike():
    for path in sorted(SCORES.glob("*.dts")):
        assert_same(path.read_bytes())


def test_serialized_random_compositions_parse_alike():
    rng = random.Random(2016)
    for _ in range(100):
        assert_same(serialize(random_composition(rng, max_ticks=2000)))

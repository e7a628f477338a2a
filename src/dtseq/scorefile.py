"""The ``.dts`` score format: a line-oriented text DSL for compositions.

One directive per line; only LF, CRLF and CR end a line, and any other
Unicode whitespace (such as VT, FF or U+2028) separates tokens like a
space.  ``#`` starts a comment; only ASCII is significant (files are read
as UTF-8).  A complete file::

    base    440.0           # root frequency in Hz
    ppq     480             # ticks per beat
    tempo   120             # beats per minute
    length  1920            # composition length in ticks

    scale fifths 1/1 3/2

    harmony H1 level 1 scale fifths
      tone 0 @ 0 +960       # key index, '@' start tick, '+' duration
      tone 1 @ 960 +960
    end

    instrument lead scale fifths harmonies H1
      note 0 @ 0 +480 vel 96
      note 1 @ 480 +480     # vel defaults to 96
    end

Key references are 0-based indices into the named scale.  ``parse`` never
raises on malformed input: it returns either a Composition or the complete
list of errors found, recovering at line granularity so one bad line does
not hide later ones.  ``serialize`` emits a canonical form (fixed section
order, entities sorted by name, tones sorted by start, notes in score
order, ratios reduced) and is a fixpoint under re-parsing.

A leading UTF-8 byte-order mark (U+FEFF) is dropped.

A number has no more digits than the int-string digit limit
(``sys.get_int_max_str_digits``, which ``PYTHONINTMAXSTRDIGITS`` sets),
read or written: ``parse`` reports a longer one at its place without
quoting it (a ``range`` error for a whole number, ``bad-ratio`` for a
ratio part), and ``serialize`` raises ValueError naming the place of the
first one it would write.  Any other token or number a parse message
quotes is shown whole up to 40 characters, and a longer one as its first
20, ``…`` and its length, so that the message stays one short line.

Reuse: ``parse`` keeps each block (``harmony ... end`` or ``instrument
... end``) and each ``scale`` line of the last composition it built, by
kind and name.  A body equal to the kept one line for line is not walked
but takes its events; in any other, a line with the text of a kept event
line reuses its event.  A block with the kept header fields and events
is the kept object, and a scale line with the kept text the kept Scale.
``serialize`` keeps the text it wrote for each block, by kind and name,
and takes it for the very object it wrote it for; a block ``parse``
builds from exactly that text is given it too.  So after an edit both
redo only the blocks it changed, once.  What is kept is tagged with the
digit limit of the call that made it, the one setting that changes how a
number reads, and a call under another limit uses none of it; so every
result equals a cold call's.  What is kept is immutable, so sharing it
is safe, and it is one score's: each call replaces it.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    DEFAULT_VELOCITY,
    Composition,
    HarmonicSequence,
    Instrument,
    InstrumentScore,
    Note,
    TimeInterval,
    TranspositionTone,
)
from .rational import IDENTIFIER_RE, Scale, _shown, ratio_text

PARSE_ERROR_KINDS = (
    "syntax", "unknown-directive", "bad-ratio", "bad-reference",
    "duplicate-name", "range",
)

_HEADER_FIELDS = ("base", "ppq", "tempo", "length")
_TOP_DIRECTIVES = {"base", "ppq", "tempo", "length", "scale", "harmony", "instrument"}
_EVENT_WORD = {"harmony": "tone", "instrument": "note"}  # the word of a block's lines but 'end'

_RATIO_RE = re.compile(r"([0-9]+)(?:/([0-9]+))?\Z")

# The digit limit of the last parse that built a composition (0 on a Python
# without one), and its blocks: (kind, name) -> (body lines after the
# header, 'end' included; its clean event lines, raw text -> the immutable
# event built from it; the header line; header fields; events in file order;
# the HarmonicSequence or Instrument), and ('scale', name) -> (its line, the
# Scale).  Each call fills a new dict and only then puts it here with its
# limit, in one assignment, so a parse running in another thread reads a
# finished pair; so do serialize and parse with the memo below.
_last_blocks: tuple[int, dict[tuple[str, str], tuple]] = (0, {})
# The digit limit of the last serialize, and its blocks: (kind, name) ->
# (object, text), the text serialize writes for that very object; parse
# hands a block it built from that text the text too.
_last_texts: tuple[int, dict[tuple[str, str], tuple]] = (0, {})


@dataclass(frozen=True)
class SourcePosition:
    line: int
    column: int


@dataclass(frozen=True)
class ParseError:
    position: SourcePosition
    kind: str
    message: str


def parse(text: str | bytes) -> Composition | list[ParseError]:
    """Parse score text into a Composition, or return every error found.

    The result is canonical: instruments sorted by name, tones sorted by
    start, notes in score order.  Semantic checks that need the whole
    composition (key ranges, timeline coverage) are left to
    ``validate_composition``; a file can parse cleanly and still fail
    validation.

    A re-parse walks and builds only the blocks an edit changed (see the
    module docstring); the result equals a cold parse.
    """
    global _last_blocks, _last_texts
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    limit, (tag, kept) = getattr(sys, "get_int_max_str_digits", int)(), _last_blocks
    parser = _Parser(kept if tag == limit else {})
    parser.run(text.removeprefix("\ufeff"))
    if parser.errors:
        return sorted(parser.errors, key=lambda e: (e.position.line, e.position.column))
    composition, blocks = parser.build()
    # a block built from exactly the text serialize last wrote for its kind
    # and name, under this limit, takes that text in serialize's memo
    tag, texts = _last_texts
    written = {key: (block[5], text) for key, (was, text) in texts.items() if tag == limit
               and (block := blocks.get(key)) and block[5] is not was
               and text == "\n".join((block[2], *block[0]))}
    if written:
        _last_texts = limit, {**texts, **written}
    _last_blocks = limit, blocks
    return composition


class _Parser:
    def __init__(self, kept: dict[tuple[str, str], tuple]):
        self.kept = kept  # the blocks of _last_blocks; self.blocks will be the next ones
        self.blocks: dict[tuple[str, str], tuple] = {}  # (body, clean, header) until build
        self.errors: list[ParseError] = []
        self.header: dict[str, float | int | None] = {}  # None: given, with an error
        self.scales: dict[str, Scale] = {}
        # Drafts by name, each led by its scale reference and its position:
        # harmony -> (scale, (line, col), level, tones);
        # instrument -> (scale, (line, col), [(harmony, (line, col))], notes).
        self.harmonies: dict[str, tuple] = {}
        self.instruments: dict[str, tuple] = {}
        # The open block: (kind, name, list its events go to, opening line,
        # kept and new clean event lines); after a broken or duplicate header
        # the list is None and the name '?': its lines are checked and dropped.
        self.block: tuple[str, str, list | None, int, dict, dict] | None = None
        # number (1-based: the index of the next line) and comment-free text of
        # the line being parsed, and its token columns once an error or reference needs one
        self.ln = 0
        self.code = ""
        self.cols: list[int] | None = None

    def error(self, line: int, column: int, kind: str, message: str) -> None:
        self.errors.append(ParseError(SourcePosition(line, column), kind, message))

    def column(self, toks: list[str], index: int) -> int:
        """1-based column of ``toks[index]`` in the current line."""
        if self.cols is None:
            self.cols = self.columns(toks)
        return self.cols[index]

    def columns(self, toks: list[str]) -> list[int]:
        """The 1-based column of each token of the current line, in one
        walk.  Each token is found after the end of the one before it, so
        a text repeated on the line is not taken for its earlier
        occurrence."""
        cols, end = [], 0
        for tok in toks:
            start = self.code.find(tok, end)
            cols.append(start + 1)
            end = start + len(tok)
        return cols

    def fail(self, toks: list[str], index: int, kind: str, message: str) -> None:
        """Report an error at ``toks[index]`` of the current line."""
        self.error(self.ln, self.column(toks, index), kind, message)

    # Line loop

    def run(self, text: str) -> None:
        # Only \n, \r\n and \r end a line: the other separators that
        # str.splitlines() ends one at (\v, \x85, U+2028...) are whitespace.
        # A text with no \r is split as it is, with no copy rewritten.
        # 'while True': CPython 3.11 specialises a function called once only
        # after unconditional backward jumps, which 'while COND' does not make.
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        self.lines = lines = text.split("\n")
        while True:  # open() moves self.ln past the bodies it reuses
            if (ln := self.ln) >= len(lines):
                break
            raw = lines[ln]
            self.ln = ln + 1
            block = self.block
            if block is not None:
                event = block[4].get(raw)
                if event is not None:
                    block[5][raw] = event
                    block[2].append(event)
                    continue
            # '@' and '+' are tokens of their own; everything else splits
            # on whitespace.  Columns are found only when a line needs one.
            self.code = raw.partition("#")[0]
            self.cols = None
            tokens = self.code.replace("@", " @ ").replace("+", " + ").split()
            if tokens:
                event = self.dispatch(tokens)
                if event is not None:
                    self.block[5][raw] = event
        if self.block is not None:
            kind, name, _, opened, *_ = self.block
            self.error(opened, 1, "syntax", f"{kind} {_shown(name)} is missing its 'end' line")
        self.finalize()

    def dispatch(self, toks: list[str]) -> Note | TranspositionTone | None:
        """Handle one line; return the event of a clean event line."""
        head = toks[0]
        if self.block is not None:
            kind, name, items, opened, _, new = self.block
            if head == "end":
                if len(toks) > 1:
                    self.fail(toks, 1, "syntax", "unexpected tokens after 'end'")
                # kept if all is clean
                self.blocks[kind, name] = (self.lines[opened:self.ln], new, self.lines[opened - 1])
                self.block = None
                return
            if head == _EVENT_WORD[kind]:
                event = self.event_line(toks)
                if event is not None and items is not None:
                    items.append(event)
                return event
            if head in _TOP_DIRECTIVES:
                self.fail(toks, 0, "syntax",
                          f"missing 'end' for {kind} {_shown(name)} before {head!r}")
                self.block = None
                # fall through: handle this line at top level
            else:
                self.fail(toks, 0, "syntax", f"expected {_EVENT_WORD[kind]!r} or 'end' "
                                             f"inside {kind} block, got {_shown(head)}")
                return

        if head in _HEADER_FIELDS:
            self.header_line(toks)
        elif head == "scale":
            self.scale_line(toks)
        elif head == "harmony":
            self.open("harmony", *self.harmony_line(toks))
        elif head == "instrument":
            self.open("instrument", *self.instrument_line(toks))
        elif head in ("tone", "note", "end"):
            self.fail(toks, 0, "syntax", f"{head!r} outside a block")
        else:
            self.fail(toks, 0, "unknown-directive", f"unknown directive {_shown(head)}")

    def open(self, kind: str, name: str, items: list | None) -> None:
        """Open a block; take the kept events where the next lines are its kept body."""
        body, clean, _, _, events, *_ = self.kept.get((kind, name), ((), {}, "", None, ()))
        if body and self.lines[self.ln:self.ln + len(body)] == body:
            items += events
            self.blocks[kind, name] = (body, clean, self.lines[self.ln - 1])
            self.ln += len(body)  # the walk goes on after 'end'
        else:
            self.block = (kind, name, items, self.ln, clean, {})

    # Directive handlers; a field is given by its token index

    def header_line(self, toks: list[str]) -> None:
        name = toks[0]  # the line gives the field, even with a bad value
        if name in self.header:
            self.fail(toks, 0, "duplicate-name", f"duplicate {name!r} directive")
        elif len(toks) != 2:
            self.header[name] = None
            self.fail(toks, 0, "syntax", f"expected '{name} VALUE'")
        elif name in ("ppq", "length"):
            self.header[name] = self.int_field(toks, 1, minimum=1)
        else:
            self.header[name] = self.float_field(toks, 1)

    def int_field(self, toks: list[str], index: int, minimum: int) -> int | None:
        text = toks[index]
        try:
            if "_" in text or not text.isascii():  # int() takes both; the format does not
                raise ValueError(text)
            value = int(text)
        except ValueError:
            if "/" in text:
                # a ratio where a 0-based index or tick count belongs
                self.fail(toks, index, "bad-ratio", f"{_shown(text)} is not an integer; keys and "
                                                    f"ticks are plain indices, not ratios")
            elif text.isascii() and text.isdigit():  # exceeds the int-string digit limit
                self.fail(toks, index, "range", "number too long for the int-string digit limit")
            else:
                self.fail(toks, index, "syntax", f"expected an integer, got {_shown(text)}")
            return None
        if value < minimum:
            self.fail(toks, index, "range", f"value {_shown(value, False)} must be >= {minimum}")
            return None
        return value

    def float_field(self, toks: list[str], index: int) -> float | None:
        text = toks[index]
        try:
            if "_" in text or not text.isascii():  # as in int_field
                raise ValueError(text)
            value = float(text)
        except ValueError:
            self.fail(toks, index, "syntax", f"expected a number, got {_shown(text)}")
            return None
        if math.isfinite(value) and value > 0:
            return value
        self.fail(toks, index, "range", f"value {_shown(text, False)} must be positive and finite")

    def name_field(self, toks: list[str], index: int, what: str) -> str | None:
        if index >= len(toks):
            self.fail(toks, 0, "syntax", f"missing {what}")
            return None
        if not IDENTIFIER_RE.match(toks[index]):
            self.fail(toks, index, "syntax", f"invalid {what}: {_shown(toks[index])}")
            return None
        return toks[index]

    def keyword(self, toks: list[str], index: int, word: str) -> bool:
        # every caller has checked that toks[index] exists
        if toks[index] == word:
            return True
        self.fail(toks, index, "syntax", f"expected {word!r}, got {_shown(toks[index])}")
        return False

    def ratio_field(self, toks: list[str], index: int) -> Fraction | None:
        text = toks[index]
        m = _RATIO_RE.match(text)
        if not m:
            self.fail(toks, index, "bad-ratio", f"malformed ratio {_shown(text)}")
            return None
        try:
            num = int(m.group(1))
            den = int(m.group(2)) if m.group(2) else 1
        except ValueError:  # exceeds the int-string digit limit
            self.fail(toks, index, "bad-ratio", "ratio parts too long")
            return None
        if num == 0 or den == 0:
            self.fail(toks, index, "bad-ratio",
                      f"ratio {_shown(text, False)} has a zero part; ratios must be positive")
            return None
        return Fraction(num, den)

    def scale_line(self, toks: list[str]) -> None:
        name = self.name_field(toks, 1, "scale name")
        if name is None:
            return
        raw, was = self.lines[self.ln - 1], self.kept.get(("scale", name))
        keys = None if was and was[0] == raw else self.scale_keys(toks)  # a kept line is clean
        if name in self.scales:
            self.fail(toks, 1, "duplicate-name", f"scale {_shown(name)} already defined")
            return
        self.scales[name] = scale = was[1] if keys is None else Scale(name, keys)
        self.blocks["scale", name] = (raw, scale)

    def scale_keys(self, toks: list[str]) -> list[Fraction]:
        keys: dict[Fraction, None] = {}  # ordered, with O(1) duplicate checks
        for i in range(2, len(toks)):
            key = self.ratio_field(toks, i)
            if key is None:
                continue
            if key in keys:
                self.fail(toks, i, "bad-ratio",
                          f"duplicate key {_shown(ratio_text(key), False)} in scale")
                continue
            keys[key] = None
        if not keys:
            self.fail(toks, 0, "syntax", "scale needs at least one key")
            return [Fraction(1)]
        return list(keys)

    def harmony_line(self, toks: list[str]) -> tuple[str, list | None]:
        """The open block's name and tone list; ('?', None) when broken."""
        if len(toks) < 6:
            self.fail(toks, -1, "syntax", "expected 'harmony NAME level N scale SCALE'")
            return "?", None
        name = self.name_field(toks, 1, "harmony name")
        if (name is not None
                and self.keyword(toks, 2, "level")
                and (level := self.int_field(toks, 3, minimum=1)) is not None
                and self.keyword(toks, 4, "scale")
                and (scale := self.name_field(toks, 5, "scale name")) is not None):
            if len(toks) > 6:
                self.fail(toks, 6, "syntax", "unexpected tokens after harmony header")
            elif name in self.harmonies:
                self.fail(toks, 1, "duplicate-name", f"harmony {_shown(name)} already defined")
            else:
                tones: list[TranspositionTone] = []
                self.harmonies[name] = (scale, (self.ln, self.column(toks, 5)), level, tones)
                return name, tones
        return "?", None

    def instrument_line(self, toks: list[str]) -> tuple[str, list | None]:
        """The open block's name and note list; ('?', None) when broken."""
        if len(toks) < 4:
            self.fail(toks, -1, "syntax",
                      "expected 'instrument NAME scale SCALE [harmonies H1 ...]'")
            return "?", None
        name = self.name_field(toks, 1, "instrument name")
        if (name is not None
                and self.keyword(toks, 2, "scale")
                and (scale := self.name_field(toks, 3, "scale name")) is not None):
            ok = len(toks) == 4 or self.keyword(toks, 4, "harmonies")
            if ok and len(toks) == 5:
                self.fail(toks, 4, "syntax", "'harmonies' needs at least one harmony name")
                ok = False
            refs: list[tuple[str, tuple[int, int]]] = []
            for i in range(5, len(toks)) if ok else ():
                if IDENTIFIER_RE.match(toks[i]):
                    refs.append((toks[i], (self.ln, self.column(toks, i))))
                else:
                    self.fail(toks, i, "syntax", f"invalid harmony name: {_shown(toks[i])}")
                    ok = False
            if ok and name in self.instruments:
                self.fail(toks, 1, "duplicate-name", f"instrument {_shown(name)} already defined")
            elif ok:
                notes: list[Note] = []
                self.instruments[name] = (scale, (self.ln, self.column(toks, 3)), refs, notes)
                return name, notes
        return "?", None

    def event_line(self, toks: list[str]) -> Note | TranspositionTone | None:
        """A 'tone' or 'note' line, 'KEY @ START +DURATION': a tone takes
        nothing after it, a note an optional 'vel V'.  Returns the event,
        or None when the line has an error."""
        word = toks[0]
        if len(toks) < 6:
            self.fail(toks, -1, "syntax", f"expected '{word} KEY @ START +DURATION'")
            return
        key = self.int_field(toks, 1, minimum=0)
        if not self.keyword(toks, 2, "@"):
            return
        start = self.int_field(toks, 3, minimum=0)
        if not self.keyword(toks, 4, "+"):
            return
        duration = self.int_field(toks, 5, minimum=1)
        if key is None or start is None or duration is None:
            return
        velocity = DEFAULT_VELOCITY
        if len(toks) > 6:
            if word == "tone":
                self.fail(toks, 6, "syntax", "unexpected tokens after tone")
                return
            if not self.keyword(toks, 6, "vel"):
                return
            if len(toks) != 8:
                self.fail(toks, 7 if len(toks) > 7 else 6, "syntax",
                          "expected 'vel VALUE' and nothing after")
                return
            velocity = self.int_field(toks, 7, minimum=1)
            if velocity is None:
                return
            if velocity > 127:
                self.fail(toks, 7, "range",
                          f"velocity {_shown(velocity, False)} must be in [1, 127]")
                return
        interval = TimeInterval(start, duration)
        return (TranspositionTone(key, interval) if word == "tone"
                else Note(key, interval, velocity))

    # Whole-file checks and assembly

    def finalize(self) -> None:
        for name in _HEADER_FIELDS:
            if name not in self.header:
                self.error(1, 1, "syntax", f"missing {name!r} directive")
        for scale, (ln, col), *_ in (*self.harmonies.values(), *self.instruments.values()):
            if scale not in self.scales:
                self.error(ln, col, "bad-reference", f"unknown scale {_shown(scale)}")
        for _, _, refs, _ in self.instruments.values():
            for name, (ln, col) in refs:
                if name not in self.harmonies:
                    self.error(ln, col, "bad-reference", f"unknown harmony {_shown(name)}")

    def build(self) -> tuple[Composition, dict[tuple[str, str], tuple]]:
        """The composition, and its blocks to keep (see ``_last_blocks``):
        a block with the kept block's header fields and events is that block."""
        harmonies, instruments = [], []
        for name, (scale, _, level, tones) in self.harmonies.items():
            was = self.kept.get(("harmony", name), ())
            built = was[5] if was[3:5] == ((scale, level), tones) else HarmonicSequence(
                name, level, scale, sorted(tones, key=lambda t: t.interval.start))
            self.blocks["harmony", name] += ((scale, level), tones, built)
            harmonies.append(built)
        for name, (scale, _, refs, notes) in sorted(self.instruments.items()):
            names = tuple(h for h, _ in refs)
            was = self.kept.get(("instrument", name), ())
            built = was[5] if was[3:5] == ((scale, names), notes) else Instrument(
                name, scale, names, InstrumentScore(notes))
            self.blocks["instrument", name] += ((scale, names), notes, built)
            instruments.append(built)
        return Composition(
            base_frequency_hz=float(self.header["base"]),
            ticks_per_beat=int(self.header["ppq"]),
            tempo_bpm=float(self.header["tempo"]),
            length_ticks=int(self.header["length"]),
            scales=self.scales,
            harmonies=harmonies,
            instruments=instruments,
        ), self.blocks


def _float_text(x: float) -> str:
    """The shortest text that reads back as ``x``, with no ``+`` in its
    exponent (``1e20``, not ``1e+20``): ``+`` is a token of its own."""
    return repr(x).replace("e+", "e")


def serialize(composition: Composition) -> str:
    """Render a composition in canonical text form.

    Sections appear in fixed order (header, scales, harmonies,
    instruments), entities sorted by name, tones sorted by start, notes
    in score order, every ratio reduced.  Every text returned parses
    back, and serializing that parse reproduces it byte for byte.  So a
    number longer than the digit limit, which :func:`parse` refuses,
    raises ValueError naming the first such place in the order it is
    written: the ``ppq`` or ``length`` directive, a scale key, a
    harmony's level, or a tone or note by its index into the block's
    tones or notes.

    A harmony or instrument that is the very object written by the
    previous call, or built by :func:`parse` from the text that call wrote
    for it, under the same digit limit, takes that text, so a
    re-serialize after an edit formats only the blocks the edit changed;
    the result equals a cold call's.
    """
    global _last_texts
    limit, (tag, kept) = getattr(sys, "get_int_max_str_digits", int)(), _last_texts
    kept = kept if tag == limit else {}
    scales = sorted(composition.scales.values(), key=lambda s: s.name)
    blocks = (*sorted(composition.harmonies.values(), key=lambda h: h.name),
              *sorted(composition.instruments, key=lambda i: i.name))
    texts: dict[tuple[str, str], tuple[HarmonicSequence | Instrument, str]] = {}
    try:
        lines = [f"base {_float_text(composition.base_frequency_hz)}",
                 f"ppq {composition.ticks_per_beat}",
                 f"tempo {_float_text(composition.tempo_bpm)}",
                 f"length {composition.length_ticks}"]
        if scales:
            lines.append("")
        for scale in scales:
            keys = (f"{key.numerator}/{key.denominator}" for key in scale.keys)
            lines.append(f"scale {scale.name} {' '.join(keys)}")
        for block in blocks:
            key = ("harmony" if isinstance(block, HarmonicSequence) else "instrument", block.name)
            text = was[1] if (was := kept.get(key)) and was[0] is block else "\n".join(
                _block_lines(block))
            texts[key] = block, text
            lines += ("", text)
    except ValueError:  # a number longer than the digit limit
        raise ValueError(_too_long(composition, scales, blocks)) from None
    _last_texts = limit, texts
    return "\n".join(lines) + "\n"


def _too_long(composition: Composition, scales: list[Scale],
              blocks: tuple[HarmonicSequence | Instrument, ...]) -> str:
    """The message for the first number serialize writes that is longer
    than the digit limit."""
    places = [("ppq", composition.ticks_per_beat), ("length", composition.length_ticks)]
    places += ((f"scale {scale.name} key {index}", key.numerator, key.denominator)
               for scale in scales for index, key in enumerate(scale.keys))
    for block in blocks:
        if isinstance(block, HarmonicSequence):
            where, events = f"harmony {block.name} tone", block.tones
            places.append((f"harmony {block.name} level", block.level))
        else:
            where, events = f"instrument {block.name} note", block.score.notes
        places += ((f"{where} {index}", e.key_index, e.interval.start, e.interval.duration)
                   for index, e in enumerate(events))
    for where, *numbers in places:
        try:
            [f"{n}" for n in numbers]  # as serialize formats them
        except ValueError:
            what = "ratio parts" if where.startswith("scale ") else "number"
            return f"{where}: {what} too long to parse back"


def _block_lines(block: HarmonicSequence | Instrument) -> list[str]:
    """The lines of one harmony or instrument block, ``end`` included."""
    if isinstance(block, HarmonicSequence):
        header = f"harmony {block.name} level {block.level} scale {block.scale_name}"
        return [header, *(f"  tone {tone.key_index} @ {tone.interval.start} "
                          f"+{tone.interval.duration}"
                          for tone in sorted(block.tones, key=lambda t: t.interval.start)),
                "end"]
    header = f"instrument {block.name} scale {block.scale_name}"
    if block.harmony_names:
        header += " harmonies " + " ".join(block.harmony_names)
    return [header, *(f"  note {note.key_index} @ {note.interval.start} "
                      f"+{note.interval.duration} vel {note.velocity}"
                      for note in block.score.notes), "end"]

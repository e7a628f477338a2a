"""Reference ``.dts`` parser: a frozen copy of ``dtseq.scorefile.parse``
as it stood before its tokens, drafts and tone/note handlers were folded
into plain tuples and one event handler.  ``test_parser_equivalence``
checks that ``dtseq.scorefile.parse`` still returns what this returns:
an equal Composition or the same ``(line, column, kind, message)`` list.
Only the imports differ from that version, apart from four later revisions
made in the parser too.  First, numbers are ASCII digits only (no other
Unicode digits, no ``_``), and a header line gives its field even when its
value is bad, so the field is not also reported missing and a later line
for it is a duplicate.  Second, only LF, CRLF and CR end a line, where
``str.splitlines()`` also ended one at the other Unicode line and record
separators.  Third, a leading UTF-8 byte-order mark is dropped.  Fourth,
a whole number longer than the int-string digit limit is a ``range``
error that does not quote its digits.  Fifth, a message shows a token or
number of more than 40 characters as its first 20, ``…`` and its length
(``_shown``).
``serialize`` is left out.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from dtseq.model import (
    Composition,
    HarmonicSequence,
    Instrument,
    InstrumentScore,
    Note,
    TimeInterval,
    TranspositionTone,
)
from dtseq.rational import IDENTIFIER_RE, Scale

PARSE_ERROR_KINDS = (
    "syntax", "unknown-directive", "bad-ratio", "bad-reference",
    "duplicate-name", "range",
)

_HEADER_FIELDS = ("base", "ppq", "tempo", "length")
_TOP_DIRECTIVES = {"base", "ppq", "tempo", "length", "scale", "harmony", "instrument"}

# '@' and '+' are their own tokens; everything else splits on whitespace.
_TOKEN_RE = re.compile(r"@|\+|[^\s@+]+")
_RATIO_RE = re.compile(r"([0-9]+)(?:/([0-9]+))?\Z")


def _shown(token: object, quote: bool = True) -> str:
    text = str(token)
    if len(text) <= 40:
        return repr(text) if quote else text
    head = text[:20] + "…"
    return f"{repr(head) if quote else head} ({len(text)} characters)"


@dataclass(frozen=True)
class SourcePosition:
    line: int
    column: int


@dataclass(frozen=True)
class ParseError:
    position: SourcePosition
    kind: str
    message: str


@dataclass(frozen=True)
class _Token:
    text: str
    column: int


@dataclass
class _HarmonyDraft:
    name: str
    level: int
    scale_name: str
    scale_pos: tuple[int, int]
    tones: list[TranspositionTone] = field(default_factory=list)


@dataclass
class _InstrumentDraft:
    name: str
    scale_name: str
    scale_pos: tuple[int, int]
    harmony_refs: list[tuple[str, tuple[int, int]]] = field(default_factory=list)
    notes: list[Note] = field(default_factory=list)


def parse(text: str | bytes) -> Composition | list[ParseError]:
    """Parse score text into a Composition, or return every error found.

    The result is canonical: instruments sorted by name, tones sorted by
    start, notes in score order.  Semantic checks that need the whole
    composition (key ranges, timeline coverage) are left to
    ``validate_composition``; a file can parse cleanly and still fail
    validation.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    parser = _Parser()
    parser.run(text.removeprefix("\ufeff"))
    if parser.errors:
        return sorted(parser.errors, key=lambda e: (e.position.line, e.position.column))
    return parser.build()


class _Parser:
    def __init__(self):
        self.errors: list[ParseError] = []
        self.header: dict[str, float | int] = {}
        self.scales: dict[str, Scale] = {}
        self.harmonies: dict[str, _HarmonyDraft] = {}
        self.instruments: dict[str, _InstrumentDraft] = {}
        # (kind, draft-or-None, opening line); None drafts swallow block
        # lines after a broken or duplicate block header.
        self.block: tuple[str, object, int] | None = None

    def error(self, line: int, column: int, kind: str, message: str) -> None:
        self.errors.append(ParseError(SourcePosition(line, column), kind, message))

    # Line loop

    def run(self, text: str) -> None:
        for lineno, raw in enumerate(re.split(r"\r\n?|\n", text), start=1):
            code = raw.split("#", 1)[0]
            tokens = [_Token(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(code)]
            if tokens:
                self.dispatch(lineno, tokens)
        if self.block is not None:
            kind, draft, opened = self.block
            name = getattr(draft, "name", "?")
            self.error(opened, 1, "syntax", f"{kind} {_shown(name)} is missing its 'end' line")
            self.block = None
        self.finalize()

    def dispatch(self, ln: int, toks: list[_Token]) -> None:
        head = toks[0]
        if self.block is not None:
            bkind, draft, opened = self.block
            if head.text == "end":
                if len(toks) > 1:
                    self.error(ln, toks[1].column, "syntax", "unexpected tokens after 'end'")
                self.block = None
                return
            if bkind == "harmony" and head.text == "tone":
                self.tone_line(ln, toks, draft)
                return
            if bkind == "instrument" and head.text == "note":
                self.note_line(ln, toks, draft)
                return
            if head.text in _TOP_DIRECTIVES:
                name = getattr(draft, "name", "?")
                self.error(ln, head.column, "syntax",
                           f"missing 'end' for {bkind} {_shown(name)} before {head.text!r}")
                self.block = None
                # fall through: handle this line at top level
            else:
                expected = "tone" if bkind == "harmony" else "note"
                self.error(ln, head.column, "syntax",
                           f"expected {expected!r} or 'end' inside {bkind} block, "
                           f"got {_shown(head.text)}")
                return

        if head.text in _HEADER_FIELDS:
            self.header_line(ln, toks)
        elif head.text == "scale":
            self.scale_line(ln, toks)
        elif head.text == "harmony":
            self.harmony_line(ln, toks)
        elif head.text == "instrument":
            self.instrument_line(ln, toks)
        elif head.text in ("tone", "note", "end"):
            self.error(ln, head.column, "syntax", f"{head.text!r} outside a block")
        else:
            self.error(ln, head.column, "unknown-directive",
                       f"unknown directive {_shown(head.text)}")

    # Directive handlers

    def header_line(self, ln: int, toks: list[_Token]) -> None:
        name = toks[0].text
        if name in self.header:
            self.error(ln, toks[0].column, "duplicate-name", f"duplicate {name!r} directive")
            return
        self.header[name] = None
        if len(toks) != 2:
            self.error(ln, toks[0].column, "syntax", f"expected '{name} VALUE'")
            return
        tok = toks[1]
        if name in ("ppq", "length"):
            value = self.int_field(ln, tok, minimum=1)
        else:
            value = self.float_field(ln, tok)
        if value is not None:
            self.header[name] = value

    def int_field(self, ln: int, tok: _Token, minimum: int) -> int | None:
        try:
            if not tok.text.isascii() or "_" in tok.text:
                raise ValueError(tok.text)
            value = int(tok.text)
        except ValueError:
            if "/" in tok.text:
                # a ratio where a 0-based index or tick count belongs
                self.error(ln, tok.column, "bad-ratio",
                           f"{_shown(tok.text)} is not an integer; keys and ticks are "
                           f"plain indices, not ratios")
            elif tok.text.isascii() and tok.text.isdigit():  # exceeds the int-string digit limit
                self.error(ln, tok.column, "range",
                           "number too long for the int-string digit limit")
            else:
                self.error(ln, tok.column, "syntax",
                           f"expected an integer, got {_shown(tok.text)}")
            return None
        if value < minimum:
            self.error(ln, tok.column, "range",
                       f"value {_shown(value, False)} must be >= {minimum}")
            return None
        return value

    def float_field(self, ln: int, tok: _Token) -> float | None:
        try:
            if not tok.text.isascii() or "_" in tok.text:
                raise ValueError(tok.text)
            value = float(tok.text)
        except ValueError:
            self.error(ln, tok.column, "syntax", f"expected a number, got {_shown(tok.text)}")
            return None
        if not math.isfinite(value) or value <= 0:
            self.error(ln, tok.column, "range",
                       f"value {_shown(tok.text, False)} must be positive and finite")
            return None
        return value

    def name_field(self, ln: int, toks: list[_Token], index: int,
                   what: str) -> _Token | None:
        if index >= len(toks):
            self.error(ln, toks[0].column, "syntax", f"missing {what}")
            return None
        tok = toks[index]
        if not IDENTIFIER_RE.match(tok.text):
            self.error(ln, tok.column, "syntax", f"invalid {what}: {_shown(tok.text)}")
            return None
        return tok

    def keyword(self, ln: int, toks: list[_Token], index: int, word: str) -> bool:
        if index < len(toks) and toks[index].text == word:
            return True
        col = toks[index].column if index < len(toks) else toks[-1].column
        got = toks[index].text if index < len(toks) else "end of line"
        self.error(ln, col, "syntax", f"expected {word!r}, got {_shown(got)}")
        return False

    def ratio_field(self, ln: int, tok: _Token) -> Fraction | None:
        m = _RATIO_RE.match(tok.text)
        if not m:
            self.error(ln, tok.column, "bad-ratio", f"malformed ratio {_shown(tok.text)}")
            return None
        try:
            num = int(m.group(1))
            den = int(m.group(2)) if m.group(2) else 1
        except ValueError:  # exceeds the int-string digit limit
            self.error(ln, tok.column, "bad-ratio", "ratio parts too long")
            return None
        if num == 0 or den == 0:
            self.error(ln, tok.column, "bad-ratio",
                       f"ratio {_shown(tok.text, False)} has a zero part; ratios must be positive")
            return None
        return Fraction(num, den)

    def scale_line(self, ln: int, toks: list[_Token]) -> None:
        name_tok = self.name_field(ln, toks, 1, "scale name")
        if name_tok is None:
            return
        keys: list[Fraction] = []
        for tok in toks[2:]:
            key = self.ratio_field(ln, tok)
            if key is None:
                continue
            if key in keys:
                self.error(ln, tok.column, "bad-ratio",
                           f"duplicate key {_shown(f'{key.numerator}/{key.denominator}', False)}"
                           f" in scale")
                continue
            keys.append(key)
        if not keys:
            self.error(ln, toks[0].column, "syntax", "scale needs at least one key")
            keys = [Fraction(1)]
        if name_tok.text in self.scales:
            self.error(ln, name_tok.column, "duplicate-name",
                       f"scale {_shown(name_tok.text)} already defined")
            return
        self.scales[name_tok.text] = Scale(name_tok.text, keys)

    def harmony_line(self, ln: int, toks: list[_Token]) -> None:
        draft = None
        if len(toks) < 6:
            self.error(ln, toks[-1].column, "syntax",
                       "expected 'harmony NAME level N scale SCALE'")
            self.block = ("harmony", draft, ln)
            return
        name_tok = self.name_field(ln, toks, 1, "harmony name")
        if (name_tok is not None
                and self.keyword(ln, toks, 2, "level")
                and (level := self.int_field(ln, toks[3], minimum=1)) is not None
                and self.keyword(ln, toks, 4, "scale")
                and (scale_tok := self.name_field(ln, toks, 5, "scale name")) is not None):
            if len(toks) > 6:
                self.error(ln, toks[6].column, "syntax", "unexpected tokens after harmony header")
            elif name_tok.text in self.harmonies:
                self.error(ln, name_tok.column, "duplicate-name",
                           f"harmony {_shown(name_tok.text)} already defined")
            else:
                draft = _HarmonyDraft(name_tok.text, level, scale_tok.text,
                                      (ln, scale_tok.column))
                self.harmonies[draft.name] = draft
        self.block = ("harmony", draft, ln)

    def instrument_line(self, ln: int, toks: list[_Token]) -> None:
        draft = None
        if len(toks) < 4:
            self.error(ln, toks[-1].column, "syntax",
                       "expected 'instrument NAME scale SCALE [harmonies H1 ...]'")
            self.block = ("instrument", draft, ln)
            return
        name_tok = self.name_field(ln, toks, 1, "instrument name")
        if (name_tok is not None
                and self.keyword(ln, toks, 2, "scale")
                and (scale_tok := self.name_field(ln, toks, 3, "scale name")) is not None):
            refs: list[tuple[str, tuple[int, int]]] = []
            ok = True
            if len(toks) > 4:
                if self.keyword(ln, toks, 4, "harmonies"):
                    if len(toks) == 5:
                        self.error(ln, toks[4].column, "syntax",
                                   "'harmonies' needs at least one harmony name")
                        ok = False
                    for tok in toks[5:]:
                        if IDENTIFIER_RE.match(tok.text):
                            refs.append((tok.text, (ln, tok.column)))
                        else:
                            self.error(ln, tok.column, "syntax",
                                       f"invalid harmony name: {_shown(tok.text)}")
                            ok = False
                else:
                    ok = False
            if ok:
                if name_tok.text in self.instruments:
                    self.error(ln, name_tok.column, "duplicate-name",
                               f"instrument {_shown(name_tok.text)} already defined")
                else:
                    draft = _InstrumentDraft(name_tok.text, scale_tok.text,
                                             (ln, scale_tok.column), refs)
                    self.instruments[draft.name] = draft
        self.block = ("instrument", draft, ln)

    def event_fields(self, ln: int, toks: list[_Token]) -> tuple[int, int, int] | None:
        """Parse the shared 'KEY @ START + DURATION' shape; None on any error."""
        if len(toks) < 6:
            self.error(ln, toks[-1].column, "syntax",
                       f"expected '{toks[0].text} KEY @ START +DURATION'")
            return None
        key = self.int_field(ln, toks[1], minimum=0)
        if not self.keyword(ln, toks, 2, "@"):
            return None
        start = self.int_field(ln, toks[3], minimum=0)
        if not self.keyword(ln, toks, 4, "+"):
            return None
        duration = self.int_field(ln, toks[5], minimum=1)
        if key is None or start is None or duration is None:
            return None
        return key, start, duration

    def tone_line(self, ln: int, toks: list[_Token], draft) -> None:
        fields = self.event_fields(ln, toks)
        if fields is None:
            return
        if len(toks) > 6:
            self.error(ln, toks[6].column, "syntax", "unexpected tokens after tone")
            return
        key, start, duration = fields
        if draft is not None:
            draft.tones.append(TranspositionTone(key, TimeInterval(start, duration)))

    def note_line(self, ln: int, toks: list[_Token], draft) -> None:
        fields = self.event_fields(ln, toks)
        if fields is None:
            return
        velocity = 96
        if len(toks) > 6:
            if not self.keyword(ln, toks, 6, "vel"):
                return
            if len(toks) != 8:
                col = toks[7].column if len(toks) > 7 else toks[6].column
                self.error(ln, col, "syntax", "expected 'vel VALUE' and nothing after")
                return
            vel = self.int_field(ln, toks[7], minimum=1)
            if vel is None:
                return
            if vel > 127:
                self.error(ln, toks[7].column, "range",
                           f"velocity {_shown(vel, False)} must be in [1, 127]")
                return
            velocity = vel
        key, start, duration = fields
        if draft is not None:
            draft.notes.append(Note(key, TimeInterval(start, duration), velocity))

    # Whole-file checks and assembly

    def finalize(self) -> None:
        for name in _HEADER_FIELDS:
            if name not in self.header:
                self.error(1, 1, "syntax", f"missing {name!r} directive")
        for draft in self.harmonies.values():
            if draft.scale_name not in self.scales:
                ln, col = draft.scale_pos
                self.error(ln, col, "bad-reference", f"unknown scale {_shown(draft.scale_name)}")
        for draft in self.instruments.values():
            if draft.scale_name not in self.scales:
                ln, col = draft.scale_pos
                self.error(ln, col, "bad-reference", f"unknown scale {_shown(draft.scale_name)}")
            for hname, (ln, col) in draft.harmony_refs:
                if hname not in self.harmonies:
                    self.error(ln, col, "bad-reference", f"unknown harmony {_shown(hname)}")

    def build(self) -> Composition:
        harmonies = [
            HarmonicSequence(d.name, d.level, d.scale_name,
                             sorted(d.tones, key=lambda t: t.interval.start))
            for d in self.harmonies.values()
        ]
        instruments = [
            Instrument(d.name, d.scale_name, [h for h, _ in d.harmony_refs],
                       InstrumentScore(d.notes))
            for d in sorted(self.instruments.values(), key=lambda d: d.name)
        ]
        return Composition(
            base_frequency_hz=float(self.header["base"]),
            ticks_per_beat=int(self.header["ppq"]),
            tempo_bpm=float(self.header["tempo"]),
            length_ticks=int(self.header["length"]),
            scales=self.scales,
            harmonies=harmonies,
            instruments=instruments,
        )

"""dtseq: compose with dynamic transposition instead of chord spelling.

A composition here is a base frequency, an instrument score per voice, and
a stack of harmonic sequences: timelines of exact rational transposition
factors drawn from named scales.  Every note's frequency is the base times
the cumulative product of its instrument key and the active factor of each
harmony level at the note's onset, computed with exact rational arithmetic
and converted to a float only when events are emitted.  The package parses
and writes a plain-text score format (``.dts``), validates timeline
structure, resolves scores to event lists, and renders them to WAV.

Typical use::

    from pathlib import Path

    from dtseq import parse, resolve_composition, synthesize, write_wav

    composition = parse(Path("piece.dts").read_bytes())
    events = resolve_composition(composition)
    write_wav(synthesize(events), "piece.wav")
"""

from .model import (
    Composition,
    HarmonicSequence,
    Instrument,
    InstrumentScore,
    Note,
    TimeInterval,
    TranspositionTone,
    Violation,
    validate_composition,
)
from .rational import (
    InvalidRatioError,
    Ratio,
    Scale,
    builtin_scale,
    builtin_scales,
    cents,
    octave_normalize,
    ratio,
)
from .render import (
    AudioBuffer,
    RenderSettings,
    synthesize,
    write_wav,
)
from .resolve import (
    ResolutionError,
    ResolvedEvent,
    TableRegion,
    TableRow,
    export_events,
    frequency_table,
    resolve_composition,
    resolve_note,
)
from .scorefile import ParseError, SourcePosition, parse, serialize

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer",
    "Composition",
    "HarmonicSequence",
    "Instrument",
    "InstrumentScore",
    "InvalidRatioError",
    "Note",
    "ParseError",
    "Ratio",
    "RenderSettings",
    "ResolutionError",
    "ResolvedEvent",
    "Scale",
    "SourcePosition",
    "TableRegion",
    "TableRow",
    "TimeInterval",
    "TranspositionTone",
    "Violation",
    "builtin_scale",
    "builtin_scales",
    "cents",
    "export_events",
    "frequency_table",
    "octave_normalize",
    "parse",
    "ratio",
    "resolve_composition",
    "resolve_note",
    "serialize",
    "synthesize",
    "validate_composition",
    "write_wav",
]

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

Importing the package loads none of its modules: each public name loads
its module on first use, so ``parse`` does not import the renderer and
only synthesis and WAV output import numpy.
"""

import importlib

# Each public name and the submodule that owns it.  A submodule is
# imported the first time one of its names is read, so a command loads
# only the layers it runs.
_OWNER = {
    **dict.fromkeys((
        "Composition", "HarmonicSequence", "Instrument", "InstrumentScore", "Note",
        "TimeInterval", "TranspositionTone", "Violation", "validate_composition",
    ), "model"),
    **dict.fromkeys((
        "InvalidRatioError", "Ratio", "Scale", "builtin_scale", "builtin_scales", "cents",
        "octave_normalize", "ratio",
    ), "rational"),
    **dict.fromkeys(("AudioBuffer", "RenderSettings", "synthesize", "write_wav"), "render"),
    **dict.fromkeys((
        "ResolutionError", "ResolvedEvent", "TableRegion", "TableRow", "export_events",
        "export_table", "frequency_table", "resolve_composition", "resolve_note",
    ), "resolve"),
    **dict.fromkeys(("ParseError", "SourcePosition", "parse", "serialize"), "scorefile"),
}


# The waveforms dtseq.render synthesises, kept here so that the command
# line can offer them without loading the renderer.
WAVEFORMS = ("sine", "additive-4")


def __getattr__(name: str):
    """The submodule's current value of a public name.  It is read on
    every access and never stored here, so a name replaced in its
    submodule (by a test or a tracer) reads as replaced."""
    try:
        owner = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{owner}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER})


__version__ = "0.1.0"

__all__ = sorted(_OWNER)

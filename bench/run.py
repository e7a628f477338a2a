#!/usr/bin/env python3
"""Benchmark of the dtseq pipeline, end to end and layer by layer.

    python3 bench/run.py --workload score-xl --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the root of a dtseq checkout; the program is imported and run
from its `src/`.  The benchmark writes seeded `.dts` scores and drives
dtseq only through the `dtseq` command (one cold process per operation)
and the public library API, in a closed loop: one client, one operation
in flight.  Every output is checked against references the generator
computes itself (see `checks.py`); a wrong output counts as a failure.

`--trace 0` measures the end-to-end metrics on the workload's own
operation: cold `validate`, `resolve` and `resolve --table` (score-xl),
a cold `render` (render-repeat, render-unique) or one in-process edit
(reharmonize).  `--trace 1` is a separate run that, on the workload's
score, runs every command and the edits, records spans around every call
into a layer's public function and reports the per-layer metrics.  The
last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from checks import References, check_command, check_edit, check_events, check_scales
from scores import BINDINGS, HARMONIES, Score, Shape
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# What the `dtseq` console script runs.
ENTRY = "import sys; from dtseq.cli import main; sys.exit(main())"
LOAD = "import sys, dtseq; dtseq.parse(open(sys.argv[1], 'rb').read())"
SETUP_REPEATS = 9
IMPORT_REPEATS = 3
HALF_ROUNDS = 2  # traced rounds on the half-size sibling, for the growth ratios
TIME_LIMIT_S = 170


@dataclass(frozen=True)
class Workload:
    name: str
    family: str          # workloads of one family share their score for a seed
    shape: Shape
    waveform: str
    rate: int
    edits_per_round: int  # in the traced run
    library_setup: bool  # set-up is loading the score in-process, not a cold CLI start
    ops: tuple[str, ...]  # the operation the untraced run times: commands, or an edit


# BENCHMARK.json gives the reason for each workload; bench/README.md the details.
WORKLOADS = {w.name: w for w in (
    Workload("score-xl", "xl", Shape(5_000, 500, False), "sine", 1000, 1, False,
             ("validate", "resolve", "table")),
    Workload("render-repeat", "just", Shape(2_000, 200, False), "additive-4", 44100, 4, False,
             ("render",)),
    Workload("render-unique", "prime", Shape(2_000, 200, True), "sine", 44100, 4, False,
             ("render",)),
    Workload("reharmonize", "just", Shape(2_000, 200, False), "sine", 8000, 5, True,
             ("edit",)),
)}

COMMANDS = ("validate", "resolve", "table", "render")


def command_args(kind: str, score: Path, wl: Workload, wav: Path) -> list[str]:
    if kind == "table":
        return ["resolve", "--table", str(score)]
    if kind == "render":
        return ["render", str(score), "--out", str(wav), "--waveform", wl.waveform,
                "--rate", str(wl.rate)]
    return [kind, str(score)]


class Run:
    """State of one benchmark run: its files and the outcome of every operation."""

    def __init__(self, wl: Workload, seed: int, work: Path):
        self.wl, self.seed, self.work = wl, seed, work
        self.attempted = 0
        self.failures: list[str] = []
        self.env = {**os.environ, "PYTHONPATH": str(SRC), "DTS_COLOR": "0"}
        self.wav = work / "out.wav"

    def score(self, shape: Shape, name: str) -> tuple[Path, References]:
        """Write the seeded score of `shape`; return its path and references."""
        score = Score(shape, self.seed, self.wl.family)
        path = self.work / f"{name}.dts"
        path.write_text(score.text())
        return path, References(score, self.wl.rate)

    def outcome(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(problem)

    def spawn(self, args: list[str], python_flags=()) -> tuple[float, float, int, str, str]:
        """Run one cold process; return wall time, peak RSS in MB, exit code,
        stdout and stderr."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *python_flags, *args], stdout=out,
                                    stderr=err, env=self.env, cwd=self.work)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        return (wall, usage.ru_maxrss / 1024, proc.returncode,
                out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))

    def cold(self, kind: str, path: Path, refs: References) -> tuple[float, float]:
        args = command_args(kind, path, self.wl, self.wav)
        wall, rss, code, out, err = self.spawn(["-c", ENTRY, *args])
        self.outcome(self.check(kind, code, out, err, refs))
        return wall, rss

    def inprocess(self, kind: str, path: Path, refs: References,
                  tracer: Tracer | None = None) -> float:
        """Run one command through `dtseq.cli.main` in this process, traced
        as one operation when a tracer is given."""
        import dtseq.cli
        args = command_args(kind, path, self.wl, self.wav)
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "w") as out, open(err_path, "w") as err, \
                redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                with tracer.traced(f"cli.{kind}") if tracer else nullcontext():
                    code = dtseq.cli.main(args)
            except SystemExit as exc:
                code = exc.code
            wall = time.perf_counter() - start
        self.outcome(self.check(kind, code, out_path.read_text(), err_path.read_text(), refs))
        return wall

    def check(self, kind, code, out, err, refs) -> str | None:
        wav = self.wav.read_bytes() if kind == "render" and code == 0 else None
        return check_command(kind, code, out, err, refs, wav)

    def setup(self, path: Path) -> float:
        """The fixed cost before a workload's first operation."""
        if self.wl.library_setup:
            wall, _, code, _, err = self.spawn(["-c", LOAD, str(path)])
            self.outcome(f"loading the score exited {code}: {err[-300:]}" if code else None)
        else:
            wall, _, code, out, _ = self.spawn(["-c", ENTRY, "scales"])
            self.outcome(check_scales(code, out))
        return wall

    def import_times(self) -> tuple[float, float]:
        """Cumulative import time of dtseq and of numpy in a cold `dtseq scales`."""
        _, _, code, _, err = self.spawn(["-c", ENTRY, "scales"], ("-X", "importtime"))
        self.outcome(f"scales exited {code}" if code else None)
        dtseq_us = numpy_us = 0
        for line in err.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
            if not m:
                continue
            cumulative, indent, module = int(m[1]), len(m[2]), m[3]
            if indent == 1 and (module == "dtseq" or module.startswith("dtseq.")):
                dtseq_us += cumulative
            if module == "numpy":
                numpy_us = max(numpy_us, cumulative)
        return dtseq_us / 1e6, numpy_us / 1e6


class EditLoop:
    """Re-harmonisation edits applied in-process through the public API.

    Each edit moves one seeded harmony tone to another key of its scale,
    which scales it by the exact ratio of the two keys, and rebuilds
    everything downstream: serialize, parse, validate, resolve and the
    frequency table of one bound instrument.
    """

    def __init__(self, run: Run, shape: Shape, text: str):
        import dtseq
        self.dtseq, self.run = dtseq, run
        self.score = Score(shape, run.seed, run.wl.family)  # the reference, edited alongside
        self.rng = random.Random(f"edits:{run.wl.name}:{run.seed}:{shape.notes}")
        self.composition = dtseq.parse(text)
        self.events = dtseq.resolve_composition(self.composition)
        run.outcome(check_events(self.events, self.score))

    def step(self, tracer: Tracer | None = None) -> float:
        score = self.score
        harmony, _ = self.rng.choice(HARMONIES)
        tone = self.rng.randrange(len(score.tone_keys[harmony]))
        keys = score.scales[score.harmony_scale[harmony]]
        old = score.tone_keys[harmony][tone]
        new = self.rng.choice([k for k in range(len(keys)) if k != old])
        inst = min(i for i, hs in BINDINGS.items() if harmony in hs)
        start = time.perf_counter()
        try:
            with tracer.traced("edit") if tracer else nullcontext():
                parsed, violations, events, table = self._edit(harmony, tone, new, inst)
        except Exception as exc:  # a failed edit is counted, and the loop goes on
            self.run.outcome(f"edit raised {exc!r}")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        score.tone_keys[harmony][tone] = new
        self.run.outcome(check_edit(self.events, events, violations, table, inst, harmony,
                                    tone, keys[new] / keys[old], score))
        self.composition, self.events = parsed, events
        return elapsed

    def _edit(self, harmony: str, tone: int, key: int, inst: str):
        dtseq, c = self.dtseq, self.composition
        seq = c.harmonies[harmony]
        tones = list(seq.tones)
        tones[tone] = dtseq.TranspositionTone(key, tones[tone].interval)
        harmonies = dict(c.harmonies)
        harmonies[harmony] = dtseq.HarmonicSequence(seq.name, seq.level, seq.scale_name, tones)
        edited = dtseq.Composition(c.base_frequency_hz, c.ticks_per_beat, c.tempo_bpm,
                                   c.length_ticks, c.scales, harmonies, c.instruments)
        parsed = dtseq.parse(dtseq.serialize(edited))
        return (parsed, dtseq.validate_composition(parsed), dtseq.resolve_composition(parsed),
                dtseq.frequency_table(parsed, inst))


class Rounds:
    """Repeats rounds for `seconds`: at least one, and no round that would
    end past the time, judged by the slowest round so far."""

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds
        self.count = 0
        self.slowest = 0.0
        self.started = 0.0

    def another(self) -> bool:
        now = time.perf_counter()
        if self.count:
            self.slowest = max(self.slowest, now - self.started)
            if now + self.slowest > self.end:
                return False
        self.count += 1
        self.started = now
        return True


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); one sample is its own percentile."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def describe(values: list[float]) -> str:
    """Sample count, minimum and median, plus the highest percentile with at
    least ten samples beyond it."""
    text = f"n={len(values)} min={min(values):.6g} median={statistics.median(values):.6g}"
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            return f"{text} p{q}={percentile(values, q):.6g}"
    return text


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """The end-to-end metrics, with tracing off.

    `op_s` is the workload's operation: the sum, over its commands, of each
    command's median cold run, or the median edit.
    """
    wl = run.wl
    path, refs = run.score(wl.shape, "score")
    run.spawn(["-c", ENTRY, "scales"])  # warm the file cache and bytecode before timing
    setup = [run.setup(path) for _ in range(SETUP_REPEATS)]
    edits = EditLoop(run, wl.shape, path.read_text()) if "edit" in wl.ops else None
    samples: dict[str, list[float]] = {k: [] for k in wl.ops}
    rss: list[float] = []
    rounds = Rounds(seconds)
    while rounds.another():
        peaks = []
        for kind in wl.ops:
            if kind == "edit":
                samples[kind].append(edits.step())
                continue
            wall, peak = run.cold(kind, path, refs)
            samples[kind].append(wall)
            peaks.append(peak)
        if peaks:
            rss.append(max(peaks))
    if edits:  # the edits ran in this process
        rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    values = {
        "setup_s": statistics.median(setup),
        "op_s": sum(statistics.median(samples[k]) for k in wl.ops),
        "peak_rss_mb": statistics.median(rss),
    }
    notes = {"setup_s": setup, **{f"{k}_s": samples[k] for k in wl.ops}, "peak_rss_mb": rss}
    return values, notes


def measure_traced(run: Run, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """The per-layer metrics, from spans around each public-function call."""
    wl = run.wl
    path, refs = run.score(wl.shape, "score")
    half_path, half_refs = run.score(wl.shape.half(), "half")
    run.spawn(["-c", ENTRY, "scales"])
    imports = [run.import_times() for _ in range(IMPORT_REPEATS)]
    tracer = Tracer()
    edits = EditLoop(run, wl.shape, path.read_text())
    cold = {k: [] for k in COMMANDS}
    kind_of_op: dict[int, str] = {}
    overhead: list[float] = []  # traced over untraced time, per pair of operations
    rounds = Rounds(seconds)
    while rounds.another():
        for kind in COMMANDS:
            cold[kind].append(run.cold(kind, path, refs)[0])
            took = {t: run.inprocess(kind, path, refs, t)  # alternate which runs first
                    for t in (None, tracer)[::(-1) ** rounds.count]}
            overhead.append(took[tracer] / took[None])
            kind_of_op[tracer.last_op] = kind
        for _ in range(wl.edits_per_round):
            plain = edits.step()
            overhead.append(edits.step(tracer) / plain)
    full_ops = set(range(1, tracer.last_op + 1))
    half_edits = EditLoop(run, wl.shape.half(), half_path.read_text())
    for _ in range(HALF_ROUNDS):
        for kind in COMMANDS:
            run.inprocess(kind, half_path, half_refs, tracer)
        half_edits.step(tracer)
    half_ops = set(range(max(full_ops) + 1, tracer.last_op + 1))
    tracer.dump(spans_path)

    def per_call(name):
        return tracer.median(name, full_ops)

    def count(name, key):
        return statistics.median(tracer.counts(name, key, full_ops))

    layer_sum: dict[int, float] = {}
    for span, self_s in tracer.self_times():
        if span["op"] in kind_of_op and span["parent"] is not None:
            layer_sum[span["op"]] = layer_sum.get(span["op"], 0.0) + self_s
    cli_overhead = [statistics.median(cold[k]) - statistics.median(
        [s for op, s in layer_sum.items() if kind_of_op[op] == k]) for k in COMMANDS]
    parse_s, synth_s = per_call("scorefile.parse"), per_call("render.synthesize")
    values = {
        "cli.import_s": statistics.median(i[0] for i in imports),
        "cli.import_numpy_s": statistics.median(i[1] for i in imports),
        "cli.overhead_s": statistics.median(cli_overhead),
        "scorefile.parse_s": parse_s,
        "scorefile.parse_lines_per_s": count("scorefile.parse", "lines") / parse_s,
        "scorefile.serialize_s": per_call("scorefile.serialize"),
        "model.validate_s": per_call("model.validate"),
        "model.validate_warnings": count("model.validate", "warnings"),
        "resolve.resolve_s": per_call("resolve.resolve"),
        "resolve.events": count("resolve.resolve", "events"),
        "resolve.distinct_factors": count("resolve.resolve", "distinct_factors"),
        "resolve.table_s": per_call("resolve.table"),
        "resolve.table_regions": count("resolve.table", "regions"),
        "render.synthesize_s": synth_s,
        "render.samples": count("render.synthesize", "samples"),
        "render.samples_per_s": count("render.synthesize", "samples") / synth_s,
        "render.distinct_freq_ratio": (count("render.synthesize", "distinct_freq")
                                       / count("render.synthesize", "events")),
        "render.write_wav_s": per_call("render.write_wav"),
        "render.export_events_s": per_call("render.export_events"),
        "trace.overhead_ratio": statistics.median(overhead),
    }
    for layer, span in (("parse", "scorefile.parse"), ("validate", "model.validate"),
                        ("resolve", "resolve.resolve"), ("table", "resolve.table")):
        values[f"{layer}.growth"] = per_call(span) / tracer.median(span, half_ops)
    notes = {name: tracer.per_call(span, full_ops) for name, span in (
        ("scorefile.parse_s", "scorefile.parse"), ("model.validate_s", "model.validate"),
        ("render.synthesize_s", "render.synthesize"))}
    return values, notes


def load_metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_workload(wl: Workload, seed: int, seconds: float, traced: bool) -> dict:
    runs_dir = ROOT / ".bench_run"
    work = runs_dir / f"{wl.name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(wl, seed, work)
    try:
        if traced:
            trace_dir = ROOT / ".bench_trace"
            trace_dir.mkdir(exist_ok=True)
            values, notes = measure_traced(run, seconds, trace_dir / f"{wl.name}-{seed}.json")
        else:
            values, notes = measure(run, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if runs_dir.exists() and not any(runs_dir.iterdir()):
            runs_dir.rmdir()
    for problem in run.failures[:10]:
        print(f"FAILED {wl.name}: {problem}", file=sys.stderr)
    return {"workload": wl.name, "attempted": run.attempted, "failed": len(run.failures),
            "values": values, "notes": notes}


def report(results: list[dict], units: dict[str, str], prefix: bool) -> dict:
    metrics = {}
    for res in results:
        ratio = res["failed"] / res["attempted"]
        print(f"{res['workload']}: attempted={res['attempted']} failed={res['failed']} "
              f"fail_ratio={ratio:.6g}")
        for name, value in res["values"].items():
            extra = f"  ({describe(res['notes'][name])})" if name in res["notes"] else ""
            print(f"  {name} = {value:.6g} {units[name]}{extra}")
            key = f"{res['workload']}/{name}" if prefix else name
            metrics[key] = {"value": value, "unit": units[name]}
        for name, samples in res["notes"].items():
            if name not in res["values"]:
                print(f"  {name}: {describe(samples)}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _deadline(signum, frame):
    raise TimeoutError(f"benchmark run exceeded {TIME_LIMIT_S} s")


def _terminated(signum, frame):
    raise SystemExit(f"benchmark stopped by signal {signum}")  # runs the clean-up


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long each run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run ('all' runs both)")
    args = parser.parse_args(argv)
    if not (SRC / "dtseq" / "cli.py").is_file():
        print(f"dtseq sources not found under {SRC}; run from a dtseq checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    units = load_metric_units()
    print(f"python {platform.python_version()}, numpy {numpy.__version__}, "
          f"nproc {os.cpu_count()}, seed {args.seed}")

    signal.signal(signal.SIGTERM, _terminated)
    if args.workload == "all":
        plan = [(wl, t) for wl in WORKLOADS.values() for t in (False, True)]
    else:
        signal.signal(signal.SIGALRM, _deadline)
        signal.alarm(TIME_LIMIT_S)
        plan = [(WORKLOADS[args.workload], bool(args.trace))]
    results = [run_workload(wl, args.seed, args.seconds, traced) for wl, traced in plan]
    signal.alarm(0)
    print(json.dumps(report(results, units, prefix=args.workload == "all")))
    return 0


if __name__ == "__main__":
    sys.exit(main())

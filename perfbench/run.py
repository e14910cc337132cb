"""latkit benchmark: seeded CLI workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload basis-update --seed 1 --seconds 12 \
        --trace 0

Workloads are listed in corpus.py and BENCHMARK.json.  One client sends one
request at a time (a closed loop) in this process: each request is one call
of ``latkit.cli.main([command, "-", ...])`` with a lattice file of the seeded
corpus on standard input, cycling through the corpus until ``--seconds``
have passed.  The corpus stays in memory, so set-up writes no files.  Every
distinct output is then checked against the oracles behind ``--verify``
(check.py), outside the timed loop; a failed request is a non-zero exit, an exception,
an output that changed between calls or one the oracles reject.

``--trace 0`` reports the end-to-end metrics.  Wall time on a shared machine
drifts by tens of percent within and between processes, so the timed loop
is interleaved with a fixed exact-rational calibration slice (calibrate.py)
run after every CAL_EVERY_S seconds of loop time.  The gated metrics are

* ``setup_s``: median over SETUP_REPS repetitions of importing latkit and
  generating the corpus, in seconds at a reference speed: each repetition
  is scaled by CAL_REF_S over the slices run on either side of it, so a
  machine that runs 10% slower for a while does not read as a regression;
* ``time_cal``: mean request time in calibration units (``cal``): each
  call's wall time over the mean of the slices run around it, averaged per
  instance and then over instances;
* ``latency_p50_cal``, ``latency_p90_cal``: percentiles of the same
  per-instance times;
* ``peak_rss_mb``: ``ru_maxrss`` after the timed loop.

Raw wall-clock throughput, latency and set-up time, the slice time and
``fail_ratio`` are printed beside them with their sample counts but not
gated: raw times spread too much between runs on a shared machine, and a
failure already shows in ``failed`` and ``correct``.

``--trace 1`` instead wraps latkit's modules (layers.py), runs whole passes
over the corpus and reports per pass each traced function's calls, self time
and share of the loop, the layer counts, and each oracle's time.  The spans
of the first pass go to ``.perfbench_out/spans-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without latkit's
sources under ``src/`` the benchmark exits with status 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from calibrate import calibration_slice
from check import check_output, parse_lattice, untraced
from corpus import GENERATORS, Instance, make_corpus
from layers import ORACLES, TRACED, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Corpus size per workload: at the first baseline one pass takes about as
# long as a 12 s run, so a run calls most instances once or twice.  The
# spread between seeds falls with the number of distinct instances, while
# the oracle check, which runs once per distinct instance, grows with it.
CORPUS_SIZE = {
    "basis-update": 275,
    "basis-member": 155,
    "minima-blocks": 800,
    "decompose-blocks": 480,
}
SETUP_REPS = 7
CAL_EVERY_S = 0.05
CAL_WINDOW = 5
CAL_REF_S = 0.005   # slice time of the reference speed that setup_s uses


def import_latkit():
    """Import latkit and latkit.cli afresh from the checkout's sources."""
    for name in [m for m in sys.modules
                 if m == "latkit" or m.startswith("latkit.")]:
        del sys.modules[name]
    latkit = importlib.import_module("latkit")
    importlib.import_module("latkit.cli")
    return latkit


def setup(workload: str, seed: int):
    """Import latkit, then generate the corpus.

    Returns (latkit, corpus, set-up seconds at the reference speed, raw
    set-up seconds).  Set-up runs SETUP_REPS times, re-importing latkit each
    time, between calibration slices; each repetition's wall time is scaled
    by CAL_REF_S over the mean of the slices on either side of it, and the
    medians are reported so one cold import does not set the figure.
    """
    raw, scaled = [], []
    before = calibration_slice()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        latkit = import_latkit()
        corpus = make_corpus(workload, seed, CORPUS_SIZE[workload])
        elapsed = time.perf_counter() - t0
        after = calibration_slice()
        raw.append(elapsed)
        scaled.append(elapsed * CAL_REF_S / ((before + after) / 2))
        before = after
    return (latkit, corpus, statistics.median(scaled),
            statistics.median(raw))


class Loop:
    """Outcome of the timed loop: calls in order, calibration slices and
    where they fell, first output per instance, failures."""

    def __init__(self, size: int):
        self.calls: list[tuple[int, float]] = []   # (instance, seconds)
        self.cal: list[float] = []
        self.cal_pos: list[int] = []   # calls made before each slice
        self.first_output: dict[int, str] = {}
        self.ok_calls = [0] * size
        self.failed = 0
        self.reasons: list[str] = []
        self.passes = 0

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    @property
    def attempted(self) -> int:
        return len(self.calls)

    @property
    def loop_s(self) -> float:
        return sum(dt for _, dt in self.calls)

    def calibrate(self) -> None:
        self.cal.append(calibration_slice())
        self.cal_pos.append(len(self.calls))

    def per_instance(self) -> tuple[list[float], list[float]]:
        """Mean call time of each instance called, in seconds and in
        calibration units.

        A call's time in calibration units is its wall time over the mean of
        the CAL_WINDOW slices before it and the CAL_WINDOW after it, which
        follows the machine's speed as it drifts during the run.  Weighting
        every instance once keeps a partly repeated pass from tilting the
        figures towards the instances at the front of the corpus."""
        raw: dict[int, list[float]] = {}
        cal: dict[int, list[float]] = {}
        for j, (k, dt) in enumerate(self.calls):
            i = bisect.bisect_right(self.cal_pos, j)
            local = statistics.fmean(
                self.cal[max(0, i - CAL_WINDOW):i + CAL_WINDOW])
            raw.setdefault(k, []).append(dt)
            cal.setdefault(k, []).append(dt / local)
        return ([statistics.fmean(v) for v in raw.values()],
                [statistics.fmean(v) for v in cal.values()])


def call_cli(cli, inst: Instance):
    """One request: ``latkit <command> - [options]`` with the lattice file
    on standard input and the output captured."""
    out, err = io.StringIO(), io.StringIO()
    argv = [inst.args[0], "-", *inst.args[1:]]
    stdin, sys.stdin = sys.stdin, io.StringIO(inst.text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:
        return f"raised {exc!r}", out.getvalue()
    finally:
        sys.stdin = stdin
    if code != 0:
        return f"exit code {code}: {err.getvalue().strip()}", out.getvalue()
    return "", out.getvalue()


def timed_loop(latkit, corpus: list[Instance], seconds: float,
               tracer: Tracer | None = None) -> Loop:
    """Cycle through the corpus for ``seconds``, interleaving calibration
    slices.  A traced loop stops only between whole passes, so its counts
    are the same for the same corpus."""
    cli = latkit.cli
    n = len(corpus)
    loop = Loop(n)
    loop.calibrate()
    since_cal = 0.0
    start = time.perf_counter()
    k = 0
    while True:
        if k == n:
            k = 0
            loop.passes += 1
            if tracer is not None:
                tracer.keep_spans = False
                elapsed = time.perf_counter() - start
                if elapsed * (loop.passes + 1) / loop.passes > seconds:
                    break
        inst = corpus[k]
        if tracer is not None:
            tracer.instance = inst.name
        t0 = time.perf_counter()
        error, output = call_cli(cli, inst)
        dt = time.perf_counter() - t0
        loop.calls.append((k, dt))
        since_cal += dt
        if error:
            loop.fail(1, f"{inst.name}: {error}")
        elif k not in loop.first_output:
            loop.first_output[k] = output
            loop.ok_calls[k] = 1
        elif output != loop.first_output[k]:
            loop.fail(1, f"{inst.name}: output changed between calls")
        else:
            loop.ok_calls[k] += 1
        if since_cal >= CAL_EVERY_S:
            loop.calibrate()
            since_cal = 0.0
        k += 1
        if tracer is None and time.perf_counter() - start >= seconds:
            break
    return loop


def verify(latkit, corpus: list[Instance], loop: Loop, oracle=untraced
           ) -> None:
    """Check each distinct output once; a wrong output fails every call
    that returned it."""
    for k, output in sorted(loop.first_output.items()):
        inst = corpus[k]
        rows = parse_lattice(inst.text)
        try:
            reason = check_output(latkit, inst, rows, output, oracle)
        except Exception as exc:   # a malformed output must not stop the run
            reason = f"check raised {exc!r}"
        if reason:
            loop.fail(loop.ok_calls[k], f"{inst.name}: {reason}")


def percentiles(values: list[float]) -> tuple[float, float]:
    """Median and 90th percentile."""
    if len(values) < 2:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def end_to_end(loop: Loop, setup_s: float, setup_raw_s: float) -> dict:
    raw, cal = loop.per_instance()
    p50, p90 = percentiles(cal)
    raw_p50, raw_p90 = percentiles(raw)
    return {
        "setup_s": (setup_s, "s"),
        "time_cal": (statistics.fmean(cal), "cal"),
        "latency_p50_cal": (p50, "cal"),
        "latency_p90_cal": (p90, "cal"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        # Raw wall-clock figures: printed, not gated (see module docstring).
        "throughput_ips": (loop.attempted / loop.loop_s, "1/s"),
        "latency_p50_ms": (1000 * raw_p50, "ms"),
        "latency_p90_ms": (1000 * raw_p90, "ms"),
        "calibration_slice_ms": (1000 * statistics.fmean(loop.cal), "ms"),
        "setup_raw_s": (setup_raw_s, "s"),
    }


GATED = ("setup_s", "time_cal", "latency_p50_cal", "latency_p90_cal",
         "peak_rss_mb")
PROGRAM_FUNCTIONS = [f"{layer}.{fn}" for layer, fns in TRACED.items()
                     for fn in fns] + ["core.LatticeBasis"]
COUNTS = ("incremental.insertions", "incremental.updates",
          "reduction.mlll.input_vectors", "enumeration.vectors",
          "decompose.merges", "decompose.components")


def per_layer(tracer: Tracer, loop: Loop) -> dict:
    """Per-pass calls, self time and share of the loop for each traced
    function; per-pass counts; verification time per oracle."""
    passes = loop.passes
    loop_s = loop.loop_s / passes
    metrics = {}

    def per_pass(count: int) -> int:
        if count % passes:
            raise AssertionError(f"count {count} differs between passes")
        return count // passes

    for name in PROGRAM_FUNCTIONS:
        self_s = tracer.self_s[name] / passes
        metrics[f"{name}.calls"] = (per_pass(tracer.calls[name]), "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.share"] = (self_s / loop_s, "ratio")
    for name in COUNTS:
        metrics[name] = (per_pass(tracer.counts[name]), "count")
    insertions = tracer.counts["incremental.insertions"]
    members = insertions - tracer.counts["incremental.updates"]
    metrics["incremental.member_ratio"] = (
        members / insertions if insertions else 0.0, "ratio")
    for name in ORACLES:
        full = f"verify.{name}"
        metrics[f"{full}.calls"] = (tracer.calls[full], "count")
        metrics[f"{full}.self_s"] = (tracer.self_s[full], "s")
    metrics["trace.passes"] = (passes, "count")
    metrics["trace.loop_s"] = (loop_s, "s")
    metrics["trace.time_cal"] = (statistics.fmean(loop.per_instance()[1]),
                                 "cal")
    return metrics


def report(workload: str, seed: int, loop: Loop, metrics: dict,
           shown: tuple[str, ...]) -> dict:
    attempted = loop.attempted
    print(f"{workload} seed {seed}: {attempted} requests over "
          f"{len({k for k, _ in loop.calls})} instances (the latency "
          f"samples), {loop.passes} whole passes, "
          f"{len(loop.cal)} calibration slices")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  {'fail_ratio':<44} {loop.failed / attempted:>14.6g} "
          f"failed/attempted ({loop.failed}/{attempted})")
    for reason in loop.reasons:
        print(f"  failure: {reason}")
    return {
        "correct": loop.failed == 0,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]} for name in shown},
    }


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    latkit, corpus, setup_s, setup_raw_s = setup(workload, seed)
    if not traced:
        loop = timed_loop(latkit, corpus, seconds)
        metrics = end_to_end(loop, setup_s, setup_raw_s)
        verify(latkit, corpus, loop)
        return report(workload, seed, loop, metrics, GATED)
    tracer = Tracer()
    tracer.install(latkit)
    try:
        loop = timed_loop(latkit, corpus, seconds, tracer)
        with tracer.suspended():
            verify(latkit, corpus, loop, tracer.oracle)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload}.jsonl")
    metrics = per_layer(tracer, loop)
    return report(workload, seed, loop, metrics, tuple(metrics))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=GENERATORS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "latkit" / "__init__.py").is_file():
        print(f"error: latkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

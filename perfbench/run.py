"""Benchmark of the logcouple workbench: one closed-loop client, in-process.

    python3 perfbench/run.py --workload {laws,growth,session} --seed N --seconds S --trace {0,1}

Run from anywhere; the package is loaded from ``src/`` next to this
directory.  Each command goes through ``logcouple.cli.main(argv)`` with
stdout captured, and the next command starts when the previous one
returns.  Every answer is checked against ``oracle``.

``--trace 0`` measures the end-to-end metrics: set-up time (a fresh
process importing ``logcouple.cli`` plus input generation, median of
several), then ``--seconds`` of commands.  These timings are scaled by
the machine's speed at the time, measured by ``Speed``.  ``--trace 1``
measures the per-layer metrics, unscaled: it alternates an untraced and
a traced pass over the same fixed commands for ``--seconds`` and reports
medians over the pairs.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Scratch files (generator files, spans, stdout digests) go to
``.perfbench-out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
MODULES = ("gamma", "subspace", "lang", "harness", "cli")  # dependency order

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 5
# Rounds in the fixed pass: the warm-up whose stdout digest is recorded, and
# the pass the traced run repeats.
REFERENCE_ROUNDS = {"laws": 4, "growth": 8, "session": 1}
ACCOUNTING_TOLERANCE = 0.03
PROBE_INTERVAL = 0.02
PROBE_WINDOW = 0.25
PROBE_NOMINAL = 2.5e-4

GAMMA_OPERATORS = (
    "__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__truediv__",
    "__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__hash__",
)
_E = "GammaElement."
# Operations reported as <layer>.<operation>.calls and .self_s, by wrapped name.
TIMED = {
    "gamma": {
        "construct": {_E + "__init__", "unit", "psi_element"},
        "arith": {_E + m for m in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__truediv__")}
        | {"add", "negate", "scale", "divide_by"},
        "order": {_E + m for m in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__")}
        | {"compare", "arch_class_compare"},
        "maps": {
            "psi", "integrate", "derivative", "successor", "predecessor", "psi_level",
            "first_non_one_index", "leading_index", "in_conv_psi", "much_less",
            "in_positive_derivatives", "in_negative_derivatives",
        },
        "text": {"format_element", "parse_element"},
    },
    "lang": {
        "parse": {"parse_term", "parse_formula", "parse_any"},
        "eval": {"eval_term", "eval_formula"},
        "format": {"format_term", "format_formula", "format_any", "term_to_json", "formula_to_json", "ast_json"},
    },
    "subspace": {
        "echelonize": {"echelonize"},
        "s_image": {"Subspace.s_image"},
        "p_image": {"Subspace.p_image"},
        "solve_affine": {"solve_affine"},
        "growth_check": {"growth_check"},
    },
    "harness": {
        "sample": {"sample_coefficient", "sample_element", "sample_positive", "sample_prefixed"},
        "classify": {"classify_affine_image"},
        "witness": {"make_witness"},
    },
    "cli": {"build_parser": {"build_parser"}, "load_generators": {"load_generators"}},
}
# Call counts only.
COUNTED = {
    "gamma.psi_element.calls": ("gamma", {"psi_element"}),
    "gamma.hash.calls": ("gamma", {_E + "__hash__"}),
    "subspace.reduce.calls": ("subspace", {"Subspace.reduce"}),
    "cli.commands": ("cli", {"main"}),
}
# Layers whose total call count is reported.
LAYER_CALLS = ("gamma", "lang", "subspace")
# Counts that identical passes must repeat exactly.
REPEATING = ("gamma.coords_built", "cli.commands", "cli.stdout_bytes", "harness.counter_total")
SUITES = workloads.LAW_SUITES + ("subspace-growth",)

END_TO_END_UNITS = {
    "setup_s": "s",
    "commands_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


# --- running commands -------------------------------------------------------------


class Outcome:
    __slots__ = ("rc", "stdout", "seconds", "error")

    def __init__(self, rc: Optional[int], stdout: str, seconds: float, error: Optional[str]):
        self.rc, self.stdout, self.seconds, self.error = rc, stdout, seconds, error


def execute(main, op: workloads.Op) -> Outcome:
    """Run one command; time it from just before ``main`` to its return."""
    out, err = io.StringIO(), io.StringIO()
    escaped = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(op.argv)
        except Exception as exc:  # an exception escaping cli.main is a failed command
            rc, escaped = None, f"{type(exc).__name__} escaped cli.main"
        t1 = time.perf_counter()
    stdout = out.getvalue()
    error = escaped or op.check(rc, stdout)
    return Outcome(rc, stdout, t1 - t0, error)


class Tally:
    """Attempted and failed commands, with the first few failures kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.examples: List[str] = []

    def add(self, op: workloads.Op, outcome: Outcome) -> None:
        self.attempted += 1
        if outcome.error is not None:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append(f"{' '.join(op.argv)[:160]}: {outcome.error}")


def run_pass(main, rounds, tally: Tally, tracer: Optional[Tracer] = None) -> Dict[str, object]:
    """Run rounds once; return the stdout digest and what the pass measured."""
    digest = hashlib.sha256()
    suite_seconds = {s: 0.0 for s in SUITES}
    suite_trials = {s: 0 for s in SUITES}
    counters = stdout_bytes = 0
    busy = 0.0
    t0 = time.perf_counter()
    for index, op in enumerate(op for r in rounds for op in r):
        if tracer is not None:
            tracer.operation = index
        outcome = execute(main, op)
        tally.add(op, outcome)
        digest.update(f"{outcome.rc}\n{outcome.stdout}\0".encode())
        busy += outcome.seconds
        stdout_bytes += len(outcome.stdout.encode())
        if op.suite and outcome.error is None:
            suite_seconds[op.suite] += outcome.seconds
            suite_trials[op.suite] += op.trials
            counters += sum(json.loads(outcome.stdout)["counters"].values())
    return {
        "digest": digest.hexdigest(),
        "wall": time.perf_counter() - t0,
        "busy": busy,
        "stdout_bytes": stdout_bytes,
        "counters": counters,
        "us_per_trial": {s: suite_seconds[s] * 1e6 / suite_trials[s] if suite_trials[s] else 0.0 for s in SUITES},
    }


# --- machine speed ----------------------------------------------------------------


class Speed:
    """The machine's current speed, from a fixed loop that does not use logcouple.

    The shared CPU here runs the same code up to twice as fast in some
    seconds as in others.  Timings are divided by the probe's time over
    ``PROBE_NOMINAL``, the probe's time in the machine's fast phases, so
    they read as if the machine had kept that speed.
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self.samples: List[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        total, parts, table = Fraction(0), [], {}
        for i in range(1, 60):
            total += Fraction(i % 5 + 1, i % 7 + 1)
            parts.append(f"{total}*e{i}")
            table[i % 13] = (i, total)
        "".join(sorted(parts))
        t1 = time.perf_counter()
        self.times.append(t1)
        self.samples.append(t1 - t0)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.times[-1] >= PROBE_INTERVAL:
            self.sample()

    def slowdown(self, since: int) -> float:
        """Median slowdown over the samples taken since sample index ``since``."""
        return statistics.median(self.samples[since:]) / PROBE_NOMINAL

    def slowdown_near(self, t: float) -> float:
        """Median slowdown over the samples within ``PROBE_WINDOW`` of time ``t``."""
        lo = bisect.bisect_left(self.times, t - PROBE_WINDOW)
        hi = bisect.bisect_right(self.times, t + PROBE_WINDOW)
        if lo == hi:  # no sample that close: take the nearest one
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            hi = lo + 1
        return statistics.median(self.samples[lo:hi]) / PROBE_NOMINAL


# --- set-up -----------------------------------------------------------------------

IMPORT_CODE = "import time; t = time.perf_counter(); import logcouple.cli; print(repr(time.perf_counter() - t))"


def fresh_import_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: importing logcouple.cli failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout)


def set_up(workload: str, seed: int, repeats: int):
    """Generate the inputs ``repeats`` times; keep the last set and the median time.

    Each time also covers a fresh process importing ``logcouple.cli``, and
    is scaled by the speed probes taken just before and after it.
    """
    OUT.mkdir(exist_ok=True)
    speed = Speed()
    times, workdir = [], None
    for _ in range(repeats):
        if workdir is not None:
            shutil.rmtree(workdir)
        mark = len(speed.samples)
        for _ in range(5):
            speed.sample()
        seconds = fresh_import_seconds()
        t0 = time.perf_counter()
        workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
        rounds = workloads.WORKLOADS[workload](seed, workdir)
        seconds += time.perf_counter() - t0
        for _ in range(5):
            speed.sample()
        times.append(seconds / speed.slowdown(mark))
    return rounds, workdir, statistics.median(times)


def code_digest() -> str:
    """Digest of the package and of this benchmark, which fixes the inputs."""
    h = hashlib.sha256()
    for path in sorted((SRC / "logcouple").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def record_digest(workload: str, seed: int, digest: str, problems: List[str]) -> None:
    """Compare with the digest an earlier run of the same seed and sources recorded."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload} seed {seed} code {code_digest()}"
    if known.setdefault(key, digest) != digest:
        problems.append(f"stdout digest {digest[:16]} differs from an earlier run's {known[key][:16]}")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)


def crash_probe(main) -> int:
    """How many of the known crash inputs still raise out of cli.main."""
    unchecked = [workloads.Op(argv, lambda rc, out: None) for argv in workloads.CRASH_INPUTS]
    return sum(execute(main, op).error is not None for op in unchecked)


# --- trace 0: end-to-end metrics --------------------------------------------------


def quantile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def end_to_end(args, rounds, setup_s: float, lines: List[str]):
    import logcouple.cli as cli

    tally, problems = Tally(), []
    reference = run_pass(cli.main, rounds[: REFERENCE_ROUNDS[args.workload]], tally)
    record_digest(args.workload, args.seed, reference["digest"], problems)

    speed = Speed()
    speed.sample()
    # per command: seconds or None if it failed, and the slowdown around it
    latencies: List[tuple] = []
    round_rates, trial_rates, raw_rates = [], [], []
    start = time.perf_counter()
    deadline = start + args.seconds
    index = 0
    while True:
        timed = []
        for op in rounds[index % len(rounds)]:
            outcome = execute(cli.main, op)
            tally.add(op, outcome)
            timed.append((time.perf_counter() - outcome.seconds / 2, outcome, op.trials))
            speed.maybe_sample()
        speed.sample()
        busy = scaled = 0.0
        for middle, outcome, _ in timed:
            slowdown = speed.slowdown_near(middle)
            latencies.append((outcome.seconds if outcome.error is None else None, slowdown))
            busy += outcome.seconds
            scaled += outcome.seconds / slowdown
        raw_rates.append(len(timed) / busy)
        round_rates.append(len(timed) / scaled)
        trial_rates.append(sum(trials for _, _, trials in timed) / scaled)
        index += 1
        if time.perf_counter() >= deadline:
            break
    elapsed = time.perf_counter() - start

    def in_ms(scaled: bool) -> List[float]:
        # A failed command counts as slower than every successful one.
        return [1e3 * (elapsed if s is None else s / slowdown if scaled else s) for s, slowdown in latencies]

    ms, raw_ms = in_ms(True), in_ms(False)
    n = len(ms)
    metrics = {
        "setup_s": setup_s,
        "commands_per_s": statistics.median(round_rates),
        "latency_p50_ms": statistics.median(ms),
        "latency_p99_ms": quantile(ms, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    lines.append(f"timed loop: {elapsed:.1f} s, {index} rounds, {n} commands")
    lines.append(f"  machine slowdown {speed.slowdown(0):.3f} (median probe over the nominal)")
    lines.append("  metric            scaled to nominal speed     as timed")
    raw = {
        "commands_per_s": statistics.median(raw_rates),
        "latency_p50_ms": statistics.median(raw_ms),
        "latency_p99_ms": quantile(raw_ms, 99),
    }
    for name, value in metrics.items():
        as_timed = f"{raw[name]:14.4f}" if name in raw else ""
        lines.append(f"  {name:<16} {value:14.4f} {END_TO_END_UNITS[name]:<4} {as_timed}")
    if args.workload != "session":
        lines.append(f"  {'trials_per_s':<16} {statistics.median(trial_rates):14.4f} 1/s")
    lines.append(f"  latency samples {n}, {n - int(0.99 * n)} at or above p99")
    lines.append(f"  failed_ratio     {tally.failed / tally.attempted:14.4f} ({tally.failed}/{tally.attempted})")
    if args.workload == "session":
        failing = crash_probe(cli.main)
        lines.append(f"  known crash inputs still failing: {failing} of {len(workloads.CRASH_INPUTS)}")
    lines.append(f"  stdout digest of the reference pass: {reference['digest']}")
    return metrics, tally, problems


# --- trace 1: per-layer metrics ---------------------------------------------------


def _package_modules() -> Dict[str, object]:
    return {k: m for k, m in sys.modules.items() if k == "logcouple" or k.startswith("logcouple.")}


def load_traced(coords: List[int]):
    """A second copy of the package with every layer wrapped.

    Each module is wrapped before the modules that import it are loaded,
    so their from-imports and tables bind the wrappers.
    """
    plain = _package_modules()
    for name in plain:
        del sys.modules[name]
    tracer = Tracer()
    try:
        for layer in MODULES:
            module = importlib.import_module(f"logcouple.{layer}")
            operators = {module.GammaElement: GAMMA_OPERATORS} if layer == "gamma" else None
            tracer.wrap_module(module, layer, operators)
            if layer == "gamma":
                init = module.GammaElement.__init__

                def counting_init(element, *args, **kwargs):
                    init(element, *args, **kwargs)
                    coords[0] += len(element.coords)

                module.GammaElement.__init__ = counting_init
        traced_main = module.main
    finally:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(plain)
    return tracer, traced_main


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    def total(layer: str, members: Optional[set], field: int):
        return sum(
            stat[field] for (lay, name), stat in tracer.stats.items() if lay == layer and (members is None or name in members)
        )

    out: Dict[str, float] = {}
    for layer in MODULES:
        if layer in LAYER_CALLS:
            out[f"{layer}.calls"] = total(layer, None, 0)
        out[f"{layer}.self_s"] = total(layer, None, 1)
        for operation, members in TIMED[layer].items():
            out[f"{layer}.{operation}.calls"] = total(layer, members, 0)
            out[f"{layer}.{operation}.self_s"] = total(layer, members, 1)
    for metric, (layer, members) in COUNTED.items():
        out[metric] = total(layer, members, 0)
    return out


def per_layer(args, rounds, lines: List[str]):
    import logcouple.cli as cli

    coords = [0]
    tracer, traced_main = load_traced(coords)
    fixed = rounds[: REFERENCE_ROUNDS[args.workload]]
    tally, problems, samples = Tally(), [], []
    gc_time = {"s": 0.0, "n": 0, "t0": 0.0}

    def on_gc(phase, info):
        if phase == "start":
            gc_time["t0"] = time.perf_counter()
        else:
            gc_time["s"] += time.perf_counter() - gc_time["t0"]
            gc_time["n"] += 1

    run_pass(cli.main, fixed, Tally())  # warm-up, untimed and unchecked
    run_pass(traced_main, fixed, Tally(), tracer)
    deadline = time.perf_counter() + args.seconds
    while True:
        gc_time.update(s=0.0, n=0)
        gc.callbacks.append(on_gc)
        try:
            plain = run_pass(cli.main, fixed, tally)
        finally:
            gc.callbacks.remove(on_gc)
        tracer.reset()
        coords[0] = 0
        traced = run_pass(traced_main, fixed, tally, tracer)
        if traced["digest"] != plain["digest"]:
            problems.append("traced stdout differs from untraced stdout")
        unattributed = traced["wall"] - tracer.top_s
        gap = abs(tracer.self_seconds() + unattributed - traced["wall"])
        if gap > ACCOUNTING_TOLERANCE * traced["wall"]:
            problems.append(f"self times + unattributed miss the traced wall time by {gap:.4f} s")
        m = layer_metrics(tracer)
        m.update(
            {
                "gamma.coords_built": coords[0],
                "cli.stdout_bytes": plain["stdout_bytes"],
                "harness.counter_total": plain["counters"],
                "process.gc_s": gc_time["s"],
                "process.gc_collections": gc_time["n"],
                "trace.overhead_ratio": traced["busy"] / plain["busy"],
                "trace.unattributed_s": unattributed,
            }
        )
        for suite, us in plain["us_per_trial"].items():
            m[f"harness.{suite}.us_per_trial"] = us
        samples.append(m)
        if time.perf_counter() >= deadline:
            break
    record_digest(args.workload, args.seed, plain["digest"], problems)

    metrics: Dict[str, float] = {}
    for name in samples[0]:
        values = [s[name] for s in samples]
        if (name.endswith(".calls") or name in REPEATING) and len(set(values)) > 1:
            problems.append(f"{name} differs between identical passes: {sorted(set(values))}")
        metrics[name] = statistics.median(values)
    for layer in MODULES:
        metrics[f"{layer}.src_lines"] = len((SRC / "logcouple" / f"{layer}.py").read_text().splitlines())
    metrics["cli.crash_inputs_failed"] = crash_probe(cli.main) if args.workload == "session" else 0

    spans_path = OUT / f"spans-{args.workload}.json"
    spans_path.write_text(json.dumps({"fields": ["id", "parent", "operation", "name", "start", "end"], "spans": tracer.spans}))
    lines.append(f"{len(samples)} untraced/traced pass pairs over {len(fixed)} rounds; spans in {spans_path.relative_to(ROOT)}")
    lines.append(f"  stdout digest of the pass: {plain['digest']}")
    layers = sum(metrics[f"{layer}.self_s"] for layer in MODULES)
    lines.append(f"  layer self times {layers:.4f} s + unattributed {metrics['trace.unattributed_s']:.4f} s")
    return metrics, tally, problems


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".us_per_trial"):
        return "us"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "logcouple" / "cli.py").is_file():
        print(f"perfbench: no logcouple sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    lines = [f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}"]
    repeats = SETUP_REPEATS if args.trace == 0 else 1
    rounds, workdir, setup_s = set_up(args.workload, args.seed, repeats)
    try:
        if args.trace:
            metrics, tally, problems = per_layer(args, rounds, lines)
            units = {name: unit_of(name) for name in metrics}
        else:
            metrics, tally, problems = end_to_end(args, rounds, setup_s, lines)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir)
    for problem in problems + tally.examples:
        print(f"perfbench: {problem}", file=sys.stderr)
    print("\n".join(lines))
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

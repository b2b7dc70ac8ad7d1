"""wordrep benchmark: time to verdict on known-answer workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload representable --seed 1 --seconds 40 --trace 0

The package is imported from ``src/`` of the same checkout.  One client
sends one request at a time (a closed loop) from this process; each
request's output is checked against a known answer by the benchmark's
own reference code.  With ``--trace 0`` the run measures for ``--seconds``
(and at least ``MIN_VERDICTS`` inputs) and reports the end-to-end metrics,
scaled by the yardstick below.
With ``--trace 1`` it runs each input of a fixed, seed-determined list
twice, untraced and with per-layer spans, and reports the per-layer
metrics; the fixed list makes the work counters repeat exactly.  The last
line of standard output is the JSON result; the line before it is an
informational report.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from itertools import islice, permutations
from pathlib import Path
from time import perf_counter

import inputs
import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "wordrep"

SETUP_REPEATS = 11
MIN_VERDICTS = 100
TRACE_CYCLES = 2
WARMUP_GRAPH = "vertices: a b c d\na b\nb c\nc d\nd a\n"

# The yardstick: a fixed pure-Python computation in the benchmark's own
# code, which no change to wordrep can touch.  It runs before every
# request and every set-up probe.  Each request time is scaled by REFERENCE_YARDSTICK_S over
# the median of the yardstick times around it, so a spell in which the
# shared machine runs slow stretches the yardstick and the requests alike
# and drops out; the figures are seconds on a machine that runs the
# yardstick in REFERENCE_YARDSTICK_S.
YARDSTICK_GRAPH = inputs.g1bar(4)
YARDSTICK_TOURNAMENT = [sum(1 << j for j in range(i + 1, 8)) for i in range(8)]
YARDSTICK_WINDOW = 4  # yardsticks on each side of a request
REFERENCE_YARDSTICK_S = 0.003


def src_lines() -> int:
    """Non-blank lines of the package source, the design aim's line count."""
    return sum(1 for path in sorted(PACKAGE.rglob("*.py"))
               for line in path.read_text().splitlines() if line.strip())


def load_package() -> None:
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: no wordrep package at {PACKAGE}; run from a checkout")
    sys.path.insert(0, str(PACKAGE.parent))
    import wordrep

    if Path(wordrep.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"error: imported wordrep from {wordrep.__file__}, not {PACKAGE}")


def yardstick() -> float:
    start = perf_counter()
    reference.count_acyclic_orientations(YARDSTICK_GRAPH.labels, YARDSTICK_GRAPH.edges)
    reference.has_shortcut(YARDSTICK_TOURNAMENT)
    len({hash(order) for order in permutations(range(7))})
    return perf_counter() - start


def scaled(times: list[float], sticks: list[float]) -> list[float]:
    """Each time in reference seconds, by the median yardstick of its neighbourhood."""
    w = YARDSTICK_WINDOW
    return [t * REFERENCE_YARDSTICK_S / statistics.median(sticks[max(0, i - w):i + w + 1])
            for i, t in enumerate(times)]


def measure_setup(warmup: Path, sticks: list[float]) -> float:
    """Median time of ``import wordrep`` plus one small request in a fresh interpreter.

    Each probe is a new process that times itself from before the import
    to its first verdict; a yardstick runs before each probe.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        sticks.append(yardstick())
        probe = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(warmup)],
                               cwd=ROOT, check=True, capture_output=True, text=True,
                               timeout=120)
        times.append(float(probe.stdout))
    return statistics.median(times)


class Tally:
    """Request times, failures and input classes of one pass."""

    def __init__(self):
        self.durations: list[float] = []
        self.failures: list[str] = []
        self.kinds: Counter = Counter()

    def record(self, case) -> None:
        start = perf_counter()
        try:
            output = case.run()
        except Exception as exc:  # a request that raises is a failed input
            self.durations.append(perf_counter() - start)
            self.failures.append(f"{case.kind}: raised {exc!r}")
        else:
            self.durations.append(perf_counter() - start)
            try:
                case.check(output)
            except Exception as exc:  # wrong verdict, bad certificate, malformed output
                self.failures.append(f"{case.kind}: {exc!r}")
        self.kinds[case.kind] += 1

    @property
    def attempted(self) -> int:
        return len(self.durations)


def run_for(stream, seconds: float) -> tuple[Tally, list[float]]:
    tally, sticks = Tally(), []
    start = perf_counter()
    for case in stream:
        sticks.append(yardstick())
        tally.record(case)
        if perf_counter() - start >= seconds and tally.attempted >= MIN_VERDICTS:
            break
    return tally, sticks


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path,
               warmup: Path) -> tuple[list[Tally], dict, dict]:
    setup_sticks: list[float] = []
    setup = measure_setup(warmup, setup_sticks)
    workloads.call_cli(["representable", str(warmup)])
    tally, sticks = run_for(workloads.cases(workload, seed, workdir), seconds)
    size = workloads.CYCLE_LENGTH[workload]

    def summary(times: list[float]) -> dict:
        # Throughput per complete cycle of input classes, then the median
        # over cycles, so a slow spell shifts a few cycles, not the figure.
        cycles = [size / sum(times[start:start + size])
                  for start in range(0, len(times) - size + 1, size)]
        return {"verdict_p50_s": statistics.median(times),
                "verdict_p90_s": statistics.quantiles(times, n=10)[8],
                "inputs_per_s": statistics.median(cycles)}

    raw = {"setup_s": setup, **summary(tally.durations),
           "yardstick_s": statistics.median(sticks)}
    result = summary(scaled(tally.durations, sticks))
    # The probes are too few for a local yardstick; the run's median serves.
    setup_scaled = setup * REFERENCE_YARDSTICK_S / statistics.median(setup_sticks + sticks)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return [tally], raw, {
        "setup_s": metric(setup_scaled, "s"),
        "verdict_p50_s": metric(result["verdict_p50_s"], "s"),
        "verdict_p90_s": metric(result["verdict_p90_s"], "s"),
        "inputs_per_s": metric(result["inputs_per_s"], "1/s"),
        "peak_rss_mb": metric(rss_kb / 1024, "MB"),
        "correct_share": metric(1 - len(tally.failures) / tally.attempted, "share"),
    }


def traced(workload: str, seed: int, workdir: Path, warmup: Path
           ) -> tuple[list[Tally], dict, dict]:
    count = TRACE_CYCLES * workloads.CYCLE_LENGTH[workload]
    cases = list(islice(workloads.cases(workload, seed, workdir), count))
    workloads.call_cli(["representable", str(warmup)])
    tracer = tracing.Tracer()
    plain, spans = Tally(), Tally()

    def record_traced(case) -> None:
        uninstall = tracing.install(tracer)
        try:
            spans.record(case)
        finally:
            uninstall()

    # Each input runs untraced and traced back to back, in alternating
    # order, so drift in machine speed does not enter trace.overhead_s.
    for number, case in enumerate(cases):
        for step in ((plain.record, record_traced) if number % 2 else
                     (record_traced, plain.record)):
            step(case)
    traced_s, plain_s = sum(spans.durations), sum(plain.durations)
    metrics = {f"{layer}.self_s": metric(tracer.self_s[layer], "s")
               for layer in tracing.LAYERS}
    metrics.update({name: metric(tracer.counts[name], "count") for name in tracing.COUNTERS})
    orders = tracer.counts["orientations.enumerate.orders"]
    yielded = tracer.counts["orientations.enumerate.yielded"]
    metrics["orientations.enumerate.useful_ratio"] = metric(
        yielded / orders if orders else 0.0, "ratio")
    metrics["trace.wall_s"] = metric(traced_s, "s")
    metrics["trace.overhead_s"] = metric(traced_s - plain_s, "s")
    metrics["src_lines"] = metric(src_lines(), "lines")
    return [plain, spans], {}, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_package()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        workdir = Path(tmp)
        warmup = workdir / "warmup.graph"
        warmup.write_text(WARMUP_GRAPH)
        if args.trace:
            tallies, raw, metrics = traced(args.workload, args.seed, workdir, warmup)
        else:
            tallies, raw, metrics = end_to_end(args.workload, args.seed, args.seconds,
                                               workdir, warmup)

    attempted = sum(t.attempted for t in tallies)
    failures = [f for t in tallies for f in t.failures]
    for failure in failures[:20]:
        print(f"failed: {failure}", file=sys.stderr)
    kinds = sum((t.kinds for t in tallies), Counter())
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "src_lines": src_lines(), "unscaled": raw,
                      "inputs": dict(sorted(kinds.items()))}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

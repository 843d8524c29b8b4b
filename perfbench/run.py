"""Benchmark for cublink: one workload per run, its metrics as JSON on the last stdout line.

    python3 perfbench/run.py --workload links --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src``.  With ``--trace 0`` the run sets the inputs up several times, then
repeats whole rounds of the workload's operations until ``--seconds`` have
passed, and prints the end-to-end metrics, with every time scaled to a
reference host speed (see ``HostSpeed``).  With ``--trace 1`` it runs one
round, runs it again with a span around each layer call (spans.py), and
prints the per-layer metrics.  Every output is checked
either way.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("links", "geometry")
SETUP_SECONDS = 1.0    # set up again until this much time is spent ...
SETUP_REPEATS = 5      # ... and at least this many times
WARM_UP_SECONDS = 1.0
CALIBRATION_S = 0.001  # the calibration work's time at the reference host speed
CALIBRATION_REPEATS = 5
SAMPLE_INTERVAL_S = 0.05
DIGESTS = HERE / "digests.json"


@dataclass
class Outcome:
    op: object
    code: int | None
    text: str            # stdout, or the distance of a mesh query
    error: str | None    # the exception that escaped the program, if any
    seconds: float


def _run_cli(op):
    from cublink import cli

    buf = io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(buf):
            code = cli.main([*op.argv, op.path])
        error = None
    except Exception as err:  # an escaping exception is the program's failure, not ours
        code, error = None, f"{type(err).__name__}: {err}"
    return Outcome(op, code, buf.getvalue(), error, perf_counter() - start)


def _run_mesh(op, approximators):
    from cublink.complexes import OrderedComplex
    from cublink.metric import MeshApproximator, frac_str
    from workloads import query_points

    q = op.payload
    start = perf_counter()
    try:
        if q["kind"] == "first":
            with open(op.path) as fh:
                X = OrderedComplex.from_json(json.load(fh))
            approximators[q["complex"]] = MeshApproximator(X, q["mesh"])
        text = frac_str(approximators[q["complex"]].distance(*query_points(q)))
        code, error = 0, None
    except Exception as err:
        code, text, error = None, "", f"{type(err).__name__}: {err}"
    return Outcome(op, code, text, error, perf_counter() - start)


def run_op(op, approximators):
    return _run_mesh(op, approximators) if op.check == "mesh" else _run_cli(op)


def run_round(ops):
    approximators = {}  # the mesh queries of one round share one approximator per complex
    return [run_op(op, approximators) for op in ops]


def check_all(outcomes):
    """Reasons for every output that fails its check; failed operations are not checked."""
    from checks import CHECKS

    problems = []
    for o in outcomes:
        if o.error is None:
            why = CHECKS[o.op.check](o.op, o.code, o.text)
            if why:
                problems.append(f"{o.op.name}: {why}")
    return problems


# -- stdout digests ------------------------------------------------------------------


def digest_key(workload, op):
    """The workload, the arguments but for file paths, and the input."""
    argv = [a for a in op.argv if not os.path.isabs(a)]
    material = [workload, argv, op.payload, op.expect.get("phi")]
    return hashlib.sha256(json.dumps(material, sort_keys=True).encode()).hexdigest()[:16]


def digest_value(outcome):
    text = outcome.text if outcome.error is None else f"raised {outcome.error}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest_report(workload, outcomes):
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    report = {"checked": 0, "differ": 0, "unknown": 0}
    for o in outcomes:
        want = stored.get(digest_key(workload, o.op))
        if want is None:
            report["unknown"] += 1
        else:
            report["checked"] += 1
            report["differ"] += want != digest_value(o)
    return report


# -- the two kinds of run --------------------------------------------------------------


def _percentile(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _builds_graph(op):
    """The first mesh query on a complex builds the approximator's graph; it is not an op."""
    return op.check == "mesh" and op.payload["kind"] == "first"


def _calibration_work():
    """Fixed work that allocates small objects (Fractions, tuples, sets, dicts), as cublink does."""
    seen, table = set(), {}
    for i in range(1, 150):
        f = Fraction(i, 7) + Fraction(3, i)
        seen.add((i % 13, f))
        table[frozenset((i % 5, i % 7, i % 11))] = [f, i]
    return len(seen) + len(table)


def calibrate():
    """The time the calibration work takes now: the median of a few repeats."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = perf_counter()
        _calibration_work()
        times.append(perf_counter() - start)
    return statistics.median(times)


class HostSpeed:
    """Times calls at a reference host speed.

    The VM's speed changes with its host's load by up to 1.8x, in spells from
    under a second to minutes (README.md, "Reference figures"), and whole runs
    can fall inside one.  The calibration work measures the speed of the
    moment: it runs before and after each timed call and, from a timer
    signal, every SAMPLE_INTERVAL_S during it.  The call's time, less the
    time of those samples, is scaled by CALIBRATION_S over their mean, to the
    speed at which that work takes CALIBRATION_S.  A slower program is slower
    at every speed, so it still reads slower.
    """

    def __init__(self):
        self.before = None       # the last calibration: the next call's "before"
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        start = perf_counter()
        _calibration_work()
        seconds = perf_counter() - start
        self.samples.append(seconds)
        self.spent += seconds

    def time(self, fn, *args):
        """fn(*args), its time less the samples, and that time at the reference speed."""
        if self.before is None:
            self.before = calibrate()
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            seconds = perf_counter() - start - self.spent
            signal.setitimer(signal.ITIMER_REAL, 0)
        after = calibrate()
        speed = statistics.mean([self.before, *self.samples, after])
        self.before = after
        return result, seconds, seconds * CALIBRATION_S / speed


def warm_up():
    """Keep the CPU busy for a moment, so the first measurements do not find it idle."""
    end = perf_counter() + WARM_UP_SECONDS
    while perf_counter() < end:
        pass


def set_up(workload, seed, workdir, speed):
    """The operations, and the scaled time of each set-up: at least SETUP_REPEATS and SETUP_SECONDS."""
    from workloads import SETUPS

    times, spent = [], 0.0
    while len(times) < SETUP_REPEATS or spent < SETUP_SECONDS:
        shutil.rmtree(workdir, ignore_errors=True)
        ops, seconds, scaled_s = speed.time(SETUPS[workload], seed, str(workdir))
        times.append(scaled_s)
        spent += seconds
    return ops, times


def timed_round(ops, speed):
    """The outcomes of one round, and each operation's unscaled and scaled time."""
    approximators = {}
    outcomes, wall, scaled_s = [], [], []
    for op in ops:
        outcome, seconds, at_reference = speed.time(run_op, op, approximators)
        outcomes.append(outcome)
        wall.append(seconds)
        scaled_s.append(at_reference)
    return outcomes, wall, scaled_s


def timed_run(workload, seed, seconds, workdir):
    warm_up()
    speed = HostSpeed()
    ops, setup_times = set_up(workload, seed, workdir, speed)
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:  # whole rounds only
        rounds.append(timed_round(ops, speed))
    setup_times += set_up(workload, seed, workdir, speed)[1]  # the same files again, at the other end of the run
    outcomes = [o for r, _, _ in rounds for o in r]

    # Each operation and the set-up count with their median scaled time in the run.
    op_s = [statistics.median(r[2][k] for r in rounds) for k in range(len(ops))]
    wall = [statistics.median(r[1][k] for r in rounds) for k in range(len(ops))]
    ok = [rounds[0][0][k].error is None for k in range(len(ops))]
    timed = [k for k, op in enumerate(ops) if not _builds_graph(op)]
    parts = {}
    for k in timed:
        parts.setdefault(ops[k].part, []).append(k)
    # each part's rate weighs the same, whatever its operations cost
    rates = {part: sum(ok[k] for k in ks) / sum(op_s[k] for k in ks) for part, ks in parts.items()}
    wall_rates = [sum(ok[k] for k in ks) / sum(wall[k] for k in ks) for ks in parts.values()]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (statistics.geometric_mean(rates.values()), "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    # reported, not gated: each is the time of a single operation, and over ten runs on
    # a shared 2-vCPU VM they spread by over a third of the largest bound (see README.md)
    done = sorted(op_s[k] for k in timed if ok[k])
    extra = {"op_p50_s": (statistics.median(done), "s"), "op_p90_s": (_percentile(done, 0.9), "s")}
    extra.update({f"ops_per_s.{part}": (rate, "1/s") for part, rate in rates.items()})
    extra["ops_per_s.unscaled"] = (statistics.geometric_mean(wall_rates), "1/s")
    large = [k for k, op in enumerate(ops) if op.chambers and ok[k]]
    if large:  # the large complexes of the links workload
        extra["chambers_per_s"] = (sum(ops[k].chambers for k in large) / sum(op_s[k] for k in large), "1/s")
    builds = [k for k, op in enumerate(ops) if _builds_graph(op) and op.payload["complex"] == "patch"]
    if builds:
        extra["graph_build_s"] = (op_s[builds[0]], "s")
    extra.update({"rounds": (len(rounds), "count"), "ops_per_round": (len(done), "count")})
    print(json.dumps({"workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}}))
    print(json.dumps({"digests": digest_report(workload, outcomes)}))
    return outcomes, check_all(outcomes), {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def traced_run(workload, seed, workdir):
    """One round, each operation run untraced and then with a span around each layer call.

    Running the two right after each other, operation by operation, keeps the
    host's changes of speed out of the overhead they measure.
    """
    from spans import Tracer, instrumented, layer_metrics
    from workloads import SETUPS

    warm_up()
    tr = Tracer()
    with tr.span("setup"):
        ops = SETUPS[workload](seed, str(workdir), tr.call)
    approximators, traced_approximators = {}, {}  # each run of the round builds its own
    outcomes, problems, traced_s = [], [], 0.0
    for op in ops:
        o = run_op(op, approximators)
        kind = op.payload["kind"] if op.check == "mesh" else op.check
        with instrumented(tr), tr.span("op", op=op.name, kind=kind) as root:
            again = run_op(op, traced_approximators)
        outcomes.append(o)
        traced_s += root["end"] - root["start"]
        if (again.code, again.text, again.error) != (o.code, o.text, o.error):
            problems.append(f"{op.name}: the traced run's result differs from the operation's output")
    problems += check_all(outcomes)

    spans_dir = ROOT / ".bench_work" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_path = spans_dir / f"{workload}-seed{seed}.json"
    spans_path.write_text(json.dumps(tr.spans))
    untraced_s = sum(o.seconds for o in outcomes)
    print(json.dumps({"tracing": {"spans": str(spans_path.relative_to(ROOT)), "span_count": len(tr.spans),
                                  "untraced_ops_s": untraced_s, "traced_ops_s": traced_s,
                                  "overhead_s": traced_s - untraced_s}}))
    return outcomes, problems, layer_metrics(tr)


def load_program():
    """Import cublink from this checkout's src; None with a message if it is not there."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import cublink
    except ImportError as err:
        print(f"cannot import cublink from {ROOT / 'src'}: {err}", file=sys.stderr)
        return None
    if not Path(cublink.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"cublink was imported from {cublink.__file__}, not from this checkout", file=sys.stderr)
        return None
    return cublink


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if load_program() is None:
        return 2
    os.environ.pop("CUBLINK_THREADS", None)  # validated by the CLI, then ignored

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            outcomes, problems, metrics = traced_run(args.workload, args.seed, workdir)
        else:
            outcomes, problems, metrics = timed_run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"wrong output: {p}", file=sys.stderr)
    for failure in sorted({f"{o.op.name}: {o.error}" for o in outcomes if o.error is not None}):
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(o.error is not None for o in outcomes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The closed loop shared by every workload: set-up, rounds of verdicts,
oracle checks and the metrics printed at the end.

A workload module defines `NAME` and:

- `make_inputs(rng, work)`: the run's inputs, made once and not timed;
- `round_inputs(inputs, rng)` (optional): the inputs of one round's
  set-up, drawn before it and not timed;
- `setup(program, inputs)`: the program work every verdict of a round
  shares, timed as set-up;
- `make_round(program, shared, rng, index, work)`: the round's `Op`s.
"""

import contextlib
import gc
import importlib
import io
import os
import random
import resource
import shutil
import statistics
import sys
import time
import typing
from types import SimpleNamespace

from tracing import Tracer

MODULES = ("syntax", "structures", "propositional", "omega_rules",
           "types_atomicity", "morley", "cli")

# a run does at least this many rounds, so that it holds well over 100
# verdicts
MIN_ROUNDS = 8
# untraced set-ups per round: a run of the slowest workload has only 8 to
# 10 rounds, and the median of that few set-ups spread by 11% over ten runs
SETUPS_PER_ROUND = 3


class Op:
    """One verdict: `call` runs the program and is timed, `check` compares
    its result with an oracle and returns None or a complaint.  `fault`,
    for the operations a named program fault makes fail, tells from a
    result that `check` rejects whether it is that fault's answer; any
    other failure of the operation is a wrong verdict."""

    __slots__ = ("kind", "call", "check", "fault")

    def __init__(self, kind, call, check, fault=None):
        self.kind = kind
        self.call = call
        self.check = check
        self.fault = fault

    def judge(self, result):
        """(complaint or None, whether the complaint is the named fault)."""
        try:
            error = self.check(result)
            known = (error is not None and self.fault is not None
                     and bool(self.fault(result)))
        except Exception as e:  # a result the oracle cannot read
            return f"check raised {type(e).__name__}: {e}", False
        return error, known


def attempt(op):
    """Run and judge one operation: (ns in the call, complaint or None,
    whether the complaint is the named fault).  A call that raises has
    failed, never by the named fault."""
    t0 = time.perf_counter_ns()
    try:
        result = op.call()
    except Exception as e:
        return (time.perf_counter_ns() - t0,
                f"raised {type(e).__name__}: {e}", False)
    elapsed = time.perf_counter_ns() - t0
    return (elapsed,) + op.judge(result)


def round_inputs(workload, inputs, rng):
    """The inputs of one round's set-up."""
    draw = getattr(workload, "round_inputs", None)
    return inputs if draw is None else draw(inputs, rng)


def forget_program():
    """Drop the package from `sys.modules`, and typing's caches, which would
    keep every earlier copy of it alive, so that the next import is fresh."""
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    for name in list(sys.modules):
        if name == "omegalogic" or name.startswith("omegalogic."):
            del sys.modules[name]


def load_program():
    """Import every module of the package."""
    return SimpleNamespace(**{
        name: importlib.import_module(f"omegalogic.{name}")
        for name in MODULES})


def run_cli(program, argv):
    """`omega <argv>` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = program.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Pace:
    """The host's speed, read from a probe: a fixed piece of the
    benchmark's own pure-Python code, of the kinds of work the program
    does (a recursive walk over tuple formulas, dict copies, frozensets),
    timed before every verdict and set-up.

    The host runs in slow and fast phases lasting seconds to minutes, in
    which the same program call takes up to 1.75 times as long; the probe
    stretches with it, so that program time divided by the probe time
    around it moved by about 5% where raw times moved by 75%.  Times are
    reported at the reference pace, where the probe takes REF_NS."""

    REF_NS = 700_000
    WINDOW = 5  # probes on each side of a verdict

    FORMULA = ("and", ("or", ("v", "a"), ("not", ("v", "b"))),
               ("or", ("v", "c"), ("and", ("v", "a"), ("v", "d"))))

    def __init__(self):
        self.samples = []

    @classmethod
    def _value(cls, f, env):
        op = f[0]
        if op == "v":
            return env[f[1]]
        if op == "not":
            return not cls._value(f[1], env)
        if op == "and":
            return cls._value(f[1], env) and cls._value(f[2], env)
        return cls._value(f[1], env) or cls._value(f[2], env)

    def _work(self):
        out = set()
        for i in range(150):
            env = {"a": i & 1 == 1, "b": i & 2 == 2, "c": i & 4 == 4,
                   "d": i & 8 == 8}
            scope = dict(env)
            scope["x"] = i
            out.add(frozenset((k, v) for k, v in env.items()
                              if self._value(self.FORMULA, scope)))
        return out

    def tick(self):
        """Time the probe once; returns its index."""
        gc.disable()
        try:
            t0 = time.perf_counter_ns()
            self._work()
            self.samples.append(time.perf_counter_ns() - t0)
        finally:
            gc.enable()
        return len(self.samples) - 1

    def scale(self, index):
        """Factor taking a time measured next to probe `index` to the
        reference pace: REF_NS over the median of the nearby probes."""
        near = self.samples[max(0, index - self.WINDOW):
                            index + self.WINDOW + 1]
        return self.REF_NS / statistics.median(near)


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(workload, seed, seconds, trace, root):
    out_dir = os.path.join(root, ".perfbench_out")
    work = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return _run(workload, seed, seconds, trace, out_dir, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, seed, seconds, trace, out_dir, work):
    inputs = workload.make_inputs(random.Random(f"{seed}/inputs"), work)

    program = shared = ops = tracer = None
    if trace:
        program = load_program()
        tracer = Tracer(vars(program))

    rng = random.Random(f"{seed}/rounds")
    pace = Pace()
    setups = []  # (probe index, s)
    verdicts = []  # (probe index, ns, traced round?)
    attempted = failed = 0
    problems = []
    rounds = 0
    start = time.perf_counter()
    # traced and untraced rounds come in pairs, so that each sees both
    # parities of a workload that alternates by round
    while (rounds < MIN_ROUNDS or time.perf_counter() - start < seconds
           or (trace and rounds % 4)):
        traced = bool(trace) and rounds % 4 < 2
        if tracer is not None:
            if traced:
                tracer.install()
            else:
                tracer.remove()
        this_round = round_inputs(workload, inputs, rng)
        # set up again before every round, so that the median set-up spans
        # the same stretch of time as the verdicts.  Untraced, the package
        # is imported afresh each time; the previous copy and all built
        # from it are collected first, so that the timed set-up starts clean
        for _ in range(1 if trace else SETUPS_PER_ROUND):
            if not trace:
                program = shared = ops = None
                forget_program()
            gc.collect()
            mark = pace.tick()
            t0 = time.perf_counter()
            if not trace:
                program = load_program()
            shared = workload.setup(program, this_round)
            setups.append((mark, time.perf_counter() - t0))
        ops = workload.make_round(program, shared, rng, rounds, work)
        rng.shuffle(ops)
        gc.collect()
        for op in ops:
            mark = pace.tick()
            elapsed, error, known = attempt(op)
            attempted += 1
            if error is not None:
                failed += 1
                if not known:
                    problems.append(f"{op.kind}: {error}")
            else:
                verdicts.append((mark, elapsed, traced))
        rounds += 1
    if tracer is not None:
        tracer.remove()

    for line in problems[:20]:
        print(f"wrong verdict: {line}", file=sys.stderr)
    print(f"workload {workload.NAME} seed {seed}: {rounds} rounds, "
          f"{attempted} verdicts, {failed} failed", file=sys.stderr)

    raw = [ns for _, ns, _ in verdicts]
    lat = [ns * pace.scale(mark) for mark, ns, traced in verdicts
           if not traced]
    print(f"host pace: probe median {statistics.median(pace.samples)} ns "
          f"(reference {Pace.REF_NS}); unscaled verdict median "
          f"{statistics.median(raw) / 1e6:.4f} ms", file=sys.stderr)

    if trace:
        metrics = tracer.metrics(
            rounds // 2, Pace.REF_NS / statistics.median(pace.samples))
        on = [ns * pace.scale(mark) for mark, ns, traced in verdicts
              if traced]
        overhead = (sum(on) / len(on)) / (sum(lat) / len(lat)) - 1
        metrics["trace.overhead_pct"] = {"value": 100 * overhead,
                                         "unit": "%"}
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(
            out_dir, f"trace-{workload.NAME}-{seed}.jsonl"))
    else:
        setup = [t * pace.scale(mark) for mark, t in setups]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "verdicts_per_s": {"value": len(lat) / (sum(lat) / 1e9),
                               "unit": "1/s"},
            "verdict_p50_ms": {"value": statistics.median(lat) / 1e6,
                               "unit": "ms"},
            "verdict_p90_ms": {"value": _percentile(lat, 90) / 1e6,
                               "unit": "ms"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
        }
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}

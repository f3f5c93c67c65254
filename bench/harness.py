"""Closed-loop runner: set-up, timed passes, output checks and layer spans.

One client and no threads: every library call starts only after the
previous one returned. A pass runs a workload's operations once, in order.
Only the operations themselves are timed; the checks run between them.
"""

from __future__ import annotations

import array
import dataclasses
import hashlib
import importlib
import math
import os
import platform
import resource
import statistics
import struct
import sys
import time

LAYERS = (
    "ndcore", "lindecomp", "spectral", "microlearn", "dynamics", "optimize",
    "autodiff", "roots", "interp", "quadrature", "numcli",
)


class Tracer:
    """Span recorder around the benchmark's own calls into the library.

    While ``on`` is false, ``call`` adds one Python call and nothing else.
    Spans are kept in memory as [layer, function, start_ns, end_ns, parent]
    and written out when the run ends.
    """

    def __init__(self) -> None:
        self.on = False
        self.spans: list[list] = []
        self._parent = -1

    def call(self, layer: str, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        parent = self._parent
        rec = [layer, fn.__name__, 0, 0, parent]
        self.spans.append(rec)
        self._parent = len(self.spans) - 1
        rec[2] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter_ns()
            self._parent = parent


def layer_self_times(spans: list[list]) -> tuple[dict, dict]:
    """Self seconds and call counts per layer; nested spans are subtracted."""
    child_ns = [0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    busy = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for i, (layer, _, start, end, _) in enumerate(spans):
        busy[layer] += (end - start - child_ns[i]) * 1e-9
        calls[layer] += 1
    return busy, calls


@dataclasses.dataclass
class Check:
    """Outcome of one output check: pass/fail, correct digits, extra counts."""

    ok: bool
    digits: float
    note: str = ""
    extra: dict = dataclasses.field(default_factory=dict)


def digits_of(err: float) -> float:
    """Correct digits for a relative error, capped at 16."""
    if not err > 1e-16:  # zero, or below double precision
        return 16.0
    return -math.log10(err)


def within(err: float, tol: float, note: str) -> Check:
    """Check that a relative error stays within its stated tolerance."""
    ok = math.isfinite(err) and err <= tol
    text = f"{note}: error {err:.3g}, tolerance {tol:.3g}"
    return Check(ok, digits_of(err) if math.isfinite(err) else 0.0, text)


def holds(condition: bool, note: str) -> Check:
    """A yes/no check; it carries no error size, so it adds no digits."""
    return Check(bool(condition), 16.0 if condition else 0.0, note)


def all_of(*checks: Check) -> Check:
    """Combine checks: every one must pass; digits are the smallest."""
    extra: dict = {}
    for c in checks:
        extra.update(c.extra)
    return Check(
        all(c.ok for c in checks),
        min(c.digits for c in checks),
        "; ".join(c.note for c in checks if not c.ok),
        extra,
    )


@dataclasses.dataclass
class Context:
    """What a workload's build function needs: package, seed, a temp dir."""

    dk: object  # the freshly imported desknum package
    seed: int
    tmp: str  # directory for CLI input and output files
    goldens: dict  # CLI outputs recorded from the seed code, by op name


class Op:
    """One timed library operation plus its correctness check.

    ``run(tracer)`` does the timed work and returns the output;
    ``check(output)`` returns a Check. ``produces`` names the per-layer
    kernel metrics that ``kernel(seconds, check)`` returns; ``inputs`` is
    what the inputs are made of, for the seed-determinism test.
    """

    __slots__ = ("name", "run", "check", "inputs", "produces", "kernel")

    def __init__(self, name, run, check, inputs=(), produces=(), kernel=None):
        self.name = name
        self.run = run
        self.check = check
        self.inputs = inputs
        self.produces = tuple(produces)
        self.kernel = kernel


def _feed(h, obj) -> None:
    if isinstance(obj, float):
        h.update(struct.pack("<d", obj))
    elif isinstance(obj, (bool, int)):
        h.update(b"i%d;" % obj)
    elif isinstance(obj, (bytes, bytearray)):
        h.update(b"b%d;" % len(obj))
        h.update(obj)
    elif isinstance(obj, str):
        h.update(b"s" + obj.encode() + b";")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        try:
            h.update(array.array("d", obj).tobytes())
        except TypeError:
            for item in obj:
                _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, dict):
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
    elif obj is None:
        h.update(b"n")
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    elif hasattr(obj, "__dict__"):
        _feed(h, vars(obj))
    elif hasattr(obj, "__slots__"):
        for name in obj.__slots__:
            _feed(h, getattr(obj, name))
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(obj) -> str:
    """sha256 over the exact bits of every number in an output or input."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def import_desknum(src_dir: str):
    """Import desknum afresh from ``src_dir``; earlier imports are dropped."""
    for name in [m for m in sys.modules if m == "desknum" or m.startswith("desknum.")]:
        del sys.modules[name]
    if sys.path[0] != src_dir:
        sys.path.insert(0, src_dir)
    importlib.invalidate_caches()
    pkg = importlib.import_module("desknum")
    origin = os.path.dirname(os.path.abspath(pkg.__file__))
    if origin != os.path.join(src_dir, "desknum"):
        raise ImportError(f"desknum came from {origin}, not from {src_dir}")
    return pkg


class Tally:
    """Counts operations and check misses over a run."""

    def __init__(self, log=None) -> None:
        self.attempted = 0
        self.failed = 0
        self.min_digits = math.inf
        self.verified: dict[str, tuple[str, Check]] = {}
        self.log = log or (lambda msg: print(msg, file=sys.stderr))

    def record(self, op: Op, result, error) -> tuple[Check, str]:
        """Check one output and return the check and the output digest.

        A repeat of a verified output reuses its check; any other change of
        output between passes is a miss.
        """
        self.attempted += 1
        key = "raised"
        if error is not None:
            chk = Check(False, 0.0, f"raised {type(error).__name__}: {error}")
        else:
            key = digest(result)
            known = self.verified.get(op.name)
            if known is not None and known[0] == key:
                chk = known[1]
            elif known is not None:
                chk = Check(False, 0.0, "output differs from the first pass")
            else:
                try:
                    chk = op.check(result)
                except Exception as exc:  # a check that cannot run is a miss
                    chk = Check(False, 0.0, f"check raised {type(exc).__name__}: {exc}")
                self.verified[op.name] = (key, chk)
            self.min_digits = min(self.min_digits, chk.digits)
        if not chk.ok:
            self.failed += 1
            self.log(f"check failed: {op.name}: {chk.note}")
        return chk, key


def _gauge_work() -> float:
    xs = [float(i % 97) for i in range(2000)]
    total = 0.0
    for _ in range(30):
        total += sum(x * 1.0000001 + 0.5 for x in xs)
        xs = [x * 0.5 + 1.0 for x in xs]
    return total


class SpeedGauge:
    """Machine-speed gauge: a fixed pure-Python loop, timed between ops.

    On a shared host other tenants slow every CPU-bound Python loop alike,
    by up to half, for seconds at a time, while the ratio of an op's time
    to this loop's time stays within a few percent. An op's time is scaled
    to the speed at which the loop takes REFERENCE_S, using the mean of
    the gauge samples taken just before and just after it.
    """

    REFERENCE_S = 0.004  # about the loop's time on a quiet 2-vCPU Xeon VM, Python 3.11
    EVERY_S = 0.25

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._at = -math.inf

    def measure(self) -> int:
        """Take a sample (the faster of two loop runs); return its index."""
        clock = time.perf_counter
        best = math.inf
        for _ in range(2):
            start = clock()
            _gauge_work()
            best = min(best, clock() - start)
        self.samples.append(best)
        self._at = clock()
        return len(self.samples) - 1

    def latest(self) -> int:
        """Index of a sample no older than EVERY_S, taking one if needed."""
        if time.perf_counter() - self._at >= self.EVERY_S:
            return self.measure()
        return len(self.samples) - 1

    def scale(self, before: int, after: int) -> float:
        return 2.0 * self.REFERENCE_S / (self.samples[before] + self.samples[after])


@dataclasses.dataclass
class PassResult:
    wall_s: float  # scaled to reference speed, as are the times below
    raw_wall_s: float  # as measured
    op_seconds: dict  # op name -> seconds; failed ops are left out
    busy: dict
    calls: dict
    outputs: str  # sha256 over the op output digests, in op order


def run_pass(ops: list[Op], tracer: Tracer, traced: bool, tally: Tally, gauge: SpeedGauge) -> PassResult:
    tracer.spans = []
    timed = []
    outputs = hashlib.sha256()
    clock = time.perf_counter
    gauge.measure()
    for op in ops:
        before = gauge.latest()
        tracer.on = traced
        error = None
        start = clock()
        try:
            result = op.run(tracer)
        except Exception as exc:  # counted as a failed operation
            result, error = None, exc
        seconds = clock() - start
        tracer.on = False
        chk, key = tally.record(op, result, error)
        outputs.update(key.encode())
        timed.append((op.name, seconds, chk.ok, before))
    gauge.measure()
    op_seconds: dict = {}
    wall = raw_wall = 0.0
    for name, seconds, ok, before in timed:
        scaled = seconds * gauge.scale(before, before + 1)  # samples are in time order
        raw_wall += seconds
        wall += scaled
        if ok:
            op_seconds[name] = scaled
    busy, calls = {}, {}
    if traced:
        busy, calls = layer_self_times(tracer.spans)
        busy = {layer: t * wall / raw_wall for layer, t in busy.items()}
    return PassResult(wall, raw_wall, op_seconds, busy, calls, outputs.hexdigest())


def median_seconds(ops: list[Op], passes: list[PassResult]) -> dict:
    """Each op's median scaled time over the passes where it passed its check."""
    times: dict = {}
    for p in passes:
        for name, seconds in p.op_seconds.items():
            times.setdefault(name, []).append(seconds)
    return {op.name: statistics.median(times[op.name]) for op in ops if op.name in times}


def kernel_values(ops: list[Op], seconds: dict, tally: Tally) -> dict:
    """Per-layer kernel metrics from each op's time and its check; ops
    that feed the same metric add up."""
    values: dict = {}
    for op in ops:
        if op.kernel is not None and op.name in seconds:
            for name, value in op.kernel(seconds[op.name], tally.verified[op.name][1]).items():
                values[name] = values.get(name, 0) + value
    return values


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu": cpu,
    }

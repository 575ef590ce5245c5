"""Per-layer tracing from outside the library.

`Tracer.install()` wraps every public function of the five layers (the
names in each module's `__all__`), the schedule methods `ScheduleSpec.q_at`
and `ScheduleSpec.b_at`, and `cli.main`.  A wrapper replaces the original
in *every* qapprox module namespace that binds it, because the layers import
each other with `from .x import name`.  `Tracer.restore()` puts the
originals back.

Counts.  Every wrapped call is counted exactly, and counted as failed when
it raises or returns a non-finite float or a report that did not pass.

Spans.  The first SPAN_CAP calls of each function in a pass are kept as
spans (id, parent id, trace id, name, start, end); the parent is the
nearest caller that is itself a span, and the trace id numbers the
`cli.main` call they belong to.  Later calls are only counted: `q_at`,
`is_perfect_square` and `q_integer` run millions of times per pass.

Self time.  Many wrapped functions do less work per call than a timing
wrapper costs (`q_at` about 0.2 us against 1-2 us), so self time taken from
span durations would mostly measure the tracer.  Instead a CPU-time
sampler (SIGPROF every INTERVAL seconds) charges the process CPU time used
since the previous sample to the innermost wrapped function on the
interrupted stack.  CPython runs the handler only between bytecodes, so
the ticks that fall inside one long C call (numpy, math) arrive as one
late sample; weighting each sample by the CPU time it stands for, rather
than counting it as one tick, still gives that time to the Python frame
that made the call.  The result is the span definition of self time (the
function's interval minus its wrapped children's), with private helpers,
lambdas and generator expressions counted in the public function that
runs them.  Samples that land in the wrapper's own code are charged to
"tracer", samples outside any wrapped function to "harness".  Inclusive
time (the function anywhere on the stack) gives time per call, and the
set of layers on the stack is kept per sample, so the time under any
group of layers can be read off.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import signal
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

LAYERS = ("qcore", "appell", "operators", "analysis", "statconv")
# (module, class, method) triples wrapped on the class itself
METHODS = (("statconv", "ScheduleSpec", "q_at"), ("statconv", "ScheduleSpec", "b_at"))

PACKAGE = "qapprox"
SPAN_CAP = 2_000
INTERVAL = 0.001  # seconds of CPU time between samples


@dataclass
class PassTrace:
    """What one traced pass recorded, keyed by "layer.function"; times are
    CPU seconds."""

    calls: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    self_cpu: Counter = field(default_factory=Counter)
    incl_cpu: Counter = field(default_factory=Counter)
    # frozenset of the layers on the stack -> CPU seconds sampled there
    stacks: Counter = field(default_factory=Counter)
    samples: int = 0
    cpu_s: float = 0.0
    spans: list = field(default_factory=list)

    def self_s(self, key: str) -> float:
        return self.self_cpu[key]

    def inclusive_s(self, key: str) -> float:
        return self.incl_cpu[key]

    def under(self, layers) -> float:
        """CPU seconds with at least one of `layers` on the stack."""
        layers = set(layers)
        return sum(v for on_stack, v in self.stacks.items() if on_stack & layers)


class Tracer:
    def __init__(self) -> None:
        self.current = PassTrace()
        self._stack = []  # span ids of the spanned calls in progress
        self._next_id = 0
        self._trace_id = 0
        self._patches = []  # (owner, attribute, original)
        self._codes = {}  # code object of an original -> metric key
        self._wrapper_code = None
        self._cpu0 = self._last_cpu = 0.0
        self._old_handler = None

    # ------------------------------------------------------------ recording

    def begin_pass(self) -> None:
        """Start a pass: fresh counters, sampler on."""
        self.current = PassTrace()
        self._next_id = self._trace_id = 0
        self._old_handler = signal.signal(signal.SIGPROF, self._on_sample)
        self._cpu0 = self._last_cpu = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)

    def end_pass(self) -> PassTrace:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._old_handler or signal.SIG_DFL)
        done, self.current = self.current, PassTrace()
        done.cpu_s = time.process_time() - self._cpu0
        return done

    def _on_sample(self, signum, frame) -> None:
        now = time.process_time()
        dt, self._last_cpu = now - self._last_cpu, now
        rec = self.current
        rec.samples += 1
        inner = None
        seen = set()
        codes, wrapper_code = self._codes, self._wrapper_code
        while frame is not None:
            code = frame.f_code
            if code is wrapper_code:
                if inner is None:
                    inner = "tracer"
            else:
                key = codes.get(code)
                if key is not None:
                    if inner is None:
                        inner = key
                    if key not in seen:
                        seen.add(key)
                        rec.incl_cpu[key] += dt
            frame = frame.f_back
        rec.self_cpu[inner or "harness"] += dt
        rec.stacks[frozenset(layer_of(k) for k in seen)] += dt

    def _wrap(self, key: str, fn, root: bool = False):
        tracer = self
        clock = time.perf_counter
        # only the analysis checkers return reports with a `passed` flag
        reports = key.startswith("analysis.check_")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.current
            calls = rec.calls
            n = calls[key] = calls[key] + 1
            if n > SPAN_CAP:
                try:
                    out = fn(*args, **kwargs)
                except BaseException:
                    rec.failed[key] += 1
                    raise
            else:
                if root:
                    tracer._trace_id += 1
                stack = tracer._stack
                parent = stack[-1] if stack else None
                span_id = tracer._next_id
                tracer._next_id += 1
                stack.append(span_id)
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                except BaseException:
                    rec.failed[key] += 1
                    raise
                finally:
                    t1 = clock()
                    stack.pop()
                    rec.spans.append((span_id, parent, tracer._trace_id, key, t0, t1))
            if out.__class__ is float:
                if out - out != 0.0:  # nan or +-inf
                    rec.failed[key] += 1
            elif reports and out.passed is False:
                rec.failed[key] += 1
            return out

        self._wrapper_code = wrapper.__code__
        return wrapper

    # ------------------------------------------------------------- patching

    def targets(self) -> dict:
        """Map id(original function) -> (metric key, function, is_root)."""
        out = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    out[id(obj)] = (f"{layer}.{name}", obj, False)
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), cls_name)
            fn = cls.__dict__[meth]
            out[id(fn)] = (f"{layer}.{meth}", fn, False)
        cli = importlib.import_module(f"{PACKAGE}.cli")
        out[id(cli.main)] = ("cli.main", cli.main, True)
        return out

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = self.targets()
        self._codes = {fn.__code__: key for key, fn, _ in targets.values()}
        wrappers = {ident: self._wrap(key, fn, root) for ident, (key, fn, root) in targets.items()}
        prefix = PACKAGE + "."
        owners = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(prefix))
        ]
        for layer, cls_name, _ in METHODS:
            owners.append(getattr(importlib.import_module(f"{PACKAGE}.{layer}"), cls_name))
        for owner in owners:
            for attr, val in list(vars(owner).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    self._patches.append((owner, attr, val))
                    setattr(owner, attr, w)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def layer_of(key: str) -> str:
    return key.split(".", 1)[0]

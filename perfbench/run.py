#!/usr/bin/env python3
"""qapprox benchmark: drive `qapprox.cli.main` in-process in a closed loop.

    python3 perfbench/run.py --workload certify-large --seed 1 --seconds 25 --trace 0

One caller runs the workload's commands back to back, each starting only
after the previous one returned, and repeats the whole list (a *pass*) until
`--seconds` have elapsed.  With `--trace 0` it reports the end-to-end
metrics; with `--trace 1` it alternates untraced and traced passes and
reports the per-layer metrics.  Outputs go through the correctness gate
(gate.py) outside the timed region.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time

# local modules; none of them imports numpy, so pin_threads() still runs first
import gate
import workloads
from tracing import INTERVAL, Tracer, layer_of

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_REPEATS = 15
SETUP_CODE = (
    "import qapprox.cli as c\n"
    "try:\n"
    "    c.main(['--help'])\n"
    "except SystemExit:\n"
    "    pass\n"
)
# speed probe: loop lengths, and its time at the reference speed (the median
# on the 2-core x86_64 machine the benchmark was written on)
PROBE_FLOAT_STEPS = 20_000
PROBE_INT_STEPS = 6_000
PROBE_REF_S = 0.0085
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# per-layer metrics, as listed in BENCHMARK.json
CALLS_AND_SELF = (
    "qcore.eq_exp", "qcore.Eq_exp", "qcore.Eq_exp_product", "qcore.q_derivative",
    "qcore.q_integer",
    "appell.moment_sum", "appell.family_functionals",
    "operators.evaluate", "operators.moment_closed", "operators.moment_closed_uncorrected",
    "operators.moment_series", "operators.shift_term", "operators.central_moment2",
    "operators.make_operator", "operators.preset_function",
    "analysis.lipschitz_maximal",
)
SELF_ONLY = (
    "analysis.check_rate_theorem", "analysis.check_lipschitz_theorem",
    "analysis.check_maximal_theorem", "analysis.check_local_theorem",
    "analysis.delta_n", "analysis.phi_n", "analysis.modulus",
    "analysis.weighted_modulus", "analysis.second_modulus",
    "statconv.natural_density", "statconv.st_limit_verify",
    "statconv.korovkin_table", "statconv.clip_grid_for",
)
LAYERS = ("qcore", "appell", "operators", "analysis", "statconv", "cli")


def pin_threads() -> int:
    """Cap BLAS/OpenMP threads at nproc (lower if the caller asked for
    fewer); must run before numpy is imported."""
    nproc = os.cpu_count() or 1
    cap = nproc
    for var in THREAD_VARS:
        raw = os.environ.get(var, "")
        if raw.isdigit() and int(raw) >= 1:
            cap = min(cap, int(raw))
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def measure_setup() -> tuple:
    """Seconds from launching a fresh interpreter until `qapprox.cli` is
    imported and its parser built (via `main(['--help'])`); returns the raw
    times and the same rescaled by the speed probes around each launch."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times, scaled = [], []
    before = speed_probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120,
        )
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: " + proc.stderr.decode()[-500:])
        after = speed_probe()
        times.append(dt)
        scaled.append(rescale(dt, before, after))
        before = after
    return times, scaled


def speed_probe() -> float:
    """Seconds two fixed pure-Python loops take right now.

    The machine's speed drifts by up to 2x over tens of seconds (other
    tenants share its cores), so each command's time is also reported
    rescaled by PROBE_REF_S / (the probe time measured around it).  One
    loop does float arithmetic (like the q-series), the other integer,
    dict and str work (like schedule counting and CSV output): contention
    slows the two kinds unequally, and their sum tracks every workload
    better than either alone.
    """
    t0 = time.perf_counter()
    total, term = 0.0, 1.0
    for k in range(1, PROBE_FLOAT_STEPS):
        term = term * 0.999 + 1.0 / k
        total += abs(term) ** 0.5
    counts, acc = {}, 0
    for k in range(1, PROBE_INT_STEPS):
        counts[k & 255] = counts.get(k & 255, 0) + (k * k) % 7
        acc += len(str(k)) + max(k, 3)
        acc ^= (k << 3) // 5
    return time.perf_counter() - t0


def rescale(seconds: float, probe_before: float, probe_after: float) -> float:
    """`seconds` as they would read at the reference speed."""
    return seconds * PROBE_REF_S / (0.5 * (probe_before + probe_after))


def run_command(main, cmd):
    """One closed-loop call; returns (seconds, Outcome)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(list(cmd.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an escaped error is a failed operation
            rc = type(exc).__name__
    return time.perf_counter() - t0, gate.Outcome(rc, out.getvalue())


def run_pass(main, cmds) -> tuple:
    """Run every command once, with a speed probe before each and after the
    last; returns (seconds, probe-rescaled seconds, outcomes)."""
    times, scaled, outcomes = [], [], []
    before = speed_probe()
    for cmd in cmds:
        dt, outcome = run_command(main, cmd)
        after = speed_probe()
        times.append(dt)
        scaled.append(rescale(dt, before, after))
        outcomes.append(outcome)
        before = after
    return times, scaled, outcomes


class Runs:
    """Timings and outputs of every pass, compared against the first."""

    def __init__(self) -> None:
        self.times = []  # per pass, per command seconds
        self.scaled = []  # the same, rescaled to the reference probe speed
        self.reference = None
        self.drift = set()  # commands whose output changed between passes

    def add(self, times, scaled, outcomes) -> None:
        self.times.append(times)
        self.scaled.append(scaled)
        if self.reference is None:
            self.reference = outcomes
            return
        for i, (a, b) in enumerate(zip(self.reference, outcomes)):
            if a != b:
                self.drift.add(i)

    @property
    def passes(self) -> int:
        return len(self.times)

    @staticmethod
    def _sum_of_medians(table) -> float:
        return sum(statistics.median(col) for col in zip(*table))

    def wall_s(self) -> float:
        """Sum over commands of each command's median time."""
        return self._sum_of_medians(self.times)

    def norm_wall_s(self) -> float:
        """The same from probe-rescaled times."""
        return self._sum_of_medians(self.scaled)

    def pass_walls(self) -> list:
        return [sum(t) for t in self.times]


def judge(cmds, runs: Runs, seed: int) -> dict:
    """Run the gate on the reference outputs; returns per-command problems."""
    rng = random.Random(seed)
    verdicts = {}
    for i, (cmd, outcome) in enumerate(zip(cmds, runs.reference)):
        problems = gate.check_output(cmd, outcome)
        if i in runs.drift:
            problems.append("output differs between passes")
        problems += gate.oracle_check(cmd, outcome, rng)
        verdicts[i] = problems
    return verdicts


def provenance(args, threads: int) -> dict:
    import platform

    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "thread_cap": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(cmds, runs, verdicts, setup_times, peak_rss_mb) -> tuple:
    items = sum(
        gate.items(cmd, outcome)
        for i, (cmd, outcome) in enumerate(zip(cmds, runs.reference))
        if not verdicts[i]
    )
    attempted = len(cmds) * runs.passes
    failed = sum(1 for v in verdicts.values() if v) * runs.passes
    wall, norm = runs.wall_s(), runs.norm_wall_s()
    metrics = {
        "norm_wall_s": metric(norm, "s"),
        "norm_items_per_s": metric(items / norm, "1/s"),
        "ok_ratio": metric((attempted - failed) / attempted, "ratio"),
        "setup_s": metric(statistics.median(setup_times[1]), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    walls = runs.pass_walls()
    notes = {
        "norm_wall_s": f"{runs.passes} passes x {len(cmds)} commands, each command's median "
        f"rescaled time, summed (probe reference {PROBE_REF_S * 1e3:g} ms)",
        "norm_items_per_s": f"base: {items} verified items per pass / norm_wall_s",
        "ok_ratio": f"base: {attempted - failed} ok of {attempted} attempted",
        "setup_s": f"median of {len(setup_times[1])} fresh interpreters, rescaled like "
        f"norm_wall_s; raw median {statistics.median(setup_times[0]):.4f} s, "
        f"range {min(setup_times[0]):.4f}-{max(setup_times[0]):.4f} s",
        "peak_rss_mb": "ru_maxrss of this process after the timed passes",
        "wall_s": f"{wall:.6g} s, raw sum of per-command medians; median pass "
        f"{statistics.median(walls):.4f} s, range {min(walls):.4f}-{max(walls):.4f} s "
        f"over {runs.passes} passes",
        "items_per_s": f"{items / wall:.6g} 1/s raw (base: {items} items per pass / wall_s)",
        "fail_ratio": f"{failed / attempted:.6g} = {failed} failed / {attempted} attempted",
    }
    return metrics, notes


def per_layer(workload, cmds, traces, untraced: Runs, traced: Runs) -> tuple:
    def med(values):
        return statistics.median(values)

    def layer_self(t, layer):
        return sum(v for k, v in t.self_cpu.items() if layer_of(k) == layer)

    metrics, notes = {}, {}
    first = traces[0]
    for key in CALLS_AND_SELF + SELF_ONLY:
        if key in CALLS_AND_SELF:
            metrics[f"{key}.calls"] = metric(first.calls[key], "count")
        metrics[f"{key}.self_s"] = metric(med([t.self_s(key) for t in traces]), "s")
    calls = first.calls["operators.evaluate"]
    total = med([t.inclusive_s("operators.evaluate") for t in traces])
    metrics["operators.evaluate.us_per_call"] = metric(1e6 * total / calls if calls else 0.0, "us")
    notes["operators.evaluate.us_per_call"] = f"base: {calls} calls, {total:.4f} s inclusive"
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = metric(med([layer_self(t, layer) for t in traces]), "s")
    for layer in ("qcore", "operators", "analysis"):
        metrics[f"{layer}.failed"] = metric(
            sum(v for k, v in first.failed.items() if layer_of(k) == layer), "count"
        )
    metrics["statconv.q_at.calls"] = metric(first.calls["statconv.q_at"], "count")
    metrics["statconv.indices"] = metric(
        sum(workloads.statdemo_indices(c) for c in cmds if c.items == "indices"), "count"
    )
    rows = {cmd: gate.row_count(o) for cmd, o in zip(cmds, untraced.reference)}
    metrics["cli.rows"] = metric(sum(rows.values()), "count")
    metrics["analysis.grid_points"] = metric(
        sum(n for cmd, n in rows.items() if cmd.name in ("rates", "local")), "count"
    )
    overhead = med(traced.pass_walls()) / med(untraced.pass_walls())
    metrics["trace_overhead"] = metric(overhead, "ratio")
    notes["trace_overhead"] = (
        f"base: median traced pass {med(traced.pass_walls()):.4f} s over "
        f"median untraced pass {med(untraced.pass_walls()):.4f} s "
        f"({traced.passes} traced, {untraced.passes} untraced passes)"
    )
    cpu = sum(t.cpu_s for t in traces)
    shares = {
        layer: sum(layer_self(t, layer) for t in traces) / cpu
        for layer in LAYERS + ("tracer", "harness")
    }
    samples = sum(t.samples for t in traces)
    notes["self time shares"] = ", ".join(f"{k} {v:.1%}" for k, v in shares.items()) + (
        f" of {cpu:.3f} CPU s in {len(traces)} traced passes ({samples} samples, "
        f"{samples * INTERVAL / cpu:.0%} of the ticks the CPU time would give)"
    )
    notes["inclusive shares"] = ", ".join(
        f"{layer} {sum(t.under((layer,)) for t in traces) / cpu:.1%}" for layer in LAYERS
    )
    intended = workloads.INTENDED_LAYERS[workload]
    own = sum(shares[layer] for layer in intended) / (1.0 - shares["tracer"] - shares["harness"])
    notes["intended layers"] = (
        f"{' + '.join(intended)}: {own:.1%} of self time outside tracer and harness, "
        f"{sum(t.under(intended) for t in traces) / cpu:.1%} of CPU time with one of them on the stack"
    )
    return metrics, notes


def write_trace(args, prov, traces) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    doc = {
        "provenance": prov,
        "passes": [
            {
                "calls": dict(t.calls),
                "failed": dict(t.failed),
                "cpu_s": t.cpu_s,
                "samples": t.samples,
                "self_cpu_s": dict(t.self_cpu),
                "inclusive_cpu_s": dict(t.incl_cpu),
                "layers_on_stack_cpu_s": [[sorted(k), v] for k, v in t.stacks.items()],
            }
            for t in traces
        ],
        "span_fields": ["id", "parent", "trace", "name", "start", "end"],
        "spans": traces[-1].spans,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def untraced_run(args, cmds):
    """Set-up probes, then passes until `--seconds` have elapsed."""
    import resource

    import qapprox.cli

    setup_times = measure_setup()
    runs = Runs()
    t_start = time.perf_counter()
    while runs.passes < MIN_PASSES or time.perf_counter() - t_start < args.seconds:
        runs.add(*run_pass(qapprox.cli.main, cmds))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return runs, setup_times, peak_rss_mb


def traced_run(args, cmds):
    """Alternate untraced and traced passes; returns the untraced runs, the
    traced runs, each traced pass's record, and harness problems."""
    import qapprox.cli

    untraced, traced, traces = Runs(), Runs(), []
    tracer = Tracer()
    t_start = time.perf_counter()
    while traced.passes < MIN_TRACED_PASSES or time.perf_counter() - t_start < args.seconds:
        untraced.add(*run_pass(qapprox.cli.main, cmds))
        with tracer:
            tracer.begin_pass()
            result = run_pass(qapprox.cli.main, cmds)
            traces.append(tracer.end_pass())
        traced.add(*result)
        # a traced pass must print exactly what an untraced one does
        for i, (a, b) in enumerate(zip(untraced.reference, result[2])):
            if a != b:
                untraced.drift.add(i)
    problems = []
    for t in traces[1:]:
        if t.calls != traces[0].calls:
            keys = set(t.calls) | set(traces[0].calls)
            diff = sorted(k for k in keys if t.calls[k] != traces[0].calls[k])
            problems.append("call counts differ between traced passes: " + ", ".join(diff[:5]))
            break
    return untraced, traced, traces, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = pin_threads()
    if not os.path.isdir(os.path.join(SRC, "qapprox")):
        print(f"error: no qapprox sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import qapprox.cli

    if not os.path.abspath(qapprox.cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported qapprox from {qapprox.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    prov = provenance(args, threads)
    print("# provenance " + json.dumps(prov, sort_keys=True))
    cmds = workloads.build(args.workload, args.seed)

    problems = []
    if args.trace:
        runs, traced, traces, problems = traced_run(args, cmds)
    else:
        runs, setup_times, peak_rss_mb = untraced_run(args, cmds)
    verdicts = judge(cmds, runs, args.seed)
    attempted = len(cmds) * runs.passes
    failed = sum(1 for v in verdicts.values() if v) * runs.passes
    if args.trace:
        metrics, notes = per_layer(args.workload, cmds, traces, runs, traced)
        notes["trace file"] = write_trace(args, prov, traces)
    else:
        metrics, notes = end_to_end(cmds, runs, verdicts, setup_times, peak_rss_mb)

    for i, found in verdicts.items():
        if found:
            tag = "known q-edge defect" if cmds[i].at_edge else "UNEXPECTED"
            print(f"# FAIL [{tag}] {cmds[i]}: {'; '.join(found[:4])}")
    for problem in problems:
        print(f"# FAIL [harness] {problem}")
    print(f"# {args.workload} seed {args.seed}: {len(cmds)} commands x {runs.passes} passes; "
          f"attempted {attempted}, failed {failed}, fail_ratio {failed / attempted:.4g}")
    for name, m in metrics.items():
        print(f"# {name:40s} {m['value']:<14.6g} {m['unit']:6s} {notes.get(name, '')}")
    for name in notes:
        if name not in metrics:
            print(f"# {name:40s} {notes[name]}")
    unexpected = any(found and not cmds[i].at_edge for i, found in verdicts.items())
    correct = not unexpected and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

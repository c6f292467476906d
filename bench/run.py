"""qball benchmark: one workload, one seed, closed loop through ``qball.cli``.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload potential-survey --seed 1 --seconds 25 --trace 0

The benchmark imports qball from ``src/`` of the checkout it sits in and
runs in-process with one client: each pass starts when the previous one
has returned and been checked, with ``workers = 1`` and BLAS/OpenMP
pinned to one thread.  A pass is every CLI invocation of the workload's
plan (see ``workloads.py``) followed by the checks on its artifacts.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  The last
line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; the lines before it are a readable report.
Records (host, pass times, artifact digests, spans) go to
``.bench_out/`` in the checkout.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import spans
import workloads

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
# a fresh interpreter: import the CLI and parse the workload's first config
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import qball.cli; "
              "qball.cli.parse_config(sys.argv[2])")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


# ---------------------------------------------------------------------------
# statistics


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values):
    """Highest percentile of PERCENTILES with at least ten samples beyond it.

    Nearest rank: percentile p is the k-th smallest value with
    k = ceil(p n / 100), and n - k samples lie beyond it.  Returns
    (p, value), or None when even the median has fewer than ten.
    """
    n = len(values)
    best = None
    for p in PERCENTILES:
        k = -(-p * n // 100)
        if k >= 1 and n - k >= 10:
            best = (p, sorted(values)[int(k) - 1])
    return best


def describe(name, values, unit):
    q1, med, q3 = quartiles(values)
    tail = tail_percentile(values)
    tail_text = (f"p{tail[0]:g} {tail[1]:.6g} {unit}" if tail else
                 "no percentile above the median has 10 samples beyond it")
    return (f"{name}: median {med:.6g} {unit}, quartiles {q1:.6g}..{q3:.6g} "
            f"(spread {(q3 - q1) / med if med else 0.0:.2%}), {tail_text}, "
            f"n={len(values)}")


# ---------------------------------------------------------------------------
# running passes


def import_qball():
    """Import qball from this checkout's src/, or exit 2 when it is absent."""
    if not os.path.isfile(os.path.join(SRC, "qball", "cli.py")):
        print(f"error: no qball sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import qball
    import qball.cli
    if os.path.dirname(os.path.abspath(qball.__file__)) != os.path.join(SRC, "qball"):
        print(f"error: imported qball from {qball.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return qball


def host_record(qball):
    import numpy
    import scipy
    nproc = os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "qball": qball.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "workers": 1,
            "scaling": f"multi-worker scaling not measured: workers=1 on "
                       f"a {nproc}-core host"}


def measure_setup(config_path):
    """Wall time of fresh interpreters that import qball.cli and parse a config."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, config_path],
                       check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def invoke(cli, argv):
    """Run ``qball.cli.main(argv)`` with its output captured; returns the exit code."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(argv)
        except Exception:       # a crash is a failed operation, not a stop
            traceback.print_exc()
            return f"crash: {sink.getvalue().strip().splitlines()[-1]}"


class Runner:
    """Runs passes of one plan and accumulates operations, failures and digests."""

    def __init__(self, qball, workload, plan, work):
        self.qball = qball
        self.check = workloads.CHECKS[workload]
        self.plan = plan
        self.work = work
        self.cfg_dir = os.path.join(work, "cfg")
        os.makedirs(self.cfg_dir)
        for inv in plan:
            with open(self.config_path(inv), "w") as f:
                f.write(inv.config)
        self.attempted = self.failed = 0
        self.problems = []
        self.reference = None       # digests of the first pass
        self.artifact_bytes = 0
        self.latencies = []
        self.count = 0

    def config_path(self, inv):
        return os.path.join(self.cfg_dir, inv.name + ".cfg")

    def one_pass(self):
        """One pass: every invocation, its checks and the artifact digests."""
        out_root = os.path.join(self.work, f"pass{self.count}")
        self.count += 1
        os.makedirs(out_root)
        for inv in self.plan:
            out = os.path.join(out_root, inv.name)
            t0 = time.perf_counter()
            code = invoke(self.qball.cli, [inv.subcommand, "--config",
                                           self.config_path(inv), "--out", out])
            self.latencies.append(time.perf_counter() - t0)
            try:
                attempted, failed, problems = self.check(inv, out, code)
            except (OSError, KeyError, ValueError) as exc:
                attempted, failed, problems = 1, 1, [f"{inv.name}: {exc!r}"]
            self.attempted += attempted
            self.failed += failed
            self.problems += problems
        digest = workloads.digests(out_root)
        if self.reference is None:
            self.reference = digest
            self.artifact_bytes = sum(
                os.path.getsize(os.path.join(out_root, p)) for p in digest)
        else:
            self.attempted += 1
            if digest != self.reference:
                self.failed += 1
                changed = sorted(k for k in set(digest) | set(self.reference)
                                 if digest.get(k) != self.reference.get(k))
                self.problems.append(f"pass {self.count - 1}: artifacts differ "
                                     f"from pass 0: {changed[:5]}")
        return out_root

    def timed_passes(self, seconds, tracer=None):
        """Passes until ``seconds`` have elapsed, at least two.

        Returns (untraced wall times, traced wall times).  With a tracer,
        every second pass runs traced, so both kinds sample the same
        stretch of time; a traced pass's wall time is that of its
        ``bench.pass`` root span.
        """
        untraced, traced = [], []
        t_end = time.perf_counter() + seconds
        while len(untraced) + len(traced) < 2 or time.perf_counter() < t_end:
            if tracer is not None and len(untraced) > len(traced):
                tracer.pass_id = self.count
                tracer.install(self.qball)
                root = tracer.open("bench.pass")
                try:
                    out_root = self.one_pass()
                finally:
                    tracer.close(root)
                    tracer.restore()
                traced.append(root[spans.END] - root[spans.START])
            else:
                t0 = time.perf_counter()
                out_root = self.one_pass()
                untraced.append(time.perf_counter() - t0)
            shutil.rmtree(out_root)
        return untraced, traced


# ---------------------------------------------------------------------------
# reports


def layer_unit(name):
    if name.endswith((".calls", ".iters")):
        return "count"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("probes_per_threshold"):
        return "probes/call"
    if name.endswith("ok_ratio"):
        return "ratio"
    return "s"


def traced_metrics(tracer, untraced, traced):
    """Layer metrics of the median traced pass, plus the trace overhead.

    Every metric comes from the one pass whose wall time is the lower
    median of ``traced``, so the layer self times add up to
    ``trace.wall_s``; medians taken metric by metric would not.
    """
    bounds = [i for i, s in enumerate(tracer.spans)
              if s[spans.NAME] == "bench.pass"] + [len(tracer.spans)]
    k = traced.index(statistics.median_low(traced))
    out = spans.layer_metrics(tracer.spans[bounds[k]:bounds[k + 1]], bounds[k])
    out["trace.wall_s"] = traced[k]
    out["trace.overhead_s"] = traced[k] - statistics.median(untraced)
    return dict(sorted(out.items()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    for var in THREAD_VARS:         # before numpy is first imported
        os.environ[var] = "1"
    qball = import_qball()
    host = host_record(qball)
    plan = workloads.PLANS[args.workload](args.seed)

    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(dir=OUT, prefix="work-")
    tracer = spans.Tracer() if args.trace else None
    try:
        runner = Runner(qball, args.workload, plan, work)
        setup = (None if args.trace else
                 measure_setup(runner.config_path(plan[0])))
        walls, traced = runner.timed_passes(args.seconds, tracer)
        if args.trace:
            metrics = traced_metrics(tracer, walls, traced)
            metrics["cli.artifact_bytes"] = runner.artifact_bytes
        else:
            metrics = {"setup_s": statistics.median(setup),
                       "wall_s": statistics.median(walls),
                       "peak_rss_mb": resource.getrusage(
                           resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    combined = hashlib.sha256(
        json.dumps(runner.reference, sort_keys=True).encode()).hexdigest()
    print("host: " + json.dumps(host, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(plan)} "
          f"invocation(s) per pass, {runner.count} passes, closed loop, "
          "one client")
    print(describe("wall_s" if not args.trace else "untraced wall_s",
                   walls, "s"))
    if traced:
        print(describe("traced wall_s", traced, "s"))
    print(describe("invocation latency", runner.latencies, "s"))
    if setup:
        print(describe("setup_s", setup, "s"))
    fail_ratio = runner.failed / runner.attempted
    print(f"fail_ratio: {fail_ratio:.6g} ratio ({runner.failed} of "
          f"{runner.attempted} operations)")
    print(f"determinism: {len(runner.reference)} artifacts, "
          f"{runner.artifact_bytes} bytes, combined sha256 {combined}")
    for problem in runner.problems[:20]:
        print(f"problem: {problem}")
    if args.trace:
        self_sum = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
        print(f"trace: layer self times sum to {self_sum:.6g} s against "
              f"traced wall_s {metrics['trace.wall_s']:.6g} s "
              f"(overhead {metrics['trace.overhead_s']:.6g} s)")
        units = {k: layer_unit(k) for k in metrics}
        tracer.write(os.path.join(OUT, tag + "-spans.csv"))
    else:
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")

    record = {"host": host, "workload": args.workload, "seed": args.seed,
              "trace": args.trace, "pass_walls_s": walls,
              "traced_pass_walls_s": traced, "setup_s": setup,
              "attempted": runner.attempted, "failed": runner.failed,
              "problems": runner.problems, "digests": runner.reference,
              "combined_sha256": combined, "metrics": metrics,
              "configs": {inv.name: inv.config for inv in plan}}
    with open(os.path.join(OUT, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

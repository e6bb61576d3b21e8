"""Benchmark of the tumorlab paper results, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload shoot --seed 1 --seconds 10 --trace 0

The package is imported from ``src/`` of the same checkout; nothing is
installed.  A run imports the package, sets the workload up once, then runs
whole timed passes of the workload body until ``--seconds`` have elapsed
(at least one), checks every pass against the acceptance tolerances and
prints a result digest, the environment and, as the last line, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones: set-up time, time
to all results (set-up plus the sum of the timed paper-result calls of the
median pass), peak RSS and the share of checks passed.  With ``--trace 1`` the run instead
wraps the calls into each module from outside the package (see spans.py),
runs one traced pass and then one untraced pass, and reports the traced
pass's per-layer metrics, the bypass predictions and the tracing overhead.
Details of every run go to ``.bench_out/``.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("shoot", "evolve", "frozen")
END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MiB",
    "check_pass_ratio": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def git_commit():
    """Commit of the checkout from .git, or None outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment():
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sources = hashlib.sha256()
    for path in sorted((SRC / "tumorlab").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": sources.hexdigest(),
    }


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(workload, workloads):
    """One timed pass of the workload body; failures are kept, not raised."""
    ps = workloads.Pass()
    t0 = time.perf_counter()
    ps.error = None
    try:
        workload.run(ps)
    except Exception:  # noqa: BLE001 - a failed pass is reported, not fatal
        ps.error = traceback.format_exc()
        print(ps.error, file=sys.stderr)
    ps.wall = time.perf_counter() - t0
    return ps


def pass_checks(workload, ps):
    if ps.error is not None:
        return [("pass.completed", False, ps.error.strip().splitlines()[-1])]
    try:
        return workload.checks(ps)
    except Exception:  # noqa: BLE001 - a check that cannot run has failed
        return [("checks.ran", False, traceback.format_exc().strip().splitlines()[-1])]


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tumorlab" / "__init__.py").is_file():
        print(f"error: no tumorlab source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t_import = time.perf_counter()
    import tumorlab
    import workloads
    import_s = time.perf_counter() - t_import
    if Path(tumorlab.__file__).resolve().parent != (SRC / "tumorlab").resolve():
        print(f"error: imported tumorlab from {tumorlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = workloads.WORKLOADS[args.workload](
        args.seed, OUT / f"report-{os.getpid()}")

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()

    t_setup = time.perf_counter()
    workload.setup()
    setup_s = import_s + (time.perf_counter() - t_setup)

    passes = []
    if tracer is not None:
        tracer.start_phase()
        passes.append(run_pass(workload, workloads))
        body = tracer.totals()
        body_spans = sum(1 for p in tracer.span_phase if p == 1)
        tracer.uninstall()
        passes.append(run_pass(workload, workloads))
    else:
        t_body = time.perf_counter()
        while True:
            passes.append(run_pass(workload, workloads))
            if passes[-1].error or time.perf_counter() - t_body >= args.seconds:
                break

    checks = []
    for i, ps in enumerate(passes):
        checks += [(f"pass{i}.{name}", ok, detail)
                   for name, ok, detail in pass_checks(workload, ps)]
    digests = [workload.digest(ps) for ps in passes if ps.error is None]
    if len(passes) > 1:
        checks.append(("digest.repeat", len(digests) == len(passes)
                       and all(d == digests[0] for d in digests), ""))

    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "environment": environment(),
        "setup_s": setup_s, "import_s": import_s,
        "timings": [ps.times for ps in passes],
        "digest": digests[0] if digests else None,
    }
    result["digest_sha256"] = hashlib.sha256(
        json.dumps(result["digest"], sort_keys=True).encode()).hexdigest()

    if tracer is not None:
        layers = tracer.layer_metrics(body)
        bypass = spans.check_bypass(args.workload, layers)
        checks.append(("bypass.predictions", not bypass, "; ".join(bypass)))
        traced, untraced = passes[0].wall, passes[1].wall
        metrics = {name: layers[name] for name in spans.LAYER_METRICS
                   if not name.startswith("trace.")}
        metrics["trace.spans"] = body_spans
        metrics["trace.overhead_ratio"] = traced / untraced - 1.0
        units = {name: spec[0] for name, spec in spans.LAYER_METRICS.items()}
        notes = {name: f"  (should move {spec[2]})"
                 for name, spec in spans.LAYER_METRICS.items() if spec[2]}
        result.update(setup_totals=tracer.phase_totals[0], body_totals=body,
                      body_spans_by_top=tracer.counts_by_top(1),
                      traced_body_s=traced, untraced_body_s=untraced,
                      bypass_failures=bypass)
        tracer.write(OUT / f"spans-{tag}.npz")
    else:
        n_ok = sum(1 for _, ok, _ in checks if ok)
        body_s = statistics.median(sum(ps.times.values()) for ps in passes)
        metrics = {
            "setup_s": setup_s,
            "total_s": setup_s + body_s,
            "peak_rss_mb": peak_rss_mib(),
            "check_pass_ratio": n_ok / len(checks),
        }
        units = END_TO_END
        notes = {}

    attempted = sum(len(ps.times) for ps in passes)
    failed = sum(1 for ps in passes if ps.error is not None)
    correct = failed == 0 and all(ok for _, ok, _ in checks)
    result.update(checks=checks, metrics=metrics, correct=correct)
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1, default=str))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"passes {len(passes)}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for i, ps in enumerate(passes):
        for label, secs in ps.times.items():
            print(f"pass {i}: {label} = {secs:.4f} s")
    for name, ok, detail in checks:
        print(f"check {'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())
    print("digest " + json.dumps(result["digest"], sort_keys=True))
    print("digest_sha256 " + result["digest_sha256"])
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}{notes.get(name, '')}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

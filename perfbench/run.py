"""quantldpc benchmark: one workload per process, closed loop, one job at a time.

    python3 perfbench/run.py --workload threshold_dp --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Runs the workload's operation list in passes for about ``--seconds``
seconds (at least one pass), checks every output against the committed
bit-exact fingerprint of its input (``perfbench/reference``), the first
pass and the workload's own invariants, and prints a summary followed by
one JSON line ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics (setup_s, pass_s,
peak_rss_mb).  ``--trace 1`` runs the set-up and one pass untraced, then
again with every layer function wrapped, and reports the per-layer metrics
of ``tracer.METRICS``; the spans go to ``perfbench/_out``.

Must be started from a checkout holding ``src/quantldpc``; it exits with
code 2 otherwise.  Exit code 1 means an output was wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import fingerprint
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
REFERENCE = HERE / "reference"
SETUP_REPEATS = 11
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PRIMARY = {"threshold_dp": "threshold_s", "design_uniform": "design_s"}


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def cap_threads():
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    n = nproc()
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= n:
            os.environ[var] = str(n)


def git_commit(root):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed):
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(ROOT),
        "machine": platform.machine(),
        "seed": seed,
    }


def summarize(samples):
    """Median, and the highest percentile with at least 10 samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n, "tail": None, "tail_pct": None}
    if n >= 11:
        k = n - 11
        out["tail"] = xs[k]
        out["tail_pct"] = math.floor(100 * (k + 1) / n)
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# running and checking passes
# ---------------------------------------------------------------------------

def run_pass(ops, tracer=None):
    """Run every op once; returns [(result, error text or None, seconds)]."""
    out = []
    for op in ops:
        if tracer is not None:
            tracer.run_id = op.label
        t = time.perf_counter()
        try:
            res, err = op.run(), None
        except Exception:  # one failing op must not hide the others
            res, err = None, traceback.format_exc(limit=4)
        out.append((res, err, time.perf_counter() - t))
    return out


class Checker:
    """Collects failures of every op against reference, first pass and invariants."""

    def __init__(self, reference):
        self.reference = reference
        self.first = None
        self.attempted = 0
        self.failures = []

    def check(self, ops, results, tag):
        frags = {}
        for op, (res, err, _) in zip(ops, results):
            self.attempted += 1
            why = []
            if err is not None:
                why.append(err.strip().splitlines()[-1])
            else:
                problem = op.check(res)
                if problem:
                    why.append(problem)
                frag = frags[op.label] = op.digest(res)
                if self.reference is not None:
                    why += fingerprint.compare(self.reference["ops"].get(op.label), frag,
                                               f"ops.{op.label}")[:5]
                if self.first is not None and self.first.get(op.label) != frag:
                    why += [f"{tag}: differs from the first pass: " + d for d in
                            fingerprint.compare(self.first.get(op.label), frag,
                                                f"ops.{op.label}")[:5]]
            if why:
                self.failures.append({"pass": tag, "op": op.label, "why": why})
        if self.first is None:
            self.first = frags
        return frags

    def fail(self, tag, why):
        self.attempted += 1
        self.failures.append({"pass": tag, "op": None, "why": why})

    @property
    def failed(self):
        return len(self.failures)


def load_reference(workload, input_id):
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(input_id))


def store_reference(workload, input_id, run_fp):
    path = REFERENCE / f"{workload}.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    table[str(input_id)] = run_fp
    lines = [f"{json.dumps(k)}: {json.dumps(table[k], separators=(',', ':'))}"
             for k in sorted(table, key=int)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")   # one line per input


def ensure_built(ql):
    """Design the decode workloads' decoders once per checkout, in a child."""
    cache = workloads.build_dir(ROOT, ql)
    if (cache / "done").is_file():
        return None
    t = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "run.py"), "--build"], cwd=ROOT,
                   check=True, timeout=850)
    return time.perf_counter() - t


def setup_in_child(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, check=True, timeout=170, capture_output=True, text=True)
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------

def end_to_end(w, ql, args, checker):
    ops = w.ops(ql, w.prepare(ql, args.seed, ROOT))

    # set-up is timed in fresh processes only, so every sample pays the same
    # imports and none pays for the decoder build or a cold first import;
    # half the samples are taken before the passes and half after, so they
    # span the run rather than one stretch of the machine's speed
    setup = [setup_in_child(w.name, args.seed) for _ in range(SETUP_REPEATS // 2)]
    passes, start = [], time.perf_counter()
    while True:
        results = run_pass(ops)
        checker.check(ops, results, f"pass{len(passes)}")
        passes.append([s for _, _, s in results])
        longest = max(sum(p) for p in passes)
        if time.perf_counter() - start + longest > args.seconds:
            break
    rss = peak_rss_mb()
    setup += [setup_in_child(w.name, args.seed) for _ in range(SETUP_REPEATS - len(setup))]

    pass_s = [sum(p) for p in passes]
    op_s = {op.label: summarize([p[i] for p in passes]) for i, op in enumerate(ops)}
    detail = {
        "setup_s": summarize(setup),
        "pass_s": summarize(pass_s),
        "op_s": op_s,
        "op_samples": {op.label: [p[i] for p in passes] for i, op in enumerate(ops)},
        "peak_rss_mb": rss,
    }
    # a slow stretch of the machine hits some ops of a pass, not all: the
    # sum of per-op medians rejects it where the median of whole passes can't
    detail["pass_s"]["median"] = sum(s["median"] for s in op_s.values())
    if w.name in PRIMARY:
        detail[PRIMARY[w.name]] = detail["pass_s"]
    else:
        frames = sum(op.frames for op in ops)
        fps = summarize([frames / s for s in pass_s])
        fps["median"] = frames / detail["pass_s"]["median"]
        fps["tail"] = None if detail["pass_s"]["tail"] is None else frames / detail["pass_s"]["tail"]
        detail["frames_per_s"] = fps
    metrics = {
        "setup_s": {"value": detail["setup_s"]["median"], "unit": "s"},
        "pass_s": {"value": detail["pass_s"]["median"], "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    return metrics, detail


def traced(w, ql, args, checker):
    import tracer as tr

    def untraced(tag):
        t = time.perf_counter()
        ops = w.ops(ql, w.prepare(ql, args.seed, ROOT))
        frags = checker.check(ops, run_pass(ops), tag)
        return time.perf_counter() - t, frags

    start = time.perf_counter()
    untraced_s, plain = untraced("untraced")
    tracer = tr.Tracer()
    uninstall = tr.install(tracer)
    try:
        t = time.perf_counter()
        with tracer.span("bench.setup"):
            tracer.run_id = "setup"
            state = w.prepare(ql, args.seed, ROOT)
            ops = w.ops(ql, state)
        with tracer.span("bench.pass"):
            results = run_pass(ops, tracer)
        traced_s = time.perf_counter() - t
    finally:
        uninstall()
    wrapped = checker.check(ops, results, "traced")
    if wrapped != plain:
        checker.fail("traced", ["traced fingerprint differs from the untraced one"])
    # the first pass also pays for warming allocator and caches; when time
    # allows, the untraced baseline is taken again after the traced pass
    if time.perf_counter() - start + untraced_s <= args.seconds:
        untraced_s, _ = untraced("untraced2")

    values = tr.layer_metrics(tracer.spans, tracer.counts, traced_s, traced_s - untraced_s)
    counts = {m: values[m] for m in tr.DETERMINISTIC}
    # keyed by the program sources, so a change that cuts calls is no drift
    counts_path = workloads.build_dir(ROOT, ql) / f"counts-{w.name}-seed{args.seed}.json"
    if counts_path.is_file():
        before = json.loads(counts_path.read_text())
        drift = [f"{m}: {before.get(m)} != {v}" for m, v in counts.items() if before.get(m) != v]
        if drift:
            checker.fail("traced", ["per-layer counts drifted"] + drift[:5])
    else:
        counts_path.parent.mkdir(parents=True, exist_ok=True)
        counts_path.write_text(json.dumps(counts, indent=1) + "\n")

    trace_path = OUT / f"trace-{w.name}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({
        "fields": ["id", "name", "start", "end", "parent", "run_id"],
        "spans": tracer.spans}) + "\n")
    layers = {k: values[k] for k in values if k.startswith("layer.")}
    detail = {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "largest_self_time": max(
            (k for k in values if k.endswith(".self_s") and not k.startswith("layer.")),
            key=values.get),
        "layers": layers,
        "unattributed_s": traced_s - values["trace.self_sum_s"],
        "self_sum_within_overhead": (traced_s - values["trace.self_sum_s"]
                                     <= abs(values["trace.overhead_s"])),
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    metrics = {m: {"value": values[m], "unit": unit} for m, unit in tr.METRICS.items()}
    return metrics, detail


def tail_note(s):
    if s["tail"] is None:
        return f"no tail (needs 11 samples, has {s['n']})"
    return f"p{s['tail_pct']} {s['tail']:.6g}"


def print_summary(w, args, detail, checker, run_fp, ref_state):
    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}")
    rows = []
    if args.trace:
        rows.append(("traced_s", detail["traced_s"], "s", f"untraced {detail['untraced_s']:.4f} s"))
        rows.append(("trace.overhead_s", detail["traced_s"] - detail["untraced_s"], "s", ""))
        for k, v in detail["layers"].items():
            rows.append((k, v, "s", ""))
        rows.append(("unattributed_s", detail["unattributed_s"], "s",
                     "within overhead" if detail["self_sum_within_overhead"]
                     else "exceeds overhead"))
        rows.append(("largest self time", detail["largest_self_time"], "", ""))
    else:
        s = detail["setup_s"]
        rows.append(("setup_s", s["median"], "s",
                     f"median of {s['n']} fresh-process set-ups; " + tail_note(s)))
        key = PRIMARY.get(w.name, "frames_per_s")
        s = detail[key]
        rows.append((key, s["median"], "1/s" if key == "frames_per_s" else "s",
                     f"from the sum of per-op medians over {s['n']} passes; whole-pass "
                     + tail_note(s)))
        rows.append(("peak_rss_mb", detail["peak_rss_mb"], "MB", ""))
    rows.append(("error_rate", checker.failed / checker.attempted, "",
                 f"{checker.failed}/{checker.attempted} operations failed"))
    for name, value, unit, note in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<34} {shown:>14} {unit:<4} {note}")
    print(f"  fingerprint {digest(run_fp)}  reference: {ref_state}")
    for f in checker.failures[:10]:
        print(f"  FAILED {f['pass']} {f['op']}: " + "; ".join(f["why"]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="a workload name, or all (each in its own process)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and set up once, print the seconds it took")
    ap.add_argument("--build", action="store_true",
                    help="design the decode workloads' decoders into the cache")
    ap.add_argument("--update-reference", action="store_true",
                    help="store this run's fingerprint as the reference of its input")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "quantldpc" / "__init__.py").is_file():
        print(f"no quantldpc sources under {src}; run from a checkout", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 32:
        ap.error("--seed must lie in [0, 2**32)")
    cap_threads()
    sys.path.insert(0, str(src))
    warnings.filterwarnings("ignore", message="mi_vn decreased", category=RuntimeWarning)
    t = time.perf_counter()
    import quantldpc as ql
    import_s = time.perf_counter() - t
    if Path(ql.__file__).resolve().parent != (src / "quantldpc").resolve():
        print(f"quantldpc imported from {ql.__file__}, not {src}", file=sys.stderr)
        return 2

    if args.build:
        workloads.build(ROOT, ql)
        return 0
    if args.workload == "all":
        status = 0
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
        return status
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    build_s = ensure_built(ql) if isinstance(w, workloads.Decode) else None
    if args.setup_only:
        t = time.perf_counter()
        w.prepare(ql, args.seed, ROOT)
        print(import_s + time.perf_counter() - t)
        return 0

    OUT.mkdir(exist_ok=True)
    input_id = w.input_id(args.seed)
    reference = None if args.update_reference else load_reference(w.name, input_id)
    checker = Checker(reference)
    if args.trace:
        metrics, detail = traced(w, ql, args, checker)
    else:
        metrics, detail = end_to_end(w, ql, args, checker)
    run_fp = {"workload": w.name, "input_id": input_id, "ops": checker.first or {}}

    if args.update_reference and not checker.failures:
        store_reference(w.name, input_id, run_fp)
    ref_state = ("stored" if args.update_reference and not checker.failures
                 else "none for this seed" if reference is None
                 else "match" if not checker.failures else "FAILED (see below)")
    detail["build_s"] = build_s
    correct = not checker.failures
    result = {"correct": correct, "attempted": checker.attempted,
              "failed": checker.failed, "metrics": metrics}
    (OUT / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        **result, "workload": w.name, "seed": args.seed,
        "error_rate": checker.failed / checker.attempted,
        "environment": environment(args.seed), "detail": detail,
        "failures": checker.failures, "fingerprint": run_fp}, indent=1) + "\n")
    print_summary(w, args, detail, checker, run_fp, ref_state)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of ebcert: one workload per process, driven by one caller in a
closed loop (the next op starts when the last one returns).

    python3 benchmarks/run.py --workload certify-planted --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The seed makes the inputs.  With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it prints the per-layer metrics of a
separate traced run and writes its spans under ``.bench_out/``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  BLAS runs one thread per
process (see ``BLAS_THREADS``), and times are CPU seconds (see
``end_to_end``).
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
MIN_OPS = 40  # ops a run holds on each CPU at least, so op_cpu_p75_s has ten beyond it
SETUP_RUNS = 5  # set-ups measured per run: its own and the rest in fresh processes
CHILD_TIMEOUT_S = 150

# On two cores, numpy's default of one BLAS thread per core makes every
# factorization wait for both cores at once: one other busy process made a
# planted certify 2.6x slower (0.34 s to 0.87 s) and the CLI batch 1.5x
# slower, against 7 % and 5 % with one BLAS thread.  The times would measure
# the host's scheduler, so the benchmark, and the set-up processes it starts,
# run one BLAS thread.  ``main`` sets it before numpy is first imported.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# Each virtual CPU runs at its own speed: as the host's other load moves, one
# can be 40 % slower than the other for seconds to minutes.  A process that
# stays on one CPU measures that CPU's luck, so a workload whose op runs on
# one thread moves that thread to the next CPU before every round, and each
# run samples all CPUs alike.
CPUS = sorted(os.sched_getaffinity(0))

# spans whose self time per op is a per-layer metric "<name>_s"
LAYER_SPANS = (
    "algebra.center", "algebra.structure", "algebra.check_invariants",
    "algebra.multiplicative_domain", "algebra.rank_one_resolution",
    "certify.verify_eb_witness", "certify.verify_certificate", "certify.is_ppt",
    "certify.eb_rank", "channel.choi", "channel.minimal_kraus",
    "channel.complement_adjoint", "channel.classify_complement_adjoint",
    "channel.load_channel",
)
COUNTERS = ("numerics.eigh_calls", "numerics.eigh_s", "numerics.svd_calls",
            "numerics.svd_s", "channel.apply_calls")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="measure one set-up and print its seconds (used by the run itself)")
    return parser.parse_args(argv)


def load_workloads():
    """Import the program from the checkout's sources and never from an
    installed copy, so a tree without ``src/`` fails here."""
    package = ROOT / "src" / "ebcert" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package.relative_to(ROOT)} not found; run from a source checkout")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import ebcert
    if Path(ebcert.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported ebcert from {ebcert.__file__}, not from src/")
    import bench_workloads
    return bench_workloads.WORKLOADS


def set_up(workload, seed, workdir, tracer=None):
    """Inputs of one round plus a warm-up op, and the CPU seconds the
    process has spent so far: start-up, imports, inputs and the warm-up."""
    items = workload.setup(seed, workdir, tracer)
    workload.op(items[0])
    return items, time.process_time()


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"error: set-up process failed:\n{done.stderr}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def cpu_count(workload) -> int:
    """CPUs a run's rounds rotate over (see CPUS)."""
    return len(CPUS) if workload.one_thread else 1


def start_round(workload, number: int) -> int:
    """Move the calling thread to the CPU of round ``number``; its index."""
    index = number % cpu_count(workload)
    if workload.one_thread:
        os.sched_setaffinity(0, {CPUS[index]})
    return index


def measure(workload, items, seconds):
    """Whole rounds, the same number on each CPU, until both the time and
    MIN_OPS ops on each CPU are reached.  Returns, for each CPU, the wall
    and CPU seconds of each op."""
    from bench_checks import CheckFailed
    from ebcert.errors import EBCertError

    ops = [[] for _ in range(cpu_count(workload))]
    failed, correct = 0, True
    start, rounds = time.perf_counter(), 0
    while (rounds % len(ops) or min(map(len, ops)) + failed < MIN_OPS
           or time.perf_counter() - start < seconds):
        on = ops[start_round(workload, rounds)]
        rounds += 1
        for item in items:
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                output = workload.op(item)
            except EBCertError as exc:
                failed += 1
                print(f"op failed: {exc!r}", file=sys.stderr)
                continue
            on.append((time.perf_counter() - t0, time.process_time() - c0))
            try:
                workload.check(item, output)
            except CheckFailed as exc:
                correct = False
                print(f"check failed: {exc}", file=sys.stderr)
    return ops, failed, correct


def end_to_end(ops, setups) -> tuple[dict, dict]:
    """The metrics, and the wall-time figures, which are not metrics.

    The metrics are CPU seconds.  On this shared host the wall time of an op
    also holds time in which its thread did not run: in one 200 s stretch
    that was a third of the wall time, and the wall-time means of
    its 25 s windows ranged by 37 %, the CPU-time means by 14 %.  Quantiles
    are taken on each CPU's ops apart and then averaged over the CPUs (see
    CPUS).
    """
    def per_cpu(quantile, kind: int) -> float:
        return statistics.fmean(quantile([op[kind] for op in on]) for on in ops)

    def p75(values):
        return statistics.quantiles(values, n=4)[2]

    pooled = [op for on in ops for op in on]
    metrics = {
        "cpu_s_per_op": (statistics.fmean(cpu for _, cpu in pooled), "s"),
        "op_cpu_p75_s": (per_cpu(p75, 1), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    wall = {
        "ops_per_s": len(pooled) / sum(w for w, _ in pooled),
        "op_p50_s": per_cpu(statistics.median, 0),
        "op_p75_s": per_cpu(p75, 0),
    }
    return metrics, wall


def traced_op_metrics(tracer, op, replay, call, values, counts) -> dict:
    spans = tracer.spans
    children = tracer.children(op)
    own = tracer.self_times(replay, children)
    metrics = {f"{name}_s": own.get(name, 0.0) for name in LAYER_SPANS}
    metrics.update(counts)
    metrics.update(values)
    call_s = tracer.duration(call)
    metrics["certify.certify_s"] = sum(
        tracer.duration(i) for i in tracer.descendants(call, children)
        if spans[i][0] == "certify.certify")
    top = children.get(replay, [])
    metrics["certify.stage_coverage"] = sum(tracer.duration(i) for i in top) / call_s
    per_file = sum(tracer.duration(i) for i in top if spans[i][0] == "cli.per_file")
    metrics["cli.per_file_s"] = per_file
    metrics["cli.batch_s"] = call_s if per_file else 0.0
    metrics["cli.pool_slowdown"] = call_s / per_file if per_file else 0.0
    metrics["call_s"] = call_s
    return metrics


def measure_traced(workload, items, seconds, tracer):
    """Each op runs once untraced, then traced: the replay of its stages,
    then the op itself with the wrappers on."""
    from bench_checks import CheckFailed
    from ebcert.errors import EBCertError

    per_op, untraced, failed, correct = [], [], 0, True
    start, rounds = time.perf_counter(), 0
    while (rounds % cpu_count(workload) or len(per_op) + failed == 0
           or time.perf_counter() - start < seconds):
        start_round(workload, rounds)
        rounds += 1
        for item in items:
            op = len(per_op) + failed
            try:
                t0 = time.perf_counter()
                reference = workload.op(item)
                plain_s = time.perf_counter() - t0
                tracer.op = op
                tracer.counters["numerics.svd_max_elems"] = 0
                tracer.install()
                try:
                    before = tracer.snapshot()
                    with tracer.phase("replay") as replay:
                        values = workload.replay(item, reference, tracer)
                    after = tracer.snapshot()
                    with tracer.phase("call") as call:
                        output = workload.op(item)
                finally:
                    tracer.uninstall()
                    tracer.op = None
            except EBCertError as exc:
                failed += 1
                print(f"op failed: {exc!r}", file=sys.stderr)
                continue
            counts = {k: after[k] - before[k] for k in COUNTERS}
            counts["numerics.svd_max_elems"] = after["numerics.svd_max_elems"]
            per_op.append(traced_op_metrics(tracer, op, replay, call, values, counts))
            untraced.append(plain_s)
            try:
                workload.check(item, reference)
                workload.check(item, output)
            except CheckFailed as exc:
                correct = False
                print(f"check failed: {exc}", file=sys.stderr)
    return per_op, untraced, failed, correct


def per_layer(tracer, per_op, untraced) -> dict:
    def unit(name):
        if name.endswith("_s"):
            return "s"
        if name.endswith(("_calls", "_dim", "_elems")):
            return "count"
        return "ratio"

    names = [k for k in per_op[0] if k != "call_s"]
    out = {name: statistics.median(m[name] for m in per_op) for name in names}
    for kind in ("sample", "planted"):
        durations = [e - s for n, s, e, _, op in tracer.spans if n == f"zoo.{kind}" and op is None]
        out[f"zoo.{kind}_s"] = statistics.median(durations) if durations else 0.0
    out["zoo.sample_eigh_calls"] = statistics.median(tracer.eigh_counts.get("zoo.sample", [0]))
    # untraced over traced op wall time, taking the traced op as its call alone
    out["trace.overhead"] = statistics.median(untraced) / statistics.median(m["call_s"] for m in per_op)
    return {name: (value, unit(name)) for name, value in sorted(out.items())}


def environment() -> dict:
    import numpy as np
    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS["OPENBLAS_NUM_THREADS"],
            "python": sys.version.split()[0]}


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_THREADS)
    workloads = load_workloads()
    if args.workload not in workloads:
        raise SystemExit(f"error: unknown workload {args.workload}; choose from {sorted(workloads)}")
    workload = workloads[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_only:
            _, seconds = set_up(workload, args.seed, workdir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        if args.trace:
            from bench_trace import Tracer
            tracer = Tracer()
            tracer.install()
            try:
                items, _ = set_up(workload, args.seed, workdir, tracer)
            finally:
                tracer.uninstall()
            per_op, untraced, failed, correct = measure_traced(workload, items, args.seconds, tracer)
            metrics, wall = per_layer(tracer, per_op, untraced), {}
            attempted = len(per_op) + failed
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            items, first = set_up(workload, args.seed, workdir)
            setups = [first] + [child_setup_seconds(args) for _ in range(SETUP_RUNS - 1)]
            ops, failed, correct = measure(workload, items, args.seconds)
            metrics, wall = end_to_end(ops, setups)
            attempted = sum(map(len, ops)) + failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    detail = dict(result, wall=wall, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, environment=environment())
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

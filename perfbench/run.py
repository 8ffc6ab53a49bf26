"""clmmlab benchmark: one workload per invocation, result JSON on the last line.

    python3 perfbench/run.py --workload ddqn-train --seed 0 --seconds 40 --trace 0

Run from the root of a source tree; clmmlab is imported from its `src/`.
With `--trace 0` the run sets up several times (a fresh import of clmmlab
plus the workload's inputs), then repeats the workload's operation until
`--seconds` have passed and prints the end-to-end metrics. With
`--trace 1` it sets up once, runs the first operation untraced, traced and
untraced again, and prints the per-layer metrics. `--workload all` runs
every workload in turn and prints each result. See README.md for the
workloads and metrics.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def workload_names():
    return [w["name"] for w in load_spec()["workloads"]]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=workload_names() + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


# -- run stamp ---------------------------------------------------------------

def _git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _src_files():
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames
                             if d != "__pycache__" and not d.endswith(".egg-info"))
        for name in sorted(filenames):
            if not name.endswith(".pyc"):
                yield os.path.join(dirpath, name)


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def stamp():
    import numpy as np
    digest = hashlib.sha256()
    src_lines = 0
    for path in _src_files():
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
        if path.endswith(".py"):
            src_lines += data.count(b"\n")
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
    }


# -- runs --------------------------------------------------------------------

def run_op(workload, state, k, out_dir, around=contextlib.nullcontext):
    """Time one op inside `around`, then check its outputs untimed.

    An exception in either counts as one failed sub-operation.
    """
    t0 = time.perf_counter()
    wall_s = None
    try:
        with around():
            out = workload.op(state, k, out_dir)
        wall_s = time.perf_counter() - t0
        record = workload.check(state, out, out_dir)
    except Exception as e:
        traceback.print_exc(file=sys.stderr)
        record = {"hours": 0, "attempted": 1,
                  "errors": [f"{type(e).__name__}: {e}"]}
    record["wall_s"] = time.perf_counter() - t0 if wall_s is None else wall_s
    record["failed"] = len(record["errors"])
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shutil.rmtree(out_dir, ignore_errors=True)
    return record


def fresh_workload(name):
    """Import clmmlab and the workloads anew (numpy stays loaded)."""
    for mod in [m for m in sys.modules
                if m in ("clmmlab", "workloads") or m.startswith("clmmlab.")]:
        del sys.modules[mod]
    import workloads
    return workloads.WORKLOADS[name]


def untraced(name, args, work_dir):
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = fresh_workload(name)
        state = workload.setup(args.seed, work_dir)
        setups.append(time.perf_counter() - t0)
    ops = []
    t0 = time.perf_counter()
    # start another op only if it should end nearer the deadline than not
    while not ops or (time.perf_counter() - t0 + statistics.median(
            o["wall_s"] for o in ops) / 2 < args.seconds):
        ops.append(run_op(workload, state, len(ops),
                          os.path.join(work_dir, f"op-{len(ops)}")))
    attempted = sum(o["attempted"] for o in ops)
    failed = sum(o["failed"] for o in ops)
    rates = [o["hours"] / o.get("replay_s", o["wall_s"]) for o in ops]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(o["wall_s"] for o in ops),
        "hours_per_s": statistics.median(rates),
        # one CLI call runs one op; the whole-run peak of later ops wanders
        # by up to a third from run to run (see README.md)
        "peak_rss_mb": ops[0]["peak_rss_mb"],
        "ok_share": (attempted - failed) / attempted,
    }
    # workload-specific metrics, printed for people and kept out of the
    # result line, whose metrics must be the same on every workload
    named = {"failed_share": [failed / attempted, "ratio"],
             workload.rate_name: [metrics["hours_per_s"], "1/s"]}
    ratios = [o["oracle_ratio"] for o in ops if "oracle_ratio" in o]
    if ratios:
        named["oracle_ratio_mean"] = [statistics.mean(ratios), "ratio"]
    detail = {"setup_runs_s": setups,
              "workload_metrics": named, "ops": ops}
    return metrics, attempted, failed, detail


def traced(workload, args, work_dir):
    import spans
    tracer = spans.Tracer()
    with tracer.tracing(spans.SETUP_SPAN):
        state = workload.setup(args.seed, work_dir)
    # The first op of a process runs cold, so the untraced reference for
    # the overhead is the op after the traced one.
    ops = [run_op(workload, state, 0, os.path.join(work_dir, "op-warm")),
           run_op(workload, state, 0, os.path.join(work_dir, "op-traced"),
                  around=lambda: tracer.tracing(spans.OP_SPAN)),
           run_op(workload, state, 0, os.path.join(work_dir, "op-untraced"))]
    metrics = spans.layer_metrics(tracer)
    metrics["trace.overhead_share"] = ops[1]["wall_s"] / ops[2]["wall_s"] - 1.0
    spans_path = os.path.join(OUT, f"spans-{workload.name}.npz")
    tracer.save(spans_path)
    detail = {"spans_file": os.path.relpath(spans_path, ROOT), "ops": ops}
    return (metrics, sum(o["attempted"] for o in ops),
            sum(o["failed"] for o in ops), detail)


def run_one(args):
    spec = load_spec()
    sys.path.insert(0, SRC)
    workload = fresh_workload(args.workload)
    found = sys.modules["clmmlab"].__file__
    if not os.path.abspath(found).startswith(SRC + os.sep):
        print(f"error: imported clmmlab from {found}, not {SRC}", file=sys.stderr)
        return 2

    work_dir = os.path.join(OUT, f"work-{workload.name}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        if args.trace:
            metrics, attempted, failed, detail = traced(workload, args, work_dir)
        else:
            metrics, attempted, failed, detail = untraced(workload.name, args,
                                                          work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    mismatch = set(units) ^ set(metrics)
    if mismatch:
        print(f"error: metrics and BENCHMARK.json {kind} differ: "
              f"{sorted(mismatch)}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    record = dict(result, workload=workload.name, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, stamp=stamp(),
                  detail=detail)
    path = os.path.join(OUT, f"result-{workload.name}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    shown = {name: [m["value"], m["unit"]] for name, m in result["metrics"].items()}
    shown.update(detail.get("workload_metrics", {}))
    for name, (value, unit) in shown.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    print(f"detail: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, one after another."""
    code = 0
    for name in workload_names():
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0:
            print(f"{name}: exited {done.returncode}")
            code = 1
    return code


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "clmmlab", "__init__.py")):
        print(f"error: no clmmlab sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

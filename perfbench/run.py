"""rerand benchmark: one workload, untraced (end-to-end metrics) or traced
(per-layer metrics).

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src. Inputs are generated from --seed in set-up. The timed phase runs
operations for about --seconds; between operations, set-ups in a fresh
interpreter are timed for setup_s, the median of at least seven of them
taken across the whole run. Afterwards every output is checked
(see workloads.py) and one operation is repeated with the same seed to
confirm byte-identical output. The last stdout line is a JSON object with
keys correct, attempted, failed and metrics. Scratch files go to
./.perfbench_out/ and are removed at the end, except result-*.json
(environment and details) and trace-*.json (spans).
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, so that one workload process
# never uses more than one core.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

# setup_s is the median of fresh-interpreter set-ups spread over the
# whole run, so that they meet the same mix of fast and slow spells of a
# shared machine as the operations do (on a 2-core VM a set-up took
# 0.08 s in one spell and 0.12 s in the next, a few seconds apart).
# Before an operation, set up once more while set-ups have taken at most
# SETUP_SHARE of the timed phase; make up SETUP_MIN_REPEATS after it
# (one 15 s factorial study leaves no gaps).
SETUP_SHARE = 0.2
SETUP_MIN_REPEATS = 7
TAIL_BEYOND = 10
OUT_DIR = ".perfbench_out"


def load_package(root: str):
    """Import rerand from <root>/src, and nothing else under that name."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rerand", "__init__.py")):
        raise FileNotFoundError(f"no rerand package under {src}")
    sys.path.insert(0, src)
    rr = importlib.import_module("rerand")
    for layer in spans.LAYERS:
        importlib.import_module(f"rerand.{layer}")
    if os.path.dirname(os.path.abspath(rr.__file__)) != os.path.join(os.path.abspath(src), "rerand"):
        raise ImportError(f"rerand imported from {rr.__file__}, not from {src}")
    return rr


# One set-up in a fresh interpreter: the import of the package and of
# numpy, first-call initialisation and any per-process cache all count.
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {here!r})
import pickle, run
workload, root, work, seed = pickle.loads(sys.stdin.buffer.read())
workload.setup(run.load_package(root), work, seed)
print(time.perf_counter() - t0)
"""


def setup_seconds(run: "Run") -> float:
    """Seconds of one set-up of run's workload in a fresh interpreter,
    from before the package is imported to the end of the warm-up."""
    code = SETUP_CHILD.format(here=os.path.dirname(os.path.abspath(__file__)))
    job = pickle.dumps((run.w, run.root, run.fresh_dir(), run.seed))
    proc = subprocess.run([sys.executable, "-c", code], input=job, capture_output=True,
                          timeout=120, check=True)
    return float(proc.stdout.decode().strip().splitlines()[-1])


def latency_summary(seconds: list[float]) -> dict:
    """Median, and the highest percentile with TAIL_BEYOND samples above it
    (the maximum, with fewer beyond, when there are too few samples)."""
    xs = sorted(seconds)
    idx = len(xs) - TAIL_BEYOND - 1 if len(xs) > TAIL_BEYOND else len(xs) - 1
    return {
        "samples": len(xs),
        "p50_ms": 1e3 * statistics.median(xs),
        "tail_ms": 1e3 * xs[idx],
        "tail_percentile": 100.0 * (idx + 1) / len(xs),
        "tail_beyond": len(xs) - 1 - idx,
    }


def _mount_fstype(path: str) -> str:
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[4]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, fields[fields.index("-") + 1]
    except (OSError, ValueError, IndexError):
        pass
    return fstype


def _git_commit(root: str) -> str | None:
    """HEAD's commit from a loose or a packed ref; None without .git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def _digest(directory: str) -> str:
    """Short digest of the .py files in a directory."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def environment(root: str, out_dir: str, seed: int) -> dict:
    """What a result depends on besides the code, so results from different
    machines are not compared silently."""
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "commit": _git_commit(root),
        "source_sha256": _digest(os.path.join(root, "src", "rerand")),
        "output_fs": _mount_fstype(out_dir),
    }


class Run:
    """Scratch directories and the operations of one benchmark run."""

    def __init__(self, rr, workload, root: str, seed: int, out: str | None = None):
        self.rr, self.w, self.root, self.seed = rr, workload, root, seed
        self.out = out or os.path.join(root, OUT_DIR)
        self.base = os.path.join(self.out, f"{workload.name}-{seed}-{os.getpid()}")
        os.makedirs(self.base)
        self._dirs = 0

    def fresh_dir(self) -> str:
        """A new, empty directory: operations never overwrite files."""
        self._dirs += 1
        path = os.path.join(self.base, f"d{self._dirs}")
        os.makedirs(path)
        return path

    def setup(self):
        return self.w.setup(self.rr, self.fresh_dir(), self.seed)

    def op(self, inputs, i: int):
        """(result or None, seconds, problems) of operation i."""
        out = self.fresh_dir()
        t0 = time.perf_counter()
        try:
            res = self.w.op(self.rr, inputs, i, out)
        except Exception:  # a failed operation is counted, not fatal
            return None, time.perf_counter() - t0, [traceback.format_exc(limit=3)]
        return res, time.perf_counter() - t0, []

    def check(self, inputs, i, res, problems) -> list[str]:
        if res is None or problems:
            return problems
        try:
            return self.w.check(self.rr, inputs, i, res)
        except Exception:  # malformed output is a failed operation
            return [traceback.format_exc(limit=3)]

    def close(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)


def untraced(run: Run, seconds: float):
    # Untimed, so that no sample pays for reading the package and numpy
    # from disk or compiling their bytecode.
    setup_seconds(run)
    setups, setup_wall = [], 0.0
    inputs = run.setup()

    ops = []
    elapsed = 0.0
    start = time.perf_counter()
    while True:
        if setup_wall <= SETUP_SHARE * elapsed:
            t0 = time.perf_counter()
            setups.append(setup_seconds(run))
            setup_wall += time.perf_counter() - t0
        ops.append(run.op(inputs, len(ops)))
        # The timed phase, without the set-ups taken in it.
        elapsed = time.perf_counter() - start - setup_wall
        # Stop before an operation of average length would overrun.
        if elapsed * (len(ops) + 1) / len(ops) > seconds:
            break
    while len(setups) < SETUP_MIN_REPEATS:
        setups.append(setup_seconds(run))

    problems = {i: run.check(inputs, i, res, errs) for i, (res, _, errs) in enumerate(ops)}
    repeat, _, rep_problems = run.op(inputs, 0)
    repeat_ok = not rep_problems and ops[0][0] is not None and \
        run.w.fingerprint(repeat) == run.w.fingerprint(ops[0][0])
    failed = sum(bool(p) for p in problems.values())
    lat = latency_summary([op[1] for op in ops])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "alloc_per_s": (run.w.allocations * (len(ops) - failed) / elapsed, "1/s"),
        "latency_p50_ms": (lat["p50_ms"], "ms"),
        "latency_tail_ms": (lat["tail_ms"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_frac": (1.0 - failed / len(ops), "ratio"),
    }
    details = {
        "latency": lat,
        "failed_frac": failed / len(ops),
        "timed_s": elapsed,
        "setup_runs_s": setups,
        "same_seed_repeat_identical": repeat_ok,
        "problems": {str(i): p for i, p in problems.items() if p},
    }
    return len(ops), failed, repeat_ok, metrics, details


def traced(run: Run):
    inputs = run.setup()
    count = run.w.trace_ops

    # Each operation runs untraced and then traced, so that drift in the
    # machine's speed does not show up as tracing overhead.
    tracer = spans.Tracer()
    plain, traced_ops = [], []
    for i in range(count):
        plain.append(run.op(inputs, i))
        tracer.op = i
        tracer.install(run.rr)
        try:
            traced_ops.append(run.op(inputs, i))
        finally:
            tracer.uninstall()
    plain_wall = sum(op[1] for op in plain)
    wall = sum(op[1] for op in traced_ops)

    problems = {i: run.check(inputs, i, res, errs)
                for i, (res, _, errs) in enumerate(plain + traced_ops)}
    same = all(a[0] is not None and b[0] is not None
               and run.w.fingerprint(a[0]) == run.w.fingerprint(b[0])
               for a, b in zip(plain, traced_ops))
    metrics = spans.derive(tracer.spans, wall, plain_wall)
    trace_problems = spans.invariants(tracer.spans, metrics)
    if not same:
        trace_problems.append("traced and untraced runs produced different outputs")
    path = os.path.join(run.out, f"trace-{run.w.name}-{run.seed}.json")
    tracer.dump(path)
    failed = sum(bool(p) for p in problems.values())
    details = {
        "trace_file": path,
        "top_self_s": spans.top_self_times(tracer.spans),
        "allocate_nonridge_top_self_s": spans.top_self_times_under(
            tracer.spans, lambda s: s[0] == "cli.main" and s[5] is not None
            and s[5]["command"] == "allocate" and s[5]["scheme"] != "ridge"),
        "trace_problems": trace_problems,
        "problems": {str(i): p for i, p in problems.items() if p},
    }
    return 2 * count, failed, not trace_problems, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    try:
        rr = load_package(root)
    except (ImportError, FileNotFoundError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    run = Run(rr, workloads.WORKLOADS[args.workload], root, args.seed)
    try:
        if args.trace:
            attempted, failed, ok, metrics, details = traced(run)
        else:
            attempted, failed, ok, metrics, details = untraced(run, args.seconds)
    finally:
        run.close()

    env = environment(root, os.path.join(root, OUT_DIR), args.seed)
    mode = "traced" if args.trace else "untraced"
    print(f"# {args.workload} ({mode}) " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>14.6g} {unit}")
    for key in ("latency", "failed_frac", "same_seed_repeat_identical", "top_self_s",
                "allocate_nonridge_top_self_s", "trace_problems"):
        if key in details:
            print(f"# {key}: {details[key]}")
    for i, problem in list(details["problems"].items())[:5]:
        print(f"# op {i} failed: {problem}")
    with open(os.path.join(root, OUT_DIR, f"result-{args.workload}-{args.seed}-{mode}.json"), "w") as fh:
        json.dump({"environment": env, "metrics": metrics, "details": details}, fh, indent=1)
    correct = ok and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

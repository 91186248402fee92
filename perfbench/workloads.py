"""The four benchmark workloads: input generation, one operation, output checks.

A workload turns the benchmark seed into input files and in-memory
designs (`setup`), runs one operation against the package through its
public entry points (`op`), and checks what that operation returned
(`check`). The package is reached only through the module object passed
in as `rr`, looked up at call time, so that the tracer in `spans.py` can
rebind names underneath.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

ALLOCATE_SCHEMES = ("cr", "rer", "pca", "ridge")
REL_TOL = 1e-9
_NAN = re.compile(r"\bnan\b", re.IGNORECASE)

# Copies of configs/desk_study.cfg and configs/full_factorial.cfg as
# shipped (the factorial one cut to a 4-replication, 2-group slice, the
# smallest with two replications per group). The benchmark writes them
# itself so that a later edit of a preset cannot silently change what is
# measured; test_perfbench.py compares them with the shipped files.
DESK = {
    "n": "100", "d": "10", "rho": "0.1, 0.9", "schemes": "rer, pca",
    "replications": "500", "groups": "5", "pa": "0.05", "gamma": "0.95",
    "tau": "1.0",
}
FACTORIAL = {
    "n": "100, 200, 500, 1000", "d": "10, 50, 90, 180",
    "rho": "0.1, 0.5, 0.9", "schemes": "rer, ridge, pca",
    "surfaces": "linear, exp", "betas": "ones, half_doubled",
    "resid_vars": "0.5, 1.0", "replications": "4", "groups": "2",
    "pa": "0.05", "gamma": "0.95", "lambda": "auto", "tau": "1.0",
}


def derive_seed(seed: int, *tags: int) -> int:
    """A 63-bit seed addressed by (seed, tags); stable across platforms."""
    state = np.random.SeedSequence([seed, *tags]).generate_state(1, np.uint64)
    return int(state[0] >> np.uint64(1))


def one_factor_design(n: int, d: int, rho: float, gen: np.random.Generator) -> np.ndarray:
    """Raw equicorrelated normal covariates, generated outside the package."""
    z0 = gen.standard_normal(n)
    z = gen.standard_normal((n, d))
    return np.sqrt(rho) * z0[:, None] + np.sqrt(1.0 - rho) * z


def write_config(path: str, preset: dict) -> None:
    with open(path, "w") as fh:
        for key, value in preset.items():
            fh.write(f"{key} = {value}\n")


def write_covariate_csv(path: str, raw: np.ndarray) -> None:
    # repr() round-trips through float(), so the program parses exactly raw.
    with open(path, "w") as fh:
        fh.write(",".join(f"x{j + 1}" for j in range(raw.shape[1])) + "\n")
        for row in raw.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def run_cli(rr, argv: list[str]) -> int:
    """rerand's CLI in-process, with its progress lines kept off stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return rr.cli.main(argv)


def dir_bytes(path: str) -> bytes:
    """Every output file's name and bytes, for byte-identity comparisons."""
    out = []
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out.append(name.encode() + b"\0" + fh.read())
    return b"\0\0".join(out)


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_allocation(rr, w, value, threshold, accepted, recompute) -> list[str]:
    """Exact half split; batch value equals the single-allocation value to
    REL_TOL; accepted values lie at or below the threshold."""
    a = np.asarray(w)
    problems = []
    if a.size % 2 or not np.all((a == 0) | (a == 1)) or int(a.sum()) * 2 != a.size:
        return [f"not an exact half split ({int(a.sum())} of {a.size} treated)"]
    if value is None:
        return problems
    single = recompute(rr.core.make_allocation(a))
    if not relative_gap(value, single) <= REL_TOL:
        problems.append(f"batch criterion {value!r} != single-allocation {single!r}")
    if accepted and not value <= threshold:
        problems.append(f"accepted value {value!r} exceeds threshold {threshold!r}")
    if not accepted:
        problems.append("rejection run exhausted max_draws")
    return problems


@dataclass
class Study:
    """`rerand simulate` on a preset; one operation is one whole study."""

    name: str
    preset: dict
    trace_ops: int

    @property
    def allocations(self) -> int:
        count = int(self.preset["replications"]) * (len(self.preset["schemes"].split(",")) + 1)
        for key in ("n", "d", "rho"):
            count *= len(self.preset[key].split(","))
        return count

    def setup(self, rr, work: str, seed: int):
        cfg = os.path.join(work, "study.cfg")
        write_config(cfg, self.preset)
        # Warm-up: every code path of the study on a two-replication slice
        # of the first cell.
        warm = dict(self.preset, replications="2", groups="1")
        for key in ("n", "d", "rho"):
            warm[key] = self.preset[key].split(",")[0]
        warm_cfg = os.path.join(work, "warmup.cfg")
        write_config(warm_cfg, warm)
        run_cli(rr, ["simulate", "--config", warm_cfg, "--seed", str(seed),
                     "--out", os.path.join(work, "warmup")])
        return SimpleNamespace(cfg=cfg, seed=seed)

    def op(self, rr, inputs, i: int, out: str):
        seed = derive_seed(inputs.seed, 1, i)
        code = run_cli(rr, ["simulate", "--config", inputs.cfg, "--seed", str(seed), "--out", out])
        return SimpleNamespace(out=out, code=code)

    def check(self, rr, inputs, i: int, res) -> list[str]:
        if res.code != 0:
            return [f"simulate exited with {res.code}"]
        problems = []
        for name in sorted(os.listdir(res.out)):
            with open(os.path.join(res.out, name)) as fh:
                if _NAN.search(fh.read()):
                    problems.append(f"{name} contains NaN")
        with open(os.path.join(res.out, "metrics.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        expected = self.allocations // int(self.preset["replications"])
        for key in ("surfaces", "betas", "resid_vars"):
            expected *= len(self.preset.get(key, "x").split(","))
        if len(rows) != expected:
            problems.append(f"metrics.csv has {len(rows)} records, expected {expected}")
        for row in rows:
            n, d = int(row["n"]), int(row["d"])
            # rank n-1 makes `rer`'s distance the constant n-1: the engine
            # flags it degenerate and reports every run as not accepted.
            degenerate = row["scheme"] == "rer" and min(n - 1, d) == n - 1
            if int(row["exhausted"]) and not degenerate:
                problems.append(f"{row['exhausted']} exhausted runs at {n}x{d} {row['scheme']}")
        return problems

    def fingerprint(self, res) -> bytes:
        return dir_bytes(res.out)


@dataclass
class Allocate:
    """In-process `rerand allocate` calls on generated 1000 x 180 CSVs,
    cycling through the four schemes at default settings."""

    name: str = "allocate"
    n: int = 1000
    d: int = 180
    n_csv: int = 4
    trace_ops: int = 16
    allocations: int = 1

    def setup(self, rr, work: str, seed: int):
        gen = np.random.default_rng(derive_seed(seed, 2))
        paths, raws = [], []
        for j in range(self.n_csv):
            raw = one_factor_design(self.n, self.d, (0.1, 0.5, 0.9, 0.3)[j % 4], gen)
            path = os.path.join(work, f"units{j}.csv")
            write_covariate_csv(path, raw)
            paths.append(path)
            raws.append(raw)
        inputs = SimpleNamespace(paths=paths, raws=raws, seed=seed, bases={})
        for i in range(len(ALLOCATE_SCHEMES)):
            self.op(rr, inputs, i, os.path.join(work, f"warmup{i}"))
        return inputs

    def op(self, rr, inputs, i: int, out: str):
        scheme = ALLOCATE_SCHEMES[i % len(ALLOCATE_SCHEMES)]
        j = (i // len(ALLOCATE_SCHEMES)) % len(inputs.paths)
        argv = ["allocate", "--input", inputs.paths[j], "--scheme", scheme,
                "--seed", str(derive_seed(inputs.seed, 3, i)), "--out", out]
        return SimpleNamespace(out=out, code=run_cli(rr, argv), scheme=scheme, csv=j)

    def check(self, rr, inputs, i: int, res) -> list[str]:
        if res.code != 0:
            return [f"allocate exited with {res.code}"]
        with open(os.path.join(res.out, "report.json")) as fh:
            report = json.load(fh)
        w = np.loadtxt(os.path.join(res.out, "allocation.csv"), delimiter=",",
                       skiprows=1, dtype=np.int64)[:, 1]
        if res.csv not in inputs.bases:
            x = rr.core.standardize(inputs.raws[res.csv])
            inputs.bases[res.csv] = (x, rr.spectral.decompose(x))
        x, basis = inputs.bases[res.csv]
        bal = rr.balance
        recompute = {
            "rer": lambda a: bal.mahalanobis(x, basis, a),
            "pca": lambda a: bal.mahalanobis_pca(basis, report["k"], a),
            "ridge": lambda a: bal.mahalanobis_ridge(x, basis, report["lambda"], a),
        }.get(res.scheme)
        problems = []
        if report["scheme"] != res.scheme or report["n"] != self.n or report["d"] != self.d:
            problems.append("report.json disagrees with the request")
        value = report["criterion_value"] if recompute else None
        return problems + check_allocation(
            rr, w, value, report["threshold"], report["accepted"], recompute)

    def fingerprint(self, res) -> bytes:
        return dir_bytes(res.out)


@dataclass
class Fisher:
    """Accepted `pca` allocations at p_a = 0.001 on one 500 x 90 design,
    one substream root.child(i) per operation as in accepted_sample.

    The design is the same for every seed, as in a randomization test of
    one experiment; the seed picks the randomization streams. At this p_a
    the realized acceptance rate (and so the run time) differs by 10-20%
    from one design to another, which would hide smaller changes.

    An operation draws whole batches (16, 64, 256, then 1024 rows), so its
    time falls into one cluster per batch count, and latency_p50_ms is a
    percentile of the machine's noise inside the cluster that holds the
    median. rho is 0.9 (k = 29, realized acceptance about 0.84 p_a): about
    25% of operations accept within 340 draws and 68% within 1360, so the
    median sits near the middle of the four-batch cluster. At rho = 0.1
    (k = 79) it sat on the boundary to the five-batch cluster and flipped
    by a third between runs; at rho = 0.75 (k = 58; 19% and 58%) it sat at
    the cluster's 82nd percentile and rose by up to half on a busy
    machine, against 17% for the throughput.
    """

    name: str = "fisher"
    n: int = 500
    d: int = 90
    rho: float = 0.9
    p_a: float = 0.001
    gamma: float = 0.95
    sample_size: int = 32
    trace_ops: int = 150
    allocations: int = 1

    def setup(self, rr, work: str, seed: int):
        raw = one_factor_design(self.n, self.d, self.rho, np.random.default_rng(derive_seed(0, 4)))
        x = rr.core.standardize(raw)
        basis = rr.spectral.decompose(x)
        k = rr.spectral.select_k(basis, self.gamma).k
        crit = rr.balance.calibrate("pca", self.p_a, basis, k=k)
        # Warm-up, and the memory figure of accepted_sample: each allocation
        # it returns is a view that keeps its whole draw batch (up to
        # 1024 x n bytes) alive, and the sample is kept, so peak_rss_mb
        # shows what a fixed-size sample holds. Like the design, it comes
        # from a fixed stream, so its work and memory are the same for
        # every seed.
        sample = rr.engine.accepted_sample(x, crit, rr.core.RngStream(derive_seed(0, 6)),
                                           self.sample_size, basis=basis)
        return SimpleNamespace(x=x, basis=basis, k=k, crit=crit, sample=sample,
                               root=rr.core.RngStream(derive_seed(seed, 5)))

    def op(self, rr, inputs, i: int, out: str):
        res = rr.engine.rerandomize(inputs.x, inputs.crit, inputs.root.child(i), basis=inputs.basis)
        # A copy: the returned assignment is a view that keeps its whole
        # draw batch alive, and peak RSS must not grow with the op count
        # (set-up's sample measures that retention at a fixed size).
        return SimpleNamespace(w=np.array(res.allocation.assignment),
                               value=res.criterion_value, accepted=res.accepted)

    def check(self, rr, inputs, i: int, res) -> list[str]:
        return check_allocation(
            rr, res.w, res.value, inputs.crit.threshold, res.accepted,
            lambda a: rr.balance.mahalanobis_pca(inputs.basis, inputs.k, a))

    def fingerprint(self, res) -> bytes:
        return res.w.tobytes() + repr(res.value).encode()


WORKLOADS = {
    w.name: w
    for w in (
        Study("desk", DESK, trace_ops=4),
        Study("factorial", FACTORIAL, trace_ops=1),
        Allocate(),
        Fisher(),
    )
}

"""Fixed-seed output bytes, pinned by SHA-256 digest.

test_cli checks that two runs of one build write the same bytes; this
file checks the bytes themselves, so a change that moves any fixed-seed
output of `allocate`, `simulate` or `diagnose` fails here. A change that
means to move them records the new digests and says why.

The digests were recorded with numpy 2.4 and OpenBLAS on x86-64. Another
BLAS may round a matrix product differently in the last bit, which moves
the printed floats of the ridge threshold and the spectra.
"""

import csv
import hashlib

import numpy as np
import pytest

from rerand.cli import main

_ALLOCATE = {
    "cr": {
        "allocation.csv": "033c9608da5e44e39408fb9a6aa586bd7a0ac9a021dabe1af60bf127b4dbab7e",
        "diagnostics.csv": "52618623ac28fcd32be6f72e513d566d3ffd0fb38d81f45e4c2ff013b27c99a8",
        "report.json": "9b99025438fc5af2c679b1f5d08017e66d4e58a354cf87395977a7e04c6c11e3",
    },
    "rer": {
        "allocation.csv": "616a6bc4b02576c30e5e8f4e5572a138844ec0b5115c275d0d1c10ff3190d4e8",
        "diagnostics.csv": "7d62484c5fa4d95c367a42f47838617a3f2099eefe40b78f624eba619b585743",
        "report.json": "1a27c1832cc5af0abca08920f42d009ee9d267817d4fdcfd0b29673a74101a6d",
    },
    "pca": {
        "allocation.csv": "9d44d53b8c91121c38a1a3e32742627b8e37899c3d3cf994231156151d70d6a2",
        "diagnostics.csv": "88e719b90cadeba5d21340068b88fa4132a796893c31a6713188e276088c615d",
        "report.json": "0d828d006a245cf2c369d7b150bd32840cccabe12d6aafd86a330a533ebe1084",
    },
    "ridge": {
        "allocation.csv": "b10946f3894e52ef79636cce232aaa1650162fbc4ab3ff84a1ddf4021060b30d",
        "diagnostics.csv": "c66f1b5f7075d7b99e24fda9d8f86174e46a179816b6bd37ea1a5f270c4ae9eb",
        "report.json": "49ffec3ff93ec09354a26908facdc3a3a1580a7489f746c7bdffd0a54b9ea571",
    },
}
_SIMULATE = {
    "anova_r_mse.csv": "ce630844138d576255ed8d3e55b5ed99bc7ba00f8a11372339890c43216ac971",
    "anova_r_sigma.csv": "2bb49be11ef09b5c1176491492dd390295dcb2df78287da7af0082c73c634217",
    "metrics.csv": "6bdbe52f7ac86aa5f83d0a0c5b3ca20ba657251adef5b34db03610c2a01962d0",
    "summary.json": "be7f2b2ee309638dd76287af43f8bd1d631f23a83ca3746edfdd1ff855196c62",
}
_DIAGNOSE = {
    "prv.csv": "a75166023610e5df577fa432b455c9bf09f87957cef7779e81dc8542203336ce",
    "report.json": "1dff1b41500f1ecee6b8c7b982546e7cddf65fa6d81b4634199dd58561abb91a",
    "shrinkage.csv": "c1cf4a2cc78fb33c784e48714755e8045db865ca95ef0d1b094021e8ffdd13c7",
    "spectrum.csv": "0a1ca58b0cc1aaa7146b92e581affac9df2b8d7265f8772bd6d4fe84d4b2d395",
}

_STUDY = """\
n = 40, 60
d = 3, 6
rho = 0.5
schemes = rer, ridge, pca
surfaces = linear, exp
replications = 4
groups = 2
seed = 5
"""


def _covariates(path, n=40, d=6):
    # a shared factor, so that pca keeps fewer than all six components
    rng = np.random.default_rng(2021)
    x = rng.standard_normal((n, d)) + 1.5 * rng.standard_normal((n, 1))
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow([f"x{i + 1}" for i in range(d)])
        for row in x:
            out.writerow([f"{v:.10f}" for v in row])
    return str(path)


def _digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("scheme", sorted(_ALLOCATE))
def test_allocate_bytes(tmp_path, scheme):
    cov, out = _covariates(tmp_path / "cov.csv"), tmp_path / "run"
    assert main(["allocate", "--input", cov, "--scheme", scheme, "--seed", "5",
                 "--out", str(out)]) == 0
    assert _digests(out) == _ALLOCATE[scheme]


def test_simulate_bytes(tmp_path):
    cfg, out = tmp_path / "study.cfg", tmp_path / "run"
    cfg.write_text(_STUDY)
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert _digests(out) == _SIMULATE


def test_diagnose_bytes(tmp_path):
    cov, out = _covariates(tmp_path / "cov.csv"), tmp_path / "run"
    assert main(["diagnose", "--input", cov, "--out", str(out)]) == 0
    assert _digests(out) == _DIAGNOSE

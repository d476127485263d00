"""Fixed-seed chains must keep their exact bytes across refactors.

Each case fits a small synthetic model (``oracle.generate_synthetic``,
n=60) with two chains of 80 iterations and hashes the raw bytes of every
chain's draw matrix.  A behaviour-preserving change to the sampler must
reproduce these digests bit for bit; a change that alters the random
stream must update them deliberately, together with a fresh calibration
check.  They were last re-recorded when the scan kernel (``_scan.c``) took
its own exponential, ``hg_exp``, in place of the libm's, and the Normal
blocks began to form their precision matrix with one symmetric rank-k
update (``TestSbcVarianceRandomEffects`` and ``TestSbcCollinearLaplace`` in
``test_oracle.py`` and acceptance criteria 4 and 8 passed on that sampler).
``truncated_scale`` alone was re-recorded when the kernel began to square
the map itself: the rotated eta2 prior columns now square as ``(c V)^2``
rather than ``V^2 c^2``, a rounding that moves only the envelope's curvature
scale, never the target law.

The digests were recorded with Python 3.11.7, numpy 2.4.6, scipy 1.17.1,
OpenBLAS 0.3.31 (scipy-openblas, DYNAMIC_ARCH, Haswell kernels), gcc 12.2
and glibc 2.36's libm, at both 1 and 2 OpenBLAS threads, and came out the
same from the kernel's AVX-512, AVX2 and SSE2 builds of its exponential
loop.  They do not depend on the libm's ``exp``.  Another BLAS build or CPU
kernel may round the Normal solves differently, and another libm may round
the ``log``, ``log1p`` and ``expm1`` of the scan's envelope, and so move the
digests without any change to this package.

The last three cases cover the driver's absent blocks: no eta2 or scale
block (r2 = 0), no eta1 or sigma2_eta1 block under the Laplace likelihood
(r1 = 0), and the echo-state shape, whose variance predictor lives entirely
in ``Psi2`` (p2 = 0 and r1 = 0, built by replacing ``X2`` with a zero-width
block, since ``SyntheticShape`` requires an intercept there).
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from hetgibbs.design import Hyperparams
from hetgibbs.gibbs import GibbsConfig, run_gibbs
from hetgibbs.oracle import SyntheticShape, generate_synthetic, synthetic_model_spec

CASES = {
    "gaussian_re": (
        SyntheticShape(p1=2, p2=2, r1=3, r2=3),
        Hyperparams(),
        [
            "ee56942a5c63251eecfd824632470c3a613ed7b450f5c3f711213c0f7fc6e039",
            "c5b4a4f763e34a8a2f37e0048b8eb56a41f0de2717e67d2bc3e6dc71648dbb04",
        ],
    ),
    "laplace_re": (
        SyntheticShape(p1=2, p2=2, r1=3, r2=3, likelihood="laplace"),
        Hyperparams(),
        [
            "e065a98b993dec55d67aeaf5cc84922d4938a69bce22bbce9044ef720992b28b",
            "3a120c01972c66cecf0762403192a13e8ed59f4e7eb599b4570b752a042cb53e",
        ],
    ),
    "truncated_scale": (
        SyntheticShape(p1=1, p2=1, r2=4),
        Hyperparams(trunc_lower=7.0),
        [
            "a9d51b314952c135fd290164aca6a9c3fd4515968252ecb8a30a4d2e401a362c",
            "e4afa9e7dc8e80f155c54c9f24137279d6702aa2ab114a62e92782af67dd6c22",
        ],
    ),
    "no_variance_random_effects": (
        SyntheticShape(p1=2, p2=2, r1=3, r2=0),
        Hyperparams(),
        [
            "4e5128d7e210f8f2404f32fa32aaa7b4fb118ad183c58d9917480d4c509c191c",
            "8ede91d244edf40219bd8b13a93f428172b62a2f41329bdfacd2c62091f73269",
        ],
    ),
    "laplace_no_mean_random_effects": (
        SyntheticShape(p1=2, p2=2, r1=0, r2=3, likelihood="laplace"),
        Hyperparams(),
        [
            "6fc9b37131b5a903c7d46fde768c169e2578ad5a8f732a7baedc96c6cba7109e",
            "3efe85ae15e75f55cb667cdb87bbbd141ec4703b1c5006b43c99979e30030081",
        ],
    ),
    "esvm_shape": (
        SyntheticShape(p1=1, p2=1, r2=4),
        Hyperparams(trunc_lower=7.0),
        [
            "894108848f7a9c5477dd1935d25fbb9cdb8ee817559add16c89c297dcb1a6ac2",
            "8956bd8ddf7ecc1e2ee0f6b7a259e288675d68e241a7659d461c23274a03401c",
        ],
    ),
}
N = 60
# design blocks replaced after the synthetic spec is built
SPEC_EDITS = {"esvm_shape": {"X2": np.empty((N, 0))}}


def chain_digests(shape, hyper, **edits):
    data, _ = generate_synthetic(shape, seed=2024, n=N)
    spec = dataclasses.replace(synthetic_model_spec(data, shape, hyper), **edits)
    chains = run_gibbs(spec, data, GibbsConfig(iterations=80, burn_in=20, seed=31, chains=2))
    return [hashlib.sha256(c.to_matrix().tobytes()).hexdigest() for c in chains]


@pytest.mark.parametrize("name", sorted(CASES))
def test_fixed_seed_chains_unchanged(name):
    shape, hyper, expected = CASES[name]
    assert chain_digests(shape, hyper, **SPEC_EDITS.get(name, {})) == expected

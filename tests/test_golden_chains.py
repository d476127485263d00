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
"""

import hashlib

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
}


def chain_digests(shape, hyper):
    data, _ = generate_synthetic(shape, seed=2024, n=60)
    spec = synthetic_model_spec(data, shape, hyper)
    chains = run_gibbs(spec, data, GibbsConfig(iterations=80, burn_in=20, seed=31, chains=2))
    return [hashlib.sha256(c.to_matrix().tobytes()).hexdigest() for c in chains]


@pytest.mark.parametrize("name", sorted(CASES))
def test_fixed_seed_chains_unchanged(name):
    shape, hyper, expected = CASES[name]
    assert chain_digests(shape, hyper) == expected

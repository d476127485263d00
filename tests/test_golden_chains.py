"""Fixed-seed chains must keep their exact bytes across refactors.

Each case fits a small synthetic model (``oracle.generate_synthetic``,
n=60) with two chains of 80 iterations and hashes the raw bytes of every
chain's draw matrix.  A behaviour-preserving change to the sampler must
reproduce these digests bit for bit; a change that alters the random
stream must update them deliberately, together with a fresh calibration
check.  They were last re-recorded when the cMLG coordinate scan moved into
the compiled kernel (``_scan.c``), whose serial sums and libm ``exp`` round
differently from numpy's (``TestSbcVarianceRandomEffects`` and
``TestSbcCollinearLaplace`` in ``test_oracle.py`` and acceptance criteria 4
and 8 passed on that sampler).

The digests were recorded with Python 3.11.7, numpy 2.4.6, scipy 1.17.1,
OpenBLAS 0.3.31 (scipy-openblas, DYNAMIC_ARCH, Haswell kernels), gcc 12.2
and glibc 2.36's libm, at both 1 and 2 OpenBLAS threads.  Another BLAS build or
CPU kernel may round the Normal solves differently, and another libm may
round ``exp``, and so move the digests without any change to this package.
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
            "1fc3117616df82dd901b2002078f9587a101f3d7428d38a855b397b2f114bd34",
            "a93dd3c3586e8e7a027669820acbb0d66611fc7dd162fcf768ab51c8ab39a041",
        ],
    ),
    "laplace_re": (
        SyntheticShape(p1=2, p2=2, r1=3, r2=3, likelihood="laplace"),
        Hyperparams(),
        [
            "0724b27491d2ef801a946cf3e1c1dee662d63748b5c125409f84551b534b2d33",
            "9f1b869d1ac01178ce0238ee9ac916733a2148f382b7015deaff04b8ab6fd500",
        ],
    ),
    "truncated_scale": (
        SyntheticShape(p1=1, p2=1, r2=4),
        Hyperparams(trunc_lower=7.0),
        [
            "ce700bc4c5379edbe69471fac64f2f87840dd31cdc8b681348c7da8dd8bf54e2",
            "50bde43d9d0baee46485faa6887f9af38b55b804428f26961b0ef04ebb7186b7",
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

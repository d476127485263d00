"""Fixed-seed chains must keep their exact bytes across refactors.

Each case fits a small synthetic model (``oracle.generate_synthetic``,
n=60) with two chains of 80 iterations and hashes the raw bytes of every
chain's draw matrix.  A behaviour-preserving change to the sampler must
reproduce these digests bit for bit; a change that alters the random
stream must update them deliberately, together with a fresh calibration
check.  They were last re-recorded when the beta2 and eta2 blocks began to
be scanned along the principal axes of their designs
(``TestSbcVarianceRandomEffects`` and ``TestSbcCollinearLaplace`` in
``test_oracle.py`` and acceptance criteria 4 and 8 passed on that sampler).

The digests were recorded with Python 3.11.7, numpy 2.4.6, scipy 1.17.1
and OpenBLAS 0.3.31 (scipy-openblas, DYNAMIC_ARCH, Haswell kernels), at
both 1 and 2 OpenBLAS threads.  Another BLAS build or CPU kernel may round
the Normal solves differently and so move the digests without any change
to this package.
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
            "68d8e08f9e29a5514a91fc479800d5cc53fa4b3efa0b64b192430f8e84fe74e1",
            "9587ebc27c531af0cf701af92357f2e21cd801186be16190a55468bafac552fc",
        ],
    ),
    "laplace_re": (
        SyntheticShape(p1=2, p2=2, r1=3, r2=3, likelihood="laplace"),
        Hyperparams(),
        [
            "e54adb9996e1cd1713595d13f61d68593fc811cd90bf338292e857e5f1bb9c01",
            "cbdbccf32b04070855cf6705be7a7c57f6bad6ec98e025c3d015d56ea53c3c94",
        ],
    ),
    "truncated_scale": (
        SyntheticShape(p1=1, p2=1, r2=4),
        Hyperparams(trunc_lower=7.0),
        [
            "449507c3b694ef5f41bfb49f41cc2540b9e5d2d574084d222f2598104efb8967",
            "2f7b7a346a7f983b0751702513238e5c7b2869bda97e6a0b3245f88d48ff1ca4",
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

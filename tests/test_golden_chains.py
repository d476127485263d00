"""Fixed-seed chains must keep their exact bytes across refactors.

Each case fits a small synthetic model (``oracle.generate_synthetic``,
n=60) with two chains of 80 iterations and hashes the raw bytes of every
chain's draw matrix.  A behaviour-preserving change to the sampler must
reproduce these digests bit for bit; a change that alters the random
stream must update them deliberately, together with a fresh calibration
check.

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
            "e07ad4d9052a104f87e8bc389ba545524dcd694deaa95676d0390b705b77a32e",
            "f77e081dab3bc1b6283a9b8d7c40e0dc69748cffeab19a478fff4ad0696dc6c4",
        ],
    ),
    "laplace_re": (
        SyntheticShape(p1=2, p2=2, r1=3, r2=3, likelihood="laplace"),
        Hyperparams(),
        [
            "17ac8ce04f2ef4ce6703a441ba51f62e2de215e9d36892998b7a6810adafea20",
            "f1fb823b4332b0c2b87bc9f6379921fe7784928ab63fec743645c582d3c272a0",
        ],
    ),
    "truncated_scale": (
        SyntheticShape(p1=1, p2=1, r2=4),
        Hyperparams(trunc_lower=7.0),
        [
            "078f945be9df591ca9f5af55da1974fdbb064a1254f4c5a4d387166af6a8c606",
            "815aefad7c20246aead7b06d5dbc50303cc8f0857f98e45ff097a6459048f8bf",
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

"""Fixed-seed chains must keep their exact bytes across refactors.

Each case fits a small synthetic model (``oracle.generate_synthetic``,
n=60) with two chains of 80 iterations and hashes the raw bytes of every
chain's draw matrix.  A behaviour-preserving change to the sampler must
reproduce these digests bit for bit; a change that alters the random
stream must update them deliberately, together with a fresh calibration
check.  They were last re-recorded when each exact coordinate draw began
seeding its envelope from one Newton step (``TestSbcVarianceRandomEffects``
in ``test_oracle.py`` and acceptance criterion 4 passed on that sampler).

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
            "f922c76d6e3ad82f877d791775d3f7d057c797f56e14b234f82c7fa0c305e90a",
            "a15ffe1006925376d89cdf76f6ec6ecf6fc002073edd5543da0c4e718e024310",
        ],
    ),
    "laplace_re": (
        SyntheticShape(p1=2, p2=2, r1=3, r2=3, likelihood="laplace"),
        Hyperparams(),
        [
            "d1ae08fa27395b84be20cd42dcc055f51bfecd5fd31d2cee1d44e4198b872271",
            "6531ea7e35f6cb74a0f37c4a8cfcf7cd69dab6aa116990b1979cca2dbc0da62c",
        ],
    ),
    "truncated_scale": (
        SyntheticShape(p1=1, p2=1, r2=4),
        Hyperparams(trunc_lower=7.0),
        [
            "ac674a55e8005aaea0213d048c31b039e4bdf12a8967cfe9e3bb396a74a1b6df",
            "9081596dd86f3937ad9fcdbd2f0eed8d0702f6533f7c9fb8f80686660187c83f",
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

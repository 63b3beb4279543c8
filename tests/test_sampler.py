"""The seed stream of the random reduced-basis sampler, pinned bit for bit.

`random_reduced_superbase(seed)` is a seed contract: the scans regenerate
every record from its trial seed alone, so a change that moves a single
draw changes every scan output. The values below are float.hex dumps of
`(V, attempts)` recorded from the sampler that tested all 13 conditions on
every draw; seeds 0, 3 and 12 need more than one batch of 8,192 draws.

`python tests/test_sampler.py SEED ...` prints one line per seed: the seed,
`attempts` and the float.hex of the nine entries of V, row by row. Dumps of
two checkouts compare with `cmp`.
"""

import sys

import pytest

from latbabai.core import packing_density
from latbabai.error3d import _reduced_basis_density, random_reduced_superbase
from latbabai.reduction import OBTUSE_TOL, Superbase, is_minkowski_reduced

BATCH = 8192
# seed -> (attempts, float.hex of V row by row), with the default max_attempts
PINNED = {
    0: (14008, ("0x1.0000000000000p+0", "-0x1.3d3a281ef15a0p-2", "-0x1.e69b1ac5d7250p-2",
        "0x0.0p+0", "-0x1.5e82e407851e6p+1", "0x1.25b8a839ba310p+0",
        "0x0.0p+0", "0x0.0p+0", "-0x1.79c0a97b5bf16p+1")),
    1: (7695, ("0x1.0000000000000p+0", "-0x1.8163b8ae66580p-2", "-0x1.3ac2ebc500800p-3",
        "0x0.0p+0", "0x1.57f4d004b6a30p+0", "-0x1.602220c658f70p-2",
        "0x0.0p+0", "0x0.0p+0", "0x1.2b2b86abced00p+1")),
    2: (203, ("0x1.0000000000000p+0", "-0x1.037c960031160p-2", "-0x1.78797636b23c0p-4",
        "0x0.0p+0", "0x1.a277b54541330p+0", "-0x1.1ab12354eabe8p-1",
        "0x0.0p+0", "0x0.0p+0", "-0x1.0b145352276e6p+1")),
    3: (13068, ("0x1.0000000000000p+0", "-0x1.97e06e8619030p-2", "-0x1.b48a357349600p-3",
        "0x0.0p+0", "-0x1.6d1c2cf8c4b18p+0", "0x1.13e2cc8811258p-1",
        "0x0.0p+0", "0x0.0p+0", "-0x1.7e7a31cfb9370p+1")),
    4: (3244, ("0x1.0000000000000p+0", "-0x1.f257e932f71c0p-3", "-0x1.c1e17ab980da0p-3",
        "0x0.0p+0", "0x1.1efad6b5a020ap+1", "-0x1.d61bb9c393b98p-1",
        "0x0.0p+0", "0x0.0p+0", "-0x1.296260d40a7e2p+1")),
    5: (2262, ("0x1.0000000000000p+0", "-0x1.ed57c62753c00p-6", "-0x1.e7b7837645fc0p-3",
        "0x0.0p+0", "-0x1.046a45f533e38p+0", "0x1.b2089f429cd40p-3",
        "0x0.0p+0", "0x0.0p+0", "-0x1.182dcf7f71022p+1")),
    6: (3373, ("0x1.0000000000000p+0", "-0x1.85ca26e34fd60p-2", "-0x1.0004585c8d880p-5",
        "0x0.0p+0", "-0x1.ef9a9ecb963acp+0", "0x1.b2c706fb3e290p-1",
        "0x0.0p+0", "0x0.0p+0", "-0x1.48d7d32714098p+1")),
    7: (2729, ("0x1.0000000000000p+0", "-0x1.a6535fcfccda0p-3", "-0x1.ef51baeaf7100p-3",
        "0x0.0p+0", "-0x1.90d48bba1503cp+0", "0x1.e240f4d9b4570p-2",
        "0x0.0p+0", "0x0.0p+0", "-0x1.c64fe7660c0acp+0")),
    8: (4048, ("0x1.0000000000000p+0", "-0x1.2323644051000p-3", "-0x1.7fab77df40e00p-7",
        "0x0.0p+0", "-0x1.058cbbb1a3e9cp+1", "0x1.d778266f62070p-2",
        "0x0.0p+0", "0x0.0p+0", "0x1.ba8e6a7ea2d66p+1")),
    9: (1881, ("0x1.0000000000000p+0", "-0x1.096713a8d3500p-2", "-0x1.3e74312a5e680p-4",
        "0x0.0p+0", "0x1.60ba90d991b60p+0", "-0x1.a8f19b2da9330p-2",
        "0x0.0p+0", "0x0.0p+0", "0x1.dcdfaa946936cp+1")),
    10: (7335, ("0x1.0000000000000p+0", "-0x1.408658ef49ee0p-3", "-0x1.e1433e7c79a40p-4",
        "0x0.0p+0", "-0x1.f6f145ff91bbcp+0", "0x1.97b342877a2d0p-2",
        "0x0.0p+0", "0x0.0p+0", "0x1.a2fc31573882ap+1")),
    11: (6673, ("0x1.0000000000000p+0", "-0x1.9d5d6674ddae0p-3", "-0x1.3617598067d30p-2",
        "0x0.0p+0", "-0x1.279f0d220d560p+1", "0x1.8c03803845f20p-3",
        "0x0.0p+0", "0x0.0p+0", "-0x1.6874c0aad0282p+1")),
    12: (11624, ("0x1.0000000000000p+0", "-0x1.92015646d1c00p-6", "-0x1.3d4f15a055650p-2",
        "0x0.0p+0", "0x1.42dd80eeb4d58p+1", "-0x1.5c7bdf713c180p-5",
        "0x0.0p+0", "0x0.0p+0", "0x1.77c526aa52170p+1")),
}
# (seed, max_attempts) -> the same, where the last batch is cut short
SHORT = {
    (0, 5000): (2578, ("0x1.0000000000000p+0", "-0x1.b6b899081a9d0p-2", "-0x1.2b7a81353fce0p-3",
        "0x0.0p+0", "-0x1.59154df6d6466p+1", "0x1.c062144c9e298p-1",
        "0x0.0p+0", "0x0.0p+0", "0x1.c99507d8a846cp+1")),
    (3, 10000): (9201, ("0x1.0000000000000p+0", "-0x1.82fee87c79400p-6", "-0x1.7eebb20ac3e20p-2",
        "0x0.0p+0", "0x1.3588a6a0b3ea6p+1", "-0x1.8bfe18f3c5398p-1",
        "0x0.0p+0", "0x0.0p+0", "-0x1.6d2566eb17d82p+1")),
}


def dump(seed, max_attempts=10**6):
    V, attempts = random_reduced_superbase(rng_seed=seed, max_attempts=max_attempts)
    return attempts, tuple(float(x).hex() for x in V.ravel())


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_sampler_stream_is_pinned(seed):
    assert dump(seed) == PINNED[seed]


@pytest.mark.parametrize("seed, max_attempts", sorted(SHORT))
def test_sampler_stream_with_a_short_last_batch(seed, max_attempts):
    # max_attempts that is not a multiple of the batch size shortens the last
    # batch, which hands different draws to each entry than a full batch
    assert max_attempts % BATCH
    assert dump(seed, max_attempts) == SHORT[(seed, max_attempts)]


@pytest.mark.parametrize("seed, max_attempts", [(s, 10**6) for s in sorted(PINNED)] + sorted(SHORT))
def test_sampled_basis_is_reduced_and_obtuse(seed, max_attempts):
    # the sampler's batch test is exact, so the package's own (slacker)
    # predicates accept every basis it returns
    V, _ = random_reduced_superbase(rng_seed=seed, max_attempts=max_attempts)
    assert is_minkowski_reduced(V.T @ V)
    assert Superbase.from_basis(V).is_obtuse(OBTUSE_TOL)


def test_sampler_raises_when_max_attempts_runs_out():
    with pytest.raises(RuntimeError, match="10000 attempts"):
        random_reduced_superbase(rng_seed=0, max_attempts=10000)


def test_scan_density_matches_packing_density():
    for seed in range(200):
        V, _ = random_reduced_superbase(rng_seed=seed)
        assert _reduced_basis_density(V) == pytest.approx(packing_density(V), rel=1e-15, abs=0)


if __name__ == "__main__":
    for seed in (int(s) for s in sys.argv[1:]):
        attempts, entries = dump(seed)
        print(seed, attempts, *entries)

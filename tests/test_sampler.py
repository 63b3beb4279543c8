"""The seed stream of the random reduced-basis sampler, pinned bit for bit.

`random_reduced_superbase(seed)` is a seed contract: the scans regenerate
every record from its trial seed alone, so a change that moves a single
draw changes every scan output. The values below are float.hex dumps of
`(V, attempts)` recorded from the sampler that tested all 13 conditions on
every draw; seeds 0, 3 and 12 need more than one batch of 8,192 draws.

The sampler draws rows a-d of each batch in bulk and reads row e word by
word where a-d pass; `reference_sampler` below draws all five rows, and the
two must agree bit for bit, in the returned basis and in the generator state
they leave behind.

`python tests/test_sampler.py SEED ...` prints three lines per seed: the seed,
`attempts` and the float.hex of the nine entries of V, row by row; then the
same with `max_attempts=5000`, which cuts the last batch short (`none` where
no basis passes), and with `rng_range=-1,1`. Dumps of two checkouts compare
with `cmp`.
"""

import sys

import numpy as np
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


def dump(seed, max_attempts=10**6, rng_range=(-4.0, 4.0), sampler=random_reduced_superbase):
    V, attempts = sampler(rng_seed=seed, rng_range=rng_range, max_attempts=max_attempts)
    return attempts, tuple(float(x).hex() for x in V.ravel())


def reference_sampler(rng_seed=None, rng_range=(-4.0, 4.0), max_attempts=10**6):
    """The sampler with every row drawn: rng.uniform(lo, hi, (5, m)) per batch,
    then all conditions on the columns whose a and c pass."""
    rng = np.random.default_rng(rng_seed)
    lo, hi = rng_range
    attempts = 0
    while attempts < max_attempts:
        m = min(BATCH, max_attempts - attempts)
        a, b, c, d, e = rng.uniform(lo, hi, (5, m))
        idx = np.flatnonzero((a >= -0.5) & (a <= 0.0) & (c >= -0.5) & (c <= 0.0))
        a12, a13, b, d, e = a[idx], c[idx], b[idx], d[idx], e[idx]
        a22 = a12 * a12 + b * b
        a23 = a12 * a13 + b * d
        a33 = a13 * a13 + d * d + e * e
        ok = (
            (a22 >= 1.0)
            & (a33 >= a22)
            & (2.0 * np.abs(a23) <= a22)
            & (2.0 * (np.abs(a12) + np.abs(a13) + np.abs(a23)) <= 1.0 + a22)
            & (a23 <= 0.0)
            & (a12 + a22 + a23 >= 0.0)
            & (a13 + a23 + a33 >= 0.0)
            & (np.abs(b * e) > 1e-9)
        )
        if ok.any():
            j = np.flatnonzero(ok)[0]
            V = np.array([[1.0, a12[j], a13[j]], [0.0, b[j], d[j]], [0.0, 0.0, e[j]]])
            return V, attempts + int(idx[j]) + 1
        attempts += m
    raise RuntimeError(f"no reduced obtuse basis found in {max_attempts} attempts")


def outcome(sampler, seed, **kwargs):
    try:
        return dump(seed, sampler=sampler, **kwargs)
    except RuntimeError as exc:
        return str(exc)


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


@pytest.mark.parametrize("rng_range", [(-4.0, 4.0), (-1.0, 1.0), (-4.5, 3.25)])
def test_sampler_matches_the_full_draw_reference(rng_range):
    for seed in range(300):
        want = dump(seed, rng_range=rng_range, sampler=reference_sampler)
        assert dump(seed, rng_range=rng_range) == want


@pytest.mark.parametrize("max_attempts", [5000, 8193, 20000])
def test_sampler_matches_the_reference_with_a_short_last_batch(max_attempts):
    assert max_attempts % BATCH
    outcomes = [outcome(random_reduced_superbase, s, max_attempts=max_attempts) for s in range(300)]
    assert outcomes == [outcome(reference_sampler, s, max_attempts=max_attempts) for s in range(300)]
    # both paths of the last batch, a basis and none, are covered
    assert len({type(o) for o in outcomes}) == 2


def _state(rng):
    return repr(rng.bit_generator.state)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox])
@pytest.mark.parametrize("max_attempts", [10**6, 5000, 20000])
@pytest.mark.parametrize("held_half", [False, True])
def test_a_generator_passed_in_ends_where_the_reference_leaves_it(bit_generator, max_attempts, held_half):
    # PCG64 jumps over row e's words; the others draw them, as does a PCG64
    # that holds half a word from a 32-bit draw
    for seed in range(5):
        rngs = [np.random.Generator(bit_generator(seed)) for _ in range(2)]
        for rng in rngs:
            rng.random(3)
            if held_half:
                rng.integers(0, 2**32, dtype=np.uint32)
        got, want = (outcome(sampler, rng, max_attempts=max_attempts)
                     for sampler, rng in zip((random_reduced_superbase, reference_sampler), rngs))
        assert got == want
        assert _state(rngs[0]) == _state(rngs[1])


@pytest.mark.parametrize("rng_range", [(4.0, -4.0), (float("nan"), 1.0), (-float("inf"), float("inf")),
                                       (1.0, 1.0), (-1e308, 1e308)])
def test_sampler_rejects_a_range_that_is_empty_or_not_finite(rng_range):
    rng = np.random.default_rng(0)
    before = _state(rng)
    with pytest.raises(ValueError, match="need hi > lo, a finite distance apart"):
        random_reduced_superbase(rng, rng_range=rng_range)
    assert _state(rng) == before


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
        for label, kwargs in (("max_attempts=5000", {"max_attempts": 5000}),
                              ("rng_range=-1,1", {"rng_range": (-1.0, 1.0)})):
            got = outcome(random_reduced_superbase, seed, **kwargs)
            print(seed, label, *(["none"] if isinstance(got, str) else [got[0], *got[1]]))

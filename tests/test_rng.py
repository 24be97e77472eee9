import hashlib

import numpy as np
import pytest

from oat.rng import _GAMMA, _MASK, SplitMix64


def _scalar_permutation(rng: SplitMix64, n: int) -> list[int]:
    items = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randint(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def _scalar_sample(rng: SplitMix64, n: int, m: int) -> list[int]:
    pool = list(range(n))
    for i in range(m):
        j = i + rng.randint(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:m]


def _unmix(z: int) -> int:
    """Inverse of the splitmix64 output mix."""
    def unshift(x: int, s: int) -> int:
        y = x
        for _ in range(64 // s + 1):
            y = x ^ (y >> s)
        return y
    z = unshift(z, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 2**64) & _MASK, 27)
    z = unshift(z * pow(0xBF58476D1CE4E5B9, -1, 2**64) & _MASK, 30)
    return z


@pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 2200])
def test_permutation_and_sample_match_scalar_fisher_yates(n):
    for seed in range(40):
        fast, ref = SplitMix64(seed).fork("perm", n), SplitMix64(seed).fork("perm", n)
        perm = fast.permutation(n)
        assert perm.tolist() == _scalar_permutation(ref, n)
        assert perm.dtype == np.arange(0).dtype
        assert fast._state == ref._state
        for m in sorted({0, n // 3, n}):
            picked = fast.sample(n, m)
            assert picked.tolist() == _scalar_sample(ref, n, m)
            assert fast._state == ref._state


def test_rejected_draw_takes_the_scalar_path():
    # seed so that the first draw is 2**64 - 1, which randint(3) rejects
    # (2**64 mod 3 = 1); the shuffle must then draw once more, like randint
    seed = (_unmix(_MASK) - _GAMMA) & _MASK
    assert SplitMix64(seed).next_u64() == _MASK
    fast, ref = SplitMix64(seed), SplitMix64(seed)
    assert fast.permutation(3).tolist() == _scalar_permutation(ref, 3)
    assert fast._state == ref._state == (seed + 3 * _GAMMA) & _MASK
    fast, ref = SplitMix64(seed), SplitMix64(seed)
    assert fast.sample(3, 2).tolist() == _scalar_sample(ref, 3, 2)
    assert fast._state == ref._state == (seed + 3 * _GAMMA) & _MASK


def test_randints_match_successive_randint():
    # a bound just above 2**63 rejects about half of all draws
    for bounds in ([1, 2, 3, 7, 10, 1000], [2**63 + 1] * 6, []):
        for seed in range(20):
            fast, ref = SplitMix64(seed), SplitMix64(seed)
            draws = fast.randints(np.array(bounds, dtype=np.uint64))
            assert draws == [ref.randint(b) for b in bounds]
            assert fast._state == ref._state


@pytest.mark.parametrize("bad", [0, -1])
def test_randints_rejects_non_positive_bounds(bad):
    with pytest.raises(ValueError, match="positive"):
        SplitMix64(0).randints(np.array([3, bad]))


def test_sample_rejects_bad_counts():
    with pytest.raises(ValueError, match="cannot sample"):
        SplitMix64(0).sample(3, 4)


# sha256 of the float64 bytes each draw gives on SplitMix64(7).fork("golden");
# the bits every seeded dataset, init and augmentation is built from
UNIFORM_DIGESTS = {
    0: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    1: "8cf8e224881a47f529b6efdb2194ab26daf115cc4ffa84a12310526797efb2ca",
    7: "8b3e543d635e103862515c790b9b4215857492ae1e9a2375077c33a310a3263f",
    32000: "6e361e6235f07d0e1e53ea6713c1d093afd7da612d81595b8cec9a0f1de5a369",
}
NORMAL_DIGESTS = {
    0: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    1: "c29524e90a2f936590e8ca989afb6c9d90bb93d480ac5c2cdd834330f70bc4d1",
    7: "a4abb61084046d18cd087498402707aee1a90520e62758008b65410df8029648",
    32000: "b56a8abecebca550b313727ff2e9ab9e959c40b08020c20ab141b684c2bfaf75",
}


@pytest.mark.parametrize("draw,digests", [("uniform", UNIFORM_DIGESTS),
                                          ("normal", NORMAL_DIGESTS)])
@pytest.mark.parametrize("n", [0, 1, 7, 32000])
def test_draws_keep_their_golden_bits(draw, digests, n):
    rng = SplitMix64(7).fork("golden")
    out = getattr(rng, draw)(n)
    assert out.dtype == np.float64 and out.shape == (n,)
    assert hashlib.sha256(out.tobytes()).hexdigest() == digests[n]
    # uniform takes n draws, normal two per pair of outputs
    used = n if draw == "uniform" else 2 * ((n + 1) // 2)
    assert rng._state == (SplitMix64(7).fork("golden")._state + used * _GAMMA) & _MASK

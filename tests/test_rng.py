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

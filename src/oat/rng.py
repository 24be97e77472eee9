"""Seeded splitmix64 random number generator.

All sampling in this package goes through this generator instead of
``random`` / ``numpy.random`` so that corrupted datasets, model inits and
training runs are bit-identical across platforms and library versions.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def _fnv1a(text: str) -> int:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = (h ^ byte) * _FNV_PRIME & _MASK
    return h


class SplitMix64:
    """Deterministic 64-bit generator with cheap labelled sub-streams."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def fork(self, label: str, index: int = 0) -> "SplitMix64":
        """Derive an independent stream; same (seed, label, index) -> same stream."""
        return SplitMix64(_mix(self._state ^ _fnv1a(label) ^ (index & _MASK)))

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def _next_u64_array(self, n: int) -> np.ndarray:
        # splitmix outputs are a pure function of the counter, so a block of
        # draws can be produced vectorized and bit-identical to n next_u64
        # calls; wrapping uint64 arithmetic is exact, so working in place in
        # two buffers gives the same bits
        z = np.arange(1, n + 1, dtype=np.uint64)
        shifted = np.empty_like(z)
        with np.errstate(over="ignore"):
            z *= np.uint64(_GAMMA)
            z += np.uint64(self._state)
            self._state = int(z[-1]) if n else self._state
            for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
                z ^= np.right_shift(z, np.uint64(shift), out=shifted)
                z *= np.uint64(mult)
            z ^= np.right_shift(z, np.uint64(31), out=shifted)
            return z

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform in [0, 1), using the top 53 bits of each draw."""
        return (self._next_u64_array(n) >> np.uint64(11)) * 2.0**-53

    def uniform_range(self, n: int, low: float, high: float) -> np.ndarray:
        return low + (high - low) * self.uniform(n)

    def normal(self, n: int) -> np.ndarray:
        """n standard normal doubles via Box-Muller."""
        m = (n + 1) // 2
        r = self.uniform(m)
        angle = self.uniform(m)
        # a zero draw would send log to -inf; the 53-bit grid spacing is the floor
        np.maximum(r, 2.0**-53, out=r)
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        angle *= 2.0 * np.pi
        out = np.empty(2 * m)
        np.cos(angle, out=out[:m])
        np.sin(angle, out=out[m:])
        out[:m] *= r
        out[m:] *= r
        return out[:n]

    def randint(self, bound: int) -> int:
        """Unbiased integer in [0, bound) by rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        threshold = (2**64 // bound) * bound
        while True:
            draw = self.next_u64()
            if draw < threshold:
                return draw % bound

    def randints(self, bounds) -> list[int]:
        """randint(b) for each b of an integer array, in order: the same draws,
        and the same state afterwards, as successive randint calls.

        One block of draws serves them all unless a draw would be rejected;
        then the state is rewound and the draws are made one by one.
        """
        bounds = np.asarray(bounds)
        if bounds.size and bounds.min() <= 0:
            raise ValueError("bound must be positive")
        bounds = bounds.astype(np.uint64, copy=False)
        saved = self._state
        draws = self._next_u64_array(len(bounds))
        # randint accepts draw < (2**64 // b) * b, i.e. draw <= MASK - (2**64 mod b)
        rem = (np.uint64(_MASK) % bounds + np.uint64(1)) % bounds
        if np.all(draws <= np.uint64(_MASK) - rem):
            return (draws % bounds).tolist()
        self._state = saved
        return [self.randint(int(b)) for b in bounds]

    def permutation(self, n: int) -> np.ndarray:
        """arange(n) shuffled by Fisher-Yates, swapping i with randint(i + 1)
        for i from n - 1 down to 1."""
        items = list(range(n))
        swaps = self.randints(np.arange(n, 1, -1, dtype=np.uint64))
        for i, j in zip(range(n - 1, 0, -1), swaps):
            items[i], items[j] = items[j], items[i]
        return np.array(items, dtype=np.intp)

    def sample(self, n: int, m: int) -> np.ndarray:
        """m distinct indices from [0, n), in draw order (partial Fisher-Yates)."""
        if not 0 <= m <= n:
            raise ValueError(f"cannot sample {m} of {n}")
        pool = list(range(n))
        swaps = self.randints(np.arange(n, n - m, -1, dtype=np.uint64))
        for i, offset in enumerate(swaps):
            j = i + offset
            pool[i], pool[j] = pool[j], pool[i]
        return np.array(pool[:m], dtype=np.intp)

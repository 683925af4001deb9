"""Counter-based splittable random number generation.

Every random decision in the pipeline is keyed by (master_seed, stream keys...)
through a splitmix64 hash, so any work unit can be regenerated in isolation and
results do not depend on execution order. The masking kernel (see kernels.py)
draws from the same counter-based stream.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """splitmix64 finalizer: a 64-bit bijective mix."""
    x = (x + _GAMMA) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def fold(seed: int, *keys: int) -> int:
    """Absorb integer keys into a seed, one mix round per key."""
    h = seed & _MASK64
    for k in keys:
        h = mix64(h ^ (k & _MASK64))
    return h


class SplitRng:
    """Deterministic stream of 64-bit values derived from (seed, keys...).

    Draw i of a stream is mix64(state + (i+1)*GAMMA), so streams are
    counter-based: no draw depends on mutable hidden state beyond the
    position counter.
    """

    __slots__ = ("_state", "_counter")

    def __init__(self, seed: int, *keys: int):
        self._state = fold(seed, *keys)
        self._counter = 0

    def child(self, *keys: int) -> "SplitRng":
        """Independent stream derived from this stream's identity (not its position)."""
        return SplitRng(self._state, *keys)

    def next_u64(self) -> int:
        self._counter += 1
        return mix64((self._state + self._counter * _GAMMA) & _MASK64)

    def random(self) -> float:
        """Uniform float64 in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n). Modulo reduction; bias is negligible for n << 2**64."""
        if n <= 0:
            raise ValueError("randrange() arg must be positive")
        return self.next_u64() % n

    def randint(self, a: int, b: int) -> int:
        """Uniform integer in [a, b], both ends inclusive."""
        return a + self.randrange(b - a + 1)

    def sample(self, population: list, k: int) -> list:
        """k distinct elements, uniform without replacement (partial Fisher-Yates)."""
        n = len(population)
        if k > n:
            raise ValueError("sample larger than population")
        idx = list(range(n))
        for i in range(k):
            j = i + self.randrange(n - i)
            idx[i], idx[j] = idx[j], idx[i]
        return [population[idx[i]] for i in range(k)]

    def choices(self, population: list, k: int) -> list:
        """k elements, uniform with replacement."""
        n = len(population)
        return [population[self.randrange(n)] for _ in range(k)]

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

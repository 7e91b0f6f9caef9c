"""Deterministic 64-bit random number generation.

All randomness in the package flows through Xoshiro256 below, so that a
fixed seed gives bit-identical runs on every platform.  Replica seeds for
parallel experiments are derived with mix64 (the splitmix64 finalizer).
A seed is a 64-bit unsigned integer: `check_seed` rejects any other
instead of reducing it mod 2^64, so -1 and 2^64 - 1 are not one seed.

Integer draws reject every draw at or above the exact limit 2^64 - 2^64 % n,
so there is no modulo bias.  For 0 < n <= 2^32 that limit is above FAST_ACCEPT = 2^64 -
2^32, so `randrange` accepts any draw below that constant at once and
computes the exact limit only for the one draw in 2^32 at or above it; the
values and the draws consumed are exactly those of the exact rule.

Xoshiro256.fisher_yates is the one in-place Fisher-Yates shuffle.  It is a
generator that yields each index as soon as the element there is final, so
a consumer can act on a prefix of the permutation and stop early; the
generator then leaves the state after exactly the draws it made.
"""

from __future__ import annotations

MASK64 = 0xFFFFFFFFFFFFFFFF

GOLDEN_GAMMA = 0x9E3779B97F4A7C15

# 2^64 % n < n, so for n <= FAST_N every draw below FAST_ACCEPT is also
# below the exact rejection limit 2^64 - 2^64 % n.
FAST_N = 1 << 32
FAST_ACCEPT = (MASK64 + 1) - FAST_N


def mix64(z: int) -> int:
    """splitmix64 finalizer: a fixed 64-bit bijective mixer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def check_seed(seed: int) -> None:
    """Raise ValueError unless seed is a 64-bit unsigned integer."""
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {seed}")


def derive_seed(seed: int, replica_index: int) -> int:
    """Replica seed contract: mix64(seed XOR replica_index * golden gamma)."""
    check_seed(seed)
    return mix64(seed ^ ((replica_index * GOLDEN_GAMMA) & MASK64))


class Xoshiro256:
    """xoshiro256** with splitmix64 state initialization.

    Every draw goes through `next_u64`.  Integer draws use rejection below
    the largest multiple of the range, so there is no modulo bias.
    """

    __slots__ = ("s0", "s1", "s2", "s3")

    def __init__(self, seed: int):
        check_seed(seed)
        z = seed
        state = []
        for _ in range(4):
            z = (z + GOLDEN_GAMMA) & MASK64
            state.append(mix64(z))
        if not any(state):  # all-zero state is invalid for xoshiro
            state[0] = 1
        self.s0, self.s1, self.s2, self.s3 = state

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self.s0, self.s1, self.s2, self.s3
        x = (s1 * 5) & MASK64
        # rotl(x, 7) * 9; the bits the shift pushes past 64 vanish in the mask
        result = (((x << 7) | (x >> 57)) * 9) & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        self.s0, self.s1, self.s2, self.s3 = s0, s1, s2, ((s3 << 45) | (s3 >> 19)) & MASK64
        return result

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), for 1 <= n <= 2^64; a larger n raises
        ValueError after one draw."""
        if n <= 0:
            raise ValueError(f"randrange requires n >= 1, got {n}")
        while True:
            x = self.next_u64()
            if (x < FAST_ACCEPT and n <= FAST_N) or x < (MASK64 + 1) - (MASK64 + 1) % n:
                return x % n
            if n > MASK64 + 1:  # the exact limit is 0: no draw would ever be accepted
                raise ValueError(f"randrange requires n <= 2^64, got {n}")

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def coin(self) -> bool:
        return bool(self.next_u64() >> 63)

    def fisher_yates(self, items: list):
        """In-place Fisher-Yates shuffle of items, yielding each final index.

        Swaps items[i] with items[randrange(i + 1)] for i = len-1 down to 1
        and yields i once items[i] is final, then yields 0.  The draws are
        those of randrange, inlined.  Stopping early (close() or dropping
        the generator) writes back the state after exactly the draws made;
        draw nothing else from this generator while it is suspended.
        """
        s0, s1, s2, s3 = self.s0, self.s1, self.s2, self.s3
        mask = MASK64
        span = mask + 1
        # span % n < n <= len(items), so every draw below `safe` is also
        # below the exact limit span - span % n; only the rare draw above it
        # pays for the modulo.
        safe = span - len(items)
        try:
            for i in range(len(items) - 1, 0, -1):
                n = i + 1
                while True:
                    x = (s1 * 5) & mask
                    result = (((x << 7) | (x >> 57)) * 9) & mask
                    t = (s1 << 17) & mask
                    s2 ^= s0
                    s3 ^= s1
                    s1 ^= s2
                    s0 ^= s3
                    s2 ^= t
                    s3 = ((s3 << 45) | (s3 >> 19)) & mask
                    if result < safe or result < span - span % n:
                        break
                j = result % n
                items[i], items[j] = items[j], items[i]
                yield i
            if items:
                yield 0
        finally:
            self.s0, self.s1, self.s2, self.s3 = s0, s1, s2, s3

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates (see fisher_yates)."""
        for _ in self.fisher_yates(items):
            pass

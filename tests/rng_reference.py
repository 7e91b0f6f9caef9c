"""The one-draw-at-a-time xoshiro256** that the buffered `Xoshiro256`
replaced, kept as it was: its seeding, `next_u64` and `randrange` are the
reference the lane-parallel stream is checked against, draw for draw.

`Xoshiro256` hands out draws and no state, so a test compares states
through `next_draws`: a draw is a bijection of s1, and the map from a
state to the s1 words of it and the next three states has GF(2) rank 256
(`test_rng_lanes.test_four_draws_fix_the_state`), so two generators whose
next four draws agree were in the same state."""

from __future__ import annotations

from avoidkit.rng import FAST_ACCEPT, FAST_N, GOLDEN_GAMMA, MASK64, check_seed, mix64


class ReferenceXoshiro256:
    """xoshiro256** with splitmix64 state initialization, one step per draw."""

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

    @property
    def state(self) -> tuple[int, int, int, int]:
        return self.s0, self.s1, self.s2, self.s3


def reference_at(state: tuple[int, int, int, int]) -> ReferenceXoshiro256:
    """A reference generator whose next draw steps from `state`."""
    ref = ReferenceXoshiro256(0)
    ref.s0, ref.s1, ref.s2, ref.s3 = state
    return ref


def next_draws(g, k: int = 4) -> list[int]:
    """g's next k draws: four of them fix the state g was in."""
    return [g.next_u64() for _ in range(k)]

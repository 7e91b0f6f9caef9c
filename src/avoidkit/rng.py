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

Xoshiro256.fisher_yates is an in-place Fisher-Yates shuffle that is a
generator: it yields each index as soon as the element there is final, so
a consumer can act on a prefix of the permutation and stop early; the
generator then leaves the state after exactly the draws it made.

`next_u64` hands out draws from a buffer.  A generator's first WARM draws
are stepped one at a time, BATCH per refill, so a short-lived generator
never pays for the lanes.  After that a refill steps LANES stretches of the
same stream at once, each BLOCK draws long and 128 bits wide inside one
Python int, so every big-int operation serves LANES draws.  The state map of xoshiro256 is
linear over GF(2), so the lanes are put BLOCK steps apart, and moved on
between blocks, by jumping: k steps are the polynomial x^k mod CHARPOLY,
the map's characteristic polynomial, evaluated at the map (Haramoto et al.,
"Efficient jump ahead for F2-linear random number generators", 2008).  The
stream is the one-step stream, draw for draw.  The state words s0..s3 read
as the state after exactly the draws consumed, without touching the buffer
or the lanes, and `state` reads all four at the cost of one; assigning a
word restarts the stream from the new state.

`Xoshiro256.batch` serves many short-lived generators instead: lane j of
one `steps` pass is seed j's own stream, seeded by the same `seed_state`,
so up to LANES generators get their first draws from one pass, no jump
needed.  Each buffer holds its lane's draws under the invariants above,
and the stream goes on from its lane's end state.  `shuffle` draws from
the buffer; fisher_yates steps only the draws it makes, since its
consumer may stop early.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache

MASK64 = 0xFFFFFFFFFFFFFFFF

GOLDEN_GAMMA = 0x9E3779B97F4A7C15

# 2^64 % n < n, so for n <= FAST_N every draw below FAST_ACCEPT is also
# below the exact rejection limit 2^64 - 2^64 % n.
FAST_N = 1 << 32
FAST_ACCEPT = (MASK64 + 1) - FAST_N

WARM = 2048  # draws stepped one at a time after seeding or a restart
BATCH = 64  # draws per refill while warming up
LANES = 8  # stretches of the stream stepped at once after that
BLOCK = 512  # draws per lane per refill
WIDTH = 128  # bits per lane: room for x * 9 and s3 << 45 to stay inside it
LANE_MASK = sum(MASK64 << (WIDTH * j) for j in range(LANES))
# The characteristic polynomial of the xoshiro256 state map over GF(2):
# degree 256, 115 terms, bit i the coefficient of x^i.
CHARPOLY = 0x10003C03C3F3ECB1904B4EDCF26259F850280002BCEFD1A5E9D116F2BB0F0F001


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


def state_word(i: int) -> property:
    """The property for state word i of a Xoshiro256.  Read, it is the
    state after exactly the draws consumed, and the stream goes on from its
    buffer; assigned, the stream restarts from the new state."""

    def get(rng: Xoshiro256) -> int:
        return rng._state()[i]

    def put(rng: Xoshiro256, value: int) -> None:
        if not 0 <= value <= MASK64:
            raise ValueError(f"state word s{i} must fit in 64 unsigned bits, got {value}")
        state = list(rng._state())
        state[i] = value
        rng._restart(tuple(state))

    return property(get, put, doc=f"State word s{i}.")


def steps(state: tuple[int, int, int, int], n: int) -> tuple[list[int], tuple[int, int, int, int]]:
    """n xoshiro256** steps from `state`, on every lane of LANE_MASK at once:
    the n outputs, packed as the state is, and the state after them.  A
    state of four plain 64-bit words is one lane."""
    s0, s1, s2, s3 = state
    mask = LANE_MASK
    out = []
    put = out.append
    for _ in range(n):
        x = (s1 * 5) & mask
        # rotl(x, 7) * 9: mask before the * 9, or the bits x >> 57 moves into
        # the padding of the lane below would carry into that lane
        put(((((x << 7) | (x >> 57)) & mask) * 9) & mask)
        t = (s1 << 17) & mask
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & mask
    return out, (s0, s1, s2, s3)


@lru_cache(maxsize=8)
def jump_poly(k: int) -> int:
    """x^k mod CHARPOLY, bit i the coefficient of x^i."""
    r = 1
    for _ in range(k):
        r <<= 1
        if r >> 256:
            r ^= CHARPOLY
    return r


def jump(state: tuple[int, int, int, int], k: int) -> tuple[int, int, int, int]:
    """The state k steps after `state`, on every lane at once: the step map
    M satisfies CHARPOLY(M) = 0, so M^k is the polynomial x^k mod CHARPOLY
    evaluated at M, which is at most 255 steps, each XORed into the sum
    where its coefficient is 1."""
    r = jump_poly(k)
    mask = LANE_MASK
    s0, s1, s2, s3 = state
    a0 = a1 = a2 = a3 = 0
    while True:
        if r & 1:
            a0 ^= s0
            a1 ^= s1
            a2 ^= s2
            a3 ^= s3
        r >>= 1
        if not r:
            return a0, a1, a2, a3
        t = (s1 << 17) & mask
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & mask


def lane(packed: tuple[int, ...], j: int) -> tuple[int, ...]:
    """Lane j of a packed state or output."""
    return tuple((w >> (WIDTH * j)) & MASK64 for w in packed)


def spread(state: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """LANES packed states, lane j the state j * BLOCK steps after `state`,
    made by doubling: lanes 1, then 2-3, then 4-7 are jumps of the lanes
    before them."""
    lanes, width = state, 1
    while width < LANES:
        ahead = jump(lanes, width * BLOCK)
        lanes = tuple(w | a << (WIDTH * width) for w, a in zip(lanes, ahead))
        width *= 2
    return lanes


def words(packed: list[int], k: int) -> array:
    """The packed outputs of an even number of steps on k lanes, as 64-bit
    words.  Each odd step's outputs go into the padding above the step
    before, so the bytes carry no padding: word 2 * (k * p + j) + q is
    lane j's draw 2 * p + q."""
    # one join, not a frombytes per pair: the chain of reallocations that
    # grows an array piece by piece raised the benchmark's peak RSS
    raw = array("Q", b"".join([(even | odd << 64).to_bytes(WIDTH // 8 * k, "little")
                               for even, odd in zip(packed[::2], packed[1::2])]))
    if sys.byteorder != "little":
        raw.byteswap()
    return raw


def unpack(packed: list[int]) -> array:
    """The LANES * BLOCK draws of a lane block, from the packed outputs of
    its steps, as 64-bit words in pop order: the stream's last draw first."""
    raw = words(packed, LANES)
    out = raw[:]  # the right length; every word is overwritten
    for j in range(LANES):
        for q in (0, 1):
            out[j * BLOCK + q:(j + 1) * BLOCK:2] = raw[2 * j + q::2 * LANES]
    out.reverse()
    return out


def seed_state(seed: int) -> tuple[int, int, int, int]:
    """The state Xoshiro256(seed) starts from: four splitmix64 outputs."""
    check_seed(seed)
    z = seed
    state = []
    for _ in range(4):
        z = (z + GOLDEN_GAMMA) & MASK64
        state.append(mix64(z))
    if not any(state):  # all-zero state is invalid for xoshiro
        state[0] = 1
    return tuple(state)


class Xoshiro256:
    """xoshiro256** with splitmix64 state initialization.

    Every draw goes through `next_u64`, which reads a buffer of the stream
    (see the module docstring).  Integer draws use rejection below the
    largest multiple of the range, so there is no modulo bias.
    """

    __slots__ = ("_buf", "_starts", "_seg", "_lanes", "_warm")
    s0, s1, s2, s3 = map(state_word, range(4))

    def __init__(self, seed: int):
        self._restart(seed_state(seed))

    @classmethod
    def batch(cls, seeds: list[int], draws: int) -> list[Xoshiro256]:
        """Xoshiro256(seed) for each of at most LANES seeds, each with its
        next `draws` draws already buffered.  The draws come from one
        `steps` pass whose lane j is seed j's own stream, so no jump is
        needed; each generator then goes on from its lane's end state."""
        if not 0 < len(seeds) <= LANES:
            raise ValueError(f"a batch holds 1 to {LANES} seeds, got {len(seeds)}")
        if draws < 1:
            raise ValueError(f"a batch buffers at least one draw, got {draws}")
        starts = [seed_state(seed) for seed in seeds]
        packed = tuple(sum(s[w] << (WIDTH * j) for j, s in enumerate(starts)) for w in range(4))
        out, end = steps(packed, draws)
        if draws % 2:
            out.append(0)  # a padding step, dropped from every buffer below
        k = len(seeds)
        raw = words(out, k)
        gens = []
        for j, start in enumerate(starts):
            buf = raw[:len(out)]  # the right length; every word is overwritten
            buf[0::2] = raw[2 * j::2 * k]
            buf[1::2] = raw[2 * j + 1::2 * k]
            del buf[draws:]
            buf.reverse()
            g = cls.__new__(cls)
            g._restart(start)
            g._buf, g._starts, g._seg, g._warm = buf, (start, lane(end, j)), draws, draws
            gens.append(g)
        return gens

    @property
    def state(self) -> tuple[int, int, int, int]:
        """(s0, s1, s2, s3), computed once: the state after exactly the
        draws consumed."""
        return self._state()

    def _restart(self, state: tuple[int, int, int, int]) -> None:
        """Continue the stream from `state`, dropping the buffered draws."""
        self._buf = []  # the draws not yet consumed, the next one last (a list or an array)
        self._starts = (state,)  # the state before each segment of the buffer, then after it
        self._seg = 1  # draws per segment: a batch, or one lane's block
        self._lanes = None  # the packed lanes at the end of the last block
        self._warm = 0  # draws stepped one at a time since the restart

    def _state(self) -> tuple[int, int, int, int]:
        """The state after exactly the draws consumed.  A pure read: the
        buffer and the lanes stay as they are."""
        starts, seg = self._starts, self._seg
        if len(starts) == 1:  # nothing buffered since the last restart
            return starts[0]
        j, i = divmod(seg * (len(starts) - 1) - len(self._buf), seg)
        return steps(starts[j], i)[1] if i else starts[j]

    def _refill(self) -> int:
        """Buffer the next BATCH draws while warming up, else the next
        LANES * BLOCK; return the first."""
        if self._warm < WARM:
            start = self._starts[-1]
            buf, end = steps(start, BATCH)
            buf.reverse()
            self._warm += BATCH
            self._starts, self._seg = (start, end), BATCH
        else:
            # the lanes end a block (LANES - 1) * BLOCK steps before the next one starts
            lanes = spread(self._starts[-1]) if self._lanes is None else jump(self._lanes, (LANES - 1) * BLOCK)
            packed, self._lanes = steps(lanes, BLOCK)
            buf = unpack(packed)
            self._starts = (*(lane(lanes, j) for j in range(LANES)), lane(self._lanes, LANES - 1))
            self._seg = BLOCK
        self._buf = buf
        return buf.pop()

    def next_u64(self) -> int:
        try:
            return self._buf.pop()
        except IndexError:  # the buffer is empty
            return self._refill()

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
        s0, s1, s2, s3 = self._state()
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
            self._restart((s0, s1, s2, s3))

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates: the swaps and draws of fisher_yates, run
        to the end, with the draws taken from the buffer, so a generator
        that `batch` filled shuffles from its lane's draws."""
        span = MASK64 + 1
        safe = span - len(items)  # as in fisher_yates
        pop = self._buf.pop
        for i in range(len(items) - 1, 0, -1):
            n = i + 1
            while True:
                try:
                    x = pop()
                except IndexError:  # the buffer is empty
                    x = self._refill()
                    pop = self._buf.pop
                if x < safe or x < span - span % n:
                    break
            j = x % n
            items[i], items[j] = items[j], items[i]

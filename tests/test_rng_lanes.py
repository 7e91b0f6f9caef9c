"""The buffered, lane-parallel `Xoshiro256` against the one-step generator
in `rng_reference`: the same draws and the same state words at every
point of the stream, and the GF(2) jump-ahead the lanes are built on."""

from __future__ import annotations

from itertools import cycle, islice

import pytest
from hypothesis import given, settings, strategies as st

from avoidkit import rng
from avoidkit.rng import BATCH, BLOCK, CHARPOLY, LANES, MASK64, WARM, Xoshiro256
from rng_reference import ReferenceXoshiro256

REFILL = LANES * BLOCK  # draws per lane refill
PAST_THREE_BLOCKS = WARM + 3 * REFILL + 1

seeds = st.integers(min_value=0, max_value=MASK64)
words = st.integers(min_value=0, max_value=MASK64)


def state(g) -> tuple[int, int, int, int]:
    return g.s0, g.s1, g.s2, g.s3


def reference_steps(s: tuple[int, int, int, int], k: int) -> tuple[int, int, int, int]:
    ref = ReferenceXoshiro256(0)
    ref.s0, ref.s1, ref.s2, ref.s3 = s
    for _ in range(k):
        ref.next_u64()
    return ref.state


# (kind, argument) pairs; every operation makes at least one draw
operations = st.lists(
    st.one_of(
        st.tuples(st.just("next_u64"), st.none()),
        st.tuples(st.just("randrange"), st.integers(min_value=1, max_value=2**64)),
        st.tuples(st.just("randrange"), st.sampled_from([1, 2, 3, 2**32, 2**63 + 1, 2**64 - 1, 2**64])),
        st.tuples(st.just("choice"), st.lists(st.integers(), min_size=1, max_size=5)),
        st.tuples(st.just("coin"), st.none()),
    ),
    min_size=1, max_size=12,
)


def run(g, kind: str, arg):
    if kind == "next_u64":
        return g.next_u64()
    if kind == "randrange":
        return g.randrange(arg)
    if kind == "choice":
        return g.choice(arg)
    return g.coin()


def run_reference(ref: ReferenceXoshiro256, kind: str, arg):
    if kind == "choice":
        return arg[ref.randrange(len(arg))]
    if kind == "coin":
        return bool(ref.next_u64() >> 63)
    return run(ref, kind, arg)


@settings(max_examples=25, deadline=None)
@given(seeds, operations)
def test_interleaved_draws_match_the_reference_past_three_lane_blocks(seed, ops):
    g, ref = Xoshiro256(seed), ReferenceXoshiro256(seed)
    for kind, arg in islice(cycle(ops), PAST_THREE_BLOCKS):
        assert run(g, kind, arg) == run_reference(ref, kind, arg)
    assert state(g) == ref.state


# offsets: inside the warm-up, at a batch edge, at the warm-up's end, inside
# a lane block, at a lane's edge inside a block and at a block's edge
offsets = st.one_of(
    st.integers(min_value=0, max_value=WARM + 2 * REFILL),
    st.sampled_from([BATCH, WARM - 1, WARM, WARM + 1, WARM + BLOCK, WARM + REFILL - 1,
                     WARM + REFILL, WARM + REFILL + 1, WARM + 2 * REFILL]),
)


@settings(max_examples=40, deadline=None)
@given(seeds, offsets, st.integers(min_value=1, max_value=REFILL + 100))
def test_state_words_read_mid_stream_are_exact_and_the_stream_goes_on(seed, offset, more):
    g, ref = Xoshiro256(seed), ReferenceXoshiro256(seed)
    for _ in range(offset):
        g.next_u64()
        ref.next_u64()
    assert state(g) == ref.state
    assert state(g) == ref.state  # a second read changes nothing
    assert [g.next_u64() for _ in range(more)] == [ref.next_u64() for _ in range(more)]
    assert state(g) == ref.state


def test_reading_the_state_words_keeps_the_buffer_and_the_lanes():
    """A read is pure: past the warm-up it leaves the lane block's buffered
    draws and the packed lanes in place, and the stream goes on from them."""
    g, ref = Xoshiro256(11), ReferenceXoshiro256(11)
    for _ in range(WARM + 100):
        g.next_u64()
        ref.next_u64()
    buf, lanes = g._buf, g._lanes
    assert lanes is not None and len(buf) == REFILL - 100
    assert state(g) == ref.state
    assert g._buf is buf and len(buf) == REFILL - 100 and g._lanes is lanes
    more = REFILL + 1
    assert [g.next_u64() for _ in range(more)] == [ref.next_u64() for _ in range(more)]
    assert state(g) == ref.state


@settings(max_examples=40, deadline=None)
@given(seeds, offsets, st.integers(min_value=0, max_value=3), words)
def test_a_word_assigned_mid_buffer_restarts_the_stream_there(seed, offset, i, value):
    g, ref = Xoshiro256(seed), ReferenceXoshiro256(seed)
    for _ in range(offset):
        g.next_u64()
        ref.next_u64()
    setattr(g, f"s{i}", value)
    setattr(ref, f"s{i}", value)
    assert state(g) == ref.state
    more = WARM + REFILL + 1
    assert [g.next_u64() for _ in range(more)] == [ref.next_u64() for _ in range(more)]


@pytest.mark.parametrize("value", [-1, MASK64 + 1])
def test_a_word_outside_64_bits_is_refused(value):
    g = Xoshiro256(3)
    before = state(g)
    with pytest.raises(ValueError, match="must fit in 64 unsigned bits"):
        g.s2 = value
    assert state(g) == before


def reference_shuffle(ref: ReferenceXoshiro256, items: list) -> None:
    for i in range(len(items) - 1, 0, -1):
        j = ref.randrange(i + 1)
        items[i], items[j] = items[j], items[i]


@settings(max_examples=20, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=300), st.data())
def test_shuffles_after_5000_buffered_draws_match_the_reference(seed, length, data):
    g, ref = Xoshiro256(seed), ReferenceXoshiro256(seed)
    for _ in range(5000):
        assert g.next_u64() == ref.next_u64()
    items, ref_items = list(range(length)), list(range(length))
    g.shuffle(items)
    reference_shuffle(ref, ref_items)
    assert items == ref_items and state(g) == ref.state
    assert g.next_u64() == ref.next_u64()

    # a shuffle stopped early leaves the state after exactly its draws
    for _ in range(5000):
        assert g.next_u64() == ref.next_u64()
    k = data.draw(st.integers(min_value=0, max_value=length))
    items = list(range(length))
    shuffled = g.fisher_yates(items)
    yielded = list(islice(shuffled, k))
    shuffled.close()
    for i in yielded:
        if i:
            ref.randrange(i + 1)
    assert state(g) == ref.state
    assert [g.next_u64() for _ in range(100)] == [ref.next_u64() for _ in range(100)]


def berlekamp_massey(bits: list[int]) -> int:
    """The shortest linear recurrence of a GF(2) sequence, as its connection
    polynomial C (bit i the coefficient of x^i, C(0) = 1)."""
    c, b, length, m = 1, 1, 0, 1
    for n, bit in enumerate(bits):
        d = bit
        for i in range(1, length + 1):
            d ^= (c >> i) & bits[n - i]
        if not d:
            m += 1
        elif 2 * length <= n:
            c, b, length, m = c ^ (b << m), c, n + 1 - length, 1
        else:
            c ^= b << m
            m += 1
    return c


def test_charpoly_is_rederived_from_one_state_bit():
    ref = ReferenceXoshiro256(1)
    bits = []
    for _ in range(512):
        bits.append(ref.s0 & 1)
        ref.next_u64()
    c = berlekamp_massey(bits)
    degree = 256
    assert c.bit_length() - 1 <= degree
    # the characteristic polynomial is C's reverse over the recurrence's length
    p = int(f"{c:0{degree + 1}b}"[::-1], 2)
    assert p.bit_length() - 1 == degree
    assert p == CHARPOLY
    assert bin(CHARPOLY).count("1") == 115


TOP_BITS = 0xC000_0000_0000_0000
start_states = st.tuples(words, words, words, words).map(lambda s: tuple(w | TOP_BITS for w in s))


def test_jump_equals_single_steps():
    s = (0x0123456789ABCDEF | TOP_BITS, 0xFEDCBA9876543210, MASK64, 1)
    stepped = s
    for k in range(601):
        assert rng.jump(s, k) == stepped
        stepped = reference_steps(stepped, 1)
    for k in (BLOCK, 2 * BLOCK, 4 * BLOCK, (LANES - 1) * BLOCK):
        assert rng.jump(s, k) == reference_steps(s, k)


@settings(max_examples=5, deadline=None)
@given(start_states)
def test_one_lane_block_equals_4096_single_steps(s):
    """Words with their top bits set: rotl(x, 7) moves them into the padding
    below each lane, where an unmasked * 9 carried them into the lane below."""
    lanes = rng.spread(s)
    for j in range(LANES):
        assert rng.lane(lanes, j) == reference_steps(s, j * BLOCK)
    packed, end = rng.steps(lanes, BLOCK)
    ref = ReferenceXoshiro256(0)
    ref.s0, ref.s1, ref.s2, ref.s3 = s
    want = [ref.next_u64() for _ in range(REFILL)]
    assert list(reversed(rng.unpack(packed))) == want
    assert rng.lane(end, LANES - 1) == ref.state
    assert rng.jump(end, (LANES - 1) * BLOCK) == rng.spread(ref.state)

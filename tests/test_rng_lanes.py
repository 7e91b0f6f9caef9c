"""The buffered, lane-parallel `Xoshiro256` against the one-step generator
in `rng_reference`: the same draws, and so the same state, at every point
of the stream, and the GF(2) jump-ahead the lanes are built on."""

from __future__ import annotations

from itertools import cycle, islice

import pytest
from hypothesis import given, settings, strategies as st

from avoidkit import rng
from avoidkit.rng import BATCH, BLOCK, CHARPOLY, LANES, MASK64, WARM, Xoshiro256
from rng_reference import ReferenceXoshiro256, next_draws, reference_at

REFILL = LANES * BLOCK  # draws per lane refill
PAST_THREE_BLOCKS = WARM + 3 * REFILL + 1

seeds = st.integers(min_value=0, max_value=MASK64)
words = st.integers(min_value=0, max_value=MASK64)


def reference_steps(s: tuple[int, int, int, int], k: int) -> tuple[int, int, int, int]:
    ref = reference_at(s)
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
    assert next_draws(g) == next_draws(ref)


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
    """The state words are read through the next four draws, which fix them."""
    g, ref = Xoshiro256(seed), ReferenceXoshiro256(seed)
    for _ in range(offset):
        g.next_u64()
        ref.next_u64()
    assert next_draws(g) == next_draws(ref)
    assert next_draws(g, more) == next_draws(ref, more)
    assert next_draws(g) == next_draws(ref)


@settings(max_examples=20, deadline=None)
@given(st.lists(seeds, min_size=1, max_size=LANES), offsets, st.integers(min_value=1, max_value=WARM + 100))
def test_state_is_the_four_words_mid_lane_and_after_a_batch_fill(batch_seeds, offset, draws):
    """The state is read through the next four draws, which fix it."""
    g, ref = Xoshiro256(batch_seeds[0]), ReferenceXoshiro256(batch_seeds[0])
    assert next_draws(g, offset) == next_draws(ref, offset)
    assert next_draws(g) == next_draws(ref)
    # read at the fill, inside the buffered draws, at their end and past it
    for upto in (0, draws // 2, draws, draws + 1):
        for seed, g in zip(batch_seeds, Xoshiro256.batch(batch_seeds, draws)):
            ref = ReferenceXoshiro256(seed)
            assert next_draws(g, upto) == next_draws(ref, upto)
            assert next_draws(g) == next_draws(ref)


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
    assert items == ref_items
    assert next_draws(g, 100) == next_draws(ref, 100)

    # fisher_yates stopped early makes the swaps of the reference's draws
    # and leaves the stream just past them
    for _ in range(5000):
        assert g.next_u64() == ref.next_u64()
    k = data.draw(st.integers(min_value=0, max_value=length))
    items, ref_items = list(range(length)), list(range(length))
    for i in islice(g.fisher_yates(items), k):
        if i:
            j = ref.randrange(i + 1)
            ref_items[i], ref_items[j] = ref_items[j], ref_items[i]
    assert items == ref_items
    assert next_draws(g, 100) == next_draws(ref, 100)


def test_four_draws_fix_the_state():
    """A draw rotl(5·s1, 7)·9 is a bijection of s1, and the GF(2)-linear
    map from a state to the s1 words of it and the next three states has
    rank 256, so generators whose next four draws agree are in one state."""
    pivots = {}  # leading bit -> image, a row-echelon basis of the images
    for k in range(256):
        state = tuple(1 << (k % 64) if w == k // 64 else 0 for w in range(4))
        image = 0
        for i in range(4):
            image |= state[1] << (64 * i)
            state = rng.steps(state, 1)[1]
        while image and image.bit_length() - 1 in pivots:
            image ^= pivots[image.bit_length() - 1]
        assert image, f"unit state {k} maps into the span of the ones before it"
        pivots[image.bit_length() - 1] = image


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
    ref = reference_at(s)
    want = [ref.next_u64() for _ in range(REFILL)]
    assert list(reversed(rng.unpack(packed))) == want
    assert rng.lane(end, LANES - 1) == ref.state
    assert rng.jump(end, (LANES - 1) * BLOCK) == rng.spread(ref.state)

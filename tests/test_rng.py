from __future__ import annotations

from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, strategies as st

from avoidkit.couplers import simulate
from avoidkit.generate import petersen
from avoidkit.rng import FAST_ACCEPT, GOLDEN_GAMMA, MASK64, Xoshiro256, check_seed, derive_seed, mix64, seed_state
from rng_reference import ReferenceXoshiro256, next_draws, reference_at

# Reference outputs of splitmix64 with seed 0 (the widely published test
# vector); output i equals mix64((i+1) * golden gamma).
SPLITMIX64_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
]


def test_mix64_matches_splitmix64_vector():
    for i, want in enumerate(SPLITMIX64_SEED0):
        assert mix64(((i + 1) * GOLDEN_GAMMA) & MASK64) == want


def test_seeding_is_the_splitmix64_stream():
    assert seed_state(0) == tuple(SPLITMIX64_SEED0)
    assert next_draws(Xoshiro256(0)) == next_draws(reference_at(tuple(SPLITMIX64_SEED0)))


def generator_at(state: tuple[int, int, int, int]) -> Xoshiro256:
    """A Xoshiro256 whose next draw steps from `state`."""
    rng = Xoshiro256(0)
    rng._restart(state)
    return rng


def test_xoshiro_reference_sequence():
    # xoshiro256** from state (1, 2, 3, 4): first output is
    # rotl(2*5, 7)*9 = 11520; the next two follow from the update rule.
    rng = generator_at((1, 2, 3, 4))
    assert [rng.next_u64() for _ in range(3)] == [11520, 0, 1509978240]


def test_same_seed_same_stream():
    a, b = Xoshiro256(42), Xoshiro256(42)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_randrange_rejects_nonpositive():
    with pytest.raises(ValueError):
        Xoshiro256(0).randrange(0)


@given(st.integers(min_value=0, max_value=MASK64), st.integers(min_value=1, max_value=1000))
def test_randrange_in_bounds(seed, n):
    rng = Xoshiro256(seed)
    for _ in range(5):
        assert 0 <= rng.randrange(n) < n


@given(st.integers(min_value=0, max_value=MASK64), st.lists(st.integers(), max_size=30))
def test_shuffle_is_a_permutation(seed, items):
    shuffled = list(items)
    Xoshiro256(seed).shuffle(shuffled)
    assert Counter(shuffled) == Counter(items)


@given(st.integers(min_value=0, max_value=MASK64), st.integers(min_value=0, max_value=60), st.data())
def test_fisher_yates_stopped_early(seed, length, data):
    k = data.draw(st.integers(min_value=0, max_value=length))
    rng, items = Xoshiro256(seed), list(range(length))
    shuffled = rng.fisher_yates(items)
    yielded = list(islice(shuffled, k))
    shuffled.close()

    ref, ref_items = ReferenceXoshiro256(seed), list(range(length))
    for i in yielded:
        if i:
            j = ref.randrange(i + 1)
            ref_items[i], ref_items[j] = ref_items[j], ref_items[i]
    assert yielded == [*range(length - 1, 0, -1), 0][:k]
    assert items == ref_items
    # the generator is just past the draws of the swaps made
    assert next_draws(rng) == next_draws(ref)
    # run to the end, it makes the swaps of `shuffle`
    whole, ref_whole = list(range(length)), list(range(length))
    assert list(Xoshiro256(seed).fisher_yates(whole)) == [*range(length - 1, 0, -1), 0][:length]
    Xoshiro256(seed).shuffle(ref_whole)
    assert whole == ref_whole


def with_first_draw(seed: int, draw: int) -> tuple[int, int, int, int]:
    """seed_state(seed) with s1 set so that its next output is `draw`
    (the output rotl(5·s1, 7)·9 depends on s1 alone)."""
    s0, _, s2, s3 = seed_state(seed)
    x = draw * pow(9, -1, MASK64 + 1) & MASK64
    return s0, ((x >> 7) | (x << 57)) * pow(5, -1, MASK64 + 1) & MASK64, s2, s3


@pytest.mark.parametrize("length", [2, 3, 4, 5, 6, 7, 12])
@pytest.mark.parametrize("back", [1, 2, 3, 5, 7, 11])
def test_fisher_yates_near_the_rejection_limit(length, back):
    # first draws in [2^64 - 12, 2^64): at or above the shuffles' shortcut
    # bound 2^64 - len, where the exact limit 2^64 - 2^64 % n decides; some
    # are rejected (e.g. 2^64 - 1 for n = 3), the rest are kept
    first = MASK64 + 1 - back
    for seed in range(3):
        start = with_first_draw(seed, first)
        assert generator_at(start).next_u64() == first
        rng, ref = generator_at(start), reference_at(start)
        items, ref_items, stepped = list(range(length)), list(range(length)), list(range(length))
        rng.shuffle(items)
        for i in range(length - 1, 0, -1):
            j = ref.randrange(i + 1)
            ref_items[i], ref_items[j] = ref_items[j], ref_items[i]
        assert items == ref_items
        assert next_draws(rng) == next_draws(ref)
        rng, shuffled = generator_at(start), generator_at(start)
        assert list(rng.fisher_yates(stepped)) == [*range(length - 1, 0, -1), 0]
        assert stepped == ref_items
        shuffled.shuffle(list(range(length)))
        assert next_draws(rng) == next_draws(shuffled)


def exact_randrange(rng, n: int) -> int:
    """The reference rule: reject each draw at or above 2^64 - 2^64 % n."""
    limit = (MASK64 + 1) - (MASK64 + 1) % n
    while True:
        x = rng.next_u64()
        if x < limit:
            return x % n


@pytest.mark.parametrize("n", [3, 48, (1 << 32) - 1, 1 << 32, (1 << 32) + 1])
def test_randrange_at_the_fast_bound(n):
    # first draws just below the fast bound 2^64 - 2^32, at it, between it
    # and the exact limit, at the limit and at 2^64 - 1; a draw at or above
    # the limit is rejected and the next one decides
    fast, limit = FAST_ACCEPT, (MASK64 + 1) - (MASK64 + 1) % n
    firsts = {fast - 2, fast - 1, fast, (fast + limit) // 2, limit - 1, min(limit, MASK64), MASK64}
    rejected = 0
    for first in sorted(firsts):
        for seed in range(3):
            start = with_first_draw(seed, first)
            rng, ref = generator_at(start), reference_at(start)
            assert rng.randrange(n) == exact_randrange(ref, n)
            assert next_draws(rng) == next_draws(ref)
            rejected += first >= limit
    assert (rejected > 0) == (n != 1 << 32)  # 2^32 divides 2^64: nothing is rejected


class ScriptedXoshiro(Xoshiro256):
    """A generator whose draws are a given list, first first: a subclass
    that overrides `next_u64`, as perfbench's counting generator does."""

    def __init__(self, draws):
        super().__init__(0)
        self.script = list(reversed(draws))

    def next_u64(self) -> int:
        return self.script.pop()


PAIR_RANGES = [1, 2, 3, 48, (1 << 32) - 1, 1 << 32, (1 << 32) + 1, (1 << 63) + 1, 1 << 64]


def special_draws(n: int) -> list[int]:
    """Draws around the fast bound and the exact limit of range n."""
    limit = (MASK64 + 1) - (MASK64 + 1) % n
    return [0, 7, FAST_ACCEPT - 1, FAST_ACCEPT, FAST_ACCEPT + 5, limit - 1, min(limit, MASK64), MASK64]


@given(st.sampled_from(PAIR_RANGES), st.sampled_from(PAIR_RANGES), st.data())
def test_randrange_pair_is_two_randranges(m, n, data):
    """Draw for draw, rejected draws included: the same pair of values, and
    the same draws left, as randrange(m) then randrange(n), both through the
    overridden `next_u64`."""
    pool = st.sampled_from(special_draws(m) + special_draws(n)) | st.integers(min_value=0, max_value=MASK64)
    draws = data.draw(st.lists(pool, min_size=2, max_size=8)) + [0, 1]  # room for every rejection
    rng, ref = ScriptedXoshiro(draws), ScriptedXoshiro(draws)
    assert rng.randrange_pair(m, n) == (ref.randrange(m), ref.randrange(n))
    assert rng.script == ref.script


def test_randrange_pair_rejects_what_randrange_rejects():
    for m, n in ((0, 3), (3, 0), (-1, 3), (3, 2**64 + 1), (2**64 + 1, 3)):
        with pytest.raises(ValueError, match="randrange requires"):
            Xoshiro256(6).randrange_pair(m, n)


@pytest.mark.parametrize("n", [0, -1])
def test_randrange_rejects_nonpositive_before_drawing(n):
    rng, ref = Xoshiro256(4), Xoshiro256(4)
    with pytest.raises(ValueError):
        rng.randrange(n)
    assert next_draws(rng) == next_draws(ref)


def test_randrange_above_2_64_raises_and_2_64_draws():
    # above 2^64 the exact limit 2^64 - 2^64 % n is 0, so no draw could be accepted
    with pytest.raises(ValueError, match=str(2**64 + 1)):
        Xoshiro256(5).randrange(2**64 + 1)
    rng, ref = Xoshiro256(5), Xoshiro256(5)
    assert rng.randrange(2**64) == ref.next_u64()


@pytest.mark.parametrize("seed", [-1, 2**64, True, False, 1.0, "3"])
def test_seed_outside_64_bits_raises(seed):
    """-1 is not reduced to 2^64 - 1, and a bool, a float or a str is no
    seed: every generator's seed is checked."""
    for make in (check_seed, Xoshiro256, lambda s: derive_seed(s, 0)):
        with pytest.raises(ValueError, match=f"seed must fit in 64 unsigned bits, got {seed}"):
            make(seed)


@pytest.mark.parametrize("seed", [True, 1.0])
def test_simulate_refuses_a_seed_that_is_not_an_int(seed):
    """True would be written as `# seed True`, which no reader takes back."""
    with pytest.raises(ValueError, match=f"seed must fit in 64 unsigned bits, got {seed}"):
        simulate(petersen(), "cubic", 2, seed)


def test_derive_seed_distinct_replicas():
    seeds = {derive_seed(7, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_coin_is_roughly_fair():
    rng = Xoshiro256(5)
    heads = sum(rng.coin() for _ in range(10_000))
    assert 4700 < heads < 5300

"""`configuration_models`, which steps the generators of up to eight seeds
at once, against the one-seed-at-a-time configuration model kept in
`configuration_reference`: the same graph and the same next draws (so the
same generator state) after the shuffle, for every seed of every batch,
also where a draw is rejected inside or past the stretch of draws a batch
buffers.  `random_regular_simple`, whose attempts run on the same batches
and stop early, against whole one-step reference pairings likewise."""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from avoidkit import rng
from avoidkit.generate import configuration_models, random_regular_simple
from avoidkit.graphs import is_connected
from avoidkit.rng import LANES, MASK64, WARM, Xoshiro256, steps
from configuration_reference import reference_configuration_model
from rng_reference import next_draws, reference_at

seeds = st.integers(min_value=0, max_value=MASK64)
# draws in [2^64 - 12, 2^64): at or above the exact rejection limit of
# every n below 13 that is not a power of two (2^64 - 1 of every such n)
top_draws = st.integers(min_value=MASK64 - 11, max_value=MASK64)


def s1_for(draw: int) -> int:
    """The s1 whose next output rotl(5·s1, 7)·9 is `draw`."""
    x = draw * pow(9, -1, MASK64 + 1) & MASK64
    return ((x >> 7) | (x << 57)) * pow(5, -1, MASK64 + 1) & MASK64


def forced(start: tuple[int, int, int, int], draws: dict[int, int]) -> tuple[int, int, int, int]:
    """A state whose output at each position p of `draws` is draws[p]:
    `start` XOR the combination of unit states that the GF(2)-linear step
    map sends onto the wanted s1 words, by Gaussian elimination."""
    positions = tuple(sorted(draws))
    basis = s1_basis(positions)
    want = sum(s1_for(draws[p]) << (64 * i) for i, p in enumerate(positions))
    target, combo = want ^ s1_words(start, positions), 0
    while target:
        b_image, b_combo = basis[target.bit_length() - 1]
        target, combo = target ^ b_image, combo ^ b_combo
    state = tuple(w ^ ((combo >> (64 * i)) & MASK64) for i, w in enumerate(start))
    assert s1_words(state, positions) == want
    return state


def s1_words(state, positions: tuple[int, ...]) -> int:
    """s1 before the draw at each of the sorted `positions`, concatenated."""
    words, t = 0, 0
    for i, p in enumerate(positions):
        state = steps(state, p - t)[1]
        t = p
        words |= state[1] << (64 * i)
    return words


@lru_cache(maxsize=None)
def s1_basis(positions: tuple[int, ...]) -> dict[int, tuple[int, int]]:
    """Leading bit -> (image, combination of unit states), the images
    `s1_words` of unit states reduced to an echelon basis."""
    def unit(k: int) -> tuple[int, ...]:
        return tuple(1 << (k % 64) if w == k // 64 else 0 for w in range(4))

    basis = {}
    for k in range(256):
        image, combo = s1_words(unit(k), positions), 1 << k
        while image and image.bit_length() - 1 in basis:
            b_image, b_combo = basis[image.bit_length() - 1]
            image, combo = image ^ b_image, combo ^ b_combo
        if image:
            basis[image.bit_length() - 1] = (image, combo)
    return basis


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 7, 8, 9, 19]), st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=5), st.data())
def test_batches_equal_the_one_seed_reference(length, n, d, data):
    if n * d % 2:
        n += 1
    stubs = n * d
    batch_seeds = data.draw(st.lists(seeds, min_size=length, max_size=length))
    # per seed, draws forced at the lane's first draw and at its last
    # buffered one (draw stubs - 2): a rejection at the first pushes the
    # shuffle past the buffer, and then the last buffered draw serves
    # n = 3, where 2^64 - 1 is rejected too
    seeded = {s: rng.seed_state(s) for s in batch_seeds}
    for s in batch_seeds:
        chosen = data.draw(st.dictionaries(st.sampled_from(sorted({0, stubs - 2})), top_draws, max_size=2))
        if chosen:
            seeded[s] = forced(seeded[s], chosen)
    made = []
    batch = Xoshiro256.batch.__func__

    def recording_batch(cls, seeds_, draws):
        gens = batch(cls, seeds_, draws)
        made.extend(gens)
        return gens

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng, "seed_state", seeded.__getitem__)
        mp.setattr(Xoshiro256, "batch", classmethod(recording_batch))
        graphs = configuration_models(n, d, batch_seeds)
        references = [reference_configuration_model(n, d, s) for s in batch_seeds]
    assert len(graphs) == len(made) == length
    assert [g.edges for g in graphs] == [g.edges for g, _ in references]
    assert [next_draws(g) for g in made] == [next_draws(ref) for _, ref in references]


def test_a_rejected_first_draw_moves_the_shuffle_past_the_buffer():
    """n·d = 6: 2^64 - 1 as a lane's first draw is rejected (2^64 % 6 = 4),
    so its shuffle draws once past the five it has buffered."""
    start = rng.seed_state(3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng, "seed_state", {3: forced(start, {0: MASK64}), 4: start}.__getitem__)
        gens = Xoshiro256.batch([3, 4], 5)
        assert gens[0].next_u64() == MASK64
        got = configuration_models(3, 2, [3, 4])
        want = [reference_configuration_model(3, 2, s) for s in (3, 4)]
    assert [g.edges for g in got] == [g.edges for g, _ in want]
    assert want[0][1].state == steps(forced(start, {0: MASK64}), 6)[1]


def reference_random_regular_simple(n: int, d: int, seed: int, connected_required: bool):
    """(graph, rejections): whole one-step reference pairings of the outer
    generator's draws until one is simple (and connected, if asked)."""
    outer = reference_at(rng.seed_state(seed))
    rejections = 0
    while True:
        mg, _ = reference_configuration_model(n, d, outer.next_u64())
        if mg.is_simple():
            g = mg.simple_support()
            if not connected_required or is_connected(g):
                return g, rejections
        rejections += 1


def test_random_regular_simple_with_rejected_draws_equals_the_reference():
    """Attempts 0, 1 and 9 (9 is in the second batch of attempt seeds) get
    2^64 - 1 forced at their first draw and at their last buffered one
    (draw n·d - 2, or WARM - 1 where a batch buffers only the warm-up).
    n·d is no power of two, so the first is rejected and the shuffle moves
    on by one draw; then the last buffered draw serves i = 2 (i = 53 at
    n·d = 2,100), where 2^64 - 1 is rejected too, and the shuffle draws
    past the buffer."""
    real = rng.seed_state
    forced_accepted = set()
    small = range(4)
    # at seeds 5 and 16 of (700, 3) forced attempts 0 and 9 are accepted
    for n, d, connected, outer_seeds in ((3, 2, False, small), (4, 3, False, small), (6, 2, True, small),
                                         (8, 3, True, small), (700, 3, False, (5, 16))):
        last = min(n * d - 1, WARM) - 1
        for seed in outer_seeds:
            outer = Xoshiro256(seed)
            attempt_seeds = [outer.next_u64() for _ in range(10)]
            chosen = (attempt_seeds[0], attempt_seeds[1], attempt_seeds[9])
            seeded = {s: forced(real(s), {0: MASK64, last: MASK64}) for s in chosen}
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(rng, "seed_state", lambda s: seeded[s] if s in seeded else real(s))
                got = random_regular_simple(n, d, seed, connected_required=connected)
                want = reference_random_regular_simple(n, d, seed, connected)
            assert got == want, (n, d, seed)
            if got[1] in (0, 1, 9):
                forced_accepted.add(n * d > WARM)
    # some forced attempt shuffled past its buffer to the end, also past a warm-up
    assert forced_accepted == {False, True}


def test_no_seeds_give_no_graphs():
    assert configuration_models(16, 3, []) == []


@pytest.mark.parametrize("size,draws", [(0, 5), (LANES + 1, 5), (2, 0)])
def test_batch_bounds(size, draws):
    with pytest.raises(ValueError, match="a batch"):
        Xoshiro256.batch(list(range(size)), draws)

"""The chunked trajectory writer and reader against the line-at-a-time
references in `trajectory_reference`: the same bytes, the same
`Trajectory` and the same first error, with chunks small enough that every
boundary falls between two lines, and in bounded memory."""

from __future__ import annotations

import gc
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from avoidkit import couplers
from avoidkit.couplers import Trajectory, parse_trajectory, simulate
from avoidkit.generate import cycle, petersen, random_regular_simple
from trajectory_reference import reference_parse_trajectory, reference_to_text

CHUNKS = (1, 7)  # ticks per written piece and characters per read slice


def small_chunks(size: int):
    return mock.patch.multiple(couplers, TEXT_CHUNK_TICKS=size, PARSE_CHUNK_CHARS=size)


@st.composite
def trajectories(draw) -> Trajectory:
    """1-5 walkers for cycle and 2 for the others, over a few states so a
    chunk meets some twice; marks on every tick, or partial, duplicate,
    negative and past the end."""
    engine = draw(st.sampled_from(["cycle", "cubic", "regular", "squarefree"]))
    k = draw(st.integers(1, 5)) if engine == "cycle" else 2
    states = draw(st.lists(st.tuples(*[st.integers(-2, 30)] * k), min_size=1, max_size=6))
    pos = draw(st.lists(st.sampled_from(states), max_size=30))
    n = len(pos)
    marks = draw(st.one_of(st.just(list(range(n))), st.lists(st.integers(-3, n + 3), max_size=12)))
    digest = draw(st.text("0123456789abcdef", min_size=1, max_size=16))
    return Trajectory(engine, draw(st.integers(0, 2**64 - 1)), digest, pos, marks)


@pytest.mark.parametrize("size", CHUNKS)
@settings(max_examples=150, derandomize=True, deadline=None)
@given(traj=trajectories())
def test_to_text_is_the_reference_text(size, traj):
    marks = traj.block_marks
    increasing = all(x < y for x, y in zip(marks, marks[1:]))
    if not increasing or marks and not 0 <= min(marks) <= max(marks) < len(traj.positions):
        # the reference drops, merges or sorts such marks; the writer refuses them, as the reader does
        with pytest.raises(ValueError, match="block marks (.* outside ticks|not strictly increasing)"):
            next(traj.text_chunks())
        return
    with small_chunks(size):
        pieces = list(traj.text_chunks())
        assert "".join(pieces) == traj.to_text() == reference_to_text(traj)
    assert len(pieces) == 1 + -(-len(traj.positions) // size)  # the header, then `size` ticks a piece


def test_to_text_of_no_walkers_and_of_mixed_walker_counts():
    bare = Trajectory("cycle", 7, "x", [(), ()], [1])
    assert bare.to_text() == reference_to_text(bare) == "# graph-digest x\n# seed 7\n# engine cycle\n0\n1\n# block 1\n"
    mixed = Trajectory("cycle", 7, "x", [(0, 2), (1, 3, 5)])
    for write in (mixed.to_text, lambda: reference_to_text(mixed)):
        with pytest.raises(ValueError, match="different walker counts"):
            write()


def test_a_mark_past_the_last_tick_is_refused_not_dropped():
    """Dropping the mark at 5 would write a file that verifies clean for a
    trajectory whose own check raises."""
    traj = Trajectory("cubic", 1, "x", [(0, 2), (1, 7), (5, 8)], [0, 2, 5])
    with pytest.raises(ValueError, match=r"block marks 0\.\.5 outside ticks 0\.\.2"):
        traj.to_text()


ENDS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", " ")

REWRITES = {  # each gives the line that replaces the one drawn
    "tabs": lambda line: line.replace(" ", "\t"),
    "double-space": lambda line: line.replace(" ", "  ", 1),
    "padded": lambda line: f" {line}\t",
    "bad-int": lambda line: line + "x",
    "extra-walker": lambda line: line + " 9",
    "lost-walker": lambda line: line.rpartition(" ")[0],
    "zero-padded": lambda line: "0" + line,
}
INSERTS = ("", " \t ", "# note 1 2", "#x", "# seedling", "#", "# block")  # blank, unknown-key and malformed lines


@st.composite
def mutated_texts(draw) -> str:
    """A trajectory's reference text with up to three edits (a line
    rewritten, dropped, repeated, or a line or mark inserted), each line
    ended by any line break `str.splitlines` knows, or by a space."""
    lines = reference_to_text(draw(trajectories())).splitlines()
    for _ in range(draw(st.integers(0, 3))):  # the header's three lines outlast three drops
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["gap", "repeat", "insert", "mark", *REWRITES]))
        if edit == "gap":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "insert":
            lines.insert(i, draw(st.sampled_from(INSERTS)))
        elif edit == "mark":
            lines.insert(i, f"# block {draw(st.integers(-2, 40))}")
        else:
            lines[i] = REWRITES[edit](lines[i])
    ends = draw(st.lists(st.sampled_from(ENDS), min_size=len(lines), max_size=len(lines)))
    return "".join(map(str.__add__, lines, ends))


def outcome(parse, text: str):
    """The trajectory `parse` reads, or the message of the ValueError it raises."""
    try:
        return parse(text)
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("size", CHUNKS)
@settings(max_examples=400, derandomize=True, deadline=None)
@given(text=mutated_texts())
def test_parse_matches_the_reference(size, text):
    with small_chunks(size):
        assert outcome(parse_trajectory, text) == outcome(reference_parse_trajectory, text)


@pytest.mark.parametrize("size", CHUNKS)
@pytest.mark.parametrize("text", [
    "# graph-digest x\r\n# seed 0\r\n# engine cubic\r\n0 1 2\r\n# block 0\r\n1 3 4\r\n# block 1\r\n",
    "# graph-digest x\n# seed 0\n# engine cubic\n0 1 2\r\n\n1 3 4\n",
    "# graph-digest x\n# seed 0\n# engine cubic\n0 1 2\r\r\n1 3 4\x85# block 1\u2028",
    "# graph-digest x\n# seed 0\n# engine cubic\n0  1 2\n1 3 4 \n2\t5 6\n3 5 x\n",
], ids=["crlf", "crlf-then-blank", "mixed-breaks", "odd-spacing"])
def test_parse_matches_the_reference_at_every_cut(size, text):
    with small_chunks(size):
        assert outcome(parse_trajectory, text) == outcome(reference_parse_trajectory, text)


@pytest.mark.parametrize("size", CHUNKS)
def test_engine_texts_match_the_reference(size, pet, circ9, hea, s3b_host, s6_host):
    """Engine runs, with marks on every tick (Petersen, Heawood), on some
    ticks (the S3b and S6 hosts' multi-tick blocks) and on none."""
    runs = [(pet, "cubic", {}), (hea, "squarefree", {}), (circ9, "regular", {}),
            (s3b_host, "cubic", {}), (s6_host, "cubic", {}), (cycle(10), "cycle", {"walkers": 5})]
    for g, engine, extra in runs:
        traj, _ = simulate(g, engine, 60, 5, **extra)
        with small_chunks(size):
            text = traj.to_text()
            assert text == reference_to_text(traj)
            assert parse_trajectory(text) == reference_parse_trajectory(text) == traj


def traced_peak(step) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_text_io_of_20000_petersen_ticks_stays_below_2_mib():
    """The line-at-a-time writer and reader peaked at 3.76 and 3.47 MiB on
    this run's 0.44 MiB text; in chunks they stay below 2 MiB."""
    traj, _ = simulate(petersen(), "cubic", 20_000, 3)
    text = traj.to_text()
    assert traced_peak(traj.to_text) < 2 * 2**20
    assert traced_peak(lambda: parse_trajectory(text)) < 2 * 2**20


def test_a_200000_tick_cycle_run_and_its_parse_keep_one_positions_list():
    """A C10 run with 5 walkers shares its 10 states, so each step's peak is
    about its positions list (1.6 MiB).  A `Trajectory` that copied that
    list into a tuple peaked at 3.14 MiB in `simulate` and 3.12 MiB in
    `parse_trajectory`."""
    g = cycle(10)
    assert traced_peak(lambda: simulate(g, "cycle", 200_000, 1, walkers=5)) < 2.5 * 2**20
    traj, _ = simulate(g, "cycle", 200_000, 1, walkers=5)
    text = traj.to_text()
    del traj
    assert traced_peak(lambda: parse_trajectory(text)) < 2.5 * 2**20


def test_parse_of_20000_mostly_distinct_ticks_stays_below_2_75_mib():
    """On rr3-n250 nearly every state is new (14,758 in 20,001 ticks), so a
    walker-text memo kept for the whole run peaked at 3.19 MiB; kept for
    one slice it adds little to the 2.3 MiB the parsed ticks take."""
    g, _ = random_regular_simple(250, 3, 7)
    traj, _ = simulate(g, "cubic", 20_000, 3)
    text = traj.to_text()
    assert traced_peak(lambda: parse_trajectory(text)) < 2.75 * 2**20

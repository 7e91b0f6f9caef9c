"""The line-at-a-time trajectory writer and reader that the chunked
`Trajectory.text_chunks` and `parse_trajectory` replaced, kept as they
were: the references the chunked forms are checked against, byte for byte
and message for message."""

from __future__ import annotations

from avoidkit.couplers import TWO_WALKER_ENGINES, Trajectory, check_walkers


def reference_to_text(self: Trajectory) -> str:
    """A three-line header, then one `t v_1 .. v_k` line per tick, each
    marked tick followed by a `# block t` line."""
    pos = self.positions
    k = len(pos[0]) if pos else 0
    if len(set(map(len, pos))) > 1:
        raise ValueError("ticks with different walker counts have no text form")
    lines = [f"# graph-digest {self.graph_digest}", f"# seed {self.seed}", f"# engine {self.engine}",
             *map(("{}" + " {}" * k).format, range(len(pos)), *zip(*pos))]
    for t in set(self.block_marks):
        if 0 <= t < len(pos):
            lines[3 + t] += f"\n# block {t}"
    return "\n".join(lines) + "\n"


def reference_parse_trajectory(text: str) -> Trajectory:
    """Read `Trajectory.to_text` output.  Whitespace around and between
    tokens, blank lines and unknown `# key` lines are ignored; the first
    malformed line in file order raises ValueError.

    Each distinct walker text is converted once, so ticks at the same
    positions share one tuple."""
    header: dict[str, str] = {}
    positions: list[tuple[int, ...]] = []
    marks: list[int] = []
    states: dict[str, tuple[int, ...]] = {}
    width = None
    for line in text.splitlines():
        tokens = line.split(None, 1)
        if not tokens:
            continue
        head = tokens[0]
        rest = tokens[1] if len(tokens) > 1 else ""
        if head[0] == "#":
            parts = rest.split() if head == "#" else [head[1:], *rest.split()]
            if not parts:
                raise ValueError("bare '#' line")
            key = parts[0]
            if key in ("graph-digest", "seed", "engine", "block"):
                if len(parts) < 2:
                    raise ValueError(f"'# {key}' line without a value")
                if key == "block":
                    marks.append(int(parts[1]))
                else:
                    header[key] = parts[1]
            continue
        t = int(head)
        pos = states.get(rest)
        if pos is None:
            pos = states[rest] = tuple(map(int, rest.split()))
        if t != len(positions):
            raise ValueError(f"non-contiguous tick {t}")
        if len(pos) != width:  # the first tick, or a walker count that changes
            if not pos:
                raise ValueError(f"tick {t} has no walker")
            if positions:
                raise ValueError(f"tick {t} has {len(pos)} walkers, tick 0 has {width}")
            width = len(pos)
        positions.append(pos)
    if len(header) < 3:
        raise ValueError("trajectory header incomplete")
    engine = header["engine"]
    if engine != "cycle" and engine not in TWO_WALKER_ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    if not positions:
        raise ValueError("trajectory has no ticks")
    check_walkers(engine, width)
    if marks and not 0 <= min(marks) <= max(marks) < len(positions):
        raise ValueError(f"block marks {min(marks)}..{max(marks)} outside ticks 0..{len(positions) - 1}")
    return Trajectory(engine, int(header["seed"]), header["graph-digest"], positions, marks)

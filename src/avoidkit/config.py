"""Flat key-value run configuration (diff-friendly, no nesting)."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

_KEYMAP = {
    "rng.seed": ("seed", int),
    "sim.ticks": ("ticks", int),
    "sim.engine": ("engine", str),
    "sim.walkers": ("walkers", int),
    "cache.capacity": ("cache_capacity", int),
}

ENGINES = ("auto", "cycle", "cubic", "regular", "squarefree")


@dataclass
class RunConfig:
    seed: int = 0
    ticks: int = 1000
    engine: str = "auto"
    walkers: int = 2
    cache_capacity: int = 4096

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.ticks < 0 or self.walkers < 1:
            raise ValueError("ticks must be >= 0 and walkers >= 1")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}, expected one of {', '.join(ENGINES)}")
        if self.cache_capacity < 1:
            raise ValueError("cache capacity must be positive")

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        kwargs = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {lineno}: {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _KEYMAP:
                raise ValueError(f"unknown config key {key!r} at line {lineno}")
            attr, conv = _KEYMAP[key]
            kwargs[attr] = conv(value.strip())
        return cls(**kwargs)

    @classmethod
    def load(cls, path) -> "RunConfig":
        return cls.from_text(Path(path).read_text())

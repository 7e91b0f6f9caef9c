"""Flat key-value run configuration (diff-friendly, no nesting)."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .rng import check_seed

_KEYMAP = {
    "rng.seed": ("seed", int),
    "sim.ticks": ("ticks", int),
    "sim.engine": ("engine", str),
    "sim.walkers": ("walkers", int),
}

ENGINES = ("auto", "cycle", "cubic", "regular", "squarefree")


@dataclass
class RunConfig:
    seed: int = 0
    ticks: int = 1000
    engine: str = "auto"
    walkers: int = 2

    def __post_init__(self):
        check_seed(self.seed)
        if self.ticks < 0 or self.walkers < 1:
            raise ValueError("ticks must be >= 0 and walkers >= 1")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}, expected one of {', '.join(ENGINES)}")

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

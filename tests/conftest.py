"""Shared brute-force oracles, deliberately independent of the package internals."""

from __future__ import annotations

import random

import pytest

from queencover import BoardSpec, Configuration, Pattern
from queencover.geometry import TRANSFORM_KINDS, transform_square


def brute_attacks(a, b) -> bool:
    if a == b:
        return False
    dx, dy = a[0] - b[0], a[1] - b[1]
    return dx == 0 or dy == 0 or abs(dx) == abs(dy)


def brute_cover(config: Configuration, board: BoardSpec) -> int:
    """Per-square scan: occupied or attacked by any queen."""
    total = 0
    for y in range(board.lo, board.hi + 1):
        for x in range(board.lo, board.hi + 1):
            s = (x, y)
            if s in config.queens or any(brute_attacks(q, s) for q in config.queens):
                total += 1
    return total


def brute_attack_number(config: Configuration, square) -> int:
    return sum(1 for q in config.queens if brute_attacks(q, square))


def brute_center_distance(board: BoardSpec, square) -> int:
    """Minimum Chebyshev distance to any central square."""
    return min(
        max(abs(square[0] - cx), abs(square[1] - cy))
        for cx, cy in board.center_squares()
    )


def brute_orbit(queens, board: BoardSpec) -> set:
    """The images of a queen tuple under the eight symmetries, square by square."""
    p = board.parity_offset
    return {tuple(sorted(transform_square(k, p, s) for s in queens)) for k in TRANSFORM_KINDS}


def brute_classes(configs, board: BoardSpec) -> list:
    """(representative, orbit size) per orbit, in order of each orbit's least input."""
    seen: set = set()
    out = []
    for queens in sorted({c.queens for c in configs}):
        if queens in seen:
            continue
        orbit = brute_orbit(queens, board)
        seen |= orbit
        out.append((min(orbit), len(orbit)))
    return out


def brute_canonical(pattern: Pattern) -> Pattern:
    """The least normalized image of a pattern under the eight symmetries."""
    images = [Pattern.of(transform_square(k, 0, s) for s in pattern.offsets) for k in TRANSFORM_KINDS]
    return min(images, key=lambda p: p.offsets)


def random_config(rng: random.Random, board: BoardSpec, q: int) -> Configuration:
    squares = [(x, y) for y in range(board.lo, board.hi + 1) for x in range(board.lo, board.hi + 1)]
    return Configuration.of(rng.sample(squares, q))


def random_nonattacking(rng: random.Random, q: int, lo: int = -4, hi: int = 5) -> Configuration:
    """Rejection-sample a non-attacking configuration inside a small window."""
    squares = [(x, y) for x in range(lo, hi + 1) for y in range(lo, hi + 1)]
    while True:
        chosen: list = []
        for s in rng.sample(squares, len(squares)):
            if all(not brute_attacks(s, c) for c in chosen):
                chosen.append(s)
                if len(chosen) == q:
                    return Configuration.of(chosen)
        # window exhausted without reaching q; try again


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240901)

"""Shared brute-force oracles, deliberately independent of the package internals."""

from __future__ import annotations

import random

import pytest

from queencover import BoardSpec, Configuration, Pattern

# The eight board symmetries as explicit maps of (x, y), keyed by the
# package's transform names.  c = lo + hi is twice the board's midpoint on
# each axis (0 on odd boards, 1 on even ones), so x -> c - x reflects a
# column about the middle of the board.
BRUTE_SYMMETRIES = {
    "identity": lambda c, x, y: (x, y),
    "rot90": lambda c, x, y: (c - y, x),
    "rot180": lambda c, x, y: (c - x, c - y),
    "rot270": lambda c, x, y: (y, c - x),
    "mirror-x": lambda c, x, y: (c - x, y),
    "mirror-y": lambda c, x, y: (x, c - y),
    "mirror-diag": lambda c, x, y: (y, x),
    "mirror-antidiag": lambda c, x, y: (c - y, c - x),
}


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
    """Minimum Chebyshev distance to any central square.

    The central squares are those nearest the board's midpoint on both axes:
    one on odd boards, four on even ones.
    """
    middle = {(board.lo + board.hi) // 2, (board.lo + board.hi + 1) // 2}
    return min(max(abs(square[0] - cx), abs(square[1] - cy)) for cx in middle for cy in middle)


def brute_ring(board: BoardSpec) -> set:
    """The border ring: B_n less the squares of B_{n-2}, listed by brute force."""
    inner = BoardSpec(board.n - 2).squares() if board.n > 2 else ()
    return set(board.squares()) - set(inner)


def brute_images(queens, board: BoardSpec) -> list:
    """The sorted image of a queen set under each of the eight symmetries."""
    c = board.lo + board.hi
    return [tuple(sorted(f(c, x, y) for x, y in queens)) for f in BRUTE_SYMMETRIES.values()]


def brute_orbit(queens, board: BoardSpec) -> set:
    """The images of a queen tuple under the eight symmetries, square by square."""
    return set(brute_images(queens, board))


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
    # Pattern.of normalizes away the translation, so any reflection center
    # will do; B_1's is the origin.
    images = [Pattern.of(image) for image in brute_images(pattern.offsets, BoardSpec(1))]
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

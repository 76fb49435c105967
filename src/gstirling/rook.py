"""Rook numbers of Ferrers boards.

A Ferrers board with non-decreasing column heights b = (b_1..b_n) has cell
(i, j) for 1 <= j <= b_i.  R_k(B) counts placements of k non-attacking rooks.
With a_i = i-1 and e_i = i-1-b_i, the generalized Stirling matrix satisfies
S(m,k) = R_{m-k}(B_m) where B_m keeps the first m columns, and the
factorization identity

    sum_k R_{m-k}(B_m) * x(x-1)..(x-k+1) = prod_{i<=m} (x + b_i - i + 1)

holds for every x.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from math import perm, prod
from typing import Optional, Sequence

from .core import SequencePair, TriMatrix, parse_int_token
from .stirling import stirling_recurrence

_BRUTEFORCE_CAP = 10


@dataclass(frozen=True)
class FerrersBoard:
    """Non-decreasing, non-negative integer column heights."""

    heights: tuple[int, ...]

    def __post_init__(self) -> None:
        hs = tuple(int(h) for h in self.heights)
        if any(h < 0 for h in hs):
            raise ValueError("column heights must be non-negative")
        if any(x > y for x, y in pairwise(hs)):
            raise ValueError("column heights must be non-decreasing")
        object.__setattr__(self, "heights", hs)

    @property
    def n(self) -> int:
        return len(self.heights)


def parse_board(text: str, source: Optional[str] = None) -> FerrersBoard:
    """Heights comma-separated or one per line; '#' starts a comment.  A
    token that is not an integer is reported with its line and source, the
    path of the file, when given."""
    items: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for tok in line.replace(",", " ").split():
            items.append(parse_int_token(tok, lineno, source))
    return FerrersBoard(tuple(items))


def rook_numbers_bruteforce(board: FerrersBoard, m: int) -> list[int]:
    """The rook numbers R_k of the first m columns for k = 0..m: one
    column-wise enumeration of the non-attacking placements, tallied by
    rook count.  Capped at m <= 10."""
    if not (0 <= m <= board.n):
        raise ValueError(f"m must be in 0..{board.n}")
    if m > _BRUTEFORCE_CAP:
        raise ValueError(f"brute force capped at {_BRUTEFORCE_CAP} columns")
    counts = [0] * (m + 1)
    used: set[int] = set()

    def walk(col: int) -> None:
        if col > m:
            counts[len(used)] += 1
            return
        walk(col + 1)
        for row in range(1, board.heights[col - 1] + 1):
            if row not in used:
                used.add(row)
                walk(col + 1)
                used.remove(row)

    walk(1)
    return counts


def board_pair(board: FerrersBoard) -> SequencePair:
    """The (a, e) pair realizing the board's rook numbers: a_i = i-1,
    e_i = i-1-b_i."""
    return SequencePair(tuple(range(board.n)),
                        tuple(i - h for i, h in enumerate(board.heights)))


def rook_matrix(board: FerrersBoard) -> TriMatrix:
    """Generalized Stirling matrix of board_pair(board); its (m,k) entry
    equals R_{m-k} of the first-m-columns board."""
    return stirling_recurrence(board_pair(board))


def gjw_check(board: FerrersBoard, m: int | None = None) -> bool:
    """Verify the factorization identity on the first m columns (default:
    all) at the m+1 points x = 0..m, enough to pin both degree-m sides.
    The rook numbers come from one brute-force enumeration."""
    m = board.n if m is None else m
    rooks = rook_numbers_bruteforce(board, m)
    return all(
        sum(rooks[m - k] * perm(x, k) for k in range(m + 1))
        == prod(x + h - i for i, h in enumerate(board.heights[:m]))
        for x in range(m + 1)
    )

from itertools import product
from math import comb, factorial

import pytest

import gstirling.rook
from gstirling.rook import (
    FerrersBoard,
    board_pair,
    gjw_check,
    parse_board,
    rook_matrix,
    rook_numbers_bruteforce,
)
from gstirling.stirling import preset, rgs_check, stirling_recurrence
from oracles import is_identity, rook_placement_count


class TestFerrersBoard:
    def test_validation(self):
        with pytest.raises(ValueError):
            FerrersBoard((2, 1))
        with pytest.raises(ValueError):
            FerrersBoard((-1, 0))
        assert FerrersBoard(()).n == 0
        assert FerrersBoard((0, 0, 3)).heights == (0, 0, 3)

    def test_parse(self):
        assert parse_board("1, 2, 2\n") == FerrersBoard((1, 2, 2))
        assert parse_board("# staircase\n0\n1\n2\n") == FerrersBoard((0, 1, 2))
        assert parse_board("1 1, 2\n") == FerrersBoard((1, 1, 2))
        with pytest.raises(ValueError):
            parse_board("1, x\n")
        with pytest.raises(ValueError, match=r"^b\.txt: line 3: 'x' is not an integer$"):
            parse_board("# c\n1\n2, x\n", source="b.txt")


class TestBruteForce:
    def test_full_square(self):
        # k rooks on an m x m square: choose rows and columns, then match
        board = FerrersBoard((4, 4, 4, 4))
        assert rook_numbers_bruteforce(board, 4) == [
            comb(4, k) ** 2 * factorial(k) for k in range(5)
        ]

    def test_against_placement_oracle(self):
        boards = [(0,), (1, 1), (1, 2, 4), (2, 2, 2), (0, 1, 1, 3)]
        for hs in boards:
            board = FerrersBoard(hs)
            for m in range(board.n + 1):
                assert rook_numbers_bruteforce(board, m) == [
                    rook_placement_count(hs, m, k) for k in range(m + 1)
                ]

    def test_bounds(self):
        board = FerrersBoard((1,) * 11)
        with pytest.raises(ValueError, match="^brute force capped at 10 columns$"):
            rook_numbers_bruteforce(board, 11)
        with pytest.raises(ValueError):
            rook_numbers_bruteforce(FerrersBoard((1,)), 2)
        with pytest.raises(ValueError):
            rook_numbers_bruteforce(FerrersBoard((1,)), -1)
        assert rook_numbers_bruteforce(FerrersBoard(()), 0) == [1]


class TestBoardPair:
    def test_sequences(self):
        sp = board_pair(FerrersBoard((1, 2, 2)))
        assert sp.a == (0, 1, 2)
        assert sp.e == (-1, -1, 0)

    def test_staircase_gives_partition_triangle(self):
        # b_i = i - 1 makes e vanish, so rook counts become block counts
        board = FerrersBoard((0, 1, 2, 3))
        assert all(v == 0 for v in board_pair(board).e)
        assert rook_matrix(board) == stirling_recurrence(preset("stirling2", 4))

    def test_pair_is_growth_restricted(self):
        for hs in [(0, 0), (1, 1, 1), (1, 2, 4), (3, 3, 3, 3)]:
            report = rgs_check(board_pair(FerrersBoard(hs)))
            assert report.is_rgs


class TestRookMatrix:
    def test_entries_count_placements(self):
        for hs in [(1,), (1, 1, 2), (2, 3, 3), (0, 1, 2, 3)]:
            board = FerrersBoard(hs)
            matrix = rook_matrix(board)
            for m in range(board.n + 1):
                for k in range(m + 1):
                    assert matrix.entry(m, k) == rook_placement_count(hs, m, m - k)

    def test_empty_columns_give_pascal_shift(self):
        # all-zero heights: no rook fits, so only the k = m entry survives
        matrix = rook_matrix(FerrersBoard((0, 0, 0)))
        assert is_identity(matrix.rows)


class TestFactorizationIdentity:
    def test_small_boards(self):
        for hs in [(), (1,), (1, 2), (2, 2, 2), (1, 2, 4), (0, 1, 1, 3)]:
            assert gjw_check(FerrersBoard(hs))

    def test_prefix_argument(self):
        board = FerrersBoard((1, 2, 3, 4))
        for m in range(5):
            assert gjw_check(board, m)
        with pytest.raises(ValueError):
            gjw_check(board, 5)

    def test_rook_numbers_taken_once(self, monkeypatch):
        calls = []
        real = gstirling.rook.rook_numbers_bruteforce

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(gstirling.rook, "rook_numbers_bruteforce", counted)
        board = FerrersBoard((1, 2, 2, 4, 5))
        assert gjw_check(board)
        assert gjw_check(board, 3)
        assert calls == [(board, 5), (board, 3)]

    def test_exhaustive_short_boards(self):
        for n in range(1, 4):
            for steps in product(range(3), repeat=n):
                hs = []
                h = 0
                for s in steps:
                    h += s
                    hs.append(h)
                assert gjw_check(FerrersBoard(tuple(hs)))

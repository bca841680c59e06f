"""Codebook generation, packing tallies, expurgation, and audits.

The packing reports are cross-checked against tally_oracle, which recounts
every pattern with plain dictionaries over symbol tuples and recomposes the
family exponents from grouped entropies.
"""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tally_oracle as to
import macexp.codebooks as codebooks
from helpers import binary_codebooks, mixed_pair
from macexp import Alphabet, TypeVector
from macexp.codebooks import (
    FAMILY_ORDER,
    CodebookPair,
    audit_confusability,
    expurgate,
    generate_codebooks,
    _tally_family,
    packing_reports,
    single_user_packing_check,
)
from macexp.cli import main
from macexp.errors import ConstructionError, ValidationError
from macexp.exponents import (RatePair, confusability_checks,
                              confusability_feasible)
from macexp.fileio import codebook_to_dict, save_json
from macexp.typeclasses import SymbolSequence, code_places, empirical_type


def tiny_pair(x_word=(0, 0, 1, 1), y_word=(0, 0, 1, 1)) -> CodebookPair:
    """Single-codeword books over a constant u, words chosen explicitly."""
    u_alph, x_alph, y_alph = Alphabet(1, "U"), Alphabet(2, "X"), Alphabet(2, "Y")
    n = len(x_word)
    xw = np.asarray([x_word], dtype=np.int64)
    yw = np.asarray([y_word], dtype=np.int64)
    p_ux = TypeVector((u_alph, x_alph),
                      np.asarray([[n - sum(x_word), sum(x_word)]], dtype=np.int64), n)
    p_uy = TypeVector((u_alph, y_alph),
                      np.asarray([[n - sum(y_word), sum(y_word)]], dtype=np.int64), n)
    return CodebookPair(np.zeros(n, dtype=np.int64), xw, yw,
                        u_alph, x_alph, y_alph, p_ux, p_uy)


class TestGeneration:
    def test_same_seed_reproduces_books(self):
        a = binary_codebooks(8, 4, 4, seed=3)
        b = binary_codebooks(8, 4, 4, seed=3)
        assert np.array_equal(a.x_book, b.x_book)
        assert np.array_equal(a.y_book, b.y_book)

    def test_generator_argument_matches_seed_argument(self):
        u_alph, x_alph = Alphabet(1, "U"), Alphabet(2, "X")
        u_seq = SymbolSequence(u_alph, (0,) * 8)
        p = TypeVector((u_alph, x_alph), np.asarray([[4, 4]], dtype=np.int64), 8)
        a = generate_codebooks(p, p, u_seq, 4, 4, rng=9)
        b = generate_codebooks(p, p, u_seq, 4, 4, rng=np.random.default_rng(9))
        assert np.array_equal(a.x_book, b.x_book)
        assert np.array_equal(a.y_book, b.y_book)

    def test_seed_sequence_draws_distinct_words_from_one_stream(self):
        # a fresh stream per word would repeat the first word until the
        # resampling budget ran out
        u_alph, x_alph = Alphabet(1, "U"), Alphabet(2, "X")
        u_seq = SymbolSequence(u_alph, (0,) * 4)
        p = TypeVector((u_alph, x_alph), np.asarray([[2, 2]], dtype=np.int64), 4)
        pair = generate_codebooks(p, p, u_seq, 4, 4, rng=np.random.SeedSequence(7))
        assert len({r.tobytes() for r in pair.x_book}) == 4
        assert len({r.tobytes() for r in pair.y_book}) == 4
        same = generate_codebooks(p, p, u_seq, 4, 4, rng=np.random.default_rng(
            np.random.SeedSequence(7)))
        assert np.array_equal(pair.x_book, same.x_book)
        assert np.array_equal(pair.y_book, same.y_book)

    def test_every_word_has_the_target_type(self):
        pair = binary_codebooks(10, 6, 5, seed=4, x_ones=3, y_ones=7)
        u_seq = SymbolSequence(pair.u_alphabet, tuple(pair.u_seq.tolist()))
        for book, target, alph in ((pair.x_book, pair.p_ux, pair.x_alphabet),
                                   (pair.y_book, pair.p_uy, pair.y_alphabet)):
            for row in book:
                word = SymbolSequence(alph, tuple(row.tolist()))
                got = empirical_type((u_seq, word))
                assert np.array_equal(got.counts, target.counts)

    def test_words_are_distinct(self):
        pair = binary_codebooks(8, 16, 16, seed=5)
        assert len({r.tobytes() for r in pair.x_book}) == 16
        assert len({r.tobytes() for r in pair.y_book}) == 16

    def test_book_larger_than_class_is_refused(self):
        with pytest.raises(ConstructionError, match="has only 6 members, "
                           "cannot hold 7 distinct words"):
            binary_codebooks(4, 7, 2, seed=0, x_ones=2)
        # along u = 0001111, words of type [[2, 1], [1, 3]] number
        # C(3, 1) C(4, 1) = 12: a product over u
        u_alph, x_alph = Alphabet(2, "U"), Alphabet(2, "X")
        u_seq = SymbolSequence(u_alph, (0,) * 3 + (1,) * 4)
        p = TypeVector((u_alph, x_alph), np.asarray([[2, 1], [1, 3]]), 7)
        assert generate_codebooks(p, p, u_seq, 12, 1, rng=0).m_x == 12
        with pytest.raises(ConstructionError, match="has only 12 members"):
            generate_codebooks(p, p, u_seq, 13, 1, rng=0)

    @pytest.mark.parametrize("counts", [
        [[3, 4]], [[2, 1], [1, 3]], [[0, 0], [5, 2]], [[2, 0, 1], [0, 4, 0],
                                                        [1, 1, 1]]],
        ids=["one_u", "two_u", "empty_u", "three_u"])
    def test_conditional_class_size_is_a_product_over_u(self, counts):
        # the words of joint type counts along a fixed u: one multinomial
        # per u symbol, an exact integer
        counts = np.asarray(counts, dtype=np.int64)
        p = TypeVector((Alphabet(counts.shape[0], "U"),
                        Alphabet(counts.shape[1], "X")),
                       counts, int(counts.sum()))
        want = math.prod(math.factorial(int(row.sum()))
                         // math.prod(math.factorial(int(c)) for c in row)
                         for row in counts)
        assert codebooks._conditional_class_size(p) == want

    def test_exhausted_budget_is_reported(self):
        u_alph, x_alph = Alphabet(1, "U"), Alphabet(2, "X")
        u_seq = SymbolSequence(u_alph, (0,) * 4)
        p = TypeVector((u_alph, x_alph), np.asarray([[2, 2]], dtype=np.int64), 4)
        with pytest.raises(ConstructionError):
            generate_codebooks(p, p, u_seq, 2, 2, rng=0, max_draws=1)

    def test_single_word_books(self):
        pair = binary_codebooks(6, 1, 1, seed=2)
        assert (pair.m_x, pair.m_y) == (1, 1)
        assert pair.rates.rx == 0.0 and pair.rates.ry == 0.0

    def test_zero_size_request_is_refused(self):
        with pytest.raises(ValidationError):
            binary_codebooks(6, 0, 1, seed=2)

    @pytest.mark.parametrize("counts, message", [
        ({"m_x": 2.5}, "m_x must be an integer"),
        ({"m_y": True}, "m_y must be an integer"),
        ({"m_y": 0}, "m_y must be >= 1"),
        ({"max_draws": 0}, "max_draws must be >= 1"),
        ({"max_draws": 2.5}, "max_draws must be an integer")],
        ids=["float_m_x", "bool_m_y", "zero_m_y", "zero_draws",
             "float_draws"])
    def test_counts_must_be_positive_integers(self, counts, message):
        u_alph, x_alph = Alphabet(1, "U"), Alphabet(2, "X")
        u_seq = SymbolSequence(u_alph, (0,) * 4)
        p = TypeVector((u_alph, x_alph), np.asarray([[2, 2]]), 4)
        args = {"m_x": 2, "m_y": 2, "max_draws": None} | counts
        with pytest.raises(ValidationError, match=f"^{message}$"):
            generate_codebooks(p, p, u_seq, args["m_x"], args["m_y"], rng=0,
                               max_draws=args["max_draws"])

    @pytest.mark.parametrize("field, change, message", [
        ("u_seq", lambda a: a + 2, "u_seq contains symbols outside its alphabet"),
        ("x_book", lambda a: a.astype(float), "x_book must hold integer symbols"),
        ("y_book", lambda a: -a, "y_book contains symbols outside its alphabet"),
        ("x_book", lambda a: a[0], "x_book must be a 2-D integer array"),
        ("u_seq", lambda a: a[None], "u_seq must be a 1-D integer array")],
        ids=["u_outside", "x_floats", "y_negative", "x_one_word", "u_matrix"])
    def test_container_checks_every_word_alike(self, field, change, message):
        pair = binary_codebooks(6, 2, 2, seed=8)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            dataclasses.replace(pair, **{field: change(getattr(pair, field))})

    def test_rates_are_log_size_over_n(self):
        pair = binary_codebooks(8, 8, 4, seed=1)
        assert pair.rates.rx == pytest.approx(3.0 / 8.0, abs=0)
        assert pair.rates.ry == pytest.approx(2.0 / 8.0, abs=0)
        assert pair.rates.lower == pytest.approx(2.0 / 8.0, abs=0)

    def test_duplicate_rows_are_rejected_by_the_container(self):
        pair = binary_codebooks(6, 2, 2, seed=8)
        dup = np.vstack([pair.x_book[0], pair.x_book[0]])
        with pytest.raises(ValidationError):
            CodebookPair(pair.u_seq, dup, pair.y_book, pair.u_alphabet,
                         pair.x_alphabet, pair.y_alphabet, pair.p_ux, pair.p_uy)


def ternary_pair() -> CodebookPair:
    """Books over a two-symbol u with ternary X and Y alphabets: at n = 6
    the quad family's 2 * 3^4 = 162 cells take 8 int64 code words."""
    u_alph, x_alph, y_alph = Alphabet(2, "U"), Alphabet(3, "X"), Alphabet(3, "Y")
    u_seq = SymbolSequence(u_alph, (0, 1, 0, 1, 0, 1))
    p_ux = TypeVector((u_alph, x_alph),
                      np.asarray([[1, 1, 1], [1, 1, 1]], dtype=np.int64), 6)
    p_uy = TypeVector((u_alph, y_alph),
                      np.asarray([[2, 1, 0], [0, 1, 2]], dtype=np.int64), 6)
    return generate_codebooks(p_ux, p_uy, u_seq, 3, 3, rng=7)


def lhs_map(table) -> dict:
    """A report table's tallies as the oracle keeps them: count-row key ->
    exact fraction counts / denom."""
    return {tuple(key): Fraction(c, table.denom)
            for key, c in zip(table.types.tolist(), table.counts.tolist())}


def count_map(table) -> dict:
    """A report table's counts by count-row key."""
    return {tuple(key): c
            for key, c in zip(table.types.tolist(), table.counts.tolist())}


def as_dicts(tally, x_rows, y_rows) -> dict:
    """A tally in the oracle's form: dict (i, j) -> dict type-key -> count,
    with (i, j) the rows of the original books."""
    keys = [tuple(row) for row in tally.types.tolist()]
    out = {(x_rows[i], y_rows[j]): {} for i, j in np.ndindex(tally.m)}
    for p, t, c in zip(tally.pair.tolist(), tally.type.tolist(),
                       tally.count.tolist()):
        i, j = np.unravel_index(p, tally.m)
        out[(x_rows[i], y_rows[j])][keys[t]] = c
    return out


class TestBlockTally:
    """Block tallies equal the tally_oracle recount in keys, counts and the
    order of message pairs."""

    CASES = (
        (binary_codebooks(8, 5, 4, seed=11), None, None),
        (binary_codebooks(6, 4, 1, seed=3), None, None),
        (mixed_pair(), None, None),
        (mixed_pair(), (0, 2, 5), (1, 3)),
        (mixed_pair(), (4,), (0, 1, 2, 3)),
    )

    @pytest.mark.parametrize("family", FAMILY_ORDER)
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_matches_oracle_in_order(self, case, family):
        pair, x_rows, y_rows = self.CASES[case]
        want, _ = to.recount(pair, family, x_rows, y_rows)
        x_rows = range(pair.m_x) if x_rows is None else x_rows
        y_rows = range(pair.m_y) if y_rows is None else y_rows
        got = as_dicts(_tally_family(pair.restrict(x_rows, y_rows), family),
                       x_rows, y_rows)
        assert list(got) == list(want)
        assert got == want

    def test_types_are_distinct_and_ascending(self):
        pair = mixed_pair()
        for family in FAMILY_ORDER:
            tally = _tally_family(pair, family)
            keys = [tuple(row) for row in tally.types.tolist()]
            assert all(a < b for a, b in zip(keys, keys[1:]))
            entries = list(zip(tally.pair.tolist(), tally.type.tolist()))
            assert len(set(entries)) == len(entries)

    @pytest.mark.parametrize("budget", [1, 100])
    def test_chunks_do_not_change_the_tally(self, monkeypatch, budget):
        # a few true-word tuples per chunk against one chunk for all of them
        for pair in (mixed_pair(), binary_codebooks(8, 8, 8, seed=20240817)):
            for family in FAMILY_ORDER:
                monkeypatch.setattr(codebooks, "ENTROPY_CELLS", 1 << 40)
                whole = _tally_family(pair, family)
                monkeypatch.setattr(codebooks, "ENTROPY_CELLS", budget)
                split = _tally_family(pair, family)
                assert split.m == whole.m
                for got, want in zip(split, whole):
                    if isinstance(want, np.ndarray):
                        assert got.dtype == want.dtype
                        assert np.array_equal(got, want)


class TestCodeWords:
    """Count rows are keyed by int64 code words of radix n + 1; tallies at
    the dtype and word-capacity boundaries equal the tally_oracle recount
    in dtype, order and counts."""

    @staticmethod
    def check(pair, family, dtype, words):
        cells = math.prod(to._sizes(pair, family))
        assert len(code_places(pair.n + 1, cells)) == words
        tally = _tally_family(pair, family)
        assert tally.types.dtype == dtype
        assert tally.types.flags.c_contiguous
        keys = [tuple(row) for row in tally.types.tolist()]
        assert keys == sorted(set(keys))
        order = tally.pair.astype(np.int64) * len(keys) + tally.type
        assert np.all(np.diff(order) > 0)
        want, _ = to.recount(pair, family)
        got = as_dicts(tally, range(pair.m_x), range(pair.m_y))
        assert list(got) == list(want)
        assert got == want

    @pytest.mark.parametrize("n, dtype", [(255, np.uint8), (256, np.uint16)])
    def test_count_dtype_follows_the_blocklength(self, n, dtype):
        # radix 256 and 257 both hold 7 cells a word: 4, 8 and 16 cells
        pair = binary_codebooks(n, 2, 2, seed=n)
        for family, words in zip(FAMILY_ORDER, (1, 2, 2, 3)):
            self.check(pair, family, dtype, words)

    @pytest.mark.parametrize("n, words", [(14, 1), (15, 2)])
    def test_one_word_full_and_one_cell_past(self, n, words):
        # 15^16 <= 2^63 < 16^16: the quad family's 16 cells fill one word
        # at n = 14 and spill one cell into a second word at n = 15
        self.check(binary_codebooks(n, 3, 3, seed=n), "quad", np.uint8, words)

    def test_many_words(self, monkeypatch):
        pair = ternary_pair()
        for family, words in zip(FAMILY_ORDER, (1, 3, 3, 8)):
            self.check(pair, family, np.uint8, words)
            whole = _tally_family(pair, family)
            monkeypatch.setattr(codebooks, "ENTROPY_CELLS", 1)
            split = _tally_family(pair, family)
            monkeypatch.undo()
            for got, want in zip(split, whole):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("n, cells", [(6, 162), (14, 16), (15, 16),
                                          (255, 16), (256, 16)])
    def test_every_code_fits_in_int64(self, n, cells):
        place = code_places(n + 1, cells)
        assert np.array_equal((place > 0).sum(axis=0), np.ones(cells))
        # a row's largest code puts all n counts on its first cell
        assert n * int(place.max()) < 1 << 63
        full = int((place[0] > 0).sum())
        assert (n + 1) ** full <= 1 << 63
        assert full == cells or (n + 1) ** (full + 1) > 1 << 63


@st.composite
def tally_cases(draw):
    """Small books over |U| in {1, 2} and alphabets of 2-3 symbols, of 1-4
    words each; 14 and 15 straddle the one-word boundary of binary quad
    tallies (|U| = 1) and binary triple tallies (|U| = 2)."""
    su = draw(st.sampled_from([1, 2]))
    sx, sy = draw(st.sampled_from([2, 3])), draw(st.sampled_from([2, 3]))
    n = max(su, draw(st.sampled_from([2, 3, 4, 6, 14, 15])))
    words = [draw(st.lists(st.integers(0, s - 1), min_size=n, max_size=n))
             for s in (su, sx, sy)]
    return (su, sx, sy, words, draw(st.integers(1, 4)), draw(st.integers(1, 4)),
            draw(st.integers(0, 1 << 16)))


def case_pair(case) -> CodebookPair:
    """The case's books: words of the drawn words' joint types with u, as
    many as the type classes hold."""
    su, sx, sy, (u, x, y), m_x, m_y, seed = case
    u_alph = Alphabet(su, "U")
    u_seq = SymbolSequence(u_alph, u)
    targets = []
    for word, s, label in ((x, sx, "X"), (y, sy, "Y")):
        counts = np.zeros((su, s), dtype=np.int64)
        np.add.at(counts, (u, word), 1)
        targets.append(TypeVector((u_alph, Alphabet(s, label)), counts, len(u)))
    m_x, m_y = (min(m, codebooks._conditional_class_size(t))
                for m, t in zip((m_x, m_y), targets))
    return generate_codebooks(*targets, u_seq, m_x, m_y, rng=seed)


class TestTallyAgainstOracle:
    """Tallies of random small books, every family and the single-user
    tally, in one chunk or one tuple a chunk, equal the tally_oracle
    recount in keys, counts and order."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=tally_cases(),
           budget=st.sampled_from([1, codebooks.ENTROPY_CELLS]))
    @example(case=(1, 2, 2, ([0] * 14, [0, 1] * 7, [1, 0] * 7), 3, 3, 1),
             budget=codebooks.ENTROPY_CELLS)
    @example(case=(1, 2, 2, ([0] * 15, [0, 1] * 7 + [0], [1] * 8 + [0] * 7),
                   3, 2, 2), budget=1)
    @example(case=(2, 2, 2, ([0, 1] * 7, [0, 0, 1, 1] * 3 + [0, 1],
                             [1, 0] * 7), 1, 4, 3), budget=1)
    @example(case=(2, 3, 3, ([0, 1, 1, 0, 1, 0], [0, 1, 2, 2, 1, 0],
                             [2, 2, 1, 0, 0, 1]), 3, 1, 4),
             budget=codebooks.ENTROPY_CELLS)
    def test_tallies_match_the_recount(self, case, budget):
        pair = case_pair(case)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codebooks, "ENTROPY_CELLS", budget)
            tallies = {f: _tally_family(pair, f) for f in FAMILY_ORDER}
            u_seq = SymbolSequence(pair.u_alphabet, tuple(pair.u_seq.tolist()))
            singles = [(book, alph, single_user_packing_check(u_seq, book, alph))
                       for book, alph in ((pair.x_book, pair.x_alphabet),
                                          (pair.y_book, pair.y_alphabet))]
        for family, tally in tallies.items():
            keys = [tuple(row) for row in tally.types.tolist()]
            assert keys == sorted(set(keys))
            assert tally.types.dtype == np.min_scalar_type(pair.n)
            order = tally.pair.astype(np.int64) * len(keys) + tally.type
            assert np.all(np.diff(order) > 0)
            want, _ = to.recount(pair, family)
            got = as_dicts(tally, range(pair.m_x), range(pair.m_y))
            assert list(got) == list(want)
            assert got == want
        su = pair.u_alphabet.size
        for book, alph, rep in singles:
            rows = book.tolist()
            totals = {}
            for i, word in enumerate(rows):
                for k, other in enumerate(rows):
                    if k != i:
                        key = to.flat_key(to.tuple_type(pair.u_seq, word, other),
                                          (su, alph.size, alph.size))
                        totals[key] = totals.get(key, 0) + 1
            assert count_map(rep.avg) == totals
            aw, pw = to.single_user_needs(pair.u_seq.tolist(), rows, su,
                                          alph.size)
            assert rep.avg_worst_need_delta == pytest.approx(aw, abs=1e-12)
            assert rep.per_word_worst_need_delta == pytest.approx(pw, abs=1e-12)


class TestTallyMemory:
    # int64 scratch arrays of ENTROPY_CELLS entries each, beyond the output
    SCRATCH_ARRAYS = 8

    @staticmethod
    def scratch_bytes(pair) -> int:
        tracemalloc.start()
        try:
            tally = _tally_family(pair, "quad")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - sum(a.nbytes for a in tally if isinstance(a, np.ndarray))

    def test_quad_scratch_stays_within_a_few_chunks(self, monkeypatch):
        # 576 message pairs against 576 patterns of wrong words
        pair = binary_codebooks(12, 24, 24, seed=20240817)
        budget = self.SCRATCH_ARRAYS * codebooks.ENTROPY_CELLS * 8
        assert self.scratch_bytes(pair) <= budget
        # the bound has teeth: one chunk for every message pair exceeds it
        monkeypatch.setattr(codebooks, "ENTROPY_CELLS", 1 << 40)
        assert self.scratch_bytes(pair) > budget


class TestReportMemory:
    """Reports and expurgation hold their tallies' entries plus a few
    ENTROPY_CELLS-entry scratch arrays: the entries are reduced a block at
    a time and a family's types turned into probabilities a chunk at a
    time."""

    SCRATCH_ARRAYS = 7
    PAIR = binary_codebooks(12, 24, 24, seed=20240817)

    @staticmethod
    def scratch_bytes(call, held: int) -> int:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - held

    def over_budget(self, budget: int) -> list[str]:
        sizes = [sum(a.nbytes for a in _tally_family(self.PAIR, f)
                     if isinstance(a, np.ndarray)) for f in FAMILY_ORDER]
        # reports hold one family's tally at a time, expurgation all four
        return [name for name, call, held in (
            ("reports", lambda: packing_reports(self.PAIR), max(sizes)),
            ("expurgate", lambda: expurgate(self.PAIR, 0.1), sum(sizes)))
            if self.scratch_bytes(call, held) > budget]

    def test_scratch_stays_within_a_few_blocks(self, monkeypatch):
        budget = self.SCRATCH_ARRAYS * codebooks.ENTROPY_CELLS * 8
        assert self.over_budget(budget) == []
        # the bound has teeth: one chunk and one block for every entry
        monkeypatch.setattr(codebooks, "ENTROPY_CELLS", 1 << 40)
        assert self.over_budget(budget) == ["reports", "expurgate"]


def unit_pair(m_x: int, m_y: int) -> CodebookPair:
    """Binary books of weight-one words, each book's ones on its own
    positions: every wrong word sits on positions no true word uses, so
    all of a message pair's wrong-word patterns share one joint type."""
    n = m_x + m_y
    u_alph, x_alph, y_alph = Alphabet(1, "U"), Alphabet(2, "X"), Alphabet(2, "Y")
    one = np.eye(n, dtype=np.int64)
    target = [TypeVector((u_alph, alph), np.asarray([[n - 1, 1]]), n)
              for alph in (x_alph, y_alph)]
    return CodebookPair(np.zeros(n, dtype=np.int64), one[:m_x], one[m_x:],
                        u_alph, x_alph, y_alph, *target)


class TestFieldDtypeLimits:
    """Tallies whose pair ids or counts reach the largest value of their
    uint8 dtype: entries, totals, peaks, per-pair needs and the audit equal
    the tally_oracle recount."""

    @pytest.mark.parametrize("pair, field, family", [
        # pair ids 0..255
        (binary_codebooks(6, 16, 16, seed=20240817), "pair", "triple_x"),
        # 15 * 17 = 255 wrong-word patterns of one type for every pair
        (unit_pair(16, 18), "count", "quad"),
    ], ids=["pair_ids", "counts"])
    def test_tally_at_its_dtype_limit_matches_the_recount(self, pair, field,
                                                          family):
        tally = _tally_family(pair, family)
        values = getattr(tally, field)
        assert values.dtype == np.uint8 and values.max() == 255
        tallies, counters = to.recount(pair, family)
        assert as_dicts(tally, range(pair.m_x), range(pair.m_y)) == tallies

        totals, peaks, first = {}, {}, {}
        for ij, counts in tallies.items():
            for key, c in counts.items():
                totals[key] = totals.get(key, 0) + c
                peaks[key] = max(peaks.get(key, 0), c)
                first.setdefault(key, ij)
        avg, peak = (rep.families[family].table for rep in packing_reports(pair))
        assert lhs_map(avg) == {key: Fraction(c, pair.m_x * pair.m_y)
                                for key, c in totals.items()}
        assert count_map(peak) == peaks

        r = pair.rates
        needs = np.zeros((pair.m_x, pair.m_y))
        for (i, j), counts in tallies.items():
            for key, c in counts.items():
                f = to.family_exponent(counters[key], family, r.rx, r.ry)
                needs[i, j] = max(needs[i, j], (math.log2(c) + pair.n * (
                    f - r.lower)) / (pair.n * to.PAIR_COEFF[family]))
        got = codebooks._pair_needs(pair, family, tally, r)
        assert got == pytest.approx(needs, abs=1e-12)

        # at zero rates every dependent type breaks a constraint; the audit
        # checks each type once, with the first pair realizing it
        zero = RatePair(0.0, 0.0)
        audit = audit_confusability(pair, zero, 0.0)
        assert audit.pattern_counts[family] == sum(totals.values())
        assert audit.distinct_types[family] == len(first)
        law = pair.input_law()
        labels = ("U", "X", "Y") + codebooks.PACKING_FAMILIES[family][0]
        axes = tuple(Alphabet(s, lab)
                     for s, lab in zip(to._sizes(pair, family), labels))
        want = []
        for key in sorted(first):
            joint = TypeVector(axes, np.reshape(key, [a.size for a in axes]),
                               pair.n).to_joint()
            want += [codebooks.AuditViolation(family, first[key], v.name,
                                              v.lhs, v.rhs)
                     for v in confusability_feasible(joint, law, zero, 0.0)[1]]
        assert want
        assert [v for v in audit.violations if v.pattern == family] == want


class TestReportArrays:
    """Reports hold per-type arrays; every need matches the exact-fraction
    need of its type bit for bit, and reports compare by their arrays."""

    PAIRS = (binary_codebooks(8, 8, 8, seed=20240817), mixed_pair(),
             binary_codebooks(12, 24, 24, seed=20240817))

    def test_worst_need_is_the_largest_entry_need(self):
        reduced = 0
        for pair in self.PAIRS:
            for rep in packing_reports(pair):
                for fam in FAMILY_ORDER:
                    report = rep.families[fam]
                    table = report.table
                    worst = max(table.needs.tolist(), default=-math.inf)
                    assert report.worst_need_delta.hex() == worst.hex()
                    for count, f, got in zip(table.counts.tolist(),
                                             table.f_values.tolist(),
                                             table.needs.tolist()):
                        lhs = Fraction(count, table.denom)
                        log2_lhs = (math.log2(lhs.numerator)
                                    - math.log2(lhs.denominator))
                        need = codebooks._need(log2_lhs, f, pair.n,
                                               report.rate_offset,
                                               report.delta_coeff)
                        assert got.hex() == need.hex()
                        reduced += lhs.denominator < pair.m_x * pair.m_y
        # some averages reduce: gcd(total, m_x m_y) > 1
        assert reduced
        pair = self.PAIRS[2]
        u_seq = SymbolSequence(pair.u_alphabet, tuple(pair.u_seq.tolist()))
        rep = single_user_packing_check(u_seq, pair.x_book, pair.x_alphabet)
        worst = max([0.0] + rep.avg.needs.tolist())
        assert rep.avg_worst_need_delta.hex() == worst.hex()

    def test_reports_of_one_pair_compare_and_hash_equal(self):
        pair = self.PAIRS[0]
        first, again = packing_reports(pair), packing_reports(pair)
        for a, b in zip(first, again):
            for fam in FAMILY_ORDER:
                ra, rb = a.families[fam], b.families[fam]
                assert ra.table is not rb.table
                assert ra == rb and hash(ra) == hash(rb)
        u_seq = SymbolSequence(pair.u_alphabet, tuple(pair.u_seq.tolist()))
        single = [single_user_packing_check(u_seq, pair.x_book, pair.x_alphabet)
                  for _ in range(2)]
        assert single[0] == single[1] and hash(single[0]) == hash(single[1])
        # the same contents in another dtype
        table = first[0].families["quad"].table
        wide = dataclasses.replace(table, types=table.types.astype(np.int64))
        assert wide == table and hash(wide) == hash(table)

    def test_reports_whose_tables_differ_are_unequal(self):
        avg, peak = packing_reports(self.PAIRS[0])
        other = packing_reports(binary_codebooks(8, 8, 8, seed=7))[0]
        for fam in FAMILY_ORDER:
            assert avg.families[fam].table != peak.families[fam].table
            assert avg.families[fam] != other.families[fam]
        rep = avg.families["triple_x"]
        table = rep.table
        for name in ("types", "counts", "f_values", "needs"):
            changed = getattr(table, name).copy()
            changed[-1] += 1
            other = dataclasses.replace(table, **{name: changed})
            assert other != table
            assert dataclasses.replace(rep, table=other) != rep
        assert dataclasses.replace(table, denom=table.denom + 1) != table


class TestPackingAverages:
    def test_report_shape_and_constants(self):
        pair = binary_codebooks(8, 4, 4, seed=11)
        rep = packing_reports(pair)[0]
        assert rep.kind == "average"
        assert tuple(rep.families) == FAMILY_ORDER
        for fam in FAMILY_ORDER:
            assert rep.families[fam].delta_coeff == to.AVG_COEFF[fam]
            assert rep.families[fam].rate_offset == 0.0

    def test_single_words_leave_competitor_families_empty(self):
        rep = packing_reports(tiny_pair())[0]
        assert lhs_map(rep.families["pair"].table) == {(2, 0, 0, 2): 1}
        for fam in ("triple_x", "triple_y", "quad"):
            assert lhs_map(rep.families[fam].table) == {}
            assert rep.families[fam].worst_need_delta == -math.inf

    def test_fully_dependent_single_words_need_half_a_bit(self):
        rep = packing_reports(tiny_pair())[0]
        assert rep.families["pair"].worst_need_delta == pytest.approx(0.5, abs=1e-12)
        assert rep.satisfied(0.5)
        assert not rep.satisfied(0.49)

    def test_pair_family_lhs_sums_to_one(self):
        pair = binary_codebooks(8, 4, 4, seed=12)
        rep = packing_reports(pair)[0]
        assert sum(lhs_map(rep.families["pair"].table).values()) == 1

    def test_entries_are_sorted_by_key(self):
        pair = binary_codebooks(8, 4, 4, seed=13)
        rep = packing_reports(pair)[0]
        for fam in FAMILY_ORDER:
            keys = [tuple(key) for key in
                    rep.families[fam].table.types.tolist()]
            assert keys == sorted(keys)

    def test_matches_independent_recount(self):
        pairs = [binary_codebooks(8, 4, 4, seed=s) for s in (21, 22, 23)]
        for pair in pairs + [mixed_pair()]:
            rep = packing_reports(pair)[0]
            oracle = to.average_needs(pair)
            for fam in FAMILY_ORDER:
                worst, want = oracle[fam]
                assert rep.families[fam].worst_need_delta == pytest.approx(
                    worst, abs=1e-12)
                assert lhs_map(rep.families[fam].table) == want

    def test_entry_exponents_match_recomposition(self):
        pair = binary_codebooks(8, 4, 4, seed=24)
        rep = packing_reports(pair)[0]
        r = pair.rates
        for fam in FAMILY_ORDER:
            _, counters = to.recount(pair, fam)
            table = rep.families[fam].table
            for key, f in zip(table.types.tolist(), table.f_values.tolist()):
                want = to.family_exponent(counters[tuple(key)], fam, r.rx, r.ry)
                assert f == pytest.approx(want, abs=1e-12)


class TestPerPairMaxima:
    def test_report_shape_and_constants(self):
        pair = binary_codebooks(8, 4, 4, seed=11)
        rep = packing_reports(pair)[1]
        assert rep.kind == "per_pair_max"
        r = pair.rates
        for fam in FAMILY_ORDER:
            assert rep.families[fam].delta_coeff == to.AVG_COEFF[fam]
            assert rep.families[fam].rate_offset == pytest.approx(r.rx + r.ry, abs=0)

    def test_single_words_have_unit_peaks(self):
        rep = packing_reports(tiny_pair())[1]
        assert rep.families["pair"].table.counts.tolist() == [1]

    def test_peaks_never_exceed_average_totals(self):
        pair = binary_codebooks(8, 4, 4, seed=14)
        avg = packing_reports(pair)[0]
        ppm = packing_reports(pair)[1]
        for fam in FAMILY_ORDER:
            totals = count_map(avg.families[fam].table)
            for key, count in count_map(ppm.families[fam].table).items():
                assert count <= totals[key]

    def test_matches_independent_recount(self):
        pairs = [binary_codebooks(8, 4, 4, seed=s) for s in (31, 32)]
        for pair in pairs + [mixed_pair()]:
            rep = packing_reports(pair)[1]
            oracle = to.per_pair_max_needs(pair)
            for fam in FAMILY_ORDER:
                worst, peaks = oracle[fam]
                assert rep.families[fam].worst_need_delta == pytest.approx(
                    worst, abs=1e-12)
                assert count_map(rep.families[fam].table) == peaks


class TestPairNeedsMeetTheAudit:
    """A message pair's need is the least delta at which each of its types
    meets the family constraint the audit checks, less log2(count) / n."""

    @pytest.mark.parametrize("family,constraint", [
        ("pair", "pair_xy"), ("triple_x", "triple_x"),
        ("triple_y", "triple_y"), ("quad", "quad")])
    def test_need_puts_the_worst_type_on_the_bound(self, family, constraint):
        pair = binary_codebooks(12, 12, 12, seed=5)
        rates, law = pair.rates, pair.input_law()
        tally = _tally_family(pair, family)
        needs = codebooks._pair_needs(pair, family, tally, rates).ravel()
        assert needs.max() > 0.0
        for p, delta in enumerate(needs.tolist()):
            own = tally.pair == p
            batch = codebooks._family_batch(
                pair, family, tally._replace(types=tally.types[tally.type[own]]))
            checks = confusability_checks(batch, law, rates, delta)
            col = checks.names.index(constraint)
            gaps = [lhs - (checks.rhs[col] - math.log2(c) / pair.n)
                    for lhs, c in zip(checks.lhs[:, col], tally.count[own].tolist())]
            assert max(gaps) <= 1e-12
            if delta > 0.0:
                assert max(gaps) >= -1e-12


class TestExpurgate:
    def test_symmetric_rates_halve_the_y_book(self):
        pair = binary_codebooks(8, 8, 8, seed=20240817)
        res = expurgate(pair, 0.0)
        assert res.expurgated_book == "Y"
        assert [s.family for s in res.stages] == list(FAMILY_ORDER)
        assert [len(s.kept) for s in res.stages] == [4, 2, 1, 1]
        assert res.kept_x == tuple(range(8))
        assert (res.final.m_x, res.final.m_y) == (8, 1)

    def test_higher_rate_book_is_the_one_halved(self):
        low_x = expurgate(binary_codebooks(8, 4, 16, seed=7), 0.0)
        assert low_x.expurgated_book == "Y"
        assert (low_x.final.m_x, low_x.final.m_y) == (4, 1)
        low_y = expurgate(binary_codebooks(8, 16, 4, seed=7), 0.0)
        assert low_y.expurgated_book == "X"
        assert (low_y.final.m_x, low_y.final.m_y) == (1, 4)
        assert [s.family for s in low_y.stages] == [
            "pair", "triple_y", "triple_x", "quad"]

    def test_stage_bookkeeping_is_consistent(self):
        pair = binary_codebooks(8, 8, 8, seed=41)
        res = expurgate(pair, 0.0)
        kept = tuple(range(8))
        for stage in res.stages:
            assert stage.book == res.expurgated_book
            assert stage.kept == tuple(sorted(stage.kept))
            assert set(stage.kept) <= set(kept)
            assert stage.threshold_score >= 0.0
            kept = stage.kept
        assert res.kept_y == kept

    def test_rerun_is_deterministic(self):
        pair = binary_codebooks(8, 8, 8, seed=42)
        a = expurgate(pair, 0.0)
        b = expurgate(pair, 0.0)
        assert a.kept_x == b.kept_x and a.kept_y == b.kept_y
        assert a.achieved_delta == b.achieved_delta
        assert [s.threshold_score for s in a.stages] == [
            s.threshold_score for s in b.stages]

    def test_generous_target_skips_expurgation(self):
        pair = binary_codebooks(8, 4, 4, seed=43)
        res = expurgate(pair, 10.0)
        assert res.expurgated_book == "none"
        assert res.stages == ()
        assert (res.final.m_x, res.final.m_y) == (4, 4)
        assert res.product_ok

    def test_single_word_book_passes_through(self):
        res = expurgate(tiny_pair(), 0.0)
        assert res.expurgated_book == "Y"
        assert res.stages == ()
        assert (res.final.m_x, res.final.m_y) == (1, 1)
        assert res.achieved_delta["pair"] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_negative_target_is_refused(self):
        with pytest.raises(ValidationError):
            expurgate(binary_codebooks(6, 2, 2, seed=1), -0.1)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_target_is_refused(self, delta):
        pair = binary_codebooks(6, 2, 2, seed=1)
        with pytest.raises(ValidationError):
            expurgate(pair, delta)
        with pytest.raises(ValidationError):
            audit_confusability(pair, pair.rates, delta)
        with pytest.raises(ValidationError):
            packing_reports(pair)[0].satisfied(delta)

    def test_sixteenth_product_bound(self):
        for seed in (51, 52, 53):
            pair = binary_codebooks(8, 8, 8, seed=seed)
            res = expurgate(pair, 0.0)
            assert 16 * res.final.m_x * res.final.m_y >= pair.m_x * pair.m_y
            assert res.product_ok
            assert res.original_sizes == (8, 8)

    def test_average_tallies_grow_at_most_sixteenfold(self):
        pair = binary_codebooks(8, 8, 8, seed=54)
        res = expurgate(pair, 0.0)
        before = packing_reports(pair)[0]
        after = packing_reports(res.final)[0]
        for fam in FAMILY_ORDER:
            source = lhs_map(before.families[fam].table)
            for key, lhs in lhs_map(after.families[fam].table).items():
                assert key in source
                assert lhs <= 16 * source[key]

    def test_achieved_deltas_match_independent_recount(self):
        pairs = [binary_codebooks(8, 8, 8, seed=s) for s in (61, 62)]
        for pair in pairs + [mixed_pair()]:
            res = expurgate(pair, 0.0)
            r = pair.rates
            oracle = to.achieved_deltas(pair, res.kept_x, res.kept_y, r.rx, r.ry)
            for fam in FAMILY_ORDER:
                assert res.achieved_delta[fam] == pytest.approx(
                    oracle[fam], abs=1e-12)

    @pytest.mark.parametrize("delta", [0.0, 0.1, 10.0])
    def test_audit_matches_a_fresh_audit_of_the_final_books(self, delta):
        # staged, skipped (generous target) and single-word pass-through
        for pair in (binary_codebooks(8, 8, 8, seed=20240817), mixed_pair(),
                     tiny_pair()):
            res = expurgate(pair, delta)
            assert res.audit == audit_confusability(res.final, pair.rates,
                                                    delta)

    def test_tally_counts_per_command(self, monkeypatch, tmp_path):
        calls = []
        tally = codebooks._tally

        def counted(*args):
            calls.append(args)
            return tally(*args)

        monkeypatch.setattr(codebooks, "_tally", counted)
        pair = binary_codebooks(8, 8, 8, seed=20240817)
        res = expurgate(pair, 0.1)
        assert len(res.stages) == 4
        assert len(calls) == 8
        calls.clear()
        save_json(tmp_path / "books.json", codebook_to_dict(pair))
        assert main(["verify-packing", "--codebook",
                     str(tmp_path / "books.json"), "--delta", "1.0"]) == 0
        assert len(calls) == 6

    def test_final_books_pass_their_own_audit(self):
        pair = binary_codebooks(8, 8, 8, seed=63)
        res = expurgate(pair, 0.0)
        achieved = max(res.achieved_delta.values())
        rep = audit_confusability(res.final, pair.rates, achieved + 1e-12)
        assert rep.ok


class TestAuditConfusability:
    def test_single_pair_realizes_only_pair_patterns(self):
        rep = audit_confusability(tiny_pair(), tiny_pair().rates, 1.0)
        assert rep.pattern_counts == {
            "pair": 1, "triple_x": 0, "triple_y": 0, "quad": 0}
        assert rep.distinct_types == rep.pattern_counts

    def test_dependent_single_words_fail_at_zero_delta(self):
        tiny = tiny_pair()
        rep = audit_confusability(tiny, tiny.rates, 0.0)
        assert not rep.ok
        names = {v.constraint for v in rep.violations}
        assert "pair_xy" in names
        for v in rep.violations:
            assert v.lhs > v.rhs

    def test_raw_books_fail_and_counts_cover_all_patterns(self):
        pair = binary_codebooks(8, 8, 8, seed=20240817)
        rep = audit_confusability(pair, pair.rates, 0.0)
        assert not rep.ok
        m = 8
        assert rep.pattern_counts["pair"] == m * m
        assert rep.pattern_counts["triple_x"] == m * m * (m - 1)
        assert rep.pattern_counts["triple_y"] == m * m * (m - 1)
        assert rep.pattern_counts["quad"] == m * m * (m - 1) * (m - 1)

    def test_explicit_law_matches_default(self):
        pair = binary_codebooks(8, 4, 4, seed=71)
        a = audit_confusability(pair, pair.rates, 0.05)
        b = audit_confusability(pair, pair.rates, 0.05, law=pair.input_law())
        assert a.ok == b.ok and a.violations == b.violations


class TestSingleUserPacking:
    def test_single_word_has_no_competitors(self):
        pair = binary_codebooks(6, 1, 1, seed=2)
        u_seq = SymbolSequence(pair.u_alphabet, tuple(pair.u_seq.tolist()))
        rep = single_user_packing_check(u_seq, pair.x_book, pair.x_alphabet)
        assert len(rep.avg.counts) == 0
        assert rep.avg_worst_need_delta == 0.0
        assert rep.per_word_worst_need_delta == 0.0
        assert rep.satisfied(0.0)

    def test_total_patterns_cover_all_ordered_pairs(self):
        pair = binary_codebooks(8, 6, 1, seed=3)
        u_seq = SymbolSequence(pair.u_alphabet, tuple(pair.u_seq.tolist()))
        rep = single_user_packing_check(u_seq, pair.x_book, pair.x_alphabet)
        assert rep.avg.counts.sum() == 6 * 5

    def test_matches_independent_recount(self):
        binary = binary_codebooks(10, 8, 1, seed=4)
        mixed = mixed_pair()
        for pair, book, alphabet, rate in (
                (binary, binary.x_book, binary.x_alphabet, 0.3),
                (mixed, mixed.x_book, mixed.x_alphabet, math.log2(6) / 8),
                (mixed, mixed.y_book, mixed.y_alphabet, 0.25)):
            u_seq = SymbolSequence(pair.u_alphabet, tuple(pair.u_seq.tolist()))
            rep = single_user_packing_check(u_seq, book, alphabet)
            aw, pw = to.single_user_needs(pair.u_seq.tolist(),
                                          [r.tolist() for r in book],
                                          pair.u_alphabet.size, alphabet.size)
            assert rep.avg_worst_need_delta == pytest.approx(aw, abs=1e-12)
            assert rep.per_word_worst_need_delta == pytest.approx(pw, abs=1e-12)
            assert rep.rate == pytest.approx(rate, abs=1e-15)
            assert rep.satisfied(max(aw, pw))

    @pytest.mark.parametrize("symbol", [2, -1])
    def test_symbols_outside_the_alphabet_are_refused(self, symbol):
        pair = binary_codebooks(6, 3, 1, seed=3)
        u_seq = SymbolSequence(pair.u_alphabet, tuple(pair.u_seq.tolist()))
        book = pair.x_book.copy()
        book[1, 2] = symbol
        with pytest.raises(ValidationError,
                           match="book contains symbols outside its alphabet"):
            single_user_packing_check(u_seq, book, pair.x_alphabet)

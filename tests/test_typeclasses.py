"""Exact type combinatorics: enumeration, class sizes, sampling."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import macexp.typeclasses as typeclasses
from macexp import (
    Alphabet,
    ScaleGuardError,
    SymbolSequence,
    TypeVector,
    ValidationError,
    empirical_type,
    enumerate_lattice,
    enumerate_types,
    in_type_class,
    sample_conditional_type_class,
    type_class_size,
)
from macexp.probability import term_sums
from macexp.typeclasses import compositions_array, distinct_rows


def _axes(*sizes, labels="XYZAB"):
    return tuple(Alphabet(s, labels[i]) for i, s in enumerate(sizes))


def _seq(symbols, size=2, label="X"):
    return SymbolSequence(Alphabet(size, label), tuple(symbols))


class TestEmpiricalType:
    def test_single_sequence(self):
        t = empirical_type([_seq([0, 1, 1, 0])])
        assert t.n == 4
        assert t.counts.tolist() == [2, 2]

    def test_pair_concentrates_on_cell(self):
        t = empirical_type([_seq([0, 0]), _seq([1, 1], label="Y")])
        assert t.counts.tolist() == [[0, 2], [0, 0]]

    def test_five_axes_match_positionwise_tally(self):
        rng = np.random.default_rng(3)
        n = 6
        labels = ("U", "X", "Y", "A", "B")
        seqs = [_seq(rng.integers(0, 2, n), label=l) for l in labels]
        t = empirical_type(seqs)
        want = np.zeros((2,) * 5, dtype=np.int64)
        for pos in range(n):
            cell = tuple(int(s.symbols[pos]) for s in seqs)
            want[cell] += 1
        assert np.array_equal(t.counts, want)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            empirical_type([_seq([0, 1]), _seq([0], label="Y")])


class TestRefusedInput:
    @pytest.mark.parametrize("symbols, message", [
        ((0.9, 1.7), "must hold integer symbols"),
        ((True, False), "must hold integer symbols"),
        ((0, 2), "contains symbols outside its alphabet"),
        ((-1, 0), "contains symbols outside its alphabet")],
        ids=["floats", "bools", "past_the_end", "negative"])
    def test_words_hold_integer_symbols_of_their_alphabet(self, symbols,
                                                           message):
        with pytest.raises(ValidationError,
                           match=f"^word over alphabet 'X' {message}$"):
            _seq(symbols)

    def test_a_word_is_one_dimensional(self):
        with pytest.raises(ValidationError, match="1-D word"):
            _seq([(0, 1), (1, 0)])

    @pytest.mark.parametrize("n, message", [
        (4.0, "must be an integer"), (np.float64(4.0), "must be an integer"),
        (0, "must be >= 1")], ids=["float", "float64", "zero"])
    def test_type_denominator_is_a_positive_integer(self, n, message):
        counts = np.asarray([1, 3] if n else [0, 0])
        with pytest.raises(ValidationError, match=f"^TypeVector: n {message}$"):
            TypeVector(_axes(2), counts, n)

    @pytest.mark.parametrize("n, message", [
        (2.5, "must be an integer"), (True, "must be an integer"),
        (0, "must be >= 1")], ids=["float", "bool", "zero"])
    def test_enumeration_denominator_is_a_positive_integer(self, n, message):
        with pytest.raises(ValidationError,
                           match=f"^enumerate_types: n {message}$"):
            next(enumerate_types(n, _axes(2)))


class TestEnumerateTypes:
    def test_stars_and_bars_counts(self):
        assert len(list(enumerate_types(2, _axes(2)))) == 3
        assert len(list(enumerate_types(4, _axes(2)))) == 5
        assert len(list(enumerate_types(4, _axes(2, 2)))) == 35

    def test_no_duplicates_lexicographic(self):
        seen = [t.counts.ravel().tolist() for t in enumerate_types(5, _axes(3))]
        assert len(seen) == len({tuple(s) for s in seen})
        assert seen == sorted(seen)

    def test_every_type_sums_to_n(self):
        for t in enumerate_types(6, _axes(2, 2)):
            assert int(t.counts.sum()) == 6


class TestCountingIdentity:
    def test_total_class_sizes_cover_all_sequences(self):
        for size in (1, 2, 3):
            for n in range(1, 11):
                total = sum(type_class_size(t)
                            for t in enumerate_types(n, _axes(size)))
                assert total == size ** n

    def test_product_alphabet_identity(self):
        for n in range(1, 7):
            total = sum(type_class_size(t)
                        for t in enumerate_types(n, _axes(2, 2)))
            assert total == 4 ** n


class TestTypeClassSize:
    def test_point_mass(self):
        t = TypeVector(_axes(2), np.asarray([4, 0]), 4)
        assert type_class_size(t) == 1

    def test_balanced_binary(self):
        t = TypeVector(_axes(2), np.asarray([2, 2]), 4)
        assert type_class_size(t) == 6

    def test_three_one(self):
        t = TypeVector(_axes(2), np.asarray([3, 1]), 4)
        assert type_class_size(t) == 4

    def test_matches_multinomial(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            counts = rng.multinomial(9, [0.25, 0.25, 0.5])
            t = TypeVector(_axes(3), counts.astype(np.int64), 9)
            want = math.factorial(9)
            for c in counts:
                want //= math.factorial(int(c))
            assert type_class_size(t) == want


class TestInTypeClass:
    def test_matching_tally(self):
        t = TypeVector(_axes(2), np.asarray([2, 2]), 4)
        assert in_type_class(t, [_seq([0, 1, 0, 1])])

    def test_joint_permutation_invariance(self):
        x = _seq([0, 1, 1, 0])
        y = _seq([1, 1, 0, 0], label="Y")
        t = empirical_type([x, y])
        perm = [2, 0, 3, 1]
        xp = _seq([x.symbols[i] for i in perm])
        yp = _seq([y.symbols[i] for i in perm], label="Y")
        assert in_type_class(t, [xp, yp])

    def test_single_symbol_difference(self):
        t = TypeVector(_axes(2), np.asarray([2, 2]), 4)
        assert not in_type_class(t, [_seq([0, 1, 1, 1])])


class TestConditionalSampling:
    def _cond(self, counts, n):
        axes = (Alphabet(len(counts), "U"), Alphabet(len(counts[0]), "X"))
        return TypeVector(axes, np.asarray(counts, dtype=np.int64), n)

    def test_prescribed_counts_always_exact(self):
        u = SymbolSequence(Alphabet(2, "U"), (0, 0, 0, 1, 1, 1))
        cond = self._cond([[2, 1], [1, 2]], 6)
        rng = np.random.default_rng(9)
        for _ in range(1000):
            x = sample_conditional_type_class(cond, u, rng)
            joint = empirical_type([u, x])
            assert np.array_equal(joint.counts, cond.counts)

    def test_deterministic_conditional_unique(self):
        u = SymbolSequence(Alphabet(2, "U"), (0, 1, 0, 1))
        cond = self._cond([[2, 0], [0, 2]], 4)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = sample_conditional_type_class(cond, u, rng)
            assert x.symbols == (0, 1, 0, 1)

    def test_constant_u_reduces_to_plain_class(self):
        u = SymbolSequence(Alphabet(1, "U"), (0,) * 4)
        cond = self._cond([[2, 2]], 4)
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = sample_conditional_type_class(cond, u, rng)
            assert sorted(x.symbols) == [0, 0, 1, 1]

    def test_equal_seeds_equal_draws(self):
        u = SymbolSequence(Alphabet(2, "U"), (0, 0, 1, 1, 0, 1))
        cond = self._cond([[2, 1], [1, 2]], 6)
        a = [sample_conditional_type_class(cond, u, np.random.default_rng(77))
             for _ in range(1)]
        b = [sample_conditional_type_class(cond, u, np.random.default_rng(77))
             for _ in range(1)]
        assert a[0].symbols == b[0].symbols

    def test_infeasible_counts_rejected(self):
        u = SymbolSequence(Alphabet(2, "U"), (0, 0, 0, 1))
        # u has three zeros but the type prescribes two symbols under u=0
        cond = self._cond([[1, 1], [1, 1]], 4)
        from macexp import ConstructionError
        with pytest.raises(ConstructionError):
            sample_conditional_type_class(cond, u, np.random.default_rng(0))

    def test_sampling_uniform_over_class(self):
        # all 20 members of T_(3,3) should be hit uniformly
        u = SymbolSequence(Alphabet(1, "U"), (0,) * 6)
        cond = self._cond([[3, 3]], 6)
        rng = np.random.default_rng(123)
        members = [p for p in itertools.product((0, 1), repeat=6)
                   if sum(p) == 3]
        index = {p: i for i, p in enumerate(members)}
        hits = np.zeros(len(members), dtype=np.int64)
        draws = 50000
        for _ in range(draws):
            x = sample_conditional_type_class(cond, u, rng)
            hits[index[x.symbols]] += 1
        assert int(hits.sum()) == draws
        _, p_value = stats.chisquare(hits)
        assert p_value > 0.001


class TestEnumerateLattice:
    def test_point_masses_at_denominator_one(self):
        pts = list(enumerate_lattice(1, _axes(3)))
        assert len(pts) == 3
        for p in pts:
            assert sorted(p.probs.tolist()) == [0.0, 0.0, 1.0]

    def test_binary_counts(self):
        assert len(list(enumerate_lattice(4, _axes(2)))) == 5

    def test_three_axis_count(self):
        assert len(list(enumerate_lattice(4, _axes(2, 2, 2)))) == 330

    def test_entries_are_d_rational(self):
        for p in enumerate_lattice(3, _axes(2, 2)):
            scaled = p.probs * 3
            assert np.allclose(scaled, np.round(scaled), atol=1e-12)


class TestScaleGuards:
    """One byte budget, rows x cells, refuses every enumeration before it
    builds anything."""

    def test_enumerate_types_refuses_over_budget(self, monkeypatch):
        # 15 rows x 2 cells at d = 14, one byte over a budget of 29
        monkeypatch.setattr(typeclasses, "ENUM_BYTES", 29)
        with pytest.raises(ScaleGuardError, match="15 types over 2 cells"):
            next(enumerate_types(14, _axes(2)))
        with pytest.raises(ScaleGuardError):
            next(enumerate_lattice(14, _axes(2)))
        assert len(list(enumerate_types(13, _axes(2)))) == 14

    def test_compositions_array_refuses_over_budget(self, monkeypatch):
        monkeypatch.setattr(typeclasses, "ENUM_BYTES", 29)
        with pytest.raises(ScaleGuardError, match="30 bytes"):
            compositions_array(2, 14)
        assert compositions_array(2, 13).shape == (14, 2)

    def test_formerly_refused_requests_run(self):
        # denominator 13 on one binary axis, and 54 cells at d = 2
        assert len(list(enumerate_types(13, _axes(2)))) == 14
        assert len(list(enumerate_types(2, _axes(3, 3, 2, 3)))) == 1485
        assert compositions_array(54, 2).shape == (1485, 54)


class TestCompositionsArray:
    """The array holds the generator's rows in its order, and building it
    holds little more than the result."""

    @pytest.mark.parametrize("cells, total", [(1, 0), (1, 5), (2, 0), (3, 4),
                                              (4, 6), (6, 3)])
    def test_rows_follow_the_generator(self, cells, total):
        want = [list(c) for c in typeclasses._compositions(cells, total)]
        got = compositions_array(cells, total)
        assert got.dtype == np.uint8
        assert got.tolist() == want

    @pytest.mark.parametrize("cells, total", [(8, 20), (16, 8)])
    def test_peak_is_the_result(self, cells, total):
        tracemalloc.start()
        try:
            rows = compositions_array(cells, total)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * rows.nbytes
        # every composition, each once, in strictly ascending lexicographic
        # order: exactly the generator's rows
        assert len(rows) == math.comb(total + cells - 1, cells - 1)
        assert (rows.sum(axis=1) == total).all()
        step = np.diff(rows.astype(np.int16), axis=0)
        first = (step != 0).argmax(axis=1)
        assert (step[np.arange(len(step)), first] > 0).all()


class TestDistinctRows:
    @pytest.mark.parametrize("cols", [1, 3])
    def test_matches_numpy_unique(self, cols):
        rng = np.random.default_rng(cols)
        for z in (rng.integers(-5, 6, size=(500, cols)),
                  np.sort(rng.integers(0, 1 << 40, size=(300, cols)), axis=0),
                  np.repeat(rng.integers(0, 3, size=(7, cols)), 40, axis=0),
                  np.zeros((0, cols), dtype=np.int64)):
            rows, inverse = distinct_rows(z)
            want, want_inverse = np.unique(z, axis=0, return_inverse=True)
            assert np.array_equal(rows, want)
            assert np.array_equal(inverse, want_inverse.ravel())
            assert np.array_equal(rows[inverse], z)


class TestTermSums:
    # the decoder, the lattice build and the JointBatch evaluator rely on
    # term_sums adding terms in numpy's own row-sum order; if numpy ever
    # changes that order, this is the test that fails first
    @pytest.mark.parametrize("lengths", [range(1, 101), range(101, 201),
                                         range(201, 301), [1037]])
    def test_equals_numpy_row_sums_bit_for_bit(self, lengths):
        rng = np.random.default_rng(lengths[0])
        for k in lengths:
            # magnitudes from 1e-8 to 1e8, both signs, zeros of both signs;
            # column 0 is all -0.0 and column 1 mixes the two zeros
            terms = (rng.standard_normal((k, 3, 5))
                     * 10.0 ** rng.integers(-8, 9, size=(k, 3, 5)))
            terms[rng.random(terms.shape) < 0.2] = 0.0
            terms[rng.random(terms.shape) < 0.1] = -0.0
            terms[:, 0, 0] = -0.0
            terms[:, 0, 1] = np.where(np.arange(k) % 2, 0.0, -0.0)
            want = np.stack(list(terms), -1).sum(-1)
            kept = terms.copy()
            fresh = term_sums(terms, overwrite=False)
            assert terms.tobytes() == kept.tobytes()
            assert fresh.tobytes() == want.tobytes(), k
            got = term_sums(terms)
            assert got.tobytes() == want.tobytes(), k

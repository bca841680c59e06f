"""Minimum-equivocation decoding and error probability estimation.

The n=6 identity-channel books (seed 0) decode uniquely for every message
pair, which makes the noiseless cases exact zeros.  The n=3 code on the
mod-2 adder with a 0.1 flip is small enough to enumerate exactly, so the
Monte Carlo estimator can be cross-checked against the true value.  The
block scorer, the Monte Carlo error count and the exact enumeration are
also compared for equality with the one-sequence-at-a-time decoder in
``decoder_oracle`` on generated pairs.
"""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import decoder_oracle as oracle
from helpers import (binary_codebooks, identity_channel, perfbench_book,
                     xor_bsc)
from macexp import Alphabet, TypeVector, simulate
from macexp.codebooks import CodebookPair
from macexp.errors import ScaleGuardError, ValidationError
from macexp.probability import Channel, product_channel_likelihood
from macexp.simulate import (
    _BlockScorer,
    alpha_decode,
    equivocation_scores,
    error_prob_exact,
    error_prob_mc,
)
from macexp.typeclasses import code_places


def clean_pair():
    """2x2 books at n=6 that the identity channel decodes without error."""
    return binary_codebooks(6, 2, 2, seed=0)


def noisy_pair():
    """2x2 books at n=3 for the enumerable noisy cross-checks."""
    return binary_codebooks(3, 2, 2, seed=5, x_ones=1, y_ones=1)


def mirror_pair():
    """Identical two-word books; swapping (i, j) mirrors the joint type."""
    u_alph, x_alph, y_alph = Alphabet(1, "U"), Alphabet(2, "X"), Alphabet(2, "Y")
    words = np.asarray([[0, 1], [1, 0]], dtype=np.int64)
    p_ux = TypeVector((u_alph, x_alph), np.asarray([[1, 1]], dtype=np.int64), 2)
    p_uy = TypeVector((u_alph, y_alph), np.asarray([[1, 1]], dtype=np.int64), 2)
    return CodebookPair(np.zeros(2, dtype=np.int64), words, words.copy(),
                        u_alph, x_alph, y_alph, p_ux, p_uy)


class TestAlphaDecode:
    def test_identity_output_decodes_the_true_pair(self):
        pair = clean_pair()
        z = 2 * pair.x_book[0] + pair.y_book[1]
        out = alpha_decode(pair, identity_channel(), z)
        assert (out.i, out.j) == (0, 1)
        assert not out.ambiguous
        assert out.score == 0.0

    def test_every_message_decodes_on_the_identity_channel(self):
        pair = clean_pair()
        w = identity_channel()
        for i, j in product(range(2), range(2)):
            z = 2 * pair.x_book[i] + pair.y_book[j]
            out = alpha_decode(pair, w, z)
            assert (out.i, out.j, out.ambiguous) == (i, j, False)

    def test_winner_is_a_strict_minimum(self):
        pair = noisy_pair()
        w = xor_bsc(0.1)
        out = alpha_decode(pair, w, (0, 1, 1))
        assert not out.ambiguous
        scores = equivocation_scores(pair, w, (0, 1, 1))
        others = np.delete(scores.ravel(), out.i * pair.m_y + out.j)
        assert (others > out.score + 1e-12).all()

    def test_single_candidate_always_wins(self):
        pair = binary_codebooks(4, 1, 1, seed=3)
        out = alpha_decode(pair, xor_bsc(0.1), (1, 0, 1, 0))
        assert (out.i, out.j, out.ambiguous) == (0, 0, False)

    def test_mirrored_books_tie_to_ambiguous(self):
        out = alpha_decode(mirror_pair(), xor_bsc(0.0), (0, 0))
        assert out.ambiguous
        assert out.i is None and out.j is None
        assert out.score == pytest.approx(1.0, abs=0)

    def test_received_sequence_is_validated(self):
        pair = clean_pair()
        w = identity_channel()
        with pytest.raises(ValidationError):
            alpha_decode(pair, w, (0, 1))
        with pytest.raises(ValidationError):
            alpha_decode(pair, w, (0, 1, 2, 3, 0, 9))

    def test_non_integer_symbols_are_refused(self):
        with pytest.raises(ValidationError):
            alpha_decode(noisy_pair(), xor_bsc(0.1), (0.9, 1.7, 1.2))
        with pytest.raises(ValidationError):
            equivocation_scores(noisy_pair(), xor_bsc(0.1), (0.0, 1.0, 1.0))

    def test_channel_alphabet_mismatch_is_refused(self):
        pair = clean_pair()
        wide = Channel(Alphabet(3, "X"), Alphabet(2, "Y"), Alphabet(2, "Z"),
                       np.full((3, 2, 2), 0.5))
        with pytest.raises(ValidationError):
            alpha_decode(pair, wide, (0,) * 6)

    @pytest.mark.parametrize("entry", [
        lambda pair, w: alpha_decode(pair, w, (0,) * 6),
        lambda pair, w: equivocation_scores(pair, w, (0,) * 6),
        lambda pair, w: error_prob_exact(pair, w),
        lambda pair, w: error_prob_mc(pair, w, 10, seed=1),
    ], ids=["alpha_decode", "equivocation_scores", "error_prob_exact",
            "error_prob_mc"])
    def test_every_entry_point_names_both_alphabet_sizes(self, entry):
        # binary books against a channel with the X and Y sizes swapped
        swapped = Channel(Alphabet(2, "X"), Alphabet(3, "Y"), Alphabet(2, "Z"),
                          np.full((2, 3, 2), 0.5))
        with pytest.raises(ValidationError, match=r"^channel input alphabets "
                           r"2x3 do not match the books' 2x2$"):
            entry(clean_pair(), swapped)


class TestExactError:
    def test_identity_channel_is_error_free(self):
        est = error_prob_exact(clean_pair(), identity_channel())
        assert est.p == 0.0
        assert est.stderr == 0.0
        assert est.method == "exact"
        assert (est.per_pair == 0.0).all()

    def test_single_pair_never_errs(self):
        pair = binary_codebooks(4, 1, 1, seed=3)
        assert error_prob_exact(pair, xor_bsc(0.3)).p == 0.0

    def test_value_and_per_pair_structure(self):
        est = error_prob_exact(noisy_pair(), xor_bsc(0.1))
        assert 0.0 <= est.p <= 1.0
        assert est.per_pair.shape == (2, 2)
        assert est.p == pytest.approx(est.per_pair.mean(), abs=1e-15)
        assert (est.per_pair >= 0.0).all()
        assert (est.per_pair <= 1.0 + 1e-9).all()

    def test_product_likelihoods_are_stochastic(self):
        pair = noisy_pair()
        w = xor_bsc(0.1)
        for i, j in product(range(2), range(2)):
            total = sum(
                product_channel_likelihood(w, pair.x_book[i], pair.y_book[j], z)
                for z in product(range(2), repeat=3))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_mirrored_books_always_err(self):
        est = error_prob_exact(mirror_pair(), xor_bsc(0.0))
        assert est.p == 1.0
        assert (est.per_pair == 1.0).all()

    def test_output_enumeration_guard(self):
        pair = binary_codebooks(23, 1, 1, seed=1)
        with pytest.raises(ScaleGuardError):
            error_prob_exact(pair, xor_bsc(0.1))

    def test_guard_override_matches_default(self):
        pair = noisy_pair()
        w = xor_bsc(0.1)
        with pytest.raises(ScaleGuardError):
            error_prob_exact(pair, w, max_outputs=7)
        assert error_prob_exact(pair, w, max_outputs=8).p == \
            error_prob_exact(pair, w).p

    @pytest.mark.parametrize("max_outputs, message", [
        (0, "must be >= 1"), (-5, "must be >= 1"),
        (2.5, "must be an integer"), (True, "must be an integer")])
    def test_guard_must_be_a_positive_integer(self, max_outputs, message):
        # bad input, not a scale refusal: no guard value is reported
        with pytest.raises(ValidationError, match=f"max_outputs {message}"):
            error_prob_exact(noisy_pair(), xor_bsc(0.1),
                             max_outputs=max_outputs)


class TestMonteCarlo:
    def test_noiseless_identity_is_error_free(self):
        est = error_prob_mc(clean_pair(), identity_channel(), 500, seed=1)
        assert est.p == 0.0
        assert est.method == "mc"
        assert est.trials == 500

    def test_same_seed_reproduces_exactly(self):
        a = error_prob_mc(noisy_pair(), xor_bsc(0.1), 3000, seed=12)
        b = error_prob_mc(noisy_pair(), xor_bsc(0.1), 3000, seed=12)
        assert a.p == b.p and a.stderr == b.stderr

    def test_matches_exact_within_three_stderr(self):
        pair = noisy_pair()
        w = xor_bsc(0.1)
        exact = error_prob_exact(pair, w)
        mc = error_prob_mc(pair, w, 100_000, seed=7)
        assert abs(exact.p - mc.p) <= 3.0 * mc.stderr

    def test_stderr_uses_the_binomial_formula(self):
        mc = error_prob_mc(noisy_pair(), xor_bsc(0.1), 3000, seed=12)
        assert mc.stderr == pytest.approx(
            math.sqrt(mc.p * (1.0 - mc.p) / 3000), abs=0)

    def test_doubling_trials_shrinks_stderr_like_root_two(self):
        pair = noisy_pair()
        w = xor_bsc(0.1)
        small = error_prob_mc(pair, w, 8192, seed=9)
        large = error_prob_mc(pair, w, 16384, seed=9)
        assert 0.55 <= large.stderr / small.stderr <= 0.85

    def test_extending_trials_preserves_early_blocks(self):
        pair = noisy_pair()
        w = xor_bsc(0.1)
        small = error_prob_mc(pair, w, 8192, seed=9)
        large = error_prob_mc(pair, w, 16384, seed=9)
        early = round(small.p * 8192)
        late = round(large.p * 16384)
        assert 0 <= late - early <= 8192

    def test_fifty_seed_mean_is_unbiased(self):
        pair = noisy_pair()
        w = xor_bsc(0.1)
        exact = error_prob_exact(pair, w).p
        trials = 2000
        estimates = [error_prob_mc(pair, w, trials, seed=s).p for s in range(50)]
        pooled = math.sqrt(exact * (1.0 - exact) / trials / 50)
        assert abs(np.mean(estimates) - exact) <= 3.0 * pooled

    def test_trials_must_be_positive(self):
        with pytest.raises(ValidationError):
            error_prob_mc(noisy_pair(), xor_bsc(0.1), 0, seed=1)

    def test_boolean_trials_are_refused(self):
        with pytest.raises(ValidationError):
            error_prob_mc(noisy_pair(), xor_bsc(0.1), True, seed=1)

    def test_fractional_trials_are_refused(self):
        with pytest.raises(ValidationError):
            error_prob_mc(noisy_pair(), xor_bsc(0.1), 2.5, seed=1)

    def test_negative_seed_is_refused(self):
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            error_prob_mc(noisy_pair(), xor_bsc(0.1), 10, seed=-1)


def _book(rng, u, size, m, su):
    """Up to m distinct words sharing one joint type with u."""
    base = rng.integers(0, size, size=u.size)
    words = [base]
    for _ in range(m - 1):
        word = base.copy()
        for a in range(su):
            at = np.flatnonzero(u == a)
            word[at] = word[rng.permutation(at)]
        if not any(np.array_equal(word, v) for v in words):
            words.append(word)
    counts = np.bincount(u * size + base, minlength=su * size)
    return np.asarray(words), counts.reshape(su, size)


def _near_book(rng, u, m):
    """m distinct binary words, each a base word with one pair of
    symbols swapped within a u section: one joint type with u, and
    confusable."""
    base = rng.integers(0, 2, size=u.size)
    words = [base]
    while len(words) < m:
        section = u == rng.integers(0, 2)
        i = rng.choice(np.flatnonzero(section & (base == 0)))
        j = rng.choice(np.flatnonzero(section & (base == 1)))
        word = base.copy()
        word[[i, j]] = word[[j, i]]
        if not any(np.array_equal(word, v) for v in words):
            words.append(word)
    return np.asarray(words), np.bincount(u * 2 + base, minlength=4).reshape(2, 2)


@st.composite
def decoder_cases(draw):
    """A small codebook pair and a channel, some of its entries zero."""
    su, sx, sy, sz = (draw(st.integers(lo, 3)) for lo in (1, 2, 2, 2))
    n = draw(st.integers(2, 7 if sz == 3 else 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = rng.integers(0, su, size=n)
    alph = [Alphabet(su, "U"), Alphabet(sx, "X"), Alphabet(sy, "Y")]
    x_book, ux = _book(rng, u, sx, draw(st.integers(1, 3)), su)
    y_book, uy = _book(rng, u, sy, draw(st.integers(1, 3)), su)
    pair = CodebookPair(u, x_book, y_book, *alph,
                        TypeVector((alph[0], alph[1]), ux, n),
                        TypeVector((alph[0], alph[2]), uy, n))
    w = rng.gamma(1.0, 1.0, size=(sx, sy, sz))
    w[rng.random(w.shape) < 0.3] = 0.0
    w[..., 0] += w.sum(axis=2) == 0.0
    w /= w.sum(axis=2, keepdims=True)
    return pair, Channel(alph[1], alph[2], Alphabet(sz, "Z"), w)


def cell_case(su, sx, sy, sz, n, m, seed):
    """Books of up to m words each over |U| = su, |X| = sx, |Y| = sy, and a
    channel to |Z| = sz with some zero entries."""
    rng = np.random.default_rng(seed)
    u = rng.integers(0, su, size=n)
    alph = [Alphabet(su, "U"), Alphabet(sx, "X"), Alphabet(sy, "Y")]
    x_book, ux = _book(rng, u, sx, m, su)
    y_book, uy = _book(rng, u, sy, m, su)
    pair = CodebookPair(u, x_book, y_book, *alph,
                        TypeVector((alph[0], alph[1]), ux, n),
                        TypeVector((alph[0], alph[2]), uy, n))
    w = rng.gamma(1.0, 1.0, size=(sx, sy, sz))
    w[rng.random(w.shape) < 0.3] = 0.0
    w[..., 0] += w.sum(axis=2) == 0.0
    w /= w.sum(axis=2, keepdims=True)
    return pair, Channel(alph[1], alph[2], Alphabet(sz, "Z"), w)


# (|U|, |X|, |Y|, |Z|, n, words per book): each pair's score sums
# |U||X||Y||Z| terms, which numpy adds in order below 8, in eight running
# sums up to 128 and in halves beyond; the last case is a single pair
CELL_CASES = {6: (1, 2, 1, 3, 6, 3), 36: (2, 2, 3, 3, 5, 3),
              144: (2, 3, 4, 6, 4, 2), 8: (1, 2, 2, 2, 5, 1)}


def pair_classes(pair):
    """The distinct (u, x, y) counts n_c of the candidate pairs."""
    sx, sy = pair.x_alphabet.size, pair.y_alphabet.size
    cells = pair.u_alphabet.size * sx * sy
    return {tuple(np.bincount((pair.u_seq * sx + x) * sy + y,
                              minlength=cells).tolist())
            for x in pair.x_book for y in pair.y_book}


def table_entries(pair, sz):
    """Entries and classes of the scorer's type table: a class of pairs
    holds prod_c (n_c + 1)^(|Z| - 1) entries."""
    classes = pair_classes(pair)
    return (sum(math.prod(c + 1 for c in counts) ** (sz - 1)
                for counts in classes), len(classes))


ORACLE_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True)
# count cells per scored chunk: one row at a time, a few rows, the default
CHUNK_BUDGETS = st.sampled_from([1, 400, simulate.ENTROPY_CELLS])


class TestAgainstOracle:
    @ORACLE_SETTINGS
    @given(case=decoder_cases(), budget=CHUNK_BUDGETS,
           seed=st.integers(0, 2 ** 16))
    @example(case=(mirror_pair(), xor_bsc(0.0)), budget=1, seed=0)
    def test_block_scores_match(self, case, budget, seed):
        pair, w = case
        sz = w.z_alphabet.size
        z = np.random.default_rng(seed).integers(0, sz, size=(9, pair.n))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "ENTROPY_CELLS", budget)
            scorer = _BlockScorer(pair, sz)
            scores, winner, ambiguous = scorer.score(z)
            decoded = scorer.decode(z)
        for t, row in enumerate(z):
            expected = oracle.scores(pair, sz, row)
            assert np.array_equal(scores[t], expected)
            assert np.array_equal(equivocation_scores(pair, w, row).ravel(),
                                  expected)
            best, tied = oracle.decide(expected)
            assert (winner[t], ambiguous[t]) == (best, tied)
            assert decoded[t] == (-1 if tied else best)

    @ORACLE_SETTINGS
    @given(case=decoder_cases(), budget=CHUNK_BUDGETS,
           trials=st.integers(1, 5000), seed=st.integers(0, 2 ** 16))
    @example(case=(mirror_pair(), xor_bsc(0.1)), budget=1, trials=300,
             seed=0)
    def test_monte_carlo_error_count_matches(self, case, budget, trials,
                                             seed):
        pair, w = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "ENTROPY_CELLS", budget)
            est = error_prob_mc(pair, w, trials, seed)
        assert est.p == oracle.mc_errors(pair, w, trials, seed) / trials

    @ORACLE_SETTINGS
    @given(case=decoder_cases(), budget=CHUNK_BUDGETS)
    @example(case=(mirror_pair(), xor_bsc(0.1)), budget=1)
    @example(case=(clean_pair(), identity_channel()), budget=400)
    def test_exact_enumeration_matches(self, case, budget):
        pair, w = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "ENTROPY_CELLS", budget)
            est = error_prob_exact(pair, w)
        err = oracle.exact_errors(pair, w)
        assert np.array_equal(est.per_pair.ravel(), err)
        assert est.p == float(err.mean())

    @pytest.mark.parametrize("cells", list(CELL_CASES))
    def test_every_summation_regime_matches(self, cells):
        su, sx, sy, sz, n, m = CELL_CASES[cells]
        pair, w = cell_case(su, sx, sy, sz, n, m, seed=cells)
        assert su * sx * sy * sz == cells
        assert (pair.m_x * pair.m_y == 1) == (m == 1)
        err = oracle.exact_errors(pair, w)
        est = error_prob_exact(pair, w)
        assert np.array_equal(est.per_pair.ravel(), err)
        assert est.p == float(err.mean())
        assert (error_prob_mc(pair, w, 2000, seed=cells).p
                == oracle.mc_errors(pair, w, 2000, cells) / 2000)
        rng = np.random.default_rng(cells)
        for z in rng.integers(0, sz, size=(20, n)):
            assert np.array_equal(equivocation_scores(pair, w, z).ravel(),
                                  oracle.scores(pair, sz, z))

    def test_sequences_beyond_int64_codes_decode_exactly(self):
        pair = binary_codebooks(70, 2, 3, seed=1)
        w = xor_bsc(0.3)
        assert 2 ** pair.n > 2 ** 63
        assert table_entries(pair, 2)[0] > simulate.ENTROPY_CELLS
        assert _BlockScorer(pair, 2).types is None
        est = error_prob_mc(pair, w, 500, seed=4)
        assert est.p == oracle.mc_errors(pair, w, 500, 4) / 500

    def test_ternary_outputs_beyond_one_code_word_decode_exactly(
            self, monkeypatch):
        # |U| = 2 and n = 44: radix-3 codes take two int64 words.  Z = X + Y,
        # except that (1, 1) gives 1 or 2 at random, so outputs repeat
        # across RNG blocks and the memo's two-word codes are looked up
        rng = np.random.default_rng(1)
        n = 44
        u = rng.integers(0, 2, size=n)
        alph = [Alphabet(2, "U"), Alphabet(2, "X"), Alphabet(2, "Y")]
        (x_book, ux), (y_book, uy) = _near_book(rng, u, 3), _near_book(rng, u, 3)
        pair = CodebookPair(u, x_book, y_book, *alph,
                            TypeVector((alph[0], alph[1]), ux, n),
                            TypeVector((alph[0], alph[2]), uy, n))
        w = np.zeros((2, 2, 3))
        w[0, 0, 0] = w[0, 1, 1] = w[1, 0, 1] = 1.0
        w[1, 1] = [0.0, 0.5, 0.5]
        w = Channel(alph[1], alph[2], Alphabet(3, "Z"), w)
        assert len(code_places(3, n)) == 2
        # about 2 10^13 table entries: the per-cell path scores it
        assert table_entries(pair, 3)[0] > 10 ** 12
        assert _BlockScorer(pair, 3).types is None
        trials = 2 * simulate.RNG_BLOCK + 808
        want = oracle.mc_errors(pair, w, trials, 8) / trials
        assert 0.0 < want < 1.0
        assert error_prob_mc(pair, w, trials, seed=8).p == want
        monkeypatch.setattr(simulate, "MEMO_ENTRIES", 100)
        assert error_prob_mc(pair, w, trials, seed=8).p == want

    @pytest.mark.parametrize("budget", [1, 200, 400, simulate.ENTROPY_CELLS])
    def test_chunk_scratch_stays_within_the_budget(self, monkeypatch, budget):
        # the per-cell path's count tensors are products of the pairs'
        # one-hot and a chunk's (n, |Z| B) output one-hot; the table path's
        # entries and (u, z) counts are products of its index rows and the
        # chunk's (n |Z|, B) one-hot.  Every x log x sum adds one array of
        # terms: a table block's (cells, entries), a chunk's (cells, P, B)
        # or its (|U||Z|, B).  A chunk of one sequence, or a block of one
        # entry, cannot be split further
        shapes, sums = [], []
        matmul, term_sums = np.matmul, simulate.term_sums
        pair = binary_codebooks(8, 4, 3, seed=6)
        w = xor_bsc(0.2)
        n, sz = pair.n, w.z_alphabet.size

        def spy(cells, outputs):
            counts = matmul(cells, outputs)
            table = outputs.shape[0] == n * sz
            rows = outputs.shape[1] // (1 if table else sz)
            shapes.append((table, rows, outputs.size, counts.size))
            return counts

        def sum_spy(terms, *args):
            sums.append((terms.shape[-1], terms.size))
            return term_sums(terms, *args)

        monkeypatch.setattr(simulate, "ENTROPY_CELLS", budget)
        monkeypatch.setattr(np, "matmul", spy)
        monkeypatch.setattr(simulate, "term_sums", sum_spy)
        error_prob_exact(pair, w)
        error_prob_mc(pair, w, 3000, seed=1)
        monkeypatch.undo()
        assert shapes and sums
        # 209 entries: the table fits every budget but the two smallest
        assert table_entries(pair, sz)[0] == 209
        assert {table for table, *_ in shapes} == {budget >= 209}
        for _, rows, outputs, counts in shapes:
            assert rows == 1 or max(outputs, counts) <= budget
        assert (budget == 1) == all(rows == 1 for _, rows, _, _ in shapes)
        for columns, size in sums:
            assert columns == 1 or size <= budget

    def test_memo_bound_does_not_change_the_count(self, monkeypatch):
        pair = binary_codebooks(6, 3, 3, seed=2)
        w = xor_bsc(0.1)
        trials = 3 * simulate.RNG_BLOCK
        bounded = error_prob_mc(pair, w, trials, seed=5)
        monkeypatch.setattr(simulate, "MEMO_ENTRIES", 1)
        assert error_prob_mc(pair, w, trials, seed=5).p == bounded.p
        assert bounded.p == oracle.mc_errors(pair, w, trials, 5) / trials


TABLE_CASES = {
    # |U| = 2 and a ternary output, a channel entry zero: the classes hold
    # entries whose last counts are negative
    "u2_ternary": lambda: cell_case(2, 2, 2, 3, 5, 3, seed=7),
    # constant-composition books: pairs share their (u, x, y) counts
    "shared_classes": lambda: (binary_codebooks(6, 3, 3, seed=2),
                               xor_bsc(0.1)),
    "one_pair": lambda: (binary_codebooks(4, 1, 1, seed=3), xor_bsc(0.2)),
    # at n = 20 scores pass 64, where adding the cells in another order
    # changes the last bits of about one score in five
    "long_words": lambda: (binary_codebooks(20, 3, 3, seed=4), xor_bsc(0.2)),
}


class TestTypeTable:
    @pytest.mark.parametrize("fits", [True, False], ids=["fits", "over"])
    @pytest.mark.parametrize("case", list(TABLE_CASES))
    def test_both_sides_of_the_cap_match_the_oracle(self, monkeypatch, case,
                                                     fits):
        pair, w = TABLE_CASES[case]()
        sz, p_count = w.z_alphabet.size, pair.m_x * pair.m_y
        entries, classes = table_entries(pair, sz)
        if case == "u2_ternary":
            assert pair.u_alphabet.size == 2 and (w.w == 0.0).any()
            # a class's types: |Z| - 1 counts with sum at most n_c per cell
            reachable = sum(math.prod(math.comb(c + sz - 1, sz - 1)
                                      for c in counts)
                            for counts in pair_classes(pair))
            assert reachable < entries
        elif case == "one_pair":
            assert p_count == 1
        else:
            assert classes < p_count
        monkeypatch.setattr(simulate, "ENTROPY_CELLS",
                            entries if fits else entries - 1)
        types = _BlockScorer(pair, sz).types
        assert (types is not None) == fits
        assert not fits or types.size == entries
        if sz ** pair.n <= 1 << 12:  # the oracle enumerates in seconds
            exact = error_prob_exact(pair, w)
            err = oracle.exact_errors(pair, w)
            assert np.array_equal(exact.per_pair.ravel(), err)
            assert exact.p == float(err.mean())
        assert (error_prob_mc(pair, w, 3000, seed=4).p
                == oracle.mc_errors(pair, w, 3000, 4) / 3000)
        for z in np.random.default_rng(5).integers(0, sz, size=(50, pair.n)):
            expected = oracle.scores(pair, sz, z)
            assert np.array_equal(equivocation_scores(pair, w, z).ravel(),
                                  expected)
            best, tied = oracle.decide(expected)
            out = alpha_decode(pair, w, z)
            assert out.ambiguous == tied and out.score == expected[best]
            if not tied:
                assert (out.i, out.j) == divmod(best, pair.m_y)

    @pytest.mark.parametrize("variant", range(12))
    def test_every_decode_benchmark_book_takes_the_table(self, variant):
        # 994 or 1043 entries in 5 or 6 classes, against ENTROPY_CELLS
        pair = perfbench_book(variant, "decode", 12, 12)
        entries, classes = table_entries(pair, 2)
        assert entries in (994, 1043) and classes in (5, 6)
        types = _BlockScorer(pair, 2).types
        assert types is not None and types.size == entries
        for z in np.random.default_rng(variant).integers(0, 2, size=(20, 12)):
            assert np.array_equal(
                equivocation_scores(pair, xor_bsc(0.05), z).ravel(),
                oracle.scores(pair, 2, z))


class TestDecoderInvariance:
    def test_common_position_permutation_preserves_scores(self):
        pair = noisy_pair()
        w = xor_bsc(0.1)
        perm = np.asarray([2, 0, 1])
        permuted = CodebookPair(pair.u_seq[perm], pair.x_book[:, perm],
                                pair.y_book[:, perm], pair.u_alphabet,
                                pair.x_alphabet, pair.y_alphabet,
                                pair.p_ux, pair.p_uy)
        z = np.asarray([0, 1, 1])
        assert np.array_equal(equivocation_scores(pair, w, z),
                              equivocation_scores(permuted, w, z[perm]))
        a = alpha_decode(pair, w, z)
        b = alpha_decode(permuted, w, z[perm])
        assert (a.i, a.j, a.ambiguous, a.score) == (b.i, b.j, b.ambiguous, b.score)

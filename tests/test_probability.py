"""Distributions, channels and the information measures built on them."""

import math
import re

import numpy as np
import pytest

from macexp import (
    Alphabet,
    Channel,
    Dist,
    JointDist,
    SymbolSequence,
    TypeVector,
    ValidationError,
    conditional_entropy,
    conditional_kl_divergence,
    conditional_mutual_information,
    entropy,
    joint_from_law_and_channel,
    kl_divergence,
    marginalize,
    product_channel_likelihood,
)
from macexp import probability
from macexp.codebooks import generate_codebooks
from macexp.typeclasses import in_type_class, sample_conditional_type_class
from helpers import uniform_law, xor_bsc

# entropy of (3/4, 1/4), direct summation
H_THREE_QUARTERS = 0.8112781244591328
# binary entropy of 0.1, direct summation
H2_TENTH = 0.4689955935892812
# D((1/2,1/2) || (1/4,3/4)) = 1 - log2(3)/2, direct summation
KL_HALF_VS_SKEW = 0.20751874963942185


def _alpha(label, size=2):
    return Alphabet(size, label)


def _dist(probs, label="X"):
    return Dist(_alpha(label, len(probs)), np.asarray(probs, dtype=float))


def _joint(labels, probs):
    probs = np.asarray(probs, dtype=float)
    axes = tuple(_alpha(l, s) for l, s in zip(labels, probs.shape))
    return JointDist(axes, probs)


def _random_joint(rng, shape, labels):
    raw = rng.gamma(0.6, 1.0, size=shape)
    return _joint(labels, raw / raw.sum())


class TestConstruction:
    def test_negative_probs_rejected(self):
        with pytest.raises(ValidationError):
            _dist([1.2, -0.2])
        with pytest.raises(ValidationError):
            _joint("XY", [[0.6, -0.1], [0.3, 0.2]])

    def test_bad_total_rejected(self):
        with pytest.raises(ValidationError):
            _dist([0.4, 0.4])

    def test_near_one_total_renormalized(self):
        d = _dist([0.5 + 2e-10, 0.5])
        assert abs(float(np.sum(d.probs)) - 1.0) <= 1e-15

    def test_channel_rows_validated(self):
        with pytest.raises(ValidationError):
            Channel(_alpha("X"), _alpha("Y"), _alpha("Z"),
                    np.full((2, 2, 2), 0.45))

    def test_channel_row_refusal_prints_plain_numbers(self):
        # the worst row is named by its inputs, its sum as a plain float
        w = np.full((2, 3, 2), 0.5)
        w[1, 2] = [0.5, 0.4]
        with pytest.raises(ValidationError, match=r"^Channel: row \(x=1, y=2\) "
                           r"sums to 0\.9, not 1$"):
            Channel(_alpha("X"), _alpha("Y", 3), _alpha("Z"), w)

    def test_joint_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError):
            _joint("XX", np.full((2, 2), 0.25))

    @pytest.mark.parametrize("size", [2.5, True, np.float64(2.0), 0],
                             ids=["float", "bool", "float64", "zero"])
    def test_alphabet_size_must_be_a_positive_integer(self, size):
        with pytest.raises(ValidationError, match="^alphabet 'X' size must be"):
            Alphabet(size, "X")

    @pytest.mark.parametrize("bad, message", [
        (math.nan, "non-finite entries"), (math.inf, "non-finite entries"),
        (-0.25, "negative entries")], ids=["nan", "inf", "negative"])
    def test_every_constructor_refuses_an_entry_alike(self, bad, message):
        w = np.full((2, 2, 2), 0.5)
        w[0, 1, 0] = bad
        for what, make in (
                ("Dist", lambda: _dist(w[0, 1])),
                ("JointDist", lambda: _joint("XY", w[0] / 2)),
                ("Channel", lambda: Channel(_alpha("X"), _alpha("Y"),
                                            _alpha("Z"), w)),
                ("JointBatch", lambda: probability.JointBatch(("Z",), w[0]))):
            with pytest.raises(ValidationError, match=f"^{what}: {message}$"):
                make()


class TestEntropy:
    def test_point_mass(self):
        assert entropy(_dist([1.0, 0.0])) == 0.0

    def test_uniform_binary(self):
        assert entropy(_dist([0.5, 0.5])) == 1.0

    def test_three_quarters(self):
        assert abs(entropy(_dist([0.75, 0.25])) - H_THREE_QUARTERS) <= 1e-15

    def test_bounds_and_permutation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = rng.dirichlet(np.full(4, 0.5))
            h = entropy(_dist(p, "X"))
            assert -1e-12 <= h <= 2.0 + 1e-12
            perm = rng.permutation(4)
            assert abs(entropy(_dist(p[perm], "X")) - h) <= 1e-12


class TestConditionalEntropy:
    def test_deterministic_function_is_zero(self):
        joint = joint_from_law_and_channel(uniform_law().joint, xor_bsc(0.0))
        assert abs(conditional_entropy(joint, ("Z",), ("X", "Y"))) <= 1e-15

    def test_independent_uniform_output(self):
        j = _joint("XZ", np.full((2, 2), 0.25))
        assert abs(conditional_entropy(j, ("Z",), ("X",)) - 1.0) <= 1e-15

    def test_xor_bsc_noise_entropy(self):
        joint = joint_from_law_and_channel(uniform_law().joint, xor_bsc(0.1))
        got = conditional_entropy(joint, ("Z",), ("X", "Y"))
        assert abs(got - H2_TENTH) <= 1e-12

    def test_overlapping_axes_rejected(self):
        j = _joint("XZ", np.full((2, 2), 0.25))
        with pytest.raises(ValidationError):
            conditional_entropy(j, ("Z",), ("Z",))

    def test_conditioning_reduces_entropy(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            j = _random_joint(rng, (2, 2, 2), "ABC")
            lhs = conditional_entropy(j, ("A",), ("B", "C"))
            rhs = conditional_entropy(j, ("A",), ("C",))
            assert lhs <= rhs + 1e-12


class TestConditionalMutualInformation:
    def test_independent_given_u(self):
        j = uniform_law().joint
        got = conditional_mutual_information(j, ("X",), ("Y",), ("U",))
        assert abs(got) <= 1e-12

    def test_perfectly_correlated(self):
        j = _joint("XY", [[0.5, 0.0], [0.0, 0.5]])
        assert abs(conditional_mutual_information(j, ("X",), ("Y",)) - 1.0) <= 1e-12

    def test_matches_entropy_decomposition(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            j = _random_joint(rng, (2, 2, 2), "ABC")
            got = conditional_mutual_information(j, ("A",), ("B",), ("C",))
            want = (conditional_entropy(j, ("A",), ("C",))
                    - conditional_entropy(j, ("A",), ("B", "C")))
            assert abs(got - want) <= 1e-10

    def test_nonnegative(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            j = _random_joint(rng, (2, 3, 2), "ABC")
            assert conditional_mutual_information(j, ("A",), ("B",), ("C",)) >= -1e-12

    def test_chain_identity(self):
        # I(X~;Y|U) + I(X~;X|U,Y) = I(X~;X,Y|U)
        rng = np.random.default_rng(19)
        for _ in range(200):
            j = _random_joint(rng, (2, 2, 2, 2), ("U", "X", "Y", "T"))
            lhs = (conditional_mutual_information(j, ("T",), ("Y",), ("U",))
                   + conditional_mutual_information(j, ("T",), ("X",), ("U", "Y")))
            rhs = conditional_mutual_information(j, ("T",), ("X", "Y"), ("U",))
            assert abs(lhs - rhs) <= 1e-10

    def test_overlapping_axes_rejected(self):
        j = _random_joint(np.random.default_rng(0), (2, 2, 2), "ABC")
        with pytest.raises(ValidationError):
            conditional_mutual_information(j, ("A",), ("A",), ("C",))


class TestKLDivergence:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            p = rng.dirichlet(np.ones(3))
            assert kl_divergence(_dist(p, "X"), _dist(p.copy(), "X")) == 0.0

    def test_point_mass_vs_uniform(self):
        assert abs(kl_divergence(_dist([1.0, 0.0]), _dist([0.5, 0.5])) - 1.0) <= 1e-15

    def test_half_vs_skew(self):
        got = kl_divergence(_dist([0.5, 0.5]), _dist([0.25, 0.75]))
        assert abs(got - KL_HALF_VS_SKEW) <= 1e-15

    def test_unsupported_mass_is_infinite(self):
        assert kl_divergence(_dist([0.5, 0.5]), _dist([1.0, 0.0])) == math.inf

    def test_zero_iff_equal(self):
        p = _dist([0.3, 0.7])
        q = _dist([0.3 + 1e-6, 0.7 - 1e-6])
        assert kl_divergence(p, q) > 0.0
        rng = np.random.default_rng(29)
        for _ in range(100):
            a = rng.dirichlet(np.ones(3))
            b = rng.dirichlet(np.ones(3))
            d = kl_divergence(_dist(a, "X"), _dist(b, "X"))
            assert d >= 0.0
            if np.abs(a - b).max() > 1e-9:
                assert d > 0.0

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            kl_divergence(_dist([0.5, 0.5]), _dist([0.2, 0.3, 0.5]))


class TestConditionalKLDivergence:
    def test_identical_channels(self):
        w = xor_bsc(0.2)
        j = marginalize(uniform_law().joint, ("X", "Y"))
        assert conditional_kl_divergence(w, w, j) == 0.0

    def test_zero_mass_cell_ignored(self):
        v = xor_bsc(0.1)
        w = xor_bsc(0.4)
        # all conditioning mass on (x=0, y=0); rows elsewhere never weighed
        mixed = Channel(v.x_alphabet, v.y_alphabet, v.z_alphabet,
                        np.stack([np.stack([v.w[0, 0], w.w[0, 1]]),
                                  w.w[1]]))
        p = _joint("XY", [[1.0, 0.0], [0.0, 0.0]])
        assert conditional_kl_divergence(mixed, v, p) == 0.0

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(31)
        v_arr = rng.gamma(1.0, 1.0, (2, 2, 2)) + 0.1
        v_arr /= v_arr.sum(axis=2, keepdims=True)
        v = Channel(_alpha("X"), _alpha("Y"), _alpha("Z"), v_arr)
        w = xor_bsc(0.2)
        mass = rng.dirichlet(np.ones(4)).reshape(2, 2)
        p = _joint("XY", mass)
        want = sum(
            mass[x, y] * v_arr[x, y, z] * math.log2(v_arr[x, y, z] / w.w[x, y, z])
            for x in range(2) for y in range(2) for z in range(2)
        )
        assert abs(conditional_kl_divergence(v, w, p) - want) <= 1e-12


class TestProductChannelLikelihood:
    def test_single_symbol(self):
        w = xor_bsc(0.1)
        assert product_channel_likelihood(w, [0], [1], [1]) == w.w[0, 1, 1]

    def test_noiseless_sequence(self):
        w = xor_bsc(0.0)
        assert product_channel_likelihood(w, [0, 1, 1], [1, 1, 0], [1, 0, 1]) == 1.0

    def test_one_flip_in_three(self):
        w = xor_bsc(0.1)
        got = product_channel_likelihood(w, [0, 0, 1], [0, 1, 1], [1, 1, 0])
        # first position flipped, the other two clean: 0.1 * 0.9 * 0.9
        assert abs(got - 0.081) <= 1e-15

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            product_channel_likelihood(xor_bsc(0.1), [0, 1], [0], [1])

    @pytest.mark.parametrize("x, message", [
        ([0.5, 1.9], "must hold integer symbols"),
        ([True, False], "must hold integer symbols"),
        ([0, 2], "contains symbols outside its alphabet")],
        ids=["floats", "bools", "past_the_end"])
    def test_symbols_must_be_integers_of_the_alphabet(self, x, message):
        with pytest.raises(ValidationError, match=(
                f"^product_channel_likelihood: X word {message}$")):
            product_channel_likelihood(xor_bsc(0.1), x, [0, 1], [1, 1])


class TestMarginalize:
    def test_keep_all_is_identity(self):
        j = _random_joint(np.random.default_rng(37), (2, 2), "XY")
        back = marginalize(j, ("X", "Y"))
        assert np.array_equal(back.probs, j.probs)

    def test_keep_none_is_total_mass(self):
        j = _random_joint(np.random.default_rng(41), (2, 3), "XY")
        scalar = marginalize(j, ())
        assert abs(float(scalar.probs.reshape(())) - 1.0) <= 1e-12

    def test_product_law_splits(self):
        px = np.asarray([0.3, 0.7])
        py = np.asarray([0.6, 0.4])
        j = _joint("XY", np.outer(px, py))
        assert np.allclose(marginalize(j, ("X",)).probs, px, atol=1e-15)
        assert np.allclose(marginalize(j, ("Y",)).probs, py, atol=1e-15)

    def test_unknown_axis_rejected(self):
        j = _joint("XY", np.full((2, 2), 0.25))
        with pytest.raises(ValidationError):
            marginalize(j, ("Q",))

    @pytest.mark.parametrize("labels, message", [
        (("Q",), "no axis 'Q' among ('X', 'Y')"),
        (("X", "X"), "repeated axis labels in ('X', 'X')")],
        ids=["unknown", "repeated"])
    def test_joint_and_batch_resolve_labels_alike(self, labels, message):
        j = _joint("XY", np.full((2, 2), 0.25))
        batch = probability.JointBatch.of(j)
        for resolve in (lambda: marginalize(j, labels),
                        lambda: conditional_entropy(j, labels),
                        lambda: batch.marginal(labels),
                        lambda: batch.entropy(labels)):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                resolve()


def test_measures_invariant_under_relabeling():
    rng = np.random.default_rng(43)
    j = _random_joint(rng, (2, 2, 2), "ABC")
    perm = np.asarray([1, 0])
    permuted = JointDist(j.axes, j.probs[perm][:, perm][:, :, perm])
    for a, b, c in ((("A",), ("B",), ("C",)), (("B",), ("C",), ())):
        got = conditional_mutual_information(permuted, a, b, c)
        want = conditional_mutual_information(j, a, b, c)
        assert abs(got - want) <= 1e-12
    assert abs(conditional_entropy(permuted, ("A",), ("B",))
               - conditional_entropy(j, ("A",), ("B",))) <= 1e-12


# 1-5 axes of sizes 1-3, with axes of size 1 before, between and after
# the others; those of at most 12 cells also run at N > ENTROPY_CELLS
KERNEL_SHAPES = [(2,), (3,), (1,), (3, 2), (2, 1, 3), (1, 2, 1, 2),
                 (3, 1, 2, 3), (2, 2, 2, 2, 2), (1, 3, 1, 3, 1), (3, 3, 3, 1, 2),
                 (2, 3, 2, 3), (1, 1, 2), (2, 1, 1, 1, 3), (3, 3, 3, 3, 3)]


class TestJointBatchKernels:
    """The cell-major kernels reproduce numpy's own summation order.  They
    rely on numpy's behaviour, not its contract: if numpy ever changes the
    order, these are the tests that fail first."""

    @staticmethod
    def _rows(rng, n, shape):
        # magnitudes from 1e-8 to 1e8, zeros of both signs: any other
        # order of the additions shows in the last bits
        rows = rng.random((n,) + shape) * 10.0 ** rng.integers(
            -8, 9, size=(n,) + shape)
        rows[rng.random(rows.shape) < 0.15] = 0.0
        rows[rng.random(rows.shape) < 0.1] = -0.0
        return rows

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_marginal_sums_equal_numpy_sums_bit_for_bit(self, shape):
        rng = np.random.default_rng(len(shape) * 7 + sum(shape))
        for n in (1, 5, probability.ENTROPY_CELLS + 3):
            if n > 1000 and math.prod(shape) > 12:
                continue
            rows = self._rows(rng, n, shape)
            cells = np.ascontiguousarray(np.moveaxis(rows, 0, -1))
            for dropped in range(1, 1 << len(shape)):
                drop = tuple(1 + i for i in range(len(shape))
                             if dropped >> i & 1)
                kept = [not dropped >> i & 1 for i in range(len(shape))]
                want = rows.sum(axis=drop).reshape(n, -1)
                got = probability._marginal_sums(cells, kept)
                assert np.ascontiguousarray(got.T).tobytes() == want.tobytes(), (
                    shape, n, drop)

    @pytest.mark.parametrize("cells", [1, 4, 8, 16, 32, 200])
    def test_entropy_equals_the_scalar_sum_at_every_positive_count(self, cells):
        rng = np.random.default_rng(cells)
        columns = []
        for k in range(1, cells + 1):
            for _ in range(3):
                col = np.zeros(cells)
                where = rng.choice(cells, size=k, replace=False)
                raw = rng.random(k) * 10.0 ** rng.integers(-6, 1, size=k)
                col[where] = raw / raw.sum()
                columns.append(col)
        # a probability-1 cell: its term is -0.0
        for c in (0, cells // 2, cells - 1):
            col = np.zeros(cells)
            col[c] = 1.0
            columns.append(col)
        p = np.stack(columns, axis=1)
        p = p[:, rng.permutation(p.shape[1])]
        want = [probability._entropy_of_probs(p[:, j]) for j in range(p.shape[1])]
        together = probability._entropy_columns(p.copy(), True)
        assert together.tolist() == want
        # chunks in which no column, or every column, has 8 or more
        # positive cells
        k = np.count_nonzero(p, axis=0)
        for cols in (k < 8, k >= 8):
            if cols.any():
                part = probability._entropy_columns(p[:, cols], True)
                assert part.tolist() == np.asarray(want)[cols].tolist()
        # one column at a time, and the input kept unless it may be overwritten
        kept = p.copy()
        alone = [probability._entropy_columns(kept[:, [j]], False)[0]
                 for j in range(p.shape[1])]
        assert alone == want
        assert np.array_equal(kept, p)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.25])
    def test_constructors_refuse_bad_entries(self, bad):
        rows = np.asarray([[0.25, 0.75], [0.5, 0.5]])
        rows[0, 1] = bad
        with pytest.raises(ValidationError, match="JointBatch"):
            probability.JointBatch(("X",), rows)
        with pytest.raises(ValidationError, match="JointBatch"):
            probability.JointBatch.renormalised(("X",), rows)
        with pytest.raises(ValidationError, match="JointBatch"):
            probability.JointBatch.from_counts(("X",), rows * 4, 4)

    def test_negative_integer_counts_are_refused(self):
        with pytest.raises(ValidationError, match="JointBatch"):
            probability.JointBatch.from_counts(
                ("X",), np.asarray([[3, 1], [5, -1]], dtype=np.int8), 4)


def _size_mismatches():
    """Each entry point that compares alphabet sizes, handed a mismatch."""
    u1, u2, x2 = _alpha("U", 1), _alpha("U", 2), _alpha("X")
    ux = TypeVector((u2, x2), np.asarray([[1, 1], [1, 1]]), 4)
    wide = Channel(_alpha("X", 3), _alpha("Y"), _alpha("Z"),
                   np.full((3, 2, 2), 0.5))
    return {
        "kl_divergence": lambda: kl_divergence(_dist([0.5, 0.5]),
                                               _dist([0.2, 0.3, 0.5])),
        "conditional_kl_divergence": lambda: conditional_kl_divergence(
            wide, xor_bsc(0.1), marginalize(uniform_law().joint, ("X", "Y"))),
        "in_type_class": lambda: in_type_class(
            TypeVector((_alpha("X", 3),), np.asarray([1, 1, 0]), 2),
            [SymbolSequence(x2, (0, 1))]),
        "sample_conditional_type_class": lambda: sample_conditional_type_class(
            ux, SymbolSequence(u1, (0, 0, 0, 0)), 1),
        "generate_codebooks": lambda: generate_codebooks(
            ux, ux, SymbolSequence(_alpha("U", 3), (0, 1, 2, 0)), 1, 1, 1),
    }


@pytest.mark.parametrize("site", list(_size_mismatches()))
def test_every_site_refuses_an_alphabet_size_mismatch(site):
    with pytest.raises(ValidationError,
                       match=rf"^{site}\b.*: alphabet sizes \(.*\) do not match \("):
        _size_mismatches()[site]()


@pytest.mark.parametrize("build", [
    lambda: _joint("XX", np.full((2, 2), 0.25)),
    lambda: probability.JointBatch(("X", "X"), np.full((1, 2, 2), 0.25)),
], ids=["JointDist", "JointBatch"])
def test_repeated_labels_are_refused_alike(build):
    with pytest.raises(ValidationError,
                       match=r"^repeated axis labels in \('X', 'X'\)$"):
        build()


def test_type_vector_refuses_a_negative_count_as_probabilities_do():
    with pytest.raises(ValidationError, match="^TypeVector: negative entries$"):
        TypeVector((_alpha("X"),), np.asarray([3, -1]), 2)

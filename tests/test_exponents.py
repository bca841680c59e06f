"""Exponent engine: objectives, feasibility, lattice minima, region.

Golden exponent values below were produced by the exhaustive reference
enumerator in exhaustive_oracle.py (independent traversal order and an
independently coded objective) and frozen after the engine matched each
one to within 1e-12; frozen-value comparisons run at 1e-9.
"""

import hashlib
import math
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macexp import (
    Alphabet,
    Channel,
    InputLaw,
    JointDist,
    Pentagon,
    RatePair,
    SolverSpec,
    ValidationError,
    baseline_branch_exponent,
    baseline_exponent,
    branch_exponent,
    branch_objective,
    capacity_pentagon,
    conditional_entropy,
    confusability_feasible,
    conditional_mutual_information,
    expurgated_exponent,
    joint_from_law_and_channel,
    packing_exponents,
    pair_equivocation,
    region_contains,
)
from macexp import exponents, lattice, probability
from macexp.exponents import (
    PACKING_FAMILIES,
    ConstraintViolation,
    _anchor_joint,
    _anchors,
    _branch_axes,
    _judge,
    _law_marginals,
    _objective_terms,
    _p_weighted_divergence,
    _pareto_front,
    confusability_checks,
    family_exponents,
)
from macexp.lattice import (
    BASELINE_SPECS,
    BRANCH_SPECS,
    CONFUSABILITY_CONSTRAINTS,
    RATE_TOL,
    cache_from_counts,
    clear_lattice_cache,
    get_cache,
    minimize_branch,
)
from macexp.probability import EQ_TOL, JointBatch, entropy, marginalize
from macexp.typeclasses import TypeVector, compositions_array
import exhaustive_oracle as oracle
from helpers import (
    adder_channel,
    branch_sizes,
    chan,
    identity_channel,
    random_channel,
    uniform_law,
    useless_channel,
    xor_bsc,
)

D4 = SolverSpec(lattice_denominator=4)

SKEW_LAW = InputLaw.from_components([1.0], [[0.75, 0.25]], [[0.5, 0.5]])
TS_LAW = InputLaw.from_components(
    [0.5, 0.5], [[1.0, 0.0], [0.5, 0.5]], [[0.5, 0.5], [1.0, 0.0]])


def zeros_channel() -> Channel:
    return chan([[[1.0, 0.0], [0.8, 0.2]], [[0.3, 0.7], [0.05, 0.95]]])


# 1 - h2(0.1): every pentagon coordinate of the XOR-BSC(0.1)
XOR01_PENTAGON = 0.5310044064107187


class TestRatePairAndSpec:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            RatePair(-0.1, 0.2)

    @pytest.mark.parametrize("rates", [(math.inf, 0.0), (0.2, math.nan)])
    def test_non_finite_rate_rejected(self, rates):
        with pytest.raises(ValidationError, match="rates must be finite"):
            RatePair(*rates)

    def test_refusals_print_plain_numbers(self):
        with pytest.raises(ValidationError, match=r"^rates must be finite and "
                           r">= 0, got \(-0\.1, 0\.0\)$"):
            RatePair(np.float64(-0.1), 0.0)
        with pytest.raises(ValidationError, match=r"^delta must be finite and "
                           r">= 0, got -1\.0$"):
            exponents.check_delta(np.float64(-1.0))

    def test_lower(self):
        assert RatePair(0.4, 0.3).lower == 0.3

    def test_solver_denominator_validated(self):
        with pytest.raises(ValidationError):
            SolverSpec(lattice_denominator=1)

    @pytest.mark.parametrize("field, value, message", [
        ("lattice_denominator", 4.0, "must be an integer"),
        ("lattice_denominator", True, "must be an integer"),
        ("refine_steps", 1.5, "must be an integer"),
        ("refine_steps", True, "must be an integer"),
        ("refine_steps", -1, "must be >= 0"),
    ])
    def test_solver_counts_must_be_integers(self, field, value, message):
        with pytest.raises(ValidationError, match=f"{field} {message}"):
            SolverSpec(**{field: value})


class TestInputLaw:
    def test_components_round_trip(self):
        pu, px, py = TS_LAW.conditionals()
        assert np.allclose(pu, [0.5, 0.5], atol=1e-12)
        assert np.allclose(px, [[1.0, 0.0], [0.5, 0.5]], atol=1e-12)
        assert np.allclose(py, [[0.5, 0.5], [1.0, 0.0]], atol=1e-12)

    def test_correlated_joint_rejected(self):
        axes = (Alphabet(1, "U"), Alphabet(2, "X"), Alphabet(2, "Y"))
        correlated = np.asarray([[[0.5, 0.0], [0.0, 0.5]]])
        with pytest.raises(ValidationError):
            InputLaw(JointDist(axes, correlated))

    def test_wrong_labels_rejected(self):
        axes = (Alphabet(1, "U"), Alphabet(2, "A"), Alphabet(2, "Y"))
        with pytest.raises(ValidationError):
            InputLaw(JointDist(axes, np.full((1, 2, 2), 0.25)))

    def test_refusal_names_the_cell_of_the_largest_deviation(self):
        # u = 0 deviates by 5e-10 and u = 1 by 5e-7: both past EQ_TOL
        axes = (Alphabet(2, "U"), Alphabet(2, "X"), Alphabet(2, "Y"))
        p = np.full((2, 2, 2), 0.125)
        p[0, 0] += (1e-9, -1e-9)
        p[1, 1] += (1e-6, -1e-6)
        with pytest.raises(ValidationError, match=(
                r"^senders are not independent given U: cell \(u=1, x=\d, "
                r"y=\d\) deviates by 5\.000e-07$")):
            InputLaw(JointDist(axes, p))

    def test_law_of_other_alphabets_is_refused_alike(self):
        w = chan(np.full((3, 2, 2), 0.5))
        message = "^input law alphabets 2x2 do not match the channel's 3x2$"
        law = uniform_law()
        for call in (lambda: joint_from_law_and_channel(law.joint, w),
                     lambda: capacity_pentagon(law, w),
                     lambda: expurgated_exponent(RatePair(0.1, 0.1), w, law),
                     lambda: baseline_exponent(RatePair(0.1, 0.1), w, law)):
            with pytest.raises(ValidationError, match=message):
                call()

    def test_zero_mass_u_row_tolerated(self):
        law = InputLaw.from_components([1.0, 0.0],
                                       [[0.5, 0.5], [0.5, 0.5]],
                                       [[0.3, 0.7], [0.5, 0.5]])
        pu, px, py = law.conditionals()
        assert pu[1] == 0.0
        assert np.allclose(px[1], [0.5, 0.5])


def _five_axis(probs):
    labels = ("U", "X", "Y", "X~", "Y~")
    probs = np.asarray(probs, dtype=float)
    axes = tuple(Alphabet(s, l) for s, l in zip(probs.shape, labels))
    return JointDist(axes, probs)


# each confusability constraint's right side, as the oracle writes it
ORACLE_RHS = {name: kind for name, _, kind in oracle._TEN}
# each packing family's constraint and the rates its exponent subtracts
FAMILY_EXPONENTS = {"pair": ("pair_xy", ()), "triple_x": ("triple_x", ("rx",)),
                    "triple_y": ("triple_y", ("ry",)),
                    "quad": ("quad", ("rx", "ry"))}

# Scalar references: one JointDist at a time through the public measures of
# ``probability``, in the order of operations the batched evaluator keeps.

def _constraint_lhs(v: JointDist, c) -> float:
    return sum(conditional_mutual_information(v, t.a, t.b, t.c) for t in c.terms)


def _pin_gaps(v: JointDist, p: InputLaw, pins) -> list[float]:
    return [float(np.abs(marginalize(v, subset).probs.ravel()
                         - p.marginal_flat(base)).max()) for subset, base in pins]


def _violations(v: JointDist, p: InputLaw, pins, constraints, rates: RatePair,
                delta: float, tol: float) -> list[ConstraintViolation]:
    """Marginal pins off by more than ``tol`` and rate constraints broken."""
    violations = [ConstraintViolation(f"marginal_{'_'.join(subset)}", gap, tol)
                  for (subset, _), gap in zip(pins, _pin_gaps(v, p, pins))
                  if gap > tol]
    for c in constraints:
        value = _constraint_lhs(v, c)
        rhs = oracle._rhs(ORACLE_RHS[c.name], rates.rx, rates.ry, delta)
        if not value <= rhs + RATE_TOL:
            violations.append(ConstraintViolation(c.name, value, rhs))
    return violations


def _scalar_terms(spec, v: JointDist, w: Channel, p: InputLaw,
                  weighting: str) -> tuple:
    """``_objective_terms`` of one joint, as ``_row_terms`` gives a row's.
    Under P weighting the divergence is the package's own scalar loop,
    which has no batched twin."""
    alpha_diff = None
    if spec.alpha_competitor is not None:
        alpha_diff = (conditional_entropy(v, ("X", "Y"), ("Z", "U"))
                      - conditional_entropy(v, spec.alpha_competitor, ("Z", "U")))
    if weighting == "V":
        vm = marginalize(v, ("U", "X", "Y", "Z"))
        mask = vm.probs > 0.0
        wb = np.broadcast_to(w.w[None], vm.probs.shape)
        divergence = math.inf
        if not np.any(wb[mask] == 0.0):
            divergence = (float((vm.probs[mask] * -np.log2(wb[mask])).sum())
                          - conditional_entropy(vm, ("Z",), ("U", "X", "Y")))
    else:
        divergence = _p_weighted_divergence(
            marginalize(v, ("U", "X", "Y", "Z")).probs, p.joint.probs, w.w)
    return (tuple(_pin_gaps(v, p, spec.marginal_eq)
                  + [_constraint_lhs(v, c) for c in spec.constraints]),
            alpha_diff,
            max(0.0, divergence),
            max(0.0, conditional_mutual_information(v, ("X",), ("Y",), ("U",))),
            sum(conditional_mutual_information(v, t.a, t.b, t.c)
                for t in spec.clamp_terms))


def _row_terms(terms, i: int) -> tuple:
    """Row i of batched ``_objective_terms`` as Python floats."""
    lhs, alpha_diff, divergence, mi_xy, clamp_base = terms
    return (tuple(lhs[i].tolist()),
            None if alpha_diff is None else float(alpha_diff[i]),
            float(divergence[i]), float(mi_xy[i]), float(clamp_base[i]))


class TestPackingExponents:
    def test_all_independent_all_zero(self):
        probs = np.full((1, 2, 2, 2, 2), 1 / 16)
        got = packing_exponents(_five_axis(probs), RatePair(0.0, 0.0))
        for v in (got.pair, got.x, got.y, got.xy):
            assert abs(v) <= 1e-12

    def test_equal_senders_give_one_bit(self):
        probs = np.zeros((1, 2, 2, 2, 2))
        for x in range(2):
            for t in range(2):
                for s in range(2):
                    probs[0, x, x, t, s] = 1 / 8
        got = packing_exponents(_five_axis(probs), RatePair(0.0, 0.0))
        assert abs(got.pair - 1.0) <= 1e-12

    def test_chain_rule_cross_check(self):
        rng = np.random.default_rng(21)
        rates = RatePair(0.3, 0.6)
        for _ in range(100):
            raw = rng.gamma(0.7, 1.0, size=(1, 2, 2, 2, 2))
            v = _five_axis(raw / raw.sum())
            got = packing_exponents(v, rates)
            vx = JointDist(v.axes[:4], v.probs.sum(axis=4))
            want_x = (got.pair
                      + conditional_mutual_information(
                          vx, ("X~",), ("X", "Y"), ("U",))
                      - rates.rx)
            assert abs(got.x - want_x) <= 1e-10

    def test_missing_axis_rejected(self):
        probs = np.full((1, 2, 2, 2), 1 / 8)
        labels = ("U", "X", "Y", "X~")
        axes = tuple(Alphabet(s, l) for s, l in zip(probs.shape, labels))
        with pytest.raises(ValidationError):
            packing_exponents(JointDist(axes, probs), RatePair(0.0, 0.0))


class TestPairEquivocation:
    def _uxyz(self, probs):
        labels = ("U", "X", "Y", "Z")
        probs = np.asarray(probs, dtype=float)
        axes = tuple(Alphabet(s, l) for s, l in zip(probs.shape, labels))
        return JointDist(axes, probs)

    def test_lossless_observation(self):
        probs = np.zeros((1, 2, 2, 4))
        for x in range(2):
            for y in range(2):
                probs[0, x, y, 2 * x + y] = 0.25
        assert abs(pair_equivocation(self._uxyz(probs))) <= 1e-12

    def test_independent_observation(self):
        probs = np.full((1, 2, 2, 2), 1 / 8)
        assert abs(pair_equivocation(self._uxyz(probs)) - 2.0) <= 1e-12

    def test_xor_leaves_one_bit(self):
        probs = np.zeros((1, 2, 2, 2))
        for x in range(2):
            for y in range(2):
                probs[0, x, y, x ^ y] = 0.25
        assert abs(pair_equivocation(self._uxyz(probs)) - 1.0) <= 1e-12


class TestConfusabilityFeasible:
    def test_fresh_independent_copies_feasible(self):
        probs = np.full((1, 2, 2, 2, 2), 1 / 16)
        ok, violations = confusability_feasible(
            _five_axis(probs), uniform_law(), RatePair(0.0, 0.0))
        assert ok and not violations

    def test_correlated_senders_violate_pairwise(self):
        probs = np.zeros((1, 2, 2, 2, 2))
        for x in range(2):
            for t in range(2):
                for s in range(2):
                    probs[0, x, x, t, s] = 1 / 8
        law = InputLaw.from_components([1.0], [[0.5, 0.5]], [[0.5, 0.5]])
        ok, violations = confusability_feasible(
            _five_axis(probs), law, RatePair(0.1, 0.1))
        assert not ok
        assert any(v.name == "pair_xy" for v in violations)

    def test_boundary_equality_is_feasible(self):
        # I(X;Y|U) = 1 = min(Rx, Ry), the constraint set is closed
        probs = np.zeros((1, 2, 2, 2, 2))
        for x in range(2):
            for t in range(2):
                for s in range(2):
                    probs[0, x, x, t, s] = 1 / 8
        v = _five_axis(probs)
        law = InputLaw.from_components([1.0], [[0.5, 0.5]], [[0.5, 0.5]])
        ok, violations = confusability_feasible(v, law, RatePair(1.0, 1.0))
        rate_viols = [x for x in violations if not x.name.startswith("marginal")]
        assert not rate_viols
        assert ok


@st.composite
def type_batches(draw):
    """Count rows of one packing family's axes: |U| <= 2, binary or ternary
    X and Y, n <= 12, each row with a random number of positive cells."""
    family = draw(st.sampled_from(tuple(PACKING_FAMILIES)))
    sizes = {"U": draw(st.integers(1, 2)), "X": draw(st.integers(2, 3)),
             "Y": draw(st.integers(2, 3))}
    sizes["X~"], sizes["Y~"] = sizes["X"], sizes["Y"]
    labels = ("U", "X", "Y") + PACKING_FAMILIES[family][0]
    shape = tuple(sizes[lab] for lab in labels)
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cells = math.prod(shape)
    counts = np.zeros((draw(st.integers(1, 6)), cells), dtype=np.int64)
    for row in counts:
        support = rng.choice(cells, size=rng.integers(1, min(cells, n) + 1),
                             replace=False)
        row[support] = 1
        np.add.at(row, rng.choice(support, size=n - support.size), 1)
    return family, labels, n, counts.reshape((-1,) + shape)


# n = 12 quad types with 8 and with 12 positive cells whose counts / 12 do
# not sum to exactly 1.0, so JointDist renormalises them
RENORMALISED_QUADS = np.asarray(
    [[0, 0, 1, 2, 1, 0, 1, 0, 0, 1, 0, 3, 2, 0, 0, 1],
     [1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1, 1, 0, 1, 0, 1]]).reshape(2, 1, 2, 2, 2, 2)
QUAD_LABELS = ("U", "X", "Y", "X~", "Y~")
# probabilities per marginal of a chunk: one row at a time, a few, the default
ENTROPY_BUDGETS = st.sampled_from([1, 40, probability.ENTROPY_CELLS])


class TestBatchedEvaluator:
    """The batched evaluator equals the scalar JointDist path bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=type_batches(), budget=ENTROPY_BUDGETS,
           rx=st.floats(0.0, 1.0), ry=st.floats(0.0, 1.0),
           delta=st.floats(0.0, 0.2))
    @example(case=("quad", QUAD_LABELS, 12, RENORMALISED_QUADS), budget=1,
             rx=0.25, ry=0.5, delta=0.0)
    @example(case=("quad", QUAD_LABELS, 12, RENORMALISED_QUADS[1:]),
             budget=probability.ENTROPY_CELLS, rx=0.0, ry=0.0, delta=0.1)
    def test_batch_equals_scalar_path(self, case, budget, rx, ry, delta):
        family, labels, n, counts = case
        rates = RatePair(rx, ry)
        u_size, x_size, y_size = counts.shape[1:4]
        law = InputLaw.from_components(
            np.full(u_size, 1.0 / u_size), np.full((u_size, x_size), 1.0 / x_size),
            np.full((u_size, y_size), 1.0 / y_size))
        axes = tuple(Alphabet(s, lab) for s, lab in zip(counts.shape[1:], labels))
        joints = [TypeVector(axes, row, n).to_joint() for row in counts]
        batch = JointBatch.from_counts(labels, counts, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(probability, "ENTROPY_CELLS", budget)
            values = family_exponents(batch, family, rates)
            checks = confusability_checks(batch, law, rates, delta)
        present = [c for c in CONFUSABILITY_CONSTRAINTS
                   if all(set(t.a + t.b + t.c) <= set(labels) for t in c.terms)]
        pins = [((u, a), (u, base)) for u, a, base in (
            ("U", "X", "X"), ("U", "Y", "Y"), ("U", "X~", "X"), ("U", "Y~", "Y"))
            if a in labels]
        name, subtracted = FAMILY_EXPONENTS[family]
        constraint = next(c for c in CONFUSABILITY_CONSTRAINTS if c.name == name)
        for r, joint in enumerate(joints):
            assert np.array_equal(batch.probs[r], joint.probs)
            for size in range(1, len(labels) + 1):
                for keep in combinations(labels, size):
                    marginal = marginalize(joint, keep)
                    assert np.array_equal(batch.marginal(keep)[r],
                                          marginal.probs.ravel())
                    assert batch.entropy(keep)[r] == entropy(marginal)
            for c in present:
                for t in c.terms:
                    assert (batch.conditional_mutual_information(t.a, t.b, t.c)[r]
                            == conditional_mutual_information(joint, t.a, t.b, t.c))
            want = _constraint_lhs(joint, constraint)
            for rate in subtracted:
                want -= getattr(rates, rate)
            assert values[r] == want
            assert list(checks.lhs[r, len(pins):]) == [
                _constraint_lhs(joint, c) for c in present]
            scalar = _violations(joint, law, pins, present, rates, delta, EQ_TOL)
            batched = [ConstraintViolation(name, float(lhs), rhs)
                       for name, lhs, rhs, bad in zip(
                           checks.names, checks.lhs[r], checks.rhs,
                           checks.violated[r]) if bad]
            assert batched == scalar
            assert confusability_feasible(joint, law, rates, delta) == (
                not scalar, scalar)

    def test_examples_take_the_renormalisation_branch(self):
        for row in RENORMALISED_QUADS:
            assert (row / 12).sum() != 1.0
            assert np.count_nonzero(row) >= 8

    def test_values_do_not_depend_on_memory_layout(self):
        # F-ordered and non-contiguous views of C-ordered rows, for both
        # constructors: every marginal entropy and exponent is bit-identical
        rows = np.random.default_rng(14).multinomial(
            12, np.full(16, 1 / 16), size=2000).astype(np.uint8)
        shape = (-1, 1, 2, 2, 2, 2)
        keeps = [keep for size in range(1, 6)
                 for keep in combinations(QUAD_LABELS, size)]

        def values(batch):
            return np.concatenate(
                [batch.entropy(keep) for keep in keeps]
                + [family_exponents(batch, "quad", RatePair(0.25, 0.5))])

        strided = rows.reshape(shape)[::3]
        cases = [
            (rows.reshape(shape), np.asfortranarray(rows).reshape(shape)),
            (rows.reshape(shape),
             np.moveaxis(np.ascontiguousarray(
                 np.moveaxis(rows.reshape(shape), 0, -1)), -1, 0)),
            (np.ascontiguousarray(strided), strided),
        ]
        for c_order, other in cases:
            assert not other.flags.c_contiguous
            want = values(JointBatch.from_counts(QUAD_LABELS, c_order, 12))
            got = values(JointBatch.from_counts(QUAD_LABELS, other, 12))
            assert np.array_equal(got, want)
            want = values(JointBatch(QUAD_LABELS, c_order / 12))
            got = values(JointBatch(QUAD_LABELS, other / 12))
            assert np.array_equal(got, want)

    def test_empty_batch_gives_no_values(self):
        batch = JointBatch.from_counts(
            QUAD_LABELS, np.zeros((0, 1, 2, 2, 2, 2), dtype=np.int64), 12)
        assert family_exponents(batch, "quad", RatePair(0.1, 0.1)).shape == (0,)
        checks = confusability_checks(batch, uniform_law(), RatePair(0.1, 0.1))
        assert checks.lhs.shape == checks.violated.shape == (0, len(checks.names))


ORACLE_BASELINE = [
    # (channel builder, law, rates, branch, golden)
    (xor_bsc, 0.05, "uniform", (0.3, 0.3), "X", 0.41360304288404387),
    (xor_bsc, 0.05, "uniform", (0.3, 0.3), "Y", 0.41360304288404387),
    (xor_bsc, 0.05, "uniform", (0.3, 0.3), "XY", 0.11360304288404388),
    (xor_bsc, 0.05, "uniform", (0.15, 0.15), "X", 0.5636030428840438),
    (xor_bsc, 0.05, "uniform", (0.15, 0.15), "XY", 0.41360304288404387),
]


class TestBranchExponents:
    def test_baseline_goldens(self):
        law = uniform_law()
        for build, eps, _, rates, branch, want in ORACLE_BASELINE:
            res = baseline_branch_exponent(branch, RatePair(*rates),
                                           build(eps), law, solver=D4)
            assert abs(res.value - want) <= 1e-9

    def test_expurgated_infeasible_at_low_rates(self):
        law = uniform_law()
        for branch in ("X", "Y", "XY"):
            res = branch_exponent(branch, RatePair(0.05, 0.05),
                                  xor_bsc(0.05), law, solver=D4)
            assert res.value == math.inf
            assert res.feasible_empty
            assert res.argmin is None

    def test_identity_channel_goldens(self):
        law = uniform_law()
        w = identity_channel()
        for branch in ("X", "Y"):
            res = branch_exponent(branch, RatePair(0.0, 0.0), w, law, solver=D4)
            assert res.value == math.inf and res.feasible_empty
            base = baseline_branch_exponent(branch, RatePair(0.0, 0.0), w, law,
                                            solver=D4)
            assert abs(base.value - 1.0) <= 1e-9
            high = branch_exponent(branch, RatePair(1.0, 1.0), w, law, solver=D4)
            assert high.value == 0.0

    def test_zeros_channel_goldens(self):
        law = uniform_law()
        w = zeros_channel()
        rates = RatePair(0.3, 0.3)
        base_x = baseline_branch_exponent("X", rates, w, law, solver=D4)
        assert abs(base_x.value - 0.18648417119083566) <= 1e-9
        assert baseline_branch_exponent("Y", rates, w, law, solver=D4).value == 0.0
        assert baseline_branch_exponent("XY", rates, w, law, solver=D4).value == 0.0
        for branch in ("X", "Y", "XY"):
            assert branch_exponent(branch, rates, w, law, solver=D4).value == math.inf

    def test_skewed_law_goldens(self):
        w = xor_bsc(0.1)
        rates = RatePair(0.5, 0.5)
        assert abs(branch_exponent("X", rates, w, SKEW_LAW, solver=D4).value
                   - 0.3112781244591334) <= 1e-9
        assert abs(branch_exponent("Y", rates, w, SKEW_LAW, solver=D4).value
                   - 0.5) <= 1e-9
        assert branch_exponent("XY", rates, w, SKEW_LAW, solver=D4).value == math.inf
        assert baseline_branch_exponent("X", rates, w, SKEW_LAW, solver=D4).value == 0.0
        assert abs(baseline_branch_exponent("Y", rates, w, SKEW_LAW, solver=D4).value
                   - 0.031004406410719134) <= 1e-9

    def test_time_sharing_goldens(self):
        w = xor_bsc(0.1)
        rates = RatePair(0.3, 0.3)
        for branch in ("X", "Y"):
            res = branch_exponent(branch, rates, w, TS_LAW, solver=D4)
            assert abs(res.value - 0.2) <= 1e-9
            base = baseline_branch_exponent(branch, rates, w, TS_LAW, solver=D4)
            assert base.value == 0.0

    def test_interior_lattice_minimum_d6(self):
        res = branch_exponent("X", RatePair(0.4, 0.4), xor_bsc(0.1),
                              uniform_law(), solver=SolverSpec(lattice_denominator=6))
        assert res.source == "lattice"
        assert abs(res.value - 0.6953614262976122) <= 1e-9

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -0.1])
    def test_non_finite_or_negative_delta_is_refused(self, delta):
        law, w = uniform_law(), xor_bsc(0.1)
        with pytest.raises(ValidationError, match="delta must be finite"):
            expurgated_exponent(RatePair(0.4, 0.4), w, law, delta, D4)
        with pytest.raises(ValidationError, match="delta must be finite"):
            baseline_exponent(RatePair(0.4, 0.4), w, law, delta, D4)

    def test_invalid_branch_rejected(self):
        with pytest.raises(ValidationError):
            branch_exponent("Z", RatePair(0.1, 0.1), xor_bsc(0.1),
                            uniform_law(), solver=D4)

    # Y has one possible codeword: |Y| = 1 (a BSC), or |Y| = 2 with all of
    # P(y|u) on one symbol; at R_Y = 0 branches Y and XY cannot occur, so X
    # decides, and at R_Y > 0 the Y messages share one word, so Y gives 0
    @pytest.mark.parametrize("w, law, d, want", [
        (chan([[[0.9, 0.1]], [[0.1, 0.9]]]),
         InputLaw.from_components([1.0], [[0.5, 0.5]], [[1.0]]),
         8, (0.3444843438056281, 0.22192809488736218)),
        (chan([[[0.9, 0.1], [0.9, 0.1]], [[0.1, 0.9], [0.1, 0.9]]]),
         InputLaw.from_components([1.0], [[0.5, 0.5]], [[0.0, 1.0]]),
         4, (0.8444843438056281, 0.4310044064107187))],
        ids=["one_symbol", "point_mass"])
    def test_a_sender_with_one_codeword_confuses_no_branch(self, w, law, d,
                                                            want):
        solver = SolverSpec(lattice_denominator=d)
        rates = RatePair(0.1, 0.0)
        ex = expurgated_exponent(rates, w, law, solver=solver)
        base = baseline_exponent(rates, w, law, solver=solver)
        assert (ex.branch, base.branch) == ("X", "X")
        assert ex.value == branch_exponent("X", rates, w, law,
                                           solver=solver).value
        assert base.value == baseline_branch_exponent("X", rates, w, law,
                                                      solver=solver).value
        assert abs(ex.value - want[0]) <= 1e-9
        assert abs(base.value - want[1]) <= 1e-9
        assert base.value <= ex.value
        for branch in ("Y", "XY"):
            with pytest.raises(ValidationError, match="one possible codeword"):
                branch_exponent(branch, rates, w, law, solver=solver)
            with pytest.raises(ValidationError, match="one possible codeword"):
                baseline_branch_exponent(branch, rates, w, law, solver=solver)
        rates = RatePair(0.1, 0.2)
        ex = expurgated_exponent(rates, w, law, solver=solver)
        base = baseline_exponent(rates, w, law, solver=solver)
        assert (ex.value, ex.branch) == (base.value, base.branch) == (0.0, "Y")
        assert branch_exponent("Y", rates, w, law, solver=solver).value == 0.0

    def test_two_senders_with_one_codeword_leave_no_branch_at_rate_0(self):
        # X and Y each have one possible codeword: at rate 0 a sender sends
        # one word, and at a positive rate its messages share that word
        law = InputLaw.from_components([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]],
                                       [[0.0, 1.0], [0.0, 1.0]])
        for fn in (expurgated_exponent, baseline_exponent):
            with pytest.raises(ValidationError, match="one possible codeword"):
                fn(RatePair(0.0, 0.0), xor_bsc(0.1), law, solver=D4)
            for rates, branch in ((RatePair(0.1, 0.0), "X"),
                                  (RatePair(0.0, 0.1), "Y"),
                                  (RatePair(0.1, 0.1), "X")):
                res = fn(rates, xor_bsc(0.1), law, solver=D4)
                assert (res.value, res.branch) == (0.0, branch)

    def test_large_output_alphabet_runs(self):
        # branch XY over (U,X,Y,X~,Y~,Z) with |Z|=4: 128 cells, within bytes
        clear_lattice_cache()
        res = branch_exponent("XY", RatePair(0.5, 0.5), identity_channel(),
                              uniform_law(), solver=D4)
        assert res.branch == "XY" and res.value >= 0.0
        assert [c.total for c in lattice._CACHE.values()] == [14_112]

    def test_time_sharing_law_solves(self):
        # |U| = 2 gives 64 cells; the pinned lattice holds 64 rows at d = 4
        law = InputLaw.from_components([0.5, 0.5], [[1.0, 0.0], [0.5, 0.5]],
                                       [[0.5, 0.5], [1.0, 0.0]])
        rates = RatePair(0.4, 0.4)
        clear_lattice_cache()
        res = branch_exponent("XY", rates, xor_bsc(0.1), law, solver=D4)
        assert [c.total for c in lattice._CACHE.values()] == [64]
        assert math.isfinite(res.value)
        rep = branch_objective("XY", res.argmin, rates, xor_bsc(0.1), law,
                               marginal_tol=0.5 / 4)
        assert rep.feasible
        assert abs(rep.value - res.value) <= 1e-9


class TestBranchObjectiveNames:
    @pytest.mark.parametrize("name", ["Q", "baseline_Q", "baseline_", "x"])
    def test_an_unknown_name_lists_the_valid_ones(self, name):
        joint = joint_from_law_and_channel(uniform_law().joint, xor_bsc(0.1))
        with pytest.raises(ValidationError, match=(
                r"^branch must be one of \['X', 'XY', 'Y', 'baseline_X', "
                r"'baseline_XY', 'baseline_Y'\]$")):
            branch_objective(name, joint, RatePair(0.1, 0.1), xor_bsc(0.1),
                             uniform_law())

    @pytest.mark.parametrize("name", ["X", "baseline_XY"])
    def test_a_name_resolves_to_its_spec(self, name):
        spec = {**BRANCH_SPECS, "baseline_XY": BASELINE_SPECS["XY"]}[name]
        axes = _branch_axes(spec, uniform_law(), xor_bsc(0.1))
        joint = _anchor_joint(spec, axes, uniform_law(), xor_bsc(0.1),
                              spec.anchors[0])
        args = (joint, RatePair(0.3, 0.2), xor_bsc(0.1), uniform_law())
        assert branch_objective(name, *args) == branch_objective(spec, *args)


class TestExponentResultContracts:
    def test_value_reevaluates_at_argmin(self):
        law = uniform_law()
        w = xor_bsc(0.1)
        for branch in ("X", "Y", "XY"):
            for rates in (RatePair(0.7, 0.7), RatePair(1.2, 0.9)):
                res = branch_exponent(branch, rates, w, law, solver=D4)
                if not math.isfinite(res.value):
                    continue
                rep = branch_objective(branch, res.argmin, rates, w, law,
                                       marginal_tol=0.5 / 4)
                assert rep.feasible
                assert abs(rep.value - res.value) <= 1e-9

    def test_symmetric_channel_symmetric_rates(self):
        law = uniform_law()
        for w in (xor_bsc(0.1), xor_bsc(0.25)):
            ex = branch_exponent("X", RatePair(0.8, 0.8), w, law, solver=D4)
            ey = branch_exponent("Y", RatePair(0.8, 0.8), w, law, solver=D4)
            assert abs(ex.value - ey.value) <= 1e-9

    def test_expurgated_is_branch_minimum(self):
        law = uniform_law()
        w = xor_bsc(0.1)
        rates = RatePair(0.6, 0.9)
        branches = {b: branch_exponent(b, rates, w, law, solver=D4).value
                    for b in ("X", "Y", "XY")}
        res = expurgated_exponent(rates, w, law, solver=D4)
        assert res.value == min(branches.values())
        assert branches[res.branch] == res.value

    def test_branch_tie_prefers_x_then_y(self):
        law = uniform_law()
        w = xor_bsc(0.1)
        res = expurgated_exponent(RatePair(0.8, 0.8), w, law, solver=D4)
        others = [b for b, v in
                  ((b, branch_exponent(b, RatePair(0.8, 0.8), w, law,
                                       solver=D4).value)
                   for b in ("X", "Y", "XY")) if v == res.value]
        assert res.branch == others[0]

    def test_relabeling_z_invariance(self):
        law = uniform_law()
        w = random_channel(np.random.default_rng(47))
        flipped = Channel(w.x_alphabet, w.y_alphabet, w.z_alphabet,
                          w.w[:, :, ::-1].copy())
        for rates in (RatePair(0.5, 0.8), RatePair(1.0, 1.0)):
            a = expurgated_exponent(rates, w, law, solver=D4)
            b = expurgated_exponent(rates, flipped, law, solver=D4)
            assert (a.value == b.value if math.isinf(a.value)
                    else abs(a.value - b.value) <= 1e-9)
            a2 = baseline_exponent(rates, w, law, solver=D4)
            b2 = baseline_exponent(rates, flipped, law, solver=D4)
            assert abs(a2.value - b2.value) <= 1e-9

    def test_embedded_refinement_never_increases(self):
        law = uniform_law()
        w = xor_bsc(0.1)
        coarse = SolverSpec(lattice_denominator=2)
        fine = SolverSpec(lattice_denominator=4)
        for rates in (RatePair(0.7, 0.7), RatePair(1.1, 0.6)):
            for branch in ("X", "Y", "XY"):
                lo = branch_exponent(branch, rates, w, law, solver=coarse)
                hi = branch_exponent(branch, rates, w, law, solver=fine)
                assert hi.value <= lo.value + 1e-9

    def test_local_refinement_never_increases(self):
        law = uniform_law()
        w = xor_bsc(0.1)
        spec = SolverSpec(lattice_denominator=4, refine_steps=40)
        for branch in ("X", "Y"):
            plain = branch_exponent(branch, RatePair(0.7, 0.7), w, law, solver=D4)
            refined = branch_exponent(branch, RatePair(0.7, 0.7), w, law,
                                      solver=spec)
            assert refined.value <= plain.value + 1e-12

    # recorded before the moves were scored as batches: each value as its
    # repr, and a SHA-256 of the argmin's probabilities
    @pytest.mark.parametrize("weighting,rate,value,branch,digest", [
        ("V", 0.3, 0.29520609628010536, "Y",
         "cfb2a69ff3525e51c8323c62f0de7eb398a868144ee637dd61546b54908bc785"),
        ("V", 0.6, 0.348243718625339, "XY",
         "6a48499260be5e434c643dc9b14ff8ecfd3911f2a2f17d9ba417173fd7c6320f"),
        ("P", 0.3, 0.28325077425506584, "X",
         "b6edb79d87117b2e98bb5573c0fc0e5a87675adc0d9a7b3458749e63f2b9f451"),
        ("P", 0.6, 0.35764215567461655, "XY",
         "c4df5a48e3732a35ef1c73586e53a00c0fe1a4cc7777969c122a2167cc3c62a5"),
    ])
    def test_refined_minimum_is_pinned(self, weighting, rate, value, branch,
                                       digest):
        solver = SolverSpec(lattice_denominator=6, refine_steps=8,
                            divergence_weighting=weighting)
        res = expurgated_exponent(RatePair(rate, rate), xor_bsc(0.1),
                                  uniform_law(), solver=solver)
        assert (res.value, res.branch, res.source) == (value, branch, "refined")
        assert hashlib.sha256(res.argmin.probs.tobytes()).hexdigest() == digest

    def test_p_weighting_variant_runs(self):
        law = uniform_law()
        spec = SolverSpec(lattice_denominator=4, divergence_weighting="P")
        res = branch_exponent("X", RatePair(0.8, 0.8), xor_bsc(0.1), law,
                              solver=spec)
        assert res.value >= 0.0

    def test_delta_relaxes_the_feasible_set(self):
        law = uniform_law()
        w = xor_bsc(0.1)
        tight = branch_exponent("X", RatePair(0.6, 0.6), w, law, 0.0, D4)
        slack = branch_exponent("X", RatePair(0.6, 0.6), w, law, 0.05, D4)
        assert slack.value <= tight.value + 1e-9


class TestDominanceAndMonotonicity:
    def test_dominance_spot_checks(self):
        law = uniform_law()
        rng = np.random.default_rng(53)
        for _ in range(3):
            w = random_channel(rng)
            for rates in (RatePair(0.3, 0.3), RatePair(0.8, 0.5),
                          RatePair(1.2, 1.2)):
                ex = expurgated_exponent(rates, w, law, solver=D4)
                base = baseline_exponent(rates, w, law, solver=D4)
                assert ex.value >= base.value - 1e-9

    def test_monotone_in_each_rate(self):
        law = uniform_law()
        w = xor_bsc(0.15)
        grid = [0.4, 0.8, 1.2]
        values = {(rx, ry): expurgated_exponent(RatePair(rx, ry), w, law,
                                                solver=D4).value
                  for rx in grid for ry in grid}
        for i in range(len(grid) - 1):
            for j in range(len(grid)):
                assert (values[(grid[i + 1], grid[j])]
                        <= values[(grid[i], grid[j])] + 1e-9)
                assert (values[(grid[j], grid[i + 1])]
                        <= values[(grid[j], grid[i])] + 1e-9)

    def test_high_rates_give_exact_zero(self):
        law = uniform_law()
        for w in (xor_bsc(0.1), zeros_channel(),
                  random_channel(np.random.default_rng(59))):
            res = expurgated_exponent(RatePair(2.0, 2.0), w, law, solver=D4)
            assert res.value == 0.0
            base = baseline_exponent(RatePair(2.0, 2.0), w, law, solver=D4)
            assert base.value == 0.0


# Relabelling cases: the shape (|X|, |Y|, |Z|, |U|) of each drawn case.
RELABEL_SHAPES = [(2, 2, 2, 1), (2, 2, 2, 2), (3, 2, 2, 1), (2, 2, 3, 1)]


def _dyadic_row(draw, size, denominator):
    """A distribution over ``size`` symbols whose entries are positive
    multiples of 1 / denominator."""
    cuts = draw(st.lists(st.integers(1, denominator - 1), min_size=size - 1,
                         max_size=size - 1, unique=True))
    return np.diff([0, *sorted(cuts), denominator]) / denominator


@st.composite
def relabel_inputs(draw, case):
    """A law of the case's shape, a random channel with zero entries and
    rate pairs, 0 among the rates drawn.  The law's entries are multiples
    of 1/8 (P_U of 1/4), so a law and its relabelled copy have bit-equal
    marginals and pin alike."""
    sx, sy, sz, su = RELABEL_SHAPES[case]
    pu = _dyadic_row(draw, su, 4)
    px = [_dyadic_row(draw, sx, 8) for _ in range(su)]
    py = [_dyadic_row(draw, sy, 8) for _ in range(su)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = rng.gamma(1.0, 1.0, size=(sx, sy, sz)) + 0.05
    # some entries zero, w[0, 1, 0] among them; each row keeps one positive
    w[rng.random(w.shape) < draw(st.sampled_from([0.0, 0.25, 0.5]))] = 0.0
    w[0, 1, 0] = 0.0
    w[~w.any(axis=2), -1] = 1.0
    rate = st.sampled_from([0.0, 0.1, 0.4, 0.7, 1.2]) | st.floats(0.0, 1.6)
    rates = draw(st.lists(st.tuples(rate, rate), min_size=2, max_size=3))
    return chan(w / w.sum(axis=2, keepdims=True)), (pu, px, py), rates


def _branch_values(w, law, d, rate_pairs, swap=False):
    """Every expurgated and baseline branch value at each rate pair, the
    rates given in the order (R_Y, R_X) when ``swap``."""
    solver = SolverSpec(lattice_denominator=d)
    values = {}
    for rx, ry in rate_pairs:
        rates = RatePair(ry, rx) if swap else RatePair(rx, ry)
        for b in ("X", "Y", "XY"):
            values[b, rx, ry] = branch_exponent(b, rates, w, law,
                                                solver=solver).value
            values["baseline_" + b, rx, ry] = baseline_branch_exponent(
                b, rates, w, law, solver=solver).value
    return values


def _assert_values_agree(got, want):
    """Equal within 1e-12 relative; an infinity only equals itself."""
    assert got.keys() == want.keys()
    for key in want:
        assert math.isclose(got[key], want[key], rel_tol=1e-12), key


RELABEL_SETTINGS = settings(max_examples=5, deadline=None, derandomize=True)


class TestRelabelling:
    """The exponents do not depend on how the senders, the X symbols or
    the output symbols are named."""

    @pytest.mark.parametrize("d", [4, 5])
    @pytest.mark.parametrize("case", range(len(RELABEL_SHAPES)))
    @RELABEL_SETTINGS
    @given(data=st.data())
    def test_swapping_the_senders_swaps_branches_x_and_y(self, case, d, data):
        w, (pu, px, py), rate_pairs = data.draw(relabel_inputs(case))
        law = InputLaw.from_components(pu, px, py)
        swapped = _branch_values(chan(w.w.transpose(1, 0, 2)),
                                 InputLaw.from_components(pu, py, px), d,
                                 rate_pairs, swap=True)
        rename = {"X": "Y", "Y": "X", "XY": "XY", "baseline_X": "baseline_Y",
                  "baseline_Y": "baseline_X", "baseline_XY": "baseline_XY"}
        _assert_values_agree(
            {(rename[b], rx, ry): v for (b, rx, ry), v in swapped.items()},
            _branch_values(w, law, d, rate_pairs))

    @pytest.mark.parametrize("d", [4, 5])
    @pytest.mark.parametrize("case", range(len(RELABEL_SHAPES)))
    @RELABEL_SETTINGS
    @given(data=st.data())
    def test_permuting_the_outputs_changes_no_branch(self, case, d, data):
        w, (pu, px, py), rate_pairs = data.draw(relabel_inputs(case))
        law = InputLaw.from_components(pu, px, py)
        values = _branch_values(w, law, d, rate_pairs)
        _assert_values_agree(
            _branch_values(chan(w.w[..., ::-1]), law, d, rate_pairs), values)
        # the X symbols, in the channel's rows and the law's columns alike
        perm = np.roll(np.arange(w.w.shape[0]), 1)
        _assert_values_agree(
            _branch_values(chan(w.w[perm]),
                           InputLaw.from_components(pu, np.asarray(px)[:, perm],
                                                    py), d, rate_pairs),
            values)


ANCHORS = ([(spec, kind) for spec in BRANCH_SPECS.values()
            for kind in ("fresh", "diag")]
           + [(spec, "product") for spec in BASELINE_SPECS.values()])


def law_of(px, py=(0.5, 0.5)):
    return InputLaw.from_components([1.0], [list(px)], [list(py)])


LAWS = [uniform_law(), SKEW_LAW, TS_LAW, law_of((0.3, 0.7), (0.6, 0.4))]
CHANNELS = [xor_bsc(0.1), zeros_channel(), adder_channel(),
            random_channel(np.random.default_rng(7))]


@st.composite
def anchor_cases(draw):
    spec, kind = draw(st.sampled_from(ANCHORS))
    law = draw(st.sampled_from(LAWS))
    w = draw(st.sampled_from(CHANNELS))
    weighting = draw(st.sampled_from(["V", "P"]))
    d = draw(st.integers(2, 10))
    delta = draw(st.sampled_from([0.0, 0.05]) | st.floats(0.0, 0.2))
    # on a boundary: a rate equal to a constraint's left side, or to the
    # clamp's base, with the other rate random or equal
    joint = _anchor_joint(spec, _branch_axes(spec, law, w), law, w, kind)
    edges = ([_constraint_lhs(joint, c) for c in spec.constraints]
             + [_scalar_terms(spec, joint, w, law, weighting)[-1]])
    rate = st.floats(0.0, 2.5) | st.sampled_from(edges)
    rx = draw(rate)
    ry = draw(st.just(rx) | rate)
    return spec, kind, law, w, weighting, d, delta, RatePair(abs(rx), abs(ry))


class TestAnchorMemo:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=anchor_cases())
    def test_memoised_anchor_matches_a_fresh_evaluation(self, case):
        spec, kind, law, w, weighting, d, delta, rates = case
        axes = _branch_axes(spec, law, w)
        joints, terms = _anchors(spec, axes, law, w, weighting)
        assert _anchors(spec, axes, law, w, weighting)[1] is terms
        i = spec.anchors.index(kind)
        values, _, checks = _judge(spec, terms, rates, delta, 0.5 / d)
        fresh = _anchor_joint(spec, axes, law, w, kind)
        want = branch_objective(spec, fresh, rates, w, law, delta, weighting,
                                marginal_tol=0.5 / d)
        assert values[i] == want.value
        assert tuple(checks.violations(i)) == want.violations
        assert np.array_equal(joints[i].probs, fresh.probs)
        assert _row_terms(terms, i) == _scalar_terms(spec, joints[i], w, law,
                                                     weighting)


@st.composite
def candidate_batches(draw):
    """A branch's anchors and joints perturbed from them, shuffled into one
    batch; some perturbations put mass where the anchors have none."""
    spec = draw(st.sampled_from(list(BRANCH_SPECS.values())
                                + list(BASELINE_SPECS.values())))
    law = draw(st.sampled_from(LAWS))
    w = draw(st.sampled_from(CHANNELS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    axes = _branch_axes(spec, law, w)
    anchors = [_anchor_joint(spec, axes, law, w, kind).probs
               for kind in spec.anchors]
    rows = list(anchors)
    for _ in range(draw(st.integers(0, 6))):
        anchor = anchors[rng.integers(len(anchors))]
        noisy = anchor * rng.uniform(0.5, 1.5, anchor.shape)
        if rng.random() < 0.5:
            noisy = noisy + rng.uniform(0.0, 0.05, noisy.shape)
        rows.append(noisy / noisy.sum())
    rows = np.stack(rows)[rng.permutation(len(rows))]
    rates = RatePair(draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 2.0)))
    return (spec, law, w, draw(st.sampled_from(["V", "P"])), rows, rates,
            draw(st.floats(0.0, 0.2)), draw(st.sampled_from([EQ_TOL, 0.125])))


class TestCandidateBatch:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=candidate_batches())
    def test_each_row_gets_the_bits_it_gets_alone(self, case):
        spec, law, w, weighting, rows, rates, delta, tol = case
        terms = _objective_terms(spec, JointBatch(spec.labels, rows), w, law,
                                 weighting)
        value, clamp, checks = _judge(spec, terms, rates, delta, tol)
        for i in range(len(rows)):
            alone = _objective_terms(spec, JointBatch(spec.labels, rows[i:i + 1]),
                                     w, law, weighting)
            for a, b in zip(terms, alone):
                assert (a is None) == (b is None)
                if a is not None:
                    assert a[i].tobytes() == b[0].tobytes()
            one_value, one_clamp, one = _judge(spec, alone, rates, delta, tol)
            assert (one.names, one.rhs) == (checks.names, checks.rhs)
            for a, b in ((value, one_value), (clamp, one_clamp),
                         (checks.lhs, one.lhs), (checks.violated, one.violated)):
                assert a[i].tobytes() == b[0].tobytes()


def _same_result(a, b):
    assert (a.value, a.branch, a.source, a.feasible_empty) == (
        b.value, b.branch, b.source, b.feasible_empty)
    assert (a.argmin is None) == (b.argmin is None)
    if a.argmin is not None:
        assert a.argmin.axes == b.argmin.axes
        assert np.array_equal(a.argmin.probs, b.argmin.probs)


class TestMemoKeys:
    def test_equal_content_laws_share_one_entry(self):
        clear_lattice_cache()
        spec = BRANCH_SPECS["X"]
        axes = _branch_axes(spec, uniform_law(), xor_bsc(0.1))
        first = _anchors(spec, axes, uniform_law(), xor_bsc(0.1), "V")
        assert _anchors(spec, axes, uniform_law(), xor_bsc(0.1), "V") is first
        assert _law_marginals(uniform_law()) is _law_marginals(uniform_law())
        assert len(exponents._ANCHORS) == 1

    def test_changed_or_relabelled_channel_gets_its_own_entry(self):
        clear_lattice_cache()
        spec = BRANCH_SPECS["XY"]
        law, w = SKEW_LAW, zeros_channel()
        bumped = w.w.copy()
        bumped[1, 0, 0] = np.nextafter(bumped[1, 0, 0], 1.0)
        relabelled = Channel(w.x_alphabet, w.y_alphabet, Alphabet(2, "Q"), w.w)
        axes = _branch_axes(spec, law, w)
        first = _anchors(spec, axes, law, w, "V")
        for other in (chan(bumped), relabelled):
            entry = _anchors(spec, axes, law, other, "V")
            assert entry is not first
            fresh = JointBatch(spec.labels, np.stack([
                _anchor_joint(spec, axes, law, other, kind).probs
                for kind in spec.anchors]))
            want = _objective_terms(spec, fresh, other, law, "V")
            for i in range(len(spec.anchors)):
                assert _row_terms(entry[1], i) == _row_terms(want, i)
        assert len(exponents._ANCHORS) == 3

    @pytest.mark.parametrize("weighting", ["V", "P"])
    def test_alternating_laws_match_fresh_solves(self, weighting):
        solver = SolverSpec(lattice_denominator=5, divergence_weighting=weighting)
        w = zeros_channel()
        laws = (uniform_law(), SKEW_LAW, uniform_law())
        rates = (RatePair(0.3, 0.6), RatePair(0.9, 0.2))

        def solve(law):
            return [f(r, w, law, 0.05, solver) for r in rates
                    for f in (expurgated_exponent, baseline_exponent)]

        clear_lattice_cache()
        memoised = [solve(law) for law in laws]
        for law, got in zip(laws, memoised):
            clear_lattice_cache()
            for a, b in zip(got, solve(law)):
                _same_result(a, b)

    def test_laws_that_pin_alike_get_their_own_p_weighted_vectors(self):
        clear_lattice_cache()
        spec, w, d = BRANCH_SPECS["X"], xor_bsc(0.1), 6
        solver = SolverSpec(lattice_denominator=d, divergence_weighting="P")
        laws = (law_of((0.5, 0.5)), law_of((0.52, 0.48)))
        results = [branch_exponent("X", RatePair(0.4, 0.4), w, law, solver=solver)
                   for law in laws]
        (cache,) = lattice._CACHE.values()
        assert len(cache.values) == 2
        first, second = cache.values.values()
        assert not np.array_equal(first, second)
        for law, got in zip(laws, results):
            lm = _law_marginals(law)
            shared = minimize_branch(cache, 0.4, 0.4, 0.0, lm, w.w, "P")
            clear_lattice_cache()
            _same_result(got, branch_exponent("X", RatePair(0.4, 0.4), w, law,
                                              solver=solver))
            alone = cache_from_counts(spec, cache.sizes, d, cache.counts)
            own = minimize_branch(alone, 0.4, 0.4, 0.0, lm, w.w, "P")
            assert shared[0] == own[0] and shared[2] == own[2]
            assert np.array_equal(shared[1], own[1])

    def test_value_vectors_count_against_the_byte_budget(self, monkeypatch):
        clear_lattice_cache()
        law, spec = uniform_law(), BRANCH_SPECS["XY"]
        lm = _law_marginals(law)
        cache = get_cache(spec, branch_sizes(spec, law, xor_bsc(0.1)), 4, lm)
        bare = cache.nbytes
        minimize_branch(cache, 0.4, 0.4, 0.0, lm, xor_bsc(0.1).w)
        assert cache.nbytes == bare + 8 * cache.total
        monkeypatch.setattr(lattice, "LATTICE_BYTES", cache.nbytes)
        minimize_branch(cache, 0.4, 0.4, 0.0, lm, xor_bsc(0.2).w)
        assert len(cache.values) == 1
        assert cache.nbytes <= lattice.LATTICE_BYTES

    def test_clear_empties_every_memo(self):
        expurgated_exponent(RatePair(0.4, 0.4), xor_bsc(0.1), uniform_law(),
                            solver=D4)
        assert exponents._ANCHORS and lattice._CACHE
        clear_lattice_cache()
        assert not any(lattice._MEMOS)
        assert not exponents._ANCHORS and not exponents._LAW_MARGINALS


def _scalar_region(rates: RatePair, w: Channel, u_grid: int):
    """``region_contains`` one atom at a time: a JointDist per atom, the
    public measures of ``probability`` and a pairwise dominance loop.
    Returns the witness law's probabilities and pentagon, or None."""
    def ceilings(law):
        joint = joint_from_law_and_channel(law.joint, w)
        return [conditional_mutual_information(joint, ("X",), ("Z",), ("Y", "U")),
                conditional_mutual_information(joint, ("Y",), ("Z",), ("X", "U")),
                conditional_mutual_information(joint, ("X", "Y"), ("Z",), ("U",))]

    gx, gy = (compositions_array(a.size, u_grid) / u_grid
              for a in (w.x_alphabet, w.y_alphabet))
    atoms = [(i, j) for i in range(len(gx)) for j in range(len(gy))]
    vals = np.asarray([ceilings(InputLaw.from_components([1.0], gx[i:i + 1],
                                                         gy[j:j + 1]))
                       for i, j in atoms])
    keep = [k for k in range(len(atoms))
            if not any(m != k and np.all(vals[m] >= vals[k])
                       and np.any(vals[m] > vals[k]) for m in range(len(atoms)))]
    weights = compositions_array(4, u_grid) / u_grid
    target = [rates.rx, rates.ry, rates.rx + rates.ry]
    for combo in combinations_with_replacement(range(len(keep)), 4):
        ok = np.all(weights @ vals[[keep[c] for c in combo]] >= target, axis=1)
        if ok.any():
            wsel = weights[int(np.argmax(ok))]
            support = [(wsel[s], atoms[keep[combo[s]]]) for s in range(4)
                       if wsel[s] > 0.0]
            law = InputLaw.from_components(
                [m for m, _ in support],
                np.asarray([gx[i] for _, (i, _) in support]),
                np.asarray([gy[j] for _, (_, j) in support]))
            return law.joint.probs, ceilings(law)
    return None


class TestPentagonAndRegion:
    def test_identity_channel_pentagon(self):
        p = capacity_pentagon(uniform_law(), identity_channel())
        assert abs(p.i_x - 1.0) <= 1e-12
        assert abs(p.i_y - 1.0) <= 1e-12
        assert abs(p.i_xy - 2.0) <= 1e-12

    def test_adder_channel_pentagon(self):
        p = capacity_pentagon(uniform_law(), adder_channel())
        assert abs(p.i_x - 1.0) <= 1e-12
        assert abs(p.i_y - 1.0) <= 1e-12
        assert abs(p.i_xy - 1.5) <= 1e-12

    def test_useless_channel_pentagon(self):
        p = capacity_pentagon(uniform_law(), useless_channel())
        for v in (p.i_x, p.i_y, p.i_xy):
            assert abs(v) <= 1e-12

    def test_xor_bsc_pentagon(self):
        p = capacity_pentagon(uniform_law(), xor_bsc(0.1))
        for v in (p.i_x, p.i_y, p.i_xy):
            assert abs(v - XOR01_PENTAGON) <= 1e-12

    def test_pentagon_validation(self):
        with pytest.raises(ValidationError):
            Pentagon(1.0, 1.0, 0.5)

    def test_contains_is_closed(self):
        p = Pentagon(1.0, 1.0, 1.5)
        assert p.contains(RatePair(1.0, 0.5))
        assert p.contains(RatePair(0.75, 0.75))
        assert not p.contains(RatePair(0.8, 0.8))

    @pytest.mark.parametrize("u_grid, message", [
        (2.5, "must be an integer"), (True, "must be an integer"),
        (0, "must be >= 1")], ids=["float", "bool", "zero"])
    def test_grid_must_be_a_positive_integer(self, u_grid, message):
        with pytest.raises(ValidationError, match=f"^u_grid {message}$"):
            region_contains(RatePair(0.1, 0.1), xor_bsc(0.1), u_grid=u_grid)

    def test_origin_always_inside(self):
        witness = region_contains(RatePair(0.0, 0.0), xor_bsc(0.3))
        assert witness.found

    def test_alphabet_limits_exclude(self):
        witness = region_contains(RatePair(1.5, 0.1), xor_bsc(0.1))
        assert not witness.found

    def test_adder_midpoint_inside_with_witness(self):
        witness = region_contains(RatePair(0.7, 0.7), adder_channel(), u_grid=8)
        assert witness.found
        pent = witness.pentagon
        assert pent.contains(RatePair(0.7, 0.7))
        assert pent.i_xy >= 1.4 - 1e-9

    # a one-atom witness, a two-atom mixture and a miss
    @pytest.mark.parametrize("rates", [(0.2, 0.2), (0.05, 0.35), (0.3, 0.1)])
    def test_ternary_inputs_match_the_scalar_search(self, rates):
        w = random_channel(np.random.default_rng(3), 3, 3, 2)
        got = region_contains(RatePair(*rates), w, u_grid=4)
        want = _scalar_region(RatePair(*rates), w, 4)
        assert got.found == (want is not None)
        if want is not None:
            assert np.array_equal(got.input_law.joint.probs, want[0])
            assert [got.pentagon.i_x, got.pentagon.i_y, got.pentagon.i_xy] == want[1]

    # mixtures of two and three atoms, and a miss
    @pytest.mark.parametrize("rates", [(0.1, 0.35), (0.3, 0.1), (0.3, 0.3)])
    def test_blocks_of_mixtures_keep_the_first_witness(self, monkeypatch, rates):
        w = random_channel(np.random.default_rng(3), 3, 3, 2)
        whole = region_contains(RatePair(*rates), w, u_grid=6)
        # one multiset of atoms a block, as the scalar loop, and seven
        for budget in (1, 3 * math.comb(6 + 3, 3) * 7):
            monkeypatch.setattr(exponents, "ENTROPY_CELLS", budget)
            got = region_contains(RatePair(*rates), w, u_grid=6)
            assert got.found == whole.found
            if whole.found:
                assert np.array_equal(got.input_law.joint.probs,
                                      whole.input_law.joint.probs)
                assert got.pentagon == whole.pentagon

    @pytest.mark.parametrize("seed", range(12))
    def test_front_scan_keeps_the_all_pairs_front(self, seed):
        # few distinct levels make duplicate rows and exact ties common;
        # the last rows dominate each other with equal float sums
        rng = np.random.default_rng(seed)
        levels = rng.random(int(rng.integers(2, 6)))
        vals = levels[rng.integers(0, len(levels), size=(300, 3))]
        vals = np.vstack((vals, vals[:40], [[1e16, 1.0, 0.0], [1e16, 0.0, 0.0]]))
        assert vals[-1].sum() == vals[-2].sum()
        rng.shuffle(vals)
        want = [k for k in range(len(vals))
                if not ((vals >= vals[k]).all(axis=1)
                        & (vals > vals[k]).any(axis=1)).any()]
        assert _pareto_front(vals).tolist() == want

    def test_witness_pentagon_reproducible(self):
        w = adder_channel()
        a = region_contains(RatePair(0.7, 0.7), w, u_grid=8)
        b = region_contains(RatePair(0.7, 0.7), w, u_grid=8)
        assert a.pentagon.i_xy == b.pentagon.i_xy
        assert np.array_equal(a.input_law.joint.probs, b.input_law.joint.probs)

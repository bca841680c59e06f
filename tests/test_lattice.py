"""Marginal-pinned lattice enumeration against a filtered full enumeration.

The reference here is written in the test: every composition of d into the
branch's cells (``compositions_array``), kept when each pinned marginal
passes the float pin test of the evaluation,
``abs(count / d - p) <= 0.5 / d``.  The pinned cache must hold exactly that
ordered subsequence, with the same per-type quantities, and minimizing over
it must give the same value, argmin and feasibility flag as minimizing over
the rows of a cache of all compositions that the test's own filter keeps.
"""

import gc
import math
import tracemalloc
import weakref
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macexp import (
    InputLaw,
    RatePair,
    ScaleGuardError,
    SolverSpec,
    baseline_branch_exponent,
    baseline_exponent,
    branch_exponent,
    expurgated_exponent,
)
from macexp import lattice
from macexp.cli import main
from macexp.exponents import _branch_axes, _divergences, _law_marginals
from macexp.fileio import channel_to_dict, law_to_dict, save_json
from macexp.lattice import (
    BASELINE_SPECS,
    BRANCH_SPECS,
    LatticeCache,
    admissible_counts,
    cache_from_counts,
    clear_lattice_cache,
    get_cache,
    minimize_branch,
)
from macexp.probability import JointBatch, JointDist, conditional_mutual_information
from macexp.typeclasses import compositions_array, xlogx_table
from helpers import (adder_channel, branch_sizes, chan, identity_channel,
                     uniform_law, xor_bsc)

SPECS = {**BRANCH_SPECS, **{s.name: s for s in BASELINE_SPECS.values()}}

# largest full enumeration a reference builds
REFERENCE_ROWS = 60_000
# most cells of a checked branch
MAX_CELLS = 32


def _shapes(spec):
    """(|U|, |X|, |Y|, |Z|, d) with the branch over at most MAX_CELLS cells
    and the full enumeration small enough for a reference."""
    out = []
    for u, x, y, z in product((1, 2), (2, 3), (2, 3), (2, 3)):
        by_label = {"U": u, "X": x, "Y": y, "X~": x, "Y~": y, "Z": z}
        cells = math.prod(by_label[lab] for lab in spec.labels)
        if cells > MAX_CELLS:
            continue
        out += [(u, x, y, z, d) for d in range(2, 7)
                if math.comb(d + cells - 1, cells - 1) <= REFERENCE_ROWS]
    return out


def _binary_rows(spec, d):
    """Compositions of d into the branch's cells on binary alphabets, |U|=1."""
    cells = 2 ** (len(spec.labels) - 1)
    return math.comb(d + cells - 1, d)


def _simplex(draw, size, grid):
    """A distribution over ``size`` symbols: on the 1/grid lattice, where
    d * p can be a half-integer, or a random float one."""
    if draw(st.booleans()):
        cuts = sorted(draw(st.lists(st.integers(0, grid), min_size=size - 1,
                                    max_size=size - 1)))
        parts = np.diff([0] + cuts + [grid])
        return parts / grid
    raw = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=size,
                                   max_size=size)))
    return raw / raw.sum() if raw.sum() > 0 else np.full(size, 1.0 / size)


@st.composite
def instances(draw, name):
    spec = SPECS[name]
    u, x, y, z, d = draw(st.sampled_from(_shapes(spec)))
    grid = 2 * d
    law = InputLaw.from_components(
        _simplex(draw, u, grid),
        np.stack([_simplex(draw, x, grid) for _ in range(u)]),
        np.stack([_simplex(draw, y, grid) for _ in range(u)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = rng.gamma(1.0, 1.0, size=(x, y, z))
    w[rng.random((x, y, z)) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    w[..., 0] += (w.sum(axis=2) == 0.0)              # no all-zero row
    w /= w.sum(axis=2, keepdims=True)
    return law, chan(w), d


def reference_rows(spec, sizes, d, law_marginals):
    """All compositions of d into the cells, and which pass the pin test."""
    full = compositions_array(math.prod(sizes), d)
    view = full.reshape((-1,) + sizes)
    keep = np.ones(full.shape[0], dtype=bool)
    for subset, base in spec.marginal_eq:
        drop = tuple(i + 1 for i, lab in enumerate(spec.labels)
                     if lab not in subset)
        m = view.sum(axis=drop).reshape(full.shape[0], -1) / d
        keep &= (np.abs(m - law_marginals[tuple(base)]) <= 0.5 / d).all(axis=1)
    return full, keep


# largest lattice the per-subset build reference reduces
BUILD_ROWS = 250_000


def per_subset_quantities(spec, sizes, d, counts, chunk=1 << 14):
    """Per-type quantities with each label set's marginal counts reduced
    separately: ``view.sum(axis=drop)`` in int64, the "g*log2(g)" terms
    summed along each row, and the combinations added in their order."""
    table = xlogx_table(d)
    combos = lattice._branch_combos(spec)
    out = {name: np.empty(counts.shape[0]) for name in combos}
    for a in range(0, counts.shape[0], chunk):
        view = counts[a:a + chunk].reshape((-1,) + sizes)
        xl = {}
        for combo in combos.values():
            for s in combo:
                if s not in xl:
                    drop = tuple(i + 1 for i, lab in enumerate(spec.labels)
                                 if lab not in s)
                    g = view.sum(axis=drop, dtype=np.int64)
                    xl[s] = np.take(table, g).reshape(view.shape[0], -1).sum(axis=1)
        for name, combo in combos.items():
            acc = np.zeros(view.shape[0])
            for s, coef in combo.items():
                acc += coef * xl[s]
            out[name][a:a + chunk] = -acc / d
    return out


def law_of(px, py=(0.5, 0.5)):
    return InputLaw.from_components([1.0], [list(px)], [list(py)])


RATES = st.floats(0.0, 1.6)


class TestPinnedEnumeration:
    @pytest.mark.parametrize("name", list(SPECS))
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data(), rx=RATES, ry=RATES, delta=st.floats(0.0, 0.1))
    def test_matches_the_filtered_full_lattice(self, name, data, rx, ry, delta):
        law, w, d = data.draw(instances(name))
        self.check(SPECS[name], law, w, d, rx, ry, delta)

    # d * p = 0.5 for P_X = (1/8, 7/8) at d = 4: two admissible counts for
    # every X cell; at d = 6 no X row passes for P_X = (1/4, 3/4)
    @pytest.mark.parametrize("name,px,d", [
        (name, px, d) for name in SPECS
        for px, d in (((0.125, 0.875), 4), ((0.5, 0.5), 4), ((0.25, 0.75), 6))
        if _binary_rows(SPECS[name], d) <= REFERENCE_ROWS])
    def test_half_integer_and_empty_pins(self, name, px, d):
        self.check(SPECS[name], law_of(px), xor_bsc(0.1), d, 0.5, 0.4, 0.0)

    @staticmethod
    def check(spec, law, w, d, rx, ry, delta):
        lm = _law_marginals(law)
        sizes = branch_sizes(spec, law, w)
        pinned = get_cache(spec, sizes, d, lm)
        full, keep = reference_rows(spec, sizes, d, lm)
        assert np.array_equal(pinned.counts, full[keep])
        whole = cache_from_counts(spec, sizes, d, full)
        for q, values in whole.quantities.items():
            assert np.array_equal(pinned.quantities[q], values[keep])
        filtered = LatticeCache(spec, sizes, d, full[keep],
                                {q: v[keep] for q, v in whole.quantities.items()})
        for weighting in ("V", "P"):
            got = minimize_branch(pinned, rx, ry, delta, lm, w.w, weighting)
            want = minimize_branch(filtered, rx, ry, delta, lm, w.w, weighting)
            assert got[0] == want[0]
            assert got[2] == want[2]
            if want[1] is None:
                assert got[1] is None
            else:
                assert np.array_equal(got[1], want[1])

    def test_empty_lattice(self):
        law = law_of((0.25, 0.75))
        for spec in SPECS.values():
            lm = _law_marginals(law)
            for (_, base), pin in zip(spec.marginal_eq,
                                      admissible_counts(spec, 6, lm)):
                if base == ("U", "X"):     # no count passes for the 3/4 cell
                    assert pin == ((2,), ())
            cache = get_cache(spec, branch_sizes(spec, law, xor_bsc(0.1)), 6, lm)
            assert cache.total == 0
            assert minimize_branch(cache, 0.5, 0.5, 0.0, lm,
                                   xor_bsc(0.1).w) == (math.inf, None, False)


class TestLinearTerm:
    def test_a_row_gets_the_same_bits_wherever_it_sits(self):
        # BLAS gemv kernels treat the last rows of a call, and the rows at a
        # thread split, differently; slices of many lengths and offsets put
        # every kind of row there
        counts = compositions_array(16, 6)
        rng = np.random.default_rng(5)
        for _ in range(4):
            w = -np.log2(rng.uniform(0.01, 1.0, 16))
            full = lattice._linear_term(counts, w)
            for a in rng.integers(0, counts.shape[0] - 5000, 40):
                for n in rng.integers(1, 5000, 3):
                    assert np.array_equal(
                        lattice._linear_term(counts[a:a + n], w), full[a:a + n])
            rows = np.sort(rng.choice(counts.shape[0], 17_249, replace=False))
            assert np.array_equal(lattice._linear_term(counts[rows], w),
                                  full[rows])

    def test_scratch_does_not_grow_with_the_rows(self):
        # a float copy of 200,000 rows of 16 counts would take 25.6 MB; the
        # product holds one block of rows and the padding of the last one
        rng = np.random.default_rng(6)
        counts = rng.integers(0, 7, (200_000, 16), dtype=np.uint8)
        w = -np.log2(rng.uniform(0.01, 1.0, 16))
        tracemalloc.start()
        try:
            out = lattice._linear_term(counts, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 2 * lattice._GEMV_CELLS * 8


class TestValueVector:
    # a binary law, and a |U| = 2, ternary-X law with P-mass zero on some
    # (u, x) cells; both channels have zero entries
    CASES = (
        (law_of((0.5, 0.5)),
         chan([[[0.9, 0.1], [0.0, 1.0]], [[0.3, 0.7], [0.5, 0.5]]]),
         (("X", 5), ("XY", 4))),
        (InputLaw.from_components([0.5, 0.5], [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]],
                                  [[0.5, 0.5], [0.5, 0.5]]),
         chan([[[0.9, 0.1], [0.0, 1.0]], [[0.3, 0.7], [0.5, 0.5]],
               [[1.0, 0.0], [0.2, 0.8]]]),
         (("X", 4), ("XY", 4))),
    )

    @pytest.mark.parametrize("weighting", ["V", "P"])
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_each_entry_is_the_scalar_divergence_plus_mi(self, case, weighting):
        # every row's entry against the divergence of its joint alone, as a
        # batch of one row of the candidate batch the anchors and --refine
        # judge, plus its I(X;Y|U)
        law, w, lattices = self.CASES[case]
        lm = _law_marginals(law)
        for name, d in lattices:
            spec = BRANCH_SPECS[name]
            axes = _branch_axes(spec, law, w)
            sizes = tuple(a.size for a in axes)
            clear_lattice_cache()
            cache = get_cache(spec, sizes, d, lm)
            minimize_branch(cache, 1.0, 1.0, 0.0, lm, w.w, weighting)
            (vector,) = cache.values.values()
            want = np.array([
                _divergences(JointBatch.of(v), w, law, weighting)[0]
                + conditional_mutual_information(v, ("X",), ("Y",), ("U",))
                for v in (JointDist(axes, row.reshape(sizes) / d)
                          for row in cache.counts)])
            assert cache.total > 200
            inf = np.isinf(want)
            assert 0 < inf.sum() < cache.total
            assert np.array_equal(np.isinf(vector), inf)
            assert np.abs(vector[~inf] - want[~inf]).max() <= 1e-12


class TestChunkedEvaluation:
    @pytest.mark.parametrize("weighting", ["V", "P"])
    def test_chunks_do_not_change_the_minimum(self, monkeypatch, weighting):
        # many chunks against one
        clear_lattice_cache()
        law, spec, d = law_of((0.4, 0.6)), BRANCH_SPECS["XY"], 5
        w = chan([[[0.9, 0.1], [0.0, 1.0]], [[0.3, 0.7], [0.5, 0.5]]])
        lm = _law_marginals(law)
        sizes = branch_sizes(spec, law, w)
        whole = get_cache(spec, sizes, d, lm)
        want = minimize_branch(whole, 1.0, 0.9, 0.05, lm, w.w, weighting)
        split = cache_from_counts(spec, sizes, d, whole.counts)
        monkeypatch.setattr(lattice, "_EVAL_CHUNK", 250)
        got = minimize_branch(split, 1.0, 0.9, 0.05, lm, w.w, weighting)
        assert whole.total > 40 * 250
        assert got[0] == want[0] and got[2] == want[2]
        assert np.array_equal(got[1], want[1])
        (vector,) = split.values.values()
        assert np.array_equal(vector, next(iter(whole.values.values())))

    # the binary adder with a 10% flip under three X laws and a two-symbol
    # U, and the noiseless ternary-output adder
    BUILD_CASES = (
        [(law_of(px), xor_bsc(0.1))
         for px in ((0.5, 0.5), (0.25, 0.75), (1 / 3, 2 / 3))]
        + [(InputLaw.from_components([0.5, 0.5], [[0.5, 0.5], [0.25, 0.75]],
                                     [[0.5, 0.5], [0.5, 0.5]]), xor_bsc(0.1)),
           (uniform_law(), adder_channel())])

    @pytest.mark.parametrize("name", list(SPECS))
    def test_build_equals_per_subset_reductions(self, name):
        # every lattice of at most BUILD_ROWS rows at d = 2..8 and 16: branch
        # XY at d = 8 on the adder with a flip is in, at d = 8 under |U|=2
        # not.  Up to d = 8 these rows' "g*log2(g)" terms gave the same bits
        # in every summation order tried; at d = 16 those of baseline rows
        # and of branch X under P_X = (1/4, 3/4) do not
        spec = SPECS[name]
        for law, w in self.BUILD_CASES:
            lm, sizes = _law_marginals(law), branch_sizes(spec, law, w)
            for d in (*range(2, 9), 16):
                plan = lattice._PinnedPlan(spec, sizes, d,
                                           admissible_counts(spec, d, lm),
                                           lattice.LATTICE_BYTES)
                if plan.rows > BUILD_ROWS:
                    continue
                counts = plan.enumerate()
                got = cache_from_counts(spec, sizes, d, counts).quantities
                want = per_subset_quantities(spec, sizes, d, counts)
                assert got.keys() == want.keys()
                for q, values in want.items():
                    assert np.array_equal(got[q], values), (name, d, q)

    def test_build_chunks_do_not_change_the_quantities(self, monkeypatch):
        # a build in chunks of five rows, the last one short, against the
        # build at the default chunk bytes
        law = law_of((0.4, 0.6))
        for spec in SPECS.values():
            sizes = branch_sizes(spec, law, xor_bsc(0.1))
            counts = get_cache(spec, sizes, 5, _law_marginals(law)).counts
            whole = cache_from_counts(spec, sizes, 5, counts)
            row = lattice._sum_chunk(spec, sizes)[2]
            with monkeypatch.context() as mp:
                mp.setattr(lattice, "SUM_BYTES", 5 * row + 1)
                assert lattice._sum_chunk(spec, sizes)[1] == 5
                split = cache_from_counts(spec, sizes, 5, counts)
            assert counts.shape[0] % 5 and counts.shape[0] > 5
            assert whole.quantities.keys() == split.quantities.keys()
            for q, values in whole.quantities.items():
                assert np.array_equal(split.quantities[q], values)


class TestCacheSharing:
    def test_laws_that_pin_alike_share_one_build(self, monkeypatch):
        clear_lattice_cache()
        builds = []
        build = lattice.cache_from_counts

        def counted(spec, *args):
            builds.append(spec.name)
            return build(spec, *args)

        monkeypatch.setattr(lattice, "cache_from_counts", counted)
        d6 = SolverSpec(lattice_denominator=6)
        for px in ((0.5, 0.5), (0.52, 0.48)):
            branch_exponent("X", RatePair(0.4, 0.4), xor_bsc(0.1), law_of(px),
                            solver=d6)
        assert builds == ["X"]
        branch_exponent("X", RatePair(0.4, 0.4), xor_bsc(0.1),
                        law_of((0.125, 0.875)), solver=d6)
        assert builds == ["X", "X"]

    def test_each_lattice_is_planned_once(self, monkeypatch, tmp_path):
        clear_lattice_cache()
        plans, builds, alive = [], [], []
        plan = lattice._PinnedPlan.__init__
        build = lattice.cache_from_counts

        def planned(self, spec, *args):
            plans.append(spec.name)
            alive.append(weakref.ref(self))
            plan(self, spec, *args)

        def built(spec, *args):
            builds.append(spec.name)
            return build(spec, *args)

        monkeypatch.setattr(lattice._PinnedPlan, "__init__", planned)
        monkeypatch.setattr(lattice, "cache_from_counts", built)
        d6 = SolverSpec(lattice_denominator=6)
        for _ in range(2):
            expurgated_exponent(RatePair(0.4, 0.4), xor_bsc(0.1), uniform_law(),
                                solver=d6)
            baseline_exponent(RatePair(0.4, 0.4), xor_bsc(0.1), uniform_law(),
                              solver=d6)
        assert plans == builds == ["X", "Y", "XY",
                                   "baseline_X", "baseline_Y", "baseline_XY"]
        # no plan outlives the solve that made it
        gc.collect()
        assert [ref() for ref in alive] == [None] * 6
        # at d = 13 branch XY is refused after X and Y are planned: nothing
        # is built, and no plan outlives the command
        save_json(tmp_path / "chan.json", channel_to_dict(xor_bsc(0.1)))
        save_json(tmp_path / "law.json", law_to_dict(uniform_law()))
        assert main(["exponent", "--channel", str(tmp_path / "chan.json"),
                     "--law", str(tmp_path / "law.json"), "--rx", "0.4",
                     "--ry", "0.4", "--denominator", "13",
                     "--branch", "all"]) == 3
        assert plans[6:] == ["X", "Y", "XY"]
        assert len(builds) == 6
        gc.collect()
        assert [ref() for ref in alive] == [None] * 9

    def test_a_cache_dropped_after_planning_is_planned_again(self, monkeypatch):
        # baseline_Y is held when the solve plans its branches, and an
        # expurgated cache built after it fills the budget: building
        # baseline_X drops both, so baseline_Y is planned again and rebuilt
        rates, w, law = RatePair(0.4, 0.4), xor_bsc(0.1), uniform_law()
        d5 = SolverSpec(lattice_denominator=5)
        clear_lattice_cache()
        fresh = baseline_exponent(rates, w, law, solver=d5)
        clear_lattice_cache()
        baseline_branch_exponent("Y", rates, w, law, solver=d5)
        branch_exponent("X", rates, w, law, solver=d5)
        projected = []
        for spec in BASELINE_SPECS.values():
            sizes = branch_sizes(spec, law, w)
            rows = lattice._PinnedPlan(
                spec, sizes, 5, admissible_counts(spec, 5, _law_marginals(law)),
                lattice.LATTICE_BYTES).rows
            stored, scratch = lattice._row_bytes(spec, sizes, 5)
            _, chunk, sums = lattice._sum_chunk(spec, sizes)
            projected.append(rows * (stored + scratch) + min(rows, chunk) * sums)
        budget = max(projected)
        assert sum(c.nbytes for c in lattice._CACHE.values()) > budget
        monkeypatch.setattr(lattice, "LATTICE_BYTES", budget)
        plans, builds = [], []
        plan = lattice._PinnedPlan.__init__
        build = lattice.cache_from_counts

        def planned(self, spec, *args):
            plans.append(spec.name)
            plan(self, spec, *args)

        def built(spec, *args):
            builds.append(spec.name)
            return build(spec, *args)

        monkeypatch.setattr(lattice._PinnedPlan, "__init__", planned)
        monkeypatch.setattr(lattice, "cache_from_counts", built)
        res = baseline_exponent(rates, w, law, solver=d5)
        assert plans == ["baseline_X", "baseline_XY", "baseline_Y"]
        assert builds == ["baseline_X", "baseline_Y", "baseline_XY"]
        assert (res.value, res.branch, res.source) == (
            fresh.value, fresh.branch, fresh.source)
        assert np.array_equal(res.argmin.probs, fresh.argmin.probs)

    def test_held_caches_stay_within_the_byte_budget(self, monkeypatch):
        clear_lattice_cache()
        law = uniform_law()
        lm = _law_marginals(law)
        xy = BRANCH_SPECS["XY"]
        sizes = branch_sizes(xy, law, xor_bsc(0.1))
        budget = get_cache(xy, sizes, 4, lm).nbytes + 1
        monkeypatch.setattr(lattice, "LATTICE_BYTES", budget)
        x = BRANCH_SPECS["X"]
        get_cache(x, branch_sizes(x, law, xor_bsc(0.1)), 4, lm)
        assert [c.spec.name for c in lattice._CACHE.values()] == ["X"]
        assert sum(c.nbytes for c in lattice._CACHE.values()) <= budget


class TestByteGuard:
    def test_denominator_8_runs_branch_xy(self):
        law = uniform_law()
        xy = BRANCH_SPECS["XY"]
        cache = get_cache(xy, branch_sizes(xy, law, xor_bsc(0.1)), 8,
                          _law_marginals(law))
        assert cache.total == 240_828
        res = branch_exponent("XY", RatePair(0.4, 0.4), xor_bsc(0.1), law,
                              solver=SolverSpec(lattice_denominator=8))
        assert res.source == "lattice"

    def test_build_stays_within_the_projected_bytes(self):
        # branch XY at d = 8: the build holds its stored quantities and one
        # chunk's scratch; enumeration and build together hold what
        # plan_lattice projects before allowing them
        clear_lattice_cache()
        law, xy, d = uniform_law(), BRANCH_SPECS["XY"], 8
        sizes = branch_sizes(xy, law, xor_bsc(0.1))
        _, chunk, scratch_row = lattice._sum_chunk(xy, sizes)
        stored_row, enum_row = lattice._row_bytes(xy, sizes, d)
        fixed = 1 << 16                     # indicator, cell maps, plan
        tracemalloc.start()
        try:
            cache = get_cache(xy, sizes, d, _law_marginals(law))
            whole = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            built = cache_from_counts(xy, sizes, d, cache.counts)
            build = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        rows = cache.total
        assert rows > 50 * chunk
        quantities = sum(q.nbytes for q in built.quantities.values())
        assert build <= quantities + chunk * scratch_row + fixed
        assert whole <= rows * (stored_row + enum_row) + chunk * scratch_row + fixed

    def test_denominator_12_is_refused_before_allocating(self):
        # 22,901,128 pinned rows: about 3.7 GB of cache alone
        tracemalloc.start()
        try:
            with pytest.raises(ScaleGuardError, match="22901128 pinned types"):
                branch_exponent("XY", RatePair(0.4, 0.4), xor_bsc(0.1),
                                uniform_law(),
                                solver=SolverSpec(lattice_denominator=12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_row_counts_past_int64_are_refused(self):
        # baseline XY over (U,X,Y,Z) with |Z| = 4 at d = 254 has about 2e20
        # pinned rows, more than an int64 holds, while each step of the
        # dynamic program stays within the budget
        with pytest.raises(ScaleGuardError,
                           match=f"over {lattice.LATTICE_BYTES} pinned types"):
            baseline_branch_exponent("XY", RatePair(0.4, 0.4),
                                     identity_channel(), uniform_law(),
                                     solver=SolverSpec(lattice_denominator=254))

    # 100 bytes stop the dynamic program's first step; 150,000 bytes let it
    # finish and stop the 904 rows of branch XY at d = 4
    @pytest.mark.parametrize("budget,refusal", [(100, "program"),
                                                (150_000, "904 pinned types")])
    def test_small_budget_refuses(self, monkeypatch, budget, refusal):
        clear_lattice_cache()
        monkeypatch.setattr(lattice, "LATTICE_BYTES", budget)
        with pytest.raises(ScaleGuardError, match=refusal):
            branch_exponent("XY", RatePair(0.4, 0.4), xor_bsc(0.1),
                            uniform_law(), solver=SolverSpec(lattice_denominator=4))

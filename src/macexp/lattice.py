"""Vectorized minimization of branch objectives over rational type lattices.

The exponent of each error branch is an exact minimum of

    D(V_{Z|XYU} || W | .) + I_V(X;Y|U) + |clamp(V) - rate offset|+

over joint distributions V subject to marginal pinning, mutual-information
rate constraints, and (for the expurgated branches) the decoder condition
that the true pair's equivocation is at least the competitor pair's.

Candidates are the joint types with a fixed denominator d whose pinned
marginals lie within 0.5/d of the input law: for every marginal cell, the
counts c in 0..d with ``abs(c/d - p) <= 0.5/d`` in float64 (see
``admissible_counts``).  The cache key holds those counts, so every row a
cache holds passes the pin and the evaluation does not test it again.  They
are enumerated directly, as fixed-margin tables (Diaconis & Sturmfels
1998): a dynamic program over the flat cells
tracks the partial marginal sums, counts the completions of every state
and so gives the exact row count before anything is allocated.  The rows
are then written one cell's column at a time: partial rows are extended
by their values in ascending order, keeping only those with a completion,
and the completions of each partial row fill one run of rows.  The rows
are therefore exactly the ordered subsequence of all compositions of d
that passes the pin test, in ascending lexicographic order of the
flattened count tensor.  Requests whose rows, cache and scratch memory
would exceed ``LATTICE_BYTES`` raise ``ScaleGuardError`` before any large
allocation; a solve plans all its lattices before building any, and then
hands each plan to ``get_cache``.

Every entropic quantity of a type is a rational combination of integer
"g*log2(g)" sums over marginal count tensors, so for a given (branch,
alphabet sizes, d, admissible counts) they are computed once, cached, and
reused across channels, rate pairs and every law that pins the same way.
A build gets a chunk's marginal counts over every label set from one uint8
product with a 0/1 indicator of the marginal cells, exact because no sum
exceeds d <= 255.
The rate-independent part of the objective, divergence plus I(X;Y|U), is
one matrix-vector product per channel, kept with the cache; a rate pair
then reduces to vector comparisons, the clamp and an argmin.

The grid is chunked and reduced with an associative (value, index) min,
so chunk size cannot change results: ties always resolve to the smallest
enumeration index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ScaleGuardError
from .probability import term_sums
from .typeclasses import code_places, distinct_rows, xlogx_table

# Slack for the equivocation comparison alpha(true) >= alpha(competitor).
# Symmetric candidates (competitor identical to the true pair) produce the
# two sides from the same integer counts summed in different axis orders,
# which can differ by a few ulp; the slack keeps those ties feasible while
# staying far below every reported tolerance.
ALPHA_TOL = 1e-10

# Slack for the rate constraints, for the same reason: candidates such as
# the duplicated-competitor anchor routinely sit mathematically exactly on
# a constraint boundary (for instance I equal to a sum of rates), where
# rounding alone would decide feasibility.
RATE_TOL = 1e-10

# Objective values are sums of entropic terms, each carrying ulp-scale
# rounding; anything this small is indistinguishable from an exact zero.
ZERO_SNAP = 1e-12

_EVAL_CHUNK = 1 << 18

# Memory bound of the lattice layer: the caches held at once with their
# value vectors, and the projected rows x bytes of one build (stored arrays
# plus enumeration scratch, and one chunk's build scratch) or of one step
# of its dynamic program.  Branch XY on binary alphabets needs about 0.5 GB
# at d=10 (2,605,984 pinned rows) and would need about 4.7 GB at d=12
# (22,901,128), which is refused.
LATTICE_BYTES = 1 << 30

# Scratch one ``cache_from_counts`` chunk holds next to the stored rows:
# its uint8 marginal sums and what they are reduced with (``_sum_chunk``).
SUM_BYTES = 1 << 21

# OpenBLAS computes the last (rows mod 4) rows of a gemv call, and the rows
# at its thread splits, with a different kernel whose last bit can differ.
# Blocks of a multiple of 4 rows and at most this many entries run on one
# thread with one kernel, so a row's value does not depend on where it sits.
# Each such block is copied into one reused buffer, and the P-weighted
# divergence takes its rows in blocks of at most this many values too.
_GEMV_CELLS = 1 << 13


@dataclass(frozen=True)
class MITerm:
    """One conditional mutual information I(a ; b | c) by axis labels."""

    a: tuple[str, ...]
    b: tuple[str, ...]
    c: tuple[str, ...]


@dataclass(frozen=True)
class RateConstraint:
    """sum of ``terms`` <= rhs . (R_X, R_Y, min(R_X, R_Y), delta)."""

    name: str
    terms: tuple[MITerm, ...]
    rhs: tuple[int, int, int, int]


@dataclass(frozen=True)
class BranchSpec:
    """Declarative description of one branch's feasible set and objective."""

    name: str
    labels: tuple[str, ...]
    # (marginal axes of V, corresponding axes of the input law to pin to)
    marginal_eq: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    constraints: tuple[RateConstraint, ...]
    clamp_terms: tuple[MITerm, ...]
    clamp_offset: tuple[int, int]  # coefficients of R_X and R_Y
    alpha_competitor: tuple[str, ...] | None
    # closed-form candidates that compete with the lattice minimum, each the
    # input law times the channel: "fresh" draws every wrong word anew,
    # "diag" copies the true one, "product" has no wrong words
    anchors: tuple[str, ...]


def rate_sum(coeffs, rx: float, ry: float, delta: float = 0.0) -> float:
    """coeffs . (rx, ry, min(rx, ry), delta), adding only the terms with a
    nonzero coefficient, left to right: a right-hand side or clamp offset
    as written out, so a -0.0 rate stays -0.0."""
    total = None
    for coeff, value in zip(coeffs, (rx, ry, min(rx, ry), delta)):
        if coeff:
            total = coeff * value if total is None else total + coeff * value
    return total


def _mi(a, b, c=()):
    def as_labels(v):
        return (v,) if isinstance(v, str) else tuple(v)
    return MITerm(as_labels(a), as_labels(b), as_labels(c))


# The full constraint family on joint types of (u, x_i, y_j, x_k, y_l).
CONFUSABILITY_CONSTRAINTS = (
    RateConstraint("pair_xy", (_mi("X", "Y", "U"),), (0, 0, 1, 3)),
    RateConstraint("pair_xyt", (_mi("X", "Y~", "U"),), (0, 0, 1, 3)),
    RateConstraint("pair_xty", (_mi("X~", "Y", "U"),), (0, 0, 1, 3)),
    RateConstraint("pair_xtyt", (_mi("X~", "Y~", "U"),), (0, 0, 1, 3)),
    RateConstraint(
        "triple_x",
        (_mi("X", "Y", "U"), _mi("X~", "Y", "U"), _mi("X~", "X", ("U", "Y"))),
        (1, 0, 1, 4),
    ),
    RateConstraint(
        "triple_x_alt",
        (_mi("X", "Y~", "U"), _mi("X~", "Y~", "U"), _mi("X~", "X", ("U", "Y~"))),
        (1, 0, 1, 4),
    ),
    RateConstraint(
        "triple_y",
        (_mi("X", "Y", "U"), _mi("X", "Y~", "U"), _mi("Y~", "Y", ("U", "X"))),
        (0, 1, 1, 4),
    ),
    RateConstraint(
        "triple_y_alt",
        (_mi("X~", "Y", "U"), _mi("X~", "Y~", "U"), _mi("Y~", "Y", ("U", "X~"))),
        (0, 1, 1, 4),
    ),
    RateConstraint(
        "quad",
        (_mi("X", "Y", "U"), _mi("X~", "Y~", "U"), _mi(("X~", "Y~"), ("X", "Y"), "U")),
        (1, 1, 1, 5),
    ),
    RateConstraint(
        "quad_alt",
        (_mi("X~", "Y", "U"), _mi("X", "Y~", "U"), _mi(("X", "Y~"), ("X~", "Y"), "U")),
        (1, 1, 1, 5),
    ),
)


def present_constraints(labels) -> tuple[RateConstraint, ...]:
    """The constraints of the family whose variables are all in ``labels``:
    those a joint over these axes can be checked against."""
    labels = set(labels)
    return tuple(c for c in CONFUSABILITY_CONSTRAINTS
                 if all(set(t.a + t.b + t.c) <= labels for t in c.terms))


# Expurgated branches.  Branch X confuses the X codeword only: the
# competitor axis X~ carries the other codeword, pinned to the same
# conditional law as X.  Branch Y mirrors it; branch XY confuses both and
# carries the full ten-inequality constraint set realized joint types of a
# good code must satisfy.  Each branch checks the constraints its axes
# carry, by the rule that checks a realized type.
BRANCH_X = BranchSpec(
    name="X",
    labels=("U", "X", "Y", "X~", "Z"),
    marginal_eq=(
        (("U", "X"), ("U", "X")),
        (("U", "X~"), ("U", "X")),
        (("U", "Y"), ("U", "Y")),
    ),
    constraints=present_constraints(("U", "X", "Y", "X~")),
    clamp_terms=(_mi("X~", ("X", "Z"), ("Y", "U")), _mi("X~", "Y", "U")),
    clamp_offset=(1, 0),
    alpha_competitor=("X~", "Y"),
    anchors=("fresh", "diag"),
)

BRANCH_Y = BranchSpec(
    name="Y",
    labels=("U", "X", "Y", "Y~", "Z"),
    marginal_eq=(
        (("U", "Y"), ("U", "Y")),
        (("U", "Y~"), ("U", "Y")),
        (("U", "X"), ("U", "X")),
    ),
    constraints=present_constraints(("U", "X", "Y", "Y~")),
    clamp_terms=(_mi("Y~", ("Y", "Z"), ("X", "U")), _mi("X", "Y~", "U")),
    clamp_offset=(0, 1),
    alpha_competitor=("X", "Y~"),
    anchors=("fresh", "diag"),
)

BRANCH_XY = BranchSpec(
    name="XY",
    labels=("U", "X", "Y", "X~", "Y~", "Z"),
    marginal_eq=(
        (("U", "X"), ("U", "X")),
        (("U", "X~"), ("U", "X")),
        (("U", "Y"), ("U", "Y")),
        (("U", "Y~"), ("U", "Y")),
    ),
    constraints=present_constraints(("U", "X", "Y", "X~", "Y~")),
    clamp_terms=(_mi(("X~", "Y~"), ("X", "Y", "Z"), "U"), _mi("X~", "Y~", "U")),
    clamp_offset=(1, 1),
    alpha_competitor=("X~", "Y~"),
    anchors=("fresh", "diag"),
)

# Relaxed reference branches: no competitor axes, no decoder condition,
# a single rate constraint, and the clamp written on the true pair only.
BASELINE_X = BranchSpec(
    name="baseline_X",
    labels=("U", "X", "Y", "Z"),
    marginal_eq=((("U", "X"), ("U", "X")), (("U", "Y"), ("U", "Y"))),
    constraints=(RateConstraint("pair_xy", (_mi("X", "Y", "U"),), (1, 0, 0, 3)),),
    clamp_terms=(_mi("X", ("Y", "Z"), "U"),),
    clamp_offset=(1, 0),
    alpha_competitor=None,
    anchors=("product",),
)

BASELINE_Y = BranchSpec(
    name="baseline_Y",
    labels=("U", "X", "Y", "Z"),
    marginal_eq=((("U", "X"), ("U", "X")), (("U", "Y"), ("U", "Y"))),
    constraints=(RateConstraint("pair_xy", (_mi("X", "Y", "U"),), (0, 1, 0, 3)),),
    clamp_terms=(_mi("Y", ("X", "Z"), "U"),),
    clamp_offset=(0, 1),
    alpha_competitor=None,
    anchors=("product",),
)

BASELINE_XY = BranchSpec(
    name="baseline_XY",
    labels=("U", "X", "Y", "Z"),
    marginal_eq=((("U", "X"), ("U", "X")), (("U", "Y"), ("U", "Y"))),
    constraints=(RateConstraint("pair_xy", (_mi("X", "Y", "U"),), (1, 1, 0, 3)),),
    clamp_terms=(_mi(("X", "Y"), "Z", "U"), _mi("X", "Y", "U")),
    clamp_offset=(1, 1),
    alpha_competitor=None,
    anchors=("product",),
)

BRANCH_SPECS = {"X": BRANCH_X, "Y": BRANCH_Y, "XY": BRANCH_XY}
BASELINE_SPECS = {"X": BASELINE_X, "Y": BASELINE_Y, "XY": BASELINE_XY}


def _combo_from_terms(terms) -> dict[frozenset, float]:
    """Entropy-combination form of a sum of conditional MI terms."""
    combo: dict[frozenset, float] = {}

    def add(subset, coef):
        s = frozenset(subset)
        if not s:
            return
        combo[s] = combo.get(s, 0.0) + coef
        if combo[s] == 0.0:
            del combo[s]

    for t in terms:
        a, b, c = set(t.a), set(t.b), set(t.c)
        add(a | c, +1.0)
        add(b | c, +1.0)
        add(a | b | c, -1.0)
        add(c, -1.0)
    return combo


def _branch_combos(spec: BranchSpec) -> dict[str, dict[frozenset, float]]:
    combos: dict[str, dict[frozenset, float]] = {}
    combos["mi_xy"] = _combo_from_terms((_mi("X", "Y", "U"),))
    for c in spec.constraints:
        combos[c.name] = _combo_from_terms(c.terms)
    combos["clamp"] = _combo_from_terms(spec.clamp_terms)
    # -H(Z | everything but Z) over the true-pair marginal (U, X, Y)
    all_l = set(spec.labels)
    combos["div_ent"] = {
        frozenset(all_l & {"U", "X", "Y"}): 1.0,
        frozenset((all_l & {"U", "X", "Y"}) | {"Z"}): -1.0,
    }
    if spec.alpha_competitor is not None:
        true_s = frozenset({"U", "X", "Y", "Z"})
        comp_s = frozenset({"U", "Z"} | set(spec.alpha_competitor))
        combos["alpha_diff"] = {true_s: 1.0, comp_s: -1.0}
    return combos


@dataclass
class LatticeCache:
    """Channel-independent per-type quantities for one (branch, sizes, d),
    and the rate-independent value vector of each channel evaluated on it."""

    spec: BranchSpec
    sizes: tuple[int, ...]
    d: int
    counts: np.ndarray                      # (N, cells) uint8
    quantities: dict[str, np.ndarray]       # name -> (N,) float64
    # (weighting, channel[, law]) -> (N,) float64, see ``_value_vector``
    values: dict[tuple, np.ndarray] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.counts.shape[0]

    @property
    def nbytes(self) -> int:
        return (self.counts.nbytes
                + sum(a.nbytes for a in self.quantities.values())
                + sum(a.nbytes for a in self.values.values()))


_CACHE: dict[tuple, LatticeCache] = {}

# Entries a content-keyed memo holds before dropping its oldest; each is a
# few small arrays or floats, so this bounds a memo to a few MB.
MEMO_ENTRIES = 1024

_MEMOS: list[dict] = [_CACHE]


def memo() -> dict:
    """A new memo that ``clear_lattice_cache`` empties with the caches."""
    table: dict = {}
    _MEMOS.append(table)
    return table


def memoised(table: dict, key, compute):
    """``table[key]``, first set to ``compute()`` (dropping the oldest entry
    when the table is full)."""
    hit = table.get(key)
    if hit is None:
        if len(table) >= MEMO_ENTRIES:
            table.pop(next(iter(table)))
        hit = table[key] = compute()
    return hit


def clear_lattice_cache() -> None:
    """Drop every cache, value vector and memoised per-law result."""
    for table in _MEMOS:
        table.clear()


def _subset_axes(labels, subset) -> tuple[int, ...]:
    return tuple(i for i, l in enumerate(labels) if l in subset)


def marginal_cells(labels, sizes, subset) -> np.ndarray:
    """For each flat cell (C order) of a tensor over ``labels``, the flat
    index of the cell of its marginal over ``subset`` that it adds to."""
    keep = _subset_axes(labels, subset)
    flat = np.indices(sizes).reshape(len(sizes), -1)
    return np.ravel_multi_index(tuple(flat[i] for i in keep),
                                tuple(sizes[i] for i in keep))


def place(a: np.ndarray, axes, labels) -> np.ndarray:
    """``a``, whose dimensions run over ``axes``, shaped to broadcast over a
    tensor on ``labels``; ``axes`` must appear in ``labels`` in their order."""
    shape = [1] * len(labels)
    for dim, lab in enumerate(axes):
        shape[labels.index(lab)] = a.shape[dim]
    return a.reshape(shape)


_PINS = memo()


def pin_half_width(d: int) -> float:
    """How far a pinned marginal of a denominator-d candidate may lie from
    the law: the lattice's pin test, the anchors' and ``--refine``'s."""
    return 0.5 / d


def admissible_counts(spec: BranchSpec, d: int, law_marginals: dict) -> tuple:
    """Per pinned marginal and marginal cell, the counts c in 0..d whose
    share c/d lies within 0.5/d of the law, ``abs(c/d - p) <= 0.5/d`` in
    float64: the pin test that decides which rows a cache enumerates."""
    bases = tuple(tuple(base) for _, base in spec.marginal_eq)
    grid = np.arange(d + 1, dtype=np.float64) / d
    half = pin_half_width(d)
    return memoised(
        _PINS, (bases, d) + tuple(law_marginals[b].tobytes() for b in bases),
        lambda: tuple(
            tuple(tuple(np.flatnonzero(np.abs(grid - target) <= half).tolist())
                  for target in law_marginals[base])
            for base in bases))


def _row_bytes(spec: BranchSpec, sizes, d: int) -> tuple[int, int]:
    """(bytes a cache stores per row with one value vector, enumeration
    scratch per row)."""
    cells = int(np.prod(sizes))
    stored = cells + 8 * len(_branch_combos(spec)) + 8
    # per partial row (never more than rows): the admissible-value mask and
    # five index vectors (parent row, value, its gather, old and new state)
    return stored, (d + 1) + 5 * 8


def _sum_chunk(spec: BranchSpec, sizes) -> tuple[list, int, int]:
    """(the label sets whose marginal entropies a cache sums, smallest
    first; rows of one ``cache_from_counts`` chunk; build scratch bytes of
    one row): a chunk holds at most ``SUM_BYTES`` of scratch.

    A row's scratch is its transposed counts, its uint8 marginal sums over
    every label set, the intp indices and float64 values ``np.take``
    gathers for the largest set, and one float64 "g*log2(g)" sum per set."""
    subsets = sorted({s for combo in _branch_combos(spec).values() for s in combo},
                     key=lambda s: (len(s), sorted(s)))
    cells = [math.prod(sizes[i] for i in _subset_axes(spec.labels, s))
             for s in subsets]
    row = math.prod(sizes) + sum(cells) + 16 * max(cells) + 8 * len(subsets)
    return subsets, max(1, SUM_BYTES // row), row


class _PinnedPlan:
    """Dynamic program over the flat cells in C order for the rows whose
    pinned marginal counts are all admissible.

    A state is the vector of partial marginal sums (one column per marginal
    cell, plus the running total).  ``steps[k][i, v]`` is the state reached
    from state ``i`` of level k by giving cell k the count v, or -1 when a
    marginal cell exceeds its largest admissible count or closes on an
    inadmissible one; ``ways[k][i]`` counts the completions of state i,
    capped at ``budget + 1`` so the int64 sums cannot wrap: a build of more
    rows than the budget has bytes is refused anyway.
    """

    def __init__(self, spec: BranchSpec, sizes, d: int, pins, budget: int):
        cells = int(np.prod(sizes))
        hits, allowed = [], []
        for (subset, _), counts in zip(spec.marginal_eq, pins):
            hits.append(len(allowed) + marginal_cells(spec.labels, sizes, subset))
            for ok in counts:
                row = np.zeros(d + 1, dtype=bool)
                row[list(ok)] = True
                allowed.append(row)
        hits.append(np.full(cells, len(allowed)))
        total = np.zeros(d + 1, dtype=bool)
        total[d] = True
        allowed.append(total)
        hit = np.stack(hits, axis=1)                  # (cells, columns)
        allowed = np.stack(allowed)                   # (columns, d + 1)
        n_cols = allowed.shape[0]
        cap = np.where(allowed.any(axis=1),
                       d - np.argmax(allowed[:, ::-1], axis=1), -1)
        last = np.zeros(n_cols, dtype=np.intp)        # cell that closes a column
        for k in range(cells):
            last[hit[k]] = k

        # states are numbered in ascending order of their partial sums,
        # read as radix d + 1 code words
        place = code_places(d + 1, n_cols)
        values = np.arange(d + 1, dtype=np.int16)
        states = np.zeros((1, n_cols), dtype=np.int16)
        self.steps: list[np.ndarray] = []
        held = 0
        for k in range(cells):
            n = states.shape[0] * (d + 1)
            # the candidate states, their code words and sort order, the
            # inverse and step
            if held + n * (8 * n_cols + 24) > budget:
                raise ScaleGuardError(
                    f"branch {spec.name}: the pinned-lattice program at "
                    f"denominator {d} exceeds {budget} bytes")
            child = np.repeat(states, d + 1, axis=0)
            child[:, hit[k]] += np.tile(values, states.shape[0])[:, None]
            ok = (child <= cap).all(axis=1)
            for c in np.flatnonzero(last == k):
                ok &= allowed[c, np.minimum(child[:, c], d)]
            kept = child[ok]
            codes, inv = distinct_rows(kept @ place.T)
            states = np.empty((codes.shape[0], n_cols), dtype=np.int16)
            states[inv] = kept
            step = np.full(n, -1, dtype=np.int64)
            step[ok] = inv
            self.steps.append(step.reshape(-1, d + 1))
            held += step.nbytes + states.nbytes
        self.ways = [np.ones(states.shape[0], dtype=np.int64)]
        for step in reversed(self.steps):
            nxt = np.append(self.ways[0], 0)          # index -1 has no ways
            self.ways.insert(0, np.minimum(nxt[step].sum(axis=1), budget + 1))

    @property
    def rows(self) -> int:
        return int(self.ways[0][0])

    def enumerate(self) -> np.ndarray:
        """The pinned rows as a uint8 matrix in ascending lexicographic
        order: each partial row is extended by its admissible values in
        ascending order, parents in order, so no row is ever reordered.
        The completions of a partial row are then one run of rows, as long
        as its state's ways, and each cell's column is written run by run."""
        rows = np.empty((self.rows, len(self.steps)), dtype=np.uint8)
        state = np.zeros(1, dtype=np.int64)
        for k, step in enumerate(self.steps):
            alive = np.append(self.ways[k + 1] > 0, False)[step]
            parent, value = np.nonzero(alive[state])
            state = step[state[parent], value]
            rows[:, k] = np.repeat(value.astype(np.uint8), self.ways[k + 1][state])
        return rows


def cache_from_counts(spec: BranchSpec, sizes: tuple[int, ...], d: int,
                      counts: np.ndarray) -> LatticeCache:
    """Per-type quantities of the given rows.

    Each chunk of rows gets the marginal counts of every label set from one
    integer product with a 0/1 indicator of the marginal cells; a sum of at
    most d <= 255 counts is exact in uint8 whatever the order.  A set's
    "g*log2(g)" terms are then summed over its cells, a whole row of
    ``sums`` at a time, in the order numpy sums each row of a C-ordered
    (rows, cells) block (``term_sums``), and the quantities combine those
    sums in a fixed order, so no value depends on the chunk a row falls
    in."""
    n_rows = counts.shape[0]
    combos = _branch_combos(spec)

    table = xlogx_table(d)

    quantities = {name: np.empty(n_rows, dtype=np.float64) for name in combos}

    subsets, chunk, _ = _sum_chunk(spec, sizes)
    # each set's columns, in the C order of its marginal cells
    blocks = [marginal_cells(spec.labels, sizes, s) for s in subsets]
    edges = np.cumsum([0] + [block.max() + 1 for block in blocks])
    indicator = np.zeros((counts.shape[1], edges[-1]), dtype=np.uint8)
    for block, start in zip(blocks, edges):
        indicator[np.arange(block.size), start + block] = 1
    for a in range(0, n_rows, chunk):
        b = min(a + chunk, n_rows)
        # (marginal cell, row): the rows run along the product's inner loop
        sums = np.einsum("ck,cr->kr", indicator,
                         np.ascontiguousarray(counts[a:b].T))
        # a set's cells are rows of sums: term_sums adds them in the order
        # numpy sums one row of a (rows, cells) block
        xl = {s: term_sums(np.take(table, sums[lo:hi]))
              for s, lo, hi in zip(subsets, edges, edges[1:])}
        for name, combo in combos.items():
            acc = np.zeros(b - a, dtype=np.float64)
            for s, coef in combo.items():
                acc += coef * xl[s]
            quantities[name][a:b] = -acc / d
        del sums, xl                    # before the next chunk allocates

    return LatticeCache(spec, sizes, d, counts, quantities)


def _make_room(extra: int, keep: LatticeCache | None = None) -> None:
    """Drop the oldest caches other than ``keep``, then ``keep``'s value
    vectors, until ``extra`` more bytes fit within ``LATTICE_BYTES``."""
    held = sum(c.nbytes for c in _CACHE.values() if c is not keep)
    held += keep.nbytes if keep is not None else 0
    for key in [k for k, c in _CACHE.items() if c is not keep]:
        if held + extra <= LATTICE_BYTES:
            return
        held -= _CACHE.pop(key).nbytes
    if keep is not None and held + extra > LATTICE_BYTES:
        keep.values.clear()


def plan_lattice(spec: BranchSpec, sizes: tuple[int, ...], d: int,
                 law_marginals: dict) -> tuple[tuple, _PinnedPlan | None]:
    """The cache key of one branch's lattice and the plan of its rows, or
    None when that cache is held.

    The rows are those of ``compositions_array(cells, d)`` whose pinned
    marginal counts are all admissible (see ``admissible_counts``), in the
    same order.  Raises ``ScaleGuardError`` when they, at the bytes a cache
    stores per row plus the enumeration scratch, would exceed
    ``LATTICE_BYTES``; the count is known before any row is allocated, so
    callers that need several lattices plan them all before building any.
    """
    if d > 255:
        raise ScaleGuardError(
            f"branch {spec.name}: denominator {d} exceeds 255, the largest "
            "count a lattice row stores")
    key = (spec.name, sizes, d, admissible_counts(spec, d, law_marginals))
    if key in _CACHE:
        return key, None
    plan = _PinnedPlan(spec, sizes, d, key[3], LATTICE_BYTES)
    stored, scratch = _row_bytes(spec, sizes, d)
    _, chunk, sums = _sum_chunk(spec, sizes)
    if plan.rows * (stored + scratch) + min(plan.rows, chunk) * sums > LATTICE_BYTES:
        rows = plan.rows if plan.rows <= LATTICE_BYTES else f"over {LATTICE_BYTES}"
        raise ScaleGuardError(
            f"branch {spec.name}: {rows} pinned types at denominator {d} "
            f"need over {LATTICE_BYTES} bytes, the lattice budget")
    return key, plan


def get_cache(spec: BranchSpec, sizes: tuple[int, ...], d: int,
              law_marginals: dict, planned: tuple | None = None) -> LatticeCache:
    """The cached lattice of one branch at denominator d, holding the types
    that pass the pin test against ``law_marginals``, built from
    ``planned``, what ``plan_lattice`` returned for it, or else planned
    here.  Laws whose admissible counts agree share one cache; the oldest
    caches are dropped to keep every cache held, with its value vectors,
    within ``LATTICE_BYTES``."""
    key, plan = planned or plan_lattice(spec, sizes, d, law_marginals)
    if key not in _CACHE:
        if plan is None:
            # held when planned, then dropped by a build since
            key, plan = plan_lattice(spec, sizes, d, law_marginals)
        counts = plan.enumerate()
        stored, _ = _row_bytes(spec, sizes, d)
        _make_room(counts.shape[0] * stored)
        _CACHE[key] = cache_from_counts(spec, sizes, d, counts)
    return _CACHE[key]


def channel_log_vector(spec: BranchSpec, sizes: tuple[int, ...], w: np.ndarray):
    """Flattened -log2 W(z|x,y) broadcast over the branch's cells.

    Returns (finite_vector, infinite_cell_indices): cells where the channel
    puts zero mass are split out so 0 * inf never arises in the matvec.
    """
    with np.errstate(divide="ignore"):
        neg = -np.log2(w)
    # X, Y, Z appear in that relative order in every branch label tuple
    full = np.broadcast_to(place(neg, ("X", "Y", "Z"), spec.labels), sizes).ravel()
    inf_cells = np.flatnonzero(~np.isfinite(full))
    finite = np.where(np.isfinite(full), full, 0.0)
    return finite, inf_cells


def _chunk_value(cache: LatticeCache, base: np.ndarray, a: int, b: int,
                 rhs: list, alpha: bool, clamp_off: float):
    q = cache.quantities
    feas = np.ones(b - a, dtype=bool)
    for name, bound in rhs:
        feas &= q[name][a:b] <= bound + RATE_TOL
    if alpha:
        feas &= q["alpha_diff"][a:b] >= -ALPHA_TOL
    value = base[a:b] + np.maximum(q["clamp"][a:b] - clamp_off, 0.0)
    # sums of divergences and mutual informations are >= 0; rounding can
    # leave ulp-scale residue on either side of zero, corrupting zero minima
    value = np.maximum(value, 0.0)
    value[value < ZERO_SNAP] = 0.0
    value = np.where(feas, value, np.inf)
    i = int(np.argmin(value))
    return float(value[i]), a + i, bool(feas.any())


def _value_vector(cache: LatticeCache, w: np.ndarray, weighting: str,
                  law_marginals: dict, ranges: list) -> np.ndarray:
    """Divergence + I(X;Y|U) of every row: the part of the objective no rate
    changes, built once per channel and weighting and kept with the cache.
    Under P weighting the divergence also depends on the law, which the
    cache does not fix, so the law is part of the key."""
    spec = cache.spec
    key = (weighting, w.shape, w.tobytes())
    p_uxy = None
    if weighting == "P":
        p_uxy = law_marginals[("U", "X", "Y")]
        key += (p_uxy.tobytes(),)
        p_uxy = p_uxy.reshape(
            tuple(cache.sizes[i] for i in _subset_axes(spec.labels, {"U", "X", "Y"})))
    base = cache.values.get(key)
    if base is not None:
        return base
    if weighting == "V":
        w_finite, inf_cells = channel_log_vector(spec, cache.sizes, w)
    q = cache.quantities
    base = np.empty(cache.total)
    for a, b in ranges:
        if weighting == "V":
            value = (q["div_ent"][a:b]
                     + _linear_term(cache.counts[a:b], w_finite) / cache.d)
            if inf_cells.size:
                # rows with a count where the channel has no mass
                value[cache.counts[a:b][:, inf_cells].any(axis=1)] = np.inf
        else:
            value = _p_weighted_divergence(cache, a, b, w, p_uxy)
        base[a:b] = value + q["mi_xy"][a:b]
        del value                       # before the next chunk allocates
    _make_room(base.nbytes, cache)
    cache.values[key] = base
    return base


def _linear_term(counts: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``counts @ w`` per row, bit-identical wherever the row sits.

    Each block of rows is copied into one reused float buffer, zero-padded
    to the block's full shape, so every product has the same shape and the
    scratch does not grow with the rows."""
    n, cells = counts.shape
    step = max(4, _GEMV_CELLS // cells // 4 * 4)
    block = np.zeros((step, cells))
    out = np.empty(-(-n // step) * step)
    for a in range(0, n, step):
        rows = min(step, n - a)
        block[:rows] = counts[a:a + rows]
        block[rows:] = 0.0
        np.matmul(block, w, out=out[a:a + step])
    return out[:n]


def _p_weighted_divergence(cache: LatticeCache, a: int, b: int,
                           w: np.ndarray, p_uxy: np.ndarray) -> np.ndarray:
    """D(V_{Z|XYU} || W | P_{UXY}) per type; conditioning cells with zero
    V-mass contribute zero by convention (their conditional is free).

    Rows go a block at a time, held cell-major: a block's (Z, U, X, Y)
    counts are one uint8 product with a 0/1 matrix of each cell's (Z, U,
    X, Y) cell, as in ``cache_from_counts``, and no array over them holds
    more than ``_GEMV_CELLS`` values.  Each row
    adds its terms over Z, then over (U, X, Y), in the order numpy sums a
    row of a C-ordered (rows, U, X, Y, Z) block (``term_sums``)."""
    nz = w.shape[-1]
    # (Z, U X Y): the channel's -log2 and the cells of positive P-mass
    # where it has none
    with np.errstate(divide="ignore"):
        neg = -np.log2(np.broadcast_to(w, p_uxy.shape + (nz,)))
    neg = neg.reshape(-1, nz).T
    p_uxy = p_uxy.ravel()
    inf_mask = ~np.isfinite(neg) & (p_uxy > 0)
    neg = np.where(np.isfinite(neg), neg, 0.0)
    cells = marginal_cells(cache.spec.labels, cache.sizes, {"U", "X", "Y", "Z"})
    to_cells = np.zeros((inf_mask.size, cells.size), dtype=np.uint8)
    # (U X Y, Z) cell k * nz + z goes to row z * |U X Y| + k
    to_cells[cells % nz * p_uxy.size + cells // nz, np.arange(cells.size)] = 1
    out = np.empty(b - a)
    step = max(1, _GEMV_CELLS // inf_mask.size)
    for lo in range(a, b, step):
        hi = min(lo + step, b)
        g = np.einsum("kc,cr->kr", to_cells,
                      np.ascontiguousarray(cache.counts[lo:hi].T))
        g = g.astype(np.float64).reshape(nz, p_uxy.size, hi - lo)
        gz = g.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.where(gz > 0, g / np.where(gz > 0, gz, 1.0), 0.0)
            logc = np.where(cond > 0, np.log2(np.where(cond > 0, cond, 1.0)), 0.0)
        per_cell = cond * (logc + neg[..., None])
        value = term_sums(term_sums(per_cell * p_uxy[:, None]))
        if inf_mask.any():
            hit = ((cond > 0) & inf_mask[..., None]).any(axis=(0, 1))
            value[hit] = np.inf
        out[lo - a:hi - a] = value
    return out


def minimize_branch(cache: LatticeCache, rx: float, ry: float, delta: float,
                    law_marginals: dict, w: np.ndarray, weighting: str = "V"):
    """Exact lattice minimum of the branch objective.

    Returns (value, argmin_counts or None, any_feasible).  Ties resolve to
    the smallest enumeration index regardless of chunking.
    """
    spec = cache.spec
    rhs = [(c.name, rate_sum(c.rhs, rx, ry, delta)) for c in spec.constraints]
    clamp_off = rate_sum(spec.clamp_offset, rx, ry)
    alpha = spec.alpha_competitor is not None
    ranges = [(a, min(a + _EVAL_CHUNK, cache.total))
              for a in range(0, cache.total, _EVAL_CHUNK)]
    base = _value_vector(cache, w, weighting, law_marginals, ranges)

    chunks = [_chunk_value(cache, base, a, b, rhs, alpha, clamp_off)
              for a, b in ranges]
    best_val, best_idx, _ = min(chunks, key=lambda c: c[0],
                                default=(math.inf, -1, False))
    argmin = cache.counts[best_idx] if math.isfinite(best_val) else None
    return best_val, argmin, any(feas for _, _, feas in chunks)

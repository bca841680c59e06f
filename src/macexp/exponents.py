"""Expurgated and baseline error exponents, pentagons, and the rate region.

The expurgated bound is a minimum over three branches (wrong X word,
wrong Y word, both wrong).  Each branch minimizes

    D(V_{Z|XYU} || W | V_XYU)  +  I_V(X;Y|U)  +  | clamp(V) - rates |+

over joint laws V whose marginals match the code's input law and whose
mutual-information profile is one a good expurgated code can realize,
restricted further by the decoder condition that the transmitted pair's
equivocation weakly exceeds the competitor's.  The baseline drops the
competitor coupling and keeps only the relaxed constraint set, which makes
it provably no larger than the expurgated value on a shared lattice.

Minimization is exact over the denominator-d type lattice (see
``lattice``), augmented with zero-divergence anchors "input law x channel"
whose competitor word is a fresh copy or a duplicate of the true one (the
duplicate realizes 0 once both rates exceed the alphabet entropies).  Each
candidate off the lattice, an anchor, a ``--refine`` move or a
``branch_objective`` joint, is a row of a ``JointBatch`` that one verdict
(``_judge``) tests, so none bypasses a constraint; ties resolve to the
lattice, then the anchors in declaration order, then the refined joint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, islice

import numpy as np

from .errors import ValidationError, check_count
from .lattice import (
    ALPHA_TOL,
    BASELINE_SPECS,
    BRANCH_SPECS,
    CONFUSABILITY_CONSTRAINTS,
    RATE_TOL,
    ZERO_SNAP,
    BranchSpec,
    MITerm,
    get_cache,
    marginal_cells,
    memo,
    memoised,
    minimize_branch,
    pin_half_width,
    place,
    plan_lattice,
    present_constraints,
    rate_sum,
)
from .probability import (
    ENTROPY_CELLS,
    EQ_TOL,
    Alphabet,
    Channel,
    JointBatch,
    JointDist,
    check_law_channel,
    joint_from_law_and_channel,
    marginalize,
)
from .typeclasses import compositions_array


def check_delta(delta: float) -> None:
    """Refuse a slack that is negative or not a finite number."""
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ValidationError(f"delta must be finite and >= 0, got {delta}")


@dataclass(frozen=True)
class RatePair:
    rx: float
    ry: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(r) and r >= 0.0 for r in (self.rx, self.ry)):
            raise ValidationError(
                f"rates must be finite and >= 0, got ({self.rx}, {self.ry})")

    @property
    def lower(self) -> float:
        return min(self.rx, self.ry)


@dataclass(frozen=True)
class SolverSpec:
    """How branch minima are computed."""

    lattice_denominator: int = 4
    refine_steps: int = 0
    divergence_weighting: str = "V"  # weight D by the candidate V or by the law P

    def __post_init__(self) -> None:
        check_count("lattice_denominator", self.lattice_denominator, 2)
        if self.divergence_weighting not in ("V", "P"):
            raise ValidationError("divergence_weighting must be 'V' or 'P'")
        check_count("refine_steps", self.refine_steps, 0)


@dataclass(frozen=True)
class InputLaw:
    """Time-shared product input law P(u) P(x|u) P(y|u) as a (U,X,Y) joint.

    The conditional independence of the two senders given the shared
    variable is validated within EQ_TOL on construction.
    """

    joint: JointDist

    def __post_init__(self) -> None:
        if self.joint.labels != ("U", "X", "Y"):
            raise ValidationError(
                f"InputLaw joint must have axes ('U','X','Y'), got {self.joint.labels}"
            )
        pu, px, py = self.conditionals()
        gap = np.abs(self.joint.probs
                     - pu[:, None, None] * px[:, :, None] * py[:, None, :])
        if gap.max() > EQ_TOL:
            u, x, y = np.unravel_index(int(np.argmax(gap)), gap.shape)
            raise ValidationError(
                f"senders are not independent given U: cell (u={u}, x={x}, "
                f"y={y}) deviates by {gap.max():.3e}"
            )

    @classmethod
    def from_components(cls, p_u, p_x_given_u, p_y_given_u) -> "InputLaw":
        pu = np.asarray(p_u, dtype=np.float64)
        px = np.asarray(p_x_given_u, dtype=np.float64)
        py = np.asarray(p_y_given_u, dtype=np.float64)
        if pu.ndim != 1 or px.ndim != 2 or py.ndim != 2:
            raise ValidationError("from_components: expected p_u 1-D, conditionals 2-D")
        if px.shape[0] != pu.size or py.shape[0] != pu.size:
            raise ValidationError("from_components: conditional row count != |U|")
        joint = pu[:, None, None] * px[:, :, None] * py[:, None, :]
        axes = (Alphabet(pu.size, "U"), Alphabet(px.shape[1], "X"),
                Alphabet(py.shape[1], "Y"))
        return cls(JointDist(axes, joint))

    def marginal_flat(self, labels: tuple[str, ...]) -> np.ndarray:
        return marginalize(self.joint, labels).probs.ravel()

    def conditionals(self):
        """(P_U, P_{X|U}, P_{Y|U}); zero-mass u rows get uniform rows."""
        p = self.joint.probs
        pu = p.sum(axis=(1, 2))
        return (pu, conditional_rows(p.sum(axis=2), pu),
                conditional_rows(p.sum(axis=1), pu))


def conditional_rows(joint: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Each row of a (u, symbol) table over its u's mass, and a uniform row
    where u has no mass."""
    rows = joint / np.where(mass > 0.0, mass, 1.0)[:, None]
    rows[mass == 0.0] = 1.0 / joint.shape[1]
    return rows


@dataclass(frozen=True)
class ExponentResult:
    value: float
    branch: str
    argmin: JointDist | None
    lattice_denominator: int
    delta: float
    feasible_empty: bool = False
    source: str = "lattice"


@dataclass(frozen=True)
class PackingExponents:
    """Exponents bounding how often confusable joint types occur in a good
    random code: the plain pair, wrong-X, wrong-Y and wrong-both cases."""

    pair: float
    x: float
    y: float
    xy: float


# The packing families of a code, in the field order of PackingExponents.
# Each maps to its competitor axes (in the order a tally encodes them), the
# confusability constraint whose left side less its R_X and R_Y terms is
# the family's packing exponent, and the delta coefficient of its average
# and per-pair maximum reports.
PACKING_FAMILIES = {
    family: (wrong, c, avg_delta)
    for family, wrong, name, avg_delta in (
        ("pair", (), "pair_xy", 2),
        ("triple_x", ("X~",), "triple_x", 3),
        ("triple_y", ("Y~",), "triple_y", 3),
        ("quad", ("X~", "Y~"), "quad", 4))
    for c in CONFUSABILITY_CONSTRAINTS if c.name == name
}


def _mi_sum(batch: JointBatch, terms: tuple[MITerm, ...]) -> np.ndarray:
    """The sum of the conditional mutual informations ``terms`` at every
    row, added in term order."""
    return sum(batch.conditional_mutual_information(t.a, t.b, t.c) for t in terms)


def family_exponents(batch: JointBatch, family: str, rates: RatePair
                     ) -> np.ndarray:
    """Packing exponent of one family at every joint of a batch carrying its
    axes."""
    c = PACKING_FAMILIES[family][1]
    value = batch.per_chunk(lambda chunk: _mi_sum(chunk, c.terms))
    # one rate at a time: their sum rounds differently
    for coeff, rate in zip(c.rhs, (rates.rx, rates.ry)):
        if coeff:
            value -= coeff * rate
    return value


def packing_exponents(v: JointDist, rates: RatePair) -> PackingExponents:
    """All four packing exponents of a five-axis (U,X,Y,X~,Y~) joint."""
    need = {"U", "X", "Y", "X~", "Y~"}
    if not need.issubset(set(v.labels)):
        raise ValidationError(f"packing_exponents: joint must carry axes {sorted(need)}")
    batch = JointBatch.of(v)
    return PackingExponents(*(float(family_exponents(batch, f, rates)[0])
                              for f in PACKING_FAMILIES))


def pair_equivocation(v: JointDist) -> float:
    """H(X,Y | Z,U): the decoder's score for the pair carried by (X, Y)."""
    return float(JointBatch.of(v).conditional_entropy(("X", "Y"), ("Z", "U"))[0])


@dataclass(frozen=True)
class ConstraintViolation:
    name: str
    lhs: float
    rhs: float


def _check_lhs(batch: JointBatch, p: InputLaw, pins, constraints) -> np.ndarray:
    """(N, checks) left sides at every row: for each pin (marginal axes,
    input-law axes) the marginal's largest deviation from the law, then
    each rate constraint's sum of mutual informations."""
    law = _law_marginals(p)
    gaps = [np.abs(batch.marginal(subset) - law[base]).max(axis=1)
            for subset, base in pins]
    return np.stack(gaps + [_mi_sum(batch, c.terms) for c in constraints], axis=1)


def _verdict(lhs: np.ndarray, n_pins: int, constraints, rates: RatePair,
             delta: float, tol: float) -> tuple[tuple[float, ...], np.ndarray]:
    """Each check's right side at these rates, and where the left sides from
    ``_check_lhs`` break it: pin gaps over ``tol``, constraints over rhs + RATE_TOL."""
    rate_rhs = tuple(rate_sum(c.rhs, rates.rx, rates.ry, delta)
                     for c in constraints)
    bound = np.array((tol,) * n_pins + tuple(r + RATE_TOL for r in rate_rhs))
    return (tol,) * n_pins + rate_rhs, ~(lhs <= bound)


def _check_names(pins, constraints) -> tuple[str, ...]:
    return tuple([f"marginal_{'_'.join(subset)}" for subset, _ in pins]
                 + [c.name for c in constraints])


@dataclass(frozen=True)
class ConfusabilityChecks:
    """Each check's left side at every row of a batch (N, checks), its right
    side and which rows break it: marginal pins first (the largest
    deviation against the tolerance), then the rate constraints, and for a
    branch with a competitor the equivocation order."""

    names: tuple[str, ...]
    lhs: np.ndarray
    rhs: tuple[float, ...]
    violated: np.ndarray

    def violations(self, row: int) -> list[ConstraintViolation]:
        """The checks one row breaks, with both sides."""
        return [ConstraintViolation(name, value, bound) for name, value, bound, bad
                in zip(self.names, self.lhs[row].tolist(), self.rhs,
                       self.violated[row]) if bad]


def confusability_checks(batch: JointBatch, p: InputLaw, rates: RatePair,
                         delta: float = 0.0, tol: float = EQ_TOL
                         ) -> ConfusabilityChecks:
    """``confusability_feasible`` at every joint of a batch, bit for bit."""
    labels = set(batch.labels)
    if not {"U", "X", "Y"}.issubset(labels):
        raise ValidationError("confusability check needs axes (U, X, Y)")
    pins = [(("U", a), ("U", a[0])) for a in ("X", "Y", "X~", "Y~") if a in labels]
    present = present_constraints(labels)
    lhs = batch.per_chunk(lambda chunk: _check_lhs(chunk, p, pins, present))
    rhs, violated = _verdict(lhs, len(pins), present, rates, delta, tol)
    return ConfusabilityChecks(_check_names(pins, present), lhs, rhs, violated)


def confusability_feasible(v: JointDist, p: InputLaw, rates: RatePair,
                           delta: float = 0.0, tol: float = EQ_TOL):
    """Check the rate-constraint family a realized confusable joint type
    must satisfy.

    ``v`` carries axes (U, X, Y) plus any subset of the competitor axes
    (X~, Y~); only the constraints whose variables are present are
    checked, alongside the marginal pinning of every present axis to the
    input law.  Returns (feasible, violations).
    """
    violations = confusability_checks(JointBatch.of(v), p, rates, delta,
                                      tol).violations(0)
    return (len(violations) == 0), violations


@dataclass(frozen=True)
class ObjectiveReport:
    value: float
    divergence: float
    mi_xy: float
    clamp: float
    feasible: bool
    violations: tuple[ConstraintViolation, ...]


def _divergences(batch: JointBatch, w: Channel, p: InputLaw,
                 weighting: str) -> np.ndarray:
    """D(V_{Z|XYU} || W | .) of every row from its own (U, X, Y, Z)
    marginal, weighted by the row itself (V) or by the law (P)."""
    shape = p.joint.probs.shape + (w.z_alphabet.size,)
    rows = np.ascontiguousarray(
        batch.marginal(("U", "X", "Y", "Z")).reshape((-1,) + shape))
    if weighting == "P":
        return np.array([_p_weighted_divergence(probs, p.joint.probs, w.w)
                         for probs in rows])
    h = JointBatch(("U", "X", "Y", "Z"), rows).conditional_entropy(
        ("Z",), ("U", "X", "Y")).tolist()
    wb = np.broadcast_to(w.w[None], shape)
    out = np.empty(len(rows))
    for i, probs in enumerate(rows):
        mask = probs > 0.0
        out[i] = (math.inf if np.any(wb[mask] == 0.0)
                  else float((probs[mask] * -np.log2(wb[mask])).sum()) - h[i])
    return out


def _p_weighted_divergence(probs: np.ndarray, law: np.ndarray,
                           w: np.ndarray) -> float:
    """D(V_{Z|XYU} || W | P) of one (U, X, Y, Z) joint: conditioning weights
    from the law, the kernel from V; zero-mass V cells contribute nothing
    (free conditional)."""
    total = 0.0
    m_uxy = probs.sum(axis=3)
    for u, x, y in np.ndindex(m_uxy.shape):
        mass = float(law[u, x, y])
        if mass == 0.0 or m_uxy[u, x, y] == 0.0:
            continue
        for c, r in zip(probs[u, x, y] / m_uxy[u, x, y], w[x, y]):
            if c == 0.0:
                continue
            if r == 0.0:
                return math.inf
            total += mass * c * math.log2(c / r)
    return total


def _objective_terms(spec: BranchSpec, batch: JointBatch, w: Channel,
                     p: InputLaw, weighting: str) -> tuple:
    """Every row's parts of the branch objective that no rate changes: the
    ``_check_lhs`` left sides, the equivocation of the true pair less the
    competitor's (None without a competitor), the divergence, I(X;Y|U)
    and the clamp's sum of mutual informations."""
    alpha_diff = None
    if spec.alpha_competitor is not None:
        alpha_diff = (batch.conditional_entropy(("X", "Y"), ("Z", "U"))
                      - batch.conditional_entropy(spec.alpha_competitor, ("Z", "U")))
    divergence = _divergences(batch, w, p, weighting)
    mi_xy = batch.conditional_mutual_information(("X",), ("Y",), ("U",))
    # every term is a divergence or mutual information, hence >= 0; clamp
    # away the ulp-scale negatives float cancellation can leave behind (and
    # -0.0, as max(0.0, x) does and np.maximum need not)
    return (_check_lhs(batch, p, spec.marginal_eq, spec.constraints), alpha_diff,
            np.where(divergence > 0.0, divergence, 0.0),
            np.where(mi_xy > 0.0, mi_xy, 0.0), _mi_sum(batch, spec.clamp_terms))


def _judge(spec: BranchSpec, terms: tuple, rates: RatePair, delta: float,
           marginal_tol: float) -> tuple[np.ndarray, np.ndarray, ConfusabilityChecks]:
    """Every row's value, clamp and checks at these rates, from its
    ``_objective_terms``: the ``_verdict``, then with a competitor the
    equivocation order against -ALPHA_TOL."""
    lhs, alpha_diff, divergence, mi_xy, clamp_base = terms
    names = _check_names(spec.marginal_eq, spec.constraints)
    rhs, broken = _verdict(lhs, len(spec.marginal_eq), spec.constraints,
                           rates, delta, marginal_tol)
    if alpha_diff is not None:
        names, rhs = names + ("equivocation_order",), rhs + (-ALPHA_TOL,)
        lhs = np.column_stack([lhs, alpha_diff])
        broken = np.column_stack([broken, ~(alpha_diff >= -ALPHA_TOL)])
    clamp = clamp_base - rate_sum(spec.clamp_offset, rates.rx, rates.ry)
    clamp = np.where(clamp > 0.0, clamp, 0.0)
    value = divergence + mi_xy + clamp
    return (np.where(value < ZERO_SNAP, 0.0, value), clamp,
            ConfusabilityChecks(names, lhs, rhs, broken))


def branch_objective(spec: BranchSpec | str, v: JointDist, rates: RatePair,
                     w: Channel, p: InputLaw, delta: float = 0.0,
                     weighting: str = "V", marginal_tol: float = EQ_TOL
                     ) -> ObjectiveReport:
    """One branch's objective and feasibility at V, judged as the solver
    judges each candidate (here a batch of one).  A name is an expurgated
    branch's key or a baseline one's with the prefix "baseline_".

    The value is computed regardless of feasibility so results can be
    re-verified at reported argmins; violations list what fails.
    """
    if isinstance(spec, str):
        named = {**BRANCH_SPECS, **{f"baseline_{branch}": s
                                    for branch, s in BASELINE_SPECS.items()}}
        (spec,) = _one_branch(named, spec).values()
    if v.labels != spec.labels:
        raise ValidationError(
            f"branch {spec.name}: expected axes {spec.labels}, got {v.labels}"
        )
    terms = _objective_terms(spec, JointBatch.of(v), w, p, weighting)
    value, clamp, checks = _judge(spec, terms, rates, delta, marginal_tol)
    divergence, mi_xy = terms[2:4]
    violations = tuple(checks.violations(0))
    return ObjectiveReport(float(value[0]), float(divergence[0]), float(mi_xy[0]),
                           float(clamp[0]), not violations, violations)


def _anchor_joint(spec: BranchSpec, axes: tuple[Alphabet, ...], p: InputLaw,
                  w: Channel, kind: str) -> JointDist:
    """Zero-divergence candidate over the branch's ``axes``: law x
    competitor copies x channel.

    kind 'fresh' draws each competitor axis independently from the same
    conditional law; kind 'diag' makes it an exact duplicate of the true
    word's axis.  'product' is the baseline variant without competitor
    axes.
    """
    labels = spec.labels
    _, px, py = p.conditionals()
    arr = place(p.joint.probs, ("U", "X", "Y"), labels).astype(np.float64)
    for wrong, cond in (("X~", px), ("Y~", py)):
        if wrong in labels:
            if kind == "diag":
                cond = place(np.eye(cond.shape[1]), (wrong[0], wrong), labels)
            else:
                cond = place(cond, ("U", wrong), labels)
            arr = arr * cond
    arr = arr * place(w.w, ("X", "Y", "Z"), labels)
    return JointDist(axes, arr)


# Content-keyed memos: the command line loads fresh law and channel objects
# for every call, so identity would never hit.
_LAW_MARGINALS = memo()
_ANCHORS = memo()


def _law_key(p: InputLaw) -> tuple:
    return (p.joint.axes, p.joint.probs.shape, p.joint.probs.tobytes())


def _channel_key(w: Channel) -> tuple:
    return (w.x_alphabet, w.y_alphabet, w.z_alphabet, w.w.shape, w.w.tobytes())


def _law_marginals(p: InputLaw) -> dict:
    return memoised(_LAW_MARGINALS, _law_key(p), lambda: {
        ("U", "X"): p.marginal_flat(("U", "X")),
        ("U", "Y"): p.marginal_flat(("U", "Y")),
        ("U", "X", "Y"): p.joint.probs.ravel(),
    })


def _one_message_senders(p: InputLaw, rates: RatePair) -> set:
    """The senders ("X", "Y") with one message: a rate of exactly 0 and one
    possible codeword, all of P(.|u) on one symbol at every u of positive
    mass."""
    probs = p.joint.probs
    return {sender for sender, rate, other in (("X", rates.rx, 2),
                                               ("Y", rates.ry, 1))
            if rate == 0.0 and (probs.any(axis=other).sum(axis=1) <= 1).all()}


def _anchors(spec: BranchSpec, axes: tuple[Alphabet, ...], p: InputLaw,
             w: Channel, weighting: str) -> tuple[tuple[JointDist, ...], tuple]:
    """The branch's anchor joints in declaration order and their
    ``_objective_terms`` as rows of one batch, computed once per content."""
    def compute():
        joints = tuple(_anchor_joint(spec, axes, p, w, kind)
                       for kind in spec.anchors)
        batch = JointBatch(spec.labels, np.stack([j.probs for j in joints]))
        return joints, _objective_terms(spec, batch, w, p, weighting)
    return memoised(_ANCHORS, (spec, weighting, _law_key(p), _channel_key(w)),
                    compute)


def _branch_axes(spec: BranchSpec, p: InputLaw, w: Channel) -> tuple[Alphabet, ...]:
    """The branch's axes: the law's alphabets, wrong words as copies of the
    true ones, and the channel's output, relabelled where a label differs."""
    u_ax, x_ax, y_ax = p.joint.axes
    source = {"U": u_ax, "X": x_ax, "Y": y_ax, "X~": x_ax, "Y~": y_ax,
              "Z": w.z_alphabet}
    return tuple(source[lab] if source[lab].label == lab
                 else source[lab].relabel(lab) for lab in spec.labels)


def _refine_result(spec: BranchSpec, start: JointDist, value: float,
                   rates: RatePair, w: Channel, p: InputLaw, delta: float,
                   solver: SolverSpec) -> tuple[float, JointDist]:
    """Greedy local descent around the lattice argmin; ``start`` itself
    when no step improves on it.

    Steps of size 1/(4d) along cell-pair exchange directions projected
    onto the null space of the pinned-marginal map, so the argmin's
    realized marginals are preserved exactly; candidates are accepted only
    when they stay feasible and strictly improve the objective.  The moves
    from each cell i are one batch; a step keeps the first strict best in
    (i, j) order.
    """
    d = solver.lattice_denominator
    sizes = start.probs.shape
    cells = int(np.prod(sizes))
    # one 0/1 row per pinned marginal cell; the last cell of the joint adds
    # to the last marginal cell, so the largest index counts the rows
    hits = [marginal_cells(spec.labels, sizes, subset)
            for subset, _ in spec.marginal_eq]
    a_mat = np.concatenate([(hit == np.arange(hit.max() + 1)[:, None])
                            .astype(np.float64) for hit in hits])
    projector = np.eye(cells) - np.linalg.pinv(a_mat) @ a_mat

    step = 1.0 / (4.0 * d)
    tol = pin_half_width(d) + 1e-9
    for _ in range(solver.refine_steps):
        vec, best = start.probs.ravel(), None
        for i in range(cells):
            # row j: projector[:, i] - projector[:, j]; the peak test drops j = i
            directions = (projector[:, i, None] - projector).T
            peak = np.abs(directions).max(axis=1)
            moved = ~(peak < 1e-12)
            cands = vec + directions[moved] * (step / peak[moved])[:, None]
            cands = np.clip(cands[~(cands.min(axis=1) < -1e-12)], 0.0, None)
            if not len(cands):
                continue
            batch = JointBatch.renormalised(spec.labels,
                                            cands.reshape((-1,) + sizes))
            values, _, checks = _judge(spec, _objective_terms(
                spec, batch, w, p, solver.divergence_weighting),
                rates, delta, tol)
            values[checks.violated.any(axis=1)] = math.inf
            k = int(np.argmin(values))
            if values[k] < value:
                value, best = float(values[k]), cands[k]
        if best is None:
            break
        start = JointDist(start.axes, best.reshape(sizes))
    return value, start


def _solve_branch(branch: str, spec: BranchSpec, axes: tuple[Alphabet, ...],
                  planned: tuple, rates: RatePair, w: Channel, p: InputLaw,
                  delta: float, solver: SolverSpec) -> ExponentResult:
    """The least of the lattice minimum over ``axes``, built from ``planned``
    (see ``plan_lattice``), and the feasible anchors, refined if asked; ties
    resolve to the lattice, then the anchors in declaration order."""
    sizes = tuple(a.size for a in axes)
    d = solver.lattice_denominator
    lm = _law_marginals(p)
    cache = get_cache(spec, sizes, d, lm, planned)
    val, argmin_counts, any_feas = minimize_branch(
        cache, rates.rx, rates.ry, delta, lm, w.w,
        weighting=solver.divergence_weighting)
    candidates: list[tuple[float, str, JointDist]] = []
    if argmin_counts is not None:
        candidates.append((val, "lattice", JointDist(
            axes, argmin_counts.astype(np.float64).reshape(sizes) / d)))
    elif any_feas:
        # feasible points exist but every objective is infinite
        candidates.append((math.inf, "lattice", None))
    joints, terms = _anchors(spec, axes, p, w, solver.divergence_weighting)
    values, _, checks = _judge(spec, terms, rates, delta, pin_half_width(d))
    candidates += [(value, f"anchor_{kind}", joint) for kind, joint, value, bad
                   in zip(spec.anchors, joints, values.tolist(),
                          checks.violated.any(axis=1)) if not bad]

    if not candidates:
        return ExponentResult(math.inf, branch, None, d, delta,
                              feasible_empty=True)
    best_val, best_src, best_joint = min(candidates, key=lambda c: c[0])

    if solver.refine_steps > 0 and best_joint is not None \
            and math.isfinite(best_val):
        new_val, new_joint = _refine_result(
            spec, best_joint, best_val, rates, w, p, delta, solver)
        if new_joint is not best_joint:
            best_val, best_joint, best_src = new_val, new_joint, "refined"

    return ExponentResult(best_val, branch, best_joint, d, delta,
                          feasible_empty=False, source=best_src)


def _least_branch(specs: dict, rates: RatePair, w: Channel, p: InputLaw,
                  delta: float, solver: SolverSpec) -> ExponentResult:
    """The least minimum over the branches of ``specs``, each result named
    by its key; ties resolve to the earlier branch (X, then Y, then XY).
    A key names the senders its branch confuses.  A sender at rate 0 that
    has one possible codeword sends one fixed word, so a branch that
    confuses it cannot occur and is skipped; at a positive rate its
    messages share that word, and the branch's anchors give 0.  The slack
    is checked and every branch's lattice planned before any is built, so
    bad input stops the call before any build, and each lattice is then
    built from its plan."""
    check_delta(delta)
    fixed = _one_message_senders(p, rates)
    specs = {branch: spec for branch, spec in specs.items()
             if fixed.isdisjoint(branch)}
    if not specs:
        raise ValidationError(
            "no branch left: each confuses a sender at rate 0 that has one "
            "possible codeword under the law")
    check_law_channel(p.joint, w)
    axes = {branch: _branch_axes(spec, p, w) for branch, spec in specs.items()}
    plans = {branch: plan_lattice(spec, tuple(a.size for a in axes[branch]),
                                  solver.lattice_denominator, _law_marginals(p))
             for branch, spec in specs.items()}
    return min((_solve_branch(branch, spec, axes[branch], plans[branch], rates,
                              w, p, delta, solver)
                for branch, spec in specs.items()), key=lambda res: res.value)


def _one_branch(specs: dict, branch: str) -> dict:
    if branch not in specs:
        raise ValidationError(f"branch must be one of {sorted(specs)}")
    return {branch: specs[branch]}


def branch_exponent(branch: str, rates: RatePair, w: Channel, p: InputLaw,
                    delta: float = 0.0, solver: SolverSpec = SolverSpec()
                    ) -> ExponentResult:
    """Exact lattice minimum of one expurgated branch objective."""
    return _least_branch(_one_branch(BRANCH_SPECS, branch), rates, w, p,
                         delta, solver)


def expurgated_exponent(rates: RatePair, w: Channel, p: InputLaw,
                        delta: float = 0.0, solver: SolverSpec = SolverSpec()
                        ) -> ExponentResult:
    """min over the three branches; ties resolve X, then Y, then XY."""
    return _least_branch(BRANCH_SPECS, rates, w, p, delta, solver)


def baseline_branch_exponent(branch: str, rates: RatePair, w: Channel,
                             p: InputLaw, delta: float = 0.0,
                             solver: SolverSpec = SolverSpec()
                             ) -> ExponentResult:
    return _least_branch(_one_branch(BASELINE_SPECS, branch), rates, w, p,
                         delta, solver)


def baseline_exponent(rates: RatePair, w: Channel, p: InputLaw,
                      delta: float = 0.0, solver: SolverSpec = SolverSpec()
                      ) -> ExponentResult:
    """Relaxed reference exponent; never exceeds the expurgated value."""
    return _least_branch(BASELINE_SPECS, rates, w, p, delta, solver)


@dataclass(frozen=True)
class Pentagon:
    """One achievable-rate pentagon: per-sender and sum-rate ceilings."""

    i_x: float
    i_y: float
    i_xy: float

    def __post_init__(self) -> None:
        if self.i_x < -1e-12 or self.i_y < -1e-12 or self.i_xy < -1e-12:
            raise ValidationError("pentagon bounds must be nonnegative")
        if max(self.i_x, self.i_y) > self.i_xy + 1e-9:
            raise ValidationError("pentagon: single-sender bound exceeds sum bound")
        if self.i_xy > self.i_x + self.i_y + 1e-9:
            raise ValidationError("pentagon: sum bound exceeds i_x + i_y")

    def contains(self, rates: RatePair) -> bool:
        return (rates.rx <= self.i_x and rates.ry <= self.i_y
                and rates.rx + rates.ry <= self.i_xy)


def _pentagons(batch: JointBatch) -> np.ndarray:
    """(N, 3) rate ceilings I(X;Z|YU), I(Y;Z|XU), I(XY;Z|U) of every
    (U, X, Y, Z) joint of a batch."""
    return batch.per_chunk(lambda chunk: np.stack([
        chunk.conditional_mutual_information(("X",), ("Z",), ("Y", "U")),
        chunk.conditional_mutual_information(("Y",), ("Z",), ("X", "U")),
        chunk.conditional_mutual_information(("X", "Y"), ("Z",), ("U",))], axis=1))


def capacity_pentagon(p: InputLaw, w: Channel) -> Pentagon:
    """Rate ceilings of one input law: I(X;Z|YU), I(Y;Z|XU), I(XY;Z|U)."""
    joint = joint_from_law_and_channel(p.joint, w)
    return Pentagon(*_pentagons(JointBatch.of(joint))[0].tolist())


@dataclass(frozen=True)
class RegionWitness:
    found: bool
    pentagon: Pentagon | None
    input_law: InputLaw | None
    u_grid: int


def _pareto_front(vals: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows of ``vals`` that no other row
    dominates (no smaller anywhere and larger somewhere); equal rows are
    all kept.

    A row's dominators all come before it in descending lexicographic
    order, and a dropped dominator is itself dominated by a kept row, so
    scanning in that order and comparing each row with the rows kept so
    far is enough.  Sums are no order: a dominating row's float sum can
    round equal to the sum of a row it dominates.
    """
    front = np.empty_like(vals)
    kept = []
    for a in np.lexsort(vals.T[::-1])[::-1]:
        f, v = front[:len(kept)], vals[a]
        if not ((f >= v).all(axis=1) & (f > v).any(axis=1)).any():
            front[len(kept)] = v
            kept.append(a)
    return np.sort(np.asarray(kept, dtype=np.intp))


def region_contains(rates: RatePair, w: Channel, u_grid: int = 8) -> RegionWitness:
    """Grid search for an input law whose pentagon contains the rate pair.

    Mixtures use at most four time-sharing atoms, with atom weights and
    per-atom sender distributions both on a 1/u_grid grid.  This is an
    inner approximation: a found witness is a true member certificate, a
    miss only means the grid found nothing.
    """
    check_count("u_grid", u_grid, 1)
    sx, sy = w.x_alphabet.size, w.y_alphabet.size
    if (rates.rx > math.log2(sx) or rates.ry > math.log2(sy)
            or rates.rx + rates.ry > math.log2(sx) + math.log2(sy)):
        return RegionWitness(False, None, None, u_grid)

    # the sender distributions and the atom weights on the 1/u_grid grid
    gx, gy, weights = (compositions_array(size, u_grid) / u_grid
                       for size in (sx, sy, 4))
    # atom k = i |gy| + j is the law gx[i] x gy[j] with a single u, and its
    # joint with the channel, each renormalised as InputLaw and JointDist do
    laws = JointBatch.renormalised(("U", "X", "Y"), (
        gx[:, None, :, None] * gy[None, :, None, :]).reshape(-1, 1, sx, sy))
    vals = laws.per_chunk(lambda chunk: _pentagons(JointBatch.renormalised(
        ("U", "X", "Y", "Z"), chunk.probs[..., None] * w.w)))

    # only Pareto-maximal atoms can matter in a dominating mixture
    keep = _pareto_front(vals)
    pvals = vals[keep]

    rx, ry = rates.rx, rates.ry
    # every multiset of four kept atoms, in order, a block at a time: the
    # stacked product forms each multiset's mixtures exactly as a product
    # of its own would, and a block's mixtures hold at most ENTROPY_CELLS
    # values (or one multiset's, if more)
    combos = combinations_with_replacement(range(len(keep)), 4)
    block = max(1, ENTROPY_CELLS // (3 * len(weights)))
    while chunk := list(islice(combos, block)):
        mix = weights @ pvals[np.asarray(chunk)]
        ok = ((mix[..., 0] >= rx) & (mix[..., 1] >= ry)
              & (mix[..., 2] >= rx + ry))
        hit = ok.any(axis=1)
        if not hit.any():
            continue
        c = int(np.argmax(hit))
        wsel = weights[int(np.argmax(ok[c]))]
        used = wsel > 0.0
        i, j = np.divmod(keep[np.asarray(chunk[c])[used]], len(gy))
        law = InputLaw.from_components(wsel[used], gx[i], gy[j])
        return RegionWitness(True, capacity_pentagon(law, w), law, u_grid)
    return RegionWitness(False, None, None, u_grid)

"""The confusability inequalities are declared once, in ``lattice``.

Their right-hand sides, the clamp offsets and each branch's anchors equal
those the exhaustive oracle writes out on its own, bit for bit, and the
README's table of them is rendered from the declarations.  The oracles
stay independent of the package: none of them imports it.
"""

import ast
from itertools import product
from pathlib import Path

import exhaustive_oracle as oracle
from macexp.lattice import (
    BASELINE_SPECS,
    BRANCH_SPECS,
    CONFUSABILITY_CONSTRAINTS,
    rate_sum,
)

RATES = (0.0, -0.0, 0.2, 1 / 3, 0.5310, 2.0)
DELTAS = (0.0, 0.05, 0.1)
TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"
TABLE_HEADER = "| inequality | mutual informations | right-hand side |"


def _same_bits(got: float, want: float) -> bool:
    """Equal as float64 bit patterns: -0.0 differs from 0.0."""
    return float(got).hex() == float(want).hex()


def test_right_hand_sides_match_the_oracle():
    kind_of = {name: kind for name, _, kind in oracle._TEN}
    assert [c.name for c in CONFUSABILITY_CONSTRAINTS] == list(kind_of)
    kinds = [(c, kind_of[c.name]) for c in CONFUSABILITY_CONSTRAINTS]
    kinds += [(spec.constraints[0], oracle._baseline_def(branch)["cons"][0][2])
              for branch, spec in BASELINE_SPECS.items()]
    assert len(kinds) == 13
    for (c, kind), rx, ry, delta in product(kinds, RATES, RATES, DELTAS):
        assert _same_bits(rate_sum(c.rhs, rx, ry, delta),
                          oracle._rhs(kind, rx, ry, delta)), (c.name, rx, ry, delta)


def test_clamp_offsets_match_the_oracle():
    for specs, define in ((BRANCH_SPECS, oracle._branch_def),
                          (BASELINE_SPECS, oracle._baseline_def)):
        for (branch, spec), rx, ry in product(specs.items(), RATES, RATES):
            want = oracle._clamp_off(define(branch)["clamp_off"], rx, ry)
            assert _same_bits(rate_sum(spec.clamp_offset, rx, ry), want), (
                spec.name, rx, ry)


def test_anchors_match_the_oracle():
    for specs, define in ((BRANCH_SPECS, oracle._branch_def),
                          (BASELINE_SPECS, oracle._baseline_def)):
        for branch, spec in specs.items():
            assert spec.anchors == tuple(define(branch)["anchors"]), spec.name


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            roots.add(node.module.split(".")[0])
    return roots


def _imports_package(path: Path, seen: set) -> bool:
    """Whether the module at ``path``, or a test module it imports, imports
    macexp."""
    seen.add(path)
    roots = _imported_roots(path)
    local = [TESTS / f"{root}.py" for root in roots]
    return "macexp" in roots or any(
        _imports_package(m, seen) for m in local if m.is_file() and m not in seen)


def test_oracles_do_not_import_the_package():
    oracles = sorted(TESTS.glob("*_oracle.py"))
    assert len(oracles) >= 3
    for path in oracles:
        assert not _imports_package(path, set()), path.name
    assert _imports_package(TESTS / "helpers.py", set())


def _term(t) -> str:
    return f"`I({','.join(t.a)};{','.join(t.b)}\\|{','.join(t.c)})`"


def _rhs(coeffs) -> str:
    names = ("R_X", "R_Y", "min(R_X, R_Y)", "δ")
    return " + ".join(name if k == 1 else f"{k}{name}"
                      for k, name in zip(coeffs, names) if k)


def render_table() -> list[str]:
    rows = [(c.name, c) for c in CONFUSABILITY_CONSTRAINTS]
    rows += [(spec.name, spec.constraints[0]) for spec in BASELINE_SPECS.values()]
    return [TABLE_HEADER, "| --- | --- | --- |"] + [
        f"| {name} | {' + '.join(_term(t) for t in c.terms)} | {_rhs(c.rhs)} |"
        for name, c in rows]


def test_readme_table_is_rendered_from_the_declarations():
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(TABLE_HEADER)
    end = start
    while end < len(lines) and lines[end].startswith("|"):
        end += 1
    assert lines[start:end] == render_table()

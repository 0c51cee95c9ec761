"""Exact linear algebra over Q: echelon forms, image levels, growth checks.

The image computations are cross-checked against brute-force member
enumeration over small coefficient grids, so the running-sum s-image
never certifies itself, and the s-image witnesses against a copy of the
dense slice solver it replaced.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from logcouple import cli, gamma, lang, subspace
from logcouple.gamma import ZERO, GammaElement, unit
from logcouple.subspace import echelonize, growth_check


def elt(*pairs):
    return GammaElement(pairs)


def ones(n):
    return GammaElement((i, 1) for i in range(n))


def span(*texts):
    return echelonize([lang.parse_element(t) for t in texts])


# Every n/d with d <= 6 and |n/d| <= 8, the values of st.fractions(max_denominator=6,
# min_value=-8, max_value=8): n * d // 6 meets each numerator in [-8d, 8d].  Two
# bounded integers draw far faster than st.fractions.
coefficients = st.builds(
    lambda n, d: Fraction(n * d // 6, d), st.integers(-48, 48), st.integers(1, 6)
)
generator_lists = st.lists(
    st.builds(
        GammaElement,
        st.lists(st.tuples(st.integers(0, 7), coefficients), max_size=4),
    ),
    max_size=4,
)


# --- echelon form ------------------------------------------------------------------


def test_echelonize_examples():
    space = span("e0", "e0 + e1", "2*e0 + 2*e1")
    assert space.dim == 2
    assert space.basis == (unit(0), unit(1))
    assert span().dim == 0
    assert span("0").dim == 0


def test_echelonize_rejects_non_elements():
    with pytest.raises(TypeError):
        echelonize([unit(0), "e1"])


@given(generator_lists)
def test_echelonize_idempotent(gens):
    space = echelonize(gens)
    assert echelonize(space.basis).basis == space.basis


@given(generator_lists, st.randoms(use_true_random=False))
def test_echelonize_order_independent(gens, rng):
    shuffled = list(gens)
    rng.shuffle(shuffled)
    assert echelonize(shuffled).basis == echelonize(gens).basis


@given(generator_lists)
def test_echelon_rows_are_reduced(gens):
    space = echelonize(gens)
    pivots = space.image("psi").levels
    assert list(pivots) == sorted(pivots)
    for row in space.basis:
        assert row.coords[0][1] == 1
        # pivot columns vanish on every other row
        for other in space.basis:
            if other is not row:
                assert other.coefficient(row.coords[0][0]) == 0


@given(generator_lists)
def test_contains_all_generators(gens):
    space = echelonize(gens)
    for g in gens:
        assert space.contains(g)
    assert space.contains(ZERO)


# Generators over one shared denominator whose numerators share factors with
# it, such as 2/4*e0 + 6/4*e1: elimination then scales by unreduced n/d.
shared_denominator_lists = st.lists(
    st.integers(1, 12).flatmap(
        lambda d: st.builds(
            lambda terms: GammaElement((i, Fraction(n, d)) for i, n in terms),
            st.lists(st.tuples(st.integers(0, 6), st.integers(-12, 12)), max_size=4),
        )
    ),
    max_size=5,
)


def _reference_rref(gens):
    """Dense Fraction Gauss-Jordan: the RREF rows of the span, by pivot."""
    coords = [dict(g.coords) for g in gens]
    width = 1 + max((i for c in coords for i in c), default=-1)
    rows = [[c.get(j, Fraction(0)) for j in range(width)] for c in coords]
    top = 0
    for col in range(width):
        sel = next((r for r in range(top, len(rows)) if rows[r][col] != 0), None)
        if sel is None:
            continue
        rows[top], rows[sel] = rows[sel], rows[top]
        rows[top] = [v / rows[top][col] for v in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[top])]
        top += 1
    return rows[:top]


def _dense_element(values):
    return GammaElement((j, v) for j, v in enumerate(values) if v != 0)


def _assert_matches_dense_reference(gens, probes):
    space = echelonize(gens)
    rows = _reference_rref(gens)
    assert space.basis == tuple(_dense_element(row) for row in rows)
    pivots = [next(j for j, v in enumerate(row) if v != 0) for row in rows]
    for x in gens + probes:
        # the residue is x minus x's coordinate at each pivot times that row
        coords = dict(x.coords)
        residue = [coords.get(j, Fraction(0)) for j in range(1 + max(coords, default=-1))]
        for pivot, row in zip(pivots, rows):
            c = coords.get(pivot, 0)
            if c:
                residue = [a - c * b for a, b in itertools.zip_longest(residue, row, fillvalue=0)]
        assert space.reduce(x) == _dense_element(residue)


@given(shared_denominator_lists, shared_denominator_lists)
def test_rref_and_reduce_match_dense_reference(gens, probes):
    _assert_matches_dense_reference(gens, probes)


def _unit_span(n):
    """e0..e(n-1), plus generators that each reduce against several pivots."""
    mixed = [unit(i) - 2 * unit(i + 7) + unit(n + i % 5) / 3 for i in range(0, n - 7, 29)]
    return [unit(i) for i in range(n)] + mixed


def _psi_span(n):
    """Scaled psi-set members at the even levels below 2n, whose RREF rows are
    e0 and e(2i-1) + e(2i), plus combinations that meet several pivots."""
    psi = gamma.psi_element
    members = [Fraction(k % 5 + 1, k % 3 + 1) * psi(2 * k) for k in range(n)]
    mixed = [psi(2 * k + 1) - psi(2 * k + 4) / 2 for k in range(0, n - 2, 13)]
    return members + mixed


@pytest.mark.parametrize("order", ["forward", "reversed", "shuffled"])
@pytest.mark.parametrize("make, n", [(_unit_span, 150), (_psi_span, 60)])
def test_rref_and_reduce_match_dense_reference_on_ordered_spans(make, n, order):
    gens = make(n)
    if order == "reversed":
        gens.reverse()
    elif order == "shuffled":
        random.Random(n).shuffle(gens)
    top = 2 * n + 6
    probes = [
        ones(top),
        gamma.psi_element(n + 1) * Fraction(-3, 4),
        sum((unit(i) * Fraction(i % 4 - 1, i % 3 + 1) for i in range(0, top, 3)), ZERO),
        unit(top) - unit(n // 2) + unit(n - 1) / 5,
    ]
    _assert_matches_dense_reference(gens, probes)


# Terms over pairwise coprime denominators, each its own, so that reduction sums
# rows and probes over a denominator no one of them has.  Probes reach indices
# 7-9, past every generator, so that some lie outside the span.
_COPRIME = (1, 2, 3, 5, 7, 11, 13)


def _coprime_lists(top):
    term = st.tuples(st.integers(0, top), st.integers(-9, 9), st.sampled_from(_COPRIME))
    element = st.builds(lambda terms: GammaElement((i, Fraction(n, d)) for i, n, d in terms), st.lists(term, max_size=4))
    return st.lists(element, max_size=5)


@given(_coprime_lists(6), _coprime_lists(9))
@example([unit(0) / 2 + unit(3) / 3, unit(1) / 5 - unit(3) * Fraction(2, 7), unit(2) * Fraction(3, 11) + unit(4) / 13],
         [unit(0) / 7 + unit(1) / 11 + unit(2) / 13 + unit(5) / 3, unit(3) * Fraction(5, 2)])
def test_reduce_matches_dense_reference_on_coprime_denominators(gens, probes):
    probes = probes + [ZERO]
    _assert_matches_dense_reference(gens, probes)
    space = echelonize(gens)
    for x in gens + probes:
        residue = space.reduce(x)
        assert residue == GammaElement(residue.coords)  # canonical: numerators and denominator coprime


def test_reduce_normalizes_once(monkeypatch):
    # Work bound in call counts: each reduction, in echelonize or on a probe, is
    # one gamma._summed and no gamma._merge (one per pivot hit before).
    rng = random.Random(16)
    rows = [unit(i) + unit(17 + i) * Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)) for i in range(16)]
    gens = [rows[j] + sum((row * rng.randint(-3, 3) for row in rows[j + 1 :]), ZERO) for j in range(16)]
    gens += [rows[0] - rows[15] * 2, rows[3] / 5 + rows[8]]
    rng.shuffle(gens)
    probe = sum(rows, ZERO) + unit(40)
    calls, per_reduce = [], []
    real_reduce = subspace._reduce

    def reduce(table, x):
        before = len(calls)
        residue = real_reduce(table, x)
        per_reduce.append(calls[before:])
        return residue

    monkeypatch.setattr(subspace, "_reduce", reduce)
    for name in ("_summed", "_merge"):
        real = getattr(gamma, name)
        monkeypatch.setattr(gamma, name, lambda *args, name=name, real=real: calls.append(name) or real(*args))
    space = echelonize(gens)
    assert space.reduce(probe) == unit(40)
    assert space.basis == tuple(rows)
    assert len(per_reduce) == len(gens) + 1
    assert all(hit in ([], ["_summed"]) for hit in per_reduce)
    assert per_reduce.count(["_summed"]) > len(gens) // 2


def test_member_builds_combinations():
    space = span("e0", "e2")
    assert space.member([Fraction(2), Fraction(-1)]) == elt((0, 2), (2, -1))
    with pytest.raises(ValueError):
        space.member([Fraction(1)])
    with pytest.raises(TypeError):  # a float coefficient, as in ``row * 0.5``
        space.member([0.5, Fraction(1)])


# --- image computations ------------------------------------------------------------


def test_psi_image_examples():
    assert span().image("psi").levels == ()
    assert span("e1 + e2").image("psi").levels == (1,)
    report = span("e0", "2*e1 + e3", "1/2*e2").image("psi")
    assert report.levels == (0, 1, 2)
    for level, witness in report.witnesses.items():
        assert gamma.psi(witness) == gamma.psi_element(level)


def test_s_image_examples():
    assert span().image("s").levels == (0,)
    assert span("e0 + e1 + e2").image("s").levels == (0, 3)
    assert span("e0").image("s").levels == (0, 1)


def test_p_image_examples():
    assert span("e0", "e0 + e1").image("p").levels == (0,)
    assert span("e5").image("p").levels == ()
    assert span().image("p").levels == ()


def test_image_dispatch():
    space = span("e0")
    assert space.image("psi").function == "psi"
    assert space.image("s").function == "s"
    assert space.image("p").function == "p"
    with pytest.raises(ValueError):
        space.image("q")


def test_psi_image_witnesses_are_a_copy():
    space = span("e0", "e1 + e2")
    report = space.image("psi")
    report.witnesses[0] = unit(5)
    del report.witnesses[1]
    assert space.basis == (unit(0), unit(1) + unit(2))
    assert space.image("psi").witnesses == {0: unit(0), 1: unit(1) + unit(2)}


def _grid_members(space, values):
    for combo in itertools.product(values, repeat=space.dim):
        yield space.member([Fraction(v) for v in combo])


def _random_spaces(count, seed, max_dim=3, max_index=6):
    rng = random.Random(seed)
    for _ in range(count):
        gens = []
        for _ in range(rng.randint(0, max_dim)):
            pairs = [
                (rng.randint(0, max_index), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                for _ in range(rng.randint(1, 3))
            ]
            gens.append(GammaElement(pairs))
        yield echelonize(gens)


def test_s_image_sound_and_complete_against_enumeration():
    values = (-2, -1, 0, Fraction(1, 2), 1, 2)
    for space in _random_spaces(120, seed=9):
        report = space.image("s")
        computed = set(report.levels)
        # soundness on a grid of members; 0 is in the image by convention
        seen = {0}
        for member in _grid_members(space, values):
            level = gamma.psi_level(gamma.successor(member))
            assert level is not None
            seen.add(level)
            assert level in computed
        # witnesses genuinely attain their level
        for level, witness in report.witnesses.items():
            assert space.contains(witness)
            assert gamma.successor(witness) == gamma.psi_element(level)
        assert seen <= computed
        assert len(computed) <= space.dim + 1
        _assert_s_image_matches_reference(space)


def test_p_image_matches_membership_enumeration():
    for space in _random_spaces(120, seed=10):
        expected = []
        for n in range(1, space.max_support + 2):
            if space.contains(gamma.psi_element(n)):
                expected.append(n - 1)
        report = space.image("p")
        assert list(report.levels) == expected
        for level, witness in report.witnesses.items():
            assert space.contains(witness)
            assert gamma.predecessor(witness) == gamma.psi_element(level)


def _p_levels_by_membership(space):
    # every candidate level up to max_support + 1, with no early stop
    return [n - 1 for n in range(1, space.max_support + 2) if space.contains(gamma.psi_element(n))]


@given(generator_lists)
def test_p_image_scan_stop_matches_full_membership_loop(gens):
    space = echelonize(gens)
    assert list(space.image("p").levels) == _p_levels_by_membership(space)


@given(st.integers(0, 7), st.integers(0, 4))
def test_p_image_on_gapped_psi_spans(top, gap):
    # psi-set members below a gap, plus a generator far beyond it
    space = echelonize([ones(n + 1) for n in range(top + 1)] + [unit(top + gap + 40)])
    assert list(space.image("p").levels) == _p_levels_by_membership(space)


def test_p_image_with_planted_members():
    space = span("e0", "e0 + e1")  # contains the two smallest psi-set members
    report = space.image("p")
    assert report.levels == (0,)
    assert report.witnesses[0] == ones(2)


# The s-image as it was first computed, kept as a reference: a dense solve of
# the level-k slice system at every k, witness = particular solution (free
# unknowns 0) plus, if that is 1 at k, the first nullspace direction that is
# not 0 at k.  The running sum must give the same levels and witnesses.


def _reference_solve_affine(matrix, rhs, n_cols):
    """(particular solution, nullspace basis) of M t = rhs, or None."""
    n_rows = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    pivot_of_col = {}
    row_idx = 0
    for col in range(n_cols):
        sel = next((r for r in range(row_idx, n_rows) if aug[r][col] != 0), None)
        if sel is None:
            continue
        aug[row_idx], aug[sel] = aug[sel], aug[row_idx]
        inv = Fraction(1) / aug[row_idx][col]
        aug[row_idx] = [v * inv for v in aug[row_idx]]
        for r in range(n_rows):
            if r != row_idx and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[row_idx])]
        pivot_of_col[col] = row_idx
        row_idx += 1
    if any(aug[r][n_cols] != 0 for r in range(row_idx, n_rows)):
        return None
    particular = [Fraction(0)] * n_cols
    for col, r in pivot_of_col.items():
        particular[col] = aug[r][n_cols]
    nullspace = []
    for free in (c for c in range(n_cols) if c not in pivot_of_col):
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for col, r in pivot_of_col.items():
            vec[col] = -aug[r][free]
        nullspace.append(vec)
    return particular, nullspace


def _reference_s_image(space):
    """(levels, witnesses) by re-solving the level-k slice system at every k."""
    levels, witnesses = [], {}
    rows = space.basis
    r = len(rows)
    for k in range(0, space.max_support + 2):
        system = [[row.coefficient(j) for row in rows] for j in range(k)]
        solved = _reference_solve_affine(system, [Fraction(1)] * k, n_cols=r)
        if solved is None:
            break
        particular, nullspace = solved
        at_k = [row.coefficient(k) for row in rows]
        c0 = sum((t * c for t, c in zip(particular, at_k)), Fraction(0))
        coeffs = particular
        if c0 == 1:
            for direction in nullspace:
                d = sum((t * c for t, c in zip(direction, at_k)), Fraction(0))
                if d != 0:
                    coeffs = [a + b for a, b in zip(particular, direction)]
                    break
            else:
                continue
        levels.append(k)
        witnesses[k] = space.member(coeffs)
    return tuple(levels), witnesses


def _assert_s_image_matches_reference(space):
    report = space.image("s")
    levels, witnesses = _reference_s_image(space)
    assert report.levels == levels
    assert list(report.witnesses) == list(witnesses)
    for level, witness in witnesses.items():
        assert gamma.format_element(report.witnesses[level]) == gamma.format_element(witness)


@given(generator_lists)
def test_s_image_witnesses_match_reference_solver(gens):
    _assert_s_image_matches_reference(echelonize(gens))


@pytest.mark.parametrize("n", [1, 2, 5, 13, 40])
def test_s_image_witnesses_match_reference_on_unit_and_psi_spans(n):
    for gens in (
        [unit(i) for i in range(n)],
        [unit(i) for i in range(1, n + 1)],  # the chain stalls at once
        [ones(i + 1) for i in range(n)],
        # rows e(2i-1) + e(2i): coordinate 2i is 1 on the slice, no level
        [ones(2 * i + 1) for i in range(n)],
        [ones(i + 1) + unit(i + 2) / 2 for i in range(n)],
    ):
        _assert_s_image_matches_reference(echelonize(gens))


# --- growth checks -----------------------------------------------------------------


def test_growth_psi_example():
    report, _, _ = growth_check(span("e0"), [unit(3)])
    assert report.passed and report.added_levels == (3,) and report.bound == 1


def test_growth_s_from_zero_base():
    _, report, _ = growth_check(span(), [ones(3)])
    assert report.old_levels == (0,)
    assert report.new_levels == (0, 3)
    assert report.passed and report.bound == 2


def test_growth_with_dependent_generator():
    _, report, _ = growth_check(span("e1"), [unit(1) / 2])
    assert report.new_generator_count == 0
    assert report.added_levels == () and report.passed
    # m counts the generators outside the base, not the rank growth: e1
    # and e0 + e1 both lie outside span(e0), and the extension has dim 2
    reports = growth_check(span("e0"), [unit(1), unit(0) + unit(1)])
    assert [r.new_generator_count for r in reports] == [2, 2, 2]
    assert reports[0].new_levels == (0, 1)


def test_growth_rejects_bad_input():
    # extending by nothing is well defined: m = 0, and nothing grows
    reports = growth_check(span("e0"), [])
    assert [(r.passed, r.new_generator_count, r.added_levels) for r in reports] == [(True, 0, ())] * 3
    for base in (span(), span("e0")):
        with pytest.raises(TypeError):
            growth_check(base, [0])


extension_lists = st.lists(st.builds(
    GammaElement, st.lists(st.tuples(st.integers(0, 7), coefficients), max_size=4)
).filter(bool), min_size=1, max_size=3)


@given(generator_lists, extension_lists)
def test_growth_psi_bound_unconditional(gens, extra):
    assert growth_check(echelonize(gens), extra)[0].passed


@given(generator_lists, extension_lists)
def test_growth_check_reports_all_three_maps_in_one_call(gens, extra):
    space = echelonize(gens)
    extended = echelonize(space.basis + tuple(extra))
    m = sum(1 for g in extra if not space.contains(g))
    s_deficit = space.dim + 1 - len(space.image("s").levels)
    p_deficit = space.dim - len(space.image("p").levels) - space.contains(unit(0))
    reports = growth_check(space, extra)
    assert [r.function for r in reports] == ["psi", "s", "p"]
    assert [r.bound for r in reports] == [m, m + 1 + s_deficit, m + p_deficit]
    for report, closed_bound in zip(reports, (m, m + 1, m)):
        assert report.new_generator_count == m
        assert report.old_levels == space.image(report.function).levels
        assert report.new_levels == extended.image(report.function).levels
        assert report.passed and len(report.added_levels) <= report.bound
        assert (report.counterexample is None) == (len(report.added_levels) <= closed_bound)
    assert len(reports[0].new_levels) == extended.dim


def test_growth_past_the_closed_bounds_on_psi_difference_spans():
    # the span of differences of consecutive psi-set members hides many
    # members behind one missing generator; adjoining it unlocks them
    # all at once: growth passes the closed-subgroup s and p bounds, and
    # the reports pass on the base's deficits, each with a bundle of values
    base = echelonize([ones(2) - ones(3), ones(3) - ones(4)])
    report_psi, report_s, report_p = growth_check(base, [ones(4)])
    assert report_p.passed
    assert report_p.added_levels == (0, 1, 2)
    assert report_p.bound == 1 + 2
    bundle = report_p.counterexample
    assert bundle is not None
    assert set(bundle) == {"old_basis", "new_generators", "extended_basis", "witnesses"}
    assert (bundle["old_basis"], bundle["new_generators"]) == (base.basis, (ones(4),))
    assert bundle["extended_basis"] == echelonize(base.basis + (ones(4),)).basis
    assert list(bundle["witnesses"]) == [0, 1, 2]
    assert all(gamma.predecessor(w) == gamma.psi_element(k) for k, w in bundle["witnesses"].items())
    assert report_s.passed and report_s.counterexample is not None
    assert len(report_s.added_levels) == 3 > 1 + 1
    assert report_psi.passed and report_psi.counterexample is None


def test_growth_past_the_closed_s_bound_on_stalled_chain_bases():
    # no support at coordinate 0: the base attains only level 0 (deficit
    # 3), and a single low generator unlocks a chain worth more than the
    # closed-subgroup bound m + 1; the report passes on the deficit
    base = span("e1", "e2", "e3")
    _, report, _ = growth_check(base, [unit(0)])
    assert report.old_levels == (0,)
    assert report.passed and report.counterexample is not None
    assert len(report.added_levels) == 4 <= report.bound == 1 + 1 + 3


def test_growth_report_json_shape():
    payload = json.loads(cli._json_text(growth_check(span("e0"), [unit(1)])[0]))
    assert payload["passed"] is True
    assert payload["added_levels"] == [1]
    assert "counterexample" not in payload


# --- independence and combination rules --------------------------------------------
#
# Statements about psi-set members that the CLI does not expose.


def test_psi_independence_examples():
    # distinct psi-set members are linearly independent over Q
    for levels in ([0, 1, 2], [], range(10)):
        assert echelonize([gamma.psi_element(n) for n in levels]).dim == len(levels)
    assert echelonize([gamma.psi_element(4)] * 3).dim == 1


# For alpha = sum q_j * psi_element(l_j) with nonzero q_j and strictly increasing
# levels, successor(alpha) is the least psi-set member when sum(q_j) != 1, and the
# successor of the smallest constituent when sum(q_j) == 1.


def test_combination_rule_examples():
    assert gamma.successor(gamma.psi_element(3) * 2) == unit(0)
    alpha = gamma.psi_element(1) / 2 + gamma.psi_element(4) / 2
    assert gamma.successor(alpha) == gamma.psi_element(2)


@given(
    st.lists(coefficients.filter(bool), min_size=1, max_size=4),
    st.sets(st.integers(0, 10), min_size=1, max_size=4),
)
def test_combination_rule_holds_on_random_instances(coeffs, level_set):
    levels = sorted(level_set)[: len(coeffs)]
    coeffs = coeffs[: len(levels)]
    alpha = sum((gamma.psi_element(n) * q for q, n in zip(coeffs, levels)), ZERO)
    level = levels[0] + 1 if sum(coeffs) == 1 else 0
    assert gamma.successor(alpha) == gamma.psi_element(level)

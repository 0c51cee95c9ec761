"""Core group arithmetic, ordering, and the valuation maps.

Fixed expected values are derived by hand from the defining formulas
(lexicographic comparison, run-of-ones scans); the kernel and the operators
are cross-checked against ``perfbench/oracle.py``, which computes on
``{index: Fraction}`` dicts (``None`` for ``inf``) without the package's code.
"""

import ast
import copy
import math
import pickle
import random
from fractions import Fraction
from pathlib import Path

import oracle
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from logcouple import cli, gamma, harness, lang
from logcouple.gamma import INF, ZERO, GammaElement, unit
from logcouple.lang import ElementError
from logcouple.subspace import echelonize, growth_check


def elt(*pairs):
    return GammaElement(pairs)


def ones(n):
    # n ones: e0 + ... + e(n-1)
    return GammaElement((i, 1) for i in range(n))


# Every n/d with d <= 8 and |n/d| <= 9, the values of st.fractions(max_denominator=8,
# min_value=-9, max_value=9): n * d // 8 meets each numerator in [-9d, 9d].  Two
# bounded integers draw far faster than st.fractions.
coefficients = st.builds(
    lambda n, d: Fraction(n * d // 8, d), st.integers(-72, 72), st.integers(1, 8)
)
elements = st.builds(
    GammaElement,
    st.lists(st.tuples(st.integers(0, 12), coefficients), max_size=6),
)
nonzero_elements = elements.filter(bool)
positive_elements = nonzero_elements.map(lambda x: x if x > ZERO else -x)


# --- representation ---------------------------------------------------------------


def test_constructor_normalizes():
    assert elt((3, 1), (0, 2)).coords == ((0, Fraction(2)), (3, Fraction(1)))
    assert elt((1, Fraction(1, 2)), (1, Fraction(1, 2))) == unit(1)
    assert elt((4, 5), (4, -5)) == ZERO
    assert not ZERO
    assert elt((0, 1)) != INF


def test_constructor_rejects_bad_indices():
    for bad in (-1, "0", True):
        with pytest.raises(ValueError, match="basis index must be a nonnegative int"):
            GammaElement([(bad, 1)])
        with pytest.raises(ValueError, match="basis index must be a nonnegative int"):
            unit(bad)
    assert unit(3) == GammaElement([(3, 1)]) and hash(unit(3)) == hash(GammaElement([(3, 1)]))


@pytest.mark.parametrize("bad", [0.1, 1.0, float("inf"), "1", complex(1)])
def test_inexact_coefficients_are_rejected(bad):
    # Fraction(0.1) would silently store 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        GammaElement([(0, bad)])
    for x in (unit(0), INF):
        with pytest.raises(TypeError):
            x * bad
        with pytest.raises(TypeError):
            bad * x
        with pytest.raises(TypeError):
            x / bad
    assert GammaElement([(0, True), (1, 3), (2, Fraction(1, 3))]).coords == (
        (0, Fraction(1)), (1, Fraction(3)), (2, Fraction(1, 3))
    )


def test_division_by_zero_raises_zero_division():
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            unit(0) / zero
        with pytest.raises(ZeroDivisionError):
            INF / zero
    assert unit(0) / 2 == elt((0, Fraction(1, 2)))


def test_immutability_and_hash():
    a = elt((0, 1), (2, 3))
    with pytest.raises(AttributeError):
        a.coords = ()
    assert hash(a) == hash(elt((2, 3), (0, 1)))
    for slot in ("_num", "_den", "_hash"):
        with pytest.raises(AttributeError):
            setattr(a, slot, None)
    assert hash(a) == hash(GammaElement(a.coords))


def test_inf_hashes_and_compares_by_identity():
    assert {INF, INF} == {INF} and {INF: 1}[gamma.Infinity()] == 1
    assert INF != unit(0) and unit(0) != INF
    assert not INF == ZERO and not ZERO == INF


def test_elements_and_the_reports_that_hold_them_copy_and_pickle():
    # copy, deepcopy and pickle rebuild an element through _make, past the
    # assignment that __setattr__ refuses; inf stays the one INF
    space = echelonize([ones(2) - ones(3), ones(3) - ones(4)])
    growth = growth_check(space, [ones(4)])
    assert growth[1].counterexample is not None and growth[2].counterexample is not None
    values = [
        ZERO, INF, unit(3), elt((0, Fraction(-1, 2)), (4, 7)), space.image("s"), space.image("p"), *growth,
        harness.make_witness(unit(2), 3), lang.parse_any("psi(x) + 1/2*e1 - e0 < inf"),
    ]
    for value in values:
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value
            assert cli._json_text(twin) == cli._json_text(value)
    assert pickle.loads(pickle.dumps(INF)) is INF and copy.deepcopy(INF) is INF


# --- the int kernel against the oracle's dict-of-Fraction semantics ---------------

# Mixed denominators, 20-digit numerators, and the scalars 0, 1 and -1.
kernel_coefficients = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 12])),
    st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**20)),
)
unit_sized = st.sampled_from([-2, -1, 1, 2])
kernel_scalars = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-(10**20), 10**20), kernel_coefficients)


def reference(pairs):
    out = {}
    for i, q in pairs:
        out[i] = out.get(i, 0) + Fraction(q)
    return {i: q for i, q in out.items() if q}


@st.composite
def kernel_operands(draw):
    """An element and its oracle dict: a psi-set member one time in five, and one
    time in five few indices and unit-sized coefficients, so that sums often cancel."""
    kind = draw(st.integers(0, 4))
    if kind == 0:
        n = draw(st.integers(0, 12))
        return gamma.psi_element(n), dict.fromkeys(range(n + 1), Fraction(1))
    if kind == 1:
        pairs = draw(st.lists(st.tuples(st.integers(0, 5), unit_sized), max_size=5))
    else:
        pairs = draw(st.lists(st.tuples(st.integers(0, 6), kernel_coefficients), max_size=5))
    return GammaElement(pairs), reference(pairs)


def assert_canonical(x, want):
    """``x`` has the int layout's canonical form and denotes ``want``."""
    indices = [i for i, _ in x._num]
    assert indices == sorted(set(indices)) and all(type(i) is int and i >= 0 for i in indices)
    assert all(type(n) is int and n != 0 for _, n in x._num)
    assert type(x._den) is int and x._den > 0
    assert math.gcd(x._den, *(n for _, n in x._num)) == 1
    assert {i: Fraction(n, x._den) for i, n in x._num} == want
    built = GammaElement(want.items())
    assert dict(x.coords) == want and x == built and hash(x) == hash(built)


@given(kernel_operands(), kernel_operands(), kernel_scalars)
def test_int_kernel_matches_dict_reference(xa, yb, q):
    (a, x), (b, y) = xa, yb
    assert_canonical(a, x)
    assert_canonical(a + b, oracle.add(x, y))
    assert_canonical(a - b, oracle.add(x, oracle.neg(y)))
    assert_canonical(a - a, {})
    assert_canonical(-a, oracle.neg(x))
    scaled = {i: c * q for i, c in x.items() if q}
    assert_canonical(a * q, scaled)
    assert_canonical(q * a, scaled)
    if q:
        assert_canonical(a / q, oracle.div(x, q))
        # the int scaling behind * and / also takes an unreduced ratio
        p, r = Fraction(q).as_integer_ratio()
        assert_canonical(a._scaled(6 * p, -6 * r), {i: -c * q for i, c in x.items()})
    cmp = oracle.compare(x, y)
    assert (a < b, a <= b, a == b, a != b, a >= b, a > b) == (
        cmp < 0, cmp <= 0, cmp == 0, cmp != 0, cmp >= 0, cmp > 0
    )
    assert_canonical(gamma.integrate(a), oracle.integ(x))
    assert gamma.first_non_one_index(a) == oracle.first_non_one(x)
    assert gamma.psi_level(a) == oracle.level(x)
    assert gamma.format_element(a) == oracle.fmt(x)


@given(st.lists(st.tuples(kernel_operands() | st.just((INF, None)), kernel_scalars), max_size=12))
@example([((INF, None), 0), ((unit(0), {0: Fraction(1)}), Fraction(-1, 2))])
@example([((INF, None), -1), ((unit(0), {0: Fraction(1)}), 1), ((INF, None), 0)])
def test_sum_adds_weighted_operands_like_the_oracle(operands):
    # A zero weight skips its operand, even inf, and any other weight on inf
    # makes the total inf; a later operand is still type-checked.
    acc, want = gamma.Sum(), {}
    for (x, ref), q in operands:
        acc.add(x, q)
        if q:
            want = oracle.add(want, None if ref is None else {i: c * q for i, c in ref.items()})
    total = acc.total()
    if want is None:
        assert total is INF
    else:
        assert_canonical(total, want)
    for bad in ((True, 1), ("e0", 0), (unit(0), 0.5)):
        with pytest.raises(TypeError):
            acc.add(*bad)
    assert acc.total() == total


def test_int_kernel_reduces_summed_coordinates():
    half, sixth, third = Fraction(1, 2), Fraction(1, 6), Fraction(1, 3)
    total = elt((0, half)) + elt((0, half))
    assert total == unit(0) and total._den == 1
    total = elt((0, sixth)) + elt((1, third)) - elt((0, sixth))
    assert total == elt((1, third)) and total._den == 3
    assert (elt((0, half), (1, 1)) - elt((0, half)))._den == 1
    assert (elt((0, third)) * 3)._den == 1 and (unit(0) / 4 * 2)._den == 2
    assert gamma.psi_element(5) * Fraction(2, 3) / Fraction(2, 3) == gamma.psi_element(5)


def test_int_kernel_compares_across_denominators():
    # equal leading values over different denominators: the later terms decide
    a = elt((0, Fraction(1, 2)), (1, Fraction(1, 3)))  # over 6
    b = elt((0, Fraction(1, 2)), (1, Fraction(1, 2)))  # over 2
    assert a < b and b > a and a != b
    assert elt((0, Fraction(1, 2))) > elt((0, Fraction(1, 3)))
    assert elt((0, Fraction(2, 3))) > elt((0, Fraction(1, 2)), (3, 1))
    assert elt((0, Fraction(1, 2)), (2, -1)) < elt((0, Fraction(1, 2)))


def test_sampler_outputs_are_normalized():
    # The samplers bypass the normalizing constructor: 1 + c is 0 on a draw of -1.
    for seed in range(2000):
        bits = random.Random(seed).getrandbits
        outputs = [harness.sample_element(bits), harness.sample_positive(bits)]
        outputs += [harness.sample_prefixed(bits, level, side) for level in range(9) for side in (1, -1)]
        for x in outputs:
            assert_canonical(x, dict(x.coords))


# --- group operations -------------------------------------------------------------


def test_add_examples():
    assert unit(0) + -unit(0) == ZERO
    assert unit(1) + unit(3) == elt((1, 1), (3, 1))
    assert ones(2) + elt((1, -1), (2, 2)) == elt((0, 1), (2, 2))
    assert unit(0) + INF == INF
    assert INF + unit(0) == INF
    assert INF + INF == INF


def test_negate_scale_examples():
    assert -ZERO == ZERO
    assert unit(2) * Fraction(1, 3) == elt((2, Fraction(1, 3)))
    assert elt((0, 2), (1, -4)) / 2 == elt((0, 1), (1, -2))
    assert unit(5) * 0 == ZERO
    assert elt((0, 3)) / 3 == unit(0)
    assert -INF == INF
    for q in (0, 1, -2, Fraction(-3, 4)):
        assert INF * q is INF and q * INF is INF
    for n in (1, 3, Fraction(2, 5), -7):
        assert INF / n is INF


def as_oracle(a):
    """The oracle's form of an element of the extended group."""
    return None if a is INF else dict(a.coords)


extended_elements = elements | st.just(INF)
scalars = st.integers(-4, 4) | coefficients


@given(extended_elements, extended_elements, st.integers(1, 9), scalars)
def test_operators_match_reference_functions(a, b, n, q):
    # on all of the extended group; the oracle has no scaling by a Fraction
    x, y = as_oracle(a), as_oracle(b)
    assert as_oracle(a + b) == oracle.add(x, y)
    assert as_oracle(-a) == oracle.neg(x)
    assert as_oracle(a / n) == oracle.div(x, n)
    scaled = None if x is None else {i: c * q for i, c in x.items() if q}
    assert as_oracle(a * q) == as_oracle(q * a) == scaled
    if q:
        assert as_oracle(a / q) == oracle.div(x, q)
    cmp = oracle.compare(x, y)
    assert (a < b, a == b, a > b) == (cmp < 0, cmp == 0, cmp > 0)
    assert (a <= b, a >= b) == (cmp <= 0, cmp >= 0)


def _names(tree):
    """Each node of ``tree`` with the names it holds: attribute, identifier, definition, str constant."""
    for node in ast.walk(tree):
        names = {getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "name", None)}
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        yield node, names


def test_each_rule_has_one_owner():
    # Where inf sits and that it absorbs + are Infinity's rules: no GammaElement method
    # names Infinity, and Python's reflected operators hand it the work.  Reports hold
    # values, which cli alone turns into text: subspace never formats an element, and
    # no module but cli imports json.
    src = Path(gamma.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    assert {"cli.py", "gamma.py", "lang.py", "subspace.py", "harness.py"} <= set(trees)
    element = next(n for n in trees["gamma.py"].body if isinstance(n, ast.ClassDef) and n.name == "GammaElement")
    for node, names in _names(element):
        assert "Infinity" not in names, f"GammaElement:{getattr(node, 'lineno', '?')} names Infinity"
    for node, names in _names(trees["subspace.py"]):
        banned = names & {"format_element", "format_elements"}
        assert not banned, f"subspace.py:{getattr(node, 'lineno', '?')} names {banned}"
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            json = [m for m in modules if m.split(".")[0] == "json"]
            assert name == "cli.py" or not json, f"{name}:{node.lineno} imports {json}"


@given(elements, elements, elements)
def test_group_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + ZERO == a
    assert a + (-a) == ZERO


@given(elements, st.integers(-6, 6), st.integers(-6, 6))
def test_scale_distributes(a, j, k):
    assert a * (j + k) == a * j + a * k


# --- ordering ---------------------------------------------------------------------


def test_compare_examples():
    assert unit(0) > unit(1)
    assert unit(3) < INF
    assert elt((0, 1), (1, -5)) < unit(0)
    assert INF == INF and INF <= INF and not INF < INF
    assert unit(1) < unit(0) < INF


@given(elements, elements)
def test_compare_trichotomy(a, b):
    results = [a < b, a == b, a > b]
    assert results.count(True) == 1
    assert (a < b) == (b > a)


@given(elements, elements, elements)
def test_order_translation_invariant(a, b, c):
    # the order is a group order: adding c preserves comparisons
    assert (a < b, a == b) == (a + c < b + c, a + c == b + c)


@st.composite
def shared_prefix_pairs(draw):
    """Two canonical elements whose numerator tuples start with the same terms:
    over one denominator (one may extend the other, as along a chain of partial
    sums) or over two, where equal numerators are unequal coefficients."""
    start = draw(st.integers(0, 3))
    gaps = st.integers(1, 3)
    nums = st.integers(-4, 4).filter(bool)
    prefix = [(start, draw(st.sampled_from((1, -1))))]  # a numerator of 1 keeps gcd 1
    for n in draw(st.lists(nums, max_size=6)):
        prefix.append((prefix[-1][0] + draw(gaps), n))
    pair = []
    for den in (draw(st.integers(1, 6)), draw(st.integers(1, 6))):
        num = list(prefix)
        for n in draw(st.lists(nums, max_size=3)):
            num.append((num[-1][0] + draw(gaps), n))
        pair.append(gamma._make(tuple(num), den))
    return tuple(pair)


@given(st.one_of(shared_prefix_pairs(), st.tuples(elements, elements)))
def test_order_matches_the_oracle_on_shared_prefixes(pair):
    for a in pair:
        assert_canonical(a, dict(a.coords))
    a, b = pair
    want = oracle.compare(dict(a.coords), dict(b.coords))
    assert (a._cmp(b), b._cmp(a), a < b, a > b, a == b) == (want, -want, want < 0, want > 0, want == 0)


def test_positive_iff_leading_coefficient_positive():
    assert elt((2, Fraction(1, 9)), (0, 0)) > ZERO
    assert elt((1, -1), (2, 100)) < ZERO


# --- psi --------------------------------------------------------------------------


def test_psi_examples():
    assert gamma.psi(unit(1)) == ones(2)
    assert gamma.psi(ZERO) == INF
    assert gamma.psi(INF) == INF
    assert gamma.psi(elt((2, 5), (7, -3))) == ones(3)


def test_psi_element_and_level():
    assert gamma.psi_element(0) == unit(0)
    assert gamma.psi_element(2) == ones(3)
    assert gamma.psi_level(ones(3)) == 2
    assert gamma.psi_level(ZERO) is None
    assert gamma.psi_level(elt((0, 1), (1, 2))) is None
    assert gamma.psi_level(INF) is None
    with pytest.raises(ValueError):
        gamma.psi_element(-1)


def test_psi_members_are_interned_below_the_bound():
    for n in (0, 1, 80, gamma._INTERNED_LEVELS - 1):
        member = gamma.psi_element(n)
        assert member is gamma.psi_element(n)
        assert gamma.psi_level(member) == n
        # an equal element built elsewhere takes the scanning path
        assert gamma.psi_level(ones(n + 1)) == n
    assert gamma.psi_level(ones(3) + unit(7)) is None
    assert gamma.psi_level(elt((1, 1), (2, 1))) is None


def test_psi_member_cache_stays_bounded():
    for n in range(0, gamma.MAX_LEVEL + 1, 7):
        assert gamma.psi_level(gamma.psi_element(n)) == n
    assert len(gamma._interned) <= gamma._INTERNED_LEVELS
    assert len(gamma._ones) <= gamma.MAX_LEVEL + 1
    assert gamma.psi_element(gamma.MAX_LEVEL).coords == ones(gamma.MAX_LEVEL + 1).coords


def test_psi_element_level_cap():
    assert gamma.psi_level(gamma.psi_element(gamma.MAX_LEVEL)) == gamma.MAX_LEVEL
    with pytest.raises(gamma.DomainError):
        gamma.psi_element(gamma.MAX_LEVEL + 1)
    with pytest.raises(gamma.DomainError):
        gamma.successor(gamma.psi_element(gamma.MAX_LEVEL))


@given(st.integers(0, 20), st.integers(0, 20))
def test_psi_element_order_matches_levels(m, n):
    pm, pn = gamma.psi_element(m), gamma.psi_element(n)
    assert (pm < pn, pm == pn, pm > pn) == (m < n, m == n, m > n)


@given(nonzero_elements, st.integers(-3, 3).filter(bool))
def test_psi_scale_invariance(a, k):
    assert gamma.psi(a * k) == gamma.psi(a)


@given(nonzero_elements, nonzero_elements)
def test_psi_subadditive_and_antitone(a, b):
    if a + b != ZERO:
        assert gamma.psi(a + b) >= min(gamma.psi(a), gamma.psi(b))
    x, y = abs_order(a), abs_order(b)
    if ZERO < x <= y:
        assert gamma.psi(x) >= gamma.psi(y)


def abs_order(a):
    return a if a > ZERO else -a


# --- integration and derivative ---------------------------------------------------


def test_integrate_examples():
    assert gamma.integrate(elt((0, 1), (1, 1), (2, 2))) == unit(2)
    assert gamma.integrate(ZERO) == -unit(0)
    assert gamma.integrate(unit(0)) == -unit(1)
    assert gamma.integrate(INF) == INF


def test_derivative_examples():
    assert gamma.derivative(-unit(0)) == ZERO
    assert gamma.derivative(INF) == INF
    assert gamma.derivative(ZERO) == INF
    assert gamma.derivative(unit(1)) == elt((0, 1), (1, 2))


@given(elements)
def test_derivative_inverts_integrate(a):
    assert gamma.derivative(gamma.integrate(a)) == a


@given(nonzero_elements)
def test_integrate_inverts_derivative(a):
    assert gamma.integrate(gamma.derivative(a)) == a


@given(nonzero_elements, nonzero_elements)
def test_derivative_strictly_monotone(a, b):
    if a < b:
        assert gamma.derivative(a) < gamma.derivative(b)


@given(nonzero_elements, nonzero_elements)
def test_ac3(a, b):
    if a > ZERO:
        assert gamma.derivative(a) > gamma.psi(b)


@given(nonzero_elements, nonzero_elements)
def test_valuation_refinement(a, b):
    if gamma.psi(a) < gamma.psi(b):
        assert gamma.psi(a + b) == gamma.psi(a)


# --- successor and predecessor ----------------------------------------------------


def test_successor_examples():
    assert gamma.successor(ZERO) == unit(0)
    assert gamma.successor(unit(0)) == ones(2)
    assert gamma.successor(elt((0, 1), (1, 1), (2, Fraction(1, 2)))) == ones(3)
    assert gamma.successor(INF) == INF


def test_predecessor_examples():
    assert gamma.predecessor(ones(2)) == unit(0)
    assert gamma.predecessor(unit(0)) == INF
    assert gamma.predecessor(unit(1)) == INF
    assert gamma.predecessor(ZERO) == INF
    assert gamma.predecessor(INF) == INF


@given(elements)
def test_successor_is_psi_of_integral(a):
    assert gamma.successor(a) == gamma.psi(gamma.integrate(a))


@given(st.integers(0, 15))
def test_successor_steps_levels_and_p_inverts(n):
    member = gamma.psi_element(n)
    assert gamma.successor(member) == gamma.psi_element(n + 1)
    assert gamma.predecessor(gamma.successor(member)) == member


@given(nonzero_elements)
def test_successor_strictly_above_hull_members(a):
    if gamma.in_conv_psi(a):
        assert gamma.successor(a) > a


# --- archimedean classes ----------------------------------------------------------


# [a] < [b] iff n|a| < |b| for every n: the classes are the leading indices,
# reversed, and the class of 0 is the least.


def test_arch_class_examples():
    n = 10**6
    assert not unit(0) * n < unit(0) * 7 and not unit(0) * 7 * n < unit(0)
    assert unit(2) * n < unit(1) and not unit(1) * n < unit(2)
    assert ZERO * n < unit(5)


@given(nonzero_elements, nonzero_elements)
def test_arch_class_matches_multiplier_oracle(a, b):
    # n|a| grows with n, so one n above every ratio of coefficients these
    # elements can have decides it: a coefficient sums at most 6 terms of
    # size <= 9, and a nonzero one is at least 1/840 (denominators up to 8).
    x, y = abs_order(a), abs_order(b)
    assert (x * 10**6 < y) == (a.coords[0][0] > b.coords[0][0])


# --- hull membership --------------------------------------------------------------


def test_in_conv_psi_examples():
    assert gamma.in_conv_psi(unit(0))
    assert gamma.in_conv_psi(elt((0, 1), (1, 1), (2, Fraction(1, 2))))
    assert not gamma.in_conv_psi(unit(0) * 2)
    assert not gamma.in_conv_psi(ZERO)
    assert gamma.in_conv_psi(gamma.psi_element(4))


@given(elements)
def test_in_conv_psi_matches_bracketing_oracle(a):
    top = max((i for i, _ in a.coords), default=0) + 2
    expected = unit(0) <= a and a <= gamma.psi_element(top)
    assert gamma.in_conv_psi(a) == expected


# --- derivative membership predicates ---------------------------------------------


def test_derivative_membership_examples():
    assert gamma.in_positive_derivatives(gamma.derivative(unit(0)))
    assert not gamma.in_positive_derivatives(ZERO)
    assert gamma.in_negative_derivatives(ZERO)
    assert gamma.in_negative_derivatives(unit(0))  # its integral is -e1 < 0


@given(nonzero_elements)
def test_derivative_membership_tracks_sign(a):
    image = gamma.derivative(a)
    assert gamma.in_positive_derivatives(image) == (a > ZERO)
    assert gamma.in_negative_derivatives(image) == (a < ZERO)


# --- element text -----------------------------------------------------------------


def test_format_examples():
    assert gamma.format_element(ZERO) == "0"
    assert gamma.format_element(INF) == "inf"
    assert gamma.format_element(unit(0)) == "e0"
    assert (
        gamma.format_element(elt((0, Fraction(3, 2)), (3, -2), (7, 1)))
        == "3/2*e0 - 2*e3 + e7"
    )
    assert gamma.format_element(-unit(2)) == "-e2"
    assert gamma.format_element(elt((1, Fraction(-1, 4)))) == "-1/4*e1"


def test_parse_examples():
    assert lang.parse_element("0") == ZERO
    assert lang.parse_element("inf") == INF
    assert lang.parse_element("3/2*e0 - 2*e3 + e7") == elt(
        (0, Fraction(3, 2)), (3, -2), (7, 1)
    )
    # leniency: any term order, duplicates summed
    assert lang.parse_element("e3 + e0 - 1/2*e3") == elt((0, 1), (3, Fraction(1, 2)))
    assert lang.parse_element("  e1+e2  ") == elt((1, 1), (2, 1))


@pytest.mark.parametrize(
    "text, pairs",
    [
        ("e3 + e0 - 1/2*e3", [(3, 1), (0, 1), (3, Fraction(-1, 2))]),
        ("0*e1 + e1 - e1", [(1, 0), (1, 1), (1, -1)]),
        ("1/2*e4 - 2/4*e4 + 6/4*e2 + 0/3*e0", [(4, Fraction(1, 2)), (4, Fraction(-1, 2)), (2, Fraction(3, 2))]),
    ],
    ids=["unsorted", "zero-and-cancelling", "all-cancel-but-one"],
)
def test_parse_sums_like_the_constructor(text, pairs):
    x = lang.parse_element(text)
    assert x == GammaElement(pairs)
    assert_canonical(x, reference(pairs))


@st.composite
def written_terms(draw):
    """``(text, pairs)``: random ``(index, n, d)`` terms, zero and cancelling
    coefficients and repeated indices included, written with random whitespace,
    an explicit or elided ``1*`` and ``+``/``-`` joins."""
    terms = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(-12, 12), st.integers(1, 6)), min_size=1, max_size=8))
    terms += [(i, -n, d) for i, n, d in draw(st.lists(st.sampled_from(terms), max_size=3))]
    space = st.sampled_from(("", "", " ", "  ", "\t", "\n"))
    text = draw(space)
    for k, (index, n, d) in enumerate(terms):
        if n < 0 or (n == 0 and draw(st.booleans())):
            text += "-" + draw(space)
        elif k:
            text += "+" + draw(space)
        if abs(n) != 1 or d != 1 or draw(st.booleans()):
            text += str(abs(n)) + draw(space)
            if d != 1 or draw(st.booleans()):
                text += "/" + draw(space) + str(d) + draw(space)
            text += "*" + draw(space)
        text += f"e{index}" + draw(space)
    return text, [(i, Fraction(n, d)) for i, n, d in terms]


@given(written_terms())
def test_parse_reads_any_spelling_of_a_term_list(case):
    text, pairs = case
    x = lang.parse_element(text)
    assert x == GammaElement(pairs)
    assert_canonical(x, reference(pairs))


@pytest.mark.parametrize(
    "text",
    ["", "+e0", "e-1", "1/0*e2", "e", "2*", "e1 e2", "0 + e1", "infx", "3*f1", "e²", "²*e0"],
)
def test_parse_rejections(text):
    with pytest.raises(ElementError):
        lang.parse_element(text)


def test_parse_error_position():
    try:
        lang.parse_element("e0 + e-1")
    except ElementError as exc:
        assert exc.position == 6
    else:
        pytest.fail("expected a parse error")


@st.composite
def prefix_chains(draw):
    """Partial sums of terms at increasing indices, with repeats, rescalings
    (each a change of denominator), ``0`` and ``inf`` in between."""
    x = draw(st.sampled_from([ZERO, unit(0), elt((1, Fraction(-2, 3)))]))
    chain = [x]
    for step in draw(st.lists(st.integers(0, 5), max_size=12)):
        if step == 0:
            chain.append(draw(st.sampled_from([ZERO, INF])))
            continue
        if step == 1:
            x = x * draw(coefficients.filter(bool))
        elif step >= 3:
            top = x._num[-1][0] if x else -1
            x = x + elt((top + draw(st.integers(1, 3)), draw(coefficients.filter(bool))))
        chain.append(x)
    return chain


# Each case shows once: 0 first and inside, a repeat, a negative first new term,
# and a change of denominator that keeps the numerators' prefix.
CHAIN = [ZERO, unit(0), unit(0), unit(0) - unit(2), (unit(0) - unit(2) + unit(3)) / 3,
         INF, ZERO, unit(4), unit(4) + unit(6) * 5]


@example(CHAIN)
@given(st.lists(extended_elements, max_size=8) | prefix_chains())
def test_format_elements_matches_format_element(xs):
    assert gamma.format_elements(xs) == [gamma.format_element(x) for x in xs]


@given(prefix_chains())
def test_order_matches_the_oracle_along_prefix_chains(chain):
    chain = [x for x in chain if x is not INF]
    for a in chain:
        for b in chain:
            assert a._cmp(b) == oracle.compare(dict(a.coords), dict(b.coords))


@given(elements)
def test_element_text_round_trip(a):
    assert lang.parse_element(gamma.format_element(a)) == a


def test_repr_is_text_format():
    assert "e0" in repr(unit(0))

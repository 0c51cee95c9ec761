"""Seeded suites, the affine trichotomy checker, and witness construction."""

import ast
import dataclasses
import json
import math
import random
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from logcouple import cli, gamma, harness, lang
from logcouple.gamma import INF, ZERO, GammaElement, Infinity, unit
from logcouple.harness import (
    AffineMap,
    ConstInf,
    ConstPsi,
    Failure,
    NotApplicable,
    Projection,
    SuiteReport,
    TrichotomyFailure,
    classify_affine_image,
    make_witness,
    run_suite,
    trial_rng,
)
from logcouple.subspace import GrowthReport, echelonize, growth_check


def ones(n):
    return GammaElement((i, 1) for i in range(n))


def psi(level):
    return gamma.psi_element(level)


# --- suites pass and are reproducible ----------------------------------------------


@pytest.mark.parametrize("name", cli.SUITES)
def test_suites_pass_at_small_trials(name):
    report = run_suite(name, 0, 300)
    assert report.passed, cli._suite_text(report)
    assert report.trials == 300
    assert report.counters  # nontrivial strata recorded


def test_suite_names_are_the_cli_tokens():
    assert cli.SUITES == tuple(harness._SUITES)
    with pytest.raises(ValueError):
        run_suite("nosuch", 0, 300)


def test_zero_trials_vacuous_pass():
    report = run_suite("axioms", 3, 0)
    assert report.passed and report.trials == 0 and not report.counters


def test_reports_are_byte_reproducible():
    first = run_suite("successor", 11, 150)
    second = run_suite("successor", 11, 150)
    assert first == second
    assert cli._suite_text(first) == cli._suite_text(second)
    assert cli._json_text(first) == cli._json_text(second)


def test_seed_changes_the_stream():
    a = run_suite("axioms", 1, 50)
    b = run_suite("axioms", 2, 50)
    assert a.counters != b.counters or a.seed != b.seed


# The samplers as they were written over Fractions, kept as references: the
# int-pair samplers must return equal elements and leave the generator in the
# same state, so every suite keeps its stream (same random.Random calls, same
# order) and its report bytes.


def _reference_coefficient(rng):
    num = rng.randint(1, harness.MAX_NUMERATOR) * rng.choice((1, -1))
    return Fraction(num, rng.randint(1, harness.MAX_DENOMINATOR))


def _reference_element(rng, nonzero=False, min_index=0):
    window = range(min_index, min_index + harness.MAX_SUPPORT + 1)
    while True:
        size = rng.randint(0, min(4, len(window)))
        x = GammaElement(sorted((i, _reference_coefficient(rng)) for i in rng.sample(window, size)))
        if x or not nonzero:
            return x


def _reference_positive(rng):
    x = _reference_element(rng, nonzero=True)
    return x if x > ZERO else -x


def _reference_sparse_tail(rng, k):
    return sorted(
        (i, _reference_coefficient(rng))
        for i in rng.sample(range(k + 1, k + 2 + harness.MAX_SUPPORT), rng.randint(0, 2))
    )


def _reference_prefixed(rng, level, side=0):
    c = 1
    while c == 1 or (side > 0 and c < 1) or (side < 0 and c > 1):
        c = 1 + _reference_coefficient(rng)
    pivot = [(level, c)] if c else []
    return GammaElement([(i, 1) for i in range(level)] + pivot + _reference_sparse_tail(rng, level))


def _stream_draws():
    yield harness.sample_coefficient, _reference_coefficient
    for nonzero in (False, True):
        for min_index in (0, 3):
            kwargs = {"nonzero": nonzero, "min_index": min_index}
            yield partial(harness.sample_element, **kwargs), partial(_reference_element, **kwargs)
    yield harness.sample_positive, _reference_positive
    for k in (0, 4, 8):
        yield (
            lambda bits, k=k: gamma._from_terms(harness._sparse_tail(bits, k)),
            lambda rng, k=k: GammaElement(_reference_sparse_tail(rng, k)),
        )
    for side in (-1, 0, 1):
        for level in range(harness.MAX_SUPPORT + 1):
            yield (
                partial(harness.sample_prefixed, level=level, side=side),
                partial(_reference_prefixed, level=level, side=side),
            )


def _assert_int_layout(x):
    # The reference goes through the same _from_terms, so equality alone
    # would miss a layout fault the two share.
    indices = [i for i, _ in x._num]
    assert all(a < b for a, b in zip(indices, indices[1:]))
    assert all(type(n) is int and n != 0 for _, n in x._num)
    assert x._den > 0 and math.gcd(x._den, *(n for _, n in x._num)) == 1


def test_samplers_keep_the_reference_stream():
    draws = list(_stream_draws())
    for seed in range(500):
        rng, ref = random.Random(seed), random.Random(seed)
        for sample, reference in draws:
            x = sample(rng.getrandbits)
            if isinstance(x, GammaElement):
                _assert_int_layout(x)
            assert x == reference(ref), seed
            assert rng.getstate() == ref.getstate(), seed


def _reference_terms(rng, lo, n, k):
    return sorted(
        (i, rng.randint(1, harness.MAX_NUMERATOR) * rng.choice((1, -1)), rng.randint(1, harness.MAX_DENOMINATOR))
        for i in rng.sample(range(lo, lo + n), k)
    )


def test_bit_draws_match_the_stdlib():
    # Each getrandbits helper against the random.Random call it stands for: the
    # same value, and the generator left in the same state after every call.
    window = harness.MAX_SUPPORT + 1

    def same(drawn, expected):
        assert drawn == expected and rng.getstate() == ref.getstate(), seed

    for seed in range(200):
        rng, ref = random.Random(seed), random.Random(seed)
        bits = rng.getrandbits
        for n in range(1, 100):
            same(harness._below(bits, n), ref.randrange(n))
        for n in range(22):
            for k in range(n + 1):
                same(harness._pick(bits, seed, n, k), ref.sample(range(seed, seed + n), k))
        for k in range(5):
            same(harness._terms(bits, seed, window, k), _reference_terms(ref, seed, window, k))
    # _roll is random() * 2**53; over 80 values sample redraws on a repeat up to
    # k = 5 and swaps picks out of a pool from k = 6, and _pick must do the same
    for seed in range(50):
        rng, ref = random.Random(seed), random.Random(seed)
        bits = rng.getrandbits
        for k in range(81):
            same(harness._roll(bits), int(ref.random() * 2**53))
            same(harness._pick(bits, seed, 80, k), ref.sample(range(seed, seed + 80), k))


def test_src_has_no_float_and_no_stdlib_draw():
    # Every draw is an int function of getrandbits words defined in harness; random()
    # and sample are only the references above.  Parsed, so a version string is no float.
    for path in sorted(Path(harness.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            assert not (isinstance(node, ast.Constant) and isinstance(node.value, float)), where
            called = node.func if isinstance(node, ast.Call) else None
            assert not (isinstance(called, ast.Attribute) and called.attr in ("random", "sample")), where


_real_psi = gamma.psi


def test_corrupted_psi_fails_with_counterexamples(monkeypatch):
    # negating psi breaks the gap law; the report must carry replayable text
    monkeypatch.setattr(gamma, "psi", lambda x: -_real_psi(x))
    report = run_suite("axioms", 5, 120)
    assert not report.passed
    assert {f.check for f in report.failures} & {"psi_gap", "psi_antitone"}
    assert any(f.check == "psi_gap" for f in report.failures)
    bundle = report.failures[0]
    for text in bundle.inputs.values():
        lang.parse_element(text)  # replayable through the element grammar
    assert report.failure_count >= len(report.failures)


def test_failure_recording_caps_but_counts(monkeypatch):
    monkeypatch.setattr(gamma, "psi", lambda x: INF)
    report = run_suite("axioms", 5, 500)
    assert not report.passed
    assert len(report.failures) <= 10
    assert report.failure_count > len(report.failures)


def test_round_trips_do_not_use_the_patched_psi(monkeypatch):
    # derivative adds the psi-set member itself, so only the psi laws see a broken psi
    monkeypatch.setattr(gamma, "psi", lambda x: INF)
    monkeypatch.setattr(harness, "_MAX_RECORDED_FAILURES", 10**6)  # record every failure
    report = run_suite("axioms", 5, 500)
    assert len(report.failures) == report.failure_count > 0
    failing = {f.check for f in report.failures}
    assert not failing & {"derivative_after_integrate", "integrate_after_derivative"}
    assert gamma.derivative(unit(1)) == unit(0) + unit(1) * 2


def test_failures_carry_their_trial_number_past_trial_49(monkeypatch):
    monkeypatch.setitem(
        harness._SUITES, "stub", lambda rec, bits: rec.check(bits(32) >= 2**32 // 50, "rare", [])
    )
    report = run_suite("stub", 0, 1000)
    failing = [t for t in range(1000) if trial_rng(0, t).getrandbits(32) < 2**32 // 50]
    assert [f.trial for f in report.failures] == failing[:10]
    assert failing[9] > 49
    assert report.failure_count == len(failing)


def test_recorded_input_texts():
    rec = harness._Recorder()
    inputs = (("k", "3"), ("a", -unit(2)), ("base", ()), ("extra", (unit(0), INF)))
    rec.check(True, "passing", inputs)
    rec.check(False, "failing", inputs)
    assert [f.check for f in rec.failures] == ["failing"]
    assert rec.failures[0].inputs == {"k": "3", "a": "-e2", "base": "0", "extra": "e0; inf"}


def test_growth_suite_counters_cover_strata_and_regimes():
    report = run_suite("subspace-growth", 4, 400)
    counters = dict(report.counters)
    assert counters["base_unit"] + counters["base_sparse"] + counters["base_psi"] == 400
    assert counters["growth_psi"] == 400
    assert counters["growth_s_slack"] == 400
    assert counters["growth_p_slack"] == 400
    assert counters["s_image_size"] == 400
    assert counters["unit_base_full_chain"] == counters["base_unit"]
    assert counters["psi_base_saturated"] == counters["base_psi"]
    # tight-regime checks ran on a healthy share of trials
    assert counters["growth_s"] >= 200
    assert counters["growth_p"] >= 100


# --- affine trichotomy -------------------------------------------------------------


def _family(*rows):
    return [tuple(row) for row in rows]


def test_classify_projection():
    table = _family(
        (psi(0), psi(9)),
        (psi(1), psi(12)),
        (psi(2), psi(15)),
        (psi(3), psi(17)),
    )
    mapping = AffineMap((Fraction(1), Fraction(0)), ZERO)
    assert classify_affine_image(mapping, table) == Projection(0)


def test_classify_const_psi():
    # second coordinate constant; map ignores the varying one
    table = _family(
        (psi(0), psi(5)),
        (psi(1), psi(5)),
        (psi(2), psi(5)),
        (psi(3), psi(5)),
    )
    mapping = AffineMap((Fraction(0), Fraction(1)), ZERO)
    assert classify_affine_image(mapping, table) == ConstPsi(5)


def test_affine_map_rejects_inexact_coefficients():
    with pytest.raises(TypeError):
        AffineMap((0.1,), unit(0))
    assert AffineMap((1, Fraction(1, 2)), ZERO).coefficients == (Fraction(1), Fraction(1, 2))


def test_classify_const_inf():
    table = _family((psi(0),), (psi(1),), (psi(2),))
    mapping = AffineMap((Fraction(1),), INF)
    assert classify_affine_image(mapping, table) == ConstInf()


def test_classify_affine_disguised_projection():
    # q = (1, 3): only the first coordinate survives extensionally when
    # the map misses the psi-set too often, so hits decide everything
    table = _family(
        (psi(1), psi(4)),
        (psi(2), psi(6)),
        (psi(3), psi(8)),
        (psi(5), psi(9)),
    )
    mapping = AffineMap((Fraction(1), Fraction(0)), ZERO)
    result = classify_affine_image(mapping, table)
    assert result == Projection(0)


def test_not_applicable_reasons():
    # too few rows for the arity
    table = _family((psi(0), psi(3)), (psi(1), psi(4)))
    mapping = AffineMap((Fraction(1), Fraction(0)), ZERO)
    result = classify_affine_image(mapping, table)
    assert isinstance(result, NotApplicable) and "hits" in result.reason

    # inf inside a nonconstant coordinate breaks genericity
    table = _family((psi(0),), (INF,), (psi(2),), (psi(3),))
    result = classify_affine_image(AffineMap((Fraction(1),), ZERO), table)
    assert isinstance(result, NotApplicable) and "inf" in result.reason

    # duplicated values in a nonconstant coordinate break genericity
    table = _family((psi(0),), (psi(1),), (psi(0),), (psi(3),))
    result = classify_affine_image(AffineMap((Fraction(1),), ZERO), table)
    assert isinstance(result, NotApplicable)

    # a map that misses the psi-set often enough is not applicable
    table = _family((psi(0),), (psi(1),), (psi(2),), (psi(4),))
    result = classify_affine_image(AffineMap((Fraction(2),), unit(3)), table)
    assert isinstance(result, NotApplicable)

    # two nonconstant coordinates that agree on some rows but not all share a value
    table = _family((psi(0), psi(0)), (psi(1), psi(5)), (psi(2), psi(6)), (psi(3), psi(7)))
    result = classify_affine_image(AffineMap((Fraction(1), Fraction(0)), ZERO), table)
    assert result == NotApplicable("value e0 repeats across retained coordinates")


def _reference_classify_affine_image(mapping, family):
    """``classify_affine_image`` as it was with three genericity passes, kept as the reference."""
    m = mapping.arity
    rows = []
    for t in family:
        t = tuple(t)
        if len(t) != m:
            raise ValueError(f"family tuple arity {len(t)} != map arity {m}")
        for v in t:
            if not isinstance(v, Infinity) and gamma.psi_level(v) is None:
                raise ValueError(f"family entries must be psi-set members or inf, got {v!r}")
        rows.append(t)
    if not rows:
        raise ValueError("family must not be empty")

    columns = [tuple(row[j] for row in rows) for j in range(m)]
    retained = [j for j in range(m) if len(set(columns[j])) > 1]
    for j in retained:
        if any(isinstance(v, Infinity) for v in columns[j]):
            return NotApplicable(f"nonconstant coordinate {j} contains inf")
    reps = []
    for j in retained:
        duplicate = False
        for r in reps:
            if columns[r] == columns[j]:
                duplicate = True
                break
            if any(a == b for a, b in zip(columns[r], columns[j])):
                return NotApplicable(
                    f"coordinates {r} and {j} agree on some rows but not all"
                )
        if not duplicate:
            reps.append(j)
    seen = {}
    for j in reps:
        for i, v in enumerate(columns[j]):
            if v in seen and seen[v] != (i, j):
                return NotApplicable(
                    f"value {gamma.format_element(v)} repeats across retained coordinates"
                )
            seen[v] = (i, j)

    values = [mapping.apply(row) for row in rows]
    hits = sum(
        1 for v in values if isinstance(v, Infinity) or gamma.psi_level(v) is not None
    )
    if hits < m + 2:
        return NotApplicable(f"{hits} psi-set hits, need at least {m + 2}")

    if all(isinstance(v, Infinity) for v in values):
        return ConstInf()
    if all(v == values[0] for v in values):
        level = gamma.psi_level(values[0])
        if level is None:
            raise TrichotomyFailure(mapping, rows, values)
        return ConstPsi(level)
    for j in range(m):
        if all(values[i] == rows[i][j] for i in range(len(rows))):
            return Projection(j)
    raise TrichotomyFailure(mapping, rows, values)


def _random_family(rng):
    """Arity 1-4 and 1-7 rows, built from constant, inf-bearing, copied,
    partially agreeing, repeating and fresh columns."""
    m, size = rng.randint(1, 4), rng.randint(1, 7)
    fresh = iter(rng.sample(range(60), 60))  # fresh columns share no value
    columns = []
    for _ in range(m):
        kind = rng.choice(("constant", "inf", "copy", "partial", "repeat", "fresh", "fresh"))
        if kind in ("copy", "partial") and not columns:
            kind = "fresh"
        if kind == "constant":
            column = [INF if rng.random() < 0.3 else psi(rng.randrange(60))] * size
        elif kind == "copy":
            column = list(rng.choice(columns))
        else:
            column = [psi(next(fresh)) for _ in range(size)]
        if kind == "inf":
            column[rng.randrange(size)] = INF
        elif kind == "partial":
            source = rng.choice(columns)
            for i in rng.sample(range(size), rng.randint(1, size)):
                column[i] = source[i]
        elif kind == "repeat":
            column[rng.randrange(size)] = rng.choice(rng.choice(columns + [column]))
        columns.append(column)
    return m, [tuple(column[i] for column in columns) for i in range(size)]


def _random_map(rng, m):
    roll = rng.randrange(4)
    if roll == 0:  # a projection
        target = rng.randrange(m)
        return AffineMap(tuple(Fraction(j == target) for j in range(m)), ZERO)
    if roll == 1:  # a constant psi-set member or inf
        return AffineMap((Fraction(0),) * m, INF if rng.random() < 0.3 else psi(rng.randrange(60)))
    coefficients = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(m))
    constant = rng.choice((INF, ZERO, psi(rng.randrange(60)), unit(rng.randrange(9))))
    return AffineMap(coefficients, constant)


def _branch(result):
    if not isinstance(result, NotApplicable):
        return type(result).__name__
    keys = ("contains inf", "repeats across", "psi-set hits", "agree on some rows")
    return next(key for key in keys if key in result.reason)


def test_classify_matches_the_three_pass_reference():
    def outcome(result):
        return type(result).__name__, getattr(result, "level", None), getattr(result, "coordinate", None)

    reached, reference_reached = set(), set()
    for seed in range(2500):
        rng = random.Random(seed)
        m, family = _random_family(rng)
        mapping = _random_map(rng, m)
        result = classify_affine_image(mapping, family)
        reference = _reference_classify_affine_image(mapping, family)
        assert outcome(result) == outcome(reference), seed
        reached.add(_branch(result))
        reference_reached.add(_branch(reference))
    assert reached == {"ConstInf", "ConstPsi", "Projection", "contains inf", "repeats across", "psi-set hits"}
    assert reference_reached == reached | {"agree on some rows"}


def test_classify_validates_shapes():
    with pytest.raises(ValueError):
        classify_affine_image(AffineMap((Fraction(1),), ZERO), [])
    with pytest.raises(ValueError):
        classify_affine_image(
            AffineMap((Fraction(1),), ZERO), [(psi(0), psi(1))]
        )


def test_affine_map_evaluation_absorbs_inf():
    mapping = AffineMap((Fraction(1), Fraction(0)), ZERO)
    assert mapping.apply((INF, psi(0))) == INF
    assert mapping.apply((psi(0), INF)) == psi(0)  # zero coefficient ignores inf
    assert AffineMap((Fraction(1),), INF).apply((psi(0),)) == INF


def test_constant_coordinates_may_hold_inf_or_collide():
    # constant coordinate carries inf and collides with retained values;
    # genericity only constrains the nonconstant coordinates
    table = _family(
        (psi(0), INF),
        (psi(1), INF),
        (psi(2), INF),
        (psi(3), INF),
    )
    mapping = AffineMap((Fraction(1), Fraction(0)), ZERO)
    assert classify_affine_image(mapping, table) == Projection(0)


# --- witness construction ----------------------------------------------------------


def test_witness_small_epsilon():
    report = make_witness(unit(0), 3)
    assert report.alpha_level == 1
    assert report.alpha == ones(2)
    assert report.bound == unit(2) * 2
    assert report.prefix == (unit(2), unit(2) + unit(3), unit(2) + unit(3) + unit(4))


def test_witness_deeper_epsilon():
    report = make_witness(unit(5) * 2, 2)
    assert report.alpha_level == 6
    assert report.bound == unit(7) * 2
    for x in report.prefix:
        assert ZERO < x < report.bound < unit(5) * 2


def test_witness_chain_properties():
    rng_levels = [0, 1, 2, 5, 9]
    for level in rng_levels:
        epsilon = unit(level) * Fraction(3, 7)
        report = make_witness(epsilon, 8)
        assert len(report.prefix) == 8
        previous = ZERO
        for x in report.prefix:
            assert previous < x < report.bound
            assert x < epsilon
            previous = x
        gaps = [
            report.prefix[i + 1] - report.prefix[i] for i in range(len(report.prefix) - 1)
        ]
        assert all(g > ZERO for g in gaps)


def test_witness_domain_errors():
    with pytest.raises(gamma.DomainError):
        make_witness(ZERO, 3)
    with pytest.raises(gamma.DomainError):
        make_witness(-unit(0), 3)
    with pytest.raises(gamma.DomainError):
        make_witness(INF, 3)
    with pytest.raises(ValueError):
        make_witness(unit(0), 0)


def test_witness_count_cap():
    report = make_witness(unit(0), harness.MAX_WITNESS_COUNT)
    assert len(report.prefix) == harness.MAX_WITNESS_COUNT
    with pytest.raises(ValueError, match="MAX_WITNESS_COUNT"):
        make_witness(unit(0), harness.MAX_WITNESS_COUNT + 1)


def _reference_witness(epsilon, count):
    """make_witness by repeated ``+``, checking each element against the one
    before it, the bound and the ceiling, as the per-element checks did."""
    level = epsilon.coords[0][0] + 1
    alpha = gamma.psi_element(level)
    bound = gamma.integrate(alpha) * -2
    assert ZERO < bound < epsilon
    ceiling = alpha + (gamma.successor(alpha) - alpha) * 2
    prefix, previous = [], ZERO
    for index in range(level + 1, level + count + 1):
        x = previous + unit(index)
        assert previous < x < bound and ceiling > alpha + x
        prefix.append(x)
        previous = x
    return harness.WitnessReport(epsilon, level, alpha, bound, tuple(prefix))


@pytest.mark.parametrize("count", [1, 2, 300, harness.MAX_WITNESS_COUNT])
@pytest.mark.parametrize(
    "epsilon",
    [
        unit(0),
        unit(1) * Fraction(3, 7),
        unit(2) * Fraction(5, 2) - unit(9),
        unit(3) / 3 + unit(4) * Fraction(2, 5),
        unit(4) - unit(5) * Fraction(7, 3),
        unit(5) * Fraction(9, 4) + unit(6) + unit(40) / 11,
        unit(6) / 13,
    ],
    ids=repr,
)
def test_witness_matches_the_per_element_reference(epsilon, count):
    assert make_witness(epsilon, count) == _reference_witness(epsilon, count)


def test_witness_comparisons_do_not_grow_with_the_count(monkeypatch):
    # Work bound in call counts: the chain's shape stands in for the per-element
    # checks, which made three comparisons an element.
    made, real_cmp = {}, GammaElement._cmp
    for count in (1, harness.MAX_WITNESS_COUNT):
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(GammaElement, "_cmp", lambda self, other: calls.append(1) or real_cmp(self, other))
            make_witness(unit(0), count)
        made[count] = len(calls)
    assert made[1] == made[harness.MAX_WITNESS_COUNT] <= 8


_real_integrate, _real_unit = gamma.integrate, gamma.unit


@pytest.mark.parametrize(
    "name, broken, call, message",
    [
        ("integrate", lambda x: -_real_integrate(x), lambda: make_witness(unit(0), 3),
         "witness bound failed its defining inequality"),
        ("unit", lambda k: -_real_unit(k), partial(make_witness, unit(5) * Fraction(3, 4) - unit(9), 3),
         "witness element -e7 escaped (previous, bound)"),
        ("successor", lambda x: x, lambda: make_witness(unit(0), 3),
         "alpha + 2(s(alpha)-alpha) failed to cap the enumeration"),
        ("successor", lambda x: psi(0), lambda: echelonize([psi(2)]).image("s"),
         "successor image witness failed at level 3: e0 + e1 + e2"),
    ],
    ids=["bound", "prefix", "ceiling", "s-image"],
)
def test_invariant_checks_raise_on_a_broken_gamma(monkeypatch, name, broken, call, message):
    # make_witness and Subspace._walk check what they build; with one gamma
    # function broken for the call (its arguments are built before), each
    # check raises with its own message.
    with monkeypatch.context() as patch:
        patch.setattr(gamma, name, broken)
        with pytest.raises(RuntimeError) as err:
            call()
    assert str(err.value) == message


def test_witness_json_shape():
    payload = json.loads(cli._json_text(make_witness(unit(0), 1)))
    assert payload == {
        "epsilon": "e0",
        "alpha_level": 1,
        "alpha": "e0 + e1",
        "bound": "2*e2",
        "prefix": ["e2"],
    }


# --- report records ----------------------------------------------------------------


def _reference_report_classes():
    """The 10 report classes as they were: frozen dataclasses, with ``AffineMap``
    normalizing its coefficients in ``__post_init__``."""

    def normalize(mapping):
        object.__setattr__(mapping, "coefficients", tuple(Fraction(c) for c in mapping.coefficients))

    shapes = [
        ("Failure", ["trial", "check", "inputs", "detail"]),
        ("SuiteReport", ["suite", "seed", "trials", "passed", "failure_count", "failures", "counters"]),
        ("AffineMap", ["coefficients", "constant"]),
        ("ConstInf", []),
        ("ConstPsi", ["level"]),
        ("Projection", ["coordinate"]),
        ("NotApplicable", ["reason"]),
        ("WitnessReport", ["epsilon", "alpha_level", "alpha", "bound", "prefix"]),
        ("ImageReport", ["function", "levels", "witnesses"]),
        ("GrowthReport", ["function", "old_levels", "new_levels", "added_levels", "new_generator_count",
                          "bound", "passed", "counterexample"]),
    ]
    return {
        name: dataclasses.make_dataclass(
            name, fields, frozen=True, namespace={"__post_init__": normalize} if name == "AffineMap" else None
        )
        for name, fields in shapes
    }


_REFERENCE_REPORTS = _reference_report_classes()


def _as_reference(value):
    """The same report built from the reference classes, nested reports included."""
    if isinstance(value, tuple):
        return tuple(_as_reference(v) for v in value)
    if not isinstance(value, gamma.Record):
        return value
    cls = _REFERENCE_REPORTS[type(value).__name__]
    return cls(*(_as_reference(getattr(value, f.name)) for f in dataclasses.fields(cls)))


def _reference_text(x):
    """Element text from the coordinates, one term at a time, with no formatter of gamma."""
    if isinstance(x, Infinity):
        return "inf"
    terms = "".join(
        (" - " if c < 0 else " + ") + ("" if abs(c) == 1 else f"{abs(c)}*") + f"e{i}" for i, c in x.coords
    )
    return "0" if not terms else terms[3:] if terms[1] == "+" else "-" + terms[3:]


def _reference_json(value):
    """The JSON form of a report, by rules of its own: a dataclass is its fields in
    declaration order, leaving out fields that are None; an element is its text, a
    Fraction ``str`` of it, a dict has ``str`` keys, and a tuple or list is a list."""
    if dataclasses.is_dataclass(value):
        pairs = ((f.name, getattr(value, f.name)) for f in dataclasses.fields(value))
        return {name: _reference_json(v) for name, v in pairs if v is not None}
    if isinstance(value, (GammaElement, Infinity)):
        return _reference_text(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _reference_json(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_reference_json(v) for v in value]
    return value


def _sample_reports():
    """Reports of all 10 classes, most as the suites, the witness builder and
    the subspace functions return them; each call builds new objects."""
    reports = [run_suite(name, 0, 20) for name in cli.SUITES]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gamma, "psi", lambda x: -_real_psi(x))
        reports.append(run_suite("axioms", 5, 40))
    reports += reports[-1].failures
    reports += [Failure(7, "planted_const_psi", {"level": "44"}, f"got {ConstPsi(44)!r}")]
    reports += [ConstInf(), ConstPsi(3), ConstPsi(44), Projection(3), Projection(0), NotApplicable("1 psi-set hits")]
    reports += [AffineMap((1, Fraction(1, 2)), ZERO), AffineMap([Fraction(2), 0], psi(3)), AffineMap((), INF)]
    reports += [make_witness(unit(0), 3), make_witness(unit(1) * Fraction(1, 3), 2)]
    space = echelonize([unit(1), unit(2)])
    reports += [space.image(function) for function in ("psi", "s", "p")]
    reports += growth_check(space, [unit(0)]) + growth_check(echelonize([unit(0)]), [unit(1)])
    return reports


def test_reports_match_the_reference_dataclasses():
    reports, copies = _sample_reports(), _sample_reports()
    assert {type(r).__name__ for r in reports} == set(_REFERENCE_REPORTS)
    assert any(r.failures for r in reports if isinstance(r, SuiteReport))
    growth = [r for r in reports if isinstance(r, GrowthReport)]
    assert {r.counterexample is None for r in growth} == {True, False}
    # a bundle marks growth past the closed-subgroup bound, m + 1 for s and m otherwise
    past_closed_bound = [len(r.added_levels) > r.new_generator_count + (r.function == "s") for r in growth]
    assert ["counterexample" in json.loads(cli._json_text(r)) for r in growth] == past_closed_bound
    refs, copy_refs = [_as_reference(r) for r in reports], [_as_reference(r) for r in copies]
    for report, ref in zip(reports, refs):
        assert repr(report) == repr(ref)
        assert cli._json_text(report) == json.dumps(_reference_json(ref), indent=2)  # keys in order
        try:
            want = hash(ref)
        except TypeError:
            with pytest.raises(TypeError):
                hash(report)
        else:
            assert hash(report) == want
    for a, ref_a in zip(reports, refs):
        for b, ref_b in zip(copies, copy_refs):
            assert (a == b, a != b) == (ref_a == ref_b, ref_a != ref_b), (a, b)
    assert ConstPsi(3) != Projection(3) and _as_reference(ConstPsi(3)) != _as_reference(Projection(3))
    assert repr(ConstPsi(44)) == "ConstPsi(level=44)"


def test_a_report_takes_exactly_its_fields():
    for report in _sample_reports():
        fields = [getattr(report, name) for name in type(report).__slots__]
        with pytest.raises(TypeError):
            type(report)(*fields, None)
        if fields:
            with pytest.raises(TypeError):
                type(report)(*fields[:-1])
        with pytest.raises(AttributeError):
            report.extra = None

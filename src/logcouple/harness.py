"""Seeded randomized checking of the asymptotic-couple laws.

Each suite is a per-trial function registered in ``_SUITES``, and one
driver (``run_suite``) runs it once per trial as ``trial(rec, bits)``.
``bits`` is the ``getrandbits`` of ``trial_rng(seed, trial)``, a
``random.Random`` seeded by an integer mix of the two, and it is the
one source of randomness: every draw is an int function of its words,
defined here (``_below``, ``_pick``, ``_roll`` and the samplers built
on them), with no floats.  They ask for the same bits, in the same
order, as the ``randrange``, ``sample`` and ``random`` calls they stand
for, so equal seeds give byte-identical reports on every platform and
Python version.  Reports carry counters for the nontrivial strata a
suite exercised, so vacuous passes are visible, and a trial that raises
is a failed ``trial_raised`` check, not a traceback.  The module
computes reports; ``cli`` renders them as text.

The module also houses the affine-image trichotomy checker (an affine
map hitting the psi-set often enough on a generic family must be
constant-inf, constant, or a coordinate projection), and the
constructor of small discrete witness sets below a prescribed epsilon.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple, Union

from . import gamma
from .gamma import INF, ZERO, ExtendedElement, GammaElement, Infinity, Record
from .subspace import echelonize, growth_check

_MASK = (1 << 64) - 1


def _mix64(seed: int, index: int) -> int:
    """splitmix64-style finalizer over (seed, index); pure integer math."""
    x = (seed * 0x9E3779B97F4A7C15 + (index + 1) * 0xD1B54A32D192ED03) & _MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    x ^= x >> 31
    return x


# Sampler bounds: the index window of a sampled element's support spans
# MAX_SUPPORT + 1 indices, and a coefficient is +-(1..MAX_NUMERATOR) over
# 1..MAX_DENOMINATOR.
MAX_SUPPORT = 8
MAX_NUMERATOR = 9
MAX_DENOMINATOR = 4


def trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random(_mix64(seed, trial))


def _below(bits: Callable[[int], int], n: int) -> int:
    """``randrange(n)`` for ``n > 0``: ``n.bit_length()`` bits, redrawn while ``>= n``."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _pick(bits: Callable[[int], int], lo: int, n: int, k: int) -> List[int]:
    """``sample(range(lo, lo + n), k)``: CPython's pool method while a list of ``n`` is smaller than
    a set of ``k`` (``n <= 21``, plus ``4**ceil(log4(3k))`` for ``k > 5``), else redraws on a repeat."""
    assert 0 <= k <= n
    if n > 21 + (4 ** (((3 * k - 1).bit_length() + 1) >> 1) if k > 5 else 0):
        seen: Dict[int, None] = {}  # a dict keeps the draws in order
        while len(seen) < k:
            seen[lo + _below(bits, n)] = None
        return list(seen)
    pool = list(range(lo, lo + n))
    picked = []
    for last in range(n - 1, n - 1 - k, -1):
        j = _below(bits, last + 1)
        picked.append(pool[j])
        pool[j] = pool[last]
    return picked


def _roll(bits: Callable[[int], int]) -> int:
    """``random() * 2**53`` as an int: 27 bits of one 32-bit word over 26 bits of the next."""
    return (bits(32) >> 5) << 26 | bits(32) >> 6


# ``random() < p`` is ``_roll(bits) < ceil(p * 2**53)``; these are that bound for the
# nearest doubles to p = 1/4, 1/5, 1/2 and 3/5, the probabilities lemma44 draws with.
_ROLL_QUARTER, _ROLL_FIFTH, _ROLL_HALF, _ROLL_THREE_FIFTHS = 1 << 51, 1801439850948199, 1 << 52, 5404319552844595


def _draw(bits: Callable[[int], int]) -> Tuple[int, int]:  # (num, den), not reduced
    num = 1 + _below(bits, MAX_NUMERATOR)  # randint(1, MAX_NUMERATOR) * choice((1, -1))
    if _below(bits, 2):
        num = -num
    return num, 1 + _below(bits, MAX_DENOMINATOR)


def _terms(bits: Callable[[int], int], lo: int, n: int, k: int) -> List[Tuple[int, int, int]]:
    """``k`` random ``(index, num, den)`` terms at distinct indices in ``range(lo, lo + n)``,
    in index order.  Every index is picked before any coefficient is drawn."""
    return sorted([(i, *_draw(bits)) for i in _pick(bits, lo, n, k)])


def sample_coefficient(bits: Callable[[int], int]) -> Fraction:
    return Fraction(*_draw(bits))


def sample_element(bits: Callable[[int], int], nonzero: bool = False, min_index: int = 0) -> GammaElement:
    """Sparse random element: up to 4 terms at indices ``min_index`` to ``min_index + MAX_SUPPORT``."""
    while True:
        x = gamma._from_terms(_terms(bits, min_index, MAX_SUPPORT + 1, _below(bits, 5)))  # randint(0, 4) terms
        if x or not nonzero:
            return x


def sample_positive(bits: Callable[[int], int]) -> GammaElement:
    x = sample_element(bits, nonzero=True)
    return x if x > ZERO else -x


def _sparse_tail(bits: Callable[[int], int], k: int) -> List[Tuple[int, int, int]]:
    """At most two random ``(index, num, den)`` terms at indices above ``k``, in index order."""
    return _terms(bits, k + 1, MAX_SUPPORT + 1, _below(bits, 3))


def sample_prefixed(bits: Callable[[int], int], level: int, side: int = 0) -> GammaElement:
    """Element whose successor has exactly the given level: ones at
    indices below ``level``, a non-one coordinate at ``level``, then an
    arbitrary sparse tail.

    ``side=+1``/``-1`` forces the pivotal coordinate above/below 1,
    which puts the element among derivatives of positive/negative
    elements.
    """
    num, den = _draw(bits)  # the pivot is 1 + num/den, redrawn until on ``side`` of 1
    while side * num < 0:
        num, den = _draw(bits)
    pivot = [(level, den + num, den)] if den + num else []  # a draw of -1 leaves no term
    return gamma._from_terms([(i, 1, 1) for i in range(level)] + pivot + _sparse_tail(bits, level))


# --- reports ------------------------------------------------------------------

_MAX_RECORDED_FAILURES = 10


class Failure(Record):
    """A failed check: its trial, its name, its inputs as text and what went wrong."""

    __slots__ = ("trial", "check", "inputs", "detail")


class SuiteReport(Record):
    """One suite run: its first ``failures``, and its ``counters`` sorted by name."""

    __slots__ = ("suite", "seed", "trials", "passed", "failure_count", "failures", "counters")


class _Recorder:
    """Counts the checks of one suite run and keeps its first failures.

    The driver sets ``trial`` before each trial, so recorded failures
    carry the trial number without the suites passing it around.
    """

    def __init__(self) -> None:
        self.trial = 0
        self.failure_count = 0
        self.failures: List[Failure] = []
        self.counters: Dict[str, int] = {}

    def bump(self, counter: str) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + 1

    def check(
        self, ok: bool, check: str,
        inputs: Sequence[Tuple[str, Union[str, ExtendedElement, Tuple[GammaElement, ...]]]],
        detail: Union[str, Callable[[], str]] = "property violated",
    ) -> None:
        """Count a check and record it if it failed.

        Input values are text, elements or tuples of elements, and
        ``detail`` is text or a function returning it; both become text
        only for a recorded failure.  A tuple's text joins its elements
        with ``"; "``, and is ``"0"`` when the tuple is empty.
        """
        self.bump(check)
        if ok:
            return
        self.failure_count += 1
        if len(self.failures) < _MAX_RECORDED_FAILURES:
            texts = {}
            for k, v in inputs:
                if isinstance(v, tuple):
                    v = "; ".join(map(gamma.format_element, v)) or "0"
                texts[k] = v if isinstance(v, str) else gamma.format_element(v)
            detail = detail if isinstance(detail, str) else detail()
            self.failures.append(Failure(self.trial, check, texts, detail))


# --- axiom suite ----------------------------------------------------------------


def _axiom_trial(rec: _Recorder, bits: Callable[[int], int]) -> None:
    """Randomized check of the asymptotic-couple laws.

    Covered: subadditivity of psi on sums, invariance under nonzero
    integer scaling, the gap property (a > 0 implies a + psi(a) above
    every psi value), monotonicity of psi against the order (harder
    comparisons win), the refinement rule psi(a+b) = psi(a) when
    psi(a) < psi(b), strict monotonicity of the derivative, and both
    integrate/derivative round trips.
    """
    psi = gamma.psi
    a = sample_element(bits, nonzero=True)
    b = sample_element(bits, nonzero=True)
    fa, fb = psi(a), psi(b)
    inputs = (("a", a), ("b", b))

    s = a + b
    if s:
        lhs = psi(s)
        floor = fa if fa <= fb else fb
        rec.check(
            lhs >= floor,
            "psi_subadditive",
            inputs,
            lambda: f"psi(a+b) = {lhs!r} below min(psi a, psi b) = {floor!r}",
        )

    k = (-3, -2, -1, 2, 3)[_below(bits, 5)]
    rec.check(
        psi(a * k) == fa,
        "psi_scale_invariant",
        inputs + (("k", str(k)),),
        "psi(k*a) != psi(a)",
    )

    pos = a if a > ZERO else -a
    fpos = psi(pos)
    rec.check(
        pos + fpos > fb,
        "psi_gap",
        (("a", pos),) + inputs[1:],
        lambda: f"a + psi(a) = {pos + fpos!r} not above psi(b) = {fb!r}",
    )

    other = b if b > ZERO else -b
    lo, hi = (pos, other) if pos <= other else (other, pos)
    rec.check(
        psi(lo) >= psi(hi),
        "psi_antitone",
        (("lo", lo), ("hi", hi)),
        "0 < lo <= hi but psi(lo) < psi(hi)",
    )

    deep = sample_element(bits, nonzero=True, min_index=a._num[0][0] + 1)
    fdeep = psi(deep)
    if fa < fdeep:
        rec.check(
            psi(a + deep) == fa,
            "psi_refinement",
            inputs[:1] + (("c", deep),),
            "psi(a) < psi(c) but psi(a+c) != psi(a)",
        )

    if a != b:
        lo, hi = (a, b) if a < b else (b, a)
        rec.check(
            lo + psi(lo) < hi + psi(hi),
            "derivative_strictly_monotone",
            (("lo", lo), ("hi", hi)),
            "lo < hi but derivative order not strict",
        )

    x = sample_element(bits)
    rec.check(
        gamma.derivative(gamma.integrate(x)) == x,
        "derivative_after_integrate",
        (("x", x),),
        "derivative(integrate(x)) != x",
    )
    if x:
        rec.check(
            gamma.integrate(gamma.derivative(x)) == x,
            "integrate_after_derivative",
            (("x", x),),
            "integrate(derivative(x)) != x",
        )


# --- successor suite ----------------------------------------------------------


def _successor_trial(rec: _Recorder, bits: Callable[[int], int]) -> None:
    """Randomized checks of the successor map on the psi-set.

    Covered: the successor identity (if s(a) < s(b) then psi(a-b) =
    s(a)); the jump rule that a derivative of a negative element moved
    n+1 successor gaps up becomes a derivative of a positive element;
    convexity of successor fibers intersected with either derivative
    side (midpoints stay in the fiber and on the side); successor and
    predecessor as level shift and its inverse on the psi-set.
    """
    k1, k2 = sorted(_pick(bits, 0, MAX_SUPPORT + 1, 2))
    a = sample_prefixed(bits, k1)
    b = sample_prefixed(bits, k2)
    sa, sb = gamma.successor(a), gamma.successor(b)
    inputs = (("a", a), ("b", b))
    rec.check(
        sa < sb and gamma.psi(a - b) == sa,
        "successor_identity",
        inputs,
        lambda: f"psi(a-b) = {gamma.psi(a - b)!r}, s(a) = {sa!r}",
    )

    neg = -sample_positive(bits)
    d = gamma.derivative(neg)
    assert isinstance(d, GammaElement)
    gap = gamma.successor(d) - d
    n = 1 + _below(bits, 10)
    lifted = d + gap * (n + 1)
    rec.check(
        gamma.in_negative_derivatives(d)
        and gamma.in_positive_derivatives(lifted),
        "jump_crosses_sides",
        (("d", d), ("n", str(n))),
        "d + (n+1)(s(d)-d) not a derivative of a positive element",
    )

    level = _below(bits, MAX_SUPPORT + 1)
    side = (1, -1)[_below(bits, 2)]
    x = sample_prefixed(bits, level, side=side)
    z = sample_prefixed(bits, level, side=side)
    mid = (x + z) / 2
    fiber = gamma.psi_element(level)
    rec.check(
        gamma.successor(mid) == fiber
        and gamma.in_positive_derivatives(mid) == (side > 0),
        "fiber_midpoint",
        (("x", x), ("z", z)),
        "midpoint left the successor fiber or switched sides",
    )

    j = _below(bits, MAX_SUPPORT + 1)
    pj = gamma.psi_element(j)
    rec.check(
        gamma.successor(pj) == gamma.psi_element(j + 1)
        and gamma.predecessor(gamma.successor(pj)) == pj,
        "successor_levels",
        (("level", str(j)),),
        "successor/predecessor level arithmetic failed on the psi-set",
    )


# --- translated fiber suite (CLI: check lemma41) --------------------------------


def _fiber_trial(rec: _Recorder, bits: Callable[[int], int]) -> None:
    """Fiber geometry around a translation point b.

    Covered: psi-fibers around b are convex on each side of b
    (midpoints of same-side, same-fiber points stay in the fiber);
    successor fibers around b intersected with a derivative side are
    convex; and the successor identity transported by translation.
    """
    b = sample_element(bits)

    k = _below(bits, MAX_SUPPORT + 1)
    sign = (1, -1)[_below(bits, 2)]

    def offset() -> GammaElement:
        num, den = _draw(bits)
        return gamma._from_terms([(k, sign * abs(num), den)] + _sparse_tail(bits, k))

    d1, d2 = offset(), offset()
    x, y = b + d1, b + d2
    z = (x + y) / 2
    fiber = gamma.psi_element(k)
    rec.check(
        gamma.psi(x - b) == fiber
        and gamma.psi(y - b) == fiber
        and gamma.psi(z - b) == fiber,
        "psi_fiber_convex",
        (("b", b), ("x-b", d1), ("y-b", d2)),
        "midpoint left the psi-fiber",
    )

    level = _below(bits, MAX_SUPPORT + 1)
    side = (1, -1)[_below(bits, 2)]
    e1 = sample_prefixed(bits, level, side=side)
    e2 = sample_prefixed(bits, level, side=side)
    u, v = b + e1, b + e2
    mid = (u + v) / 2
    rec.check(
        gamma.successor(mid - b) == gamma.psi_element(level)
        and gamma.in_positive_derivatives(mid - b) == (side > 0),
        "s_fiber_convex",
        (("b", b), ("u-b", e1), ("v-b", e2)),
        "midpoint left the successor fiber or switched sides",
    )

    k1, k2 = sorted(_pick(bits, 0, MAX_SUPPORT + 1, 2))
    f1 = sample_prefixed(bits, k1)
    f2 = sample_prefixed(bits, k2)
    p, q = b + f1, b + f2
    rec.check(
        gamma.successor(p - b) < gamma.successor(q - b)
        and gamma.psi(p - q) == gamma.successor(p - b),
        "translated_successor_identity",
        (("b", b), ("p-b", f1), ("q-b", f2)),
        "psi(p-q) != s(p-b)",
    )


# --- affine image trichotomy (CLI: check lemma44) -------------------------------


class AffineMap(Record):
    """h(a_1..a_m) = sum(q_j * a_j) + c over the extended group.

    ``inf`` absorbs: the value is ``inf`` whenever the constant is or
    any argument with a nonzero coefficient is.  The coefficients are
    kept as a tuple of Fractions.
    """

    __slots__ = ("coefficients", "constant")

    def __init__(self, coefficients: Sequence[Union[int, Fraction]], constant: ExtendedElement) -> None:
        if not all(isinstance(c, (int, Fraction)) for c in coefficients):
            raise TypeError(f"coefficients must be ints or Fractions, got {coefficients!r}")
        self._set_fields(tuple(Fraction(c) for c in coefficients), constant)

    @property
    def arity(self) -> int:
        return len(self.coefficients)

    def apply(self, point: Sequence[ExtendedElement]) -> ExtendedElement:
        if len(point) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(point)}")
        if isinstance(self.constant, Infinity):
            return INF
        acc: ExtendedElement = self.constant
        for q, a in zip(self.coefficients, point):
            if q == 0:
                continue
            if isinstance(a, Infinity):
                return INF
            acc = acc + a * q
        return acc


class ConstInf(Record):
    """The map is identically inf on the family."""

    __slots__ = ()


class ConstPsi(Record):
    """The map is identically the psi-set member of this level."""

    __slots__ = ("level",)


class Projection(Record):
    """The map returns its argument at this coordinate (0-based)."""

    __slots__ = ("coordinate",)


class NotApplicable(Record):
    """Preconditions genuinely fail; no classification is claimed."""

    __slots__ = ("reason",)


Classification = Union[ConstInf, ConstPsi, Projection, NotApplicable]


class TrichotomyFailure(RuntimeError):
    """Hypotheses held but no case matched: an implementation bug.  The message writes an entry or
    value that ``psi_level`` gives a level as ``psi(e<level>)``."""

    def __init__(self, mapping: AffineMap, rows: Sequence[Tuple[ExtendedElement, ...]],
                 values: Tuple[ExtendedElement, ...]):
        def text(v: ExtendedElement) -> str:
            level = gamma.psi_level(v)
            return gamma.format_element(v) if level is None else f"psi(e{level})"
        family = " ".join(f"({', '.join(map(text, row))})" for row in rows)
        super().__init__(
            f"no trichotomy case matched: coefficients {', '.join(map(str, mapping.coefficients))}; "
            f"constant {text(mapping.constant)}; family {family}; values {', '.join(map(text, values))}"
        )


def classify_affine_image(
    mapping: AffineMap,
    family: Sequence[Sequence[ExtendedElement]],
) -> Classification:
    """Classify an affine map that often lands in the psi-set.

    ``family`` is a sequence of arity-length tuples whose entries are
    psi-set members or inf.  Genericity asks that the nonconstant
    coordinates be inf-free and, once identical ones are merged, hold
    pairwise distinct entries.  Under genericity, if the map's value lies
    in the psi-set-or-inf on at least arity + 2 family members, the map
    is identically inf, identically one psi-set member, or a coordinate
    projection on the whole family; the returned classification is
    verified extensionally before being returned.

    An empty family and type-level violations raise ValueError;
    genericity or hit-count shortfalls return NotApplicable; a
    verification miss raises TrichotomyFailure (which would indicate a
    bug, not new math).
    """
    m = mapping.arity
    rows: List[Tuple[ExtendedElement, ...]] = []
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

    columns = list(zip(*rows))
    kept = []  # the nonconstant columns, each once
    for j, column in enumerate(columns):
        if len(set(column)) > 1:
            if INF in column:
                return NotApplicable(f"nonconstant coordinate {j} contains inf")
            if column not in kept:
                kept.append(column)
    entries = set()
    for column in kept:
        for v in column:
            if v in entries:
                return NotApplicable(f"value {v!r} repeats across retained coordinates")
            entries.add(v)

    values = tuple(mapping.apply(row) for row in rows)
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
    for j, column in enumerate(columns):
        if column == values:
            return Projection(j)
    raise TrichotomyFailure(mapping, rows, values)


def _affine_image_trial(rec: _Recorder, bits: Callable[[int], int]) -> None:
    """Randomized trichotomy checking over planted and random maps.

    Each trial builds a generic family over the psi-set plus inf, then
    either plants a projection, a constant psi value, a constant inf,
    or draws a random map; some trials deliberately break genericity.
    The expected classification (or NotApplicable) is known for every
    planted case, and random maps must classify whenever they hit the
    psi-set often enough.
    """
    m = 1 + _below(bits, 4)
    size = m + 2 + _below(bits, 3)
    constant_cols = [j for j in range(m) if _roll(bits) < _ROLL_QUARTER]
    retained_cols = [j for j in range(m) if j not in constant_cols]
    copy_of: Dict[int, int] = {}
    fresh = []
    for pos, j in enumerate(retained_cols):
        if pos > 0 and _roll(bits) < _ROLL_FIFTH:
            copy_of[j] = retained_cols[_below(bits, pos)]
        else:
            fresh.append(j)
    pool = iter(_pick(bits, 0, 80, size * max(1, len(fresh))))
    columns: Dict[int, List[ExtendedElement]] = {}
    for j in constant_cols:
        value: ExtendedElement
        value = INF if _roll(bits) < _ROLL_FIFTH else gamma.psi_element(_below(bits, 81))
        columns[j] = [value] * size
    for j in fresh:
        columns[j] = [gamma.psi_element(next(pool)) for _ in range(size)]
    for j, src in copy_of.items():
        columns[j] = list(columns[src])
    family = [tuple(columns[j][i] for j in range(m)) for i in range(size)]

    kind = ("projection", "const_psi", "const_inf", "random", "broken")[_below(bits, 5)]
    if kind == "projection" and not retained_cols:
        kind = "const_psi"
    if kind == "broken" and not retained_cols:
        kind = "random"

    label = (("m", str(m)), ("size", str(size)), ("kind", kind))
    points = family
    if kind == "projection":
        target = retained_cols[_below(bits, len(retained_cols))]
        mapping = AffineMap(tuple(Fraction(1 if j == target else 0) for j in range(m)), ZERO)
        check, accept = "planted_projection", lambda r: isinstance(r, Projection)
    elif kind == "const_psi":
        level = _below(bits, 81)
        mapping = AffineMap((Fraction(0),) * m, gamma.psi_element(level))
        check, accept = "planted_const_psi", lambda r: r == ConstPsi(level)
    elif kind == "const_inf":
        coeffs = tuple(Fraction(_below(bits, 5) - 2) for _ in range(m))
        mapping = AffineMap(coeffs, INF)
        check, accept = "planted_const_inf", lambda r: isinstance(r, ConstInf)
    elif kind == "broken":
        j = retained_cols[_below(bits, len(retained_cols))]
        rows = [list(row) for row in family]
        if _roll(bits) < _ROLL_HALF:
            rows[_below(bits, size)][j] = INF
            reason = "inf"
        else:
            src = _below(bits, size)
            dst = (src + 1 + _below(bits, size - 1)) % size
            rows[dst][j] = rows[src][j]
            reason = "duplicate"
        mapping = AffineMap(tuple(Fraction(1 if t == j else 0) for t in range(m)), ZERO)
        points = [tuple(r) for r in rows]
        check, accept = f"broken_{reason}", lambda r: isinstance(r, NotApplicable)
    else:
        coeffs = tuple(Fraction(_below(bits, 5) - 2, 1 + _below(bits, 2)) for _ in range(m))
        roll = _roll(bits)
        constant: ExtendedElement
        if roll < _ROLL_QUARTER:
            constant = INF
        elif roll < _ROLL_THREE_FIFTHS:
            constant = gamma.psi_element(_below(bits, 81))
        else:
            constant = sample_element(bits)
        mapping = AffineMap(coeffs, constant)
        check, accept = "random_map", lambda r: isinstance(r, Classification)
    try:
        result = classify_affine_image(mapping, points)
    except TrichotomyFailure as exc:
        rec.check(False, check, label, str(exc))
        return
    rec.check(accept(result), check, label, lambda: f"got {result!r}")
    if kind == "random":
        rec.bump(f"random_{type(result).__name__}")


# --- growth suite (CLI: check subspace-growth) -----------------------------------


def _growth_trial(rec: _Recorder, bits: Callable[[int], int]) -> None:
    """Image growth over random generator extensions.

    Every trial extends a base subspace by fresh generators, takes the psi,
    s and p reports from one ``growth_check`` call, and reads each base
    deficit off its report's bound, the closed-subgroup bound (m, m+1, m)
    plus the deficit that ``growth_check`` computes.  It asserts:

    * psi: the report passes.
    * s: growth <= m + deficit, and the tight m + 1 wherever deficit <= 1;
      the unit-pivot stratum has deficit 0, which keeps that regime
      exercised; the extended s-image has at most dim + 1 levels.
    * p: growth <= m + deficit, and the report passes (the tight m) at
      deficit 0; the psi-spanned stratum has deficit 0.
    """
    dim = _below(bits, 4)
    stratum = ("unit", "sparse", "psi")[_below(bits, 3)]
    if stratum == "unit":
        # e_i + a tail at indices >= dim: the span attains a full successor chain (deficit 0)
        base = [gamma.unit(i) + sample_element(bits, min_index=dim) for i in range(dim)]
    elif stratum == "psi":
        base = [gamma.psi_element(k) for k in _pick(bits, 0, MAX_SUPPORT + 1, dim)]
    else:
        base = [sample_element(bits, nonzero=True) for _ in range(dim)]
    rec.bump(f"base_{stratum}")
    space = echelonize(base)
    extra = [sample_element(bits, nonzero=True) for _ in range(1 + _below(bits, 3))]
    if stratum == "psi" and not _below(bits, 2):  # choice((True, False))
        # feed the p map a fresh psi-set member
        extra.append(gamma.psi_element(_below(bits, MAX_SUPPORT + 1)))
        rec.bump("extension_psi")
    if space.dim and not _below(bits, 2):
        # one generator already inside the base, exercising the m count
        extra.append(space.member([sample_coefficient(bits) for _ in range(space.dim)]))
        rec.bump("extension_inherited")
    inputs = (("base", tuple(base)), ("extra", tuple(extra)))
    psi, s, p = growth_check(space, extra)
    m = psi.new_generator_count
    rec.check(
        psi.passed,
        "growth_psi",
        inputs,
        f"growth {len(psi.added_levels)} exceeds bound {psi.bound}",
    )

    growth = len(s.added_levels)
    deficit = s.bound - m - 1
    rec.bump(f"s_deficit_{deficit if deficit <= 1 else '2plus'}")
    rec.check(
        growth <= m + deficit,
        "growth_s_slack",
        inputs,
        f"growth {growth} exceeds m + deficit = {m} + {deficit}",
    )
    if stratum == "unit":
        rec.check(
            deficit == 0,
            "unit_base_full_chain",
            inputs,
            f"unit-pivot base has s-image deficit {deficit}",
        )
    if deficit <= 1:
        rec.check(
            growth <= m + 1,
            "growth_s",
            inputs,
            f"growth {growth} exceeds bound {m + 1}",
        )
    dim_plus_1 = len(psi.new_levels) + 1  # the psi levels are the extended pivots
    rec.check(
        len(s.new_levels) <= dim_plus_1,
        "s_image_size",
        inputs,
        f"s-image size {len(s.new_levels)} exceeds dim + 1 = {dim_plus_1}",
    )

    growth = len(p.added_levels)
    deficit = p.bound - m
    rec.bump(f"p_deficit_{deficit if deficit <= 1 else '2plus'}")
    rec.check(
        growth <= m + deficit,
        "growth_p_slack",
        inputs,
        f"growth {growth} exceeds m + deficit = {m} + {deficit}",
    )
    if stratum == "psi":
        rec.check(
            deficit == 0,
            "psi_base_saturated",
            inputs,
            f"psi-spanned base has member deficit {deficit}",
        )
    if deficit == 0:
        rec.check(
            p.passed,
            "growth_p",
            inputs,
            f"growth {growth} exceeds bound {p.bound}",
        )


_Trial = Callable[[_Recorder, Callable[[int], int]], None]

_SUITES: Dict[str, _Trial] = {
    "axioms": _axiom_trial,
    "successor": _successor_trial,
    "lemma41": _fiber_trial,
    "lemma44": _affine_image_trial,
    "subspace-growth": _growth_trial,
}


def run_suite(name: str, seed: int, trials: int) -> SuiteReport:
    """The one trial loop: each trial gets its own seeded RNG, and one that raises
    is a failed ``trial_raised`` check whose detail is the exception's type and message."""
    try:
        run_trial = _SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(_SUITES)}") from None
    rec = _Recorder()
    for trial in range(trials):
        rec.trial = trial
        try:
            run_trial(rec, trial_rng(seed, trial).getrandbits)
        except Exception as exc:
            rec.check(False, "trial_raised", (), f"{type(exc).__name__}: {exc}")
    return SuiteReport(
        name, seed, trials, rec.failure_count == 0, rec.failure_count,
        tuple(rec.failures), dict(sorted(rec.counters.items())),
    )


# --- witness construction ---------------------------------------------------------


class WitnessReport(Record):
    """A finite increasing discrete set inside (0, epsilon).

    ``alpha`` is the psi-set member of level ``alpha_level``, with ``0 <
    bound = -2*integrate(alpha) < epsilon``; the ``prefix`` elements are the
    differences of the psi-set members above alpha with alpha itself, which
    increase with strictly positive gaps and all stay below the bound.
    """

    __slots__ = ("epsilon", "alpha_level", "alpha", "bound", "prefix")


# Largest witness prefix: element k has k coordinates, so output grows as count**2.
MAX_WITNESS_COUNT = 1000


def make_witness(epsilon: GammaElement, count: int) -> WitnessReport:
    """Enumerate a discrete increasing subset of (0, epsilon).

    Takes alpha to be the psi-set member one level past epsilon's
    leading index, which makes ``-2*integrate(alpha) = 2*e(level+1)``
    smaller than epsilon; the enumerated elements are partial sums of
    unit vectors past alpha's level, slices of one term tuple.  Every
    invariant is checked in a fixed number of comparisons: the bound by
    ``0 < bound < epsilon``, and the chain by its shape.  The first element
    is one positive term over denominator 1 and each later one adds a
    positive unit term past the one before, so the chain increases, and
    ``prefix[-1] < bound`` and ``alpha + prefix[-1]`` below the ceiling
    cover every element.
    """
    if not isinstance(epsilon, GammaElement):
        raise gamma.DomainError("epsilon must be a group element, not inf")
    if not epsilon > ZERO:
        raise gamma.DomainError("epsilon must be strictly positive")
    if not isinstance(count, int) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    if count > MAX_WITNESS_COUNT:
        raise ValueError(f"count {count} exceeds MAX_WITNESS_COUNT = {MAX_WITNESS_COUNT}")
    level = epsilon._num[0][0] + 1
    alpha = gamma.psi_element(level)
    bound = gamma.integrate(alpha) * -2
    if not (ZERO < bound < epsilon):
        raise RuntimeError("witness bound failed its defining inequality")
    first = gamma.unit(level + 1)
    terms = first._num + tuple((i, 1) for i in range(level + 2, level + count + 1))
    prefix = [gamma._make(terms[:j]) for j in range(1, count + 1)]
    shaped = first._den == 1 and [i for i, _ in first._num] == [level + 1] and ZERO < first
    if not (shaped and prefix[-1] < bound):  # the chain increases, so bisection finds its first escape
        x = prefix[bisect_left(prefix, bound)] if shaped else first
        raise RuntimeError(f"witness element {x!r} escaped (previous, bound)")
    ceiling = alpha + (gamma.successor(alpha) - alpha) * 2
    if not ceiling > alpha + prefix[-1]:
        raise RuntimeError("alpha + 2(s(alpha)-alpha) failed to cap the enumeration")
    return WitnessReport(epsilon, level, alpha, bound, tuple(prefix))

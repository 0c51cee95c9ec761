"""Exact arithmetic for the value group of logarithmic transseries.

The group is the direct sum of countably many copies of Q, one per basis
vector ``e0, e1, e2, ...``, ordered lexicographically: an element is
positive iff its coefficient at the smallest supported index is positive.
Elements are immutable, finitely supported vectors of exact rationals,
stored as int numerators over one common denominator and read as
``fractions.Fraction`` through ``coords`` and ``coefficient()``.

On top of the group live the maps that make it an asymptotic couple:

* ``psi``       sends a nonzero element with leading index n to the vector
                of n+1 ones (sum of e0..en); ``psi(0) = psi(inf) = inf``.
* ``integrate`` inverts asymptotic differentiation: find the least index n
                whose coefficient differs from 1, zero everything below n,
                and decrement the coefficient at n.
* ``derivative`` is ``a + psi(a)``, with ``derivative(0) = inf``.
* ``successor`` / ``predecessor`` walk the psi-set ``{1, 11, 111, ...}``.

The operators are the arithmetic: ``+``, ``-``, and ``*``, ``/`` by an
int or Fraction, with ``+`` for two operands and a running ``Sum`` for many;
the comparisons are the order, with ``inf`` on top.  ``inf`` absorbs every map,
sum, negation and scaling, so partial operations never raise; ``/ 0`` raises
``ZeroDivisionError``, on ``inf`` as on elements.  Where ``inf`` sits and that
it absorbs ``+`` are ``Infinity``'s rules alone: an element's operators return
``NotImplemented`` for it, so Python hands ``x < inf`` to ``inf > x`` and
``x + inf`` to ``inf + x``.  Two elements over one
denominator whose first terms agree are compared first on the shorter term
tuple against the same-length prefix of the longer, one tuple compare that
runs in C: along a chain of partial sums, where each element extends the one
before it, that skips the whole shared prefix.

``format_element`` writes element text and ``format_elements`` a list of
it, formatting only the new terms of an element that extends the previous
one, so along a chain of partial sums each term is formatted once.

``Record`` is the one record type of the package, whose fields cannot be
reassigned: the AST nodes of ``lang`` and the reports of ``harness`` and
``subspace`` list their fields in ``__slots__``.  ``gamma`` holds no JSON
rules: ``cli`` alone writes reports as JSON.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, NoReturn, Optional, Sequence, Tuple, Union

# Exact scalars; a float or any other number is rejected with TypeError.
Rational = Union[int, Fraction]

LT, EQ, GT = -1, 0, 1


class Infinity:
    """Absorbing top element adjoined to the group (singleton ``INF``)."""

    _instance: Optional["Infinity"] = None

    def __new__(cls) -> "Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"

    def __neg__(self) -> "Infinity":
        return self

    def __add__(self, other: object) -> "Infinity":
        return self if isinstance(other, (Infinity, GammaElement)) else NotImplemented

    __radd__ = __add__

    def __mul__(self, q: object) -> "Infinity":
        return self if isinstance(q, (int, Fraction)) else NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, q: object) -> "Infinity":
        return self * Fraction(1, q) if isinstance(q, (int, Fraction)) else NotImplemented

    def __lt__(self, other: object) -> bool:
        return False if isinstance(other, (Infinity, GammaElement)) else NotImplemented

    def __le__(self, other: object) -> bool:
        return other is self if isinstance(other, (Infinity, GammaElement)) else NotImplemented

    def __gt__(self, other: object) -> bool:
        return other is not self if isinstance(other, (Infinity, GammaElement)) else NotImplemented

    def __ge__(self, other: object) -> bool:
        return True if isinstance(other, (Infinity, GammaElement)) else NotImplemented


INF = Infinity()


class DomainError(ValueError):
    """Argument outside an operation's stated domain."""


class GammaElement:
    """A finitely supported rational vector, ordered lexicographically.

    The coordinate list is normalized on construction: duplicate indices
    are summed, zero coefficients dropped, entries sorted by index.
    Instances are immutable and hashable (the hash is cached); ``==`` is
    exact equality.

    Invariant: ``_num`` is a tuple of ``(index, int)`` pairs with strictly
    increasing nonnegative indices and nonzero ints, ``_den`` an int > 0
    with ``gcd(_den, *numerators) == 1``; the coefficient at index i is
    ``Fraction(n, _den)``, which ``coords`` builds on each access.  The
    form is canonical, so ``==`` and the hash compare tuples.
    ``__init__`` establishes it from any input with ``_summed``, as
    ``lang.parse_element`` does for terms out of index order; the private
    ``_make`` stores a form that already satisfies it without checking, and
    is used only by the operations here that preserve it.
    """

    __slots__ = ("_num", "_den", "_hash")

    def __init__(self, coords: Iterable[Tuple[int, Rational]] = ()):
        terms = []
        for index, q in coords:
            _check_index(index)
            if not isinstance(q, (int, Fraction)):
                raise TypeError(f"coefficient must be an int or Fraction, got {q!r}")
            terms.append((index, q.numerator, q.denominator))
        x = _summed(terms)
        _set_num(self, x._num)
        _set_den(self, x._den)
        _set_hash(self, None)

    @classmethod
    def _make(cls, num: Tuple[Tuple[int, int], ...], den: int = 1) -> "GammaElement":
        self = object.__new__(cls)
        _set_num(self, num)
        _set_den(self, den)
        _set_hash(self, None)
        return self

    @property
    def coords(self) -> Tuple[Tuple[int, Fraction], ...]:
        return tuple((i, Fraction(n, self._den)) for i, n in self._num)

    def coefficient(self, index: int) -> Fraction:
        return Fraction(self._at(index), self._den)

    def _at(self, index: int) -> int:  # the numerator over ``_den`` at ``index``
        for i, n in self._num:
            if i == index:
                return n
            if i > index:
                break
        return 0

    def __bool__(self) -> bool:
        return bool(self._num)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GammaElement is immutable")

    def __reduce__(self) -> tuple:  # copy and pickle rebuild an element through _make
        return _make, (self._num, self._den)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GammaElement):
            return self._num == other._num and self._den == other._den
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self._num, self._den))
            _set_hash(self, h)
        return h

    def __add__(self, other: object) -> "GammaElement":
        if isinstance(other, GammaElement):
            return _merge(self, other, 1)
        return NotImplemented

    def __sub__(self, other: object) -> "GammaElement":
        if isinstance(other, GammaElement):
            return _merge(self, other, -1)
        return NotImplemented

    def __neg__(self) -> "GammaElement":
        return _make(tuple((i, -n) for i, n in self._num), self._den)

    def __mul__(self, q: object) -> "GammaElement":
        if not isinstance(q, (int, Fraction)):
            return NotImplemented
        if q == 0:
            return ZERO
        return self._scaled(q.numerator, q.denominator)

    __rmul__ = __mul__

    def __truediv__(self, q: object) -> "GammaElement":
        if not isinstance(q, (int, Fraction)):
            return NotImplemented
        if not q:
            raise ZeroDivisionError("division by zero")
        return self._scaled(q.denominator, q.numerator)

    def _scaled(self, p: int, r: int) -> "GammaElement":
        """``self * p/r`` for nonzero ints: reduce p/r, then two gcds cancel."""
        g = gcd(p, r) if r > 0 else -gcd(p, r)
        p, r = p // g, r // g
        if p == r:  # the factor is 1
            return self
        num, den = self._num, self._den
        g = gcd(p, den)
        h = gcd(r, *[n for _, n in num]) if r != 1 else 1
        p, den, r = p // g, den // g, r // h
        return _make(tuple((i, n // h * p) for i, n in num), den * r)

    def _cmp(self, other: "GammaElement") -> int:
        a, b, da, db = self._num, other._num, self._den, other._den
        # Along a chain of partial sums the shorter term tuple is a prefix of
        # the longer: skip it with one slice compare, which runs in C.  The
        # first-term test keeps elements that differ at once off the slices.
        if not (da == db and a and b and a[0] == b[0] and a[: len(b)] == b[: len(a)]):
            for (ia, na), (ib, nb) in zip(a, b):
                if ia != ib:
                    if ia < ib:
                        return GT if na > 0 else LT
                    return LT if nb > 0 else GT
                if da != db:
                    na, nb = na * db, nb * da
                if na != nb:
                    return GT if na > nb else LT
        n = min(len(a), len(b))
        if len(a) > n:
            return GT if a[n][1] > 0 else LT
        if len(b) > n:
            return LT if b[n][1] > 0 else GT
        return EQ

    def __lt__(self, other: object) -> bool:
        if isinstance(other, GammaElement):
            return self._cmp(other) == LT
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if isinstance(other, GammaElement):
            return self._cmp(other) != GT
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if isinstance(other, GammaElement):
            return self._cmp(other) == GT
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if isinstance(other, GammaElement):
            return self._cmp(other) != LT
        return NotImplemented

    def __repr__(self) -> str:
        return format_element(self)


ExtendedElement = Union[GammaElement, Infinity]

_set_num = GammaElement._num.__set__
_set_den = GammaElement._den.__set__
_set_hash = GammaElement._hash.__set__
_make = GammaElement._make


def _check_index(index: object) -> None:
    if type(index) is not int or index < 0:
        raise ValueError(f"basis index must be a nonnegative int, got {index!r}")


def _reduced(num: Sequence[Tuple[int, int]], den: int) -> GammaElement:
    """The canonical element of nonzero ``(i, n)`` over ``den``, indices increasing:
    the one place that divides out ``gcd(den, *numerators)``."""
    if den != 1:
        g = gcd(den, *[n for _, n in num])
        if g != 1:
            return _make(tuple([(i, n // g) for i, n in num]), den // g)
    return _make(tuple(num), den)


def _from_terms(terms: Sequence[Tuple[int, int, int]]) -> GammaElement:
    """The element ``sum(n/d * e<i>)`` of ``(i, n, d)`` int terms, indices strictly
    increasing and ``n != 0 < d``, with ``n/d`` not necessarily reduced."""
    den = lcm(*[d for _, _, d in terms])
    if den == 1:
        return _make(tuple([(i, n) for i, n, _ in terms]))
    return _reduced([(i, n * (den // d)) for i, n, d in terms], den)


def _summed(terms: Sequence[Tuple[int, int, int]]) -> GammaElement:
    """The element ``sum(n/d * e<i>)`` of ``(i, n, d)`` int terms, ``d > 0``, in
    any order and indices repeating: one numerator per index over the lcm of the d."""
    den = lcm(*[d for _, _, d in terms])
    acc: Dict[int, int] = {}
    for i, n, d in terms:
        acc[i] = acc.get(i, 0) + n * (den // d)
    return _reduced([(i, n) for i, n in sorted(acc.items()) if n], den)


def _monomial(index: int, num: int, den: int) -> GammaElement:
    """The one-term element ``num/den * e<index>`` for ints ``den > 0``, with one gcd."""
    if not num:
        return ZERO
    g = gcd(num, den)
    return _make(((index, num // g),), den // g)


def _merge(x: GammaElement, y: GammaElement, sign: int) -> GammaElement:
    """``x + y`` (``x - y`` if ``sign`` is -1) over the lcm of the denominators."""
    b = y._num
    if not b:
        return x
    a = x._num
    if not a and sign == 1:
        return y
    da, db = x._den, y._den
    g = gcd(da, db)
    fa, fb = db // g, da // g * sign
    den = da * fa
    if fa != 1:
        a = tuple((i, n * fa) for i, n in a)
    if fb != 1:
        b = tuple((i, n * fb) for i, n in b)
    # Disjoint supports: the lcm keeps the form canonical, no gcd needed.
    if not a or a[-1][0] < b[0][0]:
        return _make(a + b, den)
    if b[-1][0] < a[0][0]:
        return _make(b + a, den)
    out = []
    summed = False
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        ia, ib = a[i][0], b[j][0]
        if ia < ib:
            out.append(a[i])
            i += 1
        elif ib < ia:
            out.append(b[j])
            j += 1
        else:
            q = a[i][1] + b[j][1]
            if q:
                out.append((ia, q))
            summed = True
            i += 1
            j += 1
    num = (*out, *a[i:], *b[j:])
    return _reduced(num, den) if summed else _make(num, den)


class Sum:
    """Adds many operands into one int numerator per index over a running
    denominator, raised to the lcm as needed, and keeps none of them: for
    operands that arrive one at a time, where ``_summed`` takes known terms."""

    __slots__ = ("_num", "_den", "_inf")

    def __init__(self) -> None:
        self._num: Dict[int, int] = {}
        self._den = 1
        self._inf = False

    def add(self, x: ExtendedElement, q: Rational = 1) -> None:
        """Add ``q * x``: ``inf`` makes the total ``inf`` unless ``q`` is 0."""
        if not isinstance(q, (int, Fraction)):
            raise TypeError(f"coefficient must be an int or Fraction, got {q!r}")
        if isinstance(x, GammaElement) and q and not self._inf:
            den = x._den * q.denominator
            if self._den % den:
                f = den // gcd(self._den, den)
                self._num = {i: n * f for i, n in self._num.items()}
                self._den *= f
            mul = q.numerator * (self._den // den)
            acc = self._num
            for i, n in x._num:
                acc[i] = acc.get(i, 0) + n * mul
        elif isinstance(x, Infinity):
            self._inf = self._inf or q != 0
        elif not isinstance(x, GammaElement):
            raise TypeError(f"expected a group element or inf, got {x!r}")

    def total(self) -> ExtendedElement:
        """``inf``, or the sum reduced once to canonical form (``ZERO`` for none)."""
        if self._inf:
            return INF
        return _reduced([(i, n) for i, n in sorted(self._num.items()) if n], self._den)


ZERO = GammaElement()


def unit(index: int) -> GammaElement:
    """The basis vector ``e<index>``."""
    _check_index(index)
    return _make(((index, 1),))


# Highest psi-set level built.  Members are stored densely (level n holds
# n+1 coordinates), so this bounds the work and output of psi, successor,
# witness and the subspace images on short input such as ``psi(e200000)``.
MAX_LEVEL = 10000
# Members below this level are built once and shared (at most ~8k pairs);
# all members slice one tuple of ``(i, 1)`` pairs over ``_den`` 1, grown on demand.
_INTERNED_LEVELS = 128
_interned: dict = {}
_ones: tuple = ()


def psi_element(level: int) -> GammaElement:
    """The psi-set member of the given level: the sum of ``e0 .. e<level>``.

    Level 0 is ``e0`` (one 1), level n is a vector of n+1 ones.  The map
    is order-preserving: higher level means longer run of ones, hence a
    strictly larger element.  Levels above ``MAX_LEVEL`` raise
    ``DomainError``; each level below ``_INTERNED_LEVELS`` returns one
    shared object.
    """
    global _ones
    member = _interned.get(level)
    if member is not None:
        return member
    if level < 0:
        raise ValueError(f"psi level must be >= 0, got {level}")
    if level > MAX_LEVEL:
        raise DomainError(f"psi level {level} exceeds MAX_LEVEL = {MAX_LEVEL}")
    if len(_ones) <= level:
        size = min(max(level + 1, 2 * len(_ones)), MAX_LEVEL + 1)
        _ones += tuple((i, 1) for i in range(len(_ones), size))
    member = _make(_ones[: level + 1])
    if level < _INTERNED_LEVELS:
        _interned[level] = member
    return member


def psi_level(x: ExtendedElement) -> Optional[int]:
    """Level n if ``x`` is exactly the vector of n+1 ones, else None."""
    if isinstance(x, Infinity):
        return None
    num = x._num
    n = len(num) - 1
    if _interned.get(n) is x:
        return n
    # Indices strictly increase from 0, so they are 0..n iff the last is n.
    if n < 0 or num[n][0] != n or x._den != 1 or any(q != 1 for _, q in num):
        return None
    return n


def first_non_one_index(a: GammaElement) -> int:
    """Least index whose coefficient differs from 1.

    Always defined: coefficients beyond the support are 0, so the scan
    terminates at ``max(support)+1`` at the latest.
    """
    expected, den = 0, a._den
    for i, n in a._num:
        if i > expected:
            return expected
        if n != den:
            return i
        expected = i + 1
    return expected


def psi(x: ExtendedElement) -> ExtendedElement:
    """Leading-index valuation: n+1 ones for leading index n; inf on 0, inf."""
    if isinstance(x, Infinity) or not x:
        return INF
    return psi_element(x._num[0][0])


def integrate(x: ExtendedElement) -> ExtendedElement:
    """Asymptotic integral: right inverse of ``derivative`` on all of the group.

    Rule: let n be the least index with coefficient != 1; zero every
    coordinate below n, decrement the coordinate at n.  The result's
    leading coefficient is coefficient(n) - 1 != 0, so the integral is
    never zero, and ``derivative(integrate(x)) == x`` for every x.
    """
    if isinstance(x, Infinity):
        return INF
    n = first_non_one_index(x)
    # Below n the coordinates are the ones (numerator den) at indices 0..n-1;
    # dropping them and subtracting den at n keeps gcd(den, *numerators) == 1.
    tail, den = x._num[n:], x._den
    if tail and tail[0][0] == n:
        return _make(((n, tail[0][1] - den),) + tail[1:], den)
    return _make(((n, -den),) + tail, den)


def derivative(x: ExtendedElement) -> ExtendedElement:
    """Asymptotic derivative ``x + psi(x)``; sends 0 and inf to inf."""
    if isinstance(x, Infinity) or not x:
        return INF
    return x + psi_element(x._num[0][0])


def successor(x: ExtendedElement) -> ExtendedElement:
    """The psi-set member ``psi(integrate(x))``.

    Its level is the length of the run of ones that ``x`` starts with,
    i.e. the least index whose coefficient differs from 1.  A psi-set
    member of level n goes to level n+1, ``successor(0)`` is the least
    member ``e0``, and ``successor(2*e0) = e0`` lies below its argument;
    ``successor(inf) = inf``.
    """
    if isinstance(x, Infinity):
        return INF
    return psi_element(first_non_one_index(x))


def predecessor(x: ExtendedElement) -> ExtendedElement:
    """Step down the psi-set; ``inf`` whenever there is nothing below.

    Defined as the psi-set member of level n-1 when ``x`` is the psi-set
    member of level n >= 1; every other input (level 0, non-members,
    ``inf``) yields ``inf``.
    """
    if isinstance(x, Infinity):
        return INF
    level = psi_level(x)
    if level is None or level < 1:
        return INF
    return psi_element(level - 1)


def in_conv_psi(a: GammaElement) -> bool:
    """Membership in the convex hull of the psi-set.

    The hull is the set of elements lying between two psi-set members.
    Criterion: with k the least index whose coefficient differs from 1,
    ``a`` is in the hull iff k >= 1 and coefficient(k) < 1 (below the
    next longer run of ones, at or above ``e0``).
    """
    if not a:
        return False
    k = first_non_one_index(a)
    return k >= 1 and a.coefficient(k) < 1


def in_positive_derivatives(a: GammaElement) -> bool:
    """Is ``a`` the derivative of some positive element?

    ``derivative`` is an order isomorphism from the nonzero elements
    onto the group, with inverse ``integrate``; membership reduces to
    ``integrate(a) > 0``.
    """
    return integrate(a) > ZERO


def in_negative_derivatives(a: GammaElement) -> bool:
    """Is ``a`` the derivative of some negative element?"""
    return integrate(a) < ZERO


# --- text format ------------------------------------------------------------
#
# element  := '0' | 'inf' | ['-'] term (sign term)*
# term     := (rational '*')? 'e<digits>'
# rational := digits ('/' digits)?
# sign     := '+' | '-'
#
# The formatter is canonical: increasing index order, no zero terms,
# coefficient 1 elided, exactly one space around interior signs.  The
# reader is ``lang.parse_element``: it takes its tokens from the term
# language's lexer, so whitespace may separate any two tokens above (but
# not 'e' from its digits), and it accepts terms in any order and sums
# duplicates.


def _terms_text(num: Sequence[Tuple[int, int]], den: int) -> str:
    """The terms ``(i, n)`` over ``den``, each as ``' + '`` or ``' - '`` and its text."""
    chunks = []
    for i, n in num:
        g = gcd(n, den)
        n, d = n // g, den // g
        sign = " + " if n > 0 else " - "
        if d != 1:
            chunks.append(f"{sign}{abs(n)}/{d}*e{i}")
        elif n == 1 or n == -1:
            chunks.append(f"{sign}e{i}")
        else:
            chunks.append(f"{sign}{abs(n)}*e{i}")
    return "".join(chunks)


def format_element(x: ExtendedElement) -> str:
    return format_elements((x,))[0]


def format_elements(xs: Iterable[ExtendedElement]) -> List[str]:
    """``[format_element(x) for x in xs]``, formatting each new term once along a chain.

    When an element's terms extend the previous element's over the same
    denominator, as in a chain of partial sums, its text is the previous
    text followed by the new terms, so a chain of N elements costs N term
    texts, not N**2.
    """
    out = []
    prev_num, prev_den, terms = ZERO._num, ZERO._den, ""
    for x in xs:
        if isinstance(x, Infinity):
            out.append("inf")
            continue
        num, den = x._num, x._den
        n = len(prev_num)
        if den == prev_den and num[:n] == prev_num:
            terms += _terms_text(num[n:], den)
        else:
            terms = _terms_text(num, den)
        prev_num, prev_den = num, den
        if not terms:
            out.append("0")
        elif terms[1] == "+":
            out.append(terms[3:])
        else:
            out.append("-" + terms[3:])
    return out


_set = object.__setattr__  # how Record.__init__ sets its slots past Record.__setattr__


class Record:
    """A record, equal to a record of its own class with equal fields.

    A class lists its fields once, in ``__slots__``, and is built from them
    positionally; a wrong number of them is a TypeError.  A field cannot be
    reassigned, but a dict field (a report's witnesses, growth bundle or
    counters) can change in place, and makes ``hash`` raise TypeError.
    ``==``, ``hash``, ``repr`` (``Name(field=value, ...)``) and the JSON that
    ``cli`` alone writes read the fields in that order.  A class that checks or
    normalizes its fields does so in its own ``__init__``, which then sets them
    with ``self._set_fields`` (one or two fields) or ``Record.__init__``.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # A class of one or two fields sets them through its slot descriptors
        # with the function made here, its _set_fields and, unless it has its
        # own, its __init__: 0.35 µs a record less than the generic loop below.
        super().__init_subclass__()
        if len(cls.__slots__) not in (1, 2):
            return
        setters = [getattr(cls, name).__set__ for name in cls.__slots__]
        if len(setters) == 1:
            (set_a,) = setters

            def __init__(self, a, /):
                set_a(self, a)

        else:
            set_a, set_b = setters

            def __init__(self, a, b, /):
                set_a(self, a)
                set_b(self, b)

        cls._set_fields = __init__
        if "__init__" not in cls.__dict__:
            __init__.__qualname__ = f"{cls.__qualname__}.__init__"  # names the class in a TypeError
            cls.__init__ = __init__

    def __init__(self, *fields: object) -> None:
        names = self.__slots__
        if len(fields) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(fields)}")
        for name, value in zip(names, fields):
            _set(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:  # copy and pickle rebuild a record through __init__
        return type(self), self._fields()

    def __setattr__(self, name: str, value: object) -> NoReturn:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> NoReturn:
        raise AttributeError(f"cannot delete field {name!r}")

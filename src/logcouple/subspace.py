"""Finitely generated Q-subspaces of the value group and their map images.

A subspace is kept in reduced row echelon form over int-over-denominator
elements, as one map from pivot to row in increasing pivot order: pivot
coefficients 1, pivot columns cleared in all other rows.  That map makes
membership a reduction, and ``Subspace.image(function)`` reads the psi-image
off its pivots and the successor- and predecessor-images off one walk:

* ``psi`` of a nonzero member has the level of the least pivot carrying
  a nonzero coordinate, so the image over all nonzero members is exactly
  ``{PsiValue(p) : p pivot}``, with each row its pivot's witness.
* ``successor`` of a member v has level k iff v is 1 at every coordinate
  below k and not 1 at k; level k is attained iff the affine slice
  ``{v in V : v_j = 1 for j < k}`` is nonempty and the k-th coordinate
  functional is not identically 1 on it.  Slices are decreasing in k and
  each attained level either cuts the slice dimension or empties it, so
  at most dim(V)+1 levels occur; candidates live in 0..max_support+1.
  In RREF the slice needs no solving: a member that is 1 below k agrees
  there with the sum of the rows whose pivot is below k, and that sum is
  kept as one running sum.
* ``predecessor`` maps the psi-set members inside V of level >= 1 down
  one level and everything else to inf.  psi_n is inside iff the sum of
  the rows with pivot <= n is psi_n itself, and that sum is the running
  sum above, so the same walk reads both images.

No closure assumptions are made about the subspace.  ``growth_check``
extends it once and judges the psi, s and p growth together, each
against the bound for subgroups closed under the successor map plus the
base's deficit, a bound that holds for every span.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Sequence, Tuple

from . import gamma
from .gamma import ZERO, GammaElement, Record


class ImageReport(Record):
    """Image of a unary map over a subspace, with one witness per level, in level order."""

    __slots__ = ("function", "levels", "witnesses")


class GrowthReport(Record):
    """Image growth under a generator extension, checked against a bound.

    ``counterexample`` is None when the growth stays within the bound for
    closed subgroups, and otherwise a bundle of values: the old basis, the
    new generators and the extended basis as element tuples, and the
    witnesses of the added levels as ``{level: element}``.
    """

    __slots__ = (
        "function", "old_levels", "new_levels", "added_levels", "new_generator_count", "bound", "passed",
        "counterexample",
    )


class Subspace:
    """A finitely generated subspace in reduced row echelon form."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Dict[int, GammaElement]):
        # pivot -> row, in increasing pivot order, already in RREF; use echelonize().
        self._rows = rows

    @property
    def basis(self) -> Tuple[GammaElement, ...]:
        return tuple(self._rows.values())

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def max_support(self) -> int:
        """Largest basis index touched; -1 for the zero subspace."""
        return max((row._num[-1][0] for row in self._rows.values()), default=-1)

    def reduce(self, x: GammaElement) -> GammaElement:
        """Residue of x after subtracting its projection onto the rows."""
        return _reduce(self._rows, x)

    def contains(self, x: GammaElement) -> bool:
        return not self.reduce(x)

    def member(self, coefficients: Sequence[Fraction]) -> GammaElement:
        """The combination sum(coefficients[i] * basis[i])."""
        if len(coefficients) != len(self._rows):
            raise ValueError("one coefficient per basis row required")
        acc = gamma.Sum()
        for c, row in zip(coefficients, self._rows.values()):
            acc.add(row, c)
        return acc.total()

    # --- images ---------------------------------------------------------

    def image(self, function: str) -> ImageReport:
        """The psi, s or p image over the members, one witness per level."""
        if function == "psi":
            return ImageReport("psi", tuple(self._rows), dict(self._rows))
        if function in ("s", "p"):
            return self._walk()[function == "p"]
        raise ValueError(f"unknown image function {function!r}")

    def _walk(self) -> Tuple[ImageReport, ImageReport]:
        """The s and p images from one walk over the echelon rows.

        A member that is 1 at every coordinate below k has coefficient 1 on
        each row with pivot below k, and the other rows vanish there.  So
        the slice is read off one running sum, ``below``, of the rows with
        pivot below k.  It is nonempty iff ``below`` is 1 below k.  On it,
        coordinate k is free when k is a pivot, where ``below`` is 0, and
        the constant ``below[k]`` otherwise.  ``below`` is the s witness.

        While the walk runs, ``below`` is 1 below k.  At k = n+1, psi_n minus
        ``below`` is a combination of the rows with pivot > n that is 0 at
        their pivots: psi_n (p level n-1) is inside iff ``below`` ends at n.
        """
        s: Dict[int, GammaElement] = {}
        p: Dict[int, GammaElement] = {}
        below = ZERO
        for k in range(self.max_support + 2):
            if k >= 2 and below._num[-1][0] == k - 1:
                p[k - 2] = below
            # below is 1 at 0..k-1, so its coordinate at k, if any, is _num[k]
            if below._num[k : k + 1] != ((k, below._den),):
                if gamma.successor(below) != gamma.psi_element(k):
                    raise RuntimeError(f"successor image witness failed at level {k}: {below!r}")
                s[k] = below
                if k not in self._rows:
                    break  # no member is 1 at k, so every later slice is empty
                below = below + self._rows[k]
        return ImageReport("s", tuple(s), s), ImageReport("p", tuple(p), p)


def _reduce(rows: Dict[int, GammaElement], x: GammaElement) -> GammaElement:
    """``x`` minus ``x_i * rows[i]`` for each pivot ``i`` in the support of ``x``, as one
    ``gamma._summed`` of the terms of ``x`` and of every ``-x_i * rows[i]``.  That is exact:
    an RREF row is 0 at every other pivot, so each ``x_i`` is read off ``x`` itself.  ``x``
    is returned as it is when its support meets no pivot."""
    if not isinstance(x, GammaElement):
        raise TypeError(f"expected a group element, got {x!r}")
    den = x._den
    terms = []
    for i, n in x._num:
        row = rows.get(i)
        if row is not None:
            terms += [(j, -n * m, den * row._den) for j, m in row._num]
    return gamma._summed([(i, n, den) for i, n in x._num] + terms) if terms else x


def _extend(rows: Dict[int, GammaElement], generators: Iterable[GammaElement]) -> Subspace:
    """RREF of the span of ``rows``, themselves in RREF, and the generators."""
    rows = dict(rows)
    for gen in generators:
        gen = _reduce(rows, gen)
        if not gen:
            continue
        lead_index, lead = gen._num[0]
        gen = gen._scaled(gen._den, lead)
        for i, row in rows.items():
            n = row._at(lead_index)
            if n:
                rows[i] = row - gen._scaled(n, row._den)
        rows[lead_index] = gen
    return Subspace(dict(sorted(rows.items())))


def echelonize(generators: Iterable[GammaElement]) -> Subspace:
    """Reduced row echelon form of the span of the generators.

    Deterministic: the RREF basis is a canonical form of the subspace,
    independent of generator order and redundancy.
    """
    return _extend({}, generators)


def growth_check(
    space: Subspace, new_generators: Sequence[GammaElement]
) -> Tuple[GrowthReport, GrowthReport, GrowthReport]:
    """Image growth of psi, s and p when extending a subspace by new generators.

    Reduces each new generator once: m counts those outside the base,
    and their residues extend the base's echelon form.  Returns the
    (psi, s, p) reports; no new generator gives m = 0, no added level,
    and three passing reports.  Each bound is the one for subgroups closed
    under the successor map (m, m+1, m) plus the base's deficit, and
    each is a theorem for finite-dimensional spans:

    * psi: no deficit.  Image levels are pivot levels, so
      ``len(psi.new_levels)`` is the extended dimension, and rank grows
      by at most m.
    * s: deficit = dim + 1 - |s-image(base)|, how early the base's
      unit-prefix chain stalls.  The base's image lies in the extended
      one, which has at most dim + m + 1 levels.
    * p: deficit = dim - the psi-set members in the base (``e0``
      counted).  The members are independent, and each member of the
      base stays one of the extension.

    A base spanned by psi-set members has both deficits 0.  Growth past
    the closed-subgroup bound (a base of differences of psi-set members
    completed by one generator) passes with a counterexample bundle,
    which holds elements: the CLI renders it.
    """
    residues = [r for r in map(space.reduce, new_generators) if r]
    m = len(residues)
    extended = _extend(space._rows, residues)
    old_s, old_p = space._walk()
    s_deficit = space.dim + 1 - len(old_s.levels)
    p_deficit = space.dim - len(old_p.levels) - space.contains(gamma.unit(0))  # e0 is the member psi_0
    reports = []
    images = zip((space.image("psi"), old_s, old_p), (extended.image("psi"), *extended._walk()))
    for (old, new), closed_bound, deficit in zip(images, (m, m + 1, m), (0, s_deficit, p_deficit)):
        added = tuple(sorted(set(new.levels) - set(old.levels)))
        counterexample = None
        if len(added) > closed_bound:
            counterexample = {
                "old_basis": space.basis,
                "new_generators": tuple(new_generators),
                "extended_basis": extended.basis,
                "witnesses": {level: new.witnesses[level] for level in added},
            }
        bound = closed_bound + deficit
        reports.append(
            GrowthReport(old.function, old.levels, new.levels, added, m, bound, len(added) <= bound, counterexample)
        )
    return reports[0], reports[1], reports[2]

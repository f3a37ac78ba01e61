"""Roots and factorization of one-variable max-plus polynomials.

The evaluation function of a univariate tropical polynomial is piecewise
linear; its corners are the roots.  They are read off the Newton polygon:
the upper concave hull of the points (exponent, coefficient).  Each hull
edge of slope -r contributes the root r with multiplicity equal to the
edge's lattice width, so the multiplicities sum to degree minus
valuation.  A positive valuation means the bottom element is a root too;
it is reported separately because it has no finite value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .canon import canonicalize, divide
from .errors import DomainError, UsageError
from .geometry import upper_chain
from .polynomial import Polynomial
from .semifield import BOTTOM, MAXPLUS


@dataclass(frozen=True)
class RootMultiset:
    """Finite roots sorted strictly decreasing, plus the multiplicity of
    the bottom root (the generator's valuation)."""

    roots: tuple
    bottom_multiplicity: int

    def total_multiplicity(self):
        return sum(m for _, m in self.roots) + self.bottom_multiplicity

    def finite_roots(self):
        return [r for r, _ in self.roots]


def _require_univariate(poly):
    if poly.semifield is not MAXPLUS:
        raise UsageError("root theory requires the max-plus rationals")
    if poly.arity != 1:
        raise UsageError(f"expected one variable, got arity {poly.arity}")
    if poly.is_zero:
        raise DomainError("the zero polynomial has no root data")


def newton_polygon(poly):
    """Vertices of the upper concave hull of (exponent, coefficient),
    ascending in the exponent."""
    _require_univariate(poly)
    return upper_chain(sorted((e[0], c) for e, c in poly.terms.items()))


def roots(poly):
    """All tropical roots with multiplicities.

    Finite roots are the negated slopes of the Newton polygon's edges;
    multiplicity is the edge width.  At most deg(P) roots result.
    """
    hull = newton_polygon(poly)
    finite = []
    for (i, ci), (j, cj) in zip(hull, hull[1:]):
        finite.append(((ci - cj) / Fraction(j - i), j - i))
    finite.reverse()  # slopes decrease along the hull, so this sorts roots descending
    valuation = hull[0][0]
    return RootMultiset(tuple(finite), valuation)


def factor(poly):
    """Leading coefficient and root multiset of the canonical form.

    The product of the leading coefficient, x**valuation and the linear
    factors (x + root) expands to the maximal representative exactly.
    """
    _require_univariate(poly)
    top = max(e[0] for e in poly.terms)
    return poly.terms[(top,)], roots(poly)


def expand_factorization(leading, multiset):
    """Multiply the factorization back out (an independent convolution
    path, used to cross-check roots against the envelope)."""
    result = Polynomial.constant(1, leading)
    if multiset.bottom_multiplicity:
        result = result * Polynomial.monomial(1, (multiset.bottom_multiplicity,), 0)
    for root, mult in multiset.roots:
        result = result * (
            Polynomial(1, {(1,): Fraction(0), (0,): root}) ** mult
        )
    return result


def adjoin_nth_root(value, n):
    """The exact n-th root of a nonzero max-plus value: division by n in
    the rationals.  The result is a root of x**n + value."""
    if n < 1:
        raise UsageError("n must be at least 1")
    if value is BOTTOM:
        raise DomainError("the zero element has no adjoined root")
    return MAXPLUS.coerce(value) / n


def root_ideal_member(poly, x):
    """Whether poly lies in the ideal generated by (X + x) in the
    simplifiable envelope, decided by exact division.  Agrees with the
    tropical zero test at x."""
    _require_univariate(poly)
    if x is BOTTOM:
        raise DomainError("membership at bottom is a valuation question")
    x = MAXPLUS.coerce(x)
    linear = Polynomial(1, {(1,): Fraction(0), (0,): x})
    return divide(canonicalize(poly), canonicalize(linear)) is not None

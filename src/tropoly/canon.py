"""Canonical forms of rational polynomials over the max-plus rationals.

Two polynomials define the same rational polynomial (the same function,
the same element of the fraction semifield) exactly when they have the
same concave envelope: the upper hull of their exponent support lifted by
the coefficients.  A canonical class is identified by its extremal
monomials -- the terms that are strictly dominant somewhere, i.e. the
vertices of that upper hull (`geometry.upper_vertices`) -- and caches
their witness points, computed on first access, and the
envelope-saturated maximal representative.

Division is residuation: the greatest coefficientwise solution of
Q * R <= P is computed on saturated representatives and accepted exactly
when the product reproduces P's envelope.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import DomainError, UsageError
from .geometry import (
    AffineForm,
    Constraint,
    InequalitySystem,
    Polytope,
    hull_facets,
    is_strictly_feasible,
    upper_chain,
    upper_vertices,
)
from .polynomial import Polynomial
from .semifield import MAXPLUS


def monomial_versus_constraints(alpha, c_alpha, opponents, strict=True):
    """Constraints on y expressing that the monomial (alpha, c_alpha)
    beats every monomial in `opponents` (strictly, by default).  An
    opponent at the same exponent degenerates to a constant comparison."""
    rel = ">" if strict else ">="
    constraints = []
    for beta, c_beta in sorted(opponents.items()):
        coeffs = tuple(Fraction(a - b) for a, b in zip(alpha, beta))
        form = AffineForm(coeffs, Fraction(c_alpha - c_beta))
        constraints.append(Constraint(form, rel))
    return constraints


def _dominance_system(terms, alpha, strict=True):
    """Constraints on y for monomial alpha beating every other monomial of
    the same polynomial."""
    opponents = {b: c for b, c in terms.items() if b != alpha}
    return InequalitySystem(
        len(alpha), monomial_versus_constraints(alpha, terms[alpha], opponents, strict)
    )


def extremal_monomials(poly):
    """The terms of a max-plus polynomial whose strict dominance region is
    non-empty, each with an exact interior witness point.

    Returns {exponent: (coefficient, witness)}.  Raises on the zero
    polynomial, whose class is represented separately.
    """
    if poly.semifield is not MAXPLUS:
        raise UsageError("canonical forms require the max-plus rationals")
    if poly.is_zero:
        raise DomainError("zero has no canonical form")
    extremal = _extremal_terms(poly.terms)
    witnesses = _witnesses(extremal)
    return {e: (c, witnesses[e]) for e, c in extremal.items()}


def _extremal_terms(terms):
    """{exponent: coefficient} of the vertices of the lift's upper hull."""
    return {e: terms[e] for e in upper_vertices(terms)}


def _witnesses(extremal):
    """A strict-dominance witness point for each extremal term, from one
    FM run against the other extremal terms.  The remaining terms lie on
    or below the upper hull, so they change no strict dominance region
    and no witness."""
    return {
        alpha: is_strictly_feasible(_dominance_system(extremal, alpha))[1]
        for alpha in extremal
    }


class _Envelope:
    """Exact evaluator for the concave envelope of a lifted point set.

    Built once: the Newton polytope in facet form over its affine hull
    (`geometry.Polytope`), and the affine functions on the hull's chart
    that pass through lifted points and dominate every lifted point (the
    upper facets of the lift).  By linear programming duality the
    envelope is their pointwise minimum on the polytope, so a query is a
    chart read, the facet check and one minimum, in integers over one
    common denominator (one division per query instead of a Fraction
    reduction per product).  In hull dimension one the functions are the
    segments of `geometry.upper_chain`; above it they are the upper
    facets that `geometry.hull_facets` finds among the (k+1)-subsets of
    lifted points.
    """

    def __init__(self, lift):
        self.hull = Polytope(lift)
        lifted = [(self.hull.chart(e), v) for e, v in lift.items()]
        planes = _dominating_planes(lifted, self.hull.hull_dim)
        self._denominator = math.lcm(*(x.denominator for g, h in planes for x in g + (h,)))
        self._planes = [
            (tuple(int(x * self._denominator) for x in g), int(h * self._denominator))
            for g, h in planes
        ]

    def _top(self, s):
        top = min(sum(g * x for g, x in zip(gs, s)) + h for gs, h in self._planes)
        return Fraction(top, self._denominator)

    def contains(self, gamma):
        return self.hull.contains(gamma)

    def value(self, gamma):
        """Envelope value at gamma, or None outside the Newton polytope."""
        s = self.hull.chart(gamma)
        if s is None or not self.hull.inside(s):
            return None
        return self._top(s)

    def bounding_box(self):
        return self.hull.bounding_box()

    def lattice(self):
        """{exponent: envelope value} over the integer exponent vectors
        inside the Newton polytope, in ascending order, from one scan."""
        return {gamma: self._top(s) for gamma, s in self.hull.lattice()}

    def scaled(self, k):
        """Envelope of the k-th power: exponents and values scale by k, so
        every constant term does."""
        if k == 1:
            return self
        env = object.__new__(_Envelope)
        env.hull = self.hull.scaled(k)
        env._denominator = self._denominator
        env._planes = [(gs, h * k) for gs, h in self._planes]
        return env


def _dominating_planes(lifted, k):
    """Affine functions (g, h), s -> g.s + h, through lifted points of a
    k-dimensional chart that dominate every lifted point; their pointwise
    minimum is the concave envelope."""
    if k == 1:
        chain = upper_chain(sorted((s[0], v) for s, v in lifted))
        planes = []
        for (t0, v0), (t1, v1) in zip(chain, chain[1:]):
            g = (v1 - v0) / (t1 - t0)
            planes.append(((g,), v0 - g * t0))
        return planes
    # the upper facets n.s + m*(scale*v) + c >= 0, m < 0, of the lift
    # with heights scaled to integers: v <= (n.s + c) / (-m*scale)
    scale = math.lcm(*(v.denominator for _, v in lifted))
    planes = []
    for normal, c in hull_facets([s + (int(v * scale),) for s, v in lifted]):
        d = -normal[k] * scale
        if d > 0:
            planes.append((tuple(Fraction(a, d) for a in normal[:k]), Fraction(c, d)))
    return planes


class RationalPolynomial:
    """A canonical class of max-plus polynomials.

    Identity is the extremal-term map (the minimal representative); the
    maximal representative fills every lattice point of the Newton
    polytope with its envelope value.  Both, and the witnesses, are
    computed on demand from the stored representative and cached.
    """

    __slots__ = ("arity", "_rep", "_extremal", "_witnesses", "_env", "_maxrep")

    def __init__(self, representative):
        if representative.semifield is not MAXPLUS:
            raise UsageError("canonical forms require the max-plus rationals")
        self.arity = representative.arity
        self._rep = representative
        self._extremal = None
        self._witnesses = None
        self._env = None
        self._maxrep = None

    @property
    def is_zero(self):
        return self._rep.is_zero

    @property
    def extremal_terms(self):
        if self._extremal is None:
            self._extremal = _extremal_terms(self._rep.terms)
        return self._extremal

    @property
    def witnesses(self):
        """A strict-dominance witness point for each extremal term,
        computed on first access."""
        if self._witnesses is None:
            self._witnesses = _witnesses(self.extremal_terms)
        return self._witnesses

    def envelope(self):
        if self._env is None:
            if self.is_zero:
                raise DomainError("zero has no envelope")
            self._env = _Envelope(self.extremal_terms)
        return self._env

    def min_representative(self):
        return Polynomial(self.arity, self.extremal_terms)

    def max_representative(self):
        if self._maxrep is None:
            if self.is_zero:
                self._maxrep = Polynomial.zero(self.arity)
            else:
                self._maxrep = Polynomial(self.arity, self.envelope().lattice())
        return self._maxrep

    def envelope_at(self, gamma):
        """Envelope value at an exponent vector inside the Newton polytope."""
        if self.is_zero:
            raise DomainError("zero has no envelope")
        value = self.envelope().value(tuple(gamma))
        if value is None:
            raise DomainError("outside Newton polytope")
        return value

    def newton_vertices(self):
        """Exponents of the extremal terms (they span the Newton polytope)."""
        return sorted(self.extremal_terms)

    def __eq__(self, other):
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.arity == other.arity and self.extremal_terms == other.extremal_terms

    def __hash__(self):
        return hash((self.arity, frozenset(self.extremal_terms.items())))

    def __add__(self, other):
        return rat_add(self, other)

    def __mul__(self, other):
        return rat_mul(self, other)

    def __pow__(self, k):
        return rat_pow(self, k)

    def __repr__(self):
        if self.is_zero:
            return "RationalPolynomial(-inf)"
        return f"RationalPolynomial({self.min_representative()!s})"


def canonicalize(poly):
    """Canonical class of a max-plus polynomial; zero maps to the zero class."""
    return RationalPolynomial(poly)


def envelope_value(poly, gamma):
    """Concave-envelope value of a raw polynomial's lift at an exponent
    vector; errors outside the Newton polytope."""
    if poly.is_zero:
        raise DomainError("zero has no envelope")
    if poly.semifield is not MAXPLUS:
        raise UsageError("envelopes require the max-plus rationals")
    gamma = tuple(gamma)
    if len(gamma) != poly.arity:
        raise UsageError("exponent vector length mismatch")
    value = _Envelope(poly.terms).value(gamma)
    if value is None:
        raise DomainError("outside Newton polytope")
    return value


def _check_pair(r, s):
    if not isinstance(r, RationalPolynomial) or not isinstance(s, RationalPolynomial):
        raise UsageError("expected RationalPolynomial operands")
    if r.arity != s.arity:
        raise UsageError(f"arity mismatch: {r.arity} vs {s.arity}")


def rat_add(r, s):
    _check_pair(r, s)
    return canonicalize(r._rep + s._rep)


def rat_mul(r, s):
    _check_pair(r, s)
    if r.is_zero or s.is_zero:
        return canonicalize(Polynomial.zero(r.arity))
    return canonicalize(r.min_representative() * s.min_representative())


def rat_pow(r, k):
    """k-th power of a canonical class.

    The envelope of the power is the power's scaling of the envelope, so
    the extremal terms are exactly the k-scaled extremal terms; no
    convolution is needed.
    """
    if k < 0:
        raise UsageError("powers must be natural numbers")
    if k == 0:
        return canonicalize(Polynomial.constant(r.arity, Fraction(0)))
    if r.is_zero:
        return r
    if k == 1:
        return r
    scaled_terms = {
        tuple(k * x for x in e): c * k for e, c in r.extremal_terms.items()
    }
    result = RationalPolynomial(Polynomial(r.arity, scaled_terms))
    result._extremal = scaled_terms
    # the rows of the power are k times the rows of r: the same witnesses
    if r._witnesses is not None:
        result._witnesses = {
            tuple(k * x for x in e): w for e, w in r._witnesses.items()
        }
    if r._env is not None:
        result._env = r._env.scaled(k)
    return result


def rat_equal(r, s):
    """Equality of canonical classes, with a separating point on failure.

    The witness comes from a monomial of one class that strictly beats
    every monomial of the other somewhere; at that point the two
    functions take different values.
    """
    _check_pair(r, s)
    if r.extremal_terms == s.extremal_terms:
        return True, None
    if r.is_zero or s.is_zero:
        nonzero = s if r.is_zero else r
        # any strict-dominance witness evaluates the nonzero side to a finite
        # value while the zero class stays at bottom
        alpha = nonzero.newton_vertices()[0]
        return False, nonzero.witnesses[alpha]
    for first, second in ((r, s), (s, r)):
        opponents = second.extremal_terms
        for alpha, c_alpha in sorted(first.extremal_terms.items()):
            system = InequalitySystem(
                r.arity, monomial_versus_constraints(alpha, c_alpha, opponents)
            )
            feasible, witness = is_strictly_feasible(system)
            if feasible:
                return False, witness
    raise AssertionError("distinct extremal maps define equal functions")


def power_cancel(r, s, m):
    """Whether the m-th powers coincide; equivalent to equality itself."""
    if m < 1:
        raise UsageError("m must be at least 1")
    return rat_equal(rat_pow(r, m), rat_pow(s, m))[0]


def divide(num, den):
    """Exact division in the simplifiable envelope: the class R with
    den * R = num, or None when num is not a multiple of den.

    The candidate is the residuation of saturated representatives: on
    each feasible exponent shift, the greatest coefficient keeping the
    product below num's envelope.  Acceptance is checked at num's
    extremal terms; by concavity this pins the whole envelope.
    """
    _check_pair(num, den)
    if den.is_zero:
        raise DomainError("division by the zero class")
    if num.is_zero:
        return canonicalize(Polynomial.zero(num.arity))
    env_num = num.envelope()
    env_den = den.envelope()
    den_vertices = den.newton_vertices()
    den_values = env_den.lattice()
    den_lattice = list(den_values)
    rhat = {}

    def residual(beta):
        if beta in rhat:
            return rhat[beta]
        value = None
        if all(b >= 0 for b in beta):
            if all(
                env_num.contains(tuple(b + v for b, v in zip(beta, vertex)))
                for vertex in den_vertices
            ):
                value = min(
                    env_num.value(tuple(a + b for a, b in zip(alpha, beta)))
                    - den_values[alpha]
                    for alpha in den_lattice
                )
        rhat[beta] = value
        return value

    for gamma, coeff in sorted(num.extremal_terms.items()):
        attained = False
        for alpha in den_lattice:
            beta = tuple(g - a for g, a in zip(gamma, alpha))
            r = residual(beta)
            if r is not None and den_values[alpha] + r == coeff:
                attained = True
                break
        if not attained:
            return None
    mins_n, maxs_n = env_num.bounding_box()
    mins_d, maxs_d = env_den.bounding_box()
    ranges = [
        range(max(0, lo_n - lo_d), hi_n - hi_d + 1)
        for lo_n, hi_n, lo_d, hi_d in zip(mins_n, maxs_n, mins_d, maxs_d)
    ]
    terms = {}
    for beta in itertools.product(*ranges):
        r = residual(beta)
        if r is not None:
            terms[beta] = r
    cofactor_rep = Polynomial(num.arity, terms)
    cofactor = RationalPolynomial(cofactor_rep)
    # the residuation of saturated representatives is itself saturated
    cofactor._maxrep = cofactor_rep
    return cofactor


def divides_power(den, base, k_max=64):
    """Smallest k <= k_max such that den divides base**k, with the
    cofactor; None when the bound is exhausted."""
    _check_pair(den, base)
    if den.is_zero or base.is_zero:
        raise DomainError("power divisibility needs nonzero classes")
    if k_max < 1:
        raise UsageError("k_max must be at least 1")
    for k in range(1, k_max + 1):
        cofactor = divide(rat_pow(base, k), den)
        if cofactor is not None:
            return k, cofactor
    return None

"""Canonical forms of rational polynomials over the max-plus rationals.

Two polynomials define the same rational polynomial (the same function,
the same element of the fraction semifield) exactly when they have the
same concave envelope: the upper hull of their exponent support lifted by
the coefficients.  A canonical class is identified by its extremal
monomials -- the terms that are strictly dominant somewhere -- and caches
the envelope-saturated maximal representative.

Division is residuation: the greatest coefficientwise solution of
Q * R <= P is computed on saturated representatives and accepted exactly
when the product reproduces P's envelope.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import DomainError, UsageError
from .geometry import (
    AffineForm,
    Constraint,
    InequalitySystem,
    is_strictly_feasible,
    matrix_rank,
    solve_unique,
    upper_chain,
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
    out = {}
    for alpha in sorted(poly.terms):
        feasible, witness = is_strictly_feasible(_dominance_system(poly.terms, alpha))
        if feasible:
            out[alpha] = (poly.terms[alpha], witness)
    return out


class _Envelope:
    """Exact evaluator for the concave envelope of a lifted point set.

    The lift lives over the affine hull of the exponents; queries reduce
    to coordinates on that hull.  Hull dimension 0 and 1 use interval
    interpolation along `geometry.upper_chain`, dimension 2 uses the
    dominating planes spanned by point triples, and higher dimensions
    fall back to the barycentric linear program.  Every exact solve and
    rank goes through `geometry.solve_unique` and `geometry.matrix_rank`.
    """

    def __init__(self, lift, arity):
        self.arity = arity
        self.lift = dict(lift)
        self.points = sorted(self.lift.items())
        exps = [p for p, _ in self.points]
        self.origin = exps[0]
        basis = []
        for e in exps[1:]:
            d = tuple(Fraction(a - b) for a, b in zip(e, self.origin))
            if matrix_rank(basis + [d]) > len(basis):
                basis.append(d)
        self.basis = basis
        self.hull_dim = len(basis)
        self._lp_cache = {}
        if self.hull_dim == 1:
            pts = sorted(
                (self._reduce(e)[0], v) for e, v in self.points
            )
            self._chain = upper_chain(pts)
        elif self.hull_dim == 2:
            red = [(self._reduce(e), v) for e, v in self.points]
            self._planes = _dominating_planes(red)
            self._edges = _hull_edge_forms([p for p, _ in red])

    def _reduce(self, gamma):
        """Coordinates of gamma on the affine hull, or None if off it."""
        delta = tuple(Fraction(a - b) for a, b in zip(gamma, self.origin))
        k = self.hull_dim
        if k == 0:
            return () if all(x == 0 for x in delta) else None
        equations = [
            (tuple(b[i] for b in self.basis), -delta[i]) for i in range(self.arity)
        ]
        # arity equations in k unknowns: None when gamma is off the hull
        return solve_unique(equations, k)

    def contains(self, gamma):
        return self.value(gamma) is not None

    def value(self, gamma):
        """Envelope value at gamma, or None outside the Newton polytope."""
        gamma = tuple(gamma)
        if self.hull_dim == 0:
            return self.points[0][1] if gamma == self.origin else None
        coords = self._reduce(gamma)
        if coords is None:
            return None
        if self.hull_dim == 1:
            return _chain_value(self._chain, coords[0])
        if self.hull_dim == 2:
            for a, b, c in self._edges:
                if a * coords[0] + b * coords[1] + c < 0:
                    return None
            return min(g1 * coords[0] + g2 * coords[1] + h for g1, g2, h in self._planes)
        return self._lp_value(gamma)

    def _lp_value(self, gamma):
        """Barycentric program for hull dimension three and up.

        Maximize the lifted values over convex weights hitting gamma.
        The region is a polytope inside the weight simplex, so the
        optimum sits at a basic solution: a weight vector supported on at
        most rank-many points.  Enumerating those supports decides
        membership and the optimum in one pass.
        """
        if gamma in self._lp_cache:
            return self._lp_cache[gamma]
        exps = [e for e, _ in self.points]
        vals = [v for _, v in self.points]
        rows = [
            tuple(Fraction(e[j]) for e in exps) + (Fraction(gamma[j]),)
            for j in range(self.arity)
        ]
        rows.append((Fraction(1),) * len(exps) + (Fraction(1),))
        rank = matrix_rank(rows)
        best = None
        for support in itertools.combinations(range(len(exps)), rank):
            equations = [
                (tuple(row[i] for i in support), -row[-1]) for row in rows
            ]
            weights = solve_unique(equations, rank)
            if weights is None or any(w < 0 for w in weights):
                continue
            value = sum(w * vals[i] for w, i in zip(weights, support))
            if best is None or value > best:
                best = value
        self._lp_cache[gamma] = best
        return best

    def bounding_box(self):
        exps = [e for e, _ in self.points]
        mins = tuple(min(e[i] for e in exps) for i in range(self.arity))
        maxs = tuple(max(e[i] for e in exps) for i in range(self.arity))
        return mins, maxs

    def lattice(self):
        """All integer exponent vectors inside the Newton polytope."""
        mins, maxs = self.bounding_box()
        out = []
        for candidate in itertools.product(
            *(range(lo, hi + 1) for lo, hi in zip(mins, maxs))
        ):
            if self.contains(candidate):
                out.append(candidate)
        return out

    def scaled(self, k):
        """Envelope of the k-th power: exponents and values scale by k."""
        if k == 1:
            return self
        env = object.__new__(_Envelope)
        env.arity = self.arity
        env.lift = {
            tuple(k * x for x in e): v * k for e, v in self.lift.items()
        }
        env.points = sorted(env.lift.items())
        env.origin = tuple(k * x for x in self.origin)
        env.basis = self.basis
        env.hull_dim = self.hull_dim
        env._lp_cache = {}
        if self.hull_dim == 1:
            env._chain = [(t * k, v * k) for t, v in self._chain]
        elif self.hull_dim == 2:
            env._planes = [(g1, g2, h * k) for g1, g2, h in self._planes]
            env._edges = [(a, b, c * k) for a, b, c in self._edges]
        return env


def _chain_value(chain, t):
    if t < chain[0][0] or t > chain[-1][0]:
        return None
    for (t0, v0), (t1, v1) in zip(chain, chain[1:]):
        if t0 <= t <= t1:
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    return chain[-1][1] if t == chain[-1][0] else None


def _dominating_planes(lifted):
    """Affine functions g.s + h through point triples that dominate every
    lifted point; their pointwise minimum is the concave envelope."""
    planes = set()
    for (p1, v1), (p2, v2), (p3, v3) in itertools.combinations(lifted, 3):
        equations = [
            ((p[0], p[1], Fraction(1)), -v)
            for p, v in ((p1, v1), (p2, v2), (p3, v3))
        ]
        plane = solve_unique(equations, 3)
        if plane is None:
            continue
        g1, g2, h = plane
        if all(g1 * p[0] + g2 * p[1] + h >= v for p, v in lifted):
            planes.add((g1, g2, h))
    if not planes:
        raise AssertionError("two-dimensional hull without a dominating plane")
    return sorted(planes)


def _hull_edge_forms(points):
    """Inward edge inequalities a*s + b*t + c >= 0 of the 2-D convex hull."""
    pts = sorted(set(points))
    if len(pts) < 3:
        raise AssertionError("degenerate 2-D hull")

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    forms = []
    for p, q in zip(hull, hull[1:] + hull[:1]):
        a = -(q[1] - p[1])
        b = q[0] - p[0]
        c = -(a * p[0] + b * p[1])
        forms.append((Fraction(a), Fraction(b), Fraction(c)))
    return forms


class RationalPolynomial:
    """A canonical class of max-plus polynomials.

    Identity is the extremal-term map (the minimal representative); the
    maximal representative fills every lattice point of the Newton
    polytope with its envelope value.  Both are computed on demand from
    the stored representative and cached.
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

    def _ensure_canonical(self):
        if self._extremal is None:
            if self._rep.is_zero:
                self._extremal, self._witnesses = {}, {}
            else:
                data = extremal_monomials(self._rep)
                self._extremal = {e: c for e, (c, _) in data.items()}
                self._witnesses = {e: w for e, (_, w) in data.items()}

    @property
    def extremal_terms(self):
        self._ensure_canonical()
        return self._extremal

    @property
    def witnesses(self):
        """A strict-dominance witness point for each extremal term."""
        self._ensure_canonical()
        return self._witnesses

    def envelope(self):
        if self._env is None:
            if self.is_zero:
                raise DomainError("zero has no envelope")
            self._env = _Envelope(self.extremal_terms, self.arity)
        return self._env

    def min_representative(self):
        return Polynomial(self.arity, self.extremal_terms)

    def max_representative(self):
        if self._maxrep is None:
            if self.is_zero:
                self._maxrep = Polynomial.zero(self.arity)
            else:
                env = self.envelope()
                self._maxrep = Polynomial(
                    self.arity, {e: env.value(e) for e in env.lattice()}
                )
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
    value = _Envelope(poly.terms, poly.arity).value(gamma)
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
    result._witnesses = {
        tuple(k * x for x in e): w for e, w in r.witnesses.items()
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
    den_lattice = env_den.lattice()
    den_values = {a: env_den.value(a) for a in den_lattice}
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

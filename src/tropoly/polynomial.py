"""Sparse multivariate polynomials over an idempotent semifield.

A polynomial is a finite map from exponent vectors (tuples of naturals,
one entry per variable) to nonzero coefficients.  The empty map is the
zero polynomial.  Addition is coefficientwise semifield addition,
multiplication is convolution, and a point is a (tropical) zero when the
evaluation maximum is attained by at least two monomials or the value is
the semiring zero.
"""

from __future__ import annotations

from .errors import DomainError, UsageError
from .semifield import BOTTOM, MAXPLUS, Semifield

Exponent = tuple[int, ...]


class Polynomial:
    """Immutable sparse polynomial with a fixed number of variables."""

    __slots__ = ("arity", "terms", "semifield")

    def __init__(self, arity: int, terms=(), semifield: Semifield = MAXPLUS):
        if arity < 0:
            raise UsageError("arity must be a natural number")
        clean = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != arity:
                raise UsageError(
                    f"exponent vector {exps} has length {len(exps)}, expected {arity}"
                )
            if any(e < 0 or not isinstance(e, int) for e in exps):
                raise UsageError(f"exponents must be naturals: {exps}")
            coeff = semifield.coerce(coeff)
            if coeff == semifield.zero:
                continue
            if exps in clean:
                coeff = semifield.add(clean[exps], coeff)
            clean[exps] = coeff
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", dict(sorted(clean.items())))
        object.__setattr__(self, "semifield", semifield)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, arity, semifield=MAXPLUS):
        return cls(arity, (), semifield)

    @classmethod
    def constant(cls, arity, coeff, semifield=MAXPLUS):
        return cls(arity, {(0,) * arity: coeff}, semifield)

    @classmethod
    def variable(cls, arity, index, semifield=MAXPLUS):
        if not 0 <= index < arity:
            raise UsageError(f"variable index {index} out of range for arity {arity}")
        exps = tuple(1 if i == index else 0 for i in range(arity))
        return cls(arity, {exps: semifield.one}, semifield)

    @classmethod
    def monomial(cls, arity, exps, coeff, semifield=MAXPLUS):
        return cls(arity, {tuple(exps): coeff}, semifield)

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def support(self):
        return frozenset(self.terms)

    def degree(self):
        """Total degree; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def _check_compatible(self, other):
        if not isinstance(other, Polynomial):
            raise UsageError(f"expected a Polynomial, got {type(other).__name__}")
        if self.arity != other.arity:
            raise UsageError(f"arity mismatch: {self.arity} vs {other.arity}")
        if self.semifield is not other.semifield:
            raise UsageError("polynomials live over different semifields")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        K = self.semifield
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = K.add(terms[exps], coeff) if exps in terms else coeff
        return Polynomial(self.arity, terms, K)

    def __mul__(self, other):
        self._check_compatible(other)
        K = self.semifield
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                coeff = K.mul(c1, c2)
                terms[exps] = K.add(terms[exps], coeff) if exps in terms else coeff
        return Polynomial(self.arity, terms, K)

    def __pow__(self, k):
        if k < 0:
            raise UsageError("polynomial powers must be natural numbers")
        result = Polynomial.constant(self.arity, self.semifield.one, self.semifield)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def scale(self, coeff):
        """Multiply every coefficient by a scalar."""
        K = self.semifield
        coeff = K.coerce(coeff)
        if coeff == K.zero:
            return Polynomial.zero(self.arity, K)
        return Polynomial(
            self.arity, {e: K.mul(c, coeff) for e, c in self.terms.items()}, K
        )

    # -- evaluation ---------------------------------------------------

    def __call__(self, point):
        if len(point) != self.arity:
            raise UsageError(f"point has {len(point)} coordinates, expected {self.arity}")
        K = self.semifield
        if K is MAXPLUS:
            best = BOTTOM
            for exps, coeff in self.terms.items():
                val = coeff
                for x, e in zip(point, exps):
                    if e:
                        if x is BOTTOM:
                            val = BOTTOM
                            break
                        val = val + x * e
                if val is not BOTTOM and (best is BOTTOM or val > best):
                    best = val
            return best
        best = K.zero
        for exps, coeff in self.terms.items():
            val = coeff
            for x, e in zip(point, exps):
                if e:
                    val = K.mul(val, K.pow(x, e))
            best = K.add(best, val)
        return best

    def is_zero_at(self, point):
        """Tropical zero test: the value is the semiring zero, or at least
        two distinct monomials attain it."""
        if len(point) != self.arity:
            raise UsageError(f"point has {len(point)} coordinates, expected {self.arity}")
        K = self.semifield
        best = K.zero
        count = 0
        for exps, coeff in self.terms.items():
            val = coeff
            for x, e in zip(point, exps):
                if e:
                    val = K.mul(val, K.pow(x, e))
            if val == K.zero:
                continue
            if best == K.zero or not K.leq(val, best):
                best, count = val, 1
            elif val == best:
                count += 1
        if best == K.zero:
            return True
        return count >= 2

    # -- calculus and support predicates -------------------------------

    def derivative(self, index):
        """Formal derivative in one variable: drop terms with exponent 0,
        shift the exponent down, keep coefficients (characteristic one)."""
        if not 0 <= index < self.arity:
            raise UsageError(f"variable index {index} out of range for arity {self.arity}")
        terms = {}
        for exps, coeff in self.terms.items():
            if exps[index] == 0:
                continue
            shifted = exps[:index] + (exps[index] - 1,) + exps[index + 1 :]
            terms[shifted] = coeff
        return Polynomial(self.arity, terms, self.semifield)

    def orthogonal(self, other):
        """Disjoint supports."""
        self._check_compatible(other)
        return not (self.support & other.support)

    # -- comparison and display -----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.arity == other.arity
            and self.semifield is other.semifield
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "-inf"
        parts = []
        for exps in sorted(self.terms, reverse=True):
            factors = [str(self.terms[exps])]
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                name = variable_name(i, self.arity)
                factors.append(name if e == 1 else f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({self!s})"


def variable_name(index, arity):
    """x, y, z for up to three variables, X1..Xn beyond."""
    if arity <= 3:
        return "xyz"[index]
    return f"X{index + 1}"

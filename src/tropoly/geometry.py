"""Exact rational polyhedral computations.

Everything here runs on ``Fraction`` values: strictness-aware
Fourier-Motzkin elimination for feasibility with witness points, affine
dimension of solution sets, small linear programs solved by enumerating
basic solutions, lattice points of Newton polytopes and Minkowski sums.
This module is also the one home of exact linear algebra for the kernel:
`solve_unique` is its only Gaussian solve, `matrix_rank` its only rank
routine and `upper_chain` its only upper-hull chain builder.
Problem sizes are desk scale (a dozen constraints, dimension below ten),
so the quadratic blowup of the elimination is a non-issue.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InfeasibleError, UsageError

RELATIONS = (">", ">=", "=")


def _frac(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, str)):
        return Fraction(v)
    raise UsageError(f"not an exact rational: {v!r}")


@dataclass(frozen=True)
class AffineForm:
    """coeffs . x + const, with exact rational entries."""

    coeffs: tuple
    const: Fraction

    @classmethod
    def build(cls, coeffs, const=0):
        return cls(tuple(_frac(c) for c in coeffs), _frac(const))

    @property
    def dimension(self):
        return len(self.coeffs)

    def value_at(self, point):
        if len(point) != len(self.coeffs):
            raise UsageError("point dimension mismatch")
        return sum((c * x for c, x in zip(self.coeffs, point)), self.const)

    def negated(self):
        return AffineForm(tuple(-c for c in self.coeffs), -self.const)


@dataclass(frozen=True)
class Constraint:
    """form REL 0, where REL is one of >, >=, =."""

    form: AffineForm
    rel: str

    def __post_init__(self):
        if self.rel not in RELATIONS:
            raise UsageError(f"unknown relation {self.rel!r}")

    def holds_at(self, point):
        v = self.form.value_at(point)
        if self.rel == ">":
            return v > 0
        if self.rel == ">=":
            return v >= 0
        return v == 0


class InequalitySystem:
    """Conjunction of affine constraints over a fixed ambient dimension."""

    def __init__(self, dimension, constraints=()):
        if dimension < 0:
            raise UsageError("dimension must be a natural number")
        constraints = tuple(constraints)
        for c in constraints:
            if c.form.dimension != dimension:
                raise UsageError(
                    f"constraint dimension {c.form.dimension} != system dimension {dimension}"
                )
        self.dimension = dimension
        self.constraints = constraints

    def conjoin(self, other):
        if other.dimension != self.dimension:
            raise UsageError("cannot conjoin systems of different dimensions")
        return InequalitySystem(self.dimension, self.constraints + other.constraints)

    def with_constraints(self, extra):
        return InequalitySystem(self.dimension, self.constraints + tuple(extra))

    def closure(self):
        """The same system with strict inequalities relaxed."""
        relaxed = tuple(
            Constraint(c.form, ">=" if c.rel == ">" else c.rel) for c in self.constraints
        )
        return InequalitySystem(self.dimension, relaxed)

    def holds_at(self, point):
        return all(c.holds_at(point) for c in self.constraints)

    def __repr__(self):
        return f"InequalitySystem(dim={self.dimension}, {len(self.constraints)} constraints)"


# -- Fourier-Motzkin machinery ------------------------------------------
#
# Rows are (coeffs tuple, const, strict flag) meaning coeffs.x + const > 0
# (strict) or >= 0.  Equalities become two opposite rows.


def _rows_of(system):
    rows = []
    for c in system.constraints:
        base = (c.form.coeffs, c.form.const)
        if c.rel == "=":
            rows.append((base[0], base[1], False))
            neg = c.form.negated()
            rows.append((neg.coeffs, neg.const, False))
        else:
            rows.append((base[0], base[1], c.rel == ">"))
    return rows


def _normalize_row(row):
    coeffs, const, strict = row
    scale = math.lcm(*(x.denominator for x in coeffs), const.denominator)
    ints = [int(x * scale) for x in coeffs] + [int(const * scale)]
    g = math.gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return (tuple(ints[:-1]), ints[-1], strict)


def _constant_row_ok(row):
    _, const, strict = row
    return const > 0 if strict else const >= 0


def _eliminate(rows, index):
    """Project away variable `index`; returns (projected rows, lower rows,
    upper rows) where lower/upper bound the variable for back-substitution."""
    lowers, uppers, kept = [], [], []
    for coeffs, const, strict in rows:
        c = coeffs[index]
        if c > 0:
            lowers.append((coeffs, const, strict))
        elif c < 0:
            uppers.append((coeffs, const, strict))
        else:
            kept.append((coeffs, const, strict))
    seen = {_normalize_row(r) for r in kept}
    out = list(seen)
    for lc, lk, ls in lowers:
        for uc, uk, us in uppers:
            a, b = lc[index], uc[index]
            coeffs = tuple(x * (-b) + y * a for x, y in zip(lc, uc))
            const = lk * (-b) + uk * a
            row = _normalize_row((coeffs, const, ls or us))
            if row not in seen:
                seen.add(row)
                out.append(row)
    return out, lowers, uppers


def is_strictly_feasible(system):
    """Decide whether a rational point satisfies every constraint, strict
    ones strictly.  Returns (True, witness) or (False, None); the witness
    is built by back-substitution, midpointing strict intervals."""
    rows = [_normalize_row(r) for r in _rows_of(system)]
    n = system.dimension
    stages = []
    for index in reversed(range(n)):
        rows, lowers, uppers = _eliminate(rows, index)
        stages.append((index, lowers, uppers))
    for row in rows:
        if not _constant_row_ok(row):
            return False, None
    witness = [Fraction(0)] * n
    for index, lowers, uppers in reversed(stages):
        lo = hi = None
        for coeffs, const, _strict in lowers:
            rest = sum(
                (coeffs[j] * witness[j] for j in range(index)), Fraction(const)
            )
            bound = -rest / coeffs[index]
            if lo is None or bound > lo:
                lo = bound
        for coeffs, const, _strict in uppers:
            rest = sum(
                (coeffs[j] * witness[j] for j in range(index)), Fraction(const)
            )
            bound = -rest / coeffs[index]
            if hi is None or bound < hi:
                hi = bound
        if lo is None and hi is None:
            value = Fraction(0)
        elif hi is None:
            value = lo + 1
        elif lo is None:
            value = hi - 1
        elif lo < hi:
            value = (lo + hi) / 2
        else:
            # lo == hi is necessarily a two-sided non-strict tie: a strict
            # pinch would have produced an infeasible combined row earlier.
            value = lo
        witness[index] = value
    return True, tuple(witness)


# -- exact linear algebra helpers -----------------------------------------


def solve_unique(equations, n):
    """Solve a stack of affine equations coeffs.x + const = 0.  Returns the
    unique solution, or None when the system is singular or inconsistent."""
    rows = [list(coeffs) + [const] for coeffs, const in equations]
    pivots = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        p = rows[r][col]
        rows[r] = [v / p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    for i in range(r, len(rows)):
        if rows[i][n] != 0:
            return None  # inconsistent
    if len(pivots) < n:
        return None  # underdetermined
    solution = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        solution[col] = -rows[i][n]
    return tuple(solution)


def matrix_rank(vectors):
    """Rank of a list of exact rational vectors (zero vectors allowed)."""
    rows = [list(v) for v in vectors if any(x != 0 for x in v)]
    rank = 0
    n = len(rows[0]) if rows else 0
    for col in range(n):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / p
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def upper_chain(points):
    """Vertices of the upper concave hull of (t, value) pairs given in
    ascending t.  Collinear middle points are dropped, so consecutive
    slopes strictly decrease."""
    chain = []
    for p in points:
        while len(chain) >= 2:
            (t0, v0), (t1, v1) = chain[-2], chain[-1]
            # keep chain[-1] only if it lies strictly above segment (chain[-2], p)
            if (v1 - v0) * (p[0] - t1) > (p[1] - v1) * (t1 - t0):
                break
            chain.pop()
        chain.append(p)
    return chain


# -- derived queries -------------------------------------------------------


def affine_dimension(system):
    """Dimension of the affine hull of the non-strict closure's solution
    set; -1 when that set is empty.

    The hull is cut out by the explicit equalities together with the
    implicit ones (inequalities that can never be strict over the set).
    """
    closure = system.closure()
    feasible, _ = is_strictly_feasible(closure)
    if not feasible:
        return -1
    equalities = [c.form for c in closure.constraints if c.rel == "="]
    for c in closure.constraints:
        if c.rel != ">=":
            continue
        probe = closure.with_constraints([Constraint(c.form, ">")])
        if not is_strictly_feasible(probe)[0]:
            equalities.append(c.form)
    if not equalities:
        return system.dimension
    return system.dimension - matrix_rank([f.coeffs for f in equalities])


class _UnboundedType:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNBOUNDED"


UNBOUNDED = _UnboundedType()


def lp_max(objective, system):
    """Exact maximum of an affine objective over a system of >= and =
    constraints, by enumeration of basic solutions.

    Raises InfeasibleError on an empty region and returns UNBOUNDED when
    the recession cone contains an improving direction.  Feasible systems
    whose region has no basic point (no vertex) fall back to projecting
    the objective with Fourier-Motzkin.
    """
    if objective.dimension != system.dimension:
        raise UsageError("objective dimension mismatch")
    if any(c.rel == ">" for c in system.constraints):
        raise UsageError("lp_max accepts only >= and = constraints")
    feasible, _ = is_strictly_feasible(system)
    if not feasible:
        raise InfeasibleError("infeasible")
    n = system.dimension
    # Unboundedness: an improving recession direction d with A= d = 0,
    # A>= d >= 0 and objective . d > 0.
    recession = [
        Constraint(AffineForm(c.form.coeffs, Fraction(0)), "=" if c.rel == "=" else ">=")
        for c in system.constraints
    ]
    recession.append(Constraint(AffineForm(objective.coeffs, Fraction(0)), ">"))
    if is_strictly_feasible(InequalitySystem(n, recession))[0]:
        return UNBOUNDED
    equalities = [
        (c.form.coeffs, c.form.const) for c in system.constraints if c.rel == "="
    ]
    inequalities = [c for c in system.constraints if c.rel == ">="]
    best = None
    for size in range(n + 1):
        for subset in itertools.combinations(inequalities, size):
            equations = equalities + [(c.form.coeffs, c.form.const) for c in subset]
            point = solve_unique(equations, n)
            if point is None or not system.holds_at(point):
                continue
            value = objective.value_at(point)
            if best is None or value > best:
                best = value
    if best is not None:
        return best
    return _lp_max_by_projection(objective, system)


def _lp_max_by_projection(objective, system):
    """Adjoin t = objective(x), eliminate x, read the best bound on t."""
    n = system.dimension
    lifted = [
        Constraint(AffineForm(tuple(c.form.coeffs) + (Fraction(0),), c.form.const), c.rel)
        for c in system.constraints
    ]
    # objective - t = 0
    t_form = AffineForm(tuple(objective.coeffs) + (Fraction(-1),), objective.const)
    lifted.append(Constraint(t_form, "="))
    rows = [_normalize_row(r) for r in _rows_of(InequalitySystem(n + 1, lifted))]
    for index in range(n):
        rows, _, _ = _eliminate(rows, index)
    best = None
    for coeffs, const, _strict in rows:
        c = coeffs[n]
        if c < 0:  # c*t + const >= 0 with c < 0 bounds t above
            bound = Fraction(const, -c)
            if best is None or bound < best:
                best = bound
    if best is None:
        return UNBOUNDED
    return best


def in_convex_hull(point, generators):
    """Whether an exact point lies in the convex hull of the generators,
    decided through feasibility of the barycentric system."""
    if not generators:
        raise UsageError("empty generator set")
    dim = len(generators[0])
    if len(point) != dim or any(len(g) != dim for g in generators):
        raise UsageError("dimension mismatch")
    m = len(generators)
    constraints = []
    for j in range(dim):
        coeffs = tuple(Fraction(g[j]) for g in generators)
        constraints.append(
            Constraint(AffineForm(coeffs, Fraction(-point[j])), "=")
        )
    constraints.append(
        Constraint(AffineForm((Fraction(1),) * m, Fraction(-1)), "=")
    )
    for i in range(m):
        unit = tuple(Fraction(1 if k == i else 0) for k in range(m))
        constraints.append(Constraint(AffineForm(unit, Fraction(0)), ">="))
    return is_strictly_feasible(InequalitySystem(m, constraints))[0]


def lattice_points(points):
    """All integer vectors inside the convex hull of the given exponent
    vectors, found by a bounding-box scan with exact membership tests."""
    points = [tuple(p) for p in points]
    if not points:
        raise UsageError("empty point set")
    dim = len(points[0])
    if any(len(p) != dim for p in points):
        raise UsageError("dimension mismatch")
    mins = [min(p[i] for p in points) for i in range(dim)]
    maxs = [max(p[i] for p in points) for i in range(dim)]
    found = []
    for candidate in itertools.product(
        *(range(lo, hi + 1) for lo, hi in zip(mins, maxs))
    ):
        if in_convex_hull(candidate, points):
            found.append(candidate)
    return sorted(found)


def minkowski_sum(a, b):
    """{x + y : x in a, y in b}, deduplicated and sorted."""
    a = [tuple(p) for p in a]
    b = [tuple(p) for p in b]
    if a and b and len(a[0]) != len(b[0]):
        raise UsageError("dimension mismatch")
    return sorted({tuple(x + y for x, y in zip(p, q)) for p in a for q in b})

"""Exact rational polyhedral computations.

Everything here runs on ``Fraction`` values or integers: strictness-aware
Fourier-Motzkin elimination for feasibility with witness points, affine
dimension of solution sets, small linear programs solved by enumerating
basic solutions, polytopes in facet form over their affine hull
(`Polytope`, the one lattice scanner), lattice points of Newton polytopes
and Minkowski sums.  This module is also the one home of exact linear
algebra for the kernel: `solve_unique` is its only Gaussian solve,
`matrix_rank` its only rank routine, `upper_chain` its only upper-hull
chain builder, `upper_vertices` its only upper-hull vertex finder and
`hull_facets` its only facet enumerator.

Each elimination stage pairs every lower with every upper bound, so the
row count can square per eliminated variable.  The first variable,
eliminated last, is therefore never paired: its tightest lower and upper
bounds decide it in one pass.
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
# (strict) or >= 0.  Equalities become two opposite rows.  Elimination
# takes and returns normalized rows: primitive integer vectors.


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
    """The row scaled to primitive integers."""
    coeffs, const, strict = row
    scale = math.lcm(*(x.denominator for x in coeffs), const.denominator)
    return _primitive([int(x * scale) for x in coeffs], int(const * scale), strict)


def _primitive(coeffs, const, strict):
    """An integer row divided by the gcd of its entries."""
    g = math.gcd(*coeffs, const)
    if g > 1:
        coeffs = [v // g for v in coeffs]
        const //= g
    return (tuple(coeffs), const, strict)


def _constant_row_ok(row):
    _, const, strict = row
    return const > 0 if strict else const >= 0


def _split(rows, index):
    """(lower rows, upper rows, other rows) for variable `index`."""
    lowers, uppers, kept = [], [], []
    for row in rows:
        c = row[0][index]
        if c > 0:
            lowers.append(row)
        elif c < 0:
            uppers.append(row)
        else:
            kept.append(row)
    return lowers, uppers, kept


def _eliminate(rows, index):
    """Project away variable `index`; returns (projected rows, lower rows,
    upper rows) where lower/upper bound the variable for back-substitution.
    The rows are normalized, so the combined rows need only their gcd."""
    lowers, uppers, kept = _split(rows, index)
    seen = set(kept)
    out = list(seen)
    for lc, lk, ls in lowers:
        for uc, uk, us in uppers:
            a, b = lc[index], uc[index]
            coeffs = [x * (-b) + y * a for x, y in zip(lc, uc)]
            row = _primitive(coeffs, lk * (-b) + uk * a, ls or us)
            if row not in seen:
                seen.add(row)
                out.append(row)
    return out, lowers, uppers


def _bounds_meet(lowers, uppers):
    """Whether the bounds left on the first variable, the last one
    eliminated, admit a value: the largest lower bound is at most the
    smallest upper bound, and a tie is allowed only when no strict row
    attains it.  This is exactly the condition that every pairwise
    combined row holds, read off in one pass instead of building the
    L x U rows."""
    if not lowers or not uppers:
        return True
    lo = max(Fraction(-const, coeffs[0]) for coeffs, const, _ in lowers)
    hi = min(Fraction(-const, coeffs[0]) for coeffs, const, _ in uppers)
    if lo != hi:
        return lo < hi
    return not any(
        strict and Fraction(-const, coeffs[0]) == lo
        for coeffs, const, strict in lowers + uppers
    )


def is_strictly_feasible(system):
    """Decide whether a rational point satisfies every constraint, strict
    ones strictly.  Returns (True, witness) or (False, None); the witness
    is built by back-substitution, midpointing strict intervals.

    Variables are eliminated from the last to the second; the first is
    settled by its tightest bounds (`_bounds_meet`)."""
    return _feasible([_normalize_row(r) for r in _rows_of(system)], system.dimension)


def _feasible(rows, n):
    """The row core of `is_strictly_feasible`: the same answer and witness
    for primitive integer rows over n variables."""
    stages = []
    for index in reversed(range(1, n)):
        rows, lowers, uppers = _eliminate(rows, index)
        stages.append((index, lowers, uppers))
    if n:
        lowers, uppers, rows = _split(rows, 0)
        if not _bounds_meet(lowers, uppers):
            return False, None
        stages.append((0, lowers, uppers))
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
            # pinch would have produced an infeasible combined row earlier,
            # or failed `_bounds_meet` on the first variable.
            value = lo
        witness[index] = value
    return True, tuple(witness)


# -- exact linear algebra helpers -----------------------------------------


def _row_reduce(rows, ncols):
    """Reduced row echelon form of exact rows, pivoting on the first
    `ncols` columns.  Returns (rows, pivot columns); the rows past the
    pivots are zero in those columns."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
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
    return rows, pivots


def solve_unique(equations, n):
    """Solve a stack of affine equations coeffs.x + const = 0.  Returns the
    unique solution, or None when the system is singular or inconsistent."""
    rows, pivots = _row_reduce([list(coeffs) + [const] for coeffs, const in equations], n)
    if any(row[n] != 0 for row in rows[len(pivots):]):
        return None  # inconsistent
    if len(pivots) < n:
        return None  # underdetermined
    solution = [Fraction(0)] * n
    for row, col in zip(rows, pivots):
        solution[col] = -row[n]
    return tuple(solution)


def matrix_rank(vectors):
    """Rank of a list of exact rational vectors (zero vectors allowed)."""
    vectors = list(vectors)
    return len(_row_reduce(vectors, len(vectors[0]) if vectors else 0)[1])


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


def upper_vertices(lift):
    """Sorted exponents of the vertices of the upper hull of a lift
    {exponent: height}: the exponents alpha at which some y makes
    alpha.y + height the unique maximum.

    In one variable these are the vertices of `upper_chain`.  Otherwise
    the exponents are walked in ascending order and each is tested by
    Fourier-Motzkin against the vertices found so far only (Clarkson's
    output-sensitive extreme points).  An infeasible test rules alpha
    out.  A feasible one at y adds the lexicographically largest of the
    exponents attaining the maximum at y -- they span a face of the upper
    hull, and a lexicographic extreme of a face is one of its vertices --
    and alpha is tested again.  With n exponents and m vertices that is
    at most n + m tests on at most m rows each.  The rows are primitive
    integer rows: heights and exponent differences are both scaled by the
    lcm of the heights' denominators.
    """
    exps = sorted(lift)
    if exps and len(exps[0]) == 1:
        return [(t,) for t, _ in upper_chain([(e[0], lift[e]) for e in exps])]
    n = len(exps[0]) if exps else 0
    scale = math.lcm(*(lift[e].denominator for e in exps))
    height = {e: int(lift[e] * scale) for e in exps}
    vertices = []
    found = set()
    for alpha in exps:
        while alpha not in found:
            rows = [
                _primitive(
                    [scale * (a - b) for a, b in zip(alpha, beta)],
                    height[alpha] - height[beta],
                    True,
                )
                for beta in vertices
            ]
            feasible, y = _feasible(rows, n)
            if not feasible:
                break
            # the values at y, times scale and the common denominator of y
            d = math.lcm(*(v.denominator for v in y))
            point = [int(v * d) for v in y]
            top = max(
                exps,
                key=lambda e: (scale * sum(a * v for a, v in zip(e, point)) + d * height[e], e),
            )
            if top in found:
                # unreachable with exact rows: alpha beats every known vertex at y
                raise AssertionError("no new upper-hull vertex at a feasible point")
            vertices.append(top)
            found.add(top)
    return sorted(vertices)


# -- polytopes in facet form -----------------------------------------------


def _det(matrix):
    """Determinant of a square integer matrix, by fraction-free (Bareiss)
    elimination."""
    m = [list(row) for row in matrix]
    n = len(m)
    sign, previous = 1, 1
    for i in range(n - 1):
        if m[i][i] == 0:
            swap = next((r for r in range(i + 1, n) if m[r][i] != 0), None)
            if swap is None:
                return 0
            m[i], m[swap] = m[swap], m[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // previous
        previous = m[i][i]
    return sign * m[-1][-1] if n else 1


def hull_facets(points):
    """Facet inequalities (normal, c), meaning normal.p + c >= 0, of the
    convex hull of integer points in k-space, as primitive integer
    vectors: every hyperplane through k affinely independent points with
    every point on one side.  When the points span the whole space these
    are the facets; when they span one hyperplane, that hyperplane is
    returned in both orientations."""
    k = len(points[0])
    if k == 0:
        return []
    facets = set()
    for first, *rest in itertools.combinations(points, k):
        diffs = [[a - b for a, b in zip(p, first)] for p in rest]
        # the generalized cross product of the differences
        normal = [(-1) ** i * _det([d[:i] + d[i + 1:] for d in diffs]) for i in range(k)]
        g = math.gcd(*normal)
        if g == 0:
            continue  # affinely dependent
        normal = tuple(a // g for a in normal)
        c = -sum(a * x for a, x in zip(normal, first))
        values = [sum(a * x for a, x in zip(normal, p)) + c for p in points]
        if all(v >= 0 for v in values):
            facets.add((normal, c))
        if all(v <= 0 for v in values):
            facets.add((tuple(-a for a in normal), -c))
    return sorted(facets)


class Polytope:
    """Convex hull of finitely many integer points, built once in facet
    form over its affine hull.

    The affine hull is charted by its `pivots`: a point of the hull is
    fixed by its coordinates there (its chart), and each other
    coordinate is an affine function of the chart, read off the reduced
    row echelon form of the difference vectors (`rules`).  `facets` are
    the hull's inequalities in the chart.  Membership is then a chart
    read, a check of the rules and one pass over the facets.  The chart
    of the k-th dilate is k times the chart, so `scaled` only multiplies
    the constant terms by k.
    """

    def __init__(self, points):
        points = sorted({tuple(p) for p in points})
        if not points:
            raise UsageError("empty point set")
        dim = len(points[0])
        if any(len(p) != dim for p in points):
            raise UsageError("dimension mismatch")
        origin = points[0]
        rows, pivots = _row_reduce(
            [[a - b for a, b in zip(p, origin)] for p in points[1:]], dim
        )
        rules = []
        for j in range(dim):
            if j not in pivots:
                coeffs = tuple(row[j] for row in rows[: len(pivots)])
                const = origin[j] - sum(c * origin[i] for c, i in zip(coeffs, pivots))
                rules.append((j, coeffs, const))
        self.points = points
        self.pivots = tuple(pivots)
        self.rules = tuple(rules)
        self.facets = hull_facets([self.chart(p) for p in points])

    @property
    def hull_dim(self):
        return len(self.pivots)

    def chart(self, gamma):
        """Coordinates of gamma on the affine hull, or None off the hull."""
        s = tuple(gamma[i] for i in self.pivots)
        for j, coeffs, const in self.rules:
            if gamma[j] != sum(c * x for c, x in zip(coeffs, s)) + const:
                return None
        return s

    def inside(self, s):
        """Whether the chart point s satisfies every facet inequality."""
        return all(
            sum(a * x for a, x in zip(normal, s)) + c >= 0 for normal, c in self.facets
        )

    def contains(self, gamma):
        s = self.chart(gamma)
        return s is not None and self.inside(s)

    def bounding_box(self):
        mins = tuple(min(column) for column in zip(*self.points))
        maxs = tuple(max(column) for column in zip(*self.points))
        return mins, maxs

    def lattice(self):
        """(integer point, its chart) for every lattice point of the
        polytope, in ascending order: a scan of the box of the charts.
        Charts order hull points as their coordinates do, because each
        reduced row starts at its pivot."""
        mins, maxs = self.bounding_box()
        dim = len(mins)
        for s in itertools.product(*(range(mins[i], maxs[i] + 1) for i in self.pivots)):
            if not self.inside(s):
                continue
            gamma = [0] * dim
            for i, x in zip(self.pivots, s):
                gamma[i] = x
            for j, coeffs, const in self.rules:
                v = sum(c * x for c, x in zip(coeffs, s)) + const
                if v.denominator != 1:
                    break
                gamma[j] = int(v)
            else:
                yield tuple(gamma), s

    def scaled(self, k):
        """The polytope of the k-scaled points."""
        out = object.__new__(Polytope)
        out.points = [tuple(k * x for x in p) for p in self.points]
        out.pivots = self.pivots
        out.rules = tuple((j, coeffs, k * const) for j, coeffs, const in self.rules)
        out.facets = [(normal, k * c) for normal, c in self.facets]
        return out


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
    vectors, in ascending order (the scan of `Polytope.lattice`)."""
    return [gamma for gamma, _ in Polytope(points).lattice()]


def minkowski_sum(a, b):
    """{x + y : x in a, y in b}, deduplicated and sorted."""
    a = [tuple(p) for p in a]
    b = [tuple(p) for p in b]
    if a and b and len(a[0]) != len(b[0]):
        raise UsageError("dimension mismatch")
    return sorted({tuple(x + y for x, y in zip(p, q)) for p in a for q in b})

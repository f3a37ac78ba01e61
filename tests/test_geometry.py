import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from tropoly.errors import InfeasibleError, UsageError
from tropoly.geometry import (
    UNBOUNDED,
    AffineForm,
    Constraint,
    InequalitySystem,
    affine_dimension,
    in_convex_hull,
    is_strictly_feasible,
    lattice_points,
    lp_max,
    matrix_rank,
    minkowski_sum,
    solve_unique,
)
from tropoly.geometry import _normalize_row, _rows_of


def system(dim, *rows):
    return InequalitySystem(
        dim, [Constraint(AffineForm.build(coeffs, const), rel) for coeffs, const, rel in rows]
    )


def test_feasibility_examples():
    feasible, witness = is_strictly_feasible(
        system(1, ([1], 0, ">"), ([-1], 1, ">"))
    )
    assert feasible and witness == (Fraction(1, 2),)
    assert is_strictly_feasible(system(1, ([1], 0, ">"), ([-1], 0, ">"))) == (False, None)
    assert not is_strictly_feasible(
        system(2, ([1, 1], 0, ">="), ([1, -1], 0, "="), ([-1, 0], -1, ">"))
    )[0]


def test_feasibility_empty_system():
    feasible, witness = is_strictly_feasible(InequalitySystem(2))
    assert feasible and witness == (0, 0)


def test_witnesses_satisfy_their_systems(rng):
    for _ in range(300):
        dim = rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(1, 6)):
            coeffs = [rng.randint(-4, 4) for _ in range(dim)]
            rows.append((coeffs, rng.randint(-4, 4), rng.choice([">", ">=", "="])))
        s = system(dim, *rows)
        feasible, witness = is_strictly_feasible(s)
        if feasible:
            assert s.holds_at(witness)


def _grid(dim, denominators=(1, 2, 3, 4), span=3):
    values = sorted(
        {Fraction(n, d) for d in denominators for n in range(-span * d, span * d + 1)}
    )
    return itertools.product(values, repeat=dim)


def test_feasibility_against_grid_search(rng):
    # FM infeasible => no grid point works; a grid hit => FM feasible.
    for _ in range(60):
        dim = rng.randint(1, 2)
        rows = []
        for _ in range(rng.randint(1, 4)):
            coeffs = [rng.randint(-3, 3) for _ in range(dim)]
            rows.append((coeffs, rng.randint(-3, 3), rng.choice([">", ">=", "="])))
        s = system(dim, *rows)
        feasible, _ = is_strictly_feasible(s)
        grid_hit = any(s.holds_at(p) for p in _grid(dim))
        if grid_hit:
            assert feasible
        if not feasible:
            assert not grid_hit


def test_affine_dimension_examples():
    assert affine_dimension(system(2, ([1, -1], 0, "="))) == 1
    assert affine_dimension(system(2, ([1, 0], 0, "="), ([0, 1], 0, "="))) == 0
    assert affine_dimension(system(2, ([1, 0], 0, ">="))) == 2
    # the dimension is taken over the non-strict closure, so a strict
    # pinch collapses to a point rather than emptiness
    assert affine_dimension(system(1, ([1], 0, ">"), ([-1], 0, ">"))) == 0
    assert affine_dimension(system(1, ([1], -1, ">="), ([-1], 0, ">="))) == -1
    # implied equality: x >= 0 and x <= 0
    assert affine_dimension(system(2, ([1, 0], 0, ">="), ([-1, 0], 0, ">="))) == 1


def test_lp_examples():
    obj = AffineForm.build([0, 6])
    s = system(
        2, ([0, 2], -1, "="), ([1, 1], -1, "="), ([1, 0], 0, ">="), ([0, 1], 0, ">=")
    )
    assert lp_max(obj, s) == 3
    assert lp_max(AffineForm.build([1]), system(1, ([-1], 5, ">="))) == 5
    assert lp_max(AffineForm.build([1]), system(1, ([1], 0, ">="))) is UNBOUNDED
    with pytest.raises(InfeasibleError):
        lp_max(AffineForm.build([1]), system(1, ([1], 0, ">="), ([-1], -1, ">=")))
    with pytest.raises(UsageError):
        lp_max(AffineForm.build([1]), system(1, ([1], 0, ">")))


def test_lp_non_pointed_region():
    # no vertex exists; the projection fallback still finds the optimum
    assert lp_max(AffineForm.build([0, 0], 7), system(2, ([1, 1], 0, ">="))) == 7


def _lp_oracle(objective, sys_):
    """Independent oracle: enumerate tight constraint subsets with sympy,
    plus a recession-ray scan for unboundedness."""
    n = sys_.dimension
    constraints = sys_.constraints
    eqs = [c for c in constraints if c.rel == "="]
    ineqs = [c for c in constraints if c.rel == ">="]
    # unbounded iff some ray in the recession cone improves the objective
    ray_rows = [list(c.form.coeffs) for c in eqs]
    best = None
    for size in range(n + 1):
        for subset in itertools.combinations(ineqs, size):
            mat = sympy.Matrix(
                [list(c.form.coeffs) for c in eqs + list(subset)]
            )
            rhs = sympy.Matrix([-c.form.const for c in eqs + list(subset)])
            if mat.rows == 0:
                continue
            try:
                sol, params = mat.gauss_jordan_solve(rhs)
            except ValueError:
                continue
            if params.rows != 0:
                continue
            point = tuple(Fraction(sympy.nsimplify(v)) for v in sol)
            if sys_.holds_at(point):
                value = objective.value_at(point)
                if best is None or value > best:
                    best = value
    return best


def test_lp_against_sympy_oracle(rng):
    for _ in range(40):
        n = rng.randint(1, 3)
        rows = [([rng.randint(-3, 3) for _ in range(n)], rng.randint(-3, 3), ">=")
                for _ in range(rng.randint(1, 5))]
        # bound the region so the oracle's vertex scan is complete
        for i in range(n):
            unit = [0] * n
            unit[i] = 1
            rows.append((unit[:], 6, ">="))
            rows.append(([-u for u in unit], 6, ">="))
        s = system(n, *rows)
        objective = AffineForm.build([rng.randint(-3, 3) for _ in range(n)])
        try:
            value = lp_max(objective, s)
        except InfeasibleError:
            assert not is_strictly_feasible(s)[0]
            continue
        assert value is not UNBOUNDED
        assert value == _lp_oracle(objective, s)


def test_lattice_points_examples():
    assert lattice_points([(0, 0), (2, 0), (0, 2)]) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0),
    ]
    assert lattice_points([(0,), (3,)]) == [(0,), (1,), (2,), (3,)]
    assert lattice_points([(1, 1)]) == [(1, 1)]


def _hull_member_oracle(point, generators):
    """Rational convex-combination search on a denominator grid.  Complete
    for the small instances used here (barycentric denominators divide a
    2x2 determinant, well below the grid bound)."""
    k = len(generators)
    denom = 24
    weights = range(denom + 1)
    for combo in itertools.product(weights, repeat=k - 1):
        if sum(combo) > denom:
            continue
        mu = [Fraction(c, denom) for c in combo]
        mu.append(1 - sum(mu))
        if all(
            sum(m * g[i] for m, g in zip(mu, generators)) == point[i]
            for i in range(len(point))
        ):
            return True
    return False


def test_hull_membership_against_combination_search(rng):
    for _ in range(15):
        generators = [
            (rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(1, 3))
        ]
        point = (rng.randint(0, 3), rng.randint(0, 3))
        assert in_convex_hull(point, generators) == _hull_member_oracle(
            point, generators
        )


def test_minkowski_examples():
    assert minkowski_sum([(0,), (1,)], [(0,), (2,)]) == [(0,), (1,), (2,), (3,)]
    square = minkowski_sum([(0, 0), (1, 0)], [(0, 0), (0, 1)])
    assert square == [(0, 0), (0, 1), (1, 0), (1, 1)]
    a = [(0, 1), (2, 2)]
    assert minkowski_sum(a, [(0, 0)]) == sorted(a)


def test_dimension_mismatch_rejected():
    with pytest.raises(UsageError):
        system(2, ([1], 0, ">="))
    with pytest.raises(UsageError):
        minkowski_sum([(0,)], [(0, 0)])


_small = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-4, max_value=4, max_denominator=3)
)


@st.composite
def _equation_stacks(draw):
    """Rows (coeffs..., const) in 0-4 unknowns, 0-6 rows.  Some rows are
    combinations of earlier ones, sometimes with a shifted constant, so
    singular, overdetermined and inconsistent stacks are frequent: the
    shapes the envelope's hull reduction and barycentric program send."""
    n = draw(st.integers(0, 4))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(_small), draw(_small)
            row = [s * x + t * y for x, y in zip(a, b)]
            if draw(st.booleans()):
                row[-1] += draw(_small)
        else:
            row = [draw(_small) for _ in range(n + 1)]
        rows.append(tuple(row))
    return n, rows


def _sympy_matrix(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])


def _sympy_rank(rows, width):
    if not rows or width == 0:
        return 0
    return _sympy_matrix(rows).rank()


def _sympy_unique_solution(rows, n):
    coeffs = [r[:n] for r in rows]
    rank = _sympy_rank(coeffs, n)
    if rank != _sympy_rank(rows, n + 1) or rank < n:
        return None
    if n == 0:
        return ()
    solution, params = _sympy_matrix(coeffs).gauss_jordan_solve(-_sympy_matrix([r[n:] for r in rows]))
    assert params.shape[0] == 0
    return tuple(Fraction(int(v.p), int(v.q)) for v in solution)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_equation_stacks())
def test_solve_unique_and_rank_against_sympy(stack):
    n, rows = stack
    assert matrix_rank([r[:n] for r in rows]) == _sympy_rank([r[:n] for r in rows], n)
    assert matrix_rank(rows) == _sympy_rank(rows, n + 1)
    equations = [(r[:n], r[n]) for r in rows]
    assert solve_unique(equations, n) == _sympy_unique_solution(rows, n)


def _pairwise_fm(system_):
    """Reference Fourier-Motzkin: every variable, the first included, is
    eliminated by building all lower-upper pairs, and the constant rows
    left decide feasibility; back-substitution reads the max lower and
    the min upper bound of each stage."""
    rows = [_normalize_row(r) for r in _rows_of(system_)]
    n = system_.dimension
    stages = []
    for index in reversed(range(n)):
        lowers = [r for r in rows if r[0][index] > 0]
        uppers = [r for r in rows if r[0][index] < 0]
        out = {r for r in rows if r[0][index] == 0}
        for lc, lk, ls in lowers:
            for uc, uk, us in uppers:
                a, b = lc[index], uc[index]
                coeffs = tuple(x * (-b) + y * a for x, y in zip(lc, uc))
                out.add(_normalize_row((coeffs, lk * (-b) + uk * a, ls or us)))
        rows = list(out)
        stages.append((index, lowers, uppers))
    if not all(const > 0 if strict else const >= 0 for _, const, strict in rows):
        return False, None
    witness = [Fraction(0)] * n
    for index, lowers, uppers in reversed(stages):
        def bound(row):
            coeffs, const = row[0], row[1]
            rest = sum((coeffs[j] * witness[j] for j in range(index)), Fraction(const))
            return -rest / coeffs[index]

        lo = max(map(bound, lowers), default=None)
        hi = min(map(bound, uppers), default=None)
        if lo is None and hi is None:
            witness[index] = Fraction(0)
        elif hi is None:
            witness[index] = lo + 1
        elif lo is None:
            witness[index] = hi - 1
        else:
            witness[index] = (lo + hi) / 2
    return True, tuple(witness)


@st.composite
def _fm_systems(draw):
    """Systems in 1-3 variables with mixed >, >= and = rows.  Some pinch
    the first variable at t, directly or through a chain over the second
    (x0 >= x1 >= t >= x0), with strict and non-strict sides, so the
    bounds on the first variable tie."""
    dim = draw(st.integers(1, 3))
    rel = st.sampled_from([">", ">=", "="])
    side = st.sampled_from([">", ">="])
    rows = [
        ([draw(st.integers(-3, 3)) for _ in range(dim)], draw(st.integers(-4, 4)), draw(rel))
        for _ in range(draw(st.integers(0, 6)))
    ]
    pad = [0] * (dim - 1)
    t = draw(st.integers(-3, 3))
    if draw(st.booleans()):
        a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        rows.append(([a] + pad, -a * t, draw(side)))
        rows.append(([-b] + pad, b * t, draw(side)))
    if dim > 1 and draw(st.booleans()):
        rows.append(([1, -1] + pad[1:], 0, draw(side)))
        rows.append(([0, 1] + pad[1:], -t, draw(side)))
        rows.append(([-1, 0] + pad[1:], t, draw(side)))
    return system(dim, *rows)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(_fm_systems())
def test_last_variable_bounds_match_pairwise_elimination(s):
    result = is_strictly_feasible(s)
    assert result == _pairwise_fm(s)
    if result[0]:
        assert s.holds_at(result[1])


@st.composite
def _point_sets(draw):
    """1-5 integer points in 1-3 dimensions, coordinates 0-3; some are
    collinear or coplanar, so their hull has lower dimension."""
    dim = draw(st.integers(1, 3))
    coord = st.integers(0, 3)
    vec = st.tuples(*[coord] * dim)
    shape = draw(st.sampled_from(["free", "line", "plane"]))
    if shape == "free":
        return sorted(set(draw(st.lists(vec, min_size=1, max_size=5))))
    base = draw(vec)
    step = st.tuples(*[st.integers(-1, 1)] * dim).filter(any)
    steps = [draw(step) for _ in range(1 if shape == "line" else 2)]
    combo = st.tuples(*[st.integers(0, 2)] * len(steps))
    combos = draw(st.lists(combo, min_size=2, max_size=5))
    return sorted({
        tuple(b + sum(c * d[i] for c, d in zip(combo, steps)) for i, b in enumerate(base))
        for combo in combos
    })


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_point_sets())
def test_lattice_points_against_hull_membership(points):
    box = itertools.product(
        *(range(min(p[i] for p in points), max(p[i] for p in points) + 1)
          for i in range(len(points[0])))
    )
    assert lattice_points(points) == [c for c in box if in_convex_hull(c, points)]

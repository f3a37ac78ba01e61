import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropoly.canon import (
    _Envelope,
    canonicalize,
    divide,
    divides_power,
    envelope_value,
    extremal_monomials,
    monomial_versus_constraints,
    power_cancel,
    rat_add,
    rat_equal,
    rat_mul,
    rat_pow,
)
from tropoly.errors import DomainError, UsageError
from tropoly.geometry import (
    AffineForm,
    Constraint,
    InequalitySystem,
    is_strictly_feasible,
    lp_max,
    matrix_rank,
    minkowski_sum,
    solve_unique,
)
from tropoly.polynomial import Polynomial

from conftest import rand_bivariate, rand_point, rand_univariate


def poly1(mapping):
    return Polynomial(1, {(e,): c for e, c in mapping.items()})


X = Polynomial(2, {(1, 0): 0})
Y = Polynomial(2, {(0, 1): 0})
ONE2 = Polynomial.constant(2, 0)


def test_extremal_examples():
    assert sorted(extremal_monomials(poly1({2: 0, 1: 1, 0: 0}))) == [(0,), (1,), (2,)]
    assert sorted(extremal_monomials(poly1({2: 0, 1: 0, 0: 0}))) == [(0,), (2,)]
    only = extremal_monomials(Polynomial(2, {(2, 1): 5}))
    assert sorted(only) == [(2, 1)]
    with pytest.raises(DomainError):
        extremal_monomials(Polynomial.zero(1))


def test_extremal_witnesses_certify_strict_dominance():
    p = poly1({2: 0, 1: 1, 0: 0})
    for alpha, (coeff, witness) in extremal_monomials(p).items():
        for beta, c in p.terms.items():
            if beta == alpha:
                continue
            lhs = coeff + alpha[0] * witness[0]
            rhs = c + beta[0] * witness[0]
            assert lhs > rhs


def test_envelope_examples():
    assert envelope_value(poly1({2: 0, 0: 6}), (1,)) == 3
    assert envelope_value(poly1({2: 0, 1: 3, 0: 4}), (1,)) == 3
    assert envelope_value(poly1({2: 0, 1: 3, 0: 4}), (2,)) == 0
    with pytest.raises(DomainError):
        envelope_value(poly1({2: 0, 0: 6}), (3,))


def test_envelope_agrees_with_barycentric_lp(rng):
    # dual route: the facet evaluation must match the linear program
    for _ in range(25):
        p = rand_bivariate(rng, max_support=5, max_exp=3)
        exps = sorted(p.terms)
        mins = [min(e[i] for e in exps) for i in range(2)]
        maxs = [max(e[i] for e in exps) for i in range(2)]
        for gamma in [
            (rng.randint(mins[0], maxs[0]), rng.randint(mins[1], maxs[1]))
            for _ in range(4)
        ]:
            m = len(exps)
            constraints = []
            for j in range(2):
                coeffs = tuple(Fraction(e[j]) for e in exps)
                constraints.append(
                    Constraint(AffineForm(coeffs, Fraction(-gamma[j])), "=")
                )
            constraints.append(
                Constraint(AffineForm((Fraction(1),) * m, Fraction(-1)), "=")
            )
            for i in range(m):
                unit = tuple(Fraction(1 if t == i else 0) for t in range(m))
                constraints.append(Constraint(AffineForm(unit, Fraction(0)), ">="))
            objective = AffineForm(tuple(p.terms[e] for e in exps), Fraction(0))
            from tropoly.errors import InfeasibleError

            try:
                expected = lp_max(objective, InequalitySystem(m, constraints))
            except InfeasibleError:
                expected = None
            if expected is None:
                with pytest.raises(DomainError):
                    envelope_value(p, gamma)
            else:
                assert envelope_value(p, gamma) == expected


def test_canonicalize_examples():
    assert canonicalize(poly1({2: 0, 1: 0, 0: 0})) == canonicalize(poly1({2: 0, 0: 0}))
    r = Polynomial(1, {(1,): 0, (0,): 0})
    assert canonicalize(r * poly1({2: 0, 0: 0})) == canonicalize(
        r * poly1({2: 0, 1: 0, 0: 0})
    )
    assert canonicalize(poly1({2: 0, 0: 6})).max_representative() == poly1(
        {2: 0, 1: 3, 0: 6}
    )


def test_zero_class():
    z = canonicalize(Polynomial.zero(2))
    assert z.is_zero
    assert z == canonicalize(Polynomial.zero(2))
    assert z != canonicalize(ONE2)
    assert rat_add(z, canonicalize(X)) == canonicalize(X)
    assert rat_mul(z, canonicalize(X)).is_zero


def test_rational_arithmetic_examples():
    assert rat_pow(canonicalize(X + Y), 3) == canonicalize(
        Polynomial(2, {(3, 0): 0, (0, 3): 0})
    )
    x0 = canonicalize(poly1({1: 0, 0: 3}))
    assert rat_mul(x0, x0) == canonicalize(poly1({2: 0, 0: 6}))
    r = canonicalize(rand := poly1({3: 2, 1: 5, 0: 0}))
    assert rat_add(r, canonicalize(Polynomial.zero(1))) == r


def test_rat_pow_matches_convolution(rng):
    for _ in range(25):
        p = rand_bivariate(rng, max_support=4, max_exp=3)
        k = rng.randint(1, 4)
        power = rat_pow(canonicalize(p), k)
        assert power == canonicalize(p**k)
        for alpha, witness in power.witnesses.items():
            value = power.extremal_terms[alpha] + sum(
                a * w for a, w in zip(alpha, witness)
            )
            for beta, c in power.extremal_terms.items():
                if beta != alpha:
                    assert value > c + sum(b * w for b, w in zip(beta, witness))


def test_rat_equal_examples():
    eq, _ = rat_equal(canonicalize(poly1({2: 0, 1: 0, 0: 0})), canonicalize(poly1({2: 0, 0: 0})))
    assert eq
    eq, witness = rat_equal(canonicalize(poly1({1: 0, 0: 0})), canonicalize(poly1({1: 0})))
    assert not eq and witness == (Fraction(-1),)
    r = canonicalize(rand_bivariate_fixed())
    assert rat_equal(r, r) == (True, None)


def rand_bivariate_fixed():
    return X * Y + X.scale(2) + ONE2


def test_rat_equal_zero_class_witness():
    from tropoly.semifield import BOTTOM

    z = canonicalize(Polynomial.zero(2))
    r = canonicalize(X + Y.scale(3))
    equal, witness = rat_equal(z, r)
    assert not equal
    assert z.min_representative()(witness) is BOTTOM
    assert r.min_representative()(witness) is not BOTTOM


def test_rat_equal_witness_separates(rng):
    for _ in range(60):
        p = canonicalize(rand_bivariate(rng, max_support=5, max_exp=3))
        q = canonicalize(rand_bivariate(rng, max_support=5, max_exp=3))
        equal, witness = rat_equal(p, q)
        if equal:
            for _ in range(200):
                x = rand_point(rng, 2)
                assert p.min_representative()(x) == q.min_representative()(x)
        else:
            assert p.min_representative()(witness) != q.min_representative()(witness)


def test_equal_classes_evaluate_equal_everywhere(rng):
    # construct distinct representatives of one class by saturating a term
    for _ in range(40):
        p = rand_bivariate(rng, max_support=4, max_exp=3)
        r = canonicalize(p)
        maxrep = r.max_representative()
        if len(maxrep.terms) == len(r.extremal_terms):
            continue
        assert canonicalize(maxrep) == r
        for _ in range(50):
            x = rand_point(rng, 2)
            assert maxrep(x) == p(x)


def test_divide_examples():
    p = canonicalize((X + Y + ONE2) ** 2)
    q = canonicalize(X + Y + ONE2)
    assert divide(p, q) == q
    num = canonicalize(poly1({2: 0, 1: 3, 0: 4}))
    den = canonicalize(poly1({1: 0, 0: 1}))
    assert divide(num, den) == canonicalize(poly1({1: 0, 0: 3}))
    assert divide(canonicalize(poly1({1: 0, 0: 0})), canonicalize(poly1({2: 0}))) is None
    with pytest.raises(DomainError):
        divide(num, canonicalize(Polynomial.zero(1)))


def test_divide_verifies_by_product(rng):
    for index in range(40):
        p = canonicalize(rand_bivariate(rng, max_support=4, max_exp=2))
        q = canonicalize(rand_bivariate(rng, max_support=4, max_exp=2))
        product = rat_mul(p, q)
        cofactor = divide(product, p)
        assert cofactor is not None
        assert rat_mul(p, cofactor) == product
        if index < 10:
            # the residuation comes out envelope-saturated already
            fresh = canonicalize(cofactor.min_representative())
            assert cofactor.max_representative() == fresh.max_representative()


def test_divide_none_is_honest(rng):
    # whenever divide fails, no cofactor on the residuation support can
    # reproduce the numerator: raising any coefficient overshoots somewhere
    tried = 0
    for _ in range(200):
        if tried >= 25:
            break
        num = canonicalize(rand_bivariate(rng, max_support=4, max_exp=3))
        den = canonicalize(rand_bivariate(rng, max_support=3, max_exp=2))
        if divide(num, den) is not None:
            continue
        tried += 1
        env_num = num.envelope()
        env_den = den.envelope()
        den_lattice = env_den.lattice()
        candidates = {}
        for beta in env_num.lattice():
            values = []
            ok = True
            for alpha in den_lattice:
                shifted = tuple(a + b for a, b in zip(alpha, beta))
                v = env_num.value(shifted)
                if v is None:
                    ok = False
                    break
                values.append(v - env_den.value(alpha))
            if ok and values:
                candidates[beta] = min(values)
        if not candidates:
            continue  # the Newton polytopes already obstruct
        residuated = rat_mul(den, canonicalize(Polynomial(2, candidates)))
        assert rat_equal(residuated, num)[0] is False
        # bump one candidate coefficient: the product must now exceed num
        beta = sorted(candidates)[0]
        bumped = dict(candidates)
        bumped[beta] += 1
        prod = den.min_representative() * Polynomial(2, bumped)
        found = False
        for x in (rand_point(rng, 2) for _ in range(60)):
            if prod(x) > num.min_representative()(x):
                found = True
                break
        if not found:
            # fall back to the exact separating witness
            eq, witness = rat_equal(rat_mul(den, canonicalize(Polynomial(2, bumped))), num)
            assert not eq
            found = prod(witness) != num.min_representative()(witness)
        assert found


def test_divides_power_examples():
    p = canonicalize(X + Y + ONE2)
    q = canonicalize((X + Y + ONE2).scale(2))
    k, cofactor = divides_power(p, q, 64)
    assert k == 1 and cofactor == canonicalize(ONE2.scale(2))
    p = canonicalize(Polynomial(2, {(1, 0): 0, (0, 0): 0}))
    q = canonicalize(
        Polynomial(2, {(1, 0): 0, (0, 0): 0}) * Polynomial(2, {(0, 1): 0, (0, 0): 0})
    )
    k, cofactor = divides_power(p, q, 64)
    assert k == 1 and cofactor == canonicalize(Polynomial(2, {(0, 1): 0, (0, 0): 0}))
    assert divides_power(
        canonicalize(poly1({1: 0, 0: 0})), canonicalize(poly1({1: 0, 0: 1})), 16
    ) is None
    # equal one-point varieties, but the exponent only works from k = 2
    k, cofactor = divides_power(
        canonicalize(poly1({2: 0, 0: 0})), canonicalize(poly1({1: 0, 0: 0})), 64
    )
    assert k == 2 and cofactor == canonicalize(Polynomial.constant(1, 0))


def test_power_cancel_examples():
    p = canonicalize(poly1({1: 0, 0: 0}))
    assert power_cancel(p, canonicalize(poly1({1: 0, 0: 0})), 2)
    assert not power_cancel(
        canonicalize(poly1({1: 0, 0: 3})), canonicalize(poly1({1: 0, 0: 2})), 5
    )
    q = canonicalize(rand_bivariate_fixed())
    for m in (1, 2, 3):
        assert power_cancel(q, q, m)


def test_power_cancellation_equivalence(rng):
    for _ in range(40):
        p = canonicalize(rand_bivariate(rng, max_support=4, max_exp=3))
        q = canonicalize(rand_bivariate(rng, max_support=4, max_exp=3))
        expected = rat_equal(p, q)[0]
        for m in (2, 3, 5):
            assert power_cancel(p, q, m) == expected


def test_simplifiability(rng):
    for _ in range(30):
        r = canonicalize(rand_bivariate(rng, max_support=3, max_exp=2))
        p = canonicalize(rand_bivariate(rng, max_support=5, max_exp=2))
        q = canonicalize(rand_bivariate(rng, max_support=5, max_exp=2))
        lhs = rat_equal(rat_mul(r, p), rat_mul(r, q))[0]
        assert lhs == rat_equal(p, q)[0]


def test_envelope_idempotence(rng):
    for _ in range(30):
        r = canonicalize(rand_bivariate(rng, max_support=5, max_exp=3))
        assert canonicalize(r.max_representative()) == r
        assert canonicalize(r.min_representative()) == r


def test_newton_additivity(rng):
    for _ in range(30):
        p = canonicalize(rand_bivariate(rng, max_support=4, max_exp=3))
        q = canonicalize(rand_bivariate(rng, max_support=4, max_exp=3))
        product = rat_mul(p, q)
        allowed = set(
            minkowski_sum(sorted(p.extremal_terms), sorted(q.extremal_terms))
        )
        assert set(product.extremal_terms) <= allowed


def test_three_variable_classes(rng):
    # exercises envelopes of hull dimension three
    from conftest import rand_coeff

    for _ in range(6):
        support = set()
        while len(support) < 4:
            support.add(tuple(rng.randint(0, 2) for _ in range(3)))
        p = Polynomial(3, {e: rand_coeff(rng, -5, 5, 2) for e in support})
        r = canonicalize(p)
        assert rat_pow(r, 2) == canonicalize(p**2)
        assert canonicalize(r.max_representative()) == r
        q = canonicalize(Polynomial(3, {(0, 0, 0): 0, (1, 1, 0): rand_coeff(rng)}))
        product = rat_mul(r, q)
        cofactor = divide(product, q)
        assert cofactor is not None and rat_mul(q, cofactor) == product


def test_collinear_support_classes(rng):
    from conftest import rand_coeff

    for _ in range(20):
        direction = (rng.randint(0, 2), rng.randint(1, 2))
        base = (rng.randint(0, 2), rng.randint(0, 2))
        terms = {
            tuple(b + t * d for b, d in zip(base, direction)): rand_coeff(rng, -5, 5, 2)
            for t in range(3)
        }
        p = Polynomial(2, terms)
        r = canonicalize(p)
        assert canonicalize(r.max_representative()) == r
        assert rat_pow(r, 3) == canonicalize(p**3)


def test_arity_mismatch_rejected():
    with pytest.raises(UsageError):
        rat_mul(canonicalize(X), canonicalize(poly1({1: 0})))


def _barycentric_value(lift, gamma):
    """Reference envelope value: the barycentric program, maximize the
    lifted values over convex weights hitting gamma, solved by
    enumerating its basic solutions (weights on rank-many points); None
    outside the Newton polytope."""
    exps = sorted(lift)
    rows = [
        tuple(Fraction(e[j]) for e in exps) + (Fraction(gamma[j]),)
        for j in range(len(gamma))
    ]
    rows.append((Fraction(1),) * len(exps) + (Fraction(1),))
    rank = matrix_rank(rows)
    best = None
    for support in itertools.combinations(range(len(exps)), rank):
        equations = [(tuple(row[i] for i in support), -row[-1]) for row in rows]
        weights = solve_unique(equations, rank)
        if weights is None or any(w < 0 for w in weights):
            continue
        value = sum(w * lift[exps[i]] for w, i in zip(weights, support))
        if best is None or value > best:
            best = value
    return best


_coeff = st.fractions(min_value=-6, max_value=6, max_denominator=3)


@st.composite
def _lifts(draw):
    """Lifted supports in 1-3 variables with exponents 0-3: free ones,
    and collinear or coplanar ones whose hull has lower dimension."""
    arity = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(0, 3)] * arity)
    shape = draw(st.sampled_from(["free", "line", "plane"]))
    if shape == "free":
        support = set(draw(st.lists(vec, min_size=1, max_size=7)))
    else:
        base = draw(vec)
        step = st.tuples(*[st.integers(-1, 1)] * arity).filter(any)
        steps = [draw(step) for _ in range(1 if shape == "line" else 2)]
        combos = draw(st.lists(st.tuples(*[st.integers(0, 2)] * len(steps)),
                               min_size=2, max_size=7))
        support = {
            tuple(b + sum(c * d[i] for c, d in zip(combo, steps)) for i, b in enumerate(base))
            for combo in combos
        }
    return {e: draw(_coeff) for e in sorted(support)}


def _box(lift):
    exps = list(lift)
    return itertools.product(
        *(range(min(e[i] for e in exps), max(e[i] for e in exps) + 1)
          for i in range(len(exps[0])))
    )


@settings(derandomize=True, database=None, max_examples=250, deadline=None)
@given(_lifts(), st.integers(2, 3))
def test_envelope_against_barycentric_enumeration(lift, k):
    env = _Envelope(lift)
    expected = {}
    for gamma in _box(lift):
        value = _barycentric_value(lift, gamma)
        assert env.value(gamma) == value
        assert env.contains(gamma) == (value is not None)
        if value is not None:
            expected[gamma] = value
    lattice = env.lattice()
    assert lattice == expected and list(lattice) == sorted(expected)
    scaled = env.scaled(k)
    fresh = _Envelope({tuple(k * x for x in e): k * v for e, v in lift.items()})
    assert scaled.lattice() == fresh.lattice()
    for gamma in _box(fresh.hull.points):
        assert scaled.value(gamma) == fresh.value(gamma)


def _extremal_by_fm_per_term(p):
    """The reference extremal map: one Fourier-Motzkin run per term
    against every other term."""
    expected = {}
    for alpha, c_alpha in p.terms.items():
        opponents = {b: c for b, c in p.terms.items() if b != alpha}
        system = InequalitySystem(p.arity, monomial_versus_constraints(alpha, c_alpha, opponents))
        feasible, witness = is_strictly_feasible(system)
        if feasible:
            expected[alpha] = (c_alpha, witness)
    return expected


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(0, 12), _coeff, min_size=1, max_size=10),
       st.fractions(min_value=-2, max_value=2, max_denominator=2))
def test_univariate_extremal_terms_against_fm_per_term(coeffs, slope):
    # a slope through the coefficients puts some terms on chain segments
    p = poly1({e: c if e % 3 else slope * e for e, c in coeffs.items()})
    assert extremal_monomials(p) == _extremal_by_fm_per_term(p)


@st.composite
def _supports_with_ties(draw):
    """Polynomials in 0, 2 or 3 variables with exponents 0-10: free, one-term,
    collinear and coplanar supports, with free heights, tied heights, or
    heights on one affine function plus a few lifted off it, so that many
    terms tie on faces of the upper hull."""
    arity = draw(st.sampled_from([0, 2, 3]))
    vec = st.tuples(*[st.integers(0, 4)] * arity)
    shape = draw(st.sampled_from(["free", "one", "line", "plane"]))
    if shape == "free":
        support = set(draw(st.lists(vec, min_size=1, max_size=9)))
    elif shape == "one" or arity == 0:
        support = {draw(vec)}
    else:
        base = draw(st.tuples(*[st.integers(4, 6)] * arity))
        step = st.tuples(*[st.integers(-1, 1)] * arity).filter(any)
        steps = [draw(step) for _ in range(1 if shape == "line" else 2)]
        combos = draw(st.lists(st.tuples(*[st.integers(0, 2)] * len(steps)),
                               min_size=2, max_size=9))
        support = {
            tuple(b + sum(c * d[i] for c, d in zip(combo, steps)) for i, b in enumerate(base))
            for combo in combos
        }
    heights = draw(st.sampled_from(["free", "tied", "affine"]))
    if heights == "free":
        terms = {e: draw(_coeff) for e in support}
    elif heights == "tied":
        level = st.sampled_from([Fraction(0), Fraction(1, 2)])
        terms = {e: draw(level) for e in support}
    else:
        slope = [draw(_coeff) for _ in range(arity)]
        offset = draw(_coeff)
        terms = {e: offset + sum(g * x for g, x in zip(slope, e)) for e in support}
        for e in draw(st.lists(st.sampled_from(sorted(support)), max_size=2)):
            terms[e] += draw(st.sampled_from([Fraction(-1, 3), Fraction(1, 2)]))
    return Polynomial(arity, terms)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_supports_with_ties(), st.integers(2, 3))
def test_extremal_terms_against_fm_per_term(p, k):
    expected = _extremal_by_fm_per_term(p)
    assert extremal_monomials(p) == expected
    r = canonicalize(p)
    assert r.extremal_terms == {e: c for e, (c, _) in expected.items()}
    assert r.witnesses == {e: w for e, (_, w) in expected.items()}
    # a power scales the witnesses computed before it, or computes its own
    scaled = {tuple(k * x for x in e): w for e, (_, w) in expected.items()}
    assert rat_pow(r, k).witnesses == scaled
    assert rat_pow(canonicalize(p), k).witnesses == scaled

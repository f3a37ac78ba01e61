from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropoly.canon import canonicalize, rat_mul
from tropoly.errors import DomainError, UsageError
from tropoly.polynomial import Polynomial
from tropoly.semifield import BOTTOM
from tropoly.univariate import (
    RootMultiset,
    adjoin_nth_root,
    expand_factorization,
    factor,
    newton_polygon,
    root_ideal_member,
    roots,
)

from conftest import rand_coeff, rand_univariate


def poly1(mapping):
    return Polynomial(1, {(e,): c for e, c in mapping.items()})


def test_roots_examples():
    assert roots(poly1({2: 0, 1: 3, 0: 4})) == RootMultiset(
        ((Fraction(3), 1), (Fraction(1), 1)), 0
    )
    assert roots(poly1({2: 0, 0: 6})) == RootMultiset(((Fraction(3), 2),), 0)
    c = Fraction(-7, 3)
    assert roots(poly1({1: 0, 0: c})) == RootMultiset(((c, 1),), 0)
    with pytest.raises(DomainError):
        roots(Polynomial.zero(1))


def test_roots_pass_zero_test():
    p = poly1({2: 0, 1: 3, 0: 4})
    for r, _ in roots(p).roots:
        assert p.is_zero_at((r,))


def test_valuation_reported_separately():
    p = poly1({3: 1, 1: 0})
    multiset = roots(p)
    assert multiset.bottom_multiplicity == 1
    assert p.is_zero_at((BOTTOM,))
    assert multiset.total_multiplicity() == 3


def test_factor_examples():
    leading, multiset = factor(poly1({2: 0, 1: 3, 0: 4}))
    assert leading == 0
    assert multiset.roots == ((Fraction(3), 1), (Fraction(1), 1))
    assert expand_factorization(leading, multiset) == poly1({2: 0, 1: 3, 0: 4})
    leading, multiset = factor(poly1({2: 0, 0: 6}))
    assert expand_factorization(leading, multiset) == poly1({2: 0, 1: 3, 0: 6})
    leading, multiset = factor(poly1({1: 5}))
    assert leading == 5
    assert multiset == RootMultiset((), 1)


def test_factor_round_trip_random(rng):
    for _ in range(150):
        p = rand_univariate(rng, max_deg=8)
        leading, multiset = factor(p)
        assert expand_factorization(leading, multiset) == canonicalize(
            p
        ).max_representative()


def test_root_bound(rng):
    for _ in range(200):
        p = rand_univariate(rng, max_deg=10)
        multiset = roots(p)
        assert len(multiset.finite_roots()) <= p.degree()
        assert multiset.total_multiplicity() == p.degree()
        # strictly decreasing order
        finite = multiset.finite_roots()
        assert all(a > b for a, b in zip(finite, finite[1:]))


def test_roots_complete_against_tie_scan(rng):
    # oracle: candidate roots are the pairwise tie points; exact zero test
    for _ in range(80):
        p = rand_univariate(rng, max_deg=7)
        exps = sorted(p.terms)
        candidates = set()
        for idx, (i,) in enumerate(exps):
            for (j,) in exps[idx + 1 :]:
                candidates.add((p.terms[(i,)] - p.terms[(j,)]) / (j - i))
        expected = sorted(
            (c for c in candidates if p.is_zero_at((c,))), reverse=True
        )
        assert expected == list(roots(p).finite_roots())


def test_roots_of_products_union(rng):
    for _ in range(60):
        p = rand_univariate(rng, max_deg=5)
        q = rand_univariate(rng, max_deg=5)
        combined = {}
        for r, m in roots(p).roots:
            combined[r] = combined.get(r, 0) + m
        for r, m in roots(q).roots:
            combined[r] = combined.get(r, 0) + m
        product_roots = roots(p * q)
        assert dict(product_roots.roots) == combined
        assert (
            product_roots.bottom_multiplicity
            == roots(p).bottom_multiplicity + roots(q).bottom_multiplicity
        )


def test_adjoin_nth_root_examples():
    assert adjoin_nth_root(Fraction(6), 2) == 3
    assert adjoin_nth_root(Fraction(-5), 1) == -5
    assert adjoin_nth_root(Fraction(-5), 3) == Fraction(-5, 3)
    with pytest.raises(DomainError):
        adjoin_nth_root(BOTTOM, 2)


def test_adjoined_root_is_a_root(rng):
    from tropoly.semifield import MAXPLUS

    for _ in range(60):
        a = rand_coeff(rng)
        n = rng.randint(1, 6)
        r = adjoin_nth_root(a, n)
        assert MAXPLUS.pow(r, n) == a
        assert Polynomial(1, {(n,): 0, (0,): a}).is_zero_at((r,))


def test_root_ideal_member_examples():
    p = poly1({2: 0, 1: 3, 0: 4})
    assert root_ideal_member(p, Fraction(1))
    assert not root_ideal_member(p, Fraction(2))
    x = Fraction(-9, 2)
    assert root_ideal_member(poly1({1: 0, 0: x}), x)


def test_root_ideal_matches_zero_test(rng):
    for _ in range(100):
        p = rand_univariate(rng, max_deg=6)
        if rng.random() < 0.5 and roots(p).roots:
            x = rng.choice(roots(p).finite_roots())
        else:
            x = rand_coeff(rng)
        assert root_ideal_member(p, x) == p.is_zero_at((x,))


def test_linear_power_canonical_form(rng):
    for _ in range(30):
        x0 = rand_coeff(rng)
        k = rng.randint(1, 6)
        linear = canonicalize(poly1({1: 0, 0: x0}))
        power = canonicalize(poly1({1: 0, 0: x0}) ** k)
        assert power == canonicalize(poly1({k: 0, 0: x0 * k}))
        prod = linear
        for _ in range(k - 1):
            prod = rat_mul(prod, linear)
        assert prod == power


def test_newton_polygon_matches_extremal_set(rng):
    for _ in range(60):
        p = rand_univariate(rng, max_deg=8)
        from tropoly.canon import extremal_monomials

        hull = {(e,) for e, _ in newton_polygon(p)}
        assert hull == set(extremal_monomials(p))


def _dominant_points(points):
    """Points (e, c) whose monomial c + e*x strictly beats every other one
    for some real x: the open interval (lo, hi) left by the others is
    non-empty.  Decided point by point, without building a hull."""
    out = []
    for e, c in points:
        lo = hi = None
        for f, d in points:
            if f < e:  # c + e*x > d + f*x  iff  x > (d - c) / (e - f)
                bound = (d - c) / (e - f)
                lo = bound if lo is None else max(lo, bound)
            elif f > e:  # iff x < (c - d) / (f - e)
                bound = (c - d) / (f - e)
                hi = bound if hi is None else min(hi, bound)
        if lo is None or hi is None or lo < hi:
            out.append((e, c))
    return out


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    st.dictionaries(
        st.integers(0, 12),
        st.fractions(min_value=-6, max_value=6, max_denominator=2),
        min_size=1,
        max_size=9,
    )
)
def test_newton_polygon_against_dominance_check(mapping):
    p = poly1(mapping)
    assert newton_polygon(p) == _dominant_points(sorted((e[0], c) for e, c in p.terms.items()))


def test_arity_guard():
    with pytest.raises(UsageError):
        roots(Polynomial(2, {(1, 0): 0}))

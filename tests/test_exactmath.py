import random
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest
from hypothesis import given, strategies as st
from sympy import QQ, QQ_I, Matrix, Poly, factorint, isprime, linsolve, nextprime, symbols
from sympy.polys.matrices import DomainMatrix

from nctoric.exactmath import (Echelon, GaussRational, I, ONE, ZERO, format_gauss, hnf,
                               linear_feasible, parse_gauss)
from nctoric import qimatrix
from nctoric.errors import ParseError
from nctoric.qimatrix import (gauss_int_divisors, minimal_polynomial, poly_divmod,
                              qi_nullspace, qi_poly_roots, qim_add, qim_identity, qim_inverse,
                              qim_is_zero, qim_mul, qim_rank, qim_zero, solve_corner_inverse)
from oracles import (InsertionEchelon, gauss_divisors_by_scan, int_matmul,
                     poly_eval_matrix, qi_solve, qim_from_rows)

gauss = st.builds(GaussRational,
                  st.fractions(max_denominator=12),
                  st.fractions(max_denominator=12))


class TestGaussRational:
    @given(gauss, gauss, gauss)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @given(gauss)
    def test_inverse(self, a):
        if a:
            assert a * a.inverse() == ONE

    def test_literals(self):
        for text in ["0", "1", "-2/3", "i", "-i", "5i", "1+1/2i", "-3/4-2i"]:
            assert format_gauss(parse_gauss(text)) == text
        assert parse_gauss("(3/2+1/2i)") == GaussRational(Fraction(3, 2), Fraction(1, 2))
        with pytest.raises(ParseError):
            parse_gauss("1/0")
        with pytest.raises(ParseError):
            parse_gauss("")


# ---------------------------------------------------------------------------
# The (a + b i) / d scalar against a plain (Fraction, Fraction) reference
# ---------------------------------------------------------------------------

fractions = st.fractions(max_denominator=40)
pairs = st.tuples(fractions, fractions)


def _normalized(g):
    """g's fields are ints in lowest terms: d > 0 and gcd(a, b, d) = 1."""
    a, b, d = g._a, g._b, g._d
    return (all(type(v) is int for v in (a, b, d)) and d > 0
            and gcd(a, b, d) == 1)


def _agrees(g, pair):
    return _normalized(g) and (g.re, g.im) == pair


def _format_pair(re, im):
    if im == 0:
        return str(re)
    imtxt = {1: "i", -1: "-i"}.get(im, f"{im}i")
    if re == 0:
        return imtxt
    return f"{re}{imtxt}" if imtxt.startswith("-") else f"{re}+{imtxt}"


class TestScalarAgainstPairs:
    @given(pairs)
    def test_construction(self, x):
        assert _agrees(GaussRational(*x), x)
        assert _agrees(GaussRational(str(x[0]), str(x[1])), x)

    @given(pairs, pairs)
    def test_ring_operations(self, x, y):
        (r1, i1), (r2, i2) = x, y
        g, h = GaussRational(*x), GaussRational(*y)
        assert _agrees(g + h, (r1 + r2, i1 + i2))
        assert _agrees(g - h, (r1 - r2, i1 - i2))
        assert _agrees(g * h, (r1 * r2 - i1 * i2, r1 * i2 + i1 * r2))
        assert _agrees(-g, (-r1, -i1))
        assert g * GaussRational(r1, -i1) == r1 * r1 + i1 * i1
        n = r2 * r2 + i2 * i2
        if n:
            assert _agrees(g / h, ((r1 * r2 + i1 * i2) / n, (i1 * r2 - r1 * i2) / n))
        else:
            with pytest.raises(ZeroDivisionError):
                g / h

    @given(pairs, fractions, st.integers(-50, 50))
    def test_mixed_operands(self, x, f, k):
        r, i = x
        g = GaussRational(*x)
        for c in (f, k):
            assert _agrees(g + c, (r + c, i))
            assert _agrees(g - c, (r - c, i))
            assert _agrees(g * c, (r * c, i * c))
            if c:
                assert _agrees(g / c, (r / c, i / c))

    @given(pairs, pairs)
    def test_equality_and_hash(self, x, y):
        g, h = GaussRational(*x), GaussRational(*y)
        assert (g == h) == (x == y)
        assert (g != h) == (x != y)
        assert g == GaussRational(*x) and hash(g) == hash(GaussRational(*x))
        assert bool(g) == (x != (0, 0))
        if x[1] == 0:
            assert g == x[0]
            if x[0].denominator == 1:
                assert g == int(x[0])
        else:
            assert g != x[0]

    @given(pairs)
    def test_literals_round_trip(self, x):
        g = GaussRational(*x)
        text = format_gauss(g)
        assert text == _format_pair(*x) == str(g)
        assert _agrees(parse_gauss(text), x)
        assert _agrees(parse_gauss(f" ({text}) "), x)

    def test_immutable(self):
        g = GaussRational(1, 2)
        for name in ("re", "im", "_a", "_d", "other"):
            with pytest.raises(AttributeError):
                setattr(g, name, 0)
        assert _agrees(g, (1, 2))

    def test_non_string_literal(self):
        for value in (0.5, 1, None, ["1"]):
            with pytest.raises(ParseError):
                parse_gauss(value)


class TestHnf:
    def test_identity(self):
        h, u = hnf([[1, 0], [0, 1]])
        assert h == [[1, 0], [0, 1]] and u == [[1, 0], [0, 1]]

    def test_permutation(self):
        h, u = hnf([[0, 1], [1, 0]])
        assert h == [[1, 0], [0, 1]]
        assert int_matmul(u, [[0, 1], [1, 0]]) == h

    def test_defining_identities(self):
        m = [[2, 4], [1, 3]]
        h, u = hnf(m)
        assert h[0][0] == 1
        assert int_matmul(u, m) == h
        assert abs(Matrix(u).det()) == 1

    def test_random_property(self):
        rng = random.Random(11)
        for _ in range(60):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            h, u = hnf(m)
            assert int_matmul(u, m) == h
            assert abs(Matrix(u).det()) == 1


class TestHnfAgainstSympy:
    """The two square-matrix answers validate_fan reads off the Hermite
    normal form: |det| as the product of h's diagonal (a cone's index) and,
    at index 1, the inverse of the ray matrix as the transform u (whose
    columns are the cone's dual basis)."""

    @staticmethod
    def _random_square(rng):
        n = rng.randint(1, 4)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:
            # a dependent row makes the matrix singular
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                m[i] = [rng.randint(-2, 2) * x for x in m[j]]
        return m

    def test_diagonal_product_is_abs_det(self):
        rng = random.Random(41)
        singular = 0
        for _ in range(200):
            m = self._random_square(rng)
            h, _ = hnf(m)
            index = 1
            for i in range(len(m)):
                index *= h[i][i]
            det = Matrix(m).det()
            singular += det == 0
            assert index == abs(det)
        assert singular >= 20

    def test_unimodular_inverse(self):
        # hnf(m) is (I, m^-1) when |det m| = 1, and h is not I otherwise
        cases = []
        rng = random.Random(43)
        for _ in range(200):
            m = self._random_square(rng)
            # half of the matrices are made unimodular: a random product of
            # elementary row operations applied to the identity
            if rng.random() < 0.5:
                n = len(m)
                m = [[int(i == j) for j in range(n)] for i in range(n)]
                for _ in range(6):
                    i, j = rng.randrange(n), rng.randrange(n)
                    if i != j:
                        m[i] = [x + rng.randint(-2, 2) * y for x, y in zip(m[i], m[j])]
            cases.append(m)
        unimodular = 0
        for m in cases:
            h, u = hnf(m)
            identity = Matrix.eye(len(m))
            if abs(Matrix(m).det()) == 1:
                unimodular += 1
                assert (Matrix(h), Matrix(u)) == (identity, Matrix(m).inv())
            else:
                assert Matrix(h) != identity
        assert unimodular >= 60


class TestFeasibility:
    def test_infeasible(self):
        assert linear_feasible([((1,), 1), ((-1,), 0)], 1) is None

    def test_orthant(self):
        w = linear_feasible([((1, 0), 0), ((0, 1), 0)], 2)
        assert w is not None and w[0] >= 0 and w[1] >= 0

    def test_separating_functional(self):
        # cone(e1, e2) versus cone(-e1-e2, e2), shared ray e2
        ineqs = [((1, 0), 1),       # strictly positive on ray e1
                 ((0, 1), 0), ((0, -1), 0),   # zero on shared e2
                 ((1, 1), 1)]       # strictly negative on -e1-e2
        w = linear_feasible(ineqs, 2)
        assert w is not None
        m = (w[0], w[1])
        assert m[0] * 1 + m[1] * 0 > 0
        assert m[0] * 0 + m[1] * 1 == 0
        assert m[0] * (-1) + m[1] * (-1) < 0

    def test_planted_witness(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 3)
            x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
            ineqs = []
            for _ in range(rng.randint(1, 6)):
                coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
                val = sum(c * v for c, v in zip(coeffs, x))
                ineqs.append((tuple(coeffs), val - rng.randint(0, 3)))
            w = linear_feasible(ineqs, n)
            assert w is not None
            for coeffs, bound in ineqs:
                assert sum(c * v for c, v in zip(coeffs, w)) >= bound


class TestMinimalPolynomial:
    def test_idempotent(self):
        p = minimal_polynomial(qim_from_rows([[1, 0], [0, 0]]))
        assert p == [ZERO, GaussRational(-1), ONE]

    def test_nilpotent(self):
        p = minimal_polynomial(qim_from_rows([[0, 1], [0, 0]]))
        assert p == [ZERO, ZERO, ONE]

    def test_identity(self):
        p = minimal_polynomial(qim_identity(3))
        assert p == [GaussRational(-1), ONE]

    def test_annihilates(self):
        rng = random.Random(3)
        for _ in range(25):
            r = rng.randint(1, 3)
            a = [[GaussRational(rng.randint(-3, 3), rng.randint(-1, 1))
                  for _ in range(r)] for _ in range(r)]
            p = minimal_polynomial(a)
            assert p[-1] == ONE
            assert len(p) - 1 <= r * r
            assert qim_is_zero(poly_eval_matrix(p, a))


def _divisors_by_scan(z):
    return {GaussRational(a, b) for a, b in gauss_divisors_by_scan(z)}


class TestGaussDivisors:
    @given(st.tuples(st.integers(-40, 40), st.integers(-40, 40)).filter(any))
    def test_matches_scan(self, z):
        assert gauss_int_divisors(GaussRational(*z)) == _divisors_by_scan(z)

    @pytest.mark.parametrize("z", [(1, 0), (0, 1), (2, 0), (1, 1), (3, 0), (9, 0),
                                   (5, 0), (2, 1), (8, 8), (231, 0), (0, 49)])
    def test_units_primes_and_powers(self, z):
        assert gauss_int_divisors(GaussRational(*z)) == _divisors_by_scan(z)

    def test_zero_has_no_listed_divisors(self):
        assert gauss_int_divisors(ZERO) == []

    def test_large_rational_prime(self):
        # 1000000007 = 3 mod 4 stays prime in Z[i]: its divisors are the
        # units and its associates; trial division to its norm would not end
        p = GaussRational(1000000007)
        assert gauss_int_divisors(p) == {u * d for u in (ONE, -ONE, I, -I) for d in (ONE, p)}


class TestRationalPrimes:
    """The rational and Gaussian primes under a divisor search, against
    sympy and against a scan for the smallest two-square decomposition."""

    @given(st.integers(1, 10**4), st.sampled_from([1, 999961, 999983]), st.integers(0, 2))
    def test_prime_factors(self, small, big, power):
        # a large prime cofactor or its square ends the trial division
        n = small * big ** power
        assert qimatrix._primes(n) == sorted(factorint(n))

    @given(st.lists(st.integers(10**3, 10**8).map(nextprime), min_size=1, max_size=3),
           st.integers(1, 10**4))
    def test_rho_splits_what_trial_division_leaves(self, big, small):
        # up to three primes, repeats included, above where trial division stops
        n = small * prod(big)
        assert qimatrix._primes(n) == sorted(factorint(n))

    @pytest.mark.parametrize("n", [
        100000037 * 200000033, 1000000009 * 1000000021, 1000003 ** 3,
        1009 * 1013 * (10**9 + 7),
        # above the bound trial division strips 2^90; rho splits the rest
        2**90 * 1000000009 * 1000000021])
    def test_two_large_primes(self, n):
        assert qimatrix._primes(n) == sorted(factorint(n))

    @pytest.mark.parametrize("n", [
        1, 2, 41, 43, 561, 3215031751, 3825123056546413051, 318665857834031151167461,
        10**18 + 9, (10**9 + 7) * (10**9 + 9), 3317044064679887385961979])
    def test_miller_rabin_below_its_bound(self, n):
        # 3825123056546413051 and 318665857834031151167461 are strong
        # pseudoprimes to every prime base up to 23 and 37
        assert qimatrix._is_prime(n) == isprime(n)

    def test_strong_pseudoprime_at_the_bound_is_left_to_trial_division(self):
        # 3317044064679887385961981 passes all 13 bases, so it is never tested
        assert qimatrix._prime_base(qimatrix._MR_BOUND) is None
        assert qimatrix._prime_base(qimatrix._MR_BOUND ** 2) is None
        assert qimatrix._prime_base((10**18 + 9) ** 2) == 10**18 + 9

    @given(st.one_of(st.integers(2, 10**5).filter(isprime), st.just(1000000000061)))
    def test_two_squares_match_the_scan(self, p):
        if p % 4 == 3:
            assert qimatrix._gauss_primes_over(p) == {GaussRational(p)}
            return
        a = next(a for a in range(1, isqrt(p) + 1) if isqrt(p - a * a) ** 2 == p - a * a)
        b = isqrt(p - a * a)
        assert qimatrix._gauss_primes_over(p) == {GaussRational(a, b), GaussRational(a, -b)}

class TestRoots:
    def test_gaussian_roots(self):
        # t^2 + 1 splits over Q(i)
        roots, rem = qi_poly_roots([ONE, ZERO, ONE])
        assert sorted(format_gauss(r) for r in roots) == ["-i", "i"]
        assert rem == []

    def test_inert(self):
        roots, rem = qi_poly_roots([GaussRational(2), ZERO, ONE])
        assert roots == [] and len(rem) == 3

    def test_rational(self):
        roots, rem = qi_poly_roots([GaussRational(2), GaussRational(-3), ONE])
        assert sorted(format_gauss(r) for r in roots) == ["1", "2"]
        assert rem == []

    def test_fractional_gaussian_roots(self):
        # (t - (1/2 + 3/2 i)) (t - 1)
        lam = GaussRational(Fraction(1, 2), Fraction(3, 2))
        poly = [lam, -(lam + ONE), ONE]
        roots, rem = qi_poly_roots(poly)
        assert sorted(format_gauss(r) for r in roots) == ["1", "1/2+3/2i"]
        assert rem == []

    def test_mixed_cubic(self):
        # (t - 2)(t^2 + 1) splits fully; (t - 2)(t^2 + 3) leaves the
        # inert quadratic behind
        split = [GaussRational(-2), ONE, GaussRational(-2), ONE]
        roots, rem = qi_poly_roots(split)
        assert sorted(format_gauss(r) for r in roots) == ["-i", "2", "i"]
        assert rem == []
        inert = [GaussRational(-6), GaussRational(3), GaussRational(-2), ONE]
        roots, rem = qi_poly_roots(inert)
        assert [format_gauss(r) for r in roots] == ["2"]
        assert len(rem) == 3


# ---------------------------------------------------------------------------
# Polynomial division and roots against sympy's QQ_I polynomials
# ---------------------------------------------------------------------------

T = symbols("t")


def _poly_to_sympy(coeffs):
    """A low-degree-first coefficient list as a QQ_I polynomial in t."""
    return Poly([_qqi(c) for c in reversed(coeffs)], T, domain=QQ_I)


def _poly_from_sympy(p):
    return [GaussRational(Fraction(c.x.numerator, c.x.denominator),
                          Fraction(c.y.numerator, c.y.denominator))
            for c in reversed(p.rep.to_list())]


def _random_nonzero_gauss(rng):
    while not (g := _random_gauss(rng)):
        pass
    return g


def _irreducible_quadratic(rng):
    """A random monic quadratic with no root in Q(i)."""
    while True:
        q = _poly_to_sympy([_random_gauss(rng), _random_gauss(rng), ONE])
        if len(q.factor_list()[1]) == 1:
            return q


def _in_order(values):
    return sorted(values, key=lambda g: (g.re, g.im))


class TestPolynomialsAgainstSympy:
    def test_divmod(self):
        rng = random.Random(11)
        for _ in range(80):
            num = [_random_gauss(rng) for _ in range(rng.randint(0, 7))]
            den = [_random_gauss(rng) for _ in range(rng.randint(0, 3))]
            den += [_random_nonzero_gauss(rng)] + [ZERO] * rng.randint(0, 1)
            quot, rem = poly_divmod(num, den)
            want_quot, want_rem = _poly_to_sympy(num).div(_poly_to_sympy(den))
            assert quot == _poly_from_sympy(want_quot)
            assert rem == _poly_from_sympy(want_rem)

    def test_divmod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_divmod([ONE], [ZERO])

    def test_roots_of_planted_factors(self):
        # products of linear factors t - c (c may be 0 or repeat) and
        # quadratics irreducible over Q(i), under a random leading coefficient
        rng = random.Random(5)
        for _ in range(25):
            roots = [_random_gauss(rng) for _ in range(rng.randint(0, 4))]
            quadratics = [_irreducible_quadratic(rng) for _ in range(rng.randint(0, 2))]
            poly = _poly_to_sympy([_random_nonzero_gauss(rng)])
            for c in roots:
                poly *= _poly_to_sympy([-c, ONE])
            for q in quadratics:
                poly *= q
            got, rest = qi_poly_roots(_poly_from_sympy(poly))
            want = [-_poly_from_sympy(f)[0] for f, m in poly.factor_list()[1]
                    if f.degree() == 1 for _ in range(m)]
            assert _in_order(got) == _in_order(want) == _in_order(roots)
            unresolved = _poly_to_sympy([ONE])
            for q in quadratics:
                unresolved *= q
            assert rest == (_poly_from_sympy(unresolved.monic()) if quadratics else [])


# ---------------------------------------------------------------------------
# Exact linear algebra against sympy's QQ_I domain matrices
# ---------------------------------------------------------------------------

def _qqi(v):
    return QQ_I(QQ(v.re.numerator, v.re.denominator),
                QQ(v.im.numerator, v.im.denominator))


def _to_sympy(m, nrows=None, ncols=None):
    """m as a QQ_I DomainMatrix; give the shape when m has no rows or columns."""
    if nrows is None:
        nrows, ncols = len(m), len(m[0]) if m else 0
    return DomainMatrix([[_qqi(v) for v in row] for row in m], (nrows, ncols), QQ_I)


def _to_sympy_matrix(m):
    return _to_sympy(m).to_Matrix()


def _random_gauss(rng):
    return GaussRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                         Fraction(rng.randint(-2, 2), rng.randint(1, 2)))


def _random_qim(rng, nrows, ncols, rank=None):
    """Random matrix; with rank given, a product through that inner size,
    so its rank is at most that."""
    if rank is None:
        return [[_random_gauss(rng) for _ in range(ncols)] for _ in range(nrows)]
    if rank == 0:
        return [[ZERO] * ncols for _ in range(nrows)]
    return qim_mul(_random_qim(rng, nrows, rank), _random_qim(rng, rank, ncols))


def _random_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rank = rng.choice([None, rng.randint(0, min(nrows, ncols))])
        yield rng, _random_qim(rng, nrows, ncols, rank)


def _columns(m):
    return [list(col) for col in zip(*m)]


class TestQimMulAgainstSympy:
    def test_random_shapes(self):
        rng = random.Random(21)
        shapes = [(r, n, m) for r in range(4) for n in range(4) for m in range(4)]
        for r, n, m in shapes * 3:
            # a list with no rows cannot carry a column count, so a product
            # through an empty inner dimension has no columns
            if n == 0:
                m = 0
            a = _random_qim(rng, r, n)
            b = _random_qim(rng, n, m)
            if rng.random() < 0.3 and r and n:
                a[rng.randrange(r)] = [ZERO] * n
            prod = qim_mul(a, b)
            expect = (_to_sympy(a, r, n) * _to_sympy(b, n, m)).to_list()
            assert len(prod) == r and all(len(row) == m for row in prod)
            assert [[_qqi(v) for v in row] for row in prod] == expect
            assert all(_normalized(v) for row in prod for v in row)

    def test_large_denominators(self):
        rng = random.Random(22)
        for _ in range(20):
            a = [[GaussRational(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)),
                                Fraction(rng.randint(-9, 9), rng.randint(1, 97)))
                  for _ in range(3)] for _ in range(2)]
            b = _random_qim(rng, 3, 4)
            expect = (_to_sympy(a) * _to_sympy(b)).to_list()
            assert [[_qqi(v) for v in row] for row in qim_mul(a, b)] == expect


# ---------------------------------------------------------------------------
# The pivot-order echelon against the insertion-order one it replaced
# ---------------------------------------------------------------------------

nonzero_gauss = st.sampled_from([GaussRational(Fraction(a, d), b) for a in range(-2, 3)
                                  for b in range(-1, 2) for d in (1, 3) if a or b])
int_keys = st.integers(0, 7)
word_keys = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=3).map(
    lambda letters: (-len(letters), tuple(letters)))


@st.composite
def echelon_inputs(draw, keys):
    """(vectors to add, vectors to reduce): sparse Q(i) vectors, some of
    them combinations of earlier ones, so that some do not join."""
    sparse = st.dictionaries(keys, nonzero_gauss, max_size=5)
    vectors = []
    for _ in range(draw(st.integers(0, 8))):
        if vectors and draw(st.booleans()):
            vec = {}
            for j, c in draw(st.lists(st.tuples(st.integers(0, len(vectors) - 1),
                                                nonzero_gauss), min_size=1, max_size=3)):
                for k, v in vectors[j].items():
                    vec[k] = vec.get(k, ZERO) + c * v
            vec = {k: v for k, v in vec.items() if v}
        else:
            vec = draw(sparse)
        vectors.append(vec)
    return vectors, draw(st.lists(sparse, max_size=3))


def _echelon_answers(cls, vectors, probes, tagged):
    ech = cls()
    added = [ech.add(v, j if tagged else None) for j, v in enumerate(vectors)]
    reduced = [ech.reduce(v, track=tagged) for v in probes + vectors]
    solved = [ech.solve(v) for v in probes + vectors] if tagged else None
    return ech, (added, reduced, solved)


class TestEchelonAgainstInsertionOrder:
    @pytest.mark.parametrize("keys", [int_keys, word_keys], ids=["int", "word"])
    @given(data=st.data())
    def test_same_answers(self, keys, data):
        # add flags, combinations of dependent vectors, residuals, solutions
        # and the rows themselves, with and without tags
        vectors, probes = data.draw(echelon_inputs(keys))
        for tagged in (True, False):
            new, answers = _echelon_answers(Echelon, vectors, probes, tagged)
            old, expect = _echelon_answers(InsertionEchelon, vectors, probes, tagged)
            assert answers == expect
            assert new.rows == {piv: (rest, combo) for piv, rest, combo in old.rows}


class TestLinearAlgebraAgainstSympy:
    def test_rank(self):
        for _, a in _random_cases(11, 60):
            assert qim_rank(a) == _to_sympy(a).rank()

    def test_nullspace(self):
        for _, a in _random_cases(12, 60):
            basis = qi_nullspace(_columns(a))
            ncols = len(a[0])
            assert len(basis) == ncols - _to_sympy(a).rank()
            if basis:
                b = _to_sympy(basis)
                assert b.rank() == len(basis)
                assert (_to_sympy(a) * b.transpose()).is_zero_matrix

    def test_solve(self):
        solvable = unsolvable = 0
        for rng, a in _random_cases(13, 80):
            if rng.random() < 0.5:
                x = _random_qim(rng, len(a[0]), 1)
                target = [row[0] for row in qim_mul(a, x)]
            else:
                target = [_random_gauss(rng) for _ in a]
            sa = _to_sympy(a)
            expect = sa.hstack(_to_sympy([[t] for t in target])).rank() == sa.rank()
            sol = qi_solve(_columns(a), target)
            assert (sol is not None) == expect
            if sol is None:
                unsolvable += 1
                continue
            solvable += 1
            residual = sa * _to_sympy([[v] for v in sol]) - _to_sympy([[t] for t in target])
            assert residual.is_zero_matrix
        assert solvable and unsolvable

    def test_minimal_polynomial(self):
        rng = random.Random(14)
        for _ in range(30):
            r = rng.randint(1, 4)
            a = _random_qim(rng, r, r, rng.choice([None, rng.randint(0, r)]))
            if rng.random() < 0.3:
                # eigenvalue 1 repeats when a is rank-deficient
                a = qim_add(qim_mul(a, a), qim_identity(r))
            p = minimal_polynomial(a)
            sa = _to_sympy(a)
            acc = _to_sympy(qim_zero(r))
            power = _to_sympy(qim_identity(r))
            for c in p:
                acc = acc + power.mul(_qqi(c))
                power = power * sa
            assert p[-1] == ONE and acc.is_zero_matrix
            # the degree is the dimension of the span of the powers of a
            powers = []
            power = _to_sympy(qim_identity(r))
            for _ in range(r * r + 1):
                powers.append(sum(power.to_list(), []))
                power = power * sa
            span = DomainMatrix(powers, (len(powers), r * r), QQ_I).rank()
            assert len(p) - 1 == span

    def test_int_inverse_unimodular(self):
        # a unimodular matrix's inverse is the transform u of its Hermite
        # normal form, and h is the identity exactly when |det m| = 1
        m = [[2, 1, 0], [1, 1, 0], [0, 3, 1]]
        h, inv = hnf(m)
        assert h == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert int_matmul(m, inv) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert hnf([[2, 0], [0, 1]])[0] != [[1, 0], [0, 1]]
        assert hnf([[1, 2], [2, 4]])[0] != [[1, 0], [0, 1]]


def _random_idempotent(rng, r, rank):
    """P D P^-1 with D the diagonal of `rank` ones."""
    while True:
        p = _random_qim(rng, r, r)
        pinv = qim_inverse(p)
        if pinv is not None:
            d = [[ONE if i == j < rank else ZERO for j in range(r)] for i in range(r)]
            return qim_mul(qim_mul(p, d), pinv)


def _corner_inverse_oracle(e, a):
    """The unique X with X a = a X = e and e X e = X, from sympy's solver
    over the r^2 unknowns, or None when that system has no solution."""
    r = len(e)
    xs = symbols(f"x0:{r * r}")
    x, sa, se = Matrix(r, r, xs), _to_sympy_matrix(a), _to_sympy_matrix(e)
    eqs = list(x * sa - se) + list(sa * x - se) + list(se * x * se - x)
    sols = list(linsolve(eqs, xs))
    if not sols:
        return None
    assert not any(s.free_symbols for s in sols[0])
    return Matrix(r, r, list(sols[0]))


class TestCornerInverse:
    def test_random_compressions(self):
        rng = random.Random(15)
        for _ in range(12):
            r = rng.randint(1, 3)
            e = _random_idempotent(rng, r, rng.randint(1, r))
            a = qim_mul(qim_mul(e, _random_qim(rng, r, r)), e)
            x = solve_corner_inverse(e, a)
            assert x is not None
            assert qim_mul(x, a) == e and qim_mul(a, x) == e
            assert qim_mul(qim_mul(e, x), e) == x
            assert _corner_inverse_oracle(e, a) == _to_sympy_matrix(x)

    def test_singular_compression(self):
        rng = random.Random(16)
        for _ in range(5):
            e = _random_idempotent(rng, 3, 2)
            a = qim_mul(qim_mul(e, _random_qim(rng, 3, 3, rank=1)), e)
            assert solve_corner_inverse(e, a) is None
            assert _corner_inverse_oracle(e, a) is None

    def test_noncommuting(self):
        e = qim_from_rows([[1, 0], [0, 0]])
        a = qim_from_rows([[1, 1], [0, 1]])
        assert solve_corner_inverse(e, a) is None
        rng = random.Random(17)
        for _ in range(5):
            e = _random_idempotent(rng, 3, 2)
            a = _random_qim(rng, 3, 3)
            assert qim_mul(e, a) != qim_mul(a, e)
            assert solve_corner_inverse(e, a) is None
            assert _corner_inverse_oracle(e, a) is None

"""Matrices and polynomials over Q(i): products, ranks, nullspaces,
inverses and corner inverses, minimal polynomials, and exact roots in Q(i)
found by enumerating Gaussian-integer divisors. Every elimination goes
through `exactmath.Echelon`. A matrix product clears each operand to
integer matrices over one common denominator and normalizes each output
entry once.

Only the matrix-point layer (`azumaya`) reads this module, so the commands
that build charts, sheaves and sections never compile it.
"""
from __future__ import annotations

from itertools import count
from math import gcd, isqrt, lcm
from operator import mul

from .exactmath import I, ONE, ZERO, Echelon, GaussRational, _coerce, _make


def sparse_vector(values):
    """{index: entry} of the nonzero entries of a dense vector."""
    return {k: v for k, v in enumerate(values) if v}


# ---------------------------------------------------------------------------
# Matrices over Q(i)
# ---------------------------------------------------------------------------

def qim_identity(r):
    return [[ONE if i == j else ZERO for j in range(r)] for i in range(r)]


def qim_zero(r):
    return [[ZERO] * r for _ in range(r)]


def qim_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def qim_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def qim_scale(c, a):
    c = _coerce(c)
    return [[c * x for x in row] for row in a]


def _cleared(a):
    """(re, im, den): integer matrices with a = (re + i im) / den, den the lcm
    of the entry denominators."""
    den = lcm(*(v._d for row in a for v in row))
    re = [[v._a * (den // v._d) for v in row] for row in a]
    im = [[v._b * (den // v._d) for v in row] for row in a]
    return re, im, den


def qim_mul(a, b):
    """a b, as integer dot products over the product of the operands' common
    denominators, each output entry normalized once."""
    are, aim, da = _cleared(a)
    bre, bim, db = _cleared(b)
    d = da * db
    cols = list(zip(zip(*bre), zip(*bim)))
    out = []
    for xr, xi in zip(are, aim):
        out.append([_make(sum(map(mul, xr, yr)) - sum(map(mul, xi, yi)),
                          sum(map(mul, xr, yi)) + sum(map(mul, xi, yr)), d)
                    for yr, yi in cols])
    return out


def qim_is_zero(a):
    return all(not x for row in a for x in row)


def qim_flatten(a):
    return [x for row in a for x in row]


def qim_rank(a):
    ech = Echelon()
    for row in a:
        ech.add(sparse_vector(row))
    return len(ech.rows)


def qim_is_idempotent(a):
    return qim_mul(a, a) == a


def qi_nullspace(columns):
    """Basis of {x : sum x_j columns[j] = 0} over Q(i).

    One vector per column in the span of the earlier ones, in column order:
    that column minus its combination of them, which is the reduced
    row-echelon null vector of the column.
    """
    ncols = len(columns)
    ech = Echelon()
    basis = []
    for j, col in enumerate(columns):
        joined, combo = ech.add(sparse_vector(col), j)
        if not joined:
            x = [ZERO] * ncols
            x[j] = ONE
            for k, c in combo.items():
                x[k] = -c
            basis.append(x)
    return basis


def qim_inverse(a):
    """Inverse of a square Q(i)-matrix, or None when it is singular."""
    n = len(a)
    ech = Echelon()
    for i, row in enumerate(a):
        if not ech.add(sparse_vector(row), i)[0]:
            return None
    # row j of the inverse combines the rows of a into the unit vector e_j
    out = []
    for j in range(n):
        x = ech.solve({j: ONE})
        out.append([x.get(i, ZERO) for i in range(n)])
    return out


def solve_corner_inverse(e, a):
    """X with X a = a X = e and e X e = X, or None if no such X exists.

    Such an X is unique, and when it exists X + (I - e) inverts the
    compression e a e + (I - e); every identity is re-checked exactly.
    """
    f = qim_sub(qim_identity(len(e)), e)
    inv = qim_inverse(qim_add(qim_mul(qim_mul(e, a), e), f))
    if inv is None:
        return None
    x = qim_sub(inv, f)
    if qim_mul(x, a) == e and qim_mul(a, x) == e and qim_mul(qim_mul(e, x), e) == x:
        return x
    return None


# ---------------------------------------------------------------------------
# Polynomials over Q(i) and minimal polynomials
# ---------------------------------------------------------------------------

def minimal_polynomial(a):
    """Monic minimal polynomial of a square Q(i)-matrix.

    Coefficients are returned low degree first, with a trailing ONE.
    """
    ech = Echelon()
    power = qim_identity(len(a))
    k = 0
    while True:
        joined, combo = ech.add(sparse_vector(qim_flatten(power)), k)
        if not joined:
            # a^k = sum combo[j] a^j over the independent lower powers
            return [-combo.get(j, ZERO) for j in range(k)] + [ONE]
        power = qim_mul(power, a)
        k += 1


def poly_eval(poly, x):
    acc = ZERO
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def poly_derivative(poly):
    return [GaussRational(k) * poly[k] for k in range(1, len(poly))]


def _poly_trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _monic(p):
    return [c / p[-1] for c in p]


def poly_divmod(num, den):
    """(quotient, remainder) of num by den by long division, one step per
    shift of den from the highest down."""
    num, den = _poly_trim(num), _poly_trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [ZERO] * max(0, len(num) - len(den) + 1)
    rem = list(num)
    for shift in reversed(range(len(quot))):
        f = rem[shift + len(den) - 1] / den[-1]
        quot[shift] = f
        for i, c in enumerate(den):
            rem[shift + i] -= f * c
    return quot, _poly_trim(rem)


def poly_gcd(p, q):
    p, q = _poly_trim(p), _poly_trim(q)
    while q:
        _, r = poly_divmod(p, q)
        p, q = q, r
    return _monic(p) if p else p


def poly_squarefree(p):
    """p / gcd(p, p'), monic."""
    p = _poly_trim(p)
    q, r = poly_divmod(p, poly_gcd(p, poly_derivative(p)))
    if r:
        raise AssertionError("gcd(p, p') does not divide p")
    return _monic(q)


# --- Gaussian-integer divisor enumeration, for exact root finding ----------

# Miller-Rabin on the first 13 prime bases decides primality exactly below
# this bound (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981
# trial division runs this far before Pollard-Brent rho splits what is left
_RHO_FROM = 1000


def _is_prime(n):
    """Whether n, which must lie below _MR_BOUND, is prime."""
    if n < 2:
        return False
    if any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _prime_base(n):
    """q when n is a prime q or its square, else None; a number at or above
    _MR_BOUND counts as undecided."""
    if n < _MR_BOUND and _is_prime(n):
        return n
    q = isqrt(n)
    return q if q * q == n and q < _MR_BOUND and _is_prime(q) else None


def _primes(n):
    """The prime factors of the positive int n, ascending. Trial division
    stops once the cofactor left is a prime or a prime's square, or once it
    lies below _MR_BOUND with no prime factor below _RHO_FROM; Pollard-Brent
    rho then splits it, and each part, until every part is a prime or a
    prime's square."""
    primes = set()
    d = 2
    q = _prime_base(n)
    while q is None and d * d <= n and (d < _RHO_FROM or n >= _MR_BOUND):
        if n % d == 0:
            primes.add(d)
            while n % d == 0:
                n //= d
            q = _prime_base(n)
        d += 1
    parts = [n]
    while parts:
        m = parts.pop()
        q = _prime_base(m)
        if q is not None:
            primes.add(q)
        elif m >= _MR_BOUND:    # trial division passed its square root
            primes.add(m)
        elif m > 1:
            f = _rho_factor(m)
            parts += [f, m // f]
    return sorted(primes)


def _rho_factor(n):
    """A proper factor of the composite n, which has no prime factor below
    _RHO_FROM: Pollard's rho on the maps x -> x^2 + c for c = 1, 2, ... from
    x = 2, with Brent's cycle search (Brent, "An improved Monte Carlo
    factorization algorithm", BIT 20, 1980). A map whose cycle closes modulo
    n before modulo a prime factor gives n itself, and the next map runs."""
    for c in count(1):
        x = y = 2
        power = steps = 1
        g = 1
        while g == 1:
            if steps == power:
                x, power, steps = y, 2 * power, 0
            y = (y * y + c) % n
            steps += 1
            g = gcd(abs(x - y), n)
        if g != n:
            return g


def _gauss_primes_over(p):
    """The Gaussian primes over the rational prime p, up to units: p itself
    when p = 3 mod 4, else a + bi and a - bi with a^2 + b^2 = p and a <= b.

    The Euclidean algorithm on p and a square root of -1 mod p gives one of
    a and b as its first remainder below sqrt(p) (Hermite-Serret)."""
    if p % 4 == 3:
        return {GaussRational(p)}
    root = 1            # the square root of -1 mod 2
    if p > 2:
        c = 2           # c^((p-1)/4) for the first quadratic non-residue c
        while pow(c, (p - 1) // 2, p) != p - 1:
            c += 1
        root = pow(c, (p - 1) // 4, p)
    r0, r1 = p, root
    while r1 * r1 > p:
        r0, r1 = r1, r0 % r1
    a, b = sorted((r1, isqrt(p - r1 * r1)))
    if a * a + b * b != p:
        raise ValueError(f"no two-square decomposition for {p}")
    return {GaussRational(a, b), GaussRational(a, -b)}


def gauss_int_divisors(z):
    """All divisors in Z[i] of the Gaussian integer z (a GaussRational with
    denominator 1), unit multiples included. A rational prime under a
    Gaussian prime factor of z divides its content g = gcd(re, im) or the
    norm of its primitive part z / g, so trial division runs to sqrt(g) and
    to |z / g|, not to |z|. z is divided by each Gaussian prime over those
    primes as often as it divides; every factor split off multiplies the
    divisors found so far."""
    if not z:
        return []
    g = gcd(z._a, z._b)
    primitive_norm = (z._a ** 2 + z._b ** 2) // g ** 2
    divisors = {ONE}
    for p in {*_primes(g), *_primes(primitive_norm)}:
        for f in _gauss_primes_over(p):
            while (q := z / f)._d == 1:
                z = q
                divisors |= {d * f for d in divisors}
    return {d * u for d in divisors for u in (ONE, -ONE, I, -I)}


def qi_poly_roots(poly):
    """All Q(i) roots of the polynomial, plus the rootless cofactor.

    Returns (roots, remainder) where remainder is the monic factor with no
    Q(i) root (empty list when the polynomial splits completely). A root
    u / w has u dividing the constant and w the leading coefficient, once
    both are cleared to Gaussian integers.
    """
    p = _poly_trim(poly)
    roots = []
    while len(p) > 1:
        # strip roots at zero
        if not p[0]:
            roots.append(ZERO)
            p = p[1:]
            continue
        if len(p) == 2:     # a linear factor's root needs no divisor search
            candidates = [-p[0] / p[1]]
        else:
            denom = lcm(*(c._d for c in p))
            leads = gauss_int_divisors(p[-1] * denom)
            candidates = (u / w for u in gauss_int_divisors(p[0] * denom) for w in leads)
        found = next((c for c in candidates if not poly_eval(p, c)), None)
        if found is None:
            break
        roots.append(found)
        p, r = poly_divmod(p, [-found, ONE])
        if r:
            raise AssertionError(f"root {found} leaves a remainder")
    return roots, _monic(p) if len(p) > 1 else []

"""Exact arithmetic kernel: Gaussian rationals, integer lattice algebra by
Hermite normal form, one Fourier-Motzkin elimination for rational
feasibility and polytope lattice points, and one incremental echelon for all
linear algebra over Q(i). Matrices and polynomials over Q(i) live in
`qimatrix`, which only the matrix-point layer imports.

A scalar is a Z[i] numerator over one positive integer denominator, kept
in lowest terms, so every comparison in the rest of the package is an exact
algebraic identity; nothing here ever rounds.
"""
from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import ceil, floor, gcd, lcm

from .errors import Frozen, ParseError, UnboundedPolytope


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

class GaussRational(Frozen):
    """An element (a + b i) / d of Q(i), kept as three ints with d > 0 and
    gcd(a, b, d) = 1, so equal values have equal fields."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        # the lcm of two reduced denominators leaves gcd(a, b, d) = 1
        _set_a(self, re.numerator * (d // re.denominator))
        _set_b(self, im.numerator * (d // im.denominator))
        _set_d(self, d)

    @property
    def re(self):
        return Fraction(self._a, self._d)

    @property
    def im(self):
        return Fraction(self._b, self._d)

    # arithmetic ------------------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _make(self._a + other._a, self._b + other._b, d1)
        return _make(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1,
                     d1 * d2)

    def __sub__(self, other):
        other = _coerce(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _make(self._a - other._a, self._b - other._b, d1)
        return _make(self._a * d2 - other._a * d1, self._b * d2 - other._b * d1,
                     d1 * d2)

    def __mul__(self, other):
        other = _coerce(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    def __truediv__(self, other):
        other = _coerce(other)
        a1, b1, a2, b2, d2 = self._a, self._b, other._a, other._b, other._d
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        # (a1 + b1 i)/d1 * d2 (a2 - b2 i) / (a2^2 + b2^2)
        return _make((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * n)

    def __neg__(self):
        return _new(-self._a, -self._b, self._d)

    def inverse(self):
        return ONE / self

    # comparisons -------------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
        if not isinstance(other, GaussRational):
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_gauss(self)


_set_a = GaussRational._a.__set__
_set_b = GaussRational._b.__set__
_set_d = GaussRational._d.__set__


def _new(a, b, d):
    """(a + b i) / d from ints already normalized: d > 0, gcd(a, b, d) = 1."""
    g = object.__new__(GaussRational)
    _set_a(g, a)
    _set_b(g, b)
    _set_d(g, d)
    return g


def _make(a, b, d):
    """(a + b i) / d from ints with d > 0, normalized by one three-way gcd."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _new(a, b, d)


def _coerce(x):
    if isinstance(x, GaussRational):
        return x
    if isinstance(x, int):
        return _new(x, 0, 1)
    if isinstance(x, Fraction):
        return _new(x.numerator, 0, x.denominator)
    raise TypeError(f"cannot coerce {x!r} to GaussRational")


ZERO = GaussRational(0)
ONE = GaussRational(1)
I = GaussRational(0, 1)


def format_gauss(g):
    """Canonical literal: '3/2', 'i', '-2i', '1+1/2i', '1-i'."""
    if g.im == 0:
        return str(g.re)
    if g.im == 1:
        imtxt = "i"
    elif g.im == -1:
        imtxt = "-i"
    else:
        imtxt = f"{g.im}i"
    if g.re == 0:
        return imtxt
    if not imtxt.startswith("-"):
        imtxt = "+" + imtxt
    return f"{g.re}{imtxt}"


def parse_gauss(text):
    """Parse a Gaussian-rational literal; inverse of format_gauss.

    Accepts optional surrounding parentheses and whitespace.
    """
    if not isinstance(text, str):
        raise ParseError(f"Gaussian-rational literal must be a string, got {text!r}")
    s = text.strip().replace(" ", "")
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not s:
        raise ParseError(f"empty Gaussian-rational literal {text!r}")
    try:
        if "i" not in s:
            return GaussRational(Fraction(s))
        split = None
        for k in range(1, len(s)):
            if s[k] in "+-" and s[k - 1] not in "/+-":
                split = k
        if split is None:
            re_part, im_part = "0", s
        else:
            re_part, im_part = s[:split], s[split:]
        if not im_part.endswith("i"):
            raise ValueError("imaginary part must end in i")
        coef = im_part[:-1]
        if coef in ("", "+"):
            im = Fraction(1)
        elif coef == "-":
            im = Fraction(-1)
        else:
            im = Fraction(coef)
        return GaussRational(Fraction(re_part), im)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad Gaussian-rational literal {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Integer matrices (lists of lists of python ints)
# ---------------------------------------------------------------------------

def int_identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _row_op(a, u, i, j, q):
    # a[i] -= q * a[j], mirrored on the transform u
    if q == 0:
        return
    a[i] = [x - q * y for x, y in zip(a[i], a[j])]
    u[i] = [x - q * y for x, y in zip(u[i], u[j])]


def hnf(m):
    """Row Hermite normal form.

    Returns (h, u) with u unimodular and h = u*m; pivots positive, entries
    above each pivot reduced into [0, pivot).
    """
    a = [list(row) for row in m]
    nr = len(a)
    u = int_identity(nr)
    r = 0
    ncols = len(a[0]) if nr else 0
    for c in range(ncols):
        if r >= nr:
            break
        while True:
            nz = [i for i in range(r, nr) if a[i][c] != 0]
            if not nz:
                pivot = None
                break
            i0 = min(nz, key=lambda i: abs(a[i][c]))
            for i in nz:
                if i != i0:
                    _row_op(a, u, i, i0, a[i][c] // a[i0][c])
            nz = [i for i in range(r, nr) if a[i][c] != 0]
            if len(nz) == 1:
                pivot = nz[0]
                break
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            u[r], u[pivot] = u[pivot], u[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            _row_op(a, u, i, r, a[i][c] // a[r][c])
        r += 1
    return a, u


def lattice_solver(basis_rows):
    """Solver for integer x with x . basis_rows = target.

    The Hermite normal form of basis_rows (which need not be in any normal
    form) is computed once; the returned function forward-substitutes a
    target against it and gives x, or None when the target lies outside the
    row lattice.
    """
    h, u = hnf(basis_rows) if basis_rows else ([], [])
    pivots = [(i, next(j for j, v in enumerate(row) if v != 0))
              for i, row in enumerate(h) if any(v != 0 for v in row)]
    nbasis = len(basis_rows)

    def solve(target):
        y = {}
        residual = list(target)
        for i, piv in pivots:
            row = h[i]
            q, rem = divmod(residual[piv], row[piv])
            if rem:
                return None
            y[i] = q
            residual = [r - q * v for r, v in zip(residual, row)]
        if any(v != 0 for v in residual):
            return None
        # x . basis = y . h = (y . u) . basis
        return [sum(q * u[i][k] for i, q in y.items()) for k in range(nbasis)]

    return solve


# ---------------------------------------------------------------------------
# Fourier-Motzkin: rational feasibility and polytope lattice points
# ---------------------------------------------------------------------------

def _normalize_constraint(coeffs, bound):
    scale = None
    for v in coeffs:
        if v != 0:
            scale = abs(v)
            break
    if scale is None:
        scale = abs(bound) if bound != 0 else Fraction(1)
    return (tuple(v / scale for v in coeffs), bound / scale)


def fm_eliminate(system, nvars, k):
    """Remove variable k from the system of (coeffs, bound) pairs, each
    read as coeffs . x >= bound; returns (projected system, the pairs that
    bound x_k from below, the pairs that bound it from above)."""
    lowers, uppers, rest = [], [], []
    for (c, b) in system:
        if c[k] > 0:
            lowers.append((c, b))
        elif c[k] < 0:
            uppers.append((c, b))
        else:
            rest.append((c, b))
    seen = set()
    out = []
    for item in rest:
        key = _normalize_constraint(*item)
        if key not in seen:
            seen.add(key)
            out.append(item)
    for (cl, bl) in lowers:
        for (cu, bu) in uppers:
            lam, mu = -cu[k], cl[k]
            cc = tuple(lam * cl[j] + mu * cu[j] for j in range(nvars))
            bb = lam * bl + mu * bu
            item = (cc, bb)
            key = _normalize_constraint(*item)
            if key not in seen:
                seen.add(key)
                out.append(item)
    return out, lowers, uppers


def _fm_layers(ineqs, nvars):
    """Eliminate x_{n-1}, ..., x_0 in turn.

    Returns (layers, feasible): layers[k] = (lowers, uppers) holds the
    constraints that bound x_k from below and from above in terms of
    x_0, ..., x_{k-1}; feasible says whether the constraints left with no
    variable all hold.
    """
    system = [(tuple(Fraction(v) for v in c), Fraction(b)) for (c, b) in ineqs]
    layers = []
    for k in range(nvars - 1, -1, -1):
        system, lowers, uppers = fm_eliminate(system, nvars, k)
        layers.append((lowers, uppers))
    layers.reverse()
    return layers, all(b <= 0 for (_, b) in system)


def _bound(c, b, x, k):
    # the value of x_k at which c . x = b, given x_0, ..., x_{k-1}
    return (b - sum(c[j] * x[j] for j in range(k))) / c[k]


def linear_feasible(ineqs, nvars):
    """Exact witness for the system {coeffs . x >= bound} of (coeffs, bound)
    pairs.

    Returns a list of Fractions or None when the system is infeasible.
    """
    layers, feasible = _fm_layers(ineqs, nvars)
    if not feasible:
        return None
    x = []
    for k, (lowers, uppers) in enumerate(layers):
        lo = max((_bound(c, b, x, k) for (c, b) in lowers), default=None)
        hi = min((_bound(c, b, x, k) for (c, b) in uppers), default=None)
        if lo is None and hi is None:
            v = Fraction(0)
        elif lo is None or hi is None:
            v = hi if lo is None else lo
        else:
            v = (lo + hi) / 2
        x.append(v)
    return x


def lattice_points(ineqs, nvars):
    """All integer points of the polytope {coeffs . x >= bound}, sorted.

    ineqs are (coeffs, bound) pairs. Walks the elimination layers with x_0
    outermost, so each x_k ranges over the integers between the bounds its
    layer gives once x_0, ..., x_{k-1} are fixed. Raises UnboundedPolytope
    naming the first coordinate whose layer lacks a lower or an upper bound;
    that is the first coordinate on which a nonempty polytope is unbounded.
    """
    layers, feasible = _fm_layers(ineqs, nvars)
    if not feasible:
        return []
    for k, (lowers, uppers) in enumerate(layers):
        if not lowers or not uppers:
            raise UnboundedPolytope(f"divisor polytope is unbounded in coordinate {k + 1}")
    out = []

    def walk(x):
        k = len(x)
        if k == nvars:
            out.append(tuple(x))
            return
        lowers, uppers = layers[k]
        lo = max(ceil(_bound(c, b, x, k)) for (c, b) in lowers)
        hi = min(floor(_bound(c, b, x, k)) for (c, b) in uppers)
        for v in range(lo, hi + 1):
            walk(x + [v])

    walk([])
    return out


# ---------------------------------------------------------------------------
# Incremental echelon over Q(i): the one elimination behind every exact
# rank, solve, nullspace, inverse, minimal polynomial and ideal certificate
# ---------------------------------------------------------------------------

class Echelon:
    """Row echelon form over Q(i), built one vector at a time.

    Vectors are sparse dicts {key: nonzero GaussRational} with mutually
    comparable keys. Each row is stored under its pivot, the smallest key of
    the residual it joined with, scaled to entry ONE there; every other key
    of a row is larger than its pivot. The smallest key of a nonzero
    combination of rows is therefore a pivot, so the residual of a vector,
    the part no row can cancel, is unique. reduce() finds it by eliminating
    the vector's pivot keys in increasing order, and each elimination
    creates only keys larger than the pivot it removes.

    A row added with a tag also records its combination over the tags of
    the rows before it. Such a combination is unique, because the vectors
    that joined are independent, so it depends only on the order in which
    vectors were added, never on the order of elimination. Combinations,
    and hence solve(), need every row to carry a tag.
    """

    def __init__(self):
        self.rows = {}   # pivot -> (entries off the pivot, combination or None)

    def reduce(self, vec, track=False):
        """(residual, combination): vec reduced against every row, and, when
        track, vec minus that residual as {tag: coefficient}."""
        vec = dict(vec)
        combo = {} if track else None
        rows = self.rows
        heap = [k for k in vec if k in rows]
        heapify(heap)
        while heap:
            piv = heappop(heap)
            f = vec.pop(piv, None)
            if f is None:
                continue
            rest, rcombo = rows[piv]
            g = -f
            for k, v in rest.items():
                x = vec.get(k)
                if x is None:
                    vec[k] = g * v
                    if k in rows:
                        heappush(heap, k)
                else:
                    x = x + g * v
                    if x:
                        vec[k] = x
                    else:
                        del vec[k]
            if track:
                for t, v in rcombo.items():
                    x = combo.get(t, ZERO) + f * v
                    if x:
                        combo[t] = x
                    else:
                        combo.pop(t, None)
        return vec, combo

    def add(self, vec, tag=None):
        """Adjoin vec. Returns (joined, combination): joined is False when
        vec already lies in the span, and then, for a tagged vec, the
        combination gives vec as {earlier tag: coefficient}; otherwise the
        combination is None."""
        track = tag is not None
        residual, combo = self.reduce(vec, track)
        if not residual:
            return False, combo
        piv = min(residual)
        s = ONE / residual.pop(piv)
        rest = {k: s * v for k, v in residual.items()}
        rcombo = None
        if track:
            rcombo = {t: -s * v for t, v in combo.items()}
            rcombo[tag] = s
        self.rows[piv] = (rest, rcombo)
        return True, None

    def solve(self, vec):
        """{tag: x} with vec = sum x * (vector added with that tag), zero
        coefficients omitted, or None when vec is outside the span."""
        residual, combo = self.reduce(vec, track=True)
        return None if residual else combo

"""Known answers for the benchmark, computed without importing nctoric.

Words are tuples of nonzero ints (letter k is z_k, -k its inverse), kept
freely reduced. Gaussian rationals are (re, im) pairs of Fractions. Algebra
elements are dicts from word to Gaussian rational with no zero values. The
parsers read the literal syntax the CLI prints and accepts; they are written
from the file-format description, not from the library.
"""
from fractions import Fraction
from itertools import combinations, product
from math import comb

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
MINUS_ONE = (Fraction(-1), Fraction(0))


# --- Gaussian rationals ---------------------------------------------------

def g_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def g_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def parse_gauss(text):
    """'3/2', '-i', '2i', '1-1/2i', with optional parentheses."""
    s = text.strip().replace(" ", "")
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if not s.endswith("i"):
        return (Fraction(s), Fraction(0))
    body = s[:-1]
    cut = max((k for k in range(1, len(body))
               if body[k] in "+-" and body[k - 1] not in "/+-"), default=0)
    re_txt, im_txt = body[:cut], body[cut:]
    im = {"": 1, "+": 1, "-": -1}.get(im_txt)
    return (Fraction(re_txt or 0), Fraction(im_txt) if im is None else Fraction(im))


def format_gauss(g):
    """Literal in parentheses, accepted wherever the CLI reads a scalar."""
    re, im = g
    if im == 0:
        return f"({re})"
    sign = "+" if im > 0 else "-"
    return f"({re}{sign}{abs(im)}i)"


# --- words ------------------------------------------------------------------

def reduce_word(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def parse_word(text):
    letters = []
    for tok in text.split():
        if tok in ("e", "1"):
            continue
        idx, _, exp = tok[1:].partition("^")
        exp = int(exp or 1)
        letters += [int(idx) if exp > 0 else -int(idx)] * abs(exp)
    return reduce_word(letters)


def format_word(w):
    if not w:
        return "e"
    return " ".join(f"z{x}" if x > 0 else f"z{-x}^-1" for x in w)


def words_up_to(rank, length):
    """Every reduced word of length at most `length`."""
    out = [()]
    layer = [()]
    for _ in range(length):
        layer = [w + (x,) for w in layer for k in range(1, rank + 1) for x in (k, -k)
                 if not (w and w[-1] == -x)]
        out += layer
    return out


# --- algebra elements ---------------------------------------------------------

def alg_add(a, b, scale=ONE):
    out = dict(a)
    for w, c in b.items():
        v = g_add(out.get(w, ZERO), g_mul(scale, c))
        if v == ZERO:
            out.pop(w, None)
        else:
            out[w] = v
    return out


def alg_mul(a, b):
    out = {}
    for w, c in a.items():
        for v, d in b.items():
            out = alg_add(out, {reduce_word(w + v): g_mul(c, d)})
    return out


def word_elem(w):
    return {w: ONE}


def _split_terms(text):
    """Top-level '+'/'-' split that leaves parentheses and '^-k' intact."""
    terms, depth, cur, sign, prev = [], 0, "", 1, ""
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        if depth == 0 and ch in "+-" and cur.strip() and prev != "^":
            terms.append((sign, cur))
            cur, sign = "", (1 if ch == "+" else -1)
        else:
            cur += ch
        if not ch.isspace():
            prev = ch
    if cur.strip():
        terms.append((sign, cur))
    return terms


def parse_alg(text):
    out = {}
    if text.strip() in ("", "0"):
        return out
    for sign, chunk in _split_terms(text.strip()):
        chunk = chunk.strip()
        if "*" in chunk:
            coef_txt, _, word_txt = chunk.partition("*")
            coef, word = parse_gauss(coef_txt), parse_word(word_txt)
        elif chunk.startswith("z") or chunk == "e":
            coef, word = ONE, parse_word(chunk)
        else:
            coef, word = parse_gauss(chunk), ()
        out = alg_add(out, {word: coef}, ONE if sign > 0 else MINUS_ONE)
    return out


def format_alg(a):
    return " + ".join(f"{format_gauss(c)}*{format_word(w)}" for w, c in sorted(a.items()))


def shadow(a):
    """Commutative shadow: push every word to its exponent vector."""
    out = {}
    for w, c in a.items():
        vec = [0] * (max((abs(x) for x in w), default=0) + 1)
        for x in w:
            vec[abs(x)] += 1 if x > 0 else -1
        key = tuple(vec[1:])
        while key and key[-1] == 0:
            key = key[:-1]
        out = alg_add(out, {key: c})
    return out


def reconstruct_certificate(lines, generators):
    """Sum of the '(c) * [x] * g<k> * [y]' lines the CLI prints."""
    acc = {}
    for line in lines:
        coef_txt, left, gen, right = (part.strip() for part in line.split(" * "))
        term = alg_mul(alg_mul(word_elem(parse_word(left.strip("[]"))),
                               generators[int(gen[1:])]),
                       word_elem(parse_word(right.strip("[]"))))
        acc = alg_add(acc, term, parse_gauss(coef_txt))
    return acc


def commutator(a, b):
    """a b - b a for words a and b."""
    return alg_add(word_elem(reduce_word(a + b)), word_elem(reduce_word(b + a)), MINUS_ONE)


def l_commutative_generators(rank, level):
    """Commutators of each letter with each positive word of the given
    length: the generators of the nested commutativity ideal."""
    gens = []
    for k in range(1, rank + 1):
        for w in product(range(1, rank + 1), repeat=level):
            c = commutator((k,), w)
            if c and c not in gens and alg_add({}, c, MINUS_ONE) not in gens:
                gens.append(c)
    return gens


def matrix_point_generators(r=2):
    """The matrix-point ideal over r x r matrix units z_{(i-1)r+j}: products
    of units minus their matrix product, and all letter commutators."""
    def unit(i, j):
        return (r * (i - 1) + j,)
    gens = []
    idx = range(1, r + 1)
    for i, j, ip, jp in product(idx, idx, idx, idx):
        g = word_elem(unit(i, j) + unit(ip, jp))
        if j == ip:
            g = alg_add(g, word_elem(unit(i, jp)), MINUS_ONE)
        gens.append(g)
    for a, b in combinations(range(1, r * r + 1), 2):
        gens.append(commutator((a,), (b,)))
    return gens


# --- fans and polytopes ----------------------------------------------------------

def projective_space(n):
    rays = [[int(i == j) for j in range(n)] for i in range(n)] + [[-1] * n]
    return {"rank": n, "rays": rays,
            "max_cones": [list(c) for c in combinations(range(n + 1), n)]}


def face_count(fan):
    faces = set()
    for cone in fan["max_cones"]:
        for k in range(len(cone) + 1):
            faces.update(combinations(sorted(cone), k))
    return len(faces)


def lattice_points(fan, coefficients):
    """Brute-force scan of {m : <m, v_i> >= -a_i for every ray v_i}, for a
    divisor sum a_i D_i on a complete fan with effective coefficients."""
    radius = sum(abs(a) for a in coefficients) + 1
    pts = []
    for m in product(range(-radius, radius + 1), repeat=fan["rank"]):
        if all(sum(x * y for x, y in zip(m, ray)) >= -a
               for ray, a in zip(fan["rays"], coefficients)):
            pts.append(list(m))
    return sorted(pts)


def projective_section_count(n, degree):
    """h^0(P^n, O(d)) = C(d + n, n); the triangular numbers when n = 2."""
    return comb(degree + n, n)

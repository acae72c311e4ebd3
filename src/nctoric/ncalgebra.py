"""Monoid algebras over Q(i) with reduced words as basis: arithmetic,
grading by exponent vectors, and bounded-degree two-sided ideal membership.

Ideal membership in a free algebra is undecidable in general, so every
negative answer here is explicitly relative to the degree bound.
"""
from __future__ import annotations

from itertools import accumulate

from .errors import Frozen, ParseError, RankMismatch, TargetExceedsBound
from .exactmath import Echelon, GaussRational, ONE, ZERO, format_gauss, parse_gauss
from .freeword import (ReducedWord, abelianize, format_word, identity_word,
                       letters_mul, parse_word, word_mul, words_up_to)


class AlgElem(Frozen):
    """Finite Q(i)-combination of reduced words; zero terms never stored.
    Its truth value is its zero test, as a GaussRational's is."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank, terms=None):
        clean = {}
        for w, c in (terms or {}).items():
            if w.rank != rank:
                raise RankMismatch("term rank differs from element rank")
            if not isinstance(c, GaussRational):
                c = GaussRational(c)
            if c:
                clean[w] = c
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def zero(rank):
        return AlgElem(rank)

    @staticmethod
    def from_word(w, coeff=ONE):
        return AlgElem(w.rank, {w: coeff})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, AlgElem) and self.rank == other.rank
                and self.terms == other.terms)

    def __add__(self, other):
        if self.rank != other.rank:
            raise RankMismatch("cannot add elements of different ranks")
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, ZERO) + c
        return AlgElem(self.rank, terms)

    def scale(self, c):
        if not isinstance(c, GaussRational):
            c = GaussRational(c)
        return AlgElem(self.rank, {w: c * x for w, x in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, ReducedWord):
            other = AlgElem.from_word(other)
        if self.rank != other.rank:
            raise RankMismatch("cannot multiply elements of different ranks")
        terms = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                w = word_mul(wa, wb)
                terms[w] = terms.get(w, ZERO) + ca * cb
        return AlgElem(self.rank, terms)

    def max_word_len(self):
        return max((len(w) for w in self.terms), default=0)

    def monomials(self):
        """Deterministically ordered (word, coefficient) pairs."""
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def __repr__(self):
        return f"AlgElem({format_alg(self)!r}, rank={self.rank})"


def abelianize_elem(a):
    """Push every word to its exponent vector; a ring map onto Laurent
    polynomials, with exact coefficient collection."""
    out = {}
    for w, c in a.terms.items():
        v = abelianize(w)
        s = out.get(v, ZERO) + c
        if s:
            out[v] = s
        elif v in out:
            del out[v]
    return out


# ---------------------------------------------------------------------------
# Literals
# ---------------------------------------------------------------------------

def format_alg(a):
    if not a:
        return "0"
    parts = []
    for w, c in a.monomials():
        coef = format_gauss(c)
        if w.is_identity():
            txt = f"({coef})" if ("+" in coef[1:] or "-" in coef[1:]) else coef
        elif c == ONE:
            txt = format_word(w)
        else:
            wrapped = f"({coef})" if ("+" in coef[1:] or "-" in coef[1:] or "/" in coef
                                      or coef.startswith("-")) else coef
            txt = f"{wrapped}*{format_word(w)}"
        parts.append(txt)
    return " + ".join(parts)


def _split_top_level(s):
    parts = []
    depth = 0
    cur = ""
    sign = "+"
    prev = ""
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        # '^-3' style exponents are not term separators
        if depth == 0 and ch in "+-" and cur.strip() and prev != "^":
            parts.append((sign, cur))
            cur = ""
            sign = ch
        else:
            cur += ch
        if not ch.isspace():
            prev = ch
    if cur.strip():
        parts.append((sign, cur))
    return parts


def parse_alg(text, rank):
    """Parse literals like "(3/2+1/2i)*z1 z2^-1 + 1" into an AlgElem."""
    if not isinstance(text, str):
        raise ParseError(f"algebra-element literal must be a string, got {text!r}")
    s = text.strip()
    if s in ("", "0"):
        return AlgElem.zero(rank)
    terms = {}
    for sign, chunk in _split_top_level(s):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError(f"empty term in {text!r}")
        if "*" in chunk:
            coef_txt, _, word_txt = chunk.partition("*")
            coef = parse_gauss(coef_txt)
            word = parse_word(word_txt, rank)
        elif chunk.startswith("("):
            coef = parse_gauss(chunk)
            word = identity_word(rank)
        elif chunk.startswith("z") or chunk in ("e",):
            coef = ONE
            word = parse_word(chunk, rank)
        else:
            coef = parse_gauss(chunk)
            word = identity_word(rank)
        if sign == "-":
            coef = -coef
        terms[word] = terms.get(word, ZERO) + coef
    return AlgElem(rank, terms)


# ---------------------------------------------------------------------------
# Bounded two-sided ideals
# ---------------------------------------------------------------------------

class BoundedIdeal(Frozen):
    """Two-sided ideal of nonzero generators, searched up to a degree bound;
    immutable."""
    __slots__ = ("generators", "degree_bound")

    def __init__(self, generators, degree_bound):
        for g in generators:
            if not g:
                raise ValueError("ideal generators must be nonzero")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "degree_bound", degree_bound)


class MemberCertificate(Frozen):
    """target = sum of coeff * (left * generator * right) over the
    combination's (coeff, left word, generator index, right word) items;
    immutable."""
    __slots__ = ("combination",)

    def __init__(self, combination):
        object.__setattr__(self, "combination", combination)

    def reconstruct(self, ideal, rank):
        acc = AlgElem.zero(rank)
        for coeff, left, gi, right in self.combination:
            term = AlgElem.from_word(left) * ideal.generators[gi] * AlgElem.from_word(right)
            acc = acc + term.scale(coeff)
        return acc


def _pair_words(rank, budget):
    """(x, y) reduced-word pairs with len(x) + len(y) <= budget: x runs over
    the words up to the budget shortest first, and y, for each x, over the
    words up to the length left, shortest first."""
    if budget < 0:
        return
    words = words_up_to(rank, budget)
    counts = [0] * (budget + 1)
    for w in words:
        counts[len(w)] += 1
    ends = list(accumulate(counts))   # ends[k]: how many words have length <= k
    for x in words:
        for y in words[:ends[budget - len(x)]]:
            yield x, y


def _ideal_columns(rank, g, budget):
    """((x, y), _word_vector(x * g * y)) for each pair of _pair_words(rank,
    budget), built from letter tuples; x * g is formed once for each x.
    Distinct words of g stay distinct after multiplying by x and y, so no
    coefficients collect."""
    terms = [(w.letters, c) for w, c in g.terms.items()]
    left_of = None
    for x, y in _pair_words(rank, budget):
        if x is not left_of:
            left_of = x
            left = [(letters_mul(x.letters, letters), c) for letters, c in terms]
        col = {}
        for letters, c in left:
            w = letters_mul(letters, y.letters)
            col[(-len(w), w)] = c
        yield (x, y), col


def bounded_ideal_member(ideal, target):
    """Exact certificate that the target lies in the two-sided ideal, using
    only products x*g*y with total length within the ideal's degree bound.

    Returns a MemberCertificate, or None meaning not-found-at-bound (which
    is *not* a proof of non-membership).

    The columns x*g*y are numbered in the order _ideal_columns builds them,
    generator by generator, and two columns are joined when they share a
    word. Only the block of columns joined to a word of the target goes into
    the echelon, in increasing number, each tagged with its number. This
    gives the certificate the whole echelon would give, term for term: by
    induction over the columns, every row of the whole echelon has all its
    words and tags inside the block or all outside it, since reducing a
    vector visits only rows pivoted on words it holds, and such a row adds
    only words of the same side. So the rows from the block are the rows
    the block alone builds, and the target, whose words are all in the
    block, reduces against those rows only, to the same residual and
    combination. A column outside the block never changes which block
    columns join, and "not found" stays "not found".
    """
    rank = target.rank
    d = ideal.degree_bound
    if target.max_word_len() > d:
        raise TargetExceedsBound(
            f"target has words of length {target.max_word_len()} > bound {d}")
    for g in ideal.generators:
        if g.rank != rank:
            raise RankMismatch(f"generator of rank {g.rank} against a target of rank {rank}")
    # every column is kept until the block is known, as the ids of its words
    # in the order of g.terms, so a word that many columns share is stored once
    columns = []
    keys = []
    ids = {}       # word key -> id, in order of first appearance
    holders = []   # id -> numbers of the columns holding that word
    for gi, g in enumerate(ideal.generators):
        for (x, y), col in _ideal_columns(rank, g, d - g.max_word_len()):
            col_ids = []
            for k in col:
                i = ids.setdefault(k, len(ids))
                if i == len(holders):
                    holders.append([])
                holders[i].append(len(columns))
                col_ids.append(i)
            columns.append(tuple(col_ids))
            keys.append((x, gi, y))
    vec = _word_vector(target)
    words = list(ids)
    coeffs = [tuple(g.terms.values()) for g in ideal.generators]
    ech = Echelon()
    for j in _joined_columns(columns, holders, [ids[k] for k in vec if k in ids]):
        ech.add({words[i]: c for i, c in zip(columns[j], coeffs[keys[j][1]])}, j)
    combo = ech.solve(vec)
    if combo is None:
        return None
    cert = MemberCertificate(tuple((c, *keys[j]) for j, c in sorted(combo.items())))
    if cert.reconstruct(ideal, rank) != target:
        raise AssertionError("membership certificate does not rebuild the target")
    return cert


def _joined_columns(columns, holders, ids):
    """Numbers, in increasing order, of the columns joined to any of the
    word ids through a chain of columns that share a word."""
    seen = set(ids)
    todo = list(seen)
    block = set()
    while todo:
        for j in holders[todo.pop()]:
            if j not in block:
                block.add(j)
                for i in columns[j]:
                    if i not in seen:
                        seen.add(i)
                        todo.append(i)
    return sorted(block)


def _word_vector(elem):
    """Word-basis vector keyed so that a longest word is the smallest key,
    and so the echelon pivot."""
    return {(-len(w), w.letters): c for w, c in elem.terms.items()}

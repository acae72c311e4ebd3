"""Reduced words in n letter pairs, their abelianization, and decidable
membership in finitely generated submonoids via automaton saturation.

A word is a tuple of nonzero signed indices: +k is the k-th letter, -k its
inverse.  The whole module treats words as elements of the free group on n
letters, viewed as a monoid.
"""
from __future__ import annotations

from collections import defaultdict, deque

from .errors import ParseError, RankMismatch


class ReducedWord:
    """Freely reduced word; immutable and hashable."""

    __slots__ = ("letters", "rank")

    def __init__(self, letters, rank):
        letters = tuple(letters)
        for k in letters:
            if k == 0 or abs(k) > rank:
                raise ValueError(f"letter {k} out of range for rank {rank}")
        for a, b in zip(letters, letters[1:]):
            if a == -b:
                raise ValueError(f"word {letters} is not reduced")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, name, value):
        raise AttributeError("ReducedWord is immutable")

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return (isinstance(other, ReducedWord)
                and self.letters == other.letters and self.rank == other.rank)

    def __hash__(self):
        return hash((self.letters, self.rank))

    def __repr__(self):
        return f"ReducedWord({format_word(self)!r}, rank={self.rank})"

    def __mul__(self, other):
        return word_mul(self, other)

    def inverse(self):
        return word_inv(self)

    def is_identity(self):
        return not self.letters

    def sort_key(self):
        return (len(self.letters), self.letters)


def identity_word(rank):
    return ReducedWord((), rank)


def reduce_letters(seq, rank):
    """Freely reduce an arbitrary letter sequence."""
    out = []
    for k in seq:
        if out and out[-1] == -k:
            out.pop()
        else:
            out.append(k)
    return ReducedWord(out, rank)


def word_mul(a, b):
    if a.rank != b.rank:
        raise RankMismatch(f"ranks {a.rank} and {b.rank} differ")
    la = list(a.letters)
    lb = b.letters
    j = 0
    while la and j < len(lb) and la[-1] == -lb[j]:
        la.pop()
        j += 1
    return ReducedWord(tuple(la) + lb[j:], a.rank)


def word_inv(a):
    return ReducedWord(tuple(-k for k in reversed(a.letters)), a.rank)


def abelianize(a):
    """Exponent-sum vector in Z^rank."""
    v = [0] * a.rank
    for k in a.letters:
        if k > 0:
            v[k - 1] += 1
        else:
            v[-k - 1] -= 1
    return tuple(v)


def canonical_lift(vec, rank=None):
    """The sorted word z1^a1 ... zn^an with the given exponent vector."""
    rank = len(vec) if rank is None else rank
    letters = []
    for i, a in enumerate(vec):
        letters.extend([i + 1 if a > 0 else -(i + 1)] * abs(a))
    return ReducedWord(letters, rank)


# ---------------------------------------------------------------------------
# Word literals
# ---------------------------------------------------------------------------

def parse_word(text, rank):
    """Parse literals like "z1 z2^-1 z1^3"; "e", "1" and "" denote identity."""
    s = text.strip()
    if s in ("", "e", "1"):
        return identity_word(rank)
    letters = []
    for pos, tok in enumerate(s.split()):
        if tok in ("e", "1"):
            continue
        if not tok.startswith("z"):
            raise ParseError(f"bad word factor {tok!r} (expected zK or zK^E)", column=pos)
        body = tok[1:]
        if "^" in body:
            idx_txt, _, exp_txt = body.partition("^")
        else:
            idx_txt, exp_txt = body, "1"
        try:
            idx = int(idx_txt)
            exp = int(exp_txt)
        except ValueError:
            raise ParseError(f"bad word factor {tok!r}", column=pos) from None
        if idx == 0:
            raise ParseError("letter index 0 is not allowed", column=pos)
        if idx < 0 or idx > rank:
            raise ParseError(f"letter index {idx} exceeds rank {rank}", column=pos)
        letters.extend([idx if exp > 0 else -idx] * abs(exp))
    return reduce_letters(letters, rank)


def format_word(w):
    if not w.letters:
        return "e"
    out = []
    i = 0
    letters = w.letters
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        count = j - i
        idx = abs(letters[i])
        exp = count if letters[i] > 0 else -count
        out.append(f"z{idx}" if exp == 1 else f"z{idx}^{exp}")
        i = j
    return " ".join(out)


# ---------------------------------------------------------------------------
# Finitely generated submonoids
# ---------------------------------------------------------------------------

class Submonoid:
    """Submonoid of the free group generated by finitely many words.

    Membership of a reduced word is decided by a flower automaton saturated
    under cancellation (every p ->x r ~~> s ->x^-1 q pattern contributes a
    silent edge p -> q), then run without silent moves via closures.
    """

    __slots__ = ("generators", "rank", "_trans", "_closure", "_start")

    def __init__(self, generators, rank):
        gens = []
        for g in generators:
            if g.rank != rank:
                raise RankMismatch("generator rank differs from submonoid rank")
            if g not in gens:
                gens.append(g)
        self.generators = tuple(gens)
        self.rank = rank
        trans, closure = _saturate(self.generators, rank)
        self._trans = trans
        self._closure = closure
        self._start = closure[0]

    def __contains__(self, word):
        return self.member(word)

    def member(self, word):
        """Exact membership of a reduced word."""
        if word.rank != self.rank:
            raise RankMismatch("word rank differs from submonoid rank")
        current = self._start
        for letter in word.letters:
            nxt = set()
            for s in current:
                for t in self._trans.get((s, letter), ()):
                    nxt |= self._closure[t]
            if not nxt:
                return False
            current = frozenset(nxt)
        return 0 in current

    def factorization(self, word, max_factors=12, max_len=None):
        """A generator-index sequence multiplying to the word, by bounded
        breadth-first search; None when not found within the bounds.

        A None answer is bound-relative, not a proof of non-membership.
        """
        if word.is_identity():
            return []
        if max_len is None:
            gmax = max((len(g) for g in self.generators), default=0)
            max_len = len(word) + 2 * gmax + 4
        start = identity_word(self.rank)
        seen = {start}
        frontier = deque([(start, [])])
        while frontier:
            cur, path = frontier.popleft()
            if len(path) >= max_factors:
                continue
            for gi, g in enumerate(self.generators):
                nxt = word_mul(cur, g)
                if nxt == word:
                    return path + [gi]
                if len(nxt) > max_len or nxt in seen:
                    continue
                seen.add(nxt)
                frontier.append((nxt, path + [gi]))
        return None

    def __repr__(self):
        gens = ", ".join(format_word(g) for g in self.generators)
        return f"Submonoid([{gens}], rank={self.rank})"


def _saturate(generators, rank):
    """Build the saturated flower automaton for (g1|...|gk)*.

    Returns (trans, closure): letter transitions and the silent-move closure
    of every state.  State 0 is both initial and accepting.
    """
    trans = defaultdict(set)
    next_state = 1
    for g in generators:
        letters = g.letters
        if not letters:
            continue
        prev = 0
        for i, letter in enumerate(letters):
            if i == len(letters) - 1:
                nxt = 0
            else:
                nxt = next_state
                next_state += 1
            trans[(prev, letter)].add(nxt)
            prev = nxt
    nstates = next_state
    eps = defaultdict(set)

    def closures():
        out = []
        for s in range(nstates):
            seen = {s}
            stack = [s]
            while stack:
                p = stack.pop()
                for q in eps[p]:
                    if q not in seen:
                        seen.add(q)
                        stack.append(q)
            out.append(frozenset(seen))
        return out

    while True:
        cl = closures()
        added = False
        for (p, letter), targets in list(trans.items()):
            for r in targets:
                for s in cl[r]:
                    for q in trans.get((s, -letter), ()):
                        if q not in eps[p] and q != p:
                            eps[p].add(q)
                            added = True
        if not added:
            break
    cl = closures()
    return dict(trans), cl


def compile_submonoid(generators, rank):
    return Submonoid(generators, rank)


def is_unit_in(submonoid, word):
    """True iff both the word and its inverse belong to the submonoid."""
    return submonoid.member(word) and submonoid.member(word_inv(word))


def words_up_to(rank, max_len):
    """All reduced words of length at most max_len, shortest first."""
    out = [identity_word(rank)]
    layer = [()]
    alphabet = [k for i in range(1, rank + 1) for k in (i, -i)]
    for _ in range(max_len):
        nxt = []
        for letters in layer:
            for a in alphabet:
                if letters and letters[-1] == -a:
                    continue
                nxt.append(letters + (a,))
        for letters in nxt:
            out.append(ReducedWord(letters, rank))
        layer = nxt
    return out

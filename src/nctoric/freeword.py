"""Reduced words in n letter pairs, their abelianization, and decidable
membership in finitely generated submonoids via automaton saturation.

A word is a tuple of nonzero signed indices: +k is the k-th letter, -k its
inverse.  The whole module treats words as elements of the free group on n
letters, viewed as a monoid.

A submonoid compiles to an automaton of its generators' star, saturated
under cancellation (Benois's construction for rational subsets of free
groups).  The automaton is a flower without the generators that one-letter
generators spell, whose unit edges are folded as in a Stallings graph.
Saturation runs by rounds over silent closures kept as Python-int bitsets.
Membership reads a word through the letter transitions, ORing target
closures, and accepts on bit 0.
A submonoid saturates on its first membership query, so a chart that is
built but never queried (a chart of a loaded system that the command does
not check, say) costs only its generator list.
"""
from __future__ import annotations

from collections import defaultdict

from .errors import Frozen, ParseError, RankMismatch


class ReducedWord(Frozen):
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

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return (isinstance(other, ReducedWord)
                and self.letters == other.letters and self.rank == other.rank)

    def __hash__(self):
        return hash((self.letters, self.rank))

    def __repr__(self):
        return f"ReducedWord({format_word(self)!r}, rank={self.rank})"

    def is_identity(self):
        return not self.letters

    def sort_key(self):
        return (len(self.letters), self.letters)


def identity_word(rank):
    return ReducedWord((), rank)


def letters_mul(a, b):
    """Letters of the reduced product of two reduced letter tuples."""
    n = len(a)
    j = 0
    while j < n and j < len(b) and a[n - 1 - j] == -b[j]:
        j += 1
    return a[:n - j] + b[j:]


def word_mul(a, b):
    if a.rank != b.rank:
        raise RankMismatch(f"ranks {a.rank} and {b.rank} differ")
    return ReducedWord(letters_mul(a.letters, b.letters), a.rank)


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


def canonical_lift(vec, rank):
    """The sorted word z1^a1 ... zn^an with the given exponent vector."""
    letters = []
    for i, a in enumerate(vec):
        letters.extend([i + 1 if a > 0 else -(i + 1)] * abs(a))
    return ReducedWord(letters, rank)


# ---------------------------------------------------------------------------
# Word literals
# ---------------------------------------------------------------------------

def parse_word(text, rank):
    """Parse literals like "z1 z2^-1 z1^3"; "e", "1" and "" denote identity."""
    if not isinstance(text, str):
        raise ParseError(f"word literal must be a string, got {text!r}")
    s = text.strip()
    if s in ("", "e", "1"):
        return identity_word(rank)
    letters = []
    for tok in s.split():
        if tok in ("e", "1"):
            continue
        if not tok.startswith("z"):
            raise ParseError(f"bad word factor {tok!r} (expected zK or zK^E)")
        body = tok[1:]
        if "^" in body:
            idx_txt, _, exp_txt = body.partition("^")
        else:
            idx_txt, exp_txt = body, "1"
        try:
            idx = int(idx_txt)
            exp = int(exp_txt)
        except ValueError:
            raise ParseError(f"bad word factor {tok!r}") from None
        if idx == 0:
            raise ParseError("letter index 0 is not allowed")
        if idx < 0 or idx > rank:
            raise ParseError(f"letter index {idx} exceeds rank {rank}")
        k = idx if exp > 0 else -idx
        n = abs(exp)
        while n and letters and letters[-1] == -k:     # freely reduced as it is read
            letters.pop()
            n -= 1
        letters.extend([k] * n)
    return ReducedWord(letters, rank)


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

class Submonoid(Frozen):
    """Submonoid of the free group generated by finitely many words.

    Membership is decided on an automaton of (g1|...|gk)*, saturated under
    cancellation: every p -x-> r ~~> s -x^-1-> q pattern contributes a
    silent edge p -> q.  The automaton (`_flower`) leaves out each generator
    that one-letter generators spell and folds the unit edges of the others:
    it has fewer states than the plain flower, and saturated it decides the
    same membership.  The silent closure of each state is a Python-int
    bitset (bit q set when q is silently reachable), saturated by rounds
    (`_saturated_closures`).  A reduced word is read letter by letter without
    silent moves, taking the union of the target closures with `|` after
    each letter; it is a member iff bit 0 (the initial and accepting state)
    is set at the end.

    The automaton is built and saturated on the first membership query, not
    at construction, so a submonoid that is never queried never saturates,
    and a chart kept by a growth stage stays saturated.  Instances are
    immutable, the one-time compilation aside.  The generators keep the
    first occurrence of each word, in the order given, with the words the
    automaton leaves out: a chart's `comm_monoid_member` coefficients, and
    so section presentations, follow that order; growth only appends.
    `generator_set` is a set view of the same words, for membership tests.
    """

    __slots__ = ("generators", "generator_set", "rank", "_closure", "_moves")

    def __init__(self, generators, rank):
        index = dict.fromkeys(generators)
        for g in index:
            if g.rank != rank:
                raise RankMismatch("generator rank differs from submonoid rank")
        object.__setattr__(self, "generators", tuple(index))
        object.__setattr__(self, "generator_set", index.keys())
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_closure", None)
        object.__setattr__(self, "_moves", None)

    def _compile(self):
        """Build and saturate the automaton, once; return the letter
        moves {letter: ((state, closure of its targets), ...)}."""
        trans, nstates = _flower(self.generators)
        closure = _saturated_closures(trans, nstates)
        moves = defaultdict(list)
        for (s, letter), targets in trans.items():
            reach = 0
            for t in targets:
                reach |= closure[t]
            moves[letter].append((s, reach))
        moves = {k: tuple(v) for k, v in moves.items()}
        object.__setattr__(self, "_closure", tuple(closure))
        object.__setattr__(self, "_moves", moves)
        return moves

    def member(self, word):
        """Exact membership of a reduced word."""
        if word.rank != self.rank:
            raise RankMismatch("word rank differs from submonoid rank")
        moves = self._moves
        if moves is None:
            moves = self._compile()
        current = self._closure[0]
        for letter in word.letters:
            nxt = 0
            for s, reach in moves.get(letter, ()):
                if current >> s & 1:
                    nxt |= reach
            if not nxt:
                return False
            current = nxt
        return bool(current & 1)

    def __repr__(self):
        gens = ", ".join(format_word(g) for g in self.generators)
        return f"Submonoid([{gens}], rank={self.rank})"


def _flower(generators):
    """Letter transitions {(p, letter): targets} of the flower automaton of
    (g1|...|gk)* with its unit edges folded, and its number of states.
    State 0 is both initial and accepting.

    Each generator is a petal from 0 back to 0, except that a generator of
    two or more letters that are all one-letter generators is their product
    and is left out (with all 2n letters present one state remains).  Every
    petal edge is a unit edge, stored with its inverse edge, except the
    closing edge of a generator whose inverse is not a generator.  As
    Stallings folds a subgroup graph, two unit edges with one letter out of
    one state end in one state; the smaller state id is kept, so 0 stays 0.

    The fold is sound.  Label each state with the word its petal reads to
    it.  Across a unit edge p -x-> q, label(p)·x·label(q)^-1 is a unit of the
    submonoid: 1 inside a petal, and g on the closing edge of a generator g
    whose inverse is also a generator.  Across any other closing edge it is
    a generator.  A fold therefore joins states whose labels differ by a
    unit, and every walk from 0 to 0 reads a product of members.  Folding a
    closing edge that is not a unit would be unsound: with generators z1
    and z1 z2 it would accept z2.
    """
    members = set(generators)
    ones = {g.letters[0] for g in members if len(g) == 1}
    units, others = [], []
    nstates = 1
    for g in generators:
        letters = g.letters
        if len(letters) != 1 and ones.issuperset(letters):
            continue
        prev = 0
        for i, x in enumerate(letters, 1):
            nxt = 0 if i == len(letters) else nstates
            nstates += nxt != 0
            if nxt or word_inv(g) in members:
                units += [(prev, x, nxt), (nxt, -x, prev)]
            else:
                others.append((prev, x, nxt))
            prev = nxt
    root = list(range(nstates))

    def find(s):
        while root[s] != s:
            root[s] = root[root[s]]
            s = root[s]
        return s

    out = [{} for _ in range(nstates)]     # root -> {letter: a unit edge's target}
    merge = [(out[p].setdefault(x, q), q) for p, x, q in units]
    while merge:
        a, b = sorted(map(find, merge.pop()))
        if a != b:
            root[b] = a
            for x, q in out[b].items():
                merge.append((out[a].setdefault(x, q), q))
    ids = {r: i for i, r in enumerate(dict.fromkeys(map(find, range(nstates))))}
    trans = defaultdict(set)
    for p, x, q in units + others:
        trans[(ids[find(p)], x)].add(ids[find(q)])
    return dict(trans), len(ids)


def _saturated_closures(trans, nstates):
    """Silent closures of the automaton saturated under cancellation, as
    bitsets: bit q of closure[p] is set iff p reaches q by silent edges.

    Benois's saturation, by rounds.  A round ORs closure[q] into closure[p]
    for every p -x-> r ~~> s -x^-1-> q pattern, then ORs into each closure
    the closures of its members; the rounds stop when one changes nothing.
    """
    closure = [1 << s for s in range(nstates)]
    before = None
    while closure != before:
        before = list(closure)
        for (p, x), rs in trans.items():
            reach = 0
            for r in rs:
                reach |= closure[r]
            for s in range(nstates):
                if reach >> s & 1:
                    for q in trans.get((s, -x), ()):
                        closure[p] |= closure[q]
        for p in range(nstates):
            for q in range(nstates):
                if closure[p] >> q & 1:
                    closure[p] |= closure[q]
    return closure


def is_unit_in(submonoid, word):
    """True iff both the word and its inverse belong to the submonoid."""
    return submonoid.member(word) and submonoid.member(word_inv(word))


def words_up_to(rank, longest):
    """All reduced words of length at most `longest`, shortest first."""
    out = [identity_word(rank)]
    layer = [()]
    alphabet = [k for i in range(1, rank + 1) for k in (i, -i)]
    for _ in range(longest):
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

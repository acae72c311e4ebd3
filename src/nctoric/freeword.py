"""Reduced words in n letter pairs, their abelianization, and decidable
membership in finitely generated submonoids via automaton saturation.

A word is a tuple of nonzero signed indices: +k is the k-th letter, -k its
inverse.  The whole module treats words as elements of the free group on n
letters, viewed as a monoid.

A submonoid compiles to an automaton of its generators' star, saturated
under cancellation (Benois's construction for rational subsets of free
groups).  The automaton is a flower whose petals share their prefixes as a
trie, without the generators that one-letter generators spell.  Saturation
is Dyck reachability with a worklist: silent closures are Python-int
bitsets, and a closure that grows is matched against its state's incoming
letter transitions for the new states only.  Membership reads a word
through the letter transitions, ORing target closures, and accepts on bit 0.
A submonoid saturates on its first membership query, so a chart that is
built but never queried (every chart of an intermediate stage of a replayed
recipe, say) costs only its generator list.
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
    if not isinstance(text, str):
        raise ParseError(f"word literal must be a string, got {text!r}")
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
    that one-letter generators spell and gives each distinct proper prefix
    of the others one state: it accepts the same words as the plain flower
    with fewer states, so saturation decides the same membership.  The
    silent closure of each state is a Python-int bitset (bit q set when q is
    silently reachable).  Saturation runs a worklist over closure growth, so
    each (state, closure member) pair is matched against the incoming
    transitions once.  A reduced word is read letter by letter without
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
    """

    __slots__ = ("generators", "rank", "_closure", "_moves")

    def __init__(self, generators, rank):
        gens = tuple(dict.fromkeys(generators))
        for g in gens:
            if g.rank != rank:
                raise RankMismatch("generator rank differs from submonoid rank")
        object.__setattr__(self, "generators", gens)
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

    def __reduce__(self):
        return Submonoid, (self.generators, self.rank)

    def __contains__(self, word):
        return self.member(word)

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
    """Letter transitions {(p, letter): targets} of an automaton of
    (g1|...|gk)*, and its number of states.  State 0 is both initial and
    accepting; every kept generator is a path from 0 back to 0.

    Two changes to the flower automaton shrink it without changing its
    language.  A generator of two or more letters, each of which is itself a
    one-letter generator, is their product, so it is left out; with all 2n
    letters present the automaton has one state.  The petals form a trie:
    each distinct proper prefix of a kept generator has one state, shared by
    every generator that starts with it."""
    ones = {g.letters[0] for g in generators if len(g) == 1}
    trans = defaultdict(set)
    child = {}                      # (state, letter) -> state of the longer prefix
    for g in generators:
        letters = g.letters
        if len(letters) > 1 and ones.issuperset(letters):
            continue
        prev = 0
        for i, letter in enumerate(letters, 1):
            nxt = 0 if i == len(letters) else child.setdefault((prev, letter), len(child) + 1)
            trans[(prev, letter)].add(nxt)
            prev = nxt
    return {key: frozenset(targets) for key, targets in trans.items()}, len(child) + 1


def _bits(mask):
    """Indices of the set bits of a nonnegative int, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _saturated_closures(trans, nstates):
    """Silent closures of the flower automaton saturated under cancellation,
    as bitsets: bit q of closure[p] is set iff p reaches q by silent edges.

    Benois's saturation read as Dyck reachability, solved with a worklist.
    pending[r] holds the states that joined closure[r] but were not yet
    matched: for each incoming p -x-> r and each such s, every s -x^-1-> q
    gives a silent edge p -> q.  The new edges out of p OR the closures of
    their targets into every closure that contains p; each closure that
    grows goes back on the worklist.  Closures stay transitively closed
    (q in closure[u] implies closure[q] within closure[u]), so an edge whose
    target is already in closure[p] changes nothing, and the closures that
    contain p are the same before and after its new edges.
    """
    incoming = [[] for _ in range(nstates)]
    sources = defaultdict(int)      # letter -> states with a transition on it
    targets = {}                    # (state, letter) -> bitset of targets
    for (p, x), qs in trans.items():
        mask = 0
        for r in qs:
            incoming[r].append((p, x))
            mask |= 1 << r
        sources[x] |= 1 << p
        targets[(p, x)] = mask
    closure = [1 << s for s in range(nstates)]
    pending = list(closure)
    work = list(range(nstates))
    while work:
        r = work.pop()
        gained = pending[r]
        pending[r] = 0
        for p, x in incoming[r]:
            hit = 0
            for s in _bits(gained & sources[-x]):
                hit |= targets[(s, -x)]
            add = 0
            for q in _bits(hit & ~closure[p]):
                add |= closure[q]
            if not add:
                continue
            for u, cu in enumerate(closure):
                if cu >> p & 1 and add & ~cu:
                    if not pending[u]:
                        work.append(u)
                    closure[u] = cu | add
                    pending[u] |= add & ~cu
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

import random

import pytest
from hypothesis import given, strategies as st

from nctoric.errors import ParseError, RankMismatch
from nctoric.freeword import (ReducedWord, Submonoid, _flower, abelianize,
                              canonical_lift, format_word, identity_word,
                              is_unit_in, parse_word, word_inv, word_mul, words_up_to)
from oracles import (dyck_membership, enumerate_products, plain_flower,
                     random_reduced_word, run_saturated, saturate_by_rounds)


def W(text, rank=2):
    return parse_word(text, rank)


@st.composite
def words(draw, rank=2, max_len=6, prefix=(), alphabet=None):
    """A reduced word: `prefix`, then at most `max_len` letters drawn from
    `alphabet` (every letter and its inverse by default)."""
    alphabet = alphabet or [s * i for i in range(1, rank + 1) for s in (1, -1)]
    letters = list(prefix)
    for _ in range(draw(st.integers(0, max_len))):
        choices = [a for a in alphabet if not letters or a != -letters[-1]]
        letters.append(draw(st.sampled_from(choices)))
    return ReducedWord(letters, rank)


@st.composite
def generator_sets(draw):
    """Rank 1-3 generator sets, and probe words: products of generators
    followed by one arbitrary word.  A set has 1-5 words of length 1-6, some
    of the 2n one-letter words, a word spelled by those, words that extend a
    generator, inverse pairs g, g^-1, and products of paired generators, some
    listed with their inverses and some without, so that the automaton leaves
    generators out, shares prefixes and folds unit edges."""
    rank = draw(st.integers(1, 3))
    gens = draw(st.lists(words(rank, 6).filter(lambda w: len(w) > 0),
                         min_size=1, max_size=5))
    alphabet = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    ones = draw(st.lists(st.sampled_from(alphabet), unique=True))
    if ones:
        gens += [ReducedWord((a,), rank) for a in ones]
        gens.append(draw(words(rank, 5, alphabet=ones)))
    for g in draw(st.lists(st.sampled_from(gens), max_size=2)):
        gens.append(draw(words(rank, 3, prefix=g.letters)))
    paired = draw(st.lists(words(rank, 4).filter(lambda w: len(w) > 0), max_size=3))
    gens += paired + [word_inv(g) for g in paired]
    if paired:
        for _ in range(draw(st.integers(0, 2))):
            w = identity_word(rank)
            for g in draw(st.lists(st.sampled_from(paired), min_size=1, max_size=3)):
                w = word_mul(w, draw(st.sampled_from([g, word_inv(g)])))
            gens += [w, word_inv(w)] if draw(st.booleans()) else [w]
    gens = draw(st.permutations(gens))
    probes = []
    for _ in range(8):
        w = identity_word(rank)
        for gi in draw(st.lists(st.integers(0, len(gens) - 1), max_size=4)):
            w = word_mul(w, gens[gi])
        probes.append(w)
        probes.append(word_mul(w, draw(words(rank, 3))))
    return rank, gens, probes


def closure_sets(sub):
    """The bitset closures of a Submonoid as sets of states."""
    return [frozenset(q for q in range(c.bit_length()) if c >> q & 1)
            for c in sub._closure]


class TestWords:
    @given(words(), words(), words())
    def test_associative(self, a, b, c):
        assert word_mul(word_mul(a, b), c) == word_mul(a, word_mul(b, c))

    @given(words())
    def test_identity_and_inverse(self, a):
        e = identity_word(2)
        assert word_mul(a, e) == a == word_mul(e, a)
        assert word_mul(a, word_inv(a)) == e
        assert word_mul(word_inv(a), a) == e

    @given(words(), words())
    def test_abelianize_homomorphism(self, a, b):
        va = abelianize(a)
        vb = abelianize(b)
        assert abelianize(word_mul(a, b)) == tuple(x + y for x, y in zip(va, vb))

    def test_junction_cancellation(self):
        assert word_mul(W("z1 z2"), W("z2^-1 z1")) == W("z1 z1")
        assert word_mul(W("z1 z2 z2"), W("z2^-2 z1^-1")) == identity_word(2)

    def test_reduction_invariant(self):
        with pytest.raises(ValueError):
            ReducedWord((1, -1), 2)
        with pytest.raises(ValueError):
            ReducedWord((3,), 2)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            word_mul(W("z1", 1), W("z1", 2))

    def test_figure_values(self):
        g1 = W("z1 z2^3 z1^2 z2^-2 z1^-1 z2 z1^2 z2^-2 z1^-1 z2^-1 z1 z2^-1 z1^-3")
        g2 = W("z2^-2 z1^-1 z2 z1^-1 z2 z1^-1 z2^3 z1 z2^-2 z1^2 z2^-1")
        assert abelianize(g1) == (1, -2)
        assert abelianize(g2) == (0, 0)

    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=4))
    def test_canonical_lift_section(self, vec):
        assert abelianize(canonical_lift(tuple(vec), len(vec))) == tuple(vec)

    def test_lift_example(self):
        assert canonical_lift((2, -1), 2) == W("z1 z1 z2^-1")
        assert canonical_lift((0, 0), 2) == identity_word(2)


class TestLiterals:
    def test_round_trip(self):
        for text in ["e", "z1", "z1 z2^-1", "z1^3 z2^-2 z1^-1"]:
            w = parse_word(text, 2)
            assert parse_word(format_word(w), 2) == w

    def test_bad_index(self):
        with pytest.raises(ParseError):
            parse_word("z1 z3", 2)
        with pytest.raises(ParseError):
            parse_word("z0", 2)
        with pytest.raises(ParseError):
            parse_word("w1", 2)


class TestSubmonoids:
    def test_subgroup_of_one_letter(self):
        s = Submonoid([W("z1"), W("z1^-1")], 2)
        assert s.member(W("z1^-3"))
        assert not s.member(W("z2"))
        assert is_unit_in(s, W("z1"))

    def test_strict_monoid(self):
        s = Submonoid([W("z1 z2")], 2)
        assert not s.member(W("z1"))
        assert s.member(W("z1 z2 z1 z2"))
        assert not is_unit_in(s, W("z1 z2"))

    def test_hidden_member(self):
        s = Submonoid([W("z1"), W("z1^-1 z2")], 2)
        assert s.member(W("z2"))

    def test_parity(self):
        s = Submonoid([W("z1^2")], 2)
        assert not s.member(W("z1^3"))
        assert s.member(W("z1^4"))

    def test_identity_always_member(self):
        for gens in ([], [W("z1 z2")], [W("z2^-1")]):
            assert Submonoid(gens, 2).member(identity_word(2))

    def test_unit_with_explicit_inverse(self):
        s = Submonoid([W("z1 z2"), W("z2^-1 z1^-1")], 2)
        assert is_unit_in(s, W("z1 z2"))

    def test_cancellation_only_through_products(self):
        s = Submonoid([W("z1 z2"), W("z2^-1")], 2)
        assert s.member(W("z1"))

    def test_oracle_agreement(self):
        rng = random.Random(97)
        for _ in range(25):
            gens = [random_reduced_word(rng, 2, 3) for _ in range(3)]
            s = Submonoid(gens, 2)
            oracle = dyck_membership(gens, 2)
            for w in words_up_to(2, 5):
                assert s.member(w) == oracle(w), (gens, w)

    def test_products_always_accepted(self):
        rng = random.Random(13)
        for _ in range(10):
            gens = [random_reduced_word(rng, 2, 3) for _ in range(3)]
            s = Submonoid(gens, 2)
            for p in enumerate_products(gens, 2, 5):
                assert s.member(p)


class TestSaturation:
    @given(generator_sets())
    def test_matches_round_saturation(self, case):
        # the closures are the round saturation of the library's own
        # automaton, which has at most one state per distinct proper prefix
        # of a generator that one-letter generators do not spell; on the
        # generators whose inverses are generators every edge is a unit edge,
        # so the fold leaves no state with two edges on one letter; the
        # answers are those of the saturated plain flower
        rank, gens, probes = case
        sub = Submonoid(gens, rank)
        sub.member(identity_word(rank))     # saturates on the first query
        trans, nstates = _flower(sub.generators)
        assert closure_sets(sub) == saturate_by_rounds(trans, nstates)
        ones = {g.letters for g in gens if len(g) == 1}
        kept = [g for g in gens if not all((x,) in ones for x in g.letters)]
        assert nstates <= 1 + len({g.letters[:i] for g in kept for i in range(1, len(g))})
        paired, _ = _flower([g for g in sub.generators if word_inv(g) in sub.generators])
        for (p, x), targets in paired.items():
            (q,) = targets
            assert paired[(q, -x)] == {p}
        flower, states = plain_flower(sub.generators)
        closure = saturate_by_rounds(flower, states)
        for w in probes + words_up_to(rank, 2):
            assert sub.member(w) == run_saturated(flower, closure, w), (gens, w)

    @pytest.mark.parametrize("gens, members, others", [
        # folding the closing edge of z1, which is not a unit, into the
        # first edge of z1 z2 would accept z2
        (["z1", "z1 z2"], ["z1^2 z2", "z1 z2 z1"], ["z2", "z2 z1", "z1^-1"]),
        # the closing edges of z1 z2 and z3 z2 would fold and accept z1 z3^-1
        (["z1 z2", "z3 z2"], ["z1 z2 z3 z2"], ["z1 z3^-1", "z3 z1^-1", "z2"]),
        (["z1 z2", "z2^-1 z1^-1"], ["z1 z2 z1 z2", "z2^-1 z1^-1 z2^-1 z1^-1", "e"],
         ["z1", "z2", "z1 z2 z1", "z1^2 z2^2"]),
    ])
    def test_fold_keeps_non_units_apart(self, gens, members, others):
        s = Submonoid([W(t, 3) for t in gens], 3)
        oracle = dyck_membership(s.generators, 3)
        for text in members + others:
            assert s.member(W(text, 3)) == (text in members) == oracle(W(text, 3)), text

    def test_memo_keeps_generator_order(self):
        gens = [W("z1 z2"), W("z2^-1"), W("z1^-1")]
        a = Submonoid(gens, 2)
        b = Submonoid(gens[::-1], 2)
        assert a.generators == tuple(gens)
        assert b.generators == tuple(gens[::-1])


class TestImmutable:
    def test_mutation_raises(self):
        s = Submonoid([W("z1 z2")], 2)
        for name in ("generators", "rank", "_closure", "other"):
            with pytest.raises(AttributeError):
                setattr(s, name, None)
        assert s.generators == (W("z1 z2"),)


class TestLazySaturation:
    """A Submonoid saturates its automaton on its first membership query,
    once, and not at construction."""

    def test_first_query_saturates_once(self, saturations):
        rng = random.Random(41)
        for _ in range(20):
            gens = [random_reduced_word(rng, 2, 4) for _ in range(rng.randint(1, 4))]
            before = len(saturations)
            s = Submonoid(gens, 2)
            assert len(saturations) == before
            oracle = dyck_membership(gens, 2)
            for w in words_up_to(2, 4):
                assert s.member(w) == oracle(w), (gens, w)
            assert len(saturations) == before + 1

    def test_immutable_after_compile(self, saturations):
        s = Submonoid([W("z1 z2")], 2)
        assert s.member(W("z1 z2"))
        for name in ("generators", "rank", "_closure", "_moves", "other"):
            with pytest.raises(AttributeError):
                setattr(s, name, None)
        assert s.member(W("z1 z2 z1 z2")) and not s.member(W("z1"))
        assert s.generators == (W("z1 z2"),) and len(saturations) == 1


class TestSmallerAutomaton:
    """The automaton leaves out the generators that one-letter generators
    spell and shares generator prefixes, so it saturates fewer states."""

    def test_every_letter_listed_saturates_one_state(self, saturations):
        letters = [parse_word(f"z{i}^{e}", 3) for i in (1, 2, 3) for e in (1, -1)]
        longer = [parse_word(t, 3) for t in ("z1 z2^-1 z3", "z3^2 z1^-1 z2", "z2 z1^-1")]
        s = Submonoid(longer + letters, 3)
        assert s.generators == tuple(longer + letters)
        assert all(s.member(w) for w in words_up_to(3, 4))
        assert saturations == [1]

    def test_shared_prefixes(self, saturations):
        gens = [W("z1 z2"), W("z1 z2^-1"), W("z1 z2 z1")]
        assert plain_flower(gens)[1] == 5
        s = Submonoid(gens, 2)
        oracle = dyck_membership(gens, 2)
        for w in words_up_to(2, 4):
            assert s.member(w) == oracle(w), w
        assert saturations == [3]

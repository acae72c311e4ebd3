import random

import pytest
from hypothesis import given, strategies as st

from nctoric import exactmath
from nctoric.errors import ParseError, RankMismatch, TargetExceedsBound
from nctoric.exactmath import GaussRational, ONE, ZERO
from nctoric.freeword import ReducedWord, abelianize, identity_word, parse_word
from nctoric.ncalgebra import (AlgElem, BoundedIdeal, _ideal_columns, _pair_words,
                               _word_vector, abelianize_elem, bounded_ideal_member,
                               format_alg, parse_alg)
from oracles import (alg_combine, is_homogeneous, l_commutative_gens, letter_dict,
                     pair_words_by_filter, random_reduced_word, shadow, whole_echelon_member)


def A(text, rank=2):
    return parse_alg(text, rank)


def random_elem(rng, rank=2, terms=3, max_len=3):
    out = AlgElem.zero(rank)
    for _ in range(rng.randint(0, terms)):
        w = random_reduced_word(rng, rank, max_len)
        c = GaussRational(rng.randint(-4, 4), rng.randint(-2, 2))
        out = out + AlgElem.from_word(w, c)
    return out


class TestArithmetic:
    def test_expansion(self):
        assert A("z1 + z2") * A("z1^-1") == A("1 + z2 z1^-1")

    def test_identity(self):
        a = A("(1+i)*z1 z2 + 2")
        assert a * AlgElem.from_word(identity_word(2)) == a

    def test_noncommutativity_witness(self):
        lhs = A("z1 z2") * A("z2^-1 z1")
        rhs = A("z2^-1 z1") * A("z1 z2")
        assert lhs == A("z1^2")
        assert lhs != rhs

    def test_associativity_and_distributivity(self):
        rng = random.Random(41)
        for _ in range(150):
            a, b, c = (random_elem(rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c

    def test_no_stored_zeros(self):
        a = A("z1") + A("z1").scale(-1)
        assert not a and a.terms == {}
        b = A("z1 + z2") + A("-1*z2")
        assert set(b.terms) == {parse_word("z1", 2)}

    def test_grading(self):
        # homogeneous inputs multiply to homogeneous output of summed degree
        rng = random.Random(5)
        for _ in range(60):
            w1 = random_reduced_word(rng, 2, 3)
            w2 = ReducedWord(tuple(-l for l in reversed(w1.letters)), 2)
            a = AlgElem.from_word(w1, GaussRational(2)) + AlgElem.from_word(w1, ONE)
            b = AlgElem.from_word(w2, GaussRational(0, 1))
            assert is_homogeneous(a) and is_homogeneous(b)
            prod = a * b
            assert is_homogeneous(prod)
            if prod:
                deg = abelianize(next(iter(prod.terms)))
                want = tuple(x + y for x, y in zip(abelianize(w1), abelianize(w2)))
                assert deg == want


class TestAbelianization:
    def test_commutator_dies(self):
        assert abelianize_elem(A("z1 z2 + -1*z2 z1")) == {}

    def test_example(self):
        out = abelianize_elem(A("1 + z2 z1^-1"))
        assert out == {(0, 0): ONE, (-1, 1): ONE}

    def test_ring_homomorphism(self):
        rng = random.Random(17)
        for _ in range(200):
            a = random_elem(rng)
            b = random_elem(rng)
            left = abelianize_elem(a * b)
            right = {}
            for va, ca in abelianize_elem(a).items():
                for vb, cb in abelianize_elem(b).items():
                    v = tuple(x + y for x, y in zip(va, vb))
                    s = right.get(v, ZERO) + ca * cb
                    if s:
                        right[v] = s
                    elif v in right:
                        del right[v]
            assert left == right
            add_left = abelianize_elem(a + b)
            add_right = {}
            for src in (abelianize_elem(a), abelianize_elem(b)):
                for v, c in src.items():
                    s = add_right.get(v, ZERO) + c
                    if s:
                        add_right[v] = s
                    elif v in add_right:
                        del add_right[v]
            assert add_left == add_right


class TestLiterals:
    def test_round_trip(self):
        texts = ["(3/2+1/2i)*z1 z2^-1 + 1", "0", "i*z1", "z1^-3 + -2/3*z2",
                 "(1-i)*z1 z2 z1^-1"]
        for text in texts:
            e = parse_alg(text, 2)
            assert parse_alg(format_alg(e), 2) == e

    def test_bad_coefficient(self):
        with pytest.raises(ParseError):
            parse_alg("(1/0)*z1", 2)

    def test_bad_word(self):
        with pytest.raises(ParseError):
            parse_alg("z3", 2)


class TestBoundedIdeal:
    def test_sandwich_certificate(self):
        ideal = BoundedIdeal((A("z1"),), 3)
        cert = bounded_ideal_member(ideal, A("z2 z1 z2"))
        assert cert is not None
        assert cert.reconstruct(ideal, 2) == A("z2 z1 z2")

    def test_commutator_never_contains_letter(self):
        ideal = BoundedIdeal((A("z1 z2 + -1*z2 z1"),), 4)
        # the abelianization of z1 survives the commutative quotient, so no
        # bound can ever produce a certificate
        assert bounded_ideal_member(ideal, A("z1")) is None

    def test_monotone_in_bound(self):
        small = BoundedIdeal((A("z1"),), 3)
        big = BoundedIdeal((A("z1"),), 5)
        target = A("z2 z1 z2")
        assert bounded_ideal_member(small, target) is not None
        assert bounded_ideal_member(big, target) is not None

    def test_target_exceeds_bound(self):
        ideal = BoundedIdeal((A("z1"),), 2)
        with pytest.raises(TargetExceedsBound):
            bounded_ideal_member(ideal, A("z1 z2 z1"))

    def test_certificates_reconstruct(self):
        rng = random.Random(29)
        gens = (A("z1 z2 + -1*z2 z1"), A("z1^2 + -1*z1"))
        ideal = BoundedIdeal(gens, 4)
        words2 = [random_reduced_word(rng, 2, 1) for _ in range(6)]
        for x in words2:
            for gi, g in enumerate(gens):
                target = AlgElem.from_word(x) * g
                if target.max_word_len() > 4:
                    continue
                cert = bounded_ideal_member(ideal, target)
                assert cert is not None
                assert cert.reconstruct(ideal, 2) == target


class TestIdealColumns:
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_pair_order_matches_filter(self, rank):
        for budget in range(-1, 5 if rank < 3 else 4):
            assert list(_pair_words(rank, budget)) == pair_words_by_filter(rank, budget)

    def test_direct_columns_match_products(self):
        rng = random.Random(23)
        gens = [g for rank, level in ((2, 1), (2, 2), (3, 1))
                for g in l_commutative_gens(rank, level, level + 1).generators]
        gens += [g for g in (random_elem(rng, max_len=2) for _ in range(8)) if g]
        for g in gens:
            pairs = list(_pair_words(g.rank, 2))
            cols = list(_ideal_columns(g.rank, g, 2))
            assert [xy for xy, _ in cols] == pairs
            for (x, y), col in cols:
                assert col == _word_vector(AlgElem.from_word(x) * g * AlgElem.from_word(y))

    def test_generator_rank_must_match_target(self):
        gens = (A("z1"), A("z1 z3 + -1*z3 z1", 3))
        # at bound 1 the rank-3 commutator is longer than the bound and
        # builds no column, yet it is refused
        for target, bound in ((A("z1"), 1), (A("z2 z1 z2"), 4)):
            with pytest.raises(RankMismatch):
                bounded_ideal_member(BoundedIdeal(gens, bound), target)


def random_member(rng, ideal, terms=3):
    """A random sum of c * x * g * y with len(x) + len(g) + len(y) within
    the ideal's bound, as a letter dict."""
    rank = ideal.generators[0].rank
    pairs = []
    for _ in range(terms):
        g = rng.choice(ideal.generators)
        room = ideal.degree_bound - g.max_word_len()
        x = random_reduced_word(rng, rank, rng.randint(0, room))
        y = random_reduced_word(rng, rank, room - len(x))
        c = GaussRational(rng.randint(-4, 4) or 1, rng.randint(-2, 2))
        pairs.append((c, [{x.letters: ONE}, letter_dict(g), {y.letters: ONE}]))
    return alg_combine(pairs)


def elem_of(terms, rank):
    return AlgElem(rank, {ReducedWord(w, rank): c for w, c in terms.items()})


class TestLargeBounds:
    """L(2,1) at bound 8 and L(3,1) at bound 6: 11665 and 14907 columns."""

    @pytest.mark.parametrize("rank, bound, seed", [(2, 8, 5), (3, 6, 6)])
    def test_random_member_certified(self, rank, bound, seed):
        rng = random.Random(seed)
        ideal = l_commutative_gens(rank, 1, bound)
        terms = {}
        while not terms:
            terms = random_member(rng, ideal)
        cert = bounded_ideal_member(ideal, elem_of(terms, rank))
        assert cert is not None
        rebuilt = alg_combine((c, [{x.letters: ONE}, letter_dict(ideal.generators[gi]),
                                   {y.letters: ONE}])
                              for c, x, gi, y in cert.combination)
        assert rebuilt == terms

    @pytest.mark.parametrize("rank, bound, seed", [(2, 8, 7), (3, 6, 8)])
    def test_nonzero_shadow_not_found(self, rank, bound, seed):
        # a commutator ideal lies in the kernel of the commutative shadow
        rng = random.Random(seed)
        terms = {}
        while not shadow(terms, rank):
            terms = alg_combine((GaussRational(rng.randint(1, 4), rng.randint(-2, 2)),
                                 [{random_reduced_word(rng, rank, bound).letters: ONE}])
                                for _ in range(2))
        ideal = l_commutative_gens(rank, 1, bound)
        assert bounded_ideal_member(ideal, elem_of(terms, rank)) is None


def _ideal_for(kind, rng):
    """An ideal and a target of the given kind, both within the bound."""
    rank = rng.choice((2, 3))
    level = 1 if rank == 3 else rng.choice((1, 2))
    gens = l_commutative_gens(rank, level, level + 1).generators
    bound = level + 1 + rng.randint(0, 2 if rank == 3 else 3)
    if kind == "identity term":
        rank, bound = 2, rng.randint(2, 4)
        # z1 and z2 beside the identity join every column into one block
        g = A("z1 + z2") + random_elem(rng, max_len=2) + AlgElem.from_word(
            identity_word(2), GaussRational(rng.randint(1, 3), rng.randint(-1, 1)))
        gens = (g or AlgElem.from_word(identity_word(2)),)
    ideal = BoundedIdeal(gens, bound)
    if kind == "zero":
        return ideal, AlgElem.zero(rank)
    target = elem_of(random_member(rng, ideal), rank)
    if kind == "commutator" and rng.random() < 0.5:
        target = target + random_elem(rng, rank, max_len=bound)
    if kind == "untouched word":
        # z1^bound is no word of any x*g*y: one as long as the bound has no
        # cancellation, so it contains a word of g, and every word of a
        # commutator holds two distinct letters
        target = target + AlgElem.from_word(ReducedWord((1,) * bound, rank))
    if kind == "long generator":
        long_word = random_reduced_word(rng, rank, bound + 3)
        while len(long_word) <= bound:
            long_word = random_reduced_word(rng, rank, bound + 3)
        g = AlgElem.from_word(long_word) + AlgElem.from_word(identity_word(rank), -ONE)
        ideal = BoundedIdeal((*gens[:1], g, *gens[1:]), bound)
    return ideal, target


@pytest.fixture
def echelon_tags(monkeypatch):
    """The tags of the vectors added to any Echelon during the test, in
    order."""
    tags = []
    add = exactmath.Echelon.add

    def counted(self, vec, tag=None):
        tags.append(tag)
        return add(self, vec, tag)

    monkeypatch.setattr(exactmath.Echelon, "add", counted)
    return tags


class TestBlockMembership:
    """The library adds to its echelon only the columns joined to the
    target; the oracle adds every column."""

    @given(st.sampled_from(["commutator", "identity term", "untouched word", "zero",
                            "long generator"]),
           st.integers(0, 2**32))
    def test_certificate_equals_whole_echelon(self, kind, seed):
        ideal, target = _ideal_for(kind, random.Random(seed))
        cert = bounded_ideal_member(ideal, target)
        want = whole_echelon_member(ideal, target)
        assert (cert and cert.combination) == (want and want.combination)
        if kind == "untouched word":
            assert cert is None

    def test_echelon_takes_the_block_only(self, echelon_tags):
        # the L(3,1) member query of the ideal-membership benchmark, seed 3
        target = A("(1+1i)*z1 z1 z2 z2 z1 + (-1-1i)*z1 z2 z1 z2 z1"
                   " + (1/3+1i)*z2 z1 z2 z1^-1 z2 + (-1-2i)*z2 z2 z3^-1 z2 z3"
                   " + (2/3+1i)*z2 z2 z2", 3)
        ideal = l_commutative_gens(3, 1, 5)
        total = sum(1 for g in ideal.generators for _ in _ideal_columns(3, g, 3))
        cert = bounded_ideal_member(ideal, target)
        assert cert is not None and cert.reconstruct(ideal, 3) == target
        assert (len(echelon_tags), total) == (36, 2307)
        assert echelon_tags == sorted(echelon_tags)

    def test_identity_term_joins_every_column(self, echelon_tags):
        ideal = BoundedIdeal((A("z1 + z2^-1 + -1"),), 4)
        total = sum(1 for _ in _ideal_columns(2, ideal.generators[0], 3))
        assert bounded_ideal_member(ideal, A("z2 z1 + 1 + -1*z2")) is not None
        assert echelon_tags == list(range(total))


class TestLCommutative:
    def test_rank2_level1(self):
        ideal = l_commutative_gens(2, 1, 4)
        assert len(ideal.generators) == 1
        assert ideal.generators[0] in (A("z1 z2 + -1*z2 z1"), A("z2 z1 + -1*z1 z2"))

    def test_nesting(self):
        level1 = l_commutative_gens(2, 1, 4)
        level2 = l_commutative_gens(2, 2, 4)
        for g in level2.generators:
            cert = bounded_ideal_member(level1, g)
            assert cert is not None, format_alg(g)

    def test_rank1_zero_ideal(self):
        ideal = l_commutative_gens(1, 3, 5)
        assert ideal.generators == ()

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            l_commutative_gens(2, 3, 3)

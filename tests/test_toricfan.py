import random
from itertools import combinations, product
from math import lcm

import pytest
from hypothesis import given, strategies as st
from sympy import Matrix

from nctoric import toricfan
from nctoric.deltasystem import (abelianized_chart, augment_system, build_system,
                                 check_admissible, soften)
from nctoric.errors import (MissingReferenceCone, NoPositivityFunctional,
                            NonPrimitiveRay, NotAFan, NotIndexOne)
from nctoric.serialize import fan_to_obj
from nctoric.toricfan import (check_certificate, comm_monoid_member, comm_monoid_solver,
                              cone_monoid_generators, divisor_vertices, in_polytope,
                              pairing, polytope_sections, ray_sum, validate_fan)
from nctoric import exactmath
from nctoric.exactmath import linear_feasible
from nctoric.freeword import canonical_lift, identity_word, word_mul
from oracles import complete_system, in_row_lattice, monoid_search_by_product

P2 = dict(rank=2, rays=[(1, 0), (0, 1), (-1, -1)],
          max_cones=[(0, 1), (1, 2), (0, 2)])
P3 = dict(rank=3, rays=[(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
          max_cones=[(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def p2():
    return validate_fan(**P2)


def projective(n):
    """The fan of P^n: the standard basis and minus their sum, every n of
    them spanning a maximal cone."""
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
    return validate_fan(n, rays, list(combinations(range(n + 1), n)))


def hirzebruch(a):
    """The fan of the Hirzebruch surface F_a."""
    return validate_fan(2, [(1, 0), (0, 1), (-1, a), (0, -1)],
                        [(0, 1), (1, 2), (2, 3), (0, 3)])


class TestValidation:
    def test_p2(self):
        fan = p2()
        assert len(fan.faces) == 7
        assert fan.faces[0] == ()
        assert len(fan.pair_certificates) == 3
        for (a, b), f in fan.pair_certificates.items():
            assert check_certificate(fan.rays, a, b, f)

    def test_single_cone(self):
        fan = validate_fan(2, [(1, 0), (0, 1)], [(0, 1)])
        assert len(fan.faces) == 4

    def test_not_index_one(self):
        with pytest.raises(NotIndexOne):
            validate_fan(2, [(1, 0), (1, 2)], [(0, 1)])

    def test_non_primitive(self):
        with pytest.raises(NonPrimitiveRay):
            validate_fan(2, [(2, 0), (0, 1)], [(0, 1)])

    def test_missing_reference(self):
        with pytest.raises(MissingReferenceCone):
            validate_fan(2, [(0, 1), (1, 1)], [(0, 1)])

    def test_not_a_fan(self):
        with pytest.raises(NotAFan):
            validate_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)])

    def test_ray_in_no_maximal_cone(self):
        # the ray (1,1) would still cut the divisor polytope, though no chart sees it
        with pytest.raises(NotAFan, match=r"ray 3 = \[1, 1\] lies in no maximal cone"):
            validate_fan(2, [(1, 0), (0, 1), (-1, -1), (1, 1)], P2["max_cones"])

    def test_supplied_certificates_checked(self):
        certs = {((0, 1), (1, 2)): (0, 1)}   # wrong: not zero on shared ray e2
        with pytest.raises(NotAFan):
            validate_fan(P2["rank"], P2["rays"], P2["max_cones"], certs)

    def test_certificate_must_hold_on_the_later_cone(self):
        # (1, 1) is positive on the rays of [0, 1], and so is (4, 1); only
        # (4, 1) is also negative on (-1, 3) and (0, -1), the rays of [2, 3]
        rays = [(1, 0), (0, 1), (-1, 3), (0, -1)]
        cones = [(0, 1), (1, 2), (2, 3), (0, 3)]
        assert check_certificate(rays, (0, 1), (2, 3), (4, 1))
        assert not check_certificate(rays, (0, 1), (2, 3), (1, 1))
        with pytest.raises(NotAFan, match=r"cones \[0, 1\], \[2, 3\] fails"):
            validate_fan(2, rays, cones, {((0, 1), (2, 3)): (1, 1)})

    def test_idempotent_revalidation(self):
        fan = p2()
        raw = fan_to_obj(fan)
        certs = {}
        for item in raw["certificates"]:
            a, b = item["pair"]
            certs[(tuple(a), tuple(b))] = tuple(item["functional"])
        again = validate_fan(raw["rank"], raw["rays"], raw["max_cones"], certs)
        assert again == fan
        assert again.pair_certificates == fan.pair_certificates


class TestDualGenerators:
    def test_reference(self):
        fan = p2()
        assert fan.duals[(0, 1)] == ((1, 0), (0, 1))

    def test_interior_cone(self):
        fan = p2()
        assert fan.duals[(1, 2)] == ((-1, 1), (-1, 0))

    def test_pairing_identity(self):
        fan = validate_fan(**P3)
        for sigma in fan.max_cones:
            duals = fan.duals[sigma]
            for i, u in enumerate(duals):
                for j, ri in enumerate(sigma):
                    assert pairing(u, fan.rays[ri]) == int(i == j)

    @pytest.mark.parametrize("fan", [projective(1), projective(2), projective(3),
                                     projective(4), hirzebruch(3), hirzebruch(10)],
                             ids=["p1", "p2", "p3", "p4", "f3", "f10"])
    def test_columns_of_the_inverse_ray_matrix(self, fan):
        # sympy inverts each cone's ray matrix V (rays as rows); the dual
        # basis is its columns, in the cone's ray order
        assert set(fan.duals) == set(fan.max_cones)
        for sigma in fan.max_cones:
            inverse = Matrix([fan.rays[i] for i in sigma]).inv()
            assert fan.duals[sigma] == tuple(
                tuple(int(x) for x in inverse.col(j)) for j in range(fan.rank))


class TestConeMonoid:
    def test_maximal(self):
        fan = p2()
        gens, flags = cone_monoid_generators(fan, (0, 1))
        assert gens == [(1, 0), (0, 1)]
        assert flags == [False, False]

    def test_ray(self):
        fan = p2()
        gens, flags = cone_monoid_generators(fan, (1,))
        assert set(gens) == {(1, 0), (0, 1), (-1, 1), (-1, 0)}
        for g, f in zip(gens, flags):
            assert f == (g[1] == 0)

    def test_zero_cone_generates_group(self):
        fan = p2()
        gens, flags = cone_monoid_generators(fan, ())
        assert all(flags)
        for target in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
            assert comm_monoid_member(gens, target, ray_sum(fan, ())) is not None

    def test_dual_cone_membership(self):
        fan = p2()
        for tau in fan.faces:
            gens, _ = cone_monoid_generators(fan, tau)
            for g in gens:
                if tau:
                    assert all(pairing(g, fan.rays[i]) >= 0 for i in tau)


class TestInPolytope:
    @pytest.mark.parametrize("fan, radius", [(projective(2), 6), (projective(3), 3),
                                             (hirzebruch(3), 6)], ids=["p2", "p3", "f3"])
    def test_agrees_with_inequalities_vertices_and_sections(self, fan, radius):
        # every ray lies in a maximal cone, so the ray inequalities, the
        # vertex form (the point minus each maximal cone's vertex lies in
        # that cone's dual) and the lattice points all give one polytope
        rng = random.Random(31)
        box = set(product(range(-radius, radius + 1), repeat=fan.rank))
        inside = 0
        for _ in range(30):
            coeffs = tuple(rng.randint(-3, 3) for _ in fan.rays)
            divisor = coeffs
            vertex = divisor_vertices(fan, divisor)
            sections = polytope_sections(fan, divisor)
            for point in box | set(sections):
                got = in_polytope(fan, divisor, point)
                assert got == all(pairing(point, ray) >= -a
                                  for ray, a in zip(fan.rays, coeffs))
                assert got == all(pairing([p - m for p, m in zip(point, vertex[sigma])],
                                          fan.rays[i]) >= 0
                                  for sigma in fan.max_cones for i in sigma)
                assert got == (point in sections)
                inside += got
        assert inside > 100


class TestCommMonoidMember:
    def test_basis(self):
        assert comm_monoid_member([(1, 0), (0, 1)], (2, 3), (1, 1)) == [2, 3]

    def test_unreachable(self):
        assert comm_monoid_member([(1, 0), (0, 1)], (-1, 0), (1, 1)) is None

    def test_skew(self):
        assert comm_monoid_member([(-1, 1), (-1, 0)], (-2, 1), (-1, 0)) == [1, 1]

    def test_with_units(self):
        gens = [(1, 0), (-1, 0), (0, 1)]
        coeffs = comm_monoid_member(gens, (-4, 2), (0, 1))
        assert coeffs is not None and all(c >= 0 for c in coeffs)
        total = [0, 0]
        for c, g in zip(coeffs, gens):
            total = [t + c * x for t, x in zip(total, g)]
        assert tuple(total) == (-4, 2)

    @pytest.mark.parametrize("gens, target, functional, coeffs", [
        # a unit's negative lattice coefficient goes to the first (-1,0), index 1
        ([(1, 0), (-1, 0), (-1, 0), (0, 1)], (-2, 1), (0, 1), [0, 2, 0, 1]),
        # each copy of a repeated non-unit vector is searched on its own
        ([(1, 0), (0, 1), (1, 0), (1, 1)], (2, 1), (1, 1), [0, 0, 1, 1]),
    ])
    def test_repeated_vectors(self, gens, target, functional, coeffs):
        assert comm_monoid_member(gens, target, functional) == coeffs

    def test_random_reconstruction(self):
        rng = random.Random(23)
        gens = [(1, 0), (0, 1), (1, 1), (2, 1)]
        for _ in range(40):
            coeffs = [rng.randint(0, 4) for _ in gens]
            target = tuple(sum(c * g[j] for c, g in zip(coeffs, gens))
                           for j in range(2))
            got = comm_monoid_member(gens, target, (1, 1))
            assert got is not None
            total = tuple(sum(c * g[j] for c, g in zip(got, gens)) for j in range(2))
            assert total == target

    def test_one_hnf_per_search(self, monkeypatch):
        # two leaves reach the unit lattice: (1,0,0) is outside 2Z, then (0,0,0)
        calls = []
        real = exactmath.hnf
        monkeypatch.setattr(exactmath, "hnf", lambda m: calls.append(m) or real(m))
        gens = [(2, 0, 0), (-2, 0, 0), (1, 1, 0), (0, 1, 0)]
        assert comm_monoid_member(gens, (1, 1, 0), (0, 1, 0)) == [0, 0, 1, 0]
        assert len(calls) == 1

    def test_no_positivity_functional(self):
        with pytest.raises(NoPositivityFunctional):
            comm_monoid_member([(1, 0), (-2, 0)], (3, 0), (1, 0))

    def test_solver_refuses_an_unbounded_search_when_built(self):
        with pytest.raises(NoPositivityFunctional):
            comm_monoid_solver([(1, 0), (-2, 0)], (1, 0))

    @pytest.mark.parametrize("gens, functional, targets, found", [
        # the search backtracks: (0,1,0) alone leaves (1,0,0), outside 2Z
        ([(2, 0, 0), (-2, 0, 0), (1, 1, 0), (0, 1, 0)], (0, 1, 0),
         [(1, 0, 0), (1, 1, 0), (0, -1, 0), (3, 2, 0), (-4, 0, 0), (1, 1, 0)],
         [False, True, False, True, True, True]),
        # units only: the lattice part alone answers
        ([(2, 0), (-2, 0), (0, 1), (0, -1)], (0, 0),
         [(1, 0), (-4, 3), (3, 0), (4, -1), (0, 0)],
         [False, True, False, True, True]),
        # no units: a negative budget is refused before any search
        ([(-1, 1), (-1, 0)], (-1, 0),
         [(1, 0), (-2, 1), (0, 1), (-3, 1), (-2, 1)],
         [False, True, False, True, True]),
    ], ids=["backtracking", "units-only", "negative-budget"])
    def test_solver_answers_each_query_afresh(self, gens, functional, targets, found):
        # one solver, many queries: no coefficient a query set, found or
        # abandoned may reach a later query
        solve = comm_monoid_solver(gens, functional)
        answers = [solve(t) for t in targets]
        assert answers == [comm_monoid_member(gens, t, functional) for t in targets]
        assert [got is not None for got in answers] == found
        for target, got in zip(targets, answers):
            if got is not None:
                assert all(c >= 0 for c in got)
                assert tuple(sum(c * g[j] for c, g in zip(got, gens))
                             for j in range(len(target))) == target

    def test_search_deeper_than_the_recursion_limit(self):
        # 1,100 distinct non-unit vectors: the search keeps one coefficient
        # per vector, so its depth is not bounded by the interpreter's stack
        gens = [(a, s - a) for s in range(1, 47) for a in range(s + 1)][:1100]
        assert len(set(gens)) == 1100
        assert comm_monoid_solver(gens, (1, 1))((1, 0)) == [0, 1] + [0] * 1098

    @given(st.data())
    def test_solver_matches_the_lexicographic_scan(self, data):
        rank = data.draw(st.integers(1, 3))
        functional = data.draw(st.tuples(*[st.integers(-1, 1)] * rank))
        other = [g for g in data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * rank),
                                               max_size=5))
                 if pairing(functional, g) > 0]
        if len(other) > 1 and data.draw(st.booleans()):
            # a repeated vector and a sum of two: ties the search order breaks
            other += [other[0], tuple(a + b for a, b in zip(other[0], other[1]))]
        # units among the vectors the functional kills: f_j e_i - f_i e_j,
        # and e_i where f_i = 0, some doubled so their lattice is not all
        axes = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]
        killed = [tuple(functional[j] * a - functional[i] * b for a, b in zip(axes[i], axes[j]))
                  for i in range(rank) for j in range(i + 1, rank)]
        killed = [u for u in killed + [axes[i] for i in range(rank) if not functional[i]]
                  if any(u)]
        units = [tuple(m * x for x in u) for u, m in data.draw(st.lists(
            st.tuples(st.sampled_from(killed), st.integers(1, 2)), max_size=2))] if killed else []
        gens = data.draw(st.permutations(other + units + [tuple(-x for x in u) for u in units]))
        if data.draw(st.booleans()):
            coeffs = data.draw(st.lists(st.integers(0, 1), min_size=len(gens),
                                        max_size=len(gens)))
            target = tuple(sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(rank))
        else:
            target = data.draw(st.tuples(*[st.integers(-3, 3)] * rank))
        got = comm_monoid_solver(gens, functional)(target)
        non_unit = [i for i, g in enumerate(gens) if tuple(-x for x in g) not in gens]
        expected = monoid_search_by_product(gens, target, functional)
        assert (None if got is None else [got[i] for i in non_unit]) == expected
        if got is not None:
            assert all(c >= 0 for c in got)
            assert tuple(sum(c * g[j] for c, g in zip(got, gens))
                         for j in range(rank)) == target

    @pytest.mark.parametrize("gens, functional", [
        ([(1, 0), (0, 1), (1, 1), (1, 0), (2, 1)], (1, 1)),
        ([(1, 0), (-1, 0), (0, 1), (1, 1), (0, 1), (-1, 0)], (0, 1)),
        ([(2, 0, 0), (0, 1, 0), (-2, 0, 0), (1, 1, 0), (1, 1, 1), (0, 0, 1), (1, 1, 0)],
         (0, 1, 1)),
    ], ids=["repeats-and-sums", "unit-pair", "index-2-units"])
    def test_solver_matches_the_scan_on_a_box(self, gens, functional):
        # every target in a box, over generators with ties: repeated vectors
        # and sums of others, so only the search order picks the answer
        solve = comm_monoid_solver(gens, functional)
        non_unit = [i for i, g in enumerate(gens) if tuple(-x for x in g) not in gens]
        for target in product(range(-3, 4), repeat=len(functional)):
            got = solve(target)
            assert ((None if got is None else [got[i] for i in non_unit])
                    == monoid_search_by_product(gens, target, functional))

    def test_one_lattice_solver_per_cone(self, monkeypatch):
        # check_admissible asks one solver per cone for every dual-monoid
        # generator, and answers as one-shot searches do
        fan = validate_fan(**P3)
        system = build_system(fan)
        built = []
        real = toricfan.lattice_solver
        monkeypatch.setattr(toricfan, "lattice_solver",
                            lambda rows: built.append(rows) or real(rows))
        report = check_admissible(system)
        assert len(built) == len(fan.faces)
        expected = []
        for tau in fan.faces:
            abel = abelianized_chart(system, tau)
            targets, flags = cone_monoid_generators(fan, tau)
            for t, perp in zip(targets, flags):
                for vec in ([t, tuple(-x for x in t)] if perp else [t]):
                    got = comm_monoid_member(abel, vec, ray_sum(fan, tau))
                    expected.append((f"cone {list(tau)}", got is not None,
                                     f"dual-monoid generator {vec}"))
        assert [(f.locus, f.ok, f.detail) for f in report.findings
                if f.clause == "Def 2.2.4(1)"] == expected


class TestMonoidSearchOracle:
    def test_row_lattice_on_small_boxes(self):
        # every combination with coefficients in [-3, 3] is a member; with
        # no rows only 0 is, and with a square basis a rational solve decides
        rng = random.Random(31)
        for _ in range(150):
            n = rng.randint(1, 3)
            rows = [tuple(rng.randint(-2, 2) for _ in range(n))
                    for _ in range(rng.randint(0, 3))]
            box = {tuple(sum(c * r[j] for c, r in zip(cs, rows)) for j in range(n))
                   for cs in product(range(-3, 4), repeat=len(rows))}
            square = len(rows) == n and Matrix(rows).det() != 0
            for target in product(range(-2, 3), repeat=n):
                got = in_row_lattice(rows, target)
                if target in box:
                    assert got
                if not rows:
                    assert got == (not any(target))
                elif square:
                    coeffs = Matrix([target]) * Matrix(rows).inv()
                    assert got == all(c.is_integer for c in coeffs)

    @pytest.mark.parametrize("gens, target, functional, expected", [
        ([(1, 0), (-1, 0), (-1, 0), (0, 1)], (-2, 1), (0, 1), [1]),
        ([(1, 0), (0, 1), (1, 0), (1, 1)], (2, 1), (1, 1), [0, 0, 1, 1]),
        ([(-1, 1), (-1, 0)], (-2, 1), (-1, 0), [1, 1]),
        # (0,1,0) alone comes first and leaves (1,0,0), outside 2Z
        ([(2, 0, 0), (-2, 0, 0), (1, 1, 0), (0, 1, 0)], (1, 1, 0), (0, 1, 0), [1, 0]),
        ([(2, 0, 0), (-2, 0, 0), (1, 1, 0), (0, 1, 0)], (1, 0, 0), (0, 1, 0), None),
        ([(1, 0), (0, 1)], (-1, 0), (1, 1), None),
    ])
    def test_scan_on_small_boxes(self, gens, target, functional, expected):
        assert monoid_search_by_product(gens, target, functional) == expected


def _searched_functional(gens):
    """An integer functional found by Fourier-Motzkin search: positive on
    the generators without an exact negative among gens and zero on those
    with one (the search comm_monoid_member made before it took the cone's
    ray sum)."""
    gens = [tuple(g) for g in gens]
    units = [g for g in gens if tuple(-x for x in g) in gens]
    ineqs = [(g, 1) for g in gens if g not in units]
    for b in units:
        ineqs += [(b, 0), (tuple(-x for x in b), 0)]
    witness = linear_feasible(ineqs, len(gens[0]))
    denom = 1
    for w in witness:
        denom = lcm(denom, w.denominator)
    return tuple(int(w * denom) for w in witness)


def _dual_word(rng, fan, tau):
    """A random word whose exponent vector lies in the dual cone of tau: a
    product, in random order, of lifts of dual-monoid generators, the
    perpendicular ones with either sign."""
    gens, flags = cone_monoid_generators(fan, tau)
    pieces = []
    for g, perp in zip(gens, flags):
        c = rng.randint(-1, 2) if perp else rng.randint(0, 2)
        if c:
            pieces.append(canonical_lift(tuple(c * x for x in g), fan.rank))
    rng.shuffle(pieces)
    word = identity_word(fan.rank)
    for piece in pieces:
        word = word_mul(word, piece)
    return word


class TestRaySumFunctional:
    """On every chart system the package builds, the cone's ray sum gives
    the same membership answers as a functional found by search."""

    FANS = {
        "p2": (2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)]),
        "p3": (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
               [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
        "f3": (2, [(1, 0), (0, 1), (-1, 3), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)]),
    }

    @staticmethod
    def _systems(fan, rng):
        base = build_system(fan)
        yield base
        cones = rng.sample(list(fan.faces), 2)
        yield augment_system(base, {c: [_dual_word(rng, fan, c)] for c in cones})
        lower = [c for c in fan.faces if not fan.is_maximal(c)]
        yield soften(base, {c: [_dual_word(rng, fan, c)] for c in rng.sample(lower, 2)})[0]
        partial = {s: list(base.charts[s].generators) + [_dual_word(rng, fan, s)]
                   for s in fan.max_cones}
        yield complete_system(fan, partial)

    @pytest.mark.parametrize("name", sorted(FANS))
    def test_same_answers_as_searched_functional(self, name):
        rank, rays, cones = self.FANS[name]
        fan = validate_fan(rank, rays, cones)
        rng = random.Random(name)
        calls = 0
        for _ in range(2):
            for system in self._systems(fan, rng):
                for tau in fan.faces:
                    abel = abelianized_chart(system, tau)
                    searched = _searched_functional(abel)
                    targets, flags = cone_monoid_generators(fan, tau)
                    for t, perp in zip(targets, flags):
                        for vec in ([t, tuple(-x for x in t)] if perp else [t]):
                            got = comm_monoid_member(abel, vec, ray_sum(fan, tau))
                            assert got is not None
                            assert got == comm_monoid_member(abel, vec, searched)
                            calls += 1
        assert calls > 100

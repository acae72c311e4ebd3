import random
from itertools import combinations

import pytest

from nctoric.deltasystem import build_system, check_admissible
from nctoric.errors import (CandidateNotUnit, MismatchedSystems, NotASection,
                            UnboundedPolytope)
from nctoric.exactmath import GaussRational, I, ONE, lattice_points
from nctoric.freeword import abelianize, format_word, identity_word, parse_word
from nctoric.ncalgebra import (AlgElem, BoundedIdeal, abelianize_elem,
                               bounded_ideal_member)
from nctoric.sheaves import (GluingData, TwistedSectionData, check_gluing,
                             check_twisted_section, combine_sections, extend_section,
                             sheaf_from_divisor, sheaves_isomorphic,
                             subscheme_from_sections)
from nctoric.toricfan import divisor_vertices, polytope_sections, validate_fan
from oracles import brute_lattice_points, section_units_by_all_pairs, triangle_count


def W(text, rank=2):
    return parse_word(text, rank)


def fan_p2():
    return validate_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def fan_p1():
    return validate_fan(1, [(1,), (-1,)], [(0,), (1,)])


def o_d(d):
    return (0, 0, d)


def trivial_gluing(system):
    fan = system.fan
    words = {}
    scalars = {}
    for pair in fan.incidence_pairs():
        words[pair] = identity_word(fan.rank)
        scalars[pair] = ONE
    return GluingData(system=system, scalars=scalars, words=words)


class TestCheckGluing:
    def test_structure_sheaf(self):
        system = build_system(fan_p2())
        report = check_gluing(trivial_gluing(system))
        assert report.ok

    def test_divisor_sheaves(self):
        base = build_system(fan_p2())
        for d in range(4):
            gluing = sheaf_from_divisor(base, o_d(d))
            softened = gluing.system
            report = check_gluing(gluing)
            assert report.ok, f"O({d}): " + report.to_text()
            for sigma in base.fan.max_cones:
                assert (softened.charts[sigma].generators
                        == base.charts[sigma].generators)

    def test_scalar_tamper_fails_every_chain_through_pair(self):
        base = build_system(fan_p2())
        gluing = sheaf_from_divisor(base, o_d(1))
        key = ((0, 1), (0,))
        bad = GluingData(system=gluing.system, scalars=dict(gluing.scalars),
                         words=dict(gluing.words))
        bad.scalars[key] = GaussRational(2)
        report = check_gluing(bad)
        assert not report.ok
        cocycle_failures = [f for f in report.failures()
                            if f.clause == "Lemma 3.4(iii)"]
        assert cocycle_failures
        for f in cocycle_failures:
            assert "[0, 1]" in f.locus and "[0]" in f.locus

    def test_nonunit_word_fails(self):
        system = build_system(fan_p2())
        gluing = trivial_gluing(system)
        # z1 pairs positively with the ray, so it is neither perpendicular
        # nor invertible on that chart
        gluing.words[((0, 1), (0,))] = W("z1")
        report = check_gluing(gluing)
        clauses_hit = {f.clause for f in report.failures()}
        assert "Lemma 3.4(i)" in clauses_hit
        assert "Lemma 3.4(ii)" in clauses_hit

    def test_other_fans_and_mixed_divisors(self):
        for raw, coeffs, count in [
            ([(1, 0), (0, 1), (-1, 0), (0, -1)], (0, 0, 1, 2), 6),
            ([(1, 0), (0, 1), (-1, 1), (0, -1)], (0, 0, 1, 1), 5),
        ]:
            fan = validate_fan(2, raw, [(0, 1), (1, 2), (2, 3), (0, 3)])
            base = build_system(fan)
            divisor = coeffs
            gluing = sheaf_from_divisor(base, divisor)
            assert check_gluing(gluing).ok
            points = polytope_sections(fan, divisor)
            assert len(points) == count
            assert points == brute_lattice_points(fan.rays, coeffs, radius=8)
            for point in points:
                section = extend_section(gluing, divisor, point)
                gluing = section.gluing
                assert check_twisted_section(section).ok

    def test_p1_transition_degrees(self):
        base = build_system(fan_p1())
        for k in (1, 2, 3):
            gluing = sheaf_from_divisor(base, (0, k))
            assert check_gluing(gluing).ok
            degrees = {abelianize(gluing.words[(sigma, ())])[0]
                       for sigma in base.fan.max_cones}
            assert degrees == {0, -k} or degrees == {0, k}


class TestIsomorphism:
    def test_identity_candidate(self):
        base = build_system(fan_p2())
        gluing = sheaf_from_divisor(base, o_d(1))
        candidate = {c: (ONE, identity_word(2)) for c in base.fan.faces}
        assert sheaves_isomorphic(gluing, gluing, candidate)

    def test_rescaled_trivializations(self):
        base = build_system(fan_p2())
        gluing = sheaf_from_divisor(base, o_d(1))
        rescaled = GluingData(
            system=gluing.system,
            scalars={k: I.inverse() * v * I for k, v in gluing.scalars.items()},
            words=dict(gluing.words))
        candidate = {c: (I, identity_word(2)) for c in base.fan.faces}
        assert sheaves_isomorphic(gluing, rescaled, candidate)

    def test_different_degrees_never_isomorphic(self):
        base = build_system(fan_p2())
        g1 = sheaf_from_divisor(base, o_d(1))
        g2 = sheaf_from_divisor(base, o_d(2))
        g2 = GluingData(system=g1.system, scalars=g2.scalars, words=g2.words)
        # candidate-independent obstruction: vertex differences between two
        # maximal cones are fixed by any unit family, and they differ
        s1, s2 = (0, 1), (0, 2)
        v1 = divisor_vertices(base.fan, o_d(1))
        v2 = divisor_vertices(base.fan, o_d(2))
        diff1 = tuple(a - b for a, b in zip(v1[s2], v1[s1]))
        diff2 = tuple(a - b for a, b in zip(v2[s2], v2[s1]))
        assert diff1 != diff2
        for word_txt in ("e", "z1 z2^-1", "z2 z1^-1", "z1^-1", "z2"):
            candidate = {}
            ok_candidate = True
            for cone in base.fan.faces:
                w = identity_word(2) if cone else W(word_txt)
                candidate[cone] = (ONE, w)
            try:
                assert not sheaves_isomorphic(g1, g2, candidate)
            except CandidateNotUnit:
                pass

    def test_candidate_unit_validation(self):
        base = build_system(fan_p2())
        gluing = sheaf_from_divisor(base, o_d(1))
        candidate = {c: (ONE, identity_word(2)) for c in base.fan.faces}
        candidate[(0, 1)] = (ONE, W("z1"))   # exponent vector not perp
        with pytest.raises(CandidateNotUnit):
            sheaves_isomorphic(gluing, gluing, candidate)

    @pytest.mark.parametrize("cone, unit, named", [
        ((0, 1), (GaussRational(0), identity_word(2)), "is zero"),
        ((0,), (ONE, W("z1 z2 z1^-1")), "is not a unit"),
    ], ids=["zero-scalar", "non-unit-word"])
    def test_candidate_must_be_a_unit(self, cone, unit, named):
        base = build_system(fan_p2())
        gluing = sheaf_from_divisor(base, o_d(1))
        candidate = {c: (ONE, identity_word(2)) for c in base.fan.faces}
        candidate[cone] = unit
        with pytest.raises(CandidateNotUnit, match=named):
            sheaves_isomorphic(gluing, gluing, candidate)

    def test_different_incidence_sets(self):
        base = build_system(fan_p2())
        gluing = sheaf_from_divisor(base, o_d(1))
        words = dict(gluing.words)
        del words[((0, 1), (0,))]
        fewer = GluingData(system=gluing.system, scalars=gluing.scalars, words=words)
        candidate = {c: (ONE, identity_word(2)) for c in base.fan.faces}
        assert not sheaves_isomorphic(gluing, fewer, candidate)


class TestPolytope:
    def test_counts_against_brute_force(self):
        fan = fan_p2()
        for d in (1, 3):
            pts = polytope_sections(fan, o_d(d))
            brute = brute_lattice_points(fan.rays, (0, 0, d), radius=8)
            assert pts == brute
            assert len(pts) == triangle_count(d)

    def test_empty(self):
        assert polytope_sections(fan_p2(), (0, 0, -1)) == []

    def test_unbounded(self):
        fan = validate_fan(2, [(1, 0), (0, 1)], [(0, 1)])
        with pytest.raises(UnboundedPolytope):
            polytope_sections(fan, (0, 0))

    def test_p1(self):
        assert len(polytope_sections(fan_p1(), (0, 1))) == 2

    def test_random_divisors_against_brute_force(self):
        rng = random.Random(29)
        fans = [  # rays, maximal cones, brute-force radius, divisors
            ([(1,), (-1,)], [(0,), (1,)], 8, 15),
            ([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)], 8, 25),
            ([(1, 0), (0, 1), (-1, 3), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)], 16, 25),
            ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
             [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], 10, 12),
        ]
        empty = 0
        for rays, cones, radius, count in fans:
            fan = validate_fan(len(rays[0]), rays, cones)
            for _ in range(count):
                coeffs = tuple(rng.randint(-3, 3) for _ in rays)
                brute = brute_lattice_points(fan.rays, coeffs, radius)
                ineqs = [(ray, -a) for ray, a in zip(fan.rays, coeffs)]
                assert lattice_points(ineqs, fan.rank) == brute
                assert polytope_sections(fan, coeffs) == brute
                empty += not brute
        assert empty >= 5

    def test_unbounded_names_first_unbounded_coordinate(self):
        # the upper half plane: coordinate 1 is bounded, coordinate 2 is not
        fan = validate_fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)])
        with pytest.raises(UnboundedPolytope, match="unbounded in coordinate 2"):
            polytope_sections(fan, (1, 0, 1))
        assert polytope_sections(fan, (-1, 0, -1)) == []


class TestExtendSection:
    def test_trivial_divisor(self):
        base = build_system(fan_p2())
        gluing = sheaf_from_divisor(base, o_d(0))
        section = extend_section(gluing, o_d(0), (0, 0))
        assert section.system.stages == gluing.system.stages == ()
        for cone in base.fan.faces:
            assert section.locals[cone] == AlgElem.from_word(identity_word(2))
        assert check_twisted_section(section).ok

    def test_p2_o1_all_points(self):
        base = build_system(fan_p2())
        gluing = sheaf_from_divisor(base, o_d(1))
        vertex = divisor_vertices(base.fan, o_d(1))
        for point in polytope_sections(base.fan, o_d(1)):
            section = extend_section(gluing, o_d(1), point)
            report = check_twisted_section(section)
            assert report.ok, report.to_text()
            for cone in base.fan.faces:
                shadow = abelianize_elem(section.locals[cone])
                diff = tuple(p - q for p, q in zip(point, vertex[cone]))
                assert shadow == {diff: ONE}

    def test_p1_o2_middle_point(self):
        base = build_system(fan_p1())
        divisor = (0, 2)
        section = extend_section(sheaf_from_divisor(base, divisor), divisor, (1,))
        assert check_twisted_section(section).ok
        for cone in base.fan.faces:
            assert section.locals[cone].max_word_len() <= 2

    def test_point_outside_polytope(self):
        base = build_system(fan_p2())
        gluing = sheaf_from_divisor(base, o_d(1))
        with pytest.raises(NotASection):
            extend_section(gluing, o_d(1), (2, 2))

    def test_survives_further_softening(self):
        from nctoric.deltasystem import soften
        base = build_system(fan_p2())
        section = extend_section(sheaf_from_divisor(base, o_d(1)), o_d(1), (1, 0))
        softer, _ = soften(section.system, {(): [W("z1 z2 z1^-1 z2^-1")]})
        gluing2 = GluingData(system=softer, scalars=section.gluing.scalars,
                             words=section.gluing.words)
        section2 = TwistedSectionData(gluing=gluing2, locals=section.locals)
        assert check_twisted_section(section2).ok

    def test_genuinely_noncommutative_charts_soften(self):
        fan = fan_p2()
        lifts = {((0, 1), (0, 1)): W("z1 z2 z1^-1"),
                 ((0, 2), (0, -1)): W("z1 z2^-1 z1^-1")}
        system = build_system(fan, lifts)
        assert not system.charts[(0,)].member(W("z2"))
        gluing = sheaf_from_divisor(system, o_d(1))
        softened = gluing.system
        assert len(softened.stages) == 1 and all(
            not fan.is_maximal(c) for c in softened.stages[0])
        assert check_gluing(gluing).ok
        assert check_admissible(softened).ok
        for point in polytope_sections(fan, o_d(1)):
            section = extend_section(gluing, o_d(1), point)
            gluing = section.gluing
            assert check_twisted_section(section).ok


class TestTwistedSectionChecker:
    def _section(self):
        base = build_system(fan_p2())
        return extend_section(sheaf_from_divisor(base, o_d(1)), o_d(1), (1, 0))

    def test_scalar_multiple_passes(self):
        section = self._section()
        scaled = TwistedSectionData(gluing=section.gluing,
                                    locals={c: e.scale(2)
                                            for c, e in section.locals.items()})
        assert check_twisted_section(scaled).ok

    def test_one_chart_scaled_passes(self):
        # units absorb chart-wise rescaling
        section = self._section()
        locals_ = dict(section.locals)
        locals_[(0,)] = locals_[(0,)].scale(GaussRational(2))
        bumped = TwistedSectionData(gluing=section.gluing, locals=locals_)
        assert check_twisted_section(bumped).ok

    def test_generic_perturbation_fails(self):
        section = self._section()
        locals_ = dict(section.locals)
        locals_[(0,)] = locals_[(0,)] + AlgElem.from_word(identity_word(2))
        broken = TwistedSectionData(gluing=section.gluing, locals=locals_)
        report = check_twisted_section(broken)
        assert not report.ok
        assert all(f.clause == "Def 3.6" for f in report.failures())


def fan_f1():
    return validate_fan(2, [(1, 0), (0, 1), (-1, 1), (0, -1)],
                        [(0, 1), (1, 2), (2, 3), (0, 3)])


def sections_on_one_gluing(fan, divisor):
    """A section for every lattice point of the divisor's polytope, each
    extended from the gluing of the one before."""
    gluing = sheaf_from_divisor(build_system(fan), divisor)
    sections = []
    for point in polytope_sections(fan, divisor):
        sections.append(extend_section(gluing, divisor, point))
        gluing = sections[-1].gluing
    return sections


class TestTwistedSectionUnits:
    # the checker takes quotients by the first lower monomial only; the
    # oracle tries every pair of monomials
    @pytest.mark.parametrize("fan, divisor", [(fan_p1, (1, 2)), (fan_p2, o_d(2)),
                                              (fan_f1, (0, 0, 1, 1))])
    def test_combined_sections_match_all_pairs(self, fan, divisor):
        sections = sections_on_one_gluing(fan(), divisor)
        rng = random.Random(len(sections))
        verdicts = set()   # of single incidences
        for k in (2, 3):
            for chosen in combinations(sections, k):
                weights = [GaussRational(rng.randint(1, 4), rng.randint(-2, 2)) for _ in chosen]
                combined = combine_sections(weights, list(chosen))
                # one more term on one cone breaks its incidences
                cone = rng.choice(sorted(combined.locals))
                bumped = dict(combined.locals)
                bumped[cone] = bumped[cone] + AlgElem.from_word(identity_word(fan().rank), I)
                for section in (combined,
                                TwistedSectionData(gluing=combined.gluing, locals=bumped)):
                    units = section_units_by_all_pairs(section)
                    want = [(f"{list(u)} > {list(l)}", unit is not None,
                             f"verifying unit {unit[0]}*{format_word(unit[1])}" if unit
                             else "no verifying unit among monomial quotients")
                            for (u, l), unit in units.items()]
                    report = check_twisted_section(section)
                    assert [(f.locus, f.ok, f.detail) for f in report.findings] == want
                    verdicts |= {f.ok for f in report.findings}
        assert verdicts == {True, False}


class TestSubscheme:
    def _two_sections(self):
        base = build_system(fan_p2())
        s1 = extend_section(sheaf_from_divisor(base, o_d(1)), o_d(1), (1, 0))
        s2 = extend_section(s1.gluing, o_d(1), (0, 1))
        return s2.system, s1, s2

    def test_hypersurface_datum(self):
        system, s1, _ = self._two_sections()
        _, charts = subscheme_from_sections([s1])
        for cone, gens in charts.items():
            assert len(gens) == 1
            assert len(gens[0].terms) == 1

    def test_point_pair_datum(self):
        system, s1, s2 = self._two_sections()
        carrier, charts = subscheme_from_sections([s1, s2])
        assert carrier is system
        # commutative shadow on the reference chart: the ideal (x, y)
        shadows = [abelianize_elem(g) for g in charts[(0, 1)]]
        assert {tuple(s) for s in (sorted(sh) for sh in shadows)} == \
            {((0, 1),), ((1, 0),)}

    def test_unit_right_multiplication_invariance(self):
        system, s1, _ = self._two_sections()
        cone = (0,)
        r = s1.locals[cone]
        unit = W("z2^-1")
        from nctoric.freeword import is_unit_in
        assert is_unit_in(system.charts[cone], unit)
        r_moved = r * AlgElem.from_word(unit)
        bound = max(r.max_word_len(), r_moved.max_word_len()) + 2
        one_gen = BoundedIdeal((r,), bound)
        other_gen = BoundedIdeal((r_moved,), bound)
        assert bounded_ideal_member(one_gen, r_moved) is not None
        assert bounded_ideal_member(other_gen, r) is not None

    def test_combination(self):
        system, s1, s2 = self._two_sections()
        combined = combine_sections([ONE, GaussRational(0, 1)], [s1, s2])
        for cone in system.fan.faces:
            assert combined.locals[cone] == s1.locals[cone] + s2.locals[cone].scale(I)

    def test_missing_presentation_refused(self):
        # both calls share one carrier rule, so both refuse a section with
        # no presentation on a cone
        _, s1, s2 = self._two_sections()
        partial = TwistedSectionData(gluing=s1.gluing, locals={
            c: e for c, e in s1.locals.items() if c != (0,)})
        with pytest.raises(MismatchedSystems, match=r"no local presentation on cone \[0\]"):
            combine_sections([ONE, ONE], [partial, s2])
        with pytest.raises(MismatchedSystems, match=r"no local presentation on cone \[0\]"):
            subscheme_from_sections([partial, s2])

    def test_combination_judged_honestly(self):
        # a sum of monomial sections transports with different unit factors
        # per summand, so no single unit can verify it; the checker must say
        # so rather than assume the combination is again a twisted section
        base = build_system(fan_p2())
        gluing = sheaf_from_divisor(base, o_d(1))
        sections = []
        for point in polytope_sections(base.fan, o_d(1)):
            section = extend_section(gluing, o_d(1), point)
            gluing = section.gluing
            sections.append(section)
        combined = combine_sections([ONE] * len(sections), sections)
        report = check_twisted_section(combined)
        assert not report.ok
        assert all(f.clause == "Def 3.6" for f in report.failures())

    def test_mixed_degree_point_pair(self):
        # one linear and one quadratic section cut a complete intersection;
        # each chart shadow must be the dehomogenized classical generator
        base = build_system(fan_p2())
        s1 = extend_section(sheaf_from_divisor(base, o_d(1)), o_d(1), (1, 0))
        s2 = extend_section(sheaf_from_divisor(s1.system, o_d(2)), o_d(2), (1, 1))
        assert check_twisted_section(s2).ok
        _, charts = subscheme_from_sections([s1, s2])
        v1 = divisor_vertices(base.fan, o_d(1))
        v2 = divisor_vertices(base.fan, o_d(2))
        for sigma in base.fan.max_cones:
            shadows = [abelianize_elem(g) for g in charts[sigma]]
            want = [
                {tuple(p - q for p, q in zip((1, 0), v1[sigma])): ONE},
                {tuple(p - q for p, q in zip((1, 1), v2[sigma])): ONE},
            ]
            assert shadows == want

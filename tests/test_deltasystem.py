import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nctoric.azumaya import QuasiHomChart, check_gluing_pair
from nctoric.deltasystem import (ChartSystem, _assert_inverse_system,
                                 abelianized_chart, augment_system, build_system,
                                 check_admissible, soften)
from nctoric.errors import BadLift, ExtraOutsideDualCone, MaximalChartTouched
from nctoric.freeword import (ReducedWord, Submonoid, canonical_lift,
                              format_word, parse_word, word_inv, word_mul)
from nctoric.qimatrix import qim_identity
from nctoric.toricfan import cone_monoid_generators, validate_fan
from oracles import (complete_system, equal_charts, immediate_cover_descent, regrown_system,
                     union_of_maximal_charts)


def W(text, rank=2):
    return parse_word(text, rank)


def fan_p2():
    return validate_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def fan_single():
    return validate_fan(2, [(1, 0), (0, 1)], [(0, 1)])


def fan_p1():
    return validate_fan(1, [(1,), (-1,)], [(0,), (1,)])


def fan_p3():
    return validate_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
                        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def constructed_systems(fan):
    """Systems from every constructor on the fan: build_system with the
    canonical lifts and with one lift conjugated by the last letter,
    complete_system with a redundant maximal generator, augment_system with
    extras on the zero and a maximal cone, and soften with a cubed generator
    on every non-maximal cone."""
    rank = fan.rank
    z, zi = ReducedWord((rank,), rank), ReducedWord((-rank,), rank)
    sigma = fan.max_cones[0]
    u = fan.duals[sigma][0]
    built = build_system(fan)
    exotic = build_system(fan, {(sigma, u): word_mul(word_mul(z, canonical_lift(u, rank)), zi)})
    partial = {s: list(exotic.charts[s].generators) for s in fan.max_cones}
    partial[sigma].append(word_mul(partial[sigma][0], partial[sigma][-1]))
    completed = complete_system(fan, partial)
    gens = built.charts[sigma].generators
    augmented = augment_system(exotic, {sigma: [word_mul(gens[-1], gens[0])],
                                        (): [word_mul(z, z)]})
    lower = {c: [word_mul(word_mul(g, g), g) for g in built.charts[c].generators[:1]]
             for c in fan.faces if not fan.is_maximal(c)}
    softened, _ = soften(augmented, lower)
    return built, exotic, completed, augmented, softened


def words(system, cone):
    return [format_word(g) for g in system.charts[cone].generators]


class TestBuild:
    def test_single_cone_charts(self):
        system = build_system(fan_single())
        assert words(system, (0, 1)) == ["z1", "z2"]
        assert words(system, (0,)) == ["z1", "z2", "z2^-1"]
        assert words(system, (1,)) == ["z1", "z2", "z1^-1"]
        zero = words(system, ())
        assert set(zero) == {"z1", "z2", "z1^-1", "z2^-1"}

    def test_p2_all_admissible(self):
        system = build_system(fan_p2())
        report = check_admissible(system)
        assert report.ok, report.to_text()

    def test_p1_rank_one(self):
        system = build_system(fan_p1())
        assert words(system, (0,)) == ["z1"]
        assert words(system, (1,)) == ["z1^-1"]
        assert set(words(system, ())) == {"z1", "z1^-1"}
        assert check_admissible(system).ok

    def test_bad_lift(self):
        fan = fan_single()
        with pytest.raises(BadLift):
            build_system(fan, {((0, 1), (1, 0)): W("z2")})

    def test_lift_off_a_maximal_dual_generator(self):
        fan = fan_p2()
        with pytest.raises(BadLift):
            build_system(fan, {((0,), (1, 0)): W("z1")})
        with pytest.raises(BadLift):
            build_system(fan, {((0, 1), (1, 1)): W("z1 z2")})

    def test_deterministic(self):
        fan = fan_p2()
        a = build_system(fan)
        b = build_system(fan)
        assert equal_charts(a, b)

    def test_exotic_lift(self):
        fan = fan_single()
        system = build_system(fan, {((0, 1), (1, 0)): W("z2 z1 z2^-1")})
        assert words(system, (0, 1)) == ["z2 z1 z2^-1", "z2"]
        assert check_admissible(system).ok

    def test_inverse_system_property(self):
        # every constructor lists each upper generator among the lower
        # chart's generators, which check_gluing_pair reads images by
        for fan in (fan_p2(), fan_single(), fan_p1(), fan_p3()):
            for system in constructed_systems(fan):
                for (upper, lower) in system.fan.incidence_pairs():
                    lower_chart = system.charts[lower]
                    for g in system.charts[upper].generators:
                        assert g in lower_chart.generators
                        assert lower_chart.member(g)

    def test_lower_chart_without_upper_generator(self):
        # z2 is a member of the lower chart but not one of its generators:
        # only a hand-assembled system has this, and (c) fails, decided
        system = build_system(fan_single())
        charts = dict(system.charts)
        charts[(0,)] = Submonoid([W("z1"), W("z2^2"), W("z2^-1")], 2)
        charts[()] = Submonoid(charts[()].generators + (W("z2^2"),), 2)
        hand = ChartSystem(fan=system.fan, charts=charts)
        assert hand.charts[(0,)].member(W("z2"))
        with pytest.raises(AssertionError, match=r"z2 from cone \[0, 1\]"):
            _assert_inverse_system(hand)
        e = qim_identity(2)
        upper = QuasiHomChart(cone=(0, 1), identity_image=e,
                              images={g: e for g in charts[(0, 1)].generators})
        lower = QuasiHomChart(cone=(0,), identity_image=e,
                              images={g: e for g in charts[(0,)].generators})
        failures = check_gluing_pair(hand, upper, lower).failures()
        assert [(f.clause, f.detail, f.bound_relative) for f in failures] == [
            ("Def 4.2.3(c)", "z2 is not a lower generator with an image", False)]


class TestCheckAdmissible:
    def test_tampered_ray_chart(self):
        system = build_system(fan_single())
        bad = ChartSystem(fan=system.fan, charts=dict(system.charts))
        bad.charts[(0,)] = Submonoid([W("z1"), W("z2")], 2)
        report = check_admissible(bad)
        assert not report.ok
        clauses_hit = {f.clause for f in report.failures()}
        assert "Def 2.2.4(1)" in clauses_hit or "Def 2.2.4(2)" in clauses_hit

    def test_tampered_ray_chart_findings(self):
        # z2 kills the ray [0] but its inverse is not in the chart, so the
        # ray sum cannot bound the search: building the cone's solver fails
        # once, before any surjectivity finding
        system = build_system(fan_single())
        bad = ChartSystem(fan=system.fan, charts=dict(system.charts))
        bad.charts[(0,)] = Submonoid([W("z1"), W("z2")], 2)
        findings = [(f.clause, f.ok, f.detail) for f in check_admissible(bad).findings
                    if f.locus == "cone [0]"]
        assert findings == [
            ("Def 2.2.4(0)", True, "2 generators"),
            ("Def 2.2.4(1)", False, "functional (1, 0) does not bound the search: it must "
             "be positive on the non-invertible generators and zero on the invertible ones"),
            ("Def 2.2.4(2)", False, "generator z2"),
        ]

    def test_zero_cone_passes(self):
        system = build_system(fan_p2())
        report = check_admissible(system)
        zero_findings = [f for f in report.findings if f.locus == "cone []"]
        assert zero_findings and all(f.ok for f in zero_findings)


class TestCompletion:
    def test_default_charts_reproduce_build(self):
        fan = fan_p2()
        built = build_system(fan)
        partial = {s: list(built.charts[s].generators) for s in fan.max_cones}
        completed = complete_system(fan, partial)
        assert equal_charts(completed, built)

    def test_redundant_generator_propagates(self):
        fan = fan_p2()
        built = build_system(fan)
        partial = {s: list(built.charts[s].generators) for s in fan.max_cones}
        partial[(0, 1)] = partial[(0, 1)] + [W("z1 z2")]
        completed = complete_system(fan, partial)
        assert check_admissible(completed).ok
        assert completed.charts[()].member(W("z1 z2"))
        assert completed.charts[(0,)].member(W("z1 z2"))

    def test_missing_direction_rejected(self):
        fan = fan_p2()
        built = build_system(fan)
        partial = {s: list(built.charts[s].generators) for s in fan.max_cones}
        partial[(0, 1)] = [W("z1")]
        with pytest.raises(ValueError, match="Def 2.2.4"):
            complete_system(fan, partial)


class TestAugmentation:
    def test_empty_extras_identity(self):
        system = build_system(fan_single())
        out = augment_system(system, {})
        assert equal_charts(out, system)

    def test_zero_cone_gains_word_and_inverse(self):
        system = build_system(fan_single())
        w = W("z1 z2 z1^-1")
        out = augment_system(system, {(): [w]})
        assert out.charts[()].member(w)
        assert out.charts[()].member(word_inv(w))
        assert check_admissible(out).ok

    def test_monotone(self):
        system = build_system(fan_p2())
        out = augment_system(system, {(1,): [W("z1 z2")]})
        for cone in system.fan.faces:
            for g in system.charts[cone].generators:
                assert out.charts[cone].member(g)

    def test_arbitrary_indexed_sets_contained(self):
        # arbitrary per-cone word sets with valid exponent vectors end up
        # inside the augmented charts
        fan = fan_p2()
        system = build_system(fan)
        extra = {(0, 1): [W("z2 z1")], (0,): [W("z1 z2 z1")], (): [W("z2^-1 z1^-1")]}
        out = augment_system(system, extra)
        for cone, ws in extra.items():
            for w in ws:
                assert out.charts[cone].member(w)
        assert check_admissible(out).ok

    def test_outside_dual_cone_rejected(self):
        system = build_system(fan_single())
        with pytest.raises(ExtraOutsideDualCone):
            augment_system(system, {(0, 1): [W("z1^-1")]})

    def test_cone_outside_the_fan_rejected(self):
        system = build_system(fan_p2())
        with pytest.raises(ExtraOutsideDualCone):
            augment_system(system, {(5,): [W("z1")]})


class TestSoftening:
    def test_unsorted_cone_rejected(self):
        # (1, 0) names no cone of the fan, though its rays span the maximal (0, 1)
        with pytest.raises(ExtraOutsideDualCone):
            soften(build_system(fan_p2()), {(1, 0): [W("z1 z2")]})

    def test_identity(self):
        system = build_system(fan_single())
        out, added = soften(system, {})
        assert equal_charts(out, system)
        assert added == {} and out.stages == ()
        assert all(out.charts[c] is system.charts[c] for c in system.fan.faces)

    def test_ray_extras_grow_ray_and_zero_only(self):
        system = build_system(fan_single())
        out, added = soften(system, {(0,): [W("z1 z2^2")]})
        touched = set(added)
        assert touched <= {(0,), ()}
        assert (0,) in touched
        for sigma in system.fan.max_cones:
            assert out.charts[sigma].generators == system.charts[sigma].generators

    def test_maximal_cone_rejected(self):
        system = build_system(fan_single())
        with pytest.raises(MaximalChartTouched):
            soften(system, {(0, 1): [W("z1")]})


class TestRankThree:
    def _fan(self):
        return fan_p3()

    def test_build_and_admissibility(self):
        fan = self._fan()
        system = build_system(fan)
        assert len(fan.faces) == 15
        assert check_admissible(system).ok

    def test_extras_flow_down_the_face_lattice(self):
        fan = self._fan()
        system = build_system(fan)
        w = parse_word("z1 z2^2", 3)
        out, added = soften(system, {(0, 1): [w]})
        touched = set(added)
        assert touched
        assert all(set(cone) <= {0, 1} for cone in touched)
        assert check_admissible(out).ok
        assert out.charts[()].member(w)

    def test_completion_with_extra_generator(self):
        fan = self._fan()
        system = build_system(fan)
        extra = parse_word("z1 z3 z1^-1", 3)
        partial = {s: list(system.charts[s].generators) for s in fan.max_cones}
        partial[(0, 1, 2)] = partial[(0, 1, 2)] + [extra]
        completed = complete_system(fan, partial)
        assert check_admissible(completed).ok
        assert completed.charts[(0,)].member(extra)


class TestAbelianizedChart:
    def test_maximal_is_dual_basis(self):
        system = build_system(fan_p2())
        assert abelianized_chart(system, (0, 1)) == [(1, 0), (0, 1)]
        assert abelianized_chart(system, (1, 2)) == [(-1, 1), (-1, 0)]

    def test_zero_cone_spans_group(self):
        system = build_system(fan_single())
        vecs = set(abelianized_chart(system, ()))
        assert {(1, 0), (0, 1), (-1, 0), (0, -1)} <= vecs

    def test_ray_chart_matches_cone_monoid(self):
        from nctoric.toricfan import comm_monoid_member, cone_monoid_generators, ray_sum
        system = build_system(fan_p2())
        vecs = abelianized_chart(system, (1,))
        targets, flags = cone_monoid_generators(system.fan, (1,))
        f = ray_sum(system.fan, (1,))
        for t, flag in zip(targets, flags):
            assert comm_monoid_member(vecs, t, f) is not None
            if flag:
                assert comm_monoid_member(vecs, tuple(-x for x in t), f) is not None


RULE_FANS = {
    "p1": (1, [(1,), (-1,)], [(0,), (1,)]),
    "one-cone": (2, [(1, 0), (0, 1)], [(0, 1)]),
    "p2": (2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)]),
    "p2-sorted": (2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (0, 2), (1, 2)]),
    "f3": (2, [(1, 0), (0, 1), (-1, 3), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "p1xp1": (2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "p3": (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
           [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
}


def word_lists(system):
    return {c: list(chart.generators) for c, chart in system.charts.items()}


def random_dual_word(rng, fan, tau, perp=False):
    """A random word whose exponent vector lies in the dual cone of tau (in
    its perpendicular lattice when perp): a product, in random order, of
    lifts of dual-monoid generators, the perpendicular ones with either
    sign, conjugated by a random letter."""
    gens, flags = cone_monoid_generators(fan, tau)
    pieces = []
    for g, is_perp in zip(gens, flags):
        if perp and not is_perp:
            continue
        c = rng.randint(-1, 2) if is_perp else rng.randint(0, 2)
        if c:
            pieces.append(canonical_lift(tuple(c * x for x in g), fan.rank))
    rng.shuffle(pieces)
    word = ReducedWord((), fan.rank)
    for piece in pieces:
        word = word_mul(word, piece)
    letter = ReducedWord((rng.choice([1, -1]) * rng.randint(1, fan.rank),), fan.rank)
    return word_mul(word_mul(letter, word), word_inv(letter))


class TestOneLowerChartRule:
    """Every constructor gives a lower chart the one chart of the rule:
    build and completion list exactly the union of the covering maximal
    charts, closed; augmentation and softening give the generator set of
    the descent through immediate covers."""

    @pytest.mark.parametrize("name", sorted(RULE_FANS))
    def test_build_and_completion_list_the_union_in_order(self, name):
        fan = validate_fan(*RULE_FANS[name])
        rank = fan.rank
        z = ReducedWord((rank,), rank)
        sigma = fan.max_cones[-1]
        u = fan.duals[sigma][0]
        for lifts in ({}, {(sigma, u): word_mul(word_mul(z, canonical_lift(u, rank)),
                                               word_inv(z))}):
            built = build_system(fan, lifts)
            maximal = {s: list(built.charts[s].generators) for s in fan.max_cones}
            assert word_lists(built) == union_of_maximal_charts(fan, maximal)
            partial = {s: ws + [word_mul(ws[-1], ws[0]), ws[0]] for s, ws in maximal.items()}
            completed = complete_system(fan, partial)
            assert word_lists(completed) == union_of_maximal_charts(fan, partial)

    @given(name=st.sampled_from(sorted(RULE_FANS)), seed=st.integers(0, 2 ** 32 - 1))
    def test_augment_and_soften_give_the_descent_sets(self, name, seed):
        fan = validate_fan(*RULE_FANS[name])
        rng = random.Random(seed)
        lower = [c for c in fan.faces if not fan.is_maximal(c)]
        system = build_system(fan)
        reference = word_lists(system)
        for _ in range(3):
            if rng.randint(0, 1):
                cones = rng.sample(fan.faces, 2)
                extra = {c: [random_dual_word(rng, fan, c)] for c in cones}
                out = augment_system(system, extra)
            else:
                cones = rng.sample(lower, min(2, len(lower)))
                extra = {c: [random_dual_word(rng, fan, c)] for c in cones}
                out, added = soften(system, extra)
                new = {c: [w for w in out.charts[c].generators
                           if w not in system.charts[c].generators] for c in fan.faces}
                assert added == {c: ws for c, ws in new.items() if ws}
            system = out
            reference = immediate_cover_descent(fan, reference, extra)
            assert ({c: set(ws) for c, ws in word_lists(system).items()}
                    == {c: set(ws) for c, ws in reference.items()})

    @pytest.mark.parametrize("name", sorted(n for n in RULE_FANS if RULE_FANS[n][0] <= 2))
    def test_paired_softenings_give_the_descent_in_order(self, name):
        # sheaf and section softenings adjoin each word with its inverse
        fan = validate_fan(*RULE_FANS[name])
        lower = [c for c in fan.faces if not fan.is_maximal(c)]
        for seed in range(20):
            rng = random.Random(seed)
            system = build_system(fan)
            reference = word_lists(system)
            for _ in range(3):
                extra = {}
                for c in rng.sample(lower, min(2, len(lower))):
                    w = random_dual_word(rng, fan, c, perp=True)
                    extra[c] = [w, word_inv(w)]
                system, _ = soften(system, extra)
                reference = immediate_cover_descent(fan, reference, extra)
                assert word_lists(system) == reference


GROWTH_FANS = ("p2", "p3", "f3")
WORD_KINDS = ("dual", "perp", "identity", "generator")


@st.composite
def growth_stages(draw):
    """A fan name, a seed, and up to three stages, each a flag for soften
    (else augment_system) and its extras as (cone index, word kind, copies)
    triples. A cone index picks from every face for augment_system, maximal
    cones included, and from the lower faces for soften. A stage with no
    triples is empty."""
    name = draw(st.sampled_from(GROWTH_FANS))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    extras = st.lists(st.tuples(st.integers(0, 14), st.sampled_from(WORD_KINDS),
                                st.integers(1, 2)), max_size=3)
    return name, seed, draw(st.lists(st.tuples(st.booleans(), extras), min_size=1, max_size=3))


def stage_extra(rng, system, softening, triples):
    """The extras of one stage: a random word in the cone's dual cone (or in
    its perpendicular lattice), the identity, or one of the chart's own
    generators, each listed as often as its triple says."""
    fan = system.fan
    cones = [c for c in fan.faces if not (softening and fan.is_maximal(c))]
    extra = {}
    for index, kind, copies in triples:
        cone = cones[index % len(cones)]
        if kind == "generator":
            w = rng.choice(system.charts[cone].generators)
        elif kind == "identity":
            w = ReducedWord((), fan.rank)
        else:
            w = random_dual_word(rng, fan, cone, perp=kind == "perp")
        extra.setdefault(cone, []).extend([w] * copies)
    return extra


class TestAppendOnlyGrowth:
    """augment_system and soften append each stage's words to the charts
    they reach and keep every other chart as it is."""

    @given(growth_stages())
    def test_appending_equals_regrowing(self, case):
        name, seed, stages = case
        fan = validate_fan(*RULE_FANS[name])
        rng = random.Random(seed)
        lifts = {}
        if rng.randint(0, 1):
            sigma = rng.choice(fan.max_cones)
            u = rng.choice(fan.duals[sigma])
            z = ReducedWord((rng.choice([1, -1]) * rng.randint(1, fan.rank),), fan.rank)
            lifts[(sigma, u)] = word_mul(word_mul(z, canonical_lift(u, fan.rank)), word_inv(z))
        system = build_system(fan, lifts)
        for softening, triples in stages:
            extra = stage_extra(rng, system, softening, triples)
            if softening:
                out, added = soften(system, extra)
            else:
                out = augment_system(system, extra)
            reference = regrown_system(system, extra)
            for cone in fan.faces:
                old, new = system.charts[cone], out.charts[cone]
                assert new.generators == reference.charts[cone].generators, (name, cone)
                tail = list(new.generators[len(old.generators):])
                assert (new is old) == (not tail)
                if softening:
                    assert added.get(cone, []) == tail
            system = out
        replayed = build_system(fan, system.lifts, system.stages)
        for cone in fan.faces:
            assert replayed.charts[cone].generators == system.charts[cone].generators
        assert replayed.lifts == system.lifts and replayed.stages == system.stages

    def test_soften_keeps_the_charts_it_does_not_reach(self, saturations):
        system = build_system(fan_p3())
        for chart in system.charts.values():
            chart.member(chart.generators[0])
        w = parse_word("z1 z3 z1^-1", 3)
        out, added = soften(system, {(0, 1): [w, word_inv(w)]})
        assert set(added) == {(0, 1), (0,), (1,), ()}
        saturations.clear()
        for cone, chart in out.charts.items():
            old = system.charts[cone]
            if cone in added:
                assert chart.generators == old.generators + tuple(added[cone])
            else:
                assert chart is old
                chart.member(w)
        assert saturations == []

    @pytest.mark.parametrize("extra", [
        {(0,): []}, {(0,): [W("")]}, {(0,): [W("z1")], (): [W("z2^-1"), W("z1 z2^-1")]}])
    def test_soften_by_nothing_new_keeps_every_chart(self, extra):
        # an empty list, the identity, and words already generators
        system = build_system(fan_p2())
        out, added = soften(system, extra)
        assert added == {}
        assert all(out.charts[c] is system.charts[c] for c in system.fan.faces)

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance here is exact equality, never approximate.
"""
import random
import time
from fractions import Fraction
from itertools import product as iproduct

from nctoric.azumaya import (MorphismData, QuasiHomChart, a1_probe,
                             idem_classify, sample_matrix_model,
                             surrogate_basis, verify_morphism)
from nctoric.deltasystem import augment_system, build_system, check_admissible
from nctoric.exactmath import GaussRational, ONE, ZERO, format_gauss
from nctoric.freeword import (Submonoid, abelianize, identity_word,
                              parse_word, word_inv, word_mul, words_up_to)
from nctoric.ncalgebra import (AlgElem, BoundedIdeal, abelianize_elem,
                               bounded_ideal_member)
from nctoric.qimatrix import (qim_add, qim_identity, qim_is_idempotent, qim_is_zero, qim_mul,
                              qim_rank, qim_zero)
from nctoric.sheaves import (GluingData, TwistedSectionData, check_gluing,
                             check_twisted_section, combine_sections, extend_section,
                             sheaf_from_divisor, subscheme_from_sections)
from nctoric.toricfan import divisor_vertices, polytope_sections, validate_fan
from oracles import (brute_lattice_points, dyck_membership, qi_solve, qim_from_rows,
                     random_matrix, random_reduced_word, triangle_count)


def W(text, rank=2):
    return parse_word(text, rank)


def fan_p2():
    return validate_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def fan_p1():
    return validate_fan(1, [(1,), (-1,)], [(0,), (1,)])


def report_line(number, name):
    print(f"ACCEPTANCE {number:2d} [{name}]: PASS")


def test_criterion_01_word_monoid_laws():
    rng = random.Random(101)
    e = identity_word(2)
    for _ in range(10_000):
        a = random_reduced_word(rng, 2, 5)
        b = random_reduced_word(rng, 2, 5)
        c = random_reduced_word(rng, 2, 5)
        assert word_mul(word_mul(a, b), c) == word_mul(a, word_mul(b, c))
        assert word_mul(a, e) == a == word_mul(e, a)
        assert word_mul(a, word_inv(a)) == e
        va, vb = abelianize(a), abelianize(b)
        assert abelianize(word_mul(a, b)) == (va[0] + vb[0], va[1] + vb[1])
    g1 = W("z1 z2^3 z1^2 z2^-2 z1^-1 z2 z1^2 z2^-2 z1^-1 z2^-1 z1 z2^-1 z1^-3")
    g2 = W("z2^-2 z1^-1 z2 z1^-1 z2 z1^-1 z2^3 z1 z2^-2 z1^2 z2^-1")
    assert abelianize(g1) == (1, -2)
    assert abelianize(g2) == (0, 0)
    report_line(1, "word monoid laws and projection values")


def test_criterion_02_membership_oracle_equivalence():
    rng = random.Random(20260811)
    words6 = words_up_to(2, 6)
    disagreements = 0
    for _ in range(100):
        gens = [random_reduced_word(rng, 2, 3) for _ in range(3)]
        sub = Submonoid(gens, 2)
        oracle = dyck_membership(gens, 2)
        for w in words6:
            if sub.member(w) != oracle(w):
                disagreements += 1
        for k in range(7):
            for combo in iproduct(range(3), repeat=k):
                p = identity_word(2)
                for gi in combo:
                    p = word_mul(p, gens[gi])
                if not sub.member(p):
                    disagreements += 1
    assert disagreements == 0
    report_line(2, "automaton vs enumeration, 100 submonoids, 0 disagreements")


def test_criterion_03_chart_construction_on_four_fans():
    start = time.time()
    fans = {
        "projective line": fan_p1(),
        "projective plane": fan_p2(),
        "quadric": validate_fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)],
                                [(0, 1), (1, 2), (2, 3), (0, 3)]),
        "first Hirzebruch": validate_fan(2, [(1, 0), (0, 1), (-1, 1), (0, -1)],
                                         [(0, 1), (1, 2), (2, 3), (0, 3)]),
    }
    for name, fan in fans.items():
        system = build_system(fan)
        report = check_admissible(system)
        assert report.ok, f"{name}: " + report.to_text()
        for (upper, lower) in fan.incidence_pairs():
            for g in system.charts[upper].generators:
                assert system.charts[lower].member(g)
    elapsed = time.time() - start
    assert elapsed < 10.0
    report_line(3, f"chart systems on four fans in {elapsed:.2f}s")


def test_criterion_04_divisor_sheaf_pipeline():
    base = build_system(fan_p2())
    for d in range(4):
        gluing = sheaf_from_divisor(base, (0, 0, d))
        softened = gluing.system
        report = check_gluing(gluing)
        assert report.ok, f"degree {d}: " + report.to_text()
        for sigma in base.fan.max_cones:
            assert (softened.charts[sigma].generators
                    == base.charts[sigma].generators)
    report_line(4, "invertible sheaves for degrees 0..3 with rigid charts")


def _extend_all(fan, degree_coeffs):
    base = build_system(fan)
    divisor = degree_coeffs
    gluing = sheaf_from_divisor(base, divisor)
    points = polytope_sections(fan, divisor)
    sections = []
    for point in points:
        section = extend_section(gluing, divisor, point)
        gluing = section.gluing
        sections.append((point, section))
    return divisor_vertices(fan, divisor), sections


def test_criterion_05_sections_extend_and_counts_match():
    cases = [
        (fan_p2(), (0, 0, 1), 3),
        (fan_p2(), (0, 0, 3), 10),
        (fan_p1(), (0, 1), 2),
    ]
    for fan, coeffs, expected in cases:
        points = polytope_sections(fan, coeffs)
        brute = brute_lattice_points(fan.rays, coeffs, radius=8)
        assert points == brute
        assert len(points) == expected
        _, sections = _extend_all(fan, coeffs)
        assert len(sections) == expected
        for point, section in sections:
            report = check_twisted_section(section)
            assert report.ok, f"{point}: " + report.to_text()
    assert triangle_count(1) == 3 and triangle_count(3) == 10
    report_line(5, "every polytope point extends; counts 3/10/2 match oracle")


def test_criterion_06_abelianized_round_trip():
    for fan, coeffs in [(fan_p2(), (0, 0, 1)), (fan_p2(), (0, 0, 3)),
                        (fan_p1(), (0, 1))]:
        vertex, sections = _extend_all(fan, coeffs)
        for point, section in sections:
            for cone in fan.faces:
                shadow = abelianize_elem(section.locals[cone])
                monomial = tuple(p - q for p, q in zip(point, vertex[cone]))
                assert shadow == {monomial: ONE}
    report_line(6, "sections restrict to the classical monomials exactly")


def test_criterion_07_reduced_idempotents_on_random_strong_systems():
    rng = random.Random(707)
    fan = fan_p1()
    faces = list(fan.faces)
    r = 4

    def invertible(rngen):
        while True:
            p = random_matrix(rngen, r)
            if qim_rank(p) == r:
                return p

    def inverse(p):
        cols = [[p[i][j] for i in range(r)] for j in range(r)]
        out = []
        for k in range(r):
            target = [ONE if i == k else ZERO for i in range(r)]
            out.append(qi_solve(cols, target))
        return [[out[j][i] for j in range(r)] for i in range(r)]

    complete_seen = incomplete_seen = 0
    for _ in range(100):
        p = invertible(rng)
        pinv = inverse(p)
        assignment = [rng.randrange(len(faces) + 1) for _ in range(r)]
        planted = {}
        for fi, face in enumerate(faces):
            diag = [[ONE if (i == j and assignment[i] == fi) else ZERO
                     for j in range(r)] for i in range(r)]
            planted[face] = qim_mul(qim_mul(p, diag), pinv)
        family = {}
        for face in faces:
            acc = qim_zero(r)
            for sub in faces:
                if set(sub) <= set(face):
                    acc = qim_add(acc, planted[sub])
            family[face] = acc
        idem = idem_classify(fan, family)
        assert idem.strong
        for i, a in enumerate(faces):
            assert qim_is_idempotent(idem.reduced[a])
            assert idem.reduced[a] == planted[a]
            for b in faces[i + 1:]:
                assert qim_is_zero(qim_mul(idem.reduced[a], idem.reduced[b]))
        for face in faces:
            acc = qim_zero(r)
            for sub in faces:
                if set(sub) <= set(face):
                    acc = qim_add(acc, idem.reduced[sub])
            assert acc == family[face]
        expected_complete = all(a < len(faces) for a in assignment)
        assert idem.complete == expected_complete
        complete_seen += expected_complete
        incomplete_seen += not expected_complete
    assert complete_seen and incomplete_seen
    # the shared-corner family is flagged not-complete
    e = qim_from_rows([[1, 0], [0, 0]])
    shared = idem_classify(fan, {(0,): e, (1,): e, (): e})
    assert shared.strong and not shared.complete
    report_line(7, "reduced idempotents exact on 100 systems; "
                   "incomplete case flagged")


def test_criterion_08_line_probe_paper_values():
    for r in (2, 3):
        corner = [[ONE if (i == 0 and j == 0) else ZERO for j in range(r)]
                  for i in range(r)]
        result = a1_probe(corner)
        assert [format_gauss(c) for c in result.minpoly] == ["0", "-1", "1"]
        fibers = {format_gauss(root): dim for root, dim in result.fibers}
        assert fibers == {"0": r * r - r, "1": r}
        off = [[ONE if (i == 0 and j == 1) else ZERO for j in range(r)]
               for i in range(r)]
        result = a1_probe(off)
        assert [format_gauss(c) for c in result.minpoly] == ["0", "0", "1"]
    report_line(8, "projection probe minimal polynomials and fiber dimensions")


def test_criterion_09_matrix_point_unit_certificate():
    r = 2
    rank = r * r

    def letter(i, j):
        return parse_word(f"z{r * (i - 1) + j}", rank)

    gens = []
    for i in (1, 2):
        for j in (1, 2):
            for ip in (1, 2):
                for jp in (1, 2):
                    elem = AlgElem.from_word(word_mul(letter(i, j), letter(ip, jp)))
                    if j == ip:
                        elem = elem + AlgElem.from_word(letter(i, jp), -ONE)
                    gens.append(elem)
    for a in range(1, rank + 1):
        for b in range(a + 1, rank + 1):
            wa, wb = parse_word(f"z{a}", rank), parse_word(f"z{b}", rank)
            gens.append(AlgElem.from_word(word_mul(wa, wb))
                        + AlgElem.from_word(word_mul(wb, wa), -ONE))
    ideal = BoundedIdeal(tuple(gens), 3)
    cert = bounded_ideal_member(ideal, AlgElem.from_word(identity_word(rank)))
    assert cert is not None
    assert cert.reconstruct(ideal, rank) == AlgElem.from_word(identity_word(rank))
    report_line(9, "unit certificate for the matrix-point ideal at bound 3")


def test_criterion_10_matrix_models():
    fan = validate_fan(2, [(1, 0), (0, 1)], [(0, 1)])
    system = build_system(fan)
    for seed in range(100):
        morphism = sample_matrix_model(system, 2, "trivial", seed)
        assert verify_morphism(morphism).ok
    fan1 = fan_p1()
    system1 = build_system(fan1)
    M = qim_from_rows
    z, zi = parse_word("z1", 1), parse_word("z1^-1", 1)
    charts = {
        (0,): QuasiHomChart(cone=(0,), identity_image=M([[1, 0], [0, 0]]),
                            images={z: M([[3, 0], [0, 0]])}),
        (1,): QuasiHomChart(cone=(1,), identity_image=M([[0, 0], [0, 1]]),
                            images={zi: M([[0, 0], [0, Fraction(1, 2)]])}),
        (): QuasiHomChart(cone=(), identity_image=qim_zero(2),
                          images={z: qim_zero(2), zi: qim_zero(2)}),
    }
    brane = MorphismData(rank_r=2, system=system1, charts=charts)
    assert verify_morphism(brane).ok
    assert len(surrogate_basis(brane)) == 2
    report_line(10, "100 random matrix models pass; two-point brane surrogate "
                    "has dimension 2")


def test_criterion_11_cubic_curve_commutative_shadow():
    fan = fan_p2()
    coeffs = (0, 0, 3)
    vertex, sections = _extend_all(fan, coeffs)
    weights = []
    rng = random.Random(311)
    for _ in sections:
        weights.append(GaussRational(Fraction(rng.randint(1, 9), rng.randint(1, 3)),
                                     Fraction(rng.randint(1, 5), 1)))
    combined = combine_sections(weights, [s for _, s in sections])
    _, charts = subscheme_from_sections([combined])
    for sigma in fan.max_cones:
        assert len(charts[sigma]) == 1
        shadow = abelianize_elem(charts[sigma][0])
        oracle = {}
        for w, (point, _) in zip(weights, sections):
            vec = tuple(p - q for p, q in zip(point, vertex[sigma]))
            acc = oracle.get(vec, ZERO) + w
            if acc:
                oracle[vec] = acc
            elif vec in oracle:
                del oracle[vec]
        assert shadow == oracle
    report_line(11, "cubic subscheme shadows equal the dehomogenized cubics")


def test_criterion_12_tamper_suite():
    # (a) cocycle scalar
    base = build_system(fan_p2())
    gluing = sheaf_from_divisor(base, (0, 0, 1))
    bad = GluingData(system=gluing.system, scalars=dict(gluing.scalars),
                     words=dict(gluing.words))
    bad.scalars[((0, 1), (0,))] = GaussRational(2)
    report = check_gluing(bad)
    assert not report.ok
    assert all(f.clause == "Lemma 3.4(iii)" for f in report.failures())

    # (b) one idempotent: break strongness of the family
    fan1 = fan_p1()
    system1 = build_system(fan1)
    M = qim_from_rows
    z, zi = parse_word("z1", 1), parse_word("z1^-1", 1)
    charts = {
        (0,): QuasiHomChart(cone=(0,), identity_image=qim_identity(2),
                            images={z: M([[3, 0], [0, 0]])}),
        (1,): QuasiHomChart(cone=(1,), identity_image=M([[0, 0], [0, 1]]),
                            images={zi: M([[0, 0], [0, 5]])}),
        (): QuasiHomChart(cone=(), identity_image=qim_zero(2),
                          images={z: qim_zero(2), zi: qim_zero(2)}),
    }
    report = verify_morphism(MorphismData(rank_r=2, system=system1, charts=charts))
    assert not report.ok
    clauses_hit = {f.clause for f in report.failures()}
    assert "Def 4.2.9(ii)" in clauses_hit

    # (c) one section presentation
    divisor = (0, 0, 1)
    section = extend_section(sheaf_from_divisor(base, divisor), divisor, (1, 0))
    locals_ = dict(section.locals)
    locals_[(0,)] = locals_[(0,)] + AlgElem.from_word(identity_word(2))
    broken = TwistedSectionData(gluing=section.gluing, locals=locals_)
    report = check_twisted_section(broken)
    assert not report.ok
    assert all(f.clause == "Def 3.6" for f in report.failures())

    # (d) one fan determinant
    import pytest
    from nctoric.errors import NotIndexOne
    with pytest.raises(NotIndexOne):
        validate_fan(2, [(1, 0), (1, 2), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    from nctoric.cli import main
    import json as _json
    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.fan")
        with open(path, "w") as fh:
            _json.dump({"rank": 2, "rays": [[1, 0], [1, 2], [-1, -1]],
                        "max_cones": [[0, 1], [1, 2], [0, 2]]}, fh)
        assert main(["fan", "check", path, "--json"]) == 1

    # (e) one generator relation on a maximal chart
    fan = validate_fan(2, [(1, 0), (0, 1)], [(0, 1)])
    system = augment_system(build_system(fan), {(0, 1): [W("z1 z2")]})
    morphism = sample_matrix_model(system, 2, "trivial", 0)
    morphism.charts[(0, 1)].images[W("z1 z2")] = qim_identity(2)
    report = verify_morphism(morphism)
    assert not report.ok
    assert {f.clause for f in report.failures()} == {"Def 4.2.9(i)"}
    report_line(12, "all five corruptions detected with the right clauses")

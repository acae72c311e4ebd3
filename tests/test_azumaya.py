import copy
import random
from fractions import Fraction

import pytest

from nctoric.azumaya import (MorphismData, QuasiHomChart, a1_probe,
                             check_gluing_pair, check_quasi_hom, idem_classify,
                             image_kernel_bounded, sample_matrix_model,
                             surrogate_basis, trivial_pattern, verify_morphism)
from nctoric.deltasystem import augment_system, build_system
from nctoric.errors import NotIdempotent, PatternIncomplete
from nctoric.exactmath import Echelon, GaussRational, ONE, ZERO, format_gauss
from nctoric.freeword import ReducedWord, format_word, identity_word, parse_word, word_mul
from nctoric.ncalgebra import AlgElem
from nctoric.qimatrix import (qim_add, qim_flatten, qim_identity, qim_inverse, qim_is_zero,
                              qim_mul, qim_rank, qim_scale, qim_sub, qim_zero, sparse_vector)
from nctoric.toricfan import validate_fan
from oracles import (classify_by_definition, equal_charts, graph_of_morphism,
                     inconsistent_words, qi_solve, qim_from_rows, random_matrix,
                     sample_by_blocks, surrogate_by_rounds)

M = qim_from_rows


def W(text, rank):
    return parse_word(text, rank)


def fan_p1():
    return validate_fan(1, [(1,), (-1,)], [(0,), (1,)])


def fan_single(n=2):
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return validate_fan(n, rays, [tuple(range(n))])


def fan_p2():
    return validate_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def p1_brane(a=3, b=Fraction(1, 2)):
    fan = fan_p1()
    system = build_system(fan)
    z = W("z1", 1)
    zi = W("z1^-1", 1)
    charts = {
        (0,): QuasiHomChart(cone=(0,), identity_image=M([[1, 0], [0, 0]]),
                            images={z: M([[a, 0], [0, 0]])}),
        (1,): QuasiHomChart(cone=(1,), identity_image=M([[0, 0], [0, 1]]),
                            images={zi: M([[0, 0], [0, b]])}),
        (): QuasiHomChart(cone=(), identity_image=qim_zero(2),
                          images={z: qim_zero(2), zi: qim_zero(2)}),
    }
    return MorphismData(rank_r=2, system=system, charts=charts), system


class TestQuasiHom:
    def test_zero_chart_valid(self):
        system = build_system(fan_single())
        chart = QuasiHomChart(cone=(), identity_image=qim_zero(2),
                              images={W("z1", 2): qim_zero(2)})
        report = check_quasi_hom(system, chart)
        assert report.ok
        # z1 is a unit on the zero cone; zero inverts zero in the zero corner
        assert [f.detail for f in report.findings][-1] == "corner inverse of z1"

    def test_identity_idempotent_free_chart(self):
        system = build_system(fan_single())
        rng = random.Random(1)
        chart = QuasiHomChart(cone=(0, 1), identity_image=qim_identity(3),
                              images={W("z1", 2): random_matrix(rng, 3),
                                      W("z2", 2): random_matrix(rng, 3)})
        assert check_quasi_hom(system, chart).ok

    def test_unabsorbed_image_invalid(self):
        system = build_system(fan_single())
        e = M([[1, 0], [0, 0]])
        g = M([[0, 0], [0, 1]])
        chart = QuasiHomChart(cone=(0,), identity_image=e, images={W("z1", 2): g})
        report = check_quasi_hom(system, chart)
        assert not report.ok
        assert report.failures()[0].clause == "Def 4.2.1"

    def test_unit_image_without_corner_inverse_invalid(self):
        # z1 is a unit on P^1's zero cone; its image is absorbed by the
        # identity but singular there, so it has no corner inverse
        system = build_system(fan_p1())
        singular = M([[1, 0], [0, 0]])
        chart = QuasiHomChart(cone=(), identity_image=qim_identity(2),
                              images={W("z1", 1): singular, W("z1^-1", 1): singular})
        report = check_quasi_hom(system, chart)
        assert [(f.clause, f.detail) for f in report.failures()] == [
            ("Def 4.2.1", "corner inverse of z1"), ("Def 4.2.1", "corner inverse of z1^-1")]


class TestGluingPair:
    def test_zero_lower_always_glues(self):
        fan = fan_single()
        system = build_system(fan)
        rng = random.Random(2)
        upper = QuasiHomChart(cone=(0, 1), identity_image=qim_identity(2),
                              images={g: random_matrix(rng, 2)
                                      for g in system.charts[(0, 1)].generators})
        lower = QuasiHomChart(cone=(0,), identity_image=qim_zero(2),
                              images={g: qim_zero(2)
                                      for g in system.charts[(0,)].generators})
        assert check_gluing_pair(system, upper, lower).ok

    def test_findings_in_clause_order(self):
        # (a) once, then (b) for every upper image, then (c) for every one
        morphism, system = p1_brane()
        report = check_gluing_pair(system, morphism.charts[(0,)], morphism.charts[()])
        assert report.ok
        assert [f.clause for f in report.findings] == [
            "Def 4.2.3(a)", "Def 4.2.3(b)", "Def 4.2.3(c)"]
        fan = fan_single()
        system = build_system(fan)
        upper = QuasiHomChart(cone=(0, 1), identity_image=qim_identity(2),
                              images={g: qim_identity(2)
                                      for g in system.charts[(0, 1)].generators})
        lower = QuasiHomChart(cone=(0,), identity_image=qim_zero(2),
                              images={g: qim_zero(2)
                                      for g in system.charts[(0,)].generators})
        report = check_gluing_pair(system, upper, lower)
        assert [f.clause for f in report.findings] == [
            "Def 4.2.3(a)"] + ["Def 4.2.3(b)"] * 2 + ["Def 4.2.3(c)"] * 2

    def test_equal_idempotents_with_corner_extension(self):
        fan = fan_p1()
        system = build_system(fan)
        e = qim_identity(2)
        a = M([[2, 0], [0, 3]])
        ainv = M([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
        z, zi = W("z1", 1), W("z1^-1", 1)
        upper = QuasiHomChart(cone=(0,), identity_image=e, images={z: a})
        lower = QuasiHomChart(cone=(), identity_image=e,
                              images={z: a, zi: ainv})
        assert check_gluing_pair(system, upper, lower).ok

    def test_noncentralizing_image_fails(self):
        fan = fan_single()
        system = build_system(fan)
        rng = random.Random(9)
        e_lo = M([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        found = False
        for _ in range(30):
            a = random_matrix(rng, 3)
            if qim_mul(a, e_lo) != qim_mul(e_lo, a):
                found = True
                break
        assert found
        upper = QuasiHomChart(cone=(0, 1), identity_image=qim_identity(3),
                              images={g: a for g in system.charts[(0, 1)].generators})
        lower = QuasiHomChart(cone=(0,), identity_image=e_lo,
                              images={g: qim_mul(qim_mul(e_lo, a), e_lo)
                                      for g in system.charts[(0,)].generators})
        report = check_gluing_pair(system, upper, lower)
        assert any(f.clause == "Def 4.2.3(b)" for f in report.failures())


class TestIdemClassify:
    def test_p1_two_points(self):
        fan = fan_p1()
        idem = idem_classify(fan, {(0,): M([[1, 0], [0, 0]]),
                                   (1,): M([[0, 0], [0, 1]]),
                                   (): qim_zero(2)})
        assert idem.strong and idem.complete
        assert idem.reduced[(0,)] == M([[1, 0], [0, 0]])
        assert idem.reduced[(1,)] == M([[0, 0], [0, 1]])
        assert qim_is_zero(idem.reduced[()])

    def test_strong_identity_witnesses(self):
        # E11 and E22 on the rays of P^1 under the identity on the zero cone:
        # every ordered pair of distinct faces misses the idempotent of its
        # meet, the zero cone
        idem = idem_classify(fan_p1(), {(0,): M([[1, 0], [0, 0]]),
                                        (1,): M([[0, 0], [0, 1]]),
                                        (): qim_identity(2)})
        assert not idem.strong and idem.reduced is None
        assert [(f.clause, f.locus, f.ok, f.detail, f.bound_relative)
                for f in idem.witnesses] == [
            ("Def 4.2.6", f"{list(a)} ^ {list(b)}", False,
             "product differs from the idempotent on []", False)
            for a in ((), (0,), (1,)) for b in ((), (0,), (1,)) if a != b]

    def test_single_cone_full(self):
        fan = fan_single()
        pattern = {c: (qim_identity(2) if c == (0, 1) else qim_zero(2))
                   for c in fan.faces}
        idem = idem_classify(fan, pattern)
        assert idem.strong and idem.complete
        assert idem.reduced[(0, 1)] == qim_identity(2)

    def test_shared_corner_not_complete(self):
        fan = fan_p1()
        e = M([[1, 0], [0, 0]])
        idem = idem_classify(fan, {(0,): e, (1,): e, (): e})
        assert idem.strong
        assert not idem.complete
        assert qim_is_zero(idem.reduced[(0,)])
        assert qim_is_zero(idem.reduced[(1,)])
        assert idem.reduced[()] == e

    def test_not_idempotent(self):
        fan = fan_p1()
        with pytest.raises(NotIdempotent):
            idem_classify(fan, {(0,): M([[1, 1], [0, 1]]),
                                (1,): qim_zero(2), (): qim_zero(2)})

    def test_random_eigenbasis_systems(self):
        # strong systems built from a common eigenbasis splitting: the
        # classifier must recover the planted reduced idempotents exactly
        rng = random.Random(77)
        fan = fan_p1()
        faces = list(fan.faces)
        for _ in range(30):
            while True:
                p = random_matrix(rng, 4)
                if qim_rank(p) == 4:
                    break
            pi = _matrix_inverse(p)
            assign = [rng.randrange(len(faces) + 1) for _ in range(4)]
            planted = {}
            for fi, face in enumerate(faces):
                diag = [[ONE if (i == j and assign[i] == fi) else ZERO
                         for j in range(4)] for i in range(4)]
                planted[face] = qim_mul(qim_mul(p, diag), pi)
            idem_input = {}
            for face in faces:
                acc = qim_zero(4)
                for sub in faces:
                    if set(sub) <= set(face):
                        acc = qim_add(acc, planted[sub])
                idem_input[face] = acc
            idem = idem_classify(fan, idem_input)
            assert idem.strong
            for face in faces:
                assert idem.reduced[face] == planted[face]
            complete_expected = all(a < len(faces) for a in assign)
            assert idem.complete == complete_expected

    def test_strong_in_one_order_only_is_not_strong(self):
        # every product holds with the faces in fan order, e_[0] e_[1] = e_[]
        # among them; the reverse orders from [1] do not, and the family is
        # not subordinate either
        fan = fan_p1()
        e = M([[1, 0], [1, 0]])
        family = {(): e, (0,): e, (1,): M([[1, 0], [0, 0]])}
        idem = idem_classify(fan, family)
        assert not idem.strong and idem.reduced is None and idem.complete is None
        assert [(f.clause, f.locus) for f in idem.witnesses] == [
            ("Def 4.2.6", "[1] ^ []"), ("Def 4.2.6", "[1] ^ [0]")]
        want = classify_by_definition(fan, family)
        assert not want["strong"] and not want["weak"]

    @pytest.mark.parametrize("fan", [fan_p1, fan_single, fan_p2],
                             ids=["p1", "one-cone", "p2"])
    def test_matches_definitions(self, fan):
        # planted strong families, complete or not, and families with one
        # idempotent e moved to e + e X (I - e) or e + (I - e) X e, which
        # stays idempotent and often keeps a product in one order only
        fan = fan()
        faces = list(fan.faces)
        rng = random.Random(len(faces))
        one_sided = strong = 0
        for trial in range(60):
            r = rng.randint(1, 3)
            family = planted_family(rng, fan, r)
            for _ in range(trial % 3):
                family = perturbed_family(rng, family)
            got = idem_classify(fan, family)
            want = classify_by_definition(fan, family)
            assert got.strong == want["strong"] == (got.witnesses == [])
            assert all(f.clause == "Def 4.2.6" for f in got.witnesses)
            if want["strong"]:
                strong += 1
                assert want["weak"] and want["reduced_ok"]
                assert got.complete == want["complete"]
                assert all(got.reduced[c] == want["reduced"][c] for c in faces)
            else:
                assert got.reduced is None and got.complete is None
                one_sided += all(
                    qim_mul(family[a], family[b]) == family[tuple(sorted(set(a) & set(b)))]
                    for i, a in enumerate(faces) for b in faces[i:])
        assert 0 < strong < 60
        if len(faces) > 3:
            assert one_sided > 0

    def test_subordination_transitive_in_matrix_algebra(self):
        rng = random.Random(55)
        for _ in range(40):
            # nested diagonal idempotents conjugated by a fixed basis change
            p = None
            while p is None or qim_rank(p) < 3:
                p = random_matrix(rng, 3)
            pinv = _matrix_inverse(p)
            sizes = sorted(rng.sample(range(4), 3))
            es = []
            for s in sizes:
                diag = [[ONE if (i == j and i < s) else ZERO for j in range(3)]
                        for i in range(3)]
                es.append(qim_mul(qim_mul(p, diag), pinv))
            e1, e2, e3 = es
            assert qim_mul(e1, e2) == e1 and qim_mul(e2, e1) == e1
            assert qim_mul(e2, e3) == e2 and qim_mul(e3, e2) == e2
            assert qim_mul(e1, e3) == e1 and qim_mul(e3, e1) == e1


def planted_family(rng, fan, r):
    """A strong family: each vector of a random basis goes to one face or to
    none, and a face's idempotent projects onto the vectors of its faces."""
    faces = list(fan.faces)
    p = pinv = None
    while pinv is None:
        p = random_matrix(rng, r, span=2)
        pinv = qim_inverse(p)
    assign = [rng.randrange(len(faces) + 1) for _ in range(r)]
    family = {}
    for face in faces:
        diag = [[ONE if i == j and assign[i] < len(faces)
                 and set(faces[assign[i]]) <= set(face) else ZERO
                 for j in range(r)] for i in range(r)]
        family[face] = qim_mul(qim_mul(p, diag), pinv)
    return family


def perturbed_family(rng, family):
    """The family with one idempotent e moved to e + e X (I - e) or
    e + (I - e) X e, again an idempotent."""
    face = rng.choice(sorted(family))
    e = family[face]
    r = len(e)
    x = random_matrix(rng, r, span=1)
    f = qim_sub(qim_identity(r), e)
    nil = qim_mul(qim_mul(e, x), f) if rng.random() < 0.5 else qim_mul(qim_mul(f, x), e)
    return {**family, face: qim_add(e, nil)}


def _matrix_inverse(p):
    r = len(p)
    cols = [[p[i][j] for i in range(r)] for j in range(r)]
    out_cols = []
    for k in range(r):
        target = [ONE if i == k else ZERO for i in range(r)]
        sol = qi_solve(cols, target)
        assert sol is not None
        out_cols.append(sol)
    return [[out_cols[j][i] for j in range(r)] for i in range(r)]


class TestVerifyMorphism:
    def test_tuple_matrix_model(self):
        fan = fan_single()
        system = build_system(fan)
        rng = random.Random(4)
        images = {g: random_matrix(rng, 2)
                  for g in system.charts[(0, 1)].generators}
        charts = {(0, 1): QuasiHomChart(cone=(0, 1),
                                        identity_image=qim_identity(2),
                                        images=images)}
        for cone in fan.faces:
            if cone == (0, 1):
                continue
            charts[cone] = QuasiHomChart(
                cone=cone, identity_image=qim_zero(2),
                images={g: qim_zero(2) for g in system.charts[cone].generators})
        morphism = MorphismData(rank_r=2, system=system, charts=charts)
        assert verify_morphism(morphism).ok

    def test_p1_brane(self):
        morphism, _ = p1_brane()
        report = verify_morphism(morphism)
        assert report.ok, report.to_text()

    def test_p1_brane_identity_zero_cone_fails_completeness(self):
        morphism, system = p1_brane()
        charts = dict(morphism.charts)
        charts[()] = QuasiHomChart(
            cone=(), identity_image=qim_identity(2),
            images={g: qim_zero(2) for g in system.charts[()].generators})
        bad = MorphismData(rank_r=2, system=system, charts=charts)
        report = verify_morphism(bad)
        assert not report.ok
        assert any(f.clause == "Def 4.2.9(ii)" for f in report.failures())

    def test_identity_image_not_idempotent_reported_once(self):
        # check_quasi_hom reports the image; the family is not classified
        system = build_system(fan_single())
        morphism = sample_matrix_model(system, 2, "trivial", 2)
        morphism.charts[()].identity_image = M([[2, 0], [0, 0]])
        report = verify_morphism(morphism)
        assert ("Def 4.2.1", "cone []", "identity image must be idempotent") in [
            (f.clause, f.locus, f.detail) for f in report.failures()]
        assert all(f.locus != "idempotents" for f in report.findings)

    def test_centralizer_on_words(self):
        # condition (b) on generators extends to every evaluated product
        morphism, system = p1_brane()
        chart = morphism.charts[(0,)]
        e_lo = morphism.charts[()].identity_image
        a = chart.images[W("z1", 1)]
        val = qim_mul(qim_mul(a, a), a)
        assert qim_mul(val, e_lo) == qim_mul(e_lo, val)


def fan_f3():
    return validate_fan(2, [(1, 0), (0, 1), (-1, 3), (0, -1)],
                        [(0, 1), (1, 2), (2, 3), (0, 3)])


RELATION_FANS = {"one-cone": fan_single, "p1": fan_p1, "p2": fan_p2, "f3": fan_f3}
# the charts whose relations no rule decides, when their idempotent is
# nonzero: their letters are not all among their generators, and they have
# more generators than the rank
UNDECIDED = {"p2": {(2,)}, "f3": {(2,)}}


def star_pattern(fan, first, second):
    """diag(e1, e2), with e1 = 1 exactly on the cones that contain `first`
    and e2 likewise for `second`: a complete strong family."""
    def star(tau, cone):
        return int(set(tau) <= set(cone))
    return {c: M([[star(first, c), 0], [0, star(second, c)]]) for c in fan.faces}


class TestRelationClause:
    """verify_morphism's relation verdicts against the brute force that
    multiplies out every sequence of generators: decided charts, at a
    length that holds every defining relation, agree at every bound;
    undecided charts agree at the search bound and carry the bound."""

    @pytest.mark.parametrize("tamper", [False, True], ids=["sampled", "tampered"])
    @pytest.mark.parametrize("name", sorted(RELATION_FANS))
    def test_matches_brute_force(self, name, tamper):
        fan = RELATION_FANS[name]()
        system = build_system(fan)
        rng = random.Random(5)
        seen = set()
        # the first faces, from the zero cone up, each as the first star
        for seed, first in enumerate(fan.faces[:fan.rank + 3]):
            pattern = star_pattern(fan, first, rng.choice(fan.faces))
            morphism = sample_matrix_model(system, 2, pattern, seed)
            if tamper:
                # double one image on the smallest chart with a nonzero
                # idempotent
                cone = next(c for c in fan.faces if not qim_is_zero(pattern[c]))
                g = rng.choice(system.charts[cone].generators)
                images = morphism.charts[cone].images
                images[g] = qim_add(images[g], images[g])
            report = verify_morphism(morphism)
            for cone in fan.faces:
                chart = morphism.charts[cone]
                findings = [f for f in report.findings if f.locus == f"cone {list(cone)}"
                            and f.clause == "Def 4.2.9(i)"]
                undecided = (cone in UNDECIDED.get(name, ())
                             and not qim_is_zero(chart.identity_image))
                longest = max(len(g) for g in system.charts[cone].generators)
                bad = inconsistent_words(system, chart, 4 if undecided else max(2, longest))
                failed = {f.detail for f in findings if not f.ok}
                assert bool(failed) == bool(bad)
                assert failed <= {f"generator relation at {format_word(ReducedWord(w, fan.rank))} "
                                  "evaluates inconsistently" for w in bad}
                labels = [f for f in findings if f.bound_relative]
                assert len(labels) == (undecided and not bad)
                assert all(f.ok and "at most 4 generators" in f.detail for f in labels)
                seen.add((undecided, bool(bad)))
        # each fan reaches a failing chart under the tamper, and P^2 and F_3
        # an undecided chart
        assert any(bad for _, bad in seen) == tamper
        assert any(undecided for undecided, _ in seen) == (name in UNDECIDED)


class TestSurrogate:
    def test_idempotents_only(self):
        fan = fan_p1()
        system = build_system(fan)
        z, zi = W("z1", 1), W("z1^-1", 1)
        charts = {
            (0,): QuasiHomChart(cone=(0,), identity_image=M([[1, 0], [0, 0]]),
                                images={z: qim_zero(2)}),
            (1,): QuasiHomChart(cone=(1,), identity_image=M([[0, 0], [0, 1]]),
                                images={zi: qim_zero(2)}),
            (): QuasiHomChart(cone=(), identity_image=qim_zero(2),
                              images={z: qim_zero(2), zi: qim_zero(2)}),
        }
        morphism = MorphismData(rank_r=2, system=system, charts=charts)
        basis = surrogate_basis(morphism)
        assert len(basis) == 2   # identity and the diagonal idempotent

    def test_p1_brane_diagonal(self):
        morphism, _ = p1_brane()
        assert len(surrogate_basis(morphism)) == 2

    def test_generic_pair_generates_full_algebra(self):
        fan = fan_single()
        system = build_system(fan)
        a = M([[1, 1], [0, 1]])
        b = M([[1, 0], [1, 0]])
        gens = list(system.charts[(0, 1)].generators)
        charts = {(0, 1): QuasiHomChart(cone=(0, 1),
                                        identity_image=qim_identity(2),
                                        images={gens[0]: a, gens[1]: b})}
        for cone in fan.faces:
            if cone == (0, 1):
                continue
            charts[cone] = QuasiHomChart(
                cone=cone, identity_image=qim_zero(2),
                images={g: qim_zero(2) for g in system.charts[cone].generators})
        morphism = MorphismData(rank_r=2, system=system, charts=charts)
        assert len(surrogate_basis(morphism)) == 4

    def test_closure_keeps_products_of_older_with_newer(self):
        # the order of this basis depends on products a * b with a from an
        # earlier round and b from the last one; the full-rounds closure
        # is the oracle for both the basis and its order
        fan = fan_single()
        system = build_system(fan)
        a = M([[0, 0, 1, 1], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
        b = M([[0, 0, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [1, 1, 0, 1]])
        charts = {cone: QuasiHomChart(cone=cone, identity_image=qim_zero(4),
                                      images={g: qim_zero(4)
                                              for g in system.charts[cone].generators})
                  for cone in fan.faces}
        gens = list(system.charts[(0, 1)].generators)
        charts[(0, 1)] = QuasiHomChart(cone=(0, 1), identity_image=qim_identity(4),
                                       images={gens[0]: a, gens[1]: b})
        morphism = MorphismData(rank_r=4, system=system, charts=charts)
        assert surrogate_basis(morphism) == surrogate_by_rounds(morphism)


def p1_block_pattern(r):
    """Idempotents on P^1: an (r-2)-dimensional block on the zero cone and
    one more dimension on each ray."""
    def diag(ones):
        return M([[int(i == j and i in ones) for j in range(r)] for i in range(r)])
    zero = set(range(r - 2))
    return {(): diag(zero), (0,): diag(zero | {r - 2}), (1,): diag(zero | {r - 1})}


def chart_contents(morphism):
    """Every chart's fields in fresh containers; words and scalars are
    immutable, so this is a deep snapshot."""
    def mat(m):
        return [list(row) for row in m]
    return {cone: (c.cone, mat(c.identity_image),
                   {w: mat(m) for w, m in c.images.items()})
            for cone, c in morphism.charts.items()}


def p2_corner_model():
    """P^2 at r=3 with the diagonal corner E_kk on the k-th maximal cone and
    zero on every lower cone."""
    fan = validate_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    pattern = {cone: qim_zero(3) for cone in fan.faces}
    for k, cone in enumerate(fan.max_cones):
        pattern[cone] = M([[int(i == j == k) for j in range(3)] for i in range(3)])
    return build_system(fan), 3, pattern


COMMUTATOR = "z1 z2 z1^-1 z2^-1"

SURROGATE_MODELS = {
    "one-cone": lambda: (build_system(fan_single()), 4, "trivial"),
    "p1-block": lambda: (build_system(fan_p1()), 4, p1_block_pattern(4)),
    "p2-corners": p2_corner_model,
    "zero-cone-commutator": lambda: (
        augment_system(build_system(fan_single()), {(): [W(COMMUTATOR, 2)]}), 4, "trivial"),
}


def same_span(a, b):
    """Two lists of matrices span the same space."""
    span = Echelon()
    for m in a:
        span.add(sparse_vector(qim_flatten(m)))
    return len(a) == len(b) and not any(span.add(sparse_vector(qim_flatten(m)))[0]
                                        for m in b)


class TestVerifyIsPure:
    def test_hand_built_morphism_unchanged(self):
        morphism, _ = p1_brane()
        before = chart_contents(morphism)
        assert verify_morphism(morphism).ok
        assert chart_contents(morphism) == before
        assert len(surrogate_basis(morphism)) == 2
        assert chart_contents(morphism) == before

    def test_sampled_morphism_unchanged(self):
        fan = fan_p1()
        system = build_system(fan)
        morphism = sample_matrix_model(system, 2, p1_block_pattern(2), 3)
        before = chart_contents(morphism)
        assert verify_morphism(morphism).ok
        assert chart_contents(morphism) == before

    @pytest.mark.parametrize("model, dim", [("one-cone", 16), ("p1-block", 4),
                                            ("p2-corners", 3),
                                            ("zero-cone-commutator", 16)])
    def test_surrogate_dimension_r4(self, model, dim):
        # the surrogate is generated by idempotents and images alone; the
        # oracle also feeds in every unit generator's corner inverse and gets
        # the same basis whenever each unit generator's inverse is itself a
        # generator
        system, r, pattern = SURROGATE_MODELS[model]()
        morphism = sample_matrix_model(system, r, pattern, 0)
        basis = surrogate_basis(morphism)
        assert len(basis) == dim
        # multiplying only pairs with a new element, and stopping at r^2,
        # keeps the basis and its order
        assert basis == surrogate_by_rounds(morphism)

    def test_surrogate_dimension_r5(self):
        # the closure stops once it spans all 25 matrices; running on would
        # add nothing, as the full-rounds oracle confirms
        morphism = sample_matrix_model(build_system(fan_single()), 5, "trivial", 0)
        basis = surrogate_basis(morphism)
        assert len(basis) == 25
        assert basis == surrogate_by_rounds(morphism)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_corner_inverses_add_nothing(self, seed):
        # on the maximal cone, the third extra word is a unit whose inverse
        # is only a product of generators; its corner inverse changes which
        # products enter the basis, never the span
        extras = [COMMUTATOR, "z2 z1^2 z2^-1 z1^-2", "z1^2 z2 z1^-1 z2^-1 z1^-1"]
        system = augment_system(build_system(fan_single()),
                                {(0, 1): [W(w, 2) for w in extras]})
        morphism = sample_matrix_model(system, 3, "trivial", seed)
        basis = surrogate_basis(morphism)
        assert len(basis) == 9
        assert same_span(basis, surrogate_by_rounds(morphism))


class TestCopy:
    # a shallow copy shares the frozen values; nothing deep-copies or pickles them
    @pytest.mark.parametrize("duplicate", [copy.copy], ids=["copy"])
    def test_morphism_round_trips(self, duplicate):
        fan = fan_single()
        morphism = sample_matrix_model(build_system(fan), 2, "trivial", 3)
        twin = duplicate(morphism)
        assert twin.rank_r == morphism.rank_r
        assert chart_contents(twin) == chart_contents(morphism)
        assert twin.system.fan == morphism.system.fan
        assert equal_charts(twin.system, morphism.system)


class TestKernel:
    def test_zero_chart_kernel_contains_letters(self):
        morphism, system = p1_brane()
        ideal = image_kernel_bounded(morphism, (), 2)
        words_in_kernel = set()
        for g in ideal.generators:
            words_in_kernel |= set(g.terms)
        z = W("z1", 1)
        assert z in words_in_kernel or any(
            len(w) >= 1 for w in words_in_kernel)

    def test_diagonal_point(self):
        fan = validate_fan(1, [(1,)], [(0,)])
        system = build_system(fan)
        z, zi = W("z1", 1), W("z1^-1", 1)
        charts = {
            (0,): QuasiHomChart(cone=(0,), identity_image=qim_identity(2),
                                images={z: M([[1, 0], [0, 2]])}),
            (): QuasiHomChart(cone=(), identity_image=qim_zero(2),
                              images={z: qim_zero(2), zi: qim_zero(2)}),
        }
        morphism = MorphismData(rank_r=2, system=system, charts=charts)
        ideal = image_kernel_bounded(morphism, (0,), 2)
        assert len(ideal.generators) == 1
        gen = ideal.generators[0]
        lead = gen.terms[W("z1^2", 1)]
        normalized = gen.scale(lead.inverse())
        assert normalized == AlgElem(1, {W("z1^2", 1): ONE,
                                         z: GaussRational(-3),
                                         identity_word(1): GaussRational(2)})

    def test_matrix_point_relations(self):
        # z_ij -> e_ij on four letters; the kernel at bound 2 spans every
        # matrix-unit relation
        fan = fan_single(4)
        system = build_system(fan)
        r = 2

        def unit_matrix(i, j):
            return [[ONE if (x == i and y == j) else ZERO for y in range(r)]
                    for x in range(r)]

        letter_of = {}
        images = {}
        for i in range(r):
            for j in range(r):
                idx = 2 * i + j + 1
                w = W(f"z{idx}", 4)
                letter_of[(i, j)] = w
                images[w] = unit_matrix(i, j)
        sigma = tuple(range(4))
        charts = {sigma: QuasiHomChart(cone=sigma, identity_image=qim_identity(r),
                                       images=images)}
        for cone in fan.faces:
            if cone == sigma:
                continue
            charts[cone] = QuasiHomChart(
                cone=cone, identity_image=qim_zero(r),
                images={g: qim_zero(r) for g in system.charts[cone].generators})
        morphism = MorphismData(rank_r=r, system=system, charts=charts)
        ideal = image_kernel_bounded(morphism, sigma, 2)
        kernel_cols = []
        basis_words = sorted({w for g in ideal.generators for w in g.terms},
                             key=lambda w: w.sort_key())
        index = {w: k for k, w in enumerate(basis_words)}
        for g in ideal.generators:
            col = [ZERO] * len(basis_words)
            for w, c in g.terms.items():
                col[index[w]] = c
            kernel_cols.append(col)
        for (i, j) in letter_of:
            for (ip, jp) in letter_of:
                rel = AlgElem.from_word(
                    word_mul(letter_of[(i, j)], letter_of[(ip, jp)]))
                if j == ip:
                    rel = rel + AlgElem.from_word(letter_of[(i, jp)], -ONE)
                target = [ZERO] * len(basis_words)
                ok = True
                for w, c in rel.terms.items():
                    if w not in index:
                        ok = False
                        break
                    target[index[w]] = c
                assert ok
                assert qi_solve(kernel_cols, target) is not None

    def test_graph_action(self):
        morphism, _ = p1_brane()
        graph = graph_of_morphism(morphism, 2)
        z = W("z1", 1)
        assert graph[(0,)][z] == morphism.charts[(0,)].images[z]


class TestProbe:
    def test_corner_idempotents(self):
        for r in (2, 3):
            eii = [[ONE if (i == 0 and j == 0) else ZERO for j in range(r)]
                   for i in range(r)]
            result = a1_probe(eii)
            assert [format_gauss(c) for c in result.minpoly] == ["0", "-1", "1"]
            fibers = {format_gauss(root): dim for root, dim in result.fibers}
            assert fibers == {"0": r * r - r, "1": r}

    def test_offdiagonal_nilpotent(self):
        result = a1_probe(M([[0, 1], [0, 0]]))
        assert [format_gauss(c) for c in result.minpoly] == ["0", "0", "1"]
        assert result.fibers == ((ZERO, 2),)

    def test_identity(self):
        result = a1_probe(qim_identity(3))
        assert [format_gauss(c) for c in result.minpoly] == ["-1", "1"]
        assert result.fibers[0][1] == 9

    def test_gaussian_and_fractional_eigenvalues(self):
        a = M([[GaussRational(1, 2), 0], [0, 3]])
        result = a1_probe(a)
        assert {format_gauss(root) for root, _ in result.fibers} == {"1+2i", "3"}
        assert all(dim == 2 for _, dim in result.fibers)
        rotation = M([[0, -1], [1, 0]])
        result = a1_probe(rotation)
        assert {format_gauss(root) for root, _ in result.fibers} == {"i", "-i"}
        b = M([[Fraction(1, 2), 0], [0, Fraction(2, 3)]])
        result = a1_probe(b)
        assert {format_gauss(root) for root, _ in result.fibers} == {"1/2", "2/3"}

    def test_large_prime_constants(self):
        # the root search factors the constant's content, to sqrt(1000000007)
        # and sqrt(1000000000039), not its norm: t^2 + 1000000007 has no root
        # in Q(i), and 1000000000039 is a root of its own minimal polynomial
        result = a1_probe(M([[0, 1], [-1000000007, 0]]))
        assert result.fibers == ()
        assert result.unresolved_factor == (GaussRational(1000000007), ZERO, ONE)
        result = a1_probe(M([[1000000000039]]))
        assert result.fibers == ((GaussRational(1000000000039), 1),)
        assert result.unresolved_factor == ()

    def test_linear_factor_needs_no_divisor_search(self):
        # the norm 10^18 + 9 of 1000000000+3i is prime, so a divisor search
        # would trial-divide to 10^9; a linear factor's root is read off it
        root = GaussRational(1000000000, 3)
        result = a1_probe(M([[root]]))
        assert result.fibers == ((root, 1),)
        assert result.unresolved_factor == ()

    def test_rank_deficiency_sums_on_diagonal_samples(self):
        rng = random.Random(21)
        for _ in range(20):
            r = rng.randint(2, 4)
            diag = [GaussRational(rng.randint(-2, 2), rng.randint(-1, 1))
                    for _ in range(r)]
            a = [[diag[i] if i == j else ZERO for j in range(r)] for i in range(r)]
            result = a1_probe(a)
            assert not result.unresolved_factor
            deficiency = 0
            for root, dim in result.fibers:
                shifted = qim_sub(a, qim_scale(root, qim_identity(r)))
                deficiency += r - qim_rank(shifted)
                assert dim == r * r - r * qim_rank(shifted)
            assert deficiency == r


SAMPLER_GRID = {
    "one-cone-r4": lambda: (build_system(fan_single()), 4, trivial_pattern(fan_single(), 4)),
    "p1-block-r3": lambda: (build_system(fan_p1()), 3, p1_block_pattern(3)),
    "p1-block-r4": lambda: (build_system(fan_p1()), 4, p1_block_pattern(4)),
    "p1-identity-r2": lambda: (build_system(fan_p1()), 2,
                               {c: qim_identity(2) for c in fan_p1().faces}),
    "p2-corners-r3": p2_corner_model,
}


class TestSampler:
    @pytest.mark.parametrize("model", sorted(SAMPLER_GRID))
    def test_matches_per_block_sampler(self, model):
        # one image and one corner inverse per letter give the charts that
        # letter blocks per reduced idempotent gave, from the same draws
        system, r, pattern = SAMPLER_GRID[model]()
        for seed in (0, 1, 2, 3, 5, 8, 13):
            morphism = sample_matrix_model(system, r, pattern, seed)
            want = sample_by_blocks(system, r, pattern, seed)
            assert list(morphism.charts) == list(want)
            for cone, chart in morphism.charts.items():
                e, images = want[cone]
                assert chart.identity_image == e
                assert list(chart.images.items()) == list(images.items())

    def test_trivial_pattern_samples(self):
        fan = fan_single()
        system = build_system(fan)
        for seed in range(8):
            morphism = sample_matrix_model(system, 2, "trivial", seed)
            assert verify_morphism(morphism).ok

    def test_p1_pattern_samples(self):
        fan = fan_p1()
        system = build_system(fan)
        pattern = {(0,): M([[1, 0], [0, 0]]), (1,): M([[0, 0], [0, 1]]),
                   (): qim_zero(2)}
        for seed in range(8):
            morphism = sample_matrix_model(system, 2, pattern, seed)
            assert verify_morphism(morphism).ok

    def test_r1_commutative_points(self):
        fan = validate_fan(2, [(1, 0), (0, 1), (-1, -1)],
                           [(0, 1), (1, 2), (0, 2)])
        system = build_system(fan)
        pattern = {c: (qim_identity(1) if c == (1, 2) else qim_zero(1))
                   for c in fan.faces}
        morphism = sample_matrix_model(system, 1, pattern, 11)
        assert verify_morphism(morphism).ok

    def test_incomplete_pattern_rejected(self):
        fan = fan_p1()
        system = build_system(fan)
        e = M([[1, 0], [0, 0]])
        with pytest.raises(PatternIncomplete):
            sample_matrix_model(system, 2, {(0,): e, (1,): e, (): e}, 0)

    def test_trivial_pattern_multi_cone_rejected(self):
        fan = fan_p1()
        system = build_system(fan)
        with pytest.raises(PatternIncomplete):
            sample_matrix_model(system, 2, "trivial", 0)

    def test_nonzero_zero_cone_corner(self):
        fan = validate_fan(1, [(1,)], [(0,)])
        system = build_system(fan)
        pattern = {(0,): qim_identity(2), (): M([[1, 0], [0, 0]])}
        morphism = sample_matrix_model(system, 2, pattern, 7)
        assert verify_morphism(morphism).ok

    def test_quadric_fan_shared_generators(self):
        # adjacent charts share dual generators; the sampled images must
        # restrict consistently through every shared face
        fan = validate_fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)],
                           [(0, 1), (1, 2), (2, 3), (0, 3)])
        system = build_system(fan)
        shared = (set(system.charts[(0, 1)].generators)
                  & set(system.charts[(0, 3)].generators))
        assert shared
        reduced = {c: qim_zero(3) for c in fan.faces}
        reduced[(0, 1)] = M([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        reduced[(2, 3)] = M([[0, 0, 0], [0, 1, 0], [0, 0, 1]])
        pattern = {}
        for cone in fan.faces:
            acc = qim_zero(3)
            for sub in fan.faces:
                if set(sub) <= set(cone):
                    acc = qim_add(acc, reduced[sub])
            pattern[cone] = acc
        for seed in (0, 1):
            morphism = sample_matrix_model(system, 3, pattern, seed)
            assert verify_morphism(morphism).ok

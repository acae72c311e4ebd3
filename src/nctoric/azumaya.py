"""Matrix points and their morphisms into a soft toric target: idempotent
systems with reduced decompositions, quasi-homomorphism charts and their
gluing, surrogate subalgebras, bounded kernels, line probes, and seeded
random matrix models.

A call that has an artifact reads its base off it and takes no second
copy: a morphism carries its chart system, a chart system its fan.
verify_morphism is the one verdict on a morphism; the surrogate, the
kernel and the sampler refuse an invalid morphism through one helper.
"""
from __future__ import annotations

import random
from fractions import Fraction

from . import clauses
from .errors import Frozen, MorphismInvalid, NotIdempotent, PatternIncomplete
from .exactmath import Echelon, GaussRational, hnf
from .freeword import abelianize, format_word, identity_word, is_unit_in, word_mul
from .ncalgebra import AlgElem, BoundedIdeal
from .qimatrix import (minimal_polynomial, poly_squarefree, qi_nullspace, qi_poly_roots,
                       qim_add, qim_flatten, qim_identity, qim_is_idempotent, qim_is_zero,
                       qim_mul, qim_rank, qim_scale, qim_sub, qim_zero, solve_corner_inverse,
                       sparse_vector)
from .reports import Finding, Report


class IdemSystem:
    """The classification of idempotents indexed by the cones of a fan."""
    __slots__ = ("strong", "reduced", "complete", "witnesses")

    def __init__(self, strong, reduced=None, complete=None, witnesses=None):
        self.strong = strong
        self.reduced = reduced                  # cone -> matrix, only when strong
        self.complete = complete
        self.witnesses = [] if witnesses is None else witnesses


class QuasiHomChart:
    """Generator images of one chart under a quasi-homomorphism."""
    __slots__ = ("cone", "identity_image", "images")

    def __init__(self, cone, identity_image, images):
        self.cone = cone
        self.identity_image = identity_image    # idempotent matrix
        self.images = images                    # generator word -> matrix


class MorphismData:
    """A family of matrix quasi-homomorphism charts over a chart system."""
    __slots__ = ("rank_r", "system", "charts")

    def __init__(self, rank_r, system, charts):
        self.rank_r = rank_r
        self.system = system
        self.charts = charts                    # cone -> QuasiHomChart

    def idempotents(self):
        return {cone: self.charts[cone].identity_image for cone in self.system.fan.faces}


def check_quasi_hom(system, chart):
    """Idempotency of the identity image, corner absorption of every
    generator image, and a corner inverse for the image of every unit
    generator, solved exactly (it is unique when it exists)."""
    sub = system.charts[chart.cone]
    e = chart.identity_image
    findings = []
    locus = f"cone {list(chart.cone)}"
    findings.append(Finding(
        clause=clauses.QUASI_HOM, locus=locus,
        ok=qim_is_idempotent(e),
        detail="identity image must be idempotent"))
    for g, a in chart.images.items():
        ok = qim_mul(e, a) == a and qim_mul(a, e) == a
        findings.append(Finding(
            clause=clauses.QUASI_HOM, locus=locus, ok=ok,
            detail=f"image of {format_word(g)} must be absorbed by the idempotent"))
    for g, a in chart.images.items():
        if g in sub.generator_set and is_unit_in(sub, g):
            findings.append(Finding(
                clause=clauses.QUASI_HOM, locus=locus,
                ok=solve_corner_inverse(e, a) is not None,
                detail=f"corner inverse of {format_word(g)}"))
    return Report(findings)


def check_gluing_pair(system, upper_chart, lower_chart):
    """The three gluing conditions for one face incidence: subordination of
    idempotents, centralizing of upper images, and compatibility of each
    upper image with the lower chart's image of the same generator.  Every
    chart system this package builds lists each upper generator among the
    lower chart's generators; a generator missing there fails (c)."""
    e_up = upper_chart.identity_image
    e_lo = lower_chart.identity_image
    upper, lower = upper_chart.cone, lower_chart.cone
    locus = f"{list(upper)} > {list(lower)}"
    findings = []
    ok_a = qim_mul(e_lo, e_up) == e_lo and qim_mul(e_up, e_lo) == e_lo
    findings.append(Finding(
        clause=clauses.GLUE_SUBORDINATE, locus=locus, ok=ok_a,
        detail="lower idempotent subordinate to upper"))
    # (b) and (c) read the same two products of each upper image
    sides = {g: (qim_mul(e_lo, a), qim_mul(a, e_lo))
             for g, a in upper_chart.images.items()}
    for g, (left, right) in sides.items():
        findings.append(Finding(
            clause=clauses.GLUE_CENTRALIZER, locus=locus, ok=left == right,
            detail=f"image of {format_word(g)} must centralize the lower idempotent"))
    lower_generators = system.charts[lower].generator_set
    for g, (left, right) in sides.items():
        lower_val = lower_chart.images.get(g)
        if g not in lower_generators or lower_val is None:
            findings.append(Finding(
                clause=clauses.GLUE_COMPATIBLE, locus=locus, ok=False,
                detail=f"{format_word(g)} is not a lower generator with an image"))
            continue
        ok_c = left == lower_val and right == lower_val
        findings.append(Finding(
            clause=clauses.GLUE_COMPATIBLE, locus=locus, ok=ok_c,
            detail=f"lower restriction of {format_word(g)}"))
    return Report(findings)


def idem_classify(fan, idempotents):
    """Classify a cone-indexed family of idempotents as strong (Def 4.2.6),
    compute its reduced idempotents (Lemma-Def 4.2.7) when it is, and decide
    completeness; all identities are checked exactly.

    Strong is checked in both orders, e_a e_b = e_(a ^ b) for every ordered
    pair of distinct faces, and no other identity of the family needs a check:
    - the idempotents commute, so the reduced idempotent of a cone c, the
      alternating sum of e over the faces of c, is e_c times (I - e_f) over
      the facets f of c, a product of commuting idempotents, so idempotent;
    - for distinct cones c and d, say with c not inside d, c ^ d lies in a
      facet f of c, and e_c e_d (I - e_f) = e_(c ^ d) - e_(c ^ d) = 0, so
      their reduced idempotents are orthogonal;
    - for a inside b, e_a e_b = e_a = e_b e_a, so strong implies weak
      (Def 4.2.2);
    - the reduced idempotents over the faces of a cone sum back to its
      idempotent, by Moebius inversion on the subsets of its rays.
    """
    idem = {tuple(c): m for c, m in idempotents.items()}
    for cone, m in idem.items():
        if not qim_is_idempotent(m):
            raise NotIdempotent(f"matrix on cone {list(cone)} is not idempotent")
    witnesses = []
    faces = list(fan.faces)
    for a in faces:
        for b in faces:
            meet = tuple(sorted(set(a) & set(b)))
            if a != b and qim_mul(idem[a], idem[b]) != idem[meet]:
                witnesses.append(Finding(
                    clause=clauses.IDEM_STRONG, locus=f"{list(a)} ^ {list(b)}",
                    ok=False,
                    detail=f"product differs from the idempotent on {list(meet)}"))
    if witnesses:
        return IdemSystem(strong=False, witnesses=witnesses)
    r = len(next(iter(idem.values())))
    reduced = {}
    for cone in faces:
        acc = idem[cone]
        for ray in cone:
            facet = tuple(x for x in cone if x != ray)
            acc = qim_mul(acc, qim_sub(qim_identity(r), idem[facet]))
        reduced[cone] = acc
    total = qim_zero(r)
    for cone in faces:
        total = qim_add(total, reduced[cone])
    return IdemSystem(strong=True, reduced=reduced,
                      complete=total == qim_identity(r))


def check_relations(system, chart, rel_bound):
    """Consistency of generator images on all monoid relations discoverable
    among generator products of bounded length; bound-relative by nature.
    A product g1...gk of generators with images is valued
    e*rho(g1)...rho(gk), and two products with the same reduced word must
    have the same value.

    Returns (word -> matrix map, findings, number of products compared)."""
    sub = system.charts[chart.cone]
    values = {identity_word(system.fan.rank): [row[:] for row in chart.identity_image]}
    findings = []
    compared = 0
    frontier = [identity_word(system.fan.rank)]
    for _ in range(rel_bound):
        nxt = []
        for w in frontier:
            a = values[w]
            for g in sub.generators:
                img = chart.images.get(g)
                if img is None:
                    continue
                w2 = word_mul(w, g)
                prod = qim_mul(a, img)
                if w2 in values:
                    compared += 1
                    if values[w2] != prod:
                        findings.append(_relation_failure(chart, w2))
                else:
                    values[w2] = prod
                    nxt.append(w2)
        frontier = nxt
    return values, findings, compared


def _relation_failure(chart, word):
    return Finding(clause=clauses.MORPHISM_GLUING, locus=f"cone {list(chart.cone)}",
                   ok=False, detail=f"generator relation at {format_word(word)} "
                                    "evaluates inconsistently")


def _decide_relations(system, chart):
    """The failures of check_relations at every bound, decided by the first
    rule that applies, or None when none applies. It reads the same
    generators (those with images) and the same values.
    - Zero corner: e = 0 makes every value 0.
    - Free: k generators whose exponent vectors have rank k generate a free
      group of rank k (free groups are Hopfian), freely, so no two products
      have the same reduced word.
    - Letter basis: when every letter of every generator is a one-letter
      generator, the submonoid is presented on those letters by z z^-1 = 1
      for each letter present in both orientations (free reduction), and on
      all generators by adding g = l1...lm for each longer generator. Given
      that e is idempotent and absorbs every image, which check_quasi_hom
      checks, rho(g) = e rho(l1)...rho(lm) and rho(z) rho(z^-1) = e decide
      the clause (Stallings, "Topology of finite graphs", 1983). One order
      per pair is enough: in the finite-dimensional algebra eMe a one-sided
      inverse is two-sided.
    """
    e = chart.identity_image
    if qim_is_zero(e):
        return []
    gens = [g for g in system.charts[chart.cone].generators if g in chart.images]
    if len(gens) <= system.fan.rank:
        h, _ = hnf([abelianize(g) for g in gens])
        if sum(1 for row in h if any(row)) == len(gens):
            return []
    images = chart.images
    letter = {g.letters[0]: images[g] for g in gens if len(g) == 1}
    if not all(letter.keys() >= set(g.letters) for g in gens):
        return None
    findings = []
    for g in gens:
        if len(g) != 1:
            acc = e
            for l in g.letters:
                acc = qim_mul(acc, letter[l])
            if images[g] != acc:
                findings.append(_relation_failure(chart, g))
    identity = identity_word(system.fan.rank)
    for z in sorted(letter):
        if z > 0 and -z in letter and qim_mul(letter[z], letter[-z]) != e:
            findings.append(_relation_failure(chart, identity))
    return findings


def verify_morphism(morphism, rel_bound=4):
    """Aggregate verdict: every chart is a quasi-homomorphism, every
    incidence glues, generator relations are consistent, and the idempotent
    family is a complete strong system. The relations are decided exactly
    where _decide_relations has a rule; elsewhere check_relations searches to
    `rel_bound`, and a pass there is a bound-relative finding. The morphism
    is left unchanged."""
    system = morphism.system
    fan = system.fan
    report = Report([])
    for cone in fan.faces:
        chart = morphism.charts.get(cone)
        if chart is None:
            report.add(Finding(
                clause=clauses.MORPHISM_GLUING, locus=f"cone {list(cone)}",
                ok=False, detail="chart missing"))
            continue
        sub = system.charts[cone]
        for g in sub.generators:
            if g not in chart.images:
                report.add(Finding(
                    clause=clauses.MORPHISM_GLUING, locus=f"cone {list(cone)}",
                    ok=False, detail=f"no image for generator {format_word(g)}"))
        for g in chart.images:
            if g not in sub.generator_set:
                report.add(Finding(
                    clause=clauses.MORPHISM_GLUING, locus=f"cone {list(cone)}",
                    ok=False, detail=f"image of {format_word(g)}, "
                                     "which is not a generator of the chart"))
        report.extend(check_quasi_hom(system, chart))
        rel_findings = _decide_relations(system, chart)
        if rel_findings is None:
            _, rel_findings, compared = check_relations(system, chart, rel_bound)
            if not rel_findings:
                rel_findings = [Finding(
                    clause=clauses.MORPHISM_GLUING, locus=f"cone {list(cone)}",
                    ok=True, bound_relative=True,
                    detail=f"generator relations hold among products of at most "
                           f"{rel_bound} generators ({compared} products compared)")]
        report.findings.extend(rel_findings)
    charts_ok = report.ok
    # a missing chart, or an identity image that is not idempotent, has
    # failed above; the family is classified when it is whole and idempotent
    if all(cone in morphism.charts for cone in fan.faces):
        try:
            idem = idem_classify(fan, morphism.idempotents())
        except NotIdempotent:
            pass
        else:
            for f in idem.witnesses:
                report.add(f)
            report.add(Finding(
                clause=clauses.MORPHISM_COMPLETE, locus="idempotents",
                ok=bool(idem.strong and idem.complete),
                detail="idempotent family must be a complete strong system"))
    if not charts_ok:
        return report
    for (upper, lower) in fan.incidence_pairs():
        report.extend(check_gluing_pair(
            system, morphism.charts[upper], morphism.charts[lower]))
    return report


def _require_valid(morphism, refusal):
    """Raise MorphismInvalid, headed by `refusal` and followed by the
    report, unless the morphism verifies."""
    report = verify_morphism(morphism)
    if not report.ok:
        raise MorphismInvalid(f"{refusal}:\n" + report.to_text())


def surrogate_basis(morphism):
    """Basis of the unital subalgebra generated by the chart idempotents and
    images, by span closure inside the matrix algebra. The corner inverse X
    of a unit generator's image a needs no generator of its own: X + (I - e)
    inverts a + (I - e), so by Cayley-Hamilton it is a polynomial in it.
    The closure stops once the basis spans all r x r matrices."""
    _require_valid(morphism, "surrogate requested for an invalid morphism")
    full = morphism.rank_r ** 2
    mats = [qim_identity(morphism.rank_r)]
    for chart in morphism.charts.values():
        mats.append(chart.identity_image)
        mats.extend(chart.images.values())
    span = Echelon()
    out = []

    def try_add(m):
        if span.add(sparse_vector(qim_flatten(m)))[0]:
            out.append(m)

    for m in mats:
        try_add(m)
    # each round multiplies the pairs with an element the previous round
    # added, in the order a full round would; older pairs already lie in
    # the span, which only grows
    old = 0
    while old < len(out) < full:
        snapshot = list(out)
        for i, a in enumerate(snapshot):
            for b in snapshot[old if i < old else 0:]:
                try_add(qim_mul(a, b))
                if len(out) == full:
                    return out
        old = len(snapshot)
    return out


def image_kernel_bounded(morphism, cone, bound):
    """Kernel of the chart evaluation on products of at most `bound`
    generators, as algebra elements; a truncation of the morphism kernel."""
    _require_valid(morphism, "kernel requested for an invalid morphism")
    cone = tuple(cone)
    chart = morphism.charts[cone]
    values, findings, _ = check_relations(morphism.system, chart, bound)
    if findings:
        raise MorphismInvalid("generator relations are inconsistent on the chart")
    words = sorted(values, key=lambda w: w.sort_key())
    columns = [qim_flatten(values[w]) for w in words]
    null = qi_nullspace(columns)
    rank = morphism.system.fan.rank
    gens = []
    for coeffs in null:
        elem = AlgElem(rank, {w: c for w, c in zip(words, coeffs) if c})
        if elem:
            gens.append(elem)
    degree = max([bound] + [g.max_word_len() for g in gens])
    return BoundedIdeal(tuple(gens), degree)


class LineProbeResult(Frozen):
    """A matrix point projected to the affine line: its minimal polynomial,
    (root, fiber dimension) pairs, and the coefficient list of the rootless
    cofactor; immutable."""
    __slots__ = ("minpoly", "fibers", "unresolved_factor")

    def __init__(self, minpoly, fibers, unresolved_factor):
        object.__setattr__(self, "minpoly", minpoly)
        object.__setattr__(self, "fibers", fibers)
        object.__setattr__(self, "unresolved_factor", unresolved_factor)


def a1_probe(matrix):
    """Project a matrix point to the affine line through one coordinate:
    minimal polynomial, its rational Gaussian roots, and the fiber dimension
    r^2 - r*rank(a - root) over each root."""
    r = len(matrix)
    mp = minimal_polynomial(matrix)
    sf = poly_squarefree(mp)
    roots, remainder = qi_poly_roots(sf)
    fibers = []
    for root in sorted(roots, key=lambda g: (g.re, g.im)):
        shifted = qim_sub(matrix, qim_scale(root, qim_identity(r)))
        fibers.append((root, r * r - r * qim_rank(shifted)))
    return LineProbeResult(minpoly=tuple(mp), fibers=tuple(fibers),
                           unresolved_factor=tuple(remainder))


# ---------------------------------------------------------------------------
# Matrix-model sampling
# ---------------------------------------------------------------------------

def trivial_pattern(fan, r):
    """Identity idempotent on every maximal cone, zero elsewhere."""
    out = {}
    for cone in fan.faces:
        out[cone] = qim_identity(r) if fan.is_maximal(cone) else qim_zero(r)
    return out


def _random_entry(rng):
    return GaussRational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                         Fraction(rng.randint(-2, 2), 1))


def _random_matrix(rng, r):
    return [[_random_entry(rng) for _ in range(r)] for _ in range(r)]


def sample_matrix_model(system, r, pattern, seed):
    """Seeded random morphism data on the chart system, compatible with the
    idempotent pattern over the system's fan.

    Each letter gets one random matrix and acts by its compression to every
    nonzero reduced-idempotent block, with rejection sampling to keep blocks
    invertible wherever an inverse generator must be evaluated. A chart
    sends a word to its idempotent times the letters' images and corner
    inverses along the word. The result always passes verify_morphism.
    """
    fan = system.fan
    if pattern == "trivial":
        pattern = trivial_pattern(fan, r)
    if not set(fan.faces) <= set(pattern):
        raise PatternIncomplete("idempotent pattern must give a matrix on every cone")
    idem = idem_classify(fan, pattern)
    if not (idem.strong and idem.complete):
        raise PatternIncomplete(
            "idempotent pattern must form a complete strong system")
    reduced = idem.reduced
    # only the nonzero reduced blocks carry letter blocks
    live = [cone for cone in fan.faces if not qim_is_zero(reduced[cone])]
    rng = random.Random(seed)
    # letter i needs an invertible block wherever some chart evaluation will
    # hit the inverse letter: a chart generator containing -i. A unit
    # generator g, whose corner inverse reads the block of every letter of
    # g, needs no more: g^-1 is a product of generators, and free reduction
    # only deletes letters, so for each letter l > 0 of g, -l lies in some
    # generator
    n = fan.rank
    inverse_needed = {i: set() for i in range(1, n + 1)}
    for cone in fan.faces:
        letters_seen = {-l for g in system.charts[cone].generators
                        for l in g.letters if l < 0}
        if not letters_seen:
            continue
        for block in live:
            if set(block) <= set(cone):
                for i in letters_seen:
                    inverse_needed[i].add(block)
    # letter i acts by one block-diagonal image and, where needed, its
    # corner inverse on the sum of the needed blocks, which exists exactly
    # when every needed block is invertible
    letter_images = {}
    for i in range(1, n + 1):
        needed = qim_zero(r)
        for cone in inverse_needed[i]:
            needed = qim_add(needed, reduced[cone])
        while True:
            m = _random_matrix(rng, r)
            image = qim_zero(r)
            for cone in live:
                image = qim_add(image, qim_mul(qim_mul(reduced[cone], m), reduced[cone]))
            inverse = solve_corner_inverse(needed, image)
            if inverse is not None:
                letter_images[i] = image
                letter_images[-i] = inverse
                break

    def chart_value(word, cone):
        acc = pattern[cone]
        for l in word.letters:
            acc = qim_mul(acc, letter_images[l])
        return acc

    charts = {cone: QuasiHomChart(
                  cone=cone, identity_image=pattern[cone],
                  images={g: chart_value(g, cone) for g in system.charts[cone].generators})
              for cone in fan.faces}
    morphism = MorphismData(rank_r=r, system=system, charts=charts)
    _require_valid(morphism, "sampled morphism failed verification")
    return morphism

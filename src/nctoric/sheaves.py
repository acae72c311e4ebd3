"""Invertible sheaves as scalar-times-word gluing data, the divisor-to-sheaf
pipeline through softening, twisted sections extended from lattice points
of the divisor polytope, and ideal data of the subschemes they cut out.

Every call takes its artifact and reads the base off it: a gluing carries
the softened system that absorbs its transitions, a section carries its
gluing, and sections read together are read on their carrier's system. The
units a construction needs are added by one softening stage, built by
`_soften_transitions`.
"""
from __future__ import annotations

from . import clauses
from .deltasystem import abelianized_chart, soften
from .errors import (CandidateNotUnit, MismatchedFans, MismatchedSystems, NotASection,
                     RankMismatch)
from .exactmath import ONE
from .freeword import (abelianize, canonical_lift, format_word, identity_word,
                       is_unit_in, word_inv, word_mul)
from .ncalgebra import AlgElem
from .reports import Finding, Report
from .toricfan import comm_monoid_member, divisor_vertices, in_polytope, kills, ray_sum


class GluingData:
    """Per face-incidence an invertible scalar-times-word: the transition
    datum of an invertible sheaf under fixed local trivializations."""
    __slots__ = ("system", "scalars", "words")

    def __init__(self, system, scalars, words):
        self.system = system
        self.scalars = scalars      # (upper, lower) -> GaussRational
        self.words = words          # (upper, lower) -> ReducedWord


class TwistedSectionData:
    """Per-cone algebra presentations of one twisted section."""
    __slots__ = ("gluing", "locals")

    def __init__(self, gluing, locals):
        self.gluing = gluing
        self.locals = locals        # cone -> AlgElem

    @property
    def system(self):
        return self.gluing.system


def check_gluing(gluing):
    """Verify unit membership, perpendicular grading, and the full cocycle
    over every chain of nested faces of the gluing's system; exact
    equalities throughout."""
    system = gluing.system
    fan = system.fan
    findings = []
    pairs = set(fan.incidence_pairs())
    missing = pairs - set(gluing.words)
    for pair in sorted(missing):
        findings.append(Finding(
            clause=clauses.GLUING_UNIT,
            locus=f"{list(pair[0])} > {list(pair[1])}",
            ok=False, detail="incidence pair missing from gluing data"))
    for (upper, lower) in sorted(pairs & set(gluing.words)):
        w = gluing.words[(upper, lower)]
        c = gluing.scalars[(upper, lower)]
        chart = system.charts[lower]
        locus = f"{list(upper)} > {list(lower)}"
        findings.append(Finding(
            clause=clauses.GLUING_UNIT, locus=locus,
            ok=bool(c) and is_unit_in(chart, w),
            detail=f"{c}*{format_word(w)} must be a unit of the lower chart"))
        vec = abelianize(w)
        findings.append(Finding(
            clause=clauses.GLUING_PERP, locus=locus,
            ok=kills(fan, lower, vec),
            detail=f"exponent vector {vec} must kill the lower cone"))
    for (upper, mid, lower) in fan.chains():
        key_um, key_ml, key_ul = (upper, mid), (mid, lower), (upper, lower)
        if not all(k in gluing.words for k in (key_um, key_ml, key_ul)):
            continue
        locus = f"{list(upper)} > {list(mid)} > {list(lower)}"
        scal_ok = gluing.scalars[key_ul] == gluing.scalars[key_um] * gluing.scalars[key_ml]
        word_ok = gluing.words[key_ul] == word_mul(gluing.words[key_um],
                                                   gluing.words[key_ml])
        findings.append(Finding(
            clause=clauses.GLUING_COCYCLE, locus=locus,
            ok=scal_ok and word_ok,
            detail="scalar and word cocycle identities"))
    return Report(findings)


def sheaves_isomorphic(g1, g2, candidate):
    """Decide whether the candidate per-cone units turn one gluing datum
    into the other: c' = c_u^-1 c c_l and w' = w_u^-1 w w_l on every pair.
    Sheaves on different fans are refused, not compared."""
    system = g1.system
    fan = system.fan
    if g2.system.fan != fan:
        raise MismatchedFans("the two sheaves lie on different fans")
    if set(g1.words) != set(g2.words):
        return False
    for cone in fan.faces:
        if cone not in candidate:
            raise CandidateNotUnit(f"candidate missing cone {list(cone)}")
        c, w = candidate[cone]
        if not c:
            raise CandidateNotUnit(f"candidate scalar on {list(cone)} is zero")
        vec = abelianize(w)
        if not kills(fan, cone, vec):
            raise CandidateNotUnit(
                f"candidate word on {list(cone)} has exponent vector {vec} "
                "not perpendicular to the cone")
        if not is_unit_in(system.charts[cone], w):
            raise CandidateNotUnit(
                f"candidate word {format_word(w)} is not a unit on {list(cone)}")
    for (upper, lower) in g1.words:
        cu, wu = candidate[upper]
        cl, wl = candidate[lower]
        want_c = cu.inverse() * g1.scalars[(upper, lower)] * cl
        want_w = word_mul(word_mul(word_inv(wu), g1.words[(upper, lower)]), wl)
        if g2.scalars[(upper, lower)] != want_c or g2.words[(upper, lower)] != want_w:
            return False
    return True


def _soften_transitions(system, transitions):
    """The system softened so that each lower chart holds as units the
    transition words into it, {(upper, lower): word} in incidence order.
    Every word that is neither the identity nor already a unit goes, with
    its inverse, into one softening stage."""
    extras = {}
    for (_, lower), w in transitions.items():
        if w.is_identity() or is_unit_in(system.charts[lower], w):
            continue
        bucket = extras.setdefault(lower, [])
        for cand in (w, word_inv(w)):
            if cand not in bucket:
                bucket.append(cand)
    softened, _ = soften(system, extras)
    return softened


def sheaf_from_divisor(system, divisor):
    """Invertible-sheaf gluing data for a divisor, constructed by canonical
    word lifts of the vertex differences and absorbed by a softening; the
    gluing's system is the softened system.
    """
    fan = system.fan
    vertex = divisor_vertices(fan, divisor)
    lift = {cone: canonical_lift(vertex[cone], fan.rank) for cone in fan.faces}
    words = {(upper, lower): word_mul(word_inv(lift[upper]), lift[lower])
             for (upper, lower) in fan.incidence_pairs()}
    scalars = {pair: ONE for pair in words}
    gluing = GluingData(system=_soften_transitions(system, words),
                        scalars=scalars, words=words)
    report = check_gluing(gluing)
    if not report.ok:
        raise AssertionError("constructed gluing data failed verification:\n"
                             + report.to_text())
    return gluing


def extend_section(gluing, divisor, point):
    """Extend one lattice point of the divisor's polytope to a twisted
    section of the gluing: express the vertex difference in each chart's
    generators (lifting factor-by-factor in generator order) and soften
    away the twisting factors.

    Returns the section; its system is the softened system.
    """
    system = gluing.system
    fan = system.fan
    if len(point) != fan.rank:
        raise RankMismatch(f"lattice point {list(point)} does not have {fan.rank} coordinates")
    if not in_polytope(fan, divisor, point):
        raise NotASection(
            f"lattice point {list(point)} lies outside the divisor polytope")
    vertex = divisor_vertices(fan, divisor)
    locals_ = {}
    for cone in fan.faces:
        target = tuple(p - q for p, q in zip(point, vertex[cone]))
        gens = list(system.charts[cone].generators)
        coeffs = comm_monoid_member(abelianized_chart(system, cone), target,
                                    ray_sum(fan, cone))
        if coeffs is None:
            raise NotASection(
                f"vertex difference {target} is not reachable in the chart "
                f"of cone {list(cone)}")
        word = identity_word(fan.rank)
        for g, c in zip(gens, coeffs):
            for _ in range(c):
                word = word_mul(word, g)
        locals_[cone] = AlgElem.from_word(word)
    twists = {}
    for (upper, lower) in fan.incidence_pairs():
        if (upper, lower) not in gluing.words:
            raise NotASection(
                f"gluing data has no entry for {list(upper)} > {list(lower)}")
        r_upper = next(iter(locals_[upper].terms))
        r_lower = next(iter(locals_[lower].terms))
        twists[(upper, lower)] = word_mul(
            word_mul(r_upper, gluing.words[(upper, lower)]), word_inv(r_lower))
    new_gluing = GluingData(system=_soften_transitions(system, twists),
                            scalars=dict(gluing.scalars), words=dict(gluing.words))
    return TwistedSectionData(gluing=new_gluing, locals=dict(locals_))


def check_twisted_section(section):
    """Verify the unit-equivalence of transported local presentations on
    every incidence of the section's gluing; candidate units come from
    monomial quotients and are confirmed by exact multiplication.

    A unit u with u s = t, for s the lower presentation and t the
    transported one, is unique, since Q(i)[F_n] has no zero divisors. Left
    multiplication by a word permutes the word basis, so u's word times the
    first word of s is a word of t: the quotients of the words of t by that
    one word find u whenever it exists."""
    gluing = section.gluing
    system = gluing.system
    fan = system.fan
    findings = []
    for (upper, lower) in sorted(fan.incidence_pairs()):
        locus = f"{list(upper)} > {list(lower)}"
        s_upper = section.locals.get(upper)
        s_lower = section.locals.get(lower)
        if s_upper is None or s_lower is None:
            findings.append(Finding(
                clause=clauses.TWISTED_SECTION, locus=locus, ok=False,
                detail="missing local presentation"))
            continue
        if (upper, lower) not in gluing.words:
            findings.append(Finding(
                clause=clauses.TWISTED_SECTION, locus=locus, ok=False,
                detail="incidence pair missing from gluing data"))
            continue
        transported = (s_upper * gluing.words[(upper, lower)]).scale(
            gluing.scalars[(upper, lower)])
        if not transported and not s_lower:
            findings.append(Finding(
                clause=clauses.TWISTED_SECTION, locus=locus, ok=True,
                detail="both sides vanish"))
            continue
        if bool(transported) != bool(s_lower):
            findings.append(Finding(
                clause=clauses.TWISTED_SECTION, locus=locus, ok=False,
                detail="exactly one side vanishes"))
            continue
        chart = system.charts[lower]
        ws, cs = s_lower.monomials()[0]
        unit = None
        for (wt, ct) in transported.monomials():
            cand_w = word_mul(wt, word_inv(ws))
            cand_c = ct / cs
            if (is_unit_in(chart, cand_w)
                    and AlgElem.from_word(cand_w, cand_c) * s_lower == transported):
                unit = (cand_c, cand_w)
                break
        findings.append(Finding(
            clause=clauses.TWISTED_SECTION, locus=locus, ok=unit is not None,
            detail=(f"verifying unit {unit[0]}*{format_word(unit[1])}"
                    if unit else "no verifying unit among monomial quotients")))
    return Report(findings)


def _carrier(sections, labels=None):
    """The first section with the most chart generators: the others, which
    may come from separate files, are read in place on its system. Each must
    share its fan, each word of their presentations must lie in its chart of
    the cone, and each needs a presentation on every cone. labels, by
    default the positions, name sections in refusals."""
    if not sections:
        raise ValueError("at least one section is required")
    labels = labels or [f"section {i}" for i in range(len(sections))]
    k = max(range(len(sections)),
            key=lambda i: sum(len(sm.generators) for sm in sections[i].system.charts.values()))
    carrier = sections[k].system
    for s, label in zip(sections, labels):
        if s.system.fan != carrier.fan:
            raise MismatchedSystems(f"{label}: its fan differs from the fan of {labels[k]}")
    for s, label in zip(sections, labels):
        for cone, elem in s.locals.items():
            for w in elem.terms:
                if not carrier.charts[cone].member(w):
                    raise MismatchedSystems(
                        f"{label}: word {format_word(w)} is not in the carrier "
                        f"chart of cone {list(cone)}")
    for cone in carrier.fan.faces:
        if any(cone not in s.locals for s in sections):
            raise MismatchedSystems(
                f"a section has no local presentation on cone {list(cone)}")
    return sections[k]


def combine_sections(coeffs, sections):
    """Pointwise Q(i)-combination of section presentations, glued onto the
    carrier's gluing; whether the result is again a twisted section is for
    the checker to decide."""
    gluing = _carrier(sections).gluing
    fan = gluing.system.fan
    locals_ = {}
    for cone in fan.faces:
        acc = AlgElem.zero(fan.rank)
        for c, s in zip(coeffs, sections):
            acc = acc + s.locals[cone].scale(c)
        locals_[cone] = acc
    return TwistedSectionData(gluing=gluing, locals=locals_)


def subscheme_from_sections(sections, labels=None):
    """The carrier's system and the per-cone two-sided ideal generators cut
    out by the sections, the pair `serialize.subscheme_from_obj` reads."""
    system = _carrier(sections, labels).system
    return system, {cone: [s.locals[cone] for s in sections if s.locals[cone]]
                    for cone in system.fan.faces}

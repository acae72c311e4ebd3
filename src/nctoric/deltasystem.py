"""Inverse systems of admissible submonoid charts over a fan: construction
from lifts, completion from maximal charts, augmentation, softening, and the
per-cone admissibility verdicts with witnesses.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import clauses
from .errors import (BadLift, ExtraOutsideDualCone, MaximalChartTouched,
                     NoPositivityFunctional, NotAdmissibleInput)
from .freeword import (ReducedWord, abelianize, canonical_lift,
                       compile_submonoid, format_word, is_unit_in, word_inv)
from .reports import Finding, Report
from .toricfan import (Fan, comm_monoid_member, cone_monoid_generators,
                       dual_generators, pairing, ray_sum)


@dataclass
class ChartSystem:
    """Per-cone finitely generated submonoid charts over a validated fan."""

    fan: Fan
    charts: dict            # cone -> Submonoid
    provenance: dict = field(default_factory=dict)  # cone -> [(tag, word)]

    def equal_charts(self, other):
        if set(self.charts) != set(other.charts):
            return False
        return all(self.charts[c].generators == other.charts[c].generators
                   for c in self.charts)


@dataclass(frozen=True)
class SofteningRecord:
    added: dict             # cone -> list of words newly adjoined
    invariant_charts: tuple  # the maximal cones, untouched by construction

    def touched_cones(self):
        return [c for c, ws in self.added.items() if ws]


def _letters(rank):
    out = []
    for i in range(1, rank + 1):
        out.append(ReducedWord((i,), rank))
        out.append(ReducedWord((-i,), rank))
    return out


def _in_perp(vec, fan, cone):
    return all(pairing(vec, fan.rays[i]) == 0 for i in cone)


def _in_dual(vec, fan, cone):
    return all(pairing(vec, fan.rays[i]) >= 0 for i in cone)


def _dedup(words):
    out = []
    for w in words:
        if w not in out:
            out.append(w)
    return out


def _close_lower_chart(fan, cone, base_words, provenance, tag_inv):
    """Adjoin inverses of every word whose exponent vector kills the cone,
    plus the letter generators when the cone is the zero cone."""
    words = _dedup(base_words)
    inverses = []
    for w in words:
        if _in_perp(abelianize(w), fan, cone):
            iw = word_inv(w)
            if iw not in words and iw not in inverses:
                inverses.append(iw)
    for iw in inverses:
        provenance.append((tag_inv, iw))
    words = words + inverses
    if not cone:
        for l in _letters(fan.rank):
            if l not in words:
                words.append(l)
                provenance.append(("base-letter", l))
    return words


def build_system(fan, lifts=None):
    """Construct the canonical chart system from per-generator word lifts.

    lifts maps (maximal cone, dual generator) to a word whose exponent
    vector must equal that dual generator; missing entries use the sorted
    canonical lift.
    """
    lifts = dict(lifts or {})
    rank = fan.rank
    provenance = {}
    gen_words = {}
    for sigma in fan.max_cones:
        words = []
        prov = []
        for u in dual_generators(fan, sigma):
            w = lifts.get((sigma, u))
            if w is None:
                w = canonical_lift(u, rank)
            elif abelianize(w) != u:
                raise BadLift(
                    f"lift {format_word(w)} abelianizes to {abelianize(w)}, "
                    f"expected {u} on cone {list(sigma)}")
            words.append(w)
            prov.append(("maximal-lift", w))
        gen_words[sigma] = words
        provenance[sigma] = prov
    return _system_from_maximal(fan, gen_words, provenance)


def _system_from_maximal(fan, gen_words, provenance):
    """Compile the chart system whose maximal charts are given: each lower
    chart is the union over its covering maximal cones, closed under unit
    inverses. Fills gen_words and provenance for the lower cones."""
    for tau in fan.faces:
        if fan.is_maximal(tau):
            continue
        base = []
        prov = []
        for sigma in fan.covering_max_cones(tau):
            for w in gen_words[sigma]:
                if w not in base:
                    base.append(w)
                    prov.append(("union", w))
        gen_words[tau] = _close_lower_chart(fan, tau, base, prov, "unit-inverse")
        provenance[tau] = prov
    charts = {cone: compile_submonoid(words, fan.rank)
              for cone, words in gen_words.items()}
    system = ChartSystem(fan=fan, charts=charts, provenance=provenance)
    _assert_inverse_system(system)
    return system


def _assert_inverse_system(system):
    """Every generator of an upper chart is a generator of each lower chart,
    as the lower charts are built from their covers' generators;
    azumaya.check_gluing_pair reads the lower image of each upper generator
    by it."""
    for (upper, lower) in system.fan.incidence_pairs():
        lower_generators = set(system.charts[lower].generators)
        for g in system.charts[upper].generators:
            if g not in lower_generators:
                raise AssertionError(
                    f"inverse-system property broken: {format_word(g)} from cone "
                    f"{list(upper)} is not a generator of the chart of {list(lower)}")


def inverse_system_findings(system):
    findings = []
    for (upper, lower) in system.fan.incidence_pairs():
        lower_chart = system.charts[lower]
        for g in system.charts[upper].generators:
            ok = lower_chart.member(g)
            findings.append(Finding(
                clause=clauses.INVERSE_SYSTEM,
                locus=f"{list(upper)} > {list(lower)}",
                ok=ok,
                detail=f"generator {format_word(g)}"))
    return findings


def admissible_cone_findings(system, cone):
    """Admissibility findings for one cone: finite generation, surjectivity
    onto the cone's dual monoid, unit closure over the perpendicular part."""
    fan = system.fan
    chart = system.charts[cone]
    findings = [Finding(
        clause=clauses.ADMISSIBLE_FINITE,
        locus=f"cone {list(cone)}",
        ok=True,
        detail=f"{len(chart.generators)} generators")]
    abel = [abelianize(g) for g in chart.generators]
    functional = ray_sum(fan, cone)
    targets, perp_flags = cone_monoid_generators(fan, cone)
    try:
        for t, perp in zip(targets, perp_flags):
            need = [t, tuple(-x for x in t)] if perp else [t]
            for vec in need:
                got = comm_monoid_member(abel, vec, functional)
                findings.append(Finding(
                    clause=clauses.ADMISSIBLE_SURJECTIVE,
                    locus=f"cone {list(cone)}",
                    ok=got is not None,
                    detail=f"dual-monoid generator {vec}"))
    except NoPositivityFunctional as exc:
        # a perpendicular generator without its inverse: no chart built by
        # this package has one, and the search cannot be bounded
        findings.append(Finding(
            clause=clauses.ADMISSIBLE_SURJECTIVE, locus=f"cone {list(cone)}",
            ok=False, detail=str(exc)))
    for g in chart.generators:
        if _in_perp(abelianize(g), fan, cone):
            ok = is_unit_in(chart, g)
            findings.append(Finding(
                clause=clauses.ADMISSIBLE_UNITS,
                locus=f"cone {list(cone)}",
                ok=ok,
                detail=f"generator {format_word(g)}"))
    return findings


def check_admissible(system):
    """Per-cone admissibility report."""
    findings = []
    for cone in system.fan.faces:
        findings.extend(admissible_cone_findings(system, cone))
    findings.extend(inverse_system_findings(system))
    return Report(findings)


def complete_system(fan, partial):
    """Extend admissible maximal charts downward to a full chart system.

    partial maps every maximal cone to its generating words; the maximal
    charts are kept verbatim.
    """
    rank = fan.rank
    gen_words = {}
    provenance = {}
    for sigma in fan.max_cones:
        if sigma not in partial:
            raise NotAdmissibleInput(f"no chart supplied for maximal cone {list(sigma)}")
        words = _dedup(list(partial[sigma]))
        chart = compile_submonoid(words, rank)
        abel = [abelianize(w) for w in words]
        for w, v in zip(words, abel):
            if not _in_dual(v, fan, sigma):
                raise NotAdmissibleInput(
                    f"generator {format_word(w)} of cone {list(sigma)} leaves the dual cone")
        functional = ray_sum(fan, sigma)
        for u in dual_generators(fan, sigma):
            if comm_monoid_member(abel, u, functional) is None:
                raise NotAdmissibleInput(
                    f"cone {list(sigma)}: dual-monoid generator {u} is not reached")
        for w, v in zip(words, abel):
            if _in_perp(v, fan, sigma) and not is_unit_in(chart, w):
                raise NotAdmissibleInput(
                    f"cone {list(sigma)}: generator {format_word(w)} must be a unit")
        gen_words[sigma] = words
        provenance[sigma] = [("supplied", w) for w in words]
    return _system_from_maximal(fan, gen_words, provenance)


def augment_system(system, extra):
    """Enlarge charts so each cone's chart contains the given extra words,
    restoring admissibility by descending induction on dimension."""
    fan = system.fan
    rank = fan.rank
    extra = {tuple(c): list(ws) for c, ws in (extra or {}).items()}
    for cone, words in extra.items():
        for w in words:
            if not _in_dual(abelianize(w), fan, cone):
                raise ExtraOutsideDualCone(
                    f"extra word {format_word(w)} does not map into the dual "
                    f"cone of {list(cone)}")
    new_words = {}
    provenance = {}
    for sigma in fan.max_cones:
        words = list(system.charts[sigma].generators)
        prov = list(system.provenance.get(sigma, [("existing", w) for w in words]))
        for w in extra.get(sigma, []):
            if w not in words and not w.is_identity():
                words.append(w)
                prov.append(("extra", w))
        new_words[sigma] = words
        provenance[sigma] = prov
    for dim in range(fan.rank - 1, -1, -1):
        for tau in fan.faces:
            if len(tau) != dim or fan.is_maximal(tau):
                continue
            words = list(system.charts[tau].generators)
            prov = list(system.provenance.get(tau, [("existing", w) for w in words]))
            for w in extra.get(tau, []):
                if w not in words and not w.is_identity():
                    words.append(w)
                    prov.append(("extra", w))
            covers = [c for c in fan.faces
                      if len(c) == dim + 1 and set(tau) < set(c)]
            for cover in covers:
                for w in new_words[cover]:
                    if w not in words:
                        words.append(w)
                        prov.append(("upper", w))
            words = _close_lower_chart(fan, tau, words, prov, "unit-inverse")
            new_words[tau] = words
            provenance[tau] = prov
    charts = {cone: compile_submonoid(words, rank) for cone, words in new_words.items()}
    out = ChartSystem(fan=fan, charts=charts, provenance=provenance)
    _assert_inverse_system(out)
    return out


def soften(system, extra):
    """Augment with extras on non-maximal cones only; maximal charts keep
    their exact generator lists.  Returns the new system and a record of
    what was adjoined where."""
    extra = {tuple(c): [w for w in ws if not w.is_identity()]
             for c, ws in (extra or {}).items()}
    extra = {c: ws for c, ws in extra.items() if ws}
    for cone in extra:
        if system.fan.is_maximal(cone):
            raise MaximalChartTouched(
                f"softening may not touch maximal cone {list(cone)}")
    out = augment_system(system, extra)
    added = {}
    for cone in system.fan.faces:
        old = list(system.charts[cone].generators)
        new = list(out.charts[cone].generators)
        added[cone] = [w for w in new if w not in old]
    for sigma in system.fan.max_cones:
        if out.charts[sigma].generators != system.charts[sigma].generators:
            raise AssertionError("softening changed a maximal chart")
    record = SofteningRecord(added=added, invariant_charts=system.fan.max_cones)
    return out, record


def abelianized_chart(system, cone):
    """Exponent vectors of the chart generators, in generator order."""
    return [abelianize(g) for g in system.charts[cone].generators]

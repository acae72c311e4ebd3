"""Inverse systems of admissible submonoid charts over a fan: construction
from lifts, augmentation, softening, and the per-cone admissibility verdicts
with witnesses.

A system built from lifts carries its recipe: the lifts it was built from and
the extras of every augmentation since, in order. build_system on those
arguments rebuilds the identical charts in one pass.
"""
from __future__ import annotations

from . import clauses
from .errors import BadLift, ExtraOutsideDualCone, MaximalChartTouched, NoPositivityFunctional
from .freeword import (Submonoid, abelianize, canonical_lift, format_word, is_unit_in,
                       word_inv, words_up_to)
from .reports import Finding, Report
from .toricfan import comm_monoid_solver, cone_monoid_generators, kills, pairing, ray_sum


class ChartSystem:
    """Per-cone finitely generated submonoid charts over a validated fan."""
    __slots__ = ("fan", "charts", "lifts", "stages")

    def __init__(self, fan, charts, lifts=None, stages=()):
        self.fan = fan
        self.charts = charts        # cone -> Submonoid
        self.lifts = lifts          # build_system's lifts; None when not built from lifts
        self.stages = stages        # the extras of each augment_system call, in order


def _in_dual(vec, fan, cone):
    return all(pairing(vec, fan.rays[i]) >= 0 for i in cone)


def _system_from_seeds(fan, seeds, extras=(), base=None, lifts=None):
    """Grow base's charts (empty ones when base is None) by the per-cone
    seed words, then by each stage of extras, and record the nonempty
    stages. A stage appends to a chart its own words; on a lower chart, those
    of the faces above it (the lower faces in fan.faces order, then
    fan.max_cones), the inverses of those words that kill the cone and, on
    the zero cone, the letters; each word once. Each grown chart's Submonoid
    is built once, at the end; a chart that gains no word stays base's own.
    Regrowing from all the generators gives the same lists, as base's upper
    generators and the inverses of its killing words are in its lower charts
    (`_assert_inverse_system`). Build, replay, augmentation, softening and
    Prop 2.2.9's completion (`complete_system` in tests/oracles.py) all use
    this one rule."""
    rounds = [seeds]  # the seeds, then each stage's words without identities
    given = []  # each stage as recorded, its cones as tuples
    for extra in extras:
        stage = {tuple(c): list(ws) for c, ws in (extra or {}).items()}
        for cone, words in stage.items():
            if cone not in fan.faces:
                raise ExtraOutsideDualCone(f"extra words on {list(cone)}, not a cone of the fan")
            for w in words:
                if not _in_dual(abelianize(w), fan, cone):
                    raise ExtraOutsideDualCone(
                        f"extra word {format_word(w)} does not map into the dual "
                        f"cone of {list(cone)}")
        given.append(stage)
        rounds.append({cone: [w for w in words if not w.is_identity()]
                       for cone, words in stage.items()})
    above = [c for c in fan.faces if not fan.is_maximal(c)] + list(fan.max_cones)
    grown = {}  # cone -> its generators, in order, once it gains a word
    for step in rounds:
        for tau in fan.faces:
            words = list(step.get(tau, ()))
            if not fan.is_maximal(tau):
                for upper in above:
                    if set(tau) < set(upper):
                        words += step.get(upper, ())
                words += [word_inv(w) for w in words if kills(fan, tau, abelianize(w))]
                if not tau:
                    words += words_up_to(fan.rank, 1)[1:]
            if tau not in grown:
                if base and set(words) <= base.charts[tau].generator_set:
                    continue
                grown[tau] = dict.fromkeys(base.charts[tau].generators if base else ())
            grown[tau].update(dict.fromkeys(words))
    charts = {tau: Submonoid(grown[tau], fan.rank) if tau in grown else base.charts[tau]
              for tau in fan.faces}
    system = ChartSystem(fan=fan, charts=charts, lifts=base.lifts if base else lifts,
                         stages=(base.stages if base else ()) + tuple(s for s in given if s))
    _assert_inverse_system(system)
    return system


def build_system(fan, lifts=None, stages=()):
    """Construct the chart system of a recipe: per-generator word lifts,
    then stages of extras, each as augment_system reads it.

    lifts maps (maximal cone, dual generator) to a word whose exponent
    vector must equal that dual generator; missing entries use the sorted
    canonical lift.
    """
    lifts = dict(lifts or {})
    for sigma, u in lifts:
        if u not in fan.duals.get(sigma, ()):
            raise BadLift(f"lift at {u} on cone {list(sigma)}, which is not a dual "
                          f"generator of a maximal cone")
    seeds = {}
    for sigma in fan.max_cones:
        words = []
        for u in fan.duals[sigma]:
            w = lifts.get((sigma, u))
            if w is None:
                w = canonical_lift(u, fan.rank)
            elif abelianize(w) != u:
                raise BadLift(
                    f"lift {format_word(w)} abelianizes to {abelianize(w)}, "
                    f"expected {u} on cone {list(sigma)}")
            words.append(w)
        seeds[sigma] = words
    return _system_from_seeds(fan, seeds, stages, lifts=lifts)


def _assert_inverse_system(system):
    """Every generator of an upper chart is a generator of each lower chart,
    as each lower chart lists the seeds of the cones above it;
    azumaya.check_gluing_pair reads the lower image of each upper generator
    by it."""
    for (upper, lower) in system.fan.incidence_pairs():
        lower_generators = system.charts[lower].generator_set
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
    targets, perp_flags = cone_monoid_generators(fan, cone)
    try:
        solve = comm_monoid_solver(abelianized_chart(system, cone), ray_sum(fan, cone))
        for t, perp in zip(targets, perp_flags):
            need = [t, tuple(-x for x in t)] if perp else [t]
            for vec in need:
                findings.append(Finding(
                    clause=clauses.ADMISSIBLE_SURJECTIVE,
                    locus=f"cone {list(cone)}",
                    ok=solve(vec) is not None,
                    detail=f"dual-monoid generator {vec}"))
    except NoPositivityFunctional as exc:
        # a perpendicular generator without its inverse: no chart built by
        # this package has one, and the search cannot be bounded
        findings.append(Finding(
            clause=clauses.ADMISSIBLE_SURJECTIVE, locus=f"cone {list(cone)}",
            ok=False, detail=str(exc)))
    for g in chart.generators:
        if kills(fan, cone, abelianize(g)):
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


def augment_system(system, extra):
    """Enlarge charts so each cone's chart contains the given extra words:
    one stage of `_system_from_seeds`, which keeps every chart they do not
    reach. Nonempty extras become the result's last stage."""
    return _system_from_seeds(system.fan, {}, [extra], base=system)


def soften(system, extra):
    """Augment with extras on non-maximal cones only; maximal charts keep
    their exact generator lists.  Identity words and empty word lists are
    dropped; the rest go to one augment_system call and so form one stage.
    Returns the new system and a dict from each cone whose chart grew to
    the words appended to it. Every other chart is the input's own
    Submonoid, already saturated or not, as with no extras at all."""
    extra = {tuple(c): [w for w in ws if not w.is_identity()]
             for c, ws in (extra or {}).items()}
    extra = {c: ws for c, ws in extra.items() if ws}
    for cone in extra:
        if system.fan.is_maximal(cone):
            raise MaximalChartTouched(
                f"softening may not touch maximal cone {list(cone)}")
    out = augment_system(system, extra)
    added = {c: list(out.charts[c].generators[len(system.charts[c].generators):])
             for c in system.fan.faces if out.charts[c] is not system.charts[c]}
    return out, added


def abelianized_chart(system, cone):
    """Exponent vectors of the chart generators, in generator order."""
    return [abelianize(g) for g in system.charts[cone].generators]

"""Command-line surface: parse artifact files, dispatch to the library, and
emit pass/fail reports. Exit codes: 0 every check passes, 1 a check fails or
is undecided at the stated bound, 2 malformed input, 3 internal error (a
fault in nctoric, printed with its traceback). Each command returns its
report and payload; `main` is the only place that catches and the only
place that prints them, and a library error is reported under its class's
clause. Each command imports only the library layers it runs, when it
runs, and `main` builds only the invoked group's verb parsers: a command is
one short process, and importing every layer would cost a bare `fan check`
more than its own work.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import clauses, serialize
from .errors import NctoricError, ParseError, RankMismatch
from .exactmath import format_gauss
from .reports import Finding, Report


def _emit(report, args, payload):
    if getattr(args, "json", False):
        obj = report.to_json()
        if payload:
            obj.update(payload)
        print(json.dumps(obj, indent=2))
    else:
        print(report.to_text(verbose=getattr(args, "verbose", False)))
        for line in _payload_lines(payload):
            print(line)


def _payload_lines(payload):
    if not payload:
        return []
    lines = []
    for key, val in payload.items():
        if isinstance(val, list):
            lines.append(f"{key}:")
            lines.extend(f"  {v}" for v in val)
        else:
            lines.append(f"{key}: {val}")
    return lines


def _int_list(text, option):
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ParseError(f"{option} must be comma-separated integers, got {text!r}") from None


def _nonnegative_int(text):
    """argparse type of --r and --bound: a matrix size or a search bound."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


CONE_HELP = 'comma-separated ray indices; "" names the zero cone'


def _cone_arg(text, present, kind):
    """The cone named by --cone, which must be one of the file's cones: ""
    or "()" names the zero cone, and "0" the ray [0]."""
    text = text.strip()
    cone = () if text in ("", "()") else tuple(sorted(_int_list(text, "--cone")))
    if cone not in present:
        raise ParseError(f"cone {list(cone)} not present in {kind} file")
    return cone


# --- fan ---------------------------------------------------------------------

def cmd_fan_check(args):
    fan = serialize.load(args.file, serialize.fan_from_obj)
    report = Report([Finding(clause=clauses.FAN_INDEX_ONE, locus="fan", ok=True,
                             detail=f"{len(fan.rays)} rays, "
                                    f"{len(fan.max_cones)} maximal cones, "
                                    f"{len(fan.faces)} faces")])
    if args.out:
        serialize.dump_json(serialize.fan_to_obj(fan), args.out)
    return report, None


# --- system ------------------------------------------------------------------

def cmd_system_build(args):
    from .deltasystem import check_admissible
    from .freeword import format_word
    system = serialize.load_system(args.file)
    report = check_admissible(system)
    if args.out:
        serialize.dump_json(serialize.system_to_obj(system), args.out)
    payload = {"charts": [f"{list(c)}: "
                          + ", ".join(format_word(g) for g in system.charts[c].generators)
                          for c in system.fan.faces]}
    return report, payload


def cmd_system_check(args):
    from .deltasystem import check_admissible
    system = serialize.load_system(args.file)
    return check_admissible(system), None


def cmd_system_augment(args, softening=False):
    from .deltasystem import augment_system, check_admissible, soften
    from .freeword import format_word
    system = serialize.load_system(args.file)
    stage = serialize.load(args.extras, serialize.stage_from_obj, system.fan)
    if softening:
        system, added = soften(system, stage)
    else:
        system = augment_system(system, stage)
        added = None
    if args.out:
        serialize.dump_json(serialize.system_to_obj(system), args.out)
    report = check_admissible(system)
    payload = None
    if added is not None:
        payload = {"added": [f"{list(c)}: " + ", ".join(format_word(w) for w in ws)
                             for c, ws in sorted(added.items())]}
    return report, payload


def cmd_system_soften(args):
    return cmd_system_augment(args, softening=True)


# --- sheaf -------------------------------------------------------------------

def cmd_sheaf_from_divisor(args):
    from .sheaves import check_gluing, sheaf_from_divisor
    system = serialize.load_system(args.file)
    divisor = serialize.load(args.divisor, serialize.divisor_from_obj, system.fan)
    gluing = sheaf_from_divisor(system, divisor)
    if args.out:
        serialize.dump_json(serialize.sheaf_to_obj(gluing), args.out)
    report = check_gluing(gluing)
    return report, None


def cmd_sheaf_check(args):
    from .sheaves import check_gluing
    gluing = serialize.load(args.file, serialize.sheaf_from_obj)
    return check_gluing(gluing), None


def cmd_sheaf_isom(args):
    from .sheaves import sheaves_isomorphic
    g1 = serialize.load(args.first, serialize.sheaf_from_obj)
    g2 = serialize.load(args.second, serialize.sheaf_from_obj)
    candidate = serialize.load(args.candidate, serialize.candidate_from_obj, g1.system.fan)
    ok = sheaves_isomorphic(g1, g2, candidate)
    report = Report([Finding(clause=clauses.GLUING_ISOM, locus="candidate",
                             ok=ok, detail="candidate units identify the gluing data")])
    return report, None


# --- sections ------------------------------------------------------------------

def cmd_section_list(args):
    from .toricfan import polytope_sections
    fan = serialize.load_fan(args.file)
    divisor = serialize.load(args.divisor, serialize.divisor_from_obj, fan)
    points = polytope_sections(fan, divisor)
    report = Report([Finding(clause=clauses.POLYTOPE, locus="divisor polytope",
                             ok=True, detail=f"{len(points)} lattice points")])
    return report, {"points": [list(p) for p in points]}


def cmd_section_extend(args):
    from .sheaves import check_twisted_section, extend_section
    gluing = serialize.load_sheaf(args.file)
    divisor = serialize.load(args.divisor, serialize.divisor_from_obj, gluing.system.fan)
    point = _int_list(args.point, "--point")
    section = extend_section(gluing, divisor, point)
    if args.out:
        serialize.dump_json(serialize.section_to_obj(section), args.out)
    report = check_twisted_section(section)
    return report, None


def cmd_section_check(args):
    from .sheaves import check_twisted_section
    section = serialize.load(args.file, serialize.section_from_obj)
    return check_twisted_section(section), None


# --- subschemes -----------------------------------------------------------------

def cmd_subscheme_build(args):
    from .ncalgebra import format_alg
    from .sheaves import check_twisted_section, subscheme_from_sections
    loaded = [serialize.load(path, serialize.section_from_obj) for path in args.sections]
    report = Report()
    for section, path in zip(loaded, args.sections):
        checked = check_twisted_section(section)
        for finding in checked.findings:
            finding.locus = f"{path}: {finding.locus}"
        report.extend(checked)
    if not report.ok:
        return report, None
    system, charts = subscheme_from_sections(
        loaded, [f"section {path}" for path in args.sections])
    if args.out:
        serialize.dump_json(serialize.subscheme_to_obj(system, charts), args.out)
    report.add(Finding(clause=clauses.SUBSCHEME, locus="charts", ok=True,
                       detail=f"{len(loaded)} sections over {len(charts)} cones"))
    payload = {"charts": [f"{list(c)}: " + "; ".join(format_alg(g) for g in gens)
                          for c, gens in sorted(charts.items())]}
    return report, payload


def cmd_subscheme_member(args):
    from .freeword import format_word
    from .ncalgebra import BoundedIdeal, bounded_ideal_member, parse_alg
    system, charts = serialize.load(args.file, serialize.subscheme_from_obj)
    cone = _cone_arg(args.cone, charts, "subscheme")
    target = parse_alg(args.element, system.fan.rank)
    cert = bounded_ideal_member(BoundedIdeal(tuple(charts[cone]), args.bound), target)
    if cert is None:
        report = Report([Finding(clause=clauses.SUBSCHEME, locus=f"cone {list(cone)}",
                                 ok=False, bound_relative=True,
                                 detail=f"no certificate at bound {args.bound} "
                                        "(not a proof of non-membership)")])
        return report, None
    report = Report([Finding(clause=clauses.SUBSCHEME, locus=f"cone {list(cone)}",
                             ok=True, detail=f"certificate with "
                                             f"{len(cert.combination)} terms")])
    payload = {"certificate": [
        f"({format_gauss(c)}) * [{format_word(x)}] * g{gi} * [{format_word(y)}]"
        for c, x, gi, y in cert.combination]}
    return report, payload


# --- morphisms --------------------------------------------------------------------

def cmd_morphism_check(args):
    from .azumaya import verify_morphism
    morphism = serialize.load(args.file, serialize.morphism_from_obj)
    return verify_morphism(morphism, rel_bound=args.bound), None


def cmd_morphism_sample(args):
    from .azumaya import sample_matrix_model
    system = serialize.load_system(args.file)
    if args.pattern == "trivial":
        pattern = "trivial"
    else:
        pattern = serialize.load(args.pattern, serialize.pattern_from_obj, system.fan, args.r)
    morphism = sample_matrix_model(system, args.r, pattern, args.seed)
    if args.out:
        serialize.dump_json(serialize.morphism_to_obj(morphism), args.out)
    report = Report([Finding(clause=clauses.MATRIX_MODEL, locus="sample", ok=True,
                             detail=f"rank {args.r}, seed {args.seed}")])
    return report, None


def cmd_morphism_surrogate(args):
    from .azumaya import surrogate_basis
    morphism = serialize.load(args.file, serialize.morphism_from_obj)
    basis = surrogate_basis(morphism)
    report = Report([Finding(clause=clauses.SURROGATE, locus="surrogate", ok=True,
                             detail=f"dimension {len(basis)}")])
    payload = {"basis": [" ".join(serialize.matrix_to_entries(m)) for m in basis]}
    return report, payload


def cmd_morphism_kernel(args):
    from .azumaya import image_kernel_bounded
    from .ncalgebra import format_alg
    morphism = serialize.load(args.file, serialize.morphism_from_obj)
    cone = _cone_arg(args.cone, morphism.charts, "morphism")
    ideal = image_kernel_bounded(morphism, cone, args.bound)
    report = Report([Finding(clause=clauses.MORPHISM_IMAGE,
                             locus=f"cone {list(cone)}", ok=True,
                             detail=f"{len(ideal.generators)} kernel generators "
                                    f"at bound {args.bound}")])
    payload = {"generators": [format_alg(g) for g in ideal.generators]}
    return report, payload


# --- probes ----------------------------------------------------------------------

def cmd_probe_a1(args):
    from .azumaya import a1_probe
    result = a1_probe(serialize.load(args.file, serialize.matrix_from_obj))
    minpoly = " + ".join(f"({format_gauss(c)})*t^{k}"
                         for k, c in enumerate(result.minpoly) if c)
    payload = {
        "minpoly": minpoly,
        "fibers": [f"root {format_gauss(root)}: fiber dimension {d}"
                   for root, d in result.fibers],
    }
    if result.unresolved_factor:
        payload["unresolved_factor"] = " + ".join(
            f"({format_gauss(c)})*t^{k}" for k, c in enumerate(result.unresolved_factor) if c)
    report = Report([Finding(clause=clauses.A1_PROBE, locus="probe", ok=True,
                             detail=f"{len(result.fibers)} rational Gaussian roots")])
    return report, payload


# --- parser ------------------------------------------------------------------------

def _common(p, out=False, bound=None, seed=False, bound_help=None):
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--verbose", action="store_true", help="list passing checks too")
    if out:
        p.add_argument("--out", help="write the resulting artifact here")
    if bound is not None:
        p.add_argument("--bound", type=_nonnegative_int, default=bound, help=bound_help)
    if seed:
        p.add_argument("--seed", type=int, default=0)


def _fan_verbs(verbs):
    p = verbs.add_parser("check")
    p.add_argument("file")
    _common(p, out=True)
    p.set_defaults(func=cmd_fan_check)


def _system_verbs(verbs):
    p = verbs.add_parser("build")
    p.add_argument("file")
    _common(p, out=True)
    p.set_defaults(func=cmd_system_build)
    p = verbs.add_parser("check")
    p.add_argument("file")
    _common(p)
    p.set_defaults(func=cmd_system_check)
    for verb, fn in (("augment", cmd_system_augment), ("soften", cmd_system_soften)):
        p = verbs.add_parser(verb)
        p.add_argument("file")
        p.add_argument("--extras", required=True)
        _common(p, out=True)
        p.set_defaults(func=fn)


def _sheaf_verbs(verbs):
    p = verbs.add_parser("from-divisor")
    p.add_argument("file")
    p.add_argument("--divisor", required=True)
    _common(p, out=True)
    p.set_defaults(func=cmd_sheaf_from_divisor)
    p = verbs.add_parser("check")
    p.add_argument("file")
    _common(p)
    p.set_defaults(func=cmd_sheaf_check)
    p = verbs.add_parser("isom")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--candidate", required=True)
    _common(p)
    p.set_defaults(func=cmd_sheaf_isom)


def _section_verbs(verbs):
    p = verbs.add_parser("list")
    p.add_argument("file")
    p.add_argument("--divisor", required=True)
    _common(p)
    p.set_defaults(func=cmd_section_list)
    p = verbs.add_parser("extend")
    p.add_argument("file")
    p.add_argument("--divisor", required=True)
    p.add_argument("--point", required=True,
                   help="comma-separated lattice point; write --point=-1,0 when "
                        "the first coordinate is negative")
    _common(p, out=True)
    p.set_defaults(func=cmd_section_extend)
    p = verbs.add_parser("check")
    p.add_argument("file")
    _common(p)
    p.set_defaults(func=cmd_section_check)


def _subscheme_verbs(verbs):
    p = verbs.add_parser("build")
    p.add_argument("sections", nargs="+")
    _common(p, out=True)
    p.set_defaults(func=cmd_subscheme_build)
    p = verbs.add_parser("member")
    p.add_argument("file")
    p.add_argument("--cone", required=True, help=CONE_HELP)
    p.add_argument("--element", required=True)
    _common(p, bound=4)
    p.set_defaults(func=cmd_subscheme_member)


def _morphism_verbs(verbs):
    p = verbs.add_parser("check")
    p.add_argument("file")
    _common(p, bound=4, bound_help="longest product of generators searched for relations on "
                                   "a chart no exact rule decides, whose pass is then "
                                   "bound-relative (default %(default)s)")
    p.set_defaults(func=cmd_morphism_check)
    p = verbs.add_parser("sample")
    p.add_argument("file")
    p.add_argument("--r", type=_nonnegative_int, required=True)
    p.add_argument("--pattern", default="trivial",
                   help="'trivial' or a pattern file path")
    _common(p, out=True, seed=True)
    p.set_defaults(func=cmd_morphism_sample)
    p = verbs.add_parser("surrogate")
    p.add_argument("file")
    _common(p)
    p.set_defaults(func=cmd_morphism_surrogate)
    p = verbs.add_parser("kernel")
    p.add_argument("file")
    p.add_argument("--cone", required=True, help=CONE_HELP)
    _common(p, bound=2)
    p.set_defaults(func=cmd_morphism_kernel)


def _probe_verbs(verbs):
    p = verbs.add_parser("a1")
    p.add_argument("file", help="matrix file with size and row-major entries")
    _common(p)
    p.set_defaults(func=cmd_probe_a1)


GROUPS = {"fan": _fan_verbs, "system": _system_verbs, "sheaf": _sheaf_verbs,
          "section": _section_verbs, "subscheme": _subscheme_verbs,
          "morphism": _morphism_verbs, "probe": _probe_verbs}


def build_parser(group=None):
    """The `nctoric` parser. Every group is listed, but only the named group
    gets its verbs, or every group when `group` names none: a command is one
    short process that parses one group's verbs, and building the others'
    is start-up time it never uses. Help and usage errors read the same
    either way, since each names only the parsers on its path."""
    top = argparse.ArgumentParser(prog="nctoric",
                                  description="exact toric charts, sheaves, "
                                              "and matrix-point morphisms")
    groups = top.add_subparsers(dest="group", required=True)
    for name, add_verbs in GROUPS.items():
        verbs = groups.add_parser(name).add_subparsers(dest="verb", required=True)
        if group == name or group not in GROUPS:
            add_verbs(verbs)
    return top


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        try:
            report, payload = args.func(args)
        except (ParseError, RankMismatch) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except NctoricError as exc:
            report, payload = Report([Finding(clause=exc.clause, locus=exc.locus, ok=False,
                                              detail=str(exc),
                                              bound_relative=exc.bound_relative)]), None
        _emit(report, args, payload)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early, which does not change the verdict;
        # stdout now points at devnull so the interpreter's last flush succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except Exception as exc:
        import traceback
        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return 3
    return 0 if report.status == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())

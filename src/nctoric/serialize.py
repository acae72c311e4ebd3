"""JSON file formats for every artifact: exact integers everywhere, words
and Gaussian rationals as literals, never a float.

System files store the recipe a chart system carries (its fan, its lifts and
the extras of each augmentation stage) rather than computed charts. Loading
reads the whole recipe, then builds it in one build_system call, so a written
file rebuilds the identical charts and writes back the identical object.
Every reader parses all of its file before it builds a chart.
Every reader returns the artifact alone; every writer takes it alone. Each
imports, when called, only the layer whose artifact it handles, so reading a
fan loads no chart, sheaf or matrix code.
"""
from __future__ import annotations

import json
import os

from .errors import ParseError
from .exactmath import format_gauss, parse_gauss
from .toricfan import Fan, validate_fan


def load_json(path):
    def one_value_per_key(pairs):
        # the json module keeps a repeated key's last value; refuse it instead
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ParseError(f"{path}: key {key!r} repeated in one object")
            if key == "fan" and isinstance(value, str):
                # a fan file named by a system, at any depth, is relative to this file
                value = os.path.join(os.path.dirname(path) or ".", value)
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: byte {exc.start} is "
                         f"0x{exc.object[exc.start]:02x}") from None
    except (OSError, ValueError) as exc:
        # open refuses a path with a null byte by ValueError
        raise ParseError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text, object_pairs_hook=one_value_per_key)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg} (line {exc.lineno}, column {exc.colno})") from None
    except RecursionError:
        raise ParseError(f"{path}: values nested too deeply") from None
    except ValueError:
        # the one ValueError left: an integer past the interpreter's digit limit
        raise ParseError(f"{path}: an integer literal has too many digits to read") from None


def load(path, from_obj, *args):
    """The artifact in the file at path, read by from_obj(obj, *args, where=path)."""
    return from_obj(load_json(path), *args, where=path)


def dump_json(obj, path):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=False)
            fh.write("\n")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None


_ABSENT = object()
_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _field(obj, key, where, kind=object, default=_ABSENT):
    """obj[key] from a JSON object, checked to be of type `kind`; `default`
    stands in for an absent key when given."""
    _of(obj, dict, where)
    if key not in obj:
        if default is _ABSENT:
            raise ParseError(f"{where}: missing field {key!r}")
        return default
    return _of(obj[key], kind, f"{where}: field {key!r}")


def _of(value, kind, what):
    if not isinstance(value, kind):
        raise ParseError(f"{what} must be {_KINDS[kind]}, got {type(value).__name__}")
    return value


def _integer(value, what):
    """An exact integer from a JSON integer or an integer string; a float is
    refused rather than truncated, a boolean rather than read as 0 or 1."""
    if not isinstance(value, (float, bool)):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ParseError(f"{what} must be an integer, got {value!r}")


def _ints(value, what):
    """A tuple of exact integers from a JSON list."""
    return tuple(_integer(x, what) for x in _of(value, list, what))


def _unique(pairs, where, name=lambda cone: f"cone {list(cone)}"):
    """A dict from the (key, value) pairs read off a JSON list. A key that
    comes twice is malformed input: one of its entries would go unread."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"{where}: a second entry for {name(key)}")
        out[key] = value
    return out


def _cone(item, fan, where, key="cone"):
    """The cone item[key] as a sorted tuple of ray indices; it must be a
    cone of fan."""
    cone = tuple(sorted(_ints(_field(item, key, where), f"{where}: {key}")))
    if cone not in fan.faces:
        raise ParseError(f"{where}: {list(cone)} is not a cone of the fan")
    return cone


# --- fans -------------------------------------------------------------------

def fan_to_obj(fan):
    return {
        "rank": fan.rank,
        "rays": [list(r) for r in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones],
        "certificates": [
            {"pair": [list(a), list(b)], "functional": list(f)}
            for (a, b), f in sorted(fan.pair_certificates.items())
        ],
    }


def fan_from_obj(obj, where="fan"):
    rank = _integer(_field(obj, "rank", where), f"{where}: rank")
    if rank < 0:
        raise ParseError(f"{where}: rank {rank} is negative")
    rays = [_ints(r, f"{where}: ray") for r in _field(obj, "rays", where, list)]
    cones = [_ints(c, f"{where}: maximal cone")
             for c in _field(obj, "max_cones", where, list)]
    at = f"{where}.certificates"

    def certificate(item):
        pair = _field(item, "pair", at, list)
        if len(pair) != 2:
            raise ParseError(f"{at}: a pair lists two cones, got {len(pair)}")
        key = tuple(tuple(sorted(_ints(c, f"{at}: pair"))) for c in pair)
        return key, _ints(_field(item, "functional", at), f"{at}: functional")

    certificates = _unique(map(certificate, _field(obj, "certificates", where, list,
                                                   default=[])),
                           at, lambda pair: f"pair {list(map(list, pair))}")
    fan = validate_fan(rank, rays, cones, certificates or None)
    for pair in certificates:
        # validate_fan reads a certificate only under two distinct maximal
        # cones in max_cones order; any other pair would go unchecked
        if pair not in fan.pair_certificates:
            raise ParseError(f"{at}: pair {list(map(list, pair))} is not an earlier "
                             "and a later maximal cone, so it would not be read")
    return fan


# --- chart systems (recipes) ------------------------------------------------

def system_to_obj(system):
    """The recipe of a system built from lifts: fan, lifts, and one list of
    extras per augmentation stage."""
    from .freeword import format_word
    if system.lifts is None:
        raise ValueError("a chart system not built from lifts has no recipe to write")
    obj = {"fan": fan_to_obj(system.fan)}
    if system.lifts:
        obj["lifts"] = [
            {"cone": list(cone), "generator": list(gen), "word": format_word(w)}
            for (cone, gen), w in sorted(system.lifts.items())
        ]
    if system.stages:
        obj["extras"] = [
            [{"cone": list(cone), "words": [format_word(w) for w in ws]}
             for cone, ws in sorted(stage.items())]
            for stage in system.stages
        ]
    return obj


def _recipe_from_obj(obj, where):
    """The fan, lifts and stages of a recipe object; the fan first, as
    every cone is read against it.

    The fan may be inline or a path to a fan file; load_json has already
    resolved a path read from a file against that file's directory.
    """
    from .freeword import parse_word
    fan_obj = _field(obj, "fan", where)
    if isinstance(fan_obj, str):
        fan_obj = load_json(fan_obj)
    fan = fan_from_obj(fan_obj, where=f"{where}.fan")
    at = f"{where}.lifts"

    def lift(item):
        gen = _ints(_field(item, "generator", at), f"{at}: generator")
        cone = _cone(item, fan, at)
        # build_system reads a lift only at a maximal cone and a dual generator
        if not fan.is_maximal(cone):
            raise ParseError(f"{at}: the lift of generator {list(gen)} names cone "
                             f"{list(cone)}, which is not maximal")
        if gen not in fan.duals[cone]:
            raise ParseError(f"{at}: generator {list(gen)} is not a dual generator "
                             f"of cone {list(cone)}")
        return (cone, gen), parse_word(_field(item, "word", at), fan.rank)

    lifts = _unique(map(lift, _field(obj, "lifts", where, list, default=[])), at,
                    lambda key: f"generator {list(key[1])} of cone {list(key[0])}")
    stages = [stage_from_obj(stage_obj, fan, f"{where}.extras")
              for stage_obj in _field(obj, "extras", where, list, default=[])]
    return fan, lifts, stages


def system_from_obj(obj, where="system"):
    """Rebuild a system from its recipe object, in one build_system call."""
    from .deltasystem import build_system
    return build_system(*_recipe_from_obj(obj, where))


def _fan_or_system(path):
    """The fan of a bare fan file, or the system replayed from a recipe file."""
    obj = load_json(path)
    if isinstance(obj, dict) and "rays" in obj:
        return fan_from_obj(obj, where=path)
    return system_from_obj(obj, where=path)


def load_system(path):
    """The system of a system recipe file, or built from a bare fan file."""
    from .deltasystem import build_system
    base = _fan_or_system(path)
    return build_system(base) if isinstance(base, Fan) else base


def load_fan(path):
    """The fan of a bare fan file or of a system recipe file. A bare fan
    builds no chart; a recipe is still replayed, so a malformed one is
    refused as load_system refuses it."""
    base = _fan_or_system(path)
    return base if isinstance(base, Fan) else base.fan


def stage_from_obj(obj, fan, where="extras"):
    """One augmentation stage: the extra words for each listed cone."""
    from .freeword import parse_word
    return _unique(((_cone(item, fan, where),
                     [parse_word(w, fan.rank) for w in _field(item, "words", where, list)])
                    for item in _of(obj, list, where)), where)


# --- divisors ----------------------------------------------------------------

def divisor_from_obj(obj, fan, where="divisor"):
    coeff_map = _field(obj, "coefficients", where)
    if not isinstance(coeff_map, dict):
        raise ParseError(f"{where}: coefficients must be a map from ray index to integer")

    def coefficient(key, val):
        idx = _integer(key, f"{where}: ray index")
        if idx < 0 or idx >= len(fan.rays):
            raise ParseError(f"{where}: ray index {idx} out of range")
        return idx, _integer(val, f"{where}: coefficient of ray {idx}")

    coeffs = _unique((coefficient(*kv) for kv in coeff_map.items()), where,
                     lambda idx: f"ray {idx}")
    return tuple(coeffs.get(i, 0) for i in range(len(fan.rays)))


# --- sheaves -----------------------------------------------------------------

def sheaf_to_obj(gluing):
    from .freeword import format_word
    return {
        "system": system_to_obj(gluing.system),
        "gluing": [
            {"upper": list(u), "lower": list(l),
             "scalar": format_gauss(gluing.scalars[(u, l)]),
             "word": format_word(gluing.words[(u, l)])}
            for (u, l) in sorted(gluing.words)
        ],
    }


def _sheaf_parts(obj, where):
    """The recipe of a sheaf object's system and its gluing entries."""
    from .freeword import parse_word
    recipe = _recipe_from_obj(_field(obj, "system", where), f"{where}.system")
    fan = recipe[0]
    at = f"{where}.gluing"

    def entry(item):
        upper, lower = key = (_cone(item, fan, at, "upper"), _cone(item, fan, at, "lower"))
        if not set(lower) < set(upper):
            raise ParseError(f"{at}: {list(lower)} is not a proper face of {list(upper)}")
        return key, (parse_gauss(_field(item, "scalar", at)),
                     parse_word(_field(item, "word", at), fan.rank))

    entries = _unique(map(entry, _field(obj, "gluing", where, list)), at,
                      lambda key: f"{list(key[0])} > {list(key[1])}")
    return recipe, entries


def _gluing(recipe, entries):
    from .deltasystem import build_system
    from .sheaves import GluingData
    return GluingData(system=build_system(*recipe),
                      scalars={k: s for k, (s, _) in entries.items()},
                      words={k: w for k, (_, w) in entries.items()})


def sheaf_from_obj(obj, where="sheaf"):
    return _gluing(*_sheaf_parts(obj, where))


def load_sheaf(path):
    """The gluing of a sheaf file, or of the sheaf under a section file."""
    obj = load_json(path)
    if isinstance(obj, dict) and "locals" in obj:
        return section_from_obj(obj, where=path).gluing
    return sheaf_from_obj(obj, where=path)


def candidate_from_obj(obj, fan, where="candidate"):
    """Candidate per-cone units (scalar, word) for a sheaf isomorphism."""
    from .freeword import parse_word
    return _unique(((_cone(item, fan, where),
                     (parse_gauss(_field(item, "scalar", where)),
                      parse_word(_field(item, "word", where), fan.rank)))
                    for item in _of(obj, list, where)), where)


# --- twisted sections ---------------------------------------------------------

def section_to_obj(section):
    from .ncalgebra import format_alg
    return {
        "sheaf": sheaf_to_obj(section.gluing),
        "locals": [
            {"cone": list(cone), "element": format_alg(elem)}
            for cone, elem in sorted(section.locals.items())
        ],
    }


def section_from_obj(obj, where="section"):
    from .ncalgebra import parse_alg
    from .sheaves import TwistedSectionData
    recipe, entries = _sheaf_parts(_field(obj, "sheaf", where), f"{where}.sheaf")
    fan = recipe[0]
    at = f"{where}.locals"
    locals_ = _unique(((_cone(item, fan, at),
                        parse_alg(_field(item, "element", at), fan.rank))
                       for item in _field(obj, "locals", where, list)), at)
    return TwistedSectionData(gluing=_gluing(recipe, entries), locals=locals_)


# --- subschemes ----------------------------------------------------------------

def subscheme_to_obj(system, chart_gens):
    from .ncalgebra import format_alg
    return {
        "system": system_to_obj(system),
        "charts": [
            {"cone": list(cone), "generators": [format_alg(g) for g in gens]}
            for cone, gens in sorted(chart_gens.items())
        ],
    }


def subscheme_from_obj(obj, where="subscheme"):
    from .deltasystem import build_system
    from .ncalgebra import parse_alg
    recipe = _recipe_from_obj(_field(obj, "system", where), f"{where}.system")
    fan = recipe[0]
    at = f"{where}.charts"

    def chart(item):
        cone = _cone(item, fan, at)
        gens = [parse_alg(t, fan.rank) for t in _field(item, "generators", at, list)]
        if not all(gens):
            # an ideal is cut out by nonzero generators, as subscheme build writes them
            raise ParseError(f"{at}: cone {list(cone)} lists the generator 0")
        return cone, gens

    charts = _unique(map(chart, _field(obj, "charts", where, list)), at)
    return build_system(*recipe), charts


# --- matrices and morphisms ----------------------------------------------------

def matrix_to_entries(m):
    return [format_gauss(v) for row in m for v in row]


def matrix_from_entries(entries, size, where="matrix"):
    if size < 0:
        raise ParseError(f"{where}: matrix size {size} is negative")
    if not isinstance(entries, list):
        raise ParseError(f"{where}: entries must be a list of literals")
    if len(entries) != size * size:
        raise ParseError(f"{where}: expected {size * size} entries, got {len(entries)}")
    vals = [parse_gauss(e) for e in entries]
    return [vals[i * size:(i + 1) * size] for i in range(size)]


def morphism_to_obj(morphism):
    from .freeword import format_word
    charts = []
    for cone, chart in sorted(morphism.charts.items()):
        charts.append({
            "cone": list(cone),
            "e": matrix_to_entries(chart.identity_image),
            "images": [
                {"word": format_word(w), "matrix": matrix_to_entries(m)}
                for w, m in sorted(chart.images.items(), key=lambda kv: kv[0].sort_key())
            ],
        })
    return {
        "rank_r": morphism.rank_r,
        "system": system_to_obj(morphism.system),
        "charts": charts,
    }


def matrix_from_obj(obj, where="matrix"):
    """A square matrix file: `size` and row-major `entries`."""
    size = _integer(_field(obj, "size", where), f"{where}: size")
    return matrix_from_entries(_field(obj, "entries", where), size, where=where)


def morphism_from_obj(obj, where="morphism"):
    """A morphism file. A `witnesses` list, written by older versions, is
    not read: a unit generator's corner inverse is unique and verification
    solves for it."""
    from .azumaya import MorphismData, QuasiHomChart
    from .deltasystem import build_system
    from .freeword import format_word, parse_word
    r = _integer(_field(obj, "rank_r", where), f"{where}: rank_r")
    recipe = _recipe_from_obj(_field(obj, "system", where), f"{where}.system")
    fan = recipe[0]

    def chart(item):
        cone = _cone(item, fan, at)
        e = matrix_from_entries(_field(item, "e", at), r, f"{where} e on {cone}")
        im_at = f"{where} image on {cone}"
        images = _unique(((parse_word(_field(im, "word", im_at), fan.rank),
                           matrix_from_entries(_field(im, "matrix", im_at), r, im_at))
                          for im in _field(item, "images", im_at, list, default=[])),
                         im_at, lambda w: f"word {format_word(w)}")
        return cone, QuasiHomChart(cone=cone, identity_image=e, images=images)

    at = f"{where}.charts"
    charts = _unique(map(chart, _field(obj, "charts", where, list)), at)
    return MorphismData(rank_r=r, system=build_system(*recipe), charts=charts)


def pattern_from_obj(obj, fan, r, where="pattern"):
    def idempotent(item):
        cone = _cone(item, fan, where)
        return cone, matrix_from_entries(_field(item, "matrix", where), r,
                                         f"{where} on {cone}")

    return _unique(map(idempotent, _field(obj, "idempotents", where, list)), where)

"""JSON file formats for every artifact: exact integers everywhere, words
and Gaussian rationals as literals, never a float.

System files store the construction recipe (fan, lifts, softening stages)
rather than computed charts, so loading rebuilds deterministically and a
written file always round-trips to an equal value.
"""
from __future__ import annotations

import json
import os

from .azumaya import MorphismData, QuasiHomChart
from .deltasystem import augment_system, build_system, soften
from .errors import ParseError
from .exactmath import format_gauss, parse_gauss
from .freeword import format_word, parse_word
from .ncalgebra import format_alg, parse_alg
from .sheaves import DivisorData, GluingData, TwistedSectionData
from .toricfan import validate_fan


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg}", line=exc.lineno, column=exc.colno) from None
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=False)
        fh.write("\n")


def _require(obj, key, where):
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    return obj[key]


def _integer(value, what):
    """An exact integer from a JSON integer or an integer string; a float is
    refused rather than truncated."""
    if not isinstance(value, float):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ParseError(f"{what} must be an integer, got {value!r}")


# --- fans -------------------------------------------------------------------

def fan_to_obj(fan):
    return fan.to_raw()


def fan_from_obj(obj, where="fan"):
    rank = int(_require(obj, "rank", where))
    rays = _require(obj, "rays", where)
    cones = _require(obj, "max_cones", where)
    certificates = {}
    for item in obj.get("certificates", []):
        a, b = item["pair"]
        certificates[(tuple(sorted(a)), tuple(sorted(b)))] = tuple(item["functional"])
    return validate_fan(rank, rays, cones, certificates or None)


# --- chart systems (recipes) ------------------------------------------------

def system_to_obj(fan, lifts=None, extra_stages=None):
    obj = {"fan": fan_to_obj(fan)}
    if lifts:
        obj["lifts"] = [
            {"cone": list(cone), "generator": list(gen), "word": format_word(w)}
            for (cone, gen), w in sorted(lifts.items())
        ]
    if extra_stages:
        obj["extras"] = [
            [{"cone": list(cone), "words": [format_word(w) for w in ws]}
             for cone, ws in sorted(stage.items())]
            for stage in extra_stages
        ]
    return obj


def system_from_obj(obj, where="system", base_dir=None):
    """Rebuild (system, recipe) from a recipe object; recipe is the parsed
    (fan, lifts, stages) triple used to re-emit the file.

    The fan may be inline or a path to a fan file, resolved against base_dir.
    """
    fan_obj = _require(obj, "fan", where)
    if isinstance(fan_obj, str):
        path = fan_obj if base_dir is None else os.path.join(base_dir, fan_obj)
        fan_obj = load_json(path)
    fan = fan_from_obj(fan_obj, where=f"{where}.fan")
    lifts = {}
    for item in obj.get("lifts", []):
        cone = tuple(sorted(item["cone"]))
        gen = tuple(item["generator"])
        lifts[(cone, gen)] = parse_word(item["word"], fan.rank)
    system = build_system(fan, lifts)
    stages = []
    for stage_obj in obj.get("extras", []):
        stage = {}
        for item in stage_obj:
            cone = tuple(sorted(item["cone"]))
            stage[cone] = [parse_word(w, fan.rank) for w in item["words"]]
        stages.append(stage)
        if any(fan.is_maximal(c) for c in stage):
            system = augment_system(system, stage)
        else:
            system, _ = soften(system, stage)
    return system, {"fan": fan, "lifts": lifts, "stages": stages}


# --- divisors ----------------------------------------------------------------

def divisor_to_obj(divisor):
    return {"coefficients": {str(i): a for i, a in enumerate(divisor.coefficients)}}


def divisor_from_obj(obj, fan, where="divisor"):
    coeff_map = _require(obj, "coefficients", where)
    if not isinstance(coeff_map, dict):
        raise ParseError(f"{where}: coefficients must be a map from ray index to integer")
    coeffs = [0] * len(fan.rays)
    for key, val in coeff_map.items():
        idx = _integer(key, f"{where}: ray index")
        if idx < 0 or idx >= len(fan.rays):
            raise ParseError(f"{where}: ray index {idx} out of range")
        coeffs[idx] = _integer(val, f"{where}: coefficient of ray {idx}")
    return DivisorData(tuple(coeffs))


# --- sheaves -----------------------------------------------------------------

def sheaf_to_obj(recipe, gluing):
    return {
        "system": system_to_obj(recipe["fan"], recipe["lifts"], recipe["stages"]),
        "gluing": [
            {"upper": list(u), "lower": list(l),
             "scalar": format_gauss(gluing.scalars[(u, l)]),
             "word": format_word(gluing.words[(u, l)])}
            for (u, l) in sorted(gluing.words)
        ],
    }


def sheaf_from_obj(obj, where="sheaf"):
    system, recipe = system_from_obj(_require(obj, "system", where), f"{where}.system")
    scalars = {}
    words = {}
    for item in _require(obj, "gluing", where):
        key = (tuple(sorted(item["upper"])), tuple(sorted(item["lower"])))
        scalars[key] = parse_gauss(item["scalar"])
        words[key] = parse_word(item["word"], system.fan.rank)
    return GluingData(system=system, scalars=scalars, words=words), recipe


# --- twisted sections ---------------------------------------------------------

def section_to_obj(recipe, section):
    obj = sheaf_to_obj(recipe, section.gluing)
    return {
        "sheaf": obj,
        "locals": [
            {"cone": list(cone), "element": format_alg(elem)}
            for cone, elem in sorted(section.locals.items())
        ],
    }


def section_from_obj(obj, where="section"):
    gluing, recipe = sheaf_from_obj(_require(obj, "sheaf", where), f"{where}.sheaf")
    rank = gluing.system.fan.rank
    locals_ = {}
    for item in _require(obj, "locals", where):
        locals_[tuple(sorted(item["cone"]))] = parse_alg(item["element"], rank)
    return TwistedSectionData(gluing=gluing, locals=locals_), recipe


# --- subschemes ----------------------------------------------------------------

def subscheme_to_obj(recipe, chart_gens):
    return {
        "system": system_to_obj(recipe["fan"], recipe["lifts"], recipe["stages"]),
        "charts": [
            {"cone": list(cone), "generators": [format_alg(g) for g in gens]}
            for cone, gens in sorted(chart_gens.items())
        ],
    }


def subscheme_from_obj(obj, where="subscheme"):
    system, recipe = system_from_obj(_require(obj, "system", where), f"{where}.system")
    charts = {}
    for item in _require(obj, "charts", where):
        cone = tuple(sorted(item["cone"]))
        charts[cone] = [parse_alg(t, system.fan.rank) for t in item["generators"]]
    return system, charts, recipe


# --- matrices and morphisms ----------------------------------------------------

def matrix_to_entries(m):
    return [format_gauss(v) for row in m for v in row]


def matrix_from_entries(entries, size, where="matrix"):
    if not isinstance(entries, list):
        raise ParseError(f"{where}: entries must be a list of literals")
    if len(entries) != size * size:
        raise ParseError(f"{where}: expected {size * size} entries, got {len(entries)}")
    vals = [parse_gauss(e) for e in entries]
    return [vals[i * size:(i + 1) * size] for i in range(size)]


def morphism_to_obj(recipe, morphism):
    charts = []
    for cone, chart in sorted(morphism.charts.items()):
        charts.append({
            "cone": list(cone),
            "e": matrix_to_entries(chart.identity_image),
            "images": [
                {"word": format_word(w), "matrix": matrix_to_entries(m)}
                for w, m in sorted(chart.images.items(), key=lambda kv: kv[0].sort_key())
            ],
            "witnesses": [
                {"word": format_word(w), "matrix": matrix_to_entries(m)}
                for w, m in sorted(chart.witnesses.items(), key=lambda kv: kv[0].sort_key())
            ],
        })
    return {
        "rank_r": morphism.rank_r,
        "system": system_to_obj(recipe["fan"], recipe["lifts"], recipe["stages"]),
        "charts": charts,
    }


def morphism_from_obj(obj, where="morphism"):
    r = int(_require(obj, "rank_r", where))
    system, recipe = system_from_obj(_require(obj, "system", where), f"{where}.system")
    rank = system.fan.rank
    charts = {}
    for item in _require(obj, "charts", where):
        cone = tuple(sorted(item["cone"]))
        e = matrix_from_entries(item["e"], r, f"{where} e on {cone}")
        images = {}
        for im in item.get("images", []):
            images[parse_word(im["word"], rank)] = matrix_from_entries(
                im["matrix"], r, f"{where} image on {cone}")
        witnesses = {}
        for im in item.get("witnesses", []):
            witnesses[parse_word(im["word"], rank)] = matrix_from_entries(
                im["matrix"], r, f"{where} witness on {cone}")
        charts[cone] = QuasiHomChart(cone=cone, identity_image=e, images=images,
                                     witnesses=witnesses)
    return MorphismData(rank_r=r, system=system, charts=charts), recipe


def pattern_from_obj(obj, r, where="pattern"):
    out = {}
    for item in _require(obj, "idempotents", where):
        cone = tuple(sorted(item["cone"]))
        out[cone] = matrix_from_entries(item["matrix"], r, f"{where} on {cone}")
    return out

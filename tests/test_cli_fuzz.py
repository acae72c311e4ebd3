"""Malformed-input fuzzing of the CLI: valid artifacts with keys dropped,
values swapped for another JSON type, or lists truncated must give a
verdict (0 or 1) or a clean input error (2), never an escaped exception
or an internal error (3)."""
import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, strategies as st

from nctoric.cli import main

from test_cli import P2, write

CONE = {"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}

# values of each JSON type: string, int, float, list, dict, null; [7] names
# a ray that no fan here has
REPLACEMENTS = ["x", "1", 0, 2, -1, 1.5, [], [0], [7], {}, {"x": 1}, None]


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """The valid artifacts of tests/test_cli.py, built through the CLI:
    kind -> (parsed JSON, argv with {} for the artifact path)."""
    base = tmp_path_factory.mktemp("fuzz")
    fan = write(base, "p2.fan", P2)
    div = write(base, "o1.div", {"coefficients": {"2": 1}})
    cone_fan = write(base, "cone.fan", CONE)
    p1_fan = write(base, "p1.fan", {"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]})
    extras = [{"cone": [0], "words": ["z1 z2^2"]}]
    cones = [[], [0], [1], [2], [0, 1], [0, 2], [1, 2]]
    candidate = [{"cone": c, "scalar": "1", "word": "e"} for c in cones]
    pattern = {"idempotents": [{"cone": [0], "matrix": ["1", "0", "0", "0"]},
                               {"cone": [1], "matrix": ["0", "0", "0", "1"]},
                               {"cone": [], "matrix": ["0", "0", "0", "0"]}]}

    def build(*argv):
        code, err = quiet_main(list(argv))
        assert code == 0, err

    paths = {kind: str(base / f"{kind}.json") for kind in
             ("system", "sheaf", "section", "section2", "subscheme", "morphism")}
    build("system", "soften", fan, "--extras", write(base, "extras.json", extras),
          "--out", paths["system"])
    build("sheaf", "from-divisor", fan, "--divisor", div, "--out", paths["sheaf"])
    build("section", "extend", paths["sheaf"], "--divisor", div, "--point", "1,0",
          "--out", paths["section"])
    build("section", "extend", paths["section"], "--divisor", div, "--point", "0,1",
          "--out", paths["section2"])
    build("subscheme", "build", paths["section"], paths["section2"],
          "--out", paths["subscheme"])
    build("morphism", "sample", cone_fan, "--r", "2", "--pattern", "trivial",
          "--seed", "9", "--out", paths["morphism"])

    def load(path):
        with open(path) as fh:
            return json.load(fh)

    return base, {
        "fan": (P2, ["fan", "check", "{}"]),
        "system": (load(paths["system"]), ["system", "check", "{}"]),
        "sheaf": (load(paths["sheaf"]), ["sheaf", "check", "{}"]),
        "section": (load(paths["section"]), ["section", "check", "{}"]),
        "extend": (load(paths["section"]),
                   ["section", "extend", "{}", "--divisor", div, "--point", "0,1"]),
        "subscheme": (load(paths["subscheme"]),
                      ["subscheme", "member", "{}", "--cone", "0,1",
                       "--element", "z2 z1", "--bound", "2"]),
        "morphism": (load(paths["morphism"]), ["morphism", "check", "{}"]),
        "kernel": (load(paths["morphism"]),
                   ["morphism", "kernel", "{}", "--cone", "0", "--bound", "1"]),
        "probe": ({"size": 2, "entries": ["1", "0", "0", "0"]}, ["probe", "a1", "{}"]),
        "extras": (extras, ["system", "soften", fan, "--extras", "{}"]),
        "divisor": ({"coefficients": {"2": 1}},
                    ["sheaf", "from-divisor", fan, "--divisor", "{}"]),
        "candidate": (candidate, ["sheaf", "isom", paths["sheaf"], paths["sheaf"],
                                  "--candidate", "{}"]),
        "pattern": (pattern, ["morphism", "sample", p1_fan, "--r", "2",
                              "--pattern", "{}"]),
        "build": (load(paths["section"]),
                  ["subscheme", "build", "{}", paths["section2"]]),
    }


def positions(obj, path=()):
    yield path
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from positions(val, path + (key,))
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from positions(val, path + (i,))


@st.composite
def mutants(draw, obj):
    """obj after one to three drops, type swaps or truncations."""
    obj = copy.deepcopy(obj)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(positions(obj))))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        value = parent[path[-1]] if path else obj
        action = draw(st.sampled_from(["drop", "swap", "truncate"]))
        if action == "drop" and path:
            del parent[path[-1]]
            continue
        if action == "truncate" and isinstance(value, list) and value:
            new = value[:draw(st.integers(0, len(value) - 1))]
        else:
            new = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
        if path:
            parent[path[-1]] = new
        else:
            obj = new
    return obj


KINDS = ["fan", "system", "sheaf", "section", "extend", "subscheme", "morphism",
         "kernel", "probe", "extras", "divisor", "candidate", "pattern", "build"]


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
def test_mutated_artifacts_never_escape(artifacts, kind, data):
    base, table = artifacts
    valid, argv = table[kind]
    mutant = data.draw(mutants(valid), label="mutant")
    path = write(base, "mutant.json", mutant)
    code, err = quiet_main([a.replace("{}", path) for a in argv])
    assert code in (0, 1, 2), err

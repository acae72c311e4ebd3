import argparse
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys

import pytest

import nctoric
from nctoric import deltasystem, serialize
from nctoric.cli import GROUPS, build_parser, main
from nctoric.exactmath import I, ONE, format_gauss, parse_gauss
from nctoric.freeword import format_word, is_unit_in
from nctoric.qimatrix import solve_corner_inverse
from nctoric.serialize import load_json
from nctoric.sheaves import (combine_sections, extend_section, sheaf_from_divisor,
                             subscheme_from_sections)
from oracles import products_by_word

P2 = {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
      "max_cones": [[0, 1], [1, 2], [0, 2]]}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def cli_env():
    """The environment of a fresh interpreter that imports this nctoric."""
    src = os.path.dirname(os.path.dirname(nctoric.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_process(*argv):
    """The CLI in a fresh interpreter, so an uncaught exception shows up as a
    traceback on stderr."""
    proc = subprocess.run([sys.executable, "-m", "nctoric.cli", *argv],
                          capture_output=True, text=True, env=cli_env(), timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class TestFan:
    def test_check_pass(self, tmp_path, capsys):
        path = write(tmp_path, "p2.fan", P2)
        code, out, _ = run(capsys, "fan", "check", path)
        assert code == 0
        assert "status: pass" in out

    def test_determinant_tamper(self, tmp_path, capsys):
        bad = {"rank": 2, "rays": [[1, 0], [0, 1], [1, 2]],
               "max_cones": [[0, 1], [0, 2]]}
        path = write(tmp_path, "bad.fan", bad)
        code, out, _ = run(capsys, "fan", "check", path)
        assert code == 1
        assert "Assumption 2.2.2" in out

    def test_ray_in_no_maximal_cone(self, tmp_path, capsys):
        # (1,1) lies in no maximal cone, yet the divisor polytope would read
        # its inequality: every command refuses the fan
        fan = dict(P2, rays=P2["rays"] + [[1, 1]])
        path = write(tmp_path, "stray.fan", fan)
        div = write(tmp_path, "d.div", {"coefficients": {"2": 1, "3": -1}})
        code, out, _ = run(capsys, "fan", "check", path)
        assert code == 1
        assert "FAIL [§2.2 (fan)] input: ray 3 = [1, 1] lies in no maximal cone" in out
        code, out, _ = run(capsys, "section", "list", path, "--divisor", div)
        assert code == 1 and "points" not in out

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.fan"
        path.write_text("{not json")
        code, _, err = run(capsys, "fan", "check", str(path))
        assert code == 2
        assert "line" in err

    def test_emitted_fan_reparses_identically(self, tmp_path, capsys):
        path = write(tmp_path, "p2.fan", P2)
        out_path = str(tmp_path / "emitted.fan")
        code, _, _ = run(capsys, "fan", "check", path, "--out", out_path)
        assert code == 0
        emitted = load_json(out_path)
        code, _, _ = run(capsys, "fan", "check", out_path, "--out",
                         str(tmp_path / "second.fan"))
        assert code == 0
        assert load_json(str(tmp_path / "second.fan")) == emitted

    @pytest.mark.parametrize("pair", [[[1], [0]], [[0], [7]], [[0], [0]]],
                             ids=["reversed", "not-maximal", "repeated-cone"])
    def test_unread_certificate_refused(self, tmp_path, pair):
        # validate_fan reads a certificate only under an earlier and a later
        # maximal cone; [1] > 0 > [0] would separate P^1's cones the wrong way
        fan = {"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]],
               "certificates": [{"pair": pair, "functional": [1]}]}
        path = write(tmp_path, "p1.fan", fan)
        out_path = tmp_path / "out.fan"
        code, out, err = run_process("fan", "check", path, "--out", str(out_path))
        assert code == 2 and out == ""
        assert "Traceback" not in err and f"pair {pair} is not" in err
        assert not out_path.exists()


class TestSystem:
    def test_build_and_check(self, tmp_path, capsys):
        path = write(tmp_path, "p2.fan", P2)
        sys_path = str(tmp_path / "p2.sys")
        code, out, _ = run(capsys, "system", "build", path, "--out", sys_path)
        assert code == 0
        code, out, _ = run(capsys, "system", "check", sys_path)
        assert code == 0

    def test_check_fan_file(self, tmp_path, capsys):
        path = write(tmp_path, "p2.fan", P2)
        code, _, _ = run(capsys, "system", "check", path)
        assert code == 0

    def test_fan_by_path_reference(self, tmp_path, capsys):
        write(tmp_path, "p2.fan", P2)
        recipe_path = write(tmp_path, "sys.json", {"fan": "p2.fan"})
        code, _, _ = run(capsys, "system", "check", recipe_path)
        assert code == 0

    @pytest.mark.parametrize("name, keys, fan, argv", [
        ("sheaf.json", ["system"], "p2.fan", ["sheaf", "check"]),
        ("s2.json", ["sheaf", "system"], "p2.fan", ["section", "check"]),
        ("sub.json", ["system"], "p2.fan",
         ["subscheme", "member", "--cone", "0,1", "--element", "z2 z1"]),
        ("mor.json", ["system"], "cone.fan", ["morphism", "check"]),
    ], ids=["sheaf", "section", "subscheme", "morphism"])
    def test_nested_fan_path_is_relative_to_its_file(self, tmp_path, monkeypatch, capsys,
                                                     name, keys, fan, argv):
        # a fan named inside an artifact is read beside the artifact, not in
        # the working directory, as a system file's own fan is
        artifact_dir = tmp_path / "d"
        artifact_dir.mkdir()
        monkeypatch.chdir(artifact_dir)
        artifacts(capsys, artifact_dir)
        obj = load_json(name)
        system = obj
        for key in keys:
            system = system[key]
        system["fan"] = fan
        write(artifact_dir, name, obj)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv[:2], f"d/{name}", *argv[2:])
        assert (code, err) == (0, "") and "status: pass" in out

    def test_bad_word_literal_in_lifts(self, tmp_path, capsys):
        recipe = {"fan": P2,
                  "lifts": [{"cone": [0, 1], "generator": [1, 0], "word": "z1 z3"}]}
        path = write(tmp_path, "sys.json", recipe)
        code, _, err = run(capsys, "system", "check", path)
        assert code == 2
        assert "3" in err

    @pytest.mark.parametrize("cone, named", [
        ([0], "cone [0], which is not maximal"),
        ([0, 1], "generator [5, 7] is not a dual generator of cone [0, 1]"),
    ], ids=["ray", "maximal"])
    def test_unread_lift_refused(self, tmp_path, cone, named):
        # build_system reads lifts only at a maximal cone and one of its dual
        # generators; any other lift would be written back without effect
        recipe = {"fan": P2,
                  "lifts": [{"cone": cone, "generator": [5, 7], "word": "z1 z1 z2"}]}
        path = write(tmp_path, "sys.json", recipe)
        out_path = tmp_path / "out.sys"
        code, out, err = run_process("system", "build", path, "--out", str(out_path))
        assert code == 2 and out == ""
        assert "Traceback" not in err and named in err and "[5, 7]" in err
        assert not out_path.exists()

    def test_soften_round_trip(self, tmp_path, capsys):
        fan_path = write(tmp_path, "p2.fan", P2)
        extras = [{"cone": [0], "words": ["z1 z2^2"]}]
        extras_path = write(tmp_path, "extras.json", extras)
        out_path = str(tmp_path / "softened.sys")
        code, out, _ = run(capsys, "system", "soften", fan_path,
                           "--extras", extras_path, "--out", out_path)
        assert code == 0
        assert "added" in out
        code, _, _ = run(capsys, "system", "check", out_path)
        assert code == 0
        obj = load_json(out_path)
        assert obj["extras"][0][0]["words"] == ["z1 z2^2"]

    def test_augment_adds_one_stage(self, tmp_path, capsys):
        # each augmentation appends its extras to the written recipe as a stage
        stages = [[{"cone": [0], "words": ["z1 z2 z1^-1"]}],
                  [{"cone": [], "words": ["z1 z2 z1^-1 z2^-1"]}]]
        paths = [write(tmp_path, "p2.fan", P2), str(tmp_path / "a1.sys"),
                 str(tmp_path / "a2.sys")]
        for k, stage in enumerate(stages):
            extras_path = write(tmp_path, f"extras{k}.json", stage)
            code, out, _ = run(capsys, "system", "augment", paths[k],
                               "--extras", extras_path, "--out", paths[k + 1])
            assert code == 0 and "added" not in out
            assert load_json(paths[k + 1])["extras"] == stages[:k + 1]

    def test_augment_deeper_than_the_recursion_limit(self, tmp_path):
        # 1,100 distinct words z1^a z2^b on the one cone: the chart's monoid
        # search keeps a coefficient per word, and no recursion
        words = [" ".join(f"z{k}^{e}" for k, e in ((1, a), (2, s - a)) if e)
                 for s in range(1, 47) for a in range(s + 1)][:1100]
        fan_path = write(tmp_path, "cone.fan", CONE_FAN)
        extras_path = write(tmp_path, "extras.json", [{"cone": [0, 1], "words": words}])
        code, out, err = run_process("system", "augment", fan_path, "--extras", extras_path)
        assert code == 0 and "status: pass" in out
        assert "Traceback" not in err


class TestSheafAndSections:
    @pytest.fixture
    def setup(self, tmp_path):
        fan_path = write(tmp_path, "p2.fan", P2)
        div_path = write(tmp_path, "o1.div", {"coefficients": {"2": 1}})
        return tmp_path, fan_path, div_path

    def test_pipeline(self, setup, capsys):
        tmp_path, fan_path, div_path = setup
        sheaf_path = str(tmp_path / "sheaf.json")
        code, _, _ = run(capsys, "sheaf", "from-divisor", fan_path,
                         "--divisor", div_path, "--out", sheaf_path)
        assert code == 0
        code, out, _ = run(capsys, "sheaf", "check", sheaf_path)
        assert code == 0
        # round trip: emitted sheaf re-parses to an equal object
        first = load_json(sheaf_path)
        sec_path = str(tmp_path / "sec.json")
        code, _, _ = run(capsys, "section", "extend", sheaf_path,
                         "--divisor", div_path, "--point", "1,0",
                         "--out", sec_path)
        assert code == 0
        code, _, _ = run(capsys, "section", "check", sec_path)
        assert code == 0

    def test_point_with_negative_first_coordinate(self, tmp_path, monkeypatch, capsys):
        # argparse reads a spaced "-1,0,0" as an option; the --point= form works
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "p3.fan", {"rank": 3,
                                   "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
                                   "max_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]})
        write(tmp_path, "d.div", {"coefficients": {"0": 1, "3": 1}})
        code, _, _ = run(capsys, "sheaf", "from-divisor", "p3.fan", "--divisor", "d.div",
                         "--out", "sheaf.json")
        assert code == 0
        code, _, err = run_process("section", "extend", "sheaf.json", "--divisor", "d.div",
                                   "--point", "-1,0,0", "--out", "spaced.json")
        assert code == 2 and "expected one argument" in err
        code, _, _ = run(capsys, "section", "extend", "sheaf.json", "--divisor", "d.div",
                         "--point=-1,0,0", "--out", "s.json")
        assert code == 0
        code, out, _ = run(capsys, "section", "check", "s.json")
        assert code == 0 and "status: pass" in out

    def test_section_list(self, setup, capsys):
        _, fan_path, div_path = setup
        code, out, _ = run(capsys, "section", "list", fan_path,
                           "--divisor", div_path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload["points"]) == [[0, 0], [0, 1], [1, 0]]

    def test_scalar_tamper_detected(self, setup, capsys):
        tmp_path, fan_path, div_path = setup
        sheaf_path = str(tmp_path / "sheaf.json")
        run(capsys, "sheaf", "from-divisor", fan_path, "--divisor", div_path,
            "--out", sheaf_path)
        obj = load_json(sheaf_path)
        obj["gluing"][0]["scalar"] = "2"
        bad_path = write(tmp_path, "bad_sheaf.json", obj)
        code, out, _ = run(capsys, "sheaf", "check", bad_path)
        assert code == 1
        assert "Lemma 3.4" in out

    def test_section_tamper_detected(self, setup, capsys):
        tmp_path, fan_path, div_path = setup
        sheaf_path = str(tmp_path / "sheaf.json")
        run(capsys, "sheaf", "from-divisor", fan_path, "--divisor", div_path,
            "--out", sheaf_path)
        sec_path = str(tmp_path / "sec.json")
        run(capsys, "section", "extend", sheaf_path, "--divisor", div_path,
            "--point", "1,0", "--out", sec_path)
        obj = load_json(sec_path)
        for item in obj["locals"]:
            if item["cone"] == [0]:
                item["element"] = item["element"] + " + 1"
        bad_path = write(tmp_path, "bad_sec.json", obj)
        code, out, _ = run(capsys, "section", "check", bad_path)
        assert code == 1
        assert "Def 3.6" in out

    @pytest.fixture
    def sections(self, setup, capsys):
        """s1.json and s2.json of the README walkthrough."""
        tmp_path, fan_path, div_path = setup
        sheaf_path = str(tmp_path / "sheaf.json")
        sec1, sec2 = str(tmp_path / "s1.json"), str(tmp_path / "s2.json")
        for argv in (["sheaf", "from-divisor", fan_path, "--divisor", div_path,
                      "--out", sheaf_path],
                     ["section", "extend", sheaf_path, "--divisor", div_path,
                      "--point", "1,0", "--out", sec1],
                     ["section", "extend", sec1, "--divisor", div_path,
                      "--point", "0,1", "--out", sec2]):
            assert run(capsys, *argv)[0] == 0
        return sec1, sec2

    @staticmethod
    def failures(out):
        return [(f["clause"], f["locus"], f["detail"])
                for f in json.loads(out)["findings"] if not f["ok"]]

    def test_subscheme_member(self, tmp_path, sections, capsys):
        sub_path = str(tmp_path / "sub.json")
        code, _, _ = run(capsys, "subscheme", "build", *sections, "--out", sub_path)
        assert code == 0
        code, out, _ = run(capsys, "subscheme", "member", sub_path,
                           "--cone", "0,1", "--element", "z2 z1", "--bound", "4")
        assert code == 0
        # z2^-2 needs multiplier room: unreachable at bound 3, found at 5
        code, out, _ = run(capsys, "subscheme", "member", sub_path,
                           "--cone", "0,1", "--element", "z2^-2",
                           "--bound", "3", "--json")
        report = json.loads(out)
        assert code == 1 and report["status"] == "bound-relative"
        assert report["findings"] == [{
            "clause": "Def 3.9", "locus": "cone [0, 1]", "ok": False, "bound_relative": True,
            "detail": "no certificate at bound 3 (not a proof of non-membership)"}]
        code, out, _ = run(capsys, "subscheme", "member", sub_path,
                           "--cone", "0,1", "--element", "z2^-2", "--bound", "5")
        assert code == 0

    def test_subscheme_member_saturates_no_chart(self, setup, capsys, saturations):
        # ideal membership reads chart generators, never chart membership
        tmp_path, fan_path, div_path = setup
        sheaf_path = str(tmp_path / "sheaf.json")
        sec_path = str(tmp_path / "sec.json")
        sub_path = str(tmp_path / "sub.json")
        for argv in (["sheaf", "from-divisor", fan_path, "--divisor", div_path,
                      "--out", sheaf_path],
                     ["section", "extend", sheaf_path, "--divisor", div_path,
                      "--point", "1,0", "--out", sec_path],
                     ["subscheme", "build", sec_path, "--out", sub_path]):
            assert run(capsys, *argv)[0] == 0
        saturations.clear()
        code = run(capsys, "subscheme", "member", sub_path,
                   "--cone", "0,1", "--element", "z1", "--bound", "2")[0]
        assert code == 0 and saturations == []

    @staticmethod
    def cubic_chain(tmp_path, monkeypatch, capsys, steps):
        """s0 to s<steps> of the O(3) chain on P^2 with its maximal cones in
        lexicographic order, extended in listed order, in tmp_path, the
        working directory; returns the listed points."""
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "p2.fan", dict(P2, max_cones=[[0, 1], [0, 2], [1, 2]]))
        write(tmp_path, "o3.div", {"coefficients": {"2": 3}})
        assert run(capsys, "sheaf", "from-divisor", "p2.fan", "--divisor", "o3.div",
                   "--out", "s0.json")[0] == 0
        code, out, _ = run(capsys, "section", "list", "p2.fan", "--divisor", "o3.div",
                           "--json")
        assert code == 0
        points = json.loads(out)["points"]
        for k, point in enumerate(points[:steps], 1):
            assert run(capsys, "section", "extend", f"s{k - 1}.json", "--divisor", "o3.div",
                       "--point", ",".join(map(str, point)), "--out", f"s{k}.json")[0] == 0
        return points

    def test_cubic_section_check_saturation_states(self, tmp_path, monkeypatch, capsys,
                                                    saturations):
        # checking s3 saturates four charts, whose automata leave out the
        # generators that one-letter generators spell and fold their unit
        # edges
        self.cubic_chain(tmp_path, monkeypatch, capsys, 3)
        saturations.clear()
        assert run(capsys, "section", "check", "s3.json")[0] == 0
        assert len(saturations) == 4 and sum(saturations) == 16

    def test_extend_without_new_units_saturates_each_chart_once(
            self, tmp_path, monkeypatch, capsys, saturations):
        # the twisting factors of s5 -> s6 are already units, so softening
        # adds nothing and keeps the charts it has saturated; rebuilding
        # them saturated each of the four charts twice
        point = self.cubic_chain(tmp_path, monkeypatch, capsys, 5)[5]
        saturations.clear()
        assert run(capsys, "section", "extend", "s5.json", "--divisor", "o3.div",
                   "--point", ",".join(map(str, point)), "--out", "s6.json")[0] == 0
        assert saturations == [1, 2, 8, 6]

    def test_extend_with_new_units_saturates_only_the_charts_that_grow(
            self, tmp_path, monkeypatch, capsys, saturations):
        # s3 -> s4 softens new units into the charts of [] and [1] alone:
        # extending saturates four charts of s3, then only those two again;
        # the charts of [0] and [2] gain no word and stay saturated
        point = self.cubic_chain(tmp_path, monkeypatch, capsys, 3)[3]
        saturations.clear()
        assert run(capsys, "section", "extend", "s3.json", "--divisor", "o3.div",
                   "--point", ",".join(map(str, point)), "--out", "s4.json")[0] == 0
        assert saturations == [1, 6, 1, 8, 1, 6]

    @pytest.mark.parametrize("edit, loci, detail", [
        (lambda obj: obj["locals"].remove({"cone": [0, 1], "element": "z1"}),
         ["[0, 1] > []", "[0, 1] > [0]", "[0, 1] > [1]"], "missing local presentation"),
        (lambda obj: obj["locals"][1].update(element="0"),
         ["[0] > []", "[0, 1] > [0]", "[0, 2] > [0]"], "exactly one side vanishes"),
        (lambda obj: obj["sheaf"]["gluing"].pop(2),
         ["[0, 1] > [0]"], "incidence pair missing from gluing data"),
    ], ids=["local-deleted", "local-zero", "gluing-entry-deleted"])
    def test_section_check_failures(self, tmp_path, sections, capsys, edit, loci, detail):
        # hand-edited copies of s1.json; the zero local is the one on [0]
        obj = load_json(sections[0])
        assert obj["locals"][1]["cone"] == [0] and obj["sheaf"]["gluing"][2] == {
            "upper": [0, 1], "lower": [0], "scalar": "1", "word": "e"}
        edit(obj)
        bad = write(tmp_path, "bad.json", obj)
        code, out, _ = run(capsys, "section", "check", bad, "--json")
        assert code == 1
        assert self.failures(out) == [("Def 3.6", locus, detail) for locus in loci]

    def test_all_zero_section_passes(self, tmp_path, sections, capsys):
        obj = load_json(sections[0])
        for item in obj["locals"]:
            item["element"] = "0"
        zero = write(tmp_path, "zero.json", obj)
        code, out, _ = run(capsys, "section", "check", zero, "--json")
        findings = json.loads(out)["findings"]
        assert code == 0 and len(findings) == 12
        assert {(f["ok"], f["detail"]) for f in findings} == {(True, "both sides vanish")}

    def test_sheaf_check_missing_gluing_entry(self, tmp_path, sections, capsys):
        sheaf = load_json(sections[0])["sheaf"]
        sheaf["gluing"].pop(2)
        bad = write(tmp_path, "bad_sheaf.json", sheaf)
        code, out, _ = run(capsys, "sheaf", "check", bad, "--json")
        assert code == 1 and self.failures(out) == [
            ("Lemma 3.4(i)", "[0, 1] > [0]", "incidence pair missing from gluing data")]

    def test_subscheme_build_checks_every_section(self, sections, capsys):
        # each input's Def 3.6 findings name its file; the Def 3.9 finding,
        # which the cubic-sections benchmark reads, stays last
        sec1, sec2 = sections
        code, out, _ = run(capsys, "subscheme", "build", sec1, sec2, "--json")
        findings = json.loads(out)["findings"]
        assert code == 0 and len(findings) == 25 and all(f["ok"] for f in findings)
        assert [f["locus"].split(": ")[0] for f in findings[:-1]] == [sec1] * 12 + [sec2] * 12
        assert [f["clause"] for f in findings[:-1]] == ["Def 3.6"] * 24
        assert (findings[-1]["clause"], findings[-1]["detail"]) == (
            "Def 3.9", "2 sections over 7 cones")

    def test_subscheme_build_refuses_a_non_section(self, tmp_path, sections, capsys):
        # z1 + z2 is no unit multiple of the other charts' presentations
        sec1, sec2 = sections
        obj = load_json(sec1)
        for item in obj["locals"]:
            if item["cone"] == [0, 1]:
                item["element"] = "z1 + z2"
        bad = write(tmp_path, "bad.json", obj)
        sub_path = str(tmp_path / "sub.json")
        code, out, _ = run(capsys, "subscheme", "build", bad, sec2, "--out", sub_path, "--json")
        assert code == 1 and not os.path.exists(sub_path)
        assert self.failures(out) == [
            ("Def 3.6", f"{bad}: [0, 1] > {lower}", "no verifying unit among monomial quotients")
            for lower in ("[]", "[0]", "[1]")]

    @staticmethod
    def sections_on_two_fans(tmp_path, capsys):
        """x2.json and x3.json: the section at point 1,0 of O(D_2) on the
        fans with rays (1,0), (0,1) and (-1,k), for k = 2 and 3."""
        div_path = write(tmp_path, "o1.div", {"coefficients": {"2": 1}})
        paths = []
        for k in (2, 3):
            fan_path = write(tmp_path, f"f{k}.fan", {"rank": 2, "rays": [[1, 0], [0, 1], [-1, k]],
                                                     "max_cones": [[0, 1], [1, 2]]})
            sheaf_path, sec_path = str(tmp_path / f"h{k}.json"), str(tmp_path / f"x{k}.json")
            for argv in (["sheaf", "from-divisor", fan_path, "--divisor", div_path,
                          "--out", sheaf_path],
                         ["section", "extend", sheaf_path, "--divisor", div_path,
                          "--point", "1,0", "--out", sec_path]):
                assert run(capsys, *argv)[0] == 0
            paths.append(sec_path)
        return paths

    def test_subscheme_build_refuses_sections_on_different_fans(self, tmp_path, capsys):
        paths = self.sections_on_two_fans(tmp_path, capsys)
        sub_path = str(tmp_path / "sub.json")
        code, out, _ = run(capsys, "subscheme", "build", *paths, "--out", sub_path, "--json")
        [(clause, _, detail)] = self.failures(out)
        assert code == 1 and not os.path.exists(sub_path)
        assert clause == "Def 3.9" and "fan differs from the fan of section" in detail

    def test_subscheme_build_checks_def_3_6_before_comparing_fans(self, tmp_path, capsys):
        # every file passes its own Def 3.6 check before the library reads
        # the sections together, so a non-section on another fan is refused
        # for its Def 3.6 failures
        paths = self.sections_on_two_fans(tmp_path, capsys)
        obj = load_json(paths[1])
        for item in obj["locals"]:
            if item["cone"] == [0, 1]:
                item["element"] = "z1 + z2"
        write(tmp_path, "x3.json", obj)
        sub_path = str(tmp_path / "sub.json")
        code, out, _ = run(capsys, "subscheme", "build", *paths, "--out", sub_path, "--json")
        assert code == 1 and not os.path.exists(sub_path)
        assert self.failures(out) == [
            ("Def 3.6", f"{paths[1]}: [0, 1] > {lower}",
             "no verifying unit among monomial quotients")
            for lower in ("[]", "[0]", "[1]")]

    def test_subscheme_build_refuses_a_word_outside_the_carrier(self, tmp_path, monkeypatch,
                                                                capsys):
        # a.json, an O(1) section, has the maximal chart <z2 z1 z2^-1, z2> on
        # [0, 1]. b5.json, the fifth section of an O(3) chain on plain P^2,
        # has more chart generators and so carries the build, but its
        # maximal chart <z1, z2> on [0, 1] does not hold z2 z1 z2^-1
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "p2.fan", P2)
        write(tmp_path, "o1.div", {"coefficients": {"2": 1}})
        write(tmp_path, "o3.div", {"coefficients": {"2": 3}})
        write(tmp_path, "sys.json", {"fan": "p2.fan", "lifts": [
            {"cone": [0, 1], "generator": [1, 0], "word": "z2 z1 z2^-1"}]})
        argvs = [["sheaf", "from-divisor", "sys.json", "--divisor", "o1.div", "--out", "h.json"],
                 ["section", "extend", "h.json", "--divisor", "o1.div", "--point", "1,0",
                  "--out", "a.json"],
                 ["sheaf", "from-divisor", "p2.fan", "--divisor", "o3.div", "--out", "b0.json"]]
        argvs += [["section", "extend", f"b{k}.json", "--divisor", "o3.div", "--point", point,
                   "--out", f"b{k + 1}.json"]
                  for k, point in enumerate(["0,0", "0,1", "0,2", "0,3", "1,0"])]
        for argv in argvs:
            assert run(capsys, *argv)[0] == 0
        code, out, _ = run(capsys, "subscheme", "build", "a.json", "b5.json", "--out", "sub.json")
        assert code == 1 and not os.path.exists("sub.json")
        assert out == ("status: fail\n  FAIL [Def 3.9] input: section a.json: word z2 z1 z2^-1 "
                       "is not in the carrier chart of cone [0, 1]\n")

    def test_library_reads_sections_from_separate_files(self, tmp_path, sections, capsys):
        # sections read from two files share no system object; the library
        # reads both on the system of the larger, as `subscheme build` does
        loaded = [serialize.load(path, serialize.section_from_obj) for path in sections]
        divisor = (0, 0, 1)
        s1 = extend_section(sheaf_from_divisor(deltasystem.build_system(loaded[0].system.fan),
                                               divisor), divisor, (1, 0))
        s2 = extend_section(s1.gluing, divisor, (0, 1))
        combined = combine_sections([ONE, I], loaded)
        assert combined.gluing is loaded[1].gluing
        for cone in s1.system.fan.faces:
            assert combined.locals[cone] == s1.locals[cone] + s2.locals[cone].scale(I)
        system, charts = subscheme_from_sections(loaded)
        sub_path = str(tmp_path / "sub.json")
        assert run(capsys, "subscheme", "build", *sections, "--out", sub_path)[0] == 0
        assert serialize.subscheme_to_obj(system, charts) == load_json(sub_path)

    def test_member_target_longer_than_bound(self, tmp_path, capsys):
        # at bound 3 the search cannot even hold the length-4 target, which
        # is undecided there, not refuted; bound 4 certifies it
        sub = write(tmp_path, "sub.json", {"system": {"fan": CONE_FAN}, "charts": [
            {"cone": [0, 1], "generators": ["z1 z2 - z2 z1"]}]})
        target = "z1 z2 z1 z2 - z2 z1 z1 z2"
        code, out, _ = run(capsys, "subscheme", "member", sub, "--cone", "0,1",
                           "--element", target, "--bound", "3", "--json")
        report = json.loads(out)
        assert code == 1 and report["status"] == "bound-relative"
        assert "length 4 > bound 3" in report["findings"][0]["detail"]
        code, out, _ = run(capsys, "subscheme", "member", sub, "--cone", "0,1",
                           "--element", target, "--bound", "4")
        assert code == 0 and "(1) * [e] * g0 * [z1 z2]" in out


def sample_p1_identity(tmp_path):
    """Write p1.fan and pat.json, the identity on every cone of P^1, sample
    mor.json at r=2 and seed 1 in tmp_path, the working directory, and
    return it as JSON."""
    write(tmp_path, "p1.fan", {"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]})
    identity = ["1", "0", "0", "1"]
    write(tmp_path, "pat.json", {"idempotents": [
        {"cone": c, "matrix": identity} for c in ([], [0], [1])]})
    assert run_process("morphism", "sample", "p1.fan", "--r", "2", "--pattern",
                       "pat.json", "--seed", "1", "--out", "mor.json")[0] == 0
    return load_json(str(tmp_path / "mor.json"))


class TestMorphismCli:
    def test_sample_check_surrogate_kernel(self, tmp_path, capsys):
        fan_path = write(tmp_path, "cone.fan",
                         {"rank": 2, "rays": [[1, 0], [0, 1]],
                          "max_cones": [[0, 1]]})
        mor_path = str(tmp_path / "mor.json")
        code, _, _ = run(capsys, "morphism", "sample", fan_path, "--r", "2",
                         "--pattern", "trivial", "--seed", "9",
                         "--out", mor_path)
        assert code == 0
        code, _, _ = run(capsys, "morphism", "check", mor_path)
        assert code == 0
        code, out, _ = run(capsys, "morphism", "surrogate", mor_path, "--json")
        assert code == 0
        code, out, _ = run(capsys, "morphism", "kernel", mor_path,
                           "--cone", "", "--bound", "2")
        assert code == 0

    def test_pattern_file_sampling(self, tmp_path, capsys):
        fan_path = write(tmp_path, "p1.fan",
                         {"rank": 1, "rays": [[1], [-1]],
                          "max_cones": [[0], [1]]})
        pattern = {"idempotents": [
            {"cone": [0], "matrix": ["1", "0", "0", "0"]},
            {"cone": [1], "matrix": ["0", "0", "0", "1"]},
            {"cone": [], "matrix": ["0", "0", "0", "0"]},
        ]}
        pat_path = write(tmp_path, "pattern.json", pattern)
        mor_path = str(tmp_path / "mor.json")
        code, _, _ = run(capsys, "morphism", "sample", fan_path, "--r", "2",
                         "--pattern", pat_path, "--seed", "1", "--out", mor_path)
        assert code == 0
        code, _, _ = run(capsys, "morphism", "check", mor_path)
        assert code == 0

    def test_sheaf_isom(self, tmp_path, capsys):
        fan_path = write(tmp_path, "p2.fan", P2)
        div_path = write(tmp_path, "o1.div", {"coefficients": {"2": 1}})
        sheaf_path = str(tmp_path / "sheaf.json")
        run(capsys, "sheaf", "from-divisor", fan_path, "--divisor", div_path,
            "--out", sheaf_path)
        cones = [[], [0], [1], [2], [0, 1], [0, 2], [1, 2]]
        cand = [{"cone": c, "scalar": "1", "word": "e"} for c in cones]
        cand_path = write(tmp_path, "cand.json", cand)
        code, _, _ = run(capsys, "sheaf", "isom", sheaf_path, sheaf_path,
                         "--candidate", cand_path)
        assert code == 0
        div2_path = write(tmp_path, "o2.div", {"coefficients": {"2": 2}})
        sheaf2_path = str(tmp_path / "sheaf2.json")
        run(capsys, "sheaf", "from-divisor", fan_path, "--divisor", div2_path,
            "--out", sheaf2_path)
        code, out, _ = run(capsys, "sheaf", "isom", sheaf_path, sheaf2_path,
                           "--candidate", cand_path)
        assert code == 1
        assert "Lemma 3.4" in out

    def test_sheaf_isom_refuses_sheaves_on_different_fans(self, tmp_path, capsys):
        # the zero-divisor sheaves on F_0 and F_1 have the same cones and
        # incidences, so only the fans tell them apart
        cones = [[0, 1], [1, 2], [2, 3], [0, 3]]
        div_path = write(tmp_path, "zero.div", {"coefficients": {}})
        sheaves = []
        for name, ray2 in (("f0", [-1, 0]), ("f1", [-1, 1])):
            fan_path = write(tmp_path, f"{name}.fan", {
                "rank": 2, "rays": [[1, 0], [0, 1], ray2, [0, -1]], "max_cones": cones})
            sheaves.append(str(tmp_path / f"{name}.sheaf.json"))
            assert run(capsys, "sheaf", "from-divisor", fan_path, "--divisor", div_path,
                       "--out", sheaves[-1])[0] == 0
        faces = [[], [0], [1], [2], [3]] + cones
        cand_path = write(tmp_path, "cand.json",
                          [{"cone": c, "scalar": "1", "word": "e"} for c in faces])
        assert run(capsys, "sheaf", "isom", sheaves[0], sheaves[0],
                   "--candidate", cand_path)[0] == 0
        code, out, _ = run(capsys, "sheaf", "isom", sheaves[0], sheaves[1],
                           "--candidate", cand_path, "--json")
        assert code == 1
        finding, = json.loads(out)["findings"]
        assert finding["clause"] == "Lemma 3.4 (isomorphism)"
        assert "different fans" in finding["detail"]

    def test_idempotent_tamper_detected(self, tmp_path, capsys):
        fan_path = write(tmp_path, "cone.fan",
                         {"rank": 2, "rays": [[1, 0], [0, 1]],
                          "max_cones": [[0, 1]]})
        mor_path = str(tmp_path / "mor.json")
        run(capsys, "morphism", "sample", fan_path, "--r", "2",
            "--pattern", "trivial", "--seed", "2", "--out", mor_path)
        obj = load_json(mor_path)
        for chart in obj["charts"]:
            if chart["cone"] == [0]:
                chart["e"] = ["1", "0", "0", "1"]
        bad_path = write(tmp_path, "bad_mor.json", obj)
        code, out, _ = run(capsys, "morphism", "check", bad_path)
        assert code == 1
        assert "Def 4.2" in out

    def test_unit_image_without_corner_inverse(self, tmp_path, monkeypatch):
        # identity on every cone of P^1, so z1 is a unit with a nonzero
        # corner on the zero cone; a singular image there has no inverse
        monkeypatch.chdir(tmp_path)
        obj = sample_p1_identity(tmp_path)
        zero_cone = next(c for c in obj["charts"] if c["cone"] == [])
        next(im for im in zero_cone["images"] if im["word"] == "z1")["matrix"] = [
            "1", "0", "0", "0"]
        write(tmp_path, "bad.json", obj)
        code, out, err = run_process("morphism", "check", "bad.json")
        assert code == 1 and "Traceback" not in err
        assert "Def 4.2.1" in out and "corner inverse of z1" in out

    def test_image_of_a_non_generator_refused(self, tmp_path, monkeypatch):
        # the zero cone of P^1 is never an upper cone, so only the chart's
        # own check sees an image of z1^2, which is not one of its generators
        monkeypatch.chdir(tmp_path)
        obj = sample_p1_identity(tmp_path)
        zero_cone = next(c for c in obj["charts"] if c["cone"] == [])
        zero_cone["images"].append({"word": "z1^2", "matrix": ["0", "1", "0", "0"]})
        write(tmp_path, "bad.json", obj)
        line = ("FAIL [Def 4.2.9(i)] cone []: image of z1^2, "
                "which is not a generator of the chart")
        for verb in ("check", "surrogate"):
            code, out, err = run_process("morphism", verb, "bad.json")
            assert code == 1 and "Traceback" not in err
            assert line in out

    def test_missing_image_of_a_generator_fails(self, tmp_path, monkeypatch):
        # a one-cone r=2 morphism without the image of z1 on [0, 1]; no
        # other finding notices the missing image
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "cone.fan", CONE_FAN)
        assert run_process("morphism", "sample", "cone.fan", "--r", "2", "--seed", "1",
                           "--out", "mor.json")[0] == 0
        obj = load_json(str(tmp_path / "mor.json"))
        chart = next(c for c in obj["charts"] if c["cone"] == [0, 1])
        chart["images"] = [im for im in chart["images"] if im["word"] != "z1"]
        write(tmp_path, "bad.json", obj)
        code, out, err = run_process("morphism", "check", "bad.json", "--json")
        assert code == 1 and err == ""
        failures = [f for f in json.loads(out)["findings"] if not f["ok"]]
        assert failures == [{"clause": "Def 4.2.9(i)", "locus": "cone [0, 1]", "ok": False,
                             "detail": "no image for generator z1"}]

    def test_missing_chart_fails_without_classifying(self, tmp_path, monkeypatch):
        # the idempotent family is classified only when every face has a
        # chart, so the one failure names the missing chart
        monkeypatch.chdir(tmp_path)
        obj = sample_p1_identity(tmp_path)
        obj["charts"] = [c for c in obj["charts"] if c["cone"] != [0]]
        write(tmp_path, "missing.json", obj)
        code, out, err = run_process("morphism", "check", "missing.json", "--json")
        assert code == 1 and err == ""
        failures = [f for f in json.loads(out)["findings"] if not f["ok"]]
        assert failures == [{"clause": "Def 4.2.9(i)", "locus": "cone [0]", "ok": False,
                             "detail": "chart missing"}]

    def test_cone_zero_names_ray_zero(self, tmp_path, monkeypatch):
        # "" and "()" name the zero cone, whose chart has a kernel generator
        # at bound 1; "0" names the ray [0], whose chart has none; the locus
        # is the parsed cone
        monkeypatch.chdir(tmp_path)
        sample_p1_identity(tmp_path)
        for text, locus, count in (("", "cone []", 1), ("()", "cone []", 1),
                                   ("0", "cone [0]", 0), ("1", "cone [1]", 0)):
            code, out, _ = run_process("morphism", "kernel", "mor.json", "--cone", text,
                                       "--bound", "1", "--json")
            assert code == 0
            finding = json.loads(out)["findings"][-1]
            assert finding["locus"] == locus
            assert finding["detail"] == f"{count} kernel generators at bound 1"
        write(tmp_path, "cone.fan", CONE_FAN)
        run_process("morphism", "sample", "cone.fan", "--r", "2", "--seed", "1",
                    "--out", "cone.json")
        code, out, _ = run_process("morphism", "kernel", "cone.json", "--cone", "1,0",
                                   "--bound", "1", "--verbose")
        assert code == 0 and "ok  [Def 4.2.13] cone [0, 1]: " in out

    def test_recorded_witnesses_are_not_read(self, tmp_path, monkeypatch):
        # files written before witnesses were dropped list each unit
        # generator's corner inverse; they load and report as without them
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "cone.fan", CONE_FAN)
        run_process("morphism", "sample", "cone.fan", "--r", "2", "--seed", "5",
                    "--out", "mor.json")
        obj = load_json(str(tmp_path / "mor.json"))
        assert all("witnesses" not in c for c in obj["charts"])
        morphism = serialize.morphism_from_obj(obj)
        for item in obj["charts"]:
            chart = morphism.charts[tuple(item["cone"])]
            sub = morphism.system.charts[chart.cone]
            item["witnesses"] = [
                {"word": format_word(g), "matrix": serialize.matrix_to_entries(
                    solve_corner_inverse(chart.identity_image, a))}
                for g, a in chart.images.items() if is_unit_in(sub, g)]
        assert any(c["witnesses"] for c in obj["charts"])
        write(tmp_path, "old.json", obj)
        for argv in (["check"], ["surrogate"], ["kernel", "--cone", "", "--bound", "2"]):
            for flags in ([], ["--json", "--verbose"]):
                new = run_process("morphism", argv[0], "mor.json", *argv[1:], *flags)
                old = run_process("morphism", argv[0], "old.json", *argv[1:], *flags)
                assert new[0] == 0 and old == new

    def test_f10_relation_tamper_fails_at_the_default_bound(self, tmp_path, monkeypatch):
        # on the Hirzebruch fan F_10 the relation z1^10 z2 = z1^10 * z2 of
        # the ray [1] chart needs 11 factors, more than the default bound 4;
        # the chart's letters are its basis, so the identity is checked
        # outright and doubling the image of z1^10 z2 fails there
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "f10.fan", {"rank": 2, "rays": [[1, 0], [0, 1], [-1, 10], [0, -1]],
                                    "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]]})
        e11, e22, zero = ["1", "0", "0", "0"], ["0", "0", "0", "1"], ["0"] * 4
        pattern = {(1,): e11, (0, 1): e11, (1, 2): e11, (2, 3): e22}
        cones = [[], [0], [1], [2], [3], [0, 1], [1, 2], [2, 3], [0, 3]]
        write(tmp_path, "pat.json", {"idempotents": [
            {"cone": c, "matrix": pattern.get(tuple(c), zero)} for c in cones]})
        assert run_process("morphism", "sample", "f10.fan", "--r", "2", "--pattern",
                           "pat.json", "--seed", "0", "--out", "mor.json")[0] == 0
        assert run_process("morphism", "check", "mor.json")[0] == 0
        obj = load_json(str(tmp_path / "mor.json"))
        for chart in obj["charts"]:
            if chart["cone"] in ([1], [1, 2]):
                image = next(im for im in chart["images"] if im["word"] == "z1^10 z2")
                image["matrix"] = [format_gauss(parse_gauss(x) + parse_gauss(x))
                                   for x in image["matrix"]]
        write(tmp_path, "bad.json", obj)
        code, out, err = run_process("morphism", "check", "bad.json", "--json")
        assert code == 1 and err == ""
        assert [f for f in json.loads(out)["findings"] if not f["ok"]] == [{
            "clause": "Def 4.2.9(i)", "locus": "cone [1]", "ok": False,
            "detail": "generator relation at z1^10 z2 evaluates inconsistently"}]

    def test_bounded_relations_report_bound_relative(self, tmp_path, monkeypatch):
        # r=1 on P^2 with e = 1 exactly on the cones that contain ray 2: no
        # rule decides the relations of the ray [2] chart, whose letters are
        # not among its generators, so the search's pass names its bound;
        # the surrogate and the kernel accept the morphism
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "p2.fan", P2)
        write(tmp_path, "pat.json", {"idempotents": [
            {"cone": c, "matrix": ["1" if 2 in c else "0"]}
            for c in ([], [0], [1], [2], [0, 1], [1, 2], [0, 2])]})
        assert run_process("morphism", "sample", "p2.fan", "--r", "1", "--pattern",
                           "pat.json", "--seed", "3", "--out", "mor.json")[0] == 0
        # at bound 2 every sequence of at most two generators is multiplied
        # out, and each one past the first for its reduced word is compared
        morphism = serialize.load("mor.json", serialize.morphism_from_obj)
        groups = products_by_word(morphism.system, morphism.charts[(2,)], 2)
        compared = {"4": r"\d+", "2": str(sum(len(v) - 1 for v in groups.values()))}
        for bound in ("4", "2"):
            code, out, err = run_process("morphism", "check", "mor.json", "--bound", bound,
                                         "--json")
            report = json.loads(out)
            assert code == 1 and err == "" and report["status"] == "bound-relative"
            [finding] = [f for f in report["findings"] if f.get("bound_relative")]
            assert (finding["locus"], finding["ok"]) == ("cone [2]", True)
            assert re.fullmatch(f"generator relations hold among products of at most "
                                f"{bound} generators \\({compared[bound]} products "
                                f"compared\\)", finding["detail"])
        assert run_process("morphism", "surrogate", "mor.json")[0] == 0
        assert run_process("morphism", "kernel", "mor.json", "--cone", "2")[0] == 0

    def test_bad_matrix_entry(self, tmp_path, capsys):
        path = write(tmp_path, "probe.json",
                     {"size": 2, "entries": ["1/0", "0", "0", "1"]})
        code, _, err = run(capsys, "probe", "a1", str(path))
        assert code == 2
        assert "1/0" in err

    def test_number_matrix_entry(self, tmp_path, capsys):
        fan_path = write(tmp_path, "cone.fan",
                         {"rank": 2, "rays": [[1, 0], [0, 1]],
                          "max_cones": [[0, 1]]})
        mor_path = str(tmp_path / "mor.json")
        run(capsys, "morphism", "sample", fan_path, "--r", "2",
            "--pattern", "trivial", "--seed", "3", "--out", mor_path)
        obj = load_json(mor_path)
        obj["charts"][0]["e"][0] = 0.5
        bad_path = write(tmp_path, "bad_mor.json", obj)
        code, _, err = run_process("morphism", "check", bad_path)
        assert code == 2
        assert "Traceback" not in err and "0.5" in err

    def test_probe(self, tmp_path, capsys):
        path = write(tmp_path, "probe.json",
                     {"size": 2, "entries": ["1", "0", "0", "0"]})
        code, out, _ = run(capsys, "probe", "a1", str(path))
        assert code == 0
        assert "fiber dimension 2" in out

    def test_probe_prints_the_unresolved_factor(self, tmp_path, capsys):
        # t^2 - 2 has no root in Q(i), so the probe finds no fiber
        path = write(tmp_path, "probe.json", {"size": 2, "entries": ["0", "2", "1", "0"]})
        code, out, _ = run(capsys, "probe", "a1", str(path), "--json")
        payload = json.loads(out)
        assert code == 0 and payload["fibers"] == []
        assert payload["unresolved_factor"] == "(-2)*t^0 + (1)*t^2"

    @pytest.mark.parametrize("entries, fibers, unresolved", [
        # t^2 - a^2 for a = 1000000000+3i: the primitive norm (10^18+9)^2 is
        # a prime's square, so trial division stops before it starts
        (["0", "999999999999999991+6000000000i", "1", "0"],
         ["root -1000000000-3i: fiber dimension 2", "root 1000000000+3i: fiber dimension 2"],
         None),
        # t^2 - p for the prime p = 10^18+9 = 1 mod 4: its Gaussian primes
        # come from a square root of -1 mod p, not from a scan to sqrt(p)
        (["0", "1000000000000000009", "1", "0"], [],
         "(-1000000000000000009)*t^0 + (1)*t^2"),
        # t^2 - p q for two primes near 10^8 and 10^9: Pollard-Brent rho
        # splits the norm; trial division to the smaller prime would not end
        # within the timeout
        (["0", "20000010700001221", "1", "0"], [], "(-20000010700001221)*t^0 + (1)*t^2"),
        (["0", "1000000030000000189", "1", "0"], [],
         "(-1000000030000000189)*t^0 + (1)*t^2"),
    ], ids=["prime-square-norm", "large-split-prime", "two-primes-1e8", "two-primes-1e9"])
    def test_probe_with_a_large_prime_norm(self, tmp_path, entries, fibers, unresolved):
        # a fresh interpreter with a timeout, so a runaway search fails
        path = write(tmp_path, "probe.json", {"size": 2, "entries": entries})
        proc = subprocess.run([sys.executable, "-m", "nctoric.cli", "probe", "a1", path,
                               "--json"], capture_output=True, text=True, env=cli_env(),
                              timeout=30)
        payload = json.loads(proc.stdout)
        assert proc.returncode == 0 and payload["fibers"] == fibers
        assert payload.get("unresolved_factor") == unresolved


class TestMalformedDivisor:
    @pytest.mark.parametrize("coefficients", [{"x": 1}, {"2": 0.5}, [1, 2]])
    def test_exit_2_without_traceback(self, tmp_path, coefficients):
        fan_path = write(tmp_path, "p2.fan", P2)
        div_path = write(tmp_path, "bad.div", {"coefficients": coefficients})
        code, _, err = run_process("sheaf", "from-divisor", fan_path,
                                   "--divisor", div_path)
        assert code == 2
        assert "Traceback" not in err and "error:" in err


P2_BAD_CERT = dict(P2, certificates=[{"functional": [1, 0]}])
P2_TEXT_RANK = dict(P2, rank="two")
CONE_FAN = {"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}
# z2 abelianizes to [0, 1], not to the generator [1, 0]: only a build fails it (Thm 2.2.5)
BAD_LIFT = {"cone": [0, 1], "generator": [1, 0], "word": "z2"}


class TestMalformedInput:
    """Malformed files and arguments exit 2 with an `error:` line and no
    traceback."""

    @pytest.mark.parametrize("files, argv", [
        ({"probe.json": {"size": "x", "entries": ["1", "0", "0", "0"]}},
         ["probe", "a1", "probe.json"]),
        ({"bad.fan": P2_BAD_CERT}, ["fan", "check", "bad.fan"]),
        ({"bad.fan": P2_TEXT_RANK}, ["fan", "check", "bad.fan"]),
        ({"p2.fan": P2, "sys.json": {"fan": "p2.fan", "lifts": [{"cone": [0, 1],
                                                                  "word": "z1"}]}},
         ["system", "check", "sys.json"]),
        ({"p2.fan": P2, "extras.json": [{"words": ["z1 z2^2"]}]},
         ["system", "soften", "p2.fan", "--extras", "extras.json"]),
        ({"p2.fan": P2, "extras.json": [{"cone": [7], "words": ["z1"]}]},
         ["system", "soften", "p2.fan", "--extras", "extras.json"]),
        ({"sys.json": 7}, ["system", "check", "sys.json"]),
        ({"p2.fan": P2}, ["fan", "check", "p2.fan", "--out", "missing/x.fan"]),
        # JSON true is not read as the integer 1
        ({"p1.fan": {"rank": True, "rays": [[1], [-1]], "max_cones": [[0], [1]]}},
         ["fan", "check", "p1.fan", "--out", "new.fan"]),
        ({"probe.json": {"size": True, "entries": ["2"]}}, ["probe", "a1", "probe.json"]),
    ], ids=["probe-size", "certificate-pair", "fan-rank", "lift-generator",
            "extras-cone", "extras-cone-outside-fan", "system-not-object",
            "out-in-missing-directory", "fan-rank-boolean", "probe-size-boolean"])
    def test_exit_2_without_traceback(self, tmp_path, monkeypatch, files, argv):
        for name, obj in files.items():
            write(tmp_path, name, obj)
        monkeypatch.chdir(tmp_path)
        code, _, err = run_process(*argv)
        assert code == 2
        assert "Traceback" not in err and "error:" in err

    @pytest.mark.parametrize("recipe", [
        {"fan": "p2.fan", "lifts": [BAD_LIFT]}, {"fan": "p2.fan"}], ids=["bad-lift", "no-lift"])
    def test_every_stage_is_read_before_any_is_built(self, tmp_path, monkeypatch, capsys,
                                                     recipe):
        # the first stage fails Prop 2.2.10 and the second is malformed: a
        # recipe that is read in full before it is built exits 2
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "p2.fan", P2)
        write(tmp_path, "sys.json",
              dict(recipe, extras=[[{"cone": [0], "words": ["z1^-1"]}], 5]))
        code, out, err = run(capsys, "system", "check", "sys.json")
        assert code == 2 and out == ""
        assert err == "error: sys.json.extras must be a list, got int\n"

    @pytest.mark.parametrize("wrap, argv", [
        (lambda system: {"system": system, "gluing": 7}, ["sheaf", "check", "f.json"]),
        (lambda system: {"sheaf": {"system": system, "gluing": []}, "locals": 7},
         ["section", "check", "f.json"]),
        (lambda system: {"system": system, "charts": 7},
         ["subscheme", "member", "f.json", "--cone", "", "--element", "z1"]),
        (lambda system: {"rank_r": 2, "system": system, "charts": 7},
         ["morphism", "check", "f.json"]),
    ], ids=["sheaf", "section", "subscheme", "morphism"])
    def test_readers_read_every_field_before_building(self, tmp_path, monkeypatch, capsys,
                                                      wrap, argv):
        # the recipe's lift fails a clause, and a field after it is malformed
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "p2.fan", P2)
        write(tmp_path, "f.json", wrap({"fan": "p2.fan", "lifts": [BAD_LIFT]}))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: f.json") and err.endswith("must be a list, got int\n")

    @pytest.mark.parametrize("content", [
        b"\xff\xfe",
        b"[" * 100_000,
        pytest.param(b'{"rank": ' + b"7" * 5000 + b', "rays": [[1]], "max_cones": [[0]]}',
                     marks=pytest.mark.skipif(
                         not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                         reason="this interpreter reads integers of any length")),
    ], ids=["not-utf8", "nested-too-deeply", "too-many-digits"])
    def test_unreadable_json(self, tmp_path, content):
        # the json module raises these outside JSONDecodeError
        path = tmp_path / "bad.fan"
        path.write_bytes(content)
        code, _, err = run_process("fan", "check", str(path))
        assert code == 2
        assert "Traceback" not in err and f"error: {path}:" in err

    def test_negative_fan_rank(self, tmp_path, capsys):
        # refused as a matrix's negative size is, not failed as a fan
        path = write(tmp_path, "neg.fan", {"rank": -1, "rays": [], "max_cones": []})
        code, out, err = run(capsys, "fan", "check", path)
        assert code == 2 and out == ""
        assert err == f"error: {path}: rank -1 is negative\n"

    def test_json_decode_error_location(self, tmp_path):
        path = tmp_path / "open.fan"
        path.write_text("{\n")
        code, out, err = run_process("fan", "check", str(path))
        assert code == 2 and out == ""
        assert err == (f"error: {path}: Expecting property name enclosed in double "
                       "quotes (line 2, column 1)\n")

    def test_zero_ideal_generator(self, tmp_path, monkeypatch):
        # an ideal's generators are nonzero; subscheme build never writes a 0
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "cone.fan", CONE_FAN)
        write(tmp_path, "sub.json", {"system": {"fan": "cone.fan"}, "charts": [
            {"cone": [], "generators": ["0", "z1 z2 - z2 z1"]}]})
        code, out, err = run_process("subscheme", "member", "sub.json", "--cone", "",
                                     "--element", "z1 z2 - z2 z1")
        assert code == 2 and out == ""
        assert err == "error: sub.json.charts: cone [] lists the generator 0\n"

    @pytest.mark.parametrize("exponent", ["2305843009213693952", "99999999999999999999"],
                             ids=["memory-error", "overflow-error"])
    def test_huge_word_exponent(self, tmp_path, monkeypatch, capsys, exponent):
        # a factor's letters are a repeat of its exponent, and these repeat
        # counts are refused before anything is allocated
        monkeypatch.chdir(tmp_path)
        word = f"z1 z2^{exponent}"
        write(tmp_path, "cone.fan", CONE_FAN)
        write(tmp_path, "sub.json", {"system": {"fan": "cone.fan"}, "charts": [
            {"cone": [], "generators": ["z1 z2 - z2 z1"]}]})
        write(tmp_path, "sys.json", {"fan": "cone.fan", "lifts": [
            {"cone": [0, 1], "generator": [1, 0], "word": word}]})
        err = f"error: exponent of word factor 'z2^{exponent}' is too large\n"
        for argv in (["subscheme", "member", "sub.json", "--cone", "", "--element", word,
                      "--bound", "4"], ["system", "check", "sys.json"]):
            assert run(capsys, *argv) == (2, "", err)

    def test_unopenable_path(self, tmp_path, monkeypatch):
        # open refuses a null byte with a ValueError that is not the digit limit
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "sys.json", {"fan": "p2\u0000.fan"})
        code, _, err = run_process("system", "check", "sys.json")
        assert code == 2 and "Traceback" not in err
        assert err.startswith("error: cannot read ./p2") and "embedded null byte" in err

    @pytest.mark.parametrize("argv", [
        ["morphism", "kernel", "mor.json", "--cone", "0,5"],
        ["morphism", "kernel", "mor.json", "--cone", "x"],
        ["subscheme", "member", "mor.json", "--cone", "0,1", "--element", "z1"],
    ], ids=["kernel-missing-cone", "kernel-bad-cone", "member-on-morphism"])
    def test_cone_arguments(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "cone.fan", CONE_FAN)
        run(capsys, "morphism", "sample", "cone.fan", "--r", "2", "--seed", "1",
            "--out", "mor.json")
        code, _, err = run_process(*argv)
        assert code == 2
        assert "Traceback" not in err and "error:" in err

    @pytest.mark.parametrize("argv, option", [
        (["morphism", "sample", "cone.fan", "--r", "-1", "--out", "new.json"], "--r"),
        (["morphism", "check", "mor.json", "--bound", "-3"], "--bound"),
        (["morphism", "kernel", "mor.json", "--cone", "", "--bound", "-1"], "--bound"),
        (["subscheme", "member", "mor.json", "--cone", "", "--element", "z1",
          "--bound", "-1"], "--bound"),
    ], ids=["sample-r", "check-bound", "kernel-bound", "member-bound"])
    def test_negative_sizes_refused_at_parse_time(self, tmp_path, monkeypatch, capsys,
                                                  argv, option):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "cone.fan", CONE_FAN)
        run(capsys, "morphism", "sample", "cone.fan", "--r", "2", "--seed", "1",
            "--out", "mor.json")
        code, out, err = run_process(*argv)
        assert code == 2 and out == ""
        assert "Traceback" not in err
        assert f"argument {option}: must be a nonnegative integer" in err
        assert not (tmp_path / "new.json").exists()

    @pytest.mark.parametrize("point", ["1,0,0", "1"],
                             ids=["point-too-long", "point-too-short"])
    def test_point_of_wrong_length(self, tmp_path, monkeypatch, capsys, point):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "p2.fan", P2)
        write(tmp_path, "o1.div", {"coefficients": {"2": 1}})
        run(capsys, "sheaf", "from-divisor", "p2.fan", "--divisor", "o1.div",
            "--out", "sheaf.json")
        code, _, err = run_process("section", "extend", "sheaf.json", "--divisor", "o1.div",
                                   "--point", point)
        assert code == 2
        assert "Traceback" not in err and "error:" in err

    @pytest.mark.parametrize("entry, named", [
        ({"upper": [0], "lower": [1], "scalar": "1", "word": "z1"},
         "[1] is not a proper face of [0]"),
        (None, "a second entry for [0, 1] > []"),
    ], ids=["lower-not-a-face", "duplicate-pair"])
    def test_impossible_gluing_entry(self, tmp_path, monkeypatch, capsys, entry, named):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "p2.fan", P2)
        write(tmp_path, "o1.div", {"coefficients": {"2": 1}})
        run(capsys, "sheaf", "from-divisor", "p2.fan", "--divisor", "o1.div",
            "--out", "sheaf.json")
        sheaf = load_json(str(tmp_path / "sheaf.json"))
        if entry is None:
            entry = next(e for e in sheaf["gluing"]
                         if e["upper"] == [0, 1] and e["lower"] == [])
        sheaf["gluing"].append(dict(entry))
        write(tmp_path, "sheaf.json", sheaf)
        for argv in (["sheaf", "check", "sheaf.json"],
                     ["section", "extend", "sheaf.json", "--divisor", "o1.div",
                      "--point", "1,0", "--out", "s1.json"]):
            code, out, err = run_process(*argv)
            assert code == 2 and out == ""
            assert "Traceback" not in err and named in err
        assert not (tmp_path / "s1.json").exists()


    @pytest.mark.parametrize("files, edit, argv, named", [
        ({}, ("p2c.fan", lambda o: repeat_first(o["certificates"], functional=[0, 0])),
         ["fan", "check", "p2c.fan", "--out", "new.fan"],
         "a second entry for pair [[0, 1], [0, 2]]"),
        ({"sys.json": {"fan": "p2.fan", "lifts": [
            {"cone": [0, 1], "generator": [1, 0], "word": "z1"},
            {"cone": [0, 1], "generator": [1, 0], "word": "z2 z1 z2^-1"}]}}, None,
         ["system", "build", "sys.json", "--out", "new.json"],
         "a second entry for generator [1, 0] of cone [0, 1]"),
        ({"extras.json": [{"cone": [0], "words": ["z1"]}, {"cone": [0], "words": ["z2"]}]},
         None, ["system", "augment", "p2.fan", "--extras", "extras.json", "--out", "new.json"],
         "a second entry for cone [0]"),
        ({"twice.div": {"coefficients": {"2": 1, "02": 1}}}, None,
         ["section", "list", "p2.fan", "--divisor", "twice.div"],
         "a second entry for ray 2"),
        ({"cand.json": [{"cone": [0, 1], "scalar": s, "word": "e"} for s in ("2", "1")]},
         None, ["sheaf", "isom", "sheaf.json", "sheaf.json", "--candidate", "cand.json"],
         "a second entry for cone [0, 1]"),
        ({}, ("s1.json", lambda o: repeat_first(o["locals"], element="z1^-7")),
         ["section", "check", "s1.json"], "a second entry for cone"),
        ({}, ("sub.json", lambda o: repeat_first(o["charts"])),
         ["subscheme", "member", "sub.json", "--cone", "0,1", "--element", "z2 z1"],
         "a second entry for cone"),
        ({}, ("mor.json", lambda o: repeat_first(o["charts"])),
         ["morphism", "check", "mor.json"], "a second entry for cone"),
        ({}, ("mor.json", lambda o: repeat_first(o["charts"][0]["images"])),
         ["morphism", "surrogate", "mor.json"], "a second entry for word"),
        ({"pat.json": {"idempotents": [{"cone": [], "matrix": ["0"] * 4}] * 2}}, None,
         ["morphism", "sample", "cone.fan", "--r", "2", "--pattern", "pat.json",
          "--out", "new.json"], "a second entry for cone []"),
        ({"d.div": '{"coefficients": {"2": 1, "2": 2}}'}, None,
         ["section", "list", "p2.fan", "--divisor", "d.div"],
         "key '2' repeated in one object"),
    ], ids=["fan-certificate", "system-lift", "stage-cone", "divisor-ray",
            "candidate-cone", "section-local", "subscheme-chart", "morphism-chart",
            "image-word", "pattern-cone", "json-object-key"])
    def test_repeated_key(self, tmp_path, monkeypatch, capsys, files, edit, argv, named):
        # a reader keeps one entry per key, so a file that gives a key twice
        # is refused rather than read with one of its entries dropped
        monkeypatch.chdir(tmp_path)
        artifacts(capsys, tmp_path)
        for name, obj in files.items():
            if isinstance(obj, str):
                (tmp_path / name).write_text(obj)
            else:
                write(tmp_path, name, obj)
        if edit is not None:
            name, change = edit
            obj = load_json(str(tmp_path / name))
            change(obj)
            write(tmp_path, name, obj)
        code, out, err = run_process(*argv)
        assert code == 2 and out == ""
        assert "Traceback" not in err and named in err
        assert not list(tmp_path.glob("new.*"))


def repeat_first(entries, **change):
    """Put a copy of the list's first entry, with `change` applied, in front."""
    entries.insert(0, dict(entries[0], **change))


def artifacts(capsys, tmp_path):
    """A fan with its certificates, a sheaf, two sections, their subscheme
    and a sampled morphism, written into tmp_path."""
    write(tmp_path, "p2.fan", P2)
    write(tmp_path, "cone.fan", CONE_FAN)
    write(tmp_path, "o1.div", {"coefficients": {"2": 1}})
    for argv in (["fan", "check", "p2.fan", "--out", "p2c.fan"],
                 ["sheaf", "from-divisor", "p2.fan", "--divisor", "o1.div",
                  "--out", "sheaf.json"],
                 ["section", "extend", "sheaf.json", "--divisor", "o1.div",
                  "--point", "1,0", "--out", "s1.json"],
                 ["section", "extend", "s1.json", "--divisor", "o1.div",
                  "--point", "0,1", "--out", "s2.json"],
                 ["subscheme", "build", "s1.json", "s2.json", "--out", "sub.json"],
                 ["morphism", "sample", "cone.fan", "--r", "2", "--seed", "1",
                  "--out", "mor.json"]):
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, out, err)


class TestClosedStdout:
    @pytest.mark.parametrize("argv, code", [
        (["sheaf", "from-divisor", "p2.fan", "--divisor", "o1.div", "--out", "sheaf.json"],
         0),
        (["fan", "check", "bad.fan"], 1),
    ], ids=["passing", "failing"])
    def test_verdict_sets_exit_code(self, tmp_path, argv, code):
        # a reader that stops early (`nctoric ... | head -1`) leaves stdout
        # closed; that is not a fault of nctoric and does not change the verdict
        write(tmp_path, "p2.fan", P2)
        write(tmp_path, "o1.div", {"coefficients": {"2": 1}})
        write(tmp_path, "bad.fan", {"rank": 2, "rays": [[1, 0], [0, 1], [1, 2]],
                                    "max_cones": [[0, 1], [0, 2]]})
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "nctoric.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  cwd=tmp_path, env=cli_env(), timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == code
        assert proc.stderr == b""


class TestInternalError:
    def test_exit_3_with_traceback(self, tmp_path, capsys, monkeypatch):
        def fault(system):
            raise AssertionError("exact re-check failed")

        monkeypatch.setattr(deltasystem, "check_admissible", fault)
        path = write(tmp_path, "p2.fan", P2)
        code, out, err = run(capsys, "system", "check", path)
        assert code == 3 and out == ""
        assert "internal error:" in err and "Traceback" in err
        assert "exact re-check failed" in err


class TestRoundTrips:
    def test_all_artifacts_reparse_to_equal_values(self, tmp_path, capsys):
        from nctoric import serialize

        fan_path = write(tmp_path, "p2.fan", P2)
        div_path = write(tmp_path, "o1.div", {"coefficients": {"2": 1}})
        sheaf_path = str(tmp_path / "sheaf.json")
        sec_path = str(tmp_path / "sec.json")
        run(capsys, "sheaf", "from-divisor", fan_path, "--divisor", div_path,
            "--out", sheaf_path)
        run(capsys, "section", "extend", sheaf_path, "--divisor", div_path,
            "--point", "1,0", "--out", sec_path)
        cone_path = write(tmp_path, "cone.fan",
                          {"rank": 2, "rays": [[1, 0], [0, 1]],
                           "max_cones": [[0, 1]]})
        mor_path = str(tmp_path / "mor.json")
        run(capsys, "morphism", "sample", cone_path, "--r", "2",
            "--pattern", "trivial", "--seed", "4", "--out", mor_path)

        sheaf_obj = load_json(sheaf_path)
        gluing = serialize.sheaf_from_obj(sheaf_obj)
        assert serialize.sheaf_to_obj(gluing) == sheaf_obj

        sec_obj = load_json(sec_path)
        section = serialize.section_from_obj(sec_obj)
        assert serialize.section_to_obj(section) == sec_obj

        mor_obj = load_json(mor_path)
        morphism = serialize.morphism_from_obj(mor_obj)
        assert serialize.morphism_to_obj(morphism) == mor_obj


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


class TestReadmeWalkthrough:
    def test_every_command_exits_0(self, tmp_path, monkeypatch, capsys):
        """The README's shell walkthrough: each heredoc becomes a file and
        each `nctoric` line runs through cli.main, in order."""
        with open(README, encoding="utf-8") as fh:
            blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
        block = next(b for b in blocks if "\nnctoric " in b)
        monkeypatch.chdir(tmp_path)
        lines = iter(block.splitlines())
        commands = 0
        for line in lines:
            heredoc = re.fullmatch(r"cat > (\S+) <<'EOF'", line)
            if heredoc:
                body = list(iter(lines.__next__, "EOF"))
                (tmp_path / heredoc.group(1)).write_text("\n".join(body) + "\n")
            elif line.startswith("nctoric "):
                code, out, err = run(capsys, *shlex.split(line, comments=True)[1:])
                assert code == 0, (line, out, err)
                commands += 1
        assert commands


# the fewest arguments each verb parses with: a verb's row followed by an
# unknown option reaches the top-level parser, whose usage lists every group
VERB_ARGS = {
    ("fan", "check"): ["f"],
    ("system", "build"): ["f"],
    ("system", "check"): ["f"],
    ("system", "augment"): ["f", "--extras", "x"],
    ("system", "soften"): ["f", "--extras", "x"],
    ("sheaf", "from-divisor"): ["f", "--divisor", "d"],
    ("sheaf", "check"): ["f"],
    ("sheaf", "isom"): ["f", "g", "--candidate", "c"],
    ("section", "list"): ["f", "--divisor", "d"],
    ("section", "extend"): ["f", "--divisor", "d", "--point", "0,0"],
    ("section", "check"): ["f"],
    ("subscheme", "build"): ["f"],
    ("subscheme", "member"): ["f", "--cone", "", "--element", "z1"],
    ("morphism", "check"): ["f"],
    ("morphism", "sample"): ["f", "--r", "2"],
    ("morphism", "surrogate"): ["f"],
    ("morphism", "kernel"): ["f", "--cone", ""],
    ("probe", "a1"): ["f"],
}


def _subcommands(parser):
    """{name: parser} of the parser's subcommands."""
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _parse_outcome(parse, argv):
    """(stdout, stderr, exit code) of a parse that ends the program: a help
    request or a usage error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as stop:
            parse(argv)
    return out.getvalue(), err.getvalue(), stop.value.code


class TestHelpAndUsage:
    """main builds only the invoked group's verbs; every help text and usage
    error must read as it does from the parser with every verb."""

    def test_the_verb_table_lists_every_verb(self):
        full = {(group, verb) for group, verbs in _subcommands(build_parser()).items()
                for verb in _subcommands(verbs)}
        assert set(GROUPS) == {group for group, _ in full}
        assert set(VERB_ARGS) == full and len(full) == 18

    @pytest.mark.parametrize("group", sorted(GROUPS))
    def test_only_the_named_group_gets_verbs(self, group):
        built = {name: sorted(_subcommands(verbs))
                 for name, verbs in _subcommands(build_parser(group)).items()}
        assert list(built) == list(GROUPS)
        assert {name for name, verbs in built.items() if verbs} == {group}

    @pytest.mark.parametrize("argv", [
        ["--help"], [], ["bogus"], ["fan"], ["--json"],
        *([group, "--help"] for group in GROUPS),
        *([group, verb, "--help"] for group, verb in VERB_ARGS),
        *([group, verb, *args, "--no-such-option"] for (group, verb), args in VERB_ARGS.items()),
        *([group, verb] for group, verb in VERB_ARGS),
    ], ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_output_matches_the_full_parser(self, argv):
        want = _parse_outcome(build_parser().parse_args, argv)
        assert _parse_outcome(main, argv) == want
        assert want[2] == (0 if "--help" in argv else 2)

    def test_console_script_reads_sys_argv(self, monkeypatch):
        want = _parse_outcome(build_parser().parse_args, ["section", "extend", "--help"])
        monkeypatch.setattr(sys, "argv", ["nctoric", "section", "extend", "--help"])
        assert _parse_outcome(lambda argv: main(), None) == want

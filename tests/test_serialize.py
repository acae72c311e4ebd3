"""Replay of written artifacts. A chart system carries its recipe (lifts and
augmentation stages), so every file rebuilds, by one build_system call on
that recipe, the system the writing command checked."""
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from nctoric import deltasystem, serialize
from nctoric.azumaya import sample_matrix_model
from nctoric.deltasystem import augment_system, build_system
from nctoric.freeword import ReducedWord, canonical_lift, format_word, word_inv, word_mul
from nctoric.sheaves import (check_twisted_section, extend_section, sheaf_from_divisor,
                             subscheme_from_sections)
from nctoric.toricfan import polytope_sections, validate_fan
from oracles import equal_charts

CHAIN_FANS = {
    "p1": (1, [(1,), (-1,)], [(0,), (1,)]),
    "p2": (2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)]),
    "f3": (2, [(1, 0), (0, 1), (-1, 3), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "p3": (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
           [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
}


def replayed(to_obj, from_obj, artifact, *args):
    """The artifact read back from its written object, which it writes
    again unchanged."""
    obj = json.loads(json.dumps(to_obj(artifact, *args)))
    back = from_obj(obj)
    assert (to_obj(*back) if isinstance(back, tuple) else to_obj(back)) == obj
    return back


def assert_same_system(back, system):
    assert equal_charts(back, system)
    assert back.stages == system.stages and back.lifts == system.lifts


def random_lifts(rng, fan):
    """Either the canonical lifts or one dual generator's lift conjugated by
    a random letter."""
    if rng.randint(0, 1):
        return {}
    sigma = rng.choice(fan.max_cones)
    u = rng.choice(fan.duals[sigma])
    z = ReducedWord((rng.choice([1, -1]) * rng.randint(1, fan.rank),), fan.rank)
    return {(sigma, u): word_mul(word_mul(z, canonical_lift(u, fan.rank)), word_inv(z))}


def adjoined_stages(chain):
    """The stages a file listed before systems carried their recipe: per
    softening, the words newly adjoined to each touched cone."""
    stages = []
    for old, new in zip(chain, chain[1:]):
        added = {c: [format_word(w) for w in new.charts[c].generators
                     if w not in old.charts[c].generators] for c in new.fan.faces}
        stage = [{"cone": list(c), "words": ws} for c, ws in sorted(added.items()) if ws]
        if stage:
            stages.append(stage)
    return stages


@settings(max_examples=40)
@given(name=st.sampled_from(sorted(CHAIN_FANS)), seed=st.integers(0, 2 ** 32 - 1))
def test_every_written_artifact_replays_to_the_checked_system(name, seed):
    fan = validate_fan(*CHAIN_FANS[name])
    rng = random.Random(seed)
    system = build_system(fan, random_lifts(rng, fan))
    assert_same_system(replayed(serialize.system_to_obj, serialize.system_from_obj,
                                system), system)

    top = 1 if fan.rank == 3 else 2
    divisor = tuple(rng.randint(0, top) for _ in fan.rays)
    gluing = sheaf_from_divisor(system, divisor)
    back = replayed(serialize.sheaf_to_obj, serialize.sheaf_from_obj, gluing)
    assert_same_system(back.system, gluing.system)
    assert back.words == gluing.words and back.scalars == gluing.scalars
    assert len(back.system.stages) <= 1

    chain = [system, gluing.system]
    points = polytope_sections(fan, divisor)
    for point in rng.choices(points, k=2):
        section = extend_section(back, divisor, point)
        written = replayed(serialize.section_to_obj, serialize.section_from_obj, section)
        assert_same_system(written.system, section.system)
        assert written.locals == section.locals
        chain.append(section.system)
        back = written.gluing

    system, charts = subscheme_from_sections([written])
    sub_system, sub_charts = replayed(serialize.subscheme_to_obj,
                                      serialize.subscheme_from_obj, system, charts)
    assert_same_system(sub_system, written.system)
    assert sub_charts == charts

    # a file whose stages list the adjoined words still loads to equal charts
    old = serialize.section_to_obj(written)
    old["sheaf"]["system"]["extras"] = adjoined_stages(chain)
    assert equal_charts(serialize.section_from_obj(old).system, written.system)


@settings(max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_morphism_over_an_augmented_system_replays(seed):
    rng = random.Random(seed)
    fan = validate_fan(2, [(1, 0), (0, 1)], [(0, 1)])
    a, b = rng.choice([1, -1]), rng.choice([2, -2])
    extra = {(): [ReducedWord((a, b, -a, -b), 2)]}   # a commutator: never a generator yet
    system = augment_system(build_system(fan, random_lifts(rng, fan)), extra)
    morphism = sample_matrix_model(system, 2, "trivial", rng.randint(0, 99))
    back = replayed(serialize.morphism_to_obj, serialize.morphism_from_obj, morphism)
    assert_same_system(back.system, system)

    def fields(charts):
        return {cone: (c.cone, c.identity_image, c.images) for cone, c in charts.items()}
    assert fields(back.charts) == fields(morphism.charts)


def test_replay_saturates_no_chart(saturations):
    # every command replays its artifact's recipe, but only the final
    # system's charts are queried, and only by a check
    fan = validate_fan(*CHAIN_FANS["p2"])
    divisor = (0, 0, 3)
    gluing = sheaf_from_divisor(build_system(fan), divisor)
    for point in polytope_sections(fan, divisor)[:3]:
        section = extend_section(gluing, divisor, point)
        gluing = section.gluing
    assert len(section.system.stages) >= 3
    obj = json.loads(json.dumps(serialize.section_to_obj(section)))
    saturations.clear()
    back = serialize.section_from_obj(obj)
    assert saturations == []
    assert check_twisted_section(back).ok
    assert 0 < len(saturations) <= len(set(map(id, back.system.charts.values())))


def test_a_recipe_loads_in_one_pass(monkeypatch):
    # each chart is built once and the inverse-system property checked once,
    # however many stages the recipe lists
    fan = validate_fan(*CHAIN_FANS["p2"])
    divisor = (0, 0, 3)
    gluing = sheaf_from_divisor(build_system(fan), divisor)
    for point in polytope_sections(fan, divisor)[:3]:
        gluing = extend_section(gluing, divisor, point).gluing
    obj = serialize.system_to_obj(gluing.system)
    assert len(obj["extras"]) >= 3
    built, checked = [], []
    submonoid, check = deltasystem.Submonoid, deltasystem._assert_inverse_system
    monkeypatch.setattr(deltasystem, "Submonoid",
                        lambda *args: built.append(submonoid(*args)) or built[-1])
    monkeypatch.setattr(deltasystem, "_assert_inverse_system",
                        lambda system: checked.append(check(system)))
    back = serialize.system_from_obj(obj)
    assert equal_charts(back, gluing.system)
    assert len(built) <= len(fan.faces) and len(checked) == 1

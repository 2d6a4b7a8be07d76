import json
from pathlib import Path

import pytest

import inputs

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", inputs.CLOSED_LOOP)
def test_seed_zero_is_the_bundled_file(workload):
    bundled = (ROOT / inputs.SCENARIO_DIR / f"{workload}.json").read_text()
    assert inputs.scenario_text(workload, 0, ROOT) == bundled


def test_closed_loop_jitter_is_deterministic_and_bounded():
    base = json.loads(inputs.scenario_text("overtake", 0, ROOT))
    a = inputs.scenario_text("overtake", 3, ROOT)
    assert a == inputs.scenario_text("overtake", 3, ROOT)
    assert a != inputs.scenario_text("overtake", 4, ROOT)
    jittered = json.loads(a)
    assert jittered["actors"] == base["actors"]
    assert 0.0 < abs(jittered["ego"]["v0"] - base["ego"]["v0"]) <= 0.3
    jittered["ego"]["v0"] = base["ego"]["v0"]
    assert jittered == base


def test_cold_scenes_are_deterministic():
    assert inputs.cold_scenes(5, 15) == inputs.cold_scenes(5, 15)
    assert inputs.cold_scenes(5, 15) != inputs.cold_scenes(6, 15)


def test_cold_scenes_cover_every_stratum_once():
    count = 15
    scenes = inputs.cold_scenes(11, count)
    assert [len(sc["oncoming"]) for sc in scenes] == \
        [i % 3 for i in range(count)]
    lo_v = inputs.EGO_V[0]
    for n_oncoming in range(3):
        group = scenes[n_oncoming::3]
        caps = [inputs.ego_speed_cap(*sc["leader"]) for sc in group]
        columns = [
            (inputs.EGO_S, [sc["ego_s"] for sc in group]),
            ((0.0, 1.0), [(sc["ego_v"] - lo_v) / (cap - lo_v)
                          for sc, cap in zip(group, caps)]),
            (inputs.LEADER_GAP, [sc["leader"][0] for sc in group]),
            (inputs.LEADER_V, [sc["leader"][1] for sc in group]),
        ]
        for k in range(n_oncoming):
            columns.append((inputs.ONCOMING_GAP,
                            [sc["oncoming"][k][0] for sc in group]))
            columns.append((inputs.ONCOMING_V,
                            [sc["oncoming"][k][1] for sc in group]))
        for (lo, hi), values in columns:
            pos = [(v - lo) / (hi - lo) * len(group) for v in values]
            assert sorted(int(p) for p in pos) == list(range(len(group)))
            # inside the middle JITTER share of the stratum
            assert all(abs(p % 1.0 - 0.5) <= inputs.JITTER / 2 for p in pos)
        for sc, cap in zip(group, caps):
            assert lo_v <= sc["ego_v"] <= cap <= inputs.EGO_V[1]


def test_cold_scene_layout_is_fixed_across_seeds():
    def cells(scenes):
        return [int((sc["leader"][0] - inputs.LEADER_GAP[0])
                    / (inputs.LEADER_GAP[1] - inputs.LEADER_GAP[0]) * 5)
                for sc in scenes]
    assert cells(inputs.cold_scenes(1, 15)) == cells(inputs.cold_scenes(2, 15))


def test_cold_scene_count_must_split_into_three_groups():
    with pytest.raises(ValueError):
        inputs.cold_scenes(1, 16)

"""Seeded inputs for the benchmark workloads.

Standard library only, so run.py stays light.  The same seed
always gives the same inputs; seed 0 of a closed-loop workload is the bundled
scenario file verbatim.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

SCENARIO_DIR = Path("src") / "tvapf" / "scenarios"
CLOSED_LOOP = ("overtake", "empty_road")

# plan_cold scene ranges: ego s and speed, leader gap and speed, oncoming
# gap and speed (m, m/s)
EGO_S = (50.0, 500.0)
EGO_V = (6.0, 12.0)
LEADER_GAP = (40.0, 150.0)
LEADER_V = (3.0, 6.0)
ONCOMING_GAP = (100.0, 700.0)
ONCOMING_V = (6.0, 12.0)
# The ego must be able to slow to the leader's speed at half the planner's
# comfort deceleration before closing to 30 m; faster approaches put the
# scene outside what a comfort-limited planner can resolve.
APPROACH_DECEL = 0.45
APPROACH_GAP = 30.0
# plan_cold: the stratum layout is fixed, the seed moves values within the
# middle tenth of their strata.  With the middle fifth, the hard scenes'
# iteration counts moved enough that seeds differed by about 7 % in planner
# time, which the spread across seeds counts as noise.
DESIGN_SEED = 0
JITTER = 0.1


def ego_speed_cap(leader_gap: float, leader_v: float) -> float:
    return min(EGO_V[1], leader_v + math.sqrt(
        2.0 * APPROACH_DECEL * (leader_gap - APPROACH_GAP)))


def scenario_text(workload: str, seed: int, root: Path) -> str:
    """JSON text of the closed-loop scenario for one seed.

    Seed k != 0 moves the ego's v0 by U(-0.3, 0.3) m/s.  The actors stay
    where the bundled file puts them: moving them by a few metres shifts the
    first Overtake of ``overtake`` between the 30 s and the 35 s planner
    instance, and with it the amount of planner work, so seeds would measure
    two different workloads.
    """
    text = (root / SCENARIO_DIR / f"{workload}.json").read_text()
    if seed == 0:
        return text
    data = json.loads(text)
    data["ego"]["v0"] += random.Random(seed).uniform(-0.3, 0.3)
    return json.dumps(data, indent=2)


def cold_scenes(seed: int, count: int) -> list[dict]:
    """``count`` planner-only scenes: a fixed Latin-hypercube design,
    jittered by the seed.

    Scene ``i`` has the ego in the right lane, one same-lane leader ahead and
    ``i % 3`` oncoming actors in the left lane.  Within each group of scenes
    with the same number of oncoming actors, every continuous range is split
    into as many strata as the group has scenes, and each scene takes a
    different stratum.  Which strata a scene combines is fixed; the seed
    places each value within the middle ``JITTER`` share of its stratum.  So
    every seed has the same mix of easy and blocked scenes and seeds differ
    in the details.  The ego speed is stratified as a share of
    ``[EGO_V[0], ego_speed_cap(...)]``.
    """
    if count % 3:
        raise ValueError("count must be a multiple of 3")
    design = random.Random(DESIGN_SEED)
    rng = random.Random(seed)
    per = count // 3

    def column(lo, hi):
        cells = list(range(per))
        design.shuffle(cells)
        return [lo + (hi - lo) * (c + 0.5 + JITTER * (rng.random() - 0.5))
                / per for c in cells]

    groups = []
    for n_oncoming in range(3):
        ego_s, ego_share = column(*EGO_S), column(0.0, 1.0)
        lead_gap, lead_v = column(*LEADER_GAP), column(*LEADER_V)
        onc = [(column(*ONCOMING_GAP), column(*ONCOMING_V))
               for _ in range(n_oncoming)]
        groups.append([{
            "ego_s": ego_s[j],
            "ego_v": EGO_V[0] + ego_share[j] * (
                ego_speed_cap(lead_gap[j], lead_v[j]) - EGO_V[0]),
            "leader": [lead_gap[j], lead_v[j]],
            "oncoming": [[gap[j], v[j]] for gap, v in onc],
        } for j in range(per)])
    return [groups[i % 3][i // 3] for i in range(count)]

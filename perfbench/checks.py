"""Output checks for each workload.

Each function returns ``{check name: passed}``; a repetition with any failed
check counts every operation in it as failed.
"""

from __future__ import annotations

import math

# criterion 2 comfort limits
A_LON_MAX = 0.9
JERK_MAX = 0.9
YAW_RATE_MAX = math.radians(4.44)
DELTA_MAX = math.radians(24.5)
# criterion 8: share of ticks whose tracker slack is zero
SLACK_ZERO_MIN = 0.95


def closed_loop(workload, seed, scn, log, summary) -> dict:
    """Criterion 2 comfort and criterion 8 tracking bounds, plus the
    decision pattern the workload is built around."""
    s = summary
    e_pos = scn.tracker_config().e_pos
    out = {
        "no_events": not s["events"],
        "comfort": (s["max_abs_a_lon"] <= A_LON_MAX + 1e-9
                    and s["max_jerk"] <= JERK_MAX + 1e-9
                    and s["max_yaw_rate"] <= YAW_RATE_MAX + 1e-9
                    and s["max_abs_delta"] <= DELTA_MAX + 1e-9),
        "tracking": (s["max_tracking_error"] <= e_pos
                     and s["sigma_zero_fraction"] >= SLACK_ZERO_MIN),
    }
    timeline = s["decision_timeline"]
    if workload == "empty_road":
        out["all_keep_lane"] = all(e["decision"] == "KeepLane"
                                   for e in timeline)
    elif seed == 0:
        out.update(overtake_timeline(log, timeline, scn.ego["v_des"]))
    else:
        first = next((i for i, e in enumerate(timeline)
                      if e["decision"] == "Overtake"), len(timeline))
        out["blocked_before_overtake"] = any(
            e["decision"] == "FollowLeader" and e["overtake_feasible"] is False
            for e in timeline[:first])
    return out


def overtake_timeline(log, timeline, v_des) -> dict:
    """Criterion 1 on the bundled overtake scenario."""
    by_t = {e["t0"]: e for e in timeline}
    overtakes = [e["t0"] for e in timeline if e["decision"] == "Overtake"]
    left = [r["time"] for r in log.steps if r["ego_y"] >= 0.0]
    speeds = [r["ego_v"] for r in log.steps]
    return {
        "blocked_20_25_30": all(
            t in by_t and by_t[t]["overtake_feasible"] is False
            for t in (20.0, 25.0, 30.0)),
        "min_speed": 8.1 <= min(speeds) <= 9.1,
        "first_overtake": bool(overtakes) and 25.0 <= overtakes[0] <= 35.0,
        "back_in_right_lane": bool(left) and 50.0 <= max(left) <= 60.0,
        "final_speed": abs(speeds[-1] - v_des) <= 0.5,
    }


def plan_cold(plans, path) -> dict:
    """A plan for every scene, with a finite objective and every state
    inside the road edges."""
    done = [p for p in plans if p is not None]
    lo, hi = path.right_edge_offset, path.left_edge_offset
    return {
        "plan_for_every_scene": len(done) == len(plans),
        "finite_objective": all(math.isfinite(p.solve_stats["objective"])
                                for p in done),
        "inside_road": all(lo <= x.d <= hi for p in done for x in p.states),
    }

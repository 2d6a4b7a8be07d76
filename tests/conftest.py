"""Shared fixtures.

The bundled overtake scenario takes about 7 s of wall clock to simulate
(6.8-7.3 s over three runs with the default BLAS threads, 6.6-7.5 s over
three with BLAS pinned to one thread, on a shared 2-core x86-64 host), so
the closed-loop run is executed once per session and shared by every test
that inspects it.
"""

import time
from pathlib import Path

import pytest

import tvapf
from tvapf import scenario as scenario_mod
from tvapf.simulation import run, summarize

SCENARIO_DIR = Path(tvapf.__file__).parent / "scenarios"


@pytest.fixture(scope="session")
def overtake_scenario():
    return scenario_mod.load(SCENARIO_DIR / "overtake.json")


@pytest.fixture(scope="session")
def empty_road_scenario():
    return scenario_mod.load(SCENARIO_DIR / "empty_road.json")


@pytest.fixture(scope="session")
def overtake_run(overtake_scenario):
    """(RunLog, wall-clock seconds) of the bundled overtake scenario."""
    t0 = time.perf_counter()
    log = run(overtake_scenario)
    wall = time.perf_counter() - t0
    return log, wall


@pytest.fixture(scope="session")
def overtake_summary(overtake_run, overtake_scenario):
    return summarize(overtake_run[0], overtake_scenario)


@pytest.fixture(scope="session")
def empty_road_run(empty_road_scenario):
    return run(empty_road_scenario)

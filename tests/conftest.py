"""Shared fixtures.

The bundled overtake scenario takes about 2 s of wall clock to simulate
(1.6-2.0 s over three runs with BLAS pinned to one thread, 2.0-2.9 s over
three with the default BLAS threads, on a shared 2-core x86-64 host), so
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

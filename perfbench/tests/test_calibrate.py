import time

import numpy as np
import pytest

import calibrate
import worker


def test_slice_is_deterministic_and_leaves_random_state_alone():
    np.random.seed(3)
    state = np.random.get_state()[1].copy()
    cal = calibrate.Calibrator()
    assert cal.run_slice() == cal.run_slice()
    assert (np.random.get_state()[1] == state).all()


def test_scale_is_reference_over_mean_slice_time():
    cal = calibrate.Calibrator()
    cal.samples = [0.02, 0.04, 0.06]
    assert cal.scale() == pytest.approx(calibrate.REF_SLICE_S / 0.04)


def test_after_op_waits_for_every_s_of_program_time(monkeypatch):
    cal = calibrate.Calibrator()
    cal.after_op()
    assert cal.samples == []
    monkeypatch.setattr(calibrate, "EVERY_S", 0.0)
    cal.after_op()
    cal.after_op()
    assert len(cal.samples) == 2


def test_timed_takes_slices_inside_the_call_out_of_its_wall_time(
        monkeypatch):
    monkeypatch.setattr(calibrate, "EVERY_S", 0.0)
    cal = calibrate.Calibrator()

    def call():
        for _ in range(3):
            time.sleep(0.01)
            cal.after_op()
        return "done"

    out, wall = worker.timed(call, cal)
    assert out == "done"
    # one slice before, three inside, one after
    assert len(cal.samples) == 5
    assert 0.03 <= wall < 0.03 + min(cal.samples)


def test_timed_without_calibrator_is_plain_wall_time():
    out, wall = worker.timed(lambda: time.sleep(0.02), None)
    assert out is None
    assert wall >= 0.02

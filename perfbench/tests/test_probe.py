"""The host-speed calibration: what it divides by, and what it refuses
to count."""

import gc
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from run import PROBE_REF_NS, SETUP_PROBES, HostProbe  # noqa: E402

MS = 1_000_000


def probe_with(at_ms, samples):
    """A probe whose record is given, not measured."""
    probe = HostProbe()
    probe.at = [int(t * MS) for t in at_ms]
    probe.samples = list(samples)
    return probe


def test_a_short_event_takes_the_probes_around_it():
    ref = PROBE_REF_NS
    # probes every 20 ms: slow (2x), slow, fast, slow
    probe = probe_with([0, 20, 40, 60], [2 * ref, 2 * ref, ref, 2 * ref])
    # 1 ms events: only the probe either side is within reach
    cal = probe.calibrate([(int(1 * MS), int(2 * MS)),
                           (int(21 * MS), int(22 * MS)),
                           (int(41 * MS), int(42 * MS))])
    assert cal.tolist() == pytest.approx([MS / 2, MS * 2 / 3, MS * 2 / 3])


def test_a_long_event_takes_the_average_state_it_ran_through():
    ref = PROBE_REF_NS
    probe = probe_with([0, 20, 40, 60, 80, 100],
                       [ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref, ref])
    # a 30 ms event from 35 to 65 ms reaches 30 ms either side: 5..95 ms
    (cal,) = probe.calibrate([(35 * MS, 65 * MS)])
    assert cal == pytest.approx(30 * MS / 2)


def probes_taken(probe):
    return len(probe.samples) + probe.shared


def test_a_raising_call_is_timed_and_handed_back():
    probe = HostProbe()
    before = probes_taken(probe)
    out, exc, (t0, t1) = probe.timed(int, "not a number")
    assert out is None and isinstance(exc, ValueError)
    assert t1 > t0
    assert probes_taken(probe) == before + 1


def test_call_times_without_probing():
    probe = HostProbe()
    before = probes_taken(probe)
    out, exc, (t0, t1) = probe.call(int, "7")
    assert (out, exc) == (7, None) and t1 > t0
    assert probes_taken(probe) == before


def test_no_collection_runs_inside_a_probe():
    probe = HostProbe()
    seen = []

    def watch(phase, info):
        seen.append(phase)

    gc.callbacks.append(watch)
    try:
        threshold = gc.get_threshold()
        gc.set_threshold(1)          # collect on every allocation
        try:
            probe.sample()
        finally:
            gc.set_threshold(*threshold)
    finally:
        gc.callbacks.remove(watch)
    assert seen == [] and gc.isenabled()


def test_a_probe_that_shared_the_cpu_with_another_thread_is_discarded():
    probe = HostProbe()
    stop = time.monotonic() + 2.0
    spinning = threading.Event()

    def spin():
        spinning.set()
        while time.monotonic() < stop and probe.shared == 0:
            sum(range(1000))

    t = threading.Thread(target=spin)
    t.start()
    spinning.wait()
    calls = 0
    while probe.shared == 0 and time.monotonic() < stop:
        probe.timed(int, "1")
        calls += 1
    t.join()
    assert probe.shared >= 1
    # a discarded probe is neither counted nor placed
    assert len(probe.samples) == len(probe.at) == (
        SETUP_PROBES + calls - probe.shared)

"""ChaosTransport is transparent while no fault is switched on.

The pipeline wires its transport through plain attribute assignment
(``bus.ledger``, ``bus.clock``, ``bus.executor``) and reads it through
the methods :class:`~repro.transport.base.Transport` declares.  Because
``Transport`` gives each of those a class-level default, a wrapper that
does not forward one answers with its own default instead of the
wrapped transport's, and nothing fails loudly.  These tests hold the
wrapper to every declared surface, for each of the three tiers.
"""

import numpy as np
import pytest

from repro.core.metric import SeriesBatch
from repro.obs.chaos import ChaosTransport
from repro.transport.base import Transport, make_transport

TIERS = ("flat", "partitioned", "tree")


def declared_surface() -> tuple[set[str], set[str]]:
    """Public class attributes and public methods ``Transport`` declares."""
    attrs, methods = set(), set()
    for name, value in vars(Transport).items():
        if not name.startswith("_"):
            (methods if callable(value) else attrs).add(name)
    return attrs, methods


def batch(i: int) -> SeriesBatch:
    return SeriesBatch.sweep("node.power_w", 10.0 * i, ["n0", "n1", "n2"],
                             np.array([1.0, 2.0, 3.0]) * i)


def drive(t: Transport) -> dict:
    """Call every public method in a fixed script; return the answers."""
    seen: list = []
    got: dict = {}
    sub = t.subscribe("metrics.*", callback=lambda env: seen.append(
        (env.topic, float(env.payload.times[0]))), name="probe")
    got["subscribe"] = (sub.pattern, sub.name)
    got["publish"] = [t.publish(f"metrics.m{i % 3}", batch(i), source="s")
                      for i in range(6)]
    got["publish_many"] = t.publish_many(
        "metrics.bulk", [batch(i) for i in range(3)], source="s")
    got["queue_depths"] = t.queue_depths()
    got["partition_depths"] = t.partition_depths()
    got["partition_drops"] = t.partition_drops()
    got["leaf_depths"] = t.leaf_depths()
    got["in_flight_points"] = t.in_flight_points()
    got["pump"] = t.pump(60.0)
    got["flush"] = t.flush()
    got["stats"] = t.stats()
    got["unsubscribe"] = t.unsubscribe(sub)
    got["delivered"] = seen
    return got


@pytest.mark.parametrize("tier", TIERS)
def test_attributes_land_on_the_inner_transport(tier):
    inner = make_transport(tier)
    wrapper = ChaosTransport(inner)
    attrs, _ = declared_surface()
    assert attrs, "Transport declares no class attributes to check"
    for name in sorted(attrs):
        sentinel = object()
        setattr(wrapper, name, sentinel)
        assert getattr(inner, name) is sentinel, name
        assert getattr(wrapper, name) is sentinel, name
        # and a value set on the inner transport reads through
        other = object()
        setattr(inner, name, other)
        assert getattr(wrapper, name) is other, name


@pytest.mark.parametrize("tier", TIERS)
def test_methods_answer_as_the_inner_transport(tier):
    raw = drive(make_transport(tier))
    wrapped = drive(ChaosTransport(make_transport(tier)))
    _, methods = declared_surface()
    # the script must call every method Transport declares, so one added
    # later is checked here too
    assert set(raw) - {"delivered"} == methods
    assert raw["delivered"], "the script delivered nothing"
    for name in sorted(raw):
        assert wrapped[name] == raw[name], name


def test_parallel_pipeline_reaches_the_wrapped_tree():
    """A 2-worker pipeline fans the wrapped tree's leaf coalescing out
    over its executor, not serially."""
    from repro.pipeline import MonitoringPipeline
    from repro.sites import SiteConfig, build_machine

    inner = make_transport("tree")
    p = MonitoringPipeline(build_machine(SiteConfig()), SiteConfig(workers=2),
                           transport=ChaosTransport(inner))
    assert p.executor.parallel
    assert inner.executor is p.executor
    p.executor.shutdown()

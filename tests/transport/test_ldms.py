"""LDMS-style fan-in as the sites deploy it: per-node samplers publish
into leaf aggregators, and merged batches reach the consumers at the
root of the :class:`~repro.transport.aggtree.AggregatorTree`."""

import pytest

from repro.core.metric import SeriesBatch
from repro.transport.aggtree import AggregatorTree


def sample(tree, now, names, values=None):
    """One synchronized sampler sweep: node ``name`` publishes its own
    one-point batch (source-keyed, so it is pinned to its leaf)."""
    for i, name in enumerate(names):
        v = 1.0 if values is None else values[i]
        tree.publish("metrics.m", SeriesBatch.sweep("m", now, [name], [v]),
                     source=name)


def collect(tree):
    got = []
    tree.subscribe("metrics.*", callback=got.append, name="store")
    return got


def points(envelopes):
    return sorted((c, t, v) for env in envelopes
                  for c, t, v in zip(env.payload.components,
                                     env.payload.times, env.payload.values))


class TestSampler:
    def test_pull_invokes_fn(self):
        tree = AggregatorTree(leaves=1)
        got = collect(tree)
        sample(tree, 60.0, ["n0"], [5.0])
        assert got == []            # buffered at the leaf until pumped
        tree.pump(60.0)
        assert points(got) == [("n0", 60.0, 5.0)]


class TestAggregator:
    def test_requires_children(self):
        with pytest.raises(ValueError):
            AggregatorTree(leaves=0)

    def test_fan_in_collects_all(self):
        tree = AggregatorTree(leaves=1)
        got = collect(tree)
        sample(tree, 0.0, [f"n{i}" for i in range(5)])
        tree.pump(0.0)
        assert len(points(got)) == 5
        # the leaf merged the five sampler batches into one message
        assert len(got) == 1

    def test_stats_accumulate(self):
        tree = AggregatorTree(leaves=1)
        collect(tree)
        for now in (0.0, 60.0):
            sample(tree, now, ["n0"])
            tree.pump(now)
        s = tree.stats()
        assert s.batches_in == 2
        assert s.points_in == 2
        assert s.points_forwarded == 2
        assert s.upstream_messages > 0


class TestBuildTree:
    def test_single_level_when_fanin_large(self):
        tree = AggregatorTree(leaves=8, fan_in=16)
        got = collect(tree)
        # one merge level above the leaves
        assert tree.levels == 2
        sample(tree, 0.0, [f"n{i}" for i in range(8)])
        tree.flush()
        assert len(points(got)) == 8

    def test_multi_level_tree(self):
        tree = AggregatorTree(leaves=64, fan_in=4)
        got = collect(tree)
        # 64 -> 16 -> 4 -> 1: three merge levels above the leaves
        assert tree.levels == 4
        sample(tree, 0.0, [f"n{i}" for i in range(64)])
        tree.flush()
        assert len(points(got)) == 64

    def test_all_samples_survive_any_fanin(self):
        for fan_in in (2, 3, 5, 40):
            tree = AggregatorTree(leaves=37, fan_in=fan_in)
            got = collect(tree)
            sample(tree, 0.0, [f"n{i}" for i in range(37)],
                   [float(i) for i in range(37)])
            tree.flush()
            values = sorted(v for _, _, v in points(got))
            assert values == [float(i) for i in range(37)]

    def test_fan_in_validated(self):
        with pytest.raises(ValueError):
            AggregatorTree(leaves=4, fan_in=1)

    def test_synchronized_timestamps(self):
        tree = AggregatorTree(leaves=10, fan_in=3)
        got = collect(tree)
        sample(tree, 120.0, [f"n{i}" for i in range(10)])
        tree.pump(120.0)
        assert len(points(got)) == 10
        assert all(t == 120.0 for _, t, _ in points(got))

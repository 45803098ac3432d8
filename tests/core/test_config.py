"""A deployment as data: ``build_site`` applies what a SiteConfig says."""

import pytest

from repro.cluster import Machine, build_dragonfly
from repro.sites import SiteConfig, build_site
from repro.sources.health import NodeHealthSuite
from repro.sources.sedc import SedcCollector


@pytest.fixture()
def machine():
    return Machine(build_dragonfly(groups=2, chassis_per_group=3,
                                   blades_per_chassis=4), seed=1)


class TestCadences:
    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError, match="metric_interval_s"):
            SiteConfig(metric_interval_s=0.0)


class TestBuild:
    def test_default_builds_full_pipeline(self, machine):
        pipeline = build_site(SiteConfig(), machine)
        names = {c.name for c in pipeline.scheduler.collectors}
        assert "node_counters" in names
        assert "benchmark_suite" in names
        assert machine.scheduler.health_gate is not None
        assert pipeline.health_gate is not None

    def test_minimal_pipeline_runs(self, machine):
        collectors = [SedcCollector(60.0), NodeHealthSuite(interval_s=600.0)]
        pipeline = build_site(SiteConfig(with_health_gate=False), machine,
                              overrides={"collectors": collectors})
        pipeline.run(duration_s=180.0, dt=10.0)
        assert pipeline.tsdb.stats().samples > 0
        assert machine.scheduler.health_gate is None
        assert pipeline.health_gate is None

    def test_disabled_collectors_skipped(self, machine):
        # a collector subset replaces the default complement outright
        pipeline = build_site(SiteConfig(with_health_gate=False), machine,
                              overrides={"collectors": [SedcCollector(60.0)]})
        names = {c.name for c in pipeline.scheduler.collectors}
        assert names == {"sedc"}

    def test_intervals_applied(self, machine):
        cfg = SiteConfig(metric_interval_s=120.0, probe_interval_s=300.0,
                         bench_interval_s=1200.0, health_interval_s=1800.0)
        pipeline = build_site(cfg, machine)
        interval = {c.name: c.interval_s
                    for c in pipeline.scheduler.collectors}
        assert interval["sedc"] == 120.0
        assert interval["fs_probes"] == 300.0
        assert interval["benchmark_suite"] == 1200.0
        assert interval["node_health"] == 1800.0

    def test_tick_and_renotify_applied(self, machine):
        cfg = SiteConfig(tick_s=5.0, renotify_s=60.0, with_health_gate=False)
        pipeline = build_site(cfg, machine)
        assert pipeline.tick_s == 5.0
        assert pipeline.alerts.renotify_s == 60.0

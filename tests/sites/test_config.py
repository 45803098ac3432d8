"""The declarative site layer: validation, live-object overrides, and
the config round-trip contract.

A :class:`~repro.sites.config.SiteConfig` is a whole deployment as
data; building it (:func:`~repro.sites.build.build_site`) and then
introspecting the live stack
(:func:`~repro.sites.build.site_capabilities`) must reproduce the
declared capability row *exactly* — that equality is what keeps the
regenerated Table I machine-checkable instead of hand-maintained.
"""

import pytest

from repro.pipeline import MonitoringPipeline
from repro.serve.quota import TenantQuota
from repro.sites import (
    PAPER_SITES,
    SiteConfig,
    build_machine,
    build_site,
    paper_site,
    site_capabilities,
)


def make_machine():
    return build_machine(SiteConfig())


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = SiteConfig()
        assert cfg.name == ""
        assert cfg.expected_nodes() == 2 * 3 * 4 * 4

    def test_qualified_name_syntax_is_reserved(self):
        with pytest.raises(ValueError, match="may not contain"):
            SiteConfig(name="a/b")
        with pytest.raises(ValueError, match="may not contain"):
            SiteConfig(name="two words")

    def test_unknown_topology(self):
        with pytest.raises(ValueError, match="unknown topology"):
            SiteConfig(topology="hypercube")

    def test_dragonfly_wiring_constraint(self):
        with pytest.raises(ValueError, match="multiple of 3"):
            SiteConfig(chassis_per_group=4)

    def test_torus_dims(self):
        with pytest.raises(ValueError, match="three counts"):
            SiteConfig(topology="torus", torus_dims=(4, 4, 0))
        cfg = SiteConfig(topology="torus", torus_dims=(3, 2, 2))
        assert cfg.expected_nodes() == 3 * 2 * 2 * 2

    def test_unknown_transport(self):
        with pytest.raises(ValueError, match="unknown transport"):
            SiteConfig(transport="carrier-pigeon")

    def test_bad_counts(self):
        with pytest.raises(ValueError, match="shards"):
            SiteConfig(shards=0)
        with pytest.raises(ValueError, match="workers"):
            SiteConfig(workers=0)
        with pytest.raises(ValueError, match="chunk_size"):
            SiteConfig(chunk_size=1)
        with pytest.raises(ValueError, match="pyramid_levels"):
            SiteConfig(pyramid_levels=())

    def test_bad_intervals(self):
        with pytest.raises(ValueError, match="tick_s"):
            SiteConfig(tick_s=0.0)
        with pytest.raises(ValueError, match="selfmon_interval_s"):
            SiteConfig(selfmon_interval_s=-1.0)
        # None means "selfmon off", not an interval
        assert SiteConfig(selfmon_interval_s=None).selfmon_interval_s is None

    def test_gpu_nodes_shapes(self):
        SiteConfig(gpu_nodes=None)
        SiteConfig(gpu_nodes="all")
        SiteConfig(gpu_nodes=("c0-0c0s0n0",))
        with pytest.raises(ValueError, match="gpu_nodes"):
            SiteConfig(gpu_nodes=42)


class TestFromKnobs:
    """Building from knobs: a live object passed next to the config
    replaces what the config would build, and the historically
    mutually-exclusive pairs raise in one place, the pipeline."""

    def test_tsdb_vs_store_dir(self):
        with pytest.raises(ValueError,
                           match="pass either tsdb= or store_dir=, not both"):
            MonitoringPipeline(make_machine(), SiteConfig(store_dir="/tmp/x"),
                               tsdb=object())

    def test_tsdb_vs_shards(self):
        with pytest.raises(ValueError,
                           match="pass either tsdb= or shards=, not both"):
            MonitoringPipeline(make_machine(), SiteConfig(shards=4),
                               tsdb=object())

    def test_workers_vs_executor(self):
        with pytest.raises(ValueError,
                           match="pass either workers= or executor=, not both"):
            MonitoringPipeline(make_machine(), SiteConfig(workers=2),
                               executor=4)

    def test_int_executor_aliases_workers(self):
        declared = MonitoringPipeline(make_machine(), SiteConfig(workers=3))
        live = MonitoringPipeline(make_machine(), executor=3)
        assert declared.executor.workers == live.executor.workers == 3
        declared.executor.shutdown()
        live.executor.shutdown()

    def test_instances_become_overrides(self):
        from repro.runtime.executor import SerialExecutor
        from repro.storage.tsdb import TimeSeriesStore

        store, ex = TimeSeriesStore(), SerialExecutor()
        p = MonitoringPipeline(make_machine(), tsdb=store, executor=ex)
        assert p.tsdb is store and p.executor is ex
        assert p.site_config.shards is None and p.site_config.workers is None

    def test_string_transport_is_declarative(self):
        from repro.transport.aggtree import AggregatorTree

        p = MonitoringPipeline(make_machine(), SiteConfig(transport="tree"))
        assert isinstance(p.bus, AggregatorTree)

    def test_instance_transport_is_an_override(self):
        from repro.transport import MessageBus

        bus = MessageBus()
        p = MonitoringPipeline(make_machine(), SiteConfig(transport="tree"),
                               transport=bus)
        assert p.bus is bus

    def test_build_site_raises_the_same_ladder(self):
        machine = build_machine(SiteConfig())
        with pytest.raises(ValueError,
                           match="pass either tsdb= or shards=, not both"):
            build_site(SiteConfig(shards=2), machine,
                       overrides={"tsdb": object()})
        with pytest.raises(ValueError,
                           match="pass either workers= or executor=, not both"):
            build_site(SiteConfig(workers=2), machine,
                       overrides={"executor": 2})


class TestRoundTrip:
    """SiteConfig -> build_site -> introspect reproduces the declaration."""

    @pytest.mark.parametrize("name", sorted(PAPER_SITES))
    def test_every_paper_preset_round_trips(self, name):
        config = paper_site(name)
        pipeline = build_site(config)
        assert site_capabilities(pipeline) == config.capabilities()

    def test_anonymous_default_round_trips(self):
        config = SiteConfig()
        pipeline = build_site(config)
        assert site_capabilities(pipeline) == config.capabilities()
        # anonymous single-site keeps the historic selfmon identity
        assert pipeline.site == ""

    def test_disk_tier_round_trips(self, tmp_path):
        config = SiteConfig(name="d", shards=2,
                            store_dir=str(tmp_path / "cold"))
        pipeline = build_site(config)
        caps = site_capabilities(pipeline)
        assert caps == config.capabilities()
        assert caps["disk"] is True and caps["shards"] == 2

    def test_quotas_round_trip(self):
        config = SiteConfig(name="q", quotas={
            "users": TenantQuota(qps=10.0), "ops": TenantQuota(),
        })
        assert site_capabilities(build_site(config))["tenants"] == 2

    def test_unknown_preset_is_a_clear_error(self):
        with pytest.raises(KeyError, match="unknown site"):
            paper_site("antarctica")

    def test_ten_sites_and_they_differ(self):
        assert len(PAPER_SITES) == 10
        rows = [c.capabilities() for c in PAPER_SITES.values()]
        # heterogeneity is the point: the rows must not collapse
        assert len({r["transport"] for r in rows}) == 3
        assert len({(r["topology"], r["nodes"]) for r in rows}) > 1


class TestDefaultPipelineShim:
    """``build_site`` over a caller's machine: the one-site assembly
    every scenario and example uses."""

    def test_plain_call_is_anonymous_and_runs(self):
        machine = build_machine(SiteConfig(seed=3))
        pipeline = build_site(SiteConfig(seed=3), machine)
        assert isinstance(pipeline, MonitoringPipeline)
        assert pipeline.site == ""
        pipeline.run(hours=0.05, dt=10.0)
        pipeline.bus.flush()
        report = pipeline.delivery_report()
        assert report.balanced and report.unaccounted == 0

    def test_shim_attaches_the_declared_config(self):
        machine = build_machine(SiteConfig())
        config = SiteConfig(shards=2, workers=2)
        pipeline = build_site(config, machine)
        assert pipeline.site_config is config
        assert pipeline.tsdb.n_shards == 2
        assert pipeline.executor.workers == 2
        pipeline.executor.shutdown()

    def test_pipeline_only_plumbing_still_passes_through(self):
        from repro.core.registry import default_registry

        reg = default_registry()
        machine = build_machine(SiteConfig())
        pipeline = build_site(SiteConfig(), machine,
                              overrides={"registry": reg})
        assert pipeline.registry is reg

    def test_bare_constructor_builds_the_default_stack(self):
        """``MonitoringPipeline(machine)`` reads the default SiteConfig:
        flat bus, one store with 512-sample chunks and the default
        pyramid, serial executor, 60 s selfmon, 10 s tick."""
        from repro.storage.rollup import DEFAULT_LEVELS
        from repro.storage.tsdb import TimeSeriesStore
        from repro.transport import MessageBus

        p = MonitoringPipeline(make_machine())
        assert type(p.bus) is MessageBus
        assert type(p.tsdb) is TimeSeriesStore
        assert p.tsdb.chunk_size == 512 and p.tsdb.disk is None
        assert tuple(p.tsdb.pyramid_levels) == tuple(DEFAULT_LEVELS)
        assert not p.executor.parallel
        assert p.selfmon.interval_s == 60.0 and p.tick_s == 10.0
        assert p.site_config == SiteConfig() and p.site == ""
        assert p.health_gate is None

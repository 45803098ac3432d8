"""Build a site's machine + monitoring stack from its declared config.

``build_site(config) -> MonitoringPipeline`` is the one assembly path:
``default_pipeline`` is now a thin shim over a one-site config, and the
federation driver calls this per site.  ``site_capabilities(pipeline)``
derives the *live* Table I row from the assembled stack — the dict
:meth:`~repro.sites.config.SiteConfig.capabilities` declares — so
declared-vs-built drift is machine-checkable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..cluster.machine import Machine
from ..cluster.scheduler import PackedPlacement
from ..cluster.topology import build_dragonfly, build_torus
from ..cluster.workload import JobGenerator
from ..obs.chaos import ChaosTransport
from ..sources.health import HealthGate
from .config import SiteConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..pipeline import MonitoringPipeline

__all__ = ["build_machine", "build_site", "site_capabilities"]


def build_machine(config: SiteConfig) -> Machine:
    """The simulated platform a :class:`SiteConfig` declares."""
    if config.topology == "dragonfly":
        topo = build_dragonfly(
            groups=config.groups,
            chassis_per_group=config.chassis_per_group,
            blades_per_chassis=config.blades_per_chassis,
            nodes_per_router=config.nodes_per_router,
        )
    else:
        nx_dim, ny_dim, nz_dim = config.torus_dims
        topo = build_torus(nx_dim, ny_dim, nz_dim)
    return Machine(
        topo,
        placement=PackedPlacement(),
        job_generator=JobGenerator(
            mean_interarrival_s=config.mean_interarrival_s,
            max_nodes=config.max_job_nodes,
            seed=config.seed,
        ),
        gpu_nodes=config.gpu_nodes,
        seed=config.seed,
    )


def _build_store(config: SiteConfig):
    """The numeric-store tier the config declares (None = pipeline default)."""
    from ..storage.sharded import ShardedTimeSeriesStore
    from ..storage.tsdb import TimeSeriesStore

    if config.shards is not None:
        return ShardedTimeSeriesStore(
            shards=config.shards,
            chunk_size=config.chunk_size,
            pyramid_levels=config.pyramid_levels,
            disk_dir=config.store_dir,
            hot_bytes=config.hot_bytes,
        )
    if config.store_dir is not None:
        from ..storage.diskier import DiskTier
        return TimeSeriesStore(
            chunk_size=config.chunk_size,
            pyramid_levels=config.pyramid_levels,
            disk=DiskTier(config.store_dir, hot_bytes=config.hot_bytes),
        )
    return TimeSeriesStore(
        chunk_size=config.chunk_size,
        pyramid_levels=config.pyramid_levels,
    )


def build_site(
    config: SiteConfig,
    machine: Machine | None = None,
    overrides: dict | None = None,
) -> "MonitoringPipeline":
    """Assemble the full monitoring stack the config declares.

    ``overrides`` carries instance-typed knobs that cannot be expressed
    as data (the dict :meth:`SiteConfig.from_knobs` returns — a live
    ``Transport``/store/``ExecutionModel``, plus any pipeline-only
    plumbing like ``sec=``/``registry=``/``stages=``); they install
    verbatim over the config's declarative choices.
    """
    from ..pipeline import MonitoringPipeline, default_collectors
    from ..transport.base import make_transport

    overrides = dict(overrides) if overrides else {}
    if machine is None:
        machine = build_machine(config)
    transport = overrides.pop("transport", None)
    if transport is None:
        transport = make_transport(config.transport)
    tsdb = overrides.pop("tsdb", None)
    if tsdb is None:
        tsdb = _build_store(config)
    executor = overrides.pop("executor", config.workers)
    collectors = overrides.pop("collectors", None)
    if collectors is None:
        collectors = default_collectors(
            machine,
            metric_interval_s=config.metric_interval_s,
            probe_interval_s=config.probe_interval_s,
            bench_interval_s=config.bench_interval_s,
            health_interval_s=config.health_interval_s,
            seed=config.seed,
        )
    pipeline = MonitoringPipeline(
        machine,
        collectors=collectors,
        transport=transport,
        tsdb=tsdb,
        tick_s=config.tick_s,
        renotify_s=config.renotify_s,
        selfmon_interval_s=config.selfmon_interval_s,
        supervision=config.supervision,
        collector_budget_s=config.collector_budget_s,
        freshness=config.freshness,
        executor=executor,
        serve_quotas=config.quotas,
        site=config.name,
        **overrides,
    )
    pipeline.site_config = config
    if config.with_health_gate and machine.scheduler.health_gate is None:
        gate = HealthGate(machine)
        machine.scheduler.health_gate = gate.gate
        pipeline.health_gate = gate
    return pipeline


# transport classes -> declared tier names (the capability-row vocabulary)
_TRANSPORT_TIER_OF = {
    "MessageBus": "flat",
    "PartitionedBus": "partitioned",
    "AggregatorTree": "tree",
}


def site_capabilities(pipeline: "MonitoringPipeline") -> dict:
    """The *live* Table I capability row of an assembled stack.

    Reads only what the running pipeline exposes (topology, transport
    and store types, executor width, quota table) so any drift between
    a :class:`SiteConfig` and what actually got built shows up as a
    dict inequality against :meth:`SiteConfig.capabilities`.
    """
    machine = pipeline.machine
    config = pipeline.site_config
    topo_name = type(machine.topo).__name__.replace("Topology", "").lower()
    bus = pipeline.bus
    if isinstance(bus, ChaosTransport):    # the chaos wrapper is transparent
        bus = bus.inner
    tier = _TRANSPORT_TIER_OF.get(type(bus).__name__, type(bus).__name__)
    tsdb = pipeline.tsdb
    return {
        "site": pipeline.site,
        "system": config.system if config is not None else "",
        "topology": topo_name,
        "nodes": len(machine.topo.nodes),
        "gpus": machine.gpus.n if machine.gpus is not None else 0,
        "transport": tier,
        "shards": int(tsdb.n_shards),
        "levels": len(tsdb.pyramid_levels or ()),
        "disk": tsdb.disk_stats() is not None,
        "workers": int(pipeline.executor.workers),
        "cadence_s": float(pipeline.scheduler.collectors[0].interval_s)
        if pipeline.scheduler.collectors else 0.0,
        "supervised": pipeline.supervisor is not None,
        "freshness": pipeline.freshness is not None,
        "tenants": len(pipeline.frontend.governor.quotas()),
    }

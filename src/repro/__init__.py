"""repro — an end-to-end HPC monitoring stack.

Reproduction of *Large-Scale System Monitoring Experiences and
Recommendations* (Ahlgren et al., IEEE CLUSTER 2018, HPCMASPA workshop):
the complete monitoring capability ten large Cray sites describe building
piecemeal — data sources, transport, storage, analysis, visualization,
and response — demonstrated against a simulated large-scale HPC platform
with realistic failure modes.

Quick tour::

    from repro.cluster import JobGenerator, Machine, build_dragonfly
    from repro.sites import SiteConfig, build_site

    machine = Machine(build_dragonfly(groups=2, chassis_per_group=3,
                                      blades_per_chassis=4),
                      job_generator=JobGenerator(seed=1))
    pipeline = build_site(SiteConfig(seed=1), machine)
    pipeline.run(hours=1)
    print(pipeline.active_alerts())

Subpackages:

- :mod:`repro.core`      — metric/event datatypes, schema registry, clocks
- :mod:`repro.cluster`   — the simulated platform (topology, network,
  filesystem, scheduler, workload, faults)
- :mod:`repro.sources`   — collectors: counters, SEDC, ERD, logs, probes,
  benchmarks, health checks, power, queue stats
- :mod:`repro.transport` — pluggable transports: flat pub/sub bus,
  partitioned bus, LDMS-style coalescing aggregator tree, syslog
  forwarding
- :mod:`repro.storage`   — time-series store (single or sharded),
  out-of-core disk tier, relational store, log store, job index
- :mod:`repro.analysis`  — anomaly/trend/congestion/power-signature/
  aggressor-victim/queue/log analyses
- :mod:`repro.response`  — SEC-style event correlation, alerting, actions
- :mod:`repro.viz`       — aggregation, drill-down dashboards, figures
- :mod:`repro.sites`     — declarative site configs, the stack builder,
  the ten paper-site presets and their federation
- :mod:`repro.obs`       — self-observability: trace spans, ``selfmon.*``
  meta-metrics, pipeline introspection ("monitor the monitoring")
"""

__version__ = "1.0.0"

from . import analysis, cluster, core, obs, response, sources, storage, transport, viz
from .pipeline import MonitoringPipeline, default_collectors

__all__ = [
    "analysis",
    "cluster",
    "core",
    "obs",
    "response",
    "sources",
    "storage",
    "transport",
    "viz",
    "MonitoringPipeline",
    "default_collectors",
    "__version__",
]

"""Power aggregation: node -> cabinet -> system (the Figure 3 axes).

KAUST's Shaheen2 monitoring (Section II-7) watches total system power
and per-cabinet power; load imbalance shows up as up-to-3x variation
between cabinets and a ~1.9x drop in total draw.  Aggregation here is a
single vectorized ``np.bincount`` over the node->cabinet index map, plus
a per-cabinet blower/overhead term so cabinet totals have the right
shape even when idle.
"""

from __future__ import annotations

import numpy as np

from ..core.metric import component_array
from .node import NodeStore
from .topology import Topology

__all__ = ["PowerModel"]


class PowerModel:
    """Cabinet and system power aggregation over a :class:`NodeStore`.

    Cabinet blowers are variable-speed: a base draw plus a dynamic term
    tracking the cabinet's thermal load (node power as a fraction of the
    cabinet's maximum).  An idle cabinet therefore sits far below a busy
    one — which is what lets KAUST's ~3x cabinet-to-cabinet variation
    show up at the cabinet meter and not just at the node VRMs.
    """

    def __init__(
        self,
        topo: Topology,
        nodes: NodeStore,
        blower_base_w: float = 1500.0,
        blower_dyn_w: float = 3000.0,
    ) -> None:
        self.topo = topo
        self.nodes = nodes
        self.blower_base_w = float(blower_base_w)
        self.blower_dyn_w = float(blower_dyn_w)
        self.cabinets = topo.cabinets
        self.cabinet_name_array = component_array(self.cabinets)
        cab_index = {c: i for i, c in enumerate(self.cabinets)}
        self.node_cab_idx = np.fromiter(
            (cab_index[topo.node_cabinet[n]] for n in nodes.names),
            dtype=np.int64,
            count=len(nodes.names),
        )
        self._cab_nodes = np.bincount(
            self.node_cab_idx, minlength=len(self.cabinets)
        )

    def cabinet_power_w(self) -> np.ndarray:
        """Per-cabinet power: node sum plus variable-speed blowers."""
        sums = np.bincount(
            self.node_cab_idx,
            weights=self.nodes.power_w,
            minlength=len(self.cabinets),
        )
        cab_max = np.maximum(self._cab_nodes, 1) * self.nodes.max_power_w
        load_frac = np.clip(sums / cab_max, 0.0, 1.0)
        return sums + self.blower_base_w + self.blower_dyn_w * load_frac

    def system_power_w(self) -> float:
        return float(self.cabinet_power_w().sum())

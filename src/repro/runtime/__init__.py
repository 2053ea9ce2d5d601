"""Distributed runtime: per-node PSN dataflows over either execution
target -- the virtual-time simulated network or the live wall-clock
asyncio runtime -- with transport-level optimizations and dynamic
workloads."""

from repro.runtime.cluster import Cluster, Deployment
from repro.runtime.config import RuntimeConfig, ShareSpec
from repro.runtime.live import LiveCluster, LiveDeployment
from repro.runtime.node import NodeRuntime
from repro.runtime.softstate import SoftStateManager
from repro.runtime.updates import LinkUpdateDriver

__all__ = [
    "Cluster",
    "Deployment",
    "LiveCluster",
    "LiveDeployment",
    "RuntimeConfig",
    "ShareSpec",
    "NodeRuntime",
    "SoftStateManager",
    "LinkUpdateDriver",
]

"""Cluster runtime: the "Spark execution layer" substrate.

The paper's microbatch mode inherits Spark's fine-grained task execution
(§6.2).  What this package runs as real code is the process executor —
per-task retry, worker-death respawn, deadline kill of a straggling
worker, N→M rescale by restart; backup copies of straggling tasks and
dynamic load balancing over a shared queue are not reproduced
(DESIGN.md §3).

* :mod:`repro.cluster.process_pool` — forked workers running an epoch's
  per-shard operator tasks over shared-memory batches;
* :mod:`repro.cluster.perfmodel` — the calibrated analytical model used
  for multi-node scaling numbers (Figure 6b), since a laptop cannot host
  20 × 8-core nodes;
* :mod:`repro.cluster.costmodel` — the cloud-cost model behind the
  run-once trigger savings analysis (§7.3).
"""

from repro.cluster.costmodel import DeploymentCostModel
from repro.cluster.perfmodel import ClusterPerformanceModel
from repro.cluster.process_pool import ProcessPool, TaskFailure

__all__ = [
    "ClusterPerformanceModel",
    "DeploymentCostModel",
    "ProcessPool",
    "TaskFailure",
]

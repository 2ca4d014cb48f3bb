"""Cluster-level models.

The paper's microbatch mode inherits Spark's fine-grained task execution
(§6.2).  This reproduction runs each operator as one task per epoch on
the engine thread, with no state partitioning or rescaling; per-task
retry, worker respawn, deadline kill and backup copies of
straggling tasks are not reproduced (DESIGN.md §3).  What remains here:

* :mod:`repro.cluster.costmodel` — the cloud-cost model behind the
  run-once trigger savings analysis (§7.3).

The multi-node scaling model behind Figure 6b lives with its benchmarks
(``benchmarks/perfmodel.py``).
"""

from repro.cluster.costmodel import DeploymentCostModel

__all__ = ["DeploymentCostModel"]

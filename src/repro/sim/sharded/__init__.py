"""Sharded parallel simulation: conservative time-window DES.

The cluster simulation is partitioned across shards of workers — one
event kernel (:class:`~repro.sim.core.Environment`) per shard — and
synchronized by conservative time windows at the cluster-manager
boundary.  See docs/simulation.md ("Sharded execution") for the window
and lookahead derivation, the determinism rules, and when N=1 is the
faster choice.

Public surface:

* :func:`run_sharded_replay` — drive a :class:`~repro.trace.stream.StreamedTrace`
  or an eager :class:`~repro.trace.azure.AzureTrace` through a sharded
  fleet and return a :class:`ShardedReplayReport`.  It is the repo's
  only trace-replay model (Figs 1/10, fig10full, streamed scenarios).
* :class:`ShardedConfig` — fleet/platform/window parameters.
* ``messages`` — the v2 wire-format window batch/report codec.
"""

from .coordinator import ShardedConfig, ShardedReplayReport, run_sharded_replay

__all__ = ["ShardedConfig", "ShardedReplayReport", "run_sharded_replay"]

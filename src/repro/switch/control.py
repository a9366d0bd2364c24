"""Switch control plane: aggregator-slot allocation and counter polling.

The paper's central scheduler "uniformly allocates and recycles aggregator
slots" across jobs and "periodically polls hardware counters from the data
plane to obtain link utilization metrics" (Section IV). This module is that
control plane: a :class:`SlotAllocator` partitions each switch's pool among
registered aggregation jobs, and :class:`CounterPoller` turns dataplane
counters into utilisation samples for the online scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.switch.dataplane import SwitchDataplane


@dataclass(frozen=True)
class SlotLease:
    """A job's reservation of ``n_slots`` on one switch."""

    job_id: int
    switch_id: int
    n_slots: int


class SlotAllocator:
    """Uniform allocation/recycling of aggregator slots across jobs.

    Each registered switch exposes a fixed pool. Jobs request slots; the
    allocator grants ``min(requested, fair share of the free pool)`` so a
    single tenant cannot starve others — the multi-tenancy issue ATP's
    design highlights.
    """

    def __init__(self) -> None:
        self._pools: dict[int, int] = {}        # switch -> total slots
        self._granted: dict[int, int] = {}      # switch -> granted slots
        self._leases: dict[tuple[int, int], SlotLease] = {}
        self._jobs_per_switch: dict[int, set[int]] = {}

    def register_switch(self, switch_id: int, n_slots: int) -> None:
        """Expose a switch's slot pool to the allocator."""
        if n_slots < 0:
            raise ValueError(f"n_slots must be >= 0, got {n_slots}")
        if switch_id in self._pools:
            raise ValueError(f"switch {switch_id} already registered")
        self._pools[switch_id] = n_slots
        self._granted[switch_id] = 0
        self._jobs_per_switch[switch_id] = set()

    def free_slots(self, switch_id: int) -> int:
        """Slots not currently leased on ``switch_id``."""
        return self._pools[switch_id] - self._granted[switch_id]

    def request(
        self, job_id: int, switch_id: int, n_slots: int
    ) -> SlotLease:
        """Lease up to ``n_slots`` on a switch for a job.

        The grant is capped at an even share of the pool among tenants on
        that switch (counting the requester), then at the free pool.
        """
        if n_slots < 1:
            raise ValueError(f"n_slots must be >= 1, got {n_slots}")
        if (job_id, switch_id) in self._leases:
            raise ValueError(
                f"job {job_id} already holds a lease on switch {switch_id}"
            )
        pool = self._pools[switch_id]
        tenants = len(self._jobs_per_switch[switch_id]) + 1
        fair = max(1, pool // tenants)
        grant = min(n_slots, fair, self.free_slots(switch_id))
        if grant <= 0:
            raise RuntimeError(
                f"switch {switch_id} has no free aggregator slots"
            )
        lease = SlotLease(job_id, switch_id, grant)
        self._leases[(job_id, switch_id)] = lease
        self._granted[switch_id] += grant
        self._jobs_per_switch[switch_id].add(job_id)
        return lease

    def release(self, job_id: int, switch_id: int) -> None:
        """Recycle a job's lease back into the pool."""
        lease = self._leases.pop((job_id, switch_id))
        self._granted[switch_id] -= lease.n_slots
        self._jobs_per_switch[switch_id].discard(job_id)


@dataclass
class CounterPoller:
    """Periodic dataplane-counter polling with rate derivation.

    Converts two successive counter snapshots into packet rates; the
    online scheduler maps rates on a switch's ports into link-utilisation
    updates (Section IV: "statistics ... used to update the cost
    parameters in the online scheduling process").
    """

    dataplane: SwitchDataplane
    _last: dict[str, int] = field(default_factory=dict)
    _last_time: float = 0.0

    def poll(self, now: float) -> dict[str, float]:
        """Sample counters at time ``now``; returns per-second rates."""
        snap = self.dataplane.counters()
        rates: dict[str, float] = {}
        dt = now - self._last_time
        if self._last and dt > 0:
            for k in ("packets_in", "packets_out", "completions",
                      "drops_no_slot"):
                rates[k + "_per_s"] = (snap[k] - self._last[k]) / dt
        self._last = snap
        self._last_time = now
        rates["pending"] = float(snap["pending"])
        rates["free_slots"] = float(snap["free_slots"])
        return rates

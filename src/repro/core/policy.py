"""Online transmission policies and the policy cost table (paper §III-D).

A *policy* ``c`` is a routing configuration for one GPU group's
synchronisation: the scheme (INA at a particular switch, hybrid, or
ring) together with the directed links it occupies. The per-GPU policy
cost table tracks, for each policy, a **virtual bandwidth-utilisation
ratio** ``b_c``; selecting a policy for a transfer of ``D`` bytes costs

    ``J(c, D) = b_c + delta``,  ``delta = D / (T_u * C_c)``  (Eq. 16)

where ``T_u`` is the estimation window and ``C_c`` the policy's
bottleneck link capacity — i.e. ``delta`` is the utilisation the new
transfer adds to the tightest link if spread over the window. (The paper
writes the denominator as ``T_u b_c``; with ``b_c`` a dimensionless
ratio that expression is not a utilisation, so we read it as the
bottleneck *bandwidth* of ``c`` — the natural normalisation that makes
Eq. 17's update a ratio. Documented in DESIGN.md.)

After selection, every policy's ``b_c`` is bumped (Eq. 17): the winner by
``delta``, the others by ``delta * f_{(c*,c)}`` — the load-penalty factor,
an EWMA (Eq. 18) of the link-sharing ratio

    ``W_{(c*,c)} = sum_{e in c* ∩ c} B(e) / sum_{e in c} B(e)``.

Periodically the controller *refreshes* ``b_c`` from monitored link
utilisation (switch counters / DCGM), pulling the virtual values back to
ground truth.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.network.linkstate import LinkLoadTracker
from repro.util.validation import require_positive


@dataclass(frozen=True)
class Policy:
    """One routing configuration ``c`` for a GPU group's collective."""

    policy_id: int
    name: str
    #: "ina" | "ring" | "hybrid-ina" | "hybrid-ring" | "nvlink"
    mode: str
    #: aggregation switch node id when mode uses INA
    switch: int | None
    #: directed links the policy occupies
    links: tuple[int, ...]
    #: bottleneck capacity C_c over the links (bytes/s)
    bottleneck_capacity: float

    def __post_init__(self) -> None:
        require_positive("bottleneck_capacity", self.bottleneck_capacity)


def _link_sum(b: list[float], links: Sequence[int]) -> float:
    """``sum_e B(e)`` over ``links``, strictly left to right.

    Eq. 18's sums keep this order so ``W`` does not move in its last
    bits (``np.sum`` sums pairwise).
    """
    total = 0.0
    for k in links:
        total += b[k]
    return total


class PolicyCostTable:
    """The §III-D policy cost table for one GPU group.

    Holds ``b`` (virtual utilisation per policy) and ``f`` (pairwise load
    penalties). The table is conceptually replicated on every GPU of the
    group and kept consistent by the central controller; since updates
    are deterministic given the same inputs, one shared instance models
    the synchronised replicas exactly.
    """

    def __init__(
        self,
        policies: list[Policy],
        window: float = 0.1,
        gamma: float = 0.3,
    ) -> None:
        if not policies:
            raise ValueError("need at least one policy")
        for i, p in enumerate(policies):
            if p.policy_id != i:
                raise ValueError("policy_id must equal list index")
        require_positive("window", window)
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        self.policies = list(policies)
        self.window = window
        self.gamma = gamma
        n = len(policies)
        self._caps = np.array([p.bottleneck_capacity for p in policies])
        # Eq. 18's link structure is fixed for the table's life. A
        # refresh reads B(e) only on the union of the policies' links;
        # each policy's links and each pair's shared links (j's links
        # that i also uses, in j's order) are positions into that union.
        union = list(dict.fromkeys(e for p in policies for e in p.links))
        pos = {e: k for k, e in enumerate(union)}
        self._union = np.asarray(union, dtype=np.int64)
        self._links = [tuple(pos[e] for e in p.links) for p in policies]
        sets = [set(p.links) for p in policies]
        self._shared = [
            [tuple(pos[e] for e in pj.links if e in si) for pj in policies]
            for si in sets
        ]
        # refresh_utilization gathers every policy's links back to back
        # and reduces each linked policy's segment; link-less ones get 0.
        linked = [p.links for p in policies if p.links]
        self._linkless = np.array([not p.links for p in policies])
        self._cat = np.asarray(
            [e for links in linked for e in links], dtype=np.int64
        )
        self._starts = np.cumsum(
            [0] + [len(links) for links in linked[:-1]], dtype=np.int64
        )
        self.b = np.zeros(n)
        # Penalty factors start at the *static* sharing ratio so the very
        # first updates already propagate across overlapping policies.
        self.f = self._static_sharing_matrix()
        self.selections = np.zeros(n, dtype=np.int64)
        #: health mask — True rows are excluded from selection (their
        #: switch or links are believed down); all-False by default.
        self.masked = np.zeros(n, dtype=bool)

    def set_mask(self, masked: Sequence[bool]) -> bool:
        """Replace the health mask; returns True when it changed.

        Masking every policy is rejected: a group must always keep at
        least one lawful route (callers degrade the mask instead).
        """
        new = np.asarray(list(masked), dtype=bool)
        if new.shape != self.masked.shape:
            raise ValueError(
                f"mask length {new.size} != {self.masked.size} policies"
            )
        if new.all():
            raise ValueError("cannot mask every policy of a group")
        if bool(np.array_equal(new, self.masked)):
            return False
        self.masked = new
        return True

    # -- sharing structure -------------------------------------------------

    def _static_sharing_matrix(self) -> np.ndarray:
        """Initial W matrix from link-set overlap (unit link weights)."""
        n = len(self.policies)
        w = np.zeros((n, n))
        sets = [set(p.links) for p in self.policies]
        for i in range(n):
            for j in range(n):
                if i == j or not sets[j]:
                    continue
                w[i, j] = len(sets[i] & sets[j]) / len(sets[j])
        return w

    def _monitored(self, linkstate: LinkLoadTracker) -> list[float]:
        """``B(e)`` on the union of the policies' links, as one list."""
        return linkstate.available()[self._union].tolist()

    def _w(
        self, b: list[float], selected: int, other: int, denom: float
    ) -> float:
        """``W`` from monitored ``b`` and ``denom = sum_{e in c} B(e)``."""
        if denom <= 0:  # also a link-less ``other``
            return 0.0
        return _link_sum(b, self._shared[selected][other]) / denom

    def sharing_ratio(
        self, linkstate: LinkLoadTracker, selected: int, other: int
    ) -> float:
        """Eq. 18's ``W_{(c*,c)}`` with monitored bandwidths ``B(e)``."""
        b = self._monitored(linkstate)
        return self._w(b, selected, other, _link_sum(b, self._links[other]))

    # -- Eq. 16 selection ----------------------------------------------------

    def delta(self, data_bytes: float) -> np.ndarray:
        """Per-policy added utilisation of a ``data_bytes`` transfer."""
        return data_bytes / (self.window * self._caps)

    def costs(self, data_bytes: float) -> np.ndarray:
        """``J(c, D) = b_c + delta`` for every policy."""
        return self.b + self.delta(data_bytes)

    def select(self, data_bytes: float) -> Policy:
        """Pick argmin-J policy and apply the Eq. 17 table update."""
        if data_bytes < 0:
            raise ValueError("data_bytes must be >= 0")
        deltas = self.delta(data_bytes)
        j = self.b + deltas
        if self.masked.any():
            # Failover: unhealthy routes are priced out of the argmin.
            # The guard keeps the fault-free fast path byte-identical.
            j = np.where(self.masked, np.inf, j)
        best = int(np.argmin(j))
        # Eq. 17: winner takes its own delta; others take delta * f.
        bump = deltas[best] * self.f[best]
        bump[best] = deltas[best]
        self.b += bump
        self.selections[best] += 1
        return self.policies[best]

    # -- periodic controller refresh ----------------------------------------

    def refresh_utilization(self, linkstate: LinkLoadTracker) -> None:
        """Reset ``b_c`` to the monitored max utilisation over its links.

        This is the controller's periodic synchronisation: virtual
        within-window increments are replaced by measured ground truth, so
        ``b`` cannot drift unboundedly.
        """
        if self._cat.size:
            util = linkstate.utilization()[self._cat]
            self.b[~self._linkless] = np.maximum.reduceat(util, self._starts)
        self.b[self._linkless] = 0.0

    def refresh_penalties(self, linkstate: LinkLoadTracker) -> None:
        """Eq. 18: EWMA-update every pairwise penalty ``f_{(c*,c)}``.

        Runs in full on every call, even when the link state has not
        changed: the EWMA still advances toward an unchanged ``W``.
        """
        b = self._monitored(linkstate)
        denoms = [_link_sum(b, links) for links in self._links]
        g = self.gamma
        f = self.f.tolist()
        for i, row in enumerate(f):
            for j, denom in enumerate(denoms):
                if i != j:
                    w = self._w(b, i, j, denom)
                    row[j] = (1 - g) * row[j] + g * w
        self.f[:] = f


@dataclass
class PolicyTableStats:
    """Diagnostics snapshot used in tests and example output."""

    names: list[str] = field(default_factory=list)
    b: list[float] = field(default_factory=list)
    selections: list[int] = field(default_factory=list)


def table_stats(table: PolicyCostTable) -> PolicyTableStats:
    """Extract a printable snapshot of a policy table."""
    return PolicyTableStats(
        names=[p.name for p in table.policies],
        b=[float(x) for x in table.b],
        selections=[int(x) for x in table.selections],
    )

"""Batch descriptors: the request-side Table I quantities.

``BatchSpec`` carries the per-request input/output lengths and exposes the
derived sums the planner's formulas consume: ``K_in`` (total input tokens),
``K_out`` (total output tokens) and ``K_in2`` (squared sum of input
lengths, the attention-cost driver in Eq. 12). The online side keeps these
fresh with the moving-average updater of Section III-B.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class BatchSpec:
    """One batch of requests (Table I: Q, l_i, O_i and derived sums)."""

    input_lengths: tuple[int, ...]
    output_lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.input_lengths) != len(self.output_lengths):
            raise ValueError("input/output length lists must match")
        if len(self.input_lengths) == 0:
            raise ValueError("batch must contain at least one request")
        if any(l <= 0 for l in self.input_lengths):
            raise ValueError("input lengths must be positive")
        if any(o < 0 for o in self.output_lengths):
            raise ValueError("output lengths must be non-negative")

    @classmethod
    def uniform(cls, q: int, input_len: int, output_len: int) -> "BatchSpec":
        """Batch of ``q`` identical requests (the Fig. 1 setup)."""
        return cls((input_len,) * q, (output_len,) * q)

    @property
    def q(self) -> int:
        """Batch size Q."""
        return len(self.input_lengths)

    @property
    def k_in(self) -> int:
        """Total input tokens, K_in = sum(l_i)."""
        return int(sum(self.input_lengths))

    @property
    def k_out(self) -> int:
        """Total output tokens, K_out = sum(O_i)."""
        return int(sum(self.output_lengths))

    @property
    def k_in2(self) -> int:
        """Squared sum of input lengths, K_in2 = sum(l_i^2)."""
        return int(sum(l * l for l in self.input_lengths))

    @property
    def max_total_len(self) -> int:
        """Longest (input + output) sequence in the batch."""
        return max(
            l + o for l, o in zip(self.input_lengths, self.output_lengths)
        )


@dataclass
class MovingAverageEstimator:
    """EWMA tracker for K_in / K_out / Q used by the online side.

    Section III-B: "we utilize state information collected by the online
    scheduler module and apply a moving average method to dynamically
    update K_in and K_out."
    """

    alpha: float = 0.2
    k_in: float = 0.0
    k_out: float = 0.0
    q: float = 0.0
    _initialised: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")

    def observe(self, batch: BatchSpec) -> None:
        """Fold one observed batch into the running averages."""
        if not self._initialised:
            self.k_in = float(batch.k_in)
            self.k_out = float(batch.k_out)
            self.q = float(batch.q)
            self._initialised = True
            return
        a = self.alpha
        self.k_in = (1 - a) * self.k_in + a * batch.k_in
        self.k_out = (1 - a) * self.k_out + a * batch.k_out
        self.q = (1 - a) * self.q + a * batch.q

    def estimate(self) -> BatchSpec:
        """Representative batch for planning from the current averages."""
        if not self._initialised:
            raise RuntimeError("no batches observed yet")
        q = max(1, round(self.q))
        in_len = max(1, round(self.k_in / q))
        out_len = max(0, round(self.k_out / q))
        return BatchSpec.uniform(q, in_len, out_len)

"""Pluggable loop-execution strategies.

Every loop the engine runs is owned by exactly one :class:`LoopStrategy`,
chosen when the loop initializes:

* :class:`FullRecompute` — the Fig. 8 baseline: every iteration rebuilds
  the working table and physically copies it back (``CopyStep``).
* :class:`RenameInPlace` — the Fig. 8 data-movement optimization: the
  rebuilt working table replaces the CTE table by an O(1) registry
  relabel (``RenameStep``).
* :class:`SemiNaiveDelta` — frontier-driven partition recomputation: only
  the rows affected by the previous iteration's changes are rebuilt, and
  the delta is scattered back by key (bit-identical to the full body).
* :class:`FixpointIncremental` — recursive CTEs: the working table *is*
  the frontier, and ``RecursiveMergeStep`` appends only genuinely new
  rows per trip.

Selection is cost-based and feedback-driven.  The compiler picks the
statically cheapest strategy (delta when the safety analyzer proves
per-key evolution, rename when enabled); at run time the engine feeds
every measured frontier back into the strategy, and
:class:`SemiNaiveDelta` *demotes itself* to the plain full-body strategy
when the frontier stays near-full — the per-iteration bookkeeping
(partition gather + keyed scatter) then costs more than the recomputation
it saves, which is exactly the PageRank shape where every rank changes
every trip.  Demotion routes iterations down the always-compiled full
body, so results stay bit-identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..plan.program import DeltaSpec, LoopSpec


class LoopStrategy:
    """How the iterations of one loop move data between trips."""

    name = "abstract"
    # Why this strategy owns the loop — set by choose_strategy() at
    # selection and surfaced as a strategy_selection decision event.
    reason = ""

    def __init__(self, spec: LoopSpec):
        self.spec = spec

    def note_frontier(self, frontier: int, total: int,
                      engine) -> "LoopStrategy":
        """Feed one measured changed-row frontier back into the strategy.

        Returns the strategy that should own the loop from here on —
        usually ``self``, or the demoted replacement."""
        return self

    def describe(self) -> str:
        return self.name


class FullRecompute(LoopStrategy):
    """Rebuild everything, copy it back (the Fig. 8 baseline)."""

    name = "full-recompute"


class RenameInPlace(LoopStrategy):
    """Rebuild everything, swap the result pointer (Fig. 8 optimized)."""

    name = "rename-in-place"


class FixpointIncremental(LoopStrategy):
    """Recursive CTEs: per-trip work is the new-row frontier itself."""

    name = "fixpoint-incremental"


class DeltaLoopRuntime:
    """Mutable per-loop state for the semi-naive delta path.

    Created when the loop initializes (or by the first
    :class:`DeltaFusedStep` execution), populated by
    :class:`DeltaCaptureStep` after a full iteration, consumed and updated
    by the fused delta step on every delta iteration.
    """

    __slots__ = ("spec", "active", "disabled", "demoted", "schema",
                 "columns", "key_sorted", "key_positions", "in_working",
                 "frontier_keys", "last_frontier", "pending_positions",
                 "link_indexes")

    def __init__(self, spec: DeltaSpec):
        self.spec = spec
        # Delta state captured and valid: the gate may take the delta path.
        self.active = False
        # Off for this run (key validation failed, the keyset guard
        # tripped, or the strategy demoted itself).
        self.disabled = False
        # True only for threshold demotions: the delta machinery is
        # sound, just not profitable right now — the loop stays eligible
        # for re-promotion.  Permanent disqualifications (NULL or
        # duplicate keys, a tripped keyset guard) leave this False.
        self.demoted = False
        self.schema = None
        # Column objects of the current CTE table (shared, immutable).
        self.columns: list = []
        # Sorted comparable key values + the row position of each.
        self.key_sorted = None
        self.key_positions = None
        # Merge path only: per-row "key was in last iteration's working
        # table" flags, which drive the merge join's row ordering.
        self.in_working = None
        # Comparable key values changed by the last iteration.
        self.frontier_keys = None
        self.last_frontier = 0
        # Row positions gathered by the pending partition step.
        self.pending_positions = None
        # (table, src, dst) -> (sorted src values, dst values in that
        # order) for frontier expansion through base tables.
        self.link_indexes: dict = {}


class SemiNaiveDelta(LoopStrategy):
    """Frontier-driven partition recomputation, with self-demotion.

    Each measured frontier (from delta capture after a full iteration, or
    from delta apply after a delta iteration) feeds
    :meth:`note_frontier`.  Once ``delta_demotion_patience`` consecutive
    frontiers cover at least ``delta_demotion_threshold`` of the table,
    the strategy disables its runtime — the gate then routes every later
    iteration down the full body — and hands the loop to the strategy the
    compiler emitted for that body (rename or copy).
    """

    name = "semi-naive-delta"

    def __init__(self, spec: LoopSpec, options,
                 runtime: DeltaLoopRuntime):
        super().__init__(spec)
        self.runtime = runtime
        self._options = options
        self._threshold = options.delta_demotion_threshold
        self._patience = options.delta_demotion_patience
        self._demotion_on = options.enable_strategy_demotion
        self._streak = 0

    def note_frontier(self, frontier: int, total: int,
                      engine) -> LoopStrategy:
        if not self._demotion_on or self.runtime.disabled:
            return self
        if total <= 0 or frontier < self._threshold * total:
            self._streak = 0
            return self
        self._streak += 1
        if self._streak < self._patience:
            return self
        self.runtime.disabled = True
        self.runtime.active = False
        self.runtime.demoted = True
        base = (RenameInPlace(self.spec)
                if self.spec.movement == "rename"
                else FullRecompute(self.spec))
        fallback = MovementFallback(self.spec, self._options,
                                    self.runtime, base)
        engine.record_demotion(
            self.spec.loop_id, self, fallback, frontier, total,
            budget_frontier=int(self._threshold * total),
            reason=(f"measured frontier covered >= "
                    f"{self._threshold:.0%} of the table for "
                    f"{self._patience} consecutive iteration(s); delta "
                    f"bookkeeping costs more than the recomputation it "
                    f"saves"))
        return fallback


class MovementFallback(LoopStrategy):
    """The full-body strategy a demoted delta loop lands on — plus the
    *promotion* watcher, the demotion mirror.

    Delta capture keeps measuring the changed-row frontier of every full
    iteration while the loop is demoted (without re-activating the delta
    machinery).  Once ``delta_promotion_patience`` consecutive frontiers
    fall below ``delta_promotion_threshold`` of the table, the watcher
    re-enables the runtime and hands the loop back to a fresh
    :class:`SemiNaiveDelta` — the next full iteration re-captures delta
    state, and the one after takes the delta path again.  The promote
    threshold sits below the demote threshold (hysteresis), so the pair
    cannot ping-pong every iteration.
    """

    def __init__(self, spec: LoopSpec, options,
                 runtime: DeltaLoopRuntime, base: LoopStrategy):
        super().__init__(spec)
        # Reports and telemetry see the movement fallback's own name.
        self.name = base.name
        self.base = base
        self.runtime = runtime
        self._options = options
        self._threshold = options.delta_promotion_threshold
        self._patience = options.delta_promotion_patience
        self._promotion_on = options.enable_strategy_promotion
        self._streak = 0

    def note_frontier(self, frontier: int, total: int,
                      engine) -> LoopStrategy:
        if not self._promotion_on or not self.runtime.demoted:
            return self
        if total <= 0 or frontier >= self._threshold * total:
            self._streak = 0
            return self
        self._streak += 1
        if self._streak < self._patience:
            return self
        self.runtime.disabled = False
        self.runtime.active = False
        self.runtime.demoted = False
        promoted = SemiNaiveDelta(self.spec, self._options, self.runtime)
        engine.record_promotion(
            self.spec.loop_id, self, promoted, frontier, total,
            budget_frontier=int(self._threshold * total),
            reason=(f"measured frontier stayed < "
                    f"{self._threshold:.0%} of the table for "
                    f"{self._patience} consecutive iteration(s); the "
                    f"delta path is profitable again"))
        return promoted


def choose_strategy(spec: LoopSpec, options,
                    runtime: DeltaLoopRuntime = None) -> LoopStrategy:
    """The statically best strategy for ``spec`` under ``options``.

    This mirrors what the compiler emitted: delta steps exist exactly when
    ``spec.delta`` is set, and the full body moves data by rename or copy
    according to ``spec.movement``.

    The returned strategy carries a ``reason`` string explaining the
    pick; the loop engine publishes it as a ``strategy_selection``
    decision event.
    """
    if spec.until_empty is not None:
        strategy = FixpointIncremental(spec)
        strategy.reason = ("recursive UNTIL-empty loop: the working "
                           "table is its own frontier")
    elif spec.delta is not None and runtime is not None:
        strategy = SemiNaiveDelta(spec, options, runtime)
        strategy.reason = ("delta-safety analysis proved per-key "
                           "evolution; frontier-driven recomputation is "
                           "statically cheapest")
    elif spec.movement == "rename":
        strategy = RenameInPlace(spec)
        strategy.reason = ("full refresh with rename enabled: pointer "
                           "swap replaces the copy-back")
    else:
        strategy = FullRecompute(spec)
        strategy.reason = ("no provable delta path and rename "
                           "unavailable: copy-back baseline")
    return strategy


@dataclass
class DemotionRecord:
    """One mid-loop strategy demotion, for reports and telemetry."""

    iteration: int
    from_name: str
    to_name: str
    frontier: int
    total: int

    def describe(self) -> str:
        return (f"demoted {self.from_name} -> {self.to_name} after "
                f"iteration {self.iteration} (frontier {self.frontier}"
                f"/{self.total} rows)")


@dataclass
class PromotionRecord:
    """One mid-loop strategy promotion, for reports and telemetry."""

    iteration: int
    from_name: str
    to_name: str
    frontier: int
    total: int

    def describe(self) -> str:
        return (f"promoted {self.from_name} -> {self.to_name} after "
                f"iteration {self.iteration} (frontier {self.frontier}"
                f"/{self.total} rows)")


# ---------------------------------------------------------------------------
# Exchange strategies (distributed supersteps)
# ---------------------------------------------------------------------------
#
# The loop strategies above decide how one iteration's data moves
# between *trips*; exchange strategies decide how one superstep's data
# moves between *workers*.  They classify every outbound piece per
# channel (an (origin, destination) pair) into SEND / EMPTY / UNCHANGED,
# and live here rather than in repro.mpp so workers can depend on them
# without the runtime depending on the distribution layer.

SEND = "send"
EMPTY = "empty"
UNCHANGED = "unchanged"


class ExchangeStrategy:
    """Ship every non-empty piece (the naive exchange).

    Instances hold per-channel state and are owned by one sender — the
    coordinator builds one per worker (or per inline segment) so
    channels never alias across senders.
    """

    name = "naive-exchange"

    def classify(self, channel: tuple[int, int], piece) -> str:
        """SEND / EMPTY / UNCHANGED for ``piece`` on ``channel``."""
        if piece.num_rows == 0:
            return EMPTY
        return SEND


class DeltaShuffleExchange(ExchangeStrategy):
    """Suppress motion for a piece identical to the channel's last.

    The semi-naive idea applied to the wire: each channel remembers the
    last piece it shipped; when the new piece is byte-identical the
    sender ships an UNCHANGED marker and the receiver replays its cached
    copy.  Empty pieces bypass the cache entirely (they were never sent,
    so there is nothing to replay), matching the inline simulation's
    accounting.  Only legal under semi-naive plans — enforced statically
    by :func:`repro.verify.exchange.check_exchange_plan`.
    """

    name = "delta-shuffle"

    def __init__(self):
        self._sent: dict[tuple[int, int], list] = {}

    def classify(self, channel: tuple[int, int], piece) -> str:
        if piece.num_rows == 0:
            return EMPTY
        import numpy as np
        arrays = []
        for column in piece.columns:
            arrays.append(column.data)
            arrays.append(column.mask)
        previous = self._sent.get(channel)
        self._sent[channel] = arrays
        if previous is not None and len(previous) == len(arrays) and all(
                np.array_equal(a, b) for a, b in zip(previous, arrays)):
            return UNCHANGED
        return SEND


def make_exchange_strategy(delta_shuffle: bool) -> ExchangeStrategy:
    return DeltaShuffleExchange() if delta_shuffle else ExchangeStrategy()

"""DUP-HEFT: HEFT priorities with idle-slot parent duplication only.

Isolates improvement (3) of the contribution — selective duplication in
the spirit of the authors' earlier BTDH work — for the ablation bench.
Unlike whole-chain duplication (TDS), a parent is copied onto a
processor only when re-running it locally strictly beats waiting for the
data transfer, so duplication can only ever lower a task's EFT.
"""

from __future__ import annotations

from repro.core.improved import SinglePassScheduler
from repro.schedulers.ranking import RankAggregation


class DuplicationScheduler(SinglePassScheduler):
    """HEFT order + selective parent duplication (no lookahead)."""

    def __init__(self, agg: RankAggregation = "mean", max_duplications_per_task: int = 3) -> None:
        super().__init__(
            "DUP-HEFT",
            agg,
            lookahead=False,
            duplication=True,
            max_duplications_per_task=max_duplications_per_task,
        )

"""LA-HEFT: HEFT priorities with one-level lookahead placement only.

Isolates improvement (2) of the contribution so the ablation bench can
price it separately.
"""

from __future__ import annotations

from repro.core.improved import SinglePassScheduler
from repro.schedulers.ranking import RankAggregation


class LookaheadScheduler(SinglePassScheduler):
    """HEFT order + lookahead processor selection (no duplication)."""

    def __init__(self, agg: RankAggregation = "mean") -> None:
        super().__init__("LA-HEFT", agg, lookahead=True, duplication=False)

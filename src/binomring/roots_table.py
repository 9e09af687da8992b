"""Published reference table of Bernoulli-number roots and its verification.

The published table lists B^(1/m)(k) for m = 2..5, k = 0..8. Our computed
values come from two independent routes that always agree: J.C.P. Miller's
power recurrence in the unit group and exp/log of the truncated generating
function. The published rows for m >= 3 are internally inconsistent from
k = 2 on (they contradict the published closed forms for k <= 4 and the
m = 2 row, e.g. the published m = 4 row is not the square root of the
published m = 2 row), so the oracle column is authoritative and the report
flags each published cell that disagrees.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .egf import norlund_egf
from .special import bernoulli
from .units import mth_root

PUBLISHED_ROOT_ROWS: dict[int, tuple[str, ...]] = {
    2: ("1", "-1/4", "1/48", "1/64", "-3/1280", "-19/3072", "79/86016", "275/49152",
        "-2339/2949120"),
    3: ("1", "-1/6", "1/54", "7/324", "2/3645", "-197/13122", "-683/61236", "1009/59049",
        "261203/5314410"),
    4: ("1", "-1/8", "7/384", "39/2048", "-2311/491520", "-9471/524288", "254713/176160768",
        "16744565/402653184", "1127877731/96636764160"),
    5: ("1", "-1/10", "13/750", "97/6250", "-237/31250", "-69061/4687500", "9768883/820312500",
        "99676471/2929687500", "-827331922/18310546875"),
}

TABLE_DEPTH = 8


class RootCell(NamedTuple):
    m: int
    k: int
    computed: Fraction
    oracle: Fraction
    published: Fraction

    @property
    def matches_oracle(self) -> bool:
        return self.computed == self.oracle

    @property
    def matches_published(self) -> bool:
        return self.computed == self.published


def root_table_cells(depth: int = TABLE_DEPTH) -> list[RootCell]:
    """All cells for m = 2..5: root-recursion value, exp/log oracle value, published value."""
    B = bernoulli(depth)
    cells = []
    for m, row in PUBLISHED_ROOT_ROWS.items():
        computed = mth_root(B, m)
        oracle = norlund_egf(1, m, depth)
        for k in range(min(depth, TABLE_DEPTH) + 1):
            cells.append(RootCell(m, k, computed[k], oracle[k], Fraction(row[k])))
    return cells

"""The DHR condition by subfamily size, used only by the tests.

Every nonempty subfamily J of the members, smallest first, has its union
built from scratch and its rank compared with |J| + 1.  The library's
``chowmat.hodge.dhr_check`` walks the same subfamilies as a DP over bitmasks;
this is the plain definition it is checked against.  Nothing in ``src/``
imports it.
"""

from __future__ import annotations

import itertools

from chowmat.matroid import Matroid


def dhr_check_by_size(m: Matroid, multiset: list[int]) -> bool:
    """rk(union over J) >= |J| + 1 for every nonempty subfamily J."""
    sets = list(multiset)
    for size in range(1, len(sets) + 1):
        for combo in itertools.combinations(range(len(sets)), size):
            union = 0
            for i in combo:
                union |= sets[i]
            if m.rank(union) < size + 1:
                return False
    return True

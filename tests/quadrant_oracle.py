"""`patterns._quadrant_split` as it was before it classified each element
once, kept verbatim as the oracle for the differential test: it rebuilds
the grid's points and tests quadrant membership through closures on every
call.  The package must return the same pair of leaves.
"""

from __future__ import annotations

from mixedpages.core import GridMatching
from mixedpages.errors import InsufficientInputError


def _quadrant_split(grid: GridMatching, matrix):
    """Split a diamond matrix into the preferred opposite-quadrant pair."""
    pts = grid.points()
    ids = [e for row in matrix for e in row]
    by_x = sorted(ids, key=lambda e: pts[e][0])
    by_y = sorted(ids, key=lambda e: pts[e][1])
    half = len(ids) // 2
    low_x = set(by_x[:half])
    low_y = set(by_y[:half])

    def quadrant(e):
        return (e in low_x, e in low_y)

    count = {q: 0 for q in ((True, True), (True, False), (False, True), (False, False))}
    for e in ids:
        count[quadrant(e)] += 1
    total = len(ids)
    diag_ok = 4 * min(count[(True, True)], count[(False, False)]) >= total
    anti_ok = 4 * min(count[(True, False)], count[(False, True)]) >= total
    if not diag_ok and not anti_ok:
        raise InsufficientInputError("no opposite quadrant pair holds a quarter of the points")

    def row_trim(member, take_suffix):
        scored = []
        for idx, row in enumerate(matrix):
            t_len = sum(1 for e in row if member(e))
            scored.append((idx, t_len))
        ranked = sorted(scored, key=lambda it: -it[1])
        side = 0
        while side < len(ranked) and ranked[side][1] >= side + 1:
            side += 1
        rows = sorted(idx for idx, t_len in scored if t_len >= side)[:side]
        if take_suffix:
            return [[matrix[i][c] for c in range(len(matrix) - side, len(matrix))] for i in rows]
        return [[matrix[i][c] for c in range(side)] for i in rows]

    def col_trim(member, take_suffix):
        q = len(matrix)
        scored = []
        for c in range(q):
            t_len = sum(1 for i in range(q) if member(matrix[i][c]))
            scored.append((c, t_len))
        ranked = sorted(scored, key=lambda it: -it[1])
        side = 0
        while side < len(ranked) and ranked[side][1] >= side + 1:
            side += 1
        cols = sorted(c for c, t_len in scored if t_len >= side)[:side]
        if take_suffix:
            return [[matrix[i][c] for c in cols] for i in range(q - side, q)]
        return [[matrix[i][c] for c in cols] for i in range(side)]

    if diag_ok:
        # Q11 holds row prefixes, Q22 row suffixes.
        first = row_trim(lambda e: quadrant(e) == (True, True), take_suffix=False)
        second = row_trim(lambda e: quadrant(e) == (False, False), take_suffix=True)
    else:
        # Q12 holds column prefixes, Q21 column suffixes.
        first = col_trim(lambda e: quadrant(e) == (True, False), take_suffix=False)
        second = col_trim(lambda e: quadrant(e) == (False, True), take_suffix=True)
    return first, second

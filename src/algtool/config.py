"""The degreewise resource cap of the graded engine."""

from __future__ import annotations

import os

from .errors import ResourceLimitError

#: Default cap on the cells of one degree step of the graded engine: the
#: rows (sum over relation degrees d of h_{n-d} times the number of degree-d
#: relations) times the columns (h_{n-1} * p) of the degree-n working matrix.
#: With this cap the polynomial ring on 5 generators is admitted up to
#: degree 8 (2100 x 1650 cells) and refused from degree 9.
DEFAULT_MAX_CELLS = 4_000_000

ENV_MAX_CELLS = "ALGTOOL_MAX_CELLS"


def max_cells() -> int:
    raw = os.environ.get(ENV_MAX_CELLS)
    if raw is None:
        return DEFAULT_MAX_CELLS
    try:
        value = int(raw)
    except ValueError as exc:
        raise ResourceLimitError(f"{ENV_MAX_CELLS} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ResourceLimitError(f"{ENV_MAX_CELLS} must be positive, got {value}")
    return value


def check_degree_allowed(n: int, rows: int, cols: int, cap: int | None = None) -> None:
    """Refuse a degree-n step whose working matrix has more cells than the cap.
    A step without rows still lists its columns, so it counts as one row."""
    cap = max_cells() if cap is None else cap
    cells = max(rows, 1) * cols
    if cells > cap:
        raise ResourceLimitError(
            f"degree {n} needs a {rows} x {cols} working matrix ({cells} cells), cap is {cap}"
        )

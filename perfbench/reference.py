"""An independent numpy version of the paper's Figure 4 predictors.

The benchmark checks the service's answers against this module.  It
imports nothing from the program: the size classes, window parsing and
predictor arithmetic are written out here from the paper (Section 4):

* means and medians over all data, the last n values, or the last n hours
  (even counts average the two middle values);
* the last value;
* AR(1), ``Y_t = a + b Y_{t-1}`` fit by least squares over all data or the
  last n days, falling back to the window mean below three points or on a
  constant series, and clamped below at a tenth of the window minimum;
* the ``C-`` variants, which see only history in the target's size class:
  0-50, 50-250, 250-750 and over 750 MB (decimal).
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Optional, Tuple

import numpy as np

MB = 1_000_000
CLASS_EDGES = (50 * MB, 250 * MB, 750 * MB)

#: Relative tolerance for float answers: the service keeps running sums in
#: extended precision, so means and AR fits may differ in the last digits.
RTOL = 1e-7


def size_class(size: int) -> int:
    """0..3: the class whose half-open byte range holds ``size``."""
    return bisect.bisect_right(CLASS_EDGES, size)


def _parse(spec: str) -> Tuple[bool, str, Optional[float]]:
    """``(classified, family, parameter)`` for a battery spec."""
    classified = spec.startswith("C-")
    name = spec[2:] if classified else spec
    for family, suffix in (("AVGhr", "hr"), ("ARd", "d")):
        head = family[:-len(suffix)]
        if name.startswith(head) and name.endswith(suffix) and len(name) > len(family):
            return classified, family, float(name[len(head):-len(suffix)])
    for family in ("AVG", "MED"):
        if name.startswith(family) and len(name) > len(family):
            return classified, family + "n", float(name[len(family):])
    if name in ("AVG", "MED", "LV", "AR"):
        return classified, name, None
    raise KeyError(f"not a battery spec: {spec!r}")


def _ar1(values: np.ndarray) -> float:
    if len(values) < 3:
        return float(values.mean())
    x, y = values[:-1], values[1:]
    xm = x.mean()
    var = float(((x - xm) ** 2).sum())
    if var <= 0.0 or not math.isfinite(var):
        return float(values.mean())
    b = float(((x - xm) * (y - y.mean())).sum()) / var
    a = float(y.mean() - b * xm)
    return max(a + b * float(values[-1]), 0.1 * float(values.min()))


def predict(spec: str, times: np.ndarray, values: np.ndarray,
            sizes: np.ndarray, size: int, now: float) -> Optional[float]:
    """The answer of ``spec`` over one end-time-sorted history, or None."""
    classified, family, param = _parse(spec)
    if classified:
        cls = size_class(size)
        lo = CLASS_EDGES[cls - 1] if cls > 0 else 0
        hi = CLASS_EDGES[cls] if cls < len(CLASS_EDGES) else np.inf
        keep = (sizes >= lo) & (sizes < hi)
        times, values = times[keep], values[keep]
    if len(values) == 0:
        return None
    if family == "AVG":
        return float(values.mean())
    if family == "MED":
        return float(np.median(values))
    if family == "LV":
        return float(values[-1])
    if family == "AVGn":
        return float(values[-int(param):].mean())
    if family == "MEDn":
        return float(np.median(values[-int(param):]))
    if family == "AR":
        return _ar1(values)
    span = param * (3600.0 if family == "AVGhr" else 86400.0)
    window = values[times >= now - span]
    if len(window) == 0:
        return None
    return float(window.mean()) if family == "AVGhr" else _ar1(window)


def same(got: Optional[float], want: Optional[float]) -> bool:
    """Equal within :data:`RTOL` (both None counts as equal)."""
    if got is None or want is None:
        return got is None and want is None
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=1e-9)


class Histories:
    """What the benchmark knows each link holds, version by version.

    Every observation the server applied is appended in application
    order (twice, for a batch the server applied twice).  The history a
    link answered from at version ``v`` is the first ``v`` applied
    records, end-time sorted with ties kept in application order — how
    the service folds an out-of-order record.
    """

    def __init__(self) -> None:
        self._cols: Dict[str, list] = {}
        self._sorted: Dict[str, bool] = {}

    def load(self, name: str, times, values, sizes) -> None:
        self._cols[name] = [list(times), list(values), list(sizes)]
        self._sorted[name] = True

    def apply(self, name: str, time: float, value: float, size: int) -> None:
        cols = self._cols.setdefault(name, [[], [], []])
        if cols[0] and time < cols[0][-1]:
            self._sorted[name] = False
        cols[0].append(time)
        cols[1].append(value)
        cols[2].append(size)

    def length(self, name: str) -> int:
        return len(self._cols.get(name, ((),))[0])

    def names(self):
        return list(self._cols)

    def at(self, name: str, version: int):
        times, values, sizes = (np.asarray(col[:version])
                                for col in self._cols[name])
        if not self._sorted[name]:
            order = np.argsort(times, kind="stable")
            times, values, sizes = times[order], values[order], sizes[order]
        return times.astype(np.float64), values.astype(np.float64), sizes

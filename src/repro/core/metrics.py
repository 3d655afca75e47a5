"""Mobility metrics: entropy (eq. 1) and radius of gyration (eq. 2).

Both metrics are computed per user per day from the time spent attached
to each visited cell tower (§2.3):

- **Temporal-uncorrelated entropy** characterizes the heterogeneity of
  visitation patterns: ``e = −Σ_j p(j) log p(j)`` where ``p(j)`` is the
  fraction of the (observed) time spent at the j-th visited tower.
- **Radius of gyration** measures how far from the centre of mass the
  user's visits spread. The paper prints

      g = sqrt( 1/N Σ_j (t_j l_j − l_cm)² ),  l_cm = 1/N Σ_j t_j l_j

  which is dimensionally inconsistent as written (time × location); the
  standard literature form (refs [2, 17] of the paper) is the
  *time-weighted* rms distance

      g = sqrt( Σ_j w_j ‖l_j − l_cm‖² ),  w_j = t_j / Σ t_j,
      l_cm = Σ_j w_j l_j.

  Both are implemented (``mode="weighted"`` — the default used for all
  figures — and ``mode="paper"``, the literal formula with t in
  day-fractions); the gyration ablation benchmark compares them.

Inputs are vectorized: ``dwell_s`` is an ``(num_rows, K)`` matrix of
seconds per anchor tower and ``sites`` the matching tower ids. Several
anchors may point at the same physical tower; entropy merges them
(``p(j)`` is per *tower*), whereas gyration is invariant to the split.

Half of each metric does not depend on the dwell: the per-row tower
sort and the runs of equal towers (entropy) and the planar projection
of the tower coordinates (gyration). :class:`TowerGeometry` computes
that half once for an anchor layout and applies it to any number of
dwell matrices — the daily-metrics walk builds one per shard and
reuses it for every day. :func:`mobility_entropy` and
:func:`radius_of_gyration` are one-shot calls of it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TowerGeometry", "mobility_entropy", "radius_of_gyration"]

GYRATION_MODES = ("weighted", "paper")

# Planar local projection (UK scale): km east/north of each row's first
# tower; great-circle error at <300 km is negligible.
_KM_PER_DEG_LAT = 111.32


class TowerGeometry:
    """The dwell-independent half of eqs. 1–2 for one anchor layout.

    ``sites`` are the ``(rows × anchors)`` tower ids and prepare
    :meth:`entropy`: each row is stably sorted by tower id once, and
    the runs of equal towers and the row of each run are kept.
    ``lats``/``lons`` are the matching tower coordinates and prepare
    :meth:`gyration`: the planar km offsets from each row's first
    tower.  Either half may be omitted; calling the metric it serves
    then raises ``ValueError``.

    Every call checks the dwell matrix it receives — 2-D, the
    geometry's shape, no negative dwell — and the results are bitwise
    identical to computing the geometry afresh for each matrix.

    >>> import numpy as np
    >>> geometry = TowerGeometry(sites=np.array([[1, 2]]))
    >>> for dwell in ([[43200.0, 43200.0]], [[86400.0, 0.0]]):
    ...     print(float(np.round(geometry.entropy(np.array(dwell))[0], 4)))
    0.6931
    0.0
    """

    def __init__(
        self,
        sites: np.ndarray | None = None,
        lats: np.ndarray | None = None,
        lons: np.ndarray | None = None,
    ) -> None:
        if sites is None and lats is None and lons is None:
            raise ValueError("a tower geometry needs sites or coordinates")
        if (lats is None) != (lons is None):
            raise ValueError("lats and lons must be given together")
        self.shape: tuple[int, int] | None = None
        self._gather = self._run_starts = self._run_row = None
        self._x = self._y = None
        if sites is not None:
            sites = np.asarray(sites)
            self._claim_shape(sites, "sites")
            self._prepare_entropy(sites)
        if lats is not None:
            lats = np.asarray(lats, dtype=np.float64)
            lons = np.asarray(lons, dtype=np.float64)
            self._claim_shape(lats, "lats")
            self._claim_shape(lons, "lons")
            self._prepare_gyration(lats, lons)

    def _claim_shape(self, array: np.ndarray, name: str) -> None:
        if array.ndim != 2:
            raise ValueError(f"{name} must be 2-D (rows × anchors)")
        if self.shape is None:
            self.shape = array.shape
        elif array.shape != self.shape:
            raise ValueError(f"{name} must match shape {self.shape}")

    def _prepare_entropy(self, sites: np.ndarray) -> None:
        # Merge anchors that share a physical tower: sort each row by
        # tower id and segment-sum equal runs, on the flattened array.
        rows, k = sites.shape
        order = np.argsort(sites, axis=1, kind="stable")
        flat_sites = np.take_along_axis(sites, order, axis=1).ravel()
        self._gather = (order + (np.arange(rows) * k)[:, None]).ravel()
        row_of = np.repeat(np.arange(rows), k)
        new_group = np.ones(rows * k, dtype=bool)
        same_row = row_of[1:] == row_of[:-1]
        new_group[1:] = ~(same_row & (flat_sites[1:] == flat_sites[:-1]))
        self._run_starts = np.flatnonzero(new_group)
        self._run_row = row_of[self._run_starts]

    def _prepare_gyration(self, lats: np.ndarray, lons: np.ndarray) -> None:
        ref_lat = lats[:, :1]
        ref_lon = lons[:, :1]
        km_per_deg_lon = _KM_PER_DEG_LAT * np.cos(np.radians(ref_lat))
        self._x = (lons - ref_lon) * km_per_deg_lon
        self._y = (lats - ref_lat) * _KM_PER_DEG_LAT

    def _check(self, dwell_s: np.ndarray) -> np.ndarray:
        dwell_s = np.asarray(dwell_s, dtype=np.float64)
        if dwell_s.ndim != 2:
            raise ValueError("dwell_s must be 2-D (rows × anchors)")
        if dwell_s.shape != self.shape:
            raise ValueError(
                f"dwell_s shape {dwell_s.shape} must match the tower "
                f"geometry {self.shape}"
            )
        if np.any(dwell_s < 0):
            raise ValueError("dwell times cannot be negative")
        return dwell_s

    def entropy(self, dwell_s: np.ndarray) -> np.ndarray:
        """Temporal-uncorrelated entropy per row (eq. 1), in nats."""
        dwell_s = self._check(dwell_s)
        if self._gather is None:
            raise ValueError("entropy needs a geometry built with sites")
        rows = dwell_s.shape[0]
        if rows == 0:
            return np.empty(0)
        group_dwell = np.add.reduceat(
            np.take(dwell_s, self._gather), self._run_starts
        )
        group_row = self._run_row
        totals = np.bincount(group_row, weights=group_dwell, minlength=rows)
        safe_totals = np.where(totals > 0, totals, 1.0)
        p = group_dwell / safe_totals[group_row]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0, -p * np.log(p), 0.0)
        entropy = np.bincount(group_row, weights=terms, minlength=rows)
        entropy[totals <= 0] = 0.0
        return entropy

    def gyration(
        self, dwell_s: np.ndarray, mode: str = "weighted"
    ) -> np.ndarray:
        """Radius of gyration per row (eq. 2), in km.

        ``mode`` is ``"weighted"`` or ``"paper"``, as for
        :func:`radius_of_gyration`.
        """
        dwell_s = self._check(dwell_s)
        if mode not in GYRATION_MODES:
            raise ValueError(f"unknown gyration mode {mode!r}")
        if self._x is None:
            raise ValueError(
                "gyration needs a geometry built with lats and lons"
            )
        rows = dwell_s.shape[0]
        if rows == 0:
            return np.empty(0)

        totals = dwell_s.sum(axis=1)
        safe_totals = np.where(totals > 0, totals, 1.0)
        x, y = self._x, self._y
        if mode == "weighted":
            w = dwell_s / safe_totals[:, None]
            cx = (w * x).sum(axis=1, keepdims=True)
            cy = (w * y).sum(axis=1, keepdims=True)
            sq = (w * ((x - cx) ** 2 + (y - cy) ** 2)).sum(axis=1)
            gyration = np.sqrt(sq)
        else:
            # Literal eq. 2 with t_j as day fractions and N = number of
            # towers with positive dwell.
            t = dwell_s / 86_400.0
            visited = dwell_s > 0
            counts = np.maximum(visited.sum(axis=1), 1)
            cx = (t * x).sum(axis=1, keepdims=True) / counts[:, None]
            cy = (t * y).sum(axis=1, keepdims=True) / counts[:, None]
            sq = np.where(
                visited, (t * x - cx) ** 2 + (t * y - cy) ** 2, 0.0
            ).sum(axis=1) / counts
            gyration = np.sqrt(sq)

        gyration[totals <= 0] = 0.0
        return gyration


def mobility_entropy(dwell_s: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """Temporal-uncorrelated entropy per row (paper eq. 1), in nats.

    Rows with zero total dwell get entropy 0 (an unobserved user has a
    degenerate visitation distribution).  A one-shot
    :meth:`TowerGeometry.entropy`.

    >>> import numpy as np
    >>> dwell = np.array([[43200.0, 43200.0]])
    >>> towers = np.array([[1, 2]])
    >>> float(np.round(mobility_entropy(dwell, towers)[0], 4))
    0.6931
    """
    return TowerGeometry(sites=sites).entropy(dwell_s)


def radius_of_gyration(
    dwell_s: np.ndarray,
    lats: np.ndarray,
    lons: np.ndarray,
    mode: str = "weighted",
) -> np.ndarray:
    """Radius of gyration per row, in km (paper eq. 2).

    Parameters
    ----------
    dwell_s:
        (rows × anchors) dwell seconds.
    lats / lons:
        Tower coordinates, same shape.
    mode:
        ``"weighted"`` — standard time-weighted rms distance (default);
        ``"paper"`` — the literal printed formula, with ``t_j``
        normalized to day fractions (the only reading that keeps the
        magnitudes km-like).

    Rows with zero total dwell get gyration 0.  A one-shot
    :meth:`TowerGeometry.gyration`.
    """
    return TowerGeometry(lats=lats, lons=lons).gyration(dwell_s, mode=mode)

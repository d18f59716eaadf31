"""Reference nearest-point search: one cKDTree query over the whole pool.

This is the package's earlier `spaces._nearest`, kept verbatim.  The sorted
search that replaced it for 1-d pools must return the same indices, ties
included: cKDTree's choice among equidistant points reaches the reports.
"""

import numpy as np
from scipy.spatial import cKDTree


def _nearest(coords: np.ndarray, pool: np.ndarray, targets: np.ndarray) -> np.ndarray:
    # index (into coords) of the nearest pool row to each target row
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    _, local = cKDTree(coords[pool]).query(targets)
    return pool[np.atleast_1d(local)]

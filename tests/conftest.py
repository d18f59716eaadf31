import os
from pathlib import Path

import numpy as np

from hjlab import FiniteSpace

SRC = str(Path(__file__).resolve().parents[1] / "src")


def src_env() -> dict:
    """os.environ with src/ first on PYTHONPATH, so that a subprocess running
    hjlab imports this checkout whether or not the package is installed."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}


def unit_grid(n: int, name: str = "") -> FiniteSpace:
    """Periodic grid on [0, 1): n equispaced points, the last gap wraps."""
    return FiniteSpace(coords=np.arange(n) / n, name=name or f"grid{n}")


def chain(n: int, name: str = "") -> FiniteSpace:
    return FiniteSpace(coords=np.arange(float(n)), name=name or f"chain{n}")

"""Independent oracle for the two-state tilted-chain flow.

Computes u(t) = log(expm(tA) exp(f0)) directly with scipy and measures the
iterated-resolvent error against it along a doubling step grid.  Run this to
regenerate the constants frozen into tests/test_semigroup.py; the package's
own oracle helper is deliberately not used here.
"""

import numpy as np
from scipy.linalg import expm

from hjlab import FiniteSpace, Fn, ResolventFamily, crandall_liggett, tilt_linear

A = np.array([[-0.6, 0.6], [0.4, -0.4]])
F0 = np.array([0.3, -0.2])
T = 1.0


def exact(t: float, f: np.ndarray) -> np.ndarray:
    return np.log(expm(t * A) @ np.exp(f))


def main() -> None:
    space = FiniteSpace(coords=np.arange(2.0), name="two")
    family = ResolventFamily(hamiltonian=tilt_linear(A, space))
    f0 = Fn(space, F0)
    u_star = exact(T, F0)
    print("u_star =", repr(u_star))
    for n in (16, 64, 256):
        approx = crandall_liggett(family, T, n, f0)
        err = float(np.abs(approx.result.values - u_star).max())
        print(f"n={n:4d}  err={err:.12e}")


if __name__ == "__main__":
    main()

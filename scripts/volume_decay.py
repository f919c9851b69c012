"""Volume-decay experiments: flowed squares under a linear diagonal flow and
small random squares transported by the synchronverter dynamics."""

import numpy as np

from kcontract import models, reproduce, sim


def linear_square():
    A = np.diag([-1.0, -2.0])
    print("unit square under xdot = diag(-1,-2) x  (exact area: e^{-3t})")
    for t in (0.25, 0.5, 1.0, 2.0):
        grid = sim.ImmersionGrid.from_function(lambda r: r.copy(), 2, 64, 2)
        flowed = sim.flow_immersion(grid, lambda X: X @ A.T, t, 1e-3)
        V = sim.volume_of_immersion(flowed, np.eye(2))
        print(f"  t={t:<5} V={V:.6f}  e^-3t={np.exp(-3 * t):.6f}")


def synchronverter_squares(count=5):
    bundle = models.builtin("synchronverter")
    runs = reproduce.square_volumes(bundle, np.random.default_rng(1), count)
    print(f"\nsmall squares in the synchronverter box, areas at t={reproduce.SQUARE_TIMES}")
    for i, vols in enumerate(runs):
        print(f"  square {i}: " + "  ".join(f"{v:.3e}" for v in vols))


if __name__ == "__main__":
    linear_square()
    synchronverter_squares()

"""Convergence study behind the semigroup-transport acceptance ladder.

Two findings drive the shipped configuration:

1. On a fixed 1D interval, every smooth transform kernel tried (Gaussian
   transform, inverse-power transform with a singularity just off the domain,
   wide-scale atomic mixtures) saturates its numerical rank at 9-13 by eleven
   Chebyshev points.  Past that size the transport error is whitening noise,
   not resolution, so the {11, 21, 41} ladder cannot decrease honestly.

2. In 2D the circle-transform kernel keeps gaining numerical rank through 41
   points, so the ladder decreases strictly with healthy margins for every
   seed tried.  Mass 10 puts all three levels well above the noise floor.

Run: python scripts/transport_convergence_study.py
"""

import numpy as np

from kerflow import flows as fl
from kerflow import kernels as kk
from kerflow import operators as op

SIZES = (11, 21, 41)


def chebyshev(n, half=1.0):
    return (half * np.cos(np.pi * (2 * np.arange(n) + 1) / (2 * n)))[::-1, None]


def inverse_power_kernel():
    """(1.05 + (x + y) / 2)^(-1) on the line: its singularity sits just off
    the interval [-1, 1]."""
    return kk.entrywise_kernel(
        "inverse_power",
        lambda x, y: (1.05 + (x[0] + y[0]) / 2.0) ** -1.0,
        lambda x, y: np.array([-0.5 * (1.05 + (x[0] + y[0]) / 2.0) ** -2.0]))


def ladder_1d(kernel, cutoff):
    field = fl.constant_field([1.0])
    out = []
    for n in SIZES:
        pts = chebyshev(n)
        m_idx = int(np.argmin(np.abs(pts[:, 0])))
        try:
            model = kk.gram(kernel, pts, rank_cutoff=cutoff)
            res = op.froelich_check(kernel, field, model, m_idx, 0.1)
            out.append((model.rank, res.relative_error))
        except Exception as exc:
            out.append((None, type(exc).__name__))
    return out


def ladder_2d(mass, seed, cutoff=1e-10):
    kernel = kk.builtin_kernel("circle_laplace", {"mass": mass, "n_atoms": 48})
    field = fl.constant_field([1.0, 0.0])
    out = []
    for n in SIZES:
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.0, 1.0, size=(n, 2))
        pts[0] = 0.0
        model = kk.gram(kernel, pts, rank_cutoff=cutoff)
        res = op.froelich_check(kernel, field, model, 0, 0.1)
        out.append((model.rank, res.relative_error))
    return out


def show(label, rows):
    cells = []
    for n, (rank, err) in zip(SIZES, rows):
        if rank is None:
            cells.append(f"n={n}: {err}")
        else:
            cells.append(f"n={n}: rank {rank}, err {err:.3e}")
    print(f"{label:42s} " + " | ".join(cells))


def main():
    print("-- 1D Chebyshev ladders (saturate: no honest decrease) --")
    show("Gaussian transform, cutoff 1e-10",
         ladder_1d(kk.builtin_kernel("laplace_gaussian"), 1e-10))
    show("inverse-power transform, cutoff 1e-12",
         ladder_1d(inverse_power_kernel(), 1e-12))
    atoms = [[a] for s in (2, 4, 6, 8, 10, 12, 14, 16) for a in (s, -s)]
    wide = kk.builtin_kernel("laplace", {"atoms": atoms,
                                         "weights": [1 / 16] * 16})
    show("wide-scale atomic mixture, cutoff 1e-10", ladder_1d(wide, 1e-10))

    print("\n-- 2D circle-transform ladders (rank keeps growing) --")
    for mass in (3.0, 10.0):
        show(f"circle transform mass {mass}, seed 0", ladder_2d(mass, seed=0))

    print("\n-- seed robustness at mass 10 (shipped configuration) --")
    monotone = 0
    for seed in range(10):
        rows = ladder_2d(10.0, seed)
        errs = [e for _, e in rows]
        mono = errs[0] > errs[1] > errs[2]
        monotone += mono
        show(f"seed {seed} ({'monotone' if mono else 'NOT monotone'})", rows)
    print(f"\nmonotone for {monotone}/10 seeds; "
          "frozen in configs/froelich_laplace.json (seed 0)")


if __name__ == "__main__":
    main()

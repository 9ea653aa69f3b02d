"""Write ``src/kerflow/bessel_tables.py``: the polynomial coefficients that
``kernels.bessel_k`` uses for K0 and K1 at x > 1.

On each piece lo < x <= hi the scaled function e^x sqrt(x) K_n(x) is a
smooth function of u = 2 / x, and t = a / x + b maps the piece onto
[-1, 1].  The script interpolates it at 64 Chebyshev nodes in mpmath at 40
digits, drops the Chebyshev tail whose absolute sum is below 2^-56 of the
function's least value on the piece, and writes the remaining series as the
coefficients of 1, t, t^2, ... (the basis change is exact in mpmath; each
coefficient is rounded once).  Evaluated by Horner's rule, such a series costs
two array passes a term where Clenshaw's recurrence costs three.

mpmath is a development tool: kerflow itself never imports it.  The output is
a pure function of this file and the mpmath version, so a second run rewrites
the committed tables byte for byte.

Run: python scripts/bessel_k_tables.py
"""

import os

import mpmath as mp

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "kerflow", "bessel_tables.py")
DIGITS = 40
NODES = 64
TAIL = mp.mpf(2) ** -56
# the pieces lo < x <= hi, as intervals [lo_u, hi_u] of u = 2 / x: x in
# (1, 2], (2, 4] and (4, inf); below x = 1 kernels.py sums power series
U_PIECES = ((1, 2), (0.5, 1), (0, 0.5))


def scaled(n):
    """u -> e^x sqrt(x) K_n(x) at x = 2 / u."""
    def f(u):
        x = 2 / u
        return mp.exp(x) * mp.sqrt(x) * mp.besselk(n, x)
    return f


def chebyshev(f, lo, hi):
    """Chebyshev coefficients of f on [lo, hi], by interpolation at the
    first-kind nodes, with the constant term halved: f = sum c_k T_k(t)."""
    nodes = [mp.cos(mp.pi * (j + mp.mpf(1) / 2) / NODES) for j in range(NODES)]
    values = [f((hi - lo) / 2 * t + (hi + lo) / 2) for t in nodes]
    c = [2 * mp.fsum(v * mp.cos(mp.pi * k * (j + mp.mpf(1) / 2) / NODES)
                     for j, v in enumerate(values)) / NODES for k in range(NODES)]
    c[0] /= 2
    return c


def truncated(c, least):
    """The shortest head of c whose dropped tail sums below TAIL * least."""
    n = len(c)
    while n > 1 and mp.fsum(abs(v) for v in c[n - 1:]) < TAIL * least:
        n -= 1
    return c[:n]


def monomial(c):
    """Coefficients of 1, t, t^2, ... of sum c_k T_k(t), exactly."""
    basis = [[mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]]
    while len(basis) < len(c):
        # T_{k+1} = 2t T_k - T_{k-1}
        up = [mp.mpf(0)] + [2 * v for v in basis[-1]]
        basis.append([v - (basis[-2][i] if i < len(basis[-2]) else 0)
                      for i, v in enumerate(up)])
    return [mp.fsum(ck * b[i] for ck, b in zip(c, basis) if i < len(b))
            for i in range(len(c))]


def main():
    mp.mp.dps = DIGITS
    pieces, tables = [], {0: [], 1: []}
    for lo_u, hi_u in U_PIECES:
        lo_u, hi_u = mp.mpf(lo_u), mp.mpf(hi_u)
        # t = (2u - (lo_u + hi_u)) / (hi_u - lo_u) with u = 2 / x
        a, b = 4 / (hi_u - lo_u), -(lo_u + hi_u) / (hi_u - lo_u)
        pieces.append((float(2 / hi_u), float(2 / lo_u) if lo_u else float("inf"),
                       float(a), float(b)))
        for n in (0, 1):
            f = scaled(n)
            # e^x sqrt(x) K_n(x) falls toward sqrt(pi / 2) as x grows
            least = min(f(lo_u) if lo_u else mp.sqrt(mp.pi / 2), f(hi_u))
            coeffs = monomial(truncated(chebyshev(f, lo_u, hi_u), least))
            tables[n].append(tuple(float(v) for v in coeffs))
    lines = ['"""Polynomial coefficients of the Bessel functions K0 and K1 for x > 1,',
             "written by scripts/bessel_k_tables.py (mpmath); rerun it, do not edit.",
             "",
             "On the piece lo < x <= hi, e^x sqrt(x) K_n(x) = sum_k C[k] t^k with",
             "t = a / x + b, which maps the piece onto [-1, 1].",
             '"""',
             "",
             "# (lo, hi, a, b) of each piece",
             "PIECES = ("]
    lines += [f"    ({lo!r}, {hi!r}, {a!r}, {b!r}),".replace("inf", 'float("inf")')
              for lo, hi, a, b in pieces]
    lines += [")"]
    for n in (0, 1):
        lines += ["", f"K{n} = (("]
        for k, coeffs in enumerate(tables[n]):
            text = [repr(v) + "," for v in coeffs]
            lines += ["    " + " ".join(text[i:i + 4]) for i in range(0, len(text), 4)]
            lines.append("), (" if k + 1 < len(tables[n]) else "))")
    with open(OUT, "w") as handle:
        handle.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()

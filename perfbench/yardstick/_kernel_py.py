"""Pure-Python (numpy) possibility kernel.

Mirrors the compiled kernel in `_kernel.pyx` exactly; selected at import by
`stabctx.kernel` when the extension is unavailable.
"""

from __future__ import annotations

import numpy as np


def first_possible_ket(d, phi_table, u, v, a, b):
    """First output ket (j*d + k) whose root-of-unity multiset does not
    vanish when the joint outcome (a, b) of the commuting pair W(u), W(v)
    is projected out of the two-qudit state with phase table `phi_table`;
    -1 if every ket vanishes (the outcome is impossible).

    For each ket (j,k) the multiset collects, over the subspace elements
    (P,Q) = x*u + y*v, the exponents
        -x*a - y*b - inv2*(P1*Q1 + P2*Q2) + j*P1 + k*P2 + phi[j-Q1, k-Q2]
    and vanishes iff each residue appears equally often (d is prime).
    """
    phi_table = np.asarray(phi_table)
    inv2 = (d + 1) // 2
    xs = np.arange(d)
    X = np.repeat(xs, d)
    Y = np.tile(xs, d)
    p1 = (X * u[0] + Y * v[0]) % d
    q1 = (X * u[1] + Y * v[1]) % d
    p2 = (X * u[2] + Y * v[2]) % d
    q2 = (X * u[3] + Y * v[3]) % d
    base = (-X * a - Y * b - inv2 * (p1 * q1 + p2 * q2)) % d
    ks = np.arange(d)[:, None]
    residues = np.arange(d)
    for j in range(d):
        vals = (base[None, :] + j * p1[None, :] + ks * p2[None, :]
                + phi_table[(j - q1) % d, (ks - q2[None, :]) % d]) % d
        counts = (vals[:, :, None] == residues).sum(axis=1)
        uniform = (counts == d).all(axis=1)
        if not uniform.all():
            return j * d + int(np.argmin(uniform))
    return -1

"""Digests and oracles that judge the benchmark's outputs.

A digest is the SHA-256 of the canonical text of a ``series_to_json``
document.  The
oracles share no code with the crystal enumerator: closed-form products,
the series algebra's own identities, bar duality under a negated slope,
and Pick's theorem for the toric diagram.
"""

from __future__ import annotations

import hashlib
import json
from math import gcd

from moltendt.qspace import QSeries, VRational, qmul


def digest(doc: dict) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# closed forms


def plane_partitions(n: int) -> list[int]:
    """Coefficients of MacMahon's product prod_k (1 - x^k)^(-k) up to x^n.

    Uses n a(n) = sum_{k=1}^{n} sigma_2(k) a(n - k), where sigma_2(k) sums
    the squares of the divisors of k.
    """

    sigma2 = [0] + [sum(d * d for d in range(1, k + 1) if k % d == 0) for k in range(1, n + 1)]
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(sigma2[k] * a[m - k] for k in range(1, m + 1)) // m)
    return a


def refined_macmahon_log(bound: int, twist) -> QSeries:
    """sum_k x^k (v^k + v^(k-2) + ... + v^(2-k)), the Log of refined MacMahon."""

    return QSeries(bound, twist, {
        (k,): VRational.laurent({e: 1 for e in range(2 - k, k + 1, 2)})
        for k in range(1, bound + 1)
    })


def c3_d4_log(bound: int, twist) -> QSeries:
    """sum_k v^2 x^k, the Log of the C^3 D4 series."""

    return QSeries(bound, twist, {(k,): VRational.vpow(2) for k in range(1, bound + 1)})


def counts_at_v1(z: QSeries) -> list[int]:
    """Z at v = 1, summed over dimension vectors of equal total size."""

    out = [0] * (z.bound + 1)
    for d, c in z.terms.items():
        out[sum(d)] += sum(c.laurent_dict().values())
    return out


def pick_interior(corners) -> int:
    """Interior lattice points of a lattice polygon: A = i + b/2 - 1."""

    edges = list(zip(corners, corners[1:] + corners[:1]))
    twice_area = abs(sum(px * ry - rx * py for (px, py), (rx, ry) in edges))
    boundary = sum(gcd(rx - px, ry - py) for (px, py), (rx, ry) in edges)
    return (twice_area - boundary + 2) // 2


# ---------------------------------------------------------------------------
# per-case oracles; each takes the case and its outputs and returns a verdict


def _macmahon(case, out):
    return counts_at_v1(out["Z"]) == plane_partitions(case.bound)


def _refined_macmahon(case, out):
    log = out["log_pleth"]
    return log == refined_macmahon_log(case.bound, log.twist)


def _inverse(case, out):
    z, zi = out["Z"], out["qinv"]
    one = QSeries.unit(z.bound, z.twist)
    return qmul(z, zi) == one and qmul(zi, z) == one


def _bar_dual(case, out):
    z, zn = out["Z"], out["negated"]
    return set(z.terms) == set(zn.terms) and all(
        zn.coeff(d) == c.bar() for d, c in z.terms.items()
    )


def _c3_d4_log(case, out):
    log = out["log_pleth"]
    return log == c3_d4_log(case.bound, log.twist)


ORACLES = {
    "macmahon": _macmahon,
    "refined_macmahon": _refined_macmahon,
    "inverse": _inverse,
    "bar_dual": _bar_dual,
    "c3_d4_log": _c3_d4_log,
}


def orbifold_facts(diagram) -> dict:
    """The diagram data the orbifold golden pins: corners, b, i_int and
    the number of cuts at each lattice point."""

    return {
        "corners": [list(p) for p in diagram.corners],
        "b": diagram.b,
        "i_int": diagram.i_int,
        "cuts_per_point": {
            f"{x},{y}": len(cuts) for (x, y), cuts in sorted(diagram.points.items())
        },
    }


def orbifold_oracle(diagram, n: int) -> bool:
    """C^3 / Z_n x Z_n has the triangle (0,0), (0,n), (n,0) as its diagram."""

    corners = tuple(diagram.corners)
    return (
        corners == ((0, 0), (0, n), (n, 0))
        and diagram.b == 3 * n
        and diagram.i_int == pick_interior(corners)
    )

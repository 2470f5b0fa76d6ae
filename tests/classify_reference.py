"""Scalar reference classifier, independent of the array kernels.

``mublp.torus.classify`` is a one-point front end to ``exact_codes`` and
``float_codes``.  This module keeps the scalar algorithm those kernels
replaced, so tests of an array path compare against arithmetic it does not
share: exact points are classified with ``CycloInt`` products in
Z[zeta_m], float points by a Python sum of roots.
"""

import numpy as np

from mublp.config import DEFAULT_EPS
from mublp.cyclo import cyclo_conj, cyclo_equals_integer, cyclo_from_counts, cyclo_mul
from mublp.torus import PointClass, TorusPoint


def classify_reference(point: TorusPoint, d: int, eps: float = DEFAULT_EPS) -> PointClass:
    """Class of ``point`` for dimension ``d``, one point at a time."""
    if point.dim != d - 1:
        raise ValueError(f"point has dim {point.dim}, expected {d - 1}")
    if point.is_exact:
        if point.is_zero():
            return PointClass.ZERO
        m = point.denominator
        counts = [0] * m
        counts[0] += 1
        for a in point.coords:
            counts[a] += 1
        z = cyclo_from_counts(m, counts)
        n = cyclo_mul(z, cyclo_conj(z))
        if cyclo_equals_integer(n, 0):
            return PointClass.ORT
        if cyclo_equals_integer(n, d):
            return PointClass.UB
        return PointClass.FORBIDDEN
    if point.is_zero(eps):
        return PointClass.ZERO
    s = 1.0 + sum(np.exp(2j * np.pi * x) for x in point.coords)
    v = abs(s) ** 2
    if abs(v) <= eps:
        return PointClass.ORT
    if abs(v - d) <= eps:
        return PointClass.UB
    return PointClass.FORBIDDEN

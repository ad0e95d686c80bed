"""Tangent geometry at a point of a 2D piecewise-smooth function.

At a point a the phototangent rays along each axis meet the unit sphere
centered at a_bar = (a1, a2, u[a]) in four points p1, q1, p2, q2.  A single
plane through all four exists iff the strong criterion

    (a1-b1)(sqrt(1+a2^2)+sqrt(1+b2^2)) - (a2-b2)(sqrt(1+a1^2)+sqrt(1+b1^2))

vanishes (alpha_i, beta_i the semi-derivative slopes); then the plane's
normal is (dS_x u, dS_y u, -1).  Otherwise each 3-element subset of the
four points spans a weak tangent plane.  ``tangent_data`` is the one entry:
it returns all of this at a point as a ``TangentData``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .piecewise import PiecewiseFn, tol_jump
from .specular import a_combine, semi_derivatives


class TangentError(Exception):
    pass


class CenterMismatch(TangentError):
    """u[a]_(1) != u[a]_(2): the common anchor height does not exist."""


@dataclass
class TangentData:
    anchor: tuple                 # (a1, a2, u[a])
    pairs: tuple                  # (SemiDerivativePair axis 0, axis 1)
    points: tuple                 # (p1, q1, p2, q2) as np arrays
    criterion_residual: float
    normal: Optional[tuple]       # present iff residual within tol
    planes: list                  # (c1, c2, c0) with z = c1 x + c2 y + c0
    degenerate_triples: list


def _check_center(mid1: float, mid2: float) -> float:
    """u[a]_(1), once it agrees with u[a]_(2); else CenterMismatch."""
    if abs(mid1 - mid2) > tol_jump(mid1, mid2):
        raise CenterMismatch(f"u[a]_(1) = {mid1} differs from u[a]_(2) = {mid2}")
    return mid1


def _sphere_points(anchor, pair1, pair2):
    a1, b1 = pair1.right, pair1.left
    a2, b2 = pair2.right, pair2.left
    c = np.array(anchor)
    p1 = c + np.array([1.0, 0.0, a1]) / math.sqrt(1.0 + a1 * a1)
    q1 = c + np.array([-1.0, 0.0, -b1]) / math.sqrt(1.0 + b1 * b1)
    p2 = c + np.array([0.0, 1.0, a2]) / math.sqrt(1.0 + a2 * a2)
    q2 = c + np.array([0.0, -1.0, -b2]) / math.sqrt(1.0 + b2 * b2)
    return p1, q1, p2, q2


def _criterion(pair1, pair2) -> tuple:
    """The strong criterion residual and its tolerance."""
    a1, b1 = pair1.right, pair1.left
    a2, b2 = pair2.right, pair2.left
    res = (a1 - b1) * (math.sqrt(1.0 + a2 * a2) + math.sqrt(1.0 + b2 * b2)) - (
        a2 - b2
    ) * (math.sqrt(1.0 + a1 * a1) + math.sqrt(1.0 + b1 * b1))
    return res, tol_jump(a1, b1, a2, b2)


def _normal(pair1, pair2, points):
    """(dS_x u, dS_y u, -1) where the strong criterion holds, verified
    parallel to l1 x l2, the lines through p1, q1 and p2, q2."""
    n = (a_combine(pair1.right, pair1.left), a_combine(pair2.right, pair2.left), -1.0)
    p1, q1, p2, q2 = points
    cross = np.cross(p1 - q1, p2 - q2)
    nv = np.array(n)
    # parallelism: cross x n = 0
    mism = np.linalg.norm(np.cross(cross, nv)) / (np.linalg.norm(cross) * np.linalg.norm(nv))
    if mism > 1e-9:
        raise TangentError(f"normal not parallel to l1 x l2 (mismatch {mism:.3e})")
    return n


def _plane_through(points3):
    """(c1, c2, c0) with z = c1 x + c2 y + c0, or None when vertical.

    Degeneracy is decided on the points taken relative to the first: the
    determinant is translation-invariant, and the sphere points lie within
    distance 2 of each other, so the threshold needs no coordinate scale."""
    (x0, y0), (x1, y1), (x2, y2) = ((p[0], p[1]) for p in points3)
    if abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)) < 1e-12:
        return None
    M = np.array([[p[0], p[1], 1.0] for p in points3])
    z = np.array([p[2] for p in points3])
    c = np.linalg.solve(M, z)
    return (float(c[0]), float(c[1]), float(c[2]))


def _weak_planes(points, strong: bool):
    """One plane per 3-element subset of the points (the plane that omits
    each point in turn), deduplicated, and the omitted indices whose
    triple is vertical; all four coincide when the criterion holds, so a
    strong point keeps the first."""
    planes, degenerate = [], []
    for omit in range(4):
        triple = [points[k] for k in range(4) if k != omit]
        pl = _plane_through(triple)
        if pl is None:
            degenerate.append(omit)
            continue
        if not any(all(abs(x - y) <= tol_jump(x) for x, y in zip(pl, q)) for q in planes):
            planes.append(pl)
    if strong and len(planes) > 1:
        planes = planes[:1]
    return planes, degenerate


def tangent_data(u: PiecewiseFn, a, pairs=None) -> TangentData:
    """The tangent geometry of u at a, from the semi-derivative pairs along
    both axes (computed unless given), then the anchor, which raises
    CenterMismatch when the two axes' mids disagree."""
    if u.d != 2:
        raise TangentError("tangent geometry is 2D only")
    pair1, pair2 = pairs or (semi_derivatives(u, a, 0), semi_derivatives(u, a, 1))
    anchor = (a[0], a[1], _check_center(u.one_sided_limits(a, 0).mid, u.one_sided_limits(a, 1).mid))
    points = _sphere_points(anchor, pair1, pair2)
    res, tol = _criterion(pair1, pair2)
    strong = abs(res) <= tol
    normal = _normal(pair1, pair2, points) if strong else None
    planes, degenerate = _weak_planes(points, strong)
    return TangentData(anchor, (pair1, pair2), points, res, normal, planes, degenerate)

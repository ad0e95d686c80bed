"""Tangent geometry at a point of a 2D piecewise-smooth function.

At a point a the phototangent rays along each axis meet the unit sphere
centered at a_bar = (a1, a2, u[a]) in four points p1, q1, p2, q2.  A single
plane through all four exists iff the strong criterion

    (a1-b1)(sqrt(1+a2^2)+sqrt(1+b2^2)) - (a2-b2)(sqrt(1+a1^2)+sqrt(1+b1^2))

vanishes (alpha_i, beta_i the semi-derivative slopes); then the plane's
normal is (dS_x u, dS_y u, -1).  Otherwise each 3-element subset of the
four points spans a weak tangent plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .piecewise import PiecewiseFn
from .specular import a_combine, semi_derivatives


class TangentError(Exception):
    pass


class CenterMismatch(TangentError):
    """u[a]_(1) != u[a]_(2): the common anchor height does not exist."""


class NoStrongTangent(TangentError):
    def __init__(self, residual: float, would_be_normal):
        super().__init__(
            f"strong tangent criterion fails (residual {residual:.6g})"
        )
        self.residual = residual
        self.would_be_normal = would_be_normal


def tol_crit(a1: float, b1: float, a2: float, b2: float) -> float:
    return 1e-9 * (1.0 + abs(a1) + abs(b1) + abs(a2) + abs(b2))


@dataclass
class TangentData:
    anchor: tuple                 # (a1, a2, u[a])
    pairs: tuple                  # (SemiDerivativePair axis 0, axis 1)
    points: tuple                 # (p1, q1, p2, q2) as np arrays
    criterion_residual: float
    normal: Optional[tuple]       # present iff residual within tol
    planes: list                  # (c1, c2, c0) with z = c1 x + c2 y + c0
    degenerate_triples: list


def _center_and_pairs(u: PiecewiseFn, a):
    if u.d != 2:
        raise TangentError("tangent geometry is 2D only")
    pair1 = semi_derivatives(u, a, 0)
    pair2 = semi_derivatives(u, a, 1)
    lim1 = u.one_sided_limits(a, 0)
    lim2 = u.one_sided_limits(a, 1)
    if abs(lim1.mid - lim2.mid) > 1e-9 * (1.0 + abs(lim1.mid) + abs(lim2.mid)):
        raise CenterMismatch(
            f"u[a]_(1) = {lim1.mid} differs from u[a]_(2) = {lim2.mid}"
        )
    return (a[0], a[1], lim1.mid), pair1, pair2


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
    return res, tol_crit(a1, b1, a2, b2)


def sphere_points(u: PiecewiseFn, a):
    """The four unit-sphere intersection points of the two phototangents,
    translated by the anchor a_bar."""
    return _sphere_points(*_center_and_pairs(u, a))


def strong_criterion_residual(u: PiecewiseFn, a) -> float:
    _, pair1, pair2 = _center_and_pairs(u, a)
    return _criterion(pair1, pair2)[0]


def _line_directions(points):
    """Direction vectors of the lines l1 (through p1, q1) and l2."""
    p1, q1, p2, q2 = points
    return p1 - q1, p2 - q2


def _normal(pair1, pair2, points):
    res, tol = _criterion(pair1, pair2)
    n = (a_combine(pair1.right, pair1.left), a_combine(pair2.right, pair2.left), -1.0)
    if abs(res) > tol:
        raise NoStrongTangent(res, n)
    d1, d2 = _line_directions(points)
    cross = np.cross(d1, d2)
    nv = np.array(n)
    # parallelism: cross x n = 0
    mism = np.linalg.norm(np.cross(cross, nv)) / (np.linalg.norm(cross) * np.linalg.norm(nv))
    if mism > 1e-9:
        raise TangentError(f"normal not parallel to l1 x l2 (mismatch {mism:.3e})")
    return n


def specular_normal(u: PiecewiseFn, a):
    """(dS_x u, dS_y u, -1) when the strong tangent plane exists; verified
    against the cross product of the l1/l2 directions."""
    anchor, pair1, pair2 = _center_and_pairs(u, a)
    return _normal(pair1, pair2, _sphere_points(anchor, pair1, pair2))


def _plane_through(points3):
    """(c1, c2, c0) with z = c1 x + c2 y + c0, or None when vertical."""
    M = np.array([[p[0], p[1], 1.0] for p in points3])
    z = np.array([p[2] for p in points3])
    det = np.linalg.det(M)
    scale = max(1.0, float(np.max(np.abs(M))))
    if abs(det) < 1e-12 * scale ** 3:
        return None
    c = np.linalg.solve(M, z)
    return (float(c[0]), float(c[1]), float(c[2]))


def _weak_planes(pair1, pair2, points):
    res, tol = _criterion(pair1, pair2)
    planes, degenerate = [], []
    for omit in range(4):
        triple = [points[k] for k in range(4) if k != omit]
        pl = _plane_through(triple)
        if pl is None:
            degenerate.append(omit)
            continue
        if not any(all(abs(x - y) <= 1e-9 * (1 + abs(x)) for x, y in zip(pl, q)) for q in planes):
            planes.append(pl)
    if abs(res) <= tol and len(planes) > 1:
        planes = planes[:1]
    return planes, degenerate


def weak_tangent_planes(u: PiecewiseFn, a):
    """One plane per 3-element subset of {p1, q1, p2, q2} (the plane that
    omits each point in turn), deduplicated; all four coincide exactly when
    the strong criterion holds."""
    anchor, pair1, pair2 = _center_and_pairs(u, a)
    return _weak_planes(pair1, pair2, _sphere_points(anchor, pair1, pair2))


def tangent_data(u: PiecewiseFn, a) -> TangentData:
    anchor, pair1, pair2 = _center_and_pairs(u, a)
    points = _sphere_points(anchor, pair1, pair2)
    res, tol = _criterion(pair1, pair2)
    normal = _normal(pair1, pair2, points) if abs(res) <= tol else None
    planes, degenerate = _weak_planes(pair1, pair2, points)
    return TangentData(anchor, (pair1, pair2), points, res, normal, planes, degenerate)

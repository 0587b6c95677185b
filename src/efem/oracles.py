"""Closed-form reference fields and reference-solve recipes.

The benchmark family is fixed here in one place: a horizontal planar
interface, an inclined planar interface and a dielectric inclusion (a
cylinder's disc in 2D, a sphere in 3D), all in the unit box with bottom/top electrode plates
at 0 and 1 volt.  Region numbering follows the convention that region 1
is the steeper-gradient (lower-permittivity) side for the planar cases
and the inclusion for the curved ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from efem.efem_core import MaterialPair, assemble_global
from efem.interface import CircleLevelSet, PlaneLevelSet, SphereLevelSet
from efem.mesh import BoundaryTag, Mesh, generate_structured, row_dot
from efem.postprocess import SolutionField, build_solution, eval_field
from efem.solver import solve

PLANAR_INTERFACE_Y = 0.5
INCLINED_OFFSET = 0.2
CYLINDER_CENTER = (0.25, 0.75)
CYLINDER_RADIUS = 0.2
SPHERE_CENTER = (0.5, 0.5, 0.5)
SPHERE_RADIUS = 0.1

_SQ2 = math.sqrt(2.0)


def resolution(h: float) -> int:
    """Structured divisions for a target element size, n = round(1/h)."""
    if h <= 0:
        raise ValueError("element size must be positive")
    n = round(1.0 / h)
    return max(n, 1)


# ---------------------------------------------------------------------------
# planar two-layer capacitor


def planar_slopes(q: float) -> tuple[float, float]:
    """Field magnitudes (below, above) for plates 0/1 and ratio q.

    Flux continuity across y = 0.5 fixes the two constant slopes at
    2q/(q+1) below and 2/(q+1) above; q -> inf is the conductor limit
    with all the drop in the lower layer.
    """
    return 2.0 * q / (q + 1.0), 2.0 / (q + 1.0)


def _heights(x) -> np.ndarray:
    """The y column of the stack x; ValueError on a height outside [0, 1]."""
    y = x[:, 1]
    outside = np.flatnonzero(~((y >= 0.0) & (y <= 1.0)))
    if outside.size:
        raise ValueError(f"y = {float(y[outside[0]])} is outside the unit domain")
    return y


@dataclass(frozen=True)
class PlanarCase:
    """Horizontal interface at y = 0.5, permittivity ratio q (upper/lower)."""

    q: float

    def phi(self, x):
        """Potential (k,) at points x (k, 2); one point (2,) gives a float."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(self.phi(x[None])[0])
        y = _heights(x)
        g_lo, g_hi = planar_slopes(self.q)
        return np.where(y < PLANAR_INTERFACE_Y, g_lo * y,
                        g_lo * PLANAR_INTERFACE_Y + g_hi * (y - PLANAR_INTERFACE_Y))

    def E(self, x, side: int = 0) -> np.ndarray:
        """Potential gradient (k, 2) at points x (k, 2).

        On y = 0.5 exactly side picks the layer (-1 below, +1 or 0 above).
        """
        x = np.asarray(x, dtype=float)
        y = _heights(x)
        g_lo, g_hi = planar_slopes(self.q)
        below = (y < PLANAR_INTERFACE_Y) | ((y == PLANAR_INTERFACE_Y) & (side < 0))
        out = np.zeros(x.shape)
        out[:, 1] = np.where(below, g_lo, g_hi)
        return out

    def eps(self, side: int) -> float:
        return self.q if side > 0 else 1.0

    def interface_points(self, count: int, rng) -> np.ndarray:
        xs = rng.uniform(0.02, 0.98, size=count)
        return np.column_stack([xs, np.full(count, PLANAR_INTERFACE_Y)])


# ---------------------------------------------------------------------------
# dielectric inclusion in a uniform far field: a disc in 2D, a ball in 3D


@dataclass(frozen=True)
class InclusionCase:
    """Dielectric inclusion, ratio q = eps_inside / eps_outside, in the
    background field (0, 1[, 0]); its dimension d is len(center).

    With k = (1 - q) / (d - 1 + q), the centre's height y0 and yrel = y - y0,
    the potential is y0 + d yrel / (d - 1 + q) inside and
    y0 + yrel (1 + k R^d / r^d) outside, so far from the inclusion phi = y,
    the plate values 0 and 1 volt.  The closed form is that of an unbounded
    domain; the r^(1-d) decay of the 2D perturbation makes the disc a
    diagnostic for the finite box rather than its reference.
    """

    q: float
    center: tuple
    radius: float

    def _k(self, d: int) -> float:
        # d is a Python int, so r**d and d - 1.0 + q round the same for
        # every dimension
        return (1.0 - self.q) / (d - 1.0 + self.q)

    def phi(self, x):
        """Potential (k,) at points x (k, d); one point (d,) gives a float."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(self.phi(x[None])[0])
        d, y0 = len(self.center), float(self.center[1])
        rel = x - np.asarray(self.center)
        r = np.sqrt(row_dot(rel, rel))
        yrel = rel[:, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            outer = y0 + yrel * (1.0 + self._k(d) * self.radius**d / r**d)
        return np.where(r < self.radius, y0 + d * yrel / (d - 1.0 + self.q), outer)

    def E(self, x, side: int = 0) -> np.ndarray:
        """Potential gradient (k, d) at points x (k, d).

        Within 1e-12 of the surface a nonzero side picks the region
        (-1 inside, +1 outside).
        """
        x = np.asarray(x, dtype=float)
        d = len(self.center)
        rel = x - np.asarray(self.center)
        r = np.sqrt(row_dot(rel, rel))
        inside = r < self.radius
        if side != 0:
            inside = np.where(np.abs(r - self.radius) <= 1e-12, side < 0, inside)
        kr = self._k(d) * self.radius**d
        with np.errstate(divide="ignore", invalid="ignore"):
            outer = (-d * rel[:, 1] * kr / r**(d + 2))[:, None] * rel
            outer[:, 1] += 1.0 + kr / r**d
        inner = np.zeros(x.shape)
        inner[:, 1] = d / (d - 1.0 + self.q)
        return np.where(inside[:, None], inner, outer)

    def eps(self, side: int) -> float:
        return 1.0 if side > 0 else self.q

    def interface_points(self, count: int, rng) -> np.ndarray:
        v = rng.normal(size=(count, len(self.center)))
        v /= np.sqrt(row_dot(v, v))[:, None]
        return np.asarray(self.center) + self.radius * v


@dataclass(frozen=True)
class CylinderCase(InclusionCase):
    """The benchmark disc by default."""

    center: tuple = CYLINDER_CENTER
    radius: float = CYLINDER_RADIUS


@dataclass(frozen=True)
class SphereCase(InclusionCase):
    """The benchmark ball by default."""

    center: tuple = SPHERE_CENTER
    radius: float = SPHERE_RADIUS


# ---------------------------------------------------------------------------
# benchmark geometry builders shared by tests and the CLI


def planar_levelset() -> PlaneLevelSet:
    return PlaneLevelSet((0.0, PLANAR_INTERFACE_Y), (0.0, 1.0))


def inclined_levelset() -> PlaneLevelSet:
    """45 degree interface y = x + 0.2; positive side is the upper-left."""
    return PlaneLevelSet((0.0, INCLINED_OFFSET), (-1.0 / _SQ2, 1.0 / _SQ2))


def cylinder_levelset() -> CircleLevelSet:
    return CircleLevelSet(CYLINDER_CENTER, CYLINDER_RADIUS)


def sphere_levelset() -> SphereLevelSet:
    return SphereLevelSet(SPHERE_CENTER, SPHERE_RADIUS)


def planar_materials(q: float) -> MaterialPair:
    """Upper layer q, lower layer 1 (positive level-set side on top)."""
    return MaterialPair(q, 1.0)


def cylinder_materials(q: float = 3.0) -> MaterialPair:
    """Inclusion is the negative level-set side, q times the surroundings."""
    return MaterialPair(1.0, q)


sphere_materials = cylinder_materials


def box_boundary(dim: int, bottom: float = 0.0, top: float = 1.0) -> dict[str, BoundaryTag]:
    """Electrode plates bottom/top, insulated elsewhere."""
    tags = {"bottom": BoundaryTag("bottom", "dirichlet", bottom),
            "top": BoundaryTag("top", "dirichlet", top),
            "left": BoundaryTag("left", "neumann"),
            "right": BoundaryTag("right", "neumann")}
    if dim == 3:
        tags["front"] = BoundaryTag("front", "neumann")
        tags["back"] = BoundaryTag("back", "neumann")
    return tags


def analytic_boundary(dim: int, func) -> dict[str, BoundaryTag]:
    """Every boundary face carries the analytic potential as Dirichlet data."""
    names = ["left", "right", "bottom", "top"] + (["front", "back"] if dim == 3 else [])
    return {n: BoundaryTag(n, "dirichlet", func) for n in names}


def jittered_mesh(counts, seed: int = 0, amplitude: float | None = None) -> Mesh:
    """Perturbed structured mesh of the unit box, standing in for an
    unstructured one; counts gives the divisions per axis (2 or 3 of them).

    Structured cuts through a curved interface are unusually benign;
    jittering the interior nodes by a fixed-seed offset of up to amplitude
    times the cell size along each axis restores irregular cut
    configurations.  amplitude defaults to 0.25 in 2D and 0.15 in 3D, where
    a quarter cell turns some tetrahedra inside out.  Boundary nodes stay
    put, and Mesh.build re-validates the perturbed mesh.
    """
    dim = len(counts)
    if amplitude is None:
        amplitude = 0.25 if dim == 2 else 0.15
    base = generate_structured(dim, *counts)
    rng = np.random.default_rng(seed)
    nodes = np.array(base.nodes)
    h = 1.0 / np.asarray(counts)
    interior = np.all((nodes > 1e-12) & (nodes < 1.0 - 1e-12), axis=1)
    nodes[interior] += rng.uniform(-amplitude * h, amplitude * h,
                                   size=(int(interior.sum()), dim))
    return Mesh.build(dim, nodes, np.array(base.elements), list(base.boundary_faces))


def cylinder_benchmark_mesh(n: int = 27, seed: int = 0,
                            amplitude: float = 0.25) -> Mesh:
    """The curved-interface benchmark's n x n jittered mesh."""
    return jittered_mesh((n, n), seed, amplitude)


def conforming_inclined_mesh(n: int) -> Mesh:
    """Structured mesh whose diagonals trace the inclined interface.

    The line y = x + 0.2 runs through nodes and along element diagonals
    exactly when n is a multiple of 5, making the mesh conforming.
    """
    if n % 5 != 0:
        raise ValueError(
            f"n = {n} gives no node line on y = x + {INCLINED_OFFSET}; "
            "use a multiple of 5")
    return generate_structured(2, n, n)


def reference_solve(case: str, fine_h: float | None = None, q: float = 3.0,
                    tol: float = 1e-10) -> SolutionField:
    """Reference field for a benchmark that has no closed form.

    inclined: standard FEM on a conforming mesh (default h = 0.01);
    cylinder: fine-mesh enriched self-reference (default h = 0.005).
    """
    if case == "inclined":
        n = resolution(0.01 if fine_h is None else fine_h)
        mesh = conforming_inclined_mesh(n)
        assembled = assemble_global(mesh, inclined_levelset(),
                                    planar_materials(q), "standard",
                                    box_boundary(2))
    elif case == "cylinder":
        n = resolution(0.005 if fine_h is None else fine_h)
        mesh = generate_structured(2, n, n)
        assembled = assemble_global(mesh, cylinder_levelset(),
                                    cylinder_materials(q), "efem",
                                    box_boundary(2))
    else:
        raise ValueError(f"no reference recipe for case {case!r}")
    phi, report = solve(assembled.matrix, assembled.rhs, tol=tol)
    if not report.converged:
        raise RuntimeError(
            f"reference solve for {case!r} stalled at residual {report.residual:.3e}")
    return build_solution(assembled, phi)


def phi_evaluator(sol: SolutionField):
    """Wrap a solution as a point -> phi callable with the oracles' phi contract.

    A stack (k, dim) is located with one KD-tree query (the locate rule) and
    gives k potentials; one point gives a float.
    """
    return lambda x: eval_field(sol, x)[0]


def fd_laplacian(func, x, h: float = 1e-3) -> float:
    """Central-difference Laplacian at x of a stacked point callable, which
    gets the 2 dim + 1 stencil points in one call."""
    x = np.asarray(x, dtype=float)
    d = len(x)
    steps = h * np.eye(d)
    f = func(np.vstack([x, x + steps, x - steps]))
    total = -2.0 * d * f[0]
    for i in range(d):
        total += f[1 + i] + f[1 + d + i]
    return float(total / h**2)

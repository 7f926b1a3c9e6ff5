"""Sampled manifolds with quadrature weights.

A :class:`PointCloud` is the tuple (P, S, V, A): sample points P in ambient
coordinates, a boundary subset S given by indices into P, volume weights V
(one per point, summing to the manifold volume) and area weights A (one per
boundary point, summing to the boundary measure; counting measure when the
intrinsic dimension is 1).

Built-in generators produce clouds whose weights are exact cell measures, so
weighted sums reproduce manifold and boundary integrals to first order in
the spacing without any Voronoi machinery:

* interval / rectangle: composite trapezoid weights (half cells at edges);
* unit disk: node-centered polar rings, each annulus area split exactly
  among its ring points;
* spherical cap (the portion z >= z0 of the unit sphere): latitude rings
  uniform in polar angle, band areas exact by the axial-projection rule
  dA = dz dtheta.

Externally supplied clouds must bring their own weights; this module never
estimates weights from raw coordinates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "PointCloud",
    "ManifoldSpec",
    "CloudFormatError",
    "generate",
    "fill_distance",
    "save",
    "load",
]


class CloudFormatError(ValueError):
    """Raised for malformed cloud files or invalid cloud data."""


# most points a rectangle's grid may hold, in squares' grids of the same resolution
RECTANGLE_EXCESS = 4


@dataclass(frozen=True)
class ManifoldSpec:
    """Descriptor of a built-in manifold plus a target resolution.

    ``resolution`` is the total point count for the interval and a target
    point count for the other shapes (the realized count is the nearest
    value the structured generator can produce).
    """

    shape: str
    resolution: int
    a: float = 0.0
    b: float = 1.0
    widths: tuple[float, float] = (1.0, 1.0)
    z0: float = 0.0

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}; choose from {SHAPES}")
        if self.shape == "interval" and not -math.inf < self.a < self.b < math.inf:
            raise ValueError(f"interval requires finite a < b, got [{self.a}, {self.b}]")
        if self.shape == "rectangle" and not all(map(math.isfinite, self.widths)):
            raise ValueError(f"rectangle requires finite widths, got {self.widths}")
        if self.shape == "rectangle" and min(self.widths) <= 0.0:
            raise ValueError(f"rectangle widths must be positive, got {self.widths}")
        if self.shape == "spherical_cap" and not -1.0 < self.z0 < 1.0:
            raise ValueError(f"spherical cap requires -1 < z0 < 1, got {self.z0}")
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2")
        if self.shape == "rectangle":
            # the generator's grid sides, in floats: a width ratio that
            # overflows makes a side, and so the count, infinite
            wx, wy = self.widths
            nx, ny = (max(3.0, math.sqrt(self.resolution * u / v)) for u, v in ((wx, wy), (wy, wx)))
            if nx * ny > RECTANGLE_EXCESS * max(9, self.resolution):
                raise ValueError(
                    f"rectangle width ratio wx/wy = {wx / wy:g} is too extreme for "
                    f"{self.resolution} points: its grid would hold about {nx * ny:.3g}")

    @classmethod
    def interval(cls, a: float, b: float, n: int) -> "ManifoldSpec":
        return cls(shape="interval", resolution=n, a=a, b=b)

    @classmethod
    def rectangle(cls, wx: float, wy: float, n: int) -> "ManifoldSpec":
        return cls(shape="rectangle", resolution=n, widths=(wx, wy))

    @classmethod
    def disk(cls, n: int) -> "ManifoldSpec":
        return cls(shape="disk", resolution=n)

    @classmethod
    def spherical_cap(cls, z0: float, n: int) -> "ManifoldSpec":
        return cls(shape="spherical_cap", resolution=n, z0=z0)

    @property
    def ambient_dim(self) -> int:
        """Coordinates per generated point."""
        return _SHAPES[self.shape].ambient_dim

    def with_resolution(self, n: int) -> "ManifoldSpec":
        return replace(self, resolution=n)


@dataclass(frozen=True)
class PointCloud:
    """Immutable sampled manifold with quadrature weights.

    Arrays are locked read-only on construction, so the same object always
    holds the same samples: ``Interpolant.on_cloud`` keys its memo on it.
    ``metadata`` holds only ``h``, the :func:`fill_distance`, which
    :func:`generate` stores; a loaded cloud's is empty.
    """

    points: np.ndarray            # (n, d)
    intrinsic_dim: int            # k <= d
    boundary_indices: np.ndarray  # (m,) indices into points
    volume_weights: np.ndarray    # (n,) positive, units length^k
    area_weights: np.ndarray      # (m,) positive, units length^(k-1)
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        pts = np.ascontiguousarray(np.atleast_2d(self.points), dtype=float)
        bidx = np.asarray(self.boundary_indices, dtype=np.intp).ravel()
        vw = np.asarray(self.volume_weights, dtype=float).ravel()
        aw = np.asarray(self.area_weights, dtype=float).ravel()
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "boundary_indices", bidx)
        object.__setattr__(self, "volume_weights", vw)
        object.__setattr__(self, "area_weights", aw)

        n, d = pts.shape
        if not 1 <= self.intrinsic_dim <= d:
            raise CloudFormatError(
                f"intrinsic_dim must satisfy 1 <= k <= d, got k={self.intrinsic_dim}, d={d}"
            )
        if vw.shape != (n,):
            raise CloudFormatError("volume_weights length must match point count")
        if not np.all(np.isfinite(pts)):
            raise CloudFormatError("point coordinates must be finite")
        if np.any(vw <= 0.0) or not np.all(np.isfinite(vw)):
            raise CloudFormatError("volume weights must be positive and finite")
        if aw.shape != bidx.shape:
            raise CloudFormatError("area_weights length must match boundary_indices")
        if bidx.size:
            if bidx.min() < 0 or bidx.max() >= n:
                raise CloudFormatError("boundary index out of range")
            if np.unique(bidx).size != bidx.size:
                raise CloudFormatError("boundary indices must be distinct")
            if np.any(aw <= 0.0) or not np.all(np.isfinite(aw)):
                raise CloudFormatError("area weights must be positive and finite")
        for arr in (pts, bidx, vw, aw):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    @property
    def boundary_points(self) -> np.ndarray:
        return self.points[self.boundary_indices]


def fill_distance(cloud: PointCloud) -> float:
    """Max over points of the distance to the nearest other point.

    Computable surrogate for the sampling density parameter of the
    integration-accuracy assumption, which has no direct geometric
    definition.
    """
    if cloud.n < 2:
        raise ValueError("fill_distance requires at least 2 points")
    tree = cKDTree(cloud.points)
    dists, _ = tree.query(cloud.points, k=2)
    return float(dists[:, 1].max())


def generate(spec: ManifoldSpec, seed: int = 0, jitter: float = 0.0) -> PointCloud:
    """Sample a built-in manifold with exact-cell quadrature weights.

    ``jitter`` displaces interior points by a uniform perturbation of up to
    ``jitter`` times the grid spacing (seeded, for robustness studies);
    boundary points never move.  Deterministic for fixed (spec, seed).
    Raises ``ValueError`` unless ``0 <= jitter < 0.5``.
    """
    if not 0.0 <= jitter < 0.5:
        raise ValueError(f"jitter must be in [0, 0.5), got {jitter!r}")
    cloud = _SHAPES[spec.shape].generate(spec)
    if jitter > 0.0:
        cloud = _apply_jitter(cloud, spec, seed, jitter)
    cloud.metadata["h"] = fill_distance(cloud)
    return cloud


def _generate_interval(spec: ManifoldSpec) -> PointCloud:
    n = spec.resolution
    if n < 3:
        raise ValueError("resolution too small: interval needs at least 3 points (one interior)")
    return PointCloud(
        points=np.linspace(spec.a, spec.b, n)[:, None],
        intrinsic_dim=1,
        boundary_indices=np.array([0, n - 1]),
        volume_weights=_trapezoid_weights(spec.b - spec.a, n),
        area_weights=np.array([1.0, 1.0]),  # counting measure for k = 1
    )


def _trapezoid_weights(width: float, n: int) -> np.ndarray:
    step = width / (n - 1)
    w = np.full(n, step)
    w[0] = w[-1] = 0.5 * step
    return w


def _generate_rectangle(spec: ManifoldSpec) -> PointCloud:
    wx, wy = spec.widths
    n_target = spec.resolution
    nx = max(3, int(round(math.sqrt(n_target * wx / wy))))
    ny = max(3, int(round(math.sqrt(n_target * wy / wx))))
    X, Y = np.meshgrid(np.linspace(0.0, wx, nx), np.linspace(0.0, wy, ny), indexing="ij")
    vw = np.outer(_trapezoid_weights(wx, nx), _trapezoid_weights(wy, ny)).ravel()
    # point i * ny + j is on an x-edge when i is 0 or nx - 1, on a y-edge likewise
    i, j = np.indices((nx, ny))
    on_x, on_y = i % (nx - 1) == 0, j % (ny - 1) == 0
    bidx = np.flatnonzero(on_x | on_y)
    dx = wx / (nx - 1)
    dy = wy / (ny - 1)
    # an edge point owns its edge's spacing; a corner half a cell from each edge
    aw = np.where(on_x & on_y, 0.5 * (dx + dy), np.where(on_x, dy, dx)).ravel()[bidx]
    return PointCloud(
        points=np.column_stack([X.ravel(), Y.ravel()]),
        intrinsic_dim=2,
        boundary_indices=bidx,
        volume_weights=vw,
        area_weights=aw,
    )


def _rings(radius, area, count, height=None) -> PointCloud:
    """A pole, staggered rings and a boundary rim, from one entry per ring.

    Ring j, from the pole (j = 0, one point) to the rim (the last ring),
    puts ``count[j]`` points at radius ``radius[j]`` (and height
    ``height[j]`` when given) at angles offset by half a step on odd j,
    and splits its cell area ``area[j]`` evenly among them.  The rim's
    points are the boundary, each owning an equal arc of it.
    """
    count = np.asarray(count)
    ring = np.repeat(np.arange(count.size), count)
    k = np.arange(ring.size) - np.repeat(np.cumsum(count) - count, count)
    m = count[ring]
    theta = (ring % 2) * math.pi / m + 2.0 * math.pi * k / m
    r = np.asarray(radius)[ring]
    cols = [r * np.cos(theta), r * np.sin(theta)]
    if height is not None:
        cols.append(np.asarray(height)[ring])
    m_b = int(count[-1])
    return PointCloud(
        points=np.column_stack(cols),
        intrinsic_dim=2,
        boundary_indices=np.arange(ring.size - m_b, ring.size),
        volume_weights=np.repeat(np.asarray(area) / count, count),
        area_weights=np.full(m_b, 2.0 * math.pi * radius[-1] / m_b),
    )


def _generate_disk(spec: ManifoldSpec) -> PointCloud:
    # Node-centered rings: ring j sits at radius j*dr and owns the annulus
    # [(j-1/2) dr, (j+1/2) dr] (clamped), so ring areas partition the disk
    # exactly.  The rim, ring n_rho, sits exactly on the unit circle.  The
    # areas are Python floats: x ** 2 there is pow, not numpy's x * x.
    n_rho = max(2, int(round(math.sqrt(spec.resolution / math.pi))))
    dr = 1.0 / n_rho
    radius = [j * dr for j in range(n_rho)] + [1.0]
    area = ([math.pi * (0.5 * dr) ** 2]
            + [math.pi * ((rho + 0.5 * dr) ** 2 - (rho - 0.5 * dr) ** 2)
               for rho in radius[1:-1]]
            + [math.pi * (1.0 - (1.0 - 0.5 * dr) ** 2)])
    count = [1] + [max(6, int(round(2.0 * math.pi * j))) for j in range(1, n_rho + 1)]
    return _rings(radius, area, count)


def _generate_cap(spec: ManifoldSpec) -> PointCloud:
    # Latitude rings uniform in polar angle phi in [0, phi_max], one point at
    # the pole.  Band areas are exact: a band [z_lo, z_hi] of the unit sphere
    # has area 2 pi (z_hi - z_lo).
    z0 = spec.z0
    phi_max = math.acos(z0)
    dphi_target = math.sqrt(2.0 * math.pi * (1.0 - z0) / spec.resolution)
    n_phi = max(2, int(round(phi_max / dphi_target)))
    dphi = phi_max / n_phi
    phi = [j * dphi for j in range(1, n_phi)]
    radius = [0.0] + [math.sin(p) for p in phi] + [math.sin(phi_max)]
    height = [1.0] + [math.cos(p) for p in phi] + [z0]
    area = ([2.0 * math.pi * (1.0 - math.cos(0.5 * dphi))]
            + [2.0 * math.pi * (math.cos(p - 0.5 * dphi) - math.cos(p + 0.5 * dphi))
               for p in phi]
            + [2.0 * math.pi * (math.cos(phi_max - 0.5 * dphi) - z0)])
    count = [1] + [max(6, int(round(2.0 * math.pi * r / dphi))) for r in radius[1:]]
    return _rings(radius, area, count, height)


class _Shape(NamedTuple):
    ambient_dim: int
    generate: Callable[[ManifoldSpec], PointCloud]


# the built-in shapes, the one list of their names
_SHAPES = {
    "interval": _Shape(1, _generate_interval),
    "rectangle": _Shape(2, _generate_rectangle),
    "disk": _Shape(2, _generate_disk),
    "spherical_cap": _Shape(3, _generate_cap),
}
SHAPES = tuple(_SHAPES)


def _apply_jitter(cloud: PointCloud, spec: ManifoldSpec, seed: int, jitter: float) -> PointCloud:
    rng = np.random.default_rng(seed)
    pts = cloud.points.copy()
    interior = np.ones(cloud.n, dtype=bool)
    interior[cloud.boundary_indices] = False
    # spacing estimate from the unjittered cloud
    h = fill_distance(cloud)
    disp = rng.uniform(-jitter * h, jitter * h, size=pts.shape)
    if spec.shape == "spherical_cap":
        # displace in the tangent plane, then renormalize onto the sphere
        nrm = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        disp -= (disp * nrm).sum(axis=1, keepdims=True) * nrm
        pts[interior] += disp[interior]
        pts[interior] /= np.linalg.norm(pts[interior], axis=1, keepdims=True)
    else:
        pts[interior] += disp[interior]
    return replace(cloud, points=pts)


# ---------------------------------------------------------------------------
# CSV schema: one comment line "# intrinsic_dim=k", then a header
# "x1,...,xd,volume_weight,boundary_flag,area_weight".  area_weight may be
# empty when boundary_flag is 0.  Reals carry 17 significant digits so a
# save/load round trip is bit exact.
# ---------------------------------------------------------------------------

def _csv_rows(table: np.ndarray) -> str:
    """The rows of ``table`` as CSV lines of ``%.17g`` cells, in one %-format."""
    n, c = table.shape
    return (",".join(["%.17g"] * c) + "\n") * n % tuple(table.ravel().tolist())


def save(cloud: PointCloud, path) -> None:
    flag = np.zeros(cloud.n)
    flag[cloud.boundary_indices] = 1.0
    area = np.full(cloud.n, np.nan)
    area[cloud.boundary_indices] = cloud.area_weights
    cols = [f"x{i + 1}" for i in range(cloud.ambient_dim)]
    text = _csv_rows(np.column_stack([cloud.points, cloud.volume_weights, flag, area]))
    with open(path, "w") as fh:
        fh.write(f"# intrinsic_dim={cloud.intrinsic_dim}\n")
        fh.write(",".join(cols + ["volume_weight", "boundary_flag", "area_weight"]) + "\n")
        # a cloud's values are finite, so "nan" marks exactly the empty interior cells
        fh.write(text.replace(",nan\n", ",\n"))


def load(path) -> PointCloud:
    with open(path, encoding="utf-8-sig") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    k = None
    header_at = None
    for idx, ln in enumerate(lines):
        stripped = ln.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            if body.startswith("intrinsic_dim"):
                try:
                    k = int(body.split("=", 1)[1])
                except (IndexError, ValueError):
                    raise CloudFormatError(f"{path}:{idx + 1}: bad intrinsic_dim comment: {ln!r}")
            continue
        header_at = idx
        break
    if k is None:
        raise CloudFormatError(f"{path}: missing '# intrinsic_dim=k' comment line")
    if header_at is None:
        raise CloudFormatError(f"{path}: missing header row")
    header = [c.strip() for c in lines[header_at].split(",")]
    expected_tail = ["volume_weight", "boundary_flag", "area_weight"]
    if len(header) < 4 or header[-3:] != expected_tail:
        raise CloudFormatError(f"{path}:{header_at + 1}: bad header {header!r}")
    d = len(header) - 3
    if any(header[i] != f"x{i + 1}" for i in range(d)):
        raise CloudFormatError(f"{path}:{header_at + 1}: bad coordinate columns {header!r}")
    if not 1 <= k <= d:
        raise CloudFormatError(f"{path}: intrinsic_dim must satisfy 1 <= k <= d, "
                               f"got k={k}, d={d}")

    rows = lines[header_at + 1:]
    try:
        return _cloud(_parse_bulk(rows, d), k)
    except ValueError:      # the line loop alone rejects a file and words the message
        pass
    return _cloud(_parse_lines(path, rows, d, first_lineno=header_at + 2), k)


def _cloud(table: np.ndarray, k: int) -> PointCloud:
    """The cloud of a table of rows (coordinates, volume, flag, area weight)."""
    d = table.shape[1] - 3
    on_boundary = table[:, d + 1] == 1.0
    return PointCloud(points=table[:, :d], intrinsic_dim=k,
                      boundary_indices=np.flatnonzero(on_boundary), volume_weights=table[:, d],
                      area_weights=table[on_boundary, d + 2])


def _parse_bulk(rows: list, d: int) -> np.ndarray:
    """All data rows in one ``loadtxt`` pass, an empty area cell as NaN.

    Raises ``ValueError`` on any row it cannot take; ``PointCloud`` rejects
    bad values.  As in :func:`_parse_lines`, ``int`` rejects a flag of 1.0,
    and ``comments=None`` keeps a ``#`` inside a cell from being cut off.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # loadtxt warns on a file without rows
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2, converters={
            d + 1: int, d + 2: lambda cell: float(cell) if cell.strip() else math.nan})
    if not (table.shape[0] and table.shape[1] == d + 3
            and np.isin(table[:, d + 1], (0.0, 1.0)).all()):
        raise ValueError("rows the line loop must read")
    return table


def _parse_lines(path, rows: list, d: int, first_lineno: int) -> np.ndarray:
    """The table of :func:`_parse_bulk`, line by line; raises on the first bad line."""
    table = []
    for lineno, ln in enumerate(rows, start=first_lineno):
        if not ln.strip() or ln.strip().startswith("#"):
            continue
        parts = [c.strip() for c in ln.split(",")]
        if len(parts) != d + 3:
            raise CloudFormatError(f"{path}:{lineno}: expected {d + 3} fields, got {len(parts)}")
        try:
            coords = [float(c) for c in parts[:d]]
            v = float(parts[d])
            flag = int(parts[d + 1])
        except ValueError as exc:
            raise CloudFormatError(f"{path}:{lineno}: {exc}") from None
        if not all(math.isfinite(c) for c in coords) or not math.isfinite(v):
            raise CloudFormatError(f"{path}:{lineno}: non-finite value")
        if v <= 0.0:
            raise CloudFormatError(f"{path}:{lineno}: non-positive volume weight {v}")
        if flag not in (0, 1):
            raise CloudFormatError(f"{path}:{lineno}: boundary_flag must be 0 or 1")
        a = math.nan
        if flag:
            if parts[d + 2] == "":
                raise CloudFormatError(f"{path}:{lineno}: boundary point lacks area weight")
            try:
                a = float(parts[d + 2])
            except ValueError as exc:
                raise CloudFormatError(f"{path}:{lineno}: {exc}") from None
            if not math.isfinite(a) or a <= 0.0:
                raise CloudFormatError(f"{path}:{lineno}: non-positive area weight {a}")
        table.append(coords + [v, flag, a])
    if not table:
        raise CloudFormatError(f"{path}: no data rows")
    return np.array(table)

import math
import re

import numpy as np
import pytest

from pim.pointcloud import (CloudFormatError, ManifoldSpec, PointCloud,
                            fill_distance, generate, load, save)


def brute_fill_distance(cloud):
    pts = cloud.points
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    return float(np.sqrt(d2.min(axis=1)).max())


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_interval_three_points():
    cloud = generate(ManifoldSpec.interval(0.0, 1.0, 3))
    assert np.array_equal(cloud.points.ravel(), [0.0, 0.5, 1.0])
    assert np.array_equal(cloud.volume_weights, [0.25, 0.5, 0.25])
    assert np.array_equal(np.sort(cloud.boundary_indices), [0, 2])
    assert np.array_equal(cloud.area_weights, [1.0, 1.0])
    assert cloud.intrinsic_dim == 1


def test_interval_general():
    cloud = generate(ManifoldSpec.interval(-1.0, 3.0, 41))
    assert cloud.n == 41
    assert cloud.points[0, 0] == -1.0 and cloud.points[-1, 0] == 3.0
    assert np.sum(cloud.volume_weights) == pytest.approx(4.0, rel=1e-14)
    assert fill_distance(cloud) == pytest.approx(0.1, rel=1e-12)


def test_disk_measures():
    cloud = generate(ManifoldSpec.disk(2000))
    assert abs(np.sum(cloud.volume_weights) - math.pi) <= 0.01 * math.pi
    assert abs(np.sum(cloud.area_weights) - 2 * math.pi) <= 0.01 * 2 * math.pi
    r = np.linalg.norm(cloud.boundary_points, axis=1)
    assert np.max(np.abs(r - 1.0)) <= 1e-12  # rim points exactly on |x| = 1
    r_all = np.linalg.norm(cloud.points, axis=1)
    assert np.max(r_all) <= 1.0 + 1e-12


def test_hemisphere_measures():
    cloud = generate(ManifoldSpec.spherical_cap(0.0, 1500))
    assert abs(np.sum(cloud.volume_weights) - 2 * math.pi) <= 0.01 * 2 * math.pi
    assert abs(np.sum(cloud.area_weights) - 2 * math.pi) <= 0.01 * 2 * math.pi
    # all samples on the unit sphere, boundary on the equator
    assert np.max(np.abs(np.linalg.norm(cloud.points, axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(cloud.boundary_points[:, 2])) <= 1e-12
    assert cloud.intrinsic_dim == 2 and cloud.ambient_dim == 3


def test_cap_measures_offcenter():
    z0 = 0.5
    cloud = generate(ManifoldSpec.spherical_cap(z0, 900))
    exact_area = 2 * math.pi * (1 - z0)
    exact_perim = 2 * math.pi * math.sqrt(1 - z0 ** 2)
    assert abs(np.sum(cloud.volume_weights) - exact_area) <= 0.01 * exact_area
    assert abs(np.sum(cloud.area_weights) - exact_perim) <= 0.01 * exact_perim
    assert np.max(np.abs(cloud.boundary_points[:, 2] - z0)) <= 1e-12
    assert np.min(cloud.points[:, 2]) >= z0 - 1e-12


def test_rectangle_measures():
    cloud = generate(ManifoldSpec.rectangle(2.0, 0.5, 800))
    assert np.sum(cloud.volume_weights) == pytest.approx(1.0, rel=1e-12)
    assert np.sum(cloud.area_weights) == pytest.approx(5.0, rel=1e-12)
    x, y = cloud.boundary_points[:, 0], cloud.boundary_points[:, 1]
    on_edge = (np.abs(x) < 1e-15) | (np.abs(x - 2.0) < 1e-15) \
        | (np.abs(y) < 1e-15) | (np.abs(y - 0.5) < 1e-15)
    assert np.all(on_edge)


@pytest.mark.parametrize("shape,make", [
    ("interval", lambda: ManifoldSpec.interval(0.0, 1.0, 101)),
    ("disk", lambda: ManifoldSpec.disk(500)),
    ("rectangle", lambda: ManifoldSpec.rectangle(1.0, 1.0, 400)),
    ("spherical_cap", lambda: ManifoldSpec.spherical_cap(0.5, 400)),
])
def test_generate_deterministic(shape, make):
    a = generate(make(), seed=7, jitter=0.1)
    b = generate(make(), seed=7, jitter=0.1)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.volume_weights, b.volume_weights)
    c = generate(make(), seed=8, jitter=0.1)
    assert not np.array_equal(a.points, c.points)


def on_rim(cloud, spec):
    """Mask of the points on the manifold's edge, found from their coordinates."""
    P = cloud.points
    if spec.shape == "interval":
        return (P[:, 0] == spec.a) | (P[:, 0] == spec.b)
    if spec.shape == "rectangle":
        return ((P[:, 0] == 0.0) | (P[:, 0] == spec.widths[0])
                | (P[:, 1] == 0.0) | (P[:, 1] == spec.widths[1]))
    if spec.shape == "disk":
        return np.abs(np.hypot(P[:, 0], P[:, 1]) - 1.0) <= 1e-15
    return P[:, 2] == spec.z0


# the clouds the benchmark, the fixtures and CI solve on: (spec, n, rim points)
LAYOUTS = [
    (ManifoldSpec.disk(2000), 2044, 157),
    (ManifoldSpec.disk(8000), 8012, 314),
    (ManifoldSpec.spherical_cap(0.5, 2000), 2004, 135),
    (ManifoldSpec.spherical_cap(0.5, 8000), 8188, 275),
    (ManifoldSpec.spherical_cap(0.5, 8188), 8188, 275),
    (ManifoldSpec.spherical_cap(0.5, 32468), 32468, 551),
    (ManifoldSpec.interval(0.0, 1.0, 501), 501, 2),
    (ManifoldSpec.rectangle(1.0, 1.0, 400), 400, 76),
]


@pytest.mark.parametrize("spec,n,rim", LAYOUTS,
                         ids=lambda v: f"{v.shape}-{v.resolution}" if isinstance(v, ManifoldSpec)
                         else str(v))
@pytest.mark.parametrize("jitter", [0.0, 0.25])
def test_generator_layouts_are_pinned(spec, n, rim, jitter):
    cloud = generate(spec, seed=0, jitter=jitter)
    assert cloud.n == n
    assert cloud.boundary_indices.size == rim
    # the boundary is exactly the rim, listed in point order
    assert np.array_equal(cloud.boundary_indices, np.flatnonzero(on_rim(cloud, spec)))


def test_jitter_keeps_cap_on_sphere():
    cloud = generate(ManifoldSpec.spherical_cap(0.2, 600), seed=3, jitter=0.3)
    assert np.max(np.abs(np.linalg.norm(cloud.points, axis=1) - 1.0)) <= 1e-12
    # boundary ring untouched by jitter
    assert np.max(np.abs(cloud.boundary_points[:, 2] - 0.2)) <= 1e-12


@pytest.mark.parametrize("jitter", [0.5, 5.0, -0.1, float("nan"), float("inf")])
def test_jitter_out_of_range_rejected(jitter):
    with pytest.raises(ValueError, match="jitter"):
        generate(ManifoldSpec.interval(0.0, 1.0, 5), seed=1, jitter=jitter)


def test_jitter_moves_only_interior():
    base = generate(ManifoldSpec.disk(400))
    jit = generate(ManifoldSpec.disk(400), seed=11, jitter=0.25)
    assert np.array_equal(base.boundary_points, jit.boundary_points)
    interior = np.setdiff1d(np.arange(base.n), base.boundary_indices)
    assert not np.array_equal(base.points[interior], jit.points[interior])


def test_quadrature_consistency_under_refinement():
    # weighted sums of low-degree polynomials approach the analytic integrals
    for n, tol in ((400, 0.02), (1600, 0.01)):
        cloud = generate(ManifoldSpec.disk(n))
        x, y = cloud.points[:, 0], cloud.points[:, 1]
        v = cloud.volume_weights
        assert abs(np.sum(v * x)) <= tol                  # odd moment -> 0
        got = np.sum(v * (x * x + y * y))
        assert abs(got - math.pi / 2.0) <= tol * math.pi  # r^2 over unit disk


def test_resolution_too_small():
    with pytest.raises(ValueError):
        generate(ManifoldSpec.interval(0.0, 1.0, 2))
    with pytest.raises(ValueError):
        generate(ManifoldSpec.disk(1))


def test_spec_validation():
    with pytest.raises(ValueError):
        ManifoldSpec.interval(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        ManifoldSpec.spherical_cap(1.0, 100)
    with pytest.raises(ValueError):
        ManifoldSpec.spherical_cap(-1.0, 100)
    with pytest.raises(ValueError, match=r"^unknown shape 'torus'; choose from \("):
        ManifoldSpec(shape="torus", resolution=100)
    for widths in ((0.0, 1.0), (1.0, -2.0)):
        with pytest.raises(ValueError, match=re.escape(
                f"rectangle widths must be positive, got {widths}")):
            ManifoldSpec.rectangle(*widths, 100)
    # a non-finite end or width once passed the spec or failed under another
    # rule's words: inf overflowed int(), nan failed inside it naming no
    # value, and an infinite end made the points non-finite
    for v in (math.inf, -math.inf, math.nan):
        for make, message in (
                (lambda: ManifoldSpec.interval(v, 1.0, 11), f"finite a < b, got [{v}, 1.0]"),
                (lambda: ManifoldSpec.interval(0.0, v, 11), f"finite a < b, got [0.0, {v}]"),
                (lambda: ManifoldSpec.rectangle(v, 1.0, 50), f"finite widths, got ({v}, 1.0)"),
                (lambda: ManifoldSpec.rectangle(1.0, v, 50), f"finite widths, got (1.0, {v})")):
            with pytest.raises(ValueError, match=re.escape(message)):
                make()


@pytest.mark.parametrize("widths,ratio,count", [((1e300, 1e-300), "inf", "inf"),
                                                ((1e-300, 1e300), "0", "inf"),
                                                ((1e12, 1.0), "1e+12", "6e+07")])
def test_rectangle_grid_must_fit_its_resolution(widths, ratio, count):
    # an overflowing width ratio once raised OverflowError inside int(), and a
    # large finite one asked for a grid of ~3 sqrt(n wx / wy) points
    with pytest.raises(ValueError, match=re.escape(
            f"rectangle width ratio wx/wy = {ratio} is too extreme for 400 points: "
            f"its grid would hold about {count}")):
        ManifoldSpec.rectangle(*widths, 400)


def test_rectangle_of_moderate_ratio_is_kept():
    # the grid holds at most RECTANGLE_EXCESS squares' worth: ratio 100 at
    # 400 points is 3 x 200 = 600 points, and 2 points still make a 3 x 3 grid
    for widths, n in (((100.0, 1.0), 400), ((1.0, 100.0), 400), ((2.0, 0.5), 2)):
        ManifoldSpec.rectangle(*widths, n)


@pytest.mark.parametrize("jitter", [0.0, 0.25])
@pytest.mark.parametrize("spec", [ManifoldSpec.interval(0.0, 1.0, 11), ManifoldSpec.disk(60),
                                  ManifoldSpec.rectangle(1.0, 0.5, 60),
                                  ManifoldSpec.spherical_cap(0.5, 60)],
                         ids=lambda spec: spec.shape)
def test_metadata_holds_only_the_fill_distance(tmp_path, spec, jitter):
    cloud = generate(spec, seed=3, jitter=jitter)
    assert cloud.metadata == {"h": fill_distance(cloud)}
    save(cloud, tmp_path / "c.csv")
    assert load(tmp_path / "c.csv").metadata == {}


# ---------------------------------------------------------------------------
# fill distance
# ---------------------------------------------------------------------------

def test_fill_distance_trivial():
    cloud = generate(ManifoldSpec.interval(0.0, 1.0, 11))
    assert fill_distance(cloud) == pytest.approx(0.1, rel=1e-12)


def test_fill_distance_two_points():
    cloud = PointCloud(points=np.array([[0.0], [1.0]]), intrinsic_dim=1,
                       boundary_indices=np.array([0, 1]),
                       volume_weights=np.array([0.5, 0.5]),
                       area_weights=np.array([1.0, 1.0]))
    assert fill_distance(cloud) == 1.0


def test_fill_distance_matches_brute_force(disk_cloud, cap_cloud):
    for cloud in (disk_cloud, cap_cloud):
        assert fill_distance(cloud) == pytest.approx(
            brute_fill_distance(cloud), rel=1e-12)


def test_fill_distance_needs_two_points():
    lone = PointCloud(points=np.array([[0.0]]), intrinsic_dim=1,
                      boundary_indices=np.array([], dtype=int),
                      volume_weights=np.array([1.0]),
                      area_weights=np.array([]))
    with pytest.raises(ValueError):
        fill_distance(lone)


# ---------------------------------------------------------------------------
# construction validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("volume,boundary,area,message", [
    ([0.5, 0.5, 0.5], [0], [1.0], "volume_weights length must match point count"),
    ([0.5, 0.5], [0], [1.0, 1.0], "area_weights length must match boundary_indices"),
    ([0.5, 0.5], [0, 2], [1.0, 1.0], "boundary index out of range"),
    ([0.5, 0.5], [-1], [1.0], "boundary index out of range"),
], ids=["three volume weights", "two area weights", "index 2", "index -1"])
def test_rejects_missized_weights_and_stray_boundary_index(volume, boundary, area, message):
    with pytest.raises(CloudFormatError, match=f"^{message}$"):
        PointCloud(points=np.array([[0.0], [1.0]]), intrinsic_dim=1,
                   boundary_indices=np.array(boundary), volume_weights=np.array(volume),
                   area_weights=np.array(area))


def test_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        PointCloud(points=np.array([[0.0], [1.0]]), intrinsic_dim=1,
                   boundary_indices=np.array([0]),
                   volume_weights=np.array([0.0, 1.0]),
                   area_weights=np.array([1.0]))


def test_rejects_duplicate_boundary_indices():
    with pytest.raises(ValueError):
        PointCloud(points=np.array([[0.0], [1.0]]), intrinsic_dim=1,
                   boundary_indices=np.array([1, 1]),
                   volume_weights=np.array([0.5, 0.5]),
                   area_weights=np.array([1.0, 1.0]))


def test_rejects_bad_intrinsic_dim():
    with pytest.raises(ValueError):
        PointCloud(points=np.array([[0.0], [1.0]]), intrinsic_dim=2,
                   boundary_indices=np.array([], dtype=int),
                   volume_weights=np.array([0.5, 0.5]),
                   area_weights=np.array([]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rejects_nonfinite_coordinates(bad):
    # a NaN coordinate once surfaced only as scipy's "data must be finite"
    # inside fill_distance or assemble
    with pytest.raises(CloudFormatError, match="coordinates must be finite"):
        PointCloud(points=np.array([[0.0], [bad], [1.0]]), intrinsic_dim=1,
                   boundary_indices=np.array([0, 2]),
                   volume_weights=np.array([0.25, 0.5, 0.25]),
                   area_weights=np.array([1.0, 1.0]))


def test_immutable_arrays(interval_cloud):
    with pytest.raises(ValueError):
        interval_cloud.points[0, 0] = 99.0


# ---------------------------------------------------------------------------
# file round trip
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: ManifoldSpec.interval(0.0, 1.0, 17),
    lambda: ManifoldSpec.disk(120),
    lambda: ManifoldSpec.spherical_cap(0.3, 150),
    lambda: ManifoldSpec.rectangle(1.0, 0.5, 140),
])
def test_save_load_roundtrip(tmp_path, make):
    cloud = generate(make(), seed=5, jitter=0.15)
    path = tmp_path / "cloud.csv"
    save(cloud, path)
    back = load(path)
    assert back.intrinsic_dim == cloud.intrinsic_dim
    for name in ("points", "volume_weights", "boundary_indices", "area_weights"):
        got, sent = getattr(back, name), getattr(cloud, name)
        assert got.shape == sent.shape and got.tobytes() == sent.tobytes(), name


def test_load_header_schema(tmp_path):
    path = tmp_path / "hand.csv"
    path.write_text(
        "# intrinsic_dim=2\n"
        "x1,x2,x3,volume_weight,boundary_flag,area_weight\n"
        "0,0,1,0.5,0,\n"
        "1,0,0,0.5,1,0.25\n")
    cloud = load(path)
    assert cloud.intrinsic_dim == 2 and cloud.ambient_dim == 3
    assert cloud.n == 2
    assert np.array_equal(cloud.boundary_indices, [1])
    assert cloud.area_weights[0] == 0.25


def test_load_rejects_nonpositive_volume(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "# intrinsic_dim=1\n"
        "x1,volume_weight,boundary_flag,area_weight\n"
        "0,0.0,0,\n"
        "1,0.5,1,1\n")
    with pytest.raises(CloudFormatError, match="volume"):
        load(path)


def test_load_rejects_boundary_without_area(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "# intrinsic_dim=1\n"
        "x1,volume_weight,boundary_flag,area_weight\n"
        "0,0.5,1,\n"
        "1,0.5,0,\n")
    with pytest.raises(CloudFormatError):
        load(path)


def test_load_rejects_malformed_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "# intrinsic_dim=1\n"
        "x1,volume_weight,boundary_flag,area_weight\n"
        "0,0.5,0\n")
    with pytest.raises(CloudFormatError):
        load(path)


def test_load_rejects_k_above_d(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "# intrinsic_dim=3\n"
        "x1,x2,volume_weight,boundary_flag,area_weight\n"
        "0,0,0.5,0,\n"
        "1,1,0.5,0,\n")
    with pytest.raises(CloudFormatError):
        load(path)


HEADER_1D = "x1,volume_weight,boundary_flag,area_weight\n"


@pytest.mark.parametrize("text,where", [
    ("# intrinsic_dim=1\n" + HEADER_1D + "0,0.5,0\n", ":3: expected 4 fields"),
    ("# intrinsic_dim=1\n" + HEADER_1D + "0,0.5,1,1\n\nnan,0.5,1,1\n", ":5: non-finite"),
    ("# intrinsic_dim=0\n" + HEADER_1D + "0,0.5,1,1\n", ": intrinsic_dim must satisfy"),
    (HEADER_1D + "0,0.5,1,1\n", ": missing '# intrinsic_dim=k'"),
    ("# intrinsic_dim=1\n" + HEADER_1D + "0,0.5,1.0,1\n",
     ":3: invalid literal for int() with base 10: '1.0'"),
    ("# intrinsic_dim=1\n" + HEADER_1D + "0#,0.5,1,1\n",
     ":3: could not convert string to float: '0#'"),
    ("# intrinsic_dim=1\n" + HEADER_1D + "0,0.5,1,1\n# note\n\n   \n 0.5 , 0.25 , 0 , \n"
     "1,0.5,1,nan\n", ":8: non-positive area weight nan"),
    ("# intrinsic_dim=1\n" + HEADER_1D + "0,0.5,1,1\n1,0.5,2,1\n",
     ":4: boundary_flag must be 0 or 1"),
    ("# intrinsic_dim=1\n" + HEADER_1D + "0,0.5,1,abc\n",
     ":3: could not convert string to float: 'abc'"),
    ("# intrinsic_dim=1\n" + HEADER_1D + "# no rows\n\n", ": no data rows"),
    ("# intrinsic_dim=x\n" + HEADER_1D + "0,0.5,1,1\n",
     ":1: bad intrinsic_dim comment: '# intrinsic_dim=x'"),
    ("# intrinsic_dim=1\n# only comments\n\n", ": missing header row"),
    ("# intrinsic_dim=1\nx1,volume_weight,flag,area_weight\n0,0.5,1,1\n",
     ":2: bad header ['x1', 'volume_weight', 'flag', 'area_weight']"),
    ("# intrinsic_dim=1\nx2,x1,volume_weight,boundary_flag,area_weight\n0,0,0.5,1,1\n",
     ":2: bad coordinate columns ['x2', 'x1', "),
], ids=["short row", "nan coordinate", "k = 0", "no dim comment", "flag 1.0", "# in a cell",
        "after comments, blank lines and padded cells", "flag 2", "area not a number",
        "header without rows", "dim not a number", "comments only", "wrong header tail",
        "coordinate columns not x1..xd"])
def test_load_errors_name_the_file_and_line(tmp_path, text, where):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(CloudFormatError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}{where}"), str(info.value)


def test_load_skips_comments_and_blank_lines_and_strips_cells(tmp_path):
    clean, loose = tmp_path / "clean.csv", tmp_path / "loose.csv"
    clean.write_text("# intrinsic_dim=1\n" + HEADER_1D + "0,0.5,1,1\n0.5,0.25,0,\n1,0.5,1,2\n")
    loose.write_text("# intrinsic_dim=1\n" + HEADER_1D + "0,0.5,1,1\n# note\n\n   \n"
                     " 0.5 ,\t0.25 , 0 ,  \n1,0.5, 1 ,2 \n")
    a, b = load(clean), load(loose)
    for name in ("points", "volume_weights", "boundary_indices", "area_weights"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert b.area_weights.tolist() == [1.0, 2.0]

"""The pursuit kernels against their full-grid reference formulas.

The model evaluates the predator drift only on the cells within
``search_radius`` of the predator, as a polynomial in ``z = p - x``, the
prey speed and sink from the squared distance, and the divergence of the
prey speed in closed form.  The references below are the direct formulas:
the radial bump gradient ``slope(|z|) z / |z|`` summed over every cell, the
bumps taken at the plain distance, and central differences of the speed.
The central differences also check the closed-form divergences of the
verify suites' smooth speeds.
"""

import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from polyflow.pursuit import Bump, PredatorPreyParams, predator_prey_fields
from polyflow.spaces import GridFunction
from polyflow.suites import _smooth_renewal, _varying_ibvp

REL_TOL = 1e-12


def pursuit_params(dim):
    return PredatorPreyParams(
        dim=dim, alpha=1.2, escape_radius=0.8, search_radius=0.6,
        feeding_radius=0.4, feeding_rate=0.5,
        box=((-1.0, 1.0),) * dim, cells=(50,) * dim, horizon=0.3,
        macro_step=0.3, prey_center=(0.0,) * dim, prey_radius=0.7,
        prey_amp=1.0, predator_start=(0.15,) + (0.0,) * (dim - 1))


def random_density(params, seed=0):
    rho = params.initial_density()
    rng = np.random.default_rng(seed)
    return rho.with_values(rng.uniform(0.0, 1.0, rho.values.shape))


def bump_reference(bump, s):
    y = np.asarray(s, dtype=float) / bump.radius
    q = 1.0 - y * y
    q2 = q * q
    return np.where(np.abs(y) < 1.0, bump.amp * (q2 * q2), 0.0)


def bump_slope_reference(bump, s):
    y = np.asarray(s, dtype=float) / bump.radius
    q = 1.0 - y * y
    return np.where(np.abs(y) < 1.0,
                    bump.amp * 4.0 * (q * q * q)
                    * (-2.0 * y / bump.radius), 0.0)


def drift_reference(search, p, rho):
    pts = rho.centers()
    if rho.dim == 1:
        diff = p[0] - pts
        grad = bump_slope_reference(search, np.abs(diff)) * np.sign(diff)
        return np.array([np.sum(grad * rho.values) * rho.cell_volume])
    diff = p[None, :] - pts
    dist = np.linalg.norm(diff, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(dist[:, None] > 0,
                        diff / np.maximum(dist, 1e-300)[:, None], 0.0)
    grad = bump_slope_reference(search, dist)[:, None] * unit
    return np.sum(grad * rho.values.reshape(-1, 1), axis=0) * rho.cell_volume


def distance(p, x, dim):
    return np.abs(p - x) if dim == 1 else np.linalg.norm(p - x, axis=-1)


def assert_close(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= REL_TOL * np.max(np.abs(ref))


class TestBump:
    def test_value_and_slope_match_reference(self):
        bump = Bump(0.6, 1.7)
        s = np.concatenate([np.linspace(-1.0, 1.0, 2001),
                            [0.0, -0.0, 0.6, -0.6, np.nextafter(0.6, 0.0),
                             np.nextafter(0.6, 1.0)]])
        assert np.array_equal(bump(s), bump_reference(bump, s))
        assert np.array_equal(bump.slope(s), bump_slope_reference(bump, s))


@pytest.mark.parametrize("dim", [1, 2])
class TestPredatorDrift:
    def places(self, rho, dim):
        dx = rho.dx[0]
        centre = rho.axis_centers(0)[17]
        if dim == 1:
            return {"centre": [0.0], "edge": [1.0 - dx], "corner": [-1.0],
                    "on-cell": [centre], "overhang": [1.3]}
        return {"centre": [0.0, 0.0], "edge": [1.0 - dx, 0.1],
                "corner": [-1.0, 1.0], "on-cell": [centre, centre],
                "overhang": [1.3, -0.2]}

    def test_matches_full_grid_sum(self, dim):
        params = pursuit_params(dim)
        fields = predator_prey_fields(params)
        rho = random_density(params)
        for name, p in self.places(rho, dim).items():
            p = np.array(p)
            got = fields.predator.f(0.0, p, rho)
            assert isinstance(got, np.ndarray) and got.shape == (dim,), name
            assert_close(got, drift_reference(fields.search, p, rho))

    def test_zero_outside_the_reach_of_the_box(self, dim):
        params = pursuit_params(dim)
        fields = predator_prey_fields(params)
        rho = random_density(params)
        p = np.array([1.7, 0.0][:dim])
        got = fields.predator.f(0.0, p, rho)
        assert got.shape == (dim,)
        assert np.array_equal(got, np.zeros(dim))
        assert np.array_equal(drift_reference(fields.search, p, rho),
                              np.zeros(dim))


@pytest.mark.parametrize("dim", [1, 2])
def test_prey_speed_and_sink_match_reference(dim):
    params = pursuit_params(dim)
    fields = predator_prey_fields(params)
    rng = np.random.default_rng(1)
    x = rng.uniform(-1.0, 1.0, (4000, dim) if dim == 2 else 4000)
    for p in (np.array([0.2, -0.1][:dim]), np.array([0.95, 0.9][:dim])):
        d = p - x
        dist = distance(p, x, dim)
        weight = bump_reference(fields.escape, dist) / (params.alpha
                                                        + dist * dist)
        speed = -d * (weight if dim == 1 else weight[:, None])
        assert_close(fields.prey.velocity(0.0, x, p), speed)
        assert_close(fields.prey.growth(0.0, x, p),
                     -bump_reference(fields.feeding, dist))


def central_divergence(velocity, t, pts, h, w):
    """Central-difference divergence of the analytic field at ``+-h``."""
    if pts.ndim == 1:
        return (velocity(t, pts + h, w) - velocity(t, pts - h, w)) / (2 * h)
    div = np.zeros(pts.shape[0])
    for a in range(pts.shape[1]):
        e = np.zeros(pts.shape[1])
        e[a] = h
        div += (velocity(t, pts + e, w)[:, a]
                - velocity(t, pts - e, w)[:, a]) / (2 * h)
    return div


def prey_divergence_case(dim):
    params = pursuit_params(dim)
    reach = params.escape_radius
    rng = np.random.default_rng(2)
    samples = []
    for p in (np.array([0.15, 0.0][:dim]), np.array([-0.3, 0.45][:dim])):
        # at the predator, inside the support, on its boundary, outside
        radii = np.array([0.0, 0.1, 0.5, 0.9, 1.0, 1.2, 1.7]) * reach
        if dim == 1:
            x = np.concatenate([p[0] - radii, p[0] + radii])
        else:
            angle = rng.uniform(0.0, 2.0 * np.pi, radii.size)
            ring = radii[:, None] * np.column_stack([np.cos(angle),
                                                     np.sin(angle)])
            axes = radii[:, None] * np.array([[1.0, 0.0]])
            x = p - np.concatenate([ring, axes])
        samples.append((x, p))
    return predator_prey_fields(params).prey, samples


DIVERGENCE_CASES = {
    1: lambda: prey_divergence_case(1),
    2: lambda: prey_divergence_case(2),
    "smooth_renewal": lambda: (_smooth_renewal(),
                               [(np.linspace(-2.0, 3.0, 101), None)]),
    "ibvp_varying": lambda: (_varying_ibvp(),
                             [(np.linspace(0.0, 2.0, 101), None)]),
}


@pytest.mark.parametrize("case", list(DIVERGENCE_CASES))
def test_prey_divergence_matches_central_differences(case):
    """Every closed-form divergence the library supplies (the prey in 1D
    and 2D, the renewal and ibvp verify suites' speeds) converges to the
    central differences at second order in the step."""
    coef, samples = DIVERGENCE_CASES[case]()
    for x, w in samples:
        got = coef.divergence(0.3, x, w)
        assert got.shape == (x.shape[0],)
        err = [np.max(np.abs(got - central_divergence(coef.velocity, 0.3, x,
                                                      h, w)))
               for h in (1e-3, 5e-4)]
        assert err[1] <= 1e-4
        assert 3.5 <= err[0] / err[1] <= 4.5
        if case in (1, 2):
            dist = distance(w, x, case)
            outside = dist > pursuit_params(case).escape_radius
            assert outside.any()
            assert np.all(got[outside] == 0.0)
            assert got[dist == 0.0][0] > 0.0  # source at z = 0


# --------------------------------------------------------------------------
# Frozen copies of the kernels before they reused their temporaries
# --------------------------------------------------------------------------

def frozen_prey_kernels(fields, params):
    """The prey's speed, divergence and sink as plain expressions, with the
    offset recomputed on every call."""
    dim, alpha = params.dim, params.alpha
    escape, feeding = fields.escape, fields.feeding

    def offset(x, p):
        d = np.asarray(p, dtype=float) - np.asarray(x, dtype=float)
        if dim == 1:
            return d, d * d
        return d, d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]

    def profile_sq(bump, dist_sq):
        q = np.maximum(1.0 - dist_sq / (bump.radius * bump.radius), 0.0)
        q2 = q * q
        return bump.amp * (q2 * q2)

    def velocity(t, x, p):
        d, dist_sq = offset(x, p)
        w = profile_sq(escape, dist_sq) / (alpha + dist_sq)
        return -d * (w if dim == 1 else w[..., None])

    inv_r2 = 1.0 / (escape.radius * escape.radius)
    four_amp = 4.0 * escape.amp * inv_r2

    def divergence(t, x, p):
        _, dist_sq = offset(x, p)
        inv = 1.0 / (alpha + dist_sq)
        q = np.maximum(1.0 - dist_sq * inv_r2, 0.0)
        q3 = q * q * q
        g = escape.amp * q3 * q * inv
        return dim * g - 2.0 * dist_sq * inv * (four_amp * q3 + g)

    def sink(t, x, p):
        return -profile_sq(feeding, offset(x, p)[1])

    return {"velocity": velocity, "divergence": divergence, "growth": sink}


def frozen_predator_velocity(search, dim, p, rho):
    """The predator drift over its index window, as plain expressions."""
    r = search.radius
    r2 = r * r
    drift_scale = -8.0 * search.amp / r2
    p = np.asarray(p, dtype=float)
    z, window = [], []
    for a in range(dim):
        xc = rho.axis_centers(a)
        lo, hi = np.searchsorted(xc, (p[a] - r, p[a] + r), side="right")
        z.append(p[a] - xc[lo:hi])
        window.append(slice(lo, hi))
    weight = rho.values[tuple(window)]
    if dim == 1:
        q = np.maximum(1.0 - z[0] * z[0] / r2, 0.0)
        val = np.array([np.dot(z[0], q * q * q * weight)])
    else:
        q = np.maximum(1.0 - (z[0][:, None] ** 2 + z[1][None, :] ** 2)
                       / r2, 0.0)
        w = q * q * q * weight
        val = np.array([np.dot(z[0], w.sum(axis=1)),
                        np.dot(z[1], w.sum(axis=0))])
    return val * (drift_scale * rho.cell_volume)


def same_bytes(a, b):
    """Equal shapes, dtypes and bits: signed zeros and NaN included."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def kernel_points(params, p, rng):
    """Points at the predator, on and around the kernels' support circles,
    on and off the grid, random, and NaN."""
    dim = params.dim
    radii = np.concatenate([[0.0], [params.escape_radius,
                                    params.feeding_radius] * 2,
                            rng.uniform(0.0, 2.0, 24)])
    radii[3:5] = np.nextafter(radii[1:3], 0.0)
    if dim == 1:
        x = np.concatenate([p[0] - radii, p[0] + radii,
                            [1.5, -3.0, np.nan, -0.0]])
        return x
    angle = rng.uniform(0.0, 2.0 * np.pi, radii.size)
    ring = p - radii[:, None] * np.column_stack([np.cos(angle),
                                                 np.sin(angle)])
    axes = p - radii[:, None] * np.array([[1.0, 0.0]])
    extra = np.array([[1.5, 0.0], [-3.0, 2.5], [np.nan, 0.1],
                      [0.2, np.nan], [-0.0, -0.0]])
    return np.concatenate([ring, axes, rng.uniform(-1.0, 1.0, (64, 2)),
                           extra])


def predator_points(dim):
    """Predators inside, at the centre, near and beyond the box edge, and
    on a cell centre."""
    return [np.array(p[:dim]) for p in
            ([0.15, 0.0], [-0.0, 0.0], [0.95, -0.9], [1.7, 0.3],
             [0.04 * 7 - 0.98, 0.02])]


@pytest.mark.parametrize("dim", [1, 2])
class TestAgainstFrozenCopy:
    """The in-place kernels give the bits of the plain expressions."""

    @pytest.mark.parametrize("kernel", ["velocity", "divergence", "growth"])
    def test_prey_kernels(self, dim, kernel):
        params = pursuit_params(dim)
        fields = predator_prey_fields(params)
        frozen = frozen_prey_kernels(fields, params)[kernel]
        rng = np.random.default_rng(11)
        with np.errstate(invalid="ignore"):
            for p in predator_points(dim):
                x = kernel_points(params, p, rng)
                got = getattr(fields.prey, kernel)(0.0, x, p)
                assert same_bytes(got, frozen(0.0, x, p)), p
                # no array that the kernel handed out is written afterwards
                again = getattr(fields.prey, kernel)(0.0, x, p)
                assert same_bytes(got, again)

    def test_divergence_certificate_sampling(self, dim):
        """The 201x201 ``v_div_lip`` sampling grid around the predator."""
        params = pursuit_params(dim)
        fields = predator_prey_fields(params)
        frozen = frozen_prey_kernels(fields, params)["divergence"]
        g1 = np.linspace(-params.escape_radius, params.escape_radius, 201)
        if dim == 1:
            pts = g1
        else:
            X, Y = np.meshgrid(g1, g1, indexing="ij")
            pts = np.column_stack([X.ravel(), Y.ravel()])
        p = np.zeros(dim)
        assert same_bytes(fields.prey.divergence(0.0, pts, p),
                          frozen(0.0, pts, p))

    def test_predator_velocity(self, dim):
        params = pursuit_params(dim)
        fields = predator_prey_fields(params)
        # the drift reads the starting density's grid; a density on
        # another grid (37 cells a side on a shifted box) reads its own
        other = random_density(params, 7)
        other = GridFunction.uniform(((-1.1, 0.9),) * dim, (37,) * dim
                                     ).with_values(other.values[
                                         (slice(0, 37),) * dim])
        for seed in (0, 5, None):
            rho = other if seed is None else random_density(params, seed)
            rho = rho.with_values(np.where(rho.values < 0.1, -0.0,
                                           rho.values))
            for p in predator_points(dim) + [np.array([np.nan, 0.1][:dim])]:
                got = fields.predator.f(0.0, p, rho)
                want = frozen_predator_velocity(fields.search, dim, p, rho)
                assert same_bytes(got, want), p


# --------------------------------------------------------------------------
# Frozen copies of the run's setup before it sampled on open axes
# --------------------------------------------------------------------------

def frozen_initial_density(params):
    """The start density from a zero grid and, in 2D, the full meshgrid of
    the cell centres."""
    origin = [float(lo) for lo, _ in params.box]
    dx = [(float(hi) - float(lo)) / n
          for (lo, hi), n in zip(params.box, params.cells)]
    grid = GridFunction(np.zeros(params.cells), origin, dx)
    centres = [grid.origin[a] + (np.arange(n) + 0.5) * grid.dx[a]
               for a, n in enumerate(params.cells)]
    if params.dim == 1:
        vals = np.asarray(params._prey(centres[0]), dtype=float)
    else:
        vals = np.asarray(params._prey(*np.meshgrid(*centres, indexing="ij")),
                          dtype=float)
    return grid.with_values(np.broadcast_to(vals, grid.values.shape).copy())


def frozen_v_div_lip(fields, params):
    """The ``v_div_lip`` certificate, in 2D from the frozen divergence at a
    ``(201 * 201, 2)`` point list around a predator at the origin."""
    alpha, escape = params.alpha, fields.escape
    reach = params.escape_radius
    if params.dim == 1:
        radial = lambda s: s / (alpha + s * s) * escape(s)
        h = reach / 4000.0
        radial_slope = lambda s: (radial(s + h) - radial(s - h)) / (2 * h)
        xs = np.linspace(-reach, reach, 2001)
        div = radial_slope(np.abs(xs))
        grad_div = np.gradient(div, xs)
        return float(np.trapezoid(np.abs(grad_div), xs)) * 1.1
    divergence = frozen_prey_kernels(fields, params)["divergence"]
    n2 = 201
    g1 = np.linspace(-reach, reach, n2)
    X, Y = np.meshgrid(g1, g1, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    dd = g1[1] - g1[0]
    divv = divergence(0.0, pts, np.zeros(2)).reshape(n2, n2)
    gx, gy = np.gradient(divv, dd, dd)
    return float(np.sum(np.hypot(gx, gy)) * dd * dd) * 1.1


def setup_params():
    """Pursuit params in 1D and 2D: the kernel tests' own, a prey off the
    grid's centre reaching the box edge on a non-square grid, and other
    kernel radii and ``alpha``."""
    out = [pursuit_params(1), pursuit_params(2)]
    for dim in (1, 2):
        out.append(replace(pursuit_params(dim), cells=(61, 38)[:dim],
                           prey_center=(0.73, -0.41)[:dim], prey_radius=0.55,
                           prey_amp=2.5))
        out.append(replace(pursuit_params(dim), alpha=0.3,
                           escape_radius=0.45, box=((-0.6, 1.3),) * dim,
                           cells=(45,) * dim))
    return out


@pytest.mark.parametrize("params", setup_params(),
                         ids=lambda p: f"{p.dim}d-{'x'.join(map(str, p.cells))}"
                                       f"-a{p.alpha}")
class TestSetupAgainstFrozenCopy:
    """The start density and the prey's divergence certificate, built from
    the grid's axes, give the bits of the full-grid constructions."""

    def test_initial_density(self, params):
        got, want = params.initial_density(), frozen_initial_density(params)
        assert got.same_grid(want)
        assert same_bytes(got.values, want.values)

    def test_divergence_certificate(self, params):
        fields = predator_prey_fields(params)
        assert fields.prey.v_div_lip == frozen_v_div_lip(fields, params)


# --------------------------------------------------------------------------
# The powers as products, against exact rational arithmetic
# --------------------------------------------------------------------------

# the ulp of 1.0; a correctly rounded product is off by at most half of it,
# relative to its exact value
ULP = Fraction(2) ** -52


def assert_rounded_products(got, exact, factors):
    """``got`` is ``exact`` (``Fraction``s) times ``factors`` factors
    ``1 + d`` of the roundings, each ``|d| <= ULP / 2``: a relative error of
    at most ``(1 + ULP / 2) ** factors - 1``, about ``factors / 2`` ulps.
    A rounded product that is then squared gives two factors."""
    bound = (1 + ULP / 2) ** factors - 1
    got = np.ravel(got)
    assert got.size == len(exact)
    for g, e in zip(got, exact):
        assert abs(Fraction(float(g)) - e) <= bound * abs(e), (g, float(e))


def bump_points():
    return np.concatenate([np.linspace(-1.0, 1.0, 401),
                           [0.0, -0.0, 0.6, -0.6, np.nextafter(0.6, 0.0),
                            np.nextafter(0.6, 1.0)]])


def test_bump_powers_against_fractions():
    # the powers of q = max(1 - y^2, 0), y = s / radius, taken as the
    # rounded q the kernel computes before its first product
    bump = Bump(0.6, 1.7)
    s = bump_points()
    y = s / bump.radius
    q = [Fraction(float(v)) for v in np.maximum(1.0 - y * y, 0.0)]
    amp = Fraction(bump.amp)
    # q2 = q * q (squared next, two factors), q2 * q2 and amp * q4: 2 ulps
    assert_rounded_products(bump(s), [amp * v ** 4 for v in q], 4)
    # q * q, * q, (4 amp) * q3, y / radius and the last product: 2.5 ulps
    slope = [4 * amp * v ** 3 * (-2 * Fraction(float(w))
                                 / Fraction(bump.radius))
             for v, w in zip(q, y)]
    assert_rounded_products(bump.slope(s), slope, 5)


@pytest.mark.parametrize("dim", [1, 2])
def test_drift_cube_against_fractions(dim):
    """The drift of a density that is 1 on one cell and 0 elsewhere is
    ``z * q^3 * scale``, ``z`` the predator's offset from that cell: the
    cube of the rounded ``q = max(1 - |z|^2 / r^2, 0)``."""
    params = pursuit_params(dim)
    fields = predator_prey_fields(params)
    rho = params.initial_density()
    values = np.zeros_like(rho.values)
    values[(25,) * dim] = 1.0
    rho = rho.with_values(values)
    cell = np.array([rho.axis_centers(a)[25] for a in range(dim)])
    r2 = fields.search.radius * fields.search.radius
    scale = -8.0 * fields.search.amp / r2 * rho.cell_volume
    points = kernel_points(params, cell, np.random.default_rng(4))
    points = points.reshape(-1, dim)
    # a predator within float rounding of the search window's edge sees
    # the cell or not by the window's own rounding, so it is left out
    reach = np.max(np.abs(points - cell), axis=1) / fields.search.radius
    points = points[np.isfinite(reach) & (np.abs(reach - 1.0) > 1e-9)]
    assert len(points) > 40
    for p in points:
        z = [float(p[a] - cell[a]) for a in range(dim)]
        q = max(1.0 - (z[0] * z[0] if dim == 1
                       else z[0] * z[0] + z[1] * z[1]) / r2, 0.0)
        exact = [Fraction(v) * Fraction(q) ** 3 * Fraction(scale) for v in z]
        # q * q, * q, z * q3 and the scale: 2 ulps
        assert_rounded_products(fields.predator.f(0.0, p, rho), exact, 4)


# --------------------------------------------------------------------------
# The same bytes on every SIMD level
# --------------------------------------------------------------------------

def dispatch_outputs() -> dict:
    """The pursuit kernels' outputs on fixed inputs: the prey's speed,
    divergence and sink, the predator's drift, the bump and its slope, and
    the starting densities.  Each NaN is written as ``np.nan``: a product
    of two NaNs keeps the sign of either, by the operand order of the SIMD
    loop (the 1D prey speed at a NaN point multiplies ``-d`` by ``w``)."""
    bump = Bump(0.6, 1.7)
    out = {"bump": bump(bump_points()), "slope": bump.slope(bump_points())}
    with np.errstate(invalid="ignore"):
        for dim in (1, 2):
            params = pursuit_params(dim)
            fields = predator_prey_fields(params)
            rho = random_density(params)
            out[f"density{dim}"] = params.initial_density().values
            rng = np.random.default_rng(12)
            for i, p in enumerate(predator_points(dim)):
                x = kernel_points(params, p, rng)
                for kernel in ("velocity", "divergence", "growth"):
                    out[f"{kernel}{dim}-{i}"] = getattr(fields.prey,
                                                        kernel)(0.0, x, p)
                out[f"drift{dim}-{i}"] = fields.predator.f(0.0, p, rho)
    return {name: np.where(np.isnan(values), np.nan, values)
            for name, values in out.items()}


def test_kernels_give_the_same_bytes_on_every_simd_level(tmp_path):
    """NumPy picks its SIMD kernels when it is imported.  A process with
    every dispatched target of this host disabled (the baseline kernels;
    the native ones where the host enables none) computes the pursuit
    kernels byte for byte as this one does: products and quotients are
    correctly rounded on every level, where ``np.power`` is not.  The
    targets a caller's ``NPY_DISABLE_CPU_FEATURES`` already disables stay
    disabled."""
    from numpy._core import _multiarray_umath as umath
    disabled = " ".join([os.environ.get("NPY_DISABLE_CPU_FEATURES", "")]
                        + sorted(target for target in umath.__cpu_dispatch__
                                 if umath.__cpu_features__.get(target)))
    path = tmp_path / "kernels.npz"
    code = ("import importlib.util, numpy as np\n"
            "from numpy._core import _multiarray_umath as umath\n"
            "spec = importlib.util.spec_from_file_location("
            f"'kernels', {str(Path(__file__))!r})\n"
            "module = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(module)\n"
            f"np.savez({str(path)!r}, **module.dispatch_outputs())\n"
            "print(sorted(t for t in umath.__cpu_dispatch__ "
            "if umath.__cpu_features__.get(t)))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src,
                              "NPY_DISABLE_CPU_FEATURES": disabled})
    assert out.stdout.strip() == "[]"
    want = dispatch_outputs()
    with np.load(path) as got:
        assert sorted(got.files) == sorted(want)
        for name, values in want.items():
            assert same_bytes(got[name], values), name

"""Multiplier resolvent, its direct-space oracle, and the resolvent identity."""

import tracemalloc

import numpy as np
import pytest

from helmdual.grid import (
    Field,
    _shift_modulation,
    dft_forward,
    dft_inverse,
    inner_product,
    make_grid,
)
from helmdual.kernels import KernelSpec
from helmdual.resolvent import (
    DIRECT_GUARD,
    GridTooLargeError,
    ResolventConfig,
    SingularLatticeError,
    _build_route,
    _kernel_spectrum,
    _route,
    apply_R,
    apply_R_direct,
    multiplier_value,
    resolvent_identity_residual,
)


def gaussian_bump(grid, width=6.0):
    r_sq = sum(grid.coords(d) ** 2 for d in range(grid.dim))
    return Field(grid, np.exp(-r_sq / (2.0 * width**2)))


def _literal_sum(f, spec):
    """The free-space convolution as the O(n^2N) sum over all (target, source) pairs."""
    grid = f.grid
    n, h = grid.points_per_axis, grid.spacing
    # kernel on the difference lattice, index offset n-1 per axis
    diff = h * np.arange(-(n - 1), n)
    r_sq = np.zeros((2 * n - 1,) * grid.dim)
    for d in range(grid.dim):
        shape = [1] * grid.dim
        shape[d] = 2 * n - 1
        r_sq = r_sq + (diff**2).reshape(shape)
    kernel = spec.evaluate(np.sqrt(r_sq), h).ravel()

    src = f.values.ravel()
    idx = np.indices(grid.shape).reshape(grid.dim, -1)  # (dim, n^N)
    strides = np.array([(2 * n - 1) ** (grid.dim - 1 - d) for d in range(grid.dim)])
    out = np.empty(grid.num_nodes)
    chunk = max(1, 2**22 // grid.num_nodes)
    for start in range(0, grid.num_nodes, chunk):
        stop = min(start + chunk, grid.num_nodes)
        # flat difference-lattice index for every (target, source) pair
        offsets = idx[:, start:stop, None] - idx[:, None, :] + (n - 1)
        flat = (strides[:, None, None] * offsets).sum(axis=0)
        out[start:stop] = kernel[flat] @ src
    return (grid.cell_volume * out).reshape(grid.shape)


def _grid_arrays_at_peak(grid, call):
    """tracemalloc peak of call() above what was allocated before, in float64 grid arrays."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    unit = grid.num_nodes * 8
    return (current - base) / unit, (peak - base) / unit


def _unpruned_convolve(grid, *fields):
    """The free-space convolution as the full irfftn of the padded product, cropped after."""
    n, dim = grid.points_per_axis, grid.dim
    size, axes = (2 * n,) * dim, tuple(range(dim))
    spectrum = _kernel_spectrum(dim, n, grid.spacing)
    out = []
    for x in fields:
        padded = np.fft.rfftn(x, size, axes)
        padded *= spectrum
        window = np.fft.irfftn(padded, size, axes)[(slice(n - 1, 2 * n - 1),) * dim]
        out.append(grid.cell_volume * window)
    return out


class TestMultiplierValue:
    def test_formula(self):
        xi_sq = np.array([0.0, 0.5, 2.0, 10.0])
        delta = 0.3
        expected = (xi_sq - 1) / ((xi_sq - 1) ** 2 + delta**2)
        np.testing.assert_allclose(multiplier_value(xi_sq, delta), expected)

    def test_delta_zero_is_reciprocal(self):
        assert multiplier_value(3.0, 0.0) == pytest.approx(0.5)

    def test_delta_zero_singular(self):
        with pytest.raises(SingularLatticeError):
            multiplier_value(np.array([1.0, 2.0]), 0.0)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            multiplier_value(2.0, -0.1)

    @pytest.mark.parametrize("delta", [np.nan, np.inf])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            multiplier_value(2.0, delta)

    def test_sign_structure(self):
        # negative inside the unit sphere, positive outside
        assert multiplier_value(0.5, 0.0) < 0
        assert multiplier_value(1.5, 0.0) > 0


class TestApplyR:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ResolventConfig(delta=-1.0)
        with pytest.raises(ValueError):
            ResolventConfig(mode="unknown")

    @pytest.mark.parametrize("delta", [np.nan, np.inf])
    def test_nonfinite_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="delta"):
            ResolventConfig(delta=delta)

    def test_singular_lattice_rejected_at_delta_zero(self):
        g = make_grid(2, np.pi / np.sqrt(2.0), 16)
        f = gaussian_bump(g, width=1.0)
        for _ in range(2):  # a failed route is not cached
            with pytest.raises(SingularLatticeError):
                apply_R(f, ResolventConfig(delta=0.0))

    def test_lattice_mode_eigenvalue(self):
        # R acts on a lattice mode by 1/(|xi|^2 - 1)
        g = make_grid(2, 10.0, 32)
        xi0, xi1 = g.freq_axis[2], g.freq_axis[3]
        f = Field(g, np.cos(xi0 * g.coords(0)) * np.cos(xi1 * g.coords(1)))
        rf = apply_R(f, ResolventConfig(delta=0.0))
        factor = 1.0 / (xi0**2 + xi1**2 - 1.0)
        np.testing.assert_allclose(rf.values, factor * f.values, atol=1e-12)

    def test_resolvent_identity_100_random_fields(self):
        g = make_grid(2, 9.0, 32)
        rng = np.random.default_rng(7)
        cfg = ResolventConfig(delta=0.0)
        for _ in range(100):
            f = Field(g, rng.standard_normal(g.shape))
            assert resolvent_identity_residual(f, cfg) <= 1e-10

    def test_indefiniteness_by_spectral_localization(self):
        # the multiplier is negative inside the unit sphere and positive
        # outside, so spectrally localized fields realize both signs of the
        # quadratic form
        g = make_grid(2, 30.0, 64)
        rng = np.random.default_rng(8)
        spec = dft_forward(Field(g, rng.standard_normal(g.shape)))
        low = spec.copy()
        low[g.xi_squared >= 0.8] = 0.0
        high = spec.copy()
        high[g.xi_squared <= 1.2] = 0.0
        cfg = ResolventConfig(delta=0.0)
        u_low = dft_inverse(low, g)
        u_high = dft_inverse(high, g)
        assert inner_product(u_low, apply_R(u_low, cfg)) < 0
        assert inner_product(u_high, apply_R(u_high, cfg)) > 0

    def test_bilinear_symmetry(self):
        g = make_grid(2, 9.0, 32)
        rng = np.random.default_rng(9)
        u = Field(g, rng.standard_normal(g.shape))
        v = Field(g, rng.standard_normal(g.shape))
        cfg = ResolventConfig(delta=1e-3)
        uv, vu = inner_product(u, apply_R(v, cfg)), inner_product(v, apply_R(u, cfg))
        assert uv == pytest.approx(vu, rel=1e-12)


class TestPlan:
    # n/2 even and odd: the half-size transform's last axis has n/2 points
    @pytest.mark.parametrize("dim, half_length, n", [
        (2, 9.0, 32), (2, 9.0, 10), (2, 9.0, 18), (3, 8.0, 16), (3, 8.0, 10), (3, 8.0, 18),
    ])
    @pytest.mark.parametrize("delta", [0.0, 1e-2])
    def test_matches_explicit_transform_composition(self, dim, half_length, n, delta):
        g = make_grid(dim, half_length, n)
        assert not g.singular
        f = Field(g, np.random.default_rng(11).standard_normal(g.shape))
        symbol = multiplier_value(g.xi_squared, delta)
        expected = dft_inverse(symbol * dft_forward(f), g).values
        got = apply_R(f, ResolventConfig(delta=delta)).values
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)


class TestRoute:
    """One route per grid and config: its arrays built once, shared read-only after."""

    def test_oracle_pattern_hits_on_the_second_pass(self):
        # both routes on two grids that every pass builds afresh: four entries, all kept
        _build_route.cache_clear()
        first = []
        for misses, hits in ((4, 0), (4, 4)):
            results = []
            for n, half_length, delta in ((32, 30.0, 1e-3), (80, 60.0, 5e-4)):
                f = gaussian_bump(make_grid(2, half_length, n))
                results.append(apply_R(f, ResolventConfig(delta=delta)).values)
                results.append(apply_R_direct(f, KernelSpec(2), max_nodes=n * n).values)
            info = _build_route.cache_info()
            assert (info.misses, info.hits) == (misses, hits)
            first = first or results
            assert all(np.array_equal(a, b) for a, b in zip(results, first, strict=True))

    def test_equal_grids_and_configs_share_one_read_only_entry(self):
        _build_route.cache_clear()
        for cfg in (ResolventConfig(delta=1e-3), ResolventConfig(mode="direct_oracle")):
            route = _route(make_grid(2, 9.0, 32), cfg)
            assert _route(make_grid(2, 9.0, 32), ResolventConfig(cfg.delta, cfg.mode)) is route
            assert all(not arr.flags.writeable for arr in route.args[1:])
        assert _build_route.cache_info().currsize == 2

    @pytest.mark.parametrize("dim, half_length, n", [(2, 9.0, 32), (3, 8.0, 10)])
    @pytest.mark.parametrize("delta", [0.0, 1e-3])
    def test_multiplier_tables_are_half_lattice(self, dim, half_length, n, delta):
        # the twiddle T is the shift modulation M on the first n/2 nodes of the last axis,
        # and S the real symbol at the even last-axis indices, both bit for bit
        g = make_grid(dim, half_length, n)
        twiddle, symbol = _route(g, ResolventConfig(delta=delta)).args[1:]
        half = g.shape[:-1] + (n // 2,)
        assert twiddle.dtype == np.complex128 and twiddle.shape == half
        assert symbol.dtype == np.float64 and symbol.shape == half
        np.testing.assert_array_equal(twiddle, _shift_modulation(g)[..., : n // 2])
        np.testing.assert_array_equal(symbol, multiplier_value(g.xi_squared, delta)[..., ::2])

    @pytest.mark.parametrize("dim, half_length, n", [(2, 9.0, 32), (3, 8.0, 10)])
    def test_one_half_size_transform_pair_per_application(self, dim, half_length, n,
                                                          monkeypatch):
        # one fftn and one ifftn per application, on n^(N-1) n/2 points; a pair as a 2-stack
        g = make_grid(dim, half_length, n)
        route = _route(g, ResolventConfig(delta=1e-2))
        x = np.random.default_rng(3).standard_normal(g.shape)
        calls = []

        def counted(name):
            transform = getattr(np.fft, name)

            def wrapper(a, *args, **kwargs):
                calls.append((name, a.shape))
                return transform(a, *args, **kwargs)
            return wrapper

        for name in ("fftn", "ifftn"):
            monkeypatch.setattr(np.fft, name, counted(name))
        half = g.shape[:-1] + (n // 2,)
        for fields in ((x,), (x, -x)):
            calls.clear()
            route(*fields)
            assert calls == [("fftn", (len(fields),) + half), ("ifftn", (len(fields),) + half)]

    @pytest.mark.parametrize("dim, half_length, n, build_peak", [
        (2, 60.0, 256, 2.1),  # 2.02; 6.0 with the full M and S
        (3, 16.0, 32, 2.65),  # 2.57: numpy's broadcast product of T takes 1.07
    ])
    @pytest.mark.parametrize("delta", [0.0, 1e-2])
    def test_multiplier_route_memory(self, dim, half_length, n, build_peak, delta):
        # the route keeps 1.5 grid arrays (3.0 with the full M and S); one application
        # peaks at 2.0 (its half-size complex array and R x), a pair at 4.0
        _route(make_grid(dim, half_length, 16), ResolventConfig(delta=delta))  # warm numpy up
        g = make_grid(dim, half_length, n)
        _build_route.cache_clear()
        kept, peak = _grid_arrays_at_peak(g, lambda: _route(g, ResolventConfig(delta=delta)))
        assert kept <= 1.55 and peak <= build_peak
        route = _route(g, ResolventConfig(delta=delta))
        x = np.random.default_rng(7).standard_normal(g.shape)
        for fields, bound in (((x,), 2.05), ((x, x), 4.05)):
            assert _grid_arrays_at_peak(g, lambda: route(*fields))[1] <= bound

    def test_direct_route_keyed_without_delta(self):
        # the free-space kernel reads no delta: every direct config on a grid shares one entry
        _build_route.cache_clear()
        route = _route(make_grid(2, 15.0, 64), ResolventConfig(delta=0.01, mode="direct_oracle"))
        assert _route(make_grid(2, 15.0, 64), ResolventConfig(mode="direct_oracle")) is route
        apply_R_direct(gaussian_bump(make_grid(2, 15.0, 64)), KernelSpec(2))
        info = _build_route.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)

    def test_singular_build_is_not_cached(self):
        g = make_grid(2, np.pi / np.sqrt(2.0), 16)
        _build_route.cache_clear()
        for _ in range(2):
            with pytest.raises(SingularLatticeError):
                _route(g, ResolventConfig(delta=0.0))
        info = _build_route.cache_info()
        assert (info.misses, info.currsize) == (2, 0)
        # the free-space route has no lattice to be singular on
        f = gaussian_bump(g, width=1.0)
        np.testing.assert_array_equal(apply_R(f, ResolventConfig(mode="direct_oracle")).values,
                                      apply_R_direct(f, KernelSpec(2)).values)

    def test_config_route_guard(self):
        g = make_grid(2, 240.0, 514)
        assert g.num_nodes > DIRECT_GUARD[2]
        with pytest.raises(GridTooLargeError):
            apply_R(gaussian_bump(g), ResolventConfig(mode="direct_oracle"))

    def test_max_nodes_overrides_the_guard(self, monkeypatch):
        g = make_grid(2, 15.0, 16)
        f = gaussian_bump(g)
        expected = apply_R_direct(f, KernelSpec(2)).values
        monkeypatch.setitem(DIRECT_GUARD, 2, g.num_nodes - 1)
        with pytest.raises(GridTooLargeError):
            apply_R(f, ResolventConfig(mode="direct_oracle"))
        with pytest.raises(GridTooLargeError):
            apply_R_direct(f, KernelSpec(2))
        got = apply_R_direct(f, KernelSpec(2), max_nodes=g.num_nodes).values
        np.testing.assert_array_equal(got, expected)
        with pytest.raises(GridTooLargeError):
            apply_R_direct(f, KernelSpec(2), max_nodes=64)


class TestPairApplication:
    @pytest.mark.parametrize("dim, half_length, n", [(2, 9.0, 32), (3, 8.0, 16)])
    @pytest.mark.parametrize("delta", [0.0, 1e-2])
    @pytest.mark.parametrize("ratio", [1.0, 1e8])
    def test_each_field_of_a_pair_is_its_application_alone(self, dim, half_length, n,
                                                           delta, ratio):
        # each field has its own slot of the stack: a field 1e8 times larger leaves the
        # other's R unchanged, bit for bit
        g = make_grid(dim, half_length, n)
        assert not g.singular
        rng = np.random.default_rng(12)
        a = gaussian_bump(g, width=2.0).values
        b = ratio * rng.standard_normal(g.shape)
        cfg = ResolventConfig(delta=delta)
        for got, field in zip(_route(g, cfg)(a, b), (a, b)):
            np.testing.assert_array_equal(got, apply_R(Field(g, field), cfg).values)

    def test_direct_route_applies_each_field(self):
        g = make_grid(2, 15.0, 16)
        a, b = gaussian_bump(g).values, gaussian_bump(g, width=2.0).values
        cfg = ResolventConfig(mode="direct_oracle")
        for got, field in zip(_route(g, cfg)(a, b), (a, b)):
            np.testing.assert_array_equal(got, apply_R_direct(Field(g, field), KernelSpec(2)).values)


class TestDirectOracle:
    def test_guard(self):
        g = make_grid(2, 240.0, 514)
        f = gaussian_bump(g)
        assert g.num_nodes > DIRECT_GUARD[2]
        with pytest.raises(GridTooLargeError):
            apply_R_direct(f, KernelSpec(2))

    @pytest.mark.parametrize("dim, half_length, n", [
        (2, 15.0, 16), (2, 30.0, 32), (3, 10.0, 8), (3, 20.0, 16),
    ])
    def test_matches_literal_sum(self, dim, half_length, n):
        g = make_grid(dim, half_length, n)
        f = Field(g, np.random.default_rng(12).standard_normal(g.shape))
        spec = KernelSpec(dim)
        expected = _literal_sum(f, spec)
        got = apply_R_direct(f, spec).values
        # measured worst case 1.07e-15 (3D, n = 16)
        assert np.max(np.abs(got - expected)) <= 4e-15 * np.max(np.abs(expected))

    def test_dim_mismatch(self):
        g = make_grid(2, 30.0, 16)
        with pytest.raises(ValueError):
            apply_R_direct(gaussian_bump(g), KernelSpec(3))

    def test_agrees_with_multiplier_2d(self):
        g = make_grid(2, 30.0, 32)
        f = gaussian_bump(g)
        direct = apply_R_direct(f, KernelSpec(2))
        mult = apply_R(f, ResolventConfig(delta=1e-3))
        err = np.linalg.norm(direct.values - mult.values) / np.linalg.norm(mult.values)
        assert err <= 5e-2

    def test_agrees_with_multiplier_3d(self):
        g = make_grid(3, 20.0, 16)
        f = gaussian_bump(g, width=4.0)
        direct = apply_R_direct(f, KernelSpec(3))
        mult = apply_R(f, ResolventConfig(delta=1e-3))
        err = np.linalg.norm(direct.values - mult.values) / np.linalg.norm(mult.values)
        assert err <= 8e-2

    def test_mode_dispatch(self):
        g = make_grid(2, 30.0, 32)
        f = gaussian_bump(g)
        via_cfg = apply_R(f, ResolventConfig(mode="direct_oracle"))
        direct = apply_R_direct(f, KernelSpec(2))
        np.testing.assert_array_equal(via_cfg.values, direct.values)

    @pytest.mark.parametrize("dim, half_length, n", [
        (2, 15.0, 16), (2, 15.0, 32), (2, 30.0, 80), (3, 8.0, 8), (3, 8.0, 16),
    ])
    def test_windowed_inverse_is_the_cropped_full_inverse_bit_for_bit(self, dim, half_length, n):
        # unit impulses at opposite corners of the box pin the window's alignment
        g = make_grid(dim, half_length, n)
        rng = np.random.default_rng(n + dim)
        first, last = np.zeros(g.shape), np.zeros(g.shape)
        first[(0,) * dim] = 1.0
        last[(-1,) * dim] = 1.0
        route = _route(g, ResolventConfig(mode="direct_oracle"))
        for fields in [(rng.standard_normal(g.shape),),
                       (rng.standard_normal(g.shape), rng.standard_normal(g.shape)),
                       (first,), (first, last)]:
            got = route(*fields)
            assert len(got) == len(fields)
            for a, b in zip(got, _unpruned_convolve(g, *fields)):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dim, half_length, n, bound", [
        (2, 30.0, 128, 8.6),  # 7.6 grid arrays; 9.6 with the full-box real inverse
        (3, 16.0, 32, 12.0),  # 11.5; 12.4 with rfftn's forward, 17.5 with the full-box inverse
    ])
    def test_one_application_working_set(self, dim, half_length, n, bound):
        g = make_grid(dim, half_length, n)
        route = _route(g, ResolventConfig(mode="direct_oracle"))  # its spectrum built before
        x = np.random.default_rng(7).standard_normal(g.shape)
        assert _grid_arrays_at_peak(g, lambda: route(x))[1] <= bound

    def test_linearity(self):
        g = make_grid(2, 15.0, 16)
        rng = np.random.default_rng(10)
        f = Field(g, rng.standard_normal(g.shape))
        h = Field(g, rng.standard_normal(g.shape))
        spec = KernelSpec(2)
        lhs = apply_R_direct(f + 2.0 * h, spec)
        rhs = apply_R_direct(f, spec) + 2.0 * apply_R_direct(h, spec)
        np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-10)

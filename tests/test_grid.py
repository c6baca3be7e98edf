import numpy as np
import pytest

from beamgeneric import Grid


def test_constructor_validation():
    with pytest.raises(ValueError):
        Grid(3, 1.0)
    with pytest.raises(ValueError):
        Grid(8, 0.0)
    with pytest.raises(ValueError):
        Grid(8, -2.0)
    for length in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="length"):
            Grid(8, length)
    g = Grid(8, 2.0)
    assert g.dx == pytest.approx(0.25)
    assert g.nodes[1] == pytest.approx(0.25)


def test_d1_annihilates_constants():
    g = Grid(4, 3.7)
    np.testing.assert_array_equal(g.d1([5.0, 5.0, 5.0, 5.0]), np.zeros(4))


def test_d1_hand_stencil():
    # dx = 0.25, so (u[i+1] - u[i-1]) / 0.5 node by node
    g = Grid(4, 1.0)
    np.testing.assert_allclose(g.d1([0.0, 1.0, 0.0, -1.0]), [4.0, 0.0, -4.0, 0.0])


def test_d2_constant_and_hand_stencil():
    g = Grid(4, 1.0)
    np.testing.assert_array_equal(g.d2(np.full(4, 2.5)), np.zeros(4))
    np.testing.assert_allclose(g.d2([0.0, 1.0, 0.0, -1.0]), [0.0, -32.0, 0.0, 32.0])


def test_slice_derivatives_equal_roll_formulas():
    # the slice arithmetic performs the roll formulas' operations in the same
    # order, so the results are bitwise equal
    rng = np.random.default_rng(7)
    for n in (4, 5, 64, 512):
        g = Grid(n, 1.3)
        u = rng.standard_normal(n)
        d1 = (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * g.dx)
        d2 = (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) / g.dx**2
        assert np.array_equal(g.d1(u), d1), n
        assert np.array_equal(g.d2(u), d2), n


def test_inner_examples():
    g = Grid(4, 1.0)
    assert g.inner(np.ones(4), np.full(4, 2.0)) == pytest.approx(2.0)
    assert g.inner(np.zeros(4), np.ones(4)) == 0.0
    g8 = Grid(8, 2.0)
    u = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    assert g8.inner(u, u) == pytest.approx(1.0)


def test_skew_and_symmetry_identities():
    rng = np.random.default_rng(1234)
    for n, length in ((4, 1.0), (16, 2.0), (64, 1.0), (101, 0.3)):
        g = Grid(n, length)
        for _ in range(20):
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            scale = max(1.0, abs(g.inner(u, g.d1(v))))
            assert abs(g.inner(u, g.d1(v)) + g.inner(g.d1(u), v)) <= 1e-13 * scale
            scale = max(1.0, abs(g.inner(u, g.d2(v))))
            assert abs(g.inner(u, g.d2(v)) - g.inner(g.d2(u), v)) <= 1e-13 * scale


def test_inner_bilinear_positive_definite():
    rng = np.random.default_rng(99)
    g = Grid(16, 1.5)
    u, v, w = (rng.standard_normal(16) for _ in range(3))
    lhs = g.inner(u + 2.0 * v, w)
    assert lhs == pytest.approx(g.inner(u, w) + 2.0 * g.inner(v, w), rel=1e-13, abs=1e-13)
    assert g.inner(u, u) > 0.0


def test_size_mismatch_errors():
    g = Grid(8, 1.0)
    bad = np.zeros(7)
    with pytest.raises(ValueError):
        g.d1(bad)
    with pytest.raises(ValueError):
        g.d2(bad)
    with pytest.raises(ValueError):
        g.inner(bad, np.zeros(8))
    with pytest.raises(ValueError):
        g.inner(np.zeros(8), bad)


def test_field_rejects_complex_values():
    g = Grid(8, 1.0)
    with pytest.raises(ValueError, match="complex128"):
        g.field(np.full(8, 1 + 2j))
    with pytest.raises(ValueError, match="complex128"):
        g.field([0.5j] * 8)
    # the operators too, where a cast would drop the imaginary part
    u = 1.0 + 1j * np.arange(8)
    for apply in (g.d1, g.d2, lambda w: g.inner(w, np.ones(8)), lambda w: g.inner(np.ones(8), w),
                  lambda w: g.d1(np.stack([w, w]))):
        with pytest.raises(ValueError, match="complex128"):
            apply(u)
    u = g.field(list(range(8)))
    assert u.dtype == np.float64


def test_operators_act_on_the_last_axis_of_a_stack():
    g = Grid(16, 1.3)
    rng = np.random.default_rng(5)
    u = rng.standard_normal((3, 2, 16))
    v = rng.standard_normal((3, 2, 16))
    for i in range(3):
        for j in range(2):
            assert np.array_equal(g.d1(u)[i, j], g.d1(u[i, j]))
            assert np.array_equal(g.d2(u)[i, j], g.d2(u[i, j]))
            assert g.inner(u, v)[i, j] == g.inner(u[i, j], v[i, j])
    assert isinstance(g.inner(u[0, 0], v[0, 0]), float)
    # user input to field stays one field
    with pytest.raises(ValueError):
        g.field(u)
    with pytest.raises(ValueError):
        g.d1(np.zeros((3, 15)))
    with pytest.raises(ValueError):
        g.inner(5.0, 5.0)

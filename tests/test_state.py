import numpy as np
import pytest

from beamgeneric import (
    CotangentVector,
    Grid,
    State,
    StateLayout,
    mixed_inner,
    pack,
    unpack,
)


@pytest.fixture
def grid4():
    return Grid(4, 1.0)


def test_layout_validation(grid4):
    with pytest.raises(ValueError):
        StateLayout(grid4, (), has_reservoir=True)
    with pytest.raises(ValueError):
        StateLayout(grid4, ("p", "p"), has_reservoir=True)
    with pytest.raises(ValueError):
        StateLayout(grid4, ("p", "bogus"), has_reservoir=True)
    layout = StateLayout(grid4, ("p", "q"), has_reservoir=True)
    assert layout.flat_dim == 9
    assert layout.reservoir_index == 8
    no_e = StateLayout(grid4, ("p", "q"), has_reservoir=False)
    assert no_e.flat_dim == 8


def test_field_slicing(grid4):
    layout = StateLayout(grid4, ("p", "q"), has_reservoir=False)
    z = State(layout, np.array([1.0, 1, 1, 1, 2, 2, 2, 2]))
    np.testing.assert_array_equal(z.field("q"), np.full(4, 2.0))
    np.testing.assert_array_equal(z.field("p"), np.ones(4))
    with pytest.raises(KeyError):
        z.field("s")


def test_set_get_roundtrip(grid4):
    layout = StateLayout(grid4, ("phi", "psi", "p", "q"), has_reservoir=True)
    z = State.zeros(layout)
    values = np.array([0.5, -1.0, 2.0, 3.25])
    z.field("psi")[:] = values
    np.testing.assert_array_equal(z.field("psi"), values)
    np.testing.assert_array_equal(z.flat[4:8], values)


def test_reservoir_ops(grid4):
    layout = StateLayout(grid4, ("phi", "psi", "p", "q"), has_reservoir=True)
    z = State.zeros(layout)
    assert z.reservoir == 0.0
    z.reservoir = 3.5
    assert z.reservoir == 3.5

    no_e = StateLayout(grid4, ("phi", "psi", "p", "q", "theta"), has_reservoir=False)
    z2 = State.zeros(no_e)
    with pytest.raises(ValueError):
        z2.reservoir
    with pytest.raises(ValueError):
        z2.reservoir = 1.0


def test_flat_dim_validation(grid4):
    layout = StateLayout(grid4, ("p",), has_reservoir=True)
    with pytest.raises(ValueError):
        State(layout, np.zeros(4))
    with pytest.raises(ValueError):
        CotangentVector(layout, np.zeros(6))


def test_complex_input_is_rejected_naming_its_dtype(grid4):
    # a cast to float would keep only the real part, with a mere warning
    layout = StateLayout(grid4, ("phi", "p"), has_reservoir=True)
    flat = np.zeros(layout.flat_dim, dtype=complex)
    flat[0] = 1 + 2j
    for cls in (State, CotangentVector):
        with pytest.raises(ValueError, match="complex128"):
            cls(layout, flat)
        with pytest.raises(ValueError, match="complex64"):
            cls(layout, flat.astype(np.complex64))
    with pytest.raises(ValueError, match="complex128"):
        State(layout, [1 + 2j] + [0.0] * (layout.flat_dim - 1))
    with pytest.raises(ValueError, match="field of dtype complex128 is not real"):
        pack(layout, {"phi": np.array([1 + 2j, 0, 0, 0])})
    # a complex dtype is rejected even when every imaginary part is zero
    with pytest.raises(ValueError, match="complex128"):
        pack(layout, {"p": np.zeros(4, dtype=complex)})
    # real input of any dtype is still cast
    z = pack(layout, {"phi": np.arange(4), "p": np.ones(4, dtype=np.float32)})
    assert z.flat.dtype == np.float64
    np.testing.assert_array_equal(z.field("phi"), [0.0, 1.0, 2.0, 3.0])


@pytest.mark.parametrize("value", [np.complex128(1 + 2j), 1 + 2j], ids=["numpy", "python"])
def test_pack_rejects_a_complex_reservoir(grid4, value):
    # a cast would keep 1.0 (numpy) or raise numpy's TypeError (Python)
    layout = StateLayout(grid4, ("phi", "p"), has_reservoir=True)
    with pytest.raises(ValueError, match="reservoir of dtype complex128 is not real"):
        pack(layout, {"e": value})


def test_pack_takes_one_reservoir_value(grid4):
    layout = StateLayout(grid4, ("phi", "p"), has_reservoir=True)
    assert pack(layout, {"e": np.float32(0.5)}).reservoir == 0.5
    assert pack(layout, {"e": np.array(2.0)}).reservoir == 2.0
    for bad in ([1.0], np.ones(4)):
        with pytest.raises(ValueError, match="reservoir must be one value"):
            pack(layout, {"e": bad})


def test_pack_unpack_bit_exact(grid4):
    layout = StateLayout(grid4, ("phi", "p"), has_reservoir=True)
    rng = np.random.default_rng(0)
    z = State(layout, rng.standard_normal(layout.flat_dim))
    again = pack(layout, unpack(z))
    np.testing.assert_array_equal(again.flat, z.flat)


def test_vector_space_structure(grid4):
    # flat-level linear combinations match per-field combinations
    layout = StateLayout(grid4, ("phi", "p"), has_reservoir=True)
    rng = np.random.default_rng(3)
    z1 = State(layout, rng.standard_normal(layout.flat_dim))
    z2 = State(layout, rng.standard_normal(layout.flat_dim))
    combo = State(layout, 2.0 * z1.flat - 0.5 * z2.flat)
    for name in layout.field_order:
        np.testing.assert_array_equal(
            combo.field(name), 2.0 * z1.field(name) - 0.5 * z2.field(name)
        )
    assert combo.reservoir == 2.0 * z1.reservoir - 0.5 * z2.reservoir


def test_mixed_inner_weights(grid4):
    layout = StateLayout(grid4, ("p",), has_reservoir=True)
    a = np.array([1.0, 1, 1, 1, 2.0])
    b = np.array([1.0, 1, 1, 1, 3.0])
    # dx * 4 on the field block, plain product on the reservoir slot
    assert mixed_inner(layout, a, b) == pytest.approx(1.0 + 6.0)


def test_copy_is_independent(grid4):
    layout = StateLayout(grid4, ("p",), has_reservoir=False)
    z = State.zeros(layout)
    c = z.copy()
    c.field("p")[:] = 7.0
    assert np.all(z.field("p") == 0.0)


def test_callers_build_single_vectors_only(grid4):
    # stacks are built inside the package only (State._stack)
    layout = StateLayout(grid4, ("p",), has_reservoir=True)
    for cls in (State, CotangentVector):
        with pytest.raises(ValueError, match="does not match layout"):
            cls(layout, np.zeros((3, layout.flat_dim)))
        with pytest.raises(ValueError, match="does not match layout"):
            cls(layout, np.zeros((1, layout.flat_dim)))


def test_stack_reads_fields_and_reservoir_per_row(grid4):
    layout = StateLayout(grid4, ("phi", "p"), has_reservoir=True)
    flat = np.arange(3 * layout.flat_dim, dtype=float).reshape(3, layout.flat_dim)
    z = State._stack(layout, flat)
    np.testing.assert_array_equal(z.field("p"), flat[:, 4:8])
    np.testing.assert_array_equal(z.reservoir, flat[:, 8])
    z.reservoir = -1.0
    assert np.all(flat[:, 8] == -1.0)
    with pytest.raises(ValueError, match="does not match layout"):
        State._stack(layout, np.zeros((3, 5)))
    single = State(layout, flat[0].copy())
    assert isinstance(single.reservoir, float)
    assert isinstance(mixed_inner(layout, single.flat, single.flat), float)

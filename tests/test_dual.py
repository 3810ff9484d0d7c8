import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fricsim import dual as dm
from fricsim.dual import Dual, jvp

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
nonzero = st.floats(min_value=0.1, max_value=1e3)


@settings(derandomize=True, max_examples=50)
@given(a=finite, b=finite, da=finite, db=finite)
def test_product_rule(a, b, da, db):
    x = Dual(np.array(a), np.array(da))
    y = Dual(np.array(b), np.array(db))
    z = x * y
    assert z.re == pytest.approx(a * b)
    assert z.eps == pytest.approx(a * db + b * da, abs=1e-9)


@settings(derandomize=True, max_examples=50)
@given(a=nonzero, b=nonzero, da=finite, db=finite)
def test_quotient_rule(a, b, da, db):
    x = Dual(np.array(a), np.array(da))
    y = Dual(np.array(b), np.array(db))
    z = x / y
    assert z.re == pytest.approx(a / b)
    assert z.eps == pytest.approx((da * b - a * db) / b**2, rel=1e-12)


def test_square_and_sqrt_log():
    x = Dual(np.array(3.0), np.array(1.0))
    assert (x**2).eps == pytest.approx(6.0)
    assert dm.sqrt(x).eps == pytest.approx(0.5 / np.sqrt(3.0))
    assert dm.log(x).eps == pytest.approx(1.0 / 3.0)


def test_jvp_componentwise_square():
    r = lambda v: v * v
    out = jvp(r, np.array([3.0]), np.array([1.0]))
    assert out == pytest.approx([6.0])


def test_jvp_linear_map_exact():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(7, 7))
    p = rng.normal(size=7)
    v = rng.normal(size=7)
    out = jvp(lambda x: dm.matmul(a, x), v, p)
    np.testing.assert_allclose(out, a @ p, rtol=0, atol=1e-14)


def test_jvp_linear_in_direction():
    rng = np.random.default_rng(1)
    v = rng.normal(size=5)
    p1, p2 = rng.normal(size=5), rng.normal(size=5)

    def f(x):
        return x * x * x - 2.0 * x

    j1 = jvp(f, v, p1)
    j2 = jvp(f, v, p2)
    j12 = jvp(f, v, 2.0 * p1 - 3.0 * p2)
    np.testing.assert_allclose(j12, 2.0 * j1 - 3.0 * j2, rtol=1e-13, atol=1e-13)


def test_jvp_zero_direction_exact():
    v = np.array([1.0, -2.0, 0.5])
    out = jvp(lambda x: x * x + dm.sqrt(x * x + 1.0), v, np.zeros(3))
    assert np.all(out == 0.0)


def test_comparisons_use_real_part():
    x = Dual(np.array([1.0, 2.0]), np.array([100.0, -100.0]))
    np.testing.assert_array_equal(x < 1.5, [True, False])
    np.testing.assert_array_equal(x >= 2.0, [False, True])


def test_branch_consistency_where():
    # dual evaluation takes the same branch as the real evaluation
    def f(x):
        return dm.where(x < 1.0, x * x, 2.0 * x - 1.0)

    at = np.array([0.5, 1.0, 2.0])
    out = jvp(f, at, np.ones(3))
    np.testing.assert_allclose(out, [1.0, 2.0, 2.0])


@pytest.mark.parametrize("duals", [
    d for d in itertools.product([False, True], repeat=3) if any(d)],
    ids=lambda d: "".join("d" if x else "r" for x in d))
def test_einsum_tangent_is_the_product_rule(duals):
    # G A^T G's subscripts on (3, 3, n) columns, against the same product
    # as batched dual matmuls of the (n, 3, 3) matrices, with each operand
    # dual or real in its position
    rng = np.random.default_rng(9)
    ops = [rng.normal(size=(3, 3, 5)) for _ in range(3)]
    tans = [rng.normal(size=(3, 3, 5)) for _ in range(3)]
    args = [Dual(o, t) if d else o for o, t, d in zip(ops, tans, duals)]

    def mats(x, transpose=False):  # (n, 3, 3) matrices of columns x
        axes = (2, 1, 0) if transpose else (2, 0, 1)
        if isinstance(x, Dual):
            return Dual(x.re.transpose(axes), x.eps.transpose(axes))
        return x.transpose(axes)

    got = dm.einsum("ije,kje,kle->ile", *args)
    want = dm.matmul(dm.matmul(mats(args[0]), mats(args[1], True)),
                     mats(args[2]))
    np.testing.assert_allclose(got.re, want.re.transpose(1, 2, 0),
                               rtol=1e-12)
    np.testing.assert_allclose(got.eps, want.eps.transpose(1, 2, 0),
                               rtol=1e-12, atol=1e-12)
    real = dm.einsum("ije,kje,kle->ile", *ops)
    assert type(real) is np.ndarray and np.array_equal(real, got.re)


def test_cross_and_norm():
    a = np.array([[1.0, 0.0, 0.0]])
    b = np.array([[0.0, 1.0, 0.0]])
    np.testing.assert_allclose(dm.cross_last(a, b), [[0.0, 0.0, 1.0]])
    # guarded norm has zero derivative at zero instead of NaN
    z = Dual(np.zeros((1, 3)), np.ones((1, 3)))
    n = dm.norm_last(z)
    assert np.isfinite(n.eps).all()
    assert n.eps == pytest.approx(0.0)


def test_spread_dual():
    acc = dm.spread(np.array([0, 0, 2]),
                    Dual(np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.2, 0.3])),
                    3)
    np.testing.assert_allclose(acc.re, [3.0, 0.0, 3.0])
    np.testing.assert_allclose(acc.eps, [0.3, 0.0, 0.3])


@pytest.mark.parametrize("dual", [False, True], ids=["real", "dual"])
@pytest.mark.parametrize("index_shape,tail", [
    ((40,), (3,)), ((12, 4), (3,)), ((40,), ()), ((0,), (3,))],
    ids=["k", "elements", "k_scalar", "empty"])
def test_spread_matches_sequential_add_at(index_shape, tail, dual):
    # repeated indices: the same sums, in the same order, as np.add.at
    # into zeros
    rng = np.random.default_rng(11)
    index = rng.integers(0, 7, size=index_shape)
    values = [rng.normal(size=index_shape + tail) for _ in range(2)]
    expect = [np.zeros((7,) + tail) for _ in range(2)]
    for e, val in zip(expect, values):
        np.add.at(e, index, val)
    if dual:
        got = dm.spread(index, Dual(*values), 7)
        got = [got.re, got.eps]
    else:
        got = [dm.spread(index, values[0], 7)]
    for g, e in zip(got, expect):
        assert g.shape == e.shape and np.array_equal(g, e)


def test_jacobian_blocks_match_per_seed_jvp():
    # items map (2, 3) inputs and a per-item constant (2,) to 4 outputs
    rng = np.random.default_rng(5)
    x = rng.normal(size=(5, 2, 3))
    c = rng.uniform(0.5, 2.0, size=(5, 2))

    def fn(xx, cc):
        a = dm.dot_last(xx, xx) * cc
        r = dm.sqrt((xx * xx).sum(axis=(-2, -1)))
        return dm.stack_last([a[:, 0], a[:, 1] * xx[:, 0, 2], dm.log(r),
                              dm.where(xx[:, 1, 0] > 0.0, xx[:, 1, 0], r)
                              / cc[:, 1]])

    blocks = dm.jacobian_blocks(fn, x, c)
    assert blocks.shape == (5, 4, 6)
    for col in range(6):
        seed = np.zeros(6)
        seed[col] = 1.0
        p = np.broadcast_to(seed.reshape(2, 3), x.shape)
        assert np.array_equal(blocks[:, :, col],
                              jvp(lambda xx: fn(xx, c), x, p))


def _same_bits(a, b):
    """Equal shapes and equal float64 bit patterns (so -0.0 != 0.0)."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def test_real_operand_leaves_the_tangent_bitwise():
    # a real operand's zero tangent is never added: -0.0 stays -0.0
    eps = np.array([-0.0, 1.5, -2.25e-300, 0.0])
    x = Dual(np.array([1.0, -2.0, 3.0, 4.0]), eps)
    r = np.array([0.5, 0.25, -1.0, 2.0])
    for out in (x + r, r + x, x - r, x + 2.0, x - 2.0):
        assert _same_bits(out.eps, eps)
    for out in (r - x, 2.0 - x):
        assert _same_bits(out.eps, -eps)


def test_larger_real_operand_broadcasts_the_tangent():
    x = Dual(np.array([1.0, 2.0, 3.0]), np.array([0.5, -1.0, 2.0]))
    big = np.arange(12.0).reshape(4, 3)
    for out in (x + big, big - x):
        assert out.re.shape == out.eps.shape == (4, 3)
    out = x + big
    assert _same_bits(out.eps, np.tile(x.eps, (4, 1)))
    # the broadcast (read-only) tangent is read, never written, downstream
    index = np.array([0, 2, 0, 1])
    got = dm.spread(index, out, 3)
    want = dm.spread(index, Dual(out.re, np.tile(x.eps, (4, 1))), 3)
    assert _same_bits(got.re, want.re) and _same_bits(got.eps, want.eps)
    # items (1,) plus a per-item (3,) constant: d out / d x = ones
    blocks = dm.jacobian_blocks(lambda y, c: y + c,
                                np.array([[1.0], [2.0]]), np.ones((2, 3)))
    assert blocks.shape == (2, 3, 1) and np.all(blocks == 1.0)


@pytest.mark.parametrize("side", ["a", "b"])
def test_where_real_scalar_branch_has_zero_tangent(side):
    x = Dual(np.array([-1.0, 2.0, -3.0]), np.array([4.0, 5.0, 6.0]))
    cond = np.array([True, False, True])
    if side == "a":
        out, real_rows = dm.where(cond, 7.0, x), cond
    else:
        out, real_rows = dm.where(cond, x, 7.0), ~cond
    assert np.all(out.re[real_rows] == 7.0)
    assert _same_bits(out.eps[real_rows], np.zeros(real_rows.sum()))
    assert np.array_equal(out.eps[~real_rows], x.eps[~real_rows])
    assert np.array_equal(out.re[~real_rows], x.re[~real_rows])


def test_jacobian_blocks_of_a_kernel_ignoring_x_are_zero():
    x = np.arange(10.0).reshape(5, 2)
    blocks = dm.jacobian_blocks(lambda y, c: 2.0 * c, x, np.ones((5, 3)))
    assert blocks.shape == (5, 3, 2) and np.all(blocks == 0.0)

"""Forward-mode automatic differentiation with array-valued dual numbers.

A :class:`Dual` carries a real part ``re`` and a tangent part ``eps`` with the
algebra ``(a + b eps)(c + d eps) = ac + (ad + bc) eps``, ``eps^2 = 0``.  Both
parts are numpy arrays of the same shape, so a single Dual propagates one
directional derivative through vectorized physics kernels.  Every kernel in
this package is written against the small generic-math API below (``where``,
``sqrt``, ``matmul``, ...) which dispatches on ndarray-vs-Dual; the same code
path therefore serves plain evaluation and Jacobian-vector products.  Every
per-item sum onto rows (contact and friction forces, the volume gradient,
the lumped mass) goes through the one accumulation primitive ``spread``,
whose sums are bitwise ``numpy.add.at``'s; ``bincount`` is its last step,
for callers that keep their flat slots.

Branching convention: comparisons look only at the real part, so a dual
evaluation always takes the same branch as the real evaluation at the same
point.

Real-operand rule: a real operand's tangent is zero and is never built.
``Dual`` plus or minus a real keeps (or negates) ``eps``, broadcast to the
result's shape when the real operand is larger, and ``where`` takes a real
branch's tangent as the scalar 0.  Only ``concat`` makes zeros, for a real
part joined to dual ones.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Dual", "value", "tangent", "where",
    "sqrt", "log", "dot_last", "stack_last", "concat", "matmul",
    "einsum", "cross_last", "norm_last", "spread", "bincount",
    "jvp", "jacobian_blocks",
]

_GUARD = 1e-300  # additive guard used by norm_last; below any physical scale
_FLOAT = np.dtype(float)


def _arr(x):
    return np.asarray(x, dtype=float)


class Dual:
    """Array-valued dual number: real part ``re``, tangent part ``eps``."""

    __slots__ = ("re", "eps")
    # Keep numpy from consuming us in mixed expressions; it then defers to the
    # reflected operators below.
    __array_ufunc__ = None

    def __init__(self, re, eps):
        # float ndarrays, what every operator passes, are kept as they are
        if type(re) is not np.ndarray or re.dtype is not _FLOAT:
            re = np.asarray(re, dtype=float)
        if type(eps) is not np.ndarray or eps.dtype is not _FLOAT:
            eps = np.asarray(eps, dtype=float)
        if eps.shape != re.shape:
            eps = np.broadcast_to(eps, re.shape)
        self.re = re
        self.eps = eps

    # -- container protocol -------------------------------------------------
    @property
    def shape(self):
        return self.re.shape

    @property
    def ndim(self):
        return self.re.ndim

    @property
    def size(self):
        return self.re.size

    def __len__(self):
        return len(self.re)

    def __getitem__(self, key):
        return Dual(self.re[key], self.eps[key])

    def reshape(self, *shape):
        return Dual(self.re.reshape(*shape), self.eps.reshape(*shape))

    def ravel(self):
        return Dual(self.re.ravel(), self.eps.ravel())

    def sum(self, axis=None):
        return Dual(self.re.sum(axis=axis), self.eps.sum(axis=axis))

    def __repr__(self):
        return f"Dual(re={self.re!r}, eps={self.eps!r})"

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re + other.re, self.eps + other.eps)
        return Dual(self.re + other, self.eps)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re - other.re, self.eps - other.eps)
        return Dual(self.re - other, self.eps)

    def __rsub__(self, other):
        return Dual(other - self.re, -self.eps)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re * other.re,
                        self.eps * other.re + self.re * other.eps)
        return Dual(self.re * other, self.eps * other)

    __rmul__ = __mul__

    # Real parts divide exactly as the plain arrays would, so a Dual
    # evaluation's real part is bitwise the real evaluation.
    def __truediv__(self, other):
        if isinstance(other, Dual):
            inv = 1.0 / other.re
            return Dual(self.re / other.re,
                        (self.eps - self.re * inv * other.eps) * inv)
        other = _arr(other)
        return Dual(self.re / other, self.eps * (1.0 / other))

    def __rtruediv__(self, other):
        other = _arr(other)
        inv = 1.0 / self.re
        return Dual(other / self.re, -(other * inv) * inv * self.eps)

    def __neg__(self):
        return Dual(-self.re, -self.eps)

    def __pow__(self, p):
        if not np.isscalar(p):
            raise TypeError("Dual ** only supports scalar real exponents")
        if p == 2:
            return Dual(self.re * self.re, 2.0 * self.re * self.eps)
        val = self.re ** p
        return Dual(val, p * self.re ** (p - 1.0) * self.eps)

    # -- comparisons: real parts only ---------------------------------------
    def _other_re(self, other):
        return other.re if isinstance(other, Dual) else _arr(other)

    def __lt__(self, other):
        return self.re < self._other_re(other)

    def __le__(self, other):
        return self.re <= self._other_re(other)

    def __gt__(self, other):
        return self.re > self._other_re(other)

    def __ge__(self, other):
        return self.re >= self._other_re(other)

    def __eq__(self, other):  # noqa: D105 - value comparison, like ndarray
        return self.re == self._other_re(other)

    def __ne__(self, other):
        return self.re != self._other_re(other)

    __hash__ = None


def value(x):
    """Real part of ``x`` (identity for plain arrays)."""
    return x.re if isinstance(x, Dual) else _arr(x)


def tangent(x):
    """Tangent part of ``x`` (zeros for plain arrays)."""
    if isinstance(x, Dual):
        return x.eps
    return np.zeros_like(_arr(x))


def where(cond, a, b):
    """``np.where`` on real parts and on tangents; a real branch's tangent
    is the scalar 0."""
    da, db = isinstance(a, Dual), isinstance(b, Dual)
    if not (da or db):
        return np.where(cond, a, b)
    return Dual(np.where(cond, a.re if da else a, b.re if db else b),
                np.where(cond, a.eps if da else 0.0, b.eps if db else 0.0))


def sqrt(x):
    if isinstance(x, Dual):
        root = np.sqrt(x.re)
        return Dual(root, 0.5 * x.eps / root)
    return np.sqrt(x)


def log(x):
    if isinstance(x, Dual):
        with np.errstate(invalid="ignore", divide="ignore"):
            return Dual(np.log(x.re), x.eps / x.re)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.log(x)


def dot_last(a, b):
    """Inner product over the last axis."""
    return (a * b).sum(axis=-1)


def concat(parts, axis=0):
    """Join arrays along an existing axis (generic np.concatenate)."""
    if any(isinstance(p, Dual) for p in parts):
        parts = [p if isinstance(p, Dual)
                 else Dual(_arr(p), np.zeros_like(_arr(p))) for p in parts]
        return Dual(np.concatenate([p.re for p in parts], axis=axis),
                    np.concatenate([p.eps for p in parts], axis=axis))
    return np.concatenate(parts, axis=axis)


def stack_last(parts):
    """Stack scalars-per-item into a new trailing axis (generic np.stack)."""
    return concat([p[..., None] for p in parts], axis=-1)


def matmul(a, b):
    """Batched matrix product with exact product rule for dual operands."""
    da, db = isinstance(a, Dual), isinstance(b, Dual)
    if not da and not db:
        return a @ b
    if da and db:
        return Dual(a.re @ b.re, a.eps @ b.re + a.re @ b.eps)
    if da:
        return Dual(a.re @ b, a.eps @ b)
    return Dual(a @ b.re, a @ b.eps)


def einsum(subscripts, *operands):
    """``np.einsum`` of a product linear in each operand; the tangent is the
    sum, over the dual operands, of the product with that operand's tangent
    in its place (a real operand's is zero and not built)."""
    re = [x.re if isinstance(x, Dual) else x for x in operands]
    out = np.einsum(subscripts, *re)
    eps = None
    for i, x in enumerate(operands):
        if isinstance(x, Dual):
            term = np.einsum(subscripts, *re[:i], x.eps, *re[i + 1:])
            eps = term if eps is None else eps + term
    return out if eps is None else Dual(out, eps)


def cross_last(a, b):
    """Cross product over the last axis (length 3); generic over Dual."""
    ax, ay, az = a[..., 0], a[..., 1], a[..., 2]
    bx, by, bz = b[..., 0], b[..., 1], b[..., 2]
    return stack_last([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx])


def norm_last(a):
    """Euclidean norm over the last axis, guarded so the dual derivative at
    zero is zero instead of NaN (values are unchanged at any physical scale)."""
    return sqrt(dot_last(a, a) + _GUARD)


def spread(index, values, n):
    """Sum per-item ``values`` into ``n`` rows: row i of the result, shape
    ``(n,) + values.shape[index.ndim:]``, is the sum from zero, in index
    order, of the values whose ``index`` is i.

    One ``np.bincount`` per real/tangent part over the flattened (row,
    trailing) slots; it adds in the same order as ``numpy.add.at`` into zeros,
    so the sums are bitwise the same.
    """
    index = np.asarray(index)
    tail = values.shape[index.ndim:]
    width = math.prod(tail)
    slots = (index[..., None] * width + np.arange(width)).ravel()
    return bincount(slots, values, n * width).reshape((n,) + tail)


def bincount(slots, values, n):
    """Flat sums of n bins: bin i is the sum from zero, in order, of the
    flattened ``values`` whose flat ``slots`` entry is i; one
    ``np.bincount`` per real/tangent part."""
    if isinstance(values, Dual):
        return Dual(np.bincount(slots, values.re.ravel(), n),
                    np.bincount(slots, values.eps.ravel(), n))
    return np.bincount(slots, values.ravel(), n)


def jvp(fn, x, p):
    """Jacobian-vector product of ``fn`` at ``x`` in direction ``p``.

    ``fn`` must accept a Dual argument; the directional derivative is the
    tangent part of ``fn(x + eps*p)``, exact to machine precision on smooth
    branches.
    """
    out = fn(Dual(x, p))
    if isinstance(out, Dual):
        return np.array(out.eps)
    return np.zeros_like(_arr(out))


def jacobian_blocks(fn, x, *per_item):
    """Per-item Jacobian blocks (k, n_out, n_in) of an item-wise kernel.

    ``fn(x, *per_item)`` maps k independent items ``x`` (k, ...) to outputs
    (k, ...), output item i depending only on ``x[i]`` and on item i of each
    ``per_item`` array, which are held constant.  One dual pass gives every
    block: n_in copies of x and of each ``per_item`` array are stacked
    along the item axis, copy c seeded with unit direction c, so
    ``blocks[i, :, c] = d fn(x)[i].ravel() / d x[i].ravel()[c]``.
    """
    x = _arr(x)
    k, item = len(x), x.shape[1:]
    n_in = math.prod(item)
    eps = np.eye(n_in).repeat(k, axis=0).reshape((n_in * k,) + item)
    xs, *stacked = [np.concatenate((a,) * n_in) for a in (x, *per_item)]
    out = tangent(fn(Dual(xs, eps), *stacked))
    n_out = math.prod(out.shape[1:])
    return out.reshape(n_in, k, n_out).transpose(1, 2, 0)

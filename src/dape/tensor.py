"""Dense float64 tensor kernel with a reverse-mode gradient tape.

Every public operation validates that its output is finite; pure
reindexing ops (reshape, gather, concat, ...) inherit finiteness from their
inputs. The fused `attention` records one tape entry for the chain of nine
ops it replaces, or none when its mask is all zero (its output is then a
constant), and checks where a non-finite value can first appear: the
q, k and v projections, the raw scores, the mask and the output. The other
intermediates cannot create one: scaling by 1/sqrt(d) <= 1 shrinks finite
scores, a softmax of finite rows lies in [0, 1], and its product with a
finite mask is finite.

Gradients cover the continuous computation path only: mask construction
(thresholding, top-k, density flags) happens outside the tape and is
treated as constant during backprop.

All arrays are C-contiguous float64.

Ops are batch-major: they act on the trailing axes (rows and columns,
spatial maps, channels) and carry any leading axes through, so one call
covers a whole batch. A 2-D weight broadcasts over the leading axes and
its gradient sums over them.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, DimensionError, NumericError

# Keep up to 64 MiB of freed heap (glibc's M_TRIM_THRESHOLD, -1): by default a
# step faults in again the pages the last one freed, about 1 ms in 7 at b=8.
# Setting it turns off glibc's dynamic mmap threshold, which would map every
# block of 128 KiB or more afresh and unmap it on free, so the threshold
# (M_MMAP_THRESHOLD, -3) is raised to its 64-bit maximum, 32 MiB, as well.
try:
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes, _mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    HEAP_KEPT = [_mallopt(-1, 64 << 20), _mallopt(-3, 32 << 20)] == [1, 1]
except (AttributeError, OSError, TypeError):  # no mallopt: not glibc
    HEAP_KEPT = False


def _pin_blas_threads() -> bool:
    """Run numpy's OpenBLAS on one thread: a step's products are too small
    to gain from more, and a busy second core slows a threaded one 1.5-3x.
    Other BLAS libraries are left alone."""
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as core
    try:
        # a handle's symbol lookup also searches the libraries it links
        lib = ctypes.CDLL(core.__file__)
    except OSError:
        return False
    for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
        setter = getattr(lib, name, None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            return True
    return False


BLAS_PINNED = _pin_blas_threads()

Array = np.ndarray

# ---------------------------------------------------------------------------
# Tensor


def _check_finite(arr: Array, what: str) -> None:
    if not np.isfinite(arr).all():
        first = np.argwhere(~np.isfinite(arr))[0]
        raise NumericError(
            f"non-finite values in {what}", arr.shape, tuple(int(i) for i in first)
        )


class Tensor:
    """Dense n-dimensional array of float64 with shape metadata."""

    __slots__ = ("a",)

    def __init__(self, values, check: bool = True):
        arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
        if check:
            _check_finite(arr, "tensor constructor")
        self.a = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return self.a.shape

    @property
    def size(self) -> int:
        return self.a.size

    def item(self) -> float:
        return float(self.a.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def _out(arr: Array, what: str, check: bool = True) -> Tensor:
    # check=False only for pure reindexing (reshape, gather, concat, ...)
    # whose outputs inherit finiteness from their inputs
    if check:
        _check_finite(arr, what)
    t = Tensor.__new__(Tensor)
    t.a = np.ascontiguousarray(arr)
    return t


# ---------------------------------------------------------------------------
# Gradient tape

_TAPE_STACK: list["GradTape"] = []
_RECORDING_PAUSED = 0

# Optional cost counter installed by dape.costs.cost_scope. Duck-typed:
# anything with .add(kind, amount) works.
_COST_SINK = None


class GradTape:
    """Ordered record of primitive ops, replayed in reverse for gradients."""

    def __init__(self):
        # (output tensor, backward closure, ids of the op's tensor inputs).
        # The closure receives the output gradient and an id-keyed
        # accumulator dict; it keeps its inputs alive, so their ids hold.
        self.entries: list[tuple[Tensor, Callable[[Array, dict], None], tuple[int, ...]]] = []
        # ids of a `shared` key's objects -> (the key, the last output of
        # its first build on this tape). Holding the key keeps its ids from
        # being reused while the tape lives.
        self.firsts: dict[tuple[int, ...], tuple[tuple, Tensor]] = {}

    def __enter__(self) -> "GradTape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def gradients(self, target: Tensor, sources: Sequence[Tensor]) -> list[Array]:
        """Gradients of a scalar target w.r.t. each source tensor.

        Sources never touched by the recorded computation get zero
        gradients of their own shape.
        """
        if target.size != 1:
            raise DimensionError(
                f"gradient target must be scalar, got shape {target.shape}"
            )
        # A tensor needs a gradient when it is a source or an op computed it
        # from one; anything else (the batch's data, masks, what is derived
        # from them alone) is constant, and backward skips its gradient.
        needs = {id(s) for s in sources}
        for out, _, inputs in self.entries:
            if not needs.isdisjoint(inputs):
                needs.add(id(out))
        acc = _Grads(needs)
        acc[id(target)] = np.ones_like(target.a)
        for out, backward, _ in reversed(self.entries):
            g = acc.pop(id(out), None)
            if g is None:
                continue
            backward(g, acc)
        grads = []
        for s in sources:
            g = acc.get(id(s))
            g = np.zeros_like(s.a) if g is None else g.reshape(s.a.shape)
            _check_finite(g, "gradient")
            grads.append(g)
        return grads


class _Grads(dict):
    """Gradients accumulated by tensor id. `needs` holds the ids whose
    gradient is wanted; `_acc` drops any other, and ops whose input
    gradient costs real work check `_wants` before computing it."""

    def __init__(self, needs: set[int]):
        super().__init__()
        self.needs = needs


def _wants(acc: _Grads, t: Tensor) -> bool:
    return id(t) in acc.needs


def _tape() -> GradTape | None:
    if _RECORDING_PAUSED or not _TAPE_STACK:
        return None
    return _TAPE_STACK[-1]


def _rec(out: Tensor, backward: Callable[[Array, dict], None], *inputs: Tensor) -> None:
    t = _tape()
    if t is not None:
        t.entries.append((out, backward, tuple(map(id, inputs))))


def _acc(acc: _Grads, t: Tensor, g: Array) -> None:
    k = id(t)
    if k not in acc.needs:
        return
    prev = acc.get(k)
    acc[k] = g if prev is None else prev + g


@contextmanager
def no_recording():
    """Pause tape recording; used for mask construction (stop-gradient)."""
    global _RECORDING_PAUSED
    _RECORDING_PAUSED += 1
    try:
        yield
    finally:
        _RECORDING_PAUSED -= 1


def shared(key: tuple, build: Callable[[], tuple[Tensor, ...]]) -> tuple[Tensor, ...]:
    """`build()`, whose backward runs once per tape however often it is
    called with the same key: a tuple of the objects the outputs are
    computed from, matched by identity.

    `build` returns a tuple of tensors. Only the last one feeds later ops
    on the tape; the ones before it are read off the tape (mask
    construction), so they need no gradient. The first build for a key on
    a tape records as usual. A later one runs unrecorded, since it
    recomputes the same values from the same inputs, and records one entry
    that adds its last output's gradient to the first build's. That
    output's producers sit earlier on the tape, so the reverse sweep
    reaches them after every later gradient is summed in, and their
    backward runs once, on the sum. Off a tape it is `build()`.
    """
    tape = _tape()
    if tape is None:
        return build()
    ids = tuple(map(id, key))
    if ids not in tape.firsts:
        outs = build()
        tape.firsts[ids] = (key, outs[-1])
        return outs
    first = tape.firsts[ids][1]
    with no_recording():
        outs = build()
    _rec(outs[-1], lambda g, acc: _acc(acc, first, g), first)
    return outs


def _count(kind: str, amount: int) -> None:
    if _COST_SINK is not None:
        _COST_SINK.add(kind, amount)


# ---------------------------------------------------------------------------
# Primitive operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product over the last two axes; a 2-D operand applies to every
    sample of the other's leading axes, otherwise those must agree."""
    x, w = a.a, b.a
    if (
        x.ndim < 2 or w.ndim < 2 or x.shape[-1] != w.shape[-2]
        or (x.ndim > 2 and w.ndim > 2 and x.shape[:-2] != w.shape[:-2])
    ):
        raise DimensionError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    y = x @ w
    _count("mac", y.size * x.shape[-1])
    out = _out(y, "matmul")

    def backward(g, acc):
        if _wants(acc, a):
            _acc(acc, a, _matmul_dx(g, x, w))
        if _wants(acc, b):
            _acc(acc, b, _matmul_dw(g, x, w))

    _rec(out, backward, a, b)
    return out


def _matmul_dx(g: Array, x: Array, w: Array) -> Array:
    """Gradient of x @ w with respect to x, given the output gradient g."""
    # a contiguous transpose runs the faster non-transposed kernel
    gx = g @ np.ascontiguousarray(np.swapaxes(w, -1, -2))
    if gx.ndim > x.ndim:
        gx = gx.reshape(-1, *x.shape).sum(axis=0)
    return gx


def _matmul_dw(g: Array, x: Array, w: Array) -> Array:
    """Gradient of x @ w with respect to w, given the output gradient g."""
    if w.ndim < x.ndim:
        return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    return np.swapaxes(x, -1, -2) @ g


def _binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    # equal shapes, a scalar, or one shape a suffix of the other (broadcast
    # over the leading axes)
    lo, hi = sorted((a.shape, b.shape), key=len)
    if hi[len(hi) - len(lo):] != lo and a.size != 1 and b.size != 1:
        raise DimensionError(f"{op} shape mismatch: {a.shape} vs {b.shape}")


def _unbroadcast(g: Array, t: Tensor) -> Array:
    if g.shape == t.a.shape:
        return g
    if t.size == 1:
        return np.sum(g).reshape(t.a.shape)
    return g.reshape(-1, *t.a.shape).sum(axis=0)


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "add")
    out = _out(a.a + b.a, "add")

    def backward(g, acc):
        _acc(acc, a, _unbroadcast(g, a))
        _acc(acc, b, _unbroadcast(g, b))

    _rec(out, backward, a, b)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "sub")
    out = _out(a.a - b.a, "sub")

    def backward(g, acc):
        _acc(acc, a, _unbroadcast(g, a))
        _acc(acc, b, -_unbroadcast(g, b))

    _rec(out, backward, a, b)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; either operand may be a scalar tensor."""
    _binary_shapes(a, b, "mul")
    _count("mac", max(a.size, b.size))
    out = _out(a.a * b.a, "mul")

    def backward(g, acc):
        if _wants(acc, a):
            _acc(acc, a, _unbroadcast(g * b.a, a))
        if _wants(acc, b):
            _acc(acc, b, _unbroadcast(g * a.a, b))

    _rec(out, backward, a, b)
    return out


def scale(a: Tensor, c: float) -> Tensor:
    _count("mac", a.size)
    out = _out(a.a * c, "scale")

    def backward(g, acc):
        _acc(acc, a, g * c)

    _rec(out, backward, a)
    return out


def reciprocal(a: Tensor) -> Tensor:
    if np.any(a.a == 0.0):
        raise NumericError("reciprocal of zero")
    out = _out(1.0 / a.a, "reciprocal")

    def backward(g, acc):
        _acc(acc, a, -g / (a.a * a.a))

    _rec(out, backward, a)
    return out


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.a.ndim < 2:
        raise DimensionError(f"transpose expects at least 2-D, got {a.shape}")
    out = _out(np.swapaxes(a.a, -1, -2), "transpose", check=False)

    def backward(g, acc):
        _acc(acc, a, np.swapaxes(g, -1, -2))

    _rec(out, backward, a)
    return out


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = _out(a.a.reshape(shape), "reshape", check=False)

    def backward(g, acc):
        _acc(acc, a, g.reshape(a.a.shape))

    _rec(out, backward, a)
    return out


def relu(a: Tensor) -> Tensor:
    out = _out(np.maximum(a.a, 0.0), "relu")

    def backward(g, acc):
        _acc(acc, a, g * (a.a > 0.0))

    _rec(out, backward, a)
    return out


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    out = _out(np.sum(a.a, axis=axis), "sum")

    def backward(g, acc):
        if axis is None:
            _acc(acc, a, np.broadcast_to(g, a.a.shape).copy())
        else:
            _acc(acc, a, np.broadcast_to(np.expand_dims(g, axis), a.a.shape).copy())

    _rec(out, backward, a)
    return out


def tmean(a: Tensor, axis: int | None = None) -> Tensor:
    n = a.size if axis is None else a.a.shape[axis]
    out = _out(np.mean(a.a, axis=axis), "mean")

    def backward(g, acc):
        if axis is None:
            _acc(acc, a, np.broadcast_to(g / n, a.a.shape).copy())
        else:
            _acc(acc, a, np.broadcast_to(np.expand_dims(g / n, axis), a.a.shape).copy())

    _rec(out, backward, a)
    return out


def row_softmax(a: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis of an (..., m, n) tensor."""
    if a.a.ndim < 2:
        raise DimensionError(f"row_softmax expects at least 2-D, got {a.shape}")
    y = _softmax(a.a)
    out = _out(y, "row_softmax")

    def backward(g, acc):
        dot = np.sum(g * y, axis=-1, keepdims=True)
        _acc(acc, a, y * (g - dot))

    _rec(out, backward, a)
    return out


def _softmax(a: Array) -> Array:
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def attention(xq: Tensor, xkv: Tensor, wq: Tensor | None, wk: Tensor, wv: Tensor,
              mask: Array | None) -> Tensor:
    """softmax(Q K^T / sqrt(d)) scaled entrywise by a constant mask, times
    V, with Q = xq @ wq, K = xkv @ wk and V = xkv @ wv, as one tape entry.
    An all-zero mask gives an exactly zero output for any inputs, which is
    recorded as a constant: no tape entry, zero gradient to all five.

    Queries and keys/values are (..., N_q, d) and (..., N_kv, d); a 2-D one
    applies to every sample of the other's leading axes. The weights are
    (d, d) and the mask, off the tape, (..., N_q, N_kv); `mask=None` runs
    unmasked attention. Values, MACs and gradients are those of the chain
    matmul, transpose, matmul, scale, row_softmax, mul, matmul.

    `wq=None` reads xq as queries already projected: a caller whose queries
    are shared by several attentions projects them once with `matmul`,
    which bills the projection, and the op bills the rest, so the two
    together bill what the projecting call does. Its backward hands the
    query gradient to xq as is.
    """
    x, z = xq.a, xkv.a
    d = x.shape[-1]
    weights = (wk, wv) if wq is None else (wq, wk, wv)
    if (
        x.ndim < 2 or z.ndim < 2 or z.shape[-1] != d
        or (x.ndim > 2 and z.ndim > 2 and x.shape[:-2] != z.shape[:-2])
        or any(w.shape != (d, d) for w in weights)
    ):
        raise DimensionError(
            f"attention shape mismatch: {xq.shape} over {xkv.shape} with weights "
            f"{[w.shape for w in weights]}"
        )
    if wq is None:
        q, macs = x, 0
    else:
        q = x @ wq.a
        _check_finite(q, "attention queries")
        macs = q.size * d
    k = z @ wk.a
    _check_finite(k, "attention keys")
    v = z @ wv.a
    _check_finite(v, "attention values")
    kt = np.ascontiguousarray(np.swapaxes(k, -1, -2))
    s = q @ kt
    _check_finite(s, "attention scores")
    c = 1.0 / np.sqrt(d)
    sm = _softmax(s * c)
    macs += (k.size + v.size + s.size) * d + s.size
    if mask is None:
        m, p = None, sm
    else:
        m = np.ascontiguousarray(mask, dtype=np.float64)
        if s.shape[s.ndim - m.ndim:] != m.shape:
            raise DimensionError(f"attention mask {m.shape} vs scores {s.shape}")
        _check_finite(m, "attention mask")
        macs += max(sm.size, m.size)
        p = sm * m
    y = p @ v
    _count("mac", macs + y.size * v.shape[-2])
    out = _out(y, "attention")

    def backward(g, acc):
        # the chain's gradient expressions, in its order: the value
        # product, then the mask, softmax and scale, then the projections
        # of v, k and q
        want_q = _wants(acc, xq) or (wq is not None and _wants(acc, wq))
        want_k = _wants(acc, xkv) or _wants(acc, wk)
        if want_q or want_k:
            gp = _matmul_dx(g, p, v)
            if m is not None:
                gp = gp * m
            gs = sm * (gp - (gp * sm).sum(axis=-1, keepdims=True)) * c
        if _wants(acc, xkv) or _wants(acc, wv):
            gv = _matmul_dw(g, p, v)
            if _wants(acc, xkv):
                _acc(acc, xkv, _matmul_dx(gv, z, wv.a))
            if _wants(acc, wv):
                _acc(acc, wv, _matmul_dw(gv, z, wv.a))
        if want_k:
            gk = np.swapaxes(_matmul_dw(gs, q, kt), -1, -2)
            if _wants(acc, xkv):
                _acc(acc, xkv, _matmul_dx(gk, z, wk.a))
            if _wants(acc, wk):
                _acc(acc, wk, _matmul_dw(gk, z, wk.a))
        if want_q:
            gq = _matmul_dx(gs, q, kt)
            if wq is None:
                _acc(acc, xq, gq)
                return
            if _wants(acc, xq):
                _acc(acc, xq, _matmul_dx(gq, x, wq.a))
            if _wants(acc, wq):
                _acc(acc, wq, _matmul_dw(gq, x, wq.a))

    # an all-zero mask makes the output zero whatever the five inputs, a
    # constant: no tape entry, so backward also skips every op that feeds
    # only this one (the mask is tested only while a tape records)
    if _tape() is not None and (m is None or m.any()):
        _rec(out, backward, xq, xkv, *weights)
    return out


def row_logsumexp(a: Tensor) -> Tensor:
    """log(sum(exp(row))) per row, shape (m,). Stable via max subtraction."""
    if a.a.ndim != 2:
        raise DimensionError(f"row_logsumexp expects 2-D, got {a.shape}")
    m = np.max(a.a, axis=1, keepdims=True)
    lse = (m + np.log(np.sum(np.exp(a.a - m), axis=1, keepdims=True))).reshape(-1)
    out = _out(lse, "row_logsumexp")

    def backward(g, acc):
        sm = np.exp(a.a - lse[:, None])
        _acc(acc, a, sm * g[:, None])

    _rec(out, backward, a)
    return out


def cosine(u: Tensor, v: Tensor) -> Tensor:
    """Cosine similarity of two vectors, clamped to [-1, 1].

    cosine(0, 0) is defined as 0 so that zero tokens carry no affinity.
    """
    if u.a.ndim != 1 or v.a.ndim != 1 or u.shape != v.shape:
        raise DimensionError(f"cosine shape mismatch: {u.shape} vs {v.shape}")
    d = u.size
    _count("mac", 3 * d)
    _count("cosine", 1)
    nu = math.sqrt(float(u.a @ u.a))
    nv = math.sqrt(float(v.a @ v.a))
    if nu == 0.0 or nv == 0.0:
        out = _out(np.float64(0.0), "cosine")
        # Not differentiable at zero; contributes no gradient.
        return out
    c = float(u.a @ v.a) / (nu * nv)
    c = min(1.0, max(-1.0, c))
    out = _out(np.float64(c), "cosine")

    def backward(g, acc):
        gs = float(np.asarray(g).reshape(-1)[0])
        _acc(acc, u, gs * (v.a / (nu * nv) - c * u.a / (nu * nu)))
        _acc(acc, v, gs * (u.a / (nu * nv) - c * v.a / (nv * nv)))

    _rec(out, backward, u, v)
    return out


def l2_normalize_rows(a: Tensor) -> Tensor:
    """Unit-normalize each row; all-zero rows stay zero."""
    if a.a.ndim != 2:
        raise DimensionError(f"l2_normalize_rows expects 2-D, got {a.shape}")
    norms = np.sqrt(np.sum(a.a * a.a, axis=1, keepdims=True))
    safe = np.where(norms == 0.0, 1.0, norms)
    y = a.a / safe
    out = _out(y, "l2_normalize_rows")

    def backward(g, acc):
        dot = np.sum(g * y, axis=1, keepdims=True)
        ga = (g - y * dot) / safe
        ga[norms.reshape(-1) == 0.0] = 0.0
        _acc(acc, a, ga)

    _rec(out, backward, a)
    return out


# --- structural ops (gather/scatter/concat/slice) --------------------------


def gather_rows(a: Tensor, idx) -> Tensor:
    """Distinct rows `idx` along axis -2 of every sample: a[..., idx, :]."""
    idx = np.asarray(idx, dtype=np.intp)
    if np.unique(idx).size != idx.size:
        raise DimensionError("gather_rows takes distinct rows")
    out = _out(a.a[..., idx, :], "gather_rows", check=False)

    def backward(g, acc):
        if _wants(acc, a):
            ga = np.zeros_like(a.a)
            ga[..., idx, :] = g
            _acc(acc, a, ga)

    _rec(out, backward, a)
    return out


def gather_mean(a: Tensor, idx) -> Tensor:
    """Per-sample gather-mean: an (..., L, k) index picks k rows of the
    sample's (..., n, p) tensor for each of L outputs, which average them
    into (..., L, p)."""
    idx = np.asarray(idx, dtype=np.intp)
    n, p = a.shape[-2:]
    if idx.ndim != a.a.ndim or idx.shape[:-2] != a.shape[:-2]:
        raise DimensionError(f"gather_mean index {idx.shape} vs tensor {a.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise DimensionError(f"gather_mean index out of range for {n} rows")
    big_l, k = idx.shape[-2:]
    flat = idx.reshape(-1, big_l * k)
    rows = (flat + n * np.arange(flat.shape[0])[:, None]).reshape(-1)
    picked = a.a.reshape(-1, p)[rows].reshape(idx.shape + (p,))
    out = _out(picked.mean(axis=-2), "gather_mean", check=False)

    def backward(g, acc):
        if _wants(acc, a):
            ga = np.zeros((a.size // p, p))
            np.add.at(ga, rows, np.repeat(g.reshape(-1, p) / k, k, axis=0))
            _acc(acc, a, ga.reshape(a.shape))

    _rec(out, backward, a)
    return out


def add_rows(base: Tensor, idx, delta: Tensor) -> Tensor:
    """Copy of `base` with `delta` added to its distinct rows `idx` along
    axis -2: base[..., idx, :] + delta in place of those rows."""
    idx = np.asarray(idx, dtype=np.intp)
    if np.unique(idx).size != idx.size:
        raise DimensionError("add_rows takes distinct rows")
    if idx.size and (idx.min() < 0 or idx.max() >= base.shape[-2]):
        raise DimensionError(f"add_rows index out of range for {base.shape[-2]} rows")
    arr = base.a.copy()
    arr[..., idx, :] += delta.a
    out = _out(arr, "add_rows")

    def backward(g, acc):
        _acc(acc, base, g)
        _acc(acc, delta, g[..., idx, :])

    _rec(out, backward, base, delta)
    return out


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along axis -2; a part without the leading axes (a
    parameter) is broadcast over them."""
    lead = max((p.shape[:-2] for p in parts), key=len)
    arrs = [np.broadcast_to(p.a, lead + p.shape[-2:]) for p in parts]
    out = _out(np.concatenate(arrs, axis=-2), "concat_rows", check=False)
    offsets = np.cumsum([0] + [p.shape[-2] for p in parts])

    def backward(g, acc):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _acc(acc, p, _unbroadcast(g[..., lo:hi, :], p))

    _rec(out, backward, *parts)
    return out


def take_diag(a: Tensor) -> Tensor:
    if a.a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"take_diag expects square 2-D, got {a.shape}")
    out = _out(np.diagonal(a.a).copy(), "take_diag", check=False)

    def backward(g, acc):
        ga = np.zeros_like(a.a)
        np.fill_diagonal(ga, g)
        _acc(acc, a, ga)

    _rec(out, backward, a)
    return out


def slice_last(a: Tensor, c0: int, c1: int) -> Tensor:
    """Slice channels [c0, c1) along the last axis."""
    out = _out(a.a[..., c0:c1], "slice_last", check=False)

    def backward(g, acc):
        if _wants(acc, a):
            ga = np.zeros_like(a.a)
            ga[..., c0:c1] = g
            _acc(acc, a, ga)

    _rec(out, backward, a)
    return out


def pool_rows(a: Tensor, width: int) -> Tensor:
    """Mean of each run of `width` consecutive rows along axis -2:
    (..., n, d) -> (..., n / width, d). Width 1 returns `a` itself."""
    if a.a.ndim < 2:
        raise DimensionError(f"pool_rows expects at least 2-D, got {a.shape}")
    n, d = a.shape[-2:]
    if width < 1 or n % width:
        raise DimensionError(f"pool width {width} does not divide {n} rows")
    if width == 1:
        return a
    out = _out(a.a.reshape(a.shape[:-2] + (n // width, width, d)).mean(axis=-2), "pool_rows")

    def backward(g, acc):
        if _wants(acc, a):
            _acc(acc, a, np.repeat(g / width, width, axis=-2))

    _rec(out, backward, a)
    return out


# --- spatial ops ------------------------------------------------------------


def pool_parent_major(x: Tensor, gy: int, gx: int, fy: int, fx: int) -> Tensor:
    """Mean-pool an (..., h, w, c) map on the (fy*gy, fx*gx) cell grid into
    (..., gy*gx*fy*fx, c) tokens, rows parent-major: the fy*fx children of
    parent (a, b) are consecutive, child (dy, dx) at row (a*gx+b)*fy*fx +
    dy*fx + dx."""
    if x.a.ndim < 3:
        raise DimensionError(f"pool_parent_major expects (..., h, w, c), got {x.shape}")
    h, w, c = x.shape[-3:]
    if min(gy, gx, fy, fx) < 1 or h % (fy * gy) or w % (fx * gx):
        raise DimensionError(f"cell grid {fy * gy}x{fx * gx} does not divide {h}x{w}")
    cy, cx = h // (fy * gy), w // (fx * gx)
    lead = x.shape[:-3]
    k = len(lead)
    # axes after the leading ones: (gy, fy, cy, gx, fx, cx, c); pooling
    # drops cy and cx, and swapping fy with gx puts children last
    cells = x.a.reshape(lead + (gy, fy, cy, gx, fx, cx, c)).mean(axis=(k + 2, k + 5))
    order = tuple(range(k)) + (k, k + 2, k + 1, k + 3, k + 4)
    out = _out(cells.transpose(order).reshape(lead + (gy * gx * fy * fx, c)), "pool_parent_major")

    def backward(g, acc):
        if not _wants(acc, x):
            return
        gc = g.reshape(lead + (gy, gx, fy, fx, c)).transpose(order) / (cy * cx)
        spread = np.broadcast_to(
            gc[..., :, :, None, :, :, None, :], lead + (gy, fy, cy, gx, fx, cx, c)
        )
        _acc(acc, x, spread.reshape(x.shape))

    _rec(out, backward, x)
    return out


KERNEL_SIZES = (3, 5, 7)


def _read_only(arr: Array) -> Array:
    # a cached or prepared array is shared by all its readers: a write
    # would persist into every later read
    arr.flags.writeable = False
    return arr


def _conv_rows(a: Array, p: int) -> Array:
    """An (..., h, w, c) map zero-padded by p and laid out (c, h+2p, N,
    w+2p), N the flattened leading axes, so that the rows [di, di+h) of
    every sample flatten to one (c, h*N, w+2p) view."""
    h, w, c = a.shape[-3:]
    a4 = a.reshape(-1, h, w, c)
    xp = np.zeros((c, h + 2 * p, a4.shape[0], w + 2 * p))
    xp[:, p : p + h, :, p : p + w] = a4.transpose(3, 1, 0, 2)
    return xp


def _band_index(k: int, w: int) -> tuple[Array, Array]:
    # (row, column) of tap dj in a banded (w+k-1, w) operator: (j+dj, j)
    cols = np.arange(w)[None, :]
    return np.arange(k)[:, None] + cols, cols


def _conv_bands(weights: Array, w: int) -> Array:
    """Each tap row weights[:, di, :] as a banded operator on padded rows:
    band[di, ch, j+dj, j] = weights[ch, di, dj], shape (k, c, w+k-1, w)."""
    c, k, _ = weights.shape
    band = np.zeros((k, c, w + k - 1, w))
    rows, cols = _band_index(k, w)
    band[:, :, rows, cols] = weights.transpose(1, 0, 2)[..., None]
    return band


class DepthwiseConv(NamedTuple):
    """A depthwise convolution prepared by `conv2d_prepare`: its input, its
    (c, k, k) weights, the input's padded row layout (`_conv_rows`) and the
    weights' banded tap operators (`_conv_bands`), both read-only. The
    weights must not change while a tape holds an apply of it. Each apply
    records its own backward; a caller that applies it several times on
    one tape shares one backward through `shared`, keyed by it."""

    x: Tensor
    weights: Tensor
    xp: Array
    band: Array


def conv2d_prepare(x: Tensor, kernel_size: int, weights: Tensor) -> DepthwiseConv:
    """Validate a depthwise convolution and build what every run of it
    reads: the zero-padded row layout of x and the banded operators of
    the weights. Bills nothing and records nothing; `conv2d_apply` runs
    it as often as needed."""
    if kernel_size not in KERNEL_SIZES:
        raise ConfigurationError(
            f"kernel size must be one of {KERNEL_SIZES}, got {kernel_size}"
        )
    if x.a.ndim < 3:
        raise DimensionError(f"conv2d_local expects (..., h, w, c), got {x.shape}")
    h, w, c = x.shape[-3:]
    if weights.shape != (c, kernel_size, kernel_size):
        raise DimensionError(
            f"conv weights shape {weights.shape} incompatible with input {x.shape}"
        )
    xp = _conv_rows(x.a, kernel_size // 2)
    band = _conv_bands(weights.a, w)
    return DepthwiseConv(x, weights, _read_only(xp), _read_only(band))


def conv2d_apply(conv: DepthwiseConv) -> Tensor:
    """Run a prepared depthwise convolution: k matmuls batched over
    channels, y = sum_di rows_di @ band_di. Bills and records one tape
    entry per call, whose backward reads the kept layout and bands instead
    of rebuilding them.
    """
    x, weights, xp, band = conv
    h, w, c = x.shape[-3:]
    k = band.shape[0]
    p = k // 2
    n = x.size // (h * w * c)
    wp = w + 2 * p

    def rows(di: int) -> Array:
        return xp[:, di : di + h].reshape(c, h * n, wp)

    y = rows(0) @ band[0]
    for di in range(1, k):
        y += rows(di) @ band[di]
    _count("mac", x.size * k * k)
    out = _out(y.reshape(c, h, n, w).transpose(2, 1, 3, 0).reshape(x.shape), "conv2d_local")

    def backward(g, acc):
        gt = np.ascontiguousarray(g.reshape(n, h, w, c).transpose(3, 1, 0, 2))
        gt = gt.reshape(c, h * n, w)
        if _wants(acc, x):
            # a contiguous transpose runs the faster non-transposed kernel
            band_t = np.ascontiguousarray(band.transpose(0, 1, 3, 2))
            gxp = np.zeros((c, h + 2 * p, n, wp))
            for di in range(k):
                gxp[:, di : di + h] += (gt @ band_t[di]).reshape(c, h, n, wp)
            ga = gxp[:, p : p + h, :, p : p + w].transpose(2, 1, 3, 0)
            _acc(acc, x, ga.reshape(x.shape))
        if _wants(acc, weights):
            _acc(acc, weights, _conv_dw(xp, gt, k))

    _rec(out, backward, x, weights)
    return out


def _conv_dw(xp: Array, gt: Array, k: int) -> Array:
    """Gradient of a depthwise convolution with respect to its (c, k, k)
    weights, from the padded rows xp (`_conv_rows`) and the output
    gradient gt laid out (c, h*N, w): tap (di, dj) sums the dj-th
    diagonal of rows_di^T @ gt."""
    c, hp, n, wp = xp.shape
    h, w = hp - k + 1, wp - k + 1
    diag_rows, diag_cols = _band_index(k, w)
    gw = np.empty((c, k, k))
    for di in range(k):
        prod = xp[:, di : di + h].reshape(c, h * n, wp).transpose(0, 2, 1) @ gt
        gw[:, di] = prod[:, diag_rows, diag_cols].sum(axis=-1)
    return gw


def conv2d_local(x: Tensor, kernel_size: int, weights: Tensor) -> Tensor:
    """Depthwise 2-D cross-correlation with zero padding, shape-preserving,
    over an (..., h, w, c) tensor: `conv2d_prepare`, then `conv2d_apply`
    once, so its backward is the apply's own.

    weights has shape (c, k, k): one k*k filter per channel, shared by
    every sample of the leading axes. Each tap row di is one banded
    (w+k-1, w) operator per channel, so the forward pass is k matmuls
    batched over channels, y = sum_di rows_di @ band_di, and so is the
    weight gradient: tap (di, dj) sums the dj-th diagonal of rows_di^T @ g.
    The backward reads the layout and bands kept from the preparation
    instead of rebuilding them. The MAC count bills the k*k taps per
    output, not the band's zeros.
    """
    return conv2d_apply(conv2d_prepare(x, kernel_size, weights))


@lru_cache(maxsize=32)
def _dft_matrix(n: int) -> Array:
    k = np.arange(n)
    return _read_only(np.exp(-2j * np.pi * np.outer(k, k) / n))


@lru_cache(maxsize=32)
def _highpass_keep(h: int, w: int, cutoff_frac: float) -> Array:
    fu = np.minimum(np.arange(h), h - np.arange(h))
    fv = np.minimum(np.arange(w), w - np.arange(w))
    radius = np.hypot(fu[:, None], fv[None, :])
    max_radius = math.hypot(h // 2, w // 2)
    return _read_only(radius >= cutoff_frac * max_radius)


@lru_cache(maxsize=8)
def _highpass_operator(h: int, w: int, cutoff_frac: float, pool: int = 1) -> Array:
    """The filter followed by pool*pool cell averaging, as one real
    (h*w/pool^2, h*w) matrix acting on flattened maps.

    The chain inverse-DFT * mask * DFT is a fixed real-valued linear map
    for a negation-symmetric mask; materializing it turns the per-channel
    filter into a single real matmul. It is filled one output row y of
    the map at a time and each row block is pooled as it is filled, so
    neither a complex (h, w, h, w) array nor the unpooled operator is
    ever held.
    """
    keep = _highpass_keep(h, w, cutoff_frac)
    f_h = _dft_matrix(h)
    f_w = _dft_matrix(w)
    inv_h = np.conj(f_h) / h
    inv_w = np.conj(f_w) / w
    # row factor R[u, y, y'] = inv_h[y, u] * f_h[u, y'], masked column factor
    # W[u, z, z'] = sum_v keep[u, v] inv_w[z, v] f_w[v, z']
    col = np.einsum("uv,zv,vq->uzq", keep.astype(complex), inv_w, f_w)
    gx = w // pool
    op = np.zeros((h // pool, gx, h * w))
    scale = 1.0 / (pool * pool)
    for y in range(h):
        block = np.einsum("u,up,uzq->zpq", inv_h[y], f_h, col).real
        cells = block.reshape(gx, pool, h * w)
        # sums run in the cell's row-major pixel order
        for dx in range(pool):
            op[y // pool] += scale * cells[:, dx]
    return _read_only(op.reshape(-1, h * w))


def pooled_highpass_cells(arr: Array, cutoff_frac: float, pool: int) -> Array:
    """Raw-array fused filter+pool: (..., h, w, c) -> (..., h*w/pool^2, c) cells."""
    h, w, c = arr.shape[-3:]
    if not (0.0 < cutoff_frac < 1.0):
        raise ConfigurationError(f"cutoff_frac must be in (0, 1), got {cutoff_frac}")
    op = _highpass_operator(h, w, cutoff_frac, pool)
    _count("mac", op.shape[0] * arr.size)
    out = op @ arr.reshape(arr.shape[:-3] + (h * w, c))
    _check_finite(out, "pooled_highpass_cells")
    return out


# ---------------------------------------------------------------------------
# Finite-difference gradient checking


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    eps: float = 1e-5,
    max_coords: int = 64,
    seed: int = 0,
) -> float:
    """Max relative error between tape gradients and central differences.

    `f` must be a deterministic scalar-valued computation over `params`
    with masks/top-k frozen (or with enough margin that +-eps never flips
    a threshold). Coordinates are subsampled per parameter when large.
    """
    with GradTape() as tape:
        y = f()
    grads = tape.gradients(y, params)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, g in zip(params, grads):
        n = p.size
        coords = (
            np.arange(n)
            if n <= max_coords
            else rng.choice(n, size=max_coords, replace=False)
        )
        flat = p.a.reshape(-1)
        gflat = g.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            hi = f().item()
            flat[c] = orig - eps
            lo = f().item()
            flat[c] = orig
            fd = (hi - lo) / (2.0 * eps)
            if not math.isfinite(fd):
                raise NumericError("non-finite finite-difference gradient")
            err = abs(fd - gflat[c]) / max(1.0, abs(fd), abs(gflat[c]))
            worst = max(worst, err)
    return worst

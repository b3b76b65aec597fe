"""Independent brute-force oracles used to pin expected values.

Everything here is written against the math, not against the package:
explicit loops, no shared helpers, so the two paths can disagree. The
exceptions are `attention_chain`, which pins the fused attention op to the
chain of primitive tape ops it replaces, `highpass_operator_oneshot` and
`pooled_highpass_operator_matmul`, which pin the row-by-row, pool-as-you-go
build of the high-pass operator to the one-shot einsum and the pooling
matmul it replaces, `save_tensors_blobs`, which pins the container
writer's bytes to the blob-per-tensor writer it replaces, and
`per_layer_hierarchy`, which pins the fine-alignment build over branches
prepared once per forward to the build that convolved the raw map anew in
every layer.
"""

import json
import math
import struct

import numpy as np


def matmul_loops(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def softmax_rows_direct(a):
    out = np.zeros_like(a)
    for i in range(a.shape[0]):
        e = [math.exp(v) for v in a[i]]
        z = sum(e)
        out[i] = [v / z for v in e]
    return out


def cosine_direct(u, v):
    num = sum(x * y for x, y in zip(u, v))
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(y * y for y in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return num / (nu * nv)


def conv2d_sliding(x, w):
    """Depthwise zero-padded cross-correlation via a sliding window loop."""
    h, wd, c = x.shape
    k = w.shape[1]
    p = k // 2
    out = np.zeros_like(x)
    for ch in range(c):
        for i in range(h):
            for j in range(wd):
                s = 0.0
                for di in range(k):
                    for dj in range(k):
                        ii, jj = i + di - p, j + dj - p
                        if 0 <= ii < h and 0 <= jj < wd:
                            s += x[ii, jj, ch] * w[ch, di, dj]
                out[i, j, ch] = s
    return out


def conv2d_taps(x, w, g):
    """Depthwise zero-padded cross-correlation of an (n, h, w, c) batch and
    the gradients of sum(y * g), one shifted multiply-add per tap.

    Returns (y, dy/dx . g, dy/dw . g).
    """
    n, h, wd, c = x.shape
    k = w.shape[1]
    p = k // 2
    xp = np.zeros((n, h + 2 * p, wd + 2 * p, c))
    xp[:, p : p + h, p : p + wd] = x
    y = np.zeros_like(x)
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for di in range(k):
        for dj in range(k):
            window = xp[:, di : di + h, dj : dj + wd]
            y += window * w[:, di, dj]
            gxp[:, di : di + h, dj : dj + wd] += g * w[:, di, dj]
            gw[:, di, dj] = (g * window).sum(axis=(0, 1, 2))
    return y, gxp[:, p : p + h, p : p + wd], gw


def block_mean(x, sy, sx):
    h, w, c = x.shape
    out = np.zeros((h // sy, w // sx, c))
    for i in range(h // sy):
        for j in range(w // sx):
            out[i, j] = x[i * sy : (i + 1) * sy, j * sx : (j + 1) * sx].reshape(-1, c).mean(axis=0)
    return out


def dft2_naive(x):
    """O(n^4) direct 2-D DFT."""
    h, w = x.shape
    out = np.zeros((h, w), dtype=complex)
    for u in range(h):
        for v in range(w):
            s = 0.0j
            for y in range(h):
                for z in range(w):
                    s += x[y, z] * np.exp(-2j * np.pi * (u * y / h + v * z / w))
            out[u, v] = s
    return out


def idft2_naive(spectrum):
    h, w = spectrum.shape
    out = np.zeros((h, w), dtype=complex)
    for y in range(h):
        for z in range(w):
            s = 0.0j
            for u in range(h):
                for v in range(w):
                    s += spectrum[u, v] * np.exp(2j * np.pi * (u * y / h + v * z / w))
            out[y, z] = s / (h * w)
    return out


def highpass_naive(x, cutoff_frac):
    h, w = x.shape
    spectrum = dft2_naive(x)
    max_radius = math.hypot(h // 2, w // 2)
    for u in range(h):
        for v in range(w):
            fu = min(u, h - u)
            fv = min(v, w - v)
            if math.hypot(fu, fv) < cutoff_frac * max_radius:
                spectrum[u, v] = 0.0
    return idft2_naive(spectrum).real


def highpass_operator_oneshot(h, w, cutoff_frac):
    """The real (h*w, h*w) high-pass operator in one einsum over a complex
    (h, w, h, w) array: inverse DFT * radial keep mask * DFT."""
    fu = np.minimum(np.arange(h), h - np.arange(h))
    fv = np.minimum(np.arange(w), w - np.arange(w))
    keep = np.hypot(fu[:, None], fv[None, :]) >= cutoff_frac * math.hypot(h // 2, w // 2)
    f_h = np.exp(-2j * np.pi * np.outer(np.arange(h), np.arange(h)) / h)
    f_w = np.exp(-2j * np.pi * np.outer(np.arange(w), np.arange(w)) / w)
    inv_h = np.conj(f_h) / h
    inv_w = np.conj(f_w) / w
    col = np.einsum("uv,zv,vq->uzq", keep.astype(complex), inv_w, f_w)
    op = np.einsum("yu,up,uzq->yzpq", inv_h, f_h, col).real
    return np.ascontiguousarray(op.reshape(h * w, h * w))


def pooled_highpass_operator_matmul(h, w, cutoff_frac, pool):
    """The high-pass operator followed by pool*pool cell averaging, as a
    dense (h*w/pool^2, h*w) pooling matrix times the unpooled operator."""
    op = highpass_operator_oneshot(h, w, cutoff_frac)
    gy, gx = h // pool, w // pool
    pm = np.zeros((gy * gx, h * w))
    for a in range(gy):
        for b in range(gx):
            for dy in range(pool):
                for dx in range(pool):
                    src = (a * pool + dy) * w + (b * pool + dx)
                    pm[a * gx + b, src] = 1.0 / (pool * pool)
    return np.ascontiguousarray(pm @ op)


def save_tensors_blobs(path, meta, tensors):
    """A DAPE1 container written with one little-endian byte blob per
    tensor, assembled in memory before any byte goes to the file."""
    manifest = []
    offset = 0
    blobs = []
    for name in sorted(tensors):
        arr = np.ascontiguousarray(np.asarray(tensors[name], dtype=np.float64))
        blob = arr.astype("<f8").tobytes()
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += len(blob)
        blobs.append(blob)
    header = json.dumps(
        {"meta": meta, "manifest": manifest}, sort_keys=True, separators=(",", ":")
    ).encode()
    with open(path, "wb") as fh:
        fh.write(b"DAPE1\n")
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def masked_attention_loops(q_tokens, kv_tokens, mask, wq, wk, wv):
    """Explicit-loop softmax(QK^T/sqrt(d)) with the mask scaling each
    softmaxed score before the value sum."""
    d = q_tokens.shape[1]
    q = matmul_loops(q_tokens, wq)
    k = matmul_loops(kv_tokens, wk)
    v = matmul_loops(kv_tokens, wv)
    nq, nkv = q_tokens.shape[0], kv_tokens.shape[0]
    out = np.zeros((nq, d))
    for i in range(nq):
        scores = [sum(q[i, t] * k[j, t] for t in range(d)) / math.sqrt(d) for j in range(nkv)]
        mx = max(scores)
        e = [math.exp(s - mx) for s in scores]
        z = sum(e)
        for j in range(nkv):
            w_ij = (e[j] / z) * mask[i, j]
            out[i] += w_ij * v[j]
    return out


def attention_chain(xq, xkv, wq, wk, wv, mask):
    """Masked cross-attention op by op, one tape entry each: the three
    projections, the transpose, the score product, the 1/sqrt(d) scale, the
    row softmax, the mask product and the value product."""
    from dape import tensor as T

    q = T.matmul(xq, wq)
    k = T.matmul(xkv, wk)
    v = T.matmul(xkv, wv)
    scores = T.scale(T.matmul(q, T.transpose(k)), 1.0 / np.sqrt(xq.shape[-1]))
    weights = T.row_softmax(scores)
    if mask is not None:
        weights = T.mul(weights, T.Tensor(mask))
    return T.matmul(weights, v)


def per_layer_hierarchy(m, t_stream, cfg, weights, trace=None, replay=None, density_rule=None):
    """`nfa.build_hierarchy` as it ran from the raw map m itself: every
    call slices m and runs each branch through `conv2d_local`, preparing
    its layout and bands anew, before the pooling, the projections, the
    level masks and the level-3 query projection, all on the tape."""
    from dape import tensor as T
    from dape.config import mu_partition
    from dape.nfa import build_level_masks

    widths = mu_partition(m.shape[-1], cfg.mu)
    gy, gx = cfg.grid

    def level(b, fy, fx):
        lo = sum(widths[:b])
        part = T.slice_last(m, lo, lo + widths[b])
        branch = T.conv2d_local(part, cfg.kernels[b], weights.conv_kernels[b])
        return T.matmul(T.pool_parent_major(branch, gy, gx, fy, fx), weights.branch_projs[b])

    with T.no_recording():
        p1, p2 = level(0, 1, 1), level(1, 2, 1)
    p3 = level(2, 2, 2)
    hier, _, txt3 = build_level_masks((p1, p2, p3), t_stream, cfg, trace, replay, density_rule)
    return hier, T.matmul(p3, weights.img_ps.wq), txt3


def span_mean_rows(seq, spans):
    return np.stack([seq[s:e].mean(axis=0) for s, e in spans])


def largest_remainder_widths(c, mu):
    """Integer channel widths summing to c, proportional to mu."""
    exact = [m * c for m in mu]
    floors = [int(math.floor(v)) for v in exact]
    rem = c - sum(floors)
    fracs = sorted(range(len(mu)), key=lambda i: (-(exact[i] - floors[i]), i))
    for i in fracs[:rem]:
        floors[i] += 1
    return tuple(floors)

"""Straight-line numpy reimplementation of the full encoder forward pass.

No package imports: every step is written out inline against the math, so
this file can disagree with the modular implementation. Used as the
end-to-end equivalence oracle.
"""

import numpy as np


def _softmax_rows(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _l2norm_rows(x):
    n = np.sqrt((x * x).sum(axis=1, keepdims=True))
    safe = np.where(n == 0.0, 1.0, n)
    return x / safe


def _cos_matrix(a, b):
    na = np.sqrt((a * a).sum(axis=1))
    nb = np.sqrt((b * b).sum(axis=1))
    sa = np.where(na == 0.0, 1.0, na)
    sb = np.where(nb == 0.0, 1.0, nb)
    out = (a / sa[:, None]) @ (b / sb[:, None]).T
    out[na == 0.0, :] = 0.0
    out[:, nb == 0.0] = 0.0
    return np.clip(out, -1.0, 1.0)


def _masked_attention(q_tok, kv_tok, mask, wq, wk, wv):
    d = q_tok.shape[1]
    q, k, v = q_tok @ wq, kv_tok @ wk, kv_tok @ wv
    weights = _softmax_rows((q @ k.T) / np.sqrt(d))
    if mask is not None:
        weights = weights * mask
    return weights @ v


def _block_mean(x, sy, sx):
    h, w, c = x.shape
    return x.reshape(h // sy, sy, w // sx, sx, c).mean(axis=(1, 3))


def _parent_major(cells, gy, gx, fy, fx):
    # cells is the (fy*gy, fx*gx, c) pooled grid
    c = cells.shape[2]
    return cells.reshape(gy, fy, gx, fx, c).transpose(0, 2, 1, 3, 4).reshape(-1, c)


def _conv_same(x, w):
    h, wd, c = x.shape
    k = w.shape[1]
    p = k // 2
    xp = np.pad(x, ((p, p), (p, p), (0, 0)))
    y = np.zeros_like(x)
    for di in range(k):
        for dj in range(k):
            y += xp[di : di + h, dj : dj + wd, :] * w[:, di, dj]
    return y


def _even_spans(length, parts):
    base, extra = divmod(length, parts)
    spans, start = [], 0
    for i in range(parts):
        end = start + base + (1 if i < extra else 0)
        spans.append((start, end))
        start = end
    return spans


def _span_means(seq, spans):
    return np.stack([seq[s:e].mean(axis=0) for s, e in spans])


def _refine(spans, factor):
    out = []
    for s, e in spans:
        base, extra = divmod(e - s, factor)
        start = s
        for i in range(factor):
            end = start + base + (1 if i < extra else 0)
            out.append((start, end))
            start = end
    return out


def _mu_widths(c, mu):
    exact = [m * c for m in mu]
    floors = [int(np.floor(v)) for v in exact]
    rem = c - sum(floors)
    order = sorted(range(3), key=lambda i: (-(exact[i] - floors[i]), i))
    for i in order[:rem]:
        floors[i] += 1
    return floors


def _highpass_pool(x, cutoff, pool):
    h, w, c = x.shape
    fu = np.minimum(np.arange(h), h - np.arange(h))
    fv = np.minimum(np.arange(w), w - np.arange(w))
    keep = np.hypot(fu[:, None], fv[None, :]) >= cutoff * np.hypot(h // 2, w // 2)
    kh = np.arange(h)
    kw = np.arange(w)
    f_h = np.exp(-2j * np.pi * np.outer(kh, kh) / h)
    f_w = np.exp(-2j * np.pi * np.outer(kw, kw) / w)
    out = np.zeros_like(x)
    for ch in range(c):
        spectrum = f_h @ x[..., ch] @ f_w.T
        spectrum *= keep
        out[..., ch] = ((np.conj(f_h) / h) @ spectrum @ (np.conj(f_w).T / w)).real
    pooled = _block_mean(out, pool, pool)
    return pooled.reshape(-1, c)


def _hierarchy(img_levels, txt_levels, mu, k_thr, tau_d, max_level=3):
    """img_levels: (I, d), (2I, d), (4I, d); txt_levels similar on columns."""
    i1, j1 = img_levels[0].shape[0], txt_levels[0].shape[0]
    masks = []
    a1 = np.where(_cos_matrix(img_levels[0], txt_levels[0]) > k_thr, mu[0], 0.0)
    masks.append(a1)
    dense1 = [
        r for r in range(i1) if np.count_nonzero(a1[r]) / a1.shape[1] > tau_d
    ]
    active2 = sorted(2 * p + dy for p in dense1 for dy in (0, 1)) if max_level >= 2 else []
    a2 = np.zeros((2 * i1, 2 * j1))
    if active2:
        sims = _cos_matrix(img_levels[1][active2], txt_levels[1])
        a2[active2] = np.where(sims > k_thr, mu[1], 0.0)
    masks.append(a2)
    dense2 = [
        r for r in active2 if np.count_nonzero(a2[r]) / a2.shape[1] > tau_d
    ]
    active3 = sorted(2 * r + dx for r in dense2 for dx in (0, 1)) if max_level >= 3 else []
    a3 = np.zeros((4 * i1, 4 * j1))
    if active3:
        sims = _cos_matrix(img_levels[2][active3], txt_levels[2])
        a3[active3] = np.where(sims > k_thr, mu[2], 0.0)
    masks.append(a3)
    a_prime = (
        np.repeat(np.repeat(masks[0], 4, axis=0), 4, axis=1)
        + np.repeat(np.repeat(masks[1], 2, axis=0), 2, axis=1)
        + masks[2]
    )
    return a_prime


def straight_line_forward(params, images, texts, cfg):
    """Full-stack forward for one seeded config; returns (img_emb, txt_emb).

    `params` is the name->array dict of the modular model; `cfg` the same
    config object (only plain attributes are read).
    """
    b = images.shape[0]
    d = cfg.d
    gy, gx = cfg.grid
    n_tok = gy * gx
    p_slots = cfg.slot_count
    img_embs, txt_embs = [], []

    for s_i in range(b):
        raw = images[s_i]
        m_stream = raw
        t_stream = texts[s_i]
        detail_tokens = None
        detail_grid = None

        for layer in range(cfg.n_layers):
            wq_i = params[f"layer{layer}.img.wq"]
            wk_i = params[f"layer{layer}.img.wk"]
            wv_i = params[f"layer{layer}.img.wv"]
            wq_t = params[f"layer{layer}.txt.wq"]
            wk_t = params[f"layer{layer}.txt.wk"]
            wv_t = params[f"layer{layer}.txt.wv"]
            inject = cfg.enable_phi and (layer % cfg.phi_period == cfg.phi_period - 1)

            # --- coarse tokens
            if m_stream.ndim == 3:
                m0 = _block_mean(m_stream, cfg.s, cfg.s) if cfg.s > 1 else m_stream
                h0, w0, _ = m0.shape
                img_tok = _block_mean(m0, h0 // gy, w0 // gx).reshape(n_tok, d)
            else:
                img_tok = m_stream
            slots = None
            if inject:
                n_real = img_tok.shape[0]
                img_tok = np.concatenate([img_tok, params["phi.learnable"]], axis=0)
                slots = np.arange(n_real, n_real + p_slots)
            if t_stream.shape[0] == cfg.j_text:
                txt_tok = t_stream
                txt_spans = [(i, i + 1) for i in range(cfg.j_text)]
            else:
                txt_spans = _even_spans(t_stream.shape[0], cfg.j_text)
                txt_tok = _span_means(t_stream, txt_spans)

            a0 = np.where(_cos_matrix(img_tok, txt_tok) > cfg.k0, 1.0, 0.0)
            t1 = _masked_attention(txt_tok, img_tok, a0.T, wq_t, wk_i, wv_i)
            m1 = _masked_attention(img_tok, txt_tok, a0, wq_i, wk_t, wv_t)

            # --- channel-wise alignment on the real-token region
            if cfg.enable_cwa:
                spatial = m1[:n_tok]
                c_view = spatial.T  # (d, P)
                pooled = c_view.mean(axis=1)
                hidden = np.maximum(params["cwa.gate.w1"] @ pooled + params["cwa.gate.b1"], 0.0)
                logits = params["cwa.gate.w2"] @ hidden + params["cwa.gate.b2"]
                gate = np.exp(logits - logits.max())
                gate = gate / gate.sum()
                seg = d // cfg.L
                rows = []
                for l in range(cfg.L):
                    lo = l * seg
                    order = np.argsort(-gate[lo : lo + seg], kind="stable")[: cfg.k1]
                    chosen = sorted(int(lo + i) for i in order)
                    picked = c_view[chosen]
                    rows.append(picked.mean(axis=0))
                b_mat = np.stack(rows)
                b_proj = b_mat @ params["cwa.proj"]
                a_c = np.where(_cos_matrix(b_proj, t1) > cfg.k_c, 1.0, 0.0)
                t2 = _masked_attention(t1, b_proj, a_c.T, wq_t, wk_i, wv_i)
                t_next = t1 + t2
            else:
                t_next = t1

            m_next = m1

            # --- per-layer fine alignment folded into the stream
            if cfg.enable_nfa and cfg.nfa_merge == "pool_add":
                rows = t_stream.shape[0]
                base_spans = _even_spans(rows, rows // 4)
                txt_base = _span_means(t_stream, base_spans)
                widths = _mu_widths(raw.shape[2], cfg.mu)
                branches = []
                lo = 0
                for idx, wd in enumerate(widths):
                    branches.append(
                        _conv_same(raw[..., lo : lo + wd], params[f"nfa.conv{idx}"])
                    )
                    lo += wd
                h, w = raw.shape[0], raw.shape[1]
                lvl = []
                for idx, (fy, fx) in enumerate(((1, 1), (2, 1), (2, 2))):
                    cells = _block_mean(branches[idx], h // (fy * gy), w // (fx * gx))
                    tokens = _parent_major(cells, gy, gx, fy, fx)
                    lvl.append(tokens @ params[f"nfa.proj{idx}"])
                txt_lvl = [
                    txt_base,
                    _span_means(t_stream, _refine(base_spans, 2)),
                    _span_means(t_stream, _refine(base_spans, 4)),
                ]
                a_prime = _hierarchy(lvl, txt_lvl, cfg.mu, cfg.k_thr, cfg.tau_d)
                m2 = _masked_attention(
                    lvl[2], txt_lvl[2], a_prime,
                    params["nfa.img.wq"], params["nfa.txt.wk"], params["nfa.txt.wv"],
                )
                update = m2.reshape(n_tok, 4, d).mean(axis=1)
                m_next = m_next.copy()
                m_next[:n_tok] += update

            # --- detail injection
            if inject:
                if detail_tokens is None:
                    det = _highpass_pool(raw, cfg.cutoff_frac, cfg.detail_pool) @ params["phi.detail_proj"]
                    dg = (raw.shape[0] // cfg.detail_pool, raw.shape[1] // cfg.detail_pool)
                else:
                    det, dg = detail_tokens, detail_grid
                dgy, dgx = dg[0] // 4, dg[1] // 4
                det_map = det.reshape(dg[0], dg[1], d)
                det_lvl = []
                for fy, fx in ((1, 1), (2, 1), (2, 2)):
                    cells = _block_mean(det_map, dg[0] // (fy * dgy), dg[1] // (fx * dgx))
                    det_lvl.append(_parent_major(cells, dgy, dgx, fy, fx))
                rows = t_stream.shape[0]
                base_spans = _even_spans(rows, rows // 4)
                txt_lvl = [
                    _span_means(t_stream, base_spans),
                    _span_means(t_stream, _refine(base_spans, 2)),
                    _span_means(t_stream, _refine(base_spans, 4)),
                ]
                max_level = 3 if cfg.enable_nfa else 1
                a_prime = _hierarchy(det_lvl, txt_lvl, cfg.mu, cfg.k_thr, cfg.tau_d, max_level)
                m2 = _masked_attention(
                    det_lvl[2], txt_lvl[2], a_prime,
                    params["nfa.img.wq"], params["nfa.txt.wk"], params["nfa.txt.wv"],
                )
                m_in = m_next[slots]
                m3 = _masked_attention(
                    m_in, m2, None,
                    params["phi.q.wq"], params["phi.kv.wk"], params["phi.kv.wv"],
                )
                m_next = m_next.copy()
                m_next[slots] = m_in + m3
                # carry, reordered from parent-major quadrants to row-major
                qgrid = (dg[0] // 2, dg[1] // 2)
                carried = np.zeros_like(m2)
                i = 0
                for a in range(dgy):
                    for bb in range(dgx):
                        for dy in range(2):
                            for dx in range(2):
                                carried[(2 * a + dy) * qgrid[1] + (2 * bb + dx)] = m2[i]
                                i += 1
                detail_tokens, detail_grid = carried, qgrid

            m_stream, t_stream = m_next, t_next

        img_embs.append(m_stream.mean(axis=0))
        txt_embs.append(t_stream.mean(axis=0))

    return _l2norm_rows(np.stack(img_embs)), _l2norm_rows(np.stack(txt_embs))

"""Independent reference implementations used as test oracles, a
checkpoint-header reader and editor for corruption tests, a reader for the
line-delimited record files the CLI writes, and memory probes: the
arrays a graph's VJPs hold and the peak traced while a call runs.

Every oracle here is written with plain numpy loops or direct formulas,
never through the package's autodiff path, so a bug in the
implementation cannot hide in its own oracle.
"""

import json
import math
import struct
import tracemalloc

import numpy as np

from feadapter import Tensor, finite_difference_gradient
from feadapter import tensor as T
from feadapter.checkpoint import MAGIC
from feadapter.gradcheck import max_relative_error


def conv3d_oracle(x, kern, rates):
    """Brute-force depthwise 3-d conv: explicit 8-corner trilinear
    sampling at real offsets, zero outside the volume."""
    c_n, t_n, h_n, w_n = x.shape
    kt, kh, kw = kern.shape[1:]
    ct, ch, cw = kt // 2, kh // 2, kw // 2
    rt, rh, rw = rates
    out = np.zeros_like(x, dtype=np.float64)

    def sample(c, t, h, w):
        t0, h0, w0 = math.floor(t), math.floor(h), math.floor(w)
        ft, fh, fw = t - t0, h - h0, w - w0
        acc = 0.0
        for dt in (0, 1):
            for dh in (0, 1):
                for dw in (0, 1):
                    tt, hh, ww = t0 + dt, h0 + dh, w0 + dw
                    if not (0 <= tt < t_n and 0 <= hh < h_n and 0 <= ww < w_n):
                        continue
                    weight = ((ft if dt else 1 - ft)
                              * (fh if dh else 1 - fh)
                              * (fw if dw else 1 - fw))
                    acc += weight * float(x[c, tt, hh, ww])
        return acc

    for c in range(c_n):
        for t in range(t_n):
            for h in range(h_n):
                for w in range(w_n):
                    val = 0.0
                    for a in range(kt):
                        for b in range(kh):
                            for e in range(kw):
                                val += float(kern[c, a, b, e]) * sample(
                                    c, t + (a - ct) * rt, h + (b - ch) * rh, w + (e - cw) * rw)
                    out[c, t, h, w] = val
    return out


def softmax_oracle(row):
    e = np.exp(np.asarray(row, dtype=np.float64))
    return e / e.sum()


def attention_oracle(x, wq, bq, wk, bk, wv, bv, wo, bo, heads):
    """Direct-formula multi-head attention on one (S, hidden) array."""
    x = np.asarray(x, dtype=np.float64)
    s, hidden = x.shape
    dh = hidden // heads
    q = x @ wq + bq
    k = x @ wk + bk
    v = x @ wv + bv
    out = np.zeros((s, hidden))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        scores = (q[:, sl] @ k[:, sl].T) / math.sqrt(dh)
        att = np.stack([softmax_oracle(r) for r in scores])
        out[:, sl] = att @ v[:, sl]
    return out @ wo + bo


def gelu_oracle(x):
    x = np.asarray(x, dtype=np.float64)
    return x * 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))


def layernorm_oracle(x, gamma, beta, eps=1e-5):
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(-1, keepdims=True)
    var = x.var(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def reference_forward(params, cfg, clip):
    """Whole-model numpy reference: encodes each frame independently,
    pools class tokens, norms, classifies. ``clip`` is (T, 3, H, W)."""
    p = {k: np.asarray(v.data, dtype=np.float64) for k, v in params.items()}
    gh, gw = cfg.grid
    pp = cfg.patch
    cls_per_frame = []
    for frame in clip:
        patches = []
        for i in range(gh):
            for j in range(gw):
                patches.append(
                    frame[:, i * pp:(i + 1) * pp, j * pp:(j + 1) * pp].astype(np.float64).ravel())
        tok = np.stack(patches) @ p["patch_embed.weight"] + p["patch_embed.bias"]
        tok = np.concatenate([p["cls_token"][None], tok], axis=0) + p["pos_embed"]
        for b in range(cfg.depth):
            pre = f"blocks.{b}."
            h = layernorm_oracle(tok, p[pre + "ln1.gamma"], p[pre + "ln1.beta"])
            tok = tok + attention_oracle(
                h, p[pre + "attn.q.weight"], p[pre + "attn.q.bias"],
                p[pre + "attn.k.weight"], p[pre + "attn.k.bias"],
                p[pre + "attn.v.weight"], p[pre + "attn.v.bias"],
                p[pre + "attn.out.weight"], p[pre + "attn.out.bias"], cfg.heads)
            h = layernorm_oracle(tok, p[pre + "ln2.gamma"], p[pre + "ln2.beta"])
            h = gelu_oracle(h @ p[pre + "mlp.fc1.weight"] + p[pre + "mlp.fc1.bias"])
            tok = tok + (h @ p[pre + "mlp.fc2.weight"] + p[pre + "mlp.fc2.bias"])
        cls_per_frame.append(tok[0])
    pooled = np.mean(cls_per_frame, axis=0)
    feats = layernorm_oracle(pooled, p["final_norm.gamma"], p["final_norm.beta"])
    return feats @ p["head.weight"] + p["head.bias"]


def confusion_oracle(preds, truth, classes):
    conf = [[0] * classes for _ in range(classes)]
    for p, t in zip(preds, truth):
        conf[t][p] += 1
    return conf


def uar_war_oracle(preds, truth, classes):
    conf = confusion_oracle(preds, truth, classes)
    recalls = []
    for c in range(classes):
        row = conf[c]
        if sum(row) > 0:
            recalls.append(row[c] / sum(row))
    uar = sum(recalls) / len(recalls)
    war = sum(conf[c][c] for c in range(classes)) / len(truth)
    return uar, war


def grads_close(loss_fn, tensors, eps=1e-5, tol=1e-4):
    """Compare reverse-mode gradients of a scalar loss against the
    central-difference oracle on every listed tensor. Returns the worst
    relative error."""
    for t in tensors:
        t.grad = None
    loss = loss_fn()
    loss.backward()
    worst = 0.0
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        saved = t.data

        def probe(candidate, target=t):
            target.data = candidate.data.astype(saved.dtype)
            try:
                return float(loss_fn().data)
            finally:
                target.data = saved

        numeric = finite_difference_gradient(probe, Tensor(saved.copy()), eps=eps).data
        worst = max(worst, max_relative_error(np.asarray(analytic, dtype=np.float64),
                                              np.asarray(numeric, dtype=np.float64)))
    assert worst < tol, f"gradient mismatch: worst relative error {worst:.3e} >= {tol}"
    return worst


def weighted_scalar(out, seed=0):
    """Deterministic random-weighted sum that turns any tensor into a
    scalar loss (plain sums can hide sign and permutation errors)."""
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 1.0, size=out.shape).astype(out.data.dtype)
    return T.sum_axis(out * Tensor(w))


def checkpoint_header(path):
    """The decoded JSON header of the checkpoint file at ``path`` (a
    pathlib.Path) and the file offset at which its payload starts."""
    blob = path.read_bytes()
    start = len(MAGIC) + 8
    hlen = struct.unpack("<I", blob[len(MAGIC) + 4:start])[0]
    return json.loads(blob[start:start + hlen]), start + hlen


def rewrite_checkpoint_header(path, edit):
    """Decode the JSON header of the checkpoint file at ``path`` (a
    pathlib.Path), let ``edit`` change it in place, and write it back
    with its length field updated and the payload unchanged."""
    header, payload_start = checkpoint_header(path)
    edit(header)
    head = json.dumps(header).encode("utf-8")
    blob = path.read_bytes()
    path.write_bytes(blob[:len(MAGIC) + 4] + struct.pack("<I", len(head)) + head
                     + blob[payload_start:])


def read_records(path):
    """Parse a line-delimited record file (``metrics.jsonl``, sweep
    rows); every line must be a JSON object."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            assert isinstance(rec, dict), f"{path}:{lineno}: expected a JSON object per line"
            out.append(rec)
    return out


def traced_peak(fn):
    """The peak memory traced while ``fn()`` runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def vjp_cells(vjp):
    """What a VJP closes over, by free-variable name."""
    cells = zip(vjp.__code__.co_freevars, vjp.__closure__ or ())
    return {var: cell.cell_contents for var, cell in cells}


def vjp_arrays(vjp):
    """The arrays a VJP closes over, by free-variable name."""
    return {var: obj for var, obj in vjp_cells(vjp).items() if isinstance(obj, np.ndarray)}


def _buffer(arr):
    """The array that owns ``arr``'s memory (``arr`` itself unless it is a view)."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def graph_arrays(root, params=()):
    """The buffers that the VJPs of ``root``'s graph hold, each once,
    without the graph's leaves and the tensors in ``params``."""
    held, skip = {}, {id(_buffer(t.data)) for t in params}
    for node in T.trace_graph(root):
        if node._vjp is None:
            skip.add(id(_buffer(node.leaf.data)))
            continue
        for arr in vjp_arrays(node._vjp).values():
            buf = _buffer(arr)
            held[id(buf)] = buf
    return [buf for key, buf in held.items() if key not in skip]


def graph_bytes(root, params=()):
    """Bytes the VJPs of ``root``'s graph keep alive beyond the
    parameters: a function of the shapes alone, not of the machine."""
    return sum(buf.nbytes for buf in graph_arrays(root, params))

"""Brute-force oracles the library implementations are checked against.

Everything here is deliberately independent of the package internals:
dense grid searches and dense linear algebra only.
"""

import numpy as np


def huber_via_min3(x):
    """Huber function as the pointwise minimum of three simple functions.

    ``min(0.5*x**2, |x - 1| + 0.5, |x + 1| + 0.5)``; agrees with ``huber``
    exactly, including in floating point.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    out = np.minimum.reduce(
        [0.5 * x_arr * x_arr, np.abs(x_arr - 1.0) + 0.5, np.abs(x_arr + 1.0) + 0.5]
    )
    return out[()] if np.ndim(x) == 0 else out


def grid_argmin_scalar_cost(y, a, lam, b, lo=-3.0, hi=3.0, step=1e-5):
    """argmin over a grid of 0.5*(y - a*x)**2 + lam * mc_b(x)."""
    x = np.arange(lo, hi + step, step)
    b2 = b * b
    if b2 == 0.0:
        mc = np.abs(x)
    else:
        s = np.where(np.abs(x) <= 1.0 / b2, 0.5 * b2 * x * x, np.abs(x) - 0.5 / b2)
        mc = np.abs(x) - s
    cost = 0.5 * (y - a * x) ** 2 + lam * mc
    return float(x[np.argmin(cost)])


def grid_min_scaled_huber(x, b, span=6.0, step=1e-3):
    """min over a v-grid of |v| + 0.5*b**2*(x - v)**2."""
    v = np.arange(-span, span + step, step)
    return float(np.min(np.abs(v) + 0.5 * b * b * (x - v) ** 2))


def grid_argmin_complex_shrink(y, lam, span=12.0, step=0.01):
    """argmin over a complex grid of lam*|v| + 0.5*|y - v|**2."""
    t = np.arange(-span, span + step, step)
    re, im = np.meshgrid(t, t, indexing="ij")
    v = re + 1j * im
    cost = lam * np.abs(v) + 0.5 * np.abs(y - v) ** 2
    k = np.argmin(cost)
    return v.ravel()[k]


def grid_min_gen_huber(b_entries, x, step=1e-3, margin=2.0):
    """Dense grid search for min_v ||v||_1 + 0.5*||B(x - v)||^2, N in {1, 2}.

    The v-grid spans [-(||x||_inf + margin), ||x||_inf + margin] per
    coordinate; the 2-D case is evaluated in chunks to bound memory.
    """
    b = np.asarray(b_entries, dtype=float)
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    span = np.max(np.abs(x)) + margin
    grid = np.arange(-span, span + step, step)
    if n == 1:
        r = b[:, 0:1] * (x[0] - grid)[None, :]
        cost = np.abs(grid) + 0.5 * np.sum(r * r, axis=0)
        return float(np.min(cost))
    if n != 2:
        raise ValueError("oracle supports N in {1, 2} only")
    g = b.T @ b
    d1 = x[0] - grid
    d2 = x[1] - grid
    # cost(i, j) = c1(i) + c2(j) + g01 * d1(i) * d2(j), evaluated in chunks
    c1 = np.abs(grid) + 0.5 * g[0, 0] * d1 * d1
    c2 = np.abs(grid) + 0.5 * g[1, 1] * d2 * d2
    best = np.inf
    chunk = 1024
    for i in range(0, grid.size, chunk):
        t = np.outer(g[0, 1] * d1[i : i + chunk], d2)
        t += c2[None, :]
        t += c1[i : i + chunk, None]
        best = min(best, float(t.min()))
    return best


def dense_gram_lambda_max(entries):
    """Largest eigenvalue of A^H A by a dense eigen-solve."""
    a = np.asarray(entries)
    g = a.conj().T @ a
    return float(np.max(np.linalg.eigvalsh(g)))


def dft_frame_entries(m, n):
    """The M x N over-sampled inverse-DFT frame as a dense complex matrix.

    Entry (r, c) is ``exp(2j*pi*r*c/N) / sqrt(N)``, built elementwise.
    """
    r = np.arange(m)[:, None]
    c = np.arange(n)[None, :]
    return np.exp(2j * np.pi * r * c / n) / np.sqrt(n)


def psd_factor(gram):
    """Some C with C^T C = gram, via an eigendecomposition (PSD input)."""
    w, vecs = np.linalg.eigh(np.asarray(gram))
    w = np.clip(w, 0.0, None)
    return (vecs * np.sqrt(w)) @ vecs.T


def dense_saddle_step(entries, y, gamma, steps, thresholds, p, q, paper=False):
    """One forward-backward step T(p, q) of the two-block saddle recurrence.

    With dense products, the steps ``(a, b)`` and the thresholds ``(s, t)``:

        x' = shrink(p - a * A^H (A (p + gamma*(q - p)) - y), s)
        v' = shrink(q - b * A^H (A (q - (2 x' - p))), t)

    where ``shrink`` zeroes entries of modulus <= the threshold and moves
    the others towards zero by it (complex entries keep their phase).  v's
    gradient reads the extrapolated x, ``2 x' - p``: the primal-dual step,
    forward-backward in the metric P of the solvers' module docstring, with
    ``b = gamma*sigma`` and ``t = sigma*lam`` at its v-step sigma.  With
    ``paper=True`` it reads p, as in the paper's step ``a = 1.9/rho``,
    ``b = gamma*a`` and ``s = t = a*lam``.  Each product is formed as
    ``DenseOperator`` forms one column's, so the bits match it.  Returns
    the stacked (x', v').
    """
    a = np.asarray(entries)

    def prod(mat, u):
        # one column as DenseOperator multiplies it: a matrix-vector product
        mat, u = np.ascontiguousarray(mat), np.ascontiguousarray(u)
        return np.matmul(mat, u[None, :, None])[0, :, 0]

    def shrink(z, t):
        m = np.abs(z)
        if np.iscomplexobj(z):
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(m > t, (1.0 - t / m) * z, 0.0 + 0.0j)
        return np.where(m > t, (m - t) * np.sign(z), 0.0)

    ah = a.conj().T
    x = shrink(p - steps[0] * prod(ah, prod(a, p + gamma * (q - p)) - y), thresholds[0])
    xbar = p if paper else 2.0 * x - p
    return np.stack((x, shrink(q - steps[1] * prod(ah, prod(a, q - xbar)), thresholds[1])))


def dense_saddle_steps(entries, y, gamma, steps, thresholds, scales, memory=0, start=None):
    """Endless ``(x, v, delta)`` of the two-block saddle recurrence.

    Written out for one vector, with dense products and fixed steps and
    thresholds; one step T is ``dense_saddle_step``.  At ``gamma = 0`` a
    point is x alone, v stays zero and is yielded as zeros.  Each step
    yields T(z) of the point z it was taken from, with ``delta =
    max(|x' - p|_inf, |v' - q|_inf)``.  The first point is x = v =
    ``start``, or 0 without one.  With ``memory = 0`` every next point is
    T(z): the plain recurrence.

    Otherwise the next point is the type-II Anderson point of the last
    ``min(memory, width)`` steps, in the kernel's formulas, where width is
    the number of floats in a row.  Points are real rows: x then v (x alone
    at ``gamma = 0``), complex entries as (re, im).  The inner products and
    squared norms weigh the floats of block b by ``scales[b]``.  With f =
    T(z) - z, a step from z to z' records ``df = f' - f`` and ``dg = T(z')
    - T(z)`` in ring slot ``s``, sets row and column s of ``H = df^T df``
    to that slot's inner products r, and moves ``b = df^T f`` to ``b + r``,
    with
    ``b_s = df_s^T f' = (|f'|^2 - |f|^2 + r_s) / 2``.  The inner products
    over all slots and the combination are the kernel's einsums; a squared
    norm is ``np.sum`` of the elementwise square.  When H has a positive
    trace the next point to try is ``T(z) - sum_s c_s dg_s`` with
    ``(H + 1e-10 * trace(H) * I) c = b``, kept when its residual has a
    smaller 2-norm than f.  Otherwise the next point is T(z), and the
    history is zeroed before that step is recorded.  With a zero trace
    (no step recorded yet, or only zeros) the next point is T(z).
    """
    a = np.asarray(entries)
    y = np.asarray(y)
    blocks = 2 if gamma else 1

    def step(z):
        # at gamma = 0, q = p gives q - p = 0 exactly: x' is the ISTA step
        return dense_saddle_step(a, y, gamma, steps, thresholds, z[0], z[-1])[:blocks]

    def rows(z):
        return z.reshape(-1).view(np.float64)

    def residual(z, g1):
        f = rows(g1 - z)
        return f, np.sum(f * f * w), float(np.max(np.abs(g1 - z)))

    g = np.zeros((blocks, a.shape[1]), dtype=np.result_type(a, y, np.float64))
    if start is not None:
        g[:] = start
    width = rows(g).size
    w = np.repeat(np.concatenate([np.full(a.shape[1], s) for s in scales[:blocks]]),
                  g.itemsize // 8)
    memory = min(memory, width)
    df, dg = np.zeros((memory, width)), np.zeros((memory, width))
    gram, rhs = np.zeros((memory, memory)), np.zeros(memory)
    f, norm2, slot = None, 0.0, -1
    while True:
        trace = np.trace(gram)
        if trace > 0.0:
            h = gram + 1e-10 * trace * np.eye(memory)
            coef = np.linalg.solve(h[None], rhs[None, :, None])[0, :, 0]
            shift = np.einsum("km,kmw->kw", coef[None], dg[None])[0]
            z = g - shift.view(g.dtype).reshape(g.shape)
            g1 = step(z)
            f1, norm2_1, delta = residual(z, g1)
            if not norm2_1 < norm2:
                g1 = step(g)
                f1, norm2_1, delta = residual(g, g1)
                df[:], dg[:], gram[:], rhs[:] = 0.0, 0.0, 0.0, 0.0
        else:
            g1 = step(g)
            f1, norm2_1, delta = residual(g, g1)
        if memory and slot >= 0:
            df[slot] = f1 - f
            dg[slot] = rows(g1) - rows(g)
            row = np.einsum("kmw,kw->km", df[None], (df[slot] * w)[None])[0]
            gram[slot, :] = gram[:, slot] = row
            rhs += row
            rhs[slot] = 0.5 * (norm2_1 - norm2 + row[slot])
        slot = (slot + 1) % memory if memory else -1
        g, f, norm2 = g1, f1, norm2_1
        yield g[0], (g[1] if gamma else np.zeros_like(g[0])), delta


def stft_synthesis(op, x):
    """An STFT frame's ``forward`` of one vector, one frame at a time.

    Windowed inverse DFT of each frame, then overlap-add in increasing frame
    order into a buffer padded by three hops, read from the pad on.
    """
    frames = np.fft.ifft(x.reshape(op.n_frames, op.segment_len), axis=1, norm="ortho")
    frames *= op.window
    pad = 3 * op.hop
    buf = np.zeros((op.n_frames - 1) * op.hop + op.segment_len, dtype=np.complex128)
    for k in range(op.n_frames):
        start = k * op.hop
        buf[start : start + op.segment_len] += frames[k]
    return buf[pad : pad + op.signal_len]


def stft_analysis(op, y):
    """An STFT frame's ``adjoint`` of one vector: index-gathered frames.

    The padded signal is cut into frames by a fancy index, windowed and
    DFT'd frame by frame; the coefficients are flattened row-major.
    """
    pad = 3 * op.hop
    buf = np.zeros((op.n_frames - 1) * op.hop + op.segment_len, dtype=np.complex128)
    buf[pad : pad + op.signal_len] = y
    idx = np.arange(op.n_frames)[:, None] * op.hop + np.arange(op.segment_len)
    return np.fft.fft(buf[idx] * op.window, axis=1, norm="ortho").ravel()

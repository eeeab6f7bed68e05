"""Matrix-free linear operators and spectral-norm estimation.

Every operator is a forward/adjoint pair applied to column blocks:
``forward_multi`` maps an (N, k) block of domain vectors to the (M, k) block
of their images, ``adjoint_multi`` maps an (M, k) block back using the
(conjugate) transpose.  ``forward`` and ``adjoint`` are the k = 1 case on 1-D
vectors.  Operators are immutable after construction (a dense operator
keeps its Gram norm once taken, a value its entries fix) and their
application is pure, so instances can be shared freely across threads.

The solvers run real-data solves on each operator's private
``_real_form()``: the operator itself, or for the DFT frame the half
spectrum of Hermitian coefficient vectors, with weighted inner products.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConvergenceError, _finite, _integer, _positive

REAL = "real"
COMPLEX = "complex"

_FIELD_DTYPE = {REAL: np.float64, COMPLEX: np.complex128}


class LinearOperator:
    """Base class for a matrix-free forward/adjoint operator pair.

    Subclasses implement ``forward_multi`` and ``adjoint_multi`` on (N, k) and
    (M, k) column blocks, checking the block shape with ``_columns``; column
    j of the result depends on column j of the input only.  ``forward`` and
    ``adjoint`` check a 1-D vector and apply the block method to it as one
    column.  ``field`` is ``"real"`` or ``"complex"``; for complex operators
    the adjoint is the conjugate transpose.  ``gram_norm`` is ``||A^H A||_2``,
    which sets every solver's step: each subclass declares it (this module's
    classes exactly), so no step comes from the power-iteration estimate
    ``estimate_gram_norm``, which only checks declared values.
    ``_real_form()`` is what real-data solves run on: by default the
    operator itself, with no Anderson ``weights`` and identity ``expand``.
    """

    weights = None

    def __init__(self, domain_dim: int, codomain_dim: int, field: str):
        self.domain_dim = _integer(domain_dim, "domain_dim")
        self.codomain_dim = _integer(codomain_dim, "codomain_dim")
        if field not in (REAL, COMPLEX):
            raise ValueError(f"field must be {REAL!r} or {COMPLEX!r}, got {field!r}")
        self.field = field

    @property
    def dtype(self):
        return _FIELD_DTYPE[self.field]

    def forward(self, x) -> np.ndarray:
        """Apply the operator to a domain vector (A x)."""
        x = np.asarray(x)
        if x.shape != (self.domain_dim,):
            raise ValueError(
                f"forward expects a vector of length {self.domain_dim}, got shape {x.shape}"
            )
        return self.forward_multi(x[:, None])[:, 0]

    def adjoint(self, y) -> np.ndarray:
        """Apply the adjoint to a codomain vector (A^T y, or A^H y when complex)."""
        y = np.asarray(y)
        if y.shape != (self.codomain_dim,):
            raise ValueError(
                f"adjoint expects a vector of length {self.codomain_dim}, got shape {y.shape}"
            )
        return self.adjoint_multi(y[:, None])[:, 0]

    def gram_norm(self) -> float:
        """``||A^H A||_2``, declared by each subclass."""
        raise NotImplementedError

    def forward_multi(self, xs) -> np.ndarray:
        """Apply the operator to each column of an (N, k) array."""
        raise NotImplementedError

    def adjoint_multi(self, ys) -> np.ndarray:
        """Apply the adjoint to each column of an (M, k) array."""
        raise NotImplementedError

    def expand(self, x) -> np.ndarray:
        """Domain vectors from kernel coordinates: ``x`` itself here."""
        return x

    def _real_form(self):
        """The form real-data solves run on: the operator itself."""
        return self


def _columns(a, n: int) -> np.ndarray:
    """``a`` as an array, checked to be a block of k columns of length ``n``."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != n:
        raise ValueError(f"expected shape ({n}, k), got {a.shape}")
    return a


class DenseOperator(LinearOperator):
    """Operator backed by an explicit M x N array of finite entries.

    The reference that oracles and tests compare matrix-free operators
    against; ``gram_norm`` is exact, by LAPACK's SVD of the entries, taken
    on the first call and then kept.  The products take each column on its
    own (``_dot_columns``), so a block's columns equal the one-column
    results bit for bit, as on the FFT-applied frames.
    """

    def __init__(self, entries):
        a = np.asarray(entries)
        if a.ndim != 2:
            raise ValueError("entries must be a 2-D array")
        field = COMPLEX if np.iscomplexobj(a) else REAL
        a = _finite(np.array(a, dtype=_FIELD_DTYPE[field], order="C"), "entries")
        super().__init__(domain_dim=a.shape[1], codomain_dim=a.shape[0], field=field)
        self.entries = a
        self._adjoint_entries = np.ascontiguousarray(a.conj().T)
        self._gram = None

    @classmethod
    def from_csv(cls, path) -> "DenseOperator":
        """Load a real matrix from CSV, row-major, one row per line."""
        a = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
        return cls(a)

    def gram_norm(self) -> float:
        if self._gram is None:
            self._gram = float(np.linalg.svd(self.entries, compute_uv=False)[0] ** 2)
        return self._gram

    def forward_multi(self, xs):
        return _dot_columns(self.entries, _columns(xs, self.domain_dim))

    def adjoint_multi(self, ys):
        return _dot_columns(self._adjoint_entries, _columns(ys, self.codomain_dim))


def _dot_columns(mat, xs):
    """``mat @ xs`` for a C-ordered ``mat``, with one column's bits at any k.

    Each column of ``xs`` is copied to contiguous memory and multiplied on
    its own, by a matrix-vector product (``np.matmul`` over the stack of
    columns), so a column's summation order depends on neither k nor the
    layout ``xs`` came in.  One BLAS matrix-matrix product sums a block's
    columns in another order than a vector's.
    """
    cols = np.ascontiguousarray(xs.T)  # (k, n): one contiguous row per column
    return np.matmul(mat, cols[..., None])[..., 0].T


class DftFrameOperator(LinearOperator):
    """Over-sampled inverse-DFT synthesis frame, applied by FFT.

    Entry (m, n) is ``exp(2j*pi*m*n/N) / sqrt(N)`` with m < M rows and
    n < N columns, N >= M.  The rows form a normalized tight frame:
    composing ``forward`` with ``adjoint`` is the identity on length-M
    vectors.  No matrix is stored: ``forward`` keeps the first M samples of
    an orthonormal inverse FFT and ``adjoint`` is the orthonormal FFT of the
    signal zero-padded to N, O(N log N) per column.  Each column is
    transformed on its own, so a block's columns equal the vector results
    bit for bit.
    """

    def __init__(self, signal_len: int, coef_len: int):
        _integer(coef_len, "coef_len", least=_integer(signal_len, "signal_len"))
        super().__init__(domain_dim=coef_len, codomain_dim=signal_len, field=COMPLEX)
        self.signal_len = signal_len
        self.coef_len = coef_len

    def gram_norm(self) -> float:
        return 1.0  # the rows are orthonormal: A A^H = I

    def forward_multi(self, xs):
        xs = _columns(xs, self.domain_dim)
        return np.fft.ifft(xs, axis=0, norm="ortho")[: self.codomain_dim]

    def adjoint_multi(self, ys):
        ys = _columns(ys, self.codomain_dim)
        return np.fft.fft(ys, n=self.domain_dim, axis=0, norm="ortho")

    def _real_form(self) -> "_HalfSpectrum":
        """The frame restricted to Hermitian coefficients, for real signals."""
        return _HalfSpectrum(self.signal_len, self.coef_len)


class _HalfSpectrum:
    """A DFT frame on Hermitian coefficient vectors, by their half spectrum.

    A real signal's adjoint image is Hermitian, ``x[N - n] == conj(x[n])``,
    and so is every soft threshold and every real combination of such
    vectors.  This form keeps h = x[0..N//2] only: ``forward_multi`` is the
    real inverse FFT of the Hermitian x that h stands for, cut to M samples,
    and ``adjoint_multi`` the real FFT of a real signal zero-padded to N.
    The map is real-linear (the imaginary parts of h[0], and of h[N/2] when
    N is even, do not enter) and is the adjoint of its adjoint only under
    the inner product ``Re sum weights * conj(h) * h'``, which equals the
    full one on the expanded vectors: interior entries stand for two.  So
    it is no ``LinearOperator``; it is the frame's ``_real_form()``, and
    ``expand`` gives back the full Hermitian x.
    """

    field = COMPLEX

    def __init__(self, signal_len: int, coef_len: int):
        self.codomain_dim = signal_len
        self.coef_len = coef_len
        self.domain_dim = coef_len // 2 + 1
        self.weights = np.full(self.domain_dim, 2.0)
        self.weights[0] = 1.0
        if coef_len % 2 == 0:
            self.weights[-1] = 1.0  # the Nyquist entry is its own mirror

    def gram_norm(self) -> float:
        return 1.0  # the frame's: A A^H = I on the real signals it maps to

    def forward_multi(self, hs):
        hs = _columns(hs, self.domain_dim)
        return np.fft.irfft(hs, n=self.coef_len, axis=0, norm="ortho")[: self.codomain_dim]

    def adjoint_multi(self, ys):
        ys = _columns(ys, self.codomain_dim)
        return np.fft.rfft(ys, n=self.coef_len, axis=0, norm="ortho")

    def expand(self, h) -> np.ndarray:
        """The full Hermitian x of each half spectrum along axis 0 of ``h``."""
        mirror = h[1 : self.coef_len - self.domain_dim + 1][::-1].conj()
        return np.concatenate((h, mirror))


class StftFrameOperator(LinearOperator):
    """Short-time Fourier synthesis frame with 75% overlapping segments.

    ``forward`` maps flattened time-frequency coefficients (frames x bins,
    row-major) to a length-``signal_len`` time signal by windowed
    overlap-add of per-frame inverse DFTs; ``adjoint`` is the matching
    windowed analysis transform.  The analysis window is a square-root Hann
    scaled so that forward(adjoint(y)) == y exactly: frames starting before
    sample 0 are included so the window-squared partition of unity also
    holds at the boundaries.  Its real form is the frame itself.
    """

    def __init__(self, signal_len: int, segment_len: int = 64):
        signal_len = _integer(signal_len, "signal_len")
        segment_len = _integer(segment_len, "segment_len")
        if segment_len % 4 != 0:
            raise ValueError("segment_len must be a positive multiple of 4")
        hop = segment_len // 4
        # frames at offsets k*hop for k in [-3, floor((L-1)/hop)] cover every
        # sample with the full set of four overlapping windows
        k_max = (signal_len - 1) // hop
        n_frames = k_max + 4
        r = np.arange(segment_len)
        hann = 0.5 - 0.5 * np.cos(2 * np.pi * r / segment_len)
        window = np.sqrt(hann / 2.0)  # sum_k window^2(n - k*hop) == 1
        super().__init__(
            domain_dim=n_frames * segment_len, codomain_dim=signal_len, field=COMPLEX
        )
        self.signal_len = signal_len
        self.segment_len = segment_len
        self.hop = hop
        self.n_frames = n_frames
        self.window = window
        self._pad = 3 * hop

    def gram_norm(self) -> float:
        return 1.0  # forward(adjoint(y)) == y: A A^H = I

    # Blocks keep k last: an (N, k) coefficient block is a (frames,
    # segment_len, k) view, and the padded signal a (frames + 3, hop, k)
    # buffer whose row f + q holds quarter q of frame f, so no transpose is
    # needed either way.

    def forward_multi(self, xs):
        xs = _columns(xs, self.domain_dim)
        nf, hop, k = self.n_frames, self.hop, xs.shape[1]
        frames = np.fft.ifft(xs.reshape(nf, self.segment_len, k), axis=1, norm="ortho")
        frames *= self.window[:, None]
        buf = np.zeros((nf + 3, hop, k), dtype=np.complex128)
        # q = 3 first: every row then sums its frames in increasing frame order
        for q in (3, 2, 1, 0):
            buf[q : q + nf] += frames[:, q * hop : (q + 1) * hop]
        return buf.reshape(-1, k)[self._pad : self._pad + self.signal_len]

    def adjoint_multi(self, ys):
        ys = _columns(ys, self.codomain_dim)
        nf, k = self.n_frames, ys.shape[1]
        buf = np.zeros((nf + 3, self.hop, k), dtype=np.complex128)
        buf.reshape(-1, k)[self._pad : self._pad + self.signal_len] = ys
        frames = np.concatenate([buf[q : q + nf] for q in range(4)], axis=1)
        frames *= self.window[:, None]
        return np.fft.fft(frames, axis=1, norm="ortho").reshape(-1, k)


class ScaledOperator(LinearOperator):
    """A real scalar multiple of another operator."""

    def __init__(self, op: LinearOperator, scale: float):
        scale = float(_finite(scale, "scale"))
        super().__init__(op.domain_dim, op.codomain_dim, op.field)
        self.base = op
        self.scale = scale

    def gram_norm(self) -> float:
        return self.scale**2 * self.base.gram_norm()

    def forward_multi(self, xs):
        return self.scale * self.base.forward_multi(xs)

    def adjoint_multi(self, ys):
        return self.scale * self.base.adjoint_multi(ys)


def estimate_gram_norm(
    op: LinearOperator, tol: float = 1e-8, max_iter: int = 5000
) -> float:
    """Largest eigenvalue of A^T A (the squared spectral norm of A).

    Power iteration on ``x -> adjoint(forward(x))``, started from a fixed
    seeded random vector so repeated calls give identical results.  Stops
    when the eigen-residual ``||G z - theta z||`` drops below ``tol * theta``,
    which bounds the distance from ``theta`` to an eigenvalue of the Gram
    operator.  ``tol`` must be positive and finite and ``max_iter`` an
    integer of at least 1 (``ValueError`` otherwise).

    Raises
    ------
    ConvergenceError
        If the residual test is not met within ``max_iter`` iterations; the
        best estimate so far is attached as ``err.best``.
    """
    _positive(tol, "tol")
    max_iter = _integer(max_iter, "max_iter")
    rng = np.random.default_rng(0x5EED)
    z = rng.standard_normal(op.domain_dim)
    if op.field == COMPLEX:
        z = z + 1j * rng.standard_normal(op.domain_dim)
    z = z / np.linalg.norm(z)
    theta = 0.0
    for i in range(max_iter):
        w = op.adjoint(op.forward(z))
        theta = float(np.real(np.vdot(z, w)))
        resid = float(np.linalg.norm(w - theta * z))
        if resid <= tol * max(theta, np.finfo(float).tiny):
            return max(theta, 0.0)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0  # z is in the null space of the Gram operator
        z = w / norm_w
    raise ConvergenceError(
        f"power iteration did not reach tol={tol} in {max_iter} iterations",
        best=max(theta, 0.0),
        iterations=max_iter,
    )

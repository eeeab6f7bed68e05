"""Matrix-free linear operators and spectral-norm estimation.

Every operator is a forward/adjoint pair: ``forward`` maps a length-N domain
vector to a length-M codomain vector, ``adjoint`` maps back using the
(conjugate) transpose.  Operators are immutable after construction and their
application is pure, so instances can be shared freely across threads.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConvergenceError

REAL = "real"
COMPLEX = "complex"

_FIELD_DTYPE = {REAL: np.float64, COMPLEX: np.complex128}


class LinearOperator:
    """Base class for a matrix-free forward/adjoint operator pair.

    Subclasses implement ``_forward`` and ``_adjoint`` on validated 1-D
    arrays.  ``field`` is ``"real"`` or ``"complex"``; for complex operators
    the adjoint is the conjugate transpose.
    """

    def __init__(self, domain_dim: int, codomain_dim: int, field: str):
        if domain_dim <= 0 or codomain_dim <= 0:
            raise ValueError("operator dimensions must be positive")
        if field not in (REAL, COMPLEX):
            raise ValueError(f"field must be {REAL!r} or {COMPLEX!r}, got {field!r}")
        self.domain_dim = int(domain_dim)
        self.codomain_dim = int(codomain_dim)
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
        return self._forward(x)

    def adjoint(self, y) -> np.ndarray:
        """Apply the adjoint to a codomain vector (A^T y, or A^H y when complex)."""
        y = np.asarray(y)
        if y.shape != (self.codomain_dim,):
            raise ValueError(
                f"adjoint expects a vector of length {self.codomain_dim}, got shape {y.shape}"
            )
        return self._adjoint(y)

    def forward_multi(self, xs) -> np.ndarray:
        """Apply ``forward`` to each column of an (N, k) array.

        Default implementation loops over columns; dense subclasses override
        with a single matrix product.
        """
        xs = np.asarray(xs)
        if xs.ndim != 2 or xs.shape[0] != self.domain_dim:
            raise ValueError(f"expected shape ({self.domain_dim}, k), got {xs.shape}")
        return _per_column(self._forward, xs)

    def adjoint_multi(self, ys) -> np.ndarray:
        """Apply ``adjoint`` to each column of an (M, k) array."""
        ys = np.asarray(ys)
        if ys.ndim != 2 or ys.shape[0] != self.codomain_dim:
            raise ValueError(f"expected shape ({self.codomain_dim}, k), got {ys.shape}")
        return _per_column(self._adjoint, ys)

    def _forward(self, x):
        raise NotImplementedError

    def _adjoint(self, y):
        raise NotImplementedError


def _per_column(apply, cols) -> np.ndarray:
    """Stack ``apply`` of each column; one column skips the list and the stack."""
    if cols.shape[1] == 1:
        return apply(cols[:, 0])[:, None]
    return np.stack([apply(cols[:, j]) for j in range(cols.shape[1])], axis=1)


class DenseOperator(LinearOperator):
    """Operator backed by an explicit M x N array of entries.

    Serves as the reference implementation that oracles and tests compare
    matrix-free operators against.  Entries must be finite.
    """

    def __init__(self, entries):
        a = np.asarray(entries)
        if a.ndim != 2:
            raise ValueError("entries must be a 2-D array")
        field = COMPLEX if np.iscomplexobj(a) else REAL
        a = a.astype(_FIELD_DTYPE[field])
        if not np.all(np.isfinite(a)):
            raise ValueError("entries must be finite (no NaN or infinity)")
        super().__init__(domain_dim=a.shape[1], codomain_dim=a.shape[0], field=field)
        self.entries = a
        self._adjoint_entries = a.conj().T

    @classmethod
    def from_csv(cls, path) -> "DenseOperator":
        """Load a real matrix from CSV, row-major, one row per line."""
        a = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
        return cls(a)

    def _forward(self, x):
        return self.entries @ x

    def _adjoint(self, y):
        return self._adjoint_entries @ y

    def forward_multi(self, xs):
        xs = np.asarray(xs)
        if xs.ndim != 2 or xs.shape[0] != self.domain_dim:
            raise ValueError(f"expected shape ({self.domain_dim}, k), got {xs.shape}")
        return self.entries @ xs

    def adjoint_multi(self, ys):
        ys = np.asarray(ys)
        if ys.ndim != 2 or ys.shape[0] != self.codomain_dim:
            raise ValueError(f"expected shape ({self.codomain_dim}, k), got {ys.shape}")
        return self._adjoint_entries @ ys


class DftFrameOperator(DenseOperator):
    """Over-sampled inverse-DFT synthesis frame.

    Entry (m, n) is ``exp(2j*pi*m*n/N) / sqrt(N)`` with m < M rows and
    n < N columns, N >= M.  The rows form a normalized tight frame:
    composing ``forward`` with ``adjoint`` is the identity on length-M
    vectors.  Applied directly at O(M*N) cost, which is fine at the sizes
    this package targets.
    """

    def __init__(self, signal_len: int, coef_len: int):
        if signal_len <= 0 or coef_len <= 0:
            raise ValueError("dimensions must be positive")
        if coef_len < signal_len:
            raise ValueError("coef_len must be >= signal_len for a frame")
        m = np.arange(signal_len)[:, None]
        n = np.arange(coef_len)[None, :]
        entries = np.exp(2j * np.pi * m * n / coef_len) / np.sqrt(coef_len)
        super().__init__(entries)
        self.signal_len = signal_len
        self.coef_len = coef_len


class StftFrameOperator(LinearOperator):
    """Short-time Fourier synthesis frame with 75% overlapping segments.

    ``forward`` maps flattened time-frequency coefficients (frames x bins,
    row-major) to a length-``signal_len`` time signal by windowed
    overlap-add of per-frame inverse DFTs; ``adjoint`` is the matching
    windowed analysis transform.  The analysis window is a square-root Hann
    scaled so that forward(adjoint(y)) == y exactly: frames starting before
    sample 0 are included so the window-squared partition of unity also
    holds at the boundaries.
    """

    def __init__(self, signal_len: int, segment_len: int = 64):
        if signal_len <= 0:
            raise ValueError("signal_len must be positive")
        if segment_len <= 0 or segment_len % 4 != 0:
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
        self._buf_len = (n_frames - 1) * hop + segment_len

    def _forward(self, x):
        frames = np.fft.ifft(
            x.reshape(self.n_frames, self.segment_len), axis=1, norm="ortho"
        )
        frames *= self.window
        buf = np.zeros(self._buf_len, dtype=np.complex128)
        for k in range(self.n_frames):
            start = k * self.hop
            buf[start : start + self.segment_len] += frames[k]
        return buf[self._pad : self._pad + self.signal_len]

    def _adjoint(self, y):
        buf = np.zeros(self._buf_len, dtype=np.complex128)
        buf[self._pad : self._pad + self.signal_len] = y
        idx = np.arange(self.n_frames)[:, None] * self.hop + np.arange(self.segment_len)
        frames = buf[idx] * self.window
        coef = np.fft.fft(frames, axis=1, norm="ortho")
        return coef.ravel()


class ScaledOperator(LinearOperator):
    """A real scalar multiple of another operator."""

    def __init__(self, op: LinearOperator, scale: float):
        scale = float(scale)
        if not np.isfinite(scale):
            raise ValueError("scale must be finite")
        super().__init__(op.domain_dim, op.codomain_dim, op.field)
        self.base = op
        self.scale = scale

    def _forward(self, x):
        return self.scale * self.base._forward(x)

    def _adjoint(self, y):
        return self.scale * self.base._adjoint(y)

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
    operator.

    Raises
    ------
    ConvergenceError
        If the residual test is not met within ``max_iter`` iterations; the
        best estimate so far is attached as ``err.best``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
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

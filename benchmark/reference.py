"""Host-speed reference kernels and the clock that scales by them.

The host this benchmark runs on changes speed by up to ±25 % over seconds
to minutes, and two runs of the same code minutes apart can differ by as
much.  Each workload therefore names a reference kernel: a short slice of
fixed work of the same kind as its unit operation, on fixed inputs, written
here with numpy and scipy alone so that no change to swelab changes it.
``HostClock`` runs a slice about every ``SAMPLE_S`` seconds, between
operations, and scales the wall time in between by ``nominal_s / t``,
where ``t`` is the mean time of the slices just before and just after it.
Scaled times are thus seconds of a host on which a slice takes
``nominal_s``, a fixed constant near the slice's time on a 2-vCPU Intel
Xeon VM with single-threaded BLAS.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class SparseCG:
    """Fixed-length Jacobi-preconditioned CG solves on a 9-point SPD matrix.

    Each solve re-wraps the matrix, forms ``A - A.T`` and runs ``iters``
    iterations, as ``linalg.solve_spd`` does on the P2 operators; ``n1 * n2``
    matches the workload's P2 dof count.  The matrix, a Kronecker product of
    two 1-D Laplacians plus a small shift, is so ill-conditioned that no
    solve converges, so every iteration works on normal-sized numbers.
    """

    def __init__(self, n1, n2, iters, solves, nominal_s):
        t1, t2 = (sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)) for n in (n1, n2))
        self.A = (sp.kron(t1, t2) + 1e-4 * sp.identity(n1 * n2)).tocsr()
        self.b = np.random.default_rng(0).standard_normal(n1 * n2)
        self.iters, self.solves, self.nominal_s = iters, solves, nominal_s

    def _solve(self):
        A = sp.csr_matrix(self.A)
        d = A - A.T
        if d.nnz and np.abs(d.data).max() > 0.0:
            raise ValueError("reference matrix is not symmetric")
        inv_diag = 1.0 / A.diagonal()
        x = np.zeros_like(self.b)
        r = self.b.copy()
        z = inv_diag * r
        p = z.copy()
        rz = r @ z
        for _ in range(self.iters):
            np.linalg.norm(r)
            Ap = A @ p
            alpha = rz / (p @ Ap)
            x += alpha * p
            r -= alpha * Ap
            z = inv_diag * r
            rz_new = r @ z
            p = z + (rz_new / rz) * p
            rz = rz_new
        return np.linalg.norm(r)

    def __call__(self):
        return [self._solve() for _ in range(self.solves)]


@dataclass(frozen=True)
class _Point:
    kdx: tuple
    omegas: np.ndarray
    labels: tuple


class DenseBloch:
    """Tiny dense eigenproblems, two per point, as a pair of Bloch zone sweeps makes them.

    Per point: a zone test, a 19x4 phase matrix and four reductions
    ``S^H X S`` of 19x19 matrices; then for each of two 4x4 problems a
    solve, a general eigensolve sorted by real part, a spectral norm, a
    phase-normalised backward-error test of each eigenvector and, for the
    second, a match of each eigenvector against four templates.
    """

    def __init__(self, points, nominal_s):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((19, 19))
        self.mats = (X @ X.T + 19.0 * np.eye(19), np.eye(19) + 0.1 * (X + X.T), X, X.T)
        self.classes = rng.integers(0, 4, 19)
        self.nodes = rng.standard_normal((19, 2))
        self.normals = rng.standard_normal((6, 2))
        self.templates = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        self.kdx = rng.uniform(-1.0, 1.0, (points, 2))
        self.nominal_s = nominal_s

    def _eig(self, A, B):
        C = np.linalg.solve(A, B)
        vals, vecs = np.linalg.eig(C)
        order = np.lexsort((vals.imag, vals.real))
        vals, vecs = vals[order], vecs[:, order]
        norm = np.linalg.norm(C, 2)
        for j in range(4):
            v = vecs[:, j] / np.linalg.norm(vecs[:, j])
            k = np.argmax(np.abs(v) > 1e-12 * np.abs(v).max())
            v = v / (v[k] / abs(v[k]))
            vecs[:, j] = v
            if np.linalg.norm(C @ v - vals[j] * v) > 1e-8 * max(norm, 1.0):
                raise ArithmeticError("reference eigenpair fails its backward error bound")
        return vals, vecs

    def _point(self, kdx):
        if not np.all(np.abs(self.normals @ kdx) <= 10.0):
            return None
        S = np.zeros((19, 4), dtype=complex)
        S[np.arange(19), self.classes] = np.exp(1j * (self.nodes @ kdx))
        Mr, Lr, D1r, D2r = ((S.conj().T @ X @ S) for X in self.mats)
        vals, _ = self._eig(Mr, Lr)
        omegas = np.sqrt(1.0 + np.clip(vals.real, 0.0, None))
        _, vecs = self._eig(Lr + Mr, D1r - D2r)
        labels = []
        for j in range(4):
            scores = np.abs(self.templates @ vecs[:, j].conj())
            labels.append(int(np.argsort(scores)[::-1][0]))
        return _Point((float(kdx[0]), float(kdx[1])), omegas, tuple(labels))

    def __call__(self):
        return [self._point(kdx) for kdx in self.kdx]


SAMPLE_S = 0.25   # wall seconds of work between two reference slices


def _timed(kernel):
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class HostClock:
    """Wall time of a workload, scaled to the reference host speed.

    The time between two reference slices is a segment.  ``op`` times one
    unit operation and ``call`` makes an untimed call; after either, a
    slice runs if the segment has lasted ``SAMPLE_S``.  ``mark`` ends the
    segment and returns the scaled and the wall seconds since the previous
    mark, slices left out.
    """

    def __init__(self, reference):
        self.reference = reference
        self.ops = []       # scaled seconds of each unit operation
        self.factors = []   # scale factor of each segment
        self._pending = []  # wall seconds of the operations in this segment
        self._scaled = self._raw = 0.0
        self._slice_s = _timed(reference)
        self._t0 = time.perf_counter()

    def _sample(self):
        seconds = time.perf_counter() - self._t0
        slice_s = _timed(self.reference)
        factor = self.reference.nominal_s / (0.5 * (self._slice_s + slice_s))
        self._slice_s = slice_s
        self.factors.append(factor)
        self._raw += seconds
        self._scaled += seconds * factor
        self.ops.extend(t * factor for t in self._pending)
        self._pending.clear()
        self._t0 = time.perf_counter()

    def call(self, fn, *args, **kwargs):
        result = fn(*args, **kwargs)
        if time.perf_counter() - self._t0 >= SAMPLE_S:
            self._sample()
        return result

    def op(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self._pending.append(time.perf_counter() - t0)
        if time.perf_counter() - self._t0 >= SAMPLE_S:
            self._sample()
        return result

    def mark(self):
        self._sample()
        seconds = self._scaled, self._raw
        self._scaled = self._raw = 0.0
        return seconds

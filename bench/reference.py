"""Independent references for checking kernelcex outputs.

Nothing here imports kernelcex. The kernels are written as closed-form numpy
expressions over stacked points, the Fourier transforms use ``np.fft``, and
orbit and spectrum inputs are built so that the expected answer is known by
construction.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# Closed-form base kernels and the four shipped grid kernels


def wrap_angle(a):
    return (np.asarray(a, dtype=np.float64) + math.pi) % (2.0 * math.pi) - math.pi


def circle_exp_cos(x, y):
    """exp(cos(theta - vartheta)) for angle vectors x (n,) and y (m,)."""
    return np.exp(np.cos(np.subtract.outer(x, y)))


def gaussian(x, y, sigma=1.0):
    """exp(-sigma ||x - y||^2) for point stacks x (n, d) and y (m, d)."""
    d = x[:, None, :] - y[None, :, :]
    return np.exp(-sigma * np.einsum("nmd,nmd->nm", d, d))


def dot_exp(x, y, shift=0.0):
    """exp(Re <x, y>) + shift; <x, y> is linear in x, conjugate-linear in y."""
    return np.exp((x @ y.conj().T).real) + shift


# Each shipped instance: its point kind, base kernel, map, and the constant the
# shifted variant adds to the diagonal grid entries. The parameters are the
# ones the shipped suites use (rotation 1.0, sigma 1.0, translation e1,
# scaling ratio 2.0).
SHIPPED = {
    "circle": {
        "base": circle_exp_cos,
        "phi": lambda x: wrap_angle(x + 1.0),
        "diag_offset": 0.0,
    },
    "gaussian": {
        "base": gaussian,
        "phi": lambda x: x + np.array([1.0, 0.0, 0.0]),
        "diag_offset": 0.0,
    },
    "dotproduct": {
        "base": dot_exp,
        "phi": lambda x: 2.0 * x,
        "diag_offset": 1.0,  # k(0, 0) = exp(0) for the shifted construction
    },
    "complex-sphere": {
        "base": dot_exp,
        "phi": lambda x: np.exp(1j * 1.0) * x,
        "diag_offset": 0.0,
    },
}


def blocked_gram(instance: str, x) -> np.ndarray:
    """Blocked Gram of a shipped 2x2 grid kernel in coordinate-major layout.

    Row i*n + mu holds grid coordinate i at point mu, so the blocks are
    [[k(phi x, phi y) + c, k(phi x, y)], [k(x, phi y), k(x, y) + c]].
    """
    spec = SHIPPED[instance]
    k, fx, c = spec["base"], spec["phi"](x), spec["diag_offset"]
    return np.block([[k(fx, fx) + c, k(fx, x)], [k(x, fx), k(x, x) + c]]).astype(np.complex128)


def projection_gram(blocked: np.ndarray, v) -> np.ndarray:
    """Gram of the scalar projection <K v, v> from a blocked 2x2 Gram."""
    n = blocked.shape[0] // 2
    v = np.asarray(v, dtype=np.complex128)
    out = np.zeros((n, n), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            out += np.conj(v[i]) * v[j] * blocked[i * n : (i + 1) * n, j * n : (j + 1) * n]
    return out


def pair_direction(n: int, ix: int, ifx: int) -> np.ndarray:
    """Coefficient direction (1, 0) at x and (0, -1) at phi(x).

    Row (coordinate 1, x) of the blocked Gram equals row (coordinate 2,
    phi(x)), so this direction lies in its null space.
    """
    d = np.zeros(2 * n, dtype=np.complex128)
    d[ix] = 1.0
    d[n + ifx] = -1.0
    return d


def triple_direction(n: int, io: int, ix: int, ifx: int) -> np.ndarray:
    """Null direction of the shifted construction: (-1, 1) at the fixed
    origin, (1, 0) at x and (0, -1) at phi(x)."""
    d = pair_direction(n, ix, ifx)
    d[io] -= 1.0
    d[n + io] += 1.0
    return d


def relative_error(actual, expected) -> float:
    scale = float(np.max(np.abs(expected)))
    return float(np.max(np.abs(np.asarray(actual) - expected))) / scale


def separated(points, min_sep: float, metric) -> bool:
    pts = list(points)
    return all(metric(pts[i], pts[j]) > min_sep for i in range(len(pts)) for j in range(i))


def circle_metric(a, b) -> float:
    return abs(float(wrap_angle(a - b)))


def vector_metric(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


# ---------------------------------------------------------------------------
# Fourier analysis on Z_q1 x ... x Z_qr in lexicographic element order


def fft_analyze(psi, orders) -> np.ndarray:
    """Coefficients a_g = (1/|G|) sum_x psi(x) conj(xi_g(x))."""
    psi = np.asarray(psi, dtype=np.complex128)
    return (np.fft.fftn(psi.reshape(orders)) / psi.size).ravel()


def fft_synthesize(coefficients, orders) -> np.ndarray:
    """Values psi(x) = sum_g a_g xi_g(x)."""
    a = np.asarray(coefficients, dtype=np.complex128)
    return (a.size * np.fft.ifftn(a.reshape(orders))).ravel()


def margin_spectrum(rng: np.random.Generator, order: int, ell: int, strict: bool) -> np.ndarray:
    """Coefficients whose positivity is clear-cut.

    Strict spectra keep every coefficient (or every coefficient matrix's
    smallest eigenvalue) at least 0.2. Non-strict spectra set some scalar
    coefficients to exactly 0, or make one coefficient matrix rank one.
    """
    if ell == 1:
        coeffs = rng.uniform(0.2, 1.0, order)
        if not strict:
            coeffs[rng.permutation(order)[: int(rng.integers(1, order))]] = 0.0
        return coeffs
    stack = np.empty((order, ell, ell), dtype=np.complex128)
    for g in range(order):
        b = rng.standard_normal((ell, ell)) + 1j * rng.standard_normal((ell, ell))
        a = b @ b.conj().T / ell + 0.2 * np.eye(ell)
        stack[g] = 0.5 * (a + a.conj().T)
    if not strict:
        v = rng.standard_normal(ell) + 1j * rng.standard_normal(ell)
        stack[int(rng.integers(order))] = np.outer(v, v.conj())
    return stack


# ---------------------------------------------------------------------------
# Orbit inputs with a known split


def translation_chains(rng: np.random.Generator, chains: int, length: int, step: float):
    """Points on the real line laid out as ``chains`` runs x, x+t, ..., x+(L-1)t.

    Under the translation by t, every point but the last of each chain maps
    onto the next point of its chain, so the index set F holds n - chains
    indices and p = chains. Chains start far enough apart that no image of
    one chain lands near another. Returns the shuffled points and the
    expected index map tau (input index -> input index of its image).
    """
    gap = (length + 3) * step
    values, successor = [], []
    for c in range(chains):
        x = c * gap + float(rng.uniform(0.0, 0.5 * step))
        for j in range(length):
            values.append(x)
            successor.append(len(values) if j < length - 1 else None)
            x = x + step
    order = rng.permutation(len(values))
    position = np.empty(len(values), dtype=int)
    position[order] = np.arange(len(values))
    points = [values[i] for i in order]
    tau = {
        int(position[i]): int(position[s]) for i, s in enumerate(successor) if s is not None
    }
    return points, tau

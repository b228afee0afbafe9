"""Dense complex-matrix kernel: pairing, norms, triangular and block splittings.

All state in this package is an N x N complex numpy array, interpreted as the
finite truncation of a trace-class operator (a "state" rho) or a bounded
operator (an "observable gradient" x).  The two spaces are paired by the
trace pairing <x, rho> = tr(x rho), which is what every adjoint in this
package is taken with respect to.

Matrices are plain ``numpy.ndarray`` values with dtype complex128; nothing here
mutates its inputs, so values can be shared freely between threads.

Validation happens once, where a matrix enters.  Every public function
coerces its matrix arguments with ``as_matrix`` (square, at least 1 x 1,
finite entries) and raises ``ValueError`` otherwise.  The underscored
kernels (``_commutator``, ``_conjugate``, ``_trace_pairing``,
``_power_traces``, ``_skew_hermitian_part``, ``_holds``,
``_decomposition_holds``) hold the formulas and trust their input to be
such a matrix already; the step loops and the brackets call only kernels.
"""

from __future__ import annotations

import enum
import math

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "ClassTag",
    "as_matrix",
    "commutator",
    "elementary",
    "expm",
    "hermitian_part",
    "matrix_from_json",
    "matrix_to_json",
    "operator_norm",
    "project_lower",
    "project_strictly_lower",
    "project_strictly_upper",
    "project_upper_plus",
    "skew_hermitian_part",
    "spectral_projectors",
    "standard_basis_decomposition",
    "trace_norm",
    "trace_pairing",
    "validate",
    "validate_decomposition",
]

# Double-precision roundoff scale for exact algebraic identities.
DEFAULT_TOL = 1e-12


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix and check entries are finite."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def elementary(n: int, i: int, j: int) -> np.ndarray:
    """E_ij, zero-indexed: 1 in row i, column j."""
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"indices ({i}, {j}) out of range for dimension {n}")
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def _matrix_pair(x, y):
    x, y = as_matrix(x), as_matrix(y)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return x, y


def _commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] = xy - yx."""
    return _commutator(*_matrix_pair(x, y))


def _trace_pairing(x: np.ndarray, rho: np.ndarray) -> complex:
    # tr(x rho) = sum_ij x_ij rho_ji without forming the product.
    return complex((x * rho.T).sum())


def _power_traces(stack: np.ndarray, k: int) -> np.ndarray:
    """Re tr(M^k) / k for each matrix M of an (R, N, N) stack.

    Gives the same bits as the per-matrix
    ``float(np.real(np.trace(np.linalg.matrix_power(m, k)))) / k``.
    """
    return np.real(np.trace(np.linalg.matrix_power(stack, k),
                            axis1=-2, axis2=-1)) / k


def _conjugate(g: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """g rho g^(-1), solved as g^T X^T = (g rho)^T without an explicit inverse."""
    return np.linalg.solve(g.T, (g @ rho).T).T


def trace_pairing(x: np.ndarray, rho: np.ndarray) -> complex:
    """<x, rho> = tr(x rho), the duality pairing of bounded against trace class."""
    return _trace_pairing(*_matrix_pair(x, rho))


def trace_norm(rho: np.ndarray) -> float:
    """Sum of singular values (descending SVD order for reproducibility)."""
    rho = as_matrix(rho)
    try:
        s = np.linalg.svd(rho, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # report, never silently return
        raise ValueError(f"SVD did not converge on a {rho.shape[0]}x{rho.shape[0]} matrix") from exc
    return float(np.sum(s))


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(as_matrix(m), 2))


def project_lower(rho: np.ndarray) -> np.ndarray:
    """Keep entries with row >= column (diagonal included)."""
    return np.tril(as_matrix(rho))


def project_strictly_upper(rho: np.ndarray) -> np.ndarray:
    """Keep entries with row < column; complement of project_lower."""
    return np.triu(as_matrix(rho), 1)


def project_upper_plus(x: np.ndarray) -> np.ndarray:
    """Keep entries with column >= row (diagonal included)."""
    return np.triu(as_matrix(x))


def project_strictly_lower(x: np.ndarray) -> np.ndarray:
    """Keep entries with column < row; complement of project_upper_plus."""
    return np.tril(as_matrix(x), -1)


# Higham (2005), "The scaling and squaring method for the matrix exponential
# revisited", SIAM J. Matrix Anal. Appl. 26(4): for each Pade degree m in
# {3, 5, 7, 9, 13}, the largest 1-norm theta_m at which the [m/m] approximant
# to exp keeps its backward error below the double unit roundoff (Table 2.3),
# and its coefficients b_j = (2m - j)! / (j! (m - j)!), j = 0..m, exact
# integers rounded once to floats.  expm evaluates every degree in one loop.
_PADE = tuple(
    (m, theta, tuple(float(math.perm(2 * m - j, m) // math.factorial(j))
                     for j in range(m + 1)))
    for m, theta in ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
                     (7, 9.504178996162932e-1), (9, 2.097847961257068e0),
                     (13, 5.371920351148152e0)))


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by Higham's scaling and squaring with a diagonal Pade approximant.

    The degree m in {3, 5, 7, 9, 13} is the lowest whose theta_m bounds the
    1-norm of a; above theta_13, a is scaled by 2^-s into the degree-13 range
    and the result squared s times.  One loop over the powers of a^2 forms
    every degree's even part V and odd part U, and r = (V - U)^-1 (V + U).
    Trusts its input to be a square complex matrix with finite entries (see
    as_matrix).  Past the float limit it returns a non-finite matrix, never
    raises.
    """
    a = np.asarray(a, dtype=complex)
    norm = float(np.abs(a).sum(axis=0).max())
    if not math.isfinite(norm):
        return np.full(a.shape, np.nan, dtype=complex)
    m, theta, b = next((row for row in _PADE if norm <= row[1]), _PADE[-1])
    eye = np.eye(a.shape[0], dtype=complex)
    a2 = a @ a
    s = math.ceil(math.log2(norm / theta)) if norm > theta else 0
    if s:
        scale = math.ldexp(1.0, -s)  # 2^-s: the bits of / 2^s, as 4^s can overflow
        a = a * scale
        a2 = a2 * scale * scale
    u, v = b[3] * a2 + b[1] * eye, b[2] * a2 + b[0] * eye
    power = a2
    for k in range(4, m, 2):
        power = power @ a2
        u += b[k + 1] * power
        v += b[k] * power
    u = a @ u
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def hermitian_part(m: np.ndarray) -> np.ndarray:
    m = as_matrix(m)
    return (m + m.conj().T) / 2.0


def _skew_hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m - m.conj().T) / 2.0


def skew_hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m - m*) / 2, the projector onto the skew-Hermitian real subspace."""
    return _skew_hermitian_part(as_matrix(m))


class ClassTag(enum.Enum):
    """Validation labels for operator classes; storage is always dense.

    At finite truncation every class coincides as a set of matrices, so the
    tags only express which structural predicate a value is required to
    satisfy (triangularity, symmetry), not a different representation.
    """

    LOWER_TRIANGULAR = "lower_triangular"
    STRICTLY_UPPER = "strictly_upper"
    HERMITIAN = "hermitian"
    SKEW_HERMITIAN = "skew_hermitian"


def validate(tag: ClassTag, m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff the tag's defining predicate holds on m within tol."""
    return _holds(tag, as_matrix(m), tol)


def _holds(tag: ClassTag, m: np.ndarray, tol: float) -> bool:
    if tag is ClassTag.LOWER_TRIANGULAR:
        return float(np.max(np.abs(np.triu(m, 1)), initial=0.0)) <= tol
    if tag is ClassTag.STRICTLY_UPPER:
        return float(np.max(np.abs(np.tril(m)), initial=0.0)) <= tol
    # a defect past the float limit is inf, which fails any tol
    with np.errstate(over="ignore"):
        if tag is ClassTag.HERMITIAN:
            return float(np.max(np.abs(m - m.conj().T))) <= tol
        if tag is ClassTag.SKEW_HERMITIAN:
            return float(np.max(np.abs(m + m.conj().T))) <= tol
    raise ValueError(f"unknown tag {tag!r}")


def _matrix_family(matrices) -> tuple:
    """The matrices, each coerced once: at least one, of one dimension."""
    ms = tuple(as_matrix(m) for m in matrices)
    if not ms:
        raise ValueError("a family needs at least one matrix")
    if any(m.shape != ms[0].shape for m in ms):
        raise ValueError("a family's matrices must share one dimension")
    return ms


def validate_decomposition(projectors) -> bool:
    """Check sum P_n = I, and P_n* = P_n and P_n^2 = P_n for each n, each
    to ``DEFAULT_TOL`` in the largest entry of its defect: k products for k
    projectors.  Raises ValueError for an empty or mixed-dimension family.

    Mutual orthogonality follows: in P_i = P_i (sum_j P_j) P_i, the terms
    j != i of sum_j P_i P_j P_i add up to zero, and each is the positive
    semidefinite (P_j P_i)* (P_j P_i), so each vanishes.  Near the tolerance
    this degrades linearly.  For Hermitian P_n, e = ||sum P - I||_2 and
    d = max_n ||P_n^2 - P_n||_2 <= 1/4, each P_n lies within
    d' = (1 - sqrt(1 - 4d)) / 2 <= 2d of a projector Q_n; as sum Q >= Q_i + Q_j
    and ||Q_i + Q_j||_2 = 1 + ||Q_i Q_j||_2, for i != j

        ||P_i P_j||_2 <= e + (k + 3) d'.

    The factor k is needed: the other k - 2 projectors can each move by d to
    hide an overlap of (k - 2) d between two, with e = 0.  A Hermitian
    family that ``_decomposition_holds`` accepts at tol (``DEFAULT_TOL``
    here, ``reduction.TOL`` for the reductions) has e, d <= N tol, so for
    N tol <= 1/4 its pairwise products are at most (2k + 7) N tol.
    """
    return _decomposition_holds(_matrix_family(projectors), DEFAULT_TOL)


def _decomposition_holds(ps: tuple, tol: float) -> bool:
    """The laws of ``validate_decomposition`` on a ``_matrix_family``, to tol."""
    if float(np.max(np.abs(sum(ps) - np.eye(len(ps[0]))))) > tol:
        return False
    return all(_holds(ClassTag.HERMITIAN, p, tol)
               and float(np.max(np.abs(p @ p - p))) <= tol for p in ps)


def standard_basis_decomposition(n: int) -> tuple:
    """The rank-one decomposition (E_00, ..., E_(n-1)(n-1))."""
    return tuple(elementary(n, k, k) for k in range(n))


def spectral_projectors(h: np.ndarray) -> tuple:
    """Decomposition of unity from the eigenspaces of a Hermitian matrix.

    Eigenvalues closer than 1e-8 are grouped into one block, so degenerate
    spectra produce higher-rank projectors.  Ordering follows the ascending
    eigenvalue order of ``numpy.linalg.eigh``.
    """
    h = as_matrix(h)
    if not _holds(ClassTag.HERMITIAN, h, 1e-10):
        raise ValueError("spectral_projectors needs a Hermitian matrix")
    w, v = np.linalg.eigh(h)
    blocks = []
    start = 0
    for k in range(1, len(w) + 1):
        if k == len(w) or w[k] - w[start] > 1e-8:
            vec = v[:, start:k]
            blocks.append(vec @ vec.conj().T)
            start = k
    return tuple(blocks)


def matrix_to_json(m: np.ndarray) -> dict:
    """Serialize to {"dim", "re", "im"} with row-major entry lists.

    Values are plain Python floats, so a json round-trip is bit-exact
    (json uses shortest-repr float formatting).
    """
    m = as_matrix(m)
    return {
        "dim": int(m.shape[0]),
        "re": [float(x) for x in m.real.ravel()],
        "im": [float(x) for x in m.imag.ravel()],
    }


def _json_size(payload: dict, key: str) -> int:
    """payload[key] as a size: a JSON integer, never a float, string or bool."""
    n = payload[key]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"{key} must be an integer, got {n!r}")
    return n


def matrix_from_json(payload: dict) -> np.ndarray:
    n = _json_size(payload, "dim")
    re = np.asarray(payload["re"], dtype=float)
    im = np.asarray(payload["im"], dtype=float)
    if re.size != n * n or im.size != n * n:
        raise ValueError(f"matrix payload needs {n * n} entries per part")
    return as_matrix(re.reshape(n, n) + 1j * im.reshape(n, n))

"""Density matrices: validation, the built-in state families, JSON files.

Bipartite states live on the tensor product A (x) B with the descending-m
basis on each factor; the flattened index is i_A * dim_B + i_B.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import InitVar, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import linalg
from .linalg import (
    DEFAULT_TOLERANCE,
    DimensionMismatchError,
    InvalidParameterError,
    NotHermitianError,
)
from .spin_ops import SpinQuantum, spin_components


class StateValidationError(linalg.LurcertError):
    code = "state"


class TraceNotOneError(StateValidationError):
    code = "trace-not-one"


class NotPositiveError(StateValidationError):
    code = "not-positive"


class StateFormatError(StateValidationError):
    """State file does not follow the JSON schema, or a state, bound or
    operator file is not UTF-8 JSON."""

    code = "parse"


_NORM_TOL = 1e-12


@dataclass(frozen=True, eq=False, repr=False)
class DensityMatrix:
    """Validated quantum state: Hermitian, unit trace, positive semidefinite.

    ``dims`` is ``(d,)`` for a single system or ``(d_a, d_b)`` for a
    bipartite one.  The stored matrix is kept exactly as supplied, so file
    round trips are bit-exact.  ``tolerance`` (None for
    ``DEFAULT_TOLERANCE``) bounds the deviations from Hermiticity and from
    unit trace, and minus it is the floor for the smallest eigenvalue.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]
    tolerance: InitVar[float | None] = None

    def __post_init__(self, tolerance):
        tol = DEFAULT_TOLERANCE if tolerance is None else tolerance
        # NaN fails every comparison, and an infinite tolerance would accept
        # any state with finite entries
        if not 0 < tol < math.inf:
            raise InvalidParameterError(
                f"validation tolerance must be a finite number above zero, got {tol!r}"
            )
        m = linalg.as_square_matrix(self.matrix)

        dims = self.dims
        if isinstance(dims, (int, np.integer)):
            dims = (int(dims),)
        dims = tuple(int(d) for d in dims)
        if len(dims) not in (1, 2) or any(d < 1 for d in dims):
            raise DimensionMismatchError(f"dims must be (d,) or (d_a, d_b) of positives, got {dims}")
        if math.prod(dims) != m.shape[0]:
            raise DimensionMismatchError(
                f"dims {dims} imply dimension {math.prod(dims)}, matrix has {m.shape[0]}"
            )

        # With no imaginary part, Hermitian means real symmetric: check it
        # in real arithmetic.  The deviation is the same number on either
        # path.
        checked = _real_if_real(m)
        dev = linalg.hermiticity_deviation(checked)
        if dev > tol:
            raise NotHermitianError(
                f"state deviates from Hermiticity by {dev:.3e} (tolerance {tol:.1e})"
            )
        tr = np.trace(m)
        if abs(tr - 1.0) > tol:
            raise TraceNotOneError(f"state trace is {tr:.17g}, expected 1")
        # Accept when rho + tol*1 has a Cholesky factor, at a fraction of
        # the cost of an eigensolve; both read the lower triangle.  When the
        # factorization fails the smallest eigenvalue decides against the
        # floor -tol, as it always has.  The copy is C-ordered so that its
        # flat view steps along the diagonal.
        shifted = np.array(checked, order="C")
        shifted.reshape(-1)[:: shifted.shape[0] + 1] += tol
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            least = np.linalg.eigvalsh(checked)[0]
            if least < -tol:
                raise NotPositiveError(
                    f"state is not positive semidefinite: min eigenvalue {least:.3e}"
                ) from None

        # C-ordered, whatever the input's layout, so that the codec can view
        # each row as its (re, im) doubles
        m = np.array(m, dtype=complex, order="C")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim_a(self) -> int:
        return self.dims[0]

    @property
    def dim_b(self) -> int | None:
        return self.dims[1] if len(self.dims) == 2 else None

    @property
    def is_bipartite(self) -> bool:
        return len(self.dims) == 2

    @cached_property
    def digest(self) -> str:
        """``state_digest(self)``, computed on first read and then kept."""
        return state_digest(self)

    def __repr__(self) -> str:
        return f"DensityMatrix(dims={self.dims})"


def _real_if_real(m: np.ndarray) -> np.ndarray:
    """The real part of the complex array ``m`` when it has no imaginary
    part, else ``m``."""
    return m if m.imag.any() else m.real


def validate(matrix, dims, tolerance: float | None = None) -> DensityMatrix:
    """Check Hermiticity, unit trace and positivity; return the validated state."""
    return DensityMatrix(matrix, dims, tolerance)


@dataclass(frozen=True, eq=False, repr=False)
class PureState:
    """Unit-norm state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size < 1:
            raise InvalidParameterError("state vector must have at least one amplitude")
        if not np.all(np.isfinite(amps)):
            raise InvalidParameterError("state vector amplitudes must be finite")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > _NORM_TOL:
            raise InvalidParameterError(f"state vector norm is {norm:.17g}, expected 1")
        amps = np.array(amps, dtype=complex)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def normalized(cls, vector) -> "PureState":
        v = np.asarray(vector, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise InvalidParameterError("cannot normalize the zero vector")
        return cls(v / norm)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def phase_normalized(self) -> "PureState":
        """Rotate the global phase so the first non-negligible amplitude is
        real and nonnegative (reproducible serialization)."""
        amps = self.amplitudes
        idx = np.flatnonzero(np.abs(amps) > _NORM_TOL)
        if idx.size == 0:
            return self
        lead = amps[idx[0]]
        return PureState(amps * (lead.conjugate() / abs(lead)))

    def projector(self, dims=None) -> DensityMatrix:
        dims = (self.dim,) if dims is None else dims
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), dims)

    def __repr__(self) -> str:
        return f"PureState(dim={self.dim})"


def _check_probabilities(weights, what: str = "probabilities") -> tuple[float, ...]:
    ws = tuple(float(w) for w in weights)
    # negated, so that NaN fails both tests
    for w in ws:
        if not w >= 0:
            raise InvalidParameterError(f"{what} must be nonnegative, got {w}")
    if not abs(sum(ws) - 1.0) <= 1e-12:
        raise InvalidParameterError(f"{what} must sum to 1, got {sum(ws):.17g}")
    return ws


def _check_fraction(p, name: str) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise InvalidParameterError(f"{name} must lie in [0, 1], got {p}")
    return p


def singlet_ket(spin: SpinQuantum) -> PureState:
    """Two-party spin-l singlet (1/sqrt(N)) sum_m (-1)^(l-m) |m> (x) |-m>.

    Annihilated by every joint component L_i(A) + L_i(B).
    """
    if spin.two_l < 1:
        raise InvalidParameterError("no two-party singlet exists for l = 0")
    n = spin.dim
    vec = np.zeros(n * n, dtype=complex)
    for i in range(n):  # i = l - m, so the sign alternates with the index
        vec[i * n + (n - 1 - i)] = (-1) ** i
    return PureState(vec / np.sqrt(n))


def singlet_state(spin: SpinQuantum) -> DensityMatrix:
    """Projector onto the two-party spin-l singlet."""
    n = spin.dim
    return singlet_ket(spin).projector(dims=(n, n))


_SQRT2 = np.sqrt(2.0)
_BELL_KETS = {
    "S": PureState(np.array([0, 1, -1, 0], dtype=complex) / _SQRT2),
    "T1": PureState(np.array([1, 0, 0, -1], dtype=complex) / _SQRT2),
    "T2": PureState(np.array([1, 0, 0, 1], dtype=complex) / _SQRT2),
    "T3": PureState(np.array([0, 1, 1, 0], dtype=complex) / _SQRT2),
}


def bell_kets() -> dict[str, PureState]:
    """The four Bell states of a 2x2 pair in the descending-m product basis.

    S is the singlet; each triplet Ti is annihilated by S_i(A) + S_i(B).
    The kets are built once, at import; each call returns a fresh dict.
    """
    return dict(_BELL_KETS)


def bell_states() -> dict[str, DensityMatrix]:
    """Projectors onto the four Bell states, keyed S, T1, T2, T3."""
    return {name: ket.projector(dims=(2, 2)) for name, ket in _BELL_KETS.items()}


def bell_mixture(p_s, p_1, p_2, p_3) -> DensityMatrix:
    """Mixture p_S |S><S| + p_1 |T1><T1| + p_2 |T2><T2| + p_3 |T3><T3|."""
    weights = _check_probabilities((p_s, p_1, p_2, p_3), what="Bell weights")
    matrix = np.zeros((4, 4), dtype=complex)
    for w, name in zip(weights, ("S", "T1", "T2", "T3")):
        amps = _BELL_KETS[name].amplitudes
        matrix += w * np.outer(amps, amps.conj())
    return DensityMatrix(matrix, (2, 2))


def white_noise_mixture(spin: SpinQuantum, p_w) -> DensityMatrix:
    """Singlet mixed with white noise: (1-p_W)|sing><sing| + p_W 1/N^2."""
    p_w = _check_fraction(p_w, "p_w")
    n = spin.dim
    sing = singlet_ket(spin).amplitudes
    matrix = (1 - p_w) * np.outer(sing, sing.conj()) + p_w * np.eye(n * n) / (n * n)
    return DensityMatrix(matrix, (n, n))


def x_basis_kets() -> list[np.ndarray]:
    """L_x eigenvectors for l = 1 ordered by eigenvalue -1, 0, +1, each with
    its first non-negligible component made real positive."""
    lx = spin_components(SpinQuantum(2)).operators[0]
    _, vecs = np.linalg.eigh(lx)
    kets = []
    for k in range(3):
        v = vecs[:, k]
        lead = v[np.flatnonzero(np.abs(v) > _NORM_TOL)[0]]
        kets.append(v * (lead.conjugate() / abs(lead)))
    return kets


def _anticorrelated_x_projectors() -> tuple[np.ndarray, ...]:
    minus, zero, plus = x_basis_kets()
    projectors = []
    for a, b in ((minus, plus), (zero, zero), (plus, minus)):
        prod = np.kron(a, b)
        projector = np.outer(prod, prod.conj())
        projector.setflags(write=False)
        projectors.append(projector)
    return tuple(projectors)


_X_PRODUCT_PROJECTORS = _anticorrelated_x_projectors()


def x_decoherence_mixture(p_d) -> DensityMatrix:
    """Spin-1 singlet decohered in the L_x basis.

    Mixes the singlet with the three anticorrelated L_x product states
    |m_x; -m_x>, so the joint uncertainty of L_x(A) + L_x(B) stays zero for
    every p_D.  Their projectors are built once, at import.
    """
    p_d = _check_fraction(p_d, "p_d")
    sing = singlet_ket(SpinQuantum(2)).amplitudes
    matrix = (1 - p_d) * np.outer(sing, sing.conj())
    for projector in _X_PRODUCT_PROJECTORS:
        matrix += (p_d / 3) * projector
    return DensityMatrix(matrix, (3, 3))


def family_components(kind: str, spin: SpinQuantum | None = None) -> tuple[DensityMatrix, ...]:
    """The fixed states that every member of family ``kind`` mixes, each
    validated at the default tolerance, as every built-in state is: the
    spin-``spin`` singlet and the maximally mixed N x N state (``white``),
    the spin-1 singlet and the three anticorrelated L_x product states
    (``xdecoherence``), and the Bell states S, T1, T2, T3 (``bell``).

    A member is sum_k w_k * components[k] with w = ``family_weights``.
    """
    if kind == "white":
        n = spin.dim
        return singlet_state(spin), maximally_mixed((n, n))
    if kind == "xdecoherence":
        return (
            singlet_state(SpinQuantum(2)),
            *(DensityMatrix(p, (3, 3)) for p in _X_PRODUCT_PROJECTORS),
        )
    if kind == "bell":
        return tuple(bell_states().values())
    raise InvalidParameterError(f"unknown family kind {kind!r}")


def family_weights(kind: str, params) -> tuple[float, ...]:
    """The weights of ``family_components(kind)`` in the member built from
    the constructor arguments ``params`` (``(spin, p_w)``, ``(p_d,)`` or
    ``(p_s, p_1, p_2, p_3)``), checked as the constructor checks them."""
    if kind == "white":
        p_w = _check_fraction(params[1], "p_w")
        return 1 - p_w, p_w
    if kind == "xdecoherence":
        p_d = _check_fraction(params[0], "p_d")
        return 1 - p_d, p_d / 3, p_d / 3, p_d / 3
    if kind == "bell":
        return _check_probabilities(params, what="Bell weights")
    raise InvalidParameterError(f"unknown family kind {kind!r}")


def min_uncertainty_state_n3(phi: float) -> PureState:
    """Three-level state attaining the two-component bound 7/16:
    (sqrt(5)/4) e^{-i phi} |-1> + (sqrt(6)/4) |0> + (sqrt(5)/4) e^{+i phi} |+1>.

    In the descending-m basis |+1>, |0>, |-1> map to indices 0, 1, 2.
    """
    a = np.sqrt(5.0) / 4
    b = np.sqrt(6.0) / 4
    return PureState(
        np.array([a * np.exp(1j * phi), b, a * np.exp(-1j * phi)], dtype=complex)
    )


def maximally_mixed(dims) -> DensityMatrix:
    dims = (dims,) if isinstance(dims, (int, np.integer)) else tuple(dims)
    total = int(np.prod(dims))
    # the numbers of eye / total, without a complex division or a second
    # D x D array
    return DensityMatrix(np.diag(np.full(total, 1 / total, dtype=complex)), dims)


# --- JSON state files ----------------------------------------------------
#
# Schema: {"dims": [dA] or [dA, dB], "matrix": [[[re, im], ...], ...]}
# Full matrices, reals with 17 significant digits (exact double round trip).
# A negative zero is written as 0, which JSON reads back as +0.0, so the
# text and the digest of a state survive a write/read round trip.


def state_to_json(state: DensityMatrix) -> str:
    # (re, im) doubles of each row, negative zeros turned to 0 by the + 0.0;
    # one % pass formats a row, so the text is built a row at a time
    doubles = state.matrix.view(float) + 0.0
    template = "[" + ",".join(["[%.17g,%.17g]"] * len(doubles)) + "]"
    rows = ",".join([template % tuple(row.tolist()) for row in doubles])
    dims = ",".join(str(d) for d in state.dims)
    return f'{{"dims":[{dims}],"matrix":[{rows}]}}'


def read_utf8(path, prefix: str = "") -> str:
    """The text of a JSON input file; bytes that are not UTF-8 raise
    StateFormatError with ``prefix`` before the decoder's message."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise StateFormatError(f"{prefix}{exc}") from exc


def parse_json(text: str, prefix: str = ""):
    """The document of a JSON input file.  Malformed text, nesting too deep
    for the parser and integer literals too long to convert all raise
    StateFormatError with ``prefix`` before the parser's message."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise StateFormatError(f"{prefix}{exc}") from exc


def state_from_json(text: str, tolerance: float | None = None) -> DensityMatrix:
    doc = parse_json(text, "state file is not valid JSON: ")
    if not isinstance(doc, dict) or set(doc) != {"dims", "matrix"}:
        raise StateFormatError('state file must be an object with keys "dims" and "matrix"')
    dims = doc["dims"]
    if (
        not isinstance(dims, list)
        or len(dims) not in (1, 2)
        or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims)
    ):
        raise StateFormatError('"dims" must be a list of one or two positive integers')
    matrix = matrix_from_rows(doc["matrix"], math.prod(dims), '"matrix"', StateFormatError)
    return DensityMatrix(matrix, tuple(dims), tolerance)


def matrix_from_rows(rows, size: int, what: str, error: type[Exception]) -> np.ndarray:
    """The size x size complex matrix of JSON ``rows`` of [re, im] pairs.

    The one matrix codec of the state, bound and operator files; any
    departure from the schema raises ``error`` naming ``what``.  Every row
    is checked before the matrix is allocated, so memory follows the cells
    actually present, whatever ``size`` claims.  A matrix of JSON numbers
    is converted by one typed conversion; only input that is refused is
    scanned cell by cell, to name its first bad entry in row-major order.
    """
    if not isinstance(rows, list) or len(rows) != size:
        raise error(f"{what} must be a list of {size} rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != size:
            raise error(f"{what} row {i} must have {size} entries")
    leaves = [
        x for row in rows for cell in row if type(cell) is list and len(cell) == 2 for x in cell
    ]
    if len(leaves) == 2 * size * size and set(map(type, leaves)) <= {int, float}:
        try:
            # a view, not re + 1j * im, which would turn -0.0 into 0.0 and
            # inf into nan
            return np.array(leaves, dtype=float).view(complex).reshape(size, size)
        except OverflowError:  # an integer beyond the float range
            pass
    matrix = np.zeros((size, size), dtype=complex)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in cell)
            ):
                raise error(f"{what} entry ({i},{j}) must be a [re, im] pair")
            try:
                matrix[i, j] = complex(cell[0], cell[1])
            except OverflowError as exc:
                raise error(f"{what} entry ({i},{j}) is out of floating-point range") from exc
    return matrix


def write_state(state: DensityMatrix, path) -> None:
    Path(path).write_text(state_to_json(state) + "\n", encoding="utf-8")


def read_state(path, tolerance: float | None = None) -> DensityMatrix:
    return state_from_json(read_utf8(path, "state file is not UTF-8 text: "), tolerance)


def state_digest(state: DensityMatrix) -> str:
    """SHA-256 of the canonical JSON serialization."""
    return hashlib.sha256(state_to_json(state).encode("utf-8")).hexdigest()

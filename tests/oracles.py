"""Independent oracles and random states that the tests compare lurcert
against."""

import numpy as np

from lurcert.linalg import DimensionMismatchError, InvalidParameterError
from lurcert.spin_ops import OperatorSet, stokes_components
from lurcert.states import DensityMatrix, PureState
from lurcert.uncertainty import variance


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Concurrence of a 2x2 pair via the spin-flip construction.

    C = max(0, l1 - l2 - l3 - l4) with l_k the descending square roots of
    the eigenvalues of rho (sy x sy) rho* (sy x sy), conjugation taken in
    the computational product basis.
    """
    if rho.dims != (2, 2):
        raise DimensionMismatchError(f"concurrence needs a 2x2 pair, got dims {rho.dims}")
    sy = stokes_components(1).operators[1]
    flip = np.kron(sy, sy)
    # The square roots of eig(rho flip rho* flip) are the singular values of
    # sqrt(rho) flip sqrt(rho)*, which avoids taking sqrt of noisy near-zero
    # eigenvalues.
    w, v = np.linalg.eigh(rho.matrix)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    lam = np.linalg.svd(root @ flip @ root.conj(), compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def stokes_visibilities(rho: DensityMatrix) -> tuple[float, float, float]:
    """Exact visibilities V_i = -<S_i(A) S_i(B)> of a 2x2 pair, the
    normalized contrast between anti-correlated and correlated settings."""
    if rho.dims != (2, 2):
        raise DimensionMismatchError(f"visibilities need a 2x2 pair, got dims {rho.dims}")
    return tuple(-float(np.trace(rho.matrix @ np.kron(s, s)).real) for s in stokes_components(1))


def random_pure_state(dim: int, rng: np.random.Generator) -> PureState:
    """Haar-uniform pure state from a normalized complex Gaussian vector."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState.normalized(v)


def random_mixed_state(dim: int, rng: np.random.Generator, dims=None) -> DensityMatrix:
    """Full-rank random state G G^dag / Tr(G G^dag) with Gaussian G."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityMatrix(m, (dim,) if dims is None else dims)


def random_product_state(
    dim_a: int, dim_b: int, rng: np.random.Generator, pure: bool = False
) -> DensityMatrix:
    """Random product state rho_A (x) rho_B (separable by construction)."""
    if pure:
        rho_a = random_pure_state(dim_a, rng).projector().matrix
        rho_b = random_pure_state(dim_b, rng).projector().matrix
    else:
        rho_a = random_mixed_state(dim_a, rng).matrix
        rho_b = random_mixed_state(dim_b, rng).matrix
    return DensityMatrix(np.kron(rho_a, rho_b), (dim_a, dim_b))


def sum_uncertainty(rho: DensityMatrix, operator_set: OperatorSet) -> float:
    """Sum of the variances of the set members."""
    return sum(variance(rho, a) for a in operator_set)


def _grid_minimum(ops, squares, states: np.ndarray) -> float:
    total = np.zeros(states.shape[0])
    for a, a2 in zip(ops, squares):
        means = np.einsum("ki,ki->k", states.conj(), states @ a.T).real
        seconds = np.einsum("ki,ki->k", states.conj(), states @ a2.T).real
        total += seconds - means * means
    return float(total.min())


def brute_force_minimum(
    operator_set: OperatorSet, grid_resolution: float, full_phases: bool = False
) -> float:
    """Exhaustive minimum of the uncertainty sum over a dense grid of
    normalized state vectors; the independent oracle for small dimensions.

    Dimension 2 scans the full (theta, phi) sphere.  Dimension 3 scans the
    real-amplitude family (phases restricted to 0 or pi) by default, which
    contains minimizers for every catalog set; ``full_phases=True`` scans
    both phases too at the same resolution (use coarse grids).  The grid
    minimum overshoots the true minimum by O(resolution^2).
    """
    if not grid_resolution > 0:
        raise InvalidParameterError("grid resolution must be positive")
    dim = operator_set.dim
    if dim > 3:
        raise DimensionMismatchError("brute force is limited to dimension <= 3")
    ops = list(operator_set)
    squares = [a @ a for a in ops]

    if dim == 1:
        return _grid_minimum(ops, squares, np.ones((1, 1), dtype=complex))

    half_turn = np.arange(0.0, np.pi / 2 + grid_resolution / 2, grid_resolution)
    full_turn = np.arange(0.0, 2 * np.pi, grid_resolution)

    if dim == 2:
        theta, phi = np.meshgrid(half_turn, full_turn, indexing="ij")
        states = np.stack(
            [np.cos(theta), np.sin(theta) * np.exp(1j * phi)], axis=-1
        ).reshape(-1, 2)
        return _grid_minimum(ops, squares, states)

    if full_phases:
        best = np.inf
        for t1 in half_turn:
            t2, p1, p2 = np.meshgrid(half_turn, full_turn, full_turn, indexing="ij")
            states = np.stack(
                [
                    np.full(t2.shape, np.cos(t1), dtype=complex),
                    np.sin(t1) * np.cos(t2) * np.exp(1j * p1),
                    np.sin(t1) * np.sin(t2) * np.exp(1j * p2),
                ],
                axis=-1,
            ).reshape(-1, 3)
            best = min(best, _grid_minimum(ops, squares, states))
        return best

    t1, t2 = np.meshgrid(half_turn, half_turn, indexing="ij")
    blocks = []
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            blocks.append(
                np.stack(
                    [np.cos(t1), s1 * np.sin(t1) * np.cos(t2), s2 * np.sin(t1) * np.sin(t2)],
                    axis=-1,
                ).reshape(-1, 3)
            )
    return _grid_minimum(ops, squares, np.concatenate(blocks).astype(complex))

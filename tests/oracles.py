"""Independent oracles and random states that the tests compare lurcert
against."""

import numpy as np

from lurcert.linalg import DimensionMismatchError
from lurcert.spin_ops import stokes_components
from lurcert.states import DensityMatrix, PureState


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

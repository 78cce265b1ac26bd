"""Local uncertainty relations for bipartite systems.

Joint operators A_i (x) 1 + 1 (x) B_i obey the local limit U_A + U_B on
every separable state; any state whose joint uncertainty sum falls below
that limit is certified entangled.  The relative violation
C = 1 - total / (U_A + U_B) is 1 at the singlet and <= 0 when nothing is
violated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import __version__
from .linalg import DimensionMismatchError, InvalidParameterError
from .spin_ops import OperatorSet, SpinQuantum
from .states import DensityMatrix, PureState, family_weights
from .uncertainty import UncertaintyRelation, catalog_bound, clip_variance, real_part

# A state must undercut the local limit by this much before it is flagged;
# false positives are the fatal error mode for a witness.
VERDICT_MARGIN = 1e-9


@dataclass(frozen=True, eq=False)
class JointOperatorSet:
    """Joint properties A_i + B_i with the local limit U_A + U_B."""

    set_a: OperatorSet
    set_b: OperatorSet
    local_limit: float
    bound_provenance: tuple[str, str]
    label: str

    @property
    def dim_a(self) -> int:
        return self.set_a.dim

    @property
    def dim_b(self) -> int:
        return self.set_b.dim

    @cached_property
    def trace_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """vec(O^T) rows of the A_i, the B_i, the A_i^2 and the B_i^2, built
        on first use and kept: row . vec(rho_A) = Tr(rho_A O)."""
        ops_a = np.array(self.set_a.operators)
        ops_b = np.array(self.set_b.operators)
        rows = tuple(
            _transposed_rows(ops) for ops in (ops_a, ops_b, ops_a @ ops_a, ops_b @ ops_b)
        )
        for row in rows:
            row.setflags(write=False)
        return rows

    @cached_property
    def guard_scales(self) -> tuple[float, ...]:
        """max(1, (||A_i|| + ||B_i||)^2) per component, with Frobenius norms:
        a bound on the size of <J_i^2>, by which the imaginary-part guard
        and the variance floor of the moments scale."""
        norm_a, norm_b = (
            np.linalg.norm(np.array(s.operators), axis=(1, 2)) for s in (self.set_a, self.set_b)
        )
        return tuple(np.maximum(1.0, (norm_a + norm_b) ** 2).tolist())


def build_joint(
    set_a: OperatorSet,
    u_a: float,
    set_b: OperatorSet,
    u_b: float,
    provenance: tuple[str, str] = ("unspecified", "unspecified"),
    label: str | None = None,
) -> JointOperatorSet:
    """Combine two local operator sets into the joint set A_i + B_i.

    The sets may act on systems of different dimension, but must have equal
    cardinality.  The local limit is the sum of the two certified bounds
    and must be positive for the relative violation to be meaningful.
    """
    if len(set_a) != len(set_b):
        raise DimensionMismatchError(
            f"operator sets have different cardinality: {len(set_a)} vs {len(set_b)}"
        )
    if u_a < 0 or u_b < 0:
        raise InvalidParameterError("local bounds must be nonnegative")
    local_limit = float(u_a) + float(u_b)
    if not local_limit > 0:
        raise InvalidParameterError("local limit must be positive to define a violation")
    return JointOperatorSet(
        set_a=set_a,
        set_b=set_b,
        local_limit=local_limit,
        bound_provenance=tuple(provenance),
        label=label or f"{set_a.label}+{set_b.label}",
    )


def joint_from_relations(
    rel_a: UncertaintyRelation, rel_b: UncertaintyRelation, label: str | None = None
) -> JointOperatorSet:
    return build_joint(
        rel_a.operator_set,
        rel_a.bound,
        rel_b.operator_set,
        rel_b.bound,
        provenance=(rel_a.provenance, rel_b.provenance),
        label=label,
    )


# CLI relation names -> catalog kind plus size derived from the side dimension.
_RELATION_TABLE = {
    "l3": ("spin3", None),
    "s3": ("stokes3", None),
    "l2n2": ("spin2_N2", 2),
    "s2n2": ("stokes2_N2", 2),
    "l2n3": ("spin2_N3", 3),
    "s2n3": ("stokes2_N3", 3),
}
RELATION_KINDS = tuple(_RELATION_TABLE)


# A fixed size, so a caller that sweeps dims holds a bounded number of
# operator sets and trace rows.
@lru_cache(maxsize=32, typed=True)
def joint_from_catalog(relation: str, dim_a: int, dim_b: int) -> JointOperatorSet:
    """Symmetric catalog relation applied to both sides of a dim_a x dim_b pair.

    The joint set is built once per (relation, dim_a, dim_b) and shared by
    later calls; it is frozen, with read-only operators and trace rows.
    Invalid arguments raise on every call.
    """
    if relation not in _RELATION_TABLE:
        raise InvalidParameterError(
            f"unknown relation kind {relation!r}; valid: {RELATION_KINDS}"
        )
    kind, required_dim = _RELATION_TABLE[relation]
    sides = []
    for dim in (dim_a, dim_b):
        if dim < 2:
            raise InvalidParameterError(f"relation {relation!r} needs dimension >= 2, got {dim}")
        if required_dim is not None and dim != required_dim:
            raise InvalidParameterError(
                f"relation {relation!r} applies to {required_dim}-level systems, got dimension {dim}"
            )
        size = SpinQuantum(dim - 1) if kind.startswith("spin") else dim - 1
        sides.append(catalog_bound(kind, size))
    return joint_from_relations(*sides, label=relation)


@dataclass(frozen=True, eq=False)
class LurCertificate:
    """Measured joint uncertainties against the local limit.

    ``entangled`` is True only when the total undercuts the local limit by
    more than the verdict margin; False does NOT imply separability.
    ``state_digest`` is hashed from ``state`` when it is first read.
    """

    per_component: tuple[float, ...]
    total: float
    local_limit: float
    relative_violation: float
    entangled: bool
    bound_provenance: tuple[str, str]
    relation_label: str
    state: DensityMatrix = field(repr=False)

    @property
    def state_digest(self) -> str:
        return self.state.digest

    def to_json_dict(self) -> dict:
        return {
            "per_component": list(self.per_component),
            "total": self.total,
            "local_limit": self.local_limit,
            "relative_violation": self.relative_violation,
            "verdict": self.entangled,
            "bound_provenance": list(self.bound_provenance),
            "state_digest": self.state_digest,
            "relation": self.relation_label,
            "lurcert_version": __version__,
        }


def joint_moments(
    rho: DensityMatrix, joint: JointOperatorSet
) -> tuple[np.ndarray, np.ndarray]:
    """The real arrays of <J_i> and of <J_i^2> on a bipartite state.

    Both are linear in ``rho``, so the moments of a mixture are the same
    mixture of its components' moments.
    """
    if not isinstance(rho, DensityMatrix):
        raise InvalidParameterError(f"certification needs a DensityMatrix, got {type(rho).__name__}")
    dims = rho.dims
    if len(dims) != 2:
        raise DimensionMismatchError("certification needs a bipartite state with dims (d_a, d_b)")
    if dims != (joint.dim_a, joint.dim_b):
        raise DimensionMismatchError(
            f"state dims {dims} do not match joint operator dims ({joint.dim_a}, {joint.dim_b})"
        )
    # Tr(rho J) and Tr(rho J^2) for J = A (x) 1 + 1 (x) B from the local
    # operators alone, O(D^2) per component.  With the state as
    # r[a, b, a', b'] and vec(O^T) . vec(X) = Tr(X O): <A (x) 1> =
    # Tr(rho_A A), <1 (x) B> = Tr(rho_B B), and <A (x) B> =
    # vec(A^T) . pairs . vec(B^T) with pairs[(a, a'), (b, b')] = r[a, b, a', b'].
    # Each moment keeps its own products: numpy sends a one-row product to
    # a dot kernel, which sums in another order than a stacked GEMV does.
    da, db = dims
    r = rho.matrix.reshape(da, db, da, db)
    rho_a = r.trace(axis1=1, axis2=3).reshape(-1)
    rho_b = r.trace(axis1=0, axis2=2).reshape(-1)
    pairs = r.transpose(0, 2, 1, 3).reshape(da * da, db * db)
    vec_a, vec_b, sq_a, sq_b = joint.trace_rows
    cross = ((vec_a @ pairs) * vec_b).sum(axis=1)
    scales = joint.guard_scales
    mean = real_part(vec_a @ rho_a + vec_b @ rho_b, scales)
    second = real_part(sq_a @ rho_a + sq_b @ rho_b + 2 * cross, scales)
    return mean, second


def _ket_moments(ket: PureState, joint: JointOperatorSet) -> tuple[np.ndarray, np.ndarray]:
    """``joint_moments`` of the pure state ``ket`` from its d_A x d_B
    amplitude matrix Psi, at O(K N^3) and with no D x D array: J_i psi is
    S_i = A_i Psi + Psi B_i^T, so <J_i^2> = ||S_i||^2, real and
    nonnegative by construction, and <J_i> = Re sum conj(Psi) * S_i,
    through the scaled imaginary-part guard."""
    da, db = joint.dim_a, joint.dim_b
    psi = ket.amplitudes.reshape(da, db)
    vec_a, vec_b = joint.trace_rows[:2]
    # the rows reshape to the A_i^T and the B_i^T
    moved = vec_a.reshape(-1, da, da).transpose(0, 2, 1) @ psi + psi @ vec_b.reshape(-1, db, db)
    flat = moved.reshape(len(moved), -1)
    mean = real_part(flat @ psi.conj().reshape(-1), joint.guard_scales)
    parts = flat.view(float)
    return mean, np.einsum("ij,ij->i", parts, parts)


def _mixed_moments(joint: JointOperatorSet) -> tuple[np.ndarray, np.ndarray]:
    """``joint_moments`` of the maximally mixed state 1/D in closed form:
    <J_i> = Tr A_i/d_A + Tr B_i/d_B and
    <J_i^2> = Tr A_i^2/d_A + Tr B_i^2/d_B + 2 Tr A_i Tr B_i/D."""
    da, db = joint.dim_a, joint.dim_b
    # the diagonal of O sits at every (d+1)-th entry of its row vec(O^T),
    # and the diagonal of a Hermitian O is real
    tr_a, tr_b, tr_sq_a, tr_sq_b = (
        rows[:, :: d + 1].real.sum(axis=1) for rows, d in zip(joint.trace_rows, (da, db, da, db))
    )
    return tr_a / da + tr_b / db, tr_sq_a / da + tr_sq_b / db + 2 * tr_a * tr_b / (da * db)


class Score(NamedTuple):
    """The certificate arithmetic on the moments of one state."""

    per_component: tuple[float, ...]
    total: float
    relative_violation: float
    entangled: bool


def score(moments, joint: JointOperatorSet) -> Score:
    """Clipped variances <J_i^2> - <J_i>^2, their total, C and the verdict,
    from the pair of arrays (<J_i>, <J_i^2>) that ``joint_moments`` returns.

    The arithmetic runs on Python floats, which round each product and
    difference as numpy's elementwise operations do."""
    means, seconds = moments[0].tolist(), moments[1].tolist()
    # only a negative variance needs the clip and its scale
    per_component = tuple(
        v if (v := b - a * a) >= 0 else clip_variance(v, s)
        for a, b, s in zip(means, seconds, joint.guard_scales)
    )
    total = sum(per_component)
    limit = joint.local_limit
    return Score(per_component, total, 1.0 - total / limit, total < limit - VERDICT_MARGIN)


def certify(rho: DensityMatrix, joint: JointOperatorSet) -> LurCertificate:
    """Evaluate the local uncertainty relation on a bipartite state."""
    per_component, total, relative_violation, entangled = score(joint_moments(rho, joint), joint)
    return LurCertificate(
        per_component=per_component,
        total=total,
        local_limit=joint.local_limit,
        relative_violation=relative_violation,
        entangled=entangled,
        bound_provenance=joint.bound_provenance,
        relation_label=joint.label,
        state=rho,
    )


def _transposed_rows(ops: np.ndarray) -> np.ndarray:
    """Row i is vec(O_i^T), so that row . vec(X) = Tr(X O_i)."""
    return ops.transpose(0, 2, 1).reshape(len(ops), -1)


def closed_form_violation(kind: str, relation: str, params: tuple) -> float | None:
    """The paper's closed-form relative violation C of a family member, or
    None for a (kind, relation) pair without one.

    ``params`` are the family constructor's arguments: ``(spin, p_w)`` for
    ``white``, ``(p_d,)`` for ``xdecoherence`` and ``(p_s, p_1, p_2, p_3)``
    for ``bell``.
    """
    # the family's own checks of its parameters and of the kind
    weights = family_weights(kind, params)
    three = relation in ("l3", "s3")
    if kind == "white":
        spin, p_w = params[0], weights[1]
        if three:
            return 1.0 - p_w * (spin.dim + 1) / 2.0
        if relation in ("l2n3", "s2n3") and spin.dim == 3:
            return 1.0 - 64.0 * p_w / 21.0
    elif kind == "xdecoherence":
        # checked above; the weights hold it only divided by 3
        p_d = float(params[0])
        if three:
            return 1.0 - 4.0 * p_d / 3.0
        if relation in ("l2n3", "s2n3"):
            return 1.0 - 32.0 * p_d / 21.0
    else:
        p_s, _, _, p_3 = weights
        if three:
            return 2 * p_s - 1
        if relation in ("l2n2", "s2n2"):
            return 2 * p_s - 1 - 2 * p_3
    return None

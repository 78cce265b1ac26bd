"""Reference physics and file codecs for the benchmark's output checks.

Everything here is written from the paper's formulas and the documented
file formats and imports nothing from lurcert, so a defect in the code
under test cannot hide itself by also corrupting the reference.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np


def spin_matrices(two_l: int) -> list[np.ndarray]:
    """L_x, L_y, L_z for spin l = two_l / 2 in the descending-m basis."""
    n = two_l + 1
    l = two_l / 2
    m = (two_l - 2 * np.arange(n)) / 2
    raising = np.zeros((n, n), dtype=complex)
    for col in range(1, n):
        raising[col - 1, col] = np.sqrt(l * (l + 1) - m[col] * (m[col] + 1))
    lowering = raising.conj().T
    return [(raising + lowering) / 2, (raising - lowering) / 2j, np.diag(m).astype(complex)]


def relation_side(relation: str, dim: int) -> tuple[list[np.ndarray], Fraction]:
    """Operators and certified bound of one side of a catalog relation."""
    spin = spin_matrices(dim - 1)
    if relation == "l3":
        return spin, Fraction(dim - 1, 2)
    if relation == "s3":
        return [2 * op for op in spin], Fraction(2 * (dim - 1))
    two_component = {
        ("l2n2", 2): (1, Fraction(1, 4)),
        ("s2n2", 2): (2, Fraction(1)),
        ("l2n3", 3): (1, Fraction(7, 16)),
        ("s2n3", 3): (2, Fraction(7, 4)),
    }
    scale, bound = two_component[(relation, dim)]
    return [scale * op for op in spin[:2]], bound


def joint_operators(ops_a, ops_b) -> list[np.ndarray]:
    eye_a = np.eye(ops_a[0].shape[0])
    eye_b = np.eye(ops_b[0].shape[0])
    return [np.kron(a, eye_b) + np.kron(eye_a, b) for a, b in zip(ops_a, ops_b)]


def catalog_joint(relation: str, dim_a: int, dim_b: int) -> tuple[list[np.ndarray], float]:
    """Joint operators A_i + B_i and the local limit U_A + U_B."""
    ops_a, u_a = relation_side(relation, dim_a)
    ops_b, u_b = relation_side(relation, dim_b)
    return joint_operators(ops_a, ops_b), float(u_a + u_b)


def variances(rho: np.ndarray, ops) -> list[float]:
    """Tr(rho J^2) - Tr(rho J)^2 for each operator."""
    out = []
    for op in ops:
        mean = np.trace(rho @ op).real
        out.append(float(np.trace(rho @ op @ op).real - mean * mean))
    return out


# --- states ---------------------------------------------------------------


def projector(ket: np.ndarray) -> np.ndarray:
    return np.outer(ket, ket.conj())


def singlet_ket(n: int) -> np.ndarray:
    """(1/sqrt(N)) sum_m (-1)^(l-m) |m> (x) |-m>."""
    vec = np.zeros(n * n, dtype=complex)
    for i in range(n):
        vec[i * n + (n - 1 - i)] = (-1) ** i
    return vec / np.sqrt(n)


_S2 = np.sqrt(2.0)
BELL_KETS = {
    "S": np.array([0, 1, -1, 0], dtype=complex) / _S2,
    "T1": np.array([1, 0, 0, -1], dtype=complex) / _S2,
    "T2": np.array([1, 0, 0, 1], dtype=complex) / _S2,
    "T3": np.array([0, 1, 1, 0], dtype=complex) / _S2,
}


def bell_mixture(p_s, p_1, p_2, p_3) -> np.ndarray:
    return sum(w * projector(BELL_KETS[k]) for w, k in zip((p_s, p_1, p_2, p_3), BELL_KETS))


def white_noise(n: int, p_w: float) -> np.ndarray:
    return (1 - p_w) * projector(singlet_ket(n)) + p_w * np.eye(n * n) / (n * n)


def x_decoherence(p_d: float) -> np.ndarray:
    """Spin-1 singlet mixed with the anticorrelated L_x products."""
    _, vecs = np.linalg.eigh(spin_matrices(2)[0])
    minus, zero, plus = vecs.T
    rho = (1 - p_d) * projector(singlet_ket(3))
    for a, b in ((minus, plus), (zero, zero), (plus, minus)):
        rho = rho + (p_d / 3) * projector(np.kron(a, b))
    return rho


def min_uncertainty_n3(phi: float) -> np.ndarray:
    a, b = np.sqrt(5.0) / 4, np.sqrt(6.0) / 4
    return projector(np.array([a * np.exp(1j * phi), b, a * np.exp(-1j * phi)]))


def random_mixed(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_pure(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return projector(v / np.linalg.norm(v))


def random_product(dim_a: int, dim_b: int, rng: np.random.Generator, pure: bool) -> np.ndarray:
    make = random_pure if pure else random_mixed
    return np.kron(make(dim_a, rng), make(dim_b, rng))


def closed_form_violation(kind: str, relation: str, params: tuple) -> float | None:
    """The paper's closed-form relative violation C, where one exists."""
    three = relation in ("l3", "s3")
    if kind == "white":
        n, p_w = params
        if three:
            return 1.0 - p_w * (n + 1) / 2.0
        if n == 3:
            return 1.0 - 64.0 * p_w / 21.0
    elif kind == "xdecoherence":
        (p_d,) = params
        return 1.0 - (4.0 / 3.0 if three else 32.0 / 21.0) * p_d
    elif kind == "bell":
        p_s, _, _, p_3 = params
        return 2.0 * p_s - 1.0 if three else 2.0 * p_s - 1.0 - 2.0 * p_3
    return None


# --- files ------------------------------------------------------------------


def _rows(matrix: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def write_state_file(path, matrix: np.ndarray, dims) -> None:
    """State file as documented: {"dims": [...], "matrix": [[[re, im], ...]]}.
    json writes the shortest repr of each float, which reads back exactly."""
    doc = {"dims": list(dims), "matrix": _rows(matrix)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")


def read_state_file(path) -> tuple[list[int], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    matrix = np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])
    return doc["dims"], matrix


def write_bound_file(path, label: str, ops, bound: Fraction) -> None:
    """Symmetric bound file: label, dim, bound, provenance, operators."""
    doc = {
        "label": label,
        "dim": int(ops[0].shape[0]),
        "bound": float(bound),
        "provenance": "analytic",
        "operators": [_rows(op) for op in ops],
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")

"""A tour of compound-matrix algebra: minors, compounds, wedges, k-content.

Run with:  python demos/compound_algebra_tour.py
"""

import numpy as np

from kcontract import (
    add_compound,
    k_content,
    minor,
    mult_compound,
    schwarz_n_minus_1,
    wedge,
)

np.set_printoptions(precision=4, suppress=True)

print("=" * 70)
print("Minors and the multiplicative compound")
print("=" * 70)

A = np.array([[4.0, 5.0], [-1.0, 4.0], [0.0, 3.0]])
print("A =\n", A)
print("minor rows {1,3}, cols {1,2}:", minor(A, (1, 3), (1, 2)))
print("2nd multiplicative compound (all 2x2 minors, lexicographic):")
print(mult_compound(A, 2))

print()
print("The compound is multiplicative: (AB)^(k) = A^(k) B^(k)")
rng = np.random.default_rng(1)
P = rng.standard_normal((4, 3))
Q = rng.standard_normal((3, 3))
lhs = mult_compound(P @ Q, 2)
rhs = mult_compound(P, 2) @ mult_compound(Q, 2)
print("max |(PQ)^(2) - P^(2) Q^(2)| =", np.max(np.abs(lhs - rhs)))

print()
print("=" * 70)
print("The additive compound: entrywise sums and signed copies")
print("=" * 70)

B = rng.standard_normal((3, 3))
print("B =\n", B)
print("B^[2] =\n", add_compound(B, 2))
print("B^[1] is B itself; B^[3] is the 1x1 trace:", add_compound(B, 3)[0, 0],
      "vs trace", np.trace(B))

C = rng.standard_normal((5, 5))
print("closed-form (n-1) compound matches the entrywise rule:",
      np.max(np.abs(schwarz_n_minus_1(C) - add_compound(C, 4))))

print()
print("=" * 70)
print("Wedge products measure parallelotope volume")
print("=" * 70)

u = np.array([1.0, 0.0, 0.0])
v = np.array([1.0, 1.0, 0.0])
print("u ^ v =", wedge([u, v]), " (area of the parallelogram = L2 norm:",
      np.linalg.norm(wedge([u, v])), ")")
print("swap arguments, flip sign:", wedge([v, u]))
print("dependent vectors vanish:", wedge([u, 2 * u]))

print()
print("k-content of a parameterized surface (unit sphere, expect 4*pi):")

def sphere(r):  # r holds one (theta, phi) point per row
    return np.column_stack([
        np.cos(r[:, 0]) * np.sin(r[:, 1]),
        np.sin(r[:, 0]) * np.sin(r[:, 1]),
        np.cos(r[:, 1]),
    ])

area = k_content(sphere, [0.0, 0.0], [2 * np.pi, np.pi], [60, 60])
print(f"  computed {area:.6f}, exact {4 * np.pi:.6f}")

"""Output operators, scalar kernels and the block Gram matrix.

An operator-valued kernel term couples a scalar kernel on input curves
with a self-adjoint PSD operator on output curves. The block Gram matrix
of a weighted stack is kept factored; nothing of size (n*m)^2 is formed
unless explicitly requested.
"""

import numpy as np

import movkl as mk

rng = np.random.default_rng(1)
gout = mk.Grid.uniform(0.0, 1.0, 101)

# the three output operators
ident = mk.IdentityOperator(gout)
mult = mk.MultiplicationOperator(gout)          # pointwise exp(-t^2)
integ = mk.IntegralOperator(gout)               # kernel exp(-|t-s|)
trunc = mk.IntegralOperator(gout, rank=10)      # leading 10 eigenfunctions

one = mk.Curve(gout, np.ones(gout.size))
print("integral operator on the constant 1, value at t=0:",
      integ.apply(one).values[0], "vs analytic", 1 - np.exp(-1.0))

# each operator gives its retained eigenvalues and two maps into and out of
# the coordinates of its quadrature-orthonormal eigenvectors V:
# coords(A) = A W V and expand(C) = C V^T
vals = trunc.eigvals()
print("leading integral eigenvalues:", np.round(vals[:5], 4))
print("eigenbasis orthonormal under quadrature, coords(expand(I)) = I:",
      np.allclose(trunc.coords(trunc.expand(np.eye(10))), np.eye(10),
                  atol=1e-10))

# T = V diag(s) V^T W: the operator acts as a scaling in its coordinates;
# for the identity and multiplication operators V = W^-1/2 in grid order,
# so both maps rescale elementwise and no m x m matrix is built
b = rng.normal(size=(1, gout.size))
for op in (mult, trunc):
    via_coords = op.expand(op.coords(b) * op.eigvals())
    print(f"{op!r} applied through its coordinates:",
          np.allclose(via_coords, op.apply_rows(b), atol=1e-10))

# scalar kernels act on whole curves through the quadrature geometry
gin = mk.Grid.uniform(0.0, 1.0, 80)
xs = mk.CurveVec(gin, rng.normal(size=(6, 80)))
gk = mk.GaussianKernel(mk.median_pairwise_distance(xs))
pk = mk.PolynomialKernel(2, offset=1.0)
print("Gaussian Gram PSD:", np.linalg.eigvalsh(gk.gram(xs)).min() > -1e-10)

# a weighted stack and its factored block Gram
stack = mk.KernelStack.uniform([(gk, ident), (pk, mult), (gk, trunc)])
gram = mk.assemble_gram(stack, xs)
alpha = mk.CurveVec(gout, rng.normal(size=(6, gout.size)))
action = gram.apply(alpha)

dense = gram.densify()          # testing escape hatch only
expected = (dense @ alpha.values.ravel()).reshape(alpha.values.shape)
print("factored action matches densified matrix:",
      np.allclose(action.values, expected, atol=1e-10))
print("block matrix is Hermitian under the pairing:",
      np.isclose(mk.vec_inner(action, alpha),
                 mk.vec_inner(alpha, action)))

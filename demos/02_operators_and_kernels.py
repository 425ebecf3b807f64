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

vals, vecs = trunc.spectrum()
print("leading integral eigenvalues:", np.round(vals[:5], 4))
orth = vecs.T @ (gout.weights[:, None] * vecs)
print("eigenbasis orthonormal under quadrature:",
      np.allclose(orth, np.eye(10), atol=1e-10))

# shifted solves go through the spectrum: (scale*T + c*I) u = b
b = mk.Curve(gout, rng.normal(size=gout.size))
u = trunc.shifted_solve(0.1, 1.0, b)
resid = 1.0 * trunc.apply(u).values + 0.1 * u.values - b.values
print("shifted solve residual:", np.linalg.norm(resid))

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

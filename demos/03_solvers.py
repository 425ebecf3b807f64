"""The block operator ridge system, solved two ways.

The dense factorization is the small-scale reference.  Every stack goes
through conjugate gradients, preconditioned by the exact solve of a
two-group system: one operator kept exact, the others folded into the
scalar side at their mean eigenvalue.  When every folded operator is a
multiple of the identity, as in a stack sharing one operator, that solve
is the exact inverse and one step suffices.
"""

import time

import numpy as np

import movkl as mk

rng = np.random.default_rng(2)
gin = mk.Grid.uniform(0.0, 1.0, 31)
gout = mk.Grid.uniform(0.0, 1.0, 30)
n = 14
X = mk.CurveVec(gin, rng.normal(size=(n, gin.size)))
Y = mk.CurveVec(gout, rng.normal(size=(n, gout.size)))
gk = mk.GaussianKernel(mk.median_pairwise_distance(X))

# ---- Case 1: every term shares one operator -> one exact step
shared = mk.IntegralOperator(gout, rank=8)
stack1 = mk.KernelStack.uniform([(gk, shared), (mk.PolynomialKernel(1), shared)])
gram1 = mk.assemble_gram(stack1, X)

a_one, rep = mk.pcg_solve(gram1, 0.05, Y)
a_dense, _ = mk.dense_solve(gram1, 0.05, Y)
print(f"shared operator: {rep.iterations} iteration,"
      f" residual {rep.final_residual:.2e}")
print("shared operator vs dense:",
      mk.vec_norm(a_one - a_dense) / mk.vec_norm(a_dense))

# ---- Case 2: mixed operators -> preconditioned conjugate gradients
stack2 = mk.KernelStack.uniform([
    (gk, mk.IdentityOperator(gout)),
    (mk.PolynomialKernel(2), mk.MultiplicationOperator(gout)),
    (mk.GaussianKernel(0.7 * mk.median_pairwise_distance(X)),
     mk.IntegralOperator(gout)),
])
gram2 = mk.assemble_gram(stack2, X)
a_ref, _ = mk.dense_solve(gram2, 0.05, Y)

t0 = time.perf_counter()
a_cg, rep = mk.pcg_solve(gram2, 0.05, Y)
print(f"pcg: {rep.iterations} iterations, residual {rep.final_residual:.2e}"
      f" ({time.perf_counter() - t0:.3f}s)")
print("pcg vs dense:", mk.vec_norm(a_cg - a_ref) / mk.vec_norm(a_ref))

# the stopping rule is SolveConfig's: a tighter tolerance takes more steps
tight = mk.SolveConfig(outer_tol=1e-13)
_, rep_tight = mk.pcg_solve(gram2, 0.05, Y, tight)
print(f"at outer_tol 1e-13: {rep_tight.iterations} iterations,"
      f" residual {rep_tight.final_residual:.2e}")

# warm starts pay off: restarting from the solution needs no step, which is
# how the multiple-kernel loop reuses each round's dual curves
_, rep2 = mk.pcg_solve(gram2, 0.05, Y, warm=a_cg)
print("warm restart iterations:", rep2.iterations)

# ---- Case 3: the identity plus one other operator -> one exact step
stack3 = mk.KernelStack.uniform([
    (gk, mk.IdentityOperator(gout)),
    (mk.PolynomialKernel(1), mk.IntegralOperator(gout)),
])
_, rep3 = mk.pcg_solve(mk.assemble_gram(stack3, X), 0.05, Y)
print(f"identity plus integral: {rep3.iterations} iteration,"
      f" residual {rep3.final_residual:.2e}")

"""Four routes through the block operator ridge system.

The dense factorization is the small-scale reference; stacks sharing one
operator diagonalize through a Kronecker eigendecomposition; mixes of
identity, multiplication and truncated integral operators are solved
exactly by the structured route (a generalized eigendecomposition plus a
Woodbury capacitance system); any other mix goes through sample-wise
Gauss-Seidel sweeps, each diagonal block solved exactly by one direct path.
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

# ---- Case 1: every term shares one operator -> eigendecomposition route
shared = mk.IntegralOperator(gout, rank=8)
stack1 = mk.KernelStack.uniform([(gk, shared), (mk.PolynomialKernel(1), shared)])
gram1 = mk.assemble_gram(stack1, X)

a_kron, rep = mk.kron_solve(gram1, 0.05, Y)
a_dense, _ = mk.dense_solve(gram1, 0.05, Y)
print("kron vs dense:", mk.vec_norm(a_kron - a_dense) / mk.vec_norm(a_dense))

# ---- Case 2: mixed operators -> structured solve, and Gauss-Seidel
stack2 = mk.KernelStack.uniform([
    (gk, mk.IdentityOperator(gout)),
    (mk.PolynomialKernel(2), mk.MultiplicationOperator(gout)),
    (mk.GaussianKernel(0.7 * mk.median_pairwise_distance(X)), shared),
])
gram2 = mk.assemble_gram(stack2, X)
print("route movkl_fit takes:", mk.solve_route(gram2))
a_ref, _ = mk.dense_solve(gram2, 0.05, Y)

t0 = time.perf_counter()
a_st, rep = mk.structured_solve(gram2, 0.05, Y)
print(f"structured: residual {rep.final_residual:.2e}"
      f" ({time.perf_counter() - t0:.3f}s)")
print("structured vs dense:", mk.vec_norm(a_st - a_ref) / mk.vec_norm(a_ref))

t0 = time.perf_counter()
a_gs, rep = mk.gauss_seidel_solve(gram2, 0.05, Y)
print(f"gauss-seidel: {rep.iterations} sweeps, residual {rep.final_residual:.2e}"
      f" ({time.perf_counter() - t0:.2f}s)")
print("gs vs dense:", mk.vec_norm(a_gs - a_ref) / mk.vec_norm(a_ref))

# warm starts pay off: restarting from the solution converges immediately
_, rep2 = mk.gauss_seidel_solve(gram2, 0.05, Y, warm=a_gs)
print("warm restart sweeps:", rep2.iterations)

# one mixed diagonal block on its own: identity and multiplication are
# diagonal, the full-rank integral operator makes the block tridiagonal
# through its kernel's closed-form inverse, and the truncated one joins by
# the Woodbury identity
s = mk.Curve(gout, rng.normal(size=gout.size))
terms = [(0.8, mk.MultiplicationOperator(gout)), (0.5, shared),
         (0.4, mk.IntegralOperator(gout)), (0.3, mk.IdentityOperator(gout))]
u = mk.block_solve(terms, 0.05, s)
A = sum(c * op.matrix() for c, op in terms) + 0.05 * np.eye(gout.size)
print("block solve vs dense block:",
      np.linalg.norm(u.values - np.linalg.solve(A, s.values)))

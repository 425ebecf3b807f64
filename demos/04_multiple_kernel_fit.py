"""Learning the kernel combination on the synthetic latency task.

Block coordinate descent alternates the ridge solve with the closed-form
weight update; the primal objective never increases, the weights stay on
the constraint boundary, and at the solution the dual curves satisfy
lambda * alpha_i = y_i - prediction(x_i).
"""

import numpy as np

import movkl as mk

ds = mk.generate_synthetic(mk.SynthSpec(
    n_samples=50, grid_size=80, latency=6, channel_count=2,
    noise_std=0.1, seed=12))
n_train = 35
Xtr = mk.CurveVec(ds.input_grid, ds.inputs.values[:n_train])
Ytr = mk.CurveVec(ds.output_grid, ds.labels.values[:n_train])
Xte = mk.CurveVec(ds.input_grid, ds.inputs.values[n_train:])
Yte = mk.CurveVec(ds.output_grid, ds.labels.values[n_train:])

grid = ds.output_grid
med = mk.median_pairwise_distance(Xtr)

# a small menu: three bandwidths crossed with the three operators,
# block-trace normalized so the terms compete on an even footing
scalars = [mk.GaussianKernel(f * med) for f in (0.5, 1.0, 2.0)]
operators = [mk.IdentityOperator(grid), mk.MultiplicationOperator(grid),
             mk.IntegralOperator(grid, rank=10)]
pairs = [(mk.block_trace_normalized(s, op, Xtr), op)
         for op in operators for s in scalars]

# the mixed-operator solves run preconditioned conjugate gradients at the
# default SolveConfig: relative residual 1e-8, at most 500 steps
cfg = mk.FitConfig(lam=0.01, r=2.0, mkl_tol=1e-4, mkl_max_iter=30)
model = mk.movkl_fit(mk.KernelStack.uniform(pairs), Xtr, Ytr, cfg)

print("outer iterations:", model.outer_iterations)
print("objective trace:", np.round(model.objective_trace, 4))
print("non-increasing:", all(b <= a + 1e-10 for a, b in
                             zip(model.objective_trace,
                                 model.objective_trace[1:])))
print("weights:", np.round(model.weights, 3))
print("constraint sum d^2 =", float(np.sum(model.weights ** 2)))

# stationarity at the solution
preds_tr = mk.predict_many(model, Xtr)
gap = cfg.lam * model.alpha.values - (Ytr.values - preds_tr.values)
print("stationarity violation:", np.abs(gap).max())

# held-out quality vs a single-kernel fit
single = mk.krr_fit(
    mk.OvKernelTerm(mk.GaussianKernel(med), mk.IntegralOperator(grid, rank=10)),
    Xtr, Ytr, mk.FitConfig(lam=0.001))
print("test RSSE multi-kernel:", round(mk.rsse(Yte, mk.predict_many(model, Xte)), 4))
print("test RSSE single kernel:", round(mk.rsse(Yte, mk.predict_many(single, Xte)), 4))
print("test LCR  multi-kernel:",
      round(mk.lcr(Yte, mk.predict_many(model, Xte)), 2), "%")

# models round-trip through the archive bit-exactly
mk.save_model("/tmp/demo_model.json", model)
loaded = mk.load_model("/tmp/demo_model.json")
print("archive round-trip exact:",
      np.array_equal(loaded.alpha.values, model.alpha.values))

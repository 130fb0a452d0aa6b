"""Exponential product integration of the mild formula's memory integral.

The memory integral convolves grid samples against an exact exponential
kernel: the plain decay kernel e^(-mu (t-s)) for the forcing and the
rate-weighted kernel mu e^(-mu (t-s)) for the neutral term.  Both are one
routine, ``exp_convolution``, applied to f and to mu*g.  The samples are
interpolated linearly and each cell is integrated in closed form, so the
weights stay accurate no matter how stiff the mode is.  The script shows
the second-order error decay on smooth data and the exactness on constant
data, then stresses a mode with mu*dt = 50.
"""

import math

import numpy as np

from neutraldde import SpectralOperator, exp_convolution

mu, gamma, t = 5.0, 0.3, 1.0
op = SpectralOperator([mu])
exact = (math.exp(gamma * t) - math.exp(-mu * t)) / (gamma + mu)

print(f"integrand e^({gamma}s) against mode mu={mu} up to t={t}")
print(f"{'dt':>10} {'decay-kernel err':>18} {'rate-kernel err':>18} {'ratio':>7}")
prev = None
for dt in (2e-2, 1e-2, 5e-3, 2.5e-3):
    n = int(round(t / dt))
    vals = np.exp(gamma * dt * np.arange(n + 1))[:, None]
    e_s = abs(exp_convolution(op.mu, vals, dt)[-1, 0] - exact)
    e_g = abs(exp_convolution(op.mu, op.mu * vals, dt)[-1, 0] - mu * exact)
    ratio = f"{prev / e_s:.2f}" if prev else ""
    print(f"{dt:>10.4g} {e_s:>18.3e} {e_g:>18.3e} {ratio:>7}")
    prev = e_s
print("error quarters when dt halves: second order, as the linear interpolant promises")
print()

print("constant input is integrated exactly (the kernel mass is closed-form):")
for mu_c in (1.0, 2.0, 500.0):
    op_c = SpectralOperator([mu_c])
    n, dt = 1000, 1e-3
    vals = np.ones((n + 1, 1))
    got = exp_convolution(op_c.mu, vals, dt)[-1, 0]
    want = (1 - math.exp(-mu_c * n * dt)) / mu_c
    print(f"  mu={mu_c:<6}: got {got:.15g}, closed form {want:.15g}")
print()

print("stiff mode, mu*dt = 50: the kernel collapses into the last cell")
op_stiff = SpectralOperator([5000.0])
n, dt = 20, 1e-2
got = exp_convolution(op_stiff.mu, np.ones((n + 1, 1)), dt)[-1, 0]
want = (1 - math.exp(-5000.0 * 0.2)) / 5000.0
print(f"  got {got:.15g}, closed form {want:.15g}, rel err {abs(got - want) / want:.1e}")

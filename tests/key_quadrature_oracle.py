"""Independent midpoint-rule oracle for the cyclic key-lemma average.

The t-integral is exact (the integrand is piecewise constant in t with
breakpoints |z2| <= |z1|); the theta-integral uses the midpoint rule on
``n_theta`` panels. The integrand is piecewise constant in theta with at most
2k jumps, each costing at most 2/n_theta, so the rule is within
``quadrature_bound(k, n_theta) = 4k/n_theta`` of the exact average.
"""

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def quadrature_bound(k, n_theta):
    return 4.0 * k / n_theta


def key_average_quadrature(z1, z2, k, n_theta):
    z1 = np.atleast_1d(np.asarray(z1, dtype=complex))
    z2 = np.atleast_1d(np.asarray(z2, dtype=complex))
    swap = np.abs(z2) > np.abs(z1)
    z1, z2 = np.where(swap, z2, z1), np.where(swap, z1, z2)
    r1, r2 = np.abs(z1), np.abs(z2)
    a1, a2 = np.angle(z1), np.angle(z2)
    thetas = (np.arange(n_theta) + 0.5) * TWO_PI / n_theta
    dist = 2.0 * np.sin(np.pi * np.arange(k) / k)
    j1 = np.floor(((a1[:, None] - thetas[None, :]) % TWO_PI) * k / TWO_PI).astype(np.int64) % k
    j2 = np.floor(((a2[:, None] - thetas[None, :]) % TWO_PI) * k / TWO_PI).astype(np.int64) % k
    inner = dist[(j1 - j2) % k] * r2[:, None] + (r1 - r2)[:, None]
    return inner.mean(axis=1)

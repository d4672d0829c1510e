"""Reference Hessian of lam . F by the second-order forward tangent recursion.

An independent check of EndpointDifferential.hessian, which runs stage
adjoints backward instead.  This reference differentiates each segment's
RK4 steps twice forward, one segment at a time, on the stage states the
state run recorded (Trajectory.stages), with its own stage arithmetic: the
tangent block Z of zeta = (x_k, u_k) and its (n + d)^2 second-order rows
advance together, the second-order slope gaining d^2 f[T, T] with T = [Z | E]
the stage's tangent of zeta.  One backward sweep over the segments then
carries the second derivative of lam . F in x_{k+1} (W) and in x_{k+1} and
the later values (V).  It uses numpy and the system's compiled derivative
stacks only.
"""

import numpy as np


def _second_order_blocks(system, signal, substeps, stages):
    # per segment k: F_k = d x_{k+1} / d zeta, (P, n) transposed, and
    # D_k = d^2 x_{k+1} / d zeta^2, (P, P, n)
    m, n, d = signal.segments, system.n, system.d
    P, per = n + d, 4 * substeps
    U = np.repeat(signal.values, per, axis=0)
    J = system.field_jacobians(stages)
    A = system.dynamics_jacobian(stages, U)
    B = system.field_values_batch(stages)[:, 1:]
    f2 = np.zeros((len(stages), n, P, P))  # d^2 f / d zeta^2 at every stage
    S = system.field_second_derivatives(stages)
    f2[:, :, :n, :n] = S[:, 0] + np.einsum("ni,niabc->nabc", U, S[:, 1:])
    f2[:, :, n:, :n] = J[:, 1:].transpose(0, 2, 1, 3)
    f2[:, :, :n, n:] = J[:, 1:].transpose(0, 2, 3, 1)
    E = np.eye(P, d, -n)

    def slope(Z, D, i):
        T = np.hstack([Z, E])
        W = Z @ A[i].T
        W[n:] += B[i]
        return W, D @ A[i].T + np.einsum("abc,pb,qc->pqa", f2[i], T, T)

    blocks, second = [], []
    for k in range(m):
        h = signal.durations[k] / substeps
        Z, D = np.eye(P, n), np.zeros((P, P, n))
        for j in range(substeps):
            i = k * per + 4 * j
            s1 = slope(Z, D, i)
            s2 = slope(Z + 0.5 * h * s1[0], D + 0.5 * h * s1[1], i + 1)
            s3 = slope(Z + 0.5 * h * s2[0], D + 0.5 * h * s2[1], i + 2)
            s4 = slope(Z + h * s3[0], D + h * s3[1], i + 3)
            Z, D = (x + (h / 6.0) * (a + 2.0 * b + 2.0 * c + e)
                    for x, a, b, c, e in zip((Z, D), s1, s2, s3, s4))
        blocks.append(Z)
        second.append(D)
    return blocks, second


def reference_hessian(diff, lam, magnitudes=False):
    """The (m*d, m*d) Hessian of lam . F in the segment values of diff's signal.

    With magnitudes, the same sweep on the absolute values of the segment
    blocks and of lam: an entrywise bound on |H| that sums the sizes of the
    terms, the scale rounding errors are measured against.
    """
    signal, n = diff.signal, diff.n
    m, d = signal.segments, signal.d
    P = n + d
    blocks, second = _second_order_blocks(diff.system, signal, diff.substeps,
                                          diff.trajectory.stages)
    if magnitudes:
        blocks, second, lam = [np.abs(F) for F in blocks], [np.abs(D) for D in second], np.abs(lam)
    H = np.zeros((m, d, m, d))
    W, V = np.zeros((n, n)), np.zeros((n, m, d))
    mu = np.asarray(lam, dtype=float)
    for k in range(m - 1, -1, -1):
        F = blocks[k]
        M = F @ W @ F.T + second[k] @ mu  # in (x_k, u_k)
        G = (F @ V.reshape(n, m * d)).reshape(P, m, d)
        H[k] = G[n:]
        H[k, :, k] = 0.5 * M[n:, n:]
        V, W = G[:n], M[:n, :n]
        V[:, k] = M[:n, n:]
        mu = F[:n] @ mu
    H = H.reshape(m * d, m * d)
    return H + H.T

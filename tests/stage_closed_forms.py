"""Hand-expanded treated boundary stage values for three model problems.

These formulas unroll the four-stage third-order boundary recursion by hand,
substituting the proportional gradient shift u_x^{n,i} ~= u_x^n +
(c_i/gamma)(u_x^{n,1} - u_x^n) at the later stages instead of accumulating
the tableau rows.  Stage 1 is algebraically identical to the recursion for
any step size; stages 2 and 3 differ from it by O(tau^3) terms, so tests
compare them at a tiny tau and separately pin the cubic decay of the gap.

Inputs are the step-start trace value om0 = omega(t^n), the stage samples
omt[i] = omega_t(t^{n,i}), and spatial derivatives of the solution at the
boundary point at t^n.  Everything is elementwise, so scalar inputs give
scalar outputs and arrays give arrays.
"""

GAMMA = 1767732205903.0 / 4055673282236.0
BETA1 = -1.5 * GAMMA * GAMMA + 4.0 * GAMMA - 0.25
BETA2 = 1.5 * GAMMA * GAMMA - 5.0 * GAMMA + 1.25
ALPHA1 = -0.35
ALPHA2 = ((1.0 / 3.0 - 2.0 * GAMMA * GAMMA - 2.0 * BETA2 * ALPHA1 * GAMMA)
          / (GAMMA * (1.0 - GAMMA)))

# shared combination weights of the later stages
_W21 = (1.0 - GAMMA) / 2.0 - ALPHA1
_W31 = ALPHA2 + BETA1 - 1.0 - ((BETA2 - ALPHA2) / GAMMA) * _W21
_W32 = (BETA2 - ALPHA2) / GAMMA
_WT1 = 1.0 - ALPHA2 - (BETA2 - ALPHA2) * ALPHA1 / GAMMA


def linear_heat_stages(C, D, tau, om0, omt, u_x, u_xx, u_xxx):
    """Stages for u_t - C u_x = D u_xx + (D-1) u (constant coefficients)."""
    g = GAMMA
    dux = g * tau * ((D - 1.0) * u_x + C * u_xx + D * u_xxx)
    s1 = (om0 + g * tau * omt[1] - g * g * tau * tau * (D - 1.0) * omt[0]
          - g * tau * C * dux)
    s2 = (om0 + ALPHA1 * tau * omt[1] + g * tau * omt[2]
          + _W21 * (s1 - om0) / g
          - C * ((1.0 + g) / 2.0) * tau * dux
          - g * tau * tau * (D - 1.0) * ((1.0 + g) / 2.0) * omt[0])
    s3 = (om0 + _WT1 * tau * omt[1] + ALPHA2 * tau * omt[2] + g * tau * omt[3]
          + _W31 * (s1 - om0) / g + _W32 * (s2 - om0)
          - C * tau * dux
          - g * tau * tau * (D - 1.0) * omt[0])
    return s1, s2, s3


def quadratic_flux_stages(D, tau, om0, omt, p, px0, u_x, u_xx, u_xxx):
    """Stages for u_t + u u_x = D u_xx + p(x,t) u at one boundary point.

    p holds the four stage samples of the source factor at that point and
    px0 its spatial derivative at t^n.
    """
    g = GAMMA
    ux1 = u_x + g * tau * (-u_x * u_x - om0 * u_xx + px0 * om0 + p[0] * u_x
                           + D * u_xxx)
    s1 = (om0 + g * tau * (omt[1] + p[0] * om0 - om0 * u_x)
          + g * tau * (om0 + g * tau * omt[0]) * (ux1 - p[1]))
    s2 = (om0 + ALPHA1 * tau * omt[1] + g * tau * omt[2]
          + _W21 * (s1 - om0) / g
          + g * tau * (p[0] * om0 - om0 * u_x)
          + g * tau * (om0 + ((1.0 + g) / 2.0) * tau * omt[0])
          * (u_x + ((1.0 + g) / 2.0) * (ux1 - u_x) / g - p[2]))
    s3 = (om0 + _WT1 * tau * omt[1] + ALPHA2 * tau * omt[2] + g * tau * omt[3]
          + _W31 * (s1 - om0) / g + _W32 * (s2 - om0)
          - g * tau * (om0 * u_x - p[0] * om0)
          + g * tau * (om0 + tau * omt[0])
          * (u_x + (ux1 - u_x) / g - p[3]))
    return s1, s2, s3


def linear_heat_2d_stages(C, D, tau, om0, omt, grad, hess, grad_lap):
    """Stages for u_t - C(u_x + u_y) = D(u_xx + u_yy) + (2D-1) u.

    grad = [u_x, u_y], hess = [[u_xx, u_xy], [u_xy, u_yy]] and grad_lap =
    [u_xxx + u_yyx, u_xxy + u_yyy] hold arrays over the face points.
    """
    g = GAMMA
    q = 2.0 * D - 1.0
    dux, duy = (g * tau * (C * h[0] + C * h[1] + q * u_a + D * lap_a)
                for u_a, h, lap_a in zip(grad, hess, grad_lap))
    s1 = (om0 + g * tau * omt[1] - g * g * tau * tau * q * omt[0]
          - g * tau * C * (dux + duy))
    s2 = (om0 + ALPHA1 * tau * omt[1] + g * tau * omt[2]
          - g * tau * tau * q * ((1.0 + g) / 2.0) * omt[0]
          + _W21 * (s1 - om0) / g
          - C * tau * ((1.0 + g) / 2.0) * (dux + duy))
    s3 = (om0 + _WT1 * tau * omt[1] + ALPHA2 * tau * omt[2] + g * tau * omt[3]
          - g * tau * tau * q * omt[0]
          + _W31 * (s1 - om0) / g + _W32 * (s2 - om0)
          - C * tau * (dux + duy))
    return s1, s2, s3

"""The behaviour contract: the error columns of run_convergence.

Every builtin problem, in every boundary mode the command line offers, at
T = 0.5 and the problem's own CFL.  The (L1, L2, Linf) errors of each level
are pinned to relative 1e-9: a refactor that changes the arithmetic of the
solver moves them far more than that.  A change of rounding alone stays
below it only where the errors sit far above roundoff: taking the
implicit tendencies from the stage equations and the explicit RHS from
matrix products moved the 1D rows by up to 1.1e-12 absolute (burgers1d
alg1), which is up to 6.7e-5 relative on heat1d_o4, whose errors at
N = 40 are near 1e-9.  The block-tridiagonal kernel of a linear flux
moved the heat1d alg1/alg2 and heat1d_o4 rows by up to 8.3e-16 absolute,
8.6e-7 relative (heat1d_o4 alg2 at N = 40, errors near 6e-10), and the
heat1d naive and heat2d rows by less than 1e-9 relative.  Solving the 2D
stages in the y-axis eigenbasis moved the heat2d rows by up to 5.4e-11
relative (2.8e-15 absolute), and solving them in the eigenbasis of both
axes, where each stage matrix is diagonal, by up to 1.2e-10 relative
(8.8e-15 absolute) from the pinned values, so they were kept.
Recovering the 2D boundary derivatives through one linear map and
accumulating the explicit RHS in the flat dof order moved them by up to
4.3e-12 relative more, leaving them within 1.2e-10 relative of the pinned
values; the 1D rows stayed bitwise.
Regenerate them only for a deliberate change of the numerics, and say so
where the change is recorded.

The values depend on the OpenBLAS kernel: they were taken with the
SkylakeX core (print the one in use with OPENBLAS_VERBOSE=2 python -c
"import numpy, scipy.linalg").  Forcing OPENBLAS_CORETYPE=Haswell or Zen
on the same SkylakeX machine moves the heat1d, heat1d_o4 and treated
burgers1d rows by up to 5.4e-14 absolute, and eight of these tests fail.
"""

import numpy as np
import pytest

from ldgimex.harness import RunConfig, run_convergence

# (problem, mode): one (N, L1, L2, Linf) row per level; mode is 'naive',
# or the treatment algorithm of a treated run
CONTRACT = {
    ('heat1d', 'naive'): [
        (10, 0.00016264987644716203, 0.00018005548661891648, 0.0004120549813938501),
        (20, 2.887933492142532e-05, 3.725885326578006e-05, 0.00010513461897532217),
        (40, 5.054077799932695e-06, 7.755290521926961e-06, 2.6814403535468934e-05),
    ],
    ('heat1d', 'alg1'): [
        (10, 3.307121457523568e-05, 2.537187194846818e-05, 3.8162442947853314e-05),
        (20, 3.9517873780371786e-06, 3.0587565895344607e-06, 4.940446433066015e-06),
        (40, 4.87484739605353e-07, 3.7791546641818276e-07, 6.622121421218097e-07),
    ],
    ('heat1d', 'alg2'): [
        (10, 3.306621121991027e-05, 2.526601646373784e-05, 3.763827079389381e-05),
        (20, 3.953129275207349e-06, 3.0556147305462336e-06, 4.92074906133233e-06),
        (40, 4.877175200829517e-07, 3.777609319375151e-07, 6.625327985121388e-07),
    ],
    ('burgers1d', 'naive'): [
        (10, 0.00021280666728604034, 0.00017648452560403447, 0.00020834092793625691),
        (20, 4.2433003868285654e-05, 3.4507058548117546e-05, 5.191985274755062e-05),
        (40, 1.5589758771291362e-05, 2.1333573389115756e-05, 6.236424156369491e-05),
    ],
    ('burgers1d', 'alg1'): [
        (10, 5.917830766436068e-05, 4.9324987561636394e-05, 6.076925085574114e-05),
        (20, 7.566997614156199e-06, 6.110722231844145e-06, 7.244417228102762e-06),
        (40, 1.4249360033481908e-06, 1.3159267216618891e-06, 3.1859341222961746e-06),
    ],
    ('burgers1d', 'alg2'): [
        (10, 4.595788131632242e-05, 3.878309089492228e-05, 4.850717599408361e-05),
        (20, 6.061002365303784e-06, 4.988331821660473e-06, 5.99438883036596e-06),
        (40, 1.115328902620317e-06, 9.60653202034776e-07, 1.934050629315287e-06),
    ],
    ('heat1d_o4', 'naive'): [
        (10, 2.400596550719109e-07, 2.453571476774069e-07, 6.070411672220999e-07),
        (20, 2.8364082877498054e-08, 3.958466599110034e-08, 1.0370631314815526e-07),
        (40, 4.468279628278168e-09, 7.940624240626237e-09, 2.3882549826659272e-08),
    ],
    ('heat1d_o4', 'alg1'): [
        (10, 1.872612787782702e-07, 1.5004394341078517e-07, 1.8370376014820167e-07),
        (20, 1.2250910390191067e-08, 9.9060727033325e-09, 1.2067172538987592e-08),
        (40, 7.751440925473391e-10, 6.283417794784473e-10, 7.863969475607746e-10),
    ],
    ('heat1d_o4', 'alg2'): [
        (10, 1.8849192804753763e-07, 1.531416663074483e-07, 2.1957097873226417e-07),
        (20, 1.232287023324258e-08, 1.006951208830206e-08, 1.4285890470588924e-08),
        (40, 7.758494741539951e-10, 6.375615732794752e-10, 9.639725684351674e-10),
    ],
    ('heat2d', 'naive'): [
        (4, 0.0015549004569965518, 0.0010271110186147836, 0.0015529679310303246),
        (8, 0.0002735048573971467, 0.00020154037060959225, 0.00037676032899613965),
    ],
    ('heat2d', 'alg2'): [
        (4, 0.0008753932270724132, 0.00048298451982923895, 0.0004834626119766816),
        (8, 0.00010286708889950522, 5.613940237069221e-05, 5.1386771950268084e-05),
    ],
}


@pytest.mark.parametrize("problem,mode", sorted(CONTRACT),
                         ids=['%s-%s' % key for key in sorted(CONTRACT)])
def test_error_columns_are_pinned(problem, mode):
    rows = CONTRACT[problem, mode]
    treated = mode != 'naive'
    config = RunConfig(problem, [row[0] for row in rows], T=0.5,
                       bc_mode='treated' if treated else 'naive',
                       algorithm=mode if treated else 'alg2')
    report = run_convergence(config)
    assert [r['n'] for r in report.rows] == [row[0] for row in rows]
    np.testing.assert_allclose([r['errors'] for r in report.rows],
                               [row[1:] for row in rows], rtol=1e-9, atol=0)

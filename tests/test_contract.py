"""The behaviour contract: the error columns of run_convergence.

Every builtin problem, in every boundary mode the command line offers, at
T = 0.5 and the problem's own CFL.  The (L1, L2, Linf) errors of each level
are pinned to relative 1e-9: a refactor that changes the arithmetic of the
solver moves them far more than that, while a change of summation order
alone stays below it.  Regenerate them only for a deliberate change of the
numerics, and say so where the change is recorded.
"""

import numpy as np
import pytest

from ldgimex.harness import RunConfig, run_convergence

# (problem, mode): one (N, L1, L2, Linf) row per level; mode is 'naive',
# or the treatment algorithm of a treated run
CONTRACT = {
    ('heat1d', 'naive'): [
        (10, 0.0001626498764441718, 0.0001800554866180512, 0.00041205498139051944),
        (20, 2.8879334907275583e-05, 3.725885326046314e-05, 0.00010513461896344278),
        (40, 5.05407772093192e-06, 7.755290502604598e-06, 2.681440353957676e-05),
    ],
    ('heat1d', 'alg1'): [
        (10, 3.30712145749973e-05, 2.53718719479888e-05, 3.816244294768678e-05),
        (20, 3.951787375906013e-06, 3.0587565870421645e-06, 4.940446431955792e-06),
        (40, 4.874847447281212e-07, 3.779154417781483e-07, 6.622121786481472e-07),
    ],
    ('heat1d', 'alg2'): [
        (10, 3.306621121981127e-05, 2.5266016462712302e-05, 3.763827079378279e-05),
        (20, 3.953129272626422e-06, 3.0556147281320182e-06, 4.920749067771624e-06),
        (40, 4.877175239777794e-07, 3.777609028976819e-07, 6.625327554354854e-07),
    ],
    ('burgers1d', 'naive'): [
        (10, 0.00021280666728515905, 0.00017648452560279694, 0.000208340927934203),
        (20, 4.243300387848791e-05, 3.45070585557186e-05, 5.19198527474396e-05),
        (40, 1.5589758757161714e-05, 2.1333573381101253e-05, 6.236424156846887e-05),
    ],
    ('burgers1d', 'alg1'): [
        (10, 5.9178307660468426e-05, 4.932498755841578e-05, 6.076925085068963e-05),
        (20, 7.566997625135706e-06, 6.1107222411158355e-06, 7.244417212670662e-06),
        (40, 1.4249361746874926e-06, 1.315926956013419e-06, 3.1859351804497393e-06),
    ],
    ('burgers1d', 'alg2'): [
        (10, 4.595788131595098e-05, 3.878309089443893e-05, 4.850717599336196e-05),
        (20, 6.061002362414271e-06, 4.988331819945947e-06, 5.994388830921071e-06),
        (40, 1.1153287948180623e-06, 9.606531007763329e-07, 1.934050529395215e-06),
    ],
    ('heat1d_o4', 'naive'): [
        (10, 2.4005965469121103e-07, 2.453571479576699e-07, 6.070411697201017e-07),
        (20, 2.836408306102486e-08, 3.958466501276711e-08, 1.0370630143530235e-07),
        (40, 4.468279611738126e-09, 7.940623942736828e-09, 2.3882556710042024e-08),
    ],
    ('heat1d_o4', 'alg1'): [
        (10, 1.872612792110326e-07, 1.5004394400963058e-07, 1.8370376153598045e-07),
        (20, 1.2250911990651127e-08, 9.906073732994294e-09, 1.206716027102317e-08),
        (40, 7.751463037429048e-10, 6.283437594372914e-10, 7.863712458977545e-10),
    ],
    ('heat1d_o4', 'alg2'): [
        (10, 1.8849192779581767e-07, 1.5314166625103551e-07, 2.1957098356173432e-07),
        (20, 1.2322872101974624e-08, 1.006951323772123e-08, 1.4285892635523822e-08),
        (40, 7.758491626592183e-10, 6.375593632553204e-10, 9.639090081670076e-10),
    ],
    ('heat2d', 'naive'): [
        (4, 0.0015549004569956515, 0.0010271110186135398, 0.0015529679310234412),
        (8, 0.00027350485739047333, 0.00020154037060675023, 0.00037676032899558454),
    ],
    ('heat2d', 'alg2'): [
        (4, 0.0008753932270719737, 0.00048298451982869885, 0.0004834626119756824),
        (8, 0.00010286708889933917, 5.613940237007174e-05, 5.138677195209995e-05),
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

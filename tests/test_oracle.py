import math

import numpy as np
import pytest

from wavepencil import oracle
from wavepencil.oracle import (OracleError, OracleFamily, OracleRoot,
                               cleared_determinant, match_roots,
                               normalized_determinant,
                               slab_dispersion_roots, write_roots_csv)

PI = math.pi


def gammas_of(roots, family=None):
    return sorted((r.gamma for r in roots
                   if family is None or r.family is family),
                  key=lambda g: (g.real, g.imag))


def dispersion_determinant(family, gamma, a, b, d, eps1, eps2, n):
    """Literal tangent-form determinant (complex-valued off its poles).

    LSE:  k1 tan(k2 d) + k2 tan(k1 (a-d))
    LSM:  (k2/eps2) tan(k2 d) + (k1/eps1) tan(k1 (a-d))

    The reference the cleared form is checked against.
    """
    u = complex(gamma) ** 2
    k1 = np.sqrt(complex(eps1 - u - (n * math.pi / b) ** 2))
    k2 = np.sqrt(complex(eps2 - u - (n * math.pi / b) ** 2))
    if family is OracleFamily.LSE:
        return k1 * np.tan(k2 * d) + k2 * np.tan(k1 * (a - d))
    return (k2 / eps2) * np.tan(k2 * d) + (k1 / eps1) * np.tan(k1 * (a - d))


def test_slab_lse_homogeneous_limit():
    # eps1 = eps2 = 2: k_x a = m pi, so gamma^2 = 2 - m^2
    roots = slab_dispersion_roots(PI, PI, PI / 2, 2.0, 2.0, n=0,
                                  family=OracleFamily.LSE, gamma_max=4.0)
    us = sorted({round((r.gamma ** 2).real, 9) for r in roots})
    assert us == [-14.0, -7.0, -2.0, 1.0]
    assert all(r.residual <= 1e-12 for r in roots)


def test_slab_lsm_homogeneous_limit_weights_cancel():
    # eps1 = eps2 = 2, n = 1: k_x^2 = 1 - gamma^2, so gamma^2 = 1 - m^2; the
    # trivial m = 0 zero (both wavenumbers vanish) is not an eigenvalue
    roots = slab_dispersion_roots(PI, PI, PI / 2, 2.0, 2.0, n=1,
                                  family=OracleFamily.LSM, gamma_max=4.0)
    us = sorted({round((r.gamma ** 2).real, 9) for r in roots})
    assert us == [-15.0, -8.0, -3.0, 0.0]


def test_slab_homogeneous_with_asymmetric_slab_position():
    # d != a/2 keeps the reduction k_x a = m pi intact
    roots = slab_dispersion_roots(PI, PI, 1.0, 2.0, 2.0, n=0,
                                  family=OracleFamily.LSE, gamma_max=3.9)
    us = sorted({round((r.gamma ** 2).real, 9) for r in roots})
    assert us == [-14.0, -7.0, -2.0, 1.0]


def test_slab_roots_on_axes_only():
    for fam, n in ((OracleFamily.LSE, 0), (OracleFamily.LSM, 1)):
        roots = slab_dispersion_roots(PI, PI, PI / 2, 1.0, 4.0, n=n,
                                      family=fam, gamma_max=4.0)
        assert roots
        for r in roots:
            assert r.gamma.real == 0.0 or r.gamma.imag == 0.0
            assert abs(r.gamma) <= 4.0 + 1e-9


def test_slab_root_count_nonincreasing_in_transverse_index():
    counts = []
    for n in range(3):
        roots = slab_dispersion_roots(PI, PI, PI / 2, 1.0, 4.0, n=n,
                                      family=OracleFamily.LSE, gamma_max=4.0)
        counts.append(len(roots))
    assert counts[0] >= counts[1] >= counts[2]


def test_cleared_form_matches_tan_form_off_poles():
    # identity: tan-form * cos(k2 d) cos(k1 (a-d)) == k1 k2 * cleared (LSE)
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = rng.uniform(-16.0, 4.0)
        k1sq = 1.0 - u
        k2sq = 4.0 - u
        k1 = np.sqrt(complex(k1sq))
        k2 = np.sqrt(complex(k2sq))
        c1 = np.cos(k1 * (PI - PI / 2))
        c2 = np.cos(k2 * (PI / 2))
        if min(abs(c1), abs(c2)) < 1e-2:
            continue
        tan_form = dispersion_determinant(
            OracleFamily.LSE, np.sqrt(complex(u)), PI, PI, PI / 2,
            1.0, 4.0, 0)
        cleared = cleared_determinant(OracleFamily.LSE, u, PI, PI, PI / 2,
                                      1.0, 4.0, 0)
        lhs = tan_form * c1 * c2
        rhs = k1 * k2 * cleared
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


@pytest.mark.parametrize("fam,n", [(OracleFamily.LSE, 0),
                                   (OracleFamily.LSM, 1)])
def test_normalized_determinant_on_the_root_grid_equals_the_scalar_calls(
        fam, n):
    # the 2001-point search grids of slab_dispersion_roots, in one call
    for lo, hi in ((-16.0, 0.0), (0.0, 16.0)):
        us = np.linspace(lo, hi, 2001)
        whole = normalized_determinant(fam, us, PI, PI, PI / 2, 1.0, 4.0, n)
        each = np.array([normalized_determinant(fam, u, PI, PI, PI / 2,
                                                1.0, 4.0, n) for u in us])
        assert whole.shape == us.shape
        assert np.abs(whole - each).max() <= 1e-15


def test_tan_form_vanishes_at_reported_roots():
    n = 1
    kn_sq = (n * PI / PI) ** 2  # (n pi / b)^2 with b = pi
    roots = slab_dispersion_roots(PI, PI, PI / 2, 1.0, 4.0, n=n,
                                  family=OracleFamily.LSM, gamma_max=4.0)
    assert roots
    for r in roots:
        u = (r.gamma ** 2).real
        k1 = np.sqrt(complex(1.0 - u - kn_sq))
        k2 = np.sqrt(complex(4.0 - u - kn_sq))
        c1 = abs(np.cos(k1 * (PI / 2)))
        c2 = abs(np.cos(k2 * (PI / 2)))
        if min(c1, c2) < 1e-1:
            continue  # tangent pole adjacent; covered by the cleared form
        val = dispersion_determinant(OracleFamily.LSM, r.gamma, PI, PI,
                                     PI / 2, 1.0, 4.0, n)
        assert abs(val) <= 1e-8


def test_slab_lsm_without_transverse_variation_is_empty():
    # the LSM potential carries sin(n pi y / b): no field, no roots at n = 0
    for eps1, eps2 in ((1.0, 4.0), (4.0, 1.0), (2.0, 2.0)):
        assert slab_dispersion_roots(PI, PI, PI / 2, eps1, eps2, n=0,
                                     family=OracleFamily.LSM,
                                     gamma_max=4.0) == []
    # the other families keep every root: one +- pair per sign change of
    # the determinant over gamma^2 in [-16, 16], each a zero of it
    us = np.linspace(-16.0, 16.0, 32001)
    for fam, n in ((OracleFamily.LSE, 0), (OracleFamily.LSM, 1)):
        roots = slab_dispersion_roots(PI, PI, PI / 2, 1.0, 4.0, n=n,
                                      family=fam, gamma_max=4.0)
        f = np.array([normalized_determinant(fam, u, PI, PI, PI / 2,
                                             1.0, 4.0, n) for u in us])
        sign_changes = int(np.sum(np.sign(f[1:]) != np.sign(f[:-1])))
        assert sign_changes > 0
        assert len(roots) == 2 * sign_changes
        for r in roots:
            assert r.family is fam and r.n == n
            u = (r.gamma ** 2).real
            assert abs(normalized_determinant(fam, u, PI, PI, PI / 2,
                                              1.0, 4.0, n)) <= 1e-12


def test_a_root_on_the_grid_is_found_once_and_the_trivial_one_dropped():
    # LSM at eps1 = eps2 = 1, n = 1 on the pi x pi square: both
    # transverse wavenumbers vanish at u = 0, a point of both search grids
    # where the normalized determinant is exactly 0.  That root has a
    # trivial field and is dropped; the others are k_x = m, u = -m^2.
    args = (PI, PI, PI / 2, 1.0, 1.0, 1)
    assert normalized_determinant(OracleFamily.LSM, 0.0, *args) == 0.0
    roots = slab_dispersion_roots(*args[:5], n=1, family=OracleFamily.LSM,
                                  gamma_max=3.5)
    assert [r.m for r in roots] == [1, 1, 2, 2, 3, 3]
    for r, want in zip(roots, (1j, -1j, 2j, -2j, 3j, -3j)):
        assert abs(r.gamma - want) <= 1e-12
        assert r.residual <= 1e-14


@pytest.mark.parametrize("gamma_max,m_max", [(4.0, 4), (3.9995, 3)])
def test_a_root_on_gamma_max_is_found_and_one_beyond_it_dropped(gamma_max,
                                                                m_max):
    # LSM at eps1 = eps2 = 1, n = 1: the root u = -16 is the end point of
    # the grid at gamma_max = 4, where the determinant is rounding noise;
    # at gamma_max = 3.9995 it lies in the search interval past the end
    # and is found, but beyond gamma_max
    roots = slab_dispersion_roots(PI, PI, PI / 2, 1.0, 1.0, n=1,
                                  family=OracleFamily.LSM,
                                  gamma_max=gamma_max)
    ms = range(1, m_max + 1)
    assert [r.m for r in roots] == [m for m in ms for _ in "+-"]
    for r, want in zip(roots, (s * m * 1j for m in ms for s in (1, -1))):
        assert abs(r.gamma - want) <= 1e-12


def test_roots_are_bracketed_by_sign_not_by_product(monkeypatch):
    # a determinant of size 1e-200 whose one root lies on a grid point:
    # products of neighbouring values underflow to 0 on every interval,
    # signs do not, and the grid-point root is found once
    u_root = np.linspace(0.0, 4.0, 2001)[500]

    def tiny(family, u, *args):
        return (u - u_root) * 1e-200

    monkeypatch.setattr(oracle, "normalized_determinant", tiny)
    roots = slab_dispersion_roots(PI, PI, PI / 2, 1.0, 4.0, gamma_max=2.0)
    assert [(r.gamma, r.m, r.residual) for r in roots] == [
        (complex(math.sqrt(u_root)), 1, 0.0),
        (-complex(math.sqrt(u_root)), 1, 0.0)]


def test_slab_argument_validation():
    with pytest.raises(OracleError):
        slab_dispersion_roots(PI, PI, 0.0, 1.0, 4.0)
    with pytest.raises(OracleError):
        slab_dispersion_roots(PI, PI, PI, 1.0, 4.0)
    with pytest.raises(OracleError):
        slab_dispersion_roots(PI, PI, PI / 2, 0.5, 4.0)
    with pytest.raises(OracleError):
        slab_dispersion_roots(PI, PI, PI / 2, 1.0, 4.0, n=-1)
    with pytest.raises(OracleError):
        slab_dispersion_roots(PI, PI, PI / 2, 1.0, 4.0,
                              family="dirichlet_derived")


@pytest.mark.parametrize("fn", [cleared_determinant, normalized_determinant])
def test_a_family_named_by_its_value_is_that_family(fn):
    args = (1.5, PI, PI, PI / 2, 1.0, 4.0, 1)
    assert fn("lsm", *args) == fn(OracleFamily.LSM, *args)
    assert fn("lse", *args) == fn(OracleFamily.LSE, *args)
    assert fn("lsm", *args) != fn("lse", *args)
    with pytest.raises(OracleError, match="not a slab family"):
        fn("dirichlet_derived", *args)


def test_match_roots_accounting():
    # the homogeneous square at eps 2 up to transverse eigenvalue 2.5:
    # modes (1, 0) and (0, 1) at +-1, and two cutoffs at 0
    roots = [OracleRoot(gamma=complex(g), family=OracleFamily.LSE, m=m, n=0,
                        residual=0.0)
             for m, g in enumerate((1.0, -1.0, 1.0, -1.0, 0.0, 0.0))]
    vals = np.array([1.001, -1.001, 0.02j, -0.02j, 5.0], dtype=complex)
    matches, mismatches = match_roots(roots, vals, rel_tol=0.05)
    assert len(matches) == len(roots)
    by_gamma = {complex(r.gamma): rel for r, _, rel in matches}
    assert by_gamma[complex(1.0)] <= 0.05
    # the gamma = 0 root compares absolutely against the tiny floor
    assert mismatches >= 1


def test_csv_output_format(tmp_path):
    roots = slab_dispersion_roots(PI, PI, PI / 2, 1.0, 4.0, n=0,
                                  family=OracleFamily.LSE, gamma_max=3.0)
    path = tmp_path / "roots.csv"
    with open(path, "w", encoding="utf-8") as fh:
        write_roots_csv(roots, fh)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "family,m,n,re_gamma,im_gamma,residual"
    assert len(lines) == len(roots) + 1
    fields = lines[1].split(",")
    assert fields[0] == "lse"
    complex(float(fields[3]), float(fields[4]))

import dataclasses
import math

import numpy as np
import pytest
from scipy import linalg, sparse

import wavepencil as wp
from wavepencil import analysis
from wavepencil.eigensolver import NULLITY_REL_TOL, solve_pencil
from wavepencil.analysis import (SpectrumClass, build_spectrum, classify,
                                 count_in_disk,
                                 count_real_outside_exclusion,
                                 degeneration_count, degeneration_scan,
                                 k_decay_slope, symmetry_pairing, verify_all)
from conftest import parity_signs, traced_peak

PI = math.pi
EXC = wp.exclusion_interval(1.0, 4.0)


def pairing_ok(rep):
    """No symmetry has a partner distance over ``SYMMETRY_TOL``."""
    return all(len(v) == 0 for v in rep.violations.values())


@pytest.mark.parametrize("gamma,expected", [
    (3.5, SpectrumClass.PROPAGATING),
    (-3.2, SpectrumClass.PROPAGATING),
    (2.0, SpectrumClass.DEGENERATION_ADJACENT),
    (-1.0, SpectrumClass.DEGENERATION_ADJACENT),
    (0.3 + 0.7j, SpectrumClass.COMPLEX),
    (1.5, SpectrumClass.IN_EXCLUSION),
    (-2.5, SpectrumClass.IN_EXCLUSION),
    (2.7j, SpectrumClass.EVANESCENT),
    (0.0, SpectrumClass.PROPAGATING),
    (0.45, SpectrumClass.PROPAGATING),
])
def test_classify_cases(gamma, expected):
    assert classify(gamma, EXC) is expected


def test_classify_tolerance_scales_with_magnitude():
    assert classify(3.5 + 1e-7j, EXC) is SpectrumClass.PROPAGATING
    assert classify(3.5 + 1e-3j, EXC) is SpectrumClass.COMPLEX


def scalar_classify(gamma, exclusion):
    """The one-value classification rule, as ``classify`` ran it per entry."""
    g = complex(gamma)
    scale = 1.0 + abs(g)
    for eps in (exclusion.eps1, exclusion.eps2):
        root = math.sqrt(eps)
        if min(abs(g - root), abs(g + root)) \
                <= analysis.CLASSIFICATION_TOL * (1.0 + root):
            return SpectrumClass.DEGENERATION_ADJACENT
    is_real = abs(g.imag) <= analysis.CLASSIFICATION_TOL * scale
    is_imag = abs(g.real) <= analysis.CLASSIFICATION_TOL * scale
    if is_real and exclusion.lower <= abs(g.real) <= exclusion.upper:
        return SpectrumClass.IN_EXCLUSION
    if is_real:
        return SpectrumClass.PROPAGATING
    if is_imag:
        return SpectrumClass.EVANESCENT
    return SpectrumClass.COMPLEX


def _ulps(x, n=3):
    """x and its n floating-point neighbours on either side."""
    out = [x]
    for direction in (-np.inf, np.inf):
        y = x
        for _ in range(n):
            y = np.nextafter(y, direction)
            out.append(y)
    return out


def _on_the_axis_tolerance(re):
    """The imaginary part t with t = CLASSIFICATION_TOL (1 + |re + i t|)."""
    t = 0.0
    for _ in range(50):
        t = analysis.CLASSIFICATION_TOL * (1.0 + abs(complex(re, t)))
    return t


@pytest.mark.parametrize("eps", [(1.0, 4.0), (1.0, 2.5), (3.0, 3.0)])
def test_array_classify_equals_the_scalar_rule_on_the_boundaries(eps):
    exc = wp.exclusion_interval(*eps)
    tol = analysis.CLASSIFICATION_TOL
    edges = []
    # |Im g| at the axis tolerance, and Re g there for the imaginary axis
    for re in (0.45, 3.5, -7.25, exc.lower, exc.upper):
        t = _on_the_axis_tolerance(re)
        edges += [complex(re, s * im) for im in _ulps(t) for s in (1, -1)]
        edges += [complex(s * im, re) for im in _ulps(t) for s in (1, -1)]
    # the degeneration neighbourhoods, on and off the real axis
    for e in eps:
        root = math.sqrt(e)
        for x in _ulps(root + tol * (1.0 + root)) \
                + _ulps(root - tol * (1.0 + root)):
            edges += [x, -x, complex(root, x - root), complex(-root, root - x)]
    # the exclusion band's ends
    for end in (exc.lower, exc.upper):
        edges += [s * x for x in _ulps(end) for s in (1, -1)]
    edges += [0.0, complex(0.0, -0.0), complex(-0.0, 0.0)]
    vals = np.array(edges, dtype=complex)
    want = [scalar_classify(g, exc) for g in vals]
    got = classify(vals, exc)
    assert got.shape == vals.shape and got.dtype == object
    assert all(a is b for a, b in zip(got, want))
    # the inputs straddle every boundary: each class appears (a
    # homogeneous band is its degeneration point)
    if eps[0] != eps[1]:
        assert set(want) == set(SpectrumClass)
    for g, cls in zip(vals, want):
        assert classify(g, exc) is cls


def test_classify_of_zero_and_of_an_empty_array():
    assert classify(0.0, EXC) is SpectrumClass.PROPAGATING
    assert classify(np.zeros(1), EXC)[0] is SpectrumClass.PROPAGATING
    empty = classify(np.zeros(0, dtype=complex), EXC)
    assert empty.shape == (0,) and empty.dtype == object


def test_symmetry_pairing_on_synthetic_quadruples():
    base = np.array([0.7 + 0.4j, 2.0j, 3.1], dtype=complex)
    full = np.concatenate([base, -base, np.conj(base), -np.conj(base)])
    rng = np.random.default_rng(0)
    noisy = full + 1e-12 * (rng.standard_normal(len(full))
                            + 1j * rng.standard_normal(len(full)))
    rep = symmetry_pairing(noisy)
    assert pairing_ok(rep)
    assert rep.max_normalized <= 1e-10
    # the matching is a permutation per symmetry
    for idx, _ in rep.partners.values():
        assert sorted(idx) == list(range(len(noisy)))


def test_symmetry_pairing_takes_exact_ties_without_a_search(monkeypatch):
    # a deflated solve returns each degeneration point many times, bit for
    # bit: equal values pair with each other before any nearest search
    base = np.array([0.7 + 0.4j, 2.0j, 3.1], dtype=complex)
    full = np.concatenate([base, -base, np.conj(base), -np.conj(base)])
    rng = np.random.default_rng(0)
    noisy = full + 1e-12 * (rng.standard_normal(len(full))
                            + 1j * rng.standard_normal(len(full)))
    vals = np.concatenate([np.full(300, 1.0), noisy, np.full(300, -1.0)])
    searched = []
    nearest = analysis._match_nearest

    def counted(values, targets):
        searched.append(len(targets))
        return nearest(values, targets)

    monkeypatch.setattr(analysis, "_match_nearest", counted)
    rep = symmetry_pairing(vals)
    assert searched == [len(noisy)] * 3
    assert pairing_ok(rep) and rep.max_normalized <= 1e-10
    ties = np.abs(vals.real) == 1.0
    for idx, dist in rep.partners.values():
        assert sorted(idx) == list(range(len(vals)))
        assert not np.any(dist[ties])


def scan_match(values, targets, order=None):
    """Greedy matching by brute force: each target in turn scans the free
    values and takes the first nearest, in ``order`` or nearest first."""
    if order is None:
        near = [np.min(np.abs(values - t)) for t in targets]
        order = np.argsort(near, kind="stable")
    free = np.ones(len(values), dtype=bool)
    out_idx = np.empty(len(targets), dtype=int)
    out_dist = np.empty(len(targets))
    for t in order:
        cands = np.flatnonzero(free)
        dist = np.abs(values[cands] - targets[t])
        k = np.argmin(dist)
        out_idx[t], out_dist[t] = cands[k], dist[k]
        free[cands[k]] = False
    return out_idx, out_dist


def assert_matches_scan(values, targets, order=None):
    idx, dist = analysis._match_nearest(values, targets, order=order)
    ref_idx, ref_dist = scan_match(values, targets, order=order)
    assert idx.tolist() == ref_idx.tolist()
    assert [d.hex() for d in dist.tolist()] == \
        [d.hex() for d in ref_dist.tolist()]
    assert len(set(idx.tolist())) == len(idx)


def clustered_values(rng, n):
    """Scattered complex values with runs of bit-equal values at +-1 and
    +-2i, one run with a negative zero imaginary part, shuffled."""
    scattered = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    runs = [np.full(rng.integers(3, 12), root, dtype=complex)
            for root in (1.0, -1.0, 2.0j, -2.0j)]
    runs.append(np.full(5, complex(1.0, -0.0)))
    vals = np.concatenate([scattered, *runs])
    return vals[rng.permutation(len(vals))]


@pytest.mark.parametrize("seed", range(6))
def test_match_nearest_equals_the_scan_on_clustered_values(seed):
    rng = np.random.default_rng(seed)
    values = clustered_values(rng, 40)
    # targets near the runs, on them, and scattered; fewer than values
    targets = np.concatenate([
        values[rng.choice(len(values), 20, replace=False)]
        + 0.05 * rng.standard_normal(20),
        np.array([1.0, complex(1.0, -0.0), -1.0, 2.0j, 0.0]),
        rng.standard_normal(10) + 1j * rng.standard_normal(10)])
    assert len(targets) < len(values)
    assert_matches_scan(values, targets)
    assert_matches_scan(values, targets, order=np.arange(len(targets)))
    assert_matches_scan(values, targets, order=rng.permutation(len(targets)))
    # as many targets as values: every value is taken
    full = values[rng.permutation(len(values))] + 1e-3
    assert_matches_scan(values, full)
    assert sorted(analysis._match_nearest(values, full)[0]) == \
        list(range(len(values)))


def test_match_nearest_breaks_exact_distance_ties_by_index():
    # twelve distinct values at exactly 1.25 from the centre, and five
    # targets at the centre: each takes the lowest free index
    centre = 5 + 5j
    ring = np.array([centre + complex(x, y) for x, y in
                     [(0.75, 1.0), (-0.75, 1.0), (0.75, -1.0), (-0.75, -1.0),
                      (1.0, 0.75), (-1.0, 0.75), (1.0, -0.75), (-1.0, -0.75),
                      (1.25, 0.0), (-1.25, 0.0), (0.0, 1.25), (0.0, -1.25)]])
    assert np.all(np.abs(ring - centre) == 1.25)
    rng = np.random.default_rng(3)
    for _ in range(4):
        values = ring[rng.permutation(len(ring))]
        targets = np.full(5, centre)
        idx, dist = analysis._match_nearest(values, targets)
        assert idx.tolist() == list(range(5)) and np.all(dist == 1.25)
        assert_matches_scan(values, targets)
        assert_matches_scan(values, targets, order=np.arange(5)[::-1])


def test_match_nearest_of_no_targets():
    for values in (np.zeros(0, dtype=complex), np.array([1.0, 2.0j])):
        for order in (None, np.zeros(0, dtype=int)):
            idx, dist = analysis._match_nearest(
                values, np.zeros(0, dtype=complex), order=order)
            assert idx.shape == (0,) and dist.shape == (0,)
            assert idx.dtype.kind == "i"


@pytest.mark.parametrize("case", ["slab-eps4", "slab-eps1", "homog", "slit"])
def test_symmetry_pairing_of_a_solve_searches_nothing(case, monkeypatch,
                                                      slab_spaces,
                                                      slab_eigenvalues,
                                                      homog_eigenvalues,
                                                      slit_mesh):
    # +-sqrt(mu) is exact and LAPACK returns exact conjugate pairs: every
    # partner of a solved spectrum is bit-equal, and the search is idle
    vals = {
        "slab-eps4": lambda: slab_eigenvalues,
        "slab-eps1": lambda: solve_pencil(wp.make_pencil(
            wp.assemble_matrices(slab_spaces, 1.0, 1.0))).eigenvalues,
        "homog": lambda: homog_eigenvalues,
        "slit": lambda: solve_pencil(wp.make_pencil(wp.assemble_matrices(
            wp.build_spaces(slit_mesh), 1.0, 4.0))).eigenvalues,
    }[case]()
    searched = []
    nearest = analysis._match_nearest

    def counted(values, targets):
        searched.append(len(targets))
        return nearest(values, targets)

    monkeypatch.setattr(analysis, "_match_nearest", counted)
    rep = symmetry_pairing(vals)
    assert searched == [0, 0, 0]
    assert rep.max_normalized == 0.0
    for idx, _ in rep.partners.values():
        assert sorted(idx) == list(range(len(vals)))


def test_symmetry_pairing_flags_broken_symmetry():
    vals = np.array([1.0, -1.0, 2.0j, -2.0j, 0.5 + 0.5j], dtype=complex)
    rep = symmetry_pairing(vals)
    assert not pairing_ok(rep)
    assert len(rep.violations["neg"]) > 0


def test_empty_spectrum_has_no_partners_and_zero_counts():
    rep = symmetry_pairing(np.array([], dtype=complex))
    assert pairing_ok(rep) and rep.max_normalized == 0.0
    for idx, dist in rep.partners.values():
        assert idx.shape == (0,) and dist.shape == (0,)
    spec = build_spectrum(np.array([], dtype=complex), EXC)
    assert spec.entries == []
    assert all(c == 0 for c in spec.counts.values())
    assert spec.pairing.max_normalized == 0.0


def test_slab_spectrum_pairing(slab_eigenvalues):
    rep = symmetry_pairing(slab_eigenvalues)
    assert pairing_ok(rep)
    idx, dist = rep.partners["conj"]
    scale = 1.0 + np.abs(slab_eigenvalues)
    assert (dist / scale).max() <= 1e-10


def test_build_spectrum_counts_and_partners(slab_eigenvalues):
    spec = build_spectrum(slab_eigenvalues, EXC)
    assert sum(spec.counts.values()) == len(slab_eigenvalues)
    assert spec.counts[SpectrumClass.DEGENERATION_ADJACENT] > 0
    e = spec.entries[0]
    assert spec.entries[e.partner_neg].gamma == pytest.approx(-e.gamma, abs=1e-7)
    assert spec.max_abs_real > 0.0


def test_homogeneous_spectrum_has_no_complex_waves(homog_eigenvalues):
    spec = build_spectrum(homog_eigenvalues, wp.exclusion_interval(2.0, 2.0))
    g2 = spec.eigenvalues ** 2
    assert (np.abs(g2.imag) / (1.0 + np.abs(g2))).max() <= 1e-8
    assert spec.counts[SpectrumClass.COMPLEX] == 0


def test_complex_waves_occur_in_fours(slab_eigenvalues):
    spec = build_spectrum(slab_eigenvalues, EXC)
    n_complex = spec.counts[SpectrumClass.COMPLEX]
    assert n_complex > 0
    assert n_complex % 4 == 0
    vals = spec.eigenvalues
    for e in spec.entries:
        if e.cls is not SpectrumClass.COMPLEX:
            continue
        scale = 1e-8 * (1.0 + abs(e.gamma))
        assert abs(vals[e.partner_neg] + e.gamma) <= scale
        assert abs(vals[e.partner_conj] - e.gamma.conjugate()) <= scale
        assert abs(vals[e.partner_negconj] + e.gamma.conjugate()) <= scale


def test_count_helpers(slab_eigenvalues):
    spec = build_spectrum(slab_eigenvalues, EXC)
    assert count_real_outside_exclusion(spec) == \
        spec.counts[SpectrumClass.PROPAGATING]
    # band exclusion removes the degeneration clusters from the disk count
    with_band = count_in_disk(slab_eigenvalues, 3.0, EXC, band_margin=0.1)
    no_band = int(np.sum(np.abs(slab_eigenvalues) <= 3.0))
    assert with_band < no_band


def test_degeneration_scan_homogeneous_full_collapse(homog_pencil):
    small = wp.make_pencil(wp.assemble_matrices(
        wp.build_spaces(wp.generate_homogeneous_rect(PI, PI, 4, 4, PI / 2)),
        2.0, 2.0))
    gammas, table = degeneration_scan([small, homog_pencil])
    assert gammas == sorted([-math.sqrt(2), math.sqrt(2)])
    assert table[0][gammas[0]] == small.n
    assert table[1][gammas[1]] == homog_pencil.n


def test_degeneration_scan_slab_nondecreasing(slab_pencil):
    small = wp.make_pencil(wp.assemble_matrices(
        wp.build_spaces(wp.generate_rect_slab(PI, PI, PI / 2, 6, 6)),
        1.0, 4.0))
    gammas, table = degeneration_scan([small, slab_pencil])
    assert gammas == [-2.0, -1.0, 1.0, 2.0]
    for g in gammas:
        assert table[0][g] > 0
        assert table[1][g] >= table[0][g]


def test_degeneration_scan_needs_two_levels(slab_pencil):
    with pytest.raises(ValueError):
        degeneration_scan([slab_pencil])


def _eigvalsh_nullity(pencil, gamma):
    """|eigenvalues| of the whole L(gamma) under the nullity cutoff."""
    cutoff = NULLITY_REL_TOL * wp.pencil.coefficient_scale(pencil, gamma)
    vals = np.linalg.eigvalsh(wp.evaluate(pencil, gamma))
    return int(np.sum(np.abs(vals) <= cutoff))


@pytest.mark.parametrize("case,eps", [
    ("slab12_col3", (1.0, 4.0)), ("slab12_col6", (1.0, 4.0)),
    ("slab12_col9", (1.0, 4.0)), ("slab16_col5", (1.0, 4.0)),
    ("slab20", (1.0, 4.0)), ("box8x6", (2.0, 3.5)),
    ("slab12", (2.3, 1.7)), ("slit", (1.0, 4.0)), ("homog", (2.0, 2.0)),
])
def test_degeneration_count_is_the_numerical_nullity(case, eps, slit_mesh,
                                                     homog_mesh):
    meshes = {
        "slab12_col3": lambda: wp.generate_rect_slab(PI, PI, PI / 4, 12, 12),
        "slab12_col6": lambda: wp.generate_rect_slab(PI, PI, PI / 2, 12, 12),
        "slab12_col9": lambda: wp.generate_rect_slab(PI, PI, 3 * PI / 4,
                                                     12, 12),
        "slab16_col5": lambda: wp.generate_rect_slab(PI, PI, 5 * PI / 16,
                                                     16, 16),
        "slab20": lambda: wp.generate_rect_slab(PI, PI, PI / 2, 20, 20),
        "box8x6": lambda: wp.generate_rect_slab(2 * PI, PI, PI, 8, 6),
        "slab12": lambda: wp.generate_rect_slab(PI, PI, PI / 2, 12, 12),
        "slit": lambda: slit_mesh,
        "homog": lambda: homog_mesh,
    }
    spaces = wp.build_spaces(meshes[case]())
    pencil = wp.make_pencil(wp.assemble_matrices(spaces, *eps))
    counts = degeneration_count(spaces, *eps)
    assert sorted(counts) == wp.pencil.degeneration_points(*eps)
    for g, count in counts.items():
        assert count == analysis.numerical_nullity(pencil, g) \
            == _eigvalsh_nullity(pencil, g)
        if case == "homog":
            assert count == pencil.n
        else:
            assert 0 < count < pencil.n


@pytest.mark.parametrize("nx", [8, 12])
def test_k_decay_slope_near_inverse_law(nx, slab_matrices):
    if nx == 8:
        mats = slab_matrices
    else:
        mats = wp.assemble_matrices(
            wp.build_spaces(wp.generate_rect_slab(PI, PI, PI / 2, nx, nx)),
            1.0, 4.0)
    slope = k_decay_slope(mats)
    assert abs(slope + 1.0) <= 0.3


def test_full_pipeline_on_slit_mesh(slit_mesh):
    # slits keep every verified property intact, including the exact
    # two-route interface agreement (shield traces vanish on both sides)
    spaces = wp.build_spaces(slit_mesh)
    mats = wp.assemble_matrices(spaces, 1.0, 4.0)
    pen = wp.make_pencil(mats)
    ev = solve_pencil(pen).eigenvalues
    assert len(ev) == 4 * spaces.n
    spec = build_spectrum(ev, pen.exclusion)
    rep = verify_all(mats, pencil=pen, spectrum=spec)
    assert rep.all_passed, rep.to_json()
    assert rep["s_line_volume_agreement"].margin == 0.0


def test_verify_all_passes_on_fresh_assembly(slab_matrices, slab_pencil,
                                             slab_eigenvalues):
    spec = build_spectrum(slab_eigenvalues, slab_pencil.exclusion)
    rep = verify_all(slab_matrices, pencil=slab_pencil, spectrum=spec,
                     include_decay_slope=True)
    assert rep.all_passed, rep.to_json()
    names = {c.name for c in rep.checks}
    assert {"hermiticity_s", "a1_bound_upper", "s_bound",
            "pencil_selfadjoint", "symmetry_neg_closure",
            "complex_quadruples", "k_decay_slope_dev"} <= names


def test_verify_all_report_json_shape(slab_matrices):
    import json
    rep = verify_all(slab_matrices)
    data = json.loads(rep.to_json())
    assert all({"check", "margin", "threshold", "sense", "passed"} ==
               set(d.keys()) for d in data)


def test_verify_all_working_memory_is_bounded():
    # Beyond the operators and the Gram blocks (both formed here before
    # the trace), verify_all holds row tiles of the line and volume
    # routes of S, one field block's pair of arrays and its tile buffers,
    # and reads the held operators as views: 0.48 n^2 doubles measured
    # at nx = 20, where holding the four defects O - O^T at once would
    # take 4.01.  At nx = 12 the tile buffers are comparable with n^2.
    for nx, n, bound in ((12, 289, 5.0), (20, 801, 0.55)):
        mats = wp.assemble_matrices(wp.build_spaces(
            wp.generate_rect_slab(PI, PI, PI / 2, nx, nx)), 1.0, 4.0)
        assert mats.n == n
        mats.k, mats.a1, mats.a2, mats.s, mats.gram
        peak = traced_peak(lambda: verify_all(mats, pencil=mats))
        assert peak <= bound * n * n * 8, nx


def test_symmetry_margins_read_the_pairing(slab_matrices, slab_eigenvalues):
    spec = build_spectrum(slab_eigenvalues, EXC)
    rep = verify_all(slab_matrices, spectrum=spec)
    vals = spec.eigenvalues
    scale = 1.0 + np.abs(vals)
    partners = {"neg": -vals, "conj": vals.conj(), "negconj": -vals.conj()}
    worst = {name: np.abs(vals[spec.pairing.partners[name][0]] - target)
             / scale for name, target in partners.items()}
    for name in partners:
        assert rep[f"symmetry_{name}_closure"].margin == \
            pytest.approx(worst[name].max(), rel=1e-15, abs=1e-30)
    is_complex = np.array([e.cls is SpectrumClass.COMPLEX
                           for e in spec.entries])
    assert is_complex.any()
    assert rep["complex_quadruples"].margin == pytest.approx(
        max(w[is_complex].max() for w in worst.values()), rel=1e-15, abs=0)


def test_complex_quadruples_reads_the_complex_values(slab_matrices,
                                                     slab_eigenvalues):
    spec = build_spectrum(slab_eigenvalues, EXC)
    is_complex = np.array([c is SpectrumClass.COMPLEX for c in spec.classes])
    assert np.count_nonzero(is_complex) == 20
    assert verify_all(slab_matrices, spectrum=spec)["complex_quadruples"] \
        .passed
    # one complex value off its quadruple: its partners are 1e-6 away
    vals = slab_eigenvalues.copy()
    k = np.flatnonzero(is_complex)[0]
    vals[k] += 1e-6
    nudged = build_spectrum(vals, EXC)
    assert nudged.counts[SpectrumClass.COMPLEX] == 20
    check = verify_all(slab_matrices, spectrum=nudged)["complex_quadruples"]
    assert check.margin == pytest.approx(1e-6 / (1.0 + abs(vals[k])),
                                         rel=1e-6)
    assert not check.passed


@pytest.mark.parametrize("eps2,nx,total,first_quadrant", [
    (4.0, 8, 20, 5), (4.0, 12, 52, 13), (2.5, 8, 12, 3), (2.5, 12, 44, 11)])
def test_slab_complex_count_is_pinned(eps2, nx, total, first_quadrant):
    # The exact slab spectrum has no complex values; the discrete pencil's
    # come in quadruples and grow with the mesh.  Any change shows here.
    mats = wp.assemble_matrices(wp.build_spaces(
        wp.generate_rect_slab(PI, PI, PI / 2, nx, nx)), 1.0, eps2)
    spec = build_spectrum(solve_pencil(mats).eigenvalues, mats.exclusion)
    assert spec.counts["complex"] == total
    vals = spec.eigenvalues[[c is SpectrumClass.COMPLEX
                             for c in spec.classes]]
    assert np.count_nonzero((vals.real > 0) & (vals.imag > 0)) \
        == first_quadrant


def test_verify_all_fails_on_flipped_interface_edge(slab_mesh):
    flipped = slab_mesh.interface_edges.copy()
    flipped[1] = flipped[1][::-1]
    bad_mesh = wp.Mesh(nodes=slab_mesh.nodes.copy(),
                       triangles=slab_mesh.triangles.copy(),
                       regions=slab_mesh.regions.copy(),
                       edges=slab_mesh.edges.copy(),
                       edge_tags=slab_mesh.edge_tags,
                       interface_edges=flipped)
    spaces = wp.build_spaces(bad_mesh)
    mats = wp.assemble_matrices(spaces, 1.0, 4.0)
    rep = verify_all(mats)
    assert not rep.all_passed
    failed = {c.name for c in rep.failed()}
    assert failed & {"hermiticity_s", "s_line_volume_agreement"}


def test_verify_all_fails_on_negated_k_diagonal(slab_matrices):
    k_bad = slab_matrices.k.copy()
    k_bad[0, 0] = -k_bad[0, 0]
    bad = dataclasses.replace(slab_matrices, k=k_bad)
    rep = verify_all(bad)
    assert not rep.all_passed
    assert not rep["k_positive_definite"].passed


def _dense_bound_margins(mats):
    """Bound margins from the full-size operators against the full Gram."""
    g = linalg.block_diag(*mats.gram)
    a1, a2, s = (linalg.eigh(0.5 * (op + op.T), g, eigvals_only=True)
                 for op in (mats.a1, mats.a2, mats.s))
    k_vals = np.sort(linalg.eigh(mats.k, g, eigvals_only=True))[::-1]
    n_fit = max(int(len(k_vals) * (1.0 / 3.0)), 3)
    slope = np.polyfit(np.log(np.arange(1, n_fit + 1)),
                       np.log(k_vals[:n_fit]), 1)[0]
    return {
        "k_positive_definite": linalg.eigh(mats.k, eigvals_only=True,
                                           subset_by_index=(0, 0))[0],
        "a1_bound_lower": a1[0], "a1_bound_upper": a1[-1],
        "a2_bound_lower": a2[0], "a2_bound_upper": a2[-1],
        "s_bound": np.abs(s).max(),
        "k_decay_slope_dev": abs(slope + 1.0),
    }


@pytest.mark.parametrize("case", ["slab", "slit", "homog"])
def test_block_bounds_equal_the_full_size_eigenproblems(case, slab_matrices,
                                                        homog_matrices,
                                                        slit_mesh):
    if case == "slit":
        mats = wp.assemble_matrices(wp.build_spaces(slit_mesh), 1.0, 4.0)
    else:
        mats = {"slab": slab_matrices, "homog": homog_matrices}[case]
    rep = verify_all(mats, include_decay_slope=True)
    for name, ref in _dense_bound_margins(mats).items():
        assert rep[name].margin == pytest.approx(ref, rel=1e-12, abs=0), name


@pytest.mark.parametrize("name,block,scale", [("a1", 1, 0.5), ("a2", 0, 0.1)])
def test_a_gram_block_changed_off_the_gram_is_eigensolved(name, block, scale,
                                                          slab_matrices):
    # A1's magnetic and A2's electric block are the Gram blocks and take no
    # eigensolve; one lowered diagonal entry keeps the block symmetric, and
    # its Rayleigh quotient at that unit field is ``scale`` < the bound
    j = slab_matrices.spaces.blocks[block].start
    op = getattr(slab_matrices, name).copy()
    op[j, j] *= scale
    bad = dataclasses.replace(slab_matrices, **{name: op})
    rep = verify_all(bad)
    check = rep[f"{name}_bound_lower"]
    assert rep[f"hermiticity_{name}"].passed
    assert not check.passed
    assert check.margin <= scale
    assert check.margin == pytest.approx(
        _dense_bound_margins(bad)[check.name], rel=1e-12, abs=0)


def _svdvals_s_bound(mats):
    """sigma_max(L_pi^-1 F L_psi^-T) from full triangular solves."""
    e, m = mats.spaces.blocks
    f = 0.5 * (mats.s[e, m] + mats.s[m, e].T)
    l_pi, l_psi = (linalg.cholesky(g, lower=True) for g in mats.gram)
    x = linalg.solve_triangular(l_pi, f, lower=True)
    x = linalg.solve_triangular(l_psi, x.T, lower=True)
    return float(linalg.svdvals(x)[0])


@pytest.mark.parametrize("case", ["row_off_interface", "zero"])
def test_s_bound_equals_the_full_svd(case, slab_matrices):
    e, m = slab_matrices.spaces.blocks
    s = slab_matrices.s.copy()
    rows = np.flatnonzero(np.any(s[e, m] != 0.0, axis=1))
    if case == "zero":
        s[:] = 0.0
    else:
        # F's rows are those of the interface nodes; add one more
        assert 0 < len(rows) < slab_matrices.spaces.n_pi
        i = e.start + next(k for k in range(e.stop) if k not in rows)
        s[i, m.start] = s[m.start, i] = 0.3
    mats = dataclasses.replace(slab_matrices, s=s)
    got = verify_all(mats)["s_bound"].margin
    ref = _svdvals_s_bound(mats)
    if case == "zero":
        assert got == ref == 0.0
    else:
        assert got == pytest.approx(ref, rel=1e-12, abs=0)


def test_electric_magnetic_entry_in_a1_fails_parity(slab_matrices):
    # the block-wise bounds rest on this check: a coupling entry that keeps
    # A1 symmetric must still fail the report
    a1 = slab_matrices.a1.copy()
    i, j = 0, slab_matrices.spaces.n_pi
    a1[i, j] = a1[j, i] = 1e-3
    rep = verify_all(dataclasses.replace(slab_matrices, a1=a1))
    assert rep["hermiticity_a1"].passed
    assert not rep["parity_block_structure"].passed
    assert not rep.all_passed


def _loop_identity_margins(pencil, seed=0, n_random=10):
    """The pencil identities from L(g) at each seeded point, as a reference."""
    rng = np.random.default_rng(seed)
    signs = parity_signs(pencil.spaces)
    worst_sa = worst_par = 0.0
    for _ in range(n_random):
        gam = pencil.exclusion.p * complex(rng.standard_normal(),
                                           rng.standard_normal())
        lg = wp.evaluate(pencil, gam)
        denom = np.linalg.norm(lg, "fro")
        worst_sa = max(worst_sa, float(np.linalg.norm(
            lg.conj().T - wp.evaluate(pencil, np.conj(gam)), "fro") / denom))
        plp = signs[:, None] * lg * signs[None, :]
        worst_par = max(worst_par, float(np.linalg.norm(
            plp - wp.evaluate(pencil, -gam), "fro") / denom))
    return worst_sa, worst_par


@pytest.fixture(params=["slab", "slit", "homog"])
def clean_matrices(request, slab_matrices, homog_matrices, slit_mesh):
    if request.param == "slab":
        return slab_matrices
    if request.param == "homog":
        return homog_matrices
    return wp.assemble_matrices(wp.build_spaces(slit_mesh), 1.0, 4.0)


def test_pencil_identities_are_exactly_zero_on_clean_pencils(clean_matrices):
    pen = wp.make_pencil(clean_matrices)
    rep = verify_all(clean_matrices, pencil=pen)
    assert rep["pencil_selfadjoint"].margin == 0.0
    assert rep["pencil_parity"].margin == 0.0
    assert _loop_identity_margins(pen) == (0.0, 0.0)


def _inject(mats, name, i, j, value, symmetric):
    op = getattr(mats, name).copy()
    op[i, j] += value
    if symmetric:
        op[j, i] += value
    return dataclasses.replace(mats, **{name: op})


@pytest.mark.parametrize("defect", ["a1_asymmetric", "a2_asymmetric",
                                    "k_pi_psi", "s_diagonal"])
def test_pencil_identity_gram_forms_match_the_evaluate_loop(defect,
                                                            slab_matrices):
    e = slab_matrices.spaces.n_pi
    bad = {
        "a1_asymmetric": lambda m: _inject(m, "a1", 0, 1, 1.0, False),
        "a2_asymmetric": lambda m: _inject(m, "a2", 0, 1, 1.0, False),
        "k_pi_psi": lambda m: _inject(m, "k", 0, e, 1.0, True),
        "s_diagonal": lambda m: _inject(m, "s", 0, 1, 1.0, True),
    }[defect](slab_matrices)
    pen = wp.make_pencil(bad)
    rep = verify_all(bad, pencil=pen)
    ref = dict(zip(("pencil_selfadjoint", "pencil_parity"),
                   _loop_identity_margins(pen)))
    assert max(ref.values()) > 1e-3
    for name, margin in ref.items():
        assert rep[name].margin == pytest.approx(margin, rel=1e-10, abs=0), name
        assert rep[name].passed == (margin <= rep[name].threshold), name


def _full_size_margins(mats):
    """``hermiticity_*`` and ``parity_block_structure`` from whole matrices."""
    out = {}
    for name in ("k", "a1", "a2", "s"):
        m = getattr(mats, name)
        out[f"hermiticity_{name}"] = float(np.abs(m - m.conj().T).max())
    p = parity_signs(mats.spaces)
    out["parity_block_structure"] = max(
        float(np.abs(p[:, None] * op * p[None, :] - sign * op).max())
        for op, sign in ((mats.a1, 1.0), (mats.a2, 1.0), (mats.k, 1.0),
                         (mats.s, -1.0)))
    return out


@pytest.mark.parametrize("case", ["slab", "slit"])
def test_block_slice_margins_equal_the_full_size_formulas(case, slab_matrices,
                                                          slit_mesh):
    mats = slab_matrices if case == "slab" else wp.assemble_matrices(
        wp.build_spaces(slit_mesh), 1.0, 4.0)
    rep = verify_all(mats)
    for name, margin in _full_size_margins(mats).items():
        assert rep[name].margin == margin, name


@pytest.fixture(scope="module")
def slab20_matrices():
    return wp.assemble_matrices(wp.build_spaces(
        wp.generate_rect_slab(PI, PI, PI / 2, 20, 20)), 1.0, 4.0)


@pytest.mark.parametrize("place", ["first", "last", "last_row", "split",
                                   "below"])
def test_tile_boundary_defects_equal_the_full_size_formulas(place,
                                                            slab20_matrices):
    # n and n_pi are not tile multiples and each field block spans several
    # tiles, so the last tile of each block is partial
    mats = slab20_matrices
    n, e, t = mats.n, mats.spaces.n_pi, analysis.TILE
    assert n % t and e % t and min(e, n - e) > 2 * t
    name, i, j = {
        "first": ("s", 0, 0),
        "last": ("k", n - 2, n - 1),
        "last_row": ("a1", n - 1, 0),
        "split": ("a2", e - 1, e),
        "below": ("s", e + t + 3, t + 1),
    }[place]
    bad = _inject(mats, name, i, j, 0.5, False)
    rep = verify_all(bad, pencil=bad)
    assert not rep.all_passed
    for check, margin in _full_size_margins(bad).items():
        assert rep[check].margin == margin, check
    ref = dict(zip(("pencil_selfadjoint", "pencil_parity"),
                   _loop_identity_margins(bad)))
    assert max(ref.values()) > 1e-3
    for check, margin in ref.items():
        assert rep[check].margin == pytest.approx(margin, rel=1e-10,
                                                  abs=0), check


@pytest.mark.parametrize("case", ["slab", "homog"])
def test_degeneration_scan_counts_once_per_magnitude(case, monkeypatch,
                                                     slab_pencil, homog_pencil):
    if case == "slab":
        pencils = [wp.make_pencil(wp.assemble_matrices(wp.build_spaces(
            wp.generate_rect_slab(PI, PI, PI / 2, 6, 6)), 1.0, 4.0)),
            slab_pencil]
    else:
        pencils = [wp.make_pencil(wp.assemble_matrices(wp.build_spaces(
            wp.generate_homogeneous_rect(PI, PI, 4, 4, PI / 2)), 2.0, 2.0)),
            homog_pencil]
    calls = []
    nullity = analysis.numerical_nullity

    def counted(pencil, gamma, **kwargs):
        calls.append((id(pencil), gamma))
        return nullity(pencil, gamma, **kwargs)

    monkeypatch.setattr(analysis, "numerical_nullity", counted)
    gammas, table = degeneration_scan(pencils)
    magnitudes = {abs(g) for g in gammas}
    assert len(calls) == len(pencils) * len(magnitudes)
    assert len(set(calls)) == len(calls)
    for pen, row in zip(pencils, table):
        assert set(row) == set(gammas)
        for g in gammas:
            assert row[g] == nullity(pen, g)


def test_degeneration_scan_refuses_a_parity_breaking_pencil(slab_matrices,
                                                            slab_pencil):
    bad = _inject(slab_matrices, "a1", 0, slab_matrices.spaces.n_pi, 1e-3,
                  True)
    with pytest.raises(ValueError, match="A1"):
        degeneration_scan([slab_pencil, wp.make_pencil(bad)])


def _break_one_element(monkeypatch, weights, region, factor):
    """Make ``nodal_stiffness`` with ``weights`` scale one element by factor.

    The element is the first triangle of ``region`` none of whose nodes
    lies on the shield or is node 0, so both the electric block and the
    grounded magnetic pair see it.  The dense operators and the pencil's
    nodal forms are both written through the patched kernel.
    """
    kernels = wp.assembly_kernels
    real = kernels.nodal_stiffness

    def broken(mesh, w1, w2, geometry=None):
        form = real(mesh, w1, w2, geometry)
        if (w1, w2) != weights:
            return form
        areas, grads = kernels.triangle_geometry(mesh)
        inside = ~mesh.boundary_node_mask()
        inside[0] = False
        t = next(t for t, tri in enumerate(mesh.triangles)
                 if mesh.regions[t] == region and inside[tri].all())
        w = (factor - 1.0) * (w1 if region == 1 else w2) * areas[t]
        tri = mesh.triangles[t]
        local = np.zeros((mesh.n_nodes, mesh.n_nodes))
        local[np.ix_(tri, tri)] = w * grads[t] @ grads[t].T
        return (form + sparse.csr_matrix(local)).tocsr()

    monkeypatch.setattr(kernels, "nodal_stiffness", broken)


@pytest.mark.parametrize("name,weights,region", [
    ("a1", (1.0, 4.0), 1), ("a2", (1.0, 0.25), 2)])
def test_a_broken_nodal_bound_fails_at_its_extreme_eigenvalue(
        name, weights, region, monkeypatch):
    # one element weight halved under the bound's lower end: the check
    # fails, and its margin is the smallest eigenvalue of the operator
    _break_one_element(monkeypatch, weights, region, 0.5)
    mats = wp.assemble_matrices(wp.build_spaces(
        wp.generate_rect_slab(PI, PI, PI / 2, 8, 8)), 1.0, 4.0)
    assert mats.nodal is not None
    rep = verify_all(mats)
    check = rep[f"{name}_bound_lower"]
    assert not check.passed
    assert check.margin < check.threshold
    assert check.margin == pytest.approx(
        _dense_bound_margins(mats)[check.name], rel=1e-12, abs=0)
    assert {c.name for c in rep.failed()} == {check.name}


def test_a_nonpositive_pivot_never_passes_a_check(slab_spaces, monkeypatch):
    # with every factorization reported indefinite, each bound check fails
    # although its margin, from the dense eigensolve, lies in the bound
    mats = wp.assemble_matrices(slab_spaces, 1.0, 4.0)
    clean = verify_all(mats)
    monkeypatch.setattr(analysis, "_definite_factor", lambda matrix: None)
    rep = verify_all(mats)
    for side in ("lower", "upper"):
        for name in ("a1", "a2"):
            check = rep[f"{name}_bound_{side}"]
            assert not check.passed
            assert check.margin == pytest.approx(
                clean[check.name].margin, rel=1e-12, abs=0)
            assert (check.margin >= check.threshold if side == "lower"
                    else check.margin <= check.threshold)


def test_zero_and_negative_pivots_give_no_factor():
    # SuperLU stops at an exactly zero pivot; a negative one is counted
    for diag in ([1.0, 0.0, 1.0], [1.0, -1e-300, 1.0], [-2.0, 3.0]):
        assert analysis._definite_factor(sparse.diags(diag)) is None
    assert analysis._definite_factor(sparse.diags([1.0, 1e-300])) is not None
    # the spectrum of (g, g) is all at 1: a bound of exactly 1 is not
    # certified, though the margin reads exactly 1
    g = sparse.identity(2, format="csr")
    for sense in (">=", "<="):
        assert analysis._certified_end(g, g, 1.0, sense) == (1.0, False)
        assert analysis._certified_end(g, g, 1.0 - 1e-10, ">=")[1]


def test_a_pivoted_factor_raises():
    # the zero diagonal makes SuperLU pick an off-diagonal pivot
    swap = sparse.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="no inertia"):
        analysis._definite_factor(swap)


def test_inverse_iteration_reports_none_at_its_step_cap(monkeypatch):
    # a 1-step cap cannot separate two close eigenvalues, and the end
    # then comes from the dense eigensolve, joined with the Gram blocks' 1
    a = sparse.diags([0.75, 0.75 + 1e-3, 3.0]).tocsr()
    g = sparse.identity(3, format="csr")
    monkeypatch.setattr(analysis, "MAX_STEPS", 1)
    factor = analysis._definite_factor(a - 0.5 * g)
    assert analysis._inverse_iteration(factor, a, g) is None
    assert analysis._certified_end(a, g, 0.5, ">=") == (0.75, True)
    assert analysis._certified_end(2.0 * a, g, 0.5, ">=") == (1.0, True)
    # a shift next to the end separates them within the default cap
    monkeypatch.setattr(analysis, "MAX_STEPS", 10)
    near = analysis._definite_factor(a - (0.75 - 1e-9) * g)
    assert analysis._inverse_iteration(near, a, g) == pytest.approx(
        0.75, rel=1e-12)


@pytest.mark.parametrize("eps", [(2.3, 1.7), (1.5, 6.0)])
def test_bound_ends_beyond_one_take_no_dense_eigensolve(eps, monkeypatch):
    # at eps_min > 1, A1's electric block starts at eps_min and A2's
    # magnetic block ends at 1 / eps_min, far from their thresholds, where
    # inverse iteration reaches its step cap; one factorization at 1 then
    # gives the joined end 1 without the dense generalized eigensolve
    mats = wp.assemble_matrices(wp.build_spaces(
        wp.generate_rect_slab(PI, PI, PI / 2, 12, 12)), *eps)
    ref = _dense_bound_margins(mats)
    real = linalg.eigh

    def standard_only(a, b=None, **kwargs):
        assert b is None, "a bound end reached the dense eigensolve"
        return real(a, **kwargs)

    monkeypatch.setattr(analysis.linalg, "eigh", standard_only)
    rep = verify_all(mats)
    assert rep.all_passed
    for name in ("a1_bound_lower", "a1_bound_upper", "a2_bound_lower",
                 "a2_bound_upper"):
        assert rep[name].margin == pytest.approx(ref[name], rel=1e-12,
                                                 abs=0), name
    assert rep["a1_bound_lower"].margin == rep["a2_bound_upper"].margin == 1.0


def _unformed_slab_pencil(nx):
    """A slab pencil at eps 1/4 that will form its operators on first read."""
    return wp.make_pencil(wp.assemble_matrices(wp.build_spaces(
        wp.generate_rect_slab(PI, PI, PI / 2, nx, nx)), 1.0, 4.0))


@pytest.mark.parametrize("nx", [20, 40])
def test_nodal_degeneration_scan_reads_no_dense_operator(nx):
    pencils = [_unformed_slab_pencil(nx // 2), _unformed_slab_pencil(nx)]
    # a first scan forms the nodal forms and the coefficient norms, which
    # the pencils keep, and loads the sparse solver
    gammas, table = degeneration_scan(pencils)
    n = pencils[-1].n
    peak = traced_peak(lambda: degeneration_scan(pencils))
    assert peak <= 0.1 * n * n * 8
    for pen, row in zip(pencils, table):
        assert not {"k", "a1", "a2", "s"} & set(vars(pen))
        assert row == degeneration_count(pen.spaces, 1.0, 4.0)
        for g in gammas:
            if g < 0.0:
                assert analysis.numerical_nullity(pen, g) == row[-g]


def test_verify_holds_no_operator_and_one_block_pair():
    # a first run loads the modules verify uses.  On an assembled pencil
    # verify allocates no n x n array: it holds row tiles of the line and
    # volume routes of S, then the tile pass's panels, at most one field
    # block's pair of arrays, and its tile buffers.  Measured 1.10 n^2 8
    # bytes at nx = 20 (n = 801) and 0.63 at nx = 28 (n = 1569), where
    # forming the four operators gave 4.68 and 4.63; the bounds leave
    # about 10% headroom.
    verify_all(_unformed_slab_pencil(4), include_decay_slope=True)
    for nx, n, bound in ((20, 801, 1.2), (28, 1569, 0.7)):
        pen = _unformed_slab_pencil(nx)
        assert pen.n == n
        peak = traced_peak(lambda: verify_all(pen, pencil=pen,
                                              include_decay_slope=True))
        assert peak <= bound * n * n * 8, nx


def _flipped_slab_mesh():
    """The 8 x 8 slab with one interface edge's orientation reversed."""
    mesh = wp.generate_rect_slab(PI, PI, PI / 2, 8, 8)
    flipped = mesh.interface_edges.copy()
    flipped[1] = flipped[1][::-1]
    return wp.Mesh(nodes=mesh.nodes, triangles=mesh.triangles,
                   regions=mesh.regions, edges=mesh.edges,
                   edge_tags=mesh.edge_tags, interface_edges=flipped)


ROUTE_CASES = {
    **{f"slab{nx}-eps{e1}/{e2}": (
        lambda nx=nx: wp.generate_rect_slab(PI, PI, PI / 2, nx, nx), e1, e2)
       for nx in (8, 12) for e1, e2 in ((1.0, 4.0), (1.5, 6.0))},
    "homogeneous": (lambda: wp.generate_homogeneous_rect(PI, PI, 8, 8,
                                                         PI / 2), 2.0, 2.0),
    "slit": ("slit", 1.0, 4.0),
    "flipped": (_flipped_slab_mesh, 1.0, 4.0),
}


def _report_rows(rep):
    return [(c.name, c.margin.hex(), c.threshold, c.sense, c.passed)
            for c in rep.checks]


@pytest.mark.parametrize("case", list(ROUTE_CASES))
def test_held_and_written_operators_give_the_same_report(case, slit_mesh):
    make, e1, e2 = ROUTE_CASES[case]
    mesh = slit_mesh if make == "slit" else make()

    def pencil():
        return wp.make_pencil(wp.assemble_matrices(wp.build_spaces(mesh),
                                                   e1, e2))

    def report(p):
        return _report_rows(verify_all(p, pencil=p, include_decay_slope=True))

    written = pencil()
    want = report(written)
    assert not {"k", "a1", "a2", "s"} & set(vars(written))
    held = pencil()
    held.k, held.a1, held.a2, held.s
    assert report(held) == want
    failed = {row[0] for row in want if not row[4]}
    if case == "flipped":
        # a failing check fails identically on both routes
        assert "hermiticity_s" in failed
    else:
        assert not failed
    # operators supplied as arrays take the dense A1 and A2 eigensolves,
    # whose margins differ in the last places; all else is the same
    supplied = report(dataclasses.replace(pencil()))
    assert len(supplied) == len(want)
    for got, row in zip(supplied, want):
        if row[0].startswith(("a1_bound", "a2_bound")):
            assert got[0] == row[0] and got[2:] == row[2:]
        else:
            assert got == row


def test_verify_forms_and_keeps_no_operator(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("formed an operator")

    for name in ("assemble_k", "assemble_a1", "assemble_a2",
                 "assemble_s_line"):
        monkeypatch.setattr(wp.assembly, name, never)
    pen = _unformed_slab_pencil(8)
    rep = verify_all(pen, pencil=pen, include_decay_slope=True)
    assert rep.all_passed
    assert not {"k", "a1", "a2", "s"} & set(vars(pen))


def test_verify_keeps_no_gram_block_on_either_route():
    pen = _unformed_slab_pencil(6)
    supplied = dataclasses.replace(pen)
    for p in (pen, supplied):
        verify_all(p, pencil=p, include_decay_slope=True)
        assert "gram" not in vars(p)

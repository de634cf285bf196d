"""Curve lab tests: periods, Abel maps, tangents, secancy vectors.

The frozen period matrix for y^2 = x^5 - 1 below is a regression anchor,
originally cross-checked against a doubled-node, perturbed-path quadrature
family and validated end to end by the trisecant fits.
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import mpmath
import numpy as np
import pytest

from theta_secant import curves
from theta_secant.cli import main, run_scenario
from theta_secant.curves import (
    RULE_SIZES,
    CurvePoint,
    CurveSpec,
    abel_map,
    abel_tangent,
    build_abel_data,
    default_corpus,
    fay_vectors,
    load_corpus,
    parse_curve_record,
)
from theta_secant.errors import (
    BranchPoint,
    CoincidentPoints,
    DegenerateCurve,
    ValidationError,
)
from theta_secant.reports import ScenarioConfig
from theta_secant.rng import Xoshiro256
from theta_secant.scenarios import seeded_curve_points
from theta_secant.theta import (PeriodMatrix, lattice_distance, normalized_log_abs_many,
                                theta_jets)

from frozen import assert_frozen

B_X5M1 = np.array([[0.5 + 1.2139220723547202j, 0.0 + 0.5257311121191336j],
                   [0.0 + 0.5257311121191336j, 0.5 + 0.6881909602355868j]])


class TestSpecs:
    def test_genus1_validation(self):
        """Curves are genus 2: a genus-1 spec or record is an unknown kind."""
        with pytest.raises(ValidationError, match="unknown curve kind 'genus1'"):
            CurveSpec("genus1")
        with pytest.raises(ValidationError, match="unknown curve kind 'genus1'"):
            parse_curve_record({"kind": "genus1", "tau": [0.3, 1.1]})

    def test_degenerate_by_discriminant(self):
        # (x-1)^2 (x^3+2): exact double root
        poly = np.polynomial.polynomial.polymul(
            np.polynomial.polynomial.polymul([1, -1], [1, -1]), [2, 0, 0, 1])
        with pytest.raises(DegenerateCurve):
            CurveSpec("hyperelliptic2", poly=list(poly))

    def test_near_degenerate_by_distance(self):
        roots = [0.0, 1e-9, 1.0, 2.0, 3.0]
        poly = np.polynomial.polynomial.polyfromroots(roots)
        with pytest.raises(DegenerateCurve):
            CurveSpec("hyperelliptic2", poly=list(poly))

    def test_scale_free_separation(self):
        # roots 15.8 apart, and roots 1.2e-4 apart: both well separated
        # relative to their scale
        for c0 in (-1e6, -1e-20):
            assert CurveSpec("hyperelliptic2", poly=[c0, 0, 0, 0, 0, 1]).poly[0] == c0

    @pytest.mark.parametrize("mult", [2, 3, 4, 5])
    def test_repeated_root_any_multiplicity(self, mult):
        roots = [0.7 - 0.2j] * mult + [1.5, -0.4 + 1.1j, -1.2 - 0.9j][:5 - mult]
        poly = np.polynomial.polynomial.polyfromroots(roots)
        with pytest.raises(DegenerateCurve):
            CurveSpec("hyperelliptic2", poly=list(poly))

    def test_monic_required(self):
        with pytest.raises(ValidationError):
            CurveSpec("hyperelliptic2", poly=[-1, 0, 0, 0, 0, 2])

    @pytest.mark.parametrize("c0", [float("inf"), float("nan"), [0.0, float("inf")]],
                             ids=["inf", "nan", "inf-imag"])
    def test_non_finite_coefficient_is_a_validation_error(self, c0):
        """A non-finite coefficient is rejected before np.roots sees it."""
        with pytest.raises(ValidationError, match="must be finite"):
            CurveSpec("hyperelliptic2", poly=[c0, 0, 0, 0, 0, 1])

    @pytest.mark.parametrize("c4", [1e62, 1e300])
    def test_huge_coefficient_is_a_validation_error(self, c4):
        """A finite coefficient so large that p at its critical points
        overflows is rejected, not left to overflow the degeneracy check."""
        with pytest.raises(ValidationError, match="too large"):
            CurveSpec("hyperelliptic2", poly=[0, 0, 0, 0, c4, 1])

    @pytest.mark.parametrize("poly", [5, "abcdef", [None, 0, 0, 0, 0, 1],
                                      ["1", 0, 0, 0, 0, 1], [[1.0], 0, 0, 0, 0, 1]])
    def test_malformed_poly_is_a_validation_error(self, poly):
        """A record's poly that is not a list of numbers and [re, im] pairs
        (a string is not a number, though complex() would parse one)."""
        with pytest.raises(ValidationError):
            parse_curve_record({"kind": "hyperelliptic2", "poly": poly})


class TestPeriods:
    def test_x5m1_matrix_frozen(self, x5m1):
        assert np.max(np.abs(x5m1.B.entries - B_X5M1)) < 1e-8

    def test_symmetry_and_posdef(self, x5m1):
        Bm = x5m1.B.entries
        assert np.max(np.abs(Bm - Bm.T)) < 1e-8
        assert np.all(np.linalg.eigvalsh(Bm.imag) > 0)

    def test_doubled_nodes_perturbed_paths_oracle(self, x5m1, monkeypatch):
        monkeypatch.setattr(curves, "DETOUR_SCALE", 0.55)
        monkeypatch.setattr(curves, "QUAD_TOL", 1e-12)
        alt = build_abel_data(x5m1.curve)
        assert np.max(np.abs(alt.B.entries - x5m1.B.entries)) < 1e-8

    def test_corpus_curves_all_build(self):
        assert sorted(default_corpus()) == ["x5m1", "x5pert"]
        for ident, spec in default_corpus().items():
            data = build_abel_data(spec)
            Bm = data.B.entries
            assert np.max(np.abs(Bm - Bm.T)) < 1e-8, ident

    def test_random_quintics_build(self):
        rng = Xoshiro256(5)
        for _ in range(4):
            roots = [0.9 * rng.complex_normal() for _ in range(5)]
            poly = np.polynomial.polynomial.polyfromroots(roots)
            data = build_abel_data(CurveSpec("hyperelliptic2", poly=list(poly)))
            assert data.B.lam_min > 0


def from_roots(roots) -> list:
    """The coefficients of prod (x - r) over roots, increasing degree, in
    Python complex arithmetic (numpy's polyfromroots convolves through BLAS
    dot products, whose rounding depends on the OpenBLAS core)."""
    c = [1 + 0j]
    for r in roots:
        c = [lo - r * hi for lo, hi in zip([0j] + c, c + [0j])]
    return c


def test_engine_outputs_are_pinned():
    """sha256 of B, the a-periods and the Abel maps of two seeded points, on
    both corpus curves and 60 seeded quintics with standard normal roots:
    the curve engine's branch, routing and quadrature, bit for bit (frozen
    from the engine that calls no BLAS or LAPACK routine, so one hash per
    numpy class holds under every OpenBLAS core)."""
    rng = Xoshiro256(2406)
    specs = [default_corpus()[ident] for ident in ("x5m1", "x5pert")]
    for _ in range(60):
        roots = [rng.complex_normal() for _ in range(5)]
        specs.append(CurveSpec("hyperelliptic2", poly=from_roots(roots)))
    h = hashlib.sha256()
    for k, spec in enumerate(specs):
        data = build_abel_data(spec)
        h.update(data.B.entries.tobytes())
        h.update(data.a_periods.tobytes())
        for P in seeded_curve_points(data, Xoshiro256(k), 2):
            h.update(abel_map(data, P).tobytes())
    assert_frozen(h.hexdigest(), {
        "numpy 2.4 X86_V4": "1712249de3a39514b0ed8e8b75d55077172985cb0668a44746c027b3dc55a018",
        "numpy 2.4 X86_V3": "db52a9786d02a81ad6c0531bbdc6ab9826401b29342bd578d3104b672acbae06",
        "numpy 2.4 X86_V2": "99fcff3191d2fd1d858814af50e3d5b5b6f2668ffb4a6fd3b0b7265a3107f753",
    })


def mp_roots(c) -> list:
    """The roots of the polynomial with coefficients c (increasing degree),
    from mpmath.polyroots at 60 bits beyond double."""
    return [complex(z) for z in mpmath.polyroots(c[::-1], maxsteps=100, extraprec=60)]


class TestRoots:
    """curves._roots against mpmath, for p and p', to 1e-13 S, S the largest
    |root| of p; every call also ends within ROOT_SWEEPS sweeps, since it
    raises otherwise."""

    @staticmethod
    def assert_roots_match(c):
        dc = [k * ck for k, ck in enumerate(c)][1:]
        exact = {0: mp_roots(c), 1: mp_roots(dc)}
        scale = max(map(abs, exact[0]))
        for k, poly in enumerate((c, dc)):
            ours = curves._roots(poly)
            assert ours == sorted(ours, key=lambda z: (z.real, z.imag))
            for z in exact[k]:
                assert min(abs(z - w) for w in ours) <= 1e-13 * scale, (poly, z, ours)

    def test_corpus(self):
        corpus = default_corpus()
        for ident in corpus:
            self.assert_roots_match(list(corpus[ident].poly))

    def test_seeded_quintics(self):
        """200 quintics with standard normal complex roots."""
        rng = Xoshiro256(4301)
        for _ in range(200):
            self.assert_roots_match(from_roots([rng.complex_normal() for _ in range(5)]))

    @pytest.mark.parametrize("gap", [1e-2, 1e-3])
    def test_near_double_roots(self, gap):
        """Two roots gap apart among three others.  Any double-precision
        solver's error grows as 1/gap here: at 1e-4 this one reads 1.1e-13 S."""
        self.assert_roots_match(from_roots([0.3 + 0.2j, 0.3 + 0.2j + gap, -1.1,
                                            0.5 - 0.9j, 1.4 + 0.7j]))

    def test_fourfold_root_in_one_sweep(self, monkeypatch):
        """p' = 5x^4 of x^5 - 1: the start circle about the centroid has
        radius 0, and the four roots settle at 0 in the first sweep."""
        monkeypatch.setattr(curves, "ROOT_SWEEPS", 1)
        assert curves._roots([0j, 0j, 0j, 0j, 5 + 0j]) == [0j] * 4

    def test_unsettled_roots_are_a_validation_error(self, monkeypatch):
        """Roots that have not settled by the cap are refused: ValidationError
        from CurveSpec, exit 2 with a JSON error from the command line."""
        monkeypatch.setattr(curves, "ROOT_SWEEPS", 2)
        with pytest.raises(ValidationError, match="did not settle in 2 sweeps"):
            CurveSpec("hyperelliptic2", poly=[-1.1 + 0.05j, -0.2, 0, 0, 0, 1])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["fay-trisecant", "--curve", "x5pert"]) == 2
        assert json.loads(out.getvalue())["error"] == "ValidationError"


@pytest.mark.parametrize("curve", ["x5m1", "x5pert"])
def test_curve_scenarios_call_no_lapack(no_lapack, curve):
    """load_corpus and the five curve scenarios of the benchmark's
    curve-verdicts pass at seed 7 with every LAPACK routine raising."""
    assert curve in load_corpus(curves.default_corpus_path())
    for scenario in ("fay-trisecant", "divisor-identities", "toda", "bdhe", "controls"):
        assert run_scenario(ScenarioConfig(scenario, curve=curve, seed=7)).passed


class TestRuleTable:
    """The frozen Gauss-Legendre rules that every quadrature reads."""

    @staticmethod
    def table(n):
        """Nodes and weights on [-1, 1] of the n-node rule, as stored."""
        xw = np.load(Path(curves.__file__).parent / "data" / "gauss_legendre.npy")
        start = sum(RULE_SIZES[:RULE_SIZES.index(n)])
        return xw[:, start:start + n]

    @pytest.mark.parametrize("n", RULE_SIZES)
    def test_matches_leggauss(self, n):
        # bitwise equal where the table was written; 2 ulp allows for
        # another machine's eigensolver
        for stored, fresh in zip(self.table(n), np.polynomial.legendre.leggauss(n)):
            assert np.all(np.abs(stored - fresh) <= 2 * np.spacing(np.abs(fresh)))

    @pytest.mark.parametrize("n", RULE_SIZES)
    def test_exactly_symmetric(self, n):
        x, w = self.table(n)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])

    @pytest.mark.parametrize("n", RULE_SIZES)
    def test_integrates_monomials_on_unit_interval(self, n):
        t, w = curves._rules()[n]
        x, wx = self.table(n)
        assert np.array_equal(t, 0.5 * (x + 1.0)) and np.array_equal(w, 0.5 * wx)
        assert abs(w.sum() - 1.0) < 1e-14
        # leggauss's own rules err by up to 1.1e-14 (n = 768) and 6.4e-14
        # (n = 1536) on these monomials, in 200-bit arithmetic on the floats
        k = np.arange(2 * n)
        err = np.max(np.abs(w @ t[:, None] ** k - 1.0 / (k + 1)))
        assert err < max(1e-14, 5e-17 * n)

    def test_size_outside_table_raises(self):
        with pytest.raises(KeyError):
            curves._rules()[100]


class TestAbelMap:
    def test_basepoint_maps_to_zero(self, x5m1):
        P = CurvePoint(x=x5m1.basepoint, sheet=1)
        assert np.linalg.norm(abel_map(x5m1, P)) < 1e-9

    def test_sheet_flip_negates(self, x5m1):
        P = CurvePoint(x=0.9 + 0.9j, sheet=1)
        Q = CurvePoint(x=0.9 + 0.9j, sheet=-1)
        assert np.linalg.norm(abel_map(x5m1, P) + abel_map(x5m1, Q)) < 1e-12

    def test_point_y_on_curve(self, x5m1):
        P = CurvePoint(x=0.9 + 0.9j, sheet=-1)
        y = x5m1.point_y(P)
        px = np.polyval(np.array(x5m1.curve.poly[::-1]), P.x)
        assert abs(y * y - px) <= 1e-10 * (1 + abs(px))

    def test_path_independence_mod_lattice(self, x5m1):
        """The routed Abel map agrees mod the lattice with the integral
        along a forced polyline basepoint -> via -> x clear of the cuts."""
        rng = Xoshiro256(21)
        count = 0
        trials = 0
        while count < 100 and trials < 500:
            trials += 1
            x = complex(rng.uniform_in(-2, 2), rng.uniform_in(-2, 2))
            if min(abs(x - r) for r in x5m1.e) < 0.3:
                continue
            via = complex(rng.uniform_in(-3, 3), rng.uniform_in(2.2, 3.5))
            if not (x5m1.seg_clear(x5m1.basepoint, via) and x5m1.seg_clear(via, x)):
                continue
            A1 = abel_map(x5m1, CurvePoint(x=x, sheet=1))
            A2 = x5m1.normalization @ x5m1.path_integral([x5m1.basepoint, via, x])
            assert lattice_distance(A1 - A2, x5m1.B) < 1e-8, (x, via)
            count += 1
        assert count == 100

    def test_forced_crossing_path_rejected(self, x5m1):
        """A segment ending on a cut is not clear, so no forced polyline
        through a point of a cut is integrated."""
        e = x5m1.e
        on_cut = 0.5 * (e[2] + e[3])
        assert not x5m1.seg_clear(0.9 + 0.9j, on_cut)
        assert not x5m1.seg_clear(on_cut, 0.9 + 0.9j)


class TestTangent:
    def test_matches_finite_differences(self, x5m1):
        rng = Xoshiro256(31)
        h = 1e-4
        checked = 0
        while checked < 50:
            x = complex(rng.uniform_in(-1.6, 1.6), rng.uniform_in(-1.6, 1.6))
            if min(abs(x - r) for r in x5m1.e) < 0.35:
                continue
            sheet = 1 if rng.uniform() < 0.5 else -1
            P = CurvePoint(x=x, sheet=sheet)
            t_an = abel_tangent(x5m1, P)
            fd = (abel_map(x5m1, CurvePoint(x=x + h, sheet=sheet))
                  - abel_map(x5m1, CurvePoint(x=x - h, sheet=sheet))) / (2 * h)
            assert np.max(np.abs(t_an - fd)) < 1e-6
            checked += 1

    def test_branch_point_rejected(self, x5m1):
        with pytest.raises(BranchPoint):
            abel_tangent(x5m1, CurvePoint(x=1.0 + 0j, sheet=1))


def test_riemann_vanishing_on_the_abel_curve():
    """Riemann's vanishing theorem (Mumford, Tata Lectures on Theta I,
    ch. II section 3), an oracle for the Abel map independent of the
    trisecant fits: with the basepoint at a Weierstrass point, the theta
    divisor contains the Abel image of the curve shifted by the half period
    kappa = (a + B b)/2, a = b = (0, 1), so theta(A(P) + kappa | B) and its
    derivative along the curve's tangent abel_tangent(P) vanish.  Measured:
    values at most 1.22e-14, tangent ratios at most 1.45e-14.  Control: on
    B + 1e-6 M, with kappa taken from that matrix, every value is at least
    4.7e-7."""
    specs = [default_corpus()[ident] for ident in ("x5m1", "x5pert")]
    for k in range(8):
        r = random.Random(k)
        roots = [complex(r.uniform(-1, 1), r.uniform(-1, 1)) for _ in range(5)]
        specs.append(CurveSpec("hyperelliptic2",
                               poly=list(np.polynomial.polynomial.polyfromroots(roots))))
    ab = np.array([0.0, 1.0])
    M = np.array([[0.3, -0.7], [-0.7, 0.5]])      # the mutation rows' perturbation
    for spec in specs:
        data = build_abel_data(spec)
        pts = seeded_curve_points(data, Xoshiro256(3), 6)
        A = np.array([abel_map(data, P) for P in pts])
        T = np.array([abel_tangent(data, P) for P in pts])
        B = data.B
        Z = A + 0.5 * (ab + B.entries @ ab)
        jets = theta_jets(Z, B, dirs=np.eye(2))
        assert np.exp(normalized_log_abs_many(jets, B, Z)).max() <= 1e-12, spec.poly
        grad = np.stack([jets.sums["d0"], jets.sums["d1"]], axis=1)   # one scale per row
        along = np.abs(np.sum(grad * T, axis=1))
        assert np.all(along <= 1e-12 * np.linalg.norm(grad, axis=1)
                      * np.linalg.norm(T, axis=1)), spec.poly
        Bc = PeriodMatrix(B.entries + 1e-6 * M)
        Zc = A + 0.5 * (ab + Bc.entries @ ab)
        assert np.exp(normalized_log_abs_many(theta_jets(Zc, Bc), Bc, Zc)).min() >= 1e-7, spec.poly


class TestFayVectors:
    def test_coincident_rejected(self, x5m1, fay_data):
        pts = fay_data["points"]
        with pytest.raises(CoincidentPoints):
            fay_vectors(x5m1, pts[0], pts[1], pts[0], pts[3])

    def test_vectors_distinct_mod_lattice(self, x5m1, fay_data):
        U, V, A = fay_data["U"], fay_data["V"], fay_data["A"]
        for vec in (U, V, A, U - V, U - A, V - A):
            assert lattice_distance(vec, x5m1.B) > 1e-8


def test_corpus_round_trip(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('[{"id": "t", "kind": "hyperelliptic2", '
                    '"poly": [[-1.1, 0.05], -0.2, 0, 0, [0.0, 0.0], 1]}]')
    corpus = load_corpus(path)
    assert corpus["t"].poly == (-1.1 + 0.05j, -0.2, 0, 0, 0, 1)
    with pytest.raises(ValidationError):
        load_corpus(__file__)  # not JSON


def test_corpus_validated_per_lookup(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps([
        {"id": "good", "kind": "hyperelliptic2",
         "poly": [[-1.0, 0.0], [0, 0], [0, 0], [0, 0], [0, 0], [1.0, 0.0]]},
        {"id": "double", "kind": "hyperelliptic2",      # (x - 1)^2 (x^3 + 2)
         "poly": [2, -4, 2, 1, -2, 1]},
        {"id": "nopoly", "kind": "hyperelliptic2"},
        ["not", "a", "record"],
        {"id": [5], "kind": "genus1", "tau": [0.0, 1.0]},
    ]))
    corpus = load_corpus(path)
    assert sorted(corpus) == ["[5]", "curve3", "double", "good", "nopoly"]
    assert "double" in corpus
    assert corpus["good"].poly[0] == -1.0
    with pytest.raises(DegenerateCurve):
        corpus["double"]
    for ident in ("nopoly", "curve3"):
        with pytest.raises(ValidationError):
            corpus[ident]

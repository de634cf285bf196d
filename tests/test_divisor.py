"""Divisor sampling and on-divisor identity tests."""

import hashlib

import numpy as np
import pytest

from theta_secant.cli import run_scenario
from theta_secant.curves import build_abel_data, default_corpus
from theta_secant.divisor import (
    MAX_PROBE_DEPTH,
    line_roots,
    residual_cm7,
    residual_cm7d,
    sample_theta_divisor,
    singular_locus_probe,
    verify_samples,
)
from theta_secant.errors import DimensionMismatch, ValidationError
from theta_secant.reports import ScenarioConfig
from theta_secant.rng import Xoshiro256, random_siegel, random_z
from theta_secant.theta import PeriodMatrix, lattice_distance, normalized_log_abs_many, theta_jets
from frozen import assert_frozen
from theta_values import jet_at, rel_diff, value_at

B_I = PeriodMatrix([[1j]])


def reference_line(B):
    """The x5m1 line of bench/reference.py; its edges bisect to depth 5."""
    V = np.array([0.6 + 0.2j, -0.3 + 0.5j])
    return np.array([0.21 + 0.1j, -0.13 + 0.05j]), V / np.linalg.norm(V), B


class TestSampling:
    def test_genus1_all_at_odd_half_period(self):
        samples = sample_theta_divisor(B_I, seed=11, count=5)
        target = np.array([(1 + 1j) / 2])
        for s in samples:
            assert lattice_distance(s.Z - target, B_I) < 1e-8
            assert s.theta_abs <= 1e-10

    def test_count_zero_empty(self):
        assert sample_theta_divisor(B_I, seed=1, count=0) == []

    def test_count_cap(self):
        with pytest.raises(ValidationError):
            sample_theta_divisor(B_I, seed=1, count=10 ** 4 + 1)

    def test_negative_count_rejected(self, lattice_passes):
        # invalid input, not a failed root search
        with pytest.raises(ValidationError):
            sample_theta_divisor(B_I, seed=1, count=-1)
        assert lattice_passes == []

    def test_genus2_membership_and_reverify(self, x5m1, divisor_samples, divisor_points):
        assert len(divisor_samples) == 10
        for s in divisor_samples:
            assert s.theta_abs <= 1e-10
        assert verify_samples(divisor_points, x5m1.B) <= 1e-10

    def test_reverify_is_one_pass(self, x5m1, divisor_points, lattice_passes):
        """One pass over all the points, the rows of a (P, g) array, gives
        bitwise the largest of the one-point re-evaluations."""
        B = x5m1.B
        worst = verify_samples(divisor_points, B)
        assert lattice_passes == [(len(divisor_points), False)]
        assert worst == max(verify_samples(z[None], B) for z in divisor_points)

    def test_modulus_is_a_fresh_pass(self, x5m1, divisor_samples):
        """theta_abs, kept from the last Newton pass, is bitwise the
        normalized modulus of a fresh value pass at Z."""
        B = x5m1.B
        for s in divisor_samples:
            Z = s.Z[None]
            assert s.theta_abs == np.exp(normalized_log_abs_many(theta_jets(Z, B), B, Z)[0])

    def test_samples_distinct(self, divisor_samples):
        for i in range(len(divisor_samples)):
            for j in range(i + 1, len(divisor_samples)):
                d = np.linalg.norm(divisor_samples[i].Z - divisor_samples[j].Z)
                assert d > 1e-6


class TestCm7d:
    def test_genus1_classical_identity(self):
        rng = Xoshiro256(13)
        Z = np.array([[(1 + 1j) / 2]])
        worst = 0.0
        for _ in range(20):
            worst = max(worst, residual_cm7d(Z, random_z(rng, 1, 0.4),
                                             random_z(rng, 1, 0.4), B_I)[0])
        assert worst <= 1e-10

    def test_genus2_jacobian(self, x5m1, fay_data, divisor_points):
        assert max(residual_cm7d(divisor_points, fay_data["U"], fay_data["V"], x5m1.B)) <= 1e-8

    def test_decomposable_control(self, fay_data):
        Bd = PeriodMatrix(np.diag([1j, 1.3j]))
        Z = np.array([s.Z for s in sample_theta_divisor(Bd, seed=5, count=5)])
        assert min(residual_cm7d(Z, fay_data["U"], fay_data["V"], Bd)) >= 1e-2

    def test_sign_flip_symmetry(self, x5m1, fay_data, divisor_points):
        U, V, Z = fay_data["U"], fay_data["V"], divisor_points[:3]
        for a, b in zip(residual_cm7d(Z, U, V, x5m1.B), residual_cm7d(Z, -U, -V, x5m1.B)):
            assert abs(a - b) <= 1e-10


class TestCm7:
    def test_genus2_degenerated_data(self, x5m1, tangent_data, divisor_points):
        worst = max(residual_cm7(divisor_points, tangent_data["U"], tangent_data["V"], x5m1.B))
        assert worst <= 1e-7

    def test_random_control(self, x5m1, divisor_points):
        rng = Xoshiro256(23)
        best = max(
            min(residual_cm7(z[None], random_z(rng, 2, 0.4), random_z(rng, 2, 0.4),
                             x5m1.B)[0] for z in divisor_points)
            for _ in range(3))
        assert best >= 1e-2

    def test_zero_direction_residual_zero(self, x5m1, divisor_points):
        U = np.array([0.3 + 0.1j, -0.2 + 0.2j])
        V = np.zeros(2, complex)
        assert residual_cm7(divisor_points[:1], U, V, x5m1.B) == [0.0]

    def test_v_scaling_invariance(self, x5m1, tangent_data, divisor_points):
        U, V = tangent_data["U"], tangent_data["V"]
        Z = divisor_points[:1]
        (base,) = residual_cm7(Z, U, V, x5m1.B)
        for lam in (0.5, 2.0):
            assert abs(residual_cm7(Z, U, lam * V, x5m1.B)[0] - base) <= 1e-9


class TestReference:
    """Both residuals at random points off the divisor, against the same
    identities written with theta values from their own passes."""

    @staticmethod
    def _points(B, count):
        rng = Xoshiro256(29)
        return [tuple(random_z(rng, B.g, 0.4) for _ in range(3)) for _ in range(count)]

    def test_cm7(self, x5m1):
        B = x5m1.B
        for Z, U, V in self._points(B, 6):
            jp = jet_at(Z + U, B, dirs=(V,))
            jm = jet_at(Z - U, B, dirs=(V,))
            jz = jet_at(Z, B, dirs=(V, V))
            a = (jp["d0"] * jm["f"] + jp["f"] * jm["d0"]) * jz["d0"]
            b = jp["f"] * jm["f"] * jz["d01"]
            want = abs(a - b) / (abs(a) + abs(b))
            assert want >= 1e-2
            assert abs(residual_cm7(Z[None], U, V, B)[0] - want) <= 1e-12 * want

    def test_cm7d(self, x5m1):
        B = x5m1.B
        for Z, U, V in self._points(B, 6):
            f, ls = value_at([Z + U, Z - V, Z - U + V, Z - U, Z + V, Z + U - V], B)
            want = rel_diff((f[0] * f[1] * f[2], ls[0] + ls[1] + ls[2]),
                            (-(f[3] * f[4] * f[5]), ls[3] + ls[4] + ls[5]))
            assert want >= 1e-2
            assert abs(residual_cm7d(Z[None], U, V, B)[0] - want) <= 1e-12 * want


class TestProbe:
    def test_depth_zero_is_membership(self, x5m1, fay_data, divisor_points):
        (p0,) = singular_locus_probe(divisor_points[:1], fay_data["U"], fay_data["V"],
                                     x5m1.B, 0)
        assert p0 <= 1e-10

    def test_equal_vectors_constant(self, x5m1, fay_data, divisor_samples):
        s = divisor_samples[0]
        U = fay_data["U"]
        (p,) = singular_locus_probe(s.Z[None], U, U, x5m1.B, 7)
        assert abs(p - s.theta_abs) <= 1e-12 + 1e-6 * s.theta_abs

    def test_jacobian_probe_clears_threshold(self, x5m1, fay_data, divisor_points):
        vals = singular_locus_probe(divisor_points, fay_data["U"], fay_data["V"],
                                    x5m1.B, 10)
        assert min(vals) >= 1e-3

    def test_negative_depth_rejected(self, x5m1, fay_data, divisor_points):
        with pytest.raises(ValidationError):
            singular_locus_probe(divisor_points[:1], fay_data["U"],
                                 fay_data["V"], x5m1.B, -1)

    def test_depth_cap(self, x5m1, fay_data, divisor_points, lattice_passes):
        """Past MAX_PROBE_DEPTH the probe is rejected before any pass; at it,
        the probe is one pass of 2K + 1 points."""
        Z, U, V, B = divisor_points[:1], fay_data["U"], fay_data["V"], x5m1.B
        with pytest.raises(ValidationError):
            singular_locus_probe(Z, U, V, B, MAX_PROBE_DEPTH + 1)
        assert lattice_passes == []
        assert singular_locus_probe(Z, U, V, B, MAX_PROBE_DEPTH)[0] >= 1e-3
        assert lattice_passes == [(2 * MAX_PROBE_DEPTH + 1, False)]


class TestPasses:
    def test_one_pass_per_residual(self, x5m1, fay_data, divisor_points,
                                   lattice_passes):
        Z, U, V, B = divisor_points[:1], fay_data["U"], fay_data["V"], x5m1.B
        residual_cm7d(Z, U, V, B)
        assert lattice_passes == [(6, False)]
        lattice_passes.clear()
        singular_locus_probe(Z, U, V, B, 4)
        assert lattice_passes == [(9, False)]

    def test_sample_lists_share_passes(self, x5m1, fay_data, tangent_data,
                                       divisor_points, lattice_passes):
        """Over P points, the rows of a (P, g) array, each residual is one
        call with the passes of one point (cm7 two, cm7d and the probe
        one), and its values are bit for bit those of the P one-row calls;
        no rows give an empty list."""
        B, U, V = x5m1.B, fay_data["U"], fay_data["V"]
        Ut, Vt = tangent_data["U"], tangent_data["V"]
        calls = [lambda Z: residual_cm7d(Z, U, V, B),
                 lambda Z: residual_cm7(Z, Ut, Vt, B),
                 lambda Z: singular_locus_probe(Z, U, V, B, 3)]
        n = len(divisor_points)
        for call, shape in zip(calls, ([6 * n], [2 * n, n], [7 * n])):
            lattice_passes.clear()
            many = call(divisor_points)
            assert [p for p, _ in lattice_passes] == shape
            assert many == [call(z[None])[0] for z in divisor_points]
            assert call(np.empty((0, 2), complex)) == []

    def test_points_are_rows(self, x5m1, fay_data, divisor_points):
        """A point not given as a row of a (P, g) array is a DimensionMismatch."""
        U, V, B = fay_data["U"], fay_data["V"], x5m1.B
        for call in (lambda Z: residual_cm7d(Z, U, V, B),
                     lambda Z: residual_cm7(Z, U, V, B),
                     lambda Z: singular_locus_probe(Z, U, V, B, 3)):
            for Z in (divisor_points[0], divisor_points[:, :1], divisor_points[None]):
                with pytest.raises(DimensionMismatch):
                    call(Z)

    def test_cm7_makes_two_passes(self, x5m1, tangent_data, divisor_points,
                                  lattice_passes):
        # Z +- U share the 1-jet pass; Z's 2-jet keeps a radius of its own
        residual_cm7(divisor_points[:1], tangent_data["U"], tangent_data["V"], x5m1.B)
        assert lattice_passes == [(2, False), (1, False)]


# (lattice passes, points summed over) of every scenario at seed 7
SCENARIO_PASSES = {
    "theta-selftest": (79, 680), "fay-trisecant": (4, 192),
    "divisor-identities": (117, 1079), "toda": (2, 176), "bdhe": (3, 338),
    "rs-dynamics": (5518, 18260), "wave-series": (102, 4202), "controls": (51, 793),
}


class TestLineRoots:
    def test_roots_are_pinned(self, x5m1):
        """(s, modulus) pairs of 21 genus-2 lines, bitwise: the reference
        line, then four seeded lines each on x5m1, x5pert, diag(i, 1.3i) and
        two random Siegel matrices (frozen from the edge-by-edge recursion
        that the bisection rounds replaced)."""
        rng = Xoshiro256(41)
        mats = [x5m1.B, build_abel_data(default_corpus()["x5pert"]).B,
                PeriodMatrix(np.diag([1j, 1.3j]))]
        mats += [random_siegel(rng, 2) for _ in range(2)]
        lines = [reference_line(x5m1.B)]
        for B in mats:
            for _ in range(4):
                Z0 = np.array(rng.complex_vector(2, scale=0.45))
                D = np.array(rng.complex_vector(2))
                lines.append((Z0, D / np.linalg.norm(D), B))
        roots = [line_roots(*line) for line in lines]
        assert [len(r) for r in roots] == [9, 6, 4, 4, 3, 6, 13, 10, 7, 3, 2,
                                           2, 4, 0, 2, 2, 1, 2, 0, 3, 3]
        pairs = np.array([pair for r in roots for pair in r])
        assert_frozen(hashlib.sha256(pairs.tobytes()).hexdigest(), {
            "numpy 2.4 X86_V4 SkylakeX": "f81904bd4ea5dc8711cc5e93ec5ecf5ce35e21040b3f88870806d5daeee69f11",
            "numpy 2.4 X86_V3 Haswell": "25184f7ae4a73cb7212e0aa564516213ef8ee651f043dd42b8d65a19e5cfc0af",
            "numpy 2.4 X86_V2 Nehalem": "5833b6b2891dd2cfdd90678cbdb690ed4dfdc20573d361e9ac1e8faea2cdca09",
        })

    def test_one_pass_per_bisection_round(self, x5m1, lattice_passes):
        """The 81 nodes in one pass, each bisection round in one pass (at
        most 7), then one Newton pass per iteration over the 9 winding
        cells still refining: 237 points in all."""
        line_roots(*reference_line(x5m1.B))
        points = [n for n, binned in lattice_passes]
        assert not any(binned for n, binned in lattice_passes)
        assert points[:6] == [81, 61, 29, 5, 2, 2]
        assert points[6:] == [9, 9, 9, 9, 9, 8, 3, 1] and sum(points) == 237

    @pytest.mark.parametrize("scenario", SCENARIO_PASSES)
    def test_scenario_passes(self, scenario, lattice_passes):
        """The work ledger at seed 7: lattice passes and the points they
        sum over (SCENARIO_PASSES)."""
        passes, points = SCENARIO_PASSES[scenario]
        run_scenario(ScenarioConfig(scenario=scenario, seed=7))
        assert len(lattice_passes) == passes
        assert sum(n for n, _ in lattice_passes) == points

    def test_failed_base_point_try_costs_one_pass(self, lattice_passes):
        """toda on x5m1 at seed 4 clears its window at the second draw: the
        failed try is one pass of 144 points, and the tables and the
        E + 1e-3 control read the winning pass (5 passes, 608 points, when
        the tables made their own)."""
        run_scenario(ScenarioConfig(scenario="toda", curve="x5m1", seed=4))
        assert len(lattice_passes) == 3
        assert sum(n for n, _ in lattice_passes) == 320

"""Operations of the three workloads and the checks of their outputs.

Each workload has ``setup(inputs)`` (the calls into the program made
before the first timed operation), ``run(prepared_op)`` (one timed
operation, returning what the checks need) and ``check(op, result)``
(returning a list of failed-check messages).  Checks run after every
operation has been timed; they use the independent oracle in ``oracle.py``
or properties the method must have, never a stored copy of earlier output.
"""

from __future__ import annotations

import importlib
import math

import numpy as np

from theta_secant import dynamics, kummer, series
from theta_secant.theta import DEFAULT_TOL, PeriodMatrix, ThetaRequest

# the package re-exports the function theta as `theta_secant.theta`; calls go
# through the module so that traced runs see the wrapped names
theta = importlib.import_module("theta_secant.theta")
TOL = DEFAULT_TOL       # the engine's requested tolerance


def cx(p) -> complex:
    return complex(p[0], p[1])


def cvec(ps) -> np.ndarray:
    return np.array([cx(p) for p in ps], dtype=complex)


def cmat(rows) -> np.ndarray:
    return np.array([[cx(p) for p in row] for row in rows], dtype=complex)


def hat(value, z, Yinv) -> float:
    """Normalized modulus |theta| exp(-pi y Y^-1 y) of an oracle value."""
    y = np.asarray(z, complex).imag
    return float(abs(value)) * math.exp(-math.pi * float(y @ Yinv @ y))


# ----------------------------------------------------------------------
# pole-dynamics: genus-1 tasks in one long-lived process
# ----------------------------------------------------------------------

def _g1(p):
    return np.array([complex(p)])


class Pole:

    @staticmethod
    def setup(inputs):
        from workloads import (CM5_SEED, CROSSCHECK, ELLIPTIC_OMEGA1,
                               ELLIPTIC_TAU, F2D_SEED)
        B1 = PeriodMatrix([[1j]])
        prepared = []
        for op in inputs["ops"]:
            p = dict(op)
            if op["kind"] == "rs":
                spec = {"rational": "rational", "trig": ("trig", 2.0),
                        "elliptic": ("elliptic", ELLIPTIC_TAU, ELLIPTIC_OMEGA1)}
                p["state"] = dynamics.RSState(x=cvec(op["x"]), xdot=cvec(op["v"]),
                                              kernel=spec[op["kernel"]])
            elif op["kind"] == "crosscheck":
                p.update(CROSSCHECK)
            else:
                seed = CM5_SEED if op["kind"] == "zero-law" else F2D_SEED
                p["UVZ"] = tuple(_g1(s) for s in seed)
                p["B"] = B1
            prepared.append(p)
        return prepared

    @staticmethod
    def run(p):
        kind = p["kind"]
        if kind == "rs":
            return {"traj": dynamics.rs_integrate(p["state"], p["t_end"], p["h"])}
        if kind == "crosscheck":
            dev, _, _ = dynamics.elliptic_zero_crosscheck(
                p["tau"], p["U"], p["V"], p["Z"], t_end=p["t_end"], h=p["h"],
                samples=p["samples"])
            return {"dev": dev}
        U, V, Z = p["UVZ"]
        B = p["B"]
        if kind == "zero-law":
            grid = np.linspace(p["t0"], p["t0"] + p["span"], p["points"])
            path = dynamics.track_tau_zero(U, V, Z, B, grid)
            r5 = dynamics.cm5_residual(path, U, V, Z, B)
            pert = dynamics.PerturbedTau(dynamics.ThetaTau(U, V, Z, B), 0.05,
                                         x_ref=path.eta[0] + 0.5)
            pathp = dynamics.track_zero(pert, grid, x0=path.eta[0])
            r5p = dynamics.cm5_residual(pathp, U, V, Z, B, tau=pert)
            return {"r5": r5, "r5p": r5p, "t": path.t, "eta": path.eta}
        if kind == "six-factor":
            tau = dynamics.DiscreteTau(U, V, Z, B)
            guess, zeros, res = None, [], []
            for nu in p["levels"]:
                guess = dynamics.find_tau_zero(tau, nu, guess)
                res.append(dynamics.f2d_residual(U, V, Z, B, nu, x_guess=guess))
                zeros.append((nu, guess))
            return {"res": res, "zeros": zeros}
        # series: residue consistency at s = 0, 1 and the periodic recursion
        m0, _, _ = series.discrete_residue_consistency(U, V, Z, B, 0.0, 0)
        m1, _, _ = series.discrete_residue_consistency(U, V, Z, B, 0.0, 1)
        sysd = series.SemidiscreteSystem(np.array([0.2 + 0j]), V, Z + 0.1, B, N=5)
        table = series.new_semidiscrete_table(t_center=0.1, dt=0.01)
        series.semidiscrete_series_extend(table, sysd, 0)
        r0 = series.semidiscrete_resubstitution(table, sysd, 0)
        series.semidiscrete_series_extend(table, sysd, 1)
        r1 = series.semidiscrete_resubstitution(table, sysd, 1)
        t2 = series.new_semidiscrete_table(t_center=0.1, dt=0.01)
        series.semidiscrete_series_extend(t2, sysd, 0)
        series.semidiscrete_series_extend(t2, sysd, 1, skip_normalization=True)
        defect = series.semidiscrete_cyclic_defect(t2, sysd, 2)
        return {"m0": m0, "m1": m1, "resub": max(r0, r1), "defect": defect}

    @staticmethod
    def check(p, out):
        import oracle
        bad = []
        kind = p["kind"]
        if kind == "rs":
            traj = out["traj"]
            if not (np.all(np.isfinite(traj.x)) and np.all(np.isfinite(traj.xdot))):
                bad.append("non-finite trajectory")
            total = traj.xdot.sum(axis=1)
            drift = float(np.max(np.abs(total - total[0])))
            limit = 1e-8 if p["kernel"] == "elliptic" else 1e-9
            if not drift <= limit:
                bad.append(f"total velocity drifts by {drift:.2e}")
            if p["kernel"] == "elliptic":
                bad += Pole._check_kernel(p["state"].kernel, traj, oracle)
        elif kind == "crosscheck":
            if not out["dev"] <= 1e-5:
                bad.append(f"tracked zeros leave the elliptic flow by {out['dev']:.2e}")
        elif kind == "zero-law":
            if not out["r5"] <= 1e-6:
                bad.append(f"zero law residual {out['r5']:.2e}")
            if not out["r5p"] >= 1e-2:
                bad.append(f"perturbed control passes ({out['r5p']:.2e})")
            U, V, Z = p["UVZ"]
            for k in (0, len(out["t"]) // 2, len(out["t"]) - 1):
                w = out["eta"][k] * U + out["t"][k] * V + Z
                bad += _zero_check(w, oracle, f"tracked zero at t={out['t'][k]:.3g}")
        elif kind == "six-factor":
            if not max(out["res"]) <= 1e-8:
                bad.append(f"six-factor residual {max(out['res']):.2e}")
            U, V, Z = p["UVZ"]
            for nu, eta in out["zeros"]:
                w = eta * 0.5 * (U - V) + (nu + 1.0) * 0.5 * (U + V) + Z
                bad += _zero_check(w, oracle, f"discrete zero at nu={nu}")
        else:
            if not max(out["m0"], out["m1"]) <= 1e-8:
                bad.append(f"residue mismatch {max(out['m0'], out['m1']):.2e}")
            if not out["resub"] <= 1e-6:
                bad.append(f"semidiscrete resubstitution {out['resub']:.2e}")
            if not out["defect"] >= 1e-3:
                bad.append(f"skipped normalization leaves no defect ({out['defect']:.2e})")
        return bad

    @staticmethod
    def _check_kernel(kernel, traj, oracle):
        """Engine F against the oracle's odd-theta log derivative."""
        bad = []
        tau, om = kernel.tau, kernel.omega1

        def L(u):
            j = oracle.jtheta_jet(u / om, tau, (1.0,), eps=0.5, delta=0.5)
            return complex(j["d0"] / j["f"]) / om

        for k in (0, len(traj.t) // 2, len(traj.t) - 1):
            q = complex(traj.x[k, 0] - traj.x[k, 1])
            parts = (2.0 * L(q), L(q + 1.0), L(q - 1.0))
            want = parts[0] - parts[1] - parts[2]
            got = kernel.F(q)
            if not abs(got - want) <= 1e-10 * sum(abs(v) for v in parts):
                bad.append(f"elliptic F({q:.3g}) off by {abs(got - want):.2e}")
        return bad


def _zero_check(w, oracle, what):
    """Oracle normalized |theta(w | i)| must vanish at a located zero."""
    j = oracle.jtheta_jet(complex(w[0]), 1j)
    h = hat(j["f"], w, np.array([[1.0]]))
    return [] if h <= 1e-9 else [f"{what}: oracle |theta| = {h:.2e}"]


# ----------------------------------------------------------------------
# siegel-sweep: fresh random period matrices, g = 1 and 2
# ----------------------------------------------------------------------

class Siegel:

    @staticmethod
    def setup(inputs):
        return [{"B": cmat(op["B"]), "z": [cvec(z) for z in op["z"]],
                 "d0": cvec(op["d0"]), "d1": cvec(op["d1"])} for op in inputs["ops"]]

    @staticmethod
    def run(p):
        B = PeriodMatrix(p["B"])
        d0, d1 = p["d0"], p["d1"]
        out = []
        for z in p["z"]:
            out.append({
                "value": theta.theta(ThetaRequest(z, B)),
                "jet1": theta.theta_jet(z, B, dirs=(d0,)),
                "jet2": theta.theta_jet(z, B, dirs=(d0, d1)),
                "l2": theta.level_two_vector(z, B),
                "kummer": kummer.kummer_map(z, B),
            })
        return out

    @staticmethod
    def check(p, out):
        import oracle
        bad = []
        Bm, d0, d1 = p["B"], p["d0"], p["d1"]
        B = PeriodMatrix(Bm)
        mp = oracle.scaled_to_mp

        def gap(sc, ref, peak):
            return oracle.gap(mp(sc.mantissa, sc.logscale), ref, peak)

        # the oracle costs ~10x the engine on thin matrices: it checks the
        # first point in full, the symmetry checks the first two
        for k, (z, res) in enumerate(zip(p["z"][:2], out)):
            bad += _symmetry_checks(z, B, res, oracle.peaks(z, Bm, (d0,)), d0, oracle)
            if k > 0:
                continue
            o = oracle.jet(z, Bm, (d0, d1))
            pairs = [("value", res["value"], "f")]
            pairs += [("jet1." + key, res["jet1"][key], key) for key in ("f", "d0")]
            pairs += [("jet2." + key, res["jet2"][key], key)
                      for key in ("f", "d0", "d1", "d01")]
            for label, sc, key in pairs:
                e = gap(sc, o[key], o.peak[key])
                if not e <= TOL:
                    bad.append(f"{label} off the oracle by {e:.2e} of the largest term")
            ol = oracle.level_two(z, Bm)
            l2 = res["l2"]
            for i, ref in enumerate(ol["f"]):
                e = oracle.gap(mp(l2.coords[i], l2.logscale), ref, ol.peak["f"])
                if not e <= TOL:
                    bad.append(f"level-two component {i} off by {e:.2e}")
            bad += _projective_check(res["kummer"], ol, oracle)
        return bad


def _projective_check(point, ol, oracle):
    ref = np.array([complex(v) for v in ol["f"]])
    a = point.coords / np.linalg.norm(point.coords)
    b = ref / np.linalg.norm(ref)
    c = np.vdot(b, a)
    dist = float(np.linalg.norm(a - (c / abs(c)) * b))
    limit = 10 * TOL * ol.peak["f"] / float(np.linalg.norm(ref))
    return [] if dist <= limit else [f"kummer point off the oracle by {dist:.2e}"]


def _symmetry_checks(z, B, res, peak, d0, oracle):
    """Parity and quasi-periodicity of the engine, in units of the largest term."""
    bad = []
    mp = oracle.scaled_to_mp
    val = mp(res["value"].mantissa, res["value"].logscale)
    der = mp(res["jet1"]["d0"].mantissa, res["jet1"]["d0"].logscale)
    neg = theta.theta_jet(-z, B, dirs=(d0,))
    if not oracle.gap(mp(neg["f"].mantissa, neg["f"].logscale), val, peak["f"]) <= 2 * TOL:
        bad.append("theta(-z) != theta(z)")
    if not oracle.gap(-mp(neg["d0"].mantissa, neg["d0"].logscale), der, peak["d0"]) <= 2 * TOL:
        bad.append("theta'(-z) != -theta'(z)")
    E = B.entries
    for j in range(B.g):
        shifted = theta.theta(ThetaRequest(z + E[:, j], B))
        factor = np.exp(1j * np.pi * E[j, j] + 2j * np.pi * z[j])
        back = mp(shifted.mantissa * factor, shifted.logscale)
        if not oracle.gap(back, val, peak["f"]) <= 2 * TOL:
            bad.append(f"quasi-periodicity fails along B e_{j}")
        unit = np.zeros(B.g)
        unit[j] = 1.0
        per = theta.theta(ThetaRequest(z + unit, B))
        if not oracle.gap(mp(per.mantissa, per.logscale), val, peak["f"]) <= 2 * TOL:
            bad.append(f"periodicity fails along e_{j}")
    return bad


# ----------------------------------------------------------------------
# curve-verdicts: one CLI scenario per fresh interpreter
# ----------------------------------------------------------------------

# checks of direction ">=" in each passing report: the negative controls
CONTROLS = {
    "fay-trisecant": {"random_control", "discrimination_gap"},
    "divisor-identities": {"cm7d_decomposable_control", "cm7_random_control",
                           "singular_locus_probe"},
    "toda": {"perturbed_E_control"},
    "bdhe": {"random_control"},
    "controls": {"fit_gap", "identity_gap", "random_fit", "decomposable_identity"},
}


def _half_period(Bm, k):
    g = Bm.shape[0]
    eps = np.array([(k >> j) & 1 for j in range(g)], dtype=float)
    delta = np.array([(k >> (g + j)) & 1 for j in range(g)], dtype=float)
    return 0.5 * eps + Bm @ (0.5 * delta)


def _lstsq_residual(cols, rhs):
    """Relative least-squares residual of rhs against the given columns."""
    M = np.stack(cols, axis=1)
    scale = max(float(np.max(np.abs(M))), float(np.max(np.abs(rhs))))
    M, rhs = M / scale, rhs / scale
    w, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    return float(np.linalg.norm(M @ w - rhs)
                 / (np.linalg.norm(rhs) + np.linalg.norm(M @ w)))


def _oracle_vec(Z, Bm, oracle, deriv=None):
    return oracle.level_two(Z, Bm, deriv_dir=deriv)["f" if deriv is None else "d0"]


def _common(vecs):
    """Scale a list of mp vectors by one common factor into numpy arrays."""
    ref = max(max(abs(v) for v in vec) for vec in vecs)
    return [np.array([complex(v / ref) for v in vec]) for vec in vecs]


class Curves:

    @staticmethod
    def check(op, out, corpus_path):
        """Report shape, verdicts and controls; oracle recheck of the fits."""
        import json

        import oracle
        bad = []
        report = out["report"]
        data = json.loads(out["json"])
        names = {c["name"] for c in data["checks"]}
        if data["scenario"] != op["scenario"] or data["pass"] != all(
                c["pass"] for c in data["checks"]):
            bad.append("report is inconsistent")
        missing = CONTROLS[op["scenario"]] - {c["name"] for c in data["checks"]
                                              if c["direction"] == ">="}
        if missing or not names:
            bad.append(f"negative controls missing: {sorted(missing)}")
        if not report.passed:
            return bad
        from theta_secant.cli import jacobian_fay_data, resolve_curve
        from theta_secant.curves import abel_tangent, build_abel_data
        from theta_secant.reports import ScenarioConfig
        from theta_secant.rng import Xoshiro256
        scen = op["scenario"]
        config = ScenarioConfig(scen, curve=op["curve"], seed=op["seed"], corpus=corpus_path)
        _, spec = resolve_curve(config)
        data_ = build_abel_data(spec)
        Bm = data_.B.entries
        rng = Xoshiro256(op["seed"])
        if scen in ("fay-trisecant", "bdhe"):
            tuples = 2 if scen == "fay-trisecant" else 1
            for _ in range(tuples):
                U, V, A, _ = jacobian_fay_data(data_, rng)
            As = A + _half_period(Bm, report.extra["calibration_shift"])
            c1, c2, c3 = _common([_oracle_vec((As - U - V) / 2, Bm, oracle),
                                  _oracle_vec((As + U - V) / 2, Bm, oracle),
                                  _oracle_vec((As + V - U) / 2, Bm, oracle)])
            r = _lstsq_residual([c2, -c3], -c1)
            if not r <= 1e-8:
                bad.append(f"oracle secancy residual {r:.2e} at the chosen shift")
        elif scen == "toda":
            U, V, A, pts = jacobian_fay_data(data_, rng)
            Vt = abel_tangent(data_, pts[1])
            As = A + _half_period(Bm, report.extra["calibration_shift"])
            cm, cp, cd = _common([_oracle_vec((As - U) / 2, Bm, oracle),
                                  _oracle_vec((As + U) / 2, Bm, oracle),
                                  _oracle_vec((As - U) / 2, Bm, oracle, deriv=Vt)])
            r = _lstsq_residual([cp, -cm], cd)
            if not r <= 1e-7:
                bad.append(f"oracle tangency residual {r:.2e} at the chosen shift")
        elif scen == "divisor-identities":
            from theta_secant.divisor import sample_theta_divisor
            Yinv = np.linalg.inv(Bm.imag)
            for s in sample_theta_divisor(data_.B, op["seed"], 5):
                h = hat(oracle.jet(s.Z, Bm)["f"], s.Z, Yinv)
                if not h <= 1e-10 + TOL:
                    bad.append(f"divisor sample off the divisor: oracle |theta| {h:.2e}")
        return bad


WORKLOADS = {"pole-dynamics": Pole, "siegel-sweep": Siegel, "curve-verdicts": Curves}

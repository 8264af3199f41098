"""End-to-end acceptance gate.

Ten criteria, each printing exactly one PASS/FAIL line (bypassing
capture, so the verdicts always reach the console) with the measured
value and the tolerance used.  Tolerances are h^2-scaled where the
quantity is a discretization residual; convergence orders are required
to sit in a band around 2 wherever the residual is above machine noise.
"""

import time

import numpy as np
import pytest

from willmorelab import gauss_frame, harmonic, lorentz, reconstruct, spinor
from willmorelab import surface, zoo
from willmorelab.chart import Chart, sup_norm
from willmorelab.gauss_frame import maurer_cartan

from conftest import pipeline
import helpers
import oracles

ZOO_WILLMORE = ["round_sphere", "clifford_torus", "catenoid", "enneper",
                "veronese_s4"]
NOISE = 1e-11          # below this a residual counts as exact


_CONSOLE = print


@pytest.fixture(autouse=True)
def _console(capfd):
    """Let the verdict lines through pytest's capture to the real console."""
    global _CONSOLE

    def say(line):
        with capfd.disabled():
            print(line, flush=True)

    _CONSOLE = say
    yield
    _CONSOLE = print


def verdict(num, name, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    _CONSOLE(line)
    assert ok, line


def order2(r_coarse, r_fine):
    """log2 ratio, or None when the pair is at machine noise."""
    if r_coarse <= NOISE or r_fine <= 0:
        return None
    return float(np.log2(r_coarse / r_fine))


def fresh(kind, N, param=None):
    spec = zoo.SurfaceSpec(kind, param)
    c = zoo.default_chart(spec, N)
    S = surface.build_surface_data(zoo.generate(spec, c), c)
    return c, S


def _energy(kind, N, param=None):
    c, S = fresh(kind, N, param)
    return c, S, gauss_frame.willmore_energy(surface.invariants(S),
                                             c)["value"]


def test_criterion_1_energy_vs_classical_oracle():
    """The Clifford torus against the fundamental-form quadrature and
    2 pi^2, and the torus of revolution with radius ratio sqrt2 against
    its closed form pi^2 R^2 / sqrt(R^2 - 1) (Willmore 1965), an oracle
    that shares no code with the package.  On the Clifford torus the
    quadrature reads the package's value to the last bit, so it cannot
    tell two implementations apart; the closed form can: the Richardson
    extrapolation (4 E(256) - E(128)) / 3 lies 6.2e-8 from it
    (relative), and an energy scaled by 1 + 1e-6 moves that to 9.4e-7,
    past the 3e-7 bar."""
    t0 = time.time()
    exact = 2 * np.pi**2
    errs, W, Wo = [], None, None
    for N in (32, 64, 128):
        c, S, W = _energy("clifford_torus", N)
        y = S.Y[..., 1:] / S.Y[..., :1]          # unit-sphere representative
        Wo = oracles.classical_willmore_energy_s3(y, c.hu, c.hv)
        errs.append(abs(W - exact))
    rel_exact = errs[-1] / exact
    rel_oracle = abs(W - Wo) / Wo
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    R = np.sqrt(2.0)
    closed = np.pi**2 * R**2 / np.sqrt(R**2 - 1)
    torus = [_energy("torus_of_revolution", N, R)[2] for N in (64, 128, 256)]
    terrs = [abs(E - closed) for E in torus]
    tratios = [terrs[0] / terrs[1], terrs[1] / terrs[2]]
    rel_torus = terrs[-1] / closed
    rel_rich = abs((4 * torus[2] - torus[1]) / 3 - closed) / closed
    elapsed = time.time() - t0
    ok = (rel_oracle <= 1e-3 and rel_exact <= 1e-3 and rel_torus <= 1e-3
          and rel_rich <= 3e-7
          and all(3.5 <= r <= 4.5 for r in ratios + tratios)
          and elapsed <= 30)
    verdict(1, "energy vs fundamental-form quadrature and closed form", ok,
            f"clifford rel_err(oracle)={rel_oracle:.2e} "
            f"rel_err(2pi^2)={rel_exact:.2e} (tol 1e-3), ratios "
            f"{ratios[0]:.2f}/{ratios[1]:.2f}; torus(sqrt2) "
            f"rel_err(closed form)={rel_torus:.2e} (tol 1e-3), "
            f"richardson {rel_rich:.2e} (tol 3e-7), ratios "
            f"{tratios[0]:.2f}/{tratios[1]:.2f} (band [3.5, 4.5]), "
            f"{elapsed:.1f}s (limit 30s)")


def test_criterion_2_structure_residuals_second_order():
    worst = {"C": 0.0, "order": None, "slow": 0.0}
    orders_ok = True
    per_surface = []
    for kind in ZOO_WILLMORE:
        t0 = time.time()
        sups = {}
        for N in (48, 96):
            c, S = fresh(kind, N)
            inv = surface.invariants(S)
            r = {("st." + k): v["sup"] for k, v in inv.structure.items()}
            r.update({("in." + k): v["sup"]
                      for k, v in surface.integrability_residuals(
                          inv, surface.willmore_residual(inv, c), c).items()})
            sups[N] = (c.h, r)
        elapsed = time.time() - t0
        per_surface.append((kind, elapsed))
        h96, r96 = sups[96]
        for name in r96:
            worst["C"] = max(worst["C"], r96[name] / h96**2)
            p = order2(sups[48][1][name], r96[name])
            if p is not None:
                orders_ok &= 1.7 <= p <= 2.3
                if worst["order"] is None or abs(p - 2) > abs(
                        worst["order"] - 2):
                    worst["order"] = p
        worst["slow"] = max(worst["slow"], elapsed)
    ok = worst["C"] <= 100 and orders_ok and worst["slow"] <= 60
    verdict(2, "structure+integrability residuals are O(h^2) on the zoo", ok,
            f"max sup/h^2 = {worst['C']:.1f} (tol 100), worst order "
            f"{worst['order']:.2f} (band [1.7, 2.3]), slowest surface "
            f"{worst['slow']:.1f}s (limit 60s)")


def test_criterion_3_willmore_residual_separates_zoo_from_control():
    worst_C, orders_ok, worst_order = 0.0, True, 2.0
    for kind in ZOO_WILLMORE:
        vals = {}
        for N in (48, 96):
            c, S, _, _ = pipeline(kind, N)
            vals[N] = (c.h, sup_norm(surface.willmore_residual(
                surface.invariants(S), c), c))
        h96, r96 = vals[96]
        worst_C = max(worst_C, r96 / h96**2)
        p = order2(vals[48][1], r96)
        if p is not None:
            orders_ok &= p >= 1.7
            if abs(p - 2) > abs(worst_order - 2):
                worst_order = p
    ctrl = {}
    for N in (48, 96):
        c, S, _, _ = pipeline("torus_of_revolution", N, 3.0)
        ctrl[N] = sup_norm(surface.willmore_residual(
            surface.invariants(S), c), c)
    ctrl_floor = min(ctrl.values())
    ctrl_ratio = ctrl[48] / ctrl[96]
    ok = (worst_C <= 100 and orders_ok
          and ctrl_floor >= 0.1 and ctrl_ratio <= 1.5)
    verdict(3, "willmore residual O(h^2) on zoo, O(1) on non-Willmore torus",
            ok, f"zoo max sup/h^2 = {worst_C:.1f} (tol 100), worst order "
            f"{worst_order:.2f} (>= 1.7); control floor {ctrl_floor:.2f} "
            f"(>= 0.1), control ratio {ctrl_ratio:.2f} (<= 1.5)")


def test_criterion_4_extended_family_flatness():
    worst_C, orders_ok, worst_order = 0.0, True, 2.0
    for kind in ZOO_WILLMORE:
        sweeps = {}
        for N in (48, 96):
            c, _, _, M = pipeline(kind, N)
            sweeps[N] = (c.h, [r["sup"] for r in
                               harmonic.harmonicity(M)["flatness"]])
        h96, r96 = sweeps[96]
        for i, v in enumerate(r96):
            worst_C = max(worst_C, v / h96**2)
            p = order2(sweeps[48][1][i], v)
            if p is not None:
                orders_ok &= p >= 1.7
                if abs(p - 2) > abs(worst_order - 2):
                    worst_order = p
    # control: flat at the trivial parameter, obstructed a quarter turn in
    ctrl = {}
    for N in (48, 96):
        c, _, _, M = pipeline("torus_of_revolution", N, 3.0)
        sweep = harmonic.harmonicity(M, (1.0, 1j))["flatness"]
        ctrl[N] = (c.h, sweep[0]["sup"], sweep[1]["sup"])
    at_one = ctrl[96][1] / ctrl[96][0]**2
    at_i = min(ctrl[48][2], ctrl[96][2])
    ok = (worst_C <= 150 and orders_ok and at_one <= 10
          and at_i >= 0.1 and ctrl[48][2] / ctrl[96][2] <= 1.5)
    verdict(4, "loop-parameter flatness for conformal Gauss maps", ok,
            f"zoo max sup/h^2 = {worst_C:.1f} over 4 unit parameters "
            f"(tol 150), worst order {worst_order:.2f} (>= 1.7); control "
            f"sup/h^2 = {at_one:.2f} at 1 (tol 10) but >= {at_i:.2f} at i "
            f"(>= 0.1, non-shrinking)")


def test_criterion_5_strong_conformality():
    worst_C = 0.0
    for kind in ZOO_WILLMORE:
        c, _, _, M = pipeline(kind, 96)
        sup = harmonic.harmonicity(M)["strong_conformality"]
        worst_C = max(worst_C, sup / c.h**2)
    c = Chart(0, 2 * np.pi, 0, 2 * np.pi, 32, 32, "periodic-both")
    rng = np.random.default_rng(5)
    B1 = np.stack([helpers.smooth_scalar_field(c, rng)
                   + 1j * helpers.smooth_scalar_field(c, rng)
                   for _ in range(8)], axis=-1).reshape(c.shape + (4, 2))
    rand = harmonic.harmonicity(helpers.pair_with_B1(B1, c))[
        "strong_conformality"] / (np.max(np.abs(B1))**2)
    ok = worst_C <= 100 and rand >= 0.1
    verdict(5, "B1^t I B1 vanishes exactly for Gauss maps", ok,
            f"zoo max sup/h^2 = {worst_C:.1f} (tol 100); random smooth "
            f"block scores {rand:.2f} (>= 0.1)")


def test_criterion_6_matrix_model_sweeps():
    rng = np.random.default_rng(20240817)
    t0 = time.time()
    n = 1000
    x = rng.normal(size=(n, 4))
    y = rng.normal(size=(n, 4))
    det_err = np.max(np.abs(np.linalg.det(spinor.vec_to_mat(x))
                            + lorentz.inner(x, x)))
    polar = -0.5 * (np.linalg.det(spinor.vec_to_mat(x + y))
                    - np.linalg.det(spinor.vec_to_mat(x))
                    - np.linalg.det(spinor.vec_to_mat(y)))
    inner_err = np.max(np.abs(polar - lorentz.inner(x, y)))
    m = spinor.vec_to_mat(x)
    herm_err = np.max(np.abs(m - np.conj(np.swapaxes(m, -1, -2))))

    def sl2(k):
        g = rng.normal(size=(k, 2, 2)) + 1j * rng.normal(size=(k, 2, 2))
        return g / np.sqrt(np.linalg.det(g))[..., None, None]

    g1, g2 = sl2(n), sl2(n)
    hom_err = np.max(np.abs(spinor.sl2_to_so13(g1 @ g2)
                            - spinor.sl2_to_so13(g1)
                            @ spinor.sl2_to_so13(g2)))
    A = spinor.sl2_to_so13(g1)
    ok_grp, _ = lorentz.validate_group(A, 1e-9)
    orthochronous = bool(np.all(A[..., 0, 0] > 0))
    elapsed = time.time() - t0
    ok = (det_err <= 1e-12 and inner_err <= 1e-12 and herm_err <= 1e-14
          and hom_err <= 1e-11 and np.all(ok_grp) and orthochronous
          and elapsed <= 5)
    verdict(6, "matrix model of Minkowski 4-space, 1000-sample sweeps", ok,
            f"det={det_err:.1e} inner={inner_err:.1e} (tol 1e-12), "
            f"hermitian={herm_err:.1e} (tol 1e-14), "
            f"homomorphism={hom_err:.1e} (tol 1e-11), "
            f"orthochronous={orthochronous}, {elapsed:.2f}s (limit 5s)")


def test_criterion_7_synthetic_normalization_roundtrips():
    c = Chart(0, 2 * np.pi, 0, 2 * np.pi, 24, 24, "periodic-both")
    rng = np.random.default_rng(11)
    worst_shape, worst_jump, signs_ok = 0.0, 0.0, True
    for rank in (1, 2):
        for sign in (-1, 1):
            B1can = helpers.canonical_B1_field(c, rng, n=2, rank=rank)
            Lam = helpers.random_so13_gauge(c, rng).astype(complex)
            scrambled = Lam @ (np.conj(B1can) if sign > 0 else B1can)
            # rank one admits both coordinates, so that case names its own
            want = sign if rank == 1 else None
            A, Bhat, got = spinor.canonicalize_B1(scrambled, c, sign=want)
            signs_ok &= (got == sign)
            worst_shape = max(worst_shape,
                              spinor.canonical_shape_residual(Bhat))
            worst_jump = max(worst_jump, helpers.neighbor_jump(A))
            ok_grp, _ = lorentz.validate_group(A, 1e-8)
            signs_ok &= bool(np.all(ok_grp))
    ok = worst_shape <= 1e-8 and worst_jump <= 10 * c.h and signs_ok
    verdict(7, "canonical-shape gauge recovery from scrambled blocks", ok,
            f"worst shape residual {worst_shape:.1e} (tol 1e-8), worst "
            f"gauge jump {worst_jump:.2f} (tol {10 * c.h:.2f} = 10h), "
            f"coordinates detected correctly: {signs_ok}")


def test_criterion_8_surface_roundtrip_and_dual():
    details, ok = [], True
    for kind in ("clifford_torus", "veronese_s4"):
        c, S, F, M = pipeline(kind, 48)
        NF = reconstruct.normalize(F, M)
        y0 = reconstruct.to_sphere_map(NF.Y0)
        yin = reconstruct.to_sphere_map(S.Y)
        m = c.interior
        d = np.sqrt(np.sum((y0[..., 1:] - yin[..., 1:])**2, axis=-1))
        dist = float(np.max(d[m]))
        cl = reconstruct.classify(NF)
        ds = reconstruct.dual_surface(NF, reconstruct.dual_mu(NF),
                                      cl.max_rank)
        vg = reconstruct.verify_gauss_match(ds["map"], NF)
        tol = 1e-6 + 100 * c.h**2
        ok &= dist <= tol and vg["orientation"] == "opposite" \
            and ds["duality_residual"] <= tol
        details.append(f"{kind}: case {cl.case}, roundtrip {dist:.1e} / dual "
                       f"{ds['duality_residual']:.1e} (tol {tol:.1e}), "
                       f"dual orientation {vg['orientation']}")
    verdict(8, "sphere-congruence roundtrip and dual surface", ok,
            "; ".join(details))


def test_criterion_9_degenerate_cases():
    details, ok = [], True
    for kind in ("enneper", "catenoid"):
        c, _, F, M = pipeline(kind, 48)
        NF = reconstruct.normalize(F, M)
        cl = reconstruct.classify(NF)
        st = reconstruct.stereographic(cl.Ymu, cl.constant_vector, c)
        res = max(st["conformal_residual"], st["harmonic_residual"])
        ok &= (cl.case == "b2i" and cl.has_willmore_surface
               and res <= 100 * c.h**2)
        details.append(f"{kind}: {cl.case}, minimal-map residual "
                       f"{res:.1e} (tol {100 * c.h**2:.1e})")

    c = Chart(0, 2 * np.pi, 0, 2 * np.pi, 96, 96, "periodic-both")
    F = helpers.rank2_degenerate_frame(c)
    NF = reconstruct.NormalizedFrame(F=F, blocks=maurer_cartan(F, c))
    cl = reconstruct.classify(NF)
    ok &= (cl.case == "b1" and not cl.has_willmore_surface
           and "no Willmore surface" in cl.verdict)
    details.append(f"rank-2 degenerate control: {cl.case}")

    c = Chart(-1, 1, -1, 1, 64, 64, "open")
    F = helpers.reduced_frame_field(c)
    cl = reconstruct.classify(reconstruct.normalize(F, maurer_cartan(F, c),
                                                    tol=1e-3))
    ok &= (cl.case == "b2ii" and not cl.has_willmore_surface
           and "no Willmore surface" in cl.verdict)
    details.append(f"rotation-reduced control: {cl.case}")
    verdict(9, "degenerate harmonic maps sort into their cases", ok,
            "; ".join(details))


def test_criterion_10_normalized_frames_satisfy_the_trace_condition():
    worst_C, ok = 0.0, True
    for kind in ("clifford_torus", "catenoid", "enneper", "veronese_s4"):
        c, _, F, M = pipeline(kind, 96)
        NF = reconstruct.normalize(F, M)
        worst_C = max(worst_C, NF.speccond_residual(NF.h) / c.h**2)
    ok = worst_C <= 50
    verdict(10, "a13+a23 = i(a14+a24) on every normalized zoo frame", ok,
            f"max sup/h^2 = {worst_C:.1f} (tol 50); round sphere excluded "
            f"(identically umbilic, no canonical gauge exists)")

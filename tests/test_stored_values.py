"""Stored values of analyze, verify-harmonic and reconstruct.

Each case runs one command in process (`cli.main`) on a fixed chart and
compares its JSON report with values recorded by an earlier version:

- analyze: every structure and integrability sup, the Willmore
  residual, the frame's group residual and the B2-block residual;
- verify-harmonic: every flatness and harmonicity-line sup of every
  refinement level (per level, the flatness sups in lambda order, then
  the lines by name);
- reconstruct: every entry of the classification, residuals and
  roundtrip sections.

Numbers agree to 1e-12 relative or 1e-13 absolute: each residual
vanishes analytically, and roundoff in it is absolute (the stencils
amplify last-bit moves of the O(1) invariants by up to 1/h^2).  The
harmonic sups agree to 1e-12 relative.  Strings, booleans and integers
agree exactly, the report holds exactly the stored keys, and each run
exits with its stored code.  A harmonicity line whose stored sups are
roundoff (`HARMONIC_ROUNDOFF`) is held to the analyze rule instead.
"""

import json

import pytest

from willmorelab import cli, zoo

import helpers

CHART_S4 = "48,48,-1.0,1.0,-1.0,1.0,open"
CHART_ENN = "48,48,-0.8,0.8,-0.8,0.8,open"
CHART_HEX = "48,48,0.0,2.0,0.0,2.0,open"
CHART_CLIFF = ("48,48,0.0,6.283185307179586,0.0,6.283185307179586,"
               "periodic-both")
CHART_TOR = ("48,48,0.0,6.283185307179586,0.0,2.221441469079183,"
             "periodic-both")
CHART_CAT = "48,48,0.0,6.283185307179586,-1.0,1.0,periodic-u"
# 9,216 points: the per-point kernels of the frame path
# (lorentz.row_blocks) run in three row blocks of 42, 42 and 12 rows,
# where every 48x48 case runs in one
CHART_S4_BLOCKS = "96,96,-1.0,1.0,-1.0,1.0,open"

SUP_KEYS = ("structure.lift", "structure.mixed", "structure.N_deriv",
            "structure.normal", "integrability.gauss",
            "integrability.codazzi", "integrability.ricci",
            "willmore_residual_sup", "frame_group_residual",
            "b2_block_residual")

# (surface or "hexagonal_torus_s5", chart, exit code, sups in SUP_KEYS
# order).  veronese_s4 (codimension 2) and the flat hexagonal torus in
# S^5 (codimension 3, written from helpers and read back) were recorded
# with the complex broadcasts, einsums and stacked complex products that
# the real per-entry passes replaced; the commutator [b_i, b_r] of the
# Ricci residual vanishes identically for n <= 2, so only the n = 3 case
# sees its sign.  enneper (codimension 1) and clifford_torus (doubly
# periodic, whose residuals are roundoff, so the 1e-13 absolute bar
# applies) were recorded before the structure residuals were built on
# planes.  torus_of_revolution:3 (doubly periodic) and catenoid (singly
# periodic) are the periodic charts with curvature, whose roundoff-level
# Codazzi sups move the most in relative terms; recorded before Y's
# Hessian was built from real stencils.  The torus is the non-Willmore
# control: it exits 2 on willmore_residual.  veronese_s4 on 96x96 was
# recorded before the frame path's kernels ran per row block, except
# integrability.codazzi and willmore_residual_sup, re-recorded when Y's
# Hessian came to be built from real stencils: kappa moves by roundoff,
# which the second derivatives of the Willmore residual amplify, and
# each of the two moved by 1.3e-13 absolute, past the 1e-13 bar.
ANALYZE = {
    "veronese_s4": ("veronese_s4", CHART_S4, 0, (
        0.0007855284848305129, 0.006202358329940094, 0.07748850085131341,
        0.049137998559482254, 0.1371762394710538, 0.09133527026309217,
        0.16149996142017065, 0.09854334068891044, 0.07597913087091708,
        0.048577219616813334)),
    "hexagonal_torus_s5": ("hexagonal_torus_s5", CHART_HEX, 0, (
        1.6100470097893311e-09, 7.700784454556242e-13,
        5.374390393344539e-05, 0.00011788276075161704,
        3.1512419214595105e-05, 1.5062411028697344e-05,
        6.338377342898771e-05, 1.6832590444444287e-05,
        0.016947140200100994, 0.002005319121022475)),
    "enneper": ("enneper", CHART_ENN, 0, (
        0.0010648107478604396, 0.0034449236780442205, 0.003956011117299256,
        0.0034518293939158127, 0.008262301817302106, 0.00439870433754469,
        0.0, 0.004403166488772512, 0.018081306633517518,
        0.005775758931447946)),
    "clifford_torus": ("clifford_torus", CHART_CLIFF, 0, (
        6.510613982464189e-15, 4.085620730620576e-14, 4.899608435727444e-14,
        3.4972246261275532e-15, 6.216092402166406e-14,
        4.608906020971688e-15, 0.0, 4.085088612974848e-14,
        1.4264858540586815e-14, 4.086853070474554e-15)),
    "torus_of_revolution:3": ("torus_of_revolution:3", CHART_TOR, 2, (
        0.003874504263453149, 0.015288675539379959, 0.009122269938315775,
        0.0031919021092507993, 0.018541506410225724, 4.54319384942259e-13,
        0.0, 0.6525518452009978, 0.004268420596829525,
        0.00010269260713189655)),
    "catenoid": ("catenoid", CHART_CAT, 0, (
        0.0012138526094382929, 0.0012416750782160424, 0.001671308266276573,
        0.0014262991941981773, 0.0008149480539105664,
        1.2797293728213074e-13, 0.0, 0.0009265811800603652,
        0.0036556256027220346, 0.002770928746253065)),
    "veronese_s4-96": ("veronese_s4", CHART_S4_BLOCKS, 0, (
        0.0001889584422255717, 0.0015310923714062508, 0.01958840070414741,
        0.01275915030533518, 0.03381896214426841, 0.023296087557907054,
        0.03997765265776554, 0.02520630474469715, 0.03543460184797388,
        0.011991983833857182)),
}

# (surface, chart, exit code, one list of sups per level), refined once
# from 48x48.  veronese_s4 (codimension 2, so every block of the
# Maurer-Cartan form is exercised) exits 2 on flatness[lambda=1j]
# (4.65e-2 against the 4.53e-2 tolerance at this resolution).  enneper
# (codimension 1) exits 0: its harmonicity sups move the most under
# roundoff in the loop curvature, and its fine level, 95x95, runs in
# three row blocks of 43, 43 and 9 rows; recorded before the block
# products of the loop curvature ran per row block on planes, except the
# sups of flatness at lambda = i and of the last two lines on both
# levels and of flatness at lambda = exp(i pi/4) on the fine one,
# re-recorded when the normal of a surface in S^3 came to be the Lorentz
# cross product instead of the swept frame: psi moves by a few ulps,
# which these sups amplify (a psi correctly rounded from extended
# precision moves the same sups by as much).  veronese_s4's A2_line on
# the fine level was re-recorded when its normal frame came to be swept
# with rejections from the Gram-Schmidt of the sphere columns instead of
# the closed-form Gram solve: psi moves by roundoff, and that sup by
# 1.1e-12 relative.  catenoid (periodic in u) was recorded before K's
# stencils and the so-defects ran per row block: its fine level, 96x95,
# runs in three row blocks of 43, 43 and 10 rows, so the wrap rows of
# K's u-stencil fall in the first and the last block.  Its A2_line (a
# 1x1 block, identically zero for n = 1) is roundoff on both levels, so
# that line alone is held to the analyze rule, 1e-12 relative or 1e-13
# absolute (HARMONIC_ROUNDOFF).
HARMONIC = {
    "veronese_s4": ("veronese_s4", CHART_S4, 2, (
        (0.14310614445433778, 0.1654664959039992, 0.18111691067262647,
         0.14310614445433778, 0.07453010705341903, 0.01667212084404305,
         0.09056215878296647),
        (0.03616248459253457, 0.04259399364519023, 0.046536481851922495,
         0.03616248459253457, 0.018844300181536815, 0.0042266694765319525,
         0.023269047545251265))),
    "enneper": ("enneper", CHART_ENN, 0, (
        (0.009091229746718374, 0.00985039655143438, 0.013408528077972461,
         0.009091229746718374, 0.0056839649998961135,
         2.1619775678327353e-06, 0.006705542757548316),
        (0.002308333034343276, 0.002506931796319253, 0.0034153113108559953,
         0.002308333034343276, 0.0014428019219362136,
         1.4045407931101244e-07, 0.0017076556554279977))),
    "catenoid": ("catenoid", CHART_CAT, 0, (
        (0.002387101027199913, 0.0028644031114529126, 0.004050877728381632,
         0.002387101027199913, 0.0011935505135973403,
         6.3173714229095116e-15, 0.002025438864190816),
        (0.0006021359150882012, 0.0007223419722113204,
         0.001021545813777669, 0.0006021359150882012,
         0.0003010679575444957, 2.653103005496851e-14,
         0.0005107729068888345))),
}
# the harmonicity lines of a case whose stored sups are roundoff
HARMONIC_ROUNDOFF = {"catenoid": {"A2_line"}}

_DUAL = {"classification.case": "a2", "classification.max_rank": 1,
         "classification.verdict":
             "willmore surface [e0 - e0hat] (has a dual)",
         "classification.has_willmore_surface": True,
         "roundtrip.dual_orientation": "opposite"}

# (surface, chart, exit code, entries).  veronese_s4 is case a2, with
# the dual surface and the orientation of its Gauss bundle; enneper is
# case b2i, with the constant lightlike vector and the minimal surface.
# The 48x48 cases were recorded before the bundle rejection and the
# closed-form solves moved into lorentz, the 96x96 one before the frame
# path's kernels ran per row block; enneper's minimal harmonic residual
# was re-recorded with the cross-product normal, as its harmonic sups
# were.
RECONSTRUCT = {
    "veronese_s4": ("veronese_s4", CHART_S4, 0, dict(
        _DUAL, **{
            "classification.h_sup": 0.7096288179710736,
            "classification.speccond_residual": 1.9173269042681916e-05,
            "residuals.normalization_shape": 0.04861681190945795,
            "residuals.normalization_null": 0.07550600047127327,
            "roundtrip.projected_vs_input": 5.585701844806365e-16,
            "roundtrip.dual_duality_residual": 0.0212420027015922})),
    "enneper": ("enneper", CHART_ENN, 0, {
        "classification.case": "b2i",
        "classification.max_rank": 1,
        "classification.verdict":
            "minimal surface in flat space via stereographic projection",
        "classification.h_sup": 0.7071237926724627,
        "classification.speccond_residual": 0.0008376906931975722,
        "classification.has_willmore_surface": True,
        "residuals.normalization_shape": 0.005392001639003294,
        "residuals.normalization_null": 0.006665761425237373,
        "roundtrip.minimal_conformal_residual": 0.0005499404791665574,
        "roundtrip.minimal_harmonic_residual": 0.002161743032416446}),
    "veronese_s4-96": ("veronese_s4", CHART_S4_BLOCKS, 0, dict(
        _DUAL, **{
            "classification.h_sup": 0.7077312274494116,
            "classification.speccond_residual": 1.1663067047365234e-06,
            "residuals.normalization_shape": 0.0120425722520436,
            "residuals.normalization_null": 0.019117087979785927,
            "roundtrip.projected_vs_input": 7.212445341068398e-16,
            "roundtrip.dual_duality_residual": 0.0052967175180089875})),
}


def _close(x, y) -> bool:
    return abs(x - y) <= max(1e-12 * max(abs(x), abs(y)), 1e-13)


def _report(tmp_path, command, surface, chart, *flags):
    """(exit code, JSON report) of one command run on a zoo surface, or on
    the hexagonal torus in S^5 saved as CSV and read back."""
    if surface == "hexagonal_torus_s5":
        raw, c = helpers.hexagonal_torus_patch(48)
        path = str(tmp_path / "hex_s5.csv")
        zoo.save(path, raw, c, fmt="csv")
        source = ["--input", path]
    else:
        source = ["--surface", surface]
    out = tmp_path / "report.json"
    code = cli.main([command, *source, "--chart", chart, *flags,
                     "--out", str(out)])
    return code, json.loads(out.read_text())


@pytest.mark.parametrize("case", ANALYZE)
def test_analyze_matches_stored_residual_sups(tmp_path, case):
    surface, chart, want_code, sups = ANALYZE[case]
    code, report = _report(tmp_path, "analyze", surface, chart)
    r = report["residuals"]
    got = {f"{group}.{name}": v["sup"]
           for group in ("structure", "integrability")
           for name, v in r[group].items()}
    got.update({key: r[key] for key in ("willmore_residual_sup",
                                        "frame_group_residual",
                                        "b2_block_residual")})
    assert set(got) == set(SUP_KEYS)
    bad = {key: (got[key], y) for key, y in zip(SUP_KEYS, sups)
           if not _close(got[key], y)}
    assert not bad
    assert code == want_code


@pytest.mark.parametrize("case", HARMONIC)
def test_verify_harmonic_matches_stored_sups(tmp_path, case):
    surface, chart, want_code, want = HARMONIC[case]
    code, report = _report(tmp_path, "verify-harmonic", surface, chart,
                           "--refine", "2")
    levels = report["residuals"]["levels"]
    roundoff = HARMONIC_ROUNDOFF.get(case, set())
    assert len(levels) == len(want)
    for i, (lv, w) in enumerate(zip(levels, want)):
        names = [None] * len(lv["flatness"]) + sorted(lv["harmonic"])
        got = [f["sup"] for f in lv["flatness"]] \
            + [lv["harmonic"][k] for k in sorted(lv["harmonic"])]
        assert len(got) == len(w), i
        bad = [(j, x, y) for j, (name, x, y) in enumerate(zip(names, got, w))
               if not (_close(x, y) if name in roundoff
                       else abs(x - y) <= 1e-12 * max(abs(x), abs(y)))]
        assert not bad, i
    assert code == want_code


@pytest.mark.parametrize("case", RECONSTRUCT)
def test_reconstruct_matches_stored_values(tmp_path, case):
    surface, chart, want_code, want = RECONSTRUCT[case]
    code, report = _report(tmp_path, "reconstruct", surface, chart)
    got = {f"{sec}.{k}": v for sec in ("classification", "residuals",
                                       "roundtrip")
           for k, v in report[sec].items()}
    assert set(got) == set(want)
    for key, y in want.items():
        x = got[key]
        if isinstance(y, float):
            assert isinstance(x, float) and _close(x, y), (key, x, y)
        else:
            assert x == y and type(x) is type(y), (key, x, y)
    assert code == want_code

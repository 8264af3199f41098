"""Per-layer metrics of the traced run and the layers each workload uses.

Every metric is (name, kind, layer, funcs); tracer.layer_metrics says
what each kind computes.  README.md gives, for each metric, the
end-to-end metric it should move and on which workload.
"""

from __future__ import annotations

SPECS = (
    ("lorentz.self_s", "self", "lorentz", None),
    ("lorentz.inner_calls", "calls", "lorentz", ("inner",)),
    ("lorentz.inner_s", "incl", "lorentz", ("inner",)),
    ("lorentz.validate_group_s", "incl", "lorentz", ("validate_group",)),
    ("chart.self_s", "self", "chart", None),
    ("chart.stencil_calls", "calls", "chart", ("d_u", "d_v")),
    ("chart.stencil_mb", "mb", "chart", ("d_u", "d_v")),
    ("chart.reduce_s", "incl", "chart", ("sup_norm", "l2_norm", "integrate")),
    ("surface.self_s", "self", "surface", None),
    ("surface.build_calls", "calls", "surface", ("build_surface_data",)),
    ("surface.normal_frame_s", "incl", "surface", ("normal_frame",)),
    ("surface.invariants_s", "incl", "surface", ("invariants",)),
    ("surface.residuals_s", "incl", "surface",
     ("structure_residuals", "integrability_residuals")),
    ("surface.out_mb", "mb", "surface", None),
    ("gauss_frame.self_s", "self", "gauss_frame", None),
    ("gauss_frame.maurer_cartan_calls", "calls", "gauss_frame",
     ("maurer_cartan",)),
    ("gauss_frame.maurer_cartan_s", "incl", "gauss_frame",
     ("maurer_cartan",)),
    ("gauss_frame.block_assembly_calls", "calls", "gauss_frame",
     ("MCBlocks.full", "MCBlocks.k_part", "MCBlocks.p_part")),
    ("gauss_frame.block_assembly_s", "incl", "gauss_frame",
     ("MCBlocks.full", "MCBlocks.k_part", "MCBlocks.p_part")),
    ("gauss_frame.rank_s", "incl", "gauss_frame", ("s_willmore_rank",)),
    ("gauss_frame.out_mb", "mb", "gauss_frame", None),
    ("harmonic.self_s", "self", "harmonic", None),
    ("harmonic.flatness_sweep_s", "incl", "harmonic", ("flatness_sweep",)),
    ("harmonic.lambda_evals", "calls", "harmonic", ("extend",)),
    ("harmonic.harmonic_residuals_s", "incl", "harmonic",
     ("harmonic_residuals",)),
    ("harmonic.strong_conformal_s", "incl", "harmonic",
     ("strong_conformal_check",)),
    ("spinor.self_s", "self", "spinor", None),
    ("spinor.canonicalize_calls", "calls", "spinor", ("canonicalize_B1",)),
    ("spinor.canonicalize_s", "incl", "spinor", ("canonicalize_B1",)),
    ("reconstruct.self_s", "self", "reconstruct", None),
    ("reconstruct.normalize_calls", "calls", "reconstruct", ("normalize",)),
    ("reconstruct.normalize_s", "incl", "reconstruct", ("normalize",)),
    ("reconstruct.classify_s", "incl", "reconstruct", ("classify",)),
    ("reconstruct.constant_lightlike_vector_s", "incl", "reconstruct",
     ("constant_lightlike_vector",)),
    ("reconstruct.verify_gauss_match_s", "incl", "reconstruct",
     ("verify_gauss_match",)),
    ("reconstruct.dual_surface_s", "incl", "reconstruct", ("dual_surface",)),
    ("reconstruct.stereographic_s", "incl", "reconstruct",
     ("stereographic",)),
    ("reconstruct.out_mb", "mb", "reconstruct", None),
    ("zoo.generate_s", "incl", "zoo", ("generate",)),
    ("zoo.save_s", "incl", "zoo", ("save",)),
    ("zoo.save_mb", "mb", "zoo", ("save",)),
    ("zoo.load_s", "incl", "zoo", ("load",)),
    ("zoo.load_mb", "mb", "zoo", ("load",)),
    ("cli.self_s", "self", "cli", None),
)

# Measured over the traced set-up instead of a pass.
SETUP_SPECS = (
    ("setup.zoo_save_s", "incl", "zoo", ("save",)),
    ("setup.zoo_save_mb", "mb", "zoo", ("save",)),
)

# The tracing overhead: traced pass_s minus untraced pass_s.
OVERHEAD = "trace.overhead_s"

# Layers each workload exercises; every other layer must record no span.
ACTIVE = {
    "analyze-zoo": {"lorentz", "chart", "surface", "gauss_frame", "zoo",
                    "cli"},
    "harmonic-refine": {"lorentz", "chart", "surface", "gauss_frame",
                        "harmonic", "zoo", "cli"},
    "reconstruct-cases": {"lorentz", "chart", "surface", "gauss_frame",
                          "spinor", "reconstruct", "zoo", "cli"},
}

# Metrics inside an active layer that must read non-zero / zero.
NONZERO = {
    "analyze-zoo": ("zoo.load_mb", "setup.zoo_save_mb"),
    "harmonic-refine": (),
    "reconstruct-cases": ("zoo.save_mb",),
}
ZERO = {
    "analyze-zoo": ("zoo.save_mb",),
    "harmonic-refine": ("zoo.save_mb", "zoo.load_mb", "setup.zoo_save_mb"),
    "reconstruct-cases": ("zoo.load_mb",),
}

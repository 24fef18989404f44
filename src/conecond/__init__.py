"""Conical Fermi-point detection and closed-form conductivity for 2D
tight-binding models, cross-validated against direct linear-response
integrals.

Natural units (e = hbar = 1) throughout: each conical crossing that is
"quantizing" (isotropic quadratic form) contributes exactly 1/16 to the
longitudinal conductivity.
"""

from .lattice import (
    DegenerateBasis,
    KGrid,
    Lattice2D,
    make_lattice,
    reduce_to_cell,
    refined_grid,
    uniform_grid,
    wrap_fractional,
)
from .bloch import (
    HoppingConflict,
    HoppingModel,
    ModelFormatError,
    covariance_defect,
    d2h_at,
    dh_at,
    h_at,
    load_model,
    model_from_dict,
    preset_haldane,
    preset_qwz,
)
from .spectra import (
    AllBandsOnOneSide,
    BandSpectrum,
    EigenvalueOnContour,
    GapTooSmall,
    NotHermitian,
    SingularResolvent,
    eigh,
    fermi_projector_riesz,
    fermi_projector_spectral,
    gap_at,
    occupied_count,
    projector_derivative,
    spectrum_at,
)
from .cones import (
    BandCrossingRegion,
    EpsilonTooLarge,
    FermiPoint,
    FermiPointScan,
    NoConvergence,
    NotConical,
    b_epsilon_membership,
    characterize_cones,
    check_cone_condition,
    default_epsilon,
    fermi_point_separation,
    find_fermi_points,
    fit_cone,
    is_quantizing,
    neighborhoods_disjoint,
    sigma_closed_form,
)
from .kubo import (
    ConductivityReport,
    DegeneratePoint,
    FdStepTooLarge,
    Gapless,
    GridPolicy,
    GridTooCoarse,
    KuboEstimate,
    NotConverged,
    TwoBandIsolationFailed,
    closed_form_report,
    default_eta_sequence,
    fjj_sing,
    fjl_eta,
    ftilde_jj,
    richardson_extrapolate,
    schwinger,
    sigma_hall,
    sigma_hat_sequence,
    sigma_kubo,
    zeta_jj,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # lattice
    "DegenerateBasis", "KGrid", "Lattice2D", "make_lattice", "reduce_to_cell",
    "refined_grid", "uniform_grid", "wrap_fractional",
    # bloch
    "HoppingConflict", "HoppingModel", "ModelFormatError", "covariance_defect",
    "d2h_at", "dh_at", "h_at", "load_model", "model_from_dict",
    "preset_haldane", "preset_qwz",
    # spectra
    "AllBandsOnOneSide", "BandSpectrum", "EigenvalueOnContour", "GapTooSmall",
    "NotHermitian", "SingularResolvent", "eigh", "fermi_projector_riesz",
    "fermi_projector_spectral", "gap_at", "occupied_count",
    "projector_derivative", "spectrum_at",
    # cones
    "BandCrossingRegion", "EpsilonTooLarge", "FermiPoint", "FermiPointScan",
    "NoConvergence", "NotConical", "b_epsilon_membership", "characterize_cones",
    "check_cone_condition", "default_epsilon", "fermi_point_separation",
    "find_fermi_points", "fit_cone", "is_quantizing", "neighborhoods_disjoint",
    "sigma_closed_form",
    # kubo
    "ConductivityReport", "DegeneratePoint", "FdStepTooLarge", "Gapless", "GridPolicy",
    "GridTooCoarse", "KuboEstimate", "NotConverged", "TwoBandIsolationFailed",
    "closed_form_report", "default_eta_sequence", "fjj_sing", "fjl_eta",
    "ftilde_jj", "richardson_extrapolate", "schwinger", "sigma_hall",
    "sigma_hat_sequence", "sigma_kubo", "zeta_jj",
]

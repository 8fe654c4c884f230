"""Numerical toolkit for rearrangements, mixed smoothness norms, and their
Fourier-side functionals, with an inequality registry run over seeded corpora.
"""

from .gridfn import (CorpusMember, FamilySpec, GridFunction, GridSpec,
                     corpus_generate, dilate_family, sample_member)
from .norms import (IteratedLorentz, Lebesgue, Lorentz, Mixed,
                    iterated_lorentz_norm, lp_norm, mixed_norm, norm, parse_norm)
from .rearrange import (DecreasingProfile, IteratedProfile,
                        decreasing_rearrangement, distribution_function,
                        double_star, iterated_rearrangement)
from .smoothness import (BesovSpec, besov_seminorm, difference, modulus,
                         ulyanov_pointwise, ulyanov_tail)
from .hardyops import RaySamples, doublestar_bound_check, hardy_check
from .fourier import SpectralFunction, dual_grid, h1_norm, riesz, transform
from .verify import probe, registry, run, run_all

__version__ = "0.1.0"

__all__ = [
    "CorpusMember", "FamilySpec", "GridFunction", "GridSpec",
    "corpus_generate", "dilate_family", "sample_member",
    "IteratedLorentz", "Lebesgue", "Lorentz", "Mixed",
    "iterated_lorentz_norm", "lp_norm", "mixed_norm", "norm", "parse_norm",
    "DecreasingProfile", "IteratedProfile", "decreasing_rearrangement",
    "distribution_function", "double_star", "iterated_rearrangement",
    "BesovSpec", "besov_seminorm", "difference", "modulus",
    "ulyanov_pointwise", "ulyanov_tail",
    "RaySamples", "doublestar_bound_check", "hardy_check",
    "SpectralFunction", "dual_grid", "h1_norm", "riesz", "transform",
    "probe", "registry", "run", "run_all",
    "__version__",
]

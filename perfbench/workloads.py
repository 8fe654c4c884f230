"""Benchmark workloads: each is the run_all() inputs of one pass, drawn from a seed.

A workload is a pure function of its seed: the corpus families are drawn
here, in set-up, and run_all() receives only the generated inputs.
"""

from __future__ import annotations

from ineqkit import verify

# The entries of the 3-D spectral block: Fourier transforms, slab sups and
# shell sums on the 32^3 coarse and 64^3 fine grids, and no difference norms.
SPECTRAL_IDS = ("H_ineq", "obertype1", "obertype33", "pelcz", "pelcz1", "sup111")

# The workloads, with the (entry, dim, member) rows one pass evaluates.
# Why each was chosen is in BENCHMARK.json and README.md.
ROWS = {"verify_all": 776, "spectral_3d": 120}


def inputs(name: str, seed: int) -> dict:
    """Keyword arguments of verify.run_all() for one pass of `name` at `seed`."""
    if name == "verify_all":
        dims, ids = (1, 2, 3), None
    elif name == "spectral_3d":
        dims, ids = (3,), list(SPECTRAL_IDS)
    else:
        raise ValueError(f"unknown workload {name!r}; known: {sorted(ROWS)}")
    corpora = {d: (verify.default_families(d, seed), verify.default_grid(d))
               for d in dims}
    return {"ids": ids, "corpora": corpora, "jobs": 1}

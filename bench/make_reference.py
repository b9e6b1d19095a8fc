"""Regenerate reference.json: per-cell final MSE of the first mc-grid pass and
the mean PSNR of the first recon-mri reconstructions, for the reference seeds.

    python3 bench/make_reference.py

A reference pins the library's outputs, so a harness that drifts low (which
an upper-bound check alone would pass) fails the benchmark.  Regenerate only
when the outputs are meant to change, and say why.
"""

import json
import sys

from run import HERE, load_library
from workloads import RECON_REF_CALLS, McGrid, ReconMri

REFERENCE_SEEDS = (1, 2)


def first_outputs(wl, calls):
    wl.setup()
    return [(wl.inputs(k), wl.call(wl.inputs(k))) for k in range(calls)]


def main():
    lib = load_library()
    refs = {}
    for cls, calls in ((McGrid, McGrid.pass_calls), (ReconMri, RECON_REF_CALLS)):
        refs[cls.name] = {}
        for seed in REFERENCE_SEEDS:
            wl = cls(lib, seed, None)
            refs[cls.name][str(seed)] = wl.reference_values(first_outputs(wl, calls))
    (HERE / "reference.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())

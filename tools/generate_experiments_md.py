#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md from the experiment registry."""

from __future__ import annotations

import sys

from repro.analysis import run_all
from repro.analysis.experiments import EXPERIMENTS

HEADER = """# EXPERIMENTS — paper vs measured

Generated by ``python tools/generate_experiments_md.py``.  Every table and
figure of the paper's evaluation is regenerated by a benchmark in
``benchmarks/`` (see DESIGN.md for the index); this file records, for each
quantity the paper reports, our model's value next to the paper's.

Reading notes:

- Absolute GPU milliseconds are calibrated to the paper's published FHD
  measurements (the paper's own emulator consumes measured GPU kernel
  breakdowns as input, Fig. 11); everything downstream — scaling curves,
  plateaus, bounds, bandwidths, area/power — emerges from the mechanistic
  models and is where the comparison is meaningful.
- "paper=n/a" marks quantities the paper shows only graphically (per-app
  bars) without quoting numbers; we print our values for the record.
- Known deltas: our NGPC-64 four-app averages for the densegrid schemes
  land ~7 % below the paper's (26.2x/26.4x paper vs ~24.4x/24.0x ours);
  NSDF's 8K@120 headline lands at ~96 % of the 8K pixel count; our
  per-app plateau points are NeRF@64 and GIA@64 as in the paper, while
  NSDF/NVR keep improving mildly past the paper's quoted plateau scales
  (32/16) — a consequence of fitting the published per-scale averages
  exactly, which over-constrains the unpublished per-app splits.
"""


def main() -> None:
    from repro.analysis.report import (
        architecture_sweep_section,
        design_space_section,
        documentation_sections,
        experiments_section,
        sensitivity_section,
    )

    lines = [HEADER]
    lines.extend(experiments_section(run_all()))
    lines.extend(sensitivity_section())
    lines.extend(design_space_section())
    lines.extend(architecture_sweep_section())
    lines.extend(documentation_sections())
    text = "\n".join(lines) + "\n"
    with open("EXPERIMENTS.md", "w") as f:
        f.write(text)
    print(f"wrote EXPERIMENTS.md ({len(text.splitlines())} lines)")


if __name__ == "__main__":
    sys.exit(main())

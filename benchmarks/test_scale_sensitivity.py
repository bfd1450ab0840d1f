"""Scaling check: the headline ordering across the swept scales 1/32–1/8.

DESIGN.md's methodology claims behaviour depends on footprint:cache ratios,
which the scale knob preserves.  This benchmark reruns the §IV-D abort-rate
experiment at machine scales 1/32, 1/16 and 1/8 (quick mode: 1/32 and 1/16
only) and asserts at each one that signature-only aborts more than 85% of
the time, that staged detection aborts less, and that isolation is not
worse than staged by more than 0.02.  It says nothing about scales outside
that band.

What the asserts do not show: that isolation helps.  ``uhtm_opt <=
uhtm_sig + 0.02`` also passes when isolation does nothing, and at 1/32 it
does almost nothing — no isolated abort there is a signature false
positive, so staged and isolated nearly coincide.
"""

from __future__ import annotations

from repro.harness.figures import abort_claim
from repro.harness.report import FigureResult


def run_scale_sweep(quick: bool) -> FigureResult:
    result = FigureResult(
        "Scaling",
        "Abort-rate ordering across machine scales",
        ["scale", "signature_only", "uhtm_sig", "uhtm_opt"],
    )
    scales = (1 / 32, 1 / 16) if quick else (1 / 32, 1 / 16, 1 / 8)
    for scale in scales:
        figure = abort_claim(quick=True, scale=scale)
        rates = {row[0]: row[1] for row in figure.rows}
        result.add_row(
            f"1/{round(1 / scale)}",
            rates["signature_only"],
            rates["uhtm_sig"],
            rates["uhtm_opt"],
        )
    return result


def test_ordering_invariant_across_scales(benchmark, quick, show):
    result = benchmark.pedantic(
        lambda: run_scale_sweep(quick), rounds=1, iterations=1
    )
    show(result)
    for row in result.rows:
        _, sig_only, uhtm_sig, uhtm_opt = row
        assert sig_only > 0.85
        assert uhtm_sig < sig_only
        assert uhtm_opt <= uhtm_sig + 0.02

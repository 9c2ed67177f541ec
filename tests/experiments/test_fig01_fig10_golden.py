"""Golden outputs for Figs 1 and 10 on the default trace.

The digests pin the rendered tables and notes byte for byte, so any
change to the trace generator, the replay model or the rendering that
moves a printed figure shows up here.  Regenerate them only together
with an explained diff in EXPERIMENTS.md.
"""

import hashlib

import pytest

from repro.experiments import default_trace, run_fig01, run_fig10

GOLDEN_SHA256 = {
    "fig01": "ef8aa735b7a28ff6556e148d1c0addc11c000d251a992b848fb2d584b898db8e",
    "fig10": "8b0dd49278cf8471a2c3a18d299d8f411b5b2b14c25059beefaf6d586d512461",
}


@pytest.fixture(scope="module")
def trace():
    return default_trace()


@pytest.mark.parametrize("name, run", [("fig01", run_fig01), ("fig10", run_fig10)])
def test_render_matches_golden(name, run, trace):
    rendered = run(trace).render()
    assert hashlib.sha256(rendered.encode()).hexdigest() == GOLDEN_SHA256[name], rendered

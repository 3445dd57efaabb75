"""The names perfbench reads or wraps still exist and still see their calls.

perfbench/spans.py times a layer by rebinding a module global to a wrapper,
and skips a name it cannot find, so a renamed or bypassed name would read
as zero seconds in the traced per-layer metrics rather than fail.  The
names below are those of spans.py's ``_patch`` calls and of
perfbench/child.py's imports; ``test_micro_calls_keep_their_shapes``
makes child.py's per-frame calls with the arguments it passes.
"""

import contextlib
import importlib
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from gdstbc import Codebook, cli, codebook, construct_design, construct_signal_set, diffcodec, sim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: (module, name) that perfbench wraps, "Codebook" for an attribute of a
#: codebook; spans.py also tries sim's copies of the diffcodec names, which
#: sim does not import.
WRAPPED = [
    ("gdstbc.diffcodec", "metric_scan"),
    ("gdstbc.sim", "build_codebook"),
    ("gdstbc.cli", "build_codebook"),
    ("gdstbc.sim", "construct_design"),
    ("gdstbc.cli", "construct_design"),
    ("gdstbc.sim", "construct_signal_set"),
    ("gdstbc.sim", "preset_signal_set"),
    ("gdstbc.sim", "hyperbola_signal_set"),
    ("gdstbc.codebook", "verify_group_decodable"),
    ("gdstbc.cli", "verify_full_diversity"),
    ("gdstbc.cli", "average_scale"),
    ("Codebook", "max_unitarity_residual"),
    ("Codebook", "matrices"),
    *(("gdstbc.diffcodec", fn)
      for fn in ("encoder_step", "channel_step", "decode_group", "decode_exhaustive")),
]

#: (module, name) that perfbench/child.py imports or calls.
READ = [
    *(("gdstbc", fn) for fn in (
        "run_sim", "SimConfig", "Codebook", "construct_design", "construct_signal_set",
        "ChannelConfig", "encoder_init", "encoder_step", "channel_step", "decode_group",
        "decode_exhaustive", "estimate_scale", "BACKEND")),
    ("gdstbc.cli", "main"),
    ("gdstbc._kernels", "metric_scan"),
    ("gdstbc.diffcodec", "draw_channel"),
    ("gdstbc.sim", "noise_var_for_snr"),
    *(("Codebook", attr) for attr in ("codeword_at", "sizes", "M", "n")),
]


def _tiny():
    return construct_design(2), construct_signal_set(2, 16)


@pytest.mark.parametrize("where, name", WRAPPED + READ,
                         ids=[f"{w}.{n}" for w, n in WRAPPED + READ])
def test_name_resolves(where, name):
    owner = Codebook(*_tiny()) if where == "Codebook" else importlib.import_module(where)
    assert getattr(owner, name, None) is not None


@pytest.fixture
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from spans import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_traced_layers_see_their_calls(tracer):
    """A sweep's set-up, ``codebook verify`` of each signal family and a first
    ``Codebook.matrices`` reach every span that a traced per-layer metric of
    perfbench/child.py reads (no sweep builds ``matrices``, so it is read
    here directly)."""
    sim._codebook.cache_clear()
    try:
        with tracer.span("bench.setup"):
            sim.run_sim(sim.SimConfig(lam=2, m=16, coherence=10, decoder="both", frames=9))
        with tracer.span("bench.verify"), contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["codebook", "verify", "--lambda", "2", "--points", "16"]) == 0
            assert cli.main(["codebook", "verify", "--lambda", "2", "--points", "16",
                             "--family", "hyperbola"]) == 0
            assert cli.main(["codebook", "verify", "--lambda", "3", "--points", str(16**4),
                             "--preset", "paper-8ant-rate2"]) == 0
        with tracer.span("bench.matrices"):
            assert Codebook(*_tiny()).matrices.shape == (16, 4, 4)
    finally:
        sim._codebook.cache_clear()
    seen = {name for (_, name) in tracer.aggregate()}
    want = {
        "design.construct_design", "design.verify_group_decodable",
        "signalset.construct_signal_set", "signalset.hyperbola_signal_set",
        "signalset.preset_signal_set", "codebook.build_codebook", "codebook.matrices",
        "codebook.verify_full_diversity", "codebook.average_scale",
        "codebook.max_unitarity_residual", "kernels.metric_scan", "numpy.default_rng",
    }
    assert want <= seen, sorted(want - seen)
    assert tracer.counters["scan_calls"] > 0 and tracer.counters["pairs_scanned"] > 0


@pytest.mark.parametrize("limit", [0, math.inf], ids=["factored", "table"])
def test_exhaustive_scans_count_one_call_of_m_candidates_per_frame(tracer, monkeypatch, limit):
    """spans.py's ``on_scan`` reads (M, r, k) off ``metric_scan``'s first
    argument: both forms of ``exhaustive_table`` have the table's shape, so
    an exhaustive frame counts as one call of M candidates."""
    monkeypatch.setattr(codebook, "TABLE_SCAN_BYTES", limit)
    cb = Codebook(construct_design(2), construct_signal_set(2, 256))
    assert cb.exhaustive_table[0].shape == (cb.M, 4, cb.design.K // 4)
    rng = np.random.default_rng(3)
    frames = 0
    for _, (r_prev,), (r,) in diffcodec.window_frames(cb, [rng], 12, 1, 0.3):
        diffcodec.decide_exhaustive(cb, *diffcodec.correlate(cb, r, r_prev), 1.0)
        frames += len(r)
    assert tracer.counters["scan_calls"] == frames == 12
    assert tracer.counters["scan_candidates"] == frames * cb.M


def test_micro_calls_keep_their_shapes():
    """perfbench/child.py's ``mode_micro`` calls, with the arguments it
    passes, on a lam 1 M 16 codebook: a changed signature fails here, not
    only in a perfbench run."""
    import gdstbc as g
    from gdstbc import _kernels
    from gdstbc.diffcodec import draw_channel
    from gdstbc.sim import noise_var_for_snr

    cb = g.Codebook(g.construct_design(1), g.construct_signal_set(1, 16), check_decodable=False)
    rng = np.random.default_rng(5)
    r_prev, r_t = (np.ascontiguousarray(rng.standard_normal((cb.n, 1))
                                        + 1j * rng.standard_normal((cb.n, 1)))
                   for _ in range(2))
    best, val = _kernels.metric_scan(cb.matrices, r_prev, r_t, 1.0)
    ref = np.sum(np.abs(r_t[None] - cb.matrices @ r_prev) ** 2, axis=(1, 2))
    assert best == int(np.argmin(ref)) and val == pytest.approx(ref.min(), rel=1e-9)

    # one frame of the per-frame replay
    ch = g.ChannelConfig(n_r=1, noise_var=noise_var_for_snr(20.0, cb.n), seed=5)
    h = draw_channel(ch, cb.n)
    state = g.encoder_init(cb.n)
    r_prev = g.channel_step(ch, state.x_prev, h)
    u = cb.codeword_at(tuple(int(rng.integers(0, s)) for s in cb.sizes))
    state, x = g.encoder_step(state, u)
    r = g.channel_step(ch, x, h)
    dg = g.decode_group(cb, r, r_prev, 1.0)
    de = g.decode_exhaustive(cb, r, r_prev, 1.0)
    assert de.index == dg.index
    assert de.evaluations == cb.M == 16 and dg.evaluations == sum(cb.sizes) == 8
    assert g.estimate_scale(cb.codeword_at(dg.index)) > 0

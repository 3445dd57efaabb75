"""Span recording around calls into gdstbc's layers, from outside the package.

``Tracer.install`` rebinds public names in gdstbc's modules (and
``numpy.random.default_rng``) to wrappers that record a span per call:
name, start, end and the enclosing span.  Spans are kept in flat arrays
in memory and written out once, at the end of the run.  A span's self
time is its duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from collections import defaultdict
from contextlib import contextmanager
from functools import cached_property, wraps
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        #: Exact counts taken at the same boundaries as the spans.
        self.counters: dict[str, float] = defaultdict(float)
        self.bound_holds: list[bool] = []

    # -- recording -----------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextmanager
    def span(self, name: str):
        """One span around a block; for the benchmark's own root spans."""
        i = len(self.end)
        self.name_id.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        try:
            yield
        finally:
            self.end[i] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, on_call=None):
        """fn wrapped in a span; ``on_call(args, result)`` updates counters.

        The hot path binds everything locally and reads the clock last on
        entry and first on exit, so the wrapper's own cost lands in the
        caller's self time, not in the wrapped layer's.
        """
        nid = self._name_id(name)
        stack, end, clock = self._stack, self.end, perf_counter
        push_name, push_parent = self.name_id.append, self.parent.append
        push_start, push_end, push_stack = self.start.append, end.append, stack.append

        @wraps(fn)
        def traced(*args, **kwargs):
            i = len(end)
            push_name(nid)
            push_parent(stack[-1] if stack else -1)
            push_end(0.0)
            push_stack(i)
            push_start(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_call is not None:
                on_call(args, out)
            return out

        return traced

    # -- installation ----------------------------------------------------
    def _patch(self, module, attr, name, on_call=None):
        orig = getattr(module, attr, None)
        if orig is None:
            return
        self._patches.append((module, attr, orig))
        setattr(module, attr, self.wrap(name, orig, on_call))

    def install(self):
        """Wrap the layer entry points; ``uninstall`` restores them."""
        import numpy.random

        from gdstbc.codebook import Codebook

        mod = importlib.import_module
        sim, cli, cbm, dcm = (mod(f"gdstbc.{m}") for m in ("sim", "cli", "codebook", "diffcodec"))
        c = self.counters

        def on_scan(args, out):
            m, r, k = args[0].shape
            c["scan_calls"] += 1
            c["scan_candidates"] += m
            c["scan_bytes_computed"] += m * r * k * 16

        def on_rng(args, out):
            c["rng_streams"] += 1

        def on_diversity(args, out):
            c["pairs_scanned"] += out.pairs_checked
            self.bound_holds.append(bool(out.bound_holds))

        for m in (sim, dcm):
            self._patch(m, "metric_scan", "kernels.metric_scan", on_scan)
        self._patch(numpy.random, "default_rng", "numpy.default_rng", on_rng)
        for m in (sim, cli):
            self._patch(m, "build_codebook", "codebook.build_codebook")
            self._patch(m, "construct_design", "design.construct_design")
        for fn in ("construct_signal_set", "preset_signal_set", "hyperbola_signal_set"):
            self._patch(sim, fn, f"signalset.{fn}")
        self._patch(cbm, "verify_group_decodable", "design.verify_group_decodable")
        self._patch(cli, "verify_full_diversity", "codebook.verify_full_diversity", on_diversity)
        self._patch(cli, "coding_gain", "codebook.coding_gain")
        self._patch(cli, "average_scale", "codebook.average_scale")
        self._patch(Codebook, "max_unitarity_residual", "codebook.max_unitarity_residual")
        for fn in ("encoder_step", "channel_step", "decode_group", "decode_exhaustive"):
            for m in (sim, dcm):
                self._patch(m, fn, f"diffcodec.{fn}")

        # First access to the lazily built codeword stack.
        orig = Codebook.__dict__["matrices"]

        def on_matrices(args, out):
            c["matrices_bytes"] = max(c["matrices_bytes"], out.nbytes)

        prop = cached_property(self.wrap("codebook.matrices", orig.func, on_matrices))
        prop.__set_name__(Codebook, "matrices")
        self._patches.append((Codebook, "matrices", orig))
        Codebook.matrices = prop

    def uninstall(self):
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    # -- analysis --------------------------------------------------------
    def aggregate(self) -> dict:
        """{(root name, span name): [count, total seconds, self seconds]}."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        root = list(range(n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                root[i] = root[p]
        out: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(n):
            acc = out[(self.names[self.name_id[root[i]]], self.names[self.name_id[i]])]
            acc[0] += 1
            acc[1] += dur[i]
            acc[2] += dur[i] - child[i]
        return dict(out)

    def write(self, path):
        """All spans as gzip CSV: name, start_s, end_s, parent row (-1 = root)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent\n")
            names, nid, st, en, par = self.names, self.name_id, self.start, self.end, self.parent
            for i in range(len(st)):
                fh.write(f"{names[nid[i]]},{st[i]:.9f},{en[i]:.9f},{par[i]}\n")


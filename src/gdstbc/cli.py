"""Command line interface.

Subcommands:

* ``design``    print/verify a constructed design
* ``signalset`` emit a signal-set point list as JSON
* ``codebook``  verify codebook properties, emit a JSON report
* ``simulate``  Monte Carlo SNR sweep, emit CSV (or JSON with --json)

Exit codes: 0 success, 2 configuration error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

from . import __version__
from .codebook import (
    UNITARITY_TOL,
    NotGroupDecodableError,
    average_scale,
    verify_full_diversity,
)
from .design import canonical_grouping, construct_design, render_text, verify_group_decodable
from .sim import (
    SNR_CONVENTION,
    SimConfig,
    build_codebook,
    build_signal_set,
    prepare,
    run_sim,
)
from .signalset import PRESETS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3

#: Most points an A:B:STEP range may expand to; a larger sweep is a typo,
#: and building its tuple could exhaust memory before any check ran.
MAX_SNR_POINTS = 10_000


def _parse_snr_list(text: str):
    """Accept 'A:B:STEP' (inclusive), a comma list, or a single value; 'inf' allowed."""
    def one(v):
        v = v.strip()
        return math.inf if v == "inf" else float(v)

    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("range form is A:B:STEP")
        a, b, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (a, b, step))):
            raise ValueError("range bounds and STEP must be finite")
        if step <= 0:
            raise ValueError("STEP must be positive")
        span = (b - a) / step + 1e-9
        if span >= MAX_SNR_POINTS:  # also an infinite span, which has no integer count
            raise ValueError(f"range gives more than {MAX_SNR_POINTS} SNR points")
        count = int(math.floor(max(span, -1.0))) + 1
        return tuple(a + i * step for i in range(count))
    return tuple(one(v) for v in text.split(","))


def _parse_radii(text: str):
    return tuple(float(v) for v in text.split(","))


def _add_signal_args(p: argparse.ArgumentParser):
    p.add_argument("--lambda", dest="lam", type=int, required=True,
                   help="antenna exponent: N_T = 2**lambda")
    p.add_argument("--points", dest="m", type=int, required=True,
                   help="codebook size M (fourth power of an even integer)")
    p.add_argument("--radii", type=_parse_radii, default=None,
                   help="comma-separated list of P/2 radii for P points per group "
                        "(normalised to unit group power)")
    p.add_argument("--preset", choices=sorted(PRESETS), default=None,
                   help="named radius preset")
    p.add_argument("--family", choices=("axis", "hyperbola"), default="axis",
                   help="signal-set family (hyperbola is lambda=2 only)")
    p.add_argument("--c", type=float, default=None,
                   help="hyperbola constant x*y = c (hyperbola family)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gdstbc",
        description="Four-group-decodable differential scaled-unitary STBC toolkit. "
                    f"{SNR_CONVENTION}.",
    )
    ap.add_argument("--version", action="version", version=f"gdstbc {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="construct a design, optionally print/verify it")
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--print", dest="do_print", action="store_true",
                   help="print the symbolic design matrix")
    p.add_argument("--verify-groups", action="store_true",
                   help="run the exact cross-group anticommutation check")

    p = sub.add_parser("signalset", help="emit a signal-set point list as JSON")
    _add_signal_args(p)

    p = sub.add_parser("codebook", help="codebook verification")
    p.add_argument("action", choices=("verify",))
    _add_signal_args(p)
    p.add_argument("--seed", type=int, default=0,
                   help="echoed in the report; no verdict depends on it")

    p = sub.add_parser("simulate", help="Monte Carlo SNR sweep")
    _add_signal_args(p)
    p.add_argument("--snr-db", dest="snr_db", type=_parse_snr_list, required=True,
                   help="A:B:STEP inclusive range, comma list, or single value; 'inf' = noiseless")
    p.add_argument("--frames", type=int, default=10000,
                   help="information frames per SNR point")
    p.add_argument("--target-errors", dest="target_errors", type=int, default=None,
                   help="stop a point once this many frame errors were seen")
    p.add_argument("--nr", dest="n_r", type=int, default=1, help="receive antennas")
    p.add_argument("--coherence", type=int, default=None,
                   help="frames per fading block incl. the reference (default: whole burst)")
    p.add_argument("--decoder", choices=("group", "exhaustive", "both"), default="group")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.add_argument("--json", dest="as_json", action="store_true",
                   help="emit JSON (CSV content plus config echo) instead of CSV")

    return ap


def _cmd_design(args) -> int:
    d = construct_design(args.lam)
    print(f"design: n={d.n}, K={d.K} real variables "
          f"({d.num_complex} complex), rate {d.num_complex / d.n:g} symbol/use")
    if args.do_print:
        print(render_text(d))
    if args.verify_groups:
        grp = canonical_grouping(d)
        ok, witness = verify_group_decodable(d, grp, return_witness=True)
        if ok:
            print("group decodability: PASS "
                  "(all cross-group weight pairs anticommute exactly)")
        else:
            print(f"group decodability: FAIL (witness pair of real-variable "
                  f"indices: {witness})")
            return EXIT_VERIFY
    return EXIT_OK


def _signal_cfg(args) -> SimConfig:
    return SimConfig(lam=args.lam, m=args.m, family=args.family, radii=args.radii,
                     preset=args.preset, c=args.c, frames=1)


def _cmd_signalset(args) -> int:
    cfg = _signal_cfg(args)
    cfg.validate()
    # identical groups by default; the hyperbola family's quadrature groups
    # are the mirrored (x, -y) image of this list
    points = build_signal_set(cfg)[0]
    print(json.dumps([list(row) for row in points]))
    return EXIT_OK


def _cmd_codebook(args) -> int:
    cfg = _signal_cfg(args)
    cfg.validate()
    cb = build_codebook(cfg)
    div = verify_full_diversity(cb)
    resid = cb.max_unitarity_residual()
    report = {
        "scaled_unitary": bool(resid <= UNITARITY_TOL),
        "min_det": div.min_abs_det,
        "coding_gain": div.coding_gain,
        "avg_scale": average_scale(cb),
        "rate_bits_per_use": cb.rate_bits_per_use,
        "max_unitarity_residual": resid,
        "full_diversity": div.claim,
        "all_full_rank": div.all_full_rank,
        "pairs_checked": div.pairs_checked,
        "group_decodable": cb.group_decodable,
        "mode": "exhaustive",
        "seed": args.seed,
    }
    print(json.dumps(report, indent=2))
    if not (report["scaled_unitary"] and div.all_full_rank):
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = SimConfig(lam=args.lam, m=args.m, family=args.family, radii=args.radii,
                    preset=args.preset, c=args.c, n_r=args.n_r, snr_db=args.snr_db,
                    frames=args.frames, target_errors=args.target_errors,
                    coherence=args.coherence, decoder=args.decoder, seed=args.seed,
                    workers=args.workers)
    # a config or memory error must exit before --out is opened, which truncates it
    prepare(cfg)
    with _open_out(args.out) as fh:
        result = run_sim(cfg)
        fh.write(result.to_json() + "\n" if args.as_json else result.to_csv())
    return EXIT_OK


def _open_out(path):
    """``path`` opened for writing, or stdout without one.

    Opened before the sweep runs, so a path that cannot be written fails
    at once, as a configuration error.
    """
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise ValueError(f"cannot open --out file: {exc}") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "design": _cmd_design,
        "signalset": _cmd_signalset,
        "codebook": _cmd_codebook,
        "simulate": _cmd_simulate,
    }
    try:
        return handlers[args.command](args)
    except NotGroupDecodableError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, IndexError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

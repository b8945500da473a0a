"""Command-line front end: design, evolve, simulate, complexity.

Each command wraps one library entry point and writes CSV (and JSON for
design artifacts).  Variant names use hyphens on the command line
(comp-uni) and map to the internal underscore spelling.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .codes import generate_regular_code, parse_alist
from .complexity import CN_VARIANTS, VN_VARIANTS, report as complexity_report
from .evolution import DesignArtifact, EnsembleConfig, de_threshold, design_decoder
from .pmf import ValidationError
from .sim import sweep, write_csv


def _variant(s):
    return s.replace("-", "_")


def _flag(variant):
    return variant.replace("_", "-")


def _add_ensemble_flags(p):
    default = {f.name: f.default for f in fields(EnsembleConfig)}
    p.add_argument("--dc", type=int, required=True, help="check node degree")
    p.add_argument("--dv", type=int, required=True, help="variable node degree")
    p.add_argument("--w", type=int, default=4, help="message width in bits")
    p.add_argument("--wphi", type=int, default=8, help="internal translation width")
    p.add_argument("--iterations", type=int, default=50)
    p.add_argument("--cn", default="comp", choices=[_flag(v) for v in CN_VARIANTS])
    p.add_argument("--vn", default="comp", choices=[_flag(v) for v in VN_VARIANTS])
    p.add_argument("--ebn0", type=float, required=True, help="design Eb/N0 in dB")
    p.add_argument("--rate", type=float, required=True, help="ensemble code rate")
    p.add_argument("--grid-size", type=int, default=default["channel_grid_size"])
    p.add_argument("--clip-llr", type=float, default=default["clip_llr"])
    p.add_argument("--prune-tol", type=float, default=default["prune_tol"])
    p.add_argument("--delta-search", type=int, default=default["delta_search_points"],
                   help="grid points for the non-uniform step search (0: saturation step)")
    p.add_argument("--uniform-grid", type=int, default=default["uniform_grid_points"])
    p.add_argument("--warm-window", type=int, default=default["uniform_warm_window"])
    p.add_argument("--beta", type=int, default=default["beta"], help="offset of the omsq baseline")


def _config(args) -> EnsembleConfig:
    return EnsembleConfig(
        dc=args.dc, dv=args.dv, w=args.w, wphi=args.wphi,
        iterations=args.iterations, cn_variant=_variant(args.cn),
        vn_variant=_variant(args.vn), design_ebn0_db=args.ebn0, rate=args.rate,
        channel_grid_size=args.grid_size, clip_llr=args.clip_llr,
        prune_tol=args.prune_tol, delta_search_points=args.delta_search,
        uniform_grid_points=args.uniform_grid,
        uniform_warm_window=args.warm_window, beta=args.beta)


def _snrs(text):
    """The numbers of an ``--snr`` comma list."""
    try:
        return [float(s) for s in text.split(",")]
    except ValueError:
        raise ValidationError(f"--snr must be a comma list of numbers, not {text!r}") from None


def _trajectory_rows(artifact):
    rows = ["iteration,mi_cn,mi_vn,delta_cn,delta_vn,r,kappa"]
    for i, rec in enumerate(artifact.per_iteration):
        cq, vq = rec.cn_quantizer, rec.vn_quantizer
        d_cn = f"{cq.delta:.10g}" if cq is not None else ""
        d_vn = f"{vq.delta:.10g}" if vq is not None else ""
        r = str(cq.shift_r) if cq is not None and cq.kind == "uniform" else ""
        k = str(cq.offset_kappa) if cq is not None and cq.kind == "uniform" else ""
        rows.append(f"{i + 1},{rec.mi_cn:.10g},{rec.mi_vn:.10g},{d_cn},{d_vn},{r},{k}")
    return "\n".join(rows) + "\n"


def _load_code(args, parser):
    if args.code:
        with open(args.code, "r", encoding="ascii") as f:
            return parse_alist(f.read())
    if args.gen_n:
        return generate_regular_code(args.gen_n, args.dv, args.dc, args.gen_seed)
    parser.error("either --code or --gen-n is required")


def run_design(args):
    artifact, _ = design_decoder(_config(args))
    prefix = args.out or (f"design_dc{args.dc}_dv{args.dv}_w{args.w}"
                          f"_{_variant(args.cn)}_{_variant(args.vn)}")
    artifact.save(prefix + ".artifact.json")
    with open(prefix + ".trajectory.csv", "w", encoding="ascii") as f:
        f.write(_trajectory_rows(artifact))
    print(f"wrote {prefix}.artifact.json and {prefix}.trajectory.csv")
    return 0


def run_evolve(args):
    cfg = _config(args)
    if args.bisect:
        window = _snrs(args.snr)
        if len(window) != 2:
            raise ValidationError("--snr must be 'lo,hi' for --bisect")
        res = de_threshold(cfg, args.target_mi, window)
        for snr, ok in res.probes:
            print(f"probe snr_db={snr} converged={ok}")
        print(f"threshold_db={res.snr_db} status={res.status} probes={len(res.probes)}")
        if args.out:
            with open(args.out, "w", encoding="ascii") as f:
                f.write("threshold_db,status,probes\n")
                f.write(f"{res.snr_db},{res.status},{len(res.probes)}\n")
        return 0 if res.status == "ok" else 1
    artifact, _ = design_decoder(cfg)
    text = _trajectory_rows(artifact)
    if args.out:
        with open(args.out, "w", encoding="ascii") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def run_simulate(args, parser):
    if args.frames < 1:
        parser.error("--frames must be positive")
    snrs = _snrs(args.snr)
    code = _load_code(args, parser)
    if args.artifact:
        artifact = DesignArtifact.load(args.artifact)
    else:
        artifact, _ = design_decoder(_config(args))
    points = sweep(code, artifact, snrs,
                   stop={"max_frames": args.frames,
                         "target_frame_errors": args.target_errors},
                   seed=args.seed)
    if args.out:
        with open(args.out, "w", encoding="ascii") as f:
            write_csv(points, f)
    else:
        write_csv(points, sys.stdout)
    return 0


def run_complexity(args):
    rows = complexity_report(args.dc, args.dv, args.w, args.wphi,
                             ws_cn=args.ws, ws_vn=args.ws)
    print("node,variant,operations,translations,memory_bits,out_of_model")
    for r in rows:
        print(f"{r.node},{r.variant},{r.operations},{r.translations},"
              f"{r.memory_bits},{int(r.out_of_model)}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quantldpc",
        description="design and evaluate coarsely quantized LDPC decoders")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="run density evolution, save the artifact")
    _add_ensemble_flags(p)
    p.add_argument("--out", default=None, help="output path prefix")
    p.set_defaults(func=lambda a, pr: run_design(a))

    p = sub.add_parser("evolve", help="MI trajectory or threshold bisection")
    _add_ensemble_flags(p)
    p.add_argument("--bisect", action="store_true",
                   help="bisect the convergence threshold over --snr lo,hi")
    p.add_argument("--target-mi", type=float, default=0.9999)
    p.add_argument("--snr", default="2.9,3.6",
                   help="bisection window 'lo,hi' (with --bisect; --snr=-1.0,2.0 if lo < 0)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=lambda a, pr: run_evolve(a))

    p = sub.add_parser("simulate", help="Monte Carlo FER/BER sweep")
    _add_ensemble_flags(p)
    p.add_argument("--artifact", default=None, help="load a saved design instead")
    p.add_argument("--code", default=None, help="alist file with the parity checks")
    p.add_argument("--gen-n", type=int, default=None,
                   help="generate a (dv,dc)-regular code of this length")
    p.add_argument("--gen-seed", type=int, default=1)
    p.add_argument("--snr", required=True, help="Eb/N0 points 'a,b,...' (--snr=-1.0,2.0 if a < 0)")
    p.add_argument("--frames", type=int, default=10_000_000)
    p.add_argument("--target-errors", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=run_simulate)

    p = sub.add_parser("complexity", help="per-node cost table")
    p.add_argument("--dc", type=int, required=True)
    p.add_argument("--dv", type=int, required=True)
    p.add_argument("--w", type=int, default=4)
    p.add_argument("--wphi", type=int, default=8)
    p.add_argument("--ws", type=int, default=None,
                   help="threshold storage width (default: quantizer input width)")
    p.set_defaults(func=lambda a, pr: run_complexity(a))

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Batch command-line entry point.

Subcommands:
  corpus gen     write a corpus identity file (grid + seed + count)
  verify run     evaluate one registry entry, write report.json
  verify all     evaluate the whole registry, write report.json
  probe          escalation sweep for an open question
  report render  render an existing report.json to csv or svg

Exit codes: 0 success, 1 assert-entry failure (or runtime error), 2 usage.
A JSON config file may mirror any long flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import render, verify
from .gridfn import (GridSpec, _check_format_version, corpus_generate,
                     load_corpus_spec, save_corpus_spec)

__all__ = ["main"]


def _parse_grid_text(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"grid must be 'L,points' (e.g. '8,256'), got {text!r}")
    try:
        return float(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _apply_config(args, parser):
    """Fill unset (None) options from --config; explicit flags override.

    Each key names a long flag of the subcommand, and its value is parsed
    as that flag's argument: a bad key or value exits 2 as the flag would.
    A null value leaves the option unset.
    """
    if not args.config:
        return
    try:
        with open(args.config) as fh:
            loaded = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config {args.config}: {exc}")
    if not isinstance(loaded, dict):
        parser.error(f"config {args.config} must hold a JSON object")
    given = args.leaf.parse_args(
        [f"--{key}={value}" for key, value in loaded.items() if value is not None])
    for dest, value in vars(given).items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ineqkit", description="inequality corpus runner")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_leaf(parent, name, help):
        p = parent.add_parser(name, help=help)
        p.add_argument("--config", help="JSON file mirroring the flags")
        p.set_defaults(leaf=p)  # _apply_config parses the config with it
        return p

    def add_jobs(p):
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: all cores)")

    corpus = sub.add_parser("corpus", help="corpus files")
    corpus_sub = corpus.add_subparsers(dest="subcommand", required=True)
    gen = add_leaf(corpus_sub, "gen", "write a corpus identity file")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--count", type=int, default=None)
    gen.add_argument("--dim", type=int, default=None, choices=(1, 2, 3))
    gen.add_argument("--grid", type=_parse_grid_text, default=None, metavar="L,POINTS")
    gen.add_argument("--out", default=None)

    ver = sub.add_parser("verify", help="registry runs")
    ver_sub = ver.add_subparsers(dest="subcommand", required=True)
    run_p = add_leaf(ver_sub, "run", "one registry entry")
    run_p.add_argument("--id", dest="entry_id", default=None, metavar="ID")
    run_p.add_argument("--corpus", default=None)
    run_p.add_argument("--out", default=None)
    add_jobs(run_p)
    all_p = add_leaf(ver_sub, "all", "every registry entry")
    all_p.add_argument("--corpus", default=None)
    all_p.add_argument("--out", default=None)
    add_jobs(all_p)

    probe_p = add_leaf(sub, "probe", "open-question escalation sweep")
    probe_p.add_argument("--question", default=None)
    probe_p.add_argument("--depth", type=int, default=None)
    probe_p.add_argument("--out", default=None)
    add_jobs(probe_p)

    rep = sub.add_parser("report", help="report rendering")
    rep_sub = rep.add_subparsers(dest="subcommand", required=True)
    rend = add_leaf(rep_sub, "render", "render report.json")
    rend.add_argument("--in", dest="in_dir", default=None, metavar="DIR")
    rend.add_argument("--format", dest="fmt", default=None,
                      choices=("csv", "svg"))

    return parser


def _corpora_from_args(args, parser):
    """(corpora dict, restricted) from --corpus, or the shipped defaults."""
    if args.corpus:
        try:
            grid, seed, count = load_corpus_spec(args.corpus)
            families = corpus_generate(seed, count, grid)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            parser.error(f"cannot load corpus {args.corpus}: {exc}")
        return {grid.dim: (families, grid)}, True
    return None, False


def _write_report(out_dir, reports, metadata) -> int:
    os.makedirs(out_dir, exist_ok=True)
    verify.save_report(os.path.join(out_dir, "report.json"), reports, metadata)
    failed = [r for r in reports if r.kind == "assert" and not r.passed]
    for r in failed:
        for line in r.failures:
            print(f"ASSERT FAIL {r.id}@n{r.dim}: {line}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_corpus_gen(args, parser) -> int:
    _apply_config(args, parser)
    if args.dim is None:
        parser.error("corpus gen requires --dim")
    seed = verify.DEFAULT_SEED if args.seed is None else int(args.seed)
    count = verify.DEFAULT_COUNTS[args.dim] if args.count is None else int(args.count)
    if count <= 0:
        parser.error("--count must be a positive integer")
    if args.out is None:
        parser.error("corpus gen requires --out")
    if args.grid is None:
        grid = verify.default_grid(args.dim)
    else:
        L, pts = args.grid
        try:
            grid = GridSpec.box(args.dim, L, pts)
        except ValueError as exc:
            parser.error(str(exc))
    try:
        corpus_generate(seed, count, grid)  # validate every draw fits the box
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    save_corpus_spec(args.out, grid, seed, count)
    print(f"wrote {args.out} (dim {grid.dim}, {count} members, "
          f"grid {grid.half_extents[0]:g},{grid.points[0]})")
    return 0


def _cmd_verify(args, parser) -> int:
    _apply_config(args, parser)
    corpora, restricted = _corpora_from_args(args, parser)
    if args.out is None:
        parser.error("verify requires --out")
    ids = None
    if args.subcommand == "run":
        if args.entry_id is None:
            parser.error("verify run requires --id")
        if args.entry_id not in verify.registry_map():
            parser.error(f"unknown registry id {args.entry_id!r}; known: "
                         + ", ".join(sorted(verify.registry_map())))
        ids = [args.entry_id]
        if restricted:
            spec = verify.registry_map()[args.entry_id]
            dim = next(iter(corpora))
            if dim not in spec.dims:
                parser.error(f"entry {args.entry_id} does not apply to the "
                             f"corpus dimension {dim}")
    reports, metadata = verify.run_all(ids=ids, corpora=corpora,
                                       jobs=args.jobs)
    if not reports:
        parser.error("no registry entry applies to the given corpus")
    return _write_report(args.out, reports, metadata)


def _cmd_probe(args, parser) -> int:
    _apply_config(args, parser)
    if args.question is None:
        parser.error("probe requires --question")
    if args.out is None:
        parser.error("probe requires --out")
    depth = 2 if args.depth is None else int(args.depth)
    if depth < 0:
        parser.error("--depth must be nonnegative")
    try:
        report = verify.probe(args.question, depth=depth, jobs=args.jobs)
    except ValueError as exc:
        parser.error(str(exc))
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"probe_{args.question}.json")
    verify.save_probe(path, report)
    print(f"wrote {path}: max ratios {report['max_ratios']} ({report['label']})")
    return 0


def _cmd_render(args, parser) -> int:
    _apply_config(args, parser)
    if args.in_dir is None:
        parser.error("report render requires --in")
    if args.fmt is None:
        parser.error("report render requires --format")
    src = os.path.join(args.in_dir, "report.json")
    try:
        doc = render.load_report(src)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {src}: {exc}", file=sys.stderr)
        return 1
    try:
        _check_format_version(doc, src)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = os.path.join(args.in_dir, f"report.{args.fmt}")
    if args.fmt == "csv":
        render.render_csv(doc, out)
    else:
        render.render_svg(doc, out)
    print(f"wrote {out}")
    return 0


_COMMANDS = {"corpus": _cmd_corpus_gen, "verify": _cmd_verify,
             "probe": _cmd_probe, "report": _cmd_render}


def main(argv=None) -> int:
    """Run one subcommand; returns the exit code.

    Usage errors leave through argparse with exit code 2.  Any other
    uncaught error becomes exit code 1 and one `error: ...` line on stderr.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, parser)
    except Exception as exc:  # the process boundary: report, do not trace back
        message = " ".join(str(exc).split()) or "(no message)"
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

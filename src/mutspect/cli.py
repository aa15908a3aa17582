"""Command-line interface.

Subcommands: generate, run, compare, sweep, show-config.
Exit codes: 0 success; 2 input or usage error; 3 mutant reduction goal not
satisfiable (the run prints the goal message and writes a search report).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

from . import __version__
from .baselines import bss_test, rms_test, rss_test
from .clustering import NOT_SATISFIABLE_MESSAGE
from .config import (
    RunConfig,
    build_config,
    config_echo,
    format_defaults,
    parse_config_file,
)
from .dataset import load_dataset
from .errors import MutspectError, ParameterError, ValidationError
from .model import load_model, save_model
from .mutants import (
    ALL_KINDS,
    DEFAULT_GF_SIGMA,
    MutatorKind,
    generate_mutant_set,
    load_manifest,
    save_manifest,
)
from .pipeline import (
    PipelineResult,
    Seeds,
    SweepSpec,
    run_accelerated,
    run_sweep,
    run_vanilla,
)
from .reports import (
    compare_rows,
    format_compare_table,
    load_scored_report,
    run_report_payload,
    write_compare_csv,
    write_rho_csv,
    write_sweep_csv,
    write_verdict_csv,
)
from .spectra import TRANSFORM_DFT, TRANSFORM_RAW
from .testing import check_labels
from .util import derived_seed, sha256_file, write_json

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_SATISFIABLE = 3


def _add_io_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="flat KEY=VALUE config file")
    parser.add_argument("--model", help="model file")
    parser.add_argument("--dataset", help="dataset file")
    parser.add_argument("--manifest", help="mutant manifest file")
    parser.add_argument("--out", help="output directory")


def _add_run_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--mode", help="vanilla|spectral|raw|rms|bss|rss")
    parser.add_argument("--reduction-lo", type=float, dest="reduction_lo")
    parser.add_argument("--reduction-hi", type=float, dest="reduction_hi")
    parser.add_argument("--x", type=int, dest="per_class_rate",
                        help="fixed samples per class (disables the x search)")
    parser.add_argument("--tau", type=float, help="fixed linkage threshold")
    _add_seed_flags(parser)
    parser.add_argument("--baseline-seed", type=int, dest="baseline_seed")
    parser.add_argument("--rms-fraction", type=float, dest="rms_fraction")
    parser.add_argument("--bss-threshold", type=int, dest="bss_threshold")


def _add_seed_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, dest="sampling_seed")
    parser.add_argument("--representative-seed", type=int, dest="representative_seed")
    parser.add_argument("--repeats", type=int)


def _config_from_args(args) -> RunConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    return build_config(file_values, **overrides)


def _load_inputs(config: RunConfig):
    for name in ("model", "dataset", "manifest"):
        path = getattr(config, name)
        if not path:
            raise MutspectError(f"--{name} is required for this command")
        if not Path(path).exists():
            raise MutspectError(f"{name} file not found: {path}")
    model = load_model(config.model)
    dataset = load_dataset(config.dataset)
    check_labels(model, dataset)
    mutants = load_manifest(config.manifest, model)
    hashes = {name: sha256_file(getattr(config, name)) for name in ("model", "dataset", "manifest")}
    return model, dataset, mutants, hashes


def _run_one(config: RunConfig, model, dataset, mutants, repeat: int) -> PipelineResult:
    seeds = Seeds(
        sampling=derived_seed(config.sampling_seed, repeat),
        representative=derived_seed(config.representative_seed, repeat),
    )
    if config.mode == "vanilla":
        return run_vanilla(model, mutants, dataset)
    if config.mode in ("spectral", "raw"):
        transform = TRANSFORM_DFT if config.mode == "spectral" else TRANSFORM_RAW
        return run_accelerated(model, mutants, dataset, config.constraint(), seeds, transform,
                               fixed_per_class=config.per_class_rate, fixed_tau=config.tau)
    seed = derived_seed(config.baseline_seed, repeat)
    if config.mode == "rms":
        table = rms_test(model, mutants, dataset, config.rms_fraction, seed)
    elif config.mode == "bss":
        table = bss_test(model, mutants, dataset, config.bss_threshold)
    else:
        table = rss_test(model, mutants, dataset, config.per_class_rate, seed)
    return PipelineResult(mode=config.mode, table=table)


def cmd_generate(args) -> int:
    config = _config_from_args(args)
    if not config.model:
        raise MutspectError("--model is required")
    model = load_model(config.model)
    if args.kinds is not None:  # an empty list is an error, not a request for all kinds
        try:
            kinds = tuple(MutatorKind(k.strip()) for k in args.kinds.split(","))
        except ValueError as exc:
            raise MutspectError(f"unknown mutator kind: {exc}") from None
    else:
        kinds = ALL_KINDS
    mutant_set = generate_mutant_set(
        model, args.count, kinds, config.generation_seed, args.sigma
    )
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    save_manifest(mutant_set, manifest_path)
    if args.store_models:
        for record in mutant_set.mutants:
            save_model(record.model, out_dir / f"mutant_{record.mutant_id:04d}.fcnn")
    for warning in mutant_set.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    by_kind = Counter(record.kind.value for record in mutant_set.mutants)
    summary = ", ".join(f"{k}={v}" for k, v in sorted(by_kind.items()))
    print(f"wrote {manifest_path} ({len(mutant_set)} mutants: {summary})")
    return EXIT_OK


def cmd_run(args) -> int:
    config = _config_from_args(args)
    model, dataset, mutants, hashes = _load_inputs(config)
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    echo = config_echo(config)
    for repeat in range(config.repeats):
        result = _run_one(config, model, dataset, mutants, repeat)
        echo_r = dict(echo, repeat=repeat)
        payload = run_report_payload(result, echo_r, hashes)
        report_path = out_dir / f"report_{config.mode}_r{repeat}.json"
        write_json(report_path, payload)
        if not result.found:
            print(NOT_SATISFIABLE_MESSAGE, file=sys.stderr)
            print(f"wrote {report_path}")
            return EXIT_NOT_SATISFIABLE
        write_verdict_csv(
            out_dir / f"verdicts_{config.mode}_r{repeat}.csv", result.table, mutants
        )
        extras = ""
        if result.clusters is not None:
            extras = f" tau={result.clusters.tau:.6f} x={result.sample.per_class_rate}"
        print(
            f"[{config.mode} r{repeat}] score={result.score:.6f} "
            f"tested={result.table.timing.tested_count}/{len(mutants)}{extras}"
        )
        print(f"wrote {report_path}")
    return EXIT_OK


def cmd_compare(args) -> int:
    vanilla = load_scored_report(args.vanilla)
    if vanilla["technique"] != "vanilla":
        raise ValidationError(f"{args.vanilla} is not a vanilla report: "
                              f"its technique is {vanilla['technique']!r}")
    accelerated = [load_scored_report(p) for p in args.reports]
    rows = compare_rows(vanilla, accelerated)
    print(format_compare_table(rows))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / "compare.csv"
        write_compare_csv(csv_path, rows)
        print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _config_from_args(args)
    spec_kwargs = {}
    try:
        # an empty grid is an error, not a request for the default one
        if args.x_grid is not None:
            spec_kwargs["x_grid"] = tuple(int(v) for v in args.x_grid.split(","))
        if args.tau_grid is not None:
            spec_kwargs["tau_grid"] = tuple(float(v) for v in args.tau_grid.split(","))
    except ValueError as exc:
        raise ParameterError(f"grids must be comma lists of numbers: {exc}") from None
    spec_kwargs["repeats"] = config.repeats
    spec = SweepSpec(**spec_kwargs)
    model, dataset, mutants, hashes = _load_inputs(config)
    seeds = Seeds(config.sampling_seed, config.representative_seed)
    sweep = run_sweep(model, mutants, dataset, spec, seeds)
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(out_dir / "sweep.csv", sweep)
    write_rho_csv(out_dir / "rho.csv", sweep)
    meta = {
        "schema_version": 1,
        "config": dict(config_echo(config), x_grid=list(spec.x_grid),
                       tau_grid=list(spec.tau_grid)),
        "inputs_sha256": hashes,
        "vanilla_score": sweep.vanilla_score,
        "cells": len(sweep.cells),
    }
    write_json(out_dir / "sweep_meta.json", meta)
    print(f"wrote {out_dir / 'sweep.csv'} ({len(sweep.cells)} cells)")
    print(f"wrote {out_dir / 'rho.csv'}")
    return EXIT_OK


def cmd_show_config(args) -> int:
    print(format_defaults())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mutspect",
        description="Accelerated mutation testing via spectral mutant clustering",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a seeded mutant manifest")
    _add_io_flags(p_gen)
    p_gen.add_argument("--count", type=int, required=True)
    p_gen.add_argument("--kinds", help="comma list of GF,WS,NEB,NAI,NS (default all)")
    p_gen.add_argument("--sigma", type=float, default=DEFAULT_GF_SIGMA,
                       help="gaussian fuzz std relative to layer weight std")
    p_gen.add_argument("--seed", type=int, dest="generation_seed")
    p_gen.add_argument("--store-models", action="store_true",
                       help="also write each mutant as a model file")
    p_gen.set_defaults(func=cmd_generate)

    p_run = sub.add_parser("run", help="run one mutation-testing mode end to end")
    _add_io_flags(p_run)
    _add_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="tabulate accelerated reports against vanilla")
    p_cmp.add_argument("--vanilla", required=True, help="vanilla report JSON")
    p_cmp.add_argument("reports", nargs="+", help="accelerated report JSONs")
    p_cmp.add_argument("--out", help="directory for compare.csv")
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="reduction-rate sweep over (x, tau, repeat)")
    _add_io_flags(p_sweep)
    p_sweep.add_argument("--x-grid", help="comma list of samples-per-class values")
    p_sweep.add_argument("--tau-grid", help="comma list of linkage thresholds")
    _add_seed_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_show = sub.add_parser("show-config", help="print all defaults")
    p_show.set_defaults(func=cmd_show_config)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MutspectError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())

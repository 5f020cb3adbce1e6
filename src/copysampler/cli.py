"""Command-line front end.

Subcommands: sample, copy, evaluate, compare, profile, plot, run.  The
five that draw random numbers (all but compare and plot) accept --seed; one
that reads a config uses its [experiment] seed unless --seed is given, and
`copy` uses 0.  Exit codes: 0 on success, 1 if any sweep cell failed, 2 on
configuration or usage errors, among them an input file that is missing or
malformed.
"""

from __future__ import annotations

import argparse
import logging
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from . import metrics
from .config import (
    ARCHITECTURES,
    METHODS,
    ConfigError,
    ExperimentConfig,
    TrainConfig,
    check_seed,
    check_workers,
    load_config,
)
from .copies import CopyModel, train
from .core import CopySamplerError, RandomSource, SyntheticDataset, atomic_write
from .harness import generate_dataset, run_experiment, timing_profile
from .svgplot import plot_2d

EXIT_OK = 0
EXIT_CELL_FAILURE = 1
EXIT_CONFIG_ERROR = 2


def _add_seed(parser):
    parser.add_argument("--seed", type=int,
                        help="random seed (u64); defaults to the config's seed, else 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copysampler",
        description="Sample a black-box hard-label classifier, train copies, "
        "and score their fidelity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="generate one synthetic dataset")
    p.add_argument("--config", required=True, help="experiment config (for the oracle)")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--plot", help="optional SVG scatter path (d=2 only)")
    _add_seed(p)

    p = sub.add_parser("copy", help="train a copy model on a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--arch", required=True, choices=ARCHITECTURES)
    p.add_argument("--out", required=True, help="model output path (.npz)")
    _add_seed(p)

    p = sub.add_parser("evaluate", help="score a saved copy against the oracle")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--reference-size", type=int, default=10000)
    p.add_argument("--out", help="append a report row to this CSV")
    _add_seed(p)

    p = sub.add_parser("compare", help="victory/tie/loss matrix from a report CSV")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tie-margin", type=float, default=0.01)

    p = sub.add_parser(
        "profile", help="time one sampler run at prefix checkpoints",
        description="Run one sampler to the largest checkpoint and print, for "
        "each checkpoint N, the seconds until the first N samples were "
        "labelled. A sampler that labels a block of points reports the whole "
        "block at once, so a random row reads the time of the 4096-row block "
        "that holds it. For the cost of a full run of budget N, pass "
        "--checkpoints N alone.")
    p.add_argument("--config", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--checkpoints", required=True,
                   help="space-separated ascending sample counts")
    p.add_argument("--out", help="timing CSV (defaults to stdout)")
    _add_seed(p)

    p = sub.add_parser("plot", help="render a dataset CSV as an SVG scatter")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="overlay the true boundary of this oracle")

    p = sub.add_parser("run", help="run (or resume) a full experiment sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int,
                   help="legacy; sweeps run serially and only 1 is accepted")
    p.add_argument("--method", choices=METHODS, help="restrict to one method")
    p.add_argument("--arch", choices=ARCHITECTURES, help="restrict to one architecture")
    p.add_argument("--n", type=int, help="restrict to one budget")
    _add_seed(p)

    return parser


def _load(config_path, seed: int | None) -> ExperimentConfig:
    """The config, with its seed replaced by `seed` if one is given."""
    cfg = load_config(config_path)
    return cfg if seed is None else replace(cfg, seed=seed)


def _read_input(read, path):
    """`read(path)`, with a missing, unreadable or malformed file a usage error."""
    try:
        return read(path)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_sample(args) -> int:
    cfg = _load(args.config, args.seed)
    cfg.check_budget(args.method, args.n, "--n is")
    with cfg.oracle.build() as oracle:
        ds = generate_dataset(cfg, args.method, args.n, oracle,
                              RandomSource(cfg.seed))
        ds.to_csv(args.out)
        print(f"wrote {len(ds)} samples to {args.out} ({ds.query_count} oracle queries)")
        if args.plot:
            plot_2d(ds, oracle, args.plot)
            print(f"wrote {args.plot}")
    return EXIT_OK


def cmd_copy(args) -> int:
    ds = _read_input(SyntheticDataset.from_csv, args.data)
    model = train(args.arch, ds, TrainConfig(seed=0 if args.seed is None else args.seed))
    path = model.save(args.out)
    err = model.train_meta.get("training_fidelity_error")
    print(f"trained {args.arch} on {len(ds)} samples "
          f"(training fidelity error {err:.4f}); saved to {path}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = _load(args.config, args.seed)
    model = CopyModel.load(args.model)
    with cfg.oracle.build() as oracle:
        need = oracle.k if cfg.reference_balanced else 1
        if args.reference_size < need:
            raise ConfigError(f"--reference-size is {args.reference_size}, below the "
                              f"{need} point(s) a reference set needs")
        ref = metrics.build_reference_set(
            oracle, args.reference_size, cfg.reference_balanced,
            RandomSource.derive(cfg.seed, "reference"),
        )
    r_f, r_fb = metrics.fidelity(model, ref.X, ref.y, ref.k)
    print(f"R_F={r_f:.6f} R_Fb={r_fb:.6f} on {len(ref)} reference points")
    if args.out:
        record = metrics.RunRecord(
            oracle=cfg.oracle.oracle_id, method="external", arch=model.architecture,
            n=0, seed=cfg.seed, r_f=r_f, r_fb=r_fb, wall_time_s=0.0,
        )
        out = Path(args.out)
        existing = _read_input(metrics.read_report_csv, out) if out.exists() else []
        metrics.write_report_csv(existing + [record], out)
        print(f"appended to {out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    records = _read_input(metrics.read_report_csv, args.report)
    matrix = metrics.compare_methods(records, args.tie_margin)
    metrics.write_comparison_csv(matrix, args.out)
    for (a, b), (wins, ties, losses) in sorted(matrix.items()):
        print(f"{a} vs {b}: {wins}/{ties}/{losses}")
    return EXIT_OK


def cmd_profile(args) -> int:
    cfg = _load(args.config, args.seed)
    try:
        checkpoints = [int(v) for v in args.checkpoints.split()]
    except ValueError:
        checkpoints = []
    if not checkpoints or checkpoints != sorted(set(checkpoints)) or checkpoints[0] < 1:
        raise ConfigError("--checkpoints must be ascending sample counts >= 1, "
                          f"got {args.checkpoints!r}")
    cfg.check_budget(args.method, checkpoints[-1], "--checkpoints tops out at")
    with cfg.oracle.build() as oracle:
        profile = timing_profile(cfg, args.method, checkpoints, oracle,
                                 RandomSource(cfg.seed))
    text = profile.csv_text()
    if args.out:
        with atomic_write(args.out) as f:
            f.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_plot(args) -> int:
    ds = _read_input(SyntheticDataset.from_csv, args.data)
    overlay = load_config(args.config).oracle.overlay() if args.config else nullcontext()
    with overlay as oracle:
        plot_2d(ds, oracle, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_run(args) -> int:
    if args.workers is not None:
        check_workers(args.workers)
    cfg = _load(args.config, args.seed)
    summary = run_experiment(
        cfg,
        args.out,
        only_methods=[args.method] if args.method else None,
        only_archs=[args.arch] if args.arch else None,
        only_ns=[args.n] if args.n is not None else None,
    )
    print(f"reference: {'built' if summary.reference_built else 'read'}")
    print(
        f"datasets: {summary.datasets_computed} computed, "
        f"{summary.datasets_skipped} reused; cells: {summary.cells_computed} "
        f"computed, {summary.cells_skipped} reused; "
        f"failures: {len(summary.failures)}"
    )
    for label, message in summary.failures:
        print(f"  FAILED {label}: {message}")
    return summary.exit_code


_COMMANDS = {
    "sample": cmd_sample,
    "copy": cmd_copy,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
    "profile": cmd_profile,
    "plot": cmd_plot,
    "run": cmd_run,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None:  # compare and plot take none
            check_seed(args.seed)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except CopySamplerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CELL_FAILURE


if __name__ == "__main__":
    sys.exit(main())

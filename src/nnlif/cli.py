"""Command-line entry point: one subcommand per experiment kind.

Exit codes: 0 success, 2 invalid configuration, 3 run failure, 4 I/O error,
5 determinism violation.  Failures print a machine-readable
``error-category: <category>: <message>`` line to stderr.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import sys
import tempfile

from .assembly import assemble, dump_matrices
from .basis import BasisSet, Domain
from .errors import ConfigurationError, NnlifError
from .experiments import EXPERIMENT_KINDS, load_config, run_experiment
from .records import parse_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUN = 3
EXIT_IO = 4
EXIT_DETERMINISM = 5


def _fail(category: str, message: str, code: int) -> int:
    print(f"error-category: {category}: {message}", file=sys.stderr)
    return code


# the one column a repeated run may change: measured loop wall times
_TIMING_COLUMN = "wall_time_s"


def _untimed(path: str):
    meta, columns = parse_table(path)
    columns.pop(_TIMING_COLUMN, None)
    return meta, {name: [str(v) for v in values] for name, values in columns.items()}


def _same_outputs(out_dir: str, repeat_dir: str) -> bool:
    """Whether every file the repeated run wrote (runs write flat
    directories) matches its namesake in ``out_dir``: byte for byte, or as
    a table equal in every provenance line and every column but timings."""
    for name in os.listdir(repeat_dir):
        first, repeat = os.path.join(out_dir, name), os.path.join(repeat_dir, name)
        if not os.path.isfile(first):
            return False
        if not (filecmp.cmp(first, repeat, shallow=False) or _untimed(first) == _untimed(repeat)):
            return False
    return True


def _run_kind(args) -> int:
    try:
        cfg = load_config(args.config)
        if cfg.kind != args.kind:
            raise ConfigurationError(f"config is for kind {cfg.kind!r} but subcommand is {args.kind!r}")
        result = run_experiment(cfg, args.out, workers=args.workers)
        if args.check_determinism:
            with tempfile.TemporaryDirectory() as tmp:
                run_experiment(cfg, tmp, workers=args.workers)
                if not _same_outputs(args.out, tmp):
                    message = "repeated run produced different output files"
                    return _fail("determinism-violation", message, EXIT_DETERMINISM)
    except ConfigurationError as exc:
        return _fail("config-invalid", str(exc), EXIT_CONFIG)
    except NnlifError as exc:
        return _fail("run-failed", str(exc), EXIT_RUN)
    except OSError as exc:
        return _fail("io-error", str(exc), EXIT_IO)

    print(f"{cfg.kind}: wrote results to {args.out} ({result.get('_elapsed_s', 0.0):.1f}s)")
    return EXIT_OK


def _dump_matrices(args) -> int:
    try:
        domain = Domain(v_reset=args.v_reset, v_threshold=args.v_threshold, beta=args.beta)
        basis = BasisSet(domain, args.m, left_scale=args.left_scale)
        mats = assemble(basis, n_q=args.n_q)
        dump_matrices(mats, args.out)
    except (ValueError, ConfigurationError) as exc:
        return _fail("config-invalid", str(exc), EXIT_CONFIG)
    except OSError as exc:
        return _fail("io-error", str(exc), EXIT_IO)
    print(f"dump-matrices: wrote H,A,B,C,D,F,mass (M={args.m}) to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nnlif",
        description="Spectral-Galerkin experiments for integrate-and-fire population densities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment suite")
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", default="results", help="output directory for CSV files")
        p.add_argument("--workers", type=int, default=1, help="concurrent cells (processes)")
        p.add_argument(
            "--check-determinism",
            action="store_true",
            help="run twice and require identical output files (wall_time_s columns excepted)",
        )
        p.set_defaults(func=_run_kind, kind=kind)

    p = sub.add_parser("dump-matrices", help="write the assembled matrices as CSV")
    p.add_argument("--m", type=int, required=True, help="expansion number M")
    p.add_argument("--out", default="matrices", help="output directory")
    p.add_argument("--v-reset", type=float, default=1.0)
    p.add_argument("--v-threshold", type=float, default=2.0)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--left-scale", type=float, default=None)
    p.add_argument("--n-q", type=int, default=None)
    p.set_defaults(func=_dump_matrices)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands:
  corrupt  -- apply label noise / imbalance to a dataset directory
  train    -- run a training method and persist a run directory
  eval     -- clean/robust accuracy of a saved checkpoint
  report   -- aggregate a run (or corruption) directory to JSON

Exit codes: 0 success, 1 usage error, 2 runtime error. The metrics come from
``oat.evaluation``, the same code the training loop uses.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .adversary import AttackSpec
from .corruption import CorruptionSpec, corrupt
from .dataio import from_json, load_dataset, parse_json, replaced_together, save_dataset
from .evaluation import evaluate
from .models import load_model
from .trainer import EpochRecord, ErrorRecord, TrainConfig, train


class _UsageError(Exception):
    """A rejected argument that argparse cannot see, such as a config that
    TrainConfig rejects; cli() exits 1 on it, as on an argparse error."""


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default of 2 is reserved for runtime errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="oat")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corrupt", help="apply label noise and imbalance")
    p.add_argument("--input", required=True)
    p.add_argument("--noise", choices=["symmetric", "asymmetric", "none"], default="none")
    p.add_argument("--nr", type=float, default=0.0)
    p.add_argument("--ir", type=float, default=1.0)
    p.add_argument("--pairs", type=_parse_pairs, default="",
                   help="asymmetric pairs, e.g. 0:1,2:3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", help="JSON file of config overrides")
    p.add_argument("--data", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--attack", choices=["pgd20", "pgd100", "cw100", "none"], default="pgd20")
    p.add_argument("--eps", type=_parse_eps, default=TrainConfig().attack.epsilon)
    p.add_argument("--seed", type=int, default=0,
                   help="seeds the attack (default 0); a run's seed reproduces its record")
    p.add_argument("--out", help="write the metrics record to this file")

    p = sub.add_parser("report", help="aggregate a run or corruption directory")
    p.add_argument("--run", required=True)
    return parser


def _parse_pairs(text: str) -> tuple[tuple[int, int], ...]:
    if not text:
        return ()
    pairs = []
    for item in text.split(","):
        try:
            src, dst = item.split(":")
            pairs.append((int(src), int(dst)))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected pairs like 0:1,2:3, got {text!r}") from None
    return tuple(pairs)


def _parse_eps(text: str) -> float:
    try:
        eps = float(text)
        if math.isfinite(eps) and eps >= 0:
            return eps
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite, nonnegative radius, got {text!r}")


def _cmd_corrupt(args) -> int:
    try:  # checked before the data is read
        spec = CorruptionSpec(noise_type=args.noise, target_nr=args.nr, target_ir=args.ir,
                              asym_pairs=args.pairs, seed=args.seed)
    except ValueError as err:
        raise _UsageError(err) from None
    ds = load_dataset(args.input)
    out, provenance = corrupt(ds, spec)
    output = Path(args.output)
    output.mkdir(parents=True, exist_ok=True)
    # the provenance is renamed into place only after the dataset is saved,
    # so a failed write of either leaves a previous output directory as it was
    with replaced_together(output, ("corruption.json",)) as temps:
        temps["corruption.json"].write_text(json.dumps(provenance, indent=2) + "\n")
        save_dataset(out, output)
    print(json.dumps(provenance))
    return 0


def _cmd_train(args) -> int:
    try:  # a bad config is a usage problem
        overrides = parse_json(args.config, Path(args.config).read_text()) if args.config else {}
    except ValueError as err:
        raise _UsageError(err) from None
    try:
        if not isinstance(overrides, dict):
            raise ValueError("--config must hold a JSON object")
        config = TrainConfig.from_dict(overrides)
    except ValueError as err:  # the defaults pass, so a --config was given and is at fault
        raise _UsageError(f"{args.config}: {err}") from None
    ds = load_dataset(args.data)
    test = load_dataset(args.test)
    state = train(config, ds, test, args.out)
    print(json.dumps({"best_epoch": state.best_epoch,
                      "best_robust_accuracy": state.best_robust,
                      "out": str(args.out)}))
    return 0


_EVAL_ATTACKS = {
    "pgd20": ("cross_entropy", 20),
    "pgd100": ("cross_entropy", 100),
    "cw100": ("cw_margin", 100),
}


def _cmd_eval(args) -> int:
    model = load_model(args.checkpoint)
    test = load_dataset(args.data)
    attacks = []
    if args.attack != "none":
        loss_kind, steps = _EVAL_ATTACKS[args.attack]
        attacks.append(AttackSpec(epsilon=args.eps, alpha=args.eps / 4, steps=steps,
                                  loss_kind=loss_kind))
    record = evaluate(model, test, attacks, seed=args.seed)
    payload = json.dumps(record.to_dict(), indent=2) + "\n"
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with replaced_together(out.parent, (out.name,)) as temps:
            temps[out.name].write_text(payload)
    print(payload, end="")
    return 0


def _round2(x):
    return None if x is None else round(x, 2)


def _finite_json(path: Path, value, key=None):
    """Raise ValueError naming ``path`` and the key of a NaN or infinite
    number anywhere in the parsed JSON ``value``: ``parse_json`` takes them,
    but the report's output is JSON, which cannot hold them."""
    if isinstance(value, float) and not math.isfinite(value):
        where = "top-level value" if key is None else f"key {key!r}"
        raise ValueError(f"{path}: {where} must be a finite number, got {value}")
    if isinstance(value, dict):
        for k, v in value.items():
            _finite_json(path, v, k)
    elif isinstance(value, list):
        for v in value:
            _finite_json(path, v, key)
    return value


def _cmd_report(args) -> int:
    run = Path(args.run)
    report: dict = {}

    provenance_file = run / "corruption.json"
    if provenance_file.exists():
        report["provenance"] = _finite_json(
            provenance_file, parse_json(provenance_file, provenance_file.read_text()))

    metrics_file = run / "metrics.jsonl"
    epochs = []
    last = None  # the last record that is not an error
    if metrics_file.exists():
        for number, line in enumerate(metrics_file.read_text().splitlines(), 1):
            rec = parse_json(metrics_file, line, number)
            schema = ErrorRecord if isinstance(rec, dict) and "error" in rec else EpochRecord
            try:
                parsed = from_json(schema, rec, "record", defaults=False)
            except ValueError as err:
                raise ValueError(f"{metrics_file} line {number}: {err}") from None
            if schema is ErrorRecord:
                epochs.append(dataclasses.asdict(parsed))
                continue
            last = parsed
            row = {
                "epoch": last.epoch,
                "clean_accuracy": _round2(last.clean_accuracy),
                "refurbished_nr": _round2(last.refurbished_nr),
                "dist_l1_prior": _round2(last.dist_l1_prior),
                "dist_l1_estimated": _round2(last.dist_l1_estimated),
            }
            for name, ra in last.robust_accuracy.items():
                row[f"robust_{name}"] = _round2(ra)
            epochs.append(row)
        report["epochs"] = epochs

    summary_file = run / "summary.json"
    if summary_file.exists():
        report["summary"] = _finite_json(
            summary_file, parse_json(summary_file, summary_file.read_text()))

    if last is not None and last.estimated_counts is not None:
        estimated, gt = last.estimated_counts, last.gt_counts
        report["distribution"] = {
            "epoch": last.epoch,
            "rows": [{"class": c, "prior_count": prior, "estimated_count": estimated[c],
                      "gt_count": None if gt is None else gt[c]}
                     for c, prior in enumerate(last.prior_counts)],
            "estimated_total": sum(estimated),
        }

    if not report:
        raise FileNotFoundError(f"nothing to report under {run}")

    print(json.dumps(report, indent=2))
    return 0


def cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"corrupt": _cmd_corrupt, "train": _cmd_train,
                "eval": _cmd_eval, "report": _cmd_report}
    try:
        return handlers[args.command](args)
    except Exception as err:  # runtime failures exit 2, rejected arguments 1
        print(f"oat: error: {err}", file=sys.stderr)
        return 1 if isinstance(err, _UsageError) else 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()

"""Command-line pipeline: prepare | train | eval | ablate.

Every command writes a run manifest next to its outputs recording the exact
flags, input fingerprints and derived seeds, so artifacts can be reproduced
bit-for-bit. An input's fingerprint is the sha256 of the bytes the command
read from it. Exit codes: 0 ok, 1 usage, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import queue
import sys
import threading

from . import __version__, data, evaluate, train as training
from .model import ABLATION_VARIANTS, VARIANTS, ModelConfig
from .nn import NumericError

SEED_LABELS = ("init", "shuffle", "eps", "loo-split", "cold-split", "cold-negatives")


class CliError(Exception):
    """Usage-level problem detected after argument parsing."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented contract is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class InputHashes:
    """The sha256 of every input a command reads, from the bytes its loader read.

    A loader hands each run of bytes it reads to the callable that
    `fingerprint(path)` returns, in file order, and one helper thread hashes
    them beside the work; hashlib releases the interpreter lock for buffers
    over 2 KiB. No input is opened twice, so a pipe is fingerprinted by the
    bytes the command parsed. Used as a context manager, which starts the
    thread and joins it on exit.
    """

    def __init__(self):
        self._sha = {}   # path -> sha256 of the first read of that path
        # callables the helper runs in order; SimpleQueue.get waits in C, so the
        # helper runs little Python code that would take the interpreter lock
        # from the parse beside it
        self._jobs = queue.SimpleQueue()
        self._error = None
        self._thread = threading.Thread(target=self._run, name="xdvae-sha256", daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self.close()

    def _run(self):
        for job in iter(self._jobs.get, None):
            try:
                job()
            except Exception as e:  # raised in the command by digests()
                self._error = self._error or e
            del job  # the bytes go as soon as they are hashed

    def fingerprint(self, path):
        """The callable a loader of path hands its bytes to, in file order.

        It is returned once the bytes of every earlier input are hashed and
        released. A buffer still held while the next input's arrays are
        allocated would leave a hole in the heap below them, and the process
        that much larger. A path read twice keeps the fingerprint of its first
        read.
        """
        hashed = threading.Event()
        self._jobs.put(hashed.set)
        hashed.wait()
        sha = hashlib.sha256()
        self._sha.setdefault(path, sha)
        return lambda chunk: self._jobs.put(functools.partial(sha.update, chunk))

    def close(self):
        """Hash what is queued and stop the thread."""
        if self._thread.is_alive():
            self._jobs.put(None)
            self._thread.join()

    def digests(self):
        """{path: hex sha256} of every input read, once all its bytes are hashed."""
        self.close()
        if self._error is not None:
            raise self._error
        return {path: sha.hexdigest() for path, sha in self._sha.items()}


def _write_manifest(path, command, args, inputs, artifacts, config=None):
    """Write the manifest; inputs is InputHashes.digests() of the command's inputs."""
    manifest = {
        "tool": "xdvae",
        "version": __version__,
        "command": command,
        "argv": [f"{k}={v}" for k, v in sorted(vars(args).items()) if k != "func"],
        "inputs": inputs,
        "config": config,
        "seed": getattr(args, "seed", None),
        "seed_labels": list(SEED_LABELS),
        "artifacts": artifacts,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_reports(reports, command, args, inputs, config):
    """Write the JSON and CSV reports of eval or ablate and their manifest beside
    them, which the reports name by file name; returns the report paths."""
    json_path, csv_path = f"{args.out}.json", f"{args.out}.csv"
    manifest_path = f"{args.out}.manifest.json"
    manifest = os.path.basename(manifest_path)
    evaluate.write_reports_json(reports, json_path, manifest=manifest)
    evaluate.write_reports_csv(reports, csv_path, manifest=manifest)
    _write_manifest(manifest_path, command, args, inputs=inputs.digests(),
                    artifacts=[json_path, csv_path], config=config.to_dict())
    return json_path, csv_path


def _parse_list(text, flag, kind):
    """The comma-separated values of flag, each read by kind (int or float)."""
    try:
        values = [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        noun = "integer" if kind is int else "float"
        raise CliError(f"{flag} expects a comma-separated {noun} list") from None
    if not values:
        raise CliError(f"{flag} is empty")
    return values


def _check(flag, value, ok, rule):
    """Usage error naming flag unless ok (a NaN fails every range test)."""
    if not ok:
        raise CliError(f"{flag} must be {rule}, got {value!r}")


def _parse_distinct(text, flag, kind, ok, rule):
    """_parse_list's values, each passing ok (else a usage error citing rule), none repeated."""
    values = _parse_list(text, flag, kind)
    for v in values:
        _check(flag, v, ok(v), rule)
    # a repeat would report the same cutoff or score the same fraction twice
    _check(flag, text, len(set(values)) == len(values), "distinct values")
    return values


def _parse_ks(text):
    """The --ks cutoffs of eval and ablate, each within a 100-candidate ranking."""
    return _parse_distinct(text, "--ks", int, lambda k: 1 <= k <= 100, "in 1..100")


def _parse_labels(text):
    return {v.strip() for v in text.split(",") if v.strip()}


def _summary_lines(bundle):
    lines = [f"users (shared): {bundle.m}"]
    for mat in (bundle.source, bundle.target):
        lines.append(
            f"{mat.domain}: items {mat.n_items}, interactions {mat.n_interactions}, "
            f"sparsity {100.0 * mat.sparsity():.2f}%"
        )
    return lines


# ---------------------------------------------------------------------------
# prepare


def cmd_prepare(args, inputs):
    _check("--min-target-positives", args.min_target_positives,
           args.min_target_positives >= 1, ">= 1")
    _check("--seed", args.seed, args.seed >= 0, ">= 0")
    _check("--min-rating", args.min_rating, 1 <= args.min_rating <= 5, "in 1..5")
    _check("--aux-dim", args.aux_dim, args.aux_dim >= 1, ">= 1")
    source_labels = _parse_labels(args.source_labels)
    target_labels = _parse_labels(args.target_labels)
    if not source_labels or not target_labels:
        raise CliError("empty label set")
    overlap = source_labels & target_labels
    if overlap:
        raise CliError(f"source/target label sets overlap: {sorted(overlap)}")

    ratings = data.load_ratings(args.ratings, args.format, inputs.fingerprint(args.ratings))
    labels = data.load_item_labels(args.items, args.format, inputs.fingerprint(args.items))
    source, target = data.split_domains(ratings, labels, source_labels, target_labels)
    bundle = data.binarize_and_filter(
        source, target,
        threshold=args.min_rating,
        min_target_positives=args.min_target_positives,
    )
    bundle.provenance.update(
        source_labels=sorted(source_labels),
        target_labels=sorted(target_labels),
        seed=args.seed,
    )
    split = data.build_loo_split(bundle, args.seed, policy=args.policy)
    if args.aux:
        vectors = data.load_aux_vectors(args.aux, args.aux_dim, inputs.fingerprint(args.aux))
        data.attach_aux(bundle, vectors, expected_dim=args.aux_dim)
    data.save_bundle(bundle, args.out, split=split)
    manifest = _write_manifest(
        f"{args.out}.manifest.json", "prepare", args,
        inputs=inputs.digests(),
        artifacts=[args.out],
    )
    for line in _summary_lines(bundle):
        print(line)
    print(f"bundle: {args.out}")
    print(f"manifest: {manifest}")
    return 0


# ---------------------------------------------------------------------------
# train


def _model_config(args, **fields):
    """ModelConfig from the model flags train and ablate share, then fields.

    A value that ModelConfig.validate rejects is a usage error naming its flag.
    """
    dims = tuple(_parse_list(args.dims, "--dims", int))
    if min(dims) < 1:
        raise CliError("--dims widths must be >= 1")
    shared = dict(beta=args.beta, lambda_reg=args.lambda_reg, lr=args.lr,
                  batch_size=args.batch_size, epochs=args.epochs, latent_dim=args.latent_dim,
                  enc_dims_source=dims, enc_dims_target=dims, seed=args.seed)
    try:
        return ModelConfig(**{**shared, **fields}).validate()
    except ValueError as e:
        # validate's message starts with the field name, the flag's name with "_" for "-"
        field, _, rule = str(e).partition(" ")
        raise CliError(f"--{field.replace('_', '-')} {rule}") from None


def _training_view(bundle, split, config):
    """Rows actually trained on: LOO-held-out removed, or cold train users only."""
    if config.variant == "cold-start":
        cold = data.cold_start_split(bundle, config.cold_fraction, config.seed)
        return data.restrict_users(bundle, cold.train_users)
    if split is None:
        return bundle
    return data.training_bundle(bundle, split)


def cmd_train(args, inputs):
    fields = dict(variant=args.variant, aux_attach=args.aux_attach,
                  cold_fraction=args.cold_fraction)
    # the flags are checked before the bundle is read; aux_dim, the one field
    # the bundle sets, stands in as 1 until then
    config = _model_config(args, **fields, aux_dim=1 if args.variant == "aux" else None)
    bundle, split = data.load_bundle(args.bundle, inputs.fingerprint(args.bundle))
    if args.variant == "aux":
        if bundle.aux_vectors is None:
            raise data.DataError("the aux variant needs a bundle with aux vectors")
        config = _model_config(args, **fields, aux_dim=bundle.aux_vectors.shape[1])
    view = _training_view(bundle, split, config)
    model, history = training.train(view, config, early_stop=args.early_stop)
    training.save_checkpoint(model, args.out)
    history_path = args.history or f"{args.out}.history.json"
    history.save(history_path)
    manifest = _write_manifest(
        f"{args.out}.manifest.json", "train", args,
        inputs=inputs.digests(),
        artifacts=[args.out, history_path],
        config=config.to_dict(),
    )
    final = history.epochs[-1].as_dict() if history.epochs else {}
    print(f"trained {config.variant!r} for {len(history.epochs)} epochs")
    for key, value in final.items():
        print(f"  {key}: {value:.6f}")
    if history.plateau_warning:
        print("warning: loss was still moving over the final epochs")
    print(f"checkpoint: {args.out}")
    print(f"manifest: {manifest}")
    return 0


# ---------------------------------------------------------------------------
# eval


def _loo_view(bundle, split):
    """The rows eval and ablate score from: the bundle's target rows minus the
    held-out items of its leave-one-out split."""
    if split is None:
        raise data.DataError("bundle carries no leave-one-out split")
    return data.training_bundle(bundle, split)


def cmd_eval(args, inputs):
    ks = _parse_ks(args.ks)
    if args.seed is not None:
        _check("--seed", args.seed, args.seed >= 0, ">= 0")
    if args.protocol == "degrade":
        fractions = _parse_distinct(args.fractions, "--fractions", float,
                                    lambda f: 0.0 <= f <= 1.0, "in [0, 1]")
    model, config = training.load_checkpoint(args.model, inputs.fingerprint(args.model))
    bundle, split = data.load_bundle(args.bundle, inputs.fingerprint(args.bundle))
    aux_width = None if bundle.aux_vectors is None else bundle.aux_vectors.shape[1]
    have = (bundle.source.n_items, bundle.target.n_items, aux_width)
    # only the aux variant reads aux vectors
    want = (model.n_source, model.n_target,
            config.aux_dim if config.variant == "aux" else aux_width)
    if have != want:
        raise data.DataError(
            f"bundle dimensions do not match the checkpoint: (source items, target "
            f"items, aux width) are {have} in {args.bundle} and {want} in {args.model}"
        )
    seed = args.seed if args.seed is not None else config.seed

    if args.protocol == "coldstart":
        cold = data.cold_start_split(bundle, config.cold_fraction, config.seed)
        reports = [evaluate.evaluate_cold_start(model, cold, bundle, ks=ks, seed=seed)]
    else:
        view = _loo_view(bundle, split)
        reports = (evaluate.evaluate_degraded(model, view, split, fractions, seed, ks=ks)
                   if args.protocol == "degrade" else
                   [evaluate.evaluate(model, view, split, ks=ks)])

    json_path, csv_path = _write_reports(reports, "eval", args, inputs, config)
    for r in reports:
        tag = f" {r.extra}" if r.extra else ""
        print(f"[{r.protocol}{tag}] " + "  ".join(
            f"HR@{k}={r.hr[k]:.4f} NDCG@{k}={r.ndcg[k]:.4f}" for k in r.ks
        ))
    print(f"metrics: {json_path} {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# ablate


def cmd_ablate(args, inputs):
    ks = _parse_ks(args.ks)
    base = _model_config(args)
    # one (report label, protocol, extra, config) per run, all checked before
    # the bundle is read
    if args.beta_sweep:
        betas = _parse_list(args.beta_sweep, "--beta-sweep", float)
        for beta in betas:
            # ModelConfig.validate's rule for beta, named after this flag
            _check("--beta-sweep", beta, 0 <= beta < math.inf, "finite and >= 0")
        runs = [(f"generic-b{beta:g}", "beta-sweep", {"beta": beta},
                 _model_config(args, beta=beta)) for beta in betas]
        # a repeat would train the same model again, and two values that print
        # alike would report two runs under one label
        labels = {label for label, *_ in runs}
        _check("--beta-sweep", args.beta_sweep, len(set(betas)) == len(labels) == len(betas),
               "distinct values at 6 significant digits")
    else:
        variants = [v.strip() for v in args.variants.split(",") if v.strip()]
        if not variants:
            raise CliError("--variants is empty")
        bad = [v for v in variants if v.lower() not in ABLATION_VARIANTS]
        if bad:
            raise CliError(f"unknown ablation variants: {bad}")
        _check("--variants", args.variants,
               len({v.lower() for v in variants}) == len(variants),
               "distinct names, ignoring case")
        runs = [(name, "ablation", {}, training.ablation_config(base, name))
                for name in variants]
    bundle, split = data.load_bundle(args.bundle, inputs.fingerprint(args.bundle))
    view = _loo_view(bundle, split)

    reports = []
    for label, protocol, extra, config in runs:
        model, _ = training.train(view, config)
        report = evaluate.evaluate(model, view, split, ks=ks)
        del model  # the next run's model is built with this one gone
        report.variant, report.protocol, report.extra = label, protocol, extra
        reports.append(report)

    json_path, csv_path = _write_reports(reports, "ablate", args, inputs, base)
    for r in reports:
        print(f"{r.variant}: " + "  ".join(
            f"HR@{k}={r.hr[k]:.4f} NDCG@{k}={r.ndcg[k]:.4f}" for k in r.ks
        ))
    print(f"table: {json_path} {csv_path}")
    return 0


# ---------------------------------------------------------------------------


# argparse parsers hold reference cycles; one parser per process keeps every
# main() call from leaving another few hundred objects for the cyclic GC
@functools.cache
def build_parser():
    parser = _Parser(prog="xdvae", description=__doc__)
    parser.add_argument("--version", action="version", version=f"xdvae {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    # the model flags of train and ablate, read by _model_config
    model_flags = _Parser(add_help=False)
    model_flags.add_argument("--beta", type=float, default=15.0)
    model_flags.add_argument("--lambda-reg", type=float, default=1e-4)
    model_flags.add_argument("--lr", type=float, default=0.001)
    model_flags.add_argument("--batch-size", type=int, default=32)
    model_flags.add_argument("--epochs", type=int, default=100)
    model_flags.add_argument("--latent-dim", type=int, default=128)
    model_flags.add_argument("--dims", default="256", help="hidden widths, e.g. '512,256'")
    model_flags.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("prepare", help="ingest ratings and build a dataset bundle")
    p.add_argument("--ratings", required=True, help="ratings file")
    p.add_argument("--items", required=True, help="item-label file (genres/categories)")
    p.add_argument("--format", choices=("movielens-dat", "csv"), default="movielens-dat")
    p.add_argument("--source-labels", required=True, help="comma-separated label set")
    p.add_argument("--target-labels", required=True, help="comma-separated label set")
    p.add_argument("--min-rating", type=int, default=4)
    p.add_argument("--min-target-positives", type=int, default=2)
    p.add_argument("--policy", choices=data.LOO_POLICIES, default="random",
                   help="held-out selection policy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--aux", default=None, help="optional per-user auxiliary vectors csv")
    p.add_argument("--aux-dim", type=int, default=256)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", parents=[model_flags], help="train one model variant")
    p.add_argument("--bundle", required=True)
    p.add_argument("--variant", default="generic", choices=VARIANTS)
    p.add_argument("--aux-attach", choices=("both", "source", "target"), default="both")
    p.add_argument("--cold-fraction", type=float, default=0.1)
    p.add_argument("--early-stop", action="store_true")
    p.add_argument("--history", default=None, help="history JSON path")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint under a protocol")
    p.add_argument("--model", required=True)
    p.add_argument("--bundle", required=True)
    p.add_argument("--ks", default="5,10,20,50")
    p.add_argument("--protocol", choices=("standard", "degrade", "coldstart"),
                   default="standard")
    p.add_argument("--fractions", default="1.0,0.75,0.5,0.25,0.0")
    p.add_argument("--seed", type=int, default=None,
                   help="protocol seed (defaults to the checkpoint seed)")
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", parents=[model_flags],
                       help="train and compare ablation variants")
    p.add_argument("--bundle", required=True)
    runs = p.add_mutually_exclusive_group()
    runs.add_argument("--variants", default=",".join(ABLATION_VARIANTS))
    runs.add_argument("--beta-sweep", default=None, help="comma-separated betas")
    p.add_argument("--ks", default="5,10,20,50")
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None):
    """Run one command; returns its exit code, argparse's own included (0 after
    --help or --version, 1 for a usage error it finds)."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code
    try:
        with InputHashes() as inputs:
            return args.func(args, inputs)
    except CliError as e:
        print(f"xdvae: error: {e}", file=sys.stderr)
        return 1
    except training.ModelTooLarge as e:  # only train and ablate build a model to fill
        print(f"xdvae: error: --dims/--latent-dim give {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as e:  # DataError is a ValueError
        print(f"xdvae: data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"xdvae: numeric failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

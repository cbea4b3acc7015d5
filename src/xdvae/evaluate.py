"""Leave-one-out ranking evaluation: HR@K / NDCG@K and the protocol runners.

Each user's held-out target item is ranked against 99 frozen negatives; a hit
at rank p contributes 1 to HR@K and ln2/ln(p+1) to NDCG@K when p <= K, else
nothing. Ties are broken by item index so evaluation is deterministic.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .data import DataError, degrade_target_rows, gather_rows, row_ids, sample_negatives
from .nn import map_on_cpus, named_rng

DEFAULT_KS = (5, 10, 20, 50)


@dataclass
class MetricsReport:
    variant: str
    protocol: str
    seed: int
    m_evaluated: int
    ks: tuple = DEFAULT_KS
    hr: dict = field(default_factory=dict)     # K -> value
    ndcg: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)  # protocol metadata (fraction, ...)

    def to_dict(self):
        return {
            "variant": self.variant,
            "protocol": self.protocol,
            "seed": self.seed,
            "m_evaluated": self.m_evaluated,
            "ks": list(self.ks),
            "hr": {str(k): v for k, v in self.hr.items()},
            "ndcg": {str(k): v for k, v in self.ndcg.items()},
            "extra": self.extra,
        }


def rank_first(scores, ids):
    """1-based rank of column 0 in each row of (n, c) candidate scores and item ids:
    1 + #(s > s0) + #(s == s0 and id < id0), so score ties go to the lower item id."""
    s0 = scores[:, :1]
    ahead = (scores > s0) | ((scores == s0) & (ids < ids[:, :1]))
    return 1 + np.count_nonzero(ahead, axis=1)


def hit_ratio(ranks, k) -> float:
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        raise DataError("no outcomes to aggregate")
    return int(np.count_nonzero(ranks <= k)) / ranks.size


def ndcg(ranks, k) -> float:
    ranks = np.asarray(ranks, dtype=float)
    if ranks.size == 0:
        raise DataError("no outcomes to aggregate")
    gains = np.where(ranks <= k, math.log(2.0) / np.log(ranks + 1.0), 0.0)
    # fsum: the total is correctly rounded, hence independent of addend order
    return math.fsum(gains.tolist()) / ranks.size


def _aggregate(ranks, ks, variant, protocol, seed, extra=None):
    report = MetricsReport(
        variant=variant, protocol=protocol, seed=seed,
        m_evaluated=len(ranks), ks=tuple(ks), extra=extra or {},
    )
    for k in ks:
        report.hr[k] = hit_ratio(ranks, k)
        report.ndcg[k] = ndcg(ranks, k)
    return report


def _candidate_ranks(scores, split):
    """Per-user rank of the held-out item among its 100 candidates."""
    ids = np.column_stack((split.held_out, split.negatives))
    return rank_first(np.take_along_axis(scores, ids, axis=1), ids)


def evaluate(model, bundle, split, ks=DEFAULT_KS):
    """Standard protocol: score each user from (source row, training target row).

    The bundle must hold training rows (held-out items removed); negatives and
    held-out items come frozen from the split.
    """
    leaked = bundle.target.contains(np.arange(bundle.m), split.held_out)
    if leaked.any():
        raise DataError(
            f"held-out item present in training row of user "
            f"{bundle.target.user_index[np.argmax(leaked)]!r}"
        )
    r_s = bundle.source.to_dense()
    r_t = bundle.target.to_dense()
    scores = model.predict_scores(r_s, r_t, aux=bundle.aux_vectors)
    ranks = _candidate_ranks(scores, split)
    return _aggregate(ranks, ks, model.config.variant, "standard", split.seed)


def evaluate_degraded(model, bundle, split, fractions, seed, ks=DEFAULT_KS):
    """Re-run evaluation with the target input rows degraded at prediction time.

    Source rows are untouched and encoded once; scoring-side target rows
    keep the given fraction of their training positives, and a fraction that
    keeps none is scored from r_t None. Returns one report per fraction, in
    the order of fractions. The fractions share no state but the frozen
    model, so they are scored on every usable CPU (see nn.map_on_cpus).
    """
    if model.config.variant not in ("generic", "no-mmd", "aux"):
        raise DataError(
            f"degradation protocol needs a generic-family model, got "
            f"{model.config.variant!r}"
        )
    source = model.encode_source(bundle.source.to_dense(), bundle.aux_vectors)

    def report(_, fraction):
        kept = degrade_target_rows(bundle.target, fraction, seed)
        # the dense rows are only encode_target's argument, so they are freed
        # before the decoder allocates its (users, items) scores
        target = model.encode_target(kept.to_dense() if kept.n_interactions else None, source)
        scores = model.predict_scores(None, None, source=source, target=target)
        return _aggregate(
            _candidate_ranks(scores, split), ks, model.config.variant, "degrade", seed,
            extra={"fraction_kept": fraction},
        )

    return map_on_cpus(report, fractions)


def evaluate_cold_start(model, cold, bundle, ks=DEFAULT_KS, seed=None, n_negatives=99):
    """Cold-start protocol over the held-out test users.

    Every target positive of a test user is a test interaction, ranked
    against 99 fresh negatives sampled outside the user's positive set; the
    model sees the source row only. Averaging is per interaction.
    """
    if model.config.variant != "cold-start":
        raise DataError(
            f"cold-start protocol needs a cold-start model, got "
            f"{model.config.variant!r}"
        )
    seed = cold.seed if seed is None else seed
    rng = named_rng(seed, "cold-negatives")
    n_t = bundle.target.n_items
    test_users = np.asarray(cold.test_users, dtype=np.int64)
    if not len(test_users):
        raise DataError("no cold-start test users")
    r_s = bundle.source.to_dense(test_users)
    scores = model.predict_scores(r_s, None)
    indptr, at = gather_rows(bundle.target.indptr, test_users)
    items = bundle.target.indices[at]
    # each interaction draws its own negatives from its user's pool: the items
    # one rng.choice call per interaction picks, in the order choice gives with
    # shuffle=False, and the stream those calls leave; rank_first counts the
    # candidates ahead of the held-out item, so it does not read their order
    negatives = sample_negatives(indptr, items, n_t, n_negatives, rng, draws=np.diff(indptr))
    ids = np.column_stack((items, negatives))
    ranks = rank_first(scores[row_ids(indptr)[:, None], ids], ids)
    return _aggregate(
        ranks, ks, model.config.variant, "coldstart", seed,
        extra={"n_test_users": int(len(test_users)), "fraction": cold.fraction},
    )


def write_reports_json(reports, path, manifest=None):
    payload = {
        "manifest": manifest,
        "reports": [r.to_dict() for r in reports],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_reports_csv(reports, path, manifest=None):
    """CSV with one row per (report, K); a leading comment names the manifest."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if manifest:
            fh.write(f"# manifest: {manifest}\n")
        writer = csv.writer(fh)
        writer.writerow(["variant", "protocol", "K", "HR", "NDCG", "m", "seed"])
        for r in reports:
            for k in r.ks:
                writer.writerow(
                    [r.variant, r.protocol, k,
                     f"{r.hr[k]:.6f}", f"{r.ndcg[k]:.6f}", r.m_evaluated, r.seed]
                )

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

from .data import DataError, degrade_target_rows, sample_negatives
from .nn import named_rng

DEFAULT_KS = (5, 10, 20, 50)


@dataclass
class RankOutcome:
    user: int
    rank: int   # 1-based among the 100 candidates


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


def rank_test_item(scores, test_position, candidate_ids):
    """1-based rank of the test candidate; score ties broken by lower item id.

    scores and candidate_ids cover exactly the 100 candidates (held-out plus
    99 negatives) in matching order.
    """
    scores = np.asarray(scores)
    candidate_ids = np.asarray(candidate_ids)
    if scores.shape[0] != 100 or candidate_ids.shape[0] != 100:
        raise DataError(f"expected 100 candidates, got {scores.shape[0]}")
    # rolling the test candidate to the front leaves the candidate set unchanged
    return int(rank_first(np.roll(scores, -test_position)[None],
                          np.roll(candidate_ids, -test_position)[None])[0])


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


def evaluate(model, bundle, split, ks=DEFAULT_KS, mode="mean", protocol="standard"):
    """Standard protocol: score each user from (source row, training target row).

    The bundle must hold training rows (held-out items removed); negatives and
    held-out items come frozen from the split.
    """
    target_rows = bundle.target.rows
    for u in range(bundle.m):
        if split.held_out[u] in target_rows[u]:
            raise DataError(
                f"held-out item present in training row of user "
                f"{bundle.target.user_index[u]!r}"
            )
    r_s = bundle.source.to_dense()
    r_t = bundle.target.to_dense()
    scores = model.predict_scores(r_s, r_t, aux=bundle.aux_vectors, mode=mode)
    ranks = _candidate_ranks(scores, split)
    return _aggregate(ranks, ks, model.config.variant, protocol, split.seed)


def evaluate_degraded(model, bundle, split, fractions, seed, ks=DEFAULT_KS, mode="mean"):
    """Re-run evaluation with the target input rows degraded at prediction time.

    Source rows are untouched; scoring-side target rows keep the given
    fraction of their training positives. Returns one report per fraction.
    """
    if model.config.variant not in ("generic", "no-mmd", "aux"):
        raise DataError(
            f"degradation protocol needs a generic-family model, got "
            f"{model.config.variant!r}"
        )
    r_s = bundle.source.to_dense()
    reports = []
    for fraction in fractions:
        rows = degrade_target_rows(bundle.target.rows, fraction, seed)
        r_t = bundle.target.to_dense(rows=rows)
        scores = model.predict_scores(r_s, r_t, aux=bundle.aux_vectors, mode=mode)
        ranks = _candidate_ranks(scores, split)
        reports.append(
            _aggregate(
                ranks, ks, model.config.variant, "degrade", seed,
                extra={"fraction_kept": fraction},
            )
        )
    return reports


def evaluate_cold_start(model, cold, bundle, ks=DEFAULT_KS, seed=None, mode="mean",
                        n_negatives=99):
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
    scores = model.predict_scores(r_s, None, mode=mode)
    rows = [bundle.target.rows[u] for u in test_users]
    # one pool per user; drawing its negatives interaction by interaction keeps
    # the stream of one sample_negatives call per interaction
    ids = [np.column_stack((row, sample_negatives(row, n_t, n_negatives, rng, size=len(row))))
           for row in rows]
    ranks = rank_first(np.concatenate([s[i] for s, i in zip(scores, ids)]), np.concatenate(ids))
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
